//! The counting allocator, in a test binary of its own with a single
//! `#[test]`: the counters are process-wide, so nothing else — not another
//! test, not the harness printing one's result — may allocate while one
//! part counts.

use holobench::alloc::{self, AllocCounts};
use holobench::workloads::{find, one_shot};
fn counted<R>(f: impl FnOnce() -> R) -> (AllocCounts, R) {
    alloc::start();
    let out = f();
    (alloc::stop(), out)
}

fn counts_exact_sizes_and_the_peak() {
    let (c, kept) = counted(|| {
        let kept = vec![0u8; 10_000];
        let dropped = vec![0u8; 50_000];
        drop(std::hint::black_box(dropped));
        kept
    });
    assert_eq!(c.allocs, 2);
    assert_eq!(c.alloc_bytes, 60_000);
    assert_eq!(c.live_bytes, 10_000);
    assert_eq!(c.peak_bytes, 60_000);

    // Freeing memory that predates `start` drives live bytes negative; the
    // peak stays relative to the start.
    let (c, ()) = counted(|| drop(kept));
    assert_eq!((c.live_bytes, c.peak_bytes, c.allocs), (-10_000, 0, 0));

    // A growing vector reallocates: each step is one call.
    let (c, v) = counted(|| {
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend(0..5);
        v
    });
    assert_eq!(c.allocs, 2);
    assert_eq!(c.live_bytes, 8 * v.capacity() as i64);
}

fn off_means_untouched() {
    let (before, ()) = counted(|| ());
    assert_eq!(before, AllocCounts::default());
    std::hint::black_box(vec![1u8; 1 << 20]);
    assert_eq!(alloc::snapshot(), before);
}

/// The property `peak_heap_mb` and the per-span `alloc_mb`/`allocs` rest
/// on: at `threads = 1` a repair allocates in a fixed order, so two counted
/// repairs of one input read exactly the same.
fn a_single_threaded_repair_counts_the_same_every_time() {
    let input = find("hospital_1k").unwrap().input(5, true);
    // Once uncounted: whatever the process sets up lazily on first use.
    drop(one_shot(&input, 1).unwrap());
    let (first, report) = counted(|| one_shot(&input, 1));
    drop(report.unwrap());
    let (second, report) = counted(|| one_shot(&input, 1));
    drop(report.unwrap());
    assert!(
        first.allocs > 1_000 && first.peak_bytes > 100_000,
        "{first:?}"
    );
    assert_eq!(first, second);
}

#[test]
fn counting_allocator() {
    counts_exact_sizes_and_the_peak();
    off_means_untouched();
    a_single_threaded_repair_counts_the_same_every_time();
}
