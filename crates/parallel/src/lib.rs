//! Deterministic data-parallel primitives for the HoloClean pipeline.
//!
//! The build environment is offline, so rayon is unavailable; this crate
//! provides the small parallel vocabulary the staged engine needs, built on
//! `std::thread::scope`. Every operation here has a hard determinism
//! contract: **the result is identical for every thread count**, including
//! `threads = 1`, which runs inline on the caller's stack with no pool at
//! all. Parallel maps split the input into contiguous chunks, each worker
//! produces its chunk's outputs in input order, and chunks are concatenated
//! in order — so a pure `f` yields bit-for-bit the sequential result.
//!
//! Work sizing: spawning threads costs ~10µs each, so [`parallel_chunks`]
//! and [`parallel_flat_map`] fall back to the inline path for inputs
//! smaller than [`MIN_PARALLEL_ITEMS`] items.

use std::num::NonZeroUsize;

/// Below this many items a parallel map runs inline — thread spawn overhead
/// would dominate.
pub const MIN_PARALLEL_ITEMS: usize = 64;

/// Below this much total work (an arbitrary caller-estimated unit, e.g.
/// `rows × pairs` for a statistics build or probe count for a blocking
/// join) a job-style dispatch should run sequentially. [`parallel_jobs`]
/// has no per-item cutoff of its own — jobs are assumed coarse — so
/// callers with data-dependent job sizes clamp their thread count with
/// [`sized_threads`] instead.
pub const MIN_PARALLEL_WORK: usize = 4096;

/// Clamps a configured thread count to `1` when the estimated total
/// `work` is below [`MIN_PARALLEL_WORK`], so tiny inputs never pay thread
/// spawn overhead. Pure sizing — results are identical either way under
/// this crate's determinism contract.
pub fn sized_threads(threads: usize, work: usize) -> usize {
    if work < MIN_PARALLEL_WORK {
        1
    } else {
        effective_threads(threads)
    }
}

/// Resolves a configured thread-count knob: `0` means "all cores"
/// (`std::thread::available_parallelism`), anything else is taken as-is.
pub fn effective_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        configured
    }
}

/// Maps `f(index, item)` over `items` with up to `threads` worker threads
/// and flattens in order: each item may produce any number of outputs and
/// the concatenation order matches the sequential `flat_map`.
/// Deterministic for pure `f` regardless of `threads`.
pub fn parallel_flat_map<T: Sync, R: Send, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    F: Fn(usize, &T) -> Vec<R> + Sync,
{
    let f = &f;
    parallel_chunks(threads, items, |offset, chunk| {
        chunk
            .iter()
            .enumerate()
            .flat_map(|(i, t)| f(offset + i, t))
            .collect()
    })
}

/// The chunk-level primitive under [`parallel_flat_map`]: `f(offset, chunk)`
/// receives a contiguous sub-slice starting at `items[offset]` and returns
/// that chunk's outputs in item order; chunk outputs concatenate in chunk
/// order. Use directly when per-item work wants per-chunk reusable scratch
/// (a buffer allocated once per chunk instead of once per item).
/// Determinism contract: the outputs must depend only on the items, never
/// on the chunking — with that, the result is identical for every thread
/// count, and `threads = 1` (or a small input) runs `f(0, items)` inline
/// with no pool.
pub fn parallel_chunks<T: Sync, R: Send, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let threads = effective_threads(threads).min(items.len()).max(1);
    if threads == 1 || items.len() < MIN_PARALLEL_ITEMS {
        return f(0, items);
    }
    spawn_ranges(threads, items.len(), |start, len| {
        f(start, &items[start..start + len])
    })
}

/// Runs `n` independent jobs (indexed `0..n`) on up to `threads` threads
/// and returns their results in index order. Unlike [`parallel_chunks`]
/// there is no minimum-size cutoff: jobs are assumed coarse (e.g. one inference
/// component or one full-column statistics scan each).
pub fn parallel_jobs<R: Send, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads(threads).min(n).max(1);
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    spawn_ranges(threads, n, |start, len| {
        (start..start + len).map(f).collect()
    })
}

/// [`parallel_jobs`] with cost-aware dispatch: jobs are handed to workers
/// **longest-estimated-first** (descending `weight(i)`, ties broken by
/// ascending index) instead of being pre-split into contiguous index
/// ranges, so one expensive job no longer pins a whole range's tail behind
/// it. Results are still merged **by original index**, so for a pure `f`
/// the output is identical to [`parallel_jobs`] — the weights steer
/// wall-clock only, never the result. `weight` is evaluated once per job
/// on the caller's thread before any worker starts.
pub fn parallel_jobs_weighted<R: Send, F, W>(threads: usize, n: usize, weight: W, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
    W: Fn(usize) -> u64,
{
    let threads = effective_threads(threads).min(n).max(1);
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let weights: Vec<u64> = (0..n).map(weight).collect();
    let order = weighted_order(&weights);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (f, order, cursor) = (&f, &order, &cursor);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&i) = order.get(k) else { break };
                        done.push((i, f(i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in join_propagating(h) {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job index dispatched exactly once"))
        .collect()
}

/// The dispatch order under [`parallel_jobs_weighted`]: job indices sorted
/// by descending weight, ties by ascending index — deterministic for a
/// given weight vector.
fn weighted_order(weights: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    order
}

/// The shared spawn/merge scaffolding: splits `0..n` into `threads`
/// contiguous ranges (the first `n % threads` one element longer), runs
/// `f(start, len)` for each on a scoped thread, and concatenates the
/// per-range outputs in range order. Callers handle their own sequential
/// cutoffs before reaching here.
fn spawn_ranges<R: Send, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    F: Fn(usize, usize) -> Vec<R> + Sync,
{
    let base = n / threads;
    let remainder = n % threads;
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(threads);
        let mut start = 0usize;
        for w in 0..threads {
            let len = base + usize::from(w < remainder);
            let offset = start;
            start += len;
            handles.push(scope.spawn(move || f(offset, len)));
        }
        for h in handles {
            results.push(join_propagating(h));
        }
    });
    results.into_iter().flatten().collect()
}

/// Joins a worker, re-raising its panic with the original payload — an
/// `expect` here would bury the worker's own message and location under a
/// generic one.
fn join_propagating<R>(h: std::thread::ScopedJoinHandle<'_, R>) -> R {
    h.join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_zero_means_all_cores() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn sized_threads_clamps_small_work_to_sequential() {
        assert_eq!(sized_threads(8, 0), 1);
        assert_eq!(sized_threads(8, MIN_PARALLEL_WORK - 1), 1);
        assert_eq!(sized_threads(8, MIN_PARALLEL_WORK), 8);
        // `0` still means "all cores" once the work is large enough.
        assert!(sized_threads(0, MIN_PARALLEL_WORK) >= 1);
    }

    /// One output per item, indexed: the same vector at every thread
    /// count, more threads than items included.
    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let f = |i: usize, &x: &usize| vec![i * 1000 + x * x];
        let sequential = parallel_flat_map(1, &items, f);
        assert_eq!(sequential.len(), items.len());
        for threads in [2, 3, 4, 7, 16, 1000, 2000] {
            let parallel = parallel_flat_map(threads, &items, f);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        let items = [1, 2, 3];
        let caller = std::thread::current().id();
        let out = parallel_flat_map(8, &items, |_, &x| {
            assert_eq!(std::thread::current().id(), caller, "ran on a worker");
            vec![x * 2]
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn empty_input() {
        let items: [u8; 0] = [];
        assert!(parallel_flat_map(4, &items, |_, &x| vec![x]).is_empty());
        assert!(parallel_chunks(4, &items, |_, chunk| chunk.to_vec()).is_empty());
        assert!(parallel_jobs(4, 0, |i| i).is_empty());
    }

    #[test]
    fn flat_map_matches_sequential_flatten() {
        let items: Vec<usize> = (0..500).collect();
        let f = |_i: usize, &x: &usize| (0..x % 4).map(|k| (x, k)).collect::<Vec<_>>();
        let seq: Vec<_> = items
            .iter()
            .enumerate()
            .flat_map(|(i, t)| f(i, t))
            .collect();
        assert_eq!(parallel_flat_map(5, &items, f), seq);
    }

    #[test]
    fn chunks_see_contiguous_offsets() {
        let items: Vec<usize> = (0..300).collect();
        for threads in [1, 2, 5, 8] {
            let out = parallel_chunks(threads, &items, |offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        assert_eq!(items[offset + i], x, "offset/chunk misaligned");
                        x * 2
                    })
                    .collect()
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jobs_return_in_index_order() {
        let out = parallel_jobs(4, 9, |i| i * 10);
        assert_eq!(out, (0..9).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_actually_parallel_when_asked() {
        // Structural overlap check (immune to scheduler load, unlike a
        // wall-clock bound): record each job's [start, end) interval and
        // require that at least one pair overlaps.
        let t0 = std::time::Instant::now();
        let spans = parallel_jobs(4, 4, |_| {
            let begin = t0.elapsed();
            std::thread::sleep(std::time::Duration::from_millis(40));
            (begin, t0.elapsed())
        });
        let overlapping = spans
            .iter()
            .enumerate()
            .any(|(i, &(s1, e1))| spans.iter().skip(i + 1).any(|&(s2, e2)| s1 < e2 && s2 < e1));
        assert!(overlapping, "no two jobs overlapped: {spans:?}");
    }

    #[test]
    fn weighted_jobs_match_plain_jobs_for_any_weights() {
        let f = |i: usize| i * i + 7;
        let reference = parallel_jobs(1, 23, f);
        for threads in [1, 2, 3, 4, 8] {
            for weight in [
                |_: usize| 0u64,
                |i: usize| i as u64,
                |i: usize| (23 - i) as u64,
                |i: usize| (i as u64).wrapping_mul(0x9E37_79B9) % 11,
            ] {
                let out = parallel_jobs_weighted(threads, 23, weight, f);
                assert_eq!(out, reference, "threads = {threads}");
            }
        }
    }

    #[test]
    fn weighted_order_is_longest_first_with_index_ties() {
        assert_eq!(weighted_order(&[5, 9, 9, 1, 7]), vec![1, 2, 4, 0, 3]);
        assert_eq!(weighted_order(&[3, 3, 3]), vec![0, 1, 2]);
        assert_eq!(weighted_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn weighted_jobs_actually_parallel_when_asked() {
        let t0 = std::time::Instant::now();
        let spans = parallel_jobs_weighted(
            4,
            4,
            |i| i as u64,
            |_| {
                let begin = t0.elapsed();
                std::thread::sleep(std::time::Duration::from_millis(40));
                (begin, t0.elapsed())
            },
        );
        let overlapping = spans
            .iter()
            .enumerate()
            .any(|(i, &(s1, e1))| spans.iter().skip(i + 1).any(|&(s2, e2)| s1 < e2 && s2 < e1));
        assert!(overlapping, "no two jobs overlapped: {spans:?}");
    }

    #[test]
    #[should_panic(expected = "weighted worker message")]
    fn weighted_worker_panics_keep_their_payload() {
        parallel_jobs_weighted(
            4,
            16,
            |_| 1,
            |i| {
                if i == 11 {
                    panic!("weighted worker message");
                }
                i
            },
        );
    }

    #[test]
    #[should_panic(expected = "original worker message")]
    fn worker_panics_keep_their_payload() {
        let items: Vec<usize> = (0..200).collect();
        parallel_flat_map(4, &items, |i, _| {
            if i == 137 {
                panic!("original worker message");
            }
            vec![i]
        });
    }
}
