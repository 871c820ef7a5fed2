//! Host-speed calibration: a fixed kernel timed right before and after every
//! measured operation, so a timing can be reported at a reference host speed.
//!
//! Why: the benchmark runs on shared hosts whose speed drifts for seconds to
//! minutes at a time (busy co-tenants on the sibling hardware thread and in
//! the shared cache; nothing the guest can see — no steal time, no
//! throttling). Sizing saw the median of 15 s of back-to-back repairs, one
//! binary, one seed, move by 16% (`hospital_1k`) to 79% (`physicians_20k`)
//! between windows of one process, whatever the estimator (median, first
//! quartile, minimum), and the same drift in loops that touch no program
//! code. Dividing each sample by the slowdown the kernel saw around it
//! brought those to 5% and 28%.
//!
//! The kernel is benchmark code: no change to the program under test can
//! move it, so a calibrated time moves only when the program does. It is two
//! loops, because a repair is part arithmetic and part cache misses and the
//! two do not drift alike: a dependent xorshift chain (ALU) and a dependent
//! random walk over 4 MB (cache-resident, so it feels a co-tenant evicting
//! it, as a repair does; a 32 MB walk that always misses tracked repairs
//! worse on every workload). The slowdown is the geometric mean of the two
//! against [`REFERENCE`]; of the combinations tried it was the steadiest
//! across all five workloads.

use std::hint::black_box;
use std::time::Instant;

/// What the two loops take on the sizing host (2-core Xeon, 2.1 GHz) when
/// it is quiet: the first percentile of 800 readings over fifteen minutes.
/// A calibrated second is a second of that host at that speed.
const REFERENCE: Kernel = Kernel {
    alu_s: 0.0181,
    walk_s: 0.0174,
};

const ALU_STEPS: u64 = 12_000_000;
const WALK_STEPS: usize = 400_000;
/// 2^19 words = 4 MB: past the private caches, inside the shared one.
const WALK_WORDS: usize = 1 << 19;

#[derive(Debug, Clone, Copy)]
struct Kernel {
    alu_s: f64,
    walk_s: f64,
}

/// Owns the memory the random walk reads, and the last slowdown it read.
pub struct Calibrator {
    words: Vec<u64>,
    last: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let mut cal = Calibrator {
            words: (0..WALK_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 5)
                .collect(),
            last: 1.0,
        };
        cal.resync();
        cal
    }

    fn kernel(&self) -> Kernel {
        let start = Instant::now();
        let mut x = 88_172_645_463_325_252u64;
        let mut sum = 0u64;
        for _ in 0..black_box(ALU_STEPS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(x);
        }
        black_box(sum);
        let alu_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mask = self.words.len() - 1;
        let mut at = 12_345usize;
        let mut sum = 0u64;
        for _ in 0..black_box(WALK_STEPS) {
            let word = self.words[at & mask];
            sum = sum.wrapping_add(word);
            at = at
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(word as usize | 1)
                >> 3;
        }
        black_box(sum);
        Kernel {
            alu_s,
            walk_s: start.elapsed().as_secs_f64(),
        }
    }

    /// How much slower than the reference the host runs right now
    /// (`1.0` = reference speed). Takes about 40 ms.
    fn slowdown(&self) -> f64 {
        let now = self.kernel();
        ((now.alu_s / REFERENCE.alu_s) * (now.walk_s / REFERENCE.walk_s)).sqrt()
    }

    /// Takes a fresh reading to stand before the next [`Calibrator::time`].
    /// Call it after untimed work; back-to-back timed operations reuse the
    /// reading taken after the previous one.
    pub fn resync(&mut self) {
        self.last = self.slowdown();
    }

    /// Times `f`: raw wall-clock seconds, and the slowdown around them —
    /// the mean of the reading before `f` and a fresh one after it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.slowdown();
        let slowdown = (self.last + after) / 2.0;
        self.last = after;
        (out, Timed { raw_s, slowdown })
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// How much slower than the reference the host ran around them.
    pub slowdown: f64,
}

impl Timed {
    /// Seconds at the reference host speed.
    pub fn calibrated_s(&self) -> f64 {
        self.raw_s / self.slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_divides_out_the_slowdown_around_the_sample() {
        let mut cal = Calibrator::new();
        let before = cal.last;
        assert!(before.is_finite() && before > 0.0);
        let (out, timed) = cal.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(out, 7);
        assert!(timed.raw_s >= 0.020);
        assert_eq!(timed.slowdown, (before + cal.last) / 2.0);
        assert_eq!(timed.calibrated_s(), timed.raw_s / timed.slowdown);
        cal.resync();
        assert!(cal.last > 0.0);
    }
}
