//! Sample summaries: median, quartiles, and the tail percentile a sample
//! count can support.

/// Percentiles the benchmark may report, highest first.
const LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// A tail percentile is only reported with at least this many samples
/// beyond it; below that it is a reading of one or two outliers.
const SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); `0.0`
/// for no samples, which only a metric that does not apply to the workload
/// has.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the exclusive
/// method), so a spread printed here is the spread the driver will see.
/// Needs two samples; fewer give the single sample (or zero) three times.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (1..=100) of a non-empty sample.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let v = sorted(samples);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The highest percentile of the ladder 99/95/90/75/50 that still has ten
/// samples beyond it; the median when the sample supports nothing higher.
pub fn highest_valid_percentile(n: usize) -> u32 {
    LADDER
        .into_iter()
        .find(|&p| n >= rank(n.max(1), p) + SAMPLES_BEYOND)
        .unwrap_or(50)
}

/// Spread of a sample for the result file.
pub fn spread(samples: &[f64]) -> crate::json::Json {
    use crate::json::Json;
    let [q1, q2, q3] = quartiles(samples);
    Json::obj([
        ("n", Json::Int(samples.len() as i64)),
        ("q1", Json::Num(q1)),
        ("median", Json::Num(q2)),
        ("q3", Json::Num(q3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=176).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 88.0);
        assert_eq!(percentile(&v, 90), 159.0);
        assert_eq!(percentile(&v, 100), 176.0);
        assert_eq!(percentile(&[9.0], 90), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 11 repairs: no tail percentile is valid, only the median.
        assert_eq!(highest_valid_percentile(11), 50);
        assert_eq!(highest_valid_percentile(0), 50);
        // 16 batches x 3 rounds: p75 has 12 beyond, p90 only 4.
        assert_eq!(highest_valid_percentile(48), 75);
        // 99 samples: p90 is rank 90 with 9 beyond; 100 samples: 10 beyond.
        assert_eq!(highest_valid_percentile(99), 75);
        assert_eq!(highest_valid_percentile(100), 90);
        // 16 batches x 11 rounds, the issue's example.
        assert_eq!(highest_valid_percentile(176), 90);
        assert_eq!(highest_valid_percentile(200), 95);
        assert_eq!(highest_valid_percentile(1000), 99);
    }
}
