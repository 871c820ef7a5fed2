//! Marginal-probability confidence analysis (§6.3.3, Figure 6).
//!
//! HoloClean's repairs carry calibrated marginals: bucketing repairs by
//! probability and measuring the per-bucket error rate shows the rate
//! falling as confidence rises, which is what lets users verify only the
//! low-confidence repairs.

use crate::repair::RepairReport;
use holo_dataset::Dataset;
use serde::{Deserialize, Serialize};

/// One probability bucket `[lo, hi)` with its repair tally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceBucket {
    /// Inclusive lower probability bound.
    pub lo: f64,
    /// Exclusive upper bound (inclusive for the last bucket).
    pub hi: f64,
    /// Repairs whose marginal falls in the bucket.
    pub repairs: usize,
    /// Of those, repairs that do not match the ground truth.
    pub wrong: usize,
}

impl ConfidenceBucket {
    /// Error rate of the bucket; `None` when it holds no repairs.
    pub fn error_rate(&self) -> Option<f64> {
        if self.repairs == 0 {
            None
        } else {
            Some(self.wrong as f64 / self.repairs as f64)
        }
    }
}

/// The Figure 6 buckets: `[0.5,0.6) … [0.9,1.0]`.
pub const FIG6_EDGES: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Buckets the report's repairs by marginal probability and scores each
/// bucket against ground truth. `edges` must be ascending; repairs below
/// `edges[0]` are ignored (Figure 6 starts at 0.5, the minimum a MAP
/// repair over two candidates can have).
pub fn confidence_buckets(
    report: &RepairReport,
    truth: &Dataset,
    edges: &[f64],
) -> Vec<ConfidenceBucket> {
    assert!(edges.len() >= 2, "need at least one bucket");
    let mut buckets: Vec<ConfidenceBucket> = edges
        .windows(2)
        .map(|w| ConfidenceBucket {
            lo: w[0],
            hi: w[1],
            repairs: 0,
            wrong: 0,
        })
        .collect();
    let last = buckets.len() - 1;
    for r in &report.repairs {
        let p = r.probability;
        if p < edges[0] {
            continue;
        }
        // Find the bucket; the final edge is inclusive.
        let idx = buckets
            .iter()
            .position(|b| p >= b.lo && (p < b.hi || (p <= b.hi && b.hi == edges[edges.len() - 1])))
            .unwrap_or(last);
        buckets[idx].repairs += 1;
        let truth_value = truth.cell_str(r.cell.tuple, r.cell.attr);
        if r.new_value != truth_value {
            buckets[idx].wrong += 1;
        }
    }
    buckets
}

/// Expected calibration error of the marginals: every query cell's MAP
/// candidate — its probability against whether it is the true value — in
/// ten equal-width bins, `Σ_b (n_b / n) · |accuracy_b − confidence_b|`.
/// `ds` resolves the report's symbols (the table the run read); 0 for a
/// report without posteriors.
pub fn expected_calibration_error(report: &RepairReport, ds: &Dataset, truth: &Dataset) -> f64 {
    // Per bin: the summed confidence and the count of right MAP values.
    let mut bins = [(0.0f64, 0usize); 10];
    for p in &report.posteriors {
        // The first of equal maxima, as `Marginals::map_candidate` picks.
        let best = p
            .candidates
            .iter()
            .reduce(|a, b| if b.1 > a.1 { b } else { a });
        let Some(&(map, prob)) = best else { continue };
        let bin = &mut bins[((prob * 10.0) as usize).min(9)];
        bin.0 += prob;
        bin.1 += usize::from(ds.value_str(map) == truth.cell_str(p.cell.tuple, p.cell.attr));
    }
    let n = report.posteriors.len().max(1) as f64;
    bins.iter()
        .map(|&(confidence, right)| (right as f64 - confidence).abs() / n)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{CellPosterior, Repair};
    use holo_dataset::{CellRef, Schema};

    fn make_report(probs_and_correct: &[(f64, bool)]) -> (RepairReport, Dataset) {
        let mut truth = Dataset::new(Schema::new(vec!["v"]));
        let mut repairs = Vec::new();
        for (i, &(p, correct)) in probs_and_correct.iter().enumerate() {
            truth.push_row(&["right"]);
            let new_value = if correct { "right" } else { "wrong" };
            let mut scratch = Dataset::new(Schema::new(vec!["v"]));
            let new = scratch.intern(new_value);
            repairs.push(Repair {
                cell: CellRef::new(i, 0usize),
                old: holo_dataset::Sym::NULL,
                new,
                old_value: "orig".into(),
                new_value: new_value.into(),
                probability: p,
            });
        }
        (
            RepairReport {
                repairs,
                posteriors: vec![],
            },
            truth,
        )
    }

    #[test]
    fn buckets_partition_probability_range() {
        let (report, truth) = make_report(&[
            (0.55, false),
            (0.65, true),
            (0.75, true),
            (0.85, true),
            (0.95, true),
            (1.0, true), // upper edge inclusive
        ]);
        let buckets = confidence_buckets(&report, &truth, &FIG6_EDGES);
        assert_eq!(buckets.len(), 5);
        let counts: Vec<usize> = buckets.iter().map(|b| b.repairs).collect();
        assert_eq!(counts, vec![1, 1, 1, 1, 2]);
    }

    #[test]
    fn error_rates_computed_per_bucket() {
        let (report, truth) = make_report(&[
            (0.55, false),
            (0.56, false),
            (0.57, true),
            (0.95, true),
            (0.96, true),
        ]);
        let buckets = confidence_buckets(&report, &truth, &FIG6_EDGES);
        let low = buckets[0].error_rate().unwrap();
        assert!((low - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(buckets[4].error_rate(), Some(0.0));
        assert_eq!(buckets[1].error_rate(), None, "empty bucket");
    }

    #[test]
    fn below_first_edge_ignored() {
        let (report, truth) = make_report(&[(0.3, true)]);
        let buckets = confidence_buckets(&report, &truth, &FIG6_EDGES);
        assert!(buckets.iter().all(|b| b.repairs == 0));
    }

    /// Two cells at p = 0.95, both right, and two at p = 0.55, one right:
    /// bins 9 and 5 are each off by 0.1 over 2 of 4 cells, so ECE = 0.05.
    #[test]
    fn calibration_error_weighs_each_bin_by_its_cells() {
        let mut ds = Dataset::new(Schema::new(vec!["v"]));
        let mut truth = Dataset::new(Schema::new(vec!["v"]));
        let (right, wrong) = (ds.intern("right"), ds.intern("wrong"));
        let cells = [(right, 0.95), (right, 0.95), (right, 0.55), (wrong, 0.55)];
        let posteriors = cells
            .iter()
            .enumerate()
            .map(|(i, &(map, p))| {
                truth.push_row(&["right"]);
                let other = if map == right { wrong } else { right };
                CellPosterior {
                    cell: CellRef::new(i, 0usize),
                    candidates: vec![(other, 1.0 - p), (map, p)],
                }
            })
            .collect();
        let report = RepairReport {
            repairs: vec![],
            posteriors,
        };
        let ece = expected_calibration_error(&report, &ds, &truth);
        assert!((ece - 0.05).abs() < 1e-12, "{ece}");
        assert_eq!(
            expected_calibration_error(&RepairReport::default(), &ds, &truth),
            0.0
        );
    }
}
