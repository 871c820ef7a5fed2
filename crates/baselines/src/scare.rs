//! SCARE (Yakout, Berti-Équille, Elmagarmid — SIGMOD 2013).
//!
//! Maximal-likelihood repairing with bounded changes and no constraint
//! knowledge. The structure follows the published system:
//!
//! 1. Partition tuples into *reliable* (used to fit the model) and
//!    *unreliable* (candidates for update). Without constraints, SCARE
//!    relies on the data distribution itself: a tuple is unreliable if any
//!    of its cells is a statistical outlier given the rest of the tuple
//!    (likelihood below a threshold).
//! 2. Fit `P(flexible attr | rest of tuple)` from the reliable partition —
//!    here a naive-Bayes model over co-occurrence statistics with add-one
//!    smoothing.
//! 3. For each unreliable tuple, search updates over at most δ flexible
//!    cells (the *bounded changes*), scoring each combination by model
//!    likelihood; apply the best update when its likelihood gain clears
//!    the decision threshold.
//!
//! The δ-subset × candidate cross-product search is the cost the original
//! paper pays, and the reason SCARE "failed to terminate after three
//! days" on Food and Physicians in the HoloClean evaluation — the harness
//! runs it under a wall-clock budget and reports DNF the same way.

use crate::{RepairSystem, SystemRepair};
use holo_dataset::{AttrId, CellRef, CooccurStats, Dataset, Sym, TupleId};
use std::time::{Duration, Instant};

/// Configuration for [`Scare`].
#[derive(Debug, Clone, Copy)]
pub struct ScareConfig {
    /// Maximum cells updated per tuple (δ).
    pub max_changes_per_tuple: usize,
    /// Candidate values considered per cell (top-k by conditional
    /// likelihood).
    pub candidates_per_cell: usize,
    /// Minimum log-likelihood gain for an update to be applied.
    pub min_gain: f64,
    /// Per-cell likelihood threshold under which a tuple is unreliable.
    pub outlier_threshold: f64,
    /// Wall-clock budget; `None` runs to completion.
    pub budget: Option<Duration>,
}

impl Default for ScareConfig {
    fn default() -> Self {
        ScareConfig {
            max_changes_per_tuple: 2,
            candidates_per_cell: 5,
            min_gain: 1.0,
            outlier_threshold: 0.05,
            budget: None,
        }
    }
}

/// The SCARE repair system.
pub struct Scare {
    config: ScareConfig,
    /// Set when the last `repair` call exhausted its budget.
    pub timed_out: bool,
}

impl Scare {
    /// SCARE with default configuration.
    pub fn new() -> Self {
        Scare {
            config: ScareConfig::default(),
            timed_out: false,
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: ScareConfig) -> Self {
        self.config = config;
        self
    }

    /// Naive-Bayes conditional `P(v@a | other cells of t)` with add-one
    /// smoothing, in log space. `override_cells` substitutes candidate
    /// values for the evidence cells during update scoring.
    fn log_likelihood(
        ds: &Dataset,
        stats: &CooccurStats,
        t: TupleId,
        a: AttrId,
        v: Sym,
        overrides: &[(AttrId, Sym)],
    ) -> f64 {
        let read = |attr: AttrId| -> Sym {
            overrides
                .iter()
                .find(|&&(oa, _)| oa == attr)
                .map(|&(_, ov)| ov)
                .unwrap_or_else(|| ds.cell(t, attr))
        };
        let n = stats.tuple_count() as f64;
        let prior = (f64::from(stats.count(a, v)) + 1.0) / (n + stats.distinct(a) as f64);
        let mut ll = prior.ln();
        for other in ds.schema().attrs() {
            if other == a {
                continue;
            }
            let ov = read(other);
            if ov.is_null() {
                continue;
            }
            let joint = f64::from(stats.cooccur_count(a, v, other, ov)) + 1.0;
            let denom = f64::from(stats.count(a, v)) + stats.distinct(other) as f64;
            ll += (joint / denom).ln();
        }
        ll
    }

    /// Top-k candidate values for a cell by conditional likelihood.
    fn candidates(&self, ds: &Dataset, stats: &CooccurStats, t: TupleId, a: AttrId) -> Vec<Sym> {
        let mut scored: Vec<(Sym, f64)> = Vec::new();
        for other in ds.schema().attrs() {
            if other == a {
                continue;
            }
            let ov = ds.cell(t, other);
            if ov.is_null() {
                continue;
            }
            if let Some(co) = stats.group(other, ov, a) {
                co.for_each(|v, _| {
                    if scored.iter().all(|&(s, _)| s != v) {
                        scored.push((v, Self::log_likelihood(ds, stats, t, a, v, &[])));
                    }
                });
            }
        }
        scored.sort_by(|(s1, l1), (s2, l2)| {
            l2.partial_cmp(l1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(s1.cmp(s2))
        });
        scored.truncate(self.config.candidates_per_cell);
        scored.into_iter().map(|(s, _)| s).collect()
    }
}

impl Default for Scare {
    fn default() -> Self {
        Self::new()
    }
}

impl RepairSystem for Scare {
    fn name(&self) -> &str {
        "SCARE"
    }

    fn repair(&mut self, ds: &Dataset) -> Vec<SystemRepair> {
        self.timed_out = false;
        let start = Instant::now();
        let stats = CooccurStats::build(ds);
        let attrs: Vec<AttrId> = ds.schema().attrs().collect();
        let mut repairs = Vec::new();

        'tuples: for t in ds.tuples() {
            if let Some(budget) = self.config.budget {
                if start.elapsed() > budget {
                    self.timed_out = true;
                    break 'tuples;
                }
            }
            // Reliability check: every cell's conditional probability,
            // ranked by severity so the δ bound keeps the worst offenders.
            let mut flagged: Vec<(AttrId, f64)> = Vec::new();
            for &a in &attrs {
                let v = ds.cell(t, a);
                if v.is_null() {
                    // A null is only worth imputing when the attribute is
                    // normally populated; all-null columns carry no model.
                    let null_count = stats.count(a, holo_dataset::Sym::NULL);
                    if f64::from(null_count) < 0.5 * stats.tuple_count() as f64 {
                        flagged.push((a, 0.0));
                    }
                    continue;
                }
                // Probability of the observed value relative to the best
                // alternative (cheap proxy for the outlier test).
                let ll_obs = Self::log_likelihood(ds, &stats, t, a, v, &[]);
                let best_alt = self
                    .candidates(ds, &stats, t, a)
                    .first()
                    .map(|&alt| Self::log_likelihood(ds, &stats, t, a, alt, &[]));
                if let Some(best) = best_alt {
                    let ratio = (ll_obs - best).exp();
                    if ratio < self.config.outlier_threshold {
                        flagged.push((a, ratio));
                    }
                }
            }
            if flagged.is_empty() {
                continue;
            }
            flagged.sort_by(|(a1, r1), (a2, r2)| {
                r1.partial_cmp(r2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a1.cmp(a2))
            });
            flagged.truncate(self.config.max_changes_per_tuple);
            let suspicious: Vec<AttrId> = flagged.into_iter().map(|(a, _)| a).collect();

            // Bounded-change update search: cross-product of candidates
            // over the suspicious attributes (including "keep").
            let per_attr: Vec<(AttrId, Vec<Sym>)> = suspicious
                .iter()
                .map(|&a| {
                    let mut c = vec![ds.cell(t, a)];
                    for v in self.candidates(ds, &stats, t, a) {
                        if !c.contains(&v) {
                            c.push(v);
                        }
                    }
                    (a, c)
                })
                .collect();
            let tuple_ll = |overrides: &[(AttrId, Sym)]| -> f64 {
                attrs
                    .iter()
                    .map(|&a| {
                        let v = overrides
                            .iter()
                            .find(|&&(oa, _)| oa == a)
                            .map(|&(_, ov)| ov)
                            .unwrap_or_else(|| ds.cell(t, a));
                        if v.is_null() {
                            0.0
                        } else {
                            Self::log_likelihood(ds, &stats, t, a, v, overrides)
                        }
                    })
                    .sum()
            };
            let baseline = tuple_ll(&[]);
            let mut best: Option<(Vec<(AttrId, Sym)>, f64)> = None;
            let mut odometer = vec![0usize; per_attr.len()];
            loop {
                let overrides: Vec<(AttrId, Sym)> = per_attr
                    .iter()
                    .zip(&odometer)
                    .filter(|((a, c), &i)| c[i] != ds.cell(t, *a))
                    .map(|((a, c), &i)| (*a, c[i]))
                    .collect();
                if !overrides.is_empty() {
                    let ll = tuple_ll(&overrides);
                    if ll > baseline + self.config.min_gain
                        && best.as_ref().is_none_or(|(_, b)| ll > *b)
                    {
                        best = Some((overrides, ll));
                    }
                }
                // Advance.
                let mut i = 0;
                loop {
                    if i == odometer.len() {
                        break;
                    }
                    odometer[i] += 1;
                    if odometer[i] < per_attr[i].1.len() {
                        break;
                    }
                    odometer[i] = 0;
                    i += 1;
                }
                if i == odometer.len() {
                    break;
                }
            }
            if let Some((overrides, _)) = best {
                for (a, v) in overrides {
                    repairs.push(SystemRepair {
                        cell: CellRef { tuple: t, attr: a },
                        old_value: ds.cell_str(t, a).to_string(),
                        new_value: ds.value_str(v).to_string(),
                    });
                }
            }
        }
        repairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;

    fn duplicated_ds() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["City", "State", "Zip"]));
        for _ in 0..20 {
            ds.push_row(&["Chicago", "IL", "60608"]);
        }
        for _ in 0..20 {
            ds.push_row(&["Madison", "WI", "53703"]);
        }
        ds.push_row(&["Chicago", "WI", "60608"]); // wrong state
        ds
    }

    #[test]
    fn repairs_statistical_outlier() {
        let ds = duplicated_ds();
        let mut sys = Scare::new();
        let repairs = sys.repair(&ds);
        assert!(
            repairs
                .iter()
                .any(|r| r.old_value == "WI" && r.new_value == "IL"),
            "repairs: {repairs:?}"
        );
        assert!(!sys.timed_out);
    }

    #[test]
    fn clean_duplicated_data_untouched() {
        let mut ds = Dataset::new(Schema::new(vec!["City", "State"]));
        for _ in 0..10 {
            ds.push_row(&["Chicago", "IL"]);
        }
        for _ in 0..10 {
            ds.push_row(&["Madison", "WI"]);
        }
        let mut sys = Scare::new();
        assert!(sys.repair(&ds).is_empty());
    }

    #[test]
    fn no_duplicates_no_signal() {
        // Every tuple unique: likelihoods are flat, nothing clears the
        // gain threshold — the Flights failure mode (near-zero recall).
        let mut ds = Dataset::new(Schema::new(vec!["a", "b"]));
        for i in 0..10 {
            ds.push_row(&[format!("x{i}"), format!("y{i}")]);
        }
        let mut sys = Scare::new();
        assert!(sys.repair(&ds).is_empty());
    }

    #[test]
    fn budget_triggers_timeout() {
        let ds = duplicated_ds();
        let mut sys = Scare::new().with_config(ScareConfig {
            budget: Some(Duration::ZERO),
            ..ScareConfig::default()
        });
        let repairs = sys.repair(&ds);
        assert!(sys.timed_out);
        assert!(repairs.is_empty());
    }

    #[test]
    fn bounded_changes_limit_updates_per_tuple() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c", "d"]));
        for _ in 0..20 {
            ds.push_row(&["1", "2", "3", "4"]);
        }
        ds.push_row(&["9", "8", "7", "4"]); // three bad cells, δ = 2
        let mut sys = Scare::new();
        let repairs = sys.repair(&ds);
        let last_tuple: Vec<_> = repairs
            .iter()
            .filter(|r| r.cell.tuple.index() == 20)
            .collect();
        assert!(last_tuple.len() <= 2, "δ-bounded: {last_tuple:?}");
    }
}
