//! User feedback and incremental retraining (§2.2, §7).
//!
//! "We can use these marginal probabilities to solicit user feedback. For
//! example, we can ask users to verify repairs with low marginal
//! probabilities and use those as labeled examples to retrain the
//! parameters of HoloClean's model using standard incremental learning
//! and inference techniques."
//!
//! [`FeedbackSession`] implements that loop over a compiled model:
//!
//! 1. [`FeedbackSession::requests`] ranks the query cells by how unsure
//!    the model is (lowest MAP marginal first) — the cells a human should
//!    look at next.
//! 2. [`FeedbackSession::apply_labels`] pins user-verified cells as
//!    evidence variables.
//! 3. [`FeedbackSession::retrain`] re-runs SGD — warm-started from the
//!    current weights (the "incremental" part) — and re-infers marginals
//!    for the still-unlabelled cells.
//!
//! ## What a label changes
//!
//! The compiled model stays as built. An out-of-domain label appends one
//! (featureless) candidate row to its variable in the CSR design matrix
//! via `DesignMatrix::append_candidate_row`; an in-domain label changes
//! nothing in the matrix; the patched matrix equals a fresh build of the
//! same rows, bit for bit. Pinning converts a query variable to evidence
//! *inside* its component (clique scopes are unioned over all members, so
//! no split is ever needed), so re-inference runs partitioned over the
//! component index the model already has —
//! [`FeedbackSession::partition_stats`] reports how the latest pass routed
//! components between closed form, exact enumeration and Gibbs, and
//! [`FeedbackSession::timings`] accumulates the learn/infer wall-clock of
//! every retrain round.

use crate::compile::CompiledModel;
use crate::config::HoloConfig;
use crate::error::HoloError;
use crate::pipeline::{infer_marginals, train_checked, StageTimings};
use crate::repair::RepairReport;
use holo_dataset::{CellRef, Dataset, FxHashMap, Sym};
use holo_factor::{LearnStats, Marginals, PartitionStats, Weights};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A cell the model wants verified, with its current best guess.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackRequest {
    /// The cell to verify.
    pub cell: CellRef,
    /// The model's current MAP value.
    pub proposed: String,
    /// The marginal probability of the proposal (low = unsure).
    pub confidence: f64,
}

/// One verified label: the true value of a cell, from the user.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// The verified cell.
    pub cell: CellRef,
    /// Its true value.
    pub value: String,
}

/// Interactive repair refinement over a compiled model.
pub struct FeedbackSession {
    model: CompiledModel,
    weights: Weights,
    config: HoloConfig,
    /// Cells already pinned by the user.
    labelled: FxHashMap<CellRef, Sym>,
    marginals: Marginals,
    /// Learn/infer wall-clock accumulated over retrain rounds, plus the
    /// latest routing snapshot.
    timings: StageTimings,
}

impl FeedbackSession {
    /// Starts a session from a finished run (see
    /// [`HoloClean::run_full`](crate::HoloClean::run_full)) — the model,
    /// its learned weights, and the configuration used.
    pub fn new(model: CompiledModel, weights: Weights, config: HoloConfig, ds: &Dataset) -> Self {
        let mut timings = StageTimings::default();
        let t0 = Instant::now();
        let (marginals, partition) = infer_marginals(&model, &weights, ds, &config);
        timings.infer += t0.elapsed();
        timings.partition = partition;
        FeedbackSession {
            model,
            weights,
            config,
            labelled: FxHashMap::default(),
            marginals,
            timings,
        }
    }

    /// The cells most worth human review: unlabelled query cells ordered
    /// by ascending MAP confidence, truncated to `limit`.
    pub fn requests(&self, ds: &Dataset, limit: usize) -> Vec<FeedbackRequest> {
        let mut out: Vec<FeedbackRequest> = self
            .model
            .query_cells
            .iter()
            .zip(&self.model.query_vars)
            .filter(|(cell, _)| !self.labelled.contains_key(cell))
            .map(|(&cell, &var)| {
                let (k, p) = self.marginals.map_candidate(var);
                FeedbackRequest {
                    cell,
                    proposed: ds
                        .value_str(self.model.graph.var(var).domain[k])
                        .to_string(),
                    confidence: p,
                }
            })
            .collect();
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN
        // marginal (possible for degenerate empty-count chains) makes the
        // latter an inconsistent comparator — `sort_by` may panic on one
        // and the order is unspecified. Under the IEEE total order NaN
        // confidences sort last, after every real confidence.
        out.sort_by(|a, b| {
            a.confidence
                .total_cmp(&b.confidence)
                .then(a.cell.cmp(&b.cell))
        });
        out.truncate(limit);
        out
    }

    /// Pins user-verified values. Labels whose value is not among the
    /// cell's candidates are added to the variable's domain on the fly
    /// (the user knows values the statistics never proposed) — which
    /// appends one candidate row to the compiled design matrix. Unknown
    /// cells are ignored.
    ///
    /// Each pinned cell's marginal becomes a point mass on the label
    /// immediately, so [`FeedbackSession::report`] reflects the pin (with
    /// probability 1, and a probability vector as long as the extended
    /// domain) even before the next [`FeedbackSession::retrain`].
    pub fn apply_labels(&mut self, ds: &mut Dataset, labels: &[Label]) {
        for label in labels {
            let Some(idx) = self.model.query_cells.iter().position(|&c| c == label.cell) else {
                continue;
            };
            let var = self.model.query_vars[idx];
            let sym = ds.intern(&label.value);
            self.model.graph.pin_evidence(var, sym);
            let pinned = self.model.graph.var(var);
            let k = pinned.evidence.expect("pin_evidence just fixed this var");
            self.marginals.pin(var, k, pinned.arity());
            self.labelled.insert(label.cell, sym);
        }
    }

    /// Incremental retraining: SGD warm-started from the current weights
    /// (labelled cells now contribute gradients as evidence), then fresh
    /// inference for the remaining query cells, both billed to
    /// [`FeedbackSession::timings`]. Weights and marginals are replaced
    /// only by a finite training run: on [`HoloError::LearnDiverged`] the
    /// session is exactly as it was before the call.
    pub fn retrain(&mut self, ds: &Dataset) -> Result<LearnStats, HoloError> {
        let t0 = Instant::now();
        let (weights, stats) = train_checked(&self.model.graph, &self.weights, &self.config)?;
        self.timings.learn += t0.elapsed();
        let t1 = Instant::now();
        let (marginals, partition) = infer_marginals(&self.model, &weights, ds, &self.config);
        self.timings.infer += t1.elapsed();
        self.timings.partition = partition;
        self.weights = weights;
        self.marginals = marginals;
        Ok(stats)
    }

    /// The current repair report (labelled cells report their pinned value
    /// with probability 1).
    pub fn report(&self, ds: &Dataset) -> RepairReport {
        RepairReport::from_marginals(
            ds,
            &self.model.query_cells,
            &self.model.query_vars,
            &self.model.graph,
            &self.marginals,
        )
    }

    /// Number of labels applied so far.
    pub fn labelled_count(&self) -> usize {
        self.labelled.len()
    }

    /// How the most recent inference pass (session start or the last
    /// [`FeedbackSession::retrain`]) partitioned the graph and routed its
    /// components between closed form, exact enumeration and Gibbs.
    pub fn partition_stats(&self) -> PartitionStats {
        self.timings.partition
    }

    /// Wall-clock accumulated by this session (initial inference plus
    /// every retrain round), with [`StageTimings::partition`] the latest
    /// routing snapshot.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use crate::session::HoloClean;
    use holo_dataset::Schema;

    /// A dataset where half the conflicts are 1-vs-1 ties the model cannot
    /// resolve alone — exactly the cells feedback should surface.
    fn ambiguous_dataset() -> (Dataset, Dataset) {
        let mut dirty = Dataset::new(Schema::new(vec!["Key", "Value"]));
        let mut clean = Dataset::new(Schema::new(vec!["Key", "Value"]));
        // Ten 2-row groups with conflicting values: unknowable ties.
        for i in 0..10 {
            let k = format!("k{i}");
            dirty.push_row(&[k.as_str(), "alpha"]);
            dirty.push_row(&[k.as_str(), "beta"]);
            clean.push_row(&[k.as_str(), "alpha"]);
            clean.push_row(&[k.as_str(), "alpha"]);
        }
        // Plus clean mass so evidence exists.
        for i in 10..40 {
            let k = format!("k{i}");
            for _ in 0..2 {
                dirty.push_row(&[k.as_str(), "gamma"]);
                clean.push_row(&[k.as_str(), "gamma"]);
            }
        }
        (dirty, clean)
    }

    fn session_for(dirty: &Dataset) -> (FeedbackSession, Dataset) {
        session_with(dirty, "FD: Key -> Value")
    }

    fn session_with(dirty: &Dataset, constraints: &str) -> (FeedbackSession, Dataset) {
        let (outcome, model, weights) = HoloClean::new(dirty.clone())
            .with_constraint_text(constraints)
            .unwrap()
            .run_full()
            .unwrap();
        let config = HoloConfig::default();
        let ds = outcome.dataset;
        let session = FeedbackSession::new(model, weights, config, &ds);
        (session, ds)
    }

    #[test]
    fn requests_surface_low_confidence_cells_first() {
        let (dirty, _) = ambiguous_dataset();
        let (session, ds) = session_for(&dirty);
        let requests = session.requests(&ds, 100);
        assert!(!requests.is_empty());
        for pair in requests.windows(2) {
            assert!(pair[0].confidence <= pair[1].confidence + 1e-12);
        }
        // The tied cells sit near 0.5 confidence.
        assert!(requests[0].confidence < 0.75, "{:?}", requests[0]);
    }

    #[test]
    fn labels_pin_cells_and_retraining_propagates() {
        let (dirty, clean) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let before = evaluate(&session.report(&ds), &dirty, &clean);

        // Label the five least-confident cells with their true values.
        let requests = session.requests(&ds, 5);
        let labels: Vec<Label> = requests
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect();
        session.apply_labels(&mut ds, &labels);
        assert_eq!(session.labelled_count(), 5);
        session.retrain(&ds).unwrap();

        let after = evaluate(&session.report(&ds), &dirty, &clean);
        assert!(
            after.correct_repairs >= before.correct_repairs,
            "feedback must not lose correct repairs: {before:?} -> {after:?}"
        );
        // The labelled cells themselves now repair correctly.
        let report = session.report(&ds);
        for label in &labels {
            let truth = clean.cell_str(label.cell.tuple, label.cell.attr);
            let observed = dirty.cell_str(label.cell.tuple, label.cell.attr);
            if truth != observed {
                assert!(
                    report
                        .repairs
                        .iter()
                        .any(|r| r.cell == label.cell && r.new_value == truth),
                    "labelled cell {label:?} must be repaired"
                );
            }
        }
    }

    #[test]
    fn labelling_everything_yields_perfect_labelled_cells() {
        let (dirty, clean) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let requests = session.requests(&ds, usize::MAX);
        let labels: Vec<Label> = requests
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect();
        session.apply_labels(&mut ds, &labels);
        session.retrain(&ds).unwrap();
        let q = evaluate(&session.report(&ds), &dirty, &clean);
        assert_eq!(q.precision, 1.0, "{q:?}");
        assert_eq!(q.recall, 1.0, "{q:?}");
        // Nothing left to ask.
        assert!(session.requests(&ds, 10).is_empty());
    }

    #[test]
    fn out_of_domain_labels_are_accepted() {
        let (dirty, _) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let cell = session.requests(&ds, 1)[0].cell;
        session.apply_labels(
            &mut ds,
            &[Label {
                cell,
                value: "omega".to_string(), // never seen anywhere
            }],
        );
        session.retrain(&ds).unwrap();
        let report = session.report(&ds);
        assert!(report
            .repairs
            .iter()
            .any(|r| r.cell == cell && r.new_value == "omega"));
    }

    /// Regression: a NaN confidence must not panic the ranking (`sort_by`
    /// rejects inconsistent comparators) and must sort *after* every real
    /// confidence under the IEEE total order.
    #[test]
    fn nan_confidences_sort_last_without_panicking() {
        let (dirty, _) = ambiguous_dataset();
        let (mut session, ds) = session_for(&dirty);
        // Poison a handful of marginals with NaN, as a degenerate
        // empty-count chain would.
        let n = session.model.query_vars.len();
        assert!(n >= 4, "need a few query vars");
        for &var in session.model.query_vars.iter().step_by(2) {
            let arity = session.model.graph.var(var).arity();
            let raw: Vec<Vec<f64>> = (0..session.marginals.len())
                .map(|i| {
                    if i == var.index() {
                        vec![f64::NAN; arity]
                    } else {
                        session
                            .marginals
                            .probs(holo_factor::VarId(i as u32))
                            .to_vec()
                    }
                })
                .collect();
            session.marginals = Marginals::from_raw(raw);
        }
        let requests = session.requests(&ds, usize::MAX);
        assert_eq!(requests.len(), n);
        let first_nan = requests
            .iter()
            .position(|r| r.confidence.is_nan())
            .expect("poisoned confidences surface");
        assert!(
            requests[first_nan..].iter().all(|r| r.confidence.is_nan()),
            "NaN confidences must form the tail of the ranking"
        );
        assert!(requests[..first_nan]
            .windows(2)
            .all(|p| p[0].confidence <= p[1].confidence));
    }

    /// Regression: between `apply_labels` and `retrain`, a pinned cell —
    /// even one pinned to an out-of-domain value, which extends the
    /// variable's domain past the stale marginal vector — must already
    /// report its label with probability 1, as the `report` docs promise.
    #[test]
    fn pinned_cells_report_immediately_before_retrain() {
        let (dirty, _) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let cells: Vec<CellRef> = session.requests(&ds, 2).iter().map(|r| r.cell).collect();
        session.apply_labels(
            &mut ds,
            &[
                Label {
                    cell: cells[0],
                    value: "omega".to_string(), // out-of-domain: appends a candidate
                },
                Label {
                    cell: cells[1],
                    value: "alpha".to_string(), // in-domain
                },
            ],
        );
        // No retrain yet: the report must already pin both cells.
        let report = session.report(&ds);
        for (cell, value) in [(cells[0], "omega"), (cells[1], "alpha")] {
            let post = report
                .posteriors
                .iter()
                .find(|p| p.cell == cell)
                .expect("pinned cell keeps its posterior");
            let var = session.model.query_vars[session
                .model
                .query_cells
                .iter()
                .position(|&c| c == cell)
                .unwrap()];
            assert_eq!(
                post.candidates.len(),
                session.model.graph.var(var).arity(),
                "posterior covers the extended domain"
            );
            let (sym, p) = post
                .candidates
                .iter()
                .find(|(s, _)| ds.value_str(*s) == value)
                .copied()
                .expect("label among candidates");
            assert_eq!(p, 1.0, "pinned {value} at probability 1, got {sym:?}={p}");
        }
    }

    /// A multi-round feedback session (requests → apply_labels → retrain →
    /// report, with in-domain and out-of-domain labels) grows the design
    /// matrix by exactly one row per out-of-domain label, and the patched
    /// matrix stays bit-for-bit equal to a graph built afresh from the
    /// compiled rows plus the (featureless) pinned candidates.
    #[test]
    fn feedback_session_never_rebuilds_the_design_matrix() {
        let (dirty, clean) = ambiguous_dataset();
        let (mut session, mut ds) = session_for(&dirty);
        let compiled = session.model.graph.clone();
        let mut out_of_domain = 0;
        for round in 0..3 {
            let requests = session.requests(&ds, 3);
            if requests.is_empty() {
                break;
            }
            let labels: Vec<Label> = requests
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let value = if i == 0 {
                        out_of_domain += 1;
                        format!("novel-{round}-{i}") // never in any domain
                    } else {
                        clean.cell_str(r.cell.tuple, r.cell.attr).to_string()
                    };
                    Label {
                        cell: r.cell,
                        value,
                    }
                })
                .collect();
            session.apply_labels(&mut ds, &labels);
            session.retrain(&ds).unwrap();
            let _ = session.report(&ds);
        }
        assert!(out_of_domain > 0, "exercised the append path");
        assert_eq!(
            session.model.graph.design().rows(),
            compiled.design().rows() + out_of_domain,
            "one row per novel label"
        );
        let mut fresh = holo_factor::GraphBuilder::new();
        for v in compiled.var_ids() {
            let added = fresh.add_variable(session.model.graph.var(v).clone());
            for k in 0..compiled.var(v).arity() {
                for &(w, x) in compiled.features(v, k) {
                    fresh.add_feature(added, k, w, x);
                }
            }
        }
        assert_eq!(
            session.model.graph.design(),
            fresh.build().design(),
            "patched matrix == fresh build, bit for bit"
        );
        assert!(session.timings().learn > std::time::Duration::ZERO);
        // Pins leave the component index as the compiled model had it.
        assert_eq!(session.model.graph.components(), compiled.components());
        assert!(session.partition_stats().components > 0);
    }

    /// A retrain that diverges is a typed error and changes nothing: the
    /// overflowed weights never reach inference or the session.
    #[test]
    fn diverging_retrain_is_an_error_and_leaves_the_session_untouched() {
        // Flag is two-to-one under every Key, so each clean Flag cell keeps
        // both candidates and rows with identical features carry different
        // labels: evidence no weights can fit, which is what a huge rate
        // overflows on. One single-tuple DC flags k0's "n", so Flag has a
        // query variable and its evidence is trained on at all.
        let mut dirty = Dataset::new(Schema::new(vec!["Key", "Value", "Flag"]));
        for i in 0..40 {
            for flag in ["y", "y", "n"] {
                dirty.push_row(&[format!("k{i}").as_str(), "gamma", flag]);
            }
        }
        dirty.push_row(&["k0", "delta", "y"]); // a conflict to label
        let constraints = "FD: Key -> Value\nt1&EQ(t1.Key,\"k0\")&EQ(t1.Flag,\"n\")";
        let (mut session, mut ds) = session_with(&dirty, constraints);
        assert!(session
            .model
            .query_cells
            .iter()
            .any(|c| c.attr == holo_dataset::AttrId(2)));
        let cell = session.requests(&ds, 1)[0].cell;
        let value = "gamma".to_string();
        session.apply_labels(&mut ds, &[Label { cell, value }]);
        let (weights, marginals) = (session.weights.clone(), session.marginals.clone());
        let report = session.report(&ds);

        session.config.learn.learning_rate = 1e308;
        let err = session.retrain(&ds).expect_err("1e308 overflows");
        assert!(matches!(err, HoloError::LearnDiverged { .. }), "got {err}");
        assert_eq!(session.weights, weights);
        assert_eq!(session.marginals, marginals);
        assert_eq!(session.report(&ds), report);

        // The session is still usable once the rate is sane again.
        session.config.learn.learning_rate = HoloConfig::default().learn.learning_rate;
        session.retrain(&ds).unwrap();
    }
}
