//! User feedback (§2.2, §7): a session is **a table, its labels and a
//! cached run**.
//!
//! "We can use these marginal probabilities to solicit user feedback. For
//! example, we can ask users to verify repairs with low marginal
//! probabilities and use those as labeled examples to retrain the
//! parameters of HoloClean's model using standard incremental learning
//! and inference techniques."
//!
//! [`FeedbackSession`] implements that loop with the shape of
//! [`crate::stream::StreamSession`]:
//!
//! 1. [`FeedbackSession::requests`] ranks the query cells by how unsure
//!    the model is (lowest MAP marginal first) — the cells a human should
//!    look at next.
//! 2. [`FeedbackSession::apply_labels`] writes the user-verified values
//!    into the session's table, marks their cells
//!    [`verified`](PipelineContext::verified) and drops the cached run.
//! 3. The next read ([`FeedbackSession::requests`] or
//!    [`FeedbackSession::try_report`]) makes one [`pipeline::run`] over
//!    the edited table. That run *is* the retrain: learning from the
//!    priors, then inference.
//!
//! ## What a label changes
//!
//! A label is a table edit. Detection, the co-occurrence statistics and
//! the relaxed-DC counts all read the verified value, so a label that
//! resolves a conflict unflags its partners too. Detection drops verified
//! cells from the noisy set, so a labelled cell is never a query variable:
//! it is an ordinary clean cell, and it trains the model through the
//! evidence selection every clean cell goes through. That selection is a
//! bottom-k sample, so each cell a label brings into an attribute's clean
//! list displaces at most one sampled cell: the rest of the training set
//! stays put from one read to the next. No graph is ever patched.
//!
//! A read is therefore, to the bit, `pipeline::run` over a context whose
//! table holds the labels and whose `verified` set holds their cells. Its
//! report adds one repair at probability 1 for each label that differs
//! from the value its cell held before its first label.
//!
//! Dictionary matches (the `Matched` relation) are computed once, by
//! [`FeedbackSession::new`], over the table as given; a label does not
//! re-match its cell.

use crate::error::HoloError;
use crate::pipeline::{self, PipelineContext, PipelineRun, StageTimings};
use crate::repair::{Repair, RepairReport};
use crate::HoloClean;
use holo_dataset::{CellRef, Dataset, Sym};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

/// Interactive repair refinement: the table with every label written, and
/// the cached one-shot run over it. See the module docs for what a label
/// changes.
pub struct FeedbackSession {
    /// The inputs of every run; the table holds the labels, `verified`
    /// their cells.
    cx: PipelineContext,
    /// The value each labelled cell held before its first label.
    before: BTreeMap<CellRef, Sym>,
    /// The run over the current table; `None` until the first read and
    /// after every label batch.
    run: Option<PipelineRun>,
    /// Stage durations summed over the runs made, with the last run's
    /// partition and statistics blocks.
    timings: StageTimings,
}

/// The run in `slot`, made over `cx` (and billed to `timings`) if there
/// is none. A failed run leaves `slot` empty.
fn cached_or_run<'a>(
    cx: &PipelineContext,
    slot: &'a mut Option<PipelineRun>,
    timings: &mut StageTimings,
) -> Result<&'a PipelineRun, HoloError> {
    if let Some(run) = slot {
        return Ok(run);
    }
    let run = pipeline::run(cx)?;
    timings.bill(&run.timings);
    Ok(slot.insert(run))
}

impl FeedbackSession {
    /// Opens a session over a configured builder: its table, constraints,
    /// dictionaries, detectors and configuration. Matches the
    /// dictionaries against the table as given; the first read makes the
    /// first run.
    pub fn new(holo: HoloClean) -> Result<Self, HoloError> {
        Ok(FeedbackSession {
            cx: holo.into_context()?,
            before: BTreeMap::new(),
            run: None,
            timings: StageTimings::default(),
        })
    }

    /// The cells most worth human review: the query cells ordered by
    /// ascending MAP confidence, truncated to `limit`. Makes the run if
    /// there is none; a failed run is returned as its error.
    pub fn requests(&mut self, limit: usize) -> Result<Vec<FeedbackRequest>, HoloError> {
        let run = cached_or_run(&self.cx, &mut self.run, &mut self.timings)?;
        let model = &run.model;
        let mut out: Vec<FeedbackRequest> = model
            .query_cells
            .iter()
            .zip(&model.query_vars)
            .map(|(&cell, &var)| {
                let (k, p) = run.marginals.map_candidate(var);
                FeedbackRequest {
                    cell,
                    proposed: self
                        .cx
                        .ds
                        .value_str(model.graph.var(var).domain[k])
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
        Ok(out)
    }

    /// Writes user-verified values into the table and marks their cells
    /// verified. Any cell of the table can be labelled, flagged or not,
    /// with any value (the user knows values the statistics never
    /// proposed). A label naming a tuple or attribute outside the table
    /// rejects the whole batch with [`HoloError::Feedback`] before
    /// anything changes. A non-empty batch drops the cached run.
    pub fn apply_labels(&mut self, labels: &[Label]) -> Result<(), HoloError> {
        let (rows, attrs) = (self.cx.ds.tuple_count(), self.cx.ds.schema().len());
        if let Some(label) = labels
            .iter()
            .find(|l| l.cell.tuple.index() >= rows || l.cell.attr.index() >= attrs)
        {
            return Err(HoloError::Feedback(format!(
                "label for cell {} is outside the {rows} × {attrs} table",
                label.cell
            )));
        }
        for label in labels {
            let ds = &mut self.cx.ds;
            let sym = ds.intern(&label.value);
            self.before
                .entry(label.cell)
                .or_insert(ds.cell_ref(label.cell));
            ds.set_cell(label.cell.tuple, label.cell.attr, sym);
            self.cx.verified.insert(label.cell);
        }
        if !labels.is_empty() {
            self.run = None;
        }
        Ok(())
    }

    /// Repairs and posteriors: the report of the run over the labelled
    /// table, plus one repair at probability 1 for each label that changed
    /// its cell, all in cell order. Makes the run if a label batch (or
    /// nothing yet) left the session without one.
    ///
    /// Fails like the one-shot pipeline does
    /// ([`HoloError::PrunedInitialValue`], [`HoloError::LearnDiverged`]).
    /// A failed read caches nothing and keeps every label; the next read
    /// tries again.
    pub fn try_report(&mut self) -> Result<RepairReport, HoloError> {
        let run = cached_or_run(&self.cx, &mut self.run, &mut self.timings)?;
        let ds = &self.cx.ds;
        let mut report = RepairReport::from_marginals(
            ds,
            &run.model.query_cells,
            &run.model.query_vars,
            &run.model.graph,
            &run.marginals,
        );
        report
            .repairs
            .extend(self.before.iter().filter_map(|(&cell, &old)| {
                let new = ds.cell_ref(cell);
                (new != old).then(|| Repair {
                    cell,
                    old,
                    new,
                    old_value: ds.value_str(old).to_string(),
                    new_value: ds.value_str(new).to_string(),
                    probability: 1.0,
                })
            }));
        report.repairs.sort_by_key(|r| r.cell);
        Ok(report)
    }

    /// The table with every label written; report symbols resolve here.
    pub fn dataset(&self) -> &Dataset {
        &self.cx.ds
    }

    /// Number of distinct cells labelled so far.
    pub fn labelled_count(&self) -> usize {
        self.cx.verified.len()
    }

    /// Stage durations summed over every run this session made, with
    /// [`StageTimings::partition`] and [`StageTimings::stats`] the last
    /// run's.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HoloConfig;
    use crate::metrics::evaluate;
    use holo_dataset::{AttrId, Schema, TupleId};
    use holo_factor::Marginals;

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

    fn session_for(dirty: &Dataset) -> FeedbackSession {
        session_with(dirty, "FD: Key -> Value")
    }

    fn session_with(dirty: &Dataset, constraints: &str) -> FeedbackSession {
        let holo = HoloClean::new(dirty.clone())
            .with_constraint_text(constraints)
            .unwrap();
        FeedbackSession::new(holo).unwrap()
    }

    fn truth_labels(requests: &[FeedbackRequest], clean: &Dataset) -> Vec<Label> {
        requests
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect()
    }

    #[test]
    fn requests_surface_low_confidence_cells_first() {
        let (dirty, _) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        let requests = session.requests(100).unwrap();
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
        let mut session = session_for(&dirty);
        let before = evaluate(&session.try_report().unwrap(), &dirty, &clean);

        // Label the five least-confident cells with their true values.
        let labels = truth_labels(&session.requests(5).unwrap(), &clean);
        session.apply_labels(&labels).unwrap();
        assert_eq!(session.labelled_count(), 5);
        assert!(session.run.is_none(), "a label drops the run");

        let report = session.try_report().unwrap();
        let after = evaluate(&report, &dirty, &clean);
        assert!(
            after.correct_repairs >= before.correct_repairs,
            "feedback must not lose correct repairs: {before:?} -> {after:?}"
        );
        // The labelled cells themselves now repair correctly.
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
        assert!(report.repairs.is_sorted_by_key(|r| r.cell));
    }

    #[test]
    fn labelling_everything_yields_perfect_labelled_cells() {
        let (dirty, clean) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        let labels = truth_labels(&session.requests(usize::MAX).unwrap(), &clean);
        session.apply_labels(&labels).unwrap();
        let q = evaluate(&session.try_report().unwrap(), &dirty, &clean);
        assert_eq!(q.precision, 1.0, "{q:?}");
        assert_eq!(q.recall, 1.0, "{q:?}");
        // Nothing left to ask.
        assert!(session.requests(10).unwrap().is_empty());
    }

    #[test]
    fn out_of_domain_labels_are_accepted() {
        let (dirty, _) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        let cell = session.requests(1).unwrap()[0].cell;
        let value = "omega".to_string(); // never seen anywhere
        session.apply_labels(&[Label { cell, value }]).unwrap();
        let report = session.try_report().unwrap();
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
        let mut session = session_for(&dirty);
        let n = session.requests(usize::MAX).unwrap().len();
        assert!(n >= 4, "need a few query vars");
        // Poison every other query marginal with NaN, as a degenerate
        // empty-count chain would.
        let run = session.run.as_mut().unwrap();
        let poisoned: Vec<usize> = run
            .model
            .query_vars
            .iter()
            .step_by(2)
            .map(|v| v.index())
            .collect();
        let raw: Vec<Vec<f64>> = (0..run.marginals.len())
            .map(|i| {
                let probs = run.marginals.probs(holo_factor::VarId(i as u32));
                if poisoned.contains(&i) {
                    vec![f64::NAN; probs.len()]
                } else {
                    probs.to_vec()
                }
            })
            .collect();
        run.marginals = Marginals::from_raw(raw);
        let requests = session.requests(usize::MAX).unwrap();
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

    /// The next read after `apply_labels` reports every label that changed
    /// its cell, in-domain or not, as a repair at probability 1; a
    /// labelled cell is no query cell, so it has no posterior.
    #[test]
    fn pinned_cells_report_immediately_before_retrain() {
        let (dirty, _) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        let requests = session.requests(2).unwrap();
        let labelled = [(requests[0].cell, "omega"), (requests[1].cell, "alpha")];
        let labels: Vec<Label> = labelled
            .iter()
            .map(|&(cell, value)| Label {
                cell,
                value: value.to_string(),
            })
            .collect();
        session.apply_labels(&labels).unwrap();
        let report = session.try_report().unwrap();
        for (cell, value) in labelled {
            assert!(report.posteriors.iter().all(|p| p.cell != cell));
            let observed = dirty.cell_str(cell.tuple, cell.attr);
            let repair = report.repairs.iter().find(|r| r.cell == cell);
            if value == observed {
                assert_eq!(repair, None, "a label that keeps its value repairs nothing");
            } else {
                let repair = repair.expect("a changed label is a repair");
                assert_eq!(
                    (repair.old_value.as_str(), repair.new_value.as_str()),
                    (observed, value)
                );
                assert_eq!(repair.probability, 1.0);
                assert_eq!(session.dataset().cell_str(cell.tuple, cell.attr), value);
            }
        }
    }

    /// A read is the one-shot run over the labelled table: the same query
    /// cells, domains (by `Sym`), weights and marginals (by bits). So is
    /// the run over that table re-read from CSV — a fresh pool and fresh
    /// value codes, where the labelled table keeps the codes of the values
    /// its labels overwrote — with domains compared by string.
    #[test]
    fn read_is_the_one_shot_run_over_the_labelled_table() {
        let (dirty, clean) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        let mut labels = truth_labels(&session.requests(3).unwrap(), &clean);
        labels.push(Label {
            cell: CellRef::new(40usize, 1usize),
            value: "delta".to_string(), // a clean cell, a new value
        });
        session.apply_labels(&labels).unwrap();
        let report = session.try_report().unwrap();

        let mut cx = HoloClean::new(dirty.clone())
            .with_constraint_text("FD: Key -> Value")
            .unwrap()
            .into_context()
            .unwrap();
        for label in &labels {
            let sym = cx.ds.intern(&label.value);
            cx.ds.set_cell(label.cell.tuple, label.cell.attr, sym);
            cx.verified.insert(label.cell);
        }
        let reference = pipeline::run(&cx).unwrap();
        let run = session.run.as_ref().unwrap();
        assert_eq!(run.detection, reference.detection);
        assert_eq!(run.model.query_cells, reference.model.query_cells);
        let bits = |run: &PipelineRun| -> Vec<(Vec<Sym>, Vec<u64>)> {
            run.model
                .graph
                .var_ids()
                .map(|v| {
                    let probs = run.marginals.probs(v).iter().map(|p| p.to_bits());
                    (run.model.graph.var(v).domain.clone(), probs.collect())
                })
                .collect()
        };
        assert_eq!(bits(run), bits(&reference));
        assert_eq!(run.weights, reference.weights);

        let text = holo_dataset::csv::to_csv_string(&cx.ds);
        let mut fresh = HoloClean::new(holo_dataset::csv::parse_dataset(&text).unwrap())
            .with_constraint_text("FD: Key -> Value")
            .unwrap()
            .into_context()
            .unwrap();
        fresh.verified = cx.verified.clone();
        let reread = pipeline::run(&fresh).unwrap();
        assert_eq!(reread.detection, reference.detection);
        assert_eq!(reread.model.query_cells, reference.model.query_cells);
        let by_string = |ds: &Dataset, run: &PipelineRun| -> Vec<(Vec<String>, Vec<u64>)> {
            let graph = &run.model.graph;
            let strings = |v| {
                graph
                    .var(v)
                    .domain
                    .iter()
                    .map(|&d| ds.value_str(d).to_string())
            };
            let probs = |v| run.marginals.probs(v).iter().map(|p| p.to_bits()).collect();
            graph
                .var_ids()
                .map(|v| (strings(v).collect(), probs(v)))
                .collect()
        };
        assert_eq!(by_string(&fresh.ds, &reread), by_string(&cx.ds, &reference));
        assert_eq!(reread.weights, reference.weights);
        let one_shot = RepairReport::from_marginals(
            &cx.ds,
            &reference.model.query_cells,
            &reference.model.query_vars,
            &reference.model.graph,
            &reference.marginals,
        );
        assert_eq!(report.posteriors, one_shot.posteriors);
        let run_repairs: Vec<&Repair> = report
            .repairs
            .iter()
            .filter(|r| labels.iter().all(|l| l.cell != r.cell))
            .collect();
        assert_eq!(run_repairs, one_shot.repairs.iter().collect::<Vec<_>>());
    }

    /// Labelling the `beta` row of a tied 2-row group `alpha` resolves the
    /// conflict: neither row is a query cell any more, and no repair
    /// touches the sibling.
    #[test]
    fn a_label_that_resolves_a_conflict_unflags_its_partner() {
        let (dirty, _) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        let (sibling, beta) = (CellRef::new(0usize, 1usize), CellRef::new(1usize, 1usize));
        let query = session.requests(usize::MAX).unwrap();
        assert!(query.iter().any(|r| r.cell == sibling) && query.iter().any(|r| r.cell == beta));
        let value = "alpha".to_string();
        session
            .apply_labels(&[Label { cell: beta, value }])
            .unwrap();
        let query = session.requests(usize::MAX).unwrap();
        assert!(query.iter().all(|r| r.cell != sibling && r.cell != beta));
        let report = session.try_report().unwrap();
        assert!(report.repairs.iter().all(|r| r.cell != sibling));
        assert!(report
            .repairs
            .iter()
            .any(|r| r.cell == beta && r.new_value == "alpha"));
    }

    /// A label naming a tuple or attribute outside the table rejects the
    /// whole batch before anything changes; any in-range cell is accepted,
    /// query cell or not.
    #[test]
    fn labels_are_validated_against_the_table() {
        let (dirty, _) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        session.requests(1).unwrap();
        let label = |tuple: usize, attr: usize| Label {
            cell: CellRef::new(tuple, attr),
            value: "alpha".to_string(),
        };
        let rows = dirty.tuple_count();
        for bad in [label(rows, 0), label(0, 2)] {
            let err = session.apply_labels(&[label(2, 1), bad]).unwrap_err();
            assert!(matches!(err, HoloError::Feedback(_)), "got {err}");
            assert_eq!(
                session.labelled_count(),
                0,
                "a rejected batch changes nothing"
            );
            assert!(session.run.is_some(), "and keeps the run");
        }
        // Row 40's Key is a clean cell, never a query cell.
        session.apply_labels(&[label(40, 0)]).unwrap();
        assert_eq!(session.labelled_count(), 1);
        assert_eq!(session.dataset().cell_str(TupleId(40), AttrId(0)), "alpha");
        assert!(session.try_report().is_ok());
    }

    /// A read that diverges is a typed error, caches nothing and keeps the
    /// labels: the overflowed weights never reach inference or the session.
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
        let mut session = session_with(&dirty, constraints);
        let requests = session.requests(usize::MAX).unwrap();
        assert!(requests.iter().any(|r| r.cell.attr == AttrId(2)));
        let cell = requests[0].cell;
        let value = "gamma".to_string();
        session.apply_labels(&[Label { cell, value }]).unwrap();
        let rows = |ds: &Dataset| ds.tuples().map(|t| ds.row(t)).collect::<Vec<_>>();
        let table = rows(session.dataset());

        session.cx.config.learn.learning_rate = 1e308;
        let err = session.try_report().expect_err("1e308 overflows");
        assert!(matches!(err, HoloError::LearnDiverged { .. }), "got {err}");
        assert!(session.run.is_none(), "a failed read caches nothing");
        assert_eq!(session.labelled_count(), 1);
        assert_eq!(rows(session.dataset()), table);

        // The session is still usable once the rate is sane again.
        session.cx.config.learn.learning_rate = HoloConfig::default().learn.learning_rate;
        session.try_report().unwrap();
        assert!(session.timings().learn > std::time::Duration::ZERO);
        assert!(session.timings().partition.components > 0);
    }
}
