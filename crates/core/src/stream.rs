//! Streaming ingestion: a session that absorbs inserts, updates and
//! deletes cheaply and answers reads **batch-equivalently**.
//!
//! The paper compiles its model over a frozen table; a service sees the
//! table move. What PClean (arXiv 2007.11838) and PUD (arXiv 1801.06750)
//! carry forward as evidence grows is *sufficient statistics*, never
//! grounded factors, and [`StreamSession`] does the same: a mutation
//! updates the table, its statistics and its violations; a read compiles
//! the model from them through the one-shot compiler.
//!
//! ## Maintained per mutation
//!
//! Everything here is exact and costs `O(batch)`, not `O(table)`:
//!
//! * the **dataset**, with stable `TupleId`s — deletes tombstone, updates
//!   rewrite in place, nothing renumbers;
//! * the **co-occurrence statistics**, by signed deltas
//!   (`CooccurStats::extend_with_threads` / `retract_with_threads` /
//!   `absorb_rows_with_threads`);
//! * the **violations**: a persistent blocking index
//!   ([`holo_constraints::DeltaViolationIndex`]) is probed with only the
//!   rows a batch touched, in both join directions, and retraction drops
//!   the violations of removed rows — so the live violation set, and the
//!   noisy-cell set derived from it, always equal a one-shot scan of the
//!   live table.
//!
//! Every batch is validated before the first of these is touched, so a
//! rejected batch ([`HoloError::Stream`]) leaves the session as it was.
//!
//! ## Built per read
//!
//! [`StreamSession::try_report`] hands the live table, the maintained
//! statistics and the live violations to [`crate::compile::compile`] —
//! the function [`crate::pipeline::compile_model`] calls, here with an
//! empty match lookup — then learns from the priors and infers through
//! [`crate::pipeline::learn_weights`] and
//! [`crate::pipeline::infer_marginals`]. There is one compiler; the
//! session owns no second route to a model.
//!
//! **Why nothing of a model is kept across a mutation.** Algorithm 2
//! prunes a cell's domain by `Pr[v | v']` over the *whole* table, and the
//! relaxed DC features count partners over the whole table. A new row
//! that shares one value with an old row moves that old row's
//! conditional probabilities, hence its domain and its features; evidence
//! sampling is a seeded draw over all clean cells, so membership shifts
//! too. Measured on insert-only feeds of hospital (996 rows) and
//! physicians (4 000 rows) at 4, 16 and 64 batches, a per-cell compile
//! cache reused **0 cells**: every batch's affected set was the whole
//! table. SGD's endpoint depends on its whole trajectory, so learning
//! restarts from the priors regardless.
//!
//! **Staleness rule.** The session holds at most one [`StreamModel`], the
//! model of the current live table. A successful mutation discards it; a
//! read builds it if absent and otherwise serves it as is, so repeated
//! reads of an unchanged session cost a report extraction each.
//! [`IngestStats::canonical_retrains`] counts the builds.
//!
//! ## The equivalence contract
//!
//! A read is byte-identical — repairs and posteriors — to a one-shot
//! [`crate::HoloClean`] run over the final live table, for any batch
//! split, any interleaving of inserts, updates and deletes, any model
//! variant and any thread count. It holds by construction: same compiler,
//! same inputs. What differs is coordinates — the session's `TupleId`s
//! have tombstone gaps and its value pool interned transient values — so
//! reports are issued in **live coordinates**: each physical `TupleId`
//! maps to its rank among live tuples and each symbol to its row-major
//! first-appearance rank over the live table, which is what a fresh
//! loader assigns. Source-reliability features and external dictionaries
//! need the one-shot path ([`StreamSession::new`] rejects the former;
//! there is no way to attach the latter).

use crate::compile::{compile, CompileInput, CompiledModel};
use crate::config::HoloConfig;
use crate::error::HoloError;
use crate::features::MatchLookup;
use crate::pipeline::{infer_marginals, learn_weights, StageTimings};
use crate::repair::RepairReport;
use holo_constraints::{
    noisy_cells, parse_constraints, ConstraintSet, DeltaViolationIndex, Violation,
};
use holo_dataset::{
    AttrId, CellRef, CooccurStats, Dataset, FxHashMap, FxHashSet, Schema, Sym, TupleId,
};
use holo_factor::{LearnStats, Marginals, Weights};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cumulative streaming counters, riding in [`StageTimings::ingest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Mutation batches accepted (pushes, updates and deletes).
    pub batches: u64,
    /// Tuples appended.
    pub tuples: u64,
    /// Violations found by delta detection.
    pub delta_violations: u64,
    /// Noisy and evidence cells compiled, summed over model builds.
    pub cells_recomputed: u64,
    /// Always 0: no compile state outlives a mutation (see the module
    /// docs). Kept because the benchmark reads the field.
    pub cells_reused: u64,
    /// Variables of the models built, summed over builds.
    pub vars_added: u64,
    /// Variables of the models a mutation discarded.
    pub vars_retired: u64,
    /// Always 0: there is no warm-start replay. Kept because the
    /// benchmark reads the field.
    pub replay_minibatches: u64,
    /// Models built. Each build trains from the priors, so this is also
    /// the number of canonical retrains.
    pub canonical_retrains: u64,
    /// Rows tombstoned by [`StreamSession::push_deletes`].
    pub rows_deleted: u64,
    /// Rows rewritten in place by [`StreamSession::push_updates`].
    pub rows_updated: u64,
}

/// What [`StreamSession::design_stats`] reports. Kept because the
/// benchmark reads both fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignStats {
    /// Models built: each compiles its design matrix once.
    pub full_builds: u64,
    /// Always 0: a built model is never mutated.
    pub vars_patched: u64,
}

/// Model turnover and table liveness of a session, riding in
/// [`StageTimings::retire`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireStats {
    /// Models discarded by a mutation and rebuilt by a later read. The
    /// session's first build is not one, so after any read
    /// `design_stats().full_builds == 1 + compactions`.
    pub compactions: u64,
    /// Live rows of the backing table.
    pub live_rows: u64,
    /// Tombstoned rows of the backing table.
    pub dead_rows: u64,
}

/// What one mutation batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Rows appended.
    pub appended: usize,
    /// Rows tombstoned.
    pub deleted: usize,
    /// Rows rewritten in place.
    pub updated: usize,
    /// Violations the batch introduced.
    pub new_violations: usize,
}

/// The model of a session's current live table, as the last read built
/// it.
pub struct StreamModel {
    /// The one-shot compiler's output over the live table.
    pub compiled: CompiledModel,
    /// The weights learned from `compiled.weights`.
    pub weights: Weights,
    /// Learning diagnostics (`None` when the model has no evidence).
    pub learn_stats: Option<LearnStats>,
    /// Posteriors of the query variables.
    pub marginals: Marginals,
}

/// The streaming repair session. See the module docs for what a mutation
/// maintains, what a read builds, and the equivalence contract.
///
/// ```
/// use holo_dataset::Schema;
/// use holoclean::stream::StreamSession;
/// use holoclean::HoloConfig;
///
/// let mut session = StreamSession::new(
///     Schema::new(vec!["Zip", "City"]),
///     "FD: Zip -> City",
///     HoloConfig::default(),
/// ).unwrap();
/// let rows: Vec<Vec<String>> = (0..8)
///     .map(|_| vec!["60608".into(), "Chicago".into()])
///     .collect();
/// session.push_batch(&rows).unwrap();
/// session.push_batch(&[vec!["60608".to_string(), "Cicago".to_string()]]).unwrap();
/// let report = session.report();
/// assert_eq!(report.repairs.len(), 1);
/// assert_eq!(report.repairs[0].new_value, "Chicago");
/// ```
pub struct StreamSession {
    ds: Dataset,
    constraints: ConstraintSet,
    config: HoloConfig,
    /// Persistent violation blocking index (forward + backward).
    delta_index: DeltaViolationIndex,
    /// Co-occurrence statistics of the live table.
    stats: CooccurStats,
    /// Violations over the live table.
    live_violations: Vec<Violation>,
    /// The cells of `live_violations`.
    noisy: FxHashSet<CellRef>,
    /// The model of the current live table; `None` until the first read
    /// and after every mutation.
    model: Option<StreamModel>,
    timings: StageTimings,
}

impl StreamSession {
    /// Opens a session over `schema` with constraints parsed from
    /// `text` (DC lines and/or `FD:` sugar). The dataset starts empty;
    /// feed rows with [`StreamSession::push_batch`].
    pub fn new(schema: Schema, text: &str, config: HoloConfig) -> Result<Self, HoloError> {
        let mut ds = Dataset::new(schema);
        let constraints = parse_constraints(text, &mut ds)?;
        Self::with_constraints(ds, constraints, config)
    }

    /// Opens a session over an **empty** dataset (used for its schema and
    /// value pool — constraint constants are already interned) and an
    /// already-bound constraint set.
    pub fn with_constraints(
        ds: Dataset,
        constraints: ConstraintSet,
        config: HoloConfig,
    ) -> Result<Self, HoloError> {
        if ds.tuple_count() != 0 {
            return Err(HoloError::Stream(
                "streaming sessions start from an empty dataset; feed rows via push_batch".into(),
            ));
        }
        if config.source.is_some() {
            return Err(HoloError::Stream(
                "source-reliability features are not supported by the streaming engine".into(),
            ));
        }
        let delta_index = DeltaViolationIndex::new(&constraints);
        let stats = CooccurStats::build_with_opts(&ds, 1, config.naive_stats);
        Ok(StreamSession {
            ds,
            constraints,
            config,
            delta_index,
            stats,
            live_violations: Vec::new(),
            noisy: FxHashSet::default(),
            model: None,
            timings: StageTimings::default(),
        })
    }

    /// Appends one batch of raw rows: the statistics absorb them and the
    /// blocking index is probed with them, so the violation and noisy
    /// sets stay equal to a one-shot scan. A row of the wrong arity
    /// rejects the whole batch before anything changes.
    pub fn push_batch<S: AsRef<str>>(&mut self, rows: &[Vec<S>]) -> Result<BatchReport, HoloError> {
        let arity = self.ds.schema().len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != arity {
                return Err(HoloError::Stream(format!(
                    "batch row {i} has {} values; the schema has {arity} attributes",
                    row.len()
                )));
            }
        }
        let threads = self.config.threads;
        let t_detect = Instant::now();
        let from = self.ds.append_rows(rows);
        self.stats.extend_with_threads(&self.ds, from, threads);
        let new_violations = self
            .delta_index
            .ingest(&self.ds, &self.constraints, from, threads);
        self.noisy.extend(noisy_cells(&new_violations));
        let report = BatchReport {
            appended: rows.len(),
            new_violations: new_violations.len(),
            ..BatchReport::default()
        };
        self.live_violations.extend(new_violations);
        self.timings.detect += t_detect.elapsed();
        self.mark_stale(&report);
        Ok(report)
    }

    /// Tombstones live rows: statistics, the blocking index and the live
    /// violations fold the rows out. `TupleId`s are stable — nothing is
    /// renumbered. A row that is out of range, already dead, or named
    /// twice rejects the whole batch before anything changes.
    pub fn push_deletes(&mut self, rows: &[TupleId]) -> Result<BatchReport, HoloError> {
        self.validate_live(rows)?;
        let threads = self.config.threads;
        let t_detect = Instant::now();
        self.stats.retract_with_threads(&self.ds, rows, threads);
        self.delta_index.retract(&self.ds, rows);
        self.drop_violations_of(rows);
        self.rebuild_noisy();
        self.ds.delete_rows(rows);
        self.timings.detect += t_detect.elapsed();
        let report = BatchReport {
            deleted: rows.len(),
            ..BatchReport::default()
        };
        self.mark_stale(&report);
        Ok(report)
    }

    /// Rewrites live rows in place (same `TupleId`, new values): the old
    /// values are retracted and the new ones absorbed through the same
    /// layers as [`StreamSession::push_deletes`] /
    /// [`StreamSession::push_batch`], and the blocking index is re-probed
    /// with the rewritten rows in both join directions. A row that is not
    /// live, is named twice, or has the wrong arity rejects the whole
    /// batch before anything changes.
    pub fn push_updates<S: AsRef<str>>(
        &mut self,
        updates: &[(TupleId, Vec<S>)],
    ) -> Result<BatchReport, HoloError> {
        let rows: Vec<TupleId> = updates.iter().map(|(t, _)| *t).collect();
        self.validate_live(&rows)?;
        let arity = self.ds.schema().len();
        for (t, vals) in updates {
            if vals.len() != arity {
                return Err(HoloError::Stream(format!(
                    "update of tuple {} has {} values; the schema has {arity} attributes",
                    t.index(),
                    vals.len()
                )));
            }
        }
        let threads = self.config.threads;
        let t_detect = Instant::now();
        self.stats.retract_with_threads(&self.ds, &rows, threads);
        self.delta_index.retract(&self.ds, &rows);
        self.drop_violations_of(&rows);
        self.ds.update_rows(updates);
        self.stats
            .absorb_rows_with_threads(&self.ds, &rows, threads);
        self.delta_index.absorb_rows(&self.ds, &rows);
        let new_violations =
            self.delta_index
                .probe_rows(&self.ds, &self.constraints, &rows, threads);
        let report = BatchReport {
            updated: rows.len(),
            new_violations: new_violations.len(),
            ..BatchReport::default()
        };
        self.live_violations.extend(new_violations);
        self.rebuild_noisy();
        self.timings.detect += t_detect.elapsed();
        self.mark_stale(&report);
        Ok(report)
    }

    /// The end of every accepted mutation: the model of the previous
    /// table is discarded whole (see the module docs for why no part of
    /// it survives) and the batch is counted.
    fn mark_stale(&mut self, report: &BatchReport) {
        let ingest = &mut self.timings.ingest;
        if let Some(model) = self.model.take() {
            ingest.vars_retired += model.compiled.graph.var_count() as u64;
        }
        ingest.batches += 1;
        ingest.tuples += report.appended as u64;
        ingest.rows_deleted += report.deleted as u64;
        ingest.rows_updated += report.updated as u64;
        ingest.delta_violations += report.new_violations as u64;
    }

    /// Rejects mutation batches naming rows that are out of range, dead,
    /// or repeated within the batch.
    fn validate_live(&self, rows: &[TupleId]) -> Result<(), HoloError> {
        let mut seen: FxHashSet<TupleId> = FxHashSet::default();
        for &t in rows {
            if t.index() >= self.ds.tuple_count() || !self.ds.is_live(t) {
                return Err(HoloError::Stream(format!(
                    "tuple {} is not a live row of this session",
                    t.index()
                )));
            }
            if !seen.insert(t) {
                return Err(HoloError::Stream(format!(
                    "tuple {} appears more than once in one mutation batch",
                    t.index()
                )));
            }
        }
        Ok(())
    }

    /// Drops the violations with an endpoint in `rows`.
    fn drop_violations_of(&mut self, rows: &[TupleId]) {
        let rows: FxHashSet<TupleId> = rows.iter().copied().collect();
        self.live_violations
            .retain(|v| !rows.contains(&v.t1) && !rows.contains(&v.t2));
    }

    /// Recomputes the noisy-cell set from the live violations.
    fn rebuild_noisy(&mut self) {
        self.noisy = noisy_cells(&self.live_violations);
    }

    /// Compiles, trains and infers the model of the current live table —
    /// the one-shot compile, learn and infer steps over the maintained
    /// statistics and violations.
    fn build_model(&mut self) -> Result<StreamModel, HoloError> {
        let t_compile = Instant::now();
        let compiled = compile(&CompileInput {
            ds: &self.ds,
            constraints: &self.constraints,
            noisy: &self.noisy,
            violations: &self.live_violations,
            stats: &self.stats,
            matches: &MatchLookup::default(),
            config: &self.config,
        })?;
        self.timings.compile += t_compile.elapsed();

        let t_learn = Instant::now();
        let (weights, learn_stats) = learn_weights(&compiled, &self.config)?;
        self.timings.learn += t_learn.elapsed();

        let t_infer = Instant::now();
        let (marginals, partition) = infer_marginals(&compiled, &weights, &self.ds, &self.config);
        self.timings.partition = partition;
        self.timings.infer += t_infer.elapsed();

        let shape = &compiled.stats;
        let ingest = &mut self.timings.ingest;
        ingest.canonical_retrains += 1;
        ingest.cells_recomputed +=
            (shape.query_vars + shape.singleton_noisy_cells + shape.evidence_vars) as u64;
        ingest.vars_added += compiled.graph.var_count() as u64;
        Ok(StreamModel {
            compiled,
            weights,
            learn_stats,
            marginals,
        })
    }

    /// Batch-equivalent repairs and posteriors: byte-identical to a
    /// one-shot [`crate::HoloClean`] run over the live table, at any
    /// batch split and any thread count. Builds the model if a mutation
    /// (or nothing yet) left the session without one; an unchanged
    /// session serves the model it has.
    ///
    /// Fails like the one-shot pipeline does:
    /// [`HoloError::PrunedInitialValue`] from the compiler and
    /// [`HoloError::LearnDiverged`] when SGD produced non-finite
    /// gradients. A failed read caches nothing; the session stays
    /// consistent and the next read tries again.
    pub fn try_report(&mut self) -> Result<RepairReport, HoloError> {
        let model = match self.model.take() {
            Some(model) => model,
            None => self.build_model()?,
        };
        let mut report = RepairReport::from_marginals(
            &self.ds,
            &model.compiled.query_cells,
            &model.compiled.query_vars,
            &model.compiled.graph,
            &model.marginals,
        );
        self.model = Some(model);
        self.remap_to_live(&mut report);
        Ok(report)
    }

    /// [`StreamSession::try_report`] for callers that treat a failed read
    /// as a bug.
    ///
    /// # Panics
    /// Panics if the model build fails — with default pruning that takes
    /// a diverging [`holo_factor::LearnConfig::learning_rate`].
    pub fn report(&mut self) -> RepairReport {
        self.try_report()
            .expect("StreamSession::report: the model build failed; try_report returns the error")
    }

    /// Rewrites report coordinates from physical ids to the dense ids a
    /// one-shot run over the live table would use: tuple ids become live
    /// ranks (the identity while nothing was ever deleted) and symbols
    /// row-major first-appearance ranks — the session pool drifts from
    /// that order whenever an update interns a transient value or a
    /// constraint constant was interned before data.
    fn remap_to_live(&self, report: &mut RepairReport) {
        let mut rank = 0u32;
        let ranks: Vec<u32> = (0..self.ds.tuple_count())
            .map(|t| {
                let r = rank;
                if self.ds.is_live(TupleId(t as u32)) {
                    rank += 1;
                }
                r
            })
            .collect();
        let mut dense: FxHashMap<Sym, Sym> = FxHashMap::default();
        dense.insert(Sym::NULL, Sym::NULL);
        for t in self.ds.tuples() {
            for a in 0..self.ds.schema().len() {
                let s = self.ds.cell(t, AttrId(a as u16));
                let next = Sym(dense.len() as u32);
                dense.entry(s).or_insert(next);
            }
        }
        // Candidates come from the statistics of live rows only, so every
        // reported symbol occurs in the live table.
        let remap = |s: Sym| *dense.get(&s).expect("report symbol not in the live table");
        for r in &mut report.repairs {
            r.cell.tuple = TupleId(ranks[r.cell.tuple.index()]);
            r.old = remap(r.old);
            r.new = remap(r.new);
        }
        for p in &mut report.posteriors {
            p.cell.tuple = TupleId(ranks[p.cell.tuple.index()]);
            for (s, _) in &mut p.candidates {
                *s = remap(*s);
            }
        }
    }

    /// The backing table, tombstones included.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// The model of the current live table, if the last read built one
    /// and no mutation has discarded it since.
    pub fn model(&self) -> Option<&StreamModel> {
        self.model.as_ref()
    }

    /// Violations over the live table (== the one-shot count).
    pub fn violations(&self) -> usize {
        self.live_violations.len()
    }

    /// Noisy cells of the live table (== the one-shot count).
    pub fn noisy_cells(&self) -> usize {
        self.noisy.len()
    }

    /// Cumulative ingest counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.timings.ingest
    }

    /// Design-matrix work over the session's life.
    pub fn design_stats(&self) -> DesignStats {
        DesignStats {
            full_builds: self.timings.ingest.canonical_retrains,
            vars_patched: 0,
        }
    }

    /// Model turnover and the live-vs-tombstoned row split.
    pub fn retire_stats(&self) -> RetireStats {
        RetireStats {
            compactions: self.timings.ingest.canonical_retrains.saturating_sub(1),
            live_rows: self.ds.live_count() as u64,
            dead_rows: self.ds.dead_count() as u64,
        }
    }

    /// Cumulative stage timings (pushes bill `detect`; reads bill
    /// `compile`, `learn` and `infer`) with every counter block filled in.
    pub fn timings(&self) -> StageTimings {
        let mut t = self.timings;
        t.retire = self.retire_stats();
        t.stats = self.stats.stats_stats();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use crate::HoloClean;

    const SCHEMA: [&str; 3] = ["Zip", "City", "State"];

    fn row(zip: &str, city: &str) -> Vec<String> {
        vec![zip.to_string(), city.to_string(), "IL".to_string()]
    }

    fn zip_city_rows() -> Vec<Vec<String>> {
        let mut rows = vec![row("60608", "Chicago"); 8];
        rows.push(row("60608", "Cicago"));
        rows.extend(vec![row("60609", "Evanston"); 5]);
        rows
    }

    fn one_shot_with(rows: &[Vec<String>], config: HoloConfig) -> HoloClean {
        let mut ds = Dataset::new(Schema::new(SCHEMA.to_vec()));
        for row in rows {
            ds.push_row(row);
        }
        HoloClean::new(ds)
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .with_config(config)
    }

    fn one_shot(rows: &[Vec<String>], threads: usize) -> RepairReport {
        one_shot_with(rows, HoloConfig::default().with_threads(threads))
            .run()
            .unwrap()
            .report
    }

    fn open(config: HoloConfig) -> StreamSession {
        StreamSession::new(Schema::new(SCHEMA.to_vec()), "FD: Zip -> City", config).unwrap()
    }

    /// Asserts a batch was rejected with the typed stream error.
    fn rejected(result: Result<BatchReport, HoloError>, why: &str) {
        let err = result.expect_err(why);
        assert!(matches!(err, HoloError::Stream(_)), "{why}: {err}");
    }

    fn streamed(rows: &[Vec<String>], batches: usize, threads: usize) -> StreamSession {
        let mut session = open(HoloConfig::default().with_threads(threads));
        for chunk in rows.chunks(rows.len().div_ceil(batches)) {
            session.push_batch(chunk).unwrap();
        }
        session
    }

    #[test]
    fn any_batch_split_matches_the_one_shot_run_bitwise() {
        let rows = zip_city_rows();
        let reference = one_shot(&rows, 1);
        assert_eq!(reference.repairs.len(), 1);
        for batches in [1, 3, 7, rows.len()] {
            for threads in [1, 2] {
                let mut session = streamed(&rows, batches, threads);
                let report = session.report();
                assert_eq!(
                    report, reference,
                    "batches = {batches}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn reads_are_cached_until_the_next_mutation() {
        let rows = zip_city_rows();
        let mut session = streamed(&rows, 4, 1);
        // Pushes build nothing.
        assert!(session.model().is_none());
        assert_eq!(session.design_stats().full_builds, 0);
        let first = session.report();
        let stats = session.ingest_stats();
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.tuples as usize, rows.len());
        assert_eq!(stats.canonical_retrains, 1);
        assert!(stats.vars_added > 0 && stats.cells_recomputed > 0);
        assert_eq!((stats.cells_reused, stats.replay_minibatches), (0, 0));
        // An unchanged session serves the model it has.
        assert_eq!(session.report(), first);
        assert_eq!(session.ingest_stats(), stats);
        assert_eq!(session.design_stats().full_builds, 1);
        assert_eq!(session.retire_stats().compactions, 0);
        // A mutation discards it; the next read builds the next one.
        session.push_batch(&[row("60609", "Evanstn")]).unwrap();
        assert!(session.model().is_none());
        assert_eq!(session.ingest_stats().vars_retired, stats.vars_added);
        let mut grown = rows.clone();
        grown.push(row("60609", "Evanstn"));
        assert_eq!(session.report(), one_shot(&grown, 1));
        assert_eq!(session.design_stats().full_builds, 2);
        assert_eq!(session.retire_stats().compactions, 1);
        assert_eq!(session.timings().ingest, session.ingest_stats());
    }

    #[test]
    fn late_evidence_can_flip_an_earlier_repair() {
        // First batches: "Cicago" is the 60608 majority, so the lone
        // "Chicago" looks wrong. Later batches flip the majority.
        let mut session = open(HoloConfig::default().with_threads(1));
        let mut rows = vec![
            row("60608", "Cicago"),
            row("60608", "Cicago"),
            row("60608", "Chicago"),
        ];
        session.push_batch(&rows).unwrap();
        let late = vec![row("60608", "Chicago"); 6];
        session.push_batch(&late).unwrap();
        rows.extend(late);
        let report = session.report();
        assert_eq!(report, one_shot(&rows, 1));
        assert!(report.repairs.iter().any(|r| r.new_value == "Chicago"));
    }

    #[test]
    fn unsupported_configs_and_bad_batches_are_typed_errors() {
        for variant in [ModelVariant::DcFactors, ModelVariant::DcFeatsDcFactors] {
            open(HoloConfig::default().with_variant(variant)); // DC factors stream
        }
        let err = StreamSession::new(
            Schema::new(SCHEMA.to_vec()),
            "FD: Zip -> City",
            HoloConfig::default().with_source("a", "b"),
        )
        .map(|_| ())
        .expect_err("source features are rejected");
        assert!(matches!(err, HoloError::Stream(_)));

        let mut session = open(HoloConfig::default());
        rejected(
            session.push_batch(&[vec!["only-one".to_string()]]),
            "arity mismatch",
        );
        assert_eq!(session.dataset().tuple_count(), 0, "nothing was appended");
    }

    #[test]
    fn bad_mutation_batches_are_typed_errors() {
        let mut session = open(HoloConfig::default());
        session.push_batch(&[row("60608", "Chicago")]).unwrap();

        rejected(session.push_deletes(&[TupleId(7)]), "out-of-range delete");
        rejected(
            session.push_deletes(&[TupleId(0), TupleId(0)]),
            "repeated row in one batch",
        );
        let short = vec!["only-one".to_string()];
        rejected(
            session.push_updates(&[(TupleId(0), short)]),
            "update arity mismatch",
        );

        session.push_deletes(&[TupleId(0)]).unwrap();
        rejected(
            session.push_updates(&[(TupleId(0), row("a", "b"))]),
            "update of a tombstoned row",
        );
        rejected(session.push_deletes(&[TupleId(0)]), "double delete");
    }

    /// Batch atomicity: validation precedes every mutation, so a rejected
    /// call leaves the session equal to a twin that never saw it.
    #[test]
    fn rejected_batches_leave_the_session_untouched() {
        let rows = zip_city_rows();
        let mut twin = streamed(&rows, 2, 1);
        twin.push_deletes(&[TupleId(3)]).unwrap();
        let mut session = streamed(&rows, 2, 1);
        session.push_deletes(&[TupleId(3)]).unwrap();

        let short = vec!["60608".to_string()];
        let bad_push = [row("60608", "Cicago"), short.clone()];
        rejected(session.push_batch(&bad_push), "later row is short");
        let bad_deletes: [(&[TupleId], &str); 3] = [
            (&[TupleId(0), TupleId(3)], "a dead row after a live one"),
            (&[TupleId(1), TupleId(99)], "out of range"),
            (&[TupleId(2), TupleId(2)], "duplicated"),
        ];
        for (batch, why) in bad_deletes {
            rejected(session.push_deletes(batch), why);
        }
        let bad_updates = [(TupleId(0), row("60609", "Cicago")), (TupleId(1), short)];
        rejected(session.push_updates(&bad_updates), "second update is short");

        let table = |s: &StreamSession| -> Vec<(CellRef, String)> {
            let ds = s.dataset();
            let value = |c| (c, ds.value_str(ds.cell_ref(c)).to_string());
            ds.cells().map(value).collect()
        };
        assert_eq!(table(&session), table(&twin));
        assert_eq!(session.retire_stats(), twin.retire_stats());
        assert_eq!(session.violations(), twin.violations());
        assert_eq!(session.noisy_cells(), twin.noisy_cells());
        assert_eq!(session.ingest_stats(), twin.ingest_stats());
        assert_eq!(session.report(), twin.report());
    }

    /// Drives one session through an interleaved insert/update/delete
    /// feed while maintaining the live table in a plain mirror. Returns
    /// the session and the live rows.
    fn crud_feed(config: HoloConfig) -> (StreamSession, Vec<Vec<String>>) {
        let mut session = open(config);
        let rows = zip_city_rows();
        let mut mirror: Vec<Option<Vec<String>>> = Vec::new();
        let push = |session: &mut StreamSession,
                    mirror: &mut Vec<Option<Vec<String>>>,
                    batch: &[Vec<String>]| {
            session.push_batch(batch).unwrap();
            mirror.extend(batch.iter().cloned().map(Some));
        };

        // Rows 0..6 plus two decoys destined for deletion.
        let decoy = vec!["99999".to_string(), "Nowhere".to_string(), "ZZ".to_string()];
        let mut first: Vec<Vec<String>> = rows[..6].to_vec();
        first.push(decoy.clone());
        first.push(decoy.clone());
        push(&mut session, &mut mirror, &first);
        session.push_deletes(&[TupleId(6), TupleId(7)]).unwrap();
        mirror[6] = None;
        mirror[7] = None;

        // The rest of the feed, with the "Cicago" row initially mangled
        // further ("Cicagoo") and repaired to its intended form by an
        // update.
        let mut second: Vec<Vec<String>> = rows[6..].to_vec();
        assert_eq!(second[2][1], "Cicago");
        second[2][1] = "Cicagoo".to_string();
        push(&mut session, &mut mirror, &second);
        let mangled = TupleId(10);
        session
            .push_updates(&[(mangled, row("60608", "Cicago"))])
            .unwrap();
        mirror[10] = Some(row("60608", "Cicago"));

        // Delete an early clean row too, so live ranks shift under the
        // report remap.
        session.push_deletes(&[TupleId(2)]).unwrap();
        mirror[2] = None;

        let live: Vec<Vec<String>> = mirror.into_iter().flatten().collect();
        (session, live)
    }

    #[test]
    fn interleaved_crud_matches_one_shot_over_live_table_bitwise() {
        let reference = {
            let (mut session, live) = crud_feed(HoloConfig::default().with_threads(1));
            let report = session.report();
            let one = one_shot(&live, 1);
            assert_eq!(report, one);
            assert!(!report.repairs.is_empty(), "the feed must need repairs");
            report
        };
        for threads in [2, 4] {
            let (mut session, live) = crud_feed(HoloConfig::default().with_threads(threads));
            assert_eq!(session.report(), reference, "threads = {threads}");
            assert_eq!(one_shot(&live, threads), reference, "threads = {threads}");
        }
    }

    /// Memory is bounded by the live table: after any number of
    /// insert/update/delete cycles over a fixed live set, the session's
    /// model is exactly the one-shot model — no slot outlives its row.
    #[test]
    fn sustained_crud_holds_steady_state_graph_size() {
        let rows = zip_city_rows();
        let config = HoloConfig::default().with_threads(1);
        let mut session = streamed(&rows, 1, 1);
        // Every round inserts a noisy row, heals it, and deletes it
        // again, so the live table keeps returning to `rows`.
        for round in 0..50 {
            let id = TupleId(session.dataset().tuple_count() as u32);
            session.push_batch(&[row("60609", "Evanstn")]).unwrap();
            session
                .push_updates(&[(id, row("60609", "Evanston"))])
                .unwrap();
            if round % 10 == 0 {
                let _ = session.report(); // reads mid-churn change nothing
            }
            session.push_deletes(&[id]).unwrap();
        }
        let report = session.report();
        let (outcome, fresh, _) = one_shot_with(&rows, config).run_full().unwrap();
        assert_eq!(report, outcome.report);
        let model = &session.model().expect("the read built it").compiled;
        assert_eq!(model.graph.var_count(), fresh.graph.var_count());
        assert_eq!(model.graph.factor_count(), fresh.graph.factor_count());
        assert_eq!(model.stats.query_vars, fresh.stats.query_vars);
        assert_eq!(model.stats.evidence_vars, fresh.stats.evidence_vars);
        assert_eq!(model.graph.design().rows(), fresh.graph.design().rows());
        assert_eq!(session.retire_stats().dead_rows, 50);
    }

    #[test]
    fn dc_factor_variants_stream_via_retirement_and_compaction() {
        let rows = zip_city_rows();
        for variant in [
            ModelVariant::DcFactors,
            ModelVariant::DcFeatsDcFactorsPartitioned,
        ] {
            let config = HoloConfig::default().with_threads(1).with_variant(variant);
            let mut session = open(config.clone());
            for chunk in rows.chunks(5) {
                session.push_batch(chunk).unwrap();
            }
            // Exact read == one-shot under the clique-grounding variant.
            let report = session.report();
            let reference = one_shot_with(&rows, config.clone()).run().unwrap().report;
            assert_eq!(report, reference, "variant {variant:?}");
            let model = session.model().expect("the read built it");
            assert!(model.compiled.stats.cliques > 0, "cliques grounded");

            // Deleting a violation endpoint re-grounds without it.
            session.push_deletes(&[TupleId(8)]).unwrap();
            let report = session.report();
            let mut live: Vec<Vec<String>> = rows.clone();
            live.remove(8);
            let reference = one_shot_with(&live, config).run().unwrap().report;
            assert_eq!(report, reference, "variant {variant:?} after delete");
        }
    }

    #[test]
    fn updates_can_introduce_and_remove_violations() {
        let rows = zip_city_rows();
        let mut session = streamed(&rows, 3, 1);
        // Rewrite a clean Evanston row into a fresh 60608 conflict.
        session
            .push_updates(&[(TupleId(9), row("60608", "Evanstn"))])
            .unwrap();
        let mut live = rows.clone();
        live[9] = row("60608", "Evanstn");
        assert_eq!(session.report(), one_shot(&live, 1));
        // Rewrite it back: the violation retracts.
        session
            .push_updates(&[(TupleId(9), rows[9].clone())])
            .unwrap();
        assert_eq!(session.report(), one_shot(&rows, 1));
    }

    use proptest::prelude::*;

    fn crud_row(z: u8, c: u8) -> Vec<String> {
        let zips = ["60608", "60609"];
        let cities = ["Chicago", "Cicago", "Evanston"];
        row(
            zips[z as usize % zips.len()],
            cities[c as usize % cities.len()],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Arbitrary insert/update/delete interleavings, with reads at
        /// arbitrary points mid-feed, serve every read bit-for-bit equal
        /// to a from-scratch build over the live table at that moment; a
        /// repeated read is equal and builds nothing. Each op is
        /// `((kind, sel, n, z, c), read)`: kind 0 inserts `n` rows derived
        /// from `(z, c)`, kind 1 updates the live row selected by `sel`,
        /// kind 2 deletes it; `read == 1` reads after the op (the last
        /// op is always read).
        #[test]
        fn prop_interleaved_crud_matches_a_fresh_build(
            ops in proptest::collection::vec(
                ((0u8..3, 0u8..16, 1u8..4, 0u8..2, 0u8..3), 0u8..2), 1..8),
        ) {
            let mut session = open(HoloConfig::default().with_threads(1));
            let mut live_ids: Vec<TupleId> = Vec::new();
            let mut mirror: Vec<Vec<String>> = Vec::new();
            let last = ops.len() - 1;
            for (i, ((kind, sel, n, z, c), read)) in ops.into_iter().enumerate() {
                match kind {
                    0 => {
                        let batch: Vec<Vec<String>> = (0..n)
                            .map(|i| crud_row(z.wrapping_add(i), c.wrapping_add(i)))
                            .collect();
                        let before = session.dataset().tuple_count();
                        session.push_batch(&batch).unwrap();
                        for (i, row) in batch.into_iter().enumerate() {
                            live_ids.push(TupleId((before + i) as u32));
                            mirror.push(row);
                        }
                    }
                    _ if live_ids.is_empty() => {}
                    1 => {
                        let idx = sel as usize % live_ids.len();
                        let row = crud_row(z, c);
                        session.push_updates(&[(live_ids[idx], row.clone())]).unwrap();
                        mirror[idx] = row;
                    }
                    _ => {
                        let idx = sel as usize % live_ids.len();
                        session.push_deletes(&[live_ids[idx]]).unwrap();
                        live_ids.remove(idx);
                        mirror.remove(idx);
                    }
                }
                if read == 0 && i != last {
                    continue;
                }
                let streamed = session.report();
                prop_assert_eq!(&streamed, &one_shot(&mirror, 1));
                let ingest = session.ingest_stats();
                let design = session.design_stats();
                prop_assert_eq!(design.full_builds, 1 + session.retire_stats().compactions);
                prop_assert_eq!(&session.report(), &streamed);
                prop_assert_eq!(session.ingest_stats(), ingest);
                prop_assert_eq!(session.design_stats(), design);
            }
        }
    }
}
