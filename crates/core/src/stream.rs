//! Streaming ingestion: a session is **a row store and a cached run**.
//!
//! The paper compiles its model over a frozen table (§3, Figure 2); a
//! service sees the table move. [`StreamSession`] therefore keeps the rows
//! as they were fed, which rows are still live, and the one-shot run over
//! the live rows of the last read, if no mutation has happened since.
//!
//! ## A mutation edits the row store
//!
//! [`StreamSession::push_batch`], [`StreamSession::push_updates`] and
//! [`StreamSession::push_deletes`] validate the whole batch before they
//! touch anything, so a rejected batch ([`HoloError::Stream`]) leaves the
//! session as it was. An accepted one edits the store — appends take the
//! next `TupleId`s, updates rewrite a row in place, deletes clear its live
//! flag, and nothing renumbers — and drops the cached run. That is all a
//! mutation does: it detects nothing and counts nothing but itself. An
//! empty batch is a no-op and keeps the cached run.
//!
//! ## A read compacts the table and makes the one-shot run
//!
//! [`StreamSession::try_report`] serves the cached run when there is one.
//! Otherwise it builds a fresh table of the live rows in id order — each
//! distinct value interned once, in row-major first-appearance order, then
//! the constraint text parsed into it: the table `csv::parse_dataset` and
//! [`crate::HoloClean::with_constraint_text`] build from the same rows —
//! and runs [`pipeline::run`], the function [`crate::HoloClean::run_full`]
//! calls, over it: violation detection, statistics, compilation, learning
//! from the priors and inference. No layer below the session ever sees a
//! deleted row. [`IngestStats::canonical_retrains`] counts the runs;
//! repeated reads of an unchanged session cost a report extraction each.
//!
//! **Why nothing is carried across a mutation.** Algorithm 2 prunes a
//! cell's domain by `Pr[v | v']` over the *whole* table and the relaxed
//! DC features count partners over the whole table, so one new row moves
//! the domains and features of old rows (a per-cell compile cache reused
//! 0 cells on every feed measured, PR 13), and SGD's endpoint depends on
//! its whole trajectory. Sufficient statistics and a violation index
//! *can* be carried exactly (PClean, arXiv 2007.11838, carries the
//! former), but on the traffic this repository has — K batches, then one
//! read — carrying them measured 3× one statistics build and 2–20× one
//! detection of the final table, and needs a second implementation of
//! both kept equal to the first. The trade reopens with a benchmarked
//! read-per-batch workload on a table large enough that detection and
//! statistics dominate a read (ROADMAP, Settled).
//!
//! ## The equivalence contract
//!
//! A read is identical — `TupleId`s, symbols, repairs and posteriors to
//! the bit — to a one-shot [`crate::HoloClean`] run over the final live
//! rows, for any batch split, any interleaving of inserts, updates and
//! deletes, any model variant and any thread count, because it *is* that
//! run on that table. Its coordinates are therefore the compacted table's:
//! a reported `TupleId` is a live row's rank, and a symbol resolves
//! through [`StreamSession::cached_table`], not through the row store. A
//! failed read ([`HoloError::PrunedInitialValue`],
//! [`HoloError::LearnDiverged`]) caches nothing. Source-reliability
//! features (`config.source`) stream like any other configuration; an
//! external dictionary needs the one-shot path (there is no way to attach
//! one).

use crate::config::HoloConfig;
use crate::error::HoloError;
use crate::pipeline::{self, PipelineRun, StageTimings};
use crate::repair::RepairReport;
use crate::HoloClean;
use holo_constraints::parse_constraints;
use holo_dataset::{Dataset, FxHashSet, Schema, Sym, TupleId};
use serde::{Deserialize, Serialize};

/// Cumulative streaming counters, riding in [`StageTimings::ingest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Non-empty mutation batches accepted (pushes, updates and deletes).
    pub batches: u64,
    /// Tuples appended.
    pub tuples: u64,
    /// Noisy and evidence cells compiled, summed over runs.
    pub cells_recomputed: u64,
    /// Always 0: no compile state outlives a mutation (see the module
    /// docs). Kept because the benchmark reads the field.
    pub cells_reused: u64,
    /// Variables of the models built, summed over runs.
    pub vars_added: u64,
    /// Variables of the models a mutation discarded.
    pub vars_retired: u64,
    /// Always 0: there is no warm-start replay. Kept because the
    /// benchmark reads the field.
    pub replay_minibatches: u64,
    /// One-shot runs made by reads. Each trains from the priors, so this
    /// is also the number of canonical retrains.
    pub canonical_retrains: u64,
    /// Rows deleted by [`StreamSession::push_deletes`].
    pub rows_deleted: u64,
    /// Rows rewritten in place by [`StreamSession::push_updates`].
    pub rows_updated: u64,
}

/// What [`StreamSession::design_stats`] reports. Kept because the
/// benchmark reads both fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignStats {
    /// Runs made: each compiles its design matrix once.
    pub full_builds: u64,
    /// Always 0: a built model is never mutated.
    pub vars_patched: u64,
}

/// Run turnover and row liveness of a session, riding in
/// [`StageTimings::retire`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireStats {
    /// Runs discarded by a mutation and made again by a later read. The
    /// session's first run is not one, so after any read
    /// `design_stats().full_builds == 1 + compactions`.
    pub compactions: u64,
    /// Live rows of the session.
    pub live_rows: u64,
    /// Deleted rows, whose ids stay taken.
    pub dead_rows: u64,
}

/// What one mutation batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Rows appended.
    pub appended: usize,
    /// Rows deleted.
    pub deleted: usize,
    /// Rows rewritten in place.
    pub updated: usize,
}

/// The streaming repair session: a row store and the cached one-shot run
/// over its live rows. See the module docs for what a mutation does, what
/// a read does, and the equivalence contract.
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
    /// Every row ever fed, at its `TupleId`: appended, rewritten in place,
    /// never removed.
    rows: Dataset,
    /// Whether each row of `rows` is live.
    live: Vec<bool>,
    /// The constraint text, parsed into every compacted table.
    constraints: String,
    config: HoloConfig,
    /// The compacted live table and the run over it; `None` until the
    /// first read and after every mutation.
    read: Option<(Dataset, PipelineRun)>,
    /// Stage durations summed over the runs made, the last run's
    /// partition and statistics blocks, and the ingest counters.
    timings: StageTimings,
}

impl StreamSession {
    /// Opens a session over `schema` with constraints parsed from
    /// `text` (DC lines and/or `FD:` sugar). The session starts empty;
    /// feed rows with [`StreamSession::push_batch`].
    pub fn new(schema: Schema, text: &str, config: HoloConfig) -> Result<Self, HoloError> {
        let rows = Dataset::new(schema);
        // Whether a text binds depends on the schema alone, so a text that
        // parses here parses into every table a read builds.
        parse_constraints(text, &mut rows.clone())?;
        Ok(StreamSession {
            rows,
            live: Vec::new(),
            constraints: text.to_string(),
            config,
            read: None,
            timings: StageTimings::default(),
        })
    }

    /// Appends one batch of raw rows. A row of the wrong arity rejects
    /// the whole batch before anything changes.
    pub fn push_batch<S: AsRef<str>>(&mut self, rows: &[Vec<S>]) -> Result<BatchReport, HoloError> {
        let arity = self.rows.schema().len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != arity {
                return Err(HoloError::Stream(format!(
                    "batch row {i} has {} values; the schema has {arity} attributes",
                    row.len()
                )));
            }
        }
        self.rows.append_rows(rows);
        self.live.resize(self.rows.tuple_count(), true);
        Ok(self.accept(BatchReport {
            appended: rows.len(),
            ..BatchReport::default()
        }))
    }

    /// Deletes live rows. `TupleId`s are stable — nothing is renumbered,
    /// and a deleted row's id is never reused. A row that is out of range,
    /// already deleted, or named twice rejects the whole batch before
    /// anything changes.
    pub fn push_deletes(&mut self, rows: &[TupleId]) -> Result<BatchReport, HoloError> {
        self.validate_live(rows)?;
        for t in rows {
            self.live[t.index()] = false;
        }
        Ok(self.accept(BatchReport {
            deleted: rows.len(),
            ..BatchReport::default()
        }))
    }

    /// Rewrites live rows in place (same `TupleId`, new values). A row
    /// that is not live, is named twice, or has the wrong arity rejects
    /// the whole batch before anything changes.
    pub fn push_updates<S: AsRef<str>>(
        &mut self,
        updates: &[(TupleId, Vec<S>)],
    ) -> Result<BatchReport, HoloError> {
        let rows: Vec<TupleId> = updates.iter().map(|(t, _)| *t).collect();
        self.validate_live(&rows)?;
        let arity = self.rows.schema().len();
        for (t, vals) in updates {
            if vals.len() != arity {
                return Err(HoloError::Stream(format!(
                    "update of tuple {} has {} values; the schema has {arity} attributes",
                    t.index(),
                    vals.len()
                )));
            }
        }
        self.rows.update_rows(updates);
        Ok(self.accept(BatchReport {
            updated: rows.len(),
            ..BatchReport::default()
        }))
    }

    /// The end of every accepted mutation: the run over the previous
    /// table is dropped whole (see the module docs for why no part of it
    /// survives) and the batch is counted. An empty batch changed no
    /// row, so it does neither.
    fn accept(&mut self, report: BatchReport) -> BatchReport {
        if report == BatchReport::default() {
            return report;
        }
        let ingest = &mut self.timings.ingest;
        if let Some((_, run)) = self.read.take() {
            ingest.vars_retired += run.model.graph.var_count() as u64;
        }
        ingest.batches += 1;
        ingest.tuples += report.appended as u64;
        ingest.rows_deleted += report.deleted as u64;
        ingest.rows_updated += report.updated as u64;
        report
    }

    /// Rejects mutation batches naming rows that are out of range, dead,
    /// or repeated within the batch.
    fn validate_live(&self, rows: &[TupleId]) -> Result<(), HoloError> {
        let mut seen: FxHashSet<TupleId> = FxHashSet::default();
        for &t in rows {
            if !self.live.get(t.index()).copied().unwrap_or(false) {
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

    /// The live rows in id order as a fresh table, each distinct value
    /// interned once in row-major first-appearance order — the pool a
    /// loader builds from the same rows. Symbols are mapped, not strings
    /// re-interned: one pool lookup per distinct value.
    fn compact(&self) -> Dataset {
        let src = &self.rows;
        let mut ds = Dataset::new(src.schema().clone());
        let mut dense: Vec<Option<Sym>> = vec![None; src.pool().len()];
        dense[Sym::NULL.index()] = Some(Sym::NULL);
        let mut row = Vec::with_capacity(src.schema().len());
        for t in src.tuples().filter(|t| self.live[t.index()]) {
            row.clear();
            for a in src.schema().attrs() {
                let s = src.cell(t, a);
                row.push(*dense[s.index()].get_or_insert_with(|| ds.intern(src.value_str(s))));
            }
            ds.push_row_syms(&row);
        }
        ds
    }

    /// The one-shot run over the compacted live table, billed to the
    /// session's cumulative timings and counters.
    fn run_pipeline(&mut self) -> Result<(Dataset, PipelineRun), HoloError> {
        let cx = HoloClean::new(self.compact())
            .with_constraint_text(&self.constraints)?
            .with_config(self.config.clone())
            .into_context()?;
        let run = pipeline::run(&cx)?;
        let t = &mut self.timings;
        t.bill(&run.timings);
        let shape = &run.model.stats;
        t.ingest.canonical_retrains += 1;
        t.ingest.cells_recomputed +=
            (shape.query_vars + shape.singleton_noisy_cells + shape.evidence_vars) as u64;
        t.ingest.vars_added += run.model.graph.var_count() as u64;
        Ok((cx.ds, run))
    }

    /// Repairs and posteriors of the live rows: the one-shot
    /// [`crate::HoloClean`] run over them, in the coordinates of
    /// [`StreamSession::cached_table`]. Makes the run if a mutation (or
    /// nothing yet) left the session without one; an unchanged session
    /// serves the run it has.
    ///
    /// Fails like the one-shot pipeline does:
    /// [`HoloError::PrunedInitialValue`] from the compiler and
    /// [`HoloError::LearnDiverged`] when SGD produced non-finite
    /// gradients. A failed read caches nothing; the session stays
    /// consistent and the next read tries again.
    pub fn try_report(&mut self) -> Result<RepairReport, HoloError> {
        let read = match self.read.take() {
            Some(read) => read,
            None => self.run_pipeline()?,
        };
        let (ds, run) = self.read.insert(read);
        Ok(RepairReport::from_marginals(
            ds,
            &run.model.query_cells,
            &run.model.query_vars,
            &run.model.graph,
            &run.marginals,
        ))
    }

    /// [`StreamSession::try_report`] for callers that treat a failed read
    /// as a bug.
    ///
    /// # Panics
    /// Panics if the run fails — with default pruning that takes a
    /// diverging [`holo_factor::LearnConfig::learning_rate`].
    pub fn report(&mut self) -> RepairReport {
        self.try_report()
            .expect("StreamSession::report: the run failed; try_report returns the error")
    }

    /// The row store: every row ever fed, deleted ones included, so
    /// `tuple_count()` is the next `TupleId` a push assigns.
    pub fn dataset(&self) -> &Dataset {
        &self.rows
    }

    /// The compacted live table the cached run was made over — the table
    /// whose `TupleId`s and symbols the report speaks — if the last read
    /// made one and no mutation has dropped it since.
    pub fn cached_table(&self) -> Option<&Dataset> {
        self.read.as_ref().map(|(ds, _)| ds)
    }

    /// The run over the current live table — detection, model, weights,
    /// marginals, in the coordinates of [`StreamSession::cached_table`] —
    /// if the last read made one and no mutation has dropped it since.
    pub fn cached_run(&self) -> Option<&PipelineRun> {
        self.read.as_ref().map(|(_, run)| run)
    }

    /// Violations the cached run detected over the live table; `None`
    /// when there is no cached run (mutations detect nothing).
    pub fn violations(&self) -> Option<usize> {
        Some(self.cached_run()?.detection.violations)
    }

    /// Noisy cells of the cached run; `None` when there is none.
    pub fn noisy_cells(&self) -> Option<usize> {
        Some(self.cached_run()?.detection.noisy.len())
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

    /// Run turnover and the live-vs-deleted row split.
    pub fn retire_stats(&self) -> RetireStats {
        let live_rows = self.live.iter().filter(|&&live| live).count() as u64;
        RetireStats {
            compactions: self.timings.ingest.canonical_retrains.saturating_sub(1),
            live_rows,
            dead_rows: self.live.len() as u64 - live_rows,
        }
    }

    /// Stage durations summed over the runs made (mutations bill
    /// nothing), the last run's partition and statistics blocks, and
    /// every counter block filled in.
    pub fn timings(&self) -> StageTimings {
        let mut t = self.timings;
        t.retire = self.retire_stats();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use crate::HoloClean;
    use holo_dataset::CellRef;

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
        // Pushes run nothing.
        assert!(session.cached_run().is_none());
        assert_eq!(session.design_stats().full_builds, 0);
        let first = session.report();
        let stats = session.ingest_stats();
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.tuples as usize, rows.len());
        assert_eq!(stats.canonical_retrains, 1);
        assert!(stats.vars_added > 0 && stats.cells_recomputed > 0);
        assert_eq!((stats.cells_reused, stats.replay_minibatches), (0, 0));
        // An unchanged session serves the run it has — and an empty
        // batch leaves it unchanged.
        let none = BatchReport::default();
        assert_eq!(session.push_batch::<String>(&[]).unwrap(), none);
        assert_eq!(session.push_deletes(&[]).unwrap(), none);
        assert_eq!(session.push_updates::<String>(&[]).unwrap(), none);
        assert!(session.cached_run().is_some());
        assert_eq!(session.report(), first);
        assert_eq!(session.ingest_stats(), stats);
        assert_eq!(session.design_stats().full_builds, 1);
        assert_eq!(session.retire_stats().compactions, 0);
        // A mutation discards it; the next read makes the next one.
        session.push_batch(&[row("60609", "Evanstn")]).unwrap();
        assert!(session.cached_run().is_none());
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
        // Source features stream too: a feed is the one-shot run, with
        // `State` standing in for the source of each `Zip` entity.
        let rows = zip_city_rows();
        let config = HoloConfig::default().with_source("Zip", "State");
        let mut session = open(config.clone());
        for chunk in rows.chunks(4) {
            session.push_batch(chunk).unwrap();
        }
        let reference = one_shot_with(&rows, config).run().unwrap().report;
        assert_eq!(session.report(), reference, "source features");

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
            "update of a deleted row",
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
        assert_eq!(session.ingest_stats(), twin.ingest_stats());
        assert_eq!(session.report(), twin.report());
        assert_eq!(session.violations(), twin.violations());
        assert_eq!(session.noisy_cells(), twin.noisy_cells());
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

        // Delete an early clean row too, so the compacted table's ids are
        // not the session's.
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
        let model = &session.cached_run().expect("the read made it").model;
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
            let run = session.cached_run().expect("the read made it");
            assert!(run.model.stats.cliques > 0, "cliques grounded");

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
        // A read serves the one-shot report and the one-shot detection.
        let reads_like_one_shot = |session: &mut StreamSession, live: &[Vec<String>]| {
            let config = HoloConfig::default().with_threads(1);
            let outcome = one_shot_with(live, config).run().unwrap();
            assert_eq!(session.violations(), None, "a mutation detects nothing");
            assert_eq!(session.report(), outcome.report);
            assert_eq!(session.violations(), Some(outcome.violations));
            assert_eq!(session.noisy_cells(), Some(outcome.noisy_cells));
            outcome.violations
        };
        let before = reads_like_one_shot(&mut session, &rows);
        // Rewrite a clean Evanston row into a fresh 60608 conflict.
        session
            .push_updates(&[(TupleId(9), row("60608", "Evanstn"))])
            .unwrap();
        let mut live = rows.clone();
        live[9] = row("60608", "Evanstn");
        assert!(reads_like_one_shot(&mut session, &live) > before);
        // Rewrite it back: the violation is gone.
        session
            .push_updates(&[(TupleId(9), rows[9].clone())])
            .unwrap();
        assert_eq!(reads_like_one_shot(&mut session, &rows), before);
    }

    /// Degenerate feeds (ROADMAP item 9(c)): every read is `Ok` and equal,
    /// to the probability bit, to `HoloClean::run` over the same live
    /// table.
    #[test]
    fn degenerate_feeds_read_like_the_one_shot_run() {
        type Feed = fn(&mut StreamSession) -> Vec<Vec<String>>;
        let feeds: [(&str, Feed); 6] = [
            ("never fed", |_| Vec::new()),
            ("every row deleted", |s| {
                let rows = zip_city_rows();
                s.push_batch(&rows).unwrap();
                let all: Vec<TupleId> = (0..rows.len()).map(TupleId::from).collect();
                s.push_deletes(&all).unwrap();
                Vec::new()
            }),
            ("every row deleted, then fed again", |s| {
                let rows = zip_city_rows();
                s.push_batch(&rows).unwrap();
                let all: Vec<TupleId> = (0..rows.len()).map(TupleId::from).collect();
                s.push_deletes(&all).unwrap();
                s.push_batch(&rows).unwrap();
                rows
            }),
            ("a single live row", |s| {
                s.push_batch(&zip_city_rows()[7..9]).unwrap();
                s.push_deletes(&[TupleId(0)]).unwrap();
                vec![row("60608", "Cicago")]
            }),
            ("an all-null column", |s| {
                let rows: Vec<Vec<String>> = zip_city_rows()
                    .iter()
                    .map(|r| vec![r[0].clone(), r[1].clone(), String::new()])
                    .collect();
                s.push_batch(&rows).unwrap();
                rows
            }),
            ("only a rejected mutation", |s| {
                rejected(s.push_batch(&[vec!["short".to_string()]]), "arity");
                rejected(s.push_deletes(&[TupleId(0)]), "no such row");
                Vec::new()
            }),
        ];
        let bits = |r: &RepairReport| -> Vec<u64> {
            let repairs = r.repairs.iter().map(|x| x.probability.to_bits());
            let posteriors = r.posteriors.iter().flat_map(|p| &p.candidates);
            repairs
                .chain(posteriors.map(|(_, p)| p.to_bits()))
                .collect()
        };
        for (name, feed) in feeds {
            let mut session = open(HoloConfig::default().with_threads(1));
            let live = feed(&mut session);
            let report = session
                .try_report()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let reference = one_shot(&live, 1);
            assert_eq!(report, reference, "{name}");
            assert_eq!(bits(&report), bits(&reference), "{name}");
            assert_eq!(session.ingest_stats().canonical_retrains, 1, "{name}");
        }
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
