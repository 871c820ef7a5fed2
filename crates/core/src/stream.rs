//! The repair session of a moving table: **a row store, its labels and
//! one cached run**.
//!
//! The paper compiles its model over a frozen table (§3, Figure 2); a
//! service sees the table move, and §2.2/§7 "ask users to verify repairs
//! with low marginal probabilities and use those as labeled examples to
//! retrain". [`Session`] serves both. It keeps every row fed, which rows
//! are live, the cells a user verified with the value each held before its
//! first label, the constraint text, the dictionaries, the configuration,
//! and the one-shot run over the live rows of the last read.
//!
//! **An edit changes the inputs.** [`Session::push_batch`],
//! [`Session::push_updates`], [`Session::push_deletes`],
//! [`Session::apply_labels`] and [`Session::with_dictionary`] validate the
//! whole batch first, so a rejected one ([`HoloError::Stream`]) leaves the
//! session as it was. An accepted one edits the store — appends take the
//! next `TupleId`s, updates rewrite a row in place, deletes clear its live
//! flag, labels write their value and mark the cell verified; nothing
//! renumbers — and drops the cached run. An update or delete of a row
//! drops that row's labels. An edit detects nothing and counts nothing
//! but itself; an empty batch keeps the cached run.
//!
//! **A read compacts the table and makes the one-shot run.**
//! [`Session::try_report`], [`Session::report`] and [`Session::requests`]
//! serve the cached run, or make it: the live rows in id order become a
//! fresh table (each distinct value interned once, in row-major
//! first-appearance order, as `csv::parse_dataset` would), the context is
//! built from it as [`crate::HoloClean::into_context`] builds one
//! (constraint text parsed, dictionary matches made), the labelled cells
//! become [`verified`](crate::PipelineContext::verified), and
//! [`pipeline::run`] runs. No layer below the session sees a deleted row,
//! and nothing is carried from one run to the next: one new row moves the
//! statistics, domains and features of old rows, and carrying detection
//! or statistics across edits measured slower than rebuilding them
//! (ROADMAP, Settled).
//!
//! A label is a table edit: detection, statistics and the relaxed-DC
//! counts read the verified value, so a label that resolves a conflict
//! unflags its partners too, and a labelled cell is no query variable but
//! an ordinary clean cell, sampled as evidence like any other (a bottom-k
//! sample, so a label moves at most one evidence cell). The report adds
//! one repair at probability 1 for each label that changed its cell.
//!
//! **The equivalence contract.** A read is identical — `TupleId`s,
//! symbols, repairs and posteriors to the bit — to the one-shot
//! [`crate::HoloClean`] run over the final live rows with the session's
//! dictionaries and its labelled cells verified, for any interleaving of
//! edits, model variant and thread count, because it *is* that run. Its
//! coordinates are the compacted table's: a reported `TupleId` is a live
//! row's rank, and a symbol resolves through [`Session::cached_table`]. A
//! failed read ([`HoloError::PrunedInitialValue`],
//! [`HoloError::LearnDiverged`]) caches nothing.

use crate::config::HoloConfig;
use crate::error::HoloError;
use crate::pipeline::{self, PipelineRun};
use crate::repair::{Repair, RepairReport};
use crate::HoloClean;
use holo_constraints::parse_constraints;
use holo_dataset::{CellRef, Dataset, FxHashSet, Schema, Sym, TupleId};
use holo_external::{DictId, ExtDict, Matcher, MatchingDependency};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cumulative counters of a [`Session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Non-empty edits accepted: row, label and dictionary batches.
    pub batches: u64,
    /// Tuples appended.
    pub tuples: u64,
    /// Noisy and evidence cells compiled, summed over runs.
    pub cells_recomputed: u64,
    /// Always 0: no compile state outlives an edit (see the module docs).
    /// Kept because the benchmark reads the field.
    pub cells_reused: u64,
    /// Variables of the models built, summed over runs.
    pub vars_added: u64,
    /// Variables of the models an edit discarded.
    pub vars_retired: u64,
    /// Always 0: there is no warm-start replay. Kept because the
    /// benchmark reads the field.
    pub replay_minibatches: u64,
    /// One-shot runs made by reads. Each trains from the priors, so this
    /// is also the number of canonical retrains.
    pub canonical_retrains: u64,
    /// Rows deleted by [`Session::push_deletes`].
    pub rows_deleted: u64,
    /// Rows rewritten in place by [`Session::push_updates`].
    pub rows_updated: u64,
}

/// What [`Session::design_stats`] reports. Kept because the benchmark
/// reads both fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignStats {
    /// Runs made: each compiles its design matrix once.
    pub full_builds: u64,
    /// Always 0: a built model is never mutated.
    pub vars_patched: u64,
}

/// Run turnover and row liveness of a [`Session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireStats {
    /// Runs discarded by an edit and made again by a later read. The
    /// session's first run is not one, so after any read
    /// `design_stats().full_builds == 1 + compactions`.
    pub compactions: u64,
    /// Live rows of the session.
    pub live_rows: u64,
    /// Deleted rows, whose ids stay taken.
    pub dead_rows: u64,
}

/// A cell the model wants verified, with its current best guess.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackRequest {
    /// The cell to verify, in the session's own `TupleId`s: the cell
    /// [`Session::apply_labels`] takes.
    pub cell: CellRef,
    /// The model's current MAP value.
    pub proposed: String,
    /// The marginal probability of the proposal (low = unsure).
    pub confidence: f64,
}

/// One verified label: the true value of a cell, from the user.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// The verified cell, in the session's own `TupleId`s.
    pub cell: CellRef,
    /// Its true value.
    pub value: String,
}

/// The repair session: a row store, its labels and the cached one-shot
/// run over its live rows. See the module docs for what an edit does,
/// what a read does, and the equivalence contract.
pub struct Session {
    /// Every row ever fed, at its `TupleId`: appended, rewritten in place
    /// (labels included), never removed.
    rows: Dataset,
    /// Whether each row of `rows` is live.
    live: Vec<bool>,
    /// Each labelled cell of a live row, with the value it held before
    /// its first label.
    labels: BTreeMap<CellRef, Sym>,
    /// The constraint text, parsed into every compacted table.
    constraints: String,
    /// Dictionaries and their matching dependencies, matched against
    /// every compacted table.
    dicts: Vec<(ExtDict, Vec<MatchingDependency>)>,
    config: HoloConfig,
    /// The last read; `None` until the first read and after every edit.
    read: Option<Read>,
    ingest: IngestStats,
}

/// What a read made, kept until the next edit.
struct Read {
    /// The compacted live table; every symbol of the report resolves here.
    table: Dataset,
    /// The one-shot run over `table`.
    run: PipelineRun,
    /// The live rows' ids: a `TupleId` of `table` indexes them.
    ids: Vec<TupleId>,
    /// One repair at probability 1 per label that changed its cell.
    labelled: Vec<Repair>,
}

/// The streaming name of [`Session`], which the benchmark uses.
///
/// ```
/// use holo_dataset::{CellRef, Schema};
/// use holoclean::stream::{Label, StreamSession};
/// use holoclean::HoloConfig;
///
/// let schema = Schema::new(vec!["Zip", "City"]);
/// let mut session = StreamSession::new(schema, "FD: Zip -> City", HoloConfig::default()).unwrap();
/// session.push_batch(&vec![vec!["60608", "Chicago"]; 8]).unwrap();
/// session.push_batch(&[vec!["60608", "Cicago"], vec!["60608", "Chicgo"]]).unwrap();
/// let report = session.report();
/// assert_eq!(report.repairs.len(), 2);
/// assert!(report.repairs.iter().all(|r| r.new_value == "Chicago"));
/// // The least confident cells come first. A user verifies one; the next
/// // read reports the label at p = 1.
/// let asked = session.requests(2).unwrap();
/// assert!(asked[0].confidence <= asked[1].confidence);
/// let (cell, value) = (CellRef::new(8usize, 1usize), "Chicago".to_string());
/// session.apply_labels(&[Label { cell, value }]).unwrap();
/// let repair = session.report().repairs.into_iter().find(|r| r.cell == cell).unwrap();
/// assert_eq!((repair.new_value.as_str(), repair.probability), ("Chicago", 1.0));
/// ```
pub type StreamSession = Session;

impl Session {
    /// Opens a session over `schema` with constraints parsed from
    /// `text` (DC lines and/or `FD:` sugar). The session starts empty;
    /// feed rows with [`Session::push_batch`].
    pub fn new(schema: Schema, text: &str, config: HoloConfig) -> Result<Self, HoloError> {
        let rows = Dataset::new(schema);
        // Whether a text binds depends on the schema alone, so a text that
        // parses here parses into every table a read builds.
        parse_constraints(text, &mut rows.clone())?;
        Ok(Session {
            rows,
            live: Vec::new(),
            labels: BTreeMap::new(),
            constraints: text.to_string(),
            dicts: Vec::new(),
            config,
            read: None,
            ingest: IngestStats::default(),
        })
    }

    /// Adds a dictionary with its matching dependencies; every read
    /// matches it against the compacted table. A dependency naming an
    /// attribute that the schema or the dictionary lacks rejects the
    /// dictionary.
    pub fn with_dictionary(
        &mut self,
        dict: ExtDict,
        deps: Vec<MatchingDependency>,
    ) -> Result<(), HoloError> {
        // Matching an empty table resolves every attribute and reads no row.
        let empty = Dataset::new(self.rows.schema().clone());
        let matcher = Matcher::new(&dict, DictId(self.dicts.len() as u32));
        for md in &deps {
            let resolved = matcher.find_matches(&empty, md);
            resolved.map_err(|e| HoloError::Stream(format!("dictionary: {e}")))?;
        }
        self.dicts.push((dict, deps));
        self.accept(1);
        Ok(())
    }

    /// Appends one batch of raw rows. A row of the wrong arity rejects
    /// the whole batch before anything changes.
    pub fn push_batch<S: AsRef<str>>(&mut self, rows: &[Vec<S>]) -> Result<(), HoloError> {
        self.check_arity(rows.iter().map(Vec::len))?;
        self.rows.append_rows(rows);
        self.live.resize(self.rows.tuple_count(), true);
        self.ingest.tuples += self.accept(rows.len());
        Ok(())
    }

    /// Deletes live rows and their labels. `TupleId`s are stable —
    /// nothing is renumbered, and a deleted row's id is never reused. A
    /// row that is out of range, already deleted, or named twice rejects
    /// the whole batch before anything changes.
    pub fn push_deletes(&mut self, rows: &[TupleId]) -> Result<(), HoloError> {
        let rows = self.unlabel_live(rows.iter().copied())?;
        for t in &rows {
            self.live[t.index()] = false;
        }
        self.ingest.rows_deleted += self.accept(rows.len());
        Ok(())
    }

    /// Rewrites live rows in place (same `TupleId`, new values) and drops
    /// their labels. A row that is not live, is named twice, or has the
    /// wrong arity rejects the whole batch before anything changes.
    pub fn push_updates<S: AsRef<str>>(
        &mut self,
        updates: &[(TupleId, Vec<S>)],
    ) -> Result<(), HoloError> {
        self.check_arity(updates.iter().map(|(_, row)| row.len()))?;
        self.unlabel_live(updates.iter().map(|(t, _)| *t))?;
        self.rows.update_rows(updates);
        self.ingest.rows_updated += self.accept(updates.len());
        Ok(())
    }

    /// Writes user-verified values into their cells and marks the cells
    /// verified. Any cell of a live row can be labelled, flagged or not,
    /// with any value (the user knows values the statistics never
    /// proposed). A label naming a row that is not live or an attribute
    /// outside the schema rejects the whole batch before anything changes.
    pub fn apply_labels(&mut self, labels: &[Label]) -> Result<(), HoloError> {
        let attrs = self.rows.schema().len();
        let named = |l: &&Label| self.is_live(l.cell.tuple) && l.cell.attr.index() < attrs;
        if let Some(label) = labels.iter().find(|l| !named(l)) {
            return Err(HoloError::Stream(format!(
                "label for cell {} names no live cell of this session",
                label.cell
            )));
        }
        for Label { cell, value } in labels {
            let sym = self.rows.intern(value);
            let before = self.rows.cell_ref(*cell);
            self.labels.entry(*cell).or_insert(before);
            self.rows.set_cell(cell.tuple, cell.attr, sym);
        }
        self.accept(labels.len());
        Ok(())
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.live.get(t.index()) == Some(&true)
    }

    /// Rejects a batch holding a row of the wrong arity.
    fn check_arity(&self, mut lens: impl Iterator<Item = usize>) -> Result<(), HoloError> {
        let arity = self.rows.schema().len();
        match lens.position(|len| len != arity) {
            Some(i) => Err(HoloError::Stream(format!(
                "row {i} of the batch does not have the schema's {arity} values"
            ))),
            None => Ok(()),
        }
    }

    /// The end of every accepted edit of `n` items: a non-empty one drops
    /// the run over the previous table whole (see the module docs for why
    /// no part of it survives) and counts as a batch. Returns `n`.
    fn accept(&mut self, n: usize) -> u64 {
        if n > 0 {
            if let Some(read) = self.read.take() {
                self.ingest.vars_retired += read.run.model.graph.var_count() as u64;
            }
            self.ingest.batches += 1;
        }
        n as u64
    }

    /// Checks that `rows` are live and distinct, then drops their labels;
    /// returns the rows.
    fn unlabel_live(
        &mut self,
        rows: impl Iterator<Item = TupleId>,
    ) -> Result<FxHashSet<TupleId>, HoloError> {
        let mut seen = FxHashSet::default();
        for t in rows {
            if !self.is_live(t) {
                return Err(HoloError::Stream(format!(
                    "tuple {} is not a live row of this session",
                    t.index()
                )));
            }
            if !seen.insert(t) {
                return Err(HoloError::Stream(format!(
                    "tuple {} appears more than once in one batch",
                    t.index()
                )));
            }
        }
        self.labels.retain(|cell, _| !seen.contains(&cell.tuple));
        Ok(seen)
    }

    /// The live rows' ids in order: a compacted `TupleId` is an index
    /// into it.
    fn live_ids(&self) -> Vec<TupleId> {
        let live = self.live.iter().enumerate().filter(|(_, &live)| live);
        live.map(|(t, _)| TupleId::from(t)).collect()
    }

    /// The live rows in id order as a fresh table, each distinct value
    /// interned once in row-major first-appearance order — the pool a
    /// loader builds from the same rows. Symbols are mapped, not strings
    /// re-interned: one pool lookup per distinct value.
    fn compact(&self, ids: &[TupleId]) -> Dataset {
        let src = &self.rows;
        let mut ds = Dataset::new(src.schema().clone());
        let mut dense: Vec<Option<Sym>> = vec![None; src.pool().len()];
        dense[Sym::NULL.index()] = Some(Sym::NULL);
        let mut row = Vec::with_capacity(src.schema().len());
        for &t in ids {
            row.clear();
            for a in src.schema().attrs() {
                let s = src.cell(t, a);
                row.push(*dense[s.index()].get_or_insert_with(|| ds.intern(src.value_str(s))));
            }
            ds.push_row_syms(&row);
        }
        ds
    }

    /// The cached read, or a new one: the one-shot run over the compacted
    /// live table with the labelled cells verified, counted in the
    /// session's counters. A label's old value that no live row holds is
    /// interned into the table after the run. A failed run caches nothing.
    fn read(&mut self) -> Result<&Read, HoloError> {
        if let Some(read) = self.read.take() {
            return Ok(self.read.insert(read));
        }
        let ids = self.live_ids();
        let mut holo = HoloClean::new(self.compact(&ids))
            .with_constraint_text(&self.constraints)?
            .with_config(self.config.clone());
        for (dict, deps) in &self.dicts {
            holo = holo.with_dictionary(dict.clone(), deps.clone());
        }
        let mut cx = holo.into_context()?;
        cx.verified = self.labels.keys().map(|&c| rank(&ids, c)).collect();
        let run = pipeline::run(&cx)?;
        let (rows, table) = (&self.rows, &mut cx.ds);
        let labelled = self.labels.iter().filter_map(|(&cell, &before)| {
            let old_value = rows.value_str(before);
            let new_value = rows.cell_str(cell.tuple, cell.attr);
            let cell = rank(&ids, cell);
            (old_value != new_value).then(|| Repair {
                cell,
                old: table.intern(old_value),
                new: table.cell_ref(cell),
                old_value: old_value.to_string(),
                new_value: new_value.to_string(),
                probability: 1.0,
            })
        });
        let labelled = labelled.collect();
        let shape = &run.model.stats;
        let ingest = &mut self.ingest;
        ingest.canonical_retrains += 1;
        ingest.cells_recomputed +=
            (shape.query_vars + shape.singleton_noisy_cells + shape.evidence_vars) as u64;
        ingest.vars_added += run.model.graph.var_count() as u64;
        let table = cx.ds;
        Ok(self.read.insert(Read {
            table,
            run,
            ids,
            labelled,
        }))
    }

    /// The cells most worth human review: the query cells ordered by
    /// ascending MAP confidence, truncated to `limit`, named in the
    /// session's own `TupleId`s. Makes the run if there is none; a failed
    /// run is returned as its error.
    pub fn requests(&mut self, limit: usize) -> Result<Vec<FeedbackRequest>, HoloError> {
        let read = self.read()?;
        let model = &read.run.model;
        let mut out: Vec<FeedbackRequest> = model
            .query_cells
            .iter()
            .zip(&model.query_vars)
            .map(|(&cell, &var)| {
                let (k, p) = read.run.marginals.map_candidate(var);
                FeedbackRequest {
                    cell: CellRef::new(read.ids[cell.tuple.index()], cell.attr),
                    proposed: read
                        .table
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

    /// Repairs and posteriors of the live rows: the one-shot
    /// [`crate::HoloClean`] run over them with the labelled cells
    /// verified, plus one repair at probability 1 for each label that
    /// changed its cell, all in cell order and in the coordinates of
    /// [`Session::cached_table`]. Makes the run if an edit (or nothing
    /// yet) left the session without one; an unchanged session serves the
    /// run it has.
    ///
    /// Fails like the one-shot pipeline does:
    /// [`HoloError::PrunedInitialValue`] from the compiler and
    /// [`HoloError::LearnDiverged`] when SGD produced non-finite
    /// gradients. A failed read caches nothing; the session stays
    /// consistent and the next read tries again.
    pub fn try_report(&mut self) -> Result<RepairReport, HoloError> {
        let read = self.read()?;
        let (model, marginals) = (&read.run.model, &read.run.marginals);
        let (cells, vars) = (&model.query_cells, &model.query_vars);
        let mut report =
            RepairReport::from_marginals(&read.table, cells, vars, &model.graph, marginals);
        report.repairs.extend(read.labelled.iter().cloned());
        report.repairs.sort_by_key(|r| r.cell);
        Ok(report)
    }

    /// [`Session::try_report`] for callers that treat a failed read as a
    /// bug.
    ///
    /// # Panics
    /// Panics if the run fails — with default pruning that takes a
    /// diverging [`holo_factor::LearnConfig::learning_rate`].
    pub fn report(&mut self) -> RepairReport {
        self.try_report()
            .expect("Session::report: the run failed; try_report returns the error")
    }

    /// The row store: every row ever fed, deleted ones included, with
    /// every label written, so `tuple_count()` is the next `TupleId` a
    /// push assigns.
    pub fn dataset(&self) -> &Dataset {
        &self.rows
    }

    /// The compacted live table the cached run was made over — the table
    /// whose `TupleId`s and symbols the report speaks — if the last read
    /// made one and no edit has dropped it since.
    pub fn cached_table(&self) -> Option<&Dataset> {
        self.read.as_ref().map(|read| &read.table)
    }

    /// The run over the current live table — detection, model, weights,
    /// marginals, in the coordinates of [`Session::cached_table`] — if the
    /// last read made one and no edit has dropped it since.
    pub fn cached_run(&self) -> Option<&PipelineRun> {
        self.read.as_ref().map(|read| &read.run)
    }

    /// Number of labelled cells: distinct cells labelled on rows that no
    /// update or delete has touched since.
    pub fn labelled_count(&self) -> usize {
        self.labels.len()
    }

    /// Cumulative edit and run counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// Design-matrix work over the session's life.
    pub fn design_stats(&self) -> DesignStats {
        DesignStats {
            full_builds: self.ingest.canonical_retrains,
            vars_patched: 0,
        }
    }

    /// Run turnover and the live-vs-deleted row split.
    pub fn retire_stats(&self) -> RetireStats {
        let live_rows = self.live.iter().filter(|&&live| live).count() as u64;
        RetireStats {
            compactions: self.ingest.canonical_retrains.saturating_sub(1),
            live_rows,
            dead_rows: self.live.len() as u64 - live_rows,
        }
    }
}

/// A live cell of the row store in the coordinates of the compacted table
/// built from the rows `ids`.
fn rank(ids: &[TupleId], cell: CellRef) -> CellRef {
    let t = ids.partition_point(|&id| id < cell.tuple);
    CellRef::new(t, cell.attr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use crate::metrics::evaluate;
    use holo_dataset::AttrId;
    use holo_factor::Marginals;

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

    fn open(config: HoloConfig) -> Session {
        Session::new(Schema::new(SCHEMA.to_vec()), "FD: Zip -> City", config).unwrap()
    }

    /// Asserts a batch was rejected with the typed stream error.
    fn rejected(result: Result<(), HoloError>, why: &str) {
        let err = result.expect_err(why);
        assert!(matches!(err, HoloError::Stream(_)), "{why}: {err}");
    }

    fn streamed(rows: &[Vec<String>], batches: usize, threads: usize) -> Session {
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
        session.push_batch::<String>(&[]).unwrap();
        session.push_deletes(&[]).unwrap();
        session.push_updates::<String>(&[]).unwrap();
        session.apply_labels(&[]).unwrap();
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
    fn every_config_streams_and_a_bad_arity_is_a_typed_error() {
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

        let table = |s: &Session| -> Vec<(CellRef, String)> {
            let ds = s.dataset();
            let value = |c| (c, ds.value_str(ds.cell_ref(c)).to_string());
            ds.cells().map(value).collect()
        };
        assert_eq!(table(&session), table(&twin));
        assert_eq!(session.retire_stats(), twin.retire_stats());
        assert_eq!(session.ingest_stats(), twin.ingest_stats());
        assert_eq!(session.report(), twin.report());
        let detection = |s: &Session| {
            let run = s.cached_run()?;
            Some((run.detection.violations, run.detection.noisy.len()))
        };
        assert_eq!(detection(&session), detection(&twin));
    }

    /// Drives one session through an interleaved insert/update/delete
    /// feed while maintaining the live table in a plain mirror. Returns
    /// the session and the live rows.
    fn crud_feed(config: HoloConfig) -> (Session, Vec<Vec<String>>) {
        let mut session = open(config);
        let rows = zip_city_rows();
        let mut mirror: Vec<Option<Vec<String>>> = Vec::new();
        let push = |session: &mut Session,
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
        let reads_like_one_shot = |session: &mut Session, live: &[Vec<String>]| {
            let config = HoloConfig::default().with_threads(1);
            let outcome = one_shot_with(live, config).run().unwrap();
            assert!(session.cached_run().is_none(), "an edit detects nothing");
            assert_eq!(session.report(), outcome.report);
            let detection = &session.cached_run().unwrap().detection;
            assert_eq!(detection.violations, outcome.violations);
            assert_eq!(detection.noisy.len(), outcome.noisy_cells);
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
        type Feed = fn(&mut Session) -> Vec<Vec<String>>;
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

    fn string_rows(ds: &Dataset) -> Vec<Vec<String>> {
        let row = |t| {
            ds.schema()
                .attrs()
                .map(move |a| ds.cell_str(t, a).to_string())
        };
        ds.tuples().map(|t| row(t).collect()).collect()
    }

    fn key_value(rows: &[Vec<String>]) -> HoloClean {
        let mut ds = Dataset::new(Schema::new(vec!["Key", "Value"]));
        for row in rows {
            ds.push_row(row);
        }
        HoloClean::new(ds)
            .with_constraint_text("FD: Key -> Value")
            .unwrap()
    }

    fn session_for(dirty: &Dataset) -> Session {
        session_with(dirty, "FD: Key -> Value")
    }

    fn session_with(dirty: &Dataset, constraints: &str) -> Session {
        let schema = dirty.schema().clone();
        let mut session = Session::new(schema, constraints, HoloConfig::default()).unwrap();
        session.push_batch(&string_rows(dirty)).unwrap();
        session
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
        assert!(session.read.is_none(), "a label drops the run");

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
        let run = &mut session.read.as_mut().unwrap().run;
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

    /// A read is the one-shot run over the labelled table with the
    /// labelled cells verified: the same detection, query cells, domains
    /// (by `Sym`), weights and marginals (by bits), and the same report
    /// once the labels' repairs are set aside.
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

        let mut rows = string_rows(&dirty);
        for Label { cell, value } in &labels {
            rows[cell.tuple.index()][cell.attr.index()] = value.clone();
        }
        let mut cx = key_value(&rows).into_context().unwrap();
        cx.verified = labels.iter().map(|l| l.cell).collect();
        let reference = pipeline::run(&cx).unwrap();
        let run = session.cached_run().unwrap();
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

    /// A label naming a tuple that is not live or an attribute outside the
    /// schema rejects the whole batch before anything changes; any cell
    /// of a live row is accepted, query cell or not.
    #[test]
    fn labels_are_validated_against_the_table() {
        let (dirty, _) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        session.push_deletes(&[TupleId(79)]).unwrap();
        session.requests(1).unwrap();
        let label = |tuple: usize, attr: usize| Label {
            cell: CellRef::new(tuple, attr),
            value: "alpha".to_string(),
        };
        let rows = dirty.tuple_count();
        for bad in [label(rows, 0), label(0, 2), label(79, 1)] {
            rejected(session.apply_labels(&[label(2, 1), bad]), "bad label");
            assert_eq!(
                session.labelled_count(),
                0,
                "a rejected batch changes nothing"
            );
            assert!(session.read.is_some(), "and keeps the run");
        }
        // Row 40's Key is a clean cell, never a query cell.
        session.apply_labels(&[label(40, 0)]).unwrap();
        assert_eq!(session.labelled_count(), 1);
        assert_eq!(session.dataset().cell_str(TupleId(40), AttrId(0)), "alpha");
        assert!(session.try_report().is_ok());
    }

    /// Requests name the session's own rows, so they can be labelled as
    /// they are even after a delete shifted the compacted table; an update
    /// or delete of a row drops that row's labels, and the read is then
    /// the unlabelled one-shot run.
    #[test]
    fn requests_name_session_rows_and_row_edits_drop_their_labels() {
        let (dirty, clean) = ambiguous_dataset();
        let mut session = session_for(&dirty);
        session.push_deletes(&[TupleId(0)]).unwrap();
        let requests = session.requests(usize::MAX).unwrap();
        assert!(requests.iter().all(|r| r.cell.tuple != TupleId(0)));
        // Row 1 is k0's `beta`; with row 0 gone it is no conflict.
        assert!(requests.iter().all(|r| r.cell.tuple != TupleId(1)));
        let labels = truth_labels(&requests[..2], &clean);
        session.apply_labels(&labels).unwrap();
        assert_eq!(session.labelled_count(), 2);
        let (a, b) = (labels[0].cell.tuple, labels[1].cell.tuple);
        let healed = vec!["k99".to_string(), "gamma".to_string()];
        session.push_updates(&[(a, healed.clone())]).unwrap();
        if a != b {
            session.push_deletes(&[b]).unwrap();
        }
        assert_eq!(session.labelled_count(), 0);

        let mut rows = string_rows(&dirty);
        rows[a.index()] = healed;
        let live: Vec<Vec<String>> = (0..rows.len())
            .filter(|&t| t != 0 && (t != b.index() || a == b))
            .map(|t| rows[t].clone())
            .collect();
        assert_eq!(session.report(), key_value(&live).run().unwrap().report);
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

        session.config.learn.learning_rate = 1e308;
        let err = session.try_report().expect_err("1e308 overflows");
        assert!(matches!(err, HoloError::LearnDiverged { .. }), "got {err}");
        assert!(session.read.is_none(), "a failed read caches nothing");
        assert_eq!(session.labelled_count(), 1);
        assert_eq!(rows(session.dataset()), table);

        // The session is still usable once the rate is sane again.
        session.config.learn.learning_rate = HoloConfig::default().learn.learning_rate;
        session.try_report().unwrap();
        let timings = session.cached_run().unwrap().timings;
        assert!(timings.learn > std::time::Duration::ZERO);
        assert!(timings.partition.components > 0);
    }

    /// A report as lines: each repair's cell, values (through `ds` and as
    /// carried) and probability bits, then each posterior's candidates by
    /// value and bits.
    fn lines(report: &RepairReport, ds: &Dataset) -> Vec<String> {
        let repairs = report.repairs.iter().map(|r| {
            let (old, new) = (ds.value_str(r.old), ds.value_str(r.new));
            assert_eq!((old, new), (r.old_value.as_str(), r.new_value.as_str()));
            format!(
                "{:?} {old:?} -> {new:?} {:x}",
                r.cell,
                r.probability.to_bits()
            )
        });
        let posteriors = report.posteriors.iter().map(|p| {
            let candidates = p.candidates.iter().map(|&(s, pr)| {
                let value = ds.value_str(s);
                format!("{value:?}={:x}", pr.to_bits())
            });
            let candidates: Vec<String> = candidates.collect();
            format!("{:?} {}", p.cell, candidates.join(" "))
        });
        repairs.chain(posteriors).collect()
    }

    /// What a labelled read must say, as [`lines`]: `pipeline::run` over
    /// `rows` (labels written) with the cells of `before` verified, plus
    /// one p = 1 repair per label that changed its cell from its `before`
    /// value.
    fn labelled_reference(
        rows: &[Vec<String>],
        before: &BTreeMap<CellRef, String>,
        config: HoloConfig,
    ) -> Vec<String> {
        let mut cx = one_shot_with(rows, config).into_context().unwrap();
        cx.verified = before.keys().copied().collect();
        let run = pipeline::run(&cx).unwrap();
        let model = &run.model;
        let (cells, vars) = (&model.query_cells, &model.query_vars);
        let mut report =
            RepairReport::from_marginals(&cx.ds, cells, vars, &model.graph, &run.marginals);
        for (&cell, old_value) in before {
            let new_value = cx.ds.cell_str(cell.tuple, cell.attr).to_string();
            if *old_value != new_value {
                report.repairs.push(Repair {
                    cell,
                    old: cx.ds.intern(old_value),
                    new: cx.ds.cell_ref(cell),
                    old_value: old_value.clone(),
                    new_value,
                    probability: 1.0,
                });
            }
        }
        report.repairs.sort_by_key(|r| r.cell);
        lines(&report, &cx.ds)
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

        /// Arbitrary insert/update/delete/label interleavings, with reads
        /// at arbitrary points mid-feed, serve every read equal — value
        /// strings and probability bits — to `pipeline::run` over the live
        /// table at that moment with its labelled cells verified, plus one
        /// p = 1 repair per label that changed its cell; a repeated read is
        /// equal and builds nothing. Each op is `((kind, sel, n, z, c),
        /// read)`: kind 0 inserts `n` rows derived from `(z, c)`, kind 1
        /// updates the live row selected by `sel`, kind 2 deletes it, kind 3
        /// labels its attribute `n % 3` with value `c`; `read == 1` reads
        /// after the op (the last op is always read).
        #[test]
        fn prop_interleaved_crud_matches_a_fresh_build(
            ops in proptest::collection::vec(
                ((0u8..4, 0u8..16, 1u8..4, 0u8..2, 0u8..3), 0u8..2), 1..8),
        ) {
            let mut session = open(HoloConfig::default().with_threads(1));
            let mut live_ids: Vec<TupleId> = Vec::new();
            let mut mirror: Vec<Vec<String>> = Vec::new();
            // Per live row, each labelled attribute's value before its label.
            let mut labelled: Vec<BTreeMap<usize, String>> = Vec::new();
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
                            labelled.push(BTreeMap::new());
                        }
                    }
                    _ if live_ids.is_empty() => {}
                    1 => {
                        let idx = sel as usize % live_ids.len();
                        let row = crud_row(z, c);
                        session.push_updates(&[(live_ids[idx], row.clone())]).unwrap();
                        mirror[idx] = row;
                        labelled[idx].clear();
                    }
                    2 => {
                        let idx = sel as usize % live_ids.len();
                        session.push_deletes(&[live_ids[idx]]).unwrap();
                        live_ids.remove(idx);
                        mirror.remove(idx);
                        labelled.remove(idx);
                    }
                    _ => {
                        let (idx, attr) = (sel as usize % live_ids.len(), n as usize % 3);
                        let value = ["Chicago", "Cicago", "omega"][c as usize].to_string();
                        let cell = CellRef::new(live_ids[idx], attr);
                        session.apply_labels(&[Label { cell, value: value.clone() }]).unwrap();
                        let old = std::mem::replace(&mut mirror[idx][attr], value);
                        labelled[idx].entry(attr).or_insert(old);
                    }
                }
                if read == 0 && i != last {
                    continue;
                }
                let streamed = session.report();
                let table = session.cached_table().unwrap();
                let before: BTreeMap<CellRef, String> = labelled
                    .iter()
                    .enumerate()
                    .flat_map(|(t, attrs)| {
                        attrs.iter().map(move |(&a, old)| (CellRef::new(t, a), old.clone()))
                    })
                    .collect();
                let config = HoloConfig::default().with_threads(1);
                prop_assert_eq!(
                    lines(&streamed, table),
                    labelled_reference(&mirror, &before, config)
                );
                if before.is_empty() {
                    prop_assert_eq!(&streamed, &one_shot(&mirror, 1));
                }
                prop_assert_eq!(session.labelled_count(), before.len());
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
