//! Streaming ingestion: the one-shot pipeline as an **incremental
//! engine** with batch-equivalent repairs.
//!
//! The paper specifies HoloClean as compile-then-infer over a frozen
//! dataset; a production service ingests tuples continuously. PClean
//! (arXiv 2007.11838) and the PUD framework (arXiv 1801.06750) both argue
//! the resolution: keep **one** probabilistic model alive and *condition
//! it on growing evidence*, recomputing only the part of the model a new
//! record touches. [`StreamSession`] is that engine, built on the
//! incremental substrates of the earlier refactors — the in-place
//! [`holo_factor::DesignMatrix`] patching, the in-place
//! [`holo_factor::ComponentIndex`] maintenance, and partitioned
//! inference.
//!
//! ## Per-batch dataflow ([`StreamSession::push_batch`])
//!
//! 1. **Append** — rows join the dataset with stable `TupleId`s;
//!    co-occurrence statistics fold in the batch incrementally
//!    (`CooccurStats::extend_with_threads`, `O(batch · |A|²)`).
//! 2. **Delta detect** — a persistent blocking index
//!    ([`holo_constraints::DeltaViolationIndex`]) is probed with *only
//!    the new tuples, in both join directions*; the per-batch violations
//!    union to exactly the one-shot violation set.
//! 3. **Delta compile** — an *affected set* of old tuples is derived from
//!    value postings (same-column sharing moves co-occurrence counts;
//!    join-key postings over stored values **and** domain candidates move
//!    relaxed-DC partner counts). Domains and features are recomputed
//!    only for cells of affected tuples (plus the batch itself); every
//!    other cell reuses its cached compile verbatim. Changes funnel
//!    through the [`holo_factor::FactorGraph`] mutators, so the design
//!    matrix and component index **patch in place** — after the first
//!    batch their `full_builds` counters stay at 1 for the life of the
//!    stream (test-pinned).
//! 4. **Warm-start learning** — when
//!    [`crate::config::StreamConfig::refine_each_batch`] is on, SGD
//!    resumes from the
//!    current weights over a replay window biased to the new evidence
//!    ([`holo_factor::learn::train_replay`]) so interim posteriors stay
//!    fresh at `O(window)` per batch.
//! 5. **Re-inference** — restricted to the query-bearing components via
//!    [`holo_factor::infer_partitioned`], on demand.
//!
//! ## The equivalence contract
//!
//! [`StreamSession::report`] is **batch-equivalent**: feeding a dataset
//! in any number of batches, at any thread count, produces repairs and
//! posteriors *byte-identical* to the one-shot [`crate::HoloClean`] run
//! over the final dataset. Three mechanisms carry the guarantee:
//!
//! * the affected-set recomputation is a sound over-approximation, so a
//!   cell's cached domain/features are reused only when a fresh compile
//!   would reproduce them exactly;
//! * everything order-sensitive is order-canonical: evidence is
//!   re-selected per batch by replaying the compiler's seeded sampling
//!   over the full dataset, SGD visits examples through
//!   [`holo_factor::learn::train_examples`] in the canonical
//!   (attribute-major, cell-sorted) order rather than graph insertion
//!   order, and domain ties break on value *strings* (interning order
//!   differs between the streaming and one-shot loaders);
//! * batch-equivalent reads run a **canonical retrain** — full SGD from
//!   the priors over the canonical example order — because an SGD
//!   endpoint is a function of its whole trajectory, so no warm-started
//!   shortcut can be bitwise-faithful. The model is never recompiled for
//!   it: the retrain reads the patched design matrix.
//!
//! Retired variables (a cell whose domain changed, an evidence cell that
//! fell out of the replay sample) are *pinned* in place — pinning keeps
//! the design matrix and component index valid without a rebuild — and
//! excluded from the canonical example and query lists, so they are
//! invisible to learning, inference, and reports.
//!
//! ## Retraction: updates, deletes, and compaction
//!
//! Growth is not the only mutation: [`StreamSession::push_updates`]
//! rewrites live rows in place and [`StreamSession::push_deletes`]
//! tombstones them (`TupleId`s are stable — deletion never renumbers).
//! Every incrementally-maintained layer folds the retraction *out*:
//! co-occurrence statistics via
//! [`holo_dataset::CooccurStats::retract_with_threads`], the blocking
//! index via [`holo_constraints::DeltaViolationIndex::retract`] (so
//! delta detection stays union-equal to a one-shot scan of the live
//! table), and the factor graph via **clique retirement**
//! ([`holo_factor::FactorGraph::retire_clique`]) and evidence pinning —
//! all in-place patches, so between compaction ticks every
//! `full_builds` counter stays frozen.
//!
//! What patching cannot do is *renumber*: tombstoned rows, pinned
//! variables and retired cliques keep their slots. The amortised cure is
//! [`StreamSession::compact`] — scheduled every
//! [`crate::config::StreamConfig::compact_every`] mutation batches, or
//! run lazily before an exact read that needs it — which rebuilds the
//! graph, the feature registry and all three cached structures from the
//! live table only, carrying the cumulative counters across the swap.
//! Any retraction (and, under a clique-grounding variant, any push at
//! all) marks the session dirty, so the next batch-equivalent read
//! compacts first: exactness comes from the canonical rebuild,
//! incrementality from how rarely it runs. Insert-only streams of the
//! relaxed model never compact — their patch-path pin
//! (`full_builds == 1` for the life of the stream) still holds.
//!
//! Reports are issued in **live coordinates**: repairs and posteriors
//! remap each physical `TupleId` to its rank among live tuples, so the
//! output is byte-identical to a one-shot run over the final live table
//! (the remap is the identity for insert-only streams).
//!
//! ## Scope
//!
//! The streaming engine serves every model variant. The **relaxed §5.2
//! model** ([`crate::ModelVariant::DcFeats`], the default and the
//! paper's own recommendation at scale) streams on the pure patch path.
//! The DC-clique variants stream through retirement plus compaction:
//! between ticks, stale cliques are retired in place (components never
//! re-split, colors never lower) and newly-implied cliques wait for the
//! next compaction, which re-grounds Algorithm 1 over the live table —
//! so interim reports are best-effort while exact reads stay
//! byte-equivalent. Source-reliability features and external
//! dictionaries remain out of scope ([`StreamSession::new`] rejects
//! them).

use crate::compile::{
    build_components, collect_cell_features, ground_dc_factors, select_evidence_cells, CompileStats,
};
use crate::config::HoloConfig;
use crate::context::DatasetContext;
use crate::domain::CellDomains;
use crate::error::HoloError;
use crate::features::{DcFeaturizer, FeatureBuffer, FeatureKey, MatchLookup};
use crate::pipeline::{StageKind, StageTimings};
use crate::repair::RepairReport;
use holo_constraints::{parse_constraints, ConstraintSet, DeltaViolationIndex, Violation};
use holo_dataset::{
    AttrId, CellRef, CooccurStats, Dataset, FxHashMap, FxHashSet, Schema, Sym, TupleId,
};
use holo_factor::{
    infer_partitioned, learn, FactorGraph, FeatureRegistry, LearnStats, Marginals, PartitionStats,
    PartitionedConfig, VarId, Variable, Weights,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cumulative streaming counters, riding in [`StageTimings::ingest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Batches ingested.
    pub batches: u64,
    /// Tuples ingested.
    pub tuples: u64,
    /// Violations found by delta detection (== one-shot total, by the
    /// delta-index contract).
    pub delta_violations: u64,
    /// Old tuples pulled into recompilation by the affected-set analysis.
    pub affected_tuples: u64,
    /// Cells whose domain/features were recomputed.
    pub cells_recomputed: u64,
    /// Cells that reused their cached compile verbatim.
    pub cells_reused: u64,
    /// Variables appended to the live graph (patching the design matrix
    /// and component index in place).
    pub vars_added: u64,
    /// Variables retired (pinned out of the model, or dropped from the
    /// evidence sample).
    pub vars_retired: u64,
    /// Minibatches executed by warm-start replay passes.
    pub replay_minibatches: u64,
    /// Canonical from-priors retrains executed for batch-equivalent reads.
    pub canonical_retrains: u64,
    /// Rows tombstoned by [`StreamSession::push_deletes`].
    pub rows_deleted: u64,
    /// Rows rewritten in place by [`StreamSession::push_updates`].
    pub rows_updated: u64,
}

/// What one [`StreamSession::push_batch`] call did.
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
    /// Old tuples whose cells needed recompilation.
    pub affected_tuples: usize,
    /// Cells recomputed (batch cells + affected-tuple cells).
    pub cells_recomputed: usize,
    /// Cells served from the compile cache.
    pub cells_reused: usize,
    /// Variables appended to the live graph.
    pub vars_added: usize,
    /// Variables retired.
    pub vars_retired: usize,
}

/// Cached compile state of one live cell.
struct CellState {
    /// The live variable, if the cell has ≥ 2 candidates.
    var: Option<VarId>,
    /// Query (noisy) vs evidence role.
    query: bool,
    /// Pruned candidate domain (Algorithm 2 order).
    domain: Vec<Sym>,
    /// Collected features (empty for var-less singleton cells).
    features: FeatureBuffer,
}

/// The incremental repair engine. See the module docs for the dataflow
/// and the equivalence contract.
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
    /// Incrementally-maintained co-occurrence statistics.
    stats: CooccurStats,
    /// `(attr, stored value) → tuples`, for the affected-set analysis.
    postings: FxHashMap<(AttrId, Sym), Vec<TupleId>>,
    /// `(join-key attr, domain candidate) → tuples`: cells on join-key
    /// attributes depend on partner buckets of *every* candidate, not
    /// just the stored value.
    cand_postings: FxHashMap<(AttrId, Sym), FxHashSet<TupleId>>,
    /// Attributes participating in some cross-tuple equality predicate,
    /// as `(t1-side, t2-side)` pairs.
    eq_pairs: Vec<(AttrId, AttrId)>,
    /// Some two-tuple constraint has no equality join key: its relaxed
    /// features couple every tuple to every tuple, so every batch
    /// invalidates everything.
    global_coupling: bool,
    /// Violations alive over the live table — retraction `retain`s them
    /// out, so the set stays union-equal to a one-shot scan.
    live_violations: Vec<Violation>,
    noisy: FxHashSet<CellRef>,
    /// An exact read can only be served after a compaction: set by any
    /// retraction (stale registry keys would skew the weight vector) and
    /// by every push under a clique-grounding variant.
    needs_compact: bool,
    /// Mutation batches since the last compaction, driving the
    /// [`crate::config::StreamConfig::compact_every`] schedule.
    batches_since_compact: usize,
    graph: FactorGraph,
    registry: FeatureRegistry<FeatureKey>,
    cell_states: FxHashMap<CellRef, CellState>,
    /// Live query cells/vars, sorted by cell — the report order.
    query_cells: Vec<CellRef>,
    query_vars: Vec<VarId>,
    /// Live evidence vars in canonical (attribute-major, cell-sorted
    /// selection) order — the SGD example order.
    examples: Vec<VarId>,
    /// Evidence vars split as (reused, fresh-this-batch) for replay.
    replay_order: Vec<VarId>,
    fresh_examples: usize,
    weights: Weights,
    /// Whether `weights` came from a canonical retrain of the current
    /// model (vs a warm replay or a stale batch).
    weights_exact: bool,
    marginals: Option<Marginals>,
    compile_stats: CompileStats,
    learn_stats: Option<LearnStats>,
    partition_stats: Option<PartitionStats>,
    timings: StageTimings,
}

impl StreamSession {
    /// Opens a session over `schema` with constraints parsed from
    /// `text` (DC lines and/or `FD:` sugar). The dataset starts empty;
    /// feed rows with [`StreamSession::push_batch`].
    pub fn new(schema: Schema, text: &str, config: HoloConfig) -> Result<Self, HoloError> {
        let mut ds = Dataset::new(schema);
        let parsed = parse_constraints(text, &mut ds)?;
        let mut constraints = ConstraintSet::new();
        for (_, c) in parsed.iter() {
            constraints.push(c.clone());
        }
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
        let mut eq_pairs: Vec<(AttrId, AttrId)> = Vec::new();
        let mut global_coupling = false;
        for (_, c) in constraints.iter() {
            if !c.two_tuple {
                continue;
            }
            let mut found = false;
            for p in &c.predicates {
                if !p.is_cross_tuple_eq() {
                    continue;
                }
                found = true;
                let rhs_attr = match p.rhs {
                    holo_constraints::Operand::Cell(_, a) => a,
                    holo_constraints::Operand::Const(_) => continue,
                };
                let pair = match p.lhs_tuple {
                    holo_constraints::TupleVar::T1 => (p.lhs_attr, rhs_attr),
                    holo_constraints::TupleVar::T2 => (rhs_attr, p.lhs_attr),
                };
                if !eq_pairs.contains(&pair) {
                    eq_pairs.push(pair);
                }
            }
            global_coupling |= !found;
        }
        let delta_index = DeltaViolationIndex::new(&constraints);
        let stats = CooccurStats::build_with_opts(&ds, 1, config.naive_stats);
        Ok(StreamSession {
            ds,
            constraints,
            config,
            delta_index,
            stats,
            postings: FxHashMap::default(),
            cand_postings: FxHashMap::default(),
            eq_pairs,
            global_coupling,
            live_violations: Vec::new(),
            noisy: FxHashSet::default(),
            needs_compact: false,
            batches_since_compact: 0,
            graph: FactorGraph::new(),
            registry: FeatureRegistry::new(),
            cell_states: FxHashMap::default(),
            query_cells: Vec::new(),
            query_vars: Vec::new(),
            examples: Vec::new(),
            replay_order: Vec::new(),
            fresh_examples: 0,
            weights: Weights::zeros(0),
            weights_exact: false,
            marginals: None,
            compile_stats: CompileStats::default(),
            learn_stats: None,
            partition_stats: None,
            timings: StageTimings::default(),
        })
    }

    /// Ingests one batch of raw rows: append → delta detect → delta
    /// compile → (optional) warm-start replay. Returns what the batch
    /// cost; batch-equivalent repairs are read with
    /// [`StreamSession::report`].
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
        let mut report = BatchReport {
            appended: rows.len(),
            ..BatchReport::default()
        };

        // ---- Append + incremental statistics + delta detection ----
        let t_detect = Instant::now();
        let from = self.ds.append_rows(rows);
        self.stats.extend_with_threads(&self.ds, from, threads);
        let new_violations = self
            .delta_index
            .ingest(&self.ds, &self.constraints, from, threads);
        for v in &new_violations {
            self.noisy.extend(v.cells.iter().copied());
        }
        report.new_violations = new_violations.len();
        self.timings.record(StageKind::Detect, t_detect.elapsed());

        // ---- Delta compile ----
        let t_compile = Instant::now();
        if self.config.stream.force_full_rebuild {
            self.graph.invalidate_design();
            self.graph.invalidate_components();
        }
        let affected = self.affected_tuples(from, &new_violations);
        report.affected_tuples = affected.len();
        // New tuples join the postings only now, so the affected-set scan
        // above saw exactly the pre-batch state.
        for t in from.index()..self.ds.tuple_count() {
            let t = TupleId(t as u32);
            for attr in self.ds.schema().attrs() {
                let v = self.ds.cell(t, attr);
                if !v.is_null() {
                    self.postings.entry((attr, v)).or_default().push(t);
                }
            }
        }
        self.live_violations.extend(new_violations);
        self.recompile(&affected, from, &mut report, false)?;
        self.timings.record(StageKind::Compile, t_compile.elapsed());

        self.invalidate_and_replay();

        let ingest = &mut self.timings.ingest;
        ingest.batches += 1;
        ingest.tuples += rows.len() as u64;
        ingest.delta_violations += report.new_violations as u64;
        self.accumulate(&report);
        self.finish_mutation()?;
        Ok(report)
    }

    /// Tombstones live rows. Statistics, the blocking index, the live
    /// violation store and the value postings all fold the rows *out*;
    /// query variables of the dead cells are pinned in place and their
    /// clique factors retired; cells the rows conditioned are recompiled.
    /// `TupleId`s are stable — nothing is renumbered until
    /// [`StreamSession::compact`] — and the session is marked dirty, so
    /// the next exact read compacts first.
    pub fn push_deletes(&mut self, rows: &[TupleId]) -> Result<BatchReport, HoloError> {
        self.validate_live(rows)?;
        let threads = self.config.threads;
        let mut report = BatchReport {
            deleted: rows.len(),
            ..BatchReport::default()
        };

        // ---- Retract statistics, index postings, and violations ----
        let t_detect = Instant::now();
        self.stats.retract_with_threads(&self.ds, rows, threads);
        self.delta_index.retract(&self.ds, rows);
        let old_values = self.row_values(rows);
        self.remove_postings(rows);
        let dead: FxHashSet<TupleId> = rows.iter().copied().collect();
        let dropped_cells = self.retain_violations(&dead);
        self.rebuild_noisy();
        self.ds.delete_rows(rows);
        self.timings.record(StageKind::Detect, t_detect.elapsed());

        // ---- Patch the model: retire, pin, recompile the blast radius ----
        let t_compile = Instant::now();
        if self.config.stream.force_full_rebuild {
            self.graph.invalidate_design();
            self.graph.invalidate_components();
        }
        self.retire_cliques_touching(rows);
        // Pin the dead cells' query variables to their observed value:
        // the design matrix stays valid in place, inference skips them,
        // and compaction renumbers them away.
        for &t in rows {
            for attr in self.ds.schema().attrs() {
                let cell = CellRef { tuple: t, attr };
                if let Some(st) = self.cell_states.get(&cell) {
                    if let (Some(v), true) = (st.var, st.query) {
                        let var = self.graph.var(v);
                        let value = var.domain[var.init.unwrap_or(0)];
                        self.graph.pin_evidence(v, value);
                    }
                }
            }
        }
        let mut affected = self.affected_for_mutation(&old_values, &dropped_cells, &dead);
        for t in &dead {
            affected.remove(t);
        }
        report.affected_tuples = affected.len();
        let from = TupleId(self.ds.tuple_count() as u32);
        self.recompile(&affected, from, &mut report, false)?;
        self.timings.record(StageKind::Compile, t_compile.elapsed());

        self.invalidate_and_replay();
        self.needs_compact = true;

        let ingest = &mut self.timings.ingest;
        ingest.batches += 1;
        ingest.rows_deleted += rows.len() as u64;
        self.accumulate(&report);
        self.finish_mutation()?;
        Ok(report)
    }

    /// Rewrites live rows in place (same `TupleId`, new values):
    /// retraction of the old values and absorption of the new ones flow
    /// through the same incremental layers as
    /// [`StreamSession::push_deletes`] / [`StreamSession::push_batch`],
    /// and the blocking index is re-probed with the rewritten rows in
    /// both join directions so the live violation set stays union-equal
    /// to a one-shot scan. Marks the session dirty for the next exact
    /// read.
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
        let mut report = BatchReport {
            updated: rows.len(),
            ..BatchReport::default()
        };

        // ---- Retract the old values, absorb the new, re-probe ----
        let t_detect = Instant::now();
        self.stats.retract_with_threads(&self.ds, &rows, threads);
        self.delta_index.retract(&self.ds, &rows);
        let mut values = self.row_values(&rows);
        self.remove_postings(&rows);
        let touched: FxHashSet<TupleId> = rows.iter().copied().collect();
        let dropped_cells = self.retain_violations(&touched);
        self.ds.update_rows(updates);
        self.stats
            .absorb_rows_with_threads(&self.ds, &rows, threads);
        self.delta_index.absorb_rows(&self.ds, &rows);
        let new_violations =
            self.delta_index
                .probe_rows(&self.ds, &self.constraints, &rows, threads);
        report.new_violations = new_violations.len();
        values.extend(self.row_values(&rows));
        self.add_postings(&rows);
        self.timings.record(StageKind::Detect, t_detect.elapsed());

        // ---- Patch the model ----
        let t_compile = Instant::now();
        if self.config.stream.force_full_rebuild {
            self.graph.invalidate_design();
            self.graph.invalidate_components();
        }
        self.retire_cliques_touching(&rows);
        let mut affected =
            self.affected_for_mutation(&values, &dropped_cells, &FxHashSet::default());
        for v in &new_violations {
            for cell in &v.cells {
                affected.insert(cell.tuple);
            }
        }
        affected.extend(rows.iter().copied());
        self.live_violations.extend(new_violations);
        self.rebuild_noisy();
        report.affected_tuples = affected.len();
        let from = TupleId(self.ds.tuple_count() as u32);
        self.recompile(&affected, from, &mut report, false)?;
        self.timings.record(StageKind::Compile, t_compile.elapsed());

        self.invalidate_and_replay();
        self.needs_compact = true;

        let ingest = &mut self.timings.ingest;
        ingest.batches += 1;
        ingest.rows_updated += rows.len() as u64;
        ingest.delta_violations += report.new_violations as u64;
        self.accumulate(&report);
        self.finish_mutation()?;
        Ok(report)
    }

    /// The one amortised full rebuild: swaps in a fresh graph and
    /// registry (carrying the cumulative counters across the swap) and
    /// recompiles every live cell in the one-shot compiler's canonical
    /// order, so tombstoned rows, pinned variables and retired cliques
    /// are renumbered away and — under a clique-grounding variant —
    /// Algorithm 1 is re-grounded over the live table. Runs on the
    /// [`crate::config::StreamConfig::compact_every`] schedule and lazily
    /// before exact reads that need it; calling it by hand is harmless.
    pub fn compact(&mut self) -> Result<(), HoloError> {
        let t_compile = Instant::now();
        let old_graph = std::mem::replace(&mut self.graph, FactorGraph::new());
        self.graph.carry_counters_from(&old_graph);
        drop(old_graph);
        self.registry = FeatureRegistry::new();
        self.cell_states.clear();
        self.cand_postings.clear();
        let mut report = BatchReport::default();
        self.recompile(&FxHashSet::default(), TupleId(0), &mut report, true)?;
        self.graph.note_compaction(report.vars_added as u64);
        // Warm weights are keyed by the retired registry; start the new
        // model from its priors (the next exact read retrains anyway).
        self.weights = self.registry.build_weights();
        self.weights_exact = false;
        self.marginals = None;
        self.partition_stats = None;
        self.needs_compact = false;
        self.batches_since_compact = 0;
        self.timings.record(StageKind::Compile, t_compile.elapsed());
        Ok(())
    }

    /// Post-mutation bookkeeping shared by the three push paths: variants
    /// that ground DC cliques can only be served exactly from a canonical
    /// rebuild (Algorithm 1 re-grounding), and the scheduled compaction
    /// ticks over every kind of mutation batch.
    fn finish_mutation(&mut self) -> Result<(), HoloError> {
        if self.config.variant.uses_dc_factors() {
            self.needs_compact = true;
        }
        self.batches_since_compact += 1;
        let every = self.config.stream.compact_every;
        if every > 0 && self.batches_since_compact >= every {
            self.compact()?;
        }
        Ok(())
    }

    /// Folds one batch's costs into the cumulative ingest counters.
    fn accumulate(&mut self, report: &BatchReport) {
        let ingest = &mut self.timings.ingest;
        ingest.affected_tuples += report.affected_tuples as u64;
        ingest.cells_recomputed += report.cells_recomputed as u64;
        ingest.cells_reused += report.cells_reused as u64;
        ingest.vars_added += report.vars_added as u64;
        ingest.vars_retired += report.vars_retired as u64;
    }

    /// Invalidates exact-read state after a mutation and, when
    /// [`crate::config::StreamConfig::refine_each_batch`] is on, runs the
    /// warm-start replay pass that keeps interim posteriors fresh.
    fn invalidate_and_replay(&mut self) {
        self.marginals = None;
        self.partition_stats = None;
        self.weights_exact = false;
        if self.config.stream.refine_each_batch {
            let t_learn = Instant::now();
            let mut w = self.registry.build_weights();
            w.adopt_learned(&self.weights);
            let recent = self
                .fresh_examples
                .min(self.config.stream.replay_window.max(1));
            // Like every learn site, replay rebuilds the packed arena
            // per call, so batch-patched design matrices never serve a
            // stale pack.
            let stats = learn::train_replay(
                &self.graph,
                &mut w,
                &self.config.learn,
                self.config.threads,
                &self.replay_order,
                recent,
                self.config.stream.replay_epochs,
            );
            self.timings.ingest.replay_minibatches += stats.minibatches as u64;
            self.weights = w;
            self.timings.record(StageKind::Learn, t_learn.elapsed());
        }
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

    /// The `(attr, value)` pairs currently stored in `rows`.
    fn row_values(&self, rows: &[TupleId]) -> Vec<(AttrId, Sym)> {
        let mut vals = Vec::with_capacity(rows.len() * self.ds.schema().len());
        for &t in rows {
            for attr in self.ds.schema().attrs() {
                vals.push((attr, self.ds.cell(t, attr)));
            }
        }
        vals
    }

    /// Removes `rows` from the value postings of their current values.
    fn remove_postings(&mut self, rows: &[TupleId]) {
        for &t in rows {
            for attr in self.ds.schema().attrs() {
                let v = self.ds.cell(t, attr);
                if v.is_null() {
                    continue;
                }
                if let Some(bucket) = self.postings.get_mut(&(attr, v)) {
                    if let Some(pos) = bucket.iter().position(|&x| x == t) {
                        bucket.swap_remove(pos);
                    }
                    if bucket.is_empty() {
                        self.postings.remove(&(attr, v));
                    }
                }
            }
        }
    }

    /// Adds `rows` to the value postings of their current values.
    fn add_postings(&mut self, rows: &[TupleId]) {
        for &t in rows {
            for attr in self.ds.schema().attrs() {
                let v = self.ds.cell(t, attr);
                if !v.is_null() {
                    self.postings.entry((attr, v)).or_default().push(t);
                }
            }
        }
    }

    /// Drops violations with an endpoint in `rows`, returning the cells
    /// of the dropped violations (their roles may flip back to clean).
    fn retain_violations(&mut self, rows: &FxHashSet<TupleId>) -> Vec<CellRef> {
        let mut dropped: Vec<CellRef> = Vec::new();
        self.live_violations.retain(|v| {
            let keep = !rows.contains(&v.t1) && !rows.contains(&v.t2);
            if !keep {
                dropped.extend(v.cells.iter().copied());
            }
            keep
        });
        dropped
    }

    /// Recomputes the noisy-cell set from the live violation store.
    fn rebuild_noisy(&mut self) {
        self.noisy.clear();
        for v in &self.live_violations {
            self.noisy.extend(v.cells.iter().copied());
        }
    }

    /// Retires every clique factor adjacent to a variable of `rows` —
    /// the in-place disable whose zeroed score keeps the design matrix,
    /// component index and coloring valid until compaction renumbers.
    fn retire_cliques_touching(&mut self, rows: &[TupleId]) {
        if !self.graph.has_cliques() {
            return;
        }
        let mut to_retire: Vec<u32> = Vec::new();
        for &t in rows {
            for attr in self.ds.schema().attrs() {
                let cell = CellRef { tuple: t, attr };
                if let Some(st) = self.cell_states.get(&cell) {
                    if let Some(v) = st.var {
                        to_retire.extend(self.graph.cliques_of(v).iter().copied());
                    }
                }
            }
        }
        to_retire.sort_unstable();
        to_retire.dedup();
        for idx in to_retire {
            self.graph.retire_clique(idx);
        }
    }

    /// Live tuples a fresh compile could score differently after a
    /// retraction whose rows held `values` (old values, plus — for
    /// updates — the new ones): the same posting/candidate-bucket hits as
    /// the insert path's [`StreamSession::affected_tuples`], plus the
    /// partner cells of violations the mutation removed.
    fn affected_for_mutation(
        &self,
        values: &[(AttrId, Sym)],
        dropped_cells: &[CellRef],
        exclude: &FxHashSet<TupleId>,
    ) -> FxHashSet<TupleId> {
        let mut affected: FxHashSet<TupleId> = FxHashSet::default();
        if self.config.stream.force_full_rebuild || self.global_coupling {
            affected.extend(self.ds.tuples().filter(|t| !exclude.contains(t)));
            return affected;
        }
        for cell in dropped_cells {
            affected.insert(cell.tuple);
        }
        let hit = |key: (AttrId, Sym), affected: &mut FxHashSet<TupleId>| {
            if let Some(ts) = self.postings.get(&key) {
                affected.extend(ts.iter().copied());
            }
            if let Some(ts) = self.cand_postings.get(&key) {
                affected.extend(ts.iter().copied());
            }
        };
        for &(attr, v) in values {
            if v.is_null() {
                continue;
            }
            hit((attr, v), &mut affected);
            for &(a1, a2) in &self.eq_pairs {
                if a2 == attr {
                    hit((a1, v), &mut affected);
                }
                if a1 == attr {
                    hit((a2, v), &mut affected);
                }
            }
        }
        affected
    }

    /// Old tuples whose cells a fresh compile could score differently
    /// after this batch — a sound over-approximation (see module docs).
    fn affected_tuples(&self, from: TupleId, new_violations: &[Violation]) -> FxHashSet<TupleId> {
        let mut affected: FxHashSet<TupleId> = FxHashSet::default();
        if self.config.stream.force_full_rebuild || self.global_coupling {
            affected.extend((0..from.index()).map(|t| TupleId(t as u32)));
            return affected;
        }
        // Violations re-flag cells of old partner tuples (role changes).
        for v in new_violations {
            for cell in &v.cells {
                if cell.tuple < from {
                    affected.insert(cell.tuple);
                }
            }
        }
        let hit = |key: (AttrId, Sym), affected: &mut FxHashSet<TupleId>| {
            if let Some(ts) = self.postings.get(&key) {
                affected.extend(ts.iter().copied());
            }
            if let Some(ts) = self.cand_postings.get(&key) {
                affected.extend(ts.iter().copied());
            }
        };
        for t in from.index()..self.ds.tuple_count() {
            let t = TupleId(t as u32);
            for attr in self.ds.schema().attrs() {
                let v = self.ds.cell(t, attr);
                if v.is_null() {
                    continue;
                }
                // Same-column sharing moves frequency and co-occurrence
                // counts of every tuple holding `v` at `attr`.
                hit((attr, v), &mut affected);
                // Join-key sharing moves relaxed-DC partner counts: the
                // new tuple enters the partner bucket of any tuple whose
                // opposite-side key (stored or candidate) matches.
                for &(a1, a2) in &self.eq_pairs {
                    if a2 == attr {
                        hit((a1, v), &mut affected);
                    }
                    if a1 == attr {
                        hit((a2, v), &mut affected);
                    }
                }
            }
        }
        affected
    }

    /// Rebuilds the canonical model spec for the current dataset —
    /// recomputing only cells in or conflicting with the batch — and
    /// patches the live graph to match it.
    fn recompile(
        &mut self,
        affected: &FxHashSet<TupleId>,
        from: TupleId,
        report: &mut BatchReport,
        ground_cliques: bool,
    ) -> Result<(), HoloError> {
        let threads = self.config.threads;
        let config = &self.config;
        let ds = &self.ds;
        let stats = &self.stats;
        let dc_featurizer = config
            .variant
            .uses_dc_features()
            .then(|| DcFeaturizer::new(ds, &self.constraints, config));

        // ---- Canonical membership ----
        let mut noisy_cells: Vec<CellRef> = self.noisy.iter().copied().collect();
        noisy_cells.sort_unstable();
        // Evidence selection runs the one-shot compiler's *own* seeded
        // sampling (shared helper) over the full dataset — membership is
        // a function of (dataset, noisy set, seed), not of arrival order.
        let selected = select_evidence_cells(ds, &self.noisy, config);

        // ---- Recompute the cells a fresh compile could change ----
        let needs_recompute =
            |cell: &CellRef, query: bool, states: &FxHashMap<CellRef, CellState>| {
                cell.tuple >= from
                    || affected.contains(&cell.tuple)
                    || match states.get(cell) {
                        Some(st) => st.query != query,
                        None => true,
                    }
            };
        let evidence_tau = config.tau.min(config.evidence_tau_cap);
        let mut work: Vec<(CellRef, bool)> = Vec::new();
        for &cell in &noisy_cells {
            if needs_recompute(&cell, true, &self.cell_states) {
                work.push((cell, true));
            }
        }
        for &cell in &selected {
            if needs_recompute(&cell, false, &self.cell_states) {
                work.push((cell, false));
            }
        }
        // No dictionaries and no source features in streaming sessions:
        // the shared featurizer sees an empty lookup (grounds nothing),
        // exactly what the one-shot compiler produces without them.
        let no_matches = MatchLookup::default();
        // Correlation gate, recomputed lazily at this batch boundary (the
        // mutation that scheduled this recompile reset the cached view).
        let gate = config
            .cor_strength
            .map(|min_corr| crate::domain::PruneGate {
                corr: stats.correlations(),
                min_corr,
            });
        let computed: Vec<(Vec<Sym>, FeatureBuffer)> =
            holo_parallel::parallel_map(threads, &work, |_, &(cell, query)| {
                let tau = if query { config.tau } else { evidence_tau };
                let domain = crate::domain::prune_cell_gated(
                    ds,
                    cell,
                    stats,
                    tau,
                    config.max_domain,
                    config.min_cond_support,
                    gate,
                );
                let mut buf = FeatureBuffer::default();
                if domain.len() >= 2 {
                    collect_cell_features(
                        &mut buf,
                        ds,
                        stats,
                        &no_matches,
                        config,
                        dc_featurizer.as_ref(),
                        None,
                        cell,
                        &domain,
                    );
                }
                (domain, buf)
            });
        report.cells_recomputed = work.len();
        let mut fresh: FxHashMap<CellRef, (Vec<Sym>, FeatureBuffer)> =
            work.iter().map(|&(cell, _)| cell).zip(computed).collect();

        // ---- Diff against the live graph, in canonical order ----
        let mut cstats = CompileStats::default();
        self.query_cells.clear();
        self.query_vars.clear();
        self.examples.clear();
        let mut reused_examples: Vec<VarId> = Vec::new();
        let mut fresh_examples: Vec<VarId> = Vec::new();
        let mut live: FxHashSet<CellRef> = FxHashSet::with_capacity_and_hasher(
            noisy_cells.len() + selected.len(),
            Default::default(),
        );

        for &cell in &noisy_cells {
            live.insert(cell);
            let (var, _) = self.sync_cell(cell, true, fresh.remove(&cell), report)?;
            match var {
                Some(v) => {
                    self.query_cells.push(cell);
                    self.query_vars.push(v);
                    cstats.total_candidates += self.graph.var(v).arity();
                }
                None => cstats.singleton_noisy_cells += 1,
            }
        }
        for &cell in &selected {
            live.insert(cell);
            let (var, was_fresh) = self.sync_cell(cell, false, fresh.remove(&cell), report)?;
            if let Some(v) = var {
                self.examples.push(v);
                if was_fresh {
                    fresh_examples.push(v);
                } else {
                    reused_examples.push(v);
                }
            }
        }
        report.cells_reused = live.len() - report.cells_recomputed;

        // Drop states of cells that left the membership (evidence cells
        // the reshuffled sample no longer selects). Their variables stay
        // in the graph as inert evidence — removal would force a matrix
        // rebuild — but nothing reads them again unless the sample
        // re-selects the cell, which recompiles it afresh.
        self.cell_states.retain(|cell, st| {
            let keep = live.contains(cell);
            if !keep && st.var.is_some() {
                report.vars_retired += 1;
            }
            keep
        });

        // Replay order: surviving examples first, this batch's new
        // evidence last — `train_replay` biases its window to the tail.
        self.fresh_examples = fresh_examples.len();
        self.replay_order = reused_examples;
        self.replay_order.append(&mut fresh_examples);

        cstats.query_vars = self.query_vars.len();
        cstats.evidence_vars = self.examples.len();
        cstats.factors = self
            .cell_states
            .values()
            .filter(|st| st.var.is_some())
            .map(|st| st.features.len())
            .sum();

        // A compaction pass grounds DC clique factors over the rebuilt
        // variables through the one-shot compiler's own Algorithm 1 entry
        // point, fed the same domains in the same order — the compacted
        // graph *is* the one-shot graph.
        if ground_cliques && self.config.variant.uses_dc_factors() {
            let mut domains = CellDomains::default();
            let mut cell_vars: FxHashMap<CellRef, VarId> = FxHashMap::default();
            for &cell in &noisy_cells {
                let st = &self.cell_states[&cell];
                domains.insert(cell, st.domain.clone());
                if let (Some(v), true) = (st.var, st.query) {
                    cell_vars.insert(cell, v);
                }
            }
            let components = self.config.variant.uses_partitioning().then(|| {
                build_components(
                    &self.constraints,
                    &self.live_violations,
                    self.ds.tuple_count(),
                )
            });
            ground_dc_factors(
                &mut self.graph,
                &mut self.registry,
                &self.ds,
                &self.constraints,
                &domains,
                &cell_vars,
                &self.config,
                components.as_deref(),
                &mut cstats,
            );
            cstats.factors = self.graph.factor_count();
        }
        self.compile_stats = cstats;

        // The first batch's forced builds — later batches find the caches
        // present and these calls are free reads.
        let _ = self.graph.design();
        let _ = self.graph.components();
        Ok(())
    }

    /// Brings one cell's live variable in line with its canonical compile
    /// state, reusing the cache when nothing changed. Returns the live
    /// variable (if the cell carries one) and whether it was (re)created.
    fn sync_cell(
        &mut self,
        cell: CellRef,
        query: bool,
        fresh: Option<(Vec<Sym>, FeatureBuffer)>,
        report: &mut BatchReport,
    ) -> Result<(Option<VarId>, bool), HoloError> {
        if let Some((domain, features)) = fresh {
            if let Some(st) = self.cell_states.get(&cell) {
                if st.query == query && st.domain == domain && st.features == features {
                    // Conservatively recomputed, but nothing changed.
                    return Ok((st.var, false));
                }
                // The cell's model changed: retire the old variable. A
                // query variable is pinned to its observed value so
                // inference skips it; an evidence variable is simply no
                // longer listed as an example.
                if let Some(v) = st.var {
                    if st.query {
                        let var = self.graph.var(v);
                        let k = var.init.unwrap_or(0);
                        let value = var.domain[k];
                        self.graph.pin_evidence(v, value);
                    }
                    report.vars_retired += 1;
                }
            }
            let var = if domain.len() >= 2 {
                let init_pos = domain.iter().position(|&d| d == self.ds.cell_ref(cell));
                let variable = if query {
                    Variable::query(domain.clone(), init_pos)
                } else {
                    let observed = init_pos.ok_or_else(|| HoloError::PrunedInitialValue {
                        cell,
                        attr: self.ds.schema().attr_name(cell.attr).to_string(),
                    })?;
                    Variable::evidence(domain.clone(), observed)
                };
                let rows = features.to_rows(&mut self.registry, domain.len());
                let v = self.graph.add_variable_with_features(variable, rows);
                report.vars_added += 1;
                // Candidate postings: cells on join-key attributes depend
                // on partner buckets of every candidate value.
                for &(a1, a2) in &self.eq_pairs {
                    if cell.attr == a1 || cell.attr == a2 {
                        for &d in &domain {
                            if !d.is_null() {
                                self.cand_postings
                                    .entry((cell.attr, d))
                                    .or_default()
                                    .insert(cell.tuple);
                            }
                        }
                    }
                }
                Some(v)
            } else {
                None
            };
            self.cell_states.insert(
                cell,
                CellState {
                    var,
                    query,
                    domain,
                    features,
                },
            );
            Ok((var, true))
        } else {
            // Untouched by the batch: serve the cache.
            let st = self
                .cell_states
                .get(&cell)
                .expect("cells outside the recompute set keep a cached state");
            debug_assert_eq!(st.query, query);
            Ok((st.var, false))
        }
    }

    /// Canonical retrain + re-inference, if anything is stale. This is
    /// the batch-equivalence workhorse: full SGD from the priors over the
    /// canonical example order (reading the *patched* design matrix — the
    /// model is never recompiled), then partitioned inference over the
    /// dirty components.
    fn ensure_exact(&mut self) {
        if self.needs_compact {
            // A retraction or clique-grounding push happened since the
            // last compaction: only the canonical rebuild restores the
            // exact-read contract. Cannot fail — it recompiles live
            // cells, whose observed values the pruner keeps.
            self.compact()
                .expect("compaction recompiles live cells only");
        }
        let threads = self.config.threads;
        if !self.weights_exact {
            let t_learn = Instant::now();
            let mut w = self.registry.build_weights();
            let stats = learn::train_examples(
                &self.graph,
                &mut w,
                &self.config.learn,
                threads,
                &self.examples,
            );
            self.learn_stats = (!self.examples.is_empty()).then_some(stats);
            self.weights = w;
            self.weights_exact = true;
            self.timings.ingest.canonical_retrains += 1;
            self.timings.record(StageKind::Learn, t_learn.elapsed());
            self.marginals = None;
        }
        if self.marginals.is_none() {
            let t_infer = Instant::now();
            let ctx = DatasetContext::new(&self.ds);
            let (marginals, partition) = infer_partitioned(
                &self.graph,
                &self.weights,
                &ctx,
                &PartitionedConfig {
                    gibbs: self.config.gibbs,
                    exact_limit: self.config.exact_component_limit,
                    chromatic: self.config.chromatic_gibbs,
                    score_cache: self.config.score_cache,
                },
                threads,
            );
            self.partition_stats = Some(partition);
            self.timings.partition = partition;
            self.marginals = Some(marginals);
            self.timings.record(StageKind::Infer, t_infer.elapsed());
        }
    }

    /// Batch-equivalent repairs and posteriors: byte-identical to a
    /// one-shot [`crate::HoloClean`] run over everything pushed so far,
    /// at any batch split and any thread count.
    pub fn report(&mut self) -> RepairReport {
        self.ensure_exact();
        let mut report = RepairReport::from_marginals(
            &self.ds,
            &self.query_cells,
            &self.query_vars,
            &self.graph,
            self.marginals.as_ref().expect("ensure_exact filled it"),
        );
        self.remap_to_live(&mut report);
        report
    }

    /// Rewrites report coordinates from physical (stable) ids to the
    /// dense ids a one-shot run over the live table would use: tuple ids
    /// become live ranks (monotone; the identity while nothing was ever
    /// deleted), and symbols are renumbered to row-major first-appearance
    /// order over the live table — the order a fresh interner assigns.
    /// The session pool drifts from that order whenever an update interns
    /// a transient value or a constraint constant interned before data,
    /// so the report always speaks one-shot coordinates, not the
    /// session's physical ones.
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

    /// Interim repairs under the current (warm-started) weights — cheap,
    /// fresh after every batch when
    /// [`crate::config::StreamConfig::refine_each_batch`] is on, but
    /// *not* the batch-equivalent read.
    pub fn interim_report(&self) -> RepairReport {
        let ctx = DatasetContext::new(&self.ds);
        let mut weights = self.registry.build_weights();
        weights.adopt_learned(&self.weights);
        let (marginals, _) = infer_partitioned(
            &self.graph,
            &weights,
            &ctx,
            &PartitionedConfig {
                gibbs: self.config.gibbs,
                exact_limit: self.config.exact_component_limit,
                chromatic: self.config.chromatic_gibbs,
                score_cache: self.config.score_cache,
            },
            self.config.threads,
        );
        let mut report = RepairReport::from_marginals(
            &self.ds,
            &self.query_cells,
            &self.query_vars,
            &self.graph,
            &marginals,
        );
        self.remap_to_live(&mut report);
        report
    }

    /// The dataset as ingested so far.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Current weights (canonical after [`StreamSession::report`],
    /// warm-started between batches).
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The feature registry (introspection: mapping learned weights back
    /// to their structured keys, e.g. per-constraint DC weights).
    pub fn registry(&self) -> &FeatureRegistry<FeatureKey> {
        &self.registry
    }

    /// Violations alive over the live table (== the one-shot count).
    pub fn violations(&self) -> usize {
        self.live_violations.len()
    }

    /// Cumulative retirement/compaction counters (cliques retired in
    /// place, variables renumbered away, compaction ticks) plus the
    /// live-vs-tombstoned row split of the backing table.
    pub fn retire_stats(&self) -> holo_factor::RetireStats {
        let mut r = self.graph.retire_stats();
        r.live_rows = self.ds.live_count() as u64;
        r.dead_rows = self.ds.dead_count() as u64;
        r
    }

    /// Noisy cells detected so far.
    pub fn noisy_cells(&self) -> usize {
        self.noisy.len()
    }

    /// Shape of the live model (live variables only; retired ones are
    /// excluded).
    pub fn compile_stats(&self) -> &CompileStats {
        &self.compile_stats
    }

    /// Learning diagnostics of the last canonical retrain.
    pub fn learn_stats(&self) -> Option<&LearnStats> {
        self.learn_stats.as_ref()
    }

    /// Routing split of the last inference pass.
    pub fn partition_stats(&self) -> Option<PartitionStats> {
        self.partition_stats
    }

    /// Cumulative stage timings and ingest counters. Design-matrix and
    /// component-index counters are snapshotted from the live graph.
    pub fn timings(&self) -> StageTimings {
        let mut t = self.timings;
        t.design = self.graph.design_stats();
        t.components = self.graph.component_stats();
        t.retire = self.retire_stats();
        t.stats = self.stats.stats_stats();
        t
    }

    /// Cumulative ingest counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.timings.ingest
    }

    /// Whether the live graph's patched design matrix and component index
    /// are bit-for-bit equal to fresh compiles of the current adjacency —
    /// the patch-path invariant, exposed for tests and diagnostics
    /// (`O(model)`; don't call it per batch in production).
    pub fn verify_patch_equivalence(&self) -> bool {
        self.graph.design() == &self.graph.compile_design()
            && self.graph.components() == &self.graph.compile_components()
    }

    /// Design-matrix build/patch counters of the live graph — pinned at
    /// one full build for the life of a (non-`force_full_rebuild`)
    /// stream.
    pub fn design_stats(&self) -> holo_factor::DesignStats {
        self.graph.design_stats()
    }

    /// Component-index build/patch counters of the live graph.
    pub fn component_stats(&self) -> holo_factor::ComponentStats {
        self.graph.component_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use crate::HoloClean;

    fn zip_city_rows() -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for _ in 0..8 {
            rows.push(vec!["60608".into(), "Chicago".into(), "IL".into()]);
        }
        rows.push(vec!["60608".into(), "Cicago".into(), "IL".into()]);
        for _ in 0..5 {
            rows.push(vec!["60609".into(), "Evanston".into(), "IL".into()]);
        }
        rows
    }

    fn one_shot(rows: &[Vec<String>], threads: usize) -> RepairReport {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
        for row in rows {
            ds.push_row(row);
        }
        HoloClean::new(ds)
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .with_config(HoloConfig::default().with_threads(threads))
            .run()
            .unwrap()
            .report
    }

    fn streamed(rows: &[Vec<String>], batches: usize, threads: usize) -> StreamSession {
        let mut session = StreamSession::new(
            Schema::new(vec!["Zip", "City", "State"]),
            "FD: Zip -> City",
            HoloConfig::default().with_threads(threads),
        )
        .unwrap();
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
    fn incrementality_is_pinned_after_the_first_batch() {
        let rows = zip_city_rows();
        let mut session = streamed(&rows, 4, 1);
        let _ = session.report();
        assert_eq!(session.design_stats().full_builds, 1);
        assert_eq!(session.component_stats().full_builds, 1);
        let stats = session.ingest_stats();
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.tuples as usize, rows.len());
        assert!(stats.vars_added > 0);
        assert_eq!(stats.canonical_retrains, 1);
        // More data arrives after a report: still no rebuild.
        session
            .push_batch(&[vec!["60609".to_string(), "Evanstn".into(), "IL".into()]])
            .unwrap();
        let _ = session.report();
        assert_eq!(session.design_stats().full_builds, 1);
        assert_eq!(session.component_stats().full_builds, 1);
    }

    #[test]
    fn late_evidence_can_flip_an_earlier_repair() {
        // First batches: "Cicago" is the 60608 majority, so the lone
        // "Chicago" looks wrong. Later batches flip the majority — the
        // affected-set recompute must revisit the old cells.
        let mut session = StreamSession::new(
            Schema::new(vec!["Zip", "City"]),
            "FD: Zip -> City",
            HoloConfig::default().with_threads(1),
        )
        .unwrap();
        let early: Vec<Vec<String>> = vec![
            vec!["60608".into(), "Cicago".into()],
            vec!["60608".into(), "Cicago".into()],
            vec!["60608".into(), "Chicago".into()],
        ];
        session.push_batch(&early).unwrap();
        let late: Vec<Vec<String>> = (0..6)
            .map(|_| vec!["60608".to_string(), "Chicago".to_string()])
            .collect();
        session.push_batch(&late).unwrap();
        let report = session.report();
        // One-shot over the union agrees byte for byte.
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        for row in early.iter().chain(&late) {
            ds.push_row(row);
        }
        let reference = HoloClean::new(ds)
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(report, reference);
        assert!(report.repairs.iter().any(|r| r.new_value == "Chicago"));
    }

    #[test]
    fn unsupported_configs_and_bad_batches_are_typed_errors() {
        let schema = Schema::new(vec!["Zip", "City"]);
        // DC-factor variants are no longer rejected — retirement plus
        // compaction made them streamable.
        for variant in [ModelVariant::DcFactors, ModelVariant::DcFeatsDcFactors] {
            StreamSession::new(
                schema.clone(),
                "FD: Zip -> City",
                HoloConfig::default().with_variant(variant),
            )
            .expect("DC-factor variants stream via compaction");
        }
        let err = StreamSession::new(
            schema.clone(),
            "FD: Zip -> City",
            HoloConfig::default().with_source("a", "b"),
        )
        .map(|_| ())
        .expect_err("source features are rejected");
        assert!(matches!(err, HoloError::Stream(_)));

        let mut session =
            StreamSession::new(schema, "FD: Zip -> City", HoloConfig::default()).unwrap();
        let err = session
            .push_batch(&[vec!["only-one".to_string()]])
            .expect_err("arity mismatch is rejected");
        assert!(matches!(err, HoloError::Stream(_)), "{err}");
        assert_eq!(session.dataset().tuple_count(), 0, "nothing was appended");
    }

    #[test]
    fn bad_mutation_batches_are_typed_errors() {
        let mut session = StreamSession::new(
            Schema::new(vec!["Zip", "City"]),
            "FD: Zip -> City",
            HoloConfig::default(),
        )
        .unwrap();
        session
            .push_batch(&[vec!["60608".to_string(), "Chicago".to_string()]])
            .unwrap();

        let err = session
            .push_deletes(&[TupleId(7)])
            .expect_err("out-of-range delete is rejected");
        assert!(matches!(err, HoloError::Stream(_)), "{err}");
        let err = session
            .push_deletes(&[TupleId(0), TupleId(0)])
            .expect_err("repeated row in one batch is rejected");
        assert!(matches!(err, HoloError::Stream(_)), "{err}");
        let err = session
            .push_updates(&[(TupleId(0), vec!["only-one".to_string()])])
            .expect_err("update arity mismatch is rejected");
        assert!(matches!(err, HoloError::Stream(_)), "{err}");

        session.push_deletes(&[TupleId(0)]).unwrap();
        let err = session
            .push_updates(&[(TupleId(0), vec!["a".to_string(), "b".to_string()])])
            .expect_err("update of a tombstoned row is rejected");
        assert!(matches!(err, HoloError::Stream(_)), "{err}");
        let err = session
            .push_deletes(&[TupleId(0)])
            .expect_err("double delete is rejected");
        assert!(matches!(err, HoloError::Stream(_)), "{err}");
    }

    /// Drives one session through an interleaved insert/update/delete
    /// feed while maintaining the live table in a plain mirror, then
    /// checks the session's exact read against a one-shot run over the
    /// mirror. Returns the session for further inspection.
    fn crud_feed(config: HoloConfig) -> (StreamSession, Vec<Vec<String>>) {
        let mut session = StreamSession::new(
            Schema::new(vec!["Zip", "City", "State"]),
            "FD: Zip -> City",
            config,
        )
        .unwrap();
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
        let fixed = vec!["60608".to_string(), "Cicago".to_string(), "IL".to_string()];
        session.push_updates(&[(mangled, fixed.clone())]).unwrap();
        mirror[10] = Some(fixed);

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

    #[test]
    fn retraction_compacts_lazily_on_the_exact_read() {
        let (mut session, _) = crud_feed(HoloConfig::default().with_threads(1));
        // Mutations patched in place: still exactly one full build each.
        assert_eq!(session.design_stats().full_builds, 1);
        assert_eq!(session.component_stats().full_builds, 1);
        let retire = session.retire_stats();
        assert_eq!(retire.compactions, 0);
        assert_eq!(retire.dead_rows, 3);
        let _ = session.report();
        // The dirty exact read paid the one amortised rebuild.
        assert_eq!(session.design_stats().full_builds, 2);
        assert_eq!(session.component_stats().full_builds, 2);
        let retire = session.retire_stats();
        assert_eq!(retire.compactions, 1);
        assert!(retire.vars_renumbered > 0);
        // A second read is served from cache.
        let _ = session.report();
        assert_eq!(session.retire_stats().compactions, 1);
        assert_eq!(session.design_stats().full_builds, 2);
    }

    #[test]
    fn scheduled_compaction_ticks_are_the_only_full_rebuilds() {
        let rows = zip_city_rows();
        let mut config = HoloConfig::default().with_threads(1);
        config.stream.compact_every = 2;
        let mut session = StreamSession::new(
            Schema::new(vec!["Zip", "City", "State"]),
            "FD: Zip -> City",
            config,
        )
        .unwrap();
        session.push_batch(&rows[..6]).unwrap(); // batch 1
        assert_eq!(session.design_stats().full_builds, 1);
        assert_eq!(session.retire_stats().compactions, 0);
        session.push_batch(&rows[6..]).unwrap(); // batch 2 → tick
        assert_eq!(session.design_stats().full_builds, 2);
        assert_eq!(session.retire_stats().compactions, 1);
        session.push_deletes(&[TupleId(0)]).unwrap(); // batch 3: frozen
        assert_eq!(session.design_stats().full_builds, 2);
        session.push_batch(&rows[..1]).unwrap(); // batch 4 → tick
        assert_eq!(session.design_stats().full_builds, 3);
        assert_eq!(session.component_stats().full_builds, 3);
        assert_eq!(session.retire_stats().compactions, 2);
        // The tick cleared the delete's dirty flag: the exact read needs
        // no further rebuild, and it matches the one-shot run.
        let report = session.report();
        assert_eq!(session.design_stats().full_builds, 3);
        let mut live: Vec<Vec<String>> = rows[1..].to_vec();
        live.push(rows[0].clone());
        assert_eq!(report, one_shot(&live, 1));
    }

    #[test]
    fn sustained_crud_holds_steady_state_graph_size() {
        let rows = zip_city_rows();
        let mut config = HoloConfig::default().with_threads(1);
        config.stream.compact_every = 2;
        let mut session = StreamSession::new(
            Schema::new(vec!["Zip", "City", "State"]),
            "FD: Zip -> City",
            config,
        )
        .unwrap();
        session.push_batch(&rows).unwrap();
        // Baseline = the compacted live model (delta compile may pin a
        // few extra retired vars that only compaction renumbers away).
        session.compact().unwrap();
        let baseline_vars = session.graph.var_count();
        let baseline_factors = session.graph.factor_count();
        // Sustained churn: every round inserts a noisy row, heals it, and
        // deletes it again, so the live table keeps returning to `rows`.
        for _ in 0..6 {
            let id = session.ds.tuple_count() as u32;
            session
                .push_batch(&[vec![
                    "60609".to_string(),
                    "Evanstn".to_string(),
                    "IL".to_string(),
                ]])
                .unwrap();
            session
                .push_updates(&[(
                    TupleId(id),
                    vec![
                        "60609".to_string(),
                        "Evanston".to_string(),
                        "IL".to_string(),
                    ],
                )])
                .unwrap();
            session.push_deletes(&[TupleId(id)]).unwrap();
        }
        let report = session.report();
        // After the churn (and its compaction ticks) the graph holds
        // exactly the live model again — no monotone growth.
        assert_eq!(session.graph.var_count(), baseline_vars);
        assert_eq!(session.graph.factor_count(), baseline_factors);
        assert_eq!(session.graph.retired_clique_count(), 0);
        let retire = session.retire_stats();
        assert!(retire.compactions >= 1, "the schedule must have ticked");
        assert!(retire.vars_renumbered > 0);
        assert_eq!(report, one_shot(&rows, 1));
    }

    #[test]
    fn dc_factor_variants_stream_via_retirement_and_compaction() {
        let rows = zip_city_rows();
        for variant in [
            ModelVariant::DcFactors,
            ModelVariant::DcFeatsDcFactorsPartitioned,
        ] {
            let config = HoloConfig::default().with_threads(1).with_variant(variant);
            let mut session = StreamSession::new(
                Schema::new(vec!["Zip", "City", "State"]),
                "FD: Zip -> City",
                config.clone(),
            )
            .unwrap();
            for chunk in rows.chunks(5) {
                session.push_batch(chunk).unwrap();
            }
            // Exact read == one-shot under the clique-grounding variant.
            let report = session.report();
            let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
            for row in &rows {
                ds.push_row(row);
            }
            let reference = HoloClean::new(ds)
                .with_constraint_text("FD: Zip -> City")
                .unwrap()
                .with_config(config.clone())
                .run()
                .unwrap()
                .report;
            assert_eq!(report, reference, "variant {variant:?}");
            assert!(session.compile_stats().cliques > 0, "cliques grounded");

            // Deleting a violation endpoint retires its cliques in place.
            let cicago = TupleId(8);
            session.push_deletes(&[cicago]).unwrap();
            assert!(
                session.retire_stats().cliques_retired > 0,
                "variant {variant:?} retires cliques"
            );
            // And the next exact read recompacts to the one-shot answer.
            let report = session.report();
            let mut live: Vec<Vec<String>> = rows.clone();
            live.remove(8);
            let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
            for row in &live {
                ds.push_row(row);
            }
            let reference = HoloClean::new(ds)
                .with_constraint_text("FD: Zip -> City")
                .unwrap()
                .with_config(config)
                .run()
                .unwrap()
                .report;
            assert_eq!(report, reference, "variant {variant:?} after delete");
        }
    }

    #[test]
    fn updates_can_introduce_and_remove_violations() {
        let rows = zip_city_rows();
        let mut session = streamed(&rows, 3, 1);
        // Rewrite a clean Evanston row into a fresh 60608 conflict.
        session
            .push_updates(&[(
                TupleId(9),
                vec!["60608".to_string(), "Evanstn".to_string(), "IL".to_string()],
            )])
            .unwrap();
        let mut live = rows.clone();
        live[9] = vec!["60608".into(), "Evanstn".into(), "IL".into()];
        assert_eq!(session.report(), one_shot(&live, 1));
        // Rewrite it back: the violation retracts.
        session
            .push_updates(&[(TupleId(9), rows[9].clone())])
            .unwrap();
        assert_eq!(session.report(), one_shot(&rows, 1));
    }

    #[test]
    fn force_full_rebuild_produces_identical_output() {
        let rows = zip_city_rows();
        let mut fast = streamed(&rows, 4, 1);
        let mut slow = {
            let mut config = HoloConfig::default().with_threads(1);
            config.stream.force_full_rebuild = true;
            let mut session = StreamSession::new(
                Schema::new(vec!["Zip", "City", "State"]),
                "FD: Zip -> City",
                config,
            )
            .unwrap();
            for chunk in rows.chunks(rows.len().div_ceil(4)) {
                session.push_batch(chunk).unwrap();
            }
            session
        };
        assert_eq!(fast.report(), slow.report());
        assert_eq!(fast.design_stats().full_builds, 1, "patched path");
        assert!(
            slow.design_stats().full_builds > 1,
            "rebuild path recompiles per batch"
        );
    }

    #[test]
    fn interim_report_tracks_new_evidence_between_batches() {
        let rows = zip_city_rows();
        let mut session = streamed(&rows, 3, 1);
        let interim = session.interim_report();
        let exact = session.report();
        // Interim serves the same cells, with (possibly) different
        // posterior mass: same posterior count, approximate weights.
        assert_eq!(interim.posteriors.len(), exact.posteriors.len());
        assert!(session.ingest_stats().replay_minibatches > 0);
    }

    use proptest::prelude::*;

    fn crud_row(z: u8, c: u8) -> Vec<String> {
        let zips = ["60608", "60609"];
        let cities = ["Chicago", "Cicago", "Evanston"];
        vec![
            zips[z as usize % zips.len()].to_string(),
            cities[c as usize % cities.len()].to_string(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Arbitrary insert/update/delete/compact interleavings serve
        /// exact reads bit-for-bit equal to a from-scratch build over the
        /// live table, and every `full_builds` tick is a compaction tick.
        /// Each op is `(kind, sel, n, z, c)`: kind 0 inserts `n` rows
        /// derived from `(z, c)`, kind 1 updates the live row selected by
        /// `sel`, kind 2 deletes it.
        #[test]
        fn prop_interleaved_crud_matches_a_fresh_build(
            ops in proptest::collection::vec((0u8..3, 0u8..16, 1u8..4, 0u8..2, 0u8..3), 1..8),
            compact_every in 0usize..3,
        ) {
            let mut config = HoloConfig::default().with_threads(1);
            config.stream.compact_every = compact_every;
            let mut session = StreamSession::new(
                Schema::new(vec!["Zip", "City"]),
                "FD: Zip -> City",
                config,
            ).unwrap();
            let mut live_ids: Vec<TupleId> = Vec::new();
            let mut mirror: Vec<Vec<String>> = Vec::new();
            let mut pushed = false;
            for (kind, sel, n, z, c) in ops {
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
                        pushed = true;
                    }
                    1 => {
                        if live_ids.is_empty() {
                            continue;
                        }
                        let idx = sel as usize % live_ids.len();
                        let row = crud_row(z, c);
                        session.push_updates(&[(live_ids[idx], row.clone())]).unwrap();
                        mirror[idx] = row;
                    }
                    _ => {
                        if live_ids.is_empty() {
                            continue;
                        }
                        let idx = sel as usize % live_ids.len();
                        session.push_deletes(&[live_ids[idx]]).unwrap();
                        live_ids.remove(idx);
                        mirror.remove(idx);
                    }
                }
                if pushed {
                    // Every full build after the first is a compaction.
                    let compactions = session.retire_stats().compactions;
                    prop_assert_eq!(session.design_stats().full_builds, 1 + compactions);
                    prop_assert_eq!(session.component_stats().full_builds, 1 + compactions);
                }
            }
            let streamed = session.report();
            let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
            for row in &mirror {
                ds.push_row(row);
            }
            let fresh = HoloClean::new(ds)
                .with_constraint_text("FD: Zip -> City")
                .unwrap()
                .run()
                .unwrap()
                .report;
            prop_assert_eq!(streamed, fresh);
            if pushed {
                let compactions = session.retire_stats().compactions;
                prop_assert_eq!(session.design_stats().full_builds, 1 + compactions);
            }
        }
    }
}
