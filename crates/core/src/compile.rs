//! Compilation: from signals to a grounded factor graph.
//!
//! Mirrors §4 of the paper. The compiler:
//!
//! 1. assigns a `Value?` random variable to every noisy cell, with the
//!    Algorithm 2 pruned candidate domain (plus any values asserted by
//!    external-dictionary matches);
//! 2. samples evidence variables from the clean cells (§2.2 — evidence is
//!    what the weights are learned from; sampling caps the training-set
//!    size the way DeepDive batches do) of the *trainable* attributes:
//!    those that share a learnable weight, directly or through other
//!    attributes' evidence, with an attribute that has a query variable
//!    ([`crate::trainable`]). Evidence of any other attribute trains
//!    weights no marginal reads and is never selected;
//! 3. featurizes every variable — co-occurrence statistics, minimality
//!    prior, external matches, relaxed DC features (§5.2), and optional
//!    source-reliability features — in one pass that ends in the CSR
//!    design matrix, the flat scoring substrate Learn and Infer read and
//!    the only place unary features are ever stored (see
//!    [`crate::features`]);
//! 4. in the factor variants, grounds denial constraints into clique
//!    factors (Algorithm 1), optionally restricted to the Algorithm 3
//!    tuple groups: only pairs that can hold a query variable, in blocks of
//!    probe tuples that stop at the clique cap, each block discovering and
//!    building its pairs across threads with an ordered merge.

use crate::config::HoloConfig;
use crate::domain::PruneIndex;
use crate::error::HoloError;
use crate::features::{
    collect_external_features, collect_minimality_feature, collect_occur_features, DcFeaturizer,
    FeatureBuffer, FeatureKey, FeatureSink, MatchLookup, SourceFeaturizer,
};
use crate::trainable::{attrs_of, trainable_attrs};
use holo_constraints::ast::{Op, Operand, TupleVar};
use holo_constraints::scan::PairScan;
use holo_constraints::{find_tuple_groups_with_threads, ConstraintSet, Violation, NO_GROUP};
use holo_dataset::{AttrId, CellRef, CooccurStats, Dataset, FxHashMap, FxHashSet, Sym, TupleId};
use holo_factor::{
    CliqueArena, CmpOp, DesignMatrix, FactorGraph, FactorOperand, FactorPredicate, FeatureRegistry,
    VarId, Variable, Weights,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Size/shape diagnostics of a compiled model (reported by the harness —
/// this is the "factor graph size" the paper's optimisations shrink).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompileStats {
    /// Query variables (noisy cells with ≥ 2 candidates).
    pub query_vars: usize,
    /// Noisy cells whose pruned domain was a singleton (unrepairable at
    /// this τ; they keep their value).
    pub singleton_noisy_cells: usize,
    /// Evidence variables sampled for learning.
    pub evidence_vars: usize,
    /// Attributes evidence was drawn from: those sharing a learnable
    /// weight with an attribute that has a query variable.
    pub trainable_attrs: usize,
    /// The other attributes — their clean cells train nothing a marginal
    /// reads, so none became evidence (`|A| − trainable_attrs`).
    pub evidence_attrs_skipped: usize,
    /// Total candidates across query variables.
    pub total_candidates: usize,
    /// Grounded unary feature entries + clique factors.
    pub factors: usize,
    /// Grounded DC clique factors.
    pub cliques: usize,
    /// Heap bytes of the clique arena that holds them
    /// ([`FactorGraph::clique_bytes`]).
    pub clique_bytes: usize,
    /// Query-bearing tuple pairs DC-factor grounding visited — a pair
    /// whose cells hold no query variable is never formed — up to each
    /// constraint's clique cap.
    pub dc_pairs_considered: usize,
    /// Constraints whose clique cap was hit.
    pub clique_cap_hits: usize,
    /// Two-tuple constraints left ungrounded because no cross-tuple
    /// equality predicate gives a join key to block on.
    pub dc_skipped_no_join_key: usize,
    /// Conditioning values held by the Algorithm 2 threshold index.
    pub prune_index_rows: usize,
    /// `(value, count)` entries held by the Algorithm 2 threshold index.
    pub prune_index_entries: usize,
    /// Wall-clock of `compile`'s phases, in execution order: `index
    /// build` (the τ-index), `noisy prune` (its Algorithm 2 read for the
    /// noisy cells), `evidence prune` (evidence selection and its read),
    /// `variables`, `featurizer setup` (DC/source featurizers, Algorithm 3
    /// groups), `featurize` (the parallel pass into per-chunk sinks),
    /// `assemble` (their ordered merge into registry + design matrix),
    /// `ground` (Algorithm 1; DC-factor variants only). Together they
    /// cover the call but for wiring the graph's clique lists and the
    /// final weight-vector copy.
    /// `pipeline::compile_model` puts `stats build`, the co-occurrence
    /// statistics it builds before calling `compile`, in front.
    pub phases: Vec<(&'static str, Duration)>,
}

/// Runs `f` and appends its wall-clock to `phases` under `name`.
fn timed<R>(
    phases: &mut Vec<(&'static str, Duration)>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    phases.push((name, start.elapsed()));
    out
}

/// A compiled, grounded model ready for learning and inference.
pub struct CompiledModel {
    /// The factor graph.
    pub graph: FactorGraph,
    /// Initial weights: fixed values and the learnable weights' priors.
    pub weights: Weights,
    /// The feature registry (kept for introspection).
    pub registry: FeatureRegistry<FeatureKey>,
    /// Query cells, parallel to the query variable ids in `query_vars`.
    pub query_cells: Vec<CellRef>,
    /// Query variable ids, parallel to `query_cells`.
    pub query_vars: Vec<VarId>,
    /// Evidence cells, in variable order: the evidence variables are the
    /// ids after the query variables'.
    pub evidence_cells: Vec<CellRef>,
    /// Shape diagnostics.
    pub stats: CompileStats,
}

/// Everything `compile` reads.
pub struct CompileInput<'a> {
    /// The (dirty) dataset.
    pub ds: &'a Dataset,
    /// The denial constraints Σ.
    pub constraints: &'a ConstraintSet,
    /// The noisy-cell set `D_n` from error detection.
    pub noisy: &'a FxHashSet<CellRef>,
    /// Unread: the partitioning variants take Algorithm 3's groups from
    /// the value groups ([`find_tuple_groups_with_threads`]), so no
    /// variant reads a violation list, and `pipeline::compile_model`
    /// passes it empty. Kept while the benchmark's staged driver still
    /// fills it.
    pub violations: &'a [Violation],
    /// Co-occurrence statistics of the dataset.
    pub stats: &'a CooccurStats,
    /// External-match lookup (may be empty).
    pub matches: &'a MatchLookup,
    /// Pipeline configuration.
    pub config: &'a HoloConfig,
}

/// Compiles the full model.
pub fn compile(input: &CompileInput<'_>) -> Result<CompiledModel, HoloError> {
    compile_with(input, |seeds| {
        trainable_attrs(seeds, input.constraints, input.matches, input.config)
    })
}

/// [`compile`] over the attribute closure `trainable` (seed flags in, the
/// trainable attributes out).
fn compile_with(
    input: &CompileInput<'_>,
    trainable: impl Fn(Vec<bool>) -> Vec<bool>,
) -> Result<CompiledModel, HoloError> {
    let CompileInput {
        ds,
        constraints,
        noisy,
        violations: _,
        stats,
        matches,
        config,
    } = *input;

    let threads = config.effective_threads();
    let mut cstats = CompileStats::default();
    let mut phases = Vec::new();

    // ---- 1. domains for noisy cells (Alg. 2 + dictionary assertions) ----
    // One τ-threshold index serves both prunes: built at the smaller
    // (evidence) τ, filtered at the noisy τ on read. It is dropped before
    // featurization, so it never coexists with the design matrix.
    let evidence_tau = config.tau.min(config.evidence_tau_cap);
    let n_attrs = ds.schema().len();
    let index = timed(&mut phases, "index build", || {
        // Lists only for the attributes a cell can be pruned in: those of
        // the noisy cells and of the evidence their query variables can
        // make trainable — the targets `pipeline::compile_model` builds
        // pair blocks for, recomputed here from the same inputs.
        let targets = trainable(attrs_of(n_attrs, noisy.iter().copied()));
        PruneIndex::build(
            ds,
            stats,
            &targets,
            evidence_tau,
            config.min_cond_support,
            threads,
        )
    });
    cstats.prune_index_rows = index.rows();
    cstats.prune_index_entries = index.entries();
    // Dictionary-asserted values join a cell's domain after pruning: the
    // `(cell, value)` pairs in `matches.keys()` order, stable-sorted by
    // cell so each cell keeps that order, merge-joined with the sorted
    // noisy cells.
    let (noisy_cells, noisy_domains, mut asserted) = timed(&mut phases, "noisy prune", || {
        let mut asserted: Vec<(CellRef, Sym)> = matches.keys().copied().collect();
        asserted.sort_by_key(|&(cell, _)| cell);
        let mut noisy_cells: Vec<CellRef> = noisy.iter().copied().collect();
        noisy_cells.sort_unstable();
        let mut domains =
            index.prune_cells(ds, &noisy_cells, config.tau, config.max_domain, threads);
        assert_into(&asserted, &noisy_cells, &mut domains, |cell| cell);
        (noisy_cells, domains, asserted)
    });

    // Evidence: sample clean cells per trainable attribute — seeded by the
    // attributes that have a query variable, known now that the noisy
    // domains are final. Selection is sequential; the Algorithm 2 reads of
    // the selected cells shard across threads.
    let is_query = |dom: &Vec<Sym>| dom.len() >= 2;
    let (selected, evidence_domains) = timed(&mut phases, "evidence prune", || {
        let query_cells = std::iter::zip(&noisy_cells, &noisy_domains)
            .filter(|(_, dom)| is_query(dom))
            .map(|(&cell, _)| cell);
        let evidence_attrs = trainable(attrs_of(n_attrs, query_cells));
        cstats.trainable_attrs = evidence_attrs.iter().filter(|&&t| t).count();
        cstats.evidence_attrs_skipped = n_attrs - cstats.trainable_attrs;
        let selected = select_evidence_cells(
            ds,
            noisy,
            &evidence_attrs,
            config.seed,
            MAX_EVIDENCE_PER_ATTR,
        );
        let mut domains =
            index.prune_cells(ds, &selected, evidence_tau, config.max_domain, threads);
        // Dictionary assertions join the evidence domains too: an evidence
        // cell whose observed value beats the asserted one is exactly the
        // negative example that trains the dictionary's reliability weight
        // w(k) down when coverage is poor. `selected` is attribute-major;
        // a stable re-sort keeps each cell's order.
        let attr_major = |cell: CellRef| (cell.attr, cell.tuple);
        asserted.sort_by_key(|&(cell, _)| attr_major(cell));
        assert_into(&asserted, &selected, &mut domains, attr_major);
        (selected, domains)
    });
    drop(index);

    // ---- 2. variables: query first, then evidence ----
    // Each domain moves straight into its variable; DC-factor grounding
    // reads a query cell's domain there.
    let mut vars: Vec<Variable> = Vec::new();
    let mut var_cells: Vec<CellRef> = Vec::new();
    timed(&mut phases, "variables", || {
        for (&cell, dom) in noisy_cells.iter().zip(noisy_domains) {
            if !is_query(&dom) {
                cstats.singleton_noisy_cells += 1;
                continue;
            }
            let init = ds.cell_ref(cell);
            let init_idx = dom.iter().position(|&v| v == init);
            vars.push(Variable::query(dom, init_idx));
            var_cells.push(cell);
        }
        cstats.query_vars = vars.len();
        cstats.total_candidates = vars.iter().map(Variable::arity).sum();
        for (&cell, dom) in selected.iter().zip(evidence_domains) {
            if dom.len() < 2 {
                continue;
            }
            // The pruner keeps a cell's observed value by construction; if
            // a pruning configuration ever breaks that, surface the cell
            // as a typed error rather than a crash.
            let Some(observed) = dom.iter().position(|&v| v == ds.cell_ref(cell)) else {
                return Err(HoloError::PrunedInitialValue {
                    cell,
                    attr: ds.schema().attr_name(cell.attr).to_string(),
                });
            };
            vars.push(Variable::evidence(dom, observed));
            var_cells.push(cell);
        }
        Ok(())
    })?;
    cstats.evidence_vars = vars.len() - cstats.query_vars;
    let query_vars: Vec<VarId> = (0..cstats.query_vars as u32).map(VarId).collect();

    // ---- 3. featurization ----
    let (groups, signals) = timed(&mut phases, "featurizer setup", || {
        let groups = config
            .variant
            .uses_partitioning()
            .then(|| find_tuple_groups_with_threads(ds, constraints, threads));
        Signals::new(input).map(|signals| (groups, signals))
    })?;
    let sinks = timed(&mut phases, "featurize", || {
        signals.featurize(threads, &var_cells, &vars)
    });
    let evidence_cells = var_cells.split_off(cstats.query_vars);
    let query_cells = var_cells;
    let (mut registry, design) = timed(&mut phases, "assemble", || {
        drop(signals);
        assemble(sinks)
    });

    // ---- 4. DC factor grounding (Algorithm 1) ----
    let mut cliques = CliqueArena::new();
    if config.variant.uses_dc_factors() {
        cliques = timed(&mut phases, "ground", || {
            let query = QueryCells::new(ds, &query_cells, &vars[..cstats.query_vars]);
            ground_dc_factors(
                &mut registry,
                ds,
                constraints,
                &query,
                config,
                groups.as_deref(),
                &mut cstats,
                MAX_CLIQUES_PER_CONSTRAINT,
            )
        });
    }

    let graph = FactorGraph::new(vars, design, cliques);
    cstats.phases = phases;
    cstats.factors = graph.factor_count();
    cstats.clique_bytes = graph.clique_bytes();
    let weights = registry.build_weights();
    Ok(CompiledModel {
        graph,
        weights,
        registry,
        query_cells,
        query_vars,
        evidence_cells,
        stats: cstats,
    })
}

/// Appends to each of `cells`' domains the values `asserted` for it that
/// the domain lacks, in `asserted` order: a merge join, so `cells` and
/// `asserted` must both ascend under `key`.
fn assert_into<K: Ord>(
    asserted: &[(CellRef, Sym)],
    cells: &[CellRef],
    domains: &mut [Vec<Sym>],
    key: impl Fn(CellRef) -> K,
) {
    debug_assert!(cells.is_sorted_by_key(|&cell| key(cell)));
    debug_assert!(asserted.is_sorted_by_key(|&(cell, _)| key(cell)));
    let mut rest = asserted;
    for (&cell, dom) in cells.iter().zip(domains) {
        let at = key(cell);
        let skip = rest.iter().take_while(|&&(c, _)| key(c) < at).count();
        let run = rest[skip..]
            .iter()
            .take_while(|&&(c, _)| key(c) == at)
            .count();
        for &(_, v) in &rest[skip..skip + run] {
            if !dom.contains(&v) {
                dom.push(v);
            }
        }
        rest = &rest[skip + run..];
    }
}

/// Evidence cells sampled per *trainable* attribute for weight learning —
/// an attribute that shares a learnable weight with one that has a query
/// variable ([`crate::trainable`]); the other attributes supply no
/// evidence at all.
const MAX_EVIDENCE_PER_ATTR: usize = 800;

/// Canonical evidence selection: per attribute set in `trainable`, the
/// clean non-null cells of the *whole* dataset, downsampled to `cap`
/// ([`MAX_EVIDENCE_PER_ATTR`] in `compile`) by keeping the `cap` cells of
/// smallest [`sample_rank`] under `seed` (bottom-k), in cell order.
/// Membership is a function of `(table, noisy set, seed)` only, and each
/// cell's rank is its own: a kept attribute's cells do not depend on which
/// other attributes are kept, and a cell that joins or leaves an
/// attribute's clean list (a label, or a partner it unflags) changes at
/// most one other member of that attribute's sample.
///
/// The noisy set is read through one tuple bitmap per attribute, so a
/// clean-cell test is a bit probe, not a hash of the cell.
fn select_evidence_cells(
    ds: &Dataset,
    noisy: &FxHashSet<CellRef>,
    trainable: &[bool],
    seed: u64,
    cap: usize,
) -> Vec<CellRef> {
    let words = ds.tuple_count().div_ceil(64);
    let mut flagged: Vec<Vec<u64>> = vec![vec![0; words]; trainable.len()];
    for cell in noisy {
        let t = cell.tuple.index();
        flagged[cell.attr.index()][t / 64] |= 1 << (t % 64);
    }
    let mut selected: Vec<CellRef> = Vec::new();
    for attr in ds.schema().attrs().filter(|a| trainable[a.index()]) {
        let (column, flagged) = (ds.column(attr), &flagged[attr.index()]);
        let clean = ds.tuples().filter(|t| {
            let t = t.index();
            flagged[t / 64] >> (t % 64) & 1 == 0 && !column[t].is_null()
        });
        let mut ranked: Vec<(u64, CellRef)> = clean
            .map(|t| {
                let cell = CellRef { tuple: t, attr };
                (sample_rank(seed, cell), cell)
            })
            .collect();
        if ranked.len() > cap {
            ranked.select_nth_unstable(cap);
            ranked.truncate(cap);
            ranked.sort_unstable_by_key(|&(_, cell)| cell);
        }
        selected.extend(ranked.into_iter().map(|(_, cell)| cell));
    }
    selected
}

/// A cell's place in the evidence sample under `seed`: a SplitMix64 hash
/// of the seed and the cell, so the ranks of different cells are
/// independent and uniform.
fn sample_rank(seed: u64, cell: CellRef) -> u64 {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let key = (cell.tuple.index() as u64) << 32 | cell.attr.index() as u64;
    mix(mix(seed) ^ key)
}

/// The repair signals of §4.2 in the form per-cell featurization reads
/// them: the compile inputs plus the DC and source featurizers built over
/// them.
struct Signals<'a> {
    ds: &'a Dataset,
    stats: &'a CooccurStats,
    matches: &'a MatchLookup,
    config: &'a HoloConfig,
    dc: Option<DcFeaturizer<'a>>,
    source: Option<SourceFeaturizer>,
}

impl<'a> Signals<'a> {
    fn new(input: &CompileInput<'a>) -> Result<Self, HoloError> {
        let config = input.config;
        Ok(Signals {
            ds: input.ds,
            stats: input.stats,
            matches: input.matches,
            config,
            dc: config
                .variant
                .uses_dc_features()
                .then(|| DcFeaturizer::new(input.ds, input.constraints, config)),
            source: match &config.source {
                Some(sc) => Some(SourceFeaturizer::new(
                    input.ds,
                    &sc.entity_attr,
                    &sc.source_attr,
                )?),
                None => None,
            },
        })
    }

    /// Queues every signal of one cell in its canonical order: the collect
    /// order *is* the per-row feature order in the design matrix and the
    /// weight interning order.
    fn collect(&self, buf: &mut FeatureBuffer, cell: CellRef, candidates: &[Sym]) {
        let (ds, config) = (self.ds, self.config);
        let support_prior = (config.min_cond_support, config.occur_prior);
        collect_occur_features(buf, (ds, self.stats), support_prior, cell, candidates);
        collect_minimality_feature(buf, config, ds.cell_ref(cell), candidates);
        collect_external_features(buf, self.matches, cell, candidates);
        if let Some(dcf) = &self.dc {
            dcf.collect_features(buf, cell, candidates);
        }
        if let Some(sf) = &self.source {
            sf.collect_features(buf, ds, cell, candidates);
        }
    }

    /// Featurizes the variables (`cells[i]` is the cell of `vars[i]`), one
    /// [`FeatureSink`] per contiguous chunk, in chunk order. This is the
    /// compile hot path — every signal of every variable scans
    /// conditioning cells, match lookups and DC partner blocks — and a
    /// variable's features depend only on read-only inputs, so the chunks
    /// run data-parallel, each through one reused [`FeatureBuffer`].
    fn featurize(&self, threads: usize, cells: &[CellRef], vars: &[Variable]) -> Vec<FeatureSink> {
        let items: Vec<(CellRef, &Variable)> = cells.iter().copied().zip(vars).collect();
        holo_parallel::parallel_chunks(threads, &items, |_, chunk| {
            let mut sink = FeatureSink::default();
            let mut buf = FeatureBuffer::default();
            for &(cell, var) in chunk {
                buf.clear();
                self.collect(&mut buf, cell, &var.domain);
                sink.push_var(&buf, var.arity());
            }
            vec![sink]
        })
    }
}

/// Merges per-chunk sinks, in chunk order, into the model's registry and
/// design matrix — those of a single sink fed every variable in turn, at
/// any chunking (see the `features` module docs).
fn assemble(sinks: Vec<FeatureSink>) -> (FeatureRegistry<FeatureKey>, DesignMatrix) {
    let mut sinks = sinks.into_iter();
    let mut merged = sinks.next().unwrap_or_default();
    for sink in sinks {
        merged.absorb(sink);
    }
    merged.finish()
}

fn op_to_cmp(op: Op) -> CmpOp {
    match op {
        Op::Eq => CmpOp::Eq,
        Op::Neq => CmpOp::Neq,
        Op::Lt => CmpOp::Lt,
        Op::Gt => CmpOp::Gt,
        Op::Leq => CmpOp::Leq,
        Op::Geq => CmpOp::Geq,
        Op::Sim(t) => CmpOp::Sim(t),
    }
}

/// No query variable at a cell of [`QueryCells`].
const NO_VAR: u32 = u32::MAX;

/// The query variables by cell, as grounding reads them: per attribute a
/// dense tuple-indexed column of variable ids ([`NO_VAR`] where the cell
/// is no query variable; empty for an attribute without one), and the
/// variables, whose domains are their cells'.
struct QueryCells<'a> {
    columns: Vec<Vec<u32>>,
    vars: &'a [Variable],
}

impl<'a> QueryCells<'a> {
    /// `cells[i]` is the cell of `vars[i]`, variable `VarId(i)`.
    fn new(ds: &Dataset, cells: &[CellRef], vars: &'a [Variable]) -> Self {
        debug_assert_eq!(cells.len(), vars.len());
        let mut columns = vec![Vec::new(); ds.schema().len()];
        for (i, cell) in cells.iter().enumerate() {
            let column: &mut Vec<u32> = &mut columns[cell.attr.index()];
            column.resize(ds.tuple_count(), NO_VAR);
            column[cell.tuple.index()] = i as u32;
        }
        QueryCells { columns, vars }
    }

    /// The query variable of `cell`, if it has one.
    #[inline]
    fn var(&self, cell: CellRef) -> Option<VarId> {
        let column = &self.columns[cell.attr.index()];
        let var = *column.get(cell.tuple.index())?;
        (var != NO_VAR).then_some(VarId(var))
    }

    /// Whether each tuple holds a query cell in any of `attrs`.
    fn mask(&self, attrs: &[AttrId], tuple_count: usize) -> Vec<bool> {
        let mut mask = vec![false; tuple_count];
        for a in attrs {
            for (m, &var) in mask.iter_mut().zip(&self.columns[a.index()]) {
                *m |= var != NO_VAR;
            }
        }
        mask
    }

    /// Candidate domain of a cell: its query variable's, or the observed
    /// singleton — which is also the domain of a noisy cell pruned to one
    /// candidate, since pruning keeps the observed value first.
    fn domain<'s>(&'s self, ds: &Dataset, cell: CellRef, singleton: &'s mut [Sym; 1]) -> &'s [Sym] {
        if let Some(var) = self.var(cell) {
            return &self.vars[var.index()].domain;
        }
        singleton[0] = ds.cell_ref(cell);
        singleton
    }
}

/// Fixed weight `w` of DC clique factors (Algorithm 1 "soft constraint"
/// relaxation; `f64::INFINITY` would make them hard).
pub(crate) const DC_FACTOR_WEIGHT: f64 = 4.0;

/// Cap on grounded cliques per two-tuple constraint (safety valve for the
/// unpartitioned factor variants at small τ; the paper reports exactly
/// this blow-up in §1 challenge (2)). A constraint stops grounding
/// outright once the cap is reached.
const MAX_CLIQUES_PER_CONSTRAINT: usize = 500_000;

/// Probe tuples per grounding block: large enough that a block amortises
/// the fan-out, small enough that a binding clique cap doesn't discover
/// and build far past its stopping point.
const GROUND_BLOCK_TUPLES: usize = 256;

/// The tuples whose `(t, block attribute)` domain holds one value, within
/// one Algorithm 3 group, ascending.
#[derive(Default)]
struct Bucket {
    /// Every such tuple.
    all: Vec<TupleId>,
    /// Those with a query cell among the constraint's t2 attributes.
    queried: Vec<TupleId>,
}

/// The grounding of one chunk of probe tuples: its cliques in pair order,
/// and for the clique cap the pairs visited through each of them.
#[derive(Default)]
struct Fragment {
    cliques: CliqueArena,
    /// `visited[i]` = pairs visited up to and including clique `i`'s.
    visited: Vec<usize>,
    /// Pairs visited in all.
    pairs: usize,
    /// Scratch of the clique in hand.
    vars: Vec<VarId>,
    predicates: Vec<FactorPredicate>,
}

/// Grounds denial constraints into clique factors over the query variables
/// (Algorithm 1), in constraint order. A factor with no query variable is
/// a constant, so only what can hold one is grounded: a single-tuple
/// constraint grounds one clique per tuple with a query cell among its
/// attributes, and a two-tuple constraint only its *query-bearing* pairs —
/// `t1` holds a query cell among the constraint's t1 attributes or `t2`
/// among its t2 attributes. A two-tuple constraint discovers its pairs by
/// blocking on the first cross-tuple equality predicate *over candidate
/// domains* (a pair is grounded iff some candidate assignment can satisfy
/// every equality join). Its buckets are keyed by (group, value): under
/// partitioning `groups` holds the dense per-constraint Algorithm 3 group
/// tables of [`find_tuple_groups_with_threads`], so a pair never leaves
/// its group and a tuple in no group never probes; without it every tuple
/// is in group 0. A probe without a query cell on its side scans only the
/// bucket members with one on theirs — a subsequence in the same order.
///
/// Probe tuples go in fixed blocks of [`GROUND_BLOCK_TUPLES`]: a block
/// discovers its pairs and builds their cliques data-parallel, each chunk
/// into a [`Fragment`] of its own, and the fragments append to the arena in
/// chunk order, so the cliques are in (probe, candidate, partner) order at
/// every thread count. A constraint stops in the block where it reaches
/// `clique_cap` (≥ 1) cliques — the pairs past the cap are never
/// discovered — and `dc_pairs_considered` counts the query-bearing pairs
/// it visited up to there. The arena is trimmed to its length at the end.
#[allow(clippy::too_many_arguments)]
fn ground_dc_factors(
    registry: &mut FeatureRegistry<FeatureKey>,
    ds: &Dataset,
    constraints: &ConstraintSet,
    query: &QueryCells<'_>,
    config: &HoloConfig,
    groups: Option<&[Vec<u32>]>,
    cstats: &mut CompileStats,
    clique_cap: usize,
) -> CliqueArena {
    assert!(clique_cap > 0, "a clique cap keeps at least one clique");
    let threads = config.effective_threads();
    let weight = registry.fixed(FeatureKey::DcFactor, DC_FACTOR_WEIGHT);
    let n = ds.tuple_count();
    let mut cliques = CliqueArena::new();
    for (sigma, c) in constraints.iter() {
        if !c.two_tuple {
            // The pair builder with both roles on one tuple and no join.
            let held = query.mask(&c.attrs(), n);
            let probes: Vec<TupleId> = ds.tuples().filter(|t| held[t.index()]).collect();
            let built = holo_parallel::parallel_chunks(threads, &probes, |_, chunk| {
                let mut fragment = Fragment::default();
                for &t in chunk {
                    build_clique(ds, c, t, t, query, weight, &[], &mut fragment);
                }
                vec![fragment]
            });
            for fragment in built {
                cliques.append(&fragment.cliques);
            }
            continue;
        }
        // Cross-tuple equality predicates, oriented (t1 attr, t2 attr).
        let scan = PairScan::new(c, TupleVar::T1);
        let eq_pairs: Vec<(AttrId, AttrId)> =
            std::iter::zip(scan.probe_key, scan.partner_key).collect();
        if eq_pairs.is_empty() {
            // No join key: grounding would be O(|D|²) with no pruning.
            // Such constraints are not present in any evaluated workload;
            // skip with a note in the stats.
            cstats.dc_skipped_no_join_key += 1;
            continue;
        }
        let symmetric = c.is_symmetric();
        let (block_a1, block_a2) = eq_pairs[0];
        let (attrs1, attrs2) = c.attrs_by_tuple();
        let (q1, q2) = (query.mask(&attrs1, n), query.mask(&attrs2, n));
        let table = groups.map(|g| g[sigma].as_slice());
        let group_of = |t: TupleId| table.map_or(0, |g| g[t.index()]);

        let mut buckets: FxHashMap<(u32, Sym), Bucket> = FxHashMap::default();
        let mut probes = Vec::new();
        let mut singleton = [Sym::NULL];
        for t in ds.tuples() {
            let group = group_of(t);
            if group == NO_GROUP {
                continue;
            }
            probes.push(t);
            let cell = CellRef {
                tuple: t,
                attr: block_a2,
            };
            for &v in query.domain(ds, cell, &mut singleton) {
                if !v.is_null() {
                    let bucket = buckets.entry((group, v)).or_default();
                    bucket.all.push(t);
                    if q2[t.index()] {
                        bucket.queried.push(t);
                    }
                }
            }
        }

        // The cliques of one chunk of probe tuples, in pair order. A pair
        // is keyed by its probe tuple, so dedup is local to `t1`, and only
        // a probe with two or more candidates can meet a partner twice.
        let ground_chunk = |chunk: &[TupleId]| -> Fragment {
            let mut seen: FxHashSet<TupleId> = FxHashSet::default();
            let mut fragment = Fragment::default();
            let mut singleton1 = [Sym::NULL];
            for &t1 in chunk {
                let cell1 = CellRef {
                    tuple: t1,
                    attr: block_a1,
                };
                let candidates = query.domain(ds, cell1, &mut singleton1);
                let dedup = candidates.len() > 1;
                seen.clear();
                for &v in candidates {
                    if v.is_null() {
                        continue;
                    }
                    let Some(bucket) = buckets.get(&(group_of(t1), v)) else {
                        continue;
                    };
                    let mut partners = match q1[t1.index()] {
                        true => &bucket.all[..],
                        false => &bucket.queried[..],
                    };
                    if symmetric {
                        // Each unordered pair once, from its smaller tuple.
                        partners = &partners[partners.partition_point(|&t2| t2 <= t1)..];
                    }
                    for &t2 in partners {
                        if t1 == t2 || (dedup && !seen.insert(t2)) {
                            continue;
                        }
                        fragment.pairs += 1;
                        if build_clique(ds, c, t1, t2, query, weight, &eq_pairs, &mut fragment) {
                            fragment.visited.push(fragment.pairs);
                        }
                    }
                }
            }
            fragment
        };

        let mut cliques_here = 0usize;
        'blocks: for block in probes.chunks(GROUND_BLOCK_TUPLES) {
            let fragments = holo_parallel::parallel_chunks(threads, block, |_, chunk| {
                vec![ground_chunk(chunk)]
            });
            for mut fragment in fragments {
                let room = clique_cap - cliques_here;
                let capped = fragment.cliques.len() >= room;
                if capped {
                    fragment.cliques.truncate(room);
                    fragment.pairs = fragment.visited[room - 1];
                }
                cstats.dc_pairs_considered += fragment.pairs;
                cstats.cliques += fragment.cliques.len();
                cliques_here += fragment.cliques.len();
                cliques.append(&fragment.cliques);
                if capped {
                    cstats.clique_cap_hits += 1;
                    break 'blocks;
                }
            }
        }
    }
    cliques.shrink_to_fit();
    cliques
}

/// Appends to `out.cliques` the clique for one tuple pair — a
/// single-tuple constraint passes its tuple as both and no `eq_pairs` —
/// and returns whether it did: nothing is appended when no query variable
/// participates (no cell the constraint reads on either tuple is one: the
/// factor would be constant) or the equality join is domain-infeasible. A
/// query cell becomes a clique slot, any other cell the constant it holds.
#[allow(clippy::too_many_arguments)]
fn build_clique(
    ds: &Dataset,
    c: &holo_constraints::DenialConstraint,
    t1: TupleId,
    t2: TupleId,
    query: &QueryCells<'_>,
    weight: holo_factor::WeightId,
    eq_pairs: &[(AttrId, AttrId)],
    out: &mut Fragment,
) -> bool {
    // Remaining equality joins must be domain-feasible.
    for &(a1, a2) in eq_pairs.iter().skip(1) {
        let c1 = CellRef {
            tuple: t1,
            attr: a1,
        };
        let c2 = CellRef {
            tuple: t2,
            attr: a2,
        };
        let mut s1 = [Sym::NULL];
        let mut s2 = [Sym::NULL];
        let d1 = query.domain(ds, c1, &mut s1);
        let d2 = query.domain(ds, c2, &mut s2);
        if !d1.iter().any(|v| d2.contains(v)) {
            return false;
        }
    }

    let vars = &mut out.vars;
    vars.clear();
    let mut operand_of = |tv: TupleVar, attr: AttrId| -> FactorOperand {
        let tuple = match tv {
            TupleVar::T1 => t1,
            TupleVar::T2 => t2,
        };
        let cell = CellRef { tuple, attr };
        match query.var(cell) {
            Some(var) => {
                let slot = match vars.iter().position(|&v| v == var) {
                    Some(pos) => pos as u8,
                    None => {
                        vars.push(var);
                        (vars.len() - 1) as u8
                    }
                };
                FactorOperand::Var(slot)
            }
            None => FactorOperand::Const(ds.cell_ref(cell)),
        }
    };
    out.predicates.clear();
    for p in &c.predicates {
        let lhs = operand_of(p.lhs_tuple, p.lhs_attr);
        let rhs = match p.rhs {
            Operand::Cell(tv, a) => operand_of(tv, a),
            Operand::Const(sym) => FactorOperand::Const(sym),
        };
        out.predicates.push(FactorPredicate {
            lhs,
            op: op_to_cmp(p.op),
            rhs,
        });
    }
    if out.vars.is_empty() {
        return false;
    }
    out.cliques.push(&out.vars, weight, &out.predicates);
    true
}

/// The compile that treats every attribute as trainable — all evidence,
/// τ-index lists for every target — kept as the reference the restricted
/// one is tested against. Needs statistics that hold every target.
#[cfg(test)]
pub(crate) fn compile_unfiltered(input: &CompileInput<'_>) -> Result<CompiledModel, HoloError> {
    compile_with(input, |seeds| vec![true; seeds.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use holo_constraints::{find_violations, noisy_cells, parse_constraints};
    use holo_factor::graph::FeatureVec;

    fn setup(variant: ModelVariant) -> (Dataset, ConstraintSet, HoloConfig) {
        let mut ds = Dataset::new(holo_dataset::Schema::new(vec!["Zip", "City"]));
        for _ in 0..6 {
            ds.push_row(&["60608", "Chicago"]);
        }
        ds.push_row(&["60608", "Cicago"]);
        ds.push_row(&["60609", "Evanston"]);
        // Clean ambiguity: Oak Park legitimately spans two zips, so its
        // clean Zip cells have multi-candidate domains → evidence for SGD.
        ds.push_row(&["60610", "Oak Park"]);
        ds.push_row(&["60611", "Oak Park"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let config = HoloConfig::default().with_variant(variant).with_tau(0.3);
        (ds, cons, config)
    }

    fn run_compile(ds: &Dataset, cons: &ConstraintSet, config: &HoloConfig) -> CompiledModel {
        let violations = find_violations(ds, cons);
        let noisy = noisy_cells(&violations);
        let stats = CooccurStats::build(ds);
        let matches = MatchLookup::default();
        compile(&CompileInput {
            ds,
            constraints: cons,
            noisy: &noisy,
            violations: &violations,
            stats: &stats,
            matches: &matches,
            config,
        })
        .unwrap()
    }

    #[test]
    fn dcfeats_compiles_independent_model() {
        let (ds, cons, config) = setup(ModelVariant::DcFeats);
        let model = run_compile(&ds, &cons, &config);
        assert!(!model.graph.has_cliques(), "relaxed model has no cliques");
        assert!(model.stats.query_vars > 0);
        assert!(model.stats.evidence_vars > 0);
        assert!(model.stats.factors > 0);
        // Query cells all carry ≥ 2 candidates.
        for &v in &model.query_vars {
            assert!(model.graph.var(v).arity() >= 2);
        }
    }

    #[test]
    fn dcfactors_grounds_cliques() {
        let (ds, cons, config) = setup(ModelVariant::DcFactors);
        let model = run_compile(&ds, &cons, &config);
        assert!(model.graph.has_cliques());
        assert!(model.stats.cliques > 0);
        assert!(model.stats.dc_pairs_considered >= model.stats.cliques);
    }

    #[test]
    fn partitioning_grounds_no_more_than_unpartitioned() {
        let (ds, cons, config) = setup(ModelVariant::DcFactors);
        let unpart = run_compile(&ds, &cons, &config);
        let config_p = config.with_variant(ModelVariant::DcFactorsPartitioned);
        let part = run_compile(&ds, &cons, &config_p);
        assert!(part.stats.cliques <= unpart.stats.cliques);
        assert!(part.stats.dc_pairs_considered <= unpart.stats.dc_pairs_considered);
    }

    /// The clique cap is a hard stop: a constraint grounds exactly
    /// `clique_cap` cliques, the first ones of the uncapped grounding, and
    /// records the hit.
    #[test]
    fn clique_cap_stops_grounding() {
        let (ds, cons, config) = setup(ModelVariant::DcFactors);
        let model = run_compile(&ds, &cons, &config);
        assert!(model.stats.cliques > 3);
        assert_eq!(model.stats.clique_cap_hits, 0);
        // The compiled model's query variables, re-grounded under a cap.
        let query = model_query(&ds, &model);
        let mut cstats = CompileStats::default();
        let cliques = ground_dc_factors(
            &mut FeatureRegistry::new(),
            &ds,
            &cons,
            &query,
            &config,
            None,
            &mut cstats,
            3,
        );
        assert_eq!(cstats.cliques, 3);
        assert_eq!(cstats.clique_cap_hits, 1);
        assert_eq!(cliques.len(), 3);
        // Every pair here builds its clique, so the count stops at the cap
        // too: the pairs after the third clique are not billed.
        assert_eq!(model.stats.dc_pairs_considered, model.stats.cliques);
        assert_eq!(cstats.dc_pairs_considered, 3);
        for (capped, full) in cliques.iter().zip(model.graph.cliques().iter()) {
            assert_eq!(capped.vars(), full.vars());
            assert!(capped.predicates().eq(full.predicates()));
        }
    }

    /// The query variables of a compiled model, by cell.
    fn model_query<'m>(ds: &Dataset, model: &'m CompiledModel) -> QueryCells<'m> {
        let vars = &model.graph.vars()[..model.query_vars.len()];
        QueryCells::new(ds, &model.query_cells, vars)
    }

    /// The discover-everything-then-build grounding the blocked one
    /// replaced, kept as its reference: every pair the (value) buckets
    /// offer is discovered, the Algorithm 3 check is a hash-map lookup per
    /// partner, and the pairs are built in order until the cap.
    #[allow(clippy::too_many_arguments)]
    fn reference_ground(
        registry: &mut FeatureRegistry<FeatureKey>,
        ds: &Dataset,
        constraints: &ConstraintSet,
        query: &QueryCells<'_>,
        config: &HoloConfig,
        components: Option<&[FxHashMap<TupleId, u32>]>,
        cstats: &mut CompileStats,
        clique_cap: usize,
    ) -> CliqueArena {
        let threads = config.effective_threads();
        let weight = registry.fixed(FeatureKey::DcFactor, DC_FACTOR_WEIGHT);
        let tuples: Vec<TupleId> = ds.tuples().collect();
        let mut built = Fragment::default();
        for (sigma, c) in constraints.iter() {
            if !c.two_tuple {
                for &t in &tuples {
                    build_clique(ds, c, t, t, query, weight, &[], &mut built);
                }
                continue;
            }
            let scan = PairScan::new(c, TupleVar::T1);
            let eq_pairs: Vec<(AttrId, AttrId)> =
                std::iter::zip(scan.probe_key, scan.partner_key).collect();
            if eq_pairs.is_empty() {
                cstats.dc_skipped_no_join_key += 1;
                continue;
            }
            let symmetric = c.is_symmetric();
            let (block_a1, block_a2) = eq_pairs[0];
            let mut buckets: FxHashMap<Sym, Vec<TupleId>> = FxHashMap::default();
            let mut singleton = [Sym::NULL];
            for t in ds.tuples() {
                let cell = CellRef::new(t.index(), block_a2.index());
                for &v in query.domain(ds, cell, &mut singleton) {
                    if !v.is_null() {
                        buckets.entry(v).or_default().push(t);
                    }
                }
            }
            let component = components.map(|m| &m[sigma]);
            let pairs: Vec<(TupleId, TupleId)> =
                holo_parallel::parallel_flat_map(threads, &tuples, |_, &t1| {
                    let t1_comp = component.and_then(|m| m.get(&t1).copied());
                    if component.is_some() && t1_comp.is_none() {
                        return Vec::new();
                    }
                    let cell1 = CellRef::new(t1.index(), block_a1.index());
                    let mut singleton1 = [Sym::NULL];
                    let mut seen: FxHashSet<TupleId> = FxHashSet::default();
                    let mut found = Vec::new();
                    for &v in query.domain(ds, cell1, &mut singleton1) {
                        let Some(bucket) = buckets.get(&v).filter(|_| !v.is_null()) else {
                            continue;
                        };
                        for &t2 in bucket {
                            if t1 == t2 || (symmetric && t1 >= t2) {
                                continue;
                            }
                            if let (Some(tc), Some(m)) = (t1_comp, component) {
                                if m.get(&t2) != Some(&tc) {
                                    continue;
                                }
                            }
                            if seen.insert(t2) {
                                found.push((t1, t2));
                            }
                        }
                    }
                    found
                });
            let mut cliques_here = 0usize;
            for (t1, t2) in pairs {
                cstats.dc_pairs_considered += 1;
                if !build_clique(ds, c, t1, t2, query, weight, &eq_pairs, &mut built) {
                    continue;
                }
                cliques_here += 1;
                cstats.cliques += 1;
                if cliques_here >= clique_cap {
                    cstats.clique_cap_hits += 1;
                    break;
                }
            }
        }
        built.cliques
    }

    /// The per-constraint tuple → group maps the reference grounds inside,
    /// from the hypergraph's groups.
    fn reference_components(
        constraints: &ConstraintSet,
        violations: &[Violation],
        tuple_count: usize,
    ) -> Vec<FxHashMap<TupleId, u32>> {
        let hypergraph = holo_constraints::ConflictHypergraph::build(violations.to_vec());
        let mut maps = vec![FxHashMap::default(); constraints.len()];
        let mut next_id = vec![0; constraints.len()];
        for (sigma, tuples) in &hypergraph.tuple_groups(tuple_count).groups {
            for &t in tuples {
                maps[*sigma].insert(t, next_id[*sigma]);
            }
            next_id[*sigma] += 1;
        }
        maps
    }

    /// Blocked, query-bearing grounding ≡ the reference: the same cliques
    /// (members, predicates, order), clique count and cap hits, and no
    /// more pairs considered — on the hospital and food generators, for
    /// `DcFactors` and `DcFactorsPartitioned`, at 1 and 4 threads, uncapped
    /// and under caps that bind inside a block of probe tuples (at the
    /// first clique, and at half a constraint's mean clique count, blocks
    /// in). Inputs are the compiled model's query variables; the blocked
    /// grounding reads the groups from the value groups, the reference
    /// from the hypergraph of the violation list.
    #[test]
    fn blocked_grounding_equals_the_reference() {
        let gens = [
            holo_datagen::hospital(holo_datagen::HospitalConfig {
                rows: 600,
                ..Default::default()
            }),
            holo_datagen::food(holo_datagen::FoodConfig {
                establishments: 60,
                ..Default::default()
            }),
        ];
        for gen in gens {
            let tau = gen.kind.paper_tau();
            let mut ds = gen.dirty;
            let cons = parse_constraints(&gen.constraints_text, &mut ds).unwrap();
            assert!(ds.tuple_count() > 2 * GROUND_BLOCK_TUPLES, "{:?}", gen.kind);
            let violations = find_violations(&ds, &cons);
            let noisy = noisy_cells(&violations);
            let stats = CooccurStats::build(&ds);
            for variant in [ModelVariant::DcFactors, ModelVariant::DcFactorsPartitioned] {
                let config = HoloConfig::default().with_variant(variant).with_tau(tau);
                let model = compile(&CompileInput {
                    ds: &ds,
                    constraints: &cons,
                    noisy: &noisy,
                    violations: &violations,
                    stats: &stats,
                    matches: &MatchLookup::default(),
                    config: &config,
                })
                .unwrap();
                let query = model_query(&ds, &model);
                let partitioned = variant.uses_partitioning();
                let groups = partitioned.then(|| find_tuple_groups_with_threads(&ds, &cons, 1));
                let maps =
                    partitioned.then(|| reference_components(&cons, &violations, ds.tuple_count()));
                let ground = |threads: usize, cap: usize, reference: bool| {
                    let config = config.clone().with_threads(threads);
                    let mut cstats = CompileStats::default();
                    let registry = &mut FeatureRegistry::new();
                    let cliques = match reference {
                        true => reference_ground(
                            registry,
                            &ds,
                            &cons,
                            &query,
                            &config,
                            maps.as_deref(),
                            &mut cstats,
                            cap,
                        ),
                        false => ground_dc_factors(
                            registry,
                            &ds,
                            &cons,
                            &query,
                            &config,
                            groups.as_deref(),
                            &mut cstats,
                            cap,
                        ),
                    };
                    (cliques, cstats)
                };
                // Half the mean per constraint: the largest binds it.
                let (_, full_stats) = ground(1, usize::MAX, true);
                let mid = full_stats.cliques / (2 * cons.len());
                assert!(mid > 1, "{:?} {variant:?}", gen.kind);
                for cap in [usize::MAX, 1, mid] {
                    let (want, want_stats) = ground(1, cap, true);
                    assert_eq!(want_stats.clique_cap_hits > 0, cap < usize::MAX);
                    for threads in [1, 4] {
                        let (got, got_stats) = ground(threads, cap, false);
                        let what =
                            format!("{:?} {variant:?} cap {cap} threads {threads}", gen.kind);
                        assert_eq!(got.len(), want.len(), "{what}");
                        for (a, b) in got.iter().zip(want.iter()) {
                            assert_eq!(a, b, "{what}");
                        }
                        assert_eq!(got_stats.cliques, want_stats.cliques, "{what}");
                        assert_eq!(
                            got_stats.clique_cap_hits, want_stats.clique_cap_hits,
                            "{what}"
                        );
                        assert!(got_stats.dc_pairs_considered <= want_stats.dc_pairs_considered);
                        assert!(got_stats.dc_pairs_considered >= got_stats.cliques, "{what}");
                    }
                }
            }
        }
    }

    /// The hospital table's DC-factor model stores its cliques in at most
    /// 64 bytes each — scope, predicates, offsets and weight, no growth
    /// slack — and says so in its stats.
    #[test]
    fn hospital_cliques_take_at_most_64_bytes_each() {
        let gen = holo_datagen::hospital(holo_datagen::HospitalConfig::default());
        let mut ds = gen.dirty;
        let cons = parse_constraints(&gen.constraints_text, &mut ds).unwrap();
        let config = HoloConfig::default()
            .with_variant(ModelVariant::DcFactorsPartitioned)
            .with_tau(gen.kind.paper_tau());
        let model = run_compile(&ds, &cons, &config);
        let cliques = model.graph.cliques().len();
        assert!(cliques > 10_000, "{cliques} cliques");
        assert_eq!(model.stats.clique_bytes, model.graph.clique_bytes());
        assert!(
            model.graph.clique_bytes() <= 64 * cliques,
            "{} bytes for {cliques} cliques",
            model.graph.clique_bytes()
        );
    }

    /// A single-tuple DC grounds one clique per tuple with a query cell in
    /// it, in tuple order: the query cell is a slot, the clean cell a
    /// frozen constant, and an all-clean tuple grounds nothing.
    #[test]
    fn single_tuple_dc_grounds_one_clique_per_tuple_with_a_query_cell() {
        let mut ds = Dataset::new(holo_dataset::Schema::new(vec!["State", "City"]));
        for _ in 0..6 {
            ds.push_row(&["IL", "Chicago"]);
        }
        ds.push_row(&["IL", "Cicago"]);
        ds.push_row(&["WI", "Madison"]);
        ds.push_row(&["IL", "Chicgo"]);
        let cons =
            parse_constraints("t1&EQ(t1.State,\"IL\")&IQ(t1.City,\"Chicago\")", &mut ds).unwrap();
        let config = HoloConfig::default()
            .with_variant(ModelVariant::DcFactors)
            .with_tau(0.3);
        // The misspelt cities are noisy; every State cell stays clean.
        let cells = [CellRef::new(6usize, 1), CellRef::new(8usize, 1)];
        let noisy: FxHashSet<CellRef> = cells.into_iter().collect();
        let violations = find_violations(&ds, &cons);
        let stats = CooccurStats::build(&ds);
        let matches = MatchLookup::default();
        let model = compile(&CompileInput {
            ds: &ds,
            constraints: &cons,
            noisy: &noisy,
            violations: &violations,
            stats: &stats,
            matches: &matches,
            config: &config,
        })
        .unwrap();
        assert_eq!(model.query_cells, cells);
        let [il, chicago] =
            ["IL", "Chicago"].map(|v| FactorOperand::Const(ds.pool().get(v).unwrap()));
        let pred = |lhs, op, rhs| FactorPredicate { lhs, op, rhs };
        let want = [
            pred(il, CmpOp::Eq, il),
            pred(FactorOperand::Var(0), CmpOp::Neq, chicago),
        ];
        let cliques = model.graph.cliques();
        assert_eq!(cliques.len(), 2, "tuples 6 and 8; none for WI");
        for (clique, &v) in cliques.iter().zip(&model.query_vars) {
            assert_eq!(clique.vars(), [v]);
            assert!(clique.predicates().eq(want));
        }
    }

    /// A two-tuple DC with no cross-tuple equality has no join key: it is
    /// skipped under its own counter, not billed as a clique-cap hit.
    #[test]
    fn inequality_only_dc_is_skipped_not_capped() {
        let (mut ds, _, config) = setup(ModelVariant::DcFactors);
        let cons = parse_constraints("t1&t2&IQ(t1.City,t2.City)", &mut ds).unwrap();
        let model = run_compile(&ds, &cons, &config);
        assert_eq!(model.stats.clique_cap_hits, 0);
        assert_eq!(model.stats.dc_skipped_no_join_key, 1);
        assert_eq!(model.stats.cliques, 0);
    }

    #[test]
    fn singleton_domains_are_skipped() {
        // τ = 0.99 prunes everything except the initial value.
        let (ds, cons, config) = setup(ModelVariant::DcFeats);
        let config = config.with_tau(0.99);
        let model = run_compile(&ds, &cons, &config);
        assert!(model.stats.singleton_noisy_cells > 0);
        // Remaining query vars (if any) still have proper domains.
        for &v in &model.query_vars {
            assert!(model.graph.var(v).arity() >= 2);
        }
    }

    /// Dictionary-asserted values join the domains of noisy and evidence
    /// cells alike: after the pruned candidates, in `matches.keys()` order,
    /// and only when the domain lacks them.
    #[test]
    fn dictionary_assertions_extend_domains() {
        let (ds, cons, config) = setup(ModelVariant::DcFeats);
        let violations = find_violations(&ds, &cons);
        let noisy = noisy_cells(&violations);
        let stats = CooccurStats::build(&ds);
        // Out-of-domain values for a noisy cell and a clean one (60609's
        // Evanston, an evidence cell only once a value is asserted).
        let mut ds2 = ds.clone();
        let exotic = ["Berwyn", "Cicero", "Skokie"].map(|v| ds2.intern(v));
        let city = ds2.schema().attr_id("City").unwrap();
        let cell = *noisy.iter().find(|c| c.attr == city).unwrap();
        let clean = CellRef::new(7usize, city.index());
        assert!(!noisy.contains(&clean));
        let chicago = ds2.pool().get("Chicago").unwrap();
        let mut matches = MatchLookup::default();
        for &v in exotic.iter().chain([&chicago]) {
            matches.insert((cell, v), vec![0]);
            matches.insert((clean, v), vec![0]);
        }
        let model = compile(&CompileInput {
            ds: &ds2,
            constraints: &cons,
            noisy: &noisy,
            violations: &violations,
            stats: &stats,
            matches: &matches,
            config: &config,
        })
        .unwrap();
        let asserted = |of: CellRef| -> Vec<Sym> {
            let keys = matches.keys().filter(|&&(c, _)| c == of);
            keys.map(|&(_, v)| v).collect()
        };
        let var = model
            .query_cells
            .iter()
            .position(|&c| c == cell)
            .map(|i| model.query_vars[i])
            .unwrap();
        let domain = &model.graph.var(var).domain;
        let tail: Vec<Sym> = asserted(cell)
            .into_iter()
            .filter(|v| v != &chicago)
            .collect();
        assert!(domain.ends_with(&tail), "{domain:?}");
        assert_eq!(domain.iter().filter(|&&v| v == chicago).count(), 1);
        let evidence = model
            .evidence_cells
            .iter()
            .position(|&c| c == clean)
            .unwrap();
        let var = VarId((model.query_vars.len() + evidence) as u32);
        let evanston = ds2.pool().get("Evanston").unwrap();
        let want: Vec<Sym> = std::iter::once(evanston).chain(asserted(clean)).collect();
        assert_eq!(model.graph.var(var).domain, want);
    }

    #[test]
    fn evidence_sampling_respects_cap() {
        let (ds, cons, config) = setup(ModelVariant::DcFeats);
        let noisy = noisy_cells(&find_violations(&ds, &cons));
        // Three clean cells per attribute, two kept.
        let selected = select_evidence_cells(&ds, &noisy, &[true; 2], config.seed, 2);
        for attr in ds.schema().attrs() {
            assert_eq!(selected.iter().filter(|c| c.attr == attr).count(), 2);
        }
    }

    /// The 60 × 4 table of the selection tests: nulls in `B`, and one
    /// noisy cell in every fifth row.
    fn sampling_table() -> (Dataset, FxHashSet<CellRef>) {
        let mut ds = Dataset::new(holo_dataset::Schema::new(vec!["A", "B", "C", "D"]));
        for i in 0..60 {
            let b = if i % 9 == 0 { "" } else { "b" };
            ds.push_row(&[&format!("a{}", i % 7), b, &format!("c{i}"), "d"]);
        }
        let noisy: FxHashSet<CellRef> = (0..60usize)
            .filter(|t| t % 5 == 1)
            .map(|t| CellRef::new(t, t % 4))
            .collect();
        (ds, noisy)
    }

    /// A kept attribute gets exactly the cells the all-attributes
    /// selection picks for it, whichever attributes around it are skipped.
    /// Noisy and null cells are never evidence.
    #[test]
    fn skipped_attributes_leave_the_kept_selections_unchanged() {
        let (ds, noisy) = sampling_table();
        let seed = HoloConfig::default().seed;
        let all = select_evidence_cells(&ds, &noisy, &[true; 4], seed, 10);
        for attr in ds.schema().attrs() {
            assert_eq!(all.iter().filter(|c| c.attr == attr).count(), 10);
        }
        for cell in &all {
            assert!(!noisy.contains(cell));
            assert!(!ds.cell_ref(*cell).is_null());
        }
        for skip in 0u8..16 {
            let mask: Vec<bool> = (0..4).map(|a| skip >> a & 1 == 0).collect();
            let expected: Vec<CellRef> = all
                .iter()
                .copied()
                .filter(|c| mask[c.attr.index()])
                .collect();
            let kept = select_evidence_cells(&ds, &noisy, &mask, seed, 10);
            assert_eq!(kept, expected, "mask {mask:?}");
        }
    }

    /// Bottom-k is stable under small edits: a cell that leaves the noisy
    /// set (a label, or a partner a label unflags) swaps at most one member
    /// of its attribute's sample and leaves every other attribute's alone.
    #[test]
    fn unflagging_a_cell_moves_at_most_one_member() {
        let (ds, noisy) = sampling_table();
        let seed = HoloConfig::default().seed;
        let before = select_evidence_cells(&ds, &noisy, &[true; 4], seed, 10);
        let mut swaps = 0;
        for &cell in &noisy {
            let mut fewer = noisy.clone();
            fewer.remove(&cell);
            let after = select_evidence_cells(&ds, &fewer, &[true; 4], seed, 10);
            let left: Vec<_> = before.iter().filter(|c| !after.contains(c)).collect();
            let joined: Vec<_> = after.iter().filter(|c| !before.contains(c)).collect();
            assert_eq!(left.len(), joined.len(), "{cell}: the cap still holds");
            assert!(left.len() <= 1, "{cell}: {left:?} -> {joined:?}");
            if let Some(&&joined) = joined.first() {
                assert_eq!(joined, cell, "only the unflagged cell can join");
                assert_eq!(left[0].attr, cell.attr, "other attributes keep theirs");
                swaps += 1;
            }
        }
        assert!(swaps > 0, "some unflagged cell ranks into its sample");
    }

    #[test]
    fn compile_deterministic_under_seed() {
        let (ds, cons, config) = setup(ModelVariant::DcFeats);
        let m1 = run_compile(&ds, &cons, &config);
        let m2 = run_compile(&ds, &cons, &config);
        assert_eq!(m1.stats.query_vars, m2.stats.query_vars);
        assert_eq!(m1.stats.evidence_vars, m2.stats.evidence_vars);
        assert_eq!(m1.stats.factors, m2.stats.factors);
        assert_eq!(m1.query_cells, m2.query_cells);
    }

    /// The phase list is part of `diag --json`'s surface: names and order
    /// are pinned, `ground` appearing exactly on the DC-factor variants.
    #[test]
    fn phases_are_named_and_ordered() {
        let expected = [
            "index build",
            "noisy prune",
            "evidence prune",
            "variables",
            "featurizer setup",
            "featurize",
            "assemble",
            "ground",
        ];
        for (variant, n) in [(ModelVariant::DcFeats, 7), (ModelVariant::DcFactors, 8)] {
            let (ds, cons, config) = setup(variant);
            let model = run_compile(&ds, &cons, &config);
            let names: Vec<&str> = model.stats.phases.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, expected[..n], "{variant:?}");
        }
    }

    /// The pre-CSR pipeline, kept as the reference of the one-pass build:
    /// each variable in turn is featurized into a fresh buffer and
    /// expanded `to_rows`.
    fn reference_build(
        signals: &Signals<'_>,
        cells: &[CellRef],
        vars: &[Variable],
    ) -> (FeatureRegistry<FeatureKey>, Vec<Vec<FeatureVec>>) {
        let mut registry = FeatureRegistry::new();
        let rows = cells
            .iter()
            .zip(vars)
            .map(|(&cell, var)| {
                let mut buf = FeatureBuffer::default();
                signals.collect(&mut buf, cell, &var.domain);
                buf.to_rows(&mut registry, var.arity())
            })
            .collect();
        (registry, rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// One-pass featurization ≡ the reference pipeline: identical
        /// registry (key → id, fixed mask, initial values) and design rows,
        /// at 1, 2 and 4 threads — over random tables
        /// with nulls, DC sets with and without relaxed features,
        /// dictionary-asserted out-of-domain candidates, the source
        /// featurizer, variable counts that do not divide into the chunks,
        /// groups that come out empty, and a variable with no features.
        #[test]
        fn one_pass_featurization_equals_reference(
            rows in proptest::collection::vec((0u8..4, 0u8..3, 0u8..4, 0u8..4), 17..36),
            dcs in 0usize..3,
            with_source in 0u8..2,
            with_dc_features in 0u8..2,
            min_support in 1u32..3,
            salt in 0usize..7,
        ) {
            // 0 encodes a null cell.
            let cs = |p: &str, v: u8| if v == 0 { String::new() } else { format!("{p}{v}") };
            let mut ds = Dataset::new(holo_dataset::Schema::new(vec!["E", "S", "A", "B"]));
            // An all-null tuple: its variables carry no feature at all,
            // bar a dictionary assertion.
            ds.push_row(&["", "", "", ""]);
            for &(e, s, a, b) in &rows {
                ds.push_row(&[cs("e", e), cs("s", s), cs("a", a), cs("b", b)]);
            }
            let text = ["", "FD: E -> A", "FD: A -> B\nt1&t2&EQ(t1.E,t2.E)&IQ(t1.B,t2.B)&IQ(t1.A,\"a1\")"];
            let cons = parse_constraints(text[dcs], &mut ds).unwrap();
            let asserted = ds.intern("dictionary-says");
            let mut config = HoloConfig::default().with_variant(if with_dc_features == 1 {
                ModelVariant::DcFeats
            } else {
                ModelVariant::DcFactors
            });
            config.min_cond_support = min_support;
            if with_source == 1 {
                config = config.with_source("E", "S");
            }

            // Every cell becomes a variable over part of its column (the
            // observed value first when there is one), every third one
            // with a dictionary-asserted value no row holds.
            let mut cells = Vec::new();
            let mut vars = Vec::new();
            let mut matches = MatchLookup::default();
            for t in ds.tuples() {
                for attr in ds.schema().attrs() {
                    let cell = CellRef { tuple: t, attr };
                    let i = cells.len() + salt;
                    let mut domain: Vec<Sym> = Vec::new();
                    let column = ds.tuples().map(|u| ds.cell(u, attr)).filter(|v| !v.is_null());
                    for v in std::iter::once(ds.cell_ref(cell)).chain(column.skip(i % 3)) {
                        if !v.is_null() && !domain.contains(&v) && domain.len() < 2 + i % 3 {
                            domain.push(v);
                        }
                    }
                    if i % 3 == 0 || domain.is_empty() {
                        domain.push(asserted);
                        matches.insert((cell, asserted), vec![(i % 2) as u32, 2]);
                    }
                    let var = if i % 2 == 0 || ds.cell_ref(cell).is_null() {
                        Variable::query(domain, None)
                    } else {
                        Variable::evidence(domain, 0)
                    };
                    cells.push(cell);
                    vars.push(var);
                }
            }
            // Cut the count off the multiples of 4 so chunks come out uneven.
            cells.truncate(cells.len() - salt % 4);
            vars.truncate(cells.len());
            proptest::prop_assert!(cells.len() >= holo_parallel::MIN_PARALLEL_ITEMS);

            let stats = CooccurStats::build(&ds);
            let (noisy, violations) = (FxHashSet::default(), Vec::new());
            let signals = Signals::new(&CompileInput {
                ds: &ds,
                constraints: &cons,
                noisy: &noisy,
                violations: &violations,
                stats: &stats,
                matches: &matches,
                config: &config,
            })
            .unwrap();
            let (ref_registry, ref_rows) = reference_build(&signals, &cells, &vars);
            let featureless = ref_rows
                .iter()
                .filter(|rows| rows.iter().all(Vec::is_empty))
                .count();
            proptest::prop_assert!(featureless >= 1, "the all-null tuple's variables");
            for threads in [1usize, 2, 4] {
                let (registry, design) = assemble(signals.featurize(threads, &cells, &vars));
                proptest::prop_assert_eq!(design.var_count(), vars.len());
                for (i, rows) in ref_rows.iter().enumerate() {
                    let v = VarId(i as u32);
                    proptest::prop_assert_eq!(design.var_range(v).len(), rows.len());
                    for (k, row) in rows.iter().enumerate() {
                        proptest::prop_assert_eq!(
                            design.row(design.row_of(v, k)), &row[..],
                            "var {} candidate {}, threads = {}", i, k, threads
                        );
                    }
                }
                proptest::prop_assert_eq!(registry.len(), ref_registry.len());
                proptest::prop_assert_eq!(registry.build_weights(), ref_registry.build_weights());
                let mut buf = FeatureBuffer::default();
                for (&cell, var) in cells.iter().zip(&vars) {
                    buf.clear();
                    signals.collect(&mut buf, cell, &var.domain);
                    for key in buf.keys() {
                        proptest::prop_assert_eq!(registry.get(&key), ref_registry.get(&key));
                    }
                }
            }
        }
    }
}
