//! Automatic featurization — translating repair signals into inference-rule
//! groundings (§4.2).
//!
//! Every signal becomes unary features over the `Value?(t, a, d)` variables:
//!
//! * **Quantitative statistics** — `Value?(t,a,d) :- HasFeature(t,a,f)
//!   weight = w(d,f)`: one feature per (candidate `d`, co-occurring cell
//!   value `f = "A'=v'"`), weight learned per `(d, f)`.
//! * **Minimality prior** — `Value?(t,a,d) :- InitValue(t,a,d) weight = w`:
//!   a fixed positive weight on keeping the observed value.
//! * **External data** — `Value?(t,a,d) :- Matched(t,a,d,k) weight = w(k)`:
//!   one learned reliability weight per dictionary `k`.
//! * **Relaxed denial constraints** (§5.2, Example 6) — for each constraint
//!   σ and candidate `d`, the feature value counts the partner tuples whose
//!   *initial* values would jointly violate σ if the cell took value `d`;
//!   the weight `w(σ)` is learned (and comes out negative: violations are
//!   evidence against a candidate).
//! * **Source reliability** (§4.1 lineage features, following SLiMFast
//!   \[35\]) — for multi-source data, a candidate asserted by source `s`
//!   (via another tuple about the same entity) carries a feature with
//!   learned weight `w(s)`.

use crate::config::HoloConfig;
use holo_constraints::ast::{eval_op, Operand, TupleVar};
use holo_constraints::{ConstraintId, ConstraintSet, DenialConstraint};
use holo_dataset::{AttrId, CellRef, Dataset, FxHashMap, Sym, TupleId};
use holo_factor::{FactorGraph, FeatureRegistry, VarId};

/// Structured feature keys; interning them yields the tied weights.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FeatureKey {
    /// Quantitative-statistics feature `w(d, f)` with `f = (A', v')`.
    Cooccur {
        /// Attribute of the cell.
        attr: AttrId,
        /// Candidate value `d`.
        value: Sym,
        /// Conditioning attribute `A'`.
        cond_attr: AttrId,
        /// Conditioning value `v'`.
        cond_value: Sym,
    },
    /// The minimality prior (single fixed weight).
    Minimality,
    /// External-dictionary reliability `w(k)`.
    ExtDict {
        /// Dictionary id `k`.
        dict: u32,
    },
    /// Relaxed denial-constraint feature `w(σ)`.
    DcViolation {
        /// Constraint id σ.
        constraint: ConstraintId,
    },
    /// Source-reliability feature `w(s)`.
    Source {
        /// The asserting source (interned name).
        source: Sym,
    },
    /// Per-attribute empirical-distribution feature: the candidate's mean
    /// conditional probability given the tuple's other cells.
    Distribution {
        /// Attribute of the cell.
        attr: AttrId,
    },
    /// Fixed weight of grounded DC clique factors (Algorithm 1).
    DcFactor,
}

/// Pre-computed external-match lookup: `(cell, candidate) → dictionaries
/// asserting it` (the `Matched` relation keyed for featurization).
pub type MatchLookup = FxHashMap<(CellRef, Sym), Vec<u32>>;

/// How a buffered feature's weight is obtained from the registry at apply
/// time.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightSpec {
    /// `registry.learnable(key)`.
    Learnable(FeatureKey),
    /// `registry.learnable_init(key, prior)`.
    LearnableInit(FeatureKey, f64),
    /// `registry.fixed(key, value)`.
    Fixed(FeatureKey, f64),
}

/// One queued grounding unit: either a feature with its own weight, or a
/// group of features sharing one weight (interned once at apply time).
#[derive(Debug, Clone, PartialEq)]
enum FeatureEntry {
    /// `(candidate slot, weight spec, feature value)`.
    Single(usize, WeightSpec, f64),
    /// One weight shared by several `(slot, value)` groundings — e.g. the
    /// per-attribute distribution feature across all candidates.
    Group(WeightSpec, Vec<(usize, f64)>),
}

/// Features of one variable, collected without touching the graph or the
/// registry — the unit of work the parallel featurization stage computes
/// per cell. Applying buffers **in variable order** keeps the registry
/// interning sequence deterministic, so weight ids (and therefore every
/// downstream number) are independent of the thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureBuffer {
    entries: Vec<FeatureEntry>,
}

impl FeatureBuffer {
    /// Queues one feature grounding.
    pub fn push(&mut self, slot: usize, spec: WeightSpec, value: f64) {
        self.entries.push(FeatureEntry::Single(slot, spec, value));
    }

    /// Queues a shared-weight group: `spec` is interned once and every
    /// `(slot, value)` grounds against the resulting weight. Empty groups
    /// are dropped — their weight is never interned. (An ungrounded weight
    /// contributes nothing to learning or inference, so this only shifts
    /// internal weight ids, never results.)
    pub fn push_group(&mut self, spec: WeightSpec, slots: Vec<(usize, f64)>) {
        if !slots.is_empty() {
            self.entries.push(FeatureEntry::Group(spec, slots));
        }
    }

    /// Number of queued groundings.
    pub fn len(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                FeatureEntry::Single(..) => 1,
                FeatureEntry::Group(_, slots) => slots.len(),
            })
            .sum()
    }

    /// Whether nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interns the queued weights and materialises the buffer as one
    /// feature row per candidate (in queue order, exactly the rows
    /// [`FeatureBuffer::apply`] would have grounded entry by entry) — the
    /// form [`holo_factor::FactorGraph::add_variable_with_features`]
    /// consumes to append a finished variable to a live design matrix
    /// with a single splice.
    pub fn to_rows(
        &self,
        registry: &mut FeatureRegistry<FeatureKey>,
        arity: usize,
    ) -> Vec<Vec<(holo_factor::WeightId, f64)>> {
        let intern = |registry: &mut FeatureRegistry<FeatureKey>, spec: &WeightSpec| match spec {
            WeightSpec::Learnable(key) => registry.learnable(key.clone()),
            WeightSpec::LearnableInit(key, prior) => registry.learnable_init(key.clone(), *prior),
            WeightSpec::Fixed(key, fixed) => registry.fixed(key.clone(), *fixed),
        };
        let mut rows = vec![Vec::new(); arity];
        for entry in &self.entries {
            match entry {
                FeatureEntry::Single(slot, spec, value) => {
                    let w = intern(registry, spec);
                    rows[*slot].push((w, *value));
                }
                FeatureEntry::Group(spec, slots) => {
                    let w = intern(registry, spec);
                    for (slot, value) in slots {
                        rows[*slot].push((w, *value));
                    }
                }
            }
        }
        rows
    }

    /// Interns the queued weights and grounds the features onto `var`,
    /// entry by entry through [`FactorGraph::add_feature`] (cheap while
    /// the graph has no compiled matrix — the bulk-build phase). One
    /// grounding semantics exists: this is [`FeatureBuffer::to_rows`]
    /// replayed onto an existing variable, per-candidate order included.
    pub fn apply(
        self,
        graph: &mut FactorGraph,
        registry: &mut FeatureRegistry<FeatureKey>,
        var: VarId,
    ) {
        let rows = self.to_rows(registry, graph.var(var).arity());
        for (k, row) in rows.into_iter().enumerate() {
            for (w, x) in row {
                graph.add_feature(var, k, w, x);
            }
        }
    }
}

/// Adds the quantitative-statistics features for one variable.
pub fn add_cooccur_features(
    graph: &mut FactorGraph,
    registry: &mut FeatureRegistry<FeatureKey>,
    ds: &Dataset,
    var: VarId,
    cell: CellRef,
    candidates: &[Sym],
) {
    let mut buf = FeatureBuffer::default();
    collect_cooccur_features(&mut buf, ds, cell, candidates);
    buf.apply(graph, registry, var);
}

/// Buffer-collecting form of [`add_cooccur_features`].
pub fn collect_cooccur_features(
    buf: &mut FeatureBuffer,
    ds: &Dataset,
    cell: CellRef,
    candidates: &[Sym],
) {
    for cond_attr in ds.schema().attrs() {
        if cond_attr == cell.attr {
            continue;
        }
        let cond_value = ds.cell(cell.tuple, cond_attr);
        if cond_value.is_null() {
            continue;
        }
        for (k, &d) in candidates.iter().enumerate() {
            let spec = WeightSpec::Learnable(FeatureKey::Cooccur {
                attr: cell.attr,
                value: d,
                cond_attr,
                cond_value,
            });
            buf.push(k, spec, 1.0);
        }
    }
}

/// Adds the empirical-distribution feature: for each candidate `d`, the
/// mean of `Pr[d | v']` across the tuple's other non-null cells whose
/// values clear `min_support`. One learnable weight per attribute,
/// initialised to `prior` — the signal is informative from the first
/// iteration even for values that never appear in clean evidence.
#[allow(clippy::too_many_arguments)]
pub fn add_distribution_feature(
    graph: &mut FactorGraph,
    registry: &mut FeatureRegistry<FeatureKey>,
    ds: &Dataset,
    stats: &holo_dataset::CooccurStats,
    var: VarId,
    cell: CellRef,
    candidates: &[Sym],
    min_support: u32,
    prior: f64,
) {
    let mut buf = FeatureBuffer::default();
    collect_distribution_feature(&mut buf, ds, stats, cell, candidates, min_support, prior);
    buf.apply(graph, registry, var);
}

/// Buffer-collecting form of [`add_distribution_feature`].
pub fn collect_distribution_feature(
    buf: &mut FeatureBuffer,
    ds: &Dataset,
    stats: &holo_dataset::CooccurStats,
    cell: CellRef,
    candidates: &[Sym],
    min_support: u32,
    prior: f64,
) {
    let mut sums = vec![0.0f64; candidates.len()];
    let mut cond_attrs = 0usize;
    // Dense backend: resolve each candidate's value code once per cell,
    // then probe count rows by code instead of re-hashing `(key, Sym)`
    // per (partner, candidate) pair. Unseen candidates get the sentinel
    // `u32::MAX`, which every block answers with count 0 — the same 0.0
    // probability the hash path yields, added in the same order, so the
    // sums are bit-identical.
    let cand_codes: Option<Vec<u32>> = stats.codes().map(|codes| {
        candidates
            .iter()
            .map(|&d| codes.code(cell.attr, d).unwrap_or(u32::MAX))
            .collect()
    });
    for cond_attr in ds.schema().attrs() {
        if cond_attr == cell.attr {
            continue;
        }
        let v_cond = ds.cell(cell.tuple, cond_attr);
        if v_cond.is_null() {
            continue;
        }
        let denom = stats.freq().count(cond_attr, v_cond);
        if denom < min_support.max(1) {
            continue;
        }
        cond_attrs += 1;
        if let Some(cc) = &cand_codes {
            let view = stats.group(cond_attr, v_cond, cell.attr);
            let df = f64::from(denom);
            for (k, &code) in cc.iter().enumerate() {
                let count = view.map_or(0, |g| g.count_by_code(code));
                sums[k] += f64::from(count) / df;
            }
        } else {
            for (k, &d) in candidates.iter().enumerate() {
                sums[k] += stats.conditional_prob(cond_attr, v_cond, cell.attr, d);
            }
        }
    }
    if cond_attrs == 0 {
        return;
    }
    let slots: Vec<(usize, f64)> = sums
        .iter()
        .enumerate()
        .filter_map(|(k, sum)| {
            let mean = sum / cond_attrs as f64;
            (mean > 0.0).then_some((k, mean))
        })
        .collect();
    buf.push_group(
        WeightSpec::LearnableInit(FeatureKey::Distribution { attr: cell.attr }, prior),
        slots,
    );
}

/// Adds the minimality prior: fires on the candidate equal to the initial
/// observed value.
pub fn add_minimality_feature(
    graph: &mut FactorGraph,
    registry: &mut FeatureRegistry<FeatureKey>,
    config: &HoloConfig,
    var: VarId,
    init: Sym,
    candidates: &[Sym],
) {
    let mut buf = FeatureBuffer::default();
    collect_minimality_feature(&mut buf, config, init, candidates);
    buf.apply(graph, registry, var);
}

/// Buffer-collecting form of [`add_minimality_feature`].
pub fn collect_minimality_feature(
    buf: &mut FeatureBuffer,
    config: &HoloConfig,
    init: Sym,
    candidates: &[Sym],
) {
    for (k, &d) in candidates.iter().enumerate() {
        if d == init {
            let spec = WeightSpec::Fixed(FeatureKey::Minimality, config.minimality_weight);
            buf.push(k, spec, 1.0);
        }
    }
}

/// Adds external-match features from the `Matched` lookup. Dictionary
/// weights start at `dict_prior` (learnable): external data is trusted a
/// priori and evidence cells with dictionary coverage recalibrate it.
pub fn add_external_features(
    graph: &mut FactorGraph,
    registry: &mut FeatureRegistry<FeatureKey>,
    matches: &MatchLookup,
    var: VarId,
    cell: CellRef,
    candidates: &[Sym],
    dict_prior: f64,
) {
    let mut buf = FeatureBuffer::default();
    collect_external_features(&mut buf, matches, cell, candidates, dict_prior);
    buf.apply(graph, registry, var);
}

/// Buffer-collecting form of [`add_external_features`].
pub fn collect_external_features(
    buf: &mut FeatureBuffer,
    matches: &MatchLookup,
    cell: CellRef,
    candidates: &[Sym],
    dict_prior: f64,
) {
    for (k, &d) in candidates.iter().enumerate() {
        if let Some(dicts) = matches.get(&(cell, d)) {
            for &dict in dicts {
                let spec = WeightSpec::LearnableInit(FeatureKey::ExtDict { dict }, dict_prior);
                buf.push(k, spec, 1.0);
            }
        }
    }
}

/// Relaxed denial-constraint featurizer (§5.2).
///
/// Holds per-constraint partner indexes so the would-be-violation counts
/// are computed with hash-join blocking rather than full scans.
pub struct DcFeaturizer<'a> {
    ds: &'a Dataset,
    constraints: &'a ConstraintSet,
    /// Per constraint, per role: blocking index over partner tuples.
    indexes: Vec<Vec<RoleIndex>>,
    /// Scan budget per (cell, candidate) — bounds worst-case block sizes.
    scan_cap: usize,
    /// Count saturation (equals the scan budget).
    count_cap: u32,
    /// Divisor applied to counts when emitting feature values, so SGD sees
    /// O(1)-magnitude features while the contribution stays *linear* in
    /// the violation count — Example 6 grounds one factor per partner
    /// tuple, so the total log-linear contribution is `w · count`.
    normalizer: f64,
    /// Initial value of the learnable per-constraint weights.
    prior: f64,
}

/// Blocking index for evaluating a constraint with the target cell playing
/// one specific role (t1 or t2).
struct RoleIndex {
    /// The role the *target* tuple plays.
    role: TupleVar,
    /// Attributes the constraint reads on the target cell's side, used to
    /// decide whether a cell participates at all.
    target_attrs: Vec<AttrId>,
    /// `(target-side attr, partner-side attr)` pairs of the cross-tuple
    /// equality predicates — the blocking key.
    eq_pairs: Vec<(AttrId, AttrId)>,
    /// Partner tuples bucketed by their side of the blocking key.
    buckets: FxHashMap<Vec<Sym>, Vec<TupleId>>,
}

impl<'a> DcFeaturizer<'a> {
    /// Builds the per-constraint indexes. `O(|Σ| · |D|)`.
    pub fn new(ds: &'a Dataset, constraints: &'a ConstraintSet, config: &HoloConfig) -> Self {
        let mut indexes = Vec::with_capacity(constraints.len());
        for (_, c) in constraints.iter() {
            let mut role_indexes = Vec::new();
            if c.two_tuple {
                role_indexes.push(RoleIndex::build(ds, c, TupleVar::T1));
                if !c.is_symmetric() {
                    role_indexes.push(RoleIndex::build(ds, c, TupleVar::T2));
                }
            }
            indexes.push(role_indexes);
        }
        DcFeaturizer {
            ds,
            constraints,
            indexes,
            scan_cap: 512,
            count_cap: 512,
            normalizer: f64::from(config.dc_feature_cap.max(1)),
            prior: config.dc_violation_prior,
        }
    }

    /// Would-be-violation counts of every candidate of `cell` for
    /// constraint `sigma`, with all other cells at their initial values.
    /// `component` optionally restricts partners to an Algorithm 3 group.
    pub fn violation_counts(
        &self,
        sigma: ConstraintId,
        cell: CellRef,
        candidates: &[Sym],
        component: Option<&FxHashMap<TupleId, u32>>,
    ) -> Vec<u32> {
        let c = self.constraints.get(sigma);
        let mut counts = vec![0u32; candidates.len()];
        for role_index in &self.indexes[sigma] {
            if !role_index.target_attrs.contains(&cell.attr) {
                continue;
            }
            role_index.accumulate(
                self.ds,
                c,
                cell,
                candidates,
                component,
                self.scan_cap,
                self.count_cap,
                &mut counts,
            );
        }
        counts
    }

    /// Adds the relaxed-DC features of one variable across all constraints.
    #[allow(clippy::too_many_arguments)]
    pub fn add_features(
        &self,
        graph: &mut FactorGraph,
        registry: &mut FeatureRegistry<FeatureKey>,
        var: VarId,
        cell: CellRef,
        candidates: &[Sym],
        components: Option<&[FxHashMap<TupleId, u32>]>,
    ) {
        let mut buf = FeatureBuffer::default();
        self.collect_features(&mut buf, cell, candidates, components);
        buf.apply(graph, registry, var);
    }

    /// Buffer-collecting form of [`DcFeaturizer::add_features`].
    pub fn collect_features(
        &self,
        buf: &mut FeatureBuffer,
        cell: CellRef,
        candidates: &[Sym],
        components: Option<&[FxHashMap<TupleId, u32>]>,
    ) {
        for (sigma, _) in self.constraints.iter() {
            let component = components.map(|c| &c[sigma]);
            let counts = self.violation_counts(sigma, cell, candidates, component);
            let slots: Vec<(usize, f64)> = counts
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(k, &count)| (k, f64::from(count) / self.normalizer))
                .collect();
            buf.push_group(
                WeightSpec::LearnableInit(
                    FeatureKey::DcViolation { constraint: sigma },
                    self.prior,
                ),
                slots,
            );
        }
    }
}

impl RoleIndex {
    fn build(ds: &Dataset, c: &DenialConstraint, role: TupleVar) -> Self {
        let (t1_attrs, t2_attrs) = c.attrs_by_tuple();
        let (target_attrs, _partner_attrs) = match role {
            TupleVar::T1 => (t1_attrs, t2_attrs),
            TupleVar::T2 => (t2_attrs, t1_attrs),
        };
        // Cross-tuple equality predicates, oriented (target attr, partner attr).
        let mut eq_pairs = Vec::new();
        for p in &c.predicates {
            if !p.is_cross_tuple_eq() {
                continue;
            }
            let rhs_attr = match p.rhs {
                Operand::Cell(_, a) => a,
                Operand::Const(_) => continue,
            };
            let (t1a, t2a) = match p.lhs_tuple {
                TupleVar::T1 => (p.lhs_attr, rhs_attr),
                TupleVar::T2 => (rhs_attr, p.lhs_attr),
            };
            match role {
                TupleVar::T1 => eq_pairs.push((t1a, t2a)),
                TupleVar::T2 => eq_pairs.push((t2a, t1a)),
            }
        }
        // Bucket partner tuples by their side of the key (initial values).
        let mut buckets: FxHashMap<Vec<Sym>, Vec<TupleId>> = FxHashMap::default();
        'tuples: for t in ds.tuples() {
            let mut key = Vec::with_capacity(eq_pairs.len());
            for &(_, partner_attr) in &eq_pairs {
                let v = ds.cell(t, partner_attr);
                if v.is_null() {
                    continue 'tuples;
                }
                key.push(v);
            }
            buckets.entry(key).or_default().push(t);
        }
        RoleIndex {
            role,
            target_attrs,
            eq_pairs,
            buckets,
        }
    }

    /// Accumulates per-candidate violation counts into `counts`.
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &self,
        ds: &Dataset,
        c: &DenialConstraint,
        cell: CellRef,
        candidates: &[Sym],
        component: Option<&FxHashMap<TupleId, u32>>,
        scan_cap: usize,
        count_cap: u32,
        counts: &mut [u32],
    ) {
        let target_component = component.and_then(|m| m.get(&cell.tuple).copied());
        if component.is_some() && target_component.is_none() {
            // Partitioning on, and this tuple is in no conflict component:
            // no partners to consider.
            return;
        }
        let mut key = Vec::with_capacity(self.eq_pairs.len());
        for (k, &d) in candidates.iter().enumerate() {
            key.clear();
            let mut key_ok = true;
            for &(target_attr, _) in &self.eq_pairs {
                let v = if target_attr == cell.attr {
                    d
                } else {
                    ds.cell(cell.tuple, target_attr)
                };
                if v.is_null() {
                    key_ok = false;
                    break;
                }
                key.push(v);
            }
            if !key_ok {
                continue;
            }
            let Some(bucket) = self.buckets.get(&key) else {
                continue;
            };
            let mut scanned = 0usize;
            for &partner in bucket {
                if partner == cell.tuple {
                    continue;
                }
                if let (Some(tc), Some(m)) = (target_component, component) {
                    if m.get(&partner) != Some(&tc) {
                        continue;
                    }
                }
                scanned += 1;
                if scanned > scan_cap {
                    break;
                }
                let violated = match self.role {
                    TupleVar::T1 => eval_constraint_subst(
                        ds,
                        c,
                        cell.tuple,
                        partner,
                        cell.attr,
                        d,
                        TupleVar::T1,
                    ),
                    TupleVar::T2 => eval_constraint_subst(
                        ds,
                        c,
                        partner,
                        cell.tuple,
                        cell.attr,
                        d,
                        TupleVar::T2,
                    ),
                };
                if violated {
                    counts[k] += 1;
                    if counts[k] >= count_cap {
                        break;
                    }
                }
            }
        }
    }
}

/// Evaluates all predicates of `c` for the pair `(t1, t2)` with a single
/// substituted cell: the cell `(subst_role, subst_attr)` reads `subst_value`
/// instead of its stored value.
fn eval_constraint_subst(
    ds: &Dataset,
    c: &DenialConstraint,
    t1: TupleId,
    t2: TupleId,
    subst_attr: AttrId,
    subst_value: Sym,
    subst_role: TupleVar,
) -> bool {
    if t1 == t2 {
        return false;
    }
    let read = |tv: TupleVar, attr: AttrId| -> Sym {
        if tv == subst_role && attr == subst_attr {
            return subst_value;
        }
        match tv {
            TupleVar::T1 => ds.cell(t1, attr),
            TupleVar::T2 => ds.cell(t2, attr),
        }
    };
    c.predicates.iter().all(|p| {
        let lhs = read(p.lhs_tuple, p.lhs_attr);
        let rhs = match p.rhs {
            Operand::Cell(tv, a) => read(tv, a),
            Operand::Const(sym) => sym,
        };
        eval_op(ds, lhs, p.op, rhs)
    })
}

/// Source-reliability featurizer: index of tuples per entity value plus the
/// source column.
///
/// Source weights start from a SLiMFast-style \[35\] agreement prior: the
/// log-odds of each source agreeing with the per-(entity, attribute)
/// plurality vote. On majority-dirty data (Flights) there is almost no
/// clean evidence to learn reliabilities from, and this is exactly the
/// initialisation data-fusion systems bootstrap with; SGD refines it
/// wherever evidence exists.
pub struct SourceFeaturizer {
    entity_attr: AttrId,
    source_attr: AttrId,
    by_entity: FxHashMap<Sym, Vec<TupleId>>,
    /// Source → initial reliability weight (clamped log-odds).
    priors: FxHashMap<Sym, f64>,
}

impl SourceFeaturizer {
    /// Builds the entity index and the agreement priors. Fails if either
    /// attribute is missing.
    pub fn new(
        ds: &Dataset,
        entity_attr_name: &str,
        source_attr_name: &str,
    ) -> Result<Self, crate::error::HoloError> {
        let entity_attr = ds.require_attr(entity_attr_name)?;
        let source_attr = ds.require_attr(source_attr_name)?;
        let mut by_entity: FxHashMap<Sym, Vec<TupleId>> = FxHashMap::default();
        for t in ds.tuples() {
            let e = ds.cell(t, entity_attr);
            if !e.is_null() {
                by_entity.entry(e).or_default().push(t);
            }
        }
        // Reliability estimation à la SLiMFast/EM: start from uniform
        // source weights, alternate (truth ← weighted vote) and
        // (reliability ← agreement with estimated truth). Unanimous
        // groups carry no signal and are skipped. Three rounds suffice —
        // further iterations move weights by < 1e-3 on the evaluated
        // workloads.
        let mut weights: FxHashMap<Sym, f64> = FxHashMap::default();
        let mut priors: FxHashMap<Sym, f64> = FxHashMap::default();
        let contested_attrs: Vec<AttrId> = ds
            .schema()
            .attrs()
            .filter(|&a| a != entity_attr && a != source_attr)
            .collect();
        for _round in 0..3 {
            let mut agree: FxHashMap<Sym, (f64, f64)> = FxHashMap::default();
            for rows in by_entity.values() {
                for &attr in &contested_attrs {
                    let mut votes: FxHashMap<Sym, f64> = FxHashMap::default();
                    let mut distinct = 0usize;
                    for &t in rows {
                        let v = ds.cell(t, attr);
                        if v.is_null() {
                            continue;
                        }
                        let src = ds.cell(t, source_attr);
                        let w = weights.get(&src).copied().unwrap_or(1.0);
                        let entry = votes.entry(v).or_insert(0.0);
                        if *entry == 0.0 {
                            distinct += 1;
                        }
                        *entry += w.max(0.05);
                    }
                    if distinct < 2 {
                        continue;
                    }
                    let Some((&truth_estimate, _)) = votes.iter().max_by(|(s1, w1), (s2, w2)| {
                        w1.partial_cmp(w2)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(s2.cmp(s1))
                    }) else {
                        continue;
                    };
                    for &t in rows {
                        let v = ds.cell(t, attr);
                        let src = ds.cell(t, source_attr);
                        if v.is_null() || src.is_null() {
                            continue;
                        }
                        let entry = agree.entry(src).or_insert((0.0, 0.0));
                        entry.1 += 1.0;
                        if v == truth_estimate {
                            entry.0 += 1.0;
                        }
                    }
                }
            }
            weights.clear();
            priors.clear();
            for (src, (a, n)) in agree {
                let rate = (a + 1.0) / (n + 2.0);
                weights.insert(src, rate / (1.0 - rate));
                priors.insert(src, (rate / (1.0 - rate)).ln().clamp(-2.0, 2.0));
            }
        }
        Ok(SourceFeaturizer {
            entity_attr,
            source_attr,
            by_entity,
            priors,
        })
    }

    /// Adds, for each candidate `d` of `cell`, one feature per source that
    /// asserts `d` for the same entity and attribute.
    pub fn add_features(
        &self,
        graph: &mut FactorGraph,
        registry: &mut FeatureRegistry<FeatureKey>,
        ds: &Dataset,
        var: VarId,
        cell: CellRef,
        candidates: &[Sym],
    ) {
        let mut buf = FeatureBuffer::default();
        self.collect_features(&mut buf, ds, cell, candidates);
        buf.apply(graph, registry, var);
    }

    /// Buffer-collecting form of [`SourceFeaturizer::add_features`].
    pub fn collect_features(
        &self,
        buf: &mut FeatureBuffer,
        ds: &Dataset,
        cell: CellRef,
        candidates: &[Sym],
    ) {
        if cell.attr == self.entity_attr || cell.attr == self.source_attr {
            return;
        }
        let entity = ds.cell(cell.tuple, self.entity_attr);
        if entity.is_null() {
            return;
        }
        let Some(rows) = self.by_entity.get(&entity) else {
            return;
        };
        // sources_for[d] = deduped sources asserting candidate d.
        for (k, &d) in candidates.iter().enumerate() {
            let mut seen: Vec<Sym> = Vec::new();
            for &t in rows {
                if ds.cell(t, cell.attr) != d {
                    continue;
                }
                let src = ds.cell(t, self.source_attr);
                if src.is_null() || seen.contains(&src) {
                    continue;
                }
                seen.push(src);
                let prior = self.priors.get(&src).copied().unwrap_or(0.0);
                let spec = WeightSpec::LearnableInit(FeatureKey::Source { source: src }, prior);
                buf.push(k, spec, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_constraints::parse_constraints;
    use holo_dataset::Schema;
    use holo_factor::Variable;

    fn graph_with_var(candidates: &[Sym]) -> (FactorGraph, VarId) {
        let mut g = FactorGraph::new();
        let v = g.add_variable(Variable::query(candidates.to_vec(), Some(0)));
        (g, v)
    }

    #[test]
    fn cooccur_features_one_per_cond_attr_and_candidate() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
        ds.push_row(&["60608", "Chicago", "IL"]);
        let city = ds.schema().attr_id("City").unwrap();
        let chicago = ds.pool().get("Chicago").unwrap();
        let other = ds.intern("Cicago");
        let cell = CellRef {
            tuple: 0usize.into(),
            attr: city,
        };
        let (mut g, v) = graph_with_var(&[chicago, other]);
        let mut reg = FeatureRegistry::new();
        add_cooccur_features(&mut g, &mut reg, &ds, v, cell, &[chicago, other]);
        // 2 conditioning attrs × 2 candidates = 4 feature entries,
        // 4 distinct weights (keys differ in candidate and cond attr).
        assert_eq!(g.features(v, 0).len(), 2);
        assert_eq!(g.features(v, 1).len(), 2);
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn cooccur_skips_null_conditioning() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["", "Chicago"]);
        let city = ds.schema().attr_id("City").unwrap();
        let chicago = ds.pool().get("Chicago").unwrap();
        let cell = CellRef {
            tuple: 0usize.into(),
            attr: city,
        };
        let (mut g, v) = graph_with_var(&[chicago]);
        let mut reg = FeatureRegistry::new();
        add_cooccur_features(&mut g, &mut reg, &ds, v, cell, &[chicago]);
        assert!(g.features(v, 0).is_empty());
    }

    #[test]
    fn minimality_fires_only_on_init() {
        let mut ds = Dataset::new(Schema::new(vec!["City"]));
        ds.push_row(&["Cicago"]);
        let init = ds.pool().get("Cicago").unwrap();
        let alt = ds.intern("Chicago");
        let (mut g, v) = graph_with_var(&[init, alt]);
        let mut reg = FeatureRegistry::new();
        let config = HoloConfig::default();
        add_minimality_feature(&mut g, &mut reg, &config, v, init, &[init, alt]);
        assert_eq!(g.features(v, 0).len(), 1);
        assert!(g.features(v, 1).is_empty());
        let w = reg.build_weights();
        let (wid, x) = g.features(v, 0)[0];
        assert_eq!(w.get(wid), config.minimality_weight);
        assert_eq!(x, 1.0);
        assert!(w.is_fixed(wid));
    }

    #[test]
    fn external_features_per_dictionary() {
        let mut ds = Dataset::new(Schema::new(vec!["City"]));
        ds.push_row(&["Cicago"]);
        let init = ds.pool().get("Cicago").unwrap();
        let chicago = ds.intern("Chicago");
        let cell = CellRef {
            tuple: 0usize.into(),
            attr: AttrId(0),
        };
        let mut matches: MatchLookup = MatchLookup::default();
        matches.insert((cell, chicago), vec![0, 1]);
        let (mut g, v) = graph_with_var(&[init, chicago]);
        let mut reg = FeatureRegistry::new();
        add_external_features(&mut g, &mut reg, &matches, v, cell, &[init, chicago], 2.0);
        assert!(g.features(v, 0).is_empty());
        assert_eq!(g.features(v, 1).len(), 2, "one feature per asserting dict");
        assert_eq!(reg.len(), 2);
        let w = reg.build_weights();
        let (wid, _) = g.features(v, 1)[0];
        assert_eq!(w.get(wid), 2.0, "dictionary prior");
        assert!(!w.is_fixed(wid), "dictionary weight stays learnable");
    }

    #[test]
    fn dc_violation_counts_respect_candidates() {
        // FD Zip → City. Tuples: three say 60608→Chicago, target cell is
        // the city of a fourth 60608 tuple.
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Cicago"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let config = HoloConfig::default();
        let feat = DcFeaturizer::new(&ds, &cons, &config);
        let city = ds.schema().attr_id("City").unwrap();
        let cell = CellRef {
            tuple: 3usize.into(),
            attr: city,
        };
        let chicago = ds.pool().get("Chicago").unwrap();
        let cicago = ds.pool().get("Cicago").unwrap();
        let counts = feat.violation_counts(0, cell, &[cicago, chicago], None);
        // Keeping "Cicago" violates against 3 partners; "Chicago" against 0.
        assert_eq!(counts, vec![3, 0]);
    }

    #[test]
    fn dc_violation_counts_for_key_attribute() {
        // The candidate value participates in the blocking key itself
        // (repairing the Zip of a tuple): counts must follow the candidate.
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60609", "Evanston"]);
        ds.push_row(&["60609", "Chicago"]); // target: its zip is wrong
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let config = HoloConfig::default();
        let feat = DcFeaturizer::new(&ds, &cons, &config);
        let zip = ds.schema().attr_id("Zip").unwrap();
        let cell = CellRef {
            tuple: 2usize.into(),
            attr: zip,
        };
        let z08 = ds.pool().get("60608").unwrap();
        let z09 = ds.pool().get("60609").unwrap();
        let counts = feat.violation_counts(0, cell, &[z09, z08], None);
        // Zip 60609 conflicts with t1 (Evanston ≠ Chicago) → 1 violation.
        // Zip 60608 agrees with t0 (Chicago = Chicago) → 0 violations.
        assert_eq!(counts, vec![1, 0]);
    }

    #[test]
    fn dc_features_added_with_learned_weight() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Cicago"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let config = HoloConfig::default();
        let feat = DcFeaturizer::new(&ds, &cons, &config);
        let city = ds.schema().attr_id("City").unwrap();
        let cell = CellRef {
            tuple: 1usize.into(),
            attr: city,
        };
        let cicago = ds.pool().get("Cicago").unwrap();
        let chicago = ds.pool().get("Chicago").unwrap();
        let (mut g, v) = graph_with_var(&[cicago, chicago]);
        let mut reg = FeatureRegistry::new();
        feat.add_features(&mut g, &mut reg, v, cell, &[cicago, chicago], None);
        // Candidate "Cicago" gets the violation feature (count 1, scaled
        // by the normalizer); "Chicago" violates nothing → no entry.
        assert_eq!(g.features(v, 0).len(), 1);
        assert_eq!(
            g.features(v, 0)[0].1,
            1.0 / f64::from(config.dc_feature_cap)
        );
        assert!(g.features(v, 1).is_empty());
        let w = reg.build_weights();
        assert!(
            !w.is_fixed(g.features(v, 0)[0].0),
            "DC feature weight is learned"
        );
    }

    #[test]
    fn partitioning_restricts_partners() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Cicago"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let config = HoloConfig::default();
        let feat = DcFeaturizer::new(&ds, &cons, &config);
        let city = ds.schema().attr_id("City").unwrap();
        let cell = CellRef {
            tuple: 1usize.into(),
            attr: city,
        };
        let cicago = ds.pool().get("Cicago").unwrap();
        // Component map placing the two tuples in different components:
        // the partner is filtered out.
        let mut comp: FxHashMap<TupleId, u32> = FxHashMap::default();
        comp.insert(0usize.into(), 0);
        comp.insert(1usize.into(), 1);
        let counts = feat.violation_counts(0, cell, &[cicago], Some(&comp));
        assert_eq!(counts, vec![0]);
        // Same component: the violation is counted.
        comp.insert(0usize.into(), 1);
        let counts = feat.violation_counts(0, cell, &[cicago], Some(&comp));
        assert_eq!(counts, vec![1]);
    }

    #[test]
    fn source_features_assert_candidates() {
        let mut ds = Dataset::new(Schema::new(vec!["Flight", "Source", "Dep"]));
        ds.push_row(&["UA100", "s1", "09:00"]);
        ds.push_row(&["UA100", "s2", "09:00"]);
        ds.push_row(&["UA100", "s3", "09:30"]);
        ds.push_row(&["DL200", "s1", "10:00"]);
        let dep = ds.schema().attr_id("Dep").unwrap();
        let nine = ds.pool().get("09:00").unwrap();
        let nine30 = ds.pool().get("09:30").unwrap();
        let cell = CellRef {
            tuple: 2usize.into(),
            attr: dep,
        };
        let sf = SourceFeaturizer::new(&ds, "Flight", "Source").unwrap();
        let (mut g, v) = graph_with_var(&[nine30, nine]);
        let mut reg = FeatureRegistry::new();
        sf.add_features(&mut g, &mut reg, &ds, v, cell, &[nine30, nine]);
        // 09:30 asserted only by s3; 09:00 by s1 and s2.
        assert_eq!(g.features(v, 0).len(), 1);
        assert_eq!(g.features(v, 1).len(), 2);
        // Entities do not leak: DL200's s1 assertion is for a different
        // flight and contributes nothing extra (s1 already counted once).
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn source_featurizer_rejects_missing_attrs() {
        let mut ds = Dataset::new(Schema::new(vec!["a"]));
        ds.push_row(&["x"]);
        assert!(SourceFeaturizer::new(&ds, "Flight", "Source").is_err());
    }
}
