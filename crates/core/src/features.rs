//! Automatic featurization — translating repair signals into inference-rule
//! groundings (§4.2).
//!
//! Every signal becomes unary features over the `Value?(t, a, d)` variables:
//!
//! * **Quantitative statistics** — §4.2 writes `Value?(t,a,d) :-
//!   HasFeature(t,a,f) weight = w(d,f)`, a weight per (candidate `d`, cell
//!   value `f = "A'=v'"`). Like the authors' `OccurAttrFeaturizer` we tie it
//!   per attribute pair: `Occur { attr, A' }` with `x = P(d | v')`. A
//!   `w(d, f)` is trained only by evidence whose domain holds `d` (never a
//!   typo) and goes negative on frequent values that lose in evidence; a
//!   tied weight applies to every candidate and learns which `A'` predict
//!   `attr`, in ≤ |A|·(|A| − 1) weights. Each starts at `occur_prior /
//!   (|A| − 1)`, so untrained scores are `occur_prior` × the mean
//!   conditional probability — what keeps tables without evidence repairable.
//!   `P(d | v')` is read by value code ([`collect_occur_features`]).
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
//!
//! ## One pass, ending in the design matrix
//!
//! The relaxed model of §5.2 makes repair *featurization plus a softmax*,
//! so featurization is the system, and it runs as a single pass: the
//! `collect_*` functions queue one variable's features into a reusable
//! [`FeatureBuffer`] (a scratch, cleared per variable), and
//! [`FeatureSink::push_var`] moves them straight into CSR rows. Each
//! parallel chunk of variables owns one sink — a row-major fragment
//! ([`holo_factor::DesignBuilder`]) plus a chunk-local
//! [`FeatureRegistry`] — and [`FeatureSink::absorb`] concatenates the
//! chunks in order.
//!
//! **The interning invariant.** A weight's id is the rank of its key's
//! first appearance in *queue order* — variables in model order, and
//! within a variable the order the collectors queued their specs (a group
//! counts once, where it was queued; an empty group never). Each sink
//! interns in exactly that order, so its local ids are first-appearance
//! ranks within the chunk; absorbing the chunks in order hands every key
//! new to the merged registry the next id, chunk by chunk, which is its
//! first-appearance rank in the concatenated queue (see
//! [`FeatureRegistry::absorb`]). That rank never mentions where a chunk
//! ends, so weight ids, fixedness and initial values — and through them
//! every learned weight and marginal — are the same at every thread count.
//!
//! ## The compiled partner scan
//!
//! A relaxed-DC count asks, per (cell, candidate, constraint), how many
//! partner tuples would complete a violation. `DcFeaturizer` runs it on
//! the compiled pair scan of [`holo_constraints::scan`] — the classifier
//! and bucket layout detection uses — with the target cell's tuple as the
//! probe, once per *role* that tuple can play (`t1`, or `t2`): join
//! equalities are elided (partners are bucketed by their side, the
//! target's side is the lookup key), and binding a predicate to the cell
//! freezes the target tuple's other attributes and leaves the cell's own
//! attribute reading the candidate. Roles that block on the same partner
//! key share one index.
//!
//! **FD-shaped roles** (`PairScan::fd_shape`: a join key and one
//! `target attr ≠ partner column`) are answered from the bucket's value
//! groups without visiting a partner: with the target side holding `v`
//! (the candidate when the cell is that attribute, else the tuple's stored
//! value), the count is the bucket's members holding a non-null value
//! other than `v` — minus the target's own tuple when it is one of them —
//! and nothing when `v` is null. It is exact, then clamped to `count_cap`.
//!
//! Every other role walks its bucket: probe-only predicates run once per
//! candidate, and everything that reads the partner runs per partner
//! against the values packed beside the bucket. The walk visits a bucket
//! in tuple order, skips the target's own tuple, stops after `scan_cap`
//! visited partners (a cost bound on the walk, and so on this path only),
//! and stops a candidate whose count — summed over both roles — reaches
//! `count_cap`. `scan_cap` counts *visited* partners, so the buckets hold
//! every tuple with a non-null key: partner-only predicates are evaluated
//! with the residuals, never used to thin a bucket.

use crate::config::HoloConfig;
use holo_constraints::ast::TupleVar;
use holo_constraints::scan::{build_shared, BlockIndex, PairScan, ScanPredicate};
use holo_constraints::{ConstraintId, ConstraintSet};
use holo_dataset::{AttrId, CellRef, CooccurStats, Dataset, FxHashMap, Sym, TupleId};
use holo_factor::{DesignBuilder, DesignMatrix, FeatureRegistry, WeightId};

/// Structured feature keys; interning them yields the tied weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKey {
    /// Quantitative-statistics feature, tied per attribute pair: `x = P(d |
    /// v')` for the tuple's value `v'` of `cond_attr`.
    Occur {
        /// Attribute of the cell.
        attr: AttrId,
        /// Conditioning attribute `A'`.
        cond_attr: AttrId,
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
    /// Fixed weight of grounded DC clique factors (Algorithm 1).
    DcFactor,
}

/// Pre-computed external-match lookup: `(cell, candidate) → dictionaries
/// asserting it` (the `Matched` relation keyed for featurization).
pub type MatchLookup = FxHashMap<(CellRef, Sym), DictIds>;

/// How many dictionary ids a [`DictIds`] holds before it moves to the heap.
const INLINE_DICTS: usize = 3;

/// The dictionaries asserting one `(cell, value)` of a [`MatchLookup`]: a
/// set of ids in the order they were pushed. Up to three sit in the entry
/// itself (a value is rarely asserted by more dictionaries than that), so
/// building the table allocates nothing per match.
#[derive(Debug, Clone)]
pub struct DictIds(Ids);

#[derive(Debug, Clone)]
enum Ids {
    Inline(u8, [u32; INLINE_DICTS]),
    Spilled(Vec<u32>),
}

impl Default for DictIds {
    fn default() -> Self {
        DictIds(Ids::Inline(0, [0; INLINE_DICTS]))
    }
}

impl DictIds {
    /// The ids, in the order they were pushed.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Ids::Inline(len, ids) => &ids[..usize::from(*len)],
            Ids::Spilled(ids) => ids,
        }
    }

    /// Whether dictionary `dict` is in the set.
    pub fn contains(&self, dict: &u32) -> bool {
        self.as_slice().contains(dict)
    }

    /// Adds `dict` after the ids already held; a no-op if it is one of them.
    pub fn push(&mut self, dict: u32) {
        if self.contains(&dict) {
            return;
        }
        match &mut self.0 {
            Ids::Inline(len, ids) if usize::from(*len) < INLINE_DICTS => {
                ids[usize::from(*len)] = dict;
                *len += 1;
            }
            Ids::Inline(_, ids) => {
                let mut spilled = ids.to_vec();
                spilled.push(dict);
                self.0 = Ids::Spilled(spilled);
            }
            Ids::Spilled(ids) => ids.push(dict),
        }
    }

    /// The ids, in the order they were pushed.
    pub fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a DictIds {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<u32> for DictIds {
    fn from_iter<I: IntoIterator<Item = u32>>(dicts: I) -> Self {
        let mut set = DictIds::default();
        for dict in dicts {
            set.push(dict);
        }
        set
    }
}

/// How a queued feature's weight is obtained from the registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightSpec {
    /// `registry.learnable_init(key, prior)`.
    LearnableInit(FeatureKey, f64),
    /// `registry.fixed(key, value)`.
    Fixed(FeatureKey, f64),
}

impl WeightSpec {
    fn intern(self, registry: &mut FeatureRegistry<FeatureKey>) -> WeightId {
        match self {
            WeightSpec::LearnableInit(key, prior) => registry.learnable_init(key, prior),
            WeightSpec::Fixed(key, value) => registry.fixed(key, value),
        }
    }
}

/// The features of one variable in *queue order* — the reusable scratch
/// the `collect_*` functions write and [`FeatureSink::push_var`] drains.
/// Nothing here touches a registry: weights are named by [`WeightSpec`]
/// and interned by the sink, spec by spec, which is what makes the queue
/// order the interning order.
#[derive(Debug, Clone, Default)]
pub struct FeatureBuffer {
    /// One spec per queued unit — a single feature, or a non-empty group
    /// of features sharing one weight — in queue order.
    specs: Vec<WeightSpec>,
    /// `(index into specs, candidate slot, feature value)`, in queue order.
    entries: Vec<(usize, usize, f64)>,
    /// Scratch of [`collect_occur_features`]: the candidates' value codes.
    codes: Vec<u32>,
}

impl FeatureBuffer {
    /// Queues one feature grounding.
    pub fn push(&mut self, slot: usize, spec: WeightSpec, value: f64) {
        self.push_group(spec, [(slot, value)]);
    }

    /// Queues a shared-weight group: `spec` is interned once and every
    /// `(slot, value)` grounds against the resulting weight. Empty groups
    /// are dropped — their weight is never interned. (An ungrounded weight
    /// contributes nothing to learning or inference, so this only shifts
    /// internal weight ids, never results.)
    pub fn push_group(&mut self, spec: WeightSpec, slots: impl IntoIterator<Item = (usize, f64)>) {
        let unit = self.specs.len();
        let before = self.entries.len();
        self.entries
            .extend(slots.into_iter().map(|(slot, value)| (unit, slot, value)));
        if self.entries.len() > before {
            self.specs.push(spec);
        }
    }

    /// Empties the buffer for the next variable, keeping its allocations.
    pub fn clear(&mut self) {
        self.specs.clear();
        self.entries.clear();
    }
}

/// Where featurization ends: a run of consecutive variables as finished
/// design-matrix rows plus the registry of the weights they name — the
/// only way a unary feature enters a compiled model. See the module docs
/// for the interning invariant [`FeatureSink::push_var`] and
/// [`FeatureSink::absorb`] maintain between them.
#[derive(Debug, Default)]
pub struct FeatureSink {
    registry: FeatureRegistry<FeatureKey>,
    rows: DesignBuilder,
    /// Scratch of `push_var`: the weight id of each queued spec.
    ids: Vec<WeightId>,
}

impl FeatureSink {
    /// Appends the next variable, of `arity` candidates, with the features
    /// queued in `buf`: interns the specs in queue order, then sorts the
    /// entries into the variable's rows.
    pub fn push_var(&mut self, buf: &FeatureBuffer, arity: usize) {
        self.ids.clear();
        for spec in &buf.specs {
            self.ids.push(spec.intern(&mut self.registry));
        }
        let ids = &self.ids;
        self.rows.push_var(
            arity,
            buf.entries
                .iter()
                .map(|&(unit, slot, value)| (slot, ids[unit], value)),
        );
    }

    /// Appends the variables of `later` — the sink of the chunk that
    /// follows this one — re-interning its weights in its id order.
    pub fn absorb(&mut self, later: FeatureSink) {
        let remap = self.registry.absorb(later.registry);
        self.rows.append_remapped(later.rows, &remap);
    }

    /// The merged registry and the assembled design matrix.
    pub fn finish(self) -> (FeatureRegistry<FeatureKey>, DesignMatrix) {
        (self.registry, self.rows.finish())
    }
}

/// Queues the tied co-occurrence features of one variable: per other
/// attribute `A'` whose value `v'` in the tuple is non-null and seen at
/// least `min_support` times, one group under `Occur { attr, A' }` holding
/// `x = P(d | v') = #(d, v') / #v'` for every candidate `d` it is non-zero
/// for. The weights start at `prior / (|A| − 1)` (module docs).
///
/// Everything is read by value code, on either statistics backend: `v'`
/// from the coded column, `#v'` from the per-code counts, the group `A' =
/// v' → attr` by code, and each candidate's count by its code, looked up
/// once per cell into the buffer's scratch (an unseen candidate's
/// [`NULL_CODE`](holo_dataset::NULL_CODE) counts 0). Nothing is allocated
/// per cell.
pub fn collect_occur_features(
    buf: &mut FeatureBuffer,
    (ds, stats): (&Dataset, &CooccurStats),
    (min_support, prior): (u32, f64),
    cell: CellRef,
    candidates: &[Sym],
) {
    let attr = cell.attr;
    let init = prior / ds.schema().len().saturating_sub(1).max(1) as f64;
    let mut codes = std::mem::take(&mut buf.codes);
    codes.clear();
    codes.extend(candidates.iter().map(|&d| ds.code_of(attr, d)));
    for cond_attr in ds.schema().attrs().filter(|&a| a != attr) {
        let v_cond = ds.code(cell.tuple, cond_attr);
        let denom = stats.code_count(cond_attr, v_cond);
        if denom < min_support.max(1) {
            continue; // a null `v'` counts 0
        }
        let Some(group) = stats.group_by_code(cond_attr, v_cond, attr) else {
            continue; // every candidate would count 0
        };
        let x = |(k, &t): (usize, &u32)| (k, f64::from(group.count_by_code(t)) / f64::from(denom));
        let spec = WeightSpec::LearnableInit(FeatureKey::Occur { attr, cond_attr }, init);
        let entries = codes.iter().enumerate().map(x);
        buf.push_group(spec, entries.filter(|e| e.1 > 0.0));
    }
    buf.codes = codes;
}

/// Queues the minimality prior: fires on the candidate equal to the
/// initial observed value.
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

/// Initial (learnable) value of each dictionary's reliability weight
/// `w(k)`: dictionaries are trusted a priori, and evidence cells covered
/// by matches adjust the weight during learning.
const EXT_DICT_PRIOR: f64 = 2.0;

/// Queues external-match features from the `Matched` lookup, one learnable
/// weight per dictionary starting at `EXT_DICT_PRIOR`.
pub fn collect_external_features(
    buf: &mut FeatureBuffer,
    matches: &MatchLookup,
    cell: CellRef,
    candidates: &[Sym],
) {
    if matches.is_empty() {
        return;
    }
    for (k, &d) in candidates.iter().enumerate() {
        if let Some(dicts) = matches.get(&(cell, d)) {
            for &dict in dicts {
                let spec = WeightSpec::LearnableInit(FeatureKey::ExtDict { dict }, EXT_DICT_PRIOR);
                buf.push(k, spec, 1.0);
            }
        }
    }
}

/// Divisor of the violation counts a relaxed-DC feature emits, so SGD sees
/// O(1)-magnitude features while the contribution stays *linear* in the
/// violation count — Example 6 grounds one factor per partner tuple, so
/// the total log-linear contribution is `w · count`.
const DC_FEATURE_CAP: u32 = 4;

/// Relaxed denial-constraint featurizer (§5.2): per constraint and role, a
/// compiled partner scan (see the module docs).
pub struct DcFeaturizer<'a> {
    ds: &'a Dataset,
    /// One index per distinct partner key, every tuple with a non-null
    /// key in it, shared by the roles that block on that key.
    indexes: Vec<BlockIndex>,
    /// Per constraint, per role: the compiled scan.
    roles: Vec<Vec<RoleIndex>>,
    /// Partners a walked (cell, candidate, role) visits at most — bounds
    /// worst-case block sizes.
    scan_cap: usize,
    /// Count saturation.
    count_cap: u32,
    /// Initial value of the learnable per-constraint weights.
    prior: f64,
}

/// A two-tuple constraint compiled for the target cell playing one
/// specific role (t1 or t2): the pair scan with that role as the probe and
/// the partners blocked by their side of the join key.
struct RoleIndex {
    /// Attributes the constraint reads on the target's side, used to
    /// decide whether a cell participates at all.
    target_attrs: Vec<AttrId>,
    scan: PairScan,
    /// `scan.fd_shape()`: the role is counted from value groups if it has
    /// one, walked if not.
    fd_shape: Option<(AttrId, usize)>,
    /// Which of [`DcFeaturizer::indexes`] blocks the partners.
    index: usize,
    /// `Side::Partner(col)` reads the index's packed column `slots[col]`.
    slots: Vec<usize>,
}

/// Per-cell scratch of the partner walk, reused across constraints and
/// roles.
#[derive(Default)]
struct ScanScratch {
    /// The role's probe-only predicates, bound to the cell.
    target_only: Vec<ScanPredicate>,
    /// Its partner-only then residual predicates, bound to the cell.
    per_partner: Vec<ScanPredicate>,
}

impl<'a> DcFeaturizer<'a> {
    /// Compiles every two-tuple constraint for each role its target can
    /// play and buckets the partner tuples once per distinct partner key,
    /// on the thread budget detection gets (`config.threads`, sequential
    /// for a small table). `O(keys · |D|)`.
    pub fn new(ds: &'a Dataset, constraints: &ConstraintSet, config: &HoloConfig) -> Self {
        let mut compiled: Vec<(ConstraintId, Vec<AttrId>, PairScan)> = Vec::new();
        for (sigma, c) in constraints.iter().filter(|(_, c)| c.two_tuple) {
            let (t1_attrs, t2_attrs) = c.attrs_by_tuple();
            compiled.push((sigma, t1_attrs, PairScan::new(c, TupleVar::T1)));
            if !c.is_symmetric() {
                compiled.push((sigma, t2_attrs, PairScan::new(c, TupleVar::T2)));
            }
        }
        let scans: Vec<Option<&PairScan>> = compiled.iter().map(|(.., scan)| Some(scan)).collect();
        let threads = holo_parallel::sized_threads(config.threads, ds.tuple_count());
        let (indexes, index_of) = build_shared(ds, &scans, false, threads);
        let mut roles: Vec<Vec<RoleIndex>> = Vec::new();
        roles.resize_with(constraints.len(), Vec::new);
        for ((sigma, target_attrs, scan), index) in
            compiled.into_iter().zip(index_of.into_iter().flatten())
        {
            roles[sigma].push(RoleIndex {
                target_attrs,
                slots: indexes[index].slots_of(&scan),
                fd_shape: scan.fd_shape(),
                scan,
                index,
            });
        }
        DcFeaturizer {
            ds,
            indexes,
            roles,
            scan_cap: 512,
            count_cap: 512,
            prior: config.dc_violation_prior,
        }
    }

    /// Adds the counts of every role of `sigma` into `counts`; `false` if
    /// the constraint reads `cell`'s attribute on no role.
    fn count_into(
        &self,
        sigma: ConstraintId,
        cell: CellRef,
        candidates: &[Sym],
        scratch: &mut ScanScratch,
        counts: &mut [u32],
    ) -> bool {
        let mut participates = false;
        for role in &self.roles[sigma] {
            if role.target_attrs.contains(&cell.attr) {
                participates = true;
                match role.fd_shape {
                    Some(fd) => role.count_grouped(self, fd, cell, candidates, counts),
                    None => role.count_walked(self, cell, candidates, scratch, counts),
                }
            }
        }
        participates
    }

    /// Queues the relaxed-DC features of one variable across all
    /// constraints. They count against every partner, whatever Algorithm 3
    /// group it is in: partitioning restricts the *factor grounding* of
    /// Algorithm 1 only — dropping out-of-component partners here would
    /// silence the violations a bad repair would create with clean tuples.
    pub fn collect_features(&self, buf: &mut FeatureBuffer, cell: CellRef, candidates: &[Sym]) {
        let mut scratch = ScanScratch::default();
        let mut counts = vec![0u32; candidates.len()];
        for sigma in 0..self.roles.len() {
            if !self.count_into(sigma, cell, candidates, &mut scratch, &mut counts) {
                continue;
            }
            buf.push_group(
                WeightSpec::LearnableInit(
                    FeatureKey::DcViolation { constraint: sigma },
                    self.prior,
                ),
                counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &count)| count > 0)
                    .map(|(k, &count)| (k, f64::from(count) / f64::from(DC_FEATURE_CAP))),
            );
            counts.fill(0);
        }
    }
}

impl RoleIndex {
    /// The bucket whose partners join with the target tuple when the cell
    /// holds `d`.
    fn bucket_for(&self, index: &BlockIndex, ds: &Dataset, cell: CellRef, d: Sym) -> Option<usize> {
        index.lookup(self.scan.probe_key_of(ds, cell.tuple, Some((cell.attr, d))))
    }

    /// Whether every candidate meets the same partners: the cell is not
    /// itself part of the join key.
    fn shares_bucket(&self, cell: CellRef) -> bool {
        !self.scan.probe_key.contains(&cell.attr)
    }

    /// An FD-shaped role — `target.probe_attr ≠ partner column` is its one
    /// residual — from the bucket's value groups (module docs).
    fn count_grouped(
        &self,
        featurizer: &DcFeaturizer<'_>,
        (probe_attr, col): (AttrId, usize),
        cell: CellRef,
        candidates: &[Sym],
        counts: &mut [u32],
    ) {
        let ds = featurizer.ds;
        let index = &featurizer.indexes[self.index];
        let column = &index.packed()[self.slots[col]];
        // The target's own tuple is a bucket member like any other (its
        // stored values, never the candidate) and is no partner of itself.
        let own_key = self
            .scan
            .partner_key
            .iter()
            .map(|&attr| ds.code(cell.tuple, attr));
        let (own_bucket, own_value) = (
            index.lookup(own_key),
            ds.cell(cell.tuple, self.scan.partner_attrs[col]),
        );
        let shared_bucket = self
            .shares_bucket(cell)
            .then(|| self.bucket_for(index, ds, cell, Sym::NULL));
        for (k, &d) in candidates.iter().enumerate() {
            let v = if cell.attr == probe_attr {
                d
            } else {
                ds.cell(cell.tuple, probe_attr)
            };
            if v.is_null() {
                continue;
            }
            let Some(bucket) = shared_bucket.unwrap_or_else(|| self.bucket_for(index, ds, cell, d))
            else {
                continue;
            };
            let own = own_bucket == Some(bucket) && !own_value.is_null() && own_value != v;
            let partners = column.differing(bucket, v) - u32::from(own);
            counts[k] = (counts[k] + partners).min(featurizer.count_cap);
        }
    }

    /// Any other role: the partner walk (module docs).
    fn count_walked(
        &self,
        featurizer: &DcFeaturizer<'_>,
        cell: CellRef,
        candidates: &[Sym],
        scratch: &mut ScanScratch,
        counts: &mut [u32],
    ) {
        let ds = featurizer.ds;
        let (scan, index) = (&self.scan, &featurizer.indexes[self.index]);
        let bind = |p: &ScanPredicate| p.bind(ds, cell.tuple, Some(cell.attr));
        scratch.target_only.clear();
        scratch.target_only.extend(scan.probe_only.iter().map(bind));
        scratch.per_partner.clear();
        let per_partner = scan.partner_only.iter().chain(&scan.residual);
        scratch.per_partner.extend(per_partner.map(bind));
        let columns = index.packed();
        let shared_bucket = self
            .shares_bucket(cell)
            .then(|| self.bucket_for(index, ds, cell, Sym::NULL));
        for (k, &d) in candidates.iter().enumerate() {
            let Some(bucket) = shared_bucket.unwrap_or_else(|| self.bucket_for(index, ds, cell, d))
            else {
                continue;
            };
            let on_target = |p: &ScanPredicate| p.holds(ds, d, |_| Sym::NULL);
            if !scratch.target_only.iter().all(on_target) {
                continue;
            }
            let mut scanned = 0usize;
            for at in index.range(bucket) {
                if index.members()[at] == cell.tuple {
                    continue;
                }
                scanned += 1;
                if scanned > featurizer.scan_cap {
                    break;
                }
                let value = |col: usize| columns[self.slots[col]].values()[at];
                if scratch.per_partner.iter().all(|p| p.holds(ds, d, value)) {
                    counts[k] += 1;
                    if counts[k] >= featurizer.count_cap {
                        break;
                    }
                }
            }
        }
    }
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

    /// Queues, for each candidate `d` of `cell`, one feature per source that
    /// asserts `d` for the same entity and attribute.
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

/// What the one-pass build and the compiled partner scan replaced, kept as
/// the references their tests compare against, and the accessors the tests
/// read them through.
#[cfg(test)]
mod reference {
    use super::*;
    use holo_constraints::ast::{eval_op, Operand};
    use holo_constraints::DenialConstraint;
    use holo_dataset::TupleId;

    impl DcFeaturizer<'_> {
        /// Would-be-violation counts of every candidate of `cell` for
        /// constraint `sigma`, with all other cells at their initial values.
        pub(super) fn violation_counts(
            &self,
            sigma: ConstraintId,
            cell: CellRef,
            candidates: &[Sym],
        ) -> Vec<u32> {
            let mut counts = vec![0u32; candidates.len()];
            let mut scratch = ScanScratch::default();
            self.count_into(sigma, cell, candidates, &mut scratch, &mut counts);
            counts
        }
    }

    impl FeatureBuffer {
        /// The queued weight keys, in queue (= interning) order.
        pub(crate) fn keys(&self) -> impl Iterator<Item = FeatureKey> + '_ {
            self.specs.iter().map(|spec| match *spec {
                WeightSpec::LearnableInit(key, _) | WeightSpec::Fixed(key, _) => key,
            })
        }

        /// The pre-CSR pipeline: interns the queued weights and materialises
        /// the buffer as one feature row per candidate, in queue order. Kept
        /// as the reference the one-pass build is tested against.
        pub(crate) fn to_rows(
            &self,
            registry: &mut FeatureRegistry<FeatureKey>,
            arity: usize,
        ) -> Vec<Vec<(WeightId, f64)>> {
            let ids: Vec<WeightId> = self.specs.iter().map(|s| s.intern(registry)).collect();
            let mut rows = vec![Vec::new(); arity];
            for &(unit, slot, value) in &self.entries {
                rows[slot].push((ids[unit], value));
            }
            rows
        }
    }

    /// Evaluates all predicates of `c` for the pair `(t1, t2)` with a single
    /// substituted cell: the cell `(subst_role, subst_attr)` reads `subst_value`
    /// instead of its stored value. The interpreter the compiled scan replaced,
    /// kept as its test reference.
    pub(super) fn eval_constraint_subst(
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
}

#[cfg(test)]
mod tests {
    use super::reference::eval_constraint_subst;
    use super::*;
    use holo_constraints::ast::Operand;
    use holo_constraints::{parse_constraints, DenialConstraint};
    use holo_dataset::Schema;
    use holo_factor::{CliqueArena, FactorGraph, VarId, Variable};

    /// Featurizes one variable over `candidates` with `collect` and sends
    /// it through the sink: the resulting one-variable graph and registry.
    fn sink_one(
        candidates: &[Sym],
        collect: impl FnOnce(&mut FeatureBuffer),
    ) -> (FactorGraph, VarId, FeatureRegistry<FeatureKey>) {
        let mut buf = FeatureBuffer::default();
        collect(&mut buf);
        let mut sink = FeatureSink::default();
        sink.push_var(&buf, candidates.len());
        let (reg, design) = sink.finish();
        let var = Variable::query(candidates.to_vec(), Some(0));
        (
            FactorGraph::new(vec![var], design, CliqueArena::new()),
            VarId(0),
            reg,
        )
    }

    /// The tied co-occurrence features of `cell` over `candidates`, at the
    /// default support and prior.
    fn occur(
        buf: &mut FeatureBuffer,
        ds: &Dataset,
        stats: &CooccurStats,
        cell: CellRef,
        candidates: &[Sym],
    ) {
        let config = HoloConfig::default();
        let (support, prior) = (config.min_cond_support, config.occur_prior);
        collect_occur_features(buf, (ds, stats), (support, prior), cell, candidates);
    }

    #[test]
    fn occur_features_one_weight_per_cond_attr() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
        for (zip, city, n) in [
            ("60608", "Chicago", 3),
            ("60608", "Cicago", 1),
            ("60609", "Evanston", 2),
        ] {
            for _ in 0..n {
                ds.push_row(&[zip, city, "IL"]);
            }
        }
        let stats = CooccurStats::build(&ds);
        let [zip, city, state] = [0, 1, 2].map(AttrId);
        let candidates = ["Chicago", "Cicago", "Evanston"].map(|v| ds.pool().get(v).unwrap());
        let prob = |cond: AttrId, t: usize, d: Sym| {
            let v_cond = ds.cell(t.into(), cond);
            f64::from(stats.cooccur_count(cond, v_cond, city, d))
                / f64::from(stats.count(cond, v_cond))
        };
        // t3.City and t0.City, then t3.State through one sink.
        let mut sink = FeatureSink::default();
        let mut buf = FeatureBuffer::default();
        for cell in [CellRef::new(3, 1), CellRef::new(0, 1)] {
            buf.clear();
            occur(&mut buf, &ds, &stats, cell, &candidates);
            sink.push_var(&buf, candidates.len());
        }
        let il = [ds.pool().get("IL").unwrap()];
        buf.clear();
        occur(&mut buf, &ds, &stats, CellRef::new(3, 2), &il);
        sink.push_var(&buf, 1);
        let (reg, design) = sink.finish();
        let vars = [candidates.to_vec(), candidates.to_vec(), il.to_vec()]
            .map(|domain| Variable::query(domain, Some(0)));
        let g = FactorGraph::new(vars.to_vec(), design, CliqueArena::new());

        // City | Zip, City | State, State | Zip — State | City reads
        // `Cicago`, seen once, below the support of 2.
        let key = |attr, cond_attr| reg.get(&FeatureKey::Occur { attr, cond_attr }).unwrap();
        assert_eq!(reg.len(), 3);
        let (by_zip, by_state) = (key(city, zip), key(city, state));
        assert_eq!(g.features(VarId(2), 0), &[(key(state, zip), 1.0)][..]);
        let w = reg.build_weights();
        for id in [by_zip, by_state] {
            assert_eq!(w.get(id), HoloConfig::default().occur_prior / 2.0);
            assert!(!w.is_fixed(id));
        }
        for (v, t) in [(0, 3), (1, 0)] {
            for (k, &d) in candidates.iter().enumerate() {
                // `Evanston` never co-occurs with 60608: no entry.
                let mut want = vec![(by_zip, prob(zip, t, d)), (by_state, prob(state, t, d))];
                want.retain(|&(_, x)| x > 0.0);
                assert_eq!(g.features(VarId(v), k), &want[..], "t{t} {k}");
            }
        }
        assert_eq!(g.features(VarId(0), 0)[0].1, 0.75);
        assert_eq!(g.features(VarId(0), 2), &[(by_state, 2.0 / 6.0)][..]);
    }

    #[test]
    fn occur_skips_null_rare_and_zero_probability() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
        ds.push_row(&["", "Chicago", "IL"]);
        ds.push_row(&["60608", "Chicago", "IL"]);
        ds.push_row(&["60608", "Chicago", "IL"]);
        ds.push_row(&["60609", "Evanston", "WI"]);
        let foreign = ds.intern("Nowhere");
        let stats = CooccurStats::build(&ds);
        let chicago = ds.pool().get("Chicago").unwrap();
        let evanston = ds.pool().get("Evanston").unwrap();
        let candidates = [chicago, evanston, foreign];
        // t0: Zip null, State IL seen 3 times — only Chicago co-occurs.
        let (g, v, reg) = sink_one(&candidates, |buf| {
            occur(buf, &ds, &stats, CellRef::new(0, 1), &candidates)
        });
        assert_eq!(g.features(v, 0).len(), 1);
        assert!(g.features(v, 1).is_empty() && g.features(v, 2).is_empty());
        assert_eq!(reg.len(), 1);
        // t3: 60609 and WI are each seen once, below the support of 2.
        let (g, v, reg) = sink_one(&candidates, |buf| {
            occur(buf, &ds, &stats, CellRef::new(3, 1), &candidates)
        });
        assert!((0..3).all(|k| g.features(v, k).is_empty()));
        assert!(reg.is_empty());
    }

    /// The features read counts by value code: for every cell of a table
    /// with nulls, at two supports, the entries are bit for bit the ones
    /// the `Sym`-keyed reads (`count`, `cooccur_count`) give.
    #[test]
    fn occur_rows_are_the_sym_keyed_reads() {
        let mut ds = Dataset::new(Schema::new(vec!["A", "B", "C"]));
        for i in 0..60usize {
            let c = if i % 7 == 0 {
                String::new()
            } else {
                format!("c{}", i % 4)
            };
            ds.push_row(&[format!("a{}", i % 3), format!("b{}", i * i % 5), c]);
        }
        let foreign = ds.intern("elsewhere");
        let stats = CooccurStats::build(&ds);
        let mut entries = 0;
        for cell in ds.tuples().flat_map(|t| {
            (0..3).map(move |a| CellRef {
                tuple: t,
                attr: AttrId(a),
            })
        }) {
            let mut candidates = ds.active_domain(cell.attr);
            candidates.push(foreign);
            for support in [1, 3] {
                let mut buf = FeatureBuffer::default();
                collect_occur_features(&mut buf, (&ds, &stats), (support, 1.0), cell, &candidates);
                let got: Vec<(usize, usize, u64)> = buf
                    .entries
                    .iter()
                    .map(|&(u, k, x)| (u, k, x.to_bits()))
                    .collect();
                // The same rows through the `Sym`-keyed reads.
                let mut by_sym = Vec::new();
                let conds = ds.schema().attrs().filter(|&a| a != cell.attr);
                for cond_attr in conds {
                    let v_cond = ds.cell(cell.tuple, cond_attr);
                    let denom = stats.count(cond_attr, v_cond);
                    if v_cond.is_null() || denom < support {
                        continue;
                    }
                    let unit = by_sym.last().map_or(0, |&(u, _, _)| u + 1);
                    for (k, &d) in candidates.iter().enumerate() {
                        let count = stats.cooccur_count(cond_attr, v_cond, cell.attr, d);
                        if count > 0 {
                            let x = f64::from(count) / f64::from(denom);
                            by_sym.push((unit, k, x.to_bits()));
                        }
                    }
                }
                assert_eq!(got, by_sym, "{cell:?} support {support}");
                entries += got.len();
            }
        }
        assert!(entries > 0);
    }

    #[test]
    fn minimality_fires_only_on_init() {
        let mut ds = Dataset::new(Schema::new(vec!["City"]));
        ds.push_row(&["Cicago"]);
        let init = ds.pool().get("Cicago").unwrap();
        let alt = ds.intern("Chicago");
        let config = HoloConfig::default();
        let (g, v, reg) = sink_one(&[init, alt], |buf| {
            collect_minimality_feature(buf, &config, init, &[init, alt])
        });
        assert_eq!(g.features(v, 0).len(), 1);
        assert!(g.features(v, 1).is_empty());
        let w = reg.build_weights();
        let (wid, x) = g.features(v, 0)[0];
        assert_eq!(w.get(wid), config.minimality_weight);
        assert_eq!(x, 1.0);
        assert!(w.is_fixed(wid));
    }

    /// A `DictIds` is a set in push order: inline up to three ids, on the
    /// heap past them, a repeated push a no-op either way.
    #[test]
    fn dict_ids_keep_push_order_inline_and_spilled() {
        let mut ids = DictIds::default();
        assert!(ids.as_slice().is_empty() && !ids.contains(&0));
        for (dict, held) in [
            (2, vec![2]),
            (0, vec![2, 0]),
            (2, vec![2, 0]),
            (7, vec![2, 0, 7]),
        ] {
            ids.push(dict);
            assert_eq!(ids.as_slice(), held.as_slice());
        }
        assert!(matches!(ids.0, Ids::Inline(3, _)), "three ids fit inline");
        ids.push(1);
        ids.push(7);
        assert!(matches!(ids.0, Ids::Spilled(_)));
        assert_eq!(ids.iter().copied().collect::<Vec<_>>(), [2, 0, 7, 1]);
        assert!(ids.contains(&1) && ids.contains(&2) && !ids.contains(&3));
        let collected: Vec<u32> = (&ids).into_iter().copied().collect();
        assert_eq!(collected, [2, 0, 7, 1]);
        assert_eq!(DictIds::from_iter([5, 4, 5]).as_slice(), [5, 4]);
        // Two dictionaries on one cell of a match table.
        let cell = CellRef::new(0usize, 0usize);
        let mut matches = MatchLookup::default();
        for dict in [1, 0, 1] {
            matches.entry((cell, Sym(3))).or_default().push(dict);
        }
        assert_eq!(matches[&(cell, Sym(3))].as_slice(), [1, 0]);
        assert!(std::mem::size_of::<DictIds>() <= 24);
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
        matches.insert((cell, chicago), DictIds::from_iter([0, 1]));
        let (g, v, reg) = sink_one(&[init, chicago], |buf| {
            collect_external_features(buf, &matches, cell, &[init, chicago])
        });
        assert!(g.features(v, 0).is_empty());
        assert_eq!(g.features(v, 1).len(), 2, "one feature per asserting dict");
        assert_eq!(reg.len(), 2);
        let w = reg.build_weights();
        let (wid, _) = g.features(v, 1)[0];
        assert_eq!(w.get(wid), EXT_DICT_PRIOR, "dictionary prior");
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
        let counts = feat.violation_counts(0, cell, &[cicago, chicago]);
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
        let counts = feat.violation_counts(0, cell, &[z09, z08]);
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
        let (g, v, reg) = sink_one(&[cicago, chicago], |buf| {
            feat.collect_features(buf, cell, &[cicago, chicago])
        });
        // Candidate "Cicago" gets the violation feature (count 1, scaled
        // by the cap); "Chicago" violates nothing → no entry.
        assert_eq!(g.features(v, 0).len(), 1);
        assert_eq!(g.features(v, 0)[0].1, 1.0 / f64::from(DC_FEATURE_CAP));
        assert!(g.features(v, 1).is_empty());
        let w = reg.build_weights();
        assert!(
            !w.is_fixed(g.features(v, 0)[0].0),
            "DC feature weight is learned"
        );
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
        let (g, v, reg) = sink_one(&[nine30, nine], |buf| {
            sf.collect_features(buf, &ds, cell, &[nine30, nine])
        });
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

    /// The interpreted partner scan the compiled one replaced: bucket the
    /// partners by the join key, then run every predicate of the
    /// constraint per partner through `eval_constraint_subst`, visiting at
    /// most `scan_cap` partners per (candidate, role).
    fn interpreted_counts(
        ds: &Dataset,
        c: &DenialConstraint,
        cell: CellRef,
        candidates: &[Sym],
        scan_cap: usize,
    ) -> Vec<u32> {
        let count_cap = 512u32;
        let mut counts = vec![0u32; candidates.len()];
        let mut roles = Vec::new();
        if c.two_tuple {
            roles.push(TupleVar::T1);
            if !c.is_symmetric() {
                roles.push(TupleVar::T2);
            }
        }
        let (t1_attrs, t2_attrs) = c.attrs_by_tuple();
        for role in roles {
            let target_attrs = if role == TupleVar::T1 {
                &t1_attrs
            } else {
                &t2_attrs
            };
            if !target_attrs.contains(&cell.attr) {
                continue;
            }
            // Join pairs oriented (target attr, partner attr).
            let mut eq_pairs = Vec::new();
            for p in c.predicates.iter().filter(|p| p.is_cross_tuple_eq()) {
                let Operand::Cell(_, rhs_attr) = p.rhs else {
                    unreachable!()
                };
                let (t1a, t2a) = match p.lhs_tuple {
                    TupleVar::T1 => (p.lhs_attr, rhs_attr),
                    TupleVar::T2 => (rhs_attr, p.lhs_attr),
                };
                eq_pairs.push(if role == TupleVar::T1 {
                    (t1a, t2a)
                } else {
                    (t2a, t1a)
                });
            }
            let mut buckets: FxHashMap<Vec<Sym>, Vec<TupleId>> = FxHashMap::default();
            for t in ds.tuples() {
                let key: Vec<Sym> = eq_pairs.iter().map(|&(_, pa)| ds.cell(t, pa)).collect();
                if key.iter().all(|v| !v.is_null()) {
                    buckets.entry(key).or_default().push(t);
                }
            }
            for (k, &d) in candidates.iter().enumerate() {
                let key: Vec<Sym> = eq_pairs
                    .iter()
                    .map(|&(ta, _)| {
                        if ta == cell.attr {
                            d
                        } else {
                            ds.cell(cell.tuple, ta)
                        }
                    })
                    .collect();
                if key.iter().any(|v| v.is_null()) {
                    continue;
                }
                let Some(bucket) = buckets.get(&key) else {
                    continue;
                };
                let mut scanned = 0usize;
                for &partner in bucket {
                    if partner == cell.tuple {
                        continue;
                    }
                    scanned += 1;
                    if scanned > scan_cap {
                        break;
                    }
                    let (t1, t2) = match role {
                        TupleVar::T1 => (cell.tuple, partner),
                        TupleVar::T2 => (partner, cell.tuple),
                    };
                    if eval_constraint_subst(ds, c, t1, t2, cell.attr, d, role) {
                        counts[k] += 1;
                        if counts[k] >= count_cap {
                            break;
                        }
                    }
                }
            }
        }
        counts
    }

    /// Every constraint × every cell × a candidate set (the column's
    /// values, one foreign value, null): compiled ≡ interpreted. An
    /// FD-shaped constraint is counted from value groups, so its count is
    /// the interpreter's over *every* partner, clamped to `count_cap`; any
    /// other is walked and keeps the interpreter's `scan_cap`. In buckets
    /// of ≤ 512 partners the two references are one.
    fn assert_scan_matches_interpreter(
        ds: &Dataset,
        cons: &ConstraintSet,
        cells: impl Iterator<Item = CellRef>,
        foreign: Sym,
    ) {
        let feat = DcFeaturizer::new(ds, cons, &HoloConfig::default());
        for cell in cells {
            let mut candidates: Vec<Sym> = ds.tuples().map(|t| ds.cell(t, cell.attr)).collect();
            candidates.sort_unstable();
            candidates.dedup();
            candidates.truncate(6);
            candidates.push(foreign);
            candidates.push(Sym::NULL);
            for (sigma, c) in cons.iter() {
                let grouped = PairScan::new(c, TupleVar::T1).fd_shape().is_some();
                let mut want = interpreted_counts(
                    ds,
                    c,
                    cell,
                    &candidates,
                    if grouped { usize::MAX } else { 512 },
                );
                if grouped {
                    want.iter_mut().for_each(|count| *count = (*count).min(512));
                }
                assert_eq!(
                    feat.violation_counts(sigma, cell, &candidates),
                    want,
                    "sigma {sigma} ({}) cell {cell:?}",
                    c.name
                );
            }
        }
    }

    /// The caps at their edge: one bucket of 511–514 partners (and one of
    /// 1 099, where a count passes `count_cap`), the target tuple inside
    /// and outside the first 512. The FD and the cross-attribute FD shape
    /// count every partner and clamp — at 513 and 514 partners that is not
    /// what a 512-partner walk saw; the order constraint (two roles adding
    /// into one count) and the FD with a constant predicate are walked and
    /// stop at `scan_cap`.
    #[test]
    fn compiled_scan_keeps_caps_at_the_512_edge() {
        for rows in [512usize, 513, 514, 515, 1100] {
            let mut ds = Dataset::new(Schema::new(vec!["K", "A", "N"]));
            for i in 0..rows {
                // The last rows alone hold a2, past a 512-partner walk.
                let a = if i >= 512 { 2 } else { i % 2 };
                ds.push_row(&["k".to_string(), format!("a{a}"), format!("{}", i % 7)]);
            }
            let (foreign, a2) = (ds.intern("elsewhere"), ds.intern("a2"));
            let cons = parse_constraints(
                "FD: K -> A\nt1&t2&EQ(t1.K,t2.K)&IQ(t1.N,t2.A)\nt1&t2&EQ(t1.K,t2.K)&LT(t1.N,t2.N)\nt1&t2&EQ(t1.K,t2.K)&IQ(t1.N,t2.N)&IQ(t1.A,\"a1\")",
                &mut ds,
            )
            .unwrap();
            let cells = [0, 1, 511, rows - 1].into_iter().flat_map(|t| {
                (0..3).map(move |a| CellRef {
                    tuple: t.into(),
                    attr: AttrId(a),
                })
            });
            assert_scan_matches_interpreter(&ds, &cons, cells, foreign);
            // What the clamp and the missing scan cap mean, spelled out
            // for t0.A under the FD.
            let feat = DcFeaturizer::new(&ds, &cons, &HoloConfig::default());
            let cell = CellRef::new(0, 1);
            let counts = feat.violation_counts(0, cell, &[ds.cell_ref(cell), a2, foreign]);
            let beyond = (rows - 512) as u32;
            assert_eq!(counts[0], (256 + beyond).min(512), "a0: the a1 and a2 rows");
            assert_eq!(counts[1], 511, "a2: the first 512 rows but t0 itself");
            assert_eq!(counts[2], (rows as u32 - 1).min(512), "every partner");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The compiled scan counts exactly what the interpreter counts,
        /// over tables with nulls in key and residual attributes, targets
        /// that are the blocking-key attribute, asymmetric two-role
        /// constraints (joins across different attributes included),
        /// order, similarity and constant predicates and a join-free
        /// constraint. Three of the constraints are FD-shaped — two FDs
        /// and a cross-attribute join with two roles — so the grouped
        /// count meets a candidate in the key, in the dependent
        /// attribute, null, foreign, and equal to and different from the
        /// stored value, with the target's own tuple inside and outside
        /// the bucket it is counted against.
        #[test]
        fn compiled_scan_equals_interpreter(
            rows in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..6), 2..28),
        ) {
            // 0 encodes a null cell.
            let cs = |p: &str, v: u8| if v == 0 { String::new() } else { format!("{p}{v}") };
            let mut ds = Dataset::new(Schema::new(vec!["K", "A", "B", "N"]));
            for &(k, a, b, n) in &rows {
                let num = if n == 0 { String::new() } else { format!("{}", n * 5) };
                // A and K share a value space so `t1.K = t2.A` can join.
                ds.push_row(&[cs("v", k), cs("v", a), cs("bee", b), num]);
            }
            let foreign = ds.intern("elsewhere");
            let cons = parse_constraints(
                "FD: K -> A
                 FD: K, B -> N
                 t1&t2&EQ(t1.K,t2.K)&LT(t1.N,t2.N)
                 t1&t2&EQ(t1.K,t2.A)&IQ(t1.B,t2.B)
                 t1&t2&EQ(t1.K,t2.K)&GTE(t1.N,t2.N)&EQ(t1.B,\"bee1\")&IQ(t2.A,\"v2\")
                 t1&t2&EQ(t1.A,t2.A)&SIM0.6(t1.B,t2.B)&IQ(t1.K,t2.K)
                 t1&t2&IQ(t1.A,t2.A)&GT(t1.N,t2.N)
                 t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t1.B)&LTE(t2.N,t2.N)",
                &mut ds,
            ).unwrap();
            let fd_shaped = |sigma| PairScan::new(cons.get(sigma), TupleVar::T1).fd_shape().is_some();
            proptest::prop_assert!([0, 1, 3].into_iter().all(fd_shaped));
            let cells: Vec<CellRef> = ds
                .tuples()
                .flat_map(|t| ds.schema().attrs().map(move |attr| CellRef { tuple: t, attr }))
                .collect();
            assert_scan_matches_interpreter(&ds, &cons, cells.into_iter(), foreign);
        }
    }
}
