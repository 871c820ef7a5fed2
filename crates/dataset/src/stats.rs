//! Quantitative statistics of a dataset.
//!
//! HoloClean uses two statistical views of the input (§4.1, §5.1.1):
//!
//! * [`FrequencyStats`] — per-attribute value counts (the empirical
//!   distribution of each attribute); used by outlier detection and by the
//!   SCARE baseline.
//! * [`CooccurStats`] — pairwise co-occurrence counts
//!   `#(v@A, v'@A')` for every ordered attribute pair, which give the
//!   conditional probability `Pr[v | v'] = #(v, v') / #v'` at the heart of
//!   the Algorithm 2 domain-pruning rule and of the co-occurrence features
//!   (`HasFeature(t, a, f)` with `f = "A'=v'"`).
//!
//! # Dense engine and the retained oracle
//!
//! [`CooccurStats`] stores its counts in one of two interchangeable
//! backends:
//!
//! * **Dense** (the default): every non-null value of every attribute gets
//!   a compact per-attribute *code* (a [`ValueCodes`] registry built
//!   next to the frequency tables), and each ordered attribute pair owns a
//!   count block — a dense `|V_cond| × |V_target|` row-major matrix when
//!   the block fits under a size threshold, CSR-style sorted postings per
//!   conditioning value above it. Queries index contiguous rows instead of
//!   probing two hash levels, and the build kernel is hash-free: one
//!   sequential pass interns codes and transposes the batch into coded
//!   columns, then per-pair jobs either scatter into the matrix or
//!   sort-and-run-length-encode packed `(code, code)` words.
//! * **Naive** (the oracle): the original nested
//!   `FxHashMap<u64, FxHashMap<Sym, u32>>` keyed by packed
//!   `(cond, target, v_cond)` triples, selected by
//!   `CooccurStats::build_with_opts(.., naive = true)` (surfaced as
//!   `--naive-stats` on the bench binaries).
//!
//! Counts are integer accumulators, so the two backends answer **every**
//! query identically — `count`, `prob`, `conditional_prob`, [`GroupView`]
//! contents, `group_count` — over any table, values that no row holds any
//! more included, at any thread count. That equivalence is proptested
//! below (`dense_matches_naive_oracle`) and CI byte-diffs full pipeline
//! dumps between the backends.
//!
//! A [`CooccurStats`] is **built, then read**: one pass over the rows of a
//! frozen table, sharded per ordered attribute pair (each pair owns a
//! disjoint slice of the key space or block table, so per-pair results
//! merge without collisions), and no mutator afterwards. A table that
//! changed gets new statistics — a streaming session builds them at its
//! next read, through the same call as the one-shot pipeline.
//!
//! **Which pairs.** Every reader asks about a *target* attribute — which
//! values of `A` co-occur with `v'@A'` — and the repair pipeline only ever
//! asks about attributes that have a variable. So
//! [`CooccurStats::build_for_targets`] builds the `(·, target)` pairs of a
//! given attribute set only (`build_with_opts` = every attribute); value
//! codes and [`FrequencyStats`] are always complete. The statistics
//! remember their targets: a keyed read of any other pair is a
//! `debug_assert!` failure rather than a silent zero, the block walks
//! ([`CooccurStats::for_each_group_of`], the correlation view) visit held
//! targets only, and [`StatsStats::pairs`] counts them.
//!
//! On top of the counts, [`CooccurStats::correlations`] lazily computes an
//! attribute dependency view — the uncertainty coefficient
//! `U(target | cond) = 1 − H(target|cond) / H(target)` per ordered pair —
//! once, on first use. Algorithm 2 uses it (opt-in, via
//! `HoloConfig::cor_strength`) to skip uncorrelated partner attributes
//! entirely. Entropy terms are summed in canonical symbol order, so the
//! view is bit-identical across backends and thread counts.
//!
//! Null cells never contribute to co-occurrence statistics: a missing value
//! is evidence of nothing.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::fxhash::FxHashMap;
use crate::schema::AttrId;
use crate::table::Dataset;
use crate::value::Sym;

/// Per-attribute value frequency tables.
#[derive(Debug, Clone)]
pub struct FrequencyStats {
    counts: Vec<FxHashMap<Sym, u32>>,
    tuples: usize,
}

impl FrequencyStats {
    /// Scans the dataset once, column-major, and tabulates per-attribute
    /// counts.
    pub fn build(ds: &Dataset) -> Self {
        let mut counts: Vec<FxHashMap<Sym, u32>> = vec![FxHashMap::default(); ds.schema().len()];
        for a in ds.schema().attrs() {
            let table = &mut counts[a.index()];
            for &v in ds.column(a) {
                *table.entry(v).or_insert(0) += 1;
            }
        }
        FrequencyStats {
            counts,
            tuples: ds.tuple_count(),
        }
    }

    /// Number of tuples the statistics were computed over.
    pub fn tuple_count(&self) -> usize {
        self.tuples
    }

    /// How often `v` occurs in attribute `a`.
    #[inline]
    pub fn count(&self, a: AttrId, v: Sym) -> u32 {
        self.counts[a.index()].get(&v).copied().unwrap_or(0)
    }

    /// Empirical probability of `v` within attribute `a`.
    pub fn prob(&self, a: AttrId, v: Sym) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            f64::from(self.count(a, v)) / self.tuples as f64
        }
    }

    /// The most frequent non-null value of attribute `a`, if any. Ties break
    /// toward the smaller symbol id for determinism.
    pub fn most_common(&self, a: AttrId) -> Option<(Sym, u32)> {
        self.counts[a.index()]
            .iter()
            .filter(|(s, _)| !s.is_null())
            .map(|(&s, &c)| (s, c))
            .max_by(|(s1, c1), (s2, c2)| c1.cmp(c2).then(s2.cmp(s1)))
    }

    /// Number of distinct values (null included if present) in attribute `a`.
    pub fn distinct(&self, a: AttrId) -> usize {
        self.counts[a.index()].len()
    }

    /// Iterates over `(value, count)` for attribute `a`.
    pub fn iter_attr(&self, a: AttrId) -> impl Iterator<Item = (Sym, u32)> + '_ {
        self.counts[a.index()].iter().map(|(&s, &c)| (s, c))
    }
}

/// Packs a `(cond_attr, target_attr, cond_sym)` triple into a `u64` map key
/// (naive backend only).
#[inline]
fn key(cond_attr: AttrId, target_attr: AttrId, cond_sym: Sym) -> u64 {
    ((cond_attr.0 as u64) << 48) | ((target_attr.0 as u64) << 32) | cond_sym.0 as u64
}

/// Above this many cells a pair block stores CSR postings instead of a
/// dense matrix (64Ki cells = 256KiB of `u32` counts per pair).
const DENSE_MAX_CELLS: usize = 1 << 16;

/// Code of a null cell in a transient coded column — never stored.
const NULL_CODE: u32 = u32::MAX;

/// Compact per-attribute `Sym → code` registry. Codes are dense
/// (`0..len(attr)`), assigned in first-appearance order over the scanned
/// rows.
#[derive(Debug, Clone)]
pub struct ValueCodes {
    code: Vec<FxHashMap<Sym, u32>>,
    syms: Vec<Vec<Sym>>,
}

impl ValueCodes {
    fn new(n_attrs: usize) -> Self {
        ValueCodes {
            code: vec![FxHashMap::default(); n_attrs],
            syms: vec![Vec::new(); n_attrs],
        }
    }

    fn intern(&mut self, a: AttrId, v: Sym) -> u32 {
        let table = &mut self.code[a.index()];
        if let Some(&c) = table.get(&v) {
            return c;
        }
        let c = self.syms[a.index()].len() as u32;
        table.insert(v, c);
        self.syms[a.index()].push(v);
        c
    }

    /// The code of `v` in attribute `a`, if the value has ever been seen.
    #[inline]
    pub fn code(&self, a: AttrId, v: Sym) -> Option<u32> {
        self.code[a.index()].get(&v).copied()
    }

    /// Number of codes assigned in attribute `a`.
    pub fn len(&self, a: AttrId) -> usize {
        self.syms[a.index()].len()
    }

    /// The symbols of attribute `a`, indexed by code.
    pub fn syms(&self, a: AttrId) -> &[Sym] {
        &self.syms[a.index()]
    }
}

/// Count storage for one ordered attribute pair in the dense backend.
#[derive(Debug, Clone)]
enum PairBlock {
    /// Row-major `rows × stride` matrix with `stride == codes.len(target)`;
    /// `nonzero[c]` (one per conditioning code) counts the non-zero cells
    /// of row `c`, so an all-zero row reads as an absent group.
    Dense {
        stride: usize,
        counts: Vec<u32>,
        nonzero: Vec<u32>,
    },
    /// One posting list per conditioning code, sorted by target code.
    Csr { rows: Vec<Vec<(u32, u32)>> },
}

impl PairBlock {
    fn empty() -> Self {
        PairBlock::Csr { rows: Vec::new() }
    }

    /// Number of non-empty groups (conditioning values with at least one
    /// non-zero co-occurrence) in this block.
    fn group_rows(&self) -> usize {
        match self {
            PairBlock::Dense { nonzero, .. } => nonzero.iter().filter(|&&n| n > 0).count(),
            PairBlock::Csr { rows } => rows.iter().filter(|r| !r.is_empty()).count(),
        }
    }
}

/// The dense backend: a code registry plus one [`PairBlock`] per ordered
/// attribute pair (row-major `n_attrs × n_attrs`, diagonal unused).
#[derive(Debug, Clone)]
struct DenseTables {
    codes: ValueCodes,
    blocks: Vec<PairBlock>,
    n_attrs: usize,
    groups: usize,
}

/// The ordered attribute pairs `(cond, target)`, `cond != target`, whose
/// target attribute is in `targets`.
fn ordered_pairs(ds: &Dataset, targets: &[bool]) -> Vec<(AttrId, AttrId)> {
    let attrs: Vec<AttrId> = ds.schema().attrs().collect();
    let mut pairs: Vec<(AttrId, AttrId)> = Vec::with_capacity(attrs.len() * attrs.len());
    for &cond in &attrs {
        for &target in &attrs {
            if cond != target && targets[target.index()] {
                pairs.push((cond, target));
            }
        }
    }
    pairs
}

/// Codes every column of the table, interning any new values. Interning
/// scans column-major in row order, so code assignment is deterministic
/// and thread-independent.
fn code_rows(ds: &Dataset, codes: &mut ValueCodes) -> Vec<Vec<u32>> {
    let mut cols: Vec<Vec<u32>> = Vec::with_capacity(ds.schema().len());
    for a in ds.schema().attrs() {
        let col = ds.column(a);
        let mut coded = Vec::with_capacity(col.len());
        for &v in col {
            coded.push(if v.is_null() {
                NULL_CODE
            } else {
                codes.intern(a, v)
            });
        }
        cols.push(coded);
    }
    cols
}

/// Hash-free full-build kernel for one pair: scatter into a dense matrix
/// when it fits, otherwise sort-and-RLE packed code words into postings.
fn build_block(cond_col: &[u32], target_col: &[u32], vc: usize, vt: usize) -> PairBlock {
    if vc * vt <= DENSE_MAX_CELLS {
        let mut counts = vec![0u32; vc * vt];
        for (&c, &t) in cond_col.iter().zip(target_col) {
            if c == NULL_CODE || t == NULL_CODE {
                continue;
            }
            counts[c as usize * vt + t as usize] += 1;
        }
        let mut nonzero = vec![0u32; vc];
        for (c, nz) in nonzero.iter_mut().enumerate() {
            *nz = counts[c * vt..(c + 1) * vt]
                .iter()
                .filter(|&&x| x != 0)
                .count() as u32;
        }
        PairBlock::Dense {
            stride: vt,
            counts,
            nonzero,
        }
    } else {
        let mut packed: Vec<u64> = Vec::with_capacity(cond_col.len());
        for (&c, &t) in cond_col.iter().zip(target_col) {
            if c == NULL_CODE || t == NULL_CODE {
                continue;
            }
            packed.push(((c as u64) << 32) | t as u64);
        }
        packed.sort_unstable();
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); vc];
        for run in packed.chunk_by(|a, b| a == b) {
            rows[(run[0] >> 32) as usize].push((run[0] as u32, run.len() as u32));
        }
        PairBlock::Csr { rows }
    }
}

impl DenseTables {
    fn build(ds: &Dataset, threads: usize, targets: &[bool]) -> Self {
        let n = ds.schema().len();
        let mut codes = ValueCodes::new(n);
        let coded = code_rows(ds, &mut codes);
        let pairs = ordered_pairs(ds, targets);
        let threads = holo_parallel::sized_threads(threads, pairs.len() * ds.tuple_count());
        // parallel_jobs, not parallel_map: each "item" is a full column
        // scan, so even the 12 pairs of a 4-attribute schema are worth
        // spreading across cores once the row count is large enough
        // (sized_threads supplies the small-input sequential fallback).
        let built = holo_parallel::parallel_jobs(threads, pairs.len(), |i| {
            let (cond, target) = pairs[i];
            build_block(
                &coded[cond.index()],
                &coded[target.index()],
                codes.len(cond),
                codes.len(target),
            )
        });
        let mut blocks = vec![PairBlock::empty(); n * n];
        let mut groups = 0;
        for (&(cond, target), block) in pairs.iter().zip(built) {
            groups += block.group_rows();
            blocks[cond.index() * n + target.index()] = block;
        }
        DenseTables {
            codes,
            blocks,
            n_attrs: n,
            groups,
        }
    }

    #[inline]
    fn block(&self, cond: AttrId, target: AttrId) -> &PairBlock {
        &self.blocks[cond.index() * self.n_attrs + target.index()]
    }
}

/// One co-occurrence group: every value of `target` co-occurring with a
/// fixed `v_cond@cond`, with counts. Iteration order is
/// backend-dependent (hash order vs code order) — consumers must not
/// depend on it; every caller either re-sorts or folds order-insensitively.
#[derive(Debug, Clone, Copy)]
pub enum GroupView<'a> {
    /// Naive backend: the group's hash table.
    Map(&'a FxHashMap<Sym, u32>),
    /// Dense backend, matrix block: one contiguous count row, indexed by
    /// target code (`syms[code]` recovers the symbol). `nonzero` is the
    /// row's nonzero-entry count, letting iteration stop as
    /// soon as every live entry has been visited.
    Dense {
        syms: &'a [Sym],
        counts: &'a [u32],
        nonzero: u32,
    },
    /// Dense backend, CSR block: sorted `(target_code, count)` postings.
    Csr {
        syms: &'a [Sym],
        postings: &'a [(u32, u32)],
    },
}

impl GroupView<'_> {
    /// Calls `f(v, count)` for every non-zero co-occurrence in the group.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(Sym, u32)) {
        match *self {
            GroupView::Map(m) => {
                for (&s, &c) in m {
                    f(s, c);
                }
            }
            GroupView::Dense {
                syms,
                counts,
                nonzero,
            } => {
                // Dense rows are usually sparse (an FD-correlated pair has
                // one nonzero per row), so a plain scan wastes most of its
                // iterations on zeros. Test 16-lane chunks for all-zero
                // first — the compare vectorizes — and stop once the row's
                // nonzero count is exhausted. Nonzero entries
                // are still visited strictly in code order.
                const LANES: usize = 16;
                let mut left = nonzero;
                let mut base = 0usize;
                while left > 0 && base < counts.len() {
                    let end = (base + LANES).min(counts.len());
                    let chunk = &counts[base..end];
                    if chunk.iter().any(|&c| c != 0) {
                        for (i, &c) in chunk.iter().enumerate() {
                            if c != 0 {
                                f(syms[base + i], c);
                                left -= 1;
                            }
                        }
                    }
                    base = end;
                }
            }
            GroupView::Csr { syms, postings } => {
                for &(t, c) in postings {
                    f(syms[t as usize], c);
                }
            }
        }
    }

    /// Count for the target value with code `t` — the dense-backend fast
    /// path (callers pre-resolve candidate codes once via
    /// [`CooccurStats::codes`]). Returns 0 on the naive backend, which has
    /// no codes; probe `Map` groups by symbol instead.
    #[inline]
    pub fn count_by_code(&self, t: u32) -> u32 {
        match *self {
            GroupView::Map(_) => 0,
            GroupView::Dense { counts, .. } => counts.get(t as usize).copied().unwrap_or(0),
            GroupView::Csr { postings, .. } => postings
                .binary_search_by_key(&t, |&(tc, _)| tc)
                .map(|i| postings[i].1)
                .unwrap_or(0),
        }
    }

    /// Sum of all counts in the group.
    pub fn total(&self) -> u64 {
        let mut total = 0u64;
        self.for_each(|_, c| total += u64::from(c));
        total
    }
}

/// Attribute dependency view: the uncertainty coefficient
/// `U(target | cond) = 1 − H(target | cond) / H(target)` for every ordered
/// attribute pair, computed over the pairwise non-null co-occurrence
/// counts. `1.0` means `cond` determines `target` (or `target` is
/// constant); `0.0` means independence (or no co-occurring rows).
#[derive(Debug, Clone)]
pub struct CorrelationView {
    n_attrs: usize,
    corr: Vec<f64>,
}

impl CorrelationView {
    /// How strongly `cond` predicts `target`, in `[0, 1]`.
    #[inline]
    pub fn correlation(&self, cond: AttrId, target: AttrId) -> f64 {
        let corr = self.corr[cond.index() * self.n_attrs + target.index()];
        debug_assert!(!corr.is_nan(), "pairs of {target:?} not built");
        corr
    }
}

/// One pair's groups in symbol space: `(v_cond, [(v_target, count)])`.
type PairRows = Vec<(Sym, Vec<(Sym, u32)>)>;

/// Uncertainty coefficient of one pair from its canonicalized groups.
/// Sorts rows by conditioning symbol and entries by target symbol before
/// summing, so the floating-point result is bit-identical regardless of
/// which backend (or thread count) produced the groups.
fn uncertainty_coefficient(rows: &mut [(Sym, Vec<(Sym, u32)>)]) -> f64 {
    rows.sort_unstable_by_key(|&(s, _)| s);
    let mut marginal: FxHashMap<Sym, u64> = FxHashMap::default();
    let mut total = 0u64;
    for (_, entries) in rows.iter_mut() {
        entries.sort_unstable_by_key(|&(s, _)| s);
        for &(t, c) in entries.iter() {
            *marginal.entry(t).or_insert(0) += u64::from(c);
            total += u64::from(c);
        }
    }
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let mut marginal: Vec<(Sym, u64)> = marginal.into_iter().collect();
    marginal.sort_unstable_by_key(|&(s, _)| s);
    let mut h_target = 0.0;
    for &(_, c) in &marginal {
        let p = c as f64 / n;
        h_target -= p * p.ln();
    }
    if h_target <= 0.0 {
        // A constant target is perfectly predicted by anything.
        return 1.0;
    }
    let mut h_cond = 0.0;
    for (_, entries) in rows.iter() {
        let nc: u64 = entries.iter().map(|&(_, c)| u64::from(c)).sum();
        if nc == 0 {
            continue;
        }
        let ncf = nc as f64;
        let mut h_row = 0.0;
        for &(_, c) in entries {
            let p = f64::from(c) / ncf;
            h_row -= p * p.ln();
        }
        h_cond += (ncf / n) * h_row;
    }
    (1.0 - h_cond / h_target).clamp(0.0, 1.0)
}

/// Size gauges of the statistics engine, surfaced through `StageTimings`
/// into `diag` / `diag --json`. `dense_pairs`, `csr_pairs`, `dense_cells`
/// and `bytes` describe the dense backend's storage (all zero under the
/// naive oracle); `bytes` is the count-payload plus code-registry
/// estimate, not allocator-exact.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StatsStats {
    /// Ordered attribute pairs built, on either backend: target
    /// attributes held × `(|A| − 1)`, of `|A| · (|A| − 1)`.
    pub pairs: u64,
    /// Ordered attribute pairs stored as dense matrices.
    pub dense_pairs: u64,
    /// Ordered attribute pairs stored as CSR postings.
    pub csr_pairs: u64,
    /// Total cells across all dense matrices (zeros included).
    pub dense_cells: u64,
    /// Approximate bytes of count storage + code registry.
    pub bytes: u64,
    /// 1 once the lazy correlation view has been computed, else 0.
    pub corr_recomputes: u64,
}

/// Count storage, either backend.
#[derive(Debug, Clone)]
enum Backend {
    /// The retained oracle: `(A', A, v') → {v: count}`.
    Naive {
        table: FxHashMap<u64, FxHashMap<Sym, u32>>,
    },
    Dense(DenseTables),
}

/// Pairwise co-occurrence statistics.
///
/// For every ordered attribute pair `(A', A)` and every non-null value `v'`
/// of `A'`, stores the multiset of values of `A` that co-occur with `v'` in
/// the same tuple. Construction is a single `O(|D| · |A|²)` pass. See the
/// module docs for the dense/naive backend split.
#[derive(Debug, Clone)]
pub struct CooccurStats {
    backend: Backend,
    freq: FrequencyStats,
    /// `targets[a]`: whether the pairs `(·, a)` were built. Reading a pair
    /// outside them is a `debug_assert!` failure, never a silent zero.
    targets: Vec<bool>,
    /// Lazily computed attribute dependency view.
    corr: OnceLock<CorrelationView>,
}

impl CooccurStats {
    /// Builds co-occurrence statistics sequentially (dense backend).
    pub fn build(ds: &Dataset) -> Self {
        Self::build_with_opts(ds, 1, false)
    }

    /// Builds co-occurrence statistics with the ordered attribute pairs
    /// sharded over up to `threads` worker threads (`0` = all cores) and
    /// an explicit backend choice: `naive = true` selects the retained
    /// hash-map oracle, `false` the dense engine.
    ///
    /// Each `(cond, target)` pair owns a disjoint block (dense) or slice
    /// of the key space (naive), so per-pair results merge without
    /// collisions; within a pair, counts accumulate in tuple order exactly
    /// as the sequential pass does. Lookups are keyed (no consumer
    /// observes storage iteration order), so results are identical for
    /// every thread count.
    pub fn build_with_opts(ds: &Dataset, threads: usize, naive: bool) -> Self {
        Self::build_for_targets(ds, threads, naive, &vec![true; ds.schema().len()])
    }

    /// [`CooccurStats::build_with_opts`] restricted to the ordered pairs
    /// whose *target* attribute is set in `targets` (indexed by attribute)
    /// — the `|targets| · (|A| − 1)` blocks a caller that only ever asks
    /// "which values of these attributes co-occur with …" reads. Value
    /// codes and [`FrequencyStats`] stay complete, every held pair is the
    /// block the full build holds, and the statistics remember the mask:
    /// see [`CooccurStats::holds_target`].
    pub fn build_for_targets(ds: &Dataset, threads: usize, naive: bool, targets: &[bool]) -> Self {
        assert_eq!(targets.len(), ds.schema().len(), "one flag per attribute");
        let freq = FrequencyStats::build(ds);
        let backend = if naive {
            Backend::Naive {
                table: build_naive_table(ds, threads, targets),
            }
        } else {
            Backend::Dense(DenseTables::build(ds, threads, targets))
        };
        CooccurStats {
            backend,
            freq,
            targets: targets.to_vec(),
            corr: OnceLock::new(),
        }
    }

    /// Whether the pairs with target attribute `target` were built. Every
    /// keyed read ([`CooccurStats::cooccur_count`],
    /// [`CooccurStats::conditional_prob`], [`CooccurStats::group`],
    /// [`CorrelationView::correlation`]) `debug_assert!`s it, and the
    /// whole-statistics walks visit held targets only.
    pub fn holds_target(&self, target: AttrId) -> bool {
        self.targets[target.index()]
    }

    /// Whether the dense backend is active (false = naive oracle).
    pub fn is_dense(&self) -> bool {
        matches!(self.backend, Backend::Dense(_))
    }

    /// The dense backend's value-code registry, `None` under the naive
    /// oracle. Hot readers use it to pre-resolve candidate codes once and
    /// then probe [`GroupView::count_by_code`].
    pub fn codes(&self) -> Option<&ValueCodes> {
        match &self.backend {
            Backend::Dense(dt) => Some(&dt.codes),
            Backend::Naive { .. } => None,
        }
    }

    /// The frequency statistics computed alongside.
    pub fn freq(&self) -> &FrequencyStats {
        &self.freq
    }

    /// `#(v@target, v'@cond)` — tuples where both values appear together.
    pub fn cooccur_count(&self, cond: AttrId, v_cond: Sym, target: AttrId, v: Sym) -> u32 {
        debug_assert!(self.holds_target(target), "pairs of {target:?} not built");
        match &self.backend {
            Backend::Naive { table } => table
                .get(&key(cond, target, v_cond))
                .and_then(|m| m.get(&v))
                .copied()
                .unwrap_or(0),
            Backend::Dense(dt) => {
                let (Some(c), Some(t)) = (dt.codes.code(cond, v_cond), dt.codes.code(target, v))
                else {
                    return 0;
                };
                match dt.block(cond, target) {
                    PairBlock::Dense { stride, counts, .. } => counts
                        .get(c as usize * *stride + t as usize)
                        .copied()
                        .unwrap_or(0),
                    PairBlock::Csr { rows } => rows
                        .get(c as usize)
                        .and_then(|row| {
                            row.binary_search_by_key(&t, |&(tc, _)| tc)
                                .ok()
                                .map(|i| row[i].1)
                        })
                        .unwrap_or(0),
                }
            }
        }
    }

    /// The Algorithm 2 conditional probability
    /// `Pr[v@target | v'@cond] = #(v, v') / #v'`.
    pub fn conditional_prob(&self, cond: AttrId, v_cond: Sym, target: AttrId, v: Sym) -> f64 {
        let denom = self.freq.count(cond, v_cond);
        if denom == 0 {
            return 0.0;
        }
        f64::from(self.cooccur_count(cond, v_cond, target, v)) / f64::from(denom)
    }

    /// All values of `target` co-occurring with `v_cond@cond`, with
    /// counts. Returns `None` when `v_cond` never co-occurs with a
    /// non-null `target` value.
    pub fn group(&self, cond: AttrId, v_cond: Sym, target: AttrId) -> Option<GroupView<'_>> {
        debug_assert!(self.holds_target(target), "pairs of {target:?} not built");
        match &self.backend {
            Backend::Naive { table } => table.get(&key(cond, target, v_cond)).map(GroupView::Map),
            Backend::Dense(dt) => {
                let c = dt.codes.code(cond, v_cond)? as usize;
                let syms = dt.codes.syms(target);
                match dt.block(cond, target) {
                    PairBlock::Dense {
                        stride,
                        counts,
                        nonzero,
                    } => {
                        if c >= nonzero.len() || nonzero[c] == 0 {
                            return None;
                        }
                        Some(GroupView::Dense {
                            syms,
                            counts: &counts[c * stride..(c + 1) * stride],
                            nonzero: nonzero[c],
                        })
                    }
                    PairBlock::Csr { rows } => {
                        let postings = rows.get(c)?;
                        if postings.is_empty() {
                            return None;
                        }
                        Some(GroupView::Csr { syms, postings })
                    }
                }
            }
        }
    }

    /// Number of distinct `(cond, target, v_cond)` groups stored.
    pub fn group_count(&self) -> usize {
        match &self.backend {
            Backend::Naive { table } => table.len(),
            Backend::Dense(dt) => dt.groups,
        }
    }

    /// The attribute dependency view over the counts, computed on first
    /// use and cached. Bit-identical across backends and thread counts.
    pub fn correlations(&self) -> &CorrelationView {
        self.corr.get_or_init(|| self.compute_correlations())
    }

    /// Calls `f(target, v_cond, group)` once for every non-empty group
    /// conditioned on attribute `cond` — the block-level walk that
    /// whole-statistics consumers (the Algorithm 2 threshold index, the
    /// correlation view) use instead of probing [`CooccurStats::group`] per
    /// value. Visit order is backend-dependent (hash order vs target-major
    /// code order); callers must fold order-insensitively.
    pub fn for_each_group_of(&self, cond: AttrId, mut f: impl FnMut(AttrId, Sym, GroupView<'_>)) {
        match &self.backend {
            Backend::Naive { table } => {
                for (&k, m) in table {
                    if (k >> 48) as u16 == cond.0 {
                        let target = AttrId((k >> 32) as u16);
                        f(target, Sym(k as u32), GroupView::Map(m));
                    }
                }
            }
            Backend::Dense(dt) => {
                let csyms = dt.codes.syms(cond);
                for target in (0..dt.n_attrs).map(|t| AttrId(t as u16)) {
                    if target == cond || !self.holds_target(target) {
                        continue;
                    }
                    let syms = dt.codes.syms(target);
                    match dt.block(cond, target) {
                        PairBlock::Dense {
                            stride,
                            counts,
                            nonzero,
                        } => {
                            for (c, &nz) in nonzero.iter().enumerate() {
                                if nz > 0 {
                                    let counts = &counts[c * stride..(c + 1) * stride];
                                    let group = GroupView::Dense {
                                        syms,
                                        counts,
                                        nonzero: nz,
                                    };
                                    f(target, csyms[c], group);
                                }
                            }
                        }
                        PairBlock::Csr { rows } => {
                            for (c, postings) in rows.iter().enumerate() {
                                if !postings.is_empty() {
                                    f(target, csyms[c], GroupView::Csr { syms, postings });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn compute_correlations(&self) -> CorrelationView {
        let n = self.freq.counts.len();
        let mut per_pair: Vec<PairRows> = vec![Vec::new(); n * n];
        for cond in 0..n {
            self.for_each_group_of(AttrId(cond as u16), |target, v_cond, group| {
                let mut entries = Vec::new();
                group.for_each(|s, c| entries.push((s, c)));
                per_pair[cond * n + target.index()].push((v_cond, entries));
            });
        }
        let mut corr = vec![0.0; n * n];
        for cond in 0..n {
            for target in 0..n {
                corr[cond * n + target] = if cond == target {
                    1.0
                } else if self.targets[target] {
                    uncertainty_coefficient(&mut per_pair[cond * n + target])
                } else {
                    f64::NAN // not held: `correlation` refuses to read it
                };
            }
        }
        CorrelationView { n_attrs: n, corr }
    }

    /// Snapshot of the engine's size gauges.
    pub fn stats_stats(&self) -> StatsStats {
        let mut s = StatsStats {
            corr_recomputes: u64::from(self.corr.get().is_some()),
            ..StatsStats::default()
        };
        let held = self.targets.iter().filter(|&&t| t).count();
        s.pairs = (held * self.targets.len().saturating_sub(1)) as u64;
        if let Backend::Dense(dt) = &self.backend {
            let n = dt.n_attrs;
            for cond in 0..n {
                for target in 0..n {
                    if cond == target || !self.targets[target] {
                        continue;
                    }
                    match &dt.blocks[cond * n + target] {
                        PairBlock::Dense {
                            counts, nonzero, ..
                        } => {
                            s.dense_pairs += 1;
                            s.dense_cells += counts.len() as u64;
                            s.bytes += 4 * (counts.len() + nonzero.len()) as u64;
                        }
                        PairBlock::Csr { rows } => {
                            s.csr_pairs += 1;
                            s.bytes += rows.iter().map(|r| 8 * r.len() as u64).sum::<u64>();
                        }
                    }
                }
            }
            for a in 0..n {
                s.bytes += 4 * dt.codes.syms[a].len() as u64 + 12 * dt.codes.code[a].len() as u64;
            }
        }
        s
    }
}

/// Full build of the naive oracle table, sharded per ordered pair.
fn build_naive_table(
    ds: &Dataset,
    threads: usize,
    targets: &[bool],
) -> FxHashMap<u64, FxHashMap<Sym, u32>> {
    let pairs = ordered_pairs(ds, targets);
    let threads = holo_parallel::sized_threads(threads, pairs.len() * ds.tuple_count());
    let per_pair = holo_parallel::parallel_jobs(threads, pairs.len(), |i| {
        let (cond, target) = pairs[i];
        let mut local: FxHashMap<u64, FxHashMap<Sym, u32>> = FxHashMap::default();
        for (&v_cond, &v_target) in ds.column(cond).iter().zip(ds.column(target)) {
            if v_cond.is_null() || v_target.is_null() {
                continue;
            }
            *local
                .entry(key(cond, target, v_cond))
                .or_default()
                .entry(v_target)
                .or_insert(0) += 1;
        }
        local
    });
    let mut table: FxHashMap<u64, FxHashMap<Sym, u32>> = FxHashMap::default();
    for local in per_pair {
        table.extend(local);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TupleId;
    use proptest::prelude::*;

    fn chicago() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["City", "State", "Zip"]));
        ds.push_row(&["Chicago", "IL", "60608"]);
        ds.push_row(&["Chicago", "IL", "60608"]);
        ds.push_row(&["Chicago", "IL", "60609"]);
        ds.push_row(&["Cicago", "IL", "60608"]);
        ds.push_row(&["", "IL", "60608"]);
        ds
    }

    #[test]
    fn frequency_counts() {
        let ds = chicago();
        let f = FrequencyStats::build(&ds);
        let city = ds.schema().attr_id("City").unwrap();
        let chicago = ds.pool().get("Chicago").unwrap();
        let cicago = ds.pool().get("Cicago").unwrap();
        assert_eq!(f.count(city, chicago), 3);
        assert_eq!(f.count(city, cicago), 1);
        assert_eq!(f.count(city, Sym::NULL), 1);
        assert_eq!(f.tuple_count(), 5);
        assert!((f.prob(city, chicago) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn most_common_ignores_null() {
        let ds = chicago();
        let f = FrequencyStats::build(&ds);
        let city = ds.schema().attr_id("City").unwrap();
        let (sym, count) = f.most_common(city).unwrap();
        assert_eq!(ds.value_str(sym), "Chicago");
        assert_eq!(count, 3);
    }

    #[test]
    fn cooccurrence_counts() {
        let ds = chicago();
        for naive in [false, true] {
            let s = CooccurStats::build_with_opts(&ds, 1, naive);
            let city = ds.schema().attr_id("City").unwrap();
            let zip = ds.schema().attr_id("Zip").unwrap();
            let chicago = ds.pool().get("Chicago").unwrap();
            let z08 = ds.pool().get("60608").unwrap();
            let z09 = ds.pool().get("60609").unwrap();
            // "Chicago" co-occurs with 60608 twice and 60609 once.
            assert_eq!(s.cooccur_count(city, chicago, zip, z08), 2);
            assert_eq!(s.cooccur_count(city, chicago, zip, z09), 1);
            // Conditioning the other way: of 4 tuples with zip 60608, 2 say Chicago.
            assert_eq!(s.cooccur_count(zip, z08, city, chicago), 2);
            assert!((s.conditional_prob(zip, z08, city, chicago) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn nulls_do_not_cooccur() {
        let ds = chicago();
        for naive in [false, true] {
            let s = CooccurStats::build_with_opts(&ds, 1, naive);
            let city = ds.schema().attr_id("City").unwrap();
            let zip = ds.schema().attr_id("Zip").unwrap();
            let z08 = ds.pool().get("60608").unwrap();
            // The null city of t4 must not appear among zip→city co-occurrences.
            let g = s.group(zip, z08, city).unwrap();
            let mut saw_null = false;
            g.for_each(|v, _| saw_null |= v.is_null());
            assert!(!saw_null);
            // Sum over city values for 60608 = 3 non-null cities (2 Chicago + 1 Cicago).
            assert_eq!(g.total(), 3);
        }
    }

    #[test]
    fn conditional_prob_of_unseen_is_zero() {
        let ds = chicago();
        for naive in [false, true] {
            let s = CooccurStats::build_with_opts(&ds, 1, naive);
            let city = ds.schema().attr_id("City").unwrap();
            let state = ds.schema().attr_id("State").unwrap();
            let cicago = ds.pool().get("Cicago").unwrap();
            let z09 = ds.pool().get("60609").unwrap();
            // Cicago never co-occurs with 60609.
            let zip = ds.schema().attr_id("Zip").unwrap();
            assert_eq!(s.conditional_prob(city, cicago, zip, z09), 0.0);
            // And an unseen conditioning value yields 0, not a panic.
            let ghost = Sym(9999);
            assert_eq!(s.conditional_prob(state, ghost, city, cicago), 0.0);
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(Schema::new(vec!["a", "b"]));
        let f = FrequencyStats::build(&ds);
        assert_eq!(f.tuple_count(), 0);
        assert_eq!(f.prob(AttrId(0), Sym(1)), 0.0);
        for naive in [false, true] {
            let s = CooccurStats::build_with_opts(&ds, 1, naive);
            assert_eq!(s.group_count(), 0);
            assert_eq!(s.correlations().correlation(AttrId(0), AttrId(1)), 0.0);
        }
    }

    /// The pair-sharded parallel build answers every query identically to
    /// the sequential pass, at several thread counts, on both backends.
    #[test]
    fn threaded_build_matches_sequential() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c", "d"]));
        for i in 0..150 {
            ds.push_row(&[
                format!("a{}", i % 11),
                format!("b{}", i % 7),
                if i % 13 == 0 {
                    String::new()
                } else {
                    format!("c{}", i % 5)
                },
                format!("d{}", i % 3),
            ]);
        }
        for naive in [false, true] {
            let sequential = CooccurStats::build_with_opts(&ds, 1, naive);
            for threads in [2, 4, 8] {
                let parallel = CooccurStats::build_with_opts(&ds, threads, naive);
                assert_eq!(parallel.group_count(), sequential.group_count());
                for cond in ds.schema().attrs() {
                    for target in ds.schema().attrs() {
                        if cond == target {
                            continue;
                        }
                        for v_cond in ds.active_domain(cond) {
                            for v in ds.active_domain(target) {
                                assert_eq!(
                                    parallel.cooccur_count(cond, v_cond, target, v),
                                    sequential.cooccur_count(cond, v_cond, target, v),
                                    "threads = {threads}, naive = {naive}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Correlations: a determined pair scores 1, independence scores ~0,
    /// and the view is bit-identical between backends.
    #[test]
    fn correlation_view_basics() {
        let mut ds = Dataset::new(Schema::new(vec!["city", "zip", "coin"]));
        // zip determines city; coin flips once per block of 4, so each coin
        // value sees the full uniform city/zip cycle — independence.
        for i in 0..40 {
            let zip = i % 4;
            ds.push_row(&[
                format!("city{}", zip),
                format!("zip{}", zip),
                format!("coin{}", (i / 4) % 2),
            ]);
        }
        let dense = CooccurStats::build(&ds);
        let naive = CooccurStats::build_with_opts(&ds, 1, true);
        let (city, zip, coin) = (AttrId(0), AttrId(1), AttrId(2));
        let cv = dense.correlations();
        assert_eq!(cv.correlation(zip, city), 1.0);
        assert_eq!(cv.correlation(city, zip), 1.0);
        assert!(cv.correlation(coin, city) < 1e-9);
        assert!(cv.correlation(zip, coin) < 1e-9);
        let nv = naive.correlations();
        for a in ds.schema().attrs() {
            for b in ds.schema().attrs() {
                assert_eq!(
                    cv.correlation(a, b).to_bits(),
                    nv.correlation(a, b).to_bits(),
                    "correlation({a:?}, {b:?}) differs between backends"
                );
            }
        }
        assert_eq!(dense.stats_stats().corr_recomputes, 1);
    }

    /// Constant target: anything predicts it perfectly.
    #[test]
    fn correlation_of_constant_target_is_one() {
        let mut ds = Dataset::new(Schema::new(vec!["x", "k"]));
        for i in 0..10 {
            ds.push_row(&[format!("x{}", i % 3), "const".to_string()]);
        }
        let s = CooccurStats::build(&ds);
        assert_eq!(s.correlations().correlation(AttrId(0), AttrId(1)), 1.0);
    }

    /// Engine gauges: the dense backend reports its blocks, the oracle
    /// reports zero storage.
    #[test]
    fn stats_stats_gauges() {
        let ds = chicago();
        let dense = CooccurStats::build(&ds);
        let s = dense.stats_stats();
        assert_eq!(s.dense_pairs + s.csr_pairs, 6); // 3 attrs → 6 ordered pairs
        assert!(s.dense_cells > 0);
        assert!(s.bytes > 0);
        assert_eq!(s.corr_recomputes, 0, "nothing asked for the view yet");
        let naive = CooccurStats::build_with_opts(&ds, 1, true);
        let s = naive.stats_stats();
        assert_eq!(s.dense_pairs + s.csr_pairs, 0);
        assert_eq!(s.bytes, 0);
    }

    /// A pair whose `|V_cond| × |V_target|` exceeds the matrix budget is
    /// stored as CSR postings; the sort-and-run-length build of that arm
    /// answers like the oracle, nulls and repeated pairs included.
    #[test]
    fn csr_arm_matches_naive_oracle() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c"]));
        for i in 0..900usize {
            let b = if i % 17 == 0 {
                String::new()
            } else {
                // Rows i and i + 300 repeat a pair; rows 600.. pair anew.
                format!("b{}", ((i % 300) * 7 + i / 600) % 290)
            };
            ds.push_row(&[format!("a{}", i % 300), b, format!("c{}", i % 3)]);
        }
        let dense = CooccurStats::build_with_opts(&ds, 2, false);
        assert_eq!(dense.stats_stats().csr_pairs, 2, "a→b and b→a");
        assert_backends_agree(&ds, &dense, &CooccurStats::build_with_opts(&ds, 2, true));
    }

    /// A build restricted to some target attributes holds, for each of
    /// them, the very pairs the full build holds — dense, CSR and naive —
    /// and nothing else: the walks skip the other targets, the gauges
    /// count the held pairs only, codes and frequencies stay complete.
    #[test]
    fn restricted_build_holds_the_full_builds_pairs_for_its_targets() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c", "d"]));
        for i in 0..900usize {
            let c = if i % 17 == 0 {
                String::new()
            } else {
                format!("c{}", i % 5)
            };
            let row = [
                format!("a{}", i % 300),
                format!("b{}", (i * 7) % 290),
                c,
                format!("d{}", i % 3),
            ];
            ds.push_row(&row);
        }
        let targets = [false, true, true, false];
        for naive in [false, true] {
            let full = CooccurStats::build_with_opts(&ds, 2, naive);
            let held = CooccurStats::build_for_targets(&ds, 2, naive, &targets);
            assert_eq!(held.stats_stats().pairs, 6);
            assert_eq!(full.stats_stats().pairs, 12);
            if !naive {
                assert_eq!(full.stats_stats().csr_pairs, 2, "a→b and b→a");
                assert_eq!(held.stats_stats().csr_pairs, 1, "a→b");
                assert_eq!(held.stats_stats().dense_pairs, 5);
            }
            let mut walked = 0;
            for cond in ds.schema().attrs() {
                assert_eq!(held.freq().distinct(cond), full.freq().distinct(cond));
                held.for_each_group_of(cond, |target, v_cond, group| {
                    assert!(held.holds_target(target));
                    let entries = |g: GroupView<'_>| {
                        let mut out = Vec::new();
                        g.for_each(|v, c| out.push((v, c)));
                        out.sort_unstable();
                        out
                    };
                    let same = full
                        .group(cond, v_cond, target)
                        .expect("the full build's group");
                    assert_eq!(entries(group), entries(same));
                    walked += 1;
                });
                for target in ds
                    .schema()
                    .attrs()
                    .filter(|&t| t != cond && targets[t.index()])
                {
                    assert_eq!(
                        held.correlations().correlation(cond, target).to_bits(),
                        full.correlations().correlation(cond, target).to_bits()
                    );
                    for v_cond in ds.active_domain(cond) {
                        for v in ds.active_domain(target) {
                            assert_eq!(
                                held.cooccur_count(cond, v_cond, target, v),
                                full.cooccur_count(cond, v_cond, target, v)
                            );
                        }
                    }
                }
            }
            assert_eq!(walked, held.group_count());
            assert!(held.group_count() < full.group_count());
        }
    }

    /// Reading a pair that was not built is a bug in the caller's target
    /// mask, caught in debug builds instead of answered with a zero.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not built")]
    fn reading_an_unheld_target_is_a_debug_assertion() {
        let ds = chicago();
        let held = CooccurStats::build_for_targets(&ds, 1, false, &[true, false, true]);
        let chicago = ds.pool().get("Chicago").unwrap();
        held.group(AttrId(0), chicago, AttrId(1));
    }

    /// Asserts the two engines answer every query identically on the
    /// current dataset.
    fn assert_backends_agree(ds: &Dataset, dense: &CooccurStats, naive: &CooccurStats) {
        assert!(dense.is_dense() && !naive.is_dense());
        assert_eq!(dense.freq().tuple_count(), naive.freq().tuple_count());
        assert_eq!(dense.group_count(), naive.group_count());
        for cond in ds.schema().attrs() {
            for target in ds.schema().attrs() {
                if cond == target {
                    continue;
                }
                let cv = dense.correlations().correlation(cond, target);
                let nv = naive.correlations().correlation(cond, target);
                assert_eq!(cv.to_bits(), nv.to_bits(), "correlation differs");
                for v_cond in ds.active_domain(cond) {
                    assert_eq!(
                        dense.freq().count(cond, v_cond),
                        naive.freq().count(cond, v_cond)
                    );
                    assert_eq!(
                        dense.freq().prob(cond, v_cond).to_bits(),
                        naive.freq().prob(cond, v_cond).to_bits()
                    );
                    let dg = dense.group(cond, v_cond, target);
                    let ng = naive.group(cond, v_cond, target);
                    assert_eq!(dg.is_some(), ng.is_some(), "group presence differs");
                    if let (Some(dg), Some(ng)) = (dg, ng) {
                        let mut dv: Vec<(Sym, u32)> = Vec::new();
                        let mut nv: Vec<(Sym, u32)> = Vec::new();
                        dg.for_each(|s, c| dv.push((s, c)));
                        ng.for_each(|s, c| nv.push((s, c)));
                        dv.sort_unstable();
                        nv.sort_unstable();
                        assert_eq!(dv, nv, "group contents differ");
                    }
                    for v in ds.active_domain(target) {
                        assert_eq!(
                            dense.cooccur_count(cond, v_cond, target, v),
                            naive.cooccur_count(cond, v_cond, target, v)
                        );
                        assert_eq!(
                            dense.conditional_prob(cond, v_cond, target, v).to_bits(),
                            naive.conditional_prob(cond, v_cond, target, v).to_bits()
                        );
                    }
                }
            }
        }
    }

    fn cell_str(kind: u8, v: u8) -> String {
        if v == 0 {
            String::new() // nulls in play at every stage
        } else {
            format!("{kind}-{v}")
        }
    }

    proptest! {
        /// Dense engine ≡ hash-map oracle: identical `count` / `prob` /
        /// `cond_prob` / group / `group_count` / correlation answers when
        /// built over random datasets at every stage of an edit (fresh,
        /// appended to, updated in place — so the pool holds values no row
        /// does) × threads {1, 4}.
        #[test]
        fn dense_matches_naive_oracle(
            rows in proptest::collection::vec((0u8..6, 0u8..4, 0u8..5), 5..40),
            extra in proptest::collection::vec((0u8..6, 0u8..4, 0u8..5), 0..15),
            update_step in 2usize..5,
        ) {
            for threads in [1usize, 4] {
                let agree = |ds: &Dataset| {
                    let dense = CooccurStats::build_with_opts(ds, threads, false);
                    let naive = CooccurStats::build_with_opts(ds, threads, true);
                    assert_backends_agree(ds, &dense, &naive);
                };
                let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c"]));
                for &(a, b, c) in &rows {
                    ds.push_row(&[cell_str(0, a), cell_str(1, b), cell_str(2, c)]);
                }
                agree(&ds);

                let batch: Vec<Vec<String>> = extra
                    .iter()
                    .map(|&(a, b, c)| vec![cell_str(0, a), cell_str(1, b), cell_str(2, c)])
                    .collect();
                ds.append_rows(&batch);
                agree(&ds);

                let new_rows: Vec<(TupleId, Vec<String>)> = (0..ds.tuple_count())
                    .step_by(update_step)
                    .map(|t| {
                        let i = t as u8;
                        let row = vec![cell_str(0, i % 7), cell_str(1, i % 3), cell_str(2, i % 6)];
                        (TupleId::from(t), row)
                    })
                    .collect();
                ds.update_rows(&new_rows);
                agree(&ds);
            }
        }

        /// Conditional probabilities over a fixed conditioning value sum to
        /// ≤ 1 for each target attribute (== 1 when no nulls involved).
        #[test]
        fn conditional_probs_normalised(
            rows in proptest::collection::vec(
                (0u8..4, 0u8..4), 1..40)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["x", "y"]));
            for (x, y) in &rows {
                ds.push_row(&[format!("x{x}"), format!("y{y}")]);
            }
            let s = CooccurStats::build(&ds);
            let x_attr = AttrId(0);
            let y_attr = AttrId(1);
            for v in ds.active_domain(x_attr) {
                let total: f64 = ds
                    .active_domain(y_attr)
                    .iter()
                    .map(|&y| s.conditional_prob(x_attr, v, y_attr, y))
                    .sum();
                prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
            }
        }

        /// Co-occurrence is symmetric in count: #(v,v') == #(v',v).
        #[test]
        fn cooccurrence_symmetric(
            rows in proptest::collection::vec((0u8..3, 0u8..3), 1..30)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["x", "y"]));
            for (x, y) in &rows {
                ds.push_row(&[format!("x{x}"), format!("y{y}")]);
            }
            let s = CooccurStats::build(&ds);
            for vx in ds.active_domain(AttrId(0)) {
                for vy in ds.active_domain(AttrId(1)) {
                    prop_assert_eq!(
                        s.cooccur_count(AttrId(0), vx, AttrId(1), vy),
                        s.cooccur_count(AttrId(1), vy, AttrId(0), vx)
                    );
                }
            }
        }
    }
}
