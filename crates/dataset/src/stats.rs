//! Quantitative statistics of a dataset.
//!
//! HoloClean's statistical view of the input (§4.1, §5.1.1) is
//! [`CooccurStats`]: per-attribute value counts and pairwise co-occurrence
//! counts `#(v@A, v'@A')` for every ordered attribute pair, which give the
//! conditional probability `Pr[v | v'] = #(v, v') / #v'` at the heart of
//! the Algorithm 2 domain-pruning rule and of the co-occurrence features
//! (`HasFeature(t, a, f)` with `f = "A'=v'"`).
//!
//! # Value codes
//!
//! The statistics code nothing themselves: a [`Dataset`] codes each value
//! once, on insert, into its attribute's dictionary ([`NULL_CODE`] for
//! null), and the statistics read those codes. [`ValueCodes`] is their view
//! of them — the table's dictionaries, shared rather than copied, plus each
//! code's tuple count and each attribute's null count, taken in one
//! hash-free pass over the coded columns ([`Dataset::code_counts`]). A code
//! no row holds any more (its last cell was overwritten) counts 0, names
//! no group and is not a distinct value. The `Sym`-keyed
//! [`CooccurStats::count`] and [`CooccurStats::distinct`] look the value's
//! code up in the table's dictionary. The per-cell readers read by code and
//! never hash a value: [`Dataset::code`] gives the code of `t[A']`,
//! [`CooccurStats::code_count`] its `#v'`, [`CooccurStats::group_by_code`]
//! the group `A' = v' → A`, and [`GroupView::count_by_code`] a candidate's
//! count in it (a candidate's code is looked up once per cell).
//!
//! # Count blocks
//!
//! Each ordered attribute pair owns a count block — a dense `|V_cond| ×
//! |V_target|` row-major matrix, or one flat CSR arena (`offsets` per
//! conditioning code into one `postings` vector of `(target code, count)`,
//! sorted by target code within a group).
//!
//! * **Layout rule:** a block is a matrix when `|V_cond| · |V_target| ≤
//!   min(64 Ki, 4 · rows)`, CSR postings otherwise — so no block costs more
//!   than a constant times the rows to zero, to scan for its rows' non-zero
//!   counts or for the τ-index to walk (a matrix of a small table is mostly
//!   zeros). From 16 Ki rows up the 64 Ki cap binds first. The rule is
//!   symmetric, so a pair and its reverse share a layout.
//! * **Build:** queries index contiguous rows instead of probing two hash
//!   levels, and the build is hash-free and linear in the rows: one job per
//!   conditioning attribute reads the coded columns and either scatters a
//!   pair into its matrix or, for a CSR pair, gathers the target codes of
//!   the rows grouped by conditioning code (a counting sort on the code,
//!   done once per conditioning attribute from the per-code counts), sorts
//!   each group and run-length encodes it.
//! * **Mirrored pairs:** when both attributes of a pair are held targets,
//!   only the orientation whose conditioning attribute comes first is
//!   counted from the rows; the other is the transpose of the finished
//!   block (a matrix transpose, or one counting sort of the postings by
//!   target code), which has the same counts and the same ascending-code
//!   order inside every group as a count from the rows.
//!
//! The nested hash maps the blocks replaced are the test reference: the
//! proptests below pin every query — `count`, `cooccur_count`,
//! `conditional_prob`, the code-keyed reads, [`GroupView`] contents,
//! `group_count` — to it over random tables, values that no row holds any
//! more included, at threads {1, 4} (`dense_matches_naive_oracle` for both
//! arms on small tables, `csr_arm_matches_naive_oracle_randomized` for the
//! CSR arm past the 64 Ki cap), and `mirrored_blocks_equal_direct_counts`
//! pins every mirrored block to a count of its own pair from the rows.
//!
//! A [`CooccurStats`] is **built, then read**: one pass over the rows of a
//! frozen table, and no mutator afterwards. It borrows nothing from the
//! table: a table that gains a value while statistics over it live copies
//! that attribute's dictionary on write, so the statistics keep reading the
//! codes they were built over. The build runs one job per conditioning
//! attribute, whose CSR pairs share one grouping of the rows by
//! conditioning code, then one job per mirrored pair to transpose its
//! counted reverse. A table that changed gets new statistics — a streaming
//! session builds them at its next read, through the same call as the
//! one-shot pipeline.
//!
//! **Which pairs.** Every reader asks about a *target* attribute — which
//! values of `A` co-occur with `v'@A'` — and the repair pipeline only ever
//! asks about attributes that have a variable. So
//! [`CooccurStats::build_for_targets`] builds the `(·, target)` pairs of a
//! given attribute set only (`build_with_opts` = every attribute); the
//! value codes and their counts are always complete. The statistics
//! remember their targets: a keyed read of any other pair is a
//! `debug_assert!` failure rather than a silent zero, the block walk
//! ([`CooccurStats::for_each_group_of`]) visits held targets only, and
//! [`StatsStats::pairs`] counts them.
//!
//! Null cells never contribute to co-occurrence statistics: a missing value
//! is evidence of nothing.

use serde::{Deserialize, Serialize};

use crate::schema::AttrId;
use crate::table::{Dataset, Dictionary, NULL_CODE};
use crate::value::Sym;
use std::sync::Arc;

/// Above this many cells a pair block stores CSR postings instead of a
/// dense matrix (64Ki cells = 256KiB of `u32` counts per pair).
const DENSE_MAX_CELLS: usize = 1 << 16;

/// Above this many cells per table row a pair block stores CSR postings
/// instead of a dense matrix: a matrix of a small table is mostly zeros.
const DENSE_CELLS_PER_ROW: usize = 4;

/// The statistics' view of the coded table: the table's per-attribute
/// dictionaries, shared rather than copied, plus each code's tuple count
/// and each attribute's null count, taken in one hash-free pass over the
/// coded columns. A code no row holds any more counts 0.
#[derive(Debug, Clone)]
pub struct ValueCodes {
    dictionaries: Vec<Arc<Dictionary>>,
    /// `counts[a][code]`: tuples holding the value.
    counts: Vec<Vec<u32>>,
    /// `nulls[a]`: tuples whose `a` is null.
    nulls: Vec<u32>,
    tuples: usize,
}

impl ValueCodes {
    fn build(ds: &Dataset) -> Self {
        let (counts, nulls) = ds.schema().attrs().map(|a| ds.code_counts(a)).unzip();
        ValueCodes {
            dictionaries: ds
                .schema()
                .attrs()
                .map(|a| ds.shared_dictionary(a))
                .collect(),
            counts,
            nulls,
            tuples: ds.tuple_count(),
        }
    }

    /// The code of `v` in attribute `a`, if a cell of `a` has held it.
    #[inline]
    pub fn code(&self, a: AttrId, v: Sym) -> Option<u32> {
        Some(self.dictionaries[a.index()].code(v)).filter(|&code| code != NULL_CODE)
    }

    /// Number of codes assigned in attribute `a`.
    pub fn len(&self, a: AttrId) -> usize {
        self.syms(a).len()
    }

    /// The symbols of attribute `a`, indexed by code.
    pub fn syms(&self, a: AttrId) -> &[Sym] {
        &self.dictionaries[a.index()].syms
    }

    /// Approximate bytes held: the per-code and null counts.
    fn bytes(&self) -> u64 {
        let counts: usize = self.counts.iter().map(Vec::len).sum();
        4 * (counts + self.nulls.len()) as u64
    }
}

/// Count storage for one ordered attribute pair.
#[derive(Debug, Clone, PartialEq)]
enum PairBlock {
    /// Row-major `rows × stride` matrix with `stride == codes.len(target)`;
    /// `nonzero[c]` (one per conditioning code) counts the non-zero cells
    /// of row `c`, so an all-zero row reads as an absent group.
    Dense {
        stride: usize,
        counts: Vec<u32>,
        nonzero: Vec<u32>,
    },
    /// One flat arena of `(target_code, count)` postings, grouped by
    /// conditioning code and sorted by target code within a group: group
    /// `c` is `postings[offsets[c]..offsets[c + 1]]`, empty when `c` never
    /// co-occurs with a non-null target.
    Csr {
        offsets: Vec<u32>,
        postings: Vec<(u32, u32)>,
    },
}

impl PairBlock {
    fn empty() -> Self {
        PairBlock::Csr {
            offsets: Vec::new(),
            postings: Vec::new(),
        }
    }

    /// The group of conditioning code `c`, if non-empty; `syms` are the
    /// target attribute's symbols.
    #[inline]
    fn group<'a>(&'a self, c: usize, syms: &'a [Sym]) -> Option<GroupView<'a>> {
        match self {
            PairBlock::Dense {
                stride,
                counts,
                nonzero,
            } => {
                let nonzero = *nonzero.get(c)?;
                (nonzero > 0).then(|| GroupView::Dense {
                    syms,
                    counts: &counts[c * stride..(c + 1) * stride],
                    nonzero,
                })
            }
            PairBlock::Csr { offsets, postings } => {
                let (&start, &end) = (offsets.get(c)?, offsets.get(c + 1)?);
                (start < end).then(|| GroupView::Csr {
                    syms,
                    postings: &postings[start as usize..end as usize],
                })
            }
        }
    }

    /// Number of non-empty groups (conditioning values with at least one
    /// non-zero co-occurrence) in this block.
    fn group_rows(&self) -> usize {
        match self {
            PairBlock::Dense { nonzero, .. } => nonzero.iter().filter(|&&n| n > 0).count(),
            PairBlock::Csr { offsets, .. } => offsets.windows(2).filter(|w| w[0] < w[1]).count(),
        }
    }

    /// The block of the reverse pair, from this `vc × vt` block: the
    /// transposed matrix, or the postings regrouped by target code with
    /// one counting sort. Walking the conditioning codes in ascending
    /// order keeps every new group sorted by code, so the result is the
    /// block a count of the reverse pair from the rows gives.
    fn transposed(&self, vc: usize, vt: usize) -> PairBlock {
        match self {
            PairBlock::Dense {
                counts, nonzero, ..
            } => {
                let mut flipped = vec![0u32; vc * vt];
                let mut flipped_nonzero = vec![0u32; vt];
                for c in (0..vc).filter(|&c| nonzero[c] > 0) {
                    for (t, &count) in counts[c * vt..(c + 1) * vt].iter().enumerate() {
                        if count != 0 {
                            flipped[t * vc + c] = count;
                            flipped_nonzero[t] += 1;
                        }
                    }
                }
                PairBlock::Dense {
                    stride: vc,
                    counts: flipped,
                    nonzero: flipped_nonzero,
                }
            }
            PairBlock::Csr { offsets, postings } => {
                let mut flipped_offsets = vec![0u32; vt + 1];
                for &(t, _) in postings {
                    flipped_offsets[t as usize + 1] += 1;
                }
                for t in 0..vt {
                    flipped_offsets[t + 1] += flipped_offsets[t];
                }
                let mut next = flipped_offsets[..vt].to_vec();
                let mut flipped = vec![(0u32, 0u32); postings.len()];
                for c in 0..vc {
                    let group = &postings[offsets[c] as usize..offsets[c + 1] as usize];
                    for &(t, count) in group {
                        let slot = &mut next[t as usize];
                        flipped[*slot as usize] = (c as u32, count);
                        *slot += 1;
                    }
                }
                PairBlock::Csr {
                    offsets: flipped_offsets,
                    postings: flipped,
                }
            }
        }
    }
}

/// The dense arm of the build: scatter one pair's rows into its count
/// matrix.
fn build_dense(cond_col: &[u32], target_col: &[u32], vc: usize, vt: usize) -> PairBlock {
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
}

/// The rows of one conditioning attribute grouped by value code, in row
/// order within a group: group `c` is `rows[offsets[c]..offsets[c + 1]]`.
/// A counting sort whose counts are the per-code counts, built once per
/// conditioning attribute and shared by its CSR pairs.
struct RowsByCode {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl RowsByCode {
    /// Groups the rows of a coded `column` whose code counts are `counts`.
    fn new(column: &[u32], counts: &[u32]) -> Self {
        let mut offsets = vec![0u32; counts.len() + 1];
        for (c, &n) in counts.iter().enumerate() {
            offsets[c + 1] = offsets[c] + n;
        }
        let mut next = offsets[..counts.len()].to_vec();
        let mut rows = vec![0u32; offsets[counts.len()] as usize];
        for (row, &c) in column.iter().enumerate() {
            if c != NULL_CODE {
                let slot = &mut next[c as usize];
                rows[*slot as usize] = row as u32;
                *slot += 1;
            }
        }
        RowsByCode { offsets, rows }
    }
}

/// The CSR arm of the build: per conditioning code, gather its rows'
/// non-null target codes, sort them ([`sort_group`]) and run-length
/// encode them into the postings — the postings, in the order, that a
/// sort of packed `(cond, target)` words gives.
fn build_csr(by_code: &RowsByCode, target_col: &[u32], vt: usize) -> PairBlock {
    let vc = by_code.offsets.len() - 1;
    let mut offsets = vec![0u32; vc + 1];
    let mut targets: Vec<u32> = Vec::with_capacity(by_code.rows.len());
    let (mut distinct, mut histogram) = (0, Vec::new());
    for c in 0..vc {
        let start = targets.len();
        let rows = &by_code.rows[by_code.offsets[c] as usize..by_code.offsets[c + 1] as usize];
        let codes = rows.iter().map(|&row| target_col[row as usize]);
        targets.extend(codes.filter(|&t| t != NULL_CODE));
        let group = &mut targets[start..];
        sort_group(group, vt, &mut histogram);
        distinct += group.chunk_by(|a, b| a == b).count();
        offsets[c + 1] = targets.len() as u32;
    }
    // Rewrite the offsets from target ranges to posting ranges in place: a
    // group's target range ends where the next one's starts.
    let mut postings: Vec<(u32, u32)> = Vec::with_capacity(distinct);
    let mut start = 0;
    for c in 0..vc {
        let end = offsets[c + 1] as usize;
        offsets[c] = postings.len() as u32;
        for run in targets[start..end].chunk_by(|a, b| a == b) {
            postings.push((run[0], run.len() as u32));
        }
        start = end;
    }
    offsets[vc] = postings.len() as u32;
    PairBlock::Csr { offsets, postings }
}

/// Sorts one group of target codes (each `< vt`). A counting sort through
/// `histogram` (scratch) costs `O(len + vt)`, so it takes every group at
/// least as long as the code range and is linear in it; a shorter group,
/// where clearing the histogram would cost more than the group, takes
/// `sort_unstable`. Long groups come with scale: over the CSR pairs of
/// the food table at 18 k rows they are 0.03 % of the groups and 4 % of
/// the rows, of physicians at 2 M rows 15 % and 57 %, and there the
/// comparison sort made the CSR build about 1.5× slower.
fn sort_group(group: &mut [u32], vt: usize, histogram: &mut Vec<u32>) {
    if group.len() < vt {
        group.sort_unstable();
        return;
    }
    histogram.clear();
    histogram.resize(vt, 0);
    for &t in group.iter() {
        histogram[t as usize] += 1;
    }
    let mut at = 0;
    for (t, &n) in histogram.iter().enumerate() {
        group[at..at + n as usize].fill(t as u32);
        at += n as usize;
    }
}

/// Whether a `vc × vt` block over a table of `rows` rows is a dense
/// matrix: at most [`DENSE_MAX_CELLS`] cells and at most
/// [`DENSE_CELLS_PER_ROW`] cells per row, so zeroing the matrix, counting
/// its rows' non-zero cells and walking it cost at most a constant times
/// the rows. Symmetric in `vc` and `vt`, so a block and its transpose
/// share a layout.
fn is_dense(vc: usize, vt: usize, rows: usize) -> bool {
    vc.saturating_mul(vt) <= DENSE_MAX_CELLS.min(DENSE_CELLS_PER_ROW.saturating_mul(rows))
}

/// Counts the block of `(cond, target)` from the coded columns: a matrix
/// when [`is_dense`], else CSR postings through `by_code`, the grouping of
/// the rows by conditioning code that the caller's CSR pairs with this
/// conditioning attribute share (built on first use).
fn count_block(
    codes: &ValueCodes,
    ds: &Dataset,
    (cond, target): (usize, usize),
    by_code: &mut Option<RowsByCode>,
) -> PairBlock {
    let column = |a: usize| (ds.codes(AttrId(a as u16)), codes.len(AttrId(a as u16)));
    let ((cond_col, vc), (target_col, vt)) = (column(cond), column(target));
    if is_dense(vc, vt, ds.tuple_count()) {
        build_dense(cond_col, target_col, vc, vt)
    } else {
        let by_code = by_code.get_or_insert_with(|| RowsByCode::new(cond_col, &codes.counts[cond]));
        build_csr(by_code, target_col, vt)
    }
}

/// Whether the block of `(cond, target)` is the transpose of a counted
/// one: both attributes are held targets and `cond` comes second, so
/// `(target, cond)` is counted from the rows instead.
fn is_mirror(targets: &[bool], cond: usize, target: usize) -> bool {
    targets[cond] && targets[target] && cond > target
}

/// The count blocks, one per ordered attribute pair (row-major
/// `n_attrs × n_attrs`, diagonal and unheld targets empty), laid out by
/// [`is_dense`]. Hash-free: a pair is either counted from the coded
/// columns, one job per conditioning attribute, or — when both of its
/// attributes are held targets and its conditioning attribute comes
/// second — transposed from its counted mirror afterwards.
fn build_blocks(
    codes: &ValueCodes,
    ds: &Dataset,
    threads: usize,
    targets: &[bool],
) -> Vec<PairBlock> {
    let n = ds.schema().len();
    let counted = |cond: usize| {
        let held = (0..n).filter(|&t| t != cond && targets[t]);
        held.filter(|&t| !is_mirror(targets, cond, t)).count()
    };
    let pairs: usize = (0..n).map(counted).sum();
    let threads = holo_parallel::sized_threads(threads, pairs * ds.tuple_count());
    // One job per conditioning attribute, whose CSR pairs share one
    // grouping of the rows; weighted, because the first held attributes
    // count the most pairs. A job, not a chunk of a map: each pair is a
    // full column scan, so even a 4-attribute schema is worth spreading
    // across cores once the row count is large enough (sized_threads
    // supplies the small-input sequential fallback).
    let weight = |cond: usize| counted(cond) as u64;
    let per_cond = holo_parallel::parallel_jobs_weighted(threads, n, weight, |cond| {
        let mut by_code = None;
        let pairs = (0..n).map(|target| {
            if target == cond || !targets[target] || is_mirror(targets, cond, target) {
                PairBlock::empty()
            } else {
                count_block(codes, ds, (cond, target), &mut by_code)
            }
        });
        pairs.collect::<Vec<_>>()
    });
    let mut blocks: Vec<PairBlock> = per_cond.into_iter().flatten().collect();
    let mirrors: Vec<(usize, usize)> = (0..n)
        .flat_map(|cond| (0..cond).map(move |target| (cond, target)))
        .filter(|&(cond, target)| is_mirror(targets, cond, target))
        .collect();
    let len = |a: usize| codes.len(AttrId(a as u16));
    let transposed = holo_parallel::parallel_jobs(threads, mirrors.len(), |i| {
        let (cond, target) = mirrors[i];
        blocks[target * n + cond].transposed(len(target), len(cond))
    });
    for ((cond, target), block) in mirrors.into_iter().zip(transposed) {
        blocks[cond * n + target] = block;
    }
    blocks
}

/// One co-occurrence group: every value of `target` co-occurring with a
/// fixed `v_cond@cond`, with counts, visited in target code order (not
/// symbol order: every caller either re-sorts or folds
/// order-insensitively).
#[derive(Debug, Clone, Copy)]
pub enum GroupView<'a> {
    /// Matrix block: one contiguous count row, indexed by
    /// target code (`syms[code]` recovers the symbol). `nonzero` is the
    /// row's nonzero-entry count, letting iteration stop as
    /// soon as every live entry has been visited.
    Dense {
        syms: &'a [Sym],
        counts: &'a [u32],
        nonzero: u32,
    },
    /// CSR block: sorted `(target_code, count)` postings.
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

    /// Count for the target value with code `t` (look candidate codes up
    /// once via [`CooccurStats::codes`]); [`NULL_CODE`] — a value the
    /// target attribute never held — counts 0.
    #[inline]
    pub fn count_by_code(&self, t: u32) -> u32 {
        match *self {
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

/// Size gauges of the statistics engine, surfaced through `StageTimings`
/// into `diag` / `diag --json`. `dense_pairs`, `csr_pairs`, `dense_cells`
/// and `bytes` describe the count storage; `bytes` is a count-payload
/// estimate, not allocator-exact. A mirrored pair (both attributes held targets; see
/// the module docs) counts like a counted one: it is stored in full.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StatsStats {
    /// Ordered attribute pairs built: target
    /// attributes held × `(|A| − 1)`, of `|A| · (|A| − 1)`.
    pub pairs: u64,
    /// Ordered attribute pairs stored as dense matrices: those with
    /// `|V_cond| · |V_target| ≤ min(64 Ki, 4 · rows)`.
    pub dense_pairs: u64,
    /// Ordered attribute pairs stored as CSR postings: the rest.
    pub csr_pairs: u64,
    /// Total cells across all dense matrices (zeros included), at most
    /// `4 · rows` per matrix.
    pub dense_cells: u64,
    /// Approximate bytes of count storage: matrices, CSR offsets and
    /// postings, and the per-code and null counts (the dictionaries and
    /// coded columns belong to the table).
    pub bytes: u64,
}

/// Pairwise co-occurrence statistics.
///
/// For every ordered attribute pair `(A', A)` and every non-null value `v'`
/// of `A'`, stores the multiset of values of `A` that co-occur with `v'` in
/// the same tuple. Construction is a single `O(|D| · |A|²)` pass. See the
/// module docs for the value codes and the count blocks.
#[derive(Debug, Clone)]
pub struct CooccurStats {
    codes: ValueCodes,
    /// One [`PairBlock`] per ordered attribute pair (row-major `n_attrs ×
    /// n_attrs`, diagonal and unheld targets empty).
    blocks: Vec<PairBlock>,
    /// Non-empty groups over all blocks.
    groups: usize,
    /// `targets[a]`: whether the pairs `(·, a)` were built. Reading a pair
    /// outside them is a `debug_assert!` failure, never a silent zero.
    targets: Vec<bool>,
}

impl CooccurStats {
    /// Builds co-occurrence statistics sequentially.
    pub fn build(ds: &Dataset) -> Self {
        Self::build_with_opts(ds, 1, false)
    }

    /// Builds co-occurrence statistics with the ordered attribute pairs
    /// sharded over up to `threads` worker threads (`0` = all cores).
    ///
    /// Each `(cond, target)` pair owns a disjoint block, so per-pair
    /// results merge without collisions; within a pair, counts accumulate
    /// in tuple order exactly as the sequential pass does. Lookups are
    /// keyed (no consumer observes storage iteration order), so results
    /// are identical for every thread count.
    ///
    /// `_naive` is unread. It is kept only because the benchmark's staged
    /// driver (`benchmark/src/staged.rs`) passes it, until ROADMAP item 14
    /// drops that read.
    pub fn build_with_opts(ds: &Dataset, threads: usize, _naive: bool) -> Self {
        Self::build_for_targets(ds, threads, &vec![true; ds.schema().len()])
    }

    /// [`CooccurStats::build_with_opts`] restricted to the ordered pairs
    /// whose *target* attribute is set in `targets` (indexed by attribute)
    /// — the `|targets| · (|A| − 1)` blocks a caller that only ever asks
    /// "which values of these attributes co-occur with …" reads. Value
    /// codes and their counts stay complete, every held pair is the
    /// block the full build holds, and the statistics remember the mask:
    /// see [`CooccurStats::holds_target`].
    pub fn build_for_targets(ds: &Dataset, threads: usize, targets: &[bool]) -> Self {
        assert_eq!(targets.len(), ds.schema().len(), "one flag per attribute");
        let codes = ValueCodes::build(ds);
        let blocks = build_blocks(&codes, ds, threads, targets);
        let groups = blocks.iter().map(PairBlock::group_rows).sum();
        CooccurStats {
            codes,
            blocks,
            groups,
            targets: targets.to_vec(),
        }
    }

    /// Whether the pairs with target attribute `target` were built. Every
    /// keyed read ([`CooccurStats::cooccur_count`],
    /// [`CooccurStats::conditional_prob`], [`CooccurStats::group`],
    /// [`CooccurStats::group_by_code`]) `debug_assert!`s it, and
    /// [`CooccurStats::for_each_group_of`] visits held targets only.
    pub fn holds_target(&self, target: AttrId) -> bool {
        self.targets[target.index()]
    }

    /// The value codes the statistics read: the table's dictionaries and
    /// the per-code counts.
    pub fn codes(&self) -> &ValueCodes {
        &self.codes
    }

    /// How many tuples hold the value with code `code` in `attr` — the
    /// `#v'` of `Pr[v | v']`; 0 for [`NULL_CODE`].
    #[inline]
    pub fn code_count(&self, attr: AttrId, code: u32) -> u32 {
        let counts = &self.codes.counts[attr.index()];
        counts.get(code as usize).copied().unwrap_or(0)
    }

    /// Number of tuples the statistics were computed over.
    pub fn tuple_count(&self) -> usize {
        self.codes.tuples
    }

    /// How many tuples hold `v` in attribute `a`, null included, read
    /// through the value's code.
    pub fn count(&self, a: AttrId, v: Sym) -> u32 {
        if v.is_null() {
            return self.codes.nulls[a.index()];
        }
        self.codes.code(a, v).map_or(0, |c| self.code_count(a, c))
    }

    /// Number of distinct values some tuple holds in attribute `a`, null
    /// included — a code no row holds any more is not one.
    pub fn distinct(&self, a: AttrId) -> usize {
        let held = self.codes.counts[a.index()].iter().filter(|&&c| c > 0);
        held.count() + usize::from(self.codes.nulls[a.index()] > 0)
    }

    /// `#(v@target, v'@cond)` — tuples where both values appear together.
    pub fn cooccur_count(&self, cond: AttrId, v_cond: Sym, target: AttrId, v: Sym) -> u32 {
        debug_assert!(self.holds_target(target), "pairs of {target:?} not built");
        let Some(t) = self.codes.code(target, v) else {
            return 0;
        };
        self.group(cond, v_cond, target)
            .map_or(0, |g| g.count_by_code(t))
    }

    /// The Algorithm 2 conditional probability
    /// `Pr[v@target | v'@cond] = #(v, v') / #v'`.
    pub fn conditional_prob(&self, cond: AttrId, v_cond: Sym, target: AttrId, v: Sym) -> f64 {
        let denom = self.count(cond, v_cond);
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
        self.group_by_code(cond, self.codes.code(cond, v_cond)?, target)
    }

    /// [`CooccurStats::group`] of the conditioning value with code `code`
    /// (`None` for [`NULL_CODE`]).
    #[inline]
    pub fn group_by_code(&self, cond: AttrId, code: u32, target: AttrId) -> Option<GroupView<'_>> {
        debug_assert!(self.holds_target(target), "pairs of {target:?} not built");
        let n = self.targets.len();
        let block = &self.blocks[cond.index() * n + target.index()];
        block.group(code as usize, self.codes.syms(target))
    }

    /// Number of distinct `(cond, target, v_cond)` groups stored.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Calls `f(target, code, group)` once for every non-empty group
    /// conditioned on attribute `cond` — `code` is the conditioning
    /// value's — the block-level walk that whole-statistics consumers (the
    /// Algorithm 2 threshold index) use instead of probing
    /// [`CooccurStats::group`] per value. Groups are visited target-major
    /// in code order, entries inside a group in target code order.
    pub fn for_each_group_of(&self, cond: AttrId, mut f: impl FnMut(AttrId, u32, GroupView<'_>)) {
        let n = self.targets.len();
        for target in (0..n).map(|t| AttrId(t as u16)) {
            if target == cond || !self.holds_target(target) {
                continue;
            }
            for code in 0..self.codes.len(cond) as u32 {
                if let Some(group) = self.group_by_code(cond, code, target) {
                    f(target, code, group);
                }
            }
        }
    }

    /// Snapshot of the engine's size gauges.
    pub fn stats_stats(&self) -> StatsStats {
        let mut s = StatsStats::default();
        let held = self.targets.iter().filter(|&&t| t).count();
        s.pairs = (held * self.targets.len().saturating_sub(1)) as u64;
        let n = self.targets.len();
        for cond in 0..n {
            for target in (0..n).filter(|&t| t != cond && self.targets[t]) {
                match &self.blocks[cond * n + target] {
                    PairBlock::Dense {
                        counts, nonzero, ..
                    } => {
                        s.dense_pairs += 1;
                        s.dense_cells += counts.len() as u64;
                        s.bytes += 4 * (counts.len() + nonzero.len()) as u64;
                    }
                    PairBlock::Csr { offsets, postings } => {
                        s.csr_pairs += 1;
                        s.bytes += 4 * offsets.len() as u64 + 8 * postings.len() as u64;
                    }
                }
            }
        }
        s.bytes += self.codes.bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
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
        let city = ds.schema().attr_id("City").unwrap();
        let chicago = ds.pool().get("Chicago").unwrap();
        let cicago = ds.pool().get("Cicago").unwrap();
        let s = CooccurStats::build(&ds);
        assert_eq!(s.count(city, chicago), 3);
        assert_eq!(s.count(city, cicago), 1);
        assert_eq!(s.count(city, Sym::NULL), 1);
        assert_eq!((s.tuple_count(), s.distinct(city)), (5, 3));
    }

    #[test]
    fn cooccurrence_counts() {
        let ds = chicago();
        let s = CooccurStats::build(&ds);
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

    #[test]
    fn nulls_do_not_cooccur() {
        let ds = chicago();
        let s = CooccurStats::build(&ds);
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

    #[test]
    fn conditional_prob_of_unseen_is_zero() {
        let ds = chicago();
        let s = CooccurStats::build(&ds);
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

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(Schema::new(vec!["a", "b"]));
        let s = CooccurStats::build(&ds);
        assert_eq!(s.group_count(), 0);
        assert_eq!((s.tuple_count(), s.distinct(AttrId(0))), (0, 0));
        assert_eq!(s.count(AttrId(1), Sym::NULL), 0);
    }

    /// The pair-sharded parallel build answers every query identically to
    /// the sequential pass, at several thread counts.
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
        let sequential = CooccurStats::build(&ds);
        for threads in [2, 4, 8] {
            let parallel = CooccurStats::build_with_opts(&ds, threads, false);
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
                                "threads = {threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Engine gauges: every held pair is a block of one arm or the other.
    #[test]
    fn stats_stats_gauges() {
        let ds = chicago();
        let s = CooccurStats::build(&ds).stats_stats();
        assert_eq!(s.dense_pairs + s.csr_pairs, 6); // 3 attrs → 6 ordered pairs
        assert!(s.dense_cells > 0);
        assert!(s.bytes > 0);
    }

    /// `build_with_opts` ignores its `naive` flag: both values build the
    /// same blocks, at any thread count.
    #[test]
    fn naive_flag_is_unread() {
        let ds = chicago();
        for threads in [1, 4] {
            let naive = CooccurStats::build_with_opts(&ds, threads, true);
            let dense = CooccurStats::build_with_opts(&ds, threads, false);
            assert_eq!(naive.blocks, dense.blocks);
            assert_eq!(naive.groups, dense.groups);
            assert_eq!(naive.targets, dense.targets);
        }
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
        assert_backends_agree(&ds, &dense, &Naive::build(&ds, &[true; 3]));
    }

    /// Every held block of `stats` — mirrored or counted — is the block a
    /// count of its pair from the rows gives (so laid out by
    /// [`is_dense`]); returns how many were mirrored.
    fn assert_blocks_are_direct_counts(ds: &Dataset, stats: &CooccurStats) -> usize {
        let n = ds.schema().len();
        let mut mirrored = 0;
        for cond in 0..n {
            for target in (0..n).filter(|&t| t != cond && stats.targets[t]) {
                let block = &stats.blocks[cond * n + target];
                let direct = count_block(&stats.codes, ds, (cond, target), &mut None);
                assert_eq!(block, &direct, "{cond} → {target}");
                mirrored += usize::from(is_mirror(&stats.targets, cond, target));
            }
        }
        mirrored
    }

    /// The layout rule's edge: a pair of exactly `4 · rows` cells is a
    /// matrix, a pair past it CSR postings, both orientations alike.
    #[test]
    fn matrix_holds_at_most_four_cells_per_row() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b"]));
        for i in 0..40usize {
            ds.push_row(&[format!("a{}", i % 4), format!("b{i}")]);
        }
        let stats = CooccurStats::build(&ds);
        assert_eq!(stats.stats_stats().dense_pairs, 2, "4 × 40 cells, 40 rows");
        assert_eq!(assert_blocks_are_direct_counts(&ds, &stats), 1);
        // A fifth value of `a` beside a null `b`: 5 × 40 cells over 41 rows.
        ds.push_row(&["a4", ""]);
        let stats = CooccurStats::build(&ds);
        assert_eq!(stats.stats_stats().csr_pairs, 2, "5 × 40 cells, 41 rows");
        assert_eq!(assert_blocks_are_direct_counts(&ds, &stats), 1);
    }

    /// A build restricted to some target attributes holds, for each of
    /// them, the very pairs the full build holds — matrix and CSR — and
    /// nothing else: the walks skip the other targets, the gauges
    /// count the held pairs only, codes and value counts stay complete.
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
        let full = CooccurStats::build_with_opts(&ds, 2, false);
        let held = CooccurStats::build_for_targets(&ds, 2, &targets);
        assert_eq!(held.stats_stats().pairs, 6);
        assert_eq!(full.stats_stats().pairs, 12);
        assert_eq!(full.stats_stats().csr_pairs, 2, "a→b and b→a");
        assert_eq!(held.stats_stats().csr_pairs, 1, "a→b");
        assert_eq!(held.stats_stats().dense_pairs, 5);
        let mut walked = 0;
        for cond in ds.schema().attrs() {
            assert_eq!(held.distinct(cond), full.distinct(cond));
            held.for_each_group_of(cond, |target, code, group| {
                assert!(held.holds_target(target));
                let entries = |g: GroupView<'_>| {
                    let mut out = Vec::new();
                    g.for_each(|v, c| out.push((v, c)));
                    out.sort_unstable();
                    out
                };
                let same = full
                    .group_by_code(cond, code, target)
                    .expect("the full build's group");
                assert_eq!(entries(group), entries(same));
                walked += 1;
            });
            for target in ds
                .schema()
                .attrs()
                .filter(|&t| t != cond && targets[t.index()])
            {
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

    /// Reading a pair that was not built is a bug in the caller's target
    /// mask, caught in debug builds instead of answered with a zero.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not built")]
    fn reading_an_unheld_target_is_a_debug_assertion() {
        let ds = chicago();
        let held = CooccurStats::build_for_targets(&ds, 1, &[true, false, true]);
        let chicago = ds.pool().get("Chicago").unwrap();
        held.group(AttrId(0), chicago, AttrId(1));
    }

    /// The entries of a group, in symbol order.
    fn sorted_entries(group: GroupView<'_>) -> Vec<(Sym, u32)> {
        let mut out = Vec::new();
        group.for_each(|v, c| out.push((v, c)));
        out.sort_unstable();
        out
    }

    /// How many tuples hold `v` in attribute `a`, by comparing cells.
    fn cells_holding(ds: &Dataset, a: AttrId, v: Sym) -> u32 {
        ds.tuples().filter(|&t| ds.cell(t, a) == v).count() as u32
    }

    /// The code-keyed reads of `stats` answer what its `Sym`-keyed ones
    /// do: `Dataset::code` names each cell's value, `code_count` is the number
    /// of cells holding it, `group_by_code` is `group` and a group's
    /// `count_by_code` is `cooccur_count`, with `NULL_CODE` reading 0 and
    /// no group.
    fn assert_code_reads_agree(ds: &Dataset, stats: &CooccurStats) {
        let codes = stats.codes();
        for a in ds.schema().attrs() {
            for t in ds.tuples() {
                let (v, code) = (ds.cell(t, a), ds.code(t, a));
                if v.is_null() {
                    assert_eq!(code, NULL_CODE);
                } else {
                    assert_eq!(codes.syms(a)[code as usize], v);
                }
            }
            for (code, &v) in codes.syms(a).iter().enumerate() {
                assert_eq!(codes.code(a, v), Some(code as u32));
                assert_eq!(stats.code_count(a, code as u32), cells_holding(ds, a, v));
            }
            assert_eq!(stats.code_count(a, NULL_CODE), 0);
        }
        for cond in ds.schema().attrs() {
            for target in ds.schema().attrs() {
                if cond == target || !stats.holds_target(target) {
                    continue;
                }
                assert!(stats.group_by_code(cond, NULL_CODE, target).is_none());
                for (code, &v_cond) in codes.syms(cond).iter().enumerate() {
                    let by_code = stats.group_by_code(cond, code as u32, target);
                    let by_sym = stats.group(cond, v_cond, target);
                    assert_eq!(by_code.map(sorted_entries), by_sym.map(sorted_entries));
                    let Some(group) = by_code else {
                        continue;
                    };
                    assert_eq!(group.count_by_code(NULL_CODE), 0);
                    for (t, &v) in codes.syms(target).iter().enumerate() {
                        assert_eq!(
                            group.count_by_code(t as u32),
                            stats.cooccur_count(cond, v_cond, target, v)
                        );
                    }
                }
            }
        }
    }

    /// The nested hash-map statistics the count blocks replaced, kept as
    /// their reference: per held ordered pair and non-null conditioning
    /// value, the counts of the non-null target values beside it, read
    /// from the cells.
    struct Naive {
        groups: FxHashMap<(AttrId, AttrId, Sym), FxHashMap<Sym, u32>>,
        targets: Vec<bool>,
    }

    impl Naive {
        fn build(ds: &Dataset, targets: &[bool]) -> Self {
            let mut groups: FxHashMap<_, FxHashMap<Sym, u32>> = FxHashMap::default();
            let attrs = || ds.schema().attrs();
            for cond in attrs() {
                for target in attrs().filter(|&a| a != cond && targets[a.index()]) {
                    for t in ds.tuples() {
                        let (c, v) = (ds.cell(t, cond), ds.cell(t, target));
                        if !c.is_null() && !v.is_null() {
                            let group = groups.entry((cond, target, c)).or_default();
                            *group.entry(v).or_insert(0) += 1;
                        }
                    }
                }
            }
            Naive {
                groups,
                targets: targets.to_vec(),
            }
        }

        /// The group of `v_cond@cond` → `target`, in symbol order.
        fn group(&self, cond: AttrId, v_cond: Sym, target: AttrId) -> Option<Vec<(Sym, u32)>> {
            let group = self.groups.get(&(cond, target, v_cond))?;
            let mut out: Vec<(Sym, u32)> = group.iter().map(|(&v, &c)| (v, c)).collect();
            out.sort_unstable();
            Some(out)
        }

        fn cooccur_count(&self, cond: AttrId, v_cond: Sym, target: AttrId, v: Sym) -> u32 {
            let group = self.groups.get(&(cond, target, v_cond));
            group.and_then(|g| g.get(&v)).copied().unwrap_or(0)
        }
    }

    /// Asserts the count blocks answer every query the hash-map reference
    /// does on the current dataset, over the target attributes they hold.
    fn assert_backends_agree(ds: &Dataset, dense: &CooccurStats, naive: &Naive) {
        assert_eq!(dense.tuple_count(), ds.tuple_count());
        assert_eq!(dense.group_count(), naive.groups.len());
        assert_code_reads_agree(ds, dense);
        for cond in ds.schema().attrs() {
            for target in ds.schema().attrs() {
                assert_eq!(naive.targets[target.index()], dense.holds_target(target));
                if cond == target || !dense.holds_target(target) {
                    continue;
                }
                let target_domain = ds.active_domain(target);
                for v_cond in ds.active_domain(cond) {
                    let denom = cells_holding(ds, cond, v_cond);
                    assert_eq!(dense.count(cond, v_cond), denom);
                    let dg = dense.group(cond, v_cond, target);
                    assert_eq!(
                        dg.map(sorted_entries),
                        naive.group(cond, v_cond, target),
                        "group contents differ"
                    );
                    for &v in &target_domain {
                        let count = naive.cooccur_count(cond, v_cond, target, v);
                        assert_eq!(dense.cooccur_count(cond, v_cond, target, v), count);
                        let p = match denom {
                            0 => 0.0,
                            _ => f64::from(count) / f64::from(denom),
                        };
                        assert_eq!(
                            dense.conditional_prob(cond, v_cond, target, v).to_bits(),
                            p.to_bits()
                        );
                    }
                }
            }
        }
    }

    /// The packed-key CSR build the flat arena replaced: every
    /// non-null `(cond, target)` code pair as one `u64`, sorted, and
    /// run-length encoded into one posting list per conditioning code.
    fn packed_sort_postings(cond: &[u32], target: &[u32], vc: usize) -> Vec<Vec<(u32, u32)>> {
        let mut packed: Vec<u64> = (cond.iter().zip(target))
            .filter(|&(&c, &t)| c != NULL_CODE && t != NULL_CODE)
            .map(|(&c, &t)| (u64::from(c) << 32) | u64::from(t))
            .collect();
        packed.sort_unstable();
        let mut rows = vec![Vec::new(); vc];
        for run in packed.chunk_by(|a, b| a == b) {
            rows[(run[0] >> 32) as usize].push((run[0] as u32, run.len() as u32));
        }
        rows
    }

    /// `build_csr` over the coded columns gives `want`'s postings, group
    /// by group, in one arena.
    fn assert_csr_is(cond: &[u32], target: &[u32], vc: usize, vt: usize, want: &[Vec<(u32, u32)>]) {
        let mut counts = vec![0; vc];
        for &c in cond.iter().filter(|&&c| c != NULL_CODE) {
            counts[c as usize] += 1;
        }
        let by_code = RowsByCode::new(cond, &counts);
        let PairBlock::Csr { offsets, postings } = build_csr(&by_code, target, vt) else {
            unreachable!("build_csr builds CSR");
        };
        assert_eq!(offsets.len(), vc + 1);
        assert_eq!(offsets[vc] as usize, postings.len());
        for (c, want) in want.iter().enumerate() {
            let got = &postings[offsets[c] as usize..offsets[c + 1] as usize];
            assert_eq!(got, want.as_slice(), "group {c}");
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
        /// Count blocks ≡ hash-map reference: identical `count` /
        /// `cooccur_count` / `cond_prob` / group / `group_count` answers when
        /// built over random datasets at every stage of an edit (fresh,
        /// appended to, updated in place — so the pool holds values no row
        /// does) × threads {1, 4}, for every target (each held pair's
        /// reverse held too, so half the blocks are mirrored) and for a
        /// random target mask. Small tables put some pairs past the
        /// `4 · rows` matrix bound, so both arms are mirrored.
        #[test]
        fn dense_matches_naive_oracle(
            rows in proptest::collection::vec((0u8..6, 0u8..4, 0u8..5), 5..40),
            extra in proptest::collection::vec((0u8..6, 0u8..4, 0u8..5), 0..15),
            update_step in 2usize..5,
            mask in 0u8..8,
        ) {
            let masked = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
            for threads in [1usize, 4] {
                let agree = |ds: &Dataset| {
                    for targets in [[true; 3], masked] {
                        let dense = CooccurStats::build_for_targets(ds, threads, &targets);
                        assert_backends_agree(ds, &dense, &Naive::build(ds, &targets));
                    }
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

        /// A mirrored block is the block a count of its own pair from the
        /// rows gives — same layout, same counts, groups in the same code
        /// order — and so is every counted one: random tables with nulls,
        /// an all-null column (`|V| = 0`), a one-value column, pairs on both
        /// sides of the `4 · rows` matrix bound (small tables, and the same
        /// rows 40 times over), a random target mask, threads {1, 4}.
        #[test]
        fn mirrored_blocks_equal_direct_counts(
            rows in proptest::collection::vec((0u8..8, 0u8..40, 0u8..3), 1..60),
            copies in 0u8..2,
            mask in 0u8..32,
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["a", "b", "none", "one", "c"]));
            for _ in 0..if copies == 1 { 40 } else { 1 } {
                for &(a, b, c) in &rows {
                    let one = if c == 0 { "" } else { "k" };
                    let row = [cell_str(0, a), cell_str(1, b), String::new(), one.into(), cell_str(2, c)];
                    ds.push_row(&row);
                }
            }
            let targets: Vec<bool> = (0..5).map(|i| mask & (1 << i) != 0).collect();
            let held = targets.iter().filter(|&&t| t).count();
            for threads in [1usize, 4] {
                let stats = CooccurStats::build_for_targets(&ds, threads, &targets);
                let mirrored = assert_blocks_are_direct_counts(&ds, &stats);
                prop_assert_eq!(mirrored, held * held.saturating_sub(1) / 2);
            }
        }

        /// The flat CSR build ≡ the packed-key sort on raw code columns,
        /// nulls included, with groups on both sides of `sort_group`'s
        /// switch to counting (groups of up to hundreds of rows against
        /// up to 120 target codes).
        #[test]
        fn csr_build_matches_packed_sort(
            rows in proptest::collection::vec((0u32..6, 0u32..120, 0u8..10), 0..800),
            vc in 1usize..6,
            vt in 1usize..120,
        ) {
            let code = |x: u32, range: usize, null: bool| if null { NULL_CODE } else { x % range as u32 };
            let cond: Vec<u32> = rows.iter().map(|&(c, _, n)| code(c, vc, n == 0)).collect();
            let target: Vec<u32> = rows.iter().map(|&(_, t, n)| code(t, vt, n == 1)).collect();
            assert_csr_is(&cond, &target, vc, vt, &packed_sort_postings(&cond, &target, vc));
        }

        /// The statistics' value counts are the cells' exactly: `count` of
        /// every pool symbol (null, values no row holds any more included),
        /// `distinct` and `tuple_count`, under a random target mask, over tables with nulls, an all-null column and a
        /// constant column, the empty table included.
        #[test]
        fn value_counts_match_frequency_stats(
            rows in proptest::collection::vec((0u8..5, 0u8..4), 0..30),
            update in 0u8..5,
            mask in 0u8..16,
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["a", "b", "none", "k"]));
            for &(a, b) in &rows {
                ds.push_row(&[cell_str(0, a), cell_str(1, b), String::new(), "k".into()]);
            }
            if !rows.is_empty() {
                let row = vec![cell_str(0, update), cell_str(1, 9), String::new(), "k".into()];
                ds.update_rows(&[(TupleId::from(0usize), row)]);
            }
            let targets: Vec<bool> = (0..4).map(|i| mask & (1 << i) != 0).collect();
            let stats = CooccurStats::build_for_targets(&ds, 2, &targets);
            prop_assert_eq!(stats.tuple_count(), ds.tuple_count());
            for a in ds.schema().attrs() {
                let held: std::collections::BTreeSet<Sym> =
                    ds.tuples().map(|t| ds.cell(t, a)).collect();
                prop_assert_eq!(stats.distinct(a), held.len());
                for v in ds.pool().iter().map(|(v, _)| v).chain([Sym::NULL]) {
                    prop_assert_eq!(stats.count(a, v), cells_holding(&ds, a, v));
                }
            }
        }

        /// A table edited in place reads like a fresh load of the same rows:
        /// after random `push_row` / `update_rows` / `set_cell` sequences
        /// every coded cell decodes to `cell()` and codes back to its code,
        /// and `count`, `distinct`, `cooccur_count` and `conditional_prob`
        /// agree, value string by value string, with statistics over the
        /// table re-read from CSV — so codes whose last cell was
        /// overwritten, and codes appended out of first-appearance order,
        /// leak into no answer.
        #[test]
        fn edited_table_reads_like_a_fresh_one(
            ops in proptest::collection::vec((0u8..3, 0usize..64, 0u8..6, 0u8..4, 0u8..6), 0..50),
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c"]));
            for &(kind, row, a, b, c) in &ops {
                let n = ds.tuple_count();
                let values = vec![cell_str(0, a), cell_str(1, b), cell_str(2, c)];
                match kind {
                    1 if n > 0 => ds.update_rows(&[(TupleId::from(row % n), values)]),
                    2 if n > 0 => {
                        let attr = a % 3;
                        let v = ds.intern(&cell_str(attr, b + c));
                        ds.set_cell(TupleId::from(row % n), AttrId(u16::from(attr)), v);
                    }
                    _ => {
                        ds.push_row(&values);
                    }
                }
            }
            for a in ds.schema().attrs() {
                for t in ds.tuples() {
                    let (code, v) = (ds.code(t, a), ds.cell(t, a));
                    let decoded = ds.dictionary(a).get(code as usize).copied();
                    prop_assert_eq!(decoded.unwrap_or(Sym::NULL), v);
                    prop_assert_eq!(ds.code_of(a, v), code);
                }
            }
            let fresh = crate::csv::parse_dataset(&crate::csv::to_csv_string(&ds)).unwrap();
            let values: Vec<(Sym, Option<Sym>)> = ds
                .pool()
                .iter()
                .map(|(v, text)| (v, fresh.pool().get(text)))
                .collect();
            let edited = CooccurStats::build_with_opts(&ds, 2, false);
            let reread = CooccurStats::build_with_opts(&fresh, 2, false);
            prop_assert_eq!(edited.tuple_count(), reread.tuple_count());
            for a in ds.schema().attrs() {
                prop_assert_eq!(edited.distinct(a), reread.distinct(a));
                for &(v, f) in &values {
                    prop_assert_eq!(edited.count(a, v), f.map_or(0, |f| reread.count(a, f)));
                }
            }
            for cond in ds.schema().attrs() {
                for target in ds.schema().attrs().filter(|&t| t != cond) {
                    for &(vc, fc) in &values {
                        for &(v, f) in &values {
                            let (count, p) = match (fc, f) {
                                (Some(fc), Some(f)) => (
                                    reread.cooccur_count(cond, fc, target, f),
                                    reread.conditional_prob(cond, fc, target, f),
                                ),
                                _ => (0, 0.0),
                            };
                            prop_assert_eq!(edited.cooccur_count(cond, vc, target, v), count);
                            let got = edited.conditional_prob(cond, vc, target, v);
                            prop_assert_eq!(got.to_bits(), p.to_bits());
                        }
                    }
                }
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

    proptest! {
        // Each case builds 700-row tables at two thread counts and compares
        // every code pair of the 600 × 230 blocks.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The CSR arm ≡ the hash-map reference, and ≡ the packed-key sort it
        /// replaced:
        /// random tables whose `a ↔ b` pairs exceed the matrix budget
        /// (600 values of `a` × ~230 of `b`), with null targets, repeated
        /// pairs, conditioning values whose every row has a null target
        /// (empty groups in the arena, both directions), a random
        /// restricted target set and one holding both `a` and `b` (so
        /// `b → a` is the transpose of `a → b`), at threads {1, 4}.
        #[test]
        fn csr_arm_matches_naive_oracle_randomized(
            picks in proptest::collection::vec((0u16..290, 0u8..8), 600..700),
            repeats in 10usize..60,
            empty_every in 5usize..20,
            lonely in 1usize..6,
            mask in 1u8..8,
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c"]));
            let row = |i: usize| {
                let (b, flag) = picks[i];
                let a = i % 600;
                let b = if flag == 0 || a.is_multiple_of(empty_every) {
                    String::new()
                } else {
                    format!("b{b}")
                };
                [format!("a{a}"), b, format!("c{}", flag % 3)]
            };
            for i in (0..picks.len()).chain(0..repeats) {
                ds.push_row(&row(i));
            }
            // `b` values seen only beside a null `a`.
            for j in 0..lonely {
                ds.push_row(&[String::new(), format!("lonely{j}"), "c0".to_string()]);
            }
            // The random mask, and one holding a and b (b→a mirrors a→b).
            let masked = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
            for targets in [masked, [true, true, mask & 4 != 0]] {
                for threads in [1usize, 4] {
                    let dense = CooccurStats::build_for_targets(&ds, threads, &targets);
                    let csr = usize::from(targets[0]) + usize::from(targets[1]);
                    prop_assert_eq!(dense.stats_stats().csr_pairs, csr as u64, "a→b, b→a");
                    assert_backends_agree(&ds, &dense, &Naive::build(&ds, &targets));
                }
            }
            for (cond, target) in [(AttrId(0), AttrId(1)), (AttrId(1), AttrId(0))] {
                let (cc, tc) = (ds.codes(cond), ds.codes(target));
                let (vc, vt) = (ds.dictionary(cond).len(), ds.dictionary(target).len());
                let want = packed_sort_postings(cc, tc, vc);
                prop_assert!(want.iter().any(Vec::is_empty), "an empty group");
                assert_csr_is(cc, tc, vc, vt, &want);
            }
        }
    }
}
