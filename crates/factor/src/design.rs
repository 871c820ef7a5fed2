//! The design matrix — the flat scoring substrate of the model, and the
//! **only** store of unary features.
//!
//! Learning walks every `(variable, candidate)` row once per epoch, Gibbs
//! scores a variable's full candidate slice per sweep, exact enumeration
//! scores each row many times: all of them want one flat array, so the
//! model keeps its unary features in CSR form and in no other:
//!
//! * one **row** per `(variable, candidate)` pair, rows ordered by variable
//!   then candidate — so a variable's candidates are a contiguous row range;
//! * **columns** are `(WeightId, f64)` entries; within a row they sit in
//!   emission order (the order the featurizers produced them), which fixes
//!   the addition order of the row's dot product;
//! * a **row-offset** index (`row_offsets`, standard CSR) plus a
//!   **per-variable slice** index (`var_rows`: the first row of each
//!   variable, one prefix-sum entry per variable).
//!
//! This is the compile-the-model-first move PClean and BClean make before
//! inference: once the grounded model is a flat array, learning and
//! inference shard over contiguous index ranges instead of chasing object
//! graphs.
//!
//! ## One-pass assembly
//!
//! The compiler never materialises features anywhere else first. A
//! [`DesignBuilder`] is a row-major *fragment*: featurizers produce one
//! variable's `(slot, weight, value)` triples in whatever order they
//! compute them, and [`push_var`](DesignBuilder::push_var) moves them into
//! the fragment's CSR arrays with a stable counting sort by candidate slot
//! — row `k` holds the slot-`k` emissions in emission order. The weight
//! ids arrive final: the compiler numbers every weight by its key before
//! it featurizes a variable. Each parallel chunk of variables fills its
//! own fragment, and [`append`](DesignBuilder::append) concatenates the
//! fragments in chunk order. Rows depend only on their own variable, so
//! where the chunk boundaries fall cannot change a single entry. After
//! assembly the matrix is only read.
//!
//! ## The blocked score kernel
//!
//! Row scoring ([`score_features`], used by [`DesignMatrix::score_row`] and
//! everything above it) is a branch-free blocked dot product: entries are
//! consumed four at a time into four independent accumulators (breaking the
//! serial FP-add dependency chain so the cores' multiple FP units overlap),
//! the tail of fewer than four entries folds sequentially, and the four
//! lanes reduce pairwise at the end. The lane split is **fixed** — it
//! depends only on the entry count, never on the caller or thread count —
//! so a given row always sums in the same order and scores stay bit-for-bit
//! reproducible everywhere; rows shorter than four entries take only the
//! sequential tail, which performs the exact addition sequence of the
//! pre-blocked kernel. [`DesignMatrix::score_var_into`] walks a variable's
//! contiguous row range over the raw offset array so the hot Gibbs loop
//! pays one slice bound check per row, not two.

use crate::graph::VarId;
use crate::weights::{WeightId, Weights};
use std::ops::Range;

/// CSR design matrix over all `(variable, candidate)` rows of a factor
/// graph, assembled once by a [`DesignBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMatrix {
    /// `var_rows[v] .. var_rows[v + 1]` is the row range of variable `v`
    /// (one row per candidate, in domain order). Length `var_count + 1`.
    var_rows: Vec<u32>,
    /// `row_offsets[r] .. row_offsets[r + 1]` is the entry range of row
    /// `r`. Length `rows + 1`.
    row_offsets: Vec<u32>,
    /// Sparse feature entries of all rows, concatenated.
    entries: Vec<(WeightId, f64)>,
}

/// The matrix of a graph with no variables.
impl Default for DesignMatrix {
    fn default() -> Self {
        DesignMatrix {
            var_rows: vec![0],
            row_offsets: vec![0],
            entries: Vec::new(),
        }
    }
}

impl DesignMatrix {
    /// The reference build the assembly tests compare against:
    /// nested adjacency (`unary[v][k]` = sparse features of candidate `k`
    /// of variable `v`) copied row by row into CSR.
    #[cfg(test)]
    pub(crate) fn compile(unary: &[Vec<crate::graph::FeatureVec>]) -> Self {
        let mut var_rows = vec![0];
        let mut row_offsets = vec![0];
        let mut entries = Vec::new();
        for per_var in unary {
            for features in per_var {
                entries.extend_from_slice(features);
                row_offsets.push(entries.len() as u32);
            }
            var_rows.push(row_offsets.len() as u32 - 1);
        }
        Self::assert_dims(row_offsets.len() - 1, entries.len());
        DesignMatrix {
            var_rows,
            row_offsets,
            entries,
        }
    }

    /// The single bound check of the CSR layout, shared by every assembly
    /// path so none can silently wrap:
    /// `var_rows` stores row indices and `row_offsets` has `rows + 1`
    /// elements whose values are entry offsets, all as `u32` — so
    /// `rows + 1` and `nnz` must both be representable.
    #[inline]
    fn assert_dims(rows: usize, nnz: usize) {
        assert!(rows < u32::MAX as usize, "design matrix row overflow");
        assert!(nnz <= u32::MAX as usize, "design matrix entry overflow");
    }

    /// Re-packs the three arrays into exact-size allocations, dropping the
    /// slack that growth leaves behind. Contents are unchanged.
    pub fn repack(&mut self) {
        self.var_rows.shrink_to_fit();
        self.row_offsets.shrink_to_fit();
        self.entries.shrink_to_fit();
    }

    /// Number of variables covered.
    pub fn var_count(&self) -> usize {
        self.var_rows.len() - 1
    }

    /// Total number of `(variable, candidate)` rows.
    pub fn rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Total number of stored feature entries (the unary factor count).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The weights some entry names, ascending.
    pub fn weight_ids(&self) -> Vec<WeightId> {
        let mut ids: Vec<WeightId> = self.entries.iter().map(|&(w, _)| w).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The contiguous row range of variable `v` (one row per candidate).
    #[inline]
    pub fn var_range(&self, v: VarId) -> Range<usize> {
        self.var_rows[v.index()] as usize..self.var_rows[v.index() + 1] as usize
    }

    /// The row index of candidate `k` of variable `v`.
    ///
    /// # Panics
    /// Panics when `k` is not a candidate of `v` — without the check an
    /// out-of-range `k` would silently land in the next variable's rows.
    #[inline]
    pub fn row_of(&self, v: VarId, k: usize) -> usize {
        let range = self.var_range(v);
        assert!(k < range.len(), "candidate index out of range");
        range.start + k
    }

    /// The sparse feature entries of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[(WeightId, f64)] {
        &self.entries[self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize]
    }

    /// Dot product of row `r` with the weight vector, through the blocked
    /// kernel (see the module docs).
    #[inline]
    pub fn score_row(&self, r: usize, weights: &Weights) -> f64 {
        score_features(self.row(r), weights)
    }

    /// Scores every candidate row of variable `v` into `out` (cleared
    /// first) — the allocation-free form the Gibbs sweep and the SGD inner
    /// loop use. Walks the variable's contiguous row range directly over
    /// the offset array and feeds each row slice to the blocked kernel.
    pub fn score_var_into(&self, v: VarId, weights: &Weights, out: &mut Vec<f64>) {
        out.clear();
        let rows = self.var_range(v);
        out.reserve(rows.len());
        let mut e0 = self.row_offsets[rows.start] as usize;
        for r in rows {
            let e1 = self.row_offsets[r + 1] as usize;
            out.push(score_features(&self.entries[e0..e1], weights));
            e0 = e1;
        }
    }

    /// Scores every row under `weights`, in row order — the sequential
    /// pass of [`DesignMatrix::score_all_with_threads`].
    pub fn score_all(&self, weights: &Weights) -> Vec<f64> {
        (0..self.rows())
            .map(|r| self.score_row(r, weights))
            .collect()
    }

    /// [`DesignMatrix::score_all`] over up to `threads` worker threads —
    /// the build pass of [`crate::cache::ScoreCache`]. Each row's score
    /// depends only on its own entries (the blocked kernel's lane split is
    /// fixed by the entry count), so chunking the row range across threads
    /// is bit-for-bit the sequential pass at any thread count. Small
    /// matrices stay inline.
    pub fn score_all_with_threads(&self, weights: &Weights, threads: usize) -> Vec<f64> {
        let rows = self.rows();
        if rows < holo_parallel::MIN_PARALLEL_ITEMS {
            return self.score_all(weights);
        }
        holo_parallel::parallel_jobs(threads, rows, |r| self.score_row(r, weights))
    }
}

/// A row-major fragment of a design matrix under assembly — see the module
/// docs ("One-pass assembly").
#[derive(Debug, Default)]
pub struct DesignBuilder {
    matrix: DesignMatrix,
    /// Counting-sort scratch of `push_var`: per candidate slot, the next
    /// write position relative to the variable's first entry.
    cursor: Vec<u32>,
}

impl DesignBuilder {
    /// Appends one variable of `arity` candidates whose features are the
    /// `(slot, weight, value)` triples of `emissions`, in any slot order:
    /// a stable counting sort on the slot moves them into `arity` new
    /// rows, each keeping emission order. The iterator is walked twice
    /// (count, then place).
    ///
    /// # Panics
    /// Panics if an emission names a slot `>= arity`.
    pub fn push_var<I>(&mut self, arity: usize, emissions: I)
    where
        I: Iterator<Item = (usize, WeightId, f64)> + Clone,
    {
        let m = &mut self.matrix;
        self.cursor.clear();
        self.cursor.resize(arity, 0);
        let mut count = 0usize;
        for (slot, ..) in emissions.clone() {
            self.cursor[slot] += 1;
            count += 1;
        }
        DesignMatrix::assert_dims(m.rows() + arity, m.nnz() + count);
        let mut start = 0u32;
        for c in &mut self.cursor {
            start += std::mem::replace(c, start);
        }
        let base = m.entries.len();
        m.entries.resize(base + count, (WeightId(0), 0.0));
        for (slot, weight, value) in emissions {
            let at = &mut self.cursor[slot];
            m.entries[base + *at as usize] = (weight, value);
            *at += 1;
        }
        // Every cursor now sits at the end of its row.
        let base = base as u32;
        m.row_offsets
            .extend(self.cursor.iter().map(|&end| base + end));
        m.var_rows.push(m.row_offsets.len() as u32 - 1);
    }

    /// Appends the variables of `other` (a later chunk's fragment) after
    /// this fragment's.
    pub fn append(&mut self, other: DesignBuilder) {
        let (m, o) = (&mut self.matrix, other.matrix);
        DesignMatrix::assert_dims(m.rows() + o.rows(), m.nnz() + o.nnz());
        let (row_base, entry_base) = (m.rows() as u32, m.nnz() as u32);
        m.var_rows
            .extend(o.var_rows[1..].iter().map(|r| r + row_base));
        m.row_offsets
            .extend(o.row_offsets[1..].iter().map(|e| e + entry_base));
        m.entries.extend_from_slice(&o.entries);
    }

    /// The assembled matrix, its arrays trimmed to size.
    pub fn finish(mut self) -> DesignMatrix {
        self.matrix.repack();
        self.matrix
    }
}

/// The blocked dot-product kernel shared by every unary-scoring path: four
/// independent accumulators over exact chunks of four,
/// a sequential tail for the remainder, pairwise lane reduction. See the
/// module docs for why the split is fixed and short rows reproduce the
/// pre-blocked addition order exactly.
#[inline]
pub fn score_features(features: &[(WeightId, f64)], weights: &Weights) -> f64 {
    let mut chunks = features.chunks_exact(4);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for c in &mut chunks {
        a0 += weights.get(c[0].0) * c[0].1;
        a1 += weights.get(c[1].0) * c[1].1;
        a2 += weights.get(c[2].0) * c[2].1;
        a3 += weights.get(c[3].0) * c[3].1;
    }
    let mut tail = 0.0f64;
    for &(w, x) in chunks.remainder() {
        tail += weights.get(w) * x;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// The pre-blocked kernel, kept as the reference the blocked one is
/// compared against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// A plain sequential map-multiply-sum per row of `v` through
    /// [`DesignMatrix::row`], into `out` (cleared first).
    pub(crate) fn score_var_into_naive(
        m: &DesignMatrix,
        v: VarId,
        weights: &Weights,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(m.var_range(v).map(|r| {
            m.row(r)
                .iter()
                .map(|&(w, x)| weights.get(w) * x)
                .sum::<f64>()
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::reference::score_var_into_naive;
    use super::*;
    use crate::graph::FeatureVec;

    fn wid(i: u32) -> WeightId {
        WeightId(i)
    }

    /// Two variables: arities 2 and 3, features in deliberate non-sorted
    /// insertion order to pin down that CSR preserves it.
    fn sample_unary() -> Vec<Vec<FeatureVec>> {
        vec![
            vec![vec![(wid(3), 1.0), (wid(0), 2.0)], vec![]],
            vec![
                vec![(wid(1), 0.5)],
                vec![(wid(0), -1.0), (wid(2), 4.0)],
                vec![(wid(1), 1.0)],
            ],
        ]
    }

    #[test]
    fn compile_layout() {
        let m = DesignMatrix::compile(&sample_unary());
        assert_eq!(m.var_count(), 2);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.var_range(VarId(0)), 0..2);
        assert_eq!(m.var_range(VarId(1)), 2..5);
        assert_eq!(m.row_of(VarId(1), 1), 3);
        assert_eq!(m.row(0), &[(wid(3), 1.0), (wid(0), 2.0)]);
        assert!(m.row(1).is_empty());
        assert_eq!(m.row(3), &[(wid(0), -1.0), (wid(2), 4.0)]);
        assert_eq!(m.weight_ids(), [wid(0), wid(1), wid(2), wid(3)]);
    }

    #[test]
    fn scores_match_manual_dot_product() {
        let m = DesignMatrix::compile(&sample_unary());
        let mut w = Weights::zeros(4);
        w.set(wid(0), 1.5);
        w.set(wid(1), -2.0);
        w.set(wid(2), 0.25);
        w.set(wid(3), 3.0);
        // Row 0: 3.0 * 1.0 + 1.5 * 2.0.
        assert_eq!(m.score_row(0, &w), 3.0 + 3.0);
        assert_eq!(m.score_row(1, &w), 0.0);
        // Row 3: 1.5 * -1.0 + 0.25 * 4.0.
        assert_eq!(m.score_row(3, &w), -1.5 + 1.0);
        let mut out = Vec::new();
        m.score_var_into(VarId(1), &w, &mut out);
        assert_eq!(out, vec![-1.0, -0.5, -2.0]);
        assert_eq!(m.score_all(&w), vec![6.0, 0.0, -1.0, -0.5, -2.0]);
    }

    #[test]
    fn empty_graph() {
        let m = DesignMatrix::compile(&[]);
        assert_eq!(m.var_count(), 0);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.nnz(), 0);
    }

    /// Emits `unary` through a builder with each variable's entries
    /// interleaved across slots (round-robin over the rows, the way
    /// co-occurrence features arrive: attribute-major, candidate-minor).
    fn emit_interleaved(b: &mut DesignBuilder, unary: &[Vec<FeatureVec>]) {
        for per_var in unary {
            let longest = per_var.iter().map(Vec::len).max().unwrap_or(0);
            let mut emissions = Vec::new();
            for i in 0..longest {
                for (k, row) in per_var.iter().enumerate() {
                    if let Some(&(w, x)) = row.get(i) {
                        emissions.push((k, w, x));
                    }
                }
            }
            b.push_var(per_var.len(), emissions.iter().copied());
        }
    }

    /// The counting sort restores row-major order from any interleaving
    /// that keeps each slot's own order, including empty rows and a
    /// variable with no features at all.
    #[test]
    fn builder_matches_reference_compile() {
        let mut unary = sample_unary();
        unary.push(vec![vec![], vec![]]);
        unary.push(vec![vec![(wid(2), 1.0), (wid(2), 2.0), (wid(0), 3.0)]]);
        let mut b = DesignBuilder::default();
        emit_interleaved(&mut b, &unary);
        assert_eq!(b.finish(), DesignMatrix::compile(&unary));
        assert_eq!(
            DesignBuilder::default().finish(),
            DesignMatrix::compile(&[])
        );
    }

    /// Fragments concatenate to the single-fragment matrix wherever the
    /// variable list is cut.
    #[test]
    fn fragments_concatenate_at_any_cut() {
        let mut unary = sample_unary();
        unary.push(vec![vec![(wid(3), 0.5)], vec![], vec![(wid(1), -2.0)]]);
        let whole = DesignMatrix::compile(&unary);
        for cut in 0..=unary.len() {
            let mut head = DesignBuilder::default();
            emit_interleaved(&mut head, &unary[..cut]);
            let mut tail = DesignBuilder::default();
            emit_interleaved(&mut tail, &unary[cut..]);
            head.append(tail);
            assert_eq!(head.finish(), whole, "cut at {cut}");
        }
    }

    #[test]
    #[should_panic]
    fn builder_rejects_slot_beyond_arity() {
        DesignBuilder::default().push_var(2, [(2, wid(0), 1.0)].into_iter());
    }

    /// The blocked kernel agrees with the plain sequential reference: rows
    /// shorter than one chunk are bit-for-bit identical (same addition
    /// order), longer rows agree to floating-point reassociation accuracy.
    #[test]
    fn blocked_kernel_matches_naive_reference() {
        let long_row: FeatureVec = (0..11)
            .map(|i| (wid(i % 4), 0.1 * f64::from(i) - 0.3))
            .collect();
        let unary = vec![vec![
            vec![(wid(3), 1.0), (wid(0), 2.0)],
            vec![(wid(1), 0.5), (wid(2), -2.0), (wid(0), 0.25)],
            long_row.clone(),
        ]];
        let m = DesignMatrix::compile(&unary);
        let mut w = Weights::zeros(4);
        w.set(wid(0), 1.5);
        w.set(wid(1), -2.0);
        w.set(wid(2), 0.25);
        w.set(wid(3), 3.0);
        let (mut blocked, mut naive) = (Vec::new(), Vec::new());
        m.score_var_into(VarId(0), &w, &mut blocked);
        score_var_into_naive(&m, VarId(0), &w, &mut naive);
        assert_eq!(blocked.len(), 3);
        // Short rows: the tail path reproduces the sequential sum exactly.
        assert_eq!(blocked[0], naive[0]);
        assert_eq!(blocked[1], naive[1]);
        // Multi-chunk row: reassociated, so compare within tolerance and
        // against an independent manual sum.
        let manual: f64 = long_row.iter().map(|&(w_, x)| w.get(w_) * x).sum();
        assert!((blocked[2] - naive[2]).abs() < 1e-12);
        assert!((blocked[2] - manual).abs() < 1e-12);
        // score_row and score_features route through the same kernel.
        assert_eq!(m.score_row(2, &w), blocked[2]);
        assert_eq!(score_features(&long_row, &w), blocked[2]);
    }
}
