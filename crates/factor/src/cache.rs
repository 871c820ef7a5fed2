//! The frozen-weight score cache of one inference pass.
//!
//! During inference the weight vector is frozen, yet a Gibbs conditional
//! that re-ran the CSR dot-product kernel over a variable's whole row range
//! on every resample of every sweep would recompute the same unary scores
//! millions of times on hospital-scale runs. [`ScoreCache`] amortises that:
//! one parallel pass at the top of
//! [`infer_partitioned`](crate::components::infer_partitioned) evaluates
//! every design row once through the same blocked kernel
//! ([`score_features`](crate::design::score_features)), and all three
//! inference engines read the resulting `f64`-per-row table — Gibbs
//! conditionals start from a memcpy of the cached row range, exact
//! enumeration reads each variable's slice, and the clique-free closed
//! form softmaxes straight off the cache. A standalone
//! [`GibbsSampler::new`](crate::gibbs::GibbsSampler::new) builds a cache
//! of its own.
//!
//! ## Bit-identity
//!
//! Each row's score depends only on its own entries — the blocked kernel's
//! lane split is fixed by the entry count — so scoring rows in parallel
//! chunks produces exactly the bytes
//! [`DesignMatrix::score_var_into`] would, at any thread count
//! (`cache_matches_score_var_into_bit_for_bit`).
//!
//! ## Freshness
//!
//! A cache is built per `infer_partitioned` call and borrows the design
//! matrix it scored — it is **never stored in
//! [`FactorGraph`](crate::graph::FactorGraph)**, so a pass under other
//! weights can never read stale scores: it builds a fresh cache against
//! its own weights, by construction.

use crate::design::DesignMatrix;
use crate::graph::VarId;
use crate::weights::Weights;
use serde::{Deserialize, Serialize};

/// What one inference pass's score cache did — rides in
/// [`PartitionStats`](crate::components::PartitionStats) (and from there
/// `StageTimings` and `diag --json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoreCacheStats {
    /// Cache builds this pass: always 1 — the cache is per-call, not
    /// per-component.
    pub builds: u64,
    /// Design rows scored by the build pass (one `f64` each).
    pub rows: u64,
}

/// Every design row's blocked-kernel score under one frozen weight vector,
/// borrowing the [`DesignMatrix`] it was built from (so it can never
/// outlive — or go stale against — the matrix it indexes).
#[derive(Clone)]
pub struct ScoreCache<'d> {
    design: &'d DesignMatrix,
    /// `scores[r]` = blocked-kernel score of design row `r`.
    scores: Vec<f64>,
}

impl<'d> ScoreCache<'d> {
    /// Scores every row of `design` under `weights` over up to `threads`
    /// worker threads. Rows are independent, so the chunked parallel pass
    /// is bit-for-bit [`DesignMatrix::score_all`] at any thread count.
    pub fn build(design: &'d DesignMatrix, weights: &Weights, threads: usize) -> Self {
        ScoreCache {
            design,
            scores: design.score_all_with_threads(weights, threads),
        }
    }

    /// Number of cached rows.
    pub fn rows(&self) -> usize {
        self.scores.len()
    }

    /// The cached scores of variable `v`'s candidates — the slice
    /// [`DesignMatrix::score_var_into`] would have produced.
    #[inline]
    pub fn var_scores(&self, v: VarId) -> &[f64] {
        &self.scores[self.design.var_range(v)]
    }

    /// Copies `v`'s cached candidate scores into `out` (cleared first) —
    /// the memcpy that replaces the per-resample kernel walk in the Gibbs
    /// conditional.
    #[inline]
    pub fn copy_var_scores_into(&self, v: VarId, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.var_scores(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FactorGraph, GraphBuilder, Variable};
    use crate::weights::WeightId;
    use holo_dataset::Sym;

    fn graph_with_features() -> (FactorGraph, Weights) {
        let mut g = GraphBuilder::new();
        let mut w = Weights::zeros(4);
        for k in 0..4u32 {
            w.set(WeightId(k), 0.4 * f64::from(k) - 0.7);
        }
        for i in 0..9u32 {
            let arity = 2 + (i as usize % 3);
            let domain: Vec<Sym> = (0..arity as u32).map(|k| Sym(1 + i * 8 + k)).collect();
            let v = g.add_variable(Variable::query(domain, Some(0)));
            for k in 0..arity {
                g.add_feature(v, k, WeightId((i + k as u32) % 4), 0.3 * f64::from(i) + 1.0);
            }
        }
        (g.build(), w)
    }

    #[test]
    fn cache_matches_score_var_into_bit_for_bit() {
        let (g, w) = graph_with_features();
        let design = g.design();
        for threads in [1, 2, 4] {
            let cache = ScoreCache::build(design, &w, threads);
            assert_eq!(cache.rows(), design.rows());
            let (mut direct, mut copied) = (Vec::new(), Vec::new());
            for v in g.var_ids() {
                design.score_var_into(v, &w, &mut direct);
                cache.copy_var_scores_into(v, &mut copied);
                assert_eq!(
                    direct.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    copied.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "var {v:?}, threads = {threads}"
                );
                assert_eq!(cache.var_scores(v).len(), g.var(v).arity());
            }
        }
    }

    #[test]
    fn empty_design_builds_an_empty_cache() {
        let g = GraphBuilder::new().build();
        let w = Weights::zeros(0);
        let cache = ScoreCache::build(g.design(), &w, 4);
        assert_eq!(cache.rows(), 0);
    }
}
