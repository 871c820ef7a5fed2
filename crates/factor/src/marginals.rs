//! Marginal distributions over variable candidates, and MAP extraction.

use crate::graph::{FactorGraph, VarId};
use crate::math::argmax;
use serde::{Deserialize, Serialize};

/// Per-variable categorical marginals `P(T_c = d; Ω, Σ)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Marginals {
    per_var: Vec<Vec<f64>>,
}

impl Marginals {
    /// Wraps raw per-variable probability vectors.
    pub fn from_raw(per_var: Vec<Vec<f64>>) -> Self {
        Marginals { per_var }
    }

    /// Assembles full-graph marginals from per-component pieces — the
    /// merge step of partitioned inference. Evidence variables get a point
    /// mass on their observed candidate; every query variable takes its
    /// vector from `parts` (each appears in exactly one component, so each
    /// slot is written once and the iteration order cannot matter). A
    /// query variable `parts` never covers — impossible through the
    /// component router, which visits every component — falls back to
    /// uniform rather than an empty vector.
    pub fn assemble(
        graph: &FactorGraph,
        parts: impl IntoIterator<Item = (VarId, Vec<f64>)>,
    ) -> Self {
        let mut per_var: Vec<Vec<f64>> = graph
            .vars()
            .iter()
            .map(|var| match var.evidence {
                Some(k) => {
                    let mut p = vec![0.0; var.arity()];
                    p[k] = 1.0;
                    p
                }
                None => Vec::new(),
            })
            .collect();
        for (v, probs) in parts {
            debug_assert!(graph.var(v).is_query(), "parts cover query vars only");
            debug_assert_eq!(probs.len(), graph.var(v).arity());
            per_var[v.index()] = probs;
        }
        for (i, probs) in per_var.iter_mut().enumerate() {
            if probs.is_empty() {
                let n = graph.vars()[i].arity().max(1);
                *probs = vec![1.0 / n as f64; n];
            }
        }
        Marginals { per_var }
    }

    /// The marginal vector of variable `v`.
    pub fn probs(&self, v: VarId) -> &[f64] {
        &self.per_var[v.index()]
    }

    /// Probability of candidate `k` of variable `v`.
    pub fn prob(&self, v: VarId, k: usize) -> f64 {
        self.per_var[v.index()][k]
    }

    /// The MAP candidate of `v` and its marginal probability.
    pub fn map_candidate(&self, v: VarId) -> (usize, f64) {
        let probs = self.probs(v);
        let k = argmax(probs).expect("variable with empty marginal");
        (k, probs[k])
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.per_var.len()
    }

    /// Whether no variables are covered.
    pub fn is_empty(&self) -> bool {
        self.per_var.is_empty()
    }
}

/// Whole-graph closed-form marginals, kept as the reference the
/// partitioned router's closed-form path and the engines are compared
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::math::softmax;
    use crate::weights::Weights;

    /// Exact marginals for a graph *without clique factors*: each variable
    /// is independent, so its marginal is the softmax of its unary scores
    /// (the closed form the §5.2 relaxation buys). Evidence variables get a
    /// point mass on their observed candidate.
    pub(crate) fn exact_unary(graph: &FactorGraph, weights: &Weights) -> Marginals {
        debug_assert!(
            !graph.has_cliques(),
            "exact_unary called on a graph with clique factors"
        );
        let per_var = graph
            .var_ids()
            .map(|v| {
                let var = graph.var(v);
                match var.evidence {
                    Some(k) => {
                        let mut p = vec![0.0; var.arity()];
                        p[k] = 1.0;
                        p
                    }
                    None => {
                        let mut scores = Vec::new();
                        graph.design().score_var_into(v, weights, &mut scores);
                        softmax(&scores)
                    }
                }
            })
            .collect();
        Marginals { per_var }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::exact_unary;
    use super::*;
    use crate::graph::{GraphBuilder, Variable};
    use crate::weights::{WeightId, Weights};
    use holo_dataset::Sym;

    #[test]
    fn exact_unary_softmax() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![Sym(1), Sym(2)], Some(0)));
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 1.0);
        g.add_feature(v, 0, WeightId(0), 1.0); // score 1 vs 0
        let g = g.build();
        let m = exact_unary(&g, &w);
        let p = m.probs(v);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1]);
        let expected = 1.0 / (1.0 + (-1.0f64).exp().recip()).recip();
        // p0 = e^1 / (e^1 + e^0) = sigmoid(1)
        let sigmoid = 1.0 / (1.0 + (-1.0f64).exp());
        assert!((p[0] - sigmoid).abs() < 1e-12, "expected {expected}");
    }

    #[test]
    fn evidence_gets_point_mass() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::evidence(vec![Sym(1), Sym(2), Sym(3)], 2));
        let w = Weights::zeros(0);
        let g = g.build();
        let m = exact_unary(&g, &w);
        assert_eq!(m.probs(v), &[0.0, 0.0, 1.0]);
        assert_eq!(m.map_candidate(v), (2, 1.0));
    }

    #[test]
    fn map_candidate_breaks_ties_low() {
        let m = Marginals::from_raw(vec![vec![0.4, 0.4, 0.2]]);
        assert_eq!(m.map_candidate(VarId(0)).0, 0);
    }
}
