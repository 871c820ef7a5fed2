//! The factor graph.
//!
//! Variables are categorical with per-variable candidate domains (the
//! output of HoloClean's Algorithm 2 pruning). Unary factors carry sparse
//! feature vectors per candidate and reference tied weights; clique factors
//! encode grounded denial constraints from Algorithm 1 — a conjunction of
//! predicates over the candidate values of up to a handful of variables
//! plus constants frozen from clean cells.

use crate::coloring::Coloring;
use crate::components::ComponentIndex;
use crate::design::{DesignBuilder, DesignMatrix};
use crate::weights::{WeightId, Weights};
use holo_dataset::Sym;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Index of a variable in a [`FactorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A categorical random variable `T_c`.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Candidate values (the pruned domain `dom(c)`), at least one entry.
    pub domain: Vec<Sym>,
    /// Index into `domain` of the cell's initial (observed) value, if the
    /// initial value survived pruning.
    pub init: Option<usize>,
    /// For evidence variables: the fixed candidate index. Query variables
    /// carry `None`.
    pub evidence: Option<usize>,
}

impl Variable {
    /// A query variable over `domain` with initial value at `init`.
    pub fn query(domain: Vec<Sym>, init: Option<usize>) -> Self {
        assert!(!domain.is_empty(), "variable with empty domain");
        Variable {
            domain,
            init,
            evidence: None,
        }
    }

    /// An evidence variable fixed to `observed`.
    pub fn evidence(domain: Vec<Sym>, observed: usize) -> Self {
        assert!(observed < domain.len());
        Variable {
            domain,
            init: Some(observed),
            evidence: Some(observed),
        }
    }

    /// Number of candidates.
    pub fn arity(&self) -> usize {
        self.domain.len()
    }

    /// Whether this is a query (inferred) variable.
    pub fn is_query(&self) -> bool {
        self.evidence.is_none()
    }
}

/// Comparison operators clique predicates can use. Mirrors the denial
/// constraint operator set; kept separate so this crate stays independent
/// of the constraints crate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Neq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `≤`
    Leq,
    /// `≥`
    Geq,
    /// `≈` with threshold
    Sim(f64),
}

/// One side of a clique predicate: a variable slot or a frozen constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FactorOperand {
    /// The value of the i-th variable of the clique (index into
    /// [`CliqueFactor::vars`]).
    Var(u8),
    /// A constant symbol (a clean cell's value or a constraint constant).
    Const(Sym),
}

/// A single predicate inside a clique factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FactorPredicate {
    /// Left operand.
    pub lhs: FactorOperand,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: FactorOperand,
}

/// Value-ordering/similarity oracle. Equality is plain symbol identity and
/// needs no context; ordering and similarity need the value pool, which the
/// caller owns. Null symbols never satisfy any predicate.
pub trait ValueContext {
    /// Total order over symbol values (numeric when possible).
    fn compare(&self, a: Sym, b: Sym) -> std::cmp::Ordering;
    /// Whether `a ≈ b` at the given similarity threshold.
    fn similar(&self, a: Sym, b: Sym, threshold: f64) -> bool;
}

/// A context for graphs whose predicates only use `=`/`≠` — ordering and
/// similarity panic if reached. Useful in tests and FD-only workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqOnlyContext;

impl ValueContext for EqOnlyContext {
    fn compare(&self, _a: Sym, _b: Sym) -> std::cmp::Ordering {
        panic!("ordering predicate evaluated under EqOnlyContext")
    }
    fn similar(&self, _a: Sym, _b: Sym, _threshold: f64) -> bool {
        panic!("similarity predicate evaluated under EqOnlyContext")
    }
}

impl CmpOp {
    /// Whether `a op b` holds. A null on either side satisfies nothing.
    #[inline]
    pub fn holds(self, a: Sym, b: Sym, ctx: &impl ValueContext) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Neq => a != b,
            CmpOp::Lt => ctx.compare(a, b).is_lt(),
            CmpOp::Gt => ctx.compare(a, b).is_gt(),
            CmpOp::Leq => ctx.compare(a, b).is_le(),
            CmpOp::Geq => ctx.compare(a, b).is_ge(),
            CmpOp::Sim(t) => a == b || ctx.similar(a, b, t),
        }
    }
}

impl FactorPredicate {
    /// Evaluates the predicate under an assignment of clique variables to
    /// symbols.
    pub fn eval(&self, assignment: &[Sym], ctx: &impl ValueContext) -> bool {
        let resolve = |o: FactorOperand| match o {
            FactorOperand::Var(slot) => assignment[slot as usize],
            FactorOperand::Const(sym) => sym,
        };
        self.op.holds(resolve(self.lhs), resolve(self.rhs), ctx)
    }
}

/// A grounded denial-constraint factor (Algorithm 1): the head
/// `!(Value?(…) ∧ …)` fires (contributes `-θ`) whenever *all* predicates
/// hold under the current assignment.
#[derive(Debug, Clone)]
pub struct CliqueFactor {
    /// The query variables this factor connects (≥ 1).
    pub vars: Vec<VarId>,
    /// The tied weight `θ_φ` (fixed for hard-ish constraints, learnable in
    /// hybrid variants).
    pub weight: WeightId,
    /// Conjunction of predicates over slots/constants.
    pub predicates: Vec<FactorPredicate>,
}

impl CliqueFactor {
    /// Whether the denial constraint is violated by the given candidate
    /// symbols (one per clique var, in `vars` order).
    pub fn violated(&self, assignment: &[Sym], ctx: &impl ValueContext) -> bool {
        self.predicates.iter().all(|p| p.eval(assignment, ctx))
    }

    /// Log-linear contribution: `-θ` when violated, `0` otherwise (the
    /// factor function `h` returns −1 on violation; we fold the resting
    /// +θ into the partition constant).
    pub fn score(&self, assignment: &[Sym], weights: &Weights, ctx: &impl ValueContext) -> f64 {
        if self.violated(assignment, ctx) {
            -weights.get(self.weight)
        } else {
            0.0
        }
    }
}

/// Sparse unary features of one `(variable, candidate)` pair.
pub type FeatureVec = Vec<(WeightId, f64)>;

/// The grounded factor graph: constructed once, then read.
///
/// **Construction.** [`FactorGraph::new`] takes the variables, their CSR
/// [`DesignMatrix`] — the one home of the unary features, which every
/// consumer reads ([`FactorGraph::unary_score`], the Gibbs conditional,
/// exact enumeration, SGD) — and the grounded cliques, all complete. The
/// compiler featurizes straight into the matrix (see [`crate::design`])
/// and grounds its cliques before it calls `new`; hand-built graphs
/// collect the same three parts in a [`GraphBuilder`].
///
/// **Use.** The component index and the coloring are derived from the
/// clique structure on first access and cached; no method changes a
/// variable, a feature or a clique of a built graph.
#[derive(Debug, Clone)]
pub struct FactorGraph {
    vars: Vec<Variable>,
    /// The unary features of every `(variable, candidate)` pair.
    design: DesignMatrix,
    cliques: Vec<CliqueFactor>,
    /// `var_cliques[v]` = clique indices touching `v`.
    var_cliques: Vec<Vec<u32>>,
    /// Connected components of the clique structure, built on first use by
    /// partitioned inference (see [`ComponentIndex`]).
    components: OnceLock<ComponentIndex>,
    /// Greedy coloring of the variable-interaction graph, built on first
    /// use by chromatic Gibbs (see [`Coloring`]).
    coloring: OnceLock<Coloring>,
}

impl FactorGraph {
    /// The graph over `vars` whose unary features are `design` and whose
    /// clique factors are `cliques`, wiring each variable's clique list.
    ///
    /// # Panics
    /// Panics unless `design` has exactly one row range per variable, of
    /// that variable's arity, and every clique names between 1 and 255
    /// variables, all of them in `vars`.
    pub fn new(vars: Vec<Variable>, design: DesignMatrix, cliques: Vec<CliqueFactor>) -> Self {
        assert_eq!(design.var_count(), vars.len(), "one row range per variable");
        for (i, var) in vars.iter().enumerate() {
            let rows = design.var_range(VarId(i as u32)).len();
            assert_eq!(rows, var.arity(), "one row per candidate");
        }
        let mut counts = vec![0usize; vars.len()];
        for (idx, clique) in cliques.iter().enumerate() {
            let arity = clique.vars.len();
            assert!(
                (1..=u8::MAX as usize).contains(&arity),
                "clique {idx} has {arity} variables, not 1 to 255"
            );
            for &v in &clique.vars {
                assert!(
                    v.index() < vars.len(),
                    "clique {idx} names variable {} of a graph with {}",
                    v.0,
                    vars.len()
                );
                counts[v.index()] += 1;
            }
        }
        // Sized before filling, so each list is one allocation.
        let mut var_cliques: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (idx, clique) in cliques.iter().enumerate() {
            for &v in &clique.vars {
                var_cliques[v.index()].push(idx as u32);
            }
        }
        FactorGraph {
            vars,
            design,
            cliques,
            var_cliques,
            components: OnceLock::new(),
            coloring: OnceLock::new(),
        }
    }

    /// The variable `v`.
    pub fn var(&self, v: VarId) -> &Variable {
        &self.vars[v.index()]
    }

    /// All variables.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Iterates variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Ids of query variables.
    pub fn query_vars(&self) -> Vec<VarId> {
        self.var_ids().filter(|v| self.var(*v).is_query()).collect()
    }

    /// Ids of evidence variables.
    pub fn evidence_vars(&self) -> Vec<VarId> {
        self.var_ids()
            .filter(|v| !self.var(*v).is_query())
            .collect()
    }

    /// The CSR design matrix over all `(variable, candidate)` rows — the
    /// single store and scoring substrate of the unary features.
    pub fn design(&self) -> &DesignMatrix {
        &self.design
    }

    /// Re-packs the design matrix's arrays into exact-size allocations.
    /// The matrix is the only copy of the features, so there is nothing
    /// to rebuild it *from*: [`FactorGraph::design`] afterwards returns a
    /// matrix equal to the one before.
    pub fn invalidate_design(&mut self) {
        self.design.repack();
    }

    /// The connected components of the clique structure — the partition
    /// seam of [`crate::components::infer_partitioned`]. Built on first
    /// access (one union-find pass over the clique scopes) and cached
    /// until [`FactorGraph::invalidate_components`] drops it.
    pub fn components(&self) -> &ComponentIndex {
        self.components
            .get_or_init(|| ComponentIndex::build(self.vars.len(), &self.cliques))
    }

    /// Drops the cached component index; the next access rebuilds it from
    /// scratch.
    pub fn invalidate_components(&mut self) {
        self.components.take();
    }

    /// The greedy coloring of the variable-interaction graph — the sweep
    /// schedule of chromatic Gibbs. Built on first access (one greedy pass
    /// over the clique scopes) and cached.
    pub fn coloring(&self) -> &Coloring {
        self.coloring
            .get_or_init(|| Coloring::build(self.vars.len(), &self.cliques, &self.var_cliques))
    }

    /// The raw clique-adjacency lists (`var_cliques[v]` = clique indices
    /// touching `v`) — the build input of [`Coloring`], exposed for the
    /// coloring tests.
    #[cfg(test)]
    pub(crate) fn var_cliques_raw(&self) -> &[Vec<u32>] {
        &self.var_cliques
    }

    /// Sparse features of candidate `k` of variable `v` (a CSR row of the
    /// design matrix, in insertion order).
    pub fn features(&self, v: VarId, k: usize) -> &[(WeightId, f64)] {
        self.design.row(self.design.row_of(v, k))
    }

    /// Unary log-score of candidate `k` of `v` under `weights`.
    pub fn unary_score(&self, v: VarId, k: usize, weights: &Weights) -> f64 {
        self.design.score_row(self.design.row_of(v, k), weights)
    }

    /// Unary log-scores of all candidates of `v`.
    pub fn unary_scores(&self, v: VarId, weights: &Weights) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.var(v).arity());
        self.design.score_var_into(v, weights, &mut out);
        out
    }

    /// [`FactorGraph::unary_scores`] into a caller-owned buffer (cleared
    /// first) — the allocation-free form hot loops use.
    pub fn unary_scores_into(&self, v: VarId, weights: &Weights, out: &mut Vec<f64>) {
        self.design.score_var_into(v, weights, out);
    }

    /// All clique factors.
    pub fn cliques(&self) -> &[CliqueFactor] {
        &self.cliques
    }

    /// Clique indices adjacent to `v`.
    pub fn cliques_of(&self, v: VarId) -> &[u32] {
        &self.var_cliques[v.index()]
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Total number of grounded factors (unary feature entries + cliques) —
    /// the "factor graph size" the paper's optimisations shrink.
    pub fn factor_count(&self) -> usize {
        self.design.nnz() + self.cliques.len()
    }

    /// Whether the graph has clique factors (needs Gibbs) or is fully
    /// independent (closed-form marginals, §5.2).
    pub fn has_cliques(&self) -> bool {
        !self.cliques.is_empty()
    }
}

/// The parts of a hand-built [`FactorGraph`], collected one call at a time
/// and assembled by [`GraphBuilder::build`] — for tests and small graphs;
/// the compiler assembles its design matrix in bulk and calls
/// [`FactorGraph::new`] itself.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    vars: Vec<Variable>,
    /// `emissions[v]` = the `(candidate, weight, value)` features of `v`,
    /// in the order they were added.
    emissions: Vec<Vec<(usize, WeightId, f64)>>,
    cliques: Vec<CliqueFactor>,
}

impl GraphBuilder {
    /// A builder with no variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with no features, returning its id.
    pub fn add_variable(&mut self, var: Variable) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(var);
        self.emissions.push(Vec::new());
        id
    }

    /// Appends a unary feature `(weight, value)` to candidate `k` of `v`.
    ///
    /// # Panics
    /// Panics when `k` is not a candidate of `v`.
    pub fn add_feature(&mut self, v: VarId, k: usize, weight: WeightId, value: f64) {
        assert!(
            k < self.vars[v.index()].arity(),
            "candidate index out of range"
        );
        self.emissions[v.index()].push((k, weight, value));
    }

    /// Adds a clique factor.
    pub fn add_clique(&mut self, clique: CliqueFactor) {
        self.cliques.push(clique);
    }

    /// The graph: each variable's features become its design rows (row `k`
    /// in the order they were added to candidate `k`), through the
    /// compiler's own [`DesignBuilder::push_var`].
    ///
    /// # Panics
    /// Panics where [`FactorGraph::new`] does.
    pub fn build(self) -> FactorGraph {
        let mut design = DesignBuilder::default();
        for (var, emissions) in self.vars.iter().zip(&self.emissions) {
            design.push_var(var.arity(), emissions.iter().copied());
        }
        FactorGraph::new(self.vars, design.finish(), self.cliques)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn variable_constructors() {
        let q = Variable::query(vec![sym(1), sym(2)], Some(0));
        assert!(q.is_query());
        assert_eq!(q.arity(), 2);
        let e = Variable::evidence(vec![sym(1), sym(2)], 1);
        assert!(!e.is_query());
        assert_eq!(e.init, Some(1));
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_rejected() {
        Variable::query(vec![], None);
    }

    #[test]
    fn unary_scores_accumulate() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let mut w = Weights::zeros(2);
        w.set(WeightId(0), 2.0);
        w.set(WeightId(1), -1.0);
        g.add_feature(v, 0, WeightId(0), 1.0);
        g.add_feature(v, 0, WeightId(1), 3.0);
        g.add_feature(v, 1, WeightId(0), 0.5);
        let g = g.build();
        assert!((g.unary_score(v, 0, &w) - (2.0 - 3.0)).abs() < 1e-12);
        assert!((g.unary_score(v, 1, &w) - 1.0).abs() < 1e-12);
        assert_eq!(g.unary_scores(v, &w).len(), 2);
    }

    #[test]
    fn clique_violation_semantics() {
        // DC: ¬(x = y). Two variables, predicate Var(0) = Var(1).
        let clique = CliqueFactor {
            vars: vec![VarId(0), VarId(1)],
            weight: WeightId(0),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        };
        let ctx = EqOnlyContext;
        assert!(clique.violated(&[sym(5), sym(5)], &ctx));
        assert!(!clique.violated(&[sym(5), sym(6)], &ctx));
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 4.0);
        assert_eq!(clique.score(&[sym(5), sym(5)], &w, &ctx), -4.0);
        assert_eq!(clique.score(&[sym(5), sym(6)], &w, &ctx), 0.0);
    }

    #[test]
    fn clique_with_constant_operand() {
        // ¬(x = c ∧ x ≠ d): violated iff x == c (and c != d).
        let c = sym(7);
        let d = sym(8);
        let clique = CliqueFactor {
            vars: vec![VarId(0)],
            weight: WeightId(0),
            predicates: vec![
                FactorPredicate {
                    lhs: FactorOperand::Var(0),
                    op: CmpOp::Eq,
                    rhs: FactorOperand::Const(c),
                },
                FactorPredicate {
                    lhs: FactorOperand::Var(0),
                    op: CmpOp::Neq,
                    rhs: FactorOperand::Const(d),
                },
            ],
        };
        let ctx = EqOnlyContext;
        assert!(clique.violated(&[c], &ctx));
        assert!(!clique.violated(&[d], &ctx));
    }

    #[test]
    fn null_operand_never_satisfies() {
        let p = FactorPredicate {
            lhs: FactorOperand::Var(0),
            op: CmpOp::Eq,
            rhs: FactorOperand::Const(Sym::NULL),
        };
        assert!(!p.eval(&[Sym::NULL], &EqOnlyContext));
    }

    #[test]
    fn adjacency_wiring() {
        let mut g = GraphBuilder::new();
        let v0 = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let v1 = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let v2 = g.add_variable(Variable::evidence(vec![sym(1)], 0));
        g.add_clique(CliqueFactor {
            vars: vec![v0, v1],
            weight: WeightId(0),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        });
        let g = g.build();
        assert_eq!(g.cliques_of(v0), &[0]);
        assert_eq!(g.cliques_of(v1), &[0]);
        assert!(g.cliques_of(v2).is_empty());
        assert_eq!(g.query_vars(), vec![v0, v1]);
        assert_eq!(g.evidence_vars(), vec![v2]);
        assert!(g.has_cliques());
    }

    /// Scores of `v`'s candidates over the nested adjacency `unary`,
    /// through the same kernel.
    fn adjacency_scores(unary: &[Vec<FeatureVec>], v: VarId, weights: &Weights) -> Vec<f64> {
        unary[v.index()]
            .iter()
            .map(|features| crate::design::score_features(features, weights))
            .collect()
    }

    /// The CSR store and the adjacency reference agree bit-for-bit, and
    /// invalidation hands back an equal matrix.
    #[test]
    fn design_matrix_matches_adjacency_and_invalidates() {
        let mut b = GraphBuilder::new();
        let v = b.add_variable(Variable::query(vec![sym(1), sym(2), sym(3)], Some(0)));
        let mut unary: Vec<Vec<FeatureVec>> = vec![vec![Vec::new(); 3]];
        for (k, w, x) in [(0, 1, 0.25), (0, 0, 1.0), (2, 2, -0.5), (1, 0, 4.0)] {
            b.add_feature(v, k, WeightId(w), x);
            unary[0][k].push((WeightId(w), x));
        }
        let mut g = b.build();
        let mut w = Weights::zeros(3);
        w.set(WeightId(0), 0.7);
        w.set(WeightId(1), -1.3);
        w.set(WeightId(2), 2.2);
        assert_eq!(g.design().nnz(), 4);
        assert_eq!(g.unary_scores(v, &w), adjacency_scores(&unary, v, &w));
        let mut buf = vec![99.0];
        g.unary_scores_into(v, &w, &mut buf);
        assert_eq!(buf, g.unary_scores(v, &w));
        // With one store there is nothing to rebuild from: invalidation
        // re-packs and hands back an equal matrix.
        let before = g.design().clone();
        g.invalidate_design();
        assert_eq!(g.design(), &before);
        assert_eq!(g.design(), &DesignMatrix::compile(&unary));
    }

    /// Features added in any order across variables and candidates land
    /// in the rows the reference compile of the same adjacency builds,
    /// each row in the order its features were added.
    #[test]
    fn builder_equals_reference_compile() {
        let mut b = GraphBuilder::new();
        let mut unary: Vec<Vec<FeatureVec>> = Vec::new();
        for n in [2, 3, 1, 2] {
            b.add_variable(Variable::query((1..=n).map(sym).collect(), None));
            unary.push(vec![Vec::new(); n as usize]);
        }
        let adds = [(1, 2), (0, 1), (1, 0), (1, 2), (0, 0), (3, 1), (1, 2)];
        for (i, (v, k)) in adds.into_iter().enumerate() {
            let (w, x) = (WeightId(i as u32 % 3), 0.5 * i as f64 - 1.0);
            b.add_feature(VarId(v as u32), k, w, x);
            unary[v][k].push((w, x));
        }
        assert_eq!(b.build().design(), &DesignMatrix::compile(&unary));
        assert_eq!(
            GraphBuilder::new().build().design(),
            &DesignMatrix::compile(&[])
        );
    }

    #[test]
    #[should_panic(expected = "one row per candidate")]
    fn new_rejects_mismatched_arity() {
        let design = DesignMatrix::compile(&[vec![Vec::new(); 2]]);
        let three = vec![Variable::query(vec![sym(1), sym(2), sym(3)], None)];
        FactorGraph::new(three, design, Vec::new());
    }

    #[test]
    #[should_panic(expected = "clique 1 names variable 2 of a graph with 2")]
    fn new_rejects_a_clique_over_a_missing_variable() {
        let mut b = GraphBuilder::new();
        let v = b.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        b.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let clique = |vars| CliqueFactor {
            vars,
            weight: WeightId(0),
            predicates: Vec::new(),
        };
        b.add_clique(clique(vec![v]));
        b.add_clique(clique(vec![v, VarId(2)]));
        b.build();
    }

    #[test]
    fn cloned_graph_scores_identically() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        g.add_feature(v, 0, WeightId(0), 1.0);
        let g = g.build();
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 3.0);
        let _ = g.unary_scores(v, &w); // populate the cache
        let clone = g.clone();
        assert_eq!(clone.unary_scores(v, &w), g.unary_scores(v, &w));
    }

    #[test]
    fn factor_count_tallies_unary_and_cliques() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        g.add_feature(v, 0, WeightId(0), 1.0);
        g.add_feature(v, 1, WeightId(0), 1.0);
        assert_eq!(g.clone().build().factor_count(), 2);
        g.add_clique(CliqueFactor {
            vars: vec![v],
            weight: WeightId(0),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Const(sym(1)),
            }],
        });
        assert_eq!(g.build().factor_count(), 3);
    }
}
