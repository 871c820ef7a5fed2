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
use crate::design::DesignMatrix;
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

/// The grounded factor graph: constructed, then read.
///
/// **Construction.** A compiled model arrives with its CSR
/// [`DesignMatrix`] — the one home of the unary features, which every
/// consumer reads ([`FactorGraph::unary_score`], the Gibbs conditional,
/// exact enumeration, SGD) — already assembled
/// ([`FactorGraph::from_design`]; the compiler featurizes straight into
/// it, see [`crate::design`]) and then grounds its cliques with
/// [`add_clique`](FactorGraph::add_clique). Tests and hand-built graphs
/// start from [`FactorGraph::new`] and use
/// [`add_variable`](FactorGraph::add_variable) /
/// [`add_feature`](FactorGraph::add_feature), which splice the affected
/// variable's rows into the matrix in place — O(that variable's rows plus
/// a suffix shift) per call, wrong for bulk featurization, which goes
/// through a [`DesignBuilder`](crate::design::DesignBuilder).
///
/// **Use.** The component index and the coloring are derived from the
/// clique structure on first access and cached; nothing ever patches
/// them. A construction call that arrives after one was built simply drops
/// it, so a cached partition can never be stale. The one mutator of a
/// built graph is [`pin_evidence`](FactorGraph::pin_evidence) (user
/// feedback, §2.2), which changes no clique scope and therefore leaves
/// both caches alone.
#[derive(Debug, Clone, Default)]
pub struct FactorGraph {
    vars: Vec<Variable>,
    /// The unary features of every `(variable, candidate)` pair.
    design: DesignMatrix,
    cliques: Vec<CliqueFactor>,
    /// `var_cliques[v]` = clique indices touching `v`.
    var_cliques: Vec<Vec<u32>>,
    /// Connected components of the clique structure, built on first use by
    /// partitioned inference. Scopes are unioned over all members,
    /// evidence included (see [`ComponentIndex`]), so `pin_evidence` never
    /// changes it.
    components: OnceLock<ComponentIndex>,
    /// Greedy coloring of the variable-interaction graph, built on first
    /// use by chromatic Gibbs (see [`Coloring`]).
    coloring: OnceLock<Coloring>,
}

impl FactorGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clique-free graph over `vars` whose unary features are the
    /// already-assembled `design` — how the compiler hands over a model.
    ///
    /// # Panics
    /// Panics unless `design` has exactly one row range per variable, of
    /// that variable's arity.
    pub fn from_design(vars: Vec<Variable>, design: DesignMatrix) -> Self {
        assert_eq!(design.var_count(), vars.len(), "one row range per variable");
        for (i, var) in vars.iter().enumerate() {
            let rows = design.var_range(VarId(i as u32)).len();
            assert_eq!(rows, var.arity(), "one row per candidate");
        }
        FactorGraph {
            var_cliques: vec![Vec::new(); vars.len()],
            vars,
            design,
            ..FactorGraph::default()
        }
    }

    /// Adds a variable with no features, returning its id; its (empty)
    /// rows are appended to the design matrix and a cached component
    /// index or coloring is dropped.
    pub fn add_variable(&mut self, var: Variable) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.design
            .append_var(&vec![FeatureVec::new(); var.arity()]);
        self.var_cliques.push(Vec::new());
        self.vars.push(var);
        self.components.take();
        self.coloring.take();
        id
    }

    /// Appends a unary feature `(weight, value)` to candidate `k` of `v`
    /// by re-splicing `v`'s row range — O(its entries plus a suffix shift)
    /// per call.
    pub fn add_feature(&mut self, v: VarId, k: usize, weight: WeightId, value: f64) {
        let mut per_candidate: Vec<FeatureVec> = self
            .design
            .var_range(v)
            .map(|r| self.design.row(r).to_vec())
            .collect();
        per_candidate[k].push((weight, value));
        self.design.patch_var(v, &per_candidate);
    }

    /// Adds a clique factor, wiring the adjacency lists. A cached
    /// component index or coloring is dropped: the next access builds it
    /// over the new scopes.
    pub fn add_clique(&mut self, clique: CliqueFactor) {
        assert!(!clique.vars.is_empty());
        assert!(clique.vars.len() <= u8::MAX as usize);
        let idx = self.cliques.len() as u32;
        for &v in &clique.vars {
            self.var_cliques[v.index()].push(idx);
        }
        self.cliques.push(clique);
        self.components.take();
        self.coloring.take();
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
    /// single store and scoring substrate of the unary features, always
    /// current: `add_variable`, `add_feature` and `pin_evidence` splice it
    /// in place.
    pub fn design(&self) -> &DesignMatrix {
        &self.design
    }

    /// Re-packs the design matrix's arrays into exact-size allocations
    /// (splices leave growth slack behind). The matrix is the only copy of
    /// the features, so there is nothing to rebuild it *from*:
    /// [`FactorGraph::design`] afterwards returns a matrix equal to the
    /// one before.
    pub fn invalidate_design(&mut self) {
        self.design.repack();
    }

    /// The connected components of the clique structure — the partition
    /// seam of [`crate::components::infer_partitioned`]. Built on first
    /// access (one union-find pass over the clique scopes) and cached
    /// until a construction call or
    /// [`FactorGraph::invalidate_components`] drops it.
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
    /// over the clique scopes) and cached until a construction call drops
    /// it.
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

    /// Converts a query variable into evidence pinned to `value` — the
    /// incremental-feedback path (§2.2): user-verified cells become
    /// labelled examples for retraining. If `value` is not in the
    /// variable's domain it is appended (with no unary features; the pin
    /// itself carries the information) and the design matrix gains the
    /// one candidate row in place. Clique scopes do not change, so the
    /// component index and the coloring stay as they are.
    pub fn pin_evidence(&mut self, v: VarId, value: Sym) {
        let var = &mut self.vars[v.index()];
        let k = match var.domain.iter().position(|&d| d == value) {
            Some(k) => k,
            None => {
                var.domain.push(value);
                self.design.append_candidate_row(v, &[]);
                var.domain.len() - 1
            }
        };
        var.evidence = Some(k);
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
        let mut g = FactorGraph::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let mut w = Weights::zeros(2);
        w.set(WeightId(0), 2.0);
        w.set(WeightId(1), -1.0);
        g.add_feature(v, 0, WeightId(0), 1.0);
        g.add_feature(v, 0, WeightId(1), 3.0);
        g.add_feature(v, 1, WeightId(0), 0.5);
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
        let mut g = FactorGraph::new();
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
        assert_eq!(g.cliques_of(v0), &[0]);
        assert_eq!(g.cliques_of(v1), &[0]);
        assert!(g.cliques_of(v2).is_empty());
        assert_eq!(g.query_vars(), vec![v0, v1]);
        assert_eq!(g.evidence_vars(), vec![v2]);
        assert!(g.has_cliques());
    }

    /// A graph built through the mutators next to the shadow adjacency the
    /// test keeps itself — the reference store the design matrix replaced.
    struct Shadowed {
        g: FactorGraph,
        unary: Vec<Vec<FeatureVec>>,
    }

    impl Shadowed {
        fn add_variable(&mut self, var: Variable) -> VarId {
            self.unary.push(vec![Vec::new(); var.arity()]);
            self.g.add_variable(var)
        }
        fn add_feature(&mut self, v: VarId, k: usize, w: WeightId, x: f64) {
            self.unary[v.index()][k].push((w, x));
            self.g.add_feature(v, k, w, x);
        }
        fn pin_evidence(&mut self, v: VarId, value: Sym) {
            if !self.g.var(v).domain.contains(&value) {
                self.unary[v.index()].push(Vec::new());
            }
            self.g.pin_evidence(v, value);
        }
        /// Scores over the nested adjacency, through the same kernel.
        fn adjacency_scores(&self, v: VarId, weights: &Weights) -> Vec<f64> {
            self.unary[v.index()]
                .iter()
                .map(|features| crate::design::score_features(features, weights))
                .collect()
        }
    }

    /// The CSR store and the adjacency reference agree bit-for-bit, and
    /// every mutation is visible to the next scoring access.
    #[test]
    fn design_matrix_matches_adjacency_and_invalidates() {
        let mut s = Shadowed {
            g: FactorGraph::new(),
            unary: Vec::new(),
        };
        let v = s.add_variable(Variable::query(vec![sym(1), sym(2), sym(3)], Some(0)));
        let mut w = Weights::zeros(3);
        w.set(WeightId(0), 0.7);
        w.set(WeightId(1), -1.3);
        w.set(WeightId(2), 2.2);
        s.add_feature(v, 0, WeightId(1), 0.25);
        s.add_feature(v, 0, WeightId(0), 1.0);
        s.add_feature(v, 2, WeightId(2), -0.5);
        assert_eq!(s.g.unary_scores(v, &w), s.adjacency_scores(v, &w));
        assert_eq!(s.g.design().nnz(), 3);
        // Mutation after scoring must not serve stale rows.
        s.add_feature(v, 1, WeightId(0), 4.0);
        assert_eq!(s.g.design().nnz(), 4);
        assert_eq!(s.g.unary_scores(v, &w), s.adjacency_scores(v, &w));
        let mut buf = vec![99.0];
        s.g.unary_scores_into(v, &w, &mut buf);
        assert_eq!(buf, s.g.unary_scores(v, &w));
        // Pinning evidence to a new value appends a candidate row.
        s.pin_evidence(v, sym(9));
        assert_eq!(s.g.design().rows(), 4);
        assert_eq!(s.g.unary_scores(v, &w), s.adjacency_scores(v, &w));
        // With one store there is nothing to rebuild from: invalidation
        // re-packs and hands back an equal matrix.
        let before = s.g.design().clone();
        s.g.invalidate_design();
        assert_eq!(s.g.design(), &before);
        assert_eq!(s.g.design(), &DesignMatrix::compile(&s.unary));
    }

    /// Mutations splice the matrix in place: it stays bit-for-bit equal to
    /// a reference compile of the shadow adjacency, and a graph handed over
    /// with its matrix re-packs to an equal one.
    #[test]
    fn mutations_patch_instead_of_rebuilding() {
        let mut s = Shadowed {
            g: FactorGraph::new(),
            unary: Vec::new(),
        };
        let v0 = s.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        s.add_feature(v0, 0, WeightId(0), 1.0);
        assert_eq!(s.g.design(), &DesignMatrix::compile(&s.unary));

        s.add_feature(v0, 1, WeightId(1), 2.0);
        let v1 = s.add_variable(Variable::query(vec![sym(3), sym(4), sym(5)], None));
        s.add_feature(v1, 2, WeightId(0), -1.0);
        s.pin_evidence(v0, sym(9)); // out-of-domain: appends a row
        s.pin_evidence(v1, sym(3)); // in-domain: no matrix change needed
        assert_eq!(s.g.design().rows(), 6);
        assert_eq!(s.g.design(), &DesignMatrix::compile(&s.unary));

        let mut built = FactorGraph::from_design(s.g.vars().to_vec(), s.g.design().clone());
        built.invalidate_design();
        assert_eq!(built.design(), s.g.design());
    }

    #[test]
    #[should_panic(expected = "one row per candidate")]
    fn from_design_rejects_mismatched_arity() {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let three = vec![Variable::query(vec![sym(1), sym(2), sym(3)], None)];
        FactorGraph::from_design(three, g.design().clone());
    }

    #[test]
    fn cloned_graph_scores_identically() {
        let mut g = FactorGraph::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        g.add_feature(v, 0, WeightId(0), 1.0);
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 3.0);
        let _ = g.unary_scores(v, &w); // populate the cache
        let clone = g.clone();
        assert_eq!(clone.unary_scores(v, &w), g.unary_scores(v, &w));
    }

    #[test]
    fn factor_count_tallies_unary_and_cliques() {
        let mut g = FactorGraph::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        g.add_feature(v, 0, WeightId(0), 1.0);
        g.add_feature(v, 1, WeightId(0), 1.0);
        assert_eq!(g.factor_count(), 2);
        g.add_clique(CliqueFactor {
            vars: vec![v],
            weight: WeightId(0),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Const(sym(1)),
            }],
        });
        assert_eq!(g.factor_count(), 3);
    }
}
