//! The factor graph.
//!
//! Variables are categorical with per-variable candidate domains (the
//! output of HoloClean's Algorithm 2 pruning). Unary factors carry sparse
//! feature vectors per candidate and reference tied weights; clique factors
//! encode grounded denial constraints from Algorithm 1 — a conjunction of
//! predicates over the candidate values of up to a handful of variables
//! plus constants frozen from clean cells.

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
    /// [`Clique::vars`]).
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

/// Bit of [`StoredPredicate::slots`]: the left operand is a scope slot.
const LHS_SLOT: u8 = 1;
/// Bit of [`StoredPredicate::slots`]: the right operand is a scope slot.
const RHS_SLOT: u8 = 2;

/// A [`FactorPredicate`] as the clique arena stores it, in 12 bytes: each
/// operand a slot or a symbol id by its bit in `slots`, the operator an
/// index into the arena's operator table (an `f64` similarity threshold
/// would double the size of every predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredPredicate {
    lhs: u32,
    rhs: u32,
    op: u8,
    slots: u8,
}

/// Whether `a` and `b` are one operator, thresholds compared by bits (a
/// NaN threshold is then one operator, not a new one per predicate).
fn same_op(a: CmpOp, b: CmpOp) -> bool {
    match (a, b) {
        (CmpOp::Sim(x), CmpOp::Sim(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// The grounded denial-constraint factors (Algorithm 1) of a graph, in one
/// flat arena: clique `i`'s scope variables, predicates and weight sit at
/// its offsets in three shared arrays, so a clique costs its entries and
/// no allocation of its own. A clique's head `!(Value?(…) ∧ …)` fires
/// (contributes `-θ`) whenever *all* its predicates hold under the current
/// assignment; [`CliqueArena::get`] reads it as a borrowed [`Clique`].
#[derive(Debug, Clone, Default)]
pub struct CliqueArena {
    /// `scope_ends[i]` = end of clique `i`'s variables in `scopes` (it
    /// starts where clique `i − 1` ends).
    scope_ends: Vec<u32>,
    scopes: Vec<VarId>,
    /// `pred_ends[i]` = end of clique `i`'s predicates in `preds`.
    pred_ends: Vec<u32>,
    preds: Vec<StoredPredicate>,
    weights: Vec<WeightId>,
    /// The distinct operators the predicates use.
    ops: Vec<CmpOp>,
}

/// Offset `len` as a `u32`: the arena indexes its entries with 32 bits.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("clique arena holds at most u32::MAX entries per array")
}

impl CliqueArena {
    /// An arena with no clique.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cliques.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the arena holds no clique.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Appends the clique over `vars` with weight `weight` whose head
    /// fires when every one of `predicates` holds ([`FactorGraph::new`]
    /// checks the scope and the slots).
    ///
    /// # Panics
    /// Panics past 256 distinct operators or `u32::MAX` entries.
    pub fn push(&mut self, vars: &[VarId], weight: WeightId, predicates: &[FactorPredicate]) {
        self.scopes.extend_from_slice(vars);
        self.scope_ends.push(offset(self.scopes.len()));
        for p in predicates {
            let op = self.intern_op(p.op);
            let (lhs, lhs_slot) = Self::encode(p.lhs, LHS_SLOT);
            let (rhs, rhs_slot) = Self::encode(p.rhs, RHS_SLOT);
            self.preds.push(StoredPredicate {
                lhs,
                rhs,
                op,
                slots: lhs_slot | rhs_slot,
            });
        }
        self.pred_ends.push(offset(self.preds.len()));
        self.weights.push(weight);
    }

    /// The operand's stored value, and `slot_bit` if it is a slot.
    fn encode(operand: FactorOperand, slot_bit: u8) -> (u32, u8) {
        match operand {
            FactorOperand::Var(slot) => (u32::from(slot), slot_bit),
            FactorOperand::Const(sym) => (sym.0, 0),
        }
    }

    fn intern_op(&mut self, op: CmpOp) -> u8 {
        let at = match self.ops.iter().position(|&known| same_op(known, op)) {
            Some(at) => at,
            None => {
                self.ops.push(op);
                self.ops.len() - 1
            }
        };
        u8::try_from(at).expect("a clique arena holds at most 256 distinct operators")
    }

    /// Appends every clique of `other`, in order.
    pub fn append(&mut self, other: &CliqueArena) {
        offset(self.scopes.len() + other.scopes.len());
        offset(self.preds.len() + other.preds.len());
        let remap: Vec<u8> = other.ops.iter().map(|&op| self.intern_op(op)).collect();
        let (scopes, preds) = (offset(self.scopes.len()), offset(self.preds.len()));
        self.scopes.extend_from_slice(&other.scopes);
        self.scope_ends
            .extend(other.scope_ends.iter().map(|&end| scopes + end));
        let remapped = other.preds.iter().map(|&p| StoredPredicate {
            op: remap[usize::from(p.op)],
            ..p
        });
        self.preds.extend(remapped);
        self.pred_ends
            .extend(other.pred_ends.iter().map(|&end| preds + end));
        self.weights.extend_from_slice(&other.weights);
    }

    /// Keeps the first `len` cliques (all of them when there are fewer).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let ends = |ends: &[u32]| len.checked_sub(1).map_or(0, |last| ends[last] as usize);
        self.scopes.truncate(ends(&self.scope_ends));
        self.preds.truncate(ends(&self.pred_ends));
        self.scope_ends.truncate(len);
        self.pred_ends.truncate(len);
        self.weights.truncate(len);
    }

    /// Releases the arrays' spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.scope_ends.shrink_to_fit();
        self.scopes.shrink_to_fit();
        self.pred_ends.shrink_to_fit();
        self.preds.shrink_to_fit();
        self.weights.shrink_to_fit();
        self.ops.shrink_to_fit();
    }

    /// Heap bytes the arena holds (capacity, not length).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.scope_ends.capacity() + self.pred_ends.capacity()) * size_of::<u32>()
            + self.scopes.capacity() * size_of::<VarId>()
            + self.preds.capacity() * size_of::<StoredPredicate>()
            + self.weights.capacity() * size_of::<WeightId>()
            + self.ops.capacity() * size_of::<CmpOp>()
    }

    /// Clique `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Clique<'_> {
        let start = |ends: &[u32]| i.checked_sub(1).map_or(0, |prev| ends[prev] as usize);
        let scope = start(&self.scope_ends)..self.scope_ends[i] as usize;
        let preds = start(&self.pred_ends)..self.pred_ends[i] as usize;
        Clique {
            vars: &self.scopes[scope],
            preds: &self.preds[preds],
            ops: &self.ops,
            weight: self.weights[i],
        }
    }

    /// Every clique, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Clique<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// One clique of a [`CliqueArena`], borrowed.
#[derive(Clone, Copy)]
pub struct Clique<'a> {
    vars: &'a [VarId],
    preds: &'a [StoredPredicate],
    ops: &'a [CmpOp],
    weight: WeightId,
}

impl<'a> Clique<'a> {
    /// The query variables this factor connects (≥ 1): its scope, which
    /// the predicates' [`FactorOperand::Var`] slots index.
    #[inline]
    pub fn vars(&self) -> &'a [VarId] {
        self.vars
    }

    /// The tied weight `θ_φ`.
    #[inline]
    pub fn weight(&self) -> WeightId {
        self.weight
    }

    /// The conjunction of predicates over slots and constants, in order.
    pub fn predicates(&self) -> impl ExactSizeIterator<Item = FactorPredicate> + 'a {
        let ops = self.ops;
        let decode = |value: u32, slot: bool| match slot {
            true => FactorOperand::Var(value as u8),
            false => FactorOperand::Const(Sym(value)),
        };
        self.preds.iter().map(move |p| FactorPredicate {
            lhs: decode(p.lhs, p.slots & LHS_SLOT != 0),
            op: ops[usize::from(p.op)],
            rhs: decode(p.rhs, p.slots & RHS_SLOT != 0),
        })
    }

    /// Whether the denial constraint is violated by the given candidate
    /// symbols (one per clique var, in `vars` order).
    pub fn violated(&self, assignment: &[Sym], ctx: &impl ValueContext) -> bool {
        self.predicates().all(|p| p.eval(assignment, ctx))
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

impl PartialEq for Clique<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.vars == other.vars
            && self.weight == other.weight
            && self.predicates().eq(other.predicates())
    }
}

impl std::fmt::Debug for Clique<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clique")
            .field("vars", &self.vars)
            .field("weight", &self.weight)
            .field("predicates", &self.predicates().collect::<Vec<_>>())
            .finish()
    }
}

/// Sparse unary features of one `(variable, candidate)` pair.
pub type FeatureVec = Vec<(WeightId, f64)>;

/// The grounded factor graph: constructed once, then read.
///
/// **Construction.** [`FactorGraph::new`] takes the variables, their CSR
/// [`DesignMatrix`] — the one home of the unary features, which every
/// consumer reads ([`FactorGraph::unary_score`], the Gibbs conditional,
/// exact enumeration, SGD) — and the grounded cliques' [`CliqueArena`],
/// all complete. The compiler featurizes straight into the matrix (see
/// [`crate::design`]) and grounds its cliques into the arena before it
/// calls `new`; hand-built graphs collect the same three parts in a
/// [`GraphBuilder`].
///
/// **Use.** The component index is derived from the clique structure on
/// first access and cached; no method changes a variable, a feature or a
/// clique of a built graph.
#[derive(Debug, Clone)]
pub struct FactorGraph {
    vars: Vec<Variable>,
    /// The unary features of every `(variable, candidate)` pair.
    design: DesignMatrix,
    cliques: CliqueArena,
    /// The cliques touching variable `v` are
    /// `var_cliques[var_clique_starts[v]..var_clique_starts[v + 1]]`, in
    /// clique order (CSR).
    var_clique_starts: Vec<u32>,
    var_cliques: Vec<u32>,
    /// Connected components of the clique structure, built on first use by
    /// partitioned inference (see [`ComponentIndex`]).
    components: OnceLock<ComponentIndex>,
}

impl FactorGraph {
    /// The graph over `vars` whose unary features are `design` and whose
    /// clique factors are `cliques`, wiring each variable's clique list.
    ///
    /// # Panics
    /// Panics unless `design` has exactly one row range per variable, of
    /// that variable's arity, and every clique names between 1 and 255
    /// distinct variables, all of them in `vars`, and reads no slot past
    /// its scope. The message names the clique.
    pub fn new(vars: Vec<Variable>, design: DesignMatrix, cliques: CliqueArena) -> Self {
        assert_eq!(design.var_count(), vars.len(), "one row range per variable");
        for (i, var) in vars.iter().enumerate() {
            let rows = design.var_range(VarId(i as u32)).len();
            assert_eq!(rows, var.arity(), "one row per candidate");
        }
        let mut var_clique_starts = vec![0u32; vars.len() + 1];
        for (idx, clique) in cliques.iter().enumerate() {
            let scope = clique.vars();
            let arity = scope.len();
            assert!(
                (1..=u8::MAX as usize).contains(&arity),
                "clique {idx} has {arity} variables, not 1 to 255"
            );
            for (at, &v) in scope.iter().enumerate() {
                assert!(
                    v.index() < vars.len(),
                    "clique {idx} names variable {} of a graph with {}",
                    v.0,
                    vars.len()
                );
                assert!(
                    !scope[..at].contains(&v),
                    "clique {idx} names variable {} twice",
                    v.0
                );
                var_clique_starts[v.index() + 1] += 1;
            }
            for p in clique.predicates() {
                for operand in [p.lhs, p.rhs] {
                    if let FactorOperand::Var(slot) = operand {
                        assert!(
                            usize::from(slot) < arity,
                            "clique {idx} reads slot {slot} of a scope of {arity}"
                        );
                    }
                }
            }
        }
        for v in 0..vars.len() {
            var_clique_starts[v + 1] += var_clique_starts[v];
        }
        let mut var_cliques = vec![0u32; var_clique_starts[vars.len()] as usize];
        let mut next = var_clique_starts.clone();
        for (idx, clique) in cliques.iter().enumerate() {
            for &v in clique.vars() {
                var_cliques[next[v.index()] as usize] = idx as u32;
                next[v.index()] += 1;
            }
        }
        FactorGraph {
            vars,
            design,
            cliques,
            var_clique_starts,
            var_cliques,
            components: OnceLock::new(),
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
    pub fn cliques(&self) -> &CliqueArena {
        &self.cliques
    }

    /// Clique `ci` (an index [`FactorGraph::cliques_of`] lists).
    #[inline]
    pub fn clique(&self, ci: u32) -> Clique<'_> {
        self.cliques.get(ci as usize)
    }

    /// Clique indices adjacent to `v`, ascending.
    pub fn cliques_of(&self, v: VarId) -> &[u32] {
        let (start, end) = (
            self.var_clique_starts[v.index()],
            self.var_clique_starts[v.index() + 1],
        );
        &self.var_cliques[start as usize..end as usize]
    }

    /// Heap bytes of the clique arena ([`CliqueArena::bytes`]).
    pub fn clique_bytes(&self) -> usize {
        self.cliques.bytes()
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
    cliques: CliqueArena,
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

    /// Appends a clique factor over `vars` ([`CliqueArena::push`]).
    pub fn add_clique(&mut self, vars: &[VarId], weight: WeightId, predicates: &[FactorPredicate]) {
        self.cliques.push(vars, weight, predicates);
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

    /// An arena holding the one clique `vars` / `predicates` at weight 0.
    fn one_clique(vars: &[VarId], predicates: &[FactorPredicate]) -> CliqueArena {
        let mut arena = CliqueArena::new();
        arena.push(vars, WeightId(0), predicates);
        arena
    }

    #[test]
    fn clique_violation_semantics() {
        // DC: ¬(x = y). Two variables, predicate Var(0) = Var(1).
        let arena = one_clique(
            &[VarId(0), VarId(1)],
            &[FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        );
        let clique = arena.get(0);
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
        let arena = one_clique(
            &[VarId(0)],
            &[
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
        );
        let clique = arena.get(0);
        let ctx = EqOnlyContext;
        assert!(clique.violated(&[c], &ctx));
        assert!(!clique.violated(&[d], &ctx));
    }

    /// The arena reads back what was pushed — scopes, weights, predicates
    /// with every operator, a similarity threshold among them — through
    /// `append` and `truncate`, and stores a predicate in 12 bytes with no
    /// allocation per clique.
    #[test]
    fn arena_round_trips_cliques() {
        let ops = [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Gt,
            CmpOp::Leq,
            CmpOp::Geq,
            CmpOp::Sim(0.25),
            CmpOp::Sim(0.5),
        ];
        let pred = |i: usize| FactorPredicate {
            lhs: FactorOperand::Var((i % 3) as u8),
            op: ops[i % ops.len()],
            rhs: match i % 2 {
                0 => FactorOperand::Const(sym(i as u32 * 7)),
                _ => FactorOperand::Var(0),
            },
        };
        let cliques: Vec<(Vec<VarId>, WeightId, Vec<FactorPredicate>)> = (0..9)
            .map(|i| {
                let vars = (0..3).map(|k| VarId(i * 3 + k)).collect();
                let preds = (0..i as usize % 4).map(|k| pred(i as usize + k)).collect();
                (vars, WeightId(i % 2), preds)
            })
            .collect();
        let (mut head, mut tail) = (CliqueArena::new(), CliqueArena::new());
        // The tail interns its operators in another order than the head.
        for (i, (vars, weight, preds)) in cliques.iter().enumerate() {
            let arena = if i < 4 { &mut head } else { &mut tail };
            arena.push(vars, *weight, preds);
        }
        head.append(&tail);
        assert_eq!(head.len(), cliques.len());
        for (clique, (vars, weight, preds)) in head.iter().zip(&cliques) {
            assert_eq!(clique.vars(), &vars[..]);
            assert_eq!(clique.weight(), *weight);
            assert_eq!(clique.predicates().collect::<Vec<_>>(), *preds);
        }
        head.truncate(5);
        assert_eq!(head.len(), 5);
        assert_eq!(head.get(4), tail.get(0));
        assert_eq!(std::mem::size_of::<StoredPredicate>(), 12);
        head.shrink_to_fit();
        let entries: usize = head.iter().map(|c| c.vars().len()).sum();
        let preds: usize = head.iter().map(|c| c.predicates().len()).sum();
        assert!(head.bytes() <= 4 * entries + 12 * preds + 12 * head.len() + 8 * 32);
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
        let equal = FactorPredicate {
            lhs: FactorOperand::Var(0),
            op: CmpOp::Eq,
            rhs: FactorOperand::Var(1),
        };
        g.add_clique(&[v0, v1], WeightId(0), &[equal]);
        g.add_clique(&[v1], WeightId(0), &[]);
        let g = g.build();
        assert_eq!(g.cliques_of(v0), &[0]);
        assert_eq!(g.cliques_of(v1), &[0, 1]);
        assert!(g.cliques_of(v2).is_empty());
        assert_eq!(g.clique(1).vars(), &[v1]);
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
        FactorGraph::new(three, design, CliqueArena::new());
    }

    /// Two query variables over `{1, 2}` and the cliques `scopes`, each
    /// reading `Var(0) = Var(slot)`.
    fn build_with(scopes: &[(&[VarId], u8)]) -> FactorGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..2 {
            b.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        }
        for &(vars, slot) in scopes {
            let read = FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(slot),
            };
            b.add_clique(vars, WeightId(0), &[read]);
        }
        b.build()
    }

    #[test]
    #[should_panic(expected = "clique 1 names variable 2 of a graph with 2")]
    fn new_rejects_a_clique_over_a_missing_variable() {
        build_with(&[(&[VarId(0)], 0), (&[VarId(0), VarId(2)], 1)]);
    }

    #[test]
    #[should_panic(expected = "clique 1 reads slot 2 of a scope of 2")]
    fn new_rejects_a_slot_past_the_scope() {
        build_with(&[(&[VarId(0), VarId(1)], 1), (&[VarId(1), VarId(0)], 2)]);
    }

    #[test]
    #[should_panic(expected = "clique 2 names variable 1 twice")]
    fn new_rejects_a_variable_named_twice_in_one_scope() {
        build_with(&[
            (&[VarId(0)], 0),
            (&[VarId(0), VarId(1)], 1),
            (&[VarId(1), VarId(0), VarId(1)], 2),
        ]);
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
        let pinned = FactorPredicate {
            lhs: FactorOperand::Var(0),
            op: CmpOp::Eq,
            rhs: FactorOperand::Const(sym(1)),
        };
        g.add_clique(&[v], WeightId(0), &[pinned]);
        assert_eq!(g.build().factor_count(), 3);
    }
}
