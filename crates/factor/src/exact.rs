//! Exact enumeration of small clique-coupled components — the engine
//! [`crate::components::infer_partitioned`] routes them to, compiled like
//! the sampler (see "Compiled clique kernel" in [`crate::gibbs`]). The
//! interpreted enumerations, per component and over a whole graph, are the
//! test-only `reference` module: the correctness oracle for the kernel,
//! the Gibbs sampler and the variant-equivalence tests.

use crate::cache::ScoreCache;
use crate::gibbs::{CliqueKernel, KernelCounts};
use crate::graph::{FactorGraph, ValueContext, VarId};
use crate::weights::Weights;
use holo_dataset::Sym;

/// Hard ceiling on the joint assignment count any enumeration here will
/// walk; [`crate::components::infer_partitioned`] routes components past
/// it (or past its configured limit, whichever is smaller) to Gibbs.
pub const MAX_EXACT_STATES: usize = 1 << 22;

/// Exact marginals of one connected component, by enumerating the joint
/// assignments of `query` (the component's query variables, ascending)
/// with every other clique member pinned at its initial candidate — for a
/// component, its evidence. Returns `(variable, marginal)` pairs aligned to
/// `query`, and what the component's clique kernel kept.
///
/// The joint score of an assignment is the unary scores of `query` in
/// order, then one kernel entry per component clique, ascending: the
/// interpreted `Clique::score` sum bit for bit. Nothing outside the
/// component is read — the working state covers `query` and the kernel's
/// constant pool — so a call is O(component + joint work), and thousands of
/// small components stay linear overall. Joint scores are max-shifted
/// before exponentiating, so strongly-weighted constraints cannot
/// underflow the partition sum to zero.
///
/// The unary scores are each variable's row-range slice of the pass's
/// [`ScoreCache`].
///
/// # Panics
/// Panics if the component's joint space exceeds [`MAX_EXACT_STATES`];
/// the partitioned router checks the space before calling.
pub(crate) fn exact_marginals_for(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &impl ValueContext,
    cache: &ScoreCache,
    query: &[VarId],
) -> (Vec<(VarId, Vec<f64>)>, KernelCounts) {
    let domains: Vec<&[Sym]> = query
        .iter()
        .map(|&v| graph.var(v).domain.as_slice())
        .collect();
    let space = domains
        .iter()
        .try_fold(1usize, |acc, d| acc.checked_mul(d.len()))
        .unwrap_or(usize::MAX);
    assert!(
        space <= MAX_EXACT_STATES,
        "component joint space too large for enumeration"
    );
    let kernel = CliqueKernel::joint(graph, weights, ctx, query);
    let unary: Vec<&[f64]> = query.iter().map(|&v| cache.var_scores(v)).collect();
    let mut state = vec![0usize; query.len()];
    let mut syms = kernel.symbols(domains.iter().map(|d| d[0]));

    // Pass 1 walks the joint space once — paying the clique evaluations,
    // the dominant cost, exactly once per assignment — and buffers every
    // score (`space` is router-bounded, so the buffer is small at the
    // default limit). Pass 2 replays the odometer over the buffer, pure
    // index arithmetic, accumulating exp(score - max); the shifted sum
    // always contains a 1.0 term, so the normaliser never underflows to
    // zero.
    let mut scores = Vec::with_capacity(space);
    for_each_assignment(&domains, &mut state, &mut syms, |state, syms| {
        let mut score = 0.0;
        for (u, &k) in unary.iter().zip(state) {
            score += u[k];
        }
        // The exact row has no candidate: one stand-in, one score.
        let one = std::slice::from_mut(&mut score);
        kernel.add_clique_terms(0, &[Sym::NULL], syms, ctx, one);
        scores.push(score);
    });
    let max_score = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut accum: Vec<Vec<f64>> = domains.iter().map(|d| vec![0.0; d.len()]).collect();
    let mut total = 0.0f64;
    let mut next = 0usize;
    for_each_assignment(&domains, &mut state, &mut syms, |state, _| {
        let p = (scores[next] - max_score).exp();
        next += 1;
        total += p;
        for (probs, &k) in accum.iter_mut().zip(state) {
            probs[k] += p;
        }
    });
    for probs in &mut accum {
        probs.iter_mut().for_each(|p| *p /= total);
    }
    (query.iter().copied().zip(accum).collect(), kernel.counts())
}

/// Odometer-enumerates every joint candidate assignment (digit `i`
/// ranging over `domains[i]`, digit 0 fastest) into `state[i]`, keeping
/// `syms[i]` at `domains[i][state[i]]` (the pool after them untouched),
/// and invokes `visit` once per assignment.
fn for_each_assignment(
    domains: &[&[Sym]],
    state: &mut [usize],
    syms: &mut [Sym],
    mut visit: impl FnMut(&[usize], &[Sym]),
) {
    for (i, domain) in domains.iter().enumerate() {
        state[i] = 0;
        syms[i] = domain[0];
    }
    loop {
        visit(state, syms);
        let mut i = 0;
        loop {
            let Some(domain) = domains.get(i) else {
                return;
            };
            state[i] += 1;
            if state[i] < domain.len() {
                syms[i] = domain[state[i]];
                break;
            }
            state[i] = 0;
            syms[i] = domain[0];
            i += 1;
        }
    }
}

/// The interpreted enumerations the compiled kernel replaced, kept as test
/// references: whole-graph [`exact_marginals`](reference::exact_marginals)
/// (the oracle of the sampler tests) and the per-component
/// [`exact_marginals_for`](reference::exact_marginals_for), which calls
/// `Clique::score` per clique per assignment.
#[cfg(test)]
pub(crate) mod reference {
    use super::MAX_EXACT_STATES;
    use crate::design::DesignMatrix;
    use crate::graph::{FactorGraph, ValueContext, VarId};
    use crate::marginals::Marginals;
    use crate::weights::Weights;
    use holo_dataset::Sym;

    /// Exact marginals by enumerating every joint assignment of the query
    /// variables (evidence pinned). Exponential — intended for graphs with
    /// a handful of variables in tests.
    ///
    /// # Panics
    /// Panics if the joint space exceeds 2^22 assignments.
    pub(crate) fn exact_marginals(
        graph: &FactorGraph,
        weights: &Weights,
        ctx: &impl ValueContext,
    ) -> Marginals {
        let query = graph.query_vars();
        let space: usize = query
            .iter()
            .map(|&v| graph.var(v).arity())
            .try_fold(1usize, |acc, a| acc.checked_mul(a))
            .expect("joint space overflow");
        assert!(
            space <= MAX_EXACT_STATES,
            "joint space too large for enumeration"
        );

        // Every (variable, candidate) unary score is read once per joint
        // assignment; precompute them all from the design matrix so the
        // enumeration loop is a pure table lookup.
        let design = graph.design();
        let row_scores = design.score_all(weights);

        // Current assignment: evidence fixed, query enumerated
        // odometer-style.
        let mut state: Vec<usize> = graph
            .vars()
            .iter()
            .map(|v| v.evidence.unwrap_or(0))
            .collect();
        let mut accum: Vec<Vec<f64>> = graph.vars().iter().map(|v| vec![0.0; v.arity()]).collect();
        let mut total = 0.0f64;

        let mut odometer = vec![0usize; query.len()];
        loop {
            for (i, &v) in query.iter().enumerate() {
                state[v.index()] = odometer[i];
            }
            let score = joint_score(graph, design, &row_scores, weights, ctx, &state);
            let p = score.exp();
            total += p;
            for &v in &query {
                accum[v.index()][state[v.index()]] += p;
            }
            // Advance odometer.
            let mut i = 0;
            loop {
                if i == odometer.len() {
                    // Finished the full enumeration.
                    let per_var = finalize(graph, accum, total);
                    return Marginals::from_raw(per_var);
                }
                odometer[i] += 1;
                if odometer[i] < graph.var(query[i]).arity() {
                    break;
                }
                odometer[i] = 0;
                i += 1;
            }
            if odometer.iter().all(|&k| k == 0) {
                // Wrapped around — also complete (handles the empty-query
                // case conservatively; the `i == len` branch above is the
                // main exit).
                let per_var = finalize(graph, accum, total);
                return Marginals::from_raw(per_var);
            }
        }
    }

    fn finalize(graph: &FactorGraph, mut accum: Vec<Vec<f64>>, total: f64) -> Vec<Vec<f64>> {
        for (i, var) in graph.vars().iter().enumerate() {
            match var.evidence {
                Some(k) => {
                    accum[i].iter_mut().for_each(|c| *c = 0.0);
                    accum[i][k] = 1.0;
                }
                None => {
                    if total > 0.0 {
                        accum[i].iter_mut().for_each(|c| *c /= total);
                    }
                }
            }
        }
        accum
    }

    /// Unnormalised joint log-score of a full assignment: precomputed
    /// unary row scores of the query variables plus clique scores.
    /// (Evidence unary scores are constant across the enumeration, so they
    /// cancel in the normalisation.)
    fn joint_score(
        graph: &FactorGraph,
        design: &DesignMatrix,
        row_scores: &[f64],
        weights: &Weights,
        ctx: &impl ValueContext,
        state: &[usize],
    ) -> f64 {
        let mut score = 0.0;
        for v in graph.var_ids() {
            if graph.var(v).is_query() {
                score += row_scores[design.row_of(v, state[v.index()])];
            }
        }
        let mut syms: Vec<Sym> = Vec::new();
        for clique in graph.cliques().iter() {
            syms.clear();
            for &u in clique.vars() {
                syms.push(graph.var(u).domain[state[u.index()]]);
            }
            score += clique.score(&syms, weights, ctx);
        }
        score
    }

    /// The interpreted [`super::exact_marginals_for`]: the same two-pass
    /// enumeration over a component-local state vector, with
    /// `Clique::score` per component clique per assignment.
    pub(crate) fn exact_marginals_for(
        graph: &FactorGraph,
        weights: &Weights,
        ctx: &impl ValueContext,
        query: &[VarId],
    ) -> Vec<(VarId, Vec<f64>)> {
        let arities: Vec<usize> = query.iter().map(|&v| graph.var(v).arity()).collect();
        let space: usize = arities
            .iter()
            .try_fold(1usize, |acc, &a| acc.checked_mul(a))
            .expect("component joint space overflow");
        assert!(
            space <= MAX_EXACT_STATES,
            "component joint space too large for enumeration"
        );
        // Cliques of the component, deduped: every clique adjacent to a
        // query member lies entirely inside the component, and cliques
        // over evidence only are constant.
        let mut cliques: Vec<u32> = query
            .iter()
            .flat_map(|&v| graph.cliques_of(v).iter().copied())
            .collect();
        cliques.sort_unstable();
        cliques.dedup();
        // Component-local variable table: the query members plus every
        // clique-referenced variable (evidence included).
        let mut locals: Vec<VarId> = query.to_vec();
        for &ci in &cliques {
            locals.extend_from_slice(graph.clique(ci).vars());
        }
        locals.sort_unstable();
        locals.dedup();
        let local_of = |v: VarId| -> usize {
            locals
                .binary_search(&v)
                .expect("clique member in component")
        };
        let query_slots: Vec<usize> = query.iter().map(|&v| local_of(v)).collect();
        let clique_slots: Vec<(u32, Vec<usize>)> = cliques
            .iter()
            .map(|&ci| {
                let slots = graph
                    .clique(ci)
                    .vars()
                    .iter()
                    .map(|&v| local_of(v))
                    .collect();
                (ci, slots)
            })
            .collect();
        let unary: Vec<Vec<f64>> = query
            .iter()
            .map(|&v| {
                let mut scores = Vec::new();
                graph.design().score_var_into(v, weights, &mut scores);
                scores
            })
            .collect();
        let mut state: Vec<usize> = locals
            .iter()
            .map(|&v| graph.var(v).evidence.unwrap_or(0))
            .collect();
        let mut syms: Vec<Sym> = Vec::new();
        let score_of = |state: &[usize], syms: &mut Vec<Sym>| -> f64 {
            let mut score = 0.0;
            for (i, &slot) in query_slots.iter().enumerate() {
                score += unary[i][state[slot]];
            }
            for (ci, slots) in &clique_slots {
                let clique = graph.clique(*ci);
                syms.clear();
                for (&u, &slot) in clique.vars().iter().zip(slots) {
                    syms.push(graph.var(u).domain[state[slot]]);
                }
                score += clique.score(syms, weights, ctx);
            }
            score
        };
        let mut scores = Vec::with_capacity(space);
        for_each_assignment(&arities, &query_slots, &mut state, |state| {
            scores.push(score_of(state, &mut syms));
        });
        let max_score = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut accum: Vec<Vec<f64>> = arities.iter().map(|&a| vec![0.0; a]).collect();
        let mut total = 0.0f64;
        let mut next = 0usize;
        for_each_assignment(&arities, &query_slots, &mut state, |state| {
            let p = (scores[next] - max_score).exp();
            next += 1;
            total += p;
            for (i, &slot) in query_slots.iter().enumerate() {
                accum[i][state[slot]] += p;
            }
        });
        for probs in &mut accum {
            probs.iter_mut().for_each(|p| *p /= total);
        }
        query.iter().copied().zip(accum).collect()
    }

    /// Odometer-enumerates every joint candidate assignment (digit `i`
    /// ranging over `0..arities[i]`) into `state[slots[i]]` (other entries
    /// untouched), invoking `visit` once per assignment.
    fn for_each_assignment(
        arities: &[usize],
        slots: &[usize],
        state: &mut [usize],
        mut visit: impl FnMut(&[usize]),
    ) {
        let mut odometer = vec![0usize; slots.len()];
        loop {
            for (i, &slot) in slots.iter().enumerate() {
                state[slot] = odometer[i];
            }
            visit(state);
            let mut i = 0;
            loop {
                if i == odometer.len() {
                    return;
                }
                odometer[i] += 1;
                if odometer[i] < arities[i] {
                    break;
                }
                odometer[i] = 0;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::exact_marginals;
    use super::*;
    use crate::graph::{
        CmpOp, EqOnlyContext, FactorOperand, FactorPredicate, GraphBuilder, Variable,
    };
    use crate::marginals::reference::exact_unary;
    use crate::weights::WeightId;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn matches_closed_form_for_independent_vars() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2), sym(3)], None));
        let mut w = Weights::zeros(2);
        w.set(WeightId(0), 1.0);
        w.set(WeightId(1), -0.5);
        g.add_feature(v, 0, WeightId(0), 1.0);
        g.add_feature(v, 2, WeightId(1), 2.0);
        let g = g.build();
        let exact = exact_marginals(&g, &w, &EqOnlyContext);
        let closed = exact_unary(&g, &w);
        for k in 0..3 {
            assert!((exact.prob(v, k) - closed.prob(v, k)).abs() < 1e-12);
        }
    }

    #[test]
    fn hard_constraint_limits_support() {
        // Two binary vars, near-hard "must differ" constraint.
        let mut g = GraphBuilder::new();
        let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let b = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 50.0);
        g.add_clique(
            &[a, b],
            WeightId(0),
            &[FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        );
        let g = g.build();
        let m = exact_marginals(&g, &w, &EqOnlyContext);
        // By symmetry each var is uniform, but the joint excludes equality:
        // marginals stay 0.5/0.5.
        assert!((m.prob(a, 0) - 0.5).abs() < 1e-9);
        assert!((m.prob(b, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evidence_point_mass() {
        let mut g = GraphBuilder::new();
        let e = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 1));
        let g = g.build();
        let m = exact_marginals(&g, &Weights::zeros(0), &EqOnlyContext);
        assert_eq!(m.probs(e), &[0.0, 1.0]);
    }

    /// A clique whose evidence-only predicate is false can never fire: its
    /// entry is folded away and counted, a true one only loses that
    /// predicate, and the marginals stay the interpreter's bit for bit.
    #[test]
    fn constant_predicates_fold_at_build() {
        let mut g = GraphBuilder::new();
        let q = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let e = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 0));
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 1.5);
        for (constant, op) in [(sym(1), CmpOp::Eq), (sym(1), CmpOp::Neq)] {
            g.add_clique(
                &[q, e],
                WeightId(0),
                &[
                    FactorPredicate {
                        lhs: FactorOperand::Var(1),
                        op,
                        rhs: FactorOperand::Const(constant),
                    },
                    FactorPredicate {
                        lhs: FactorOperand::Var(0),
                        op: CmpOp::Eq,
                        rhs: FactorOperand::Var(1),
                    },
                ],
            );
        }
        let g = g.build();
        let cache = ScoreCache::build(g.design(), &w, 1);
        let (compiled, counts) = exact_marginals_for(&g, &w, &EqOnlyContext, &cache, &[q]);
        assert_eq!((counts.entries, counts.folded), (1, 1));
        let interpreted = reference::exact_marginals_for(&g, &w, &EqOnlyContext, &[q]);
        assert_eq!(compiled, interpreted);
        assert!(compiled[0].1[0] < compiled[0].1[1], "q avoids the evidence");
    }
}
