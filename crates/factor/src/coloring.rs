//! Greedy coloring of the variable-interaction graph — the schedule
//! substrate of chromatic Gibbs sweeps.
//!
//! Two variables *interact* when they appear in a common clique scope: the
//! Gibbs conditional of one reads the current value of the other. A proper
//! coloring of that interaction graph partitions the variables into color
//! classes whose members are pairwise non-interacting, so an entire class
//! can resample in parallel against an immutable pre-class snapshot and
//! still factorise exactly like sequential single-site updates (chromatic
//! Gibbs). [`Coloring`] materialises the partition with one greedy pass in
//! ascending variable order: each variable takes the smallest color absent
//! among its already-colored interaction neighbours.
//! Clique-free variables have no neighbours and therefore all land on
//! **color 0** — the §5.2 relaxed model is single-color by construction
//! and keeps the sequential sweep path.
//!
//! The graph builds its coloring lazily, on the first chromatic inference
//! pass, and never patches it: the clique scopes are fixed once the graph
//! is built. The invariant chromatic sweeps need is *properness* — no
//! clique scope contains two variables of the same color
//! ([`Coloring::is_proper`]).

use crate::graph::{CliqueArena, FactorGraph, VarId};

/// A proper coloring of the variable-interaction graph (see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coloring {
    /// `color_of[v]` = color of variable `v`.
    color_of: Vec<u32>,
    /// Number of distinct colors in use (`max color + 1`; 0 only for the
    /// empty graph).
    num_colors: u32,
}

impl Coloring {
    /// Builds the coloring of `graph` from scratch: one greedy pass in
    /// ascending variable order over the interaction graph induced by the
    /// clique scopes.
    pub fn build(graph: &FactorGraph) -> Coloring {
        let mut color_of = vec![0u32; graph.var_count()];
        let mut num_colors = 0u32;
        let mut used: Vec<u32> = Vec::new();
        for v in graph.var_ids() {
            used.clear();
            for &ci in graph.cliques_of(v) {
                for &u in graph.clique(ci).vars() {
                    if u < v {
                        used.push(color_of[u.index()]);
                    }
                }
            }
            let c = smallest_absent(&mut used);
            color_of[v.index()] = c;
            num_colors = num_colors.max(c + 1);
        }
        Coloring {
            color_of,
            num_colors,
        }
    }

    /// The color of variable `v`.
    #[inline]
    pub fn color_of(&self, v: VarId) -> u32 {
        self.color_of[v.index()]
    }

    /// Number of distinct colors in use.
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// Number of variables covered.
    pub fn var_count(&self) -> usize {
        self.color_of.len()
    }

    /// Whether no scope in `cliques` contains two distinct variables of
    /// the same color.
    pub fn is_proper(&self, cliques: &CliqueArena) -> bool {
        cliques.iter().all(|c| {
            let mut members = c.vars().to_vec();
            members.sort_unstable();
            members.dedup();
            let mut colors: Vec<u32> = members.iter().map(|&v| self.color_of(v)).collect();
            colors.sort_unstable();
            colors.windows(2).all(|w| w[0] != w[1])
        })
    }
}

/// The smallest color not present in `used` (sorted in place).
fn smallest_absent(used: &mut Vec<u32>) -> u32 {
    used.sort_unstable();
    used.dedup();
    let mut c = 0;
    for &u in used.iter() {
        if u == c {
            c += 1;
        } else if u > c {
            break;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{
        CmpOp, FactorGraph, FactorOperand, FactorPredicate, GraphBuilder, Variable,
    };
    use crate::weights::WeightId;
    use holo_dataset::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// Adds the clique `vars[0] = vars[1]` over `vars`.
    fn add_clique(g: &mut GraphBuilder, vars: &[VarId]) {
        let equal = FactorPredicate {
            lhs: FactorOperand::Var(0),
            op: CmpOp::Eq,
            rhs: FactorOperand::Var(1),
        };
        g.add_clique(vars, WeightId(0), &[equal]);
    }

    fn chain_graph(n: usize) -> FactorGraph {
        let mut g = GraphBuilder::new();
        let vars: Vec<VarId> = (0..n)
            .map(|_| g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0))))
            .collect();
        for pair in vars.windows(2) {
            add_clique(&mut g, &[pair[0], pair[1]]);
        }
        g.build()
    }

    #[test]
    fn clique_free_graph_is_single_color() {
        let mut g = GraphBuilder::new();
        for _ in 0..5 {
            g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        }
        let g = g.build();
        let c = Coloring::build(&g);
        assert_eq!(c.num_colors(), 1);
        assert!(g.var_ids().all(|v| c.color_of(v) == 0));
    }

    #[test]
    fn empty_graph_has_zero_colors() {
        let c = Coloring::build(&GraphBuilder::new().build());
        assert_eq!(c.num_colors(), 0);
        assert_eq!(c.var_count(), 0);
    }

    #[test]
    fn chain_two_colors_and_proper() {
        let g = chain_graph(7);
        let c = Coloring::build(&g);
        assert_eq!(c.num_colors(), 2, "a path is 2-colorable greedily");
        assert!(c.is_proper(g.cliques()));
        // Greedy in id order alternates on a path.
        for v in g.var_ids() {
            assert_eq!(c.color_of(v), v.0 % 2);
        }
    }

    #[test]
    fn triangle_needs_three_colors() {
        let mut g = GraphBuilder::new();
        let vars: Vec<VarId> = (0..3)
            .map(|_| g.add_variable(Variable::query(vec![sym(1), sym(2)], None)))
            .collect();
        add_clique(&mut g, &[vars[0], vars[1]]);
        add_clique(&mut g, &[vars[1], vars[2]]);
        add_clique(&mut g, &[vars[0], vars[2]]);
        let g = g.build();
        let c = Coloring::build(&g);
        assert_eq!(c.num_colors(), 3);
        assert!(c.is_proper(g.cliques()));
    }

    #[test]
    fn wide_scope_colors_every_member_distinctly() {
        let mut g = GraphBuilder::new();
        let vars: Vec<VarId> = (0..4)
            .map(|_| g.add_variable(Variable::query(vec![sym(1), sym(2)], None)))
            .collect();
        add_clique(&mut g, &vars);
        let g = g.build();
        let c = Coloring::build(&g);
        assert_eq!(c.num_colors(), 4);
        assert!(c.is_proper(g.cliques()));
    }
}
