//! Greedy coloring of the variable-interaction graph — the schedule
//! substrate of chromatic Gibbs sweeps.
//!
//! Two variables *interact* when they appear in a common clique scope: the
//! Gibbs conditional of one reads the current value of the other. A proper
//! coloring of that interaction graph partitions the variables into color
//! classes whose members are pairwise non-interacting, so an entire class
//! can resample in parallel against an immutable pre-class snapshot and
//! still factorise exactly like sequential single-site updates (chromatic
//! Gibbs). [`Coloring`] materialises the partition:
//!
//! * **Build** — one greedy pass in ascending variable order: each variable
//!   takes the smallest color absent among its already-colored interaction
//!   neighbours. Clique-free variables have no neighbours and therefore all
//!   land on **color 0** — the §5.2 relaxed model is single-color by
//!   construction and keeps the sequential sweep path.
//! * **Patch** — graph mutators maintain the coloring in place, exactly
//!   like the design matrix and the component index:
//!   [`Coloring::push_var`] appends a clique-free variable at color 0, and
//!   a late clique runs [`Coloring::patch_clique`], which may only *raise*
//!   the colors of the spanned variables (each conflicted member moves to
//!   the smallest conflict-free color above its current one, in ascending
//!   id order). Feedback pins change no scopes and touch nothing.
//!
//! Unlike the design-matrix and component caches, a patched coloring is
//! **not** promised to equal a fresh [`Coloring::build`] structurally —
//! raise-only patching trades optimality for monotone O(scope · degree)
//! updates. The maintained invariants are the ones chromatic sweeps need:
//! the coloring stays *proper* (no clique scope contains two variables of
//! the same color) and clique-free variables stay at color 0. Both are
//! proptested; [`ColoringStats`] counts full builds vs in-place patches.

use crate::graph::{CliqueFactor, VarId};
use serde::{Deserialize, Serialize};

/// Build/patch counters of the cached [`Coloring`] — at most one full
/// build (the first chromatic inference pass) and one patch per late
/// mutation after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColoringStats {
    /// Full greedy passes over the whole graph.
    pub full_builds: u64,
    /// Late cliques absorbed by a raise-only in-place patch.
    pub cliques_patched: u64,
    /// Individual color raises those patches performed (0 when the new
    /// scope happened to be conflict-free already).
    pub colors_raised: u64,
    /// Variables appended at color 0 for late `add_variable`s.
    pub vars_appended: u64,
}

impl ColoringStats {
    /// Counter-wise difference since an earlier snapshot (for per-session
    /// accounting on a long-lived graph).
    pub fn since(&self, earlier: &ColoringStats) -> ColoringStats {
        ColoringStats {
            full_builds: self.full_builds - earlier.full_builds,
            cliques_patched: self.cliques_patched - earlier.cliques_patched,
            colors_raised: self.colors_raised - earlier.colors_raised,
            vars_appended: self.vars_appended - earlier.vars_appended,
        }
    }
}

/// A proper coloring of the variable-interaction graph (see the module
/// docs for the invariants and the patch rules).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coloring {
    /// `color_of[v]` = color of variable `v`.
    color_of: Vec<u32>,
    /// Number of distinct colors in use (`max color + 1`; 0 only for the
    /// empty graph).
    num_colors: u32,
}

impl Coloring {
    /// Builds the coloring from scratch: one greedy pass in ascending
    /// variable order over the interaction graph induced by the clique
    /// scopes (`var_cliques[v]` lists the clique indices adjacent to `v`,
    /// as maintained by the factor graph).
    pub fn build(var_count: usize, cliques: &[CliqueFactor], var_cliques: &[Vec<u32>]) -> Coloring {
        let mut color_of = vec![0u32; var_count];
        let mut num_colors = 0u32;
        let mut used: Vec<u32> = Vec::new();
        for v in 0..var_count {
            used.clear();
            for &ci in &var_cliques[v] {
                for &u in &cliques[ci as usize].vars {
                    if u.index() < v {
                        used.push(color_of[u.index()]);
                    }
                }
            }
            let c = smallest_absent(&mut used, 0);
            color_of[v] = c;
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

    /// Appends a just-added (necessarily clique-free) variable at color 0.
    /// The variable must carry the next id, mirroring
    /// [`crate::components::ComponentIndex::add_singleton`].
    pub fn push_var(&mut self, v: VarId) {
        assert_eq!(v.index(), self.color_of.len(), "variables append in order");
        self.color_of.push(0);
        self.num_colors = self.num_colors.max(1);
    }

    /// Absorbs a late clique in place with raise-only repairs: the spanned
    /// variables are visited in ascending id order, and any member whose
    /// color now collides with an interaction neighbour moves to the
    /// smallest conflict-free color *above* its current one. Conflicts
    /// with **later** scope members are deferred to the later member's own
    /// turn (mirroring the greedy build, where smaller ids pick first), so
    /// the smallest spanned id keeps its color whenever possible. Colors
    /// never decrease, untouched variables keep their color, and the
    /// coloring stays proper. Returns how many members were raised.
    ///
    /// `cliques` and `var_cliques` must already include the new clique
    /// (the graph wires adjacency before patching its caches).
    pub fn patch_clique(
        &mut self,
        scope: &[VarId],
        cliques: &[CliqueFactor],
        var_cliques: &[Vec<u32>],
    ) -> u64 {
        let mut members: Vec<VarId> = scope.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut raised = 0u64;
        let mut used: Vec<u32> = Vec::new();
        for &v in &members {
            used.clear();
            for &ci in &var_cliques[v.index()] {
                for &u in &cliques[ci as usize].vars {
                    // Skip v itself and scope members not yet visited:
                    // when the later member's turn comes, v is final and
                    // the later member resolves any collision itself.
                    if u != v && !(u > v && members.binary_search(&u).is_ok()) {
                        used.push(self.color_of[u.index()]);
                    }
                }
            }
            let current = self.color_of[v.index()];
            if !used.contains(&current) {
                continue;
            }
            let c = smallest_absent(&mut used, current + 1);
            self.color_of[v.index()] = c;
            self.num_colors = self.num_colors.max(c + 1);
            raised += 1;
        }
        raised
    }
}

/// The smallest color `>= floor` not present in `used` (sorted in place).
fn smallest_absent(used: &mut Vec<u32>, floor: u32) -> u32 {
    used.sort_unstable();
    used.dedup();
    let mut c = floor;
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
        CliqueFactor, CmpOp, FactorGraph, FactorOperand, FactorPredicate, Variable,
    };
    use crate::weights::WeightId;
    use holo_dataset::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    fn clique(vars: Vec<VarId>) -> CliqueFactor {
        CliqueFactor {
            vars,
            weight: WeightId(0),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        }
    }

    /// Whether no clique scope contains two variables of the same color —
    /// the invariant chromatic sweeps rely on.
    fn proper(coloring: &Coloring, cliques: &[CliqueFactor]) -> bool {
        cliques.iter().all(|c| {
            let mut colors: Vec<u32> = c.vars.iter().map(|&v| coloring.color_of(v)).collect();
            colors.sort_unstable();
            let n = colors.len();
            colors.dedup();
            colors.len() == n
        })
    }

    fn chain_graph(n: usize) -> FactorGraph {
        let mut g = FactorGraph::new();
        let vars: Vec<VarId> = (0..n)
            .map(|_| g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0))))
            .collect();
        for pair in vars.windows(2) {
            g.add_clique(clique(vec![pair[0], pair[1]]));
        }
        g
    }

    #[test]
    fn clique_free_graph_is_single_color() {
        let mut g = FactorGraph::new();
        for _ in 0..5 {
            g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        }
        let c = Coloring::build(g.var_count(), g.cliques(), g.var_cliques_raw());
        assert_eq!(c.num_colors(), 1);
        assert!(g.var_ids().all(|v| c.color_of(v) == 0));
    }

    #[test]
    fn empty_graph_has_zero_colors() {
        let c = Coloring::build(0, &[], &[]);
        assert_eq!(c.num_colors(), 0);
        assert_eq!(c.var_count(), 0);
    }

    #[test]
    fn chain_two_colors_and_proper() {
        let g = chain_graph(7);
        let c = Coloring::build(g.var_count(), g.cliques(), g.var_cliques_raw());
        assert_eq!(c.num_colors(), 2, "a path is 2-colorable greedily");
        assert!(proper(&c, g.cliques()));
        // Greedy in id order alternates on a path.
        for v in g.var_ids() {
            assert_eq!(c.color_of(v), v.0 % 2);
        }
    }

    #[test]
    fn triangle_needs_three_colors() {
        let mut g = FactorGraph::new();
        let vars: Vec<VarId> = (0..3)
            .map(|_| g.add_variable(Variable::query(vec![sym(1), sym(2)], None)))
            .collect();
        g.add_clique(clique(vec![vars[0], vars[1]]));
        g.add_clique(clique(vec![vars[1], vars[2]]));
        g.add_clique(clique(vec![vars[0], vars[2]]));
        let c = Coloring::build(g.var_count(), g.cliques(), g.var_cliques_raw());
        assert_eq!(c.num_colors(), 3);
        assert!(proper(&c, g.cliques()));
    }

    #[test]
    fn wide_scope_colors_every_member_distinctly() {
        let mut g = FactorGraph::new();
        let vars: Vec<VarId> = (0..4)
            .map(|_| g.add_variable(Variable::query(vec![sym(1), sym(2)], None)))
            .collect();
        g.add_clique(clique(vars.clone()));
        let c = Coloring::build(g.var_count(), g.cliques(), g.var_cliques_raw());
        assert_eq!(c.num_colors(), 4);
        assert!(proper(&c, g.cliques()));
    }

    #[test]
    fn push_var_appends_color_zero() {
        let mut c = Coloring::build(0, &[], &[]);
        c.push_var(VarId(0));
        c.push_var(VarId(1));
        assert_eq!(c.num_colors(), 1);
        assert_eq!(c.color_of(VarId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "append in order")]
    fn push_var_out_of_order_panics() {
        let mut c = Coloring::build(0, &[], &[]);
        c.push_var(VarId(3));
    }

    #[test]
    fn patch_raises_only_conflicted_members() {
        // Build on a clique-free graph (all color 0), then add one edge:
        // exactly one endpoint must raise.
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let b = g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let mut c = Coloring::build(g.var_count(), g.cliques(), g.var_cliques_raw());
        g.add_clique(clique(vec![a, b]));
        let raised = c.patch_clique(&[a, b], g.cliques(), g.var_cliques_raw());
        assert_eq!(raised, 1);
        assert_eq!(c.color_of(a), 0, "ascending order keeps the smaller id");
        assert_eq!(c.color_of(b), 1);
        assert!(proper(&c, g.cliques()));
    }

    #[test]
    fn patch_keeps_conflict_free_scopes_untouched() {
        let mut g = chain_graph(4);
        let mut c = Coloring::build(g.var_count(), g.cliques(), g.var_cliques_raw());
        let before = c.clone();
        // 0 and 2 already differ... no: both are color 0 on a path, so use
        // 0 and 1 (colors 0 and 1) — a clique over them conflicts nowhere.
        g.add_clique(clique(vec![VarId(0), VarId(1)]));
        let raised = c.patch_clique(&[VarId(0), VarId(1)], g.cliques(), g.var_cliques_raw());
        assert_eq!(raised, 0);
        assert_eq!(c, before);
    }

    #[test]
    fn patch_never_lowers_and_stays_proper() {
        let mut g = chain_graph(6);
        let mut c = Coloring::build(g.var_count(), g.cliques(), g.var_cliques_raw());
        let before: Vec<u32> = g.var_ids().map(|v| c.color_of(v)).collect();
        // Close the path into an odd structure: 0-2 (same color 0) and a
        // 3-wide scope.
        g.add_clique(clique(vec![VarId(0), VarId(2)]));
        c.patch_clique(&[VarId(0), VarId(2)], g.cliques(), g.var_cliques_raw());
        g.add_clique(clique(vec![VarId(1), VarId(3), VarId(5)]));
        c.patch_clique(
            &[VarId(1), VarId(3), VarId(5)],
            g.cliques(),
            g.var_cliques_raw(),
        );
        assert!(proper(&c, g.cliques()));
        for (v, &old) in g.var_ids().zip(before.iter()) {
            assert!(c.color_of(v) >= old, "patching never lowers a color");
        }
    }

    #[test]
    fn coloring_stats_since_subtracts() {
        let a = ColoringStats {
            full_builds: 1,
            cliques_patched: 2,
            colors_raised: 1,
            vars_appended: 3,
        };
        let b = ColoringStats {
            full_builds: 1,
            cliques_patched: 5,
            colors_raised: 4,
            vars_appended: 7,
        };
        let d = b.since(&a);
        assert_eq!(d.full_builds, 0);
        assert_eq!(d.cliques_patched, 3);
        assert_eq!(d.colors_raised, 3);
        assert_eq!(d.vars_appended, 4);
    }
}
