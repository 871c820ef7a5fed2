//! Connected-component decomposition of the grounded factor graph, and the
//! partitioned hybrid inference engine built on it.
//!
//! Variables interact only through shared clique factors, so the grounded
//! graph splits into independent connected components that can be inferred
//! in isolation — the subproblem decomposition that lets PClean-style
//! systems scale Bayesian cleaning. [`ComponentIndex`] materialises that
//! partition (union-find over clique scopes, finalized into per-component
//! sorted member lists plus a variable→component map) and
//! [`infer_partitioned`] exploits it:
//!
//! * **closed form** — components whose query variables touch no clique
//!   are independent; each variable's marginal is the softmax of its
//!   design-matrix row range (the common case after pruning, and the whole
//!   graph in the §5.2 relaxed model);
//! * **exact** — clique-coupled components whose joint query state space
//!   is at most [`PartitionedConfig::exact_limit`] are enumerated exactly
//!   (see [`crate::exact`]): exact marginals, no sampling noise;
//! * **Gibbs** — larger components run one sequential Gibbs chain
//!   restricted to the component, seeded from `(seed, component_rank)`.
//!
//! All three read their unary scores from one [`ScoreCache`], built at the
//! top of the pass (see [`crate::cache`]).
//!
//! Components share no state, so they run concurrently via
//! [`holo_parallel::parallel_jobs_weighted`]; per-component seeds depend only on
//! the component's rank in the canonical index order and the merge writes
//! each variable's marginal exactly once — so the result is **bit-for-bit
//! identical at every thread count**.
//!
//! The graph builds the index lazily, on the first inference pass, and
//! never patches it: the clique scopes are fixed once the graph is built.

use crate::cache::{ScoreCache, ScoreCacheStats};
use crate::exact::{exact_marginals_for, MAX_EXACT_STATES};
use crate::gibbs::{GibbsConfig, GibbsSampler, KernelCounts};
use crate::graph::{CliqueArena, FactorGraph, ValueContext, VarId};
use crate::marginals::Marginals;
use crate::math::softmax;
use crate::weights::Weights;
use serde::{Deserialize, Serialize};

/// How one partitioned inference pass decomposed and routed the graph —
/// the component count, the size shape, and the exact vs sampled split.
/// Snapshot semantics: each inference pass produces a fresh one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionStats {
    /// Connected components containing at least one query variable.
    pub components: u64,
    /// Components with exactly one query variable.
    pub singleton_components: u64,
    /// Query variables in the largest component.
    pub largest_component: u64,
    /// Component-size histogram over query-variable counts: buckets are
    /// `1`, `2..=3`, `4..=15`, `16+`.
    pub size_hist: [u64; 4],
    /// Components solved in closed form (no adjacent cliques).
    pub closed_form_components: u64,
    /// Query variables solved in closed form.
    pub closed_form_vars: u64,
    /// Clique-coupled components solved by exact enumeration.
    pub exact_components: u64,
    /// Query variables solved by exact enumeration.
    pub exact_vars: u64,
    /// Components sampled with a per-component Gibbs chain.
    pub gibbs_components: u64,
    /// Query variables sampled with Gibbs.
    pub gibbs_vars: u64,
    /// Clique-kernel entries compiled after folding, over every exact and
    /// Gibbs unit (see "Compiled clique kernel" in [`crate::gibbs`]).
    pub clique_entries: u64,
    /// Of [`PartitionStats::clique_entries`], those in fixed-width rows
    /// (16 bytes, branch-free; see "Compiled clique kernel").
    pub clique_entries_compact: u64,
    /// Kernel entries folded away at build: a predicate over constants
    /// only was false, so the clique could never fire.
    pub clique_entries_folded: u64,
    /// What the frozen-weight score cache did this pass.
    pub score_cache: ScoreCacheStats,
}

/// The connected components of a factor graph under the relation "appears
/// in a common clique scope". Canonical form: every member list is sorted
/// ascending, and components are ordered by their smallest member — so
/// two indexes over the same graph are structurally equal.
///
/// Scopes are unioned over **all** clique members, evidence included:
/// conditioning on evidence could split components further, but routing
/// only counts *query* variables (see [`infer_partitioned`]), so the
/// conservatism costs nothing in the common case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentIndex {
    /// `comp_of[v]` = component id of variable `v`.
    comp_of: Vec<u32>,
    /// `members[c]` = sorted variable ids of component `c`.
    members: Vec<Vec<VarId>>,
}

impl ComponentIndex {
    /// Builds the index from scratch: union-find over the clique scopes,
    /// finalized into the canonical form.
    pub fn build(var_count: usize, cliques: &CliqueArena) -> ComponentIndex {
        // Union-find with the invariant "root = smallest member", which
        // makes the finalize pass canonical for free.
        let mut parent: Vec<u32> = (0..var_count as u32).collect();
        fn find(parent: &mut [u32], mut v: u32) -> u32 {
            while parent[v as usize] != v {
                parent[v as usize] = parent[parent[v as usize] as usize];
                v = parent[v as usize];
            }
            v
        }
        for clique in cliques.iter() {
            let mut vars = clique.vars().iter();
            let Some(&first) = vars.next() else { continue };
            let mut root = find(&mut parent, first.0);
            for &v in vars {
                let r = find(&mut parent, v.0);
                if r == root {
                    continue;
                }
                if r < root {
                    parent[root as usize] = r;
                    root = r;
                } else {
                    parent[r as usize] = root;
                }
            }
        }
        // Finalize: component ids in order of first-encountered member
        // (the set's minimum, since roots are minima and variables scan in
        // ascending order).
        let mut comp_of = vec![0u32; var_count];
        let mut id_of_root = vec![u32::MAX; var_count];
        let mut members: Vec<Vec<VarId>> = Vec::new();
        for v in 0..var_count as u32 {
            let root = find(&mut parent, v) as usize;
            let id = if id_of_root[root] == u32::MAX {
                let id = members.len() as u32;
                id_of_root[root] = id;
                members.push(Vec::new());
                id
            } else {
                id_of_root[root]
            };
            comp_of[v as usize] = id;
            members[id as usize].push(VarId(v));
        }
        ComponentIndex { comp_of, members }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the graph has no variables.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of variables covered.
    pub fn var_count(&self) -> usize {
        self.comp_of.len()
    }

    /// The component id of variable `v`.
    pub fn comp_of(&self, v: VarId) -> u32 {
        self.comp_of[v.index()]
    }

    /// The sorted members of component `c`.
    pub fn members(&self, c: u32) -> &[VarId] {
        &self.members[c as usize]
    }

    /// Iterates component member lists in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &[VarId]> {
        self.members.iter().map(Vec::as_slice)
    }
}

/// Configuration of [`infer_partitioned`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PartitionedConfig {
    /// Sampler budget for Gibbs-routed components. `gibbs.seed` is the
    /// master seed every per-component seed derives from.
    pub gibbs: GibbsConfig,
    /// Joint-query-state ceiling under which a clique-coupled component is
    /// enumerated exactly instead of sampled; `0` disables enumeration
    /// entirely (every coupled component samples). Clique-free components
    /// always go through the closed form regardless — that path is exact
    /// and cheaper than both.
    pub exact_limit: u64,
    /// Unread: Gibbs always sweeps sequentially. Kept only because the
    /// benchmark's staged driver (`benchmark/src/staged.rs`) sets it, until
    /// ROADMAP item 14 drops that write.
    pub chromatic: bool,
    /// Unread: inference always scores through the [`ScoreCache`]. Kept
    /// only because the benchmark's staged driver sets it, until ROADMAP
    /// item 14 drops that write.
    pub score_cache: bool,
}

/// One schedulable work unit of a partitioned inference pass, referencing
/// its component by rank.
enum Unit {
    /// Independent variables: per-variable softmax over design rows.
    Closed(usize),
    /// Exact enumeration of the component's joint query space.
    Exact(usize),
    /// Per-component Gibbs.
    Gibbs(usize),
}

/// Partitioned hybrid inference: decomposes the graph via its cached
/// [`ComponentIndex`], routes every query-bearing component to closed
/// form / exact enumeration / Gibbs (see the module docs), runs components
/// concurrently over up to `threads` OS threads, and merges per-component
/// marginals back in variable order.
///
/// Determinism: the component order is canonical, component `rank` seeds
/// its sampler from `(gibbs.seed, rank)` (rank 0 keeps `gibbs.seed`, so a
/// graph that is one single component reproduces the whole-graph
/// [`GibbsSampler::run`] bit-for-bit), and each variable's marginal is
/// produced by exactly one component — so any thread count yields the
/// `threads = 1` result bit-for-bit. Evidence variables get a point mass.
pub fn infer_partitioned<C: ValueContext + Sync>(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &C,
    config: &PartitionedConfig,
    threads: usize,
) -> (Marginals, PartitionStats) {
    let index = graph.components();
    // The frozen-weight score cache: one parallel pass over every design
    // row, then every engine below reads the table. Built per call — never
    // stored in the graph — so it can never go stale across retrains.
    let cache = ScoreCache::build(graph.design(), weights, threads);
    let mut stats = PartitionStats {
        score_cache: ScoreCacheStats {
            rows: cache.rows() as u64,
        },
        ..PartitionStats::default()
    };
    // Sweeps per sampler, for the per-unit cost estimates below.
    let sweeps = (config.gibbs.burn_in + config.gibbs.samples.max(1)) as u64;
    let mut comps: Vec<Vec<VarId>> = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    // Estimated cost of `units[i]` — design-row visits, plus for Gibbs
    // units the candidate evaluations of their clique entries — the
    // dispatch weight for longest-first scheduling. An estimate only: it
    // steers which worker runs a unit first, never what any unit computes.
    let mut costs: Vec<u64> = Vec::new();
    for members in index.iter() {
        let query: Vec<VarId> = members
            .iter()
            .copied()
            .filter(|&v| graph.var(v).is_query())
            .collect();
        if query.is_empty() {
            continue;
        }
        let size = query.len() as u64;
        stats.components += 1;
        stats.singleton_components += u64::from(size == 1);
        stats.largest_component = stats.largest_component.max(size);
        stats.size_hist[match size {
            1 => 0,
            2..=3 => 1,
            4..=15 => 2,
            _ => 3,
        }] += 1;
        let rank = comps.len();
        let rows: u64 = query
            .iter()
            .map(|&v| graph.var(v).arity() as u64)
            .sum::<u64>();
        let coupled = query.iter().any(|&v| !graph.cliques_of(v).is_empty());
        if !coupled {
            stats.closed_form_components += 1;
            stats.closed_form_vars += size;
            units.push(Unit::Closed(rank));
            costs.push(rows);
        } else {
            let space = query.iter().fold(1u64, |acc, &v| {
                acc.saturating_mul(graph.var(v).arity() as u64)
            });
            if space <= config.exact_limit && space <= MAX_EXACT_STATES as u64 {
                stats.exact_components += 1;
                stats.exact_vars += size;
                units.push(Unit::Exact(rank));
                costs.push(space);
            } else {
                stats.gibbs_components += 1;
                stats.gibbs_vars += size;
                // A resample visits each candidate once for the unary
                // term and once per adjacent clique — and on a coupled
                // component the clique visits are nearly all of it.
                let clique_evals: u64 = query
                    .iter()
                    .map(|&v| (graph.var(v).arity() * graph.cliques_of(v).len()) as u64)
                    .sum();
                units.push(Unit::Gibbs(rank));
                costs.push((rows + clique_evals).saturating_mul(sweeps));
            }
        }
        comps.push(query);
    }
    // Longest-estimated-first dispatch: one giant Gibbs component starts
    // immediately instead of serializing the tail behind a range of small
    // units. Results still merge by unit index, so the output is exactly
    // `parallel_jobs`' — the weights steer wall-clock only.
    let outs = holo_parallel::parallel_jobs_weighted(
        threads,
        units.len(),
        |i| costs[i],
        |i| match units[i] {
            Unit::Closed(rank) => {
                let marginals = comps[rank]
                    .iter()
                    .map(|&v| (v, softmax(cache.var_scores(v))))
                    .collect();
                (marginals, KernelCounts::default())
            }
            Unit::Exact(rank) => exact_marginals_for(graph, weights, ctx, &cache, &comps[rank]),
            Unit::Gibbs(rank) => sample_component(
                graph,
                weights,
                ctx,
                &config.gibbs,
                component_seed(config.gibbs.seed, rank),
                &comps[rank],
                &cache,
            ),
        },
    );
    for (_, counts) in &outs {
        stats.clique_entries += counts.entries;
        stats.clique_entries_compact += counts.compact;
        stats.clique_entries_folded += counts.folded;
    }
    let marginals = Marginals::assemble(graph, outs.into_iter().flat_map(|(m, _)| m));
    (marginals, stats)
}

/// Seed of component `rank`: rank 0 keeps the master seed — so a graph
/// that is one single component reproduces the whole-graph
/// [`GibbsSampler::run`] bit-for-bit — and later ranks mix `(seed, rank)`
/// through a Murmur3-style finalizer.
fn component_seed(seed: u64, rank: usize) -> u64 {
    if rank == 0 {
        return seed;
    }
    let mut z = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// Gibbs restricted to one component: one sampler seeded with the
/// component seed, its sample counts normalised, beside what its clique
/// kernel kept.
fn sample_component<C: ValueContext>(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &C,
    cfg: &GibbsConfig,
    comp_seed: u64,
    query: &[VarId],
    cache: &ScoreCache,
) -> (Vec<(VarId, Vec<f64>)>, KernelCounts) {
    let mut sampler =
        GibbsSampler::for_query(graph, weights, ctx, comp_seed, query.to_vec(), cache);
    let counts = sampler.collect_query_counts(cfg.burn_in, cfg.samples);
    (
        normalize_query_counts(query, counts),
        sampler.kernel_counts(),
    )
}

/// Raw per-candidate sample counts into marginals, query-aligned: sampled
/// variables normalise, never-sampled ones fall back to uniform (the same
/// rule as [`GibbsSampler::run`]'s normalisation).
fn normalize_query_counts(query: &[VarId], mut counts: Vec<Vec<f64>>) -> Vec<(VarId, Vec<f64>)> {
    for probs in &mut counts {
        let total: f64 = probs.iter().sum();
        if total > 0.0 {
            probs.iter_mut().for_each(|p| *p /= total);
        } else {
            let n = probs.len().max(1);
            probs.iter_mut().for_each(|p| *p = 1.0 / n as f64);
        }
    }
    query.iter().copied().zip(counts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::reference::exact_marginals;
    use crate::graph::{
        CmpOp, EqOnlyContext, FactorOperand, FactorPredicate, GraphBuilder, Variable,
    };
    use crate::marginals::reference::exact_unary;
    use crate::weights::WeightId;
    use holo_dataset::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// Adds the clique `a = b` at `weight` to `g`.
    fn must_differ(g: &mut GraphBuilder, a: VarId, b: VarId, weight: WeightId) {
        let equal = FactorPredicate {
            lhs: FactorOperand::Var(0),
            op: CmpOp::Eq,
            rhs: FactorOperand::Var(1),
        };
        g.add_clique(&[a, b], weight, &[equal]);
    }

    /// Two coupled pairs plus a free variable: three components, in
    /// canonical order.
    fn two_pair_graph() -> (FactorGraph, Weights) {
        let mut g = GraphBuilder::new();
        let vs: Vec<VarId> = (0..5)
            .map(|i| {
                g.add_variable(Variable::query(
                    vec![sym(1), sym(2), sym(3)],
                    Some((i % 2) as usize),
                ))
            })
            .collect();
        let mut w = Weights::zeros(4);
        w.set(WeightId(0), 0.9);
        w.set(WeightId(1), 1.7);
        w.set(WeightId(2), 1.1);
        w.set(WeightId(3), -0.4);
        g.add_feature(vs[0], 0, WeightId(0), 1.0);
        g.add_feature(vs[2], 1, WeightId(3), 2.0);
        g.add_feature(vs[4], 2, WeightId(0), 1.0);
        must_differ(&mut g, vs[0], vs[1], WeightId(1));
        must_differ(&mut g, vs[2], vs[3], WeightId(2));
        (g.build(), w)
    }

    #[test]
    fn build_groups_by_clique_scope() {
        let (g, _) = two_pair_graph();
        let ix = g.components();
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.members(0), &[VarId(0), VarId(1)]);
        assert_eq!(ix.members(1), &[VarId(2), VarId(3)]);
        assert_eq!(ix.members(2), &[VarId(4)]);
        assert_eq!(ix.comp_of(VarId(3)), 1);
        assert_eq!(ix.var_count(), 5);
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = GraphBuilder::new().build();
        assert!(g.components().is_empty());
    }

    /// Clique-free graphs route every variable through the closed form,
    /// reproducing the whole-graph softmax `exact_unary` bit-for-bit at any
    /// limit.
    #[test]
    fn clique_free_graph_is_closed_form_at_any_limit() {
        let mut g = GraphBuilder::new();
        let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        g.add_variable(Variable::evidence(vec![sym(3), sym(4)], 1));
        let b = g.add_variable(Variable::query(vec![sym(1), sym(2), sym(3)], None));
        let mut w = Weights::zeros(2);
        w.set(WeightId(0), 1.2);
        w.set(WeightId(1), -0.7);
        g.add_feature(a, 0, WeightId(0), 1.0);
        g.add_feature(b, 2, WeightId(1), 3.0);
        let g = g.build();
        let reference = exact_unary(&g, &w);
        for exact_limit in [0, 4096] {
            let cfg = PartitionedConfig {
                gibbs: GibbsConfig::default(),
                exact_limit,
                chromatic: false,
                score_cache: true,
            };
            let (m, stats) = infer_partitioned(&g, &w, &EqOnlyContext, &cfg, 1);
            assert_eq!(m, reference, "exact_limit = {exact_limit}");
            assert_eq!(stats.components, 2);
            assert_eq!(stats.closed_form_vars, 2);
            assert_eq!(stats.gibbs_vars, 0);
            assert_eq!(stats.exact_vars, 0);
        }
    }

    /// A single-component graph sampled with `exact_limit = 0` reproduces
    /// the whole-graph [`GibbsSampler::run`] bit-for-bit (same seed, same
    /// sweep order) — the partition seam costs nothing.
    #[test]
    fn single_component_gibbs_is_bit_for_bit_run() {
        let mut g = GraphBuilder::new();
        let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let b = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 1));
        let mut w = Weights::zeros(2);
        w.set(WeightId(0), 0.7);
        w.set(WeightId(1), 1.4);
        g.add_feature(a, 0, WeightId(0), 1.0);
        must_differ(&mut g, a, b, WeightId(1));
        let g = g.build();
        let ctx = EqOnlyContext;
        let gibbs = GibbsConfig {
            burn_in: 30,
            samples: 600,
            seed: 21,
        };
        let reference = GibbsSampler::new(&g, &w, &ctx, gibbs.seed).run(&gibbs);
        let cfg = PartitionedConfig {
            gibbs,
            exact_limit: 0,
            chromatic: false,
            score_cache: true,
        };
        let (m, stats) = infer_partitioned(&g, &w, &ctx, &cfg, 1);
        assert_eq!(m, reference);
        assert_eq!(stats.gibbs_components, 1);
        assert_eq!(stats.gibbs_vars, 2);
    }

    /// Exact routing matches global enumeration, and the whole pass is
    /// identical at every thread count.
    #[test]
    fn exact_routing_matches_global_enumeration_and_threads() {
        let (g, w) = two_pair_graph();
        let ctx = EqOnlyContext;
        let cfg = PartitionedConfig {
            gibbs: GibbsConfig::default(),
            exact_limit: 4096,
            chromatic: false,
            score_cache: true,
        };
        let (m, stats) = infer_partitioned(&g, &w, &ctx, &cfg, 1);
        assert_eq!(stats.components, 3);
        assert_eq!(stats.exact_components, 2);
        assert_eq!(stats.closed_form_components, 1);
        assert_eq!(stats.size_hist, [1, 2, 0, 0]);
        // One kernel entry per clique of an exact component.
        assert_eq!((stats.clique_entries, stats.clique_entries_folded), (2, 0));
        let global = exact_marginals(&g, &w, &ctx);
        for v in g.var_ids() {
            for k in 0..g.var(v).arity() {
                assert!(
                    (m.prob(v, k) - global.prob(v, k)).abs() < 1e-12,
                    "var {v:?} cand {k}: {} vs {}",
                    m.prob(v, k),
                    global.prob(v, k)
                );
            }
        }
        for threads in [2, 4, 8] {
            let (mt, st) = infer_partitioned(&g, &w, &ctx, &cfg, threads);
            assert_eq!(mt, m, "threads = {threads}");
            assert_eq!(st, stats);
        }
    }

    /// Gibbs routing is thread-count invariant too, and statistically
    /// close to the exact answer.
    #[test]
    fn gibbs_routing_thread_invariant_and_converges() {
        let (g, w) = two_pair_graph();
        let ctx = EqOnlyContext;
        let cfg = PartitionedConfig {
            gibbs: GibbsConfig {
                burn_in: 200,
                samples: 20_000,
                seed: 5,
            },
            exact_limit: 0, // force sampling of the coupled pairs
            chromatic: false,
            score_cache: true,
        };
        let (m, stats) = infer_partitioned(&g, &w, &ctx, &cfg, 1);
        assert_eq!(stats.gibbs_components, 2);
        assert_eq!(stats.closed_form_components, 1);
        // One kernel entry per (query variable, adjacent clique).
        assert_eq!((stats.clique_entries, stats.clique_entries_folded), (4, 0));
        for threads in [2, 4] {
            let (mt, _) = infer_partitioned(&g, &w, &ctx, &cfg, threads);
            assert_eq!(mt, m, "threads = {threads}");
        }
        let exact = exact_marginals(&g, &w, &ctx);
        for v in g.var_ids() {
            for k in 0..g.var(v).arity() {
                assert!(
                    (m.prob(v, k) - exact.prob(v, k)).abs() < 0.03,
                    "var {v:?} cand {k}: gibbs {} vs exact {}",
                    m.prob(v, k),
                    exact.prob(v, k)
                );
            }
        }
    }

    /// Rank 0 keeps the master seed, and the seeds of the later ranks are
    /// pairwise distinct in a small grid — so no component replays another
    /// component's stream.
    #[test]
    fn component_seeds_do_not_collide() {
        let seed = 0x5eed;
        assert_eq!(component_seed(seed, 0), seed);
        let mut all: Vec<u64> = (0..512).map(|rank| component_seed(seed, rank)).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "colliding seed streams");
    }
}
