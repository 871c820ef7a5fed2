//! Cross-module property tests: the Gibbs sampler against the brute-force
//! enumeration oracle on randomly generated small factor graphs, the
//! compiled conditional and exact enumeration against their interpreted
//! references, and structural invariants of marginals.

#![cfg(test)]

use crate::cache::ScoreCache;
use crate::exact::exact_marginals_for;
use crate::exact::reference::{self as exact_reference, exact_marginals};
use crate::gibbs::{conditional_scores_into, GibbsConfig, GibbsSampler};
use crate::graph::{
    CmpOp, EqOnlyContext, FactorGraph, FactorOperand, FactorPredicate, GraphBuilder, ValueContext,
    VarId, Variable,
};
use crate::learn::{self, oracle, LearnConfig};
use crate::marginals::reference::exact_unary;
use crate::math::softmax_in_place;
use crate::weights::{FeatureRegistry, WeightId, Weights};
use holo_dataset::Sym;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A compact description of a random small model.
#[derive(Debug, Clone)]
struct RandomModel {
    /// Candidate-count per variable (2..=3), max 4 variables.
    arities: Vec<usize>,
    /// Unary feature weights per (var, candidate), in [-1.5, 1.5].
    unary: Vec<Vec<f64>>,
    /// Pairwise "must differ" cliques: (a, b, weight in [0, 2]).
    cliques: Vec<(usize, usize, f64)>,
}

fn random_model() -> impl Strategy<Value = RandomModel> {
    (2usize..=4)
        .prop_flat_map(|n_vars| {
            let arities = proptest::collection::vec(2usize..=3, n_vars);
            arities.prop_flat_map(move |arities| {
                let unary = arities
                    .iter()
                    .map(|&a| proptest::collection::vec(-1.5f64..1.5, a))
                    .collect::<Vec<_>>();
                let cliques = proptest::collection::vec(
                    (0..arities.len(), 0..arities.len(), 0.0f64..2.0),
                    0..3,
                );
                (Just(arities.clone()), unary, cliques).prop_map(|(arities, unary, cliques)| {
                    RandomModel {
                        arities,
                        unary,
                        cliques: cliques.into_iter().filter(|(a, b, _)| a != b).collect(),
                    }
                })
            })
        })
        .prop_filter("at least one variable", |m| !m.arities.is_empty())
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Symbols ordered by id, similar when their ids are within the threshold
/// — a context under which every [`CmpOp`] can be evaluated.
struct NumericContext;

impl ValueContext for NumericContext {
    fn compare(&self, a: Sym, b: Sym) -> std::cmp::Ordering {
        a.0.cmp(&b.0)
    }
    fn similar(&self, a: Sym, b: Sym, threshold: f64) -> bool {
        f64::from(a.0.abs_diff(b.0)) <= threshold
    }
}

/// A clique scope: 1 to `max` of the variables `0..n_vars`, no two alike,
/// in random order.
fn distinct_vars(rng: &mut StdRng, n_vars: usize, max: usize) -> Vec<VarId> {
    let mut vars: Vec<VarId> = (0..n_vars as u32).map(VarId).collect();
    vars.shuffle(rng);
    vars.truncate(rng.gen_range(1..=max.min(n_vars)));
    vars
}

/// A small random graph exercising everything a clique kernel resolves:
/// 2-6 variables (one in four evidence) over the symbols `0..=6` (`0` is
/// [`Sym::NULL`]), and 0-8 cliques of arity 1-4 whose members, operand
/// slots, constants, operators and weights are all drawn independently
/// (members without repeats: a graph rejects a scope that names a variable
/// twice) — so a slot can sit on both sides of a predicate, and a
/// predicate can be constant-only.
fn random_clique_graph(rng: &mut StdRng) -> (FactorGraph, Weights) {
    const OPS: [CmpOp; 7] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Lt,
        CmpOp::Gt,
        CmpOp::Leq,
        CmpOp::Geq,
        CmpOp::Sim(1.5),
    ];
    const CLIQUE_WEIGHTS: [f64; 5] = [0.0, 0.7, 2.1, -1.3, 4.0];
    let mut graph = GraphBuilder::new();
    let mut weight_values = Vec::new();
    let n_vars = rng.gen_range(2usize..=6);
    for i in 0..n_vars {
        let mut pool: Vec<u32> = (0..=6).collect();
        pool.shuffle(rng);
        let arity = rng.gen_range(1usize..=4);
        let domain: Vec<Sym> = pool[..arity].iter().map(|&s| Sym(s)).collect();
        // Variable 0 is always a query variable, so there is something to
        // resample.
        let var = if i > 0 && rng.gen_bool(0.25) {
            Variable::evidence(domain, rng.gen_range(0..arity))
        } else {
            Variable::query(domain, Some(rng.gen_range(0..arity)))
        };
        let v = graph.add_variable(var);
        for k in 0..arity {
            graph.add_feature(v, k, WeightId(weight_values.len() as u32), 1.0);
            weight_values.push(rng.gen_range(-1.5f64..1.5));
        }
    }
    for _ in 0..rng.gen_range(0usize..=8) {
        let vars = distinct_vars(rng, n_vars, 4);
        let arity = vars.len();
        let operand = |rng: &mut StdRng| {
            if rng.gen_bool(0.6) {
                FactorOperand::Var(rng.gen_range(0..arity as u8))
            } else {
                FactorOperand::Const(Sym(rng.gen_range(0u32..=6)))
            }
        };
        let predicates: Vec<FactorPredicate> = (0..rng.gen_range(1usize..=3))
            .map(|_| FactorPredicate {
                lhs: operand(rng),
                op: OPS[rng.gen_range(0..OPS.len())],
                rhs: operand(rng),
            })
            .collect();
        graph.add_clique(&vars, WeightId(weight_values.len() as u32), &predicates);
        weight_values.push(CLIQUE_WEIGHTS[rng.gen_range(0..CLIQUE_WEIGHTS.len())]);
    }
    let mut weights = Weights::zeros(weight_values.len());
    for (i, w) in weight_values.into_iter().enumerate() {
        weights.set(WeightId(i as u32), w);
    }
    (graph.build(), weights)
}

/// A small random graph shaped like the DC-factor model, where the
/// fixed-width kernel rows apply: every clique at one shared weight, one or
/// two `=` / `≠` predicates in the FD pattern (a join, then a difference),
/// over 2-6 variables (one in four evidence) whose domains and the
/// constants draw from the symbols `0..=5` (`0` is [`Sym::NULL`]). A slot
/// can sit on both sides of a predicate, so a query variable meets
/// itself; the rows mix one-guard-one-own entries with two-own and
/// two-guard ones.
fn random_dc_factor_graph(rng: &mut StdRng) -> (FactorGraph, Weights) {
    const SHARED_WEIGHTS: [f64; 4] = [4.0, 0.7, -1.3, 0.0];
    let mut graph = GraphBuilder::new();
    let mut weight_values = Vec::new();
    let n_vars = rng.gen_range(2usize..=6);
    for i in 0..n_vars {
        let mut pool: Vec<u32> = (0..=5).collect();
        pool.shuffle(rng);
        let arity = rng.gen_range(1usize..=3);
        let domain: Vec<Sym> = pool[..arity].iter().map(|&s| Sym(s)).collect();
        let var = if i > 0 && rng.gen_bool(0.25) {
            Variable::evidence(domain, rng.gen_range(0..arity))
        } else {
            Variable::query(domain, Some(rng.gen_range(0..arity)))
        };
        let v = graph.add_variable(var);
        for k in 0..arity {
            graph.add_feature(v, k, WeightId(weight_values.len() as u32), 1.0);
            weight_values.push(rng.gen_range(-1.5f64..1.5));
        }
    }
    let shared = WeightId(weight_values.len() as u32);
    weight_values.push(SHARED_WEIGHTS[rng.gen_range(0..SHARED_WEIGHTS.len())]);
    for _ in 0..rng.gen_range(0usize..=8) {
        let vars = distinct_vars(rng, n_vars, 4);
        let arity = vars.len();
        let operand = |rng: &mut StdRng| {
            if rng.gen_bool(0.7) {
                FactorOperand::Var(rng.gen_range(0..arity as u8))
            } else {
                FactorOperand::Const(Sym(rng.gen_range(0u32..=5)))
            }
        };
        let ops = [CmpOp::Eq, CmpOp::Neq];
        let predicates: Vec<FactorPredicate> = ops[..rng.gen_range(1usize..=2)]
            .iter()
            .map(|&op| FactorPredicate {
                lhs: operand(rng),
                op: if rng.gen_bool(0.8) {
                    op
                } else {
                    ops[rng.gen_range(0usize..2)]
                },
                rhs: operand(rng),
            })
            .collect();
        graph.add_clique(&vars, shared, &predicates);
    }
    let mut weights = Weights::zeros(weight_values.len());
    for (i, w) in weight_values.into_iter().enumerate() {
        weights.set(WeightId(i as u32), w);
    }
    (graph.build(), weights)
}

/// A random graph generator.
type GraphGen = fn(&mut StdRng) -> (FactorGraph, Weights);

/// The two random clique-graph shapes the compiled kernel is tested over.
const CLIQUE_GRAPHS: [GraphGen; 2] = [random_clique_graph, random_dc_factor_graph];

fn build(model: &RandomModel) -> (FactorGraph, Weights) {
    let mut graph = GraphBuilder::new();
    let mut weight_values = Vec::new();
    let mut vars = Vec::new();
    for (v, &arity) in model.arities.iter().enumerate() {
        // Shared symbol space so "must differ" cliques are meaningful.
        let domain: Vec<Sym> = (1..=arity as u32).map(Sym).collect();
        let var = graph.add_variable(Variable::query(domain, Some(0)));
        vars.push(var);
        for k in 0..arity {
            let w = WeightId(weight_values.len() as u32);
            weight_values.push(model.unary[v][k]);
            graph.add_feature(var, k, w, 1.0);
        }
    }
    for &(a, b, w) in &model.cliques {
        let wid = WeightId(weight_values.len() as u32);
        weight_values.push(w);
        graph.add_clique(
            &[vars[a], vars[b]],
            wid,
            &[FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        );
    }
    let mut weights = Weights::zeros(weight_values.len());
    for (i, v) in weight_values.into_iter().enumerate() {
        weights.set(WeightId(i as u32), v);
    }
    (graph.build(), weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Gibbs marginals converge to the exact enumeration on random small
    /// graphs (loose tolerance — finite sampling).
    #[test]
    fn gibbs_matches_exact_on_random_graphs(model in random_model()) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        let exact = exact_marginals(&graph, &weights, &ctx);
        let approx = GibbsSampler::new(&graph, &weights, &ctx, 99).run(&GibbsConfig {
            burn_in: 300,
            samples: 12_000,
            seed: 99,
        });
        for v in graph.var_ids() {
            for k in 0..graph.var(v).arity() {
                let diff = (exact.prob(v, k) - approx.prob(v, k)).abs();
                prop_assert!(diff < 0.06, "var {v:?} cand {k}: |{} - {}| = {diff}",
                    exact.prob(v, k), approx.prob(v, k));
            }
        }
    }

    /// Every marginal vector is a probability distribution.
    #[test]
    fn marginals_are_distributions(model in random_model()) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        for marginals in [
            exact_marginals(&graph, &weights, &ctx),
            GibbsSampler::new(&graph, &weights, &ctx, 5).run(&GibbsConfig {
                burn_in: 10,
                samples: 200,
                seed: 5,
            }),
        ] {
            for v in graph.var_ids() {
                let total: f64 = marginals.probs(v).iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                prop_assert!(marginals.probs(v).iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    /// Without cliques, Gibbs and the closed-form softmax agree — the §5.2
    /// independence property.
    #[test]
    fn independent_graphs_need_no_sampling(model in random_model()) {
        let model = RandomModel { cliques: Vec::new(), ..model };
        let (graph, weights) = build(&model);
        let closed = exact_unary(&graph, &weights);
        let sampled = GibbsSampler::new(&graph, &weights, &EqOnlyContext, 17).run(&GibbsConfig {
            burn_in: 200,
            samples: 12_000,
            seed: 17,
        });
        for v in graph.var_ids() {
            for k in 0..graph.var(v).arity() {
                prop_assert!((closed.prob(v, k) - sampled.prob(v, k)).abs() < 0.06);
            }
        }
    }

    /// The frozen-weight score cache serves the Gibbs conditional: on
    /// random graphs, weights and states (evidence at its pinned
    /// candidate, the only state a sampler reaches), the conditional of a
    /// sampler reading a cache built at any thread count — its own, or one
    /// borrowed from the caller — is the uncached interpreted conditional
    /// (a design-matrix walk, then `Clique::score` per clique): equal raw
    /// scores, and the same bits after the softmax.
    #[test]
    fn cached_conditionals_bit_identical_to_uncached(model in random_model(),
                                                     state_salt in 0usize..64) {
        let (graph, weights) = build(&model);
        let ctx = EqOnlyContext;
        let state: Vec<usize> = graph
            .var_ids()
            .map(|v| {
                let var = graph.var(v);
                var.evidence.unwrap_or((v.index() + state_salt) % var.arity())
            })
            .collect();
        let query = graph.query_vars();
        let caches = [1usize, 4].map(|threads| ScoreCache::build(graph.design(), &weights, threads));
        let own = GibbsSampler::new(&graph, &weights, &ctx, 0);
        let borrowed = caches
            .iter()
            .map(|cache| GibbsSampler::for_query(&graph, &weights, &ctx, 0, query.clone(), cache));
        for mut sampler in std::iter::once(own).chain(borrowed) {
            sampler.set_state(&state);
            for (i, &v) in query.iter().enumerate() {
                let mut cached = sampler.conditional(i);
                let mut uncached = Vec::new();
                conditional_scores_into(&graph, &weights, &ctx, &state, v, &mut uncached);
                prop_assert_eq!(&cached, &uncached, "raw scores of {:?}", v);
                softmax_in_place(&mut cached);
                softmax_in_place(&mut uncached);
                prop_assert_eq!(bits(&cached), bits(&uncached), "conditional of {:?}", v);
            }
        }
    }

    /// Cost-aware dispatch is a pure scheduling change: for any weight
    /// vector and thread count, `parallel_jobs_weighted` returns exactly
    /// what `parallel_jobs` returns for a pure job function — results in
    /// index order, every index exactly once.
    #[test]
    fn weighted_jobs_match_plain_jobs(ws in proptest::collection::vec(0u64..1_000, 0..40),
                                      threads in 1usize..6) {
        let n = ws.len();
        let f = |i: usize| i.wrapping_mul(0x9e37_79b9) ^ (ws[i] as usize);
        let plain = holo_parallel::parallel_jobs(1, n, f);
        let weighted = holo_parallel::parallel_jobs_weighted(threads, n, |i| ws[i], f);
        prop_assert_eq!(weighted, plain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiled clique kernel is the interpreted conditional: over
    /// random graphs (clique arity 1-4 with repeated members, every
    /// operator under a real ordering/similarity context, nulls in domains
    /// and constants, constant-only predicates, one slot on both sides of
    /// a predicate, evidence members, zero and negative clique weights)
    /// and DC-factor-shaped ones (one shared weight, `=` / `≠` only, so
    /// fixed-width rows), and random states, the raw scores are equal as
    /// numbers (a skipped `+0.0` may only flip a zero's sign) and the
    /// softmaxed conditional is equal bit for bit.
    #[test]
    fn compiled_conditional_bit_identical_to_interpreted(seed in 0u64..u64::MAX,
                                                         shape in 0usize..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, weights) = CLIQUE_GRAPHS[shape](&mut rng);
        let ctx = NumericContext;
        let query = graph.query_vars();
        let mut sampler = GibbsSampler::new(&graph, &weights, &ctx, 0);
        for _ in 0..4 {
            let state: Vec<usize> = graph
                .vars()
                .iter()
                .map(|var| var.evidence.unwrap_or_else(|| rng.gen_range(0..var.arity())))
                .collect();
            sampler.set_state(&state);
            for (i, &v) in query.iter().enumerate() {
                let mut compiled = sampler.conditional(i);
                let mut interpreted = Vec::new();
                conditional_scores_into(&graph, &weights, &ctx, &state, v, &mut interpreted);
                prop_assert_eq!(&compiled, &interpreted, "raw scores of {:?}", v);
                softmax_in_place(&mut compiled);
                softmax_in_place(&mut interpreted);
                prop_assert_eq!(bits(&compiled), bits(&interpreted), "conditional of {:?}", v);
            }
        }
    }

    /// The compiled exact enumeration is the interpreted one: over the same
    /// random graphs of both shapes, every component's marginals from the
    /// clique kernel (folded constants, pooled evidence, branch-free
    /// addends, fixed-width rows, unary scores off the score cache) equal
    /// the `Clique::score` enumeration over design-matrix walks bit for
    /// bit.
    #[test]
    fn compiled_exact_bit_identical_to_interpreted(seed in 0u64..u64::MAX,
                                                   shape in 0usize..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, weights) = CLIQUE_GRAPHS[shape](&mut rng);
        let ctx = NumericContext;
        let cache = ScoreCache::build(graph.design(), &weights, 1);
        for members in graph.components().iter() {
            let query: Vec<VarId> =
                members.iter().copied().filter(|&v| graph.var(v).is_query()).collect();
            let interpreted = exact_reference::exact_marginals_for(&graph, &weights, &ctx, &query);
            let (compiled, _) = exact_marginals_for(&graph, &weights, &ctx, &cache, &query);
            prop_assert_eq!(compiled.len(), interpreted.len());
            for ((v, p), (u, q)) in compiled.iter().zip(&interpreted) {
                prop_assert_eq!(v, u);
                prop_assert_eq!(bits(p), bits(q), "{:?}", v);
            }
        }
    }
}

/// The DC-factor-shaped graphs reach both row forms: over a run of seeds
/// their Gibbs kernels hold fixed-width entries and general ones, so the
/// two proptests above compare both against the interpreter.
#[test]
fn dc_factor_graphs_build_both_row_forms() {
    let (mut fixed, mut general) = (0, 0);
    for seed in 0..64 {
        let (graph, weights) = random_dc_factor_graph(&mut StdRng::seed_from_u64(seed));
        let counts = GibbsSampler::new(&graph, &weights, &EqOnlyContext, 0).kernel_counts();
        fixed += counts.compact;
        general += counts.entries - counts.compact;
    }
    assert!(fixed > 0 && general > 0, "fixed {fixed}, general {general}");
}

/// One variable of a random training model: `(kind, arity, target,
/// per-candidate sparse features)`. Kind 0 (one in four) makes a query
/// variable — a non-evidence id between the evidence rows, which the
/// trainer must skip in the design matrix and the eligibility filter must
/// drop from the example order. Feature keys are reduced modulo the
/// model's weight count; arity-1 evidence exercises the filter too.
type TrainingVar = (u8, usize, usize, Vec<Vec<(usize, f64)>>);

/// Weight-store widths on and around the accumulator bitmap's `u64`
/// word edges.
const WEIGHT_COUNTS: [usize; 7] = [1, 2, 63, 64, 65, 129, 200];

/// Minibatch sizes: per-example SGD, one that straddles shard
/// boundaries, the default, and one larger than any generated model.
const MINIBATCHES: [usize; 4] = [1, 7, 128, 1000];

fn training_model() -> impl Strategy<Value = Vec<TrainingVar>> {
    proptest::collection::vec(
        (1usize..=3).prop_flat_map(|arity| {
            (
                0u8..4,
                Just(arity),
                0..arity,
                proptest::collection::vec(
                    proptest::collection::vec((0usize..400, -1.5f64..1.5), 0..6),
                    arity,
                ),
            )
        }),
        1..40,
    )
}

/// Builds the model over exactly `weight_count` weights, all registered
/// up front (so the store is that wide whatever the features reference);
/// every fifth weight is fixed. Returns the graph, the weights and an
/// example order: every variable id, query ids included, shuffled under
/// `order_seed`.
fn build_training(
    model: &[TrainingVar],
    weight_count: usize,
    order_seed: u64,
) -> (FactorGraph, Weights, Vec<VarId>) {
    let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
    let ids: Vec<WeightId> = (0..weight_count)
        .map(|key| {
            if key % 5 == 4 {
                reg.fixed(key, 0.75)
            } else {
                reg.learnable(key)
            }
        })
        .collect();
    let mut graph = GraphBuilder::new();
    let mut order = Vec::new();
    for &(kind, arity, target, ref per_candidate) in model {
        let domain: Vec<Sym> = (1..=arity as u32).map(Sym).collect();
        let v = graph.add_variable(if kind == 0 {
            Variable::query(domain, Some(target))
        } else {
            Variable::evidence(domain, target)
        });
        for (k, features) in per_candidate.iter().enumerate() {
            for &(key, x) in features {
                graph.add_feature(v, k, ids[key % weight_count], x);
            }
        }
        order.push(v);
    }
    order.shuffle(&mut StdRng::seed_from_u64(order_seed));
    (graph.build(), reg.build_weights(), order)
}

fn weight_bits(w: &Weights) -> Vec<u64> {
    (0..w.len())
        .map(|i| w.get(WeightId(i as u32)).to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The trainer is bit-for-bit the hash-map oracle — weights and every
    /// `LearnStats` float — across random graphs whose evidence rows are
    /// interleaved with query rows, shuffled example orders that name
    /// query ids, weight counts on the bitmap's word edges, fixed weights
    /// and minibatch sizes.
    #[test]
    fn trainer_bitwise_equals_oracle(model in training_model(),
                                     weight_count in 0usize..WEIGHT_COUNTS.len(),
                                     minibatch in 0usize..MINIBATCHES.len(),
                                     order_seed in 0u64..u64::MAX) {
        let weight_count = WEIGHT_COUNTS[weight_count];
        let (graph, weights, order) = build_training(&model, weight_count, order_seed);
        prop_assert_eq!(weights.len(), weight_count);
        let cfg = LearnConfig {
            epochs: 3,
            minibatch: MINIBATCHES[minibatch],
            ..LearnConfig::default()
        };
        let mut w_oracle = weights.clone();
        let mut w = weights.clone();
        let s_oracle = oracle::train_examples(&graph, &mut w_oracle, &cfg, &order);
        let s = learn::train_examples(&graph, &mut w, &cfg, &order);
        prop_assert_eq!(weight_bits(&w), weight_bits(&w_oracle));
        prop_assert_eq!(s.bits(), s_oracle.bits());
    }
}

/// An example order with no eligible entry — query ids and
/// single-candidate evidence only — runs no minibatch and leaves every
/// weight as it was, like the oracle.
#[test]
fn no_eligible_example_trains_nothing() {
    let model: Vec<TrainingVar> = vec![
        (0, 2, 1, vec![vec![(0, 1.0)], vec![(1, -0.5)]]),
        (1, 1, 0, vec![vec![(2, 0.25), (0, 1.0)]]),
        (0, 3, 0, vec![vec![(3, 1.0)], vec![], vec![(2, 2.0)]]),
    ];
    let (graph, weights, order) = build_training(&model, 5, 7);
    let cfg = LearnConfig::default();
    let mut w = weights.clone();
    let s = learn::train_examples(&graph, &mut w, &cfg, &order);
    assert_eq!((s.examples, s.minibatches), (0, 0));
    assert_eq!(weight_bits(&w), weight_bits(&weights));
    let mut w_oracle = weights.clone();
    let s_oracle = oracle::train_examples(&graph, &mut w_oracle, &cfg, &order);
    assert_eq!(s.bits(), s_oracle.bits());
}
