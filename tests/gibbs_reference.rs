//! The compiled clique kernel against interpreted references, on a real
//! grounded model: 250-row hospital under `DcFactorsPartitioned`, trained
//! weights. Both references below are written against the public graph
//! API only — `Clique::score` per clique, every other member at its
//! current state. The sampler reference replays the sampler's sequential
//! sweep draw for draw, and the enumeration reference repeats the
//! exact engine's arithmetic, so marginals must be *equal*, not close: one
//! differing score bit would move a sample or a probability.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holo_dataset::Sym;
use holoclean_repro::holo_factor::exact::MAX_EXACT_STATES;
use holoclean_repro::holo_factor::learn::train_with_threads;
use holoclean_repro::holo_factor::math::{sample_categorical, softmax_in_place};
use holoclean_repro::holo_factor::{
    infer_partitioned, FactorGraph, GibbsConfig, GibbsSampler, PartitionedConfig, ValueContext,
    VarId, Weights,
};
use holoclean_repro::holoclean::compile::CompiledModel;
use holoclean_repro::holoclean::context::DatasetContext;
use holoclean_repro::holoclean::pipeline::{compile_model, detect, PipelineContext};
use holoclean_repro::holoclean::{HoloConfig, ModelVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The interpreted conditional of `v` under `state`, softmaxed.
fn interpreted_conditional(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &impl ValueContext,
    state: &[usize],
    v: VarId,
    probs: &mut Vec<f64>,
) {
    graph.unary_scores_into(v, weights, probs);
    for &ci in graph.cliques_of(v) {
        let clique = graph.clique(ci);
        let slot = clique.vars().iter().position(|&u| u == v).unwrap();
        let mut syms: Vec<Sym> = clique
            .vars()
            .iter()
            .map(|&u| graph.var(u).domain[state[u.index()]])
            .collect();
        for (k, p) in probs.iter_mut().enumerate() {
            syms[slot] = graph.var(v).domain[k];
            *p += clique.score(&syms, weights, ctx);
        }
    }
    softmax_in_place(probs);
}

/// Reference sampler over all query variables, in sequential sweeps.
/// Returns per-variable sample counts.
fn reference_counts(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &impl ValueContext,
    cfg: &GibbsConfig,
) -> Vec<Vec<f64>> {
    let mut state: Vec<usize> = graph
        .vars()
        .iter()
        .map(|v| v.evidence.or(v.init).unwrap_or(0))
        .collect();
    let mut counts: Vec<Vec<f64>> = graph.vars().iter().map(|v| vec![0.0; v.arity()]).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut probs = Vec::new();
    for sweep in 0..cfg.burn_in + cfg.samples {
        for v in graph.query_vars() {
            interpreted_conditional(graph, weights, ctx, &state, v, &mut probs);
            state[v.index()] = sample_categorical(&probs, rng.gen());
        }
        if sweep >= cfg.burn_in {
            for v in graph.query_vars() {
                counts[v.index()][state[v.index()]] += 1.0;
            }
        }
    }
    counts
}

/// The 250-row hospital model under `DcFactorsPartitioned`, its learned
/// weights, and the context that owns its dataset.
fn hospital_model() -> (PipelineContext, CompiledModel, Weights) {
    let gen = hospital(HospitalConfig {
        rows: 250,
        seed: 11,
        ..HospitalConfig::default()
    });
    let mut ds = gen.dirty.clone();
    let constraints =
        holoclean_repro::holo_constraints::parse_constraints(&gen.constraints_text, &mut ds)
            .expect("generated constraints parse");
    let config = HoloConfig::default()
        .with_variant(ModelVariant::DcFactorsPartitioned)
        .with_threads(1);
    let cx = PipelineContext::new(ds, constraints, config);
    let (model, _) = compile_model(&cx, &detect(&cx)).unwrap();
    let mut weights = model.weights.clone();
    train_with_threads(&model.graph, &mut weights, &cx.config.learn, 1);
    (cx, model, weights)
}

#[test]
fn compiled_sampler_equals_interpreted_reference_on_hospital() {
    let (cx, model, weights) = hospital_model();
    let graph = &model.graph;
    let ctx = DatasetContext::new(&cx.ds);
    assert!(graph.cliques().len() > 1000, "a coupled model");

    let cfg = GibbsConfig {
        burn_in: 3,
        samples: 12,
        seed: 0x5eed,
    };
    let reference = reference_counts(graph, &weights, &ctx, &cfg);
    let marginals = GibbsSampler::new(graph, &weights, &ctx, cfg.seed).run(&cfg);
    for v in graph.query_vars() {
        let expected: Vec<f64> = reference[v.index()]
            .iter()
            .map(|c| c / cfg.samples as f64)
            .collect();
        assert_eq!(marginals.probs(v), expected, "var {v:?}");
    }
}

/// Exact marginals of the query variables `query` of one component, by
/// enumeration: unary scores in `query` order, then `Clique::score`
/// of every clique adjacent to `query`, ascending, with every other member
/// at its evidence; assignments in odometer order (the first variable
/// fastest), max-shifted before exponentiating — the exact engine's
/// arithmetic, restated.
fn enumerated_marginals(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &impl ValueContext,
    query: &[VarId],
) -> Vec<Vec<f64>> {
    let mut cliques: Vec<u32> = query
        .iter()
        .flat_map(|&v| graph.cliques_of(v).iter().copied())
        .collect();
    cliques.sort_unstable();
    cliques.dedup();
    let unary: Vec<Vec<f64>> = query
        .iter()
        .map(|&v| graph.unary_scores(v, weights))
        .collect();
    let arities: Vec<usize> = query.iter().map(|&v| graph.var(v).arity()).collect();
    let digits = |index: usize| {
        let mut rest = index;
        arities.iter().map(move |&a| {
            let k = rest % a;
            rest /= a;
            k
        })
    };
    let mut state: Vec<usize> = graph
        .vars()
        .iter()
        .map(|v| v.evidence.unwrap_or(0))
        .collect();
    let space: usize = arities.iter().product();
    let scores: Vec<f64> = (0..space)
        .map(|index| {
            for (&v, k) in query.iter().zip(digits(index)) {
                state[v.index()] = k;
            }
            let mut score = 0.0;
            for (u, &v) in unary.iter().zip(query) {
                score += u[state[v.index()]];
            }
            for &ci in &cliques {
                let clique = graph.clique(ci);
                let syms: Vec<Sym> = clique
                    .vars()
                    .iter()
                    .map(|&u| graph.var(u).domain[state[u.index()]])
                    .collect();
                score += clique.score(&syms, weights, ctx);
            }
            score
        })
        .collect();
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut marginals: Vec<Vec<f64>> = arities.iter().map(|&a| vec![0.0; a]).collect();
    let mut total = 0.0;
    for (index, score) in scores.iter().enumerate() {
        let p = (score - max).exp();
        total += p;
        for (probs, k) in marginals.iter_mut().zip(digits(index)) {
            probs[k] += p;
        }
    }
    for probs in &mut marginals {
        probs.iter_mut().for_each(|p| *p /= total);
    }
    marginals
}

#[test]
fn compiled_exact_equals_enumeration_on_hospital() {
    let (cx, model, weights) = hospital_model();
    let graph = &model.graph;
    let ctx = DatasetContext::new(&cx.ds);
    let exact_limit = cx.config.exact_component_limit;
    let config = PartitionedConfig {
        gibbs: cx.config.gibbs,
        exact_limit,
        chromatic: false,
        score_cache: true,
    };
    let (marginals, stats) = infer_partitioned(graph, &weights, &ctx, &config, 1);
    let mut checked = 0;
    for members in graph.components().iter() {
        let query: Vec<VarId> = members
            .iter()
            .copied()
            .filter(|&v| graph.var(v).is_query())
            .collect();
        let coupled = query.iter().any(|&v| !graph.cliques_of(v).is_empty());
        let space = query.iter().fold(1u64, |acc, &v| {
            acc.saturating_mul(graph.var(v).arity() as u64)
        });
        if !coupled || space > exact_limit || space > MAX_EXACT_STATES as u64 {
            continue;
        }
        let expected = enumerated_marginals(graph, &weights, &ctx, &query);
        for (&v, probs) in query.iter().zip(&expected) {
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(marginals.probs(v)), bits(probs), "var {v:?}");
        }
        checked += query.len() as u64;
    }
    assert!(checked > 0, "some component routes to exact enumeration");
    assert_eq!(checked, stats.exact_vars);
}
