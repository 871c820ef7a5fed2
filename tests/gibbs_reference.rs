//! The compiled clique kernel against interpreted references, on a real
//! grounded model: 250-row hospital under `DcFactorsPartitioned`, trained
//! weights. Both references below are written against the public graph
//! API only — `CliqueFactor::score` per clique, every other member at its
//! current state. The sampler reference replays the sampler's two
//! schedules draw for draw, and the enumeration reference repeats the
//! exact engine's arithmetic, so marginals must be *equal*, not close: one
//! differing score bit would move a sample or a probability.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holo_dataset::Sym;
use holoclean_repro::holo_factor::exact::MAX_EXACT_STATES;
use holoclean_repro::holo_factor::learn::train_with_threads;
use holoclean_repro::holo_factor::math::{sample_categorical, softmax_in_place};
use holoclean_repro::holo_factor::{
    infer_partitioned, Coloring, FactorGraph, GibbsConfig, GibbsSampler, PartitionedConfig,
    ValueContext, VarId, Weights,
};
use holoclean_repro::holoclean::compile::CompiledModel;
use holoclean_repro::holoclean::context::DatasetContext;
use holoclean_repro::holoclean::pipeline::{compile_model, detect, PipelineContext};
use holoclean_repro::holoclean::{HoloConfig, ModelVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sampler's chromatic block length and block-seed mixer
/// (`gibbs::COLOR_BLOCK_SIZE`, `gibbs::color_block_seed`), restated: they
/// define the chromatic sampling stream, so a reference has to share them.
const COLOR_BLOCK_SIZE: usize = 64;

fn color_block_seed(seed: u64, block_index: u64) -> u64 {
    let mut z = seed ^ block_index.wrapping_mul(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

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
        let clique = &graph.cliques()[ci as usize];
        let slot = clique.vars.iter().position(|&u| u == v).unwrap();
        let mut syms: Vec<Sym> = clique
            .vars
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

/// Reference sampler over all query variables: sequential
/// sweeps, or — given a coloring — chromatic ones (colors ascending, each
/// class cut into fixed blocks that draw from their own seeded RNG against
/// the pre-class state). Returns per-variable sample counts.
fn reference_counts(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &impl ValueContext,
    cfg: &GibbsConfig,
    coloring: Option<&Coloring>,
) -> Vec<Vec<f64>> {
    let mut state: Vec<usize> = graph
        .vars()
        .iter()
        .map(|v| v.evidence.or(v.init).unwrap_or(0))
        .collect();
    let mut counts: Vec<Vec<f64>> = graph.vars().iter().map(|v| vec![0.0; v.arity()]).collect();
    let mut order = graph.query_vars();
    if let Some(col) = coloring {
        order.sort_by_key(|&v| (col.color_of(v), v));
    }
    // One class per color (a single class when sequential), each with the
    // global index of its first block within a sweep.
    let mut classes: Vec<(&[VarId], u64)> = Vec::new();
    let mut blocks_per_sweep = 0u64;
    match coloring {
        None => classes.push((&order, 0)),
        Some(col) => {
            for class in order.chunk_by(|&a, &b| col.color_of(a) == col.color_of(b)) {
                classes.push((class, blocks_per_sweep));
                blocks_per_sweep += class.len().div_ceil(COLOR_BLOCK_SIZE) as u64;
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut probs = Vec::new();
    for sweep in 0..(cfg.burn_in + cfg.samples) as u64 {
        for &(class, block_base) in &classes {
            if coloring.is_none() {
                for &v in class {
                    interpreted_conditional(graph, weights, ctx, &state, v, &mut probs);
                    state[v.index()] = sample_categorical(&probs, rng.gen());
                }
                continue;
            }
            let mut sampled = Vec::with_capacity(class.len());
            for (b, block) in class.chunks(COLOR_BLOCK_SIZE).enumerate() {
                let index = sweep * blocks_per_sweep + block_base + b as u64;
                let mut block_rng = StdRng::seed_from_u64(color_block_seed(cfg.seed, index));
                for &v in block {
                    interpreted_conditional(graph, weights, ctx, &state, v, &mut probs);
                    sampled.push(sample_categorical(&probs, block_rng.gen()));
                }
            }
            for (&v, k) in class.iter().zip(sampled) {
                state[v.index()] = k;
            }
        }
        if sweep >= cfg.burn_in as u64 {
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
    assert!(graph.coloring().num_colors() > 1, "chromatic plans arm");

    let cfg = GibbsConfig {
        burn_in: 3,
        samples: 12,
        seed: 0x5eed,
    };
    for chromatic in [false, true] {
        let coloring = chromatic.then(|| graph.coloring());
        let reference = reference_counts(graph, &weights, &ctx, &cfg, coloring);
        let mut sampler = GibbsSampler::new(graph, &weights, &ctx, cfg.seed);
        if let Some(col) = coloring {
            sampler = sampler.with_chromatic(col, 2);
        }
        let marginals = sampler.run(&cfg);
        for v in graph.query_vars() {
            let expected: Vec<f64> = reference[v.index()]
                .iter()
                .map(|c| c / cfg.samples as f64)
                .collect();
            assert_eq!(
                marginals.probs(v),
                expected,
                "var {v:?}, chromatic = {chromatic}"
            );
        }
    }
}

/// Exact marginals of the query variables `query` of one component, by
/// enumeration: unary scores in `query` order, then `CliqueFactor::score`
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
                let clique = &graph.cliques()[ci as usize];
                let syms: Vec<Sym> = clique
                    .vars
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
    for score_cache in [true, false] {
        let config = PartitionedConfig {
            gibbs: cx.config.gibbs,
            exact_limit,
            chromatic: false,
            score_cache,
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
                assert_eq!(
                    bits(marginals.probs(v)),
                    bits(probs),
                    "var {v:?}, score cache = {score_cache}"
                );
            }
            checked += query.len() as u64;
        }
        assert!(checked > 0, "some component routes to exact enumeration");
        assert_eq!(checked, stats.exact_vars);
    }
}
