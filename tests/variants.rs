//! Integration tests over the five model variants (the Figure 5 axis) and
//! the confidence calibration of Figure 6.

use holoclean_repro::holo_datagen::{food, hospital, FoodConfig, HospitalConfig};
use holoclean_repro::holoclean::pipeline;
use holoclean_repro::holoclean::report::{confidence_buckets, FIG6_EDGES};
use holoclean_repro::holoclean::{evaluate, HoloClean, HoloConfig, ModelVariant, RepairReport};

fn outcome_for(
    gen: &holoclean_repro::holo_datagen::GeneratedDataset,
    variant: ModelVariant,
    tau: f64,
) -> holoclean_repro::holoclean::RepairOutcome {
    HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap()
        .with_config(HoloConfig::default().with_tau(tau).with_variant(variant))
        .run()
        .unwrap()
}

#[test]
fn every_variant_produces_usable_repairs() {
    let gen = hospital(HospitalConfig {
        rows: 250,
        ..HospitalConfig::default()
    });
    for variant in ModelVariant::all() {
        let outcome = outcome_for(&gen, variant, 0.5);
        let q = evaluate(&outcome.report, &outcome.dataset, &gen.clean);
        assert!(q.f1 > 0.4, "variant {variant:?} collapsed: {q:?}");
        if variant.uses_dc_factors() {
            assert!(outcome.model.cliques > 0, "{variant:?} must ground cliques");
        } else {
            assert_eq!(outcome.model.cliques, 0);
        }
    }
}

#[test]
fn partitioning_never_grows_the_graph() {
    let gen = food(FoodConfig {
        establishments: 120,
        ..FoodConfig::default()
    });
    let unpart = outcome_for(&gen, ModelVariant::DcFactors, 0.5);
    let part = outcome_for(&gen, ModelVariant::DcFactorsPartitioned, 0.5);
    assert!(part.model.cliques <= unpart.model.cliques);
    assert!(part.model.factors <= unpart.model.factors);
    // Quality: partitioning drops cliques against *clean* tuples (they are
    // in no conflict component), which for the pure-factor model removes
    // the deterrent against damaging repairs — §5.1.2 reports F1 drops up
    // to 6% on the paper's data; synthetic small-scale instances swing
    // harder, so only guard against collapse here.
    let q_unpart = evaluate(&unpart.report, &unpart.dataset, &gen.clean);
    let q_part = evaluate(&part.report, &part.dataset, &gen.clean);
    assert!(
        q_part.f1 > q_unpart.f1 - 0.35,
        "partitioned {q_part:?} vs unpartitioned {q_unpart:?}"
    );
    // The hybrid variants keep the relaxed features as unary deterrents, so
    // partitioning there must stay within a few points.
    let hybrid = outcome_for(&gen, ModelVariant::DcFeatsDcFactors, 0.5);
    let hybrid_part = outcome_for(&gen, ModelVariant::DcFeatsDcFactorsPartitioned, 0.5);
    let q_hybrid = evaluate(&hybrid.report, &hybrid.dataset, &gen.clean);
    let q_hybrid_part = evaluate(&hybrid_part.report, &hybrid_part.dataset, &gen.clean);
    assert!(
        q_hybrid_part.f1 > q_hybrid.f1 - 0.15,
        "hybrid partitioned {q_hybrid_part:?} vs hybrid {q_hybrid:?}"
    );
}

#[test]
fn raising_tau_shrinks_the_candidate_space() {
    let gen = hospital(HospitalConfig {
        rows: 300,
        ..HospitalConfig::default()
    });
    let mut previous = usize::MAX;
    for tau in [0.3, 0.5, 0.7, 0.9] {
        let outcome = outcome_for(&gen, ModelVariant::DcFeats, tau);
        assert!(
            outcome.model.total_candidates <= previous,
            "tau {tau}: candidates grew"
        );
        previous = outcome.model.total_candidates;
    }
}

#[test]
fn confidence_endpoints_are_calibrated() {
    // Figure 6's shape: high-confidence repairs are much more reliable
    // than low-confidence ones.
    let gen = hospital(HospitalConfig {
        rows: 500,
        ..HospitalConfig::default()
    });
    let outcome = outcome_for(&gen, ModelVariant::DcFeats, 0.5);
    let buckets = confidence_buckets(&outcome.report, &gen.clean, &FIG6_EDGES);
    let top = buckets.last().unwrap();
    assert!(top.repairs > 0, "the top bucket must hold repairs");
    let top_rate = top.error_rate().unwrap();
    assert!(top_rate < 0.25, "top-bucket error rate {top_rate}");
    // Any populated low bucket must be no better than the top bucket by a
    // wide margin in the wrong direction.
    if let Some(low) = buckets.iter().find(|b| b.repairs >= 5) {
        assert!(
            low.error_rate().unwrap() >= top_rate - 0.05,
            "low bucket cannot be cleaner than the top bucket"
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let gen = hospital(HospitalConfig {
        rows: 200,
        ..HospitalConfig::default()
    });
    let a = outcome_for(&gen, ModelVariant::DcFeats, 0.5);
    let b = outcome_for(&gen, ModelVariant::DcFeats, 0.5);
    assert_eq!(a.report.repairs, b.report.repairs);
    let c = outcome_for(&gen, ModelVariant::DcFeatsDcFactorsPartitioned, 0.5);
    let d = outcome_for(&gen, ModelVariant::DcFeatsDcFactorsPartitioned, 0.5);
    assert_eq!(c.report.repairs, d.report.repairs, "Gibbs path is seeded");
}

/// `naive_stats`, `score_cache` and `chromatic_gibbs` are read by nothing
/// but the benchmark's staged driver: a run with all three away from their
/// defaults gives the default run's report and marginals bit for bit,
/// under the relaxed model and under the DC-factor model, whose exact and
/// Gibbs engines the two inference fields used to switch.
#[test]
fn benchmark_only_config_fields_change_nothing() {
    let gen = hospital(HospitalConfig {
        rows: 250,
        ..HospitalConfig::default()
    });
    for variant in [ModelVariant::DcFeats, ModelVariant::DcFactorsPartitioned] {
        let run = |config: HoloConfig| {
            let cx = HoloClean::new(gen.dirty.clone())
                .with_constraint_text(&gen.constraints_text)
                .unwrap()
                .with_config(config.with_variant(variant))
                .into_context()
                .unwrap();
            let run = pipeline::run(&cx).unwrap();
            let graph = &run.model.graph;
            let report = RepairReport::from_marginals(
                &cx.ds,
                &run.model.query_cells,
                &run.model.query_vars,
                graph,
                &run.marginals,
            );
            let marginals: Vec<Vec<u64>> = graph
                .var_ids()
                .map(|v| run.marginals.probs(v).iter().map(|p| p.to_bits()).collect())
                .collect();
            (format!("{report:?}"), marginals, run.timings.partition)
        };
        let flipped = run(HoloConfig {
            naive_stats: true,
            score_cache: false,
            chromatic_gibbs: true,
            ..HoloConfig::default()
        });
        let default = run(HoloConfig::default());
        assert!(flipped.0 == default.0, "{variant:?}: the report moved");
        assert!(flipped.1 == default.1, "{variant:?}: a marginal moved");
        if variant.uses_dc_factors() {
            assert!(default.2.gibbs_vars > 0, "{variant:?}: {:?}", default.2);
            assert!(default.2.exact_vars > 0, "{variant:?}: {:?}", default.2);
        }
    }
}
