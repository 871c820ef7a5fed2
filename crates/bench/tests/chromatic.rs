//! Acceptance check for the chromatic Gibbs schedule: on the DC-factor
//! hospital model — the variant whose coupled components actually route
//! to sampling — chromatic inference is bit-for-bit identical at every
//! thread count, because the colour-block seeds depend only on the fixed
//! block index, never on which worker drew them.

use holo_constraints::{find_violations, noisy_cells, parse_constraints};
use holo_datagen::DatasetKind;
use holo_dataset::{CellRef, CooccurStats, FxHashSet};
use holoclean::compile::{compile, CompileInput};
use holoclean::context::DatasetContext;
use holoclean::{HoloConfig, ModelVariant};

#[test]
fn chromatic_hospital_dc_factors_is_thread_invariant() {
    let mut gen = holo_bench::build(
        DatasetKind::Hospital,
        holo_bench::Scale {
            factor: 0.25,
            seed: 7,
            full: false,
        },
    );
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let violations = find_violations(&gen.dirty, &cons);
    let noisy: FxHashSet<CellRef> = noisy_cells(&violations).iter().collect();
    let stats = CooccurStats::build(&gen.dirty);
    let matches = Default::default();
    let config = HoloConfig::default().with_variant(ModelVariant::DcFactorsPartitioned);
    let model = compile(&CompileInput {
        ds: &gen.dirty,
        constraints: &cons,
        noisy: &noisy,
        violations: &violations,
        stats: &stats,
        matches: &matches,
        config: &config,
    })
    .unwrap();
    let ctx = DatasetContext::new(&gen.dirty);
    let partitioned = holo_factor::PartitionedConfig {
        gibbs: holo_factor::GibbsConfig {
            burn_in: 10,
            samples: 80,
            ..Default::default()
        },
        exact_limit: 0, // route every coupled component to Gibbs
        chromatic: true,
        score_cache: true,
    };
    let (reference, pstats) =
        holo_factor::infer_partitioned(&model.graph, &model.weights, &ctx, &partitioned, 1);
    assert!(pstats.gibbs_vars > 0, "model must actually sample");
    assert!(pstats.colors >= 2, "DC factors must induce >= 2 colours");
    assert!(pstats.color_sweep_blocks > 0);
    for threads in [2usize, 4] {
        let (marginals, _) = holo_factor::infer_partitioned(
            &model.graph,
            &model.weights,
            &ctx,
            &partitioned,
            threads,
        );
        assert_eq!(marginals, reference, "threads = {threads}");
    }
}
