//! The determinism contract of partitioned hybrid inference, end to end:
//!
//! 1. hospital marginals (posteriors and repairs) are **bit-for-bit**
//!    identical across thread counts, for the clique-free relaxed model
//!    and for a clique variant whose components actually sample;
//! 2. `exact_component_limit` is inert for clique-free (closed-form)
//!    components — the relaxed model's output is identical at limit 0 and
//!    at the default — while for clique-coupled models every limit value
//!    is itself deterministic;
//! 3. `PartitionStats` reports the decomposition: more than one component
//!    on hospital, with the closed-form/exact/Gibbs routing split
//!    accounting for every query variable.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holoclean::{HoloClean, HoloConfig, ModelVariant, RepairOutcome};

fn run(
    gen: &holoclean_repro::holo_datagen::GeneratedDataset,
    variant: ModelVariant,
    threads: usize,
    exact_component_limit: u64,
) -> RepairOutcome {
    HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap()
        .with_config(
            HoloConfig::default()
                .with_variant(variant)
                .with_threads(threads)
                .with_exact_component_limit(exact_component_limit),
        )
        .run()
        .unwrap()
}

fn small_hospital() -> holoclean_repro::holo_datagen::GeneratedDataset {
    hospital(HospitalConfig {
        rows: 150,
        seed: 11,
        ..HospitalConfig::default()
    })
}

/// The relaxed (clique-free) model: every component is closed-form, so
/// the partition seam must change nothing — bit-identical output across
/// thread counts *and* across exact-limit values, with the partition
/// stats showing many singleton components.
#[test]
fn relaxed_model_identical_across_threads_and_limits() {
    let gen = small_hospital();
    let reference = run(&gen, ModelVariant::DcFeats, 1, 4096);
    let p = reference.timings.partition;
    assert!(p.components > 1, "hospital decomposes: {p:?}");
    assert_eq!(p.components, p.closed_form_components, "{p:?}");
    assert_eq!(p.gibbs_vars, 0, "{p:?}");
    assert_eq!(p.exact_vars, 0, "{p:?}");
    assert_eq!(
        p.closed_form_vars, reference.model.query_vars as u64,
        "every query var routed: {p:?}"
    );
    for threads in [2, 4] {
        let out = run(&gen, ModelVariant::DcFeats, threads, 4096);
        assert_eq!(out.report, reference.report, "threads = {threads}");
        assert_eq!(out.timings.partition, p, "threads = {threads}");
    }
    // The exact limit only gates clique-coupled enumeration; closed-form
    // components ignore it entirely.
    for limit in [0, 1, u64::MAX] {
        let out = run(&gen, ModelVariant::DcFeats, 1, limit);
        assert_eq!(
            out.report, reference.report,
            "exact_component_limit = {limit}"
        );
    }
}

/// A clique variant: components are coupled, some sample, and the whole
/// end-to-end output (posteriors included) is still bit-identical at
/// every thread count.
#[test]
fn clique_model_marginals_bit_identical_across_threads() {
    let gen = small_hospital();
    let reference = run(&gen, ModelVariant::DcFeatsDcFactors, 1, 4096);
    let p = reference.timings.partition;
    assert!(p.components > 1, "hospital decomposes: {p:?}");
    assert!(
        p.gibbs_vars + p.exact_vars > 0,
        "cliques must couple some components: {p:?}"
    );
    assert_eq!(
        p.closed_form_vars + p.exact_vars + p.gibbs_vars,
        reference.model.query_vars as u64,
        "every query var routed exactly once: {p:?}"
    );
    for threads in [2, 4] {
        let out = run(&gen, ModelVariant::DcFeatsDcFactors, threads, 4096);
        assert_eq!(
            out.report, reference.report,
            "posteriors and repairs at threads = {threads}"
        );
        assert_eq!(out.timings.partition, p, "threads = {threads}");
    }
}

/// Exact enumeration and Gibbs are each deterministic per limit value:
/// rerunning any configuration reproduces itself bit-for-bit (the limit
/// is a model knob, never a source of nondeterminism).
#[test]
fn every_limit_value_is_self_deterministic() {
    let gen = small_hospital();
    for limit in [0, 4096] {
        let a = run(&gen, ModelVariant::DcFeatsDcFactors, 1, limit);
        let b = run(&gen, ModelVariant::DcFeatsDcFactors, 4, limit);
        assert_eq!(a.report, b.report, "limit = {limit}");
    }
}

/// Raising the limit moves coupled components from the sampler to exact
/// enumeration — observable in the routing split, monotonically.
#[test]
fn raising_the_limit_shifts_components_to_exact() {
    let gen = small_hospital();
    let sampled = run(&gen, ModelVariant::DcFeatsDcFactors, 1, 0);
    let hybrid = run(&gen, ModelVariant::DcFeatsDcFactors, 1, 4096);
    let ps = sampled.timings.partition;
    let ph = hybrid.timings.partition;
    assert_eq!(ps.exact_components, 0, "limit 0 disables enumeration");
    assert!(ps.gibbs_components > 0, "{ps:?}");
    assert!(ph.exact_components + ph.gibbs_components == ps.gibbs_components);
    assert!(
        ph.exact_components > 0,
        "small coupled components exist: {ph:?}"
    );
    // The decomposition itself is identical — only the routing moves.
    assert_eq!(ps.components, ph.components);
    assert_eq!(ps.size_hist, ph.size_hist);
}
