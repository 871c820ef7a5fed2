//! Golden tests for the CSR design matrix on a real compiled hospital
//! model: the matrix the one-pass assembly hands over must be bit-for-bit
//! the matrix — and score like the nested adjacency — of the same rows
//! grounded entry by entry, and SGD must produce identical weights at
//! every thread count.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holo_factor::design::score_features;
use holoclean_repro::holo_factor::learn::train_with_threads;
use holoclean_repro::holo_factor::{FactorGraph, GraphBuilder, WeightId};
use holoclean_repro::holoclean::compile::CompiledModel;
use holoclean_repro::holoclean::pipeline::{compile_model, detect, PipelineContext};
use holoclean_repro::holoclean::HoloConfig;

/// Detect + compile over a generated hospital dataset of about `rows`
/// rows, returning the shared context and the model.
fn compile_hospital_rows(rows: usize, threads: usize) -> (PipelineContext, CompiledModel) {
    let gen = hospital(HospitalConfig {
        rows,
        seed: 11,
        ..HospitalConfig::default()
    });
    let mut ds = gen.dirty.clone();
    let constraints =
        holoclean_repro::holo_constraints::parse_constraints(&gen.constraints_text, &mut ds)
            .expect("generated constraints parse");
    let cx = PipelineContext::new(ds, constraints, HoloConfig::default().with_threads(threads));
    let (model, _) = compile_model(&cx, &detect(&cx)).unwrap();
    (cx, model)
}

/// [`compile_hospital_rows`] of the 300-row table.
fn compile_hospital(threads: usize) -> (PipelineContext, CompiledModel) {
    compile_hospital_rows(300, threads)
}

/// `graph`'s unary features read back out as nested adjacency
/// (`rows[v][k]`), the store the design matrix replaced.
fn adjacency_of(graph: &FactorGraph) -> Vec<Vec<Vec<(WeightId, f64)>>> {
    graph
        .var_ids()
        .map(|v| {
            (0..graph.var(v).arity())
                .map(|k| graph.features(v, k).to_vec())
                .collect()
        })
        .collect()
}

/// The graph that grounding `adjacency` onto `graph`'s variables one entry
/// at a time produces — a [`GraphBuilder`] fed `add_variable`, then
/// `add_feature` per entry.
fn grounded_entry_by_entry(
    graph: &FactorGraph,
    adjacency: &[Vec<Vec<(WeightId, f64)>>],
) -> FactorGraph {
    let mut fresh = GraphBuilder::new();
    for (v, rows) in graph.var_ids().zip(adjacency) {
        let added = fresh.add_variable(graph.var(v).clone());
        for (k, row) in rows.iter().enumerate() {
            for &(w, x) in row {
                fresh.add_feature(added, k, w, x);
            }
        }
    }
    fresh.build()
}

/// The tentpole equivalence: the assembled matrix equals the entry-by-entry
/// build of its rows, and every variable's CSR-backed scores equal
/// the nested-adjacency reference bit-for-bit, under both the prior
/// weights and trained (non-trivial) weights.
#[test]
fn csr_unary_scores_match_adjacency_on_hospital() {
    let (cx, model) = compile_hospital(1);
    let mut trained = model.weights.clone();
    train_with_threads(&model.graph, &mut trained, &cx.config.learn, 1);
    let design = model.graph.design();
    let named = design.weight_ids();
    assert!(
        trained.learnable_norm(named) > 0.0,
        "training moved the weights"
    );
    assert!(design.nnz() > 0, "hospital model has unary features");
    assert_eq!(design.var_count(), model.graph.var_count());
    let rows = adjacency_of(&model.graph);
    assert_eq!(
        design,
        grounded_entry_by_entry(&model.graph, &rows).design(),
        "assembled == grounded entry by entry"
    );
    let mut csr = Vec::new();
    for weights in [&model.weights, &trained] {
        for v in model.graph.var_ids() {
            model.graph.design().score_var_into(v, weights, &mut csr);
            let adjacency: Vec<f64> = rows[v.index()]
                .iter()
                .map(|features| score_features(features, weights))
                .collect();
            assert_eq!(csr.len(), adjacency.len(), "var {v:?}");
            for (k, (a, b)) in csr.iter().zip(&adjacency).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "var {v:?} candidate {k}: csr {a} vs adjacency {b}"
                );
            }
        }
    }
}

/// The learning determinism contract on a real model: `threads ∈ {1, 2, 4}`
/// produce identical `Weights` (and identical diagnostics).
#[test]
fn learn_thread_counts_produce_identical_weights_on_hospital() {
    let (cx, model) = compile_hospital(1);
    let mut reference = model.weights.clone();
    let ref_stats = train_with_threads(&model.graph, &mut reference, &cx.config.learn, 1);
    assert!(ref_stats.examples > 0, "hospital compiles evidence");
    assert!(ref_stats.minibatches > 0);
    for threads in [2, 4] {
        let mut weights = model.weights.clone();
        let stats = train_with_threads(&model.graph, &mut weights, &cx.config.learn, threads);
        assert_eq!(weights, reference, "threads = {threads}");
        assert_eq!(stats.minibatches, ref_stats.minibatches);
        assert_eq!(
            stats.grad_norm.to_bits(),
            ref_stats.grad_norm.to_bits(),
            "threads = {threads}"
        );
        assert_eq!(
            stats.final_log_likelihood.to_bits(),
            ref_stats.final_log_likelihood.to_bits(),
            "threads = {threads}"
        );
    }
}

/// The whole compile stage is thread-count invariant too — including the
/// parallel DC grounding and the design-matrix shape it feeds.
#[test]
fn compile_thread_counts_produce_identical_design() {
    let ref_model = compile_hospital(1).1;
    for threads in [2, 4] {
        let model = compile_hospital(threads).1;
        assert_eq!(
            model.query_cells, ref_model.query_cells,
            "threads = {threads}"
        );
        assert_eq!(
            model.graph.design(),
            ref_model.graph.design(),
            "threads = {threads}"
        );
        assert_eq!(model.weights, ref_model.weights, "threads = {threads}");
    }
}

/// On a table past the parallel cutoff the relaxed-DC featurizer blocks
/// its partner tuples on the full thread budget: the design matrix, the
/// weights and the registry (key by key, in id order) are those of
/// `threads = 1`.
#[test]
fn featurizer_blocks_identically_at_any_thread_count() {
    let (cx, reference) = compile_hospital_rows(4200, 1);
    // holo_parallel::MIN_PARALLEL_WORK: smaller tables block on one thread.
    assert!(cx.ds.tuple_count() >= 4096, "{} rows", cx.ds.tuple_count());
    assert!(cx.config.variant.uses_dc_features());
    let model = compile_hospital_rows(4200, 4).1;
    assert_eq!(model.graph.design(), reference.graph.design());
    assert_eq!(model.weights, reference.weights);
    assert_eq!(model.registry.keys(), reference.registry.keys());
}
