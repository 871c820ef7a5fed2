//! The pin contract of a factor graph and the feedback loop on it:
//!
//! 1. any sequence of feedback pins (in-domain and out-of-domain) on a
//!    built graph leaves the design matrix **bit-for-bit equal** to a graph
//!    built afresh from the shadow adjacency the test keeps, the cached
//!    component index equal to a fresh build and the cached coloring
//!    proper;
//! 2. the whole feedback loop (requests → apply_labels → retrain →
//!    report) is bit-for-bit identical across thread counts.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holo_dataset::Sym;
use holoclean_repro::holo_factor::{
    CliqueFactor, CmpOp, ComponentIndex, FactorGraph, FactorOperand, FactorPredicate, GraphBuilder,
    VarId, Variable, WeightId,
};
use holoclean_repro::holoclean::feedback::{FeedbackSession, Label};
use holoclean_repro::holoclean::{HoloClean, HoloConfig};
use proptest::prelude::*;

/// A small random graph: 2–5 variables of arity 2–4 with a few features
/// and "must differ" cliques over variable pairs.
type Shape = (Vec<usize>, Vec<(usize, usize, usize)>, Vec<(usize, usize)>);

fn graph_shape() -> impl Strategy<Value = Shape> {
    (2usize..=5).prop_flat_map(|n| {
        (
            proptest::collection::vec(2usize..=4, n),
            proptest::collection::vec((0usize..n, 0usize..4, 0usize..6), 0..12),
            proptest::collection::vec((0usize..n, 0usize..n), 0..6),
        )
    })
}

/// Nested adjacency (`rows[v][k]` = features of candidate `k` of variable
/// `v`): the store the design matrix replaced, kept by the test as the
/// reference of what the graph should hold.
type Shadow = Vec<Vec<Vec<(WeightId, f64)>>>;

fn build_graph((arities, features, pairs): &Shape) -> (FactorGraph, Shadow) {
    let mut b = GraphBuilder::new();
    let mut shadow = Shadow::new();
    for (i, &arity) in arities.iter().enumerate() {
        // Distinct symbol ranges per variable; Sym(0) is reserved.
        let base = 1 + (i * 16) as u32;
        let domain: Vec<Sym> = (0..arity as u32).map(|k| Sym(base + k)).collect();
        b.add_variable(Variable::query(domain, Some(0)));
        shadow.push(vec![Vec::new(); arity]);
    }
    for &(v, k, w) in features {
        let k = k % arities[v];
        b.add_feature(VarId(v as u32), k, WeightId(w as u32), 0.25 + w as f64);
        shadow[v][k].push((WeightId(w as u32), 0.25 + w as f64));
    }
    for &(a, c) in pairs.iter().filter(|(a, c)| a != c) {
        b.add_clique(CliqueFactor {
            vars: vec![VarId(a as u32), VarId(c as u32)],
            weight: WeightId(0),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        });
    }
    (b.build(), shadow)
}

/// The graph a fresh build of `shadow` over `g`'s (pinned) variables
/// produces.
fn fresh_build(g: &FactorGraph, shadow: &Shadow) -> FactorGraph {
    let mut fresh = GraphBuilder::new();
    for (v, rows) in g.var_ids().zip(shadow) {
        let added = fresh.add_variable(g.var(v).clone());
        for (k, row) in rows.iter().enumerate() {
            for &(w, x) in row {
                fresh.add_feature(added, k, w, x);
            }
        }
    }
    fresh.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pin sequences keep the patched matrix bit-for-bit equal to
    /// a fresh build, and never leave a stale index or coloring behind.
    #[test]
    fn random_pin_sequences_patch_equals_compile(
        shape in graph_shape(),
        // Pin variable `var % n` to candidate `k % arity` (in-domain), or
        // with `novel == 1` to a fresh symbol (appends a candidate row).
        pins in proptest::collection::vec((0usize..32, 0usize..10, 0u8..2), 1..20),
    ) {
        let (mut g, mut shadow) = build_graph(&shape);
        let _ = (g.components(), g.coloring()); // both caches live
        let mut novel = 10_000u32; // far above any domain symbol
        for (var, k, out_of_domain) in pins {
            let v = VarId((var % g.var_count()) as u32);
            if out_of_domain == 1 {
                novel += 1;
                g.pin_evidence(v, Sym(novel));
                shadow[v.index()].push(Vec::new());
            } else {
                let value = g.var(v).domain[k % g.var(v).arity()];
                g.pin_evidence(v, value);
            }
            // After *every* pin: the patched matrix is exactly what a
            // fresh build of the shadow adjacency produces, the cached
            // component index equals a fresh union-find build, and the
            // cached coloring covers every variable and is proper.
            prop_assert_eq!(g.design(), fresh_build(&g, &shadow).design());
            prop_assert_eq!(
                g.components(),
                &ComponentIndex::build(g.var_count(), g.cliques())
            );
            prop_assert_eq!(g.coloring().var_count(), g.var_count());
            prop_assert!(g.coloring().is_proper(g.cliques()));
        }
    }

    /// Streaming proptest: random row streams under random batch splits
    /// report byte-identically to the one-shot pipeline.
    #[test]
    fn random_streams_stay_patch_equal_and_batch_equivalent(
        rows in proptest::collection::vec((0u8..4, 0u8..5, 0u8..2), 4..40),
        batches in 1usize..5,
        threads in 1usize..3,
    ) {
        use holoclean_repro::holo_dataset::{Dataset, Schema};
        use holoclean_repro::holoclean::stream::StreamSession;

        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(z, c, s)| vec![format!("z{z}"), format!("c{c}"), format!("s{s}")])
            .collect();
        let schema = Schema::new(vec!["Zip", "City", "State"]);
        let constraints = "FD: Zip -> City\nFD: City, State -> Zip";
        let mut session = StreamSession::new(
            schema.clone(),
            constraints,
            HoloConfig::default().with_threads(threads),
        )
        .unwrap();
        for chunk in rows.chunks(rows.len().div_ceil(batches)) {
            session.push_batch(chunk).unwrap();
        }
        let report = session.report();

        let mut ds = Dataset::new(schema);
        for row in &rows {
            ds.push_row(row);
        }
        let reference = HoloClean::new(ds)
            .with_constraint_text(constraints)
            .unwrap()
            .with_config(HoloConfig::default().with_threads(1))
            .run()
            .unwrap()
            .report;
        prop_assert_eq!(report, reference);
    }
}

/// Runs a two-round feedback session over a generated hospital dataset at
/// the given thread count, labelling low-confidence cells with their clean
/// values plus one novel (out-of-domain) value per round.
fn feedback_loop(
    threads: usize,
) -> (
    Vec<(String, u64)>,
    FeedbackSession,
    holoclean_repro::holo_dataset::Dataset,
) {
    let gen = hospital(HospitalConfig {
        rows: 120,
        seed: 23,
        ..HospitalConfig::default()
    });
    let (outcome, model, weights) = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap()
        .with_config(HoloConfig::default().with_threads(threads))
        .run_full()
        .unwrap();
    let mut ds = outcome.dataset;
    let mut session = FeedbackSession::new(
        model,
        weights,
        HoloConfig::default().with_threads(threads),
        &ds,
    );
    let mut trace: Vec<(String, u64)> = Vec::new();
    for round in 0..2 {
        let requests = session.requests(&ds, 4);
        for (i, r) in requests.iter().enumerate() {
            trace.push((
                format!("round {round} request {i}: {:?} -> {}", r.cell, r.proposed),
                r.confidence.to_bits(),
            ));
        }
        let labels: Vec<Label> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| Label {
                cell: r.cell,
                value: if i == 0 {
                    format!("audited-{round}")
                } else {
                    gen.clean.cell_str(r.cell.tuple, r.cell.attr).to_string()
                },
            })
            .collect();
        session.apply_labels(&mut ds, &labels);
        session.retrain(&ds).unwrap();
        for repair in &session.report(&ds).repairs {
            trace.push((
                format!(
                    "round {round} repair {:?} -> {}",
                    repair.cell, repair.new_value
                ),
                repair.probability.to_bits(),
            ));
        }
    }
    (trace, session, ds)
}

/// The full loop — requests, labels, retrain, report — is bit-for-bit
/// identical at every thread count.
#[test]
fn feedback_loop_is_thread_count_invariant() {
    let (reference, ref_session, ref_ds) = feedback_loop(1);
    assert!(!reference.is_empty(), "the loop produced requests/repairs");
    let ref_report = ref_session.report(&ref_ds);
    for threads in [2, 4] {
        let (trace, session, ds) = feedback_loop(threads);
        assert_eq!(trace, reference, "threads = {threads}");
        assert_eq!(session.report(&ds), ref_report, "threads = {threads}");
    }
    assert!(ref_session.partition_stats().components > 1);
}
