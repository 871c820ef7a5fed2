//! The mutation contract of a factor graph and the feedback loop on it:
//!
//! 1. any sequence of graph mutations (in-domain pins, out-of-domain
//!    pins, late features, appended variables, late cliques) leaves the
//!    patched design matrix **bit-for-bit equal** to a graph built afresh,
//!    in order, from the shadow adjacency the test keeps, the cached
//!    component index equal to a fresh build and the cached coloring
//!    proper;
//! 2. the whole feedback loop (requests → apply_labels → retrain →
//!    report) is bit-for-bit identical across thread counts.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holo_dataset::Sym;
use holoclean_repro::holo_factor::{
    CliqueFactor, CmpOp, ComponentIndex, FactorGraph, FactorOperand, FactorPredicate, Variable,
    WeightId,
};
use holoclean_repro::holoclean::feedback::{FeedbackSession, Label};
use holoclean_repro::holoclean::{HoloClean, HoloConfig};
use proptest::prelude::*;

/// One mutation of an already-built factor graph: the pins the feedback
/// loop makes (in- and out-of-domain), and the construction calls a
/// hand-built graph may still make afterwards — late features, appended
/// variables and late cliques — after each of which the graph's state
/// must equal a fresh build's.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Pin variable `var % n` to candidate `k % arity` (in-domain).
    PinInDomain { var: usize, k: usize },
    /// Pin variable `var % n` to a fresh symbol (appends a candidate row).
    PinNovel { var: usize },
    /// Append a feature to candidate `k % arity` of variable `var % n`.
    AddFeature {
        var: usize,
        k: usize,
        weight: usize,
        value_milli: i32,
    },
    /// Append a fresh variable of the given arity, pre-loaded with
    /// `features` features — a streamed batch's new cell.
    AppendVar { arity: usize, features: usize },
    /// Add a clique over variables `a % n` and `b % n` — late coupling
    /// that must drop the cached index and coloring.
    LateClique { a: usize, b: usize },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0usize..32, 0usize..10, 0usize..6, -2000i32..2000).prop_map(|(var, k, weight, value_milli)| {
        match k % 5 {
            0 => Mutation::PinInDomain { var, k },
            1 => Mutation::PinNovel { var },
            2 => Mutation::AppendVar {
                arity: 2 + var % 3,
                features: weight % 4,
            },
            3 => Mutation::LateClique {
                a: var,
                b: var / 2 + k,
            },
            _ => Mutation::AddFeature {
                var,
                k,
                weight,
                value_milli,
            },
        }
    })
}

/// A small random graph: 2–5 variables of arity 2–4 with a few features.
fn graph_shape() -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize, usize)>)> {
    (2usize..=5).prop_flat_map(|n| {
        (
            proptest::collection::vec(2usize..=4, n),
            proptest::collection::vec((0usize..n, 0usize..4, 0usize..6), 0..12),
        )
    })
}

/// Nested adjacency (`rows[v][k]` = features of candidate `k` of variable
/// `v`): the store the design matrix replaced, kept by the test as the
/// reference of what the graph should hold.
type Shadow = Vec<Vec<Vec<(WeightId, f64)>>>;

fn build_graph(arities: &[usize], features: &[(usize, usize, usize)]) -> (FactorGraph, Shadow) {
    let mut g = FactorGraph::new();
    let mut shadow = Shadow::new();
    for (i, &arity) in arities.iter().enumerate() {
        // Distinct symbol ranges per variable; Sym(0) is reserved.
        let base = 1 + (i * 16) as u32;
        let domain: Vec<Sym> = (0..arity as u32).map(|k| Sym(base + k)).collect();
        g.add_variable(Variable::query(domain, Some(0)));
        shadow.push(vec![Vec::new(); arity]);
    }
    for &(v, k, w) in features {
        let var = holoclean_repro::holo_factor::VarId(v as u32);
        let k = k % arities[v];
        g.add_feature(var, k, WeightId(w as u32), 0.25 + w as f64);
        shadow[v][k].push((WeightId(w as u32), 0.25 + w as f64));
    }
    (g, shadow)
}

/// The graph a fresh, in-order build of `shadow` produces: every variable
/// appended with all of its features before the next one exists, so no
/// splice ever lands in the middle of the matrix.
fn fresh_build(g: &FactorGraph, shadow: &Shadow) -> FactorGraph {
    let mut fresh = FactorGraph::new();
    for (v, rows) in g.var_ids().zip(shadow) {
        let added = fresh.add_variable(g.var(v).clone());
        for (k, row) in rows.iter().enumerate() {
            for &(w, x) in row {
                fresh.add_feature(added, k, w, x);
            }
        }
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mutation sequences keep the patched matrix bit-for-bit equal
    /// to a fresh build, and never leave a stale index or coloring behind.
    #[test]
    fn random_pin_sequences_patch_equals_compile(
        case in (graph_shape(), proptest::collection::vec(mutation(), 1..20)),
    ) {
        let ((arities, features), mutations) = case;
        let (mut g, mut shadow) = build_graph(&arities, &features);
        let _ = (g.components(), g.coloring()); // both caches live
        let mut n_vars = arities.len();
        let mut novel = 10_000u32; // far above any domain symbol
        for m in mutations {
            match m {
                Mutation::PinInDomain { var, k } => {
                    let v = holoclean_repro::holo_factor::VarId((var % n_vars) as u32);
                    let value = g.var(v).domain[k % g.var(v).arity()];
                    g.pin_evidence(v, value);
                }
                Mutation::PinNovel { var } => {
                    let v = holoclean_repro::holo_factor::VarId((var % n_vars) as u32);
                    novel += 1;
                    g.pin_evidence(v, Sym(novel));
                    shadow[v.index()].push(Vec::new());
                }
                Mutation::AddFeature { var, k, weight, value_milli } => {
                    let v = holoclean_repro::holo_factor::VarId((var % n_vars) as u32);
                    let k = k % g.var(v).arity();
                    g.add_feature(v, k, WeightId(weight as u32), value_milli as f64 / 1000.0);
                    shadow[v.index()][k].push((WeightId(weight as u32), value_milli as f64 / 1000.0));
                }
                Mutation::AppendVar { arity, features } => {
                    // A new cell grounded late: the variable is appended,
                    // then featurized entry by entry.
                    let domain: Vec<Sym> = (0..arity as u32)
                        .map(|k| {
                            novel += 1;
                            Sym(novel + k)
                        })
                        .collect();
                    novel += arity as u32;
                    let rows: Vec<Vec<(WeightId, f64)>> = (0..arity)
                        .map(|k| {
                            (0..features)
                                .map(|f| (WeightId(((k + f) % 6) as u32), 0.5 + f as f64))
                                .collect()
                        })
                        .collect();
                    let v = g.add_variable(Variable::query(domain, Some(0)));
                    for (k, row) in rows.iter().enumerate() {
                        for &(w, x) in row {
                            g.add_feature(v, k, w, x);
                        }
                    }
                    shadow.push(rows);
                    n_vars += 1;
                }
                Mutation::LateClique { a, b } => {
                    let va = holoclean_repro::holo_factor::VarId((a % n_vars) as u32);
                    let vb = holoclean_repro::holo_factor::VarId((b % n_vars) as u32);
                    let (vars, predicates) = if va == vb {
                        (
                            vec![va],
                            vec![FactorPredicate {
                                lhs: FactorOperand::Var(0),
                                op: CmpOp::Eq,
                                rhs: FactorOperand::Const(g.var(va).domain[0]),
                            }],
                        )
                    } else {
                        (
                            vec![va, vb],
                            vec![FactorPredicate {
                                lhs: FactorOperand::Var(0),
                                op: CmpOp::Eq,
                                rhs: FactorOperand::Var(1),
                            }],
                        )
                    };
                    g.add_clique(CliqueFactor {
                        vars,
                        weight: WeightId(0),
                        predicates,
                    });
                }
            }
            // After *every* mutation: the patched matrix is exactly what a
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
