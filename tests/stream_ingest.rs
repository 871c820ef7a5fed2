//! The session contract, for streamed rows and for user labels:
//!
//! 1. feeding hospital in K batches yields repairs **byte-identical** to
//!    the one-shot pipeline — cells, values, and full posteriors — for
//!    K ∈ {1, 4, 16} at every thread count, under the default model and
//!    the partitioned DC-factor variant, and random row streams under
//!    random batch splits do too;
//! 2. pushes only edit the row store: detection, statistics and the model
//!    are the read's one-shot run over the compacted live rows, and a
//!    failing read is a typed error;
//! 3. a read's coordinates are the one-shot run's — `TupleId`s and `Sym`s
//!    included — even when deletes leave gaps, updates intern values no
//!    final row holds, a constraint carries a quoted constant, and the
//!    session carries a dictionary;
//! 4. the feedback loop (requests → labels → report) is bit-for-bit
//!    identical across thread counts, and on hospital its precision never
//!    falls below the unlabelled run's.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holo_dataset::{Dataset, Schema, TupleId};
use holoclean_repro::holo_external::MatchingDependency;
use holoclean_repro::holoclean::stream::{Label, Session};
use holoclean_repro::holoclean::{
    evaluate, HoloClean, HoloConfig, HoloError, ModelVariant, RepairOutcome, RepairReport,
};
use proptest::prelude::*;

fn string_rows(ds: &Dataset) -> Vec<Vec<String>> {
    let row = |t| {
        ds.schema()
            .attrs()
            .map(move |a| ds.cell_str(t, a).to_string())
    };
    ds.tuples().map(|t| row(t).collect()).collect()
}

fn hospital_rows() -> (Schema, String, Vec<Vec<String>>) {
    let gen = hospital(HospitalConfig {
        rows: 120,
        seed: 23,
        ..HospitalConfig::default()
    });
    let schema = gen.dirty.schema().clone();
    (
        schema,
        gen.constraints_text.clone(),
        string_rows(&gen.dirty),
    )
}

fn one_shot_with(
    schema: &Schema,
    constraints: &str,
    rows: &[Vec<String>],
    config: HoloConfig,
) -> RepairOutcome {
    let mut ds = Dataset::new(schema.clone());
    for row in rows {
        ds.push_row(row);
    }
    HoloClean::new(ds)
        .with_constraint_text(constraints)
        .unwrap()
        .with_config(config)
        .run()
        .unwrap()
}

fn one_shot(
    schema: &Schema,
    constraints: &str,
    rows: &[Vec<String>],
    threads: usize,
) -> RepairReport {
    let config = HoloConfig::default().with_threads(threads);
    one_shot_with(schema, constraints, rows, config).report
}

fn streamed_with(
    schema: &Schema,
    constraints: &str,
    rows: &[Vec<String>],
    batches: usize,
    config: HoloConfig,
) -> Session {
    let mut session = Session::new(schema.clone(), constraints, config).unwrap();
    for chunk in rows.chunks(rows.len().div_ceil(batches)) {
        session.push_batch(chunk).unwrap();
    }
    session
}

fn streamed(
    schema: &Schema,
    constraints: &str,
    rows: &[Vec<String>],
    batches: usize,
    threads: usize,
) -> Session {
    let config = HoloConfig::default().with_threads(threads);
    streamed_with(schema, constraints, rows, batches, config)
}

/// Repairs and posteriors compared down to the f64 bits — `PartialEq` on
/// `RepairReport` compares `f64` by value, so assert on bits explicitly
/// for the probabilities.
fn assert_bitwise_equal(a: &RepairReport, b: &RepairReport, label: &str) {
    assert_eq!(a.repairs.len(), b.repairs.len(), "{label}: repair count");
    for (x, y) in a.repairs.iter().zip(&b.repairs) {
        assert_eq!(x.cell, y.cell, "{label}");
        assert_eq!((x.old, x.new), (y.old, y.new), "{label}: symbols");
        assert_eq!(x.old_value, y.old_value, "{label}");
        assert_eq!(x.new_value, y.new_value, "{label}");
        assert_eq!(
            x.probability.to_bits(),
            y.probability.to_bits(),
            "{label}: probability bits of {:?}",
            x.cell
        );
    }
    assert_eq!(
        a.posteriors.len(),
        b.posteriors.len(),
        "{label}: posteriors"
    );
    for (x, y) in a.posteriors.iter().zip(&b.posteriors) {
        assert_eq!(x.cell, y.cell, "{label}");
        assert_eq!(
            x.candidates.len(),
            y.candidates.len(),
            "{label}: {:?}",
            x.cell
        );
        for ((sx, px), (sy, py)) in x.candidates.iter().zip(&y.candidates) {
            assert_eq!(sx, sy, "{label}: candidate symbol of {:?}", x.cell);
            assert_eq!(
                px.to_bits(),
                py.to_bits(),
                "{label}: posterior bits of {:?}",
                x.cell
            );
        }
    }
}

#[test]
fn hospital_streams_bit_identical_to_batch_at_any_split_and_thread_count() {
    let (schema, constraints, rows) = hospital_rows();
    let reference = one_shot(&schema, &constraints, &rows, 1);
    assert!(
        reference.repairs.len() > 5,
        "the generated hospital slice must need repairs (got {})",
        reference.repairs.len()
    );
    // One-shot is itself thread-count invariant (the PR 1 contract).
    for threads in [2, 4] {
        assert_bitwise_equal(
            &one_shot(&schema, &constraints, &rows, threads),
            &reference,
            &format!("one-shot threads={threads}"),
        );
    }
    for batches in [1, 4, 16] {
        for threads in [1, 2, 4] {
            let mut session = streamed(&schema, &constraints, &rows, batches, threads);
            let report = session.report();
            assert_bitwise_equal(
                &report,
                &reference,
                &format!("K={batches}, threads={threads}"),
            );
        }
    }
}

/// Insert-only K-batch ≡ one-shot under Algorithm 1 grounding with
/// Algorithm 3 partitioning (the exact and Gibbs engines run).
#[test]
fn hospital_streams_bit_identical_under_partitioned_dc_factors() {
    let (schema, constraints, rows) = hospital_rows();
    let config = |threads: usize| {
        HoloConfig::default()
            .with_threads(threads)
            .with_variant(ModelVariant::DcFactorsPartitioned)
    };
    let reference = one_shot_with(&schema, &constraints, &rows, config(1)).report;
    assert!(!reference.posteriors.is_empty());
    for (batches, threads) in [(1, 2), (4, 1), (16, 4)] {
        let mut session = streamed_with(&schema, &constraints, &rows, batches, config(threads));
        assert_bitwise_equal(
            &session.report(),
            &reference,
            &format!("dc-factors K={batches}, threads={threads}"),
        );
        let run = session.cached_run().expect("the read made it");
        assert!(run.model.stats.cliques > 0, "cliques grounded");
    }
}

#[test]
fn hospital_stream_never_rebuilds_after_the_first_batch() {
    let (schema, constraints, rows) = hospital_rows();
    let mut session =
        Session::new(schema, &constraints, HoloConfig::default().with_threads(1)).unwrap();
    let chunks: Vec<_> = rows.chunks(rows.len().div_ceil(16)).collect();
    let n_batches = chunks.len() as u64;
    for chunk in chunks {
        let before = session.dataset().tuple_count();
        session.push_batch(chunk).unwrap();
        assert_eq!(session.dataset().tuple_count(), before + chunk.len());
        // A push runs nothing — no detection, no model — on the first
        // batch or any later one.
        assert_eq!(session.design_stats().full_builds, 0);
        assert!(session.cached_run().is_none());
    }
    // The read runs the pipeline, once; a second read runs nothing.
    let _ = session.report();
    let _ = session.report();
    assert_eq!(session.design_stats().full_builds, 1);
    assert_eq!(session.design_stats().vars_patched, 0);
    assert_eq!(session.retire_stats().compactions, 0);
    let stats = session.ingest_stats();
    assert_eq!(stats.batches, n_batches);
    assert_eq!(stats.tuples as usize, rows.len());
    assert_eq!(stats.canonical_retrains, 1);
    assert!(stats.vars_added > 0);
    assert!(stats.cells_recomputed > 0);
    let detection = &session.cached_run().expect("the read made it").detection;
    let schema = session.dataset().schema();
    let outcome = one_shot_with(schema, &constraints, &rows, HoloConfig::default());
    assert!(outcome.violations > 0, "the slice must violate its DCs");
    assert_eq!(detection.violations, outcome.violations);
    assert_eq!(detection.noisy.len(), outcome.noisy_cells);
    let timings = session.cached_run().unwrap().timings;
    assert!(timings.detect + timings.compile > std::time::Duration::ZERO);
}

/// Mirrors `end_to_end::diverging_learning_rate_is_a_typed_error_not_nan_repairs`:
/// a streamed read surfaces the divergence instead of repairs, and the
/// session survives it.
#[test]
fn diverging_learning_rate_is_a_typed_error_from_try_report() {
    let (schema, constraints, rows) = hospital_rows();
    let mut config = HoloConfig::default().with_threads(1);
    config.learn.learning_rate = 1e308;
    let mut session = streamed_with(&schema, &constraints, &rows, 4, config);
    for _ in 0..2 {
        match session.try_report() {
            Err(HoloError::LearnDiverged {
                non_finite_minibatches,
                minibatches,
            }) => {
                assert!(non_finite_minibatches > 0);
                assert!(non_finite_minibatches <= minibatches);
            }
            Err(other) => panic!("expected LearnDiverged, got {other}"),
            Ok(_) => panic!("a diverged read must not produce a report"),
        }
        assert!(
            session.cached_run().is_none(),
            "a failed read caches nothing"
        );
    }
    assert_eq!(session.dataset().tuple_count(), rows.len());
}

#[test]
fn stream_counts_match_one_shot_detection() {
    let (schema, constraints, rows) = hospital_rows();
    let mut session = streamed(&schema, &constraints, &rows, 4, 1);
    // The read's detection equals the one-shot detection totals.
    let outcome = one_shot_with(&schema, &constraints, &rows, HoloConfig::default());
    let _ = session.report();
    let run = session.cached_run().expect("the read made it");
    assert_eq!(run.detection.violations, outcome.violations);
    assert_eq!(run.detection.noisy.len(), outcome.noisy_cells);
    let shape = &run.model.stats;
    assert_eq!(shape.query_vars, outcome.model.query_vars);
    assert_eq!(shape.evidence_vars, outcome.model.evidence_vars);
}

fn zip_row(zip: &str, city: &str, state: &str) -> Vec<String> {
    vec![zip.to_string(), city.to_string(), state.to_string()]
}

/// The two cases where the row store's coordinates are not the one-shot
/// run's, pinned by id: a constraint constant the session could intern
/// before any row, and a feed whose deletes leave gaps and whose updates
/// intern values no final row holds. The read must equal `HoloClean::run` over the final
/// live rows field by field — `TupleId`s, `Sym`s, strings, probability
/// bits — and the table it ran on must be the one-shot table, pool order
/// included.
#[test]
fn crud_feed_with_a_constraint_constant_reads_in_one_shot_coordinates() {
    let schema = Schema::new(vec!["Zip", "City", "State"]);
    let constraints = "FD: Zip -> City\n\
         t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)&EQ(t1.State,\"IL\")";
    let mut rows = vec![zip_row("60608", "Chicago", "IL"); 7];
    rows.push(zip_row("60608", "Cicago", "IL"));
    rows.extend(vec![zip_row("60609", "Evanston", "IL"); 5]);
    rows.push(zip_row("60609", "Evanstn", "IL"));
    rows.extend(vec![zip_row("53703", "Madison", "WI"); 4]);
    rows.push(zip_row("53703", "Madisn", "WI"));
    let decoy = zip_row("99999", "Nowhere", "ZZ");
    for variant in [ModelVariant::DcFeats, ModelVariant::DcFactorsPartitioned] {
        for threads in [1, 4] {
            let label = format!("{variant:?}, threads = {threads}");
            let config = HoloConfig::default()
                .with_threads(threads)
                .with_variant(variant);
            let mut session = Session::new(schema.clone(), constraints, config.clone()).unwrap();
            // `mirror[t]` is row `t` of the session, `None` once deleted.
            let mut mirror: Vec<Option<Vec<String>>> = Vec::new();
            let mut push = |session: &mut Session, batch: Vec<Vec<String>>| {
                session.push_batch(&batch).unwrap();
                mirror.extend(batch.into_iter().map(Some));
            };
            // A decoy between real rows, and a clean row first mangled
            // into values no final row holds, then healed.
            let mut first = rows[..9].to_vec();
            first.insert(4, decoy.clone());
            push(&mut session, first);
            let mangled = TupleId(2);
            let transient = zip_row("60608~", "Chicagoo", "I L");
            session.push_updates(&[(mangled, transient)]).unwrap();
            let mut second = rows[9..].to_vec();
            second.push(decoy.clone());
            push(&mut session, second);
            let decoys = [TupleId(4), TupleId(mirror.len() as u32 - 1)];
            session.push_deletes(&decoys).unwrap();
            session.push_updates(&[(mangled, rows[2].clone())]).unwrap();
            // Two clean rows leave gaps too.
            session.push_deletes(&[TupleId(0), TupleId(12)]).unwrap();
            for t in [4, mirror.len() - 1, 0, 12] {
                mirror[t] = None;
            }
            let live: Vec<Vec<String>> = mirror.into_iter().flatten().collect();
            assert_eq!(live.len(), rows.len() - 2, "{label}");

            let report = session.report();
            let outcome = one_shot_with(&schema, constraints, &live, config);
            assert!(
                !outcome.report.repairs.is_empty(),
                "{label}: the feed must need repairs"
            );
            assert_eq!(report, outcome.report, "{label}");
            assert_bitwise_equal(&report, &outcome.report, &label);
            assert!(
                !session
                    .dataset()
                    .pool()
                    .iter()
                    .eq(outcome.dataset.pool().iter()),
                "{label}: the row store's pool must differ, or nothing is pinned"
            );
            let table = session.cached_table().expect("the read made it");
            assert!(
                table.pool().iter().eq(outcome.dataset.pool().iter()),
                "{label}: the read's pool is the one-shot pool"
            );
            assert_eq!(table.tuple_count(), live.len(), "{label}");
        }
    }
}

/// A session carries the zip dictionary: its read matches the dictionary
/// against the compacted live table, so after deletes and an update it
/// equals `HoloClean::with_dictionary` over the final live rows, `Sym`s
/// and probability bits included. A dependency naming a missing attribute
/// is a rejected edit.
#[test]
fn a_stream_with_a_dictionary_reads_like_the_one_shot_run_with_it() {
    let gen = hospital(HospitalConfig {
        rows: 120,
        seed: 23,
        ..HospitalConfig::default()
    });
    let dict = gen
        .dictionary
        .clone()
        .expect("hospital has a zip dictionary");
    let dependency = |name, attr, ext| {
        MatchingDependency::equalities(name, &[("ZipCode", "Ext_Zip")], (attr, ext))
    };
    let deps = vec![
        dependency("m1", "City", "Ext_City"),
        dependency("m2", "State", "Ext_State"),
    ];
    let rows = string_rows(&gen.dirty);
    let config = HoloConfig::default().with_threads(2);
    let schema = gen.dirty.schema().clone();
    let mut session = Session::new(schema, &gen.constraints_text, config.clone()).unwrap();
    session.push_batch(&rows[..60]).unwrap();
    let bad = vec![dependency("m3", "Nowhere", "Ext_City")];
    let err = session.with_dictionary(dict.clone(), bad).unwrap_err();
    assert!(matches!(err, HoloError::Stream(_)), "{err}");
    session.with_dictionary(dict.clone(), deps.clone()).unwrap();
    session.push_batch(&rows[60..]).unwrap();
    session.push_deletes(&[TupleId(3), TupleId(70)]).unwrap();
    let mut healed = rows[5].clone();
    healed[0].push_str(" (renamed)");
    session
        .push_updates(&[(TupleId(5), healed.clone())])
        .unwrap();
    let report = session.report();

    let mut live = rows.clone();
    live[5] = healed;
    let live: Vec<Vec<String>> = (0..live.len())
        .filter(|&t| t != 3 && t != 70)
        .map(|t| live[t].clone())
        .collect();
    let mut ds = Dataset::new(gen.dirty.schema().clone());
    for row in &live {
        ds.push_row(row);
    }
    let holo = || {
        HoloClean::new(ds.clone())
            .with_constraint_text(&gen.constraints_text)
            .unwrap()
            .with_dictionary(dict.clone(), deps.clone())
            .with_config(config.clone())
    };
    let matches = holo().into_context().unwrap().matches;
    assert!(!matches.is_empty(), "the dictionary must match live cells");
    let (outcome, _, _) = holo().run_full().unwrap();
    assert_eq!(report, outcome.report);
    assert_bitwise_equal(&report, &outcome.report, "dictionary");
    let table = session.cached_table().expect("the read made it");
    assert!(table.pool().iter().eq(outcome.dataset.pool().iter()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random row streams under random batch splits report
    /// byte-identically to the one-shot pipeline.
    #[test]
    fn random_streams_stay_patch_equal_and_batch_equivalent(
        rows in proptest::collection::vec((0u8..4, 0u8..5, 0u8..2), 4..40),
        batches in 1usize..5,
        threads in 1usize..3,
    ) {
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(z, c, s)| vec![format!("z{z}"), format!("c{c}"), format!("s{s}")])
            .collect();
        let schema = Schema::new(vec!["Zip", "City", "State"]);
        let constraints = "FD: Zip -> City\nFD: City, State -> Zip";
        let mut session = streamed(&schema, constraints, &rows, batches, threads);
        prop_assert_eq!(session.report(), one_shot(&schema, constraints, &rows, 1));
    }
}

/// A session over the generated hospital table, fed in one batch.
fn hospital_session(rows: usize, seed: u64, threads: usize) -> (Session, Dataset, Dataset) {
    let gen = hospital(HospitalConfig {
        rows,
        seed,
        ..HospitalConfig::default()
    });
    let config = HoloConfig::default().with_threads(threads);
    let schema = gen.dirty.schema().clone();
    let mut session = Session::new(schema, &gen.constraints_text, config).unwrap();
    session.push_batch(&string_rows(&gen.dirty)).unwrap();
    (session, gen.dirty, gen.clean)
}

/// Runs a two-round feedback session over a generated hospital dataset at
/// the given thread count, labelling low-confidence cells with their clean
/// values plus one novel (out-of-domain) value per round. Returns the
/// trace of requests and repairs and the final report.
fn feedback_loop(threads: usize) -> (Vec<(String, u64)>, RepairReport) {
    let (mut session, _, clean) = hospital_session(120, 23, threads);
    let mut trace: Vec<(String, u64)> = Vec::new();
    for round in 0..2 {
        let requests = session.requests(4).unwrap();
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
                    clean.cell_str(r.cell.tuple, r.cell.attr).to_string()
                },
            })
            .collect();
        session.apply_labels(&labels).unwrap();
        for repair in &session.try_report().unwrap().repairs {
            trace.push((
                format!(
                    "round {round} repair {:?} -> {}",
                    repair.cell, repair.new_value
                ),
                repair.probability.to_bits(),
            ));
        }
    }
    assert!(session.cached_run().unwrap().timings.partition.components > 1);
    (trace, session.try_report().unwrap())
}

/// The full loop — requests, labels, report — is bit-for-bit identical at
/// every thread count.
#[test]
fn feedback_loop_is_thread_count_invariant() {
    let (reference, ref_report) = feedback_loop(1);
    assert!(!reference.is_empty(), "the loop produced requests/repairs");
    for threads in [2, 4] {
        let (trace, report) = feedback_loop(threads);
        assert_eq!(trace, reference, "threads = {threads}");
        assert_eq!(report, ref_report, "threads = {threads}");
    }
}

/// Labels reach the table, so they correct the statistics and detection
/// the rest of the table reads: on the 600-row hospital table, three
/// rounds of ten oracle labels never bring precision below the unlabelled
/// run's.
#[test]
fn precision_never_falls_as_labels_arrive() {
    let (mut session, dirty, clean) = hospital_session(600, HospitalConfig::default().seed, 0);
    let round0 = evaluate(&session.try_report().unwrap(), &dirty, &clean);
    for round in 1..=3 {
        let labels: Vec<Label> = session
            .requests(10)
            .unwrap()
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect();
        session.apply_labels(&labels).unwrap();
        let q = evaluate(&session.try_report().unwrap(), &dirty, &clean);
        assert!(
            q.precision >= round0.precision,
            "round {round}: precision {} fell below round 0's {}",
            q.precision,
            round0.precision
        );
    }
}
