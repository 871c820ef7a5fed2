//! The streaming-equivalence contract:
//!
//! 1. feeding hospital in K batches yields repairs **byte-identical** to
//!    the one-shot pipeline — cells, values, and full posteriors — for
//!    K ∈ {1, 4, 16} at every thread count, under the default model and
//!    the partitioned DC-factor variant;
//! 2. pushes only edit the row store: detection, statistics and the model
//!    are the read's one-shot run over the compacted live rows, and a
//!    failing read is a typed error;
//! 3. a read's coordinates are the one-shot run's — `TupleId`s and `Sym`s
//!    included — even when deletes leave gaps, updates intern values no
//!    final row holds, and a constraint carries a quoted constant.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holo_dataset::{Dataset, Schema, TupleId};
use holoclean_repro::holoclean::stream::StreamSession;
use holoclean_repro::holoclean::{
    HoloClean, HoloConfig, HoloError, ModelVariant, RepairOutcome, RepairReport,
};

fn hospital_rows() -> (Schema, String, Vec<Vec<String>>) {
    let gen = hospital(HospitalConfig {
        rows: 120,
        seed: 23,
        ..HospitalConfig::default()
    });
    let schema = gen.dirty.schema().clone();
    let rows: Vec<Vec<String>> = gen
        .dirty
        .tuples()
        .map(|t| {
            schema
                .attrs()
                .map(|a| gen.dirty.cell_str(t, a).to_string())
                .collect()
        })
        .collect();
    (schema, gen.constraints_text.clone(), rows)
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
) -> StreamSession {
    let mut session = StreamSession::new(schema.clone(), constraints, config).unwrap();
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
) -> StreamSession {
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
        StreamSession::new(schema, &constraints, HoloConfig::default().with_threads(1)).unwrap();
    let chunks: Vec<_> = rows.chunks(rows.len().div_ceil(16)).collect();
    let n_batches = chunks.len() as u64;
    for chunk in chunks {
        let batch = session.push_batch(chunk).unwrap();
        assert_eq!(batch.appended, chunk.len());
        // A push runs nothing — no detection, no model — on the first
        // batch or any later one.
        assert_eq!(session.design_stats().full_builds, 0);
        assert!(session.cached_run().is_none());
        assert_eq!(session.violations(), None);
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
    let timings = session.timings();
    assert_eq!(timings.ingest, stats);
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
    assert_eq!(session.violations(), Some(outcome.violations));
    assert_eq!(session.noisy_cells(), Some(outcome.noisy_cells));
    let shape = &session.cached_run().expect("the read made it").model.stats;
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
            let mut session =
                StreamSession::new(schema.clone(), constraints, config.clone()).unwrap();
            // `mirror[t]` is row `t` of the session, `None` once deleted.
            let mut mirror: Vec<Option<Vec<String>>> = Vec::new();
            let mut push = |session: &mut StreamSession, batch: Vec<Vec<String>>| {
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
