//! The feedback loop and the stream session end to end:
//!
//! 1. the whole feedback loop (requests → apply_labels → report) is
//!    bit-for-bit identical across thread counts, and on hospital its
//!    precision never falls below the unlabelled run's;
//! 2. random row streams under random batch splits report
//!    byte-identically to the one-shot pipeline.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holoclean::feedback::{FeedbackSession, Label};
use holoclean_repro::holoclean::{evaluate, HoloClean, HoloConfig, RepairReport};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
/// values plus one novel (out-of-domain) value per round. Returns the
/// trace of requests and repairs and the final report.
fn feedback_loop(threads: usize) -> (Vec<(String, u64)>, RepairReport) {
    let gen = hospital(HospitalConfig {
        rows: 120,
        seed: 23,
        ..HospitalConfig::default()
    });
    let holo = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap()
        .with_config(HoloConfig::default().with_threads(threads));
    let mut session = FeedbackSession::new(holo).unwrap();
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
                    gen.clean.cell_str(r.cell.tuple, r.cell.attr).to_string()
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
    assert!(session.timings().partition.components > 1);
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
    let gen = hospital(HospitalConfig {
        rows: 600,
        ..HospitalConfig::default()
    });
    let holo = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap();
    let mut session = FeedbackSession::new(holo).unwrap();
    let round0 = evaluate(&session.try_report().unwrap(), &gen.dirty, &gen.clean);
    for round in 1..=3 {
        let labels: Vec<Label> = session
            .requests(10)
            .unwrap()
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: gen.clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect();
        session.apply_labels(&labels).unwrap();
        let q = evaluate(&session.try_report().unwrap(), &gen.dirty, &gen.clean);
        assert!(
            q.precision >= round0.precision,
            "round {round}: precision {} fell below round 0's {}",
            q.precision,
            round0.precision
        );
    }
}
