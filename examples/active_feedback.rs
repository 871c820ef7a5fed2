//! The §2.2/§7 feedback loop: ask a human about the lowest-confidence
//! repairs, pin their answers as labels, retrain incrementally.
//!
//! ```text
//! cargo run --release --example active_feedback
//! ```
//!
//! Uses the Hospital generator's ground truth as the "human" oracle and
//! shows precision/recall improving over three feedback rounds of ten
//! labels each.

use holoclean_repro::holo_datagen::{hospital, HospitalConfig};
use holoclean_repro::holoclean::feedback::{FeedbackSession, Label};
use holoclean_repro::holoclean::{evaluate, HoloClean, HoloConfig};

fn main() {
    let gen = hospital(HospitalConfig {
        rows: 600,
        ..HospitalConfig::default()
    });
    let config = HoloConfig::default();
    let (outcome, model, weights) = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .expect("constraints parse")
        .with_config(config.clone())
        .run_full()
        .expect("pipeline runs");
    let mut ds = outcome.dataset;
    let mut session = FeedbackSession::new(model, weights, config, &ds);

    let q = evaluate(&session.report(&ds), &gen.dirty, &gen.clean);
    println!(
        "round 0 (no feedback):  P {:.3}  R {:.3}  F1 {:.3}",
        q.precision, q.recall, q.f1
    );

    for round in 1..=3 {
        // Ask about the ten least-confident cells; answer from ground
        // truth (in production this is the human reviewer).
        let requests = session.requests(&ds, 10);
        if requests.is_empty() {
            println!("nothing left to verify");
            break;
        }
        let avg_confidence: f64 =
            requests.iter().map(|r| r.confidence).sum::<f64>() / requests.len() as f64;
        let labels: Vec<Label> = requests
            .iter()
            .map(|r| Label {
                cell: r.cell,
                value: gen.clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
            })
            .collect();
        session.apply_labels(&mut ds, &labels);
        let stats = session.retrain(&ds).expect("retraining converges");
        let q = evaluate(&session.report(&ds), &gen.dirty, &gen.clean);
        println!(
            "round {round} (+10 labels, asked at avg confidence {avg_confidence:.2}): \
             P {:.3}  R {:.3}  F1 {:.3}  (log-likelihood {:.3})",
            q.precision, q.recall, q.f1, stats.final_log_likelihood
        );
    }
    println!(
        "\n{} cells verified in total; every verified cell is now evidence for\n\
         future runs (\"standard incremental learning and inference\", §2.2).",
        session.labelled_count()
    );
}
