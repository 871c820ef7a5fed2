//! The §2.2/§7 feedback loop: ask a human about the lowest-confidence
//! repairs, write their answers into the table, and read again.
//!
//! ```text
//! cargo run --release --example active_feedback
//! ```
//!
//! Uses each generator's ground truth as the "human" oracle and prints
//! precision / recall / F1 after 0, 10, …, 100 labels on two tables: the
//! 600-row hospital table and the `food_18k` table (no dictionary). Exits
//! non-zero if any round's precision falls below the unlabelled run's.

use holoclean_repro::holo_datagen::{food, hospital, FoodConfig, GeneratedDataset, HospitalConfig};
use holoclean_repro::holoclean::feedback::{FeedbackSession, Label};
use holoclean_repro::holoclean::{evaluate, HoloClean, HoloConfig};
use std::process::ExitCode;

const ROUNDS: usize = 10;
const LABELS_PER_ROUND: usize = 10;

/// Runs the loop on one table; returns whether precision held in every
/// round.
fn curve(name: &str, gen: &GeneratedDataset) -> bool {
    let holo = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .expect("constraints parse")
        .with_config(HoloConfig::default().with_tau(gen.kind.paper_tau()));
    let mut session = FeedbackSession::new(holo).expect("session opens");
    println!("{name}:");
    let mut floor = None;
    let mut held = true;
    for round in 0..=ROUNDS {
        if round > 0 {
            // Ask about the least-confident cells; answer from ground truth
            // (in production this is the human reviewer).
            let labels: Vec<Label> = session
                .requests(LABELS_PER_ROUND)
                .expect("the run succeeds")
                .iter()
                .map(|r| Label {
                    cell: r.cell,
                    value: gen.clean.cell_str(r.cell.tuple, r.cell.attr).to_string(),
                })
                .collect();
            session
                .apply_labels(&labels)
                .expect("labels name table cells");
        }
        let report = session.try_report().expect("the run succeeds");
        let q = evaluate(&report, &gen.dirty, &gen.clean);
        let p0 = *floor.get_or_insert(q.precision);
        let fell = q.precision < p0;
        held &= !fell;
        println!(
            "  {:>3} labels: P {:.3}  R {:.3}  F1 {:.3}  ({} of {} repairs correct){}",
            session.labelled_count(),
            q.precision,
            q.recall,
            q.f1,
            q.correct_repairs,
            q.total_repairs,
            if fell {
                "  <- precision below round 0"
            } else {
                ""
            }
        );
    }
    held
}

fn main() -> ExitCode {
    let hospital_600 = hospital(HospitalConfig {
        rows: 600,
        ..HospitalConfig::default()
    });
    let food_18k = food(FoodConfig::default());
    let held = curve("hospital (600 rows)", &hospital_600) & curve("food_18k", &food_18k);
    if held {
        ExitCode::SUCCESS
    } else {
        eprintln!("precision fell below its unlabelled value");
        ExitCode::FAILURE
    }
}
