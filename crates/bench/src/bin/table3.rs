//! Reproduces **Table 3**: precision, recall and F1 of HoloClean vs
//! Holistic, KATARA and SCARE on all four datasets, with the per-dataset
//! pruning threshold τ of the paper. Also prints the §6.2 aggregate
//! claims (average precision/recall, F1 lift over each baseline).

use holo_bench::runner::{run_baseline, run_holoclean, Baseline};
use holo_bench::table::{fmt3, TableWriter};
use holo_bench::{build, Args, Scale};
use holo_datagen::DatasetKind;
use holoclean::HoloConfig;
use std::time::Duration;

fn main() {
    holo_bench::exit_quietly_on_closed_stdout();
    let args = Args::parse(std::env::args());
    let scale = Scale {
        factor: args.scale,
        seed: args.seed,
        full: args.full,
    };
    let budget = Duration::from_secs(args.scare_budget_secs);
    println!("Table 3: Precision, Recall and F1-score for different datasets");
    println!(
        "(synthetic reproductions; scale ×{}, seed {})\n",
        args.scale, args.seed
    );

    let mut table = TableWriter::new(vec![
        "Dataset (tau)",
        "Metric",
        "HoloClean",
        "Holistic",
        "KATARA",
        "SCARE",
    ]);

    let mut holo_f1 = Vec::new();
    let mut holo_p = Vec::new();
    let mut holo_r = Vec::new();
    let mut base_f1: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];

    for kind in DatasetKind::all() {
        let gen = build(kind, scale);
        let holo = run_holoclean(&gen, HoloConfig::default(), None, false);
        let baselines: Vec<_> = Baseline::all()
            .into_iter()
            .map(|b| run_baseline(&gen, b, budget))
            .collect();

        holo_p.push(holo.quality.precision);
        holo_r.push(holo.quality.recall);
        holo_f1.push(holo.quality.f1);
        for (i, b) in baselines.iter().enumerate() {
            if b.applicable && !b.dnf {
                base_f1[i].push(b.quality.f1);
            }
        }

        let cell = |which: usize, metric: usize| -> String {
            let b = &baselines[which];
            if !b.applicable {
                return "n/a".to_string();
            }
            if b.dnf {
                return "DNF+".to_string();
            }
            let v = match metric {
                0 => b.quality.precision,
                1 => b.quality.recall,
                _ => b.quality.f1,
            };
            fmt3(v)
        };
        let label = format!("{} ({})", kind.name(), kind.paper_tau());
        for (mi, mname) in ["Prec.", "Rec.", "F1"].iter().enumerate() {
            let hv = match mi {
                0 => holo.quality.precision,
                1 => holo.quality.recall,
                _ => holo.quality.f1,
            };
            table.row(vec![
                if mi == 0 {
                    label.clone()
                } else {
                    String::new()
                },
                (*mname).to_string(),
                fmt3(hv),
                cell(0, mi),
                cell(1, mi),
                cell(2, mi),
            ]);
        }
    }
    table.print();
    println!(
        "\n+ DNF: did not finish within the {}s budget (cf. the paper's",
        args.scare_budget_secs
    );
    println!("  three-day timeout for SCARE on Food and Physicians).");
    println!("  n/a: no external dictionary exists for the Flights domain.\n");

    // §6.2 aggregate claims.
    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    println!("Aggregates (paper §6.2: avg precision ≈ 0.90, avg recall ≈ 0.76,");
    println!("            >2x average F1 improvement over every baseline):");
    println!("  HoloClean avg precision = {}", fmt3(avg(&holo_p)));
    println!("  HoloClean avg recall    = {}", fmt3(avg(&holo_r)));
    println!("  HoloClean avg F1        = {}", fmt3(avg(&holo_f1)));
    for (i, b) in Baseline::all().into_iter().enumerate() {
        let bavg = avg(&base_f1[i]);
        let lift = if bavg > 0.0 {
            avg(&holo_f1) / bavg
        } else {
            f64::INFINITY
        };
        println!(
            "  vs {:<9} avg F1 = {} (HoloClean lift {:.2}x over finished runs)",
            b.name(),
            fmt3(bavg),
            lift
        );
    }
}
