//! Reproduces **Table 4**: wall-clock runtime of each data-cleaning system
//! on each dataset. Like the paper, HoloClean's time covers violation
//! detection + compilation + learning/inference end-to-end.

use holo_bench::runner::{run_baseline, run_holoclean, Baseline};
use holo_bench::table::{fmt_duration, TableWriter};
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
    println!("Table 4: Runtime analysis of different data cleaning methods");
    println!(
        "(synthetic reproductions; scale ×{}, seed {})\n",
        args.scale, args.seed
    );

    let mut table = TableWriter::new(vec!["Dataset", "HoloClean", "Holistic", "KATARA", "SCARE"]);
    for kind in DatasetKind::all() {
        let gen = build(kind, scale);
        let holo = run_holoclean(&gen, HoloConfig::default(), None, false);
        let holo_time = fmt_duration(holo.timings.total());
        let mut cells = vec![kind.name().to_string(), holo_time];
        for b in Baseline::all() {
            let out = run_baseline(&gen, b, budget);
            cells.push(if !out.applicable {
                "n/a".to_string()
            } else if out.dnf {
                "-".to_string()
            } else {
                fmt_duration(out.runtime)
            });
        }
        table.row(cells);
    }
    table.print();
    println!("\nA dash indicates the system failed to terminate within the");
    println!(
        "{}s budget (the paper used a three-day threshold).",
        args.scare_budget_secs
    );
}
