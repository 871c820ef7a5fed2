//! Reproduces **Figure 3**: the effect of the pruning threshold τ on the
//! precision and recall of HoloClean's repairs, for every dataset and
//! τ ∈ {0.3, 0.5, 0.7, 0.9}.

use holo_bench::runner::run_holoclean;
use holo_bench::table::{fmt3, TableWriter};
use holo_bench::{build, Args, Scale};
use holo_datagen::DatasetKind;
use holoclean::HoloConfig;

fn main() {
    holo_bench::exit_quietly_on_closed_stdout();
    let args = Args::parse(std::env::args());
    let scale = Scale {
        factor: args.scale,
        seed: args.seed,
        full: args.full,
    };
    println!("Figure 3: Effect of pruning on Precision and Recall");
    println!(
        "(synthetic reproductions; scale ×{}, seed {})\n",
        args.scale, args.seed
    );

    let mut table = TableWriter::new(vec![
        "Dataset",
        "tau",
        "Precision",
        "Recall",
        "F1",
        "Query vars",
        "Candidates",
    ]);
    for kind in DatasetKind::all() {
        let gen = build(kind, scale);
        for tau in [0.3, 0.5, 0.7, 0.9] {
            let out = run_holoclean(&gen, HoloConfig::default(), Some(tau), false);
            table.row(vec![
                kind.name().to_string(),
                format!("{tau}"),
                fmt3(out.quality.precision),
                fmt3(out.quality.recall),
                fmt3(out.quality.f1),
                out.model.query_vars.to_string(),
                out.model.total_candidates.to_string(),
            ]);
        }
    }
    table.print();
    println!("\nExpected shape (paper §6.3.1): recall falls as tau rises (the");
    println!("candidate space shrinks), precision generally rises; Flights is");
    println!("the exception where aggressive pruning also hurts precision");
    println!("because the truth disappears from the candidate set.");
}
