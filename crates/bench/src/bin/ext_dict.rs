//! Reproduces the **§6.3.2 experiment**: repair quality with and without
//! the external address dictionary (the one KATARA uses), via the three
//! matching dependencies of Figure 1(C). The paper reports F1 gains below
//! 1% — limited by the dictionary's coverage, not by the mechanism.

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
    println!("§6.3.2: External dictionaries in HoloClean");
    println!(
        "(synthetic reproductions; scale ×{}, seed {})\n",
        args.scale, args.seed
    );

    let mut table = TableWriter::new(vec!["Dataset", "F1 (no dict)", "F1 (with dict)", "Delta"]);
    for kind in DatasetKind::all() {
        let gen = build(kind, scale);
        if gen.dictionary.is_none() {
            table.row(vec![
                kind.name().to_string(),
                "-".into(),
                "n/a".into(),
                "-".into(),
            ]);
            continue;
        }
        let without = run_holoclean(&gen, HoloConfig::default(), None, false);
        let with = run_holoclean(&gen, HoloConfig::default(), None, true);
        table.row(vec![
            kind.name().to_string(),
            fmt3(without.quality.f1),
            fmt3(with.quality.f1),
            format!("{:+.3}", with.quality.f1 - without.quality.f1),
        ]);
    }
    table.print();
    println!("\nExpected shape (paper §6.3.2): small positive deltas — \"F1-score");
    println!("improvements of less than 1%\" — because dictionary coverage is");
    println!("limited relative to the error distribution.");
}
