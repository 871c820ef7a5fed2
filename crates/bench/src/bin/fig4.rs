//! Reproduces **Figure 4**: the effect of the pruning threshold τ on the
//! compilation and repairing (learning + inference) runtimes, per dataset.
//! The paper reports both in log scale; we print milliseconds.

use holo_bench::runner::run_holoclean;
use holo_bench::table::TableWriter;
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
    println!("Figure 4: Effect of pruning on Compilation and Repairing runtimes");
    println!(
        "(synthetic reproductions; scale ×{}, seed {})\n",
        args.scale, args.seed
    );

    let mut table = TableWriter::new(vec![
        "Dataset",
        "tau",
        "Detect (ms)",
        "Compile (ms)",
        "Repair (ms)",
        "Factors",
    ]);
    for kind in DatasetKind::all() {
        let gen = build(kind, scale);
        for tau in [0.3, 0.5, 0.7, 0.9] {
            let out = run_holoclean(&gen, HoloConfig::default(), Some(tau), false);
            table.row(vec![
                kind.name().to_string(),
                format!("{tau}"),
                format!("{:.0}", out.timings.detect.as_secs_f64() * 1e3),
                format!("{:.0}", out.timings.compile.as_secs_f64() * 1e3),
                format!("{:.0}", out.timings.repair().as_secs_f64() * 1e3),
                out.model.factors.to_string(),
            ]);
        }
    }
    table.print();
    println!("\nExpected shape (paper §6.3.1): compilation time is roughly flat");
    println!("in tau; repair time falls as tau rises because the model shrinks.");
}
