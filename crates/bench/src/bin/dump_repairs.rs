//! Dumps the full repair list of a default-config hospital run, one line
//! per repair, for before/after equivalence diffs during refactors.
//!
//! With `--marginals`, additionally dumps every query cell's posterior
//! (one `MARGINAL` line per cell, candidates in domain order, printed at
//! shortest round-trip precision so any bit-level probability change
//! shows in a diff) — repairs only surface the MAP candidate, so this is
//! the view that diffs exact-vs-Gibbs routing changes which move
//! probability mass without flipping any repair.
//!
//! With `--stream K`, the dataset is ingested in K batches through a
//! stream `Session` (`holo_bench::stream_feed`) instead of the one-shot
//! pipeline. The session's
//! equivalence contract says the output is **byte-identical** either way
//! — CI runs both and diffs them. Adding `--crud` corrupts every batch on
//! entry (a mangled first row plus a decoy row) and heals it with
//! `push_updates`/`push_deletes`, so the live rows — and therefore the
//! dump — still match one-shot byte for byte, now exercising deletes,
//! in-place updates and the compaction a read makes.
//!
//! With `--dc-factors`, the denial constraints ground as clique factors
//! (the partitioned DC-factor variant) so the dump exercises the exact
//! and Gibbs engines; `--dc-factors --stream` is a supported pair. With
//! `--threads N`, the dump must not move a byte against any other thread
//! count — CI diffs it at 1, 2 and 4.
//!
//! Flags are parsed strictly (`holo_bench::Args`): a typo'd flag aborts
//! with a usage line and exit code 2 instead of being silently dropped.

use holo_bench::runner::run_holoclean_full;
use holo_bench::{build, stream_feed, Args, Scale};
use holo_datagen::DatasetKind;
use holoclean::{evaluate, HoloConfig, ModelVariant};

fn main() {
    holo_bench::exit_quietly_on_closed_stdout();
    let args = Args::parse(std::env::args());
    let gen = build(
        DatasetKind::Hospital,
        Scale {
            factor: args.scale,
            seed: 7,
            full: false,
        },
    );
    let mut config = HoloConfig::default().with_threads(args.threads);
    if args.dc_factors {
        config = config.with_variant(ModelVariant::DcFactorsPartitioned);
    }
    // A streamed report speaks the compacted table's coordinates, not the
    // row store's: it is resolved and scored against that table.
    let (report, table, norm) = if args.stream > 0 {
        let mut session =
            stream_feed(&gen, config, args.stream, args.crud).expect("hospital streams");
        let report = session.report();
        let run = session.cached_run().expect("the read above made it");
        let table = session.cached_table().expect("the read above made it");
        let norm = run
            .weights
            .learnable_norm(run.model.graph.design().weight_ids());
        (report, table.clone(), norm)
    } else {
        let (out, model, weights) = run_holoclean_full(&gen, config, None, false);
        let norm = weights.learnable_norm(model.graph.design().weight_ids());
        (out.report, gen.dirty.clone(), norm)
    };
    let quality = evaluate(&report, &table, &gen.clean);

    let mut lines: Vec<String> = report
        .repairs
        .iter()
        .map(|r| {
            format!(
                "{:?} {:?} -> {:?} p={:.12}",
                r.cell, r.old_value, r.new_value, r.probability
            )
        })
        .collect();
    lines.sort();
    for l in &lines {
        println!("{l}");
    }
    if args.marginals {
        let mut mlines: Vec<String> = report
            .posteriors
            .iter()
            .map(|p| {
                let cands: Vec<String> = p
                    .candidates
                    .iter()
                    .map(|(sym, pr)| format!("{:?}={pr}", table.value_str(*sym)))
                    .collect();
                format!("MARGINAL {:?} {}", p.cell, cands.join(" "))
            })
            .collect();
        mlines.sort();
        for l in &mlines {
            println!("{l}");
        }
    }
    println!(
        "TOTAL {} repairs, P={:.6} R={:.6} F1={:.6}, |w|={:.12}",
        lines.len(),
        quality.precision,
        quality.recall,
        quality.f1,
        norm
    );
}
