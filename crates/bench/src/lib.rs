//! Experiment harness reproducing every table and figure of the HoloClean
//! paper's evaluation (§6).
//!
//! One binary per artifact (see `src/bin/`):
//!
//! | binary    | paper artifact | content |
//! |-----------|----------------|---------|
//! | `table2`  | Table 2        | dataset parameters |
//! | `table3`  | Table 3        | P/R/F1 of all four systems |
//! | `table4`  | Table 4        | wall-clock runtimes |
//! | `fig3`    | Figure 3       | precision/recall vs τ |
//! | `fig4`    | Figure 4       | compile/repair runtime vs τ |
//! | `fig5`    | Figure 5       | the five model variants on Food |
//! | `fig6`    | Figure 6       | error rate per marginal bucket |
//! | `ext_dict`| §6.3.2         | external-dictionary lift |
//!
//! Every binary accepts `--scale <f64>` (default 1.0; row counts scale
//! linearly) and `--seed <u64>`; `--full` approximates paper-scale rows
//! for Food and Physicians.

pub mod datasets;
pub mod json;
pub mod runner;
pub mod table;

pub use datasets::{build, default_scale, Scale};
pub use runner::{run_baseline, run_holoclean, stream_feed, BaselineOutcome, HoloOutcome};
pub use table::TableWriter;

/// Makes a reader that closes stdout early (`diag | head -1`) end the
/// binary quietly with status 0. Rust ignores `SIGPIPE`, so the next
/// `println!` fails with `EPIPE` and panics with "failed printing to
/// stdout: Broken pipe"; this panic hook turns exactly that panic into
/// `exit(0)` and hands every other panic to the default hook. Called first
/// thing in every binary's `main`.
pub fn exit_quietly_on_closed_stdout() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if message.starts_with("failed printing to stdout") && message.contains("Broken pipe") {
            std::process::exit(0);
        }
        default(info);
    }));
}

/// Minimal CLI-flag parsing shared by the experiment binaries (no external
/// argument-parsing crate in the allowed dependency set).
#[derive(Debug, Clone)]
pub struct Args {
    /// Row-count multiplier.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Paper-scale rows for the two big datasets.
    pub full: bool,
    /// SCARE wall-clock budget in seconds (it DNFs past this).
    pub scare_budget_secs: u64,
    /// Machine-readable JSON output instead of the human tables (honoured
    /// by the binaries that track the bench trajectory, e.g. `diag`).
    pub json: bool,
    /// Streaming mode for `diag`/`dump_repairs`: ingest the dataset in
    /// this many batches through a stream `Session` instead of the one-shot
    /// pipeline (`0` = one-shot). Output must be byte-identical either
    /// way — that is the equivalence CI diffs.
    pub stream: usize,
    /// Worker-thread override (`0` = the config default, all cores).
    pub threads: usize,
    /// Dump per-cell posteriors too (`dump_repairs`).
    pub marginals: bool,
    /// Ground the denial constraints as clique factors instead of
    /// violation features (`diag`, `dump_repairs`): selects the partitioned
    /// DC-factor model variant, exercising the exact/Gibbs engines the
    /// default clique-free model never routes to.
    pub dc_factors: bool,
    /// Full-CRUD streaming drive (`diag`, `dump_repairs`; needs `--stream K`):
    /// every ingest batch is corrupted on entry (a mangled first row plus
    /// a decoy row) and then healed with `push_updates`/`push_deletes`,
    /// so the live table ends byte-identical to a plain ingest. The dump
    /// must equal the one-shot dump — that is the equivalence CI diffs.
    pub crud: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 1.0,
            seed: 42,
            full: false,
            scare_budget_secs: 120,
            json: false,
            stream: 0,
            threads: 0,
            marginals: false,
            dc_factors: false,
            crud: false,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`-style flags; unknown flags abort with a
    /// usage message.
    pub fn parse(argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut argv = argv.skip(1);
        while let Some(flag) = argv.next() {
            match flag.as_str() {
                "--scale" => {
                    args.scale = argv
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&s: &f64| s.is_finite() && s > 0.0)
                        .unwrap_or_else(|| usage("--scale needs a positive number"));
                }
                "--seed" => {
                    args.seed = argv
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--scare-budget" => {
                    args.scare_budget_secs = argv
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scare-budget needs seconds"));
                }
                "--stream" => {
                    args.stream = argv
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--stream needs a batch count"));
                }
                "--threads" => {
                    args.threads = argv
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--threads needs a count"));
                }
                "--full" => args.full = true,
                "--json" => args.json = true,
                "--marginals" => args.marginals = true,
                "--dc-factors" => args.dc_factors = true,
                "--crud" => args.crud = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other:?}")),
            }
        }
        if args.crud && args.stream == 0 {
            usage("--crud drives the streaming engine; pass --stream K too");
        }
        args
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--scale F] [--seed N] [--full] [--json] [--scare-budget SECS]\n\
         \x20            [--stream K] [--threads N] [--marginals] [--dc-factors] [--crud]\n\
         \n\
         --scale F          row-count multiplier, > 0 (default 1.0)\n\
         --seed N           generator seed (default 42)\n\
         --full             paper-scale rows for Food and Physicians\n\
         --json             machine-readable JSON output (diag)\n\
         --scare-budget S   SCARE wall-clock budget in seconds (default 120)\n\
         --stream K         ingest in K batches via a stream Session (diag, dump_repairs)\n\
         --threads N        worker-thread override, 0 = all cores (diag, dump_repairs)\n\
         --marginals        also dump per-cell posteriors (dump_repairs)\n\
         --dc-factors       partitioned DC-factor model variant (diag, dump_repairs)\n\
         --crud             corrupt-and-heal every stream batch with updates and\n\
         \x20                  deletes; needs --stream (diag, dump_repairs)"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> impl Iterator<Item = String> {
        std::iter::once("bin".to_string())
            .chain(items.iter().map(|s| s.to_string()))
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parse_defaults() {
        let a = Args::parse(argv(&[]));
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.seed, 42);
        assert!(!a.full);
    }

    #[test]
    fn parse_flags() {
        let a = Args::parse(argv(&["--scale", "0.5", "--seed", "7", "--full", "--json"]));
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 7);
        assert!(a.full);
        assert!(a.json);
        assert_eq!(a.stream, 0);
        assert_eq!(a.threads, 0);
        assert!(!a.marginals);
    }

    #[test]
    fn parse_stream_flags() {
        let a = Args::parse(argv(&["--stream", "16", "--threads", "4", "--marginals"]));
        assert_eq!(a.stream, 16);
        assert_eq!(a.threads, 4);
        assert!(a.marginals);
        assert!(!a.dc_factors);
    }

    #[test]
    fn parse_variant_flag() {
        let a = Args::parse(argv(&["--dc-factors"]));
        assert!(a.dc_factors);
        assert!(!a.crud);
    }

    #[test]
    fn parse_crud_flag() {
        let a = Args::parse(argv(&["--stream", "4", "--crud"]));
        assert_eq!(a.stream, 4);
        assert!(a.crud);
    }
}
