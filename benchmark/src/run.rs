//! One benchmark run: one workload, measured for `--seconds`, every output
//! checked, the metrics printed as `workload metric value unit` lines and
//! then as the one-line JSON result the driver reads.
//!
//! A run is a closed loop — one client, one process, the next repair
//! starts when the previous one returned. A **round** is one repair at
//! `threads = 2` and one at `threads = 1`, interleaved so machine drift
//! lands on both series alike; every timing is the median over rounds.

use crate::alloc;
use crate::calib::{Calibrator, Timed};
use crate::json::Json;
use crate::metrics::{self, SpanSamples, Untraced};
use crate::staged::staged_repair;
use crate::stats::{median, spread};
use crate::trace::Tracer;
use crate::workloads::{self, crud_feed, digest, one_shot, Input, Workload};
use holo_dataset::csv;
use holoclean::{evaluate, RepairReport};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Thread counts of the two timed series. Fixed by the workload
/// definitions, whatever the host has; `nproc` is in the result file.
const THREADS: usize = 2;
const BASELINE_THREADS: usize = 1;

/// Set-up is repeated for this long (at least [`MIN_SETUPS`] times, at most
/// [`MAX_SETUPS`]) and reported as the median: the small tables generate in
/// 2 ms, which a single reading cannot time repeatably.
const SETUP_BUDGET: Duration = Duration::from_millis(1000);
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;

const USAGE: &str = "usage: holobench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--out <dir>] [--smoke]\n       holobench --smoke          (every workload at a tenth of its \
size, one round each, both passes)";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None` only under `--smoke`: run every workload.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 42,
            seconds: 15.0,
            trace: false,
            smoke: false,
            out: PathBuf::from("benchmark/out"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = Some(value()?),
                "--seed" => {
                    out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(out.seconds >= 0.0 && out.seconds <= 3600.0) {
                        return Err("--seconds must be between 0 and 3600".into());
                    }
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--out" => out.out = PathBuf::from(value()?),
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        match &out.workload {
            Some(name) if workloads::find(name).is_none() => {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                Err(format!("unknown workload {name:?}; one of {names:?}"))
            }
            None if !out.smoke => Err("--workload is required (or --smoke)".into()),
            _ => Ok(out),
        }
    }
}

/// Operations attempted and failed. A repair that returns `Err` or panics
/// is a failed operation, not an abort; so is an output check that fails.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Runs one operation of the program under test.
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|_| Err("panicked (message on stderr)".into()));
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        eprintln!("holobench: FAILED {message}");
        self.failures.push(message);
    }
}

/// Where and when the run happened, so a noisy host shows in the artefact.
fn environment(args: &Args, loadavg_start: &str) -> Json {
    let tool = |program: &str, argv: &[&str]| -> String {
        // `output()` waits for the child, so no process outlives the run.
        Command::new(program)
            .args(argv)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", Json::Str(tool("rustc", &["-V"]))),
        ("git_rev", Json::Str(tool("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("threads", Json::Int(THREADS as i64)),
        ("loadavg_start", Json::str(loadavg_start)),
        ("loadavg_end", Json::Str(loadavg())),
    ])
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The result of one run of one workload.
pub struct RunResult {
    pub ops: Ops,
    /// `(name, value, unit)` in the declared order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Quartiles and sample counts of the timed series.
    pub spread: Vec<(String, Json)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.ops.attempted as i64)),
            ("failed", Json::Int(self.ops.failed as i64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// A timed series: every sample raw (wall-clock) and calibrated (at the
/// reference host speed, see `calib.rs`). Metrics are calibrated medians.
#[derive(Debug, Default)]
struct Series {
    calibrated_s: Vec<f64>,
    raw_s: Vec<f64>,
}

impl Series {
    /// Adds the sample of an operation that succeeded.
    fn push(&mut self, timed: Option<Timed>) {
        if let Some(timed) = timed {
            self.calibrated_s.push(timed.calibrated_s());
            self.raw_s.push(timed.raw_s);
        }
    }

    fn median_s(&self) -> f64 {
        median(&self.calibrated_s)
    }

    fn spread(&self) -> Json {
        Json::obj([
            ("calibrated_s", spread(&self.calibrated_s)),
            ("wall_s", spread(&self.raw_s)),
        ])
    }
}

/// What every run shares: the workload, its input, the operation tally and
/// the calibrated clock.
struct Bench<'a> {
    w: &'a Workload,
    input: Input,
    ops: Ops,
    clock: Calibrator,
    /// Digest of the reference report; every later report must equal it.
    reference: Option<u64>,
}

impl Bench<'_> {
    /// Times one repair of the input — whichever way `repair` drives it —
    /// and checks its report against the reference: same digest at either
    /// thread count, fed or one-shot, traced or not. `None` if it failed.
    fn timed(
        &mut self,
        what: &str,
        repair: impl FnOnce(&Input) -> Result<RepairReport, String>,
    ) -> Option<Timed> {
        let input = &self.input;
        let (report, timed) = self.clock.time(|| self.ops.run(what, || repair(input)));
        let report = report?;
        self.ops.check(
            &format!("report of the {what} equals the reference report"),
            Some(digest(&report)) == self.reference,
        );
        Some(timed)
    }

    /// One untraced repair the workload's own way.
    fn timed_repair(&mut self, threads: usize) -> Option<Timed> {
        let w = self.w;
        self.timed(&format!("repair at threads = {threads}"), |input| {
            w.repair(input, threads)
        })
    }

    /// The stream contract: any CRUD feed equals one-shot over the final
    /// live table, repairs and posteriors. Timed, for `stream.overhead_x`.
    fn timed_one_shot(&mut self, threads: usize) -> Option<Timed> {
        self.timed("one-shot repair of the fed table", |input| {
            one_shot(input, threads)
        })
    }

    fn out_of_time(&self, deadline: Instant) -> bool {
        Instant::now() >= deadline || self.ops.failed > 0
    }
}

/// The `--trace 0` run: end-to-end metrics from untraced rounds.
fn run_end_to_end(w: &Workload, args: &Args) -> RunResult {
    let mut clock = Calibrator::new();
    // ---- set-up, several times over; the last input is the one measured
    let mut setups_s = Vec::new();
    let (input, all_setups) = clock.time(|| {
        let start = Instant::now();
        loop {
            let one = Instant::now();
            let input = std::hint::black_box(w.input(args.seed, args.smoke));
            setups_s.push(one.elapsed().as_secs_f64());
            let enough =
                setups_s.len() >= MIN_SETUPS && (start.elapsed() >= SETUP_BUDGET || args.smoke);
            if enough || setups_s.len() >= MAX_SETUPS {
                break input;
            }
        }
    });
    let mut b = Bench {
        w,
        input,
        ops: Ops::default(),
        clock,
        reference: None,
    };

    // ---- counted pass: the reference report, the peak heap, the warm-up
    alloc::start();
    let reference = b.ops.run("reference repair at threads = 1", || {
        w.repair(&b.input, BASELINE_THREADS)
    });
    let heap = alloc::stop();
    b.reference = reference.as_ref().map(digest);
    let quality = reference.as_ref().and_then(|report| {
        b.ops.run("evaluate against the ground truth", || {
            let dirty = csv::parse_dataset(&b.input.csv).map_err(|e| e.to_string())?;
            Ok(evaluate(report, &dirty, &b.input.clean))
        })
    });
    drop(reference);
    b.clock.resync();
    if w.crud {
        b.timed_one_shot(BASELINE_THREADS);
    }

    // ---- timed rounds
    let (mut t2, mut t1) = (Series::default(), Series::default());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        t2.push(b.timed_repair(THREADS));
        t1.push(b.timed_repair(BASELINE_THREADS));
        if b.out_of_time(deadline) {
            break;
        }
    }

    let repair_s = t2.median_s();
    let quality = quality.unwrap_or_default();
    let values = [
        median(&setups_s) / all_setups.slowdown,
        repair_s,
        t1.median_s(),
        if repair_s > 0.0 {
            b.input.rows as f64 / repair_s
        } else {
            0.0
        },
        heap.peak_bytes as f64 / 1e6,
        quality.precision,
        quality.recall,
        quality.f1,
    ];
    RunResult {
        ops: b.ops,
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect(),
        spread: vec![
            (
                "setup_s".into(),
                Json::obj([
                    ("wall_s", spread(&setups_s)),
                    ("slowdown", Json::Num(all_setups.slowdown)),
                ]),
            ),
            ("repair_s".into(), t2.spread()),
            ("repair_t1_s".into(), t1.spread()),
        ],
    }
}

/// One traced repair (or feed) into `tracer`.
fn traced(
    w: &Workload,
    input: &Input,
    threads: usize,
    mut tracer: Tracer,
) -> (Tracer, Result<RepairReport, String>) {
    let report = if w.crud {
        crud_feed(input, threads, Some(&mut tracer))
    } else {
        staged_repair(input, threads, &mut tracer)
    };
    (tracer, report)
}

/// The `--trace 1` run: per-layer metrics from the counted pass (threads
/// = 1, allocator counting) and traced rounds (threads = 2, spans on),
/// with untraced repairs beside them to price the tracing itself.
fn run_per_layer(w: &Workload, args: &Args) -> (RunResult, Json) {
    let mut b = Bench {
        w,
        input: w.input(args.seed, args.smoke),
        ops: Ops::default(),
        clock: Calibrator::new(),
        reference: None,
    };

    alloc::start();
    let mut counted = Tracer::new();
    let reference = b.ops.run("counted staged repair at threads = 1", || {
        let (tracer, report) = traced(w, &b.input, BASELINE_THREADS, Tracer::counting());
        counted = tracer;
        report
    });
    alloc::stop();
    b.reference = reference.as_ref().map(digest);
    drop(reference);
    b.clock.resync();

    let (mut t2, mut t1, mut plain) = (Series::default(), Series::default(), Series::default());
    let mut samples = SpanSamples::default();
    let mut last = Tracer::new();
    let mut last_slowdown = 1.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        // Untraced: `HoloClean::run` itself (or the untimed feed). Equal
        // digests here are the staged-driver ≡ `HoloClean::run` check.
        t2.push(b.timed_repair(THREADS));
        t1.push(b.timed_repair(BASELINE_THREADS));
        let timed = b.timed("traced repair at threads = 2", |input| {
            let (tracer, report) = traced(w, input, THREADS, Tracer::new());
            last = tracer;
            report
        });
        if let Some(timed) = timed {
            samples.add_round(&last, timed.slowdown);
            last_slowdown = timed.slowdown;
        }
        if w.crud {
            plain.push(b.timed_one_shot(THREADS));
        }
        if b.out_of_time(deadline) {
            break;
        }
    }

    // Each traced root against the untraced repair of its own round, so
    // that drift between rounds does not read as tracing overhead.
    let overheads: Vec<f64> = samples
        .roots_ms()
        .iter()
        .zip(&t2.calibrated_s)
        .map(|(root_ms, untraced_s)| (root_ms / 1e3 - untraced_s) / untraced_s)
        .collect();
    let untraced = Untraced {
        repair_s: t2.median_s(),
        repair_t1_s: t1.median_s(),
        one_shot_s: w.crud.then(|| plain.median_s()),
        trace_overhead_share: median(&overheads),
    };
    let values: BTreeMap<String, f64> =
        metrics::per_layer_values(&samples, &last, &counted, &untraced);
    let trace_file = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("threads", Json::Int(THREADS as i64)),
        ("traced_rounds", Json::Int(t2.raw_s.len() as i64)),
        // Span clocks are raw nanoseconds; divide a duration by this to
        // read it at the reference host speed, as the metrics are.
        ("slowdown", Json::Num(last_slowdown)),
        ("spans", last.to_json()),
        ("counted_threads", Json::Int(BASELINE_THREADS as i64)),
        ("counted_spans", counted.to_json()),
    ]);
    let result = RunResult {
        ops: b.ops,
        metrics: metrics::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = values.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect(),
        spread: vec![
            ("repair_s".into(), t2.spread()),
            ("repair_t1_s".into(), t1.spread()),
            (
                "stream.push_batch.ms".into(),
                spread(samples.pooled("stream.push_batch")),
            ),
        ],
    };
    (result, trace_file)
}

fn write_file(dir: &Path, name: &str, content: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, format!("{content}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in one mode, prints its metric lines, writes its
/// files, and returns the result.
fn run_one(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let loadavg_start = loadavg();
    let (result, trace_file) = if args.trace {
        let (result, trace_file) = run_per_layer(w, args);
        (result, Some(trace_file))
    } else {
        (run_end_to_end(w, args), None)
    };
    for (name, value, unit) in &result.metrics {
        println!("{} {name} {value} {unit}", w.name);
    }
    let pass = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let file = Json::obj([
        ("workload", Json::str(w.name)),
        ("pass", Json::str(pass)),
        ("environment", environment(args, &loadavg_start)),
        ("result", result.result_line()),
        ("spread", Json::Obj(result.spread.clone())),
        (
            "failures",
            Json::Arr(result.ops.failures.iter().map(Json::str).collect()),
        ),
    ]);
    write_file(&args.out, &format!("result_{}_{pass}.json", w.name), &file)?;
    if let Some(trace_file) = trace_file {
        write_file(&args.out, &format!("trace_{}.json", w.name), &trace_file)?;
    }
    Ok(result)
}

/// The program: returns the process exit code. `0` only when every output
/// was correct; the result line is printed either way.
pub fn main(argv: impl IntoIterator<Item = String>) -> u8 {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("holobench: {e}\n{USAGE}");
            return 2;
        }
    };
    let runs: Vec<(Workload, Args)> = match args.workload.as_deref().and_then(workloads::find) {
        Some(w) => vec![(w, args.clone())],
        // Bare `--smoke`: every workload, one round, both passes.
        None => workloads::WORKLOADS
            .into_iter()
            .flat_map(|w| {
                [false, true].map(|trace| {
                    let one_round = Args {
                        trace,
                        seconds: 0.0,
                        ..args.clone()
                    };
                    (w, one_round)
                })
            })
            .collect(),
    };
    let mut all_correct = true;
    for (w, args) in &runs {
        match run_one(w, args) {
            Ok(result) => {
                all_correct &= result.correct();
                println!("{}", result.result_line());
            }
            Err(e) => {
                eprintln!("holobench: {e}");
                return 1;
            }
        }
    }
    if all_correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload food_18k --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("food_18k"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        assert_eq!(a.out, PathBuf::from("benchmark/out"));
        assert!(parse("--smoke").unwrap().smoke);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload hospital_1k --trace 2",
            "--workload hospital_1k --seed",
            "--workload hospital_1k --seconds -1",
            "--workload hospital_1k --seconds nan",
            "--workload hospital_1k --rounds 3",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn err_and_panic_are_failed_operations_not_aborts() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("fine", || Ok(1)), Some(1));
        assert_eq!(ops.run("err", || Err::<u8, _>("boom".into())), None);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        assert_eq!(ops.run::<u8>("panic", || panic!("boom")), None);
        std::panic::set_hook(hook);
        ops.check("holds", true);
        ops.check("does not hold", false);
        assert_eq!((ops.attempted, ops.failed), (5, 3));
        assert_eq!(ops.failures.len(), 3);
    }

    /// One smoke round of every workload in both passes: every declared
    /// metric is printed, outputs check out, and the result line has the
    /// keys the driver reads.
    #[test]
    fn smoke_round_of_every_workload() {
        let out = std::env::temp_dir().join(format!("holobench-test-{}", std::process::id()));
        for w in workloads::WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: Some(w.name.into()),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    out: out.clone(),
                };
                let result = run_one(&w, &args).unwrap();
                assert!(result.correct(), "{}: {:?}", w.name, result.ops.failures);
                assert!(result.ops.attempted >= 4);
                let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
                if trace {
                    let expected: Vec<String> =
                        metrics::per_layer().into_iter().map(|m| m.0).collect();
                    assert_eq!(names, expected);
                } else {
                    let expected: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.0).collect();
                    assert_eq!(names, expected);
                    for (name, value, _) in &result.metrics {
                        assert!(*value > 0.0, "{} {name} must never be 0", w.name);
                    }
                }
                assert!(result.metrics.iter().all(|m| m.1.is_finite()));
                let line = result.result_line().to_string();
                assert!(
                    line.starts_with(r#"{"correct":true,"attempted":"#),
                    "{line}"
                );
            }
            assert!(out.join(format!("trace_{}.json", w.name)).is_file());
            assert!(out
                .join(format!("result_{}_end_to_end.json", w.name))
                .is_file());
        }
        std::fs::remove_dir_all(&out).unwrap();
    }
}
