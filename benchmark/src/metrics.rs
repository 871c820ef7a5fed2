//! The metric names and units the benchmark prints — the same lists
//! `BENCHMARK.json` declares (a test keeps the two equal) — and how the
//! per-layer ones are read off the traced and counted passes.

use crate::stats::{highest_valid_percentile, median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("repair_s", "s"),
    ("repair_t1_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_heap_mb", "MB"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("f1", "ratio"),
];

/// The nine layer calls of a one-shot repair, in call order. Each has a
/// `.ms` (median self time over the traced rounds) and, from the counted
/// pass, `.alloc_mb` and `.allocs`.
pub const REPAIR_LAYERS: [&str; 9] = [
    "dataset.csv_parse",
    "constraints.parse",
    "external.match",
    "constraints.detect",
    "dataset.stats_build",
    "core.compile",
    "factor.learn",
    "factor.infer",
    "core.repair_extract",
];

/// Per-layer metrics besides the three per entry of [`REPAIR_LAYERS`].
const OTHER_PER_LAYER: [(&str, &str); 53] = [
    ("dataset.csv_parse.mb_per_s", "MB/s"),
    ("external.match.matches", "count"),
    ("constraints.detect.ns_per_row", "ns"),
    ("constraints.detect.violations", "count"),
    ("constraints.detect.noisy_cells", "count"),
    ("dataset.stats_build.ns_per_cell", "ns"),
    ("dataset.stats_build.bytes_per_row", "bytes"),
    ("dataset.stats_build.dense_pairs", "count"),
    ("dataset.stats_build.csr_pairs", "count"),
    ("core.prune.ms", "ms"),
    ("core.prune.ns_per_noisy_cell", "ns"),
    ("core.prune.candidates", "count"),
    ("core.compile.self_ms", "ms"),
    ("core.compile.query_vars", "count"),
    ("core.compile.evidence_vars", "count"),
    ("core.compile.factors", "count"),
    ("core.compile.cliques", "count"),
    ("factor.design_build.ms", "ms"),
    ("factor.design_build.rows", "count"),
    ("factor.design_build.nnz", "count"),
    ("factor.component_index_build.ms", "ms"),
    ("factor.learn.examples", "count"),
    ("factor.learn.epochs", "count"),
    ("factor.learn.minibatches", "count"),
    ("factor.learn.ns_per_example_epoch", "ns"),
    ("factor.learn.final_ll", "nats"),
    ("factor.learn.arena_mb", "MB"),
    ("factor.infer.ns_per_query_var", "ns"),
    ("factor.infer.components", "count"),
    ("factor.infer.largest_component", "count"),
    ("factor.infer.closed_form_vars", "count"),
    ("factor.infer.exact_vars", "count"),
    ("factor.infer.gibbs_vars", "count"),
    ("factor.infer.cache_rows", "count"),
    ("core.repair_extract.repairs", "count"),
    ("core.teardown.ms", "ms"),
    ("stream.push_batch.total_ms", "ms"),
    ("stream.push_batch.p50_ms", "ms"),
    ("stream.push_batch.tail_ms", "ms"),
    ("stream.push_batch.tail_pct", "%"),
    ("stream.push_updates.p50_ms", "ms"),
    ("stream.push_deletes.p50_ms", "ms"),
    ("stream.report.ms", "ms"),
    ("stream.cells_recomputed", "count"),
    ("stream.cells_reused", "count"),
    ("stream.vars_added", "count"),
    ("stream.vars_retired", "count"),
    ("stream.design_full_builds", "count"),
    ("stream.design_vars_patched", "count"),
    ("stream.canonical_retrains", "count"),
    ("stream.replay_minibatches", "count"),
    ("stream.overhead_x", "x"),
    ("parallel.speedup_x", "x"),
];

/// The last per-layer metric: what the spans themselves cost.
const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_share", "ratio");

/// Every per-layer metric, printed with `--trace 1` on every workload. A
/// metric of a layer the workload never calls reads `0`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in REPAIR_LAYERS {
        out.push((format!("{layer}.ms"), "ms"));
        out.push((format!("{layer}.alloc_mb"), "MB"));
        out.push((format!("{layer}.allocs"), "count"));
    }
    out.extend(OTHER_PER_LAYER.map(|(n, u)| (n.to_string(), u)));
    out.push((TRACE_OVERHEAD.0.to_string(), TRACE_OVERHEAD.1));
    out
}

/// Span self times gathered over the traced rounds.
#[derive(Debug, Default)]
pub struct SpanSamples {
    /// Per span name, one sample per round: the summed self time (ms) of
    /// every span of that name in the round.
    per_round: BTreeMap<&'static str, Vec<f64>>,
    /// Per span name, every span's self time (ms), all rounds pooled.
    pooled: BTreeMap<&'static str, Vec<f64>>,
    /// Whole duration (ms) of each round's traced repair or feed: its
    /// first root span, plus the `core.teardown` root where the staged
    /// driver frees what `HoloClean::run` frees before returning. Probes
    /// are excluded.
    roots: Vec<f64>,
}

impl SpanSamples {
    /// Adds one traced round, every time divided by the `slowdown` the
    /// host showed around the round (see `calib.rs`).
    pub fn add_round(&mut self, tracer: &Tracer, slowdown: f64) {
        let mut round: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, ms) in tracer.self_ms() {
            let ms = ms / slowdown;
            *round.entry(name).or_default() += ms;
            self.pooled.entry(name).or_default().push(ms);
        }
        for (name, ms) in round {
            self.per_round.entry(name).or_default().push(ms);
        }
        let repair_ns: u64 = tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(i, span)| *i == 0 || span.name == "core.teardown")
            .map(|(_, span)| span.duration_ns())
            .sum();
        self.roots.push(repair_ns as f64 / 1e6 / slowdown);
    }

    /// Median over rounds of the span's (summed) self time, in ms.
    pub fn round_ms(&self, name: &str) -> f64 {
        self.per_round.get(name).map_or(0.0, |v| median(v))
    }

    /// The traced repair's (or feed's) whole duration in ms, per round.
    pub fn roots_ms(&self) -> &[f64] {
        &self.roots
    }

    /// Every sample of one span name, pooled over rounds.
    pub fn pooled(&self, name: &str) -> &[f64] {
        self.pooled.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Untraced timings a traced run takes beside its spans, in seconds.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Median `repair_s` (threads = 2) of this run.
    pub repair_s: f64,
    /// Median `repair_t1_s` of this run.
    pub repair_t1_s: f64,
    /// Median one-shot repair of the same table (CRUD feed only).
    pub one_shot_s: Option<f64>,
    /// Median over rounds of (traced root − untraced repair) ÷ untraced
    /// repair, each pair from one round.
    pub trace_overhead_share: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reads every per-layer metric off a traced run: `samples` over all
/// traced rounds, `last` the final traced round (for its counts),
/// `counted` the counted pass (for per-span allocation).
pub fn per_layer_values(
    samples: &SpanSamples,
    last: &Tracer,
    counted: &Tracer,
    untraced: &Untraced,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let count = |span: &str, key: &str| last.find(span).map_or(0.0, |s| s.count(key));
    let ms = |span: &str| samples.round_ms(span);

    for layer in REPAIR_LAYERS {
        set(&format!("{layer}.ms"), ms(layer));
        let counted_span = counted.find(layer);
        set(
            &format!("{layer}.alloc_mb"),
            counted_span.map_or(0.0, |s| s.count("alloc_bytes") / 1e6),
        );
        set(
            &format!("{layer}.allocs"),
            counted_span.map_or(0.0, |s| s.count("allocs")),
        );
    }
    for (span, key) in [
        ("external.match", "matches"),
        ("constraints.detect", "violations"),
        ("constraints.detect", "noisy_cells"),
        ("dataset.stats_build", "dense_pairs"),
        ("dataset.stats_build", "csr_pairs"),
        ("core.prune", "candidates"),
        ("core.compile", "query_vars"),
        ("core.compile", "evidence_vars"),
        ("core.compile", "factors"),
        ("core.compile", "cliques"),
        ("factor.design_build", "rows"),
        ("factor.design_build", "nnz"),
        ("factor.learn", "examples"),
        ("factor.learn", "epochs"),
        ("factor.learn", "minibatches"),
        ("factor.learn", "final_ll"),
        ("factor.infer", "components"),
        ("factor.infer", "largest_component"),
        ("factor.infer", "closed_form_vars"),
        ("factor.infer", "exact_vars"),
        ("factor.infer", "gibbs_vars"),
        ("factor.infer", "cache_rows"),
        ("core.repair_extract", "repairs"),
    ] {
        set(&format!("{span}.{key}"), count(span, key));
    }
    for outside_the_tree in [
        "core.prune",
        "factor.design_build",
        "factor.component_index_build",
        "core.teardown",
    ] {
        set(&format!("{outside_the_tree}.ms"), ms(outside_the_tree));
    }

    let rows = count("dataset.csv_parse", "rows");
    set(
        "dataset.csv_parse.mb_per_s",
        ratio(
            count("dataset.csv_parse", "bytes") / 1e6,
            ms("dataset.csv_parse") / 1e3,
        ),
    );
    set(
        "constraints.detect.ns_per_row",
        ratio(ms("constraints.detect") * 1e6, rows),
    );
    set(
        "dataset.stats_build.ns_per_cell",
        ratio(
            ms("dataset.stats_build") * 1e6,
            count("dataset.stats_build", "cells"),
        ),
    );
    set(
        "dataset.stats_build.bytes_per_row",
        ratio(count("dataset.stats_build", "bytes"), rows),
    );
    set(
        "core.prune.ns_per_noisy_cell",
        ratio(ms("core.prune") * 1e6, count("core.prune", "noisy_cells")),
    );
    // What compile spends outside the two pieces the probes price.
    set(
        "core.compile.self_ms",
        ms("core.compile") - ms("core.prune") - ms("factor.design_build"),
    );
    set(
        "factor.learn.ns_per_example_epoch",
        ratio(
            ms("factor.learn") * 1e6,
            count("factor.learn", "examples") * count("factor.learn", "epochs"),
        ),
    );
    set(
        "factor.learn.arena_mb",
        count("factor.learn", "arena_bytes") / 1e6,
    );
    set(
        "factor.infer.ns_per_query_var",
        ratio(
            ms("factor.infer") * 1e6,
            count("core.compile", "query_vars"),
        ),
    );

    set("stream.push_batch.total_ms", ms("stream.push_batch"));
    let batches = samples.pooled("stream.push_batch");
    let tail_pct = highest_valid_percentile(batches.len());
    set("stream.push_batch.p50_ms", median(batches));
    set(
        "stream.push_batch.tail_ms",
        if batches.is_empty() {
            0.0
        } else {
            percentile(batches, tail_pct)
        },
    );
    set(
        "stream.push_batch.tail_pct",
        if batches.is_empty() {
            0.0
        } else {
            tail_pct as f64
        },
    );
    set(
        "stream.push_updates.p50_ms",
        median(samples.pooled("stream.push_updates")),
    );
    set(
        "stream.push_deletes.p50_ms",
        median(samples.pooled("stream.push_deletes")),
    );
    set("stream.report.ms", ms("stream.report"));
    for key in [
        "cells_recomputed",
        "cells_reused",
        "vars_added",
        "vars_retired",
        "design_full_builds",
        "design_vars_patched",
        "canonical_retrains",
        "replay_minibatches",
    ] {
        set(&format!("stream.{key}"), count("feed", key));
    }
    set(
        "stream.overhead_x",
        untraced
            .one_shot_s
            .map_or(0.0, |one_shot| ratio(untraced.repair_s, one_shot)),
    );
    set(
        "parallel.speedup_x",
        ratio(untraced.repair_t1_s, untraced.repair_s),
    );
    set(TRACE_OVERHEAD.0, untraced.trace_overhead_share);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics the code
    /// prints. The file is outside this package, so a bare `benchmark/`
    /// directory skips the check.
    #[test]
    fn benchmark_json_declares_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let declared: Vec<&str> = text
            .split("\"name\":")
            .skip(1)
            .map(|piece| piece.split('"').nth(1).expect("a quoted name"))
            .collect();
        let mut expected: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer().into_iter().map(|(n, _)| n));
        assert_eq!(declared, expected);
    }
}
