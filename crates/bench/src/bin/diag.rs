//! Diagnostic tool (not a paper artifact): per-attribute repair quality of
//! HoloClean on one dataset, with missed/wrong repair examples. Used to
//! tune the reproduction; kept because it is genuinely useful for anyone
//! adapting the system to new data.
//!
//! `--stream K` feeds the dataset through a stream `Session` in K batches
//! (`holo_bench::stream_feed`; with `--crud`, every batch corrupted and
//! healed) instead of the one-shot pipeline and additionally reports the
//! session's counters (batches, tuples, rows updated/deleted, pipeline
//! runs) and the live/deleted row split; `--json` emits the
//! machine-readable form either way (via the shared `holo_bench::json`
//! writer). Unknown flags abort with a usage line (exit 2).
//!
//! The `--json` learn object carries `examples`, `epochs`, `minibatches`,
//! `final_log_likelihood`, `grad_norm` (final minibatch), `grad_norm_mean`
//! (mean over the final epoch — the stable number to watch),
//! `non_finite_minibatches` (always 0 in a printed run: a diverging SGD
//! fails one-shot and streamed runs alike with `HoloError::LearnDiverged`
//! before diag prints).
//!
//! The `compile` object carries the evidence scope (`trainable_attrs`,
//! the attributes that share a learnable weight with one that has a query
//! variable and so supply evidence, and `evidence_attrs_skipped`, the
//! rest), the Algorithm 2 threshold index's size
//! (`prune_index_rows`, `prune_index_entries`), the Algorithm 1 grounding
//! counters (`cliques`, `dc_pairs_considered`, `clique_cap_hits`,
//! `dc_skipped_no_join_key` — all zero unless `--dc-factors` selects the
//! partitioned DC-factor variant), `clique_bytes` (the heap bytes of the
//! clique arena that holds the cliques) and `phases`, the
//! wall-clock split of `compile()` in execution order (`index_build_s`,
//! `noisy_prune_s`, `evidence_prune_s`, `variables_s`,
//! `featurizer_setup_s`, `featurize_s`, `assemble_s`, and `ground_s` on
//! DC-factor variants), led by `stats_build_s`: the co-occurrence
//! statistics, which `pipeline::compile_model` builds before it calls
//! `compile()` — inside the compile stage, and printed on a line of its own.
//!
//! The `detect` object prices violation detection without a scratch
//! probe: per constraint its join key, violation count and the wall-clock
//! of the list-free detector on that constraint alone (diag times the call
//! itself, so a constraint that shares its join key's index in the
//! pipeline pays for a private one here), and per distinct join key the
//! bucket count, the largest bucket, and over the columns its constraints
//! compare inside a bucket the value groups and the *mixed* (bucket,
//! column)s — those holding two or more groups. Detection is linear in a
//! bucket until it is mixed; a mixed bucket's FD-shaped constraints cost
//! its size plus its violations, any other constraint its size squared.
//!
//! `quality.ece` is the expected calibration error of the marginals
//! (`holoclean::expected_calibration_error`: every query cell's MAP
//! candidate, ten equal-width bins). `quality.clean_cells_rewritten`
//! counts repairs of clean cells, and of
//! those `clean_rewritten_sibling_dirty` (an error elsewhere in the tuple),
//! `_to_rarer` / `_to_equal` (new value rarer / as frequent in the dirty
//! column). `occur_weights`: per attribute, its `Occur` weights and the top
//! 3 `[conditioning attribute, w]` by |w|.
//!
//! `timings.load_s` is what the repair's timings leave out: the load a
//! user pays first, `csv::parse_dataset` over the generated dirty table
//! (serialised to CSV outside the timer, parsed before the repair, and
//! dropped; the text output prints it as `load`).
//!
//! The `shape` object carries the sizes a stage's cost is read against:
//! the table's `rows`, its `noisy_cells` and the model's `query_vars` and
//! `evidence_vars` (`scripts/ladder.py` divides the stage times by them).
//!
//! The `memory` object carries `peak_rss_mb`, the process's peak resident
//! set (`VmHWM` in `/proc/self/status`, read after the run; `null` where
//! the platform has no such file), which the text output prints too. It is
//! the whole process's: the generator's dirty and clean tables and the
//! detection profile are counted beside the repair.
//!
//! The `stats` object carries the co-occurrence engine's `StatsStats`
//! (`pairs` built — only target attributes a variable can have — of
//! `pairs_possible` = |A|(|A|−1), dense/CSR pair split, cell and byte
//! footprint).

use holo_bench::json::{num, num_exact, JsonObj};
use holo_bench::runner::{run_holoclean_full, HoloOutcome};
use holo_bench::{build, stream_feed, Args, Scale};
use holo_constraints::ast::TupleVar;
use holo_constraints::scan::{build_shared, PairScan};
use holo_constraints::{find_noisy_cells_with_threads, ConstraintSet};
use holo_datagen::{DatasetKind, GeneratedDataset};
use holo_dataset::{csv, AttrId, Dataset, FxHashMap, FxHashSet};
use holo_factor::{FeatureRegistry, VarId, WeightId, Weights};
use holoclean::compile::CompiledModel;
use holoclean::features::FeatureKey;
use holoclean::stream::{IngestStats, RetireStats};
use holoclean::{evaluate, expected_calibration_error, HoloConfig, ModelVariant, Repair};
use std::time::{Duration, Instant};

/// One constraint's line of the `detect:` block.
struct ConstraintDetect {
    name: String,
    /// Label of its [`KeyDetect`], or why it has none.
    join_key: String,
    violations: usize,
    ms: f64,
}

/// One distinct join key's line of the `detect:` block.
struct KeyDetect {
    label: String,
    constraints: usize,
    buckets: usize,
    largest_bucket: usize,
    /// The partner columns the key's constraints read, and over them the
    /// (bucket, column)s with two or more value groups and the value
    /// groups in all.
    columns: usize,
    mixed_buckets: usize,
    groups: usize,
}

struct DetectProfile {
    constraints: Vec<ConstraintDetect>,
    keys: Vec<KeyDetect>,
}

/// Detects constraint by constraint through the public list-free
/// detector, timing each, and sizes the buckets of every distinct join
/// key — the indexes detection itself shares ([`build_shared`]), so a key
/// is a partner-side key.
fn detect_profile(gen: &GeneratedDataset, threads: usize) -> DetectProfile {
    let mut ds = gen.dirty.clone();
    let constraints = holo_constraints::parse_constraints(&gen.constraints_text, &mut ds)
        .expect("the generated constraints parse");
    let scans: Vec<Option<PairScan>> = constraints
        .iter()
        .map(|(_, c)| c.two_tuple.then(|| PairScan::new(c, TupleVar::T1)))
        .collect();
    let keyed: Vec<Option<&PairScan>> = scans
        .iter()
        .map(|scan| scan.as_ref().filter(|s| !s.probe_key.is_empty()))
        .collect();
    let (indexes, index_of) = build_shared(&ds, &keyed, false, threads);
    let names = |attrs: &[AttrId]| -> String {
        let names: Vec<&str> = attrs.iter().map(|&a| ds.schema().attr_name(a)).collect();
        names.join(", ")
    };
    let keys = indexes.iter().enumerate().map(|(k, index)| {
        let on_key = || {
            keyed
                .iter()
                .zip(&index_of)
                .filter(move |(_, at)| **at == Some(k))
        };
        let first = on_key().find_map(|(scan, _)| *scan);
        let buckets = 0..index.bucket_count();
        let groups = index.packed().iter().flat_map(|column| {
            let buckets = buckets.clone();
            buckets.map(move |b| column.groups(b).len())
        });
        KeyDetect {
            label: first.map_or(String::new(), |scan| {
                let (t1, t2) = (names(&scan.probe_key), names(&scan.partner_key));
                format!("t1[{t1}] = t2[{t2}]")
            }),
            constraints: on_key().count(),
            buckets: buckets.len(),
            largest_bucket: buckets
                .clone()
                .map(|b| index.range(b).len())
                .max()
                .unwrap_or(0),
            columns: index.packed().len(),
            mixed_buckets: groups.clone().filter(|&n| n > 1).count(),
            groups: groups.sum(),
        }
    });
    let keys: Vec<KeyDetect> = keys.collect();
    let constraints = constraints.iter().zip(&index_of).map(|((_, c), at)| {
        let alone: ConstraintSet = [c.clone()].into_iter().collect();
        let started = Instant::now();
        let (_, violations) = find_noisy_cells_with_threads(&ds, &alone, threads);
        ConstraintDetect {
            name: c.name.clone(),
            join_key: match at {
                Some(k) => keys[*k].label.clone(),
                None => "none (single-tuple or pairwise scan)".to_string(),
            },
            violations,
            ms: started.elapsed().as_secs_f64() * 1e3,
        }
    });
    DetectProfile {
        constraints: constraints.collect(),
        keys,
    }
}

impl DetectProfile {
    fn json(&self) -> String {
        let constraints: Vec<String> = self
            .constraints
            .iter()
            .map(|c| {
                let mut o = JsonObj::new();
                o.field_str("name", &c.name);
                o.field_str("join_key", &c.join_key);
                o.field_u64("violations", c.violations as u64);
                o.field_raw("ms", &num(c.ms));
                o.finish()
            })
            .collect();
        let keys: Vec<String> = self
            .keys
            .iter()
            .map(|k| {
                let mut o = JsonObj::new();
                o.field_str("join_key", &k.label);
                o.field_u64("constraints", k.constraints as u64);
                o.field_u64("buckets", k.buckets as u64);
                o.field_u64("largest_bucket", k.largest_bucket as u64);
                o.field_u64("mixed_buckets", k.mixed_buckets as u64);
                o.field_u64("groups", k.groups as u64);
                o.finish()
            })
            .collect();
        let mut o = JsonObj::new();
        o.field_raw("constraints", &format!("[{}]", constraints.join(",")));
        o.field_raw("keys", &format!("[{}]", keys.join(",")));
        o.finish()
    }

    fn print(&self) {
        println!("detect:");
        for c in &self.constraints {
            println!(
                "  {:<44} {:>8} violation(s) {:>9.3} ms  on {}",
                c.name, c.violations, c.ms, c.join_key
            );
        }
        for k in &self.keys {
            println!(
                "  key {}: {} constraint(s), {} bucket(s), largest {}; over {} compared column(s) \
                 {} mixed bucket(s), {} value group(s)",
                k.label,
                k.constraints,
                k.buckets,
                k.largest_bucket,
                k.columns,
                k.mixed_buckets,
                k.groups
            );
        }
    }
}

/// Repairs of cells that were already clean (module docs).
#[derive(Default)]
struct CleanRewrites {
    total: u64,
    sibling_dirty: u64,
    to_rarer: u64,
    to_equal: u64,
}

fn clean_rewrites(gen: &GeneratedDataset, repairs: &[Repair]) -> CleanRewrites {
    let (ds, errors) = (&gen.dirty, FxHashSet::from_iter(gen.errors.iter().copied()));
    let dirty_tuples: FxHashSet<_> = gen.errors.iter().map(|c| c.tuple).collect();
    let counts: Vec<(Vec<u32>, u32)> = ds.schema().attrs().map(|a| ds.code_counts(a)).collect();
    let mut out = CleanRewrites::default();
    for r in repairs.iter().filter(|r| !errors.contains(&r.cell)) {
        let (codes, nulls) = &counts[r.cell.attr.index()];
        let count = |v: &str| match ds.pool().get(v) {
            Some(v) if v.is_null() => *nulls,
            Some(v) => codes
                .get(ds.code_of(r.cell.attr, v) as usize)
                .copied()
                .unwrap_or(0),
            None => 0,
        };
        out.total += 1;
        out.sibling_dirty += u64::from(dirty_tuples.contains(&r.cell.tuple));
        match count(&r.new_value).cmp(&count(&r.old_value)) {
            std::cmp::Ordering::Less => out.to_rarer += 1,
            std::cmp::Ordering::Equal => out.to_equal += 1,
            std::cmp::Ordering::Greater => {}
        }
    }
    out
}

/// Per attribute with `Occur` weights, in attribute order: how many, and
/// the three `(conditioning attribute, w)` with the largest |w|.
type OccurWeights = (AttrId, usize, Vec<(AttrId, f64)>);

fn occur_weights(registry: &FeatureRegistry<FeatureKey>, weights: &Weights) -> Vec<OccurWeights> {
    let mut by_attr: std::collections::BTreeMap<AttrId, Vec<(AttrId, f64)>> = Default::default();
    for (id, key) in registry.keys().iter().enumerate() {
        if let FeatureKey::Occur { attr, cond_attr } = *key {
            let w = weights.get(WeightId(id as u32));
            by_attr.entry(attr).or_default().push((cond_attr, w));
        }
    }
    let by_attr = by_attr.into_iter().map(|(attr, mut ws)| {
        ws.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        (attr, ws.len(), ws.into_iter().take(3).collect())
    });
    by_attr.collect()
}

/// The process's peak resident set in MB, from `VmHWM` in
/// `/proc/self/status`; `None` where the platform has no such file.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A streamed run's session counters.
type FeedStats = (IngestStats, RetireStats);

/// Emits the run's diagnostics as one JSON object for the bench
/// trajectory: stage timings, `LearnStats`, `PartitionStats` and (for
/// streamed runs) the session's counters. Hand-rolled over `holo_bench::json` — the
/// offline `serde` stub derives are no-ops, and the shape here is small
/// and stable.
fn print_json(
    gen: &GeneratedDataset,
    out: &HoloOutcome,
    (detect, clean, occur): (&DetectProfile, &CleanRewrites, &Vec<OccurWeights>),
    (ece, load, feed): (f64, Duration, Option<FeedStats>),
) {
    let name = |a: AttrId| gen.dirty.schema().attr_name(a);
    let t = &out.timings;
    let p = t.partition;
    let learn = match &out.learn_stats {
        Some(ls) => {
            let mut o = JsonObj::new();
            o.field_u64("examples", ls.examples as u64);
            o.field_u64("epochs", ls.epochs as u64);
            o.field_u64("minibatches", ls.minibatches as u64);
            o.field_num("final_log_likelihood", ls.final_log_likelihood);
            o.field_num("grad_norm", ls.grad_norm);
            o.field_num("grad_norm_mean", ls.grad_norm_mean);
            o.field_u64("non_finite_minibatches", ls.non_finite_minibatches as u64);
            o.finish()
        }
        None => "null".to_string(),
    };
    let ingest = feed.map_or("null".to_string(), |(ingest, _)| ingest_json(&ingest));
    let mut quality = JsonObj::new();
    quality.field_num("precision", out.quality.precision);
    quality.field_num("recall", out.quality.recall);
    quality.field_num("f1", out.quality.f1);
    quality.field_num("ece", ece);
    quality.field_u64("repairs", out.quality.total_repairs as u64);
    quality.field_u64("errors", out.quality.total_errors as u64);
    quality.field_u64("clean_cells_rewritten", clean.total);
    quality.field_u64("clean_rewritten_sibling_dirty", clean.sibling_dirty);
    quality.field_u64("clean_rewritten_to_rarer", clean.to_rarer);
    quality.field_u64("clean_rewritten_to_equal", clean.to_equal);
    let occur = occur.iter().map(|(attr, n, top)| {
        let top: Vec<String> = top
            .iter()
            .map(|&(c, w)| format!("[\"{}\",{}]", name(c), num(w)))
            .collect();
        let top = top.join(",");
        format!(
            "{{\"attr\":\"{}\",\"weights\":{n},\"top\":[{top}]}}",
            name(*attr)
        )
    });
    let occur: Vec<String> = occur.collect();
    let mut timings = JsonObj::new();
    timings.field_raw("load_s", &num_exact(load.as_secs_f64()));
    timings.field_raw("detect_s", &num_exact(t.detect.as_secs_f64()));
    timings.field_raw("compile_s", &num_exact(t.compile.as_secs_f64()));
    timings.field_raw("learn_s", &num_exact(t.learn.as_secs_f64()));
    timings.field_raw("infer_s", &num_exact(t.infer.as_secs_f64()));
    timings.field_raw("total_s", &num_exact(t.total().as_secs_f64()));
    let mut compile = JsonObj::new();
    compile.field_u64("trainable_attrs", out.model.trainable_attrs as u64);
    compile.field_u64(
        "evidence_attrs_skipped",
        out.model.evidence_attrs_skipped as u64,
    );
    compile.field_u64("prune_index_rows", out.model.prune_index_rows as u64);
    compile.field_u64("prune_index_entries", out.model.prune_index_entries as u64);
    compile.field_u64("cliques", out.model.cliques as u64);
    compile.field_u64("dc_pairs_considered", out.model.dc_pairs_considered as u64);
    compile.field_u64("clique_cap_hits", out.model.clique_cap_hits as u64);
    compile.field_u64(
        "dc_skipped_no_join_key",
        out.model.dc_skipped_no_join_key as u64,
    );
    compile.field_u64("clique_bytes", out.model.clique_bytes as u64);
    let mut phases = JsonObj::new();
    for (name, d) in &out.model.phases {
        phases.field_raw(
            &format!("{}_s", name.replace(' ', "_")),
            &num_exact(d.as_secs_f64()),
        );
    }
    compile.field_raw("phases", &phases.finish());
    let mut partition = JsonObj::new();
    partition.field_u64("components", p.components);
    partition.field_u64("singleton_components", p.singleton_components);
    partition.field_u64("largest_component", p.largest_component);
    partition.field_raw(
        "size_hist",
        &format!(
            "[{},{},{},{}]",
            p.size_hist[0], p.size_hist[1], p.size_hist[2], p.size_hist[3]
        ),
    );
    partition.field_u64("closed_form_components", p.closed_form_components);
    partition.field_u64("closed_form_vars", p.closed_form_vars);
    partition.field_u64("exact_components", p.exact_components);
    partition.field_u64("exact_vars", p.exact_vars);
    partition.field_u64("gibbs_components", p.gibbs_components);
    partition.field_u64("gibbs_vars", p.gibbs_vars);
    partition.field_u64("clique_entries", p.clique_entries);
    partition.field_u64("clique_entries_compact", p.clique_entries_compact);
    partition.field_u64("clique_entries_folded", p.clique_entries_folded);
    partition.field_u64("score_cache_builds", p.score_cache.builds);
    partition.field_u64("score_cache_rows", p.score_cache.rows);
    let s = t.stats;
    // Every attribute is either trainable or skipped.
    let n_attrs = (out.model.trainable_attrs + out.model.evidence_attrs_skipped) as u64;
    let mut stats = JsonObj::new();
    stats.field_u64("pairs", s.pairs);
    stats.field_u64("pairs_possible", n_attrs * n_attrs.saturating_sub(1));
    stats.field_u64("dense_pairs", s.dense_pairs);
    stats.field_u64("csr_pairs", s.csr_pairs);
    stats.field_u64("dense_cells", s.dense_cells);
    stats.field_u64("bytes", s.bytes);
    let r = feed.map_or(RetireStats::default(), |(_, retire)| retire);
    let mut retire = JsonObj::new();
    retire.field_u64("compactions", r.compactions);
    retire.field_u64("live_rows", r.live_rows);
    retire.field_u64("dead_rows", r.dead_rows);

    let mut shape = JsonObj::new();
    shape.field_u64("rows", gen.dirty.tuple_count() as u64);
    shape.field_u64("noisy_cells", out.noisy_cells as u64);
    shape.field_u64("query_vars", out.model.query_vars as u64);
    shape.field_u64("evidence_vars", out.model.evidence_vars as u64);

    let mut root = JsonObj::new();
    root.field_str("dataset", gen.kind.name());
    root.field_raw("shape", &shape.finish());
    root.field_raw("quality", &quality.finish());
    root.field_raw("timings", &timings.finish());
    root.field_raw("detect", &detect.json());
    root.field_raw("compile", &compile.finish());
    let mut memory = JsonObj::new();
    memory.field_num("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    root.field_raw("memory", &memory.finish());
    root.field_raw("learn", &learn);
    root.field_raw("occur_weights", &format!("[{}]", occur.join(",")));
    root.field_raw("partition", &partition.finish());
    root.field_raw("stats", &stats.finish());
    root.field_raw("retire", &retire.finish());
    root.field_raw("ingest", &ingest);
    println!("{}", root.finish());
}

/// How long `csv::parse_dataset` takes over `dirty`, serialised outside
/// the timer; the parsed table is dropped after it.
fn load_time(dirty: &Dataset) -> Duration {
    let text = csv::to_csv_string(dirty);
    let started = Instant::now();
    let parsed = csv::parse_dataset(&text).expect("a serialised table parses back");
    let load = started.elapsed();
    drop(parsed);
    load
}

/// The `IngestStats` object — also reused verbatim for the new
/// machine-readable ingest dump of streamed runs.
fn ingest_json(i: &IngestStats) -> String {
    let mut o = JsonObj::new();
    o.field_u64("batches", i.batches);
    o.field_u64("tuples", i.tuples);
    o.field_u64("rows_deleted", i.rows_deleted);
    o.field_u64("rows_updated", i.rows_updated);
    o.field_u64("cells_recomputed", i.cells_recomputed);
    o.field_u64("vars_added", i.vars_added);
    o.field_u64("vars_retired", i.vars_retired);
    o.field_u64("canonical_retrains", i.canonical_retrains);
    o.finish()
}

/// Runs the dataset through a stream `Session` ([`stream_feed`]),
/// shaping the outcome like the one-shot runner's so the reporting is
/// shared. The session's report speaks the coordinates of the table its
/// read compacted, not the row store's, so the returned [`Dataset`] is
/// that table — candidate values must resolve through it.
fn run_streamed(
    gen: &GeneratedDataset,
    config: HoloConfig,
    args: &Args,
) -> (
    HoloOutcome,
    holo_factor::FeatureRegistry<FeatureKey>,
    holo_factor::Weights,
    Dataset,
    FxHashSet<WeightId>,
    Option<FeedStats>,
) {
    let fail = |e: holoclean::HoloError| -> ! {
        eprintln!("diag --stream: {e}");
        std::process::exit(2)
    };
    let mut session = stream_feed(gen, config, args.stream, args.crud).unwrap_or_else(|e| fail(e));
    let report = session.try_report().unwrap_or_else(|e| fail(e));
    let run = session.cached_run().expect("the read above made it");
    let table = session.cached_table().expect("the read above made it");
    let quality = evaluate(&report, table, &gen.clean);
    let outcome = HoloOutcome {
        quality,
        timings: run.timings,
        report,
        model: run.model.stats.clone(),
        learn_stats: run.learn_stats.clone(),
        violations: run.detection.violations,
        noisy_cells: run.detection.noisy.len(),
    };
    (
        outcome,
        run.model.registry.clone(),
        run.weights.clone(),
        table.clone(),
        evidence_weights(&run.model),
        Some((session.ingest_stats(), session.retire_stats())),
    )
}

/// The weights some evidence row names — the ones training can move.
fn evidence_weights(model: &CompiledModel) -> FxHashSet<WeightId> {
    let design = model.graph.design();
    (model.query_vars.len()..model.graph.var_count())
        .flat_map(|v| design.var_range(VarId(v as u32)))
        .flat_map(|r| design.row(r).iter().map(|&(w, _)| w))
        .collect()
}

fn main() {
    holo_bench::exit_quietly_on_closed_stdout();
    let args = Args::parse(std::env::args());
    let kind = match std::env::var("DIAG_DATASET").as_deref() {
        Ok("flights") => DatasetKind::Flights,
        Ok("food") => DatasetKind::Food,
        Ok("physicians") => DatasetKind::Physicians,
        _ => DatasetKind::Hospital,
    };
    let gen = build(
        kind,
        Scale {
            factor: args.scale,
            seed: args.seed,
            full: args.full,
        },
    );
    let mut config = HoloConfig::default().with_threads(args.threads);
    if args.dc_factors {
        config = config.with_variant(ModelVariant::DcFactorsPartitioned);
    }
    // Before the repair, as a user pays it, so that the text and the
    // parsed table are gone before the repair's peak.
    let load = load_time(&gen.dirty);
    let (out, registry, weights, pool, trained, feed) = if args.stream > 0 {
        run_streamed(&gen, config, &args)
    } else {
        let (out, model, weights) = run_holoclean_full(&gen, config, None, false);
        let trained = evidence_weights(&model);
        (
            out,
            model.registry,
            weights,
            gen.dirty.clone(),
            trained,
            None,
        )
    };
    let ece = expected_calibration_error(&out.report, &pool, &gen.clean);
    let detect = detect_profile(&gen, args.threads);
    let clean = clean_rewrites(&gen, &out.report.repairs);
    let occur = occur_weights(&registry, &weights);
    if args.json {
        print_json(&gen, &out, (&detect, &clean, &occur), (ece, load, feed));
        return;
    }
    println!(
        "{}: P={:.3} R={:.3} F1={:.3} ({} repairs, {} errors, {} noisy cells, {} query vars)",
        kind.name(),
        out.quality.precision,
        out.quality.recall,
        out.quality.f1,
        out.quality.total_repairs,
        out.quality.total_errors,
        out.noisy_cells,
        out.model.query_vars,
    );
    println!(
        "calibration: ECE {ece:.4} over {} query cell(s), ten equal-width bins",
        out.report.posteriors.len()
    );
    println!(
        "clean cells rewritten: {} ({} with a dirty sibling cell, {} to a column-rarer value, \
         {} to an equally frequent one)",
        clean.total, clean.sibling_dirty, clean.to_rarer, clean.to_equal
    );
    println!(
        "model: {} evidence vars from {} trainable attribute(s) ({} skipped: no query variable \
         reads their weights), {} factors, {} singleton noisy cells",
        out.model.evidence_vars,
        out.model.trainable_attrs,
        out.model.evidence_attrs_skipped,
        out.model.factors,
        out.model.singleton_noisy_cells
    );
    println!(
        "stage timings: load {load:?} (CSV parse, not in the total), detect {:?}, compile {:?}, \
         learn {:?}, infer {:?} (total {:?})",
        out.timings.detect,
        out.timings.compile,
        out.timings.learn,
        out.timings.infer,
        out.timings.total()
    );
    match peak_rss_mb() {
        Some(mb) => println!("memory: peak RSS {mb:.1} MB (the whole process, generator included)"),
        None => println!("memory: peak RSS unavailable (no /proc/self/status)"),
    }
    detect.print();
    // The statistics are built inside the compile stage before `compile()`
    // runs: the first entry, on a line of its own.
    if let Some(((_, stats_build), phases)) = out.model.phases.split_first() {
        println!("  statistics build: {stats_build:?}");
        let phases: Vec<String> = phases
            .iter()
            .map(|(name, d)| format!("{name} {d:?}"))
            .collect();
        println!("  compile phases: {}", phases.join(", "));
    }
    println!(
        "  prune index: {} conditioning value(s), {} entr(ies)",
        out.model.prune_index_rows, out.model.prune_index_entries
    );
    println!(
        "  grounding: {} clique(s) from {} tuple pair(s), {} clique cap hit(s), \
         {} two-tuple DC(s) skipped (no equality join key); clique arena {} byte(s)",
        out.model.cliques,
        out.model.dc_pairs_considered,
        out.model.clique_cap_hits,
        out.model.dc_skipped_no_join_key,
        out.model.clique_bytes
    );
    let p = out.timings.partition;
    println!(
        "partitioned inference: {} component(s) ({} singleton, largest {}), \
         size histogram 1/2-3/4-15/16+ = {:?}",
        p.components, p.singleton_components, p.largest_component, p.size_hist
    );
    println!(
        "  routing: {} closed-form ({} vars), {} exact ({} vars), {} Gibbs ({} vars); \
         {} clique-kernel entr(ies) ({} fixed-width), {} folded",
        p.closed_form_components,
        p.closed_form_vars,
        p.exact_components,
        p.exact_vars,
        p.gibbs_components,
        p.gibbs_vars,
        p.clique_entries,
        p.clique_entries_compact,
        p.clique_entries_folded
    );
    println!(
        "  score cache: {} build(s), {} row(s) scored once",
        p.score_cache.builds, p.score_cache.rows
    );
    let s = out.timings.stats;
    let n_attrs = gen.dirty.schema().len() as u64;
    println!(
        "cooccur stats: {} of {} pair(s) built ({} dense / {} CSR), {} dense cell(s), \
         ~{} byte(s)",
        s.pairs,
        n_attrs * n_attrs.saturating_sub(1),
        s.dense_pairs,
        s.csr_pairs,
        s.dense_cells,
        s.bytes
    );
    if let Some((ingest, retire)) = feed {
        println!(
            "ingest: {} batch(es), {} tuple(s)",
            ingest.batches, ingest.tuples
        );
        println!(
            "  reads: {} pipeline run(s) / canonical retrain(s); {} cell(s) compiled, \
             {} var(s) built, {} discarded",
            ingest.canonical_retrains,
            ingest.cells_recomputed,
            ingest.vars_added,
            ingest.vars_retired
        );
        if ingest.rows_deleted > 0 || ingest.rows_updated > 0 {
            println!(
                "  mutations: {} row(s) deleted, {} row(s) updated",
                ingest.rows_deleted, ingest.rows_updated
            );
        }
        println!(
            "  rows: {} live / {} deleted; {} model(s) discarded and rebuilt",
            retire.live_rows, retire.dead_rows, retire.compactions
        );
    }
    match &out.learn_stats {
        Some(ls) => {
            println!(
                "learning: {} examples, {} epochs, {} minibatches, final LL {:.4}, \
                 final grad L2 {:.6} (epoch mean {:.6})",
                ls.examples,
                ls.epochs,
                ls.minibatches,
                ls.final_log_likelihood,
                ls.grad_norm,
                ls.grad_norm_mean
            );
            println!(
                "  minibatches: {}, {} non-finite (diverged)",
                ls.minibatches, ls.non_finite_minibatches
            );
        }
        None => println!("learning: skipped (no evidence)"),
    }
    // Constraint ids are positions in the bound set, which the detection
    // profile lists in order.
    println!("\nlearned DC-violation weights:");
    for (constraint, c) in detect.constraints.iter().enumerate() {
        match registry.get(&FeatureKey::DcViolation { constraint }) {
            Some(id) if trained.contains(&id) => {
                println!("  {:<44} w = {:+.4}", c.name, weights.get(id));
            }
            Some(id) => println!(
                "  {:<44} w = {:+.4} — the prior: not trained (no evidence row names it)",
                c.name,
                weights.get(id)
            ),
            None => println!("  {:<44} not trained (no query variable reads it)", c.name),
        }
    }
    println!("minimality prior = {:+.4}", {
        match registry.get(&FeatureKey::Minimality) {
            Some(id) => weights.get(id),
            None => f64::NAN,
        }
    });
    println!("\nlearned co-occurrence weights (Occur; top 3 conditioning attributes by |w|):");
    let name = |a: AttrId| gen.dirty.schema().attr_name(a);
    for (attr, n, top) in &occur {
        let top = top.iter().map(|&(c, w)| format!("{} {w:+.4}", name(c)));
        println!(
            "  {:<24} {n:>3} weight(s): {}",
            name(*attr),
            top.collect::<Vec<_>>().join(", ")
        );
    }

    // Per-attribute tallies.
    #[derive(Default)]
    struct Tally {
        errors: usize,
        repaired_ok: usize,
        repaired_wrong: usize,
        missed_not_flagged: usize,
        missed_flagged: usize,
    }
    let mut per_attr: FxHashMap<u16, Tally> = FxHashMap::default();
    let repairs_by_cell: FxHashMap<_, _> = out
        .report
        .repairs
        .iter()
        .map(|r| (r.cell, r.new_value.clone()))
        .collect();
    let posteriors: std::collections::HashSet<_> =
        out.report.posteriors.iter().map(|p| p.cell).collect();
    for &cell in &gen.errors {
        let truth = gen.clean.cell_str(cell.tuple, cell.attr);
        let tally = per_attr.entry(cell.attr.0).or_default();
        tally.errors += 1;
        match repairs_by_cell.get(&cell) {
            Some(new) if new == truth => tally.repaired_ok += 1,
            Some(_) => tally.repaired_wrong += 1,
            None => {
                if posteriors.contains(&cell) {
                    tally.missed_flagged += 1;
                } else {
                    tally.missed_not_flagged += 1;
                }
            }
        }
    }
    let mut attrs: Vec<_> = per_attr.into_iter().collect();
    attrs.sort_by_key(|(a, _)| *a);
    println!(
        "\nattr                      errors  fixed  wrong  missed(flagged)  missed(undetected)"
    );
    for (a, t) in attrs {
        println!(
            "{:<24} {:>7} {:>6} {:>6} {:>16} {:>19}",
            gen.dirty.schema().attr_name(holo_dataset::AttrId(a)),
            t.errors,
            t.repaired_ok,
            t.repaired_wrong,
            t.missed_flagged,
            t.missed_not_flagged
        );
    }

    // A few flagged-but-missed examples with posteriors.
    println!("\nsample flagged-but-missed cells:");
    let mut shown = 0;
    for p in &out.report.posteriors {
        if shown >= 5 {
            break;
        }
        let cell = p.cell;
        if !gen.errors.contains(&cell) || repairs_by_cell.contains_key(&cell) {
            continue;
        }
        let truth = gen.clean.cell_str(cell.tuple, cell.attr);
        let dirty = gen.dirty.cell_str(cell.tuple, cell.attr);
        let cands: Vec<String> = p
            .candidates
            .iter()
            .map(|(s, pr)| format!("{}={pr:.3}", pool.value_str(*s)))
            .collect();
        println!(
            "  {} [{}]: dirty={dirty:?} truth={truth:?} posterior: {}",
            cell,
            gen.dirty.schema().attr_name(cell.attr),
            cands.join(", ")
        );
        shown += 1;
    }

    // Wrong repairs.
    println!("\nsample wrong repairs:");
    for r in out.report.repairs.iter().take(200) {
        let truth = gen.clean.cell_str(r.cell.tuple, r.cell.attr);
        if r.new_value != truth {
            println!(
                "  {} [{}]: {:?} -> {:?} (truth {:?}, p={:.3})",
                r.cell,
                gen.dirty.schema().attr_name(r.cell.attr),
                r.old_value,
                r.new_value,
                truth,
                r.probability
            );
        }
    }
}
