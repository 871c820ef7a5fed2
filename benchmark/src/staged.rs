//! The staged driver of the traced pass: `HoloClean::run` unrolled into the
//! same public calls in the same order, one span around each, so every
//! layer is timed from outside. Its report must digest-equal
//! `HoloClean::run`'s, or the trace describes a different program.
//!
//! Three **probes** run after the repair, under a root of their own so the
//! repair tree still sums to its root: they re-run a piece that
//! `compile()` does inside itself (domain pruning, the design-matrix build)
//! or that inference builds lazily (the component index), to price it.
//!
//! The probes need the repair's intermediates alive, so the driver frees
//! them only afterwards, in a last root span, `core.teardown`.
//! `HoloClean::run` frees the same values before it returns; the teardown
//! span is what makes the traced repair and the untraced one comparable.

use crate::trace::Tracer;
use crate::workloads::Input;
use holo_constraints::{find_violations_with_threads, parse_constraints, ConstraintSet};
use holo_dataset::{csv, CellRef, CooccurStats, FxHashSet};
use holo_external::{DictId, Matcher};
use holo_factor::{infer_partitioned, learn, PartitionedConfig};
use holoclean::compile::{compile, CompileInput};
use holoclean::context::DatasetContext;
use holoclean::features::MatchLookup;
use holoclean::{prune_domains_with_threads, RepairReport};

/// One traced one-shot repair plus its probes.
pub fn staged_repair(
    input: &Input,
    threads: usize,
    tr: &mut Tracer,
) -> Result<RepairReport, String> {
    let config = input.config(threads);
    let root = tr.open("repair");

    let (id, ds) = tr.span("dataset.csv_parse", || csv::parse_dataset(&input.csv));
    let mut ds = ds.map_err(|e| e.to_string())?;
    tr.count(id, "bytes", input.csv.len() as f64);
    tr.count(id, "rows", ds.tuple_count() as f64);

    let (_, parsed) = tr.span("constraints.parse", || {
        parse_constraints(&input.constraints, &mut ds).map(|parsed| {
            let mut set = ConstraintSet::new();
            for (_, c) in parsed.iter() {
                set.push(c.clone());
            }
            set
        })
    });
    let constraints = parsed.map_err(|e| e.to_string())?;

    // External matching interns the asserted values; afterwards the
    // dataset is frozen (`HoloClean::run_full` does exactly this).
    let mut matches = MatchLookup::default();
    let id = tr.open("external.match");
    let mut found = 0usize;
    if let Some((dict, deps)) = &input.dictionary {
        let matcher = Matcher::new(dict, DictId(0));
        for md in deps {
            for m in matcher.find_matches(&ds, md).map_err(|e| e.to_string())? {
                found += 1;
                let sym = ds.intern(&m.value);
                let dicts = matches.entry((m.cell, sym)).or_default();
                if !dicts.contains(&m.dict) {
                    dicts.push(m.dict);
                }
            }
        }
    }
    tr.close(id);
    tr.count(id, "matches", found as f64);

    let (id, (violations, noisy)) = tr.span("constraints.detect", || {
        let violations = find_violations_with_threads(&ds, &constraints, config.threads);
        let mut noisy: FxHashSet<CellRef> = FxHashSet::default();
        for v in &violations {
            noisy.extend(v.cells.iter().copied());
        }
        (violations, noisy)
    });
    tr.count(id, "violations", violations.len() as f64);
    tr.count(id, "noisy_cells", noisy.len() as f64);

    let (stats_span, stats) = tr.span("dataset.stats_build", || {
        CooccurStats::build_with_opts(&ds, config.threads, config.naive_stats)
    });

    let (id, model) = tr.span("core.compile", || {
        compile(&CompileInput {
            ds: &ds,
            constraints: &constraints,
            noisy: &noisy,
            violations: &violations,
            stats: &stats,
            matches: &matches,
            config: &config,
        })
    });
    let mut model = model.map_err(|e| e.to_string())?;
    for (key, value) in [
        ("query_vars", model.stats.query_vars),
        ("evidence_vars", model.stats.evidence_vars),
        ("factors", model.stats.factors),
        ("cliques", model.stats.cliques),
    ] {
        tr.count(id, key, value as f64);
    }
    // Gauges of the statistics as they stand after compile read them.
    let gauges = stats.stats_stats();
    for (key, value) in [
        ("cells", ds.cell_count() as u64),
        ("bytes", gauges.bytes),
        ("dense_pairs", gauges.dense_pairs),
        ("csr_pairs", gauges.csr_pairs),
    ] {
        tr.count(stats_span, key, value as f64);
    }

    let mut weights = model.weights.clone();
    let (id, learned) = tr.span("factor.learn", || {
        (model.stats.evidence_vars > 0).then(|| {
            learn::train_with_threads(&model.graph, &mut weights, &config.learn, config.threads)
        })
    });
    if let Some(ls) = learned {
        tr.count(id, "examples", ls.examples as f64);
        tr.count(id, "epochs", ls.epochs as f64);
        tr.count(id, "minibatches", ls.minibatches as f64);
        tr.count(id, "final_ll", ls.final_log_likelihood);
        tr.count(id, "arena_bytes", ls.packed_bytes as f64);
    }

    let (id, (marginals, partition)) = tr.span("factor.infer", || {
        infer_partitioned(
            &model.graph,
            &weights,
            &DatasetContext::new(&ds),
            &PartitionedConfig {
                gibbs: config.gibbs,
                exact_limit: config.exact_component_limit,
                chromatic: config.chromatic_gibbs,
                score_cache: config.score_cache,
            },
            config.threads,
        )
    });
    for (key, value) in [
        ("components", partition.components),
        ("largest_component", partition.largest_component),
        ("closed_form_vars", partition.closed_form_vars),
        ("exact_vars", partition.exact_vars),
        ("gibbs_vars", partition.gibbs_vars),
        ("cache_rows", partition.score_cache.rows),
    ] {
        tr.count(id, key, value as f64);
    }

    let (id, report) = tr.span("core.repair_extract", || {
        let report = RepairReport::from_marginals(
            &ds,
            &model.query_cells,
            &model.query_vars,
            &model.graph,
            &marginals,
        );
        std::hint::black_box(report.apply(&ds));
        report
    });
    tr.count(id, "repairs", report.repairs.len() as f64);
    tr.close(root);

    let probes = tr.open("probe");
    let mut noisy_cells: Vec<CellRef> = noisy.iter().copied().collect();
    noisy_cells.sort_unstable();
    let (id, domains) = tr.span("core.prune", || {
        prune_domains_with_threads(
            &ds,
            &noisy_cells,
            &stats,
            config.tau,
            config.max_domain,
            config.threads,
        )
    });
    tr.count(id, "noisy_cells", noisy_cells.len() as f64);
    tr.count(id, "candidates", domains.total_candidates() as f64);

    model.graph.invalidate_design();
    let (id, (rows, nnz)) = tr.span("factor.design_build", || {
        let design = model.graph.design();
        (design.rows(), design.nnz())
    });
    tr.count(id, "rows", rows as f64);
    tr.count(id, "nnz", nnz as f64);

    model.graph.invalidate_components();
    let (id, components) = tr.span("factor.component_index_build", || {
        model.graph.components().len()
    });
    tr.count(id, "components", components as f64);
    drop((noisy_cells, domains));
    tr.close(probes);

    tr.span("core.teardown", || {
        drop((marginals, weights, model, stats, matches));
        drop((violations, noisy, constraints, ds));
    });

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{digest, find, one_shot};

    /// The layer spans of the repair tree, in call order.
    const REPAIR_SPANS: [&str; 9] = [
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

    #[test]
    fn staged_driver_equals_holoclean_run_on_every_one_shot_workload() {
        for name in [
            "hospital_1k",
            "food_18k",
            "physicians_20k",
            "hospital_1k_dcfactors",
        ] {
            let w = find(name).unwrap();
            let input = w.input(11, true);
            let mut tr = Tracer::new();
            let staged = staged_repair(&input, 2, &mut tr).unwrap();
            let plain = one_shot(&input, 2).unwrap();
            assert_eq!(digest(&staged), digest(&plain), "{name}");

            let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
            assert_eq!(names[0], "repair");
            assert_eq!(&names[1..10], &REPAIR_SPANS, "{name}");
            assert_eq!(
                &names[10..],
                &[
                    "probe",
                    "core.prune",
                    "factor.design_build",
                    "factor.component_index_build",
                    "core.teardown"
                ]
            );
            let cliques = tr.find("core.compile").unwrap().count("cliques");
            assert_eq!(
                cliques > 0.0,
                w.dc_factors,
                "{name}: cliques only under DC factors"
            );
            let matches = tr.find("external.match").unwrap().count("matches");
            assert_eq!(
                matches > 0.0,
                w.dictionary,
                "{name}: matches only with a dictionary"
            );
        }
    }
}
