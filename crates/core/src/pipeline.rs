//! The repair engine — Figure 2 of the paper as four function calls.
//!
//! The paper describes HoloClean as a *compiler* over a frozen table:
//! error detection feeds compilation (statistics, pruning, featurization,
//! grounding), which feeds learning, which feeds inference. Here that is
//! [`detect`] → [`compile_model`] → [`learn_weights`] →
//! [`infer_marginals`], each taking its predecessor's output by reference,
//! so the argument types are the stage order; [`run`] calls the four and
//! bills each to its [`StageTimings`] slot. They all read one
//! [`PipelineContext`] — the frozen dataset (all dictionary values already
//! interned), the bound constraints, the external-match lookup, detection
//! overrides, the verified cells and the [`HoloConfig`] — which nothing
//! mutates during a run (a [`crate::stream::Session`] builds a fresh
//! context for each run, so its edits happen *between* runs and every run
//! sees a frozen table).
//!
//! ```
//! use holo_dataset::{Dataset, Schema};
//! use holoclean::pipeline::{self, PipelineContext};
//!
//! let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
//! ds.push_row(&["60608", "Chicago"]);
//! let cx = PipelineContext::new(ds, Default::default(), Default::default());
//! let detection = pipeline::detect(&cx);
//! let (model, _) = pipeline::compile_model(&cx, &detection).unwrap();
//! let (weights, _) = pipeline::learn_weights(&model, &cx.config).unwrap();
//! let (marginals, _) = pipeline::infer_marginals(&model, &weights, &cx.ds, &cx.config);
//! assert_eq!(marginals, pipeline::run(&cx).unwrap().marginals);
//! ```
//!
//! ## Parallelism contract
//!
//! The steps parallelise *internally* (violation blocking and probing,
//! domain pruning, featurization, DC-factor grounding, per-component
//! inference — all sharded over [`HoloConfig::threads`]); weight learning
//! runs on one thread, and the sequence itself is strictly ordered
//! because each step consumes its predecessor's output. Every parallel
//! path merges per-shard results in input order — so a run yields
//! **bit-for-bit identical output for every thread count** — `threads =
//! 1` is the sequential engine, anything else is just faster.
//!
//! ## The partition/merge seam of inference
//!
//! Variables interact only through shared clique factors, so the grounded
//! graph splits into independent connected components.
//! [`holo_factor::ComponentIndex`] materialises that partition (one
//! union-find pass over the clique scopes, on the model's first
//! inference), and [`infer_marginals`] fans one inference job out per
//! component:
//! **closed-form** softmax over the component's design-matrix rows when it
//! has no cliques (every variable of the relaxed §5.2 model), **exact
//! enumeration** when its joint query space is within
//! [`HoloConfig::exact_component_limit`], and **per-component Gibbs**
//! otherwise, seeded from `(seed, component_rank)`. Components
//! share no state and per-component marginals merge back in variable
//! order, so the parallelism is deterministic *by construction* — no
//! cross-thread sampling order exists to get wrong. All three engines
//! read the frozen-weight [`holo_factor::ScoreCache`], which lives only for
//! the one call that built it. The routing split is observable in
//! [`StageTimings::partition`].

use crate::compile::{compile_cells, CompileInput, CompiledModel};
use crate::config::HoloConfig;
use crate::context::DatasetContext;
use crate::error::HoloError;
use crate::features::MatchLookup;
use crate::trainable::{noisy_attrs, trainable_attrs};
use holo_constraints::{find_noisy_cells_with_threads, ConstraintSet};
use holo_dataset::{CellRef, CellSet, CooccurStats, Dataset, FxHashSet, StatsStats};
use holo_detect::Detector;
use holo_factor::{
    infer_partitioned, learn, LearnStats, Marginals, PartitionStats, PartitionedConfig, Weights,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Wall-clock duration of each pipeline stage (Table 4 / Figure 4), plus
/// the counter blocks gathered while those stages ran.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Violation detection + any extra detectors.
    pub detect: Duration,
    /// Statistics, matching, pruning, featurization and grounding.
    pub compile: Duration,
    /// Weight learning (SGD).
    pub learn: Duration,
    /// Marginal inference (closed-form or Gibbs).
    pub infer: Duration,
    /// How the last inference pass decomposed the graph: component count,
    /// size histogram, and the closed-form / exact / Gibbs routing split.
    pub partition: PartitionStats,
    /// Size gauges of the statistics this run built: dense vs CSR pair
    /// blocks, dense cells, approximate bytes.
    pub stats: StatsStats,
}

impl StageTimings {
    /// Learning + inference — the "Repairing" time of Figure 4.
    pub fn repair(&self) -> Duration {
        self.learn + self.infer
    }

    /// End-to-end time.
    pub fn total(&self) -> Duration {
        self.detect + self.compile + self.learn + self.infer
    }
}

/// The inputs every step shares, only ever borrowed by a run. Constructed
/// after dictionary matching has interned all asserted values, so no step
/// needs to change the dataset.
pub struct PipelineContext {
    /// The frozen dirty dataset.
    pub ds: Dataset,
    /// Bound denial constraints Σ.
    pub constraints: ConstraintSet,
    /// External-match lookup (`Matched` relation), possibly empty.
    pub matches: MatchLookup,
    /// Detection override: when set, this is the noisy set `D_n`, verbatim.
    /// The violations of Σ are still detected: [`Detection::violations`]
    /// counts them, and the partitioning variants group by them.
    pub noisy_override: Option<FxHashSet<CellRef>>,
    /// Extra detectors unioned with violation detection.
    pub extra_detectors: Vec<Box<dyn Detector + Send + Sync>>,
    /// Cells whose value a user verified (feedback labels, §2.2): never
    /// noisy, whatever detection or the override says, so each is an
    /// ordinary clean cell of the table.
    pub verified: FxHashSet<CellRef>,
    /// Pipeline configuration.
    pub config: HoloConfig,
}

impl PipelineContext {
    /// A context with no external matches, no overrides and no extra
    /// detectors — enough for constraint-only repair.
    pub fn new(ds: Dataset, constraints: ConstraintSet, config: HoloConfig) -> Self {
        PipelineContext {
            ds,
            constraints,
            matches: MatchLookup::default(),
            noisy_override: None,
            extra_detectors: Vec::new(),
            verified: FxHashSet::default(),
            config,
        }
    }
}

/// What [`detect`] found.
#[derive(Debug, PartialEq)]
pub struct Detection {
    /// How many violations of Σ the table holds (counted, never listed:
    /// Algorithm 3 takes its groups from the value groups too).
    pub violations: usize,
    /// The noisy-cell set `D_n`, one tuple bitmap per attribute.
    pub noisy: CellSet,
}

/// Everything [`run`] produced.
pub struct PipelineRun {
    /// Violations and the noisy set.
    pub detection: Detection,
    /// The grounded model.
    pub model: CompiledModel,
    /// Learned weights (the model's priors when it has no evidence).
    pub weights: Weights,
    /// Learning diagnostics; `None` when the model has no evidence.
    pub learn_stats: Option<LearnStats>,
    /// Posterior marginals.
    pub marginals: Marginals,
    /// Wall-clock per step, the inference routing split and the
    /// statistics gauges.
    pub timings: StageTimings,
}

/// Error detection: the violations of Σ — counted, never listed, under
/// every variant — and as the noisy set their cells plus any extra
/// detectors' — or the override set verbatim — less the
/// [`PipelineContext::verified`] cells. Violation probing shards across
/// [`HoloConfig::threads`].
pub fn detect(cx: &PipelineContext) -> Detection {
    let (ds, threads) = (&cx.ds, cx.config.threads);
    let (violating, violations) = find_noisy_cells_with_threads(ds, &cx.constraints, threads);
    let mut noisy = match &cx.noisy_override {
        Some(cells) => cells.iter().copied().collect(),
        None => {
            let mut noisy = violating;
            for d in &cx.extra_detectors {
                noisy.extend(d.detect(ds));
            }
            noisy
        }
    };
    for &cell in &cx.verified {
        noisy.remove(cell);
    }
    Detection { violations, noisy }
}

/// Compilation: co-occurrence statistics (the pair blocks of the target
/// attributes a variable can have, see [`crate::trainable`]), Algorithm 2
/// pruning, featurization of every variable straight into the CSR design
/// matrix and (in the factor variants) Algorithm 1 grounding. Pruning,
/// featurization and grounding shard across [`HoloConfig::threads`].
/// Returns the model — the wall-clock of the statistics build prepended to
/// its [`crate::compile::CompileStats::phases`] as `stats build` — and the
/// statistics-engine gauges.
pub fn compile_model(
    cx: &PipelineContext,
    detection: &Detection,
) -> Result<(CompiledModel, StatsStats), HoloError> {
    // Pair blocks only for the target attributes compile can read: those
    // of the noisy cells (Algorithm 2, the `Occur` features) and of
    // the evidence they can make trainable — a superset of the attributes
    // compile ends up drawing evidence from, which are seeded by the noisy
    // cells that keep ≥ 2 candidates.
    let noisy = noisy_attrs(cx.ds.schema().len(), &detection.noisy);
    let targets = trainable_attrs(noisy, &cx.constraints, &cx.matches, &cx.config);
    let started = Instant::now();
    let stats = CooccurStats::build_for_targets(&cx.ds, cx.config.threads, &targets);
    let stats_build = started.elapsed();
    let input = CompileInput {
        ds: &cx.ds,
        constraints: &cx.constraints,
        noisy: &FxHashSet::default(),
        violations: &[],
        stats: &stats,
        matches: &cx.matches,
        config: &cx.config,
    };
    let mut model = compile_cells(&input, &detection.noisy)?;
    model.stats.phases.insert(0, ("stats build", stats_build));
    Ok((model, stats.stats_stats()))
}

/// Weight learning from `model`'s priors: minibatch SGD over the evidence
/// variables, reading the compiled [`holo_factor::DesignMatrix`].
/// Learning runs on the caller's thread whatever [`HoloConfig::threads`]
/// says (minibatch gradients fold in fixed-size example shards, in shard
/// order), so the learned weights are bit-for-bit identical at every
/// thread count. Returns the learned
/// weights and the diagnostics (`None` when the model has no evidence and
/// the weights stay at their priors). `learn::train_with_threads` freezes
/// the weights at the first non-finite gradient, and weights frozen there
/// may already hold an overflowed ±∞, so a diverging
/// [`holo_factor::LearnConfig::learning_rate`] is
/// [`HoloError::LearnDiverged`], never poisoned weights.
pub fn learn_weights(
    model: &CompiledModel,
    config: &HoloConfig,
) -> Result<(Weights, Option<LearnStats>), HoloError> {
    let mut weights = model.weights.clone();
    if model.stats.evidence_vars == 0 {
        return Ok((weights, None));
    }
    let stats =
        learn::train_with_threads(&model.graph, &mut weights, &config.learn, config.threads);
    if stats.non_finite_minibatches > 0 {
        return Err(HoloError::LearnDiverged {
            non_finite_minibatches: stats.non_finite_minibatches,
            minibatches: stats.minibatches,
        });
    }
    Ok((weights, Some(stats)))
}

/// Marginal inference over `model` under `weights`, partitioned: each
/// connected component routes to the cheapest sound engine (see the module
/// docs) and components run concurrently over [`HoloConfig::threads`].
/// Marginals merge back in variable order, so every thread count is
/// bit-for-bit `threads = 1`.
pub fn infer_marginals(
    model: &CompiledModel,
    weights: &Weights,
    ds: &Dataset,
    config: &HoloConfig,
) -> (Marginals, PartitionStats) {
    infer_partitioned(
        &model.graph,
        weights,
        &DatasetContext::new(ds),
        &PartitionedConfig {
            gibbs: config.gibbs,
            exact_limit: config.exact_component_limit,
            chromatic: false,
            score_cache: true,
        },
        config.threads,
    )
}

/// The paper's pipeline: [`detect`] → [`compile_model`] →
/// [`learn_weights`] → [`infer_marginals`], each billed to its
/// [`StageTimings`] slot.
pub fn run(cx: &PipelineContext) -> Result<PipelineRun, HoloError> {
    let mut timings = StageTimings::default();
    let t = Instant::now();
    let detection = detect(cx);
    timings.detect = t.elapsed();

    let t = Instant::now();
    let (model, stats) = compile_model(cx, &detection)?;
    timings.compile = t.elapsed();
    timings.stats = stats;

    let t = Instant::now();
    let (weights, learn_stats) = learn_weights(&model, &cx.config)?;
    timings.learn = t.elapsed();

    let t = Instant::now();
    let (marginals, partition) = infer_marginals(&model, &weights, &cx.ds, &cx.config);
    timings.infer = t.elapsed();
    timings.partition = partition;

    Ok(PipelineRun {
        detection,
        model,
        weights,
        learn_stats,
        marginals,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_constraints::parse_constraints;
    use holo_dataset::Schema;

    fn zip_city_context(threads: usize) -> PipelineContext {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
        for _ in 0..8 {
            ds.push_row(&["60608", "Chicago", "IL"]);
        }
        ds.push_row(&["60608", "Cicago", "IL"]);
        for _ in 0..5 {
            ds.push_row(&["60609", "Evanston", "IL"]);
        }
        let constraints = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let mut constraint_set = ConstraintSet::new();
        for (_, c) in constraints.iter() {
            constraint_set.push(c.clone());
        }
        PipelineContext::new(
            ds,
            constraint_set,
            HoloConfig::default().with_threads(threads),
        )
    }

    #[test]
    fn standard_pipeline_fills_every_output() {
        let cx = zip_city_context(1);
        let out = run(&cx).unwrap();
        assert!(out.detection.violations > 0);
        assert!(!out.detection.noisy.is_empty());
        assert!(out.model.stats.query_vars > 0);
        assert!(out.learn_stats.is_some());
        assert_eq!(out.marginals.len(), out.model.graph.var_count());
        assert!(out.timings.total() > Duration::ZERO);
        // Inference partitioned the graph: a component per query variable
        // (the default model is clique-free), all routed through the
        // closed form.
        let partition = out.timings.partition;
        assert!(partition.components >= 1);
        assert_eq!(partition.components, partition.closed_form_components);
        assert_eq!(partition.gibbs_components, 0);
    }

    /// Detection lists nothing, so it does not depend on the variant: the
    /// partitioning one counts the same violations and flags the same
    /// cells as the relaxed one.
    #[test]
    fn detection_is_the_same_under_every_variant() {
        let relaxed = detect(&zip_city_context(1));
        let mut cx = zip_city_context(1);
        cx.config = cx
            .config
            .with_variant(crate::ModelVariant::DcFactorsPartitioned);
        let partitioned = detect(&cx);
        assert_eq!(
            relaxed.violations, 8,
            "the typo against each clean 60608 row"
        );
        assert_eq!(partitioned, relaxed);
    }

    fn weight_bits(w: &Weights) -> Vec<u64> {
        (0..w.len())
            .map(|i| w.get(holo_factor::WeightId(i as u32)).to_bits())
            .collect()
    }

    /// `run` is the four calls and nothing else: made by hand they give the
    /// same violations, noisy set, weights and marginals.
    #[test]
    fn run_equals_the_four_calls_made_by_hand() {
        for threads in [1, 4] {
            let cx = zip_city_context(threads);
            let out = run(&cx).unwrap();
            let detection = detect(&cx);
            let (model, _) = compile_model(&cx, &detection).unwrap();
            let (weights, _) = learn_weights(&model, &cx.config).unwrap();
            let (marginals, _) = infer_marginals(&model, &weights, &cx.ds, &cx.config);
            assert_eq!(detection, out.detection, "threads = {threads}");
            assert_eq!(weight_bits(&weights), weight_bits(&out.weights));
            assert_eq!(marginals, out.marginals, "threads = {threads}");
        }
    }

    /// The determinism contract of the engine: every thread count produces
    /// identical marginals, weights and noisy sets.
    #[test]
    fn thread_count_never_changes_output() {
        let reference = run(&zip_city_context(1)).unwrap();
        for threads in [2, 4, 8] {
            let out = run(&zip_city_context(threads)).unwrap();
            assert_eq!(out.detection, reference.detection, "threads = {threads}");
            assert_eq!(out.marginals, reference.marginals, "threads = {threads}");
        }
    }
}
