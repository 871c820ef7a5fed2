//! The staged repair engine — Figure 2 of the paper as an explicit,
//! extensible pipeline.
//!
//! The paper describes HoloClean as a *compiler*: error detection feeds
//! compilation (statistics, pruning, featurization, grounding), which feeds
//! learning, which feeds inference. The seed encoded that dataflow as one
//! hard-wired function; this module makes it a first-class architecture:
//!
//! * [`PipelineContext`] — the shared **immutable** inputs every stage
//!   reads: the frozen dataset (all dictionary values already interned),
//!   the bound constraints, the external-match lookup, detection overrides
//!   and the [`HoloConfig`]. Nothing mutates it after construction, which
//!   is what lets the stages fan work out across threads freely.
//! * [`StageData`] — the blackboard stages write their outputs to
//!   (violations → noisy set → compiled model → weights → marginals).
//! * [`Stage`] — one pipeline step. The four standard stages are
//!   [`DetectStage`], [`CompileStage`], [`LearnStage`] and [`InferStage`];
//!   each declares its [`StageKind`] so the driver can bill wall-clock to
//!   the right [`StageTimings`] slot.
//! * [`Pipeline`] — an ordered stage list with a driver loop. This is the
//!   seam future work plugs into (sharded detect, incremental compile,
//!   async stages): implement [`Stage`], pick the [`StageKind`] whose
//!   budget the step belongs to, and insert it with [`Pipeline::push`].
//!
//! ## Parallelism contract
//!
//! Stages parallelise *internally* (violation blocking and probing, domain
//! pruning, featurization, DC-factor grounding, minibatch-SGD gradient
//! shards, per-component inference — all sharded over
//! [`HoloConfig::threads`]); the stage sequence itself is strictly ordered
//! because each stage consumes its predecessor's output. Every parallel
//! path merges per-shard results in input order, and order-sensitive
//! reductions (the SGD gradient sums) use **fixed-size shards** whose
//! boundaries never depend on the thread count
//! (`holo_parallel::sharded_fold`) — so a pipeline run yields
//! **bit-for-bit identical output for every thread count** — `threads = 1`
//! is the sequential engine, anything else is just faster.
//!
//! ## The partition/merge seam of inference
//!
//! Variables interact only through shared clique factors, so the grounded
//! graph splits into independent connected components.
//! [`holo_factor::ComponentIndex`] materialises that partition (built once
//! per model by a union-find over the clique scopes, then patched in place
//! by graph mutators exactly like the design matrix — feedback pins never
//! rebuild it), and [`InferStage`] fans one inference job out per
//! component: **closed-form** softmax over the component's design-matrix
//! rows when it has no cliques (every variable of the relaxed §5.2 model),
//! **exact enumeration** when its joint query space is within
//! [`HoloConfig::exact_component_limit`], and **per-component multi-chain
//! Gibbs** otherwise, seeded from `(seed, component_rank)`. Components
//! share no state and per-component marginals merge back in variable
//! order, so the parallelism is deterministic *by construction* — no
//! cross-thread sampling order exists to get wrong. The routing split is
//! observable in [`StageTimings::partition`] and the index maintenance in
//! [`StageTimings::components`].
//!
//! ## The compiled scoring substrate
//!
//! Compile's featurization ends in the model's
//! [`holo_factor::DesignMatrix`]: a CSR matrix with one row per
//! `(variable, candidate)` pair, columns of `(WeightId, f64)` feature
//! entries, a row-offset index and a per-variable row-range index. SGD
//! walks rows, the Gibbs conditional scores a variable's contiguous row
//! range, and exact enumeration precomputes all row scores once.
//!
//! The matrix is assembled **once** — Compile featurizes straight into
//! it, and it is the only place unary features are stored — and then
//! kept current incrementally: every `FactorGraph` mutator splices the
//! affected variable's row range in place, so the feedback loop's
//! `pin_evidence` patches one variable per label. The
//! [`holo_factor::DesignStats`] counters in [`StageTimings::design`]
//! (full builds vs rows patched) make the distinction observable.
//!
//! On top of the matrix sits the **frozen-weight score cache**
//! ([`holo_factor::ScoreCache`], [`HoloConfig::score_cache`]): inference
//! weights are frozen, so [`InferStage`] scores every design row once in
//! parallel through the blocked kernel and all three partitioned engines
//! read the cached rows — a Gibbs conditional starts from a memcpy
//! instead of a matrix walk. **Freshness invariant:** the cache borrows
//! the design matrix and lives only for the one `infer_partitioned` call
//! that built it — it is never stored in the `FactorGraph`, so feedback
//! retrains (which move the weights and patch the matrix) can never read
//! a stale score. Because the cache reproduces the kernel's exact
//! addition order, repairs and posteriors are byte-identical with the
//! cache on or off; [`holo_factor::ScoreCacheStats`] rides
//! [`StageTimings::partition`] for observability.
//!
//! ## Adding a stage
//!
//! Stages splice in relative to the standard four with
//! [`Pipeline::insert_after`] and [`Pipeline::insert_before`]. A
//! post-stage audit slots in *after* its subject; a stage that must see
//! the raw inputs before anything else — the natural position for an
//! ingest/admission step feeding the streaming engine, which validates
//! and stamps arriving tuples before Detect probes them — slots in
//! *before* Detect:
//!
//! ```
//! use holo_dataset::{Dataset, Schema};
//! use holoclean::pipeline::{Pipeline, Stage, StageData, StageKind, PipelineContext};
//! use holoclean::HoloError;
//!
//! /// Pre-Detect admission: sanity-checks the batch before detection
//! /// (shown as a no-op; a real ingest stage would validate arity,
//! /// stamp arrival metadata, or route tuples to shards).
//! struct IngestStage;
//!
//! impl Stage for IngestStage {
//!     fn kind(&self) -> StageKind { StageKind::Detect } // billed to detect
//!     fn name(&self) -> &'static str { "ingest" }
//!     fn run(&self, cx: &PipelineContext, _data: &mut StageData) -> Result<(), HoloError> {
//!         if cx.ds.tuple_count() == 0 {
//!             return Err(HoloError::Stream("empty batch".into()));
//!         }
//!         Ok(())
//!     }
//! }
//!
//! /// Counts how many noisy cells detection produced.
//! struct AuditStage;
//!
//! impl Stage for AuditStage {
//!     fn kind(&self) -> StageKind { StageKind::Detect } // billed to detect
//!     fn name(&self) -> &'static str { "audit" }
//!     fn run(&self, _cx: &PipelineContext, data: &mut StageData) -> Result<(), HoloError> {
//!         assert!(data.noisy.len() <= usize::MAX); // your instrumentation here
//!         Ok(())
//!     }
//! }
//!
//! let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
//! ds.push_row(&["60608", "Chicago"]);
//! let cx = PipelineContext::new(ds, Default::default(), Default::default());
//! let mut pipeline = Pipeline::standard();
//! pipeline.insert_after(StageKind::Detect, Box::new(AuditStage));
//! pipeline.insert_before(StageKind::Detect, Box::new(IngestStage));
//! assert_eq!(pipeline.stage_names(),
//!            vec!["ingest", "detect", "audit", "compile", "learn", "infer"]);
//! let (data, timings) = pipeline.run(&cx).unwrap();
//! assert!(data.marginals.is_some());
//! assert_eq!(timings.total(), timings.detect + timings.compile + timings.learn + timings.infer);
//! ```

use crate::compile::{compile, CompileInput, CompiledModel};
use crate::config::HoloConfig;
use crate::context::DatasetContext;
use crate::error::HoloError;
use crate::features::MatchLookup;
use holo_constraints::{find_violations_with_threads, noisy_cells, ConstraintSet, Violation};
use holo_dataset::{CellRef, CooccurStats, Dataset, FxHashSet};
use holo_detect::Detector;
use holo_factor::{
    infer_partitioned, learn, ComponentStats, DesignStats, LearnStats, Marginals, PartitionStats,
    PartitionedConfig, Weights,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Wall-clock duration of each pipeline stage (Table 4 / Figure 4), plus
/// the design-matrix build/patch counters accumulated while those stages
/// ran — a fresh pipeline run shows exactly one full build (forced at the
/// end of Compile) and zero patches; a feedback session's timings show
/// zero further full builds and one patch per label-extended variable.
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
    /// Design-matrix work: full compiles vs in-place row patches.
    pub design: DesignStats,
    /// How the last inference pass decomposed the graph: component count,
    /// size histogram, and the closed-form / exact / Gibbs routing split.
    pub partition: PartitionStats,
    /// Component-index work: full union-find builds vs in-place patches
    /// (late-clique merges, appended singletons).
    pub components: ComponentStats,
    /// Streaming-ingestion counters (zero for one-shot pipeline runs;
    /// filled by [`crate::stream::StreamSession`], which bills its pushes
    /// to Detect, its reads to the other three slots, and its batch
    /// bookkeeping here).
    pub ingest: crate::stream::IngestStats,
    /// Model turnover of a streaming session and the live-vs-tombstoned
    /// row split of its backing table (zero for one-shot runs).
    pub retire: crate::stream::RetireStats,
    /// Statistics-engine gauges and counters: dense vs CSR pair blocks,
    /// dense cells and approximate bytes, plus build/extend/retract and
    /// correlation-recompute counts (all-zero storage gauges under
    /// `--naive-stats`).
    pub stats: holo_dataset::StatsStats,
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

    /// Adds `elapsed` to the slot of `kind`.
    pub fn record(&mut self, kind: StageKind, elapsed: Duration) {
        match kind {
            StageKind::Detect => self.detect += elapsed,
            StageKind::Compile => self.compile += elapsed,
            StageKind::Learn => self.learn += elapsed,
            StageKind::Infer => self.infer += elapsed,
        }
    }
}

/// The four budgets of the staged engine; every [`Stage`] bills its
/// wall-clock to one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// Error detection (noisy/clean split).
    Detect,
    /// Statistics, pruning, featurization, grounding.
    Compile,
    /// Weight learning.
    Learn,
    /// Marginal inference.
    Infer,
}

impl StageKind {
    /// Canonical lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Detect => "detect",
            StageKind::Compile => "compile",
            StageKind::Learn => "learn",
            StageKind::Infer => "infer",
        }
    }
}

/// The immutable inputs every stage shares. Constructed once (after
/// dictionary matching has interned all asserted values, so the dataset
/// never needs to change again) and only ever borrowed.
pub struct PipelineContext {
    /// The frozen dirty dataset.
    pub ds: Dataset,
    /// Bound denial constraints Σ.
    pub constraints: ConstraintSet,
    /// External-match lookup (`Matched` relation), possibly empty.
    pub matches: MatchLookup,
    /// Detection override: when set, stages skip detection entirely.
    pub noisy_override: Option<FxHashSet<CellRef>>,
    /// Extra detectors unioned with violation detection.
    pub extra_detectors: Vec<Box<dyn Detector + Send + Sync>>,
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
            config,
        }
    }
}

/// The blackboard stages write to. Each standard stage fills the fields
/// its successors consume; introspection reads whatever it needs after the
/// run.
#[derive(Default)]
pub struct StageData {
    /// Detected violations (Detect).
    pub violations: Vec<Violation>,
    /// The noisy-cell set `D_n` (Detect).
    pub noisy: FxHashSet<CellRef>,
    /// The grounded model (Compile).
    pub model: Option<CompiledModel>,
    /// Learned weights (Learn; starts from the model's priors).
    pub weights: Option<Weights>,
    /// Learning diagnostics, when any evidence existed (Learn).
    pub learn_stats: Option<LearnStats>,
    /// Posterior marginals (Infer).
    pub marginals: Option<Marginals>,
    /// How inference partitioned and routed the graph (Infer).
    pub partition_stats: Option<PartitionStats>,
    /// Statistics-engine gauges captured when Compile built the
    /// co-occurrence statistics (Compile).
    pub stats_stats: Option<holo_dataset::StatsStats>,
}

impl StageData {
    fn require_model(&self, consumer: &'static str) -> Result<&CompiledModel, HoloError> {
        self.model.as_ref().ok_or_else(|| {
            HoloError::Pipeline(format!(
                "{consumer} stage ran before Compile produced a model"
            ))
        })
    }
}

/// One step of the staged engine.
pub trait Stage: Send + Sync {
    /// Which [`StageTimings`] slot this stage bills to.
    fn kind(&self) -> StageKind;

    /// Human-readable stage name (diagnostics).
    fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Executes the stage: read the shared context and predecessor outputs,
    /// write this stage's outputs.
    fn run(&self, cx: &PipelineContext, data: &mut StageData) -> Result<(), HoloError>;
}

/// Error detection: violations of Σ plus any extra detectors, or the
/// override set verbatim. Violation probing shards across
/// [`HoloConfig::threads`].
pub struct DetectStage;

impl Stage for DetectStage {
    fn kind(&self) -> StageKind {
        StageKind::Detect
    }

    fn run(&self, cx: &PipelineContext, data: &mut StageData) -> Result<(), HoloError> {
        data.violations = find_violations_with_threads(&cx.ds, &cx.constraints, cx.config.threads);
        data.noisy = match &cx.noisy_override {
            Some(cells) => cells.clone(),
            None => {
                let mut noisy = noisy_cells(&data.violations);
                for d in &cx.extra_detectors {
                    noisy.extend(d.detect(&cx.ds));
                }
                noisy
            }
        };
        Ok(())
    }
}

/// Compilation: co-occurrence statistics, Algorithm 2 pruning,
/// featurization of every variable, (in the factor variants) Algorithm 1
/// grounding, and the final CSR design-matrix build. Pruning,
/// featurization and grounding shard across [`HoloConfig::threads`].
pub struct CompileStage;

impl Stage for CompileStage {
    fn kind(&self) -> StageKind {
        StageKind::Compile
    }

    fn run(&self, cx: &PipelineContext, data: &mut StageData) -> Result<(), HoloError> {
        let stats = CooccurStats::build_with_opts(&cx.ds, cx.config.threads, cx.config.naive_stats);
        let model = compile(&CompileInput {
            ds: &cx.ds,
            constraints: &cx.constraints,
            noisy: &data.noisy,
            violations: &data.violations,
            stats: &stats,
            matches: &cx.matches,
            config: &cx.config,
        })?;
        // Snapshot after compile so the correlation-recompute counter
        // reflects whether the gate ran.
        data.stats_stats = Some(stats.stats_stats());
        data.model = Some(model);
        Ok(())
    }
}

/// Weight learning: minibatch SGD over the evidence variables, reading
/// the compiled [`holo_factor::DesignMatrix`]. Minibatch gradients shard
/// across [`HoloConfig::threads`] in fixed-size example shards merged in
/// shard order, so the learned weights are bit-for-bit identical at every
/// thread count. Skipped (weights stay at their priors) when compilation
/// produced no evidence. A training run whose gradients went non-finite
/// (a diverging [`LearnConfig::learning_rate`]) fails the stage with
/// [`HoloError::LearnDiverged`] instead of handing poisoned weights to
/// inference.
///
/// [`LearnConfig::learning_rate`]: holo_factor::LearnConfig::learning_rate
pub struct LearnStage;

impl Stage for LearnStage {
    fn kind(&self) -> StageKind {
        StageKind::Learn
    }

    fn run(&self, cx: &PipelineContext, data: &mut StageData) -> Result<(), HoloError> {
        let model = data.require_model("Learn")?;
        let (weights, stats) = learn_weights(model, &cx.config)?;
        data.learn_stats = stats;
        data.weights = Some(weights);
        Ok(())
    }
}

/// Trains `model`'s weights from its priors — the body of [`LearnStage`],
/// shared with [`crate::stream::StreamSession`] so a streamed read learns
/// through the same code as a one-shot run. Returns the learned weights
/// and the diagnostics (`None` when the model has no evidence and the
/// weights stay at their priors); non-finite gradients are
/// [`HoloError::LearnDiverged`].
pub(crate) fn learn_weights(
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

/// Marginal inference, partitioned: the grounded graph decomposes into
/// connected components (variables interact only through shared cliques),
/// each component routes to the cheapest sound engine — closed-form
/// softmax when clique-free (the entire relaxed §5.2 model), exact
/// enumeration when its joint query space is at most
/// [`HoloConfig::exact_component_limit`], multi-chain Gibbs otherwise —
/// and components run concurrently over [`HoloConfig::threads`] with
/// per-component seeds derived from `(gibbs.seed, component_rank)`.
/// Marginals merge back in variable order, so every thread count is
/// bit-for-bit `threads = 1`. The routing split lands in
/// [`StageData::partition_stats`] / [`StageTimings::partition`].
pub struct InferStage;

impl Stage for InferStage {
    fn kind(&self) -> StageKind {
        StageKind::Infer
    }

    fn run(&self, cx: &PipelineContext, data: &mut StageData) -> Result<(), HoloError> {
        let model = data.require_model("Infer")?;
        let weights = data.weights.as_ref().ok_or_else(|| {
            HoloError::Pipeline("Infer stage ran before Learn produced weights".into())
        })?;
        let (marginals, partition) = infer_marginals(model, weights, &cx.ds, &cx.config);
        data.partition_stats = Some(partition);
        data.marginals = Some(marginals);
        Ok(())
    }
}

/// Partitioned inference over `model` under `weights` — the body of
/// [`InferStage`], shared with [`crate::stream::StreamSession`] and
/// [`crate::feedback::FeedbackSession`].
pub(crate) fn infer_marginals(
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
            chromatic: config.chromatic_gibbs,
            score_cache: config.score_cache,
        },
        config.threads,
    )
}

/// An ordered list of stages plus the driver loop.
pub struct Pipeline {
    stages: Vec<Box<dyn Stage>>,
}

impl Pipeline {
    /// The paper's pipeline: Detect → Compile → Learn → Infer.
    pub fn standard() -> Self {
        Pipeline {
            stages: vec![
                Box::new(DetectStage),
                Box::new(CompileStage),
                Box::new(LearnStage),
                Box::new(InferStage),
            ],
        }
    }

    /// An empty pipeline to assemble manually.
    pub fn empty() -> Self {
        Pipeline { stages: Vec::new() }
    }

    /// Appends a stage.
    pub fn push(&mut self, stage: Box<dyn Stage>) -> &mut Self {
        self.stages.push(stage);
        self
    }

    /// Inserts a stage right after the last existing stage of `kind`
    /// (appends if none matches).
    pub fn insert_after(&mut self, kind: StageKind, stage: Box<dyn Stage>) -> &mut Self {
        match self.stages.iter().rposition(|s| s.kind() == kind) {
            Some(i) => self.stages.insert(i + 1, stage),
            None => self.stages.push(stage),
        }
        self
    }

    /// Inserts a stage right before the **first** existing stage of `kind`
    /// (appends if none matches) — the complement of
    /// [`Pipeline::insert_after`]. See the module docs for the worked
    /// example of a pre-Detect ingest stage.
    pub fn insert_before(&mut self, kind: StageKind, stage: Box<dyn Stage>) -> &mut Self {
        match self.stages.iter().position(|s| s.kind() == kind) {
            Some(i) => self.stages.insert(i, stage),
            None => self.stages.push(stage),
        }
        self
    }

    /// Stage names in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Runs every stage in order over the shared context, billing each
    /// stage's wall-clock to its [`StageKind`] slot and snapshotting the
    /// model's design-matrix counters into [`StageTimings::design`].
    pub fn run(&self, cx: &PipelineContext) -> Result<(StageData, StageTimings), HoloError> {
        let mut data = StageData::default();
        let mut timings = StageTimings::default();
        for stage in &self.stages {
            let t0 = Instant::now();
            stage.run(cx, &mut data)?;
            timings.record(stage.kind(), t0.elapsed());
        }
        if let Some(model) = &data.model {
            timings.design = model.graph.design_stats();
            timings.components = model.graph.component_stats();
        }
        if let Some(partition) = data.partition_stats {
            timings.partition = partition;
        }
        if let Some(stats) = data.stats_stats {
            timings.stats = stats;
        }
        Ok((data, timings))
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::standard()
    }
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
        let (data, timings) = Pipeline::standard().run(&cx).unwrap();
        assert!(!data.violations.is_empty());
        assert!(!data.noisy.is_empty());
        assert!(data.model.is_some());
        assert!(data.weights.is_some());
        assert!(data.learn_stats.is_some());
        assert!(data.marginals.is_some());
        assert!(timings.total() > Duration::ZERO);
        // A fresh run compiles the design matrix exactly once, at the end
        // of Compile; Learn and Infer reuse it untouched.
        assert_eq!(timings.design.full_builds, 1);
        assert_eq!(timings.design.vars_patched, 0);
        // Inference partitioned the graph: one component index build, a
        // component per query variable (the default model is clique-free),
        // all routed through the closed form.
        assert_eq!(timings.components.full_builds, 1);
        let partition = data.partition_stats.unwrap();
        assert!(partition.components >= 1);
        assert_eq!(partition.components, partition.closed_form_components);
        assert_eq!(partition.gibbs_components, 0);
        assert_eq!(timings.partition, partition);
    }

    #[test]
    fn stage_order_is_enforced() {
        let cx = zip_city_context(1);
        let mut p = Pipeline::empty();
        p.push(Box::new(LearnStage));
        let err = p.run(&cx).err().expect("learn without compile must fail");
        assert!(matches!(err, HoloError::Pipeline(_)), "got {err:?}");

        let mut p = Pipeline::empty();
        p.push(Box::new(DetectStage))
            .push(Box::new(CompileStage))
            .push(Box::new(InferStage));
        let err = p.run(&cx).err().expect("infer without learn must fail");
        assert!(err.to_string().contains("weights"), "got {err}");
    }

    #[test]
    fn standard_stage_names_in_order() {
        assert_eq!(
            Pipeline::standard().stage_names(),
            vec!["detect", "compile", "learn", "infer"]
        );
    }

    #[test]
    fn insert_before_splices_ahead_of_the_first_match() {
        struct NamedNoop(&'static str, StageKind);
        impl Stage for NamedNoop {
            fn kind(&self) -> StageKind {
                self.1
            }
            fn name(&self) -> &'static str {
                self.0
            }
            fn run(&self, _: &PipelineContext, _: &mut StageData) -> Result<(), HoloError> {
                Ok(())
            }
        }
        let mut p = Pipeline::standard();
        p.insert_before(
            StageKind::Detect,
            Box::new(NamedNoop("ingest", StageKind::Detect)),
        );
        p.insert_before(
            StageKind::Learn,
            Box::new(NamedNoop("pre-learn", StageKind::Learn)),
        );
        assert_eq!(
            p.stage_names(),
            vec!["ingest", "detect", "compile", "pre-learn", "learn", "infer"]
        );
        // No stage of the kind: appends, mirroring insert_after.
        let mut p = Pipeline::empty();
        p.insert_before(
            StageKind::Infer,
            Box::new(NamedNoop("tail", StageKind::Infer)),
        );
        assert_eq!(p.stage_names(), vec!["tail"]);
        // The pipeline still runs end to end with the extra stages.
        let cx = zip_city_context(1);
        let mut p = Pipeline::standard();
        p.insert_before(
            StageKind::Detect,
            Box::new(NamedNoop("ingest", StageKind::Detect)),
        );
        let (data, _) = p.run(&cx).unwrap();
        assert!(data.marginals.is_some());
    }

    #[test]
    fn custom_stage_slots_into_timings() {
        struct NoopStage;
        impl Stage for NoopStage {
            fn kind(&self) -> StageKind {
                StageKind::Compile
            }
            fn name(&self) -> &'static str {
                "noop"
            }
            fn run(&self, _: &PipelineContext, _: &mut StageData) -> Result<(), HoloError> {
                Ok(())
            }
        }
        let mut p = Pipeline::standard();
        p.insert_after(StageKind::Detect, Box::new(NoopStage));
        assert_eq!(
            p.stage_names(),
            vec!["detect", "noop", "compile", "learn", "infer"]
        );
        let cx = zip_city_context(1);
        let (data, _) = p.run(&cx).unwrap();
        assert!(data.marginals.is_some());
    }

    /// The determinism contract of the engine: every thread count produces
    /// identical marginals, weights and noisy sets.
    #[test]
    fn thread_count_never_changes_output() {
        let reference = {
            let cx = zip_city_context(1);
            let (data, _) = Pipeline::standard().run(&cx).unwrap();
            data
        };
        for threads in [2, 4, 8] {
            let cx = zip_city_context(threads);
            let (data, _) = Pipeline::standard().run(&cx).unwrap();
            assert_eq!(data.noisy, reference.noisy, "threads = {threads}");
            assert_eq!(data.violations, reference.violations, "threads = {threads}");
            assert_eq!(
                data.marginals.as_ref().unwrap(),
                reference.marginals.as_ref().unwrap(),
                "threads = {threads}"
            );
        }
    }
}
