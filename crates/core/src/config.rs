//! Configuration of the HoloClean pipeline.

use holo_factor::{GibbsConfig, LearnConfig};
use serde::{Deserialize, Serialize};

/// Which probabilistic model to compile — the ablation axis of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelVariant {
    /// Denial constraints ground as multi-variable factors with one fixed
    /// weight (Algorithm 1). No partitioning.
    DcFactors,
    /// [`ModelVariant::DcFactors`] plus Algorithm 3 tuple partitioning.
    DcFactorsPartitioned,
    /// Denial constraints relaxed to single-variable features with learned
    /// weights (§5.2). The default; used for Tables 3 and 4.
    DcFeats,
    /// Both relaxed features and constant-weight factors.
    DcFeatsDcFactors,
    /// [`ModelVariant::DcFeatsDcFactors`] plus partitioning.
    DcFeatsDcFactorsPartitioned,
}

impl ModelVariant {
    /// Whether the variant compiles relaxed DC features.
    pub fn uses_dc_features(self) -> bool {
        matches!(
            self,
            ModelVariant::DcFeats
                | ModelVariant::DcFeatsDcFactors
                | ModelVariant::DcFeatsDcFactorsPartitioned
        )
    }

    /// Whether the variant grounds DC clique factors.
    pub fn uses_dc_factors(self) -> bool {
        matches!(
            self,
            ModelVariant::DcFactors
                | ModelVariant::DcFactorsPartitioned
                | ModelVariant::DcFeatsDcFactors
                | ModelVariant::DcFeatsDcFactorsPartitioned
        )
    }

    /// Whether DC factor grounding is restricted to Algorithm 3 groups.
    pub fn uses_partitioning(self) -> bool {
        matches!(
            self,
            ModelVariant::DcFactorsPartitioned | ModelVariant::DcFeatsDcFactorsPartitioned
        )
    }

    /// All five variants, in the order Figure 5 reports them.
    pub fn all() -> [ModelVariant; 5] {
        [
            ModelVariant::DcFactors,
            ModelVariant::DcFactorsPartitioned,
            ModelVariant::DcFeats,
            ModelVariant::DcFeatsDcFactors,
            ModelVariant::DcFeatsDcFactorsPartitioned,
        ]
    }

    /// Short label used by the experiment harness.
    pub fn label(self) -> &'static str {
        match self {
            ModelVariant::DcFactors => "DC Factors",
            ModelVariant::DcFactorsPartitioned => "DC Factors + partitioning",
            ModelVariant::DcFeats => "DC Feats",
            ModelVariant::DcFeatsDcFactors => "DC Feats + DC Factors",
            ModelVariant::DcFeatsDcFactorsPartitioned => "DC Feats + DC Factors + partitioning",
        }
    }
}

/// Optional source-reliability featurization (§4.1: lineage features; used
/// for the Flights dataset, following SLiMFast \[35\]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceConfig {
    /// Attribute identifying the real-world entity rows describe (e.g.
    /// `"Flight"`); assertions are collected across rows sharing it.
    pub entity_attr: String,
    /// Attribute naming the source that contributed the row.
    pub source_attr: String,
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HoloConfig {
    /// The Algorithm 2 co-occurrence threshold τ. A candidate qualifies
    /// through any other attribute of its tuple (§5.1.1): no attribute is
    /// gated out.
    pub tau: f64,
    /// Hard cap on a noisy cell's candidate count (keeps grounding bounded
    /// when τ is small); candidates are kept in descending co-occurrence
    /// probability. The initial value always survives.
    pub max_domain: usize,
    /// Which model to compile.
    pub variant: ModelVariant,
    /// Fixed weight of the minimality prior.
    pub minimality_weight: f64,
    /// Initial (learnable) value of each constraint's relaxed-DC feature
    /// weight `w(σ)`. Negative: a candidate that would violate a denial
    /// constraint is a priori implausible — that is what the constraint
    /// asserts. Evidence refines the weight per constraint; the prior
    /// carries constraints whose attributes have no clean cells at all
    /// (fully-saturated violation groups).
    pub dc_violation_prior: f64,
    /// Evidence variables build their candidate domains with
    /// `min(tau, evidence_tau_cap)`: at large τ most clean cells would
    /// have singleton domains and carry no gradient, starving SGD.
    pub evidence_tau_cap: f64,
    /// Minimum occurrences a conditioning value needs before Algorithm 2
    /// trusts `Pr[v | v']` — rare conditioning values (count 1-2) produce
    /// spurious probability-1 candidates.
    pub min_cond_support: u32,
    /// Each tied co-occurrence weight `Occur { attr, A' }` starts at
    /// `occur_prior / (|A| − 1)`, so an untrained candidate scores
    /// `occur_prior` × its mean `Pr[d | v']` over the tuple's other cells —
    /// §1's "empirical distribution", which needs no clean evidence.
    pub occur_prior: f64,
    /// Optional source-reliability features.
    pub source: Option<SourceConfig>,
    /// SGD hyper-parameters.
    pub learn: LearnConfig,
    /// Gibbs hyper-parameters (clique variants only).
    pub gibbs: GibbsConfig,
    /// Joint-state ceiling for per-component **exact** inference: during
    /// partitioned inference, a clique-coupled connected component whose
    /// query variables span at most this many joint assignments is
    /// enumerated exactly (exact marginals, no sampling noise) instead of
    /// Gibbs-sampled; `0` disables enumeration. Components with no cliques
    /// at all — singleton variables are the common case after pruning —
    /// always take the closed-form softmax regardless of this limit, so
    /// for the relaxed (clique-free) model the knob has **no effect on
    /// output**. Determinism contract: this is a *model* knob — changing
    /// it changes which engine produces a coupled component's marginals —
    /// while at any fixed value every thread count remains bit-for-bit
    /// identical to `threads = 1`.
    pub exact_component_limit: u64,
    /// Unread: Gibbs always sweeps sequentially. Kept only because the
    /// benchmark's staged driver (`benchmark/src/staged.rs`) reads it,
    /// until ROADMAP item 14 drops that read.
    pub chromatic_gibbs: bool,
    /// Unread: inference always scores through the frozen-weight score
    /// cache. Kept only because the benchmark's staged driver reads it,
    /// until ROADMAP item 14 drops that read.
    pub score_cache: bool,
    /// Unread: the statistics are always the count blocks of
    /// `holo_dataset::stats`. Kept only because the benchmark's staged
    /// driver reads it, until ROADMAP item 14 drops that read.
    pub naive_stats: bool,
    /// Master seed (evidence sampling).
    pub seed: u64,
    /// Worker threads for the data-parallel stages (violation detection
    /// and its blocking index, statistics, domain pruning, featurization,
    /// DC-factor grounding, the score cache and per-component inference;
    /// weight learning runs on one thread). `0` = all cores.
    /// Every thread count produces bit-for-bit the `threads = 1` result —
    /// the knob trades wall-clock only, never output.
    pub threads: usize,
}

impl Default for HoloConfig {
    fn default() -> Self {
        HoloConfig {
            tau: 0.5,
            max_domain: 50,
            variant: ModelVariant::DcFeats,
            minimality_weight: 0.5,
            dc_violation_prior: -1.0,
            evidence_tau_cap: 0.3,
            min_cond_support: 2,
            occur_prior: 1.0,
            source: None,
            learn: LearnConfig::default(),
            gibbs: GibbsConfig::default(),
            exact_component_limit: 4096,
            chromatic_gibbs: false,
            score_cache: true,
            naive_stats: false,
            seed: 0x401c,
            threads: 0,
        }
    }
}

impl HoloConfig {
    /// Sets τ (builder style).
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the model variant (builder style).
    pub fn with_variant(mut self, variant: ModelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the worker-thread budget (builder style); `0` = all cores,
    /// `1` = fully sequential. Output is identical either way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-component exact-inference ceiling (builder style);
    /// `0` disables exact enumeration so every clique-coupled component
    /// samples. See the field docs for the determinism contract.
    pub fn with_exact_component_limit(mut self, limit: u64) -> Self {
        self.exact_component_limit = limit;
        self
    }

    /// Resolved thread budget (`threads`, with `0` mapped to the core
    /// count of the machine).
    pub fn effective_threads(&self) -> usize {
        holo_parallel::effective_threads(self.threads)
    }

    /// Enables source features (builder style).
    pub fn with_source(mut self, entity_attr: &str, source_attr: &str) -> Self {
        self.source = Some(SourceConfig {
            entity_attr: entity_attr.to_string(),
            source_attr: source_attr.to_string(),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_capabilities() {
        assert!(!ModelVariant::DcFeats.uses_dc_factors());
        assert!(ModelVariant::DcFeats.uses_dc_features());
        assert!(!ModelVariant::DcFeats.uses_partitioning());

        assert!(ModelVariant::DcFactors.uses_dc_factors());
        assert!(!ModelVariant::DcFactors.uses_dc_features());

        assert!(ModelVariant::DcFactorsPartitioned.uses_partitioning());
        assert!(ModelVariant::DcFeatsDcFactorsPartitioned.uses_dc_features());
        assert!(ModelVariant::DcFeatsDcFactorsPartitioned.uses_dc_factors());
        assert!(ModelVariant::DcFeatsDcFactorsPartitioned.uses_partitioning());
    }

    #[test]
    fn all_variants_distinct_labels() {
        let labels: Vec<_> = ModelVariant::all().iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn default_is_the_paper_table3_setup() {
        let c = HoloConfig::default();
        assert_eq!(c.variant, ModelVariant::DcFeats);
        assert!(c.tau > 0.0 && c.tau < 1.0);
    }

    #[test]
    fn builder_setters() {
        let c = HoloConfig::default()
            .with_tau(0.3)
            .with_variant(ModelVariant::DcFactors)
            .with_source("Flight", "Source");
        assert_eq!(c.tau, 0.3);
        assert_eq!(c.variant, ModelVariant::DcFactors);
        assert_eq!(c.source.as_ref().unwrap().entity_attr, "Flight");
    }
}
