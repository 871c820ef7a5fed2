//! Factor-graph engine for the HoloClean reproduction.
//!
//! This crate replaces DeepDive v0.9 — the declarative inference engine the
//! paper builds on (§3.2) — with an in-process implementation of exactly the
//! pieces HoloClean exercises:
//!
//! * [`graph`] — a factor graph `(T, F, θ)` over categorical random
//!   variables with per-variable candidate domains. Variables are either
//!   *evidence* (clean cells, fixed during learning) or *query* (noisy
//!   cells, inferred). Factors are *unary* (sparse feature vectors per
//!   candidate, tied weights — the grounding of `Value?(t,a,d) :- …
//!   weight = w(…)` rules) or *cliques* (multi-variable denial-constraint
//!   factors produced by Algorithm 1).
//!   A graph is built once, from its variables, design matrix and cliques;
//!   hand-built graphs collect those parts in a [`GraphBuilder`].
//! * [`design`] — the CSR [`DesignMatrix`]: one row per `(variable,
//!   candidate)` pair, the only store of unary features. The compiler
//!   assembles it in one pass through [`DesignBuilder`] fragments; every
//!   unary-scoring consumer (learning, Gibbs conditionals, exact
//!   enumeration, closed-form marginals) reads this flat substrate.
//! * [`cache`] — the frozen-weight [`ScoreCache`]: every design row scored
//!   once in parallel through the blocked kernel, and the one source of
//!   unary scores for all three inference engines, so a Gibbs resample
//!   starts from a memcpy instead of a matrix walk. Built per inference
//!   pass (or per standalone sampler), never stored in the graph.
//! * [`weights`] — tied weights `θ`, learnable or fixed, plus a generic
//!   feature registry for interning structured feature keys.
//! * [`learn`] — empirical-risk minimisation over evidence variables with
//!   minibatch SGD (§2.2), i.e. multinomial logistic regression over the
//!   design-matrix rows, read in place and scored by the same blocked
//!   kernel as inference; L2 regularised, sequential and deterministic
//!   under a seed (fixed gradient shards added in shard order into a dense
//!   accumulator drained in weight-id order).
//! * [`gibbs`] — the Gibbs sampler used for approximate inference over
//!   models with clique factors: sequential single-site sweeps over the
//!   query variables, one chain per sampled component.
//! * [`components`] — connected-component decomposition of the grounded
//!   graph (union-find over clique scopes; built lazily, never patched)
//!   and the partitioned hybrid inference driver that routes
//!   each component to closed-form softmax, exact enumeration, or
//!   per-component seeded Gibbs and merges the results deterministically.
//! * [`marginals`] — marginal estimates, either exact (closed-form softmax
//!   for the relaxed model of §5.2, whose variables are independent) or
//!   empirical from Gibbs samples; MAP extraction.
//! * [`exact`] — exact enumeration of small coupled components through
//!   the same compiled clique kernel as the sampler; the interpreted
//!   whole-graph enumeration is the test oracle for both.
//!
//! The probability model is Eq. 1 of the paper:
//! `P(T) = Z⁻¹ exp(Σ_φ θ_φ · h_φ(φ))`.

pub mod cache;
pub mod components;
pub mod design;
pub mod exact;
pub mod gibbs;
pub mod graph;
pub mod learn;
pub mod marginals;
pub mod math;
pub mod weights;

#[cfg(test)]
mod proptests;

pub use cache::{ScoreCache, ScoreCacheStats};
pub use components::{infer_partitioned, ComponentIndex, PartitionStats, PartitionedConfig};
pub use design::{DesignBuilder, DesignMatrix};
pub use gibbs::{GibbsConfig, GibbsSampler};
pub use graph::{
    Clique, CliqueArena, CmpOp, FactorGraph, FactorOperand, FactorPredicate, GraphBuilder,
    ValueContext, VarId, Variable,
};
pub use learn::{LearnConfig, LearnStats};
pub use marginals::Marginals;
pub use weights::{FeatureRegistry, WeightId, Weights};
