//! Umbrella crate for the HoloClean reproduction workspace.
//!
//! This root package hosts the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`, and re-exports the public
//! crates so both can use a single dependency.
//!
//! # Workspace layout
//!
//! The workspace is a dependency DAG rooted at the relational substrate;
//! `cargo build --release && cargo test` at the repository root covers
//! every crate.
//!
//! | crate (`crates/…`) | lib name | role |
//! |---|---|---|
//! | `parallel` | `holo_parallel` | deterministic data-parallel primitives over std scoped threads |
//! | `dataset` | [`holo_dataset`] | tables, value interning, CSV, statistics |
//! | `constraints` | [`holo_constraints`] | denial constraints, parsing, violation detection |
//! | `factor` | [`holo_factor`] | factor graphs, SGD learning, Gibbs |
//! | `external` | [`holo_external`] | dictionaries and matching dependencies |
//! | `detect` | [`holo_detect`] | pluggable error detection |
//! | `core` | [`holoclean`] | the staged repair engine and its compiler |
//! | `baselines` | [`holo_baselines`] | Holistic, KATARA and SCARE |
//! | `datagen` | [`holo_datagen`] | deterministic evaluation dataset generators |
//! | `bench` | `holo_bench` | paper figure/table binaries, `diag`, `dump_repairs` |
//!
//! `third_party/` holds offline API-compatible stubs for `serde`, `rand`
//! and `proptest` — the build environment has no registry
//! access, so the workspace vendors the small API surface it actually
//! uses (see each stub's crate docs). Swap the `[workspace.dependencies]`
//! paths for registry versions to use the real crates.
//!
//! # The staged engine
//!
//! The repair pipeline (paper §2.2/Figure 2) is four functions in
//! `holoclean::pipeline`, each taking its predecessor's output, so the
//! argument types are the stage order:
//!
//! ```text
//! PipelineContext (immutable: dataset, constraints, matches, config)
//!        │
//!        ▼
//! detect ─► compile_model ─► learn_weights ─► infer_marginals
//!   │            │                │                 │
//!   ▼            ▼                ▼                 ▼
//! Detection   CompiledModel    Weights          Marginals
//! ```
//!
//! `pipeline::run` calls the four in order and bills each to its
//! `StageTimings` slot; `HoloClean::run` is a thin driver over it, and
//! `stream::Session` (streamed rows and user labels) calls it too. Every
//! step but weight learning parallelises internally over
//! `HoloConfig::threads` — violation probing, domain pruning,
//! featurization, co-occurrence statistics and per-component inference
//! all shard across worker threads, and every parallel path merges shard
//! results in input order, so **any thread count produces bit-for-bit the
//! `threads = 1` output**.
//!
//! A compiled model is a value: the CSR design matrix is the only store of
//! its unary features and compile featurizes straight into it, once; the
//! component index is derived from the clique structure on first use and
//! never patched. Nothing changes a compiled model: user
//! feedback (§2.2) is a table edit, and a `Session` reads through a
//! fresh run over its live, labelled table.
//!
//! # Quick start
//!
//! ```
//! use holoclean_repro::holo_dataset::{Dataset, Schema};
//! use holoclean_repro::holoclean::{HoloClean, HoloConfig};
//!
//! let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
//! for _ in 0..8 { ds.push_row(&["60608", "Chicago"]); }
//! ds.push_row(&["60608", "Cicago"]); // typo to repair
//! let outcome = HoloClean::new(ds)
//!     .with_constraint_text("FD: Zip -> City").unwrap()
//!     .with_config(HoloConfig::default().with_threads(0)) // all cores
//!     .run().unwrap();
//! assert_eq!(outcome.report.repairs[0].new_value, "Chicago");
//! ```

pub use holo_baselines;
pub use holo_constraints;
pub use holo_datagen;
pub use holo_dataset;
pub use holo_detect;
pub use holo_external;
pub use holo_factor;
pub use holoclean;
