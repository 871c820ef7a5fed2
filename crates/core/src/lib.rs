//! # HoloClean: holistic data repairs with probabilistic inference
//!
//! A Rust reproduction of *Rekatsinas, Chu, Ilyas, Ré — "HoloClean:
//! Holistic Data Repairs with Probabilistic Inference", VLDB 2017*.
//!
//! HoloClean unifies three families of data-repair signals — integrity
//! constraints, external dictionaries, and quantitative statistics — by
//! compiling them into one probabilistic model over the cells of a dirty
//! dataset, learning the model's weights from the cells believed clean, and
//! reading repairs (with calibrated marginal probabilities) off the
//! inferred posterior of the cells believed noisy.
//!
//! ## Pipeline (§2.2)
//!
//! ```text
//! detect ─► prune (Alg. 2) ─► compile (featurize + ground) ─► learn ─► infer ─► repair
//! ```
//!
//! * **Error detection** is a pluggable black box (`holo-detect`).
//! * **Domain pruning** ([`domain`]) limits each noisy cell's candidate
//!   repairs to values co-occurring with the tuple's other values with
//!   probability ≥ τ.
//! * **Compilation** ([`compile`], [`features`]) turns each signal into
//!   inference rules over `Value?` variables: co-occurrence features with
//!   weights tied per attribute pair, a minimality prior, external-match features
//!   `w(k)`, relaxed denial-constraint features (§5.2), optional
//!   source-reliability features, and — in the factor variants — grounded
//!   denial-constraint cliques (Algorithm 1), optionally restricted by the
//!   Algorithm 3 tuple partitioning.
//! * **Learning** is SGD over evidence cells; **inference** is closed-form
//!   for the relaxed model and Gibbs sampling when cliques are present.
//!
//! ## Quick start
//!
//! ```
//! use holo_dataset::{Dataset, Schema};
//! use holoclean::{HoloClean, HoloConfig};
//!
//! let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
//! for _ in 0..8 { ds.push_row(&["60608", "Chicago", "IL"]); }
//! for _ in 0..5 { ds.push_row(&["60609", "Evanston", "IL"]); }
//! ds.push_row(&["60608", "Cicago", "IL"]); // a typo HoloClean should repair
//!
//! let outcome = HoloClean::new(ds)
//!     .with_constraint_text("FD: Zip -> City").unwrap()
//!     .with_config(HoloConfig::default())
//!     .run().unwrap();
//! let repair = &outcome.report.repairs[0];
//! assert_eq!(repair.new_value, "Chicago");
//! ```

pub mod compile;
pub mod config;
pub mod context;
pub mod domain;
pub mod error;
pub mod features;
pub mod feedback;
pub mod metrics;
pub mod pipeline;
pub mod repair;
pub mod report;
pub mod session;
pub mod stream;
pub mod trainable;

pub use config::{HoloConfig, ModelVariant};
pub use domain::{prune_domains_with_threads, CellDomains};
pub use error::HoloError;
pub use feedback::{FeedbackRequest, FeedbackSession, Label};
pub use metrics::{evaluate, RepairQuality};
pub use pipeline::{Detection, PipelineContext, PipelineRun, StageTimings};
pub use repair::{Repair, RepairReport};
pub use report::{confidence_buckets, ConfidenceBucket};
pub use session::{HoloClean, RepairOutcome};
pub use stream::{BatchReport, IngestStats, RetireStats, StreamSession};
