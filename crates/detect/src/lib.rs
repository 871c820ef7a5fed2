//! Error detection for HoloClean.
//!
//! §2.2 of the paper: "The first step in the workflow of HoloClean is to
//! detect cells in D with potentially inaccurate values. This process
//! separates D into noisy and clean cells … HoloClean treats error
//! detection as a black box."
//!
//! This crate provides that black box as a [`Detector`] trait plus the
//! detectors the paper's implementation shipped:
//!
//! * [`ViolationDetector`] — cells participating in denial-constraint
//!   violations \[11\]; the detector used for every experiment in §6
//!   ("for all datasets we seek to repair cells that participate in
//!   violations of integrity constraints").
//! * [`OutlierDetector`] — frequency/similarity outliers \[15, 22\]: rare
//!   values lying within small edit distance of a frequent value of the
//!   same attribute.
//! * [`NullDetector`] — missing values.
//! * [`ExternalDetector`] — cells contradicted by a matched external
//!   dictionary row \[13, 19\].
//! * [`DetectorEnsemble`] — union of detectors, producing the
//!   noisy/clean split `(D_n, D_c)`.

pub mod ensemble;
pub mod external_detector;
pub mod null_detector;
pub mod outlier;
pub mod violation_detector;

use holo_dataset::{CellRef, Dataset, FxHashSet};

/// The noisy-cell set `D_n` produced by detection.
pub type NoisyCells = FxHashSet<CellRef>;

/// A black-box error detector.
pub trait Detector {
    /// Human-readable detector name (for reports).
    fn name(&self) -> &str;
    /// Returns the cells this detector considers potentially erroneous.
    fn detect(&self, ds: &Dataset) -> NoisyCells;
}

pub use ensemble::DetectorEnsemble;
pub use external_detector::ExternalDetector;
pub use null_detector::NullDetector;
pub use outlier::OutlierDetector;
pub use violation_detector::ViolationDetector;
