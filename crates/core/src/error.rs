//! Error type of the HoloClean pipeline.

use holo_dataset::CellRef;
use std::fmt;

/// Pipeline errors.
#[derive(Debug, Clone, PartialEq)]
pub enum HoloError {
    /// Dataset-layer failure (schema lookup, CSV, …).
    Dataset(holo_dataset::DatasetError),
    /// Constraint parse/bind failure.
    Constraint(String),
    /// Configuration problem (e.g. source attribute missing).
    Config(String),
    /// A rejected edit of a [`crate::stream::Session`]: a row of the
    /// wrong arity, a row that is not live or is named twice, a label on
    /// a cell of no live row, or a dictionary dependency naming a missing
    /// attribute.
    Stream(String),
    /// Algorithm 2 pruning dropped a cell's own observed value from its
    /// candidate domain — a pathological pruning configuration (the
    /// compiler's invariant is that the initial value always survives).
    /// Carries the offending cell and its attribute name so the broken
    /// configuration is diagnosable instead of a crash.
    PrunedInitialValue {
        /// The cell whose observed value vanished from its domain.
        cell: CellRef,
        /// Name of the cell's attribute.
        attr: String,
    },
    /// Weight learning diverged: some minibatch gradients were non-finite
    /// (typically a learning rate large enough to overflow the weights),
    /// so there is no usable model to infer with. See
    /// `holo_factor::LearnStats::non_finite_minibatches`.
    LearnDiverged {
        /// Minibatches whose gradient norm was NaN or infinite.
        non_finite_minibatches: usize,
        /// Minibatches executed in total.
        minibatches: usize,
    },
}

impl fmt::Display for HoloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HoloError::Dataset(e) => write!(f, "dataset error: {e}"),
            HoloError::Constraint(msg) => write!(f, "constraint error: {msg}"),
            HoloError::Config(msg) => write!(f, "configuration error: {msg}"),
            HoloError::Stream(msg) => write!(f, "streaming error: {msg}"),
            HoloError::PrunedInitialValue { cell, attr } => write!(
                f,
                "compile error: pruning removed the observed value of cell {cell} \
                 (attribute {attr:?}) from its own domain — the pruning \
                 configuration is inconsistent"
            ),
            HoloError::LearnDiverged {
                non_finite_minibatches,
                minibatches,
            } => write!(
                f,
                "learning diverged: {non_finite_minibatches} of {minibatches} minibatch \
                 gradients were non-finite — lower the learning rate"
            ),
        }
    }
}

impl std::error::Error for HoloError {}

impl From<holo_dataset::DatasetError> for HoloError {
    fn from(e: holo_dataset::DatasetError) -> Self {
        HoloError::Dataset(e)
    }
}

impl From<holo_constraints::ParseError> for HoloError {
    fn from(e: holo_constraints::ParseError) -> Self {
        HoloError::Constraint(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = HoloError::Config("bad".into());
        assert!(e.to_string().contains("configuration"));
        let e: HoloError = holo_dataset::DatasetError::EmptyInput.into();
        assert!(matches!(e, HoloError::Dataset(_)));
    }

    #[test]
    fn pruned_initial_value_names_the_cell() {
        let e = HoloError::PrunedInitialValue {
            cell: CellRef {
                tuple: 7usize.into(),
                attr: 2usize.into(),
            },
            attr: "City".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("City"), "{msg}");
        assert!(msg.contains("pruning"), "{msg}");
    }

    #[test]
    fn learn_diverged_reports_the_counts_and_the_remedy() {
        let msg = HoloError::LearnDiverged {
            non_finite_minibatches: 3,
            minibatches: 10,
        }
        .to_string();
        assert!(msg.contains("3 of 10"), "{msg}");
        assert!(msg.contains("learning rate"), "{msg}");
    }
}
