//! Error type for the dataset substrate.

use std::fmt;

/// Errors produced while building or loading datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// A CSV header named the same attribute twice.
    DuplicateAttribute(String),
    /// A CSV record had a different arity than the header.
    ArityMismatch {
        /// 1-based physical line the offending record starts on (a quoted
        /// field may span several).
        line: usize,
        /// Expected number of fields (header arity).
        expected: usize,
        /// Number of fields actually found.
        found: usize,
    },
    /// A quoted CSV field was never closed.
    UnterminatedQuote {
        /// 1-based line number where the quoted field started.
        line: usize,
    },
    /// The CSV input had no header row.
    EmptyInput,
    /// An I/O error, stringified (keeps the type `Clone + Eq`).
    Io(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::UnknownAttribute(name) => {
                write!(f, "unknown attribute {name:?}")
            }
            DatasetError::DuplicateAttribute(name) => {
                write!(f, "CSV header names attribute {name:?} more than once")
            }
            DatasetError::ArityMismatch {
                line,
                expected,
                found,
            } => write!(
                f,
                "CSV record on line {line} has {found} fields, expected {expected}"
            ),
            DatasetError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            DatasetError::EmptyInput => write!(f, "CSV input has no header row"),
            DatasetError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            DatasetError::UnknownAttribute("Zip".into()).to_string(),
            "unknown attribute \"Zip\""
        );
        assert!(DatasetError::ArityMismatch {
            line: 3,
            expected: 5,
            found: 4
        }
        .to_string()
        .contains("line 3"));
        assert!(DatasetError::EmptyInput.to_string().contains("header"));
    }

    #[test]
    fn io_conversion() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let err: DatasetError = io.into();
        assert!(matches!(err, DatasetError::Io(_)));
    }
}
