//! Missing-value detection.

use crate::{Detector, NoisyCells};
use holo_dataset::{CellRef, Dataset, NULL_CODE};

/// Flags every null (empty) cell, optionally restricted to a subset of
/// attributes (some attributes are legitimately optional).
#[derive(Debug, Clone, Default)]
pub struct NullDetector {
    /// If non-empty, only these attributes are checked.
    attrs: Vec<String>,
}

impl NullDetector {
    /// Detector over all attributes.
    pub fn all() -> Self {
        NullDetector { attrs: Vec::new() }
    }

    /// Detector restricted to the named attributes.
    pub fn for_attrs<S: Into<String>>(attrs: Vec<S>) -> Self {
        NullDetector {
            attrs: attrs.into_iter().map(Into::into).collect(),
        }
    }
}

impl Detector for NullDetector {
    fn name(&self) -> &str {
        "nulls"
    }

    fn detect(&self, ds: &Dataset) -> NoisyCells {
        let mut noisy = NoisyCells::default();
        let attrs: Vec<_> = if self.attrs.is_empty() {
            ds.schema().attrs().collect()
        } else {
            self.attrs
                .iter()
                .filter_map(|n| ds.schema().attr_id(n))
                .collect()
        };
        for a in attrs {
            for (i, &code) in ds.codes(a).iter().enumerate() {
                if code == NULL_CODE {
                    noisy.insert(CellRef {
                        tuple: i.into(),
                        attr: a,
                    });
                }
            }
        }
        noisy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;

    #[test]
    fn flags_all_nulls() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b"]));
        ds.push_row(&["", "x"]);
        ds.push_row(&["y", ""]);
        ds.push_row(&["z", "w"]);
        let noisy = NullDetector::all().detect(&ds);
        assert_eq!(noisy.len(), 2);
        assert!(noisy.contains(&CellRef::new(0usize, 0usize)));
        assert!(noisy.contains(&CellRef::new(1usize, 1usize)));
    }

    #[test]
    fn attribute_restriction() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b"]));
        ds.push_row(&["", ""]);
        let noisy = NullDetector::for_attrs(vec!["b"]).detect(&ds);
        assert_eq!(noisy.len(), 1);
        assert!(noisy.contains(&CellRef::new(0usize, 1usize)));
    }

    #[test]
    fn unknown_attrs_ignored() {
        let mut ds = Dataset::new(Schema::new(vec!["a"]));
        ds.push_row(&[""]);
        let noisy = NullDetector::for_attrs(vec!["nope"]).detect(&ds);
        assert!(noisy.is_empty());
    }
}
