//! Denial-constraint violation detection — the error detector used for all
//! of the paper's experiments.

use crate::{Detector, NoisyCells};
use holo_constraints::{find_noisy_cells_with_threads, ConstraintSet};
use holo_dataset::Dataset;

/// Flags every cell participating in at least one violation, without
/// listing the violations: O(rows) for a constraint of the FD shape.
#[derive(Debug, Clone)]
pub struct ViolationDetector {
    constraints: ConstraintSet,
}

impl ViolationDetector {
    /// Builds the detector over a constraint set.
    pub fn new(constraints: ConstraintSet) -> Self {
        ViolationDetector { constraints }
    }

    /// The constraints the detector checks.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }
}

impl Detector for ViolationDetector {
    fn name(&self) -> &str {
        "dc-violations"
    }

    fn detect(&self, ds: &Dataset) -> NoisyCells {
        let (cells, _) = find_noisy_cells_with_threads(ds, &self.constraints, 1);
        cells.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_constraints::parse_constraints;
    use holo_dataset::{CellRef, Schema};

    #[test]
    fn flags_cells_in_violations() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Cicago"]);
        ds.push_row(&["60609", "Evanston"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let det = ViolationDetector::new(cons);
        let noisy = det.detect(&ds);
        // Cells of t0 and t1 (zip + city each) are flagged; t2 untouched.
        assert_eq!(noisy.len(), 4);
        assert!(noisy.contains(&CellRef::new(0usize, 0usize)));
        assert!(noisy.contains(&CellRef::new(1usize, 1usize)));
        assert!(!noisy.iter().any(|c| c.tuple.index() == 2));
    }

    #[test]
    fn clean_dataset_yields_empty() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60609", "Evanston"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        assert!(ViolationDetector::new(cons).detect(&ds).is_empty());
    }
}
