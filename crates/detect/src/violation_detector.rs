//! Denial-constraint violation detection — the error detector used for all
//! of the paper's experiments.

use crate::{Detector, NoisyCells};
use holo_constraints::{find_violations, noisy_cells, ConstraintSet};
use holo_dataset::{Dataset, TupleId};

/// Flags every cell participating in at least one violation.
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
        noisy_cells(&find_violations(ds, &self.constraints))
    }

    /// Cells of the violations that *involve* a new tuple — including the
    /// cells of old partner tuples those violations newly implicate (the
    /// default trait filter would silently drop them). A stateless
    /// detector keeps no blocking index between calls, so this pays a
    /// full scan.
    fn detect_delta(&self, ds: &Dataset, first_new: TupleId) -> NoisyCells {
        let mut noisy = NoisyCells::default();
        for v in find_violations(ds, &self.constraints) {
            if v.t1 >= first_new || v.t2 >= first_new {
                noisy.extend(v.cells.iter().copied());
            }
        }
        noisy
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
    fn delta_includes_old_partner_cells() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60609", "Evanston"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let det = ViolationDetector::new(cons);
        assert!(det.detect(&ds).is_empty());
        // The appended tuple contradicts the *old* t0: both tuples' cells
        // must surface, not just the new one's.
        let first = ds.append_rows(&[vec!["60608", "Cicago"]]);
        let delta = det.detect_delta(&ds, first);
        assert_eq!(delta.len(), 4);
        assert!(delta.contains(&CellRef::new(0usize, 1usize)), "old partner");
        assert!(delta.contains(&CellRef::new(2usize, 1usize)), "new tuple");
        assert_eq!(delta, det.detect(&ds), "union == one-shot here");
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
