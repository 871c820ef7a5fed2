//! Repair extraction: from marginals to cell updates.

use holo_dataset::{CellRef, Dataset, Sym};
use holo_factor::{Marginals, VarId};
use serde::{Deserialize, Serialize};

/// One proposed repair `v̂_c` with its marginal probability — the paper's
/// "rigorous semantics" (§2.2): a 0.6 probability means HoloClean is 60%
/// confident in the repair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Repair {
    /// The repaired cell.
    pub cell: CellRef,
    /// The original (observed) symbol.
    pub old: Sym,
    /// The proposed symbol.
    pub new: Sym,
    /// The original value as a string.
    pub old_value: String,
    /// The proposed value as a string.
    pub new_value: String,
    /// Marginal probability of the proposed value.
    pub probability: f64,
}

/// Posterior of one noisy cell: every candidate with its marginal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellPosterior {
    /// The cell.
    pub cell: CellRef,
    /// `(candidate, probability)` pairs, in domain order.
    pub candidates: Vec<(Sym, f64)>,
}

/// The full output of the repair stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Cells whose MAP value differs from the observation.
    pub repairs: Vec<Repair>,
    /// Posteriors of *all* query cells (repaired or kept) — the "marginal
    /// distribution of cell assignments" of Figure 2, and the input to the
    /// Figure 6 confidence analysis.
    pub posteriors: Vec<CellPosterior>,
}

impl RepairReport {
    /// Builds the report from inferred marginals.
    pub fn from_marginals(
        ds: &Dataset,
        query_cells: &[CellRef],
        query_vars: &[VarId],
        graph: &holo_factor::FactorGraph,
        marginals: &Marginals,
    ) -> Self {
        let mut repairs = Vec::new();
        let mut posteriors = Vec::with_capacity(query_cells.len());
        for (&cell, &var) in query_cells.iter().zip(query_vars) {
            let domain = &graph.var(var).domain;
            let probs = marginals.probs(var);
            posteriors.push(CellPosterior {
                cell,
                candidates: domain.iter().copied().zip(probs.iter().copied()).collect(),
            });
            let (k, p) = marginals.map_candidate(var);
            let new = domain[k];
            let old = ds.cell_ref(cell);
            if new != old {
                repairs.push(Repair {
                    cell,
                    old,
                    new,
                    old_value: ds.value_str(old).to_string(),
                    new_value: ds.value_str(new).to_string(),
                    probability: p,
                });
            }
        }
        RepairReport {
            repairs,
            posteriors,
        }
    }

    /// Applies every repair to a copy of `ds` and returns it.
    pub fn apply(&self, ds: &Dataset) -> Dataset {
        let mut out = ds.snapshot();
        for r in &self.repairs {
            out.set_cell(r.cell.tuple, r.cell.attr, r.new);
        }
        out
    }

    /// Serialises the repairs as CSV
    /// (`tuple,attribute,old_value,new_value,probability`) for downstream
    /// review tooling — the artifact a data steward audits.
    pub fn repairs_to_csv(&self, ds: &Dataset) -> String {
        let escape = |field: &str| -> String {
            if field.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_string()
            }
        };
        let mut out = String::from("tuple,attribute,old_value,new_value,probability\n");
        for r in &self.repairs {
            out.push_str(&format!(
                "{},{},{},{},{:.6}\n",
                r.cell.tuple.index(),
                escape(ds.schema().attr_name(r.cell.attr)),
                escape(&r.old_value),
                escape(&r.new_value),
                r.probability
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;
    use holo_factor::{GraphBuilder, Variable};

    #[test]
    fn map_differing_from_init_becomes_repair() {
        let mut ds = Dataset::new(Schema::new(vec!["City"]));
        ds.push_row(&["Cicago"]);
        let cicago = ds.pool().get("Cicago").unwrap();
        let chicago = ds.intern("Chicago");
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![cicago, chicago], Some(0)));
        let g = g.build();
        let cell = CellRef::new(0usize, 0usize);
        let marginals = Marginals::from_raw(vec![vec![0.2, 0.8]]);
        let report = RepairReport::from_marginals(&ds, &[cell], &[v], &g, &marginals);
        assert_eq!(report.repairs.len(), 1);
        let r = &report.repairs[0];
        assert_eq!(r.new_value, "Chicago");
        assert_eq!(r.old_value, "Cicago");
        assert!((r.probability - 0.8).abs() < 1e-12);
        assert_eq!(report.posteriors.len(), 1);
    }

    #[test]
    fn map_equal_to_init_is_not_a_repair() {
        let mut ds = Dataset::new(Schema::new(vec!["City"]));
        ds.push_row(&["Chicago"]);
        let chicago = ds.pool().get("Chicago").unwrap();
        let other = ds.intern("Cicago");
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![chicago, other], Some(0)));
        let g = g.build();
        let cell = CellRef::new(0usize, 0usize);
        let marginals = Marginals::from_raw(vec![vec![0.9, 0.1]]);
        let report = RepairReport::from_marginals(&ds, &[cell], &[v], &g, &marginals);
        assert!(report.repairs.is_empty());
        assert_eq!(report.posteriors.len(), 1, "posterior still recorded");
    }

    #[test]
    fn csv_export_roundtrips_through_the_csv_parser() {
        let mut ds = Dataset::new(Schema::new(vec!["City", "Notes"]));
        ds.push_row(&["Cicago", "has,comma"]);
        let chicago = ds.intern("Chicago");
        let cell = CellRef::new(0usize, 0usize);
        let report = RepairReport {
            repairs: vec![Repair {
                cell,
                old: ds.cell_ref(cell),
                new: chicago,
                old_value: "Cicago".into(),
                new_value: "Chicago".into(),
                probability: 0.875,
            }],
            posteriors: vec![],
        };
        let csv_text = report.repairs_to_csv(&ds);
        let parsed = holo_dataset::csv::parse_dataset(&csv_text).unwrap();
        assert_eq!(parsed.tuple_count(), 1);
        assert_eq!(parsed.cell_str(0.into(), 1.into()), "City");
        assert_eq!(parsed.cell_str(0.into(), 3.into()), "Chicago");
        assert_eq!(parsed.cell_str(0.into(), 4.into()), "0.875000");
    }

    #[test]
    fn apply_materialises_repairs() {
        let mut ds = Dataset::new(Schema::new(vec!["City"]));
        ds.push_row(&["Cicago"]);
        let chicago = ds.intern("Chicago");
        let cell = CellRef::new(0usize, 0usize);
        let report = RepairReport {
            repairs: vec![Repair {
                cell,
                old: ds.cell_ref(cell),
                new: chicago,
                old_value: "Cicago".into(),
                new_value: "Chicago".into(),
                probability: 0.9,
            }],
            posteriors: vec![],
        };
        let fixed = report.apply(&ds);
        assert_eq!(fixed.cell_str(0.into(), 0.into()), "Chicago");
        // The original is untouched.
        assert_eq!(ds.cell_str(0.into(), 0.into()), "Cicago");
    }
}
