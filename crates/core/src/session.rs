//! The HoloClean session: a builder plus a thin driver over
//! [`crate::pipeline::run`] (Figure 2).

use crate::compile::{CompileStats, CompiledModel};
use crate::config::HoloConfig;
use crate::error::HoloError;
use crate::features::MatchLookup;
use crate::pipeline::{self, PipelineContext, PipelineRun};
use crate::repair::RepairReport;
use holo_constraints::{parse_constraints, ConstraintSet};
use holo_dataset::{CellRef, Dataset, FxHashSet};
use holo_detect::Detector;
use holo_external::{DictId, ExtDict, Matcher, MatchingDependency};
use holo_factor::LearnStats;
use std::time::Instant;

pub use crate::pipeline::StageTimings;

/// Everything a run produces.
#[derive(Debug)]
pub struct RepairOutcome {
    /// The input dataset (values untouched; pool may contain extra interned
    /// candidates from dictionaries).
    pub dataset: Dataset,
    /// A copy of the dataset with all repairs applied.
    pub repaired: Dataset,
    /// Repairs and posteriors.
    pub report: RepairReport,
    /// Stage timings.
    pub timings: StageTimings,
    /// Model-shape diagnostics.
    pub model: CompileStats,
    /// Learning diagnostics.
    pub learn_stats: Option<LearnStats>,
    /// Number of detected violations.
    pub violations: usize,
    /// Number of noisy cells (`|D_n|`).
    pub noisy_cells: usize,
}

/// Builder + runner for one repair session.
///
/// ```
/// use holo_dataset::{Dataset, Schema};
/// use holoclean::HoloClean;
///
/// let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
/// for _ in 0..8 { ds.push_row(&["60608", "Chicago", "IL"]); }
/// for _ in 0..5 { ds.push_row(&["60609", "Evanston", "IL"]); }
/// ds.push_row(&["60608", "Cicago", "IL"]);
/// let outcome = HoloClean::new(ds)
///     .with_constraint_text("FD: Zip -> City").unwrap()
///     .run().unwrap();
/// assert_eq!(outcome.report.repairs.len(), 1);
/// ```
pub struct HoloClean {
    ds: Dataset,
    constraints: ConstraintSet,
    dicts: Vec<(ExtDict, Vec<MatchingDependency>)>,
    extra_detectors: Vec<Box<dyn Detector + Send + Sync>>,
    noisy_override: Option<FxHashSet<CellRef>>,
    config: HoloConfig,
}

impl HoloClean {
    /// Starts a session over `ds` with default configuration and no
    /// constraints.
    pub fn new(ds: Dataset) -> Self {
        HoloClean {
            ds,
            constraints: ConstraintSet::new(),
            dicts: Vec::new(),
            extra_detectors: Vec::new(),
            noisy_override: None,
            config: HoloConfig::default(),
        }
    }

    /// Parses and appends constraints (DC lines and/or `FD:` sugar).
    pub fn with_constraint_text(mut self, text: &str) -> Result<Self, HoloError> {
        let parsed = parse_constraints(text, &mut self.ds)?;
        for (_, c) in parsed.iter() {
            self.constraints.push(c.clone());
        }
        Ok(self)
    }

    /// Registers an external dictionary with its matching dependencies.
    pub fn with_dictionary(mut self, dict: ExtDict, deps: Vec<MatchingDependency>) -> Self {
        self.dicts.push((dict, deps));
        self
    }

    /// Adds an extra error detector (unioned with violation detection).
    pub fn with_detector(mut self, d: impl Detector + Send + Sync + 'static) -> Self {
        self.extra_detectors.push(Box::new(d));
        self
    }

    /// Overrides detection entirely with a fixed noisy-cell set.
    pub fn with_noisy_cells(mut self, cells: FxHashSet<CellRef>) -> Self {
        self.noisy_override = Some(cells);
        self
    }

    /// Sets the configuration.
    pub fn with_config(mut self, config: HoloConfig) -> Self {
        self.config = config;
        self
    }

    /// Read access to the dataset (e.g. to look up attribute ids).
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Executes the pipeline: detect → compile → learn → infer → repair.
    pub fn run(self) -> Result<RepairOutcome, HoloError> {
        self.run_full().map(|(outcome, _, _)| outcome)
    }

    /// Freezes the inputs into a [`PipelineContext`] — the one step
    /// needing `&mut Dataset`: external matching interns the asserted
    /// values, after which the dataset is immutable for the whole run.
    pub fn into_context(mut self) -> Result<PipelineContext, HoloError> {
        let mut matches: MatchLookup = MatchLookup::default();
        for (dict_idx, (dict, deps)) in self.dicts.iter().enumerate() {
            let matcher = Matcher::new(dict, DictId(dict_idx as u32));
            for md in deps {
                // Matches are kept for all cells: noisy cells gain repair
                // candidates; clean (evidence) cells train the dictionary
                // reliability weight w(k).
                for m in matcher.find_matches(&self.ds, md)? {
                    let sym = self.ds.intern(m.value);
                    matches.entry((m.cell, sym)).or_default().push(m.dict);
                }
            }
        }
        Ok(PipelineContext {
            ds: self.ds,
            constraints: self.constraints,
            matches,
            noisy_override: self.noisy_override,
            extra_detectors: self.extra_detectors,
            verified: FxHashSet::default(),
            config: self.config,
        })
    }

    /// Like [`HoloClean::run`] but also returns the compiled model and the
    /// learned weights — introspection for debugging and for analyses that
    /// need the feature registry (e.g. inspecting learned constraint or
    /// source-reliability weights).
    ///
    /// This is a thin driver: it freezes the inputs
    /// ([`HoloClean::into_context`]) and hands control to
    /// [`pipeline::run`].
    pub fn run_full(
        self,
    ) -> Result<(RepairOutcome, CompiledModel, holo_factor::Weights), HoloError> {
        // Matching is billed to the compile budget, matching the original
        // pipeline's accounting.
        let t0 = Instant::now();
        let cx = self.into_context()?;
        let matching_time = t0.elapsed();

        let PipelineRun {
            detection,
            model,
            weights,
            learn_stats,
            marginals,
            mut timings,
        } = pipeline::run(&cx)?;
        timings.compile += matching_time;

        // ---- Repair extraction ----
        let ds = cx.ds;
        let report = RepairReport::from_marginals(
            &ds,
            &model.query_cells,
            &model.query_vars,
            &model.graph,
            &marginals,
        );
        let repaired = report.apply(&ds);

        let outcome = RepairOutcome {
            dataset: ds,
            repaired,
            report,
            timings,
            model: model.stats.clone(),
            learn_stats,
            violations: detection.violations,
            noisy_cells: detection.noisy.len(),
        };
        Ok((outcome, model, weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use holo_dataset::Schema;
    use std::time::Duration;

    fn zip_city_dataset() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
        for _ in 0..8 {
            ds.push_row(&["60608", "Chicago", "IL"]);
        }
        ds.push_row(&["60608", "Cicago", "IL"]); // typo to repair
        for _ in 0..5 {
            ds.push_row(&["60609", "Evanston", "IL"]);
        }
        ds
    }

    #[test]
    fn end_to_end_repairs_typo() {
        let outcome = HoloClean::new(zip_city_dataset())
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.report.repairs.len(), 1);
        let r = &outcome.report.repairs[0];
        assert_eq!(r.old_value, "Cicago");
        assert_eq!(r.new_value, "Chicago");
        assert!(r.probability > 0.5);
        // The repaired copy reflects the fix; the original does not.
        assert_eq!(outcome.repaired.cell_str(8.into(), 1.into()), "Chicago");
        assert_eq!(outcome.dataset.cell_str(8.into(), 1.into()), "Cicago");
        assert!(outcome.violations > 0);
        assert!(outcome.noisy_cells > 0);
    }

    #[test]
    fn all_variants_repair_the_typo() {
        for variant in ModelVariant::all() {
            let outcome = HoloClean::new(zip_city_dataset())
                .with_constraint_text("FD: Zip -> City")
                .unwrap()
                .with_config(HoloConfig::default().with_variant(variant))
                .run()
                .unwrap();
            let repaired: Vec<_> = outcome
                .report
                .repairs
                .iter()
                .map(|r| (r.old_value.as_str(), r.new_value.as_str()))
                .collect();
            assert!(
                repaired.contains(&("Cicago", "Chicago")),
                "variant {variant:?} missed the repair: {repaired:?}"
            );
            if variant.uses_dc_factors() {
                assert!(outcome.model.cliques > 0, "{variant:?} grounds cliques");
            } else {
                assert_eq!(outcome.model.cliques, 0);
            }
        }
    }

    #[test]
    fn clean_dataset_produces_no_repairs() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60609", "Evanston"]);
        let outcome = HoloClean::new(ds)
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .run()
            .unwrap();
        assert!(outcome.report.repairs.is_empty());
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.noisy_cells, 0);
    }

    #[test]
    fn noisy_override_respected() {
        let ds = zip_city_dataset();
        let city = ds.schema().attr_id("City").unwrap();
        let mut cells = FxHashSet::default();
        cells.insert(CellRef {
            tuple: 8usize.into(),
            attr: city,
        });
        let outcome = HoloClean::new(ds)
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .with_noisy_cells(cells)
            .run()
            .unwrap();
        assert_eq!(outcome.noisy_cells, 1);
        assert_eq!(outcome.report.repairs.len(), 1);
    }

    #[test]
    fn dictionary_signal_fixes_cell_without_duplicates() {
        // A single tuple with a wrong city: co-occurrence statistics alone
        // cannot know better (no duplicates), but the dictionary can.
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Cicago"]);
        ds.push_row(&["60609", "Cicago"]); // same wrong city, other zip
        let dict =
            ExtDict::from_csv("addr", "Ext_Zip,Ext_City\n60608,Chicago\n60609,Chicago\n").unwrap();
        let md = MatchingDependency::equalities("m1", &[("Zip", "Ext_Zip")], ("City", "Ext_City"));
        let city = ds.schema().attr_id("City").unwrap();
        let mut cells = FxHashSet::default();
        cells.insert(CellRef {
            tuple: 0usize.into(),
            attr: city,
        });
        cells.insert(CellRef {
            tuple: 1usize.into(),
            attr: city,
        });
        let outcome = HoloClean::new(ds)
            .with_dictionary(dict, vec![md])
            .with_noisy_cells(cells)
            .run()
            .unwrap();
        assert_eq!(outcome.report.repairs.len(), 2);
        for r in &outcome.report.repairs {
            assert_eq!(r.new_value, "Chicago");
        }
    }

    #[test]
    fn timings_are_populated() {
        let outcome = HoloClean::new(zip_city_dataset())
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .run()
            .unwrap();
        assert!(outcome.timings.total() > Duration::ZERO);
        assert_eq!(
            outcome.timings.repair(),
            outcome.timings.learn + outcome.timings.infer
        );
    }

    #[test]
    fn posteriors_cover_all_query_cells() {
        let outcome = HoloClean::new(zip_city_dataset())
            .with_constraint_text("FD: Zip -> City")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.report.posteriors.len(), outcome.model.query_vars);
        for p in &outcome.report.posteriors {
            let total: f64 = p.candidates.iter().map(|(_, pr)| pr).sum();
            assert!((total - 1.0).abs() < 1e-9, "posterior normalised");
        }
    }
}
