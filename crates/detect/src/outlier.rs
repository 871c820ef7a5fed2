//! Frequency/similarity outlier detection [15, 22].
//!
//! Two rules, both tunable:
//!
//! 1. **Typo rule** — a value is suspicious if it is rare *and* lies within
//!    high normalised similarity of a much more frequent value of the same
//!    attribute ("Cicago" vs "Chicago"). This is the behaviour that makes
//!    quantitative methods repair `t4.City` in Figure 1(G).
//! 2. **Rare-value rule** — a value whose relative frequency is below
//!    `min_ratio` in an attribute otherwise dominated by frequent values.

use crate::{Detector, NoisyCells};
use holo_constraints::similarity::normalized_similarity;
use holo_dataset::{CellRef, Dataset};

/// Configuration for [`OutlierDetector`].
#[derive(Debug, Clone, Copy)]
pub struct OutlierConfig {
    /// A value is "rare" if `count(v)/n < min_ratio`.
    pub min_ratio: f64,
    /// Similarity threshold for the typo rule.
    pub sim_threshold: f64,
    /// The frequent partner must be at least this many times more common.
    pub dominance: f64,
    /// Enable the plain rare-value rule (off by default — it is noisy on
    /// genuinely high-cardinality attributes).
    pub flag_rare: bool,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        OutlierConfig {
            min_ratio: 0.02,
            sim_threshold: 0.8,
            dominance: 5.0,
            flag_rare: false,
        }
    }
}

/// Statistical outlier detector.
#[derive(Debug, Clone, Default)]
pub struct OutlierDetector {
    config: OutlierConfig,
}

impl OutlierDetector {
    /// Detector with the given configuration.
    pub fn new(config: OutlierConfig) -> Self {
        OutlierDetector { config }
    }
}

impl Detector for OutlierDetector {
    fn name(&self) -> &str {
        "stat-outliers"
    }

    fn detect(&self, ds: &Dataset) -> NoisyCells {
        let mut noisy = NoisyCells::default();
        let n = ds.tuple_count() as f64;
        if n == 0.0 {
            return noisy;
        }
        for a in ds.schema().attrs() {
            // Partition the attribute's values, by code, into rare and
            // frequent; a code no row holds is neither.
            let (counts, _) = ds.code_counts(a);
            let held = counts.iter().enumerate().filter(|&(_, &c)| c > 0);
            let (rare, frequent): (Vec<_>, Vec<_>) =
                held.partition(|&(_, &c)| f64::from(c) / n < self.config.min_ratio);
            let value = |code: usize| ds.value_str(ds.dictionary(a)[code]);
            let mut flagged = vec![false; counts.len()];
            for &(code, &c) in &rare {
                let is_typo = frequent.iter().any(|&(f, &fc)| {
                    f64::from(fc) >= self.config.dominance * f64::from(c)
                        && normalized_similarity(value(code), value(f)) >= self.config.sim_threshold
                });
                flagged[code] = is_typo || self.config.flag_rare;
            }
            if !flagged.contains(&true) {
                continue;
            }
            for (i, &code) in ds.codes(a).iter().enumerate() {
                if flagged.get(code as usize) == Some(&true) {
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

    fn city_ds() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["City"]));
        for _ in 0..50 {
            ds.push_row(&["Chicago"]);
        }
        ds.push_row(&["Cicago"]); // typo of a dominant value
        ds.push_row(&["Evanston"]); // legitimately rare, dissimilar
        ds
    }

    #[test]
    fn typo_rule_flags_similar_rare_values() {
        let ds = city_ds();
        let noisy = OutlierDetector::default().detect(&ds);
        assert_eq!(noisy.len(), 1);
        let cell = noisy.iter().next().unwrap();
        assert_eq!(ds.cell_str(cell.tuple, cell.attr), "Cicago");
    }

    #[test]
    fn rare_rule_off_by_default() {
        let ds = city_ds();
        let noisy = OutlierDetector::default().detect(&ds);
        assert!(!noisy
            .iter()
            .any(|c| ds.cell_str(c.tuple, c.attr) == "Evanston"));
    }

    #[test]
    fn rare_rule_flags_when_enabled() {
        let ds = city_ds();
        let noisy = OutlierDetector::new(OutlierConfig {
            flag_rare: true,
            ..OutlierConfig::default()
        })
        .detect(&ds);
        assert!(noisy
            .iter()
            .any(|c| ds.cell_str(c.tuple, c.attr) == "Evanston"));
    }

    #[test]
    fn uniform_attribute_produces_nothing() {
        let mut ds = Dataset::new(Schema::new(vec!["State"]));
        for i in 0..10 {
            ds.push_row(&[format!("S{i}")]);
        }
        // All values equally rare — no dominant partner, nothing flagged.
        let noisy = OutlierDetector::default().detect(&ds);
        assert!(noisy.is_empty());
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(Schema::new(vec!["a"]));
        assert!(OutlierDetector::default().detect(&ds).is_empty());
    }
}
