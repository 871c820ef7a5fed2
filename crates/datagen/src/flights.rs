//! The Flights generator.
//!
//! Models the web-extracted flight-schedule corpus of Li et al. \[30\]: one
//! row per (flight, source), four time attributes constrained by
//! `FD: Flight → <attr>`. Sources have heterogeneous reliability, copy
//! each other's mistakes (a contested attribute has a *dominant* wrong
//! variant), and for a sizeable share of contested attributes the wrong
//! variant out-votes the truth — the regime where minimality-driven
//! repair (Holistic) picks the wrong value and source-reliability
//! reasoning is required (§6.2: "the majority of cells in Flights are
//! noisy").

use crate::inject::perturb_time;
use crate::spec::{DatasetKind, GeneratedDataset};
use holo_dataset::{CellRef, Dataset, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`flights`].
#[derive(Debug, Clone, Copy)]
pub struct FlightsConfig {
    /// Number of distinct flights.
    pub flights: usize,
    /// Number of web sources; rows = flights × sources.
    pub sources: usize,
    /// Probability that a (flight, attribute) is contested at all.
    pub contest_rate: f64,
    /// Probability that a contested attribute's dominant wrong variant
    /// out-votes the truth.
    pub flip_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlightsConfig {
    fn default() -> Self {
        FlightsConfig {
            flights: 72,
            sources: 33,
            contest_rate: 0.55,
            flip_rate: 0.45,
            seed: 0xf119,
        }
    }
}

/// Schema of the Flights dataset (6 attributes as in Table 2).
pub const FLIGHTS_ATTRS: [&str; 6] = [
    "Flight", "Source", "SchedDep", "ActDep", "SchedArr", "ActArr",
];

/// The four denial constraints of Table 2: a unique scheduled and actual
/// departure/arrival time per flight.
pub const FLIGHTS_CONSTRAINTS: &str = "\
FD: Flight -> SchedDep\n\
FD: Flight -> ActDep\n\
FD: Flight -> SchedArr\n\
FD: Flight -> ActArr\n";

const CARRIERS: &[&str] = &["AA", "UA", "DL", "WN", "B6", "AS", "NK", "F9"];

/// Generates the Flights dataset.
pub fn flights(config: FlightsConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::new(FLIGHTS_ATTRS.to_vec());
    let mut clean = Dataset::new(schema.clone());
    let mut dirty = Dataset::new(schema);

    // Source reliability tiers: 20% excellent, 40% mediocre, 40% poor.
    let reliability: Vec<f64> = (0..config.sources)
        .map(|s| {
            let frac = s as f64 / config.sources as f64;
            if frac < 0.2 {
                0.93
            } else if frac < 0.6 {
                0.55
            } else {
                0.25
            }
        })
        .collect();
    let source_names: Vec<String> = (0..config.sources)
        .map(|s| format!("source-{s:02}.example.com"))
        .collect();

    let mut errors = Vec::new();
    let time_attrs = 4usize;

    for f in 0..config.flights {
        let carrier = CARRIERS[f % CARRIERS.len()];
        let flight_name = format!("{carrier}-{:04}", 100 + f * 7);
        // True schedule.
        let dep_minute = rng.gen_range(5 * 60..22 * 60);
        let duration = rng.gen_range(45..360);
        let delay_dep = rng.gen_range(0..40);
        let delay_arr = rng.gen_range(0..50);
        let fmt = |m: i32| format!("{:02}:{:02}", (m / 60) % 24, m % 60);
        let truth = [
            fmt(dep_minute),
            fmt(dep_minute + delay_dep),
            fmt(dep_minute + duration),
            fmt(dep_minute + duration + delay_arr),
        ];
        // Per (flight, attr): contested? dominant/secondary wrong variants.
        struct AttrPlan {
            contested: bool,
            /// Probability a source reports the truth (contested only).
            truth_share: f64,
            dominant: String,
            secondary: String,
        }
        let plans: Vec<AttrPlan> = (0..time_attrs)
            .map(|a| {
                let contested = rng.gen_bool(config.contest_rate);
                let flipped = contested && rng.gen_bool(config.flip_rate);
                // Flipped: truth gets ~35% of reports; otherwise ~60%.
                let truth_share = if flipped { 0.35 } else { 0.60 };
                let dominant = perturb_time(&mut rng, &truth[a]);
                // The secondary wrong variant must differ from both the
                // dominant one and the truth.
                let mut secondary = perturb_time(&mut rng, &truth[a]);
                while secondary == dominant || secondary == truth[a] {
                    secondary = perturb_time(&mut rng, &secondary);
                }
                AttrPlan {
                    contested,
                    truth_share,
                    dominant,
                    secondary,
                }
            })
            .collect();

        for s in 0..config.sources {
            let row_truth = [
                flight_name.as_str(),
                source_names[s].as_str(),
                truth[0].as_str(),
                truth[1].as_str(),
                truth[2].as_str(),
                truth[3].as_str(),
            ];
            clean.push_row(&row_truth);
            let t = dirty.tuple_count();
            let mut dirty_row: Vec<String> = row_truth.iter().map(|v| (*v).to_string()).collect();
            for (a, plan) in plans.iter().enumerate() {
                if !plan.contested {
                    continue;
                }
                // Reliable sources beat the flight-level truth share;
                // unreliable ones fall below it.
                let p_truth = (plan.truth_share * reliability[s] / 0.55).min(0.98);
                if rng.gen_bool(p_truth) {
                    continue;
                }
                let wrong = if rng.gen_bool(0.75) {
                    plan.dominant.clone()
                } else {
                    plan.secondary.clone()
                };
                dirty_row[2 + a] = wrong;
                errors.push(CellRef {
                    tuple: t.into(),
                    attr: (2 + a).into(),
                });
            }
            dirty.push_row(&dirty_row);
        }
    }
    errors.sort_unstable();

    GeneratedDataset {
        kind: DatasetKind::Flights,
        dirty,
        clean,
        constraints_text: FLIGHTS_CONSTRAINTS.to_string(),
        errors,
        // No external dictionary exists for flight schedules (Table 3's
        // "n/a" for KATARA).
        dictionary: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_constraints::{find_violations, noisy_cells, parse_constraints};

    #[test]
    fn shape_matches_table2() {
        let g = flights(FlightsConfig::default());
        assert_eq!(g.dirty.schema().len(), 6);
        assert_eq!(g.dirty.tuple_count(), 72 * 33, "≈2376 rows");
        assert!(g.dictionary.is_none());
    }

    #[test]
    fn majority_of_time_cells_are_contested() {
        let mut g = flights(FlightsConfig::default());
        let cons = parse_constraints(&g.constraints_text, &mut g.dirty).unwrap();
        assert_eq!(cons.len(), 4);
        let violations = find_violations(&g.dirty, &cons);
        let noisy = noisy_cells(&violations);
        // Time cells: 4 per row. The paper: "the majority of cells in
        // Flights are noisy".
        let time_cells = g.dirty.tuple_count() * 4;
        assert!(
            noisy.len() * 2 > time_cells,
            "{} of {time_cells} time cells noisy",
            noisy.len()
        );
    }

    #[test]
    fn some_flights_have_wrong_majorities() {
        let g = flights(FlightsConfig::default());
        let flight_attr = g.dirty.schema().attr_id("Flight").unwrap();
        let mut wrong_majorities = 0;
        for a in ["SchedDep", "ActDep", "SchedArr", "ActArr"] {
            let attr = g.dirty.schema().attr_id(a).unwrap();
            // Group rows by flight, compare plurality vs truth.
            let mut groups: std::collections::HashMap<&str, Vec<usize>> = Default::default();
            for t in 0..g.dirty.tuple_count() {
                groups
                    .entry(g.dirty.cell_str(t.into(), flight_attr))
                    .or_default()
                    .push(t);
            }
            for rows in groups.values() {
                let mut counts: std::collections::HashMap<&str, usize> = Default::default();
                for &t in rows {
                    *counts.entry(g.dirty.cell_str(t.into(), attr)).or_default() += 1;
                }
                let majority = counts.iter().max_by_key(|(_, &c)| c).unwrap().0;
                let truth = g.clean.cell_str(rows[0].into(), attr);
                if *majority != truth {
                    wrong_majorities += 1;
                }
            }
        }
        assert!(
            wrong_majorities > 10,
            "minimality must fail somewhere: {wrong_majorities} wrong majorities"
        );
    }

    #[test]
    fn reliable_sources_are_more_accurate() {
        let g = flights(FlightsConfig::default());
        let src_attr = g.dirty.schema().attr_id("Source").unwrap();
        let mut per_source: std::collections::HashMap<&str, (u32, u32)> = Default::default();
        for t in 0..g.dirty.tuple_count() {
            for a in 2..6usize {
                let entry = per_source
                    .entry(g.dirty.cell_str(t.into(), src_attr))
                    .or_default();
                entry.1 += 1;
                if g.dirty.cell_str(t.into(), a.into()) == g.clean.cell_str(t.into(), a.into()) {
                    entry.0 += 1;
                }
            }
        }
        let acc = |name: &str| {
            let (c, n) = per_source[name];
            f64::from(c) / f64::from(n)
        };
        assert!(acc("source-00.example.com") > acc("source-32.example.com") + 0.1);
    }

    #[test]
    fn errors_list_is_exact() {
        let mut g = flights(FlightsConfig::default());
        let recorded = g.errors.clone();
        g.recompute_errors();
        assert_eq!(recorded, g.errors);
    }

    #[test]
    fn clean_version_consistent() {
        let mut g = flights(FlightsConfig::default());
        let cons = parse_constraints(&g.constraints_text, &mut g.clean).unwrap();
        assert!(find_violations(&g.clean, &cons).is_empty());
    }
}
