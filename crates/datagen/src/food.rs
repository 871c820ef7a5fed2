//! The Food generator — Chicago food-establishment inspections (Figure 1,
//! §6.1).
//!
//! Establishments are inspected repeatedly across years (duplication), and
//! errors are *non-systematic*: independent typos and value swaps spread
//! over name, address-block and outcome attributes, "introduced in
//! non-systematic ways" — including on attributes no denial constraint
//! covers (Results), which keeps recall below 1 exactly as in the paper.

use crate::inject::{misspell, swap_from_pool};
use crate::spec::{DatasetKind, GeneratedDataset};
use crate::vocab;
use holo_dataset::{CellRef, Dataset, FxHashSet, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`food`].
#[derive(Debug, Clone, Copy)]
pub struct FoodConfig {
    /// Number of establishments.
    pub establishments: usize,
    /// Mean inspections per establishment; the actual count varies from 2
    /// to ~1.6× the mean, so some establishments offer only 1-vs-1
    /// conflicts (the Figure 1 zip-code situation).
    pub inspections_per: usize,
    /// Fraction of cells corrupted.
    pub error_rate: f64,
    /// Probability that an error replicates into half the establishment's
    /// rows (conflicting zips "for the same establishment" across years).
    pub correlated_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FoodConfig {
    fn default() -> Self {
        FoodConfig {
            establishments: 2_000,
            inspections_per: 10,
            error_rate: 0.01,
            correlated_rate: 0.15,
            seed: 0xf00d,
        }
    }
}

/// The 17 attributes (Table 2).
pub const FOOD_ATTRS: [&str; 17] = [
    "InspectionID",
    "DBAName",
    "AKAName",
    "License",
    "FacilityType",
    "Risk",
    "Address",
    "City",
    "State",
    "Zip",
    "InspectionDate",
    "InspectionType",
    "Results",
    "Violations",
    "Latitude",
    "Longitude",
    "Ward",
];

/// The seven denial constraints (Table 2; FD sugar expands per RHS attr).
pub const FOOD_CONSTRAINTS: &str = "\
FD: License -> DBAName\n\
FD: License -> Address\n\
FD: License -> FacilityType\n\
FD: License -> Risk\n\
FD: Zip -> City, State\n\
FD: City, State, Address -> Zip\n";

const FACILITY_TYPES: &[&str] = &["Restaurant", "Grocery Store", "Bakery", "School", "Daycare"];
const RISKS: &[&str] = &["Risk 1 (High)", "Risk 2 (Medium)", "Risk 3 (Low)"];
const INSPECTION_TYPES: &[&str] = &["Canvass", "License", "Complaint", "Re-inspection"];
const RESULTS: &[&str] = &["Pass", "Fail", "Pass w/ Conditions", "No Entry"];

/// Generates the Food dataset.
pub fn food(config: FoodConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::new(FOOD_ATTRS.to_vec());
    let mut clean = Dataset::new(schema);

    struct Establishment {
        dba: String,
        aka: String,
        license: String,
        facility: &'static str,
        risk: &'static str,
        address: String,
        city: &'static str,
        state: &'static str,
        zip: String,
        lat: String,
        lon: String,
        ward: String,
    }

    let establishments: Vec<Establishment> = (0..config.establishments)
        .map(|i| {
            let dba = vocab::business_name(&mut rng);
            // Chicago dominates as in the real catalog; suburbs appear too.
            let (city_rec, zip) = if rng.gen_bool(0.85) {
                let c = &vocab::CITIES[0]; // Chicago
                let z = c.zip_base + rng.gen_range(0..c.zip_count);
                (c, format!("{z:05}"))
            } else {
                vocab::city_zip(&mut rng)
            };
            let zip_num: u32 = zip.parse().unwrap();
            Establishment {
                aka: dba.clone(),
                dba,
                license: format!("{:07}", 1_000_000 + i * 13),
                facility: vocab::pick(FACILITY_TYPES, i),
                risk: vocab::pick(RISKS, i / 3),
                address: vocab::address_unique(&mut rng, i),
                city: city_rec.city,
                state: city_rec.state,
                lat: format!("41.{:06}", zip_num % 1_000_000),
                lon: format!("-87.{:06}", (zip_num * 7) % 1_000_000),
                ward: format!("{}", zip_num % 50 + 1),
                zip,
            }
        })
        .collect();

    let mut inspection_id = 2_000_000u32;
    let mut establishment_rows: Vec<(usize, usize)> = Vec::with_capacity(establishments.len());
    for (i, e) in establishments.iter().enumerate() {
        // Inspection counts vary: every third establishment is new (2
        // visits); the rest range up to ~1.6× the mean.
        let visits = match i % 3 {
            0 => 2,
            1 => config.inspections_per,
            _ => config.inspections_per + config.inspections_per / 2,
        }
        .max(1);
        let start = clean.tuple_count();
        establishment_rows.push((start, start + visits));
        for k in 0..visits {
            inspection_id += 7;
            let date = format!(
                "{:04}-{:02}-{:02}",
                2010 + (k % 7),
                1 + (i + k) % 12,
                1 + (i * 3 + k * 5) % 28
            );
            let violations = if (i + k) % 3 == 0 {
                format!("{}. CORRECTED DURING INSPECTION", 30 + (i + k) % 40)
            } else {
                String::new()
            };
            clean.push_row(&[
                inspection_id.to_string().as_str(),
                e.dba.as_str(),
                e.aka.as_str(),
                e.license.as_str(),
                e.facility,
                e.risk,
                e.address.as_str(),
                e.city,
                e.state,
                e.zip.as_str(),
                date.as_str(),
                vocab::pick(INSPECTION_TYPES, i + k),
                vocab::pick(RESULTS, (i * 5 + k) % 7),
                violations.as_str(),
                e.lat.as_str(),
                e.lon.as_str(),
                e.ward.as_str(),
            ]);
        }
    }

    // ---- non-systematic error injection ----
    let mut dirty = clean.clone();
    let zip_pool: Vec<String> = {
        let c = &vocab::CITIES[0];
        (0..c.zip_count)
            .map(|i| format!("{:05}", c.zip_base + i))
            .collect()
    };
    let facility_pool: Vec<String> = FACILITY_TYPES.iter().map(|s| s.to_string()).collect();
    let risk_pool: Vec<String> = RISKS.iter().map(|s| s.to_string()).collect();
    let results_pool: Vec<String> = RESULTS.iter().map(|s| s.to_string()).collect();

    // (attr name, error kind): 0 = misspell, 1 = pool swap.
    let targets: &[(&str, u8, &[String])] = &[
        ("DBAName", 0, &[]),
        ("AKAName", 0, &[]),
        ("City", 0, &[]),
        ("Zip", 1, &zip_pool),
        ("FacilityType", 1, &facility_pool),
        ("Risk", 1, &risk_pool),
        ("Results", 1, &results_pool),
    ];
    let range_of = |t: usize| -> (usize, usize) {
        let idx = establishment_rows
            .partition_point(|&(start, _)| start <= t)
            .saturating_sub(1);
        establishment_rows[idx]
    };
    let total_cells = dirty.cell_count();
    let n_errors = (total_cells as f64 * config.error_rate) as usize;
    let mut errors = Vec::with_capacity(n_errors);
    // Membership of `errors`, which keeps the injection order.
    let mut injected: FxHashSet<CellRef> = FxHashSet::default();
    let mut attempts = 0;
    while errors.len() < n_errors && attempts < n_errors * 30 {
        attempts += 1;
        let (attr_name, kind, pool) = targets[rng.gen_range(0..targets.len())];
        let attr = dirty.schema().attr_id(attr_name).unwrap();
        let t = rng.gen_range(0..dirty.tuple_count());
        let cell = CellRef {
            tuple: t.into(),
            attr,
        };
        if injected.contains(&cell) {
            continue;
        }
        let original = dirty.cell_str(cell.tuple, cell.attr).to_string();
        if original.is_empty() {
            continue;
        }
        let corrupted = match kind {
            0 => misspell(&mut rng, &original),
            _ => match swap_from_pool(&mut rng, &original, pool) {
                Some(v) => v,
                None => continue,
            },
        };
        if corrupted == original {
            continue;
        }
        let sym = dirty.intern(&corrupted);
        dirty.set_cell(cell.tuple, cell.attr, sym);
        errors.push(cell);
        injected.insert(cell);
        // Correlated errors on establishment-level attributes: the same
        // wrong value reappears across inspections of the establishment
        // (a wrong majority for half the groups).
        let establishment_level = matches!(
            attr_name,
            "DBAName" | "AKAName" | "City" | "Zip" | "FacilityType" | "Risk"
        );
        if establishment_level && rng.gen_bool(config.correlated_rate) {
            let (start, end) = range_of(t);
            let group_len = end - start;
            if group_len > 1 {
                // Up to a tie, never a wrong majority.
                let copies = (group_len / 2).saturating_sub(1).max(1);
                let mut rows: Vec<usize> = (start..end).filter(|&r| r != t).collect();
                for _ in 0..copies {
                    if rows.is_empty() || errors.len() >= n_errors {
                        break;
                    }
                    let pick = rng.gen_range(0..rows.len());
                    let r = rows.swap_remove(pick);
                    let rcell = CellRef {
                        tuple: r.into(),
                        attr,
                    };
                    if injected.contains(&rcell) {
                        continue;
                    }
                    dirty.set_cell(rcell.tuple, rcell.attr, sym);
                    errors.push(rcell);
                    injected.insert(rcell);
                }
            }
        }
    }
    errors.sort_unstable();

    GeneratedDataset {
        kind: DatasetKind::Food,
        dirty,
        clean,
        constraints_text: FOOD_CONSTRAINTS.to_string(),
        errors,
        dictionary: Some(vocab::zip_dictionary()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_constraints::{find_violations, noisy_cells, parse_constraints};

    fn small() -> FoodConfig {
        FoodConfig {
            establishments: 150,
            inspections_per: 8,
            ..FoodConfig::default()
        }
    }

    #[test]
    fn shape_matches_table2() {
        let g = food(small());
        assert_eq!(g.dirty.schema().len(), 17);
        // Visit counts vary per establishment (2 / mean / 1.5×mean), so the
        // total lands near establishments × mean.
        let rows = g.dirty.tuple_count();
        assert!((150 * 6..150 * 10).contains(&rows), "rows = {rows}");
    }

    #[test]
    fn seven_constraints_and_clean_consistency() {
        let mut g = food(small());
        let cons = parse_constraints(&g.constraints_text, &mut g.clean).unwrap();
        assert_eq!(cons.len(), 7, "seven DCs as in Table 2");
        assert!(find_violations(&g.clean, &cons).is_empty());
    }

    #[test]
    fn dirty_has_violations_but_not_all_errors_detectable() {
        let mut g = food(small());
        let cons = parse_constraints(&g.constraints_text, &mut g.dirty).unwrap();
        let violations = find_violations(&g.dirty, &cons);
        assert!(!violations.is_empty());
        // Results errors are not covered by any DC → undetectable.
        let results = g.dirty.schema().attr_id("Results").unwrap();
        let noisy = noisy_cells(&violations);
        let undetectable = g
            .errors
            .iter()
            .filter(|c| c.attr == results && !noisy.contains(c))
            .count();
        assert!(undetectable > 0, "some errors must evade detection");
    }

    #[test]
    fn errors_list_is_exact() {
        let mut g = food(small());
        let recorded = g.errors.clone();
        g.recompute_errors();
        assert_eq!(recorded, g.errors);
    }

    #[test]
    fn chicago_dominates() {
        let g = food(small());
        let city = g.clean.schema().attr_id("City").unwrap();
        let chicago_rows = g
            .clean
            .tuples()
            .filter(|&t| g.clean.cell_str(t, city) == "Chicago")
            .count();
        assert!(chicago_rows * 10 > g.clean.tuple_count() * 7);
    }
}
