//! The Hospital benchmark generator.
//!
//! "A typical benchmark dataset used in the data cleaning literature.
//! Errors amount to ~5% of the total data … an easy benchmark with
//! significant duplication across cells" (§6.1). Each provider appears in
//! one row per quality measure, so provider-level attributes are heavily
//! duplicated; errors are single-character typos (the classic `x`
//! substitution used by the benchmark).

use crate::inject::typo_x;
use crate::spec::{DatasetKind, GeneratedDataset};
use crate::vocab;
use holo_dataset::{CellRef, Dataset, FxHashSet, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`hospital`].
#[derive(Debug, Clone, Copy)]
pub struct HospitalConfig {
    /// Approximate number of rows (providers × measures).
    pub rows: usize,
    /// Fraction of cells corrupted (paper: ~5%).
    pub error_rate: f64,
    /// Fraction of providers reporting only two measures — their conflicts
    /// are 1-vs-1 ties that minimality cannot resolve but quantitative
    /// statistics can.
    pub small_provider_rate: f64,
    /// Probability that an injected error is *correlated*: the same
    /// corrupted value is replicated into half the provider's rows,
    /// producing wrong majorities that actively mislead minimality-based
    /// repair.
    pub correlated_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig {
            rows: 1_000,
            error_rate: 0.05,
            small_provider_rate: 0.5,
            correlated_rate: 0.12,
            seed: 0x05917a1,
        }
    }
}

const MEASURES: &[(&str, &str, &str)] = &[
    ("AMI-1", "Aspirin at arrival", "Heart Attack"),
    ("AMI-2", "Aspirin at discharge", "Heart Attack"),
    ("AMI-3", "ACE inhibitor for LVSD", "Heart Attack"),
    ("AMI-4", "Adult smoking cessation advice", "Heart Attack"),
    ("HF-1", "Discharge instructions", "Heart Failure"),
    ("HF-2", "Evaluation of LVS function", "Heart Failure"),
    ("HF-3", "ACE inhibitor for LVSD", "Heart Failure"),
    ("PN-2", "Pneumococcal vaccination", "Pneumonia"),
    ("PN-3b", "Blood culture before antibiotic", "Pneumonia"),
    ("PN-4", "Smoking cessation advice", "Pneumonia"),
    (
        "SCIP-1",
        "Prophylactic antibiotic within 1 hour",
        "Surgical Infection Prevention",
    ),
    (
        "SCIP-2",
        "Antibiotic selection",
        "Surgical Infection Prevention",
    ),
];

const OWNERS: &[&str] = &[
    "Government - Hospital District",
    "Voluntary non-profit - Private",
    "Proprietary",
    "Government - Local",
];

/// The 19 attributes of the benchmark.
pub const HOSPITAL_ATTRS: [&str; 19] = [
    "ProviderNumber",
    "HospitalName",
    "Address1",
    "Address2",
    "Address3",
    "City",
    "State",
    "ZipCode",
    "CountyName",
    "PhoneNumber",
    "HospitalType",
    "HospitalOwner",
    "EmergencyService",
    "Condition",
    "MeasureCode",
    "MeasureName",
    "Score",
    "Sample",
    "StateAvg",
];

/// The nine denial constraints (FD sugar expands to one DC per RHS attr).
pub const HOSPITAL_CONSTRAINTS: &str = "\
FD: ProviderNumber -> HospitalName\n\
FD: ProviderNumber -> City\n\
FD: ProviderNumber -> State\n\
FD: ProviderNumber -> ZipCode\n\
FD: ProviderNumber -> PhoneNumber\n\
FD: ZipCode -> City, State\n\
FD: MeasureCode -> MeasureName\n\
FD: MeasureCode -> Condition\n";

/// Generates the Hospital dataset.
pub fn hospital(config: HospitalConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let big_measures = MEASURES.len().min(10);
    let small_measures = 2usize;
    // Average rows per provider under the big/small mix.
    let avg_rows = config.small_provider_rate * small_measures as f64
        + (1.0 - config.small_provider_rate) * big_measures as f64;
    let n_providers = ((config.rows as f64 / avg_rows) as usize).max(1);

    let schema = Schema::new(HOSPITAL_ATTRS.to_vec());
    let mut clean = Dataset::new(schema.clone());

    struct Provider {
        number: String,
        name: String,
        address: String,
        city: &'static str,
        state: &'static str,
        zip: String,
        county: String,
        phone: String,
        owner: &'static str,
        emergency: &'static str,
    }

    let providers: Vec<Provider> = (0..n_providers)
        .map(|i| {
            let (city_rec, zip) = vocab::city_zip(&mut rng);
            let (_, last) = vocab::person_name(&mut rng);
            Provider {
                number: format!("{:05}", 10_000 + i),
                name: format!("{} {} Medical Center", city_rec.city, last),
                address: vocab::address_unique(&mut rng, i),
                city: city_rec.city,
                state: city_rec.state,
                zip,
                county: format!("{} County", city_rec.city),
                phone: vocab::phone(&mut rng, i),
                owner: vocab::pick(OWNERS, i),
                emergency: if i % 4 == 0 { "No" } else { "Yes" },
            }
        })
        .collect();

    // Row ranges per provider, for correlated error replication.
    let mut provider_rows: Vec<(usize, usize)> = Vec::with_capacity(n_providers);
    for (i, p) in providers.iter().enumerate() {
        let measures_per_provider = if (i as f64 / n_providers as f64) < config.small_provider_rate
        {
            small_measures
        } else {
            big_measures
        };
        let row_start = clean.tuple_count();
        provider_rows.push((row_start, row_start + measures_per_provider));
        for (m, &(code, mname, condition)) in
            MEASURES.iter().take(measures_per_provider).enumerate()
        {
            // Random and coarse-grained: deterministic formulas here would
            // leak spurious co-occurrences between scores and other attrs.
            let score = format!("{}%", rng.gen_range(50..100));
            let sample = format!("{} patients", rng.gen_range(2..32) * 10);
            // State average is functionally determined by (State, Measure).
            let state_avg = format!("{}_{}%", p.state, 60 + ((p.state.len() * 17 + m * 3) % 35));
            clean.push_row(&[
                p.number.as_str(),
                p.name.as_str(),
                p.address.as_str(),
                "",
                "",
                p.city,
                p.state,
                p.zip.as_str(),
                p.county.as_str(),
                p.phone.as_str(),
                "Acute Care Hospitals",
                p.owner,
                p.emergency,
                condition,
                code,
                mname,
                score.as_str(),
                sample.as_str(),
                state_avg.as_str(),
            ]);
        }
    }

    // ---- error injection: x-typos across the typo-able attributes ----
    let mut dirty = clean.clone();
    let typo_attrs = [
        "HospitalName",
        "City",
        "State",
        "ZipCode",
        "PhoneNumber",
        "CountyName",
        "MeasureName",
        "Condition",
        "Score",
        "Sample",
    ];
    let typo_attr_ids: Vec<_> = typo_attrs
        .iter()
        .map(|n| dirty.schema().attr_id(n).unwrap())
        .collect();
    // Map each row back to its provider's row range (for replication).
    let range_of = |t: usize| -> (usize, usize) {
        let idx = provider_rows
            .partition_point(|&(start, _)| start <= t)
            .saturating_sub(1);
        provider_rows[idx]
    };
    let total_cells = dirty.cell_count();
    let n_errors = (total_cells as f64 * config.error_rate) as usize;
    let mut errors = Vec::with_capacity(n_errors);
    // Membership of `errors`, which keeps the injection order.
    let mut injected: FxHashSet<CellRef> = FxHashSet::default();
    let mut attempts = 0;
    while errors.len() < n_errors && attempts < n_errors * 20 {
        attempts += 1;
        let t = rng.gen_range(0..dirty.tuple_count());
        let a = typo_attr_ids[rng.gen_range(0..typo_attr_ids.len())];
        let cell = CellRef {
            tuple: t.into(),
            attr: a,
        };
        if injected.contains(&cell) {
            continue;
        }
        let original = dirty.cell_str(cell.tuple, cell.attr).to_string();
        let corrupted = typo_x(&mut rng, &original);
        if corrupted == original {
            continue;
        }
        let sym = dirty.intern(&corrupted);
        dirty.set_cell(cell.tuple, cell.attr, sym);
        errors.push(cell);
        injected.insert(cell);
        // Correlated errors: replicate the same corrupted value into half
        // of the provider's other rows (provider-level attributes only, so
        // replication creates a consistent wrong majority).
        let provider_level = matches!(
            HOSPITAL_ATTRS[a.index()],
            "HospitalName" | "City" | "State" | "ZipCode" | "PhoneNumber" | "CountyName"
        );
        if provider_level && rng.gen_bool(config.correlated_rate) {
            let (start, end) = range_of(t);
            let group_len = end - start;
            if group_len > 2 {
                // Half the group: a tie (e.g. 5-vs-5) that minimality must
                // coin-flip while HoloClean's prior abstains.
                let copies = (group_len / 2).saturating_sub(1).max(1);
                let mut targets: Vec<usize> = (start..end).filter(|&r| r != t).collect();
                for _ in 0..copies {
                    if targets.is_empty() || errors.len() >= n_errors {
                        break;
                    }
                    let pick = rng.gen_range(0..targets.len());
                    let r = targets.swap_remove(pick);
                    let rcell = CellRef {
                        tuple: r.into(),
                        attr: a,
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
        kind: DatasetKind::Hospital,
        dirty,
        clean,
        constraints_text: HOSPITAL_CONSTRAINTS.to_string(),
        errors,
        dictionary: Some(vocab::zip_dictionary()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_constraints::{find_violations, parse_constraints};

    #[test]
    fn shape_matches_table2() {
        let g = hospital(HospitalConfig::default());
        assert_eq!(g.dirty.schema().len(), 19);
        assert!((900..=1100).contains(&g.dirty.tuple_count()), "≈1000 rows");
        // Error rate ≈ 5%.
        let rate = g.error_rate();
        assert!((0.04..=0.055).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn clean_version_satisfies_all_constraints() {
        let mut g = hospital(HospitalConfig::default());
        let cons = parse_constraints(&g.constraints_text, &mut g.clean).unwrap();
        assert_eq!(cons.len(), 9, "nine DCs as in Table 2");
        assert!(find_violations(&g.clean, &cons).is_empty());
    }

    #[test]
    fn dirty_version_violates() {
        let mut g = hospital(HospitalConfig::default());
        let cons = parse_constraints(&g.constraints_text, &mut g.dirty).unwrap();
        assert!(!find_violations(&g.dirty, &cons).is_empty());
    }

    #[test]
    fn errors_list_is_exact() {
        let mut g = hospital(HospitalConfig::default());
        let recorded = g.errors.clone();
        g.recompute_errors();
        assert_eq!(recorded, g.errors);
    }

    #[test]
    fn deterministic() {
        let a = hospital(HospitalConfig::default());
        let b = hospital(HospitalConfig::default());
        assert_eq!(a.errors, b.errors);
        assert_eq!(
            a.dirty.cell_str(0.into(), 1.into()),
            b.dirty.cell_str(0.into(), 1.into())
        );
    }

    #[test]
    fn scales_with_rows() {
        let g = hospital(HospitalConfig {
            rows: 5_000,
            ..HospitalConfig::default()
        });
        assert!((4_500..=5_500).contains(&g.dirty.tuple_count()));
    }
}
