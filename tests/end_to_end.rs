//! Cross-crate integration tests: end-to-end repair quality on each
//! generated evaluation dataset, with the paper's Table 3 shape as the
//! assertion target.
//!
//! The runs are deterministic, so each quality floor is the score measured
//! when it was last set, minus 0.03. Floors only move up, and only with
//! the newly measured numbers in the commit message. Measured with the
//! co-occurrence weights tied per attribute pair: hospital(400) P 0.909 /
//! R 0.614 / F1 0.733, paper-shaped hospital(1000) 0.994 / 0.706 / 0.826,
//! food(250) 0.913 / 0.685 / 0.783, physicians(2000) P 1.0 / R 0.984,
//! flights(40 × 25) P 0.927 / R 0.843. Tying the weights was the one
//! sanctioned recall step down (hospital 0.649 → 0.614, food 0.722 →
//! 0.685), bought with +0.07 / +0.10 precision.

use holoclean_repro::holo_baselines::{to_report, Holistic, Katara, RepairSystem, Scare};
use holoclean_repro::holo_constraints::parse_constraints;
use holoclean_repro::holo_datagen::{
    flights, food, hospital, physicians, FlightsConfig, FoodConfig, HospitalConfig,
    PhysiciansConfig,
};
use holoclean_repro::holoclean::{evaluate, HoloClean, HoloConfig, HoloError, RepairQuality};

fn run_holoclean(
    gen: &holoclean_repro::holo_datagen::GeneratedDataset,
    tau: f64,
    source: Option<(&str, &str)>,
) -> RepairQuality {
    let mut config = HoloConfig::default().with_tau(tau);
    if let Some((entity, src)) = source {
        config = config.with_source(entity, src);
    }
    let outcome = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap()
        .with_config(config)
        .run()
        .unwrap();
    evaluate(&outcome.report, &outcome.dataset, &gen.clean)
}

#[test]
fn hospital_quality_floor() {
    let gen = hospital(HospitalConfig {
        rows: 400,
        ..HospitalConfig::default()
    });
    let q = run_holoclean(&gen, 0.5, None);
    assert!(q.precision > 0.879, "precision {q:?}");
    assert!(q.recall > 0.584, "recall {q:?}");
    assert!(q.f1 > 0.703, "f1 {q:?}");
}

/// The hospital table the paper describes: ten rows per provider and
/// independent typos (the default generator adds two-row providers and
/// replicated typos, which the paper's table does not have).
#[test]
fn paper_shaped_hospital_quality_floor() {
    let gen = hospital(HospitalConfig {
        rows: 1_000,
        small_provider_rate: 0.0,
        correlated_rate: 0.0,
        ..HospitalConfig::default()
    });
    let q = run_holoclean(&gen, 0.5, None);
    assert!(q.precision > 0.964, "{q:?}");
    assert!(q.recall > 0.676, "{q:?}");
    assert!(q.f1 > 0.795, "{q:?}");
}

#[test]
fn flights_quality_floor_and_source_lift() {
    let gen = flights(FlightsConfig {
        flights: 40,
        sources: 25,
        ..FlightsConfig::default()
    });
    let with_sources = run_holoclean(&gen, 0.3, Some(("Flight", "Source")));
    assert!(with_sources.precision > 0.897, "{with_sources:?}");
    assert!(with_sources.recall > 0.812, "{with_sources:?}");
    // Source-reliability features must provide a real lift.
    let without = run_holoclean(&gen, 0.3, None);
    assert!(
        with_sources.f1 >= without.f1,
        "sources {with_sources:?} vs none {without:?}"
    );
}

#[test]
fn food_quality_floor() {
    let gen = food(FoodConfig {
        establishments: 250,
        ..FoodConfig::default()
    });
    let q = run_holoclean(&gen, 0.5, None);
    assert!(q.precision > 0.882, "{q:?}");
    assert!(q.recall > 0.655, "{q:?}");
    assert!(q.f1 > 0.752, "{q:?}");
}

#[test]
fn physicians_quality_floor() {
    // The default bad-org rate: at higher rates several corrupted
    // organisations share a building block and the correct city loses its
    // within-block majority — legitimately unrecoverable at τ = 0.7.
    let gen = physicians(PhysiciansConfig {
        providers: 2_000,
        ..PhysiciansConfig::default()
    });
    let q = run_holoclean(&gen, 0.7, None);
    assert!(q.precision > 0.97, "{q:?}");
    assert!(q.recall > 0.954, "{q:?}");
}

#[test]
fn holoclean_beats_holistic_on_flights() {
    // The paper's starkest gap: minimality follows wrong majorities.
    let gen = flights(FlightsConfig {
        flights: 40,
        sources: 25,
        ..FlightsConfig::default()
    });
    let holo = run_holoclean(&gen, 0.3, Some(("Flight", "Source")));
    let mut ds = gen.dirty.clone();
    let cons = parse_constraints(&gen.constraints_text, &mut ds).unwrap();
    let repairs = Holistic::new(cons).repair(&ds);
    let mut scratch = gen.dirty.clone();
    let report = to_report(&mut scratch, &repairs);
    let holistic = evaluate(&report, &gen.dirty, &gen.clean);
    assert!(
        holo.f1 > holistic.f1 + 0.2,
        "HoloClean {holo:?} must clearly beat Holistic {holistic:?}"
    );
}

#[test]
fn katara_high_precision_low_recall_on_hospital() {
    let gen = hospital(HospitalConfig {
        rows: 400,
        ..HospitalConfig::default()
    });
    let dict = gen.dictionary.clone().expect("hospital has a dictionary");
    let alignment = vec![
        ("City".to_string(), "Ext_City".to_string()),
        ("State".to_string(), "Ext_State".to_string()),
        ("ZipCode".to_string(), "Ext_Zip".to_string()),
    ];
    let repairs = Katara::new(dict, alignment).repair(&gen.dirty);
    let mut scratch = gen.dirty.clone();
    let report = to_report(&mut scratch, &repairs);
    let q = evaluate(&report, &gen.dirty, &gen.clean);
    if q.total_repairs > 0 {
        assert!(q.precision > 0.9, "KATARA must stay precise: {q:?}");
    }
    assert!(q.recall < 0.5, "KATARA's coverage is limited: {q:?}");
}

#[test]
fn katara_zero_repairs_on_physicians_format_mismatch() {
    // Table 3 footnote: "KATARA performs no repairs due to format mismatch
    // for zip code" — 9-digit zips never match the 5-digit dictionary.
    let gen = physicians(PhysiciansConfig {
        providers: 1_000,
        bad_org_rate: 0.3,
        ..PhysiciansConfig::default()
    });
    let dict = gen.dictionary.clone().unwrap();
    let alignment = vec![
        ("City".to_string(), "Ext_City".to_string()),
        ("State".to_string(), "Ext_State".to_string()),
        ("Zip".to_string(), "Ext_Zip".to_string()),
    ];
    let repairs = Katara::new(dict, alignment).repair(&gen.dirty);
    assert!(repairs.is_empty(), "format mismatch must block all repairs");
}

#[test]
fn scare_near_zero_recall_on_flights() {
    // Flights has no duplicate-free likelihood signal for SCARE.
    let gen = flights(FlightsConfig {
        flights: 25,
        sources: 15,
        ..FlightsConfig::default()
    });
    let repairs = Scare::new().repair(&gen.dirty);
    let mut scratch = gen.dirty.clone();
    let report = to_report(&mut scratch, &repairs);
    let q = evaluate(&report, &gen.dirty, &gen.clean);
    assert!(q.recall < 0.3, "SCARE without duplicates: {q:?}");
}

#[test]
fn repaired_dataset_reduces_violations() {
    let gen = hospital(HospitalConfig {
        rows: 300,
        ..HospitalConfig::default()
    });
    let outcome = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap()
        .run()
        .unwrap();
    let mut before_ds = gen.dirty.clone();
    let cons = parse_constraints(&gen.constraints_text, &mut before_ds).unwrap();
    let before = holoclean_repro::holo_constraints::find_violations(&before_ds, &cons).len();
    let mut after_ds = outcome.repaired.clone();
    let cons_after = parse_constraints(&gen.constraints_text, &mut after_ds).unwrap();
    let after = holoclean_repro::holo_constraints::find_violations(&after_ds, &cons_after).len();
    assert!(
        after < before / 2,
        "repairs must resolve most violations: {before} -> {after}"
    );
}

/// Robustness: SGD that diverges (a learning rate large enough to
/// overflow the weights) surfaces as a typed error from the one-shot
/// session — never as repairs computed from a poisoned model.
#[test]
fn diverging_learning_rate_is_a_typed_error_not_nan_repairs() {
    let gen = hospital(HospitalConfig {
        rows: 200,
        ..HospitalConfig::default()
    });
    let mut config = HoloConfig::default();
    config.learn.learning_rate = 1e308;
    let result = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .unwrap()
        .with_config(config)
        .run();
    match result {
        Err(HoloError::LearnDiverged {
            non_finite_minibatches,
            minibatches,
        }) => {
            assert!(non_finite_minibatches > 0);
            assert!(non_finite_minibatches <= minibatches);
        }
        Err(other) => panic!("expected LearnDiverged, got {other}"),
        Ok(_) => panic!("a diverged run must not produce a report"),
    }
}
