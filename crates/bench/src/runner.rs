//! Runs one repair system over one generated dataset and scores it.

use holo_baselines::scare::ScareConfig;
use holo_baselines::{to_report, Holistic, Katara, RepairSystem, Scare};
use holo_constraints::parse_constraints;
use holo_datagen::{DatasetKind, GeneratedDataset};
use holo_dataset::TupleId;
use holo_external::MatchingDependency;
use holoclean::{evaluate, HoloClean, HoloConfig, HoloError, RepairQuality, Session, StageTimings};
use std::time::{Duration, Instant};

/// Outcome of a HoloClean run.
#[derive(Debug)]
pub struct HoloOutcome {
    /// Repair quality vs ground truth.
    pub quality: RepairQuality,
    /// Stage timings.
    pub timings: StageTimings,
    /// The repair report (for Fig. 6 bucketing).
    pub report: holoclean::RepairReport,
    /// Model-shape diagnostics.
    pub model: holoclean::compile::CompileStats,
    /// Learning diagnostics (when any evidence existed).
    pub learn_stats: Option<holo_factor::LearnStats>,
    /// Detected violations / noisy cells (Table 2 columns).
    pub violations: usize,
    /// Number of noisy cells.
    pub noisy_cells: usize,
}

/// Runs HoloClean over a generated dataset. `config.tau` defaults to the
/// per-dataset value of Table 3 if `tau_override` is `None`; the Flights
/// dataset automatically enables source features (§6.1: "Source-related
/// features are only available for Flights").
pub fn run_holoclean(
    gen: &GeneratedDataset,
    config: HoloConfig,
    tau_override: Option<f64>,
    with_dictionary: bool,
) -> HoloOutcome {
    let (outcome, _, _) = run_holoclean_full(gen, config, tau_override, with_dictionary);
    outcome
}

/// [`run_holoclean`] with model introspection (compiled model + learned
/// weights).
pub fn run_holoclean_full(
    gen: &GeneratedDataset,
    mut config: HoloConfig,
    tau_override: Option<f64>,
    with_dictionary: bool,
) -> (
    HoloOutcome,
    holoclean::compile::CompiledModel,
    holo_factor::Weights,
) {
    config.tau = tau_override.unwrap_or_else(|| gen.kind.paper_tau());
    let mut session = HoloClean::new(gen.dirty.clone())
        .with_constraint_text(&gen.constraints_text)
        .expect("generated constraints parse")
        .with_config(with_sources(gen, config));
    if with_dictionary {
        if let Some(dict) = &gen.dictionary {
            let zip_col = if gen.dirty.schema().attr_id("Zip").is_some() {
                "Zip"
            } else {
                "ZipCode"
            };
            session = session.with_dictionary(dict.clone(), address_dependencies_for(zip_col));
        }
    }
    let (outcome, model, weights) = session.run_full().expect("holoclean run");
    let quality = evaluate(&outcome.report, &outcome.dataset, &gen.clean);
    (
        HoloOutcome {
            quality,
            timings: outcome.timings,
            report: outcome.report,
            model: outcome.model,
            learn_stats: outcome.learn_stats,
            violations: outcome.violations,
            noisy_cells: outcome.noisy_cells,
        },
        model,
        weights,
    )
}

/// §6.1: "Source-related features are only available for Flights".
fn with_sources(gen: &GeneratedDataset, config: HoloConfig) -> HoloConfig {
    if gen.kind == DatasetKind::Flights {
        return config.with_source("Flight", "Source");
    }
    config
}

/// Feeds `gen`'s dirty rows through a new [`Session`] in `batches`
/// batches, configured as [`run_holoclean_full`] configures a run without
/// a dictionary, and leaves the reading to the caller. With `crud`, every
/// batch is corrupted on entry — its first row mangled, a decoy row
/// appended — and healed with a delete and an update, so the live rows end
/// equal to a plain feed's.
pub fn stream_feed(
    gen: &GeneratedDataset,
    mut config: HoloConfig,
    batches: usize,
    crud: bool,
) -> Result<Session, HoloError> {
    config.tau = gen.kind.paper_tau();
    let (ds, text) = (&gen.dirty, &gen.constraints_text);
    let mut session = Session::new(ds.schema().clone(), text, with_sources(gen, config))?;
    let row = |t| {
        ds.row(t)
            .iter()
            .map(|&v| ds.value_str(v).to_string())
            .collect()
    };
    let rows: Vec<Vec<String>> = ds.tuples().map(row).collect();
    for chunk in rows.chunks(rows.len().div_ceil(batches.max(1))) {
        if !crud {
            session.push_batch(chunk)?;
            continue;
        }
        let base = session.dataset().tuple_count() as u32;
        let mut staged = chunk.to_vec();
        staged[0][0].push_str("~typo");
        let decoy = (0..ds.schema().len()).map(|a| format!("~decoy{a}"));
        staged.push(decoy.collect());
        session.push_batch(&staged)?;
        session.push_deletes(&[TupleId(base + chunk.len() as u32)])?;
        session.push_updates(&[(TupleId(base), chunk[0].clone())])?;
    }
    Ok(session)
}

/// The matching dependencies m1/m2 of Figure 1(C) against the national
/// zip dictionary, with the dataset's zip column name (Hospital calls it
/// `ZipCode`). The paper's m3 needs the *address* in its antecedent —
/// `(City, State) → Zip` alone is one-to-many (Chicago spans 40 zips) and
/// would flood cells with contradictory assertions — and the national
/// dictionary carries no addresses, so m3 is omitted here.
pub fn address_dependencies_for(zip_col: &str) -> Vec<MatchingDependency> {
    vec![
        MatchingDependency::equalities(
            "m1: zip=>city",
            &[(zip_col, "Ext_Zip")],
            ("City", "Ext_City"),
        ),
        MatchingDependency::equalities(
            "m2: zip=>state",
            &[(zip_col, "Ext_Zip")],
            ("State", "Ext_State"),
        ),
    ]
}

/// Outcome of a baseline run.
#[derive(Debug)]
pub struct BaselineOutcome {
    /// Quality (zeroed when the system did not finish).
    pub quality: RepairQuality,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Whether the system exceeded its budget (SCARE's "did not
    /// terminate" of Tables 3/4).
    pub dnf: bool,
    /// Whether the system is applicable at all (KATARA without a
    /// dictionary is "n/a").
    pub applicable: bool,
}

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Holistic (ICDE'13).
    Holistic,
    /// KATARA (SIGMOD'15).
    Katara,
    /// SCARE (SIGMOD'13).
    Scare,
}

impl Baseline {
    /// Table-header name.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Holistic => "Holistic",
            Baseline::Katara => "KATARA",
            Baseline::Scare => "SCARE",
        }
    }

    /// All three, in the paper's column order.
    pub fn all() -> [Baseline; 3] {
        [Baseline::Holistic, Baseline::Katara, Baseline::Scare]
    }
}

/// Runs one baseline system over a generated dataset.
pub fn run_baseline(
    gen: &GeneratedDataset,
    which: Baseline,
    scare_budget: Duration,
) -> BaselineOutcome {
    let start = Instant::now();
    let mut dirty = gen.dirty.clone();
    let (repairs, dnf, applicable) = match which {
        Baseline::Holistic => {
            let mut ds = gen.dirty.clone();
            let cons = parse_constraints(&gen.constraints_text, &mut ds)
                .expect("generated constraints parse");
            let mut sys = Holistic::new(cons);
            (sys.repair(&ds), false, true)
        }
        Baseline::Katara => match &gen.dictionary {
            Some(dict) => {
                let zip_col = if gen.dirty.schema().attr_id("Zip").is_some() {
                    "Zip"
                } else {
                    "ZipCode"
                };
                let alignment = vec![
                    ("City".to_string(), "Ext_City".to_string()),
                    ("State".to_string(), "Ext_State".to_string()),
                    (zip_col.to_string(), "Ext_Zip".to_string()),
                ];
                let mut sys = Katara::new(dict.clone(), alignment);
                (sys.repair(&gen.dirty), false, true)
            }
            None => (Vec::new(), false, false),
        },
        Baseline::Scare => {
            let mut sys = Scare::new().with_config(ScareConfig {
                budget: Some(scare_budget),
                ..ScareConfig::default()
            });
            let repairs = sys.repair(&gen.dirty);
            let dnf = sys.timed_out;
            (if dnf { Vec::new() } else { repairs }, dnf, true)
        }
    };
    let runtime = start.elapsed();
    let quality = if dnf || !applicable {
        RepairQuality::default()
    } else {
        let report = to_report(&mut dirty, &repairs);
        evaluate(&report, &gen.dirty, &gen.clean)
    };
    BaselineOutcome {
        quality,
        runtime,
        dnf,
        applicable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{build, Scale};

    fn tiny(kind: DatasetKind) -> GeneratedDataset {
        build(
            kind,
            Scale {
                factor: 0.2,
                seed: 3,
                full: false,
            },
        )
    }

    #[test]
    fn holoclean_beats_zero_on_hospital() {
        let gen = tiny(DatasetKind::Hospital);
        let out = run_holoclean(&gen, HoloConfig::default(), None, false);
        assert!(out.quality.f1 > 0.5, "quality = {:?}", out.quality);
        assert!(out.violations > 0);
    }

    #[test]
    fn baselines_run_on_hospital() {
        let gen = tiny(DatasetKind::Hospital);
        for b in Baseline::all() {
            let out = run_baseline(&gen, b, Duration::from_secs(60));
            assert!(out.applicable, "{b:?}");
            assert!(!out.dnf, "{b:?}");
        }
    }

    #[test]
    fn katara_not_applicable_on_flights() {
        let gen = tiny(DatasetKind::Flights);
        let out = run_baseline(&gen, Baseline::Katara, Duration::from_secs(60));
        assert!(!out.applicable);
    }
}
