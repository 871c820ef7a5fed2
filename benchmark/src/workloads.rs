//! The five workloads: how each input is generated from the seed, and the
//! two ways a repair is driven (one-shot `HoloClean::run`, or a 16-batch
//! CRUD feed through `StreamSession`). The program under test only ever
//! sees the generated CSV text, constraint text and dictionary.

use crate::trace::Tracer;
use holo_datagen::{
    food, hospital, physicians, DatasetKind, FoodConfig, GeneratedDataset, HospitalConfig,
    PhysiciansConfig,
};
use holo_dataset::{csv, Dataset, Schema, TupleId};
use holo_external::{ExtDict, MatchingDependency};
use holoclean::{HoloClean, HoloConfig, ModelVariant, RepairReport, StreamSession};

/// Batches a CRUD feed is split into.
pub const CRUD_BATCHES: usize = 16;

/// One named workload. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: DatasetKind,
    /// Ground the denial constraints as clique factors
    /// (`ModelVariant::DcFactorsPartitioned`), the only model on which the
    /// exact and Gibbs engines run at all.
    pub dc_factors: bool,
    /// Register the zip dictionary with the m1/m2 matching dependencies.
    pub dictionary: bool,
    /// Feed the rows through `StreamSession` instead of `HoloClean::run`.
    pub crud: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    // Learn-bound: the paper-size hospital table every past PR quoted.
    Workload {
        name: "hospital_1k",
        kind: DatasetKind::Hospital,
        dc_factors: false,
        dictionary: false,
        crud: false,
    },
    // Compile-bound, per-noisy-cell work; all three of the paper's signals.
    Workload {
        name: "food_18k",
        kind: DatasetKind::Food,
        dc_factors: false,
        dictionary: true,
        crud: false,
    },
    // Per-row work: many violations, few noisy cells.
    Workload {
        name: "physicians_20k",
        kind: DatasetKind::Physicians,
        dc_factors: false,
        dictionary: false,
        crud: false,
    },
    // Inference-bound: the three other one-shot workloads are its bypass.
    Workload {
        name: "hospital_1k_dcfactors",
        kind: DatasetKind::Hospital,
        dc_factors: true,
        dictionary: false,
        crud: false,
    },
    // Writes beside reads: the same layers through extend/retract/patch.
    Workload {
        name: "hospital_1k_crud16",
        kind: DatasetKind::Hospital,
        dc_factors: false,
        dictionary: false,
        crud: true,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// Everything a repair reads, in memory. Building one is the benchmark's
/// set-up: generate the dataset, serialise it to CSV text, build the
/// dictionary.
pub struct Input {
    pub csv: String,
    pub constraints: String,
    pub dictionary: Option<(ExtDict, Vec<MatchingDependency>)>,
    pub tau: f64,
    /// Compile under `ModelVariant::DcFactorsPartitioned` instead of the
    /// default relaxed model.
    pub dc_factors: bool,
    /// The generator's ground truth, for `evaluate`.
    pub clean: Dataset,
    pub rows: usize,
}

impl Workload {
    /// Generates the input from `seed`. `smoke` shrinks every generator to
    /// a tenth, for `--smoke` and the tests.
    pub fn input(&self, seed: u64, smoke: bool) -> Input {
        let scale = |n: usize| if smoke { n / 10 } else { n };
        let gen: GeneratedDataset = match self.kind {
            DatasetKind::Hospital => hospital(HospitalConfig {
                rows: scale(1_000),
                seed,
                ..HospitalConfig::default()
            }),
            DatasetKind::Food => food(FoodConfig {
                establishments: scale(2_000),
                seed,
                ..FoodConfig::default()
            }),
            DatasetKind::Physicians => physicians(PhysiciansConfig {
                providers: scale(10_000),
                seed,
                ..PhysiciansConfig::default()
            }),
            DatasetKind::Flights => unreachable!("no workload uses the flights generator"),
        };
        let dictionary = self.dictionary.then(|| {
            let dict = gen.dictionary.clone().expect("food ships a dictionary");
            (dict, zip_dependencies())
        });
        Input {
            csv: csv::to_csv_string(&gen.dirty),
            constraints: gen.constraints_text,
            dictionary,
            tau: gen.kind.paper_tau(),
            dc_factors: self.dc_factors,
            rows: gen.dirty.tuple_count(),
            clean: gen.clean,
        }
    }

    /// One repair, inputs in memory to `RepairReport`, untraced.
    pub fn repair(&self, input: &Input, threads: usize) -> Result<RepairReport, String> {
        if self.crud {
            crud_feed(input, threads, None)
        } else {
            one_shot(input, threads)
        }
    }
}

/// The matching dependencies m1/m2 of the paper's Figure 1(C) against the
/// national zip dictionary (the pair `crates/bench` registers for food).
fn zip_dependencies() -> Vec<MatchingDependency> {
    vec![
        MatchingDependency::equalities(
            "m1: zip=>city",
            &[("Zip", "Ext_Zip")],
            ("City", "Ext_City"),
        ),
        MatchingDependency::equalities(
            "m2: zip=>state",
            &[("Zip", "Ext_Zip")],
            ("State", "Ext_State"),
        ),
    ]
}

impl Input {
    pub fn config(&self, threads: usize) -> HoloConfig {
        let config = HoloConfig::default()
            .with_tau(self.tau)
            .with_threads(threads);
        if self.dc_factors {
            config.with_variant(ModelVariant::DcFactorsPartitioned)
        } else {
            config
        }
    }
}

/// CSV parse + DC parse + `HoloClean::run`.
pub fn one_shot(input: &Input, threads: usize) -> Result<RepairReport, String> {
    let ds = csv::parse_dataset(&input.csv).map_err(|e| e.to_string())?;
    let mut session = HoloClean::new(ds)
        .with_constraint_text(&input.constraints)
        .map_err(|e| e.to_string())?
        .with_config(input.config(threads));
    if let Some((dict, deps)) = &input.dictionary {
        session = session.with_dictionary(dict.clone(), deps.clone());
    }
    session.run().map(|o| o.report).map_err(|e| e.to_string())
}

/// The rows through `StreamSession` in [`CRUD_BATCHES`] batches, each
/// corrupted on entry (its first row mangled, a decoy row appended) and
/// healed with `push_deletes` + `push_updates`, then `report()` — the
/// drive of `dump_repairs --stream 16 --crud`. The live table ends equal to
/// the input, so the report must equal the one-shot report.
///
/// With a tracer, the feed is one root span with one child per session
/// call; without, nothing is timed inside.
pub fn crud_feed(
    input: &Input,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<RepairReport, String> {
    // Span helper: times `f` only when a tracer is present.
    macro_rules! spanned {
        ($name:literal, $f:expr) => {{
            let id = tracer.as_deref_mut().map(|t| t.open($name));
            let out = $f;
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                t.close(id);
            }
            out
        }};
    }
    let root = tracer.as_deref_mut().map(|t| t.open("feed"));
    let mut records =
        spanned!("dataset.csv_parse", csv::parse_records(&input.csv)).map_err(|e| e.to_string())?;
    let header = records.remove(0);
    let arity = header.len();
    let mut session = spanned!(
        "stream.open",
        StreamSession::new(
            Schema::new(header),
            &input.constraints,
            input.config(threads)
        )
    )
    .map_err(|e| e.to_string())?;
    for chunk in records.chunks(records.len().div_ceil(CRUD_BATCHES).max(1)) {
        let base = session.dataset().tuple_count() as u32;
        let mut staged = chunk.to_vec();
        staged[0][0].push_str("~typo");
        staged.push((0..arity).map(|a| format!("~decoy{a}")).collect());
        spanned!("stream.push_batch", session.push_batch(&staged)).map_err(|e| e.to_string())?;
        spanned!(
            "stream.push_deletes",
            session.push_deletes(&[TupleId(base + chunk.len() as u32)])
        )
        .map_err(|e| e.to_string())?;
        spanned!(
            "stream.push_updates",
            session.push_updates(&[(TupleId(base), chunk[0].clone())])
        )
        .map_err(|e| e.to_string())?;
    }
    let report = spanned!("stream.report", session.report());
    if let (Some(t), Some(root)) = (tracer, root) {
        let ingest = session.ingest_stats();
        let design = session.design_stats();
        for (key, value) in [
            ("cells_recomputed", ingest.cells_recomputed),
            ("cells_reused", ingest.cells_reused),
            ("vars_added", ingest.vars_added),
            ("vars_retired", ingest.vars_retired),
            ("canonical_retrains", ingest.canonical_retrains),
            ("replay_minibatches", ingest.replay_minibatches),
            ("design_full_builds", design.full_builds),
            ("design_vars_patched", design.vars_patched),
            ("compactions", session.retire_stats().compactions),
        ] {
            t.count(root, key, value as f64);
        }
        t.close(root);
    }
    Ok(report)
}

/// FNV-1a over everything a report says: every repair and every posterior,
/// probabilities by their bits, so any change a round-trip-precision dump
/// would show changes the digest.
pub fn digest(report: &RepairReport) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, b: &[u8]) {
            for &x in b {
                self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn u64(&mut self, x: u64) {
            self.bytes(&x.to_le_bytes());
        }
        fn str(&mut self, s: &str) {
            self.u64(s.len() as u64);
            self.bytes(s.as_bytes());
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(report.repairs.len() as u64);
    for r in &report.repairs {
        h.u64(r.cell.tuple.index() as u64);
        h.u64(r.cell.attr.index() as u64);
        h.u64(r.old.0 as u64);
        h.u64(r.new.0 as u64);
        h.str(&r.old_value);
        h.str(&r.new_value);
        h.u64(r.probability.to_bits());
    }
    h.u64(report.posteriors.len() as u64);
    for p in &report.posteriors {
        h.u64(p.cell.tuple.index() as u64);
        h.u64(p.cell.attr.index() as u64);
        h.u64(p.candidates.len() as u64);
        for &(sym, prob) in &p.candidates {
            h.u64(sym.0 as u64);
            h.u64(prob.to_bits());
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_five_the_issue_fixed() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "hospital_1k",
                "food_18k",
                "physicians_20k",
                "hospital_1k_dcfactors",
                "hospital_1k_crud16"
            ]
        );
        assert!(find("hospital_1k_crud16").is_some_and(|w| w.crud));
        assert!(find("flights").is_none());
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let w = find("hospital_1k").unwrap();
        let a = w.input(7, true);
        let b = w.input(7, true);
        let c = w.input(8, true);
        assert_eq!(a.csv, b.csv);
        assert_ne!(a.csv, c.csv);
        assert!(
            a.rows >= 90 && a.rows <= 110,
            "a tenth of 1000 rows: {}",
            a.rows
        );
    }

    #[test]
    fn digest_sees_a_single_flipped_probability_bit() {
        let w = find("hospital_1k").unwrap();
        let input = w.input(7, true);
        let report = one_shot(&input, 1).unwrap();
        assert!(!report.posteriors.is_empty());
        let d = digest(&report);
        assert_eq!(d, digest(&one_shot(&input, 2).unwrap()), "threads 1 == 2");
        let mut flipped = report.clone();
        let p = &mut flipped.posteriors[0].candidates[0].1;
        *p = f64::from_bits(p.to_bits() ^ 1);
        assert_ne!(d, digest(&flipped));
    }

    #[test]
    fn crud_feed_equals_one_shot_traced_or_not() {
        let w = find("hospital_1k_crud16").unwrap();
        let input = w.input(7, true);
        let reference = digest(&one_shot(&input, 1).unwrap());
        assert_eq!(digest(&crud_feed(&input, 1, None).unwrap()), reference);
        let mut tracer = Tracer::new();
        assert_eq!(
            digest(&crud_feed(&input, 2, Some(&mut tracer)).unwrap()),
            reference
        );
        let calls = |name: &str| tracer.spans().iter().filter(|s| s.name == name).count();
        assert_eq!(calls("feed"), 1);
        assert_eq!(calls("stream.push_batch"), CRUD_BATCHES);
        assert_eq!(calls("stream.push_deletes"), CRUD_BATCHES);
        assert_eq!(calls("stream.push_updates"), CRUD_BATCHES);
        assert_eq!(calls("stream.report"), 1);
        let feed = tracer.find("feed").unwrap();
        assert!(feed.count("canonical_retrains") >= 1.0);
        // The stream's own invariant: one full build, plus one per compaction.
        assert_eq!(
            feed.count("design_full_builds"),
            1.0 + feed.count("compactions")
        );
    }
}
