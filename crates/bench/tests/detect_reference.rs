//! Acceptance check for the compiled violation scan on the generated
//! datasets the benchmark workloads are cut from: at every thread count
//! the detector returns exactly — elements and order — what the loop it
//! replaced returned, restated here over the public API alone (block by
//! the cross-tuple equality predicates, then `violated_by` on every
//! same-key pair) — every constraint of these generators is an FD, so this
//! is the grouped path end to end — and the list-free detector returns
//! that list's cells — as a `CellSet` equal to `noisy_cells` of the list,
//! iterated in ascending cell order — and its length. Also pins the `Violation` footprint the
//! change was made for.

use holo_constraints::{
    find_noisy_cells_with_threads, find_violations_with_threads, noisy_cells, parse_constraints,
    ConstraintSet, Operand, TupleVar, Violation,
};
use holo_datagen::{
    food, hospital, physicians, FoodConfig, GeneratedDataset, HospitalConfig, PhysiciansConfig,
};
use holo_dataset::{AttrId, CellRef, Dataset, FxHashMap, Sym, TupleId};

/// `(constraint, t1, t2, cells)` of every violation, in detection order.
type Flat = Vec<(usize, TupleId, TupleId, Vec<CellRef>)>;

fn interpreted(ds: &Dataset, constraints: &ConstraintSet) -> Flat {
    let mut out = Flat::new();
    for (id, c) in constraints.iter() {
        let (t1_attrs, t2_attrs) = c.attrs_by_tuple();
        let mut emit = |t1: TupleId, t2: TupleId| {
            let cells_of = |tuple, attrs: &[AttrId]| -> Vec<CellRef> {
                attrs.iter().map(|&attr| CellRef { tuple, attr }).collect()
            };
            let mut cells = cells_of(t1, &t1_attrs);
            if c.two_tuple {
                cells.extend(cells_of(t2, &t2_attrs));
            }
            out.push((id, t1, t2, cells));
        };
        if !c.two_tuple {
            for t in ds.tuples().filter(|&t| c.violated_by(ds, t, t)) {
                emit(t, t);
            }
            continue;
        }
        let keys: Vec<(AttrId, AttrId)> = c
            .predicates
            .iter()
            .filter(|p| p.is_cross_tuple_eq())
            .map(|p| match (p.lhs_tuple, p.rhs) {
                (TupleVar::T1, Operand::Cell(_, rhs)) => (p.lhs_attr, rhs),
                (TupleVar::T2, Operand::Cell(_, rhs)) => (rhs, p.lhs_attr),
                (_, Operand::Const(_)) => unreachable!("a cross-tuple equality compares cells"),
            })
            .collect();
        assert!(!keys.is_empty(), "every generated constraint has a join");
        let key_of = |t: TupleId, side: fn(&(AttrId, AttrId)) -> AttrId| {
            let key: Vec<Sym> = keys.iter().map(|pair| ds.cell(t, side(pair))).collect();
            key.iter().all(|v| !v.is_null()).then_some(key)
        };
        let mut blocks: FxHashMap<Vec<Sym>, Vec<TupleId>> = FxHashMap::default();
        for t in ds.tuples() {
            if let Some(key) = key_of(t, |pair| pair.1) {
                blocks.entry(key).or_default().push(t);
            }
        }
        let symmetric = c.is_symmetric();
        for t1 in ds.tuples() {
            let bucket = key_of(t1, |pair| pair.0).and_then(|key| blocks.get(&key));
            for &t2 in bucket.into_iter().flatten() {
                if t1 != t2 && !(symmetric && t1 > t2) && c.violated_by(ds, t1, t2) {
                    emit(t1, t2);
                }
            }
        }
    }
    out
}

fn flat(violations: &[Violation]) -> Flat {
    violations
        .iter()
        .map(|v| (v.constraint, v.t1, v.t2, v.cells.to_vec()))
        .collect()
}

fn assert_detector_equals_interpreter(mut gen: GeneratedDataset) {
    let name = gen.kind.name();
    let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty).unwrap();
    let want = interpreted(&gen.dirty, &cons);
    assert!(
        !want.is_empty(),
        "{name}: the dirty table violates something"
    );
    for threads in [1, 2, 4] {
        let got = find_violations_with_threads(&gen.dirty, &cons, threads);
        assert!(flat(&got) == want, "{name}, threads = {threads}");
        let (cells, count) = find_noisy_cells_with_threads(&gen.dirty, &cons, threads);
        assert!(
            cells == noisy_cells(&got) && count == got.len(),
            "{name}, list-free, threads = {threads}"
        );
        let mut named: Vec<CellRef> = got.iter().flat_map(|v| v.cells.to_vec()).collect();
        named.sort_unstable();
        named.dedup();
        assert!(
            cells.iter().eq(named),
            "{name}, sorted cells, threads = {threads}"
        );
    }
}

#[test]
fn hospital_detection_equals_the_interpreted_loop() {
    assert_detector_equals_interpreter(hospital(HospitalConfig {
        rows: 1000,
        ..HospitalConfig::default()
    }));
}

#[test]
fn food_detection_equals_the_interpreted_loop() {
    assert_detector_equals_interpreter(food(FoodConfig {
        establishments: 300,
        ..FoodConfig::default()
    }));
}

/// 2100 providers are 4200 rows — past the 4096-tuple cutoff below which
/// detection never leaves the calling thread, so the 2- and 4-thread runs
/// here really build indexes and probe on workers.
#[test]
fn physicians_detection_equals_the_interpreted_loop() {
    assert_detector_equals_interpreter(physicians(PhysiciansConfig {
        providers: 2100,
        ..PhysiciansConfig::default()
    }));
}

/// What step 4 of the change bought: a violation is at most what it was
/// with its heap block (40 B + 32 B of cells), and the four cells of a
/// single-attribute FD violation live inside it.
#[test]
fn an_fd_violation_is_one_flat_value() {
    assert!(std::mem::size_of::<Violation>() <= 72);
    let mut ds = Dataset::new(holo_dataset::Schema::new(vec!["Zip", "City"]));
    ds.push_row(&["60608", "Chicago"]);
    ds.push_row(&["60608", "Cicago"]);
    let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
    let violations = find_violations_with_threads(&ds, &cons, 1);
    let [v] = violations.as_slice() else {
        panic!("one violating pair")
    };
    assert_eq!(v.cells.len(), 4);
    let start = v as *const Violation as usize;
    let inside = start..start + std::mem::size_of::<Violation>();
    assert!(
        inside.contains(&(v.cells.as_ptr() as usize)),
        "four cells must not spill to the heap"
    );
}
