//! Violation detection.
//!
//! Finding all tuple pairs that jointly satisfy a denial constraint is the
//! quadratic bottleneck the paper works around. We use the standard
//! *blocking* trick: every two-tuple constraint in the evaluated workloads
//! carries at least one cross-tuple equality predicate `t1.A = t2.B`, so
//! tuples are hashed into blocks keyed by those attribute values and only
//! pairs within a block are verified against the remaining predicates.
//! Constraints with no equality predicate fall back to the naive pairwise
//! scan (exposed separately as [`find_violations_naive`], which is also the
//! test oracle for the blocked path).
//!
//! Detection is data-parallel over tuples on both sides
//! ([`find_violations_with_threads`]): the blocking index is built from
//! per-chunk maps merged in chunk order (every bucket keeps ascending
//! tuple order), then the probe side shards across worker threads, each
//! probe tuple's matches collected independently and concatenated in tuple
//! order — so the output is byte-identical to the sequential scan at every
//! thread count.

use crate::ast::{ConstraintId, ConstraintSet, DenialConstraint, Operand, TupleVar};
use holo_dataset::{AttrId, CellRef, Dataset, FxHashMap, Sym, TupleId};
use serde::{Deserialize, Serialize};

/// One detected violation: a constraint plus the witnessing tuple binding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Which constraint was violated.
    pub constraint: ConstraintId,
    /// Binding for `t1`.
    pub t1: TupleId,
    /// Binding for `t2` (equal to `t1` for single-tuple constraints).
    pub t2: TupleId,
    /// The cells that participate in the violated predicates. These become
    /// nodes of the conflict hypergraph.
    pub cells: Vec<CellRef>,
}

/// The cell pattern every violation of one constraint shares: the
/// attributes read on each tuple variable. Deriving it walks the
/// predicates and allocates, so a detection pass builds it once per
/// constraint and stamps each witnessing pair through it.
pub(crate) struct CellTemplate {
    constraint: ConstraintId,
    t1_attrs: Vec<AttrId>,
    /// Empty for single-tuple constraints.
    t2_attrs: Vec<AttrId>,
}

impl CellTemplate {
    pub(crate) fn new(c: &DenialConstraint, constraint: ConstraintId) -> Self {
        let (t1_attrs, mut t2_attrs) = c.attrs_by_tuple();
        if !c.two_tuple {
            t2_attrs.clear();
        }
        CellTemplate {
            constraint,
            t1_attrs,
            t2_attrs,
        }
    }

    /// The violation witnessed by `(t1, t2)`: `t1`'s cells in predicate
    /// order, then `t2`'s. A two-tuple constraint is never violated by a
    /// self-pair, so no cell is named twice; single-tuple constraints pass
    /// `t1 == t2`.
    pub(crate) fn violation(&self, t1: TupleId, t2: TupleId) -> Violation {
        debug_assert!(self.t2_attrs.is_empty() || t1 != t2);
        let cell_of = |tuple: TupleId| move |&attr: &AttrId| CellRef { tuple, attr };
        // Both halves report an exact length, so `cells` is sized once.
        let t2_cells = self.t2_attrs.iter().map(cell_of(t2));
        Violation {
            constraint: self.constraint,
            t1,
            t2,
            cells: self
                .t1_attrs
                .iter()
                .map(cell_of(t1))
                .chain(t2_cells)
                .collect(),
        }
    }
}

/// Finds all violations of every constraint, using equality-predicate
/// blocking for two-tuple constraints.
///
/// For symmetric constraints each unordered pair is reported once (with
/// `t1 < t2`); asymmetric constraints report the orientation(s) that
/// actually violate.
pub fn find_violations(ds: &Dataset, constraints: &ConstraintSet) -> Vec<Violation> {
    find_violations_with_threads(ds, constraints, 1)
}

/// [`find_violations`] with the probe scan sharded over up to `threads`
/// worker threads (`0` = all cores). The result is identical to the
/// sequential scan for every thread count.
pub fn find_violations_with_threads(
    ds: &Dataset,
    constraints: &ConstraintSet,
    threads: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, c) in constraints.iter() {
        find_constraint_violations_with_threads(ds, c, id, threads, &mut out);
    }
    out
}

/// Finds violations of a single constraint, appending to `out`.
pub fn find_constraint_violations(
    ds: &Dataset,
    c: &DenialConstraint,
    id: ConstraintId,
    out: &mut Vec<Violation>,
) {
    find_constraint_violations_with_threads(ds, c, id, 1, out);
}

/// Finds violations of a single constraint with a thread budget, appending
/// to `out` in canonical (probe-tuple-major) order.
pub fn find_constraint_violations_with_threads(
    ds: &Dataset,
    c: &DenialConstraint,
    id: ConstraintId,
    threads: usize,
    out: &mut Vec<Violation>,
) {
    let template = CellTemplate::new(c, id);
    if !c.two_tuple {
        let tuples: Vec<TupleId> = ds.tuples().collect();
        // Per-tuple work here is one predicate evaluation — far below the
        // spawn-overhead break-even — so small inputs run sequentially.
        let threads = holo_parallel::sized_threads(threads, tuples.len());
        out.extend(holo_parallel::parallel_chunks(
            threads,
            &tuples,
            |_, chunk| {
                chunk
                    .iter()
                    .filter(|&&t| c.violated_by(ds, t, t))
                    .map(|&t| template.violation(t, t))
                    .collect()
            },
        ));
        return;
    }

    // Collect the blocking key: for each cross-tuple equality predicate,
    // the attribute read on the t1 side and on the t2 side.
    let eq_keys: Vec<(AttrId, AttrId)> = c
        .predicates
        .iter()
        .filter(|p| p.is_cross_tuple_eq())
        .map(|p| {
            let rhs_attr = match p.rhs {
                Operand::Cell(_, a) => a,
                Operand::Const(_) => unreachable!("is_cross_tuple_eq guarantees a cell rhs"),
            };
            match p.lhs_tuple {
                TupleVar::T1 => (p.lhs_attr, rhs_attr),
                TupleVar::T2 => (rhs_attr, p.lhs_attr),
            }
        })
        .collect();

    if eq_keys.is_empty() {
        naive_constraint_violations(ds, c, &template, threads, out);
        return;
    }

    let symmetric = c.is_symmetric();

    // Build phase: block tuples by their t2-side key. Sharded like
    // `CooccurStats::build_with_threads` — each chunk of tuples builds a
    // local map, and the local maps merge in chunk order, so every
    // bucket's tuple list comes out in ascending tuple order exactly as
    // the sequential scan produced it.
    let tuples: Vec<TupleId> = ds.tuples().collect();
    // Build and probe both do O(key width) work per tuple: on inputs of a
    // few thousand rows spawn overhead dominates (the bench snapshot had
    // `blocked_threads_all` *slower* than sequential `blocked` on the
    // hospital table), so small inputs take the inline path.
    let threads = holo_parallel::sized_threads(threads, tuples.len());
    let chunk_maps = holo_parallel::parallel_chunks(threads, &tuples, |_, chunk| {
        let mut local: FxHashMap<Vec<Sym>, Vec<TupleId>> = FxHashMap::default();
        'tuple: for &t in chunk {
            let mut key = Vec::with_capacity(eq_keys.len());
            for &(_, a2) in &eq_keys {
                let v = ds.cell(t, a2);
                if v.is_null() {
                    // A null key cell can never satisfy the equality
                    // predicate.
                    continue 'tuple;
                }
                key.push(v);
            }
            local.entry(key).or_default().push(t);
        }
        vec![local]
    });
    // The first chunk's map seeds the merge, so the sequential path
    // (one chunk) takes its finished index verbatim.
    let mut chunk_maps = chunk_maps.into_iter();
    let mut blocks: FxHashMap<Vec<Sym>, Vec<TupleId>> = chunk_maps.next().unwrap_or_default();
    for local in chunk_maps {
        for (key, mut ts) in local {
            blocks.entry(key).or_default().append(&mut ts);
        }
    }

    // Probe phase: each probe tuple's bucket scan is independent, so the
    // probe side shards cleanly; chunk results concatenate in probe-tuple
    // order. Chunk-level (not per-item) so the probe-key scratch buffer is
    // allocated once per worker, as the sequential loop did.
    out.extend(holo_parallel::parallel_chunks(
        threads,
        &tuples,
        |_, chunk| {
            let mut found = Vec::new();
            let mut probe_key = Vec::with_capacity(eq_keys.len());
            'probe: for &t1 in chunk {
                probe_key.clear();
                for &(a1, _) in &eq_keys {
                    let v = ds.cell(t1, a1);
                    if v.is_null() {
                        continue 'probe;
                    }
                    probe_key.push(v);
                }
                let Some(bucket) = blocks.get(probe_key.as_slice()) else {
                    continue;
                };
                for &t2 in bucket {
                    if t1 == t2 {
                        continue;
                    }
                    if symmetric && t1 > t2 {
                        // Each unordered pair once for swap-invariant
                        // constraints.
                        continue;
                    }
                    if c.violated_by(ds, t1, t2) {
                        found.push(template.violation(t1, t2));
                    }
                }
            }
            found
        },
    ));
}

fn naive_constraint_violations(
    ds: &Dataset,
    c: &DenialConstraint,
    template: &CellTemplate,
    threads: usize,
    out: &mut Vec<Violation>,
) {
    let symmetric = c.is_symmetric();
    let tuples: Vec<TupleId> = ds.tuples().collect();
    out.extend(holo_parallel::parallel_flat_map(
        threads,
        &tuples,
        |_, &t1| {
            let mut found = Vec::new();
            for &t2 in &tuples {
                if t1 == t2 || (symmetric && t1 > t2) {
                    continue;
                }
                if c.violated_by(ds, t1, t2) {
                    found.push(template.violation(t1, t2));
                }
            }
            found
        },
    ));
}

/// Reference implementation: enumerate all ordered tuple pairs. Quadratic;
/// used as a correctness oracle in tests and small benchmarks.
pub fn find_violations_naive(ds: &Dataset, constraints: &ConstraintSet) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, c) in constraints.iter() {
        let template = CellTemplate::new(c, id);
        if !c.two_tuple {
            for t in ds.tuples() {
                if c.violated_by(ds, t, t) {
                    out.push(template.violation(t, t));
                }
            }
        } else {
            naive_constraint_violations(ds, c, &template, 1, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraints;
    use holo_dataset::Schema;
    use proptest::prelude::*;

    fn food_like() -> (Dataset, ConstraintSet) {
        let mut ds = Dataset::new(Schema::new(vec!["DBAName", "Zip", "City", "State"]));
        ds.push_row(&["John Veliotis Sr.", "60609", "Chicago", "IL"]); // t0
        ds.push_row(&["John Veliotis Sr.", "60608", "Chicago", "IL"]); // t1
        ds.push_row(&["John Veliotis Sr.", "60608", "Chicago", "IL"]); // t2
        ds.push_row(&["Johnnyo's", "60609", "Cicago", "IL"]); // t3
        let cons =
            parse_constraints("FD: DBAName -> Zip\nFD: Zip -> City, State", &mut ds).unwrap();
        (ds, cons)
    }

    #[test]
    fn detects_fd_violations() {
        let (ds, cons) = food_like();
        let v = find_violations(&ds, &cons);
        // DBAName→Zip: the three "John Veliotis Sr." rows disagree (60609 vs
        // 60608 twice) → pairs (0,1), (0,2).
        let c0: Vec<_> = v.iter().filter(|x| x.constraint == 0).collect();
        assert_eq!(c0.len(), 2);
        // Zip→City: 60609 maps to Chicago (t0) and Cicago (t3) → pair (0,3).
        let c1: Vec<_> = v.iter().filter(|x| x.constraint == 1).collect();
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].t1, TupleId(0));
        assert_eq!(c1[0].t2, TupleId(3));
        // Zip→State: no violations, all IL.
        assert!(v.iter().all(|x| x.constraint != 2));
    }

    #[test]
    fn violation_cells_cover_predicate_attrs() {
        let (ds, cons) = food_like();
        let v = find_violations(&ds, &cons);
        let zip = ds.schema().attr_id("Zip").unwrap();
        let city = ds.schema().attr_id("City").unwrap();
        let zip_city = v.iter().find(|x| x.constraint == 1).unwrap();
        assert!(zip_city.cells.contains(&CellRef {
            tuple: TupleId(0),
            attr: zip
        }));
        assert!(zip_city.cells.contains(&CellRef {
            tuple: TupleId(3),
            attr: city
        }));
        assert_eq!(zip_city.cells.len(), 4);
    }

    #[test]
    fn blocked_matches_naive() {
        let (ds, cons) = food_like();
        let mut blocked = find_violations(&ds, &cons);
        let mut naive = find_violations_naive(&ds, &cons);
        blocked.sort_by_key(|v| (v.constraint, v.t1, v.t2));
        naive.sort_by_key(|v| (v.constraint, v.t1, v.t2));
        assert_eq!(blocked, naive);
    }

    #[test]
    fn single_tuple_constraint() {
        let mut ds = Dataset::new(Schema::new(vec!["State"]));
        ds.push_row(&["IL"]);
        ds.push_row(&["XX"]);
        ds.push_row(&["XX"]);
        let cons = parse_constraints("t1&EQ(t1.State,\"XX\")", &mut ds).unwrap();
        let v = find_violations(&ds, &cons);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.t1 == x.t2));
    }

    #[test]
    fn null_key_cells_never_block_or_violate() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["", "Chicago"]);
        ds.push_row(&["", "Boston"]);
        ds.push_row(&["60608", "Chicago"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        assert!(find_violations(&ds, &cons).is_empty());
    }

    #[test]
    fn asymmetric_constraint_reports_correct_orientation() {
        let mut ds = Dataset::new(Schema::new(vec!["k", "v"]));
        ds.push_row(&["a", "2"]);
        ds.push_row(&["a", "1"]);
        // ¬(t1.k = t2.k ∧ t1.v < t2.v): violated by binding t1=row1, t2=row0.
        let cons = parse_constraints("t1&t2&EQ(t1.k,t2.k)&LT(t1.v,t2.v)", &mut ds).unwrap();
        let v = find_violations(&ds, &cons);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].t1, v[0].t2), (TupleId(1), TupleId(0)));
    }

    #[test]
    fn empty_inputs() {
        let ds = Dataset::new(Schema::new(vec!["a"]));
        let cons = ConstraintSet::new();
        assert!(find_violations(&ds, &cons).is_empty());
    }

    /// The sharded probe scan is byte-identical to the sequential one at
    /// every thread count — including output order, not just content.
    #[test]
    fn threaded_detection_identical_to_sequential() {
        let mut ds = Dataset::new(Schema::new(vec!["DBAName", "Zip", "City", "State"]));
        // Enough rows that the parallel cutoff actually engages.
        for i in 0..200 {
            ds.push_row(&[
                format!("biz{}", i % 17),
                format!("606{:02}", i % 13),
                format!("city{}", i % 7),
                "IL".to_string(),
            ]);
        }
        let cons = parse_constraints(
            "FD: DBAName -> Zip\nFD: Zip -> City, State\nt1&EQ(t1.State,\"XX\")",
            &mut ds,
        )
        .unwrap();
        let sequential = find_violations_with_threads(&ds, &cons, 1);
        assert!(!sequential.is_empty(), "test data must violate something");
        for threads in [2, 3, 8] {
            assert_eq!(
                find_violations_with_threads(&ds, &cons, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    proptest! {
        /// The blocked detector agrees with the quadratic oracle on random
        /// datasets and FD constraints.
        #[test]
        fn prop_blocked_equals_naive(
            rows in proptest::collection::vec((0u8..5, 0u8..5, 0u8..3), 0..40)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "State"]));
            for (z, c, s) in &rows {
                ds.push_row(&[format!("z{z}"), format!("c{c}"), format!("s{s}")]);
            }
            let cons = parse_constraints(
                "FD: Zip -> City\nFD: City, State -> Zip",
                &mut ds,
            ).unwrap();
            let mut blocked = find_violations(&ds, &cons);
            let mut naive = find_violations_naive(&ds, &cons);
            blocked.sort_by_key(|v| (v.constraint, v.t1, v.t2));
            naive.sort_by_key(|v| (v.constraint, v.t1, v.t2));
            prop_assert_eq!(blocked, naive);
        }

        /// Violations come in with t1 < t2 for symmetric constraints.
        #[test]
        fn prop_symmetric_canonical_order(
            rows in proptest::collection::vec((0u8..4, 0u8..4), 0..30)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
            for (z, c) in &rows {
                ds.push_row(&[format!("z{z}"), format!("c{c}")]);
            }
            let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
            for v in find_violations(&ds, &cons) {
                prop_assert!(v.t1 < v.t2);
            }
        }
    }
}
