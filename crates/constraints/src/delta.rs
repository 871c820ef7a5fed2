//! Incremental violation detection for streaming ingestion.
//!
//! The one-shot detector ([`crate::violations::find_violations`]) rebuilds
//! its blocking index and re-probes **every** tuple per run — `O(|D|)` per
//! call. A streaming engine appending small batches cannot afford that, so
//! [`DeltaViolationIndex`] keeps the blocking index **persistent** across
//! batches and, per batch, probes **only the new tuples, in both join
//! directions**:
//!
//! * *forward* — each new tuple plays `t1` against the full index (catches
//!   `(new, old)` and `(new, new)` pairs);
//! * *backward* — each new tuple plays `t2` against an index of the
//!   tuples' `t1`-side keys, restricted to old partners (catches
//!   `(old, new)` pairs without re-scanning the old side).
//!
//! Every violating pair has at least one member in some batch, and the two
//! probe directions partition the pairs by which side is new, so the union
//! of the per-batch results over a whole stream is **exactly** the
//! violation set of a one-shot scan over the final dataset (property-
//! tested below) with no duplicates. Per batch the cost is
//! `O(batch · bucket)` instead of `O(|D| · bucket)`.
//!
//! Both directions are the compiled scan of [`crate::scan`] — the
//! constraint classified once per probe role, join predicates elided, the
//! remaining predicates bound to the probe tuple — run by one helper over
//! buckets that stay plain mutable id lists (retraction and re-absorption
//! edit them in place, so nothing is packed beside them). A constraint
//! without a cross-tuple equality predicate has the empty key: one bucket
//! holding every live tuple, i.e. the pairwise scan of `new × all`.
//! Single-tuple constraints check only the new tuples.

use crate::ast::{ConstraintSet, TupleVar};
use crate::scan::{PairScan, ScanPredicate};
use crate::violations::{CellTemplate, Violation};
use holo_dataset::{AttrId, Dataset, FxHashMap, FxHashSet, Sym, TupleId};

/// Join key → tuples holding it, ascending.
type Blocks = FxHashMap<Vec<Sym>, Vec<TupleId>>;

/// Persistent blocking state of one two-tuple constraint, blocked on its
/// cross-tuple equality predicates (all live tuples in one bucket when it
/// has none).
struct PairIndex {
    /// Whether the constraint is swap-invariant (pairs canonical with
    /// `t1 < t2`).
    symmetric: bool,
    /// The scan with `t1` in hand, and the tuples by `t2`-side key it
    /// probes.
    forward: PairScan,
    t2_blocks: Blocks,
    /// The scan with `t2` in hand, and the tuples by `t1`-side key.
    backward: PairScan,
    t1_blocks: Blocks,
}

/// Writes `t`'s cells of `attrs` into `key`; `false` if one is null (such
/// a tuple joins nothing and is never indexed).
fn key_of(ds: &Dataset, t: TupleId, attrs: &[AttrId], key: &mut Vec<Sym>) -> bool {
    key.clear();
    key.extend(attrs.iter().map(|&a| ds.cell(t, a)));
    !key.iter().any(|v| v.is_null())
}

/// Persistent, incrementally-extended violation blocking index — the
/// detection substrate of the streaming engine.
///
/// Usage per batch: append the rows to the dataset, then call
/// [`DeltaViolationIndex::ingest`] with the id of the first new tuple. The
/// call extends the index with the batch and returns every violation
/// involving at least one new tuple.
pub struct DeltaViolationIndex {
    /// `None` for a single-tuple constraint: no index needed, new tuples
    /// self-check.
    per_constraint: Vec<Option<PairIndex>>,
    /// Tuples `0..indexed` are present in the blocking indexes.
    indexed: usize,
}

impl DeltaViolationIndex {
    /// An empty index for `constraints` (capture the join-key structure;
    /// no tuples indexed yet).
    pub fn new(constraints: &ConstraintSet) -> Self {
        let per_constraint = constraints
            .iter()
            .map(|(_, c)| {
                c.two_tuple.then(|| PairIndex {
                    symmetric: c.is_symmetric(),
                    forward: PairScan::new(c, TupleVar::T1),
                    t2_blocks: Blocks::default(),
                    backward: PairScan::new(c, TupleVar::T2),
                    t1_blocks: Blocks::default(),
                })
            })
            .collect();
        DeltaViolationIndex {
            per_constraint,
            indexed: 0,
        }
    }

    /// Every blocking index with the key attributes its tuples are filed
    /// under: the partner side of the scan that probes it.
    fn blocks_mut(&mut self) -> impl Iterator<Item = (&[AttrId], &mut Blocks)> {
        self.per_constraint.iter_mut().flatten().flat_map(|index| {
            [
                (index.forward.partner_key.as_slice(), &mut index.t2_blocks),
                (index.backward.partner_key.as_slice(), &mut index.t1_blocks),
            ]
        })
    }

    /// Removes the given rows' posting entries from every blocking index —
    /// the retraction path of deletes and in-place updates. Keys are
    /// recomputed from the rows' *current* cell values, so this must run
    /// while those are still the indexed ones: before an update overwrites
    /// the cells (tombstones keep values readable, so before/after a
    /// delete both work). `indexed` is a physical high-water mark and does
    /// not move — ids stay stable and ingest contiguity is untouched.
    pub fn retract(&mut self, ds: &Dataset, rows: &[TupleId]) {
        let mut key = Vec::new();
        for (attrs, blocks) in self.blocks_mut() {
            for &t in rows {
                if !key_of(ds, t, attrs, &mut key) {
                    continue;
                }
                let bucket = blocks
                    .get_mut(key.as_slice())
                    .expect("retracting a tuple whose key was never indexed");
                let pos = bucket
                    .binary_search(&t)
                    .expect("retracting a tuple absent from its bucket");
                bucket.remove(pos);
                if bucket.is_empty() {
                    blocks.remove(key.as_slice());
                }
            }
        }
    }

    /// Re-inserts the given already-ingested rows' posting entries,
    /// computing keys from their *current* cell values — the re-absorption
    /// half of an in-place update ([`DeltaViolationIndex::retract`] the
    /// old keys, overwrite the cells, absorb the new ones). Buckets are
    /// kept ascending via sorted insertion: an updated tuple's id can fall
    /// below existing bucket members, and both the backward ingest probe
    /// and retraction's binary search rely on the order.
    pub fn absorb_rows(&mut self, ds: &Dataset, rows: &[TupleId]) {
        let mut key = Vec::new();
        for (attrs, blocks) in self.blocks_mut() {
            for &t in rows {
                if !key_of(ds, t, attrs, &mut key) {
                    continue;
                }
                let bucket = blocks.entry(key.clone()).or_default();
                let pos = bucket
                    .binary_search(&t)
                    .expect_err("absorbing a tuple already present in its bucket");
                bucket.insert(pos, t);
            }
        }
    }

    /// Returns every violation of the live table involving at least one of
    /// `rows` — the re-probe of an in-place update, generalising the two
    /// ingest probe directions from "the new suffix" to an arbitrary row
    /// set `R`: *forward* runs each member of `R` as `t1` against the full
    /// index; *backward* runs each member as `t2` against the `t1`-side
    /// index restricted to partners **outside** `R` (replacing ingest's
    /// `t1 >= from` cutoff with an `R`-membership check). Together the two
    /// directions cover each violating pair with a member in `R` exactly
    /// once, and symmetric constraints keep their canonical `t1 < t2`
    /// orientation. Rows must be live and already absorbed into the index.
    pub fn probe_rows(
        &self,
        ds: &Dataset,
        constraints: &ConstraintSet,
        rows: &[TupleId],
        threads: usize,
    ) -> Vec<Violation> {
        let in_rows: FxHashSet<TupleId> = rows.iter().copied().collect();
        self.probe_both(ds, constraints, rows, threads, |t1| in_rows.contains(&t1))
    }

    /// Extends the index with the tuples `from..` of `ds` and returns all
    /// violations involving at least one of them, sharding the probe scans
    /// over up to `threads` worker threads (`0` = all cores; the result is
    /// identical at every thread count).
    ///
    /// # Panics
    /// Panics if `from` does not equal the number of already-indexed
    /// tuples — batches must arrive contiguously.
    pub fn ingest(
        &mut self,
        ds: &Dataset,
        constraints: &ConstraintSet,
        from: TupleId,
        threads: usize,
    ) -> Vec<Violation> {
        assert_eq!(
            from.index(),
            self.indexed,
            "batches must be ingested contiguously"
        );
        let new_tuples: Vec<TupleId> = (from.index()..ds.tuple_count())
            .map(|t| TupleId(t as u32))
            .collect();
        // New ids exceed every indexed one, so appending keeps the buckets
        // ascending.
        let mut key = Vec::new();
        for (attrs, blocks) in self.blocks_mut() {
            for &t in &new_tuples {
                if !key_of(ds, t, attrs, &mut key) {
                    continue;
                }
                match blocks.get_mut(key.as_slice()) {
                    Some(bucket) => bucket.push(t),
                    None => drop(blocks.insert(key.clone(), vec![t])),
                }
            }
        }
        self.indexed = ds.tuple_count();
        self.probe_both(ds, constraints, &new_tuples, threads, |t1| t1 >= from)
    }

    /// Every violation with a member in `probes`, constraint-major: each
    /// probe as `t1` against all partners, then each probe as `t2` against
    /// the partners `probed` rejects (pairs of two probes belong to the
    /// first direction). `probed` must hold for exactly the tuples of
    /// `probes`.
    fn probe_both(
        &self,
        ds: &Dataset,
        constraints: &ConstraintSet,
        probes: &[TupleId],
        threads: usize,
        probed: impl Fn(TupleId) -> bool + Sync,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for (id, c) in constraints.iter() {
            let template = CellTemplate::new(c, id);
            let Some(index) = &self.per_constraint[id] else {
                let pairs = holo_parallel::parallel_chunks(threads, probes, |_, chunk| {
                    let violating = chunk.iter().filter(|&&t| c.violated_by(ds, t, t));
                    violating.map(|&t| (t, t)).collect()
                });
                template.stamp(pairs, &mut out);
                continue;
            };
            // Forward: probe as t1 against the full t2-side index. Under a
            // symmetric constraint's canonical `t1 < t2` filter that leaves
            // every pair whose smaller member is not a probe to the
            // backward direction, so symmetric constraints need both.
            let forward = holo_parallel::parallel_chunks(threads, probes, |_, chunk| {
                let (scan, blocks) = (&index.forward, &index.t2_blocks);
                probe_pairs(
                    ds,
                    scan,
                    blocks,
                    index.symmetric,
                    TupleVar::T1,
                    chunk,
                    |_| false,
                )
            });
            template.stamp(forward, &mut out);
            let backward = holo_parallel::parallel_chunks(threads, probes, |_, chunk| {
                let (scan, blocks) = (&index.backward, &index.t1_blocks);
                probe_pairs(
                    ds,
                    scan,
                    blocks,
                    index.symmetric,
                    TupleVar::T2,
                    chunk,
                    &probed,
                )
            });
            template.stamp(backward, &mut out);
        }
        out
    }
}

/// The violating pairs `(t1, t2)` of each tuple of `chunk`, playing `role`,
/// with the members of its bucket that `skip` lets through — by ascending
/// probe, then ascending partner.
fn probe_pairs(
    ds: &Dataset,
    scan: &PairScan,
    blocks: &Blocks,
    symmetric: bool,
    role: TupleVar,
    chunk: &[TupleId],
    skip: impl Fn(TupleId) -> bool,
) -> Vec<(TupleId, TupleId)> {
    let mut found = Vec::new();
    let mut key = Vec::with_capacity(scan.probe_key.len());
    let mut bound: Vec<ScanPredicate> = Vec::new();
    for &probe in chunk {
        if !key_of(ds, probe, &scan.probe_key, &mut key) {
            continue;
        }
        let Some(bucket) = blocks.get(key.as_slice()) else {
            continue;
        };
        if !scan.admits(ds, probe) {
            continue;
        }
        // The buckets hold every tuple, so the partner-only predicates run
        // per partner, with the residuals.
        bound.clear();
        let per_partner = scan.partner_only.iter().chain(&scan.residual);
        bound.extend(per_partner.map(|p| p.bind(ds, probe, None)));
        for &partner in bucket {
            let (t1, t2) = match role {
                TupleVar::T1 => (probe, partner),
                TupleVar::T2 => (partner, probe),
            };
            if t1 == t2 || (symmetric && t1 > t2) || skip(partner) {
                continue;
            }
            let cell = |col: usize| ds.cell(partner, scan.partner_attrs[col]);
            if bound.iter().all(|p| p.holds(ds, Sym::NULL, cell)) {
                found.push((t1, t2));
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraints;
    use crate::violations::find_violations;
    use holo_dataset::Schema;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<Violation>) -> Vec<Violation> {
        v.sort_by_key(|x| (x.constraint, x.t1, x.t2));
        v
    }

    /// Streams `rows` in `batches` chunks and returns the union of the
    /// per-batch delta violations.
    fn stream_detect(
        schema: &[&str],
        constraints_text: &str,
        rows: &[Vec<String>],
        batches: usize,
        threads: usize,
    ) -> (Dataset, ConstraintSet, Vec<Violation>) {
        let mut ds = Dataset::new(Schema::new(schema.to_vec()));
        let cons = parse_constraints(constraints_text, &mut ds).unwrap();
        let mut index = DeltaViolationIndex::new(&cons);
        let mut all = Vec::new();
        for batch in rows.chunks(rows.len().div_ceil(batches.max(1)).max(1)) {
            let from = ds.append_rows(batch);
            all.extend(index.ingest(&ds, &cons, from, threads));
        }
        (ds, cons, all)
    }

    #[test]
    fn batched_union_equals_one_shot_scan() {
        let rows: Vec<Vec<String>> = (0..60)
            .map(|i| {
                vec![
                    format!("biz{}", i % 7),
                    format!("606{:02}", i % 5),
                    format!("city{}", i % 3),
                ]
            })
            .collect();
        for batches in [1, 3, 8, 60] {
            let (ds, cons, streamed) = stream_detect(
                &["DBAName", "Zip", "City"],
                "FD: DBAName -> Zip\nFD: Zip -> City",
                &rows,
                batches,
                2,
            );
            let full = find_violations(&ds, &cons);
            assert!(!full.is_empty());
            assert_eq!(sorted(streamed), sorted(full), "batches = {batches}");
        }
    }

    #[test]
    fn asymmetric_and_single_tuple_constraints_stream() {
        let rows: Vec<Vec<String>> = (0..24)
            .map(|i| vec![format!("k{}", i % 4), format!("{}", i % 6)])
            .collect();
        for batches in [1, 4, 24] {
            let (ds, cons, streamed) = stream_detect(
                &["k", "v"],
                "t1&t2&EQ(t1.k,t2.k)&LT(t1.v,t2.v)\nt1&EQ(t1.v,\"3\")",
                &rows,
                batches,
                1,
            );
            let full = find_violations(&ds, &cons);
            assert!(!full.is_empty());
            assert_eq!(sorted(streamed), sorted(full), "batches = {batches}");
        }
    }

    /// Regression: a *symmetric* constraint with no equality join key
    /// (pure `≠`) lands in the pairwise fallback, where cross-batch pairs
    /// put the old tuple in the canonical `t1 < t2` slot — the backward
    /// pass must emit them for symmetric constraints too.
    #[test]
    fn symmetric_keyless_constraint_catches_cross_batch_pairs() {
        let rows: Vec<Vec<String>> = vec![
            vec!["x".into()],
            vec!["y".into()],
            vec!["x".into()],
            vec!["z".into()],
        ];
        for batches in [1, 2, 4] {
            let (ds, cons, streamed) =
                stream_detect(&["a"], "t1&t2&IQ(t1.a,t2.a)", &rows, batches, 1);
            let full = find_violations(&ds, &cons);
            assert!(!full.is_empty());
            assert_eq!(sorted(streamed), sorted(full), "batches = {batches}");
        }
    }

    #[test]
    fn contiguity_is_enforced() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        ds.push_row(&["60608", "Chicago"]);
        let mut index = DeltaViolationIndex::new(&cons);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Claims tuple 1 is the first new tuple while tuple 0 was
            // never ingested.
            index.ingest(&ds, &cons, TupleId(1), 1)
        }));
        assert!(result.is_err(), "non-contiguous ingest must panic");
    }

    /// Drives the index exactly as a CRUD streaming session would —
    /// retract + tombstone for deletes; retract + overwrite + absorb +
    /// re-probe for updates — and checks after every operation that the
    /// maintained live violation set equals a one-shot scan of the live
    /// table.
    fn crud_roundtrip(rows: &[Vec<String>], ops: &[(u8, usize)], batches: usize, threads: usize) {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "Rank"]));
        let cons = parse_constraints(
            "FD: Zip -> City\nt1&t2&EQ(t1.City,t2.City)&LT(t1.Rank,t2.Rank)",
            &mut ds,
        )
        .unwrap();
        let mut index = DeltaViolationIndex::new(&cons);
        let mut live: Vec<Violation> = Vec::new();
        let check = |ds: &Dataset, live: &Vec<Violation>, what: &str| {
            let full = find_violations(ds, &cons);
            assert_eq!(sorted(live.clone()), sorted(full), "after {what}");
        };
        for batch in rows.chunks(rows.len().div_ceil(batches.max(1)).max(1)) {
            let from = ds.append_rows(batch);
            live.extend(index.ingest(&ds, &cons, from, threads));
            check(&ds, &live, "ingest");
        }
        for &(kind, pick) in ops {
            let alive: Vec<TupleId> = ds.tuples().collect();
            if alive.len() <= 1 {
                break;
            }
            let t = alive[pick % alive.len()];
            if kind % 2 == 0 {
                // Delete: retract postings and stats, drop the tuple's
                // violations, tombstone.
                index.retract(&ds, &[t]);
                live.retain(|v| v.t1 != t && v.t2 != t);
                ds.delete_rows(&[t]);
                check(&ds, &live, "delete");
            } else {
                // Update: retract old keys + violations, overwrite in
                // place, absorb new keys, re-probe.
                index.retract(&ds, &[t]);
                live.retain(|v| v.t1 != t && v.t2 != t);
                let i = t.index();
                ds.update_rows(&[(
                    t,
                    vec![
                        format!("z{}", (i + 1) % 3),
                        format!("c{}", (i + 2) % 4),
                        format!("{}", i % 5),
                    ],
                )]);
                index.absorb_rows(&ds, &[t]);
                live.extend(index.probe_rows(&ds, &cons, &[t], threads));
                check(&ds, &live, "update");
            }
        }
        // And the stream keeps going after retractions: append once more.
        let from = ds.append_rows(&[vec!["z0".to_string(), "c1".to_string(), "2".to_string()]]);
        live.extend(index.ingest(&ds, &cons, from, threads));
        check(&ds, &live, "post-retraction ingest");
    }

    #[test]
    fn crud_union_equals_one_shot_scan() {
        let rows: Vec<Vec<String>> = (0..30)
            .map(|i| {
                vec![
                    format!("z{}", i % 3),
                    format!("c{}", i % 4),
                    format!("{}", i % 5),
                ]
            })
            .collect();
        let ops: Vec<(u8, usize)> = (0..20).map(|i| ((i % 3) as u8, i * 7 + 3)).collect();
        for batches in [1, 4] {
            for threads in [1, 2] {
                crud_roundtrip(&rows, &ops, batches, threads);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary row streams under arbitrary batch splits produce
        /// exactly the one-shot violation set — symmetric FDs and an
        /// asymmetric ordering constraint together.
        #[test]
        fn prop_delta_union_equals_full(
            rows in proptest::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..40),
            batches in 1usize..6,
            threads in 1usize..4,
        ) {
            let rows: Vec<Vec<String>> = rows
                .iter()
                .map(|(z, c, s)| vec![format!("z{z}"), format!("c{c}"), format!("{s}")])
                .collect();
            let (ds, cons, streamed) = stream_detect(
                &["Zip", "City", "Rank"],
                "FD: Zip -> City\nt1&t2&EQ(t1.City,t2.City)&LT(t1.Rank,t2.Rank)",
                &rows,
                batches,
                threads,
            );
            let full = find_violations(&ds, &cons);
            prop_assert_eq!(sorted(streamed), sorted(full));
        }

        /// Arbitrary insert/update/delete interleavings keep the
        /// maintained violation set union-equal to a one-shot scan of the
        /// live table at every step.
        #[test]
        fn prop_crud_union_equals_full(
            rows in proptest::collection::vec((0u8..4, 0u8..4, 0u8..3), 2..30),
            ops in proptest::collection::vec((0u8..2, 0usize..1000), 0..25),
            batches in 1usize..5,
            threads in 1usize..3,
        ) {
            let rows: Vec<Vec<String>> = rows
                .iter()
                .map(|(z, c, s)| vec![format!("z{z}"), format!("c{c}"), format!("{s}")])
                .collect();
            crud_roundtrip(&rows, &ops, batches, threads);
        }
    }
}
