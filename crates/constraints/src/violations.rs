//! Violation detection.
//!
//! Finding all tuple pairs that jointly satisfy a denial constraint is the
//! quadratic bottleneck the paper works around. We use the standard
//! *blocking* trick: every two-tuple constraint in the evaluated workloads
//! carries at least one cross-tuple equality predicate `t1.A = t2.B`, so
//! tuples are grouped into buckets keyed by those attribute values and only
//! pairs within a bucket are verified against the remaining predicates.
//!
//! ## The compiled scan
//!
//! Detection runs on [`crate::scan`]: each two-tuple constraint is
//! classified once with `t1` as the probe ([`PairScan`]) — join predicates
//! become the key and are elided, `t1`-only predicates run once per probe
//! tuple, `t2`-only predicates filter bucket members when the index is
//! built, and the residuals compare the bound `t1` values down the
//! bucket's packed columns. Tuples are blocked **once per distinct join
//! key**, not once per constraint ([`crate::scan::build_shared`]).
//! Before a bucket is scanned the residuals are checked for **whole-bucket
//! refutation** ([`crate::scan::ScanPredicate::refuted_by`]): a null probe
//! cell, or a `≠` against a column where nobody holds another non-null
//! value, rules the bucket out without reading a member.
//!
//! ## FD-shaped constraints: one group against the rest
//!
//! A constraint of the FD shape ([`PairScan::fd_shape`]: a join key and
//! one `t1.A ≠ t2.B` — all the `FD:` sugar produces) never compares a
//! probe with the members of its own value group. The index holds each
//! bucket's value groups; per bucket the probe pass adds the **majority**
//! value and the ascending list of the members holding another non-null
//! one (`Minorities`). A probe holding the majority value reads that
//! list — every entry is a witness; any other probe walks the bucket's
//! run. That is ≤ 2 · violations + bucket size visits per bucket where the
//! general scan pays bucket², and the pairs come out in the same order.
//!
//! [`find_noisy_cells_with_threads`] is the detector for callers that want
//! `D_n` and the violation count but not the list. For a proper FD
//! `X → A` (the same key attributes and the same dependent attribute on
//! both tuples) it reads the groups alone: in a bucket with at least two
//! groups every member holding a non-null `A` disagrees with somebody, so
//! its cells are noisy, and the bucket holds `(n² − Σ gᵢ²) / 2` violating
//! pairs (`n` non-null members in groups of `gᵢ`) — O(rows), no pair is
//! ever formed. Every other constraint marks the cells of the pairs its
//! list path finds, without stamping them into [`Violation`]s.
//!
//! [`find_tuple_groups_with_threads`] gives Algorithm 3's groups the same
//! way: a proper FD's connected components of `H_σ` are its mixed buckets
//! — the members holding a non-null `A` — so a spanning star of each
//! stands in for its pairs, and any other constraint unions the pairs its
//! list path finds, never stamping them either.
//!
//! Constraints with no join key fall back to the pairwise scan;
//! single-tuple constraints evaluate their predicates per tuple.
//!
//! ## The order contract
//!
//! Violations come constraint-major, then by ascending `t1`, then by
//! ascending `t2`. A symmetric constraint reports each unordered pair once,
//! with `t1 < t2` (its scan starts past `t1` in the bucket); an asymmetric
//! one scans the whole bucket, skipping `t1` itself. The indexes are built
//! by ascending passes and the probe side shards over contiguous chunks of
//! tuples concatenated in chunk order, so the output — elements *and*
//! order — is the same at every thread count.
//!
//! ## The reference
//!
//! The loop this replaced — block per constraint by a `Vec<Sym>` key, then
//! interpret [`DenialConstraint::violated_by`] on every same-key pair —
//! survives as the `#[cfg(test)]` module `reference`; a proptest pins the
//! compiled scan to it, order included, and both to the quadratic
//! all-pairs oracle `find_violations_naive` beside it.

use crate::ast::{ConstraintId, ConstraintSet, DenialConstraint, TupleVar};
use crate::hypergraph::GroupTable;
use crate::scan::{build_shared, BlockIndex, PackedColumn, PairScan, ScanPredicate};
use holo_dataset::{AttrId, CellRef, Dataset, FxHashSet, Sym, TupleId};
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
    pub cells: CellList,
}

/// Cells a [`CellList`] holds without a heap allocation: the 2 + 2 cells
/// of a single-attribute FD violation.
const INLINE_CELLS: usize = 4;

/// The cells of one violation; reads as a `[CellRef]`. Up to four cells
/// are stored inline — detection emits hundreds of thousands of
/// violations, and a `Vec` each was a malloc and a free per violation —
/// and longer lists spill to the heap.
#[derive(Clone, Serialize, Deserialize)]
pub struct CellList(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    Inline {
        len: u8,
        cells: [CellRef; INLINE_CELLS],
    },
    Heap(Box<[CellRef]>),
}

impl std::ops::Deref for CellList {
    type Target = [CellRef];

    #[inline]
    fn deref(&self) -> &[CellRef] {
        match &self.0 {
            Repr::Inline { len, cells } => &cells[..usize::from(*len)],
            Repr::Heap(cells) => cells,
        }
    }
}

impl CellList {
    fn as_mut_slice(&mut self) -> &mut [CellRef] {
        match &mut self.0 {
            Repr::Inline { len, cells } => &mut cells[..usize::from(*len)],
            Repr::Heap(cells) => cells,
        }
    }
}

impl FromIterator<CellRef> for CellList {
    fn from_iter<I: IntoIterator<Item = CellRef>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let filler = CellRef {
            tuple: TupleId(0),
            attr: AttrId(0),
        };
        let mut cells = [filler; INLINE_CELLS];
        let mut len = 0u8;
        while usize::from(len) < INLINE_CELLS {
            match iter.next() {
                Some(cell) => cells[usize::from(len)] = cell,
                None => return CellList(Repr::Inline { len, cells }),
            }
            len += 1;
        }
        match iter.next() {
            None => CellList(Repr::Inline { len, cells }),
            Some(fifth) => CellList(Repr::Heap(
                cells.into_iter().chain([fifth]).chain(iter).collect(),
            )),
        }
    }
}

impl<'a> IntoIterator for &'a CellList {
    type Item = &'a CellRef;
    type IntoIter = std::slice::Iter<'a, CellRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for CellList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CellList {}

impl std::fmt::Debug for CellList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A set of cells being collected. A cell of a large bucket is named by
/// hundreds of violations, so a first-sight filter (one bitmap over tuples
/// per attribute, grown on demand) stands in front of the hash set: only a
/// cell's first mention is hashed.
#[derive(Default)]
struct CellMarks {
    seen: Vec<Vec<u64>>,
    fresh: Vec<CellRef>,
}

impl CellMarks {
    #[inline]
    fn mark(&mut self, cell: CellRef) {
        let (attr, word) = (cell.attr.index(), cell.tuple.index() / 64);
        if self.seen.len() <= attr {
            self.seen.resize(attr + 1, Vec::new());
        }
        let bits = &mut self.seen[attr];
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        let bit = 1u64 << (cell.tuple.index() % 64);
        if bits[word] & bit == 0 {
            bits[word] |= bit;
            self.fresh.push(cell);
        }
    }

    fn into_set(self) -> FxHashSet<CellRef> {
        self.fresh.into_iter().collect()
    }
}

/// The set of cells named by `violations` — the noisy cells `D_n` of the
/// violation detector.
pub fn noisy_cells(violations: &[Violation]) -> FxHashSet<CellRef> {
    let mut marks = CellMarks::default();
    for v in violations {
        v.cells.iter().for_each(|&cell| marks.mark(cell));
    }
    marks.into_set()
}

/// The violation every witness of one constraint is stamped from: its
/// cells are the attributes read on each tuple variable, `t1`'s in
/// predicate order, then `t2`'s. Deriving them walks the predicates and
/// allocates, so a detection pass builds the template once per constraint;
/// a witnessing pair then costs a copy and the tuple ids.
pub(crate) struct CellTemplate {
    /// The violation of the pair `(t0, t0)`.
    proto: Violation,
    /// `proto.cells[..t1_cells]` belong to `t1`, the rest to `t2`.
    t1_cells: usize,
}

impl CellTemplate {
    pub(crate) fn new(c: &DenialConstraint, constraint: ConstraintId) -> Self {
        let (t1_attrs, mut t2_attrs) = c.attrs_by_tuple();
        if !c.two_tuple {
            t2_attrs.clear();
        }
        let tuple = TupleId(0);
        let cell_of = |&attr: &AttrId| CellRef { tuple, attr };
        CellTemplate {
            proto: Violation {
                constraint,
                t1: tuple,
                t2: tuple,
                cells: t1_attrs.iter().chain(&t2_attrs).map(cell_of).collect(),
            },
            t1_cells: t1_attrs.len(),
        }
    }

    /// The violation witnessed by `(t1, t2)`. A two-tuple constraint is
    /// never violated by a self-pair, so no cell is named twice;
    /// single-tuple constraints pass `t1 == t2`.
    #[inline]
    fn violation(&self, t1: TupleId, t2: TupleId) -> Violation {
        let mut v = self.proto.clone();
        (v.t1, v.t2) = (t1, t2);
        let (on_t1, on_t2) = v.cells.as_mut_slice().split_at_mut(self.t1_cells);
        debug_assert!(on_t2.is_empty() || t1 != t2);
        on_t1.iter_mut().for_each(|cell| cell.tuple = t1);
        on_t2.iter_mut().for_each(|cell| cell.tuple = t2);
        v
    }

    /// Appends the violations witnessed by `pairs`, in order. Witnesses
    /// are collected as bare pairs and stamped here, so the violations are
    /// written once, into space reserved for all of them.
    pub(crate) fn stamp(&self, pairs: Vec<(TupleId, TupleId)>, out: &mut Vec<Violation>) {
        out.extend(pairs.into_iter().map(|(t1, t2)| self.violation(t1, t2)));
    }

    /// Marks the cells [`CellTemplate::violation`] names on `t1` and on
    /// `t2`.
    #[inline]
    fn mark(&self, t1: TupleId, t2: TupleId, marks: &mut CellMarks) {
        for (at, cell) in self.proto.cells.iter().enumerate() {
            let tuple = if at < self.t1_cells { t1 } else { t2 };
            marks.mark(CellRef { tuple, ..*cell });
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

/// [`find_violations`] with the index builds and the probe scans spread
/// over up to `threads` worker threads (`0` = all cores). The result is
/// identical to the sequential scan for every thread count.
pub fn find_violations_with_threads(
    ds: &Dataset,
    constraints: &ConstraintSet,
    threads: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    detect(ds, constraints, threads, &mut Sink::List(&mut out));
    out
}

/// The noisy cells and the violation count of
/// [`find_violations_with_threads`] — `(noisy_cells(&list), list.len())` —
/// without the list: a proper FD is answered from its buckets' value
/// groups in O(rows) (module docs), any other constraint marks the cells
/// of the pairs it finds.
pub fn find_noisy_cells_with_threads(
    ds: &Dataset,
    constraints: &ConstraintSet,
    threads: usize,
) -> (FxHashSet<CellRef>, usize) {
    let (mut marks, mut violations) = (CellMarks::default(), 0);
    detect(
        ds,
        constraints,
        threads,
        &mut Sink::Cells(&mut marks, &mut violations),
    );
    (marks.into_set(), violations)
}

/// Algorithm 3's groups — [`tuple_group_ids`](crate::tuple_group_ids) of
/// [`find_violations_with_threads`]'s list, one dense table per constraint
/// — without the list: a proper FD unions a spanning star of each mixed
/// bucket (module docs), and any other constraint the pairs it finds, one
/// constraint at a time.
pub fn find_tuple_groups_with_threads(
    ds: &Dataset,
    constraints: &ConstraintSet,
    threads: usize,
) -> Vec<Vec<u32>> {
    let mut tables = Vec::with_capacity(constraints.len());
    detect(ds, constraints, threads, &mut Sink::Groups(&mut tables));
    tables
}

/// What a detection pass makes of a constraint's witnesses.
enum Sink<'a> {
    /// Every witnessing pair stamped into a [`Violation`], in order.
    List(&'a mut Vec<Violation>),
    /// The witnesses' cells marked and the witnesses counted.
    Cells(&'a mut CellMarks, &'a mut usize),
    /// The witnesses' Algorithm 3 group table pushed, one per constraint.
    Groups(&'a mut Vec<Vec<u32>>),
}

/// Feeds the violations of `constraints`, in order, to `sink`.
fn detect(ds: &Dataset, constraints: &ConstraintSet, threads: usize, sink: &mut Sink<'_>) {
    let tuples: Vec<TupleId> = ds.tuples().collect();
    // Build and probe both do O(key width) work per tuple: on inputs of a
    // few thousand rows spawn overhead dominates, so small inputs take the
    // inline path. (The pairwise fallback is quadratic and keeps the full
    // budget.)
    let budget = threads;
    let threads = holo_parallel::sized_threads(budget, tuples.len());

    // Classify, then block once per distinct join key.
    let scans: Vec<Option<PairScan>> = constraints
        .iter()
        .map(|(_, c)| c.two_tuple.then(|| PairScan::new(c, TupleVar::T1)))
        .collect();
    let keyed: Vec<Option<&PairScan>> = scans
        .iter()
        .map(|scan| scan.as_ref().filter(|s| !s.probe_key.is_empty()))
        .collect();
    let (indexes, index_of) = build_shared(ds, &keyed, true, threads);

    for ((scan, at), (id, c)) in keyed.iter().zip(index_of).zip(constraints.iter()) {
        let template = CellTemplate::new(c, id);
        let pairs = match (scan, at.map(|at| &indexes[at])) {
            (Some(scan), Some(index)) => match scan.fd_shape() {
                Some((probe_attr, col)) => {
                    let column = index.columns_of(scan)[col];
                    // `X → A` proper: the same key and the same dependent
                    // attribute on both tuples, so a bucket's members are
                    // exactly the probes that look it up.
                    let proper =
                        scan.probe_key == scan.partner_key && probe_attr == scan.partner_attrs[col];
                    match (&mut *sink, proper) {
                        (Sink::Cells(marks, violations), true) => {
                            **violations += mark_mixed_buckets(index, column, &template, marks);
                            continue;
                        }
                        // The groups need only a spanning tree of each
                        // component, not every pair.
                        (Sink::Groups(_), true) => mixed_bucket_spans(index, column),
                        _ => {
                            let fd = FdProbe {
                                scan,
                                probe_attr,
                                index,
                                column,
                                minorities: Minorities::new(index, column),
                                symmetric: c.is_symmetric(),
                            };
                            holo_parallel::parallel_chunks(threads, &tuples, |_, chunk| {
                                fd.pairs(ds, chunk)
                            })
                        }
                    }
                }
                None => {
                    let symmetric = c.is_symmetric();
                    holo_parallel::parallel_chunks(threads, &tuples, |_, chunk| {
                        probe_pairs(ds, scan, index, symmetric, chunk)
                    })
                }
            },
            _ if c.two_tuple => naive_pairs(ds, c, budget),
            // Per-tuple work is one predicate evaluation — far below the
            // spawn-overhead break-even — so small inputs run sequentially.
            _ => holo_parallel::parallel_chunks(threads, &tuples, |_, chunk| {
                let violating = chunk.iter().filter(|&&t| c.violated_by(ds, t, t));
                violating.map(|&t| (t, t)).collect()
            }),
        };
        match sink {
            Sink::List(out) => template.stamp(pairs, out),
            Sink::Cells(marks, violations) => {
                **violations += pairs.len();
                for (t1, t2) in pairs {
                    template.mark(t1, t2, marks);
                }
            }
            Sink::Groups(tables) => {
                let mut table = GroupTable::new(tuples.len());
                for (t1, t2) in pairs {
                    table.union(t1, t2);
                }
                tables.push(table.finish());
            }
        }
    }
}

/// A proper FD's Algorithm 3 components without its pairs: in a bucket
/// with two or more value groups every member holding a non-null
/// dependent value disagrees with a member of another group, and two
/// members of one group share such a partner, so those members are one
/// connected component of `H_σ`; no violation names anybody else. Returns
/// a spanning star of each: its first member paired with every other.
fn mixed_bucket_spans(index: &BlockIndex, column: &PackedColumn) -> Vec<(TupleId, TupleId)> {
    let mut spans = Vec::new();
    for bucket in 0..index.bucket_count() {
        if column.groups(bucket).len() < 2 {
            continue;
        }
        let range = index.range(bucket);
        let values = &column.values()[range.clone()];
        let members = index.members()[range].iter().zip(values);
        let mut held = members.filter(|(_, v)| !v.is_null()).map(|(&t, _)| t);
        let first = held.next().expect("a mixed bucket holds two values");
        spans.extend(held.map(|t| (first, t)));
    }
    spans
}

/// A proper FD without its pairs: marks the cells of every member that
/// holds a non-null dependent value in a bucket with two or more value
/// groups — each disagrees with a member of another group — and returns
/// the number of disagreeing pairs.
fn mark_mixed_buckets(
    index: &BlockIndex,
    column: &PackedColumn,
    template: &CellTemplate,
    marks: &mut CellMarks,
) -> usize {
    let mut pairs = 0u64;
    for bucket in 0..index.bucket_count() {
        let groups = column.groups(bucket);
        if groups.len() < 2 {
            continue;
        }
        let square = |n: u32| u64::from(n) * u64::from(n);
        let agreeing: u64 = groups.iter().map(|&(_, count)| square(count)).sum();
        pairs += (square(column.non_null(bucket)) - agreeing) / 2;
        for at in index.range(bucket) {
            if !column.values()[at].is_null() {
                let t = index.members()[at];
                template.mark(t, t, marks);
            }
        }
    }
    pairs as usize
}

/// Per bucket of one packed column: the value most members hold and the
/// others — what lets an FD-shaped probe skip its own value group.
struct Minorities {
    /// Per bucket, the value of its largest group (null if it has none).
    majority: Vec<Sym>,
    /// Bucket `b`'s minority is `positions[offsets[b]..offsets[b + 1]]`:
    /// the arena positions, ascending, of the members holding a non-null
    /// value other than `majority[b]`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl Minorities {
    fn new(index: &BlockIndex, column: &PackedColumn) -> Self {
        let buckets = index.bucket_count();
        let mut majority = Vec::with_capacity(buckets);
        let mut offsets = Vec::with_capacity(buckets + 1);
        let mut positions = Vec::new();
        for bucket in 0..buckets {
            offsets.push(positions.len() as u32);
            let groups = column.groups(bucket);
            // The first of the largest groups: any choice gives the same
            // pairs, this one is a function of the bucket alone.
            let largest = groups.iter().rev().max_by_key(|&&(_, count)| count);
            let held = largest.map_or(Sym::NULL, |&(value, _)| value);
            majority.push(held);
            if groups.len() > 1 {
                let values = &column.values()[index.range(bucket)];
                let start = index.range(bucket).start;
                let others = values
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != held && !v.is_null());
                positions.extend(others.map(|(at, _)| (start + at) as u32));
            }
        }
        offsets.push(positions.len() as u32);
        Minorities {
            majority,
            offsets,
            positions,
        }
    }

    fn of(&self, bucket: usize) -> &[u32] {
        &self.positions[self.offsets[bucket] as usize..self.offsets[bucket + 1] as usize]
    }
}

/// One FD-shaped constraint ready to probe (module docs).
struct FdProbe<'a> {
    scan: &'a PairScan,
    /// `t1.probe_attr ≠ t2.column` is the residual.
    probe_attr: AttrId,
    index: &'a BlockIndex,
    column: &'a PackedColumn,
    minorities: Minorities,
    symmetric: bool,
}

impl FdProbe<'_> {
    /// The violating pairs with `t1` in `chunk`, by ascending `t1` then
    /// `t2`: the bucket's members holding a non-null value other than
    /// `t1`'s.
    fn pairs(&self, ds: &Dataset, chunk: &[TupleId]) -> Vec<(TupleId, TupleId)> {
        let (members, values) = (self.index.members(), self.column.values());
        let mut found = Vec::new();
        for &t1 in chunk {
            let v = ds.cell(t1, self.probe_attr);
            if v.is_null() {
                continue;
            }
            let Some(bucket) = self.index.lookup(self.scan.probe_key_of(ds, t1, None)) else {
                continue;
            };
            if self.column.differing(bucket, v) == 0 {
                continue;
            }
            // Each unordered pair once for swap-invariant constraints.
            let past_t1 = |at: usize| !self.symmetric || members[at] > t1;
            if v == self.minorities.majority[bucket] {
                let others = self.minorities.of(bucket);
                let start = others.partition_point(|&at| !past_t1(at as usize));
                let partners = others[start..].iter().map(|&at| members[at as usize]);
                found.extend(partners.filter(|&t2| t2 != t1).map(|t2| (t1, t2)));
            } else {
                let range = self.index.range(bucket);
                let start = range.start
                    + members[range.clone()].partition_point(|&t2| self.symmetric && t2 <= t1);
                for at in start..range.end {
                    let held = values[at];
                    if held != v && !held.is_null() && members[at] != t1 {
                        found.push((t1, members[at]));
                    }
                }
            }
        }
        found
    }
}

/// One constraint's compiled scan over its join key's index: the
/// violating pairs with `t1` in `chunk`, by ascending `t1` then `t2`.
fn probe_pairs(
    ds: &Dataset,
    scan: &PairScan,
    index: &BlockIndex,
    symmetric: bool,
    chunk: &[TupleId],
) -> Vec<(TupleId, TupleId)> {
    let columns = index.columns_of(scan);
    let members = index.members();
    let mut found = Vec::new();
    let mut bound: Vec<ScanPredicate> = Vec::with_capacity(scan.residual.len());
    'probe: for &t1 in chunk {
        let Some(bucket) = index.lookup(scan.probe_key_of(ds, t1, None)) else {
            continue;
        };
        if !scan.admits(ds, t1) {
            continue;
        }
        bound.clear();
        for p in &scan.residual {
            let p = p.bind(ds, t1, None);
            if p.refuted_by(&columns, bucket) {
                continue 'probe;
            }
            bound.push(p);
        }
        let range = index.range(bucket);
        // Each unordered pair once for swap-invariant constraints.
        let start = if symmetric {
            range.start + members[range.clone()].partition_point(|&t2| t2 <= t1)
        } else {
            range.start
        };
        for (at, &t2) in members[..range.end].iter().enumerate().skip(start) {
            let partner = |col: usize| columns[col].values()[at];
            if t2 != t1 && bound.iter().all(|p| p.holds(ds, Sym::NULL, partner)) {
                found.push((t1, t2));
            }
        }
    }
    found
}

/// Every violating pair of a two-tuple constraint, by exhaustive
/// enumeration (`t1` ascending, then `t2`).
fn naive_pairs(ds: &Dataset, c: &DenialConstraint, threads: usize) -> Vec<(TupleId, TupleId)> {
    let symmetric = c.is_symmetric();
    let tuples: Vec<TupleId> = ds.tuples().collect();
    holo_parallel::parallel_flat_map(threads, &tuples, |_, &t1| {
        let partners = tuples
            .iter()
            .filter(|&&t2| t1 != t2 && !(symmetric && t1 > t2) && c.violated_by(ds, t1, t2));
        partners.map(|&t2| (t1, t2)).collect()
    })
}

/// The detector the compiled scan replaced, kept as the reference its
/// tests compare against: block per constraint by a `Vec<Sym>` key, then
/// interpret `violated_by` on every same-key pair — plus the quadratic
/// oracle both are compared with.
#[cfg(test)]
mod reference {
    use super::*;
    use holo_dataset::FxHashMap;

    /// Every ordered tuple pair enumerated and interpreted. Quadratic.
    pub(super) fn find_violations_naive(
        ds: &Dataset,
        constraints: &ConstraintSet,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for (id, c) in constraints.iter() {
            let pairs = if c.two_tuple {
                naive_pairs(ds, c, 1)
            } else {
                let violating = ds.tuples().filter(|&t| c.violated_by(ds, t, t));
                violating.map(|t| (t, t)).collect()
            };
            CellTemplate::new(c, id).stamp(pairs, &mut out);
        }
        out
    }

    pub(super) fn find_violations_interpreted(
        ds: &Dataset,
        constraints: &ConstraintSet,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for (id, c) in constraints.iter() {
            let template = CellTemplate::new(c, id);
            if !c.two_tuple {
                let violating = ds.tuples().filter(|&t| c.violated_by(ds, t, t));
                out.extend(violating.map(|t| template.violation(t, t)));
                continue;
            }
            // The blocking key: per cross-tuple equality predicate, the
            // attribute read on the t1 side and on the t2 side.
            let eq_keys: Vec<(AttrId, AttrId)> = c
                .predicates
                .iter()
                .filter(|p| p.is_cross_tuple_eq())
                .map(|p| {
                    let crate::ast::Operand::Cell(_, rhs_attr) = p.rhs else {
                        unreachable!("is_cross_tuple_eq guarantees a cell rhs")
                    };
                    match p.lhs_tuple {
                        TupleVar::T1 => (p.lhs_attr, rhs_attr),
                        TupleVar::T2 => (rhs_attr, p.lhs_attr),
                    }
                })
                .collect();
            if eq_keys.is_empty() {
                template.stamp(naive_pairs(ds, c, 1), &mut out);
                continue;
            }
            let key_of = |t: TupleId, side: fn(&(AttrId, AttrId)) -> AttrId| {
                let key: Vec<Sym> = eq_keys.iter().map(|pair| ds.cell(t, side(pair))).collect();
                // A null key cell can never satisfy the equality predicate.
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
                    // Each unordered pair once for swap-invariant
                    // constraints.
                    if t1 == t2 || (symmetric && t1 > t2) {
                        continue;
                    }
                    if c.violated_by(ds, t1, t2) {
                        out.push(template.violation(t1, t2));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{find_violations_interpreted, find_violations_naive};
    use super::*;
    use crate::ast::{Op, Operand, Predicate};
    use crate::hypergraph::tuple_group_ids;
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

    #[test]
    fn cell_lists_spill_past_four_cells() {
        let cell = |i: usize| CellRef::new(i, i);
        for len in 0..=7 {
            let list: CellList = (0..len).map(cell).collect();
            let want: Vec<CellRef> = (0..len).map(cell).collect();
            assert_eq!(&*list, want.as_slice());
            assert_eq!(list.clone(), list);
            assert_eq!(list.into_iter().count(), len);
        }
        let a: CellList = (0..3).map(cell).collect();
        let b: CellList = (0..4).map(cell).collect();
        assert_ne!(a, b);
        assert_eq!(format!("{a:?}"), format!("{:?}", &*a));
    }

    #[test]
    fn noisy_cells_is_the_set_of_named_cells() {
        let (ds, cons) = food_like();
        let violations = find_violations(&ds, &cons);
        let mut want: FxHashSet<CellRef> = FxHashSet::default();
        for v in &violations {
            want.extend(v.cells.iter().copied());
        }
        assert!(!want.is_empty());
        assert_eq!(noisy_cells(&violations), want);
        assert!(noisy_cells(&[]).is_empty());
    }

    /// Detection at a size where the index builds and the probe chunks
    /// really run on worker threads (the cutoff is 4096 tuples): shared
    /// and unshared keys, a two-attribute key, an asymmetric constraint, a
    /// cross-attribute join, nulls — identical, order included, to the
    /// interpreting reference at every thread count.
    #[test]
    fn sharded_detection_equals_reference() {
        let mut ds = Dataset::new(Schema::new(vec!["K", "L", "A", "B", "N"]));
        let or_null = |n: usize, text: String| if n == 0 { String::new() } else { text };
        for i in 0..4500usize {
            ds.push_row(&[
                or_null(i % 11, format!("k{}", i % 1500)),
                format!("l{}", i % 2),
                or_null(i % 13, format!("a{}", (i / 1500) % 2 + i % 3 / 2)),
                format!("k{}", (i * 7 + i / 1500) % 1500),
                or_null(i % 5, format!("{}", i % 9)),
            ]);
        }
        let cons = parse_constraints(
            "FD: K -> A, N
             FD: K, L -> B
             t1&t2&EQ(t1.K,t2.K)&LT(t1.N,t2.N)
             t1&t2&EQ(t1.K,t2.B)&IQ(t1.A,t2.A)
             t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.A)&EQ(t2.L,\"l1\")
             t1&EQ(t1.N,\"3\")&EQ(t1.L,\"l0\")",
            &mut ds,
        )
        .unwrap();
        let want = find_violations_interpreted(&ds, &cons);
        for sigma in 0..cons.len() {
            assert!(
                want.iter().any(|v| v.constraint == sigma),
                "constraint {sigma} must be violated for the test to mean anything"
            );
        }
        let cells_and_count = (noisy_cells(&want), want.len());
        for threads in [1, 2, 3, 8] {
            assert!(
                find_violations_with_threads(&ds, &cons, threads) == want,
                "threads = {threads}"
            );
            assert!(
                find_noisy_cells_with_threads(&ds, &cons, threads) == cells_and_count,
                "list-free, threads = {threads}"
            );
        }
    }

    /// One key value, 60 000 rows, three typos: 1.8 G same-key pairs, which
    /// a detector that compares a probe with the members of its own value
    /// group does not get through inside a test run. The grouped one
    /// visits the three minority members per majority probe and the run
    /// once per typo.
    #[test]
    fn one_huge_mixed_bucket_detects_in_linear_time() {
        const ROWS: usize = 60_000;
        let typos = [(7usize, "Cicago"), (30_000, "Chicagoo"), (59_999, "Cicago")];
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        for t in 0..ROWS {
            let typo = typos.iter().find(|(at, _)| *at == t);
            ds.push_row(&["60608", typo.map_or("Chicago", |(_, city)| city)]);
        }
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let list = find_violations(&ds, &cons);
        // Every typo against every clean row, and the two spellings
        // against each other.
        assert_eq!(list.len(), 3 * (ROWS - 3) + 2);
        assert!(list
            .windows(2)
            .all(|w| (w[0].t1, w[0].t2) < (w[1].t1, w[1].t2)));
        assert!(list
            .iter()
            .all(|v| v.t1 < v.t2 && ds.cell(v.t1, AttrId(1)) != ds.cell(v.t2, AttrId(1))));
        let (cells, count) = find_noisy_cells_with_threads(&ds, &cons, 1);
        assert_eq!(count, list.len());
        assert_eq!(cells.len(), 2 * ROWS, "both cells of every row");
        assert_eq!(cells, noisy_cells(&list));
    }

    /// The seven operators, `≈` at a threshold that separates `v1`/`v2`
    /// from the numbers.
    const OPS: [Op; 7] = [
        Op::Eq,
        Op::Neq,
        Op::Lt,
        Op::Gt,
        Op::Leq,
        Op::Geq,
        Op::Sim(0.5),
    ];

    fn predicate(lhs: (TupleVar, u8), op: Op, rhs: Operand) -> Predicate {
        Predicate {
            lhs_tuple: lhs.0,
            lhs_attr: AttrId(u16::from(lhs.1)),
            op,
            rhs,
        }
    }

    fn two_tuple(name: &str, predicates: Vec<Predicate>) -> DenialConstraint {
        DenialConstraint {
            name: name.into(),
            two_tuple: true,
            predicates,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Compiled scan ≡ the interpreting reference *including order*,
        /// and ≡ the quadratic oracle as a set, at every thread count —
        /// over random tables with nulls in every column and constraint
        /// sets built to meet each branch of the scan: 1–3 join predicates
        /// (across different attributes, either way round, repeats
        /// allowed), residuals over all seven operators, constants (the
        /// null constant included), `t1`-only, `t2`-only and same-tuple
        /// cell–cell predicates, a constraint sharing the first one's
        /// key, one with the same key attributes the other way round, and
        /// two symmetric FDs on one key.
        #[test]
        fn prop_compiled_scan_equals_reference(
            rows in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..5), 0..40),
            joins in proptest::collection::vec((0u8..3, 0u8..3, 0u8..2), 1..4),
            extras in proptest::collection::vec((0u8..6, 0u8..7, 0u8..4, 0u8..4), 0..4),
        ) {
            // 0 encodes a null cell. A, B and C share a value space, so a
            // join across two of them finds partners.
            let text = |p: &str, v: u8| if v == 0 { String::new() } else { format!("{p}{v}") };
            let mut ds = Dataset::new(Schema::new(vec!["A", "B", "C", "N"]));
            for &(a, b, c, n) in &rows {
                let num = if n == 0 { String::new() } else { format!("{}", u32::from(n) * 5) };
                ds.push_row(&[text("v", a), text("v", b), text("v", c), num]);
            }
            let constants = [ds.intern("v1"), ds.intern("v2"), ds.intern("10"), Sym::NULL];

            let (t1, t2) = (TupleVar::T1, TupleVar::T2);
            let join = |&(a, b, flip): &(u8, u8, u8)| match flip {
                0 => predicate((t1, a), Op::Eq, Operand::Cell(t2, AttrId(u16::from(b)))),
                _ => predicate((t2, b), Op::Eq, Operand::Cell(t1, AttrId(u16::from(a)))),
            };
            let extra = |&(kind, op, x, y): &(u8, u8, u8, u8)| {
                let op = OPS[usize::from(op)];
                let constant = Operand::Const(constants[usize::from(y)]);
                let cell = |tv| Operand::Cell(tv, AttrId(u16::from(y)));
                match kind {
                    0 => predicate((t1, x), op, cell(t2)),
                    1 => predicate((t2, x), op, cell(t1)),
                    2 => predicate((t1, x), op, constant),
                    3 => predicate((t2, x), op, constant),
                    4 => predicate((t1, x), op, cell(t1)),
                    _ => predicate((t2, x), op, cell(t2)),
                }
            };
            let joined: Vec<Predicate> = joins.iter().map(join).collect();
            let with_joins = |tail: Vec<Predicate>| {
                joined.iter().copied().chain(tail).collect::<Vec<_>>()
            };
            let turned: Vec<Predicate> = joins.iter().map(|&(a, b, flip)| join(&(b, a, flip))).collect();
            let (key, flip) = (joins[0].0, joins[0].2);
            let fd = |rhs: u8| {
                vec![join(&(key, key, flip)), extra(&(0, 1, rhs, rhs))]
            };
            let cons: ConstraintSet = [
                two_tuple("random", with_joins(extras.iter().map(extra).collect())),
                two_tuple("same key", with_joins(vec![extra(&(0, 1, 3, 3))])),
                two_tuple(
                    "key turned round",
                    turned.into_iter().chain([extra(&(0, 1, 3, 3))]).collect(),
                ),
                two_tuple("fd", fd((key + 1) % 4)),
                two_tuple("fd, same key", fd((key + 2) % 4)),
            ]
            .into_iter()
            .collect();
            prop_assert!(cons.get(3).is_symmetric() && cons.get(4).is_symmetric());

            let want = find_violations_interpreted(&ds, &cons);
            for threads in [1, 2, 3, 8] {
                prop_assert_eq!(&find_violations_with_threads(&ds, &cons, threads), &want);
            }
            // The list-free detector: the same cells, the same count.
            let cells_and_count = (noisy_cells(&want), want.len());
            for threads in [1, 2, 4] {
                prop_assert_eq!(&find_noisy_cells_with_threads(&ds, &cons, threads), &cells_and_count);
            }
            let by_pair = |mut v: Vec<Violation>| {
                v.sort_by_key(|v| (v.constraint, v.t1, v.t2));
                v
            };
            prop_assert_eq!(by_pair(want), by_pair(find_violations_naive(&ds, &cons)));
        }

        /// The grouped path against the interpreting reference, order
        /// included, and the list-free path against the list: nulls in key
        /// and dependent columns, one- and two-attribute keys, and around
        /// the proper FDs every neighbouring shape — the
        /// dependent attribute differing between the tuples, the key
        /// crossing attributes (one way, and both ways so the constraint
        /// is symmetric without being a proper FD), a second FD on a
        /// shared index, and non-FD constraints on the same keys (an order
        /// residual, a partner-only filter, a single-tuple constraint).
        #[test]
        fn prop_grouped_detection_equals_reference(
            rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..4, 0u8..4), 0..48),
        ) {
            // 0 encodes a null cell; K/L and A/B each share a value space.
            let text = |p: &str, v: u8| if v == 0 { String::new() } else { format!("{p}{v}") };
            let mut ds = Dataset::new(Schema::new(vec!["K", "L", "A", "B"]));
            for &(k, l, a, b) in &rows {
                ds.push_row(&[text("k", k), text("k", l), text("v", a), text("v", b)]);
            }
            let cons = parse_constraints(
                "FD: K -> A
                 FD: K, L -> B
                 FD: K -> B
                 t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.B)
                 t1&t2&EQ(t1.K,t2.L)&IQ(t1.A,t2.A)
                 t1&t2&EQ(t1.K,t2.L)&EQ(t2.K,t1.L)&IQ(t1.A,t2.A)
                 t1&t2&EQ(t1.K,t2.K)&LT(t1.A,t2.A)
                 t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.A)&IQ(t2.B,\"v1\")
                 t1&EQ(t1.A,\"v2\")",
                &mut ds,
            ).unwrap();
            let fd_shaped = |sigma| PairScan::new(cons.get(sigma), TupleVar::T1).fd_shape().is_some();
            prop_assert!((0..6).all(fd_shaped) && !(6..9).any(fd_shaped));
            prop_assert!(cons.get(5).is_symmetric() && !cons.get(4).is_symmetric());

            let want = find_violations_interpreted(&ds, &cons);
            let cells_and_count = (noisy_cells(&want), want.len());
            for threads in [1, 2, 4] {
                prop_assert_eq!(&find_violations_with_threads(&ds, &cons, threads), &want);
                prop_assert_eq!(&find_noisy_cells_with_threads(&ds, &cons, threads), &cells_and_count);
            }
        }

        /// Algorithm 3's groups from the value groups ≡ the groups of the
        /// listed violations ([`tuple_group_ids`]), at every thread count:
        /// nulls in key and dependent columns, buckets of one value or one
        /// member, one- and two-attribute keys, proper (symmetric) FDs
        /// beside asymmetric FD-shaped constraints, which union their
        /// pairs, and non-FD constraints — an order residual, a
        /// single-tuple one — at every position among them.
        #[test]
        fn prop_value_groups_equal_the_listed_groups(
            rows in proptest::collection::vec((0u8..4, 0u8..3, 0u8..4, 0u8..3), 0..48),
            rotate in 0usize..7,
        ) {
            // 0 encodes a null cell; K/L and A/B each share a value space.
            let text = |p: &str, v: u8| if v == 0 { String::new() } else { format!("{p}{v}") };
            let mut ds = Dataset::new(Schema::new(vec!["K", "L", "A", "B"]));
            for &(k, l, a, b) in &rows {
                ds.push_row(&[text("k", k), text("k", l), text("v", a), text("v", b)]);
            }
            let mut lines = [
                "FD: K -> A",
                "FD: K, L -> B",
                "t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.B)",
                "t1&t2&EQ(t1.K,t2.L)&IQ(t1.A,t2.A)",
                "t1&t2&EQ(t1.K,t2.K)&LT(t1.B,t2.B)",
                "t1&EQ(t1.A,\"v2\")",
                "FD: L -> A",
            ];
            lines.rotate_left(rotate);
            let cons = parse_constraints(&lines.join("\n"), &mut ds).unwrap();
            let shape = |sigma| PairScan::new(cons.get(sigma), TupleVar::T1).fd_shape();
            let fd_shaped = (0..cons.len()).filter(|&sigma| shape(sigma).is_some());
            prop_assert_eq!(fd_shaped.clone().count(), 5);
            prop_assert_eq!(fd_shaped.filter(|&sigma| !cons.get(sigma).is_symmetric()).count(), 2);

            let want = tuple_group_ids(&find_violations(&ds, &cons), cons.len(), ds.tuple_count());
            for threads in [1, 2, 4] {
                prop_assert_eq!(&find_tuple_groups_with_threads(&ds, &cons, threads), &want);
            }
        }

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
