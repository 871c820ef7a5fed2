//! The compiled pair scan: one predicate classifier and one blocking
//! index for every layer that enumerates the tuple pairs of a two-tuple
//! denial constraint — violation detection ([`crate::violations`]) and the
//! relaxed-DC featurizer of the core crate.
//!
//! ## Classification ([`PairScan`])
//!
//! A scan fixes which tuple variable is the **probe** (the tuple in hand:
//! `t1` for detection, the target cell's tuple for the featurizer); the other variable ranges over **partners**.
//! Each predicate of the constraint lands in exactly one class:
//!
//! * **join** — a cross-tuple equality `t1.A = t2.B`. Its probe-side
//!   attribute joins [`PairScan::probe_key`], its partner-side attribute
//!   [`PairScan::partner_key`], and the predicate itself is *elided*:
//!   partners are bucketed by their key, the probe's key is the lookup, so
//!   every partner found already satisfies it.
//! * **probe-only** — reads the probe tuple and constants only (same-tuple
//!   cell–cell predicates included). Evaluated once per probe tuple; a
//!   false one means no partner can complete the pair.
//! * **partner-only** — reads the partner and constants only. Detection
//!   filters bucket members with these when it builds the index; layers
//!   whose buckets must hold every tuple evaluate them with the residuals.
//! * **residual** — reads both tuples. Its operands are pre-resolved to
//!   [`Side`]s, so binding the probe tuple ([`ScanPredicate::bind`]) leaves
//!   a comparison between a constant and a partner column.
//!
//! `=` and `≠` are decided inline on [`Sym`]s with the workspace's null
//! rule (a null on either side satisfies nothing); the other five
//! operators go through [`eval_op`].
//!
//! ## Index layout ([`BlockIndex`])
//!
//! One index serves every constraint with the same join key. Tuples whose
//! partner-side key has no null are grouped into buckets; all buckets live
//! in one flat arena — `members[offsets[b]..offsets[b + 1]]`, ascending
//! tuple ids — built by a counting sort over one ascending pass, so the
//! order inside a bucket never depends on a thread count. Keys are read as
//! the table's value codes ([`Dataset::code`]), so a key resolves to its
//! bucket without hashing a value or allocating: the first key attribute's
//! code indexes a dense table as long as that attribute's dictionary, every
//! further attribute folds `(code so far, its code)` through a hash map.
//! Beside the members, the partner attributes
//! the sharing constraints read are **packed** column-wise
//! ([`PackedColumn`]): one contiguous run per bucket per column, parallel
//! to the member run, so a residual scan walks memory linearly and never
//! touches the dataset. Per bucket and column the index also records the
//! **value groups** — each distinct non-null value with how many members
//! hold it, ascending by value, in one flat arena — and their total, so
//! "how many members hold a non-null value other than `v`"
//! ([`PackedColumn::differing`]) is a binary search, not a scan.
//!
//! One index serves every scan with the same partner key
//! ([`build_shared`]): what an index holds depends on the key its members
//! are bucketed by, the columns packed and the member filter, never on the
//! probe side.
//!
//! ## Whole-bucket refutation
//!
//! [`ScanPredicate::refuted_by`] decides, before a bucket is scanned, that
//! a bound residual holds for none of its members:
//!
//! * a bound side is the null constant — by the null rule no operator
//!   holds (the probe's cell is missing);
//! * the residual is `v ≠ column` and no member of the bucket holds a
//!   non-null value other than `v`.
//!
//! ## The FD shape ([`PairScan::fd_shape`])
//!
//! A non-empty join key, one residual `probe attr ≠ partner column` and
//! nothing else — every constraint the `FD:` sugar produces. For a probe
//! holding `v`, the partners that complete a violation are exactly the
//! bucket's members outside `v`'s value group, so the groups answer
//! *how many* in O(1) (the relaxed-DC featurizer) and *whether any*
//! per bucket (detection), and nobody compares the probe with the
//! members of its own group. Both layers select this path from the
//! constraint's predicates alone; every other two-tuple constraint takes
//! the general scan.

use crate::ast::{eval_op, DenialConstraint, Op, Operand, TupleVar};
use holo_dataset::{AttrId, Dataset, FxHashMap, Sym, TupleId, NULL_CODE};
use std::ops::Range;

/// One operand of a compiled predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Side {
    /// An attribute of the probe tuple. [`ScanPredicate::bind`] freezes it
    /// to the tuple's value — except an attribute the caller keeps
    /// symbolic (the featurizer's candidate), which reads `d` at
    /// evaluation.
    Probe(AttrId),
    /// A partner attribute, as an index into [`PairScan::partner_attrs`].
    Partner(usize),
    /// A constant.
    Const(Sym),
}

/// A predicate with its operands resolved for one probe role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPredicate {
    /// Left operand.
    pub lhs: Side,
    /// The comparison operator.
    pub op: Op,
    /// Right operand.
    pub rhs: Side,
}

impl ScanPredicate {
    /// Freezes the probe sides to the values of `probe`, leaving only the
    /// attribute `keep` (if any) symbolic.
    pub fn bind(&self, ds: &Dataset, probe: TupleId, keep: Option<AttrId>) -> ScanPredicate {
        let bind_side = |side: Side| match side {
            Side::Probe(attr) if Some(attr) != keep => Side::Const(ds.cell(probe, attr)),
            other => other,
        };
        ScanPredicate {
            lhs: bind_side(self.lhs),
            op: self.op,
            rhs: bind_side(self.rhs),
        }
    }

    /// Whether the predicate holds when every still-symbolic probe side
    /// reads `d` and partner column `col` reads `partner(col)`.
    #[inline]
    pub fn holds(&self, ds: &Dataset, d: Sym, partner: impl Fn(usize) -> Sym) -> bool {
        let read = |side: Side| match side {
            Side::Probe(_) => d,
            Side::Partner(col) => partner(col),
            Side::Const(sym) => sym,
        };
        let (lhs, rhs) = (read(self.lhs), read(self.rhs));
        // The two operators every FD-shaped constraint uses, decided
        // inline; `eval_op` agrees on both.
        match self.op {
            Op::Eq => lhs == rhs && !lhs.is_null(),
            Op::Neq => lhs != rhs && !lhs.is_null() && !rhs.is_null(),
            op => eval_op(ds, lhs, op, rhs),
        }
    }

    /// Whether this *bound* predicate holds for no member of `bucket` —
    /// the whole-bucket refutation of the module docs. `columns[col]` is
    /// the packed column behind `Side::Partner(col)`.
    pub fn refuted_by(&self, columns: &[&PackedColumn], bucket: usize) -> bool {
        let null_const = |side: Side| matches!(side, Side::Const(sym) if sym.is_null());
        if null_const(self.lhs) || null_const(self.rhs) {
            return true;
        }
        match (self.op, self.lhs, self.rhs) {
            (Op::Neq, Side::Const(v), Side::Partner(col))
            | (Op::Neq, Side::Partner(col), Side::Const(v)) => {
                columns[col].differing(bucket, v) == 0
            }
            _ => false,
        }
    }
}

/// A two-tuple constraint classified for one probe role (module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairScan {
    /// Probe-side attributes of the join equalities, in predicate order —
    /// the lookup key.
    pub probe_key: Vec<AttrId>,
    /// Partner-side attributes of the join equalities, in the same order —
    /// the blocking key.
    pub partner_key: Vec<AttrId>,
    /// Predicates with no partner operand.
    pub probe_only: Vec<ScanPredicate>,
    /// Predicates with no probe operand.
    pub partner_only: Vec<ScanPredicate>,
    /// Predicates reading both tuples, join equalities excepted.
    pub residual: Vec<ScanPredicate>,
    /// The partner attributes `partner_only` and `residual` read, in
    /// first-use order: `Side::Partner(col)` reads `partner_attrs[col]`.
    pub partner_attrs: Vec<AttrId>,
}

impl PairScan {
    /// Classifies the predicates of the two-tuple constraint `c` with
    /// `probe` as the tuple in hand.
    pub fn new(c: &DenialConstraint, probe: TupleVar) -> Self {
        let mut scan = PairScan::default();
        for p in &c.predicates {
            if let (Op::Eq, Operand::Cell(rhs_tuple, rhs_attr)) = (p.op, p.rhs) {
                if rhs_tuple != p.lhs_tuple {
                    let (probe_attr, partner_attr) = if p.lhs_tuple == probe {
                        (p.lhs_attr, rhs_attr)
                    } else {
                        (rhs_attr, p.lhs_attr)
                    };
                    scan.probe_key.push(probe_attr);
                    scan.partner_key.push(partner_attr);
                    continue;
                }
            }
            let lhs = scan.side(probe, p.lhs_tuple, p.lhs_attr);
            let rhs = match p.rhs {
                Operand::Cell(tuple, attr) => scan.side(probe, tuple, attr),
                Operand::Const(sym) => Side::Const(sym),
            };
            let reads_probe = [lhs, rhs].iter().any(|s| matches!(s, Side::Probe(_)));
            let reads_partner = [lhs, rhs].iter().any(|s| matches!(s, Side::Partner(_)));
            let class = match (reads_probe, reads_partner) {
                (_, false) => &mut scan.probe_only,
                (false, true) => &mut scan.partner_only,
                (true, true) => &mut scan.residual,
            };
            class.push(ScanPredicate { lhs, op: p.op, rhs });
        }
        scan
    }

    /// The operand for `tuple.attr`, giving a partner attribute its column.
    fn side(&mut self, probe: TupleVar, tuple: TupleVar, attr: AttrId) -> Side {
        if tuple == probe {
            return Side::Probe(attr);
        }
        let col = self.partner_attrs.iter().position(|&a| a == attr);
        Side::Partner(col.unwrap_or_else(|| {
            self.partner_attrs.push(attr);
            self.partner_attrs.len() - 1
        }))
    }

    /// The FD shape (module docs): `(probe attribute, partner column)` of
    /// the one residual when the scan is a non-empty join key plus
    /// `probe attr ≠ partner column` and nothing else.
    pub fn fd_shape(&self) -> Option<(AttrId, usize)> {
        let [residual] = self.residual.as_slice() else {
            return None;
        };
        if self.probe_key.is_empty() || !self.probe_only.is_empty() || !self.partner_only.is_empty()
        {
            return None;
        }
        match (residual.op, residual.lhs, residual.rhs) {
            (Op::Neq, Side::Probe(attr), Side::Partner(col))
            | (Op::Neq, Side::Partner(col), Side::Probe(attr)) => Some((attr, col)),
            _ => None,
        }
    }

    /// Whether the probe-only predicates hold on `probe` as stored — if
    /// not, it completes a pair with no partner.
    pub fn admits(&self, ds: &Dataset, probe: TupleId) -> bool {
        let holds = |p: &ScanPredicate| p.bind(ds, probe, None).holds(ds, Sym::NULL, |_| Sym::NULL);
        self.probe_only.iter().all(holds)
    }

    /// The probe tuple's lookup key when its cell `subst.0` reads
    /// `subst.1` instead of the stored value: each probe value as its code
    /// in the partner attribute it joins ([`NULL_CODE`] if null or never
    /// held there). A stored value joining its own attribute is its code
    /// already; any other is looked up.
    pub fn probe_key_of<'a>(
        &'a self,
        ds: &'a Dataset,
        probe: TupleId,
        subst: Option<(AttrId, Sym)>,
    ) -> impl Iterator<Item = u32> + 'a {
        let joins = self.probe_key.iter().zip(&self.partner_key);
        joins.map(move |(&attr, &partner)| match subst {
            Some((a, d)) if a == attr => ds.code_of(partner, d),
            _ if attr == partner => ds.code(probe, attr),
            _ => ds.code_of(partner, ds.cell(probe, attr)),
        })
    }
}

/// "No bucket" in the key tables.
const NONE: u32 = u32::MAX;

/// One partner attribute packed beside the bucket arena.
#[derive(Debug)]
pub struct PackedColumn {
    attr: AttrId,
    /// `values[i]` is the cell of `members[i]`.
    values: Vec<Sym>,
    /// Bucket `b`'s value groups are
    /// `groups[group_offsets[b]..group_offsets[b + 1]]`: each distinct
    /// non-null value with the number of members holding it, ascending by
    /// value.
    group_offsets: Vec<u32>,
    groups: Vec<(Sym, u32)>,
    /// Per bucket: members holding a non-null value (the sum of its
    /// groups' counts).
    non_null: Vec<u32>,
}

impl PackedColumn {
    /// The packed values, parallel to [`BlockIndex::members`].
    #[inline]
    pub fn values(&self) -> &[Sym] {
        &self.values
    }

    /// The value groups of `bucket`: `(value, members holding it)` for
    /// each distinct non-null value, ascending by value.
    #[inline]
    pub fn groups(&self, bucket: usize) -> &[(Sym, u32)] {
        &self.groups[self.group_offsets[bucket] as usize..self.group_offsets[bucket + 1] as usize]
    }

    /// Members of `bucket` holding a non-null value.
    #[inline]
    pub fn non_null(&self, bucket: usize) -> u32 {
        self.non_null[bucket]
    }

    /// Members of `bucket` holding a non-null value other than `v` — the
    /// partners `v ≠ column` holds for, when `v` is not null.
    #[inline]
    pub fn differing(&self, bucket: usize, v: Sym) -> u32 {
        let groups = self.groups(bucket);
        let held = groups
            .binary_search_by_key(&v, |&(value, _)| value)
            .map_or(0, |at| groups[at].1);
        self.non_null[bucket] - held
    }
}

/// Tuples blocked by one join key (module docs).
#[derive(Debug)]
pub struct BlockIndex {
    /// Table code of the first key attribute → level code (`NONE` if no
    /// member holds it). With a one-attribute key the code is the bucket
    /// id.
    first: Vec<u32>,
    /// One map per further key attribute: `(code so far, table code)` →
    /// level code. The last level's code is the bucket id.
    rest: Vec<FxHashMap<(u32, u32), u32>>,
    /// Bucket `b` is `members[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<u32>,
    members: Vec<TupleId>,
    columns: Vec<PackedColumn>,
}

impl BlockIndex {
    /// Blocks the tuples of `ds` that pass `keep` by their
    /// `partner_key` cells (a tuple with a null key cell joins nothing and
    /// is left out; an empty key puts every tuple in one bucket) and packs
    /// the `packed` attributes beside them.
    pub fn build(
        ds: &Dataset,
        partner_key: &[AttrId],
        packed: &[AttrId],
        keep: impl Fn(TupleId) -> bool,
    ) -> Self {
        let width = partner_key.len();
        let first_codes = partner_key.first().map_or(0, |&a| ds.dictionary(a).len());
        let mut first = vec![NONE; first_codes];
        let mut rest: Vec<FxHashMap<(u32, u32), u32>> =
            vec![FxHashMap::default(); width.saturating_sub(1)];
        // Pass 1: every tuple's bucket and the bucket sizes. The codes of
        // a key level are dense in first-appearance order, and the last
        // level's codes are the bucket ids.
        let mut next_code = vec![0u32; width];
        let mut bucket_of: Vec<u32> = Vec::with_capacity(ds.tuple_count());
        let mut sizes: Vec<u32> = Vec::new();
        'tuples: for t in ds.tuples() {
            if !keep(t) {
                bucket_of.push(NONE);
                continue;
            }
            let mut code = 0u32;
            for (level, &attr) in partner_key.iter().enumerate() {
                let value = ds.code(t, attr);
                if value == NULL_CODE {
                    bucket_of.push(NONE);
                    continue 'tuples;
                }
                let slot = if level == 0 {
                    &mut first[value as usize]
                } else {
                    rest[level - 1].entry((code, value)).or_insert(NONE)
                };
                if *slot == NONE {
                    *slot = next_code[level];
                    next_code[level] += 1;
                }
                code = *slot;
            }
            if code as usize == sizes.len() {
                sizes.push(0);
            }
            sizes[code as usize] += 1;
            bucket_of.push(code);
        }
        // Pass 2: scatter into the arena; ascending tuples keep every
        // bucket ascending.
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut total = 0u32;
        for &size in &sizes {
            offsets.push(total);
            total += size;
        }
        offsets.push(total);
        let mut cursor = offsets.clone();
        let mut members = vec![TupleId(0); total as usize];
        for (t, &bucket) in ds.tuples().zip(&bucket_of) {
            if bucket != NONE {
                let at = &mut cursor[bucket as usize];
                members[*at as usize] = t;
                *at += 1;
            }
        }
        let mut index = BlockIndex {
            first,
            rest,
            offsets,
            members,
            columns: Vec::new(),
        };
        index.columns = packed.iter().map(|&attr| index.pack(ds, attr)).collect();
        index
    }

    fn pack(&self, ds: &Dataset, attr: AttrId) -> PackedColumn {
        let values: Vec<Sym> = self.members.iter().map(|&t| ds.cell(t, attr)).collect();
        let mut group_offsets = Vec::with_capacity(self.offsets.len());
        let mut groups: Vec<(Sym, u32)> = Vec::new();
        let mut non_null = Vec::with_capacity(self.bucket_count());
        let mut sorted: Vec<Sym> = Vec::new();
        for bucket in 0..self.bucket_count() {
            group_offsets.push(groups.len() as u32);
            let run = &values[self.range(bucket)];
            // A bucket is never empty. The common one — every member
            // agrees — is one group (none if the value is null), unsorted.
            if run.iter().all(|&v| v == run[0]) {
                if !run[0].is_null() {
                    groups.push((run[0], run.len() as u32));
                }
            } else {
                sorted.clear();
                sorted.extend(run.iter().filter(|v| !v.is_null()));
                sorted.sort_unstable();
                let same = sorted.chunk_by(|a, b| a == b);
                groups.extend(same.map(|group| (group[0], group.len() as u32)));
            }
            let held = &groups[group_offsets[bucket] as usize..];
            non_null.push(held.iter().map(|&(_, count)| count).sum());
        }
        group_offsets.push(groups.len() as u32);
        PackedColumn {
            attr,
            values,
            group_offsets,
            groups,
            non_null,
        }
    }

    /// The bucket whose members' partner-side key equals `key` (one table
    /// code per key attribute, in key order, as
    /// [`PairScan::probe_key_of`] gives it); none if a code is
    /// [`NULL_CODE`] or no member has that key.
    #[inline]
    pub fn lookup(&self, key: impl IntoIterator<Item = u32>) -> Option<usize> {
        let mut code = 0u32;
        for (level, value) in key.into_iter().enumerate() {
            code = if level == 0 {
                *self.first.get(value as usize)?
            } else {
                *self.rest[level - 1].get(&(code, value))?
            };
        }
        // `NONE` (an unseen first symbol) and the empty index of an empty
        // key both fall outside the bucket range.
        ((code as usize) < self.bucket_count()).then_some(code as usize)
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The arena positions of `bucket`'s members.
    #[inline]
    pub fn range(&self, bucket: usize) -> Range<usize> {
        self.offsets[bucket] as usize..self.offsets[bucket + 1] as usize
    }

    /// The member arena: every bucket's tuples, ascending inside a bucket.
    #[inline]
    pub fn members(&self) -> &[TupleId] {
        &self.members
    }

    /// The packed columns, in the order `build` was given their attributes.
    #[inline]
    pub fn packed(&self) -> &[PackedColumn] {
        &self.columns
    }

    /// Where the columns behind a scan's `Side::Partner(col)` operands sit
    /// in [`BlockIndex::packed`], for an index shared by several scans:
    /// `Side::Partner(col)` reads `packed()[slots[col]]`.
    ///
    /// # Panics
    /// Panics if the index was built without one of `scan.partner_attrs`.
    pub fn slots_of(&self, scan: &PairScan) -> Vec<usize> {
        let slot = |attr: &AttrId| self.columns.iter().position(|c| c.attr == *attr);
        scan.partner_attrs
            .iter()
            .map(|attr| slot(attr).expect("the index packs every attribute its scans read"))
            .collect()
    }

    /// The packed columns behind a scan's `Side::Partner(col)` operands
    /// ([`BlockIndex::slots_of`], resolved).
    pub fn columns_of(&self, scan: &PairScan) -> Vec<&PackedColumn> {
        let slots = self.slots_of(scan);
        slots.into_iter().map(|slot| &self.columns[slot]).collect()
    }
}

/// Builds the indexes `scans` probe, **one per distinct partner key** —
/// the FD sugar `X → A, B` expands to one constraint per right-hand
/// attribute, all blocked on `X` — each packing the union of the columns
/// its scans read, on up to `threads` threads (one job per index). Returns
/// the indexes and, per scan, the one it probes (`None` stays `None`).
///
/// With `filter_members` (detection) an index holds only the tuples that
/// pass its scan's partner-only predicates, so a scan that has any keeps
/// an index of its own. Without (layers that cap *visited* partners, and
/// so evaluate partner-only predicates per partner) every index holds
/// every tuple with a non-null key.
pub fn build_shared(
    ds: &Dataset,
    scans: &[Option<&PairScan>],
    filter_members: bool,
    threads: usize,
) -> (Vec<BlockIndex>, Vec<Option<usize>>) {
    struct KeyGroup<'a> {
        scan: &'a PairScan,
        private: bool,
        /// Union of the members' `partner_attrs`, in first-use order.
        packed: Vec<AttrId>,
    }
    let mut groups: Vec<KeyGroup> = Vec::new();
    let index_of = scans
        .iter()
        .map(|scan| {
            let scan = (*scan)?;
            let private = filter_members && !scan.partner_only.is_empty();
            let shared = groups
                .iter()
                .position(|g| !private && !g.private && g.scan.partner_key == scan.partner_key);
            let at = shared.unwrap_or_else(|| {
                groups.push(KeyGroup {
                    scan,
                    private,
                    packed: Vec::new(),
                });
                groups.len() - 1
            });
            for &attr in &scan.partner_attrs {
                if !groups[at].packed.contains(&attr) {
                    groups[at].packed.push(attr);
                }
            }
            Some(at)
        })
        .collect();
    let indexes = holo_parallel::parallel_jobs(threads, groups.len(), |g| {
        let KeyGroup {
            scan,
            private,
            packed,
        } = &groups[g];
        BlockIndex::build(ds, &scan.partner_key, packed, |t2| {
            let cell = |col: usize| ds.cell(t2, scan.partner_attrs[col]);
            let passes = |p: &ScanPredicate| p.holds(ds, Sym::NULL, cell);
            !private || scan.partner_only.iter().all(passes)
        })
    });
    (indexes, index_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraints;
    use holo_dataset::Schema;

    fn table() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["K", "L", "A", "B"]));
        ds.push_row(&["k1", "l1", "x", "p"]); // t0
        ds.push_row(&["k2", "l1", "", ""]); // t1
        ds.push_row(&["k1", "l2", "x", "q"]); // t2
        ds.push_row(&["", "l1", "y", "p"]); // t3: null key
        ds.push_row(&["k2", "l1", "", "q"]); // t4
        ds.push_row(&["k1", "l1", "x", ""]); // t5
        ds
    }

    #[test]
    fn predicates_land_in_one_class_each() {
        let mut ds = table();
        let cons = parse_constraints(
            "t1&t2&EQ(t1.K,t2.L)&EQ(t2.K,t1.K)&IQ(t1.A,t2.A)&EQ(t1.B,\"p\")&IQ(t2.B,\"q\")&LT(t1.A,t1.B)&GT(t2.A,t2.B)",
            &mut ds,
        )
        .unwrap();
        let attr = |name: &str| ds.schema().attr_id(name).unwrap();
        let (k, l, a, b) = (attr("K"), attr("L"), attr("A"), attr("B"));
        let p = ds.pool().get("p").unwrap();
        let q = ds.pool().get("q").unwrap();

        let scan = PairScan::new(cons.get(0), TupleVar::T1);
        // Both joins elided into the key, each oriented probe → partner.
        assert_eq!(
            (&scan.probe_key, &scan.partner_key),
            (&vec![k, k], &vec![l, k])
        );
        assert_eq!(scan.partner_attrs, vec![a, b]);
        let pred = |lhs, op, rhs| ScanPredicate { lhs, op, rhs };
        assert_eq!(
            scan.residual,
            vec![pred(Side::Probe(a), Op::Neq, Side::Partner(0))]
        );
        assert_eq!(
            scan.probe_only,
            vec![
                pred(Side::Probe(b), Op::Eq, Side::Const(p)),
                pred(Side::Probe(a), Op::Lt, Side::Probe(b)),
            ]
        );
        assert_eq!(
            scan.partner_only,
            vec![
                pred(Side::Partner(1), Op::Neq, Side::Const(q)),
                pred(Side::Partner(0), Op::Gt, Side::Partner(1)),
            ]
        );

        // The same constraint with t2 in hand: keys and classes swap.
        let back = PairScan::new(cons.get(0), TupleVar::T2);
        assert_eq!(
            (&back.probe_key, &back.partner_key),
            (&vec![l, k], &vec![k, k])
        );
        assert_eq!(back.probe_only.len(), 2);
        assert_eq!(back.partner_only.len(), 2);
        assert_eq!(
            back.residual,
            vec![pred(Side::Partner(0), Op::Neq, Side::Probe(a))]
        );
    }

    #[test]
    fn buckets_are_ascending_runs_of_one_arena_with_packed_columns() {
        let ds = table();
        let attr = |name: &str| ds.schema().attr_id(name).unwrap();
        let sym = |s: &str| ds.pool().get(s).unwrap();
        let index = BlockIndex::build(&ds, &[attr("K")], &[attr("A"), attr("B")], |_| true);
        assert_eq!(index.bucket_count(), 2);
        let members = |b: usize| index.members()[index.range(b)].to_vec();
        let k = |s: &str| ds.code_of(attr("K"), sym(s));
        let k1 = index.lookup([k("k1")]).unwrap();
        let k2 = index.lookup([k("k2")]).unwrap();
        assert_eq!(members(k1), vec![TupleId(0), TupleId(2), TupleId(5)]);
        assert_eq!(members(k2), vec![TupleId(1), TupleId(4)]);
        // Null and unseen keys find nothing; the null-keyed t3 is in no bucket.
        assert_eq!(index.lookup([NULL_CODE]), None);
        assert_eq!(k("l1"), NULL_CODE, "never a value of K");
        assert_eq!(index.members().len(), 5);

        let [a, b] = index.packed() else {
            panic!("two packed columns")
        };
        assert_eq!(&a.values()[index.range(k1)], &[sym("x"); 3]);
        // Value groups: non-null values only, ascending, with their total.
        assert_eq!(a.groups(k1), &[(sym("x"), 3)]);
        assert_eq!((a.groups(k2), a.non_null(k2)), (&[][..], 0), "all null");
        let mut want = vec![(sym("p"), 1), (sym("q"), 1)];
        want.sort_unstable();
        assert_eq!((b.groups(k1), b.non_null(k1)), (want.as_slice(), 2));
        assert_eq!(
            b.groups(k2),
            &[(sym("q"), 1)],
            "the null member is in no group"
        );
        // Members holding a non-null value other than the one asked about.
        assert_eq!(a.differing(k1, sym("x")), 0);
        assert_eq!(a.differing(k1, sym("y")), 3);
        assert_eq!(b.differing(k1, sym("p")), 1);
        assert_eq!(
            b.differing(k2, sym("q")),
            0,
            "a null is not a differing value"
        );
        assert_eq!(b.differing(k2, sym("p")), 1);
    }

    #[test]
    fn fd_shape_is_a_key_and_one_inequality() {
        let mut ds = table();
        let cons = parse_constraints(
            "FD: K, L -> A
             t1&t2&EQ(t1.K,t2.L)&IQ(t2.B,t1.A)
             t1&t2&IQ(t1.A,t2.A)
             t1&t2&EQ(t1.K,t2.K)&LT(t1.A,t2.A)
             t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.A)&IQ(t1.B,t2.B)
             t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.A)&EQ(t1.B,\"p\")
             t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.A)&EQ(t2.B,\"p\")
             t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,\"x\")",
            &mut ds,
        )
        .unwrap();
        let attr = |name: &str| ds.schema().attr_id(name).unwrap();
        let shape = |sigma: usize, role| PairScan::new(cons.get(sigma), role).fd_shape();
        assert_eq!(shape(0, TupleVar::T1), Some((attr("A"), 0)));
        // A cross-attribute key and residual, written partner-first: still
        // the shape, from either role.
        assert_eq!(shape(1, TupleVar::T1), Some((attr("A"), 0)));
        assert_eq!(shape(1, TupleVar::T2), Some((attr("B"), 0)));
        // No key; another operator; two residuals; a probe-only, a
        // partner-only or a constant predicate: the general scan.
        for sigma in 2..cons.len() {
            assert_eq!(shape(sigma, TupleVar::T1), None, "constraint {sigma}");
            assert_eq!(shape(sigma, TupleVar::T2), None, "constraint {sigma}");
        }
    }

    #[test]
    fn scans_share_one_index_per_partner_key() {
        let mut ds = table();
        let cons = parse_constraints(
            "FD: K -> A, B
             t1&t2&EQ(t1.L,t2.K)&LT(t1.A,t2.L)
             t1&t2&EQ(t1.K,t2.K)&IQ(t1.A,t2.A)&IQ(t2.B,\"q\")
             FD: K, L -> A
             t1&t2&IQ(t1.A,t2.A)",
            &mut ds,
        )
        .unwrap();
        let attr = |name: &str| ds.schema().attr_id(name).unwrap();
        let scans: Vec<PairScan> = cons
            .iter()
            .map(|(_, c)| PairScan::new(c, TupleVar::T1))
            .collect();
        // The join-free constraint asks for no index.
        let asked: Vec<Option<&PairScan>> = scans
            .iter()
            .map(|s| (!s.probe_key.is_empty()).then_some(s))
            .collect();
        for threads in [1, 3] {
            // Unfiltered: the partner key alone decides, whatever the
            // probe side and the partner-only predicates are.
            let (indexes, index_of) = build_shared(&ds, &asked, false, threads);
            assert_eq!(
                index_of,
                [Some(0), Some(0), Some(0), Some(0), Some(1), None]
            );
            assert_eq!(indexes.len(), 2);
            let packed: Vec<AttrId> = indexes[0].packed().iter().map(|c| c.attr).collect();
            assert_eq!(
                packed,
                [attr("A"), attr("B"), attr("L")],
                "the union, first use first"
            );
            assert_eq!(indexes[0].slots_of(&scans[2]), [2]);
            assert_eq!(indexes[0].members().len(), 5);
            // Filtered: the constraint with a partner-only predicate keeps
            // an index of its own, thinned to the members that pass it.
            let (indexes, index_of) = build_shared(&ds, &asked, true, threads);
            assert_eq!(
                index_of,
                [Some(0), Some(0), Some(0), Some(1), Some(2), None]
            );
            let thinned: Vec<TupleId> = indexes[1].members().to_vec();
            assert_eq!(thinned, [TupleId(0)], "B is non-null and not q on t0 alone");
        }
    }

    #[test]
    fn wider_keys_fold_and_the_empty_key_is_one_bucket() {
        let ds = table();
        let attr = |name: &str| ds.schema().attr_id(name).unwrap();
        let sym = |s: &str| ds.pool().get(s).unwrap();
        let index = BlockIndex::build(&ds, &[attr("K"), attr("L")], &[], |t| t != TupleId(4));
        let members = |[k, l]: [Sym; 2]| {
            let key = [ds.code_of(attr("K"), k), ds.code_of(attr("L"), l)];
            index
                .lookup(key)
                .map(|b| index.members()[index.range(b)].to_vec())
        };
        assert_eq!(
            members([sym("k1"), sym("l1")]),
            Some(vec![TupleId(0), TupleId(5)])
        );
        assert_eq!(members([sym("k1"), sym("l2")]), Some(vec![TupleId(2)]));
        // t4 was filtered out, so (k2, l1) holds t1 alone.
        assert_eq!(members([sym("k2"), sym("l1")]), Some(vec![TupleId(1)]));
        assert_eq!(members([sym("k2"), sym("l2")]), None);
        assert_eq!(members([sym("l1"), sym("k1")]), None, "order matters");
        assert_eq!(members([sym("k1"), Sym::NULL]), None);

        let all = BlockIndex::build(&ds, &[], &[], |_| true);
        assert_eq!(all.lookup([]), Some(0));
        assert_eq!(all.members().len(), 6);
        let empty = Dataset::new(Schema::new(vec!["K"]));
        assert_eq!(
            BlockIndex::build(&empty, &[], &[], |_| true).lookup([]),
            None
        );
    }

    /// The refutation rule case by case, the two null cases included. A
    /// refuted bucket is merely not scanned — the member loop applies the
    /// null rule itself — so a missing case costs time, never output, and
    /// only a direct test can pin it.
    #[test]
    fn refutation_rule() {
        let ds = table();
        let attr = |name: &str| ds.schema().attr_id(name).unwrap();
        let sym = |s: &str| ds.pool().get(s).unwrap();
        let index = BlockIndex::build(&ds, &[attr("K")], &[attr("A"), attr("B")], |_| true);
        let columns: Vec<&PackedColumn> = index.packed().iter().collect();
        let k = |s: &str| ds.code_of(attr("K"), sym(s));
        let k1 = index.lookup([k("k1")]).unwrap();
        let k2 = index.lookup([k("k2")]).unwrap();
        let neq = |v: Sym, col: usize| ScanPredicate {
            lhs: Side::Const(v),
            op: Op::Neq,
            rhs: Side::Partner(col),
        };
        // A is uniformly "x" in k1: `x ≠ A` cannot hold, `y ≠ A` can.
        assert!(neq(sym("x"), 0).refuted_by(&columns, k1));
        assert!(!neq(sym("y"), 0).refuted_by(&columns, k1));
        // Null case 1: the bound probe value is null.
        assert!(neq(Sym::NULL, 1).refuted_by(&columns, k1));
        // Null case 2: the column is uniformly null.
        assert!(neq(sym("x"), 0).refuted_by(&columns, k2));
        // Null case 3: nulls beside the probe's own value refute as well.
        assert!(neq(sym("q"), 1).refuted_by(&columns, k2));
        assert!(!neq(sym("p"), 1).refuted_by(&columns, k2));
        // A mixed column refutes nothing, and neither does another operator.
        assert!(!neq(sym("p"), 1).refuted_by(&columns, k1));
        let mut eq = neq(sym("x"), 0);
        eq.op = Op::Eq;
        assert!(!eq.refuted_by(&columns, k1));
        // Either way round.
        let flipped = ScanPredicate {
            lhs: Side::Partner(0),
            op: Op::Neq,
            rhs: Side::Const(sym("x")),
        };
        assert!(flipped.refuted_by(&columns, k1));
    }
}
