//! Conflict hypergraph and Algorithm 3 tuple partitioning.
//!
//! The conflict hypergraph \[26\] has one node per cell that participates in a
//! detected violation; each violation contributes a hyperedge annotated with
//! the constraint that produced it. Algorithm 3 of the paper takes, for each
//! constraint σ, the subgraph `H_σ` of σ's hyperedges, computes its
//! connected components, and lets each component define a group of tuples.
//! DC factors are then grounded only for tuple pairs inside the same group,
//! bounding grounding by `Σ_g |g|²` instead of `|Σ||D|²`.
//!
//! The groups need only the violations' tuple pairs: [`tuple_group_ids`]
//! computes them from the violation slice as dense per-constraint tables,
//! and [`ConflictHypergraph::tuple_groups`] lists those tables. The
//! hypergraph's cell index serves the Holistic baseline.

use crate::ast::ConstraintId;
use crate::violations::Violation;
use holo_dataset::{CellRef, FxHashMap, TupleId};

/// Union-find over dense indices with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Merges the sets containing `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        big
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The conflict hypergraph over detected violations.
#[derive(Debug, Clone, Default)]
pub struct ConflictHypergraph {
    /// All hyperedges, i.e. the violations themselves.
    violations: Vec<Violation>,
    /// Cell → indices of violations it participates in.
    by_cell: FxHashMap<CellRef, Vec<usize>>,
}

impl ConflictHypergraph {
    /// Builds the hypergraph from detected violations.
    pub fn build(violations: Vec<Violation>) -> Self {
        let mut by_cell: FxHashMap<CellRef, Vec<usize>> = FxHashMap::default();
        for (i, v) in violations.iter().enumerate() {
            for &cell in &v.cells {
                by_cell.entry(cell).or_default().push(i);
            }
        }
        ConflictHypergraph {
            violations,
            by_cell,
        }
    }

    /// All hyperedges.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Cells that participate in at least one violation.
    pub fn noisy_cells(&self) -> impl Iterator<Item = CellRef> + '_ {
        self.by_cell.keys().copied()
    }

    /// The violations a given cell participates in.
    pub fn violations_of(&self, cell: CellRef) -> &[usize] {
        self.by_cell.get(&cell).map_or(&[], Vec::as_slice)
    }

    /// Number of violations the cell participates in (its hyperdegree).
    pub fn degree(&self, cell: CellRef) -> usize {
        self.violations_of(cell).len()
    }

    /// Algorithm 3: per-constraint connected components of `H_σ`, returned
    /// as `(σ, tuples in the component)` groups — constraints ascending,
    /// groups by smallest member, members ascending. The groups are
    /// [`tuple_group_ids`]'s, listed.
    pub fn tuple_groups(&self, tuple_count: usize) -> TupleGroups {
        let constraints = self.violations.iter().map(|v| v.constraint + 1).max();
        let tables = tuple_group_ids(&self.violations, constraints.unwrap_or(0), tuple_count);
        let mut groups = Vec::new();
        for (sigma, ids) in tables.into_iter().enumerate() {
            // Ids are numbered by smallest member, so a tuple scan meets
            // each group's id first in id order.
            let mut members: Vec<Vec<TupleId>> = Vec::new();
            for (t, &id) in ids.iter().enumerate() {
                if id == NO_GROUP {
                    continue;
                }
                if id as usize == members.len() {
                    members.push(Vec::new());
                }
                members[id as usize].push(TupleId(t as u32));
            }
            groups.extend(members.into_iter().map(|tuples| (sigma, tuples)));
        }
        TupleGroups { groups }
    }
}

/// The group id [`tuple_group_ids`] gives a tuple no violation of the
/// constraint names.
pub const NO_GROUP: u32 = u32::MAX;

/// Algorithm 3 straight from the violation list: for each constraint
/// `σ < constraints`, one group id per tuple — the connected component of
/// `H_σ` the tuple lies in, numbered from 0 by smallest member, or
/// [`NO_GROUP`] when no violation of σ names the tuple. One union-find per
/// constraint over the violations' `(t1, t2)`: the list is read in place,
/// with no copy and no cell index. The pipeline's groups come from
/// [`crate::find_tuple_groups_with_threads`], which lists nothing; this is
/// their reference, and [`ConflictHypergraph::tuple_groups`] lists it.
pub fn tuple_group_ids(
    violations: &[Violation],
    constraints: usize,
    tuple_count: usize,
) -> Vec<Vec<u32>> {
    let mut tables: Vec<GroupTable> = (0..constraints)
        .map(|_| GroupTable::new(tuple_count))
        .collect();
    for v in violations {
        tables[v.constraint].union(v.t1, v.t2);
    }
    tables.into_iter().map(GroupTable::finish).collect()
}

/// One constraint's group table while its witnessing pairs are unioned:
/// [`GroupTable::finish`] numbers the components.
pub(crate) struct GroupTable {
    /// Built on the first pair.
    uf: Option<UnionFind>,
    /// [`NAMED`] for a tuple some pair names, [`NO_GROUP`] otherwise.
    ids: Vec<u32>,
}

/// Marks a tuple some pair names, before its group is numbered.
const NAMED: u32 = NO_GROUP - 1;

impl GroupTable {
    pub(crate) fn new(tuple_count: usize) -> Self {
        GroupTable {
            uf: None,
            ids: vec![NO_GROUP; tuple_count],
        }
    }

    /// Puts `t1` and `t2` in one group.
    pub(crate) fn union(&mut self, t1: TupleId, t2: TupleId) {
        let n = self.ids.len();
        let uf = self.uf.get_or_insert_with(|| UnionFind::new(n));
        uf.union(t1.index(), t2.index());
        self.ids[t1.index()] = NAMED;
        self.ids[t2.index()] = NAMED;
    }

    /// The group id of every tuple, groups numbered by smallest member.
    pub(crate) fn finish(self) -> Vec<u32> {
        let mut table = self.ids;
        let Some(mut uf) = self.uf else {
            return table;
        };
        // Ascending tuples meet each component at its smallest member
        // first. The root is itself a named member, so its slot holds the
        // component's id from then on.
        let mut next = 0;
        for t in 0..table.len() {
            if table[t] == NO_GROUP {
                continue;
            }
            let root = uf.find(t);
            if table[root] == NAMED {
                table[root] = next;
                next += 1;
            }
            table[t] = table[root];
        }
        table
    }
}

/// The output of Algorithm 3: groups of tuples per constraint.
#[derive(Debug, Clone, Default)]
pub struct TupleGroups {
    /// `(constraint, tuples)` pairs; tuples sorted ascending inside a group.
    pub groups: Vec<(ConstraintId, Vec<TupleId>)>,
}

impl TupleGroups {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// `Σ_g |g|²` — the grounding bound the paper contrasts with
    /// `|Σ||D|²`.
    pub fn grounding_bound(&self) -> usize {
        self.groups.iter().map(|(_, g)| g.len() * g.len()).sum()
    }

    /// Groups belonging to constraint `sigma`.
    pub fn for_constraint(&self, sigma: ConstraintId) -> impl Iterator<Item = &[TupleId]> {
        self.groups
            .iter()
            .filter(move |(c, _)| *c == sigma)
            .map(|(_, g)| g.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraints;
    use crate::violations::find_violations;
    use holo_dataset::{Dataset, Schema};
    use proptest::prelude::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.connected(0, 1));
        uf.union(0, 1);
        uf.union(1, 2);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        uf.union(3, 4);
        assert!(uf.connected(3, 4));
        assert!(!uf.connected(2, 4));
    }

    fn sample() -> (Dataset, Vec<Violation>) {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]); // t0
        ds.push_row(&["60608", "Cicago"]); // t1 — conflicts with t0, t2
        ds.push_row(&["60608", "Chicago"]); // t2
        ds.push_row(&["60609", "Evanston"]); // t3 — clean, separate zip
        ds.push_row(&["60610", "Skokie"]); // t4
        ds.push_row(&["60610", "Skoki"]); // t5 — conflicts with t4
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        let v = find_violations(&ds, &cons);
        (ds, v)
    }

    #[test]
    fn hypergraph_degrees() {
        let (ds, v) = sample();
        let h = ConflictHypergraph::build(v);
        let city = ds.schema().attr_id("City").unwrap();
        // t1.City participates in two violations: (0,1) and (1,2).
        assert_eq!(
            h.degree(CellRef {
                tuple: TupleId(1),
                attr: city
            }),
            2
        );
        // t3 is clean.
        assert_eq!(
            h.degree(CellRef {
                tuple: TupleId(3),
                attr: city
            }),
            0
        );
        assert_eq!(h.violations().len(), 3);
    }

    #[test]
    fn tuple_groups_are_connected_components() {
        let (ds, v) = sample();
        let h = ConflictHypergraph::build(v);
        let groups = h.tuple_groups(ds.tuple_count());
        // Two components for the single constraint: {t0,t1,t2} and {t4,t5}.
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.groups.iter().map(|(_, g)| g.len()).collect();
        assert_eq!(sizes, vec![3, 2]);
        assert_eq!(groups.grounding_bound(), 9 + 4);
        // t3 appears in no group.
        assert!(groups.groups.iter().all(|(_, g)| !g.contains(&TupleId(3))));
    }

    #[test]
    fn groups_are_per_constraint() {
        let mut ds = Dataset::new(Schema::new(vec!["A", "B", "C"]));
        ds.push_row(&["x", "1", "p"]);
        ds.push_row(&["x", "2", "q"]); // violates A→B with t0
        ds.push_row(&["y", "3", "p"]);
        ds.push_row(&["z", "4", "p"]);
        let cons = parse_constraints("FD: A -> B\nFD: C -> A", &mut ds).unwrap();
        let v = find_violations(&ds, &cons);
        let h = ConflictHypergraph::build(v);
        let groups = h.tuple_groups(ds.tuple_count());
        // Constraint 0 (A→B): component {t0, t1}.
        let g0: Vec<_> = groups.for_constraint(0).collect();
        assert_eq!(g0, vec![&[TupleId(0), TupleId(1)][..]]);
        // Constraint 1 (C→A): t0, t2, t3 share C=p with different A.
        let g1: Vec<_> = groups.for_constraint(1).collect();
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].len(), 3);
    }

    #[test]
    fn empty_hypergraph() {
        let h = ConflictHypergraph::build(Vec::new());
        assert!(h.tuple_groups(10).is_empty());
        assert_eq!(h.noisy_cells().count(), 0);
    }

    /// The hash-map union-find `tuple_groups` ran before it read
    /// [`tuple_group_ids`], kept as its reference.
    fn reference_tuple_groups(violations: &[Violation], tuple_count: usize) -> TupleGroups {
        use holo_dataset::FxHashSet;
        let mut by_constraint: FxHashMap<ConstraintId, Vec<&Violation>> = FxHashMap::default();
        for v in violations {
            by_constraint.entry(v.constraint).or_default().push(v);
        }
        let mut groups = Vec::new();
        let mut constraint_ids: Vec<ConstraintId> = by_constraint.keys().copied().collect();
        constraint_ids.sort_unstable();
        for sigma in constraint_ids {
            let mut uf = UnionFind::new(tuple_count);
            let mut involved: FxHashSet<TupleId> = FxHashSet::default();
            for v in &by_constraint[&sigma] {
                involved.insert(v.t1);
                involved.insert(v.t2);
                uf.union(v.t1.index(), v.t2.index());
            }
            let mut components: FxHashMap<usize, Vec<TupleId>> = FxHashMap::default();
            let mut involved: Vec<TupleId> = involved.into_iter().collect();
            involved.sort_unstable();
            for t in involved {
                components.entry(uf.find(t.index())).or_default().push(t);
            }
            let mut comps: Vec<Vec<TupleId>> = components.into_values().collect();
            comps.sort_by_key(|c| c[0]);
            groups.extend(comps.into_iter().map(|tuples| (sigma, tuples)));
        }
        TupleGroups { groups }
    }

    proptest! {
        /// Union-find: union is idempotent, find is stable, all members of
        /// a chain end up connected.
        #[test]
        fn prop_union_chain(n in 2usize..50) {
            let mut uf = UnionFind::new(n);
            for i in 0..n - 1 {
                uf.union(i, i + 1);
            }
            for i in 0..n {
                prop_assert!(uf.connected(0, i));
            }
        }

        /// The direct Algorithm 3 groups are the reference's: over random
        /// violation lists — empty, single-tuple (`t1 == t2`), repeated
        /// and unordered pairs, up to 12 constraints some of which have no
        /// violation — `tuple_groups` lists the same groups in the same
        /// order, and each dense table numbers a constraint's groups in
        /// that order, every other tuple [`NO_GROUP`].
        #[test]
        fn direct_groups_equal_the_reference(
            pairs in proptest::collection::vec((0usize..12, 0u32..40, 0u32..40), 0..80),
            spare in 0usize..3,
        ) {
            let tuple_count = 40;
            let violations: Vec<Violation> = pairs
                .iter()
                .map(|&(constraint, t1, t2)| Violation {
                    constraint,
                    t1: TupleId(t1),
                    t2: TupleId(t2),
                    cells: std::iter::empty().collect(),
                })
                .collect();
            let reference = reference_tuple_groups(&violations, tuple_count);
            let h = ConflictHypergraph::build(violations.clone());
            prop_assert_eq!(&h.tuple_groups(tuple_count).groups, &reference.groups);
            let constraints = pairs.iter().map(|p| p.0 + 1).max().unwrap_or(0) + spare;
            let tables = tuple_group_ids(&violations, constraints, tuple_count);
            prop_assert_eq!(tables.len(), constraints);
            for (sigma, table) in tables.iter().enumerate() {
                let mut want = vec![NO_GROUP; tuple_count];
                for (id, group) in reference.for_constraint(sigma).enumerate() {
                    for t in group {
                        want[t.index()] = id as u32;
                    }
                }
                prop_assert_eq!(table, &want, "constraint {}", sigma);
            }
        }

        /// Every tuple appearing in a violation of σ appears in exactly one
        /// group of σ, and tuples of the same violation share a group.
        #[test]
        fn prop_groups_partition(
            rows in proptest::collection::vec((0u8..4, 0u8..4), 0..30)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
            for (z, c) in &rows {
                ds.push_row(&[format!("z{z}"), format!("c{c}")]);
            }
            let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
            let v = find_violations(&ds, &cons);
            let h = ConflictHypergraph::build(v.clone());
            let groups = h.tuple_groups(ds.tuple_count());
            for viol in &v {
                let containing: Vec<_> = groups
                    .for_constraint(viol.constraint)
                    .filter(|g| g.contains(&viol.t1) || g.contains(&viol.t2))
                    .collect();
                prop_assert_eq!(containing.len(), 1, "exactly one group");
                prop_assert!(containing[0].contains(&viol.t1));
                prop_assert!(containing[0].contains(&viol.t2));
            }
        }
    }
}
