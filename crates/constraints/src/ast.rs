//! The denial-constraint AST.
//!
//! A bound [`DenialConstraint`] references attributes by [`AttrId`] and
//! constants by interned [`Sym`], so predicate evaluation during violation
//! detection and grounding is integer work. The parser produces the raw
//! (string) form; [`crate::parser`] binds it against a dataset.

use holo_dataset::{AttrId, Dataset, Sym, TupleId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a constraint within a [`ConstraintSet`].
pub type ConstraintId = usize;

/// The predicate operator set `B = {=, ≠, <, >, ≤, ≥, ≈}` (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// `=`
    Eq,
    /// `≠`
    Neq,
    /// `<` (numeric if both sides parse, else lexicographic)
    Lt,
    /// `>`
    Gt,
    /// `≤`
    Leq,
    /// `≥`
    Geq,
    /// `≈` — normalised-Levenshtein similarity above the given threshold.
    Sim(f64),
}

impl Op {
    /// The negation of the operator, used when reasoning about repairs that
    /// *satisfy* a constraint (`¬(… ∧ P)` ⇒ one predicate must flip).
    pub fn negate(self) -> Op {
        match self {
            Op::Eq => Op::Neq,
            Op::Neq => Op::Eq,
            Op::Lt => Op::Geq,
            Op::Gt => Op::Leq,
            Op::Leq => Op::Gt,
            Op::Geq => Op::Lt,
            // ≈ has no crisp complement; negating a similarity predicate
            // keeps the threshold and flips the outcome at eval time.
            Op::Sim(t) => Op::Sim(t),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Eq => write!(f, "="),
            Op::Neq => write!(f, "!="),
            Op::Lt => write!(f, "<"),
            Op::Gt => write!(f, ">"),
            Op::Leq => write!(f, "<="),
            Op::Geq => write!(f, ">="),
            Op::Sim(t) => write!(f, "~{t}"),
        }
    }
}

/// Which universally-quantified tuple variable a cell reference names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TupleVar {
    /// The first quantified tuple `t1`.
    T1,
    /// The second quantified tuple `t2`.
    T2,
}

/// Right-hand side of a predicate: another cell or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// A cell `t[A]` of one of the quantified tuples.
    Cell(TupleVar, AttrId),
    /// An interned constant `α`.
    Const(Sym),
}

/// One predicate `(t_i[An] o t_j[Am])` or `(t_i[An] o α)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Tuple variable of the left-hand cell.
    pub lhs_tuple: TupleVar,
    /// Attribute of the left-hand cell.
    pub lhs_attr: AttrId,
    /// The comparison operator.
    pub op: Op,
    /// The right-hand side.
    pub rhs: Operand,
}

impl Predicate {
    /// Whether this is an equality join between the two tuple variables
    /// (`t1.A = t2.B`) — the predicates violation detection can block on.
    pub fn is_cross_tuple_eq(&self) -> bool {
        matches!(
            (self.op, self.rhs),
            (Op::Eq, Operand::Cell(rhs_t, _)) if rhs_t != self.lhs_tuple
        )
    }

    /// The attributes this predicate touches on each tuple variable:
    /// `(t1 attrs, t2 attrs)`.
    pub fn attrs_by_tuple(&self) -> (Vec<AttrId>, Vec<AttrId>) {
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        match self.lhs_tuple {
            TupleVar::T1 => t1.push(self.lhs_attr),
            TupleVar::T2 => t2.push(self.lhs_attr),
        }
        if let Operand::Cell(tv, a) = self.rhs {
            match tv {
                TupleVar::T1 => t1.push(a),
                TupleVar::T2 => t2.push(a),
            }
        }
        (t1, t2)
    }

    /// Evaluates the predicate for the tuple binding `(t1, t2)`.
    ///
    /// Null semantics: a predicate over a null cell is never satisfied —
    /// a missing value cannot witness a violation.
    pub fn eval(&self, ds: &Dataset, t1: TupleId, t2: TupleId) -> bool {
        let lhs = match self.lhs_tuple {
            TupleVar::T1 => ds.cell(t1, self.lhs_attr),
            TupleVar::T2 => ds.cell(t2, self.lhs_attr),
        };
        let rhs = match self.rhs {
            Operand::Cell(tv, a) => match tv {
                TupleVar::T1 => ds.cell(t1, a),
                TupleVar::T2 => ds.cell(t2, a),
            },
            Operand::Const(sym) => sym,
        };
        eval_op(ds, lhs, self.op, rhs)
    }
}

/// Evaluates `lhs op rhs` over interned symbols.
///
/// Ordering operators read [`holo_dataset::ValuePool::compare`]: numerically
/// when both sides are finite numbers, lexicographically otherwise. Null on either side fails every operator
/// except that two nulls are `=`-equal is *also* suppressed: nulls never
/// satisfy predicates, matching the "missing values are evidence of
/// nothing" convention used throughout the workspace.
pub fn eval_op(ds: &Dataset, lhs: Sym, op: Op, rhs: Sym) -> bool {
    if lhs.is_null() || rhs.is_null() {
        return false;
    }
    match op {
        Op::Eq => lhs == rhs,
        Op::Neq => lhs != rhs,
        Op::Lt | Op::Gt | Op::Leq | Op::Geq => {
            let ord = ds.pool().compare(lhs, rhs);
            match op {
                Op::Lt => ord.is_lt(),
                Op::Gt => ord.is_gt(),
                Op::Leq => ord.is_le(),
                Op::Geq => ord.is_ge(),
                _ => unreachable!(),
            }
        }
        Op::Sim(threshold) => {
            lhs == rhs
                || crate::similarity::normalized_similarity(ds.value_str(lhs), ds.value_str(rhs))
                    >= threshold
        }
    }
}

/// A bound denial constraint `∀t1[,t2]: ¬(P1 ∧ … ∧ PK)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenialConstraint {
    /// Human-readable name (the source text by default).
    pub name: String,
    /// Whether the constraint quantifies over two tuples.
    pub two_tuple: bool,
    /// The conjunction of predicates whose joint satisfaction is denied.
    pub predicates: Vec<Predicate>,
}

impl DenialConstraint {
    /// All predicates holding for `(t1, t2)` — i.e. the pair witnesses a
    /// violation. For single-tuple constraints pass `t1 == t2`.
    pub fn violated_by(&self, ds: &Dataset, t1: TupleId, t2: TupleId) -> bool {
        if self.two_tuple && t1 == t2 {
            return false;
        }
        self.predicates.iter().all(|p| p.eval(ds, t1, t2))
    }

    /// The attributes mentioned on each tuple variable.
    pub fn attrs_by_tuple(&self) -> (Vec<AttrId>, Vec<AttrId>) {
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        for p in &self.predicates {
            let (a1, a2) = p.attrs_by_tuple();
            for a in a1 {
                if !t1.contains(&a) {
                    t1.push(a);
                }
            }
            for a in a2 {
                if !t2.contains(&a) {
                    t2.push(a);
                }
            }
        }
        (t1, t2)
    }

    /// Every attribute mentioned anywhere in the constraint.
    pub fn attrs(&self) -> Vec<AttrId> {
        let (mut t1, t2) = self.attrs_by_tuple();
        for a in t2 {
            if !t1.contains(&a) {
                t1.push(a);
            }
        }
        t1
    }

    /// Whether swapping `t1`/`t2` leaves the predicate set unchanged —
    /// true for all FD-derived constraints. Symmetric constraints need each
    /// unordered tuple pair checked only once.
    pub fn is_symmetric(&self) -> bool {
        if !self.two_tuple {
            return false;
        }
        let canon: Vec<Predicate> = self.predicates.iter().map(canonicalize).collect();
        let swapped: Vec<Predicate> = self
            .predicates
            .iter()
            .map(|p| canonicalize(&swap_tuple_vars(p)))
            .collect();
        // Compare as multisets (order-insensitive); duplicates in predicate
        // lists are legal but rare, so the O(K²) check is fine.
        swapped.iter().all(|sp| canon.contains(sp)) && canon.iter().all(|p| swapped.contains(p))
    }
}

/// Mirrors an operator across a side swap: `a op b ⇔ b mirror(op) a`.
fn mirror_op(op: Op) -> Op {
    match op {
        Op::Eq => Op::Eq,
        Op::Neq => Op::Neq,
        Op::Lt => Op::Gt,
        Op::Gt => Op::Lt,
        Op::Leq => Op::Geq,
        Op::Geq => Op::Leq,
        Op::Sim(t) => Op::Sim(t),
    }
}

/// Rewrites a predicate into a canonical orientation so that semantically
/// equal predicates compare equal: cross-tuple predicates put `t1` on the
/// left; same-tuple cell-cell predicates order by attribute id.
fn canonicalize(p: &Predicate) -> Predicate {
    if let Operand::Cell(rhs_tv, rhs_attr) = p.rhs {
        let should_swap = match (p.lhs_tuple, rhs_tv) {
            (TupleVar::T2, TupleVar::T1) => true,
            (a, b) if a == b => rhs_attr < p.lhs_attr,
            _ => false,
        };
        if should_swap {
            return Predicate {
                lhs_tuple: rhs_tv,
                lhs_attr: rhs_attr,
                op: mirror_op(p.op),
                rhs: Operand::Cell(p.lhs_tuple, p.lhs_attr),
            };
        }
    }
    *p
}

fn swap_var(v: TupleVar) -> TupleVar {
    match v {
        TupleVar::T1 => TupleVar::T2,
        TupleVar::T2 => TupleVar::T1,
    }
}

fn swap_tuple_vars(p: &Predicate) -> Predicate {
    Predicate {
        lhs_tuple: swap_var(p.lhs_tuple),
        lhs_attr: p.lhs_attr,
        op: p.op,
        rhs: match p.rhs {
            Operand::Cell(tv, a) => Operand::Cell(swap_var(tv), a),
            c => c,
        },
    }
}

/// An ordered collection of denial constraints `Σ`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSet {
    constraints: Vec<DenialConstraint>,
}

impl ConstraintSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint, returning its id.
    pub fn push(&mut self, c: DenialConstraint) -> ConstraintId {
        self.constraints.push(c);
        self.constraints.len() - 1
    }

    /// The constraint with id `id`.
    pub fn get(&self, id: ConstraintId) -> &DenialConstraint {
        &self.constraints[id]
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Iterates over `(id, constraint)`.
    pub fn iter(&self) -> impl Iterator<Item = (ConstraintId, &DenialConstraint)> {
        self.constraints.iter().enumerate()
    }
}

impl FromIterator<DenialConstraint> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = DenialConstraint>>(iter: I) -> Self {
        ConstraintSet {
            constraints: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;

    fn zip_city_ds() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City", "Pop"]));
        ds.push_row(&["60608", "Chicago", "100"]);
        ds.push_row(&["60608", "Cicago", "90"]);
        ds.push_row(&["60609", "Chicago", "100"]);
        ds
    }

    /// FD Zip → City as a DC: ¬(t1.Zip = t2.Zip ∧ t1.City ≠ t2.City).
    fn fd_zip_city(ds: &Dataset) -> DenialConstraint {
        let zip = ds.schema().attr_id("Zip").unwrap();
        let city = ds.schema().attr_id("City").unwrap();
        DenialConstraint {
            name: "zip->city".into(),
            two_tuple: true,
            predicates: vec![
                Predicate {
                    lhs_tuple: TupleVar::T1,
                    lhs_attr: zip,
                    op: Op::Eq,
                    rhs: Operand::Cell(TupleVar::T2, zip),
                },
                Predicate {
                    lhs_tuple: TupleVar::T1,
                    lhs_attr: city,
                    op: Op::Neq,
                    rhs: Operand::Cell(TupleVar::T2, city),
                },
            ],
        }
    }

    #[test]
    fn violation_evaluation() {
        let ds = zip_city_ds();
        let dc = fd_zip_city(&ds);
        assert!(dc.violated_by(&ds, TupleId(0), TupleId(1)));
        assert!(dc.violated_by(&ds, TupleId(1), TupleId(0)));
        assert!(!dc.violated_by(&ds, TupleId(0), TupleId(2)));
        assert!(
            !dc.violated_by(&ds, TupleId(0), TupleId(0)),
            "t1 == t2 never violates"
        );
    }

    #[test]
    fn fd_constraint_is_symmetric() {
        let ds = zip_city_ds();
        assert!(fd_zip_city(&ds).is_symmetric());
    }

    #[test]
    fn asymmetric_constraint_detected() {
        let ds = zip_city_ds();
        let pop = ds.schema().attr_id("Pop").unwrap();
        let zip = ds.schema().attr_id("Zip").unwrap();
        // ¬(t1.Zip = t2.Zip ∧ t1.Pop < t2.Pop) is not swap-invariant.
        let dc = DenialConstraint {
            name: "asym".into(),
            two_tuple: true,
            predicates: vec![
                Predicate {
                    lhs_tuple: TupleVar::T1,
                    lhs_attr: zip,
                    op: Op::Eq,
                    rhs: Operand::Cell(TupleVar::T2, zip),
                },
                Predicate {
                    lhs_tuple: TupleVar::T1,
                    lhs_attr: pop,
                    op: Op::Lt,
                    rhs: Operand::Cell(TupleVar::T2, pop),
                },
            ],
        };
        assert!(!dc.is_symmetric());
        // 60608: Pop 100 vs 90 — violated only in the (t1=1, t2=0) binding.
        assert!(!dc.violated_by(&ds, TupleId(0), TupleId(1)));
        assert!(dc.violated_by(&ds, TupleId(1), TupleId(0)));
    }

    #[test]
    fn numeric_vs_lexicographic_ordering() {
        let mut ds = Dataset::new(Schema::new(vec!["x"]));
        ds.push_row(&["9"]);
        ds.push_row(&["10"]);
        ds.push_row(&["apple"]);
        ds.push_row(&["banana"]);
        let nine = ds.pool().get("9").unwrap();
        let ten = ds.pool().get("10").unwrap();
        let apple = ds.pool().get("apple").unwrap();
        let banana = ds.pool().get("banana").unwrap();
        // Numeric: 9 < 10 even though "9" > "10" lexicographically.
        assert!(eval_op(&ds, nine, Op::Lt, ten));
        // Strings fall back to lexicographic order.
        assert!(eval_op(&ds, apple, Op::Lt, banana));
        // Mixed: falls back to lexicographic ('9' sorts before 'a').
        assert!(eval_op(&ds, nine, Op::Lt, apple));
    }

    /// Regression: "nan" parsed as a NaN that compared `Equal` to every
    /// number, so `t1.A <= t2.A` held for a "Nan" cell against any numeric
    /// partner. It is a string, and strings sort after digits.
    #[test]
    fn nan_is_a_string_not_a_number() {
        let mut ds = Dataset::new(Schema::new(vec!["x"]));
        ds.push_row(&["nan"]);
        ds.push_row(&["5"]);
        let nan = ds.pool().get("nan").unwrap();
        let five = ds.pool().get("5").unwrap();
        assert!(!eval_op(&ds, nan, Op::Leq, five));
        assert!(!eval_op(&ds, five, Op::Geq, nan));
        assert!(eval_op(&ds, nan, Op::Gt, five));
    }

    #[test]
    fn null_never_satisfies() {
        let mut ds = Dataset::new(Schema::new(vec!["x"]));
        ds.push_row(&[""]);
        ds.push_row(&["v"]);
        let v = ds.pool().get("v").unwrap();
        for op in [
            Op::Eq,
            Op::Neq,
            Op::Lt,
            Op::Gt,
            Op::Leq,
            Op::Geq,
            Op::Sim(0.5),
        ] {
            assert!(!eval_op(&ds, Sym::NULL, op, v), "{op} over null");
            assert!(!eval_op(&ds, v, op, Sym::NULL), "{op} over null rhs");
            assert!(!eval_op(&ds, Sym::NULL, op, Sym::NULL), "{op} over nulls");
        }
    }

    #[test]
    fn similarity_operator() {
        let mut ds = Dataset::new(Schema::new(vec!["x"]));
        ds.push_row(&["Chicago"]);
        ds.push_row(&["Cicago"]);
        ds.push_row(&["Boston"]);
        let chicago = ds.pool().get("Chicago").unwrap();
        let cicago = ds.pool().get("Cicago").unwrap();
        let boston = ds.pool().get("Boston").unwrap();
        assert!(eval_op(&ds, chicago, Op::Sim(0.8), cicago));
        assert!(!eval_op(&ds, chicago, Op::Sim(0.8), boston));
        assert!(
            eval_op(&ds, chicago, Op::Sim(0.99), chicago),
            "identity always similar"
        );
    }

    #[test]
    fn op_negation() {
        assert_eq!(Op::Eq.negate(), Op::Neq);
        assert_eq!(Op::Neq.negate(), Op::Eq);
        assert_eq!(Op::Lt.negate(), Op::Geq);
        assert_eq!(Op::Geq.negate(), Op::Lt);
        assert_eq!(Op::Gt.negate(), Op::Leq);
        assert_eq!(Op::Leq.negate(), Op::Gt);
    }

    #[test]
    fn attrs_collection() {
        let ds = zip_city_ds();
        let dc = fd_zip_city(&ds);
        let zip = ds.schema().attr_id("Zip").unwrap();
        let city = ds.schema().attr_id("City").unwrap();
        assert_eq!(dc.attrs(), vec![zip, city]);
        let (t1, t2) = dc.attrs_by_tuple();
        assert_eq!(t1, vec![zip, city]);
        assert_eq!(t2, vec![zip, city]);
    }

    #[test]
    fn constraint_set_roundtrip() {
        let ds = zip_city_ds();
        let mut set = ConstraintSet::new();
        let id = set.push(fd_zip_city(&ds));
        assert_eq!(set.len(), 1);
        assert_eq!(set.get(id).name, "zip->city");
        assert_eq!(set.iter().count(), 1);
    }
}
