//! Denial constraints for the HoloClean reproduction.
//!
//! Denial constraints (§3.1 of the paper) are first-order formulas
//! `σ: ∀t1,t2 ∈ D: ¬(P1 ∧ … ∧ PK)` over the cells of one or two tuples,
//! with predicates built from `{=, ≠, <, >, ≤, ≥, ≈}`. They subsume
//! functional dependencies, conditional FDs and metric FDs.
//!
//! This crate provides:
//!
//! * [`ast`] — the constraint AST ([`DenialConstraint`], [`Predicate`],
//!   [`Op`]) in *raw* (attribute names, constant strings) and *bound*
//!   (attribute ids, interned symbols) form.
//! * [`parser`] — a text format compatible with the research-repo
//!   convention (`t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)`) plus an
//!   `FD: Zip -> City, State` sugar that expands into one DC per right-hand
//!   attribute exactly as in Example 2 of the paper.
//! * [`similarity`] — normalised Levenshtein similarity backing the `≈`
//!   operator.
//! * [`scan`] — the compiled pair scan: one predicate classifier (join /
//!   probe-only / partner-only / residual) and one blocking index (flat
//!   bucket arena, packed partner columns, per-bucket value groups) shared
//!   by detection and the relaxed-DC featurizer.
//! * [`violations`] — violation detection over that scan, blocking once
//!   per distinct join key; an FD-shaped constraint compares a tuple only
//!   with the members of its bucket that hold another value, and the
//!   noisy cells, violation count and Algorithm 3 groups of a proper FD
//!   come from the value groups in O(rows). A streaming session's read
//!   runs it unchanged, over the table that read compacts.
//! * [`hypergraph`] — the conflict hypergraph of \[26\] and the Algorithm 3
//!   per-constraint connected-component tuple partitioning.
//!
//! # Example
//!
//! ```
//! use holo_dataset::{Dataset, Schema};
//! use holo_constraints::{parse_constraints, violations::find_violations};
//!
//! let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
//! ds.push_row(&["60608", "Chicago"]);
//! ds.push_row(&["60608", "Cicago"]);
//! let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
//! let v = find_violations(&ds, &cons);
//! assert_eq!(v.len(), 1);
//! ```

pub mod ast;
pub mod hypergraph;
pub mod parser;
pub mod scan;
pub mod similarity;
pub mod violations;

pub use ast::{ConstraintId, ConstraintSet, DenialConstraint, Op, Operand, Predicate, TupleVar};
pub use hypergraph::{tuple_group_ids, ConflictHypergraph, TupleGroups, NO_GROUP};
pub use parser::{parse_constraint, parse_constraints, ParseError};
pub use violations::{
    find_noisy_cells_with_threads, find_tuple_groups_with_threads, find_violations,
    find_violations_with_threads, noisy_cells, CellList, Violation,
};
