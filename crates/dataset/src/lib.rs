//! Relational substrate for the HoloClean reproduction.
//!
//! HoloClean (Rekatsinas et al., VLDB 2017) treats an input database as a set
//! of tuples, each tuple a set of *cells*, one per attribute. This crate
//! provides that representation plus everything the upper layers need from
//! the storage engine the paper delegated to Postgres:
//!
//! * [`ValuePool`] — an append-only string interner mapping cell values to
//!   compact [`Sym`] handles so that the rest of the system works on `u32`s.
//! * [`Schema`] / [`AttrId`] — attribute metadata.
//! * [`Dataset`] — a columnar table addressed by [`CellRef`] `(tuple,
//!   attribute)` pairs that codes each value once, on insert: per attribute
//!   an append-only dictionary (code → [`Sym`]) and one `u32` code per
//!   tuple ([`NULL_CODE`] for null). Statistics, violation blocking and
//!   outlier detection count and group by these codes instead of hashing
//!   the cells again; [`Sym`] stays the handle values are read through.
//! * [`CellSet`] — a set of cells as one tuple bitmap per attribute,
//!   iterated in ascending [`CellRef`] order (the noisy set `D_n`).
//! * [`csv`] — a small CSV reader/writer (quoted fields, RFC-4180 escapes)
//!   so realistic inputs can be loaded without external crates.
//! * [`stats`] — per-attribute value counts and pairwise co-occurrence
//!   statistics over the table's codes; these power both HoloClean's
//!   quantitative-statistics features (§4.2) and the Algorithm 2
//!   domain-pruning rule `Pr[v | v_c'] ≥ τ`.
//! * [`fxhash`] — the Fx multiply-xor hasher, implemented locally because
//!   hashing interned symbols is on the hot path of coding a table.
//!
//! # Example
//!
//! ```
//! use holo_dataset::{Dataset, Schema};
//!
//! let schema = Schema::new(vec!["City", "State", "Zip"]);
//! let mut ds = Dataset::new(schema);
//! ds.push_row(&["Chicago", "IL", "60608"]);
//! ds.push_row(&["Chicago", "IL", "60609"]);
//! assert_eq!(ds.tuple_count(), 2);
//! let city = ds.schema().attr_id("City").unwrap();
//! assert_eq!(ds.value_str(ds.cell(0.into(), city)), "Chicago");
//! ```

pub mod cell_set;
pub mod csv;
pub mod error;
pub mod fxhash;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use cell_set::CellSet;
pub use error::DatasetError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use schema::{AttrId, Schema};
pub use stats::{CooccurStats, GroupView, StatsStats, ValueCodes};
pub use table::{CellRef, Dataset, TupleId, NULL_CODE};
pub use value::{Sym, ValuePool};
