//! Columnar dataset storage.
//!
//! A [`Dataset`] stores each attribute as a dictionary plus one `u32` code
//! per tuple. Columnar layout is deliberate: statistics collection,
//! violation blocking and feature extraction all scan single attributes
//! across all tuples, and a dense code column keeps those scans sequential
//! and hash-free. Each value is coded once, on insert; every layer that
//! groups or counts values reads those codes.

use crate::error::DatasetError;
use crate::fxhash::FxHashMap;
use crate::schema::{AttrId, Schema};
use crate::value::{Sym, ValuePool};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of a tuple (row) in a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for TupleId {
    fn from(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "tuple index overflow");
        TupleId(i as u32)
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Address of a single cell `t[a]` (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellRef {
    /// The tuple the cell belongs to.
    pub tuple: TupleId,
    /// The attribute of the cell.
    pub attr: AttrId,
}

impl CellRef {
    /// Convenience constructor.
    pub fn new(tuple: impl Into<TupleId>, attr: impl Into<AttrId>) -> Self {
        CellRef {
            tuple: tuple.into(),
            attr: attr.into(),
        }
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.tuple, self.attr)
    }
}

/// The code of a null cell in a coded column, and the code a reader gives
/// a value an attribute has never held: it is out of range of every
/// dictionary and per-code table, so it decodes to null, counts 0 and
/// names no group.
pub const NULL_CODE: u32 = u32::MAX;

/// One attribute's append-only dictionary: the value of each code and the
/// inverse map that codes values on insert. Codes are dense and assigned in
/// first-insertion order; an edit that overwrites a value's last cell
/// leaves its code in place, held by no row.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dictionary {
    /// `syms[code]`: the value the code stands for.
    pub(crate) syms: Vec<Sym>,
    code_of: FxHashMap<Sym, u32>,
}

impl Dictionary {
    /// The code of `v`: [`NULL_CODE`] for null and for a value never coded.
    #[inline]
    pub(crate) fn code(&self, v: Sym) -> u32 {
        self.code_of.get(&v).copied().unwrap_or(NULL_CODE)
    }
}

/// One attribute's cells: its dictionary, shared with the statistics built
/// over the table (copied on write if the table gains a value while they
/// live), and one code per tuple.
#[derive(Debug, Clone, Default)]
struct Column {
    dictionary: Arc<Dictionary>,
    /// `codes[tuple]`: the cell's code, [`NULL_CODE`] for null.
    codes: Vec<u32>,
}

impl Column {
    /// The code of `sym`, assigning the next one to a value the column
    /// has never held.
    #[inline]
    fn encode(&mut self, sym: Sym) -> u32 {
        if sym.is_null() {
            return NULL_CODE;
        }
        match self.dictionary.code(sym) {
            NULL_CODE => self.assign(sym),
            code => code,
        }
    }

    /// Assigns the next code to `sym`, a value the column has never held.
    fn assign(&mut self, sym: Sym) -> u32 {
        let dictionary = Arc::make_mut(&mut self.dictionary);
        let code = dictionary.syms.len() as u32;
        dictionary.syms.push(sym);
        dictionary.code_of.insert(sym, code);
        code
    }
}

/// A structured dataset `D`: a schema, an interner, and one
/// dictionary-encoded column per attribute. Rows are only ever appended or
/// rewritten in place, so a [`TupleId`] is a row's position and
/// [`Dataset::tuples`] is `0..tuple_count()`.
///
/// Every layer that groups or counts values reads the codes
/// ([`Dataset::codes`], [`Dataset::dictionary`]) instead of hashing the
/// cells again; [`Sym`] ([`Dataset::cell`]) stays the handle values are
/// compared, ordered and printed through.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    pool: ValuePool,
    columns: Vec<Column>,
}

impl Dataset {
    /// Creates an empty dataset over `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Column::default()).collect();
        Dataset {
            schema,
            pool: ValuePool::new(),
            columns,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The value pool.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Interns a value into this dataset's pool (e.g. a candidate repair
    /// coming from an external dictionary). No attribute codes it until a
    /// cell holds it.
    pub fn intern(&mut self, value: &str) -> Sym {
        self.pool.intern(value)
    }

    /// Number of tuples.
    pub fn tuple_count(&self) -> usize {
        self.columns.first().map_or(0, |c| c.codes.len())
    }

    /// Number of cells (`tuples × attributes`).
    pub fn cell_count(&self) -> usize {
        self.tuple_count() * self.schema.len()
    }

    /// Appends a row of raw string values.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the schema arity.
    pub fn push_row<S: AsRef<str>>(&mut self, row: &[S]) -> TupleId {
        self.check_arity(row.len());
        let id = TupleId(self.tuple_count() as u32);
        for (col, value) in self.columns.iter_mut().zip(row) {
            let code = col.encode(self.pool.intern(value.as_ref()));
            col.codes.push(code);
        }
        id
    }

    /// Appends a row of already-interned symbols.
    pub fn push_row_syms(&mut self, row: &[Sym]) -> TupleId {
        self.check_arity(row.len());
        let id = TupleId(self.tuple_count() as u32);
        for (col, &sym) in self.columns.iter_mut().zip(row) {
            debug_assert!(sym.index() < self.pool.len(), "foreign symbol");
            let code = col.encode(sym);
            col.codes.push(code);
        }
        id
    }

    fn check_arity(&self, arity: usize) {
        assert_eq!(
            arity,
            self.schema.len(),
            "row arity {arity} does not match schema arity {}",
            self.schema.len()
        );
    }

    /// Appends a batch of raw string rows, returning the id of the first
    /// appended tuple (the batch occupies the contiguous id range
    /// `first..first + rows.len()`). Appending never renumbers existing
    /// rows.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the schema arity (same
    /// contract as [`Dataset::push_row`]).
    pub fn append_rows<S: AsRef<str>>(&mut self, rows: &[Vec<S>]) -> TupleId {
        let first = TupleId(self.tuple_count() as u32);
        for row in rows {
            self.push_row(row);
        }
        first
    }

    /// Overwrites entire rows in place, interning the new values. Ids stay
    /// stable; the old values are gone after this call, though the pool
    /// and the dictionaries keep them.
    ///
    /// # Panics
    /// Panics if a row is out of range, or on arity mismatch (same
    /// contract as [`Dataset::push_row`]).
    pub fn update_rows<S: AsRef<str>>(&mut self, updates: &[(TupleId, Vec<S>)]) {
        for (t, row) in updates {
            assert!(
                t.index() < self.tuple_count(),
                "update of unknown tuple {t}"
            );
            self.check_arity(row.len());
            for (col, value) in self.columns.iter_mut().zip(row) {
                col.codes[t.index()] = col.encode(self.pool.intern(value.as_ref()));
            }
        }
    }

    /// The symbol stored at cell `t[a]`.
    #[inline]
    pub fn cell(&self, t: TupleId, a: AttrId) -> Sym {
        let col = &self.columns[a.index()];
        let code = col.codes[t.index()];
        col.dictionary
            .syms
            .get(code as usize)
            .copied()
            .unwrap_or(Sym::NULL)
    }

    /// The symbol stored at `cell`.
    #[inline]
    pub fn cell_ref(&self, cell: CellRef) -> Sym {
        self.cell(cell.tuple, cell.attr)
    }

    /// Overwrites cell `t[a]` — this is how repairs are materialised.
    pub fn set_cell(&mut self, t: TupleId, a: AttrId, value: Sym) {
        debug_assert!(value.index() < self.pool.len(), "foreign symbol");
        let col = &mut self.columns[a.index()];
        col.codes[t.index()] = col.encode(value);
    }

    /// The code of cell `t[a]` in its attribute's dictionary,
    /// [`NULL_CODE`] for null.
    #[inline]
    pub fn code(&self, t: TupleId, a: AttrId) -> u32 {
        self.columns[a.index()].codes[t.index()]
    }

    /// Attribute `a`'s coded column: every tuple's code, [`NULL_CODE`]
    /// for null.
    #[inline]
    pub fn codes(&self, a: AttrId) -> &[u32] {
        &self.columns[a.index()].codes
    }

    /// Attribute `a`'s dictionary: the value of each code, in the order the
    /// codes were assigned. Values no row holds any more stay in it.
    #[inline]
    pub fn dictionary(&self, a: AttrId) -> &[Sym] {
        &self.columns[a.index()].dictionary.syms
    }

    /// Attribute `a`'s dictionary as a shared handle.
    pub(crate) fn shared_dictionary(&self, a: AttrId) -> Arc<Dictionary> {
        Arc::clone(&self.columns[a.index()].dictionary)
    }

    /// The code of `v` in attribute `a`: [`NULL_CODE`] for null and for a
    /// value no cell of `a` has held.
    #[inline]
    pub fn code_of(&self, a: AttrId, v: Sym) -> u32 {
        self.columns[a.index()].dictionary.code(v)
    }

    /// How many tuples hold each code of attribute `a` (indexed like
    /// [`Dataset::dictionary`]; a code no row holds counts 0), and how
    /// many hold null: one hash-free pass over the coded column.
    pub fn code_counts(&self, a: AttrId) -> (Vec<u32>, u32) {
        let col = &self.columns[a.index()];
        let (mut counts, mut nulls) = (vec![0u32; col.dictionary.syms.len()], 0);
        for &code in &col.codes {
            match counts.get_mut(code as usize) {
                Some(count) => *count += 1,
                None => nulls += 1,
            }
        }
        (counts, nulls)
    }

    /// The string value of `sym` in this dataset's pool.
    #[inline]
    pub fn value_str(&self, sym: Sym) -> &str {
        self.pool.resolve(sym)
    }

    /// The string at cell `t[a]`.
    pub fn cell_str(&self, t: TupleId, a: AttrId) -> &str {
        self.value_str(self.cell(t, a))
    }

    /// All cells of tuple `t` in schema order.
    pub fn row(&self, t: TupleId) -> Vec<Sym> {
        let attrs = self.schema.attrs();
        attrs.map(|a| self.cell(t, a)).collect()
    }

    /// Iterates over all tuple ids, ascending.
    pub fn tuples(&self) -> impl Iterator<Item = TupleId> {
        (0..self.tuple_count() as u32).map(TupleId)
    }

    /// Iterates over every cell reference of every tuple.
    pub fn cells(&self) -> impl Iterator<Item = CellRef> + '_ {
        let attrs = self.schema.len() as u16;
        self.tuples().flat_map(move |t| {
            (0..attrs).map(move |a| CellRef {
                tuple: t,
                attr: AttrId(a),
            })
        })
    }

    /// The *active domain* of attribute `a`: every distinct value some
    /// tuple holds, null excluded, in dictionary order (first-appearance
    /// order for a table no edit has rewritten).
    pub fn active_domain(&self, a: AttrId) -> Vec<Sym> {
        let (counts, _) = self.code_counts(a);
        let held = self.dictionary(a).iter().zip(counts);
        held.filter(|&(_, count)| count > 0)
            .map(|(&v, _)| v)
            .collect()
    }

    /// Looks up an attribute id by name, as a `Result` for fallible callers.
    pub fn require_attr(&self, name: &str) -> Result<AttrId, DatasetError> {
        self.schema
            .attr_id(name)
            .ok_or_else(|| DatasetError::UnknownAttribute(name.to_string()))
    }

    /// Returns a deep copy sharing no state, useful before applying repairs.
    pub fn snapshot(&self) -> Dataset {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["City", "State", "Zip"]));
        ds.push_row(&["Chicago", "IL", "60608"]);
        ds.push_row(&["Cicago", "IL", "60608"]);
        ds.push_row(&["Chicago", "IL", "60609"]);
        ds
    }

    #[test]
    fn push_and_read_back() {
        let ds = small();
        assert_eq!(ds.tuple_count(), 3);
        assert_eq!(ds.cell_count(), 9);
        assert_eq!(ds.cell_str(TupleId(0), AttrId(0)), "Chicago");
        assert_eq!(ds.cell_str(TupleId(1), AttrId(0)), "Cicago");
        assert_eq!(ds.cell_str(TupleId(2), AttrId(2)), "60609");
    }

    #[test]
    fn interning_shares_symbols() {
        let ds = small();
        assert_eq!(
            ds.cell(TupleId(0), AttrId(0)),
            ds.cell(TupleId(2), AttrId(0))
        );
        assert_ne!(
            ds.cell(TupleId(0), AttrId(0)),
            ds.cell(TupleId(1), AttrId(0))
        );
    }

    #[test]
    fn set_cell_repairs() {
        let mut ds = small();
        let chicago = ds.pool().get("Chicago").unwrap();
        ds.set_cell(TupleId(1), AttrId(0), chicago);
        assert_eq!(ds.cell_str(TupleId(1), AttrId(0)), "Chicago");
    }

    #[test]
    fn active_domain_dedups_and_skips_null() {
        let mut ds = small();
        ds.push_row(&["", "IL", "60608"]);
        let dom = ds.active_domain(AttrId(0));
        let strs: Vec<_> = dom.iter().map(|&s| ds.value_str(s)).collect();
        assert_eq!(strs, vec!["Chicago", "Cicago"]);
    }

    #[test]
    fn row_and_cells_iteration() {
        let ds = small();
        assert_eq!(ds.row(TupleId(0)).len(), 3);
        assert_eq!(ds.cells().count(), 9);
        let first: Vec<CellRef> = ds.cells().take(3).collect();
        assert_eq!(first[0], CellRef::new(0usize, 0usize));
        assert_eq!(first[2], CellRef::new(0usize, 2usize));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut ds = small();
        ds.push_row(&["only-one"]);
    }

    #[test]
    fn push_row_syms_roundtrip() {
        let mut ds = Dataset::new(Schema::new(vec!["a", "b"]));
        let x = ds.intern("x");
        let y = ds.intern("y");
        let t = ds.push_row_syms(&[x, y]);
        assert_eq!(ds.cell(t, AttrId(0)), x);
        assert_eq!(ds.cell(t, AttrId(1)), y);
    }

    #[test]
    fn append_rows_keeps_tuple_ids_stable() {
        let mut ds = small();
        let before: Vec<Vec<Sym>> = ds.tuples().map(|t| ds.row(t)).collect();
        let first = ds.append_rows(&[
            vec!["Evanston", "IL", "60201"],
            vec!["Chicago", "IL", "60608"],
        ]);
        assert_eq!(first, TupleId(3));
        assert_eq!(ds.tuple_count(), 5);
        // Existing rows are untouched, byte for byte.
        for (t, row) in before.iter().enumerate() {
            assert_eq!(&ds.row(TupleId(t as u32)), row);
        }
        assert_eq!(ds.cell_str(TupleId(3), AttrId(0)), "Evanston");
        // Appended values share symbols with existing occurrences.
        assert_eq!(
            ds.cell(TupleId(4), AttrId(0)),
            ds.cell(TupleId(0), AttrId(0))
        );
    }

    #[test]
    fn require_attr_errors_on_unknown() {
        let ds = small();
        assert!(ds.require_attr("City").is_ok());
        assert!(ds.require_attr("Nope").is_err());
    }

    #[test]
    fn update_rows_overwrites_in_place() {
        let mut ds = small();
        ds.update_rows(&[(TupleId(1), vec!["Chicago", "IL", "60608"])]);
        assert_eq!(ds.cell_str(TupleId(1), AttrId(0)), "Chicago");
        assert_eq!(
            ds.cell(TupleId(1), AttrId(0)),
            ds.cell(TupleId(0), AttrId(0)),
            "updated values intern into the shared pool"
        );
        assert_eq!(ds.tuple_count(), 3);
    }
}
