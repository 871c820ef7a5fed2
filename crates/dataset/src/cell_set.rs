//! [`CellSet`] — a set of cells stored as one tuple bitmap per attribute.
//!
//! Detection flags cells by the million on paper-scale tables, and every
//! later reader wants them either by attribute (evidence selection, the
//! attributes a run trains) or in ascending [`CellRef`] order (Algorithm 2
//! and the variables). One bit per `(tuple, attribute)` serves both: a
//! membership test is a bit probe, an attribute's cells are one bitmap,
//! and iteration yields the cells already sorted, tuple-major — no cell is
//! hashed and nothing is sorted.

use crate::schema::AttrId;
use crate::table::{CellRef, TupleId};
use std::fmt;

/// A set of cells: per attribute a bitmap over tuples (bit `t % 64` of
/// word `t / 64`), grown on demand, plus the cell count of each attribute.
/// Iteration is in ascending [`CellRef`] order — by tuple, then attribute.
#[derive(Clone, Default)]
pub struct CellSet {
    bits: Vec<Vec<u64>>,
    counts: Vec<usize>,
}

impl CellSet {
    /// An empty set.
    pub fn new() -> Self {
        CellSet::default()
    }

    /// Adds `cell`; `true` if it was not in the set.
    #[inline]
    pub fn insert(&mut self, cell: CellRef) -> bool {
        let (attr, t) = (cell.attr.index(), cell.tuple.index());
        if self.bits.len() <= attr {
            self.bits.resize(attr + 1, Vec::new());
            self.counts.resize(attr + 1, 0);
        }
        let bits = &mut self.bits[attr];
        if bits.len() <= t / 64 {
            bits.resize(t / 64 + 1, 0);
        }
        let (word, bit) = (&mut bits[t / 64], 1u64 << (t % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        self.counts[attr] += usize::from(fresh);
        fresh
    }

    /// Removes `cell`; `true` if it was in the set.
    pub fn remove(&mut self, cell: CellRef) -> bool {
        let (attr, t) = (cell.attr.index(), cell.tuple.index());
        let Some(word) = self.bits.get_mut(attr).and_then(|b| b.get_mut(t / 64)) else {
            return false;
        };
        let bit = 1u64 << (t % 64);
        let held = *word & bit != 0;
        *word &= !bit;
        self.counts[attr] -= usize::from(held);
        held
    }

    /// Whether `cell` is in the set.
    #[inline]
    pub fn contains(&self, cell: CellRef) -> bool {
        let t = cell.tuple.index();
        self.words(cell.attr)
            .get(t / 64)
            .is_some_and(|w| w >> (t % 64) & 1 == 1)
    }

    /// Number of cells in the set.
    pub fn len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Whether the set holds no cell.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cells of attribute `attr` in the set.
    pub fn attr_len(&self, attr: AttrId) -> usize {
        self.counts.get(attr.index()).copied().unwrap_or(0)
    }

    /// The tuple bitmap of `attr`: bit `t % 64` of word `t / 64` is set iff
    /// `(t, attr)` is in the set. It may end before the table does; the
    /// missing words hold no cell.
    pub fn words(&self, attr: AttrId) -> &[u64] {
        self.bits.get(attr.index()).map_or(&[], Vec::as_slice)
    }

    /// The cells in ascending [`CellRef`] order: by tuple, then attribute,
    /// in time proportional to the cells plus one word per attribute and
    /// 64 tuples. Per block of 64 tuples, every attribute's word is
    /// scattered into per-tuple attribute masks, which are read back tuple
    /// by tuple and bit by bit (and so cleared for the next block).
    pub fn iter(&self) -> impl Iterator<Item = CellRef> + '_ {
        let attr_words = self.bits.len().div_ceil(64);
        let blocks = self.bits.iter().map(Vec::len).max().unwrap_or(0);
        // `masks[bit * attr_words + w]`: attributes `64 w ..` of tuple `bit`.
        let mut masks = vec![0u64; 64 * attr_words];
        let mut cells = Vec::with_capacity(self.len());
        for w in 0..blocks {
            let mut tuples = 0;
            for (attr, bits) in self.bits.iter().enumerate() {
                let word = bits.get(w).copied().unwrap_or(0);
                tuples |= word;
                let (slot, flag) = (attr / 64, 1u64 << (attr % 64));
                for bit in ones(word) {
                    masks[bit * attr_words + slot] |= flag;
                }
            }
            for bit in ones(tuples) {
                let tuple = TupleId((w * 64 + bit) as u32);
                let tuple_masks = &mut masks[bit * attr_words..(bit + 1) * attr_words];
                for (slot, mask) in tuple_masks.iter_mut().enumerate() {
                    for attr in ones(std::mem::take(mask)) {
                        let attr = AttrId((slot * 64 + attr) as u16);
                        cells.push(CellRef { tuple, attr });
                    }
                }
            }
        }
        cells.into_iter()
    }
}

/// The positions of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

impl PartialEq for CellSet {
    /// Equal when they hold the same cells, however far each bitmap grew.
    fn eq(&self, other: &Self) -> bool {
        let trimmed = |bits: &[u64]| {
            let end = bits.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
            bits[..end].to_vec()
        };
        let attrs = self.bits.len().max(other.bits.len());
        (0..attrs).all(|a| {
            let a = AttrId(a as u16);
            trimmed(self.words(a)) == trimmed(other.words(a))
        })
    }
}

impl Eq for CellSet {}

impl fmt::Debug for CellSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<CellRef> for CellSet {
    fn extend<I: IntoIterator<Item = CellRef>>(&mut self, cells: I) {
        for cell in cells {
            self.insert(cell);
        }
    }
}

impl FromIterator<CellRef> for CellSet {
    fn from_iter<I: IntoIterator<Item = CellRef>>(cells: I) -> Self {
        let mut set = CellSet::new();
        set.extend(cells);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FxHashSet;
    use proptest::prelude::*;

    #[test]
    fn iterates_tuple_major_across_word_boundaries() {
        let cells = [
            (129usize, 0usize),
            (63, 2),
            (0, 1),
            (64, 0),
            (63, 0),
            (0, 0),
        ];
        let set: CellSet = cells.iter().map(|&(t, a)| CellRef::new(t, a)).collect();
        let got: Vec<(usize, usize)> = set
            .iter()
            .map(|c| (c.tuple.index(), c.attr.index()))
            .collect();
        assert_eq!(got, [(0, 0), (0, 1), (63, 0), (63, 2), (64, 0), (129, 0)]);
        assert_eq!(set.attr_len(AttrId(0)), 4);
        assert_eq!(set.attr_len(AttrId(1)), 1);
        assert_eq!(set.attr_len(AttrId(7)), 0);
        assert!(set.words(AttrId(7)).is_empty());
    }

    /// More than 64 attributes: each tuple's mask spans several words.
    /// Tuples 5 and 69 share a mask slot (bit 5 of blocks 0 and 1), which
    /// the first clears as it is read.
    #[test]
    fn iterates_attributes_past_the_first_mask_word() {
        let mut cells: Vec<CellRef> = [
            (5usize, 130usize),
            (5, 0),
            (70, 64),
            (5, 63),
            (69, 2),
            (70, 1),
        ]
        .iter()
        .map(|&(t, a)| CellRef::new(t, a))
        .collect();
        let set: CellSet = cells.iter().copied().collect();
        cells.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), cells);
    }

    #[test]
    fn equality_ignores_how_far_a_bitmap_grew() {
        let far = CellRef::new(500usize, 3usize);
        let near = CellRef::new(1usize, 0usize);
        let mut grown: CellSet = [near, far].into_iter().collect();
        assert!(grown.remove(far));
        assert!(!grown.remove(far));
        assert_eq!(grown, [near].into_iter().collect::<CellSet>());
        assert_ne!(grown, CellSet::new());
        assert_eq!(
            format!("{grown:?}"),
            "{CellRef { tuple: TupleId(1), attr: AttrId(0) }}"
        );
    }

    proptest! {
        /// `CellSet` answers like the `FxHashSet<CellRef>` it replaced over
        /// random insert / remove / contains sequences: the same return
        /// values, the same `len`, per-attribute counts, and iteration
        /// equal to the sorted hash set. Tuple counts straddle word
        /// boundaries (63 / 64 / 65 / 129), and attribute 2 of 4 never
        /// holds a cell.
        #[test]
        fn prop_cell_set_matches_hash_set(
            shape in 0usize..4,
            ops in proptest::collection::vec((0u8..3, 0usize..1024, 0u8..3), 0..300),
        ) {
            let tuples = [63usize, 64, 65, 129][shape];
            let (mut set, mut oracle) = (CellSet::new(), FxHashSet::default());
            for (op, t, a) in ops {
                // Attribute 2 is skipped: 0, 1 and 3.
                let cell = CellRef::new(t % tuples, [0usize, 1, 3][a as usize]);
                match op {
                    0 => prop_assert_eq!(set.insert(cell), oracle.insert(cell)),
                    1 => prop_assert_eq!(set.remove(cell), oracle.remove(&cell)),
                    _ => prop_assert_eq!(set.contains(cell), oracle.contains(&cell)),
                }
                prop_assert_eq!(set.len(), oracle.len());
            }
            let mut sorted: Vec<CellRef> = oracle.iter().copied().collect();
            sorted.sort_unstable();
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
            for a in 0..4usize {
                let want = oracle.iter().filter(|c| c.attr.index() == a).count();
                prop_assert_eq!(set.attr_len(AttrId(a as u16)), want);
            }
            prop_assert_eq!(set.attr_len(AttrId(2)), 0);
            prop_assert_eq!(&set, &oracle.iter().copied().collect::<CellSet>());
        }
    }
}
