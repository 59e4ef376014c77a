//! Arena-backed path-id bitmap storage — the cache-conscious layout under
//! the bit-parallel join kernel.
//!
//! A [`PidInterner`] stores every id as its own `Box<[u64]>`: correct,
//! but the containment-relation builder compares ids **pairwise and
//! quadratically**, and every comparison then chases a fresh pointer to
//! a tiny heap object. [`PidBitmapSlab`] re-lays the same ids out as one
//! contiguous allocation of fixed-stride rows:
//!
//! ```text
//!   storage: [ pad.. | row 0 ........ | row 1 ........ | row 2 ... ]
//!             ^ alignment offset      ^ 64-byte boundary
//! ```
//!
//! * one allocation per summary instead of one per id;
//! * rows padded with zero words to a multiple of 8 (64 bytes), so each
//!   row starts on a cache-line boundary — XMark's 344-bit ids (6 words)
//!   become exactly one line per id;
//! * row order is interner handle order, so `Pid::index` addresses rows
//!   directly.
//!
//! [`PidBitsRef`] is the borrowed view over one row. It mirrors the
//! query API of [`PathIdBits`] (containment, intersection, popcount) and
//! interoperates with it, so call sites keep working against either
//! representation; zero-padding makes the mixed-length word comparisons
//! in [`crate::words`] exact.

use crate::bits::PathIdBits;
use crate::interner::PidInterner;
use crate::words;

/// Words per cache line — slab rows are padded to this stride multiple.
const LINE_WORDS: usize = 8;

/// All path ids of one summary as contiguous, 64-byte-aligned bitmap
/// rows in a single arena allocation.
#[derive(Debug)]
pub struct PidBitmapSlab {
    /// Width in bits of every id.
    nbits: u32,
    /// Row stride in words (a multiple of [`LINE_WORDS`]; 0 iff the
    /// width is 0).
    words_per_row: usize,
    /// Index of the first row's first word inside `storage` — chosen
    /// after allocation so the first row sits on a 64-byte boundary.
    offset: usize,
    rows: usize,
    storage: Vec<u64>,
}

impl Clone for PidBitmapSlab {
    /// The alignment offset is a function of the allocation's base
    /// address, so a clone cannot copy `offset` verbatim: the fresh
    /// `Vec` is only guaranteed 8-byte aligned. Re-derive the offset for
    /// the new allocation and re-skew the row data under it, keeping the
    /// 64-byte row-alignment invariant.
    fn clone(&self) -> Self {
        let mut storage = vec![0u64; self.storage.len()];
        let misalign = (storage.as_ptr() as usize % 64) / std::mem::size_of::<u64>();
        let offset = (LINE_WORDS - misalign) % LINE_WORDS;
        let data = self.rows * self.words_per_row;
        storage[offset..offset + data]
            .copy_from_slice(&self.storage[self.offset..self.offset + data]);
        let slab = PidBitmapSlab {
            nbits: self.nbits,
            words_per_row: self.words_per_row,
            offset,
            rows: self.rows,
            storage,
        };
        debug_assert!(
            slab.rows == 0
                || slab.words_per_row == 0
                || slab.row_words(0).as_ptr() as usize % 64 == 0
        );
        slab
    }
}

impl PidBitmapSlab {
    /// Lays out every id of `pids` (in handle order) as aligned rows.
    pub fn from_interner(pids: &PidInterner) -> Self {
        let nbits = pids.width();
        let rows = pids.len();
        let words_per_row = if nbits == 0 {
            0
        } else {
            (nbits.div_ceil(64) as usize).next_multiple_of(LINE_WORDS)
        };
        // Over-allocate by one line, then skew the logical start so row 0
        // lands on a 64-byte boundary (Vec<u64> only guarantees 8). The
        // vector is never grown afterwards, so the base pointer — and
        // with it the alignment — stays put.
        let mut storage = vec![0u64; rows * words_per_row + LINE_WORDS];
        let misalign = (storage.as_ptr() as usize % 64) / std::mem::size_of::<u64>();
        let offset = (LINE_WORDS - misalign) % LINE_WORDS;
        for (i, (_, bits)) in pids.iter().enumerate() {
            let start = offset + i * words_per_row;
            storage[start..start + bits.words().len()].copy_from_slice(bits.words());
        }
        let slab = PidBitmapSlab {
            nbits,
            words_per_row,
            offset,
            rows,
            storage,
        };
        debug_assert!(
            slab.rows == 0
                || slab.words_per_row == 0
                || slab.row_words(0).as_ptr() as usize % 64 == 0
        );
        slab
    }

    /// Width in bits of every row.
    #[inline]
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// Number of rows (ids).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row stride in words.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The raw words of row `i` (padding words are zero).
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.rows, "slab row {i} out of range");
        let start = self.offset + i * self.words_per_row;
        &self.storage[start..start + self.words_per_row]
    }

    /// Borrowed bitset view of row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> PidBitsRef<'_> {
        PidBitsRef {
            nbits: self.nbits,
            words: self.row_words(i),
        }
    }

    /// Arena footprint in bytes (the one allocation, padding included).
    pub fn size_bytes(&self) -> usize {
        self.storage.len() * std::mem::size_of::<u64>()
    }
}

/// Borrowed view of one path id's bits — a slab row, or any
/// [`PathIdBits`] via [`PathIdBits`]-taking methods. Padding beyond the
/// logical width is guaranteed zero.
#[derive(Clone, Copy, Debug)]
pub struct PidBitsRef<'a> {
    nbits: u32,
    words: &'a [u64],
}

impl<'a> PidBitsRef<'a> {
    /// Width in bits.
    #[inline]
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// The raw storage words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// `self & other == other` (containment or equality), against
    /// another row view.
    #[inline]
    pub fn contains_or_equal(&self, other: PidBitsRef<'_>) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        words::is_subset(other.words, self.words)
    }

    /// Whether any bit is set in both, against another row view.
    #[inline]
    pub fn intersects(&self, other: PidBitsRef<'_>) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        words::intersects(self.words, other.words)
    }

    /// Whether any bit is set in both this row and a boxed id, such as a
    /// relation mask.
    #[inline]
    pub fn intersects_bits(&self, other: &PathIdBits) -> bool {
        debug_assert_eq!(self.nbits, other.nbits());
        words::intersects(self.words, other.words())
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        words::count_ones(self.words)
    }

    /// The 64-bit word-support signature (see
    /// [`words::support_signature`]).
    #[inline]
    pub fn support_signature(&self) -> u64 {
        words::support_signature(self.words)
    }

    /// Materializes the view as an owned [`PathIdBits`].
    pub fn to_bits(&self) -> PathIdBits {
        let mut out = PathIdBits::zero(self.nbits);
        let n = out.words().len();
        // Positions are 1-based from the left; rebuild via set() to keep
        // the canonical representation without exposing mutable words.
        for wi in 0..n {
            let mut w = self.words[wi];
            while w != 0 {
                let lz = w.leading_zeros();
                w &= !(1u64 << (63 - lz));
                out.set(wi as u32 * 64 + lz + 1);
            }
        }
        out
    }
}

impl PathIdBits {
    /// Borrowed view of this id, interoperable with slab rows.
    #[inline]
    pub fn as_bits_ref(&self) -> PidBitsRef<'_> {
        PidBitsRef {
            nbits: self.nbits(),
            words: self.words(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An interner of deterministic stride patterns at `width` bits.
    fn patterned_interner(width: u32) -> PidInterner {
        let mut pids = PidInterner::new(width);
        pids.intern(PathIdBits::zero(width));
        let mut full = PathIdBits::zero(width);
        for i in 1..=width {
            full.set(i);
        }
        pids.intern(full);
        for stride in [1u32, 2, 3, 7, 63, 64, 65] {
            let mut b = PathIdBits::zero(width);
            let mut i = 1;
            while i <= width {
                b.set(i);
                i += stride;
            }
            pids.intern(b);
        }
        pids
    }

    #[test]
    fn slab_rows_round_trip_across_widths() {
        for width in [1u32, 63, 64, 65, 200] {
            let pids = patterned_interner(width);
            let slab = PidBitmapSlab::from_interner(&pids);
            assert_eq!(slab.rows(), pids.len(), "width {width}");
            assert_eq!(slab.nbits(), width);
            assert_eq!(slab.words_per_row() % LINE_WORDS, 0);
            assert!(slab.words_per_row() * 64 >= width as usize);
            for (pid, bits) in pids.iter() {
                let row = slab.get(pid.index());
                assert_eq!(&row.to_bits(), bits, "width {width} row {pid:?}");
                assert_eq!(row.count_ones(), bits.count_ones());
                // Padding beyond the id's own words is zero.
                for &w in &row.words()[bits.words().len()..] {
                    assert_eq!(w, 0);
                }
            }
        }
    }

    #[test]
    fn slab_rows_are_cache_line_aligned() {
        for width in [1u32, 63, 64, 65, 200] {
            let pids = patterned_interner(width);
            let slab = PidBitmapSlab::from_interner(&pids);
            for i in 0..slab.rows() {
                assert_eq!(
                    slab.row_words(i).as_ptr() as usize % 64,
                    0,
                    "width {width} row {i} must start on a 64-byte boundary"
                );
            }
        }
    }

    /// Cloning reallocates, so the clone must re-derive its alignment
    /// offset — a verbatim copy of `offset` would leave rows on whatever
    /// 8-byte boundary the new `Vec` landed on.
    #[test]
    fn cloned_slabs_keep_rows_aligned_and_equal() {
        for width in [1u32, 63, 64, 65, 200] {
            let pids = patterned_interner(width);
            let slab = PidBitmapSlab::from_interner(&pids);
            // Several clones so at least one lands at a different base
            // misalignment than the original with high probability.
            let clones: Vec<PidBitmapSlab> = (0..8).map(|_| slab.clone()).collect();
            for c in &clones {
                assert_eq!(c.rows(), slab.rows());
                assert_eq!(c.nbits(), slab.nbits());
                assert_eq!(c.words_per_row(), slab.words_per_row());
                for i in 0..slab.rows() {
                    assert_eq!(c.row_words(i), slab.row_words(i), "width {width} row {i}");
                    assert_eq!(
                        c.row_words(i).as_ptr() as usize % 64,
                        0,
                        "width {width} row {i} of clone must stay 64-byte aligned"
                    );
                }
            }
        }
        // Degenerate shapes clone without panicking.
        let empty = PidBitmapSlab::from_interner(&PidInterner::new(5)).clone();
        assert_eq!(empty.rows(), 0);
        let mut zw = PidInterner::new(0);
        zw.intern(PathIdBits::zero(0));
        let zclone = PidBitmapSlab::from_interner(&zw).clone();
        assert_eq!(zclone.rows(), 1);
        assert_eq!(zclone.get(0).count_ones(), 0);
    }

    #[test]
    fn slab_views_agree_with_boxed_predicates() {
        for width in [1u32, 63, 64, 65, 200] {
            let pids = patterned_interner(width);
            let slab = PidBitmapSlab::from_interner(&pids);
            for (pu, bu) in pids.iter() {
                for (pv, bv) in pids.iter() {
                    let ru = slab.get(pu.index());
                    let rv = slab.get(pv.index());
                    assert_eq!(
                        ru.contains_or_equal(rv),
                        bu.contains_or_equal(bv),
                        "width {width} {pu:?} ⊇ {pv:?}"
                    );
                    assert_eq!(ru.intersects(rv), bu.intersects(bv));
                    assert_eq!(ru.intersects_bits(bv), bu.intersects(bv));
                    // The signature screen never refuses a true subset.
                    if bu.contains_or_equal(bv) {
                        assert_eq!(rv.support_signature() & !ru.support_signature(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_width_and_empty_slabs() {
        let empty = PidBitmapSlab::from_interner(&PidInterner::new(5));
        assert_eq!(empty.rows(), 0);
        let mut zw = PidInterner::new(0);
        zw.intern(PathIdBits::zero(0));
        let slab = PidBitmapSlab::from_interner(&zw);
        assert_eq!(slab.rows(), 1);
        assert_eq!(slab.words_per_row(), 0);
        assert_eq!(slab.get(0).count_ones(), 0);
        assert!(slab.get(0).contains_or_equal(slab.get(0)));
    }
}
