//! Interning of path-id bit sequences.
//!
//! Documents have few distinct path ids relative to their element count
//! (paper Table 3: SSPlays has 115 for 179,690 elements), so every
//! per-element and per-table reference is a 4-byte [`Pid`] handle into a
//! [`PidInterner`].

use std::collections::HashMap;
use std::fmt;

use crate::bits::PathIdBits;

/// Handle to an interned path id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Dense index into the interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a handle from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Pid(u32::try_from(index).expect("pid index overflows u32"))
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pid({})", self.0)
    }
}

/// Append-only store of distinct path-id bit sequences.
#[derive(Clone, Debug)]
pub struct PidInterner {
    width: u32,
    pids: Vec<PathIdBits>,
    index: HashMap<PathIdBits, Pid>,
}

impl PidInterner {
    /// Creates an interner for ids of `width` bits (the number of distinct
    /// root-to-leaf paths).
    pub fn new(width: u32) -> Self {
        PidInterner {
            width,
            pids: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Width in bits of every id in this interner.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Interns `bits`, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong width.
    pub fn intern(&mut self, bits: PathIdBits) -> Pid {
        assert_eq!(bits.nbits(), self.width, "path id width mismatch");
        if let Some(&p) = self.index.get(&bits) {
            return p;
        }
        self.push(bits)
    }

    /// Interns the id whose storage words are `words` (laid out as
    /// [`PathIdBits`] stores them), allocating only when the id is new —
    /// how the labelers intern straight out of their word arenas.
    ///
    /// # Panics
    ///
    /// Panics if a new id's `words` is not `⌈width / 64⌉` long.
    pub(crate) fn intern_words(&mut self, words: &[u64]) -> Pid {
        if let Some(&p) = self.index.get(words) {
            return p;
        }
        self.push(PathIdBits::from_words(self.width, words))
    }

    fn push(&mut self, bits: PathIdBits) -> Pid {
        let p = Pid(u32::try_from(self.pids.len()).expect("too many distinct pids"));
        self.pids.push(bits.clone());
        self.index.insert(bits, p);
        p
    }

    /// The bit sequence of `pid`.
    #[inline]
    pub fn bits(&self, pid: Pid) -> &PathIdBits {
        &self.pids[pid.index()]
    }

    /// The handle of `bits`, if interned.
    pub fn get(&self, bits: &PathIdBits) -> Option<Pid> {
        self.index.get(bits).copied()
    }

    /// Number of distinct path ids.
    pub fn len(&self) -> usize {
        self.pids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.pids.is_empty()
    }

    /// Iterates over `(pid, bits)` in handle order.
    pub fn iter(&self) -> impl Iterator<Item = (Pid, &PathIdBits)> {
        self.pids
            .iter()
            .enumerate()
            .map(|(i, b)| (Pid(i as u32), b))
    }

    /// Strict containment between two interned ids (paper §2 Case 2).
    pub fn contains(&self, a: Pid, b: Pid) -> bool {
        self.bits(a).contains(self.bits(b))
    }

    /// Containment or equality between two interned ids.
    pub fn contains_or_equal(&self, a: Pid, b: Pid) -> bool {
        self.bits(a).contains_or_equal(self.bits(b))
    }

    /// Serializes the interner (summary persistence). Ids are stored as
    /// set-bit position lists, which is compact for the sparse ids real
    /// documents produce.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        xpe_xml::wire::put_u32(buf, self.width);
        xpe_xml::wire::put_u32(buf, self.pids.len() as u32);
        for bits in &self.pids {
            xpe_xml::wire::put_u32(buf, bits.count_ones());
            for pos in bits.ones() {
                xpe_xml::wire::put_u32(buf, pos);
            }
        }
    }

    /// Deserializes an interner encoded by [`encode`](Self::encode); pid
    /// handles are preserved, and a bit set stored twice is refused.
    pub fn decode(r: &mut xpe_xml::wire::Reader<'_>) -> Result<Self, xpe_xml::wire::WireError> {
        Self::decode_inner(r, None)
    }

    /// [`decode`](Self::decode) with the width cross-checked against the
    /// caller's expectation **before any bit sequence is allocated**. The
    /// stored width sizes every decoded [`PathIdBits`], so in a corrupt
    /// or hostile image it is an allocation amplifier — `u32::MAX` means
    /// half a gigabyte of zeroed words *per pid*. Summary decode knows
    /// the true width independently (the encoding table's path count,
    /// decoded just before), so it refuses a disagreeing value up front.
    pub fn decode_checked(
        r: &mut xpe_xml::wire::Reader<'_>,
        expected_width: u32,
    ) -> Result<Self, xpe_xml::wire::WireError> {
        Self::decode_inner(r, Some(expected_width))
    }

    fn decode_inner(
        r: &mut xpe_xml::wire::Reader<'_>,
        expected_width: Option<u32>,
    ) -> Result<Self, xpe_xml::wire::WireError> {
        let width = r.u32()?;
        if expected_width.is_some_and(|w| w != width) {
            return Err(xpe_xml::wire::WireError::BadHeader(
                "pid width disagrees with encoding table",
            ));
        }
        let n = r.u32()? as usize;
        let mut interner = PidInterner::new(width);
        for i in 0..n {
            let ones = r.u32()? as usize;
            let mut bits = PathIdBits::zero(width);
            for _ in 0..ones {
                let pos = r.u32()?;
                if pos == 0 || pos > width {
                    return Err(xpe_xml::wire::WireError::BadHeader(
                        "pid bit position out of range",
                    ));
                }
                bits.set(pos);
            }
            if interner.intern(bits).index() != i {
                return Err(xpe_xml::wire::WireError::BadHeader("duplicate pid"));
            }
        }
        Ok(interner)
    }

    /// Size of the flat path-id table under the paper's accounting:
    /// `#distinct ids × ⌈width / 8⌉` (Table 3's "PidTab").
    pub fn table_size_bytes(&self) -> usize {
        self.pids.len() * (self.width as usize).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_str(s: &str) -> PathIdBits {
        let mut b = PathIdBits::zero(s.len() as u32);
        for (i, c) in s.chars().enumerate() {
            if c == '1' {
                b.set(i as u32 + 1);
            }
        }
        b
    }

    #[test]
    fn interning_dedupes() {
        let mut i = PidInterner::new(4);
        let a = i.intern(from_str("0011"));
        let b = i.intern(from_str("0011"));
        let c = i.intern(from_str("0010"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(&from_str("0010")), Some(c));
        assert_eq!(i.get(&from_str("1111")), None);
    }

    #[test]
    fn containment_via_handles() {
        let mut i = PidInterner::new(4);
        let p3 = i.intern(from_str("0011"));
        let p2 = i.intern(from_str("0010"));
        assert!(i.contains(p3, p2));
        assert!(!i.contains(p2, p3));
        assert!(!i.contains(p3, p3));
        assert!(i.contains_or_equal(p3, p3));
    }

    #[test]
    fn table_size_matches_paper_model() {
        // XMark-style: 344-bit ids → 43 bytes each.
        let mut i = PidInterner::new(344);
        i.intern(PathIdBits::single(344, 1));
        i.intern(PathIdBits::single(344, 2));
        assert_eq!(i.table_size_bytes(), 2 * 43);
    }

    #[test]
    fn lookup_by_words_agrees_with_lookup_by_id() {
        for width in [0u32, 1, 64, 65, 273] {
            let mut ids = vec![PathIdBits::zero(width)];
            for pos in [1, 2, 63, 64, 65, 128, 129, 200, 273] {
                if pos <= width {
                    let mut b = ids.last().unwrap().clone();
                    b.set(pos);
                    ids.push(PathIdBits::single(width, pos));
                    ids.push(b);
                }
            }
            let mut i = PidInterner::new(width);
            // Half through each entry point, so each one must find what
            // the other stored.
            let pids: Vec<Pid> = ids
                .iter()
                .enumerate()
                .map(|(k, b)| {
                    if k % 2 == 0 {
                        i.intern(b.clone())
                    } else {
                        i.intern_words(b.words())
                    }
                })
                .collect();
            for (b, &p) in ids.iter().zip(&pids) {
                assert_eq!(i.get(b), Some(p), "width {width}");
                assert_eq!(i.index.get(b.words()).copied(), Some(p), "width {width}");
                assert_eq!(i.intern_words(b.words()), p, "width {width}");
                assert_eq!(i.intern(b.clone()), p, "width {width}");
                assert_eq!(i.bits(p), b);
            }
            let distinct: std::collections::HashSet<&PathIdBits> = ids.iter().collect();
            assert_eq!(i.len(), distinct.len(), "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut i = PidInterner::new(4);
        i.intern(PathIdBits::zero(5));
    }
}
