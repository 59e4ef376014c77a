//! Tag interning.
//!
//! Every table in the estimation system (pathId-frequency table, path-order
//! table, histograms) is keyed by element tag. Interning tags once per
//! document keeps those keys at four bytes and makes tag comparison a
//! word-compare instead of a string-compare on the hot path-join path.

use std::collections::HashMap;
use std::fmt;

/// A compact identifier for an element tag, valid within the
/// [`TagInterner`] that produced it.
///
/// Ids are assigned densely from zero in first-interned order, so they can
/// index `Vec`-based per-tag tables directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub(crate) u32);

impl TagId {
    /// Returns the id as a dense `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TagId` from a dense index previously obtained through
    /// [`TagId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        TagId(u32::try_from(index).expect("tag index overflows u32"))
    }
}

impl fmt::Debug for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TagId({})", self.0)
    }
}

/// Slots of [`TagInterner`]'s front cache (a power of two).
const FRONT_SLOTS: usize = 256;
/// Marks an empty front-cache slot: no tag has this index.
const FRONT_EMPTY: u32 = u32::MAX;

/// The front-cache slot of `name`: an unkeyed multiply-rotate hash over
/// the name's bytes, eight at a time, top bits. A document can choose
/// names that share a slot; that only costs it the cache (see
/// [`TagInterner`]).
#[inline]
fn front_slot(name: &[u8]) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut chunks = name.chunks_exact(8);
    let mut h = name.len() as u64;
    for chunk in &mut chunks {
        h = mix(
            h,
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    (h >> (64 - FRONT_SLOTS.trailing_zeros())) as usize
}

/// Bidirectional map between tag names and [`TagId`]s.
///
/// The interner is append-only: tags are never removed, so any `TagId` it
/// hands out stays valid for its lifetime.
///
/// Lookups go through a small direct-mapped front cache first: the slot
/// of a name's bytes holds the id last resolved there, and a hit is
/// returned only after the full name bytes compare equal to that id's
/// name. Real documents repeat a few dozen names, so nearly every lookup
/// is one cheap hash and one compare. The keyed-SipHash map stays the
/// authority: tag names are chosen by the document, and a document that
/// makes its names collide in the cache only sends its lookups to the
/// map, never to a wrong id.
#[derive(Clone)]
pub struct TagInterner {
    names: Vec<Box<str>>,
    ids: HashMap<Box<str>, TagId>,
    /// Slot → index of the tag last resolved through it, or
    /// [`FRONT_EMPTY`].
    front: Box<[u32; FRONT_SLOTS]>,
}

impl Default for TagInterner {
    fn default() -> Self {
        TagInterner {
            names: Vec::new(),
            ids: HashMap::new(),
            front: Box::new([FRONT_EMPTY; FRONT_SLOTS]),
        }
    }
}

impl TagInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id cached in `slot`, if it names `name` exactly.
    #[inline]
    fn cached(&self, slot: usize, name: &str) -> Option<TagId> {
        let index = self.front[slot];
        let known = self.names.get(index as usize)?;
        (known.as_bytes() == name.as_bytes()).then_some(TagId(index))
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    #[inline]
    pub fn intern(&mut self, name: &str) -> TagId {
        let slot = front_slot(name.as_bytes());
        if let Some(id) = self.cached(slot, name) {
            return id;
        }
        let id = match self.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = TagId(u32::try_from(self.names.len()).expect("too many distinct tags"));
                self.names.push(name.into());
                self.ids.insert(name.into(), id);
                id
            }
        };
        self.front[slot] = id.0;
        id
    }

    /// Looks up the id of `name` without interning it.
    #[inline]
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.cached(front_slot(name.as_bytes()), name)
            .or_else(|| self.ids.get(name).copied())
    }

    /// Returns the name for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different interner and is out of
    /// range for this one.
    pub fn name(&self, id: TagId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct tags interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no tag has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (TagId(i as u32), n.as_ref()))
    }

    /// Serializes the interner (summary persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        crate::wire::put_u32(buf, self.names.len() as u32);
        for name in &self.names {
            crate::wire::put_str(buf, name);
        }
    }

    /// Deserializes an interner encoded by [`encode`](Self::encode). Ids
    /// are preserved (insertion order is stored); a name stored twice is
    /// refused, since it would shift every later id off the index the
    /// image gives it.
    pub fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::WireError> {
        let n = r.u32()? as usize;
        let mut t = TagInterner::new();
        for i in 0..n {
            let name = r.str()?;
            if t.intern(&name).index() != i {
                return Err(crate::wire::WireError::BadHeader("duplicate tag name"));
            }
        }
        Ok(t)
    }
}

impl fmt::Debug for TagInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.names.iter().enumerate())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = TagInterner::new();
        let a = t.intern("ACT");
        let b = t.intern("SCENE");
        assert_eq!(t.intern("ACT"), a);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut t = TagInterner::new();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            let id = t.intern(name);
            assert_eq!(id.index(), i);
            assert_eq!(TagId::from_index(i), id);
        }
    }

    #[test]
    fn name_round_trips() {
        let mut t = TagInterner::new();
        let id = t.intern("SPEECH");
        assert_eq!(t.name(id), "SPEECH");
        assert_eq!(t.get("SPEECH"), Some(id));
        assert_eq!(t.get("missing"), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut t = TagInterner::new();
        t.intern("x");
        t.intern("y");
        let collected: Vec<_> = t.iter().map(|(id, n)| (id.index(), n.to_owned())).collect();
        assert_eq!(collected, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn front_cache_answers_only_exact_names() {
        // Far more names than cache slots: slots are shared and
        // overwritten, and every lookup must still return the map's id.
        let mut t = TagInterner::new();
        let names: Vec<String> = (0..4 * FRONT_SLOTS).map(|i| format!("tag{i}")).collect();
        let ids: Vec<TagId> = names.iter().map(|n| t.intern(n)).collect();
        for round in 0..2 {
            for (name, &id) in names.iter().zip(&ids).rev() {
                assert_eq!(t.intern(name), id, "round {round}: {name}");
                assert_eq!(t.get(name), Some(id));
            }
        }
        // Prefixes, extensions and one-byte changes of cached names miss.
        let first = t.intern("tag1");
        assert_eq!(t.get("tag"), None);
        assert_eq!(t.get("tag1x"), None);
        assert_eq!(t.get("tah1"), None);
        assert_eq!(t.get("tag1"), Some(first));
        assert_eq!(t.len(), names.len());
    }

    #[test]
    fn names_sharing_a_slot_keep_their_ids() {
        // Find two names with one slot, then alternate them.
        let base = "a".to_owned();
        let slot = front_slot(base.as_bytes());
        let twin = (0..)
            .map(|i| format!("b{i}"))
            .find(|n| front_slot(n.as_bytes()) == slot)
            .expect("a colliding name exists");
        let mut t = TagInterner::new();
        let a = t.intern(&base);
        let b = t.intern(&twin);
        assert_ne!(a, b);
        for _ in 0..3 {
            assert_eq!(t.intern(&base), a);
            assert_eq!(t.get(&twin), Some(b));
            assert_eq!(t.intern(&twin), b);
            assert_eq!(t.get(&base), Some(a));
        }
    }

    #[test]
    fn empty_interner() {
        let t = TagInterner::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
