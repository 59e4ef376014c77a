//! A small multiplicative hasher for maps keyed by dense handles.
//!
//! Summary construction probes maps keyed by [`Pid`](crate::Pid) and
//! [`TagId`](xpe_xml::TagId) handles (and tuples of them) once per
//! element or per sibling pair. Those keys are small integers the
//! interners assign densely from zero, whatever the document says, so an
//! unkeyed hasher cannot be steered into collisions by input text. std's
//! keyed SipHash stays on every map keyed by document *content* — tag
//! names, label paths, path-id bit patterns — where an attacker chooses
//! the keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the golden-ratio family (the constant of rustc's
/// `FxHasher`): one multiply spreads a dense index over the high bits
/// the table's control bytes use, and keeps the low bits a bijection of
/// the key's low bits for the bucket index.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher for integer handles. Not keyed: use it only for
/// keys an input cannot choose (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct HandleHasher(u64);

impl HandleHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for HandleHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by dense handles, hashed with [`HandleHasher`].
pub type HandleMap<K, V> = HashMap<K, V, BuildHasherDefault<HandleHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pid;
    use std::hash::{BuildHasher, Hash};
    use xpe_xml::TagId;

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<HandleHasher>::default().hash_one(t)
    }

    #[test]
    fn dense_handle_pairs_hash_apart() {
        let mut seen = std::collections::HashSet::new();
        for p in 0..256 {
            for t in 0..64 {
                assert!(seen.insert(hash(&(Pid::from_index(p), TagId::from_index(t)))));
            }
        }
    }
}
