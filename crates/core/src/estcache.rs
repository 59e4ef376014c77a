//! Full-query estimate memoization — the skew-aware fast path.
//!
//! Production estimation traffic is heavily skewed: a handful of query
//! templates dominate arrivals. The [`JoinCache`](crate::JoinCache) is
//! *skeleton*-keyed (order constraints and the target node deliberately
//! excluded), so a repeated query still pays plan lookup, join-cache
//! probe, and the full finalize/order-ratio phases on every arrival.
//! [`EstimateCache`] memoizes the **finished estimate** above all of
//! that, keyed by the *complete* canonical query — tags, structural
//! edges, order constraints, and target — so the second arrival of a hot
//! template is one hash probe.
//!
//! # Key construction
//!
//! The key is the query's canonical text ([`Query`]'s `Display`
//! rendering — the same normalizer the workload generator uses for
//! deduplication), with its 64-bit hash computed once at construction;
//! shard-free map probes reuse it through the pass-through
//! [`PrehashedHasher`]. Canonicalization means surface variants of one
//! query (`pres::` vs the `folls::` orientation, redundant `$` markers)
//! collapse into one entry, while order-constraint variants that share a
//! *skeleton* — and therefore share a join-cache entry — still get
//! distinct estimate entries, because the canonical text renders their
//! constraints and targets.
//!
//! # Publication: the epoch/`Arc`-snapshot pattern
//!
//! Reads go through an immutable [`EstimateSnapshot`]: a reader holds
//! one `Arc` per observed epoch (see [`EstimateCacheReader`]),
//! revalidates it with a single atomic acquire load, and probes
//! lock-free until the epoch moves. The mutex guards publication only: a
//! miss computes its estimate outside any lock, then clones the current
//! segment, inserts, swaps the `Arc`, and bumps the epoch
//! (first-publication-wins — racing inserts of one key keep the first
//! value, which is safe because estimates are pure functions of
//! `(summary, canonical query)`). Warm hits therefore take **zero
//! locks**, which `kernel_stats()`'s debug lock counter asserts.
//!
//! # Bounded capacity without a lockable LRU
//!
//! Recency tracking is impossible on a lock-free read path, so the cache
//! bounds memory with two immutable segments instead: inserts go to
//! `current` (cloned copy-on-write, at most half the capacity), and when
//! `current` fills it *rotates* into `previous` — whose old entries are
//! dropped and counted as invalidations. A hot key that rotated out of
//! `current` keeps hitting from `previous`; once it ages out of both it
//! pays one recompute and re-enters. Rotation clones nothing (`previous`
//! is an `Arc` shared across snapshots), so the worst-case insert copies
//! `capacity / 2` entries.
//!
//! # What is never cached
//!
//! Only `EstimateStatus::Ok` values are published. Degraded answers
//! (budget-truncated joins, deadline expiry, isolated panics) and
//! rejected queries report the `f(tag)` clamp bound, not the estimate —
//! caching one would serve a policy artifact as a fact to a later,
//! healthier request. The callers in [`Estimator`](crate::Estimator)
//! enforce this; the cache itself stores whatever it is handed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use xpe_xpath::Query;

use crate::joincache::PrehashedHasher;

/// Canonical full-query cache key: the query's canonical text with its
/// hash computed once at construction. Unlike
/// [`SkeletonKey`](crate::SkeletonKey), order constraints and the target
/// node are **included** — two queries get equal keys iff their whole
/// estimates are interchangeable.
#[derive(Clone, Debug)]
pub struct EstimateKey {
    text: String,
    hash: u64,
}

impl PartialEq for EstimateKey {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for EstimateKey {}

impl std::hash::Hash for EstimateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl EstimateKey {
    /// Builds a key from canonical query text the caller already has
    /// (the workload generator computes it for deduplication; reusing it
    /// skips a re-render).
    pub fn from_text(text: String) -> EstimateKey {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write(text.as_bytes());
        EstimateKey {
            hash: h.finish(),
            text,
        }
    }

    /// The canonical query text this key normalizes to.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The precomputed 64-bit hash of the text.
    #[inline]
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

/// Builds the [`EstimateKey`] of `query` by rendering its canonical
/// text.
pub fn estimate_key(query: &Query) -> EstimateKey {
    EstimateKey::from_text(query.to_string())
}

/// A map keyed by [`EstimateKey`] through its precomputed hash.
type KeyMap = HashMap<EstimateKey, f64, BuildHasherDefault<PrehashedHasher>>;

/// An immutable view of the published estimates: the copy-on-write
/// `current` segment plus the shared, frozen `previous` segment. The
/// two are disjoint by construction (a key present in either is never
/// re-inserted), so `len` is exact.
#[derive(Debug, Default)]
pub struct EstimateSnapshot {
    current: KeyMap,
    previous: Arc<KeyMap>,
}

impl EstimateSnapshot {
    /// The published estimate for `key`, if any — a plain hash probe per
    /// segment, no lock, no atomic RMW.
    #[inline]
    pub fn get(&self, key: &EstimateKey) -> Option<f64> {
        self.current
            .get(key)
            .or_else(|| self.previous.get(key))
            .copied()
    }

    /// Number of published estimates across both segments.
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// Whether no estimate has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Epoch-published, capacity-bounded cache of finished full-query
/// estimates (see the module docs for the design).
///
/// Shared by every estimator of an engine or serving generation; each
/// holds its own [`EstimateCacheReader`] front, so warm hits never touch
/// the publication mutex. Capacity 0 disables the cache entirely:
/// lookups return nothing, publishes store nothing, and no counter
/// moves — matching an engine built without one.
#[derive(Debug)]
pub struct EstimateCache {
    /// The current snapshot; the mutex guards publication, not reads —
    /// readers clone the `Arc` out and drop the lock immediately.
    published: Mutex<Arc<EstimateSnapshot>>,
    /// Bumped (release) after every publication; readers revalidate
    /// their held snapshot with one acquire load.
    epoch: AtomicU64,
    /// Total entries across both segments; 0 disables the cache.
    capacity: usize,
    /// Entries the `current` segment holds before rotating.
    segment_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    invalidations: AtomicU64,
    locks: AtomicU64,
}

impl EstimateCache {
    /// A cache holding at most `capacity` estimates (split across the
    /// two segments; 0 disables caching entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        EstimateCache {
            published: Mutex::new(Arc::new(EstimateSnapshot::default())),
            epoch: AtomicU64::new(0),
            capacity,
            segment_capacity: capacity.div_ceil(2),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            locks: AtomicU64::new(0),
        }
    }

    /// Maximum entries the cache will hold (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current publication epoch. A reader holding a snapshot taken
    /// at this epoch sees every estimate published so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn lock_published(&self) -> MutexGuard<'_, Arc<EstimateSnapshot>> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The current snapshot and its epoch, read consistently under the
    /// publication mutex (one acquisition; probe the returned `Arc`
    /// lock-free afterwards).
    pub fn snapshot(&self) -> (Arc<EstimateSnapshot>, u64) {
        let published = self.lock_published();
        // The epoch is only ever written under this mutex, so the pair
        // is consistent.
        (Arc::clone(&published), self.epoch.load(Ordering::Relaxed))
    }

    /// Publishes `value` under `key`, returning the snapshot that now
    /// holds it (so the inserting reader can adopt it without a second
    /// lock). First-publication-wins: a key already present keeps its
    /// stored value — estimates are pure functions of the canonical
    /// query, so racing inserts always carry bit-identical values.
    pub fn insert(&self, key: EstimateKey, value: f64) -> (Arc<EstimateSnapshot>, u64) {
        debug_assert!(self.capacity > 0, "insert on a disabled cache");
        let mut published = self.lock_published();
        if published.get(&key).is_some() {
            return (Arc::clone(&published), self.epoch.load(Ordering::Relaxed));
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let mut current = published.current.clone();
        let mut previous = Arc::clone(&published.previous);
        current.insert(key, value);
        if current.len() >= self.segment_capacity {
            // Rotate: the old `previous` entries age out (counted as
            // invalidations); the filled `current` freezes into the new
            // `previous` without copying a single entry.
            self.invalidations
                .fetch_add(previous.len() as u64, Ordering::Relaxed);
            previous = Arc::new(std::mem::take(&mut current));
        }
        let next = Arc::new(EstimateSnapshot { current, previous });
        *published = Arc::clone(&next);
        let epoch = self.epoch.fetch_add(1, Ordering::Release) + 1;
        (next, epoch)
    }

    fn add_counts(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Number of published estimates.
    pub fn len(&self) -> usize {
        self.snapshot().0.len()
    }

    /// Whether no estimate has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a published estimate.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the full estimate. A disabled cache
    /// counts nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Estimates published (racing duplicate inserts excluded).
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Entries dropped by segment rotation — the cache's only eviction
    /// path. (A serving generation swap invalidates by replacing the
    /// whole cache, which this counter cannot see; the fresh cache
    /// starts from zero.)
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of publish-mutex acquisitions so far: snapshot refreshes,
    /// inserts, and introspection ([`len`](Self::len)) all count. Warm
    /// hits served from a reader's held snapshot must not move this —
    /// `kernel_stats()` folds it into `lock_acquisitions` so tests can
    /// assert exactly that.
    pub fn lock_count(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

/// One estimator's private front for a shared [`EstimateCache`]: the
/// held snapshot `Arc` plus the epoch it was taken at. Lookups
/// revalidate with one atomic load and probe the snapshot lock-free;
/// only an epoch moved by *another* estimator's publish costs a snapshot
/// refresh (one mutex acquisition), and a publish adopts the snapshot it
/// created, so a single-writer workload re-locks nothing. Hit/miss
/// tallies accumulate locally and fold into the shared counters at
/// [`flush`](Self::flush) (the engine flushes in `kernel_stats()`) and
/// on drop (batch workers retire before the batch returns), keeping
/// even the counter cache lines off the warm path.
#[derive(Debug)]
pub struct EstimateCacheReader {
    shared: Arc<EstimateCache>,
    snap: Arc<EstimateSnapshot>,
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl EstimateCacheReader {
    /// Wraps a shared cache, taking the initial snapshot (one lock).
    pub fn new(shared: Arc<EstimateCache>) -> Self {
        let (snap, epoch) = shared.snapshot();
        EstimateCacheReader {
            shared,
            snap,
            epoch,
            hits: 0,
            misses: 0,
        }
    }

    /// The shared cache this front reads from.
    pub fn shared(&self) -> &Arc<EstimateCache> {
        &self.shared
    }

    /// Looks up a key: one epoch load, then a lock-free snapshot probe.
    /// Refreshes the held snapshot first when the epoch moved.
    pub fn lookup(&mut self, key: &EstimateKey) -> Option<f64> {
        if self.shared.capacity == 0 {
            return None;
        }
        let epoch = self.shared.epoch();
        if epoch != self.epoch {
            let (snap, epoch) = self.shared.snapshot();
            self.snap = snap;
            self.epoch = epoch;
        }
        match self.snap.get(key) {
            Some(v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Publishes a finished estimate and adopts the snapshot holding it,
    /// so this reader's next lookup needs no refresh.
    pub fn publish(&mut self, key: EstimateKey, value: f64) {
        if self.shared.capacity == 0 {
            return;
        }
        let (snap, epoch) = self.shared.insert(key, value);
        self.snap = snap;
        self.epoch = epoch;
    }

    /// Folds the local hit/miss tallies into the shared counters (two
    /// atomic adds, no locks; a no-op when there is nothing to fold).
    pub fn flush(&mut self) {
        if self.hits > 0 || self.misses > 0 {
            self.shared.add_counts(self.hits, self.misses);
            self.hits = 0;
            self.misses = 0;
        }
    }
}

impl Drop for EstimateCacheReader {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xpath::parse_query;

    fn key(text: &str) -> EstimateKey {
        estimate_key(&parse_query(text).unwrap())
    }

    #[test]
    fn canonical_text_is_the_normalizer() {
        // Surface variants of one query collapse into one key: the
        // `pres::` orientation canonicalizes to `folls::`, and both
        // renderings parse back to the same canonical text. This pins
        // the normalization the cache keys on.
        let a = key("//A[/C/pres::B]");
        let b = key("//A[/B/folls::C]");
        assert_eq!(a.text(), b.text(), "{} vs {}", a.text(), b.text());
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
        assert!(a.text().contains("folls::"), "{}", a.text());
        assert!(!a.text().contains("pres::"), "{}", a.text());
    }

    #[test]
    fn order_and_target_variants_sharing_a_skeleton_get_distinct_keys() {
        // These four share one join-cache *skeleton* (structure only);
        // the estimate cache must keep them apart.
        let plain = key("//A[/C]/B");
        let ordered = key("//A[/C/folls::B]");
        let reversed = key("//A[/C/pres::B]");
        let retargeted = key("//A[/$C]/B");
        assert_ne!(plain, ordered);
        assert_ne!(ordered, reversed);
        assert_ne!(plain, retargeted);
        let skel = crate::joincache::skeleton_key(&parse_query("//A[/C]/B").unwrap());
        for q in ["//A[/C/folls::B]", "//A[/C/pres::B]", "//A[/$C]/B"] {
            assert_eq!(
                skel,
                crate::joincache::skeleton_key(&parse_query(q).unwrap()),
                "{q} was expected to share the skeleton"
            );
        }
    }

    #[test]
    fn warm_hits_take_zero_locks() {
        let cache = Arc::new(EstimateCache::with_capacity(64));
        let mut reader = EstimateCacheReader::new(Arc::clone(&cache));
        let k = key("//A//C");
        assert_eq!(reader.lookup(&k), None);
        reader.publish(k.clone(), 2.0);
        let locks = cache.lock_count();
        for _ in 0..100 {
            assert_eq!(reader.lookup(&k), Some(2.0));
        }
        assert_eq!(cache.lock_count(), locks, "warm hits must not lock");
        reader.flush();
        assert_eq!(cache.hits(), 100);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn publications_propagate_across_readers_via_the_epoch() {
        let cache = Arc::new(EstimateCache::with_capacity(64));
        let mut writer = EstimateCacheReader::new(Arc::clone(&cache));
        let mut reader = EstimateCacheReader::new(Arc::clone(&cache));
        let k = key("//A/B");
        assert_eq!(reader.lookup(&k), None);
        writer.publish(k.clone(), 5.0);
        // The other reader revalidates its epoch and refreshes.
        assert_eq!(reader.lookup(&k), Some(5.0));
    }

    #[test]
    fn first_publication_wins() {
        let cache = Arc::new(EstimateCache::with_capacity(64));
        let k = key("//A");
        cache.insert(k.clone(), 1.0);
        cache.insert(k.clone(), 9.0);
        let (snap, _) = cache.snapshot();
        assert_eq!(snap.get(&k), Some(1.0));
        assert_eq!(cache.inserts(), 1, "the losing insert is not counted");
    }

    #[test]
    fn rotation_bounds_capacity_and_counts_invalidations() {
        let cache = Arc::new(EstimateCache::with_capacity(8));
        let mut reader = EstimateCacheReader::new(Arc::clone(&cache));
        for i in 0..32 {
            reader.publish(EstimateKey::from_text(format!("//Q{i}")), i as f64);
            assert!(cache.len() <= 8, "len {} exceeds capacity", cache.len());
        }
        assert!(cache.invalidations() > 0);
        assert_eq!(cache.inserts(), 32);
        // A key still inside the retained window keeps hitting.
        assert_eq!(
            reader.lookup(&EstimateKey::from_text("//Q31".to_owned())),
            Some(31.0)
        );
    }

    #[test]
    fn zero_capacity_disables_caching_and_counts_nothing() {
        let cache = Arc::new(EstimateCache::with_capacity(0));
        let mut reader = EstimateCacheReader::new(Arc::clone(&cache));
        let k = key("//A/B");
        reader.publish(k.clone(), 1.0);
        assert_eq!(reader.lookup(&k), None);
        reader.flush();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.inserts(), 0);
        assert_eq!(cache.hit_rate(), 0.0);
    }
}
