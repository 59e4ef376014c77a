//! Workload-level join memoization.
//!
//! The join's output depends only on a query's *structural skeleton* —
//! the tags and the child/descendant axes connecting them. The target
//! node and order constraints play no role: the join prunes on structural
//! edges alone (§5's formulas layer order corrections on top afterwards),
//! and the target merely selects which surviving list downstream formulas
//! read. Workloads repeat skeletons constantly — template-generated
//! queries differ in their order predicates, and even a single estimate
//! joins several derived queries (plain spine, trimmed spine) sharing
//! structure — so memoizing `skeleton → JoinResult` across a batch
//! removes whole join fixpoints, not just per-edge work.
//!
//! [`SkeletonKey`] is the canonical byte encoding of that skeleton, with
//! its 64-bit hash computed **once** at construction: shard selection and
//! the in-shard map probe both reuse it (the shard maps run a
//! pass-through hasher), so a lookup hashes the key bytes exactly one
//! time instead of the two SipHash passes the derived `Hash` used to
//! cost. [`JoinCache`] is a sharded LRU keyed by it, shared by every
//! worker of an [`EstimationEngine`](crate::EstimationEngine) batch. An
//! entry is a completed `Arc<JoinResult>` and nothing else: a
//! budget-truncated join is not the fixpoint, so it publishes nothing,
//! and a later miss on its skeleton rebuilds the prepared plan.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::join::JoinResult;
use xpe_xpath::{Axis, Query};

/// Canonical encoding of a query's structural skeleton: the root axis,
/// then per node (in id order) its length-prefixed tag and its structural
/// edges as `(axis, target-index)` pairs. Two queries get equal keys iff
/// the join treats them identically — order constraints and the target
/// node are deliberately excluded.
///
/// The key carries the hash of its bytes, computed once at construction;
/// `Hash` forwards that value (the hash is a pure function of the bytes,
/// so equal keys always agree) and equality compares the bytes.
#[derive(Clone, Debug)]
pub struct SkeletonKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl PartialEq for SkeletonKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for SkeletonKey {}

impl std::hash::Hash for SkeletonKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl SkeletonKey {
    /// The precomputed 64-bit hash of the key bytes.
    #[inline]
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

/// Builds the [`SkeletonKey`] of `query`, hashing its bytes once.
pub fn skeleton_key(query: &Query) -> SkeletonKey {
    let mut buf = Vec::with_capacity(16 + 8 * query.len());
    buf.push(match query.root_axis() {
        Axis::Child => 0u8,
        Axis::Descendant => 1,
        _ => unreachable!("root axis is structural"),
    });
    for id in query.node_ids() {
        let node = query.node(id);
        buf.extend_from_slice(&(node.tag.len() as u32).to_le_bytes());
        buf.extend_from_slice(node.tag.as_bytes());
        buf.extend_from_slice(&(node.edges.len() as u32).to_le_bytes());
        for e in &node.edges {
            buf.push(match e.axis {
                Axis::Child => 0u8,
                Axis::Descendant => 1,
                _ => unreachable!("structural edges only"),
            });
            buf.extend_from_slice(&(e.to.index() as u32).to_le_bytes());
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(&buf);
    SkeletonKey {
        hash: h.finish(),
        bytes: buf,
    }
}

/// Pass-through hasher for keys that carry a precomputed hash:
/// [`SkeletonKey::hash`] writes its stored `u64` and this hasher returns
/// it unchanged, so map probes pay zero re-hashing.
#[derive(Default)]
pub(crate) struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("prehashed keys hash via write_u64 only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// One cache entry: recency tick and the memoized join result.
struct Entry {
    tick: u64,
    result: Arc<JoinResult>,
}

/// One LRU shard: key → entry. Eviction scans for the minimum tick —
/// shards stay small (capacity / 8), so a scan beats the bookkeeping of
/// an intrusive list at these sizes.
#[derive(Default)]
struct Shard {
    map: HashMap<SkeletonKey, Entry, BuildHasherDefault<PrehashedHasher>>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

const SHARDS: usize = 8;

/// A sharded LRU cache of completed join results keyed by query
/// skeleton.
///
/// Thread-safe: shards are independently locked, so concurrent batch
/// workers rarely contend. Hit/miss counters feed the benchmark report's
/// `join_cache_hit_rate`, and a disabled cache (capacity 0) counts
/// neither, matching an engine built without one.
pub struct JoinCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard capacity; 0 disables the cache (every lookup returns
    /// nothing, nothing is stored, and no counter moves).
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    locks: AtomicU64,
}

impl std::fmt::Debug for JoinCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinCache")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl JoinCache {
    /// A cache holding at most `capacity` skeletons (rounded up to a
    /// multiple of the shard count; 0 disables caching entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(SHARDS)
        };
        JoinCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            locks: AtomicU64::new(0),
        }
    }

    /// The shard a key lives in, selected from the middle bits of its
    /// precomputed hash. Not the low bits: the in-shard hashbrown map
    /// derives its bucket index from those, and reusing them would make
    /// every key in a shard collide into the same bucket neighborhood.
    fn shard(&self, key: &SkeletonKey) -> &Mutex<Shard> {
        &self.shards[((key.hash64() >> 32) as usize) % SHARDS]
    }

    /// Locks a key's shard, counting the acquisition.
    fn lock_shard(&self, key: &SkeletonKey) -> std::sync::MutexGuard<'_, Shard> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a skeleton, refreshing its recency, and counts a hit or a
    /// miss — except on a disabled cache, which counts nothing (there is
    /// no cache to hit or miss).
    pub fn lookup(&self, key: &SkeletonKey) -> Option<Arc<JoinResult>> {
        if self.shard_capacity == 0 {
            return None;
        }
        let found = self.peek(key);
        self.add_counts(found.is_some() as u64, found.is_none() as u64);
        found
    }

    /// [`lookup`](Self::lookup) without the hit/miss accounting: the
    /// probe [`WorkerJoinCache`] issues on a local miss. The worker front
    /// tallies hits and misses itself and folds them in at flush, so
    /// counting here would double-book them. Recency is still refreshed —
    /// a peek is a real use of the entry.
    fn peek(&self, key: &SkeletonKey) -> Option<Arc<JoinResult>> {
        if self.shard_capacity == 0 {
            return None;
        }
        let mut shard = self.lock_shard(key);
        let tick = shard.touch();
        shard.map.get_mut(key).map(|entry| {
            entry.tick = tick;
            Arc::clone(&entry.result)
        })
    }

    /// Folds hit/miss counts into the shared totals (atomic adds, no
    /// locks).
    fn add_counts(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Publishes a skeleton's completed join result, evicting the
    /// least-recently-used entry of the key's shard when it is full.
    pub fn publish(&self, key: SkeletonKey, result: Arc<JoinResult>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.lock_shard(&key);
        let tick = shard.touch();
        if let Some(entry) = shard.map.get_mut(&key) {
            *entry = Entry { tick, result };
            return;
        }
        if shard.map.len() >= self.shard_capacity {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
            }
        }
        shard.map.insert(key, Entry { tick, result });
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.locks
            .fetch_add(self.shards.len() as u64, Ordering::Relaxed);
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries the cache will hold (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// Lookups that found a memoized join result.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the join. A disabled cache counts nothing.
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

    /// Number of shard-mutex acquisitions so far (lookups, publishes and
    /// worker-front probes all count; `len` counts one per shard). Warm
    /// lookups served from a [`WorkerJoinCache`]'s private map must not
    /// move this.
    pub fn lock_count(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

/// One worker's private, lock-free front for a shared [`JoinCache`].
///
/// Lookups probe a private unsynchronized map first and fall through to
/// one shared-shard probe only on a local miss, copying a shared hit into
/// the private map. Publishes write through: a completed result goes to
/// its shared shard right away (one lock), so another worker about to run
/// the same join finds it on its very next probe — which is what keeps a
/// cold batch from computing every hot skeleton once *per worker*.
/// Results are only ever computed on a miss, so a warm workload publishes
/// nothing and touches no shared line at all.
///
/// Hit/miss counts are tallied locally and folded into the shared
/// counters by [`flush`](Self::flush), which also runs on drop — the same
/// scheme as [`EstimateCacheReader`](crate::EstimateCacheReader). The
/// private map never holds more entries than the shared capacity: when a
/// lookup or a publish would exceed it, the map is cleared first, so a
/// long-lived worker cannot hoard unbounded entries. A disabled shared
/// cache (capacity 0) disables the front the same way: lookups return
/// nothing and no counter moves.
pub struct WorkerJoinCache {
    shared: Arc<JoinCache>,
    local: HashMap<SkeletonKey, Arc<JoinResult>, BuildHasherDefault<PrehashedHasher>>,
    hits: u64,
    misses: u64,
}

impl WorkerJoinCache {
    /// Wraps a shared cache; the private map starts empty and seeds
    /// itself from the shared side on local misses.
    pub fn new(shared: Arc<JoinCache>) -> Self {
        WorkerJoinCache {
            shared,
            local: HashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The shared cache this worker front writes through to.
    pub fn shared(&self) -> &Arc<JoinCache> {
        &self.shared
    }

    /// Looks up a skeleton: private map first (no locks), then one
    /// shared-shard probe on a local miss. Hit/miss accounting matches
    /// [`JoinCache::lookup`] but is tallied locally until
    /// [`flush`](Self::flush).
    pub fn lookup(&mut self, key: &SkeletonKey) -> Option<Arc<JoinResult>> {
        if self.shared.capacity() == 0 {
            return None;
        }
        if let Some(result) = self.local.get(key) {
            self.hits += 1;
            return Some(Arc::clone(result));
        }
        let Some(result) = self.shared.peek(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.remember(key.clone(), Arc::clone(&result));
        Some(result)
    }

    /// Publishes a completed join result: written through to the shared
    /// cache, and kept in the private map.
    pub fn publish(&mut self, key: SkeletonKey, result: Arc<JoinResult>) {
        if self.shared.capacity() == 0 {
            return;
        }
        self.shared.publish(key.clone(), Arc::clone(&result));
        self.remember(key, result);
    }

    /// Stores an entry in the private map, clearing the map first when it
    /// is already at the shared capacity.
    fn remember(&mut self, key: SkeletonKey, result: Arc<JoinResult>) {
        if self.local.len() >= self.shared.capacity() {
            self.local.clear();
        }
        self.local.insert(key, result);
    }

    /// Folds the local hit/miss tallies into the shared counters (two
    /// atomic adds, no locks; a no-op when there is nothing to fold).
    pub fn flush(&mut self) {
        self.shared.add_counts(self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
    }
}

impl Drop for WorkerJoinCache {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for WorkerJoinCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerJoinCache")
            .field("local_len", &self.local.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};
    use xpe_xpath::parse_query;

    fn result_with_marker(marker: f64) -> Arc<JoinResult> {
        Arc::new(JoinResult {
            lists: vec![vec![(xpe_pathid::Pid::from_index(0), marker)]],
        })
    }

    fn key(q: &str) -> SkeletonKey {
        skeleton_key(&parse_query(q).unwrap())
    }

    #[test]
    fn order_constraints_and_target_do_not_change_the_key() {
        let plain = parse_query("//A[/C]/B").unwrap();
        let ordered = parse_query("//A[/C/folls::$B]").unwrap();
        assert_eq!(skeleton_key(&plain), skeleton_key(&ordered));
        assert_eq!(
            skeleton_key(&plain).hash64(),
            skeleton_key(&ordered).hash64()
        );
    }

    #[test]
    fn structure_changes_the_key() {
        let base = parse_query("//A[/C]/B").unwrap();
        for other in ["//A[/D]/B", "//A[//C]/B", "/A[/C]/B", "//A/C/B"] {
            let q = parse_query(other).unwrap();
            assert_ne!(skeleton_key(&base), skeleton_key(&q), "{other}");
        }
    }

    #[test]
    fn key_hashes_through_its_precomputed_value() {
        let key = key("//A[/C]/B");
        let mut h = PrehashedHasher::default();
        key.hash(&mut h);
        assert_eq!(h.finish(), key.hash64());
    }

    #[test]
    fn hit_only_for_structurally_identical_skeletons() {
        let cache = JoinCache::with_capacity(64);
        assert!(cache.lookup(&key("//A[/C]/B")).is_none());
        cache.publish(key("//A[/C]/B"), result_with_marker(7.0));
        // Same structure, different order constraint: hit.
        let hit = cache
            .lookup(&key("//A[/C/folls::$B]"))
            .expect("skeleton hit");
        assert_eq!(hit.lists[0][0].1, 7.0);
        // Different structure: miss.
        assert!(cache.lookup(&key("//A[/D]/B")).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        // Single-entry shards make eviction order observable regardless of
        // which shard each key hashes to.
        let cache = JoinCache::with_capacity(SHARDS);
        let (a, b) = (key("//A"), key("//B"));
        cache.publish(a.clone(), result_with_marker(1.0));
        cache.publish(b.clone(), result_with_marker(2.0));
        if std::ptr::eq(cache.shard(&a), cache.shard(&b)) {
            // Same shard: `b` evicted `a`.
            assert!(cache.lookup(&a).is_none());
            assert!(cache.lookup(&b).is_some());
        } else {
            assert!(cache.lookup(&a).is_some());
            assert!(cache.lookup(&b).is_some());
        }
    }

    #[test]
    fn zero_capacity_disables_caching_and_counts_nothing() {
        let cache = JoinCache::with_capacity(0);
        let key = key("//A/B");
        cache.publish(key.clone(), result_with_marker(1.0));
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), 0);
        // A disabled cache skews no rate: neither hits nor misses move —
        // the same accounting as an engine holding no cache at all.
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hit_rate(), 0.0);
    }

    #[test]
    fn republishing_an_existing_key_does_not_evict_others() {
        let cache = JoinCache::with_capacity(SHARDS);
        let a = key("//A");
        cache.publish(a.clone(), result_with_marker(1.0));
        cache.publish(a.clone(), result_with_marker(3.0));
        assert_eq!(cache.lookup(&a).unwrap().lists[0][0].1, 3.0);
        assert_eq!(cache.len(), 1);
    }

    /// A publish is visible to every other front at once, and each
    /// front's tallies reach the shared counters at flush or drop.
    #[test]
    fn worker_fronts_write_through_and_fold_tallies_on_flush_and_drop() {
        let shared = Arc::new(JoinCache::with_capacity(64));
        let mut writer = WorkerJoinCache::new(Arc::clone(&shared));
        let mut reader = WorkerJoinCache::new(Arc::clone(&shared));
        let k = key("//A//C");
        assert!(writer.lookup(&k).is_none());
        writer.publish(k.clone(), result_with_marker(5.0));
        assert_eq!(
            reader.lookup(&k).expect("written through").lists[0][0].1,
            5.0
        );
        // Served privately now: no shard lock.
        let locks = shared.lock_count();
        assert!(reader.lookup(&k).is_some());
        assert_eq!(shared.lock_count(), locks);
        assert_eq!(
            (shared.hits(), shared.misses()),
            (0, 0),
            "tallies are local"
        );
        writer.flush();
        assert_eq!((shared.hits(), shared.misses()), (0, 1));
        drop(reader);
        assert_eq!((shared.hits(), shared.misses()), (2, 1));
    }

    /// A front that only reads still respects the shared capacity: every
    /// shared hit it copies into its private map counts against the
    /// bound, so a long-lived read-only worker cannot grow without limit.
    #[test]
    fn read_only_front_stays_within_the_shared_capacity() {
        let shared = Arc::new(JoinCache::with_capacity(8));
        let mut front = WorkerJoinCache::new(Arc::clone(&shared));
        for i in 0..100 {
            let k = key(&format!("//T{i}"));
            shared.publish(k.clone(), result_with_marker(i as f64));
            assert!(front.lookup(&k).is_some(), "key {i} was just published");
            assert!(front.local.len() <= 8, "after {i}: {}", front.local.len());
        }
    }
}
