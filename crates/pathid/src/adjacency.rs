//! The bitmap join kernel's lookup structures: one containment relation
//! per summary and one candidate bitmap per edge key.
//!
//! The path join's inner loop asks, per query edge, "which surviving
//! `(pid_u, pid_v)` pairs pass the §2 containment + tag-relationship
//! test?". A pair passes iff `pv ⊆ pu` and `pv` intersects the edge's
//! [`relation_mask`]. The first half depends only on the interner, the
//! second only on `(tag_u, tag_v, axis)`, so neither is recomputed per
//! query:
//!
//! * [`PidContainmentRelation`] holds `pv ⊆ pu` for every pid pair as
//!   forward and reverse bit rows, built once per summary.
//! * [`JoinIndexCache`] memoizes, per `(tag_u, tag_v, child_axis)` key,
//!   the *candidate bitmap*: the pids whose id intersects the key's mask.
//!   Beside them it memoizes the join's per-`(tag, rooted)` seed bitmaps.
//!
//! `pu ⊇ pv` and `pv ∩ mask ≠ ∅` force `pu ∩ mask ≠ ∅`, so `(pu, pv)` is
//! compatible iff `pv ⊆ pu` and both pids are candidates. A semi-join
//! whose two sides stay inside the candidates can therefore read the
//! unmasked relation rows directly — a word-parallel "does this pid's
//! row intersect the surviving set on the other side?" — and no per-key
//! row is ever materialized.
//!
//! The cache counts edge builds, build wall-time and pair totals so the
//! bench harness can report amortization (`adjacency_build_ms` in the
//! perf snapshot). [`JoinIndexReader`] is the lock-free front one
//! estimator (or one join) reads the cache through.

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use xpe_xml::TagId;

use crate::encoding::EncodingTable;
use crate::handle::HandleMap;
use crate::interner::PidInterner;
use crate::rel::relation_mask;
use crate::slab::PidBitmapSlab;
use crate::words;

/// The full pid-containment relation of one interner, as bitmap rows.
///
/// Path ids are per-node-instance unions of root-to-leaf path encodings,
/// so the family is *not* laminar in general — two ids can overlap
/// without nesting (Figure 1's interner already does). What every
/// `(tag_u, tag_v, axis)` edge shares is the underlying subset relation
/// `pv ⊆ pu`, which depends only on the interner. Computing it once per
/// summary leaves each per-key build a mask screen over the pids: the
/// join kernel reads these rows directly and keeps both sides of every
/// semi-join inside the key's candidates.
///
/// Rows use the dense pid-index bitmap layout (LSB-first, like the
/// candidate bitmaps): `set_words` words per pid, bit
/// `v` of forward row `u` set iff `pv ⊆ pu` (non-strict, so every
/// nonempty pid relates at least to itself). Empty ids get empty rows —
/// they fail every mask screen and contain nothing nonempty.
#[derive(Debug)]
pub struct PidContainmentRelation {
    /// Words per row (`pid_count.div_ceil(64)`).
    set_words: usize,
    /// Forward rows: bit `v` of row `u` set iff `pv ⊆ pu`.
    fwd_bits: Vec<u64>,
    /// Reverse rows: bit `u` of row `v` set iff `pv ⊆ pu`.
    rev_bits: Vec<u64>,
    /// Number of `(u, v)` pairs in the relation.
    pairs: usize,
}

impl PidContainmentRelation {
    /// Builds the relation over every row of `slab`.
    ///
    /// The scan is a screened quadratic loop — ascending-popcount prefix
    /// bound, word-support signature refutation, support-truncated subset
    /// walks — run once over the nonempty pids, so no per-key build ever
    /// runs a containment test.
    pub fn build(slab: &PidBitmapSlab) -> Self {
        let n = slab.rows();
        let set_words = n.div_ceil(64);
        let mut fwd_bits = vec![0u64; n * set_words];
        let mut rev_bits = vec![0u64; n * set_words];

        let ne: Vec<u32> = (0..n as u32)
            .filter(|&i| !words::is_empty(slab.row_words(i as usize)))
            .collect();
        let m = ne.len();
        let pc: Vec<u32> = ne
            .iter()
            .map(|&i| words::count_ones(slab.row_words(i as usize)))
            .collect();
        let sig: Vec<u64> = ne
            .iter()
            .map(|&i| words::support_signature(slab.row_words(i as usize)))
            .collect();

        // Candidates in ascending-popcount order with popcounts,
        // signatures, and dense indices permuted alongside: `pv ⊆ pu`
        // forces `pc(v) ≤ pc(u)`, so each u examines only the sorted
        // prefix and the popcount screen degenerates into the loop bound.
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_unstable_by_key(|&r| pc[r as usize]);
        let spc: Vec<u32> = order.iter().map(|&r| pc[r as usize]).collect();
        let ssig: Vec<u64> = order.iter().map(|&r| sig[r as usize]).collect();
        let sidx: Vec<u32> = order.iter().map(|&r| ne[r as usize]).collect();

        // The signature aliases word `j` to bit `j % 64`, so its top bit
        // only bounds a row's true support when rows fit in 64 words;
        // wider rows must walk their full width or any word at index
        // ≥ 64 would be silently ignored, admitting false pairs.
        let full = slab.words_per_row();
        let sig_exact = full <= 64;

        let mut pairs = 0usize;
        for (r, &u32_) in ne.iter().enumerate() {
            let u = u32_ as usize;
            let wu = slab.row_words(u);
            let (pc_u, sig_u) = (pc[r], sig[r]);
            for k in 0..m {
                if spc[k] > pc_u {
                    break;
                }
                if ssig[k] & !sig_u != 0 {
                    continue;
                }
                // Words past v's highest nonzero word are zero and subset
                // anything, so the multi-word walk stops at v's support —
                // when the signature is exact about where that support ends.
                let lv = if sig_exact {
                    64 - ssig[k].leading_zeros() as usize
                } else {
                    full
                };
                let v = sidx[k] as usize;
                if words::is_subset(&slab.row_words(v)[..lv], &wu[..lv]) {
                    words::set_bit(&mut fwd_bits[u * set_words..(u + 1) * set_words], v);
                    words::set_bit(&mut rev_bits[v * set_words..(v + 1) * set_words], u);
                    pairs += 1;
                }
            }
        }
        Self {
            set_words,
            fwd_bits,
            rev_bits,
            pairs,
        }
    }

    /// Words per row (`pid_count.div_ceil(64)`).
    #[inline]
    pub fn set_words(&self) -> usize {
        self.set_words
    }

    /// Bitmap of pids contained in pid index `u` (its descendants-or-self).
    #[inline]
    pub fn forward_row(&self, u: usize) -> &[u64] {
        &self.fwd_bits[u * self.set_words..(u + 1) * self.set_words]
    }

    /// Bitmap of pids containing pid index `v` (its ancestors-or-self).
    #[inline]
    pub fn reverse_row(&self, v: usize) -> &[u64] {
        &self.rev_bits[v * self.set_words..(v + 1) * self.set_words]
    }

    /// Number of `(pu, pv)` pairs with `pv ⊆ pu`, both nonempty.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.pairs
    }
}

/// The candidate bitmap of one `(tag_u, tag_v, child_axis)` key — bit
/// `i` set iff pid `i`'s id intersects the key's [`relation_mask`] — and
/// the key's compatible-pair count, `Σ popcount(forward_row(u) ∧ cand)`
/// over the candidates `u`.
fn edge_candidates(
    encoding: &EncodingTable,
    slab: &PidBitmapSlab,
    relation: &PidContainmentRelation,
    tag_u: TagId,
    tag_v: TagId,
    child_axis: bool,
) -> (Vec<u64>, u64) {
    let mask = relation_mask(encoding, tag_u, tag_v, child_axis);
    let mut cand = vec![0u64; relation.set_words()];
    for i in 0..slab.rows() {
        if words::intersects(slab.row_words(i), mask.words()) {
            words::set_bit(&mut cand, i);
        }
    }
    let pairs = words::ones(&cand)
        .map(|u| {
            let row = relation.forward_row(u).iter().zip(&cand);
            row.map(|(r, c)| u64::from((r & c).count_ones()))
                .sum::<u64>()
        })
        .sum();
    (cand, pairs)
}

/// Key of one memoized bitmap, shared by the snapshot map and the
/// in-flight claims. Kinds 0/1 are edge candidates (the kind is the
/// child-axis bit, the payload `(tag_u << 32) | tag_v`); kinds 2/3 are
/// seeds (`2 + rooted`, the payload the tag index). The packing is
/// injective for every representable tag index.
type BitmapKey = (u8, u64);

fn edge_key(tag_u: TagId, tag_v: TagId, child_axis: bool) -> BitmapKey {
    (
        u8::from(child_axis),
        ((tag_u.index() as u64) << 32) | tag_v.index() as u64,
    )
}

fn seed_key(tag: TagId, rooted: bool) -> BitmapKey {
    (2 + u8::from(rooted), tag.index() as u64)
}

fn is_edge(key: BitmapKey) -> bool {
    key.0 < 2
}

/// A bitmap together with a snapshot that holds it and that snapshot's
/// epoch, so the caller's reader can adopt the snapshot without a second
/// lock.
type Published = (Arc<Vec<u64>>, Arc<JoinIndexSnapshot>, u64);

/// An immutable view of every candidate and seed bitmap published so far.
///
/// The owning [`JoinIndexCache`] publishes a fresh snapshot (map clone +
/// insert + `Arc` swap under its mutex) each time a cold build completes,
/// and bumps its epoch. A [`JoinIndexReader`] holds one `Arc` per
/// observed epoch and probes it with plain hash lookups — no lock, no
/// atomic RMW — which is what keeps warm joins lock-free even when the
/// cache is shared by every worker of a batch.
type JoinIndexSnapshot = HandleMap<BitmapKey, Arc<Vec<u64>>>;

/// Epoch-published memo table of the join kernel's bitmaps for one
/// summary: a candidate bitmap per `(tag_u, tag_v, child_axis)` edge key,
/// a seed bitmap per `(tag, rooted)`, and the summary's slab and
/// [`PidContainmentRelation`], built on first use.
///
/// Reads go through a [`JoinIndexReader`], which holds an immutable
/// snapshot of the map and revalidates it with a single
/// [`epoch`](Self::epoch) load. The mutex guards publication only — a
/// miss builds its bitmap *outside* the lock, then rechecks, clones the
/// current map, inserts, swaps the `Arc`, and bumps the epoch. A per-key
/// in-flight guard keeps same-key cold misses from duplicating work: the
/// first worker claims the key and builds, racers wait on a condvar and
/// then read the published entry, and misses on *different* keys still
/// build fully in parallel. The publish-side recheck stays as a
/// first-publication-wins backstop (a claim released by a panicking
/// builder can let a second attempt run). Builds are pure functions of
/// the key and the (immutable) summary structures, so every reader
/// observes the same bitmaps regardless of which epoch it joined at.
/// Edge build count, build attempts, cumulative build time, pair totals,
/// and mutex acquisitions are tracked for the perf snapshot.
#[derive(Debug, Default)]
pub struct JoinIndexCache {
    /// The current snapshot; the mutex guards publication, not reads —
    /// readers clone the `Arc` out and drop the lock immediately.
    published: Mutex<Arc<JoinIndexSnapshot>>,
    /// Bumped (release) after every publication; readers revalidate
    /// their held snapshot with one acquire load.
    epoch: AtomicU64,
    /// Arena layout of the summary's interner, built on first use.
    slab: OnceLock<PidBitmapSlab>,
    /// Containment relation over the slab rows, built on first use and
    /// read by every join.
    relation: OnceLock<PidContainmentRelation>,
    builds: AtomicU64,
    build_nanos: AtomicU64,
    pairs: AtomicU64,
    locks: AtomicU64,
    /// Keys whose build is currently running. A cold miss claims its key
    /// here before building; racing workers on the *same* key wait on
    /// [`inflight_cv`](Self::inflight_cv) and then re-probe the snapshot
    /// instead of duplicating the build. Different keys still build
    /// fully in parallel.
    inflight: Mutex<HashSet<BitmapKey>>,
    /// Wakes same-key waiters when a claim is released (publish or
    /// panic — the claim is a drop guard).
    inflight_cv: Condvar,
    /// Edge builds *started* (claimed and run), published or not. With
    /// the in-flight guard this equals [`builds`](Self::builds) in the
    /// absence of builder panics; the serving regression tests assert
    /// exactly that.
    build_attempts: AtomicU64,
}

/// Ownership of one in-flight build key. Dropping it — on publish *or*
/// on a panicking build unwinding through the claim scope — removes the
/// key and wakes every same-key waiter, so a dead builder can never
/// strand them.
struct InflightClaim<'a> {
    cache: &'a JoinIndexCache,
    key: BitmapKey,
}

impl Drop for InflightClaim<'_> {
    fn drop(&mut self) {
        let mut set = self
            .cache
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        set.remove(&self.key);
        drop(set);
        self.cache.inflight_cv.notify_all();
    }
}

impl JoinIndexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current publication epoch. A reader holding a snapshot taken
    /// at this epoch sees every entry published so far; snapshots only
    /// ever grow, so a stale one is still correct — merely incomplete.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot and its epoch, read consistently under the
    /// publication mutex (one acquisition; probe the returned `Arc`
    /// lock-free afterwards).
    fn snapshot(&self) -> (Arc<JoinIndexSnapshot>, u64) {
        let published = self.lock_published();
        // The epoch is only ever written under this mutex, so the pair
        // is consistent.
        (Arc::clone(&published), self.epoch.load(Ordering::Relaxed))
    }

    fn lock_published(&self) -> MutexGuard<'_, Arc<JoinIndexSnapshot>> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Tries to claim an in-flight key; `None` means another worker is
    /// already building it.
    fn try_claim(&self, key: BitmapKey) -> Option<InflightClaim<'_>> {
        let mut set = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        // `then`, not `then_some`: the guard's constructor must stay
        // lazy. An eagerly built claim would be dropped right here on
        // the `false` path — deadlocking on the lock this function
        // already holds and erasing the real builder's claim.
        set.insert(key).then(|| InflightClaim { cache: self, key })
    }

    /// Blocks until `key`'s current builder releases its claim (or a
    /// short timeout elapses, bounding any missed-wakeup window). The
    /// caller re-probes the snapshot afterwards.
    fn wait_inflight(&self, key: BitmapKey) {
        let set = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        if set.contains(&key) {
            let _ = self
                .inflight_cv
                .wait_timeout(set, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The one claim → build → recheck → publish loop behind every
    /// bitmap. `build` returns the bitmap and, for edge keys, its pair
    /// count. It runs outside the publish lock, at most once per call and
    /// never concurrently for one key (a waiter whose builder panicked
    /// re-runs it). Only edge keys move the build counters.
    fn get_or_build(&self, key: BitmapKey, build: impl Fn() -> (Vec<u64>, u64)) -> Published {
        loop {
            let (snap, epoch) = self.snapshot();
            if let Some(b) = snap.get(&key) {
                return (Arc::clone(b), Arc::clone(&snap), epoch);
            }
            let Some(_claim) = self.try_claim(key) else {
                // Another worker is building this key right now: wait
                // for its publication instead of duplicating the work,
                // then re-probe.
                self.wait_inflight(key);
                continue;
            };
            // Claimed. Re-probe once — the previous holder may have
            // published between our probe and our claim.
            let (snap, epoch) = self.snapshot();
            if let Some(b) = snap.get(&key) {
                return (Arc::clone(b), Arc::clone(&snap), epoch);
            }
            if is_edge(key) {
                self.build_attempts.fetch_add(1, Ordering::Relaxed);
            }
            let t0 = Instant::now();
            let (bits, pairs) = build();
            let build_nanos = t0.elapsed().as_nanos() as u64;
            let mut published = self.lock_published();
            if let Some(b) = published.get(&key) {
                let epoch = self.epoch.load(Ordering::Relaxed);
                return (Arc::clone(b), Arc::clone(&published), epoch);
            }
            if is_edge(key) {
                self.builds.fetch_add(1, Ordering::Relaxed);
                self.build_nanos.fetch_add(build_nanos, Ordering::Relaxed);
                self.pairs.fetch_add(pairs, Ordering::Relaxed);
            }
            let built = Arc::new(bits);
            let mut next = JoinIndexSnapshot::clone(&published);
            next.insert(key, Arc::clone(&built));
            let next = Arc::new(next);
            *published = Arc::clone(&next);
            let epoch = self.epoch.fetch_add(1, Ordering::Release) + 1;
            return (built, next, epoch);
        }
    }

    /// The memoized arena layout of `pids`, building it on first use.
    /// Callers must always pass the same interner (the cache is
    /// per-summary); the first call fixes the layout.
    fn slab(&self, pids: &PidInterner) -> &PidBitmapSlab {
        self.slab.get_or_init(|| PidBitmapSlab::from_interner(pids))
    }

    /// The memoized containment relation of `pids`, building it (and the
    /// slab, if cold) on first use.
    ///
    /// # Panics
    ///
    /// If `pids` has a different pid count than the interner the layout
    /// was built from. The kernel indexes relation rows by the summary's
    /// pid indices, so a cache warmed on one summary and paired with
    /// another would answer from the wrong relation.
    pub fn relation(&self, pids: &PidInterner) -> &PidContainmentRelation {
        let slab = self.slab(pids);
        assert!(
            slab.rows() == pids.len(),
            "JoinIndexCache paired with a different summary: built for {} pids, \
             queried with {}",
            slab.rows(),
            pids.len()
        );
        self.relation
            .get_or_init(|| PidContainmentRelation::build(slab))
    }

    /// Number of published edge keys (seeds are not counted).
    pub fn len(&self) -> usize {
        self.snapshot().0.keys().filter(|&&k| is_edge(k)).count()
    }

    /// Whether no edge key has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total *published* edge builds. A build that loses a same-key
    /// publish race is discarded without counting, so this equals
    /// [`len`](Self::len).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Total edge builds *started*. The per-key in-flight guard coalesces
    /// same-key cold misses, so this equals [`builds`](Self::builds)
    /// unless a builder panicked mid-build (its claim is released and a
    /// waiter retries) — the regression tests for duplicate cold builds
    /// assert the equality.
    pub fn build_attempts(&self) -> u64 {
        self.build_attempts.load(Ordering::Relaxed)
    }

    /// Cumulative wall-clock milliseconds spent building edge candidates.
    pub fn build_ms(&self) -> f64 {
        self.build_nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Total compatible pairs across every edge build.
    pub fn pair_total(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }

    /// Number of publish-mutex acquisitions so far: snapshot refreshes,
    /// cold builds, and introspection ([`len`](Self::len)) all count.
    /// Warm joins served from a [`JoinIndexReader`]'s held snapshot must
    /// not move this — `kernel_stats()` surfaces the sum so tests can
    /// assert exactly that.
    pub fn lock_count(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

/// One estimator's (or one join's) front for a shared [`JoinIndexCache`]:
/// the held snapshot `Arc` plus the epoch it was taken at. Lookups
/// revalidate with one atomic load and probe the snapshot lock-free; only
/// an epoch moved by *another* reader's publish costs a refresh (one
/// mutex acquisition), and a cold build adopts the snapshot it published,
/// so a single-writer workload re-locks nothing.
///
/// `C` is how the front holds the cache: `Arc<JoinIndexCache>` for an
/// estimator that owns its front, `&JoinIndexCache` for a one-off join.
/// The front is only meaningful for the summary its cache serves;
/// [`JoinIndexCache::relation`] enforces the pairing.
#[derive(Debug)]
pub struct JoinIndexReader<C: Deref<Target = JoinIndexCache>> {
    shared: C,
    snap: Arc<JoinIndexSnapshot>,
    epoch: u64,
}

impl<C: Deref<Target = JoinIndexCache>> JoinIndexReader<C> {
    /// Wraps a shared cache without locking: the front starts on the
    /// empty epoch-0 view — the cache's state before its first
    /// publication — and refreshes on its first probe if the epoch has
    /// moved since.
    pub fn new(shared: C) -> Self {
        JoinIndexReader {
            shared,
            snap: Arc::default(),
            epoch: 0,
        }
    }

    /// The bitmap of `key`: a held-snapshot hit, else `miss` against the
    /// shared cache, whose returned snapshot the front adopts.
    fn get(
        &mut self,
        key: BitmapKey,
        miss: impl FnOnce(&JoinIndexCache) -> Published,
    ) -> Arc<Vec<u64>> {
        if self.shared.epoch() != self.epoch {
            (self.snap, self.epoch) = self.shared.snapshot();
        }
        if let Some(b) = self.snap.get(&key) {
            return Arc::clone(b);
        }
        let (bits, snap, epoch) = miss(&self.shared);
        (self.snap, self.epoch) = (snap, epoch);
        bits
    }

    /// The candidate bitmap of `(tag_u, tag_v, child_axis)`, building and
    /// publishing it on first use. Concurrent cold calls on the same key
    /// coalesce into one build; other keys build in parallel.
    pub fn candidates(
        &mut self,
        encoding: &EncodingTable,
        pids: &PidInterner,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> Arc<Vec<u64>> {
        let key = edge_key(tag_u, tag_v, child_axis);
        self.get(key, |cache| {
            // Resolve the shared layout first: the OnceLocks serialize
            // their own once-per-summary builds, which stay out of
            // `build_ms`.
            let relation = cache.relation(pids);
            let slab = cache.slab(pids);
            cache.get_or_build(key, || {
                edge_candidates(encoding, slab, relation, tag_u, tag_v, child_axis)
            })
        })
    }

    /// The seed bitmap of `(tag, rooted)`, running `build` on first use
    /// (through the same claim and publish path as the candidates; seeds
    /// move no build counter).
    pub fn seed(
        &mut self,
        tag: TagId,
        rooted: bool,
        build: impl Fn() -> Vec<u64>,
    ) -> Arc<Vec<u64>> {
        let key = seed_key(tag, rooted);
        self.get(key, |cache| cache.get_or_build(key, || (build(), 0)))
    }

    /// The shared containment relation of `pids` (see
    /// [`JoinIndexCache::relation`], including its pairing check).
    pub fn relation(&self, pids: &PidInterner) -> &PidContainmentRelation {
        self.shared.relation(pids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Pid;
    use crate::label::Labeling;
    use crate::rel::axis_compatible_masked;

    /// Checks one key's candidate bitmap against the reference §2
    /// predicate [`axis_compatible_masked`] under the key's fresh
    /// relation mask: `forward_row(u) ∧ cand` must hold exactly the
    /// compatible partners of *every* `u` (no screen on `u` needed —
    /// `pu ⊇ pv` and `pv ∩ mask ≠ ∅` force `u` into the candidates), and
    /// `reverse_row(v) ∧ cand` exactly those of every candidate `v` (the
    /// kernel screens `v` before reading its row). Also checks that the
    /// candidates are the mask-intersecting pids and that `pairs` counts
    /// the masked-compatible pairs.
    fn assert_matches_masked(
        (cand, pairs): (&[u64], u64),
        relation: &PidContainmentRelation,
        encoding: &EncodingTable,
        pids: &PidInterner,
        key: (TagId, TagId, bool),
    ) {
        let (tu, tv, child) = key;
        let mask = relation_mask(encoding, tu, tv, child);
        let masked = |row: &[u64], p: Pid| {
            words::test_bit(row, p.index()) && words::test_bit(cand, p.index())
        };
        let mut expected_pairs = 0;
        for (pu, bu) in pids.iter() {
            for (pv, _) in pids.iter() {
                let expected = axis_compatible_masked(pids, pu, pv, &mask);
                assert_eq!(
                    masked(relation.forward_row(pu.index()), pv),
                    expected,
                    "fwd {tu:?}/{tv:?} child={child} {pu:?}->{pv:?}"
                );
                if words::test_bit(cand, pv.index()) {
                    assert_eq!(
                        masked(relation.reverse_row(pv.index()), pu),
                        expected,
                        "rev {tu:?}/{tv:?} child={child} {pu:?}->{pv:?}"
                    );
                }
                expected_pairs += u64::from(expected);
            }
            assert_eq!(
                words::test_bit(cand, pu.index()),
                bu.intersects(&mask),
                "{pu:?}"
            );
        }
        assert_eq!(pairs, expected_pairs, "{tu:?}/{tv:?} child={child}");
        assert_eq!(cand.len(), pids.len().div_ceil(64));
        assert_eq!(relation.set_words(), pids.len().div_ceil(64));
    }

    /// One lookup through a fresh front, like a one-off join: a cold key
    /// takes the cache's claim, build and publish path.
    fn candidates(
        cache: &JoinIndexCache,
        lab: &Labeling,
        tu: TagId,
        tv: TagId,
        child: bool,
    ) -> Arc<Vec<u64>> {
        JoinIndexReader::new(cache).candidates(&lab.encoding, &lab.interner, tu, tv, child)
    }

    /// [`candidates`] for a seed key.
    fn seed(
        cache: &JoinIndexCache,
        tag: TagId,
        rooted: bool,
        build: impl Fn() -> Vec<u64>,
    ) -> Arc<Vec<u64>> {
        JoinIndexReader::new(cache).seed(tag, rooted, build)
    }

    /// Builds and checks one key standalone, against a fresh slab and
    /// relation.
    fn check_standalone(encoding: &EncodingTable, pids: &PidInterner, key: (TagId, TagId, bool)) {
        let slab = PidBitmapSlab::from_interner(pids);
        let relation = PidContainmentRelation::build(&slab);
        let (tu, tv, child) = key;
        let (cand, pairs) = edge_candidates(encoding, &slab, &relation, tu, tv, child);
        assert_matches_masked((&cand, pairs), &relation, encoding, pids, key);
    }

    /// Every key of the Figure-1 document — all tag pairs, both axes —
    /// built standalone.
    #[test]
    fn adjacency_rows_match_masked_test() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for &tu in &tags {
            for &tv in &tags {
                for child in [true, false] {
                    check_standalone(&lab.encoding, &lab.interner, (tu, tv, child));
                }
            }
        }
    }

    /// The same keys filled through the cache, which shares one slab and
    /// one containment relation across every key of the summary; each
    /// build's pair count is read back from the cache's running total.
    #[test]
    fn relation_fill_matches_masked_test() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = JoinIndexCache::new();
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for &tu in &tags {
            for &tv in &tags {
                for child in [true, false] {
                    let before = cache.pair_total();
                    let cand = candidates(&cache, &lab, tu, tv, child);
                    let pairs = cache.pair_total() - before;
                    let relation = cache.relation(&lab.interner);
                    let key = (tu, tv, child);
                    assert_matches_masked(
                        (&cand, pairs),
                        relation,
                        &lab.encoding,
                        &lab.interner,
                        key,
                    );
                }
            }
        }
        assert_eq!(cache.builds(), (tags.len() * tags.len() * 2) as u64);
    }

    /// Real documents' path ids overlap without nesting (each id is a
    /// per-instance union of leaf-path encodings), so the relation must
    /// handle arbitrary bit-set families exactly — no laminarity
    /// assumption anywhere. Hand-build an overlapping family and check
    /// the candidates against the §2 predicate directly.
    #[test]
    fn overlapping_unnested_ids_are_exact() {
        use crate::bits::PathIdBits;

        // Overlap without containment: {1,2} and {2,3} over three paths.
        let mut tags = xpe_xml::TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut encoding = EncodingTable::new();
        encoding.intern(&[a, b]);
        encoding.intern(&[a, b, b]);
        encoding.intern(&[a]);
        let width = encoding.len() as u32;
        let mut pids = PidInterner::new(width);
        for bits in [&[1u32, 2][..], &[2, 3], &[1, 2, 3]] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            pids.intern(id);
        }
        let relation = PidContainmentRelation::build(&PidBitmapSlab::from_interner(&pids));
        // {1,2} ⊆ {1,2,3}, {2,3} ⊆ {1,2,3}, plus the three reflexive
        // pairs; the overlapping pair {1,2} vs {2,3} nests neither way.
        assert_eq!(relation.pair_count(), 5);

        for child in [true, false] {
            check_standalone(&encoding, &pids, (a, b, child));
        }
    }

    /// Interners wider than 64 words alias the support signature (word
    /// `j` → bit `j % 64`), so the subset walk must not truncate rows to
    /// the aliased support. Regression: a 65-word interner with ids
    /// {1,2} and {1,4099} used to report a bogus {1,2} ⊇ {1,4099} pair
    /// (pair_count 3 instead of 2) in every builder that took the
    /// truncated fast path.
    #[test]
    fn wide_interner_relation_is_exact() {
        use crate::bits::PathIdBits;

        let width = 4160u32; // 65 words — one past the signature's reach
        let mut pids = PidInterner::new(width);
        for bits in [
            &[1u32, 2][..],
            &[1, 4099],
            &[4099],
            &[2, 4099, 4100],
            &[1, 2, 4099, 4100],
            &[65, 4160],
        ] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            pids.intern(id);
        }
        let slab = PidBitmapSlab::from_interner(&pids);
        let relation = PidContainmentRelation::build(&slab);
        let mut pairs = 0;
        for (pu, bu) in pids.iter() {
            for (pv, bv) in pids.iter() {
                let expected = bu.contains_or_equal(bv);
                assert_eq!(
                    words::test_bit(relation.forward_row(pu.index()), pv.index()),
                    expected,
                    "fwd {pu:?} ⊇ {pv:?}"
                );
                assert_eq!(
                    words::test_bit(relation.reverse_row(pv.index()), pu.index()),
                    expected,
                    "rev {pu:?} ⊇ {pv:?}"
                );
                pairs += usize::from(expected);
            }
        }
        assert_eq!(relation.pair_count(), pairs);

        // The reviewer's minimal counterexample, verbatim.
        let mut two = PidInterner::new(width);
        for bits in [&[1u32, 2][..], &[1, 4099]] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            two.intern(id);
        }
        let rel = PidContainmentRelation::build(&PidBitmapSlab::from_interner(&two));
        assert_eq!(rel.pair_count(), 2, "only the two reflexive pairs");
    }

    /// The candidate screen stays exact past 64 words of interner width —
    /// the same regression as `wide_interner_relation_is_exact`, through
    /// the masked candidate build.
    #[test]
    fn wide_interner_adjacency_matches_masked_test() {
        use crate::bits::PathIdBits;

        // 4160 distinct paths via binary strings over two tags: enough
        // encodings that high pid words are real, cheap to intern.
        let mut tags = xpe_xml::TagInterner::new();
        let r = tags.intern("r");
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut encoding = EncodingTable::new();
        for i in 0..4160u32 {
            let mut path = vec![r];
            for bit in 0..13 {
                path.push(if i >> bit & 1 == 1 { a } else { b });
            }
            encoding.intern(&path);
        }
        let width = encoding.len() as u32;
        assert!(width > 4096);

        let mut pids = PidInterner::new(width);
        for bits in [
            &[1u32, 2][..],
            &[1, 4099],
            &[4099],
            &[2, 4099, 4100],
            &[1, 2, 4099, 4100],
            &[65, 126, 4160],
        ] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            pids.intern(id);
        }
        for child in [true, false] {
            check_standalone(&encoding, &pids, (r, a, child));
        }
    }

    #[test]
    fn seed_bitmaps_memoize() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let cache = JoinIndexCache::new();
        let s1 = seed(&cache, tags[0], true, || vec![0b101]);
        let s2 = seed(&cache, tags[0], true, || panic!("memo must hit"));
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(*s1, vec![0b101]);
        let s3 = seed(&cache, tags[0], false, || vec![0b11]);
        assert_eq!(*s3, vec![0b11]);
        // Seeds are not edge keys: no build counter moves.
        assert!(cache.is_empty());
        assert_eq!(cache.builds(), 0);
        let slab1 = cache.slab(&lab.interner);
        let slab2 = cache.slab(&lab.interner);
        assert!(std::ptr::eq(slab1, slab2));
        assert_eq!(slab1.rows(), lab.interner.len());
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = JoinIndexCache::new();
        assert!(cache.is_empty());
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let a1 = candidates(&cache, &lab, tags[0], tags[1], true);
        let pairs = cache.pair_total();
        let a2 = candidates(&cache, &lab, tags[0], tags[1], true);
        assert!(Arc::ptr_eq(&a1, &a2), "second lookup hits the memo");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.pair_total(), pairs, "a hit adds no pairs");
        candidates(&cache, &lab, tags[1], tags[0], false);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.builds(), 2);
    }

    /// A reader serves warm keys from its held snapshot without locking,
    /// and adopts the snapshot its own cold build published — so a
    /// single-writer workload never refreshes.
    #[test]
    fn reader_adopts_its_own_publications() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let cache = JoinIndexCache::new();
        let mut reader = JoinIndexReader::new(&cache);
        let (enc, pids) = (&lab.encoding, &lab.interner);
        let cold = reader.candidates(enc, pids, tags[0], tags[1], true);
        let seed = reader.seed(tags[0], false, || vec![0b1]);
        let locks = cache.lock_count();
        let warm = reader.candidates(enc, pids, tags[0], tags[1], true);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert!(Arc::ptr_eq(
            &seed,
            &reader.seed(tags[0], false, || panic!("warm"))
        ));
        assert_eq!(cache.lock_count(), locks, "warm probes take no lock");
        // Another writer moves the epoch: one refresh, then lock-free.
        JoinIndexReader::new(&cache).candidates(enc, pids, tags[1], tags[0], false);
        let locks = cache.lock_count();
        reader.candidates(enc, pids, tags[0], tags[1], true);
        reader.candidates(enc, pids, tags[1], tags[0], false);
        assert_eq!(cache.lock_count(), locks + 1);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = Arc::new(JoinIndexCache::new());
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for &tu in &tags {
                        for &tv in &tags {
                            let c = candidates(&cache, &lab, tu, tv, true);
                            assert_eq!(c.len(), lab.interner.len().div_ceil(64));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), tags.len() * tags.len());
        // Every cold miss either built or waited for the builder; the
        // in-flight guard means no key was ever built twice.
        assert_eq!(cache.build_attempts(), cache.builds());
    }

    #[test]
    fn same_key_cold_race_coalesces_into_one_build() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        // Many rounds: each uses a fresh cache and races 8 threads on a
        // single cold key, the historically racy shape.
        for round in 0..20 {
            let cache = JoinIndexCache::new();
            let built: Vec<Arc<Vec<u64>>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| s.spawn(|| candidates(&cache, &lab, tags[0], tags[1], true)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // Exactly one build ran; every thread got the published Arc.
            assert_eq!(cache.build_attempts(), 1, "round {round}");
            assert_eq!(cache.builds(), 1, "round {round}");
            for a in &built {
                assert!(Arc::ptr_eq(a, &built[0]), "round {round}");
            }
        }
    }

    #[test]
    fn same_key_seed_race_runs_the_closure_once() {
        use std::sync::atomic::AtomicU64;
        let doc = xpe_xml::fixtures::paper_figure1();
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for round in 0..20 {
            let cache = JoinIndexCache::new();
            let calls = AtomicU64::new(0);
            let seeds: Vec<Arc<Vec<u64>>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            seed(&cache, tags[0], true, || {
                                calls.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window a little.
                                std::thread::yield_now();
                                vec![0b1011]
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(calls.load(Ordering::Relaxed), 1, "round {round}");
            for sdw in &seeds {
                assert!(Arc::ptr_eq(sdw, &seeds[0]), "round {round}");
            }
        }
    }

    #[test]
    fn panicking_builder_releases_the_claim_for_waiters() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let cache = JoinIndexCache::new();
        // First builder panics inside the seed closure; its claim must
        // drop so a later caller can build the key instead of hanging.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            seed(&cache, tags[0], true, || panic!("builder dies"))
        }));
        std::panic::set_hook(prev);
        assert!(died.is_err());
        let s = seed(&cache, tags[0], true, || vec![0b1]);
        assert_eq!(*s, vec![0b1]);
    }
}
