//! The batched estimation engine — the throughput layer over
//! [`Estimator`].
//!
//! A single [`Estimator`] already memoizes containment adjacencies and
//! recycles join allocations; the engine adds workload-level machinery on
//! top: a shared containment-adjacency index and a workload-level
//! [`JoinCache`] that every worker warms for the others,
//! plus [`estimate_batch`](EstimationEngine::estimate_batch), which fans a
//! query slice across scoped worker threads. Each worker owns one
//! estimator (scratch arenas never cross threads) while all of them read
//! the same summary and memo tables. Results come back in input order and
//! are bit-identical to a serial `estimate` loop — estimates are pure
//! functions of `(summary, query)`; the caches only change how fast they
//! are produced.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xpe_par::ItemPanic;
use xpe_pathid::JoinIndexCache;
use xpe_synopsis::Summary;
use xpe_xpath::{Query, QueryParseError};

use crate::estcache::EstimateCache;
use crate::estimator::Estimator;
use crate::invariant::finalize_estimate;
use crate::join::JoinKernel;
use crate::joincache::JoinCache;
use crate::serve::{Budget, DegradedReason, EstimateOutcome, EstimateStatus, QueryLimits};

/// Default number of join results the engine's workload cache retains.
/// Sized to hold the full distinct-skeleton working set of the paper's
/// template workloads with headroom — XMark's workload plus its derived
/// spine queries reaches ~1.2k skeletons, and an LRU running just below
/// its working set thrashes, re-running a full join fixpoint for every
/// evicted reuse — while still bounding memory on adversarial ones.
pub const DEFAULT_JOIN_CACHE_CAPACITY: usize = 4096;

/// Default number of finished estimates the engine's full-query cache
/// retains. Estimates are keyed by the complete canonical query, not the
/// skeleton, so the distinct-key population is larger than the join
/// cache's; each entry is only a string key and an `f64`, so holding the
/// whole working set of a skewed production workload is cheap.
pub const DEFAULT_ESTIMATE_CACHE_CAPACITY: usize = 16384;

/// Kernel counters of one engine's lifetime, for benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Join-cache lookups that found a memoized result.
    pub join_cache_hits: u64,
    /// Join-cache lookups that ran the join kernel.
    pub join_cache_misses: u64,
    /// `hits / (hits + misses)`, or 0 before any lookup.
    pub join_cache_hit_rate: f64,
    /// Full-query estimate-cache lookups served from a published value —
    /// the skew-aware fast path that skips the join machinery entirely.
    pub estimate_cache_hits: u64,
    /// Full-query estimate-cache lookups that ran the estimate.
    pub estimate_cache_misses: u64,
    /// `hits / (hits + misses)` of the estimate cache, or 0 before any
    /// lookup.
    pub estimate_cache_hit_rate: f64,
    /// Finished `Ok` estimates published to the estimate cache (degraded,
    /// rejected, and budget-truncated answers are never published).
    pub estimate_cache_inserts: u64,
    /// Estimate-cache entries dropped by segment rotation — its only
    /// eviction path.
    pub estimate_cache_invalidations: u64,
    /// Containment adjacencies built (distinct `(tag, tag, axis)` triples).
    pub adjacency_builds: u64,
    /// Total wall-clock milliseconds spent building adjacencies.
    pub adjacency_build_ms: f64,
    /// Total `(pid_u, pid_v)` pairs materialized across all adjacencies.
    pub adjacency_pairs: u64,
    /// Fallible estimates that completed normally.
    pub outcomes_ok: u64,
    /// Fallible estimates served degraded (budget exhaustion or an
    /// isolated worker panic).
    pub outcomes_degraded: u64,
    /// Fallible estimates refused by admission control.
    pub outcomes_rejected: u64,
    /// Worker panics caught and isolated by `try_estimate_batch` (a
    /// subset of `outcomes_degraded`).
    pub worker_panics: u64,
    /// Lock (mutex) acquisitions across the engine's shared caches: the
    /// adjacency index, the join cache's shards, and the estimate cache.
    /// The warm-path contract is that this counter does **not** move
    /// between two [`kernel_stats`](EstimationEngine::kernel_stats) calls
    /// with only warm estimates in between — snapshot probes, private
    /// memos, and worker-local join caches serve everything lock-free.
    pub lock_acquisitions: u64,
}

/// Lifetime outcome tallies of an engine's fallible entry points.
#[derive(Debug, Default)]
struct OutcomeCounters {
    ok: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    panics: AtomicU64,
}

impl OutcomeCounters {
    fn tally(&self, outcome: &EstimateOutcome) {
        match &outcome.status {
            EstimateStatus::Ok => self.ok.fetch_add(1, Ordering::Relaxed),
            EstimateStatus::Degraded { reason } => {
                if matches!(reason, DegradedReason::Panicked { .. }) {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                }
                self.degraded.fetch_add(1, Ordering::Relaxed)
            }
            EstimateStatus::Rejected { .. } => self.rejected.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Batch-capable estimation engine over a prebuilt [`Summary`].
pub struct EstimationEngine<'s> {
    summary: &'s Summary,
    adjacency: Arc<JoinIndexCache>,
    join_cache: Option<Arc<JoinCache>>,
    est_cache: Option<Arc<EstimateCache>>,
    threads: usize,
    kernel: JoinKernel,
    local: Estimator<'s>,
    limits: QueryLimits,
    budget: Budget,
    outcomes: OutcomeCounters,
}

impl<'s> EstimationEngine<'s> {
    /// Creates an engine with one worker per available core and the
    /// default join-cache capacity.
    pub fn new(summary: &'s Summary) -> Self {
        Self::with_parts(
            summary,
            0,
            DEFAULT_JOIN_CACHE_CAPACITY,
            DEFAULT_ESTIMATE_CACHE_CAPACITY,
        )
    }

    fn with_parts(
        summary: &'s Summary,
        threads: usize,
        join_cache_capacity: usize,
        estimate_cache_capacity: usize,
    ) -> Self {
        let adjacency = Arc::new(JoinIndexCache::new());
        let join_cache = (join_cache_capacity > 0)
            .then(|| Arc::new(JoinCache::with_capacity(join_cache_capacity)));
        let est_cache = (estimate_cache_capacity > 0)
            .then(|| Arc::new(EstimateCache::with_capacity(estimate_cache_capacity)));
        EstimationEngine {
            summary,
            adjacency: Arc::clone(&adjacency),
            join_cache: join_cache.clone(),
            est_cache: est_cache.clone(),
            threads,
            kernel: JoinKernel::default(),
            local: Estimator::with_caches(summary, adjacency, join_cache)
                .with_estimate_cache(est_cache),
            limits: QueryLimits::unlimited(),
            budget: Budget::unlimited(),
            outcomes: OutcomeCounters::default(),
        }
    }

    /// Sets the batch worker count: `0` uses one worker per available
    /// core, `1` runs batches serially, any other value is taken
    /// literally.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets how many join results the workload-level join cache retains;
    /// `0` disables join caching entirely.
    pub fn with_join_cache_capacity(self, capacity: usize) -> Self {
        let est = self.est_cache.as_ref().map_or(0, |c| c.capacity());
        self.rebuild_with_caches(capacity, est)
    }

    /// Sets how many finished estimates the full-query estimate cache
    /// retains; `0` disables the skew-aware fast path entirely (every
    /// arrival runs the join machinery, as before this cache existed).
    pub fn with_estimate_cache_capacity(self, capacity: usize) -> Self {
        let join = self.join_cache.as_ref().map_or(0, |c| c.capacity());
        self.rebuild_with_caches(join, capacity)
    }

    fn rebuild_with_caches(self, join_capacity: usize, estimate_capacity: usize) -> Self {
        let mut rebuilt =
            Self::with_parts(self.summary, self.threads, join_capacity, estimate_capacity);
        rebuilt.limits = self.limits;
        rebuilt.budget = self.budget;
        // The outcome tallies are lifetime counters of *this* engine, not
        // of one cache configuration — carry them into the rebuild or
        // `kernel_stats()` silently under-reports after a capacity change.
        rebuilt.outcomes = self.outcomes;
        rebuilt = rebuilt.with_kernel(self.kernel);
        rebuilt
    }

    /// Selects the join kernel every estimator of this engine runs — the
    /// resident one and each batch worker (default:
    /// [`JoinKernel::Bitmap`]). Estimates are bit-identical across
    /// kernels; only throughput changes.
    pub fn with_kernel(mut self, kernel: JoinKernel) -> Self {
        self.kernel = kernel;
        self.local = self.local.with_kernel(kernel);
        self
    }

    /// The configured join kernel.
    pub fn kernel(&self) -> JoinKernel {
        self.kernel
    }

    /// Sets the admission policy the fallible entry points check; the
    /// default admits everything.
    pub fn with_limits(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the per-query resource budget the fallible entry points run
    /// under; the default never exhausts.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured admission policy.
    pub fn limits(&self) -> &QueryLimits {
        &self.limits
    }

    /// The configured per-query budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The configured worker count (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The summary the engine estimates against.
    pub fn summary(&self) -> &'s Summary {
        self.summary
    }

    /// The shared containment-adjacency index (grows as queries run).
    pub fn adjacency_cache(&self) -> &Arc<JoinIndexCache> {
        &self.adjacency
    }

    /// The workload-level join cache, if enabled.
    pub fn join_cache(&self) -> Option<&Arc<JoinCache>> {
        self.join_cache.as_ref()
    }

    /// The full-query estimate cache, if enabled.
    pub fn estimate_cache(&self) -> Option<&Arc<EstimateCache>> {
        self.est_cache.as_ref()
    }

    /// Kernel counters accumulated over this engine's lifetime.
    ///
    /// Flushes the resident estimator's cache tallies first so
    /// single-query traffic through [`estimate`](Self::estimate) is
    /// visible; batch workers fold theirs when they retire, before the
    /// batch call returns. Reads only atomics and never takes a shared
    /// lock itself, so `lock_acquisitions` deltas measure the estimates
    /// in between.
    pub fn kernel_stats(&self) -> KernelStats {
        self.local.flush_caches();
        let (hits, misses, rate, join_locks) = match &self.join_cache {
            Some(c) => (c.hits(), c.misses(), c.hit_rate(), c.lock_count()),
            None => (0, 0, 0.0, 0),
        };
        let (est_hits, est_misses, est_rate, est_inserts, est_invalidations, est_locks) =
            match &self.est_cache {
                Some(c) => (
                    c.hits(),
                    c.misses(),
                    c.hit_rate(),
                    c.inserts(),
                    c.invalidations(),
                    c.lock_count(),
                ),
                None => (0, 0, 0.0, 0, 0, 0),
            };
        KernelStats {
            join_cache_hits: hits,
            join_cache_misses: misses,
            join_cache_hit_rate: rate,
            estimate_cache_hits: est_hits,
            estimate_cache_misses: est_misses,
            estimate_cache_hit_rate: est_rate,
            estimate_cache_inserts: est_inserts,
            estimate_cache_invalidations: est_invalidations,
            adjacency_builds: self.adjacency.builds(),
            adjacency_build_ms: self.adjacency.build_ms(),
            adjacency_pairs: self.adjacency.pair_total(),
            outcomes_ok: self.outcomes.ok.load(Ordering::Relaxed),
            outcomes_degraded: self.outcomes.degraded.load(Ordering::Relaxed),
            outcomes_rejected: self.outcomes.rejected.load(Ordering::Relaxed),
            worker_panics: self.outcomes.panics.load(Ordering::Relaxed),
            lock_acquisitions: self.adjacency.lock_count() + join_locks + est_locks,
        }
    }

    /// A fresh estimator sharing this engine's caches — for callers that
    /// want to drive queries themselves (e.g. one per thread).
    pub fn estimator(&self) -> Estimator<'s> {
        Estimator::with_caches(
            self.summary,
            Arc::clone(&self.adjacency),
            self.join_cache.clone(),
        )
        .with_estimate_cache(self.est_cache.clone())
        .with_kernel(self.kernel)
    }

    /// Estimates one query on the engine's resident estimator.
    pub fn estimate(&self, query: &Query) -> f64 {
        self.local.estimate(query)
    }

    /// Parses and estimates one query string.
    pub fn estimate_str(&self, query: &str) -> Result<f64, QueryParseError> {
        self.local.estimate_str(query)
    }

    /// Estimates every query, fanning across the configured worker count;
    /// `out[i]` is the estimate of `queries[i]`. Bit-identical to calling
    /// [`estimate`](Self::estimate) per query in order.
    ///
    /// Runs on the same worker loop as
    /// [`try_estimate_batch_with`](Self::try_estimate_batch_with), calling
    /// [`Estimator::estimate`]: the engine's limits and budget do not
    /// apply, and a panicking query panics the caller once the batch has
    /// run (the first panic in input order is re-raised).
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        self.run_batch(queries, |est, q| est.estimate(q))
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| p.resume()))
            .collect()
    }

    /// Fallible estimation of one query under the engine's admission
    /// policy and budget, tallied into [`kernel_stats`](Self::kernel_stats).
    pub fn try_estimate(&self, query: &Query) -> EstimateOutcome {
        let out = self.local.try_estimate(query, &self.limits, &self.budget);
        self.outcomes.tally(&out);
        out
    }

    /// Fallible batch estimation: every query runs under the engine's
    /// admission policy and budget with **panic isolation** — a panicking
    /// query yields a `Degraded(Panicked)` outcome in its slot while
    /// every other query still completes. No panic escapes this method.
    pub fn try_estimate_batch(&self, queries: &[Query]) -> Vec<EstimateOutcome> {
        let limits = &self.limits;
        let budget = &self.budget;
        self.try_estimate_batch_with(queries, move |est, q| est.try_estimate(q, limits, budget))
    }

    /// The isolation seam under [`try_estimate_batch`](Self::try_estimate_batch):
    /// fans `queries` across the configured workers, running `f` per query
    /// on a per-worker [`Estimator`] inside a panic boundary. A caught
    /// panic becomes a `Degraded(Panicked)` outcome whose value is the
    /// query's `f(tag)` upper bound; the worker's estimator is discarded
    /// and rebuilt, so later queries on that worker never see
    /// mid-mutation state. The fault harness injects through `f` to prove
    /// those properties hold.
    pub fn try_estimate_batch_with<F>(&self, queries: &[Query], f: F) -> Vec<EstimateOutcome>
    where
        F: Fn(&Estimator<'s>, &Query) -> EstimateOutcome + Sync,
    {
        self.run_batch(queries, f)
            .into_iter()
            .zip(queries)
            .map(|(r, q)| {
                let out = r.unwrap_or_else(|panic| {
                    let cap = self.local.tag_cap(q);
                    EstimateOutcome {
                        value: finalize_estimate(cap, cap),
                        status: EstimateStatus::Degraded {
                            reason: DegradedReason::Panicked {
                                message: panic.message,
                            },
                        },
                    }
                });
                self.outcomes.tally(&out);
                out
            })
            .collect()
    }

    /// The one batch worker loop: `f` runs per query on a per-worker
    /// [`Estimator`] sharing the engine's caches, under
    /// [`xpe_par::par_map_isolated`]. Each worker's estimator drops — and
    /// so folds its cache tallies into the shared counters — before this
    /// returns.
    fn run_batch<R, F>(&self, queries: &[Query], f: F) -> Vec<Result<R, ItemPanic>>
    where
        R: Send,
        F: Fn(&Estimator<'s>, &Query) -> R + Sync,
    {
        // The engine itself is not `Sync` (its resident estimator holds
        // `RefCell`s), so the worker `init` captures the shared parts.
        let summary = self.summary;
        let adjacency = &self.adjacency;
        let join_cache = &self.join_cache;
        let est_cache = &self.est_cache;
        let kernel = self.kernel;
        xpe_par::par_map_isolated(
            self.threads,
            queries.len(),
            || {
                Estimator::with_caches(summary, Arc::clone(adjacency), join_cache.clone())
                    .with_estimate_cache(est_cache.clone())
                    .with_kernel(kernel)
            },
            |est, i| f(est, &queries[i]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_synopsis::SummaryConfig;
    use xpe_xpath::parse_query;

    const QUERIES: &[&str] = &[
        "//A//C",
        "//A[/C/F]/B/D",
        "//C[/$E]/F",
        "/Root//E",
        "//A[/C[/F]/folls::$B/D]",
        "//A/Zebra",
        "//D/A",
        "//A[/C/foll::$B]",
    ];

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        )
    }

    #[test]
    fn batch_matches_serial_estimates_bitwise() {
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(64)
            .map(|q| parse_query(q).unwrap())
            .collect();
        let reference = Estimator::new(&s);
        let serial: Vec<f64> = queries.iter().map(|q| reference.estimate(q)).collect();
        for threads in [0, 1, 2, 4] {
            let engine = EstimationEngine::new(&s).with_threads(threads);
            let batch = engine.estimate_batch(&queries);
            assert_eq!(
                batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn engine_estimate_agrees_with_plain_estimator() {
        let s = summary();
        let engine = EstimationEngine::new(&s);
        let est = Estimator::new(&s);
        for q in QUERIES {
            assert_eq!(
                engine.estimate_str(q).unwrap().to_bits(),
                est.estimate_str(q).unwrap().to_bits(),
                "{q}"
            );
        }
    }

    #[test]
    fn every_kernel_yields_bitwise_identical_estimates() {
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(32)
            .map(|q| parse_query(q).unwrap())
            .collect();
        let reference: Vec<u64> = EstimationEngine::new(&s)
            .with_kernel(JoinKernel::Naive)
            .estimate_batch(&queries)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for threads in [1, 2] {
            let engine = EstimationEngine::new(&s)
                .with_threads(threads)
                .with_kernel(JoinKernel::Bitmap);
            assert_eq!(engine.kernel(), JoinKernel::Bitmap);
            let got: Vec<u64> = engine
                .estimate_batch(&queries)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, reference, "threads={threads}");
        }
        // Rebuilding the join cache preserves the kernel selection.
        let rebuilt = EstimationEngine::new(&s)
            .with_kernel(JoinKernel::Naive)
            .with_join_cache_capacity(8);
        assert_eq!(rebuilt.kernel(), JoinKernel::Naive);
    }

    #[test]
    fn rebuilding_join_cache_carries_outcome_counters() {
        let s = summary();
        let engine = EstimationEngine::new(&s);
        let q = parse_query("//A//C").unwrap();
        engine.try_estimate(&q);
        engine.try_estimate(&q);
        assert_eq!(engine.kernel_stats().outcomes_ok, 2);
        let rebuilt = engine.with_join_cache_capacity(8);
        assert_eq!(
            rebuilt.kernel_stats().outcomes_ok,
            2,
            "lifetime outcome tallies survive a cache capacity change"
        );
        rebuilt.try_estimate(&q);
        assert_eq!(rebuilt.kernel_stats().outcomes_ok, 3);
    }

    #[test]
    fn empty_batch_is_empty() {
        let s = summary();
        let engine = EstimationEngine::new(&s);
        assert!(engine.estimate_batch(&[]).is_empty());
    }

    #[test]
    fn join_cache_is_shared_across_batch_workers() {
        let s = summary();
        let engine = EstimationEngine::new(&s).with_threads(2);
        // Repeated skeletons across the batch must hit the shared cache.
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(48)
            .map(|q| parse_query(q).unwrap())
            .collect();
        engine.estimate_batch(&queries);
        let stats = engine.kernel_stats();
        assert!(stats.join_cache_hits > 0, "{stats:?}");
        assert!(stats.join_cache_hit_rate > 0.0);
        // The adjacency index was consulted and built per tag pair.
        // Workers racing on a cold key may both build (first insert
        // wins), so the build count can exceed the memoized count but
        // never trail it.
        assert!(stats.adjacency_builds > 0, "{stats:?}");
        assert!(
            stats.adjacency_builds >= engine.adjacency_cache().len() as u64,
            "{stats:?}"
        );
    }

    /// The headline concurrency contract: once every cache layer is warm,
    /// an estimate acquires **zero** shared locks — join lookups are
    /// served by the worker-private cache, adjacencies and seeds by the
    /// estimator's flat memo, and nothing needs a snapshot refresh
    /// because nothing gets published.
    #[test]
    fn warm_estimates_take_zero_locks() {
        let s = summary();
        let engine = EstimationEngine::new(&s);
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        // Cold pass warms every layer through the resident estimator.
        for q in &queries {
            engine.estimate(q);
        }
        // This flushes the cold pass's pending publications (counted into
        // `before`) and reads the lock tally lock-free.
        let before = engine.kernel_stats();
        for q in &queries {
            engine.estimate(q);
        }
        let after = engine.kernel_stats();
        assert_eq!(
            after.lock_acquisitions, before.lock_acquisitions,
            "warm estimates must not take any shared-cache lock"
        );
        assert!(
            after.estimate_cache_hits > before.estimate_cache_hits,
            "the warm pass was served by the full-query cache"
        );
        assert_eq!(
            after.estimate_cache_misses, before.estimate_cache_misses,
            "nothing in the warm pass missed"
        );
    }

    /// The zero-lock warm-path contract holds one layer down as well:
    /// with the full-query cache disabled, warm traffic is served by the
    /// join cache through the worker-private front without locking.
    #[test]
    fn warm_estimates_without_the_estimate_cache_still_take_zero_locks() {
        let s = summary();
        let engine = EstimationEngine::new(&s).with_estimate_cache_capacity(0);
        assert!(engine.estimate_cache().is_none());
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        for q in &queries {
            engine.estimate(q);
        }
        let before = engine.kernel_stats();
        for q in &queries {
            engine.estimate(q);
        }
        let after = engine.kernel_stats();
        assert_eq!(
            after.lock_acquisitions, before.lock_acquisitions,
            "warm estimates must not take any shared-cache lock"
        );
        assert!(
            after.join_cache_hits > before.join_cache_hits,
            "the warm pass was served by the join cache"
        );
        assert_eq!(after.estimate_cache_hits, 0);
        assert_eq!(after.estimate_cache_misses, 0);
    }

    #[test]
    fn zero_capacity_disables_the_join_cache() {
        let s = summary();
        let engine = EstimationEngine::new(&s).with_join_cache_capacity(0);
        assert!(engine.join_cache().is_none());
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        let batch = engine.estimate_batch(&queries);
        let stats = engine.kernel_stats();
        assert_eq!(stats.join_cache_hits, 0);
        assert_eq!(stats.join_cache_misses, 0);
        // And the estimates match a default (cached) engine bitwise.
        let cached = EstimationEngine::new(&s);
        let with_cache = cached.estimate_batch(&queries);
        assert_eq!(
            batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            with_cache.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    /// A quiet panic hook for isolation tests: the default hook prints a
    /// backtrace banner per caught panic, which floods test output.
    fn hushed<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn try_batch_matches_estimate_batch_when_unconstrained() {
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(32)
            .map(|q| parse_query(q).unwrap())
            .collect();
        for threads in [1, 4] {
            let engine = EstimationEngine::new(&s).with_threads(threads);
            let plain = engine.estimate_batch(&queries);
            let outcomes = engine.try_estimate_batch(&queries);
            assert_eq!(outcomes.len(), plain.len());
            for (out, v) in outcomes.iter().zip(&plain) {
                assert_eq!(out.status, crate::EstimateStatus::Ok);
                assert_eq!(out.value.to_bits(), v.to_bits());
            }
            let stats = engine.kernel_stats();
            assert_eq!(stats.outcomes_ok, queries.len() as u64);
            assert_eq!(stats.outcomes_degraded, 0);
            assert_eq!(stats.outcomes_rejected, 0);
            assert_eq!(stats.worker_panics, 0);
        }
    }

    #[test]
    fn one_poisoned_query_degrades_only_its_slot() {
        hushed(|| {
            let s = summary();
            let queries: Vec<Query> = QUERIES
                .iter()
                .cycle()
                .take(24)
                .map(|q| parse_query(q).unwrap())
                .collect();
            let poisoned = 7usize;
            for threads in [1, 4] {
                let engine = EstimationEngine::new(&s).with_threads(threads);
                let serial = engine.estimate_batch(&queries);
                let outcomes = engine.try_estimate_batch_with(&queries, |est, q| {
                    if std::ptr::eq(q, &queries[poisoned]) {
                        panic!("injected poison");
                    }
                    est.try_estimate(
                        q,
                        &crate::QueryLimits::unlimited(),
                        &crate::Budget::unlimited(),
                    )
                });
                assert_eq!(outcomes.len(), queries.len());
                for (i, out) in outcomes.iter().enumerate() {
                    if i == poisoned {
                        match &out.status {
                            crate::EstimateStatus::Degraded {
                                reason: crate::DegradedReason::Panicked { message },
                            } => assert!(message.contains("injected poison")),
                            other => panic!("slot {i}: expected panic outcome, got {other:?}"),
                        }
                        // Even the poisoned slot reports the f(tag) bound.
                        let cap = s.tag_total(&queries[i].node(queries[i].target()).tag);
                        assert_eq!(out.value, cap);
                    } else {
                        assert_eq!(out.status, crate::EstimateStatus::Ok, "slot {i}");
                        assert_eq!(
                            out.value.to_bits(),
                            serial[i].to_bits(),
                            "slot {i} must be bit-identical despite the poisoned neighbor"
                        );
                    }
                }
                let stats = engine.kernel_stats();
                assert_eq!(stats.worker_panics, 1, "threads={threads}");
                assert_eq!(stats.outcomes_degraded, 1);
            }
        });
    }

    #[test]
    fn no_panic_escapes_try_estimate_batch() {
        hushed(|| {
            let s = summary();
            let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
            let engine = EstimationEngine::new(&s).with_threads(2);
            let escaped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.try_estimate_batch_with(&queries, |_, _| panic!("every query dies"))
            }));
            let outcomes = escaped.expect("try_estimate_batch must never panic");
            assert_eq!(outcomes.len(), queries.len());
            assert!(outcomes.iter().all(|o| matches!(
                o.status,
                crate::EstimateStatus::Degraded {
                    reason: crate::DegradedReason::Panicked { .. }
                }
            )));
            assert_eq!(engine.kernel_stats().worker_panics, queries.len() as u64);
        });
    }

    #[test]
    fn engine_limits_and_budget_flow_through_batch() {
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_threads(2)
            .with_limits(crate::QueryLimits {
                max_nodes: Some(2),
                ..crate::QueryLimits::unlimited()
            });
        let queries: Vec<Query> = ["//A//C", "//A[/C/F]/B/D"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let outcomes = engine.try_estimate_batch(&queries);
        assert_eq!(outcomes[0].status, crate::EstimateStatus::Ok);
        assert!(outcomes[1].status.is_rejected(), "{:?}", outcomes[1]);
        let stats = engine.kernel_stats();
        assert_eq!(stats.outcomes_ok, 1);
        assert_eq!(stats.outcomes_rejected, 1);
        // Rebuilding the cache keeps the policy.
        let rebuilt = engine.with_join_cache_capacity(8);
        assert_eq!(rebuilt.limits().max_nodes, Some(2));
    }

    #[test]
    fn starved_budget_degrades_but_never_pollutes_the_join_cache() {
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_threads(1)
            .with_budget(crate::Budget {
                deadline: None,
                max_join_edges: Some(0),
            });
        let query = parse_query("//A[/C/F]/B/D").unwrap();
        let out = engine.try_estimate(&query);
        assert_eq!(
            out.status,
            crate::EstimateStatus::Degraded {
                reason: crate::DegradedReason::JoinBudget
            }
        );
        // The truncated join published nothing at all: the shared join
        // cache is still empty once the resident front has flushed.
        engine.kernel_stats();
        assert_eq!(engine.join_cache().unwrap().len(), 0);
        // The truncated join was never published: a healthy engine
        // sharing nothing still computes the exact value, and this
        // engine's own infallible path is unaffected by the stale cache.
        let exact = Estimator::new(&s).estimate(&query);
        assert_eq!(engine.estimate(&query).to_bits(), exact.to_bits());
    }

    /// Batch workers fold their cache tallies when their estimators drop,
    /// before the batch call returns, so the shared counters are exact
    /// without any flush hook: one estimate-cache lookup per query.
    #[test]
    fn batch_cache_tallies_are_exact_when_the_call_returns() {
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(40)
            .map(|q| parse_query(q).unwrap())
            .collect();
        let n = queries.len() as u64;
        for threads in [1, 2] {
            let engine = EstimationEngine::new(&s).with_threads(threads);
            let cache = engine.estimate_cache().unwrap();
            engine.estimate_batch(&queries);
            assert_eq!(
                cache.hits() + cache.misses(),
                n,
                "estimate_batch, threads={threads}"
            );
            engine.try_estimate_batch(&queries);
            assert_eq!(
                cache.hits() + cache.misses(),
                2 * n,
                "try_estimate_batch, threads={threads}"
            );
        }
    }

    #[test]
    fn cached_rerun_is_bitwise_stable() {
        // A warm join cache serves results computed in the first run; the
        // second run must still be bit-identical to the first. The
        // full-query cache is disabled so the rerun actually exercises
        // the join layer instead of being served above it.
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_threads(2)
            .with_estimate_cache_capacity(0);
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        let first = engine.estimate_batch(&queries);
        let second = engine.estimate_batch(&queries);
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert!(engine.kernel_stats().join_cache_hits > 0);
    }

    #[test]
    fn estimate_cache_serves_bit_identical_values() {
        // Cached reruns across every entry point agree bitwise with an
        // engine that has the full-query cache disabled.
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(32)
            .map(|q| parse_query(q).unwrap())
            .collect();
        for threads in [1, 2] {
            let cached = EstimationEngine::new(&s).with_threads(threads);
            let uncached = EstimationEngine::new(&s)
                .with_threads(threads)
                .with_estimate_cache_capacity(0);
            let cold = cached.estimate_batch(&queries);
            let warm = cached.estimate_batch(&queries);
            let plain = uncached.estimate_batch(&queries);
            assert_eq!(
                cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}: cold cached pass"
            );
            assert_eq!(
                warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}: warm cached pass"
            );
            let stats = cached.kernel_stats();
            assert!(stats.estimate_cache_hits > 0, "{stats:?}");
            assert!(stats.estimate_cache_inserts > 0, "{stats:?}");
            assert!(stats.estimate_cache_hit_rate > 0.0);
        }
    }

    #[test]
    fn rebuilding_estimate_cache_carries_outcome_counters_and_policy() {
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_kernel(JoinKernel::Naive)
            .with_limits(crate::QueryLimits {
                max_nodes: Some(8),
                ..crate::QueryLimits::unlimited()
            });
        let q = parse_query("//A//C").unwrap();
        engine.try_estimate(&q);
        let rebuilt = engine.with_estimate_cache_capacity(64);
        assert_eq!(rebuilt.kernel_stats().outcomes_ok, 1);
        assert_eq!(rebuilt.kernel(), JoinKernel::Naive);
        assert_eq!(rebuilt.limits().max_nodes, Some(8));
        assert_eq!(rebuilt.estimate_cache().unwrap().capacity(), 64);
        // The join cache survives the rebuild at its previous capacity.
        assert!(rebuilt.join_cache().is_some());
    }
}
