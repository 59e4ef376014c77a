//! The two in-process workloads: `engine_cold` (every distinct query once
//! per fresh engine, single `try_estimate` calls) and `engine_zipf` (a
//! Zipf trace replayed in fixed-size batches through
//! `try_estimate_batch` on a warm engine).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use xpe_core::{EstimationEngine, JoinPhaseStats, KernelStats};
use xpe_synopsis::Summary;
use xpe_xpath::Query;

use crate::calib;
use crate::inputs::Inputs;
use crate::stats::median;
use crate::trace::Tracer;

/// Queries per `try_estimate_batch` call on `engine_zipf`: one batch is
/// one optimizer planning round. The size is what the repository's own
/// planner API asks to plan one query of the workload: one estimate per
/// step of `Estimator::path_cardinalities` plus one per branch that
/// `Estimator::rank_predicates` ranks at each query node. Over the
/// `engine_zipf` traces (DBLP, scale 0.02) that count has a median of 3
/// per request (mean 3.4–3.5); every run prints its own figure
/// ([`Inputs::planning_round`](crate::inputs::Inputs)).
pub const BATCH: usize = 3;

/// What one timed loop measured.
#[derive(Default)]
pub struct Run {
    /// Estimates completed inside the timed intervals.
    pub estimates: usize,
    /// Estimates per second of each complete pass over the arrivals.
    pub pass_qps: Vec<f64>,
    /// Latency of each timed call (one estimate, or one batch), ns.
    pub lat_ns: Vec<u64>,
    /// `pass_qps` and `lat_ns` normalized to the reference machine speed
    /// (see [`calib`]).
    pub norm_pass_qps: Vec<f64>,
    pub norm_lat_ns: Vec<u64>,
    /// Machine slowness of each calibrated stretch.
    pub slowness: Vec<f64>,
    /// Answers checked against the oracle (timed and warm-up).
    pub checked: usize,
    /// Answers that were not `ok` or not bit-identical to the oracle.
    pub failed: usize,
    /// First answer seen per case (for accuracy).
    pub answers: Vec<f64>,
    /// Engine counters over one pass (cold: one fresh engine; zipf: warm
    /// pass plus the first timed pass).
    pub pass_stats: KernelStats,
    /// Counter deltas over the timed phase.
    pub timed_delta: KernelStats,
    /// Join phase time over every estimate of the run, warm-up included
    /// (traced runs only).
    pub join: JoinPhaseStats,
    /// Estimates the join stats cover.
    pub join_estimates: usize,
}

impl Run {
    /// Median estimates per second over complete passes.
    pub fn qps(&self) -> f64 {
        median(&self.pass_qps)
    }

    /// [`qps`](Self::qps), normalized to the reference machine speed.
    pub fn norm_qps(&self) -> f64 {
        median(&self.norm_pass_qps)
    }
}

/// Timed work between two calibrations on the zipf loop.
const CALIBRATION_PERIOD: Duration = Duration::from_millis(100);

/// A stretch of timed work bracketed by two calibrations: its samples
/// are normalized by the mean slowness of the two.
struct Group {
    slowness: f64,
    lat_from: usize,
    pass_from: usize,
    started: Instant,
}

impl Group {
    fn start(run: &Run) -> Group {
        Group {
            slowness: calib::slowness(),
            lat_from: run.lat_ns.len(),
            pass_from: run.pass_qps.len(),
            started: Instant::now(),
        }
    }

    fn age(&self) -> Duration {
        self.started.elapsed()
    }

    /// Normalizes the samples recorded since `start` and opens the next
    /// group (whose opening calibration is this one's closing one).
    fn close(self, run: &mut Run) -> Group {
        let end = calib::slowness();
        let f = (self.slowness + end) / 2.0;
        run.slowness.push(f);
        run.norm_lat_ns.extend(
            run.lat_ns[self.lat_from..]
                .iter()
                .map(|&ns| (ns as f64 / f) as u64),
        );
        run.norm_pass_qps
            .extend(run.pass_qps[self.pass_from..].iter().map(|q| q * f));
        Group {
            slowness: end,
            lat_from: run.lat_ns.len(),
            pass_from: run.pass_qps.len(),
            started: Instant::now(),
        }
    }
}

pub fn add_join(into: &mut JoinPhaseStats, s: JoinPhaseStats) {
    into.plan_ns += s.plan_ns;
    into.screen_ns += s.screen_ns;
    into.fixpoint_ns += s.fixpoint_ns;
    into.finalize_ns += s.finalize_ns;
}

/// Counter difference `after - before` (rates recomputed).
pub fn delta(after: &KernelStats, before: &KernelStats) -> KernelStats {
    let rate = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let est_hits = after.estimate_cache_hits - before.estimate_cache_hits;
    let est_misses = after.estimate_cache_misses - before.estimate_cache_misses;
    let join_hits = after.join_cache_hits - before.join_cache_hits;
    let join_misses = after.join_cache_misses - before.join_cache_misses;
    KernelStats {
        join_cache_hits: join_hits,
        join_cache_misses: join_misses,
        join_cache_hit_rate: rate(join_hits, join_misses),
        estimate_cache_hits: est_hits,
        estimate_cache_misses: est_misses,
        estimate_cache_hit_rate: rate(est_hits, est_misses),
        estimate_cache_inserts: after.estimate_cache_inserts - before.estimate_cache_inserts,
        adjacency_builds: after.adjacency_builds - before.adjacency_builds,
        adjacency_build_ms: after.adjacency_build_ms - before.adjacency_build_ms,
        adjacency_pairs: after.adjacency_pairs - before.adjacency_pairs,
        lock_acquisitions: after.lock_acquisitions - before.lock_acquisitions,
        ..KernelStats::default()
    }
}

/// `engine_cold`: repeated passes, each on a fresh default engine (or one
/// with the estimate cache sized `est_cache`), calling its estimator's
/// `try_estimate` once per distinct query, until `budget` has elapsed
/// (at least one pass).
pub fn cold(
    inputs: &Inputs,
    summary: &Summary,
    est_cache: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Run {
    let mut run = Run {
        answers: vec![f64::NAN; inputs.cases.len()],
        ..Run::default()
    };
    let n = inputs.arrivals.len();
    let mut outs = Vec::with_capacity(n);
    let deadline = Instant::now() + budget;
    let mut pass = 0u64;
    let mut pass_locks = Vec::new();
    while pass == 0 || Instant::now() < deadline {
        let engine = EstimationEngine::new(summary).with_estimate_cache_capacity(est_cache);
        let before = engine.kernel_stats();
        // A resident estimator of the engine, so traced passes can time
        // the join phases on the same call path as untraced ones.
        let est = engine.estimator();
        est.set_join_timing(tracer.is_on());
        outs.clear();
        let group = Group::start(&run);
        let root = tracer.enter("engine_cold.pass", pass);
        let t0 = Instant::now();
        for (k, &case) in inputs.arrivals.iter().enumerate() {
            let query = &inputs.cases[case].query;
            let id = tracer.enter("estimator.try_estimate", k as u64);
            let t = Instant::now();
            let out = est.try_estimate(query, engine.limits(), engine.budget());
            run.lat_ns.push(t.elapsed().as_nanos() as u64);
            tracer.exit(id);
            outs.push(out);
        }
        let wall = t0.elapsed().as_secs_f64();
        tracer.exit(root);
        est.flush_caches();
        if tracer.is_on() {
            add_join(&mut run.join, est.join_phase_stats());
            run.join_estimates += n;
        }
        let stats = engine.kernel_stats();
        let d = delta(&stats, &before);
        pass_locks.push(d.lock_acquisitions as f64);
        if pass == 0 {
            run.pass_stats = d;
        }
        run.timed_delta = d;
        run.checked += n;
        for (out, &case) in outs.iter().zip(&inputs.arrivals) {
            if !inputs.matches(case, out.status.is_ok(), out.value) {
                run.failed += 1;
            }
            if run.answers[case].is_nan() {
                run.answers[case] = out.value;
            }
        }
        run.estimates += n;
        run.pass_qps.push(n as f64 / wall);
        group.close(&mut run);
        pass += 1;
    }
    // Locks per pass: report the median pass through `timed_delta`.
    run.timed_delta.lock_acquisitions = median(&pass_locks) as u64;
    run
}

/// `engine_zipf`: one untimed warm pass over the trace in batches of
/// [`BATCH`], then timed passes until `budget` has elapsed (at least one).
pub fn zipf(
    inputs: &Inputs,
    summary: &Summary,
    est_cache: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Run {
    let engine = EstimationEngine::new(summary).with_estimate_cache_capacity(est_cache);
    let queries: Vec<Query> = inputs
        .arrivals
        .iter()
        .map(|&c| inputs.cases[c].query.clone())
        .collect();
    let cases: Vec<usize> = inputs.arrivals.clone();
    let mut run = Run {
        answers: vec![f64::NAN; inputs.cases.len()],
        ..Run::default()
    };
    let join_ns: [AtomicU64; 4] = Default::default();
    let timed_join = tracer.is_on();
    let limits = *engine.limits();
    let budget_cfg = *engine.budget();
    let batch = |qs: &[Query]| {
        if !timed_join {
            return engine.try_estimate_batch(qs);
        }
        engine.try_estimate_batch_with(qs, |est, q| {
            est.set_join_timing(true);
            let out = est.try_estimate(q, &limits, &budget_cfg);
            let s = est.join_phase_stats();
            est.reset_join_phase_stats();
            for (slot, v) in
                join_ns
                    .iter()
                    .zip([s.plan_ns, s.screen_ns, s.fixpoint_ns, s.finalize_ns])
            {
                if v > 0 {
                    slot.fetch_add(v, Ordering::Relaxed);
                }
            }
            out
        })
    };
    let start_stats = engine.kernel_stats();
    let check = |run: &mut Run, outs: &[xpe_core::EstimateOutcome], at: usize| {
        run.checked += outs.len();
        for (out, &case) in outs.iter().zip(&cases[at..]) {
            if !inputs.matches(case, out.status.is_ok(), out.value) {
                run.failed += 1;
            }
            if run.answers[case].is_nan() {
                run.answers[case] = out.value;
            }
        }
    };

    let warm = tracer.enter("engine_zipf.warm", 0);
    for (b, qs) in queries.chunks(BATCH).enumerate() {
        let outs = batch(qs);
        check(&mut run, &outs, b * BATCH);
    }
    tracer.exit(warm);

    let timed_start = engine.kernel_stats();
    let deadline = Instant::now() + budget;
    let mut pass = 0u64;
    let mut group = Group::start(&run);
    loop {
        let root = tracer.enter("engine_zipf.pass", pass);
        let mut pass_wall = 0.0;
        for (b, qs) in queries.chunks(BATCH).enumerate() {
            let id = tracer.enter("engine.try_estimate_batch", b as u64);
            let t = Instant::now();
            let outs = batch(qs);
            let ns = t.elapsed().as_nanos() as u64;
            tracer.exit(id);
            run.lat_ns.push(ns);
            pass_wall += ns as f64 / 1e9;
            check(&mut run, &outs, b * BATCH);
        }
        tracer.exit(root);
        run.estimates += queries.len();
        run.pass_qps.push(queries.len() as f64 / pass_wall);
        if pass == 0 {
            run.pass_stats = delta(&engine.kernel_stats(), &start_stats);
        }
        pass += 1;
        let done = Instant::now() >= deadline;
        if done || group.age() >= CALIBRATION_PERIOD {
            group = group.close(&mut run);
        }
        if done {
            break;
        }
    }
    run.timed_delta = delta(&engine.kernel_stats(), &timed_start);
    if timed_join {
        let [plan, screen, fixpoint, finalize] = join_ns.map(|a| a.into_inner());
        run.join = JoinPhaseStats {
            plan_ns: plan,
            screen_ns: screen,
            fixpoint_ns: fixpoint,
            finalize_ns: finalize,
        };
        run.join_estimates = queries.len() + run.estimates;
    }
    run
}
