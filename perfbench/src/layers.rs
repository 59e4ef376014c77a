//! Per-layer probes for the traced run. Each drives one layer's public
//! functions from outside, on the run's own inputs (its query texts in
//! arrival order, its summary), so a layer's number can be read beside
//! the end-to-end number it should move.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpe_core::server::{parse_request, FrameReader};
use xpe_core::{
    EstimateCache, EstimateKey, EstimationEngine, Server, ServerConfig,
    DEFAULT_ESTIMATE_CACHE_CAPACITY,
};
use xpe_synopsis::Summary;
use xpe_xpath::Query;

use crate::engine::BATCH;
use crate::inputs::Inputs;
use crate::serve::{self, Daemon};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Arrivals the text probes replay (a prefix of the arrival sequence).
const PROBE_ARRIVALS: usize = 4096;

/// Repeats `f` (which does `per_call` operations) until `min` has
/// passed, at least `rounds` times; returns the median time per
/// operation in ns.
fn per_op_ns(rounds: usize, min: Duration, per_call: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < rounds || t0.elapsed() < min {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / per_call.max(1) as f64);
    }
    median(&samples)
}

fn probe_arrivals(inputs: &Inputs) -> &[usize] {
    &inputs.arrivals[..inputs.arrivals.len().min(PROBE_ARRIVALS)]
}

/// `EstimateCache::insert` (µs per insert) and `EstimateSnapshot::get`
/// (ns per get) on a standalone default-size cache fed the run's keys in
/// arrival order; only first arrivals insert, as in the engine.
pub fn estimate_cache(inputs: &Inputs, tracer: &mut Tracer) -> (f64, f64) {
    let keys: Vec<EstimateKey> = inputs
        .cases
        .iter()
        .map(|c| EstimateKey::from_text(c.text.clone()))
        .collect();
    let mut first = vec![false; keys.len()];
    let order: Vec<usize> = inputs
        .arrivals
        .iter()
        .copied()
        .filter(|&c| !std::mem::replace(&mut first[c], true))
        .collect();
    let mut filled = None;
    let id = tracer.enter("estcache.insert", 0);
    let insert_ns = per_op_ns(3, Duration::from_millis(300), order.len(), || {
        let cache = EstimateCache::with_capacity(DEFAULT_ESTIMATE_CACHE_CAPACITY);
        for &c in &order {
            black_box(cache.insert(keys[c].clone(), inputs.expected[c]));
        }
        filled = Some(cache);
    });
    tracer.exit(id);
    let snapshot = filled.expect("one round").snapshot().0;
    let arrivals = probe_arrivals(inputs);
    let id = tracer.enter("estcache.get", 0);
    let get_ns = per_op_ns(5, Duration::from_millis(100), arrivals.len(), || {
        for &c in arrivals {
            black_box(snapshot.get(black_box(&keys[c])));
        }
    });
    tracer.exit(id);
    (insert_ns / 1e3, get_ns)
}

/// Per-request costs of the in-process parts of serving, µs:
/// (`read_frame` + `parse_request`, `parse_query`, warm `try_estimate`).
pub fn request_parts(inputs: &Inputs, summary: &Summary, tracer: &mut Tracer) -> (f64, f64, f64) {
    let frames = serve::frames(inputs);
    let arrivals = probe_arrivals(inputs);
    let wire: Vec<u8> = arrivals
        .iter()
        .flat_map(|&c| frames[c].iter().copied())
        .collect();
    let id = tracer.enter("server.frame", 0);
    let frame_ns = per_op_ns(5, Duration::from_millis(100), arrivals.len(), || {
        let mut reader = FrameReader::new(&wire[..], 1 << 20);
        while let Ok(Some(frame)) = reader.read_frame() {
            black_box(parse_request(&frame).is_ok());
        }
    });
    tracer.exit(id);
    let texts: Vec<&str> = arrivals
        .iter()
        .map(|&c| inputs.cases[c].text.as_str())
        .collect();
    let id = tracer.enter("xpath.parse_query", 0);
    let parse_ns = per_op_ns(5, Duration::from_millis(100), texts.len(), || {
        for t in &texts {
            black_box(xpe_xpath::parse_query(t).is_ok());
        }
    });
    tracer.exit(id);
    let engine = EstimationEngine::new(summary);
    let est = engine.estimator();
    let queries: Vec<&Query> = arrivals.iter().map(|&c| &inputs.cases[c].query).collect();
    for q in &queries {
        est.try_estimate(q, engine.limits(), engine.budget());
    }
    let id = tracer.enter("estimator.try_estimate", 0);
    let est_ns = per_op_ns(5, Duration::from_millis(100), queries.len(), || {
        for q in &queries {
            black_box(est.try_estimate(q, engine.limits(), engine.budget()));
        }
    });
    tracer.exit(id);
    (frame_ns / 1e3, parse_ns / 1e3, est_ns / 1e3)
}

/// Batch latency minus the same batch's serial time divided by the
/// worker count, µs (median batch of the arrival sequence cut into
/// [`BATCH`]-query batches, both sides warm).
pub fn batch_overhead(inputs: &Inputs, summary: &Summary, tracer: &mut Tracer) -> f64 {
    let engine = EstimationEngine::new(summary);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let queries: Vec<Query> = probe_arrivals(inputs)
        .iter()
        .map(|&c| inputs.cases[c].query.clone())
        .collect();
    for qs in queries.chunks(BATCH) {
        engine.try_estimate_batch(qs);
    }
    let est = engine.estimator();
    for q in &queries {
        est.try_estimate(q, engine.limits(), engine.budget());
    }
    let id = tracer.enter("engine.batch_overhead", 0);
    let (mut batch_ns, mut serial_ns) = (Vec::new(), Vec::new());
    for qs in queries.chunks(BATCH) {
        let t = Instant::now();
        black_box(engine.try_estimate_batch(qs));
        batch_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for q in qs {
            black_box(est.try_estimate(q, engine.limits(), engine.budget()));
        }
        serial_ns.push(t.elapsed().as_nanos() as f64);
    }
    tracer.exit(id);
    (median(&batch_ns) - median(&serial_ns) / workers as f64) / 1e3
}

/// What the server layer showed on one workload.
pub struct ServerLayer {
    pub ping_p50_us: f64,
    /// Closed-loop warm `estimate` round trip, median, and its samples.
    pub rtt_p50_us: f64,
    pub rtt_samples: usize,
    pub shed: f64,
    pub protocol_errors: f64,
    pub estcache_hit_rate: f64,
}

/// Differences of the daemon's `stats` counters between two scrapes.
pub fn server_counters(
    before: &xpe_core::server::Json,
    after: &xpe_core::server::Json,
) -> (f64, f64, f64) {
    let d = |path: &str| serve::stat(after, path) - serve::stat(before, path);
    let hits = d("caches/estimate/hits");
    let misses = d("caches/estimate/misses");
    let rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    (
        d("lifetime/overloaded"),
        d("lifetime/protocol_errors"),
        rate,
    )
}

/// The server layer on a running, warm daemon: an idle `ping` probe,
/// then closed-loop `estimate` round trips over the arrival sequence for
/// `duration`, with the daemon's counters scraped around them. Returns
/// the layer and the number of answers that failed the oracle.
pub fn measure_server(
    addr: SocketAddr,
    inputs: &Inputs,
    frames: &[Vec<u8>],
    duration: Duration,
    tracer: &mut Tracer,
) -> std::io::Result<(ServerLayer, usize)> {
    let id = tracer.enter("server.ping", 0);
    let ping_p50_us = serve::ping_p50_us(addr, 2000)?;
    tracer.exit(id);
    let before = serve::scrape(addr)?;
    let id = tracer.enter("server.round_trips", 0);
    let (mut rtt, failed) = serve::round_trips(addr, inputs, frames, duration)?;
    tracer.exit(id);
    let after = serve::scrape(addr)?;
    let (shed, protocol_errors, estcache_hit_rate) = server_counters(&before, &after);
    rtt.sort_unstable();
    let layer = ServerLayer {
        ping_p50_us,
        rtt_p50_us: percentile(&rtt, 50.0) / 1e3,
        rtt_samples: rtt.len(),
        shed,
        protocol_errors,
        estcache_hit_rate,
    };
    Ok((layer, failed))
}

/// [`measure_server`] on a default daemon over `summary`, first warmed
/// with every distinct query. Returns the layer and (answers checked,
/// answers failed).
pub fn server_probe(
    inputs: &Inputs,
    summary: Summary,
    duration: Duration,
    tracer: &mut Tracer,
) -> Result<(ServerLayer, usize, usize), String> {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(summary),
        None,
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let daemon = Daemon::start(server);
    let out = (|| -> std::io::Result<(ServerLayer, usize, usize)> {
        let frames = serve::frames(inputs);
        let (answers, warm_failed) = serve::warm(daemon.addr, inputs, &frames)?;
        let (layer, failed) = measure_server(daemon.addr, inputs, &frames, duration, tracer)?;
        let checked = answers.len() + layer.rtt_samples;
        Ok((layer, checked, warm_failed + failed))
    })();
    let stopped = daemon.stop();
    let layer = out.map_err(|e| format!("server probe: {e}"))?;
    stopped?;
    Ok(layer)
}
