//! The repository's benchmark: three workloads over the estimator and the
//! `xpe serve` daemon, driven through their public APIs on seeded inputs
//! and checked against the naive-join oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The exit code is 1 when any answer disagreed with the
//! oracle, 2 when the benchmark could not run. See README.md.

mod calib;
mod engine;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpe_core::{EstimationEngine, Server, ServerConfig, DEFAULT_ESTIMATE_CACHE_CAPACITY};
use xpe_datagen::Dataset;
use xpe_synopsis::Summary;

use crate::engine::Run;
use crate::inputs::{Inputs, SetupTimes, Spec};
use crate::layers::ServerLayer;
use crate::serve::{Daemon, Phase};
use crate::trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 21;
/// Fewest calls per latency window on the engine workloads (see
/// [`stats::windowed`]).
const LATENCY_WINDOW: usize = 1000;
/// Open-loop step length of the rate ladder.
const LADDER_STEP: Duration = Duration::from_millis(500);

const WORKLOADS: [&str; 3] = ["engine_cold", "engine_zipf", "serve_zipf"];

fn spec(workload: &str) -> Spec {
    match workload {
        "engine_cold" => Spec {
            dataset: Dataset::XMark,
            scale: 0.1,
            attempts: 2000,
            trace_requests: 0,
        },
        "engine_zipf" => Spec {
            dataset: Dataset::Dblp,
            scale: 0.02,
            attempts: 2000,
            trace_requests: 4096,
        },
        _ => Spec {
            dataset: Dataset::XMark,
            scale: 0.1,
            attempts: 2000,
            trace_requests: 65_536,
        },
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn sampled(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        samples: Some(n),
        ..metric(name, value, unit)
    }
}

#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    /// Printed for reading, never gated.
    info: Vec<Metric>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
}

impl Report {
    fn print(&self, traced: bool) -> bool {
        let show = |title: &str, ms: &[Metric]| {
            println!("{title}");
            for m in ms {
                let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
                println!("  {:<26} {:>16.4} {}{n}", m.name, m.value, m.unit);
            }
        };
        show("information (not gated):", &self.info);
        if traced {
            show("per-layer metrics (traced run):", &self.layers);
        } else {
            show("end-to-end metrics:", &self.e2e);
        }
        let gated = if traced { &self.layers } else { &self.e2e };
        let finite = gated.iter().all(|m| m.value.is_finite());
        if !finite {
            eprintln!("error: a metric is not a finite number");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let body: Vec<String> = gated
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        correct && finite
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let started = Instant::now();
    let spec = spec(&args.workload);
    let inputs = inputs::generate(&spec, args.seed);
    inputs.describe(&args.workload);
    // `peak_rss_mb` covers set-up and the measured loops, not the
    // generation and oracle above.
    let reset = stats::reset_peak_rss();
    println!(
        "inputs generated and oracle answers computed in {:.2} s (untimed); resident set {:.1} MiB",
        started.elapsed().as_secs_f64(),
        stats::rss_mb()
    );
    if !reset {
        println!(
            "note: the peak resident set could not be reset; peak_rss_mb includes input generation"
        );
    }
    let result = match args.workload.as_str() {
        "serve_zipf" => run_serve(&args, &inputs, &mut tracer),
        _ => run_engine(&args, &inputs, &mut tracer),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    report.info.push(metric(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    ));
    if args.trace {
        finish_trace(&tracer, &args.workload);
    }
    println!(
        "run took {:.1} s on {} cores",
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if !report.print(args.trace) {
        std::process::exit(1);
    }
}

fn finish_trace(tracer: &Tracer, workload: &str) {
    println!(
        "trace: {} spans kept, {} dropped; self time by span:",
        tracer.len(),
        tracer.dropped()
    );
    let mut rows: Vec<_> = tracer.self_times().into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    println!(
        "  {:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in rows {
        println!("  {name:<28} {count:>9} {total:>12.3} {own:>12.3}");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}

fn common_e2e(report: &mut Report, inputs: &Inputs, setup: &SetupTimes) {
    report
        .e2e
        .push(sampled("setup_s", setup.norm_total, "s", SETUP_ROUNDS));
    report
        .info
        .push(sampled("setup_s.raw", setup.total, "s", SETUP_ROUNDS));
    report.e2e.push(metric(
        "summary_bytes",
        inputs.summary_bytes.len() as f64,
        "bytes",
    ));
}

fn accuracy_e2e(report: &mut Report, inputs: &Inputs, answers: &[f64]) {
    let a = inputs.accuracy(answers);
    report
        .e2e
        .push(sampled("qerr_mean", a.qerr_mean, "ratio", a.cases));
    report.info.extend([
        sampled("rel_err_mean", a.rel_err_mean, "ratio", a.cases),
        sampled("qerr_p90", a.qerr_p90, "ratio", a.cases),
    ]);
}

fn setup_layers(report: &mut Report, setup: &SetupTimes) {
    report.layers.extend([
        metric("xml.parse_ms", setup.parse * 1e3, "ms"),
        metric("synopsis.build_ms", setup.build * 1e3, "ms"),
        metric("synopsis.encode_ms", setup.encode * 1e3, "ms"),
        metric("synopsis.decode_ms", setup.decode * 1e3, "ms"),
    ]);
}

/// The layer metrics every workload reports from an engine-side run.
fn engine_layers(report: &mut Report, traced: &Run, per_pass: bool, bypass_qps: f64) {
    let per_1k = |ns: u64| ns as f64 / 1e6 / traced.join_estimates.max(1) as f64 * 1e3;
    let j = traced.join;
    let p = &traced.pass_stats;
    let t = &traced.timed_delta;
    let locks_per_1k = if per_pass {
        t.lock_acquisitions as f64 / (p.estimate_cache_misses + p.estimate_cache_hits).max(1) as f64
            * 1e3
    } else {
        t.lock_acquisitions as f64 / traced.estimates.max(1) as f64 * 1e3
    };
    report.layers.extend([
        metric("join.plan_ms", per_1k(j.plan_ns), "ms/1k"),
        metric("join.screen_ms", per_1k(j.screen_ns), "ms/1k"),
        metric("join.fixpoint_ms", per_1k(j.fixpoint_ns), "ms/1k"),
        metric("join.finalize_ms", per_1k(j.finalize_ns), "ms/1k"),
        metric("adjacency.builds", p.adjacency_builds as f64, "count"),
        metric("adjacency.build_ms", p.adjacency_build_ms, "ms"),
        metric("adjacency.pairs", p.adjacency_pairs as f64, "count"),
        metric("estcache.hits", p.estimate_cache_hits as f64, "count"),
        metric("estcache.misses", p.estimate_cache_misses as f64, "count"),
        metric("estcache.inserts", p.estimate_cache_inserts as f64, "count"),
        metric("estcache.hit_rate", t.estimate_cache_hit_rate, "ratio"),
        metric("estcache.bypass_qps", bypass_qps, "1/s"),
        metric("joincache.hits", p.join_cache_hits as f64, "count"),
        metric("joincache.misses", p.join_cache_misses as f64, "count"),
        metric("joincache.hit_rate", t.join_cache_hit_rate, "ratio"),
        metric("engine.lock_acquisitions", locks_per_1k, "count/1k"),
    ]);
}

fn server_layers(report: &mut Report, layer: &ServerLayer, parts: (f64, f64, f64)) {
    let (frame_us, parse_us, estimate_us) = parts;
    report.layers.extend([
        metric("server.frame_us", frame_us, "us"),
        metric("xpath.parse_us", parse_us, "us"),
        metric("server.estimate_us", estimate_us, "us"),
        metric("server.ping_p50_us", layer.ping_p50_us, "us"),
        sampled(
            "server.rtt_p50_us",
            layer.rtt_p50_us,
            "us",
            layer.rtt_samples,
        ),
        metric(
            "server.residual_us",
            layer.rtt_p50_us - frame_us - parse_us - estimate_us,
            "us",
        ),
        metric("server.shed", layer.shed, "count"),
        metric("server.protocol_errors", layer.protocol_errors, "count"),
        metric("server.estcache_hit_rate", layer.estcache_hit_rate, "ratio"),
    ]);
}

fn engine_loop(
    workload: &str,
    inputs: &Inputs,
    summary: &Summary,
    est_cache: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Run {
    if workload == "engine_cold" {
        engine::cold(inputs, summary, est_cache, budget, tracer)
    } else {
        engine::zipf(inputs, summary, est_cache, budget, tracer)
    }
}

fn run_engine(args: &Args, inputs: &Inputs, tracer: &mut Tracer) -> Result<Report, String> {
    let (setup, summary) = inputs::setup(inputs, SETUP_ROUNDS, tracer, |s| {
        drop(std::hint::black_box(EstimationEngine::new(&s)));
        s
    })?;
    let mut report = Report::default();
    let cold = args.workload == "engine_cold";
    let budget = Duration::from_secs(args.seconds);
    let mut off = Tracer::new(false, Instant::now());
    if !args.trace {
        let run = engine_loop(
            &args.workload,
            inputs,
            &summary,
            DEFAULT_ESTIMATE_CACHE_CAPACITY,
            budget,
            &mut off,
        );
        report.attempted = run.checked;
        report.failed = run.failed;
        // Windows hold whole passes, so each sees every query equally
        // often and the slow queries that set p99 do not wander between
        // windows.
        let per_pass = run.lat_ns.len() / run.pass_qps.len().max(1);
        let window = per_pass * LATENCY_WINDOW.div_ceil(per_pass.max(1));
        let (p50, windows) = stats::windowed(&run.norm_lat_ns, 50.0, window);
        let (p99, _) = stats::windowed(&run.norm_lat_ns, 99.0, window);
        let (raw50, _) = stats::windowed(&run.lat_ns, 50.0, window);
        let (raw99, _) = stats::windowed(&run.lat_ns, 99.0, window);
        common_e2e(&mut report, inputs, &setup);
        report
            .e2e
            .push(metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"));
        report
            .e2e
            .push(sampled("qps", run.norm_qps(), "1/s", run.pass_qps.len()));
        report
            .e2e
            .push(sampled("p50_us", p50 / 1e3, "us", run.lat_ns.len()));
        report
            .info
            .push(sampled("p99_us", p99 / 1e3, "us", run.lat_ns.len()));
        accuracy_e2e(&mut report, inputs, &run.answers);
        report.info.extend([
            sampled("qps.raw", run.qps(), "1/s", run.pass_qps.len()),
            sampled("p50_us.raw", raw50 / 1e3, "us", run.lat_ns.len()),
            sampled("p99_us.raw", raw99 / 1e3, "us", run.lat_ns.len()),
            sampled(
                "slowness",
                stats::median(&run.slowness),
                "ratio",
                run.slowness.len(),
            ),
            sampled(
                "estimates_timed",
                run.estimates as f64,
                "count",
                run.pass_qps.len(),
            ),
            metric("latency_windows", windows as f64, "count"),
        ]);
        return Ok(report);
    }

    let third = budget / 3;
    let untraced = engine_loop(
        &args.workload,
        inputs,
        &summary,
        DEFAULT_ESTIMATE_CACHE_CAPACITY,
        third,
        &mut off,
    );
    let traced = engine_loop(
        &args.workload,
        inputs,
        &summary,
        DEFAULT_ESTIMATE_CACHE_CAPACITY,
        third,
        tracer,
    );
    let bypass = engine_loop(&args.workload, inputs, &summary, 0, budget / 6, &mut off);
    report.attempted = untraced.checked + traced.checked + bypass.checked;
    report.failed = untraced.failed + traced.failed + bypass.failed;
    setup_layers(&mut report, &setup);
    engine_layers(&mut report, &traced, cold, bypass.norm_qps());
    probe_layers(&mut report, inputs, &summary, tracer);
    let parts = layers::request_parts(inputs, &summary, tracer);
    report.layers.push(metric(
        "trace.overhead",
        traced.norm_qps() / untraced.norm_qps(),
        "ratio",
    ));
    let (server, checked, failed) =
        layers::server_probe(inputs, summary.clone(), budget / 6, tracer)?;
    report.attempted += checked;
    report.failed += failed;
    server_layers(&mut report, &server, parts);
    report.info.extend([
        metric("qps.untraced", untraced.norm_qps(), "1/s"),
        metric("qps.traced", traced.norm_qps(), "1/s"),
    ]);
    Ok(report)
}

fn run_serve(args: &Args, inputs: &Inputs, tracer: &mut Tracer) -> Result<Report, String> {
    let (setup, server) = inputs::setup(inputs, SETUP_ROUNDS, tracer, |s| {
        Server::bind("127.0.0.1:0", Arc::new(s), None, ServerConfig::default())
    })?;
    let server = server.map_err(|e| format!("bind: {e}"))?;
    let daemon = Daemon::start(server);
    let result = drive_serve(args, inputs, &setup, &daemon, tracer);
    let tally = daemon.stop();
    let mut report = result?;
    let tally = tally?;
    report.info.extend([
        metric("daemon.ok", tally.ok as f64, "count"),
        metric("daemon.overloaded", tally.overloaded as f64, "count"),
        metric(
            "daemon.protocol_errors",
            tally.protocol_errors as f64,
            "count",
        ),
    ]);
    Ok(report)
}

fn phase_metrics(report: &mut Report, label: &'static [&'static str; 3], phase: &Phase) {
    report.e2e.extend([
        sampled(label[0], phase.p_us(50.0), "us", phase.samples()),
        sampled(label[1], phase.p_us(99.0), "us", phase.samples()),
    ]);
    report
        .info
        .push(metric(label[2], phase.late_p99_us(), "us"));
    if phase.invalid > 0 {
        println!(
            "  {}: {} step(s) left out because the generator fell behind",
            label[0], phase.invalid
        );
    }
}

fn drive_serve(
    args: &Args,
    inputs: &Inputs,
    setup: &SetupTimes,
    daemon: &Daemon,
    tracer: &mut Tracer,
) -> Result<Report, String> {
    let io = |e: std::io::Error| format!("serve: {e}");
    let addr = daemon.addr;
    let frames = serve::frames(inputs);
    let mut report = Report::default();
    let (answers, warm_failed) = serve::warm(addr, inputs, &frames).map_err(io)?;
    report.attempted += answers.len();
    report.failed += warm_failed;
    let secs = args.seconds as f64;
    let mut off = Tracer::new(false, Instant::now());
    let fixed = |report: &mut Report, rate: f64, len: f64, t: &mut Tracer| {
        let phase = Phase::run(addr, inputs, &frames, rate, Duration::from_secs_f64(len), t)
            .map_err(io)?
            .ok_or_else(|| format!("the load generator could not keep to {rate} req/s"))?;
        report.attempted += phase.sent();
        report.failed += phase.failed();
        Ok::<Phase, String>(phase)
    };

    if !args.trace {
        let r2k = fixed(&mut report, 2000.0, secs * 0.25, &mut off)?;
        let r8k = fixed(&mut report, 8000.0, secs * 0.35, &mut off)?;
        let max_rate = max_rate(&mut report, addr, inputs, &frames, secs * 0.4)?;
        common_e2e(&mut report, inputs, setup);
        report
            .e2e
            .push(metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"));
        phase_metrics(
            &mut report,
            &["p50_us.r2k", "p99_us.r2k", "loadgen.late_p99_us.r2k"],
            &r2k,
        );
        phase_metrics(
            &mut report,
            &["p50_us.r8k", "p99_us.r8k", "loadgen.late_p99_us.r8k"],
            &r8k,
        );
        report.e2e.push(metric("max_rate_qps", max_rate, "1/s"));
        return Ok(report);
    }

    let summary = Summary::from_bytes(&inputs.summary_bytes).map_err(|e| e.to_string())?;
    let quarter = secs / 4.0;
    let untraced = fixed(&mut report, 2000.0, quarter, &mut off)?;
    let traced = fixed(&mut report, 2000.0, quarter, tracer)?;
    let (layer, failed) = layers::measure_server(
        addr,
        inputs,
        &frames,
        Duration::from_secs_f64(quarter),
        tracer,
    )
    .map_err(io)?;
    report.attempted += layer.rtt_samples;
    report.failed += failed;

    // The daemon's estimators are out of reach, so the engine-side layers
    // come from a shadow replay of the same arrival sequence in-process:
    // the requests the traced phase sent, after the same warm pass.
    let shadow = shadow_inputs(inputs, traced.sent());
    let shadow_run = engine::cold(
        &shadow,
        &summary,
        DEFAULT_ESTIMATE_CACHE_CAPACITY,
        Duration::ZERO,
        tracer,
    );
    let bypass = engine::cold(
        &shadow,
        &summary,
        0,
        Duration::from_secs_f64(quarter),
        &mut off,
    );
    report.attempted += shadow_run.checked + bypass.checked;
    report.failed += shadow_run.failed + bypass.failed;
    setup_layers(&mut report, setup);
    engine_layers(&mut report, &shadow_run, false, bypass.norm_qps());
    probe_layers(&mut report, inputs, &summary, tracer);
    let parts = layers::request_parts(inputs, &summary, tracer);
    report.layers.push(metric(
        "trace.overhead",
        untraced.p_us(50.0) / traced.p_us(50.0),
        "ratio",
    ));
    server_layers(&mut report, &layer, parts);
    // The open-loop generator's own figures: this workload only.
    report.layers.extend([
        sampled(
            "server.p50_us.r2k",
            traced.p_us(50.0),
            "us",
            traced.samples(),
        ),
        metric("loadgen.sent", traced.sent() as f64, "count"),
        metric("loadgen.answered", traced.answered() as f64, "count"),
        metric("loadgen.late_p99_us", traced.late_p99_us(), "us"),
        metric("loadgen.invalid_steps", traced.invalid as f64, "count"),
    ]);
    report.info.extend([
        sampled(
            "p50_us.r2k.untraced",
            untraced.p_us(50.0),
            "us",
            untraced.samples(),
        ),
        metric(
            "loadgen.late_p99_us.r2k.untraced",
            untraced.late_p99_us(),
            "us",
        ),
    ]);
    Ok(report)
}

/// The rising-rate ladder from 8,000 req/s for `secs`: the highest
/// realized rate whose p99 meets the limit without a backlog (0 when
/// none did).
fn max_rate(
    report: &mut Report,
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    frames: &[Vec<u8>],
    secs: f64,
) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("serve: {e}");
    let mut off = Tracer::new(false, Instant::now());
    let start = serve::step(addr, inputs, frames, 8000.0, LADDER_STEP, 0, &mut off).map_err(io)?;
    let budget = Duration::from_secs_f64(secs);
    let (best, ladder) =
        serve::ladder(addr, inputs, frames, &start, LADDER_STEP, budget, &mut off).map_err(io)?;
    for s in std::iter::once(&start).chain(&ladder) {
        report.attempted += s.sent;
        report.failed += s.failed;
        println!(
            "  ladder {:>8.0} req/s: p99 {:>9.1} us, late p99 {:>6.1} us, {}{}",
            s.rate,
            s.p_us(99.0),
            s.late_p99_us(),
            if s.backlog() { "backlog, " } else { "" },
            if !s.valid() {
                "invalid"
            } else if s.meets_limit() {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
    }
    Ok(best.unwrap_or(0.0))
}

/// The standalone probes of the estimate cache and the batch engine.
fn probe_layers(report: &mut Report, inputs: &Inputs, summary: &Summary, tracer: &mut Tracer) {
    let (insert_us, get_ns) = layers::estimate_cache(inputs, tracer);
    report.layers.extend([
        metric("estcache.insert_us", insert_us, "us"),
        metric("estcache.get_ns", get_ns, "ns"),
        metric(
            "engine.batch_overhead_us",
            layers::batch_overhead(inputs, summary, tracer),
            "us",
        ),
    ]);
}

/// The serve workload's inputs as an engine-side replay: every distinct
/// query once (the warm pass), then the first `requests` arrivals.
fn shadow_inputs(inputs: &Inputs, requests: usize) -> Inputs {
    let mut arrivals: Vec<usize> = (0..inputs.cases.len()).collect();
    arrivals.extend(inputs.arrivals.iter().take(requests));
    Inputs {
        dataset: inputs.dataset,
        scale: inputs.scale,
        elements: inputs.elements,
        xml: String::new(),
        summary_bytes: Vec::new(),
        cases: inputs.cases.clone(),
        expected: inputs.expected.clone(),
        arrivals,
        arrival_us: Vec::new(),
        planning_round: inputs.planning_round,
    }
}
