//! Seeded inputs, the oracle, and the timed set-up path.
//!
//! Everything here runs before any timing starts: the document, the §7
//! workload and the traffic trace come from `xpe-datagen`, and the
//! expected answer of every distinct query comes from the Figure-3
//! `JoinKernel::Naive` oracle. The timed code only ever sees the
//! generated document text and the parsed queries.

use std::collections::HashSet;
use std::time::Instant;

use xpe_core::{Estimator, JoinKernel};
use xpe_datagen::{
    generate_traffic, generate_workload, Dataset, DatasetSpec, QueryCase, TrafficConfig,
    WorkloadConfig,
};
use xpe_pathid::Labeling;
use xpe_synopsis::{Summary, SummaryConfig};

use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// What to generate for one workload.
pub struct Spec {
    pub dataset: Dataset,
    pub scale: f64,
    /// Generation attempts per query class (simple, branch).
    pub attempts: usize,
    /// Trace length in requests; 0 means no trace (every distinct
    /// query once, in workload order).
    pub trace_requests: usize,
}

pub struct Inputs {
    pub dataset: Dataset,
    pub scale: f64,
    pub elements: usize,
    /// The generated document, serialized: where set-up starts.
    pub xml: String,
    /// The `.xps` encoding of the summary the oracle ran on.
    pub summary_bytes: Vec<u8>,
    /// Distinct queries of the run.
    pub cases: Vec<QueryCase>,
    /// Oracle answer of each case.
    pub expected: Vec<f64>,
    /// Arrival sequence: indices into `cases`.
    pub arrivals: Vec<usize>,
    /// Trace schedule of each arrival in microseconds (empty without a
    /// trace).
    pub arrival_us: Vec<u64>,
    /// Estimates one optimizer planning round of an arrival asks for
    /// (median, mean), on trace workloads: the basis of `engine_zipf`'s
    /// batch size.
    pub planning_round: Option<(f64, f64)>,
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let doc = DatasetSpec {
        dataset: spec.dataset,
        scale: spec.scale,
        seed,
    }
    .generate();
    let xml = xpe_xml::to_string(&doc);
    let labeling = Labeling::compute(&doc);
    let workload = generate_workload(
        &doc,
        &labeling.encoding,
        &WorkloadConfig {
            seed,
            simple_attempts: spec.attempts,
            branch_attempts: spec.attempts,
            ..WorkloadConfig::default()
        },
    );
    let (cases, arrivals, arrival_us) = if spec.trace_requests == 0 {
        let mut seen = HashSet::new();
        let cases: Vec<QueryCase> = [
            &workload.simple,
            &workload.branch,
            &workload.order_branch,
            &workload.order_trunk,
        ]
        .into_iter()
        .flatten()
        .filter(|c| seen.insert(c.text.clone()))
        .cloned()
        .collect();
        let arrivals: Vec<usize> = (0..cases.len()).collect();
        (cases, arrivals, Vec::new())
    } else {
        let trace = generate_traffic(
            &workload,
            &TrafficConfig {
                seed,
                requests: spec.trace_requests,
                ..TrafficConfig::default()
            },
        );
        let cases: Vec<QueryCase> = trace.templates.iter().map(|t| t.case.clone()).collect();
        let distinct: HashSet<&str> = cases.iter().map(|c| c.text.as_str()).collect();
        assert_eq!(distinct.len(), cases.len(), "trace templates are distinct");
        let arrivals: Vec<usize> = trace.requests.iter().map(|r| r.template).collect();
        let arrival_us = trace.requests.iter().map(|r| r.arrival_us).collect();
        (cases, arrivals, arrival_us)
    };
    // Only the document is still needed: free the rest before the build.
    drop((labeling, workload));
    let summary = Summary::build(&doc, SummaryConfig::default());
    let oracle = Estimator::new(&summary).with_kernel(JoinKernel::Naive);
    let expected = cases.iter().map(|c| oracle.estimate(&c.query)).collect();
    let planning_round =
        (spec.trace_requests > 0).then(|| planning_round(&oracle, &cases, &arrivals));
    Inputs {
        dataset: spec.dataset,
        scale: spec.scale,
        elements: doc.len(),
        summary_bytes: summary.to_bytes(),
        xml,
        cases,
        expected,
        arrivals,
        arrival_us,
        planning_round,
    }
}

/// Median and mean, over the arrivals, of the estimates the planner API
/// asks to plan one query: a step cardinality per step of
/// `path_cardinalities` plus a rank per branch `rank_predicates` ranks
/// at each node.
fn planning_round(est: &Estimator, cases: &[QueryCase], arrivals: &[usize]) -> (f64, f64) {
    let per_case: Vec<u64> = cases
        .iter()
        .map(|c| {
            let q = &c.query;
            let ranks: usize = q.node_ids().map(|n| est.rank_predicates(q, n).len()).sum();
            (est.path_cardinalities(q).steps.len() + ranks) as u64
        })
        .collect();
    let mut sizes: Vec<u64> = arrivals.iter().map(|&c| per_case[c]).collect();
    sizes.sort_unstable();
    let mean = sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64;
    (percentile(&sizes, 50.0), mean)
}

impl Inputs {
    /// Whether an answer is `ok` and bit-identical to the oracle.
    pub fn matches(&self, case: usize, ok: bool, value: f64) -> bool {
        ok && value.to_bits() == self.expected[case].to_bits()
    }

    pub fn describe(&self, workload: &str) {
        let distinct_arrivals: HashSet<usize> = self.arrivals.iter().copied().collect();
        let planning = self.planning_round.map_or(String::new(), |(median, mean)| {
            format!(" planning_round_median={median} planning_round_mean={mean:.2}")
        });
        println!(
            "inputs: workload={workload} dataset={} scale={} elements={} document_bytes={} \
             summary_bytes={} distinct_queries={} arrivals={} distinct_arrivals={}{planning}",
            self.dataset.name(),
            self.scale,
            self.elements,
            self.xml.len(),
            self.summary_bytes.len(),
            self.cases.len(),
            self.arrivals.len(),
            distinct_arrivals.len(),
        );
    }

    /// Accuracy of `answers` (one per case, NaN for a case the run never
    /// asked) against the exact counts.
    pub fn accuracy(&self, answers: &[f64]) -> Accuracy {
        let pairs: Vec<(f64, u64)> = answers
            .iter()
            .zip(&self.cases)
            .filter(|(e, _)| !e.is_nan())
            .map(|(&e, c)| (e, c.actual))
            .collect();
        let rel = xpe_core::mean_relative_error(pairs.iter().copied()).unwrap_or(f64::NAN);
        let mut q: Vec<u64> = pairs
            .iter()
            .map(|&(e, a)| (crate::stats::q_error(e, a) * 1e6) as u64)
            .collect();
        q.sort_unstable();
        let mean = q.iter().map(|&v| v as f64 / 1e6).sum::<f64>() / q.len().max(1) as f64;
        Accuracy {
            rel_err_mean: rel,
            qerr_mean: mean,
            qerr_p90: percentile(&q, 90.0) / 1e6,
            cases: q.len(),
        }
    }
}

pub struct Accuracy {
    /// The paper's mean relative error.
    pub rel_err_mean: f64,
    /// Mean q-error: the factor by which an estimate misses, averaged.
    pub qerr_mean: f64,
    pub qerr_p90: f64,
    /// Cases the figures cover.
    pub cases: usize,
}

/// Median wall times of the set-up steps, in seconds.
#[derive(Default)]
pub struct SetupTimes {
    pub parse: f64,
    pub build: f64,
    pub encode: f64,
    pub decode: f64,
    pub total: f64,
    /// `total` normalized to the reference machine speed (see
    /// [`calib`](crate::calib)), each round by a calibration taken just
    /// before it.
    pub norm_total: f64,
}

/// Runs set-up `rounds` times: document text → `parse_document` →
/// `Summary::build` → `to_bytes` → `from_bytes` → `ready`, which makes the
/// answering side (an engine or a bound server) and hands it back. Returns
/// the medians and what the last round made ready. Every round's summary
/// must encode to the oracle's bytes.
pub fn setup<R>(
    inputs: &Inputs,
    rounds: usize,
    tracer: &mut Tracer,
    mut ready: impl FnMut(Summary) -> R,
) -> Result<(SetupTimes, R), String> {
    let mut steps: [Vec<f64>; 5] = Default::default();
    let mut norm = Vec::new();
    let mut last = None;
    for round in 0..rounds.max(1) {
        drop(last.take()); // the previous round's product goes outside timing
        let slowness = crate::calib::slowness();
        let root = tracer.enter("setup", round as u64);
        let t0 = Instant::now();
        let doc = tracer
            .span("xml.parse_document", round as u64, || {
                xpe_xml::parse_document(&inputs.xml)
            })
            .map_err(|e| format!("generated document does not parse: {e}"))?;
        let t1 = Instant::now();
        let summary = tracer.span("synopsis.build", round as u64, || {
            Summary::build(&doc, SummaryConfig::default())
        });
        let t2 = Instant::now();
        let bytes = tracer.span("synopsis.to_bytes", round as u64, || summary.to_bytes());
        let t3 = Instant::now();
        let decoded = tracer
            .span("synopsis.from_bytes", round as u64, || {
                Summary::from_bytes(&bytes)
            })
            .map_err(|e| format!("summary does not decode: {e}"))?;
        let t4 = Instant::now();
        let made = tracer.span("ready", round as u64, || ready(decoded));
        let t5 = Instant::now();
        tracer.exit(root);
        if bytes != inputs.summary_bytes {
            return Err("set-up summary differs from the oracle's summary".into());
        }
        drop(doc);
        for (slot, (a, b)) in
            steps
                .iter_mut()
                .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t0, t5)])
        {
            slot.push((b - a).as_secs_f64());
        }
        norm.push((t5 - t0).as_secs_f64() / slowness);
        last = Some(made);
    }
    let times = SetupTimes {
        parse: median(&steps[0]),
        build: median(&steps[1]),
        encode: median(&steps[2]),
        decode: median(&steps[3]),
        total: median(&steps[4]),
        norm_total: median(&norm),
    };
    Ok((times, last.expect("at least one round")))
}
