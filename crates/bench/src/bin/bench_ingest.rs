//! Machine-readable ingest snapshot: DOM build versus the streaming
//! bounded-memory pipeline.
//!
//! Measures, per dataset:
//!
//! * raw tokenizer throughput of [`StreamParser`] (MB/s and events/s);
//! * wall time of the DOM path (`parse_document` + `Summary::build`)
//!   versus `Summary::build_streaming`, best of [`REPS`] each, the two
//!   builds run alternately;
//! * peak-heap proxy of each path via a counting global allocator
//!   (peak live bytes above the phase's starting point) — the number
//!   the streaming pipeline exists to shrink;
//! * byte-identity of the two persisted summaries (asserted, and the
//!   streaming peak must stay below the DOM peak on the largest input);
//! * the streaming-to-DOM build-time ratio, asserted on DBLP to stay at
//!   or below [`MAX_STREAM_TO_DOM`].
//!
//! Writes `results/BENCH_ingest.json` (hand-rolled JSON — the workspace
//! carries no serde) and prints the same numbers as a table. Scale/seed
//! come from the usual `XPE_*` variables.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use xpe_bench::{print_table, ExpContext};
use xpe_datagen::{Dataset, DatasetSpec};
use xpe_synopsis::{Summary, SummaryConfig, DEFAULT_PARALLEL_THRESHOLD};
use xpe_xml::{parse_document, to_string, StreamEvent, StreamParser};

/// Repetitions per timing; the best run is reported to damp noise.
const REPS: usize = 5;

/// Ceiling on the streaming build's time over the DOM build's, best of
/// [`REPS`] each, on DBLP (the order-heavy corpus, whose flat root is the
/// streaming labeler's widest sibling set). Streaming tokenizes twice and
/// keeps sibling state per open element instead of reading a finished
/// tree, so it is slower; this bounds by how much.
///
/// At `XPE_SCALE=0.02` on a shared 2-core x86-64 box, ten runs measured
/// 1.32–1.54. When the streaming passes still hashed the whole
/// root-to-leaf path at every leaf, the same measurement gave 2.24–2.89.
/// The ceiling sits between the two: above it is a regression of that
/// size, below it is noise. A ratio above the ceiling is timed once more
/// before it fails, so one slow spell of the machine does not.
const MAX_STREAM_TO_DOM: f64 = 1.75;

/// Live heap bytes right now, maintained by [`CountingAlloc`].
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Wraps the system allocator with live-byte accounting. Layout sizes are
/// exact for alloc/dealloc pairs, so `CURRENT` tracks live bytes and
/// `PEAK` is a faithful peak-heap proxy (allocator slack excluded).
struct CountingAlloc;

fn on_alloc(size: usize) {
    let live = CURRENT.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` once and reports the peak live bytes it added above the heap
/// level at entry, alongside its result.
fn peak_delta<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = CURRENT.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = f();
    (PEAK.load(Relaxed).saturating_sub(base), r)
}

fn best_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        best = best.min(secs(&mut f));
    }
    best
}

fn secs<R>(f: &mut impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

/// Best of [`REPS`] for each of two workloads, run alternately so that a
/// slow spell of a shared machine falls on both rather than on one
/// side of their ratio.
fn best_secs_paired<A, B>(mut f: impl FnMut() -> A, mut g: impl FnMut() -> B) -> (f64, f64) {
    let (mut best_f, mut best_g) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        best_f = best_f.min(secs(&mut f));
        best_g = best_g.min(secs(&mut g));
    }
    (best_f, best_g)
}

struct Row {
    dataset: &'static str,
    xml_bytes: usize,
    elements: u64,
    events: u64,
    tokenize_mbps: f64,
    events_per_sec: f64,
    dom_build_ms: f64,
    stream_build_ms: f64,
    dom_peak_bytes: usize,
    stream_peak_bytes: usize,
}

fn main() {
    let ctx = ExpContext::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = SummaryConfig::default();
    println!(
        "Ingest snapshot: scale = {}, seed = {}, cores = {cores}, \
         parallel_threshold = {} elements",
        ctx.scale, ctx.seed, config.parallel_threshold
    );

    let mut rows: Vec<Row> = Vec::new();
    for ds in Dataset::ALL {
        // Serialize the generated tree, then drop it: both pipelines under
        // measurement start from the same raw text.
        let xml = {
            let doc = DatasetSpec {
                dataset: ds,
                scale: ctx.scale,
                seed: ctx.seed,
            }
            .generate();
            to_string(&doc)
        };

        // Raw tokenizer throughput, plus the event/element tallies.
        let (mut elements, mut events) = (0u64, 0u64);
        let tok_secs = best_secs(|| {
            let mut parser = StreamParser::new(xml.as_bytes());
            let mut opens = 0u64;
            while let Some(event) = parser.next_event().expect("dataset XML is well-formed") {
                if matches!(event, StreamEvent::Open { .. }) {
                    opens += 1;
                }
            }
            elements = opens;
            events = parser.events();
            opens
        });

        let time_builds = || {
            best_secs_paired(
                || {
                    let doc = parse_document(&xml).expect("dataset XML is well-formed");
                    Summary::build(&doc, config)
                },
                || Summary::build_streaming(&xml, config).expect("dataset XML parses"),
            )
        };
        let (mut dom_build_secs, mut stream_build_secs) = time_builds();
        if ds == Dataset::Dblp && stream_build_secs / dom_build_secs > MAX_STREAM_TO_DOM {
            println!(
                "  {}: streaming/DOM {:.2} is above {MAX_STREAM_TO_DOM}; timing again",
                ds.name(),
                stream_build_secs / dom_build_secs
            );
            let (dom, stream) = time_builds();
            if stream / dom < stream_build_secs / dom_build_secs {
                (dom_build_secs, stream_build_secs) = (dom, stream);
            }
        }

        // Peak-heap proxy: one untimed run of each phase. The persisted
        // bytes double as the identity check.
        let (dom_peak, dom_bytes) = peak_delta(|| {
            let doc = parse_document(&xml).expect("dataset XML is well-formed");
            Summary::build(&doc, config).to_bytes()
        });
        let (stream_peak, stream_bytes) = peak_delta(|| {
            Summary::build_streaming(&xml, config)
                .expect("dataset XML parses")
                .to_bytes()
        });
        assert_eq!(
            dom_bytes,
            stream_bytes,
            "streaming summary diverged from DOM summary on {}",
            ds.name()
        );

        println!(
            "  {}: {:.2} MB, {} elements, {} events; tokenizer {:.1} MB/s; \
             build {:.1} ms DOM / {:.1} ms streaming; peak {:.2} MB DOM / {:.2} MB streaming",
            ds.name(),
            xml.len() as f64 / 1e6,
            elements,
            events,
            xml.len() as f64 / 1e6 / tok_secs,
            dom_build_secs * 1e3,
            stream_build_secs * 1e3,
            dom_peak as f64 / 1e6,
            stream_peak as f64 / 1e6,
        );

        rows.push(Row {
            dataset: ds.name(),
            xml_bytes: xml.len(),
            elements,
            events,
            tokenize_mbps: xml.len() as f64 / 1e6 / tok_secs,
            events_per_sec: events as f64 / tok_secs,
            dom_build_ms: dom_build_secs * 1e3,
            stream_build_ms: stream_build_secs * 1e3,
            dom_peak_bytes: dom_peak,
            stream_peak_bytes: stream_peak,
        });
    }

    // Streaming must not cost more than a bounded multiple of the DOM
    // build in time.
    if let Some(dblp) = rows.iter().find(|r| r.dataset == Dataset::Dblp.name()) {
        let ratio = dblp.stream_build_ms / dblp.dom_build_ms;
        assert!(
            ratio <= MAX_STREAM_TO_DOM,
            "streaming build ({:.2} ms) is {ratio:.2}x the DOM build ({:.2} ms) on DBLP; \
             the ceiling is {MAX_STREAM_TO_DOM}x",
            dblp.stream_build_ms,
            dblp.dom_build_ms,
        );
    }

    // The pipeline's reason to exist: on the largest input, streaming must
    // hold strictly less live heap than the DOM path.
    if let Some(largest) = rows.iter().max_by_key(|r| r.xml_bytes) {
        assert!(
            largest.stream_peak_bytes < largest.dom_peak_bytes,
            "streaming peak ({} B) not below DOM peak ({} B) on {}",
            largest.stream_peak_bytes,
            largest.dom_peak_bytes,
            largest.dataset
        );
    }

    print_table(
        "Streaming ingest vs DOM build",
        &[
            "Dataset",
            "XML MB",
            "Tok MB/s",
            "Events/s",
            "DOM ms",
            "Stream ms",
            "Stream/DOM",
            "DOM peak MB",
            "Stream peak MB",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_owned(),
                    format!("{:.2}", r.xml_bytes as f64 / 1e6),
                    format!("{:.1}", r.tokenize_mbps),
                    format!("{:.0}", r.events_per_sec),
                    format!("{:.2}", r.dom_build_ms),
                    format!("{:.2}", r.stream_build_ms),
                    format!("{:.2}", r.stream_build_ms / r.dom_build_ms),
                    format!("{:.2}", r.dom_peak_bytes as f64 / 1e6),
                    format!("{:.2}", r.stream_peak_bytes as f64 / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"scale\": {}, \"seed\": {}, \"reps\": {REPS}, \"cores\": {cores}, \
         \"parallel_threshold\": {},",
        ctx.scale, ctx.seed, config.parallel_threshold
    );
    json.push_str("  \"datasets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let threads_used = config.effective_threads(r.elements as usize);
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"xml_bytes\": {}, \"elements\": {}, \
             \"events\": {}, \"tokenize_mbps\": {:.1}, \"events_per_sec\": {:.0}, \
             \"dom_build_ms\": {:.3}, \"stream_build_ms\": {:.3}, \
             \"stream_to_dom\": {:.3}, \
             \"dom_peak_bytes\": {}, \"stream_peak_bytes\": {}, \
             \"peak_ratio\": {:.3}, \"histogram_threads\": {}, \
             \"identical\": true}}",
            r.dataset,
            r.xml_bytes,
            r.elements,
            r.events,
            r.tokenize_mbps,
            r.events_per_sec,
            r.dom_build_ms,
            r.stream_build_ms,
            r.stream_build_ms / r.dom_build_ms,
            r.dom_peak_bytes,
            r.stream_peak_bytes,
            r.stream_peak_bytes as f64 / r.dom_peak_bytes.max(1) as f64,
            threads_used,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out = "results/BENCH_ingest.json";
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\ncould not write {out}: {e}"),
    }
}

const _: () = {
    // The default threshold is part of the recorded experiment setup;
    // keep the JSON meaningful if it ever changes silently.
    assert!(DEFAULT_PARALLEL_THRESHOLD > 0);
};
