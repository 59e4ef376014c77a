//! Integration: a persisted summary estimates identically to the freshly
//! built one, across datasets, query classes and variance settings.

use xpe::datagen::generate_workload;
use xpe::prelude::*;
use xpe::synopsis::Summary as Syn;

#[test]
fn saved_summary_estimates_identically() {
    for (dataset, scale) in [
        (Dataset::SSPlays, 0.02),
        (Dataset::Dblp, 0.003),
        (Dataset::XMark, 0.01),
    ] {
        let doc = DatasetSpec {
            dataset,
            scale,
            seed: 77,
        }
        .generate();
        let labeling = Labeling::compute(&doc);
        let workload = generate_workload(
            &doc,
            &labeling.encoding,
            &WorkloadConfig {
                simple_attempts: 120,
                branch_attempts: 120,
                ..WorkloadConfig::default()
            },
        );
        for (pv, ov) in [(0.0, 0.0), (2.0, 4.0)] {
            let original = Syn::build(
                &doc,
                SummaryConfig {
                    p_variance: pv,
                    o_variance: ov,
                    ..SummaryConfig::default()
                },
            );
            let reloaded = Syn::from_bytes(&original.to_bytes()).expect("round trip");
            let est_a = Estimator::new(&original);
            let est_b = Estimator::new(&reloaded);
            for case in workload
                .simple
                .iter()
                .chain(&workload.branch)
                .chain(&workload.order_branch)
                .chain(&workload.order_trunk)
            {
                let a = est_a.estimate(&case.query);
                let b = est_b.estimate(&case.query);
                assert!(
                    (a - b).abs() < 1e-9,
                    "{} ({dataset:?}, pv={pv}, ov={ov}): {a} vs {b}",
                    case.text
                );
            }
        }
    }
}

#[test]
fn summary_file_round_trip() {
    let doc = DatasetSpec {
        dataset: Dataset::SSPlays,
        scale: 0.01,
        seed: 9,
    }
    .generate();
    let summary = Syn::build(&doc, SummaryConfig::default());
    let dir = std::env::temp_dir().join(format!("xpe-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plays.xps");
    summary.save_to_file(&path).unwrap();
    let reloaded = Syn::load_from_file(&path).unwrap();
    assert_eq!(reloaded.pids.len(), summary.pids.len());
    assert_eq!(
        Estimator::new(&reloaded)
            .estimate_str("//ACT/SCENE")
            .unwrap(),
        Estimator::new(&summary)
            .estimate_str("//ACT/SCENE")
            .unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loading_garbage_fails_cleanly() {
    assert!(Syn::from_bytes(b"").is_err());
    assert!(Syn::from_bytes(b"not a summary at all").is_err());
    assert!(Syn::from_bytes(&[0u8; 64]).is_err());
}

/// The summaries of the nine pinned `(dataset, scale, seed)` corpora, as
/// `(byte length, CRC-32 of everything before the trailer)` — the
/// trailer itself, so a pin doubles as a check of the stored checksum.
/// Any change to the build path that alters one summary byte, from the
/// DOM or the streaming build, fails here; update a pin only together
/// with a deliberate change to the summary format or its statistics.
const PINNED_SUMMARIES: [(Dataset, f64, u64, usize, u32); 9] = [
    (Dataset::XMark, 0.1, 1, 128_933, 0x96f3_9aef),
    (Dataset::XMark, 0.1, 2, 132_437, 0x27c0_221b),
    (Dataset::XMark, 0.1, 3, 126_089, 0x125b_0a2e),
    (Dataset::Dblp, 0.02, 1, 49_540, 0xc524_4f89),
    (Dataset::Dblp, 0.02, 2, 52_004, 0x0672_a7d6),
    (Dataset::Dblp, 0.02, 3, 51_328, 0x7615_dfcb),
    (Dataset::SSPlays, 0.05, 1, 3_583, 0xa375_cfee),
    (Dataset::SSPlays, 0.05, 2, 4_215, 0x40bf_09ec),
    (Dataset::SSPlays, 0.05, 3, 3_583, 0xeae5_19e0),
];

#[test]
fn pinned_summaries_are_byte_stable() {
    for (dataset, scale, seed, len, crc) in PINNED_SUMMARIES {
        let doc = DatasetSpec {
            dataset,
            scale,
            seed,
        }
        .generate();
        let bytes = Syn::build(&doc, SummaryConfig::default()).to_bytes();
        let body = &bytes[..bytes.len() - 4];
        assert_eq!(
            (bytes.len(), xpe::xml::wire::crc32(body)),
            (len, crc),
            "{dataset:?} {scale} seed {seed}: summary bytes changed"
        );
        assert_eq!(&bytes[body.len()..], crc.to_le_bytes(), "stored trailer");
        let streamed = Syn::build_streaming(&xpe::xml::to_string(&doc), SummaryConfig::default())
            .expect("serialized corpus parses")
            .to_bytes();
        assert!(
            streamed == bytes,
            "{dataset:?} {scale} seed {seed}: streaming build differs"
        );
    }
}

/// Images whose sections each decode but disagree with one another — a
/// histogram set with the wrong number of tags, a bucket or column naming
/// a pid that was never interned, an encoding path naming an unknown tag
/// — are refused with a typed error by both the owned decode and the
/// zero-copy view. Before the cross-check, the first of them loaded and
/// then panicked at the first estimate.
#[test]
fn images_with_dangling_references_are_refused() {
    use xpe::synopsis::{
        LoadError, OHistogramSet, PBucket, PHistogram, PHistogramSet, SummaryView,
    };
    use xpe::xml::wire::WireError;

    let doc = xpe::xml::fixtures::paper_figure1();
    let good = Syn::build(&doc, SummaryConfig::default());
    let variance = good.phist.variance();
    let mut crafted: Vec<(&str, Syn)> = Vec::new();

    let mut s = good.clone();
    s.phist = PHistogramSet::from_parts(vec![], variance);
    crafted.push(("no p-histograms", s));

    let mut s = good.clone();
    s.ohist = OHistogramSet::build(
        &xpe::synopsis::PathOrderTable::from_rows(vec![]),
        &good.phist,
        &xpe::xml::TagInterner::new(),
        0.0,
    );
    crafted.push(("no o-histograms", s));

    let mut s = good.clone();
    let mut per_tag: Vec<PHistogram> = (0..good.tags.len())
        .map(|t| good.phist.histogram(xpe::xml::TagId::from_index(t)).clone())
        .collect();
    per_tag[0] = PHistogram::from_buckets(vec![PBucket {
        pids: vec![xpe::pathid::Pid::from_index(good.pids.len())],
        avg: 1.0,
    }]);
    s.phist = PHistogramSet::from_parts(per_tag, variance);
    crafted.push(("unknown pid in a p-histogram bucket", s));

    let mut s = good.clone();
    let mut encoding = xpe::pathid::EncodingTable::new();
    for (_, path) in good.encoding.iter() {
        let mut path = path.to_vec();
        *path.last_mut().unwrap() = xpe::xml::TagId::from_index(good.tags.len());
        encoding.intern(&path);
    }
    s.encoding = encoding;
    crafted.push(("unknown tag in an encoding path", s));

    for (what, summary) in crafted {
        let bytes = summary.to_bytes();
        assert!(
            matches!(
                Syn::from_bytes(&bytes),
                Err(LoadError::Wire(WireError::BadHeader(_)))
            ),
            "{what}: owned decode accepted it"
        );
        assert!(
            matches!(
                SummaryView::parse(&bytes),
                Err(LoadError::Wire(WireError::BadHeader(_)))
            ),
            "{what}: view accepted it"
        );
    }
    // A tag name, encoding path or pid bit set stored twice would shift
    // every later id off its index, so the owned decode refuses it. The
    // view checks the same references against the counts in the image
    // but cannot see a repeat without a table; its owned decode refuses.
    use xpe::xml::wire::{put_str, put_u32};
    let image = good.to_bytes();
    let spans = SummaryView::parse(&image).unwrap().sections();
    let payload = &image[16..image.len() - 4];
    let with_section = |span: xpe::synopsis::SectionSpan, section: Vec<u8>| {
        let mut body = image[..8].to_vec();
        let len = (span.start + section.len() + payload.len() - span.end) as u64;
        body.extend_from_slice(&len.to_le_bytes());
        body.extend_from_slice(&payload[..span.start]);
        body.extend_from_slice(&section);
        body.extend_from_slice(&payload[span.end..]);
        let crc = xpe::xml::wire::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    };
    let mut tags = Vec::new();
    put_u32(&mut tags, good.tags.len() as u32);
    for (i, (_, name)) in good.tags.iter().enumerate() {
        put_str(
            &mut tags,
            if i == 1 {
                good.tags.name(xpe::xml::TagId::from_index(0))
            } else {
                name
            },
        );
    }
    let mut pids = Vec::new();
    put_u32(&mut pids, good.pids.width());
    put_u32(&mut pids, good.pids.len() as u32);
    let first = good.pids.iter().next().unwrap().1;
    for (p, bits) in good.pids.iter() {
        let bits = if p.index() == 1 { first } else { bits };
        put_u32(&mut pids, bits.count_ones());
        bits.ones().for_each(|pos| put_u32(&mut pids, pos));
    }
    for (what, bytes, message) in [
        (
            "repeated tag name",
            with_section(spans.tags, tags),
            "duplicate tag name",
        ),
        (
            "repeated pid bit set",
            with_section(spans.pids, pids),
            "duplicate pid",
        ),
    ] {
        let refused = |r: Result<Syn, LoadError>| matches!(r, Err(LoadError::Wire(WireError::BadHeader(m))) if m == message);
        assert!(refused(Syn::from_bytes(&bytes)), "{what}");
        let view = SummaryView::parse(&bytes).expect(what);
        assert!(refused(view.to_summary()), "{what}: view's owned decode");
    }

    // And the image they were made from still loads and answers.
    let bytes = good.to_bytes();
    let loaded = Syn::from_bytes(&bytes).expect("valid image");
    SummaryView::parse(&bytes).expect("valid image");
    assert_eq!(
        Estimator::new(&loaded).estimate_str("//A/B").unwrap(),
        Estimator::new(&good).estimate_str("//A/B").unwrap()
    );
}
