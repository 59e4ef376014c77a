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
