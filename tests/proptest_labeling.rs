//! Bit-identity of path-id labeling: `Labeling::compute` (a path trie
//! that interns each distinct path once, one flat word arena, ids
//! interned straight from their word slices, leaves answered from a
//! per-encoding table) must give the same encoding table, the same
//! interner order and the same per-node pids as the plain per-node
//! algorithm kept below as the reference, and the streaming labeler must
//! agree with both.

use proptest::prelude::*;

use xpe::datagen::{random_document, RandomDocConfig};
use xpe_pathid::{
    EncodingTable, Labeling, PathIdBits, PathScan, Pid, PidInterner, StreamLabeler, StreamSink,
};
use xpe_xml::{Document, NodeId, StreamEvent, StreamParser, TagId};

/// The labeling as a per-node algorithm: one owned `PathIdBits` per
/// element, ORed bottom-up and interned in pre-order.
fn reference_labeling(doc: &Document) -> (EncodingTable, PidInterner, Vec<Pid>) {
    let mut encoding = EncodingTable::new();
    let mut leaf_encoding = vec![0u32; doc.len()];
    let mut stack: Vec<(NodeId, usize)> = vec![(doc.root(), 0)];
    let mut path: Vec<TagId> = Vec::new();
    while let Some((id, depth)) = stack.pop() {
        path.truncate(depth);
        path.push(doc.tag(id));
        let children = doc.children(id);
        if children.is_empty() {
            leaf_encoding[id.index()] = encoding.intern(&path);
        } else {
            for &c in children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
    }
    let width = encoding.len() as u32;
    let mut bits = vec![PathIdBits::zero(width); doc.len()];
    for i in (0..doc.len()).rev() {
        let id = NodeId::from_index(i);
        if doc.children(id).is_empty() {
            bits[i] = PathIdBits::single(width, leaf_encoding[i]);
        }
        if let Some(p) = doc.parent(id) {
            let child = bits[i].clone();
            bits[p.index()].or_assign(&child);
        }
    }
    let mut interner = PidInterner::new(width);
    let node_pids = bits.into_iter().map(|b| interner.intern(b)).collect();
    (encoding, interner, node_pids)
}

/// Records `(pre-order index, temporary pid)` of every retired element.
#[derive(Default)]
struct Retired(Vec<(u64, Pid)>);

impl StreamSink for Retired {
    fn element(&mut self, _tag: TagId, pid: Pid, pre_index: u64) {
        self.0.push((pre_index, pid));
    }
    fn sibling_after(&mut self, _x: TagId, _pid: Pid, _y: TagId, _count: u64) {}
    fn sibling_before(&mut self, _x: TagId, _pid: Pid, _y: TagId, _count: u64) {}
}

fn for_each_event(xml: &str, mut f: impl FnMut(StreamEvent<'_>)) {
    let mut parser = StreamParser::new(xml.as_bytes());
    while let Some(event) = parser.next_event().expect("serialized document parses") {
        f(event);
    }
}

fn assert_same_interner(a: &PidInterner, b: &PidInterner, what: &str) {
    assert_eq!(a.width(), b.width(), "{what}: width");
    let a: Vec<&PathIdBits> = a.iter().map(|(_, bits)| bits).collect();
    let b: Vec<&PathIdBits> = b.iter().map(|(_, bits)| bits).collect();
    assert_eq!(a, b, "{what}: interner order");
}

fn check(doc: &Document) {
    let lab = Labeling::compute(doc);
    let (encoding, interner, node_pids) = reference_labeling(doc);
    let paths = |t: &EncodingTable| t.iter().map(|(_, p)| p.to_vec()).collect::<Vec<_>>();
    assert_eq!(paths(&lab.encoding), paths(&encoding), "encoding table");
    assert_same_interner(&lab.interner, &interner, "flat arena vs reference");
    assert_eq!(lab.node_pids, node_pids, "node pids");

    let xml = xpe_xml::to_string(doc);
    let mut scan = PathScan::new();
    for_each_event(&xml, |event| match event {
        StreamEvent::Open { name } => scan.open(&name),
        StreamEvent::Close => scan.close(),
        StreamEvent::Text(_) => {}
    });
    let (tags, stream_encoding, _) = scan.finish();
    assert_eq!(
        paths(&stream_encoding),
        paths(&encoding),
        "streaming encoding"
    );
    let mut labeler = StreamLabeler::new(&tags, &stream_encoding);
    let mut retired = Retired::default();
    for_each_event(&xml, |event| match event {
        StreamEvent::Open { name } => labeler.open(&name),
        StreamEvent::Close => labeler.close(&mut retired),
        StreamEvent::Text(_) => {}
    });
    let stream = labeler.finish();
    assert_same_interner(&stream.interner, &interner, "streaming vs reference");
    assert_eq!(retired.0.len(), doc.len(), "every element retires once");
    for (pre, temp) in retired.0 {
        assert_eq!(
            stream.resolve(temp),
            node_pids[pre as usize],
            "streaming pid of node {pre}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flat-arena, reference and streaming labelings agree on random
    /// shapes: recursive and layered, narrow and multi-word widths.
    #[test]
    fn flat_arena_labeling_matches_reference_and_streaming(
        seed in 0u64..1 << 20,
        max_depth in 1usize..8,
        max_children in 1usize..6,
        tag_count in 1usize..6,
        layered in any::<bool>(),
    ) {
        let doc = random_document(&RandomDocConfig {
            seed,
            max_depth,
            max_children,
            tag_count,
            layered,
        });
        check(&doc);
    }
}

/// The property above also reaches ids wider than one and two words;
/// this pins a few such documents so the multi-word arena rows are
/// always exercised.
#[test]
fn wide_documents_match_reference() {
    let mut widths = Vec::new();
    for seed in 0..6 {
        let doc = random_document(&RandomDocConfig {
            seed,
            max_depth: 7,
            max_children: 5,
            tag_count: 5,
            layered: seed % 2 == 0,
        });
        check(&doc);
        widths.push(Labeling::compute(&doc).interner.width());
    }
    assert!(
        widths.iter().any(|&w| w > 128),
        "no multi-word width reached: {widths:?}"
    );
}

/// Fixed shapes where the leaf-pid table and the path trie could go
/// wrong, each checked against the reference and the streaming labeler.
#[test]
fn edge_case_documents_match_reference() {
    // The leaf `a/b` has the same bits as its parent `a`, so the first
    // leaf of that path must find the pid its parent already interned.
    let doc = xpe_xml::parse("<r><a><b/></a><b/></r>").unwrap();
    check(&doc);
    let lab = Labeling::compute(&doc);
    let a = doc.children(doc.root())[0];
    assert_eq!(lab.pid(doc.children(a)[0]), lab.pid(a));

    // One path reached through recursion (like XMark's `parlist`): the
    // trie keys on the parent's trie node, not on the tag alone.
    let doc = xpe_xml::parse("<r><p><l><p><l/></p></l></p></r>").unwrap();
    check(&doc);
    assert_eq!(Labeling::compute(&doc).encoding.len(), 1);
    // The same parent/child tag pair one level up is another path.
    let doc = xpe_xml::parse("<r><p><l><p><l/></p></l></p><p><l/></p></r>").unwrap();
    check(&doc);
    assert_eq!(Labeling::compute(&doc).encoding.len(), 2);

    // A single chain as deep as the parser allows.
    let mut b = xpe_xml::TreeBuilder::new();
    for depth in 0..xpe_xml::MAX_DEPTH {
        b.begin_element(if depth % 2 == 0 { "x" } else { "y" });
    }
    for _ in 0..xpe_xml::MAX_DEPTH {
        b.end_element().unwrap();
    }
    let doc = b.finish().unwrap();
    assert_eq!(doc.len(), xpe_xml::MAX_DEPTH);
    check(&doc);
}
