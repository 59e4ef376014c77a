//! Streaming path-id labeling: the paper's §2 encoding computed from a
//! tokenizer event stream with O(depth × width) live state, bit-identical
//! to [`Labeling::compute`](crate::Labeling::compute) over the
//! materialized tree.
//!
//! Two passes over the same byte stream:
//!
//! 1. **Pass A** ([`PathScan`]) interns every tag at its open event and
//!    every distinct root-to-leaf label path at its *leaf close* event.
//!    Leaves close in pre-order (a leaf has no descendants, so it opens
//!    and closes before the next leaf opens), which is exactly the
//!    first-encounter document order the DOM pass-1 DFS uses — the
//!    [`EncodingTable`] comes out identical, fixing the path-id width.
//!    Like the DOM labeler, both passes walk a path trie keyed by
//!    `(trie node, tag)`, one [`HandleMap`] probe per open, so a label
//!    path is hashed whole only at the first leaf that ends at its trie
//!    node, not at every leaf.
//! 2. **Pass B** ([`StreamLabeler`]) re-streams with a stack of open
//!    elements whose ids live in one flat word stack. A leaf close sets
//!    the single bit of its path; every close interns the finished id
//!    straight from its words, ORs them into the parent's and retires the
//!    element's `(tag, pid)` into a [`StreamSink`] — no per-node storage
//!    survives the node's close event, and no id is allocated unless it is
//!    new.
//!
//! One ordering wrinkle: the DOM path interns pid bit-patterns in node
//! *pre*-order, but a streaming pass can only finish a pattern at its
//! node's *close* (post-order). Pass B therefore interns into a temporary
//! id space, records the minimal pre-order index at which each distinct
//! pattern occurs, and [`StreamLabeler::finish`] renumbers patterns by
//! that index — which is precisely the DOM's first-encounter pre-order,
//! so the final [`PidInterner`] is handle-for-handle identical. The same
//! minimal-pre-order bookkeeping lets sinks reconstruct first-encounter
//! row orders for the frequency table.

use xpe_xml::{TagId, TagInterner};

use crate::bits::PathIdBits;
use crate::encoding::EncodingTable;
use crate::handle::HandleMap;
use crate::interner::{Pid, PidInterner};
use crate::label::PathTrie;

/// Pass A: collects the tag vocabulary and the distinct root-to-leaf
/// label paths from open/close events. State is O(depth + output).
#[derive(Debug, Default)]
pub struct PathScan {
    tags: TagInterner,
    encoding: EncodingTable,
    trie: PathTrie,
    path: Vec<TagId>,
    /// Per open element: its trie node, and whether an element child has
    /// been seen.
    open: Vec<(u32, bool)>,
    elements: u64,
}

impl PathScan {
    /// Creates an empty scan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds an element open event.
    pub fn open(&mut self, name: &str) {
        let tag = self.tags.intern(name);
        let parent = match self.open.last_mut() {
            Some((node, has_child)) => {
                *has_child = true;
                *node
            }
            None => PathTrie::ROOT,
        };
        let node = self.trie.step(parent, tag);
        self.path.push(tag);
        self.open.push((node, false));
        self.elements += 1;
    }

    /// Feeds an element close event.
    ///
    /// # Panics
    ///
    /// Panics on a close without a matching open (the tokenizer rejects
    /// such documents before the event is ever produced).
    pub fn close(&mut self) {
        let (node, has_child) = self.open.pop().expect("close without open");
        let slot = &mut self.trie.encoding[node as usize];
        if !has_child && *slot == 0 {
            *slot = self.encoding.intern(&self.path);
        }
        self.path.pop();
    }

    /// Number of elements opened so far.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// The collected vocabulary: `(tags, encoding table, element count)`.
    pub fn finish(self) -> (TagInterner, EncodingTable, u64) {
        debug_assert!(self.path.is_empty(), "unbalanced event stream");
        (self.tags, self.encoding, self.elements)
    }
}

/// Receives each element exactly once, at its close event, plus the
/// sibling-order facts the path-order table aggregates.
///
/// Pids handed to the sink are **temporary** (post-order first-encounter);
/// translate them through [`StreamLabeling::remap`] after
/// [`StreamLabeler::finish`]. `pre_index` is the element's pre-order
/// (document-order) index — per-`(tag, pid)` minima over it reproduce the
/// DOM tables' first-encounter row order.
pub trait StreamSink {
    /// An element of `tag` with path id `pid` closed; it was the
    /// `pre_index`-th element (0-based) to open.
    fn element(&mut self, tag: TagId, pid: Pid, pre_index: u64);

    /// `count` children of tag/pid `(x, pid)` of the closing parent have
    /// some `y`-tagged sibling before them (the paper's `element+` region,
    /// "x after y"), aggregated per parent.
    fn sibling_after(&mut self, x: TagId, pid: Pid, y: TagId, count: u64);

    /// `count` children of tag/pid `(x, pid)` of the closing parent have
    /// some `y`-tagged sibling after them (the `+element` region, "x
    /// before y"), aggregated per parent.
    fn sibling_before(&mut self, x: TagId, pid: Pid, y: TagId, count: u64);
}

/// Per-open-element frame of pass B. Its id words live in the labeler's
/// flat word stack and its sibling state in the labeler's per-depth
/// [`Siblings`], not here.
#[derive(Debug)]
struct Frame {
    tag: TagId,
    /// This element's node in the labeler's path trie.
    node: u32,
    /// Pre-order index of this element.
    pre: u64,
    has_child: bool,
}

/// The children of one `(tag, temporary pid)` group under an open parent.
#[derive(Debug)]
struct Group {
    tag: TagId,
    pid: Pid,
    /// Children closed so far.
    count: u64,
    /// Position of the latest of them among the parent's children.
    last: usize,
    /// Per tag slot: the group's children before that tag's last
    /// position, as of the group's latest child (see [`Siblings`]);
    /// slots past the end read 0.
    before: Vec<u64>,
}

/// One distinct child tag of an open parent.
#[derive(Debug)]
struct ChildTag {
    tag: TagId,
    /// Position of the latest child with this tag.
    last: usize,
    /// `snapshot[at..at + len]`: the counts of the parent's groups
    /// `0..len` right after this tag's first child closed.
    at: usize,
    len: usize,
}

/// The sibling-order state of one open element, over the children closed
/// so far: O(distinct child groups × distinct child tags), never
/// O(children). One is kept per depth and cleared for the next element
/// at that depth, so its tables are allocated once per depth.
///
/// At the parent's close, for group `g` and child tag `y`, the DOM
/// scan's counts are
/// - `after(g, y)`, the `g` children after `y`'s first position:
///   `g.count` minus the `g` children at or before it, which the
///   snapshot taken when `y` first appears holds;
/// - `before(g, y)`, the `g` children before `y`'s last position:
///   `g.count` when `y`'s last child came after `g`'s, otherwise the
///   value settled into `g.before` when `g` last grew. Each new `g` child
///   settles every tag that arrived since `g`'s previous one, at the
///   count before it, so nothing is copied per child.
#[derive(Debug, Default)]
struct Siblings {
    /// Children closed so far.
    children: usize,
    /// Distinct child tags in first-seen order; a tag's index here is its
    /// slot.
    tags: Vec<ChildTag>,
    group_of: HandleMap<(TagId, Pid), u32>,
    groups: Vec<Group>,
    /// Group counts snapshot at each tag's first child (see [`ChildTag`]).
    snapshot: Vec<u64>,
}

impl Siblings {
    fn clear(&mut self) {
        self.children = 0;
        self.tags.clear();
        self.group_of.clear();
        self.groups.clear();
        self.snapshot.clear();
    }

    /// A child of tag `x` with temporary id `pid` closed.
    fn push(&mut self, x: TagId, pid: Pid) {
        let k = self.children;
        self.children += 1;
        let next = self.groups.len() as u32;
        let g = *self.group_of.entry((x, pid)).or_insert(next);
        if g == next {
            self.groups.push(Group {
                tag: x,
                pid,
                count: 0,
                last: 0,
                before: Vec::new(),
            });
        }
        let group = &mut self.groups[g as usize];
        let (count, group_last) = (group.count, group.last);
        group.count += 1;
        group.last = k;
        if count > 0 && group.before.len() < self.tags.len() {
            group.before.resize(self.tags.len(), 0);
        }
        let mut seen = false;
        for (slot, child_tag) in self.tags.iter_mut().enumerate() {
            // Settle tags whose last child came after the group's
            // previous one; for `x` itself every earlier child of the
            // group precedes this one, now the last `x`.
            let is_x = child_tag.tag == x;
            if count > 0 && (is_x || child_tag.last > group_last) {
                group.before[slot] = count;
            }
            if is_x {
                child_tag.last = k;
                seen = true;
            }
        }
        if !seen {
            self.tags.push(ChildTag {
                tag: x,
                last: k,
                at: self.snapshot.len(),
                len: self.groups.len(),
            });
            self.snapshot
                .extend(self.groups.iter().map(|group| group.count));
        }
    }

    /// Reports every nonzero `(group, tag)` count of the closing parent.
    fn flush<S: StreamSink>(&self, sink: &mut S) {
        for (g, group) in self.groups.iter().enumerate() {
            for (slot, child_tag) in self.tags.iter().enumerate() {
                let at_first = if g < child_tag.len {
                    self.snapshot[child_tag.at + g]
                } else {
                    0
                };
                let after = group.count - at_first;
                if after > 0 {
                    sink.sibling_after(group.tag, group.pid, child_tag.tag, after);
                }
                let before = if child_tag.last > group.last {
                    group.count
                } else {
                    group.before.get(slot).copied().unwrap_or(0)
                };
                if before > 0 {
                    sink.sibling_before(group.tag, group.pid, child_tag.tag, before);
                }
            }
        }
    }
}

/// The result of pass B: the final (DOM-identical) interner plus the
/// translation from the temporary pids the sink saw.
#[derive(Debug)]
pub struct StreamLabeling {
    /// Distinct path ids, numbered in first-encounter pre-order — the
    /// same handles [`Labeling::compute`](crate::Labeling::compute)
    /// assigns.
    pub interner: PidInterner,
    /// `remap[temp_pid.index()]` is the final pid.
    pub remap: Vec<Pid>,
    /// Total element count.
    pub elements: u64,
}

impl StreamLabeling {
    /// Translates a temporary pid (as seen by the sink) to its final
    /// handle.
    #[inline]
    pub fn resolve(&self, temp: Pid) -> Pid {
        self.remap[temp.index()]
    }
}

/// Pass B: assigns path ids from open/close events, retiring each element
/// into a [`StreamSink`] at its close. Live state is the open-element
/// stack — O(depth) frames, each O(width + distinct child groups ×
/// distinct child tags) — plus the distinct-pid interner; nothing is
/// proportional to node count.
#[derive(Debug)]
pub struct StreamLabeler<'a> {
    tags: &'a TagInterner,
    encoding: &'a EncodingTable,
    width: u32,
    /// Words per id (`⌈width / 64⌉`).
    words: usize,
    /// The id words of every open frame, `words` per frame, innermost
    /// last: each holds the OR of the ids of the frame's children closed
    /// so far (the element's id at close, unless it is a leaf).
    bits: Vec<u64>,
    /// Temporary interner: patterns numbered by close-order encounter.
    temp: PidInterner,
    /// Per temporary pid: minimal pre-order index over its occurrences.
    first_pre: Vec<u64>,
    frames: Vec<Frame>,
    /// `siblings[d]`: the sibling state of the open frame at depth `d`
    /// once it has a child (kept past its close, cleared for reuse).
    siblings: Vec<Siblings>,
    /// Label paths seen so far; a node's encoding is looked up in
    /// `encoding` at the first leaf that ends there.
    trie: PathTrie,
    /// Per encoding: the temporary pid of a leaf on that path, once
    /// interned (a leaf's id is its path's single bit).
    leaf_pid: Vec<Option<Pid>>,
    path: Vec<TagId>,
    next_pre: u64,
}

impl<'a> StreamLabeler<'a> {
    /// Creates a labeler over the vocabulary pass A collected. The
    /// encoding table is complete, so the path-id width is fixed.
    pub fn new(tags: &'a TagInterner, encoding: &'a EncodingTable) -> Self {
        let width = encoding.len() as u32;
        StreamLabeler {
            tags,
            encoding,
            width,
            words: width.div_ceil(64) as usize,
            bits: Vec::new(),
            temp: PidInterner::new(width),
            first_pre: Vec::new(),
            frames: Vec::new(),
            siblings: Vec::new(),
            trie: PathTrie::default(),
            leaf_pid: vec![None; width as usize + 1],
            path: Vec::new(),
            next_pre: 0,
        }
    }

    /// Path-id width (number of distinct root-to-leaf paths).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Feeds an element open event.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never seen by pass A — the two passes must
    /// consume the same byte stream.
    pub fn open(&mut self, name: &str) {
        let tag = self
            .tags
            .get(name)
            .expect("tag not in pass-A vocabulary: passes saw different streams");
        let depth = self.frames.len();
        let parent = match self.frames.last_mut() {
            Some(parent) => {
                if !parent.has_child {
                    // The parent's first child: its sibling state starts
                    // empty (childless elements never touch theirs).
                    parent.has_child = true;
                    match self.siblings.get_mut(depth - 1) {
                        Some(siblings) => siblings.clear(),
                        None => self.siblings.push(Siblings::default()),
                    }
                }
                parent.node
            }
            None => PathTrie::ROOT,
        };
        let node = self.trie.step(parent, tag);
        self.path.push(tag);
        self.frames.push(Frame {
            tag,
            node,
            pre: self.next_pre,
            has_child: false,
        });
        self.bits.resize(self.bits.len() + self.words, 0);
        self.next_pre += 1;
    }

    /// Feeds an element close event, retiring the element into `sink`.
    ///
    /// # Panics
    ///
    /// Panics on a close without a matching open, or (for a leaf) on a
    /// root-to-leaf path pass A never interned.
    pub fn close<S: StreamSink>(&mut self, sink: &mut S) {
        let frame = self.frames.pop().expect("close without open");
        let top = self.bits.len() - self.words;
        let (outer, own) = self.bits.split_at_mut(top);
        let pid = if frame.has_child {
            self.temp.intern_words(own)
        } else {
            let slot = &mut self.trie.encoding[frame.node as usize];
            if *slot == 0 {
                *slot = self
                    .encoding
                    .encoding_of(&self.path)
                    .expect("leaf path not in pass-A encoding table");
            }
            PathIdBits::set_in(own, *slot);
            let temp = &mut self.temp;
            *self.leaf_pid[*slot as usize].get_or_insert_with(|| temp.intern_words(own))
        };
        if let Some(parent) = outer.len().checked_sub(self.words) {
            crate::words::or_assign(&mut outer[parent..], own);
        }
        self.bits.truncate(top);
        if pid.index() == self.first_pre.len() {
            self.first_pre.push(frame.pre);
        } else {
            let slot = &mut self.first_pre[pid.index()];
            *slot = (*slot).min(frame.pre);
        }
        sink.element(frame.tag, pid, frame.pre);

        let depth = self.frames.len();
        if frame.has_child {
            self.siblings[depth].flush(sink);
        }
        self.path.pop();
        if let Some(parent) = depth.checked_sub(1) {
            self.siblings[parent].push(frame.tag, pid);
        }
    }

    /// Renumbers the temporary pid space into the DOM's first-encounter
    /// pre-order and returns the final labeling.
    pub fn finish(self) -> StreamLabeling {
        debug_assert!(self.frames.is_empty(), "unbalanced event stream");
        // Two distinct patterns never share a first node, so the minima
        // are unique and the order is total.
        let mut by_pre: Vec<usize> = (0..self.temp.len()).collect();
        by_pre.sort_by_key(|&i| self.first_pre[i]);
        let mut interner = PidInterner::new(self.width);
        let mut remap = vec![Pid::from_index(0); self.temp.len()];
        for &temp_index in &by_pre {
            let final_pid = interner.intern(self.temp.bits(Pid::from_index(temp_index)).clone());
            remap[temp_index] = final_pid;
        }
        StreamLabeling {
            interner,
            remap,
            elements: self.next_pre,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeling;
    use std::collections::HashMap;
    use xpe_xml::{parse_document, StreamEvent, StreamParser};

    /// Sink that records everything, for direct comparison with the DOM
    /// tables.
    #[derive(Default)]
    struct Recorder {
        elements: Vec<(TagId, Pid, u64)>,
        after: Vec<(TagId, Pid, TagId, u64)>,
        before: Vec<(TagId, Pid, TagId, u64)>,
    }

    impl StreamSink for Recorder {
        fn element(&mut self, tag: TagId, pid: Pid, pre_index: u64) {
            self.elements.push((tag, pid, pre_index));
        }
        fn sibling_after(&mut self, x: TagId, pid: Pid, y: TagId, count: u64) {
            self.after.push((x, pid, y, count));
        }
        fn sibling_before(&mut self, x: TagId, pid: Pid, y: TagId, count: u64) {
            self.before.push((x, pid, y, count));
        }
    }

    fn run_both(input: &str) -> (Labeling, StreamLabeling, Recorder) {
        let doc = parse_document(input).unwrap();
        let dom = Labeling::compute(&doc);

        let mut scan = PathScan::new();
        drive(input, |ev| match ev {
            StreamEvent::Open { name } => scan.open(&name),
            StreamEvent::Close => scan.close(),
            StreamEvent::Text(_) => {}
        });
        let (tags, encoding, _) = scan.finish();
        let mut labeler = StreamLabeler::new(&tags, &encoding);
        let mut rec = Recorder::default();
        drive(input, |ev| match ev {
            StreamEvent::Open { name } => labeler.open(&name),
            StreamEvent::Close => labeler.close(&mut rec),
            StreamEvent::Text(_) => {}
        });
        (dom, labeler.finish(), rec)
    }

    fn drive(input: &str, mut f: impl FnMut(StreamEvent<'_>)) {
        let mut p = StreamParser::new(input.as_bytes());
        while let Some(ev) = p.next_event().unwrap() {
            f(ev);
        }
    }

    const FIG1: &str = "<Root><A><B><D/><D/><E/></B></A>\
                        <A><B><D/></B><C><E/></C><B><D/></B></A>\
                        <A><C><E/><F/></C></A></Root>";

    #[test]
    fn interner_is_handle_identical_to_dom() {
        for input in [
            FIG1,
            "<only/>",
            "<a><b/><b/><b/></a>",
            "<a><b><a><b/></a></b></a>",
        ] {
            let (dom, stream, _) = run_both(input);
            assert_eq!(dom.interner.len(), stream.interner.len(), "{input}");
            for (pid, bits) in dom.interner.iter() {
                assert_eq!(
                    stream.interner.bits(pid),
                    bits,
                    "pid {pid:?} diverged on {input}"
                );
            }
        }
    }

    #[test]
    fn retired_elements_match_dom_node_pids() {
        let (dom, stream, rec) = run_both(FIG1);
        let doc = parse_document(FIG1).unwrap();
        // Each retired (tag, temp pid, pre) must equal the DOM labeling of
        // the pre-th node after remapping.
        assert_eq!(rec.elements.len(), doc.len());
        for (tag, temp, pre) in rec.elements {
            let node = xpe_xml::NodeId::from_index(pre as usize);
            assert_eq!(doc.tag(node), tag);
            assert_eq!(stream.resolve(temp), dom.pid(node));
        }
    }

    #[test]
    fn sibling_events_match_dom_order_scan() {
        // Mixed same-tag runs, interleavings, single children, text
        // between siblings.
        for input in [
            FIG1,
            "<r><y/><x/><y/></r>",
            "<r><x/><x/><x/></r>",
            "<r><a><b/></a></r>",
            "<r>t<x/> <y/>u<x/></r>",
            // Groups that grow again after other tags arrived, with two
            // pids per tag and runs of one group.
            "<r><x/><y/><x><z/></x><y/><x/><x/><z/><x><z/></x><y/><y><q/></y><x/></r>",
            "<r><a><b/><c/><b/></a><c/><a><c/></a><a><b/><c/><b/></a><c/><c/></r>",
        ] {
            let doc = parse_document(input).unwrap();
            let dom = Labeling::compute(&doc);
            let (_, stream, rec) = run_both(input);

            // Reference: the DOM first/last scan over every parent.
            let mut expect_after: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            let mut expect_before: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            for parent in doc.node_ids() {
                let children = doc.children(parent);
                if children.len() < 2 {
                    continue;
                }
                for (k, &c) in children.iter().enumerate() {
                    let tags_after: std::collections::HashSet<TagId> =
                        children[k + 1..].iter().map(|&s| doc.tag(s)).collect();
                    let tags_before: std::collections::HashSet<TagId> =
                        children[..k].iter().map(|&s| doc.tag(s)).collect();
                    for y in tags_after {
                        *expect_before
                            .entry((doc.tag(c), dom.pid(c), y))
                            .or_insert(0) += 1;
                    }
                    for y in tags_before {
                        *expect_after.entry((doc.tag(c), dom.pid(c), y)).or_insert(0) += 1;
                    }
                }
            }

            let mut got_after: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            for (x, p, y, n) in &rec.after {
                *got_after.entry((*x, stream.resolve(*p), *y)).or_insert(0) += n;
            }
            let mut got_before: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            for (x, p, y, n) in &rec.before {
                *got_before.entry((*x, stream.resolve(*p), *y)).or_insert(0) += n;
            }
            assert_eq!(got_after, expect_after, "after diverged on {input}");
            assert_eq!(got_before, expect_before, "before diverged on {input}");
        }
    }
}
