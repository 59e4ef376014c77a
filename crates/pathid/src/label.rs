//! Assigning path ids to every element of a document (paper §2).
//!
//! Two passes over the elements in id order (document pre-order):
//!
//! 1. Walk the *path trie* — the set of distinct root-to-node label paths,
//!    i.e. the path summary of Arion et al. — one map probe per element:
//!    an element's trie node is its parent's trie node extended by its
//!    tag. Trie nodes are dense handles assigned by first occurrence, so
//!    the map uses [`HandleMap`]. The first leaf to reach a trie node
//!    interns that node's label path into the [`EncodingTable`], so
//!    encodings stay in first-encounter document order and the table
//!    hashes each distinct path once, not once per leaf.
//! 2. Bottom-up, give each leaf the single-bit id of its path and each
//!    internal node the OR of its children's ids, in one flat word arena;
//!    then intern every id in pre-order. A leaf's id depends only on its
//!    encoding, so leaves are answered from a table indexed by encoding
//!    after the first leaf of each path.

use xpe_xml::{Document, NodeId, TagId};

use crate::bits::PathIdBits;
use crate::encoding::{EncodingTable, PathEncoding};
use crate::handle::HandleMap;
use crate::interner::{Pid, PidInterner};

/// The distinct root-to-node label paths seen so far — the path summary
/// of Arion et al. — as a trie with dense node handles assigned by first
/// occurrence: a node's child for a tag is one [`HandleMap`] probe. Each
/// node records its path's encoding once a leaf has ended there, so the
/// [`EncodingTable`] hashes a label path once per distinct path, not
/// once per leaf. The DOM labeler and both streaming passes walk it.
#[derive(Debug, Default)]
pub(crate) struct PathTrie {
    /// `(parent node, tag)` → child node; roots hang off [`Self::ROOT`].
    child: HandleMap<(u32, TagId), u32>,
    /// Per node: its encoding once a leaf has ended there, else 0.
    pub(crate) encoding: Vec<PathEncoding>,
}

impl PathTrie {
    /// The parent handle of a document's root element.
    pub(crate) const ROOT: u32 = u32::MAX;

    /// The node for `tag` under `parent`, created on first sight.
    #[inline]
    pub(crate) fn step(&mut self, parent: u32, tag: TagId) -> u32 {
        let next = self.encoding.len() as u32;
        let node = *self.child.entry((parent, tag)).or_insert(next);
        if node == next {
            self.encoding.push(0);
        }
        node
    }
}

/// The complete path-id labeling of one document.
#[derive(Clone, Debug)]
pub struct Labeling {
    /// Distinct root-to-leaf paths and their encodings.
    pub encoding: EncodingTable,
    /// Distinct path ids.
    pub interner: PidInterner,
    /// `node_pids[node.index()]` is the path id of each element.
    pub node_pids: Vec<Pid>,
}

impl Labeling {
    /// Labels `doc` (paper Figure 1).
    pub fn compute(doc: &Document) -> Self {
        let n = doc.len();
        let is_leaf = |i: usize| doc.children(NodeId::from_index(i)).is_empty();

        // Pass 1: each element's trie node, and each trie node's encoding
        // once a leaf has reached it.
        let mut trie = PathTrie::default();
        let mut node_trie: Vec<u32> = Vec::with_capacity(n);
        let mut encoding = EncodingTable::new();
        for id in doc.node_ids() {
            let parent = doc
                .parent(id)
                .map_or(PathTrie::ROOT, |p| node_trie[p.index()]);
            let t = trie.step(parent, doc.tag(id));
            node_trie.push(t);
            if trie.encoding[t as usize] == 0 && is_leaf(id.index()) {
                trie.encoding[t as usize] = encoding.intern(&doc.root_path(id));
            }
        }
        let leaf_encoding = |i: usize| trie.encoding[node_trie[i] as usize];

        // Pass 2: bottom-up OR into one flat arena of `words` words per
        // node. Node ids are pre-order, so a reverse scan sees every child
        // before its parent, and a parent's slice lies before its child's.
        let width = encoding.len() as u32;
        let words = width.div_ceil(64) as usize;
        let mut arena = vec![0u64; n * words];
        for i in (0..n).rev() {
            let (head, tail) = arena.split_at_mut(i * words);
            let own = &mut tail[..words];
            if is_leaf(i) {
                PathIdBits::set_in(own, leaf_encoding(i));
            }
            if let Some(p) = doc.parent(NodeId::from_index(i)) {
                let parent = &mut head[p.index() * words..(p.index() + 1) * words];
                crate::words::or_assign(parent, own);
            }
        }
        // Intern in pre-order, so handles number ids by first occurrence.
        // The first leaf of each path interns its row (which may find the
        // id already interned by an ancestor); later leaves of that path
        // read the table.
        let mut interner = PidInterner::new(width);
        let mut leaf_pid: Vec<Option<Pid>> = vec![None; width as usize + 1];
        let node_pids: Vec<Pid> = (0..n)
            .map(|i| {
                let row = &arena[i * words..(i + 1) * words];
                if is_leaf(i) {
                    *leaf_pid[leaf_encoding(i) as usize]
                        .get_or_insert_with(|| interner.intern_words(row))
                } else {
                    interner.intern_words(row)
                }
            })
            .collect();

        Labeling {
            encoding,
            interner,
            node_pids,
        }
    }

    /// The path id of an element.
    #[inline]
    pub fn pid(&self, node: NodeId) -> Pid {
        self.node_pids[node.index()]
    }

    /// Whether a pair of (pid, tag) annotations can stand in the given
    /// relationship: `u`'s id must contain (or equal) `v`'s, and the tags
    /// must relate accordingly on at least one shared root-to-leaf path
    /// (paper §2, Cases 1 and 2 — the test the path join applies per edge).
    pub fn axis_compatible(
        &self,
        pid_u: Pid,
        tag_u: TagId,
        pid_v: Pid,
        tag_v: TagId,
        child_axis: bool,
    ) -> bool {
        crate::rel::axis_compatible(
            &self.encoding,
            &self.interner,
            pid_u,
            tag_u,
            pid_v,
            tag_v,
            child_axis,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xml::parse;

    fn fig1() -> Document {
        xpe_xml::fixtures::paper_figure1()
    }

    /// Collects the pid bit string of every element with `tag`.
    fn pids_of(doc: &Document, lab: &Labeling, tag: &str) -> Vec<String> {
        doc.node_ids()
            .filter(|&n| doc.tag_name(n) == tag)
            .map(|n| lab.interner.bits(lab.pid(n)).to_string())
            .collect()
    }

    #[test]
    fn figure1_encodings_match_paper() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        assert_eq!(lab.encoding.len(), 4);
        let tags = doc.tags();
        let (root, a, b, c, d, e, f) = (
            tags.get("Root").unwrap(),
            tags.get("A").unwrap(),
            tags.get("B").unwrap(),
            tags.get("C").unwrap(),
            tags.get("D").unwrap(),
            tags.get("E").unwrap(),
            tags.get("F").unwrap(),
        );
        // First-encounter document order reproduces the paper's Figure 1(b)
        // exactly: 1 = Root/A/B/D, 2 = Root/A/B/E, 3 = Root/A/C/E,
        // 4 = Root/A/C/F.
        assert_eq!(lab.encoding.encoding_of(&[root, a, b, d]), Some(1));
        assert_eq!(lab.encoding.encoding_of(&[root, a, b, e]), Some(2));
        assert_eq!(lab.encoding.encoding_of(&[root, a, c, e]), Some(3));
        assert_eq!(lab.encoding.encoding_of(&[root, a, c, f]), Some(4));
        let _ = (e, f);
    }

    #[test]
    fn figure1_pid_structure_matches_paper() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        // 9 distinct pids, as in Figure 1(c).
        assert_eq!(lab.interner.len(), 9);
        // Pid width = 4 distinct paths.
        assert_eq!(lab.interner.width(), 4);
        // Root's pid is all ones (it covers every path).
        let root_bits = lab.interner.bits(lab.pid(doc.root()));
        assert_eq!(root_bits.to_string(), "1111");
        // Every D has a single-bit pid on the B/D path; all Ds share it.
        let d_pids = pids_of(&doc, &lab, "D");
        assert_eq!(d_pids.len(), 4);
        assert!(d_pids.iter().all(|p| p == &d_pids[0]));
        assert_eq!(d_pids[0].matches('1').count(), 1);
        // The three As have three distinct pids (paper: p6, p7, p8).
        let mut a_pids = pids_of(&doc, &lab, "A");
        a_pids.sort();
        a_pids.dedup();
        assert_eq!(a_pids.len(), 3);
        // The two Cs have two distinct pids (p2 and p3).
        let mut c_pids = pids_of(&doc, &lab, "C");
        c_pids.sort();
        c_pids.dedup();
        assert_eq!(c_pids.len(), 2);
    }

    #[test]
    fn parent_pid_contains_or_equals_child_pid() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        for n in doc.node_ids() {
            if let Some(p) = doc.parent(n) {
                assert!(
                    lab.interner.contains_or_equal(lab.pid(p), lab.pid(n)),
                    "parent pid must cover child pid"
                );
            }
        }
    }

    #[test]
    fn axis_compatible_matches_paper_examples() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        let tags = doc.tags();
        let (a, b, c, e) = (
            tags.get("A").unwrap(),
            tags.get("B").unwrap(),
            tags.get("C").unwrap(),
            tags.get("E").unwrap(),
        );
        // Example 2.3: C with p3 contains E with p2; C is parent of E.
        let c_nodes: Vec<NodeId> = doc.node_ids().filter(|&n| doc.tag(n) == c).collect();
        let e_under_c = doc.children(c_nodes[0])[0];
        assert_eq!(doc.tag(e_under_c), e);
        assert!(lab.axis_compatible(lab.pid(c_nodes[0]), c, lab.pid(e_under_c), e, true));
        assert!(lab.axis_compatible(lab.pid(c_nodes[0]), c, lab.pid(e_under_c), e, false));
        // Example 2.2: A and B with the same pid (second A subtree): A is
        // parent of B.
        let second_a = doc.children(doc.root())[1];
        let b_under = doc.children(second_a)[0];
        assert_eq!(doc.tag(b_under), b);
        // Reverse direction never holds.
        assert!(!lab.axis_compatible(lab.pid(b_under), b, lab.pid(second_a), a, false));
    }

    #[test]
    fn single_node_document() {
        let doc = parse("<only/>").unwrap();
        let lab = Labeling::compute(&doc);
        assert_eq!(lab.encoding.len(), 1);
        assert_eq!(lab.interner.len(), 1);
        assert_eq!(lab.interner.bits(lab.pid(doc.root())).to_string(), "1");
    }

    #[test]
    fn leaf_pid_has_exactly_one_bit() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        for n in doc.node_ids() {
            if doc.children(n).is_empty() {
                assert_eq!(lab.interner.bits(lab.pid(n)).count_ones(), 1);
            }
        }
    }
}
