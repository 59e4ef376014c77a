//! Arena-backed ordered element tree.

use std::fmt;

use crate::tag::{TagId, TagInterner};

/// Index of a node in a [`Document`] arena.
///
/// `NodeId`s are dense: the root is always id 0 and ids are assigned in the
/// order nodes are created, which for both [`TreeBuilder`] and the parser is
/// *document order* (pre-order). Several downstream components rely on this
/// invariant; it holds because a freshly created node is appended after
/// every node created before it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns this id as a dense `usize` index into the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

/// One element node of a [`Document`]: its tag and its parent link.
///
/// Children and character data live in the document's flat arrays and are
/// read through [`Document::children`] and [`Document::text`], so a node
/// owns no heap memory.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Interned tag of this element.
    pub tag: TagId,
    /// Parent element, `None` for the document root.
    pub parent: Option<NodeId>,
}

/// Errors raised by [`TreeBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// `end_element` was called with no element open.
    UnbalancedEnd,
    /// `finish` was called while elements were still open.
    UnclosedElements(usize),
    /// A second root element was started after the first was closed.
    MultipleRoots,
    /// `finish` was called before any element was started.
    EmptyDocument,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnbalancedEnd => write!(f, "end_element without matching begin_element"),
            TreeError::UnclosedElements(n) => write!(f, "{n} element(s) left open at finish"),
            TreeError::MultipleRoots => write!(f, "document may contain only one root element"),
            TreeError::EmptyDocument => write!(f, "document contains no elements"),
        }
    }
}

impl std::error::Error for TreeError {}

/// An ordered tree of element nodes with interned tags.
///
/// The layout is flat: one `Vec<Node>` of `(tag, parent)` pairs indexed by
/// [`NodeId`], the child lists as one CSR pair (`child_start`/`child_ids`),
/// and all character data in one `String` with per-node offsets
/// (`text_start`). No element owns a heap allocation, so building a
/// document costs amortised vector growth only, and statistic collection
/// over documents with hundreds of thousands of elements (the paper's DBLP
/// snapshot has 1.7M) is a linear scan.
#[derive(Clone, Debug)]
pub struct Document {
    nodes: Vec<Node>,
    /// `child_ids[child_start[i]..child_start[i + 1]]` are node `i`'s
    /// children in document order (`n + 1` entries).
    child_start: Vec<u32>,
    child_ids: Vec<NodeId>,
    /// `text[text_start[i]..text_start[i + 1]]` is node `i`'s character
    /// data (`n + 1` entries).
    text: String,
    text_start: Vec<usize>,
    tags: TagInterner,
}

impl Document {
    /// The root element. Every non-empty document has one.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of element nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document has no elements. Documents produced by
    /// [`TreeBuilder::finish`] or the parser are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Tag of `id`.
    #[inline]
    pub fn tag(&self, id: NodeId) -> TagId {
        self.nodes[id.index()].tag
    }

    /// Tag name of `id`.
    #[inline]
    pub fn tag_name(&self, id: NodeId) -> &str {
        self.tags.name(self.tag(id))
    }

    /// Parent of `id` (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Children of `id` in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.child_ids[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Concatenated character data directly inside `id`, in document
    /// order. Text nodes are not modelled as tree nodes — the estimation
    /// system only summarises element structure — but the content is kept
    /// so that parse→serialize round-trips.
    #[inline]
    pub fn text(&self, id: NodeId) -> &str {
        let i = id.index();
        &self.text[self.text_start[i]..self.text_start[i + 1]]
    }

    /// The tag interner for this document.
    #[inline]
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// Iterates over all node ids in document (pre-)order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Depth of `id`: the root has depth 0.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// True when `anc` is a proper ancestor of `desc`.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = self.parent(desc);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// The sequence of tag ids on the path from the root down to `id`
    /// (inclusive).
    pub fn root_path(&self, id: NodeId) -> Vec<TagId> {
        let mut path = Vec::with_capacity(self.depth(id) + 1);
        let mut cur = Some(id);
        while let Some(n) = cur {
            path.push(self.tag(n));
            cur = self.parent(n);
        }
        path.reverse();
        path
    }
}

/// Incremental, event-style constructor for [`Document`].
///
/// Drive it with `begin_element` / `text` / `end_element` in document order;
/// the parser and every dataset generator are built on top of it. Nodes are
/// appended as `(tag, parent)` pairs and character data to one text arena.
/// Each node's text starts where the arena stood when the node opened, so
/// a document whose elements finish their text before their first child
/// opens needs no per-text bookkeeping at all; text that resumes after a
/// child (mixed content) is recorded as a late piece, and
/// [`finish`](Self::finish) regroups the arena per node only then.
///
/// # Example
///
/// ```
/// use xpe_xml::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// b.begin_element("Play");
/// b.begin_element("Act");
/// b.end_element().unwrap();
/// b.end_element().unwrap();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.len(), 2);
/// assert_eq!(doc.tag_name(doc.root()), "Play");
/// ```
#[derive(Default)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
    tags: TagInterner,
    stack: Vec<NodeId>,
    /// Character data in arrival order.
    text: String,
    /// `text_start[i]`: the arena's length when node `i` opened, where
    /// node `i`'s own text region begins.
    text_start: Vec<usize>,
    /// The node the arena's tail belongs to: the newest node, or the node
    /// of the newest late piece.
    tail_owner: Option<NodeId>,
    /// `(node, start)` of text that arrived for `node` after another node
    /// opened; it runs to the next region or piece start (or the end).
    late: Vec<(NodeId, usize)>,
    root_closed: bool,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new element with the given tag name as a child of the
    /// currently open element (or as the root), and returns its id.
    ///
    /// Starting a second root after the first was closed is detected at
    /// [`finish`](Self::finish) time via [`TreeError::MultipleRoots`]; we
    /// record the violation here so event producers need not track it.
    #[inline]
    pub fn begin_element(&mut self, tag: &str) -> NodeId {
        let tag = self.tags.intern(tag);
        self.begin_element_id(tag)
    }

    /// Like [`begin_element`](Self::begin_element) but with an already
    /// interned tag (the interner is exposed via [`tags_mut`](Self::tags_mut)).
    #[inline]
    pub fn begin_element_id(&mut self, tag: TagId) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        let parent = self.stack.last().copied();
        if parent.is_none() && !self.nodes.is_empty() {
            self.root_closed = true; // will surface as MultipleRoots
        }
        self.nodes.push(Node { tag, parent });
        self.text_start.push(self.text.len());
        self.tail_owner = Some(id);
        self.stack.push(id);
        id
    }

    /// Appends character data to the currently open element. Text outside
    /// any element is ignored (whitespace between a prolog and the root).
    #[inline]
    pub fn text(&mut self, data: &str) {
        let Some(&cur) = self.stack.last() else {
            return;
        };
        if data.is_empty() {
            return;
        }
        if self.tail_owner != Some(cur) {
            self.late.push((cur, self.text.len()));
            self.tail_owner = Some(cur);
        }
        self.text.push_str(data);
    }

    /// Closes the most recently opened element.
    #[inline]
    pub fn end_element(&mut self) -> Result<(), TreeError> {
        self.stack.pop().map(|_| ()).ok_or(TreeError::UnbalancedEnd)
    }

    /// Mutable access to the tag interner, for callers that want to
    /// pre-intern a vocabulary (the dataset generators do).
    pub fn tags_mut(&mut self) -> &mut TagInterner {
        &mut self.tags
    }

    /// Finalises the builder into a [`Document`].
    pub fn finish(mut self) -> Result<Document, TreeError> {
        if !self.stack.is_empty() {
            return Err(TreeError::UnclosedElements(self.stack.len()));
        }
        if self.root_closed {
            return Err(TreeError::MultipleRoots);
        }
        if self.nodes.is_empty() {
            return Err(TreeError::EmptyDocument);
        }
        let (child_start, child_ids) = child_lists(&self.nodes);
        self.text_start.push(self.text.len());
        let (text, text_start) = if self.late.is_empty() {
            (self.text, self.text_start)
        } else {
            group_text(self.text, &self.text_start, &self.late)
        };
        Ok(Document {
            nodes: self.nodes,
            child_start,
            child_ids,
            text,
            text_start,
            tags: self.tags,
        })
    }
}

/// The CSR child lists of `nodes`, from one counting pass over the parent
/// links. `child_start[p]` first holds the number of children of nodes
/// `0..=p`; a reverse scan then places each child just below its parent's
/// running end, which leaves `child_start[p]` at the start of `p`'s list
/// and, because ids are pre-order, the children in document order.
fn child_lists(nodes: &[Node]) -> (Vec<u32>, Vec<NodeId>) {
    let n = nodes.len();
    let mut start = vec![0u32; n + 1];
    for node in nodes {
        if let Some(p) = node.parent {
            start[p.index()] += 1;
        }
    }
    let mut total = 0u32;
    for s in &mut start {
        total += *s;
        *s = total;
    }
    let mut ids = vec![NodeId(0); total as usize];
    for (i, node) in nodes.iter().enumerate().rev() {
        if let Some(p) = node.parent {
            let slot = &mut start[p.index()];
            *slot -= 1;
            ids[*slot as usize] = NodeId(i as u32);
        }
    }
    (start, ids)
}

/// Regroups a text arena holding late pieces so each node's character
/// data is contiguous and nodes follow in id order, returning the text
/// and its `n + 1` per-node offsets. The arena is a sequence of runs in
/// arrival order: node `i`'s region from `regions[i]` (`regions` has
/// `n + 1` entries, the last being the arena's length) and each late
/// piece, every run ending where the next one starts. A late piece
/// never starts at the same offset as a later node's region (a piece is
/// non-empty), so at equal offsets the region comes first.
fn group_text(text: String, regions: &[usize], late: &[(NodeId, usize)]) -> (String, Vec<usize>) {
    let n = regions.len() - 1;
    let mut runs: Vec<(NodeId, usize)> = Vec::with_capacity(n + late.len());
    let mut late_iter = late.iter().peekable();
    for (i, &start) in regions[..n].iter().enumerate() {
        while let Some(&&piece) = late_iter.peek().filter(|&&&(_, s)| s < start) {
            runs.push(piece);
            late_iter.next();
        }
        runs.push((NodeId(i as u32), start));
    }
    runs.extend(late_iter);
    let run_end = |k: usize| runs.get(k + 1).map_or(text.len(), |&(_, s)| s);
    // `start[i + 1]` accumulates node `i`'s byte count.
    let mut start = vec![0usize; n + 1];
    for (k, &(node, s)) in runs.iter().enumerate() {
        start[node.index() + 1] += run_end(k) - s;
    }
    for i in 1..=n {
        start[i] += start[i - 1];
    }
    let mut bytes = vec![0u8; text.len()];
    let mut fill = start.clone();
    for (k, &(node, s)) in runs.iter().enumerate() {
        let run = &text.as_bytes()[s..run_end(k)];
        let at = &mut fill[node.index()];
        bytes[*at..*at + run.len()].copy_from_slice(run);
        *at += run.len();
    }
    let text = String::from_utf8(bytes).expect("every run is a whole UTF-8 string");
    (text, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_figure1() -> Document {
        // The running example of the paper (Figure 1a).
        let mut b = TreeBuilder::new();
        b.begin_element("Root");
        {
            b.begin_element("A"); // A(p8)
            b.begin_element("B");
            b.begin_element("D");
            b.end_element().unwrap();
            b.end_element().unwrap();
            b.begin_element("C");
            b.begin_element("E");
            b.end_element().unwrap();
            b.begin_element("F");
            b.end_element().unwrap();
            b.end_element().unwrap();
            b.end_element().unwrap();
        }
        {
            b.begin_element("A"); // A(p7)
            b.begin_element("B");
            b.begin_element("D");
            b.end_element().unwrap();
            b.begin_element("E");
            b.end_element().unwrap();
            b.end_element().unwrap();
            b.begin_element("C");
            b.begin_element("E");
            b.end_element().unwrap();
            b.end_element().unwrap();
            b.begin_element("B");
            b.begin_element("D");
            b.end_element().unwrap();
            b.end_element().unwrap();
            b.end_element().unwrap();
        }
        {
            b.begin_element("A"); // A(p6)
            b.begin_element("B");
            b.begin_element("D");
            b.end_element().unwrap();
            b.end_element().unwrap();
            b.end_element().unwrap();
        }
        b.end_element().unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_constructs_figure1() {
        let doc = paper_figure1();
        assert_eq!(doc.tag_name(doc.root()), "Root");
        assert_eq!(doc.children(doc.root()).len(), 3);
        // 1 Root + 3 A + 4 B + 2 C + 4 D + 3 E + 1 F = 18 elements.
        assert_eq!(doc.len(), 18);
    }

    #[test]
    fn depth_and_root_path() {
        let doc = paper_figure1();
        let a = doc.children(doc.root())[0];
        let b = doc.children(a)[0];
        let d = doc.children(b)[0];
        assert_eq!(doc.depth(doc.root()), 0);
        assert_eq!(doc.depth(d), 3);
        let names: Vec<_> = doc
            .root_path(d)
            .into_iter()
            .map(|t| doc.tags().name(t).to_owned())
            .collect();
        assert_eq!(names, ["Root", "A", "B", "D"]);
    }

    #[test]
    fn is_ancestor_basics() {
        let doc = paper_figure1();
        let a = doc.children(doc.root())[0];
        let b = doc.children(a)[0];
        let d = doc.children(b)[0];
        assert!(doc.is_ancestor(doc.root(), d));
        assert!(doc.is_ancestor(a, d));
        assert!(!doc.is_ancestor(d, a));
        assert!(!doc.is_ancestor(a, a), "ancestor is proper");
    }

    #[test]
    fn node_ids_are_preorder() {
        let doc = paper_figure1();
        // Parent id always smaller than child id under pre-order creation.
        for id in doc.node_ids() {
            if let Some(p) = doc.parent(id) {
                assert!(p < id);
            }
        }
    }

    #[test]
    fn unbalanced_end_detected() {
        let mut b = TreeBuilder::new();
        assert_eq!(b.end_element(), Err(TreeError::UnbalancedEnd));
    }

    #[test]
    fn unclosed_detected() {
        let mut b = TreeBuilder::new();
        b.begin_element("a");
        assert!(matches!(b.finish(), Err(TreeError::UnclosedElements(1))));
    }

    #[test]
    fn multiple_roots_detected() {
        let mut b = TreeBuilder::new();
        b.begin_element("a");
        b.end_element().unwrap();
        b.begin_element("b");
        b.end_element().unwrap();
        assert_eq!(b.finish().unwrap_err(), TreeError::MultipleRoots);
    }

    #[test]
    fn empty_document_detected() {
        let b = TreeBuilder::new();
        assert_eq!(b.finish().unwrap_err(), TreeError::EmptyDocument);
    }

    #[test]
    fn text_accumulates() {
        let mut b = TreeBuilder::new();
        b.begin_element("p");
        b.text("hello ");
        b.text("world");
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        assert_eq!(doc.text(doc.root()), "hello world");
    }

    #[test]
    fn mixed_content_is_regrouped_per_node() {
        let doc = crate::parse("<a>x<b>y</b>z<c>w</c>v</a>").unwrap();
        let a = doc.root();
        let (b, c) = (doc.children(a)[0], doc.children(a)[1]);
        assert_eq!(doc.text(a), "xzv");
        assert_eq!(doc.text(b), "y");
        assert_eq!(doc.text(c), "w");
        assert_eq!(doc.children(b), &[][..]);
        assert_eq!(doc.node(c).parent, Some(a));
    }

    #[test]
    fn late_text_runs_split_by_entities_and_empty_children_regroup() {
        let doc = crate::parse("<a>x<b>y<d/>&lt;</b>z&amp;w<c/>v<e>u</e></a>").unwrap();
        let text: Vec<&str> = doc.node_ids().map(|id| doc.text(id)).collect();
        assert_eq!(text, ["xz&wv", "y<", "", "", "u"]);
        // Text that only arrives after an empty first child.
        let doc = crate::parse("<a><b/>late</a>").unwrap();
        assert_eq!(doc.text(doc.root()), "late");
        assert_eq!(doc.text(doc.children(doc.root())[0]), "");
    }

    #[test]
    fn child_lists_follow_document_order() {
        let doc = paper_figure1();
        let mut seen = 0;
        for id in doc.node_ids() {
            let kids = doc.children(id);
            assert!(kids.windows(2).all(|w| w[0] < w[1]));
            for &k in kids {
                assert_eq!(doc.parent(k), Some(id));
            }
            seen += kids.len();
        }
        assert_eq!(seen, doc.len() - 1, "every non-root node is listed once");
    }
}
