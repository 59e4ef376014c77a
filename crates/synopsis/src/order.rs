//! The path-order table (paper §3, Figure 2(b)).
//!
//! For each element tag `X`, the table records — per path id of `X` and per
//! sibling tag `Y` — how many `X` elements occur *before* some `Y` sibling
//! (the paper's `+element` region) and how many occur *after* some `Y`
//! sibling (the `element+` region). An `X` element with `Y` siblings on
//! both sides is counted in both regions (paper §3, final remark).

use xpe_pathid::{HandleMap, Labeling, Pid};
use xpe_xml::{Document, TagId};

/// Before/after counts of one `(pid, sibling tag)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderCell {
    /// Number of `X` elements with this pid occurring before a `Y` sibling
    /// (`+element` region).
    pub before: u64,
    /// Number occurring after a `Y` sibling (`element+` region).
    pub after: u64,
}

/// The sparse cells of one tag `X`, keyed by `(pid of X, sibling tag)`.
pub type OrderRow = HandleMap<(Pid, TagId), OrderCell>;

/// Dense cells [`OrderCells`] holds before folding them into the sparse
/// rows: 16 Ki cells (256 KiB), or one row when a row is wider. On XMark
/// at scale 0.1 (77 tags) a 64 Ki buffer saved no time and a 4 Ki one
/// cost half again; the buffer is also a floor under the streaming
/// build's peak heap.
const DENSE_CELLS: usize = 1 << 14;

/// Order cells under construction, dense per `(tag, pid)` group: one map
/// probe finds a group's row slot, and the row holds one cell per sibling
/// tag, so the per-sibling-tag updates index an array. Both the DOM build
/// and the streaming sink accumulate here.
///
/// Rows are `tag_count` cells wide whatever few sibling tags a group
/// meets, so a document with many tags and many groups would need
/// `groups × tags` cells. The dense rows are therefore a bounded buffer:
/// when the next row would pass [`DENSE_CELLS`], the rows are added into
/// the sparse per-tag rows and the buffer starts over. Memory stays
/// within the buffer plus the nonzero cells.
///
/// The buffer is all zeros except the cells listed in `dirty`, so a new
/// row costs nothing to clear and a fold visits only nonzero cells. A
/// parent whose children cycle through more groups than the buffer
/// holds folds at nearly every child, and each fold then costs what its
/// cells' updates cost, never a scan of `tag_count` cells.
#[derive(Debug)]
pub(crate) struct OrderCells {
    tag_count: usize,
    slot_of: HandleMap<(TagId, Pid), u32>,
    /// The group of each slot.
    groups: Vec<(TagId, Pid)>,
    /// `tag_count` cells per slot, zero outside `dirty`. Keeps its
    /// largest length across folds.
    cells: Vec<OrderCell>,
    /// The index in `cells` of each nonzero cell.
    dirty: Vec<u32>,
    /// The group and slot of the previous [`row`](Self::row) call:
    /// updates arrive in runs per group.
    recent: Option<((TagId, Pid), u32)>,
    /// The nonzero cells folded out of the buffer so far, per tag.
    rows: Vec<OrderRow>,
    /// Cells zeroed by growing the buffer or visited by a fold.
    #[cfg(test)]
    visited: usize,
}

/// The cells of one group, indexed by sibling tag.
pub(crate) struct RowCells<'a> {
    cells: &'a mut [OrderCell],
    /// The index in the buffer of `cells[0]`.
    base: u32,
    dirty: &'a mut Vec<u32>,
}

impl RowCells<'_> {
    /// Adds `before` and `after` to the cell of sibling tag `y`.
    #[inline]
    pub(crate) fn add(&mut self, y: usize, before: u64, after: u64) {
        let cell = &mut self.cells[y];
        if (cell.before | cell.after) == 0 && (before | after) != 0 {
            self.dirty.push(self.base + y as u32);
        }
        cell.before += before;
        cell.after += after;
    }
}

impl OrderCells {
    pub(crate) fn new(tag_count: usize) -> Self {
        OrderCells {
            tag_count,
            slot_of: HandleMap::default(),
            groups: Vec::new(),
            cells: Vec::new(),
            dirty: Vec::new(),
            recent: None,
            rows: vec![OrderRow::default(); tag_count],
            #[cfg(test)]
            visited: 0,
        }
    }

    /// The cells of the group `(x, pid)`.
    #[inline]
    pub(crate) fn row(&mut self, x: TagId, pid: Pid) -> RowCells<'_> {
        let group = (x, pid);
        let slot = match self.recent {
            Some((g, slot)) if g == group => slot,
            _ => {
                let next = self.groups.len() as u32;
                let mut slot = *self.slot_of.entry(group).or_insert(next);
                if slot == next {
                    if next > 0 && (next as usize + 1) * self.tag_count > DENSE_CELLS {
                        self.fold();
                        self.slot_of.insert(group, 0);
                        slot = 0;
                    }
                    self.groups.push(group);
                    let end = (slot as usize + 1) * self.tag_count;
                    if self.cells.len() < end {
                        #[cfg(test)]
                        {
                            self.visited += end - self.cells.len();
                        }
                        self.cells.resize(end, OrderCell::default());
                    }
                }
                self.recent = Some((group, slot));
                slot
            }
        };
        let base = slot as usize * self.tag_count;
        RowCells {
            cells: &mut self.cells[base..][..self.tag_count],
            base: base as u32,
            dirty: &mut self.dirty,
        }
    }

    /// Adds the buffer's nonzero cells into the sparse rows and empties
    /// the buffer.
    fn fold(&mut self) {
        #[cfg(test)]
        {
            self.visited += self.dirty.len();
        }
        for &i in &self.dirty {
            let i = i as usize;
            let (x, pid) = self.groups[i / self.tag_count];
            let cell = std::mem::take(&mut self.cells[i]);
            let sum = self.rows[x.index()]
                .entry((pid, TagId::from_index(i % self.tag_count)))
                .or_default();
            sum.before += cell.before;
            sum.after += cell.after;
        }
        self.dirty.clear();
        self.slot_of.clear();
        self.groups.clear();
        self.recent = None;
    }

    /// The nonzero cells as sparse rows, one per tag.
    pub(crate) fn into_rows(mut self) -> Vec<OrderRow> {
        self.fold();
        self.rows
    }
}

/// Sibling-order statistics for every tag.
#[derive(Clone, Debug)]
pub struct PathOrderTable {
    /// `rows[x_tag.index()]`: the cells of tag `X`.
    rows: Vec<OrderRow>,
}

impl PathOrderTable {
    /// Collects sibling order information in one pass over all parents:
    /// each child finds its `(tag, pid)` group's dense row of cells with
    /// one map probe and adds to it once per sibling tag of its parent.
    pub fn build(doc: &Document, labeling: &Labeling) -> Self {
        PathOrderTable {
            rows: collect(doc, labeling).into_rows(),
        }
    }

    /// Assembles a table from already-aggregated rows, one per tag in
    /// `TagId` index order. Cell iteration order is irrelevant downstream
    /// (the o-histogram lays cells out positionally by the p-histogram's
    /// pid order), so only the contents must match what
    /// [`build`](Self::build) computes — which is how the streaming ingest
    /// path can aggregate cells at element close events.
    pub fn from_rows(rows: Vec<OrderRow>) -> Self {
        PathOrderTable { rows }
    }

    /// The cell for `X` elements with `pid` relative to sibling tag `y`.
    pub fn cell(&self, x: TagId, pid: Pid, y: TagId) -> OrderCell {
        self.rows
            .get(x.index())
            .and_then(|r| r.get(&(pid, y)))
            .copied()
            .unwrap_or_default()
    }

    /// Number of `X` elements with `pid` occurring before a `y` sibling.
    pub fn before_count(&self, x: TagId, pid: Pid, y: TagId) -> u64 {
        self.cell(x, pid, y).before
    }

    /// Number of `X` elements with `pid` occurring after a `y` sibling.
    pub fn after_count(&self, x: TagId, pid: Pid, y: TagId) -> u64 {
        self.cell(x, pid, y).after
    }

    /// All non-empty cells of tag `x`, unordered.
    pub fn cells_of(&self, x: TagId) -> impl Iterator<Item = (Pid, TagId, OrderCell)> + '_ {
        self.rows
            .get(x.index())
            .into_iter()
            .flat_map(|r| r.iter().map(|(&(p, y), &c)| (p, y, c)))
    }

    /// Number of tags (row groups).
    pub fn tag_count(&self) -> usize {
        self.rows.len()
    }

    /// Total number of non-empty `(tag, pid, sibling-tag)` cells, counting
    /// the two regions separately as the paper's grid does.
    pub fn nonzero_cells(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.values())
            .map(|c| usize::from(c.before > 0) + usize::from(c.after > 0))
            .sum()
    }
}

/// The order cells of every child with siblings, for
/// [`PathOrderTable::build`].
fn collect(doc: &Document, labeling: &Labeling) -> OrderCells {
    let tag_count = doc.tags().len();
    // Scratch: first/last sibling position per tag, reset per parent.
    let mut first = vec![usize::MAX; tag_count];
    let mut last = vec![usize::MAX; tag_count];
    let mut touched: Vec<usize> = Vec::new();
    let mut cells = OrderCells::new(tag_count);

    for parent in doc.node_ids() {
        let children = doc.children(parent);
        if children.len() < 2 {
            continue;
        }
        for (k, &c) in children.iter().enumerate() {
            let t = doc.tag(c).index();
            if first[t] == usize::MAX {
                first[t] = k;
                touched.push(t);
            }
            last[t] = k;
        }
        for (k, &c) in children.iter().enumerate() {
            let mut row = cells.row(doc.tag(c), labeling.pid(c));
            for &y in &touched {
                // `c` occurs before / after some Y sibling?
                row.add(y, u64::from(last[y] > k), u64::from(first[y] < k));
            }
        }
        for &t in &touched {
            first[t] = usize::MAX;
            last[t] = usize::MAX;
        }
        touched.clear();
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2b_path_order_for_b() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let tags = doc.tags();
        let (b, c) = (tags.get("B").unwrap(), tags.get("C").unwrap());

        // p5 = 1000: the pid of the three plain B elements.
        let p5 = lab
            .interner
            .iter()
            .find(|(_, bits)| bits.to_string() == "1000")
            .map(|(p, _)| p)
            .unwrap();

        // Paper Example 3.2: one B(p5) before C, two B(p5) after C.
        assert_eq!(table.before_count(b, p5, c), 1);
        assert_eq!(table.after_count(b, p5, c), 2);

        // Symmetric view from C: one C before a B, two C after B? The
        // middle A has B,C,B (C both before and after a B); the last A has
        // C,B (C before B). So: C before B = 2, C after B = 1.
        let c_pids: Vec<Pid> = lab
            .interner
            .iter()
            .filter(|(_, bits)| {
                let s = bits.to_string();
                s == "0010" || s == "0011"
            })
            .map(|(p, _)| p)
            .collect();
        let before: u64 = c_pids.iter().map(|&p| table.before_count(c, p, b)).sum();
        let after: u64 = c_pids.iter().map(|&p| table.after_count(c, p, b)).sum();
        assert_eq!(before, 2);
        assert_eq!(after, 1);
    }

    #[test]
    fn both_sides_counted_twice() {
        // x between two ys: counted in both regions relative to y.
        let doc = xpe_xml::parse_document("<r><y/><x/><y/></r>").unwrap();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let tags = doc.tags();
        let (x, y) = (tags.get("x").unwrap(), tags.get("y").unwrap());
        let pid = lab.pid(doc.children(doc.root())[1]);
        assert_eq!(table.before_count(x, pid, y), 1);
        assert_eq!(table.after_count(x, pid, y), 1);
    }

    #[test]
    fn same_tag_siblings_count() {
        let doc = xpe_xml::parse_document("<r><x/><x/><x/></r>").unwrap();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let x = doc.tags().get("x").unwrap();
        let pid = lab.pid(doc.children(doc.root())[0]);
        // Two x's have an x after them; two have an x before them.
        assert_eq!(table.before_count(x, pid, x), 2);
        assert_eq!(table.after_count(x, pid, x), 2);
    }

    #[test]
    fn only_children_contribute_nothing() {
        let doc = xpe_xml::parse_document("<r><a><b/></a></r>").unwrap();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        assert_eq!(table.nonzero_cells(), 0);
    }

    type Cells = std::collections::HashMap<(TagId, Pid, TagId), OrderCell>;

    /// The nonzero cells by definition, sibling pair by sibling pair: an
    /// `X` child counts in `(pid, Y).before` when some later sibling is a
    /// `Y`, and in `.after` when some earlier one is.
    fn by_definition(doc: &Document, lab: &Labeling) -> Cells {
        let mut expect = Cells::new();
        for parent in doc.node_ids() {
            let children = doc.children(parent);
            for (k, &c) in children.iter().enumerate() {
                let mut seen = std::collections::HashSet::new();
                for &s in children {
                    let y = doc.tag(s);
                    if !seen.insert(y) {
                        continue;
                    }
                    let cell = expect.entry((doc.tag(c), lab.pid(c), y)).or_default();
                    let first_y = children.iter().position(|&o| doc.tag(o) == y).unwrap();
                    let last_y = children.iter().rposition(|&o| doc.tag(o) == y).unwrap();
                    cell.after += u64::from(first_y < k);
                    cell.before += u64::from(last_y > k);
                }
            }
        }
        expect.retain(|_, c| c.before > 0 || c.after > 0);
        expect
    }

    fn all_cells(doc: &Document, table: &PathOrderTable) -> Cells {
        doc.tags()
            .iter()
            .flat_map(|(x, _)| table.cells_of(x).map(move |(p, y, c)| ((x, p, y), c)))
            .collect()
    }

    #[test]
    fn matches_the_per_sibling_definition() {
        for input in [
            "<r><y/><x/><y/><x><y/><y/></x><z/><x/></r>",
            "<r><a><b/><c/></a><a><c/><b/><c/></a><b><a/></b><a/><a><b/></a></r>",
            "<r><x/><x/><x/><q><x/></q><x/></r>",
        ] {
            let doc = xpe_xml::parse_document(input).unwrap();
            let lab = Labeling::compute(&doc);
            let table = PathOrderTable::build(&doc, &lab);
            assert_eq!(
                all_cells(&doc, &table),
                by_definition(&doc, &lab),
                "{input}"
            );
        }
    }

    /// Enough tags and groups that the dense rows fold into the sparse
    /// ones several times, with groups that recur after a fold.
    #[test]
    fn folded_dense_rows_match_the_definition() {
        let n = 300;
        let mut xml = String::from("<r>");
        for round in 0..2 {
            for i in 0..n {
                let j = (i * 7 + round) % n;
                xml.push_str(&format!("<w><t{i}/><t{j}><u/></t{j}><t{i}/></w>"));
            }
        }
        xml.push_str("</r>");
        let doc = xpe_xml::parse_document(&xml).unwrap();
        let lab = Labeling::compute(&doc);
        let tags = doc.tags().len();
        let groups: std::collections::HashSet<(TagId, Pid)> = doc
            .node_ids()
            .filter(|&c| doc.parent(c).is_some_and(|p| doc.children(p).len() > 1))
            .map(|c| (doc.tag(c), lab.pid(c)))
            .collect();
        assert!(
            groups.len() * tags > 2 * DENSE_CELLS,
            "{} groups",
            groups.len()
        );
        let table = PathOrderTable::build(&doc, &lab);
        assert_eq!(all_cells(&doc, &table), by_definition(&doc, &lab));
    }

    /// Per-sibling-tag updates the DOM build makes: children × distinct
    /// sibling tags, over every parent with two or more children.
    fn updates(doc: &Document) -> usize {
        doc.node_ids()
            .map(|p| doc.children(p))
            .filter(|children| children.len() > 1)
            .map(|children| {
                let tags: std::collections::HashSet<TagId> =
                    children.iter().map(|&c| doc.tag(c)).collect();
                children.len() * tags.len()
            })
            .sum()
    }

    /// A parent whose children cycle through more groups than the buffer
    /// holds folds at nearly every child. Each fold must cost what its
    /// cells' updates cost, not a scan or clear of `tag_count` cells per
    /// row, so the buffer's work stays within the updates plus one
    /// buffer's worth of zeroing.
    #[test]
    fn wide_parent_cycling_past_the_buffer_stays_linear() {
        let mut xml = String::from("<r>");
        for i in 0..1000 {
            xml.push_str(&format!("<v><t{i}/></v>"));
        }
        xml.push_str("<p>");
        for _ in 0..8 {
            for a in 0..24 {
                xml.push_str(&format!("<a{a}/>"));
            }
        }
        xml.push_str("</p></r>");
        let doc = xpe_xml::parse_document(&xml).unwrap();
        let lab = Labeling::compute(&doc);
        let tags = doc.tags().len();
        assert!(24 * tags > DENSE_CELLS, "{tags} tags");

        let mut cells = collect(&doc, &lab);
        cells.fold();
        assert!(
            cells.visited <= updates(&doc) + DENSE_CELLS,
            "{} cells visited for {} updates",
            cells.visited,
            updates(&doc)
        );
        let table = PathOrderTable {
            rows: cells.into_rows(),
        };
        assert_eq!(all_cells(&doc, &table), by_definition(&doc, &lab));
    }

    /// Rows wider than the buffer: two alternating groups fold at every
    /// switch, and each fold visits only the cells that were added to.
    #[test]
    fn alternating_groups_wider_than_the_buffer() {
        let tag_count = DENSE_CELLS + 100;
        let (a, b) = (TagId::from_index(0), TagId::from_index(1));
        let pid = Pid::from_index(0);
        let rounds = 1000;
        let mut cells = OrderCells::new(tag_count);
        for _ in 0..rounds {
            cells.row(a, pid).add(1, 1, 0);
            cells.row(b, pid).add(0, 0, 1);
            cells.row(b, pid).add(tag_count - 1, 1, 1);
        }
        cells.fold();
        assert!(cells.visited <= 3 * rounds + tag_count, "{}", cells.visited);
        let rows = cells.into_rows();
        let n = rounds as u64;
        assert_eq!(rows[0].len(), 1);
        assert_eq!(
            rows[0][&(pid, b)],
            OrderCell {
                before: n,
                after: 0
            }
        );
        assert_eq!(rows[1].len(), 2);
        assert_eq!(
            rows[1][&(pid, a)],
            OrderCell {
                before: 0,
                after: n
            }
        );
        let last = TagId::from_index(tag_count - 1);
        assert_eq!(
            rows[1][&(pid, last)],
            OrderCell {
                before: n,
                after: n
            }
        );
    }

    #[test]
    fn cells_of_enumerates_sparse_entries() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let b = doc.tags().get("B").unwrap();
        let cells: Vec<_> = table.cells_of(b).collect();
        assert!(!cells.is_empty());
        for (_, _, c) in cells {
            assert!(c.before > 0 || c.after > 0);
        }
    }
}
