//! The path id join (paper §4, Figure 3).
//!
//! Every query node starts with the full `(pid, frequency)` list of its tag
//! from the p-histogram; path ids that cannot satisfy the containment and
//! tag-relationship test along some query edge are removed, iterating to a
//! fixpoint. The surviving frequencies are the `f_Q(n)` values the
//! estimation formulas consume.
//!
//! Two kernels produce that fixpoint (selected by [`JoinKernel`]):
//!
//! * [`path_join`] — the reference kernel: fresh per-edge relation masks
//!   and an iterate-all-edges-until-stable loop, exactly the paper's
//!   Figure 3. No caches, no indexes; the proptests pin the bitmap kernel
//!   against it bit for bit.
//! * [`path_join_bitmap`] — the bit-parallel kernel the estimator runs by
//!   default: each node's surviving set is a pid-index *bitmap*, each
//!   edge resolves to its memoized candidate bitmap (the pids passing the
//!   edge's relation mask), each edge step is a word-parallel semi-join
//!   over the summary's shared [`PidContainmentRelation`] rows with both
//!   sides screened by those candidates, and a **worklist fixpoint**
//!   re-examines only edges whose endpoint sets shrank instead of
//!   sweeping every edge per pass. The final `(pid, f)` lists are rebuilt
//!   from the bitmaps in histogram order.
//!
//! The fixpoint both kernels compute is the *greatest* set of surviving
//! pids closed under every edge constraint. Each pruning step is monotone
//! (it only removes pids, and removing pids can only enable more
//! removals), so the fixpoint is unique regardless of the order edges are
//! examined in — which is what makes the worklist schedule, the relation
//! rows, and the naive scan interchangeable bit for bit: `retain` keeps
//! histogram order, so identical surviving sets sum to identical `f64`s.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use xpe_pathid::{
    axis_compatible_masked, relation_mask, words, JoinIndexCache, JoinIndexReader, Pid,
    PidContainmentRelation,
};
use xpe_synopsis::Summary;
use xpe_xml::TagId;
use xpe_xpath::{Axis, Query, QueryNodeId};

use crate::planner::QueryPlan;
use crate::serve::BudgetState;

/// Which fixpoint kernel an [`Estimator`](crate::Estimator) runs. Both
/// compute the same greatest fixpoint bit for bit (pinned by the
/// diff-harness proptests); they differ only in speed and in how they
/// cooperate with serve budgets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum JoinKernel {
    /// The reference Figure-3 kernel: fresh masks, nested-loop
    /// containment, sweep-all-edges fixpoint. No caches and no budget
    /// cooperation — kept for oracle comparisons and debugging.
    Naive,
    /// Word-parallel semi-join over pid-index bitmaps with a worklist
    /// schedule ([`path_join_bitmap`]); charges serve budgets one edge
    /// per worklist pop.
    #[default]
    Bitmap,
}

impl JoinKernel {
    /// Every kernel, oracle first.
    pub const ALL: [JoinKernel; 2] = [JoinKernel::Naive, JoinKernel::Bitmap];

    /// Parses a CLI-style kernel name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "naive" => Some(JoinKernel::Naive),
            "bitmap" => Some(JoinKernel::Bitmap),
            _ => None,
        }
    }

    /// The CLI-style kernel name.
    pub fn name(self) -> &'static str {
        match self {
            JoinKernel::Naive => "naive",
            JoinKernel::Bitmap => "bitmap",
        }
    }
}

/// Cumulative per-phase wall-clock breakdown of the join kernels, in
/// nanoseconds. Collected only when a [`JoinScratch`] has timing enabled
/// (an `Instant::now` pair per phase is measurable on µs-scale joins, so
/// it is off by default); the bench harness turns it on to report where
/// join time goes. Candidate, seed and relation build time is *not*
/// priced separately: a join that misses the [`JoinIndexCache`] builds
/// inside its screen phase, so a warm breakdown needs a warm cache. The
/// cache times its edge builds with its own counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinPhaseStats {
    /// Building the prepared [`QueryPlan`] — tag-name resolution and edge
    /// flattening. Lapped by the estimator (plans are built outside the
    /// kernels, and skipped entirely on a join-cache hit).
    pub plan_ns: u64,
    /// Seeding the per-node bitmaps (root pinning included) and edge
    /// resolution (candidate-bitmap lookups).
    pub screen_ns: u64,
    /// The worklist fixpoint itself.
    pub fixpoint_ns: u64,
    /// Rebuilding `(pid, frequency)` lists from final bitmaps.
    pub finalize_ns: u64,
}

/// Starts-on-demand phase stopwatch: `None` when timing is disabled, so
/// the kernels pay nothing in the common case.
struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    fn start(enabled: bool) -> Self {
        PhaseTimer(enabled.then(Instant::now))
    }

    /// Adds the time since the last lap to `slot` and restarts.
    fn lap(&mut self, slot: &mut u64) {
        if let Some(t) = self.0 {
            let now = Instant::now();
            *slot += now.duration_since(t).as_nanos() as u64;
            self.0 = Some(now);
        }
    }
}

/// Per-query-node surviving `(pid, estimated frequency)` lists.
#[derive(Clone, Debug)]
pub struct JoinResult {
    /// `lists[q.index()]`: surviving pids of each query node.
    pub lists: Vec<Vec<(Pid, f64)>>,
}

/// Reusable allocations for the bitmap join kernel.
///
/// A join allocates one `(pid, frequency)` vector per query node plus a
/// handful of fixpoint bookkeeping structures; across a workload that is
/// thousands of short-lived allocations doing identical work. The scratch
/// keeps everything alive between joins: callers pass it to the kernels
/// and hand finished [`JoinResult`]s back via [`recycle`](Self::recycle),
/// after which the capacity is reused. Besides the list/bitmap pools it
/// carries the hoisted worklist state — incident lists, queued flags, the
/// worklist deque, per-node bitmap containers and population counts, and
/// the resolved-edge vector — so a warm join performs **zero
/// allocations**.
#[derive(Debug, Default)]
pub struct JoinScratch {
    pool: Vec<Vec<(Pid, f64)>>,
    /// Pooled outer `lists` vectors, so rebuilding a [`JoinResult`] does
    /// not allocate its spine either.
    outer_pool: Vec<Vec<Vec<(Pid, f64)>>>,
    /// Pooled pid-index bitmaps for the bitmap kernel's per-node sets.
    bit_pool: Vec<Vec<u64>>,
    /// The bitmap kernel's union accumulator, reused across edges.
    acc: Vec<u64>,
    /// Hoisted worklist state: per-node incident edge indices.
    incident: Vec<Vec<usize>>,
    /// Hoisted worklist state: per-edge queued flags.
    queued: Vec<bool>,
    /// Hoisted worklist state: the edge worklist itself.
    worklist: VecDeque<usize>,
    /// Hoisted bitmap-kernel state: per-node population counts.
    counts: Vec<usize>,
    /// Hoisted bitmap-kernel state: the per-node bitmap container (the
    /// bitmaps inside recycle through `bit_pool`).
    node_bits: Vec<Vec<u64>>,
    /// Hoisted bitmap-kernel state: the resolved edge vector.
    bit_edges: Vec<BitEdge>,
    /// When set, the kernels accumulate a per-phase wall-clock breakdown
    /// into `phases` (see [`JoinPhaseStats`]).
    timing: bool,
    phases: JoinPhaseStats,
}

impl JoinScratch {
    /// Creates an empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables per-phase timing (off by default).
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// Whether per-phase timing is enabled.
    pub(crate) fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Adds plan-construction time to the phase breakdown (the estimator
    /// laps this — plans are built outside the kernels).
    pub(crate) fn add_plan_ns(&mut self, ns: u64) {
        self.phases.plan_ns += ns;
    }

    /// The accumulated per-phase breakdown (all zero unless timing was
    /// enabled).
    pub fn phase_stats(&self) -> JoinPhaseStats {
        self.phases
    }

    /// Resets the per-phase breakdown to zero.
    pub fn reset_phase_stats(&mut self) {
        self.phases = JoinPhaseStats::default();
    }

    fn take(&mut self) -> Vec<(Pid, f64)> {
        self.pool.pop().unwrap_or_default()
    }

    /// A pooled (empty) outer `lists` vector.
    fn take_outer(&mut self) -> Vec<Vec<(Pid, f64)>> {
        self.outer_pool.pop().unwrap_or_default()
    }

    /// A zeroed pooled bitmap of `words` words.
    fn take_bits(&mut self, words: usize) -> Vec<u64> {
        let mut b = self.bit_pool.pop().unwrap_or_default();
        b.clear();
        b.resize(words, 0);
        b
    }

    fn recycle_bits(&mut self, b: Vec<u64>) {
        self.bit_pool.push(b);
    }

    /// Returns a finished join's vectors — inner lists and the outer
    /// spine — to the pools.
    pub fn recycle(&mut self, join: JoinResult) {
        let mut outer = join.lists;
        self.pool.extend(outer.drain(..).map(|mut v| {
            v.clear();
            v
        }));
        self.outer_pool.push(outer);
    }

    /// Number of pooled vectors (introspection for tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Builds the `(tag, rooted)` seed bitmap: every pid of `tag`'s
/// p-histogram, restricted to depth-0 pids when `rooted`.
fn build_seed_bitmap(summary: &Summary, tag: TagId, rooted: bool, set_words: usize) -> Vec<u64> {
    let mut s = vec![0u64; set_words];
    for &(pid, _) in summary.phist.histogram(tag).entries_slice() {
        if !rooted || summary.root_pids.pid_starts_with(tag, pid) {
            words::set_bit(&mut s, pid.index());
        }
    }
    s
}

impl JoinResult {
    /// `f_Q(n)`: the summed frequency of `n`'s surviving path ids.
    pub fn frequency(&self, n: QueryNodeId) -> f64 {
        self.lists[n.index()].iter().map(|&(_, f)| f).sum()
    }

    /// The surviving pids of `n`.
    pub fn pids(&self, n: QueryNodeId) -> impl Iterator<Item = Pid> + '_ {
        self.lists[n.index()].iter().map(|&(p, _)| p)
    }
}

/// Runs the reference path join of `query` against `summary`: fresh
/// relation masks per edge, nested-loop containment tests, all edges
/// re-swept until a pass changes nothing. Kept unoptimized on purpose —
/// it is the oracle the bitmap kernel is property-tested against.
pub fn path_join(summary: &Summary, query: &Query) -> JoinResult {
    let mut lists = seed_lists(summary, query);

    // A `/`-rooted query pins its first step to the document root: keep
    // only ids whose paths carry the step's tag at depth 0. The reference
    // kernel re-derives this from the encoding table per pid (the shape
    // the precomputed `Summary::root_pids` index is validated against).
    if query.root_axis() == Axis::Child {
        let root_node = query.root();
        if let Some(tag) = summary.tags.get(&query.node(root_node).tag) {
            lists[root_node.index()].retain(|&(pid, _)| {
                summary
                    .pids
                    .bits(pid)
                    .ones()
                    .any(|enc| summary.encoding.path(enc).first() == Some(&tag))
            });
        } else {
            lists[root_node.index()].clear();
        }
    }

    // One fresh relation mask per structural edge. Dead edges (an
    // endpoint tag absent from the summary) kill both endpoint lists
    // outright — nothing in a shrinking fixpoint can resurrect them — so
    // such edges drop out here.
    let plan = QueryPlan::build(summary, query);
    let mut edges = Vec::new();
    for e in plan.edges() {
        let Some((tag_u, tag_v)) = e.tags else {
            lists[e.u.index()].clear();
            lists[e.v.index()].clear();
            continue;
        };
        let mask = relation_mask(&summary.encoding, tag_u, tag_v, e.child);
        edges.push((e.u, e.v, mask));
    }

    // Nested-loop containment tests per edge, iterated to a fixpoint. The
    // loop terminates because every pass can only shrink the lists.
    loop {
        let mut changed = false;
        for (u, v, mask) in &edges {
            let (u_list, v_list) = two_lists(&mut lists, u.index(), v.index());
            let compatible = |pu: Pid, pv: Pid| axis_compatible_masked(&summary.pids, pu, pv, mask);
            let before_u = u_list.len();
            u_list.retain(|&(pu, _)| v_list.iter().any(|&(pv, _)| compatible(pu, pv)));
            let before_v = v_list.len();
            v_list.retain(|&(pv, _)| u_list.iter().any(|&(pu, _)| compatible(pu, pv)));
            changed |= u_list.len() != before_u || v_list.len() != before_v;
        }
        if !changed {
            break;
        }
    }
    JoinResult { lists }
}

/// The bit-parallel join kernel: each query node's surviving set is a
/// pid-index bitmap and each edge examination is a word-parallel
/// semi-join over the summary's containment-relation rows, screened by
/// the edge's candidate bitmap, scheduled by a worklist fixpoint. Final
/// `(pid, frequency)` lists are rebuilt by filtering the p-histogram
/// entries through the final bitmaps — histogram order is exactly the
/// order the reference kernel's `retain` preserves, so the lists (and
/// every downstream `f64` sum) are bit-identical to [`path_join`].
pub fn path_join_bitmap(
    summary: &Summary,
    query: &Query,
    adjacency: &JoinIndexCache,
    scratch: Option<&mut JoinScratch>,
) -> JoinResult {
    let plan = QueryPlan::build(summary, query);
    let mut index = JoinIndexReader::new(adjacency);
    path_join_bitmap_planned(summary, query, &plan, &mut index, scratch, None)
}

/// [`path_join_bitmap`] against a caller-prepared [`QueryPlan`] and a
/// [`JoinIndexReader`] front, under an optional cooperative
/// [`BudgetState`] — the shape the estimator drives: plan built once per
/// skeleton, the front's held snapshot warm after the first join per
/// `(tag, axis)` key, scratch recycled, so the screen phase does no
/// string hashing, no locking, and no allocation — just hash probes and
/// word moves: one bitmap copy per node and one `Vec` push per edge. The
/// plan and the front's cache must belong to this exact `summary`
/// ([`JoinIndexCache::relation`] panics on a pid-count mismatch).
///
/// Every worklist edge examination charges `budget`, and on exhaustion
/// the fixpoint stops where it stands. The interrupted result is a
/// *superset* of the true fixpoint (pruning only ever removes pids), so
/// its frequencies are over-estimates — callers treat any
/// budget-exhausted join as degraded and fall back to the `f(tag)` bound
/// rather than trusting the partial lists, and never publish it to a
/// shared cache.
pub fn path_join_bitmap_planned<C: Deref<Target = JoinIndexCache>>(
    summary: &Summary,
    query: &Query,
    plan: &QueryPlan,
    index: &mut JoinIndexReader<C>,
    scratch: Option<&mut JoinScratch>,
    budget: Option<&BudgetState>,
) -> JoinResult {
    let mut local = JoinScratch::new();
    let scratch = match scratch {
        Some(s) => s,
        None => &mut local,
    };
    let mut timer = PhaseTimer::start(scratch.timing);
    let (mut screen_ns, mut fixpoint_ns, mut finalize_ns) = (0u64, 0u64, 0u64);

    let set_words = summary.pids.len().div_ceil(64);

    // Seed one bitmap per query node from the memoized per-(tag, rooted)
    // seed bitmaps — root pinning is baked into the rooted seeds, so a
    // warm seed turns per-entry seeding + pinning into one word copy.
    let mut node_bits = std::mem::take(&mut scratch.node_bits);
    let mut counts = std::mem::take(&mut scratch.counts);
    debug_assert!(node_bits.is_empty(), "node bitmaps recycled before reuse");
    counts.clear();
    for q in query.node_ids() {
        let mut bm = scratch.take_bits(set_words);
        let rooted = plan.rooted() == Some(q);
        if let Some(tag) = plan.tag(q) {
            let seed = index.seed(tag, rooted, || {
                build_seed_bitmap(summary, tag, rooted, set_words)
            });
            bm.copy_from_slice(&seed);
        }
        counts.push(words::count_ones(&bm) as usize);
        node_bits.push(bm);
    }

    // Resolve each structural edge to its candidate bitmap; unknown tags
    // kill both endpoints outright, exactly like the reference kernel.
    let mut edges = std::mem::take(&mut scratch.bit_edges);
    edges.clear();
    for e in plan.edges() {
        let Some((tag_u, tag_v)) = e.tags else {
            node_bits[e.u.index()].fill(0);
            counts[e.u.index()] = 0;
            node_bits[e.v.index()].fill(0);
            counts[e.v.index()] = 0;
            continue;
        };
        let cand = index.candidates(&summary.encoding, &summary.pids, tag_u, tag_v, e.child);
        edges.push(BitEdge {
            u: e.u,
            v: e.v,
            cand,
        });
    }
    // Every edge's candidate build went through the summary's relation,
    // so this only reads it (and checks the cache–summary pairing); an
    // edgeless join never needs it.
    let relation = (!edges.is_empty()).then(|| index.relation(&summary.pids));

    // Worklist fixpoint: seeded with every edge, an edge re-enqueued only
    // when one of its endpoint sets shrank since it was last processed,
    // one budget charge per pop. Termination is bounded by total set
    // size, since an edge is only re-enqueued after a strict shrink.
    let mut incident = std::mem::take(&mut scratch.incident);
    let mut queued = std::mem::take(&mut scratch.queued);
    let mut worklist = std::mem::take(&mut scratch.worklist);
    prime_worklist(
        &mut incident,
        &mut queued,
        &mut worklist,
        query.len(),
        edges.len(),
        |ei| (edges[ei].u.index(), edges[ei].v.index()),
    );
    let mut acc = std::mem::take(&mut scratch.acc);
    acc.clear();
    acc.resize(set_words, 0);
    timer.lap(&mut screen_ns);
    while let Some(ei) = worklist.pop_front() {
        if let Some(b) = budget {
            if !b.charge_edge() {
                break;
            }
        }
        queued[ei] = false;
        let edge = &edges[ei];
        let relation = relation.expect("a queued edge implies a resolved relation");
        let (ub, vb) = two_lists(&mut node_bits, edge.u.index(), edge.v.index());
        let before_u = counts[edge.u.index()];
        let before_v = counts[edge.v.index()];
        // The relation rows are unmasked, so no row may meet a
        // non-candidate pid: screen the first call's source here (each
        // call screens its own destination). The second call's source is
        // the first call's screened destination.
        words::and_assign(vb, &edge.cand);
        let walk_u = before_u <= before_v;
        counts[edge.u.index()] =
            semi_join_bits(ub, vb, walk_u, &edge.cand, relation, true, &mut acc);
        let walk_v = before_v <= counts[edge.u.index()];
        counts[edge.v.index()] =
            semi_join_bits(vb, ub, walk_v, &edge.cand, relation, false, &mut acc);
        // Re-enqueue neighbors of shrunk endpoints — including this edge:
        // pruning v against the already-pruned u can strand pids in u.
        for (node, before) in [(edge.u, before_u), (edge.v, before_v)] {
            if counts[node.index()] == before {
                continue;
            }
            for &other in &incident[node.index()] {
                if !queued[other] {
                    queued[other] = true;
                    worklist.push_back(other);
                }
            }
        }
    }
    timer.lap(&mut fixpoint_ns);

    // Rebuild the (pid, frequency) lists by filtering each node's
    // histogram entries through its final bitmap. The reference kernel's
    // `retain` calls preserve histogram order, so this produces the same
    // entries in the same order — downstream f64 sums are bit-identical.
    let mut lists = scratch.take_outer();
    for q in query.node_ids() {
        let mut list = scratch.take();
        if counts[q.index()] > 0 {
            if let Some(tag) = plan.tag(q) {
                let bm = &node_bits[q.index()];
                list.extend(
                    summary
                        .phist
                        .histogram(tag)
                        .entries_slice()
                        .iter()
                        .filter(|(p, _)| words::test_bit(bm, p.index()))
                        .copied(),
                );
            }
        }
        lists.push(list);
    }
    timer.lap(&mut finalize_ns);

    // Hand the hoisted structures back; the edge vector is cleared so
    // stale `Arc`s never outlive this call's summary, and the drained
    // node bitmaps recycle through the bitmap pool.
    scratch.acc = acc;
    for bm in node_bits.drain(..) {
        scratch.recycle_bits(bm);
    }
    scratch.node_bits = node_bits;
    scratch.counts = counts;
    edges.clear();
    scratch.bit_edges = edges;
    scratch.incident = incident;
    scratch.queued = queued;
    scratch.worklist = worklist;
    scratch.phases.screen_ns += screen_ns;
    scratch.phases.fixpoint_ns += fixpoint_ns;
    scratch.phases.finalize_ns += finalize_ns;
    JoinResult { lists }
}

/// One structural query edge resolved to its candidate bitmap (the
/// bitmap kernel needs no mask — the candidates fold the mask test in).
#[derive(Debug)]
struct BitEdge {
    u: QueryNodeId,
    v: QueryNodeId,
    cand: Arc<Vec<u64>>,
}

/// Rebuilds the hoisted worklist state for a join over `n_edges` edges
/// incident to `n_nodes` query nodes: per-node incident edge lists, all
/// edges queued, FIFO order `0..n_edges` — the seeding the budget charge
/// sequences are pinned against.
fn prime_worklist(
    incident: &mut Vec<Vec<usize>>,
    queued: &mut Vec<bool>,
    worklist: &mut VecDeque<usize>,
    n_nodes: usize,
    n_edges: usize,
    endpoints: impl Fn(usize) -> (usize, usize),
) {
    if incident.len() < n_nodes {
        incident.resize_with(n_nodes, Vec::new);
    }
    for l in incident[..n_nodes].iter_mut() {
        l.clear();
    }
    for ei in 0..n_edges {
        let (u, v) = endpoints(ei);
        incident[u].push(ei);
        incident[v].push(ei);
    }
    queued.clear();
    queued.resize(n_edges, true);
    worklist.clear();
    worklist.extend(0..n_edges);
}

/// One direction of the bitmap semi-join: keep in `dst` only candidate
/// pids whose relation row (forward rows when `forward`, else reverse)
/// intersects `src`. `src` must already lie inside `cand`: with both
/// sides screened, a row hit is exactly a masked-compatible pair, since
/// `(pu, pv)` is compatible iff `pv ⊆ pu` and both are candidates. Two
/// strategies compute the identical set — test each surviving `dst`
/// pid's row against `src` (`walk_dst`), or union the `src` pids'
/// opposite-side rows into `acc` and intersect — and the caller picks
/// the smaller side, so the work tracks `min(|dst|, |src|)` row touches.
/// Returns `dst`'s new population count.
fn semi_join_bits(
    dst: &mut [u64],
    src: &[u64],
    walk_dst: bool,
    cand: &[u64],
    relation: &PidContainmentRelation,
    forward: bool,
    acc: &mut [u64],
) -> usize {
    // Candidate screen: one word-parallel AND clears every pid that
    // fails the edge's mask before any per-pid work.
    words::and_assign(dst, cand);
    let row = |i: usize, fwd: bool| {
        if fwd {
            relation.forward_row(i)
        } else {
            relation.reverse_row(i)
        }
    };
    if walk_dst {
        for (wi, word) in dst.iter_mut().enumerate() {
            let mut w = *word;
            let mut keep = w;
            while w != 0 {
                let b = w.trailing_zeros();
                w &= w - 1;
                if !words::intersects(row(wi * 64 + b as usize, forward), src) {
                    keep &= !(1u64 << b);
                }
            }
            *word = keep;
        }
    } else {
        acc.fill(0);
        for v in words::ones(src) {
            words::or_assign(acc, row(v, !forward));
        }
        words::and_assign(dst, acc);
    }
    words::count_ones(dst) as usize
}

/// Seeds each query node's candidate list from its tag's p-histogram
/// (the reference kernel's string-keyed shape; the bitmap kernel seeds
/// through the plan's resolved tags instead).
fn seed_lists(summary: &Summary, query: &Query) -> Vec<Vec<(Pid, f64)>> {
    query
        .node_ids()
        .map(|q| {
            let mut list = Vec::new();
            if let Some(h) = summary.phistogram(&query.node(q).tag) {
                list.extend_from_slice(h.entries_slice());
            }
            list
        })
        .collect()
}

fn two_lists<T>(v: &mut [Vec<T>], a: usize, b: usize) -> (&mut Vec<T>, &mut Vec<T>) {
    assert_ne!(a, b, "query edges never self-loop");
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_synopsis::SummaryConfig;
    use xpe_xpath::parse_query;

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        )
    }

    /// The surviving pid bit strings of a query node, sorted.
    fn pids_of(s: &Summary, j: &JoinResult, q: &Query, tag: &str) -> Vec<String> {
        let node = q
            .node_ids()
            .find(|&n| q.node(n).tag == tag)
            .expect("tag in query");
        let mut v: Vec<String> = j.pids(node).map(|p| s.pids.bits(p).to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn paper_example_4_1_join() {
        // Q1 = //A[/C/F]/B/D (Figure 3): after the join A = {p7},
        // C = {p3}, F = {p1}, B = {p5}, D = {p5}.
        let s = summary();
        let q = parse_query("//A[/C/F]/B/D").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(pids_of(&s, &j, &q, "A"), vec!["1011"]); // p7
        assert_eq!(pids_of(&s, &j, &q, "C"), vec!["0011"]); // p3
        assert_eq!(pids_of(&s, &j, &q, "F"), vec!["0001"]); // p1
        assert_eq!(pids_of(&s, &j, &q, "B"), vec!["1000"]); // p5
        assert_eq!(pids_of(&s, &j, &q, "D"), vec!["1000"]); // p5
                                                            // Frequencies: f(A)=1, f(B)=3, f(D)=4 (Figure 3(b)).
        let a = q.root();
        assert_eq!(j.frequency(a), 1.0);
    }

    #[test]
    fn paper_example_4_2_simple_query() {
        // //A//C: A keeps {p6, p7}, C keeps {p2, p3}; both selectivities 2.
        let s = summary();
        let q = parse_query("//A//C").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(pids_of(&s, &j, &q, "A"), vec!["1010", "1011"]); // p6, p7
        assert_eq!(pids_of(&s, &j, &q, "C"), vec!["0010", "0011"]); // p2, p3
        assert_eq!(j.frequency(q.root()), 2.0);
        assert_eq!(j.frequency(q.target()), 2.0);
    }

    #[test]
    fn paper_example_4_3_branch_overestimate() {
        // Q2 = //C[/E]/F: E keeps {(p2, 2)} — the join's known
        // over-estimate the branch formula later corrects to 1.
        let s = summary();
        let q = parse_query("//C[/$E]/F").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(pids_of(&s, &j, &q, "E"), vec!["0010"]);
        assert_eq!(j.frequency(q.target()), 2.0);
        // C itself is exact: {p3} with frequency 1.
        assert_eq!(j.frequency(q.root()), 1.0);
    }

    #[test]
    fn unknown_tag_empties_the_query() {
        let s = summary();
        let q = parse_query("//A/Zebra").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(j.frequency(q.root()), 0.0);
        assert_eq!(j.frequency(q.target()), 0.0);
    }

    #[test]
    fn incompatible_axis_prunes_everything() {
        // D is never a parent of A.
        let s = summary();
        let q = parse_query("//D/A").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(j.frequency(q.target()), 0.0);
    }

    #[test]
    fn child_vs_descendant_pruning_differs() {
        // //Root/E: E is never a child of Root → empty.
        let s = summary();
        let child = parse_query("/Root/E").unwrap();
        assert_eq!(path_join(&s, &child).frequency(child.target()), 0.0);
        // //Root//E: all three E's survive.
        let desc = parse_query("/Root//E").unwrap();
        assert_eq!(path_join(&s, &desc).frequency(desc.target()), 3.0);
    }

    #[test]
    fn join_ignores_order_constraints() {
        let s = summary();
        let plain = parse_query("//A[/C]/B").unwrap();
        let ordered = parse_query("//A[/C/folls::$B]").unwrap();
        let jp = path_join(&s, &plain);
        let jo = path_join(&s, &ordered);
        // Same structural pruning on B regardless of the constraint.
        assert_eq!(
            pids_of(&s, &jp, &plain, "B"),
            pids_of(&s, &jo, &ordered, "B")
        );
    }

    /// The bitmap kernel — with and without scratch — agrees with the
    /// reference kernel bit for bit on every test query.
    #[test]
    fn bitmap_kernel_matches_reference_on_all_shapes() {
        let s = summary();
        let queries = [
            "//A[/C/F]/B/D",
            "//A//C",
            "//C[/$E]/F",
            "//A/Zebra",
            "//D/A",
            "/Root/E",
            "/Root//E",
            "//A[/C]/B",
            "/Root/A/C/F",
            "//Root[/A]//E",
        ];
        let index = JoinIndexCache::new();
        let mut scratch = JoinScratch::new();
        scratch.set_timing(true);
        for q in queries {
            let query = parse_query(q).unwrap();
            let reference = path_join(&s, &query);
            for variant in 0..2 {
                let fast = match variant {
                    0 => path_join_bitmap(&s, &query, &index, None),
                    _ => path_join_bitmap(&s, &query, &index, Some(&mut scratch)),
                };
                assert_eq!(reference.lists.len(), fast.lists.len(), "{q}");
                for (rl, fl) in reference.lists.iter().zip(&fast.lists) {
                    let rb: Vec<(Pid, u64)> = rl.iter().map(|&(p, f)| (p, f.to_bits())).collect();
                    let fb: Vec<(Pid, u64)> = fl.iter().map(|&(p, f)| (p, f.to_bits())).collect();
                    assert_eq!(rb, fb, "{q} variant={variant}");
                }
                if variant > 0 {
                    scratch.recycle(fast);
                }
            }
        }
        // Timing was enabled: the phase breakdown accumulated something.
        let phases = scratch.phase_stats();
        assert!(
            phases.screen_ns + phases.fixpoint_ns + phases.finalize_ns > 0,
            "{phases:?}"
        );
        scratch.reset_phase_stats();
        assert_eq!(scratch.phase_stats(), JoinPhaseStats::default());
    }

    /// The bitmap kernel charges each budget a pinned edge count —
    /// truncated or not — so serve-layer degradation points cannot drift.
    /// Each row is `(query, [(max_edges, edges_charged, exhausted)])`; a
    /// charge is counted on every worklist pop, including the one that
    /// finds the budget spent.
    #[test]
    fn bitmap_budget_charges_identical_edge_counts() {
        use crate::serve::Budget;
        type Row = (u64, u64, bool);
        const TABLE: [(&str, [Row; 6]); 4] = [
            (
                "//A[/C/F]/B/D",
                [
                    (0, 1, true),
                    (1, 2, true),
                    (2, 3, true),
                    (3, 4, true),
                    (5, 6, true),
                    (1_000, 8, false),
                ],
            ),
            (
                "//A//C",
                [
                    (0, 1, true),
                    (1, 2, true),
                    (2, 2, false),
                    (3, 2, false),
                    (5, 2, false),
                    (1_000, 2, false),
                ],
            ),
            (
                "/Root//E",
                [
                    (0, 1, true),
                    (1, 1, false),
                    (2, 1, false),
                    (3, 1, false),
                    (5, 1, false),
                    (1_000, 1, false),
                ],
            ),
            (
                "//Root[/A]//E",
                [
                    (0, 1, true),
                    (1, 2, true),
                    (2, 2, false),
                    (3, 2, false),
                    (5, 2, false),
                    (1_000, 2, false),
                ],
            ),
        ];
        let s = summary();
        let index = JoinIndexCache::new();
        for (q, rows) in TABLE {
            let query = parse_query(q).unwrap();
            let plan = QueryPlan::build(&s, &query);
            for (max_edges, charged, exhausted) in rows {
                let budget = Budget {
                    deadline: None,
                    max_join_edges: Some(max_edges),
                };
                let state = BudgetState::start(&budget);
                let mut front = JoinIndexReader::new(&index);
                let bitmap =
                    path_join_bitmap_planned(&s, &query, &plan, &mut front, None, Some(&state));
                assert_eq!(state.edges_charged(), charged, "{q} max_edges={max_edges}");
                assert_eq!(
                    state.exhausted().is_some(),
                    exhausted,
                    "{q} max_edges={max_edges}"
                );
                // Under no (or un-hit) truncation the result is the oracle's.
                if !exhausted {
                    assert_eq!(path_join(&s, &query).lists, bitmap.lists, "{q}");
                }
            }
        }
    }

    /// The relation rows are unmasked, so each pop must screen the first
    /// semi-join's source before reading rows against it. Here the edge
    /// `(B, Z)` pops before `(A, B)` (the node ids put `B` before `A`) and
    /// leaves `B` holding only the `B` under `X`: a pid contained in
    /// `A`'s that fails the `A/B` child mask. After the third pop — the
    /// first of `(A, B)` — `A` must already be empty; an unscreened
    /// source would let that non-candidate `B` keep `A` alive.
    #[test]
    fn first_semi_join_screens_its_source() {
        use crate::serve::Budget;
        use xpe_xpath::{QueryEdge, QueryNode};

        let doc = xpe_xml::parse_document("<R><A><B/><X><B><Z/></B></X></A></R>").unwrap();
        let s = Summary::build(&doc, SummaryConfig::default());
        let node = |tag: &str, edges: &[(Axis, usize)]| QueryNode {
            tag: tag.into(),
            edges: edges
                .iter()
                .map(|&(axis, to)| QueryEdge {
                    axis,
                    to: QueryNodeId::from_index(to),
                })
                .collect(),
            constraints: Vec::new(),
        };
        // //R//A/B/Z with ids R=0, B=1, A=2, Z=3: the plan's edges run
        // (R, A), (B, Z), (A, B).
        let query = Query::new(
            vec![
                node("R", &[(Axis::Descendant, 2)]),
                node("B", &[(Axis::Child, 3)]),
                node("A", &[(Axis::Child, 1)]),
                node("Z", &[]),
            ],
            Axis::Descendant,
            QueryNodeId::from_index(3),
        )
        .unwrap();
        let plan = QueryPlan::build(&s, &query);
        let index = JoinIndexCache::new();
        let state = BudgetState::start(&Budget {
            deadline: None,
            max_join_edges: Some(3),
        });
        let mut front = JoinIndexReader::new(&index);
        let three_pops =
            path_join_bitmap_planned(&s, &query, &plan, &mut front, None, Some(&state));
        assert!(
            state.exhausted().is_some(),
            "the fixpoint needs a fourth pop"
        );
        let a = QueryNodeId::from_index(2);
        assert_eq!(three_pops.pids(a).count(), 0, "A kept by a non-candidate B");
        // The full fixpoint empties every node, as the oracle does.
        let full = path_join_bitmap(&s, &query, &index, None);
        assert_eq!(path_join(&s, &query).lists, full.lists);
        assert!(full.lists.iter().all(Vec::is_empty));
    }

    #[test]
    fn kernel_selector_parses_and_names() {
        for k in JoinKernel::ALL {
            assert_eq!(JoinKernel::parse(k.name()), Some(k));
        }
        assert_eq!(JoinKernel::parse("warp"), None);
        assert_eq!(JoinKernel::parse("indexed"), None);
        assert_eq!(JoinKernel::default(), JoinKernel::Bitmap);
    }
}
