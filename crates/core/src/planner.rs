//! Optimizer-facing helpers and the prepared query plan.
//!
//! The paper's motivation is query optimization, so the estimator exposes
//! the two decisions a structural-join planner actually makes — which
//! predicate to apply first, and per-step cardinalities along the main
//! path. [`QueryPlan`] is the other side of that coin: the one-time
//! resolution of a query's *own* bookkeeping (tag-name → `TagId`,
//! structural edges, root pinning) so the join kernels never repeat a
//! string hash that cannot change between calls.

use xpe_synopsis::Summary;
use xpe_xml::TagId;
use xpe_xpath::{Axis, Query, QueryNodeId};

use crate::editor;
use crate::estimator::Estimator;

/// One structural query edge with its endpoint tags resolved against a
/// summary's tag interner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEdge {
    /// Ancestor-side query node.
    pub u: QueryNodeId,
    /// Descendant-side query node.
    pub v: QueryNodeId,
    /// `true` for a child-axis edge, `false` for descendant.
    pub child: bool,
    /// `(tag_u, tag_v)` when both endpoint tags occur in the summary;
    /// `None` when either is absent — such an edge empties both endpoint
    /// candidate sets outright (nothing in a shrinking fixpoint can
    /// resurrect them).
    pub tags: Option<(TagId, TagId)>,
}

/// A query's join-relevant structure resolved against one summary, once.
///
/// The join kernels repeat three lookups every call that are pure
/// functions of `(summary, query skeleton)`: each node's tag-name →
/// [`TagId`] resolution (a string hash per node per join, and again per
/// edge endpoint), the flattening of the query's structural edges, and
/// the root-pinning decision. A `QueryPlan` performs them once per join
/// the estimator runs; a [`JoinCache`](crate::JoinCache) hit on the
/// skeleton skips the plan together with the join.
///
/// Plans are only valid against the summary they were built from — the
/// estimator guarantees that pairing by construction (it builds each plan
/// from its own summary borrow right before the join).
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Per query node (by index): its tag resolved in the summary, or
    /// `None` for a tag the document never contained.
    tags: Vec<Option<TagId>>,
    /// Every structural edge, flattened in `(node id, edge order)` order —
    /// exactly the iteration order the kernels used when walking
    /// `query.node(u).edges` per node.
    edges: Vec<PlanEdge>,
    /// The node pinned to the document root (`Some` iff the root axis is
    /// `Child`).
    rooted: Option<QueryNodeId>,
}

impl QueryPlan {
    /// Resolves `query` against `summary`: one tag-interner probe per
    /// node, one pass over the structural edges.
    pub fn build(summary: &Summary, query: &Query) -> Self {
        let tags: Vec<Option<TagId>> = query
            .node_ids()
            .map(|q| summary.tags.get(&query.node(q).tag))
            .collect();
        let mut edges = Vec::new();
        for u in query.node_ids() {
            for e in &query.node(u).edges {
                let child = match e.axis {
                    Axis::Child => true,
                    Axis::Descendant => false,
                    _ => unreachable!("structural edges only"),
                };
                let pair = match (tags[u.index()], tags[e.to.index()]) {
                    (Some(tu), Some(tv)) => Some((tu, tv)),
                    _ => None,
                };
                edges.push(PlanEdge {
                    u,
                    v: e.to,
                    child,
                    tags: pair,
                });
            }
        }
        QueryPlan {
            tags,
            edges,
            rooted: (query.root_axis() == Axis::Child).then(|| query.root()),
        }
    }

    /// The resolved tag of query node `n` (`None` for an absent tag).
    #[inline]
    pub fn tag(&self, n: QueryNodeId) -> Option<TagId> {
        self.tags[n.index()]
    }

    /// Every structural edge with resolved endpoint tags.
    #[inline]
    pub fn edges(&self) -> &[PlanEdge] {
        &self.edges
    }

    /// The query node pinned to the document root, if any.
    #[inline]
    pub fn rooted(&self) -> Option<QueryNodeId> {
        self.rooted
    }

    /// Number of query nodes the plan covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the plan covers no nodes (never true for a valid query).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// The estimated selectivity of one predicate branch of a node.
#[derive(Clone, Debug)]
pub struct PredicateRank {
    /// Edge index at the branching node.
    pub edge: usize,
    /// The branch head.
    pub head: QueryNodeId,
    /// Estimated matches of the branching node if only this predicate is
    /// kept (smaller = more selective = apply first).
    pub estimated_card: f64,
}

/// Per-step cardinality estimates along the path from the query root to
/// the target — what a pipelined plan would materialize at each step.
#[derive(Clone, Debug)]
pub struct PathCardinalities {
    /// `(node, estimated matches)` from root to target, inclusive.
    pub steps: Vec<(QueryNodeId, f64)>,
}

impl<'s> Estimator<'s> {
    /// Ranks the predicate branches of `node` from most to least selective
    /// under the order-free interpretation: for each branch, the query is
    /// reduced to the root→`node` path plus that single branch, and
    /// `node`'s cardinality is estimated.
    ///
    /// Branches on the path to the target are not predicates and are
    /// excluded.
    pub fn rank_predicates(&self, query: &Query, node: QueryNodeId) -> Vec<PredicateRank> {
        let plain = editor::without_constraints(query);
        let q = &plain.query;
        let node = plain.remap(node);
        let target_path = q.path_to(q.target());
        let on_target_path = |to: QueryNodeId| target_path.contains(&to);

        let mut ranks = Vec::new();
        for (i, e) in q.node(node).edges.iter().enumerate() {
            // The continuation toward the target is not a predicate.
            if on_target_path(e.to) {
                continue;
            }
            // Reduced query: path to `node`, `node`, and this branch only.
            let mut keep = vec![false; q.len()];
            for &a in &q.path_to(node) {
                keep[a.index()] = true;
            }
            for (idx, flag) in editor::subtree_of(q, e.to).into_iter().enumerate() {
                if flag {
                    keep[idx] = true;
                }
            }
            let reduced = editor::rebuild(q, &keep, node);
            let estimated_card = self.estimate_plain(&reduced.query, reduced.remap(node));
            ranks.push(PredicateRank {
                edge: i,
                head: e.to,
                estimated_card,
            });
        }
        ranks.sort_by(|a, b| a.estimated_card.total_cmp(&b.estimated_card));
        ranks
    }

    /// Estimated cardinality of every step on the root→target path of
    /// `query` (order constraints ignored): the sizes a pipelined
    /// structural-join plan would see.
    pub fn path_cardinalities(&self, query: &Query) -> PathCardinalities {
        let plain = editor::without_constraints(query);
        let q = &plain.query;
        let steps = q
            .path_to(q.target())
            .into_iter()
            .map(|n| (n, self.estimate_plain(q, n)))
            .collect();
        PathCardinalities { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_synopsis::{Summary, SummaryConfig};
    use xpe_xpath::parse_query;

    fn summary(xml: &str) -> Summary {
        Summary::build(
            &xpe_xml::parse_document(xml).unwrap(),
            SummaryConfig::default(),
        )
    }

    #[test]
    fn ranks_by_selectivity() {
        // `rare` appears under one p, `common` under three.
        let xml = "<r>\
            <p><rare/><common/></p>\
            <p><common/></p>\
            <p><common/></p>\
            <p/>\
         </r>";
        let s = summary(xml);
        let est = Estimator::new(&s);
        let q = parse_query("//$p[/rare][/common]").unwrap();
        let ranks = est.rank_predicates(&q, q.target());
        assert_eq!(ranks.len(), 2);
        assert!(ranks[0].estimated_card <= ranks[1].estimated_card);
        assert_eq!(q.node(ranks[0].head).tag, "rare");
        assert_eq!(ranks[0].estimated_card, 1.0);
        assert_eq!(ranks[1].estimated_card, 3.0);
    }

    #[test]
    fn continuation_branch_excluded() {
        let xml = "<r><p><a/><b><c/></b></p></r>";
        let s = summary(xml);
        let est = Estimator::new(&s);
        // Target is c, below b: the b-branch is the continuation, only
        // the a-branch is a predicate of p.
        let q = parse_query("//p[/a]/b/c").unwrap();
        let p = q.root();
        let ranks = est.rank_predicates(&q, p);
        assert_eq!(ranks.len(), 1);
        assert_eq!(q.node(ranks[0].head).tag, "a");
    }

    #[test]
    fn path_cardinalities_walk_the_spine() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());
        let est = Estimator::new(&s);
        let q = parse_query("//A/B/D").unwrap();
        let cards = est.path_cardinalities(&q);
        assert_eq!(cards.steps.len(), 3);
        let values: Vec<f64> = cards.steps.iter().map(|&(_, c)| c).collect();
        assert_eq!(values, vec![3.0, 4.0, 4.0]);
    }

    #[test]
    fn query_plan_resolves_tags_edges_and_root_pinning() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());

        // Rooted query, all tags known.
        let q = parse_query("/Root/A//C").unwrap();
        let plan = crate::QueryPlan::build(&s, &q);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.rooted(), Some(q.root()));
        for n in q.node_ids() {
            assert_eq!(plan.tag(n), s.tags.get(&q.node(n).tag));
            assert!(plan.tag(n).is_some(), "all tags occur in the document");
        }
        assert_eq!(plan.edges().len(), 2);
        assert!(plan.edges()[0].child);
        assert!(!plan.edges()[1].child);
        for e in plan.edges() {
            assert_eq!(
                e.tags,
                Some((plan.tag(e.u).unwrap(), plan.tag(e.v).unwrap()))
            );
        }

        // Unrooted query with an unknown tag: no pinning, dead edge.
        let q = parse_query("//A/Zebra").unwrap();
        let plan = crate::QueryPlan::build(&s, &q);
        assert_eq!(plan.rooted(), None);
        assert_eq!(plan.tag(q.target()), None);
        assert_eq!(plan.edges().len(), 1);
        assert_eq!(plan.edges()[0].tags, None);
    }

    #[test]
    fn order_constraints_are_ignored_for_planning() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());
        let est = Estimator::new(&s);
        let q = parse_query("//$A[/C/folls::B]").unwrap();
        let ranks = est.rank_predicates(&q, q.target());
        assert_eq!(ranks.len(), 2, "both chain branches rank as predicates");
        for r in &ranks {
            assert!(r.estimated_card.is_finite());
        }
    }
}
