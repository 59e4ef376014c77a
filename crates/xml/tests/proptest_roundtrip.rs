//! Property tests: random documents survive serialize→parse round trips and
//! the document-order invariants hold on arbitrary trees.

use proptest::prelude::*;
use xpe_xml::{nav::DocOrder, parse, to_string, Document, TreeBuilder};

/// Strategy producing a random ordered tree as nested (tag, children)
/// pairs. Text may come before the first child and after every child, so
/// an element's character data is split around its children (mixed
/// content), the case where the document's text arena must regroup pieces.
fn arb_tree() -> impl Strategy<Value = TreeSpec> {
    let leaf = (0u8..6).prop_map(|t| TreeSpec {
        tag: t,
        text: None,
        children: vec![],
    });
    leaf.prop_recursive(4, 64, 5, |inner| {
        (
            0u8..6,
            arb_text(),
            prop::collection::vec((inner, arb_text()), 0..5),
        )
            .prop_map(|(tag, text, children)| TreeSpec {
                tag,
                text,
                children,
            })
    })
}

fn arb_text() -> impl Strategy<Value = Option<String>> {
    proptest::option::of("[ -~&&[^<&>]]{0,8}")
}

#[derive(Debug, Clone)]
struct TreeSpec {
    tag: u8,
    /// Text before the first child.
    text: Option<String>,
    /// Each child with the text that follows it.
    children: Vec<(TreeSpec, Option<String>)>,
}

/// Builds the document and returns, per node id, the concatenation of the
/// text pieces given to that node.
fn build(spec: &TreeSpec) -> (Document, Vec<String>) {
    let mut b = TreeBuilder::new();
    let mut texts = Vec::new();
    fn rec(b: &mut TreeBuilder, texts: &mut Vec<String>, s: &TreeSpec) {
        let id = b.begin_element(&format!("t{}", s.tag)).index();
        texts.push(String::new());
        if let Some(t) = &s.text {
            b.text(t);
            texts[id].push_str(t);
        }
        for (c, tail) in &s.children {
            rec(b, texts, c);
            if let Some(t) = tail {
                b.text(t);
                texts[id].push_str(t);
            }
        }
        b.end_element().expect("balanced by construction");
    }
    rec(&mut b, &mut texts, spec);
    (b.finish().expect("single root by construction"), texts)
}

proptest! {
    #[test]
    fn serialize_parse_round_trip(spec in arb_tree()) {
        let (doc, texts) = build(&spec);
        let ser = to_string(&doc);
        let reparsed = parse(&ser).unwrap();
        prop_assert_eq!(doc.len(), reparsed.len());
        // Structural equality: tags along pre-order, parent indices, text.
        for id in doc.node_ids() {
            prop_assert_eq!(doc.text(id), texts[id.index()].as_str());
            prop_assert_eq!(doc.tag_name(id), reparsed.tag_name(id));
            prop_assert_eq!(
                doc.parent(id).map(|p| p.index()),
                reparsed.parent(id).map(|p| p.index())
            );
            prop_assert_eq!(doc.text(id), reparsed.text(id));
        }
        // Serialization is a fixpoint after one round.
        prop_assert_eq!(to_string(&reparsed), ser);
    }

    #[test]
    fn node_classification_is_a_partition(spec in arb_tree()) {
        let (doc, _) = build(&spec);
        let order = DocOrder::new(&doc);
        for x in doc.node_ids() {
            for y in doc.node_ids() {
                if x == y { continue; }
                let n = [
                    order.is_ancestor(x, y),
                    order.is_ancestor(y, x),
                    order.is_following(x, y),
                    order.is_preceding(x, y),
                ].iter().filter(|&&b| b).count();
                prop_assert_eq!(n, 1);
            }
        }
    }

    #[test]
    fn pre_order_equals_creation_order(spec in arb_tree()) {
        let (doc, _) = build(&spec);
        let order = DocOrder::new(&doc);
        for id in doc.node_ids() {
            prop_assert_eq!(order.pre(id) as usize, id.index());
        }
    }
}
