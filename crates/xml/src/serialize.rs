//! Serialization of [`Document`]s back to XML text.

use std::fmt::Write;

use crate::tree::{Document, NodeId};

/// Serializes `doc` to compact XML (no added whitespace).
///
/// Character data is escaped, so `parse(to_string(doc))` reconstructs the
/// same element structure and text — a property-tested invariant.
pub fn to_string(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.len() * 8);
    write_node(doc, doc.root(), &mut out, None, 0);
    out
}

/// Serializes `doc` with two-space indentation, one element per line.
///
/// Intended for debugging and examples; indentation whitespace becomes part
/// of parent text when re-parsed, so round-trip comparisons should use
/// [`to_string`].
pub fn to_string_pretty(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.len() * 12);
    write_node(doc, doc.root(), &mut out, Some("  "), 0);
    out
}

fn write_node(doc: &Document, id: NodeId, out: &mut String, indent: Option<&str>, depth: usize) {
    let tag = doc.tag_name(id);
    let (children, text) = (doc.children(id), doc.text(id));
    if let Some(unit) = indent {
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
    if children.is_empty() && text.is_empty() {
        let _ = write!(out, "<{tag}/>");
        if indent.is_some() {
            out.push('\n');
        }
        return;
    }
    let _ = write!(out, "<{tag}>");
    escape_into(text, out);
    if !children.is_empty() {
        if indent.is_some() {
            out.push('\n');
        }
        for &child in children {
            write_node(doc, child, out, indent, depth + 1);
        }
        if let Some(unit) = indent {
            for _ in 0..depth {
                out.push_str(unit);
            }
        }
    }
    let _ = write!(out, "</{tag}>");
    if indent.is_some() {
        out.push('\n');
    }
}

fn escape_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::tree::TreeBuilder;

    #[test]
    fn compact_round_trip() {
        let src = "<a>x<b><c/></b>y &amp; &lt;z&gt;</a>";
        let doc = parse(src).unwrap();
        let ser = to_string(&doc);
        let doc2 = parse(&ser).unwrap();
        assert_eq!(doc.len(), doc2.len());
        assert_eq!(to_string(&doc2), ser);
    }

    #[test]
    fn empty_element_self_closes() {
        let mut b = TreeBuilder::new();
        b.begin_element("solo");
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        assert_eq!(to_string(&doc), "<solo/>");
    }

    #[test]
    fn pretty_output_is_indented() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let pretty = to_string_pretty(&doc);
        assert!(pretty.contains("\n  <b>"));
        assert!(pretty.contains("\n    <c/>"));
        // Structure survives the added whitespace.
        let reparsed = parse(&pretty).unwrap();
        assert_eq!(reparsed.len(), 3);
    }

    #[test]
    fn text_is_escaped() {
        let mut b = TreeBuilder::new();
        b.begin_element("t");
        b.text("a<b&c>d");
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        assert_eq!(to_string(&doc), "<t>a&lt;b&amp;c&gt;d</t>");
    }
}
