//! Serialization of AXML documents to XML text.
//!
//! Function nodes use the ActiveXML convention: a call to service `f` with
//! parameter subtrees `p…` is written `<axml:call service="f">p…</axml:call>`.
//! Element children whose label starts with `@` are written back as XML
//! attributes (the parser produces them for attributed input).

use crate::escape::{write_attr, write_text};
use crate::tree::{Document, NodeId, NodeKind};
use std::fmt::{self, Write};

/// Serialization options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerializeOptions {
    /// Pretty-print with two-space indentation.
    pub pretty: bool,
    /// Emit the `<?xml version="1.0"?>` declaration.
    pub declaration: bool,
}

/// Serializes the whole forest with the given options.
pub fn to_xml_with(doc: &Document, opts: SerializeOptions) -> String {
    let mut out = String::new();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.pretty {
            out.push('\n');
        }
    }
    for &r in doc.roots() {
        let _ = write_node(doc, r, &mut out, opts.pretty);
        if opts.pretty {
            out.push('\n');
        }
    }
    out
}

/// Serializes the whole forest compactly.
pub fn to_xml(doc: &Document) -> String {
    to_xml_with(doc, SerializeOptions::default())
}

/// Serializes a single subtree compactly.
pub fn subtree_to_xml(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    let _ = write_node(doc, node, &mut out, false);
    out
}

/// Serializes the children of `node` compactly: the bytes [`to_xml`]
/// writes for `doc.children_to_forest(node)`, without building that
/// forest.
pub fn children_to_xml(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    for &c in doc.children(node) {
        let _ = write_node(doc, c, &mut out, false);
    }
    out
}

/// Byte size of the serialized subtree — the paper's unit for data-transfer
/// accounting when results move across the (simulated) network. Runs the
/// compact serializer into a counter, so no string is built.
pub fn serialized_len(doc: &Document, node: NodeId) -> usize {
    let mut count = ByteCount(0);
    let _ = write_node(doc, node, &mut count, false);
    count.0
}

/// Byte size of a whole serialized forest.
pub fn forest_serialized_len(doc: &Document) -> usize {
    doc.roots().iter().map(|&r| serialized_len(doc, r)).sum()
}

/// A writer that keeps only the number of bytes written to it.
struct ByteCount(usize);

impl Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

fn is_attr_child(doc: &Document, n: NodeId) -> bool {
    doc.kind(n) == NodeKind::Element && doc.label(n).starts_with('@')
}

fn indent<W: Write>(out: &mut W, pretty: bool, depth: usize) -> fmt::Result {
    if pretty {
        for _ in 0..depth {
            out.write_str("  ")?;
        }
    }
    Ok(())
}

/// Writes the subtree rooted at `node`. An explicit stack of the open
/// elements and calls, each with the index of its next child, bounds the
/// recursion no matter how deep the subtree is; a node's depth is its
/// parent's position on the stack plus one.
fn write_node<W: Write>(doc: &Document, node: NodeId, out: &mut W, pretty: bool) -> fmt::Result {
    let mut open: Vec<(NodeId, usize)> = Vec::new();
    let mut next = Some(node);
    loop {
        if let Some(n) = next.take() {
            indent(out, pretty, open.len())?;
            if write_open(doc, n, out)? {
                open.push((n, 0));
            }
        }
        let Some((parent, at)) = open.last_mut() else {
            return Ok(());
        };
        let is_element = doc.kind(*parent) == NodeKind::Element;
        let children = doc.children(*parent);
        let skip = children[*at..]
            .iter()
            .take_while(|&&c| is_element && is_attr_child(doc, c))
            .count();
        match children.get(*at + skip) {
            Some(&c) => {
                *at += skip + 1;
                if pretty {
                    out.write_char('\n')?;
                }
                next = Some(c);
            }
            None => {
                let parent = *parent;
                open.pop();
                if pretty {
                    out.write_char('\n')?;
                    indent(out, pretty, open.len())?;
                }
                write_close(doc, parent, out)?;
            }
        }
    }
}

/// Writes a node's start: a text node whole, an element's or a call's
/// start tag, and — when it has no content or only one text child — its
/// content and end tag too. Returns whether its children must follow.
fn write_open<W: Write>(doc: &Document, node: NodeId, out: &mut W) -> Result<bool, fmt::Error> {
    let is_element = match doc.kind(node) {
        NodeKind::Text => {
            write_text(out, doc.label(node))?;
            return Ok(false);
        }
        NodeKind::Element => {
            out.write_char('<')?;
            out.write_str(doc.label(node))?;
            for &c in doc.children(node) {
                if is_attr_child(doc, c) {
                    let value = doc
                        .children(c)
                        .first()
                        .and_then(|&v| doc.text_value(v))
                        .unwrap_or("");
                    out.write_char(' ')?;
                    out.write_str(&doc.label(c)[1..])?;
                    out.write_str("=\"")?;
                    write_attr(out, value)?;
                    out.write_char('"')?;
                }
            }
            true
        }
        NodeKind::Call(_) => {
            out.write_str("<axml:call service=\"")?;
            write_attr(out, doc.label(node))?;
            out.write_char('"')?;
            false
        }
    };
    // an element's content is its non-attribute children; a call's is
    // all of its parameters
    let mut content = doc
        .children(node)
        .iter()
        .copied()
        .filter(|&c| !(is_element && is_attr_child(doc, c)));
    let Some(first) = content.next() else {
        out.write_str("/>")?;
        return Ok(false);
    };
    out.write_char('>')?;
    if doc.kind(first) == NodeKind::Text && content.next().is_none() {
        write_text(out, doc.label(first))?;
        write_close(doc, node, out)?;
        return Ok(false);
    }
    Ok(true)
}

/// Writes the end tag of an element or a call.
fn write_close<W: Write>(doc: &Document, node: NodeId, out: &mut W) -> fmt::Result {
    match doc.kind(node) {
        NodeKind::Element => {
            out.write_str("</")?;
            out.write_str(doc.label(node))?;
            out.write_char('>')
        }
        _ => out.write_str("</axml:call>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    fn sample() -> Document {
        let mut d = Document::with_root("hotel");
        let name = d.add_element(d.root(), "name");
        d.add_text(name, "Best & Western");
        let rating = d.add_element(d.root(), "rating");
        let call = d.add_call(rating, "getRating");
        d.add_text(call, "75 2nd Av");
        d.add_element(d.root(), "nearby");
        d
    }

    #[test]
    fn compact_serialization() {
        let d = sample();
        assert_eq!(
            to_xml(&d),
            "<hotel><name>Best &amp; Western</name>\
             <rating><axml:call service=\"getRating\">75 2nd Av</axml:call></rating>\
             <nearby/></hotel>"
        );
    }

    #[test]
    fn pretty_serialization_indents() {
        let d = sample();
        let s = to_xml_with(
            &d,
            SerializeOptions {
                pretty: true,
                declaration: true,
            },
        );
        assert!(s.starts_with("<?xml version=\"1.0\""));
        assert!(s.contains("\n  <name>"));
    }

    #[test]
    fn attribute_children_serialize_as_attributes() {
        let mut d = Document::with_root("movie");
        let a = d.add_element(d.root(), "@year");
        d.add_text(a, "2004");
        d.add_element(d.root(), "title");
        assert_eq!(to_xml(&d), "<movie year=\"2004\"><title/></movie>");
    }

    #[test]
    fn serialized_len_counts_bytes() {
        let d = sample();
        assert_eq!(serialized_len(&d, d.root()), to_xml(&d).len());
    }

    #[test]
    fn forest_serialization_concatenates_roots() {
        let mut f = Document::new();
        f.add_root("a");
        f.add_root("b");
        assert_eq!(to_xml(&f), "<a/><b/>");
        assert_eq!(forest_serialized_len(&f), 8);
    }

    #[test]
    fn children_serialize_in_place_as_their_forest() {
        let d = crate::parse(
            "<r><axml:call service=\"f\"><k a=\"&quot;\">x &amp; y</k>t<axml:call service=\"g\"/></axml:call></r>",
        )
        .unwrap();
        let call = d.children(d.root())[0];
        assert_eq!(
            children_to_xml(&d, call),
            to_xml(&d.children_to_forest(call))
        );
    }

    #[test]
    fn empty_call_is_self_closing() {
        let mut d = Document::with_root("r");
        d.add_call(d.root(), "f");
        assert_eq!(to_xml(&d), "<r><axml:call service=\"f\"/></r>");
    }
}
