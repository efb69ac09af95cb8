//! Construction of result documents from snapshot results.
//!
//! The paper's engine returns query *results* — for integration with the
//! surrounding XML world (serializing answers, exchanging them, feeding
//! them to further queries), this module materializes a snapshot result as
//! an XML document:
//!
//! ```text
//! <results>
//!   <tuple><x>In Delis</x><y>2nd Ave.</y></tuple>
//!   <tuple><x>The Capital</x><y>2nd Ave.</y></tuple>
//! </results>
//! ```
//!
//! Columns are named after the bound variable (lowercased) when the result
//! node is a variable, `col<i>` otherwise. Element bindings copy the whole
//! bound subtree; text bindings copy the value.

use crate::eval::SnapshotResult;
use crate::pattern::{PLabel, PNodeId, Pattern};
use axml_xml::Document;
use std::collections::BTreeMap;

/// Materializes a snapshot result as a `<results>` document.
///
/// ```
/// use axml_query::{construct_results, eval, parse_query};
/// use axml_xml::{parse, to_xml};
///
/// let doc = parse("<r><p><n>ana</n></p></r>").unwrap();
/// let q = parse_query("/r/p[n=$NAME] -> $NAME").unwrap();
/// let out = construct_results(&doc, &q, &eval(&q, &doc));
/// assert_eq!(to_xml(&out), "<results><tuple><name>ana</name></tuple></results>");
/// ```
pub fn construct_results(doc: &Document, pattern: &Pattern, result: &SnapshotResult) -> Document {
    let mut out = Document::with_root("results");
    let root = out.root();
    let col_names: BTreeMap<PNodeId, String> = pattern
        .result_nodes()
        .into_iter()
        .enumerate()
        .map(|(i, rn)| {
            let name = match &pattern.node(rn).label {
                PLabel::Var(v) => v.to_string().to_lowercase(),
                _ => format!("col{i}"),
            };
            (rn, name)
        })
        .collect();
    for row in result.rows() {
        let t = out.add_element(root, "tuple");
        for (rn, bound) in row {
            let Some(name) = col_names.get(&rn) else {
                continue;
            };
            let col = out.add_element(t, name.as_str());
            if let Some(text) = doc.text_value(bound) {
                out.add_text(col, text.to_string());
            } else {
                out.append_copy(col, doc, bound);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parser::parse_query;
    use axml_xml::{parse, to_xml};

    #[test]
    fn variable_bindings_become_named_columns() {
        let d =
            parse("<r><p><n>ana</n><a>main st</a></p><p><n>bob</n><a>elm st</a></p></r>").unwrap();
        let q = parse_query("/r/p[n=$NAME][a=$ADDR] -> $NAME,$ADDR").unwrap();
        let res = eval(&q, &d);
        let out = construct_results(&d, &q, &res);
        let xml = to_xml(&out);
        assert!(xml.starts_with("<results>"));
        assert!(
            xml.contains("<tuple><name>ana</name><addr>main st</addr></tuple>"),
            "{xml}"
        );
        assert!(
            xml.contains("<tuple><name>bob</name><addr>elm st</addr></tuple>"),
            "{xml}"
        );
    }

    #[test]
    fn element_bindings_copy_subtrees() {
        let d = parse("<r><show><title>X</title><schedule>20:30</schedule></show></r>").unwrap();
        let q = parse_query("/r/show").unwrap();
        let out = construct_results(&d, &q, &eval(&q, &d));
        let xml = to_xml(&out);
        assert!(
            xml.contains("<col0><show><title>X</title><schedule>20:30</schedule></show></col0>"),
            "{xml}"
        );
    }

    #[test]
    fn empty_result_is_an_empty_results_element() {
        let d = parse("<r/>").unwrap();
        let q = parse_query("/r/missing").unwrap();
        let out = construct_results(&d, &q, &eval(&q, &d));
        assert_eq!(to_xml(&out), "<results/>");
    }

    #[test]
    fn constructed_document_is_parseable() {
        let d = parse("<r><p><n>a&amp;b</n></p></r>").unwrap();
        let q = parse_query("/r/p[n=$V] -> $V").unwrap();
        let out = construct_results(&d, &q, &eval(&q, &d));
        let reparsed = parse(&to_xml(&out)).unwrap();
        assert_eq!(to_xml(&reparsed), to_xml(&out));
    }
}
