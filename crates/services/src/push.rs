//! Provider-side evaluation of pushed queries (Section 7).
//!
//! When a call is invoked with a pushed subquery `sub_q_v`, the provider
//! does not return the whole result but only the part useful for the
//! query. Two faithful encodings are implemented (the paper's text
//! describing re-integration is truncated in our source — see DESIGN.md):
//!
//! * **Pruned-result** ([`prune_result`], what the registry's providers
//!   return): the provider keeps only the nodes of its result that
//!   *contribute* to `sub_q_v` (images of pattern nodes, paths realizing
//!   descendant edges, full subtrees under images of pattern leaves),
//!   **plus any remaining function nodes** — nested calls may still
//!   produce relevant data later, so dropping them would break
//!   completeness. Splicing the pruned forest preserves the query answer.
//! * **Bindings** ([`bindings_result`]): `<tuple>` elements binding the
//!   result variables, exactly like the paper's `getNearbyRestos` example
//!   (`<tuple><x>In Delis</x><y>2nd Ave.</y></tuple>…`). Only meaningful
//!   for extensional results.

use axml_query::{embeddings, EdgeKind, FunMatch, PLabel, PNodeId, Pattern};
use axml_xml::{Document, Forest, NodeId};
use std::collections::HashSet;

/// Relaxes a pushed pattern the way NFQs relax conditions (Figure 5):
/// every non-root node `u` becomes `OR(u, ())`, because a pending call in
/// the provider's own result may still produce the data satisfying `u`.
/// Pruning against the *relaxed* pattern keeps everything that could
/// contribute once nested calls are invoked — without it, pruning would
/// drop data (e.g. a restaurant's name) whose qualifying condition (its
/// rating) is still intensional, breaking completeness.
fn relax_for_pending(pattern: &Pattern) -> Pattern {
    let mut out = Pattern::new();
    let src_root = pattern.root();
    let root = out.set_root(pattern.node(src_root).label.clone());
    if pattern.node(src_root).is_result {
        out.mark_result(root);
    }
    for &c in &pattern.node(src_root).children {
        copy_relaxed(pattern, c, &mut out, root);
    }
    out
}

fn copy_relaxed(src: &Pattern, u: PNodeId, out: &mut Pattern, parent: PNodeId) {
    let or = out.add_child(parent, src.node(u).edge, PLabel::Or);
    let data = out.add_child(or, EdgeKind::Child, src.node(u).label.clone());
    if src.node(u).is_result {
        out.mark_result(data);
    }
    out.add_child(or, EdgeKind::Child, PLabel::Fun(FunMatch::Any));
    for &c in &src.node(u).children {
        copy_relaxed(src, c, out, data);
    }
}

/// Wraps `pattern` for embedding anywhere in a forest: `*//pattern ∪ pattern
/// at a root`. Used when the call position was reached via a descendant
/// edge.
fn anywhere_embeddings(
    pattern: &Pattern,
    forest: &Forest,
) -> Vec<std::collections::BTreeMap<PNodeId, NodeId>> {
    let mut out = embeddings(pattern, forest);
    // strictly-below case: wildcard root with a descendant edge
    let mut wrapped = Pattern::new();
    let root = wrapped.set_root(PLabel::Wildcard);
    let inner = wrapped.append_pattern(root, EdgeKind::Descendant, pattern);
    let _ = inner;
    for emb in embeddings(&wrapped, forest) {
        // drop the synthetic root's image; remap ids is unnecessary for the
        // node-set use below, so keep the map as-is
        out.push(emb);
    }
    out
}

/// The node set the provider keeps for a pushed query.
fn keep_set(orig: &Pattern, forest: &Forest, via: EdgeKind) -> HashSet<NodeId> {
    let pattern = &relax_for_pending(orig);
    let embs = match via {
        EdgeKind::Child => embeddings(pattern, forest),
        EdgeKind::Descendant => anywhere_embeddings(pattern, forest),
    };
    let mut keep: HashSet<NodeId> = HashSet::new();
    for emb in &embs {
        for (&_p, &v) in emb {
            keep.insert(v);
            // path closure up to the forest root (covers descendant edges
            // and the synthetic wrapper root)
            let mut cur = forest.parent(v);
            while let Some(n) = cur {
                if !keep.insert(n) {
                    break;
                }
                cur = forest.parent(n);
            }
        }
    }
    // keep full subtrees under images of pattern leaves (the answers the
    // engine will extract later)
    let leaf_nodes: Vec<PNodeId> = pattern
        .node_ids()
        .filter(|&p| pattern.node(p).children.is_empty())
        .collect();
    for emb in &embs {
        for &p in &leaf_nodes {
            if let Some(&v) = emb.get(&p) {
                for n in forest.descendants(v) {
                    keep.insert(n);
                }
            }
        }
    }
    // nested calls may produce relevant data later: keep them + ancestors
    for call in forest.calls() {
        for n in forest.descendants(call) {
            keep.insert(n);
        }
        let mut cur = forest.parent(call);
        while let Some(n) = cur {
            if !keep.insert(n) {
                break;
            }
            cur = forest.parent(n);
        }
    }
    keep
}

/// Evaluates a pushed query provider-side in pruned-result mode.
///
/// ```
/// use axml_services::prune_result;
/// use axml_query::{parse_query, EdgeKind};
/// use axml_xml::{parse, to_xml};
///
/// let full = parse(
///     "<restaurant><name>Jo</name><rating>*****</rating></restaurant>\
///      <restaurant><name>No</name><rating>*</rating></restaurant>",
/// ).unwrap();
/// let q = parse_query("/restaurant[rating=\"*****\"]/name").unwrap();
/// let pruned = prune_result(&q, &full, EdgeKind::Child);
/// assert!(to_xml(&pruned).contains("Jo"));
/// assert!(!to_xml(&pruned).contains("No"));
/// ```
pub fn prune_result(pattern: &Pattern, forest: &Forest, via: EdgeKind) -> Forest {
    let keep = keep_set(pattern, forest, via);
    let mut out = Forest::new();
    for &r in forest.roots() {
        if keep.contains(&r) {
            copy_kept(forest, r, None, &keep, &mut out);
        }
    }
    out
}

fn copy_kept(
    src: &Document,
    node: NodeId,
    parent: Option<NodeId>,
    keep: &HashSet<NodeId>,
    out: &mut Forest,
) {
    let label = src.label(node);
    let new = match (src.kind(node), parent) {
        (axml_xml::NodeKind::Element, Some(p)) => out.add_element(p, label),
        (axml_xml::NodeKind::Element, None) => out.add_root(label),
        (axml_xml::NodeKind::Text, Some(p)) => out.add_text(p, label),
        (axml_xml::NodeKind::Text, None) => out.add_root_text(label),
        (axml_xml::NodeKind::Call(_), Some(p)) => out.add_call(p, label),
        (axml_xml::NodeKind::Call(_), None) => out.add_root_call(label),
    };
    for &c in src.children(node) {
        if keep.contains(&c) {
            copy_kept(src, c, Some(new), keep, out);
        }
    }
}

/// Evaluates a pushed query provider-side in bindings mode: one `<tuple>`
/// per result, with one child per result node (named after the variable,
/// or `col<i>` for non-variable result nodes), holding the bound node's
/// label. The tuples come in the order [`embeddings`] returns the
/// embeddings, which is sorted, not document order; no engine path uses
/// bindings mode.
pub fn bindings_result(pattern: &Pattern, forest: &Forest, via: EdgeKind) -> Forest {
    let embs = match via {
        EdgeKind::Child => embeddings(pattern, forest),
        EdgeKind::Descendant => anywhere_embeddings(pattern, forest),
    };
    let result_nodes = pattern.result_nodes();
    let mut seen: HashSet<Vec<String>> = HashSet::new();
    let mut out = Forest::new();
    for emb in embs {
        let mut row: Vec<(String, String)> = Vec::new();
        for (i, &rn) in result_nodes.iter().enumerate() {
            let Some(&v) = emb.get(&rn) else { continue };
            let name = match &pattern.node(rn).label {
                PLabel::Var(name) => name.to_string().to_lowercase(),
                _ => format!("col{i}"),
            };
            row.push((name, forest.label(v).to_string()));
        }
        if row.is_empty() {
            continue;
        }
        let key: Vec<String> = row.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if !seen.insert(key) {
            continue;
        }
        let t = out.add_root("tuple");
        for (k, v) in row {
            let c = out.add_element(t, k);
            out.add_text(c, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::parse_query;
    use axml_xml::{parse, to_xml};

    fn restos() -> Forest {
        parse(
            "<restaurant><name>In Delis</name><address>2nd Ave.</address>\
               <rating>*****</rating><menu><dish>pastrami</dish></menu></restaurant>\
             <restaurant><name>Grease</name><address>9th Ave.</address>\
               <rating>*</rating></restaurant>\
             <restaurant><name>The Capital</name><address>2nd Ave.</address>\
               <rating>*****</rating></restaurant>",
        )
        .unwrap()
    }

    #[test]
    fn prune_keeps_only_contributing_restaurants() {
        let q = parse_query("/restaurant[rating=\"*****\"][name=$X][address=$Y] -> $X,$Y").unwrap();
        let pruned = prune_result(&q, &restos(), EdgeKind::Child);
        assert_eq!(pruned.roots().len(), 2, "{}", to_xml(&pruned));
        let xml = to_xml(&pruned);
        assert!(xml.contains("In Delis"));
        assert!(xml.contains("The Capital"));
        assert!(!xml.contains("Grease"));
        // the menu subtree does not contribute and is pruned
        assert!(!xml.contains("pastrami"));
    }

    #[test]
    fn prune_preserves_answer() {
        let q = parse_query("/restaurant[rating=\"*****\"][name=$X][address=$Y] -> $X,$Y").unwrap();
        let full = restos();
        let pruned = prune_result(&q, &full, EdgeKind::Child);
        let before = axml_query::eval(&q, &full);
        let after = axml_query::eval(&q, &pruned);
        // same number of distinct answers (node ids differ)
        assert_eq!(before.len(), after.len());
        // and pruned is strictly smaller on the wire
        assert!(axml_xml::forest_serialized_len(&pruned) < axml_xml::forest_serialized_len(&full));
    }

    #[test]
    fn prune_with_descendant_edge_finds_deep_matches() {
        let f = parse("<area><list><restaurant><name>Jo</name></restaurant></list><junk/></area>")
            .unwrap();
        let q = parse_query("/restaurant/name").unwrap();
        let pruned = prune_result(&q, &f, EdgeKind::Descendant);
        let xml = to_xml(&pruned);
        assert!(xml.contains("Jo"), "{xml}");
        assert!(!xml.contains("junk"), "{xml}");
    }

    #[test]
    fn prune_keeps_nested_calls() {
        let f = parse(
            "<restaurant><name>Jo</name>\
               <rating><axml:call service=\"getRating\"/></rating></restaurant>\
             <unrelated/>",
        )
        .unwrap();
        let q = parse_query("/restaurant[rating=\"*****\"]/name").unwrap();
        // no extensional match yet, but the call could produce the rating:
        // it must survive pruning (with its restaurant context)
        let pruned = prune_result(&q, &f, EdgeKind::Child);
        let xml = to_xml(&pruned);
        assert!(xml.contains("axml:call"), "{xml}");
        assert!(!xml.contains("unrelated"), "{xml}");
    }

    #[test]
    fn prune_keeps_data_whose_condition_is_still_pending() {
        // Jo's rating is intensional: if it later comes back "*****", the
        // query needs Jo's name and address — they must survive pruning
        let f = parse(
            "<restaurant><name>Jo</name><address>Madison Av.</address>\
               <rating><axml:call service=\"getRating\">Jo</axml:call></rating>\
             </restaurant>\
             <restaurant><name>Grease</name><address>9th</address>\
               <rating>*</rating></restaurant>",
        )
        .unwrap();
        let q = parse_query("/restaurant[rating=\"*****\"][name=$X][address=$Y] -> $X,$Y").unwrap();
        let pruned = prune_result(&q, &f, EdgeKind::Child);
        let xml = to_xml(&pruned);
        assert!(xml.contains("Jo"), "{xml}");
        assert!(xml.contains("Madison Av."), "{xml}");
        assert!(xml.contains("axml:call"), "{xml}");
        // Grease's rating is extensional and disqualifying: dropped
        assert!(!xml.contains("Grease"), "{xml}");
    }

    #[test]
    fn prune_empty_when_nothing_contributes() {
        let q = parse_query("/museum/name").unwrap();
        let pruned = prune_result(&q, &restos(), EdgeKind::Child);
        assert!(pruned.roots().is_empty());
    }

    #[test]
    fn bindings_mode_matches_paper_example() {
        let q = parse_query("/restaurant[rating=\"*****\"][name=$X][address=$Y] -> $X,$Y").unwrap();
        let b = bindings_result(&q, &restos(), EdgeKind::Child);
        let xml = to_xml(&b);
        assert!(
            xml.contains("<tuple><x>In Delis</x><y>2nd Ave.</y></tuple>"),
            "{xml}"
        );
        assert!(
            xml.contains("<tuple><x>The Capital</x><y>2nd Ave.</y></tuple>"),
            "{xml}"
        );
        assert!(!xml.contains("Grease"));
    }

    #[test]
    fn bindings_deduplicate() {
        let f = parse("<r><a>same</a></r><r><a>same</a></r>").unwrap();
        let q = parse_query("/r[a=$V] -> $V").unwrap();
        let b = bindings_result(&q, &f, EdgeKind::Child);
        assert_eq!(b.roots().len(), 1);
    }
}
