//! Property tests for the XML substrate: parse/serialize round-trips and
//! arena integrity under random splice sequences.

use axml_xml::{
    decode_document, document_to_bytes, forest_serialized_len, parse, serialized_len,
    subtree_to_xml, to_xml, CallId, Document, Forest, NodeId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// A recipe for building a random document.
#[derive(Debug, Clone)]
enum Op {
    Element(u8),
    Text(u8),
    Call(u8),
    Up,
}

fn label(i: u8) -> String {
    format!("e{}", i % 12)
}

fn value(i: u8) -> String {
    // include XML-hostile characters to exercise escaping
    format!("v{} <&>'\"{}", i % 7, i)
}

fn service(i: u8) -> String {
    format!("svc{}", i % 5)
}

fn build(ops: &[Op]) -> Document {
    let mut d = Document::with_root("root");
    let mut stack = vec![d.root()];
    for op in ops {
        let top = *stack.last().unwrap();
        match op {
            Op::Element(i) => {
                let n = d.add_element(top, label(*i));
                stack.push(n);
            }
            Op::Text(i) => {
                d.add_text(top, value(*i));
            }
            Op::Call(i) => {
                let c = d.add_call(top, service(*i));
                d.add_text(c, value(*i));
            }
            Op::Up => {
                if stack.len() > 1 {
                    stack.pop();
                }
            }
        }
    }
    d
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Element),
        any::<u8>().prop_map(Op::Text),
        any::<u8>().prop_map(Op::Call),
        Just(Op::Up),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// serialize ∘ parse ∘ serialize = serialize (canonical form is a
    /// fixpoint of the round trip).
    #[test]
    fn serialize_parse_roundtrip(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let d = build(&ops);
        let xml = to_xml(&d);
        let d2 = parse(&xml).expect("own output must parse");
        prop_assert_eq!(to_xml(&d2), xml);
        d2.check_integrity().unwrap();
    }

    /// Arena integrity holds after any sequence of call splices, and
    /// the number of live calls evolves consistently.
    #[test]
    fn splice_sequences_preserve_integrity(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        picks in proptest::collection::vec(any::<u16>(), 0..12),
        grow in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        let mut d = build(&ops);
        d.check_integrity().unwrap();
        for (i, pick) in picks.iter().enumerate() {
            let calls: Vec<NodeId> = d.calls();
            if calls.is_empty() { break; }
            let target = calls[(*pick as usize) % calls.len()];
            let mut result = Forest::new();
            if grow.get(i).copied().unwrap_or(false) {
                // result that itself contains a nested call
                let e = result.add_root("grown");
                result.add_call(e, "nested");
            } else {
                result.add_root_text("leaf");
            }
            d.splice_call(target, &result);
            d.check_integrity().unwrap();
        }
    }

    /// Clones share pages until written, and a splice writes only pages
    /// its own document owns: splicing in a clone — results with nested
    /// calls, only text, or nothing — leaves the source's bytes, calls
    /// and integrity as they were, and splicing in the source leaves the
    /// clone's.
    #[test]
    fn splices_in_one_clone_never_show_in_the_other(
        ops in proptest::collection::vec(op_strategy(), 0..150),
        picks in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        swap in any::<bool>(),
    ) {
        let source = build(&ops);
        let mut docs = [source.clone(), source];
        let (kept, spliced) = if swap { (1, 0) } else { (0, 1) };
        let observe = |d: &Document| (to_xml(d), document_to_bytes(d), d.calls());
        let before = observe(&docs[kept]);
        for &(pick, shape) in &picks {
            let d = &mut docs[spliced];
            let calls = d.calls();
            if calls.is_empty() { break; }
            let target = calls[(pick as usize) % calls.len()];
            let mut result = Forest::new();
            match shape % 3 {
                0 => {
                    let e = result.add_root(label(shape));
                    result.add_call(e, "nested");
                    result.add_root_call(service(shape));
                }
                1 => {
                    result.add_root_text(value(shape));
                }
                _ => {}
            }
            d.splice_call(target, &result);
            d.check_integrity().unwrap();
        }
        prop_assert_eq!(observe(&docs[kept]), before);
        docs[kept].check_integrity().unwrap();
    }

    /// Document order is a strict total order on live nodes.
    #[test]
    fn document_order_is_total(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let d = build(&ops);
        let nodes: Vec<NodeId> = d.all_nodes().collect();
        // pre-order traversal yields strictly increasing document order
        for w in nodes.windows(2) {
            prop_assert_eq!(d.cmp_document_order(w[0], w[1]), std::cmp::Ordering::Less);
            prop_assert_eq!(d.cmp_document_order(w[1], w[0]), std::cmp::Ordering::Greater);
        }
    }

    /// Deep copies are structurally identical to their source subtree.
    #[test]
    fn subtree_copy_serializes_identically(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let d = build(&ops);
        let mut f = Forest::new();
        f.append_copy_as_root(&d, d.root());
        prop_assert_eq!(to_xml(&f), to_xml(&d));
    }
}

/// A recipe step for forests that exercise every serializer branch.
#[derive(Debug, Clone)]
enum ForestOp {
    /// One of [`Op`]'s steps (elements, escaped text, calls with one text
    /// parameter, going up).
    Base(Op),
    /// An `@` attribute child, with an escaped value or none.
    Attr(u8, bool),
    /// A call without parameters.
    BareCall(u8),
    /// A call whose parameters the following steps build.
    OpenCall(u8),
    /// A new root element.
    Root(u8),
}

fn forest_op_strategy() -> impl Strategy<Value = ForestOp> {
    prop_oneof![
        op_strategy().prop_map(ForestOp::Base),
        (any::<u8>(), any::<bool>()).prop_map(|(i, v)| ForestOp::Attr(i, v)),
        any::<u8>().prop_map(ForestOp::BareCall),
        any::<u8>().prop_map(ForestOp::OpenCall),
        any::<u8>().prop_map(ForestOp::Root),
    ]
}

fn build_forest(ops: &[ForestOp]) -> Forest {
    let mut d = Forest::new();
    let mut stack = vec![d.add_root("root")];
    for op in ops {
        let top = *stack.last().unwrap();
        match op {
            ForestOp::Base(Op::Element(i)) => stack.push(d.add_element(top, label(*i))),
            ForestOp::Base(Op::Text(i)) => {
                d.add_text(top, value(*i));
            }
            ForestOp::Base(Op::Call(i)) => {
                let c = d.add_call(top, service(*i));
                d.add_text(c, value(*i));
            }
            ForestOp::Base(Op::Up) => {
                if stack.len() > 1 {
                    stack.pop();
                }
            }
            ForestOp::Attr(i, with_value) => {
                let a = d.add_element(top, format!("@a{}", i % 3));
                if *with_value {
                    d.add_text(a, value(*i));
                }
            }
            ForestOp::BareCall(i) => {
                d.add_call(top, service(*i));
            }
            ForestOp::OpenCall(i) => stack.push(d.add_call(top, service(*i))),
            ForestOp::Root(i) => stack = vec![d.add_root(label(*i))],
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Byte counting runs the serializer into a counter: it must count
    /// exactly the bytes the serializer writes, for every subtree and for
    /// the whole forest.
    #[test]
    fn serialized_len_counts_the_serialized_bytes(
        ops in proptest::collection::vec(forest_op_strategy(), 0..60),
    ) {
        let f = build_forest(&ops);
        for n in f.all_nodes() {
            prop_assert_eq!(serialized_len(&f, n), subtree_to_xml(&f, n).len());
        }
        let by_root: usize = f.roots().iter().map(|&r| subtree_to_xml(&f, r).len()).sum();
        prop_assert_eq!(forest_serialized_len(&f), by_root);
        prop_assert_eq!(forest_serialized_len(&f), to_xml(&f).len());
    }
}

/// The per-run classifier the document's call index replaced, kept as
/// the index's reference. It classifies each live call on first sight by
/// walking the call's ancestors, and trusts the class ever after: a
/// call's ancestors are removed only together with it. A class here is a
/// parent label path as text, so it shares nothing with the index's
/// symbols or numbering.
#[derive(Clone, Default)]
struct ReferenceGuide {
    /// The call's parent label path, or `None` inside another call's
    /// parameters.
    class: HashMap<CallId, Option<Vec<String>>>,
}

impl ReferenceGuide {
    fn class_of(&mut self, doc: &Document, node: NodeId) -> Option<Vec<String>> {
        let (id, _) = doc.call_info(node).expect("a call node");
        self.class
            .entry(id)
            .or_insert_with(|| {
                let mut path = Vec::new();
                let mut cur = doc.parent(node);
                while let Some(p) = cur {
                    if !doc.is_data(p) {
                        return None;
                    }
                    path.push(doc.label(p).to_string());
                    cur = doc.parent(p);
                }
                path.reverse();
                Some(path)
            })
            .clone()
    }

    /// Every non-empty extent: class path → the ids of its calls, sorted.
    fn extents(&mut self, doc: &Document) -> BTreeMap<Vec<String>, Vec<CallId>> {
        let mut out: BTreeMap<Vec<String>, Vec<CallId>> = BTreeMap::new();
        for &node in doc.calls_unordered() {
            if let Some(path) = self.class_of(doc, node) {
                out.entry(path)
                    .or_default()
                    .push(doc.call_info(node).unwrap().0);
            }
        }
        out.values_mut().for_each(|ids| ids.sort());
        out
    }
}

/// The document's own extents, in the reference's terms; also checks
/// that each indexed call's class is the one `call_class` reports.
fn index_extents(doc: &Document) -> BTreeMap<Vec<String>, Vec<CallId>> {
    let mut out = BTreeMap::new();
    for class in 0..doc.class_count() as u32 {
        let extent = doc.class_extent(class);
        if extent.is_empty() {
            continue;
        }
        let path: Vec<String> = doc
            .class_path(class)
            .iter()
            .map(|&s| doc.sym_text(s).to_string())
            .collect();
        let mut ids: Vec<CallId> = extent
            .iter()
            .map(|&n| {
                assert_eq!(doc.call_class(n), Some(class));
                doc.call_info(n).unwrap().0
            })
            .collect();
        ids.sort();
        assert!(out.insert(path, ids).is_none(), "two classes share a path");
    }
    out
}

/// A service result of one of six shapes: empty, text, an element with a
/// call, root-level calls, a call inside another call's parameters, and
/// a call one element deeper, beside a text.
fn result_of_shape(shape: u8) -> Forest {
    let mut result = Forest::new();
    match shape % 6 {
        0 => {}
        1 => {
            result.add_root_text(value(shape));
        }
        2 => {
            let e = result.add_root(label(shape));
            result.add_call(e, service(shape));
        }
        3 => {
            result.add_root_call(service(shape));
            result.add_root_call("nested");
        }
        4 => {
            let e = result.add_root(label(shape));
            let outer = result.add_call(e, service(shape));
            let param = result.add_element(outer, "param");
            result.add_call(param, "hidden");
        }
        _ => {
            let e = result.add_root(label(shape));
            let a = result.add_element(e, label(shape.wrapping_add(1)));
            result.add_call(a, service(shape.wrapping_add(2)));
            result.add_text(a, value(shape));
        }
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The document's call index agrees with the reference classifier
    /// through random builds, splices and clones. Two clones of one
    /// document take random splices (visible and hidden calls alike) and
    /// are sometimes re-cloned from each other; after every step both
    /// clones' extents equal their references', so a splice on one clone
    /// never shows in the other's extents, and a decoded copy rebuilds
    /// the same extents anew.
    #[test]
    fn call_index_matches_the_reference_classifier(
        ops in proptest::collection::vec(forest_op_strategy(), 0..80),
        steps in proptest::collection::vec((any::<u16>(), any::<u8>(), 0u8..5), 1..16),
    ) {
        let source = build_forest(&ops);
        let mut docs = [source.clone(), source];
        let mut guides = [ReferenceGuide::default(), ReferenceGuide::default()];
        for &(pick, shape, action) in &steps {
            let (side, other) = if action % 2 == 0 { (0, 1) } else { (1, 0) };
            if action == 4 {
                docs[other] = docs[side].clone();
                guides[other] = guides[side].clone();
            } else {
                let untouched = index_extents(&docs[other]);
                let calls = docs[side].calls();
                if calls.is_empty() {
                    continue;
                }
                let target = calls[pick as usize % calls.len()];
                docs[side].splice_call(target, &result_of_shape(shape));
                prop_assert_eq!(index_extents(&docs[other]), untouched);
            }
            for (d, g) in docs.iter().zip(&mut guides) {
                d.check_integrity().unwrap();
                prop_assert_eq!(index_extents(d), g.extents(d));
            }
        }
        for d in &docs {
            let rebuilt = decode_document(&document_to_bytes(d)).unwrap();
            prop_assert_eq!(index_extents(&rebuilt), index_extents(d));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser must never panic, whatever the input — it returns a
    /// ParseError instead.
    #[test]
    fn parser_never_panics(input in "\\PC*") {
        let _ = parse(&input);
    }

    /// Near-XML garbage: structured fragments glued randomly.
    #[test]
    fn parser_never_panics_on_near_xml(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<a>".to_string()),
                Just("</a>".to_string()),
                Just("<axml:call service=\"f\">".to_string()),
                Just("</axml:call>".to_string()),
                Just("<![CDATA[x]]>".to_string()),
                Just("<!-- c -->".to_string()),
                Just("&amp;".to_string()),
                Just("&bogus;".to_string()),
                Just("text".to_string()),
                Just("<b attr=\"v\"/>".to_string()),
                Just("<?pi?>".to_string()),
                Just("<".to_string()),
                Just("]]>".to_string()),
            ],
            0..12,
        )
    ) {
        let input = parts.concat();
        if let Ok(d) = parse(&input) {
            d.check_integrity().unwrap();
            // anything we accept must round-trip through our serializer
            let again = parse(&to_xml(&d)).unwrap();
            prop_assert_eq!(to_xml(&again), to_xml(&d));
        }
    }
}
