//! Differential testing of the embedding evaluator against an independent
//! brute-force oracle implementing Definition 1 literally: enumerate every
//! structural embedding by exhaustive backtracking, check variable joins
//! on the complete mapping, restrict to result nodes — no memoization, no
//! join-blind fast paths, no candidate indexes, no shared code with the
//! production evaluator.

use axml_query::{
    embeddings, eval, render_result_refs, EdgeKind, FunMatch, PLabel, PNodeId, Pattern, ResultTuple,
};
use axml_xml::{Document, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The snapshot result `q(d)` by exhaustive search.
fn oracle(pattern: &Pattern, doc: &Document) -> BTreeSet<ResultTuple> {
    let mut out = BTreeSet::new();
    if pattern.is_empty() {
        return out;
    }
    for &root in doc.roots() {
        for emb in embed_raw(pattern, doc, pattern.root(), root) {
            if !joins_ok(pattern, doc, &emb) {
                continue;
            }
            let tuple: ResultTuple = pattern
                .result_nodes()
                .into_iter()
                .filter_map(|r| emb.get(&r).map(|&n| (r, n)))
                .collect();
            out.insert(tuple);
        }
    }
    out
}

/// Variable-join check over a complete mapping (Definition 1: all
/// occurrences of a variable map to nodes with identical labels).
fn joins_ok(pattern: &Pattern, doc: &Document, emb: &BTreeMap<PNodeId, NodeId>) -> bool {
    let mut bound: BTreeMap<&str, &str> = BTreeMap::new();
    for (&p, &v) in emb {
        if let PLabel::Var(name) = &pattern.node(p).label {
            let label = doc.label(v);
            if let Some(prev) = bound.get(name.as_str()) {
                if *prev != label {
                    return false;
                }
            }
            bound.insert(name.as_str(), label);
        }
    }
    true
}

/// Every structural embedding of `p`'s subtree with `p ↦ v` (OR nodes map
/// to the chosen branch's image); joins deferred to `joins_ok`.
fn embed_raw(
    pattern: &Pattern,
    doc: &Document,
    p: PNodeId,
    v: NodeId,
) -> Vec<BTreeMap<PNodeId, NodeId>> {
    if let PLabel::Or = pattern.node(p).label {
        return pattern
            .node(p)
            .children
            .iter()
            .flat_map(|&b| embed_raw(pattern, doc, b, v))
            .collect();
    }
    let label_ok = match &pattern.node(p).label {
        PLabel::Const(c) => doc.is_data(v) && doc.label(v) == c.as_str(),
        PLabel::Var(_) | PLabel::Wildcard => doc.is_data(v),
        PLabel::Fun(m) => doc
            .call_info(v)
            .is_some_and(|(_, svc)| m.accepts(svc.as_str())),
        PLabel::Or => unreachable!(),
    };
    if !label_ok {
        return Vec::new();
    }
    let mut results: Vec<BTreeMap<PNodeId, NodeId>> = vec![BTreeMap::from([(p, v)])];
    for &pc in &pattern.node(p).children {
        let candidates: Vec<NodeId> = match pattern.node(pc).edge {
            EdgeKind::Child => doc.children(v).to_vec(),
            EdgeKind::Descendant => data_descendants(doc, v),
        };
        let mut next = Vec::new();
        for base in &results {
            for &u in &candidates {
                for sub in embed_raw(pattern, doc, pc, u) {
                    let mut merged = base.clone();
                    merged.extend(sub);
                    next.push(merged);
                }
            }
        }
        results = next;
        if results.is_empty() {
            break;
        }
    }
    results
}

/// Strict descendants visible to queries (never below a function node).
fn data_descendants(doc: &Document, v: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    if !doc.is_data(v) {
        return out;
    }
    let mut stack: Vec<NodeId> = doc.children(v).to_vec();
    while let Some(n) = stack.pop() {
        out.push(n);
        if doc.is_data(n) {
            stack.extend(doc.children(n).iter().copied());
        }
    }
    out
}

/// A small random forest of one to three roots: the first is a `root`
/// element, a further one a `root` or `e0` element or a call.
fn random_doc(seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Document::with_root("root");
    let mut frontier = vec![d.root()];
    for _ in 1..rng.gen_range(1..4) {
        match rng.gen_range(0..4) {
            0 => {
                d.add_root_call("svc0");
            }
            1 => frontier.push(d.add_root("e0")),
            _ => frontier.push(d.add_root("root")),
        }
    }
    for _ in 0..rng.gen_range(3..22) {
        let parent = frontier[rng.gen_range(0..frontier.len())];
        match rng.gen_range(0..10) {
            0 => {
                d.add_call(parent, format!("svc{}", rng.gen_range(0..2)));
            }
            1 | 2 => {
                d.add_text(parent, format!("v{}", rng.gen_range(0..3)));
            }
            _ => {
                let e = d.add_element(parent, format!("e{}", rng.gen_range(0..4)));
                frontier.push(e);
            }
        }
    }
    d
}

/// A random function test: `()` or a list of one or two services, one
/// of which no document calls.
fn random_fun(rng: &mut StdRng) -> PLabel {
    if rng.gen_bool(0.4) {
        return PLabel::Fun(FunMatch::Any);
    }
    let names = (0..rng.gen_range(1..3))
        .map(|_| format!("svc{}", rng.gen_range(0..3)).into())
        .collect();
    PLabel::Fun(FunMatch::OneOf(names))
}

/// A small random query over the same alphabet, possibly with repeated
/// (join) variables, function tests and result marks, and shaped like
/// the NFQs the engine evaluates: some nodes are wrapped in OR nodes of
/// one or two branches, the second branch often a function leaf, as in
/// an NFQ's `(u | *())` relaxations and their refined service lists.
/// Result marks stay off OR nodes.
fn random_pattern(seed: u64) -> Pattern {
    random_pattern_shaped(seed, true, true)
}

/// [`random_pattern`], with OR nodes only if `or_nodes` and with result
/// marks only if `results`.
fn random_pattern_shaped(seed: u64, or_nodes: bool, results: bool) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pattern::new();
    let root = p.set_root(PLabel::Const("root".into()));
    let mut frontier = vec![root];
    let n = rng.gen_range(1..6);
    for _ in 0..n {
        let parent = frontier[rng.gen_range(0..frontier.len())];
        let edge = if rng.gen_bool(0.4) {
            EdgeKind::Descendant
        } else {
            EdgeKind::Child
        };
        let label = match rng.gen_range(0..8) {
            0 => PLabel::Wildcard,
            1 => PLabel::Var(format!("V{}", rng.gen_range(0..2)).into()),
            2 => PLabel::Const(format!("v{}", rng.gen_range(0..3)).into()),
            3 => random_fun(&mut rng),
            _ => PLabel::Const(format!("e{}", rng.gen_range(0..4)).into()),
        };
        let is_fun = matches!(label, PLabel::Fun(_));
        let c = p.add_child(parent, edge, label);
        if !is_fun {
            frontier.push(c);
        }
    }
    let inner: Vec<PNodeId> = p.node_ids().filter(|&id| id != root).collect();
    for &id in inner.iter().filter(|_| or_nodes) {
        if !rng.gen_bool(0.35) {
            continue;
        }
        let or = p.wrap_in_or(id);
        match rng.gen_range(0..4) {
            0 => {}
            1 => {
                let label = PLabel::Const(format!("e{}", rng.gen_range(0..4)).into());
                p.add_child(or, EdgeKind::Child, label);
            }
            _ => {
                let label = random_fun(&mut rng);
                p.add_child(or, EdgeKind::Child, label);
            }
        }
    }
    let ids: Vec<PNodeId> = p
        .node_ids()
        .filter(|&id| !matches!(p.node(id).label, PLabel::Or))
        .collect();
    for _ in 0..rng.gen_range(1..3) {
        let pick = ids[rng.gen_range(0..ids.len())];
        if results {
            p.mark_result(pick);
        }
    }
    p
}

/// A chain of nested elements whose labels repeat (`e0`, `e1`), so that
/// a `//` step's images nest. A level may also hold a text value, a leaf
/// element or a call.
fn label_repeating_chain(seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Document::with_root("root");
    let mut at = d.root();
    for _ in 0..rng.gen_range(4..14) {
        match rng.gen_range(0..6) {
            0 => {
                d.add_text(at, format!("v{}", rng.gen_range(0..2)));
            }
            1 => {
                d.add_call(at, "svc0");
            }
            2 => {
                d.add_element(at, format!("e{}", rng.gen_range(0..2)));
            }
            _ => {}
        }
        at = d.add_element(at, format!("e{}", rng.gen_range(0..2)));
    }
    d
}

/// A query rooted at the chain's root label, then two or three nested
/// `//` steps over the chain's labels, sometimes followed by a child
/// step. A step's label may be a wildcard or a variable (repeated, it is
/// a join variable), and a step may carry a child or `//` condition. The
/// deepest step is a result node, and sometimes one more step or
/// condition is.
fn nested_descendant_query(seed: u64) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pattern::new();
    let mut at = p.set_root(PLabel::Const("root".into()));
    let mut marked = Vec::new();
    let step_label = |rng: &mut StdRng| match rng.gen_range(0..6) {
        0 => PLabel::Wildcard,
        1 => PLabel::Var("V".into()),
        _ => PLabel::Const(format!("e{}", rng.gen_range(0..2)).into()),
    };
    for _ in 0..rng.gen_range(2..4) {
        at = p.add_child(at, EdgeKind::Descendant, step_label(&mut rng));
        marked.push(at);
        if rng.gen_bool(0.3) {
            let edge = if rng.gen_bool(0.5) {
                EdgeKind::Child
            } else {
                EdgeKind::Descendant
            };
            let label = match rng.gen_range(0..3) {
                0 => PLabel::Const(format!("v{}", rng.gen_range(0..2)).into()),
                1 => random_fun(&mut rng),
                _ => PLabel::Const(format!("e{}", rng.gen_range(0..2)).into()),
            };
            marked.push(p.add_child(at, edge, label));
        }
    }
    if rng.gen_bool(0.3) {
        at = p.add_child(at, EdgeKind::Child, step_label(&mut rng));
    }
    p.mark_result(at);
    if rng.gen_bool(0.4) {
        p.mark_result(marked[rng.gen_range(0..marked.len())]);
    }
    p
}

/// [`nested_descendant_query`] with a join variable `$J`: one of its
/// nodes below the root becomes `$J`, and one more `$J` hangs under one of
/// its nodes by a child or a `//` edge. So a tabled `//` step's fragments
/// depend on the binding it inherits from a step above it, or bind `$J`
/// themselves.
fn nested_descendant_query_with_join(seed: u64) -> Pattern {
    let mut p = nested_descendant_query(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let ids: Vec<PNodeId> = p
        .node_ids()
        .filter(|&id| !matches!(p.node(id).label, PLabel::Fun(_)))
        .collect();
    let bound = ids[rng.gen_range(1..ids.len())];
    p.set_label(bound, PLabel::Var("J".into()));
    let at = ids[rng.gen_range(0..ids.len())];
    let edge = if rng.gen_bool(0.5) {
        EdgeKind::Child
    } else {
        EdgeKind::Descendant
    };
    let j = p.add_child(at, edge, PLabel::Var("J".into()));
    if rng.gen_bool(0.3) {
        p.mark_result(j);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The production evaluator agrees with literal Definition 1.
    #[test]
    fn evaluator_matches_brute_force_oracle(dseed in 0u64..100_000, qseed in 0u64..100_000) {
        let doc = random_doc(dseed);
        let q = random_pattern(qseed);
        let fast: BTreeSet<ResultTuple> = eval(&q, &doc).tuples();
        let slow = oracle(&q, &doc);
        prop_assert_eq!(fast, slow, "dseed={} qseed={}", dseed, qseed);
    }

    /// The same for patterns without result nodes: every embedding gives
    /// the empty tuple, so the result is zero or one empty tuple.
    #[test]
    fn evaluator_matches_brute_force_oracle_without_result_nodes(
        dseed in 0u64..100_000,
        qseed in 0u64..100_000,
    ) {
        let doc = random_doc(dseed);
        let q = random_pattern_shaped(qseed, true, false);
        prop_assert!(q.result_nodes().is_empty());
        let r = eval(&q, &doc);
        prop_assert!(r.len() <= 1);
        prop_assert_eq!(r.tuples(), oracle(&q, &doc), "dseed={} qseed={}", dseed, qseed);
    }

    /// Without OR nodes every result node is bound in every tuple, so the
    /// rendered rows come in the sorted order of the tuples: the order
    /// the CLI prints answers in. Most results have one row or arrive in
    /// order, so each case tries its pattern on eight documents.
    #[test]
    fn rendered_rows_of_or_free_patterns_follow_tuple_order(
        dseed in 0u64..100_000,
        qseed in 0u64..100_000,
    ) {
        let q = random_pattern_shaped(qseed, false, true);
        for dseed in dseed..dseed + 8 {
            let doc = random_doc(dseed);
            let r = eval(&q, &doc);
            let tuples = r.tuples();
            prop_assert_eq!(&tuples, &oracle(&q, &doc), "dseed={} qseed={}", dseed, qseed);
            let in_order: Vec<Vec<&str>> = tuples
                .iter()
                .map(|t| t.values().map(|&n| doc.label(n)).collect())
                .collect();
            prop_assert_eq!(
                render_result_refs(&doc, &r),
                in_order,
                "dseed={} qseed={}",
                dseed,
                qseed
            );
        }
    }

    /// The same on label-repeating chains under two or three nested `//`
    /// steps, where the enumeration reaches a step's images once per
    /// placement of the steps above it and tables their fragments.
    #[test]
    fn evaluator_matches_brute_force_oracle_on_nested_descendant_steps(
        dseed in 0u64..100_000,
        qseed in 0u64..100_000,
    ) {
        let doc = label_repeating_chain(dseed);
        let q = nested_descendant_query(qseed);
        let fast: BTreeSet<ResultTuple> = eval(&q, &doc).tuples();
        let slow = oracle(&q, &doc);
        prop_assert_eq!(fast, slow, "dseed={} qseed={}", dseed, qseed);
    }

    /// The same with a join variable in every query, where a tabled
    /// step's fragments depend on the bindings it inherits.
    #[test]
    fn evaluator_matches_brute_force_oracle_on_nested_descendant_steps_with_a_join(
        dseed in 0u64..100_000,
        qseed in 0u64..100_000,
    ) {
        let doc = label_repeating_chain(dseed);
        let q = nested_descendant_query_with_join(qseed);
        prop_assert!(!q.join_variables().is_empty());
        let fast: BTreeSet<ResultTuple> = eval(&q, &doc).tuples();
        let slow = oracle(&q, &doc);
        prop_assert_eq!(fast, slow, "dseed={} qseed={}", dseed, qseed);
    }

    /// `embeddings`, taken as a set, is exactly the set of full
    /// embeddings: every structural embedding from every root whose
    /// variable joins hold.
    #[test]
    fn embeddings_match_brute_force_full_embeddings(
        dseed in 0u64..100_000,
        qseed in 0u64..100_000,
    ) {
        let doc = random_doc(dseed);
        let q = random_pattern(qseed);
        let fast: BTreeSet<BTreeMap<PNodeId, NodeId>> = embeddings(&q, &doc).into_iter().collect();
        let slow: BTreeSet<BTreeMap<PNodeId, NodeId>> = doc
            .roots()
            .iter()
            .flat_map(|&r| embed_raw(&q, &doc, q.root(), r))
            .filter(|emb| joins_ok(&q, &doc, emb))
            .collect();
        prop_assert_eq!(fast, slow, "dseed={} qseed={}", dseed, qseed);
    }
}
