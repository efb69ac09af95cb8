//! The function-call guide (F-guide) of Section 6.2.
//!
//! In the spirit of dataguides, the F-guide is a tree summarizing — with a
//! single occurrence per path — **only the label paths that lead to
//! function calls** in a document. Each guide node stores the *extent*:
//! pointers to the call nodes reachable through that path. The guide is
//! built in one document-order traversal, maintained incrementally as
//! calls are invoked, and answers linear path queries with the same result
//! they would have on the document, at a fraction of the size.
//!
//! Candidate calls from the guide are then narrowed by type-based
//! filtering (Section 6.2 "Type-based filtering") and by checking the
//! remaining NFQ conditions against the document ("NFQ filtering").

use crate::nfq::Nfq;
use axml_query::{EdgeKind, EvalOptions, LinearPath, Matcher, PNodeId, StepTest};
use axml_xml::{Document, Label, NodeId};
use std::collections::HashMap;

/// One node of the guide tree. Children are keyed by the document's
/// interned label symbols, so guide navigation is integer compares.
#[derive(Clone, Debug, Default)]
struct GNode {
    children: HashMap<u32, usize>,
    /// Call nodes whose parent path ends at this guide node.
    extent: Vec<(NodeId, Label)>,
}

/// A function-call guide over one document.
///
/// ```
/// use axml_core::FGuide;
/// use axml_query::{parse_query, EdgeKind, LinearPath};
/// use axml_xml::parse;
///
/// let doc = parse(
///     "<hotels><hotel><nearby>\
///        <axml:call service=\"getNearbyRestos\"/></nearby></hotel></hotels>",
/// ).unwrap();
/// let guide = FGuide::build(&doc);
/// // calls strictly below /hotels/hotel
/// let q = parse_query("/hotels/hotel/x").unwrap();
/// let lin = LinearPath::to_node(&q, q.result_nodes()[0], false);
/// assert_eq!(guide.eval_linear(&doc, &lin, EdgeKind::Descendant).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct FGuide {
    nodes: Vec<GNode>,
    /// synthetic root above the document roots
    root: usize,
}

impl FGuide {
    /// Builds the guide in a single traversal (linear in document size).
    pub fn build(doc: &Document) -> FGuide {
        let mut g = FGuide {
            nodes: vec![GNode::default()],
            root: 0,
        };
        for &r in doc.roots() {
            g.scan(doc, r, 0);
        }
        g
    }

    fn scan(&mut self, doc: &Document, node: NodeId, at: usize) {
        if let Some((_, service)) = doc.call_info(node) {
            let service = service.clone();
            self.nodes[at].extent.push((node, service));
            return; // parameters are not document content
        }
        if doc.text_value(node).is_some() {
            return;
        }
        // element: descend, creating the path lazily only when a call is
        // found below (to keep the guide call-path-only, prune afterwards)
        let next = self.child_or_create(at, doc.sym(node));
        for &c in doc.children(node) {
            self.scan(doc, c, next);
        }
    }

    fn child_or_create(&mut self, at: usize, sym: u32) -> usize {
        if let Some(&c) = self.nodes[at].children.get(&sym) {
            return c;
        }
        let id = self.nodes.len();
        self.nodes.push(GNode::default());
        self.nodes[at].children.insert(sym, id);
        id
    }

    /// Number of guide nodes (compactness metric reported in experiments).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the guide is trivial.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Total number of calls across all extents.
    pub fn total_extent(&self) -> usize {
        self.nodes.iter().map(|n| n.extent.len()).sum()
    }

    /// Removes one call (identified by node id) from the extent at the
    /// given parent label path. Call this *before* splicing its result.
    pub fn remove_call(&mut self, doc: &Document, parent_path: &[String], node: NodeId) {
        if let Some(at) = self.walk(doc, parent_path) {
            self.nodes[at].extent.retain(|(n, _)| *n != node);
        }
    }

    /// Registers the calls found in the subtree of `node`, whose parent's
    /// label path is `parent_path`. Call this for every root inserted by a
    /// splice.
    pub fn add_subtree(&mut self, doc: &Document, node: NodeId, parent_path: &[String]) {
        let mut at = self.root;
        for label in parent_path {
            // labels on the path of a live node are always interned
            let sym = doc
                .lookup_sym(label)
                .expect("parent-path label missing from document symbol table");
            at = self.child_or_create(at, sym);
        }
        self.scan(doc, node, at);
    }

    fn walk(&self, doc: &Document, path: &[String]) -> Option<usize> {
        let mut at = self.root;
        for label in path {
            at = *self.nodes[at].children.get(&doc.lookup_sym(label)?)?;
        }
        Some(at)
    }

    /// Evaluates a linear path query (`lin` followed by a `()` step via
    /// `via`) on the guide. Returns the candidate call nodes — the same set
    /// the LPQ would retrieve on the document (Section 6.2's equivalence).
    /// Step tests are compiled to the document's label symbols up front,
    /// so the walk itself is integer compares.
    pub fn eval_linear(
        &self,
        doc: &Document,
        lin: &LinearPath,
        via: EdgeKind,
    ) -> Vec<(NodeId, Label)> {
        // compile step tests: None = any label; Some(None) = unmatchable
        let steps: Vec<(EdgeKind, Option<Option<u32>>)> = lin
            .steps
            .iter()
            .map(|s| {
                let test = match &s.test {
                    StepTest::Label(l) => Some(doc.lookup_sym(l.as_str())),
                    StepTest::Any => None,
                };
                (s.edge, test)
            })
            .collect();
        // NFA-style state set walk over the guide tree
        let mut out = Vec::new();
        self.eval_at(self.root, &steps, via, &mut out);
        let mut seen = std::collections::HashSet::new();
        out.retain(|(n, _)| seen.insert(*n));
        out
    }

    fn eval_at(
        &self,
        at: usize,
        steps: &[(EdgeKind, Option<Option<u32>>)],
        via: EdgeKind,
        out: &mut Vec<(NodeId, Label)>,
    ) {
        match steps.first() {
            None => match via {
                EdgeKind::Child => out.extend(self.nodes[at].extent.iter().cloned()),
                EdgeKind::Descendant => {
                    // calls whose parent path ends here are themselves
                    // strict descendants of the matched node
                    out.extend(self.nodes[at].extent.iter().cloned());
                    self.collect_subtree(at, out);
                }
            },
            Some(&(edge, ref test)) => {
                for (&sym, &c) in &self.nodes[at].children {
                    let test_ok = match test {
                        Some(Some(want)) => sym == *want,
                        Some(None) => false, // label never interned: no match
                        None => true,
                    };
                    if test_ok {
                        self.eval_at(c, &steps[1..], via, out);
                    }
                    if edge == EdgeKind::Descendant {
                        // the descendant step may skip this child
                        self.eval_at(c, steps, via, out);
                    }
                }
            }
        }
    }

    fn collect_subtree(&self, at: usize, out: &mut Vec<(NodeId, Label)>) {
        let children: Vec<usize> = self.nodes[at].children.values().copied().collect();
        for c in children {
            out.extend(self.nodes[c].extent.iter().cloned());
            self.collect_subtree(c, out);
        }
    }
}

/// The residual NFQ check of Section 6.2: given candidate calls retrieved
/// positionally (from the F-guide or the engine's call table), keep those
/// for which the NFQ's remaining conditions hold — i.e. some alignment of
/// the NFQ's path onto the candidate's ancestor chain satisfies every side
/// condition. The conditions are checked under `opts`, which, like every
/// evaluator option, changes only the cost.
pub fn filter_candidates(
    nfq: &Nfq,
    doc: &Document,
    candidates: &[NodeId],
    opts: EvalOptions,
) -> Vec<NodeId> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let mut matcher = Matcher::with_options(&nfq.pattern, doc, opts);
    // the NFQ path: pattern root → parent of output (linear by construction)
    let mut path_nodes: Vec<PNodeId> = Vec::new();
    let mut cur = nfq.pattern.parent(nfq.output);
    while let Some(n) = cur {
        path_nodes.push(n);
        cur = nfq.pattern.parent(n);
    }
    path_nodes.reverse();

    let mut anc: Vec<NodeId> = Vec::new();
    candidates
        .iter()
        .copied()
        .filter(|&cand| {
            // ancestor chain of the candidate: root … parent(cand)
            anc.clear();
            let mut cur = doc.parent(cand);
            while let Some(n) = cur {
                anc.push(n);
                cur = doc.parent(n);
            }
            anc.reverse();
            align(nfq, &mut matcher, &path_nodes, &anc, 0, 0)
        })
        .collect()
}

/// Recursively aligns pattern path node `pi` starting at ancestor index
/// `aj`; checks labels and side conditions along the way.
fn align(
    nfq: &Nfq,
    matcher: &mut Matcher<'_, Document>,
    path: &[PNodeId],
    anc: &[NodeId],
    pi: usize,
    aj: usize,
) -> bool {
    if pi == path.len() {
        // all path nodes placed; the output hangs off the last one:
        // child edge ⇒ the last placed ancestor must be the direct parent
        // (aj == anc.len()); descendant ⇒ anywhere above works
        return match nfq.via {
            EdgeKind::Child => aj == anc.len(),
            EdgeKind::Descendant => aj <= anc.len(),
        };
    }
    if aj >= anc.len() {
        return false;
    }
    let p = path[pi];
    let edge = if pi == 0 {
        EdgeKind::Child
    } else {
        nfq.pattern.node(p).edge
    };
    let positions = match edge {
        EdgeKind::Child => aj..aj + 1,
        EdgeKind::Descendant => aj..anc.len(),
    };
    for j in positions {
        let v = anc[j];
        if !matcher.label_matches(p, v) {
            continue;
        }
        // side conditions of this path node (all children except the
        // continuation of the path / the output)
        let next_on_path = path.get(pi + 1).copied().unwrap_or(nfq.output);
        let sides_ok = nfq
            .pattern
            .node(p)
            .children
            .iter()
            .filter(|&&c| c != next_on_path)
            .all(|&c| match nfq.pattern.node(c).edge {
                EdgeKind::Child => matcher.child_matches(c, v),
                EdgeKind::Descendant => matcher.descendant_matches(c, v),
            });
        if sides_ok && align(nfq, matcher, path, anc, pi + 1, j + 1) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{output_services, CallTable, ClassVerdicts, Engine, EngineConfig};
    use crate::nfq::{build_lpqs, build_nfq, build_nfqs};
    use crate::plan::position_language;
    use crate::typed::TypeRefiner;
    use axml_gen::scenario::{figure4_query, generate, ScenarioParams};
    use axml_query::{parse_query, render, PLabel};
    use axml_schema::SatMode;
    use axml_xml::parse;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn fig1_doc() -> Document {
        parse(
            "<hotels>\
               <hotel><name>Best Western</name><address>75 2nd Av</address>\
                 <rating>*****</rating>\
                 <nearby><axml:call service=\"getNearbyRestos\">2nd Av</axml:call>\
                         <axml:call service=\"getNearbyMuseums\">2nd Av</axml:call></nearby>\
               </hotel>\
               <hotel><name>Pennsylvania</name><address>13 Penn St</address>\
                 <rating><axml:call service=\"getRating\">Penn</axml:call></rating>\
                 <nearby><axml:call service=\"getNearbyRestos\">Penn St</axml:call></nearby>\
               </hotel>\
               <axml:call service=\"getHotels\">NY</axml:call>\
             </hotels>",
        )
        .unwrap()
    }

    #[test]
    fn build_summarizes_call_paths_once() {
        let d = fig1_doc();
        let g = FGuide::build(&d);
        // paths: hotels, hotels/hotel, hotels/hotel/rating,
        // hotels/hotel/nearby (+ name/address paths without calls below —
        // they are created during the scan but carry no extents)
        assert_eq!(g.total_extent(), 5);
        assert!(g.len() < d.len(), "guide is more compact than the document");
    }

    #[test]
    fn linear_queries_on_guide_match_lpqs_on_document() {
        let d = fig1_doc();
        let g = FGuide::build(&d);
        let q = parse_query(
            "/hotels/hotel[name=\"Best Western\"][rating=\"*****\"]\
             /nearby//restaurant[name=$X] -> $X",
        )
        .unwrap();
        for lpq in build_lpqs(&q) {
            let on_doc = axml_query::eval(&lpq.pattern, &d);
            let mut doc_calls: Vec<NodeId> = on_doc.bindings_of(lpq.output);
            let mut guide_calls: Vec<NodeId> = g
                .eval_linear(&d, &lpq.lin, lpq.via)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            doc_calls.sort();
            guide_calls.sort();
            assert_eq!(doc_calls, guide_calls, "LPQ {} differs", lpq.lin);
        }
    }

    #[test]
    fn maintenance_after_splice() {
        let mut d = fig1_doc();
        let mut g = FGuide::build(&d);
        // invoke the Best Western getNearbyRestos: result contains a
        // restaurant with a nested getRating call (like Figure 3)
        let call = d
            .calls()
            .into_iter()
            .find(|&c| d.call_info(c).unwrap().1.as_str() == "getNearbyRestos")
            .unwrap();
        let parent = d.parent(call).unwrap();
        let parent_path = d.path_labels(parent);
        let result = parse(
            "<restaurant><name>Mama</name>\
               <rating><axml:call service=\"getRating\">Mama</axml:call></rating>\
             </restaurant>",
        )
        .unwrap();
        g.remove_call(&d, &parent_path, call);
        let inserted = d.splice_call(call, &result);
        for &r in &inserted {
            g.add_subtree(&d, r, &parent_path);
        }
        // the old call is gone, the nested getRating is indexed at
        // hotels/hotel/nearby/restaurant/rating
        assert_eq!(g.total_extent(), 5);
        let rebuilt = FGuide::build(&d);
        let lin = LinearPath::to_node(
            &parse_query("/hotels/hotel/nearby/restaurant/rating/x").unwrap(),
            parse_query("/hotels/hotel/nearby/restaurant/rating/x")
                .unwrap()
                .result_nodes()[0],
            false,
        );
        let mut a: Vec<NodeId> = g
            .eval_linear(&d, &lin, EdgeKind::Child)
            .into_iter()
            .map(|x| x.0)
            .collect();
        let mut b: Vec<NodeId> = rebuilt
            .eval_linear(&d, &lin, EdgeKind::Child)
            .into_iter()
            .map(|x| x.0)
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn descendant_output_collects_subtree_extents() {
        let d = fig1_doc();
        let g = FGuide::build(&d);
        // //() under /hotels/hotel: rating + nearby calls of both hotels
        let q = parse_query("/hotels/hotel/x").unwrap();
        let lin = LinearPath::to_node(&q, q.result_nodes()[0], false);
        let found = g.eval_linear(&d, &lin, EdgeKind::Descendant);
        assert_eq!(found.len(), 4);
    }

    #[test]
    fn residual_filtering_prunes_by_conditions() {
        let d = fig1_doc();
        let q = parse_query(
            "/hotels/hotel[name=\"Best Western\"][rating=\"*****\"]\
             /nearby//restaurant[name=$X] -> $X",
        )
        .unwrap();
        let restaurant = q
            .node_ids()
            .find(|&i| matches!(&q.node(i).label, PLabel::Const(l) if l.as_str() == "restaurant"))
            .unwrap();
        let nfq = build_nfq(&q, restaurant);
        // positional candidates: nearby calls of BOTH hotels
        let g = FGuide::build(&d);
        let candidates: Vec<NodeId> = g
            .eval_linear(&d, &nfq.lin, nfq.via)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(candidates.len(), 3); // 2 at BW (restos+museums), 1 at Penn
                                         // conditions keep: BW's two (name matches, rating matches) and
                                         // Penn's one? Penn's name ≠ Best Western and its name is
                                         // extensional: pruned. BW keeps both nearby calls.
        let kept = filter_candidates(&nfq, &d, &candidates, EvalOptions::default());
        assert_eq!(kept.len(), 2);
        for c in kept {
            let hotel = d.parent(d.parent(c).unwrap()).unwrap();
            let name_elem = d.children(hotel)[0];
            let name_val = d.children(name_elem)[0];
            assert_eq!(d.label(name_val), "Best Western");
        }
    }

    /// Queries with `//`, `*` and value conditions over the hotels
    /// scenario (besides Figure 4's).
    const QUERIES: &[&str] = &[
        "//restaurant[rating=\"*****\"]/name/$N -> $N",
        "/hotels/*[name=\"Best Western\"]//name/$N -> $N",
        "/hotels/hotel[rating=\"*****\"]/nearby/*[name=$M] -> $M",
        "//hotel[reviews//review]/address/$A -> $A",
        "/hotels/hotel/rating/$R -> $R",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// §6.2's equivalence, on both positional sources the engine uses.
        /// For every join-free NFQ, unrefined and refined, the candidates
        /// whose service the output accepts — from the call table (visible
        /// calls whose parent-path class the position automaton accepts)
        /// or from the F-guide's extents — that pass `filter_candidates`
        /// are exactly the calls a full evaluation binds to the output.
        /// Documents are generated hotels scenarios part-materialized by a
        /// naive run with a random invocation budget, so calls also sit
        /// inside spliced results.
        #[test]
        fn residual_filtering_agrees_with_full_nfq_evaluation(
            seed in any::<u64>(),
            hotels in 1usize..6,
            budget in 0usize..12,
            interning in any::<bool>(),
            index in any::<bool>(),
        ) {
            let sc = generate(&ScenarioParams {
                hotels,
                intensional_hotels: 2,
                seed,
                ..ScenarioParams::default()
            });
            let mut d = sc.doc.clone();
            let partial = EngineConfig {
                max_invocations: budget,
                ..EngineConfig::naive()
            };
            Engine::new(&sc.registry, partial).complete_for(&mut d, &figure4_query());
            let opts = EvalOptions { interning, index };
            let mut table = CallTable::default();
            let known = table.known_services(&d, &HashSet::new());
            let guide = FGuide::build(&d);
            let queries = std::iter::once(figure4_query())
                .chain(QUERIES.iter().map(|q| parse_query(q).unwrap()));
            for q in queries {
                let mut refiner = TypeRefiner::new(&sc.schema, &q, SatMode::Exact);
                for nfq in build_nfqs(&q) {
                    if !nfq.pattern.join_variables().is_empty() {
                        continue;
                    }
                    let mut classes = ClassVerdicts::compile(&position_language(&nfq), &d);
                    let refined = refiner.refine(&nfq, &known);
                    for effective in std::iter::once(nfq.clone()).chain(refined) {
                        let services = output_services(&effective, &d);
                        let served = |n: &NodeId| services.as_ref().is_none_or(|s| s.contains(&d.sym(*n)));
                        let from_table: Vec<NodeId> = d
                            .calls_unordered()
                            .iter()
                            .copied()
                            .filter(|&n| {
                                let (id, _) = d.call_info(n).unwrap();
                                let class = table.class_of(&d, n, id);
                                class.is_some_and(|c| classes.accepts(&table, c))
                            })
                            .filter(served)
                            .collect();
                        let from_guide: Vec<NodeId> = guide
                            .eval_linear(&d, &effective.lin, effective.via)
                            .into_iter()
                            .map(|(n, _)| n)
                            .filter(served)
                            .collect();
                        let full = axml_query::seed_eval(&effective.pattern, &d)
                            .bindings_of(effective.output);
                        for source in [from_table, from_guide] {
                            let mut kept = filter_candidates(&effective, &d, &source, opts);
                            kept.sort();
                            prop_assert_eq!(&kept, &full, "{} / NFQ of {:?}", render(&q), nfq.focus);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_document_yields_empty_guide() {
        let d = parse("<hotels><hotel><name>X</name></hotel></hotels>").unwrap();
        let g = FGuide::build(&d);
        assert_eq!(g.total_extent(), 0);
        let q = parse_query("/hotels/x").unwrap();
        let lin = LinearPath::to_node(&q, q.result_nodes()[0], false);
        assert!(g.eval_linear(&d, &lin, EdgeKind::Child).is_empty());
    }
}
