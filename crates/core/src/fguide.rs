//! The function-call guide (F-guide) of Section 6.2: the one index the
//! engine asks "which calls sit at this position?".
//!
//! In the spirit of dataguides, the paper's F-guide summarizes — with a
//! single occurrence per path — only the label paths that lead to
//! function calls, and each guide node keeps its *extent*: the calls
//! reached through that path. A linear path query returns the same calls
//! on the guide as on the document, and an NFQ only has its remaining
//! conditions left to check on those calls ("NFQ filtering",
//! [`filter_candidates`]).
//!
//! The document owns the guide and keeps it flat (see `axml_xml`'s tree
//! module). A *class* — the interned label path of a visible call's parent
//! — is a guide node, and the live calls of a class are the node's extent
//! ([`Document::class_extent`]). A call is classified once, when it is
//! allocated, and every splice keeps the extents current: the paper's
//! "maintained incrementally as calls are invoked".
//!
//! A call-finding query reads the guide through its position automaton
//! ([`position_language`]), and [`ClassVerdicts`] decides once per class
//! whether the automaton accepts it. A lookup then costs one verdict per
//! class plus the extents accepted, not the document's live calls. Every
//! positional test of the engine reads the guide this way: NFQ candidates,
//! LPQ candidates, the push check's "which NFQs reach this call?", and the
//! services §5's type refinement considers.

use crate::nfq::Nfq;
use axml_query::{EdgeKind, FunMatch, LinearPath, Matcher, PLabel, PNodeId};
use axml_schema::{Nfa, SymNfa};
use axml_xml::{CallId, Document, NodeId};
use std::collections::HashSet;

/// The extent of the guide nodes `at` accepts: the visible live calls of
/// `doc` whose class the position automaton accepts, among the calls of
/// `services` when given, class by class.
///
/// ```
/// use axml_core::{extent, position_language, ClassVerdicts};
/// use axml_query::{parse_query, EdgeKind, LinearPath};
/// use axml_xml::parse;
///
/// let doc = parse(
///     "<hotels><hotel><nearby>\
///        <axml:call service=\"getNearbyRestos\"/></nearby></hotel></hotels>",
/// ).unwrap();
/// // calls strictly below /hotels/hotel
/// let q = parse_query("/hotels/hotel/x").unwrap();
/// let lin = LinearPath::to_node(&q, q.result_nodes()[0], false);
/// let mut below = ClassVerdicts::new(position_language(&lin, EdgeKind::Descendant));
/// assert_eq!(extent(&doc, &mut below, None).len(), 1);
/// // one class: hotels/hotel/nearby
/// assert_eq!(doc.class_count(), 1);
/// ```
pub fn extent(
    doc: &Document,
    at: &mut ClassVerdicts,
    services: Option<&[u32]>,
) -> Vec<(NodeId, CallId)> {
    at.sync(doc);
    let mut out = Vec::new();
    for class in 0..doc.class_count() as u32 {
        if !at.verdict(doc, class) {
            continue;
        }
        for &node in doc.class_extent(class) {
            if services.is_some_and(|s| !s.contains(&doc.sym(node))) {
                continue;
            }
            if let Some((id, _)) = doc.call_info(node) {
                out.push((node, id));
            }
        }
    }
    out
}

/// The services type refinement must consider: the sorted names of the
/// visible calls whose ids are not in `dead`. The document counts its
/// visible calls per service, so only when some call is dead does a
/// service's label bucket need a look.
pub(crate) fn known_services(doc: &Document, dead: &HashSet<CallId>) -> Vec<String> {
    let mut names: Vec<String> = doc
        .visible_services()
        .iter()
        .filter(|&&(sym, _)| {
            dead.is_empty()
                || doc.nodes_with_sym(sym).iter().any(|&n| {
                    doc.call_class(n).is_some()
                        && doc.call_info(n).is_some_and(|(id, _)| !dead.contains(&id))
                })
        })
        .map(|&(sym, _)| doc.sym_text(sym).to_string())
        .collect();
    names.sort_unstable();
    names
}

/// The position language of a call-finding query whose linear path is
/// `lin` and whose output hangs off it through `via`: the parent label
/// paths of the calls it retrieves. A descendant edge suffix-closes the
/// path's language (calls strictly below any node matching it).
pub fn position_language(lin: &LinearPath, via: EdgeKind) -> Nfa {
    let nfa = Nfa::from_linear_path(lin);
    match via {
        EdgeKind::Child => nfa,
        EdgeKind::Descendant => nfa.suffix_closure(),
    }
}

/// The interned services the NFQ's output node accepts; `None` accepts
/// every call. The output is a function node by construction; anything
/// else never matches a call.
pub(crate) fn output_services(nfq: &Nfq, doc: &Document) -> Option<Vec<u32>> {
    match &nfq.pattern.node(nfq.output).label {
        PLabel::Fun(FunMatch::Any) => None,
        PLabel::Fun(FunMatch::OneOf(names)) => Some(
            names
                .iter()
                .filter_map(|l| doc.lookup_sym(l.as_str()))
                .collect(),
        ),
        _ => Some(Vec::new()),
    }
}

/// One query's position automaton, with its memoized verdict per guide
/// class. The automaton is compiled against a document's symbol table; a
/// label the query names may be interned later, first by a splice, and the
/// automaton compiled without it would reject every path through it. So
/// the automaton is recompiled, and every verdict forgotten, when a label
/// that was missing at compile time has since been interned. Other new
/// symbols change nothing: symbol tables and class paths never change what
/// they already hold. The verdicts are indexed by class, so one
/// `ClassVerdicts` serves one document. The automaton is stepped as an
/// NFA: it answers once per class, and a document has a handful of
/// classes, so determinizing it first would cost more than it saves.
#[derive(Debug)]
pub struct ClassVerdicts {
    position: Nfa,
    /// The compiled automaton, and the labels it names that the document
    /// had not interned when it was compiled.
    compiled: Option<(SymNfa, Vec<String>)>,
    verdicts: Vec<Option<bool>>,
}

impl ClassVerdicts {
    /// Verdicts of the position language `position` (see
    /// [`position_language`]), compiled on first use.
    pub fn new(position: Nfa) -> ClassVerdicts {
        ClassVerdicts {
            position,
            compiled: None,
            verdicts: Vec::new(),
        }
    }

    /// Does the position automaton accept the parent path of `class`?
    pub(crate) fn accepts(&mut self, doc: &Document, class: u32) -> bool {
        self.sync(doc);
        self.verdict(doc, class)
    }

    /// Compiles the automaton against the document's current symbols,
    /// unless it already was and no label it missed has been interned
    /// since.
    fn sync(&mut self, doc: &Document) {
        let stale = match &self.compiled {
            None => true,
            Some((_, missing)) => missing.iter().any(|l| doc.lookup_sym(l).is_some()),
        };
        if stale {
            let mut missing = Vec::new();
            let nfa = self.position.compile_syms(|l| {
                let sym = doc.lookup_sym(l);
                if sym.is_none() && !missing.iter().any(|m: &String| m == l) {
                    missing.push(l.to_string());
                }
                sym
            });
            self.compiled = Some((nfa, missing));
            self.verdicts.clear();
        }
    }

    /// The verdict on `class`, with the automaton already synced.
    fn verdict(&mut self, doc: &Document, class: u32) -> bool {
        let i = class as usize;
        if i >= self.verdicts.len() {
            self.verdicts.resize(i + 1, None);
        }
        let (nfa, _) = self.compiled.as_ref().expect("synced before use");
        *self.verdicts[i].get_or_insert_with(|| nfa.accepts(doc.class_path(class)))
    }
}

/// The residual NFQ check of Section 6.2: given candidate calls retrieved
/// positionally from the guide, keep those for which the NFQ's remaining
/// conditions hold — i.e. some alignment of the NFQ's path onto the
/// candidate's ancestor chain satisfies every side condition.
///
/// Per candidate, each placement of a path step on an ancestor is tried
/// at most once: a placement that fails (its label, its side conditions,
/// or the rest of the path below it) is remembered. So aligning a path of
/// `k` steps on a chain of `d` ancestors checks side conditions at most
/// `k·d` times and probes that table `O(k·d²)` times, whatever its `//`
/// steps. Candidates share nothing but the [`Matcher`], which checks the
/// conditions by plain recursion and memoizes only descendant existence.
pub fn filter_candidates(nfq: &Nfq, doc: &Document, candidates: &[NodeId]) -> Vec<NodeId> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let mut filter = Residual::new(nfq, doc);
    candidates
        .iter()
        .copied()
        .filter(|&cand| filter.keeps(cand))
        .collect()
}

/// The state of one [`filter_candidates`] call.
struct Residual<'a> {
    nfq: &'a Nfq,
    doc: &'a Document,
    matcher: Matcher<'a>,
    /// The NFQ path, pattern root … parent of the output (linear by
    /// construction), each step with its side conditions: every child
    /// but the path's continuation or the output.
    steps: Vec<(PNodeId, Vec<PNodeId>)>,
    /// The current candidate's ancestors, root … parent.
    anc: Vec<NodeId>,
    /// The current candidate's failed placements, `failed[pi * anc.len() +
    /// j]`: step `pi` at ancestor index `j` starts no alignment of the
    /// rest of the path.
    failed: Vec<bool>,
}

impl<'a> Residual<'a> {
    fn new(nfq: &'a Nfq, doc: &'a Document) -> Self {
        let pattern = &nfq.pattern;
        let mut steps = Vec::new();
        let mut next = nfq.output;
        while let Some(p) = pattern.parent(next) {
            let sides = pattern
                .node(p)
                .children
                .iter()
                .copied()
                .filter(|&c| c != next)
                .collect();
            steps.push((p, sides));
            next = p;
        }
        steps.reverse();
        Residual {
            nfq,
            doc,
            matcher: Matcher::new(pattern, doc),
            steps,
            anc: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Does some alignment of the NFQ path onto `cand`'s ancestors satisfy
    /// every side condition?
    fn keeps(&mut self, cand: NodeId) -> bool {
        self.anc.clear();
        let mut cur = self.doc.parent(cand);
        while let Some(n) = cur {
            self.anc.push(n);
            cur = self.doc.parent(n);
        }
        self.anc.reverse();
        self.failed.clear();
        self.failed.resize(self.steps.len() * self.anc.len(), false);
        self.align(0, 0)
    }

    /// Can steps `pi..` be placed on ancestors `aj..`, step `pi` at `aj`
    /// itself when it (or the path's start) is a child step?
    fn align(&mut self, pi: usize, aj: usize) -> bool {
        let n = self.anc.len();
        if pi == self.steps.len() {
            // all steps placed; the output hangs off the last one: a child
            // edge needs the last placed ancestor to be the direct parent
            // (aj == n), a descendant edge works from anywhere above
            return match self.nfq.via {
                EdgeKind::Child => aj == n,
                EdgeKind::Descendant => aj <= n,
            };
        }
        let (p, _) = self.steps[pi];
        let last = match self.nfq.pattern.node(p).edge {
            EdgeKind::Descendant if pi > 0 => n,
            _ => n.min(aj + 1),
        };
        for j in aj..last {
            if self.failed[pi * n + j] {
                continue;
            }
            if self.holds(pi, self.anc[j]) && self.align(pi + 1, j + 1) {
                return true;
            }
            self.failed[pi * n + j] = true;
        }
        false
    }

    /// Does step `pi` match at `v`: its label, then its side conditions?
    fn holds(&mut self, pi: usize, v: NodeId) -> bool {
        let (p, ref sides) = self.steps[pi];
        let pattern = &self.nfq.pattern;
        let matcher = &mut self.matcher;
        matcher.label_matches(p, v)
            && sides.iter().all(|&c| match pattern.node(c).edge {
                EdgeKind::Child => matcher.child_matches(c, v),
                EdgeKind::Descendant => matcher.descendant_matches(c, v),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::nfq::{build_lpqs, build_nfq, build_nfqs};
    use crate::typed::TypeRefiner;
    use axml_gen::scenario::{figure4_query, generate, ScenarioParams};
    use axml_query::{parse_query, render, Pattern};
    use axml_schema::SatMode;
    use axml_xml::{decode_document, document_to_bytes, parse};
    use proptest::prelude::*;

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

    /// The calls of `doc` the guide holds at `lin` followed by a `()` step
    /// via `via`, sorted.
    fn calls_at(doc: &Document, lin: &LinearPath, via: EdgeKind) -> Vec<NodeId> {
        let mut at = ClassVerdicts::new(position_language(lin, via));
        let mut found: Vec<NodeId> = extent(doc, &mut at, None)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        found.sort();
        found
    }

    /// The ids of the calls `calls_at` finds, sorted.
    fn ids_at(doc: &Document, lin: &LinearPath, via: EdgeKind) -> Vec<CallId> {
        let mut ids: Vec<CallId> = calls_at(doc, lin, via)
            .into_iter()
            .map(|n| doc.call_info(n).unwrap().0)
            .collect();
        ids.sort();
        ids
    }

    /// The linear path to the result node of a one-result query.
    fn lin_of(src: &str) -> LinearPath {
        let q = parse_query(src).unwrap();
        LinearPath::to_node(&q, q.result_nodes()[0], false)
    }

    #[test]
    fn build_summarizes_call_paths_once() {
        let d = fig1_doc();
        let visible = d
            .calls_unordered()
            .iter()
            .filter(|&&n| d.call_class(n).is_some())
            .count();
        // five calls at three paths: hotels, hotels/hotel/rating and
        // hotels/hotel/nearby
        assert_eq!(visible, 5);
        assert_eq!(d.class_count(), 3);
        assert!(
            d.class_count() < d.len(),
            "guide is more compact than the document"
        );
    }

    #[test]
    fn linear_queries_on_guide_match_lpqs_on_document() {
        let d = fig1_doc();
        let q = parse_query(
            "/hotels/hotel[name=\"Best Western\"][rating=\"*****\"]\
             /nearby//restaurant[name=$X] -> $X",
        )
        .unwrap();
        for lpq in build_lpqs(&q) {
            let on_doc = axml_query::eval(&lpq.pattern, &d).bindings_of(lpq.output);
            let on_guide = calls_at(&d, &lpq.lin, lpq.via);
            assert_eq!(on_doc, on_guide, "LPQ {} differs", lpq.lin);
        }
    }

    #[test]
    fn maintenance_after_splice() {
        let mut d = fig1_doc();
        let nearby = lin_of("/hotels/hotel/nearby/x");
        assert_eq!(calls_at(&d, &nearby, EdgeKind::Child).len(), 3);
        // invoke the Best Western getNearbyRestos: result contains a
        // restaurant with a nested getRating call (like Figure 3)
        let call = d
            .calls()
            .into_iter()
            .find(|&c| d.call_info(c).unwrap().1.as_str() == "getNearbyRestos")
            .unwrap();
        let result = parse(
            "<restaurant><name>Mama</name>\
               <rating><axml:call service=\"getRating\">Mama</axml:call></rating>\
             </restaurant>",
        )
        .unwrap();
        d.splice_call(call, &result);
        // the consumed call left its extent, and the nested getRating is
        // classified at hotels/hotel/nearby/restaurant/rating by the
        // splice — exactly what a document decoded afresh holds
        let rebuilt = decode_document(&document_to_bytes(&d)).unwrap();
        let rating = lin_of("/hotels/hotel/nearby/restaurant/rating/x");
        for lin in [&nearby, &rating] {
            assert_eq!(
                ids_at(&d, lin, EdgeKind::Child),
                ids_at(&rebuilt, lin, EdgeKind::Child)
            );
        }
        assert_eq!(calls_at(&d, &nearby, EdgeKind::Child).len(), 2);
        assert_eq!(calls_at(&d, &rating, EdgeKind::Child).len(), 1);
        assert_eq!(d.class_count(), 4);
        d.check_integrity().unwrap();
    }

    #[test]
    fn descendant_output_collects_subtree_extents() {
        let d = fig1_doc();
        // //() under /hotels/hotel: rating + nearby calls of both hotels
        let found = calls_at(&d, &lin_of("/hotels/hotel/x"), EdgeKind::Descendant);
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
        let candidates = calls_at(&d, &nfq.lin, nfq.via);
        assert_eq!(candidates.len(), 3); // 2 at BW (restos+museums), 1 at Penn
                                         // conditions keep: BW's two (name matches, rating matches) and
                                         // Penn's one? Penn's name ≠ Best Western and its name is
                                         // extensional: pruned. BW keeps both nearby calls.
        let kept = filter_candidates(&nfq, &d, &candidates);
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

    /// Figure 4's query and [`QUERIES`].
    fn queries() -> impl Iterator<Item = Pattern> {
        std::iter::once(figure4_query()).chain(QUERIES.iter().map(|q| parse_query(q).unwrap()))
    }

    /// A generated hotels scenario part-materialized by a naive run with
    /// invocation budget `budget`, so calls also sit inside spliced
    /// results, and with a call hidden inside the parameters of every
    /// other remaining call: queries never see those (§2).
    fn partial_scenario(
        seed: u64,
        hotels: usize,
        budget: usize,
    ) -> (axml_gen::scenario::Scenario, Document) {
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
        for call in d.calls().into_iter().step_by(2) {
            let nearby = d.add_element(call, "nearby");
            d.add_call(nearby, "getNearbyRestos");
        }
        (sc, d)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// §6.2's equivalence, on the guide the engine reads. For every
        /// LPQ of the queries, the guide's candidates are exactly the
        /// calls the LPQ binds on the document. For every join-free NFQ,
        /// unrefined and refined, the guide's candidates whose service the
        /// output accepts that pass `filter_candidates` are exactly the
        /// calls a full evaluation binds to the output.
        #[test]
        fn residual_filtering_agrees_with_full_nfq_evaluation(
            seed in any::<u64>(),
            hotels in 1usize..6,
            budget in 0usize..12,
        ) {
            let (sc, d) = partial_scenario(seed, hotels, budget);
            d.check_integrity().unwrap();
            let known = known_services(&d, &HashSet::new());
            for q in queries() {
                for lpq in build_lpqs(&q) {
                    let full = axml_query::seed_eval(&lpq.pattern, &d).bindings_of(lpq.output);
                    let on_guide = calls_at(&d, &lpq.lin, lpq.via);
                    prop_assert_eq!(&on_guide, &full, "{} / LPQ {}", render(&q), lpq.lin);
                }
                let mut refiner = TypeRefiner::new(&sc.schema, &q, SatMode::Exact);
                for nfq in build_nfqs(&q) {
                    if !nfq.pattern.join_variables().is_empty() {
                        continue;
                    }
                    let mut at = ClassVerdicts::new(position_language(&nfq.lin, nfq.via));
                    let refined = refiner.refine(&nfq, &known);
                    for effective in std::iter::once(nfq.clone()).chain(refined) {
                        let services = output_services(&effective, &d);
                        let source: Vec<NodeId> = extent(&d, &mut at, services.as_deref())
                            .into_iter()
                            .map(|(n, _)| n)
                            .collect();
                        let full = axml_query::seed_eval(&effective.pattern, &d)
                            .bindings_of(effective.output);
                        let mut kept = filter_candidates(&effective, &d, &source);
                        kept.sort();
                        prop_assert_eq!(&kept, &full, "{} / NFQ of {:?}", render(&q), nfq.focus);
                    }
                }
            }
        }

        /// The push check's positional test on the guide agrees with the
        /// reference semantics of linear paths: an NFQ reaches a visible
        /// call iff its linear path matches the call's parent label path
        /// (child-ended) or some prefix of it (descendant-ended).
        #[test]
        fn class_verdicts_agree_with_linear_path_words(
            seed in any::<u64>(),
            hotels in 1usize..6,
            budget in 0usize..12,
        ) {
            let (_, d) = partial_scenario(seed, hotels, budget);
            for q in queries() {
                for nfq in build_nfqs(&q) {
                    let mut at = ClassVerdicts::new(position_language(&nfq.lin, nfq.via));
                    for &node in d.calls_unordered() {
                        let Some(class) = d.call_class(node) else {
                            continue;
                        };
                        let labels = d.parent(node).map(|p| d.path_labels(p)).unwrap_or_default();
                        let word: Vec<&str> = labels.iter().map(String::as_str).collect();
                        let reference = match nfq.via {
                            EdgeKind::Child => nfq.lin.matches_word(&word),
                            EdgeKind::Descendant => {
                                (0..=word.len()).any(|k| nfq.lin.matches_word(&word[..k]))
                            }
                        };
                        prop_assert_eq!(
                            at.accepts(&d, class),
                            reference,
                            "{} / NFQ {} at /{}",
                            render(&q),
                            nfq.lin,
                            labels.join("/")
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn known_services_skip_hidden_and_dead_calls() {
        // `f` and `h` are visible, `g` sits in `f`'s parameters, and the
        // `h` label also names a data node
        let d = parse(
            "<r><axml:call service=\"f\"><axml:call service=\"g\"/></axml:call>\
               <axml:call service=\"h\"/><h/></r>",
        )
        .unwrap();
        assert_eq!(known_services(&d, &HashSet::new()), ["f", "h"]);
        let h = d.calls().into_iter().find(|&n| d.label(n) == "h").unwrap();
        let dead = HashSet::from([d.call_info(h).unwrap().0]);
        assert_eq!(known_services(&d, &dead), ["f"]);
    }

    #[test]
    fn empty_document_yields_empty_guide() {
        let d = parse("<hotels><hotel><name>X</name></hotel></hotels>").unwrap();
        assert!(calls_at(&d, &lin_of("/hotels/x"), EdgeKind::Child).is_empty());
        assert_eq!(d.class_count(), 0);
    }
}
