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
//! [`FGuide`] keeps that summary flat. A *class* — the interned label path
//! of a visible call's parent — is a guide node, and the live calls of a
//! class are the node's extent. A live call's two positional facts never
//! change while it lives, because its ancestors are removed only together
//! with it:
//!
//! * whether it is *visible* — every ancestor a data node, so it is not
//!   nested inside another call's parameters;
//! * the label path of its parent, its class.
//!
//! So the guide classifies each call once, when it is first seen, and
//! needs no upkeep when a splice consumes calls or brings new ones: the
//! paper's "maintained incrementally as calls are invoked".
//!
//! A call-finding query reads the guide through its position automaton
//! ([`position_language`]), and [`ClassVerdicts`] decides once per class
//! whether the automaton accepts it. A lookup then costs one table probe
//! per live call plus one verdict per class. Every positional test of the
//! engine reads the guide this way: NFQ candidates, LPQ candidates, the
//! push check's "which NFQs reach this call?", and the services §5's type
//! refinement considers.

use crate::nfq::Nfq;
use axml_query::{EdgeKind, FunMatch, FxBuildHasher, LinearPath, Matcher, PLabel, PNodeId};
use axml_schema::{Nfa, SymNfa};
use axml_xml::{CallId, Document, NodeId};
use std::collections::{HashMap, HashSet};

/// A function-call guide over one document: every call seen so far, with
/// its class.
///
/// ```
/// use axml_core::{position_language, ClassVerdicts, FGuide};
/// use axml_query::{parse_query, EdgeKind, LinearPath};
/// use axml_xml::parse;
///
/// let doc = parse(
///     "<hotels><hotel><nearby>\
///        <axml:call service=\"getNearbyRestos\"/></nearby></hotel></hotels>",
/// ).unwrap();
/// let mut guide = FGuide::default();
/// // calls strictly below /hotels/hotel
/// let q = parse_query("/hotels/hotel/x").unwrap();
/// let lin = LinearPath::to_node(&q, q.result_nodes()[0], false);
/// let mut below = ClassVerdicts::new(position_language(&lin, EdgeKind::Descendant));
/// assert_eq!(guide.extent(&doc, &mut below, None).len(), 1);
/// // one class: hotels/hotel/nearby
/// assert_eq!(guide.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct FGuide {
    /// The call's class, or `None` when the call is hidden inside another
    /// call's parameters.
    class: HashMap<CallId, Option<u32>, FxBuildHasher>,
    /// Interned parent label paths (as document symbols) → class.
    classes: HashMap<Vec<u32>, u32, FxBuildHasher>,
    /// Class → its parent label path.
    paths: Vec<Vec<u32>>,
    /// Scratch for the path being classified.
    path: Vec<u32>,
}

impl FGuide {
    /// The class of the live call `id` at `node`, or `None` when the call
    /// is not visible to queries. Computed on the call's first sighting
    /// only.
    pub fn class_of(&mut self, doc: &Document, node: NodeId, id: CallId) -> Option<u32> {
        *self.class.entry(id).or_insert_with(|| {
            let path = &mut self.path;
            path.clear();
            let mut cur = doc.parent(node);
            while let Some(p) = cur {
                if !doc.is_data(p) {
                    return None;
                }
                path.push(doc.sym(p));
                cur = doc.parent(p);
            }
            path.reverse();
            if let Some(&class) = self.classes.get(path.as_slice()) {
                return Some(class);
            }
            let class = self.paths.len() as u32;
            self.paths.push(path.clone());
            self.classes.insert(path.clone(), class);
            Some(class)
        })
    }

    /// Number of classes (guide nodes) seen so far.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no visible call has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The extent of the guide nodes `at` accepts: the visible live calls
    /// of `doc` whose class the position automaton accepts, among the calls
    /// of `services` when given. Calls come in `Document::calls_unordered`
    /// order.
    pub fn extent(
        &mut self,
        doc: &Document,
        at: &mut ClassVerdicts,
        services: Option<&[u32]>,
    ) -> Vec<(NodeId, CallId)> {
        at.sync(doc);
        let mut out = Vec::new();
        for &node in doc.calls_unordered() {
            if services.is_some_and(|s| !s.contains(&doc.sym(node))) {
                continue;
            }
            let Some((id, _)) = doc.call_info(node) else {
                continue;
            };
            if let Some(class) = self.class_of(doc, node, id) {
                if at.verdict(self, class) {
                    out.push((node, id));
                }
            }
        }
        out
    }

    /// The services type refinement must consider: the sorted names of the
    /// visible calls whose ids are not in `dead`. A name needs one such
    /// call, so the calls of a name already found skip the table.
    pub(crate) fn known_services(&mut self, doc: &Document, dead: &HashSet<CallId>) -> Vec<String> {
        let mut found = vec![false; doc.sym_count()];
        let mut names = Vec::new();
        for &node in doc.calls_unordered() {
            let sym = doc.sym(node);
            let Some((id, _)) = doc.call_info(node) else {
                continue;
            };
            if !found[sym as usize] && !dead.contains(&id) && self.class_of(doc, node, id).is_some()
            {
                found[sym as usize] = true;
                names.push(doc.sym_text(sym).to_string());
            }
        }
        names.sort_unstable();
        names
    }
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
/// class. The automaton is compiled against a document's symbol table;
/// a label the query names may be interned later, first by a splice, and
/// the automaton compiled without it would reject every path through it.
/// So a grown table means recompiling and forgetting every verdict. The
/// verdicts are indexed by class, so one `ClassVerdicts` serves one guide.
/// The automaton is stepped as an NFA: it answers once per class, and a
/// document has a handful of classes, so determinizing it first would
/// cost more than it saves.
#[derive(Debug)]
pub struct ClassVerdicts {
    position: Nfa,
    /// `Document::sym_count` at compile time, and the compiled automaton.
    compiled: Option<(usize, SymNfa)>,
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
    pub(crate) fn accepts(&mut self, guide: &FGuide, doc: &Document, class: u32) -> bool {
        self.sync(doc);
        self.verdict(guide, class)
    }

    /// Compiles the automaton against the document's current symbols,
    /// unless it already was.
    fn sync(&mut self, doc: &Document) {
        let stamp = doc.sym_count();
        if !matches!(&self.compiled, Some((s, _)) if *s == stamp) {
            let nfa = self.position.compile_syms(|l| doc.lookup_sym(l));
            self.compiled = Some((stamp, nfa));
            self.verdicts.clear();
        }
    }

    /// The verdict on `class`, with the automaton already synced.
    fn verdict(&mut self, guide: &FGuide, class: u32) -> bool {
        let i = class as usize;
        if i >= self.verdicts.len() {
            self.verdicts.resize(i + 1, None);
        }
        let (_, nfa) = self.compiled.as_ref().expect("synced before use");
        *self.verdicts[i].get_or_insert_with(|| nfa.accepts(&guide.paths[i]))
    }
}

/// The residual NFQ check of Section 6.2: given candidate calls retrieved
/// positionally from the guide, keep those for which the NFQ's remaining
/// conditions hold — i.e. some alignment of the NFQ's path onto the
/// candidate's ancestor chain satisfies every side condition.
pub fn filter_candidates(nfq: &Nfq, doc: &Document, candidates: &[NodeId]) -> Vec<NodeId> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let mut matcher = Matcher::new(&nfq.pattern, doc);
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
    matcher: &mut Matcher<'_>,
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
    use crate::engine::{Engine, EngineConfig};
    use crate::nfq::{build_lpqs, build_nfq, build_nfqs};
    use crate::typed::TypeRefiner;
    use axml_gen::scenario::{figure4_query, generate, ScenarioParams};
    use axml_query::{parse_query, render, Pattern};
    use axml_schema::SatMode;
    use axml_xml::parse;
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
    fn calls_at(
        guide: &mut FGuide,
        doc: &Document,
        lin: &LinearPath,
        via: EdgeKind,
    ) -> Vec<NodeId> {
        let mut at = ClassVerdicts::new(position_language(lin, via));
        let mut found: Vec<NodeId> = guide
            .extent(doc, &mut at, None)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        found.sort();
        found
    }

    /// The linear path to the result node of a one-result query.
    fn lin_of(src: &str) -> LinearPath {
        let q = parse_query(src).unwrap();
        LinearPath::to_node(&q, q.result_nodes()[0], false)
    }

    #[test]
    fn build_summarizes_call_paths_once() {
        let d = fig1_doc();
        let mut g = FGuide::default();
        let visible = d
            .calls_unordered()
            .iter()
            .filter(|&&n| g.class_of(&d, n, d.call_info(n).unwrap().0).is_some())
            .count();
        // five calls at three paths: hotels, hotels/hotel/rating and
        // hotels/hotel/nearby
        assert_eq!(visible, 5);
        assert_eq!(g.len(), 3);
        assert!(g.len() < d.len(), "guide is more compact than the document");
    }

    #[test]
    fn linear_queries_on_guide_match_lpqs_on_document() {
        let d = fig1_doc();
        let mut g = FGuide::default();
        let q = parse_query(
            "/hotels/hotel[name=\"Best Western\"][rating=\"*****\"]\
             /nearby//restaurant[name=$X] -> $X",
        )
        .unwrap();
        for lpq in build_lpqs(&q) {
            let on_doc = axml_query::eval(&lpq.pattern, &d).bindings_of(lpq.output);
            let on_guide = calls_at(&mut g, &d, &lpq.lin, lpq.via);
            assert_eq!(on_doc, on_guide, "LPQ {} differs", lpq.lin);
        }
    }

    #[test]
    fn maintenance_after_splice() {
        let mut d = fig1_doc();
        let mut g = FGuide::default();
        let nearby = lin_of("/hotels/hotel/nearby/x");
        assert_eq!(calls_at(&mut g, &d, &nearby, EdgeKind::Child).len(), 3);
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
        // classified at hotels/hotel/nearby/restaurant/rating when first
        // seen — exactly what a guide started after the splice holds
        let rating = lin_of("/hotels/hotel/nearby/restaurant/rating/x");
        for lin in [&nearby, &rating] {
            let kept = calls_at(&mut g, &d, lin, EdgeKind::Child);
            assert_eq!(
                kept,
                calls_at(&mut FGuide::default(), &d, lin, EdgeKind::Child)
            );
        }
        assert_eq!(calls_at(&mut g, &d, &nearby, EdgeKind::Child).len(), 2);
        assert_eq!(calls_at(&mut g, &d, &rating, EdgeKind::Child).len(), 1);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn descendant_output_collects_subtree_extents() {
        let d = fig1_doc();
        // //() under /hotels/hotel: rating + nearby calls of both hotels
        let found = calls_at(
            &mut FGuide::default(),
            &d,
            &lin_of("/hotels/hotel/x"),
            EdgeKind::Descendant,
        );
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
        let candidates = calls_at(&mut FGuide::default(), &d, &nfq.lin, nfq.via);
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
            let mut guide = FGuide::default();
            let known = guide.known_services(&d, &HashSet::new());
            for q in queries() {
                for lpq in build_lpqs(&q) {
                    let full = axml_query::seed_eval(&lpq.pattern, &d).bindings_of(lpq.output);
                    let on_guide = calls_at(&mut guide, &d, &lpq.lin, lpq.via);
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
                        let source: Vec<NodeId> = guide
                            .extent(&d, &mut at, services.as_deref())
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
            let mut guide = FGuide::default();
            for q in queries() {
                for nfq in build_nfqs(&q) {
                    let mut at = ClassVerdicts::new(position_language(&nfq.lin, nfq.via));
                    for &node in d.calls_unordered() {
                        let (id, _) = d.call_info(node).unwrap();
                        let Some(class) = guide.class_of(&d, node, id) else {
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
                            at.accepts(&guide, &d, class),
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
    fn empty_document_yields_empty_guide() {
        let d = parse("<hotels><hotel><name>X</name></hotel></hotels>").unwrap();
        let mut g = FGuide::default();
        assert!(calls_at(&mut g, &d, &lin_of("/hotels/x"), EdgeKind::Child).is_empty());
        assert!(g.is_empty());
    }
}
