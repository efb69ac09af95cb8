//! Change-scope tests for standing queries: given the guide classes of
//! the calls a publication restored or spliced (each the label path of
//! a parent whose children changed), decide whether the publication can
//! possibly change a query's answer.
//!
//! Soundness: a splice under a parent with label path `P` replaces
//! children of that node, so it (a) creates/destroys potential matches
//! at paths strictly below `P`, and (b) changes the rendered content of
//! every node on the path to `P`. Both directions reduce to prefix
//! comparability of `P` with the union `L` of the root-path languages of
//! the pattern's leaf and result nodes (interior structural nodes add
//! nothing: every proper extension of their words extends into some
//! leaf's language), that is, to `P ∈ Pref(L) ∪ L·Σ*`. The test may say
//! "affected" needlessly — wildcard or descendant steps widen the
//! language — but never "unaffected" wrongly.
//!
//! A [`QueryScope`] holds one automaton for that language, built once per
//! standing query. Class and symbol numbers belong to one document's
//! lineage (two writers number new classes independently), so
//! [`QueryScope::may_affect`] compiles the automaton against the
//! publication's own document at every call and keeps no verdict.

use axml_query::{LinearPath, Pattern};
use axml_schema::Nfa;
use axml_xml::Document;

/// The change scope of one query: the parent label paths at which a
/// change may be observed by the query.
#[derive(Clone, Debug)]
pub struct QueryScope {
    /// `Pref(L) ∪ L·Σ*` for `L` the union of the root-path languages of
    /// the query's leaf and result nodes.
    nfa: Nfa,
}

impl QueryScope {
    /// The scope of `query`: the union of the root-path languages of its
    /// leaf and result nodes, closed under suffixes (a self-loop on its
    /// accepting states gives `L·Σ*`) and then under prefixes (every
    /// state that reaches an accepting one accepts).
    pub fn of(query: &Pattern) -> QueryScope {
        QueryScope {
            nfa: observed(query).suffix_closure().prefix_closure(),
        }
    }

    /// May a publication of `doc` that restored or spliced calls of
    /// `classes` (classes of `doc`'s call index) change the query's
    /// answer? An empty list means no change, which affects nothing.
    pub fn may_affect(&self, doc: &Document, classes: &[u32]) -> bool {
        let nfa = self.nfa.compile_syms(|l| doc.lookup_sym(l));
        classes.iter().any(|&c| nfa.accepts(doc.class_path(c)))
    }
}

/// The union of the root-path languages of `query`'s leaf and result
/// nodes.
fn observed(query: &Pattern) -> Nfa {
    let parts: Vec<Nfa> = query
        .node_ids()
        .filter(|&id| {
            let n = query.node(id);
            n.children.is_empty() || n.is_result
        })
        .map(|id| Nfa::from_linear_path(&LinearPath::to_node(query, id, true)))
        .collect();
    Nfa::union_of(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fguide::tests::{partial_scenario, queries};
    use crate::{Engine, EngineConfig};
    use axml_gen::feeds::{auction_feed, price_feed, AuctionFeedParams, PriceFeedParams};
    use axml_query::{parse_query, render};
    use axml_schema::Sym;
    use proptest::prelude::*;

    fn scope(q: &str) -> QueryScope {
        QueryScope::of(&parse_query(q).unwrap())
    }

    /// A document with one call under each of `paths` (element labels
    /// from a root down; the empty path puts the call at the root), and
    /// the class of each call.
    fn calls_under(paths: &[&[&str]]) -> (Document, Vec<u32>) {
        let mut doc = Document::new();
        let classes = paths
            .iter()
            .map(|path| {
                let call = match path.split_first() {
                    None => doc.add_root_call("f"),
                    Some((root, rest)) => {
                        let mut at = doc.add_root(*root);
                        for l in rest {
                            at = doc.add_element(at, *l);
                        }
                        doc.add_call(at, "f")
                    }
                };
                doc.call_class(call).expect("a visible call")
            })
            .collect();
        (doc, classes)
    }

    /// May a call spliced under `path` change the answer of `s`?
    fn affects(s: &QueryScope, path: &[&str]) -> bool {
        let (doc, classes) = calls_under(&[path]);
        s.may_affect(&doc, &classes)
    }

    #[test]
    fn splices_below_result_nodes_affect() {
        let s = scope("/hotels/hotel/price");
        assert!(affects(&s, &["hotels", "hotel", "price"]));
        assert!(affects(&s, &["hotels", "hotel", "price", "amount"]));
    }

    #[test]
    fn splices_above_match_positions_affect() {
        let s = scope("/hotels/hotel/price");
        assert!(affects(&s, &["hotels"]));
        assert!(affects(&s, &["hotels", "hotel"]));
        assert!(affects(&s, &[])); // a splice at the root
    }

    #[test]
    fn sibling_branches_do_not_affect() {
        let s = scope("/hotels/hotel/price");
        assert!(!affects(&s, &["hotels", "hotel", "rating"]));
        assert!(!affects(&s, &["hotels", "hotel", "rating", "stars"]));
        assert!(!affects(&s, &["auctions", "item"]));
    }

    #[test]
    fn conditions_are_observable_positions() {
        // a splice under the condition's subtree can flip which hotels
        // match, even though rating is not a result node
        let s = scope("/hotels/hotel[rating=\"5\"]/name");
        assert!(affects(&s, &["hotels", "hotel", "rating"]));
        assert!(affects(&s, &["hotels", "hotel", "name"]));
        assert!(!affects(&s, &["hotels", "hotel", "address"]));
    }

    #[test]
    fn descendant_steps_widen_the_scope() {
        let s = scope("/site//bid");
        assert!(affects(&s, &["site", "auctions", "auction"]));
        assert!(affects(&s, &["site", "auctions", "auction", "bid"]));
        assert!(!affects(&s, &["catalog"]));
    }

    #[test]
    fn may_affect_over_publication_classes() {
        let s = scope("/hotels/hotel/price");
        let (doc, classes) = calls_under(&[
            &["hotels", "hotel", "rating"],
            &["hotels", "hotel", "price"],
        ]);
        assert!(!s.may_affect(&doc, &[]));
        assert!(!s.may_affect(&doc, &classes[..1]));
        assert!(s.may_affect(&doc, &classes));
    }

    /// Two documents number the same two parent paths, and their labels,
    /// in opposite orders: the same class and symbol numbers mean
    /// different paths, and each verdict follows its own document.
    #[test]
    fn classes_are_read_against_their_own_document() {
        let s = scope("/a/x");
        let (xy, in_xy) = calls_under(&[&["a", "x"], &["a", "y"]]);
        let (yx, in_yx) = calls_under(&[&["a", "y"], &["a", "x"]]);
        assert_eq!((in_xy, in_yx), (vec![0, 1], vec![0, 1]));
        assert_eq!(xy.class_path(0), yx.class_path(0));
        for (doc, x, y) in [(&xy, 0, 1), (&yx, 1, 0), (&xy, 0, 1)] {
            assert!(s.may_affect(doc, &[x]));
            assert!(!s.may_affect(doc, &[y]));
        }
    }

    /// The definition the scope stands for, over label texts: some prefix
    /// of `path` is a word of `l`, or `path` is a prefix of one.
    fn comparable(l: &Nfa, path: &[String]) -> bool {
        let word: Vec<Sym> = path.iter().map(|t| Sym::Name(t.as_str().into())).collect();
        (0..=word.len()).any(|k| l.accepts(&word[..k])) || l.prefix_closure().accepts(&word)
    }

    /// Checks every visible call of `doc` against each query's scope: the
    /// verdict on the call's class is the definition's on its parent
    /// label path.
    fn check_verdicts<'q>(
        doc: &Document,
        scopes: impl IntoIterator<Item = &'q (Pattern, QueryScope)>,
    ) -> Result<(), TestCaseError> {
        for (q, scope) in scopes {
            let l = observed(q);
            for &node in doc.calls_unordered() {
                let Some(class) = doc.call_class(node) else {
                    continue;
                };
                let path = doc
                    .parent(node)
                    .map(|p| doc.path_labels(p))
                    .unwrap_or_default();
                prop_assert_eq!(
                    scope.may_affect(doc, &[class]),
                    comparable(&l, &path),
                    "{} at /{}",
                    render(q),
                    path.join("/")
                );
            }
        }
        Ok(())
    }

    fn scoped(q: Pattern) -> (Pattern, QueryScope) {
        let scope = QueryScope::of(&q);
        (q, scope)
    }

    /// Queries whose positions lie above the calls of the scenarios and
    /// feeds, which their scopes accept through the suffix closure.
    const ABOVE: &[&str] = &["/hotels/hotel", "/site/auction"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Class verdicts agree with prefix comparability of label paths,
        /// on part-materialized hotel scenarios (calls inside spliced
        /// results and inside parameters) under the hotel queries and
        /// [`ABOVE`], and on the price and auction feeds, part-materialized
        /// the same way, under their watchers and those queries. The
        /// scopes of the shared queries are built once and read all three
        /// documents.
        #[test]
        fn scope_verdicts_agree_with_label_path_comparability(
            seed in any::<u64>(),
            size in 1usize..6,
            budget in 0usize..12,
        ) {
            let (_, d) = partial_scenario(seed, size, budget);
            let shared: Vec<(Pattern, QueryScope)> = queries()
                .chain(ABOVE.iter().map(|q| parse_query(q).unwrap()))
                .map(scoped)
                .collect();
            check_verdicts(&d, &shared)?;
            let stride = 1 + (seed % 3) as usize;
            let feeds = [
                price_feed(&PriceFeedParams { hotels: size, volatile_stride: stride }),
                auction_feed(&AuctionFeedParams { auctions: size }),
            ];
            for feed in feeds {
                let mut d = feed.doc.clone();
                let partial = EngineConfig {
                    max_invocations: budget,
                    ..EngineConfig::naive()
                };
                let (_, first) = &feed.watchers[0];
                Engine::new(&feed.registry, partial).complete_for(&mut d, first);
                let watchers: Vec<_> = (feed.watchers.into_iter())
                    .map(|(_, q)| scoped(q))
                    .collect();
                check_verdicts(&d, watchers.iter().chain(&shared))?;
            }
        }
    }
}
