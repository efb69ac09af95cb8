//! Change-scope tests for standing queries: given the label path of a
//! splice (the parent whose children a publication changed), decide
//! whether the splice can possibly change a query's answer.
//!
//! The test is a prefix-closed path NFA over the query's positions, in a
//! form the subscription layer can use *across* documents and versions:
//! a [`QueryScope`] is built once per standing query and consulted for
//! every published splice path.
//!
//! Soundness: a splice with parent path `P` replaces children of the
//! node at `P`, so it (a) creates/destroys potential matches at paths
//! strictly below `P`, and (b) changes the rendered content of every
//! node on the path to `P`. Both directions reduce to prefix
//! comparability of `P` with the union of the root-path languages of the
//! pattern's leaf and result nodes (interior structural nodes add
//! nothing: every proper extension of their words extends into some
//! leaf's language). The test may say "affected" needlessly — wildcard
//! or descendant steps widen the language — but never "unaffected"
//! wrongly.

use axml_query::{LinearPath, Pattern};
use axml_schema::{Nfa, Sym};

/// The change scope of one query: a prefix-comparability test between
/// splice paths and the query's observable positions.
#[derive(Clone, Debug)]
pub struct QueryScope {
    nfa: Nfa,
}

impl QueryScope {
    /// The scope of `query`: the union of the root-path languages of its
    /// leaf and result nodes.
    pub fn of(query: &Pattern) -> QueryScope {
        let parts: Vec<Nfa> = query
            .node_ids()
            .filter(|&id| {
                let n = query.node(id);
                n.children.is_empty() || n.is_result
            })
            .map(|id| Nfa::from_linear_path(&LinearPath::to_node(query, id, true)))
            .collect();
        QueryScope {
            nfa: Nfa::union_of(&parts),
        }
    }

    /// May a splice whose parent has label path `path` (root's label
    /// first, as produced by `Document::path_labels`) change the query's
    /// answer?
    pub fn may_affect(&self, path: &[String]) -> bool {
        let word: Vec<Sym> = path.iter().map(|l| Sym::Name(l.as_str().into())).collect();
        self.nfa.prefix_comparable(&word)
    }

    /// May any of the splice paths change the query's answer? An empty
    /// list means "no splices", which affects nothing.
    pub fn may_affect_any(&self, paths: &[Vec<String>]) -> bool {
        paths.iter().any(|p| self.may_affect(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::parse_query;

    fn scope(q: &str) -> QueryScope {
        QueryScope::of(&parse_query(q).unwrap())
    }

    fn path(p: &[&str]) -> Vec<String> {
        p.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splices_below_result_nodes_affect() {
        let s = scope("/hotels/hotel/price");
        assert!(s.may_affect(&path(&["hotels", "hotel", "price"])));
        assert!(s.may_affect(&path(&["hotels", "hotel", "price", "amount"])));
    }

    #[test]
    fn splices_above_match_positions_affect() {
        let s = scope("/hotels/hotel/price");
        assert!(s.may_affect(&path(&["hotels"])));
        assert!(s.may_affect(&path(&["hotels", "hotel"])));
        assert!(s.may_affect(&[])); // a splice at the root
    }

    #[test]
    fn sibling_branches_do_not_affect() {
        let s = scope("/hotels/hotel/price");
        assert!(!s.may_affect(&path(&["hotels", "hotel", "rating"])));
        assert!(!s.may_affect(&path(&["hotels", "hotel", "rating", "stars"])));
        assert!(!s.may_affect(&path(&["auctions", "item"])));
    }

    #[test]
    fn conditions_are_observable_positions() {
        // a splice under the condition's subtree can flip which hotels
        // match, even though rating is not a result node
        let s = scope("/hotels/hotel[rating=\"5\"]/name");
        assert!(s.may_affect(&path(&["hotels", "hotel", "rating"])));
        assert!(s.may_affect(&path(&["hotels", "hotel", "name"])));
        assert!(!s.may_affect(&path(&["hotels", "hotel", "address"])));
    }

    #[test]
    fn descendant_steps_widen_the_scope() {
        let s = scope("/site//bid");
        assert!(s.may_affect(&path(&["site", "auctions", "auction"])));
        assert!(s.may_affect(&path(&["site", "auctions", "auction", "bid"])));
        assert!(!s.may_affect(&path(&["catalog"])));
    }

    #[test]
    fn may_affect_any_over_publication_paths() {
        let s = scope("/hotels/hotel/price");
        assert!(!s.may_affect_any(&[]));
        assert!(!s.may_affect_any(&[path(&["hotels", "hotel", "rating"])]));
        assert!(s.may_affect_any(&[
            path(&["hotels", "hotel", "rating"]),
            path(&["hotels", "hotel", "price"]),
        ]));
    }
}
