//! Containment-based elimination of redundant call-finding queries.
//!
//! Section 4.1 notes that the NFQ machinery "can … eliminate redundant
//! queries using containment checking as in \[20\]". Two instances are
//! implemented:
//!
//! * **LPQ subsumption** — exact. An LPQ retrieves calls by *position*
//!   only; its position language is `L(lin)` (child-ended) or
//!   `L(lin)·Σ*` (descendant-ended). Regular-language inclusion over these
//!   (decided by the DFA construction in `axml-schema`) tells exactly when
//!   one LPQ's retrieval set covers another's on **every** document.
//! * **NFQ subsumption** — sound (homomorphism-based, the classical tree
//!   pattern containment test): if a homomorphism maps the *weaker* NFQ
//!   onto the *stronger* one, output to output, every call the stronger
//!   retrieves is retrieved by the weaker, so the stronger is redundant
//!   for pure retrieval purposes. Incomplete in the presence of descendant
//!   edges (like the underlying classical test), which only means some
//!   redundancies survive — never that results change.

use crate::fguide::position_language;
use crate::nfq::{Lpq, Nfq};
use axml_query::{EdgeKind, FunMatch, PLabel, PNodeId, Pattern};
use axml_schema::{language_includes, Nfa};

/// Drops LPQs whose retrieval set is covered by another LPQ in the set.
/// Returns the surviving queries (order preserved) and the number pruned.
pub fn prune_subsumed_lpqs(lpqs: Vec<Lpq>) -> (Vec<Lpq>, usize) {
    let nfas: Vec<Nfa> = lpqs
        .iter()
        .map(|l| position_language(&l.lin, l.via))
        .collect();
    let n = lpqs.len();
    let mut dead = vec![false; n];
    for i in 0..n {
        if dead[i] {
            continue;
        }
        for j in 0..n {
            if i == j || dead[j] {
                continue;
            }
            // j subsumed by i (ties broken towards the earlier query)
            if language_includes(&nfas[i], &nfas[j])
                && !(j < i && language_includes(&nfas[j], &nfas[i]))
            {
                dead[j] = true;
            }
        }
    }
    let pruned = dead.iter().filter(|&&d| d).count();
    let kept = lpqs
        .into_iter()
        .zip(dead)
        .filter(|(_, d)| !d)
        .map(|(l, _)| l)
        .collect();
    (kept, pruned)
}

/// Sound test: does `weak` retrieve a superset of `strong`'s calls on every
/// document? Checks for a homomorphism from `weak`'s pattern into
/// `strong`'s, mapping output to output.
pub fn nfq_subsumes(weak: &Nfq, strong: &Nfq) -> bool {
    let mut memo = std::collections::HashMap::new();
    hom(
        &weak.pattern,
        weak.pattern.root(),
        &strong.pattern,
        strong.pattern.root(),
        weak.output,
        strong.output,
        &mut memo,
    )
}

/// Drops NFQs that are fully *equivalent* to an earlier one: mutual
/// subsumption **and** isomorphic focus subqueries.
///
/// One-directional subsumption alone is not a safe pruning criterion here,
/// although it looks like one: the engine later refines each NFQ by the
/// satisfiability of its own focus subquery (§5) and pushes that subquery
/// to providers (§7) — a weaker NFQ refines and pushes *differently*, so
/// dropping the stronger one can lose relevant calls (e.g. the subsuming
/// `nearby//()` NFQ refines away `getRating`, which the subsumed
/// `…/restaurant/rating/()` NFQ needs). Equivalent NFQs are
/// interchangeable in every respect, so deduplicating them is safe.
pub fn prune_subsumed_nfqs(query: &Pattern, nfqs: Vec<Nfq>) -> (Vec<Nfq>, usize) {
    let n = nfqs.len();
    let subs: Vec<Pattern> = nfqs.iter().map(|q| query.subtree(q.focus)).collect();
    let mut dead = vec![false; n];
    for i in 0..n {
        if dead[i] {
            continue;
        }
        for j in i + 1..n {
            if dead[j] {
                continue;
            }
            // isomorphic focus subqueries are the cheap necessary
            // condition: test them before either homomorphism
            if patterns_isomorphic(&subs[i], &subs[j])
                && nfq_subsumes(&nfqs[i], &nfqs[j])
                && nfq_subsumes(&nfqs[j], &nfqs[i])
            {
                dead[j] = true;
            }
        }
    }
    let pruned = dead.iter().filter(|&&d| d).count();
    let kept = nfqs
        .into_iter()
        .zip(dead)
        .filter(|(_, d)| !d)
        .map(|(q, _)| q)
        .collect();
    (kept, pruned)
}

/// Structural isomorphism of two patterns (labels, edges, result flags,
/// children in order).
pub fn patterns_isomorphic(a: &Pattern, b: &Pattern) -> bool {
    fn go(a: &Pattern, pa: PNodeId, b: &Pattern, pb: PNodeId) -> bool {
        let (na, nb) = (a.node(pa), b.node(pb));
        na.label == nb.label
            && na.edge == nb.edge
            && na.is_result == nb.is_result
            && na.children.len() == nb.children.len()
            && na
                .children
                .iter()
                .zip(&nb.children)
                .all(|(&ca, &cb)| go(a, ca, b, cb))
    }
    if a.is_empty() || b.is_empty() {
        return a.is_empty() == b.is_empty();
    }
    go(a, a.root(), b, b.root())
}

type HomMemo = std::collections::HashMap<(PNodeId, PNodeId), bool>;

/// Can `w`'s subtree at `pw` be mapped homomorphically onto `s`'s subtree
/// rooted at (or, for descendant edges, below) `ps`? Output nodes must
/// correspond.
#[allow(clippy::too_many_arguments)]
fn hom(
    w: &Pattern,
    pw: PNodeId,
    s: &Pattern,
    ps: PNodeId,
    w_out: PNodeId,
    s_out: PNodeId,
    memo: &mut HomMemo,
) -> bool {
    if let Some(&b) = memo.get(&(pw, ps)) {
        return b;
    }
    memo.insert((pw, ps), false);
    let r = hom_uncached(w, pw, s, ps, w_out, s_out, memo);
    memo.insert((pw, ps), r);
    r
}

#[allow(clippy::too_many_arguments)]
fn hom_uncached(
    w: &Pattern,
    pw: PNodeId,
    s: &Pattern,
    ps: PNodeId,
    w_out: PNodeId,
    s_out: PNodeId,
    memo: &mut HomMemo,
) -> bool {
    // OR on the strong side first: the strong pattern only guarantees the
    // disjunction, so the weak node must map under EVERY strong branch —
    // and it may pick a DIFFERENT weak branch per strong branch, which is
    // why the ∀ (strong) must be outside the ∃ (weak).
    if let PLabel::Or = s.node(ps).label {
        return s
            .node(ps)
            .children
            .iter()
            .all(|&b| hom(w, pw, s, b, w_out, s_out, memo));
    }
    // OR on the weak side: a disjunction of requirements — SOME branch maps.
    if let PLabel::Or = w.node(pw).label {
        return w
            .node(pw)
            .children
            .iter()
            .any(|&b| hom(w, b, s, ps, w_out, s_out, memo));
    }
    // output correspondence: the weak output must land on the strong output
    if (pw == w_out) != (ps == s_out) {
        return false;
    }
    if !label_covers(&w.node(pw).label, &s.node(ps).label) {
        return false;
    }
    // every weak child must map to some strong child/descendant
    w.node(pw).children.iter().all(|&wc| {
        let targets = match w.node(wc).edge {
            EdgeKind::Child => {
                // child edge can only map onto a child edge
                s.node(ps)
                    .children
                    .iter()
                    .copied()
                    .filter(|&sc| s.node(sc).edge == EdgeKind::Child || or_child(s, sc))
                    .collect::<Vec<_>>()
            }
            EdgeKind::Descendant => descendants_of(s, ps),
        };
        targets
            .into_iter()
            .any(|sc| hom(w, wc, s, sc, w_out, s_out, memo))
    })
}

fn or_child(s: &Pattern, sc: PNodeId) -> bool {
    matches!(s.node(sc).label, PLabel::Or) && s.node(sc).edge == EdgeKind::Child
}

/// All strict-descendant candidate nodes of `ps` in the strong pattern
/// (any node strictly below, through any edges — a descendant edge in the
/// weak pattern is satisfied by any deeper strong node).
fn descendants_of(s: &Pattern, ps: PNodeId) -> Vec<PNodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<PNodeId> = s.node(ps).children.to_vec();
    while let Some(n) = stack.pop() {
        out.push(n);
        stack.extend(s.node(n).children.iter().copied());
    }
    out
}

/// Does the weak label accept everything the strong label accepts?
fn label_covers(weak: &PLabel, strong: &PLabel) -> bool {
    match (weak, strong) {
        (
            PLabel::Wildcard | PLabel::Var(_),
            PLabel::Const(_) | PLabel::Var(_) | PLabel::Wildcard,
        ) => true,
        (PLabel::Const(a), PLabel::Const(b)) => a == b,
        (PLabel::Fun(FunMatch::Any), PLabel::Fun(_)) => true,
        (PLabel::Fun(FunMatch::OneOf(ws)), PLabel::Fun(FunMatch::OneOf(ss))) => {
            ss.iter().all(|x| ws.contains(x))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfq::{build_lpqs, build_nfqs};
    use axml_query::parse_query;

    #[test]
    fn lpq_pruning_keeps_maximal_positions() {
        let q = parse_query(
            "/hotels/hotel[name=\"BW\"][rating=\"5\"]\
             /nearby//restaurant[name=$X][rating=\"5\"] -> $X",
        )
        .unwrap();
        let lpqs = build_lpqs(&q);
        let before = lpqs.len();
        let (kept, pruned) = prune_subsumed_lpqs(lpqs);
        assert!(pruned > 0, "descendant LPQs subsume their refinements");
        assert_eq!(kept.len() + pruned, before);
        // /hotels/hotel/nearby//() covers every …//restaurant/… LPQ
        assert!(kept
            .iter()
            .any(|l| l.lin.to_string() == "/hotels/hotel/nearby" && l.via == EdgeKind::Descendant));
        assert!(!kept
            .iter()
            .any(|l| l.lin.to_string().contains("restaurant")));
    }

    #[test]
    fn lpq_pruning_preserves_retrieval_sets() {
        use axml_query::eval;
        use axml_xml::parse;
        let q =
            parse_query("/hotels/hotel[rating=\"5\"]/nearby//restaurant[name=$X] -> $X").unwrap();
        let d = parse(
            "<hotels><hotel><rating><axml:call service=\"r\"/></rating>\
             <nearby><axml:call service=\"n\"/>\
               <restaurant><name><axml:call service=\"deep\"/></name></restaurant>\
             </nearby></hotel><axml:call service=\"h\"/></hotels>",
        )
        .unwrap();
        let all = build_lpqs(&q);
        let collect = |lpqs: &[crate::nfq::Lpq]| {
            let mut set = std::collections::BTreeSet::new();
            for l in lpqs {
                for node in eval(&l.pattern, &d).bindings_of(l.output) {
                    set.insert(d.call_info(node).unwrap().0);
                }
            }
            set
        };
        let full = collect(&all);
        let (kept, pruned) = prune_subsumed_lpqs(all);
        assert!(pruned > 0);
        assert_eq!(collect(&kept), full);
    }

    #[test]
    fn identical_branches_give_subsumed_nfqs() {
        // two syntactically identical conditions: their NFQs coincide
        let q = parse_query("/r[a=\"1\"][a=\"1\"]/b").unwrap();
        let nfqs = build_nfqs(&q);
        let before = nfqs.len();
        let (kept, pruned) = prune_subsumed_nfqs(&q, nfqs);
        assert!(pruned >= 2, "duplicate a-branch NFQs must collapse");
        assert_eq!(kept.len() + pruned, before);
    }

    #[test]
    fn one_directional_subsumption_does_not_prune() {
        // the restaurant NFQ subsumes the restaurant-rating-value NFQ
        // retrieval-wise, but the two refine and push differently — the
        // engine must keep both (see the doc comment on
        // prune_subsumed_nfqs)
        let q = parse_query("/hotels/hotel/nearby//restaurant[rating=\"*****\"][name=$X] -> $X")
            .unwrap();
        let nfqs = build_nfqs(&q);
        let before = nfqs.len();
        let (kept, pruned) = prune_subsumed_nfqs(&q, nfqs);
        assert_eq!(pruned, 0);
        assert_eq!(kept.len(), before);
    }

    #[test]
    fn pattern_isomorphism() {
        let a = parse_query("/r[x=\"1\"]/y").unwrap();
        let b = parse_query("/r[x=\"1\"]/y").unwrap();
        let c = parse_query("/r[x=\"2\"]/y").unwrap();
        assert!(patterns_isomorphic(&a, &b));
        assert!(!patterns_isomorphic(&a, &c));
    }

    #[test]
    fn nfq_subsumption_requires_weaker_conditions() {
        let q = parse_query("/r[a][b]/c").unwrap();
        let nfqs = build_nfqs(&q);
        // the NFQ of `a` (conditions: b present-or-fn) and the NFQ of `b`
        // (conditions: a present-or-fn) are at sibling positions with
        // different conditions: neither subsumes the other
        let a = nfqs
            .iter()
            .find(|n| matches!(&q.node(n.focus).label, PLabel::Const(l) if l.as_str()=="a"))
            .unwrap();
        let b = nfqs
            .iter()
            .find(|n| matches!(&q.node(n.focus).label, PLabel::Const(l) if l.as_str()=="b"))
            .unwrap();
        assert!(!nfq_subsumes(a, b));
        assert!(!nfq_subsumes(b, a));
    }

    #[test]
    fn wildcard_weakens() {
        let broad = parse_query("/r/*/x").unwrap();
        let narrow = parse_query("/r/mid/x").unwrap();
        let nb = build_nfqs(&broad);
        let nn = build_nfqs(&narrow);
        // NFQ of x under * subsumes NFQ of x under mid
        let bx = nb.iter().find(|n| n.lin.to_string() == "/r/*").unwrap();
        let nx = nn.iter().find(|n| n.lin.to_string() == "/r/mid").unwrap();
        assert!(nfq_subsumes(bx, nx));
        assert!(!nfq_subsumes(nx, bx));
    }

    use axml_query::EdgeKind;
}
