//! Type-based refinement of NFQs (Section 5).
//!
//! The star-labeled `()` alternatives of an NFQ accept *any* function call;
//! with signatures available, only the functions whose output type can
//! (after recursive expansion — *derived instances*) produce data matching
//! the guarded query subtree are kept. The refined NFQs retrieve exactly
//! the relevant calls. When invocations bring calls to previously unseen
//! functions into the document, the refinement is recomputed for the new
//! names only (the per-name verdicts are cached).

use crate::nfq::Nfq;
use axml_query::{EdgeKind, FunMatch, PLabel, PNodeId, Pattern};
use axml_schema::{SatMode, Satisfier, Schema};
use axml_xml::Label;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shared satisfiability-verdict store: guarded query node → function
/// name → satisfies? Nested so that a lookup borrows the name. Verdicts
/// depend only on the `(schema, query, mode)` triple, never on a
/// document, so a [`crate::CompiledQuery`] can carry one across sessions
/// and hand it to every run's refiner.
pub type SatVerdicts = Arc<Mutex<HashMap<PNodeId, HashMap<Label, bool>>>>;

/// Caching refinement engine for one `(schema, query)` pair.
pub struct TypeRefiner<'s, 'q> {
    query: &'q Pattern,
    /// One checker over the whole query: a node's verdict depends on its
    /// subquery `sub_q_u` alone, so its fixpoint answers every node.
    sat: Satisfier<'s, 'q>,
    /// guarded query node → function name → satisfies?
    cache: SatVerdicts,
}

impl<'s, 'q> TypeRefiner<'s, 'q> {
    /// Creates a refiner with a private verdict cache.
    pub fn new(schema: &'s Schema, query: &'q Pattern, mode: SatMode) -> Self {
        Self::with_verdicts(schema, query, mode, SatVerdicts::default())
    }

    /// Creates a refiner backed by a shared verdict cache. The caller must
    /// key the cache by `(schema, query, mode)` — verdicts are only valid
    /// for the exact triple they were computed under.
    pub fn with_verdicts(
        schema: &'s Schema,
        query: &'q Pattern,
        mode: SatMode,
        verdicts: SatVerdicts,
    ) -> Self {
        TypeRefiner {
            query,
            sat: Satisfier::new(schema, query, mode),
            cache: verdicts,
        }
    }

    /// Does `fname` satisfy the subquery rooted at query node `u`
    /// (Definition 6), memoized? One lock per lookup: a miss computes its
    /// verdict under it.
    pub fn satisfies(&mut self, fname: &str, u: PNodeId) -> bool {
        let mut cache = self.cache.lock().expect("verdict cache poisoned");
        if let Some(&b) = cache.get(&u).and_then(|by_name| by_name.get(fname)) {
            return b;
        }
        let via = if self.query.parent(u).is_none() {
            EdgeKind::Child
        } else {
            self.query.node(u).edge
        };
        let b = self.sat.function_satisfies_at(fname, u, via);
        cache.entry(u).or_default().insert(Label::new(fname), b);
        b
    }

    /// Refines an NFQ against the currently known function names:
    /// every `()` branch becomes the concrete list of satisfying names.
    ///
    /// Returns `None` when no function can satisfy the *output* position —
    /// the NFQ can never retrieve a relevant call and is dropped entirely.
    /// Side branches with an empty list lose their function alternative
    /// (only extensional data can satisfy that condition).
    pub fn refine(&mut self, nfq: &Nfq, known_functions: &[String]) -> Option<Nfq> {
        let mut refined = nfq.clone();
        let mut dead_side_branches: Vec<PNodeId> = Vec::new();
        for &(fnode, u) in &nfq.fun_branches {
            let allowed: Vec<Label> = known_functions
                .iter()
                .filter(|f| self.satisfies(f, u))
                .map(Label::new)
                .collect();
            if allowed.is_empty() {
                if fnode == nfq.output {
                    return None;
                }
                dead_side_branches.push(fnode);
            } else {
                refined
                    .pattern
                    .set_label(fnode, PLabel::Fun(FunMatch::OneOf(allowed)));
            }
        }
        for fnode in dead_side_branches {
            refined.pattern.remove_subtree(fnode);
        }
        Some(refined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfq::build_nfq;
    use axml_query::parse_query;
    use axml_schema::figure2_schema;
    use axml_xml::parse;

    fn fig4() -> Pattern {
        parse_query(
            "/hotel[name=\"Best Western\"][rating=\"*****\"]\
             /nearby//restaurant[name=$X][address=$Y][rating=\"*****\"] -> $X,$Y",
        )
        .unwrap()
    }

    fn node_named(q: &Pattern, name: &str) -> PNodeId {
        q.node_ids()
            .find(|&i| matches!(&q.node(i).label, PLabel::Const(l) if l.as_str() == name))
            .unwrap()
    }

    fn all_services() -> Vec<String> {
        [
            "getHotels",
            "getRating",
            "getNearbyRestos",
            "getNearbyMuseums",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    }

    #[test]
    fn refined_restaurant_nfq_excludes_museum_service() {
        // the paper's §5 example: discard getNearbyMuseums retrieved by the
        // NFQ of Figure 6(b)
        let q = fig4();
        let s = figure2_schema();
        for mode in [SatMode::Exact, SatMode::Lenient] {
            let mut refiner = TypeRefiner::new(&s, &q, mode);
            let nfq = build_nfq(&q, node_named(&q, "restaurant"));
            let refined = refiner.refine(&nfq, &all_services()).unwrap();
            match &refined.pattern.node(refined.output).label {
                PLabel::Fun(FunMatch::OneOf(names)) => {
                    let names: Vec<&str> = names.iter().map(|l| l.as_str()).collect();
                    assert!(names.contains(&"getNearbyRestos"), "{names:?}");
                    assert!(!names.contains(&"getNearbyMuseums"), "{names:?}");
                    assert!(!names.contains(&"getRating"), "{names:?}");
                    // getHotels outputs hotels, not restaurants, and the
                    // call sits below nearby: a hotel cannot appear there…
                    // but satisfiability is positional-type only: hotel
                    // trees *contain* restaurants, and the restaurant node
                    // is reached by a descendant edge, so getHotels remains
                    assert!(names.contains(&"getHotels"), "{names:?}");
                }
                other => panic!("expected refined list, got {other:?}"),
            }
        }
    }

    #[test]
    fn refined_nfq_changes_evaluation() {
        let q = fig4();
        let s = figure2_schema();
        let d = parse(
            "<hotel><name>Best Western</name><rating>*****</rating>\
              <nearby><axml:call service=\"getNearbyRestos\"/>\
                      <axml:call service=\"getNearbyMuseums\"/></nearby></hotel>",
        )
        .unwrap();
        let nfq = build_nfq(&q, node_named(&q, "restaurant"));
        // unrefined: both calls retrieved
        assert_eq!(axml_query::eval(&nfq.pattern, &d).len(), 2);
        // refined: only getNearbyRestos
        let mut refiner = TypeRefiner::new(&s, &q, SatMode::Exact);
        let refined = refiner
            .refine(&nfq, &["getNearbyRestos".into(), "getNearbyMuseums".into()])
            .unwrap();
        let r = axml_query::eval(&refined.pattern, &d);
        assert_eq!(r.len(), 1);
        let call = r.bindings_of(refined.output)[0];
        assert_eq!(d.call_info(call).unwrap().1.as_str(), "getNearbyRestos");
    }

    #[test]
    fn side_branches_refine_too() {
        // the getRating call numbered 6 in Figure 1: retrieved by the
        // rating-value NFQ; a side condition on nearby can only be
        // satisfied by restaurant data — getNearbyMuseums' () branch on
        // the restaurant condition disappears
        let q = fig4();
        let s = figure2_schema();
        let mut refiner = TypeRefiner::new(&s, &q, SatMode::Exact);
        let rating_value = node_named(&q, "*****"); // first occurrence: hotel rating value
        let nfq = build_nfq(&q, rating_value);
        let refined = refiner.refine(&nfq, &all_services()).unwrap();
        // the output must list getRating (it can produce the value)
        match &refined.pattern.node(refined.output).label {
            PLabel::Fun(FunMatch::OneOf(names)) => {
                assert!(names.iter().any(|l| l.as_str() == "getRating"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nfq_with_unsatisfiable_output_is_dropped() {
        // a query over an element no function can produce: a bare leaf
        // would still be satisfiable by a data value spelled "pool", so use
        // a pattern with children — data values have none
        let q = parse_query("/hotel/pool[depth=\"3\"]").unwrap();
        let s = figure2_schema();
        let mut refiner = TypeRefiner::new(&s, &q, SatMode::Exact);
        let pool = node_named(&q, "pool");
        let nfq = build_nfq(&q, pool);
        // none of the four services can produce a pool element
        assert!(refiner.refine(&nfq, &all_services()).is_none());
    }

    #[test]
    fn unknown_functions_are_kept() {
        let q = fig4();
        let s = figure2_schema();
        let mut refiner = TypeRefiner::new(&s, &q, SatMode::Exact);
        let nfq = build_nfq(&q, node_named(&q, "restaurant"));
        let refined = refiner
            .refine(&nfq, &["mystery".into()])
            .expect("unknown functions are never pruned");
        match &refined.pattern.node(refined.output).label {
            PLabel::Fun(FunMatch::OneOf(names)) => {
                assert_eq!(names.len(), 1);
                assert_eq!(names[0].as_str(), "mystery");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verdicts_are_cached() {
        let q = fig4();
        let s = figure2_schema();
        let mut refiner = TypeRefiner::new(&s, &q, SatMode::Exact);
        let u = node_named(&q, "restaurant");
        assert!(refiner.satisfies("getNearbyRestos", u));
        assert!(refiner.satisfies("getNearbyRestos", u)); // hits the cache
        assert_eq!(refiner.cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn shared_verdicts_survive_refiner_teardown() {
        let q = fig4();
        let s = figure2_schema();
        let verdicts = SatVerdicts::default();
        let u = node_named(&q, "restaurant");
        {
            let mut refiner =
                TypeRefiner::with_verdicts(&s, &q, SatMode::Exact, Arc::clone(&verdicts));
            assert!(refiner.satisfies("getNearbyRestos", u));
        }
        assert_eq!(verdicts.lock().unwrap().len(), 1);
        // a second refiner sees the verdict without recomputation
        let mut refiner2 = TypeRefiner::with_verdicts(&s, &q, SatMode::Exact, verdicts);
        assert!(refiner2.satisfies("getNearbyRestos", u));
    }
}
