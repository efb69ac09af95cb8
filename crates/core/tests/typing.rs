//! Section 5's checker as the engine uses it:
//! * every verdict of the production `Satisfier` equals the reference
//!   round-robin fixpoint's, on the queries, NFQs and refined NFQs the
//!   engine asks about (OR nodes, function labels, detached branches);
//! * a query node with more children than a coverage mask has bits still
//!   gets the naive engine's answer under exact typing.

#[path = "../../schema/tests/support/mod.rs"]
mod schema_support;

use axml_core::{build_nfqs, Engine, EngineConfig, TypeRefiner};
use axml_gen::scenario::{extended_schema, figure1, figure4_query};
use axml_query::{parse_query, render_result, EdgeKind, Pattern};
use axml_schema::{figure2_schema, parse_schema, SatMode, Satisfier, Schema};
use proptest::prelude::*;
use schema_support::reference::Reference;
use schema_support::{schema_strategy, SCHEMA_QUERIES};

/// The query, each of its NFQs and each NFQ refined against the declared
/// functions (which lists functions and detaches dead side branches).
fn patterns(schema: &Schema, q: &Pattern) -> Vec<Pattern> {
    let declared: Vec<String> = schema
        .functions()
        .map(|sig| sig.name.as_str().to_string())
        .collect();
    let mut refiner = TypeRefiner::new(schema, q, SatMode::Exact);
    let mut out = vec![q.clone()];
    for nfq in build_nfqs(q) {
        if let Some(refined) = refiner.refine(&nfq, &declared) {
            out.push(refined.pattern);
        }
        out.push(nfq.pattern);
    }
    out
}

/// Every `(mode, node, function, edge)` verdict on `p` where the
/// production checker and the reference disagree. The functions are the
/// declared ones plus an undeclared name.
fn disagreements(schema: &Schema, p: &Pattern) -> Vec<String> {
    let mut names: Vec<String> = schema
        .functions()
        .map(|sig| sig.name.as_str().to_string())
        .collect();
    names.push("undeclared".to_string());
    let mut out = Vec::new();
    for mode in [SatMode::Exact, SatMode::Lenient] {
        let mut production = Satisfier::new(schema, p, mode);
        let mut reference = Reference::new(schema, p, mode);
        for u in p.node_ids() {
            for f in &names {
                for via in [EdgeKind::Child, EdgeKind::Descendant] {
                    let got = production.function_satisfies_at(f, u, via);
                    let want = reference.function_satisfies_at(f, u, via);
                    if got != want {
                        out.push(format!(
                            "{mode:?} {f} at node {} via {via:?}: {got}, reference {want}",
                            u.index()
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn figure4_verdicts_match_the_reference() {
    let schema = figure2_schema();
    for p in patterns(&schema, &figure4_query()) {
        let bad = disagreements(&schema, &p);
        assert!(bad.is_empty(), "{}: {bad:#?}", axml_query::render(&p));
    }
}

#[test]
fn hotel_and_hand_picked_verdicts_match_the_reference() {
    // the benchmark's hotel queries over the generator's schema, and a
    // schema with what the random ones rarely draw: elements whose
    // content reaches `any` through a call, an undeclared element,
    // recursion, and every regex operator
    let hotels = [
        "/hotel[name=\"Best Western\"][rating=\"*****\"]\
         /nearby//restaurant[name=$X][address=$Y][rating=\"*****\"] -> $X,$Y",
        "//restaurant[rating=\"*****\"]/name/$N -> $N",
        "/hotels/hotel/name/$N -> $N",
    ];
    let odd = parse_schema(
        "element a = (b | c)*.d?\n\
         element b = (data | g)\n\
         element c = e+\n\
         element d = any\n\
         element e = (f | data)\n\
         function f = in: data, out: a.g?\n\
         function g = in: data, out: (b | any*)\n\
         function h = in: data, out: x.h?\n",
    )
    .unwrap();
    let odd_queries = [
        "/a[b][c]/d",
        "/*[b]//e",
        "/a//x",
        "/$V[b=\"v\"]/c/e",
        "//d//b",
        "/x/y",
        "/a[b][b][c][d]",
    ];
    let cases = hotels
        .iter()
        .map(|q| (extended_schema(), *q))
        .chain(odd_queries.iter().map(|q| (odd.clone(), *q)));
    for (schema, query) in cases {
        let q = parse_query(query).unwrap();
        for p in patterns(&schema, &q) {
            let bad = disagreements(&schema, &p);
            assert!(
                bad.is_empty(),
                "{} from {query}: {bad:#?}",
                axml_query::render(&p)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verdicts_match_the_reference(text in schema_strategy()) {
        let schema = parse_schema(&text).unwrap();
        for query in SCHEMA_QUERIES {
            let q = parse_query(query).unwrap();
            for p in patterns(&schema, &q) {
                let bad = disagreements(&schema, &p);
                prop_assert!(bad.is_empty(), "{} from {} under\n{}: {:#?}",
                    axml_query::render(&p), query, text, bad);
            }
        }
    }
}

#[test]
fn wide_query_nodes_get_the_naive_answer() {
    // the hotel node has `conditions + 1` children: 32 fill a coverage
    // mask, 33 and 41 overflow it and take the lenient verdict there
    for conditions in [31, 32, 40] {
        let q = parse_query(&format!(
            "/hotels/hotel{}/nearby//restaurant/name/$X -> $X",
            "[name=\"Best Western\"]".repeat(conditions)
        ))
        .unwrap();
        let answers = |config: EngineConfig| {
            let s = figure1();
            let mut doc = s.doc;
            let report = Engine::new(&s.registry, config)
                .with_schema(&s.schema)
                .evaluate(&mut doc, &q);
            assert!(report.complete);
            let mut rows = render_result(&doc, &report.result);
            rows.sort();
            rows
        };
        let lazy = answers(EngineConfig::default());
        assert!(!lazy.is_empty(), "{conditions} conditions");
        assert_eq!(
            lazy,
            answers(EngineConfig::naive()),
            "{conditions} conditions"
        );
    }
}
