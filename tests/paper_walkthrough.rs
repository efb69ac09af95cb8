//! A test-suite walkthrough of the paper's worked examples, via the
//! `activexml` facade: Section 2's relevance discussion on Figure 1,
//! Section 3's LPQ/NFQ retrieval sets, and the schema validity of every
//! intermediate state.

use activexml::core::{build_lpqs, build_nfqs, Engine, EngineConfig};
use activexml::gen::scenario::{figure1, figure4_query};
use activexml::query::eval;
use activexml::schema::validate;
use activexml::xml::CallId;
use std::collections::BTreeSet;

/// CallIds are assigned in creation order by `figure1()`; map them back to
/// the paper's numbering of Figure 1.
fn paper_number(id: CallId) -> u32 {
    match id.0 {
        0 => 1,  // getNearbyRestos  Best Western 2nd Av
        1 => 2,  // getNearbyMuseums Best Western 2nd Av
        2 => 3,  // getRating        Best Western Madison
        3 => 4,  // getNearbyRestos  Madison
        4 => 5,  // getNearbyMuseums Madison
        5 => 8,  // getRating        Pennsylvania
        6 => 9,  // getNearbyRestos  Pennsylvania
        7 => 6,  // getRating        Best Western 34th St
        8 => 7,  // getNearbyMuseums 34th St
        9 => 10, // getHotels
        other => panic!("unexpected call id {other}"),
    }
}

fn retrieved_by_nfqs(typed: bool) -> BTreeSet<u32> {
    let s = figure1();
    let q = figure4_query();
    let nfqs = build_nfqs(&q);
    let mut out = BTreeSet::new();
    let known: Vec<String> = s.registry.service_names();
    let mut refiner =
        activexml::core::TypeRefiner::new(&s.schema, &q, activexml::schema::SatMode::Exact);
    for nfq in &nfqs {
        let effective = if typed {
            match refiner.refine(nfq, &known) {
                Some(r) => r,
                None => continue,
            }
        } else {
            nfq.clone()
        };
        for node in eval(&effective.pattern, &s.doc).bindings_of(effective.output) {
            let (id, _) = s.doc.call_info(node).unwrap();
            out.insert(paper_number(id));
        }
    }
    out
}

#[test]
fn section2_relevant_calls_with_types_are_1_3_4_10() {
    // "The relevant functions here are 1, 3, 4 and 10" (Section 2) — this
    // needs the signatures: 7 is excluded because its output type cannot
    // contribute, and therefore 6 too.
    assert_eq!(
        retrieved_by_nfqs(true),
        [1u32, 3, 4, 10].into_iter().collect::<BTreeSet<_>>()
    );
}

#[test]
fn section3_untyped_nfqs_keep_type_prunable_calls() {
    // without signatures ("functions can return arbitrary answers"), the
    // museum calls and call 6 remain position/condition-plausible, but the
    // Pennsylvania calls (8, 9) are still pruned by the name condition
    let got = retrieved_by_nfqs(false);
    assert_eq!(
        got,
        [1u32, 2, 3, 4, 5, 6, 7, 10]
            .into_iter()
            .collect::<BTreeSet<_>>()
    );
    assert!(!got.contains(&8));
    assert!(!got.contains(&9));
}

#[test]
fn section3_lpqs_retrieve_a_superset_by_position() {
    let s = figure1();
    let q = figure4_query();
    let mut by_lpq = BTreeSet::new();
    for lpq in build_lpqs(&q) {
        for node in eval(&lpq.pattern, &s.doc).bindings_of(lpq.output) {
            let (id, _) = s.doc.call_info(node).unwrap();
            by_lpq.insert(paper_number(id));
        }
    }
    // positions only: every call of Figure 1 is on a query path
    assert_eq!(by_lpq, (1u32..=10).collect::<BTreeSet<_>>());
    assert!(by_lpq.is_superset(&retrieved_by_nfqs(false)));
    assert!(retrieved_by_nfqs(false).is_superset(&retrieved_by_nfqs(true)));
}

#[test]
fn documents_stay_schema_valid_throughout_the_rewriting() {
    let s = figure1();
    assert!(validate(&s.doc, &s.schema).is_empty());
    let mut doc = s.doc.clone();
    let q = figure4_query();
    let report = Engine::new(&s.registry, EngineConfig::naive())
        .with_schema(&s.schema)
        .evaluate(&mut doc, &q);
    assert!(!report.stats.truncated);
    // the fully materialized document still conforms to τ
    let errors = validate(&doc, &s.schema);
    assert!(errors.is_empty(), "{errors:?}");
    // and contains no calls at all
    assert!(doc.calls().is_empty());
}

#[test]
fn full_result_is_the_snapshot_of_the_complete_document() {
    // Section 2: the full result is the snapshot result on the full state
    let s = figure1();
    let q = figure4_query();
    // materialize by hand
    let mut full = s.doc.clone();
    loop {
        let calls = full.calls();
        if calls.is_empty() {
            break;
        }
        let c = calls[0];
        let (_, svc) = full.call_info(c).unwrap();
        let out = s
            .registry
            .invoke_within(
                svc.as_str(),
                full.children_to_forest(c),
                None,
                f64::INFINITY,
            )
            .unwrap();
        full.splice_call(c, &out.result);
    }
    let by_hand = activexml::query::render_result(&full, &eval(&q, &full))
        .into_iter()
        .collect::<BTreeSet<_>>();
    // lazy engine
    let s2 = figure1();
    let mut lazy_doc = s2.doc;
    let report = Engine::new(&s2.registry, EngineConfig::default())
        .with_schema(&s2.schema)
        .evaluate(&mut lazy_doc, &q);
    let by_engine = activexml::query::render_result(&lazy_doc, &report.result)
        .into_iter()
        .collect::<BTreeSet<_>>();
    assert_eq!(by_hand, by_engine);
}
