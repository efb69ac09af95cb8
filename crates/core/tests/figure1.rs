//! Paper-fidelity tests on the exact Figure 1 document and Figure 4 query:
//! the relevance discussion of Section 2 ("The relevant functions here are
//! 1, 3, 4 and 10") must be reproduced by the engine.

use axml_core::{Engine, EngineConfig, Strategy, Typing};
use axml_gen::scenario::{figure1, figure4_query};
use axml_query::render_result;

fn invoked_services(stats: &axml_core::EngineStats) -> Vec<(String, usize)> {
    stats
        .invoked_by_service
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// All strategies must compute the same full result: In Delis, The Capital
/// (near the 2nd Av. Best Western), Mama (near the Madison Best Western,
/// whose rating arrives via getRating), and Bowling Green Cafe (in the
/// hotel returned by getHotels). Grease (1★), Jo (4★ via nested call) and
/// Penn Grill (wrong hotel name) never qualify.
fn expected_answers() -> Vec<Vec<String>> {
    let mut v = vec![
        vec!["In Delis".to_string(), "2nd Ave.".to_string()],
        vec!["The Capital".to_string(), "2nd Ave.".to_string()],
        vec!["Mama".to_string(), "Madison Av.".to_string()],
        vec!["Bowling Green Cafe".to_string(), "Broadway".to_string()],
    ];
    v.sort();
    v
}

fn run(config: EngineConfig) -> (Vec<Vec<String>>, axml_core::EngineStats) {
    let s = figure1();
    let mut doc = s.doc;
    let q = figure4_query();
    let engine = Engine::new(&s.registry, config).with_schema(&s.schema);
    let report = engine.evaluate(&mut doc, &q);
    let mut answers = render_result(&doc, &report.result);
    answers.sort();
    (answers, report.stats)
}

#[test]
fn naive_materializes_everything() {
    let (answers, stats) = run(EngineConfig::naive());
    assert_eq!(answers, expected_answers());
    // 10 original calls + Jo's nested getRating = 11
    assert_eq!(stats.calls_invoked, 11);
    assert!(!stats.truncated);
}

#[test]
fn typed_nfq_invokes_exactly_the_relevant_calls() {
    let (answers, stats) = run(EngineConfig::default());
    assert_eq!(answers, expected_answers());
    // the paper's relevant set {1, 3, 4, 10} plus Jo's nested getRating,
    // which becomes relevant when call 4's result arrives
    assert_eq!(stats.calls_invoked, 5, "{stats}");
    let by = invoked_services(&stats);
    assert_eq!(
        by,
        vec![
            ("getHotels".to_string(), 1),
            ("getNearbyRestos".to_string(), 2),
            ("getRating".to_string(), 2),
        ]
    );
    // no museum call is ever fired under typing
    assert!(!stats.invoked_by_service.contains_key("getNearbyMuseums"));
}

#[test]
fn untyped_nfq_also_fires_type_prunable_calls() {
    let (answers, stats) = run(EngineConfig::nfq_plain());
    assert_eq!(answers, expected_answers());
    // more than the typed 5 (museum calls are position-plausible), but
    // never the Pennsylvania calls (extensional name mismatch)
    assert!(stats.calls_invoked > 5);
    let penn_restos_invoked = stats
        .invoked_by_service
        .get("getNearbyRestos")
        .copied()
        .unwrap_or(0);
    assert_eq!(penn_restos_invoked, 2, "Penn St. must not be fetched");
}

#[test]
fn lpq_prunes_nothing_on_figure1_but_stays_correct() {
    // every Figure 1 call sits on a query path, so LPQ ≈ naive here
    let (answers, stats) = run(EngineConfig::lpq());
    assert_eq!(answers, expected_answers());
    assert_eq!(stats.calls_invoked, 11);
}

#[test]
fn top_down_is_correct_but_restarts_a_lot() {
    let (answers, stats) = run(EngineConfig::top_down());
    assert_eq!(answers, expected_answers());
    // one invocation per round, by construction
    assert_eq!(stats.rounds, stats.calls_invoked);
}

#[test]
fn all_strategy_combinations_agree() {
    let mut reference: Option<Vec<Vec<String>>> = None;
    for strategy in [
        Strategy::Naive,
        Strategy::TopDown,
        Strategy::Lpq,
        Strategy::Nfq,
    ] {
        for typing in [Typing::None, Typing::Lenient, Typing::Exact] {
            for push in [false, true] {
                for parallel in [false, true] {
                    for layering in [false, true] {
                        let config = EngineConfig {
                            strategy,
                            typing,
                            push_queries: push,
                            parallel,
                            layering,
                            ..EngineConfig::default()
                        };
                        let (answers, stats) = run(config);
                        assert!(!stats.truncated);
                        match &reference {
                            None => reference = Some(answers),
                            Some(r) => assert_eq!(
                                &answers, r,
                                "{strategy:?}/{typing:?}/push={push}/par={parallel}/lay={layering}"
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn typed_lazy_beats_naive_on_every_metric() {
    let (_, lazy) = run(EngineConfig::default());
    let (_, naive) = run(EngineConfig::naive());
    assert!(lazy.calls_invoked < naive.calls_invoked);
    assert!(lazy.bytes_transferred <= naive.bytes_transferred);
}

#[test]
fn push_reduces_bytes() {
    let with_push = run(EngineConfig {
        push_queries: true,
        ..EngineConfig::default()
    });
    let without_push = run(EngineConfig {
        push_queries: false,
        ..EngineConfig::default()
    });
    assert_eq!(with_push.0, without_push.0);
    assert!(
        with_push.1.bytes_transferred < without_push.1.bytes_transferred,
        "push: {} vs plain: {}",
        with_push.1.bytes_transferred,
        without_push.1.bytes_transferred
    );
    assert!(with_push.1.pushed_calls > 0);
}

#[test]
fn budget_truncation_is_reported() {
    let s = figure1();
    let mut doc = s.doc;
    let q = figure4_query();
    let engine = Engine::new(
        &s.registry,
        EngineConfig {
            max_invocations: 2,
            ..EngineConfig::naive()
        },
    );
    let report = engine.evaluate(&mut doc, &q);
    assert!(report.stats.truncated);
    assert_eq!(report.stats.calls_invoked, 2);
}

#[test]
fn unknown_services_are_skipped_not_fatal() {
    let s = figure1();
    let mut doc = s.doc;
    // add a call to a service nobody registered
    let root = doc.root();
    doc.add_call(root, "getGossip");
    let q = figure4_query();
    let report = Engine::new(&s.registry, EngineConfig::naive()).evaluate(&mut doc, &q);
    assert!(report.stats.skipped_unknown >= 1);
    let mut answers = render_result(&doc, &report.result);
    answers.sort();
    assert_eq!(answers, expected_answers());
}

#[test]
fn completed_document_retrieves_no_more_calls() {
    // Proposition 2: when NFQA terminates, the document is complete for
    // the query — re-running every NFQ on the final document must retrieve
    // nothing
    use axml_core::build_nfqs;
    let s = figure1();
    let mut doc = s.doc;
    let q = figure4_query();
    let report = Engine::new(&s.registry, EngineConfig::nfq_plain()).evaluate(&mut doc, &q);
    assert!(!report.stats.truncated);
    for nfq in build_nfqs(&q) {
        let retrieved = axml_query::eval(&nfq.pattern, &doc).bindings_of(nfq.output);
        assert!(
            retrieved.is_empty(),
            "NFQ of {:?} still retrieves {:?} after completion",
            nfq.focus,
            retrieved
        );
    }
}
