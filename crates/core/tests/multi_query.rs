//! The exchange-oriented `complete_for` API (§1's closing remark) beside
//! `evaluate`, and the invocation trace both emit.

use axml_core::{Engine, EngineConfig};
use axml_gen::scenario::{figure1, figure4_query};
use axml_obs::{to_jsonl, EventKind, RingSink};
use axml_query::{eval, parse_query};

#[test]
fn complete_for_materializes_without_evaluating() {
    let s = figure1();
    let q = figure4_query();
    let mut doc = s.doc.clone();
    let engine = Engine::new(&s.registry, EngineConfig::default()).with_schema(&s.schema);
    let done = engine.complete_for(&mut doc, &q);
    assert_eq!(done.stats.calls_invoked, 5);
    assert!(
        done.stats.final_eval_cpu.is_zero(),
        "no answer was evaluated"
    );
    // the shipped document answers the query by plain evaluation, no
    // further service interaction needed
    let snapshot = eval(&q, &doc);
    assert_eq!(snapshot.len(), 4);
    // and the calls irrelevant to the query are still pending in it
    assert!(!doc.calls().is_empty());
}

#[test]
fn trace_records_each_invocation() {
    let s = figure1();
    let mut doc = s.doc.clone();
    let q = figure4_query();
    let ring = RingSink::unbounded();
    let report = Engine::new(&s.registry, EngineConfig::default())
        .with_schema(&s.schema)
        .with_observer(&ring)
        .evaluate(&mut doc, &q);
    // (service, parent path, pushed) of every invocation event
    let invocations: Vec<(String, String, bool)> = ring
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Invocation {
                service,
                path,
                pushed,
                ..
            } => Some((service, path, pushed)),
            _ => None,
        })
        .collect();
    assert_eq!(invocations.len(), report.stats.calls_invoked);
    assert!(invocations
        .iter()
        .any(|(service, path, _)| service == "getNearbyRestos"
            && path.starts_with("hotels/hotel/nearby")));
    assert!(invocations.iter().any(|&(_, _, pushed)| pushed));
    // an unobserved run makes the same calls
    let mut doc2 = s.doc.clone();
    let quiet = Engine::new(&s.registry, EngineConfig::default())
        .with_schema(&s.schema)
        .evaluate(&mut doc2, &q);
    assert_eq!(quiet.stats.calls_invoked, report.stats.calls_invoked);
}

/// `complete_for` is `evaluate` without the final evaluation: on every
/// strategy it leaves the same document, invokes the same calls, reports
/// the same changed paths and emits the same trace.
#[test]
fn complete_for_rewrites_exactly_like_evaluate() {
    let s = figure1();
    let ratings = parse_query("/hotels/hotel[name=$N]/rating/$R -> $N,$R").unwrap();
    let configs = [
        EngineConfig::default(),
        EngineConfig::naive(),
        EngineConfig::top_down(),
        EngineConfig::lpq(),
        EngineConfig::nfq_plain(),
    ];
    for config in configs {
        for q in [figure4_query(), ratings.clone()] {
            let (eval_trace, completion_trace) = (RingSink::unbounded(), RingSink::unbounded());
            let mut by_eval = s.doc.clone();
            let report = Engine::new(&s.registry, config.clone())
                .with_schema(&s.schema)
                .with_observer(&eval_trace)
                .evaluate(&mut by_eval, &q);
            let mut by_completion = s.doc.clone();
            let done = Engine::new(&s.registry, config.clone())
                .with_schema(&s.schema)
                .with_observer(&completion_trace)
                .complete_for(&mut by_completion, &q);
            let what = format!("{:?} on {}", config.strategy, axml_query::render(&q));
            assert_eq!(
                axml_xml::to_xml(&by_completion),
                axml_xml::to_xml(&by_eval),
                "{what}: documents differ"
            );
            assert_eq!(done.changed_paths, report.changed_paths, "{what}");
            let counters = |st: &axml_core::EngineStats| {
                (
                    st.calls_invoked,
                    st.failed_calls,
                    st.cache_hits,
                    st.call_attempts,
                    st.bytes_transferred,
                    st.pushed_calls,
                    st.invoked_by_service.clone(),
                    st.rounds,
                    st.sim_time_ms,
                    st.final_doc_size,
                )
            };
            assert_eq!(counters(&done.stats), counters(&report.stats), "{what}");
            assert_eq!(
                to_jsonl(&completion_trace.events()),
                to_jsonl(&eval_trace.events()),
                "{what}: traces differ"
            );
        }
    }
}
