//! Multi-query evaluation (§4.1's multi-query-optimization pointer) and
//! the exchange-oriented `complete_for` API.

use axml_core::{Engine, EngineConfig};
use axml_gen::scenario::{figure1, figure4_query};
use axml_obs::{EventKind, RingSink};
use axml_query::{eval, parse_query, render_result};
use std::collections::BTreeSet;

#[test]
fn shared_rewriting_invokes_shared_calls_once() {
    let s = figure1();
    let q1 = figure4_query();
    // a second query over the same hotels: museum names near Best Westerns
    let q2 =
        parse_query("/hotels/hotel[name=\"Best Western\"]/nearby//museum[name=$M] -> $M").unwrap();

    // separately: two full runs
    let mut d1 = s.doc.clone();
    let r1 = Engine::new(&s.registry, EngineConfig::default())
        .with_schema(&s.schema)
        .evaluate(&mut d1, &q1);
    let mut d2 = s.doc.clone();
    let r2 = Engine::new(&s.registry, EngineConfig::default())
        .with_schema(&s.schema)
        .evaluate(&mut d2, &q2);
    let separate_calls = r1.stats.calls_invoked + r2.stats.calls_invoked;

    // shared: one rewriting
    let mut dm = s.doc.clone();
    let reports = Engine::new(&s.registry, EngineConfig::default())
        .with_schema(&s.schema)
        .evaluate_many(&mut dm, &[q1.clone(), q2.clone()]);
    assert_eq!(reports.len(), 2);
    let shared_calls = reports[0].stats.calls_invoked;
    assert!(
        shared_calls < separate_calls,
        "shared {shared_calls} vs separate {separate_calls}"
    );

    // answers agree with the single-query runs
    let a1: BTreeSet<_> = render_result(&dm, &reports[0].result).into_iter().collect();
    let b1: BTreeSet<_> = render_result(&d1, &r1.result).into_iter().collect();
    assert_eq!(a1, b1);
    let a2: BTreeSet<_> = render_result(&dm, &reports[1].result).into_iter().collect();
    let b2: BTreeSet<_> = render_result(&d2, &r2.result).into_iter().collect();
    assert_eq!(a2, b2);
}

#[test]
fn multi_query_superset_of_single_query_calls() {
    // the union rewriting must cover both queries' needs: every call a
    // single-query run fires is fired by the shared run too
    let s = figure1();
    let q1 = figure4_query();
    let q2 = parse_query("/hotels/hotel[name=\"Pennsylvania\"]/rating/$R -> $R").unwrap();
    let mut dm = s.doc.clone();
    let reports = Engine::new(&s.registry, EngineConfig::default())
        .with_schema(&s.schema)
        .evaluate_many(&mut dm, &[q1, q2.clone()]);
    // q2 needs Pennsylvania's getRating, which q1 alone would prune
    assert!(!reports[1].result.is_empty());
    let rendered = render_result(&dm, &reports[1].result);
    assert_eq!(rendered, vec![vec!["***".to_string()]]);
}

#[test]
fn empty_query_set() {
    let s = figure1();
    let mut doc = s.doc.clone();
    let reports = Engine::new(&s.registry, EngineConfig::default())
        .with_schema(&s.schema)
        .evaluate_many(&mut doc, &[]);
    assert!(reports.is_empty());
    assert_eq!(doc.calls().len(), 10, "nothing invoked");
}

#[test]
fn complete_for_materializes_without_evaluating() {
    let s = figure1();
    let q = figure4_query();
    let mut doc = s.doc.clone();
    let engine = Engine::new(&s.registry, EngineConfig::default()).with_schema(&s.schema);
    let stats = engine.complete_for(&mut doc, &q);
    assert_eq!(stats.calls_invoked, 5);
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

#[test]
fn shared_run_keeps_per_query_nfq_state_apart() {
    // every query's NFQ list runs through one shared run: the museum
    // query's NFQ #k must not reuse figure4's class verdicts for its own
    // NFQ #k
    let s = figure1();
    let museums =
        parse_query("/hotels/hotel[name=\"Best Western\"]/nearby//museum[name=$M] -> $M").unwrap();
    let layered = EngineConfig::default();
    let sequential = EngineConfig {
        layering: false,
        parallel: false,
        ..layered.clone()
    };
    for config in [layered, sequential] {
        let mut single = s.doc.clone();
        let alone = Engine::new(&s.registry, config.clone())
            .with_schema(&s.schema)
            .evaluate(&mut single, &museums);
        let expected: BTreeSet<_> = render_result(&single, &alone.result).into_iter().collect();
        assert_eq!(expected, BTreeSet::from([vec!["MoMA".to_string()]]));

        let mut shared = s.doc.clone();
        let reports = Engine::new(&s.registry, config)
            .with_schema(&s.schema)
            .evaluate_many(&mut shared, &[figure4_query(), museums.clone()]);
        assert!(reports[1].complete);
        let got: BTreeSet<_> = render_result(&shared, &reports[1].result)
            .into_iter()
            .collect();
        assert_eq!(got, expected);
    }
}
