//! Property: the cache is invisible in answers. For random documents and
//! random query sequences, every answer a warm session produces equals
//! the answer a cold, cache-less engine produces on a fresh copy of the
//! document — and an immediately repeated query under an infinite
//! validity window costs zero invocations and constructs the same
//! `<results>` document.

use axml_core::{Engine, EngineConfig};
use axml_gen::synthetic::{random_query, random_workload, SyntheticParams};
use axml_query::{construct_results, render_result, Pattern};
use axml_services::Registry;
use axml_store::{CacheConfig, DocumentStore, SessionOptions};
use axml_xml::{to_xml, Document};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Answers = BTreeSet<Vec<String>>;

fn cold_answers(doc: &Document, q: &Pattern, registry: &Registry) -> Answers {
    let mut d = doc.clone();
    let report = Engine::new(registry, EngineConfig::default()).evaluate(&mut d, q);
    assert!(!report.stats.truncated, "synthetic workloads terminate");
    render_result(&d, &report.result).into_iter().collect()
}

/// The serialized `<results>` documents of a cold and then a warm engine
/// run of `q`, each over a copy of `doc`, sharing `store`'s call cache.
fn cold_and_warm_results(
    store: &DocumentStore,
    doc: &Document,
    q: &Pattern,
    registry: &Registry,
) -> (String, String) {
    let mut clock_ms = 0.0;
    let mut run = || {
        let mut d = doc.clone();
        let report = Engine::new(registry, EngineConfig::default())
            .with_cache(store.cache().as_ref())
            .starting_at(clock_ms)
            .evaluate(&mut d, q);
        clock_ms += report.stats.sim_time_ms;
        to_xml(&construct_results(&d, q, &report.result))
    };
    let cold = run();
    (cold, run())
}

/// A pool of distinct queries, some repeated, in a seed-determined order.
fn query_sequence(qseed: u64, alphabet: usize) -> Vec<Pattern> {
    let pool: Vec<Pattern> = (0..3)
        .map(|i| random_query(qseed.wrapping_add(i * 7919), alphabet, 7))
        .collect();
    // deterministic interleaving with repeats: 0 1 0 2 1 0
    [0usize, 1, 0, 2, 1, 0]
        .iter()
        .map(|&i| pool[i].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_sessions_answer_exactly_like_cold_engines(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        doc_nodes in 30usize..100,
        call_probability in 0.05f64..0.5,
        ttl_idx in 0usize..3,
    ) {
        let ttl_ms = [f64::INFINITY, 10_000.0, 50.0][ttl_idx];
        let params = SyntheticParams {
            seed: wseed,
            doc_nodes,
            call_probability,
            ..Default::default()
        };
        let (doc, registry) = random_workload(&params);
        let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(ttl_ms));
        store.insert("d", doc.clone());
        let mut session = store
            .session("d", &registry, None, SessionOptions::default())
            .unwrap();
        for (i, q) in query_sequence(qseed, params.alphabet).iter().enumerate() {
            let warm = session.query(q);
            let cold = cold_answers(&doc, q, &registry);
            prop_assert_eq!(
                &warm.answers, &cold,
                "query {} of the session diverged from a cold engine \
                 (wseed={}, qseed={}, ttl={})",
                i, wseed, qseed, ttl_ms
            );
            prop_assert!(warm.complete, "healthy workloads stay complete");
        }
    }

    #[test]
    fn immediate_reevaluation_is_free_under_infinite_ttl(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        let mut store = DocumentStore::new();
        store.insert("d", doc.clone());
        let mut session = store
            .session("d", &registry, None, SessionOptions::default())
            .unwrap();
        let cold = session.query(&q);
        let warm = session.query(&q);
        prop_assert_eq!(warm.stats.calls_invoked, 0, "wseed={}, qseed={}", wseed, qseed);
        prop_assert_eq!(warm.stats.cache_misses, 0, "wseed={}, qseed={}", wseed, qseed);
        prop_assert_eq!(warm.stats.sim_time_ms, 0.0);
        prop_assert_eq!(&warm.answers, &cold.answers);
        let (cold_xml, warm_xml) = cold_and_warm_results(&DocumentStore::new(), &doc, &q, &registry);
        prop_assert_eq!(warm_xml, cold_xml, "wseed={}, qseed={}", wseed, qseed);
    }
}
