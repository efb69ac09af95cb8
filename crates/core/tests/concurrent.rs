//! The concurrency test oracle: random multi-tenant session mixes run
//! through the store's scheduler, pinned by two properties.
//!
//! * **Serial replay** — a seeded deterministic run records the exact
//!   interleaving it played; replaying that schedule serially on a fresh,
//!   identically-built world reproduces every per-session outcome,
//!   including invocation and cache-hit counts. Any hidden shared state
//!   beyond the (deterministic) cache and published document versions
//!   would diverge here.
//! * **Answer independence** — with snapshot isolation and an
//!   answer-invisible cache, a session's answers under real concurrent
//!   execution equal the answers the same query stream produces alone on
//!   a private store. Interleaving may move *costs* (who pays the miss),
//!   never answers.
//!
//! Sessions randomly mix snapshot mode and persistent (publishing) mode;
//! the persistent sessions also exercise concurrent version publication,
//! checked against the document's structural-integrity invariant.

use axml_gen::synthetic::{random_query, random_workload, SyntheticParams};
use axml_query::Pattern;
use axml_services::Registry;
use axml_store::{
    CacheConfig, DocumentStore, SchedulerMode, ServeReport, SessionOptions, SessionSpec,
};
use axml_xml::Document;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The interleaving-independent projection of a run compared by the
/// replay oracle: everything `QueryOutcome` carries except wall-clock
/// latency (which is real time, not simulated, so never reproducible).
type Projection = Vec<Vec<(BTreeSet<Vec<String>>, bool, usize, usize, f64, u64)>>;

fn project(report: &ServeReport) -> Projection {
    report
        .sessions
        .iter()
        .map(|s| {
            s.queries
                .iter()
                .map(|q| {
                    (
                        q.answers.clone(),
                        q.complete,
                        q.calls_invoked,
                        q.cache_hits,
                        q.sim_time_ms,
                        q.doc_version,
                    )
                })
                .collect()
        })
        .collect()
}

fn world(wseed: u64, doc_nodes: usize, call_probability: f64) -> (Document, Registry, usize) {
    let params = SyntheticParams {
        seed: wseed,
        doc_nodes,
        call_probability,
        ..Default::default()
    };
    let (doc, registry) = random_workload(&params);
    (doc, registry, params.alphabet)
}

/// `n` session specs drawing 3 queries each from a shared pool (so some
/// sessions overlap — shared cache keys — and some do not), with the
/// sessions selected by `persist_mask` running in persistent mode.
fn session_mix(qseed: u64, alphabet: usize, n: usize, persist_mask: u8) -> Vec<SessionSpec> {
    let pool: Vec<Pattern> = (0..4)
        .map(|i| random_query(qseed.wrapping_add(i * 7919), alphabet, 7))
        .collect();
    (0..n)
        .map(|i| {
            let queries = vec![
                pool[i % pool.len()].clone(),
                pool[(i + 1) % pool.len()].clone(),
                pool[i % pool.len()].clone(),
            ];
            let mut spec = SessionSpec::new(format!("tenant-{i}"), "d", queries);
            if persist_mask & (1 << i) != 0 {
                spec.options = SessionOptions {
                    snapshot_per_query: false,
                    ..SessionOptions::default()
                };
            }
            spec
        })
        .collect()
}

fn fresh_store(doc: &Document, ttl_ms: f64) -> DocumentStore {
    let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(ttl_ms));
    store.insert("d", doc.clone());
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial-replay oracle: a seeded run and the serial replay of its
    /// recorded schedule, each on a fresh world, agree on every
    /// per-session outcome — answers, completeness, invocations, cache
    /// hits, simulated time, and the document version each query read.
    #[test]
    fn seeded_interleavings_replay_serially(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        seed in 0u64..10_000,
        sessions in 2usize..6,
        persist_mask in 0u8..64,
    ) {
        let (doc, registry, alphabet) = world(wseed, 60, 0.2);
        let specs = session_mix(qseed, alphabet, sessions, persist_mask);
        let mode = SchedulerMode::DeterministicSeeded { seed };

        let one = fresh_store(&doc, f64::INFINITY)
            .serve(&specs, &registry, None, &mode, None);
        prop_assert_eq!(one.total_queries, 3 * sessions);
        prop_assert_eq!(one.schedule.len(), 3 * sessions);

        // same seed, fresh world: identical schedule and outcomes
        let again = fresh_store(&doc, f64::INFINITY)
            .serve(&specs, &registry, None, &mode, None);
        prop_assert_eq!(&one.schedule, &again.schedule);
        prop_assert_eq!(project(&one), project(&again));

        // the recorded schedule replayed serially on a fresh world
        let replay = fresh_store(&doc, f64::INFINITY)
            .serve_schedule(&specs, &registry, None, &one.schedule, None);
        prop_assert_eq!(project(&one), project(&replay));
    }

    /// Answer independence: per-session answers under the concurrent
    /// pool equal the answers the same query stream
    /// produces alone on a private store — the interleaving moves cache
    /// costs between tenants but never changes what anyone sees.
    #[test]
    fn concurrent_session_answers_match_standalone_runs(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        sessions in 2usize..6,
        workers in 1usize..5,
        ttl_idx in 0usize..2,
    ) {
        let ttl_ms = [f64::INFINITY, 40.0][ttl_idx];
        let (doc, registry, alphabet) = world(wseed, 60, 0.2);
        // snapshot mode only: persistent publication intentionally leaks
        // across tenants, so "standalone" is only an oracle without it
        let specs = session_mix(qseed, alphabet, sessions, 0);

        let shared = fresh_store(&doc, ttl_ms);
        let report = shared.serve(
            &specs,
            &registry,
            None,
            &SchedulerMode::Concurrent { workers },
            None,
        );

        for (i, spec) in specs.iter().enumerate() {
            let solo_store = fresh_store(&doc, ttl_ms);
            let mut solo = solo_store
                .session("d", &registry, None, spec.options.clone())
                .unwrap();
            for (j, q) in spec.queries.iter().enumerate() {
                let want = solo.query(q);
                let got = &report.sessions[i].queries[j];
                prop_assert_eq!(
                    &got.answers, &want.answers,
                    "session {} query {} diverged (wseed={}, qseed={}, workers={})",
                    i, j, wseed, qseed, workers
                );
                prop_assert_eq!(got.complete, want.complete);
            }
        }
    }

    /// Snapshot isolation under concurrent publication: persistent
    /// sessions publish new document versions while others read; every
    /// published version is structurally intact, every query reads a
    /// version that existed, and versions only grow.
    #[test]
    fn concurrent_publication_preserves_document_integrity(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        sessions in 2usize..6,
        workers in 2usize..5,
    ) {
        let (doc, registry, alphabet) = world(wseed, 60, 0.3);
        let specs = session_mix(qseed, alphabet, sessions, 0xFF); // all persistent
        let store = fresh_store(&doc, f64::INFINITY);
        let report = store.serve(
            &specs,
            &registry,
            None,
            &SchedulerMode::Concurrent { workers },
            None,
        );

        let snapshot = store.get("d").unwrap();
        prop_assert!(snapshot.check_integrity().is_ok(), "published version torn");
        let publishes = report.total_queries as u64;
        prop_assert!(
            snapshot.version() <= publishes,
            "version {} after only {} queries",
            snapshot.version(),
            publishes
        );
        for s in &report.sessions {
            for q in &s.queries {
                prop_assert!(q.doc_version <= publishes);
                prop_assert!(q.complete, "healthy workloads stay complete");
            }
        }
    }
}

/// Persistent-mode publication is compare-and-swap: two sessions that
/// concurrently materialize *disjoint* call sites of one document must
/// both land — the loser re-snapshots the winner and retries instead of
/// clobbering it. (Under last-writer-wins publication this fails
/// whenever the two publications race.)
#[test]
fn concurrent_persistent_publications_are_not_lost() {
    use axml_services::{CallRequest, FnService};
    use axml_xml::parse;
    use std::sync::Barrier;

    fn query_for(side: &str) -> Pattern {
        axml_query::parse_query(&format!("/r/{side}/item/$X -> $X")).unwrap()
    }

    let mut registry = Registry::new();
    for name in ["svcA", "svcB"] {
        registry.register(FnService::new(name, move |_req: &CallRequest| {
            parse(&format!("<item>{name}</item>")).unwrap()
        }));
    }
    let persist = SessionOptions {
        snapshot_per_query: false,
        ..SessionOptions::default()
    };

    for round in 0..25 {
        let mut doc = Document::with_root("r");
        for (side, svc) in [("a", "svcA"), ("b", "svcB")] {
            let n = doc.add_element(doc.root(), side);
            doc.add_call(n, svc);
        }
        // caching off: materialization is the only cross-query channel,
        // so a lost publication shows up as a re-invoked call below
        let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(0.0));
        store.insert("d", doc);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for side in ["a", "b"] {
                let store = &store;
                let registry = &registry;
                let barrier = &barrier;
                let persist = persist.clone();
                s.spawn(move || {
                    let mut session = store.session("d", registry, None, persist).unwrap();
                    barrier.wait();
                    let rep = session.query(&query_for(side));
                    assert!(rep.complete);
                });
            }
        });
        // both materializations must survive in the published version:
        // re-asking either query finds no call left to invoke or probe
        for side in ["a", "b"] {
            let mut check = store
                .session("d", &registry, None, SessionOptions::default())
                .unwrap();
            let rep = check.query(&query_for(side));
            assert!(rep.complete);
            let probes = rep.stats.cache_hits + rep.stats.cache_misses + rep.stats.cache_stale;
            assert_eq!(
                (rep.stats.calls_invoked, probes),
                (0, 0),
                "round {round}: side {side}'s materialization was lost"
            );
        }
    }
}

/// Per-session trace streams from a concurrent run each pass the trace
/// oracle on their own: one session's stream is internally ordered and
/// well-formed even while other sessions emit in parallel into theirs.
#[test]
fn per_session_trace_streams_stay_well_formed_under_concurrency() {
    use axml_obs::{RingSink, TraceSink};

    let (doc, registry, alphabet) = world(11, 60, 0.3);
    let specs = session_mix(23, alphabet, 4, 0);
    let store = fresh_store(&doc, f64::INFINITY);
    let sinks: Vec<RingSink> = specs.iter().map(|_| RingSink::unbounded()).collect();
    let handles: Vec<&dyn TraceSink> = sinks.iter().map(|r| r as &dyn TraceSink).collect();
    let report = store.serve(
        &specs,
        &registry,
        None,
        &SchedulerMode::Concurrent { workers: 3 },
        Some(&handles),
    );
    assert_eq!(report.total_queries, 12);
    for (i, sink) in sinks.iter().enumerate() {
        let events = sink.events();
        assert!(
            !events.is_empty(),
            "session {i} produced no events with observe on"
        );
        axml_obs::assert_clean(&events, None);
    }
}
