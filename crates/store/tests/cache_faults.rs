//! Cache semantics under fault injection.
//!
//! The cache's availability contract: a cached success keeps serving
//! hits while its service is failing or its circuit breaker is open
//! (stale-while-error, within the validity window); an *expired* entry
//! gives no such shelter — the call falls through to the normal
//! retry/breaker path and degrades like any other call. And the whole
//! arrangement replays byte-for-byte under a fixed fault seed.

use axml_core::{Engine, EngineConfig, EngineStats};
use axml_obs::{Event, EventKind, RingSink};
use axml_query::{construct_results, parse_query, Pattern};
use axml_services::{
    BreakerConfig, CallRequest, FaultProfile, FnService, NetProfile, Registry, RetryPolicy,
};
use axml_store::{CacheConfig, DocumentStore, SessionOptions, SessionReport};
use axml_xml::{parse, to_xml, Document};
use std::collections::BTreeSet;

/// Seed for every schedule here; `AXML_FAULT_SEED` (set by the CI fault
/// job) replays the suite under a different deterministic world.
fn seed() -> u64 {
    std::env::var("AXML_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Two providers behind one query, as in the engine's fault matrix:
/// faults go into `svcB` only, so `svcA` measures what must survive.
fn registry() -> Registry {
    let mut r = Registry::new();
    for name in ["svcA", "svcB"] {
        r.register(FnService::new(name, move |req: &CallRequest| {
            let key = req.first_text().unwrap_or("?");
            parse(&format!("<item><id>{name}-{key}</id></item>")).unwrap()
        }));
    }
    r.set_default_profile(NetProfile::latency(10.0));
    r
}

fn doc() -> Document {
    let mut d = Document::with_root("r");
    let root = d.root();
    for i in 0..4 {
        for svc in ["svcA", "svcB"] {
            let c = d.add_call(root, svc);
            d.add_text(c, format!("{i}"));
        }
    }
    d
}

fn query() -> Pattern {
    parse_query("/r/item/id/$I -> $I").unwrap()
}

fn store(config: CacheConfig) -> DocumentStore {
    let mut s = DocumentStore::with_cache_config(config);
    s.insert("d", doc());
    s
}

fn run_query(store: &mut DocumentStore, registry: &Registry) -> SessionReport {
    let mut session = store
        .session("d", registry, None, SessionOptions::default())
        .expect("document is stored");
    session.query(&query())
}

/// The serialized `<results>` documents of a cold and then a warm engine
/// run of the query, each over a fresh document, sharing `store`'s call
/// cache.
fn cold_and_warm_results(store: &DocumentStore, registry: &Registry) -> (String, String) {
    let mut clock_ms = 0.0;
    let mut run = || {
        let mut d = doc();
        let report = Engine::new(registry, EngineConfig::default())
            .with_cache(store.cache().as_ref())
            .starting_at(clock_ms)
            .evaluate(&mut d, &query());
        clock_ms += report.stats.sim_time_ms;
        to_xml(&construct_results(&d, &query(), &report.result))
    };
    let cold = run();
    (cold, run())
}

fn probes(stats: &EngineStats) -> usize {
    stats.cache_hits + stats.cache_misses + stats.cache_stale
}

#[test]
fn warm_cache_reevaluation_invokes_nothing() {
    // The PR's acceptance criterion, in its simplest form: the second
    // evaluation of the identical query performs ZERO service
    // invocations and renders the identical answer.
    let mut store = store(CacheConfig::default());
    let r = registry();
    let cold = run_query(&mut store, &r);
    assert!(cold.complete);
    assert_eq!(cold.stats.calls_invoked, 8);
    assert_eq!(cold.stats.cache_hits, 0);
    assert!(cold.stats.sim_time_ms > 0.0);

    let warm = run_query(&mut store, &r);
    assert!(warm.complete);
    assert_eq!(warm.stats.calls_invoked, 0, "all calls served by the cache");
    assert_eq!(warm.stats.cache_hits, 8);
    assert_eq!(warm.answers, cold.answers);
    let fresh = DocumentStore::with_cache_config(CacheConfig::default());
    let (cold_xml, warm_xml) = cold_and_warm_results(&fresh, &r);
    assert_eq!(warm_xml, cold_xml);
    assert_eq!(
        warm.stats.sim_time_ms, 0.0,
        "cache hits cost zero simulated network time"
    );
}

#[test]
fn cached_success_serves_hits_while_the_service_is_failing() {
    let mut store = store(CacheConfig::default());
    let mut r = registry();
    let cold = run_query(&mut store, &r);
    assert!(cold.complete);

    // both providers go down permanently, retries disabled
    r.set_fault_profile("svcA", FaultProfile::permanent(seed()));
    r.set_fault_profile("svcB", FaultProfile::permanent(seed()));
    r.set_retry_policy(RetryPolicy::none());

    let warm = run_query(&mut store, &r);
    assert!(
        warm.complete,
        "cached successes shelter the query from the outage"
    );
    assert_eq!(warm.stats.calls_invoked, 0);
    assert_eq!(warm.stats.failed_calls, 0);
    assert_eq!(warm.stats.cache_hits, 8);
    assert_eq!(warm.answers, cold.answers);
}

#[test]
fn cached_success_serves_hits_while_the_breaker_is_open() {
    let mut store = store(CacheConfig::default());
    let mut r = registry();
    r.set_breaker_config(BreakerConfig {
        failure_threshold: 2,
        cooldown_ms: 1e9,
    });
    let cold = run_query(&mut store, &r);
    assert!(cold.complete);

    // trip both breakers open by recording failures directly
    for svc in ["svcA", "svcB"] {
        r.breaker_record(svc, false, 0.0);
        r.breaker_record(svc, false, 0.0);
        assert!(!r.breaker_allows(svc, 0.0), "{svc}: breaker must be open");
    }

    let warm = run_query(&mut store, &r);
    assert!(
        warm.complete,
        "hits are probed before the breaker gate, so an open breaker \
         refuses nothing that the cache can answer"
    );
    assert_eq!(warm.stats.calls_invoked, 0);
    assert_eq!(warm.stats.breaker_skips, 0);
    assert_eq!(warm.stats.cache_hits, 8);
    assert_eq!(warm.answers, cold.answers);
}

#[test]
fn expired_entry_falls_through_to_the_retry_and_breaker_path() {
    // 500 ms validity: the cold run populates, then the clock advances
    // past every horizon, then svcB goes down. The expired entries must
    // NOT shelter the query — svcB re-invocations fail through the
    // normal retry path and the answer degrades to svcA's half.
    let mut store = store(CacheConfig::with_ttl_ms(500.0));
    let mut r = registry();
    let cold = run_query(&mut store, &r);
    assert!(cold.complete);
    let reference_partial: BTreeSet<Vec<String>> = cold
        .answers
        .iter()
        .filter(|row| row.iter().all(|v| v.starts_with("svcA-")))
        .cloned()
        .collect();

    r.set_fault_profile("svcB", FaultProfile::permanent(seed()));
    r.set_breaker_config(BreakerConfig::disabled());

    let mut session = store
        .session("d", &r, None, SessionOptions::default())
        .unwrap();
    session.advance_clock(1_000.0); // every validity window has passed
    let stale = session.query(&query());
    assert!(!stale.complete, "expired entries give no shelter");
    assert_eq!(stale.stats.cache_hits, 0);
    assert_eq!(
        stale.stats.cache_stale, 8,
        "every probe found an expired entry"
    );
    assert_eq!(stale.stats.failed_calls, 4, "svcB degrades normally");
    assert_eq!(stale.stats.calls_invoked, 4, "svcA re-invoked fresh");
    assert_eq!(stale.answers, reference_partial);
    // the failed refresh did not poison the cache: only svcA re-cached
    assert!(stale.stats.call_attempts > stale.stats.calls_invoked);
}

#[test]
fn expiry_respects_the_session_clock_not_query_count() {
    // Queries at clock 0, ~80, ~160… against a 10 s window: all hits.
    // One 11 s idle gap and the same query misses everything.
    let store = store(CacheConfig::with_ttl_ms(10_000.0));
    let r = registry();
    let mut session = store
        .session("d", &r, None, SessionOptions::default())
        .unwrap();
    let q = query();
    let cold = session.query(&q);
    assert_eq!(cold.stats.cache_hits, 0);
    for _ in 0..3 {
        let warm = session.query(&q);
        assert_eq!(warm.stats.cache_hits, 8);
        assert!(warm.clock_ms < 10_000.0);
    }
    session.advance_clock(11_000.0);
    let aged = session.query(&q);
    assert_eq!(aged.stats.cache_hits, 0);
    assert_eq!(aged.stats.cache_stale, 8);
    assert!(aged.complete, "healthy services simply re-answer");
    assert_eq!(aged.answers, cold.answers);
}

/// Everything a session run determines, printable — answers, stats,
/// each query's invocation events (with cache markers), cache counters —
/// but no CPU durations.
fn fingerprint(reports: &[(SessionReport, Vec<Event>)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, (rep, events)) in reports.iter().enumerate() {
        let s = &rep.stats;
        writeln!(
            out,
            "q{i}: calls={} failed={} skips={} attempts={} bytes={} \
             hits={} misses={} stale={} sim={} clock={} complete={}",
            s.calls_invoked,
            s.failed_calls,
            s.breaker_skips,
            s.call_attempts,
            s.bytes_transferred,
            s.cache_hits,
            s.cache_misses,
            s.cache_stale,
            s.sim_time_ms,
            rep.clock_ms,
            rep.complete
        )
        .unwrap();
        for row in &rep.answers {
            writeln!(out, "  answer: {row:?}").unwrap();
        }
        for e in events {
            if let EventKind::Invocation {
                service,
                path,
                cached,
                ok,
                attempts,
                cost_ms,
                ..
            } = &e.kind
            {
                writeln!(
                    out,
                    "  trace: r{} {service} /{path} cached={cached} ok={ok} \
                     attempts={attempts} cost={cost_ms}",
                    e.round
                )
                .unwrap();
            }
        }
        let c = &rep.cache;
        writeln!(
            out,
            "  cache: h={} m={} s={} ins={} ev={} inv={}",
            c.hits, c.misses, c.stale, c.insertions, c.evictions, c.invalidations
        )
        .unwrap();
    }
    out
}

#[test]
fn chaos_replay_is_byte_identical_under_a_fixed_seed() {
    let one = || {
        let store = store(CacheConfig::with_ttl_ms(300.0));
        let mut r = registry();
        r.set_default_fault_profile(FaultProfile::chaos(seed(), 0.5));
        r.set_retry_policy(RetryPolicy::default().with_timeout_ms(200.0));
        let opts = SessionOptions {
            engine: EngineConfig::default(),
            snapshot_per_query: true,
        };
        let ring = RingSink::unbounded();
        let mut session = store
            .session("d", &r, None, opts)
            .unwrap()
            .with_observer(&ring);
        let q = query();
        let mut reports = Vec::new();
        let mut seen = 0;
        for i in 0..4 {
            if i == 2 {
                session.advance_clock(400.0); // expire the early entries
            }
            let report = session.query(&q);
            // this query's slice of the ring
            let events = ring.events();
            reports.push((report, events[seen..].to_vec()));
            seen = events.len();
        }
        fingerprint(&reports)
    };
    assert_eq!(
        one(),
        one(),
        "two session streams with the same fault seed must agree byte-for-byte"
    );
}

#[test]
fn persistent_mode_materializes_instead_of_caching() {
    // snapshot_per_query = false: the first query splices results into
    // the stored document itself, so the second finds no calls at all —
    // zero invocations *and* zero cache probes.
    let store = store(CacheConfig::default());
    let r = registry();
    let opts = SessionOptions {
        engine: EngineConfig::default(),
        snapshot_per_query: false,
    };
    let mut session = store.session("d", &r, None, opts.clone()).unwrap();
    let cold = session.query(&query());
    assert!(cold.complete);
    assert_eq!(cold.stats.calls_invoked, 8);
    let warm = session.query(&query());
    assert!(warm.complete);
    assert_eq!(warm.stats.calls_invoked, 0);
    assert_eq!(probes(&warm.stats), 0, "no calls remain to probe for");
    assert_eq!(warm.answers, cold.answers);
}

#[test]
fn exhausted_deadline_still_serves_zero_cost_cache_hits() {
    // The deadline gate sits BEHIND the cache probe: a hit costs zero
    // simulated time, so even a query whose budget is already spent at
    // its first instant completes entirely out of the cache.
    let mut store = store(CacheConfig::default());
    let r = registry();
    let cold = run_query(&mut store, &r);
    assert!(cold.complete);

    let opts = SessionOptions::with_engine(EngineConfig {
        deadline_ms: 0.0,
        ..EngineConfig::default()
    });
    let mut session = store.session("d", &r, None, opts).unwrap();
    let warm = session.query(&query());
    assert!(
        warm.complete,
        "an exhausted deadline must not refuse zero-cost hits"
    );
    assert_eq!(warm.stats.cache_hits, 8);
    assert_eq!(warm.stats.calls_invoked, 0);
    assert!(!warm.stats.deadline_exceeded);
    assert_eq!(warm.stats.sim_time_ms, 0.0);
    assert_eq!(warm.answers, cold.answers);
}

#[test]
fn expired_deadline_on_a_cold_cache_degrades_cleanly() {
    // Without cached answers the same zero-budget query invokes nothing
    // and closes the round as a sound (empty) partial answer with the
    // distinct deadline cause — not a generic truncation.
    let mut store = store(CacheConfig::default());
    let r = registry();
    let opts = SessionOptions::with_engine(EngineConfig {
        deadline_ms: 0.0,
        ..EngineConfig::default()
    });
    let mut session = store.session("d", &r, None, opts).unwrap();
    let starved = session.query(&query());
    assert!(!starved.complete);
    assert!(starved.stats.deadline_exceeded);
    assert!(starved.stats.truncated);
    assert_eq!(starved.stats.calls_invoked, 0);
    assert_eq!(starved.stats.failed_calls, 0);
    assert_eq!(starved.stats.sim_time_ms, 0.0);
    assert!(starved.answers.is_empty());
    drop(session);

    // the starved query poisoned nothing: a normal run then completes
    let healthy = run_query(&mut store, &r);
    assert!(healthy.complete);
    assert_eq!(healthy.stats.calls_invoked, 8);
}

#[test]
fn per_query_deadlines_converge_through_the_session_cache() {
    // Each query gets a FRESH 25 ms budget relative to its own start —
    // the session clock does not eat later queries' deadlines — and the
    // calls each query does land in the shared cache. Re-asking the same
    // query therefore makes monotone progress and eventually completes,
    // even though no single query's budget covers the whole workload.
    let store = store(CacheConfig::default());
    let r = registry();
    let opts = SessionOptions::with_engine(EngineConfig {
        parallel: false,
        deadline_ms: 25.0,
        ..EngineConfig::default()
    });
    let mut session = store.session("d", &r, None, opts).unwrap();
    let q = query();
    let mut answered_so_far = 0usize;
    let mut completed_at = None;
    for round in 0..8 {
        let report = session.query(&q);
        assert!(
            report.stats.sim_time_ms <= 25.0 + 1e-9,
            "round {round}: a query may never overrun its own deadline"
        );
        let answered = report.stats.cache_hits + report.stats.calls_invoked;
        assert!(
            answered > answered_so_far,
            "round {round}: every round must make progress"
        );
        answered_so_far = answered;
        if report.complete {
            assert!(!report.stats.deadline_exceeded);
            assert_eq!(report.answers.len(), 8);
            completed_at = Some(round);
            break;
        }
        assert!(report.stats.deadline_exceeded);
    }
    assert!(
        completed_at.is_some(),
        "the cache must carry the workload past its per-query deadline"
    );
}
