//! Property tests for the observability stream: on random generated
//! scenarios (with and without injected faults, across strategies), every
//! accounting identity between the trace, the metric aggregator and
//! `EngineStats` must hold, and the trace oracle must come back clean.

use activexml::core::{Engine, EngineConfig, EngineStats, HedgeConfig, ShedConfig};
use activexml::gen::{figure4_query, generate, ScenarioParams};
use activexml::obs::{aggregate, check_all, Event, EventKind, RingSink};
use activexml::services::{FaultProfile, NetProfile};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn config_matrix() -> Vec<EngineConfig> {
    vec![
        EngineConfig::naive(),
        EngineConfig {
            parallel: true,
            ..EngineConfig::lpq()
        },
        EngineConfig::nfq_plain(),
        EngineConfig::default(),
        // everything on: deadline, hedging and shedding compose with the
        // fault layer without breaking a single accounting identity
        EngineConfig {
            deadline_ms: 90.0,
            hedge: HedgeConfig {
                threshold_ms: 8.0,
                latency_factor: 3.0,
            },
            shed: ShedConfig {
                max_inflight_per_batch: 6,
                ewma_limit_ms: 400.0,
            },
            ..EngineConfig::default()
        },
    ]
}

fn run_traced(
    params: &ScenarioParams,
    config: EngineConfig,
    fault: Option<FaultProfile>,
) -> (Vec<Event>, EngineStats) {
    let mut sc = generate(params);
    sc.registry.set_default_profile(NetProfile::latency(5.0));
    if let Some(f) = fault {
        sc.registry.set_default_fault_profile(f);
    }
    let ring = RingSink::unbounded();
    let engine = Engine::new(&sc.registry, config)
        .with_schema(&sc.schema)
        .with_observer(&ring);
    let report = engine.evaluate(&mut sc.doc, &figure4_query());
    (ring.events(), report.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trace_and_stats_agree_on_random_scenarios(
        seed in 0u64..10_000,
        hotels in 1usize..25,
        intensional_rating_fraction in 0.0f64..1.0,
        intensional_restos_fraction in 0.0f64..1.0,
        cfg_idx in 0usize..5,
        fault_seed in 0u64..100,   // 0 = fault-free
    ) {
        // (the vendored proptest caps strategies at 6-tuples)
        let fail_prob = (fault_seed % 7) as f64 / 10.0;
        let params = ScenarioParams {
            seed,
            hotels,
            intensional_rating_fraction,
            intensional_restos_fraction,
            ..Default::default()
        };
        let fault = (fault_seed > 0).then(|| FaultProfile::chaos(fault_seed, fail_prob));
        let config = config_matrix().swap_remove(cfg_idx);
        let (events, stats) = run_traced(&params, config, fault);

        // the full oracle: ordering, laziness, layer order, clock
        // accounting and every stats identity
        let violations = check_all(&events, Some(&stats.view()));
        prop_assert!(
            violations.is_empty(),
            "oracle violations (seed={}, cfg={}, fseed={}):\n{}",
            seed, cfg_idx, fault_seed,
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
        );

        // the satellite identities, asserted directly from the raw stream
        let mut invoked_by_service: BTreeMap<&str, usize> = BTreeMap::new();
        let (mut attempt_events, mut failed, mut degraded) = (0usize, 0usize, false);
        for e in &events {
            degraded |= e.is_degradation();
            match &e.kind {
                EventKind::Invocation { service, cached, ok, attempts, .. } => {
                    if *cached {
                        // cache hits never count as invocations
                        prop_assert_eq!(*attempts, 0);
                        prop_assert!(*ok);
                    } else if *ok {
                        // successes only: `invoked_by_service` (and
                        // `calls_invoked`) never count permanent failures
                        *invoked_by_service.entry(service.as_str()).or_default() += 1;
                    } else {
                        failed += 1;
                    }
                }
                EventKind::Attempt { .. } => attempt_events += 1,
                _ => {}
            }
        }
        prop_assert_eq!(
            invoked_by_service.values().sum::<usize>(),
            stats.calls_invoked,
            "calls_invoked must equal the per-service invocation sum"
        );
        prop_assert_eq!(failed, stats.failed_calls);
        prop_assert_eq!(attempt_events, stats.call_attempts);
        prop_assert!(
            stats.call_attempts >= stats.calls_invoked + stats.failed_calls,
            "every invocation outcome consumes at least one attempt"
        );
        prop_assert_eq!(
            stats.is_complete(), !degraded,
            "is_complete must mirror the absence of degradation events"
        );

        // the aggregator agrees with the engine's own accounting
        let report = aggregate(&events);
        prop_assert_eq!(report.queries, 1);
        prop_assert_eq!(report.calls_invoked, stats.calls_invoked);
        prop_assert!((report.sim_time_ms - stats.sim_time_ms).abs() < 1e-6);
        // aggregator's per-service `invoked` includes permanent failures;
        // netting them out recovers the engine's success-only counter
        prop_assert_eq!(
            report
                .services
                .values()
                .map(|m| m.invoked - m.failed)
                .sum::<usize>(),
            stats.calls_invoked
        );
    }
}

/// A cached session stream: two identical queries with an infinite
/// validity window — the second run's probes all hit, and the combined
/// stream still satisfies the oracle and the aggregator identities.
#[test]
fn session_stream_accounts_for_cache_hits() {
    use activexml::store::{CacheConfig, DocumentStore, SessionOptions};

    let mut sc = generate(&ScenarioParams::default());
    sc.registry.set_default_profile(NetProfile::latency(5.0));
    let mut store = DocumentStore::with_cache_config(CacheConfig::default());
    store.insert("hotels", sc.doc.clone());
    let ring = RingSink::unbounded();
    let mut session = store
        .session(
            "hotels",
            &sc.registry,
            Some(&sc.schema),
            SessionOptions::default(),
        )
        .expect("document just inserted")
        .with_observer(&ring);

    let q = figure4_query();
    let cold = session.query(&q);
    let warm = session.query(&q);
    assert_eq!(cold.answers, warm.answers, "the cache must be invisible");
    assert!(cold.stats.calls_invoked > 0, "the workload invokes calls");
    assert_eq!(warm.stats.calls_invoked, 0, "the warm run is all hits");
    assert!(warm.stats.cache_hits > 0);

    let events = ring.events();
    let violations = check_all(&events, None);
    assert!(
        violations.is_empty(),
        "session oracle violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let report = aggregate(&events);
    assert_eq!(report.queries, 2);
    assert_eq!(report.complete, 2);
    assert_eq!(report.calls_invoked, cold.stats.calls_invoked);
    let hits: usize = report.services.values().map(|m| m.cache_hits).sum();
    assert_eq!(hits, warm.stats.cache_hits);
}
