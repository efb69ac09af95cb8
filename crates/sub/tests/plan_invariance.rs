//! Subscriptions leg of the plan-equivalence oracle: a standing-query
//! engine whose refresh and reconcile evaluations fetch compiled plans
//! from the store's [`PlanCache`] (`SubscriptionEngine::over_store`)
//! must deliver exactly the delta stream of one with no plan cache
//! attached (`SubscriptionEngine::new`) — same initial answers, same
//! deltas, same structured trace byte for byte, same stats. The plan
//! layer is pure mechanism; subscription semantics never see it.
//!
//! [`PlanCache`]: axml_store::PlanCache

use axml_core::EngineConfig;
use axml_gen::feeds::{price_feed, Feed, PriceFeedParams};
use axml_obs::{to_jsonl, RingSink};
use axml_store::{CacheConfig, DocumentStore, PlanCacheConfig};
use axml_sub::{Delta, SubscriptionEngine, SubscriptionEngineStats, SubscriptionOptions};
use std::collections::BTreeSet;
use std::sync::Arc;

fn cache_config(feed: &Feed) -> CacheConfig {
    let mut config = CacheConfig::with_ttl_ms(f64::INFINITY);
    for (service, ttl) in &feed.ttls {
        config = config.ttl_for(service.clone(), *ttl);
    }
    config
}

struct Run {
    initials: Vec<(String, BTreeSet<Vec<String>>)>,
    deltas: Vec<Delta>,
    trace_jsonl: String,
    stats: SubscriptionEngineStats,
    plan_compiles: u64,
    plan_hits: u64,
}

/// Drives the price feed to 1500 ms with or without the store's plan
/// cache attached; the feed (the volatile services are stateful), the
/// store and hence the plan cache are all fresh per run, so the two runs
/// share nothing but the generator seed.
fn run_feed(with_plans: bool) -> Run {
    let feed = &price_feed(&PriceFeedParams {
        hotels: 12,
        volatile_stride: 2,
    });
    let mut store = DocumentStore::with_configs(cache_config(feed), PlanCacheConfig::default());
    store.insert("feed", feed.doc.clone());
    let trace = RingSink::unbounded();
    let options = SubscriptionOptions {
        history_capacity: 4096,
        engine: EngineConfig::default(),
        ..SubscriptionOptions::default()
    };
    let engine = if with_plans {
        SubscriptionEngine::over_store(&store, "feed", &feed.registry, None, options)
            .expect("document exists")
    } else {
        SubscriptionEngine::new(
            Arc::clone(store.versioned("feed").expect("document exists")),
            &feed.registry,
            None,
            Arc::clone(store.cache()),
            options,
        )
    };
    let mut engine = engine.with_observer(&trace);

    let initials = feed
        .watchers
        .iter()
        .map(|(name, query)| (name.clone(), engine.subscribe(name.clone(), query.clone())))
        .collect();
    let deltas = engine.run_until(1500.0);
    let stats = engine.stats().clone();
    let plan_stats = store.plans().stats();
    Run {
        initials,
        deltas,
        trace_jsonl: to_jsonl(&trace.events()),
        stats,
        plan_compiles: plan_stats.compiles,
        plan_hits: plan_stats.hits,
    }
}

#[test]
fn delta_streams_are_identical_with_and_without_compiled_plans() {
    let compiled = run_feed(true);
    let unplanned = run_feed(false);

    assert!(
        !compiled.deltas.is_empty(),
        "the volatile feed emitted nothing — the comparison would be vacuous"
    );
    assert_eq!(
        compiled.initials, unplanned.initials,
        "initial answers diverge"
    );
    assert_eq!(compiled.deltas, unplanned.deltas, "delta streams diverge");
    assert_eq!(
        compiled.trace_jsonl, unplanned.trace_jsonl,
        "structured traces diverge between compiled and unplanned refreshes"
    );
    // wall-clock CPU measurements are not semantics; zero them out
    let sim_stats = |s: &SubscriptionEngineStats| SubscriptionEngineStats {
        refresh_cpu_ms: 0.0,
        reconcile_cpu_ms: 0.0,
        ..s.clone()
    };
    assert_eq!(
        sim_stats(&compiled.stats),
        sim_stats(&unplanned.stats),
        "stats diverge"
    );

    // the compiled run really went through the plan cache — each standing
    // query compiled once, then every later refresh was a hit
    assert!(
        compiled.plan_compiles >= 1,
        "the over_store run never compiled a plan"
    );
    assert!(
        compiled.plan_hits > compiled.plan_compiles,
        "refreshes did not reuse cached plans (hits={}, compiles={})",
        compiled.plan_hits,
        compiled.plan_compiles
    );
    // the run without a plan cache must not have touched the store's
    assert_eq!(
        unplanned.plan_compiles + unplanned.plan_hits,
        0,
        "an engine built without with_plans still consulted the plan cache"
    );
}
