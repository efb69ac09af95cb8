//! Feed-mode end-to-end tests: the subscription engine drives its own
//! refresh loop over a volatile feed, and every emitted delta stream
//! must replay to exactly what full re-evaluation computes at every
//! published version — including the versions the scope filter skipped.

use axml_gen::feeds::{auction_feed, price_feed, AuctionFeedParams, Feed, PriceFeedParams};
use axml_obs::{check_trace, RingSink};
use axml_services::{FaultProfile, RetryPolicy};
use axml_store::{CacheConfig, DocumentStore};
use axml_sub::{check_subscription, Delta, SubscriptionEngine, SubscriptionOptions};
use std::collections::BTreeSet;

fn cache_config(feed: &Feed) -> CacheConfig {
    let mut config = CacheConfig::with_ttl_ms(f64::INFINITY);
    for (service, ttl) in &feed.ttls {
        config = config.ttl_for(service.clone(), *ttl);
    }
    config
}

fn store_for(feed: &Feed) -> DocumentStore {
    let mut store = DocumentStore::with_cache_config(cache_config(feed));
    store.insert("feed", feed.doc.clone());
    store
}

struct Run {
    initials: Vec<(String, BTreeSet<Vec<String>>)>,
    deltas: Vec<Delta>,
}

fn subscribe_all(
    engine: &mut SubscriptionEngine,
    feed: &Feed,
) -> Vec<(String, BTreeSet<Vec<String>>)> {
    feed.watchers
        .iter()
        .map(|(name, query)| (name.clone(), engine.subscribe(name.clone(), query.clone())))
        .collect()
}

fn assert_oracle_clean(feed: &Feed, store: &DocumentStore, run: &Run) {
    let doc = store.versioned("feed").expect("feed doc");
    for (name, query) in &feed.watchers {
        let initial = &run
            .initials
            .iter()
            .find(|(n, _)| n == name)
            .expect("initial answer")
            .1;
        let mine: Vec<Delta> = run
            .deltas
            .iter()
            .filter(|d| &d.subscription == name)
            .cloned()
            .collect();
        check_subscription(doc, &feed.registry, None, query, initial, 0, &mine).assert_clean();
    }
}

#[test]
fn price_feed_deltas_replay_to_full_reevaluation() {
    let feed = price_feed(&PriceFeedParams {
        hotels: 20,
        volatile_stride: 2,
    });
    let store = store_for(&feed);
    let trace = RingSink::unbounded();
    let mut engine = SubscriptionEngine::over_store(
        &store,
        "feed",
        &feed.registry,
        None,
        SubscriptionOptions {
            history_capacity: 4096,
            ..SubscriptionOptions::default()
        },
    )
    .expect("document exists")
    .with_observer(&trace);

    let initials = subscribe_all(&mut engine, &feed);
    let deltas = engine.run_until(2000.0);

    // the feed is volatile, so something must have streamed
    assert!(
        !deltas.is_empty(),
        "no deltas over 2000 ms of volatile feed"
    );
    let stats = engine.stats().clone();
    assert!(stats.publications > 0);
    assert_eq!(stats.deltas_emitted, deltas.len());
    // the review ticker's short TTL churns versions the price watcher's
    // scope filter must skip without evaluation
    let status = engine.status();
    let price = status.iter().find(|s| s.name == "price-watch").unwrap();
    assert!(
        price.versions_skipped > 0,
        "scope filter never skipped a version: {status:?}"
    );
    // every watcher's stream replays to full re-evaluation at every
    // published version
    assert_oracle_clean(&feed, &store, &Run { initials, deltas });
    // and the structured trace (refresh query spans + subscription
    // events) passes the trace oracle
    let violations = check_trace(&trace.events());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn stale_watermarks_degrade_to_full_reevaluation_soundly() {
    let feed = price_feed(&PriceFeedParams {
        hotels: 6,
        volatile_stride: 1,
    });
    let store = store_for(&feed);
    let mut engine = SubscriptionEngine::over_store(
        &store,
        "feed",
        &feed.registry,
        None,
        SubscriptionOptions {
            history_capacity: 1, // evicts almost immediately
            ..SubscriptionOptions::default()
        },
    )
    .expect("document exists");
    let initials = subscribe_all(&mut engine, &feed);

    // publish several versions without letting subscribers reconcile:
    // advance past every TTL so each refresh really re-invokes
    for _ in 0..3 {
        engine.advance_clock(1500.0);
        assert!(engine.refresh().is_some(), "volatile refresh must publish");
    }
    let deltas = engine.reconcile();
    assert!(engine.stats().degradations > 0, "{:?}", engine.stats());
    // degraded catch-up still lands every subscription on the answer a
    // full evaluation of the current version computes
    let doc = store.versioned("feed").expect("feed doc");
    let snapshot = doc.snapshot();
    for (name, query) in &feed.watchers {
        let mut working = snapshot.to_document();
        let report = axml_core::Engine::new(&feed.registry, axml_core::EngineConfig::default())
            .evaluate(&mut working, query);
        let full: BTreeSet<Vec<String>> = axml_query::render_result(&working, &report.result)
            .into_iter()
            .collect();
        assert_eq!(
            engine.answers(name).unwrap(),
            &full,
            "{name} diverged after degradation"
        );
    }
    // the deltas that were emitted replay correctly from the initials
    for (name, initial) in &initials {
        let mine: Vec<Delta> = deltas
            .iter()
            .filter(|d| &d.subscription == name)
            .cloned()
            .collect();
        let replayed = axml_sub::replay(initial, &mine);
        assert_eq!(&replayed, engine.answers(name).unwrap());
    }
}

#[test]
fn auction_ticker_guardrails_bound_refresh_work() {
    let feed = auction_feed(&AuctionFeedParams { auctions: 5 });
    let store = store_for(&feed);
    let mut engine = SubscriptionEngine::over_store(
        &store,
        "feed",
        &feed.registry,
        None,
        SubscriptionOptions {
            history_capacity: 4096,
            max_refires: Some(25),
            refresh_depth: 15,
            ..SubscriptionOptions::default()
        },
    )
    .expect("document exists");
    let initials = subscribe_all(&mut engine, &feed);
    let deltas = engine.run_until(5000.0);

    // the 100 ms TTLs would demand ~50 refresh rounds × 10 calls; the
    // refire budget must have cut that off
    let status = engine.status();
    assert_eq!(status[0].refires_left, Some(0), "{status:?}");
    assert!(
        engine.stats().refresh_invocations <= 25 + 15,
        "refresh kept invoking past the budget: {:?}",
        engine.stats()
    );
    // everything that was emitted is still sound
    assert_oracle_clean(&feed, &store, &Run { initials, deltas });
}

#[test]
fn transient_faults_do_not_break_replayability() {
    let mut feed = price_feed(&PriceFeedParams {
        hotels: 8,
        volatile_stride: 2,
    });
    feed.registry
        .set_default_fault_profile(FaultProfile::transient(7, 1));
    feed.registry
        .set_retry_policy(RetryPolicy::default().with_retries(3));
    let store = store_for(&feed);
    let mut engine = SubscriptionEngine::over_store(
        &store,
        "feed",
        &feed.registry,
        None,
        SubscriptionOptions {
            history_capacity: 4096,
            ..SubscriptionOptions::default()
        },
    )
    .expect("document exists");
    let initials = subscribe_all(&mut engine, &feed);
    let deltas = engine.run_until(1500.0);
    assert_oracle_clean(&feed, &store, &Run { initials, deltas });
}
