//! An idle tick too small to move the simulated clock ends
//! `run_until` instead of ticking forever, while cache lapses still drive
//! their refreshes.

use axml_query::parse_query;
use axml_services::{Registry, StaticService};
use axml_store::{CacheConfig, DocumentStore};
use axml_sub::{SubscriptionEngine, SubscriptionOptions};
use axml_xml::parse;
use std::sync::mpsc;
use std::time::Duration;

/// Refreshes run and the clock reached by `run_until(1000.0)` with
/// `watch_ms = 1e-300`, over a cache with `ttl_ms`.
fn run_with_tiny_ticks(ttl_ms: f64) -> (usize, f64) {
    let mut registry = Registry::new();
    let hotels = parse("<hotel><name>H</name></hotel>").unwrap();
    registry.register(StaticService::new("getHotels", hotels));
    let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(ttl_ms));
    let doc = parse("<hotels><axml:call service=\"getHotels\"/></hotels>").unwrap();
    store.insert("doc", doc);
    let options = SubscriptionOptions {
        watch_ms: 1e-300,
        ..SubscriptionOptions::default()
    };
    let mut engine = SubscriptionEngine::over_store(&store, "doc", &registry, None, options)
        .expect("doc stored");
    engine.subscribe("names", parse_query("/hotels/hotel/name/$N -> $N").unwrap());
    engine.run_until(1_000.0);
    (engine.stats().refreshes, engine.clock_ms())
}

#[test]
fn an_idle_tick_that_cannot_move_the_clock_ends_the_run() {
    // on a thread, so that a run that never returns fails the test
    // instead of hanging it
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let runs = (
            run_with_tiny_ticks(f64::INFINITY),
            run_with_tiny_ticks(100.0),
        );
        done.send(runs).unwrap();
    });
    let (idle, lapsing) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("run_until returns");
    // no entry lapses: the first idle tick is due and ends the run
    assert_eq!(idle, (0, 0.0));
    // lapses every 100 ms still refresh, up to the horizon
    assert_eq!(lapsing, (10, 1_000.0));
}
