//! A refresh that re-invokes a call at the document root must reach the
//! subscribers. Such a call's parent label path is empty — the root
//! position — which every query's change scope can observe.

use axml_query::parse_query;
use axml_services::{CallRequest, FnService, Registry};
use axml_store::{CacheConfig, DocumentStore};
use axml_sub::{check_subscription, SubscriptionEngine, SubscriptionOptions};
use axml_xml::parse;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn refreshed_root_call_reaches_subscribers() {
    // the answer changes on every invocation: H0, H1, …
    let invocations = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&invocations);
    let mut registry = Registry::new();
    registry.register(FnService::new("getHotels", move |_: &CallRequest| {
        let n = counter.fetch_add(1, Ordering::SeqCst);
        parse(&format!(
            "<hotels><hotel><name>H{n}</name></hotel></hotels>"
        ))
        .unwrap()
    }));
    let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(100.0));
    store.insert("doc", parse("<axml:call service=\"getHotels\"/>").unwrap());
    let mut engine = SubscriptionEngine::over_store(
        &store,
        "doc",
        &registry,
        None,
        SubscriptionOptions::default(),
    )
    .expect("doc stored");

    let query = parse_query("/hotels/hotel/name/$N -> $N").unwrap();
    let initial = engine.subscribe("hotels", query.clone());
    assert_eq!(initial, BTreeSet::from([vec!["H0".to_string()]]));

    let deltas = engine.run_until(1_000.0);
    let stats = engine.stats().clone();
    assert_eq!(stats.refresh_invocations, 10);
    assert_eq!(stats.publications, 10);
    assert_eq!(stats.versions_skipped, 0, "the root position is in scope");
    assert_eq!(deltas.len(), 10);
    assert_eq!(
        engine.answers("hotels"),
        Some(&BTreeSet::from([vec!["H10".to_string()]]))
    );
    let doc = store.versioned("doc").expect("doc stored");
    check_subscription(doc, &registry, None, &query, &initial, 0, &deltas).assert_clean();
}
