//! Fault-matrix gap: a subscription TTL-refresh round while the
//! refreshed service's circuit breaker is open mid-round.
//!
//! The invariant under test is the truncation-abort rule extended to
//! breaker refusals: a refresh round that cannot materialize *every*
//! standing query completely must abort without publishing, so the
//! version history never holds a partially refreshed document. Unlike a
//! budget truncation, a breaker refusal is transient — the subscription
//! keeps its refire budget and the round retries once the breaker
//! closes, paying only for the calls that were refused (the successful
//! re-invocations stayed warm in the cache).

use axml_query::parse_query;
use axml_services::{BreakerConfig, CallRequest, FnService, Registry};
use axml_store::{CacheConfig, DocumentStore};
use axml_sub::{SubscriptionEngine, SubscriptionOptions};
use axml_xml::{parse, Document};

fn registry() -> Registry {
    let mut r = Registry::new();
    for name in ["stable", "frail"] {
        r.register(FnService::new(name, move |req: &CallRequest| {
            let key = req.first_text().unwrap_or("?");
            parse(&format!("<val>{name}-{key}</val>")).unwrap()
        }));
    }
    r.set_breaker_config(BreakerConfig {
        failure_threshold: 2,
        cooldown_ms: 1e9,
    });
    r
}

fn doc() -> Document {
    let mut d = Document::with_root("r");
    let root = d.root();
    let a = d.add_element(root, "a");
    let c = d.add_call(a, "stable");
    d.add_text(c, "x");
    let b = d.add_element(root, "b");
    let c = d.add_call(b, "frail");
    d.add_text(c, "y");
    d
}

#[test]
fn refresh_round_aborts_while_breaker_open_and_retries_after_close() {
    let registry = registry();
    let mut store = DocumentStore::with_cache_config(CacheConfig::with_ttl_ms(50.0));
    store.insert("doc", doc());
    let mut engine = SubscriptionEngine::over_store(
        &store,
        "doc",
        &registry,
        None,
        SubscriptionOptions::default(),
    )
    .expect("doc stored");

    let qa = parse_query("/r/a/val/$V -> $V").unwrap();
    let qb = parse_query("/r/b/val/$V -> $V").unwrap();
    let ia = engine.subscribe("watch-a", qa);
    let ib = engine.subscribe("watch-b", qb);
    assert_eq!(ia.len(), 1);
    assert_eq!(ib.len(), 1);
    let versioned = store.versioned("doc").expect("doc stored");
    let v0 = versioned.version();

    // Both TTLs lapse, then the frail service's breaker trips open
    // before the next refresh round.
    engine.advance_clock(100.0);
    registry.breaker_record("frail", false, engine.clock_ms());
    registry.breaker_record("frail", false, engine.clock_ms());
    assert!(!registry.breaker_allows("frail", engine.clock_ms()));

    // The round really re-invokes the stable service, but the frail
    // half of the round is refused by the breaker: the round must abort
    // with nothing published.
    assert_eq!(engine.refresh(), None, "partial round must not publish");
    assert_eq!(versioned.version(), v0, "no version may appear");
    assert_eq!(engine.stats().publications, 0);
    assert!(
        engine.stats().refresh_invocations > 0,
        "the stable half of the round did refresh"
    );
    // A breaker refusal is transient: the subscription must keep its
    // refire budget (only budget truncation exhausts it).
    let status = engine.status();
    let sb = status.iter().find(|s| s.name == "watch-b").unwrap();
    assert!(
        sb.refires_left != Some(0),
        "breaker refusal must not exhaust refires"
    );

    // Reconciliation sees no new version either.
    assert!(engine.reconcile().is_empty());

    // Breaker closes; the retry round completes and publishes one full
    // version. The stable service's earlier re-invocation is still warm
    // in the cache, so only the frail call is re-paid.
    registry.breaker_record("frail", true, engine.clock_ms());
    assert!(registry.breaker_allows("frail", engine.clock_ms()));
    let invocations_before = engine.stats().refresh_invocations;
    let published = engine.refresh().expect("complete round publishes");
    assert_eq!(published, v0 + 1);
    assert_eq!(versioned.version(), v0 + 1);
    assert_eq!(engine.stats().publications, 1);
    assert_eq!(
        engine.stats().refresh_invocations - invocations_before,
        1,
        "retry must re-pay only the refused call"
    );
}
