//! External-publisher tests: the subscription engine does not drive the
//! document — persistent-mode serving sessions do. Their publications
//! carry no splice tags, so every reconcile degrades to a (sound) full
//! re-evaluation, and the delta stream must still replay to full
//! re-evaluation at every published version, under both the
//! deterministic seeded scheduler and the concurrent worker pool.
//!
//! The scenario services are static tables, so evaluating a historical
//! version is deterministic even though external publications may leave
//! calls un-materialized (the serving query only consumes the calls it
//! needs).

use axml_gen::{figure1, figure4_query, Scenario};
use axml_query::parse_query;
use axml_store::{DocumentStore, SchedulerMode, SessionOptions, SessionSpec};
use axml_sub::{check_subscription, SubscriptionEngine, SubscriptionOptions};

fn persistent_specs(scenario: &Scenario) -> Vec<SessionSpec> {
    let _ = scenario;
    let persistent = SessionOptions {
        snapshot_per_query: false,
        ..SessionOptions::default()
    };
    let museums =
        parse_query("/hotels/hotel[name=$N]/nearby//museum[name=$M] -> $N,$M").expect("museums");
    let ratings = parse_query("/hotels/hotel[name=$N][rating=$R] -> $N,$R").expect("ratings");
    vec![
        SessionSpec {
            options: persistent.clone(),
            ..SessionSpec::new(
                "fig4-twice",
                "hotels",
                vec![figure4_query(), figure4_query()],
            )
        },
        SessionSpec {
            options: persistent.clone(),
            ..SessionSpec::new("museums", "hotels", vec![museums])
        },
        SessionSpec {
            options: persistent,
            ..SessionSpec::new("ratings", "hotels", vec![ratings])
        },
    ]
}

fn check_external(mode: &SchedulerMode) {
    let scenario = figure1();
    let mut store = DocumentStore::new();
    store.insert("hotels", scenario.doc.clone());

    // subscribe BEFORE serving: enables publication history at version 0
    // and computes the initial answer there
    let mut engine = SubscriptionEngine::over_store(
        &store,
        "hotels",
        &scenario.registry,
        Some(&scenario.schema),
        SubscriptionOptions {
            history_capacity: 4096,
            ..SubscriptionOptions::default()
        },
    )
    .expect("document exists");
    let query = figure4_query();
    let initial = engine.subscribe("fig4-watch".to_string(), query.clone());

    // external publishers: persistent-mode sessions materializing into
    // the stored document as they answer their own queries
    let report = store.serve(
        &persistent_specs(&scenario),
        &scenario.registry,
        Some(&scenario.schema),
        mode,
        None,
    );
    assert!(report.sessions.iter().all(|s| !s.queries.is_empty()));
    let published = store.versioned("hotels").expect("doc").version();
    assert!(published > 0, "persistent sessions must have published");

    // catch up on everything the sessions published
    let deltas = engine.reconcile();
    // untagged publications carry no scope information, so every
    // reconciled version is a full re-evaluation
    assert!(deltas.iter().all(|d| d.full_reeval), "{deltas:?}");
    let stats = engine.stats();
    assert!(stats.full_reevals > 0, "{stats:?}");
    assert_eq!(
        stats.versions_skipped, 0,
        "untagged publications cannot be scope-skipped: {stats:?}"
    );

    // the delta stream replays to full re-evaluation at every version
    let doc = store.versioned("hotels").expect("doc");
    check_subscription(
        doc,
        &scenario.registry,
        Some(&scenario.schema),
        &query,
        &initial,
        0,
        &deltas,
    )
    .assert_clean();
}

#[test]
fn deterministic_scheduler_publications_stream_soundly() {
    check_external(&SchedulerMode::DeterministicSeeded { seed: 42 });
    check_external(&SchedulerMode::DeterministicSeeded { seed: 7 });
}

#[test]
fn concurrent_pool_publications_stream_soundly() {
    check_external(&SchedulerMode::Concurrent { workers: 4 });
}
