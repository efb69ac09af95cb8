//! Golden structured-trace snapshots: the paper-walkthrough (Figure 1)
//! scenario's event stream is pinned byte-for-byte as JSONL under the
//! default schedule and under a deterministic fault seed, and once for
//! every other strategy of the engine's round loop: the naive, top-down
//! and LPQ baselines, sequential NFQA, speculation, a parallel run with a
//! deadline, hedging and shedding under chaos faults, sequential and
//! parallel batches over a warm call cache, and a hedge that ties its
//! primary. Each case also asserts two-run determinism, parse-back
//! round-tripping, trace-oracle cleanliness against the engine's own
//! accounting, and that the report's changed paths are the trace's.
//!
//! Regenerate the pinned files with `AXML_UPDATE_GOLDEN=1 cargo test`.

use activexml::core::{Engine, EngineConfig, EngineStats, HedgeConfig, ShedConfig, Speculation};
use activexml::gen::{figure1, figure4_query};
use activexml::obs::{assert_clean, parse_jsonl, to_jsonl, Event, EventKind, RingSink};
use activexml::query::parse_query;
use activexml::services::{FaultProfile, NetProfile};
use activexml::store::{CacheConfig, CallCache};
use std::path::PathBuf;

/// One pinned Figure 1 run.
#[derive(Clone, Default)]
struct Case {
    config: EngineConfig,
    /// The registry's default fault schedule.
    faults: Option<FaultProfile>,
    /// A call cache is attached, warmed by a run of [`RATINGS`] with push
    /// off: rating and hotel calls hit, restaurant calls miss.
    warm_cache: bool,
}

const RATINGS: &str = "/hotels/hotel[name=$N]/rating/$R -> $N,$R";

/// Runs the Figure 1 walkthrough for `case` with an observer attached;
/// returns the deterministic JSONL and the stats.
fn run(case: &Case) -> (String, EngineStats) {
    let cache = CallCache::new(CacheConfig::default());
    if case.warm_cache {
        let mut warm = figure1();
        Engine::new(&warm.registry, EngineConfig::nfq_plain())
            .with_schema(&warm.schema)
            .with_cache(&cache)
            .evaluate(&mut warm.doc, &parse_query(RATINGS).unwrap());
    }
    let mut sc = figure1();
    sc.registry.set_default_profile(NetProfile::latency(10.0));
    if let Some(f) = case.faults {
        sc.registry.set_default_fault_profile(f);
    }
    let ring = RingSink::unbounded();
    let mut engine = Engine::new(&sc.registry, case.config.clone())
        .with_schema(&sc.schema)
        .with_observer(&ring);
    if case.warm_cache {
        engine = engine.with_cache(&cache);
    }
    let report = engine.evaluate(&mut sc.doc, &figure4_query());
    let events = ring.events();
    // the CLI's `--trace` prints one line per invocation event: exactly
    // one per resolved call
    let invocations = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Invocation { .. }))
        .count();
    let s = &report.stats;
    assert_eq!(invocations, s.calls_invoked + s.failed_calls + s.cache_hits);
    // the report names where the document changed: the parent paths of
    // the non-cached successful invocations, in trace order
    let spliced: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Invocation {
                path,
                cached: false,
                ok: true,
                ..
            } => Some(path.as_str()),
            _ => None,
        })
        .collect();
    let reported: Vec<String> = report.changed_paths.iter().map(|p| p.join("/")).collect();
    assert_eq!(reported, spliced, "EvalReport::changed_paths");
    (to_jsonl(&events), report.stats)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, config: EngineConfig, faults: Option<FaultProfile>) {
    check_case(
        name,
        Case {
            config,
            faults,
            ..Case::default()
        },
    );
}

/// Pins `case`'s trace as the golden `name`; returns its events.
fn check_case(name: &str, case: Case) -> Vec<Event> {
    let (first, stats) = run(&case);
    let (second, _) = run(&case);
    assert_eq!(first, second, "{name}: two same-seed runs diverged");

    let events = parse_jsonl(&first).expect("trace JSONL parses back");
    assert_eq!(
        to_jsonl(&events),
        first,
        "{name}: parse/serialize round-trip"
    );
    assert_clean(&events, Some(&stats.view()));

    let path = golden_path(name);
    if std::env::var("AXML_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &first).unwrap();
        return events;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun with AXML_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        first, pinned,
        "{name}: trace diverged from the pinned golden; if the change is \
         intended, regenerate with AXML_UPDATE_GOLDEN=1"
    );
    events
}

#[test]
fn golden_default_schedule() {
    check_golden("figure1_default.jsonl", EngineConfig::default(), None);
}

/// A warm cross-session plan cache must be trace-invisible too: fetching
/// the Figure 4 plan from a [`PlanCache`] (cold compile, then a cache
/// hit) and evaluating with the shared plan reproduces the default
/// golden byte for byte, both times. Plan-cache probe events go to the
/// cache's own sink, never into the engine's query span.
#[test]
fn golden_default_schedule_through_a_warm_plan_cache() {
    use activexml::store::{PlanCache, PlanCacheConfig};

    let plans = PlanCache::new(PlanCacheConfig::default());
    let pinned = std::fs::read_to_string(golden_path("figure1_default.jsonl"))
        .expect("figure1_default.jsonl is pinned");
    for fetch in 0..2 {
        let mut sc = figure1();
        sc.registry.set_default_profile(NetProfile::latency(10.0));
        let config = EngineConfig::default();
        let plan = plans.fetch(&figure4_query(), Some(&sc.schema), &config);
        let ring = RingSink::unbounded();
        let engine = Engine::new(&sc.registry, config)
            .with_schema(&sc.schema)
            .with_plan(plan)
            .with_observer(&ring);
        let report = engine.evaluate(&mut sc.doc, &figure4_query());
        assert_clean(&ring.events(), Some(&report.stats.view()));
        assert_eq!(
            to_jsonl(&ring.events()),
            pinned,
            "fetch {fetch} diverged from the pinned golden"
        );
    }
    let stats = plans.stats();
    assert_eq!(
        (stats.compiles, stats.hits),
        (1, 1),
        "second fetch must be a warm hit"
    );
}

#[test]
fn golden_fault_seed_1() {
    check_golden(
        "figure1_faults.jsonl",
        EngineConfig::default(),
        Some(FaultProfile::chaos(1, 0.3)),
    );
}

/// The versioned-publication layer must be trace-invisible too: pushing
/// the Figure 1 document through a full snapshot → COW working copy →
/// publish → re-snapshot round trip and evaluating the result reproduces
/// `figure1_default.jsonl` byte for byte. The shared page structure a
/// snapshot hands out is an evaluation-identical document, not merely an
/// equivalent one.
#[test]
fn golden_default_schedule_survives_the_snapshot_layer() {
    use activexml::xml::VersionedDocument;

    let mut sc = figure1();
    sc.registry.set_default_profile(NetProfile::latency(10.0));
    let versioned = VersionedDocument::new(sc.doc);
    let round_trip = versioned.snapshot().to_document();
    versioned.publish(round_trip);
    assert_eq!(versioned.version(), 1);
    let snapshot = versioned.snapshot();
    snapshot
        .check_integrity()
        .expect("published version intact");
    let mut doc = snapshot.to_document();

    let ring = RingSink::unbounded();
    let engine = Engine::new(&sc.registry, EngineConfig::default())
        .with_schema(&sc.schema)
        .with_observer(&ring);
    let report = engine.evaluate(&mut doc, &figure4_query());
    let events = ring.events();
    assert_clean(&events, Some(&report.stats.view()));
    let jsonl = to_jsonl(&events);
    let pinned = std::fs::read_to_string(golden_path("figure1_default.jsonl"))
        .expect("figure1_default.jsonl is pinned");
    assert_eq!(
        jsonl, pinned,
        "the snapshot/publish round trip changed the Figure 1 trace"
    );
}

// One golden per strategy of the round loop: each pins what its detection
// emits as `candidates` and how its dispatcher orders, charges and
// batches the calls.

#[test]
fn golden_naive() {
    check_golden("figure1_naive.jsonl", EngineConfig::naive(), None);
}

#[test]
fn golden_top_down() {
    check_golden("figure1_topdown.jsonl", EngineConfig::top_down(), None);
}

#[test]
fn golden_lpq() {
    check_golden("figure1_lpq.jsonl", EngineConfig::lpq(), None);
}

/// Sequential NFQA: detection order in `candidates`, document order on
/// dispatch, one call per round.
#[test]
fn golden_sequential_nfqa() {
    check_golden("figure1_nfq_plain.jsonl", EngineConfig::nfq_plain(), None);
}

#[test]
fn golden_speculation_always() {
    check_golden(
        "figure1_speculative.jsonl",
        EngineConfig {
            speculation: Speculation::Always,
            ..EngineConfig::default()
        },
        None,
    );
}

/// Parallel batches under a deadline, hedging and in-flight shedding,
/// with chaos faults: the call-site gates in their fixed order.
#[test]
fn golden_deadline_hedge_shed_under_chaos() {
    let events = check_case(
        "figure1_deadline_hedge_shed.jsonl",
        Case {
            config: EngineConfig {
                deadline_ms: 60.0,
                hedge: HedgeConfig {
                    threshold_ms: 5.0,
                    latency_factor: 3.0,
                },
                shed: ShedConfig {
                    max_inflight_per_batch: 1,
                    ..ShedConfig::default()
                },
                ..EngineConfig::default()
            },
            faults: Some(FaultProfile::chaos(3, 0.3)),
            ..Case::default()
        },
    );
    let has = |kind: &str| events.iter().any(|e| e.kind.name() == kind);
    assert!(has("hedge"), "the stream must hold a hedge event");
    assert!(has("shed"), "the stream must hold a shed event");
}

/// Zero-cost cache hits count in a sequential batch's `costs` and not in
/// a parallel batch's: the naive baseline without batching and the
/// default schedule (push off, so the warm entries' keys match), both
/// over a warm cache.
#[test]
fn golden_cache_hits_in_sequential_and_parallel_batches() {
    let sequential = check_case(
        "figure1_naive_cached.jsonl",
        Case {
            config: EngineConfig::naive(),
            warm_cache: true,
            ..Case::default()
        },
    );
    let parallel = check_case(
        "figure1_cached.jsonl",
        Case {
            config: EngineConfig {
                push_queries: false,
                ..EngineConfig::default()
            },
            warm_cache: true,
            ..Case::default()
        },
    );
    let batch_costs = |events: &[Event], want_parallel: bool| -> Vec<f64> {
        events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Batch {
                    parallel, costs, ..
                } if *parallel == want_parallel => Some(costs.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    };
    let hits = |events: &[Event]| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Invocation { cached: true, .. }))
            .count()
    };
    assert!(hits(&sequential) > 0 && hits(&parallel) > 0, "warm hits");
    assert!(
        batch_costs(&sequential, false).contains(&0.0),
        "a sequential batch charges its cache hits at zero cost"
    );
    assert!(
        !batch_costs(&parallel, true).contains(&0.0),
        "a parallel batch leaves its cache hits out"
    );
}

/// A hedge leg that finishes exactly when its primary does loses: slow
/// primaries (40 ms) fire a hedge at 30 ms, and a healthy hedge leg
/// (10 ms) ties.
#[test]
fn golden_hedge_tie_goes_to_the_primary() {
    let events = check_case(
        "figure1_hedge_tie.jsonl",
        Case {
            config: EngineConfig {
                hedge: HedgeConfig {
                    threshold_ms: 30.0,
                    ..HedgeConfig::default()
                },
                ..EngineConfig::default()
            },
            faults: Some(FaultProfile {
                slowdown_prob: 0.5,
                slowdown_factor: 4.0,
                ..FaultProfile::none().with_seed(TIE_SEED)
            }),
            ..Case::default()
        },
    );
    let tie = events.iter().any(|e| {
        matches!(e.kind, EventKind::Hedge {
            fired_at_ms, primary_cost_ms, hedge_cost_ms, hedge_won: false, ..
        } if fired_at_ms + hedge_cost_ms == primary_cost_ms)
    });
    assert!(tie, "the stream must hold a tied hedge the primary won");
}

/// A fault seed whose schedule slows a primary and not its hedge leg.
const TIE_SEED: u64 = 1;
