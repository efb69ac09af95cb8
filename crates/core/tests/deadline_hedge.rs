//! Deadline-aware evaluation: hedged invocations, adaptive load shedding
//! and end-to-end deadlines, exercised at the engine level.
//!
//! Everything here runs on the simulated clock with deterministic fault
//! schedules, so assertions are exact: hedging never makes a batch
//! slower, a hedged pair records exactly one breaker outcome, shedding
//! degrades to a sound partial answer, and two runs with the same seed
//! and flags produce byte-identical JSONL traces.

use axml_core::{Engine, EngineConfig, EngineStats, HedgeConfig, ShedConfig};
use axml_obs::{check_all, to_jsonl, Event, EventKind, RingSink};
use axml_query::parse_query;
use axml_services::{
    BreakerConfig, CallRequest, FaultProfile, FnService, NetProfile, Registry, RetryPolicy,
};
use axml_xml::{parse, Document};
use std::collections::BTreeSet;

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

/// `<r>` with four calls to each provider, interleaved in document order.
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

/// A latency profile with a heavy tail: no failures, but a fraction of
/// call sites run `slowdown_factor` times slower — the workload hedging
/// is for.
fn tail_profile(seed: u64) -> FaultProfile {
    FaultProfile {
        seed,
        fail_prob: 0.0,
        transient_failures: 0,
        timeout_prob: 0.0,
        slowdown_prob: 0.7,
        slowdown_factor: 10.0,
    }
}

fn answers(doc: &Document, report: &axml_core::EvalReport) -> BTreeSet<Vec<String>> {
    axml_query::render_result(doc, &report.result)
        .into_iter()
        .collect()
}

fn run_traced(r: &Registry, config: EngineConfig) -> (axml_core::EvalReport, Document, Vec<Event>) {
    let q = parse_query("/r/item/id/$I -> $I").unwrap();
    let mut d = doc();
    let ring = RingSink::unbounded();
    let report = Engine::new(r, config)
        .with_observer(&ring)
        .evaluate(&mut d, &q);
    d.check_integrity().unwrap();
    (report, d, ring.events())
}

fn assert_oracle_clean(events: &[Event], stats: &EngineStats, label: &str) {
    let violations = check_all(events, Some(&stats.view()));
    assert!(
        violations.is_empty(),
        "{label}: oracle violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------- hedging ----------------

#[test]
fn hedging_cuts_tail_latency_without_changing_the_answer() {
    // A parallel batch completes at the max over its calls, so a won
    // hedge race only shortens the batch when it wins on the critical
    // path. Sweep seeds: hedging must never hurt on ANY seed, must fire
    // on the tail profile, and must strictly help on at least one seed.
    let config = EngineConfig {
        hedge: HedgeConfig {
            threshold_ms: 15.0,
            latency_factor: f64::INFINITY,
        },
        ..EngineConfig::default()
    };
    let mut any_hedged = false;
    let mut any_strictly_faster = false;
    for seed in 1..=100u64 {
        let mut base_reg = registry();
        base_reg.set_default_fault_profile(tail_profile(seed));
        let (base, base_doc, base_events) = run_traced(&base_reg, EngineConfig::default());
        assert!(base.complete);
        assert_oracle_clean(&base_events, &base.stats, "baseline");

        let mut hedged_reg = registry();
        hedged_reg.set_default_fault_profile(tail_profile(seed));
        let (hedged, hedged_doc, hedged_events) = run_traced(&hedged_reg, config.clone());
        assert!(hedged.complete);
        assert_oracle_clean(&hedged_events, &hedged.stats, "hedged");

        assert_eq!(
            answers(&hedged_doc, &hedged),
            answers(&base_doc, &base),
            "seed {seed}: hedging must not change the answer"
        );
        assert!(
            hedged.stats.sim_time_ms <= base.stats.sim_time_ms,
            "seed {seed}: hedging made the batch slower ({} > {})",
            hedged.stats.sim_time_ms,
            base.stats.sim_time_ms
        );
        // the wasted-work bound: each loser leg wastes at most its own
        // cost, which the tail profile caps at slowdown_factor × latency
        assert!(
            hedged.stats.hedge_wasted_ms <= hedged.stats.hedged_calls as f64 * 100.0,
            "seed {seed}: wasted work exceeds the per-leg bound"
        );
        // exactly one logical outcome per call, hedged or not
        assert_eq!(hedged.stats.calls_invoked, base.stats.calls_invoked);
        assert_eq!(hedged.stats.failed_calls, 0);
        any_hedged |= hedged.stats.hedged_calls > 0;
        any_strictly_faster |= hedged.stats.sim_time_ms < base.stats.sim_time_ms;
    }
    assert!(any_hedged, "the tail profile must trigger hedges");
    assert!(
        any_strictly_faster,
        "across 100 seeds hedging must win the critical path at least once"
    );
}

#[test]
fn hedge_events_stay_within_the_batch_budget() {
    let mut r = registry();
    r.set_default_fault_profile(tail_profile(7));
    let config = EngineConfig {
        hedge: HedgeConfig {
            threshold_ms: 15.0,
            latency_factor: f64::INFINITY,
        },
        ..EngineConfig::default()
    };
    let (report, _, events) = run_traced(&r, config);
    let hedges: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Hedge {
                fired_at_ms,
                primary_cost_ms,
                hedge_cost_ms,
                hedge_won,
                ..
            } => Some((*fired_at_ms, *primary_cost_ms, *hedge_cost_ms, *hedge_won)),
            _ => None,
        })
        .collect();
    assert_eq!(hedges.len(), report.stats.hedged_calls);
    for (fired_at, primary_cost, hedge_cost, hedge_won) in hedges {
        assert!(
            primary_cost > fired_at,
            "a hedge only fires once the primary outlives the trigger"
        );
        assert!(hedge_cost >= 0.0);
        if hedge_won {
            assert!(
                fired_at + hedge_cost < primary_cost,
                "a winning hedge must have completed before the primary"
            );
        }
    }
}

/// Searches for a fault seed under which the primary leg of the single
/// `svcB` call fails permanently while its hedge leg (whose fingerprint
/// is salted, so it has an independent deterministic fate) succeeds.
fn rescue_seed(req: &CallRequest) -> u64 {
    for seed in 1..10_000u64 {
        let r = {
            let mut r = registry();
            r.set_retry_policy(RetryPolicy::none());
            r.set_fault_profile(
                "svcB",
                FaultProfile {
                    seed,
                    fail_prob: 0.5,
                    transient_failures: usize::MAX,
                    timeout_prob: 0.0,
                    slowdown_prob: 0.0,
                    slowdown_factor: 1.0,
                },
            );
            r
        };
        let primary = r.invoke_within("svcB", req, None, f64::INFINITY);
        let hedge = r.invoke_hedge("svcB", req, None, f64::INFINITY);
        if primary.is_err() && hedge.is_ok() {
            return seed;
        }
    }
    panic!("no rescue seed found in 10k candidates");
}

#[test]
fn hedged_pair_records_exactly_one_breaker_outcome() {
    // regression: a hedged pair against a recovering (half-open) breaker
    // must record exactly one outcome — the winner's. If the losing
    // primary's failure were recorded too, the re-closed breaker would
    // trip again at threshold 1 and the next dispatch would be refused.
    let mut d = Document::with_root("r");
    let root = d.root();
    let c = d.add_call(root, "svcB");
    d.add_text(c, "0");
    let seed = rescue_seed(&CallRequest::of_call(&d, c));

    let mut r = registry();
    r.set_retry_policy(RetryPolicy::none());
    r.set_breaker_config(BreakerConfig {
        failure_threshold: 1,
        cooldown_ms: 30.0,
    });
    r.set_fault_profile(
        "svcB",
        FaultProfile {
            seed,
            fail_prob: 0.5,
            transient_failures: usize::MAX,
            timeout_prob: 0.0,
            slowdown_prob: 0.0,
            slowdown_factor: 1.0,
        },
    );
    // phase 1: trip the breaker, then let the cooldown pass
    r.breaker_record("svcB", false, 0.0);
    assert!(!r.breaker_allows("svcB", 10.0), "breaker must be open");
    assert!(r.breaker_allows("svcB", 40.0), "breaker must half-open");

    // phase 2: the half-open probe is a hedged call whose primary fails
    // and whose hedge leg rescues it
    let config = EngineConfig {
        push_queries: false,
        hedge: HedgeConfig {
            threshold_ms: 5.0,
            latency_factor: f64::INFINITY,
        },
        ..EngineConfig::default()
    };
    let q = parse_query("/r/item/id/$I -> $I").unwrap();
    let ring = RingSink::unbounded();
    let report = Engine::new(&r, config)
        .starting_at(40.0)
        .with_observer(&ring)
        .evaluate(&mut d, &q);

    assert!(report.complete, "the hedge leg must rescue the call");
    assert_eq!(report.stats.calls_invoked, 1);
    assert_eq!(report.stats.failed_calls, 0);
    assert_eq!(report.stats.hedged_calls, 1);
    assert_eq!(report.stats.hedge_wins, 1);
    let state = r.breaker_state("svcB").expect("breaker state exists");
    assert_eq!(
        state.consecutive_failures, 0,
        "the losing primary's failure must not be recorded"
    );
    assert_eq!(
        state.trips, 1,
        "the hedge leg must not re-open the breaker its twin closed"
    );
    assert!(
        r.breaker_allows("svcB", 100.0),
        "the breaker must stay closed after the rescued probe"
    );
    assert_oracle_clean(&ring.events(), &report.stats, "half-open hedge");
}

// ---------------- shedding ----------------

#[test]
fn inflight_shedding_degrades_to_a_sound_partial_answer() {
    let config = EngineConfig {
        shed: ShedConfig {
            max_inflight_per_batch: 1,
            ewma_limit_ms: f64::INFINITY,
        },
        ..EngineConfig::default()
    };
    let (report, d, events) = run_traced(&registry(), config);
    assert!(!report.complete, "shed calls must flag degradation");
    assert_eq!(report.stats.calls_invoked, 2, "one admitted per service");
    assert_eq!(report.stats.shed_skips, 6, "the rest are shed");
    let got = answers(&d, &report);
    assert_eq!(got.len(), 2, "admitted calls' answers survive");
    let sheds = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Shed { .. }))
        .count();
    assert_eq!(sheds, 6);
    assert_oracle_clean(&events, &report.stats, "inflight shed");
}

#[test]
fn latency_shedding_cuts_off_a_degraded_service() {
    // sequential dispatch: the first svcB call seeds the latency EWMA at
    // 100 ms, after which the gate sheds every further svcB candidate
    let mut r = registry();
    r.set_fault_profile(
        "svcB",
        FaultProfile {
            seed: 1,
            fail_prob: 0.0,
            transient_failures: 0,
            timeout_prob: 0.0,
            slowdown_prob: 1.0,
            slowdown_factor: 10.0,
        },
    );
    let config = EngineConfig {
        parallel: false,
        shed: ShedConfig {
            max_inflight_per_batch: usize::MAX,
            ewma_limit_ms: 50.0,
        },
        ..EngineConfig::default()
    };
    let (report, d, events) = run_traced(&r, config);
    assert!(!report.complete);
    assert_eq!(
        report.stats.shed_skips, 3,
        "after the first 100 ms observation every further svcB call is shed"
    );
    assert_eq!(report.stats.calls_invoked, 5, "4 × svcA + the first svcB");
    assert_eq!(answers(&d, &report).len(), 5);
    assert!(events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::Shed { reason, .. }
            if *reason == axml_obs::ShedReason::Latency)));
    assert_oracle_clean(&events, &report.stats, "latency shed");
}

// ---------------- determinism with everything on ----------------

/// A printable fingerprint of a run: answers, stats and the full
/// deterministic JSONL trace.
fn fingerprint(doc: &Document, report: &axml_core::EvalReport, events: &[Event]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for row in answers(doc, report) {
        writeln!(out, "answer: {row:?}").unwrap();
    }
    let s = &report.stats;
    writeln!(
        out,
        "calls={} failed={} sheds={} hedges={} wins={} wasted={} deadline={} sim={}",
        s.calls_invoked,
        s.failed_calls,
        s.shed_skips,
        s.hedged_calls,
        s.hedge_wins,
        s.hedge_wasted_ms,
        s.deadline_exceeded,
        s.sim_time_ms
    )
    .unwrap();
    out.push_str(&to_jsonl(events));
    out
}

#[test]
fn all_mechanisms_on_are_deterministic() {
    let config = EngineConfig {
        deadline_ms: 150.0,
        hedge: HedgeConfig {
            threshold_ms: 15.0,
            latency_factor: 3.0,
        },
        shed: ShedConfig {
            max_inflight_per_batch: 3,
            ewma_limit_ms: 500.0,
        },
        ..EngineConfig::default()
    };
    let one = || {
        let mut r = registry();
        r.set_default_fault_profile(FaultProfile::chaos(42, 0.5));
        r.set_retry_policy(RetryPolicy::default().with_timeout_ms(200.0));
        let (report, d, events) = run_traced(&r, config.clone());
        assert_oracle_clean(&events, &report.stats, "all-on");
        fingerprint(&d, &report, &events)
    };
    assert_eq!(one(), one(), "two runs must agree byte-for-byte");
}
