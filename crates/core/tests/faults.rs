//! The fault matrix: every strategy × every fault mode.
//!
//! Modes: none, transient-then-succeed, permanent outage, timeout, and
//! failure inside a §4.4 parallel batch. For each combination the engine
//! must not panic, the completeness flag must be truthful, and — with
//! enough retries to outlast the transients — the answer must equal the
//! fault-free answer. Fault schedules are deterministic functions of the
//! seed, so every assertion here is exact, and the whole suite can be
//! replayed under a different schedule via `AXML_FAULT_SEED`.

use axml_core::{Engine, EngineConfig, EvalReport};
use axml_obs::{Event, EventKind, RingSink};
use axml_query::parse_query;
use axml_services::{
    BreakerConfig, CallRequest, FaultProfile, FnService, NetProfile, Registry, RetryPolicy,
};
use axml_xml::{parse, Document};
use std::collections::BTreeSet;

/// Seed for every schedule in this suite; `AXML_FAULT_SEED` (the CI fault
/// job sets it) replays the matrix under a different deterministic world.
fn seed() -> u64 {
    std::env::var("AXML_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Two providers behind the same query: faults are injected into `svcB`
/// only, so `svcA`'s answers measure what degradation must preserve.
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

fn strategies() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("naive", EngineConfig::naive()),
        ("top-down", EngineConfig::top_down()),
        ("lpq", EngineConfig::lpq()),
        ("nfq-plain", EngineConfig::nfq_plain()),
        ("full-lazy", EngineConfig::default()),
    ]
}

fn answers(doc: &Document, report: &EvalReport) -> BTreeSet<Vec<String>> {
    axml_query::render_result(doc, &report.result)
        .into_iter()
        .collect()
}

fn run(registry: &Registry, config: EngineConfig) -> (EvalReport, Document) {
    let q = parse_query("/r/item/id/$I -> $I").unwrap();
    let mut d = doc();
    let report = Engine::new(registry, config).evaluate(&mut d, &q);
    d.check_integrity().unwrap();
    (report, d)
}

/// [`run`] with a trace ring attached; also returns the ring's events.
fn run_traced(registry: &Registry, config: EngineConfig) -> (EvalReport, Document, Vec<Event>) {
    let q = parse_query("/r/item/id/$I -> $I").unwrap();
    let mut d = doc();
    let ring = RingSink::unbounded();
    let report = Engine::new(registry, config)
        .with_observer(&ring)
        .evaluate(&mut d, &q);
    d.check_integrity().unwrap();
    (report, d, ring.events())
}

/// The full answer: all eight items, both providers.
fn fault_free_answers(config: EngineConfig) -> BTreeSet<Vec<String>> {
    let (report, d) = run(&registry(), config);
    assert!(report.complete);
    answers(&d, &report)
}

#[test]
fn mode_none_every_strategy_is_complete() {
    for (name, config) in strategies() {
        let (report, d) = run(&registry(), config);
        assert!(report.complete, "{name}: fault-free run must be complete");
        assert_eq!(report.stats.failed_calls, 0, "{name}");
        assert_eq!(report.stats.breaker_skips, 0, "{name}");
        assert_eq!(answers(&d, &report).len(), 8, "{name}");
    }
}

#[test]
fn mode_transient_retries_recover_the_full_answer() {
    for (name, config) in strategies() {
        let reference = fault_free_answers(config.clone());
        let mut r = registry();
        r.set_fault_profile("svcB", FaultProfile::transient(seed(), 2));
        r.set_retry_policy(RetryPolicy::default().with_retries(3));
        let (report, d) = run(&r, config);
        assert!(
            report.complete,
            "{name}: transients within the retry budget must not degrade"
        );
        assert_eq!(report.stats.failed_calls, 0, "{name}");
        assert_eq!(
            answers(&d, &report),
            reference,
            "{name}: answer must equal the fault-free answer"
        );
        // the recovery was paid for in retries, and only by svcB
        assert!(
            report.stats.call_attempts > report.stats.calls_invoked,
            "{name}: expected retry attempts beyond one per call"
        );
    }
}

#[test]
fn mode_transient_without_retries_degrades_instead_of_panicking() {
    for (name, config) in strategies() {
        let mut r = registry();
        r.set_fault_profile("svcB", FaultProfile::transient(seed(), 2));
        r.set_retry_policy(RetryPolicy::none());
        r.set_breaker_config(BreakerConfig::disabled());
        let (report, d) = run(&r, config);
        assert!(
            !report.complete,
            "{name}: unabsorbed faults must be flagged"
        );
        assert_eq!(report.stats.failed_calls, 4, "{name}: all svcB calls fail");
        let got = answers(&d, &report);
        assert_eq!(got.len(), 4, "{name}: svcA's answers must survive");
        assert!(
            got.iter()
                .all(|row| row.iter().all(|v| v.starts_with("svcA-"))),
            "{name}: partial answer may only contain svcA items, got {got:?}"
        );
    }
}

#[test]
fn mode_permanent_partial_answer_keeps_healthy_subtrees() {
    for (name, config) in strategies() {
        let reference = fault_free_answers(config.clone());
        let expected_partial: BTreeSet<Vec<String>> = reference
            .iter()
            .filter(|row| row.iter().all(|v| v.starts_with("svcA-")))
            .cloned()
            .collect();
        let mut r = registry();
        r.set_fault_profile("svcB", FaultProfile::permanent(seed()));
        r.set_breaker_config(BreakerConfig::disabled());
        let (report, d) = run(&r, config);
        assert!(!report.complete, "{name}");
        assert_eq!(report.stats.failed_calls, 4, "{name}");
        // default policy: 1 + 3 retries per failed call, one per success
        assert_eq!(
            report.stats.call_attempts,
            report.stats.calls_invoked + 4 * 4,
            "{name}"
        );
        assert_eq!(answers(&d, &report), expected_partial, "{name}");
    }
}

#[test]
fn mode_permanent_circuit_breaker_cuts_the_retry_storm() {
    for (name, config) in strategies() {
        let mut r = registry();
        r.set_fault_profile("svcB", FaultProfile::permanent(seed()));
        r.set_breaker_config(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 1e9, // never half-opens within this run
        });
        let (report, d) = run(&r, config);
        assert!(!report.complete, "{name}");
        assert_eq!(
            report.stats.failed_calls + report.stats.breaker_skips,
            4,
            "{name}: every svcB call either fails or is refused"
        );
        // parallel batches dispatch before any failure is recorded, so the
        // breaker can only help strictly sequential strategies — but it
        // must never hurt: svcA is untouched either way
        let got = answers(&d, &report);
        assert_eq!(got.len(), 4, "{name}");
        assert!(got.iter().all(|row| row[0].starts_with("svcA-")), "{name}");
    }
}

#[test]
fn mode_timeout_burns_the_deadline_then_degrades() {
    for (name, config) in strategies() {
        let mut r = registry();
        r.set_fault_profile("svcB", FaultProfile::timeouts(seed()));
        r.set_retry_policy(RetryPolicy::default().with_timeout_ms(50.0));
        r.set_breaker_config(BreakerConfig::disabled());
        let (report, d) = run(&r, config);
        assert!(!report.complete, "{name}");
        assert_eq!(report.stats.failed_calls, 4, "{name}");
        let net = r.stats();
        assert_eq!(
            net.timed_out_attempts,
            4 * 4,
            "{name}: every svcB attempt must time out"
        );
        // each timed-out attempt burned the full 50 ms deadline
        assert!(
            report.stats.sim_time_ms >= 4.0 * 50.0,
            "{name}: deadline not charged to the clock ({} ms)",
            report.stats.sim_time_ms
        );
        assert_eq!(answers(&d, &report).len(), 4, "{name}");
    }
}

#[test]
fn mode_parallel_batch_failure_spares_batch_mates() {
    // failures inside a §4.4 batch, logical clock and real threads
    for threads in [false, true] {
        for (name, base) in strategies() {
            let config = EngineConfig {
                parallel: true,
                real_threads: threads,
                ..base
            };
            let reference = fault_free_answers(config.clone());
            let expected_partial: BTreeSet<Vec<String>> = reference
                .iter()
                .filter(|row| row.iter().all(|v| v.starts_with("svcA-")))
                .cloned()
                .collect();
            let mut r = registry();
            r.set_fault_profile("svcB", FaultProfile::permanent(seed()));
            r.set_breaker_config(BreakerConfig::disabled());
            let (report, d) = run(&r, config);
            assert!(!report.complete, "{name} threads={threads}");
            assert_eq!(report.stats.failed_calls, 4, "{name} threads={threads}");
            assert_eq!(
                answers(&d, &report),
                expected_partial,
                "{name} threads={threads}: batch mates of failed calls must survive"
            );
        }
    }
}

/// A printable fingerprint of everything an EvalReport determines
/// (answers, the completed document, retry counts, the simulated clock)
/// plus the run's invocation events — but not CPU durations, which are
/// measurements.
fn fingerprint(doc: &Document, report: &EvalReport, events: &[Event]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "doc: {}", axml_xml::to_xml(doc)).unwrap();
    for row in answers(doc, report) {
        writeln!(out, "answer: {row:?}").unwrap();
    }
    let s = &report.stats;
    writeln!(
        out,
        "calls={} failed={} skips={} attempts={} bytes={} rounds={} sim={} complete={}",
        s.calls_invoked,
        s.failed_calls,
        s.breaker_skips,
        s.call_attempts,
        s.bytes_transferred,
        s.rounds,
        s.sim_time_ms,
        report.complete
    )
    .unwrap();
    for e in events {
        if let EventKind::Invocation {
            service,
            path,
            pushed,
            ok,
            attempts,
            cost_ms,
            ..
        } = &e.kind
        {
            writeln!(
                out,
                "trace: r{} {service} /{path} pushed={pushed} ok={ok} attempts={attempts} \
                 cost={cost_ms}",
                e.round
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn same_seed_means_byte_identical_reports() {
    for (name, config) in strategies() {
        let one = |()| {
            let mut r = registry();
            r.set_default_fault_profile(FaultProfile::chaos(seed(), 0.5));
            r.set_retry_policy(RetryPolicy::default().with_timeout_ms(200.0));
            let (report, d, events) = run_traced(&r, config.clone());
            fingerprint(&d, &report, &events)
        };
        assert_eq!(
            one(()),
            one(()),
            "{name}: two runs with the same fault seed must agree byte-for-byte"
        );
    }
}

// ---------------- deadline rows ----------------

#[test]
fn mode_deadline_expired_before_layer_0_invokes_nothing() {
    // a zero deadline expires before the first dispatch: the run closes
    // immediately as deadline-truncated, with every candidate pending
    for (name, base) in strategies() {
        let config = EngineConfig {
            deadline_ms: 0.0,
            ..base
        };
        let (report, d) = run(&registry(), config);
        assert!(!report.complete, "{name}");
        assert_eq!(report.stats.calls_invoked, 0, "{name}: nothing may start");
        assert_eq!(report.stats.failed_calls, 0, "{name}");
        assert!(report.stats.truncated, "{name}");
        assert!(report.stats.deadline_exceeded, "{name}");
        assert_eq!(report.stats.sim_time_ms, 0.0, "{name}");
        assert!(answers(&d, &report).is_empty(), "{name}");
    }
}

#[test]
fn mode_deadline_expiry_mid_run_yields_sound_partial_answer() {
    // sequential dispatch at 10 ms per call with a 35 ms budget: three
    // calls land, the fourth burns the remaining 5 ms to the deadline,
    // the rest are never dispatched — and the clock never passes expiry
    for (name, base) in [
        ("nfq-plain", EngineConfig::nfq_plain()),
        ("naive-seq", EngineConfig::naive()),
        ("top-down", EngineConfig::top_down()),
    ] {
        let config = EngineConfig {
            deadline_ms: 35.0,
            parallel: false,
            ..base
        };
        let (report, d) = run(&registry(), config);
        assert!(!report.complete, "{name}");
        assert_eq!(report.stats.calls_invoked, 3, "{name}: 3 × 10 ms fit");
        assert_eq!(
            report.stats.failed_calls, 1,
            "{name}: the in-flight call is cut at the deadline"
        );
        assert!(report.stats.deadline_exceeded, "{name}");
        assert!(report.stats.truncated, "{name}");
        assert!(
            report.stats.sim_time_ms <= 35.0 + 1e-9,
            "{name}: clock overran the deadline ({} ms)",
            report.stats.sim_time_ms
        );
        assert_eq!(answers(&d, &report).len(), 3, "{name}");
    }
}

#[test]
fn mode_deadline_expiry_mid_batch_clips_every_leg() {
    // a parallel batch dispatched with 5 ms of budget left: every 10 ms
    // call is clipped, burns exactly the remainder, and fails with the
    // deadline cause; the batch advance lands the clock exactly on expiry
    let config = EngineConfig {
        deadline_ms: 5.0,
        ..EngineConfig::default()
    };
    let (report, d) = run(&registry(), config);
    assert!(!report.complete);
    assert_eq!(report.stats.calls_invoked, 0);
    assert_eq!(report.stats.failed_calls, 8, "all batch legs cut");
    assert_eq!(report.stats.sim_time_ms, 5.0, "clock stops at expiry");
    assert!(answers(&d, &report).is_empty());
}

#[test]
fn mode_deadline_expiry_during_backoff_never_overruns() {
    // transient faults force retries whose backoff sleeps dwarf the
    // deadline budget: the scheduled pauses must be clipped so the clock
    // never passes expiry, and the cut is reported as deadline truncation
    for deadline_ms in [15.0, 40.0, 80.0] {
        let mut r = registry();
        r.set_fault_profile("svcB", FaultProfile::transient(seed(), 3));
        r.set_retry_policy(RetryPolicy {
            max_retries: 4,
            base_backoff_ms: 50.0,
            backoff_factor: 2.0,
            timeout_ms: f64::INFINITY,
        });
        let config = EngineConfig {
            deadline_ms,
            parallel: false,
            ..EngineConfig::default()
        };
        let (report, _) = run(&r, config);
        assert!(!report.complete, "deadline {deadline_ms}");
        assert!(
            report.stats.sim_time_ms <= deadline_ms + 1e-9,
            "deadline {deadline_ms}: backoff overran the budget ({} ms)",
            report.stats.sim_time_ms
        );
        assert!(
            report.stats.deadline_exceeded || report.stats.failed_calls > 0,
            "deadline {deadline_ms}: the cut must surface as degradation"
        );
    }
}

#[test]
fn different_seeds_reach_the_same_complete_answer_when_absorbed() {
    // chaos transients are absorbed by the default retry budget, so the
    // *answer* is seed-independent even though the schedules differ
    let reference = fault_free_answers(EngineConfig::default());
    for s in [seed(), seed() ^ 0x9e37_79b9, 7, 12345] {
        let mut r = registry();
        r.set_default_fault_profile(FaultProfile::chaos(s, 0.7));
        let (report, d) = run(&r, EngineConfig::default());
        assert!(report.complete, "seed {s}");
        assert_eq!(answers(&d, &report), reference, "seed {s}");
    }
}
