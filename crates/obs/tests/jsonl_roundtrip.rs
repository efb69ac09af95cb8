//! Round-trip property for the JSONL trace codec: for every
//! [`EventKind`] variant the crate has grown — engine spans, cache and
//! breaker events, hedging/shedding, plan-cache probes, subscription
//! events, and the WAL/recovery events — `parse_jsonl(to_jsonl(events))`
//! reproduces the events exactly, and re-encoding the parse is
//! byte-identical (encoder and parser are mutually inverse).

use axml_obs::{
    event_from_json, event_to_json, parse_jsonl, to_jsonl, CacheOutcome, Event, EventKind,
    ShedReason,
};
use proptest::prelude::*;

/// Deterministic value stream (splitmix64) so one `u64` seed fans out
/// into all the field values of a full event set.
struct Values(u64);

impl Values {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn small(&mut self) -> usize {
        (self.next() % 1000) as usize
    }

    fn version(&mut self) -> u64 {
        self.next() % 1_000_000
    }

    fn ms(&mut self) -> f64 {
        // Kept to values the decimal encoding represents exactly.
        (self.next() % 100_000) as f64 / 4.0
    }

    fn flag(&mut self) -> bool {
        self.next().is_multiple_of(2)
    }

    /// Strings exercising the JSON escaper: quotes, backslashes,
    /// control characters, non-ASCII.
    fn string(&mut self) -> String {
        const POOL: &[&str] = &[
            "svc",
            "",
            "with space",
            "quote\"inside",
            "back\\slash",
            "new\nline",
            "tab\there",
            "unicode-héllo-⊕",
            "a/b/c",
            "ctrl\u{1}\u{1f}",
        ];
        POOL[(self.next() as usize) % POOL.len()].to_string()
    }

    fn outcome(&mut self) -> CacheOutcome {
        match self.next() % 3 {
            0 => CacheOutcome::Hit,
            1 => CacheOutcome::Stale,
            _ => CacheOutcome::Miss,
        }
    }

    fn reason(&mut self) -> ShedReason {
        if self.flag() {
            ShedReason::Inflight
        } else {
            ShedReason::Latency
        }
    }
}

/// One event of every kind, with seed-derived field values. Growing
/// [`EventKind`] without extending this list fails the exhaustiveness
/// check below.
fn all_kinds(v: &mut Values) -> Vec<EventKind> {
    vec![
        EventKind::QueryStart {
            strategy: v.string(),
            query: v.string(),
        },
        EventKind::QueryEnd {
            complete: v.flag(),
            calls_invoked: v.small(),
            sim_time_ms: v.ms(),
        },
        EventKind::LayerStart {
            nfqs: v.small(),
            independent: v.flag(),
        },
        EventKind::LayerEnd,
        EventKind::Candidates {
            calls: vec![v.next(), v.next()],
            services: vec![v.string(), v.string()],
        },
        EventKind::CacheProbe {
            service: v.string(),
            call: v.next(),
            outcome: v.outcome(),
        },
        EventKind::Attempt {
            service: v.string(),
            call: v.next(),
            index: v.small(),
            ok: v.flag(),
        },
        EventKind::Invocation {
            service: v.string(),
            call: v.next(),
            path: v.string(),
            pushed: v.flag(),
            cached: v.flag(),
            ok: v.flag(),
            attempts: v.small(),
            cost_ms: v.ms(),
            bytes: v.small(),
        },
        EventKind::BreakerTransition {
            service: v.string(),
            open: v.flag(),
        },
        EventKind::BreakerSkip {
            service: v.string(),
            call: v.next(),
        },
        EventKind::UnknownService {
            service: v.string(),
            call: v.next(),
        },
        EventKind::Batch {
            parallel: v.flag(),
            costs: vec![v.ms(), v.ms(), v.ms()],
            advance_ms: v.ms(),
        },
        EventKind::Truncated { pending: v.small() },
        EventKind::Hedge {
            service: v.string(),
            call: v.next(),
            fired_at_ms: v.ms(),
            primary_cost_ms: v.ms(),
            hedge_cost_ms: v.ms(),
            hedge_won: v.flag(),
        },
        EventKind::Shed {
            service: v.string(),
            call: v.next(),
            reason: v.reason(),
        },
        EventKind::DeadlineExceeded { pending: v.small() },
        EventKind::PlanCacheProbe {
            query: v.string(),
            key: v.string(),
            hit: v.flag(),
        },
        EventKind::SubscriptionStart {
            subscription: v.string(),
            query: v.string(),
            initial: v.small(),
        },
        EventKind::SubscriptionDelta {
            subscription: v.string(),
            version: v.version(),
            added: v.small(),
            removed: v.small(),
            changed: v.small(),
            full_reeval: v.flag(),
        },
        EventKind::WalAppend {
            doc: v.string(),
            version: v.version(),
            record: v.string(),
            bytes: v.small(),
            synced: v.flag(),
        },
        EventKind::WalCheckpoint {
            doc: v.string(),
            version: v.version(),
            bytes: v.small(),
        },
        EventKind::WalRecovery {
            doc: v.string(),
            version: v.version(),
            frames: v.small(),
            splices_replayed: v.small(),
            truncated: v.flag(),
        },
    ]
}

fn events_from(seed: u64) -> Vec<Event> {
    let mut v = Values(seed);
    let kinds = all_kinds(&mut v);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Event {
            seq: i as u64,
            sim_ms: v.ms(),
            round: (v.next() % 5) as usize,
            layer: (v.next() % 5) as usize,
            cpu_ms: None,
            kind,
        })
        .collect()
}

/// Compares via the deterministic encoding (EventKind has no PartialEq).
fn assert_events_equal(a: &[Event], b: &[Event]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(event_to_json(x), event_to_json(y));
    }
}

/// Guard: this test enumerates every variant. If a new `EventKind` is
/// added, this match stops compiling until `all_kinds` covers it.
#[allow(dead_code)]
fn exhaustiveness_guard(kind: &EventKind) {
    match kind {
        EventKind::QueryStart { .. }
        | EventKind::QueryEnd { .. }
        | EventKind::LayerStart { .. }
        | EventKind::LayerEnd
        | EventKind::Candidates { .. }
        | EventKind::CacheProbe { .. }
        | EventKind::Attempt { .. }
        | EventKind::Invocation { .. }
        | EventKind::BreakerTransition { .. }
        | EventKind::BreakerSkip { .. }
        | EventKind::UnknownService { .. }
        | EventKind::Batch { .. }
        | EventKind::Truncated { .. }
        | EventKind::Hedge { .. }
        | EventKind::Shed { .. }
        | EventKind::DeadlineExceeded { .. }
        | EventKind::PlanCacheProbe { .. }
        | EventKind::SubscriptionStart { .. }
        | EventKind::SubscriptionDelta { .. }
        | EventKind::WalAppend { .. }
        | EventKind::WalCheckpoint { .. }
        | EventKind::WalRecovery { .. } => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ encode = identity, and encode ∘ parse = identity — for a
    /// full set of events (one per variant) with randomized fields.
    #[test]
    fn jsonl_codec_is_mutually_inverse(seed in any::<u64>()) {
        let events = events_from(seed);

        // Line-level round-trip.
        for e in &events {
            let line = event_to_json(e);
            let back = event_from_json(&line).expect("line parses");
            assert_eq!(event_to_json(&back), line, "re-encode must be identical");
        }

        // Stream-level round-trip.
        let text = to_jsonl(&events);
        let parsed = parse_jsonl(&text).expect("stream parses");
        assert_events_equal(&events, &parsed);
        prop_assert_eq!(to_jsonl(&parsed), text);
    }
}

/// The codec's error path stays an error, not a panic, on junk input.
#[test]
fn junk_lines_are_rejected_not_panicked() {
    for junk in [
        "",
        "{",
        "null",
        "{\"seq\":0}",
        "{\"seq\":0,\"sim_ms\":0,\"round\":0,\"layer\":0,\"kind\":\"no_such_kind\"}",
        "{\"seq\":\"zero\",\"sim_ms\":0,\"round\":0,\"layer\":0,\"kind\":\"layer_end\"}",
    ] {
        assert!(event_from_json(junk).is_err(), "{junk:?} must not parse");
    }
}
