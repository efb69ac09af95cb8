//! Property: the production [`CallCache`] and the reference
//! implementation ([`SingleLockCache`], test support in
//! `support/mod.rs`) are driven through identical event sequences —
//! stores, lookups and purges, at monotone simulated times, under tight
//! LRU budgets and finite TTLs — and must make identical observable
//! decisions: the same hit/stale/miss outcome (and payload) for every
//! probe, the same removal counts, the same final counters, entry count,
//! and byte total.

mod support;

use axml_services::{CacheLookup, CallKey, CallRequest, InvokeCache, InvokeOutcome, PushedQuery};
use axml_store::{CacheConfig, CallCache};
use axml_xml::{forest_serialized_len, parse, to_xml, Forest};
use proptest::prelude::*;
use support::SingleLockCache;

const SERVICES: [&str; 3] = ["alpha", "beta", "gamma"];
const PAYLOADS: [&str; 4] = [
    "<a/>",
    "<b>x</b>",
    "<c><d>result</d><d>result</d></c>",
    "<e>xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx</e>",
];

fn call_key(service: &str, i: usize, pushed: Option<&PushedQuery>) -> CallKey {
    let mut params = Forest::new();
    params.add_root_text(format!("param-{i}"));
    CallKey::new(service, &CallRequest::of_forest(&params), pushed)
}

fn payload(i: usize) -> InvokeOutcome {
    let result = parse(PAYLOADS[i % PAYLOADS.len()]).unwrap();
    let bytes = forest_serialized_len(&result);
    InvokeOutcome {
        result: std::sync::Arc::new(result),
        bytes,
        cost_ms: 10.0,
        pushed: false,
        attempts: 1,
    }
}

fn pushed_query() -> PushedQuery {
    PushedQuery {
        pattern: axml_query::parse_query("/probe").unwrap(),
        via: axml_query::EdgeKind::Child,
    }
}

/// A lookup outcome flattened to comparable data.
#[derive(Debug, PartialEq)]
enum Probe {
    Hit {
        xml: String,
        bytes: usize,
        pushed: bool,
        age_ms: f64,
        expires_at_ms: f64,
    },
    Stale,
    Miss,
    /// A store, with the expiry it reported.
    Stored(f64),
}

fn probe(lookup: CacheLookup) -> Probe {
    match lookup {
        CacheLookup::Hit(h) => Probe::Hit {
            xml: to_xml(&h.result),
            bytes: h.bytes,
            pushed: h.pushed,
            age_ms: h.age_ms,
            expires_at_ms: h.expires_at_ms,
        },
        CacheLookup::Stale => Probe::Stale,
        CacheLookup::Miss => Probe::Miss,
    }
}

/// One event in the generated sequence. Fields are interpreted per
/// opcode; unused fields are simply ignored, which keeps shrinking
/// well-behaved (no dependent strategies).
type Op = (u8, usize, usize, usize, f64);

fn apply<C: InvokeCache>(
    cache: &C,
    op: &Op,
    now_ms: f64,
    purge: impl Fn(f64) -> usize,
) -> (Option<Probe>, Option<usize>) {
    let (kind, svc, key, pay, _) = *op;
    let service = SERVICES[svc % SERVICES.len()];
    let pushed = (key % 2 == 1).then(pushed_query);
    match kind % 5 {
        0 | 1 => (
            Some(probe(
                cache.lookup(&call_key(service, key, pushed.as_ref()), now_ms),
            )),
            None,
        ),
        2 | 3 => {
            let expires_at_ms = cache.store(
                &call_key(service, key, pushed.as_ref()),
                &payload(pay),
                now_ms,
            );
            (Some(Probe::Stored(expires_at_ms)), None)
        }
        _ => (None, Some(purge(now_ms))),
    }
}

#[test]
fn single_lock_reference_matches_on_a_smoke_sequence() {
    let cache = CallCache::new(CacheConfig::with_ttl_ms(100.0));
    let single = SingleLockCache::new(CacheConfig::with_ttl_ms(100.0));
    for (i, now) in [(1, 0.0), (2, 10.0), (3, 20.0)] {
        cache.store(&call_key("s", i, None), &payload(0), now);
        single.store(&call_key("s", i, None), &payload(0), now);
    }
    for now in [50.0, 99.9, 100.0, 200.0] {
        for i in 1..=3 {
            let a = matches!(
                cache.lookup(&call_key("s", i, None), now),
                CacheLookup::Hit(_)
            );
            let b = matches!(
                single.lookup(&call_key("s", i, None), now),
                CacheLookup::Hit(_)
            );
            assert_eq!(a, b, "divergence at t={now} key={i}");
        }
    }
    assert_eq!(cache.stats(), single.stats());
    assert_eq!(cache.len(), single.len());
    assert_eq!(cache.total_bytes(), single.total_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core equivalence property: identical event sequences produce
    /// identical observable behavior.
    #[test]
    fn call_cache_matches_single_lock_reference(
        ops in proptest::collection::vec(
            (0u8..5, 0usize..3, 0usize..6, 0usize..4, 0.0f64..30.0),
            1..60,
        ),
        ttl_idx in 0usize..3,
        max_entries in 2usize..8,
        tight_bytes in any::<bool>(),
    ) {
        let ttl_ms = [f64::INFINITY, 75.0, 15.0][ttl_idx];
        let unit = forest_serialized_len(&parse(PAYLOADS[0]).unwrap());
        let config = CacheConfig {
            default_ttl_ms: ttl_ms,
            max_entries,
            max_bytes: if tight_bytes { 4 * unit } else { 16 * 1024 * 1024 },
            ..CacheConfig::default()
        }
        // per-service windows apply too
        .ttl_for("beta", 40.0);

        let cache = CallCache::new(config.clone());
        let single = SingleLockCache::new(config);

        let mut now_ms = 0.0;
        for (i, op) in ops.iter().enumerate() {
            now_ms += op.4; // monotone simulated clock
            let a = apply(&cache, op, now_ms, |t| cache.purge_expired(t));
            let b = apply(&single, op, now_ms, |t| single.purge_expired(t));
            prop_assert_eq!(a, b, "op {} ({:?}) diverged at t={}", i, op, now_ms);
            prop_assert_eq!(cache.len(), single.len(), "len after op {}", i);
            prop_assert_eq!(
                cache.total_bytes(), single.total_bytes(),
                "bytes after op {}", i
            );
        }
        prop_assert_eq!(cache.stats(), single.stats());
    }
}
