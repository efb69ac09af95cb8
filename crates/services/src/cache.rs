//! The invocation-cache interface — how the engine consults a
//! cross-query call-result cache (the reconstructed direction of the
//! paper's truncated Section 7: "Subsequent queries that use …").
//!
//! The cache itself lives a layer above (crate `axml-store`); this module
//! only defines the contract between the engine's invoke path and any
//! memoization layer. A call is identified by its *service* and its
//! serialized *parameters* (plus the pushed query, if any, since a pushed
//! result is pruned for that query and must not be served to another):
//! its [`CallKey`]. All freshness decisions are charged to the engine's
//! simulated clock: `now_ms` is the caller's [`crate::SimClock`] time at
//! lookup/store.

use crate::registry::InvokeOutcome;
use crate::service::{CallRequest, PushedQuery};
use axml_query::{render, EdgeKind};
use axml_xml::Forest;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What a call-result cache is keyed on: the service name, the serialized
/// parameters, and (for pushed calls) the rendered pushed pattern plus its
/// edge kind. Built once per candidate, hash included, so the probe and
/// the store after a miss serialize and hash it once.
// `hash` comes first so equality tests it before the strings
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallKey {
    hash: u64,
    service: String,
    params_xml: String,
    pushed: Option<(String, bool)>,
}

impl CallKey {
    /// The key of a call to `service` with the parameters `req` (and
    /// `pushed`), serialized where they stand.
    pub fn new(service: &str, req: &CallRequest, pushed: Option<&PushedQuery>) -> Self {
        let service = service.to_string();
        let params_xml = req.to_xml();
        let pushed = pushed.map(|pq| (render(&pq.pattern), pq.via == EdgeKind::Child));
        // `DefaultHasher::new()` starts from fixed keys: deterministic
        // within a build, which is all the cache's map needs
        let mut h = DefaultHasher::new();
        service.hash(&mut h);
        params_xml.hash(&mut h);
        pushed.hash(&mut h);
        CallKey {
            hash: h.finish(),
            service,
            params_xml,
            pushed,
        }
    }

    /// The called service.
    pub fn service(&self) -> &str {
        &self.service
    }
}

impl Hash for CallKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A cached invocation result, served in place of a network call.
#[derive(Clone, Debug)]
pub struct CachedCall {
    /// The memoized result forest, exactly as the service returned it
    /// (possibly provider-side pruned when a pushed query was part of the
    /// cache key) — the same forest the invocation produced, shared.
    pub result: Arc<Forest>,
    /// The wire size the original call transferred (informational — a hit
    /// transfers nothing).
    pub bytes: usize,
    /// Whether the original call carried a pushed query.
    pub pushed: bool,
    /// Simulated milliseconds since the entry was stored.
    pub age_ms: f64,
}

/// The outcome of a cache probe.
#[derive(Clone, Debug)]
pub enum CacheLookup {
    /// A valid entry: splice it in at zero network cost.
    Hit(CachedCall),
    /// An entry existed but its validity window has expired; the caller
    /// must fall through to a real invocation (including its retry and
    /// circuit-breaker path).
    Stale,
    /// Nothing cached for this call.
    Miss,
}

/// A memoized call-result cache consulted by the engine before it
/// dispatches through [`crate::Registry::invoke_within`].
///
/// Implementations must be internally synchronized (`&self` methods,
/// shared across the engine's sequential phases) and deterministic: given
/// the same sequence of lookups/stores at the same simulated times, two
/// runs must answer identically — eviction order included — so that
/// cached replays stay byte-for-byte reproducible.
pub trait InvokeCache: Send + Sync {
    /// Probes the cache for `key` at simulated time `now_ms`.
    fn lookup(&self, key: &CallKey, now_ms: f64) -> CacheLookup;

    /// Memoizes a *successful* invocation outcome under `key`. Failed
    /// calls are never stored — the cache holds answers, not outages.
    fn store(&self, key: &CallKey, outcome: &InvokeOutcome, now_ms: f64);
}
