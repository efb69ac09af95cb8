//! The memoized call-result cache — `(service, params)` → result forest,
//! with per-service TTL validity windows charged to the simulated clock
//! and LRU eviction under byte/entry budgets.
//!
//! Soundness: a hit is only ever served *within its validity window*. A
//! service is assumed to answer a given parameter forest identically for
//! `ttl` simulated milliseconds after an observed answer; the window is a
//! per-service policy knob (`f64::INFINITY` models the paper's
//! deterministic services, `0` disables caching for a service). Pushed
//! queries participate in the cache key — a provider-side pruned result
//! is correct only for the query it was pruned for, so it is never served
//! to a different one.
//!
//! [`CallCache`] keeps its map, byte total, recency tick and counters
//! behind one mutex. `tests/cache_props.rs` pins its decisions
//! (hit/miss/stale, victims, counters) to a reference implementation kept
//! as test support.

use axml_services::{CacheLookup, CachedCall, CallKey, InvokeCache, InvokeOutcome};
use axml_xml::Forest;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

/// Configuration of a [`CallCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Validity window for services without a specific TTL, in simulated
    /// milliseconds. `f64::INFINITY` (the default) never expires —
    /// appropriate for deterministic services; `0.0` disables caching.
    pub default_ttl_ms: f64,
    /// Per-service TTL overrides.
    pub ttl_overrides: HashMap<String, f64>,
    /// Maximum number of cached entries before LRU eviction (default 4096).
    pub max_entries: usize,
    /// Maximum total serialized result bytes before LRU eviction
    /// (default 16 MiB).
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            default_ttl_ms: f64::INFINITY,
            ttl_overrides: HashMap::new(),
            max_entries: 4096,
            max_bytes: 16 * 1024 * 1024,
        }
    }
}

impl CacheConfig {
    /// A config whose default validity window is `ttl_ms`.
    pub fn with_ttl_ms(ttl_ms: f64) -> Self {
        CacheConfig {
            default_ttl_ms: ttl_ms,
            ..CacheConfig::default()
        }
    }

    /// Sets a per-service TTL override (builder style).
    pub fn ttl_for(mut self, service: impl Into<String>, ttl_ms: f64) -> Self {
        self.ttl_overrides.insert(service.into(), ttl_ms);
        self
    }

    fn ttl(&self, service: &str) -> f64 {
        self.ttl_overrides
            .get(service)
            .copied()
            .unwrap_or(self.default_ttl_ms)
    }
}

/// Cumulative cache counters (monotone across a store's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered by a valid entry.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Probes that found an expired entry (removed on sight).
    pub stale: u64,
    /// Entries stored (including replacements).
    pub insertions: u64,
    /// Entries evicted by the LRU budget.
    pub evictions: u64,
    /// Expired entries removed by [`CallCache::purge_expired`].
    pub invalidations: u64,
}

impl CacheStats {
    /// hits / (hits + misses + stale), or 0.0 with no probes.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses + self.stale;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// Component-wise sum (folds the counters of several caches).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            stale: self.stale + other.stale,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

/// Passes a [`CallKey`]'s precomputed hash through to the map, so a
/// probe never rehashes its key. Unlike the standard map's, that hash has
/// a fixed seed, so parameters chosen to collide can lengthen probe
/// sequences; the entry budget bounds the map's size, and with it that
/// cost.
#[derive(Default)]
struct KeyHash(u64);

impl Hasher for KeyHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a CallKey hashes as one u64")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

struct Entry {
    result: Arc<Forest>,
    bytes: usize,
    size_bytes: usize,
    pushed: bool,
    inserted_at_ms: f64,
    expires_at_ms: f64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CallKey, Entry, BuildHasherDefault<KeyHash>>,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl Inner {
    fn remove(&mut self, key: &CallKey) -> Option<Entry> {
        let e = self.map.remove(key)?;
        self.bytes -= e.size_bytes;
        Some(e)
    }

    /// The next recency tick; ticks are unique, so LRU victims never
    /// depend on the map's iteration order.
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used entries until the budgets hold.
    fn evict_to_budget(&mut self, max_entries: usize, max_bytes: usize) {
        while self.map.len() > max_entries || self.bytes > max_bytes {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { return };
            self.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

/// A shared, internally synchronized call-result cache implementing the
/// engine-facing [`InvokeCache`] contract.
///
/// All timestamps are **simulated** milliseconds — the engine passes its
/// [`axml_services::SimClock`] time — so validity windows are charged to
/// the same clock as network latency and breaker cooldowns, and every
/// replay with the same seed observes identical hits and evictions.
pub struct CallCache {
    config: CacheConfig,
    inner: Mutex<Inner>,
}

impl Default for CallCache {
    fn default() -> Self {
        CallCache::new(CacheConfig::default())
    }
}

impl CallCache {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        CallCache {
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configuration this cache enforces.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("call cache poisoned")
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Live entries currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total serialized result bytes currently held.
    pub fn total_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Eagerly drops entries whose validity window has passed at
    /// simulated time `now_ms` (expiry is otherwise lazy, on lookup).
    /// Returns the number of entries removed.
    pub fn purge_expired(&self, now_ms: f64) -> usize {
        let mut inner = self.lock();
        let doomed: Vec<CallKey> = inner
            .map
            .iter()
            .filter(|(_, e)| e.expires_at_ms <= now_ms)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            inner.remove(k);
        }
        inner.stats.invalidations += doomed.len() as u64;
        doomed.len()
    }

    /// The earliest *finite* expiry instant over all live entries: the
    /// next simulated time at which some cached result lapses and a
    /// refresh could do real work. `None` when nothing ever expires
    /// (cache empty, or every window infinite).
    pub fn earliest_expiry(&self) -> Option<f64> {
        self.lock()
            .map
            .values()
            .map(|e| e.expires_at_ms)
            .filter(|t| t.is_finite())
            .min_by(f64::total_cmp)
    }
}

impl InvokeCache for CallCache {
    fn lookup(&self, key: &CallKey, now_ms: f64) -> CacheLookup {
        let mut inner = self.lock();
        let Some(expires_at_ms) = inner.map.get(key).map(|e| e.expires_at_ms) else {
            inner.stats.misses += 1;
            return CacheLookup::Miss;
        };
        if expires_at_ms <= now_ms {
            inner.remove(key);
            inner.stats.stale += 1;
            return CacheLookup::Stale;
        }
        let tick = inner.next_tick();
        inner.stats.hits += 1;
        let entry = inner.map.get_mut(key).expect("entry just probed");
        entry.last_used = tick;
        CacheLookup::Hit(CachedCall {
            result: Arc::clone(&entry.result),
            bytes: entry.bytes,
            pushed: entry.pushed,
            age_ms: now_ms - entry.inserted_at_ms,
            expires_at_ms: entry.expires_at_ms,
        })
    }

    fn store(&self, key: &CallKey, outcome: &InvokeOutcome, now_ms: f64) -> f64 {
        let ttl = self.config.ttl(key.service());
        if ttl <= 0.0 {
            return now_ms; // caching disabled for this service
        }
        // the registry measured the forest's serialized size already
        let size_bytes = outcome.bytes;
        if size_bytes > self.config.max_bytes {
            return now_ms; // a single over-budget result would evict everything
        }
        let mut inner = self.lock();
        let entry = Entry {
            result: Arc::clone(&outcome.result),
            bytes: outcome.bytes,
            size_bytes,
            pushed: outcome.pushed,
            inserted_at_ms: now_ms,
            expires_at_ms: now_ms + ttl,
            last_used: inner.next_tick(),
        };
        // replacement: the old window is superseded by the fresh answer
        inner.remove(key);
        inner.bytes += size_bytes;
        inner.map.insert(key.clone(), entry);
        inner.stats.insertions += 1;
        inner.evict_to_budget(self.config.max_entries, self.config.max_bytes);
        now_ms + ttl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_services::{CallRequest, PushedQuery};
    use axml_xml::{forest_serialized_len, parse};

    fn outcome(xml: &str) -> InvokeOutcome {
        let result = parse(xml).unwrap();
        let bytes = forest_serialized_len(&result);
        InvokeOutcome {
            result: Arc::new(result),
            bytes,
            cost_ms: 10.0,
            pushed: false,
            attempts: 1,
        }
    }

    fn key(service: &str, text: &str, pushed: Option<&PushedQuery>) -> CallKey {
        let mut params = Forest::new();
        params.add_root_text(text);
        CallKey::new(service, &CallRequest::of_forest(&params), pushed)
    }

    #[test]
    fn hit_within_window_stale_after() {
        let cache = CallCache::new(CacheConfig::with_ttl_ms(100.0));
        cache.store(&key("s", "k", None), &outcome("<a/>"), 0.0);
        assert!(matches!(
            cache.lookup(&key("s", "k", None), 50.0),
            CacheLookup::Hit(_)
        ));
        // at exactly the boundary the entry is expired
        assert!(matches!(
            cache.lookup(&key("s", "k", None), 100.0),
            CacheLookup::Stale
        ));
        // the expired entry was removed on sight: next probe is a miss
        assert!(matches!(
            cache.lookup(&key("s", "k", None), 100.0),
            CacheLookup::Miss
        ));
        let s = cache.stats();
        assert_eq!((s.hits, s.stale, s.misses), (1, 1, 1));
    }

    #[test]
    fn keys_distinguish_service_params_and_push() {
        let cache = CallCache::default();
        cache.store(&key("s", "a", None), &outcome("<a/>"), 0.0);
        assert!(matches!(
            cache.lookup(&key("s", "b", None), 0.0),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(&key("t", "a", None), 0.0),
            CacheLookup::Miss
        ));
        let pq = PushedQuery {
            pattern: axml_query::parse_query("/a").unwrap(),
            via: axml_query::EdgeKind::Child,
        };
        // a plain entry must not answer a pushed probe, nor vice versa
        assert!(matches!(
            cache.lookup(&key("s", "a", Some(&pq)), 0.0),
            CacheLookup::Miss
        ));
        cache.store(&key("s", "a", Some(&pq)), &outcome("<b/>"), 0.0);
        let CacheLookup::Hit(h) = cache.lookup(&key("s", "a", Some(&pq)), 0.0) else {
            panic!("pushed entry should hit");
        };
        assert_eq!(axml_xml::to_xml(&h.result), "<b/>");
    }

    #[test]
    fn lru_eviction_under_entry_budget() {
        let cache = CallCache::new(CacheConfig {
            max_entries: 2,
            ..CacheConfig::default()
        });
        cache.store(&key("s", "1", None), &outcome("<a/>"), 0.0);
        cache.store(&key("s", "2", None), &outcome("<b/>"), 0.0);
        // touch 1 so 2 becomes the LRU victim
        assert!(matches!(
            cache.lookup(&key("s", "1", None), 1.0),
            CacheLookup::Hit(_)
        ));
        cache.store(&key("s", "3", None), &outcome("<c/>"), 2.0);
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.lookup(&key("s", "2", None), 3.0),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(&key("s", "1", None), 3.0),
            CacheLookup::Hit(_)
        ));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_and_oversized_results() {
        let small = outcome("<a/>");
        let unit = forest_serialized_len(&small.result);
        let cache = CallCache::new(CacheConfig {
            max_bytes: 2 * unit,
            ..CacheConfig::default()
        });
        cache.store(&key("s", "1", None), &small, 0.0);
        cache.store(&key("s", "2", None), &small, 0.0);
        assert_eq!(cache.len(), 2);
        cache.store(&key("s", "3", None), &small, 0.0);
        assert_eq!(cache.len(), 2, "byte budget evicts the LRU entry");
        assert!(cache.total_bytes() <= 2 * unit);
        // a result bigger than the whole budget is not stored at all
        let big = outcome("<a><b>xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx</b></a>");
        cache.store(&key("s", "4", None), &big, 0.0);
        assert!(matches!(
            cache.lookup(&key("s", "4", None), 0.0),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn per_service_ttl_and_purge() {
        let cache = CallCache::new(
            CacheConfig::with_ttl_ms(1_000.0)
                .ttl_for("fast", 10.0)
                .ttl_for("never", 0.0),
        );
        cache.store(&key("fast", "1", None), &outcome("<a/>"), 0.0);
        cache.store(&key("slow", "1", None), &outcome("<a/>"), 0.0);
        cache.store(&key("never", "1", None), &outcome("<a/>"), 0.0);
        assert_eq!(cache.len(), 2, "ttl 0 disables caching for a service");
        assert_eq!(cache.purge_expired(500.0), 1, "fast expired, slow lives");
        assert!(matches!(
            cache.lookup(&key("slow", "1", None), 500.0),
            CacheLookup::Hit(_)
        ));
    }

    #[test]
    fn expiry_introspection() {
        let cache = CallCache::new(
            CacheConfig::with_ttl_ms(1_000.0)
                .ttl_for("fast", 10.0)
                .ttl_for("forever", f64::INFINITY),
        );
        assert_eq!(cache.earliest_expiry(), None, "empty cache: nothing lapses");
        cache.store(&key("forever", "1", None), &outcome("<a/>"), 0.0);
        assert_eq!(
            cache.earliest_expiry(),
            None,
            "infinite windows never lapse"
        );
        cache.store(&key("slow", "1", None), &outcome("<a/>"), 5.0);
        cache.store(&key("fast", "1", None), &outcome("<a/>"), 5.0);
        // observation is not a probe: no stats moved, and an expired
        // entry is still visible until a real lookup removes it
        let before = cache.stats();
        assert_eq!(cache.earliest_expiry(), Some(15.0));
        assert_eq!(cache.stats(), before);
        assert!(matches!(
            cache.lookup(&key("fast", "1", None), 20.0),
            CacheLookup::Stale
        ));
        assert_eq!(cache.earliest_expiry(), Some(1_005.0));
    }
}
