//! The memoized call-result cache — `(service, params)` → result forest,
//! with per-service TTL validity windows charged to the simulated clock,
//! LRU eviction under byte/entry budgets, and invalidation hooks.
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
//! [`CallCache`] is hash-**sharded** so N concurrent sessions don't
//! serialize on one lock. Each shard has its own mutex and counters; LRU
//! ticks come from one atomic so recency is globally ordered, and
//! whole-cache operations — LRU eviction, service invalidation, purges —
//! lock the shards in index order, so they stay atomic with respect to
//! concurrent probes. Under any single-threaded sequence of operations its
//! observable decisions (hit/miss/stale, victims, counters) are
//! *identical* to a single-lock cache — the original one-mutex
//! implementation, kept as test support and pinned against this one by
//! the equivalence proptests in `tests/sharded_props.rs`.

use axml_services::{CacheLookup, CachedCall, CallKey, InvokeCache, InvokeOutcome};
use axml_xml::Forest;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// The budget is global, not per shard.
    pub max_entries: usize,
    /// Maximum total serialized result bytes before LRU eviction
    /// (default 16 MiB). The budget is global, not per shard.
    pub max_bytes: usize,
    /// When `true`, a circuit breaker tripping open purges the service's
    /// entries (freshness over availability). The default `false` keeps
    /// serving cached successes within their validity windows while the
    /// service is failing — stale-while-error availability.
    pub invalidate_on_breaker_open: bool,
    /// Number of lock shards in a [`CallCache`] (default 8, minimum 1).
    /// Purely a concurrency knob: shard count never changes hit/miss/TTL/
    /// LRU/invalidation decisions, only which mutex a key contends on.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            default_ttl_ms: f64::INFINITY,
            ttl_overrides: HashMap::new(),
            max_entries: 4096,
            max_bytes: 16 * 1024 * 1024,
            invalidate_on_breaker_open: false,
            shards: 8,
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

    /// Sets the shard count (builder style; clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
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
    /// Entries removed by explicit or breaker-driven invalidation.
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

    /// Component-wise sum (used to fold per-shard counters into totals).
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
/// probe hashes its key once, for the shard and the map alike. Unlike the
/// standard map's, that hash has a fixed seed, so parameters chosen to
/// collide can lengthen a shard's probe sequences; the entry budget bounds
/// a shard's size, and with it that cost.
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

type KeyMap<V> = HashMap<CallKey, V, BuildHasherDefault<KeyHash>>;

struct Entry {
    result: Arc<Forest>,
    bytes: usize,
    size_bytes: usize,
    pushed: bool,
    inserted_at_ms: f64,
    expires_at_ms: f64,
    last_used: u64,
}

// ---------------------------------------------------------------------------
// Sharded cache (the serving path)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Shard {
    map: KeyMap<Entry>,
    bytes: usize,
    stats: CacheStats,
}

impl Shard {
    fn remove(&mut self, key: &CallKey) -> Option<Entry> {
        let e = self.map.remove(key)?;
        self.bytes -= e.size_bytes;
        Some(e)
    }

    /// This shard's least-recently-used entry, as `(last_used, key)`.
    fn lru_min(&self) -> Option<(u64, CallKey)> {
        self.map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, e)| (e.last_used, k.clone()))
    }
}

/// A shared, internally synchronized call-result cache implementing the
/// engine-facing [`InvokeCache`] contract.
///
/// All timestamps are **simulated** milliseconds — the engine passes its
/// [`axml_services::SimClock`] time — so validity windows are charged to
/// the same clock as network latency and breaker cooldowns, and every
/// replay with the same seed observes identical hits and evictions.
///
/// Internally hash-sharded (see [`CacheConfig::shards`]): lookups and
/// stores lock only the key's shard, so concurrent sessions touching
/// different keys do not contend. Budgets and LRU order stay *global*:
/// recency ticks are drawn from one atomic counter and eviction locks all
/// shards (in index order, so two evictors cannot deadlock) to remove the
/// globally least-recently-used entry — exactly the victim the single-lock
/// cache would pick. Service-wide invalidation and eager purges take all
/// shard locks the same way, so they are atomic with respect to
/// concurrent lookups, just like the single-lock cache.
pub struct CallCache {
    config: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
}

impl Default for CallCache {
    fn default() -> Self {
        CallCache::new(CacheConfig::default())
    }
}

impl CallCache {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        let n = config.shards.max(1);
        CallCache {
            config,
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            tick: AtomicU64::new(0),
        }
    }

    /// The configuration this cache enforces.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` lives in. Semantics never depend on the shard
    /// chosen, only which mutex a key contends on.
    fn shard(&self, key: &CallKey) -> &Mutex<Shard> {
        &self.shards[(key.hash_value() % self.shards.len() as u64) as usize]
    }

    /// A snapshot of the cumulative counters, summed over all shards.
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(s))
    }

    /// Per-shard counter snapshots, in shard-index order. Summing them
    /// component-wise yields exactly [`CallCache::stats`] — the identity
    /// the `axml-obs` stats oracle checks.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().stats)
            .collect()
    }

    /// Per-shard `(hits, misses, stale)` probe counters in the shape
    /// [`axml_obs::StatsView`]'s `cache_shards` field expects — the
    /// harness-side bridge for the shard-sum accounting check.
    pub fn shard_probe_counters(&self) -> Vec<(usize, usize, usize)> {
        self.shard_stats()
            .iter()
            .map(|s| (s.hits as usize, s.misses as usize, s.stale as usize))
            .collect()
    }

    /// Live entries currently held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total serialized result bytes currently held.
    pub fn total_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }

    /// Drops every entry belonging to `service` (explicit invalidation
    /// hook). Returns the number of entries removed.
    ///
    /// Atomic: all shards are locked (in index order, like eviction)
    /// before any entry is dropped, so a concurrent lookup sees either
    /// every entry of the service or none — the same guarantee a
    /// single-lock cache gives.
    pub fn invalidate_service(&self, service: &str) -> usize {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        let mut n = 0;
        for shard in guards.iter_mut() {
            let doomed: Vec<CallKey> = shard
                .map
                .keys()
                .filter(|k| k.service() == service)
                .cloned()
                .collect();
            for k in &doomed {
                shard.remove(k);
            }
            shard.stats.invalidations += doomed.len() as u64;
            n += doomed.len();
        }
        n
    }

    /// Drops every entry. Returns the number of entries removed.
    /// Atomic across shards, like [`CallCache::invalidate_service`].
    pub fn invalidate_all(&self) -> usize {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        let mut n = 0;
        for shard in guards.iter_mut() {
            let removed = shard.map.len();
            shard.map.clear();
            shard.bytes = 0;
            shard.stats.invalidations += removed as u64;
            n += removed;
        }
        n
    }

    /// Eagerly drops entries whose validity window has passed at
    /// simulated time `now_ms` (expiry is otherwise lazy, on lookup).
    /// Returns the number of entries removed.
    /// Atomic across shards, like [`CallCache::invalidate_service`].
    pub fn purge_expired(&self, now_ms: f64) -> usize {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        let mut n = 0;
        for shard in guards.iter_mut() {
            let doomed: Vec<CallKey> = shard
                .map
                .iter()
                .filter(|(_, e)| e.expires_at_ms <= now_ms)
                .map(|(k, _)| k.clone())
                .collect();
            for k in &doomed {
                shard.remove(k);
            }
            shard.stats.invalidations += doomed.len() as u64;
            n += doomed.len();
        }
        n
    }

    /// The end of the TTL validity window of the cached entry for `key`,
    /// in simulated milliseconds — `f64::INFINITY` for entries that never
    /// expire, `None` when nothing is cached under that key. Purely
    /// observational: unlike a lookup, this never counts as a probe,
    /// touches recency, or removes an expired entry.
    pub fn expiry_of(&self, key: &CallKey) -> Option<f64> {
        let shard = self.shard(key).lock().unwrap();
        shard.map.get(key).map(|e| e.expires_at_ms)
    }

    /// The earliest *finite* expiry instant over all live entries: the
    /// next simulated time at which some cached result lapses and a
    /// refresh could do real work. `None` when nothing ever expires
    /// (cache empty, or every window infinite).
    pub fn earliest_expiry(&self) -> Option<f64> {
        let mut min: Option<f64> = None;
        for s in &self.shards {
            let shard = s.lock().unwrap();
            for e in shard.map.values() {
                if e.expires_at_ms.is_finite() && min.is_none_or(|m| e.expires_at_ms < m) {
                    min = Some(e.expires_at_ms);
                }
            }
        }
        min
    }

    /// Evicts globally least-recently-used entries until the budgets hold.
    /// Locks every shard in index order (a fixed total order, so two
    /// concurrent evictors cannot deadlock) and picks victims by global
    /// minimum `last_used` — ticks are unique, so the choice is
    /// deterministic and identical to the single-lock cache's.
    ///
    /// Per-shard LRU minima are maintained incrementally: picking a
    /// victim is an O(shards) min over the minima, and only the shard
    /// that lost its minimum is rescanned — never every entry of every
    /// shard per victim, so steady-state-full insertion stays cheap.
    fn evict_to_budget(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        let mut entries: usize = guards.iter().map(|g| g.map.len()).sum();
        let mut bytes: usize = guards.iter().map(|g| g.bytes).sum();
        if entries <= self.config.max_entries && bytes <= self.config.max_bytes {
            return;
        }
        let mut minima: Vec<Option<(u64, CallKey)>> = guards.iter().map(|g| g.lru_min()).collect();
        while entries > self.config.max_entries || bytes > self.config.max_bytes {
            let victim = minima
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.as_ref().map(|(tick, _)| (*tick, i)))
                .min();
            let Some((_, i)) = victim else { return };
            let (_, key) = minima[i].take().expect("victim shard has a minimum");
            let removed = guards[i].remove(&key).expect("minimum key is present");
            entries -= 1;
            bytes -= removed.size_bytes;
            guards[i].stats.evictions += 1;
            minima[i] = guards[i].lru_min();
        }
    }
}

impl InvokeCache for CallCache {
    fn lookup(&self, key: &CallKey, now_ms: f64) -> CacheLookup {
        let mut shard = self.shard(key).lock().unwrap();
        let Some(entry) = shard.map.get_mut(key) else {
            shard.stats.misses += 1;
            return CacheLookup::Miss;
        };
        if entry.expires_at_ms <= now_ms {
            shard.remove(key);
            shard.stats.stale += 1;
            return CacheLookup::Stale;
        }
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = CachedCall {
            result: Arc::clone(&entry.result),
            bytes: entry.bytes,
            pushed: entry.pushed,
            age_ms: now_ms - entry.inserted_at_ms,
        };
        shard.stats.hits += 1;
        CacheLookup::Hit(hit)
    }

    fn store(&self, key: &CallKey, outcome: &InvokeOutcome, now_ms: f64) {
        let ttl = self.config.ttl(key.service());
        if ttl <= 0.0 {
            return; // caching disabled for this service
        }
        // the registry measured the forest's serialized size already
        let size_bytes = outcome.bytes;
        if size_bytes > self.config.max_bytes {
            return; // a single over-budget result would evict everything
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Entry {
            result: Arc::clone(&outcome.result),
            bytes: outcome.bytes,
            size_bytes,
            pushed: outcome.pushed,
            inserted_at_ms: now_ms,
            expires_at_ms: now_ms + ttl,
            last_used: tick,
        };
        {
            let mut shard = self.shard(key).lock().unwrap();
            // replacement: the old window is superseded by the fresh answer
            shard.remove(key);
            shard.bytes += entry.size_bytes;
            shard.map.insert(key.clone(), entry);
            shard.stats.insertions += 1;
            // the shard lock is released before eviction takes all locks
        }
        self.evict_to_budget();
    }

    fn on_breaker_transition(&self, service: &str, open: bool) {
        if open && self.config.invalidate_on_breaker_open {
            self.invalidate_service(service);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_services::PushedQuery;
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
        CallKey::new(service, &params, pushed)
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
    fn invalidation_hooks() {
        let cache = CallCache::default();
        cache.store(&key("s", "1", None), &outcome("<a/>"), 0.0);
        cache.store(&key("s", "2", None), &outcome("<a/>"), 0.0);
        cache.store(&key("t", "1", None), &outcome("<a/>"), 0.0);
        assert_eq!(cache.invalidate_service("s"), 2);
        assert_eq!(cache.len(), 1);
        // breaker hook is inert by default (availability over freshness)
        cache.on_breaker_transition("t", true);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidate_all(), 1);
        assert!(cache.is_empty());

        let strict = CallCache::new(CacheConfig {
            invalidate_on_breaker_open: true,
            ..CacheConfig::default()
        });
        strict.store(&key("t", "1", None), &outcome("<a/>"), 0.0);
        strict.on_breaker_transition("t", false);
        assert_eq!(strict.len(), 1, "closing transition keeps entries");
        strict.on_breaker_transition("t", true);
        assert!(strict.is_empty(), "opening transition purges the service");
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
            cache.expiry_of(&key("forever", "1", None)),
            Some(f64::INFINITY)
        );
        assert_eq!(
            cache.earliest_expiry(),
            None,
            "infinite windows never lapse"
        );
        cache.store(&key("slow", "1", None), &outcome("<a/>"), 5.0);
        cache.store(&key("fast", "1", None), &outcome("<a/>"), 5.0);
        assert_eq!(cache.expiry_of(&key("fast", "1", None)), Some(15.0));
        assert_eq!(cache.expiry_of(&key("slow", "1", None)), Some(1_005.0));
        assert_eq!(cache.expiry_of(&key("fast", "other", None)), None);
        assert_eq!(cache.earliest_expiry(), Some(15.0));
        // observation is not a probe: no stats moved, and an expired
        // entry is still visible until a real lookup removes it
        let before = cache.stats();
        assert_eq!(cache.expiry_of(&key("fast", "1", None)), Some(15.0));
        assert_eq!(cache.stats(), before);
        assert!(matches!(
            cache.lookup(&key("fast", "1", None), 20.0),
            CacheLookup::Stale
        ));
        assert_eq!(cache.earliest_expiry(), Some(1_005.0));
    }

    #[test]
    fn shard_stats_sum_to_totals() {
        let cache = CallCache::new(CacheConfig::default().with_shards(4));
        assert_eq!(cache.shard_count(), 4);
        for i in 0..20 {
            cache.store(&key("s", &format!("{i}"), None), &outcome("<a/>"), 0.0);
            cache.lookup(&key("s", &format!("{i}"), None), 1.0);
            cache.lookup(&key("s", &format!("missing-{i}"), None), 1.0);
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let summed = per_shard
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(s));
        assert_eq!(summed, cache.stats());
        assert_eq!(summed.hits, 20);
        assert_eq!(summed.misses, 20);
        assert_eq!(summed.insertions, 20);
        // keys actually spread across shards (20 distinct keys, 4 shards)
        let populated = per_shard.iter().filter(|s| s.insertions > 0).count();
        assert!(populated > 1, "all keys hashed into one shard");
    }
}
