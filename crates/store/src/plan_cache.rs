//! The cross-session compiled-plan cache: `(query, schema, config)` →
//! [`CompiledQuery`], so a query's NFQs, LPQs, layers, label automata and
//! bytecode are compiled **once per store** and every later session pays
//! only a label-test binding per document.
//!
//! Correctness does not depend on the cache: a cached plan is attached to
//! an engine via [`axml_core::Engine::with_plan`], and the engine consults
//! it only when [`CompiledQuery::compatible`] confirms the exact
//! compile-relevant key — a stale or mismatched plan is silently ignored,
//! never misapplied. Query answers, traces and statistics are
//! byte-identical with the cache on or off (pinned by the plan-equivalence
//! oracle and the golden-trace tests); the cache changes *when* the
//! compile work happens, not *what* is computed.
//!
//! Shape follows [`crate::CallCache`]: hash-**sharded** so concurrent
//! sessions probing different queries do not serialize on one lock, with
//! a global LRU capacity enforced by locking the shards in index order.
//! Probes emit [`EventKind::PlanCacheProbe`] events into the cache's own
//! sink — never into an engine's query span, which must not change with
//! cache state.

use axml_core::{plan_fingerprint, CompiledQuery, EngineConfig};
use axml_obs::{Event, EventKind, TraceSink};
use axml_query::{render, Pattern};
use axml_schema::Schema;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of a [`PlanCache`].
#[derive(Clone, Debug)]
pub struct PlanCacheConfig {
    /// Maximum number of cached plans before LRU eviction (default 64).
    /// The budget is global, not per shard. A capacity of 0 disables
    /// caching: every fetch compiles (still correct, never reused).
    pub capacity: usize,
    /// Number of lock shards (default 8, minimum 1). Purely a concurrency
    /// knob: shard count never changes hit/miss/LRU decisions, only which
    /// mutex a key contends on.
    pub shards: usize,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig {
            capacity: 64,
            shards: 8,
        }
    }
}

impl PlanCacheConfig {
    /// A config with the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCacheConfig {
            capacity,
            ..PlanCacheConfig::default()
        }
    }
}

/// Cumulative plan-cache counters (monotone across a store's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Probes answered by a cached compatible plan.
    pub hits: u64,
    /// Probes that found nothing under the key (each one compiled).
    pub misses: u64,
    /// Plans actually compiled (= misses, plus recompiles after a
    /// fingerprint collision with an incompatible resident plan).
    pub compiles: u64,
    /// Plans evicted by the LRU capacity.
    pub evictions: u64,
}

impl PlanCacheStats {
    /// hits / (hits + misses), or 0.0 with no probes.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// Component-wise sum (folds per-shard counters into totals).
    pub fn merged(&self, other: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            compiles: self.compiles + other.compiles,
            evictions: self.evictions + other.evictions,
        }
    }
}

struct PlanEntry {
    plan: Arc<CompiledQuery>,
    last_used: u64,
}

#[derive(Default)]
struct PlanShard {
    map: HashMap<String, PlanEntry>,
    stats: PlanCacheStats,
}

impl PlanShard {
    /// This shard's least-recently-used entry, as `(last_used, key)`.
    fn lru_min(&self) -> Option<(u64, String)> {
        self.map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, e)| (e.last_used, k.clone()))
    }
}

/// A shared, internally synchronized cache of [`CompiledQuery`] plans,
/// keyed by the stable fingerprint of the compile-relevant plan key
/// ([`plan_fingerprint`]). See the module docs.
pub struct PlanCache {
    config: PlanCacheConfig,
    shards: Vec<Mutex<PlanShard>>,
    tick: AtomicU64,
    seq: AtomicU64,
    sink: Mutex<Option<Arc<dyn TraceSink>>>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(PlanCacheConfig::default())
    }
}

impl PlanCache {
    /// An empty cache with the given configuration.
    pub fn new(config: PlanCacheConfig) -> Self {
        let n = config.shards.max(1);
        PlanCache {
            config,
            shards: (0..n).map(|_| Mutex::new(PlanShard::default())).collect(),
            tick: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            sink: Mutex::new(None),
        }
    }

    /// The configuration this cache enforces.
    pub fn config(&self) -> &PlanCacheConfig {
        &self.config
    }

    /// Attaches the sink that receives this cache's `plan_cache` probe
    /// events. The stream is the cache's own — plan-cache activity never
    /// enters an engine's query span, whose bytes must not depend on
    /// cache state.
    pub fn set_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.sink.lock().unwrap() = Some(sink);
    }

    /// A snapshot of the cumulative counters, summed over all shards.
    pub fn stats(&self) -> PlanCacheStats {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().stats)
            .fold(PlanCacheStats::default(), |acc, s| acc.merged(&s))
    }

    /// Live plans currently held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan. Returns the number removed. (Plans are
    /// pure functions of their key, so invalidation is never *required* —
    /// this is a memory hook, not a correctness one.)
    pub fn clear(&self) -> usize {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        let mut n = 0;
        for shard in guards.iter_mut() {
            n += shard.map.len();
            shard.map.clear();
        }
        n
    }

    /// The compiled plan for `(query, schema, config)` — served from the
    /// cache when present, compiled (and inserted) when not. The returned
    /// plan is always compatible with the arguments; a fingerprint
    /// collision with an incompatible resident plan is treated as a miss
    /// and the slot is recompiled for the new key.
    pub fn fetch(
        &self,
        query: &Pattern,
        schema: Option<&Schema>,
        config: &EngineConfig,
    ) -> Arc<CompiledQuery> {
        let key = plan_fingerprint(query, schema, config);
        let n = self.shards.len();
        let idx = fnv(&key) as usize % n;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let plan;
        let hit;
        {
            let mut shard = self.shards[idx].lock().unwrap();
            match shard.map.get_mut(&key) {
                Some(entry) if entry.plan.compatible(query, schema, config) => {
                    entry.last_used = tick;
                    plan = Arc::clone(&entry.plan);
                    hit = true;
                }
                resident => {
                    let collision = resident.is_some();
                    let compiled = Arc::new(CompiledQuery::compile(query, schema, config));
                    if self.config.capacity > 0 {
                        if collision {
                            shard.map.remove(&key);
                        }
                        shard.map.insert(
                            key.clone(),
                            PlanEntry {
                                plan: Arc::clone(&compiled),
                                last_used: tick,
                            },
                        );
                    }
                    plan = compiled;
                    hit = false;
                }
            }
            if hit {
                shard.stats.hits += 1;
            } else {
                shard.stats.misses += 1;
                shard.stats.compiles += 1;
            }
            // emitted under the shard lock: probes of one key are totally
            // ordered, so the first probe of a key is always the miss
            self.emit(query, &key, hit);
        }
        if !hit {
            self.evict_to_capacity();
        }
        plan
    }

    fn emit(&self, query: &Pattern, key: &str, hit: bool) {
        let sink = self.sink.lock().unwrap().clone();
        if let Some(sink) = sink {
            sink.emit(&Event {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                sim_ms: 0.0,
                round: 0,
                layer: 0,
                cpu_ms: None,
                kind: EventKind::PlanCacheProbe {
                    query: render(query),
                    key: key.to_string(),
                    hit,
                },
            });
        }
    }

    /// Evicts globally least-recently-used plans until the capacity
    /// holds. Locks every shard in index order (a fixed total order, so
    /// two concurrent evictors cannot deadlock) and picks victims by
    /// global minimum `last_used` — ticks are unique, so the choice is
    /// deterministic.
    fn evict_to_capacity(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        let mut entries: usize = guards.iter().map(|g| g.map.len()).sum();
        if entries <= self.config.capacity {
            return;
        }
        let mut minima: Vec<Option<(u64, String)>> = guards.iter().map(|g| g.lru_min()).collect();
        while entries > self.config.capacity {
            let victim = minima
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.as_ref().map(|(tick, _)| (*tick, i)))
                .min();
            let Some((_, i)) = victim else { return };
            let (_, key) = minima[i].take().expect("victim shard has a minimum");
            guards[i].map.remove(&key).expect("minimum key is present");
            entries -= 1;
            guards[i].stats.evictions += 1;
            minima[i] = guards[i].lru_min();
        }
    }
}

/// FNV-1a over the fingerprint string, for shard placement only (the
/// fingerprint itself is already a hash; this just folds it to an index
/// deterministically across builds).
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_obs::{check_plan_cache, check_trace, RingSink};
    use axml_query::parse_query;
    use axml_schema::figure2_schema;

    fn q(i: usize) -> Pattern {
        parse_query(&format!("/hotels/hotel[rating=\"{i}\"]/name")).unwrap()
    }

    #[test]
    fn first_fetch_compiles_second_reuses() {
        let cache = PlanCache::default();
        let config = EngineConfig::default();
        let a = cache.fetch(&q(1), None, &config);
        let b = cache.fetch(&q(1), None, &config);
        assert!(Arc::ptr_eq(&a, &b), "second fetch must reuse the plan");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles), (1, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_distinguishes_schema_and_compile_relevant_config() {
        let cache = PlanCache::default();
        let config = EngineConfig::default();
        let schema = figure2_schema();
        let plain = cache.fetch(&q(1), None, &config);
        let typed = cache.fetch(&q(1), Some(&schema), &config);
        assert!(!Arc::ptr_eq(&plain, &typed));
        let mut relaxed = config.clone();
        relaxed.relax_xpath = true;
        let rel = cache.fetch(&q(1), None, &relaxed);
        assert!(!Arc::ptr_eq(&plain, &rel));
        // runtime-only knobs share the plan
        let mut runtime = config.clone();
        runtime.parallel = false;
        let same = cache.fetch(&q(1), None, &runtime);
        assert!(Arc::ptr_eq(&plain, &same));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_under_capacity() {
        let cache = PlanCache::new(PlanCacheConfig {
            capacity: 2,
            shards: 4,
        });
        let config = EngineConfig::default();
        cache.fetch(&q(1), None, &config);
        cache.fetch(&q(2), None, &config);
        cache.fetch(&q(1), None, &config); // touch 1 → 2 becomes LRU
        cache.fetch(&q(3), None, &config);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // q2 was evicted: fetching it again compiles (and evicts q1, now
        // the least recently used of {q1, q3})
        cache.fetch(&q(2), None, &config);
        assert_eq!(cache.stats().compiles, 4);
        // q3 survived both evictions
        let before = cache.stats().compiles;
        cache.fetch(&q(3), None, &config);
        assert_eq!(cache.stats().compiles, before);
    }

    #[test]
    fn zero_capacity_disables_reuse_but_stays_correct() {
        let cache = PlanCache::new(PlanCacheConfig::with_capacity(0));
        let config = EngineConfig::default();
        let a = cache.fetch(&q(1), None, &config);
        let b = cache.fetch(&q(1), None, &config);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(a.compatible(&q(1), None, &config));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn probe_events_satisfy_the_oracle() {
        let cache = PlanCache::default();
        let sink = Arc::new(RingSink::unbounded());
        cache.set_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let config = EngineConfig::default();
        cache.fetch(&q(1), None, &config);
        cache.fetch(&q(1), None, &config);
        cache.fetch(&q(2), None, &config);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        let vs = check_trace(&events);
        assert!(vs.is_empty(), "{vs:?}");
        let s = cache.stats();
        let vs = check_plan_cache(&events, s.hits as usize, s.misses as usize);
        assert!(vs.is_empty(), "{vs:?}");
        // a wrong counter is caught
        assert!(!check_plan_cache(&events, 0, 3).is_empty());
    }

    #[test]
    fn concurrent_fetches_converge_on_one_plan() {
        let cache = Arc::new(PlanCache::default());
        let config = EngineConfig::default();
        let plans: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let config = config.clone();
                    s.spawn(move || cache.fetch(&q(1), None, &config))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // all compatible; after the first insert, later fetches share it
        for p in &plans {
            assert!(p.compatible(&q(1), None, &config));
        }
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
    }
}
