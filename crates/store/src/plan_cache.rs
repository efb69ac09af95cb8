//! The cross-session compiled-plan cache: `(query, schema, config)` →
//! [`CompiledQuery`], so a query's NFQs, layers, label automata and
//! bytecode are compiled **once per store** and every later session pays
//! only a label-test binding per document.
//!
//! Correctness does not depend on the cache: a cached plan is attached to
//! an engine via [`axml_core::Engine::with_plan`], and a run uses it only
//! when [`CompiledQuery::compatible`] confirms the exact compile-relevant
//! key — a stale or mismatched plan is ignored, never misapplied, and the
//! run compiles its own. Query answers, traces and statistics are
//! byte-identical with the cache on or off (pinned by the plan-equivalence
//! oracle and the golden-trace tests); the cache changes *when* the
//! compile work happens, not *what* is computed.
//!
//! A session fetches its plan once per query, so one mutex guards the
//! map, the LRU ticks and the counters. Probes emit
//! [`EventKind::PlanCacheProbe`] events into the cache's own sink — never
//! into an engine's query span, which must not change with cache state.
//! An event names its plan by [`plan_fingerprint`], which the cache
//! renders only for a probe it emits, and keeps beside the plan once
//! rendered: with no sink attached a fetch renders nothing.

use axml_core::{plan_fingerprint, plan_hash, CompiledQuery, EngineConfig};
use axml_obs::{Event, EventKind, TraceSink};
use axml_query::{render, Pattern};
use axml_schema::Schema;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration of a [`PlanCache`].
#[derive(Clone, Debug)]
pub struct PlanCacheConfig {
    /// Maximum number of cached plans before LRU eviction (default 64).
    /// A capacity of 0 disables caching: every fetch compiles (still
    /// correct, never reused).
    pub capacity: usize,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig { capacity: 64 }
    }
}

impl PlanCacheConfig {
    /// A config with the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCacheConfig { capacity }
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
    /// key-hash collision with an incompatible resident plan).
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

    /// Component-wise sum (folds the counters of several caches).
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
    /// The plan's [`plan_fingerprint`], the name its probe events carry;
    /// `None` until a probe of the plan is emitted.
    fingerprint: Option<String>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, PlanEntry>,
    tick: u64,
    seq: u64,
    stats: PlanCacheStats,
}

impl Inner {
    /// Evicts least-recently-used plans until at most `capacity` remain.
    /// Ticks are unique, so the victim is deterministic.
    fn evict_to(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(key) = victim else { return };
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

/// A shared, internally synchronized cache of [`CompiledQuery`] plans,
/// keyed by the structural hash of the compile-relevant plan key
/// ([`plan_hash`]). See the module docs.
pub struct PlanCache {
    config: PlanCacheConfig,
    inner: Mutex<Inner>,
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
        PlanCache {
            config,
            inner: Mutex::new(Inner::default()),
            sink: Mutex::new(None),
        }
    }

    /// The configuration this cache enforces.
    pub fn config(&self) -> &PlanCacheConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    /// Attaches the sink that receives this cache's `plan_cache` probe
    /// events. The stream is the cache's own — plan-cache activity never
    /// enters an engine's query span, whose bytes must not depend on
    /// cache state.
    pub fn set_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.sink.lock().unwrap() = Some(sink);
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    /// Live plans currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan. Returns the number removed. (Plans are
    /// pure functions of their key, so invalidation is never *required* —
    /// this is a memory hook, not a correctness one.)
    pub fn clear(&self) -> usize {
        let mut inner = self.lock();
        let n = inner.map.len();
        inner.map.clear();
        n
    }

    /// The compiled plan for `(query, schema, config)` — served from the
    /// cache when present, compiled (and inserted) when not. The returned
    /// plan is always compatible with the arguments; a key-hash collision
    /// with an incompatible resident plan is treated as a miss and the
    /// slot is recompiled for the new key.
    pub fn fetch(
        &self,
        query: &Pattern,
        schema: Option<&Schema>,
        config: &EngineConfig,
    ) -> Arc<CompiledQuery> {
        let key = plan_hash(query, schema, config);
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        // probes are emitted under the lock: they are totally ordered, so
        // the first probe of a key is always the miss
        if let Some(entry) = inner
            .map
            .get_mut(&key)
            .filter(|e| e.plan.compatible(query, schema, config))
        {
            entry.last_used = inner.tick;
            inner.stats.hits += 1;
            self.emit(&mut inner.seq, query, true, || {
                entry
                    .fingerprint
                    .get_or_insert_with(|| plan_fingerprint(query, schema, config))
                    .clone()
            });
            return Arc::clone(&entry.plan);
        }
        inner.stats.misses += 1;
        inner.stats.compiles += 1;
        let plan = Arc::new(CompiledQuery::compile(query, schema, config));
        let mut fingerprint = None;
        self.emit(&mut inner.seq, query, false, || {
            fingerprint
                .insert(plan_fingerprint(query, schema, config))
                .clone()
        });
        if self.config.capacity > 0 {
            // replaces an incompatible resident plan on a collision
            inner.map.insert(
                key,
                PlanEntry {
                    plan: Arc::clone(&plan),
                    fingerprint,
                    last_used: inner.tick,
                },
            );
            inner.evict_to(self.config.capacity);
        }
        plan
    }

    /// Emits a probe event when a sink is attached; `key` renders the
    /// plan's fingerprint and is called only then.
    fn emit(&self, seq: &mut u64, query: &Pattern, hit: bool, key: impl FnOnce() -> String) {
        let sink = self.sink.lock().unwrap().clone();
        if let Some(sink) = sink {
            sink.emit(&Event {
                seq: *seq,
                sim_ms: 0.0,
                round: 0,
                layer: 0,
                cpu_ms: None,
                kind: EventKind::PlanCacheProbe {
                    query: render(query),
                    key: key(),
                    hit,
                },
            });
            *seq += 1;
        }
    }
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
        let cache = PlanCache::new(PlanCacheConfig::with_capacity(2));
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
    fn probes_report_the_plan_fingerprint_on_miss_and_hit() {
        let cache = PlanCache::default();
        let sink = Arc::new(RingSink::unbounded());
        cache.set_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let config = EngineConfig::default();
        let schema = figure2_schema();
        for s in [None, Some(&schema)] {
            cache.fetch(&q(1), s, &config);
            cache.fetch(&q(1), s, &config);
        }
        let probes: Vec<(String, bool)> = sink
            .events()
            .into_iter()
            .map(|e| match e.kind {
                EventKind::PlanCacheProbe { key, hit, .. } => (key, hit),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let none = axml_core::plan_fingerprint(&q(1), None, &config);
        let typed = axml_core::plan_fingerprint(&q(1), Some(&schema), &config);
        // the bytes traces carry for these keys
        assert_eq!(
            (none.as_str(), typed.as_str()),
            ("e84bd93ae6658945", "aa2b4574c42104e5")
        );
        assert_eq!(
            probes,
            vec![
                (none.clone(), false),
                (none, true),
                (typed.clone(), false),
                (typed, true)
            ]
        );
    }

    #[test]
    fn a_sink_attached_after_the_miss_sees_the_fingerprint_on_the_hit() {
        let cache = PlanCache::default();
        let config = EngineConfig::default();
        cache.fetch(&q(1), None, &config);
        let sink = Arc::new(RingSink::unbounded());
        cache.set_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        cache.fetch(&q(1), None, &config);
        cache.fetch(&q(1), None, &config);
        let keys: Vec<(String, bool)> = sink
            .events()
            .into_iter()
            .map(|e| match e.kind {
                EventKind::PlanCacheProbe { key, hit, .. } => (key, hit),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let fingerprint = axml_core::plan_fingerprint(&q(1), None, &config);
        assert_eq!(keys, vec![(fingerprint.clone(), true), (fingerprint, true)]);
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
