//! The reference call cache: `axml_store::CallCache`'s semantics written
//! as plainly as possible, kept as the executable specification the
//! production cache is tested against. Under identical event sequences
//! both make identical hit/miss/stale/LRU/purge decisions. Built on the
//! store's public API only: `CacheConfig`'s fields, `CacheStats`, the
//! same key ([`CallKey`]) and the same entry size (the outcome's measured
//! bytes).

use axml_services::{CacheLookup, CachedCall, CallKey, InvokeCache, InvokeOutcome};
use axml_store::{CacheConfig, CacheStats};
use axml_xml::Forest;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
    map: HashMap<CallKey, Entry>,
    total_bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl Inner {
    fn remove(&mut self, key: &CallKey) -> Option<Entry> {
        let e = self.map.remove(key)?;
        self.total_bytes -= e.size_bytes;
        Some(e)
    }

    /// Removes every entry expired at `now_ms`, counting invalidations.
    fn purge(&mut self, now_ms: f64) -> usize {
        let keys: Vec<CallKey> = self
            .map
            .iter()
            .filter(|(_, e)| e.expires_at_ms <= now_ms)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &keys {
            self.remove(k);
        }
        self.stats.invalidations += keys.len() as u64;
        keys.len()
    }

    /// Evicts least-recently-used entries until the budgets hold.
    /// Deterministic: `last_used` ticks are unique, so the victim order
    /// does not depend on hash-map iteration order.
    fn evict_to_budget(&mut self, max_entries: usize, max_bytes: usize) {
        while self.map.len() > max_entries || self.total_bytes > max_bytes {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            self.remove(&k);
            self.stats.evictions += 1;
        }
    }
}

/// A call cache behind one mutex, with a standard hash map.
pub struct SingleLockCache {
    config: CacheConfig,
    inner: Mutex<Inner>,
}

impl SingleLockCache {
    pub fn new(config: CacheConfig) -> Self {
        SingleLockCache {
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn total_bytes(&self) -> usize {
        self.inner.lock().unwrap().total_bytes
    }

    /// Drops entries expired at simulated time `now_ms`; returns how many.
    pub fn purge_expired(&self, now_ms: f64) -> usize {
        self.inner.lock().unwrap().purge(now_ms)
    }
}

impl InvokeCache for SingleLockCache {
    fn lookup(&self, key: &CallKey, now_ms: f64) -> CacheLookup {
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner.map.get(key) else {
            inner.stats.misses += 1;
            return CacheLookup::Miss;
        };
        if entry.expires_at_ms <= now_ms {
            inner.remove(key);
            inner.stats.stale += 1;
            return CacheLookup::Stale;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key).expect("entry just probed");
        entry.last_used = tick;
        let hit = CachedCall {
            result: Arc::clone(&entry.result),
            bytes: entry.bytes,
            pushed: entry.pushed,
            age_ms: now_ms - entry.inserted_at_ms,
            expires_at_ms: entry.expires_at_ms,
        };
        inner.stats.hits += 1;
        CacheLookup::Hit(hit)
    }

    fn store(&self, key: &CallKey, outcome: &InvokeOutcome, now_ms: f64) -> f64 {
        let ttl = self
            .config
            .ttl_overrides
            .get(key.service())
            .copied()
            .unwrap_or(self.config.default_ttl_ms);
        if ttl <= 0.0 {
            return now_ms; // caching disabled for this service
        }
        let size_bytes = outcome.bytes;
        if size_bytes > self.config.max_bytes {
            return now_ms; // a single over-budget result would evict everything
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let entry = Entry {
            result: Arc::clone(&outcome.result),
            bytes: outcome.bytes,
            size_bytes,
            pushed: outcome.pushed,
            inserted_at_ms: now_ms,
            expires_at_ms: now_ms + ttl,
            last_used: inner.tick,
        };
        // a replacement supersedes the old window
        inner.remove(key);
        inner.total_bytes += entry.size_bytes;
        inner.map.insert(key.clone(), entry);
        inner.stats.insertions += 1;
        inner.evict_to_budget(self.config.max_entries, self.config.max_bytes);
        now_ms + ttl
    }
}
