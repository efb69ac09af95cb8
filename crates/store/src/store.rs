//! The long-lived document store: named AXML documents that survive
//! across queries, sharing one [`CallCache`] so work done answering one
//! query pays for the next.
//!
//! Documents are held as [`VersionedDocument`]s — atomically published
//! copy-on-write versions — so any number of sessions can read (and,
//! in persistent mode, publish) concurrently with snapshot isolation:
//! a reader sees exactly the version that was current when it took its
//! snapshot, never a partially applied splice.

use crate::cache::{CacheConfig, CallCache};
use crate::checkpoint::DurabilityOptions;
use crate::plan_cache::{PlanCache, PlanCacheConfig};
use crate::recover::{recover_dir, RecoveryReport};
use crate::session::{Session, SessionOptions};
use crate::wal::{DocTap, DurabilityManager, LogDir, WalError};
use axml_schema::Schema;
use axml_services::Registry;
use axml_xml::{DocSnapshot, Document, VersionedDocument};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A collection of named AXML documents plus the call-result cache they
/// share. Documents are owned by the store and survive across queries —
/// the peer/repository side of the paper's setting, where the same
/// document answers a stream of queries over time.
#[derive(Default)]
pub struct DocumentStore {
    docs: BTreeMap<String, Arc<VersionedDocument>>,
    cache: Arc<CallCache>,
    plans: Arc<PlanCache>,
    wal: Option<Arc<DurabilityManager>>,
    recovered_watermarks: BTreeMap<String, BTreeMap<String, u64>>,
}

impl DocumentStore {
    /// An empty store with the default cache configuration.
    pub fn new() -> Self {
        DocumentStore::default()
    }

    /// An empty store whose shared cache uses `config`.
    pub fn with_cache_config(config: CacheConfig) -> Self {
        DocumentStore {
            cache: Arc::new(CallCache::new(config)),
            ..DocumentStore::default()
        }
    }

    /// An empty store with explicit call-cache and plan-cache configs.
    pub fn with_configs(cache: CacheConfig, plans: PlanCacheConfig) -> Self {
        DocumentStore {
            cache: Arc::new(CallCache::new(cache)),
            plans: Arc::new(PlanCache::new(plans)),
            ..DocumentStore::default()
        }
    }

    /// A durable store: every document inserted from now on keeps a
    /// write-ahead log of its publications in `dir` (initial checkpoint,
    /// then one record per publish, periodic checkpoints per `options`).
    pub fn durable(dir: Box<dyn LogDir>, options: DurabilityOptions) -> Self {
        Self::durable_with_configs(
            dir,
            options,
            CacheConfig::default(),
            PlanCacheConfig::default(),
        )
    }

    /// [`DocumentStore::durable`] with explicit cache configurations.
    pub fn durable_with_configs(
        dir: Box<dyn LogDir>,
        options: DurabilityOptions,
        cache: CacheConfig,
        plans: PlanCacheConfig,
    ) -> Self {
        DocumentStore {
            wal: Some(DurabilityManager::new(dir, options)),
            ..Self::with_configs(cache, plans)
        }
    }

    /// Recovers a durable store from the write-ahead logs in `dir`:
    /// scans each log's CRC-valid prefix, truncates any torn tail,
    /// replays splices atop the newest intact checkpoint, and re-publishes
    /// each document at its recovered version. The returned report lists
    /// per-document outcomes (including unrecoverable logs, which are
    /// skipped, and persisted subscription watermarks for re-anchoring).
    ///
    /// The recovered store is itself durable: new publications continue
    /// appending to the (truncated) logs under the same policy.
    pub fn recover(
        dir: Box<dyn LogDir>,
        options: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), WalError> {
        Self::recover_with_configs(
            dir,
            options,
            CacheConfig::default(),
            PlanCacheConfig::default(),
        )
    }

    /// [`DocumentStore::recover`] with explicit cache configurations.
    pub fn recover_with_configs(
        dir: Box<dyn LogDir>,
        options: DurabilityOptions,
        cache: CacheConfig,
        plans: PlanCacheConfig,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let recovered = recover_dir(dir.as_ref())?;
        let manager = DurabilityManager::new(dir, options);
        let mut store = DocumentStore {
            wal: Some(Arc::clone(&manager)),
            ..Self::with_configs(cache, plans)
        };
        let mut report = RecoveryReport::default();
        for rec in recovered {
            if let Some(mut doc) = rec.doc {
                doc.enable_splice_journal();
                let file = manager.dir().open_append(&rec.file)?;
                manager.adopt_recovered(&rec.name, file, rec.version, rec.records_since_checkpoint);
                manager.emit_recovery(
                    &rec.name,
                    rec.version,
                    rec.report.frames,
                    rec.report.splices_replayed,
                    rec.report.truncated_at.is_some(),
                );
                let versioned = Arc::new(VersionedDocument::new_at(doc, rec.version));
                versioned.set_tap(Arc::new(DocTap::new(Arc::clone(&manager), &rec.name)));
                store.docs.insert(rec.name.clone(), versioned);
                store
                    .recovered_watermarks
                    .insert(rec.name.clone(), rec.report.watermarks.clone());
            }
            report.docs.push(rec.report);
        }
        Ok((store, report))
    }

    /// The durability manager, when this store was opened durable.
    pub fn durability(&self) -> Option<&Arc<DurabilityManager>> {
        self.wal.as_ref()
    }

    /// A subscription watermark persisted in `doc`'s log before the last
    /// crash, if the store was just recovered. Subscriptions re-anchor
    /// here: when the watermark is older than the recovered log can
    /// serve, catch-up soundly degrades to a full re-evaluation.
    pub fn recovered_watermark(&self, doc: &str, subscription: &str) -> Option<u64> {
        self.recovered_watermarks
            .get(doc)?
            .get(subscription)
            .copied()
    }

    /// Adds (or replaces) a document under `name` (as version 0 of a
    /// fresh version chain). Returns the previously published document
    /// stored under that name, if any.
    ///
    /// On a durable store this also starts the document's write-ahead
    /// log (header + initial checkpoint, synced before this returns) and
    /// enables its splice journal so publications log compact splice
    /// records. A log that cannot be created is recorded as a sticky
    /// failure on [`DurabilityManager::failure`] rather than panicking —
    /// the document still works, it just is not durable.
    pub fn insert(&mut self, name: impl Into<String>, doc: Document) -> Option<Document> {
        let name = name.into();
        let mut doc = doc;
        let versioned = if let Some(wal) = &self.wal {
            doc.enable_splice_journal();
            let _ = wal.attach_new_doc(&name, &doc, 0);
            let versioned = Arc::new(VersionedDocument::new(doc));
            versioned.set_tap(Arc::new(DocTap::new(Arc::clone(wal), &name)));
            versioned
        } else {
            Arc::new(VersionedDocument::new(doc))
        };
        self.docs
            .insert(name, versioned)
            .map(|v| v.snapshot().to_document())
    }

    /// Removes the document stored under `name`, returning its currently
    /// published version.
    pub fn remove(&mut self, name: &str) -> Option<Document> {
        self.docs.remove(name).map(|v| v.snapshot().to_document())
    }

    /// A frozen snapshot of the currently published version of the
    /// document stored under `name`.
    pub fn get(&self, name: &str) -> Option<DocSnapshot> {
        self.docs.get(name).map(|v| v.snapshot())
    }

    /// The version chain stored under `name` — the handle concurrent
    /// sessions share. Snapshot it to read; publish to it to write.
    pub fn versioned(&self, name: &str) -> Option<&Arc<VersionedDocument>> {
        self.docs.get(name)
    }

    /// The names of all stored documents, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.docs.keys().map(|s| s.as_str()).collect()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The shared call-result cache.
    pub fn cache(&self) -> &Arc<CallCache> {
        &self.cache
    }

    /// The shared compiled-plan cache. Every session opened through
    /// [`DocumentStore::session`] fetches its compiled query plans from
    /// it.
    pub fn plans(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// Enables publication-history retention on the document stored under
    /// `name` (see [`VersionedDocument::enable_history`]) so subscribers
    /// can catch up on missed splices from their own watermarks. Returns
    /// `false` when no document is stored under that name.
    pub fn watch(&self, name: &str, history_capacity: usize) -> bool {
        match self.docs.get(name) {
            Some(v) => {
                v.enable_history(history_capacity);
                true
            }
            None => false,
        }
    }

    /// Opens a [`Session`] over the document stored under `name`: a
    /// stream of queries evaluated against the document with the store's
    /// shared cache and a simulated clock that persists between queries.
    /// Returns `None` if no document is stored under `name`.
    ///
    /// Takes `&self`: sessions do not borrow the document exclusively, so
    /// any number can be open (and running, on different threads) at once.
    pub fn session<'a>(
        &self,
        name: &str,
        registry: &'a Registry,
        schema: Option<&'a Schema>,
        options: SessionOptions,
    ) -> Option<Session<'a>> {
        let doc = Arc::clone(self.docs.get(name)?);
        let cache = Arc::clone(&self.cache);
        let plans = Arc::clone(&self.plans);
        Some(Session::new(doc, registry, schema, cache, plans, options))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_names_remove() {
        let mut store = DocumentStore::new();
        assert!(store.is_empty());
        store.insert("a", Document::with_root("a"));
        store.insert("b", Document::with_root("b"));
        assert_eq!(store.names(), ["a", "b"]);
        assert_eq!(store.len(), 2);
        assert_eq!(
            store
                .get("a")
                .unwrap()
                .label(store.get("a").unwrap().root()),
            "a"
        );
        assert!(store.versioned("b").is_some());
        let old = store.insert("a", Document::with_root("a2"));
        assert!(old.is_some());
        assert!(store.remove("b").is_some());
        assert_eq!(store.names(), ["a"]);
        assert!(store.get("missing").is_none());
    }

    #[test]
    fn published_versions_are_visible_through_get() {
        let mut store = DocumentStore::new();
        store.insert("a", Document::with_root("a"));
        let v = Arc::clone(store.versioned("a").unwrap());
        let before = store.get("a").unwrap();
        let mut work = before.to_document();
        work.add_element(work.root(), "child");
        v.publish(work);
        assert!(before.children(before.root()).is_empty());
        let after = store.get("a").unwrap();
        assert_eq!(after.children(after.root()).len(), 1);
        assert_eq!(after.version(), before.version() + 1);
    }
}
