//! Versioned documents: atomically published copy-on-write snapshots.
//!
//! The serving layer (`axml-store`) wants N concurrent sessions reading one
//! shared document while splices land. [`VersionedDocument`] provides
//! snapshot isolation for that setting: readers take a [`DocSnapshot`] — an
//! `Arc` to a frozen [`Document`] version — and writers *publish* a whole
//! new version instead of mutating in place. A reader therefore never
//! observes a partially applied splice: it sees exactly the version that
//! was current when it called [`VersionedDocument::snapshot`], for as long
//! as it holds the snapshot.
//!
//! Publication is last-writer-wins by default ([`VersionedDocument::publish`]);
//! [`VersionedDocument::publish_if`] is the compare-and-swap variant for
//! writers that must not clobber a version they have not seen. Thanks to the
//! paged copy-on-write arena (see [`crate::tree`]), turning a snapshot into
//! a private working copy is cheap: `snapshot.to_document()` copies page
//! pointers, and the working copy pays only for the pages it touches.

use crate::tree::{Document, SpliceOp};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock};

/// What one publication looked like, as seen by a [`PublicationTap`]:
/// the freshly assigned version, the frozen document, and — when
/// available — the change scope and the splice delta since the previous
/// version. `splices: None` means the delta is unknown (the working copy
/// was mutated outside [`Document::splice_call`], or journaling is off),
/// so a durability layer must persist the whole document instead.
#[derive(Debug)]
pub struct Publication<'a> {
    /// The version number this publication produced.
    pub version: u64,
    /// The document at that version.
    pub doc: &'a Document,
    /// Label paths the publication changed (`None` = unknown scope).
    pub changed_paths: Option<&'a [Vec<String>]>,
    /// The splices that turned the previous version into this one, in
    /// application order (`None` = unknown delta).
    pub splices: Option<&'a [SpliceOp]>,
}

/// A write-ahead observer of publications. The tap runs *inside* the
/// publication critical section, before the new version becomes visible
/// to any reader: whatever the tap persists is therefore ordered strictly
/// before every read of the version it describes. Taps must not publish
/// to the same document (deadlock) and should be quick — every publisher
/// serializes behind them.
pub trait PublicationTap: Send + Sync {
    /// Called once per publication, in version order.
    fn on_publish(&self, publication: &Publication<'_>);
}

/// A frozen version of a document: cheap to clone, never changes, stays
/// readable even after newer versions are published.
#[derive(Clone, Debug)]
pub struct DocSnapshot {
    version: u64,
    doc: Arc<Document>,
}

impl DocSnapshot {
    /// The version number this snapshot captured (0 is the initial
    /// document; every publication increments it by one).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The frozen document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// A private, mutable working copy of the frozen document. Copy-on-
    /// write: the copy shares pages with the snapshot until it writes.
    pub fn to_document(&self) -> Document {
        (*self.doc).clone()
    }
}

impl std::ops::Deref for DocSnapshot {
    type Target = Document;

    fn deref(&self) -> &Document {
        &self.doc
    }
}

/// One retained publication on a [`VersionedDocument`]'s history ring:
/// the published version, its frozen document, and — when the writer
/// used a `*_tagged` publish — the label paths (root → changed node) the
/// publication touched. `changed_paths: None` means the scope of the
/// change is unknown, so consumers must assume everything may have
/// changed.
#[derive(Clone, Debug)]
pub struct PublicationRecord {
    /// The version number this publication produced.
    pub version: u64,
    /// The frozen document at that version.
    pub doc: Arc<Document>,
    /// Label paths the publication changed (`None` = unknown scope).
    pub changed_paths: Option<Vec<Vec<String>>>,
}

/// What a subscriber catching up from a watermark gets back: either
/// every publication it missed, in order, or — when the bounded history
/// ring already evicted some of them — a degradation signal carrying the
/// current snapshot, so the subscriber can fall back to a sound full
/// re-evaluation. Eviction never loses soundness, only incrementality.
#[derive(Clone, Debug)]
pub enum CatchUp {
    /// Every publication with version > the watermark, oldest first.
    Records(Vec<PublicationRecord>),
    /// The ring evicted publications the subscriber has not seen; resync
    /// from this snapshot of the current version.
    Degraded(DocSnapshot),
}

/// The bounded publication-history ring (disabled until a subscriber
/// calls [`VersionedDocument::enable_history`]). `floor` is the oldest
/// version whose *successor publications* are all still retained: a
/// watermark `< floor` cannot be caught up from records.
#[derive(Debug, Default)]
struct History {
    capacity: usize,
    floor: u64,
    entries: VecDeque<PublicationRecord>,
}

impl History {
    fn record(&mut self, rec: PublicationRecord) {
        if self.capacity == 0 {
            // retention disabled: every publication is immediately
            // evicted, so no watermark below it can ever catch up
            self.floor = rec.version;
            return;
        }
        if self.entries.len() == self.capacity {
            if let Some(evicted) = self.entries.pop_front() {
                // a watermark below the evicted version can no longer be
                // served from records
                self.floor = evicted.version;
            }
        }
        self.entries.push_back(rec);
    }
}

/// A document published in versions: reads are snapshots, writes are
/// atomic whole-version publications.
///
/// With [`VersionedDocument::enable_history`] the document additionally
/// retains a bounded ring of recent publications, each optionally tagged
/// with the label paths it changed, so any number of subscribers can
/// replay the splice stream from their own watermarks
/// ([`VersionedDocument::publications_since`]) — degrading soundly to a
/// full-resync signal when the ring has evicted what they missed.
pub struct VersionedDocument {
    current: RwLock<(u64, Arc<Document>)>,
    // lock order: `history` is only ever taken while holding `current`'s
    // write lock (publication) or nothing (catch-up); never the reverse.
    history: Mutex<History>,
    // read while holding `current`'s write lock; set at wiring time
    tap: Mutex<Option<Arc<dyn PublicationTap>>>,
}

impl std::fmt::Debug for VersionedDocument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.current.read().expect("versioned document poisoned");
        f.debug_struct("VersionedDocument")
            .field("version", &g.0)
            .field("nodes", &g.1.len())
            .finish_non_exhaustive()
    }
}

impl VersionedDocument {
    /// Wraps `doc` as version 0 (history disabled).
    pub fn new(doc: Document) -> Self {
        Self::new_at(doc, 0)
    }

    /// Wraps `doc` at an explicit starting version — recovery rebuilds a
    /// document chain that continues where the persisted log ended
    /// instead of restarting at 0.
    pub fn new_at(doc: Document, version: u64) -> Self {
        VersionedDocument {
            current: RwLock::new((version, Arc::new(doc))),
            history: Mutex::new(History {
                floor: version,
                ..History::default()
            }),
            tap: Mutex::new(None),
        }
    }

    /// Attaches the write-ahead publication tap (replacing any previous
    /// one). See [`PublicationTap`] for the ordering guarantee.
    pub fn set_tap(&self, tap: Arc<dyn PublicationTap>) {
        *self.tap.lock().expect("publication tap poisoned") = Some(tap);
    }

    /// Starts retaining the last `capacity` publications for subscriber
    /// catch-up. Only publications made *after* this call are retained;
    /// the floor starts at the current version, so watermarks at or above
    /// it can be served from records. `capacity == 0` disables retention
    /// again (future catch-ups degrade).
    pub fn enable_history(&self, capacity: usize) {
        let g = self.current.read().expect("versioned document poisoned");
        let mut h = self.history.lock().expect("publication history poisoned");
        h.capacity = capacity;
        h.floor = g.0;
        h.entries.clear();
    }

    /// The oldest watermark that [`VersionedDocument::publications_since`]
    /// can still serve from retained records (subscribers below it get
    /// [`CatchUp::Degraded`]).
    pub fn history_floor(&self) -> u64 {
        self.history
            .lock()
            .expect("publication history poisoned")
            .floor
    }

    /// The currently published version, as a frozen snapshot.
    pub fn snapshot(&self) -> DocSnapshot {
        let g = self.current.read().expect("versioned document poisoned");
        DocSnapshot {
            version: g.0,
            doc: Arc::clone(&g.1),
        }
    }

    /// The current version number.
    pub fn version(&self) -> u64 {
        self.current.read().expect("versioned document poisoned").0
    }

    /// Publishes `doc` as the next version unconditionally (last writer
    /// wins) and returns the new version number. Existing snapshots are
    /// unaffected; future [`VersionedDocument::snapshot`] calls see `doc`.
    /// The publication is retained with unknown change scope.
    pub fn publish(&self, doc: Document) -> u64 {
        self.publish_tagged(doc, None)
    }

    /// [`VersionedDocument::publish`] with an explicit change scope: the
    /// label paths (root → changed node) this publication touched, which
    /// subscribers use to skip versions provably outside their queries.
    pub fn publish_tagged(&self, doc: Document, changed_paths: Option<Vec<Vec<String>>>) -> u64 {
        let mut doc = doc;
        let splices = doc.take_splice_journal();
        let mut g = self.current.write().expect("versioned document poisoned");
        g.0 += 1;
        g.1 = Arc::new(doc);
        self.tap_locked(g.0, &g.1, changed_paths.as_deref(), splices.as_deref());
        self.record_locked(g.0, &g.1, changed_paths);
        g.0
    }

    /// Publishes `doc` only if the current version is still
    /// `base_version` (i.e. nobody published since the writer's snapshot).
    /// Returns the new version on success, or the current (conflicting)
    /// version as `Err` so the writer can re-snapshot and retry.
    /// The publication is retained with unknown change scope.
    pub fn publish_if(&self, base_version: u64, doc: Document) -> Result<u64, u64> {
        self.publish_if_tagged(base_version, doc, None)
    }

    /// [`VersionedDocument::publish_if`] with an explicit change scope
    /// (see [`VersionedDocument::publish_tagged`]).
    pub fn publish_if_tagged(
        &self,
        base_version: u64,
        doc: Document,
        changed_paths: Option<Vec<Vec<String>>>,
    ) -> Result<u64, u64> {
        let mut doc = doc;
        let mut g = self.current.write().expect("versioned document poisoned");
        if g.0 != base_version {
            return Err(g.0);
        }
        let splices = doc.take_splice_journal();
        g.0 += 1;
        g.1 = Arc::new(doc);
        self.tap_locked(g.0, &g.1, changed_paths.as_deref(), splices.as_deref());
        self.record_locked(g.0, &g.1, changed_paths);
        Ok(g.0)
    }

    /// Runs the write-ahead tap inside the publication critical section:
    /// the version the tap sees is not yet visible to any reader.
    fn tap_locked(
        &self,
        version: u64,
        doc: &Arc<Document>,
        changed_paths: Option<&[Vec<String>]>,
        splices: Option<&[SpliceOp]>,
    ) {
        let tap = self.tap.lock().expect("publication tap poisoned").clone();
        if let Some(tap) = tap {
            tap.on_publish(&Publication {
                version,
                doc,
                changed_paths,
                splices,
            });
        }
    }

    fn record_locked(&self, version: u64, doc: &Arc<Document>, paths: Option<Vec<Vec<String>>>) {
        let mut h = self.history.lock().expect("publication history poisoned");
        h.record(PublicationRecord {
            version,
            doc: Arc::clone(doc),
            changed_paths: paths,
        });
    }

    /// Every retained publication with version strictly greater than
    /// `watermark`, oldest first — or [`CatchUp::Degraded`] when the ring
    /// has already evicted publications the subscriber missed (watermark
    /// below the history floor), in which case the subscriber must resync
    /// from the carried snapshot. A watermark at the current version
    /// yields an empty record list (nothing to catch up).
    pub fn publications_since(&self, watermark: u64) -> CatchUp {
        let h = self.history.lock().expect("publication history poisoned");
        if watermark < h.floor {
            drop(h);
            return CatchUp::Degraded(self.snapshot());
        }
        CatchUp::Records(
            h.entries
                .iter()
                .filter(|r| r.version > watermark)
                .cloned()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(label: &str) -> Document {
        Document::with_root(label)
    }

    #[test]
    fn snapshots_are_frozen_across_publications() {
        let v = VersionedDocument::new(doc("a"));
        let s0 = v.snapshot();
        assert_eq!(s0.version(), 0);
        assert_eq!(s0.label(s0.root()), "a");

        let v1 = v.publish(doc("b"));
        assert_eq!(v1, 1);
        // the old snapshot still reads version 0
        assert_eq!(s0.label(s0.root()), "a");
        let s1 = v.snapshot();
        assert_eq!(s1.version(), 1);
        assert_eq!(s1.label(s1.root()), "b");
    }

    #[test]
    fn publish_if_detects_conflicts() {
        let v = VersionedDocument::new(doc("a"));
        let base = v.snapshot().version();
        assert_eq!(v.publish_if(base, doc("b")), Ok(1));
        // a writer still holding version 0 loses
        assert_eq!(v.publish_if(base, doc("c")), Err(1));
        assert_eq!(v.snapshot().label(v.snapshot().root()), "b");
    }

    #[test]
    fn working_copies_do_not_leak_into_published_versions() {
        let v = VersionedDocument::new(doc("a"));
        let snap = v.snapshot();
        let mut work = snap.to_document();
        work.add_element(work.root(), "child");
        // not yet published: readers still see the bare root
        assert!(v.snapshot().children(v.snapshot().root()).is_empty());
        v.publish(work);
        assert_eq!(v.snapshot().children(v.snapshot().root()).len(), 1);
    }

    #[test]
    fn history_replays_publications_from_a_watermark() {
        let v = VersionedDocument::new(doc("r"));
        v.enable_history(8);
        v.publish_tagged(doc("a"), Some(vec![vec!["r".into(), "a".into()]]));
        v.publish(doc("b")); // unknown scope
        let CatchUp::Records(recs) = v.publications_since(0) else {
            panic!("watermark 0 is at the floor; no degradation expected");
        };
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].version, 1);
        assert_eq!(
            recs[0].changed_paths,
            Some(vec![vec!["r".to_string(), "a".to_string()]])
        );
        assert_eq!(recs[0].doc.label(recs[0].doc.root()), "a");
        assert_eq!(recs[1].version, 2);
        assert_eq!(recs[1].changed_paths, None);
        // a caught-up subscriber gets nothing
        let CatchUp::Records(recs) = v.publications_since(2) else {
            panic!("caught-up watermark must not degrade");
        };
        assert!(recs.is_empty());
    }

    #[test]
    fn history_eviction_degrades_stale_watermarks_soundly() {
        let v = VersionedDocument::new(doc("r"));
        v.enable_history(2);
        for i in 0..4 {
            v.publish(doc(&format!("v{i}")));
        }
        // versions 1 and 2 were evicted; floor is at 2
        assert_eq!(v.history_floor(), 2);
        match v.publications_since(0) {
            CatchUp::Degraded(snap) => assert_eq!(snap.version(), 4),
            CatchUp::Records(_) => panic!("stale watermark must degrade"),
        }
        // a watermark at the floor still catches up from records
        let CatchUp::Records(recs) = v.publications_since(2) else {
            panic!("watermark at the floor must be served");
        };
        assert_eq!(
            recs.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn disabled_history_degrades_instead_of_claiming_no_changes() {
        let v = VersionedDocument::new(doc("r"));
        let w = v.version();
        v.publish(doc("a"));
        match v.publications_since(w) {
            CatchUp::Degraded(snap) => assert_eq!(snap.version(), 1),
            CatchUp::Records(r) => panic!("unretained publication served as {r:?}"),
        }
    }

    #[test]
    fn concurrent_readers_see_only_whole_versions() {
        // A writer publishes documents whose invariant is "node count is
        // odd" (root + pairs of children); readers must never observe an
        // in-between state, because they only ever hold frozen versions.
        let v = Arc::new(VersionedDocument::new(doc("r")));
        std::thread::scope(|s| {
            let writer = {
                let v = Arc::clone(&v);
                s.spawn(move || {
                    for _ in 0..50 {
                        let mut work = v.snapshot().to_document();
                        let c = work.add_element(work.root(), "pair");
                        work.add_text(c, "x");
                        v.publish(work);
                    }
                })
            };
            for _ in 0..3 {
                let v = Arc::clone(&v);
                s.spawn(move || {
                    for _ in 0..200 {
                        let snap = v.snapshot();
                        snap.check_integrity().unwrap();
                        assert_eq!(snap.len() % 2, 1, "partial splice observed");
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(v.version(), 50);
    }
}
