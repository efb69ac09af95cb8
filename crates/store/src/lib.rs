#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # axml-store — cross-query reuse (reconstructed Section 7)
//!
//! The paper evaluates single queries against a freshly loaded document,
//! but its setting — a peer holding AXML documents whose intensional
//! parts name *external services* — is inherently multi-query: the same
//! document answers a stream of queries over time, and the lazy
//! machinery that avoids *irrelevant* calls within one query says
//! nothing about *repeated* calls across queries. This crate supplies
//! that missing layer:
//!
//! * [`CallCache`] — a memoized call-result cache keyed by
//!   `(service, parameters, pushed query)` with per-service validity
//!   windows (TTLs) charged to the **simulated** clock, deterministic
//!   LRU eviction under entry/byte budgets, and invalidation hooks
//!   (explicit, TTL expiry, and optional purge when a service's circuit
//!   breaker trips open). It implements the engine-facing
//!   [`axml_services::InvokeCache`] contract: the engine probes it
//!   before invoking, splices hits at zero network cost, and populates
//!   it on successful invocations only.
//! * [`PlanCache`] — the cross-session compiled-plan cache: each
//!   `(query, schema, compile-relevant config)` is compiled **once per
//!   store** into an [`axml_core::CompiledQuery`] (NFQs, LPQs, layers,
//!   label automata, bytecode), and later sessions pay only a per-document
//!   label-test binding. Answers, traces and stats are byte-identical
//!   with the cache on or off.
//! * [`DocumentStore`] — named documents that survive across queries,
//!   sharing one cache. Documents are stored as atomically published
//!   copy-on-write versions ([`axml_xml::VersionedDocument`]), so any
//!   number of sessions read concurrently with snapshot isolation.
//! * [`Session`] — a stream of queries against one stored document, the
//!   simulated clock persisting between queries so validity windows
//!   measure real elapsed (simulated) time.
//! * [`DocumentStore::serve`] — the multi-tenant scheduler: N session
//!   specs run on a work-stealing worker pool, or under a seeded
//!   deterministic interleaving whose recorded schedule replays serially
//!   (the concurrency test oracle; see [`sched`]).
//! * [`wal`] / [`checkpoint`] / [`recover`] — the durability subsystem:
//!   an append-only CRC-framed write-ahead log of published splices plus
//!   periodic full-document checkpoints, written through a [`LogDir`]
//!   abstraction with a real-filesystem backend ([`FsDir`]) and a
//!   deterministic in-memory one ([`SimDir`]) whose seeded
//!   [`CrashProfile`] injects torn writes, dropped flushes and bit rot
//!   into the *unsynced* tail only. [`DocumentStore::recover`] rebuilds
//!   the store from the logs: truncate at the first invalid frame,
//!   replay splices atop the newest intact checkpoint, re-anchor
//!   subscription watermarks. The crash-matrix oracle asserts every
//!   fsync-acknowledged publication survives recovery byte-identically.
//!
//! ```
//! use axml_gen::scenario::figure1;
//! use axml_query::parse_query;
//! use axml_store::{DocumentStore, SessionOptions};
//!
//! let s = figure1();
//! let mut store = DocumentStore::new();
//! store.insert("hotels", s.doc);
//! let q = parse_query("/hotels/hotel/name/$N -> $N").unwrap();
//! let mut session = store
//!     .session("hotels", &s.registry, Some(&s.schema), SessionOptions::default())
//!     .unwrap();
//! let cold = session.query(&q);
//! let warm = session.query(&q);
//! assert_eq!(warm.answers, cold.answers);
//! assert_eq!(warm.stats.calls_invoked, 0); // every call served by the cache
//! ```

pub mod cache;
pub mod checkpoint;
pub mod plan_cache;
pub mod recover;
pub mod sched;
pub mod session;
pub mod store;
pub mod wal;

pub use cache::{CacheConfig, CacheStats, CallCache};
pub use checkpoint::{DurabilityOptions, DurabilityStats, FsyncPolicy};
pub use plan_cache::{PlanCache, PlanCacheConfig, PlanCacheStats};
pub use recover::{recover_log, DocRecovery, RecoveredLog, RecoveryReport};
pub use sched::{
    QueryOutcome, ScheduleEntry, SchedulerMode, ServeReport, SessionOutcome, SessionSpec,
};
pub use session::{Session, SessionOptions, SessionReport};
pub use store::DocumentStore;
pub use wal::{
    crc32, decode_record, doc_name_from_file, encode_record, frame, log_file_name, scan_frames,
    CrashProfile, DocTap, DurabilityManager, FrameScan, FsDir, LogDir, LogFile, SimDir, WalError,
    WalRecord, MAX_FRAME_LEN, WAL_MAGIC,
};
