#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # axml-sub — Continuous AXML
//!
//! A standing-query subscription engine over streaming splices: queries
//! registered against a stored [`VersionedDocument`] emit **answer
//! deltas** — the rows the answer gained and lost, tagged with the
//! document version and simulated clock — as service results stream in
//! and cached call results lapse out of their TTL validity windows.
//!
//! The paper evaluates one query lazily against one document state; this
//! crate extends the same machinery along the time axis. A query's
//! position automata become a per-query [`QueryScope`], tested on the
//! F-guide classes each publication is tagged with; the call cache's TTL
//! validity windows (§7's coherency horizon) become the refresh schedule;
//! and the store's publication chain becomes a multi-subscriber log with
//! per-subscriber watermarks that degrade soundly to full re-evaluation
//! when the history is evicted.
//!
//! See [`SubscriptionEngine`] for the two halves (refresh / reconcile),
//! [`Delta`] for what they deliver, and [`oracle`] for the
//! replay-equals-full-re-evaluation invariant the whole design is
//! tested against.
//!
//! [`VersionedDocument`]: axml_xml::VersionedDocument
//! [`QueryScope`]: axml_core::QueryScope

pub mod delta;
pub mod engine;
mod materialization;
pub mod oracle;

pub use delta::Delta;
pub use engine::{
    SubscriptionEngine, SubscriptionEngineStats, SubscriptionOptions, SubscriptionStatus,
};
pub use oracle::{check_subscription, replay, OracleReport};
