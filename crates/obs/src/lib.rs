//! # axml-obs — structured observability for the lazy AXML engine
//!
//! A dependency-free observability layer: the engine emits one
//! [`Event`] per observable step (query/layer/round spans, candidate
//! sets, cache probes, attempts, invocations, breaker transitions,
//! batch clock charges) into any [`TraceSink`]. On top of the stream:
//!
//! * [`json`] — deterministic JSONL encoding that round-trips
//!   ([`json::to_jsonl`] / [`json::parse_jsonl`]); byte-identical
//!   across runs with the same seed because all emission happens on the
//!   engine's sequential phases and wall-clock `cpu_ms` is omitted.
//! * [`sink`] — the in-memory ring, one per session if need be.
//! * [`metrics`] — per-service / per-layer histograms (latency, retries
//!   absorbed, bytes, cache hit rates) derived purely from the stream.
//! * [`check`] — the trace-oracle harness: laziness, layer-order,
//!   clock-charging and accounting invariants any test can demand.
//!
//! This crate deliberately has **no** dependency on the engine; the
//! engine depends on it and mirrors its aggregate counters into
//! [`check::StatsView`] for the accounting checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use check::{
    assert_clean, check_all, check_plan_cache, check_stats, check_trace, check_wal_accounting,
    StatsView, Violation,
};
pub use event::{CacheOutcome, Event, EventKind, ShedReason};
pub use json::{event_from_json, event_to_json, parse_jsonl, to_jsonl, ParseError};
pub use metrics::{aggregate, Histogram, LayerMetrics, MetricsReport, ServiceMetrics};
pub use sink::{RingSink, TraceSink};
