#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # axml-services — the (simulated) Web-service substrate
//!
//! The paper's experiments invoke remote Web services; this crate
//! substitutes a deterministic in-process equivalent that exposes exactly
//! the observables the algorithms depend on: the returned forest, the
//! transfer volume, and the invocation cost (latency + bandwidth) under a
//! simulated clock that lets parallel batches overlap (Section 4.4).
//! Providers also play their Section 7 role: evaluating *pushed queries*
//! and returning pruned results or variable bindings.

//!
//! Services can also fail: the [`fault`] module injects deterministic,
//! seeded failure/timeout/slowdown schedules, and the registry drives
//! retries with exponential backoff, per-attempt deadlines, and a
//! per-service circuit breaker — all charged to the same simulated clock.

pub mod cache;
pub mod fault;
pub mod net;
pub mod push;
pub mod registry;
pub mod service;
pub mod worldfile;

pub use cache::{CacheLookup, CachedCall, CallKey, InvokeCache};
pub use fault::{BreakerConfig, BreakerState, FaultDecision, FaultProfile, RetryPolicy};
pub use net::{Deadline, NetProfile, NetStats, SimClock};
pub use push::{bindings_result, prune_result};
pub use registry::{FailedCall, InvokeError, InvokeOutcome, Registry};
pub use service::{
    CallRequest, FnService, PushedQuery, Reply, Service, StaticService, TableService,
};
pub use worldfile::{load_registry, load_registry_str, WorldFileError};
