#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # axml-perfbench — what AXML users wait for, end to end and by layer
//!
//! One command (`bench`, see `README.md`) runs four seeded workloads with
//! the `axml` CLI's default configuration, checks every answer, and
//! prints end-to-end metrics (untraced runs) or per-layer metrics, spans
//! and layer self times (traced runs). The benchmark calls each layer's
//! public functions from outside; the program itself carries no extra
//! instrumentation.

pub mod calib;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
