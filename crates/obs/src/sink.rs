//! Trace sinks. The engine emits every [`Event`] to one [`TraceSink`];
//! [`RingSink`] keeps them in memory, and [`crate::to_jsonl`] writes them
//! out afterwards.

use crate::event::Event;
use std::sync::Mutex;

/// Receives the engine's event stream.
///
/// One engine run emits its events in their deterministic order. The
/// `Send + Sync` bound lets sessions on the store scheduler's worker
/// threads share one sink.
pub trait TraceSink: Send + Sync {
    /// Accept one event.
    fn emit(&self, event: &Event);
}

/// Keeps every event in memory, in emission order.
pub struct RingSink {
    events: Mutex<Vec<Event>>,
}

impl RingSink {
    /// An empty sink that never drops events.
    pub fn unbounded() -> Self {
        RingSink {
            events: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// One unbounded [`RingSink`] per session, for harnesses that run N
/// sessions concurrently and want each session's event stream isolated —
/// the trace oracle checks each stream on its own, since ordering *across*
/// sessions is scheduler-dependent while each per-session stream stays
/// deterministic.
pub struct PerSessionSinks {
    rings: Vec<RingSink>,
}

impl PerSessionSinks {
    /// `n` empty unbounded rings.
    pub fn new(n: usize) -> Self {
        PerSessionSinks {
            rings: (0..n).map(|_| RingSink::unbounded()).collect(),
        }
    }

    /// Borrows the rings as trace-sink handles, index-aligned with the
    /// sessions they observe (pass as the scheduler's `sinks` slice).
    pub fn handles(&self) -> Vec<&dyn TraceSink> {
        self.rings.iter().map(|r| r as &dyn TraceSink).collect()
    }

    /// Session `i`'s retained events, oldest first.
    pub fn events(&self, i: usize) -> Vec<Event> {
        self.rings[i].events()
    }

    /// Number of per-session streams.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Whether no streams were allocated.
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }
}
