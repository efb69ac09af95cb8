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
