//! Pluggable trace sinks. The engine emits every [`Event`] to one
//! [`TraceSink`]; sinks decide whether to keep it in memory
//! ([`RingSink`]), append it to a JSONL stream ([`JsonlSink`]) or drop it
//! ([`NullSink`]).

use crate::event::Event;
use crate::json::event_to_json;
use std::io::Write;
use std::sync::Mutex;

/// Receives the engine's event stream.
///
/// Emission always happens from the engine's sequential phases, so a sink
/// observes events in their deterministic order; the `Send + Sync` bound
/// only exists so an observer handle can be shared across the engine's
/// worker threads structurally (they never emit).
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

/// Streams events as JSONL to any writer. Uses the deterministic
/// encoding by default (no `cpu_ms`); see [`JsonlSink::with_cpu`].
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
    include_cpu: bool,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Deterministic JSONL stream (omits wall-clock `cpu_ms`).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
            include_cpu: false,
        }
    }

    /// Include `cpu_ms` fields — richer but no longer byte-reproducible.
    pub fn with_cpu(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
            include_cpu: true,
        }
    }

    /// Flush and recover the underlying writer.
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner().unwrap();
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, event: &Event) {
        let mut w = self.writer.lock().unwrap();
        let _ = writeln!(w, "{}", event_to_json(event, self.include_cpu));
    }
}

/// Discards everything.
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &Event) {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            sim_ms: seq as f64,
            round: 0,
            layer: 0,
            cpu_ms: None,
            kind: EventKind::LayerEnd,
        }
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&ev(0));
        sink.emit(&ev(1));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"seq\":0,"));
    }
}
