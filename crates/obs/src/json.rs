//! JSONL encoding of event streams — hand-rolled (the workspace takes no
//! external dependencies) and **deterministic**: field order is fixed,
//! floats print Rust's shortest round-trip representation, and the
//! wall-clock-dependent `cpu_ms` field is never written, so two runs with
//! the same seed serialize byte-identically.

use crate::event::{CacheOutcome, Event, EventKind, ShedReason};
use std::fmt::Write as _;

// ---------------------------------------------------------------- encode

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    // JSON has no Infinity/NaN literals; the engine never produces them
    // in events, but stay total anyway
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_f64_slice(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

/// Encodes one event as a single JSON object (no trailing newline),
/// without its wall-clock `cpu_ms`.
pub fn event_to_json(e: &Event) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(s, "{{\"seq\":{},\"sim_ms\":", e.seq);
    push_f64(&mut s, e.sim_ms);
    let _ = write!(s, ",\"round\":{},\"layer\":{}", e.round, e.layer);
    s.push_str(",\"kind\":");
    push_escaped(&mut s, e.kind.name());
    match &e.kind {
        EventKind::QueryStart { strategy, query } => {
            s.push_str(",\"strategy\":");
            push_escaped(&mut s, strategy);
            s.push_str(",\"query\":");
            push_escaped(&mut s, query);
        }
        EventKind::QueryEnd {
            complete,
            calls_invoked,
            sim_time_ms,
        } => {
            let _ = write!(
                s,
                ",\"complete\":{complete},\"calls_invoked\":{calls_invoked}"
            );
            s.push_str(",\"sim_time_ms\":");
            push_f64(&mut s, *sim_time_ms);
        }
        EventKind::LayerStart { nfqs, independent } => {
            let _ = write!(s, ",\"nfqs\":{nfqs},\"independent\":{independent}");
        }
        EventKind::LayerEnd => {}
        EventKind::Candidates { calls, services } => {
            s.push_str(",\"calls\":[");
            for (i, c) in calls.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}");
            }
            s.push_str("],\"services\":[");
            for (i, svc) in services.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_escaped(&mut s, svc);
            }
            s.push(']');
        }
        EventKind::CacheProbe {
            service,
            call,
            outcome,
        } => {
            s.push_str(",\"service\":");
            push_escaped(&mut s, service);
            let _ = write!(s, ",\"call\":{call},\"outcome\":");
            push_escaped(&mut s, outcome.as_str());
        }
        EventKind::Attempt {
            service,
            call,
            index,
            ok,
        } => {
            s.push_str(",\"service\":");
            push_escaped(&mut s, service);
            let _ = write!(s, ",\"call\":{call},\"index\":{index},\"ok\":{ok}");
        }
        EventKind::Invocation {
            service,
            call,
            path,
            pushed,
            cached,
            ok,
            attempts,
            cost_ms,
            bytes,
        } => {
            s.push_str(",\"service\":");
            push_escaped(&mut s, service);
            let _ = write!(s, ",\"call\":{call},\"path\":");
            push_escaped(&mut s, path);
            let _ = write!(
                s,
                ",\"pushed\":{pushed},\"cached\":{cached},\"ok\":{ok},\"attempts\":{attempts},\"cost_ms\":"
            );
            push_f64(&mut s, *cost_ms);
            let _ = write!(s, ",\"bytes\":{bytes}");
        }
        EventKind::BreakerTransition { service, open } => {
            s.push_str(",\"service\":");
            push_escaped(&mut s, service);
            let _ = write!(s, ",\"open\":{open}");
        }
        EventKind::BreakerSkip { service, call } | EventKind::UnknownService { service, call } => {
            s.push_str(",\"service\":");
            push_escaped(&mut s, service);
            let _ = write!(s, ",\"call\":{call}");
        }
        EventKind::Batch {
            parallel,
            costs,
            advance_ms,
        } => {
            let _ = write!(s, ",\"parallel\":{parallel},\"costs\":");
            push_f64_slice(&mut s, costs);
            s.push_str(",\"advance_ms\":");
            push_f64(&mut s, *advance_ms);
        }
        EventKind::Truncated { pending } | EventKind::DeadlineExceeded { pending } => {
            let _ = write!(s, ",\"pending\":{pending}");
        }
        EventKind::Hedge {
            service,
            call,
            fired_at_ms,
            primary_cost_ms,
            hedge_cost_ms,
            hedge_won,
        } => {
            s.push_str(",\"service\":");
            push_escaped(&mut s, service);
            let _ = write!(s, ",\"call\":{call},\"fired_at_ms\":");
            push_f64(&mut s, *fired_at_ms);
            s.push_str(",\"primary_cost_ms\":");
            push_f64(&mut s, *primary_cost_ms);
            s.push_str(",\"hedge_cost_ms\":");
            push_f64(&mut s, *hedge_cost_ms);
            let _ = write!(s, ",\"hedge_won\":{hedge_won}");
        }
        EventKind::Shed {
            service,
            call,
            reason,
        } => {
            s.push_str(",\"service\":");
            push_escaped(&mut s, service);
            let _ = write!(s, ",\"call\":{call},\"reason\":");
            push_escaped(&mut s, reason.as_str());
        }
        EventKind::PlanCacheProbe { query, key, hit } => {
            s.push_str(",\"query\":");
            push_escaped(&mut s, query);
            s.push_str(",\"key\":");
            push_escaped(&mut s, key);
            let _ = write!(s, ",\"hit\":{hit}");
        }
        EventKind::SubscriptionStart {
            subscription,
            query,
            initial,
        } => {
            s.push_str(",\"subscription\":");
            push_escaped(&mut s, subscription);
            s.push_str(",\"query\":");
            push_escaped(&mut s, query);
            let _ = write!(s, ",\"initial\":{initial}");
        }
        EventKind::SubscriptionDelta {
            subscription,
            version,
            added,
            removed,
            changed,
            full_reeval,
        } => {
            s.push_str(",\"subscription\":");
            push_escaped(&mut s, subscription);
            let _ = write!(
                s,
                ",\"version\":{version},\"added\":{added},\"removed\":{removed},\"changed\":{changed},\"full_reeval\":{full_reeval}"
            );
        }
        EventKind::WalAppend {
            doc,
            version,
            record,
            bytes,
            synced,
        } => {
            s.push_str(",\"doc\":");
            push_escaped(&mut s, doc);
            let _ = write!(s, ",\"version\":{version},\"record\":");
            push_escaped(&mut s, record);
            let _ = write!(s, ",\"bytes\":{bytes},\"synced\":{synced}");
        }
        EventKind::WalCheckpoint {
            doc,
            version,
            bytes,
        } => {
            s.push_str(",\"doc\":");
            push_escaped(&mut s, doc);
            let _ = write!(s, ",\"version\":{version},\"bytes\":{bytes}");
        }
        EventKind::WalRecovery {
            doc,
            version,
            frames,
            splices_replayed,
            truncated,
        } => {
            s.push_str(",\"doc\":");
            push_escaped(&mut s, doc);
            let _ = write!(
                s,
                ",\"version\":{version},\"frames\":{frames},\"splices_replayed\":{splices_replayed},\"truncated\":{truncated}"
            );
        }
    }
    s.push('}');
    s
}

/// Encodes a stream as JSONL, one event per line, trailing newline after
/// every line. Deterministic (omits `cpu_ms`).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- decode

/// Why a JSONL line failed to parse back into an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value (the subset the trace format uses).
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    /// Non-negative integer literal, kept exact: call ids are full-width
    /// `u64` hashes, and routing them through `f64` would round anything
    /// above 2^53.
    Int(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    fn num_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn boolean(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Plain digit runs stay exact u64; anything signed, fractional or
        // exponent-form (or beyond u64::MAX) takes the f64 path.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_num(v: &Value, key: &str) -> Result<f64, String> {
    req(v, key)?
        .num()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn req_usize(v: &Value, key: &str) -> Result<usize, String> {
    Ok(req_u64(v, key)? as usize)
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    req(v, key)?
        .num_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn req_bool(v: &Value, key: &str) -> Result<bool, String> {
    req(v, key)?
        .boolean()
        .ok_or_else(|| format!("field {key:?} is not a bool"))
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    Ok(req(v, key)?
        .str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_string())
}

/// Parses one JSON object (one JSONL line) back into an [`Event`].
pub fn event_from_json(line: &str) -> Result<Event, String> {
    let mut p = Parser::new(line);
    let v = p.value()?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    let kind_name = req_str(&v, "kind")?;
    let kind = match kind_name.as_str() {
        "query_start" => EventKind::QueryStart {
            strategy: req_str(&v, "strategy")?,
            query: req_str(&v, "query")?,
        },
        "query_end" => EventKind::QueryEnd {
            complete: req_bool(&v, "complete")?,
            calls_invoked: req_usize(&v, "calls_invoked")?,
            sim_time_ms: req_num(&v, "sim_time_ms")?,
        },
        "layer_start" => EventKind::LayerStart {
            nfqs: req_usize(&v, "nfqs")?,
            independent: req_bool(&v, "independent")?,
        },
        "layer_end" => EventKind::LayerEnd,
        "candidates" => {
            let calls = req(&v, "calls")?
                .arr()
                .ok_or("field \"calls\" is not an array")?
                .iter()
                .map(|x| x.num_u64().ok_or("non-numeric call id"))
                .collect::<Result<Vec<u64>, _>>()?;
            let services = req(&v, "services")?
                .arr()
                .ok_or("field \"services\" is not an array")?
                .iter()
                .map(|x| x.str().map(String::from).ok_or("non-string service"))
                .collect::<Result<Vec<String>, _>>()?;
            EventKind::Candidates { calls, services }
        }
        "cache_probe" => EventKind::CacheProbe {
            service: req_str(&v, "service")?,
            call: req_u64(&v, "call")?,
            outcome: CacheOutcome::from_name(&req_str(&v, "outcome")?)
                .ok_or("unknown cache outcome")?,
        },
        "attempt" => EventKind::Attempt {
            service: req_str(&v, "service")?,
            call: req_u64(&v, "call")?,
            index: req_usize(&v, "index")?,
            ok: req_bool(&v, "ok")?,
        },
        "invocation" => EventKind::Invocation {
            service: req_str(&v, "service")?,
            call: req_u64(&v, "call")?,
            path: req_str(&v, "path")?,
            pushed: req_bool(&v, "pushed")?,
            cached: req_bool(&v, "cached")?,
            ok: req_bool(&v, "ok")?,
            attempts: req_usize(&v, "attempts")?,
            cost_ms: req_num(&v, "cost_ms")?,
            bytes: req_usize(&v, "bytes")?,
        },
        "breaker" => EventKind::BreakerTransition {
            service: req_str(&v, "service")?,
            open: req_bool(&v, "open")?,
        },
        "breaker_skip" => EventKind::BreakerSkip {
            service: req_str(&v, "service")?,
            call: req_u64(&v, "call")?,
        },
        "unknown_service" => EventKind::UnknownService {
            service: req_str(&v, "service")?,
            call: req_u64(&v, "call")?,
        },
        "batch" => EventKind::Batch {
            parallel: req_bool(&v, "parallel")?,
            costs: req(&v, "costs")?
                .arr()
                .ok_or("field \"costs\" is not an array")?
                .iter()
                .map(|x| x.num().ok_or("non-numeric cost"))
                .collect::<Result<Vec<f64>, _>>()?,
            advance_ms: req_num(&v, "advance_ms")?,
        },
        "truncated" => EventKind::Truncated {
            pending: req_usize(&v, "pending")?,
        },
        "hedge" => EventKind::Hedge {
            service: req_str(&v, "service")?,
            call: req_u64(&v, "call")?,
            fired_at_ms: req_num(&v, "fired_at_ms")?,
            primary_cost_ms: req_num(&v, "primary_cost_ms")?,
            hedge_cost_ms: req_num(&v, "hedge_cost_ms")?,
            hedge_won: req_bool(&v, "hedge_won")?,
        },
        "shed" => EventKind::Shed {
            service: req_str(&v, "service")?,
            call: req_u64(&v, "call")?,
            reason: ShedReason::from_name(&req_str(&v, "reason")?).ok_or("unknown shed reason")?,
        },
        "deadline" => EventKind::DeadlineExceeded {
            pending: req_usize(&v, "pending")?,
        },
        "plan_cache" => EventKind::PlanCacheProbe {
            query: req_str(&v, "query")?,
            key: req_str(&v, "key")?,
            hit: req_bool(&v, "hit")?,
        },
        "subscription_start" => EventKind::SubscriptionStart {
            subscription: req_str(&v, "subscription")?,
            query: req_str(&v, "query")?,
            initial: req_usize(&v, "initial")?,
        },
        "subscription_delta" => EventKind::SubscriptionDelta {
            subscription: req_str(&v, "subscription")?,
            version: req_u64(&v, "version")?,
            added: req_usize(&v, "added")?,
            removed: req_usize(&v, "removed")?,
            changed: req_usize(&v, "changed")?,
            full_reeval: req_bool(&v, "full_reeval")?,
        },
        "wal_append" => EventKind::WalAppend {
            doc: req_str(&v, "doc")?,
            version: req_u64(&v, "version")?,
            record: req_str(&v, "record")?,
            bytes: req_usize(&v, "bytes")?,
            synced: req_bool(&v, "synced")?,
        },
        "wal_checkpoint" => EventKind::WalCheckpoint {
            doc: req_str(&v, "doc")?,
            version: req_u64(&v, "version")?,
            bytes: req_usize(&v, "bytes")?,
        },
        "wal_recovery" => EventKind::WalRecovery {
            doc: req_str(&v, "doc")?,
            version: req_u64(&v, "version")?,
            frames: req_usize(&v, "frames")?,
            splices_replayed: req_usize(&v, "splices_replayed")?,
            truncated: req_bool(&v, "truncated")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(Event {
        seq: req_u64(&v, "seq")?,
        sim_ms: req_num(&v, "sim_ms")?,
        round: req_usize(&v, "round")?,
        layer: req_usize(&v, "layer")?,
        cpu_ms: None,
        kind,
    })
}

/// Parses a whole JSONL trace (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_json(line).map_err(|message| ParseError {
            line: i + 1,
            message,
        })?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                seq: 0,
                sim_ms: 0.0,
                round: 0,
                layer: 0,
                cpu_ms: None,
                kind: EventKind::QueryStart {
                    strategy: "nfq".into(),
                    query: "/a/b[c=\"v\"]".into(),
                },
            },
            Event {
                seq: 1,
                sim_ms: 0.0,
                round: 1,
                layer: 0,
                cpu_ms: None,
                kind: EventKind::Candidates {
                    calls: vec![0, 3],
                    services: vec!["getRating".into(), "weird \"name\"\n".into()],
                },
            },
            Event {
                seq: 2,
                sim_ms: 12.5,
                round: 1,
                layer: 0,
                cpu_ms: None,
                kind: EventKind::Invocation {
                    service: "getRating".into(),
                    call: 0,
                    path: "hotels/hotel/rating".into(),
                    pushed: false,
                    cached: false,
                    ok: true,
                    attempts: 2,
                    cost_ms: 12.5,
                    bytes: 77,
                },
            },
            Event {
                seq: 3,
                sim_ms: 12.5,
                round: 1,
                layer: 2,
                cpu_ms: None,
                kind: EventKind::Batch {
                    parallel: true,
                    costs: vec![12.5, 3.0],
                    advance_ms: 12.5,
                },
            },
            Event {
                seq: 4,
                sim_ms: 12.5,
                round: 1,
                layer: 2,
                cpu_ms: Some(1.25),
                kind: EventKind::QueryEnd {
                    complete: true,
                    calls_invoked: 1,
                    sim_time_ms: 12.5,
                },
            },
        ]
    }

    #[test]
    fn roundtrips() {
        let events = sample();
        let text = to_jsonl(&events);
        let back = parse_jsonl(&text).unwrap();
        // cpu_ms is deliberately dropped by the deterministic encoding
        let mut expect = events.clone();
        for e in &mut expect {
            e.cpu_ms = None;
        }
        assert_eq!(back, expect);
        // re-encoding is byte-stable
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn hedge_shed_deadline_roundtrip() {
        let mk = |seq, kind| Event {
            seq,
            sim_ms: 1.0,
            round: 1,
            layer: 0,
            cpu_ms: None,
            kind,
        };
        let events = vec![
            mk(
                0,
                EventKind::Hedge {
                    service: "s".into(),
                    call: 3,
                    fired_at_ms: 12.5,
                    primary_cost_ms: 40.0,
                    hedge_cost_ms: 10.0,
                    hedge_won: true,
                },
            ),
            mk(
                1,
                EventKind::Shed {
                    service: "s".into(),
                    call: 4,
                    reason: ShedReason::Inflight,
                },
            ),
            mk(
                2,
                EventKind::Shed {
                    service: "s".into(),
                    call: 5,
                    reason: ShedReason::Latency,
                },
            ),
            mk(3, EventKind::DeadlineExceeded { pending: 2 }),
        ];
        let text = to_jsonl(&events);
        assert!(text.contains("\"kind\":\"hedge\""), "{text}");
        assert!(text.contains("\"kind\":\"shed\""), "{text}");
        assert!(text.contains("\"kind\":\"deadline\""), "{text}");
        assert!(text.contains("\"reason\":\"inflight\""), "{text}");
        assert!(text.contains("\"reason\":\"latency\""), "{text}");
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn plan_cache_events_roundtrip() {
        let mk = |seq, hit| Event {
            seq,
            sim_ms: 0.0,
            round: 0,
            layer: 0,
            cpu_ms: None,
            kind: EventKind::PlanCacheProbe {
                query: "/a/b[c=\"v\"]".into(),
                key: "a1b2c3d4".into(),
                hit,
            },
        };
        let events = vec![mk(0, false), mk(1, true)];
        let text = to_jsonl(&events);
        assert!(text.contains("\"kind\":\"plan_cache\""), "{text}");
        assert!(text.contains("\"hit\":false"), "{text}");
        assert!(text.contains("\"hit\":true"), "{text}");
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn subscription_events_roundtrip() {
        let mk = |seq, kind| Event {
            seq,
            sim_ms: 2.0,
            round: 0,
            layer: 0,
            cpu_ms: None,
            kind,
        };
        let events = vec![
            mk(
                0,
                EventKind::SubscriptionStart {
                    subscription: "price-watch-3".into(),
                    query: "/hotels/hotel/price".into(),
                    initial: 12,
                },
            ),
            mk(
                1,
                EventKind::SubscriptionDelta {
                    subscription: "price-watch-3".into(),
                    version: 7,
                    added: 2,
                    removed: 1,
                    changed: 1,
                    full_reeval: false,
                },
            ),
        ];
        let text = to_jsonl(&events);
        assert!(text.contains("\"kind\":\"subscription_start\""), "{text}");
        assert!(text.contains("\"kind\":\"subscription_delta\""), "{text}");
        assert!(text.contains("\"version\":7"), "{text}");
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_jsonl("{\"seq\":0}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 1); // first line is missing fields already
        let err = parse_jsonl(
            "{\"kind\":\"layer_end\",\"seq\":0,\"sim_ms\":0,\"round\":0,\"layer\":0}\n{oops\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn escapes_are_reversible() {
        let nasty = "q\"\\\n\t\u{1}端";
        let e = Event {
            seq: 9,
            sim_ms: 1.0,
            round: 0,
            layer: 0,
            cpu_ms: None,
            kind: EventKind::QueryStart {
                strategy: nasty.into(),
                query: nasty.into(),
            },
        };
        let back = event_from_json(&event_to_json(&e)).unwrap();
        assert_eq!(back, e);
    }
}
