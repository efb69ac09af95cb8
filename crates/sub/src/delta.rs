//! Answer deltas.
//!
//! A [`Delta`] is the unit a standing query emits: the rows its answer
//! gained and lost at one published document version, tagged with that
//! version and the engine's simulated clock. Deltas are *replayable*:
//! applying a subscription's deltas in order to its initial answer
//! reconstructs the answer at any emitted version — the invariant the
//! oracle in [`crate::oracle`] checks against full re-evaluation. The
//! engine returns every delta it emits, in order, from
//! [`crate::SubscriptionEngine::reconcile`] and
//! [`crate::SubscriptionEngine::run_until`].

use axml_obs::push_escaped;
use std::collections::BTreeSet;

/// One change to a standing query's answer, emitted when a published
/// document version altered the rows the query returns.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// The subscription that emitted the delta.
    pub subscription: String,
    /// The document version the delta brings the subscriber to.
    pub version: u64,
    /// The engine's simulated clock at emission, in ms.
    pub sim_ms: f64,
    /// Rows present at `version` but not before it, ordered.
    pub added: Vec<Vec<String>>,
    /// Rows present before `version` but not at it, ordered.
    pub removed: Vec<Vec<String>>,
    /// Rows counted as *changed*: an added and a removed row sharing the
    /// same first column (the row's key in the common key-then-values
    /// rendering). Informational — replay uses `added`/`removed` alone.
    pub changed: usize,
    /// Whether the delta came from a sound full re-evaluation (the
    /// publication history had evicted the records this subscriber
    /// needed, or a publication's change scope was unknown) instead of
    /// the incremental scope-filtered path.
    pub full_reeval: bool,
    /// Notification latency: simulated ms between the cache-validity
    /// lapse that triggered the refresh and this delta's emission.
    /// `None` when the refresh was not lapse-triggered (initial catch-up,
    /// explicit ticks).
    pub latency_ms: Option<f64>,
}

impl Delta {
    /// Whether the delta changes nothing (empty deltas are never emitted
    /// by the engine, but replay tolerates them).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Applies the delta to an answer set: removes `removed`, inserts
    /// `added`.
    pub fn apply_to(&self, answers: &mut BTreeSet<Vec<String>>) {
        for row in &self.removed {
            answers.remove(row);
        }
        for row in &self.added {
            answers.insert(row.clone());
        }
    }

    /// Counts added/removed pairs sharing a first column — the `changed`
    /// convention used by the engine when it builds deltas.
    pub fn count_changed(added: &[Vec<String>], removed: &[Vec<String>]) -> usize {
        let removed_keys: BTreeSet<&String> = removed.iter().filter_map(|r| r.first()).collect();
        added
            .iter()
            .filter_map(|r| r.first())
            .filter(|k| removed_keys.contains(k))
            .count()
    }

    /// Deterministic single-line JSON rendering (field order fixed,
    /// strings escaped by [`axml_obs::push_escaped`]).
    pub fn to_json(&self) -> String {
        let quoted = |s: &str| {
            let mut out = String::with_capacity(s.len() + 2);
            push_escaped(&mut out, s);
            out
        };
        let rows = |rows: &[Vec<String>]| {
            let items: Vec<String> = rows
                .iter()
                .map(|r| {
                    let cells: Vec<String> = r.iter().map(|c| quoted(c)).collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!("[{}]", items.join(","))
        };
        let latency = match self.latency_ms {
            Some(l) => format!(",\"latency_ms\":{l}"),
            None => String::new(),
        };
        format!(
            "{{\"subscription\":{},\"version\":{},\"sim_ms\":{},\"added\":{},\"removed\":{},\"changed\":{},\"full_reeval\":{}{}}}",
            quoted(&self.subscription),
            self.version,
            self.sim_ms,
            rows(&self.added),
            rows(&self.removed),
            self.changed,
            self.full_reeval,
            latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|c| c.to_string()).collect()
    }

    fn delta() -> Delta {
        Delta {
            subscription: "watch".into(),
            version: 3,
            sim_ms: 120.0,
            added: vec![row(&["Mama", "5"])],
            removed: vec![row(&["Mama", "4"]), row(&["Grease", "1"])],
            changed: 1,
            full_reeval: false,
            latency_ms: Some(20.0),
        }
    }

    #[test]
    fn apply_replays_adds_and_removes() {
        let mut answers: BTreeSet<Vec<String>> = [row(&["Mama", "4"]), row(&["Grease", "1"])]
            .into_iter()
            .collect();
        delta().apply_to(&mut answers);
        assert_eq!(answers, [row(&["Mama", "5"])].into_iter().collect());
    }

    #[test]
    fn changed_pairs_by_first_column() {
        let d = delta();
        assert_eq!(Delta::count_changed(&d.added, &d.removed), 1);
        assert_eq!(Delta::count_changed(&d.added, &[]), 0);
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let j = delta().to_json();
        assert_eq!(
            j,
            "{\"subscription\":\"watch\",\"version\":3,\"sim_ms\":120,\
             \"added\":[[\"Mama\",\"5\"]],\
             \"removed\":[[\"Mama\",\"4\"],[\"Grease\",\"1\"]],\
             \"changed\":1,\"full_reeval\":false,\"latency_ms\":20}"
        );
        let mut no_latency = delta();
        no_latency.latency_ms = None;
        assert!(!no_latency.to_json().contains("latency_ms"));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut d = delta();
        d.subscription = "a\"b\\c".into();
        d.added = vec![row(&["x\ny\tz\u{1}"])];
        let j = d.to_json();
        assert!(j.starts_with("{\"subscription\":\"a\\\"b\\\\c\","), "{j}");
        assert!(j.contains("\"added\":[[\"x\\ny\\tz\\u0001\"]]"), "{j}");
    }
}
