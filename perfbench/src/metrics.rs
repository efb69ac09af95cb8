//! The metrics the benchmark reports, with units, the direction that is
//! better, regression bounds (end-to-end) and the end-to-end metric each
//! per-layer metric should move (per-layer). `BENCHMARK.json` at the
//! repository root declares the same table; a test keeps them equal.

use crate::stats::Spread;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Largest worsening, as a share of the parent's median, that still
    /// counts as no regression.
    pub bound: f64,
}

/// A metric of one layer.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric and workload(s) it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload in every untraced run.
/// Times are scaled to the reference speed (see `calib`).
///
/// Timing bounds are wider than 0.10: in two sets of ten seeded runs per
/// workload, taken one set after the other on a 2-vCPU virtual machine,
/// scaled times still spread by up to 0.16 of their median and the second
/// set's median moved by up to 11% (`README.md`, "Measured spread").
pub const END_TO_END: &[EndToEnd] = &[
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_p95_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, reported by every workload in every traced run, so
/// that every workload's result has the same metrics. Where a workload's
/// ops do not exercise a layer, the traced run fills that layer's metrics
/// from a probe on the workload's own inputs (see `probes`), and the
/// table marks them. Times are wall times, unscaled.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.evaluate_ms", "ms", Lower, "op_p50_ms on lazy-hotels"),
    layer("core.relevance_ms", "ms", Lower, "op_p50_ms on lazy-hotels, serve-tenants"),
    layer("core.relevance_share", "fraction", Lower, "op_p50_ms on lazy-hotels, serve-tenants"),
    layer("core.final_eval_ms", "ms", Lower, "op_p50_ms on lazy-hotels (descendant query)"),
    layer("core.other_ms", "ms", Lower, "op_p50_ms on durable-mixed"),
    layer("core.relevance_evals_per_op", "count", Lower, "op_p50_ms on lazy-hotels"),
    layer("core.nfq_evals_skipped_per_op", "count", Higher, "op_p50_ms on lazy-hotels"),
    layer("core.rounds_per_op", "count", Lower, "op_p50_ms on lazy-hotels"),
    layer("core.detect_scan_ms", "ms", Lower, "op_p50_ms on lazy-hotels"),
    layer("core.compile_ms", "ms", Lower, "op_p50_ms on lazy-hotels; setup_s on serve-tenants"),
    layer("query.bind_ms", "ms", Lower, "op_p50_ms on serve-tenants"),
    layer("query.render_ms", "ms", Lower, "op_p50_ms on lazy-hotels"),
    layer("xml.clone_ms", "ms", Lower, "op_p50_ms, peak_rss_mb on lazy-hotels"),
    layer("xml.final_doc_nodes", "count", Lower, "op_p50_ms, peak_rss_mb on lazy-hotels"),
    layer("xml.versions_per_round", "count", Lower, "ops_per_s on durable-mixed"),
    layer("services.calls_per_op", "count", Lower, "op_p50_ms on lazy-hotels, subscribe-feed"),
    layer("services.sim_net_ms_per_op", "sim_ms", Lower, "op_p50_ms on lazy-hotels"),
    layer("services.bytes_per_op", "bytes", Lower, "op_p50_ms on lazy-hotels"),
    layer("services.attempts_per_op", "count", Lower, "op_p50_ms on lazy-hotels"),
    layer("store.cache.hit_rate", "fraction", Higher, "op_p50_ms on serve-tenants, subscribe-feed"),
    layer("store.cache.stale_per_op", "count", Lower, "op_p50_ms on subscribe-feed"),
    layer("store.cache.insertions_per_op", "count", Lower, "op_p50_ms on subscribe-feed"),
    layer("store.cache.evictions_per_op", "count", Lower, "op_p50_ms on serve-tenants"),
    layer("store.cache.purge_ms", "ms", Lower, "op_p50_ms on subscribe-feed"),
    layer("store.plan_cache.hit_rate", "fraction", Higher, "op_p50_ms, setup_s on serve-tenants"),
    layer("store.plan_cache.compiles_per_op", "count", Lower, "op_p50_ms, setup_s on serve-tenants"),
    layer("store.plan_cache.fetch_ms", "ms", Lower, "op_p50_ms on serve-tenants"),
    layer("store.sched.round_ms", "ms", Lower, "ops_per_s on serve-tenants, durable-mixed"),
    layer("store.sched.busy_frac", "fraction", Higher, "ops_per_s on serve-tenants, durable-mixed"),
    layer("store.wal.appends_per_round", "count", Lower, "ops_per_s on durable-mixed"),
    layer("store.wal.checkpoints_per_round", "count", Lower, "ops_per_s on durable-mixed"),
    layer("store.wal.synced_frac", "fraction", Higher, "ops_per_s on durable-mixed"),
    layer("store.wal.bytes_per_append", "bytes", Lower, "op_p50_ms, setup_s on durable-mixed"),
    layer("store.wal.insert_ms", "ms", Lower, "setup_s, ops_per_s on durable-mixed"),
    layer("store.recover.wall_ms", "ms", Lower, "ops_per_s on durable-mixed"),
    layer("store.recover.frames", "count", Lower, "ops_per_s on durable-mixed"),
    layer("store.recover.splices_replayed", "count", Lower, "ops_per_s on durable-mixed"),
    layer("store.recover.us_per_frame", "us", Lower, "ops_per_s on durable-mixed"),
    layer("store.recover.scan_ms", "ms", Lower, "ops_per_s on durable-mixed"),
    layer("store.recover.log_ms", "ms", Lower, "ops_per_s on durable-mixed"),
    layer("sub.subscribe_ms", "ms", Lower, "setup_s on subscribe-feed"),
    layer("sub.refresh_ms", "ms", Lower, "op_p50_ms on subscribe-feed"),
    layer("sub.reconcile_ms", "ms", Lower, "op_p50_ms on subscribe-feed"),
    layer("sub.refresh_share", "fraction", Lower, "op_p50_ms on subscribe-feed"),
    layer("sub.skip_frac", "fraction", Higher, "op_p50_ms on subscribe-feed"),
    layer("sub.full_reevals_per_op", "count", Lower, "op_p50_ms on subscribe-feed"),
    layer("sub.degradations_per_op", "count", Lower, "op_p50_ms on subscribe-feed"),
    layer("sub.refresh_invocations_per_op", "count", Lower, "services.calls_per_op on subscribe-feed"),
    layer("sub.deltas_per_op", "count", Lower, "op_p50_ms on subscribe-feed"),
    layer("bench.raw_op_p50_ms", "ms", Lower, "none: op_p50_ms unscaled, what this machine took"),
    layer("bench.cal_ms", "ms", Lower, "none: the machine's speed during the run"),
    layer("trace.overhead_frac", "fraction", Lower, "none: sizes the cost of tracing"),
];

/// A number as JSON: every digit Rust's shortest round-trip rendering
/// gives. Non-finite values have no JSON form and never reach output
/// (the benchmark guards its divisions), so they render as `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value, with its spread across windows when it has one.
    pub value: Spread,
    /// Measured by a probe, not by the workload's ops.
    pub probe: bool,
}

/// What one workload run reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every checked answer was right and every check passed.
    pub correct: bool,
    /// Ops measured.
    pub attempted: usize,
    /// Ops whose answer was wrong or incomplete, or whose write-ahead
    /// append or recovery failed.
    pub failed: usize,
    /// Windows measured.
    pub windows: usize,
    /// The metrics, in table order.
    pub metrics: Vec<Reported>,
}

impl Report {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value.median),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The report with each metric's window minimum and maximum, for
    /// `--json`.
    pub fn json_detail(&self, seed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"min\": {}, \"max\": {}}}",
                    m.name,
                    json_number(m.value.median),
                    m.unit,
                    json_number(m.value.min),
                    json_number(m.value.max)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"windows\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.windows,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table of every metric with its unit, and for a
    /// per-layer metric the end-to-end metric it should move.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {}: {} ops in {} window(s), {} failed, {}",
            self.workload,
            self.attempted,
            self.windows,
            self.failed,
            if self.correct {
                "all answers correct"
            } else {
                "WRONG ANSWERS"
            }
        );
        for m in &self.metrics {
            let _ = write!(out, "{:<34} {:>14.4} {:<8}", m.name, m.value.median, m.unit);
            if m.value.min != m.value.max {
                let _ = write!(out, " [windows {:.4} .. {:.4}]", m.value.min, m.value.max);
            }
            if m.probe {
                out.push_str(" (probe)");
            }
            if let Some(layer) = PER_LAYER.iter().find(|l| l.name == m.name) {
                let _ = write!(out, " moves: {}", layer.moves);
            }
            out.push('\n');
        }
        out
    }
}

/// A result line as [`Report::json_line`] prints it, read back by the
/// process that ran the workload in a child.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// Every answer and check was right.
    pub correct: bool,
    /// Ops measured.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// (name, value, unit) of each metric, in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// Reads a line in the one layout [`Report::json_line`] writes; `None`
    /// for anything else.
    pub fn parse(line: &str) -> Option<ResultLine> {
        let rest = line.strip_prefix("{\"correct\": ")?;
        let (correct, rest) = rest.split_once(", \"attempted\": ")?;
        let (attempted, rest) = rest.split_once(", \"failed\": ")?;
        let (failed, rest) = rest.split_once(", \"metrics\": {")?;
        let mut metrics = Vec::new();
        let mut body = rest.strip_suffix("}}")?;
        // each entry reads `"name": {"value": v, "unit": "u"}`
        while let Some(entry) = body.strip_prefix('"') {
            let (name, entry) = entry.split_once("\": {\"value\": ")?;
            let (value, entry) = entry.split_once(", \"unit\": \"")?;
            let (unit, entry) = entry.split_once("\"}")?;
            metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
            body = entry.strip_prefix(", ").unwrap_or(entry);
        }
        Some(ResultLine {
            correct: correct.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            metrics,
        })
        .filter(|_| body.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{n}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_has_exactly_four_keys_and_reads_back() {
        let metric = |name, unit, v: f64| Reported {
            name,
            unit,
            value: Spread::of(&[v]),
            probe: false,
        };
        let r = Report {
            workload: "w",
            correct: true,
            attempted: 3,
            failed: 0,
            windows: 1,
            metrics: vec![
                metric("op_p50_ms", "ms", 1.25),
                metric("ops_per_s", "1/s", 0.1 + 0.2),
            ],
        };
        let line = r.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ops_per_s\": {\"value\": 0.30000000000000004, \"unit\": \"1/s\"}}}"
        );
        let back = ResultLine::parse(&line).expect("reads back");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (3, 0));
        assert_eq!(
            back.metrics,
            [
                ("op_p50_ms".to_string(), 1.25, "ms".to_string()),
                ("ops_per_s".to_string(), 0.1 + 0.2, "1/s".to_string())
            ]
        );
        let empty = Report {
            metrics: Vec::new(),
            correct: false,
            ..r
        };
        let back = ResultLine::parse(&empty.json_line()).expect("reads back");
        assert!(!back.correct && back.metrics.is_empty());
        assert_eq!(ResultLine::parse("{\"correct\": true}"), None);
        assert_eq!(ResultLine::parse(&format!("{line} trailing")), None);
    }
}
