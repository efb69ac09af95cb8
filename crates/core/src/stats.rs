//! Execution statistics — the quantities the paper's evaluation reports:
//! calls invoked, data transferred, simulated network time, relevance
//! detection effort, and CPU time.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Everything measured during one engine run.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Service calls actually invoked.
    pub calls_invoked: usize,
    /// Result bytes moved over the (simulated) network.
    pub bytes_transferred: usize,
    /// Simulated wall-clock spent on service calls — sequential calls sum,
    /// parallel batches contribute their maximum (Section 4.4).
    pub sim_time_ms: f64,
    /// Number of call-finding query evaluations: LPQ runs, and one per
    /// refined NFQ per detection pass, however it was answered — by a full
    /// evaluation or a function-call guide lookup, including one that
    /// found no live call at the NFQ's output position and so never
    /// touched the document.
    pub relevance_evals: usize,
    /// CPU time spent detecting relevant calls.
    pub relevance_cpu: Duration,
    /// Iterations of the invoke/re-evaluate loop.
    pub rounds: usize,
    /// Calls whose invocation carried a pushed query.
    pub pushed_calls: usize,
    /// Calls skipped because their service is unknown to the registry.
    pub skipped_unknown: usize,
    /// Calls that exhausted their retry budget and failed permanently;
    /// their subtrees are missing from the (partial) answer.
    pub failed_calls: usize,
    /// Calls refused outright by an open per-service circuit breaker.
    pub breaker_skips: usize,
    /// Service attempts made across all calls, successful or not
    /// (≥ `calls_invoked + failed_calls`; the excess is retries).
    pub call_attempts: usize,
    /// Call-finding queries eliminated by containment pruning (§4.1).
    pub queries_pruned: usize,
    /// Rounds where all relevant calls were fired speculatively in one
    /// batch (§4.4's "just in case" mode).
    pub speculative_rounds: usize,
    /// Service results that violated their declared output type (only
    /// counted when `enforce_output_types` is on).
    pub type_violations: usize,
    /// Always 0: the engine evaluates every NFQ a round detects with. Kept
    /// only because the `perfbench` benchmark still reads it for its
    /// `core.nfq_evals_skipped_per_op` metric; both go together.
    pub nfq_evals_skipped: usize,
    /// Relevant calls answered from the cross-query call-result cache at
    /// zero network cost (reconstructed §7). Not counted in
    /// `calls_invoked` — a hit performs no service invocation.
    pub cache_hits: usize,
    /// Cache probes that found nothing (the call proceeded to a real
    /// invocation).
    pub cache_misses: usize,
    /// Cache probes that found an entry past its validity window; the
    /// call fell through to the normal invoke/retry/breaker path.
    pub cache_stale: usize,
    /// True when the invocation budget was exhausted before completeness.
    pub truncated: bool,
    /// True when truncation was caused by the end-to-end deadline rather
    /// than the invocation budget (`truncated` is also set).
    pub deadline_exceeded: bool,
    /// Candidate calls shed by the admission gate (in-flight or latency
    /// limit); like breaker skips, their subtrees are missing from the
    /// (partial) answer.
    pub shed_skips: usize,
    /// Hedge legs fired inside parallel batches (at most one per call).
    pub hedged_calls: usize,
    /// Hedged calls whose duplicate leg finished first and won the race.
    pub hedge_wins: usize,
    /// Simulated ms of work thrown away by cancelled hedge losers — the
    /// losing leg's cost up to the winner's completion instant. Never
    /// charged to `sim_time_ms`; tracked to bound hedging waste.
    pub hedge_wasted_ms: f64,
    /// Per-service invocation counts.
    pub invoked_by_service: BTreeMap<String, usize>,
    /// CPU time of the final snapshot evaluation.
    pub final_eval_cpu: Duration,
    /// Total CPU time of the whole run.
    pub total_cpu: Duration,
    /// Document size (live nodes) when evaluation finished.
    pub final_doc_size: usize,
}

impl EngineStats {
    /// Simulated time plus measured CPU time, in milliseconds — the
    /// "total query evaluation time" of the paper's experiments.
    pub fn total_time_ms(&self) -> f64 {
        self.sim_time_ms + self.total_cpu.as_secs_f64() * 1e3
    }

    /// The fraction of cache probes answered by a valid entry, or 0.0
    /// when no cache was consulted. Note that the denominator counts
    /// **all** probes — hits, misses *and* stale (expired) entries — so a
    /// probe that found an entry past its validity window drags the rate
    /// down exactly like a miss.
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses + self.cache_stale;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Whether the run resolved every relevant call: no permanent
    /// failures, no breaker refusals, no unknown services, no shed calls,
    /// and no budget or deadline truncation. This is the engine's
    /// answer-completeness criterion —
    /// when it holds, the result is the full answer; otherwise the answer
    /// is partial (missing exactly the subtrees below unresolved calls).
    pub fn is_complete(&self) -> bool {
        self.failed_calls == 0
            && self.breaker_skips == 0
            && self.skipped_unknown == 0
            && self.shed_skips == 0
            && !self.truncated
    }

    /// Mirrors the counters into the observability crate's
    /// [`axml_obs::StatsView`], the dependency-free form the trace-oracle
    /// accounting checks ([`axml_obs::check_stats`]) compare a trace
    /// against.
    pub fn view(&self) -> axml_obs::StatsView {
        axml_obs::StatsView {
            calls_invoked: self.calls_invoked,
            call_attempts: self.call_attempts,
            failed_calls: self.failed_calls,
            breaker_skips: self.breaker_skips,
            skipped_unknown: self.skipped_unknown,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_stale: self.cache_stale,
            pushed_calls: self.pushed_calls,
            bytes_transferred: self.bytes_transferred,
            sim_time_ms: self.sim_time_ms,
            truncated: self.truncated,
            deadline_exceeded: self.deadline_exceeded,
            shed_skips: self.shed_skips,
            hedged_calls: self.hedged_calls,
            hedge_wins: self.hedge_wins,
            complete: self.is_complete(),
            invoked_by_service: self.invoked_by_service.clone(),
            // the engine doesn't know the cache's shard layout; harnesses
            // that hold the cache fill this in (see CallCache::shard_stats)
            cache_shards: Vec::new(),
        }
    }
}

/// The pluralization suffix for `n` of something: empty for exactly one,
/// `suffix` otherwise. Shared by the stats display and the CLI's trace
/// printer so count lines always agree on grammar.
pub fn plural(n: usize, suffix: &'static str) -> &'static str {
    if n == 1 {
        ""
    } else {
        suffix
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "calls: {} ({} pushed, {} skipped){}",
            self.calls_invoked,
            self.pushed_calls,
            self.skipped_unknown,
            if self.deadline_exceeded {
                " [DEADLINE]"
            } else if self.truncated {
                " [TRUNCATED]"
            } else if !self.is_complete() {
                " [PARTIAL]"
            } else {
                ""
            }
        )?;
        if self.failed_calls > 0 || self.breaker_skips > 0 {
            writeln!(
                f,
                "  {} calls failed permanently, {} refused by open breaker",
                self.failed_calls, self.breaker_skips
            )?;
        }
        if self.shed_skips > 0 {
            writeln!(
                f,
                "  {} call{} shed by the admission gate [SHED]",
                self.shed_skips,
                plural(self.shed_skips, "s")
            )?;
        }
        if self.hedged_calls > 0 {
            writeln!(
                f,
                "  {} hedge leg{} fired, {} win{}, {:.1} ms wasted [HEDGED]",
                self.hedged_calls,
                plural(self.hedged_calls, "s"),
                self.hedge_wins,
                plural(self.hedge_wins, "s"),
                self.hedge_wasted_ms
            )?;
        }
        let retries = self
            .call_attempts
            .saturating_sub(self.calls_invoked + self.failed_calls);
        if retries > 0 {
            writeln!(f, "  {retries} retry attempts absorbed")?;
        }
        writeln!(f, "bytes transferred: {}", self.bytes_transferred)?;
        writeln!(
            f,
            "time: {:.1} ms simulated network + {:.1} ms cpu = {:.1} ms",
            self.sim_time_ms,
            self.total_cpu.as_secs_f64() * 1e3,
            self.total_time_ms()
        )?;
        writeln!(
            f,
            "relevance: {} evaluations over {} rounds ({:.1} ms cpu)",
            self.relevance_evals,
            self.rounds,
            self.relevance_cpu.as_secs_f64() * 1e3
        )?;
        if self.cache_hits + self.cache_misses + self.cache_stale > 0 {
            writeln!(
                f,
                "call cache: {} hit{}, {} miss{}, {} expired ({:.0}% hit rate)",
                self.cache_hits,
                plural(self.cache_hits, "s"),
                self.cache_misses,
                plural(self.cache_misses, "es"),
                self.cache_stale,
                self.cache_hit_rate() * 100.0
            )?;
        }
        if self.queries_pruned > 0 {
            writeln!(
                f,
                "  {} call-finding queries pruned (containment)",
                self.queries_pruned
            )?;
        }
        if self.speculative_rounds > 0 {
            writeln!(f, "  {} speculative rounds", self.speculative_rounds)?;
        }
        if self.type_violations > 0 {
            writeln!(f, "  {} output-type violations", self.type_violations)?;
        }
        for (svc, n) in &self.invoked_by_service {
            writeln!(f, "  {svc}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_combines_sim_and_cpu() {
        let s = EngineStats {
            sim_time_ms: 100.0,
            total_cpu: Duration::from_millis(50),
            ..Default::default()
        };
        assert!((s.total_time_ms() - 150.0).abs() < 1e-6);
    }

    #[test]
    fn display_renders() {
        let mut s = EngineStats::default();
        s.invoked_by_service.insert("getRating".into(), 3);
        s.truncated = true;
        s.queries_pruned = 4;
        s.speculative_rounds = 2;
        let out = s.to_string();
        assert!(out.contains("getRating: 3"));
        assert!(out.contains("TRUNCATED"));
        assert!(out.contains("4 call-finding queries pruned"));
        assert!(out.contains("2 speculative rounds"));
        // zero-valued extras stay silent
        let quiet = EngineStats::default().to_string();
        assert!(!quiet.contains("speculative"));
        assert!(!quiet.contains("violations"));
        assert!(!quiet.contains("call cache"));
        assert!(!quiet.contains("SHED"));
        assert!(!quiet.contains("HEDGED"));
        assert!(!quiet.contains("DEADLINE"));
    }

    #[test]
    fn deadline_hedge_shed_render() {
        let s = EngineStats {
            truncated: true,
            deadline_exceeded: true,
            shed_skips: 1,
            hedged_calls: 2,
            hedge_wins: 1,
            hedge_wasted_ms: 12.5,
            ..Default::default()
        };
        let out = s.to_string();
        assert!(out.contains("[DEADLINE]"), "{out}");
        assert!(
            out.contains("1 call shed by the admission gate [SHED]"),
            "{out}"
        );
        assert!(
            out.contains("2 hedge legs fired, 1 win, 12.5 ms wasted [HEDGED]"),
            "{out}"
        );
        assert!(!s.is_complete());
        // shed alone degrades completeness too
        let shed_only = EngineStats {
            shed_skips: 3,
            ..Default::default()
        };
        assert!(!shed_only.is_complete());
        assert!(shed_only.to_string().contains("3 calls shed"));
    }

    #[test]
    fn plural_helper() {
        assert_eq!(plural(0, "s"), "s");
        assert_eq!(plural(1, "s"), "");
        assert_eq!(plural(2, "es"), "es");
    }

    #[test]
    fn cache_counters_render_and_rate() {
        let s = EngineStats {
            cache_hits: 3,
            cache_misses: 1,
            cache_stale: 0,
            ..Default::default()
        };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-9);
        let out = s.to_string();
        assert!(out.contains("call cache: 3 hits, 1 miss, 0 expired"));
        assert!(out.contains("75% hit rate"));
        assert_eq!(EngineStats::default().cache_hit_rate(), 0.0);
    }
}
