//! Prints the paper-style experiment tables.
//!
//! ```text
//! cargo run -p axml-bench --release --bin report               # everything
//! cargo run -p axml-bench --release --bin report e1 e5         # a subset
//! cargo run -p axml-bench --release --bin report e14 --out DIR # and files
//! ```
//!
//! `--out DIR` writes each printed table as `DIR/<name>.csv`. A gated
//! experiment (one with an entry in [`axml_bench::GATES`]) always writes
//! its `BENCH_<E>.json` artifact, into `DIR` or else the working
//! directory, and checks its rows against its committed baseline in
//! `crates/bench/baselines`. Once the selected experiments have run,
//! `report` exits 1 if any gate failed. A name that selects no
//! experiment, or `--out` without a directory, exits 1 before anything
//! runs.

use axml_bench::experiments as ex;
use axml_services::NetProfile;
use std::path::Path;

/// Every experiment the report runs, in run order, each with the names
/// that select it on the command line (its table name first).
const EXPERIMENTS: &[&[&str]] = &[
    &["e1"],
    &["e2"],
    &["e3"],
    &["e4"],
    &["e5"],
    &["e6"],
    &["e7"],
    &["e8"],
    &["a1"],
    &["a3"],
    &["e9"],
    &["e10", "faults"],
    &["e11", "cache"],
    &["e12", "trace"],
    &["e13", "hedging"],
    &["a2"],
    &["e14", "detection"],
    &["e15", "serving"],
    &["e16", "subscriptions"],
    &["e17", "plans"],
    &["e18", "durability"],
];

/// Removes `--flag VALUE` from `args`, returning the value. A flag that is
/// last, or followed by another `--flag`, has no value: an error.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => {
            let v = v.clone();
            args.drain(i..=i + 1);
            Ok(Some(v))
        }
        _ => Err(format!("{flag} needs a value")),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out = take_value(&mut args, "--out").unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(1);
    });
    let known = |a: &String| EXPERIMENTS.iter().any(|names| names.contains(&a.as_str()));
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = EXPERIMENTS.iter().flat_map(|n| n.iter().copied()).collect();
        eprintln!(
            "report: unknown experiment {unknown:?}; known: {}",
            names.join(" ")
        );
        std::process::exit(1);
    }
    // whether the experiment whose table is `table` was selected
    let want = |table: &str| {
        let names = EXPERIMENTS
            .iter()
            .find(|names| names[0] == table)
            .unwrap_or_else(|| panic!("{table} is missing from EXPERIMENTS"));
        args.is_empty() || args.iter().any(|a| names.contains(&a.as_str()))
    };
    let write = |path: &Path, text: String| match std::fs::write(path, text) {
        Ok(()) => {
            eprintln!("report: wrote {}", path.display());
            Ok(())
        }
        Err(e) => Err(format!("writing {}: {e}", path.display())),
    };
    // prints a table, and with --out writes it as DIR/NAME.csv
    let show = |name: &str, title: &str, xname: &str, rows: &[ex::Row]| {
        ex::print_table(title, xname, rows);
        if let Some(dir) = &out {
            let path = Path::new(dir).join(format!("{name}.csv"));
            if let Err(e) = write(&path, ex::to_csv(xname, rows)) {
                eprintln!("report: {e}");
            }
        }
    };
    let mut failed: Vec<&str> = Vec::new();
    // writes a gated experiment's artifact, then checks its rows against
    // the committed baseline
    let mut gate = |experiment: &'static str, rows: &[ex::Row]| {
        let gate = ex::gate(experiment).expect("a gated experiment");
        let artifact = Path::new(out.as_deref().unwrap_or(".")).join(gate.artifact_name());
        let baseline = gate.baseline_path();
        let verdict = write(&artifact, ex::to_artifact(experiment, rows))
            .and_then(|()| {
                std::fs::read_to_string(&baseline)
                    .map_err(|e| format!("reading {}: {e}", baseline.display()))
            })
            .and_then(|text| {
                ex::parse_artifact(&text).map_err(|e| format!("{}: {e}", baseline.display()))
            })
            .and_then(|base| gate.check(rows, &base));
        let name = experiment.to_uppercase();
        match verdict {
            Ok(passed) => eprintln!("report: {name} gate — {passed} — ok"),
            Err(failure) => {
                eprintln!("report: {name} gate FAILED — {failure}");
                failed.push(experiment);
            }
        }
    };

    if want("e1") || want("e2") {
        let rows = ex::e1_e2_strategies(&[10, 50, 100, 200, 400], NetProfile::default());
        if want("e1") {
            let title = "E1 — total query evaluation time by strategy (Fig. 9-style)";
            show("e1", title, "hotels", &rows);
            gate("e1", &rows);
        }
        if want("e2") {
            let title = "E2 — service calls invoked by strategy";
            show("e2", title, "hotels", &rows);
        }
    }
    if want("e3") {
        let rows = ex::e3_exact_vs_lenient(&[0.0, 10.0, 50.0, 200.0, 500.0]);
        let title = "E3 — exact vs lenient relevance detection (accuracy/efficiency trade-off)";
        show("e3", title, "latency_ms", &rows);
    }
    if want("e4") {
        let rows = ex::e4_layering_parallel(&[10.0, 50.0, 200.0]);
        let title = "E4 — layering and condition-(✳) parallel invocation";
        show("e4", title, "latency_ms", &rows);
    }
    if want("e5") {
        let rows = ex::e5_push(&[0.05, 0.2, 0.5, 1.0]);
        let title = "E5 — pushing queries to providers";
        show("e5", title, "selectivity", &rows);
    }
    if want("e6") {
        let rows = ex::e6_fguide(&[50, 200, 800]);
        show("e6", "E6 — the function-call guide", "hotels", &rows);
    }
    if want("e7") {
        let rows = ex::e7_typing(&[0, 3, 10]);
        let title = "E7 — type-based pruning vs distractor volume";
        show("e7", title, "museums/hotel", &rows);
    }
    if want("e8") {
        let rows = ex::e8_speculation(&[10.0, 50.0, 200.0]);
        let title = "E8 — speculative invocation (§4.4 'just in case')";
        show("e8", title, "latency_ms", &rows);
    }
    if want("a1") {
        let rows = ex::a1_sat_ablation(&[2, 3, 4, 5]);
        let title = "A1 — satisfiability: exact vs lenient qualification";
        show("a1", title, "alt width", &rows);
    }
    if want("a3") {
        let rows = ex::a3_containment(&[50, 200]);
        let title = "A3 — containment pruning of call-finding queries";
        show("a3", title, "hotels", &rows);
    }
    if want("e9") {
        let rows = ex::e9_auctions(&[50, 200]);
        let title = "E9 — cross-domain sanity (auctions workload)";
        show("e9", title, "auctions", &rows);
    }
    if want("e10") {
        let rows = ex::e10_faults(&[0.0, 0.1, 0.3, 0.6]);
        let title = "E10 — fault tolerance: partial answers under permanent failures";
        show("e10", title, "fail_prob", &rows);
    }
    if want("e11") {
        let rows = ex::e11_cache(&[0.0, 150.0, 1_000_000.0]);
        let title = "E11 — cross-query call-result cache (reconstructed §7 sessions)";
        show("e11", title, "ttl_ms", &rows);
    }
    if want("e12") {
        let rows = ex::e12_trace_overhead(&[50, 100, 200]);
        let title = "E12 — tracing overhead (structured observability stream)";
        show("e12", title, "hotels", &rows);
    }
    if want("e13") {
        let rows = ex::e13_hedging_deadlines(&[15.0, 30.0, 60.0], &[50.0, 250.0, 450.0, 600.0]);
        let title = "E13 — deadline-aware evaluation: hedging and end-to-end deadlines";
        show("e13", title, "trigger/deadline_ms", &rows);
    }
    if want("a2") {
        let rows = ex::a2_nfq_evals(&[20, 50, 100]);
        show("a2", "A2 — NFQ re-evaluation counts", "hotels", &rows);
    }
    if want("e14") {
        let mut rows = ex::e14_detection(&[50, 200, 400, 4000], 20);
        let title = "E14 — production relevance detection vs the whole-document detector";
        show("e14", title, "hotels", &rows);
        let nfqa = ex::e14_nfqa(&[50, 200, 400], 2);
        let title = "E14 — sequential NFQA, production path";
        show("e14_nfqa", title, "hotels", &nfqa);
        rows.extend(nfqa);
        gate("e14", &rows);
    }
    if want("e15") {
        let rows = ex::e15_concurrent(&[1, 2, 4, 8], 16, 4);
        let title = "E15 — multi-tenant serving throughput (work-stealing session pool)";
        show("e15", title, "workers", &rows);
        gate("e15", &rows);
    }
    if want("e16") {
        let rows = ex::e16_subscriptions(&[50, 200, 400], 4_000.0);
        let title = "E16 — continuous subscriptions: delta maintenance vs full re-evaluation";
        show("e16", title, "hotels", &rows);
        gate("e16", &rows);
    }
    if want("e17") {
        let rows = ex::e17_plan_amortization(&[1, 4, 16, 64], 3);
        let title = "E17 — compiled-plan amortization (cold compile vs warm plan cache)";
        show("e17", title, "sessions", &rows);
        gate("e17", &rows);
    }
    if want("e18") {
        let mut rows = ex::e18_recovery(&[200, 1000, 4000], 2);
        let title = "E18 — durability: crash-recovery time vs write-ahead log length";
        show("e18-recovery", title, "records", &rows);
        let serve = ex::e18_wal_overhead(8, 4, 3);
        let title = "E18 — durability: WAL overhead on persistent multi-tenant serving";
        show("e18-serve", title, "sessions", &serve);
        rows.extend(serve);
        gate("e18", &rows);
    }
    if !failed.is_empty() {
        eprintln!("report: failed gates: {}", failed.join(" "));
        std::process::exit(1);
    }
}
