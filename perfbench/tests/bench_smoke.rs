//! Runs every workload at the test-only tiny size through the `bench`
//! binary and checks its output against `BENCHMARK.json`, and checks that
//! a wrong answer fails the run.

use axml_perfbench::metrics::{ResultLine, END_TO_END, PER_LAYER};
use axml_perfbench::workloads::Workload;
use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

fn result_line(out: &str) -> ResultLine {
    let last = out.lines().last().expect("some output");
    ResultLine::parse(last).unwrap_or_else(|| panic!("last line is a result line: {last}"))
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let spans = format!("{}/spans.jsonl", env!("CARGO_TARGET_TMPDIR"));
    for w in Workload::ALL {
        let name = w.name();
        let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        for (trace, declared) in [("0", declared), (spans.as_str(), layers)] {
            let (ok, out) = bench(&[
                "--workload",
                name,
                "--tiny",
                "--seed",
                "3",
                "--trace",
                trace,
            ]);
            assert!(ok, "{name} --trace {trace} failed:\n{out}");
            let line = result_line(&out);
            assert!(line.correct, "{name}");
            assert_eq!(line.failed, 0, "{name}: failed_frac is 0");
            assert!(line.attempted >= 1);
            let printed: Vec<(&str, &str)> = line
                .metrics
                .iter()
                .map(|(n, v, u)| {
                    assert!(v.is_finite(), "{name} {n}: {v}");
                    (n.as_str(), u.as_str())
                })
                .collect();
            assert_eq!(printed, declared, "{name}: exactly the declared metrics");
            for (metric, unit) in declared {
                assert!(
                    out.lines()
                        .any(|l| l.split_whitespace().next() == Some(metric) && l.contains(unit)),
                    "{name}: the table lacks {metric} in {unit}"
                );
            }
            if trace != "0" {
                assert!(out.contains("self time by layer"), "{out}");
                assert!(out.contains("(probe)"), "{name}: probes are marked");
                let text = std::fs::read_to_string(&spans).expect("spans written");
                assert!(!text.is_empty(), "{name} recorded no spans");
                for l in text.lines() {
                    assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
                    for k in [
                        "workload",
                        "name",
                        "op_id",
                        "span_id",
                        "parent_id",
                        "start_ns",
                        "end_ns",
                        "attrs",
                    ] {
                        assert!(l.contains(&format!("\"{k}\": ")), "span lacks {k}: {l}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_wrong_answer_fails_the_run() {
    for w in Workload::ALL {
        let (ok, out) = bench(&["--workload", w.name(), "--tiny", "--inject-wrong"]);
        assert!(!ok, "{} accepted a wrong answer:\n{out}", w.name());
        let line = result_line(&out);
        assert!(!line.correct);
        assert!(line.failed >= 1);
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let text = benchmark_json();
    for key in [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ] {
        assert_eq!(text.matches(&format!("\"{key}\": ")).count(), 1, "{key}");
    }
    let mut entries = 0;
    for w in Workload::ALL {
        entries += 1;
        let entry = format!("{{\"name\": \"{}\", \"why\": \"", w.name());
        assert!(text.contains(&entry), "{entry}");
    }
    for m in END_TO_END {
        entries += 1;
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        assert!(text.contains(&entry), "{entry}");
    }
    for m in PER_LAYER {
        entries += 1;
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(text.contains(&entry), "{entry}");
    }
    assert_eq!(text.matches("{\"name\": ").count(), entries);
}
