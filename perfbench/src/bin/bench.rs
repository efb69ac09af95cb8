//! `bench` — runs the AXML benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|PATH]
//!       [--json PATH] [--repeat N]
//! ```
//!
//! Without `--workload` every workload runs, one after another. Each
//! workload runs in a fresh child process of this binary, so its peak
//! memory is its own; this process computes the reference answers first
//! and hands the child their hashes. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--seconds` sets how many windows each workload measures: the count
//! its windows take at the reference speed to fill that time. It is not a
//! deadline, so a slow machine or a slow commit measures the same ops.

use axml_perfbench::metrics::{json_number, ResultLine, END_TO_END};
use axml_perfbench::stats::{median, quartiles};
use axml_perfbench::trace::{root_time_ms, self_times_ms, to_jsonl};
use axml_perfbench::workloads::{references, run, Params, Size, Workload};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1|PATH] [--json PATH] [--repeat N]";

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where traced runs append their spans as JSONL (`--trace PATH`).
    spans: Option<String>,
    json: Option<String>,
    repeat: Option<usize>,
    size: Size,
    /// Internal: run one workload in this process.
    child: bool,
    /// Internal: reference answer hashes for the child.
    refs: Vec<u64>,
    /// Test hook: make the first measured check expect a wrong answer.
    inject_wrong: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        json: None,
        repeat: None,
        size: Size::Full,
        child: false,
        refs: Vec::new(),
        inject_wrong: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => a.size = Size::Tiny,
            "--child" => a.child = true,
            "--inject-wrong" => a.inject_wrong = true,
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
                let bad = || format!("{flag}: bad value {value:?}");
                match flag.as_str() {
                    "--workload" => {
                        a.workloads = vec![Workload::parse(value).ok_or_else(|| {
                            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                            format!("unknown workload {value:?} (one of {})", names.join(", "))
                        })?]
                    }
                    "--seed" => a.seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        a.seconds = value
                            .parse()
                            .ok()
                            .filter(|s: &f64| s.is_finite() && *s > 0.0)
                            .ok_or_else(bad)?
                    }
                    "--trace" => match value.as_str() {
                        "0" => a.trace = false,
                        "1" => a.trace = true,
                        path => {
                            a.trace = true;
                            a.spans = Some(path.to_string());
                        }
                    },
                    "--json" => a.json = Some(value.clone()),
                    "--repeat" => {
                        a.repeat = Some(value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?)
                    }
                    "--refs" => {
                        a.refs = value
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(|s| s.parse().map_err(|_| bad()))
                            .collect::<Result<_, _>>()?
                    }
                    _ => return Err(format!("unknown flag {flag}")),
                }
            }
        }
    }
    if a.child && a.workloads.len() != 1 {
        return Err("--child needs --workload".into());
    }
    Ok(a)
}

fn params(a: &Args, workload: Workload, seed: u64) -> Params {
    let windows = match a.size {
        Size::Full => workload.windows(a.seconds),
        Size::Tiny => 1 + a.trace as usize,
    };
    Params {
        workload,
        seed,
        windows,
        trace: a.trace,
        size: a.size,
    }
}

/// Runs one workload in this process and prints its report; the exit
/// code is nonzero on any wrong answer or failed op.
fn child(a: &Args) -> Result<bool, String> {
    let p = params(a, a.workloads[0], a.seed);
    let outcome = run(&p, &a.refs, a.inject_wrong);
    let report = &outcome.report;
    print!("{}", report.table());
    if p.trace {
        let root = root_time_ms(&outcome.spans);
        println!("-- self time by layer over {root:.3} ms of op spans:");
        for (layer, self_ms) in self_times_ms(&outcome.spans) {
            println!("   {layer:<10} {self_ms:>12.3} ms");
        }
        if let Some(path) = &a.spans {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            f.write_all(to_jsonl(p.workload.name(), &outcome.spans).as_bytes())
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    println!("detail: {}", report.json_detail(p.seed));
    println!("{}", report.json_line());
    Ok(report.correct && report.failed == 0)
}

/// Computes `workload`'s references here, then runs it in a child
/// process and returns whether it passed and its standard output.
fn spawn(a: &Args, workload: Workload, seed: u64) -> Result<(bool, String), String> {
    let p = params(a, workload, seed);
    let refs: Vec<String> = references(&p).iter().map(u64::to_string).collect();
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--refs", &refs.join(",")]);
    cmd.args(match (&a.spans, a.trace) {
        (Some(path), _) => ["--trace", path.as_str()],
        (None, true) => ["--trace", "1"],
        (None, false) => ["--trace", "0"],
    });
    if a.size == Size::Tiny {
        cmd.arg("--tiny");
    }
    if a.inject_wrong {
        cmd.arg("--inject-wrong");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", workload.name()))?;
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// The result line of a child's output, and its detail line.
fn result_lines(out: &str) -> Result<(ResultLine, Option<&str>), String> {
    let last = out.lines().last().ok_or("no output")?;
    let detail = out.lines().find_map(|l| l.strip_prefix("detail: "));
    let line = ResultLine::parse(last).ok_or_else(|| format!("not a result line: {last}"))?;
    Ok((line, detail))
}

/// Runs the selected workloads once. One workload's output passes
/// through unchanged; several get one combined result line.
fn once(a: &Args) -> Result<bool, String> {
    if let Some(path) = &a.spans {
        std::fs::write(path, "").map_err(|e| format!("{path}: {e}"))?;
    }
    let single = a.workloads.len() == 1;
    let mut ok = true;
    let mut outputs = Vec::new();
    for &w in &a.workloads {
        let (good, out) = spawn(a, w, a.seed)?;
        ok &= good;
        for line in out.lines() {
            if single || !(line.starts_with('{') || line.starts_with("detail: ")) {
                println!("{line}");
            }
        }
        outputs.push(out);
    }
    let mut details = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for (w, out) in a.workloads.iter().zip(&outputs) {
        let (line, detail) = result_lines(out)?;
        details.extend(detail);
        correct &= line.correct;
        attempted += line.attempted;
        failed += line.failed;
        for (name, v, unit) in line.metrics {
            metrics.push(format!(
                "\"{}.{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                w.name(),
                json_number(v)
            ));
        }
    }
    if let Some(path) = &a.json {
        std::fs::write(path, format!("[\n{}\n]\n", details.join(",\n")))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if !single {
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
    }
    Ok(ok)
}

/// Runs the selected workloads `n` times, rotating which runs first and
/// using seeds `seed`, `seed + 1`, ...; prints each metric's median,
/// quartiles and spread ((q3 - q1) / median), flagging end-to-end
/// metrics whose spread exceeds their bound.
fn repeat(a: &Args, n: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut values: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    for r in 0..n {
        let k = a.workloads.len();
        for i in 0..k {
            let wi = (i + r) % k;
            let w = a.workloads[wi];
            let seed = a.seed + r as u64;
            let (good, out) = spawn(a, w, seed)?;
            ok &= good;
            let (line, _) = result_lines(&out)?;
            println!(
                "run {} {} seed {seed}: {}",
                r + 1,
                w.name(),
                out.lines().last().unwrap_or("")
            );
            for (name, v, unit) in line.metrics {
                values
                    .entry((wi, name))
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(v);
            }
        }
    }
    println!(
        "{:<15} {:<34} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for ((wi, name), (unit, vs)) in &values {
        let med = median(vs);
        let (q1, q3) = quartiles(vs).unwrap_or((med, med));
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
        let flag = match bound {
            Some(b) if spread > b => "  SPREAD OVER BOUND",
            _ => "",
        };
        println!(
            "{:<15} {:<34} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6} {unit}{flag}",
            a.workloads[*wi].name(),
            name,
            med,
            q1,
            q3,
            spread,
            bound.map_or("-".to_string(), |b| b.to_string()),
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if a.child {
        child(&a)
    } else if let Some(n) = a.repeat {
        repeat(&a, n)
    } else {
        once(&a)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
