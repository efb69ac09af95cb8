//! Integration tests for the `axml` CLI binary: file-driven workloads
//! (document + world file + schema) through the real executable.

use std::io::Write;
use std::process::Command;

fn axml() -> Command {
    Command::new(env!("CARGO_BIN_EXE_axml"))
}

struct TempFiles {
    dir: std::path::PathBuf,
}

impl TempFiles {
    fn new(tag: &str) -> TempFiles {
        let dir = std::env::temp_dir().join(format!("axml-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempFiles { dir }
    }

    fn write(&self, name: &str, content: &str) -> String {
        let path = self.dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const DOC: &str = r#"<hotels>
  <hotel><name>Best Western</name><address>a1</address>
    <rating><axml:call service="getRating">a1</axml:call></rating>
    <nearby><axml:call service="getNearbyRestos">a1</axml:call></nearby>
  </hotel>
  <hotel><name>Pennsylvania</name><address>a2</address>
    <rating><axml:call service="getRating">a2</axml:call></rating>
    <nearby><axml:call service="getNearbyRestos">a2</axml:call></nearby>
  </hotel>
</hotels>"#;

const WORLD: &str = r#"<world>
  <service name="getRating">
    <entry key="a1"><result>*****</result></entry>
    <entry key="a2"><result>**</result></entry>
  </service>
  <service name="getNearbyRestos">
    <entry key="a1"><result><restaurant><name>In Delis</name><address>x</address><rating>*****</rating></restaurant></result></entry>
    <entry key="a2"><result><restaurant><name>Penn Grill</name><address>y</address><rating>*****</rating></restaurant></result></entry>
  </service>
</world>"#;

const SCHEMA: &str = "root hotels\n\
function getRating       = in: data, out: data\n\
function getNearbyRestos = in: data, out: restaurant*\n\
element hotels     = hotel*\n\
element hotel      = name.address.rating.nearby\n\
element nearby     = (restaurant | getNearbyRestos)*\n\
element restaurant = name.address.rating\n\
element name       = data\n\
element address    = data\n\
element rating     = (data | getRating)\n";

const QUERY: &str = "/hotels/hotel[rating=\"*****\"]/nearby//restaurant[name=$X] -> $X";

#[test]
fn query_command_produces_results_xml() {
    let t = TempFiles::new("query");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let schema = t.write("schema.txt", SCHEMA);
    let out = axml()
        .args([
            "query", "--doc", &doc, "--world", &world, "--schema", &schema, "--query", QUERY,
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<x>In Delis</x>"), "{stdout}");
    assert!(!stdout.contains("Penn Grill"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("calls: 3"), "{stderr}");
}

#[test]
fn query_out_doc_prints_partially_materialized_document() {
    let t = TempFiles::new("outdoc");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let out = axml()
        .args([
            "query", "--doc", &doc, "--world", &world, "--query", QUERY, "--out", "doc",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // the lazy document has In Delis materialized and the Pennsylvania
    // restaurants call still pending
    assert!(stdout.contains("In Delis"), "{stdout}");
    assert!(stdout.contains("axml:call"), "{stdout}");
}

#[test]
fn validate_command() {
    let t = TempFiles::new("validate");
    let doc = t.write("doc.xml", DOC);
    let schema = t.write("schema.txt", SCHEMA);
    let out = axml()
        .args(["validate", "--doc", &doc, "--schema", &schema])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid"));

    let bad = t.write("bad.xml", "<hotels><mystery/></hotels>");
    let out = axml()
        .args(["validate", "--doc", &bad, "--schema", &schema])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mystery"));
}

#[test]
fn termination_command() {
    let t = TempFiles::new("term");
    let doc = t.write("doc.xml", DOC);
    let schema = t.write("schema.txt", SCHEMA);
    let out = axml()
        .args(["termination", "--doc", &doc, "--schema", &schema])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("terminates"));

    let loopy_schema = t.write(
        "loopy.txt",
        "function f = in: data, out: f?\nelement hotels = data\n",
    );
    let loopy_doc = t.write("loopy.xml", "<hotels><axml:call service=\"f\"/></hotels>");
    let out = axml()
        .args([
            "termination",
            "--doc",
            &loopy_doc,
            "--schema",
            &loopy_schema,
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("diverges"));
}

#[test]
fn materialize_command() {
    let t = TempFiles::new("mat");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let out = axml()
        .args(["materialize", "--doc", &doc, "--world", &world])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("axml:call"),
        "fully materialized: {stdout}"
    );
    assert!(stdout.contains("Penn Grill"));
}

#[test]
fn explain_command() {
    let out = axml().args(["explain", "--query", QUERY]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LPQs"));
    assert!(stdout.contains("NFQs"));
    assert!(stdout.contains("influence layers"));
}

#[test]
fn helpful_errors() {
    let out = axml().args(["query"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--doc"));

    let out = axml().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = axml().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));

    // an option the subcommand does not accept — unknown, misspelt,
    // deleted, or another subcommand's — fails naming the first one, and
    // a valued option without its value fails naming that option
    let t = TempFiles::new("errors");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let query = ["query", "--doc", &doc, "--world", &world, "--query", QUERY];
    let validate = ["validate", "--doc", &doc, "--schema", &doc];
    let cases: &[(&[&str], &[&str], &str)] = &[
        (
            &query,
            &["--bogus-flag", "--no-interning", "--stats"],
            "--bogus-flag",
        ),
        (&query, &["--no-paralel"], "--no-paralel"),
        (&query, &["--fguide"], "--fguide"),
        (&query, &["--watch-ms", "5"], "--watch-ms"),
        (&query, &["--stats", "--retries"], "--retries"),
        (&query, &["--retries", "--stats"], "--retries"),
        (&validate, &["--stats"], "--stats"),
        (&["explain", "--query", QUERY], &["--push"], "--push"),
    ];
    for (base, extra, named) in cases {
        let out = axml().args(*base).args(*extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{extra:?} must name {named}: {stderr}"
        );
    }
}

#[test]
fn trace_json_is_deterministic_and_parses_back() {
    let t = TempFiles::new("trace");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let schema = t.write("schema.txt", SCHEMA);
    let run = |out_name: &str| {
        let trace = t.dir.join(out_name).to_string_lossy().into_owned();
        let out = axml()
            .args([
                "query",
                "--doc",
                &doc,
                "--world",
                &world,
                "--schema",
                &schema,
                "--query",
                QUERY,
                "--threads",
                "--fault-seed",
                "1",
                "--trace-json",
                &trace,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&trace).unwrap()
    };
    let first = run("a.jsonl");
    let second = run("b.jsonl");
    assert_eq!(
        first, second,
        "same-seed traces must be byte-identical (threaded batches included)"
    );
    let events = activexml::obs::parse_jsonl(&first).expect("trace parses back");
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, activexml::obs::EventKind::QueryEnd { .. })));
    let violations = activexml::obs::check_all(&events, None);
    assert!(
        violations.is_empty(),
        "CLI trace fails the oracle:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn relevant_command_lists_relevant_calls() {
    let t = TempFiles::new("relevant");
    let doc = t.write("doc.xml", DOC);
    let schema = t.write("schema.txt", SCHEMA);
    let out = axml()
        .args([
            "relevant", "--doc", &doc, "--schema", &schema, "--query", QUERY,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("of 4 embedded calls"), "{stdout}");
    assert!(stdout.contains("getNearbyRestos"), "{stdout}");
}

#[test]
fn deadline_flag_degrades_to_a_partial_answer_with_a_distinct_cause() {
    let t = TempFiles::new("deadline");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let out = axml()
        .args([
            "query",
            "--doc",
            &doc,
            "--world",
            &world,
            "--query",
            QUERY,
            "--deadline-ms",
            "0",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("partial answer"), "{stderr}");
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
    assert!(
        stderr.contains("[DEADLINE]"),
        "stats marker missing: {stderr}"
    );
}

#[test]
fn hedge_and_shed_flags_keep_traces_deterministic() {
    let t = TempFiles::new("hedge");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let schema = t.write("schema.txt", SCHEMA);
    let run = |out_name: &str| {
        let trace = t.dir.join(out_name).to_string_lossy().into_owned();
        let out = axml()
            .args([
                "query",
                "--doc",
                &doc,
                "--world",
                &world,
                "--schema",
                &schema,
                "--query",
                QUERY,
                "--threads",
                "--fault-seed",
                "1",
                "--latency-ms",
                "40",
                "--deadline-ms",
                "5000",
                "--hedge-threshold-ms",
                "10",
                "--shed-inflight",
                "1",
                "--trace",
                "--trace-json",
                &trace,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(&trace).unwrap(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (first, stderr) = run("a.jsonl");
    let (second, _) = run("b.jsonl");
    assert_eq!(
        first, second,
        "same-seed hedged traces must be byte-identical (threaded batches included)"
    );
    let events = activexml::obs::parse_jsonl(&first).expect("trace parses back");
    let hedges = events
        .iter()
        .filter(|e| matches!(e.kind, activexml::obs::EventKind::Hedge { .. }))
        .count();
    let sheds = events
        .iter()
        .filter(|e| matches!(e.kind, activexml::obs::EventKind::Shed { .. }))
        .count();
    assert!(hedges > 0, "a 10 ms trigger under 40 ms latency must hedge");
    assert!(sheds > 0, "an in-flight limit of 1 must shed");
    assert!(
        stderr.contains("[HEDGED]"),
        "trace marker missing: {stderr}"
    );
    let violations = activexml::obs::check_all(&events, None);
    assert!(
        violations.is_empty(),
        "CLI hedged trace fails the oracle:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `--trace` prints one line per `invocation` event of the structured
/// stream, in order, and marks `[HEDGED]` exactly the calls a `hedge`
/// event names. A 60 ms trigger under 40 ms latency hedges only the calls
/// fault seed 6 slows, so hedged and unhedged lines interleave.
#[test]
fn trace_lines_mark_exactly_the_hedged_calls() {
    use activexml::obs::EventKind;

    let t = TempFiles::new("trace-lines");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let schema = t.write("schema.txt", SCHEMA);
    let trace = t.dir.join("t.jsonl").to_string_lossy().into_owned();
    let out = axml()
        .args([
            "query",
            "--doc",
            &doc,
            "--world",
            &world,
            "--schema",
            &schema,
            "--query",
            QUERY,
            "--threads",
            "--fault-seed",
            "6",
            "--latency-ms",
            "40",
            "--hedge-threshold-ms",
            "60",
            "--trace",
            "--trace-json",
            &trace,
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let events = activexml::obs::parse_jsonl(&std::fs::read_to_string(&trace).unwrap())
        .expect("trace parses back");
    let hedged: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Hedge { call, .. } => Some(call),
            _ => None,
        })
        .collect();
    // (service, hedged) per invocation, from the stream and from the lines
    let expected: Vec<(String, bool)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Invocation { service, call, .. } => {
                Some((service.clone(), hedged.contains(call)))
            }
            _ => None,
        })
        .collect();
    let printed: Vec<(String, bool)> = stderr
        .lines()
        .filter(|l| l.starts_with("round"))
        .map(|l| {
            let service = l.split_whitespace().nth(2).unwrap_or_default();
            (service.to_string(), l.contains("[HEDGED]"))
        })
        .collect();
    assert_eq!(printed, expected, "--trace lines disagree:\n{stderr}");
    assert!(
        expected.iter().any(|(_, h)| *h) && expected.iter().any(|(_, h)| !*h),
        "the run must mix hedged and unhedged calls:\n{stderr}"
    );
}

/// Two identical `session` runs with the plan cache warm (the second
/// `--query` repeats the first, so its plan fetch is a hit) must emit
/// byte-identical trace JSONL — and the same bytes again with
/// `--plan-cache-capacity 0`, which compiles every query without storing
/// it, because the compiled-plan layer is trace-invisible.
#[test]
fn session_traces_are_deterministic_with_a_warm_plan_cache() {
    let t = TempFiles::new("session-plans");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let run = |out_name: &str, extra: &[&str]| {
        let trace = t.dir.join(out_name).to_string_lossy().into_owned();
        let mut args = vec![
            "session",
            "--doc",
            &doc,
            "--world",
            &world,
            "--query",
            QUERY,
            "--query",
            QUERY,
            "--trace-json",
            &trace,
        ];
        args.extend_from_slice(extra);
        let out = axml().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(&trace).unwrap(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (first, stdout) = run("a.jsonl", &[]);
    let (second, _) = run("b.jsonl", &[]);
    assert_eq!(
        first, second,
        "same session runs with a plan cache must trace identically"
    );
    // the repeated query hit the cached plan, and the summary says so
    assert!(
        stdout.contains("== plans: 1 compiled, 1 hits / 1 misses"),
        "plan summary missing or wrong:\n{stdout}"
    );
    let (without, stdout_off) = run("c.jsonl", &["--plan-cache-capacity", "0"]);
    assert_eq!(
        first, without,
        "a plan cache that stores nothing changed the session trace"
    );
    assert!(
        stdout_off.contains("== plans: 2 compiled, 0 hits / 2 misses"),
        "--plan-cache-capacity 0 still reused a plan:\n{stdout_off}"
    );
    let events = activexml::obs::parse_jsonl(&first).expect("trace parses back");
    let violations = activexml::obs::check_all(&events, None);
    assert!(
        violations.is_empty(),
        "session trace fails the oracle:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `--durable DIR` persists the session's publications; a second run
/// against the same directory recovers the materialized document and
/// serves the same answer without re-invoking anything, and
/// `axml recover` replays the log standalone.
#[test]
fn durable_session_recovers_across_runs() {
    let t = TempFiles::new("durable");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let store = t.dir.join("store").to_string_lossy().into_owned();
    let run = || {
        axml()
            .args([
                "session",
                "--doc",
                &doc,
                "--world",
                &world,
                "--query",
                QUERY,
                "--persist",
                "--durable",
                &store,
            ])
            .output()
            .unwrap()
    };
    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("In Delis"), "{stdout}");
    assert!(stdout.contains("== wal:"), "{stdout}");
    assert!(
        !stdout.contains("== recovery:"),
        "fresh dir must not recover"
    );

    let second = run();
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(stdout.contains("== recovery:"), "{stdout}");
    assert!(stdout.contains("-- recovered doc: v"), "{stdout}");
    assert!(
        stdout.contains("In Delis"),
        "recovered state answers: {stdout}"
    );
    assert!(
        stdout.contains("calls=0"),
        "recovered materialized doc needs no re-invocation: {stdout}"
    );

    let out = axml().args(["recover", &store]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== recovery:"), "{stdout}");
    assert!(stdout.contains("log intact"), "{stdout}");
}

/// Satellite robustness contract: a missing store directory is a nonzero
/// exit with a one-line diagnostic, and a corrupt log names the file and
/// byte offset — the CLI never panics and never silently serves an empty
/// store in place of data it failed to read.
#[test]
fn recover_missing_or_corrupt_store_fails_with_a_diagnostic() {
    let t = TempFiles::new("recover-robust");
    let missing = t.dir.join("nosuch").to_string_lossy().into_owned();
    let out = axml().args(["recover", &missing]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not exist"), "{stderr}");

    let empty = t.dir.join("empty").to_string_lossy().into_owned();
    std::fs::create_dir_all(&empty).unwrap();
    let out = axml().args(["recover", &empty]).output().unwrap();
    assert!(!out.status.success(), "an empty dir has nothing to recover");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no write-ahead logs"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A log that is garbage from byte 0 has no intact checkpoint prefix:
    // both `recover` and a durable session must refuse with the offset.
    let corrupt = t.dir.join("corrupt");
    std::fs::create_dir_all(&corrupt).unwrap();
    std::fs::write(corrupt.join("doc.wal"), b"this is not a wal").unwrap();
    let corrupt = corrupt.to_string_lossy().into_owned();
    let out = axml().args(["recover", &corrupt]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("doc.wal"), "{stderr}");
    assert!(stderr.contains("offset 0"), "{stderr}");

    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let out = axml()
        .args([
            "session",
            "--doc",
            &doc,
            "--world",
            &world,
            "--query",
            QUERY,
            "--persist",
            "--durable",
            &corrupt,
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a corrupt store must not serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("offset 0"), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("-- query"),
        "must not evaluate over a store it failed to recover"
    );
}

/// A torn tail (crash mid-append) is recoverable: replay stops at the
/// first invalid frame, reports the offset, and exits 0 with everything
/// acknowledged before it intact.
#[test]
fn recover_truncates_a_torn_tail_and_reports_the_offset() {
    let t = TempFiles::new("torn-tail");
    let doc = t.write("doc.xml", DOC);
    let world = t.write("world.xml", WORLD);
    let store = t.dir.join("store").to_string_lossy().into_owned();
    let out = axml()
        .args([
            "session",
            "--doc",
            &doc,
            "--world",
            &world,
            "--query",
            QUERY,
            "--persist",
            "--durable",
            &store,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Tear the log: a partial frame header dangles past the good prefix.
    let wal = std::path::Path::new(&store).join("doc.wal");
    let good_len = std::fs::metadata(&wal).unwrap().len();
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x55, 0x55, 0x55]);
    std::fs::write(&wal, &bytes).unwrap();

    let out = axml().args(["recover", &store]).output().unwrap();
    assert!(
        out.status.success(),
        "a torn tail is recoverable: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("truncated at offset {good_len}")),
        "{stdout}"
    );
    assert!(stdout.contains("torn tail discarded"), "{stdout}");

    // Recovery truncated the file back to the acknowledged prefix, so a
    // second replay sees an intact log (idempotence, through the CLI).
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), good_len);
    let again = axml().args(["recover", &store]).output().unwrap();
    assert!(again.status.success());
    assert!(
        String::from_utf8_lossy(&again.stdout).contains("log intact"),
        "{}",
        String::from_utf8_lossy(&again.stdout)
    );
}
