//! The `report` binary's command line: a name that selects no experiment,
//! or `--out` without its directory, fails before anything runs, so a
//! stale name in a script or a CI step cannot pass by printing nothing.

use std::path::Path;
use std::process::Command;

fn report_in(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("report runs")
}

#[test]
fn unknown_experiment_names_exit_1() {
    for args in [&["e99"][..], &["e1", "e99"], &["--bogus"]] {
        let out = report_in(Path::new("."), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown experiment") && stderr.contains("e18"),
            "{args:?} must name the known experiments: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}

#[test]
fn out_without_a_directory_exits_1_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in [&["a1", "--out"][..], &["--out", "--bogus", "a1"]] {
        let out = report_in(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--out"),
            "{args:?} must name the flag: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    std::fs::remove_dir(&dir).unwrap();
}
