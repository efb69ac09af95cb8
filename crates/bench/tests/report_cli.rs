//! The `report` binary's command line: a name that selects no experiment
//! fails before anything runs, so a stale name in a script or a CI step
//! cannot pass by printing nothing.

use std::process::Command;

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs")
}

#[test]
fn unknown_experiment_names_exit_1() {
    for args in [&["e99"][..], &["e1", "e99"], &["--bogus"]] {
        let out = report(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown experiment") && stderr.contains("e18"),
            "{args:?} must name the known experiments: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}
