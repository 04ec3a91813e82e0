//! Smoke tests of the `repro` harness binary: the quick targets must run
//! to completion and print their tables.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn tab1_prints_code_inventory() {
    let out = run(&["tab1"]);
    assert!(out.contains("Table 1"));
    assert!(out.contains("minisearch"));
    assert!(out.contains("minimr"));
}

#[test]
fn fig25_and_fig26_print_share_series() {
    let out = run(&["fig25", "--quick"]);
    assert!(out.contains("fixed weights"));
    assert!(out.contains("solr share"));
    let out = run(&["fig26", "--quick"]);
    assert!(out.contains("adaptive weights"));
}

#[test]
fn unknown_target_exits_with_usage() {
    // `perf` was a target once; performance numbers now come from
    // `benchmark/run.sh` only, and the name must not quietly do something.
    for target in ["fig999", "perf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(target)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{target}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    }
}

#[test]
fn csv_export_writes_files() {
    let dir = std::env::temp_dir().join(format!("netagg-smoke-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["tab1"])
        .env("NETAGG_CSV_DIR", &dir)
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 1, "one CSV per table");
    let _ = std::fs::remove_dir_all(dir);
}
