//! Smoke tests of the `simctl` binary.

use std::process::Command;

fn simctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simctl"))
        .args(args)
        .output()
        .expect("simctl runs")
}

#[test]
fn runs_a_quick_experiment() {
    let out = simctl(&[
        "--quick",
        "--strategy",
        "netagg",
        "--flows",
        "200",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("strategy netagg"));
    assert!(text.contains("percentile"));
    assert!(text.contains("makespan"));
}

#[test]
fn every_strategy_and_deployment_parses() {
    for strategy in ["rack", "binary", "chain", "netagg", "direct"] {
        for deployment in ["all", "incremental", "core", "none"] {
            let out = simctl(&[
                "--quick",
                "--flows",
                "120",
                "--strategy",
                strategy,
                "--deployment",
                deployment,
            ]);
            assert!(
                out.status.success(),
                "{strategy}/{deployment}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = simctl(&["--strategy", "quantum"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = simctl(&["--no-such-flag"]);
    assert!(!out.status.success());
}

#[test]
fn seed_is_taken_exactly() {
    // 2^53 + 1: the first integer an f64 cannot hold. `--flows` stays
    // lenient (`1e2`), a seed does not.
    let out = simctl(&["--quick", "--flows", "1e2", "--seed", "9007199254740993"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("flows 100  seed 9007199254740993\n"),
        "{text}"
    );
    let out = simctl(&["--quick", "--seed", "1.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn csv_dump_writes_every_flow() {
    let dir = std::env::temp_dir().join("simctl_csv_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flows.csv");
    let out = simctl(&[
        "--quick",
        "--flows",
        "150",
        "--seed",
        "3",
        "--csv",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "kind,request,size_bytes,start_s,finish_s,fct_s"
    );
    let mut rows = 0;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 6, "bad row: {line}");
        let size: f64 = cols[2].parse().unwrap();
        let start: f64 = cols[3].parse().unwrap();
        let finish: f64 = cols[4].parse().unwrap();
        assert!(size > 0.0);
        assert!(finish >= start);
        rows += 1;
    }
    assert!(
        rows >= 150,
        "expected at least the workload flows, got {rows}"
    );
    // The stdout summary reports the same flow count that was dumped.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("wrote {rows} flow records")));
    std::fs::remove_file(&path).ok();
}
