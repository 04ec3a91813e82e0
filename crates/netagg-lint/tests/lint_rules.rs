//! The rule is proven to fire (with the exact span) on its fixture, the
//! workspace is proven clean, and vendored code is proven out of scope.

use netagg_lint::{lint_source, lint_workspace};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn no_poll_shutdown_anchors_at_the_poll_call() {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/poll_shutdown.rs");
    let src = fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let diags = lint_source("crates/x/src/poll_shutdown.rs", &src);
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![9, 19], "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "no-poll-shutdown"));
    // Spans carry a real column, not a placeholder.
    assert!(diags.iter().all(|d| d.col > 1));
}

#[test]
fn workspace_is_clean() {
    let diags = lint_workspace(&workspace_root()).unwrap();
    assert!(
        diags.is_empty(),
        "violations or stale suppressions: {diags:?}"
    );
}

/// A throwaway workspace root with a polling shutdown loop planted at `rel`.
fn planted_root(tag: &str, rel: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("netagg-lint-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let planted = root.join(rel);
    fs::create_dir_all(planted.parent().unwrap()).unwrap();
    let src = "fn f(c: &C) { while !c.is_cancelled() { std::thread::sleep(TICK); } }\n";
    fs::write(planted, src).unwrap();
    root
}

#[test]
fn planted_violation_fires_under_crates_but_not_under_vendor() {
    let root = planted_root("crates", "crates/x/src/evil.rs");
    let diags = lint_workspace(&root).unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "no-poll-shutdown");
    let _ = fs::remove_dir_all(&root);

    let root = planted_root("vendor", "vendor/evil/src/evil.rs");
    let diags = lint_workspace(&root).unwrap();
    assert!(diags.is_empty(), "vendored code was linted: {diags:?}");
    let _ = fs::remove_dir_all(&root);
}
