//! Fixture tests: every rule is proven to fire (with the exact span), the
//! clean fixture is proven silent, suppressions work, and the §7 ⇄
//! `names.rs` sync check fails on either direction of drift.

use netagg_lint::contract::Contract;
use netagg_lint::{lint_source, lint_workspace, Diagnostic, Level};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// A small but representative contract: one plain metric, three templated
/// ones, the event kinds, two span names, and two thread rows.
fn mini_contract() -> Contract {
    Contract::from_sources(
        "### Metrics contract\n\
         | Name | Type |\n|---|---|\n\
         | `aggbox.tasks_executed` | counter |\n\
         | `aggbox.messages_in` | counter |\n\
         | `mailbox.depth.<name>` | gauge |\n\
         | `net.link.<from>-><to>.frames` | counter |\n\
         ### Structured events\n\
         | Kind | When |\n|---|---|\n\
         | `failure` | declared |\n\
         | `repoint` | re-pointed |\n\
         ### Span and stage names\n\
         | Span | Recorded by |\n|---|---|\n\
         | `span.worker.send` | worker shim |\n\
         | `span.wire.transfer` | receiving hop |\n\
         ### Thread inventory\n\
         | Thread name | Owner |\n|---|---|\n\
         | `aggbox-<b>-listen` | `AggBox` |\n\
         | `master-shim-<a>` | `MasterShim` |\n",
        "pub const AGGBOX_TASKS_EXECUTED: &str = \"aggbox.tasks_executed\";\n\
         pub const AGGBOX_MESSAGES_IN: &str = \"aggbox.messages_in\";\n\
         pub const MAILBOX_DEPTH: &str = \"mailbox.depth.<name>\";\n\
         pub const NET_LINK_FRAMES: &str = \"net.link.<from>-><to>.frames\";\n\
         pub const EVENT_FAILURE: &str = \"failure\";\n\
         pub const EVENT_REPOINT: &str = \"repoint\";\n\
         pub const WORKER_SEND: &str = \"span.worker.send\";\n\
         pub const WIRE_TRANSFER: &str = \"span.wire.transfer\";\n",
    )
}

fn run(name: &str) -> Vec<Diagnostic> {
    // A production-looking path, so every rule applies.
    lint_source(
        &format!("crates/x/src/{name}"),
        &fixture(name),
        &mini_contract(),
    )
}

fn spans(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn no_raw_spawn_fires_on_each_form_with_spans() {
    let diags = run("raw_spawn.rs");
    assert_eq!(spans(&diags, "no-raw-spawn"), vec![5, 6, 7], "{diags:?}");
    assert!(
        diags.iter().all(|d| d.rule == "no-raw-spawn"),
        "no other rule may fire on this fixture: {diags:?}"
    );
    // Spans carry a real column, not a placeholder.
    assert!(diags.iter().all(|d| d.col > 1));
}

#[test]
fn no_unbounded_channel_fires_on_std_and_crossbeam() {
    let diags = run("unbounded.rs");
    assert_eq!(
        spans(&diags, "no-unbounded-channel"),
        vec![5, 6, 7],
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.rule == "no-unbounded-channel"));
}

#[test]
fn no_poll_shutdown_anchors_at_the_poll_call() {
    let diags = run("poll_shutdown.rs");
    assert_eq!(spans(&diags, "no-poll-shutdown"), vec![9, 19], "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "no-poll-shutdown"));
}

#[test]
fn metrics_contract_flags_hardcoded_unknown_and_event_names() {
    let diags = run("metric_names.rs");
    assert_eq!(
        spans(&diags, "metrics-contract"),
        vec![5, 6, 7, 8],
        "{diags:?}"
    );
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs[0].contains("AGGBOX_TASKS_EXECUTED"), "{:?}", msgs[0]);
    assert!(msgs[1].contains("MAILBOX_DEPTH"), "{:?}", msgs[1]);
    assert!(msgs[2].contains("not in the DESIGN.md §7 contract"));
    assert!(msgs[3].contains("event"), "{:?}", msgs[3]);
}

#[test]
fn metrics_contract_flags_hardcoded_and_unknown_span_names() {
    let diags = run("span_names.rs");
    assert_eq!(spans(&diags, "metrics-contract"), vec![5, 6], "{diags:?}");
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs[0].contains("WORKER_SEND"), "{:?}", msgs[0]);
    assert!(
        msgs[1].contains("not in the DESIGN.md §11 contract"),
        "{:?}",
        msgs[1]
    );
}

#[test]
fn thread_inventory_flags_names_outside_the_table() {
    let diags = run("thread_names.rs");
    assert_eq!(spans(&diags, "thread-inventory"), vec![5, 6], "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "thread-inventory"));
}

#[test]
fn clean_fixture_produces_zero_findings() {
    let diags = run("clean.rs");
    assert!(diags.is_empty(), "false positives: {diags:?}");
}

#[test]
fn suppressions_cover_standalone_and_trailing_and_stale_is_an_error() {
    let diags = run("suppressed.rs");
    assert!(
        !diags.iter().any(|d| d.rule == "no-raw-spawn"),
        "both spawns are suppressed: {diags:?}"
    );
    let stale: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "unused-suppression")
        .collect();
    assert_eq!(stale.len(), 1, "{diags:?}");
    assert_eq!(stale[0].line, 10);
    assert_eq!(
        stale[0].level,
        Level::Error,
        "stale allows must fail the gate"
    );
}

#[test]
fn naming_rules_relax_in_test_paths_but_spawn_rules_do_not() {
    let c = mini_contract();
    let src = fixture("thread_names.rs");
    let diags = lint_source("crates/x/tests/thread_names.rs", &src, &c);
    assert!(diags.is_empty(), "{diags:?}");
    let spawn = fixture("raw_spawn.rs");
    let diags = lint_source("crates/x/tests/raw_spawn.rs", &spawn, &c);
    assert_eq!(spans(&diags, "no-raw-spawn"), vec![5, 6, 7]);
}

#[test]
fn lifecycle_module_is_exempt_from_raw_spawn_only() {
    let c = mini_contract();
    let src = fixture("raw_spawn.rs");
    let diags = lint_source("crates/netagg-net/src/lifecycle.rs", &src, &c);
    assert!(!diags.iter().any(|d| d.rule == "no-raw-spawn"), "{diags:?}");
}

// ---------------------------------------------------------------------------
// Contract-sync drift
// ---------------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn real_sources() -> (String, String) {
    let root = workspace_root();
    (
        fs::read_to_string(root.join("DESIGN.md")).unwrap(),
        fs::read_to_string(root.join("crates/netagg-obs/src/names.rs")).unwrap(),
    )
}

fn sync_errors(design: &str, names: &str) -> Vec<Diagnostic> {
    let c = Contract::from_sources(design, names);
    let mut out = Vec::new();
    netagg_lint::rules::metrics_contract_sync(&c, &mut out);
    out
}

#[test]
fn real_contract_is_in_sync() {
    let (design, names) = real_sources();
    let errs = sync_errors(&design, &names);
    assert!(errs.is_empty(), "drift: {errs:?}");
}

#[test]
fn deleting_any_metric_row_fails_the_gate() {
    let (design, names) = real_sources();
    let c = Contract::from_sources(&design, &names);
    for entry in c
        .metrics
        .iter()
        .chain(c.events.iter())
        .chain(c.spans.iter())
    {
        let row_marker = format!("`{}`", entry.name);
        let pruned: String = design
            .lines()
            .filter(|l| !(l.trim_start().starts_with('|') && l.contains(&row_marker)))
            .map(|l| format!("{l}\n"))
            .collect();
        let errs = sync_errors(&pruned, &names);
        assert!(
            errs.iter()
                .any(|e| e.file.ends_with("names.rs") && e.message.contains(&entry.name)),
            "deleting the `{}` row went unnoticed",
            entry.name
        );
    }
}

#[test]
fn renaming_any_constant_fails_the_gate() {
    let (design, names) = real_sources();
    let c = Contract::from_sources(&design, &names);
    for konst in &c.consts {
        // Target the declaration, not the doc comments that quote the value.
        let mangled = names.replacen(
            &format!(": &str = \"{}\"", konst.value),
            &format!(": &str = \"{}.renamed\"", konst.value),
            1,
        );
        assert_ne!(mangled, names, "rename of `{}` did not apply", konst.ident);
        let errs = sync_errors(&design, &mangled);
        assert!(
            !errs.is_empty(),
            "renaming `{}` went unnoticed",
            konst.ident
        );
    }
}

#[test]
fn reactor_thread_table_must_stay_subset_of_inventory() {
    let (design, names) = real_sources();
    let c = Contract::from_sources(&design, &names);
    assert!(
        !c.reactor_threads.is_empty(),
        "DESIGN.md §12 'Reactor threads' table is missing"
    );
    // In sync today…
    let mut out = Vec::new();
    netagg_lint::rules::thread_inventory_sync(&c, &mut out);
    assert!(out.is_empty(), "§12/§9 drift: {out:?}");
    // …and deleting the §9 row is caught.
    for entry in &c.reactor_threads {
        let row_marker = format!("`{}`", entry.name);
        let pruned: String = design
            .lines()
            .enumerate()
            .filter(|(i, l)| {
                // Drop only the §9 occurrence (before the §12 section).
                let in_inventory = (*i as u32) < entry.line - 1;
                !(in_inventory && l.trim_start().starts_with('|') && l.contains(&row_marker))
            })
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let pc = Contract::from_sources(&pruned, &names);
        let mut errs = Vec::new();
        netagg_lint::rules::thread_inventory_sync(&pc, &mut errs);
        assert!(
            errs.iter().any(|e| e.message.contains(&entry.name)),
            "deleting the §9 `{}` row went unnoticed",
            entry.name
        );
    }
}

#[test]
fn workspace_is_clean() {
    let diags = lint_workspace(&workspace_root()).unwrap();
    let errors: Vec<&Diagnostic> = diags.iter().filter(|d| d.level == Level::Error).collect();
    assert!(errors.is_empty(), "workspace violations: {errors:?}");
    assert!(
        diags.is_empty(),
        "stale suppressions or warnings: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Guard-unwrap rule and the §15 rank-table sync
// ---------------------------------------------------------------------------

#[test]
fn lock_block_fixture_flags_guard_unwraps() {
    let diags = run("lock_block.rs");
    assert_eq!(spans(&diags, "no-lock-unwrap"), vec![4, 8], "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "no-lock-unwrap"));
}

#[test]
fn deleting_any_lock_rank_row_fails_the_gate() {
    let root = workspace_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let locks = fs::read_to_string(root.join("crates/netagg-net/src/lock_order.rs")).unwrap();
    let ranks = netagg_lint::contract::parse_rank_consts(&locks);
    assert!(!ranks.is_empty(), "lock_order.rs declares no LockRank");
    for r in &ranks {
        let row_marker = format!("| {} | `{}`", r.rank, r.name);
        let pruned: String = design
            .lines()
            .filter(|l| !l.starts_with(&row_marker))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(pruned.len(), design.len(), "no §15 row for `{}`", r.name);
        let mut c = Contract::from_sources(&pruned, "");
        c.lock_ranks = ranks.clone();
        let mut errs = Vec::new();
        netagg_lint::rules::lock_order_sync(&c, &mut errs);
        assert!(
            errs.iter()
                .any(|e| e.rule == "lock-order" && e.message.contains(&r.name)),
            "deleting the `{}` row went unnoticed",
            r.name
        );
    }
}

// ---------------------------------------------------------------------------
// Vendored code is out of scope, end to end
// ---------------------------------------------------------------------------

/// One file that violates two rules at once: a raw spawn and a guard
/// unwrap.
const PLANTED: &str = "use std::thread;\n\
    fn spawned() {\n\
        thread::spawn(|| {});\n\
    }\n\
    fn unwrapped(m: &std::sync::Mutex<u32>) -> u32 {\n\
        *m.lock().unwrap()\n\
    }\n";

/// A throwaway workspace root carrying the real contract files, with the
/// planted violation at `rel`.
fn planted_root(tag: &str, rel: &str) -> PathBuf {
    let real = workspace_root();
    let root = std::env::temp_dir().join(format!("netagg-lint-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for f in [
        "DESIGN.md",
        "crates/netagg-obs/src/names.rs",
        "crates/netagg-net/src/lock_order.rs",
    ] {
        let dst = root.join(f);
        fs::create_dir_all(dst.parent().unwrap()).unwrap();
        fs::copy(real.join(f), dst).unwrap();
    }
    let planted = root.join(rel);
    fs::create_dir_all(planted.parent().unwrap()).unwrap();
    fs::write(planted, PLANTED).unwrap();
    root
}

#[test]
fn planted_violation_under_vendor_does_not_fire() {
    let root = planted_root("vendor", "vendor/evil/src/evil.rs");
    let diags = lint_workspace(&root).unwrap();
    assert!(diags.is_empty(), "vendored code was linted: {diags:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn planted_violation_under_crates_fails_the_gate() {
    let root = planted_root("crates", "crates/x/src/evil.rs");
    let diags = lint_workspace(&root).unwrap();
    for rule in ["no-raw-spawn", "no-lock-unwrap"] {
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rule && d.level == Level::Error),
            "{rule} did not fire: {diags:?}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}
