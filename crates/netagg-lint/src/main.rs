//! CLI entry point: `cargo run -p netagg-lint -- --workspace`.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use netagg_lint::lint_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
netagg-lint: the no-poll-shutdown check (DESIGN.md §10)

USAGE:
    netagg-lint [--workspace] [--root <dir>]

OPTIONS:
    --workspace    Lint the whole workspace (default; kept explicit for CI)
    --root <dir>   Workspace root (default: ascend from cwd to DESIGN.md)
    -h, --help     Show this help
";

fn find_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(root) = explicit {
        return root.join("DESIGN.md").exists().then_some(root);
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("DESIGN.md").exists() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let Some(root) = find_root(root) else {
        eprintln!("error: cannot locate the workspace root (no DESIGN.md found)");
        return ExitCode::from(2);
    };

    let diags = match lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &diags {
        println!("{}", d.render());
    }
    println!(
        "netagg-lint: {} error(s) in {}",
        diags.len(),
        root.display()
    );
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
