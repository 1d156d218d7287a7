//! Standalone entry point: `cargo run -p byzclock-lint`.
//!
//! Prints one summary line per rule and one diagnostic per unsuppressed
//! finding, exits 1 when the workspace is not clean. For JSON lines use
//! `experiments --jsonl lint`, which writes the same verdicts through the
//! workspace's one JSON-line writer.

use byzclock_lint::{run, workspace_root, RULES};

fn main() {
    let mut rule: Option<String> = None;
    let mut root: Option<std::path::PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--rule=") {
            rule = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--root=") {
            root = Some(std::path::PathBuf::from(v));
        } else {
            eprintln!(
                "usage: byzclock-lint [--rule={}] [--root=PATH]",
                RULES.join("|")
            );
            std::process::exit(2);
        }
    }
    let Some(root) = root.or_else(workspace_root) else {
        eprintln!("no lint.toml found above the current directory (pass --root=PATH)");
        std::process::exit(2);
    };
    let report = run(&root, rule.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    print!("{report}");
    if !report.clean() {
        std::process::exit(1);
    }
}
