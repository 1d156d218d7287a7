//! Entry point: `cargo run -p byzclock-lint [-- --root=PATH]`.
//!
//! Prints one diagnostic per finding and a summary line; exits 1 when
//! there is any finding, 2 on a usage or read error.

fn main() {
    let mut root = byzclock_lint::workspace_root();
    for arg in std::env::args().skip(1) {
        match arg.strip_prefix("--root=") {
            Some(path) => root = path.into(),
            None => {
                eprintln!("usage: byzclock-lint [--root=PATH]");
                std::process::exit(2);
            }
        }
    }
    let findings = byzclock_lint::run(&root).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for finding in &findings {
        println!("{finding}");
    }
    println!("P1: {} finding(s)", findings.len());
    if !findings.is_empty() {
        std::process::exit(1);
    }
}
