//! `byzclock-lint` — a dependency-free invariant linter that
//! machine-enforces the workspace's determinism, panic-freedom, and
//! hot-path contracts.
//!
//! The codebase's load-bearing guarantees — bit-for-bit deterministic
//! [`RunReport`]s, a `Wire::decode` that never panics on forged bytes,
//! and a zero-alloc GVSS steady state — were enforced only by
//! convention, goldens, and sampled tests. This crate is the static
//! half of the machine-checking story (the model checker in
//! `byzclock-mcheck` is the dynamic half): its own total Rust lexer and
//! lightweight item parser (zero external dependencies, in keeping with
//! the offline compat-stub approach) walk every workspace crate and
//! enforce five named rules — `D1` determinism, `P1` decode
//! panic-freedom, `A1` hot-path allocation, `W1` wire coverage, and
//! `S1` spec-key drift (see [`rules`] for the table). Rules are
//! configured by the checked-in `lint.toml` at the workspace root;
//! individual findings are suppressed by a justified
//! `// lint:allow(RULE): <reason>` comment (see [`diag`] — a bare allow
//! is itself a violation, and allows inside `Wire::decode` bodies are
//! ignored by design).
//!
//! Run it as `experiments lint [--jsonl] [--rule=ID]` (with `--jsonl`,
//! one verdict record per rule and one record per finding, through the
//! workspace's JSON-line writer) or standalone, text only:
//!
//! ```text
//! cargo run -p byzclock-lint [-- [--rule=ID] [--root=PATH]]
//! ```
//!
//! ```
//! let root = byzclock_lint::workspace_root().expect("repo root");
//! let report = byzclock_lint::run(&root, None).expect("lint pass");
//! assert_eq!(report.results.len(), 5); // D1, P1, A1, W1, S1
//! ```
//!
//! [`RunReport`]: https://docs.rs/byzclock-core

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use config::Config;
pub use diag::{AllowIndex, Finding};
pub use rules::{LintReport, RuleResult, RULES};

use std::path::{Path, PathBuf};

/// One scanned source file: parse results plus the suppression index
/// and the raw lines the diagnostics quote.
#[derive(Debug)]
pub struct SourceFile {
    pub parsed: parser::ParsedFile,
    pub allows: diag::AllowIndex,
    lines: Vec<String>,
}

impl SourceFile {
    /// Lexes and parses one file given its workspace-relative path.
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let toks = lexer::lex(src);
        SourceFile {
            allows: diag::AllowIndex::build(&toks),
            parsed: parser::parse(rel, toks),
            lines: src.lines().map(str::to_string).collect(),
        }
    }

    /// The trimmed source text of `line` (1-indexed), shortened for
    /// diagnostics.
    pub fn snippet(&self, line: u32) -> String {
        let text = (line as usize)
            .checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .map(|s| s.trim())
            .unwrap_or("");
        let mut out: String = text.chars().take(80).collect();
        if out.len() < text.len() {
            out.push('…');
        }
        out
    }
}

/// Everything one lint pass looks at: the parsed sources, the rule
/// configuration, and the wire-coverage property text.
#[derive(Debug)]
pub struct Workspace {
    pub config: Config,
    pub files: Vec<SourceFile>,
    /// Text of the `[w1] coverage` file, when present.
    pub coverage: Option<String>,
}

impl Workspace {
    /// Builds a workspace from in-memory sources — the seam the fixture
    /// self-tests drive.
    pub fn from_sources(
        config: Config,
        sources: &[(&str, &str)],
        coverage: Option<&str>,
    ) -> Workspace {
        Workspace {
            config,
            files: sources
                .iter()
                .map(|(rel, src)| SourceFile::parse(rel, src))
                .collect(),
            coverage: coverage.map(str::to_string),
        }
    }

    /// Loads the real workspace under `root`: `lint.toml`, every `.rs`
    /// file beneath `src/` and `crates/*/src/` (sorted, so diagnostics
    /// are deterministic), and the `[w1]` coverage file.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let cfg_path = root.join("lint.toml");
        let text = std::fs::read_to_string(&cfg_path)
            .map_err(|e| format!("read {}: {e}", cfg_path.display()))?;
        let config = Config::parse(&text)?;
        let mut paths: Vec<PathBuf> = Vec::new();
        collect_rs(&root.join("src"), &mut paths);
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            let mut members: Vec<PathBuf> =
                entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
            members.sort();
            for member in members {
                collect_rs(&member.join("src"), &mut paths);
            }
        }
        paths.sort();
        let mut files = Vec::new();
        for path in paths {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::parse(&rel, &src));
        }
        let coverage = config
            .get("w1", "coverage")
            .and_then(|rel| std::fs::read_to_string(root.join(rel)).ok());
        Ok(Workspace {
            config,
            files,
            coverage,
        })
    }
}

/// Recursively collects `.rs` files under `dir` (which may not exist).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Loads the workspace under `root` and runs the selected rules (all
/// five when `rule_filter` is `None`).
pub fn run(root: &Path, rule_filter: Option<&str>) -> Result<LintReport, String> {
    if let Some(rule) = rule_filter {
        if !RULES.contains(&rule) {
            return Err(format!(
                "unknown rule `{rule}`; known rules: {}",
                RULES.join(", ")
            ));
        }
    }
    let ws = Workspace::load(root)?;
    Ok(rules::run_rules(&ws, rule_filter))
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory holding a `lint.toml`, falling back to the compiled-in
/// location of this crate (two levels above its manifest).
pub fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if d.join("lint.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    baked.join("lint.toml").is_file().then_some(baked)
}
