//! `byzclock-lint` — the one static check clippy cannot express: a
//! `Wire::decode` never panics on forged bytes, *through everything it
//! calls*.
//!
//! In the paper's model a Byzantine node may send any bytes, so every
//! decode path must be total. Clippy's restriction lints see one item at
//! a time; this crate follows the calls. Its own total Rust lexer and
//! lightweight item parser (no dependencies, like the rest of the offline
//! workspace) walk every `.rs` file under `src/` and `crates/*/src/`,
//! build a name-resolved call graph from every `decode` of an `impl Wire`
//! and flag each panicking construct it reaches — the rule `P1`, see
//! [`p1`]. There is no configuration and no suppression: a finding is
//! fixed in the code.
//!
//! The other static contracts live elsewhere: determinism in the root
//! `clippy.toml` (CI's clippy step), the zero-alloc hot path, wire
//! coverage and spec-key agreement in ordinary tests.
//!
//! Run it as `cargo run -p byzclock-lint [-- --root=PATH]`: one line per
//! finding, exit 1 when there is any.
//!
//! ```
//! let root = byzclock_lint::workspace_root();
//! let findings = byzclock_lint::run(&root).expect("lint pass");
//! assert!(findings.is_empty(), "{findings:?}");
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
pub mod p1;
pub mod parser;

use std::fmt;
use std::path::{Path, PathBuf};

/// One diagnostic: location, offending snippet, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    /// The offending line, trimmed and shortened.
    pub snippet: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [P1] {} — `{}`",
            self.file, self.line, self.message, self.snippet
        )
    }
}

/// The parsed sources one pass looks at, with their text for snippets.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<parser::ParsedFile>,
    sources: Vec<String>,
}

impl Workspace {
    /// Parses in-memory sources given as `(workspace-relative path, text)`.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: sources
                .iter()
                .map(|(rel, src)| parser::parse(rel, lexer::lex(src)))
                .collect(),
            sources: sources.iter().map(|(_, src)| src.to_string()).collect(),
        }
    }

    /// Loads every `.rs` file beneath `root`'s `src/` and `crates/*/src/`
    /// (sorted, so diagnostics are deterministic).
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut paths: Vec<PathBuf> = Vec::new();
        collect_rs(&root.join("src"), &mut paths);
        let members = std::fs::read_dir(root.join("crates"))
            .map_err(|e| format!("read {}/crates: {e}", root.display()))?;
        for member in members.filter_map(Result::ok) {
            collect_rs(&member.path().join("src"), &mut paths);
        }
        paths.sort();
        let mut sources = Vec::new();
        for path in paths {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel: Vec<_> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect();
            sources.push((rel.join("/"), src));
        }
        let borrowed: Vec<(&str, &str)> = sources.iter().map(|(r, s)| (&r[..], &s[..])).collect();
        Ok(Workspace::from_sources(&borrowed))
    }

    /// The trimmed text of `line` (1-indexed) of file `file`, shortened
    /// for diagnostics.
    fn snippet(&self, file: usize, line: u32) -> String {
        let text = self.sources[file]
            .lines()
            .nth((line as usize).saturating_sub(1))
            .map_or("", str::trim);
        let mut out: String = text.chars().take(80).collect();
        if out.len() < text.len() {
            out.push('…');
        }
        out
    }
}

/// Recursively collects `.rs` files under `dir` (which may not exist).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Loads the workspace under `root` and returns every `P1` finding.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    Ok(p1::check(&Workspace::load(root)?))
}

/// The workspace this crate was built in: two levels above its manifest.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
