//! Keeps the prose honest: ARCHITECTURE.md's static-analysis seam and
//! the README quickstart must track the linter that ships — its one rule
//! and its one entry point — and the real workspace must lint clean, so
//! the documented "CI-gated, zero findings" claim cannot silently rot.

use byzclock_lint::{run, workspace_root};

fn repo_doc(name: &str) -> String {
    let path = workspace_root().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn architecture_documents_the_static_analysis_seam() {
    let doc = repo_doc("ARCHITECTURE.md");
    assert!(
        doc.contains("## The static-analysis seam"),
        "ARCHITECTURE.md lost the static-analysis section"
    );
    // The crate map, the rule, and where the other contracts moved.
    for needle in [
        "byzclock-lint",
        "`P1`",
        "clippy.toml",
        "tests/clippy_config.rs",
        "crates/coin/tests/zero_alloc_recv.rs",
        "every_wire_impl_is_fuzzed_here",
        "keys_match_the_rendered_grammar_exactly",
    ] {
        assert!(doc.contains(needle), "section lost its `{needle}` point");
    }
}

#[test]
fn readme_quickstart_spells_the_cli() {
    let readme = repo_doc("README.md");
    assert!(
        readme.contains("cargo run --release -p byzclock-lint"),
        "README quickstart lost the lint line"
    );
}

/// The documented claim is re-derived, not trusted: the real workspace
/// has no `P1` finding. CI runs the same pass as its own step.
#[test]
fn the_workspace_lints_clean() {
    let findings = run(&workspace_root()).expect("lint pass");
    assert!(
        findings.is_empty(),
        "P1 findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
