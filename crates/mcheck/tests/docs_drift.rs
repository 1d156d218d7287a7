//! Keeps the prose honest: ARCHITECTURE.md's model-checking seam and the
//! README quickstart must track the checker that actually ships — the
//! model menu, the CLI spelling, the documented caveats, and the numbers
//! the cheap models can re-derive in a debug test run.

use byzclock_mcheck::{check, TwoClockModel, MODEL_NAMES};

fn repo_doc(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn architecture_documents_the_model_checking_seam() {
    let doc = repo_doc("ARCHITECTURE.md");
    assert!(
        doc.contains("## The model-checking seam"),
        "ARCHITECTURE.md lost the model-checking section"
    );
    for name in MODEL_NAMES {
        assert!(doc.contains(name), "section must name the `{name}` model");
    }
    // The crate exists in the crate map.
    assert!(
        doc.contains("byzclock-mcheck"),
        "crate map lost the checker"
    );
    // The design points the soundness story rests on.
    for needle in [
        "Canonicalization",
        "Covering alphabets",
        "under-approximation",
    ] {
        assert!(doc.contains(needle), "section lost its `{needle}` point");
    }
    // All four documented bd-clock caveats, by name.
    for caveat in ["equicast", "sender-uniform", "quiet faults", "future-beat"] {
        let hit = doc.to_lowercase().contains(caveat);
        assert!(hit, "bd-clock caveat `{caveat}` fell out of the docs");
    }
    // The window=1 finding stays on the record.
    assert!(
        doc.contains("window = 1") || doc.contains("window=1"),
        "the degenerate-window finding must stay documented"
    );
}

#[test]
fn readme_quickstart_spells_the_cli() {
    let readme = repo_doc("README.md");
    assert!(
        readme
            .contains("cargo run --release -p byzclock-bench --bin experiments -- model-check all"),
        "README quickstart lost the model-check line"
    );
}

/// The numbers quoted for the cheap model are re-derived, not trusted:
/// a checker change that moves them must update the prose.
#[test]
fn architecture_quotes_live_two_clock_numbers() {
    let doc = repo_doc("ARCHITECTURE.md");
    let report = check(&TwoClockModel::honest(4, 1), 1 << 20);
    assert!(report.verified());
    let states = format!("two-clock n=4 f=1 — {} states", report.states);
    assert!(
        doc.contains(&states),
        "ARCHITECTURE.md quotes stale two-clock numbers (live: {})",
        report.states
    );
    let worst = report.max_rank_beats.expect("a verified run has a rank");
    let rank = format!(
        "worst\nconvergence {} beats (bound {})",
        worst, report.bound_beats
    );
    assert!(
        doc.replace('\n', " ").contains(&rank.replace('\n', " ")),
        "ARCHITECTURE.md quotes a stale two-clock rank (live: {} bound {})",
        worst,
        report.bound_beats
    );
}
