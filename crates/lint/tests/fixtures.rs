//! The linter's self-test: a deliberately bad decode path under
//! `tests/fixtures/` (a decode in `p1_bad.rs` and a helper module,
//! `codec.rs`, only part of which it calls), pinned to its exact
//! diagnostics, and a proptest that pins the lexer and parser as total
//! over arbitrary byte soup.

use byzclock_lint::{p1, Workspace};
use proptest::prelude::*;

/// Reads one fixture from `tests/fixtures/`.
fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn p1_fixture_traces_helpers_through_free_and_qualified_calls() {
    let (bad, codec) = (fixture("p1_bad.rs"), fixture("codec.rs"));
    let ws = Workspace::from_sources(&[
        ("crates/coin/src/codec.rs", &codec),
        ("crates/coin/src/p1_bad.rs", &bad),
    ]);
    let diags: Vec<String> = p1::check(&ws).iter().map(ToString::to_string).collect();
    assert_eq!(
        diags,
        [
            "crates/coin/src/codec.rs:2: [P1] unchecked indexing `[…]` in `tag` (reachable from `Msg::decode`) — `r.buf[1]`",
            "crates/coin/src/p1_bad.rs:5: [P1] `.unwrap()` in `decode` (reachable from `Msg::decode`) — `let first = r.bytes().next().unwrap();`",
            "crates/coin/src/p1_bad.rs:13: [P1] unchecked indexing `[…]` in `helper` (reachable from `Msg::decode`) — `r.buf[0]`",
            "crates/coin/src/p1_bad.rs:18: [P1] division/modulo by a non-literal in `width` (reachable from `Msg::decode`) — `r.len() / r.count()`",
            "crates/coin/src/p1_bad.rs:22: [P1] `assert!` in `id` (reachable from `Msg::decode`) — `assert!(raw < 200, \"reserved\");`",
        ]
    );
}

proptest! {
    /// The whole front end — lexer and item parser — is total: arbitrary
    /// byte soup (lossily decoded) never panics it, nor the rule over it.
    #[test]
    fn front_end_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let ws = Workspace::from_sources(&[("fuzz.rs", &text)]);
        let _ = p1::check(&ws);
        prop_assert!(ws.files[0].rel == "fuzz.rs");
    }
}
