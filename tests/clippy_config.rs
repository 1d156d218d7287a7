//! The determinism contract lives in `clippy.toml`: CI's clippy step
//! denies every type and method it lists, across the whole workspace. A
//! deleted line there would silently loosen the contract everywhere, so
//! this test pins the lists from below — each entry here must stay
//! (more may be added).

/// Types no workspace code may name: hash-ordered containers, clocks,
/// per-process hash seeds, thread builders.
const TYPES: [&str; 6] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::hash::RandomState",
    "std::time::Instant",
    "std::time::SystemTime",
    "std::thread::Builder",
];

/// Functions no workspace code may call: every entry point of
/// `std::thread` that starts, sizes, sleeps, parks or names a thread,
/// and the real `rand` crate's OS-entropy seeds.
const METHODS: [&str; 14] = [
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::new",
    "std::thread::available_parallelism",
    "std::thread::current",
    "std::thread::sleep",
    "std::thread::yield_now",
    "std::thread::park",
    "std::thread::park_timeout",
    "rand::thread_rng",
    "rand::rng",
    "rand::random",
    "rand::SeedableRng::from_entropy",
    "rand::SeedableRng::from_os_rng",
];

/// The `path = "…"` entries of the array under `key` in `clippy.toml`.
fn disallowed(config: &str, key: &str) -> Vec<String> {
    let start = config
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml lost its `{key}` list"));
    let body = &config[start..];
    let body = &body[..body.find("\n]").expect("the list is closed")];
    body.lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_once("path = \"")?.1.split_once('"'))
        .map(|(path, _)| path.to_string())
        .collect()
}

#[test]
fn clippy_toml_keeps_every_determinism_ban() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("clippy.toml");
    let config =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for (key, wanted) in [
        ("disallowed-types", &TYPES[..]),
        ("disallowed-methods", &METHODS[..]),
    ] {
        let listed = disallowed(&config, key);
        for want in wanted {
            assert!(
                listed.iter().any(|p| p == want),
                "clippy.toml `{key}` lost `{want}`; listed: {listed:?}"
            );
        }
    }
}
