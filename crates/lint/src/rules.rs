//! The five rules and the runner that applies them.
//!
//! | Rule | Contract it machine-enforces |
//! |------|------------------------------|
//! | `D1` | Determinism: no `SystemTime`/`Instant`/`HashMap`/`HashSet` (or other order-/time-dependent constructs) in the configured crates outside sanctioned, allowlisted seams |
//! | `P1` | Panic-freedom: no `unwrap`/`expect`/panicking macros/unchecked indexing/non-literal division in `Wire::decode` bodies *and every workspace function reachable from them* |
//! | `A1` | Hot-path allocation: no `Vec::new`/`to_vec`/`clone`/`format!`-family constructs in the configured zero-alloc steady-state functions |
//! | `W1` | Wire coverage: every non-test `impl Wire for T` is named in the round-trip + garbage-fuzz property file |
//! | `S1` | Spec-key drift: `ScenarioSpec::KEYS`, the `parse` match arms, and the `Display` rendering agree on the exact key set |
//!
//! Each rule emits *candidates*; the runner then applies the
//! `lint:allow` suppression pass (`crate::diag`) — except inside `P1`
//! root bodies, where the never-panic contract is absolute and an allow
//! is ignored by design.

use crate::diag::Finding;
use crate::{SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// The canonical rule menu, in reporting order.
pub const RULES: [&str; 5] = ["D1", "P1", "A1", "W1", "S1"];

/// One rule's outcome over the whole workspace.
#[derive(Debug)]
pub struct RuleResult {
    pub rule: String,
    /// Unsuppressed findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned `lint:allow`.
    pub suppressed: usize,
}

/// The full lint pass outcome.
#[derive(Debug)]
pub struct LintReport {
    /// One entry per active rule (canonical order), plus one trailing
    /// entry per unknown rule name found in `lint:allow` directives.
    pub results: Vec<RuleResult>,
    /// Source files scanned.
    pub files: usize,
}

impl LintReport {
    /// `true` when no rule has an unsuppressed finding.
    pub fn clean(&self) -> bool {
        self.results.iter().all(|r| r.findings.is_empty())
    }
}

/// The text form: one summary line per rule, one indented diagnostic per
/// unsuppressed finding.
impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in &self.results {
            writeln!(
                f,
                "{}: {} finding(s), {} suppressed ({} files)",
                r.rule,
                r.findings.len(),
                r.suppressed,
                self.files
            )?;
            for finding in &r.findings {
                writeln!(f, "  {finding}")?;
            }
        }
        Ok(())
    }
}

/// A pre-suppression finding. `P1` findings inside decode roots are not
/// suppressible: the contract there admits no exceptions.
struct Candidate {
    finding: Finding,
    suppressible: bool,
}

impl Candidate {
    fn new(rule: &str, file: &SourceFile, line: u32, message: String) -> Candidate {
        Candidate {
            finding: Finding {
                rule: rule.to_string(),
                file: file.parsed.rel.clone(),
                line,
                snippet: file.snippet(line),
                message,
            },
            suppressible: true,
        }
    }
}

/// Runs the selected rules (all five when `rule_filter` is `None`) plus
/// the always-on allow-grammar audit, applies suppressions, and groups
/// the survivors.
pub fn run_rules(ws: &Workspace, rule_filter: Option<&str>) -> LintReport {
    let active = |rule: &str| rule_filter.is_none_or(|f| f == rule);
    let mut candidates: Vec<Candidate> = Vec::new();
    if active("D1") {
        candidates.extend(d1(ws));
    }
    if active("P1") {
        candidates.extend(p1(ws));
    }
    if active("A1") {
        candidates.extend(a1(ws));
    }
    if active("W1") {
        candidates.extend(w1(ws));
    }
    if active("S1") {
        candidates.extend(s1(ws));
    }
    // The allow-grammar audit: a bare (reason-less) allow is a violation
    // under the rule it names; an allow naming a rule that does not
    // exist is reported under that unknown name so the typo is visible.
    for file in &ws.files {
        for allow in file.allows.bare_allows() {
            if !active(&allow.rule) {
                continue;
            }
            candidates.push(Candidate {
                finding: Finding {
                    rule: allow.rule.clone(),
                    file: file.parsed.rel.clone(),
                    line: allow.line,
                    snippet: file.snippet(allow.line),
                    message: format!(
                        "bare `lint:allow({})` without a reason — justifications are part of the contract",
                        allow.rule
                    ),
                },
                suppressible: false,
            });
        }
        for allow in file.allows.unknown_rules(&RULES) {
            if !active(&allow.rule) {
                continue;
            }
            candidates.push(Candidate {
                finding: Finding {
                    rule: allow.rule.clone(),
                    file: file.parsed.rel.clone(),
                    line: allow.line,
                    snippet: file.snippet(allow.line),
                    message: format!(
                        "`lint:allow({})` names an unknown rule (known: {})",
                        allow.rule,
                        RULES.join(", ")
                    ),
                },
                suppressible: false,
            });
        }
    }

    // Suppression pass.
    let by_rel: BTreeMap<&str, &SourceFile> = ws
        .files
        .iter()
        .map(|f| (f.parsed.rel.as_str(), f))
        .collect();
    let mut grouped: BTreeMap<String, (Vec<Finding>, usize)> = BTreeMap::new();
    for rule in RULES {
        if active(rule) {
            grouped.insert(rule.to_string(), (Vec::new(), 0));
        }
    }
    for c in candidates {
        let entry = grouped.entry(c.finding.rule.clone()).or_default();
        let suppressed = c.suppressible
            && by_rel
                .get(c.finding.file.as_str())
                .is_some_and(|f| f.allows.suppresses(&c.finding.rule, c.finding.line));
        if suppressed {
            entry.1 += 1;
        } else {
            entry.0.push(c.finding);
        }
    }
    let mut results: Vec<RuleResult> = Vec::new();
    // Canonical rules first, in menu order; unknown-rule groups after.
    for rule in RULES {
        if let Some((mut findings, suppressed)) = grouped.remove(rule) {
            findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
            findings.dedup();
            results.push(RuleResult {
                rule: rule.to_string(),
                findings,
                suppressed,
            });
        }
    }
    for (rule, (mut findings, suppressed)) in grouped {
        findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        findings.dedup();
        results.push(RuleResult {
            rule,
            findings,
            suppressed,
        });
    }
    LintReport {
        results,
        files: ws.files.len(),
    }
}

/// Which configured crate a workspace-relative path belongs to: `root`
/// for the umbrella `src/`, the member name for `crates/<name>/…`.
fn crate_of(rel: &str) -> Option<&str> {
    if rel.starts_with("src/") {
        return Some("root");
    }
    rel.strip_prefix("crates/")?.split('/').next()
}

// ---------------------------------------------------------------------
// D1 — determinism
// ---------------------------------------------------------------------

fn d1(ws: &Workspace) -> Vec<Candidate> {
    let crates = ws.config.list("d1", "crates");
    let banned = ws.config.list("d1", "banned");
    let allow_pairs: BTreeSet<&str> = ws
        .config
        .list("d1", "allow")
        .iter()
        .map(|s| s.as_str())
        .collect();
    let mut out = Vec::new();
    for file in &ws.files {
        let rel = &file.parsed.rel;
        if !crate_of(rel).is_some_and(|c| crates.iter().any(|x| x == c)) {
            continue;
        }
        for (i, tok) in file.parsed.toks.iter().enumerate() {
            if tok.kind != crate::lexer::TokKind::Ident
                || !banned.iter().any(|b| b == &tok.text)
                || file.parsed.in_test_region(i)
            {
                continue;
            }
            let pair = format!("{rel}#{}", tok.text);
            if allow_pairs.contains(pair.as_str()) {
                continue;
            }
            out.push(Candidate::new(
                "D1",
                file,
                tok.line,
                format!(
                    "order-/time-dependent construct `{}` in a determinism-scoped crate",
                    tok.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// P1 — panic-freedom of the decode paths
// ---------------------------------------------------------------------

/// Macros whose expansion can panic.
const PANIC_MACROS: [&str; 10] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

fn p1(ws: &Workspace) -> Vec<Candidate> {
    let trait_name = ws.config.get("p1", "trait").unwrap_or("Wire");
    let root_names = ws.config.list("p1", "roots");
    if root_names.is_empty() {
        return Vec::new();
    }

    // Function index. Key = (file idx, fn idx).
    type FnKey = (usize, usize);
    let mut by_name: BTreeMap<&str, Vec<FnKey>> = BTreeMap::new();
    let mut by_impl: BTreeMap<(&str, &str), Vec<FnKey>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (xi, f) in file.parsed.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            by_name.entry(&f.name).or_default().push((fi, xi));
            if let Some(ty) = &f.impl_type {
                by_impl.entry((ty, &f.name)).or_default().push((fi, xi));
            }
        }
    }

    // Roots: the decode entry points of every `impl Wire for T` (plus
    // `Wire`'s own default methods).
    let mut queue: Vec<FnKey> = Vec::new();
    let mut via: BTreeMap<FnKey, String> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (xi, f) in file.parsed.fns.iter().enumerate() {
            if f.in_test
                || f.trait_name.as_deref() != Some(trait_name)
                || !root_names.iter().any(|r| r == &f.name)
            {
                continue;
            }
            let owner = f.impl_type.as_deref().unwrap_or(trait_name);
            via.insert((fi, xi), format!("{owner}::{}", f.name));
            queue.push((fi, xi));
        }
    }
    let roots: BTreeSet<FnKey> = queue.iter().copied().collect();

    // Breadth-first closure over name-resolved call edges.
    while let Some(key) = queue.pop() {
        let (fi, xi) = key;
        let file = &ws.files[fi];
        let f = &file.parsed.fns[xi];
        let body = file.parsed.body(f);
        let code: Vec<&crate::lexer::Tok> = body.iter().filter(|t| !t.is_comment()).collect();
        for j in 0..code.len() {
            let t = code[j];
            if t.kind != crate::lexer::TokKind::Ident
                || !code.get(j + 1).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            let prev = j.checked_sub(1).map(|p| code[p]);
            let targets: Vec<FnKey> = if prev.is_some_and(|p| p.is_punct('.')) {
                // Method call: any workspace fn of that name taking `self`.
                by_name
                    .get(t.text.as_str())
                    .map(|v| {
                        v.iter()
                            .filter(|&&(fi2, xi2)| ws.files[fi2].parsed.fns[xi2].has_self)
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default()
            } else if prev.is_some_and(|p| p.is_punct(':'))
                && j.checked_sub(2)
                    .map(|p| code[p])
                    .is_some_and(|p| p.is_punct(':'))
            {
                // Qualified call `Qual::name(…)`. Resolve through the
                // implementing type; an unresolved qualifier (`Self`,
                // a generic parameter) falls back to the trait's own
                // decode family plus same-file free functions.
                let qual = j
                    .checked_sub(3)
                    .map(|p| code[p])
                    .filter(|q| q.kind == crate::lexer::TokKind::Ident)
                    .map(|q| q.text.clone())
                    .unwrap_or_default();
                let direct = by_impl.get(&(qual.as_str(), t.text.as_str()));
                match direct {
                    Some(v) => v.clone(),
                    None => {
                        let mut v: Vec<FnKey> = by_name
                            .get(t.text.as_str())
                            .map(|v| {
                                v.iter()
                                    .filter(|&&(fi2, xi2)| {
                                        let g = &ws.files[fi2].parsed.fns[xi2];
                                        g.trait_name.as_deref() == Some(trait_name)
                                            || (fi2 == fi && g.impl_type.is_none())
                                    })
                                    .copied()
                                    .collect()
                            })
                            .unwrap_or_default();
                        v.dedup();
                        v
                    }
                }
            } else {
                // Free call: free functions in the same file.
                by_name
                    .get(t.text.as_str())
                    .map(|v| {
                        v.iter()
                            .filter(|&&(fi2, xi2)| {
                                fi2 == fi && ws.files[fi2].parsed.fns[xi2].impl_type.is_none()
                            })
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let root = via.get(&key).cloned().unwrap_or_default();
            for tgt in targets {
                if let std::collections::btree_map::Entry::Vacant(e) = via.entry(tgt) {
                    e.insert(root.clone());
                    queue.push(tgt);
                }
            }
        }
    }

    // Scan every reachable body for panicking constructs.
    let mut out = Vec::new();
    for (&(fi, xi), root) in &via {
        let file = &ws.files[fi];
        let f = &file.parsed.fns[xi];
        let body = file.parsed.body(f);
        let code: Vec<&crate::lexer::Tok> = body.iter().filter(|t| !t.is_comment()).collect();
        let ctx = format!("in `{}` (reachable from `{root}`)", f.name);
        let mut push = |line: u32, what: &str| {
            let mut c = Candidate::new("P1", file, line, format!("{what} {ctx}"));
            c.suppressible = !roots.contains(&(fi, xi));
            out.push(c);
        };
        for j in 0..code.len() {
            let t = code[j];
            let next = code.get(j + 1);
            let prev = j.checked_sub(1).map(|p| code[p]);
            if t.kind == crate::lexer::TokKind::Ident {
                if (t.text == "unwrap" || t.text == "expect")
                    && prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('('))
                {
                    push(t.line, &format!("`.{}()`", t.text));
                } else if PANIC_MACROS.contains(&t.text.as_str())
                    && next.is_some_and(|n| n.is_punct('!'))
                {
                    push(t.line, &format!("`{}!`", t.text));
                }
            } else if t.is_punct('[') {
                // Indexing/slicing: `expr[…]` where expr ends in an
                // identifier, `]`, or `)`. Attribute (`#[…]`), array
                // literal and type positions have non-expression prefixes.
                if prev.is_some_and(|p| {
                    p.kind == crate::lexer::TokKind::Ident || p.is_punct(']') || p.is_punct(')')
                }) {
                    push(t.line, "unchecked indexing `[…]`");
                }
            } else if (t.is_punct('/') || t.is_punct('%'))
                && !next.is_some_and(|n| n.kind == crate::lexer::TokKind::Number)
            {
                push(t.line, "division/modulo by a non-literal");
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// A1 — hot-path allocation
// ---------------------------------------------------------------------

fn a1(ws: &Workspace) -> Vec<Candidate> {
    let functions = ws.config.list("a1", "functions");
    let banned = ws.config.list("a1", "banned");
    let banned_new = ws.config.list("a1", "banned_new");
    let mut out = Vec::new();
    for entry in functions {
        let Some((rel, fn_name)) = entry.split_once('#') else {
            continue;
        };
        let Some(file) = ws.files.iter().find(|f| f.parsed.rel == rel) else {
            out.push(Candidate {
                finding: Finding {
                    rule: "A1".to_string(),
                    file: rel.to_string(),
                    line: 0,
                    snippet: entry.clone(),
                    message: "configured hot-path file not found — fix lint.toml or the rename"
                        .to_string(),
                },
                suppressible: false,
            });
            continue;
        };
        let fns: Vec<&crate::parser::FnDef> = file
            .parsed
            .fns
            .iter()
            .filter(|f| f.name == fn_name && !f.in_test)
            .collect();
        if fns.is_empty() {
            out.push(Candidate {
                finding: Finding {
                    rule: "A1".to_string(),
                    file: rel.to_string(),
                    line: 0,
                    snippet: entry.clone(),
                    message: format!(
                        "configured hot-path fn `{fn_name}` not found — fix lint.toml or the rename"
                    ),
                },
                suppressible: false,
            });
            continue;
        }
        for f in fns {
            let body = file.parsed.body(f);
            let code: Vec<&crate::lexer::Tok> = body.iter().filter(|t| !t.is_comment()).collect();
            for j in 0..code.len() {
                let t = code[j];
                if t.kind != crate::lexer::TokKind::Ident {
                    continue;
                }
                if banned.iter().any(|b| b == &t.text) {
                    out.push(Candidate::new(
                        "A1",
                        file,
                        t.line,
                        format!(
                            "allocation `{}` in zero-alloc steady-state fn `{fn_name}`",
                            t.text
                        ),
                    ));
                } else if banned_new.iter().any(|b| b == &t.text)
                    && code.get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && code.get(j + 2).is_some_and(|n| n.is_punct(':'))
                    && code.get(j + 3).is_some_and(|n| n.is_ident("new"))
                {
                    out.push(Candidate::new(
                        "A1",
                        file,
                        t.line,
                        format!(
                            "allocation `{}::new` in zero-alloc steady-state fn `{fn_name}`",
                            t.text
                        ),
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// W1 — wire coverage
// ---------------------------------------------------------------------

fn w1(ws: &Workspace) -> Vec<Candidate> {
    let trait_name = ws.config.get("p1", "trait").unwrap_or("Wire");
    let allow = ws.config.list("w1", "allow");
    let coverage_rel = ws.config.get("w1", "coverage").unwrap_or("");
    let Some(coverage) = &ws.coverage else {
        return vec![Candidate {
            finding: Finding {
                rule: "W1".to_string(),
                file: coverage_rel.to_string(),
                line: 0,
                snippet: String::new(),
                message: "wire-coverage property file not found — fix lint.toml or the move"
                    .to_string(),
            },
            suppressible: false,
        }];
    };
    let mut out = Vec::new();
    for file in &ws.files {
        for imp in &file.parsed.impls {
            if imp.in_test
                || imp.trait_name.as_deref() != Some(trait_name)
                || allow.iter().any(|a| a == &imp.type_name)
            {
                continue;
            }
            if !contains_word(coverage, &imp.type_name) {
                out.push(Candidate::new(
                    "W1",
                    file,
                    imp.line,
                    format!(
                        "`impl {trait_name} for {}` has no round-trip/garbage-fuzz coverage in {coverage_rel}",
                        imp.type_name
                    ),
                ));
            }
        }
    }
    out
}

/// Whether `word` appears in `text` delimited by non-identifier chars.
fn contains_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = text[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !text[..at].chars().next_back().is_some_and(is_ident);
        let after = at + word.len();
        let after_ok = !text[after..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len().max(1);
    }
    false
}

// ---------------------------------------------------------------------
// S1 — spec-key drift
// ---------------------------------------------------------------------

fn s1(ws: &Workspace) -> Vec<Candidate> {
    let Some(rel) = ws.config.get("s1", "spec") else {
        return Vec::new();
    };
    let Some(file) = ws.files.iter().find(|f| f.parsed.rel == rel) else {
        return vec![Candidate {
            finding: Finding {
                rule: "S1".to_string(),
                file: rel.to_string(),
                line: 0,
                snippet: String::new(),
                message: "configured spec file not found — fix lint.toml or the move".to_string(),
            },
            suppressible: false,
        }];
    };
    let code: Vec<&crate::lexer::Tok> = file
        .parsed
        .toks
        .iter()
        .filter(|t| !t.is_comment())
        .collect();

    // Surface 1: the `KEYS` const — string literals of its initializer.
    let mut keys: BTreeMap<String, u32> = BTreeMap::new();
    let mut keys_line = 0;
    for j in 0..code.len() {
        if !code[j].is_ident("KEYS") {
            continue;
        }
        keys_line = code[j].line;
        // Skip the type annotation; the initializer is the bracket
        // after `=`.
        let Some(eq) = (j..code.len()).find(|&k| code[k].is_punct('=')) else {
            break;
        };
        let mut depth = 0i32;
        for t in &code[eq..] {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            } else if depth > 0 && t.kind == crate::lexer::TokKind::Str {
                keys.entry(t.text.clone()).or_insert(t.line);
            }
        }
        break;
    }

    // Surface 2: `parse`'s match arms — string literals before `=>`.
    let mut parse_arms: BTreeMap<String, u32> = BTreeMap::new();
    // Surface 3: `Display`'s rendering — `key=` patterns inside the
    // format strings of `fmt`.
    let mut display_keys: BTreeMap<String, u32> = BTreeMap::new();
    for f in &file.parsed.fns {
        if f.in_test {
            continue;
        }
        if f.name == "parse" {
            let body = file.parsed.body(f);
            let bcode: Vec<&crate::lexer::Tok> = body.iter().filter(|t| !t.is_comment()).collect();
            for j in 0..bcode.len() {
                if bcode[j].kind == crate::lexer::TokKind::Str
                    && bcode.get(j + 1).is_some_and(|t| t.is_punct('='))
                    && bcode.get(j + 2).is_some_and(|t| t.is_punct('>'))
                {
                    parse_arms
                        .entry(bcode[j].text.clone())
                        .or_insert(bcode[j].line);
                }
            }
        }
        if f.name == "fmt" && f.trait_name.as_deref() == Some("Display") {
            for t in file.parsed.body(f) {
                if t.kind == crate::lexer::TokKind::Str {
                    for key in format_keys(&t.text) {
                        display_keys.entry(key).or_insert(t.line);
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    if keys.is_empty() || parse_arms.is_empty() || display_keys.is_empty() {
        out.push(Candidate {
            finding: Finding {
                rule: "S1".to_string(),
                file: rel.to_string(),
                line: keys_line,
                snippet: String::new(),
                message: format!(
                    "could not extract all three key surfaces (KEYS: {}, parse arms: {}, Display keys: {}) — the spec file changed shape",
                    keys.len(),
                    parse_arms.len(),
                    display_keys.len()
                ),
            },
            suppressible: false,
        });
        return out;
    }
    let surfaces = [
        ("ScenarioSpec::KEYS", &keys),
        ("the parse() match arms", &parse_arms),
        ("the Display rendering", &display_keys),
    ];
    for (i, (name_a, a)) in surfaces.iter().enumerate() {
        for (name_b, b) in &surfaces[i + 1..] {
            for (key, &line) in *a {
                if !b.contains_key(key) {
                    out.push(Candidate::new(
                        "S1",
                        file,
                        line,
                        format!("spec key `{key}` is in {name_a} but missing from {name_b}"),
                    ));
                }
            }
            for (key, &line) in *b {
                if !a.contains_key(key) {
                    out.push(Candidate::new(
                        "S1",
                        file,
                        line,
                        format!("spec key `{key}` is in {name_b} but missing from {name_a}"),
                    ));
                }
            }
        }
    }
    out
}

/// Extracts `key=` words from a format string (`" adv={} faults={}"` →
/// `adv`, `faults`).
fn format_keys(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    for (i, &c) in bytes.iter().enumerate() {
        if c != '=' {
            continue;
        }
        let mut start = i;
        while start > 0 && (bytes[start - 1].is_alphanumeric() || bytes[start - 1] == '_') {
            start -= 1;
        }
        if start < i {
            out.push(bytes[start..i].iter().collect());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_keys_reads_display_format_strings() {
        assert_eq!(format_keys("{} n={} f={} k={}"), ["n", "f", "k"]);
        assert_eq!(format_keys(" committee={c}"), ["committee"]);
        assert!(format_keys("no keys here").is_empty());
    }

    #[test]
    fn contains_word_respects_identifier_boundaries() {
        assert!(contains_word("roundtrip::<CoinMsg>()", "CoinMsg"));
        assert!(!contains_word("CommitteeCoinMsgX", "CoinMsg"));
        assert!(contains_word("a CoinMsg b", "CoinMsg"));
        assert!(!contains_word("", "CoinMsg"));
    }
}
