//! `P1`: no panicking construct in a `Wire::decode` body or in any
//! workspace function reachable from one.
//!
//! The roots are the `decode` methods of every non-test `impl Wire for T`
//! (and `Wire`'s own default methods). From them a breadth-first closure
//! follows name-resolved call edges:
//! - a method call `.name(…)` reaches every workspace fn `name` taking
//!   `self`;
//! - a qualified call `Type::name(…)`, or the path passed as a value
//!   (`.map(Type::name)`), reaches `name` in `impl Type` blocks, or, for
//!   an unresolved qualifier (`Self`, a generic, a module), `Wire`'s own
//!   `name` family, same-file free functions and the free functions of
//!   the file whose module the qualifier names;
//! - a plain call `name(…)` reaches same-file free functions.
//!
//! Every reached body is scanned for `.unwrap()`/`.expect()`, the
//! panicking macros (`panic!`, `unreachable!`, `todo!`, `unimplemented!`,
//! the `assert!` family), unchecked indexing or slicing `expr[…]`, and
//! `/` or `%` by anything but a literal. There are no exceptions: a
//! decode that can panic on forged bytes hands a Byzantine sender a
//! crash.

use crate::lexer::{Tok, TokKind};
use crate::{Finding, Workspace};
use std::collections::BTreeMap;

/// The never-panic-on-forged-bytes trait.
const TRAIT: &str = "Wire";

/// Its decode entry point.
const ROOT: &str = "decode";

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

/// A function: (file index, fn index).
type FnKey = (usize, usize);

/// Every finding of the rule, sorted by (file, line).
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut by_name: BTreeMap<&str, Vec<FnKey>> = BTreeMap::new();
    let mut by_impl: BTreeMap<(&str, &str), Vec<FnKey>> = BTreeMap::new();
    let mut queue: Vec<FnKey> = Vec::new();
    // Each reached fn, and the root it was first reached from.
    let mut via: BTreeMap<FnKey, String> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (xi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            by_name.entry(&f.name).or_default().push((fi, xi));
            if let Some(ty) = &f.impl_type {
                by_impl.entry((ty, &f.name)).or_default().push((fi, xi));
            }
            if f.trait_name.as_deref() == Some(TRAIT) && f.name == ROOT {
                let owner = f.impl_type.as_deref().unwrap_or(TRAIT);
                via.insert((fi, xi), format!("{owner}::{ROOT}"));
                queue.push((fi, xi));
            }
        }
    }

    // Breadth-first closure over name-resolved call edges.
    while let Some(key) = queue.pop() {
        let (fi, xi) = key;
        let file = &ws.files[fi];
        let code = file.body(&file.fns[xi]);
        let root = via.get(&key).cloned().unwrap_or_default();
        for (j, t) in code.iter().enumerate() {
            let back = |k: usize| j.checked_sub(k).map(|p| &code[p]);
            let path = back(1).is_some_and(|p| p.is_punct(':'))
                && back(2).is_some_and(|p| p.is_punct(':'));
            // A path is an edge even when passed as a value (`.map(T::f)`).
            let called = code.get(j + 1).is_some_and(|n| n.is_punct('('));
            if t.kind != TokKind::Ident || !(called || path) {
                continue;
            }
            let named = by_name.get(t.text.as_str()).into_iter().flatten().copied();
            let fn_of = |&(fi2, xi2): &FnKey| &ws.files[fi2].fns[xi2];
            let targets: Vec<FnKey> = if back(1).is_some_and(|p| p.is_punct('.')) {
                named.filter(|k| fn_of(k).has_self).collect()
            } else if path {
                let qual = back(3)
                    .filter(|q| q.kind == TokKind::Ident)
                    .map_or("", |q| q.text.as_str());
                match by_impl.get(&(qual, t.text.as_str())) {
                    Some(v) => v.clone(),
                    None => named
                        .filter(|k| {
                            let g = fn_of(k);
                            let free = g.impl_type.is_none();
                            g.trait_name.as_deref() == Some(TRAIT)
                                || (free && (k.0 == fi || module_of(&ws.files[k.0].rel) == qual))
                        })
                        .collect(),
                }
            } else {
                named
                    .filter(|k| k.0 == fi && fn_of(k).impl_type.is_none())
                    .collect()
            };
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
        let f = &file.fns[xi];
        let code = file.body(f);
        for (j, t) in code.iter().enumerate() {
            let next = code.get(j + 1);
            let prev = j.checked_sub(1).map(|p| &code[p]);
            let what = panicking(t, prev, next);
            if let Some(what) = what {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: t.line,
                    snippet: ws.snippet(fi, t.line),
                    message: format!("{what} in `{}` (reachable from `{root}`)", f.name),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup();
    out
}

/// The module a source file defines: its stem, or its directory's name
/// for a `mod.rs`.
fn module_of(rel: &str) -> &str {
    let mut parts = rel.trim_end_matches(".rs").rsplit('/');
    match parts.next() {
        Some("mod") => parts.next().unwrap_or(""),
        stem => stem.unwrap_or(""),
    }
}

/// What panicking construct `t` starts, if any, given its neighbours.
fn panicking(t: &Tok, prev: Option<&Tok>, next: Option<&Tok>) -> Option<String> {
    if t.kind == TokKind::Ident {
        if (t.text == "unwrap" || t.text == "expect")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            return Some(format!("`.{}()`", t.text));
        }
        if PANIC_MACROS.contains(&t.text.as_str()) && next.is_some_and(|n| n.is_punct('!')) {
            return Some(format!("`{}!`", t.text));
        }
    } else if t.is_punct('[') {
        // Indexing/slicing: `expr[…]` where expr ends in an identifier,
        // `]`, or `)`. Attribute (`#[…]`), array literal and type
        // positions have non-expression prefixes.
        if prev.is_some_and(|p| p.kind == TokKind::Ident || p.is_punct(']') || p.is_punct(')')) {
            return Some("unchecked indexing `[…]`".to_string());
        }
    } else if (t.is_punct('/') || t.is_punct('%'))
        && !next.is_some_and(|n| n.kind == TokKind::Number)
    {
        return Some("division/modulo by a non-literal".to_string());
    }
    None
}
