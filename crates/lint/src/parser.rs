//! A lightweight item parser over the token stream: enough structure for
//! the rule — which functions exist, which `impl`/`trait` block owns
//! them, where their bodies start and end, and what is test-only code.
//!
//! This is *not* a Rust grammar. It is a single pass that tracks brace
//! nesting, recognizes `impl`/`trait`/`mod`/`fn` headers, and marks
//! `#[cfg(test)]` / `#[test]` items so the rule can skip them. On
//! anything it does not understand it degrades to "plain braces", which
//! is always safe: unrecognized code is still scanned, it just carries
//! less context.

use crate::lexer::{Tok, TokKind};

/// One parsed function with its body as a token range.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Base type name of the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Trait being implemented (last path segment), or the trait being
    /// *defined* when the fn is a default method in a `trait` block.
    pub trait_name: Option<String>,
    /// Whether the parameter list declares a `self` receiver.
    pub has_self: bool,
    /// `toks[body.0..body.1]` is the body, braces excluded.
    pub body: (usize, usize),
    /// Inside `#[cfg(test)]` / `#[test]` — the rule skips these.
    pub in_test: bool,
}

/// A fully parsed file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnDef>,
}

impl ParsedFile {
    /// The body tokens of `f`.
    pub fn body<'a>(&'a self, f: &FnDef) -> &'a [Tok] {
        self.toks.get(f.body.0..f.body.1).unwrap_or(&[])
    }
}

/// What the brace being opened (or closed) belongs to.
#[derive(Debug, Clone, Default)]
struct Ctx {
    /// `Some` while this brace is an `impl`/`trait` block.
    owner: Option<(Option<String>, Option<String>)>, // (impl_type, trait_name)
    /// Index into `fns` to finalize when this brace closes.
    fn_index: Option<usize>,
    in_test: bool,
}

/// Parses one file's token stream.
pub fn parse(rel: &str, toks: Vec<Tok>) -> ParsedFile {
    let mut fns: Vec<FnDef> = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    // Context the *next* `{` should open with.
    let mut pending: Option<Ctx> = None;
    // Set by `#[cfg(test)]` / `#[test]` until the next item consumes it.
    let mut pending_test = false;

    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        let in_test = pending_test || stack.last().is_some_and(|c| c.in_test);
        let cur_owner = stack.iter().rev().find_map(|c| c.owner.clone());
        if t.is_punct('{') {
            stack.push(pending.take().unwrap_or(Ctx {
                in_test,
                ..Ctx::default()
            }));
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if let Some(fi) = stack.pop().and_then(|ctx| ctx.fn_index) {
                if let Some(f) = fns.get_mut(fi) {
                    f.body.1 = i;
                }
            }
            i += 1;
            continue;
        }
        // Attributes: `#[...]` — detect cfg(test) / test.
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while let Some(t) = toks.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                saw_cfg |= t.is_ident("cfg");
                saw_test |= t.is_ident("test");
                j += 1;
            }
            // `#[test]` alone also marks the item.
            if saw_test && (saw_cfg || j == i + 3) {
                pending_test = true;
            }
            i = j + 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            let opens = |owner| {
                Some(Ctx {
                    owner,
                    fn_index: None,
                    in_test,
                })
            };
            match t.text.as_str() {
                "impl" => {
                    let (type_name, trait_name, next) = parse_impl_header(&toks, i);
                    pending = opens(Some((Some(type_name), trait_name)));
                    pending_test = false;
                    i = next;
                    continue;
                }
                "trait" => {
                    let name = toks
                        .get(i + 1)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone());
                    pending = opens(Some((None, name)));
                    pending_test = false;
                    i = skip_to_open_brace(&toks, i + 1);
                    continue;
                }
                "mod" => {
                    pending = opens(None);
                    pending_test = false;
                    i += 1;
                    continue;
                }
                "fn" => {
                    let (def, has_body, next) = parse_fn_header(&toks, i, cur_owner, in_test);
                    pending_test = false;
                    if has_body {
                        fns.push(def);
                        pending = Some(Ctx {
                            owner: None,
                            fn_index: Some(fns.len() - 1),
                            in_test,
                        });
                    }
                    i = next;
                    continue;
                }
                _ => {}
            }
        }
        i += 1;
    }
    // Unterminated fns (truncated input): close at EOF.
    for f in &mut fns {
        if f.body.1 == usize::MAX {
            f.body.1 = toks.len();
        }
    }
    ParsedFile {
        rel: rel.to_string(),
        toks,
        fns,
    }
}

/// Skips a `<...>` generics list starting at `j`, if there is one.
fn skip_generics(toks: &[Tok], mut j: usize) -> usize {
    if !toks.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    // Token-level angle counting is fine at item position: no shifts or
    // comparisons appear in a header's generics.
    let mut depth = 1i32;
    j += 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// From `impl` at index `i`, extracts the header. Returns the base name
/// of the implementing type — its first identifier (`Vec` from `Vec<T>`),
/// `"()"` for unit, `"tuple"` for tuples, `"$macro"` for macro-template
/// impls (`impl Wire for $ty`) — the trait's last path segment (`Wire`
/// from `byzclock_sim::Wire`) if a trait impl, and the index of the
/// block's opening `{` (or of whatever stopped us).
fn parse_impl_header(toks: &[Tok], i: usize) -> (String, Option<String>, usize) {
    let tok = |j: usize| toks.get(j);
    let mut j = skip_generics(toks, i + 1);
    // Collect the first path: `A::B::Trait` (or the type, if no `for`).
    let mut first_path: Vec<String> = Vec::new();
    let mut saw_for = false;
    let mut angle = 0i32;
    while let Some(t) = tok(j) {
        if t.is_punct('{') || t.is_ident("where") {
            break;
        }
        if angle == 0 && t.is_ident("for") {
            saw_for = true;
            j += 1;
            break;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.kind == TokKind::Ident && angle == 0 {
            first_path.push(t.text.clone());
        }
        j += 1;
    }
    let (trait_name, type_name) = if saw_for {
        // Type follows: skip `&`/lifetimes, classify.
        while tok(j)
            .is_some_and(|t| t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut"))
        {
            j += 1;
        }
        let ty = match tok(j) {
            Some(t) if t.is_punct('$') => "$macro".to_string(),
            Some(t) if t.is_punct('(') => match tok(j + 1) {
                Some(t) if t.is_punct(')') => "()".to_string(),
                _ => "tuple".to_string(),
            },
            Some(t) if t.kind == TokKind::Ident => {
                // Follow `::` paths so `crate::NodeId` names `NodeId`.
                let mut ty = t.text.clone();
                while tok(j + 1).is_some_and(|t| t.is_punct(':'))
                    && tok(j + 2).is_some_and(|t| t.is_punct(':'))
                    && tok(j + 3).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    j += 3;
                    ty = tok(j).map(|t| t.text.clone()).unwrap_or(ty);
                }
                ty
            }
            _ => String::new(),
        };
        (first_path.last().cloned(), ty)
    } else {
        (None, first_path.last().cloned().unwrap_or_default())
    };
    (type_name, trait_name, skip_to_open_brace(toks, j))
}

/// From `fn` at index `i`, extracts the header. Returns the (maybe
/// body-less) def, whether it has a body, and the index positioned *on*
/// the opening `{` (so the main loop pushes the fn context) or just past
/// the `;`.
fn parse_fn_header(
    toks: &[Tok],
    i: usize,
    owner: Option<(Option<String>, Option<String>)>,
    in_test: bool,
) -> (FnDef, bool, usize) {
    let tok = |j: usize| toks.get(j);
    let name = tok(i + 1)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let mut j = skip_generics(toks, i + 2);
    // Parameter list.
    let mut has_self = false;
    if tok(j).is_some_and(|t| t.is_punct('(')) {
        let mut depth = 1i32;
        let mut commas = 0;
        j += 1;
        while let Some(t) = tok(j) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(',') {
                commas += 1;
            }
            // A receiver is a `self` in the first parameter slot: before
            // any comma at depth 1.
            has_self |= depth == 1 && commas == 0 && t.is_ident("self");
            j += 1;
        }
        j += 1; // past `)`
    }
    // Return type / where clause: scan to `{` or `;`.
    let mut has_body = false;
    while let Some(t) = tok(j) {
        if t.is_punct('{') {
            has_body = true;
            break;
        }
        j += 1;
        if t.is_punct(';') {
            break;
        }
    }
    let body_start = if has_body { j + 1 } else { 0 };
    let (impl_type, trait_name) = owner.unwrap_or((None, None));
    let def = FnDef {
        name,
        impl_type,
        trait_name,
        has_self,
        body: (body_start, usize::MAX),
        in_test,
    };
    (def, has_body, j)
}

/// Advances to the index of the next `{` (or EOF). Used after headers
/// whose tail we do not model.
fn skip_to_open_brace(toks: &[Tok], mut i: usize) -> usize {
    while toks.get(i).is_some_and(|t| !t.is_punct('{')) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse("test.rs", lex(src))
    }

    #[test]
    fn records_impl_fns_with_receivers_and_bodies() {
        let f = parse_src(
            "impl<T: Wire> Wire for Option<T> {\n\
             fn decode(r: &mut WireReader<'_>) -> Option<Self> { r.u8() }\n\
             fn len(&self) -> usize { 1 }\n\
             }\n\
             fn free() { helper(); }",
        );
        let names: Vec<&str> = f.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["decode", "len", "free"]);
        assert!(!f.fns[0].has_self);
        assert!(f.fns[1].has_self);
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Option"));
        assert_eq!(f.fns[0].trait_name.as_deref(), Some("Wire"));
        assert_eq!(f.fns[2].impl_type, None);
        let body = f.body(&f.fns[2]);
        assert!(body.iter().any(|t| t.is_ident("helper")));
        assert!(!body.iter().any(|t| t.is_punct('}')));
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_marked() {
        let f = parse_src(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests {\n\
             impl Wire for Tagged { fn decode() { panic!() } }\n\
             #[test]\nfn t() { x.unwrap(); }\n\
             }",
        );
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test, "fn inside cfg(test) mod");
        assert!(f.fns[2].in_test, "#[test] fn");
    }

    #[test]
    fn classifies_unit_tuple_and_macro_impl_targets() {
        let f = parse_src(
            "impl Wire for () { fn a() {} }\n\
             impl<A, B> Wire for (A, B) { fn b() {} }\n\
             macro_rules! m { ($ty:ty) => { impl Wire for $ty { fn c() {} } } }\n\
             impl fmt::Display for ScenarioSpec { fn fmt(&self) {} }",
        );
        let types: Vec<&str> = f
            .fns
            .iter()
            .filter_map(|x| x.impl_type.as_deref())
            .collect();
        assert_eq!(types, ["()", "tuple", "$macro", "ScenarioSpec"]);
        assert_eq!(f.fns[3].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn trait_default_methods_carry_the_trait_name() {
        let f = parse_src(
            "trait Wire: Sized { fn decode(format: F, r: &mut R) -> Option<Self> { None } }",
        );
        assert_eq!(f.fns[0].trait_name.as_deref(), Some("Wire"));
        assert_eq!(f.fns[0].impl_type, None);
    }
}
