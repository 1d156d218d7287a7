//! A lightweight item parser over the token stream: enough structure for
//! the rules — which functions exist, which `impl`/`trait` block owns
//! them, where their bodies start and end, and what is test-only code.
//!
//! This is *not* a Rust grammar. It is a single pass that tracks brace
//! nesting, recognizes `impl`/`trait`/`mod`/`fn` headers, and records
//! `#[cfg(test)]` / `#[test]` regions so every rule can skip them. On
//! anything it does not understand it degrades to "plain braces", which
//! is always safe: unrecognized code is still scanned for banned tokens,
//! it just carries less context.

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
    pub line: u32,
    /// Inside `#[cfg(test)]` / `#[test]` — rules skip these.
    pub in_test: bool,
}

/// One `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Trait last path segment (`Wire` from `byzclock_sim::Wire`), if a
    /// trait impl.
    pub trait_name: Option<String>,
    /// Base name of the implementing type: first identifier of the type
    /// (`Vec` from `Vec<T>`), `"()"` for unit, `"tuple"` for tuples, or
    /// `"$macro"` for macro-template impls (`impl Wire for $ty`).
    pub type_name: String,
    pub line: u32,
    pub in_test: bool,
}

/// A fully parsed file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnDef>,
    pub impls: Vec<ImplDef>,
    /// Raw-token ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// The body tokens of `f`.
    pub fn body<'a>(&'a self, f: &FnDef) -> &'a [Tok] {
        self.toks.get(f.body.0..f.body.1).unwrap_or(&[])
    }

    /// Whether raw token index `i` falls inside test-only code.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i < b)
    }
}

#[derive(Debug, Clone)]
struct Ctx {
    /// `Some` while this brace is an `impl`/`trait` block.
    owner: Option<(Option<String>, Option<String>)>, // (impl_type, trait_name)
    /// Index into `fns` to finalize when this brace closes.
    fn_index: Option<usize>,
    in_test: bool,
    /// Index into `test_ranges` to close when this brace closes (set on
    /// the outermost test brace only).
    test_range: Option<usize>,
}

/// Parses one file's token stream.
pub fn parse(rel: &str, toks: Vec<Tok>) -> ParsedFile {
    let mut fns: Vec<FnDef> = Vec::new();
    let mut impls: Vec<ImplDef> = Vec::new();
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    // Context the *next* `{` should open with.
    let mut pending: Option<Ctx> = None;
    // Set by `#[cfg(test)]` / `#[test]` until the next item consumes it.
    let mut pending_test = false;

    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let tok = |ci: usize| -> Option<&Tok> { code.get(ci).map(|&i| &toks[i]) };

    let mut ci = 0usize;
    while let Some(t) = tok(ci) {
        let in_test = pending_test || stack.last().is_some_and(|c| c.in_test);
        let cur_owner = stack.iter().rev().find_map(|c| c.owner.clone());
        if t.is_punct('{') {
            let mut ctx = pending.take().unwrap_or(Ctx {
                owner: None,
                fn_index: None,
                in_test,
                test_range: None,
            });
            let parent_test = stack.last().is_some_and(|c| c.in_test);
            if ctx.in_test && !parent_test {
                test_ranges.push((code[ci], usize::MAX));
                ctx.test_range = Some(test_ranges.len() - 1);
            }
            stack.push(ctx);
            ci += 1;
            continue;
        }
        if t.is_punct('}') {
            if let Some(ctx) = stack.pop() {
                if let Some(fi) = ctx.fn_index {
                    if let (Some(f), Some(&end)) = (fns.get_mut(fi), code.get(ci)) {
                        f.body.1 = end;
                    }
                }
                if let Some(ri) = ctx.test_range {
                    if let (Some(r), Some(&end)) = (test_ranges.get_mut(ri), code.get(ci)) {
                        r.1 = end + 1;
                    }
                }
            }
            ci += 1;
            continue;
        }
        // Attributes: `#[...]` — detect cfg(test) / test.
        if t.is_punct('#') && tok(ci + 1).is_some_and(|t| t.is_punct('[')) {
            let mut j = ci + 2;
            let mut depth = 1i32;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while let Some(t) = tok(j) {
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
            if saw_test && (saw_cfg || j == ci + 3) {
                pending_test = true;
            }
            ci = j + 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "impl" => {
                    let (imp, next) = parse_impl_header(&toks, &code, ci, in_test);
                    pending = Some(Ctx {
                        owner: Some((Some(imp.type_name.clone()), imp.trait_name.clone())),
                        fn_index: None,
                        in_test,
                        test_range: None,
                    });
                    impls.push(imp);
                    pending_test = false;
                    ci = next;
                    continue;
                }
                "trait" => {
                    let name = tok(ci + 1)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone());
                    pending = Some(Ctx {
                        owner: Some((None, name)),
                        fn_index: None,
                        in_test,
                        test_range: None,
                    });
                    pending_test = false;
                    ci = skip_to_open_brace(&toks, &code, ci + 1);
                    continue;
                }
                "mod" => {
                    pending = Some(Ctx {
                        owner: None,
                        fn_index: None,
                        in_test,
                        test_range: None,
                    });
                    pending_test = false;
                    ci += 1;
                    continue;
                }
                "fn" => {
                    let (def, has_body, next) =
                        parse_fn_header(&toks, &code, ci, cur_owner, in_test);
                    pending_test = false;
                    if has_body {
                        fns.push(def);
                        pending = Some(Ctx {
                            owner: None,
                            fn_index: Some(fns.len() - 1),
                            in_test,
                            test_range: None,
                        });
                    }
                    ci = next;
                    continue;
                }
                _ => {}
            }
        }
        ci += 1;
    }
    // Unterminated fns (truncated input): close at EOF.
    for f in &mut fns {
        if f.body.1 == usize::MAX {
            f.body.1 = toks.len();
        }
    }
    for r in &mut test_ranges {
        if r.1 == usize::MAX {
            r.1 = toks.len();
        }
    }
    ParsedFile {
        rel: rel.to_string(),
        toks,
        fns,
        impls,
        test_ranges,
    }
}

/// From `impl` at code index `ci`, extracts the header. Returns the impl
/// and the code index of its opening `{` (or of whatever stopped us).
fn parse_impl_header(toks: &[Tok], code: &[usize], ci: usize, in_test: bool) -> (ImplDef, usize) {
    let tok = |ci: usize| -> Option<&Tok> { code.get(ci).map(|&i| &toks[i]) };
    let line = tok(ci).map_or(0, |t| t.line);
    let mut j = ci + 1;
    // Skip `<...>` generics (token-level angle counting is fine at item
    // position: no shifts or comparisons appear in an impl header).
    if tok(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 1i32;
        j += 1;
        while let Some(t) = tok(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
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
        let mut ty = String::new();
        while let Some(t) = tok(j) {
            if t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut") {
                j += 1;
                continue;
            }
            if t.is_punct('$') {
                ty = "$macro".to_string();
            } else if t.is_punct('(') {
                ty = if tok(j + 1).is_some_and(|t| t.is_punct(')')) {
                    "()".to_string()
                } else {
                    "tuple".to_string()
                };
            } else if t.kind == TokKind::Ident {
                // Follow `::` paths so `crate::NodeId` names `NodeId`.
                ty = t.text.clone();
                while tok(j + 1).is_some_and(|t| t.is_punct(':'))
                    && tok(j + 2).is_some_and(|t| t.is_punct(':'))
                    && tok(j + 3).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    j += 3;
                    ty = tok(j).map(|t| t.text.clone()).unwrap_or(ty);
                }
            }
            break;
        }
        (first_path.last().cloned(), ty)
    } else {
        (None, first_path.last().cloned().unwrap_or_default())
    };
    let next = skip_to_open_brace(toks, code, j);
    (
        ImplDef {
            trait_name,
            type_name,
            line,
            in_test,
        },
        next,
    )
}

/// From `fn` at code index `ci`, extracts the header. Returns the (maybe
/// body-less) def, whether it has a body, and the code index positioned
/// *on* the opening `{` (so the main loop pushes the fn context) or just
/// past the `;`.
fn parse_fn_header(
    toks: &[Tok],
    code: &[usize],
    ci: usize,
    owner: Option<(Option<String>, Option<String>)>,
    in_test: bool,
) -> (FnDef, bool, usize) {
    let tok = |ci: usize| -> Option<&Tok> { code.get(ci).map(|&i| &toks[i]) };
    let line = tok(ci).map_or(0, |t| t.line);
    let name = tok(ci + 1)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let mut j = ci + 2;
    // Generics.
    if tok(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 1i32;
        j += 1;
        while let Some(t) = tok(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Parameter list.
    let mut has_self = false;
    if tok(j).is_some_and(|t| t.is_punct('(')) {
        let mut depth = 1i32;
        let params_start = j + 1;
        j += 1;
        while let Some(t) = tok(j) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            // A receiver is a `self` in the first parameter slot: before
            // any comma at depth 1.
            if depth == 1 && t.is_ident("self") && !has_self {
                let before_comma = (params_start..j).filter_map(tok).all(|t| !t.is_punct(','));
                has_self = before_comma;
            }
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
        if t.is_punct(';') {
            j += 1;
            break;
        }
        j += 1;
    }
    let body_start = if has_body {
        code.get(j + 1).copied().unwrap_or(toks.len())
    } else {
        0
    };
    let (impl_type, trait_name) = owner.unwrap_or((None, None));
    (
        FnDef {
            name,
            impl_type,
            trait_name,
            has_self,
            body: (body_start, usize::MAX),
            line,
            in_test,
        },
        has_body,
        j,
    )
}

/// Advances to the code index of the next `{` at the current level (or
/// EOF). Used after headers whose tail we do not model.
fn skip_to_open_brace(toks: &[Tok], code: &[usize], mut ci: usize) -> usize {
    while let Some(&i) = code.get(ci) {
        if toks[i].is_punct('{') {
            return ci;
        }
        ci += 1;
    }
    ci
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
        assert_eq!(f.impls.len(), 1);
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("Wire"));
        assert_eq!(f.impls[0].type_name, "Option");
        let names: Vec<&str> = f.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["decode", "len", "free"]);
        assert!(!f.fns[0].has_self);
        assert!(f.fns[1].has_self);
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Option"));
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
        assert!(f.impls[0].in_test);
    }

    #[test]
    fn classifies_unit_tuple_and_macro_impl_targets() {
        let f = parse_src(
            "impl Wire for () {}\n\
             impl<A, B> Wire for (A, B) {}\n\
             macro_rules! m { ($ty:ty) => { impl Wire for $ty {} } }\n\
             impl fmt::Display for ScenarioSpec { fn fmt(&self) {} }",
        );
        let types: Vec<&str> = f.impls.iter().map(|i| i.type_name.as_str()).collect();
        assert_eq!(types, ["()", "tuple", "$macro", "ScenarioSpec"]);
        assert_eq!(f.impls[3].trait_name.as_deref(), Some("Display"));
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
