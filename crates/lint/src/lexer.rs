//! A total Rust tokenizer: every byte sequence lexes to a token stream,
//! nothing panics, and the cursor always advances (pinned by a proptest).
//!
//! The token model is deliberately coarse — identifiers (keywords
//! included), literals and single-character punctuation — which is
//! exactly enough for the rule: brace matching, call-edge extraction and
//! panicking-construct scanning. Comments are skipped, so nothing inside
//! one is ever read as code.

/// What a token is, coarsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers lose their `r#` prefix).
    Ident,
    /// Numeric literal, suffix included (`1_000u64`, `0xff`, `1.5e3`).
    Number,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`), quotes
    /// stripped, escapes left as written.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`) — distinct from `Char` so `'a>` never confuses
    /// the char scanner.
    Lifetime,
    /// Any other single character.
    Punct,
}

/// One token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// `true` when this is punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.starts_with(c)
    }

    /// `true` when this is the identifier (or keyword) `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// Tokenizes `src`. Total: malformed input (unterminated strings, stray
/// bytes) degrades to best-effort tokens rather than an error.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let at = |i: usize| chars.get(i).copied();
    while let Some(c) = at(i) {
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Comments (block comments nest).
        if c == '/' && at(i + 1) == Some('/') {
            while at(i).is_some_and(|c| c != '\n') {
                i += 1;
            }
            continue;
        }
        if c == '/' && at(i + 1) == Some('*') {
            i += 2;
            let mut depth = 1u32;
            while depth > 0 {
                match (at(i), at(i + 1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        i += 2;
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        i += 2;
                    }
                    (Some(c), _) => {
                        if c == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    (None, _) => break, // unterminated: swallow to EOF
                }
            }
            continue;
        }
        // Raw strings and raw identifiers: r"…", r#"…"#, br#"…"#, r#ident.
        if (c == 'r' || c == 'b') && matches!(at(i + 1), Some('r' | '#' | '"')) {
            let mut j = i + 1;
            if c == 'b' && at(j) == Some('r') {
                j += 1;
            }
            let mut hashes = 0usize;
            while at(j) == Some('#') {
                hashes += 1;
                j += 1;
            }
            if at(j) == Some('"') && (c == 'r' || (c == 'b' && at(i + 1) != Some('"'))) {
                // Raw string: scan to `"` + `hashes` hashes (or EOF).
                j += 1;
                let start = j;
                let (text, end, nl) = scan_raw(&chars, start, hashes);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line,
                });
                line += nl;
                i = end;
                continue;
            }
            if c == 'r' && hashes == 1 && at(j).is_some_and(is_ident_start) {
                // Raw identifier r#name.
                let start = j;
                while at(j).is_some_and(is_ident_continue) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            // Fall through: plain ident starting with r/b, or b"…".
        }
        // Byte strings b"…" (cooked).
        if c == 'b' && at(i + 1) == Some('"') {
            let (text, end, nl) = scan_cooked(&chars, i + 2, '"');
            toks.push(Tok {
                kind: TokKind::Str,
                text,
                line,
            });
            line += nl;
            i = end;
            continue;
        }
        // Strings.
        if c == '"' {
            let (text, end, nl) = scan_cooked(&chars, i + 1, '"');
            toks.push(Tok {
                kind: TokKind::Str,
                text,
                line,
            });
            line += nl;
            i = end;
            continue;
        }
        // Lifetimes vs char literals.
        if c == '\'' {
            // `'ident` not followed by `'` is a lifetime (or loop label).
            if at(i + 1).is_some_and(is_ident_start) {
                let mut j = i + 1;
                while at(j).is_some_and(is_ident_continue) {
                    j += 1;
                }
                if at(j) != Some('\'') {
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[i + 1..j].iter().collect(),
                        line,
                    });
                    i = j;
                    continue;
                }
            }
            let (text, end, nl) = scan_cooked(&chars, i + 1, '\'');
            toks.push(Tok {
                kind: TokKind::Char,
                text,
                line,
            });
            line += nl;
            i = end;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while let Some(c) = at(i) {
                let in_number = c.is_ascii_alphanumeric()
                    || c == '_'
                    || (c == '.' && at(i + 1).is_some_and(|d| d.is_ascii_digit()));
                if !in_number {
                    break;
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Number,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while at(i).is_some_and(is_ident_continue) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Everything else: one punctuation character.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans a cooked (escape-aware) literal from `start` to the closing
/// `quote`. Returns `(text, next index, newlines crossed)`; an
/// unterminated literal swallows to EOF.
fn scan_cooked(chars: &[char], start: usize, quote: char) -> (String, usize, u32) {
    let mut i = start;
    let mut nl = 0u32;
    while let Some(&c) = chars.get(i) {
        if c == '\\' {
            i += 2;
            continue;
        }
        if c == quote {
            let text = chars[start..i.min(chars.len())].iter().collect();
            return (text, i + 1, nl);
        }
        if c == '\n' {
            nl += 1;
        }
        i += 1;
    }
    let end = chars.len();
    (chars[start.min(end)..end].iter().collect(), end, nl)
}

/// Scans a raw string from `start` to `"` followed by `hashes` hashes.
fn scan_raw(chars: &[char], start: usize, hashes: usize) -> (String, usize, u32) {
    let mut i = start;
    let mut nl = 0u32;
    while let Some(&c) = chars.get(i) {
        if c == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                let text = chars[start..i].iter().collect();
                return (text, i + 1 + hashes, nl);
            }
        }
        if c == '\n' {
            nl += 1;
        }
        i += 1;
    }
    let end = chars.len();
    (chars[start.min(end)..end].iter().collect(), end, nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_the_token_menagerie() {
        let toks = kinds(
            r##"fn f<'a>(x: &'a [u8]) -> u16 { // trailing
                let s = "str \" esc";
                let r = r#"raw "inner""#;
                let c = 'x'; let n = 1_000u64; /* block /* nested */ */
                x[0] as u16
            }"##,
        );
        assert!(toks.contains(&(TokKind::Lifetime, "a".into())));
        assert!(toks.contains(&(TokKind::Str, "str \\\" esc".into())));
        assert!(toks.contains(&(TokKind::Str, "raw \"inner\"".into())));
        assert!(toks.contains(&(TokKind::Char, "x".into())));
        assert!(toks.contains(&(TokKind::Number, "1_000u64".into())));
        assert!(!toks.iter().any(|(_, t)| t == "trailing" || t == "nested"));
    }

    #[test]
    fn line_numbers_track_every_literal_form() {
        let toks = lex("a\nb \"x\ny\" c\n'd'");
        let find = |name: &str| toks.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(2));
        assert_eq!(find("c"), Some(3));
        assert_eq!(find("d"), Some(4));
    }

    #[test]
    fn unterminated_literals_swallow_to_eof() {
        assert_eq!(lex("\"abc").len(), 1);
        assert_eq!(lex("r#\"abc").len(), 1);
        assert_eq!(lex("/* abc").len(), 0);
        assert_eq!(lex("'a").len(), 1); // lifetime at EOF
        assert_eq!(lex("'\\").len(), 1);
    }
}
