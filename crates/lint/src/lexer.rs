//! A minimal Rust lexer that separates *code* from *non-code*.
//!
//! Rules must fire on code, not prose: a `thread_rng` inside a doc comment,
//! a `//` inside a string literal, or an `unwrap()` in a `/* ... */` block
//! must not produce (or hide) findings. This lexer walks the source once and
//! produces, per line, a **code mask** (the source with comment text, string
//! contents and char literals blanked to spaces) and the **comment text**
//! seen on that line (for `// SAFETY:` and `// lint:allow(...)` detection).
//!
//! Handled: `//` line comments (incl. `///` and `//!`), nested `/* */` block
//! comments, `"…"` strings with escapes, raw strings `r"…"` / `r#"…"#` with
//! arbitrarily many hashes, byte strings `b"…"` / `br#"…"#`, char literals
//! (incl. escapes like `'\u{1F600}'`) and the lifetime-vs-char ambiguity
//! (`'static` is code, `'s'` is a literal).

/// One source line after lexing.
#[derive(Debug, Clone, Default)]
pub struct LexedLine {
    /// The line with all non-code bytes replaced by spaces. String and char
    /// literal *delimiters* are kept so the shape of the code is preserved;
    /// their contents are blanked.
    pub code: String,
    /// Concatenated comment text that appears on this line (without the
    /// `//` / `/*` markers). Block comments spanning lines contribute the
    /// per-line slice to each line they cover.
    pub comment: String,
}

/// A whole file after lexing, 0-indexed by line.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub lines: Vec<LexedLine>,
}

impl LexedFile {
    /// 1-indexed accessor used by diagnostics.
    pub fn line(&self, line_no_1: usize) -> Option<&LexedLine> {
        self.lines.get(line_no_1.wrapping_sub(1))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth (Rust block comments nest).
    BlockComment(u32),
    /// In a string literal; `true` when the previous char was a backslash.
    Str {
        escaped: bool,
    },
    /// In a raw string closed by `"` followed by this many `#`s.
    RawStr {
        hashes: u32,
    },
    /// In a char literal; `true` when the previous char was a backslash.
    Char {
        escaped: bool,
    },
}

/// Lexes `src` into per-line code masks and comment text.
pub fn lex(src: &str) -> LexedFile {
    let chars: Vec<char> = src.chars().collect();
    let mut out = LexedFile::default();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {
            out.lines.push(LexedLine {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
            });
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        code.push_str("  ");
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        state = State::Str { escaped: false };
                        code.push('"');
                        i += 1;
                    }
                    'r' | 'b' if !prev_is_ident(&chars, i) && raw_prefix(&chars, i).is_some() => {
                        let (hashes, len) = raw_prefix(&chars, i).expect("checked above");
                        state = State::RawStr { hashes };
                        for _ in 0..len {
                            code.push(' ');
                        }
                        code.push('"');
                        i += len + 1;
                    }
                    'b' if !prev_is_ident(&chars, i) && next == Some('"') => {
                        state = State::Str { escaped: false };
                        code.push_str(" \"");
                        i += 2;
                    }
                    '\'' => {
                        // Lifetime (`'a`, `'static`) vs char literal (`'a'`,
                        // `'\n'`). A backslash always means a char literal;
                        // otherwise it is a char literal only when a closing
                        // quote follows one scalar.
                        if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                            state = State::Char { escaped: false };
                        }
                        code.push('\'');
                        i += 1;
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                }
            }
            State::LineComment => {
                code.push(' ');
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                        comment.push_str("*/");
                    }
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    comment.push_str("/*");
                    i += 2;
                } else {
                    code.push(' ');
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str { escaped } => {
                if escaped {
                    state = State::Str { escaped: false };
                    code.push(' ');
                } else if c == '\\' {
                    state = State::Str { escaped: true };
                    code.push(' ');
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                } else {
                    code.push(' ');
                }
                i += 1;
            }
            State::RawStr { hashes } => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    state = State::Code;
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Char { escaped } => {
                if escaped {
                    state = State::Char { escaped: false };
                    code.push(' ');
                } else if c == '\\' {
                    state = State::Char { escaped: true };
                    code.push(' ');
                } else if c == '\'' {
                    state = State::Code;
                    code.push('\'');
                } else {
                    code.push(' ');
                }
                i += 1;
            }
        }
    }
    flush_line!();
    out
}

/// True when `chars[i]` is preceded by an identifier character, which rules
/// out a raw-string / byte-string prefix (e.g. the `r` of `attacker"…"` in
/// `var"…"` splits differently).
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If `chars[i..]` starts a raw (byte) string prefix — `r"`, `r#"`, `br##"`,
/// … — returns `(hash_count, prefix_len)` where `prefix_len` counts the
/// chars before the opening quote.
fn raw_prefix(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j - i))
    } else {
        None
    }
}

/// True when the `"` at position `i` is followed by `hashes` `#`s, i.e. it
/// terminates the raw string opened with that many hashes.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Returns true if `needle` occurs in `hay` as a standalone token: the
/// characters on either side of the match must not be identifier characters.
/// Used so that e.g. `unwrap` does not match `unwrap_or`.
pub fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let nb = needle.as_bytes();
    // A boundary is only required on sides where the needle itself ends in
    // an identifier character: `.unwrap()` may follow `x`, but `unsafe`
    // must not match inside `unsafe_code`.
    let need_before = nb.first().is_some_and(|&b| is_ident_byte(b));
    let need_after = nb.last().is_some_and(|&b| is_ident_byte(b));
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = !need_before || at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = !need_after || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        lex(src).lines.into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comment_is_stripped_from_code_and_kept_as_comment() {
        let f = lex("let x = 1; // thread_rng mention\nlet y = 2;");
        assert!(!f.lines[0].code.contains("thread_rng"));
        assert!(f.lines[0].comment.contains("thread_rng"));
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert_eq!(f.lines[1].code, "let y = 2;");
    }

    #[test]
    fn doc_comments_are_comments() {
        let f = lex("/// uses unwrap() in the example\nfn a() {}\n//! module: panic!\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains("unwrap"));
        assert!(!f.lines[2].code.contains("panic"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner unwrap() */ still comment */ b";
        let f = lex(src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[0].code.contains("still"));
        assert!(f.lines[0].code.contains('a'));
        assert!(f.lines[0].code.contains('b'));
        assert!(f.lines[0].comment.contains("inner unwrap()"));
    }

    #[test]
    fn multiline_block_comment_covers_every_line() {
        let src = "x();\n/* one\ntwo thread_rng\nthree */\ny();";
        let cs = code_of(src);
        assert_eq!(cs[0], "x();");
        assert!(!cs[2].contains("thread_rng"));
        assert!(cs[4].contains("y();"));
        let f = lex(src);
        assert!(f.lines[2].comment.contains("thread_rng"));
    }

    #[test]
    fn string_containing_slashes_is_not_a_comment() {
        let f = lex(r#"let u = "https://example.com"; let v = 1;"#);
        assert!(f.lines[0].code.contains("let v = 1;"));
        assert!(!f.lines[0].code.contains("example"));
        assert!(f.lines[0].comment.is_empty());
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_remain() {
        let f = lex(r#"let s = "unwrap() thread_rng";"#);
        let c = &f.lines[0].code;
        assert!(!c.contains("unwrap"));
        assert!(!c.contains("thread_rng"));
        assert_eq!(c.matches('"').count(), 2);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let f = lex(r#"let s = "a\"b unwrap() c"; f();"#);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("f();"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let f = lex(r##"let s = r#"contains "quotes" and unwrap()"#; g();"##);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("g();"));
    }

    #[test]
    fn raw_string_without_hashes() {
        let f = lex(r#"let s = r"no // comment here"; h();"#);
        assert!(!f.lines[0].code.contains("comment"));
        assert!(f.lines[0].code.contains("h();"));
        assert!(f.lines[0].comment.is_empty());
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let f = lex(r##"let a = b"unwrap()"; let b2 = br#"panic!"#; k();"##);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("k();"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_raw_string() {
        let f = lex(r#"let attacker = var"x";"#);
        // `var"x"` is not valid Rust but the lexer must not treat the final
        // `r` of an identifier as a raw-string prefix and swallow the rest.
        assert!(f.lines[0].code.contains("let attacker ="));
    }

    #[test]
    fn char_literals_are_blanked() {
        let f = lex("let c = '\"'; let d = '\\''; m();");
        assert!(f.lines[0].code.contains("m();"));
        // The quote inside the char literal must not open a string.
        assert!(!f.lines[0].code.contains('"'));
    }

    #[test]
    fn lifetimes_are_code_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'static str { x }");
        assert!(f.lines[0].code.contains("'a"));
        assert!(f.lines[0].code.contains("'static"));
        assert!(f.lines[0].code.contains("{ x }"));
    }

    #[test]
    fn unicode_escape_char_literal() {
        let f = lex("let e = '\\u{1F600}'; n();");
        assert!(f.lines[0].code.contains("n();"));
    }

    #[test]
    fn find_token_respects_boundaries() {
        assert!(find_token("x.unwrap()", "unwrap").is_some());
        assert!(find_token("x.unwrap_or(0)", "unwrap").is_none());
        assert!(find_token("my_unwrap()", "unwrap").is_none());
        assert!(find_token("HashMap<K, V>", "HashMap").is_some());
        assert!(find_token("MyHashMap<K, V>", "HashMap").is_none());
    }
}
