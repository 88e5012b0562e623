//! The `dead-pub` rule: public library surface that no program reaches.
//!
//! A *candidate* is a `pub` free fn, inherent method, struct, enum, trait,
//! const, static or type alias declared outside test code in a library
//! target (`crates/*/src/**`, but not `src/bin/` or `src/main.rs`). It is a
//! finding unless something outside its own file names it:
//!
//! * an identifier in the non-test code of another scanned file — library,
//!   binary and example code alike, `use` imports included;
//! * an identifier in `fleetbench/src`, which is read for names only (no
//!   other rule runs there), so everything the benchmark calls survives;
//! * for a struct, enum, trait or type alias, an identifier in the
//!   signature, or in a `pub` field or variant, of another `pub` item of its
//!   own file: the type is then part of that item's API. A method's
//!   signature does not keep its own `impl` type.
//!
//! Nothing else names an item: not `pub use` re-exports, not comments or
//! doc tests (the code mask blanks them), not test regions or `tests/`
//! targets, and not the identifier a declaration introduces.
//!
//! Matching is by bare name, so the rule errs toward silence: every
//! `.encode(` anywhere names every `pub fn encode`. A finding is resolved by
//! deleting the item, dropping a needless `pub`, or justifying the item —
//! inline or in `lint.allow` — by the contract that keeps it.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::LexedFile;
use crate::parser::{tokenize, ParsedFile, Tok};
use crate::rules::{test_mask, FileContext, FileKind, Finding};

/// Keywords that introduce a name: the identifier after one is a
/// declaration, not a use.
const DECL_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];

/// One `pub` declaration of a library file.
struct PubItem {
    /// `"fn"`, `"struct"`, `"enum"`, `"trait"`, `"const"`, `"static"` or
    /// `"type"`.
    kind: &'static str,
    name: String,
    /// 1-indexed line of the `pub` keyword.
    line: usize,
    /// 1-indexed line of the item keyword, to find a method's `impl` type
    /// among the parsed fns.
    keyword_line: usize,
    /// Identifiers of the item's API: its signature or type, or its `pub`
    /// fields and variants.
    api: BTreeSet<String>,
}

/// What one file contributes: the names its non-test code uses, and its
/// `pub` items when it is library code.
struct FileScan {
    names: BTreeSet<String>,
    items: Vec<PubItem>,
}

/// `(line, token)` over a file's non-test lines, in order.
type Tokens = Vec<(usize, Tok)>;

/// Runs the rule over the scanned workspace files (`parsed[i]` is the item
/// table of `files[i]`) and the name-only sources (fleetbench). Returns raw,
/// not yet suppression-resolved findings.
pub fn analyze(
    files: &[(FileContext, LexedFile)],
    parsed: &[ParsedFile],
    names_only: &[LexedFile],
) -> Vec<Finding> {
    let scans: Vec<Option<FileScan>> = files
        .iter()
        .map(|(ctx, lexed)| {
            (ctx.kind != FileKind::Test).then(|| scan(lexed, ctx.kind, is_library(ctx)))
        })
        .collect();
    let extra: Vec<FileScan> =
        names_only.iter().map(|lexed| scan(lexed, FileKind::Lib, false)).collect();

    // How many files name each identifier.
    let mut naming: BTreeMap<&str, usize> = BTreeMap::new();
    for scan in scans.iter().flatten().chain(&extra) {
        for name in &scan.names {
            *naming.entry(name.as_str()).or_default() += 1;
        }
    }

    let mut findings = Vec::new();
    for (((ctx, _), parsed), scan) in files.iter().zip(parsed).zip(&scans) {
        let Some(scan) = scan else { continue };
        // A method's `impl` type, found among the parsed fns.
        let owners: Vec<Option<&str>> = scan
            .items
            .iter()
            .map(|item| {
                parsed
                    .fns
                    .iter()
                    .find(|f| f.line == item.keyword_line && f.name == item.name)
                    .and_then(|f| f.impl_type.as_deref())
            })
            .collect();
        // How many items' APIs name each identifier, a method's own impl
        // type not counted.
        let mut in_api: BTreeMap<&str, usize> = BTreeMap::new();
        for (item, owner) in scan.items.iter().zip(&owners) {
            for name in item.api.iter().filter(|name| Some(name.as_str()) != *owner) {
                *in_api.entry(name.as_str()).or_default() += 1;
            }
        }
        for (item, owner) in scan.items.iter().zip(&owners) {
            let name = item.name.as_str();
            let elsewhere =
                naming.get(name).copied().unwrap_or(0) > usize::from(scan.names.contains(name));
            let typed = matches!(item.kind, "struct" | "enum" | "trait" | "type");
            let in_sibling_api = typed
                && in_api.get(name).copied().unwrap_or(0) > usize::from(item.api.contains(name));
            if elsewhere || in_sibling_api {
                continue;
            }
            let path = match owner {
                Some(ty) => format!("{ty}::{name}"),
                None => name.to_owned(),
            };
            findings.push(Finding {
                file: ctx.rel_path.clone(),
                line: item.line,
                rule: "dead-pub",
                message: format!(
                    "`pub {} {path}` is named by no non-test code outside this file, fleetbench included; delete it, drop the `pub`, or justify the contract that keeps it",
                    item.kind
                ),
                suppressed: None,
            });
        }
    }
    findings
}

/// A library target of a workspace crate: `crates/*/src/**` outside
/// `src/bin/` and `src/main.rs`.
fn is_library(ctx: &FileContext) -> bool {
    ctx.kind == FileKind::Lib && ctx.crate_name.is_some() && !ctx.rel_path.ends_with("/src/main.rs")
}

fn scan(lexed: &LexedFile, kind: FileKind, library: bool) -> FileScan {
    let mask = test_mask(lexed, kind);
    let toks: Tokens = lexed
        .lines
        .iter()
        .enumerate()
        .filter(|&(idx, _)| !mask[idx])
        .flat_map(|(idx, line)| tokenize(&line.code).into_iter().map(move |s| (idx + 1, s.tok)))
        .collect();
    let mut names = BTreeSet::new();
    let mut items = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let Some(word) = ident(&toks, i) else {
            i += 1;
            continue;
        };
        let lifetime = sym(&toks, i.wrapping_sub(1)) == Some('\'');
        if word == "pub" {
            let after = skip_group(&toks, i + 1);
            if ident(&toks, after) == Some("use") {
                // A re-export names nothing.
                while i < toks.len() && sym(&toks, i) != Some(';') {
                    i += 1;
                }
                continue;
            }
            if library && after == i + 1 {
                items.extend(pub_item(&toks, i));
            }
        } else if DECL_KEYWORDS.contains(&word) && !lifetime {
            if let Some(declared) = ident(&toks, i + 1) {
                if !DECL_KEYWORDS.contains(&declared) && declared != "unsafe" {
                    i += 2;
                    continue;
                }
            }
        } else if !lifetime {
            names.insert(word.to_owned());
        }
        i += 1;
    }
    FileScan { names, items }
}

fn ident(toks: &Tokens, i: usize) -> Option<&str> {
    match toks.get(i) {
        Some((_, Tok::Ident(name))) => Some(name),
        _ => None,
    }
}

fn sym(toks: &Tokens, i: usize) -> Option<char> {
    match toks.get(i) {
        Some((_, Tok::Sym(c))) => Some(*c),
        _ => None,
    }
}

/// Skips a parenthesized group at `i` (`pub(crate)`), if there is one.
fn skip_group(toks: &Tokens, i: usize) -> usize {
    if sym(toks, i) != Some('(') {
        return i;
    }
    let mut depth = 0;
    for (j, (_, tok)) in toks.iter().enumerate().skip(i) {
        match tok {
            Tok::Sym('(') => depth += 1,
            Tok::Sym(')') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Nesting change of one token: brackets, and angle brackets except the
/// `>` of `->` / `=>`.
fn nesting(toks: &Tokens, i: usize) -> i32 {
    match sym(toks, i) {
        Some('(' | '[' | '{' | '<') => 1,
        Some('>') if matches!(sym(toks, i.wrapping_sub(1)), Some('-' | '=')) => 0,
        Some(')' | ']' | '}' | '>') => -1,
        _ => 0,
    }
}

/// A named field or parameter: an identifier followed by one `:`.
fn is_binding(toks: &Tokens, k: usize) -> bool {
    sym(toks, k + 1) == Some(':') && sym(toks, k + 2) != Some(':')
}

/// Parses the `pub` item whose `pub` keyword is token `at`.
fn pub_item(toks: &Tokens, at: usize) -> Option<PubItem> {
    let mut j = at + 1;
    loop {
        match (ident(toks, j), sym(toks, j)) {
            (Some("unsafe" | "async" | "extern"), _) | (_, Some('"')) => j += 1,
            (Some("const"), _)
                if matches!(ident(toks, j + 1), Some("fn" | "unsafe" | "extern")) =>
            {
                j += 1
            }
            _ => break,
        }
    }
    let kind = match ident(toks, j)? {
        "fn" => "fn",
        "struct" => "struct",
        "enum" => "enum",
        "trait" => "trait",
        "const" => "const",
        "static" => "static",
        "type" => "type",
        _ => return None,
    };
    let mut name_at = j + 1;
    if kind == "static" && ident(toks, name_at) == Some("mut") {
        name_at += 1;
    }
    let name = ident(toks, name_at).filter(|n| *n != "_")?.to_owned();
    let mut item =
        PubItem { kind, name, line: toks[at].0, keyword_line: toks[j].0, api: BTreeSet::new() };
    match kind {
        "struct" | "enum" | "trait" => collect_body_api(toks, name_at + 1, &mut item),
        _ => collect_signature_api(toks, name_at + 1, &mut item),
    }
    Some(item)
}

/// The API of a fn, const, static or type alias: its signature up to the
/// body (fn), its type up to the initializer (const, static), or its whole
/// definition (type alias). Parameter names are not API.
fn collect_signature_api(toks: &Tokens, start: usize, item: &mut PubItem) {
    let stops: &[char] = match item.kind {
        "fn" => &['{', ';'],
        "type" => &[';'],
        _ => &['=', ';'],
    };
    let mut depth = 0;
    for k in start..toks.len() {
        if depth == 0 && sym(toks, k).is_some_and(|c| stops.contains(&c)) {
            return;
        }
        depth += nesting(toks, k);
        if let Some(word) = ident(toks, k) {
            if !is_binding(toks, k) {
                item.api.insert(word.to_owned());
            }
        }
    }
}

/// The API of a struct, enum or trait: identifiers of its header (generics,
/// bounds), then of its `pub` fields (struct), every variant (enum), or its
/// item signatures outside default bodies (trait).
fn collect_body_api(toks: &Tokens, start: usize, item: &mut PubItem) {
    let mut k = start;
    let mut depth = 0;
    // The header, up to the body's opening bracket.
    while k < toks.len() {
        if depth == 0 && matches!(sym(toks, k), Some('{' | '(' | ';')) {
            break;
        }
        depth += nesting(toks, k);
        if let Some(word) = ident(toks, k) {
            item.api.insert(word.to_owned());
        }
        k += 1;
    }
    if sym(toks, k) == Some(';') {
        return; // a unit struct
    }
    // Inside the body, both depths count from the body's own bracket.
    let mut depth = 0;
    let mut braces = 0;
    // For struct fields: whether the field being read is `pub`, once known.
    let mut field_pub: Option<bool> = None;
    while k < toks.len() {
        depth += nesting(toks, k);
        match sym(toks, k) {
            Some('{') => braces += 1,
            Some('}') => braces -= 1,
            _ => {}
        }
        if depth == 0 {
            return;
        }
        if depth == 1 && sym(toks, k) == Some(',') {
            field_pub = None;
        }
        if let Some(word) = ident(toks, k) {
            if depth == 1 && field_pub.is_none() {
                field_pub = Some(word == "pub" && sym(toks, k + 1) != Some('('));
            }
            let keep = !is_binding(toks, k)
                && match item.kind {
                    "enum" => true,
                    "trait" => braces == 1,
                    _ => field_pub == Some(true) && word != "pub",
                };
            if keep {
                item.api.insert(word.to_owned());
            }
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<(String, &'static str, Vec<String>)> {
        scan(&lex(src), FileKind::Lib, true)
            .items
            .into_iter()
            .map(|i| (i.name, i.kind, i.api.into_iter().collect()))
            .collect()
    }

    #[test]
    fn pub_items_and_their_api_are_read() {
        let src = "pub struct S<T: Bound> {\n    pub a: Vec<Field>,\n    b: Hidden,\n    pub(crate) c: Crate,\n}\n\
                   pub(crate) fn inner() {}\n\
                   pub const fn cf(x: Arg) -> Ret { Body }\n\
                   pub const N: Width = 3;\n\
                   pub enum E { A(Payload), B { x: Named } }\n\
                   pub type Alias = Target<Inner>;\n\
                   pub trait T { fn sig(&self) -> Sig; fn m(&self) -> Out { Default } }\n\
                   pub struct Tuple(pub Shown, Hidden2);\n";
        let got = items(src);
        let names: Vec<(&str, &str)> = got.iter().map(|(n, k, _)| (n.as_str(), *k)).collect();
        assert_eq!(
            names,
            vec![
                ("S", "struct"),
                ("cf", "fn"),
                ("N", "const"),
                ("E", "enum"),
                ("Alias", "type"),
                ("T", "trait"),
                ("Tuple", "struct"),
            ]
        );
        let api = |i: usize| got[i].2.iter().map(String::as_str).collect::<Vec<_>>();
        assert_eq!(api(0), vec!["Bound", "Field", "T", "Vec"]);
        assert_eq!(api(1), vec!["Arg", "Ret"]);
        assert_eq!(api(2), vec!["Width"]);
        assert_eq!(api(3), vec!["A", "B", "Named", "Payload"]);
        assert_eq!(api(4), vec!["Inner", "Target"]);
        assert_eq!(api(5), vec!["Out", "Sig", "fn", "m", "self", "sig"]);
        assert_eq!(api(6), vec!["Shown"]);
    }

    #[test]
    fn re_exports_declarations_and_lifetimes_name_nothing() {
        let src = "pub use a::{Gone, Also};\npub(crate) use b::Hidden;\nuse c::Kept;\n\
                   fn declared(x: &'static Used) {}\n";
        let names = scan(&lex(src), FileKind::Lib, false).names;
        for absent in ["Gone", "Also", "Hidden", "declared"] {
            assert!(!names.contains(absent), "{absent}");
        }
        for present in ["Kept", "Used", "x"] {
            assert!(names.contains(present), "{present}");
        }
    }
}
