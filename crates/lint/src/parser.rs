//! Item-level parsing on top of the lexer's code masks.
//!
//! [`parse_file`] turns a [`LexedFile`] into the per-file half of the
//! workspace symbol table consumed by [`crate::flow`]: every `fn` item with
//! its enclosing `impl` type, parameter names, ordered call sites (with the
//! textual arguments each call passes) and `let` bindings whose initializer
//! runs through `derive_seed`, plus `struct`/`enum`/`trait` declarations
//! with named fields.
//!
//! This is deliberately *not* a Rust parser. It is a brace-depth tracker
//! over the comment- and string-stripped code mask, so it cannot be confused
//! by braces in literals, but it also resolves nothing: generics are
//! skipped, trait-object calls keep only their method name, and macro bodies
//! are opaque. The flow analysis documents these soundness limits
//! (DESIGN.md §15) and the rules built on top are tuned so the approximation
//! errs toward silence, with suppressions carrying the rest.

use crate::lexer::LexedFile;
use crate::rules::{test_mask, FileContext, FileKind};

/// All items extracted from one source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// `Some("core")` for `crates/core/…`, `None` for root files.
    pub crate_name: Option<String>,
    pub kind: FileKind,
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeItem>,
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl` type (`impl Foo` and `impl Trait for Foo` both give
    /// `Foo`), `None` for free functions.
    pub impl_type: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// 1-indexed line of the closing brace.
    pub end_line: usize,
    /// Inside a `#[cfg(test)]` / `#[test]` region or a test target.
    pub in_test: bool,
    /// Parameter names in declaration order, `self` receivers excluded.
    pub params: Vec<String>,
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
    /// Names of `let` bindings whose initializer calls `derive_seed`.
    pub derived_lets: Vec<String>,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    pub callee: String,
    /// `X::callee(…)` gives `Some("X")`; `Self::` is resolved to the
    /// enclosing impl type at parse time.
    pub qualifier: Option<String>,
    /// `.callee(…)` method-call syntax.
    pub method: bool,
    /// 1-indexed line of the callee identifier.
    pub line: usize,
    /// Top-level comma-split argument texts (receiver excluded for method
    /// calls), truncated past `ARG_CAP` (400) characters.
    pub args: Vec<String>,
}

/// A `struct` / `enum` / `trait` declaration.
#[derive(Debug)]
pub struct TypeItem {
    pub name: String,
    /// `"struct"`, `"enum"` or `"trait"`.
    pub kind: &'static str,
    /// 1-indexed declaration line.
    pub line: usize,
    /// Named fields (structs only; tuple structs and enums report none).
    pub fields: Vec<String>,
}

/// Upper bound on captured call-argument text, to keep pathological
/// constructor calls from bloating the table.
const ARG_CAP: usize = 400;

/// Keywords that look like `ident (` but never denote a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "in", "as", "move", "impl", "where",
    "pub", "use", "let", "else", "unsafe", "dyn", "ref", "box", "await", "struct", "enum", "trait",
    "type", "mod", "const", "static", "crate", "super",
];

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    Num,
    Sym(char),
}

#[derive(Debug, Clone)]
pub(crate) struct Spanned {
    pub(crate) tok: Tok,
    /// Byte column of the token start within its line.
    col: usize,
}

pub(crate) fn tokenize(code: &str) -> Vec<Spanned> {
    let mut out = Vec::new();
    let mut chars = code.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut end = start + c.len_utf8();
            while let Some(&(j, n)) = chars.peek() {
                if n.is_ascii_alphanumeric() || n == '_' {
                    chars.next();
                    end = j + n.len_utf8();
                } else {
                    break;
                }
            }
            out.push(Spanned { tok: Tok::Ident(code[start..end].to_owned()), col: start });
        } else if c.is_ascii_digit() {
            while let Some(&(_, n)) = chars.peek() {
                if n.is_ascii_alphanumeric() || n == '_' {
                    chars.next();
                } else if n == '.' {
                    // `1.5` continues the number; `1.max(..)` does not.
                    let mut look = chars.clone();
                    look.next();
                    if look.peek().is_some_and(|&(_, d)| d.is_ascii_digit()) {
                        chars.next();
                    } else {
                        break;
                    }
                } else {
                    break;
                }
            }
            out.push(Spanned { tok: Tok::Num, col: start });
        } else {
            out.push(Spanned { tok: Tok::Sym(c), col: start });
        }
    }
    out
}

/// A `fn` whose signature has been seen but whose body has not opened yet.
#[derive(Debug, Default)]
struct PendingFn {
    name: Option<String>,
    line: usize,
    /// Paren depth inside the signature; params collect at depth 1.
    paren: i32,
    /// The parameter list has closed; later parens belong to the return type.
    params_done: bool,
    /// The next identifier at paren depth 1 is a parameter name.
    expect_param: bool,
    params: Vec<String>,
}

/// An `impl` header whose body has not opened yet.
#[derive(Debug, Default)]
struct PendingImpl {
    ty: Option<String>,
    saw_for: bool,
    angle: i32,
}

#[derive(Debug)]
struct PendingLet {
    name: Option<String>,
    derived: bool,
}

/// Parses one lexed file into its item table.
pub fn parse_file(ctx: &FileContext, file: &LexedFile) -> ParsedFile {
    let tests = test_mask(file, ctx.kind);
    let mut out = ParsedFile {
        rel_path: ctx.rel_path.clone(),
        crate_name: ctx.crate_name.clone(),
        kind: ctx.kind,
        fns: Vec::new(),
        types: Vec::new(),
    };

    let mut depth = 0i64;
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    let mut pending_impl: Option<PendingImpl> = None;
    let mut pending_fn: Option<PendingFn> = None;
    let mut open_fns: Vec<(FnItem, i64)> = Vec::new();
    let mut pending_let: Option<PendingLet> = None;
    // (index into out.types, body depth, expecting a field name)
    let mut open_type: Option<(usize, i64, bool)> = None;
    let mut pending_type: Option<(&'static str, usize)> = None;

    for (idx, lexed) in file.lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = lexed.code.as_str();
        if code.trim_start().starts_with('#') {
            // Attribute line: `#[derive(..)]`, `#[cfg(..)]` — parens galore,
            // no items, no calls.
            continue;
        }
        let toks = tokenize(code);
        let mut i = 0;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Sym('{') => {
                    depth += 1;
                    if let Some(pf) = pending_fn.take() {
                        if let Some(name) = pf.name {
                            open_fns.push((
                                FnItem {
                                    name,
                                    impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                                    line: pf.line,
                                    end_line: pf.line,
                                    in_test: tests.get(pf.line - 1).copied().unwrap_or(false),
                                    params: pf.params,
                                    calls: Vec::new(),
                                    derived_lets: Vec::new(),
                                },
                                depth,
                            ));
                        }
                    } else if let Some(pi) = pending_impl.take() {
                        impl_stack.push((pi.ty.unwrap_or_default(), depth));
                    } else if let Some((kind, type_idx)) = pending_type.take() {
                        if kind == "struct" {
                            open_type = Some((type_idx, depth, true));
                        }
                    }
                }
                Tok::Sym('}') => {
                    while open_fns.last().is_some_and(|(_, d)| *d == depth) {
                        if let Some((mut item, _)) = open_fns.pop() {
                            item.end_line = line_no;
                            out.fns.push(item);
                        }
                    }
                    if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                        impl_stack.pop();
                    }
                    if open_type.is_some_and(|(_, d, _)| d == depth) {
                        open_type = None;
                    }
                    depth -= 1;
                }
                Tok::Sym('(') => {
                    if let Some(pf) = pending_fn.as_mut() {
                        if !pf.params_done {
                            pf.paren += 1;
                            pf.expect_param = pf.paren == 1;
                        }
                    }
                }
                Tok::Sym(')') => {
                    if let Some(pf) = pending_fn.as_mut() {
                        if !pf.params_done && pf.paren > 0 {
                            pf.paren -= 1;
                            if pf.paren == 0 {
                                pf.params_done = true;
                            }
                        }
                    }
                }
                Tok::Sym(',') => {
                    if let Some(pf) = pending_fn.as_mut() {
                        if !pf.params_done && pf.paren == 1 {
                            pf.expect_param = true;
                        }
                    }
                    if let Some((_, d, expect)) = open_type.as_mut() {
                        if *d == depth && open_fns.is_empty() {
                            *expect = true;
                        }
                    }
                }
                Tok::Sym(';') => {
                    // Trait method signature without a body, or the end of a
                    // tuple-struct / statement.
                    pending_fn = None;
                    pending_type = None;
                    if let Some(pl) = pending_let.take() {
                        if pl.derived {
                            if let (Some(name), Some((item, _))) = (pl.name, open_fns.last_mut()) {
                                item.derived_lets.push(name);
                            }
                        }
                    }
                }
                Tok::Sym('<') => {
                    if let Some(pi) = pending_impl.as_mut() {
                        pi.angle += 1;
                    }
                }
                Tok::Sym('>') => {
                    if let Some(pi) = pending_impl.as_mut() {
                        if pi.angle > 0 && !prev_is_sym(&toks, i, '-') {
                            pi.angle -= 1;
                        }
                    }
                }
                Tok::Num => {
                    if let Some(pf) = pending_fn.as_mut() {
                        pf.expect_param = false;
                    }
                }
                Tok::Ident(name) => {
                    handle_ident(
                        name,
                        &toks,
                        i,
                        line_no,
                        idx,
                        file,
                        &mut pending_fn,
                        &mut pending_impl,
                        &mut pending_let,
                        &mut pending_type,
                        &mut open_type,
                        &mut open_fns,
                        &impl_stack,
                        &mut out,
                        depth,
                    );
                }
                Tok::Sym(_) => {
                    if let Some(pf) = pending_fn.as_mut() {
                        if !pf.params_done
                            && pf.paren == 1
                            && !matches!(toks[i].tok, Tok::Sym('&') | Tok::Sym('\''))
                        {
                            pf.expect_param = false;
                        }
                    }
                }
            }
            i += 1;
        }
    }

    // Unterminated items at EOF (truncated file): close what is open so the
    // table stays usable.
    while let Some((mut item, _)) = open_fns.pop() {
        item.end_line = file.lines.len();
        out.fns.push(item);
    }
    out.fns.sort_by_key(|f| f.line);
    out
}

fn prev_is_sym(toks: &[Spanned], i: usize, sym: char) -> bool {
    i > 0 && matches!(toks[i - 1].tok, Tok::Sym(c) if c == sym)
}

#[allow(clippy::too_many_arguments)]
fn handle_ident(
    name: &str,
    toks: &[Spanned],
    i: usize,
    line_no: usize,
    line_idx: usize,
    file: &LexedFile,
    pending_fn: &mut Option<PendingFn>,
    pending_impl: &mut Option<PendingImpl>,
    pending_let: &mut Option<PendingLet>,
    pending_type: &mut Option<(&'static str, usize)>,
    open_type: &mut Option<(usize, i64, bool)>,
    open_fns: &mut [(FnItem, i64)],
    impl_stack: &[(String, i64)],
    out: &mut ParsedFile,
    depth: i64,
) {
    // A lifetime (`'a`) is an ident preceded by a quote; never an item name.
    let is_lifetime = prev_is_sym(toks, i, '\'');

    match name {
        "fn" => {
            *pending_fn = Some(PendingFn { line: line_no, ..PendingFn::default() });
            return;
        }
        "impl" => {
            if pending_fn.is_none() {
                *pending_impl = Some(PendingImpl::default());
            }
            return;
        }
        "struct" | "enum" | "trait" => {
            if pending_fn.is_none() && pending_impl.is_none() {
                let kind: &'static str = match name {
                    "struct" => "struct",
                    "enum" => "enum",
                    _ => "trait",
                };
                out.types.push(TypeItem {
                    name: String::new(),
                    kind,
                    line: line_no,
                    fields: Vec::new(),
                });
                *pending_type = Some((kind, out.types.len() - 1));
            }
            return;
        }
        "let" => {
            if !open_fns.is_empty() {
                *pending_let = Some(PendingLet { name: None, derived: false });
            }
            return;
        }
        "for" => {
            if let Some(pi) = pending_impl.as_mut() {
                pi.saw_for = true;
            }
            return;
        }
        "mut" | "self" => {
            // Transparent for parameter / let-binding naming.
            return;
        }
        _ => {}
    }

    if let Some(pi) = pending_impl.as_mut() {
        if !is_lifetime && pi.angle == 0 && (pi.ty.is_none() || pi.saw_for) {
            pi.ty = Some(name.to_owned());
            pi.saw_for = false;
        }
        return;
    }

    if let Some(pf) = pending_fn.as_mut() {
        if pf.name.is_none() {
            pf.name = Some(name.to_owned());
            return;
        }
        if pf.expect_param && pf.paren == 1 && !pf.params_done {
            if next_is_sym(toks, i, ':') {
                pf.params.push(name.to_owned());
            }
            pf.expect_param = false;
        }
        return;
    }

    if let Some((kind, type_idx)) = *pending_type {
        let _ = kind;
        if let Some(item) = out.types.get_mut(type_idx) {
            if item.name.is_empty() && !is_lifetime {
                item.name = name.to_owned();
            }
        }
        return;
    }

    if let Some((type_idx, d, expect)) = open_type.as_mut() {
        if *d == depth && *expect && open_fns.is_empty() && name != "pub" {
            if next_is_sym(toks, i, ':') {
                if let Some(item) = out.types.get_mut(*type_idx) {
                    item.fields.push(name.to_owned());
                }
            }
            *expect = false;
        }
    }

    if let Some(pl) = pending_let.as_mut() {
        if pl.name.is_none() {
            pl.name = Some(name.to_owned());
            return;
        }
        if name == "derive_seed" {
            pl.derived = true;
        }
    }

    // Call detection: `ident (` with no `!` in between, not a keyword.
    if !next_is_sym(toks, i, '(') || NON_CALL_KEYWORDS.contains(&name) || is_lifetime {
        return;
    }
    let Some((item, _)) = open_fns.last_mut() else {
        return;
    };
    let method = prev_is_sym(toks, i, '.');
    let qualifier = if i >= 3
        && matches!(toks[i - 1].tok, Tok::Sym(':'))
        && matches!(toks[i - 2].tok, Tok::Sym(':'))
    {
        match &toks[i - 3].tok {
            Tok::Ident(q) if q == "Self" => impl_stack.last().map(|(t, _)| t.clone()),
            Tok::Ident(q) => Some(q.clone()),
            _ => None,
        }
    } else {
        None
    };
    let open_col = toks[i + 1].col;
    let args = capture_args(file, line_idx, open_col + 1);
    item.calls.push(CallSite { callee: name.to_owned(), qualifier, method, line: line_no, args });
}

fn next_is_sym(toks: &[Spanned], i: usize, sym: char) -> bool {
    matches!(toks.get(i + 1).map(|s| &s.tok), Some(Tok::Sym(c)) if *c == sym)
}

/// Captures the argument text of a call whose opening paren sits at
/// `(line_idx, col)` (col just past the `(`), splitting on top-level commas.
/// Nested `()[]{}` are balanced; capture stops at [`ARG_CAP`] characters and
/// the final partial argument is kept as-is.
fn capture_args(file: &LexedFile, line_idx: usize, col: usize) -> Vec<String> {
    let mut args = Vec::new();
    let mut current = String::new();
    let mut depth = 1i32;
    let mut total = 0usize;
    let mut li = line_idx;
    let mut ci = col;
    while li < file.lines.len() && total < ARG_CAP {
        let code = file.lines[li].code.as_bytes();
        while ci < code.len() && total < ARG_CAP {
            let c = code[ci] as char;
            ci += 1;
            total += 1;
            match c {
                '(' | '[' | '{' => {
                    depth += 1;
                    current.push(c);
                }
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        push_arg(&mut args, &mut current);
                        return args;
                    }
                    current.push(c);
                }
                ',' if depth == 1 => push_arg(&mut args, &mut current),
                c => current.push(c),
            }
        }
        li += 1;
        ci = 0;
        current.push(' ');
    }
    push_arg(&mut args, &mut current);
    args
}

fn push_arg(args: &mut Vec<String>, current: &mut String) {
    let trimmed = current.trim();
    if !trimmed.is_empty() {
        args.push(trimmed.to_owned());
    }
    current.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(rel: &str, src: &str) -> ParsedFile {
        parse_file(&FileContext::from_rel_path(rel), &lex(src))
    }

    #[test]
    fn extracts_free_and_impl_fns_with_spans() {
        let src = "pub fn free(a: u64, b: f64) -> u64 {\n    a\n}\n\
                   struct Foo { x: u64, pub y: f64 }\n\
                   impl Foo {\n    pub fn method(&self, n: usize) -> usize {\n        n\n    }\n}\n";
        let parsed = parse("crates/core/src/a.rs", src);
        assert_eq!(parsed.fns.len(), 2);
        let free = &parsed.fns[0];
        assert_eq!(free.name, "free");
        assert_eq!(free.impl_type, None);
        assert_eq!(free.params, vec!["a", "b"]);
        assert_eq!((free.line, free.end_line), (1, 3));
        let method = &parsed.fns[1];
        assert_eq!(method.name, "method");
        assert_eq!(method.impl_type.as_deref(), Some("Foo"));
        assert_eq!(method.params, vec!["n"]);
        let foo = &parsed.types[0];
        assert_eq!((foo.name.as_str(), foo.kind), ("Foo", "struct"));
        assert_eq!(foo.fields, vec!["x", "y"]);
    }

    #[test]
    fn impl_trait_for_type_records_the_type() {
        let src = "impl<'a> Lppm for NFoldGaussian {\n    fn obfuscate(&self) {}\n}\n";
        let parsed = parse("crates/mechanisms/src/a.rs", src);
        assert_eq!(parsed.fns[0].impl_type.as_deref(), Some("NFoldGaussian"));
    }

    #[test]
    fn calls_record_qualifier_method_and_args() {
        let src = "fn f(m: u64) {\n\
                   let rng = seeded(derive_seed(m, 1));\n\
                   let p = Point::new(1.0,\n        2.0);\n\
                   table.draw(&mut rng);\n\
                   helper!(not_a_call);\n\
                   }\n";
        let parsed = parse("crates/core/src/a.rs", src);
        let calls = &parsed.fns[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, vec!["seeded", "derive_seed", "new", "draw"]);
        assert_eq!(calls[0].args, vec!["derive_seed(m, 1)"]);
        assert_eq!(calls[2].qualifier.as_deref(), Some("Point"));
        assert_eq!(calls[2].args, vec!["1.0", "2.0"]);
        assert!(calls[3].method);
        // `derive_seed` in the initializer marks the binding as derived.
        assert_eq!(parsed.fns[0].derived_lets, vec!["rng"]);
    }

    #[test]
    fn self_qualifier_maps_to_the_impl_type() {
        let src = "impl Device {\n    fn a() { Self::b(7); }\n    fn b(s: u64) {}\n}\n";
        let parsed = parse("crates/core/src/a.rs", src);
        assert_eq!(parsed.fns[0].calls[0].qualifier.as_deref(), Some("Device"));
    }

    #[test]
    fn trait_signatures_without_bodies_are_skipped() {
        let src = "trait Lppm {\n    fn obfuscate(&self, p: Point) -> Point;\n\
                   fn name(&self) -> &str {\n        \"x\"\n    }\n}\n";
        let parsed = parse("crates/mechanisms/src/t.rs", src);
        assert_eq!(parsed.fns.len(), 1);
        assert_eq!(parsed.fns[0].name, "name");
        assert_eq!(parsed.types[0].kind, "trait");
        assert_eq!(parsed.types[0].name, "Lppm");
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src =
            "fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib_fn(); }\n}\n";
        let parsed = parse("crates/core/src/a.rs", src);
        assert!(!parsed.fns[0].in_test);
        assert!(parsed.fns[1].in_test);
        let all = parse("crates/core/tests/x.rs", "fn t() {}\n");
        assert!(all.fns[0].in_test);
    }

    #[test]
    fn strings_and_comments_hide_calls() {
        let src = "fn f() {\n    let s = \"decode(x)\"; // encode(y)\n}\n";
        let parsed = parse("crates/core/src/a.rs", src);
        assert!(parsed.fns[0].calls.is_empty());
    }

    #[test]
    fn nested_braces_keep_fn_attribution() {
        let src =
            "fn outer() {\n    let c = |x: u64| {\n        inner(x)\n    };\n    other();\n}\n\
                   fn after() { tail(); }\n";
        let parsed = parse("crates/core/src/a.rs", src);
        assert_eq!(parsed.fns[0].name, "outer");
        let names: Vec<&str> = parsed.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, vec!["inner", "other"]);
        assert_eq!(parsed.fns[1].calls[0].callee, "tail");
    }
}
