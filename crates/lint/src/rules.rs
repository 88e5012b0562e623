//! The invariant rule set and the per-file checking engine.
//!
//! Every rule fires on the **code mask** produced by [`crate::lexer`], so
//! comments, doc examples and string literals never trigger (or mask)
//! findings. Each finding can be suppressed at the site with
//! `// lint:allow(<rule>): <justification>` on the same or the preceding
//! line, or centrally via the checked-in `lint.allow` file (see
//! [`crate::allowlist`]). Suppressions without a justification, and
//! suppressions that match no finding, are themselves findings.

use crate::lexer::{find_token, LexedFile};

/// A single diagnostic. `suppressed` carries the justification when an
/// inline allow or an allowlist entry matched.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    pub suppressed: Option<String>,
}

impl Finding {
    pub fn is_active(&self) -> bool {
        self.suppressed.is_none()
    }
}

/// Rule metadata, used by `--list-rules` and to validate `lint:allow` names.
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
}

pub const RULES: &[Rule] = &[
    Rule {
        name: "determinism-time",
        summary: "no Instant::now / SystemTime outside the bench-timing allowlist",
    },
    Rule {
        name: "determinism-rng",
        summary: "no thread_rng / from_entropy / rand::random anywhere",
    },
    Rule {
        name: "determinism-seed",
        summary: "experiment code must derive RNG seeds via derive_seed, not seed_from_u64 literals",
    },
    Rule {
        name: "order-stability",
        summary: "no HashMap/HashSet in result-producing crates; use BTreeMap/BTreeSet or justify",
    },
    Rule {
        name: "privacy-params",
        summary: "mechanism parameter types must be built via validated constructors, not struct literals",
    },
    Rule {
        name: "float-eq",
        summary: "no == / != against float literals or f64/f32 constants",
    },
    Rule {
        name: "panic-hygiene",
        summary: "no unwrap()/expect()/panic! in non-test library code of geo/mechanisms/attack/core",
    },
    Rule {
        name: "channel-hygiene",
        summary: "no unwrap()/expect() on channel send/recv in the core/bench serving paths",
    },
    Rule {
        name: "unsafe-audit",
        summary: "every unsafe block needs a preceding // SAFETY: comment; crate roots must forbid unsafe_code",
    },
    Rule {
        name: "manifest-deps",
        summary: "all external dependencies must resolve to vendored compat/ paths; no registry or git deps",
    },
    Rule {
        name: "telemetry-hygiene",
        summary: "no hand-rolled atomic counters in core/bench serving paths; use the privlocad-telemetry registry",
    },
    Rule {
        name: "location-leak",
        summary: "true-location data must pass an Lppm sanitizer before reaching wire, checkpoint or telemetry sinks",
    },
    Rule {
        name: "seed-flow",
        summary: "RNG streams in result-producing crates must be seeded from derive_seed-derived state",
    },
    Rule {
        name: "dead-pub",
        summary: "pub library items must be named by non-test code outside their file (fleetbench counts) or justified",
    },
    Rule {
        name: "allow-syntax",
        summary: "lint:allow suppressions must name a known rule and carry a justification",
    },
    Rule {
        name: "unused-allow",
        summary: "suppressions and allowlist entries that match no finding must be removed",
    },
];

pub fn rule_exists(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// How a scanned file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` of a crate or the workspace root.
    Lib,
    /// `src/bin/` of a crate.
    Bin,
    /// An integration-test tree (`tests/`).
    Test,
    /// A `benches/` tree.
    Bench,
    /// `examples/`.
    Example,
}

/// Scanning context for one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// `Some("geo")` for `crates/geo/…`, `None` for root `src/` / `tests/`.
    pub crate_name: Option<String>,
    pub kind: FileKind,
}

impl FileContext {
    /// Derives the context from a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileContext {
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let kind = if rel_path.contains("/tests/") || rel_path.starts_with("tests/") {
            FileKind::Test
        } else if rel_path.contains("/benches/") {
            FileKind::Bench
        } else if rel_path.starts_with("examples/") {
            FileKind::Example
        } else if rel_path.contains("/src/bin/") {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        FileContext { rel_path: rel_path.to_owned(), crate_name, kind }
    }

    fn crate_is(&self, names: &[&str]) -> bool {
        match &self.crate_name {
            Some(c) => names.iter().any(|n| n == c),
            None => false,
        }
    }
}

/// Crates whose outputs feed experiment results: iteration order anywhere in
/// them can leak into figures, tables or digests. The flow rules
/// ([`crate::flow`]) share this scope: an RNG stream anywhere in these crates
/// must trace back to `derive_seed`-derived state.
pub(crate) const RESULT_PRODUCING: &[&str] =
    &["geo", "mechanisms", "attack", "adnet", "metrics", "mobility", "core", "bench", "openrtb"];

/// Crates whose library code must stay panic-free (typed errors only).
const PANIC_FREE: &[&str] = &["geo", "mechanisms", "attack", "core", "openrtb"];

/// Crates carrying the supervised serving paths: a channel peer dropping
/// (client gone, worker restarting) is a *normal* event there, so a
/// panicking channel call turns routine churn into a dead serving loop.
const CHANNEL_SCOPE: &[&str] = &["core", "bench"];

/// Channel-operation tokens the channel-hygiene rule guards.
const CHANNEL_OPS: &[&str] = &["send(", "try_send(", "recv()", "try_recv()", "recv_timeout("];

/// Crates where RNGs must be derived from a master seed.
const SEED_DISCIPLINE: &[&str] = &["bench"];

/// Crates whose serving paths must route observability through the
/// `privlocad-telemetry` registry. A bare atomic constructed here is almost
/// always a shadow counter that will drift from (and never reach) the
/// exported snapshot; the telemetry crate itself is out of scope since it
/// *implements* the registry.
const TELEMETRY_SCOPE: &[&str] = &["core", "bench"];

/// Construction sites the telemetry-hygiene rule guards. Matching the
/// `::new(` call rather than the type name keeps imports and type positions
/// quiet — the finding lands where the counter is born.
const ATOMIC_CTORS: &[&str] =
    &["AtomicU64::new(", "AtomicUsize::new(", "AtomicU32::new(", "AtomicI64::new("];

/// The one module allowed to construct mechanism parameter types directly.
const PARAMS_MODULE: &str = "crates/mechanisms/src/params.rs";

const PARAM_TYPES: &[&str] = &["GeoIndParams", "PlanarLaplaceParams"];

/// Marks the lines that belong to test code: everything when the file itself
/// is a test target, otherwise the brace-delimited regions introduced by
/// `#[cfg(test)]` / `#[test]` attributes. Brace counting runs on the code
/// mask, so braces in strings or comments do not confuse it.
pub fn test_mask(file: &LexedFile, kind: FileKind) -> Vec<bool> {
    let n = file.lines.len();
    if kind == FileKind::Test {
        return vec![true; n];
    }
    let mut mask = vec![false; n];
    let mut pending_attr = false;
    let mut in_region = false;
    let mut entry_depth = 0i64;
    let mut depth = 0i64;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if !in_region && (code.contains("#[cfg(test)]") || code.contains("#[test]")) {
            pending_attr = true;
        }
        if pending_attr || in_region {
            mask[idx] = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_attr && !in_region {
                        in_region = true;
                        entry_depth = depth;
                        pending_attr = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if in_region && depth < entry_depth {
                        in_region = false;
                    }
                }
                _ => {}
            }
        }
        if in_region {
            mask[idx] = true;
        }
    }
    mask
}

/// Runs every source rule over one lexed file. Returned findings are not yet
/// suppression-resolved; [`crate::allowlist::apply_suppressions`] handles that.
pub fn check_file(ctx: &FileContext, file: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tests = test_mask(file, ctx.kind);
    let mut saw_forbid_unsafe = false;

    let panic_scope = ctx.crate_is(PANIC_FREE) && ctx.kind == FileKind::Lib;
    let channel_scope =
        ctx.crate_is(CHANNEL_SCOPE) && matches!(ctx.kind, FileKind::Lib | FileKind::Bin);
    let order_scope =
        ctx.crate_is(RESULT_PRODUCING) && matches!(ctx.kind, FileKind::Lib | FileKind::Bin);
    let float_scope = matches!(ctx.kind, FileKind::Lib | FileKind::Bin);
    let seed_scope =
        ctx.crate_is(SEED_DISCIPLINE) || ctx.crate_name.is_none() || ctx.kind == FileKind::Example;
    let telemetry_scope =
        ctx.crate_is(TELEMETRY_SCOPE) && matches!(ctx.kind, FileKind::Lib | FileKind::Bin);
    let params_scope = !ctx.rel_path.ends_with(PARAMS_MODULE);

    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Finding { file: ctx.rel_path.clone(), line, rule, message, suppressed: None });
    };

    for (idx, lexed) in file.lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = &lexed.code;
        let in_test = tests[idx];

        if code.contains("#![forbid(unsafe_code)]") {
            saw_forbid_unsafe = true;
        }

        // determinism-time / determinism-rng apply to every scanned line,
        // test code included: a wall-clock read or an entropy-seeded RNG in
        // a test makes the suite itself irreproducible.
        for needle in ["Instant::now", "SystemTime"] {
            if find_token(code, needle).is_some() {
                push(
                    line_no,
                    "determinism-time",
                    format!("`{needle}` reads the wall clock; results must be a pure function of the seed (allowlist bench timing explicitly)"),
                );
            }
        }
        for needle in ["thread_rng", "from_entropy", "rand::random"] {
            if find_token(code, needle).is_some() {
                push(
                    line_no,
                    "determinism-rng",
                    format!(
                        "`{needle}` draws OS entropy; construct RNGs from `derive_seed` instead"
                    ),
                );
            }
        }

        if seed_scope && !in_test && find_token(code, "seed_from_u64").is_some() {
            let next_code = file.lines.get(idx + 1).map(|l| l.code.as_str()).unwrap_or("");
            if !code.contains("derive_seed") && !next_code.contains("derive_seed") {
                push(
                    line_no,
                    "determinism-seed",
                    "experiment code must derive per-stream seeds via `derive_seed(master, index)`, not seed RNGs ad hoc".to_owned(),
                );
            }
        }

        if order_scope && !in_test {
            for needle in ["HashMap", "HashSet"] {
                if find_token(code, needle).is_some() {
                    push(
                        line_no,
                        "order-stability",
                        format!("`{needle}` iteration order is randomized per process; use BTreeMap/BTreeSet or justify a lookup-only use"),
                    );
                }
            }
        }

        if params_scope {
            for ty in PARAM_TYPES {
                if let Some(pos) = find_token(code, ty) {
                    let rest = code[pos + ty.len()..].trim_start();
                    let before = code[..pos].trim_end();
                    // `-> GeoIndParams {` is a return type followed by a fn
                    // body; `impl GeoIndParams {` / `for GeoIndParams {` open
                    // impl blocks. Only a bare `Type { … }` is a literal.
                    let literal_position = !before.ends_with("->")
                        && !before.ends_with("impl")
                        && !before.ends_with("for");
                    if literal_position && rest.starts_with('{') {
                        push(
                            line_no,
                            "privacy-params",
                            format!("`{ty}` must be built through its validated constructor; struct literals bypass the privacy-parameter checks"),
                        );
                    }
                }
            }
        }

        if float_scope && !in_test {
            for pos in float_eq_positions(code) {
                let op = &code[pos..pos + 2];
                push(
                    line_no,
                    "float-eq",
                    format!("`{op}` against a float constant is brittle under rounding; compare with a tolerance or justify an exact-representation guard"),
                );
            }
        }

        if panic_scope && !in_test {
            for (needle, what) in
                [(".unwrap()", "unwrap()"), (".expect(", "expect()"), ("panic!", "panic!")]
            {
                if find_token(code, needle).is_some() {
                    push(
                        line_no,
                        "panic-hygiene",
                        format!("`{what}` in library code; return the crate's typed error or justify provable infallibility"),
                    );
                }
            }
        }

        if channel_scope && !in_test {
            let channel_op = CHANNEL_OPS.iter().any(|op| find_token(code, op).is_some());
            let panics =
                [".unwrap()", ".expect("].iter().any(|needle| find_token(code, needle).is_some());
            if channel_op && panics {
                push(
                    line_no,
                    "channel-hygiene",
                    "`unwrap()`/`expect()` on a channel operation in a serving path; a dropped peer is routine — handle the `Err` branch or fail the reply explicitly".to_owned(),
                );
            }
        }

        if telemetry_scope && !in_test {
            for ctor in ATOMIC_CTORS {
                if find_token(code, ctor).is_some() {
                    let ty = ctor.trim_end_matches("::new(");
                    push(
                        line_no,
                        "telemetry-hygiene",
                        format!("hand-rolled `{ty}` counter in a serving path; register it through the privlocad-telemetry `Registry` so it reaches the exported snapshot (or justify a non-metric use)"),
                    );
                }
            }
        }

        if find_token(code, "unsafe").is_some() && !has_safety_comment(file, idx) {
            push(
                line_no,
                "unsafe-audit",
                "`unsafe` without a preceding `// SAFETY:` comment stating the invariant it relies on".to_owned(),
            );
        }
    }

    // Crate roots must pin the no-unsafe guarantee so the SAFETY audit stays
    // trivially complete.
    if ctx.rel_path.starts_with("crates/")
        && ctx.rel_path.ends_with("/src/lib.rs")
        && !saw_forbid_unsafe
    {
        out.push(Finding {
            file: ctx.rel_path.clone(),
            line: 1,
            rule: "unsafe-audit",
            message: "crate root must declare `#![forbid(unsafe_code)]` (drop to `deny` only with an audited SAFETY comment)".to_owned(),
            suppressed: None,
        });
    }

    out
}

/// Looks for `SAFETY:` in the comments of the finding line or the three
/// lines above it — close enough to bind the comment to the block while
/// tolerating an attribute or signature line in between.
fn has_safety_comment(file: &LexedFile, idx: usize) -> bool {
    let lo = idx.saturating_sub(3);
    file.lines[lo..=idx].iter().any(|l| l.comment.contains("SAFETY:"))
}

/// Positions of `==` / `!=` operators with a float-looking operand.
fn float_eq_positions(code: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < b.len() {
        let is_eq = b[i] == b'=' && b[i + 1] == b'=';
        let is_ne = b[i] == b'!' && b[i + 1] == b'=';
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        if is_eq {
            let prev = if i > 0 { b[i - 1] } else { 0 };
            // Skip `<=`, `>=`, `!=`'s tail, pattern arms `=>` never produce
            // `==`; also skip a third `=` (no such Rust token, but cheap).
            if prev == b'<' || prev == b'>' || prev == b'=' || prev == b'!' {
                i += 2;
                continue;
            }
            if b.get(i + 2) == Some(&b'=') {
                i += 3;
                continue;
            }
        }
        let left = operand_left(code, i);
        let right = operand_right(code, i + 2);
        if is_floaty(&left) || is_floaty(&right) {
            out.push(i);
        }
        i += 2;
    }
    out
}

fn operand_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == ':'
}

fn operand_left(code: &str, op_pos: usize) -> String {
    let head: Vec<char> = code[..op_pos].chars().collect();
    let mut j = head.len();
    while j > 0 && head[j - 1] == ' ' {
        j -= 1;
    }
    let end = j;
    while j > 0 && operand_char(head[j - 1]) {
        j -= 1;
    }
    head[j..end].iter().collect()
}

fn operand_right(code: &str, after_op: usize) -> String {
    let tail: Vec<char> = code[after_op..].chars().collect();
    let mut j = 0usize;
    while j < tail.len() && tail[j] == ' ' {
        j += 1;
    }
    if j < tail.len() && tail[j] == '-' {
        j += 1;
    }
    let start = j;
    while j < tail.len() && operand_char(tail[j]) {
        j += 1;
    }
    tail[start..j].iter().collect()
}

/// True for float literals (`1.0`, `0.`, `2.5e3` reduces to digit/dot run)
/// and float-constant paths (`f64::NAN`, `f32::EPSILON`).
fn is_floaty(tok: &str) -> bool {
    if tok.contains("f64::") || tok.contains("f32::") {
        return true;
    }
    let t = tok.strip_prefix('-').unwrap_or(tok);
    !t.is_empty()
        && t.contains('.')
        && t.chars().any(|c| c.is_ascii_digit())
        && t.chars().all(|c| c.is_ascii_digit() || c == '.' || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(path: &str) -> FileContext {
        FileContext::from_rel_path(path)
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        check_file(&ctx(path), &lex(src)).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn context_classification() {
        let c = ctx("crates/geo/src/grid.rs");
        assert_eq!(c.crate_name.as_deref(), Some("geo"));
        assert_eq!(c.kind, FileKind::Lib);
        assert_eq!(ctx("crates/bench/src/bin/repro.rs").kind, FileKind::Bin);
        assert_eq!(ctx("crates/geo/tests/proptests.rs").kind, FileKind::Test);
        assert_eq!(ctx("tests/end_to_end.rs").kind, FileKind::Test);
        assert_eq!(ctx("examples/quickstart.rs").kind, FileKind::Example);
        assert!(ctx("src/lib.rs").crate_name.is_none());
    }

    #[test]
    fn thread_rng_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let mut r = thread_rng(); }\n}\n";
        assert!(rules_hit("crates/geo/src/x.rs", src).contains(&"determinism-rng"));
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn f() { Some(1).unwrap(); }\n}\n";
        assert!(!rules_hit("crates/geo/src/x.rs", src).contains(&"panic-hygiene"));
    }

    #[test]
    fn unwrap_in_lib_code_fires_only_in_panic_free_crates() {
        let src = "fn f() { Some(1).unwrap(); }\n#![forbid(unsafe_code)]\n";
        assert!(rules_hit("crates/mechanisms/src/x.rs", src).contains(&"panic-hygiene"));
        assert!(!rules_hit("crates/bench/src/x.rs", src).contains(&"panic-hygiene"));
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f() { Some(1).unwrap_or(2); }\n";
        assert!(!rules_hit("crates/geo/src/x.rs", src).contains(&"panic-hygiene"));
    }

    #[test]
    fn struct_literal_of_params_fires_outside_params_module() {
        let src = "fn f() { let p = GeoIndParams { r: 1.0, epsilon: 1.0, delta: 0.5, n: 1 }; }\n";
        assert!(rules_hit("crates/mechanisms/src/other.rs", src).contains(&"privacy-params"));
        assert!(!rules_hit("crates/mechanisms/src/params.rs", src).contains(&"privacy-params"));
        // Constructor calls and imports are fine.
        let ok = "use m::{GeoIndParams, PlanarLaplaceParams};\nfn f() { GeoIndParams::new(1.0, 1.0, 0.5, 1); }\n";
        assert!(!rules_hit("crates/core/src/x.rs", ok).contains(&"privacy-params"));
        // Return types and impl blocks are not struct literals.
        let ret = "pub fn params(&self) -> GeoIndParams {\n    self.params\n}\nimpl PlanarLaplaceParams {\n}\n";
        assert!(!rules_hit("crates/core/src/x.rs", ret).contains(&"privacy-params"));
    }

    #[test]
    fn float_eq_detection() {
        assert_eq!(float_eq_positions("if x == 0.0 {"), vec![5]);
        assert!(!float_eq_positions("if x != 1.5 {").is_empty());
        assert!(!float_eq_positions("if x == f64::INFINITY {").is_empty());
        assert!(float_eq_positions("if x <= 0.0 {").is_empty());
        assert!(float_eq_positions("if a == b {").is_empty());
        assert!(float_eq_positions("let y = x == n;").is_empty());
        // Integer comparison is fine.
        assert!(float_eq_positions("if k == 10 {").is_empty());
    }

    #[test]
    fn hashmap_fires_in_result_producing_lib_only() {
        let src = "use std::collections::HashMap;\n";
        assert!(rules_hit("crates/attack/src/x.rs", src).contains(&"order-stability"));
        assert!(!rules_hit("crates/lint/src/x.rs", src).contains(&"order-stability"));
        let test_src = "#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(!rules_hit("crates/attack/src/x.rs", test_src).contains(&"order-stability"));
    }

    #[test]
    fn channel_unwrap_fires_in_serving_crates_only() {
        let src = "fn f(tx: Sender<u8>) { tx.send(1).unwrap(); }\n";
        assert!(rules_hit("crates/core/src/server.rs", src).contains(&"channel-hygiene"));
        assert!(rules_hit("crates/bench/src/bin/chaos.rs", src).contains(&"channel-hygiene"));
        // Out of scope: non-serving crates and test code.
        assert!(!rules_hit("crates/lint/src/x.rs", src).contains(&"channel-hygiene"));
        let test_src =
            "#[cfg(test)]\nmod tests {\n fn f(tx: Sender<u8>) { tx.send(1).unwrap(); }\n}\n";
        assert!(!rules_hit("crates/core/src/server.rs", test_src).contains(&"channel-hygiene"));
        // Handled channel results and non-channel expects stay quiet.
        let handled = "fn f(tx: Sender<u8>) { let _ = tx.send(1); }\n";
        assert!(!rules_hit("crates/core/src/server.rs", handled).contains(&"channel-hygiene"));
        let unrelated = "fn f(x: Option<u8>) { x.expect(\"present\"); }\n";
        assert!(!rules_hit("crates/bench/src/x.rs", unrelated).contains(&"channel-hygiene"));
        // Every guarded channel op is covered.
        for op in ["try_send(0)", "recv()", "try_recv()", "recv_timeout(d)"] {
            let src = format!("fn f(c: C) {{ c.{op}.expect(\"peer alive\"); }}\n");
            assert!(rules_hit("crates/core/src/x.rs", &src).contains(&"channel-hygiene"), "{op}");
        }
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert!(rules_hit("crates/bench/src/x.rs", bad).contains(&"unsafe-audit"));
        let good = "// SAFETY: guarded by the bounds check above.\nfn f() { unsafe { g() } }\n";
        assert!(!rules_hit("crates/bench/src/x.rs", good).contains(&"unsafe-audit"));
    }

    #[test]
    fn crate_root_must_forbid_unsafe() {
        let hits = rules_hit("crates/geo/src/lib.rs", "pub mod x;\n");
        assert!(hits.contains(&"unsafe-audit"));
        let ok = rules_hit("crates/geo/src/lib.rs", "#![forbid(unsafe_code)]\npub mod x;\n");
        assert!(!ok.contains(&"unsafe-audit"));
    }

    #[test]
    fn seed_discipline_in_bench_only() {
        let src = "fn f() { let r = StdRng::seed_from_u64(42); }\n";
        assert!(rules_hit("crates/bench/src/fig2.rs", src).contains(&"determinism-seed"));
        assert!(!rules_hit("crates/geo/src/rng.rs", src).contains(&"determinism-seed"));
        let derived = "fn f(m: u64) { let r = StdRng::seed_from_u64(derive_seed(m, 1)); }\n";
        assert!(!rules_hit("crates/bench/src/fig2.rs", derived).contains(&"determinism-seed"));
    }

    #[test]
    fn atomic_counters_fire_in_serving_crates_only() {
        let src = "struct S { hits: AtomicU64 }\nfn f() -> S { S { hits: AtomicU64::new(0) } }\n";
        // Fires at the construction site (line 2), in core and bench only.
        let findings = check_file(&ctx("crates/core/src/server.rs"), &lex(src));
        let hit = findings.iter().find(|f| f.rule == "telemetry-hygiene").expect("must fire");
        assert_eq!(hit.line, 2);
        assert!(hit.message.contains("AtomicU64"));
        assert!(rules_hit("crates/bench/src/bin/serve.rs", src).contains(&"telemetry-hygiene"));
        // Out of scope: the telemetry crate (it implements the registry),
        // non-serving crates, and test code.
        assert!(!rules_hit("crates/telemetry/src/registry.rs", src).contains(&"telemetry-hygiene"));
        assert!(!rules_hit("crates/lint/src/x.rs", src).contains(&"telemetry-hygiene"));
        let test_src = "#[cfg(test)]\nmod tests {\n fn f() { AtomicU64::new(0); }\n}\n";
        assert!(!rules_hit("crates/core/src/x.rs", test_src).contains(&"telemetry-hygiene"));
        // Imports and type positions stay quiet — only `::new(` is a counter.
        let quiet = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
        assert!(!rules_hit("crates/core/src/x.rs", quiet).contains(&"telemetry-hygiene"));
        // Every guarded constructor is covered.
        for ctor in ["AtomicU64", "AtomicUsize", "AtomicU32", "AtomicI64"] {
            let src = format!("fn f() {{ let c = {ctor}::new(0); }}\n");
            assert!(
                rules_hit("crates/bench/src/x.rs", &src).contains(&"telemetry-hygiene"),
                "{ctor}"
            );
        }
    }

    #[test]
    fn atomic_counter_suppression_is_honoured() {
        use crate::allowlist::{apply_suppressions, parse_inline_allows};
        let src = "fn f() {\n // lint:allow(telemetry-hygiene): identity allocator, not a metric\n let c = AtomicU64::new(0);\n}\n";
        let path = "crates/core/src/x.rs";
        let lexed = lex(src);
        let mut findings = check_file(&ctx(path), &lexed);
        let (allows, syntax) = parse_inline_allows(path, &lexed);
        assert!(syntax.is_empty(), "{syntax:?}");
        let mut inline = [(path.to_owned(), allows)];
        apply_suppressions(&mut findings, &mut inline, &mut [], "lint.allow");
        let hit = findings.iter().find(|f| f.rule == "telemetry-hygiene").expect("must fire");
        assert_eq!(hit.suppressed.as_deref(), Some("identity allocator, not a metric"));
        assert!(!findings.iter().any(|f| f.rule == "unused-allow"));
    }

    #[test]
    fn instant_now_fires_everywhere() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(rules_hit("crates/bench/src/microbench.rs", src).contains(&"determinism-time"));
        assert!(rules_hit("tests/end_to_end.rs", src).contains(&"determinism-time"));
    }
}
