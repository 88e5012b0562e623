//! The checked-in allowlist (`lint.allow` at the workspace root) and inline
//! `lint:allow` suppression parsing.
//!
//! Two suppression channels exist:
//!
//! * **Inline**: a comment whose text starts with the marker
//!   `lint:allow(<rule>[, <rule>…]): <justification>` suppresses matching
//!   findings on the same line and the line directly below. The justification
//!   is mandatory; prose that merely *mentions* the marker mid-sentence is
//!   ignored.
//! * **Allowlist file**: `lint.allow` lines of the form
//!   `<path> | <rule> | <justification>` suppress a rule for a whole file —
//!   intended for legacy sites like the bench timing loops where the rule's
//!   premise does not apply.
//!
//! Both channels are themselves linted: a malformed or unjustified
//! suppression is an `allow-syntax` finding, and a suppression that matches
//! nothing is an `unused-allow` finding, so the suppression surface can only
//! shrink.

use crate::lexer::LexedFile;
use crate::rules::{rule_exists, Finding};

/// One parsed inline suppression.
#[derive(Debug)]
pub struct InlineAllow {
    /// 1-indexed line the comment sits on.
    pub line: usize,
    pub rules: Vec<String>,
    pub justification: String,
    pub used: bool,
}

/// One parsed `lint.allow` entry.
#[derive(Debug)]
pub struct AllowlistEntry {
    /// 1-indexed line in `lint.allow`.
    pub line: usize,
    pub path: String,
    pub rule: String,
    pub justification: String,
    pub used: bool,
}

const MARKER: &str = "lint:allow";

/// Extracts inline allows from a lexed file. Malformed suppressions become
/// `allow-syntax` findings instead of allows.
pub fn parse_inline_allows(rel_path: &str, file: &LexedFile) -> (Vec<InlineAllow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (idx, lexed) in file.lines.iter().enumerate() {
        let text = lexed.comment.trim_start();
        if !text.starts_with(MARKER) {
            continue;
        }
        let line = idx + 1;
        match parse_marker(text) {
            Ok((rules, justification)) => {
                let mut bad = false;
                for r in &rules {
                    if !rule_exists(r) {
                        findings.push(Finding {
                            file: rel_path.to_owned(),
                            line,
                            rule: "allow-syntax",
                            message: format!("suppression names unknown rule `{r}`"),
                            suppressed: None,
                        });
                        bad = true;
                    }
                }
                if !bad {
                    allows.push(InlineAllow { line, rules, justification, used: false });
                }
            }
            Err(msg) => findings.push(Finding {
                file: rel_path.to_owned(),
                line,
                rule: "allow-syntax",
                message: msg,
                suppressed: None,
            }),
        }
    }
    (allows, findings)
}

/// Parses `lint:allow(<rules>): <justification>` starting at the marker.
fn parse_marker(text: &str) -> Result<(Vec<String>, String), String> {
    let rest = &text[MARKER.len()..];
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "suppression must list rules: `lint:allow(<rule>): <why>`".to_owned())?;
    let close =
        rest.find(')').ok_or_else(|| "unclosed rule list in `lint:allow(...)`".to_owned())?;
    let rules: Vec<String> =
        rest[..close].split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect();
    if rules.is_empty() {
        return Err("empty rule list in `lint:allow()`".to_owned());
    }
    let tail = rest[close + 1..].trim_start();
    let justification = tail.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(
            "suppression requires a justification: `lint:allow(<rule>): <why this is sound>`"
                .to_owned(),
        );
    }
    Ok((rules, justification.to_owned()))
}

/// Parses the allowlist file. Unknown rules and malformed lines become
/// `allow-syntax` findings attached to the allowlist file itself.
pub fn parse_allowlist(file_name: &str, contents: &str) -> (Vec<AllowlistEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in contents.lines().enumerate() {
        let line = idx + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = text.split('|').map(str::trim).collect();
        if parts.len() != 3 || parts.iter().any(|p| p.is_empty()) {
            findings.push(Finding {
                file: file_name.to_owned(),
                line,
                rule: "allow-syntax",
                message: "allowlist entries are `<path> | <rule> | <justification>`".to_owned(),
                suppressed: None,
            });
            continue;
        }
        if !rule_exists(parts[1]) {
            findings.push(Finding {
                file: file_name.to_owned(),
                line,
                rule: "allow-syntax",
                message: format!("allowlist entry names unknown rule `{}`", parts[1]),
                suppressed: None,
            });
            continue;
        }
        entries.push(AllowlistEntry {
            line,
            path: parts[0].to_owned(),
            rule: parts[1].to_owned(),
            justification: parts[2].to_owned(),
            used: false,
        });
    }
    (entries, findings)
}

/// Flags allowlist entries whose target file is not among the scanned
/// sources — a stale entry left behind after a file was deleted or moved.
/// Stale entries are removed so they can never suppress anything, and each
/// becomes an `unused-allow` finding attached to the allowlist file.
pub fn flag_missing_files(
    entries: &mut Vec<AllowlistEntry>,
    scanned: &std::collections::BTreeSet<String>,
    allowlist_name: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    entries.retain(|e| {
        if scanned.contains(&e.path) {
            return true;
        }
        findings.push(Finding {
            file: allowlist_name.to_owned(),
            line: e.line,
            rule: "unused-allow",
            message: format!(
                "allowlist entry `{} | {}` names a file that no longer exists; remove it",
                e.path, e.rule
            ),
            suppressed: None,
        });
        false
    });
    findings
}

/// Resolves suppressions: marks findings suppressed by inline allows (same
/// line or the line above the finding) or by allowlist entries, then emits
/// `unused-allow` findings for suppressions that matched nothing.
pub fn apply_suppressions(
    findings: &mut Vec<Finding>,
    inline: &mut [(String, Vec<InlineAllow>)],
    allowlist: &mut [AllowlistEntry],
    allowlist_name: &str,
) {
    for f in findings.iter_mut() {
        if f.rule == "allow-syntax" || f.rule == "unused-allow" {
            continue;
        }
        if let Some((_, allows)) =
            inline.iter_mut().find(|(path, _)| path.as_str() == f.file.as_str())
        {
            for a in allows.iter_mut() {
                let adjacent = a.line == f.line || a.line + 1 == f.line;
                if adjacent && a.rules.iter().any(|r| r == f.rule) {
                    a.used = true;
                    f.suppressed = Some(a.justification.clone());
                    break;
                }
            }
        }
        if f.suppressed.is_some() {
            continue;
        }
        for e in allowlist.iter_mut() {
            if e.path == f.file && e.rule == f.rule {
                e.used = true;
                f.suppressed = Some(e.justification.clone());
                break;
            }
        }
    }

    for (path, allows) in inline.iter() {
        for a in allows.iter().filter(|a| !a.used) {
            findings.push(Finding {
                file: path.clone(),
                line: a.line,
                rule: "unused-allow",
                message: format!(
                    "suppression for `{}` matches no finding; remove it",
                    a.rules.join(", ")
                ),
                suppressed: None,
            });
        }
    }
    for e in allowlist.iter().filter(|e| !e.used) {
        findings.push(Finding {
            file: allowlist_name.to_owned(),
            line: e.line,
            rule: "unused-allow",
            message: format!(
                "allowlist entry `{} | {}` matches no finding; remove it",
                e.path, e.rule
            ),
            suppressed: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn inline_allow_roundtrip() {
        let src = "let t = x; // lint:allow(float-eq): exact zero is the sentinel value\n";
        let (allows, findings) = parse_inline_allows("a.rs", &lex(src));
        assert!(findings.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rules, vec!["float-eq".to_owned()]);
        assert!(allows[0].justification.contains("sentinel"));
    }

    #[test]
    fn allow_without_justification_is_a_finding() {
        let src = "// lint:allow(float-eq)\nlet t = x;\n";
        let (allows, findings) = parse_inline_allows("a.rs", &lex(src));
        assert!(allows.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "allow-syntax");
    }

    #[test]
    fn allow_with_unknown_rule_is_a_finding() {
        let src = "// lint:allow(no-such-rule): because\n";
        let (allows, findings) = parse_inline_allows("a.rs", &lex(src));
        assert!(allows.is_empty());
        assert_eq!(findings[0].rule, "allow-syntax");
    }

    #[test]
    fn prose_mentions_are_ignored() {
        let src = "// suppress via lint:allow(panic-hygiene) as documented\n";
        let (allows, findings) = parse_inline_allows("a.rs", &lex(src));
        assert!(allows.is_empty());
        assert!(findings.is_empty());
    }

    #[test]
    fn multi_rule_allow() {
        let src = "// lint:allow(float-eq, panic-hygiene): both justified here\n";
        let (allows, _) = parse_inline_allows("a.rs", &lex(src));
        assert_eq!(allows[0].rules.len(), 2);
    }

    #[test]
    fn allowlist_parse_and_errors() {
        let text = "# comment\n\ncrates/bench/src/x.rs | determinism-time | timing is the point\nbad line\nfoo.rs | nope | why\n";
        let (entries, findings) = parse_allowlist("lint.allow", text);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "determinism-time");
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "allow-syntax"));
    }

    #[test]
    fn stale_allowlist_entries_are_flagged_and_removed() {
        let mut entries = vec![
            AllowlistEntry {
                line: 1,
                path: "crates/bench/src/live.rs".into(),
                rule: "determinism-time".into(),
                justification: "ok".into(),
                used: false,
            },
            AllowlistEntry {
                line: 2,
                path: "crates/bench/src/deleted.rs".into(),
                rule: "determinism-time".into(),
                justification: "stale".into(),
                used: false,
            },
        ];
        let scanned: std::collections::BTreeSet<String> =
            ["crates/bench/src/live.rs".to_owned()].into_iter().collect();
        let findings = flag_missing_files(&mut entries, &scanned, "lint.allow");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].path, "crates/bench/src/live.rs");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unused-allow");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("no longer exists"));
    }

    #[test]
    fn suppression_application_and_unused() {
        let mut findings = vec![
            Finding {
                file: "a.rs".into(),
                line: 2,
                rule: "float-eq",
                message: String::new(),
                suppressed: None,
            },
            Finding {
                file: "b.rs".into(),
                line: 7,
                rule: "determinism-time",
                message: String::new(),
                suppressed: None,
            },
        ];
        let mut inline = vec![(
            "a.rs".to_owned(),
            vec![
                InlineAllow {
                    line: 1,
                    rules: vec!["float-eq".into()],
                    justification: "ok".into(),
                    used: false,
                },
                InlineAllow {
                    line: 9,
                    rules: vec!["panic-hygiene".into()],
                    justification: "stale".into(),
                    used: false,
                },
            ],
        )];
        let mut allowlist = vec![
            AllowlistEntry {
                line: 1,
                path: "b.rs".into(),
                rule: "determinism-time".into(),
                justification: "bench".into(),
                used: false,
            },
            AllowlistEntry {
                line: 2,
                path: "c.rs".into(),
                rule: "float-eq".into(),
                justification: "stale".into(),
                used: false,
            },
        ];
        apply_suppressions(&mut findings, &mut inline, &mut allowlist, "lint.allow");
        assert!(findings[0].suppressed.is_some());
        assert!(findings[1].suppressed.is_some());
        let unused: Vec<_> = findings.iter().filter(|f| f.rule == "unused-allow").collect();
        assert_eq!(unused.len(), 2);
    }
}
