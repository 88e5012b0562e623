//! Human-readable diagnostics and the machine-readable JSON report.

use std::fmt::Write as _;

use crate::json::escape;
use crate::rules::Finding;

/// Full result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    /// Wall time of the flow-analysis phase (parse + symbol table +
    /// `location-leak`/`seed-flow`), in milliseconds. The `check.sh` budget
    /// gate (`--flow-budget-ms`) and the `lint/flow_analysis_ms` BENCH row
    /// both read this.
    pub flow_analysis_ms: f64,
    /// Functions indexed in the workspace symbol table.
    pub functions_indexed: usize,
    pub findings: Vec<Finding>,
}

impl Report {
    // lint:allow(dead-pub): integration-test hook: live_workspace.rs asserts the zero-active gate through it
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_active())
    }

    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    // lint:allow(dead-pub): integration-test hook: live_workspace.rs asserts that suppressions still resolve through it
    pub fn suppressed_count(&self) -> usize {
        self.findings.len() - self.unsuppressed_count()
    }

    /// Sorts findings by (file, line, rule) so output is byte-stable.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
    }

    /// `file:line: rule: message` lines for every unsuppressed finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in self.unsuppressed() {
            let _ = writeln!(out, "{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "privlocad-lint: {} files scanned, {} findings ({} suppressed, {} active)",
            self.files_scanned,
            self.findings.len(),
            self.suppressed_count(),
            self.unsuppressed_count(),
        );
        out
    }

    /// The machine-readable report: every finding (suppressed ones included,
    /// with their justification) plus summary counts.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"tool\": \"privlocad-lint\",\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"flow_analysis_ms\": {:.3},", self.flow_analysis_ms);
        let _ = writeln!(out, "  \"functions_indexed\": {},", self.functions_indexed);
        let _ = writeln!(out, "  \"active\": {},", self.unsuppressed_count());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed_count());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\", ",
                escape(&f.file),
                f.line,
                f.rule,
                escape(&f.message)
            );
            match &f.suppressed {
                Some(j) => {
                    let _ =
                        write!(out, "\"suppressed\": true, \"justification\": \"{}\"", escape(j));
                }
                None => {
                    let _ = write!(out, "\"suppressed\": false, \"justification\": null");
                }
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn finding(file: &str, line: usize, suppressed: Option<&str>) -> Finding {
        Finding {
            file: file.to_owned(),
            line,
            rule: "float-eq",
            message: "msg with \"quotes\"".to_owned(),
            suppressed: suppressed.map(str::to_owned),
        }
    }

    #[test]
    fn json_report_is_parseable_and_counts_match() {
        let mut report = Report {
            files_scanned: 3,
            findings: vec![finding("b.rs", 2, None), finding("a.rs", 9, Some("why"))],
            ..Report::default()
        };
        report.sort();
        assert_eq!(report.findings[0].file, "a.rs");
        let doc = json::parse(&report.render_json()).unwrap();
        assert_eq!(doc.get("active").unwrap().as_num().unwrap() as usize, 1);
        assert_eq!(doc.get("suppressed").unwrap().as_num().unwrap() as usize, 1);
        let items = doc.get("findings").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("justification").unwrap().as_str().unwrap(), "why");
    }

    #[test]
    fn text_report_lists_only_active_findings() {
        let report = Report {
            files_scanned: 1,
            findings: vec![finding("a.rs", 1, Some("ok")), finding("b.rs", 2, None)],
            ..Report::default()
        };
        let text = report.render_text();
        assert!(text.contains("b.rs:2: float-eq"));
        assert!(!text.contains("a.rs:1"));
        assert!(text.contains("1 suppressed, 1 active"));
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let report = Report::default();
        assert!(json::parse(&report.render_json()).is_ok());
    }
}
