//! Diagnostics and the two reporters: human-readable text and the
//! machine-readable JSON written to `results/lint_report.json`.

use serde_json::Value;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Rule finding — fails the run only under `--deny-warnings`.
    Warning,
    /// Lint-infrastructure problem (unlexable file, malformed suppression)
    /// — always fails the run.
    Error,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One reported problem.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (`R3`..`R7`), `unused-suppression`, or `lint` for
    /// infrastructure errors.
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What and why, with the suggested fix.
    pub message: String,
}

/// The outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Active diagnostics, ordered by (file, line).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a well-formed `dblayout::allow`, with the
    /// justification appended — kept for the JSON report so suppressions
    /// stay auditable.
    pub suppressed: Vec<Diagnostic>,
    /// Number of Rust files analyzed.
    pub files_scanned: usize,
}

impl LintReport {
    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether the run passes: errors always fail; warnings fail only when
    /// denied.
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}: [{}] {}:{}: {}\n",
                d.severity.as_str(),
                d.rule,
                d.file,
                d.line,
                d.message
            ));
        }
        out.push_str(&format!(
            "dblayout-lint: {} file(s) scanned, {} warning(s), {} error(s), {} suppressed\n",
            self.files_scanned,
            self.warnings(),
            self.errors(),
            self.suppressed.len()
        ));
        out
    }

    /// Machine-readable report (deterministic key order).
    pub fn to_json(&self) -> Value {
        let diag = |d: &Diagnostic| {
            Value::Map(vec![
                ("rule".into(), Value::Str(d.rule.to_string())),
                ("severity".into(), Value::Str(d.severity.as_str().into())),
                ("file".into(), Value::Str(d.file.clone())),
                ("line".into(), Value::U64(d.line as u64)),
                ("message".into(), Value::Str(d.message.clone())),
            ])
        };
        Value::Map(vec![
            (
                "files_scanned".into(),
                Value::U64(self.files_scanned as u64),
            ),
            ("warnings".into(), Value::U64(self.warnings() as u64)),
            ("errors".into(), Value::U64(self.errors() as u64)),
            (
                "diagnostics".into(),
                Value::Seq(self.diagnostics.iter().map(diag).collect()),
            ),
            (
                "suppressed".into(),
                Value::Seq(self.suppressed.iter().map(diag).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::ValueExt;

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "R3",
                    severity: Severity::Warning,
                    file: "crates/server/src/x.rs".into(),
                    line: 3,
                    message: "float equality".into(),
                },
                Diagnostic {
                    rule: "lint",
                    severity: Severity::Error,
                    file: "crates/server/src/y.rs".into(),
                    line: 1,
                    message: "bad suppression".into(),
                },
            ],
            suppressed: vec![],
            files_scanned: 2,
        }
    }

    #[test]
    fn clean_logic() {
        let r = LintReport::default();
        assert!(r.is_clean(true));
        let s = sample();
        assert_eq!(s.warnings(), 1);
        assert_eq!(s.errors(), 1);
        assert!(!s.is_clean(false), "errors always fail");
        let warn_only = LintReport {
            diagnostics: vec![Diagnostic {
                rule: "R3",
                severity: Severity::Warning,
                file: "f".into(),
                line: 1,
                message: "m".into(),
            }],
            ..Default::default()
        };
        assert!(warn_only.is_clean(false));
        assert!(!warn_only.is_clean(true));
    }

    #[test]
    fn json_shape() {
        let v = sample().to_json();
        assert_eq!(v.get("warnings").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("errors").and_then(|x| x.as_u64()), Some(1));
        let diags = v.get("diagnostics").and_then(|x| x.as_array()).unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].get("rule").and_then(|x| x.as_str()), Some("R3"));
    }

    #[test]
    fn render_mentions_every_diagnostic() {
        let text = sample().render();
        assert!(text.contains("warning: [R3]"));
        assert!(text.contains("error: [lint]"));
        assert!(text.contains("2 file(s) scanned"));
    }
}
