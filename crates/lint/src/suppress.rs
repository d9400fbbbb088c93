//! Inline suppression directives.
//!
//! A finding is silenced by a comment of the form
//!
//! ```text
//! // dblayout::allow(R3, reason = "exact bit-zero filter; NaN rejected above")
//! ```
//!
//! A trailing comment suppresses its own line; a standalone comment
//! suppresses the next line. The reason is **mandatory** — a directive
//! without one (or naming an unknown rule) is itself reported as an error,
//! so suppressions stay auditable.

use crate::lexer::Comment;
use crate::rules::RULE_IDS;

/// One parsed `dblayout::allow(...)` directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Suppression {
    /// Uppercased rule id (`R3`..`R7`).
    pub rule: String,
    /// The mandatory justification (empty when malformed; see `error`).
    pub reason: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The line the directive silences.
    pub effective_line: u32,
    /// Set when the directive is malformed; reported as an error diagnostic.
    pub error: Option<String>,
}

impl Suppression {
    /// Whether this (well-formed) directive silences `rule` at `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.error.is_none() && self.rule == rule && self.effective_line == line
    }
}

/// Extracts every suppression directive from a file's comments.
pub fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    comments
        .iter()
        .filter_map(|c| {
            let directive = c.text.trim();
            let rest = directive.strip_prefix("dblayout::allow")?;
            let effective_line = if c.trailing { c.line } else { c.line + 1 };
            Some(parse_directive(rest, c.line, effective_line))
        })
        .collect()
}

fn parse_directive(rest: &str, line: u32, effective_line: u32) -> Suppression {
    let malformed = |msg: &str| Suppression {
        rule: String::new(),
        reason: String::new(),
        line,
        effective_line,
        error: Some(msg.to_string()),
    };
    let rest = rest.trim_start();
    let Some(inner) = rest
        .strip_prefix('(')
        .and_then(|r| r.trim_end().strip_suffix(')'))
    else {
        return malformed("expected `dblayout::allow(<rule>, reason = \"...\")`");
    };
    let (rule_part, reason_part) = match inner.split_once(',') {
        Some((r, rest)) => (r.trim(), Some(rest.trim())),
        None => (inner.trim(), None),
    };
    let rule = rule_part.to_ascii_uppercase();
    if !RULE_IDS.contains(&rule.as_str()) {
        return malformed(&format!(
            "unknown rule `{rule_part}` (known: {})",
            RULE_IDS.join(", ")
        ));
    }
    let Some(reason_part) = reason_part else {
        return malformed("suppression needs a reason: `reason = \"...\"`");
    };
    let Some(value) = reason_part
        .strip_prefix("reason")
        .map(|r| r.trim_start())
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim())
    else {
        return malformed("suppression needs a reason: `reason = \"...\"`");
    };
    let Some(reason) = value
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::trim)
    else {
        return malformed("reason must be a double-quoted string");
    };
    if reason.is_empty() {
        return malformed("reason must not be empty");
    }
    Suppression {
        rule,
        reason: reason.to_string(),
        line,
        effective_line,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Suppression> {
        parse_suppressions(&lex(src).unwrap().comments)
    }

    #[test]
    fn standalone_covers_next_line() {
        let s = parse("// dblayout::allow(R3, reason = \"exact zero\")\nlet x = 1.0;\n");
        assert_eq!(s.len(), 1);
        assert!(s[0].error.is_none());
        assert!(s[0].covers("R3", 2));
        assert!(!s[0].covers("R3", 1));
        assert!(!s[0].covers("R1", 2));
        assert_eq!(s[0].reason, "exact zero");
    }

    #[test]
    fn trailing_covers_own_line() {
        let s = parse("let x = 1.0; // dblayout::allow(R3, reason = \"why\")\n");
        assert_eq!(s.len(), 1);
        assert!(s[0].covers("R3", 1));
    }

    #[test]
    fn missing_reason_is_an_error() {
        for bad in [
            "// dblayout::allow(R3)",
            "// dblayout::allow(R3, reason = \"\")",
            "// dblayout::allow(R3, because = \"x\")",
            "// dblayout::allow(R99, reason = \"x\")",
            // R1, R2, R8 and R9 are clippy lints now, and R5 and R10 hold
            // by construction; their ids are retired.
            "// dblayout::allow(R1, reason = \"x\")",
            "// dblayout::allow(R5, reason = \"x\")",
            "// dblayout::allow(R10, reason = \"x\")",
            "// dblayout::allow R3",
        ] {
            let s = parse(bad);
            assert_eq!(s.len(), 1, "{bad}");
            assert!(s[0].error.is_some(), "{bad}");
        }
    }

    #[test]
    fn rule_id_is_case_insensitive() {
        let s = parse("// dblayout::allow(r4, reason = \"never held together\")");
        assert!(s[0].error.is_none());
        assert_eq!(s[0].rule, "R4");
    }

    #[test]
    fn unrelated_comments_are_ignored() {
        assert!(parse("// just a note about dblayout\n/* block */\n").is_empty());
    }
}
