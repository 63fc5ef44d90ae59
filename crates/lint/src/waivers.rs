//! Waivers: inline `// udm-lint: allow(RULE) reason` comments.
//!
//! A waiver covers its own line and the next line that carries code,
//! so it can sit above the flagged statement (the common form) or
//! trail it.

use crate::lexer::Lexed;
use crate::rules::Diagnostic;
use std::collections::BTreeSet;

/// One inline waiver extracted from a comment.
#[derive(Debug, Clone)]
pub struct InlineWaiver {
    /// Rule ids this waiver covers.
    pub rules: Vec<String>,
    /// Source lines the waiver applies to.
    pub lines: BTreeSet<usize>,
    /// The stated reason (required — reasonless waivers are ignored).
    pub reason: String,
}

/// Extracts inline waivers from a file's comments. A waiver at line L
/// covers L and the first following line that has a token.
pub fn inline_waivers(lexed: &Lexed) -> Vec<InlineWaiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix("udm-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(after_allow) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = after_allow.find(')') else {
            continue;
        };
        let rules: Vec<String> = after_allow[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = after_allow[close + 1..]
            .trim()
            .trim_end_matches("*/")
            .trim();
        if rules.is_empty() || reason.is_empty() {
            continue;
        }
        let mut lines = BTreeSet::new();
        lines.insert(c.line);
        if let Some(next) = lexed
            .toks
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > c.line)
            .min()
        {
            lines.insert(next);
        }
        out.push(InlineWaiver {
            rules,
            lines,
            reason: reason.to_string(),
        });
    }
    out
}

/// Outcome of filtering diagnostics through the waivers.
#[derive(Debug, Default)]
pub struct WaiverOutcome {
    /// Diagnostics that survived (must be fixed or waived).
    pub remaining: Vec<Diagnostic>,
    /// Count of diagnostics silenced by waivers.
    pub waived: usize,
    /// Indices into the inline waiver list that matched something.
    pub used_inline: BTreeSet<usize>,
}

/// Filters `diags` for one file through its inline waivers.
pub fn apply_waivers(diags: Vec<Diagnostic>, inline: &[InlineWaiver]) -> WaiverOutcome {
    let mut out = WaiverOutcome::default();
    for d in diags {
        let hit = inline
            .iter()
            .position(|w| w.rules.iter().any(|r| r == d.rule) && w.lines.contains(&d.line));
        if let Some(i) = hit {
            out.waived += 1;
            out.used_inline.insert(i);
        } else {
            out.remaining.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn inline_waiver_covers_next_code_line() {
        let src = "fn f() {\n    // udm-lint: allow(UDM002) invariant: x is exactly 0 here\n    x == 0.0;\n}";
        let l = lex(src);
        let ws = inline_waivers(&l);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rules, vec!["UDM002"]);
        assert!(ws[0].lines.contains(&2) && ws[0].lines.contains(&3));
        assert!(ws[0].reason.contains("invariant"));
    }

    #[test]
    fn reasonless_waivers_are_ignored() {
        let l = lex("// udm-lint: allow(UDM002)\nx == 0.0;");
        assert!(inline_waivers(&l).is_empty());
    }

    #[test]
    fn multi_rule_waiver() {
        let l = lex("// udm-lint: allow(UDM002, UDM003) both are fine here\nlet y = 1;");
        let ws = inline_waivers(&l);
        assert_eq!(ws[0].rules, vec!["UDM002", "UDM003"]);
    }

    #[test]
    fn apply_filters_and_tracks_usage() {
        let d = |rule: &'static str, line: usize| Diagnostic {
            rule,
            path: "crates/kde/src/x.rs".into(),
            line,
            message: String::new(),
        };
        let inline = vec![
            InlineWaiver {
                rules: vec!["UDM002".into()],
                lines: [4usize, 5].into_iter().collect(),
                reason: "r".into(),
            },
            InlineWaiver {
                rules: vec!["UDM003".into()],
                lines: [9usize].into_iter().collect(),
                reason: "r".into(),
            },
        ];
        let out = apply_waivers(
            vec![d("UDM002", 5), d("UDM002", 9), d("UDM003", 10)],
            &inline,
        );
        assert_eq!(out.waived, 1);
        assert_eq!(out.remaining.len(), 2);
        assert_eq!(out.used_inline, [0usize].into_iter().collect());
    }
}
