//! Machine-readable renderings of a [`CheckReport`]: a compact JSON
//! document for CI dashboards and a SARIF 2.1.0 log for code-scanning
//! upload. Hand-rolled serialisation — the lint crate stays
//! dependency-free so it builds in the offline image.

use crate::engine::CheckReport;
use crate::rules::RULE_INFO;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// Renders the report as the `udm-lint` JSON document (schema v2):
/// counts, per-rule stats, every unwaived diagnostic, and the unused
/// waivers CI gates on.
pub fn render_json(report: &CheckReport) -> String {
    let mut diags = Vec::new();
    for d in &report.diagnostics {
        diags.push(format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(d.rule),
            json_escape(&d.path),
            d.line,
            json_escape(&d.message)
        ));
    }
    let mut per_rule = Vec::new();
    for (rule, (hits, waived)) in &report.per_rule {
        per_rule.push(format!(
            "\"{rule}\":{{\"hits\":{hits},\"waived\":{waived},\"reported\":{}}}",
            hits - waived
        ));
    }
    format!(
        concat!(
            "{{\"tool\":\"udm-lint\",\"schema_version\":2,",
            "\"files_scanned\":{},",
            "\"diagnostics\":[{}],",
            "\"waived\":{},",
            "\"per_rule\":{{{}}},",
            "\"unused_waivers\":{}}}\n"
        ),
        report.files_scanned,
        diags.join(","),
        report.waived,
        per_rule.join(","),
        json_str_list(&report.unused_inline_waivers),
    )
}

/// Renders the report as a SARIF 2.1.0 log (one run, one result per
/// unwaived diagnostic) suitable for GitHub code-scanning upload.
pub fn render_sarif(report: &CheckReport) -> String {
    let mut rules = Vec::new();
    for (id, desc) in RULE_INFO {
        rules.push(format!(
            concat!(
                "{{\"id\":\"{}\",",
                "\"shortDescription\":{{\"text\":\"{}\"}}}}"
            ),
            json_escape(id),
            json_escape(desc)
        ));
    }
    let mut results = Vec::new();
    for d in &report.diagnostics {
        results.push(format!(
            concat!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",",
                "\"message\":{{\"text\":\"{}\"}},",
                "\"locations\":[{{\"physicalLocation\":{{",
                "\"artifactLocation\":{{\"uri\":\"{}\"}},",
                "\"region\":{{\"startLine\":{}}}}}}}]}}"
            ),
            json_escape(d.rule),
            json_escape(&d.message),
            json_escape(&d.path),
            d.line
        ));
    }
    format!(
        concat!(
            "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",",
            "\"version\":\"2.1.0\",",
            "\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"udm-lint\",",
            "\"informationUri\":\"https://example.invalid/udm-lint\",",
            "\"rules\":[{}]}}}},",
            "\"results\":[{}]}}]}}\n"
        ),
        rules.join(","),
        results.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    fn sample_report() -> CheckReport {
        let mut r = CheckReport {
            files_scanned: 3,
            waived: 1,
            ..CheckReport::default()
        };
        r.diagnostics.push(Diagnostic {
            rule: "UDM002",
            path: "crates/kde/src/x.rs".into(),
            line: 7,
            message: "said \"no\"\nnewline".into(),
        });
        r.per_rule.insert("UDM002", (2, 1));
        r.unused_inline_waivers.push("b.rs:3: allow(UDM003)".into());
        r
    }

    #[test]
    fn escape_handles_quotes_newlines_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_document_is_wellformed_and_complete() {
        let doc = render_json(&sample_report());
        assert!(doc.contains("\"tool\":\"udm-lint\""));
        assert!(doc.contains("\"files_scanned\":3"));
        assert!(doc.contains("\"rule\":\"UDM002\""));
        assert!(doc.contains("\"line\":7"));
        assert!(doc.contains("said \\\"no\\\"\\nnewline"));
        assert!(doc.contains("\"UDM002\":{\"hits\":2,\"waived\":1,\"reported\":1}"));
        assert!(doc.contains("\"unused_waivers\":[\"b.rs:3: allow(UDM003)\"]"));
        // Braces and brackets balance (no raw quotes break nesting).
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn sarif_document_lists_all_rules_and_results() {
        let doc = render_sarif(&sample_report());
        assert!(doc.contains("\"version\":\"2.1.0\""));
        for (id, _) in RULE_INFO {
            assert!(doc.contains(&format!("\"id\":\"{id}\"")), "{id}");
        }
        assert!(doc.contains("\"ruleId\":\"UDM002\""));
        assert!(doc.contains("\"startLine\":7"));
        assert!(doc.contains("\"uri\":\"crates/kde/src/x.rs\""));
    }
}
