//! The check pipeline: walk the tree, lex, parse, run rules, apply
//! waivers.
//!
//! One pass per file:
//!
//! 1. **Rules** — lex, then parse with [`crate::parser`], then run the
//!    token rules and the AST rules (UDM005, UDM009). A file whose
//!    parse has errors or leaves tokens uncovered fails the whole check,
//!    naming the file and the parser's first error.
//! 2. **Waivers** — inline-comment filtering, with unused-waiver
//!    tracking so stale allows get burned down.

use crate::ast::Ast;
use crate::astrules::run_ast_rules;
use crate::context::FileContext;
use crate::lexer::lex;
use crate::rules::{run_token_rules, Diagnostic, ALL_RULES};
use crate::waivers::{apply_waivers, inline_waivers};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "node_modules", "fixtures"];

/// Result of a full `check` run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Unwaived diagnostics, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Total diagnostics silenced by waivers.
    pub waived: usize,
    /// Per-rule `(raw hits, waived)` counts.
    pub per_rule: BTreeMap<&'static str, (usize, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Inline `// udm-lint: allow(..)` comments that matched nothing.
    pub unused_inline_waivers: Vec<String>,
}

/// Recursively collects `.rs` files under `root`, skipping build output,
/// vendored shims and lint fixtures.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// True when `root` looks like the workspace (has a `Cargo.toml` with a
/// `[workspace]` table). Anything else — e.g. the fixture corpus — is
/// linted in fixture mode, where every rule applies to every file.
pub fn is_workspace_root(root: &Path) -> bool {
    std::fs::read_to_string(root.join("Cargo.toml"))
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false)
}

/// Why a parse falls short of the bar every rule needs (zero errors
/// and total token coverage), or `None` when it meets it.
fn parse_failure(ast: &Ast) -> Option<String> {
    if let Some(e) = ast.errors.first() {
        Some(e.clone())
    } else if !ast.covers_all_tokens() {
        Some("incomplete token coverage".to_string())
    } else {
        None
    }
}

/// Runs the full check over `root`. Fails on the first file that
/// cannot be read or does not parse.
pub fn check(root: &Path) -> Result<CheckReport, String> {
    let fixture_mode = !is_workspace_root(root);
    let files = collect_rust_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut report = CheckReport::default();
    for rule in ALL_RULES {
        report.per_rule.insert(rule, (0, 0));
    }

    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let lexed = lex(&src);
        let ast = crate::parser::parse(&lexed);
        if let Some(reason) = parse_failure(&ast) {
            return Err(format!("{rel} does not parse: {reason}"));
        }
        let ctx = FileContext::new(&rel, &lexed, &ast, fixture_mode);
        let mut diags = run_token_rules(&lexed, &ctx);
        diags.extend(run_ast_rules(&lexed, &ast, &ctx));
        report.files_scanned += 1;

        for d in &diags {
            report.per_rule.entry(d.rule).or_insert((0, 0)).0 += 1;
        }
        let inline = inline_waivers(&lexed);
        let outcome = apply_waivers(diags, &inline);
        report.waived += outcome.waived;
        for (i, w) in inline.iter().enumerate() {
            if !outcome.used_inline.contains(&i) {
                let line = w.lines.iter().next().copied().unwrap_or(0);
                report
                    .unused_inline_waivers
                    .push(format!("{rel}:{line}: allow({})", w.rules.join(", ")));
            }
        }
        report.diagnostics.extend(outcome.remaining);
    }

    // Per-rule waived counts = hits minus surviving diagnostics.
    let mut surviving: BTreeMap<&'static str, usize> = BTreeMap::new();
    for d in &report.diagnostics {
        *surviving.entry(d.rule).or_insert(0) += 1;
    }
    for (rule, counts) in report.per_rule.iter_mut() {
        counts.1 = counts.0 - surviving.get(rule).copied().unwrap_or(0);
    }
    report
        .diagnostics
        .sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    report.unused_inline_waivers.sort();
    Ok(report)
}

/// Robustness smoke: parse every `.rs` file under `root` (including
/// roots the rule walk never sees, e.g. `vendor/`) and report per-file
/// outcomes. Returns `(parsed_ok, unparsed)`; any panic or I/O error
/// is a hard failure of the calling command.
pub fn parse_smoke(root: &Path) -> Result<(usize, Vec<String>), String> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut ok = 0usize;
    let mut unparsed = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let ast = crate::parser::parse(&lex(&src));
        match parse_failure(&ast) {
            None => ok += 1,
            Some(reason) => unparsed.push(format!("{}: {reason}", path.display())),
        }
    }
    Ok((ok, unparsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn workspace_detection() {
        // The repo root two levels up from this crate is a workspace.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        assert!(is_workspace_root(&root));
        assert!(!is_workspace_root(&root.join("crates/lint")));
    }

    #[test]
    fn fixture_corpus_trips_every_rule() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = check(&fixtures).unwrap();
        let rules_hit: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        for rule in ALL_RULES {
            assert!(rules_hit.contains(rule), "fixture corpus missing {rule}");
        }
        // The clean fixture contributes nothing.
        assert!(!report.diagnostics.iter().any(|d| d.path.contains("clean")));
    }

    #[test]
    fn fixture_corpus_parses_without_fallback() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = check(&fixtures).unwrap();
        let on_disk = collect_rust_files(&fixtures).unwrap().len();
        assert_eq!(report.files_scanned, on_disk);
    }

    #[test]
    fn fixture_diagnostics_have_expected_lines() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = check(&fixtures).unwrap();
        let udm005: Vec<usize> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "UDM005" && d.path == "udm005.rs")
            .map(|d| d.line)
            .collect();
        // Line 19 is the recovered-estimator entry point.
        assert_eq!(udm005, vec![8, 19], "{report:?}");
    }

    #[test]
    fn inline_waiver_in_fixture_is_honoured() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = check(&fixtures).unwrap();
        assert!(report.waived >= 1);
        // The waived line in udm002.rs must not be reported.
        assert!(report
            .diagnostics
            .iter()
            .filter(|d| d.path == "udm002.rs")
            .all(|d| d.line != 10));
    }

    #[test]
    fn parse_smoke_handles_vendor_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .join("vendor");
        let (ok, unparsed) = parse_smoke(&root).unwrap();
        // The smoke contract is totality, not zero failures: every file
        // must come back as parsed or as a logged parse failure.
        assert!(ok + unparsed.len() > 0);
        assert!(ok > 0, "no vendor file parsed cleanly: {unparsed:?}");
    }
}
