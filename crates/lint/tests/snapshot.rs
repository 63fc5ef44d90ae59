//! Engine-level snapshot: the fixture corpus must produce exactly the
//! rule/path/line triples pinned in `fixtures/EXPECTED.txt`.

use std::collections::BTreeSet;
use std::path::Path;

fn expected() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/EXPECTED.txt");
    std::fs::read_to_string(&path)
        .expect("fixtures/EXPECTED.txt must exist")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn fixture_corpus_matches_pinned_snapshot() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let report = udm_lint::check(&fixtures).expect("fixture check runs");
    let actual: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{} {}:{}", d.rule, d.path, d.line))
        .collect();
    let exp = expected();
    let missing: Vec<_> = exp.iter().filter(|l| !actual.contains(l)).collect();
    let extra: Vec<_> = actual.iter().filter(|l| !exp.contains(l)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "snapshot drift\nmissing: {missing:#?}\nextra: {extra:#?}"
    );
}

#[test]
fn every_new_rule_has_firing_and_nonfiring_coverage() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let report = udm_lint::check(&fixtures).expect("fixture check runs");
    let rule = "UDM009";
    let hits = report.diagnostics.iter().filter(|d| d.rule == rule).count();
    assert!(hits >= 2, "{rule}: want >= 2 firing fixtures, got {hits}");
    // Non-firing coverage: the rule's fixture file contains its trigger
    // constructs more often than it fires, so the clean variants prove
    // the rule discriminates.
    let src = std::fs::read_to_string(fixtures.join("udm009.rs")).unwrap();
    let nonfiring = src.matches("non-firing:").count();
    assert!(
        nonfiring >= 2,
        "udm009.rs: want >= 2 annotated non-firing cases, got {nonfiring}"
    );
}

/// No fixture falls back from the full parse: `check` fails on the first
/// file that does not parse, so a report that covers every fixture on
/// disk means each one ran the token and AST rules.
#[test]
fn fixture_corpus_has_no_parse_fallbacks() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let report = udm_lint::check(&fixtures).expect("fixture check runs");
    let on_disk = udm_lint::engine::collect_rust_files(&fixtures)
        .expect("fixture walk")
        .len();
    assert_eq!(report.files_scanned, on_disk);
    let paths: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.path.as_str()).collect();
    assert!(!paths.contains("clean.rs"));
}
