//! Exit codes of `udm-lint check` on small scratch trees: 1 for a stale
//! waiver, 2 for a file that does not parse. Neither needs a flag.

use std::process::{Command, Output};

/// Runs `udm-lint check` over a fresh directory holding `files`.
fn check_tree(name: &str, files: &[(&str, &str)]) -> Output {
    let dir = std::env::temp_dir().join(format!("udm-lint-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, src) in files {
        std::fs::write(dir.join(file), src).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_udm-lint"))
        .arg("check")
        .arg("--root")
        .arg(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn unused_inline_waiver_fails_check() {
    let out = check_tree(
        "stale-waiver",
        &[(
            "stale.rs",
            "// udm-lint: allow(UDM002) nothing here compares floats\nfn f() {}\n",
        )],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unused inline waiver: stale.rs:1: allow(UDM002)"),
        "{stderr}"
    );
}

#[test]
fn unparsable_file_fails_check_naming_it() {
    let out = check_tree(
        "unparsable",
        &[
            ("clean.rs", "fn ok() {}\n"),
            ("broken.rs", "fn broken(a: , -> {\n"),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: broken.rs does not parse: "),
        "{stderr}"
    );
}
