//! Panicking calls in library code, `as` conversions in the kernel
//! modules and undocumented `unsafe` blocks are clippy lints declared
//! next to the code they govern. Tier-1 runs no clippy, so these tests
//! pin the declarations, and with them the scope of each lint.

use std::path::Path;
use udm_lint::context::LIBRARY_CRATES;
use udm_lint::lexer::lex;

/// The per-query kernels and micro-cluster math, where `u64 as f64`
/// rounds above 2^53 and `f64 as usize` saturates; they use the checked
/// conversions in `udm_core::num` instead.
const CAST_FREE_MODULES: [&str; 10] = [
    "crates/kde/src/error_kernel.rs",
    "crates/kde/src/estimator.rs",
    "crates/kde/src/columns.rs",
    "crates/kde/src/chunked.rs",
    "crates/kde/src/fastexp.rs",
    "crates/kde/src/classic.rs",
    "crates/kde/src/kernel.rs",
    "crates/microcluster/src/density.rs",
    "crates/microcluster/src/feature.rs",
    "crates/microcluster/src/distance.rs",
];

const PANIC_LINTS: &str = "#![cfg_attr(not(test),warn(clippy::unwrap_used,clippy::expect_used,\
                           clippy::panic,clippy::todo,clippy::unimplemented))]";
const CAST_LINT: &str = "#![cfg_attr(not(test),warn(clippy::as_conversions))]";

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

/// The file's tokens joined without whitespace or comments, so that
/// reformatting an attribute does not matter.
fn compact(rel: &str) -> String {
    let src = std::fs::read_to_string(repo_root().join(rel)).unwrap();
    lex(&src).toks.iter().map(|t| t.text.as_str()).collect()
}

/// The lines of the TOML table `header`, up to the next table.
fn toml_table(manifest: &Path, header: &str) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).unwrap();
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.trim().to_string())
        .collect()
}

#[test]
fn library_crate_roots_warn_on_panics_outside_tests() {
    for krate in LIBRARY_CRATES {
        let rel = format!("crates/{krate}/src/lib.rs");
        assert!(
            compact(&rel).contains(PANIC_LINTS),
            "{rel} lacks {PANIC_LINTS}"
        );
    }
}

#[test]
fn kernel_modules_warn_on_as_conversions_outside_tests() {
    for rel in CAST_FREE_MODULES {
        assert!(compact(rel).contains(CAST_LINT), "{rel} lacks {CAST_LINT}");
    }
}

#[test]
fn every_package_inherits_the_unsafe_block_lint() {
    let root = repo_root().join("Cargo.toml");
    let clippy = toml_table(&root, "[workspace.lints.clippy]");
    assert!(
        clippy
            .iter()
            .any(|l| l.starts_with("undocumented_unsafe_blocks")),
        "[workspace.lints.clippy] lacks undocumented_unsafe_blocks: {clippy:?}"
    );
    let mut manifests = vec![root];
    for entry in std::fs::read_dir(repo_root().join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > LIBRARY_CRATES.len());
    for manifest in manifests {
        assert!(
            toml_table(&manifest, "[lints]").contains(&"workspace = true".to_string()),
            "{} does not inherit [workspace.lints]",
            manifest.display()
        );
    }
}
