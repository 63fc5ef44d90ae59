//! End-to-end tests that spawn the real `udm` binary.

use std::path::PathBuf;
use std::process::Command;

fn udm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_udm"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("udm_e2e_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = udm().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
}

#[test]
fn no_args_prints_usage() {
    let out = udm().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn unknown_subcommand_exits_2_with_stderr() {
    let out = udm().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("udm help"), "{err}");
}

#[test]
fn backend_flag_exits_2_as_unknown_flag() {
    let invocations: [&[&str]; 3] = [
        &["classify", "--train", "a.csv", "--test", "b.csv"],
        &["chaos", "breast_cancer"],
        &["serve", "--train", "t.csv", "--state-dir", "unused-state"],
    ];
    for argv in invocations {
        let out = udm()
            .args(argv)
            .args(["--backend", "exact"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("unknown flag \"--backend\""),
            "{argv:?}: {err}"
        );
    }
}

#[test]
fn runtime_failure_exits_1() {
    let out = udm()
        .args(["density", "/nonexistent/file.csv", "--at", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr).unwrap().contains("error"));
}

#[test]
fn full_pipeline_through_the_binary() {
    let dir = tmpdir("pipeline");
    let train = dir.join("train.csv");
    let test = dir.join("test.csv");

    // generate
    let out = udm()
        .args([
            "generate",
            "breast_cancer",
            "--n",
            "250",
            "--f",
            "0.5",
            "--seed",
            "1",
            "--out",
            train.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let out = udm()
        .args([
            "generate",
            "breast_cancer",
            "--n",
            "80",
            "--f",
            "0.5",
            "--seed",
            "2",
            "--out",
            test.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // classify
    let out = udm()
        .args([
            "classify",
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--q",
            "20",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("accuracy"), "{text}");

    // summarize -> snapshot file exists and is JSON
    let snap = dir.join("snap.json");
    let out = udm()
        .args([
            "summarize",
            train.to_str().unwrap(),
            "--q",
            "8",
            "--out",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&snap).unwrap();
    assert!(json.starts_with('{'));

    // density on stdout
    let out = udm()
        .args([
            "density",
            train.to_str().unwrap(),
            "--at",
            "0,0,0,0,0,0,0,0,0",
            "--q",
            "8",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("density"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_to_stdout_pipes_cleanly() {
    let out = udm()
        .args(["generate", "adult", "--n", "10"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("#udm,dim=6"));
    assert_eq!(text.lines().count(), 11); // header + 10 rows
}
