//! Flag parsing of the `edkm` binary: a flag that is present with a value
//! that does not parse or is out of range, and a flag the command does not
//! read, are refused (flag named, usage printed, exit 2) instead of
//! silently running with defaults.

use std::process::{Command, Output};

fn edkm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_edkm"))
        .args(args)
        .output()
        .expect("edkm binary runs")
}

/// `args` exit 2 with `needle` (the flag) and the usage text on stderr.
fn assert_refused(cases: &[(&[&str], &str)]) {
    for &(args, needle) in cases {
        let out = edkm(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?} must name {needle}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?} must print usage");
    }
}

#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    assert_refused(&[
        (&["bench", "workload", "--requests", "2x"], "--requests"),
        (&["serve", "--bits", "3x"], "--bits"),
        (&["serve", "--temp=abc"], "--temp"),
        (&["serve", "--new", "4", "--batch"], "--batch"),
        (&["sweep", "--bits", "2,x,4"], "--bits"),
    ]);
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    assert_refused(&[
        // A removed flag and a misspelled one.
        (&["serve", "--shards", "2"], "--shards"),
        (&["serve", "--request", "2"], "--request"),
        (&["bench", "workload", "--request", "2"], "--request"),
    ]);
}

#[test]
fn out_of_range_bits_exit_2_naming_the_flag() {
    assert_refused(&[
        (&["serve", "--bits", "40"], "--bits 40"),
        (&["serve", "--bits", "0"], "--bits 0"),
        (&["sweep", "--bits", "2,9"], "--bits 9"),
    ]);
}

#[test]
fn well_formed_flag_values_are_honoured() {
    let out = edkm(&[
        "bench",
        "workload",
        "--requests",
        "2",
        "--batch",
        "2",
        "--seed",
        "3",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("(seed 3): 2 requests"), "stdout: {stdout}");
}
