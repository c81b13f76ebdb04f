//! Flag parsing of the `edkm` binary: a flag that is present with a value
//! that does not parse is refused (flag named, usage printed, exit 2)
//! instead of silently falling back to its default.

use std::process::{Command, Output};

fn edkm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_edkm"))
        .args(args)
        .output()
        .expect("edkm binary runs")
}

#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["bench", "workload", "--requests", "2x"][..], "--requests"),
        (&["serve", "--bits", "3x"][..], "--bits"),
        (&["serve", "--temp=abc"][..], "--temp"),
        (&["serve", "--new", "4", "--batch"][..], "--batch"),
        (&["sweep", "--bits", "2,x,4"][..], "--bits"),
    ] {
        let out = edkm(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} must print usage");
    }
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
