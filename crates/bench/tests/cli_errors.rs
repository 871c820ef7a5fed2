//! Malformed command lines end in a usage error, never in a panic or a
//! silent run: `diag` with a removed flag or an unusable `--scale` exits
//! with code 2 and an `error:` line on stderr before it builds any data.

use std::process::Command;

#[test]
fn diag_rejects_malformed_arguments_with_exit_code_2() {
    let cases: [&[&str]; 5] = [
        &["--cor-strength", "0.3"],
        &["--scale", "inf"],
        &["--scale", "nan"],
        &["--scale", "0"],
        &["--scale", "-1"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_diag"))
            .args(args)
            .output()
            .expect("diag runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
