//! Malformed command lines end in a usage error, never in a panic or a
//! silent run: `diag` with a removed flag or an unusable `--scale` exits
//! with code 2 and an `error:` line on stderr before it builds any data.
//! A reader that closes stdout early ends a binary quietly, with status 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn diag_rejects_malformed_arguments_with_exit_code_2() {
    let cases: [&[&str]; 6] = [
        &["--cor-strength", "0.3"],
        &["--crud"],
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

/// `bin args | head -1`: the reader takes one line and closes the pipe.
/// `dump_repairs --marginals` prints ≈ 400 KB, far past a pipe buffer, so
/// its later writes are sure to meet the closed pipe; `diag` prints its
/// report in pieces after the first line.
#[test]
fn a_closed_stdout_ends_the_binary_quietly() {
    let cases: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_dump_repairs"), &["--marginals"]),
        (env!("CARGO_BIN_EXE_diag"), &["--threads", "1"]),
    ];
    for (bin, args) in cases {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the binary starts");
        let mut first = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("one line");
        assert!(!first.is_empty(), "{bin}: printed nothing");
        let out = child.wait_with_output().expect("the binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
    }
}
