//! `repro` refuses a bad command line with a usage error (exit 2 and a
//! message), never a panic, and before any dataset is generated; a reader
//! that closes its stdout ends it with exit 0.

use std::process::{Command, Stdio};

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_command_lines_are_usage_errors_not_panics() {
    for (args, message) in [
        (&["table1", "--scale", "2"][..], "--scale must be a number in (0, 1], got 2"),
        (&["table1", "--scale", "nan"], "--scale must be a number in (0, 1], got nan"),
        (&["table7", "--kmin", "17", "--kmax", "17"], "--kmin must be an integer in 3..=16"),
        (&["table1", "--kmin", "4", "--kmax", "3"], "need kmin <= kmax, got 4 > 3"),
        (&["table1", "--kmin", "2"], "--kmin must be an integer in 3..=16"),
        (&["table1", "--datasets", "FTB,NOPE"], "unknown dataset \"NOPE\""),
        (&["table1", "--port", "5"], "table1 does not take --port"),
        (&["table9"], "unknown command \"table9\""),
        (&[], "usage:"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.contains(message), "repro {args:?} lacks {message:?}: {stderr}");
        assert!(stderr.contains("usage:\n  repro table1|table2|"), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("# repro"), "repro {args:?} started running: {stderr}");
    }
}

#[test]
fn a_good_command_line_runs_with_the_default_sweep() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--datasets", "ftb", "--scale", "0.2", "--kmax", "4"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("# repro table1: scale=0.2 seed=42 k=[3, 4] updates=2000"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("FTB"));
}

#[test]
fn a_closed_stdout_ends_repro_with_exit_zero() {
    // The read end is closed before `repro` writes its table, so the write
    // fails with a broken pipe: that ends the run cleanly, not in a panic.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--datasets", "FTB", "--scale", "0.05", "--kmax", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
