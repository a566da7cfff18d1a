//! Exit codes of the `dkc` command line: a usage error exits 2 with a
//! message on stderr, before any graph is loaded or any server started; a
//! runtime failure exits 1. Every row runs under a deadline, so an input
//! that wrongly starts a server fails the test instead of hanging it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A scratch directory holding one triangle as `g.txt`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc_cli_usage_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("g.txt"), "1 2\n2 3\n1 3\n").unwrap();
    dir
}

/// Runs `dkc` in `dir` and returns its exit code and stderr.
fn dkc(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dkc"))
        .current_dir(dir)
        .args(args)
        .env("DKC_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("dkc {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Asserts every `(argv, exit code, stderr fragment)` row.
fn check_rows(dir: &Path, rows: &[(&[&str], i32, &str)]) {
    for &(args, code, fragment) in rows {
        let (got, stderr) = dkc(dir, args);
        assert_eq!(got, Some(code), "dkc {args:?}: {stderr}");
        assert!(stderr.contains(fragment), "dkc {args:?} lacks {fragment:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "dkc {args:?}: {stderr}");
    }
}

#[test]
fn usage_errors_exit_two() {
    let dir = scratch("errors");
    check_rows(
        &dir,
        &[
            (&[], 2, "usage:"),
            (&["nope"], 2, "usage:"),
            (&["solve", "g.txt", "--k", "3", "--bogus"], 2, "usage:"),
            (&["solve", "g.txt", "--k"], 2, "usage:"),
            (&["solve", "g.txt", "--k", "three"], 2, "usage:"),
            (&["stats", "g.txt", "--kmax", "x"], 2, "usage:"),
            (&["solve", "g.txt", "--k", "3", "--threads", "0"], 2, "usage:"),
            (&["bench", "--reps", "0"], 2, "usage:"),
            (&["loadgen", "127.0.0.1:1", "--update-pct", "101"], 2, "usage:"),
            // A flag `loadgen` no longer takes is foreign to its line.
            (&["loadgen", "127.0.0.1:1", "--improve-pct", "-1"], 2, "usage:"),
            (&["solve", "g.txt", "--k", "3", "--algo", "nope"], 2, "unknown algorithm"),
            (&["solve", "g.txt", "--k", "3", "--ordering", "nope"], 2, "unknown ordering"),
            (&["serve", "g.txt", "--k", "3", "--fsync", "nope"], 2, "unknown fsync policy"),
            (&["gen", "NOPE", "out.txt"], 2, "unknown dataset"),
            (&["bench", "--dataset", "NOPE"], 2, "unknown dataset"),
            (&["solve", "g.txt"], 2, "usage:"),
            (&["partition", "g.txt"], 2, "usage:"),
            (&["serve", "g.txt"], 2, "usage:"),
            (&["convert", "g.txt"], 2, "usage:"),
            (&["gen", "FTB"], 2, "usage:"),
            (&["cache", "FTB"], 2, "usage:"),
            (&["cache", "evict"], 2, "usage:"),
        ],
    );
    assert!(!dir.join("out.txt").exists(), "nothing is generated on a usage error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runtime_failures_exit_one() {
    let dir = scratch("failures");
    check_rows(
        &dir,
        &[
            (&["solve", "missing.txt", "--k", "3"], 1, "missing.txt"),
            (&["bench", "summary", "--host", "nohost"], 1, "BENCH_nohost.json"),
            (&["bench", "summary", "absent.json"], 1, "absent.json"),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Inputs the command line used to accept or clamp, or rejected only after
/// loading the graph: each is now a usage error before any work starts.
#[test]
fn foreign_flags_zero_counts_and_out_of_range_k_exit_two() {
    let dir = scratch("strict");
    check_rows(
        &dir,
        &[
            (&["gen", "FTB", "out.txt", "--port", "5"], 2, "does not take --port"),
            (&["gen", "FTB", "out.txt", "--algo", "gc"], 2, "does not take --algo"),
            (&["stats", "g.txt", "--json"], 2, "does not take --json"),
            (&["bench", "summary", "--reps", "3"], 2, "does not take --reps"),
            (&["solve", "g.txt", "--k", "17"], 2, "--k must be"),
            (&["solve", "g.txt", "--k", "2"], 2, "--k must be"),
            (&["stats", "g.txt", "--kmax", "17"], 2, "--kmax must be"),
            (&["bench", "--k", "0"], 2, "--k must be"),
            (&["loadgen", "127.0.0.1:1", "--conns", "0"], 2, "--conns must be"),
            (&["loadgen", "127.0.0.1:1", "--ops", "0"], 2, "--ops must be"),
            (&["loadgen", "127.0.0.1:1", "--batch", "0"], 2, "--batch must be"),
            (&["serve", "g.txt", "--k", "3", "--readers", "0"], 2, "--readers must be"),
            (&["serve", "g.txt", "--k", "3", "--batch-max", "0"], 2, "--batch-max must be"),
            (&["replica", "127.0.0.1:1", "--readers", "0"], 2, "--readers must be"),
            (&["bench", "--batches", "0"], 2, "--batches must be"),
            (&["bench", "--batch-size", "0"], 2, "--batch-size must be"),
            (&["convert", "g.txt", "a.txt", "b.txt"], 2, "usage:"),
        ],
    );
    assert!(!dir.join("out.txt").exists(), "nothing is generated on a usage error");
    std::fs::remove_dir_all(&dir).ok();
}

/// README's command-line synopsis is the one `dkc` prints, verbatim.
#[test]
fn readme_carries_the_generated_synopsis() {
    let dir = scratch("readme");
    let (code, usage) = dkc(&dir, &[]);
    assert_eq!(code, Some(2));
    let synopsis = usage.split("\n\n").next().unwrap();
    assert!(synopsis.starts_with("usage:\n  dkc stats <graph>"), "{usage}");
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .unwrap()
        .replace("\r\n", "\n");
    assert!(readme.contains(synopsis), "README lacks the synopsis:\n{synopsis}");
    std::fs::remove_dir_all(&dir).ok();
}
