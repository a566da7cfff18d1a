//! End-to-end tests of the `dkc bench` CLI: the append-only trajectory
//! file grows by exactly one parseable line per run, and `--check` gates
//! the fresh run against a baseline file with the right exit status.

use disjoint_kcliques::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A `dkc bench` invocation small enough for a test, fully pinned.
fn bench_cmd(dir: &Path, out: &Path, stamp: &str, rev: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dkc"));
    cmd.current_dir(dir).args([
        "bench",
        "--dataset",
        "FTB",
        "--scale",
        "0.3",
        "--seed",
        "7",
        "--k",
        "3",
        "--reps",
        "1",
        "--threads",
        "2",
        "--conns",
        "1",
        "--ops",
        "8",
        "--warmup",
        "2",
        "--batches",
        "2",
        "--batch-size",
        "4",
        "--host",
        "testhost",
        "--stamp",
        stamp,
        "--git-rev",
        rev,
        "--out",
    ]);
    cmd.arg(out).arg("--scratch").arg(dir.join("scratch"));
    cmd
}

#[test]
fn two_runs_append_two_parseable_lines() {
    let dir = scratch_dir("append");
    let out = dir.join("BENCH_testhost.json");
    for (stamp, rev) in [("run-1", "rev-1"), ("run-2", "rev-2")] {
        let output = bench_cmd(&dir, &out, stamp, rev).output().expect("dkc bench runs");
        assert!(
            output.status.success(),
            "bench failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        // The appended line is also echoed on stdout.
        let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
        assert!(stdout.trim().starts_with('{'), "stdout carries the line: {stdout}");
    }
    let text = std::fs::read_to_string(&out).expect("trajectory file exists");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 2, "one line per run:\n{text}");
    for (line, rev) in lines.iter().zip(["rev-1", "rev-2"]) {
        let v = Json::parse(line).expect("line is valid JSON");
        assert_eq!(v.get("schema").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("git_rev").and_then(Json::as_str), Some(rev));
        assert_eq!(v.get("host").and_then(Json::as_str), Some("testhost"));
        let metrics = v.get("metrics").expect("metrics object");
        for name in [
            "listing_ns",
            "lp_solve_ns",
            "partition_ns",
            "snapshot_load_ns",
            "apply_batch_ns",
            "serve_p99_us",
        ] {
            assert!(
                metrics.get(name).and_then(|m| m.get("median")).and_then(Json::as_u64).is_some(),
                "metric {name} missing from {line}"
            );
        }
    }
}

#[test]
fn check_passes_on_own_baseline_and_fails_on_inflated_counter() {
    let dir = scratch_dir("check");
    let out = dir.join("bench.json");
    let status = bench_cmd(&dir, &out, "base", "base").status().expect("baseline run");
    assert!(status.success());
    let baseline_text = std::fs::read_to_string(&out).expect("baseline written");

    // Checking a fresh identical run against it passes (exit 0).
    let good = dir.join("baseline.json");
    std::fs::write(&good, &baseline_text).unwrap();
    let status = bench_cmd(&dir, &out, "fresh", "fresh")
        .arg("--check")
        .arg(&good)
        .status()
        .expect("check run");
    assert!(status.success(), "identical-config check must pass");

    // Hand-inflating a tightly gated counter must fail the gate (nonzero
    // exit), which is exactly what the CI perf-gate job relies on.
    let line = Json::parse(baseline_text.lines().next().unwrap()).unwrap();
    let Json::Obj(mut members) = line else { panic!("line is an object") };
    for (key, value) in &mut members {
        if key == "metrics" {
            let Json::Obj(metrics) = value else { panic!("metrics is an object") };
            for (name, m) in metrics.iter_mut() {
                if name == "kcliques" {
                    *m = Json::Obj(vec![
                        ("median".into(), Json::u64(999_999)),
                        ("min".into(), Json::u64(999_999)),
                    ]);
                }
            }
        }
    }
    let bad = dir.join("bad_baseline.json");
    std::fs::write(&bad, Json::Obj(members).render() + "\n").unwrap();
    let output = bench_cmd(&dir, &out, "fresh2", "fresh2")
        .arg("--check")
        .arg(&bad)
        .output()
        .expect("failing check run");
    assert!(!output.status.success(), "inflated baseline counter must fail the gate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("perf gate FAILED"), "{stderr}");
    assert!(stderr.contains("kcliques"), "{stderr}");
}

#[test]
fn out_of_range_scale_is_a_usage_error_not_a_panic() {
    let dir = scratch_dir("scale");
    let out = dir.join("out.dkcsr");
    let runs: [&[&str]; 4] = [
        &["gen", "DS", out.to_str().unwrap(), "--scale", "10"],
        &["bench", "--scale", "0"],
        &["bench", "--scale", "-0.5"],
        &["cache", "FTB", "--data-dir", dir.to_str().unwrap(), "--scale", "NaN"],
    ];
    for args in runs {
        let output = Command::new(env!("CARGO_BIN_EXE_dkc"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("dkc runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} must exit with the usage code: {stderr}"
        );
        assert!(stderr.contains("--scale must be a number in (0, 1]"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    assert!(!out.exists(), "nothing is generated on a usage error");
    std::fs::remove_dir_all(&dir).ok();
}
