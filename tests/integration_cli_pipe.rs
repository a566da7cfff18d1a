//! Process-level CLI behaviour. A reader that closes the CLI's stdout
//! early (`dkc solve … | head -1`) must end the process cleanly: exit 0
//! and no panic message, for every subcommand whose output can outgrow the
//! pipe buffer. `dkc serve` must refuse a sharded deployment's state dir
//! instead of starting a fresh state next to it.

use std::fmt::Write as _;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Linux's default pipe buffer; output beyond it blocks until read.
const PIPE_BUFFER: usize = 64 * 1024;

/// 20,000 disjoint triangles: every solution and partition lists each of
/// them on its own line, far more than one pipe buffer.
fn triangles_file() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc_cli_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("triangles.txt");
    let mut text = String::new();
    for t in 0..20_000u64 {
        let (a, b, c) = (3 * t + 1, 3 * t + 2, 3 * t + 3);
        writeln!(text, "{a} {b}\n{b} {c}\n{a} {c}").unwrap();
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn dkc(args: &[&str], path: &PathBuf) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dkc"));
    cmd.arg(args[0]).arg(path).args(&args[1..]).env("DKC_THREADS", "1");
    cmd
}

#[test]
fn closing_stdout_early_exits_zero_without_a_panic() {
    let path = triangles_file();
    for args in
        [&["solve", "--k", "3"][..], &["solve", "--k", "3", "--json"], &["partition", "--k", "3"]]
    {
        // The full output really is larger than the pipe buffer.
        let full = dkc(args, &path).stderr(Stdio::null()).output().unwrap();
        assert!(full.status.success(), "{args:?}: {:?}", full.status);
        assert!(full.stdout.len() > PIPE_BUFFER, "{args:?}: only {} bytes", full.stdout.len());

        // Read one line's worth, then close the read end like `head -1`.
        let mut child =
            dkc(args, &path).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
        let mut stdout = child.stdout.take().unwrap();
        let mut first = [0u8; 8];
        stdout.read_exact(&mut first).unwrap();
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn serve_refuses_a_sharded_state_dir() {
    let dir = std::env::temp_dir().join(format!("dkc_cli_sharded_state_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let state = dir.join("state");
    std::fs::create_dir_all(state.join("shard0")).unwrap();
    std::fs::create_dir_all(state.join("shard1")).unwrap();
    std::fs::write(state.join("plan.json"), "{\"version\":1,\"shards\":2}\n").unwrap();
    let graph = dir.join("triangle.txt");
    std::fs::write(&graph, "1 2\n2 3\n1 3\n").unwrap();

    let mut child = dkc(&["serve", "--k", "3", "--port", "0", "--state-dir"], &graph)
        .arg(&state)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A server that starts anyway never exits on its own: stop it and fail.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("dkc serve started on a sharded state dir instead of exiting");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("plan.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // Nothing was created next to the shard state.
    let mut entries: Vec<String> = std::fs::read_dir(&state)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(entries, ["plan.json", "shard0", "shard1"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
