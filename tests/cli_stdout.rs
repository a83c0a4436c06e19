//! The `scenario` binary when its stdout reader has gone, as in
//! `scenario list | true`: every command that prints exits 1 with one
//! line on stderr, and none panics.
//!
//! The reading end of the pipe is closed before the binary starts, so its
//! first write fails whatever the timing.

use std::process::{Command, Output, Stdio};

/// Runs the binary with `args` and a stdout pipe nobody reads.
fn into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("the binary starts")
}

fn assert_exit_1_without_a_panic(args: &[&str]) {
    let out = into_closed_pipe(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.contains("error: cannot write stdout"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn list_into_a_closed_pipe_is_exit_1() {
    assert_exit_1_without_a_panic(&["list"]);
}

#[test]
fn run_and_trace_into_a_closed_pipe_are_exit_1() {
    let dir = std::env::temp_dir().join(format!("ga-cli-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    let events = events.to_str().unwrap();
    // The summary fails to print; the events file is still written first.
    assert_exit_1_without_a_panic(&[
        "run", "--suite", "smoke", "--seeds", "1", "--table", "rounds", "--events", events,
    ]);
    assert_exit_1_without_a_panic(&["trace", events]);
    std::fs::remove_dir_all(&dir).unwrap();
}
