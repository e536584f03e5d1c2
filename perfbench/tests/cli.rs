//! The command line: usage errors exit 2 without a result; a run prints
//! its JSON result as the last line.

use std::process::Command;

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("run perfbench")
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "cell-1k", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "cell-1k", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "cell-1k", "--seed", "1"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result on a usage error");
    }
}

#[test]
fn a_short_run_prints_every_end_to_end_metric() {
    let out = perfbench(&[
        "--workload",
        "recovery-long",
        "--seed",
        "11",
        "--seconds",
        "0.01",
        "--trace",
        "0",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    for name in [
        "events_per_s",
        "trials_per_s",
        "recorded_events_per_s",
        "allocs_per_event",
        "allocs_per_trial",
        "peak_heap_mb",
        "setup_s",
    ] {
        assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing: {last}");
    }
}
