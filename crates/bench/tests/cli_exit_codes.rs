//! Exit codes of the experiment binaries' shared telemetry flags: a usage
//! error (a flag missing its value, a non-numeric `--threads`) exits 2 with
//! the problem and the usage line on stderr, never a panic; a clean run
//! exits 0.

use std::process::{Command, Output};

/// Runs `bin` with `args` in a fresh scratch directory and reports whether
/// it wrote `results/table2_rtt.json` there (the binaries write `results/`
/// relative to the working directory).
fn run(bin: &str, args: &[&str]) -> (Output, bool) {
    let tag = format!("marnet_bench_cli_{}_{}", std::process::id(), args.join("_"));
    let dir = std::env::temp_dir().join(tag);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(bin).args(args).current_dir(&dir).output().expect("spawn binary");
    let wrote = dir.join("results/table2_rtt.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    (out, wrote)
}

#[test]
fn hostile_telemetry_flags_exit_2() {
    for bin in [env!("CARGO_BIN_EXE_table2_rtt"), env!("CARGO_BIN_EXE_sweep_recovery")] {
        for (args, problem) in [
            (&["--threads", "x"][..], "--threads value must be a number"),
            (&["--threads"][..], "--threads requires a count"),
            (&["--trace"][..], "--trace requires a file path"),
        ] {
            let (out, _) = run(bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
            assert!(stderr.contains(problem), "{args:?}: stderr must name the problem: {stderr}");
            assert!(stderr.contains("usage:"), "{args:?}: stderr must print usage: {stderr}");
        }
    }
}

#[test]
fn clean_run_exits_0_and_writes_its_artifact() {
    let (out, wrote) = run(env!("CARGO_BIN_EXE_table2_rtt"), &["--threads", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(wrote, "table2_rtt must write results/table2_rtt.json");
}
