//! CLI contract of the `figures` binary: malformed invocations exit 2
//! with a usage message on stderr — never a panic, never exit 0. These
//! run the real binary (`CARGO_BIN_EXE_figures`) in an empty directory
//! and stick to argument validation, so no simulation ever starts and
//! the directory stays empty; the one exception runs a one-tenant fleet
//! into a failure to show that a failed run still writes its metrics.
//! The same harness checks `inspect_policy`'s exit status as a
//! cache-validity check.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A fresh empty directory per invocation, so a stray write shows up.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "figures-cli-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_in(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn assert_usage_exit_of(bin: &str, args: &[&str], needle: &str) -> String {
    let dir = scratch_dir();
    let out = run_in(bin, &dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr must mention {needle:?}:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must not panic:\n{stderr}"
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(
        left.is_empty(),
        "{args:?} must write nothing, left {left:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    stderr
}

fn assert_usage_exit(args: &[&str], needle: &str) -> String {
    assert_usage_exit_of(env!("CARGO_BIN_EXE_figures"), args, needle)
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    assert_usage_exit(&["no-such-figure"], "unknown experiment");
    assert_usage_exit(&["no-such-figure"], "tournament");
}

#[test]
fn top_level_usage_names_every_flag_of_every_subcommand() {
    let usage = assert_usage_exit(&["no-such-figure"], "unknown experiment");
    for flag in [
        "--quick",
        "--quiet",
        "--serve <addr>",
        "--list",
        "--checkpoint <dir>",
        "--checkpoint-every <N>",
        "--stop-after <N>",
        "--resume <file>",
        "--warm-start <file>",
        "--seed <N>",
        "--cold <N>",
        "--chunk <N>",
        "--radius <D>",
        "--no-control",
        "--iterations <n>",
        "--out <path>",
        "--check <committed.json>",
        "--profile <calm|brisk|stormy>",
        "--out <dir>",
    ] {
        assert!(
            usage.contains(flag),
            "top-level usage lacks {flag}:\n{usage}"
        );
    }
}

#[test]
fn figure_list_rejects_flags_it_does_not_declare() {
    assert_usage_exit(&["table1", "--bogus"], "unknown flag --bogus");
    assert_usage_exit(&["table1", "--seed", "3"], "unknown flag --seed");
}

#[test]
fn scenario_without_operand_prints_usage() {
    assert_usage_exit(&["scenario"], "usage: figures scenario");
}

#[test]
fn bench_flags_need_values() {
    assert_usage_exit(&["bench", "--check"], "--check needs a value");
    assert_usage_exit(&["bench", "--out"], "--out needs a value");
    assert_usage_exit(&["bench", "--bogus"], "unknown flag --bogus");
}

#[test]
fn bench_check_reads_the_committed_file_before_the_suite() {
    let stderr = assert_usage_exit(
        &["bench", "--quick", "--check", "no-such-BENCH.json"],
        "no-such-BENCH.json",
    );
    assert!(
        !stderr.contains("[bench]"),
        "the suite must not run before the committed file is read:\n{stderr}"
    );
}

#[test]
fn tournament_rejects_malformed_arguments() {
    assert_usage_exit(&["tournament", "--seed"], "--seed needs a value");
    assert_usage_exit(
        &["tournament", "--seed", "abc"],
        "usage: figures tournament",
    );
    assert_usage_exit(
        &["tournament", "--profile", "impossible"],
        "calm, brisk, stormy",
    );
    assert_usage_exit(&["tournament", "0"], "positive integer");
    assert_usage_exit(&["tournament", "2", "3"], "at most one scenario-count");
    assert_usage_exit(&["tournament", "--bogus"], "unknown flag --bogus");
}

#[test]
fn a_flag_never_takes_the_next_flag_as_its_value() {
    assert_usage_exit(
        &["tournament", "1", "--out", "--quick"],
        "--out needs a value",
    );
}

#[test]
fn fleet_and_chaos_reject_garbage_operands() {
    assert_usage_exit(&["fleet", "not-a-number"], "positive integer");
    assert_usage_exit(
        &["chaos", "not-a-seed"],
        "an unsigned integer, got `not-a-seed`",
    );
    assert_usage_exit(&["profile", "--bogus"], "usage: figures profile");
}

#[test]
fn usage_errors_name_the_offending_argument() {
    assert_usage_exit(&["profile", "--bogus"], "unknown flag --bogus");
    assert_usage_exit(&["crashdrill", "--bogus"], "unknown flag --bogus");
    assert_usage_exit(
        &["chaos", "--iterations", "abc"],
        "--iterations needs an unsigned integer, got `abc`",
    );
    assert_usage_exit_of(
        env!("CARGO_BIN_EXE_inspect_trace"),
        &["--max-idle-ms", "abc", "x"],
        "--max-idle-ms needs an unsigned integer, got `abc`",
    );
}

#[test]
fn scenario_resume_reads_its_snapshot_before_anything_else() {
    let dir = scratch_dir();
    let started = Instant::now();
    let out = run_in(
        env!("CARGO_BIN_EXE_figures"),
        &dir,
        &[
            "scenario",
            "flash-crowd",
            "--quick",
            "--resume",
            "missing.ckpt",
        ],
    );
    let waited = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("missing.ckpt"), "stderr: {stderr}");
    assert!(
        waited < Duration::from_secs(5),
        "a missing snapshot took {waited:?} to report"
    );
    assert!(
        !dir.join("results/cache").exists(),
        "a resume must not train a policy library"
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_usage_exit(
        &[
            "scenario",
            "flash-crowd",
            "--resume",
            "a.ckpt",
            "--warm-start",
            "b.ckpt",
        ],
        "--warm-start only applies to a fresh run",
    );
}

#[test]
fn a_run_that_fails_still_writes_its_metrics() {
    let dir = scratch_dir();
    // A file where the checkpoint directory should be: the first
    // checkpoint write fails after one tenant has run.
    std::fs::write(dir.join("ck"), b"").expect("plant a file");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fleet", "1", "--quick", "--checkpoint", "ck"])
        .current_dir(&dir)
        .env_remove("RAC_OBS")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot checkpoint to"), "stderr: {stderr}");
    for file in ["metrics.prom", "metrics.csv"] {
        let path = dir.join("results").join(file);
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(text.contains("rac_fleet"), "{file}: {text:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inspect_policy_without_a_cache_exits_1_quietly() {
    let dir = scratch_dir();
    let out = run_in(env!("CARGO_BIN_EXE_inspect_policy"), &dir, &["--quiet"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "an empty cache must fail the check, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty() && out.stderr.is_empty(), "{out:?}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "must write nothing, left {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
