//! End-to-end daemon lifecycle, in-process: a `--once` run drains the
//! queue, writes the scenario artifacts, cleans up its checkpoint and
//! queue entry, and disarms the dirty marker — and a second daemon
//! instance over the same scenario produces byte-identical CSV output.
//! A start rejected for its operands or addresses leaves the marker and
//! the queue as it found them.
//!
//! The runs that drain a queue are kept to a single test function: the
//! daemon shares process-global state (the health cell, signal flags),
//! so their phases run sequentially. A rejected start stops before any
//! of that state but the (idempotent) signal handlers.

use std::path::Path;

use racd::{DaemonConfig, DirtyMarker, EXIT_CLEAN, EXIT_USAGE};

const SCN: &str = "name tiny\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 5\n\
                   at 60s intensity 1.4\nfault at 200s drop\n";

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("racd-life-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The jobs queued under `state`: its queue's `.scn` files, none when
/// there is no queue directory.
fn queued(state: &Path) -> usize {
    std::fs::read_dir(state.join("queue")).map_or(0, |dir| {
        dir.filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "scn"))
            .count()
    })
}

fn daemon_config(state: &Path, cache: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(state.to_path_buf());
    // Every run in this file shares one policy cache so only the first
    // pays the (deterministic) training cost.
    cfg.cache_dir = cache.to_path_buf();
    cfg.checkpoint_every = 2;
    cfg.once = true;
    cfg
}

#[test]
fn once_run_drains_queue_and_is_deterministic() {
    let root = fresh_dir("root");
    let cache = root.join("cache");
    let scn_path = root.join("tiny.scn");
    std::fs::write(&scn_path, SCN).unwrap();

    // First daemon instance: drain the one-job queue.
    let state_a = root.join("a");
    let code = racd::run(
        daemon_config(&state_a, &cache),
        &[scn_path.display().to_string()],
    );
    assert_eq!(code, EXIT_CLEAN);
    let csv_a = state_a.join("results/scenario-tiny.csv");
    assert!(csv_a.exists(), "finished job must write its CSV");
    assert!(
        !state_a.join("ckpt/tiny.ckpt").exists(),
        "finished job must remove its checkpoint"
    );
    assert_eq!(
        std::fs::read_dir(state_a.join("queue"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "scn"))
            .count(),
        0,
        "finished job must be dequeued"
    );
    assert!(
        !DirtyMarker::in_dir(&state_a).present(),
        "clean exit must disarm the dirty marker"
    );
    assert!(
        state_a.join("admin.addr").exists(),
        "resolved admin address must land in the state dir"
    );

    // Second instance, fresh state, same scenario: byte-identical CSV.
    let state_b = root.join("b");
    let code = racd::run(
        daemon_config(&state_b, &cache),
        &[scn_path.display().to_string()],
    );
    assert_eq!(code, EXIT_CLEAN);
    let a = std::fs::read(&csv_a).unwrap();
    let b = std::fs::read(state_b.join("results/scenario-tiny.csv")).unwrap();
    assert_eq!(
        a, b,
        "two daemon runs of the same scenario must match byte-for-byte"
    );

    // Third instance: a pre-armed marker is detected as a dirty start
    // (the daemon resumes anyway) and still exits clean.
    let state_c = root.join("c");
    DirtyMarker::in_dir(&state_c).arm().unwrap();
    let code = racd::run(
        daemon_config(&state_c, &cache),
        &[scn_path.display().to_string()],
    );
    assert_eq!(code, EXIT_CLEAN);
    assert!(!DirtyMarker::in_dir(&state_c).present());
    let c = std::fs::read(state_c.join("results/scenario-tiny.csv")).unwrap();
    assert_eq!(a, c, "a dirty start must not perturb the output bytes");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rejected_start_leaves_the_dirty_marker_as_it_found_it() {
    let root = fresh_dir("reject");
    let cache = root.join("cache");
    let huge = root.join("huge.scn");
    std::fs::write(&huge, "name huge\nduration 1000000000s\ninterval 1us\n").unwrap();
    // A port this test holds, so binding it again fails.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = taken.local_addr().unwrap().to_string();
    for was_dirty in [false, true] {
        let state = root.join(format!("state-{was_dirty}"));
        let marker = DirtyMarker::in_dir(&state);
        if was_dirty {
            marker.arm().unwrap();
        }
        let cfg = daemon_config(&state, &cache);
        let mut serve = cfg.clone();
        serve.serve_addr = Some(taken.clone());
        let mut admin = cfg.clone();
        admin.admin_addr = taken.clone();
        // Each start names a valid scenario too, which must not be
        // queued when the start is refused.
        let valid = "flash-crowd".to_string();
        let starts = [
            (
                "an invalid operand",
                cfg,
                vec![valid.clone(), huge.display().to_string()],
            ),
            ("a busy --serve address", serve, vec![valid.clone()]),
            ("a busy admin address", admin, vec![valid.clone()]),
        ];
        for (why, cfg, operands) in starts {
            assert_eq!(racd::run(cfg, &operands), EXIT_USAGE, "{why}");
            assert_eq!(
                marker.present(),
                was_dirty,
                "a start rejected for {why} changed a marker that was {}",
                if was_dirty { "present" } else { "absent" }
            );
            assert_eq!(queued(&state), 0, "a start rejected for {why} queued a job");
        }
        assert!(!cache.exists(), "a rejected start trained nothing");
    }
    let _ = std::fs::remove_dir_all(&root);
}
