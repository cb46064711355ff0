//! Crash-safe checkpoint/restore integration tests.
//!
//! The headline guarantee pinned here: a scenario line-up run killed at
//! a checkpoint boundary and resumed **in a fresh process** (modeled by
//! a fresh trace writer and freshly constructed tuners restored purely
//! from the snapshot file) produces byte-identical CSV and trace output
//! to a run that was never interrupted — at boundaries both on and off
//! the flush schedule. Alongside it: on-disk corruption of every kind
//! must surface as a typed [`ckpt::CkptError`], never a panic or a
//! silently wrong agent, and a finished run's checkpoint must be able
//! to warm-start the next run's policy library. The library lives in a
//! sidecar beside the checkpoint: snapshots name it by fingerprint, so
//! their size does not grow with it, and a resume reads it from there.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use ckpt::{CkptError, Snapshot, SnapshotWriter};
use obs::trace::{self, TraceWriter};
use rac::runner::Runner;
use rac::{
    paper_contexts, train_initial_policy, ConfigLattice, OfflineSettings, PolicyLibrary, RacAgent,
    SimMeasurer, SlaReward, Tuner,
};
use rac_bench::checkpoint::{
    library_sidecar, run_tuners_checkpointed, run_tuners_checkpointed_with, warm_start_library,
    CheckpointOptions, LineupCommand, LineupOutcome,
};
use rac_bench::scenario::{run_tuners, scenario_table};
use rac_bench::{paper_system_spec, standard_settings, ONLINE_LEVELS, SLA_MS};
use scenario::Scenario;
use simkernel::SimDuration;
use websim::PerfSample;

/// A small deterministic policy library at the standard lattice
/// resolution (checkpoint restore validates Q-table dimensions, so the
/// lattice must match `ONLINE_LEVELS`). Trained once per process.
fn shared_library() -> &'static PolicyLibrary {
    static LIBRARY: OnceLock<PolicyLibrary> = OnceLock::new();
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    LIBRARY.get_or_init(|| {
        let ctx = paper_contexts()[0];
        let lattice = ConfigLattice::new(ONLINE_LEVELS);
        let spec = paper_system_spec()
            .with_clients(60)
            .with_mix(ctx.mix)
            .with_level(ctx.level);
        let measurer = SimMeasurer::on_runner(
            RUNNER.get_or_init(|| Runner::new(4)),
            spec,
            SimDuration::from_secs(60),
            SimDuration::from_secs(60),
        );
        let settings = OfflineSettings { group_levels: 2 };
        let policy = train_initial_policy(&lattice, SlaReward::new(SLA_MS), settings, measurer)
            .expect("offline landscape fits");
        let mut lib = PolicyLibrary::new();
        lib.insert(ctx, policy);
        lib
    })
}

/// [`shared_library`] with its policy also filed under a second
/// context: twice the library bytes, no extra training.
fn two_context_library() -> PolicyLibrary {
    let mut lib = shared_library().clone();
    let policy = lib.iter().next().expect("one policy").1.clone();
    lib.insert(paper_contexts()[1], policy);
    lib
}

/// A short inline scenario: 6 intervals per tuner (18 line-up
/// iterations), with a workload shift and both measurement faults.
fn tiny_scenario() -> Scenario {
    Scenario::parse(
        "name ckpt-mini\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 11\n\
         at 60s intensity 1.5\nfault at 150s outlier 3\nfault at 210s drop\n",
    )
    .expect("inline scenario parses")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rac-ckpt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An agent mid-run, with learned state worth checkpointing: a few
/// intervals of plausible (and one SLA-violating) measurements.
fn warmed_agent() -> RacAgent {
    let mut agent = RacAgent::with_policy_library(standard_settings(), shared_library().clone());
    for response in [400.0, 700.0, 1500.0, 900.0, 600.0] {
        let _ = agent.next_config(&PerfSample {
            mean_response_ms: response,
            p95_response_ms: response * 1.8,
            throughput_rps: 150.0,
            completed: 9000,
            refused: 0,
        });
    }
    agent
}

#[test]
fn written_checkpoint_reloads_byte_identically() {
    let agent = warmed_agent();
    let mut snap = SnapshotWriter::new();
    agent.save_state(&mut snap);
    let original = snap.to_bytes();

    let dir = temp_dir("roundtrip");
    let path = dir.join("agent.ckpt");
    snap.write_atomic(&path).expect("atomic write");
    let restored = RacAgent::restore(
        &Snapshot::load(&path).expect("load"),
        Some(shared_library().clone()),
    )
    .expect("restore");

    // The restored agent must re-encode to the exact same bytes (full
    // state equality, including NaN-holding fields that `==` can't see)
    // and keep making the exact same decisions.
    let mut again = SnapshotWriter::new();
    restored.save_state(&mut again);
    assert_eq!(
        again.to_bytes(),
        original,
        "restore → save must be a byte-level fixed point"
    );

    let mut a = warmed_agent();
    let mut b = restored;
    for response in [800.0, 1200.0, 500.0, 650.0] {
        let sample = PerfSample {
            mean_response_ms: response,
            p95_response_ms: response * 1.8,
            throughput_rps: 150.0,
            completed: 9000,
            refused: 0,
        };
        assert_eq!(
            a.next_config(&sample),
            b.next_config(&sample),
            "restored agent diverged at response {response}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_files_yield_typed_errors() {
    let mut snap = SnapshotWriter::new();
    warmed_agent().save_state(&mut snap);
    let dir = temp_dir("corrupt");
    let path = dir.join("agent.ckpt");
    snap.write_atomic(&path).expect("atomic write");
    let clean = std::fs::read(&path).expect("read back");

    // Truncation at the header, mid-section-table, and mid-payload.
    for cut in [0, 7, 15, clean.len() / 3, clean.len() - 1] {
        std::fs::write(&path, &clean[..cut]).unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        assert!(
            matches!(err, CkptError::Truncated { .. }),
            "truncation to {cut} bytes gave {err:?}"
        );
    }

    // A single flipped bit deep in a payload trips that section's CRC.
    let mut flipped = clean.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let err = Snapshot::load(&path).unwrap_err();
    assert!(
        matches!(
            err,
            CkptError::CrcMismatch { .. } | CkptError::Truncated { .. } | CkptError::Corrupt { .. }
        ),
        "bit flip at byte {mid} gave {err:?}"
    );

    // A flip inside the first section's payload specifically is a CRC
    // mismatch (the section table for `rac.settings` ends well before
    // byte 64 and its payload is longer than 8 bytes).
    let mut payload_flip = clean.clone();
    let offset = 16 + 2 + "rac.settings".len() + 8 + 4;
    payload_flip[offset] ^= 0x01;
    std::fs::write(&path, &payload_flip).unwrap();
    assert!(matches!(
        Snapshot::load(&path).unwrap_err(),
        CkptError::CrcMismatch { section } if section == "rac.settings"
    ));

    // A future format version is refused up front.
    let mut stale = clean.clone();
    stale[8] = stale[8].wrapping_add(1);
    std::fs::write(&path, &stale).unwrap();
    assert!(matches!(
        Snapshot::load(&path).unwrap_err(),
        CkptError::UnsupportedVersion { .. }
    ));

    // A non-checkpoint file is not even parsed past the magic.
    let mut not_ours = clean;
    not_ours[0] = b'X';
    std::fs::write(&path, &not_ours).unwrap();
    assert!(matches!(
        Snapshot::load(&path).unwrap_err(),
        CkptError::BadMagic
    ));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The little-endian `u64` at byte `at` of `bytes`.
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Rewrites one little-endian `u64` inside section `name` of a raw
/// snapshot and recomputes that section's CRC, as a crafted file would.
/// `offset` maps the section's payload to the position to rewrite.
fn rewrite_u64(bytes: &mut [u8], name: &str, offset: fn(&[u8]) -> usize, value: u64) {
    let mut at = 16;
    loop {
        let name_len = u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize;
        let this = &bytes[at + 2..at + 2 + name_len];
        let len_at = at + 2 + name_len;
        let payload_len = u64_at(bytes, len_at) as usize;
        let payload_at = len_at + 12;
        if this == name.as_bytes() {
            let payload = &mut bytes[payload_at..payload_at + payload_len];
            let pos = offset(payload);
            payload[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
            let crc = ckpt::crc32(payload);
            bytes[len_at + 8..payload_at].copy_from_slice(&crc.to_le_bytes());
            return;
        }
        at = payload_at + payload_len;
    }
}

// Where the entry counts sit. `rac.state` holds five words, the
// predicted map (a length and one word per state), then the measured
// count and its 16-byte entries, then the recent count. `rac.guard`
// ends with the veto count and its 24-byte vetoes.
fn measured_count_at(state: &[u8]) -> usize {
    48 + 8 * u64_at(state, 40) as usize
}

fn recent_count_at(state: &[u8]) -> usize {
    let at = measured_count_at(state);
    at + 8 + 16 * u64_at(state, at) as usize
}

fn veto_count_at(guard: &[u8]) -> usize {
    (0..)
        .map(|n| guard.len() - 8 - 24 * n)
        .find(|&at| u64_at(guard, at) as usize == (guard.len() - 8 - at) / 24)
        .expect("a veto count")
}

/// Entry counts are read from the payload, and restore allocates for
/// them; a CRC-valid file that claims 2⁴⁰ entries must fail with a
/// typed error, not abort the process on the allocation.
#[test]
fn crafted_entry_counts_are_rejected_before_allocating() {
    let scn = rac_bench::scenario::resolve("flash-crowd")
        .expect("bundled scenario")
        .scaled(1, 3);
    let dir = temp_dir("crafted-count");
    let options = CheckpointOptions {
        path: dir.join("scenario-flash-crowd.ckpt"),
        every: 5,
        stop_after: Some(10),
    };
    let outcome = run_tuners_checkpointed(&scn, shared_library(), &options, None).expect("runs");
    assert!(matches!(outcome, LineupOutcome::Interrupted { .. }));
    let clean = std::fs::read(&options.path).expect("snapshot written");
    for (section, offset) in [
        ("rac.state", measured_count_at as fn(&[u8]) -> usize),
        ("rac.state", recent_count_at),
        ("rac.guard", veto_count_at),
    ] {
        let mut bytes = clean.clone();
        rewrite_u64(&mut bytes, section, offset, 1 << 40);
        let snap = Snapshot::from_bytes(&bytes).expect("the CRC was recomputed");
        let err = run_tuners_checkpointed(&scn, shared_library(), &options, Some(&snap))
            .map(|_| ())
            .expect_err("a crafted count must not restore");
        assert!(
            matches!(err, CkptError::Truncated { .. } | CkptError::Corrupt { .. }),
            "{section}: {err:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the checkpointed line-up inside its own trace writer (a fresh
/// "process"), returning the rendered CSV (empty if interrupted) and
/// the serialized trace.
fn traced_lineup(
    scn: &Scenario,
    options: &CheckpointOptions,
    resume: Option<&Snapshot>,
) -> (String, String) {
    let writer = Arc::new(TraceWriter::new());
    let csv = trace::with_writer(&writer, || {
        match run_tuners_checkpointed(scn, shared_library(), options, resume).expect("lineup runs")
        {
            LineupOutcome::Complete(series) => scenario_table(scn, &series).render_csv(),
            LineupOutcome::Interrupted { .. } => String::new(),
        }
    });
    (csv, writer.serialize())
}

#[test]
fn killed_and_resumed_run_is_byte_identical_to_uninterrupted() {
    let scn = tiny_scenario();
    let dir = temp_dir("resume");

    let reference = CheckpointOptions {
        path: dir.join("reference.ckpt"),
        every: 4,
        stop_after: None,
    };
    let (full_csv, full_trace) = traced_lineup(&scn, &reference, None);
    assert!(!full_csv.is_empty());
    assert!(
        full_trace.contains("\"kind\":\"checkpoint\""),
        "flush boundaries must be trace events: {full_trace}"
    );

    // Kill points: on the flush schedule (8), off it (7, pending-flush
    // write), and exactly at a tuner handover (6 = first tuner's last
    // iteration).
    for stop_after in [8usize, 7, 6] {
        let path = dir.join(format!("kill-{stop_after}.ckpt"));
        let interrupted = CheckpointOptions {
            path: path.clone(),
            every: 4,
            stop_after: Some(stop_after),
        };
        let (no_csv, _) = traced_lineup(&scn, &interrupted, None);
        assert!(no_csv.is_empty(), "stopped run must not claim completion");

        let snap = Snapshot::load(&path).expect("checkpoint file exists at the kill point");
        let resumed_opts = CheckpointOptions {
            path,
            every: 4,
            stop_after: None,
        };
        let (csv, trace_out) = traced_lineup(&scn, &resumed_opts, Some(&snap));
        assert_eq!(
            csv, full_csv,
            "CSV after kill at {stop_after} differs from the uninterrupted run"
        );
        assert_eq!(
            trace_out, full_trace,
            "trace after kill at {stop_after} differs from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finished_run_checkpoint_warm_starts_the_library() {
    let scn = tiny_scenario();
    let dir = temp_dir("warmstart");
    let path = dir.join("done.ckpt");
    let options = CheckpointOptions {
        path: path.clone(),
        every: 5,
        stop_after: None,
    };
    let outcome =
        run_tuners_checkpointed(&scn, shared_library(), &options, None).expect("lineup runs");
    assert!(matches!(outcome, LineupOutcome::Complete(_)));

    let lib = warm_start_library(&path).expect("final checkpoint names its persisted library");
    assert_eq!(
        &lib,
        shared_library(),
        "warm-started library must equal the one the run used"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_wrong_fingerprint_is_rejected() {
    let scn = tiny_scenario();
    let dir = temp_dir("fingerprint");
    let path = dir.join("run.ckpt");
    let options = CheckpointOptions {
        path: path.clone(),
        every: 2,
        stop_after: Some(2),
    };
    run_tuners_checkpointed(&scn, shared_library(), &options, None).expect("stops cleanly");
    let snap = Snapshot::load(&path).expect("load");

    // Same text except for the seed: different scenario fingerprint.
    let other = Scenario::parse(
        "name ckpt-mini\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 12\n\
         at 60s intensity 1.5\nfault at 150s outlier 3\nfault at 210s drop\n",
    )
    .unwrap();
    let err = run_tuners_checkpointed(&other, shared_library(), &options, Some(&snap)).unwrap_err();
    assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The line-up position a line-up snapshot was taken at.
fn snapshot_position(snap: &Snapshot) -> (usize, usize) {
    let mut r = snap.section("lineup.meta").expect("meta section");
    let _spec = r.get_u64().unwrap();
    let _scenario = r.get_u64().unwrap();
    let tuner = r.get_usize().unwrap();
    let mut r = snap.section("lineup.progress").expect("progress section");
    let progress = rac::ScenarioProgress::decode(&mut r).expect("progress decodes");
    (tuner, progress.iterations_done)
}

#[test]
fn panic_between_writes_resumes_from_the_last_written_snapshot() {
    let scn = tiny_scenario();
    let dir = temp_dir("panic");
    let options = CheckpointOptions {
        path: dir.join("run.ckpt"),
        every: 4,
        stop_after: None,
    };
    let died = std::panic::catch_unwind(|| {
        run_tuners_checkpointed_with(&scn, shared_library(), &options, None, |s| {
            assert!(s.global_iteration != 7, "process dies at boundary 7");
            LineupCommand::Continue
        })
    });
    assert!(died.is_err(), "the control callback must have panicked");

    // Nothing is encoded between writes: the file on disk is the
    // boundary-4 snapshot, and resuming it reproduces the plain run.
    let snap = Snapshot::load(&options.path).expect("boundary-4 snapshot on disk");
    assert_eq!(snapshot_position(&snap), (0, 4));
    let resumed = match run_tuners_checkpointed(&scn, shared_library(), &options, Some(&snap))
        .expect("resume runs")
    {
        LineupOutcome::Complete(series) => series,
        LineupOutcome::Interrupted { .. } => panic!("resume should finish"),
    };
    assert_eq!(resumed, run_tuners(&scn, shared_library()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_size_does_not_grow_with_the_library() {
    let scn = tiny_scenario();
    let dir = temp_dir("size");
    let two = two_context_library();
    let mut sizes = Vec::new();
    for (tag, lib) in [("one", shared_library()), ("two", &two)] {
        // Stopped inside the trial-and-error session.
        let options = CheckpointOptions {
            path: dir.join(tag).join("run.ckpt"),
            every: 4,
            stop_after: Some(9),
        };
        run_tuners_checkpointed(&scn, lib, &options, None).expect("stops cleanly");
        let snap = Snapshot::load(&options.path).expect("checkpoint");
        assert_eq!(snapshot_position(&snap), (1, 3));
        assert!(
            !snap.has_section("rac.library"),
            "library left the snapshot"
        );
        let sidecar = library_sidecar(&options.path).expect("sidecar named");
        let len = |p: &std::path::Path| std::fs::metadata(p).expect("file exists").len();
        sizes.push((len(&options.path), len(&sidecar)));
    }
    assert_eq!(sizes[0].0, sizes[1].0, "snapshot sizes: {sizes:?}");
    assert!(sizes[0].1 < sizes[1].1, "sidecar sizes: {sizes:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_reads_the_library_its_snapshot_names() {
    let scn = tiny_scenario();
    let dir = temp_dir("sidecar");
    let options = CheckpointOptions {
        path: dir.join("run.ckpt"),
        every: 2,
        stop_after: Some(2),
    };
    run_tuners_checkpointed(&scn, shared_library(), &options, None).expect("stops cleanly");
    let snap = Snapshot::load(&options.path).expect("load");
    assert_eq!(snapshot_position(&snap), (0, 2), "RAC is the active tuner");
    let sidecar = library_sidecar(&options.path).expect("sidecar named");
    let stored = std::fs::read(&sidecar).expect("sidecar written");
    let resume = || {
        run_tuners_checkpointed(&scn, shared_library(), &options, Some(&snap))
            .expect_err("resume must fail")
    };

    std::fs::remove_file(&sidecar).unwrap();
    let err = resume();
    assert!(matches!(err, CkptError::Io { .. }), "{err}");

    let mut flipped = stored.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&sidecar, &flipped).unwrap();
    let err = resume();
    assert!(matches!(err, CkptError::CrcMismatch { .. }), "{err}");

    for other in [Some(two_context_library()), None] {
        let err = RacAgent::restore(&snap, other).expect_err("wrong library");
        assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
    }

    // With its sidecar back, the resume ignores the caller's library:
    // handed another one, it still finishes the run it interrupted and
    // keeps naming the same sidecar.
    std::fs::write(&sidecar, &stored).unwrap();
    let to_the_end = CheckpointOptions {
        stop_after: None,
        ..options.clone()
    };
    let resumed =
        match run_tuners_checkpointed(&scn, &two_context_library(), &to_the_end, Some(&snap))
            .expect("resume runs")
        {
            LineupOutcome::Complete(series) => series,
            LineupOutcome::Interrupted { .. } => panic!("resume should finish"),
        };
    assert_eq!(resumed, run_tuners(&scn, shared_library()));
    assert_eq!(
        library_sidecar(&options.path).expect("still named"),
        sidecar
    );
    let _ = std::fs::remove_dir_all(&dir);
}
