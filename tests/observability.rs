//! Live-observability integration tests.
//!
//! The plane's hard invariant is pinned here: wall-clock telemetry
//! (metrics, the self-profiler, the embedded HTTP server) feeds
//! observers only — a run with `--serve` and profiling on produces
//! byte-identical CSV, trace, and checkpoint output to a bare run, at
//! any runner thread count.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use obs::trace::{self, TraceWriter};
use rac::runner::Runner;
use rac::{
    build_policy_library_on, paper_contexts, train_initial_policy, ConfigLattice, OfflineSettings,
    PolicyLibrary, SimMeasurer, SlaReward, TrainingOptions,
};
use rac_bench::checkpoint::{run_tuners_checkpointed, CheckpointOptions, LineupOutcome};
use rac_bench::scenario::{resolve, run_tuners, scenario_table};
use rac_bench::{paper_system_spec, ONLINE_LEVELS, SLA_MS};
use simkernel::SimDuration;

/// Small deterministic policy library for the shopping @ Level-1
/// context, trained on an explicit runner so tests can vary the thread
/// count.
fn library_on(runner: &'static Runner) -> PolicyLibrary {
    let ctx = paper_contexts()[0];
    let lattice = ConfigLattice::new(ONLINE_LEVELS);
    let spec = paper_system_spec().with_mix(ctx.mix).with_level(ctx.level);
    let measurer = SimMeasurer::on_runner(
        runner,
        spec,
        SimDuration::from_secs(60),
        SimDuration::from_secs(60),
    );
    let settings = OfflineSettings {
        group_levels: 2,
        ..OfflineSettings::default()
    };
    let policy = train_initial_policy(&lattice, SlaReward::new(SLA_MS), settings, measurer)
        .expect("offline landscape fits");
    let mut lib = PolicyLibrary::new();
    lib.insert(ctx, policy);
    lib
}

/// Minimal HTTP/1.0 GET against the embedded server; returns (status,
/// body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The self-profiler's on/off switch and tree are process-global, and
/// every test here toggles them: each holds this lock for its whole run
/// so a parallel test cannot switch the profiler off mid-run.
fn profiler_lock() -> MutexGuard<'static, ()> {
    static PROFILER: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the lock leaves nothing to
    // repair: the guarded value is `()`.
    PROFILER.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rac-obs-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// The tentpole invariant: a diurnal run with the live plane fully on
/// (HTTP server answering, self-profiler recording) is byte-identical —
/// series CSV and decision trace — to a bare run, even with the policy
/// library trained at a different runner thread count (1 vs 8).
/// Endpoint liveness is checked on the same server: /metrics parses as
/// Prometheus text, /healthz reports run state, /profile serves the
/// folded dump.
#[test]
fn serve_and_profiling_leave_run_bytes_identical() {
    let _profiler = profiler_lock();
    static RUNNER_1: OnceLock<Runner> = OnceLock::new();
    static RUNNER_8: OnceLock<Runner> = OnceLock::new();
    let scn = resolve("diurnal").expect("bundled").scaled(1, 3);
    let run = |library: &PolicyLibrary| {
        let writer = Arc::new(TraceWriter::new());
        let mut csv = String::new();
        trace::with_writer(&writer, || {
            let series = run_tuners(&scn, library);
            csv = scenario_table(&scn, &series).render_csv();
        });
        (csv, writer.serialize())
    };

    // Bare run: profiler off, no server.
    obs::profile::set_enabled(false);
    let (csv_bare, trace_bare) = run(&library_on(RUNNER_1.get_or_init(|| Runner::new(1))));

    // Live run: server answering, profiler on, 8-thread library.
    let server = obs::ObsServer::start("127.0.0.1:0").expect("bind observability server");
    let addr = server.local_addr();
    obs::profile::set_enabled(true);
    let (csv_live, trace_live) = run(&library_on(RUNNER_8.get_or_init(|| Runner::new(8))));

    assert_eq!(
        csv_bare, csv_live,
        "series CSV changed under --serve + profiling"
    );
    assert_eq!(
        trace_bare, trace_live,
        "decision trace changed under --serve + profiling"
    );

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    obs::export::validate_prometheus(&metrics)
        .unwrap_or_else(|e| panic!("/metrics is not valid Prometheus text: {e}"));
    assert!(
        metrics.contains("rac_span_total_measure"),
        "live metrics must include the phase-span counters:\n{metrics}"
    );

    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    for key in ["\"state\"", "\"iteration\"", "\"breaker_open\""] {
        assert!(health.contains(key), "/healthz missing {key}: {health}");
    }

    let (status, _profile) = http_get(addr, "/profile");
    assert_eq!(status, 200);

    let (status, _) = http_get(addr, "/no-such-route");
    assert_eq!(status, 404);
}

/// Checkpoint bytes are part of the invariant too: the snapshot a
/// checkpointed run leaves on disk is identical with and without the
/// profiler, and so is the completed series.
#[test]
fn profiling_leaves_checkpoint_snapshot_bytes_identical() {
    let _profiler = profiler_lock();
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    let library = library_on(RUNNER.get_or_init(|| Runner::new(2)));
    let scn = resolve("flash-crowd").expect("bundled").scaled(1, 3);
    let run = |tag: &str, profiled: bool| {
        obs::profile::set_enabled(profiled);
        let path = scratch_path(&format!("ckpt-{tag}.bin"));
        let _ = std::fs::remove_file(&path);
        let plan = CheckpointOptions {
            path: path.clone(),
            every: 2,
            stop_after: None,
        };
        let outcome =
            run_tuners_checkpointed(&scn, &library, &plan, None).expect("checkpointed run");
        let LineupOutcome::Complete(series) = outcome else {
            panic!("run must complete (stop_after is None)");
        };
        let bytes = std::fs::read(&path).expect("snapshot written");
        let _ = std::fs::remove_file(&path);
        (scenario_table(&scn, &series).render_csv(), bytes)
    };
    let (csv_bare, snap_bare) = run("bare", false);
    let (csv_prof, snap_prof) = run("prof", true);
    assert_eq!(csv_bare, csv_prof, "series changed under profiling");
    assert_eq!(
        snap_bare, snap_prof,
        "checkpoint snapshot bytes changed under profiling"
    );
}

/// `figures profile` coverage: a profiled checkpointed run attributes
/// wall-clock to every pipeline phase — measure, the tuner with its
/// nested sweep and guardrail, and checkpoint encoding — and the folded
/// dump is flamegraph-shaped (`path<space>self_us` per line).
#[test]
fn folded_profile_covers_pipeline_phases() {
    let _profiler = profiler_lock();
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    let library = library_on(RUNNER.get_or_init(|| Runner::new(2)));
    let scn = resolve("diurnal").expect("bundled").scaled(1, 3);
    obs::profile::set_enabled(true);
    obs::profile::reset();
    let path = scratch_path("ckpt-folded.bin");
    let _ = std::fs::remove_file(&path);
    let plan = CheckpointOptions {
        path: path.clone(),
        every: 2,
        stop_after: None,
    };
    run_tuners_checkpointed(&scn, &library, &plan, None).expect("checkpointed run");
    let _ = std::fs::remove_file(&path);

    let folded = obs::profile::folded();
    assert!(!folded.is_empty(), "folded dump must not be empty");
    for line in folded.lines() {
        let (frames, value) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!frames.is_empty(), "empty frame path in {line:?}");
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("self-time not integer µs in {line:?}"));
    }
    for phase in ["measure", "tuner", "sweep", "guardrail", "checkpoint"] {
        assert!(
            folded.contains(phase),
            "folded dump must attribute the {phase} phase:\n{folded}"
        );
    }
    // The sweep and guardrail run inside the tuner, so their paths are
    // nested under it.
    assert!(
        folded.lines().any(|l| l.starts_with("tuner;")),
        "sweep/guardrail must nest under the tuner:\n{folded}"
    );
}

/// Runner work folds under the frame that submitted it: a profiled
/// two-context library trained on a 2-thread runner lists its coarse
/// samples and fits under `build_policy_library`, the paths an inline
/// (one-thread) run gives, and no worker frame at the root.
#[test]
fn runner_work_folds_under_the_submitting_frame() {
    let _profiler = profiler_lock();
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    let runner = RUNNER.get_or_init(|| Runner::new(2));
    let options = TrainingOptions {
        warmup: SimDuration::from_secs(10),
        measure: SimDuration::from_secs(20),
        settings: OfflineSettings {
            group_levels: 2,
            ..OfflineSettings::default()
        },
    };
    obs::profile::set_enabled(true);
    obs::profile::reset();
    let library = build_policy_library_on(
        runner,
        &paper_system_spec().with_clients(30),
        &paper_contexts()[..2],
        &ConfigLattice::new(3),
        SlaReward::new(SLA_MS),
        options,
    );
    obs::profile::set_enabled(false);
    assert_eq!(library.len(), 2);

    let paths: Vec<String> = obs::profile::snapshot()
        .into_iter()
        .map(|(path, _)| path)
        .collect();
    for want in [
        "build_policy_library;runner_job",
        "build_policy_library;fit_initial_policy",
    ] {
        assert!(
            paths.iter().any(|p| p == want),
            "missing {want} in {paths:?}"
        );
    }
    assert!(
        !paths
            .iter()
            .any(|p| p == "runner_job" || p == "fit_initial_policy"),
        "worker frames at the root: {paths:?}"
    );
}
