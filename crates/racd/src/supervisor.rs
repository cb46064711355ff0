//! The supervision layer: a daemon loop that drains the persistent job
//! queue, running each scenario line-up in a worker thread under a
//! heartbeat watch, and restarting crashed or hung attempts from the
//! last committed checkpoint with capped backoff.
//!
//! ## Lifecycle state machine
//!
//! ```text
//!            +--------- idle <--- queue empty ----------+
//!            v                                          |
//!   start -> running --(boundary cmds)--> paused -------+
//!            |  |  \--- complete: outputs, dequeue -----+
//!            |  +--- crash/hang: backoff, resume ckpt --+   (breaker:
//!            |           | max consecutive failures         EXIT_RESTART_STORM)
//!            +--- SIGTERM/SIGINT/`shutdown`: checkpoint at next
//!                 boundary, disarm dirty marker, EXIT_CLEAN
//! ```
//!
//! ## Crash recovery contract
//!
//! Every attempt runs the lineup through
//! [`rac_bench::checkpoint::run_tuners_checkpointed_with`], whose
//! periodic flushes are a pure function of the global iteration. A
//! relaunch (after SIGKILL, a panic, or a hang) sweeps any torn
//! `.tmp`, resumes from the committed snapshot, and replays — so the
//! final CSV/trace bytes converge to an uninterrupted run's at any
//! `RAC_THREADS`, no matter where or how often the process died. The
//! job's queue entry is removed only *after* its outputs are on disk;
//! the checkpoint is removed after that, and a kill between those
//! steps just makes the next start redo (deterministically identical)
//! work.
//!
//! A superseded worker — one the supervisor has already given up on as
//! hung — observes the bumped attempt counter at its next boundary and
//! returns [`LineupCommand::Abort`], which stops *without writing*, so
//! a zombie can never clobber the snapshot a newer attempt builds on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use rac::PolicyLibrary;
use rac_bench::checkpoint::{
    run_tuners_checkpointed_with, CheckpointOptions, LineupCommand, LineupOutcome,
};
use scenario::Scenario;

use crate::admin::{AdminCmd, AdminServer};
use crate::backoff::RestartBreaker;
use crate::config::{DaemonConfig, LibraryKind};
use crate::marker::DirtyMarker;
use crate::queue::{Job, JobQueue};
use crate::signal;

/// Clean shutdown (signal or `shutdown` command, or `--once` drain).
pub const EXIT_CLEAN: i32 = 0;
/// Bad usage / configuration.
pub const EXIT_USAGE: i32 = 2;
/// Unrecoverable state error (corrupt committed snapshot, unwritable
/// state dir).
pub const EXIT_STATE: i32 = 3;
/// The restart-storm breaker tripped: `max_restarts` consecutive
/// failed attempts without a completed job.
pub const EXIT_RESTART_STORM: i32 = 4;

/// Supervisor idle poll (queue scan, signal checks).
const IDLE_POLL: Duration = Duration::from_millis(25);
/// Worker watch poll (heartbeat sampling).
const WATCH_POLL: Duration = Duration::from_millis(50);
/// Pause loop poll inside the worker's boundary callback.
const PAUSE_POLL: Duration = Duration::from_millis(20);

/// Shared mutable state between the supervisor loop, the worker's
/// boundary callback, and the admin server.
pub struct ControlState {
    /// Hold the worker at its next iteration boundary.
    pub paused: AtomicBool,
    /// One-shot checkpoint-on-demand request.
    pub ckpt_request: AtomicBool,
    /// Graceful-shutdown request (admin `shutdown`; signals are
    /// consulted separately so a handler never touches this struct).
    pub shutdown: AtomicBool,
    /// Current attempt generation; a worker whose spawn-time value no
    /// longer matches has been superseded and must abort.
    pub attempt: AtomicU64,
    /// Total restarts performed since daemon start.
    pub restarts_total: AtomicU64,
    /// Whether this daemon instance started with the dirty marker
    /// present (the previous instance crashed).
    pub dirty_start: AtomicBool,
    /// The persistent job queue.
    pub queue: Mutex<JobQueue>,
    /// Library swapped in by `upgrade` (applies from the next job).
    pub library_override: Mutex<Option<PolicyLibrary>>,
    /// Name of the job currently executing, if any.
    pub current_job: Mutex<Option<String>>,
    /// Live configuration (tunables mutate on SIGHUP).
    pub cfg: Mutex<DaemonConfig>,
}

impl ControlState {
    /// Whether any shutdown path (signal or admin) has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::shutdown_requested()
    }

    /// The `status` reply line: stable `key=value` pairs.
    pub fn status_line(&self) -> String {
        let health = obs::health::global();
        let job = self
            .current_job
            .lock()
            .unwrap()
            .clone()
            .unwrap_or_else(|| "-".to_string());
        let state = if self.shutdown_requested() {
            "stopping"
        } else if self.current_job.lock().unwrap().is_none() {
            "idle"
        } else if self.paused.load(Ordering::Relaxed) {
            "paused"
        } else {
            "running"
        };
        let json = health.render_json();
        format!(
            "ok state={state} job={job} queue={} iter={}/{} breaker_open={} heartbeat={} \
             restarts={} dirty_start={}",
            self.queue.lock().unwrap().len(),
            json_u64(&json, "iteration"),
            json_u64(&json, "total_iterations"),
            json.contains("\"breaker_open\":true"),
            json_u64(&json, "heartbeat"),
            self.restarts_total.load(Ordering::Relaxed),
            self.dirty_start.load(Ordering::Relaxed),
        )
    }
}

/// Pulls a numeric field out of the (flat, trusted) health JSON.
fn json_u64(json: &str, key: &str) -> u64 {
    json.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// Dispatches one parsed admin command; returns the reply line.
pub fn handle_command(state: &Arc<ControlState>, cmd: AdminCmd) -> String {
    match cmd {
        AdminCmd::Status => state.status_line(),
        AdminCmd::Checkpoint => {
            state.ckpt_request.store(true, Ordering::Relaxed);
            "ok checkpoint requested".to_string()
        }
        AdminCmd::Pause => {
            state.paused.store(true, Ordering::Relaxed);
            "ok paused".to_string()
        }
        AdminCmd::Resume => {
            state.paused.store(false, Ordering::Relaxed);
            "ok resumed".to_string()
        }
        AdminCmd::Shutdown => {
            state.shutdown.store(true, Ordering::Relaxed);
            "ok shutting down".to_string()
        }
        AdminCmd::Inject(path) => inject(state, &path),
        AdminCmd::Upgrade(path) => upgrade(state, &path),
    }
}

/// `inject <file-or-bundled-name>`: validate the scenario *before* it
/// can touch the queue, then enqueue it durably.
fn inject(state: &Arc<ControlState>, operand: &str) -> String {
    let text = match scenario::bundled::by_name(operand) {
        Some(src) => src.to_string(),
        None => match std::fs::read_to_string(operand) {
            Ok(text) => text,
            Err(e) => return format!("err unreadable {operand}: {e}"),
        },
    };
    let scn = match Scenario::parse_with_warnings(&text) {
        Ok((scn, _warnings)) => scn,
        Err(e) => return format!("err scenario-invalid {operand}: {e}"),
    };
    match state.queue.lock().unwrap().push(&scn.name, &text) {
        Ok(_) => format!("ok injected {}", scn.name),
        Err(e) => format!("err queue-write {e}"),
    }
}

/// `upgrade <snapshot>`: rolling agent swap. The library of the line-up
/// checkpoint at `path` (read from its sidecar) seeds the RAC agent of
/// every *subsequent* job. The running job keeps its state, and so does
/// a resumed one, whose library is the one its own checkpoint names —
/// swaps happen at job boundaries, never mid-lineup. A checkpoint whose
/// library does not fit this build's lattice (or that names none) is
/// vetoed as `lattice-mismatch`; any other read error is
/// `snapshot-unreadable`.
fn upgrade(state: &Arc<ControlState>, path: &str) -> String {
    match rac_bench::checkpoint::warm_start_library(std::path::Path::new(path)) {
        Ok(lib) => {
            let n = lib.len();
            *state.library_override.lock().unwrap() = Some(lib);
            format!("ok upgraded {n} policies; applies from the next job")
        }
        Err(e @ ckpt::CkptError::Mismatch { .. }) => format!("err lattice-mismatch {e}"),
        Err(e) => format!("err snapshot-unreadable {path}: {e}"),
    }
}

/// What one worker attempt reported back.
enum AttemptOutcome {
    /// The lineup finished; series plus the serialized trace (when
    /// tracing).
    Complete {
        series: Vec<(&'static str, Vec<rac::IterationRecord>)>,
        trace: Option<String>,
    },
    /// Graceful stop honored at a boundary (shutdown path).
    Stopped,
    /// Superseded worker bailed without writing.
    Aborted,
    /// The attempt panicked.
    Panicked(String),
    /// Transient (I/O) checkpoint failure — restartable.
    Failed(String),
    /// Permanent state mismatch/corruption — not restartable.
    StateError(String),
}

/// How a supervised job ended, at the daemon-loop level.
enum JobEnd {
    Done,
    Shutdown,
    Storm,
    StateError(String),
}

/// Test-only fault hooks, read from the environment once per attempt.
/// They fire only while no restart has happened yet (`restarts_total`
/// is 0), so an injected first-attempt fault proves recovery instead of
/// recursing forever; `RACD_TEST_ALWAYS_PANIC` is the storm hook.
struct TestHooks {
    panic_at: Option<usize>,
    hang_at: Option<usize>,
    always_panic: bool,
}

impl TestHooks {
    fn from_env() -> TestHooks {
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse().ok());
        TestHooks {
            panic_at: get("RACD_TEST_PANIC_AT"),
            hang_at: get("RACD_TEST_HANG_AT"),
            always_panic: std::env::var("RACD_TEST_ALWAYS_PANIC").is_ok(),
        }
    }
}

/// Runs the daemon to completion. This is `main` minus argument
/// parsing; returns the process exit code.
pub fn run(config: DaemonConfig, operands: &[String]) -> i32 {
    let marker = DirtyMarker::in_dir(&config.state_dir);
    let dirty = marker.present();
    if dirty {
        eprintln!("racd: dirty marker present — previous instance crashed; will resume");
    }
    if let Err(e) = std::fs::create_dir_all(&config.results_dir) {
        eprintln!("racd: cannot create results dir: {e}");
        return EXIT_STATE;
    }
    let queue = match JobQueue::open(&config.state_dir.join("queue")) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("racd: cannot open job queue: {e}");
            return EXIT_STATE;
        }
    };

    let state = Arc::new(ControlState {
        paused: AtomicBool::new(false),
        ckpt_request: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        attempt: AtomicU64::new(0),
        restarts_total: AtomicU64::new(0),
        dirty_start: AtomicBool::new(dirty),
        queue: Mutex::new(queue),
        library_override: Mutex::new(None),
        current_job: Mutex::new(None),
        cfg: Mutex::new(config.clone()),
    });

    // Initial operands are validated and enqueued exactly like
    // `inject` over the admin socket.
    for operand in operands {
        let reply = inject(&state, operand);
        if let Some(err) = reply.strip_prefix("err ") {
            eprintln!("racd: {operand}: {err}");
            return EXIT_USAGE;
        }
    }

    signal::install();

    let _obs_server = match &config.serve_addr {
        Some(addr) => match obs::ObsServer::start(addr) {
            Ok(s) => {
                eprintln!("racd: observability on http://{}", s.local_addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("racd: cannot bind --serve {addr}: {e}");
                return EXIT_USAGE;
            }
        },
        None => None,
    };
    let admin = {
        let st = Arc::clone(&state);
        match AdminServer::start(&config.admin_addr, move |cmd| handle_command(&st, cmd)) {
            Ok(server) => server,
            Err(e) => {
                eprintln!(
                    "racd: cannot bind admin listener {}: {e}",
                    config.admin_addr
                );
                return EXIT_USAGE;
            }
        }
    };
    // Armed once the start is accepted, and before the address file
    // that scripts wait for: a start rejected earlier ran no job, so it
    // leaves the marker as it found it.
    if let Err(e) = marker.arm() {
        eprintln!("racd: cannot arm dirty marker: {e}");
        return EXIT_STATE;
    }
    // The resolved admin address lands in the state dir so scripts
    // (the drill harness, CI) can find an OS-assigned port.
    let addr_file = config.state_dir.join("admin.addr");
    if let Err(e) = std::fs::write(&addr_file, format!("{}\n", admin.local_addr())) {
        eprintln!("racd: cannot write {}: {e}", addr_file.display());
        return EXIT_STATE;
    }
    eprintln!("racd: admin on {}", admin.local_addr());

    let code = loop {
        if state.shutdown_requested() {
            break EXIT_CLEAN;
        }
        if signal::take_reload() {
            reload_config(&state);
        }
        let head = match state.queue.lock().unwrap().head() {
            Ok(head) => head,
            Err(e) => {
                eprintln!("racd: cannot scan job queue: {e}");
                break EXIT_STATE;
            }
        };
        match head {
            Some(job) => match process_job(&state, &job) {
                JobEnd::Done => {}
                JobEnd::Shutdown => break EXIT_CLEAN,
                JobEnd::Storm => break EXIT_RESTART_STORM,
                JobEnd::StateError(msg) => {
                    eprintln!("racd: {msg}");
                    break EXIT_STATE;
                }
            },
            None => {
                // `--once` means "exit once the queue is drained" — an
                // already-empty queue (e.g. a relaunch after the last
                // job finished) drains trivially.
                if state.cfg.lock().unwrap().once {
                    break EXIT_CLEAN;
                }
                std::thread::sleep(IDLE_POLL);
            }
        }
    };

    if code == EXIT_CLEAN {
        // Only a clean shutdown disarms the marker; storm and state
        // exits leave it so the next start knows to resume.
        if let Err(e) = marker.disarm() {
            eprintln!("racd: cannot disarm dirty marker: {e}");
            return EXIT_STATE;
        }
    }
    code
}

fn reload_config(state: &Arc<ControlState>) {
    let mut cfg = state.cfg.lock().unwrap();
    match cfg.apply_file() {
        Ok(changed) if changed.is_empty() => eprintln!("racd: SIGHUP: config unchanged"),
        Ok(changed) => eprintln!("racd: SIGHUP: reloaded {}", changed.join(", ")),
        Err(e) => eprintln!("racd: SIGHUP: reload failed, keeping old config: {e}"),
    }
}

/// Supervises one job to completion, shutdown, storm, or state error.
fn process_job(state: &Arc<ControlState>, job: &Job) -> JobEnd {
    let cfg = state.cfg.lock().unwrap().clone();
    let scn = match Scenario::parse(&job.text) {
        Ok(scn) => {
            if cfg.quick {
                scn.scaled(1, 3)
            } else {
                scn
            }
        }
        // Entries are validated at inject time; an unparsable one means
        // the queue file was corrupted on disk.
        Err(e) => return JobEnd::StateError(format!("queue entry {}: {e}", job.path.display())),
    };
    *state.current_job.lock().unwrap() = Some(scn.name.clone());
    let ckpt_path = cfg
        .state_dir
        .join("ckpt")
        .join(format!("{}.ckpt", scn.name));
    let mut breaker = RestartBreaker::new(cfg.max_restarts);

    let end = loop {
        if state.shutdown_requested() {
            break JobEnd::Shutdown;
        }
        // Crash hygiene before every attempt: a torn `.tmp` from a kill
        // mid-checkpoint-write must never shadow the committed file.
        if let Err(e) = ckpt::remove_stale_temp(&ckpt_path) {
            break JobEnd::StateError(e.to_string());
        }
        let resume = if ckpt_path.exists() {
            match ckpt::Snapshot::load(&ckpt_path) {
                Ok(snap) => Some(snap),
                // The committed snapshot is written atomically, so a
                // parse failure here is real corruption, not a torn
                // write — restarting cannot fix it.
                Err(e) => {
                    break JobEnd::StateError(format!(
                        "committed checkpoint {} is corrupt: {e}",
                        ckpt_path.display()
                    ))
                }
            }
        } else {
            None
        };

        let attempt_id = state.attempt.fetch_add(1, Ordering::SeqCst) + 1;
        let (tx, rx) = mpsc::channel();
        let worker = {
            let state = Arc::clone(state);
            let scn = scn.clone();
            let cfg = cfg.clone();
            let ckpt_path = ckpt_path.clone();
            std::thread::Builder::new()
                .name(format!("racd-worker-{attempt_id}"))
                .spawn(move || {
                    let outcome = run_attempt(&state, attempt_id, &scn, &cfg, &ckpt_path, resume);
                    let _ = tx.send(outcome);
                })
        };
        if let Err(e) = worker {
            break JobEnd::StateError(format!("cannot spawn worker: {e}"));
        }

        // Watch: heartbeat staleness is the hang signal. Pauses park
        // the worker at a boundary where it keeps beating, so a pause
        // is never mistaken for a hang.
        let health = obs::health::global();
        let mut last_beats = health.beats();
        let mut last_motion = Instant::now();
        let outcome = loop {
            match rx.recv_timeout(WATCH_POLL) {
                Ok(outcome) => break outcome,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if signal::take_reload() {
                        reload_config(state);
                    }
                    let beats = health.beats();
                    if beats != last_beats {
                        last_beats = beats;
                        last_motion = Instant::now();
                    }
                    let timeout = state.cfg.lock().unwrap().heartbeat_timeout;
                    if last_motion.elapsed() > timeout {
                        // Hung: supersede the attempt. The stale thread
                        // observes the bump at its next boundary (if it
                        // ever reaches one) and aborts without writing.
                        state.attempt.fetch_add(1, Ordering::SeqCst);
                        break AttemptOutcome::Panicked(format!(
                            "hung: no heartbeat for {timeout:?}"
                        ));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break AttemptOutcome::Panicked("worker vanished".to_string());
                }
            }
        };

        match outcome {
            AttemptOutcome::Complete { series, trace } => {
                if let Err(e) = write_outputs(&cfg, &scn, &series, trace.as_deref()) {
                    break JobEnd::StateError(e);
                }
                // Output first, then checkpoint removal, then dequeue:
                // a kill between any two steps leaves the job either
                // pending (rerun, deterministically identical) or done.
                if let Err(e) = ckpt::remove_stale_temp(&ckpt_path) {
                    break JobEnd::StateError(e.to_string());
                }
                if ckpt_path.exists() {
                    if let Err(e) = std::fs::remove_file(&ckpt_path) {
                        break JobEnd::StateError(format!(
                            "cannot remove finished checkpoint: {e}"
                        ));
                    }
                }
                if let Err(e) = state.queue.lock().unwrap().remove(job) {
                    break JobEnd::StateError(format!("cannot dequeue finished job: {e}"));
                }
                breaker.note_progress();
                break JobEnd::Done;
            }
            AttemptOutcome::Stopped => break JobEnd::Shutdown,
            AttemptOutcome::Aborted => {
                // A superseded worker's report; nothing to do — the
                // attempt that superseded it already drove the loop.
                continue;
            }
            AttemptOutcome::StateError(msg) => break JobEnd::StateError(msg),
            AttemptOutcome::Panicked(msg) | AttemptOutcome::Failed(msg) => {
                state.restarts_total.fetch_add(1, Ordering::Relaxed);
                let tripped = breaker.note_failure();
                eprintln!(
                    "racd: job {} attempt failed ({} consecutive): {msg}",
                    scn.name,
                    breaker.failures()
                );
                if tripped {
                    eprintln!(
                        "racd: restart storm: {} consecutive failures, giving up (exit {})",
                        breaker.failures(),
                        EXIT_RESTART_STORM
                    );
                    break JobEnd::Storm;
                }
                let delay = cfg.backoff.delay(breaker.failures());
                eprintln!("racd: backing off {delay:?} before restart");
                let wake = Instant::now() + delay;
                while Instant::now() < wake && !state.shutdown_requested() {
                    std::thread::sleep(IDLE_POLL.min(delay));
                }
            }
        }
    };
    *state.current_job.lock().unwrap() = None;
    end
}

/// One worker attempt, run on its own thread. Panics are caught and
/// reported as [`AttemptOutcome::Panicked`].
fn run_attempt(
    state: &Arc<ControlState>,
    attempt_id: u64,
    scn: &Scenario,
    cfg: &DaemonConfig,
    ckpt_path: &std::path::Path,
    resume: Option<ckpt::Snapshot>,
) -> AttemptOutcome {
    let health = obs::health::global();
    health.begin_job(&format!("racd {}", scn.name));
    let library = match state.library_override.lock().unwrap().clone() {
        Some(lib) => lib,
        None => match cfg.library {
            LibraryKind::Quick => rac_bench::daemon_quick_library(&cfg.cache_dir),
            LibraryKind::Standard => rac_bench::standard_policy_library(&cfg.cache_dir),
        },
    };
    let options = CheckpointOptions {
        path: ckpt_path.to_path_buf(),
        every: cfg.checkpoint_every,
        stop_after: None,
    };
    let hooks = TestHooks::from_env();
    let first_attempt_window = state.restarts_total.load(Ordering::Relaxed) == 0;

    let run = || -> AttemptOutcome {
        let control = |status: &rac_bench::checkpoint::LineupStatus| -> LineupCommand {
            if state.attempt.load(Ordering::SeqCst) != attempt_id {
                return LineupCommand::Abort;
            }
            // Injected faults (tests/drill only; inert without the env
            // hooks).
            if hooks.always_panic
                || (first_attempt_window && hooks.panic_at == Some(status.global_iteration))
            {
                panic!(
                    "injected test panic at iteration {}",
                    status.global_iteration
                );
            }
            if first_attempt_window && hooks.hang_at == Some(status.global_iteration) {
                // Hang without heartbeats until superseded or shut down.
                while state.attempt.load(Ordering::SeqCst) == attempt_id
                    && !state.shutdown_requested()
                {
                    std::thread::sleep(PAUSE_POLL);
                }
                return LineupCommand::Abort;
            }
            // Pause parks here, still beating so the hang watch stays
            // quiet.
            while state.paused.load(Ordering::Relaxed)
                && !state.shutdown_requested()
                && state.attempt.load(Ordering::SeqCst) == attempt_id
            {
                health.beat();
                std::thread::sleep(PAUSE_POLL);
            }
            if state.attempt.load(Ordering::SeqCst) != attempt_id {
                return LineupCommand::Abort;
            }
            if state.shutdown_requested() {
                return LineupCommand::Stop;
            }
            if state.ckpt_request.swap(false, Ordering::Relaxed) {
                return LineupCommand::Checkpoint;
            }
            LineupCommand::Continue
        };
        match run_tuners_checkpointed_with(scn, &library, &options, resume.as_ref(), control) {
            Ok(LineupOutcome::Complete(series)) => {
                let trace = obs::trace::snapshot_serialized();
                health.finish_job(true);
                AttemptOutcome::Complete { series, trace }
            }
            Ok(LineupOutcome::Interrupted { .. }) => {
                if state.attempt.load(Ordering::SeqCst) != attempt_id {
                    AttemptOutcome::Aborted
                } else {
                    AttemptOutcome::Stopped
                }
            }
            Err(ckpt::CkptError::Io { .. }) => {
                health.finish_job(false);
                AttemptOutcome::Failed("checkpoint I/O error".to_string())
            }
            Err(e) => {
                health.finish_job(false);
                AttemptOutcome::StateError(format!("checkpoint state error: {e}"))
            }
        }
    };

    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| obs::trace::capture(run).0));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            health.finish_job(false);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            AttemptOutcome::Panicked(msg)
        }
    }
}

/// Writes the finished job's artifacts exactly like `figures scenario`:
/// `scenario-<name>.csv` and (when tracing) `scenario-<name>.trace.jsonl`
/// under the results dir.
fn write_outputs(
    cfg: &DaemonConfig,
    scn: &Scenario,
    series: &[(&'static str, Vec<rac::IterationRecord>)],
    trace: Option<&str>,
) -> Result<(), String> {
    let named: Vec<(&str, Vec<rac::IterationRecord>)> =
        series.iter().map(|(n, s)| (*n, s.clone())).collect();
    let table = rac_bench::scenario::scenario_table(scn, &named);
    let csv_path = cfg.results_dir.join(format!("scenario-{}.csv", scn.name));
    table
        .write_csv(&csv_path)
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;
    if let Some(text) = trace {
        let trace_path = cfg
            .results_dir
            .join(format!("scenario-{}.trace.jsonl", scn.name));
        std::fs::write(&trace_path, text)
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_state(dir: &std::path::Path) -> Arc<ControlState> {
        Arc::new(ControlState {
            paused: AtomicBool::new(false),
            ckpt_request: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            attempt: AtomicU64::new(0),
            restarts_total: AtomicU64::new(0),
            dirty_start: AtomicBool::new(false),
            queue: Mutex::new(JobQueue::open(&dir.join("queue")).unwrap()),
            library_override: Mutex::new(None),
            current_job: Mutex::new(None),
            cfg: Mutex::new(DaemonConfig::new(dir.to_path_buf())),
        })
    }

    #[test]
    fn admin_dispatch_flags_and_status() {
        let dir = std::env::temp_dir().join(format!("racd-sup-{}", std::process::id()));
        let state = empty_state(&dir);
        assert_eq!(
            handle_command(&state, AdminCmd::Pause),
            "ok paused".to_string()
        );
        assert!(state.paused.load(Ordering::Relaxed));
        handle_command(&state, AdminCmd::Resume);
        assert!(!state.paused.load(Ordering::Relaxed));
        handle_command(&state, AdminCmd::Checkpoint);
        assert!(state.ckpt_request.load(Ordering::Relaxed));
        let status = handle_command(&state, AdminCmd::Status);
        assert!(status.starts_with("ok state=idle"), "got: {status}");
        assert!(status.contains("queue=0"));
        assert!(status.contains("dirty_start=false"));
        handle_command(&state, AdminCmd::Shutdown);
        assert!(state.shutdown.load(Ordering::Relaxed));
        assert!(handle_command(&state, AdminCmd::Status).contains("state=stopping"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inject_validates_before_enqueue() {
        let dir = std::env::temp_dir().join(format!("racd-inj-{}", std::process::id()));
        let state = empty_state(&dir);
        // A scenario that parses but would abort the process when
        // compiled is rejected before it can poison the queue.
        std::fs::create_dir_all(&dir).unwrap();
        let huge = dir.join("huge.scn");
        std::fs::write(&huge, "name huge\nduration 1000000000s\ninterval 1us\n").unwrap();
        let reply = handle_command(&state, AdminCmd::Inject(huge.display().to_string()));
        assert!(reply.starts_with("err scenario-invalid"), "got: {reply}");
        assert!(reply.contains("1000000000000000 intervals"), "got: {reply}");
        assert_eq!(state.queue.lock().unwrap().len(), 0);
        assert_eq!(std::fs::read_dir(dir.join("queue")).unwrap().count(), 0);
        // Bundled names work.
        let reply = handle_command(&state, AdminCmd::Inject("flash-crowd".into()));
        assert_eq!(reply, "ok injected flash-crowd");
        assert_eq!(state.queue.lock().unwrap().len(), 1);
        // Unreadable paths and invalid scenarios are typed errors and
        // never touch the queue.
        let reply = handle_command(&state, AdminCmd::Inject("/definitely/missing.scn".into()));
        assert!(reply.starts_with("err unreadable"), "got: {reply}");
        let bad = dir.join("bad.scn");
        std::fs::write(&bad, "duration what\n").unwrap();
        let reply = handle_command(&state, AdminCmd::Inject(bad.display().to_string()));
        assert!(reply.starts_with("err scenario-invalid"), "got: {reply}");
        assert_eq!(state.queue.lock().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn upgrade_vetoes_lattice_mismatch() {
        let dir = std::env::temp_dir().join(format!("racd-upg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let state = empty_state(&dir);
        // A line-up checkpoint, whose library lives in a sidecar beside
        // it.
        let scn = Scenario::parse(
            "name upg\nduration 120s\ninterval 60s\nwarmup 60s\nclients 60\nseed 1\n",
        )
        .unwrap();
        let lib = rac_bench::daemon_quick_library(&dir.join("cache"));
        let options = CheckpointOptions {
            path: dir.join("run.ckpt"),
            every: 1,
            stop_after: Some(1),
        };
        rac_bench::checkpoint::run_tuners_checkpointed(&scn, &lib, &options, None).unwrap();
        let reply = handle_command(
            &state,
            AdminCmd::Upgrade(options.path.display().to_string()),
        );
        assert!(reply.starts_with("ok upgraded 1"), "got: {reply}");
        assert_eq!(state.library_override.lock().unwrap().as_ref(), Some(&lib));

        // A sidecar holding a library at the WRONG lattice (3 levels
        // instead of the standard 4, as a build with other lattice
        // settings would leave) must be vetoed.
        *state.library_override.lock().unwrap() = None;
        let wrong = rac_bench::quick_policy_library(&[rac::paper_contexts()[0]]);
        let mut w = ckpt::SnapshotWriter::new();
        rac::library_to_snapshot(&mut w, &wrong);
        let sidecar = rac_bench::checkpoint::library_sidecar(&options.path).unwrap();
        w.write_atomic(&sidecar).unwrap();
        let reply = handle_command(
            &state,
            AdminCmd::Upgrade(options.path.display().to_string()),
        );
        assert!(reply.starts_with("err lattice-mismatch"), "got: {reply}");
        assert!(state.library_override.lock().unwrap().is_none());

        // A path that is not a line-up checkpoint is unreadable.
        let reply = handle_command(&state, AdminCmd::Upgrade(sidecar.display().to_string()));
        assert!(reply.starts_with("err snapshot-unreadable"), "got: {reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
