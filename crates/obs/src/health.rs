//! Live run-state cell backing the `/healthz` endpoint.
//!
//! A single process-global [`Health`] value holds the coarse state of
//! the current run: which job is executing, how far along it is, and
//! whether the measurement channel's breaker is open / the agent is
//! degraded. Harnesses update it with plain atomic stores — no locks on
//! the hot path beyond the rarely-written job name — and the embedded
//! server ([`crate::serve`]) renders it as a small JSON document.
//!
//! Like spans and metrics, health state is observational only: nothing
//! here feeds the decision trace, so updating it cannot perturb
//! determinism guarantees.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Coarse lifecycle state of the process's current job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// No job has started yet.
    Idle,
    /// A job is executing.
    Running,
    /// The last job completed successfully.
    Done,
    /// The last job exited on an error.
    Failed,
}

impl RunState {
    fn as_str(self) -> &'static str {
        match self {
            RunState::Idle => "idle",
            RunState::Running => "running",
            RunState::Done => "done",
            RunState::Failed => "failed",
        }
    }

    fn from_u8(v: u8) -> RunState {
        match v {
            1 => RunState::Running,
            2 => RunState::Done,
            3 => RunState::Failed,
            _ => RunState::Idle,
        }
    }
}

/// The live status cell (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct Health {
    state: AtomicU8,
    iteration: AtomicU64,
    total_iterations: AtomicU64,
    breaker_open: AtomicBool,
    degraded: AtomicBool,
    fleet_done: AtomicU64,
    fleet_total: AtomicU64,
    heartbeat: AtomicU64,
    job: Mutex<String>,
}

/// The process-wide health cell.
pub fn global() -> &'static Health {
    static CELL: OnceLock<Health> = OnceLock::new();
    CELL.get_or_init(Health::default)
}

impl Health {
    /// Names the job now executing and marks the state `running`,
    /// resetting progress and fault flags from any previous job.
    pub fn begin_job(&self, name: &str) {
        *self.job.lock().unwrap() = name.to_string();
        self.iteration.store(0, Ordering::Relaxed);
        self.total_iterations.store(0, Ordering::Relaxed);
        self.breaker_open.store(false, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
        self.fleet_done.store(0, Ordering::Relaxed);
        self.fleet_total.store(0, Ordering::Relaxed);
        self.state.store(RunState::Running as u8, Ordering::Relaxed);
    }

    /// Records the job's outcome.
    pub fn finish_job(&self, ok: bool) {
        let s = if ok { RunState::Done } else { RunState::Failed };
        self.state.store(s as u8, Ordering::Relaxed);
    }

    /// Updates loop progress (current iteration out of `total`; pass 0
    /// for `total` when the horizon is unknown). Also bumps the
    /// heartbeat so supervisors watching [`Health::beats`] see forward
    /// motion at every iteration boundary.
    pub fn set_progress(&self, iteration: u64, total: u64) {
        self.iteration.store(iteration, Ordering::Relaxed);
        self.total_iterations.store(total, Ordering::Relaxed);
        self.beat();
    }

    /// Bumps the liveness heartbeat. Called from the experiment loop
    /// (via [`Health::set_progress`]) and from measurement acquisition,
    /// so a run blocked inside a single long interval still beats.
    pub fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotonic heartbeat counter. Never reset — supervisors compare
    /// successive samples; a stalled counter means a hung run.
    pub fn beats(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// The current job's last completed iteration.
    pub fn iteration(&self) -> u64 {
        self.iteration.load(Ordering::Relaxed)
    }

    /// The current job's iteration count, 0 when unknown.
    pub fn total_iterations(&self) -> u64 {
        self.total_iterations.load(Ordering::Relaxed)
    }

    /// Whether the measurement-channel breaker is open.
    pub fn breaker_open(&self) -> bool {
        self.breaker_open.load(Ordering::Relaxed)
    }

    /// Updates fleet progress (tenant experiments finished out of
    /// `total`; both 0 outside fleet runs, in which case the fields
    /// still render — a fleet in progress is recognizable by
    /// `fleet_total > 0`).
    pub fn set_fleet_progress(&self, done: u64, total: u64) {
        self.fleet_done.store(done, Ordering::Relaxed);
        self.fleet_total.store(total, Ordering::Relaxed);
    }

    /// Mirrors the measurement-channel breaker state.
    pub fn set_breaker_open(&self, open: bool) {
        self.breaker_open.store(open, Ordering::Relaxed);
    }

    /// Mirrors the agent's degraded-mode flag.
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Relaxed);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RunState {
        RunState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Renders the cell as a single-object JSON document.
    pub fn render_json(&self) -> String {
        let job = self.job.lock().unwrap().clone();
        format!(
            "{{\"state\":\"{}\",\"job\":\"{}\",\"iteration\":{},\"total_iterations\":{},\
             \"breaker_open\":{},\"degraded\":{},\"fleet_done\":{},\"fleet_total\":{},\
             \"heartbeat\":{}}}\n",
            self.state().as_str(),
            escape(&job),
            self.iteration.load(Ordering::Relaxed),
            self.total_iterations.load(Ordering::Relaxed),
            self.breaker_open.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
            self.fleet_done.load(Ordering::Relaxed),
            self.fleet_total.load(Ordering::Relaxed),
            self.beats(),
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_json_shape() {
        let h = Health::default();
        assert_eq!(h.state(), RunState::Idle);
        h.begin_job("scenario diurnal");
        h.set_progress(3, 40);
        h.set_breaker_open(true);
        h.set_degraded(true);
        assert_eq!(h.state(), RunState::Running);
        assert_eq!((h.iteration(), h.total_iterations()), (3, 40));
        assert!(h.breaker_open());
        let json = h.render_json();
        assert!(json.contains("\"state\":\"running\""));
        assert!(json.contains("\"job\":\"scenario diurnal\""));
        assert!(json.contains("\"iteration\":3"));
        assert!(json.contains("\"total_iterations\":40"));
        assert!(json.contains("\"breaker_open\":true"));
        assert!(json.contains("\"degraded\":true"));

        h.finish_job(true);
        assert!(h.render_json().contains("\"state\":\"done\""));
        h.finish_job(false);
        assert!(h.render_json().contains("\"state\":\"failed\""));

        // A new job clears the previous fault flags.
        h.begin_job("next");
        let json = h.render_json();
        assert!(json.contains("\"breaker_open\":false"));
        assert!(json.contains("\"degraded\":false"));
    }

    #[test]
    fn heartbeat_is_monotonic_across_jobs() {
        let h = Health::default();
        assert_eq!(h.beats(), 0);
        h.begin_job("first");
        h.set_progress(1, 10);
        h.set_progress(2, 10);
        h.beat();
        assert_eq!(h.beats(), 3);
        // begin_job resets progress but never the heartbeat: a
        // supervisor diffing samples across a restart must not see the
        // counter jump backwards.
        h.begin_job("second");
        assert_eq!(h.beats(), 3);
        assert!(h.render_json().contains("\"heartbeat\":3"));
    }

    #[test]
    fn fleet_progress_renders_and_resets() {
        let h = Health::default();
        h.begin_job("fleet 200");
        assert!(h
            .render_json()
            .contains("\"fleet_done\":0,\"fleet_total\":0"));
        h.set_fleet_progress(50, 200);
        assert!(h
            .render_json()
            .contains("\"fleet_done\":50,\"fleet_total\":200"));
        // The next (non-fleet) job must not inherit stale fleet counts.
        h.begin_job("scenario diurnal");
        assert!(h
            .render_json()
            .contains("\"fleet_done\":0,\"fleet_total\":0"));
    }

    #[test]
    fn job_names_are_json_escaped() {
        let h = Health::default();
        h.begin_job("quo\"te\\back\nline");
        let json = h.render_json();
        assert!(json.contains("quo\\\"te\\\\back\\u000aline"));
        // The result must stay a structurally valid single line.
        assert_eq!(json.lines().count(), 1);
    }
}
