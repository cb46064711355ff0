//! The kill-storm drill: repeatedly SIGKILL a live `racd` daemon at
//! seeded random points — mid-iteration, mid-outage while the
//! measurement breaker is open, and (emulated) mid-checkpoint-write —
//! then assert the relaunched daemon converges to CSV/trace output
//! byte-identical to an uninterrupted run.
//!
//! The drill is a pure function of its seed: the scenario is the
//! seeded chaos schedule (guaranteed blackout, so every seed has a
//! breaker-open window to kill inside) and the kill plan is drawn from
//! the same [`Pcg64`] stream. Kill *timing* is necessarily wall-clock
//! (we are killing a real process), so a targeted kill may land late
//! or after the job finished — the report records where each kill
//! landed, and the byte-identity assertion holds regardless, which is
//! exactly the property under test: no kill point may change the final
//! bytes.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use simkernel::Pcg64;

use crate::chaos::chaos_scenario;

/// Seeds `figures crashdrill` runs when none are given (also the CI
/// daemon job's set).
pub const DEFAULT_SEEDS: [u64; 2] = [7, 77];

/// How one kill was aimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillAim {
    /// As soon as the daemon answers on the admin socket (library
    /// load / scenario start window).
    Startup,
    /// Once `status` reports at least this lineup iteration.
    AtIteration(u64),
    /// Once `status` reports the measurement breaker open (inside the
    /// blackout window).
    BreakerOpen,
}

/// One kill of the plan: an aim, plus whether a torn checkpoint temp
/// file is planted after the kill (the mid-checkpoint-write case — a
/// SIGKILL between the temp write and the atomic rename).
#[derive(Debug, Clone, Copy)]
pub struct PlannedKill {
    /// Where to aim.
    pub aim: KillAim,
    /// Plant a torn checkpoint temp file ([`ckpt::temp_path`]) after
    /// this kill.
    pub torn_tmp: bool,
}

/// The seeded kill plan: 2–4 kills; at least one aims at the
/// breaker-open window and at least one plants a torn temp.
pub fn kill_plan(seed: u64, total_iterations: u64) -> Vec<PlannedKill> {
    let mut rng = Pcg64::seed_from_u64(seed ^ 0xD217);
    let n = 2 + rng.below(3) as usize;
    let mut plan = Vec::with_capacity(n);
    for i in 0..n {
        let aim = match (i, rng.below(4)) {
            // The first kill always exercises the breaker-open window.
            (0, _) => KillAim::BreakerOpen,
            (_, 0) => KillAim::Startup,
            _ => KillAim::AtIteration(1 + rng.below(total_iterations.saturating_sub(2).max(1))),
        };
        plan.push(PlannedKill {
            aim,
            torn_tmp: rng.chance(0.5),
        });
    }
    // Guarantee the mid-checkpoint-write case every seed.
    if !plan.iter().any(|k| k.torn_tmp) {
        plan[0].torn_tmp = true;
    }
    plan
}

/// What happened in one seed's drill.
#[derive(Debug)]
pub struct DrillReport {
    /// The drill seed.
    pub seed: u64,
    /// One human-readable line per kill: aim and where it landed.
    pub kills: Vec<String>,
    /// Failures (empty = converged byte-identically).
    pub failures: Vec<String>,
}

/// Options for [`run_drill`].
pub struct DrillOptions {
    /// Working directory for state/results (usually `results/`).
    pub out_dir: PathBuf,
    /// Scenario length in measured iterations.
    pub iterations: usize,
}

/// Locates the `racd` binary: `$RACD_BIN`, else a sibling of the
/// running executable (both land in `target/<profile>/`).
pub fn find_racd() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var("RACD_BIN") {
        let p = PathBuf::from(p);
        return if p.exists() {
            Ok(p)
        } else {
            Err(format!("RACD_BIN={} does not exist", p.display()))
        };
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = exe.with_file_name("racd");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "racd binary not found at {} — build it with `cargo build -p racd` \
             or point RACD_BIN at it",
            sibling.display()
        ))
    }
}

/// Runs the full drill for one seed. See the module docs.
///
/// # Errors
///
/// Infrastructure problems (cannot spawn/write); assertion failures are
/// reported in [`DrillReport::failures`] instead.
pub fn run_drill(racd: &Path, seed: u64, opts: &DrillOptions) -> Result<DrillReport, String> {
    let scn = chaos_scenario(seed, opts.iterations);
    // `status` reports the *current tuner's* iteration, so targets aim
    // within one session; which of the three lineup sessions a kill
    // lands in depends on wall-clock, and any landing is a valid drill.
    let total_iterations = scn.iterations() as u64;
    let root = opts.out_dir.join(format!("crashdrill/seed-{seed}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("mkdir {}: {e}", root.display()))?;
    let cache = opts.out_dir.join("cache");
    let scn_path = root.join(format!("{}.scn", scn.name));
    std::fs::write(&scn_path, scn.to_string())
        .map_err(|e| format!("write {}: {e}", scn_path.display()))?;
    let csv_name = format!("scenario-{}.csv", scn.name);
    let trace_name = format!("scenario-{}.trace.jsonl", scn.name);

    let mut report = DrillReport {
        seed,
        kills: Vec::new(),
        failures: Vec::new(),
    };

    // Uninterrupted reference run.
    let clean = root.join("clean");
    let status = launch(racd, &clean, &cache, Some(&scn_path), true)
        .map_err(|e| format!("spawn reference racd: {e}"))?
        .wait()
        .map_err(|e| format!("wait reference racd: {e}"))?;
    if status.code() != Some(0) {
        return Err(format!("reference run exited with {status}"));
    }
    let reference_csv = std::fs::read(clean.join("results").join(&csv_name))
        .map_err(|e| format!("reference CSV missing: {e}"))?;
    let reference_trace = std::fs::read(clean.join("results").join(&trace_name)).ok();

    // The drill proper: launch, kill per plan, relaunch.
    let drill = root.join("drill");
    let plan = kill_plan(seed, total_iterations);
    for (i, kill) in plan.iter().enumerate() {
        // Only the first launch injects the scenario; relaunches drain
        // the persisted queue.
        let operand = if i == 0 {
            Some(scn_path.as_path())
        } else {
            None
        };
        let _ = std::fs::remove_file(drill.join("admin.addr"));
        let mut child = launch(racd, &drill, &cache, operand, false)
            .map_err(|e| format!("spawn drill racd: {e}"))?;
        let landed = aim_and_wait(&drill, kill.aim);
        child.kill().map_err(|e| format!("SIGKILL racd: {e}"))?;
        let _ = child.wait();
        report.kills.push(format!(
            "kill {}: aimed {:?}, landed {landed}",
            i + 1,
            kill.aim
        ));
        if !drill.join("racd.dirty").exists() {
            report.failures.push(format!(
                "kill {}: dirty marker not armed after SIGKILL",
                i + 1
            ));
        }
        if kill.torn_tmp {
            plant_torn_temp(&drill, &scn.name).map_err(|e| format!("plant torn tmp: {e}"))?;
        }
    }

    // Final relaunch drains the queue to completion.
    let status = launch(racd, &drill, &cache, None, true)
        .map_err(|e| format!("spawn final racd: {e}"))?
        .wait()
        .map_err(|e| format!("wait final racd: {e}"))?;
    if status.code() != Some(0) {
        report
            .failures
            .push(format!("final recovery run exited with {status}"));
        return Ok(report);
    }

    match std::fs::read(drill.join("results").join(&csv_name)) {
        Ok(bytes) if bytes == reference_csv => {}
        Ok(_) => report
            .failures
            .push("CSV bytes differ from the uninterrupted run".to_string()),
        Err(e) => report.failures.push(format!("recovered CSV missing: {e}")),
    }
    match (
        reference_trace,
        std::fs::read(drill.join("results").join(&trace_name)).ok(),
    ) {
        (Some(a), Some(b)) if a == b => {}
        (Some(_), Some(_)) => report
            .failures
            .push("trace bytes differ from the uninterrupted run".to_string()),
        (Some(_), None) => report
            .failures
            .push("recovered trace missing while reference has one".to_string()),
        (None, _) => {} // tracing off
    }
    if drill.join("racd.dirty").exists() {
        report
            .failures
            .push("dirty marker still armed after a clean recovery run".to_string());
    }
    Ok(report)
}

/// Emulates dying mid-checkpoint-write: a torn temp file where the
/// daemon's atomic write of job `job`'s checkpoint would have left it,
/// beside whatever the daemon last committed.
fn plant_torn_temp(state: &Path, job: &str) -> std::io::Result<()> {
    let dir = state.join("ckpt");
    std::fs::create_dir_all(&dir)?;
    let ckpt_path = dir.join(format!("{job}.ckpt"));
    std::fs::write(ckpt::temp_path(&ckpt_path), b"RACCKPT\x00torn-mid-write")
}

fn launch(
    racd: &Path,
    state: &Path,
    cache: &Path,
    scenario: Option<&Path>,
    once: bool,
) -> std::io::Result<Child> {
    let mut cmd = Command::new(racd);
    cmd.args(["--state", &state.display().to_string()])
        .args(["--cache", &cache.display().to_string()])
        .args(["--every", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if once {
        cmd.arg("--once");
    }
    if let Some(p) = scenario {
        cmd.arg(p);
    }
    cmd.spawn()
}

/// Waits until the aim condition holds (bounded), returning a
/// description of the state the kill actually landed in.
fn aim_and_wait(state: &Path, aim: KillAim) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = String::from("no status yet");
    while Instant::now() < deadline {
        if let Some(s) = admin_status(state) {
            let done = s.contains("state=idle") && s.contains("queue=0");
            last = s.clone();
            let ready = match aim {
                KillAim::Startup => true,
                KillAim::AtIteration(n) => done || status_field(&s, "iter=") >= n,
                KillAim::BreakerOpen => done || s.contains("breaker_open=true"),
            };
            if ready {
                return last;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    format!("timed out aiming; last status: {last}")
}

fn admin_status(state: &Path) -> Option<String> {
    let addr = std::fs::read_to_string(state.join("admin.addr")).ok()?;
    let mut s = TcpStream::connect(addr.trim()).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    s.write_all(b"status\n").ok()?;
    let mut reply = String::new();
    BufReader::new(s).read_line(&mut reply).ok()?;
    Some(reply.trim_end().to_string())
}

/// Extracts the number following `key` from a status line (0 if absent).
fn status_field(status: &str, key: &str) -> u64 {
    status
        .split(key)
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_plans_are_seeded_and_complete() {
        for seed in DEFAULT_SEEDS {
            let a = kill_plan(seed, 72);
            let b = kill_plan(seed, 72);
            assert_eq!(a.len(), b.len(), "plan for seed {seed} not deterministic");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.aim, y.aim);
                assert_eq!(x.torn_tmp, y.torn_tmp);
            }
            assert!((2..=4).contains(&a.len()));
            assert!(
                a.iter().any(|k| matches!(k.aim, KillAim::BreakerOpen)),
                "seed {seed}: no breaker-open kill"
            );
            assert!(
                a.iter().any(|k| k.torn_tmp),
                "seed {seed}: no mid-checkpoint-write kill"
            );
        }
    }

    #[test]
    fn planted_torn_temp_is_swept_before_resume() {
        let state = std::env::temp_dir().join(format!("rac-drill-tmp-{}", std::process::id()));
        plant_torn_temp(&state, "chaos-7").unwrap();
        // The daemon sweeps exactly this file before loading the
        // committed checkpoint.
        let ckpt_path = state.join("ckpt").join("chaos-7.ckpt");
        assert!(ckpt::remove_stale_temp(&ckpt_path).unwrap());
        assert!(std::fs::read_dir(state.join("ckpt"))
            .unwrap()
            .next()
            .is_none());
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn status_fields_parse() {
        let s = "ok state=running job=chaos-7 queue=1 iter=12/72 breaker_open=true \
                 heartbeat=991 restarts=0 dirty_start=true";
        assert_eq!(status_field(s, "iter="), 12);
        assert_eq!(status_field(s, "queue="), 1);
        assert_eq!(status_field(s, "missing="), 0);
    }
}
