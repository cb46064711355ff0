//! The line-up driver, and crash-safe line-ups: one checkpoint file
//! spans the whole three-tuner run of `figures scenario --checkpoint`.
//!
//! Every line-up — plain [`run_tuners`](crate::scenario::run_tuners),
//! checkpointed or resumed, a tournament matchup — takes its arms from
//! [`lineup_arms`] and runs through [`run_lineup`]. A checkpointed
//! line-up reports each iteration boundary to a checkpoint sink; without
//! one nothing is encoded. Both go through the same loop, so plain and
//! checkpointed runs produce the same series and trace by construction:
//! checkpointing only adds its deterministic `checkpoint` trace events.
//!
//! The snapshot holds the lineup cursor (which tuner is active), the
//! fingerprint of the policy library, the series of every finished
//! tuner, the active tuner's [`ScenarioProgress`] and learned state, and
//! the serialized decision trace prefix. The library itself never
//! changes during a run, so it is written once, to a content-addressed
//! sidecar beside the checkpoint ([`library_sidecar`]), and every
//! snapshot names it by fingerprint. Resuming restores all of that
//! (taking the library from the sidecar the snapshot names, never from
//! the caller), replays the active tuner's completed intervals
//! deterministically ([`Experiment::run_scenario_resumable`]), and
//! continues — producing CSV and trace output byte-identical to an
//! uninterrupted run at any `RAC_THREADS`.
//!
//! A snapshot is encoded only at a boundary that writes one, so a
//! process that dies between writes leaves the last written snapshot as
//! its resume point; by the determinism contract that is as good a
//! resume point as any later one.
//!
//! Trace-equivalence invariants (all load-bearing):
//!
//! * The `checkpoint` trace event is emitted *before* the snapshot is
//!   encoded, so the embedded trace prefix includes it — an interrupted
//!   and resumed run then replays the event from the prefix instead of
//!   re-emitting it.
//! * The event carries only deterministic fields (global iteration,
//!   tuner iteration, tuner index). Bytes written and wall-clock
//!   durations vary run to run, so they go to metrics only.
//! * Whether a boundary flushes is a pure function of the *global*
//!   (whole-lineup) iteration count, so an interrupted run and its
//!   resumption agree on the schedule without communicating.
//! * Restoring is metrics/console-only — no `checkpoint_restored` trace
//!   event, because the uninterrupted reference run never restores.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ckpt::{CkptError, Snapshot, SnapshotWriter};
use obs::trace;
use rac::{
    decode_series, encode_series, BoundaryAction, Experiment, IterationRecord, PersistTuner,
    PolicyLibrary, RacAgent, ScenarioProgress, ScenarioRunOutcome, StaticDefault, TrialAndError,
};
use scenario::Scenario;

use crate::{paper_system_spec, standard_settings, ONLINE_LEVELS};

/// Display names of the standard tuner lineup, in run order.
pub const LINEUP: [&str; 3] = ["RAC", "trial-and-error", "static default"];

const SECTION_META: &str = "lineup.meta";
const SECTION_DONE: &str = "lineup.done";
const SECTION_PROGRESS: &str = "lineup.progress";
const SECTION_TRACE: &str = "lineup.trace";

/// How a checkpointed lineup run persists itself.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Snapshot file (atomically replaced at every flush). The policy
    /// library's sidecar ([`library_sidecar`]) goes in the same directory.
    pub path: PathBuf,
    /// Flush to disk every N lineup iterations.
    pub every: usize,
    /// Stop cleanly once N lineup iterations have completed (testing /
    /// CI hook for "the process died here").
    pub stop_after: Option<usize>,
}

/// How a lineup run ended.
#[derive(Debug)]
pub enum LineupOutcome {
    /// All three tuners ran; same shape as
    /// [`run_tuners`](crate::scenario::run_tuners).
    Complete(Vec<(&'static str, Vec<IterationRecord>)>),
    /// `stop_after` hit or the control callback asked to stop; the
    /// snapshot on disk resumes the run (unless the stop was an
    /// [`LineupCommand::Abort`], which leaves the last *written*
    /// snapshot untouched instead).
    Interrupted {
        /// Lineup iterations completed across all tuners.
        global_iterations: usize,
    },
}

/// What the lineup looks like at one iteration boundary, as seen by the
/// control callback of [`run_lineup`].
#[derive(Debug, Clone, Copy)]
pub struct LineupStatus {
    /// Completed lineup iterations across all tuners so far.
    pub global_iteration: usize,
    /// Index into [`LINEUP`] of the active tuner.
    pub tuner_index: usize,
    /// Completed iterations of the active tuner's own session.
    pub tuner_iteration: usize,
    /// Whether the measurement-channel breaker is currently open.
    pub breaker_open: bool,
}

/// A control decision returned from the boundary callback of
/// [`run_lineup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineupCommand {
    /// Keep running; flushes follow the periodic schedule.
    Continue,
    /// Write a snapshot now (checkpoint-on-demand), then keep running.
    /// Like an off-schedule stop, this writes *without* a `checkpoint`
    /// trace event, so on-demand writes never perturb trace bytes.
    Checkpoint,
    /// Write a snapshot, then stop cleanly — the daemon's
    /// checkpoint-then-graceful-shutdown path.
    Stop,
    /// Stop immediately *without* writing anything, leaving the last
    /// written snapshot as the resume point. Used by a supervisor
    /// abandoning a superseded worker: a stale worker must never
    /// overwrite state a newer attempt is building on.
    Abort,
}

/// The three lineup arms, in [`LINEUP`] order: RAC seeded from
/// `library` (cold without one, as in the tournament), trial-and-error,
/// and the static default. Every lineup builds its arms here; callers
/// name their own columns.
pub fn lineup_arms(library: Option<&PolicyLibrary>) -> (RacAgent, TrialAndError, StaticDefault) {
    let rac_agent = match library {
        Some(library) => RacAgent::with_policy_library(standard_settings(), library.clone()),
        None => RacAgent::new(standard_settings()),
    };
    (
        rac_agent,
        TrialAndError::new(ONLINE_LEVELS),
        StaticDefault::new(),
    )
}

/// Runs the standard tuner lineup through one scenario with periodic
/// snapshots, optionally resuming a previous run's snapshot.
///
/// Byte-identical to [`run_tuners`](crate::scenario::run_tuners) in
/// series and trace output — checkpointing only *adds* the
/// deterministic `checkpoint` trace events.
///
/// # Errors
///
/// Returns [`CkptError::Mismatch`] when `resume` was written for a
/// different system spec or scenario, any decoding error from a corrupt
/// snapshot or library sidecar, and I/O errors from reading the sidecar
/// or writing the snapshot file.
pub fn run_tuners_checkpointed(
    scn: &Scenario,
    library: &PolicyLibrary,
    options: &CheckpointOptions,
    resume: Option<&Snapshot>,
) -> Result<LineupOutcome, CkptError> {
    run_tuners_checkpointed_with(scn, library, options, resume, |_| LineupCommand::Continue)
}

/// [`run_tuners_checkpointed`] with a control callback consulted at
/// every iteration boundary. The callback sees the lineup position
/// ([`LineupStatus`]) and steers the run with a [`LineupCommand`]:
/// pause-free continuation, checkpoint-on-demand, a clean
/// checkpoint-then-stop, or an abandon-without-write abort. This is the
/// daemon's (`racd`) drive shaft — signals and admin commands turn into
/// commands here, always at an iteration boundary, never mid-interval.
///
/// Determinism: `Continue` is byte-identical to the plain entry point;
/// `Checkpoint` and `Stop` write without trace events (the periodic
/// schedule alone emits them), so a run steered by any command sequence
/// still converges to the uninterrupted run's CSV/trace bytes once
/// resumed to completion.
///
/// # Errors
///
/// As [`run_tuners_checkpointed`].
pub fn run_tuners_checkpointed_with(
    scn: &Scenario,
    library: &PolicyLibrary,
    options: &CheckpointOptions,
    resume: Option<&Snapshot>,
    control: impl FnMut(&LineupStatus) -> LineupCommand,
) -> Result<LineupOutcome, CkptError> {
    run_lineup(scn, Some(library), Some(options), resume, control)
}

/// The lineup driver: the arms of [`lineup_arms`] run one after another
/// through `scn`, each through [`Experiment::run_scenario_resumable`],
/// and `control` is consulted at every iteration boundary.
///
/// With `checkpoint`, a sink writes a snapshot to `checkpoint.path` on
/// the schedule, on `Checkpoint` and `Stop`, at `stop_after`, and at the
/// lineup's last boundary, and `resume` continues a snapshot of that
/// file mid-lineup. Without it nothing is encoded or written: `Stop`
/// and `Abort` just stop the run, and `Checkpoint` does nothing.
///
/// # Errors
///
/// As [`run_tuners_checkpointed`], plus [`CkptError::Mismatch`] for a
/// `resume` without a `checkpoint` to find its library sidecar beside.
pub fn run_lineup(
    scn: &Scenario,
    library: Option<&PolicyLibrary>,
    checkpoint: Option<&CheckpointOptions>,
    resume: Option<&Snapshot>,
    mut control: impl FnMut(&LineupStatus) -> LineupCommand,
) -> Result<LineupOutcome, CkptError> {
    let exp = Experiment::for_scenario(paper_system_spec(), scn);
    let spec_fp = exp.spec().fingerprint();
    let scn_fp = scn.fingerprint();
    let resumed = match (resume, checkpoint) {
        (Some(snap), Some(options)) => {
            let t0 = Instant::now();
            let resumed = decode_lineup(snap, &options.path, spec_fp, scn_fp)?;
            let m = obs::Registry::global();
            m.counter("rac_ckpt_restores_total").inc();
            m.histogram("rac_ckpt_restore_us")
                .record_us(t0.elapsed().as_micros() as u64);
            Some(resumed)
        }
        (Some(_), None) => {
            return Err(CkptError::Mismatch {
                detail: "a resumed lineup needs the checkpoint file it continues".to_string(),
            })
        }
        (None, _) => None,
    };

    // A resumed run's library is the one its snapshot names: the caller's
    // goes unused, and RAC's arm is either restored or already finished.
    let sink_library = match &resumed {
        Some(r) => r.library.map_or(SinkLibrary::None, SinkLibrary::Stored),
        None => library.map_or(SinkLibrary::None, SinkLibrary::Unwritten),
    };
    let (rac_agent, tae, dflt) = lineup_arms(library.filter(|_| resumed.is_none()));
    let mut arms: [Box<dyn PersistTuner>; 3] = [Box::new(rac_agent), Box::new(tae), Box::new(dflt)];
    let (first, mut done, mut progress) = match resumed {
        Some(r) => {
            arms[r.tuner_index] = r.tuner;
            (r.tuner_index, r.done, Some(r.progress))
        }
        None => (0, Vec::new(), None),
    };
    let mut sink = checkpoint.map(|options| CkptSink {
        options,
        spec_fp,
        scn_fp,
        iterations: scn.iterations(),
        library: sink_library,
    });
    let mut stop = false;
    // Each arm is dropped as its session ends.
    for (tuner_index, mut tuner) in arms.into_iter().enumerate().skip(first) {
        let base: usize = done.iter().map(|(_, s)| s.len()).sum();
        let outcome =
            exp.run_scenario_resumable(scn, tuner.as_mut(), progress.take(), |p, t| {
                let status = LineupStatus {
                    global_iteration: base + p.iterations_done,
                    tuner_index,
                    tuner_iteration: p.iterations_done,
                    breaker_open: p.channel.is_open(),
                };
                let cmd = control(&status);
                stop |= matches!(cmd, LineupCommand::Stop | LineupCommand::Abort);
                match &mut sink {
                    Some(sink) => sink.boundary(&status, &done, p, t, cmd),
                    None if stop => Ok(BoundaryAction::Stop),
                    None => Ok(BoundaryAction::Continue),
                }
            })?;
        let series = match outcome {
            ScenarioRunOutcome::Complete(series) => series,
            ScenarioRunOutcome::Interrupted(p) => {
                return Ok(LineupOutcome::Interrupted {
                    global_iterations: base + p.iterations_done,
                });
            }
        };
        let global = base + series.len();
        done.push((LINEUP[tuner_index], series));
        // A stop landing exactly on a tuner's final iteration is
        // swallowed by the scenario runner (the session is complete);
        // honor it here instead. The snapshot already on disk resumes by
        // replaying the finished tuner, then starts the next one fresh.
        let stop_after = sink.as_ref().is_some_and(|s| s.stop_requested(global));
        if (stop || stop_after) && tuner_index + 1 < LINEUP.len() {
            return Ok(LineupOutcome::Interrupted {
                global_iterations: global,
            });
        }
    }
    Ok(LineupOutcome::Complete(done))
}

/// [`run_lineup`] with nothing to checkpoint, resume or stop.
pub(crate) fn run_plain_lineup(
    scn: &Scenario,
    library: Option<&PolicyLibrary>,
) -> Vec<(&'static str, Vec<IterationRecord>)> {
    match run_lineup(scn, library, None, None, |_| LineupCommand::Continue) {
        Ok(LineupOutcome::Complete(series)) => series,
        _ => unreachable!("a lineup that never stops completes"),
    }
}

/// The policy-library sidecar of the line-up checkpoint at `checkpoint`:
/// the file [`warm_start_library`] reads the checkpointed run's library
/// from.
///
/// # Errors
///
/// Returns any error loading the checkpoint, and
/// [`CkptError::Mismatch`] when the line-up ran without a library.
pub fn library_sidecar(checkpoint: &Path) -> Result<PathBuf, CkptError> {
    match LineupMeta::decode(&Snapshot::load(checkpoint)?)?.library {
        Some(fp) => Ok(sidecar_path(checkpoint, fp)),
        None => Err(CkptError::Mismatch {
            detail: "the checkpointed line-up ran without a policy library".to_string(),
        }),
    }
}

/// Where the library with fingerprint `fp` is stored for the checkpoint
/// at `checkpoint`: `library-<fp>.ckpt` in the same directory.
fn sidecar_path(checkpoint: &Path, fp: u64) -> PathBuf {
    checkpoint.with_file_name(format!("library-{fp:016x}.ckpt"))
}

/// The library the line-up checkpoint at `checkpoint` ran with, read
/// from its sidecar and checked against the standard lattice: what
/// `--warm-start` and `racd upgrade` seed from. A library that is empty
/// or of another lattice is [`CkptError::Mismatch`].
pub fn warm_start_library(checkpoint: &Path) -> Result<PolicyLibrary, CkptError> {
    read_library(&library_sidecar(checkpoint)?)
}

/// Loads a library sidecar and decodes it on the standard lattice.
fn read_library(sidecar: &Path) -> Result<PolicyLibrary, CkptError> {
    let states = crate::standard_lattice().num_states();
    rac::library_from_snapshot(&Snapshot::load(sidecar)?, states, rac::Action::COUNT)
}

/// The `lineup.meta` section: what the snapshot was taken against, the
/// lineup cursor, and the fingerprint of the library (if any).
struct LineupMeta {
    spec_fp: u64,
    scn_fp: u64,
    tuner_index: usize,
    library: Option<u64>,
}

impl LineupMeta {
    fn encode(&self, snap: &mut SnapshotWriter) {
        snap.section(SECTION_META, |w| {
            w.put_u64(self.spec_fp);
            w.put_u64(self.scn_fp);
            w.put_usize(self.tuner_index);
            w.put_bool(self.library.is_some());
            if let Some(fp) = self.library {
                w.put_u64(fp);
            }
        });
    }

    fn decode(snap: &Snapshot) -> Result<Self, CkptError> {
        let mut r = snap.section(SECTION_META)?;
        let spec_fp = r.get_u64()?;
        let scn_fp = r.get_u64()?;
        let tuner_index = r.get_usize()?;
        let library = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        r.finish()?;
        Ok(LineupMeta {
            spec_fp,
            scn_fp,
            tuner_index,
            library,
        })
    }
}

/// The library a checkpoint sink names in its snapshots.
enum SinkLibrary<'a> {
    /// The lineup runs without one.
    None,
    /// Not yet in its sidecar: the first write stores it.
    Unwritten(&'a PolicyLibrary),
    /// In the sidecar named by this fingerprint.
    Stored(u64),
}

/// The checkpoint sink driven by the lineup's boundary callback. It
/// encodes and writes a snapshot only at a boundary that needs one: on
/// the schedule, on `Checkpoint` and `Stop`, at `stop_after`, and at
/// the lineup's last boundary (so a finished run leaves its final state
/// behind as warm-start food). Its first write also stores the library
/// in its sidecar.
struct CkptSink<'a> {
    options: &'a CheckpointOptions,
    spec_fp: u64,
    scn_fp: u64,
    /// Iterations per tuner session.
    iterations: usize,
    library: SinkLibrary<'a>,
}

impl CkptSink<'_> {
    fn stop_requested(&self, global: usize) -> bool {
        self.options.stop_after.is_some_and(|n| global >= n)
    }

    fn boundary(
        &mut self,
        status: &LineupStatus,
        done: &[(&'static str, Vec<IterationRecord>)],
        progress: &ScenarioProgress,
        tuner: &dyn PersistTuner,
        cmd: LineupCommand,
    ) -> Result<BoundaryAction, CkptError> {
        if cmd == LineupCommand::Abort {
            // Abandon without touching disk: the last written snapshot
            // stays the authoritative resume point.
            return Ok(BoundaryAction::Stop);
        }
        let global = status.global_iteration;
        let scheduled = self.options.every > 0 && global.is_multiple_of(self.options.every);
        let stop = cmd == LineupCommand::Stop || self.stop_requested(global);
        let last =
            status.tuner_index + 1 == LINEUP.len() && status.tuner_iteration == self.iterations;
        if !(scheduled || stop || last || cmd == LineupCommand::Checkpoint) {
            return Ok(BoundaryAction::Continue);
        }
        // Wall-clock attribution of encode+write time (metrics/profile
        // only; the trace event below is simulated-time as ever).
        let _span = obs::Span::start("checkpoint");
        if scheduled {
            // Emitted before encoding so the snapshot's trace prefix
            // includes this event: a resumed run replays it from the
            // prefix and never re-emits it. Off-schedule writes emit
            // nothing — the resumed run's schedule is what keeps traces
            // identical.
            trace::emit(|| {
                obs::Event::new("checkpoint")
                    .field("iter", global as u64)
                    .field("tuner_iter", progress.iterations_done as u64)
                    .field("tuner", status.tuner_index as u64)
            });
        }
        let library = self.store_library()?;
        let bytes = self.encode(status.tuner_index, library, done, progress, tuner);
        write(&self.options.path, &bytes)?;
        Ok(if stop {
            BoundaryAction::Stop
        } else {
            BoundaryAction::Continue
        })
    }

    /// The fingerprint the next snapshot names, storing the library in
    /// its sidecar first if this sink has not done so yet. A sidecar
    /// that already exists holds the same bytes (it is named by them),
    /// so it is not rewritten.
    fn store_library(&mut self) -> Result<Option<u64>, CkptError> {
        match self.library {
            SinkLibrary::None => Ok(None),
            SinkLibrary::Stored(fp) => Ok(Some(fp)),
            SinkLibrary::Unwritten(library) => {
                let fp = library.fingerprint();
                let path = sidecar_path(&self.options.path, fp);
                if !path.exists() {
                    let mut snap = SnapshotWriter::new();
                    rac::library_to_snapshot(&mut snap, library);
                    write(&path, &snap.to_bytes())?;
                }
                self.library = SinkLibrary::Stored(fp);
                Ok(Some(fp))
            }
        }
    }

    fn encode(
        &self,
        tuner_index: usize,
        library: Option<u64>,
        done: &[(&'static str, Vec<IterationRecord>)],
        progress: &ScenarioProgress,
        tuner: &dyn PersistTuner,
    ) -> Vec<u8> {
        let mut snap = SnapshotWriter::new();
        let meta = LineupMeta {
            spec_fp: self.spec_fp,
            scn_fp: self.scn_fp,
            tuner_index,
            library,
        };
        meta.encode(&mut snap);
        snap.section(SECTION_DONE, |w| {
            w.put_usize(done.len());
            for (_, series) in done {
                encode_series(w, series);
            }
        });
        snap.section(SECTION_PROGRESS, |w| progress.encode(w));
        tuner.save_state(&mut snap);
        let prefix = trace::snapshot_serialized();
        snap.section(SECTION_TRACE, |w| {
            w.put_bool(prefix.is_some());
            w.put_str(prefix.as_deref().unwrap_or(""));
        });
        snap.to_bytes()
    }
}

/// Atomically writes one checkpoint file (snapshot or sidecar) and
/// records it in the `rac_ckpt_*` metrics.
fn write(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let t0 = Instant::now();
    ckpt::write_bytes_atomic(bytes, path)?;
    let m = obs::Registry::global();
    m.counter("rac_ckpt_writes_total").inc();
    m.counter("rac_ckpt_bytes_total").add(bytes.len() as u64);
    m.histogram("rac_ckpt_write_us")
        .record_us(t0.elapsed().as_micros() as u64);
    Ok(())
}

struct ResumedLineup {
    tuner_index: usize,
    /// Fingerprint of the library the snapshot names.
    library: Option<u64>,
    done: Vec<(&'static str, Vec<IterationRecord>)>,
    tuner: Box<dyn PersistTuner>,
    progress: ScenarioProgress,
}

/// Decodes a snapshot of the checkpoint at `checkpoint`, reading the
/// library it names from the sidecar beside it.
fn decode_lineup(
    snap: &Snapshot,
    checkpoint: &Path,
    spec_fp: u64,
    scn_fp: u64,
) -> Result<ResumedLineup, CkptError> {
    let LineupMeta {
        spec_fp: snap_spec,
        scn_fp: snap_scn,
        tuner_index,
        library,
    } = LineupMeta::decode(snap)?;
    if snap_spec != spec_fp {
        return Err(CkptError::Mismatch {
            detail: format!(
                "checkpoint was written for a different system spec \
                 (fingerprint {snap_spec:#018x}, this run has {spec_fp:#018x})"
            ),
        });
    }
    if snap_scn != scn_fp {
        return Err(CkptError::Mismatch {
            detail: format!(
                "checkpoint was written for a different scenario or scaling \
                 (fingerprint {snap_scn:#018x}, this run has {scn_fp:#018x})"
            ),
        });
    }
    if tuner_index >= LINEUP.len() {
        return Err(CkptError::Corrupt {
            detail: format!("lineup cursor {tuner_index} out of range"),
        });
    }

    let mut r = snap.section(SECTION_DONE)?;
    let count = r.get_usize()?;
    if count != tuner_index {
        return Err(CkptError::Corrupt {
            detail: format!("lineup cursor at tuner {tuner_index} but {count} finished series"),
        });
    }
    let mut done = Vec::with_capacity(count);
    for (i, name) in LINEUP.iter().enumerate().take(count) {
        let series = decode_series(&mut r).map_err(|e| CkptError::Corrupt {
            detail: format!("finished series {i}: {e}"),
        })?;
        done.push((*name, series));
    }
    r.finish()?;

    let mut r = snap.section(SECTION_PROGRESS)?;
    let progress = ScenarioProgress::decode(&mut r)?;
    r.finish()?;

    // RAC is restored with the library the snapshot names, read from its
    // sidecar. Later tuners do not use the library, but the run keeps
    // naming it, so its sidecar must still be there.
    let sidecar = library.map(|fp| sidecar_path(checkpoint, fp));
    let tuner: Box<dyn PersistTuner> = match tuner_index {
        0 => {
            let library = sidecar.as_deref().map(read_library).transpose()?;
            Box::new(RacAgent::restore(snap, library)?)
        }
        1 => Box::new(TrialAndError::restore(snap)?),
        _ => Box::new(StaticDefault::new()),
    };
    if let Some(path) = sidecar.filter(|_| tuner_index > 0) {
        std::fs::metadata(&path).map_err(|source| CkptError::Io {
            path,
            context: "find the policy-library sidecar",
            source,
        })?;
    }

    let mut r = snap.section(SECTION_TRACE)?;
    let has_trace = r.get_bool()?;
    let prefix = r.get_str()?;
    r.finish()?;
    if has_trace && trace::scoped() {
        trace::restore_serialized(&prefix).map_err(|e| CkptError::Corrupt {
            detail: format!("embedded trace prefix: {e}"),
        })?;
        // The active tuner's session header is part of the restored
        // prefix; its remaining live events must land in the same run.
        trace::set_run(tuner_index as u64 + 1);
    }

    Ok(ResumedLineup {
        tuner_index,
        library,
        done,
        tuner,
        progress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario::parse(
            "name tiny\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 5\n\
             at 60s intensity 1.4\nfault at 200s drop\n",
        )
        .unwrap()
    }

    fn tiny_library() -> PolicyLibrary {
        // A fast single-context library at the standard lattice
        // resolution (the checkpoint validates Q-table dimensions, so
        // the lattice must match ONLINE_LEVELS).
        rac::build_policy_library(
            &paper_system_spec().with_clients(60),
            &[rac::paper_contexts()[0]],
            &crate::standard_lattice(),
            rac::SlaReward::new(crate::SLA_MS),
            rac::TrainingOptions {
                warmup: simkernel::SimDuration::from_secs(60),
                measure: simkernel::SimDuration::from_secs(60),
                ..rac::TrainingOptions::default()
            },
        )
    }

    #[test]
    fn checkpointed_lineup_matches_plain_lineup_and_resumes_identically() {
        let scn = tiny_scenario();
        let library = tiny_library();
        let dir = std::env::temp_dir().join(format!("rac-ckpt-test-{}", std::process::id()));
        let plain = crate::scenario::run_tuners(&scn, &library);

        let opts = CheckpointOptions {
            path: dir.join("full.ckpt"),
            every: 4,
            stop_after: None,
        };
        let full = match run_tuners_checkpointed(&scn, &library, &opts, None).unwrap() {
            LineupOutcome::Complete(series) => series,
            LineupOutcome::Interrupted { .. } => panic!("no stop requested"),
        };
        assert_eq!(full, plain, "checkpointing must not perturb the series");

        // Interrupt at a mid-lineup boundary (tuner 1 mid-run) and at a
        // non-schedule boundary (an off-schedule write), then resume each.
        for stop_after in [8usize, 7] {
            let path = dir.join(format!("stop-{stop_after}.ckpt"));
            let opts = CheckpointOptions {
                path: path.clone(),
                every: 4,
                stop_after: Some(stop_after),
            };
            let outcome = run_tuners_checkpointed(&scn, &library, &opts, None).unwrap();
            let LineupOutcome::Interrupted { global_iterations } = outcome else {
                panic!("run should stop after {stop_after} lineup iterations");
            };
            assert_eq!(global_iterations, stop_after);

            let snap = Snapshot::load(&path).unwrap();
            let opts = CheckpointOptions {
                path,
                every: 4,
                stop_after: None,
            };
            let resumed = match run_tuners_checkpointed(&scn, &library, &opts, Some(&snap)).unwrap()
            {
                LineupOutcome::Complete(series) => series,
                LineupOutcome::Interrupted { .. } => panic!("resume should finish"),
            };
            assert_eq!(resumed, full, "resume after {stop_after} diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_commands_checkpoint_stop_abort() {
        let scn = tiny_scenario();
        let library = tiny_library();
        let dir = std::env::temp_dir().join(format!("rac-ckpt-ctl-{}", std::process::id()));
        let plain = crate::scenario::run_tuners(&scn, &library);

        // Checkpoint-on-demand at boundary 3, graceful stop at 7. The
        // schedule (every=1000) never fires, so any file on disk came
        // from a control command.
        let path = dir.join("ctl.ckpt");
        let opts = CheckpointOptions {
            path: path.clone(),
            every: 1000,
            stop_after: None,
        };
        let mut on_demand_seen = false;
        let outcome = run_tuners_checkpointed_with(&scn, &library, &opts, None, |s| {
            if s.global_iteration == 4 {
                on_demand_seen = path.exists();
            }
            match s.global_iteration {
                3 => LineupCommand::Checkpoint,
                7 => LineupCommand::Stop,
                _ => LineupCommand::Continue,
            }
        })
        .unwrap();
        let LineupOutcome::Interrupted { global_iterations } = outcome else {
            panic!("control stop must interrupt the lineup");
        };
        assert_eq!(global_iterations, 7);
        assert!(on_demand_seen, "on-demand checkpoint must hit disk");

        // Resuming the stopped run converges to the plain series.
        let snap = Snapshot::load(&path).unwrap();
        let resumed = match run_tuners_checkpointed(&scn, &library, &opts, Some(&snap)).unwrap() {
            LineupOutcome::Complete(series) => series,
            LineupOutcome::Interrupted { .. } => panic!("resume should finish"),
        };
        assert_eq!(resumed, plain, "control-steered run diverged");

        // Abort stops without touching disk.
        let path2 = dir.join("abort.ckpt");
        let opts = CheckpointOptions {
            path: path2.clone(),
            every: 1000,
            stop_after: None,
        };
        let outcome = run_tuners_checkpointed_with(&scn, &library, &opts, None, |s| {
            if s.global_iteration == 2 {
                LineupCommand::Abort
            } else {
                LineupCommand::Continue
            }
        })
        .unwrap();
        assert!(matches!(
            outcome,
            LineupOutcome::Interrupted {
                global_iterations: 2
            }
        ));
        assert!(!path2.exists(), "abort must never write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_lineup_reports_session_ends_and_stops_without_a_sink() {
        let scn = tiny_scenario();
        let iterations = scn.iterations();
        // The `--serve` live trace flush keys on each session's last
        // boundary.
        let mut session_ends = Vec::new();
        let outcome = run_lineup(&scn, None, None, None, |s| {
            if s.tuner_iteration == iterations {
                session_ends.push(s.tuner_index);
            }
            LineupCommand::Continue
        })
        .unwrap();
        assert!(matches!(outcome, LineupOutcome::Complete(_)));
        assert_eq!(session_ends, [0, 1, 2]);

        let outcome = run_lineup(&scn, None, None, None, |s| {
            if s.global_iteration == 8 {
                LineupCommand::Stop
            } else {
                LineupCommand::Continue
            }
        })
        .unwrap();
        assert!(matches!(
            outcome,
            LineupOutcome::Interrupted {
                global_iterations: 8
            }
        ));
    }

    #[test]
    fn resume_rejects_wrong_scenario() {
        let scn = tiny_scenario();
        let library = tiny_library();
        let dir = std::env::temp_dir().join(format!("rac-ckpt-mism-{}", std::process::id()));
        let path = dir.join("run.ckpt");
        let opts = CheckpointOptions {
            path: path.clone(),
            every: 2,
            stop_after: Some(2),
        };
        run_tuners_checkpointed(&scn, &library, &opts, None).unwrap();
        let snap = Snapshot::load(&path).unwrap();

        let other = Scenario::parse(
            "name other\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 5\n",
        )
        .unwrap();
        let err = run_tuners_checkpointed(&other, &library, &opts, Some(&snap)).unwrap_err();
        assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
