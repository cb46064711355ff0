//! Crash-safe scenario runs: what a snapshot of a run holds, and the
//! boundary protocol of [`Experiment::run_scenario_resumable`].
//!
//! A full discrete-event-simulator state dump would be enormous and
//! fragile; instead a checkpoint records only the *learned* state (the
//! tuner, via [`PersistTuner`]) plus the run's recorded series
//! ([`ScenarioProgress`]). Resuming rebuilds the simulated system from
//! its spec and deterministically replays the completed intervals —
//! applying timeline events and the recorded configuration transitions
//! in the exact order of the live run, with no tuner calls and no trace
//! emissions — then hands control back to the restored tuner. Because
//! the simulator is a pure function of (spec, inputs), the replayed
//! system is bit-identical to the one the interrupted run had.
//!
//! Plain, checkpointed and resumed runs go through the same loop
//! ([`Experiment::run_scenario`] is the resumable run with no resume
//! point and a boundary that always continues), so they produce the
//! same series and trace output by construction.

use ckpt::wire::{Reader, Writer};
use ckpt::{CkptError, SnapshotWriter};
use websim::ServerConfig;

use crate::agent::{RacAgent, Tuner};
use crate::baseline::{StaticDefault, TrialAndError};
use crate::experiment::IterationRecord;
use crate::measure::MeasurementChannel;

/// A tuner whose complete decision-relevant state can be serialized
/// into a snapshot. Restoration is type-specific (each tuner has its
/// own `restore` constructor); this trait covers the saving side so a
/// checkpoint sink can snapshot whatever tuner it is driving.
pub trait PersistTuner: Tuner {
    /// Writes the tuner's state into the snapshot under construction.
    fn save_state(&self, snap: &mut SnapshotWriter);
}

impl PersistTuner for RacAgent {
    fn save_state(&self, snap: &mut SnapshotWriter) {
        RacAgent::save_state(self, snap);
    }
}

impl PersistTuner for TrialAndError {
    fn save_state(&self, snap: &mut SnapshotWriter) {
        TrialAndError::save_state(self, snap);
    }
}

impl PersistTuner for StaticDefault {
    fn save_state(&self, _snap: &mut SnapshotWriter) {
        // Stateless: a fresh StaticDefault is already fully restored.
    }
}

/// How far a scenario run has progressed: everything the resume replay
/// needs besides the tuner's own state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgress {
    /// Number of completed measurement iterations.
    pub iterations_done: usize,
    /// The records of those iterations, in order.
    pub series: Vec<IterationRecord>,
    /// The configuration the *next* interval will run under (the
    /// tuner's last decision, already applied to the system).
    pub next_config: ServerConfig,
    /// The measurement channel (circuit breaker) state at the
    /// boundary. Resume rebuilds the channel by replay and validates it
    /// against this record, so a kill inside an open-breaker window
    /// resumes exactly where it left off.
    pub channel: MeasurementChannel,
}

/// Serializes an iteration series (shared by [`ScenarioProgress`] and
/// the bench crate's whole-lineup checkpoint, which stores the series
/// of every already-finished tuner).
pub fn encode_series(w: &mut Writer, series: &[IterationRecord]) {
    w.put_usize(series.len());
    for rec in series {
        w.put_usize(rec.iteration);
        w.put_usize(rec.phase);
        w.put_f64(rec.response_ms);
        w.put_f64(rec.p95_ms);
        w.put_f64(rec.throughput_rps);
        crate::persist::encode_config(w, &rec.config);
    }
}

/// Restores a series written by [`encode_series`].
///
/// # Errors
///
/// Returns [`CkptError::Corrupt`] when the records are not numbered
/// `0..len` (a scenario series always is).
pub fn decode_series(r: &mut Reader<'_>) -> Result<Vec<IterationRecord>, CkptError> {
    let len = r.get_usize()?;
    let mut series = Vec::with_capacity(len.min(1 << 20));
    for i in 0..len {
        let rec = IterationRecord {
            iteration: r.get_usize()?,
            phase: r.get_usize()?,
            response_ms: r.get_f64()?,
            p95_ms: r.get_f64()?,
            throughput_rps: r.get_f64()?,
            config: crate::persist::decode_config(r)?,
        };
        if rec.iteration != i {
            return Err(CkptError::Corrupt {
                detail: format!("record {i} carries iteration number {}", rec.iteration),
            });
        }
        series.push(rec);
    }
    Ok(series)
}

impl ScenarioProgress {
    /// Serializes the progress record.
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.iterations_done);
        encode_series(w, &self.series);
        crate::persist::encode_config(w, &self.next_config);
        self.channel.encode(w);
    }

    /// Restores a progress record written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Corrupt`] when the series is internally
    /// inconsistent (length or iteration numbering).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let iterations_done = r.get_usize()?;
        let series = decode_series(r)?;
        if series.len() != iterations_done {
            return Err(CkptError::Corrupt {
                detail: format!(
                    "progress says {iterations_done} iterations but has {} records",
                    series.len()
                ),
            });
        }
        let next_config = crate::persist::decode_config(r)?;
        let channel = MeasurementChannel::decode(r)?;
        Ok(ScenarioProgress {
            iterations_done,
            series,
            next_config,
            channel,
        })
    }

    /// Checks that this progress can resume a session of `iterations`
    /// intervals: it holds one record per completed iteration, no more
    /// iterations than the session runs, and, with nothing completed,
    /// the channel state a fresh session starts from.
    pub(crate) fn check_resumes(&self, iterations: usize) -> Result<(), CkptError> {
        let done = self.iterations_done;
        let detail = if done > iterations {
            format!("checkpoint has {done} iterations, scenario only runs {iterations}")
        } else if self.series.len() != done {
            format!(
                "progress says {done} iterations but has {} records",
                self.series.len()
            )
        } else if done == 0 && self.channel != MeasurementChannel::default() {
            "measurement-channel state diverged on replay".to_string()
        } else {
            return Ok(());
        };
        Err(CkptError::Mismatch { detail })
    }
}

/// What the boundary callback tells the runner to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Keep running.
    Continue,
    /// Stop cleanly after this iteration (the caller has persisted the
    /// progress it needs to resume later).
    Stop,
}

/// How a resumable scenario run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRunOutcome {
    /// The full timeline ran; the complete series is returned.
    Complete(Vec<IterationRecord>),
    /// The boundary callback requested a stop; the progress describes
    /// the prefix that ran.
    Interrupted(ScenarioProgress),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use scenario::Scenario;
    use websim::SystemSpec;

    fn scenario() -> Scenario {
        Scenario::parse(
            "name mini\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 3\n\
             at 60s intensity 1.5\nfault at 150s outlier 4\nfault at 200s drop\n",
        )
        .unwrap()
    }

    fn experiment(scn: &Scenario) -> Experiment {
        Experiment::for_scenario(SystemSpec::default(), scn)
    }

    #[test]
    fn resumable_matches_run_scenario_when_uninterrupted() {
        let scn = scenario();
        let exp = experiment(&scn);
        let plain = exp.run_scenario(&scn, &mut StaticDefault::new());
        let outcome = exp
            .run_scenario_resumable(&scn, &mut StaticDefault::new(), None, |_, _| {
                Ok(BoundaryAction::Continue)
            })
            .unwrap();
        assert_eq!(outcome, ScenarioRunOutcome::Complete(plain));
    }

    #[test]
    fn stop_resume_is_bit_identical_for_every_boundary() {
        let scn = scenario();
        let exp = experiment(&scn);
        let full = exp.run_scenario(&scn, &mut StaticDefault::new());
        for stop_after in 1..scn.iterations() {
            let outcome = exp
                .run_scenario_resumable(&scn, &mut StaticDefault::new(), None, |p, _| {
                    Ok(if p.iterations_done >= stop_after {
                        BoundaryAction::Stop
                    } else {
                        BoundaryAction::Continue
                    })
                })
                .unwrap();
            let ScenarioRunOutcome::Interrupted(progress) = outcome else {
                panic!("run should stop after {stop_after} iterations");
            };
            assert_eq!(progress.iterations_done, stop_after);
            let resumed = exp
                .run_scenario_resumable(&scn, &mut StaticDefault::new(), Some(progress), |_, _| {
                    Ok(BoundaryAction::Continue)
                })
                .unwrap();
            assert_eq!(
                resumed,
                ScenarioRunOutcome::Complete(full.clone()),
                "resume after iteration {stop_after} diverged"
            );
        }
    }

    #[test]
    fn rac_agent_survives_stop_and_snapshot_resume() {
        let scn = scenario();
        let exp = experiment(&scn);
        let settings = crate::RacSettings {
            online_levels: 3,
            ..crate::RacSettings::default()
        };
        let full = exp.run_scenario(&scn, &mut RacAgent::new(settings.clone()));

        let stop_after = 3;
        let mut snapshot_bytes = Vec::new();
        let outcome = exp
            .run_scenario_resumable(&scn, &mut RacAgent::new(settings), None, |p, tuner| {
                if p.iterations_done == stop_after {
                    let mut snap = SnapshotWriter::new();
                    tuner.save_state(&mut snap);
                    snapshot_bytes = snap.to_bytes();
                    Ok(BoundaryAction::Stop)
                } else {
                    Ok(BoundaryAction::Continue)
                }
            })
            .unwrap();
        let ScenarioRunOutcome::Interrupted(progress) = outcome else {
            panic!("run should have stopped");
        };
        // Rebuild the agent purely from the snapshot bytes, as a new
        // process would.
        let snap = ckpt::Snapshot::from_bytes(&snapshot_bytes).unwrap();
        let mut agent = RacAgent::restore(&snap, None).unwrap();
        let resumed = exp
            .run_scenario_resumable(&scn, &mut agent, Some(progress), |_, _| {
                Ok(BoundaryAction::Continue)
            })
            .unwrap();
        assert_eq!(resumed, ScenarioRunOutcome::Complete(full));
    }

    #[test]
    fn stop_resume_through_an_open_breaker_window_is_bit_identical() {
        // A blackout long enough to trip the breaker and keep it open
        // across several boundaries, plus a one-shot timeout later.
        let scn = Scenario::parse(
            "name outage\nduration 600s\ninterval 60s\nwarmup 60s\nclients 60\nseed 3\n\
             fault at 120s blackout for 180s\nfault at 420s timeout\n",
        )
        .unwrap();
        let exp = experiment(&scn);
        let settings = crate::RacSettings {
            online_levels: 3,
            ..crate::RacSettings::default()
        };
        let full = exp.run_scenario(&scn, &mut RacAgent::new(settings.clone()));
        for stop_after in 1..scn.iterations() {
            let mut snapshot_bytes = Vec::new();
            let outcome = exp
                .run_scenario_resumable(
                    &scn,
                    &mut RacAgent::new(settings.clone()),
                    None,
                    |p, tuner| {
                        if p.iterations_done == stop_after {
                            let mut snap = SnapshotWriter::new();
                            tuner.save_state(&mut snap);
                            snapshot_bytes = snap.to_bytes();
                            Ok(BoundaryAction::Stop)
                        } else {
                            Ok(BoundaryAction::Continue)
                        }
                    },
                )
                .unwrap();
            let ScenarioRunOutcome::Interrupted(progress) = outcome else {
                panic!("run should stop after {stop_after} iterations");
            };
            // The breaker state is part of the progress record and
            // round-trips with it.
            let mut w = Writer::new();
            progress.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, "t");
            let back = ScenarioProgress::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, progress);

            let snap = ckpt::Snapshot::from_bytes(&snapshot_bytes).unwrap();
            let mut agent = RacAgent::restore(&snap, None).unwrap();
            let resumed = exp
                .run_scenario_resumable(&scn, &mut agent, Some(back), |_, _| {
                    Ok(BoundaryAction::Continue)
                })
                .unwrap();
            assert_eq!(
                resumed,
                ScenarioRunOutcome::Complete(full.clone()),
                "resume after iteration {stop_after} diverged"
            );
        }
    }

    #[test]
    fn resume_past_the_timeline_is_a_mismatch() {
        let scn = scenario();
        let exp = experiment(&scn);
        let full = exp.run_scenario(&scn, &mut StaticDefault::new());
        let progress = |iterations_done: usize, records: usize| ScenarioProgress {
            iterations_done,
            series: full[..records].to_vec(),
            next_config: ServerConfig::default(),
            channel: MeasurementChannel::default(),
        };
        let mut tripped = progress(0, 0);
        tripped.channel.set_blackout(true);
        // Past the timeline; a series shorter, then longer, than the
        // completed iterations; a fresh start whose channel state no
        // replay produces.
        for bogus in [progress(99, 0), progress(3, 2), progress(2, 3), tripped] {
            let err = exp
                .run_scenario_resumable(&scn, &mut StaticDefault::new(), Some(bogus), |_, _| {
                    Ok(BoundaryAction::Continue)
                })
                .unwrap_err();
            assert!(matches!(err, CkptError::Mismatch { .. }), "{err}");
        }
    }

    #[test]
    fn progress_round_trips() {
        let scn = scenario();
        let exp = experiment(&scn);
        let outcome = exp
            .run_scenario_resumable(&scn, &mut StaticDefault::new(), None, |p, _| {
                Ok(if p.iterations_done >= 2 {
                    BoundaryAction::Stop
                } else {
                    BoundaryAction::Continue
                })
            })
            .unwrap();
        let ScenarioRunOutcome::Interrupted(progress) = outcome else {
            panic!("expected interruption");
        };
        let mut w = Writer::new();
        progress.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        let back = ScenarioProgress::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, progress);
    }
}
