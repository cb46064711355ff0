//! Chaos-harness integration tests.
//!
//! Every chaos run is a pure function of its seed: the fault schedule
//! comes from a `simkernel` RNG stream and the run itself from the
//! scenario's seed, so the invariants pinned here are exact, not
//! statistical:
//!
//! 1. **No panics, bounded damage** — for each pinned seed the run
//!    completes, violation streaks stay within the harness bound, and
//!    the agent is back inside the SLA within the grace window after
//!    the last fault clears.
//! 2. **Bit-identical replay** — series *and* decision/guardrail trace
//!    are byte-equal across repeated in-process runs. (The CI chaos job
//!    additionally compares whole-process runs at `RAC_THREADS=1` vs
//!    `8`.)
//! 3. **Kill-and-resume through an outage** — a run stopped at a
//!    boundary inside the guaranteed blackout window (breaker open,
//!    agent degraded) and resumed from the snapshot finishes exactly
//!    like one that was never interrupted, and so does a line-up killed
//!    at every seeded point and resumed each time from its checkpoint
//!    file.

use std::sync::Arc;

use ckpt::wire::{Reader, Writer};
use ckpt::{Snapshot, SnapshotWriter};
use obs::trace::{self, TraceWriter};
use rac::{
    BoundaryAction, Experiment, IterationRecord, RacAgent, ScenarioProgress, ScenarioRunOutcome,
};
use rac_bench::chaos::{
    chaos_scenario, chaos_table, check_invariants, kill_points, last_fault_clear_iteration,
    run_chaos, DEFAULT_ITERATIONS, PINNED_SEEDS, RECOVERY_GRACE,
};
use rac_bench::checkpoint::{run_lineup, CheckpointOptions, LineupCommand, LineupOutcome};
use rac_bench::{paper_system_spec, standard_settings};
use scenario::Directive;

fn traced_run(seed: u64) -> (Vec<IterationRecord>, String) {
    let scn = chaos_scenario(seed, DEFAULT_ITERATIONS);
    let writer = Arc::new(TraceWriter::new());
    let mut series = Vec::new();
    trace::with_writer(&writer, || series = run_chaos(&scn));
    (series, writer.serialize())
}

#[test]
fn pinned_seeds_hold_the_chaos_invariants() {
    for seed in PINNED_SEEDS {
        let scn = chaos_scenario(seed, DEFAULT_ITERATIONS);
        let (series, trace) = traced_run(seed);
        let violations = check_invariants(&scn, &series);
        assert!(
            violations.is_empty(),
            "seed {seed} violated chaos invariants: {violations:?}"
        );
        assert_eq!(chaos_table(&series).len(), scn.iterations());
        // The guaranteed blackout must actually walk the breaker
        // through its lifecycle, visibly in the trace.
        for action in ["\"trip\"", "\"probe\"", "\"recover\""] {
            assert!(
                trace.contains(action),
                "seed {seed}: trace records no {action} guardrail event"
            );
        }
    }
}

#[test]
fn chaos_runs_replay_bit_identically() {
    for seed in PINNED_SEEDS {
        let (series_a, trace_a) = traced_run(seed);
        let (series_b, trace_b) = traced_run(seed);
        assert_eq!(series_a, series_b, "seed {seed}: series diverged on replay");
        assert_eq!(trace_a, trace_b, "seed {seed}: trace diverged on replay");
    }
}

#[test]
fn kill_and_resume_inside_the_outage_matches_uninterrupted() {
    let seed = PINNED_SEEDS[0];
    let scn = chaos_scenario(seed, DEFAULT_ITERATIONS);
    let exp = Experiment::for_scenario(paper_system_spec(), &scn);
    let full = run_chaos(&scn);

    // Stop at the first boundary after the blackout onset: the breaker
    // is tripping or already open, the agent degraded.
    let blackout_iter = scn
        .directives
        .iter()
        .find_map(|d| match d {
            Directive::Blackout { t, .. } => {
                Some((t.as_micros() / scn.interval.as_micros()) as usize)
            }
            _ => None,
        })
        .expect("chaos schedules always include a blackout");
    let stop_after = (blackout_iter + 2).min(scn.iterations() - 1);

    let mut snapshot_bytes = Vec::new();
    let outcome = exp
        .run_scenario_resumable(
            &scn,
            &mut RacAgent::new(standard_settings()),
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
        .expect("interrupted run");
    let ScenarioRunOutcome::Interrupted(progress) = outcome else {
        panic!("run should stop after {stop_after} iterations");
    };
    assert!(
        progress.channel.is_open(),
        "stop at iteration {stop_after} should land inside the outage window"
    );

    // Model the kill: progress goes through its wire form, the agent
    // through snapshot bytes, as if reloaded in a fresh process.
    let mut w = Writer::new();
    progress.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes, "chaos");
    let restored_progress = ScenarioProgress::decode(&mut r).expect("progress decodes");
    r.finish().expect("progress fully consumed");
    let snap = Snapshot::from_bytes(&snapshot_bytes).expect("snapshot parses");
    let mut agent = RacAgent::restore(&snap, None).expect("agent restores");
    assert!(agent.is_degraded(), "restored agent must still be degraded");

    let resumed = exp
        .run_scenario_resumable(&scn, &mut agent, Some(restored_progress), |_, _| {
            Ok(BoundaryAction::Continue)
        })
        .expect("resumed run");
    assert_eq!(
        resumed,
        ScenarioRunOutcome::Complete(full),
        "resume through the open-breaker window diverged"
    );
}

#[test]
fn seeded_kill_arm_composes_with_measurement_faults() {
    // The `kill` fault arm: several seeded process deaths in one run,
    // composed with the schedule's blackout/timeout faults. Each kill
    // stops a cold-started line-up, which leaves its checkpoint file,
    // and the next run resumes from that file. RAC's series must match
    // an uninterrupted chaos run exactly, the line-up an uninterrupted
    // line-up, and at least one kill must land while the breaker is
    // open (death *inside* the outage).
    for seed in PINNED_SEEDS {
        let scn = chaos_scenario(seed, DEFAULT_ITERATIONS);
        let points = kill_points(seed, &scn);
        assert!(
            points.len() >= 2,
            "seed {seed}: kill schedule too thin: {points:?}"
        );
        assert_eq!(
            points,
            kill_points(seed, &scn),
            "seed {seed}: kill schedule not deterministic"
        );
        let dir =
            std::env::temp_dir().join(format!("rac-chaos-kill-{seed}-{}", std::process::id()));
        let options = CheckpointOptions {
            path: dir.join("chaos.ckpt"),
            every: 0,
            stop_after: None,
        };
        let mut in_outage = 0;
        let mut snap = None;
        for &point in &points {
            let outcome = run_lineup(&scn, None, Some(&options), snap.as_ref(), |s| {
                if s.global_iteration != point {
                    return LineupCommand::Continue;
                }
                in_outage += usize::from(s.breaker_open);
                LineupCommand::Stop
            })
            .expect("killed line-up");
            assert!(
                matches!(outcome, LineupOutcome::Interrupted { global_iterations } if global_iterations == point),
                "seed {seed}: line-up not killed at {point}"
            );
            snap = Some(Snapshot::load(&options.path).expect("the kill leaves a snapshot"));
        }
        let killed = match run_lineup(&scn, None, Some(&options), snap.as_ref(), |_| {
            LineupCommand::Continue
        })
        .expect("resumed line-up")
        {
            LineupOutcome::Complete(series) => series,
            LineupOutcome::Interrupted { .. } => panic!("seed {seed}: resume should finish"),
        };
        assert!(
            in_outage >= 1,
            "seed {seed}: no kill landed inside the open-breaker window ({points:?})"
        );
        assert_eq!(
            killed[0].1,
            run_chaos(&scn),
            "seed {seed}: kill arm diverged from the uninterrupted chaos run"
        );
        let whole = run_lineup(&scn, None, None, None, |_| LineupCommand::Continue)
            .expect("uninterrupted line-up");
        assert!(
            matches!(whole, LineupOutcome::Complete(series) if series == killed),
            "seed {seed}: killed line-up diverged from the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_window_lies_inside_the_run() {
    for seed in PINNED_SEEDS {
        let scn = chaos_scenario(seed, DEFAULT_ITERATIONS);
        let clear = last_fault_clear_iteration(&scn);
        assert!(
            clear + RECOVERY_GRACE <= scn.iterations(),
            "seed {seed}: recovery window [{clear}, {}) overruns the {}-iteration run",
            clear + RECOVERY_GRACE,
            scn.iterations()
        );
    }
}
