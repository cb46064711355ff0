//! Differential golden suite for the hot-path rewrites.
//!
//! A rewrite of the simulator or the tuner (the future-event list, its
//! CPU-tick side list, the Q-sweep order, batched interval statistics)
//! is only admissible if it is *invisible* to every simulation output.
//! This suite pins the `figures scenario` CSV **and** decision-trace
//! bytes for all three bundled scenarios, at both ends of the
//! `RAC_THREADS` matrix that CI exercises (1 and 8 worker threads): the
//! goldens were captured before the rewrites, so any behavioral drift
//! one introduces — a reordered tie, a float rounded differently, an
//! event popped in another order — fails byte comparison here.
//!
//! The same exact-bytes check pins an `Experiment::run` phase schedule
//! (`phases.csv` / `phases.trace.jsonl`), so paper-figure sessions and
//! scenario sessions are both covered by a golden, and a quick `stormy`
//! tournament (`bench-tournament-stormy.csv`) pins generated scenarios:
//! the most varied traffic the simulator serves.
//!
//! Regenerate (only after an *intentional* output change) with:
//!
//! ```text
//! RAC_UPDATE_GOLDEN=1 cargo test -p rac-integration --test bench
//! ```

use std::fmt::Write;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use obs::trace::{self, TraceWriter};
use rac::runner::Runner;
use rac::{
    paper_contexts, train_initial_policy, ConfigLattice, Experiment, OfflineSettings,
    PolicyLibrary, RacAgent, SimMeasurer, SlaReward, StaticDefault, TrialAndError, Tuner,
};
use rac_bench::scenario::{resolve, run_tuners, scenario_table};
use rac_bench::tournament::{self, TournamentOptions};
use rac_bench::{paper_system_spec, standard_settings, ONLINE_LEVELS, SLA_MS};
use scenario::Difficulty;
use simkernel::SimDuration;

/// Same deterministic single-context library the scenario suite trains:
/// shopping @ Level-1, where every bundled scenario starts.
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
    let settings = OfflineSettings { group_levels: 2 };
    let policy = train_initial_policy(&lattice, SlaReward::new(SLA_MS), settings, measurer)
        .expect("offline landscape fits");
    let mut lib = PolicyLibrary::new();
    lib.insert(ctx, policy);
    lib
}

fn runner_1() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(|| Runner::new(1))
}

fn runner_8() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(|| Runner::new(8))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(name)
}

/// Exact-bytes comparison; with `RAC_UPDATE_GOLDEN` set, rewrites the
/// golden instead (capturing the current tree as the new reference).
fn check_golden_exact(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("RAC_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("updated golden {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with RAC_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name}: output drifted from the pre-optimization golden \
         (the hot-path rewrites must be byte-invisible)"
    );
}

/// Runs one bundled scenario at quick scale (the same 1/3 reduction
/// `figures scenario <name> --quick` applies) through the standard
/// three-tuner line-up on an explicit runner, returning the series CSV
/// and the serialized decision trace.
fn run_quick(name: &str, runner: &'static Runner) -> (String, String) {
    let library = library_on(runner);
    let scn = resolve(name).expect("bundled").scaled(1, 3);
    let writer = Arc::new(TraceWriter::new());
    let mut csv = String::new();
    trace::with_writer(&writer, || {
        let series = run_tuners(&scn, &library);
        csv = scenario_table(&scn, &series).render_csv();
    });
    (csv, writer.serialize())
}

/// One golden per scenario: the 1-thread run must match the pinned
/// bytes, and the 8-thread run must match the *same* bytes, so a single
/// test proves both "rewrites changed nothing" and "output independent
/// of RAC_THREADS".
fn check_scenario(name: &str) {
    let (csv_1, trace_1) = run_quick(name, runner_1());
    check_golden_exact(&format!("bench-{name}.csv"), &csv_1);
    check_golden_exact(&format!("bench-{name}.trace.jsonl"), &trace_1);
    let (csv_8, trace_8) = run_quick(name, runner_8());
    assert_eq!(
        csv_1, csv_8,
        "{name}: series CSV diverged between RAC_THREADS=1 and 8"
    );
    assert_eq!(
        trace_1, trace_8,
        "{name}: decision trace diverged between RAC_THREADS=1 and 8"
    );
}

#[test]
fn diurnal_output_pinned_across_rewrites_and_thread_counts() {
    check_scenario("diurnal");
}

#[test]
fn flash_crowd_output_pinned_across_rewrites_and_thread_counts() {
    check_scenario("flash-crowd");
}

#[test]
fn degrade_output_pinned_across_rewrites_and_thread_counts() {
    check_scenario("degrade");
}

/// A Figure-5-shaped phase schedule (`Experiment::run`, not a scenario):
/// the three paper contexts with short intervals, run by RAC on the
/// single-context library, trial-and-error and the static default under
/// one trace writer. Returns every record as CSV, and the trace.
fn run_phases(runner: &'static Runner) -> (String, String) {
    let library = library_on(runner);
    let contexts = paper_contexts();
    let exp = Experiment::new(paper_system_spec())
        .with_interval(SimDuration::from_secs(120))
        .with_warmup(SimDuration::from_secs(120))
        .then(contexts[0], 5)
        .then(contexts[1], 5)
        .then(contexts[2], 5);
    let writer = Arc::new(TraceWriter::new());
    let mut csv = String::from("arm,iteration,phase,response_ms,p95_ms,throughput_rps,config\n");
    trace::with_writer(&writer, || {
        let mut rac_agent = RacAgent::with_policy_library(standard_settings(), library);
        let mut tae = TrialAndError::new(ONLINE_LEVELS);
        let mut dflt = StaticDefault::new();
        let arms: [(&str, &mut dyn Tuner); 3] = [
            ("RAC", &mut rac_agent),
            ("trial-and-error", &mut tae),
            ("static default", &mut dflt),
        ];
        for (name, tuner) in arms {
            for r in exp.run(tuner) {
                let _ = writeln!(
                    csv,
                    "{name},{},{},{},{},{},{}",
                    r.iteration, r.phase, r.response_ms, r.p95_ms, r.throughput_rps, r.config
                );
            }
        }
    });
    (csv, writer.serialize())
}

#[test]
fn phase_schedule_output_pinned_across_thread_counts() {
    let (csv_1, trace_1) = run_phases(runner_1());
    check_golden_exact("phases.csv", &csv_1);
    check_golden_exact("phases.trace.jsonl", &trace_1);
    let (csv_8, trace_8) = run_phases(runner_8());
    assert_eq!(
        csv_1, csv_8,
        "phase series diverged between RAC_THREADS=1 and 8"
    );
    assert_eq!(
        trace_1, trace_8,
        "phase trace diverged between RAC_THREADS=1 and 8"
    );
}

/// `figures tournament 6 --quick --profile stormy` (seed 42): six
/// generated scenarios with stalls, blackouts, heavy tails, mix drift
/// and VM reallocation, each run by all three arms from cold. It fires
/// every simulator event kind but the stale fault clear, which
/// `websim`'s pinned schedule covers. The matchups run on the global
/// runner, so CI checks this golden at `RAC_THREADS` 1 and 8.
#[test]
fn stormy_tournament_matchups_pinned() {
    let opts = TournamentOptions {
        scenarios: 6,
        seed: 42,
        quick: true,
        profile: Some(Difficulty::Stormy),
    };
    let csv = tournament::matchups_table(&tournament::run(&opts)).render_csv();
    check_golden_exact("bench-tournament-stormy.csv", &csv);
}
