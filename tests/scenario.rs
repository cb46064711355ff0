//! Scenario-engine integration tests.
//!
//! Two guarantees are pinned here, both flowing through the same
//! helpers the `figures scenario` subcommand uses:
//!
//! 1. **Golden figure** — the quick-scale diurnal scenario produces a
//!    byte-exact CSV (no tolerance: a scenario run is a pure function of
//!    (spec, scenario, seed), so any drift is a real behavior change).
//!    Regenerate after an intentional change with:
//!
//!    ```text
//!    RAC_UPDATE_GOLDEN=1 cargo test -p rac-integration --test scenario
//!    ```
//!
//! 2. **Determinism** — the full flash-crowd run (series CSV *and* the
//!    decision/scenario-event trace) is bit-identical whether the
//!    offline policy library was trained on 1 or 8 runner threads; the
//!    online run itself is sequential by construction.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use obs::trace::{self, TraceWriter};
use rac::runner::Runner;
use rac::{
    paper_contexts, train_initial_policy, ConfigLattice, OfflineSettings, PolicyLibrary,
    SimMeasurer, SlaReward,
};
use rac_bench::scenario::{resolve, run_tuners, scenario_table};
use rac_bench::{paper_system_spec, ONLINE_LEVELS, SLA_MS};
use simkernel::SimDuration;

/// Trains a small deterministic policy library for the shopping @
/// Level-1 context (where every bundled scenario starts) on an explicit
/// runner, so tests can compare libraries built at different thread
/// counts.
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

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(name)
}

/// Exact-bytes golden comparison (scenario runs are deterministic, so
/// unlike the figure goldens there is no numeric tolerance). With
/// `RAC_UPDATE_GOLDEN` set, rewrites the golden instead.
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
        "{name}: scenario CSV drifted from the pinned golden \
         (runs are deterministic — regenerate only for intentional changes)"
    );
}

#[test]
fn diurnal_quick_scenario_matches_pinned_golden() {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    let library = library_on(RUNNER.get_or_init(|| Runner::new(4)));
    // The same 1/3 reduction `figures scenario diurnal --quick` applies.
    let scn = resolve("diurnal").expect("bundled").scaled(1, 3);
    let series = run_tuners(&scn, &library);
    let table = scenario_table(&scn, &series);
    assert_eq!(table.len(), scn.iterations());
    check_golden_exact("scenario-diurnal-quick.csv", &table.render_csv());
}

#[test]
fn flash_crowd_run_is_bit_identical_across_runner_thread_counts() {
    static RUNNER_1: OnceLock<Runner> = OnceLock::new();
    static RUNNER_8: OnceLock<Runner> = OnceLock::new();
    let run = |runner: &'static Runner| {
        let library = library_on(runner);
        let scn = resolve("flash-crowd").expect("bundled");
        let writer = Arc::new(TraceWriter::new());
        let mut csv = String::new();
        trace::with_writer(&writer, || {
            let series = run_tuners(&scn, &library);
            csv = scenario_table(&scn, &series).render_csv();
        });
        (csv, writer.serialize())
    };
    let (csv_1, trace_1) = run(RUNNER_1.get_or_init(|| Runner::new(1)));
    let (csv_8, trace_8) = run(RUNNER_8.get_or_init(|| Runner::new(8)));
    assert_eq!(
        csv_1, csv_8,
        "flash-crowd series diverged between 1- and 8-thread library training"
    );
    assert_eq!(
        trace_1, trace_8,
        "flash-crowd trace diverged between 1- and 8-thread library training"
    );
    assert!(
        trace_1.contains("scenario_event"),
        "trace must record the timeline injections"
    );
    // The spike must actually be offered: the client column exceeds the
    // scenario's base population somewhere mid-run.
    let scn = resolve("flash-crowd").unwrap();
    let base = scn.clients.expect("flash-crowd pins clients");
    let peak = csv_1
        .lines()
        .skip(1)
        .filter_map(|l| l.split(',').nth(2))
        .filter_map(|c| c.parse::<usize>().ok())
        .max()
        .unwrap_or(0);
    assert!(
        peak > base,
        "flash crowd never materialized: peak {peak} <= base {base}"
    );
}
