//! The perf-trajectory suite behind `figures bench`.
//!
//! Measures the numbers every future PR is judged against, each on a
//! path users run: Q-sweep updates/sec through
//! [`rl::batch_value_sweep_report`] (the agent's per-interval
//! retraining), iterations/sec through
//! [`rac::Experiment::run_scenario`] on the bundled scenarios, fleet
//! throughput (tenants/sec through [`fleet::FleetRun`] at a fixed
//! roster size), tournament throughput (generated scenarios/sec
//! through the three-arm line-up of [`crate::tournament`]), and daemon
//! crash-recovery throughput (recoveries/sec through the
//! snapshot-restore-replay path `racd` takes after a kill).
//!
//! Problem sizes are identical in quick and full mode; quick only
//! reduces the repeat count. Throughputs are therefore comparable
//! across modes, which is what lets CI run the quick suite and check it
//! against a committed full-mode `BENCH_<n>.json` with a generous
//! regression floor.

use std::path::Path;
use std::time::Instant;

use rac::{
    train_initial_policy, Action, ConfigLattice, ConfigMdp, Experiment, OfflineSettings,
    PolicyLibrary, RacAgent, Runner, SimMeasurer, SlaReward,
};
use rl::{batch_value_sweep_report, Environment, QLearning, QTable};
use scenario::Scenario;
use simkernel::SimDuration;

use crate::{paper_system_spec, standard_settings, ONLINE_LEVELS, SLA_MS};

/// The perf-trajectory version this suite emits; the `<n>` of
/// `BENCH_<n>.json` tracks the PR sequence (see DESIGN.md), and
/// `figures bench` writes `BENCH_{BENCH_VERSION}.json` by default.
pub const BENCH_VERSION: u32 = 18;

/// CI regression floor: a quick-mode median below `floor × committed
/// median` fails the build.
pub const REGRESSION_FLOOR: f64 = 0.5;

/// Full-table passes per Q-sweep sample at `ONLINE_LEVELS`.
const SWEEP_PASSES: usize = 4;
/// Roster size of the fleet-throughput benchmark (identical in quick
/// and full mode).
const FLEET_TENANTS: usize = 8;
/// Timeline compression of the fleet benchmark's scenarios.
const FLEET_SCALE_DEN: u64 = 60;
/// Generated scenarios per tournament-throughput sample (one per
/// difficulty, quick-scaled — identical in quick and full mode).
const TOURNAMENT_SCENARIOS: usize = 3;
/// Lineup iterations completed before the daemon-recovery benchmark's
/// snapshot is taken — mid second tuner, so tuner restore, progress
/// decode, and prefix replay are all on the timed recovery path.
const RECOVERY_STOP_AFTER: usize = 8;
/// Recovery cycles per daemon-recovery sample (identical in quick and
/// full mode).
const RECOVERY_CYCLES: usize = 4;

/// One benchmark's samples plus its summary statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable identifier, e.g. `qsweep.updates_per_sec`.
    pub name: String,
    /// Unit of every sample (throughputs: higher is better).
    pub unit: &'static str,
    /// Raw per-repeat measurements.
    pub samples: Vec<f64>,
}

impl BenchResult {
    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// Median of the samples (mean of the middle two for even counts).
    pub fn median(&self) -> f64 {
        let s = self.sorted();
        let mid = s.len() / 2;
        if s.len() % 2 == 1 {
            s[mid]
        } else {
            (s[mid - 1] + s[mid]) / 2.0
        }
    }

    /// `(p25, p75)` by nearest-rank on the sorted samples — the IQR
    /// endpoints reported in `BENCH_<n>.json`.
    pub fn iqr(&self) -> (f64, f64) {
        let s = self.sorted();
        let rank = |q: f64| s[(((s.len() - 1) as f64) * q).round() as usize];
        (rank(0.25), rank(0.75))
    }
}

/// Suite configuration.
#[derive(Debug, Clone, Copy)]
pub struct SuiteOptions {
    /// Reduce repeat counts (problem sizes stay identical).
    pub quick: bool,
}

impl SuiteOptions {
    fn sweep_repeats(&self) -> usize {
        if self.quick {
            3
        } else {
            7
        }
    }
    /// Repeats of every end-to-end entry: scenario, fleet, tournament
    /// and daemon recovery.
    fn run_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// Everything `figures bench` writes into `BENCH_<n>.json`.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// All benchmark results, in run order.
    pub results: Vec<BenchResult>,
    /// Whether the suite ran in quick mode.
    pub quick: bool,
}

// ---------------------------------------------------------------------------
// Q-sweep benchmark

/// The paper-scale planning problem: the full `ONLINE_LEVELS` lattice
/// with a non-trivial performance map.
fn sweep_mdp() -> ConfigMdp {
    let lattice = ConfigLattice::new(ONLINE_LEVELS);
    let mut mdp = ConfigMdp::new(&lattice, SlaReward::new(SLA_MS));
    for s in 0..lattice.num_states() {
        mdp.set_perf(s, 100.0 + (s % 1_000) as f64);
    }
    mdp
}

fn qsweep_updates_per_sec(mdp: &ConfigMdp) -> f64 {
    let mut q = QTable::new(mdp.num_states(), Action::COUNT);
    let learner = QLearning::new(rac::ALPHA, rac::GAMMA);
    let started = Instant::now();
    let report = batch_value_sweep_report(mdp, &mut q, &learner, 0.0, SWEEP_PASSES);
    let elapsed = started.elapsed().as_secs_f64();
    std::hint::black_box(&q);
    report.updates as f64 / elapsed
}

// ---------------------------------------------------------------------------
// Scenario benchmark

/// Trains the small deterministic policy library the scenario benchmark
/// seeds the RAC agent from (shopping @ Level-1, where every bundled
/// scenario starts) — offline training happens once, outside any timed
/// region.
fn bench_library() -> PolicyLibrary {
    let ctx = rac::paper_contexts()[0];
    let lattice = ConfigLattice::new(ONLINE_LEVELS);
    let spec = paper_system_spec().with_mix(ctx.mix).with_level(ctx.level);
    let measurer = SimMeasurer::on_runner(
        Runner::global(),
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

/// Times one full `Experiment::run_scenario` of the RAC agent through a
/// quick-scaled scenario (the same 1/3 reduction `figures scenario
/// --quick` applies — identical in quick and full bench mode), returning
/// tuning iterations/sec.
fn scenario_iterations_per_sec(scn: &Scenario, library: &PolicyLibrary) -> f64 {
    let exp = Experiment::for_scenario(paper_system_spec(), scn);
    let mut agent = RacAgent::with_policy_library(standard_settings(), library.clone());
    let started = Instant::now();
    let series = exp.run_scenario(scn, &mut agent);
    let elapsed = started.elapsed().as_secs_f64();
    series.len() as f64 / elapsed
}

// ---------------------------------------------------------------------------
// Fleet benchmark

/// Times a full fixed-size fleet — roster generation, every tenant's
/// experiment, and nearest-neighbor policy transfer — over the global
/// runner, returning tenants/sec. Matched controls are disabled: they
/// double warm-tenant cost without exercising any additional machinery,
/// and this benchmark tracks fleet *throughput*, not the transfer
/// headline.
fn fleet_tenants_per_sec() -> f64 {
    let config = fleet::FleetConfig {
        tenants: FLEET_TENANTS,
        seed: 42,
        cold: 2,
        chunk: 3,
        scale_den: FLEET_SCALE_DEN,
        online_levels: ONLINE_LEVELS,
        control: false,
        // Ungated so the warm-start path runs for every post-wave
        // tenant regardless of roster geometry.
        radius: 2.0,
    };
    let mut run = fleet::FleetRun::new(config).expect("bench fleet config is valid");
    let runner = Runner::global();
    let started = Instant::now();
    while !run.is_complete() {
        run.step(runner).expect("bench fleet step succeeds");
    }
    FLEET_TENANTS as f64 / started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Daemon-recovery benchmark

/// The small fixed scenario the recovery benchmark cycles through —
/// the same shape the daemon lifecycle tests drain, small enough that
/// one recovery is milliseconds, not seconds.
fn recovery_scenario() -> Scenario {
    Scenario::parse(
        "name recovery\nduration 360s\ninterval 60s\nwarmup 60s\nclients 60\nseed 5\n\
         at 60s intensity 1.4\nfault at 200s drop\n",
    )
    .expect("recovery benchmark scenario parses")
}

/// Runs the lineup to `RECOVERY_STOP_AFTER` iterations, checkpointing
/// to `path`, and returns the committed snapshot bytes — the untimed
/// setup for [`daemon_recoveries_per_sec`], standing in for the
/// checkpoint a killed daemon leaves behind. The library directory the
/// snapshot names stays beside `path`, where a resume looks for it.
fn prepare_recovery_snapshot(scn: &Scenario, library: &PolicyLibrary, path: &Path) -> Vec<u8> {
    let opts = crate::checkpoint::CheckpointOptions {
        path: path.to_path_buf(),
        every: 1,
        stop_after: Some(RECOVERY_STOP_AFTER),
    };
    let outcome = crate::checkpoint::run_tuners_checkpointed(scn, library, &opts, None)
        .expect("recovery snapshot run succeeds");
    assert!(
        matches!(
            outcome,
            crate::checkpoint::LineupOutcome::Interrupted { .. }
        ),
        "recovery snapshot run must stop mid-lineup"
    );
    std::fs::read(path).expect("recovery snapshot readable")
}

/// Times `racd`'s crash-recovery path: parse the committed snapshot,
/// restore the active tuner and lineup cursor, replay the completed
/// prefix deterministically, and run to the first live boundary (the
/// point at which a restarted attempt is provably making progress
/// again). The timed loop aborts at that boundary — aborts never write,
/// so no disk I/O pollutes the measurement. Returns recoveries/sec.
fn daemon_recoveries_per_sec(
    scn: &Scenario,
    library: &PolicyLibrary,
    checkpoint: &Path,
    snapshot: &[u8],
) -> f64 {
    let opts = crate::checkpoint::CheckpointOptions {
        // Never written: the schedule is disabled and the control
        // callback aborts before any flush. The resume reads the
        // library directory beside it.
        path: checkpoint.to_path_buf(),
        every: 0,
        stop_after: None,
    };
    let started = Instant::now();
    for _ in 0..RECOVERY_CYCLES {
        let snap = ckpt::Snapshot::from_bytes(snapshot).expect("recovery snapshot parses");
        let outcome = crate::checkpoint::run_tuners_checkpointed_with(
            scn,
            library,
            &opts,
            Some(&snap),
            |_| crate::checkpoint::LineupCommand::Abort,
        )
        .expect("recovery replay succeeds");
        std::hint::black_box(&outcome);
    }
    RECOVERY_CYCLES as f64 / started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Tournament benchmark

/// Times a small tournament — scenario generation plus the full
/// three-arm line-up per scenario, sharded over the global runner —
/// returning scenarios/sec. Quick-scaled timelines keep one sample in
/// the seconds range; the problem size never varies with suite mode.
fn tournament_scenarios_per_sec() -> f64 {
    let opts = crate::tournament::TournamentOptions {
        scenarios: TOURNAMENT_SCENARIOS,
        seed: 42,
        quick: true,
        profile: None,
    };
    let started = Instant::now();
    let matchups = crate::tournament::run(&opts);
    let elapsed = started.elapsed().as_secs_f64();
    std::hint::black_box(matchups);
    TOURNAMENT_SCENARIOS as f64 / elapsed
}

// ---------------------------------------------------------------------------
// Suite driver

/// Formats `x` with at least three significant digits: whole numbers
/// from 100 up, more decimals below (`1.01`, `0.300`), so a
/// tenants/sec median reads as precisely as an updates/sec one.
fn sig3(x: f64) -> String {
    let decimals = if x.is_finite() && x != 0.0 {
        (2 - x.abs().log10().floor() as i32).max(0) as usize
    } else {
        0
    };
    format!("{x:.decimals$}")
}

fn run_samples(repeats: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..repeats).map(|_| f()).collect()
}

/// Runs the whole suite, logging one line per benchmark to stderr.
pub fn run_suite(opts: &SuiteOptions) -> SuiteReport {
    let mut results = Vec::new();
    let mut push = |name: &str, unit: &'static str, samples: Vec<f64>| {
        let r = BenchResult {
            name: name.to_string(),
            unit,
            samples,
        };
        let (lo, hi) = r.iqr();
        eprintln!(
            "  [bench] {:<40} median {:>12} {} (IQR {}..{}, {} samples)",
            r.name,
            sig3(r.median()),
            r.unit,
            sig3(lo),
            sig3(hi),
            r.samples.len()
        );
        results.push(r);
    };

    let mdp = sweep_mdp();
    push(
        "qsweep.updates_per_sec",
        "updates/sec",
        run_samples(opts.sweep_repeats(), || qsweep_updates_per_sec(&mdp)),
    );

    eprintln!("  [bench] training policy library for scenario runs (untimed)");
    let library = bench_library();
    for name in crate::scenario::bundled_names() {
        let scn = crate::scenario::resolve(name)
            .expect("bundled scenario resolves")
            .scaled(1, 3);
        push(
            &format!("scenario_{}.iterations_per_sec", name.replace('-', "_")),
            "iterations/sec",
            run_samples(opts.run_repeats(), || {
                scenario_iterations_per_sec(&scn, &library)
            }),
        );
    }

    push(
        "fleet.tenants_per_sec",
        "tenants/sec",
        run_samples(opts.run_repeats(), fleet_tenants_per_sec),
    );

    push(
        "tournament.scenarios_per_sec",
        "scenarios/sec",
        run_samples(opts.run_repeats(), tournament_scenarios_per_sec),
    );

    eprintln!("  [bench] preparing daemon-recovery snapshot (untimed)");
    let recovery_scn = recovery_scenario();
    let recovery_dir =
        std::env::temp_dir().join(format!("rac-bench-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&recovery_dir).expect("recovery scratch dir");
    let recovery_ckpt = recovery_dir.join("seed.ckpt");
    let recovery_snapshot = prepare_recovery_snapshot(&recovery_scn, &library, &recovery_ckpt);
    push(
        "daemon.recoveries_per_sec",
        "recoveries/sec",
        run_samples(opts.run_repeats(), || {
            daemon_recoveries_per_sec(&recovery_scn, &library, &recovery_ckpt, &recovery_snapshot)
        }),
    );
    let _ = std::fs::remove_dir_all(&recovery_dir);

    SuiteReport {
        results,
        quick: opts.quick,
    }
}

impl SuiteReport {
    /// Median of a benchmark by name.
    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median())
    }

    /// Serializes the report as the `BENCH_<n>.json` document. Emitted
    /// by hand (the build is dependency-free); floats use Rust's
    /// shortest round-trip `Display`, so `parse_medians` reads back the
    /// exact values.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {BENCH_VERSION},\n"));
        out.push_str("  \"generated_by\": \"figures bench\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"env\": {\n");
        out.push_str(&format!("    \"os\": \"{}\",\n", std::env::consts::OS));
        out.push_str(&format!("    \"arch\": \"{}\",\n", std::env::consts::ARCH));
        out.push_str(&format!(
            "    \"rac_threads\": \"{}\",\n",
            std::env::var("RAC_THREADS").unwrap_or_else(|_| "default".into())
        ));
        out.push_str(&format!(
            "    \"debug_assertions\": {},\n",
            cfg!(debug_assertions)
        ));
        out.push_str(&format!(
            "    \"pkg_version\": \"{}\",\n",
            env!("CARGO_PKG_VERSION")
        ));
        out.push_str(&format!("    \"sweep_passes\": {SWEEP_PASSES},\n"));
        out.push_str(&format!("    \"fleet_tenants\": {FLEET_TENANTS},\n"));
        out.push_str(&format!(
            "    \"tournament_scenarios\": {TOURNAMENT_SCENARIOS},\n"
        ));
        out.push_str(&format!(
            "    \"recovery_stop_after\": {RECOVERY_STOP_AFTER},\n"
        ));
        out.push_str(&format!("    \"recovery_cycles\": {RECOVERY_CYCLES}\n"));
        out.push_str("  },\n");
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let (lo, hi) = r.iqr();
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
            out.push_str(&format!("      \"unit\": \"{}\",\n", r.unit));
            out.push_str(&format!("      \"median\": {},\n", r.median()));
            out.push_str(&format!("      \"iqr_low\": {lo},\n"));
            out.push_str(&format!("      \"iqr_high\": {hi},\n"));
            let samples: Vec<String> = r.samples.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!("      \"samples\": [{}]\n", samples.join(", ")));
            out.push_str(if i + 1 == self.results.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Extracts `(name, median)` pairs from a `BENCH_<n>.json` document.
///
/// A deliberately minimal scanner for the format [`SuiteReport::to_json`]
/// emits (the build has no JSON dependency): for each `"name"` key it
/// takes the following string, then the number after the next
/// `"median"` key.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_medians(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let open = rest
            .find('"')
            .ok_or_else(|| "unterminated name".to_string())?;
        rest = &rest[open + 1..];
        let close = rest
            .find('"')
            .ok_or_else(|| "unterminated name".to_string())?;
        let name = rest[..close].to_string();
        rest = &rest[close + 1..];
        let mpos = rest
            .find("\"median\"")
            .ok_or_else(|| format!("{name}: no median"))?;
        rest = &rest[mpos + "\"median\"".len()..];
        let colon = rest.find(':').ok_or_else(|| format!("{name}: no ':'"))?;
        rest = &rest[colon + 1..];
        let end = rest
            .find([',', '\n', '}'])
            .ok_or_else(|| format!("{name}: unterminated median"))?;
        let value: f64 = rest[..end]
            .trim()
            .parse()
            .map_err(|e| format!("{name}: bad median ({e})"))?;
        out.push((name, value));
        rest = &rest[end..];
    }
    if out.is_empty() {
        return Err("no benchmarks found".to_string());
    }
    Ok(out)
}

/// Compares a fresh (quick) run against a committed `BENCH_<n>.json`.
/// Returns one message per benchmark whose current median fell below
/// `floor ×` the committed median; an empty vector means no regression.
/// Benchmarks present on only one side are skipped (the committed file
/// is the contract; new benchmarks land with the PR that adds them).
pub fn check_regressions(
    committed: &[(String, f64)],
    current: &SuiteReport,
    floor: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, committed_median) in committed {
        let Some(current_median) = current.median_of(name) else {
            continue;
        };
        let threshold = committed_median * floor;
        if current_median < threshold {
            failures.push(format!(
                "{name}: current median {} < {floor}x committed {} (threshold {})",
                sig3(current_median),
                sig3(*committed_median),
                sig3(threshold)
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_of(entries: &[(&str, &[f64])]) -> SuiteReport {
        SuiteReport {
            results: entries
                .iter()
                .map(|(name, samples)| BenchResult {
                    name: name.to_string(),
                    unit: "events/sec",
                    samples: samples.to_vec(),
                })
                .collect(),
            quick: true,
        }
    }

    #[test]
    fn median_and_iqr() {
        let r = BenchResult {
            name: "x".into(),
            unit: "events/sec",
            samples: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(r.median(), 2.0);
        // Nearest-rank on 3 samples: ranks 0.5 and 1.5 both round away
        // from the median's own index only on the high side.
        assert_eq!(r.iqr(), (2.0, 3.0));
        let even = BenchResult {
            name: "y".into(),
            unit: "events/sec",
            samples: vec![4.0, 1.0, 3.0, 2.0],
        };
        assert_eq!(even.median(), 2.5);
    }

    #[test]
    fn json_round_trips_through_parse_medians() {
        let report = report_of(&[
            ("qsweep.updates_per_sec", &[1.5e7, 1.6e7, 1.4e7]),
            ("fleet.tenants_per_sec", &[0.744]),
        ]);
        let json = report.to_json();
        assert!(json.contains(&format!("\"version\": {BENCH_VERSION},")));
        let medians = parse_medians(&json).expect("self-emitted JSON parses");
        assert_eq!(medians.len(), 2);
        assert_eq!(medians[0].0, "qsweep.updates_per_sec");
        assert_eq!(medians[0].1, report.results[0].median());
        assert_eq!(medians[1].1, 0.744);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_medians("{}").is_err());
        assert!(parse_medians("\"name\": \"x\", \"median\": oops,").is_err());
    }

    #[test]
    fn regression_check_flags_only_real_regressions() {
        let committed = vec![
            ("qsweep.updates_per_sec".to_string(), 1000.0),
            ("daemon.recoveries_per_sec".to_string(), 500.0),
            ("retired_benchmark".to_string(), 9.0),
        ];
        // Sweep halved-minus-epsilon (fails at 0.5x floor), recovery
        // fine, retired benchmark skipped.
        let current = report_of(&[
            ("qsweep.updates_per_sec", &[499.0]),
            ("daemon.recoveries_per_sec", &[495.0]),
            ("brand_new_benchmark", &[1.0]),
        ]);
        let failures = check_regressions(&committed, &current, REGRESSION_FLOOR);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("qsweep.updates_per_sec"));
    }

    #[test]
    fn regression_message_keeps_small_medians_readable() {
        let committed = vec![("fleet.tenants_per_sec".to_string(), 0.744)];
        let current = report_of(&[("fleet.tenants_per_sec", &[0.30])]);
        let failures = check_regressions(&committed, &current, REGRESSION_FLOOR);
        assert_eq!(
            failures,
            vec![
                "fleet.tenants_per_sec: current median 0.300 < 0.5x committed 0.744 \
                 (threshold 0.372)"
                    .to_string()
            ]
        );
    }

    #[test]
    fn sig3_keeps_three_significant_digits() {
        assert_eq!(sig3(1.013), "1.01");
        assert_eq!(sig3(1.571), "1.57");
        assert_eq!(sig3(0.3), "0.300");
        assert_eq!(sig3(12.34), "12.3");
        assert_eq!(sig3(123_456.7), "123457");
        assert_eq!(sig3(0.0), "0");
    }
}
