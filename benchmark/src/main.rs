//! Probe binary of the repository benchmark.
//!
//! One invocation runs one *step* of a workload in a fresh process —
//! so the runner's memoizing cache always starts empty — and prints one
//! JSON object of raw measurements as its last stdout line. `run.py`
//! builds this package, composes steps into workloads, repeats them,
//! checks their outputs and aggregates the numbers.
//!
//! ```text
//! rac-benchmark <step> --seed S --dir D [--library L] [--scenarios N]
//!               [--trace] [--setup-only]
//! ```
//!
//! Steps: `cold` (empty policy cache → six-context library → plain
//! lineup), `train` (the library only, into `--dir`), `plain`,
//! `ckpt-full`, `ckpt-stop` and `ckpt-resume` (lineups over the cached
//! library in `--library`), and `tournament`. `--trace` replays the
//! step's loop with the timing wrappers of [`timed`]; `--setup-only`
//! stops after set-up. Outputs (`lineup.csv`, `scoreboard.csv`,
//! `policies.txt`) are written to `--dir` for the caller to compare.

mod procfs;
mod timed;

use std::cell::Cell;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ckpt::Snapshot;
use rac::{
    paper_contexts, train_initial_policy, Experiment, InitialPolicy, IterationRecord,
    PolicyLibrary, RacAgent, Runner, SimMeasurer, SlaReward, StaticDefault, TrialAndError, Tuner,
};
use rac_bench::checkpoint::{
    run_tuners_checkpointed_with, CheckpointOptions, LineupCommand, LineupOutcome,
};
use rac_bench::tournament::{self, ArmScore, Matchup, TournamentOptions};
use rac_bench::{cache, scenario as lineup, ONLINE_LEVELS, SLA_MS};
use scenario::Scenario;

use timed::{seconds, TimedMeasure, TimedTuner};

/// Snapshot cadence of `figures scenario --checkpoint` (its default).
const CHECKPOINT_EVERY: usize = 5;

/// Set by `run.py` to `time.time_ns()` just before it spawns this
/// process, so set-up time includes process start.
const SPAWN_ENV: &str = "RAC_BENCH_SPAWN_NS";

type Series = Vec<(&'static str, Vec<IterationRecord>)>;
type Result<T> = std::result::Result<T, String>;

struct Args {
    step: String,
    seed: u64,
    dir: PathBuf,
    library: Option<PathBuf>,
    scenarios: usize,
    trace: bool,
    setup_only: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args> {
        let step = raw.next().ok_or("missing step")?;
        let mut args = Args {
            step,
            seed: 0,
            dir: PathBuf::new(),
            library: None,
            scenarios: 0,
            trace: false,
            setup_only: false,
        };
        while let Some(flag) = raw.next() {
            let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--dir" => args.dir = PathBuf::from(value()?),
                "--library" => args.library = Some(PathBuf::from(value()?)),
                "--scenarios" => {
                    args.scenarios = value()?.parse().map_err(|e| format!("--scenarios: {e}"))?
                }
                "--trace" => args.trace = true,
                "--setup-only" => args.setup_only = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.dir.as_os_str().is_empty() {
            return Err("--dir is required".into());
        }
        Ok(args)
    }

    fn library(&self) -> Result<&Path> {
        self.library
            .as_deref()
            .ok_or_else(|| "--library is required".into())
    }
}

/// Flat `name → number` measurements, printed as one JSON line.
#[derive(Default)]
struct Report(Vec<(&'static str, f64)>);

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn secs(&mut self, name: &'static str, d: Duration) {
        self.set(name, d.as_secs_f64());
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            if value.is_finite() {
                let _ = write!(out, "{sep}\"{name}\":{value}");
            } else {
                let _ = write!(out, "{sep}\"{name}\":null");
            }
        }
        out.push('}');
        out
    }
}

/// Process-level clocks for one step: the spawn instant (for set-up
/// time) and the job's start (wall and CPU).
struct Clock {
    spawned: Instant,
    job: Option<(Instant, f64)>,
}

impl Clock {
    fn new() -> Clock {
        let now = Instant::now();
        let since_spawn = std::env::var(SPAWN_ENV)
            .ok()
            .and_then(|v| v.parse::<u128>().ok())
            .and_then(|spawn_ns| {
                let now_ns = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .ok()?
                    .as_nanos();
                let ns = now_ns.checked_sub(spawn_ns)?;
                Some(Duration::from_nanos(u64::try_from(ns).ok()?))
            })
            .unwrap_or_default();
        Clock {
            spawned: now.checked_sub(since_spawn).unwrap_or(now),
            job: None,
        }
    }

    /// Ends set-up: records `setup_s` and starts the job clocks.
    /// Returns `false` when the step should stop here.
    ///
    /// Run isolation: the process-wide runner memoizes every simulated
    /// point, so a job that found it populated would time a warm cache.
    fn start_job(&mut self, report: &mut Report, args: &Args) -> Result<bool> {
        report.secs("setup_s", self.spawned.elapsed());
        let entries = Runner::global().cache_stats().entries;
        if entries != 0 {
            return Err(format!(
                "runner cache holds {entries} entries before timing"
            ));
        }
        self.job = Some((Instant::now(), procfs::cpu_seconds()));
        Ok(!args.setup_only)
    }

    fn elapsed(&self) -> Duration {
        self.job.expect("job started").0.elapsed()
    }

    /// Ends the job: wall, CPU, memory and the program's own counters.
    fn finish_job(&self, report: &mut Report) {
        let (t0, cpu0) = self.job.expect("job started");
        let wall = t0.elapsed().as_secs_f64();
        let cpu_total = procfs::cpu_seconds();
        let runner = Runner::global();
        let threads = runner.threads();
        let stats = runner.cache_stats();
        let m = obs::Registry::global();
        report.set("job_s", wall);
        report.set("job_cpu_s", cpu_total - cpu0);
        report.set("proc_cpu_s", cpu_total);
        report.set("peak_rss_mb", procfs::peak_rss_mb());
        report.set("threads", threads as f64);
        report.set(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
        report.set("runner_hits", stats.hits as f64);
        report.set("runner_misses", stats.misses as f64);
        for (name, metric) in [
            ("runner_jobs", "rac_runner_jobs_total"),
            ("websim_intervals", "websim_intervals_total"),
            (
                "websim_requests_completed",
                "websim_requests_completed_total",
            ),
            ("agent_sweep_updates", "rac_agent_sweep_updates_total"),
            ("agent_sweep_passes", "rac_agent_sweep_passes_total"),
            ("ckpt_writes", "rac_ckpt_writes_total"),
            ("ckpt_bytes", "rac_ckpt_bytes_total"),
        ] {
            report.set(name, m.counter(metric).get() as f64);
        }
        report.set(
            "ckpt_write_s",
            m.histogram("rac_ckpt_write_us").sum_ms() / 1e3,
        );
        report.set(
            "ckpt_decode_s",
            m.histogram("rac_ckpt_restore_us").sum_ms() / 1e3,
        );
    }
}

fn main() {
    let mut clock = Clock::new();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rac-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = match args.step.as_str() {
        "cold" => cold(&args, &mut clock, &mut report),
        "train" => train(&args, &mut clock, &mut report),
        "plain" => plain(&args, &mut clock, &mut report),
        "ckpt-full" | "ckpt-stop" | "ckpt-resume" => checkpointed(&args, &mut clock, &mut report),
        "tournament" => run_tournament(&args, &mut clock, &mut report),
        other => Err(format!("unknown step {other}")),
    };
    match outcome {
        Ok(()) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("rac-benchmark {}: {e}", args.step);
            std::process::exit(1);
        }
    }
}

/// Bundled `diurnal` at `--quick` scale (1/3) with the benchmark seed
/// as the scenario seed.
fn lineup_scenario(seed: u64) -> Result<Scenario> {
    let mut scn = lineup::resolve("diurnal")
        .map_err(|e| e.to_string())?
        .scaled(1, 3);
    scn.seed = Some(seed);
    Ok(scn)
}

fn policy_path(cache_dir: &Path, index: usize) -> PathBuf {
    // The key `standard_policy_library` files context `index` under.
    cache_dir.join(format!("policy-ctx{}-L{ONLINE_LEVELS}.bin", index + 1))
}

fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        total += meta.len();
    }
    Ok(total)
}

/// Loads the cached six-context library and fails, rather than
/// silently retraining, when the cache is incomplete.
fn load_library(dir: &Path, report: &mut Report) -> Result<PolicyLibrary> {
    let t0 = Instant::now();
    let library = rac_bench::standard_policy_library(dir);
    report.secs("cache_load_s", t0.elapsed());
    report.set("cache_bytes", dir_bytes(dir)? as f64);
    if Runner::global().cache_stats().misses != 0 {
        return Err(format!("policy cache {} was incomplete", dir.display()));
    }
    Ok(library)
}

/// FNV-1a over every value of an [`InitialPolicy`], bit for bit.
fn policy_digest(p: &InitialPolicy) -> u64 {
    let words = [
        p.samples as u64,
        p.passes as u64,
        p.fit.r_squared.to_bits(),
        p.fit.rmse.to_bits(),
        p.fit.samples as u64,
    ]
    .into_iter()
    .chain(p.perf_ms.iter().map(|v| v.to_bits() as u64))
    .chain(
        (0..p.qtable.states())
            .flat_map(|s| (0..p.qtable.actions()).map(move |a| p.qtable.get(s, a).to_bits())),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn write_policies(dir: &Path, library: &PolicyLibrary) -> Result<()> {
    let mut out = String::new();
    for (i, ctx) in paper_contexts().iter().enumerate() {
        let policy = library
            .for_context(*ctx)
            .ok_or(format!("library lacks context {ctx}"))?;
        let _ = writeln!(out, "ctx{} {:016x}", i + 1, policy_digest(policy));
    }
    fs::write(dir.join("policies.txt"), out).map_err(|e| e.to_string())
}

fn write_output(dir: &Path, file: &str, csv: &str) -> Result<()> {
    fs::write(dir.join(file), csv).map_err(|e| format!("{file}: {e}"))
}

/// Share of intervals over the SLA or dropped.
fn sla_violation_rate(series: &[IterationRecord]) -> f64 {
    let bad = series
        .iter()
        .filter(|r| !r.response_ms.is_finite() || r.response_ms > SLA_MS)
        .count();
    bad as f64 / series.len().max(1) as f64
}

/// Writes `lineup.csv` and reports the RAC arm's quality.
fn finish_lineup(dir: &Path, scn: &Scenario, series: &Series, report: &mut Report) -> Result<()> {
    let csv = lineup::scenario_table(scn, series).render_csv();
    write_output(dir, "lineup.csv", &csv)?;
    let (_, rac) = series
        .iter()
        .find(|(name, _)| *name == "RAC")
        .ok_or("lineup has no RAC series")?;
    report.set("rac_mean_response_ms", lineup::finite_mean(rac));
    report.set("rac_sla_violation_rate", sla_violation_rate(rac));
    Ok(())
}

/// The plain lineup of `run_tuners`, replayed with timing tuners.
fn traced_lineup(scn: &Scenario, library: &PolicyLibrary, report: &mut Report) -> Series {
    let exp = Experiment::for_scenario(rac_bench::paper_system_spec(), scn);
    let mut rac_agent =
        RacAgent::with_policy_library(rac_bench::standard_settings(), library.clone());
    let mut tae = TrialAndError::new(ONLINE_LEVELS);
    let mut dflt = StaticDefault::new();
    let busy: [AtomicU64; 3] = Default::default();
    let tuners: [(&'static str, &mut dyn Tuner); 3] = [
        ("RAC", &mut rac_agent),
        ("trial-and-error", &mut tae),
        ("static default", &mut dflt),
    ];
    let t0 = Instant::now();
    let series = tuners
        .into_iter()
        .zip(&busy)
        .map(|((name, inner), busy_ns)| {
            let mut tuner = TimedTuner { inner, busy_ns };
            (name, exp.run_scenario(scn, &mut tuner))
        })
        .collect();
    report.secs("lineup_s", t0.elapsed());
    report.set("tune_rac_s", seconds(&busy[0]));
    report.set("tune_tae_s", seconds(&busy[1]));
    report.set("tune_default_s", seconds(&busy[2]));
    series
}

/// `standard_policy_library`'s per-context loop, replayed with a timing
/// `Measure` around `SimMeasurer` and timed cache calls.
fn traced_library(cache_dir: &Path, report: &mut Report) -> Result<PolicyLibrary> {
    let lattice = rac_bench::standard_lattice();
    let spec = rac_bench::paper_system_spec();
    let reward = SlaReward::new(SLA_MS);
    let options = rac_bench::standard_training_options();
    let (mut train, mut sample, mut load, mut store) = Default::default();
    let (mut samples, mut passes) = (0, 0);
    let mut library = PolicyLibrary::new();
    for (i, context) in paper_contexts().iter().enumerate() {
        let path = policy_path(cache_dir, i);
        let t0 = Instant::now();
        if cache::load_policy(&path, &lattice).is_some() {
            return Err(format!("{} was cached before training", path.display()));
        }
        load += t0.elapsed();
        let busy = Cell::new(Duration::ZERO);
        let measurer = TimedMeasure {
            inner: SimMeasurer::new(
                spec.clone().with_mix(context.mix).with_level(context.level),
                options.warmup,
                options.measure,
            ),
            busy: &busy,
        };
        let t0 = Instant::now();
        let policy = train_initial_policy(&lattice, reward, options.settings, measurer)
            .map_err(|e| format!("context {context}: {e}"))?;
        train += t0.elapsed();
        sample += busy.get();
        let t0 = Instant::now();
        cache::store_policy(&path, &policy).map_err(|e| e.to_string())?;
        store += t0.elapsed();
        samples += policy.samples;
        passes += policy.passes;
        library.insert(*context, policy);
    }
    report.secs("init_train_s", train);
    report.secs("init_sample_s", sample);
    report.set("init_samples", samples as f64);
    report.set("init_sweep_passes", passes as f64);
    report.secs("cache_load_s", load);
    report.secs("cache_store_s", store);
    Ok(library)
}

/// cold_start: empty policy cache → six-context library → plain lineup.
fn cold(args: &Args, clock: &mut Clock, report: &mut Report) -> Result<()> {
    let cache_dir = args.dir.join("cache");
    fs::create_dir_all(&cache_dir).map_err(|e| e.to_string())?;
    if fs::read_dir(&cache_dir)
        .map_err(|e| e.to_string())?
        .next()
        .is_some()
    {
        return Err(format!("policy cache {} is not empty", cache_dir.display()));
    }
    let scn = lineup_scenario(args.seed)?;
    if !clock.start_job(report, args)? {
        return Ok(());
    }
    let library = if args.trace {
        traced_library(&cache_dir, report)?
    } else {
        rac_bench::standard_policy_library(&cache_dir)
    };
    let ready = clock.elapsed();
    let series = if args.trace {
        traced_lineup(&scn, &library, report)
    } else {
        lineup::run_tuners(&scn, &library)
    };
    clock.finish_job(report);
    report.secs("cold_start_s", ready);
    report.set("cache_bytes", dir_bytes(&cache_dir)? as f64);
    write_policies(&args.dir, &library)?;
    finish_lineup(&args.dir, &scn, &series, report)
}

/// The library alone, trained into `--dir` (the checkpointed lineup's
/// once-per-checkout preparation).
fn train(args: &Args, clock: &mut Clock, report: &mut Report) -> Result<()> {
    clock.start_job(report, args)?;
    let library = rac_bench::standard_policy_library(&args.dir);
    clock.finish_job(report);
    write_policies(&args.dir, &library)
}

/// The plain `run_tuners` lineup over the cached library.
fn plain(args: &Args, clock: &mut Clock, report: &mut Report) -> Result<()> {
    let library = load_library(args.library()?, report)?;
    let scn = lineup_scenario(args.seed)?;
    if !clock.start_job(report, args)? {
        return Ok(());
    }
    let series = if args.trace {
        traced_lineup(&scn, &library, report)
    } else {
        lineup::run_tuners(&scn, &library)
    };
    clock.finish_job(report);
    finish_lineup(&args.dir, &scn, &series, report)
}

/// The checkpointed lineup, in three shapes: straight through
/// (`ckpt-full`), stopped right after the scheduled snapshot nearest
/// mid-lineup (`ckpt-stop`, the disk state a kill just after that write
/// leaves), and resumed from that snapshot (`ckpt-resume`).
fn checkpointed(args: &Args, clock: &mut Clock, report: &mut Report) -> Result<()> {
    let library = load_library(args.library()?, report)?;
    let scn = lineup_scenario(args.seed)?;
    let total = 3 * scn.iterations();
    let stop_at = total / 2 / CHECKPOINT_EVERY * CHECKPOINT_EVERY;
    let options = CheckpointOptions {
        path: args.dir.join("lineup.ckpt"),
        every: CHECKPOINT_EVERY,
        stop_after: None,
    };
    let resuming = args.step == "ckpt-resume";
    if !resuming {
        let _ = fs::remove_file(&options.path);
    }
    if !clock.start_job(report, args)? {
        return Ok(());
    }
    let snapshot = if resuming {
        let t0 = Instant::now();
        let bytes = fs::read(&options.path).map_err(|e| format!("snapshot: {e}"))?;
        report.secs("restore_read_s", t0.elapsed());
        let t1 = Instant::now();
        let snap = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        report.secs("restore_parse_s", t1.elapsed());
        report.set("snapshot_bytes", bytes.len() as f64);
        Some(snap)
    } else {
        None
    };
    let stop = args.step == "ckpt-stop";
    let mut first_live: Option<Duration> = None;
    let outcome = run_tuners_checkpointed_with(&scn, &library, &options, snapshot.as_ref(), |s| {
        first_live.get_or_insert_with(|| clock.elapsed());
        if stop && s.global_iteration == stop_at {
            LineupCommand::Stop
        } else {
            LineupCommand::Continue
        }
    })
    .map_err(|e| e.to_string())?;
    clock.finish_job(report);
    if resuming {
        report.secs(
            "resume_s",
            first_live.ok_or("resume ran no live iteration")?,
        );
    }
    match outcome {
        LineupOutcome::Complete(series) if !stop => finish_lineup(&args.dir, &scn, &series, report),
        LineupOutcome::Interrupted { global_iterations }
            if stop && global_iterations == stop_at =>
        {
            Ok(())
        }
        _ => Err(format!("unexpected lineup outcome for {}", args.step)),
    }
}

/// Copy of the tournament's per-arm score (private in `rac_bench`),
/// used by the traced replay of `run_matchup`.
fn score(series: &[IterationRecord]) -> ArmScore {
    let mut finite: Vec<f64> = series
        .iter()
        .map(|r| r.response_ms)
        .filter(|x| x.is_finite())
        .collect();
    finite.sort_by(f64::total_cmp);
    let (mean_ms, p95_ms) = if finite.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (
            finite.iter().sum::<f64>() / finite.len() as f64,
            finite[((finite.len() - 1) * 95).div_ceil(100)],
        )
    };
    ArmScore {
        mean_ms,
        p95_ms,
        sla_rate: sla_violation_rate(series),
    }
}

/// `tournament::run`, replayed with timing tuners per arm.
fn traced_tournament(opts: &TournamentOptions, report: &mut Report) -> Vec<Matchup> {
    let busy: [AtomicU64; 3] = Default::default();
    let lineup_ns = AtomicU64::new(0);
    let matchups = Runner::global().run_tasks(opts.scenarios, |i| {
        let (scn, seed, difficulty) = tournament::scenario_for(opts, i);
        let exp = Experiment::for_scenario(rac_bench::paper_system_spec(), &scn);
        let mut rac_agent = RacAgent::new(rac_bench::standard_settings());
        let mut tae = TrialAndError::new(ONLINE_LEVELS);
        let mut dflt = StaticDefault::new();
        let tuners: [&mut dyn Tuner; 3] = [&mut rac_agent, &mut tae, &mut dflt];
        let t0 = Instant::now();
        let mut arms = [score(&[]); 3];
        for ((slot, inner), busy_ns) in tuners.into_iter().enumerate().zip(&busy) {
            let mut tuner = TimedTuner { inner, busy_ns };
            arms[slot] = score(&exp.run_scenario(&scn, &mut tuner));
        }
        lineup_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Matchup {
            scenario: scn.name,
            seed,
            difficulty,
            arms,
        }
    });
    report.set("lineup_s", seconds(&lineup_ns));
    report.set("tune_rac_s", seconds(&busy[0]));
    report.set("tune_tae_s", seconds(&busy[1]));
    report.set("tune_default_s", seconds(&busy[2]));
    matchups
}

/// tournament: `--scenarios` generated quick-scale scenarios from the
/// benchmark seed, sharded whole-matchup over the runner.
fn run_tournament(args: &Args, clock: &mut Clock, report: &mut Report) -> Result<()> {
    if args.scenarios == 0 {
        return Err("--scenarios must be positive".into());
    }
    let opts = TournamentOptions {
        scenarios: args.scenarios,
        seed: args.seed,
        quick: true,
        profile: None,
    };
    let generated: usize = (0..opts.scenarios)
        .map(|i| tournament::scenario_for(&opts, i).0.iterations())
        .sum();
    report.set("tournament_iterations", generated as f64);
    if !clock.start_job(report, args)? {
        return Ok(());
    }
    let matchups = if args.trace {
        traced_tournament(&opts, report)
    } else {
        tournament::run(&opts)
    };
    clock.finish_job(report);
    report.set("runner_tasks", opts.scenarios as f64);
    let rows = tournament::scoreboard(&matchups);
    write_output(
        &args.dir,
        "scoreboard.csv",
        &tournament::scoreboard_table(&rows).render_csv(),
    )?;
    report.set("rac_mean_response_ms", rows[0].mean_ms);
    report.set("rac_sla_violation_rate", rows[0].sla_rate);
    Ok(())
}
