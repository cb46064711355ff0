//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p rac-bench --bin figures -- all
//! cargo run --release -p rac-bench --bin figures -- fig5
//! cargo run --release -p rac-bench --bin figures -- fig2 --quick
//! cargo run --release -p rac-bench --bin figures -- scenario diurnal
//! cargo run --release -p rac-bench --bin figures -- scenario --list
//! cargo run --release -p rac-bench --bin figures -- fleet            # 200 tenants
//! cargo run --release -p rac-bench --bin figures -- fleet 64 --seed 7 --quick
//! cargo run --release -p rac-bench --bin figures -- fleet --list
//! cargo run --release -p rac-bench --bin figures -- chaos            # pinned CI seeds
//! cargo run --release -p rac-bench --bin figures -- chaos 7 --iterations 36
//! cargo run --release -p rac-bench --bin figures -- crashdrill       # default drill seeds
//! cargo run --release -p rac-bench --bin figures -- crashdrill 7 --iterations 36
//! cargo run --release -p rac-bench --bin figures -- bench            # writes BENCH_18.json
//! cargo run --release -p rac-bench --bin figures -- bench --quick --check BENCH_9.json
//! cargo run --release -p rac-bench --bin figures -- tournament       # 200 generated scenarios
//! cargo run --release -p rac-bench --bin figures -- tournament 24 --quick --seed 7
//! RAC_THREADS=8 cargo run --release -p rac-bench --bin figures -- all
//! RAC_OBS=trace cargo run --release -p rac-bench --bin figures -- fig5
//!
//! # Crash-safe scenario runs
//! figures scenario flash-crowd --checkpoint ckpts
//! figures scenario flash-crowd --checkpoint ckpts --stop-after 10
//! figures scenario flash-crowd --resume ckpts/scenario-flash-crowd.ckpt
//! figures scenario diurnal --warm-start ckpts/scenario-flash-crowd.ckpt
//! ```
//!
//! `--checkpoint <dir>` snapshots the whole tuner line-up (learned
//! state, recorded series, decision-trace prefix) to
//! `<dir>/scenario-<name>.ckpt` every `--checkpoint-every N` (default 5)
//! line-up iterations, atomically, and stores the policy library once
//! beside it in `<dir>/library-<fingerprint>.ckpt`. `--stop-after N`
//! exits cleanly after N iterations; `--resume <file>` picks the run
//! back up and finishes it, producing CSV and trace output
//! byte-identical to an uninterrupted run. `--warm-start <file>` seeds a
//! fresh run's RAC agent with the policy library a previous run's
//! checkpoint names instead of training/loading one from the cache.
//!
//! Each subcommand prints the series/rows the paper reports and writes a
//! CSV under `results/`. Offline-trained policies are cached under
//! `results/cache/`. Progress and timing chatter goes to stderr through
//! the obs console exporter; `--quiet` (or `RAC_OBS=off`) silences it
//! without touching the stdout report or the on-disk artifacts.
//!
//! With `RAC_OBS=trace`, each figure additionally drops a deterministic
//! decision trace at `results/<cmd>.trace.jsonl` (replay it with the
//! `inspect_trace` bin).
//!
//! Every run that gets past its argument check ends the same way, on
//! success, error or panic: it writes a metrics snapshot to
//! `results/metrics.prom` + `results/metrics.csv` unless observability
//! is off, and finishes its `/healthz` job as done or failed. It exits
//! 0 on success, 1 when a check it makes fails (`bench --check`,
//! `chaos`, `crashdrill`), 2 when a file cannot be read or written or a
//! checkpoint is rejected, and 101 on a panic. A malformed invocation
//! exits 2 with the usage, having written nothing.
//!
//! Independent figure jobs run **concurrently** on the global parallel
//! runner (`RAC_THREADS` workers; see `rac::runner`), each buffering its
//! report so output appears in submission order with per-job wall-clock
//! timing — byte-identical to a serial run at any thread count. The
//! shared policy library is built once up front; measurement-level
//! fan-out inside each figure goes through the same runner, so points
//! shared between figures (e.g. the default configuration) simulate
//! only once per process.

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Instant;

use obs::{Console, TraceWriter};

use rac::{
    convergence_iteration, grouping, maxclients_sweep, paper_contexts, response_series,
    series_mean, Experiment, IterationRecord, MeasureJob, PolicyLibrary, RacAgent, RacSettings,
    Runner, SimMeasurer,
};
use rac_bench::checkpoint::{
    lineup_arms, run_lineup, CheckpointOptions, LineupCommand, LineupOutcome,
};
use rac_bench::cli::{self, Args, Grammar};
use rac_bench::output::{ascii_chart, TextTable};
use rac_bench::perfsuite;
use rac_bench::{
    paper_system_spec, standard_policy_library, standard_settings, ONLINE_LEVELS, SLA_MS,
};
use scenario::Scenario;
use simkernel::SimDuration;
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::{Param, ServerConfig, SystemSpec};

/// Global run options.
#[derive(Debug, Clone)]
struct Options {
    /// Shrink intervals/iterations for a fast smoke run.
    quick: bool,
    results_dir: PathBuf,
}

impl Options {
    fn interval(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 90 } else { 300 })
    }

    fn warmup(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 120 } else { 600 })
    }

    fn iters(&self, full: usize) -> usize {
        if self.quick {
            (full / 3).max(5)
        } else {
            full
        }
    }

    fn cache_dir(&self) -> PathBuf {
        self.results_dir.join("cache")
    }
}

const ALL_CMDS: [&str; 12] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10",
];

fn needs_library(cmd: &str) -> bool {
    matches!(cmd, "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10")
}

/// What a count that must be at least 1 reads as.
const POSITIVE: &str = "a positive integer";
/// What a seed or a count that may be 0 reads as.
const UNSIGNED: &str = "an unsigned integer";

/// Flags every subcommand accepts, before or after the subcommand.
const GLOBAL: Grammar = Grammar {
    name: "",
    synopsis: "",
    flags: "\
--quick                        shrink intervals, iterations and timelines for a smoke run
--quiet                        no progress notes on stderr, like RAC_OBS=off
--serve <addr>                 serve /metrics, /healthz and /profile while running (port 0: any)",
    notes: "",
};

/// Why a `figures` invocation ends nonzero.
enum Exit {
    /// A malformed invocation: `main` prints the message with the usage
    /// and exits 2. Raised before any run starts, so nothing is written.
    Usage(String),
    /// `main` prints the message and exits with the code: 1 when a check
    /// the run makes fails (a bench regression, a chaos invariant, a
    /// crash drill), 2 when a file cannot be read or written or a
    /// checkpoint is rejected.
    Fail(i32, String),
}

impl From<String> for Exit {
    fn from(msg: String) -> Exit {
        Exit::Usage(msg)
    }
}

/// A checked run: the job name `/healthz` shows, and the work.
struct Job<'a> {
    name: String,
    work: Box<dyn FnOnce() -> Result<(), Exit> + 'a>,
}

/// What an entry point returns: the checked run, `None` when there is
/// nothing to run (`--list`), or why the invocation cannot run.
type Checked<'a> = Result<Option<Job<'a>>, Exit>;

fn job<'a>(name: String, work: impl FnOnce() -> Result<(), Exit> + 'a) -> Checked<'a> {
    Ok(Some(Job {
        name,
        work: Box::new(work),
    }))
}

/// A subcommand's entry point. It checks its arguments and the files
/// they name before it simulates, trains or writes anything, and hands
/// the run back to `main`, which starts it under the [`Lifecycle`].
type Entry = for<'a> fn(&'a Args, &'a Options, &'a Console) -> Checked<'a>;

/// Every subcommand with its entry point. The first, unnamed one runs
/// the paper's tables and figures and is the default.
const COMMANDS: [(Grammar, Entry); 8] = [
    (
        Grammar {
            name: "",
            synopsis: "figures [table1|table2|fig1..fig10|all]...",
            flags: "",
            notes: "",
        },
        run_figures,
    ),
    (
        Grammar {
            name: "scenario",
            synopsis: "figures scenario <name|file.scn>...",
            flags: "\
--list                         print the bundled scenarios instead of running any
--checkpoint <dir>             snapshot the line-up to <dir>/scenario-<name>.ckpt
--checkpoint-every <N>         line-up iterations between snapshots [5]
--stop-after <N>               stop after N line-up iterations
--resume <file>                finish the checkpointed run in <file>
--warm-start <file>            seed RAC with the policy library a checkpoint names",
            notes: "\
--stop-after needs --checkpoint or --resume; --resume takes one scenario and
excludes --warm-start",
        },
        run_scenarios,
    ),
    (
        Grammar {
            name: "fleet",
            synopsis: "figures fleet [<tenants>]",
            flags: "\
--list                         print the generated roster without running anything
--seed <N>                     roster seed [42]
--cold <N>                     tenants in the cold wave [tenants/4]
--chunk <N>                    warm tenants per step [25]
--radius <D>                   max squared feature distance to a donor [0.005]
--no-control                   skip the matched cold control of each warm tenant
--checkpoint <dir>             checkpoint to <dir>/fleet.ckpt after every step
--stop-after <N>               stop once N tenants are done
--resume <file>                continue the checkpointed fleet in <file>
--warm-start <file>            seed transfer with the policy library a checkpoint names",
            notes: "\
defaults: 200 tenants; a --radius of 2.0 or more accepts any donor; --no-control
halves warm-tenant cost but drops the paired comparison; --stop-after needs
--checkpoint or --resume; --resume excludes --warm-start",
        },
        run_fleet,
    ),
    (
        Grammar {
            name: "chaos",
            synopsis: "figures chaos [<seed>...]",
            flags: "--iterations <n>               iterations per seed",
            notes: "no seed runs the pinned CI seeds; exits 1 on an invariant violation",
        },
        run_chaos_harness,
    ),
    (
        Grammar {
            name: "crashdrill",
            synopsis: "figures crashdrill [<seed>...]",
            flags: "--iterations <n>               iterations per seed",
            notes: "no seed runs the default drill seeds; exits 1 on a failed drill",
        },
        run_crashdrill,
    ),
    (
        Grammar {
            name: "bench",
            synopsis: "figures bench",
            flags: "\
--out <path>                   where to write the report [the current BENCH_<n>.json]
--check <committed.json>       compare against a committed report, write nothing",
            notes: "--check exits 1 on a regression; --quick repeats less at the same sizes",
        },
        run_bench_suite,
    ),
    (
        Grammar {
            name: "tournament",
            synopsis: "figures tournament [<scenarios>]",
            flags: "\
--seed <N>                     generator seed [42]
--profile <calm|brisk|stormy>  one difficulty for every scenario [cycle through all]
--out <dir>                    directory for the matchup and scoreboard CSVs [results]",
            notes: "defaults: 200 generated scenarios; --quick compresses every timeline 3x",
        },
        run_tournament,
    ),
    (
        Grammar {
            name: "profile",
            synopsis: "figures profile <name|file.scn>",
            flags: "",
            notes: "\
runs the line-up once under the self-profiler, prints a self-time table,
and writes results/profile-<name>.folded",
        },
        run_profile,
    ),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let token = cli::subcommand(&argv, &GLOBAL);
    let (grammar, entry) = COMMANDS
        .iter()
        .find(|(g, _)| !g.name.is_empty() && Some(g.name) == token)
        .unwrap_or(&COMMANDS[0]);
    let code = match run(&argv, grammar, *entry) {
        Ok(()) => return,
        Err(Exit::Usage(msg)) => {
            eprintln!("{msg}");
            if grammar.name.is_empty() {
                // The figure list's usage names every subcommand.
                let all: Vec<&Grammar> = COMMANDS.iter().map(|(g, _)| g).collect();
                eprint!("{}{}", cli::synopses(&all), cli::usage(&[&GLOBAL]));
            } else {
                eprint!("{}", cli::usage(&[grammar, &GLOBAL]));
            }
            2
        }
        Err(Exit::Fail(code, msg)) => {
            eprintln!("{msg}");
            code
        }
    };
    std::process::exit(code);
}

/// Parses `argv`, lets `entry` check it, and runs the checked job under
/// the [`Lifecycle`]. A panic unwinds through the lifecycle, which still
/// ends the run, and exits 101 as any Rust panic does.
fn run(argv: &[String], grammar: &Grammar, entry: Entry) -> Result<(), Exit> {
    let mut args = cli::parse(argv, &[&GLOBAL, grammar])?;
    if !grammar.name.is_empty() {
        // The subcommand token itself.
        args.operands.remove(0);
    }
    let opts = Options {
        quick: args.has("--quick"),
        results_dir: PathBuf::from("results"),
    };
    let console = Console::from_env(args.has("--quiet"));
    // Started before the entry, so it already answers while the policy
    // library builds.
    let _server = args.get("--serve").map(start_obs_server).transpose()?;
    let Some(job) = entry(&args, &opts, &console)? else {
        return Ok(());
    };
    let mut lifecycle = Lifecycle::begin(&job.name, &opts, &console);
    let result = (job.work)();
    lifecycle.ok = result.is_ok();
    result
}

/// The one way a checked run ends. Begun, it marks the `/healthz` job
/// running; dropped — on success, error or panic alike — it writes the
/// process-wide metrics next to the CSVs (`results/metrics.{prom,csv}`,
/// unless observability is off or nothing was recorded) and finishes
/// the job as done (`ok`) or failed.
struct Lifecycle<'a> {
    opts: &'a Options,
    console: &'a Console,
    ok: bool,
}

impl<'a> Lifecycle<'a> {
    fn begin(job: &str, opts: &'a Options, console: &'a Console) -> Self {
        if obs::enabled() {
            obs::health::global().begin_job(job);
        }
        Lifecycle {
            opts,
            console,
            ok: false,
        }
    }
}

impl Drop for Lifecycle<'_> {
    fn drop(&mut self) {
        if !obs::enabled() {
            return;
        }
        let snapshot = obs::Registry::global().snapshot();
        if !snapshot.is_empty() {
            let _ = std::fs::create_dir_all(&self.opts.results_dir);
            for (file, text) in [
                ("metrics.prom", obs::export::render_prometheus(&snapshot)),
                ("metrics.csv", obs::export::render_csv(&snapshot)),
            ] {
                let path = self.opts.results_dir.join(file);
                match std::fs::write(&path, text) {
                    Ok(()) => self.console.note(format!("  -> {}", path.display())),
                    Err(e) => eprintln!("  could not write {}: {e}", path.display()),
                }
            }
        }
        obs::health::global().finish_job(self.ok);
    }
}

/// Starts the embedded observability server (and switches the profiler
/// on so `/profile` has data).
fn start_obs_server(addr: &str) -> Result<obs::ObsServer, Exit> {
    obs::profile::set_enabled(true);
    let server = obs::ObsServer::start(addr)
        .map_err(|e| Exit::Fail(2, format!("cannot serve on {addr}: {e}")))?;
    // To stdout, not the console: scripts (and the CI live-endpoint job)
    // grep this line for the bound port.
    println!("obs: serving on http://{}", server.local_addr());
    Ok(server)
}

/// Writes a captured decision trace to `path` and notes where it went.
fn write_trace(writer: &TraceWriter, path: &Path, console: &Console) {
    match writer.write_to(path) {
        Ok(()) => console.note(format!("  -> {} ({} events)", path.display(), writer.len())),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

/// The optional single operand of `tournament` and `fleet`, a positive
/// count.
fn count_operand(args: &Args, name: &str) -> Result<Option<usize>, String> {
    match args.operands.as_slice() {
        [] => Ok(None),
        [n] => cli::typed::<NonZeroUsize>(name, n, POSITIVE).map(|n| Some(n.get())),
        [_, extra, ..] => Err(format!("at most one {name} operand, got a second: {extra}")),
    }
}

/// The seed operands of `chaos` and `crashdrill`, or `default` when
/// none is given.
fn seed_operands(args: &Args, default: &[u64]) -> Result<Vec<u64>, String> {
    if args.operands.is_empty() {
        return Ok(default.to_vec());
    }
    args.operands
        .iter()
        .map(|s| cli::typed("seed", s, UNSIGNED))
        .collect()
}

/// A scenario operand — a bundled name or a `.scn` path — compressed 3x
/// under `--quick`.
fn scenario_operand(arg: &str, opts: &Options) -> Result<Scenario, String> {
    let scn = rac_bench::scenario::resolve(arg).map_err(|e| e.to_string())?;
    Ok(if opts.quick { scn.scaled(1, 3) } else { scn })
}

/// `figures [table1|…|fig10|all]...` — the paper's evaluation. Figure
/// jobs run concurrently on the global runner; reports print in
/// submission order.
fn run_figures<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    let named: Vec<&str> = args.operands.iter().map(String::as_str).collect();
    let selected = if named.is_empty() || named.contains(&"all") {
        ALL_CMDS.to_vec()
    } else {
        named
    };
    if let Some(cmd) = selected.iter().find(|c| !ALL_CMDS.contains(c)) {
        return Err(format!("unknown experiment: {cmd}").into());
    }
    job(format!("figures {}", selected.join(" ")), move || {
        // The policy library feeds six figures; build it once before the
        // fan-out so concurrent jobs share it (and the disk cache sees a
        // single writer).
        let library = selected
            .iter()
            .any(|c| needs_library(c))
            .then(|| standard_policy_library(&opts.cache_dir()));
        let runner = Runner::global();
        console.note(format!(
            "figures: {} job(s) across {} worker thread(s) [RAC_THREADS]",
            selected.len(),
            runner.threads()
        ));
        let started = Instant::now();
        let reports = runner.run_tasks(selected.len(), |i| {
            let cmd = selected[i];
            let _span = obs::Span::start("figure");
            let mut out = String::new();
            let t0 = Instant::now();
            // Each figure gets its own trace scope: the scope is
            // thread-local and the figure job is single-threaded (its
            // measurement fan-out happens in untraced workers), so the
            // JSONL is deterministic per figure at any RAC_THREADS.
            let ((), trace) =
                obs::trace::capture(|| run_figure(cmd, opts, library.as_ref(), &mut out));
            (out, t0.elapsed().as_secs_f64(), trace)
        });
        for (cmd, (out, secs, trace)) in selected.iter().zip(&reports) {
            print!("{out}");
            if let Some(writer) = trace {
                let path = opts.results_dir.join(format!("{cmd}.trace.jsonl"));
                write_trace(writer, &path, console);
            }
            console.note(format!("  [{cmd}: {secs:.1}s wall-clock]"));
        }
        let stats = runner.cache_stats();
        console.note(format!(
            "\ntotal: {:.1}s wall-clock, {:.1}s summed over jobs ({} simulations, {} cache hits)",
            started.elapsed().as_secs_f64(),
            reports.iter().map(|(_, s, _)| s).sum::<f64>(),
            stats.misses,
            stats.hits
        ));
        Ok(())
    })
}

/// `figures bench [--out <path>] [--check <committed.json>]`.
///
/// Default mode runs the perf-trajectory suite and writes the
/// `BENCH_<n>.json` report (full repeats unless `--quick`). `--check`
/// mode instead compares the fresh medians against a previously
/// committed report and exits 1 if any benchmark's median fell below
/// the regression floor — nothing is written, so the committed file
/// stays the authoritative trajectory point. Quick and full mode use
/// identical problem sizes (quick only repeats less), which is what
/// makes a quick-mode check against a full-mode file meaningful.
fn run_bench_suite<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    if let Some(op) = args.operands.first() {
        return Err(format!("bench takes no operands, got `{op}`").into());
    }
    let out = args.get("--out").map_or_else(
        || PathBuf::from(format!("BENCH_{}.json", perfsuite::BENCH_VERSION)),
        PathBuf::from,
    );
    // Read the committed report before the suite runs, so a mistyped
    // path costs nothing.
    let check = match args.get("--check") {
        Some(path) => {
            let committed = std::fs::read_to_string(path)
                .map_err(|e| Exit::Fail(2, format!("cannot read {path}: {e}")))?;
            let medians = perfsuite::parse_medians(&committed)
                .map_err(|e| Exit::Fail(2, format!("cannot parse {path}: {e}")))?;
            Some((path, medians))
        }
        None => None,
    };
    job("bench".to_string(), move || {
        let quick = opts.quick;
        console.note(format!(
            "bench: perf-trajectory suite, {} mode, {} worker thread(s) [RAC_THREADS]",
            if quick { "quick" } else { "full" },
            Runner::global().threads()
        ));
        let started = Instant::now();
        let report = perfsuite::run_suite(&perfsuite::SuiteOptions { quick });
        console.note(format!(
            "bench: suite finished in {:.1}s",
            started.elapsed().as_secs_f64()
        ));
        match check {
            Some((path, medians)) => {
                let failures =
                    perfsuite::check_regressions(&medians, &report, perfsuite::REGRESSION_FLOOR);
                if !failures.is_empty() {
                    let mut msg = format!("bench regression vs {path}:");
                    for f in &failures {
                        let _ = write!(msg, "\n  {f}");
                    }
                    return Err(Exit::Fail(1, msg));
                }
                println!(
                    "bench check OK: all medians within {}x of {path}",
                    perfsuite::REGRESSION_FLOOR
                );
            }
            None => {
                if let Some(dir) = out.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).ok();
                    }
                }
                std::fs::write(&out, report.to_json())
                    .map_err(|e| Exit::Fail(2, format!("cannot write {}: {e}", out.display())))?;
                println!("wrote {}", out.display());
            }
        }
        Ok(())
    })
}

/// `figures tournament [N] [--seed S] [--quick] [--profile P] [--out D]`
/// — RAC vs trial-and-error vs static default across N generated
/// scenarios, sharded over the global runner. The scoreboard is a pure
/// function of (seed, N): byte-identical CSVs at any `RAC_THREADS`.
fn run_tournament<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    let defaults = rac_bench::tournament::TournamentOptions::default();
    let topts = rac_bench::tournament::TournamentOptions {
        scenarios: count_operand(args, "scenario-count")?.unwrap_or(defaults.scenarios),
        seed: args.value("--seed", UNSIGNED)?.unwrap_or(defaults.seed),
        quick: opts.quick,
        profile: args.value_by(
            "--profile",
            "one of calm, brisk, stormy",
            scenario::Difficulty::by_name,
        )?,
    };
    let out_dir = args
        .get("--out")
        .map_or_else(|| opts.results_dir.clone(), PathBuf::from);

    job(format!("tournament {}", topts.scenarios), move || {
        let runner = Runner::global();
        console.note(format!(
            "tournament: {} scenarios from seed {}, {} difficulty, {} worker thread(s) [RAC_THREADS]",
            topts.scenarios,
            topts.seed,
            topts
                .profile
                .map(|d| d.label())
                .unwrap_or("cycling calm/brisk/stormy"),
            runner.threads()
        ));
        let started = Instant::now();
        let matchups = rac_bench::tournament::run(&topts);
        let elapsed = started.elapsed().as_secs_f64();
        let rows = rac_bench::tournament::scoreboard(&matchups);
        let table = rac_bench::tournament::scoreboard_table(&rows);
        println!(
            "tournament: {} scenarios, seed {} — per-arm scoreboard",
            topts.scenarios, topts.seed
        );
        print!("{table}");
        std::fs::create_dir_all(&out_dir).ok();
        for (file, t) in [
            (
                "tournament-matchups.csv",
                rac_bench::tournament::matchups_table(&matchups),
            ),
            ("tournament-scoreboard.csv", table),
        ] {
            let path = out_dir.join(file);
            match t.write_csv(&path) {
                Ok(()) => println!("  -> {}", path.display()),
                Err(e) => eprintln!("  could not write {}: {e}", path.display()),
            }
        }
        console.note(format!(
            "\ntotal: {elapsed:.1}s wall-clock over {} scenario(s) ({:.2} scenarios/s)",
            topts.scenarios,
            topts.scenarios as f64 / elapsed.max(1e-9)
        ));
        Ok(())
    })
}

fn run_figure(cmd: &str, opts: &Options, library: Option<&PolicyLibrary>, out: &mut String) {
    let library = || library.expect("library prebuilt for fig5..fig10");
    match cmd {
        "table1" => table1(opts, out),
        "table2" => table2(opts, out),
        "fig1" => fig1(opts, out),
        "fig2" => fig2(opts, out),
        "fig3" => fig3(opts, out),
        "fig4" => fig4(opts, out),
        "fig5" => fig5(opts, library(), out),
        "fig6" => fig6(opts, library(), out),
        "fig7" => fig7(opts, library(), out),
        "fig8" => fig8(opts, library(), out),
        "fig9" => fig9(opts, library(), out),
        "fig10" => fig10(opts, library(), out),
        other => unreachable!("validated in main: {other}"),
    }
}

fn banner(out: &mut String, title: &str) {
    let _ = writeln!(out);
    let _ = writeln!(out, "=== {title} ===");
}

// --------------------------------------------------------------------
// Tables
// --------------------------------------------------------------------

fn table1(opts: &Options, out: &mut String) {
    banner(out, "Table 1: tunable performance-critical parameters");
    let mut t = TextTable::new(&["tier", "parameter", "range", "default"]);
    for p in Param::ALL {
        let (lo, hi) = p.range();
        t.row(&[
            p.tier().to_string(),
            p.name().to_string(),
            format!("[{lo}, {hi}]"),
            p.default_value().to_string(),
        ]);
    }
    let _ = write!(out, "{t}");
    save(&t, opts, "table1.csv", out);
}

fn table2(opts: &Options, out: &mut String) {
    banner(out, "Table 2: example system contexts");
    let mut t = TextTable::new(&["context", "workload mix", "VM resources"]);
    for (i, c) in paper_contexts().iter().enumerate() {
        t.row(&[
            format!("Context-{}", i + 1),
            c.mix.to_string(),
            c.level.to_string(),
        ]);
    }
    let _ = write!(out, "{t}");
    save(&t, opts, "table2.csv", out);
}

// --------------------------------------------------------------------
// Motivation figures (Section 2)
// --------------------------------------------------------------------

/// Finds the best configuration for a context by measuring the coarse
/// grouped sampling plan (the paper's "best out of our test cases") —
/// one parallel, cached batch through the global runner.
fn best_config_for(spec: &SystemSpec, opts: &Options) -> (ServerConfig, f64) {
    let plan = grouping::sampling_plan(3);
    let configs: Vec<ServerConfig> = plan.iter().map(|(_, config)| *config).collect();
    let measurer = SimMeasurer::new(spec.clone(), opts.warmup(), opts.interval());
    let samples = measurer.sample_batch(&configs);
    configs
        .into_iter()
        .zip(samples)
        .map(|(config, s)| (config, s.mean_response_ms))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sampling plan")
}

fn fig1(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 1: performance under configurations tuned for different workloads",
    );
    let spec = paper_system_spec();
    let mixes = [Mix::Ordering, Mix::Shopping, Mix::Browsing];
    let tuned: Vec<(Mix, ServerConfig)> = mixes
        .iter()
        .map(|&mix| {
            let (cfg, _) = best_config_for(&spec.clone().with_mix(mix), opts);
            (mix, cfg)
        })
        .collect();

    // The full run-mix x tuned-config cross, as one parallel batch.
    let jobs: Vec<MeasureJob> = mixes
        .iter()
        .flat_map(|&run_mix| tuned.iter().map(move |&(_, cfg)| (run_mix, cfg)))
        .map(|(run_mix, cfg)| {
            MeasureJob::new(
                spec.clone().with_mix(run_mix),
                cfg,
                opts.warmup(),
                opts.interval(),
            )
        })
        .collect();
    let samples = Runner::global().run(&jobs);

    let mut t = TextTable::new(&[
        "workload",
        "ordering-best cfg",
        "shopping-best cfg",
        "browsing-best cfg",
    ]);
    for (r, &run_mix) in mixes.iter().enumerate() {
        let mut cells = vec![run_mix.to_string()];
        for c in 0..tuned.len() {
            cells.push(format!(
                "{:.0}",
                samples[r * tuned.len() + c].mean_response_ms
            ));
        }
        t.row(&cells);
    }
    let _ = write!(out, "{t}");
    let _ = writeln!(out, "(rows: workload actually run; columns: whose best configuration; cells: mean response time in ms)");
    save(&t, opts, "fig1.csv", out);
}

fn fig2(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 2: effect of MaxClients under different VM configurations",
    );
    let sweep: Vec<u32> = vec![5, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600];
    let rows = maxclients_sweep(
        &paper_system_spec(),
        &ResourceLevel::ALL,
        &sweep,
        opts.warmup(),
        opts.interval(),
    );
    let mut t = TextTable::new(&["MaxClients", "Level-1", "Level-2", "Level-3"]);
    let mut series: Vec<(&str, Vec<f64>)> = vec![
        ("Level-1", Vec::new()),
        ("Level-2", Vec::new()),
        ("Level-3", Vec::new()),
    ];
    for (m, &mc) in sweep.iter().enumerate() {
        let mut cells = vec![mc.to_string()];
        for (i, _) in ResourceLevel::ALL.iter().enumerate() {
            let (_, _, s) = rows[i * sweep.len() + m];
            cells.push(format!("{:.0}", s.mean_response_ms));
            series[i].1.push(s.mean_response_ms);
        }
        t.row(&cells);
    }
    let _ = write!(out, "{t}");
    let _ = write!(out, "{}", ascii_chart(&series, 12));
    for (name, values) in &series {
        let (best_idx, best) = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty sweep");
        let _ = writeln!(
            out,
            "  preferred MaxClients on {name}: {} ({best:.0} ms)",
            sweep[best_idx]
        );
    }
    save(&t, opts, "fig2.csv", out);
}

fn fig3(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 3: performance under configurations tuned for different VM levels",
    );
    let spec = paper_system_spec();
    let tuned: Vec<(ResourceLevel, ServerConfig)> = ResourceLevel::ALL
        .iter()
        .map(|&level| {
            let (cfg, _) = best_config_for(&spec.clone().with_level(level), opts);
            (level, cfg)
        })
        .collect();

    let jobs: Vec<MeasureJob> = ResourceLevel::ALL
        .iter()
        .flat_map(|&run_level| tuned.iter().map(move |&(_, cfg)| (run_level, cfg)))
        .map(|(run_level, cfg)| {
            MeasureJob::new(
                spec.clone().with_level(run_level),
                cfg,
                opts.warmup(),
                opts.interval(),
            )
        })
        .collect();
    let samples = Runner::global().run(&jobs);

    let mut t = TextTable::new(&[
        "platform",
        "level1-best cfg",
        "level2-best cfg",
        "level3-best cfg",
    ]);
    for (r, &run_level) in ResourceLevel::ALL.iter().enumerate() {
        let mut cells = vec![run_level.to_string()];
        for c in 0..tuned.len() {
            cells.push(format!(
                "{:.0}",
                samples[r * tuned.len() + c].mean_response_ms
            ));
        }
        t.row(&cells);
    }
    let _ = write!(out, "{t}");
    save(&t, opts, "fig3.csv", out);
}

fn fig4(opts: &Options, out: &mut String) {
    banner(
        out,
        "Figure 4: concave upward effect of MaxClients and regression",
    );
    let sweep: Vec<u32> = (0..=11).map(|i| 50 + i * 50).collect();
    let spec = paper_system_spec();
    let configs: Vec<ServerConfig> = sweep
        .iter()
        .map(|&mc| {
            ServerConfig::default()
                .with(Param::MaxClients, mc)
                .expect("in range")
        })
        .collect();
    let measurer = SimMeasurer::new(spec, opts.warmup(), opts.interval());
    let samples = measurer.sample_batch(&configs);
    let xs: Vec<Vec<f64>> = sweep.iter().map(|&mc| vec![mc as f64]).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.mean_response_ms).collect();
    // Winsorize exactly like the initialization pipeline: the choked
    // low-MaxClients corner is orders of magnitude off-scale and would
    // dominate the least-squares fit.
    let mut sorted = ys.clone();
    sorted.sort_by(f64::total_cmp);
    let cap = sorted[sorted.len() / 2] * 25.0;
    let fit_ys: Vec<f64> = ys.iter().map(|y| y.min(cap)).collect();
    let model = numerics::PolynomialModel::fit(&xs, &fit_ys).expect("quadratic fit");
    let mut t = TextTable::new(&["MaxClients", "measured (ms)", "regression (ms)"]);
    let mut measured = Vec::new();
    let mut fitted = Vec::new();
    for (x, y) in xs.iter().zip(&ys) {
        let pred = model.predict(x);
        t.row(&[
            format!("{}", x[0] as u32),
            format!("{y:.0}"),
            format!("{pred:.0}"),
        ]);
        measured.push(*y);
        fitted.push(pred);
    }
    let _ = write!(out, "{t}");
    let _ = write!(
        out,
        "{}",
        ascii_chart(&[("measured", measured), ("regression", fitted)], 12)
    );
    let _ = writeln!(
        out,
        "  fit: r² = {:.3}, rmse = {:.1} ms",
        model.quality().r_squared,
        model.quality().rmse
    );
    save(&t, opts, "fig4.csv", out);
}

// --------------------------------------------------------------------
// Online-learning figures (Section 5)
// --------------------------------------------------------------------

fn experiment_123(opts: &Options) -> Experiment {
    let contexts = paper_contexts();
    let n = opts.iters(30);
    Experiment::new(paper_system_spec())
        .with_interval(opts.interval())
        .with_warmup(opts.warmup())
        .then(contexts[0], n)
        .then(contexts[1], n)
        .then(contexts[2], n)
}

fn series_table(
    opts: &Options,
    file: &str,
    named: &[(&str, &Vec<IterationRecord>)],
    out: &mut String,
) {
    let mut headers = vec!["iteration"];
    headers.extend(named.iter().map(|(n, _)| *n));
    let mut t = TextTable::new(&headers);
    let len = named.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..len {
        let mut cells = vec![i.to_string()];
        for (_, s) in named {
            cells.push(
                s.get(i)
                    .map(|r| format!("{:.0}", r.response_ms))
                    .unwrap_or_default(),
            );
        }
        t.row(&cells);
    }
    save(&t, opts, file, out);
    let chart: Vec<(&str, Vec<f64>)> = named
        .iter()
        .map(|(n, s)| (*n, response_series(s)))
        .collect();
    let _ = write!(out, "{}", ascii_chart(&chart, 14));
}

fn fig5(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(
        out,
        "Figure 5: performance due to different auto-configuration policies",
    );
    let exp = experiment_123(opts);

    let (mut rac_agent, mut tae, mut dflt) = lineup_arms(Some(library));
    let rac_series = exp.run(&mut rac_agent);
    let tae_series = exp.run(&mut tae);
    let dflt_series = exp.run(&mut dflt);

    series_table(
        opts,
        "fig5.csv",
        &[
            ("RAC", &rac_series),
            ("trial-and-error", &tae_series),
            ("static default", &dflt_series),
        ],
        out,
    );

    let (m_rac, m_tae, m_dflt) = (
        series_mean(&rac_series),
        series_mean(&tae_series),
        series_mean(&dflt_series),
    );
    let _ = writeln!(out, "  mean response time: RAC {m_rac:.0} ms | trial-and-error {m_tae:.0} ms | default {m_dflt:.0} ms");
    let _ = writeln!(
        out,
        "  RAC improvement: {:.0}% vs trial-and-error, {:.0}% vs static default",
        100.0 * (m_tae - m_rac) / m_tae,
        100.0 * (m_dflt - m_rac) / m_dflt
    );
    let n = exp.total_iterations() / 3;
    for (phase, label) in [(0, "context-1"), (1, "context-2"), (2, "context-3")] {
        let slice = &response_series(&rac_series)[phase * n..(phase + 1) * n];
        match convergence_iteration(slice, 0.2) {
            Some(it) => {
                let _ = writeln!(out, "  RAC stabilized in {label} after {it} iterations");
            }
            None => {
                let _ = writeln!(out, "  RAC did not stabilize in {label}");
            }
        }
    }
    let _ = writeln!(
        out,
        "  RAC policy switches: {}",
        rac_agent.policy_switches()
    );
}

fn fig6(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(out, "Figure 6: effect of online training");
    let context = paper_contexts()[0];
    let policy = library
        .for_context(context)
        .expect("context-1 policy")
        .clone();
    let exp = Experiment::new(paper_system_spec())
        .with_interval(opts.interval())
        .with_warmup(opts.warmup())
        .then(context, opts.iters(40));

    let mut with_ol = RacAgent::with_initial_policy(standard_settings(), &policy)
        .expect("library policies use the standard lattice");
    let with_series = exp.run(&mut with_ol);
    let mut without_ol = RacAgent::with_initial_policy(
        RacSettings {
            online_learning: false,
            ..standard_settings()
        },
        &policy,
    )
    .expect("library policies use the standard lattice");
    let without_series = exp.run(&mut without_ol);

    series_table(
        opts,
        "fig6.csv",
        &[
            ("w/ online learning", &with_series),
            ("w/o online learning", &without_series),
        ],
        out,
    );
    let tail = with_series.len().saturating_sub(10);
    let _ = writeln!(
        out,
        "  stable performance: w/ online learning {:.0} ms | w/o {:.0} ms",
        series_mean(&with_series[tail..]),
        series_mean(&without_series[tail..])
    );
}

fn fig7(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(
        out,
        "Figure 7: performance with and without policy initialization",
    );
    for (sub, ctx_index) in [("a", 1usize), ("b", 3usize)] {
        let context = paper_contexts()[ctx_index];
        let _ = writeln!(out, "-- Figure 7({sub}): context-{}", ctx_index + 1);
        let policy = library
            .for_context(context)
            .expect("Table-2 context")
            .clone();
        let exp = Experiment::new(paper_system_spec())
            .with_interval(opts.interval())
            .with_warmup(opts.warmup())
            .then(context, opts.iters(30));

        let mut with_init = RacAgent::with_initial_policy(standard_settings(), &policy)
            .expect("library policies use the standard lattice");
        let with_series = exp.run(&mut with_init);
        let mut without_init = RacAgent::new(standard_settings());
        let without_series = exp.run(&mut without_init);

        series_table(
            opts,
            &format!("fig7{sub}.csv"),
            &[
                ("w/ init policy", &with_series),
                ("w/o init policy", &without_series),
            ],
            out,
        );
        let _ = writeln!(
            out,
            "  mean: w/ init {:.0} ms | w/o init {:.0} ms | stable-after: {:?}",
            series_mean(&with_series),
            series_mean(&without_series),
            convergence_iteration(&response_series(&with_series), 0.2)
        );
    }
}

fn fig8(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(out, "Figure 8: effect of online exploration rates");
    let context = paper_contexts()[0];
    let policy = library
        .for_context(context)
        .expect("context-1 policy")
        .clone();
    let exp = Experiment::new(paper_system_spec())
        .with_interval(opts.interval())
        .with_warmup(opts.warmup())
        .then(context, opts.iters(50));

    let mut all = Vec::new();
    for epsilon in [0.05, 0.1, 0.3] {
        // The paper's experiment uses plain (unguarded) ε-greedy — the
        // whole point is to see what raw exploration costs online.
        let mut agent = RacAgent::with_initial_policy(
            RacSettings {
                epsilon,
                exploration_guard: f64::INFINITY,
                ..standard_settings()
            },
            &policy,
        )
        .expect("library policies use the standard lattice");
        all.push((format!("rate {epsilon}"), exp.run(&mut agent)));
    }
    let named: Vec<(&str, &Vec<IterationRecord>)> =
        all.iter().map(|(n, s)| (n.as_str(), s)).collect();
    series_table(opts, "fig8.csv", &named, out);
    for (name, series) in &all {
        let rts = response_series(series);
        let median = {
            let mut v: Vec<f64> = rts.iter().copied().filter(|x| x.is_finite()).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let spikes = rts.iter().filter(|&&rt| rt > 2.0 * median).count();
        let _ = writeln!(
            out,
            "  {name}: mean {:.0} ms, spikes (>2x median): {spikes}",
            series_mean(series)
        );
    }
}

fn fig9(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(
        out,
        "Figure 9: performance with static and adaptive policy initialization",
    );
    let static_policy = library
        .for_context(paper_contexts()[1])
        .expect("context-2")
        .clone();
    for (sub, ctx_index) in [("a", 4usize), ("b", 5usize)] {
        let context = paper_contexts()[ctx_index];
        let _ = writeln!(out, "-- Figure 9({sub}): context-{}", ctx_index + 1);
        let exp = Experiment::new(paper_system_spec())
            .with_interval(opts.interval())
            .with_warmup(opts.warmup())
            .then(context, opts.iters(40));

        let mut adaptive = RacAgent::with_policy_library(standard_settings(), library.clone());
        let adaptive_series = exp.run(&mut adaptive);
        let mut static_agent = RacAgent::with_initial_policy(standard_settings(), &static_policy)
            .expect("library policies use the standard lattice");
        let static_series = exp.run(&mut static_agent);

        series_table(
            opts,
            &format!("fig9{sub}.csv"),
            &[
                ("adaptive init policy", &adaptive_series),
                ("static init policy", &static_series),
            ],
            out,
        );
        let _ = writeln!(
            out,
            "  mean: adaptive {:.0} ms | static {:.0} ms | static stable-after {:?}",
            series_mean(&adaptive_series),
            series_mean(&static_series),
            convergence_iteration(&response_series(&static_series), 0.2)
        );
    }
}

fn fig10(opts: &Options, library: &PolicyLibrary, out: &mut String) {
    banner(out, "Figure 10: performance due to different RL policies");
    let static_policy = library
        .for_context(paper_contexts()[1])
        .expect("context-2")
        .clone();
    let exp = experiment_123(opts);

    let mut adaptive = RacAgent::with_policy_library(standard_settings(), library.clone());
    let adaptive_series = exp.run(&mut adaptive);
    let mut static_agent = RacAgent::with_initial_policy(standard_settings(), &static_policy)
        .expect("library policies use the standard lattice");
    let static_series = exp.run(&mut static_agent);
    let mut cold = RacAgent::new(standard_settings());
    let cold_series = exp.run(&mut cold);

    series_table(
        opts,
        "fig10.csv",
        &[
            ("adaptive init", &adaptive_series),
            ("static init", &static_series),
            ("w/o init", &cold_series),
        ],
        out,
    );
    let (ma, ms, mc) = (
        series_mean(&adaptive_series),
        series_mean(&static_series),
        series_mean(&cold_series),
    );
    let _ = writeln!(
        out,
        "  mean response time: adaptive {ma:.0} ms | static {ms:.0} ms | w/o init {mc:.0} ms"
    );
    let _ = writeln!(
        out,
        "  static-vs-adaptive loss: {:.0}%",
        100.0 * (ms - ma) / ma
    );
}

// --------------------------------------------------------------------
// Scenario runs (time-varying workload & fault injection)
// --------------------------------------------------------------------

/// The checkpoint flags `scenario` and `fleet` share, checked against
/// each other. `fleet` declares no `--checkpoint-every`: it checkpoints
/// after every step.
struct CheckpointFlags {
    dir: Option<PathBuf>,
    every: usize,
    stop_after: Option<usize>,
    resume: Option<PathBuf>,
    warm_start: Option<PathBuf>,
}

impl CheckpointFlags {
    fn parse(args: &Args) -> Result<CheckpointFlags, String> {
        let positive = |flag| args.value::<NonZeroUsize>(flag, POSITIVE);
        let flags = CheckpointFlags {
            dir: args.get("--checkpoint").map(PathBuf::from),
            every: positive("--checkpoint-every")?.map_or(5, NonZeroUsize::get),
            stop_after: positive("--stop-after")?.map(NonZeroUsize::get),
            resume: args.get("--resume").map(PathBuf::from),
            warm_start: args.get("--warm-start").map(PathBuf::from),
        };
        if flags.stop_after.is_some() && flags.dir.is_none() && flags.resume.is_none() {
            return Err("--stop-after only makes sense with --checkpoint or --resume".into());
        }
        if flags.resume.is_some() && flags.warm_start.is_some() {
            return Err("--resume restores the run from its checkpoint; \
                        --warm-start only applies to a fresh run"
                .into());
        }
        Ok(flags)
    }

    /// Where the run checkpoints: the file it resumed from, or `file`
    /// under `--checkpoint <dir>`.
    fn path(&self, file: &str) -> Option<PathBuf> {
        let fresh = || self.dir.as_ref().map(|dir| dir.join(file));
        self.resume.clone().or_else(fresh)
    }
}

/// Loads the snapshot `--resume` names — a half-written, corrupt or
/// stale checkpoint is an error, never a panic. First sweeps away any
/// `.tmp` file a crash left beside it: the committed snapshot is always
/// the one to resume from (the temp is a torn write by construction),
/// so the temp must never shadow the real file or clutter the directory.
fn load_resume(path: &Path) -> Result<ckpt::Snapshot, Exit> {
    match ckpt::remove_stale_temp(path) {
        Ok(true) => eprintln!(
            "note: removed stale temp checkpoint beside {} (crash mid-write)",
            path.display()
        ),
        Ok(false) => {}
        Err(e) => {
            let msg = format!("cannot clean stale temp beside {}: {e}", path.display());
            return Err(Exit::Fail(2, msg));
        }
    }
    ckpt::Snapshot::load(path)
        .map_err(|e| Exit::Fail(2, format!("cannot resume from {}: {e}", path.display())))
}

/// Reads the policy library of the line-up checkpoint `--warm-start`
/// names. A library trained on another lattice is a typed mismatch
/// here, at the seeding boundary, instead of a panic mid-run.
fn load_warm_start(path: &Path) -> Result<PolicyLibrary, Exit> {
    rac_bench::checkpoint::warm_start_library(path)
        .map_err(|e| Exit::Fail(2, format!("cannot warm-start from {}: {e}", path.display())))
}

/// Entry point for `figures scenario ...`: lists the bundled scenarios
/// or runs each operand (bundled name or `.scn` path) through the
/// standard tuner line-up, writing `results/scenario-<name>.csv` per
/// run. With `--checkpoint`/`--resume`, the line-up persists and
/// restores itself through `rac_bench::checkpoint`.
///
/// Scenario runs are sequential end to end — the series must be a pure
/// function of (spec, scenario, seed), bit-identical at any
/// `RAC_THREADS` — so unlike the figure jobs there is no fan-out here.
///
/// With `--serve`, the growing trace is additionally flushed to its
/// final path as each tuner session completes, so `inspect_trace
/// --follow` can tail the run; the flushes are prefixes of the final
/// byte-identical file.
fn run_scenarios<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    let flags = CheckpointFlags::parse(args)?;
    if flags.resume.is_some() && args.operands.len() != 1 {
        return Err(Exit::Usage(
            "--resume continues exactly one scenario run".into(),
        ));
    }
    if args.has("--list") {
        println!("bundled scenarios:");
        for (name, src) in scenario::bundled::all() {
            let scn = Scenario::parse(src).expect("bundled scenario parses");
            println!(
                "  {name}: {} iterations of {:.0}s, {} directives",
                scn.iterations(),
                scn.interval.as_secs_f64(),
                scn.directives.len()
            );
        }
        return Ok(None);
    }
    if args.operands.is_empty() {
        return Err(Exit::Usage(
            "scenario needs a <name|file.scn> operand".into(),
        ));
    }
    let scenarios: Vec<Scenario> = args
        .operands
        .iter()
        .map(|arg| scenario_operand(arg, opts))
        .collect::<Result<_, _>>()?;
    let resume = flags.resume.as_deref().map(load_resume).transpose()?;
    let mut warm_start = None;
    if let Some(path) = &flags.warm_start {
        let lib = load_warm_start(path)?;
        console.note(format!(
            "  warm start: {} policies from {}",
            lib.len(),
            path.display()
        ));
        warm_start = Some(lib);
    }

    job(format!("scenario {}", args.operands.join(" ")), move || {
        // A resumed line-up runs on the library its snapshot names.
        let library = match (warm_start, &resume) {
            (Some(lib), _) => Some(lib),
            (None, Some(_)) => None,
            (None, None) => Some(standard_policy_library(&opts.cache_dir())),
        };
        let live = args.has("--serve");
        let started = Instant::now();
        for scn in &scenarios {
            let ckpt_plan = flags
                .path(&format!("scenario-{}.ckpt", scn.name))
                .map(|path| CheckpointOptions {
                    path,
                    every: flags.every,
                    stop_after: flags.stop_after,
                });
            let trace_path = opts
                .results_dir
                .join(format!("scenario-{}.trace.jsonl", scn.name));
            // Live runs flush the growing trace between tuner sessions so
            // followers see events mid-run (never for checkpointed runs,
            // whose stop-after contract is "no trace file"; an untraced
            // run has no trace scope, so it flushes nothing).
            let live_trace = (live && ckpt_plan.is_none()).then_some(trace_path.as_path());
            let mut out = String::new();
            let t0 = Instant::now();
            // The failed run is exactly the one you want data from, so a
            // panic is caught inside the trace scope and the partial trace
            // written before it unwinds on.
            let (outcome, trace) = obs::trace::capture(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    scenario_figure(
                        scn,
                        library.as_ref(),
                        opts,
                        ckpt_plan.as_ref(),
                        resume.as_ref(),
                        live_trace,
                        &mut out,
                    )
                }))
            });
            print!("{out}");
            // Partial output goes under a `.failed.` name, so it can never
            // masquerade as a completed run's artifact.
            let failed_trace = || {
                if let Some(writer) = &trace {
                    let path = opts
                        .results_dir
                        .join(format!("scenario-{}.failed.trace.jsonl", scn.name));
                    write_trace(writer, &path, console);
                }
            };
            let completed = match outcome {
                Ok(Ok(completed)) => completed,
                Ok(Err(e)) => {
                    failed_trace();
                    let msg = format!("scenario {}: checkpoint error: {e}", scn.name);
                    return Err(Exit::Fail(2, msg));
                }
                Err(payload) => {
                    eprintln!("scenario {}: run panicked", scn.name);
                    failed_trace();
                    std::panic::resume_unwind(payload);
                }
            };
            // An interrupted (`--stop-after`) run writes neither CSV nor
            // trace: its outputs exist only to be byte-compared against an
            // uninterrupted run once resumed to completion.
            if let (true, Some(writer)) = (completed, &trace) {
                write_trace(writer, &trace_path, console);
            }
            console.note(format!(
                "  [scenario {}: {:.1}s wall-clock]",
                scn.name,
                t0.elapsed().as_secs_f64()
            ));
        }
        console.note(format!(
            "\ntotal: {:.1}s wall-clock over {} scenario(s)",
            started.elapsed().as_secs_f64(),
            scenarios.len()
        ));
        Ok(())
    })
}

/// Runs one scenario through RAC, trial-and-error, and the static
/// default, then reports the series table, chart, and summary stats.
/// `library` is `None` only for a resumed run, which takes the library
/// its snapshot names. Returns `Ok(false)` when a checkpointed run
/// stopped early (`--stop-after`) — the caller then skips the CSV and
/// trace artifacts — and `Err` on checkpoint I/O or validation failures.
fn scenario_figure(
    scn: &Scenario,
    library: Option<&PolicyLibrary>,
    opts: &Options,
    ckpt_plan: Option<&CheckpointOptions>,
    resume: Option<&ckpt::Snapshot>,
    live_trace: Option<&Path>,
    out: &mut String,
) -> Result<bool, ckpt::CkptError> {
    banner(
        out,
        &format!(
            "Scenario {}: {} iterations of {:.0}s ({} timeline events)",
            scn.name,
            scn.iterations(),
            scn.interval.as_secs_f64(),
            scn.compile().len()
        ),
    );
    let outcome = run_lineup(scn, library, ckpt_plan, resume, |status| {
        // Live run: flush the (prefix-stable) trace as each tuner
        // session ends so followers see it grow mid-run.
        if let Some(path) = live_trace.filter(|_| status.tuner_iteration == scn.iterations()) {
            if let Some(text) = obs::trace::snapshot_serialized() {
                let _ = std::fs::write(path, text);
            }
        }
        LineupCommand::Continue
    })?;
    let series = match outcome {
        LineupOutcome::Complete(series) => series,
        LineupOutcome::Interrupted { global_iterations } => {
            let plan = ckpt_plan.expect("only a checkpointed run stops early");
            let _ = writeln!(
                out,
                "  stopped after {global_iterations} line-up iterations \
                 (checkpoint: {})",
                plan.path.display()
            );
            let _ = writeln!(
                out,
                "  resume with: figures scenario {} --resume {}",
                scn.name,
                plan.path.display()
            );
            return Ok(false);
        }
    };
    let t = rac_bench::scenario::scenario_table(scn, &series);
    let _ = write!(out, "{t}");
    let chart: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, s)| (*n, response_series(s)))
        .collect();
    let _ = write!(out, "{}", ascii_chart(&chart, 14));
    for (name, s) in &series {
        let finite: Vec<f64> = response_series(s)
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        let worst = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let violations = finite.iter().filter(|&&rt| rt > SLA_MS).count();
        let dropped = s.len() - finite.len();
        let _ = writeln!(
            out,
            "  {name}: mean {:.0} ms, worst {worst:.0} ms, SLA violations {violations}/{}, dropped intervals {dropped}",
            rac_bench::scenario::finite_mean(s),
            s.len()
        );
    }
    save(&t, opts, &format!("scenario-{}.csv", scn.name), out);
    Ok(true)
}

/// `figures profile <scenario>` — one checkpointed line-up run with the
/// self-profiler on, reported as a self-time table plus a
/// flamegraph-compatible folded-stack file. The run is checkpointed
/// (into a throwaway directory, snapshot and library sidecar both
/// deleted afterwards) so the `checkpoint` phase shows up in the
/// attribution alongside measure/tuner/sweep.
fn run_profile<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    let [arg] = args.operands.as_slice() else {
        return Err(Exit::Usage(
            "profile takes exactly one <name|file.scn> operand".into(),
        ));
    };
    let scn = scenario_operand(arg, opts)?;

    job(format!("profile {}", scn.name), move || {
        obs::profile::set_enabled(true);
        obs::profile::reset();
        let started = Instant::now();
        let library = standard_policy_library(&opts.cache_dir());
        let ckpt_dir = opts.results_dir.join(format!("profile-{}-ckpt", scn.name));
        let plan = CheckpointOptions {
            path: ckpt_dir.join("lineup.ckpt"),
            every: 5,
            stop_after: None,
        };
        console.note(format!(
            "profiling scenario {}: {} iterations of {:.0}s per tuner",
            scn.name,
            scn.iterations(),
            scn.interval.as_secs_f64()
        ));
        let t0 = Instant::now();
        let outcome = rac_bench::checkpoint::run_tuners_checkpointed(&scn, &library, &plan, None);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        match outcome {
            Ok(LineupOutcome::Complete(_)) => {}
            Ok(LineupOutcome::Interrupted { .. }) => unreachable!("stop_after is None"),
            Err(e) => {
                let msg = format!("profile {}: checkpoint error: {e}", scn.name);
                return Err(Exit::Fail(2, msg));
            }
        }
        console.note(format!(
            "  [profile {}: {:.1}s wall-clock]",
            scn.name,
            t0.elapsed().as_secs_f64()
        ));

        let snapshot = obs::profile::snapshot();
        print!("{}", rac_bench::profile::self_time_table(&snapshot));
        let events = rac_bench::profile::simulator_event_counts();
        let wall_s = started.elapsed().as_secs_f64();
        print!("{}", rac_bench::profile::event_rate_table(&events, wall_s));
        let folded_path = opts
            .results_dir
            .join(format!("profile-{}.folded", scn.name));
        rac_bench::profile::write_folded(&folded_path)
            .map_err(|e| Exit::Fail(2, format!("cannot write {}: {e}", folded_path.display())))?;
        println!(
            "wrote {} ({} call paths)",
            folded_path.display(),
            snapshot.len()
        );
        Ok(())
    })
}

/// `figures chaos` — the deterministic chaos harness: for each seed,
/// generate a randomized fault schedule, run a cold-started RAC agent
/// through it, write `results/chaos-<seed>.csv` (and a trace under
/// `RAC_OBS=trace`), and check the guardrail invariants. Exits nonzero
/// if any invariant is violated, so CI can gate on it.
fn run_chaos_harness<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    let seeds = seed_operands(args, &rac_bench::chaos::PINNED_SEEDS)?;
    let iterations = args
        .value("--iterations", UNSIGNED)?
        .unwrap_or(rac_bench::chaos::DEFAULT_ITERATIONS);

    let names: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    job(format!("chaos {}", names.join(" ")), move || {
        let started = Instant::now();
        let mut violation_count = 0usize;
        for &seed in &seeds {
            let scn = rac_bench::chaos::chaos_scenario(seed, iterations);
            let t0 = Instant::now();
            let (series, trace) = obs::trace::capture(|| rac_bench::chaos::run_chaos(&scn));
            let mut out = String::new();
            banner(
                &mut out,
                &format!(
                    "Chaos seed {seed}: {} iterations of {:.0}s, {} directives",
                    scn.iterations(),
                    scn.interval.as_secs_f64(),
                    scn.directives.len()
                ),
            );
            let t = rac_bench::chaos::chaos_table(&series);
            let _ = write!(out, "{t}");
            let finite: Vec<f64> = series
                .iter()
                .map(|r| r.response_ms)
                .filter(|x| x.is_finite())
                .collect();
            let worst = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let sla_misses = finite.iter().filter(|&&rt| rt > SLA_MS).count();
            let _ = writeln!(
                out,
                "  worst {worst:.0} ms, SLA misses {sla_misses}/{}, lost intervals {}",
                series.len(),
                series.len() - finite.len()
            );
            let violations = rac_bench::chaos::check_invariants(&scn, &series);
            if violations.is_empty() {
                let _ = writeln!(out, "  invariants hold");
            }
            for v in &violations {
                let _ = writeln!(out, "  INVARIANT VIOLATED: {v}");
            }
            violation_count += violations.len();
            save(&t, opts, &format!("chaos-{seed}.csv"), &mut out);
            print!("{out}");
            if let Some(writer) = &trace {
                let path = opts.results_dir.join(format!("chaos-{seed}.trace.jsonl"));
                write_trace(writer, &path, console);
            }
            console.note(format!(
                "  [chaos {seed}: {:.1}s wall-clock]",
                t0.elapsed().as_secs_f64()
            ));
        }
        console.note(format!(
            "\ntotal: {:.1}s wall-clock over {} seed(s)",
            started.elapsed().as_secs_f64(),
            seeds.len()
        ));
        if violation_count > 0 {
            let msg = format!("chaos: {violation_count} invariant violation(s)");
            return Err(Exit::Fail(1, msg));
        }
        Ok(())
    })
}

// --------------------------------------------------------------------
// `figures crashdrill`: SIGKILL a live racd daemon at seeded points and
// assert byte-identical convergence after recovery.

fn run_crashdrill<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    let seeds = seed_operands(args, &rac_bench::crashdrill::DEFAULT_SEEDS)?;
    let iterations = args
        .value("--iterations", UNSIGNED)?
        .unwrap_or(rac_bench::chaos::DEFAULT_ITERATIONS);
    let racd = rac_bench::crashdrill::find_racd()
        .map_err(|e| Exit::Fail(2, format!("crashdrill: {e}")))?;

    let names: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    job(format!("crashdrill {}", names.join(" ")), move || {
        console.note(format!("crashdrill: daemon binary {}", racd.display()));
        let drill_opts = rac_bench::crashdrill::DrillOptions {
            out_dir: opts.results_dir.clone(),
            iterations,
        };
        let failures = obs::Registry::global().counter("rac_crashdrill_failures_total");
        let started = Instant::now();
        for &seed in &seeds {
            // The drill's daemons are other processes: this span is what
            // the run's own metrics snapshot shows of each seed.
            let _span = obs::Span::start("crashdrill");
            let t0 = Instant::now();
            match rac_bench::crashdrill::run_drill(&racd, seed, &drill_opts) {
                Ok(report) => {
                    println!("crashdrill seed {seed}:");
                    for k in &report.kills {
                        println!("  {k}");
                    }
                    if report.failures.is_empty() {
                        println!(
                            "  converged byte-identically after {} kill(s)",
                            report.kills.len()
                        );
                    } else {
                        for f in &report.failures {
                            println!("  FAILED: {f}");
                        }
                        failures.add(report.failures.len() as u64);
                    }
                    console.note(format!(
                        "  [crashdrill {seed}: {:.1}s wall-clock]",
                        t0.elapsed().as_secs_f64()
                    ));
                }
                Err(e) => {
                    eprintln!("crashdrill seed {seed}: {e}");
                    failures.inc();
                }
            }
        }
        console.note(format!(
            "\ntotal: {:.1}s wall-clock over {} seed(s)",
            started.elapsed().as_secs_f64(),
            seeds.len()
        ));
        match failures.get() {
            0 => Ok(()),
            n => Err(Exit::Fail(1, format!("crashdrill: {n} failure(s)"))),
        }
    })
}

// --------------------------------------------------------------------

fn save(t: &TextTable, opts: &Options, file: &str, out: &mut String) {
    let path: &Path = &opts.results_dir.join(file);
    match t.write_csv(path) {
        Ok(()) => {
            let _ = writeln!(out, "  -> {}", path.display());
        }
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

// --------------------------------------------------------------------
// `figures fleet`: multi-tenant runs with cross-tenant policy transfer.

/// Entry point for `figures fleet ...`: generates the tenant roster,
/// runs every tenant's RAC experiment sharded over the global runner
/// with nearest-neighbor policy transfer, and writes the per-tenant,
/// aggregate, and scaling CSVs under `results/`.
fn run_fleet<'a>(args: &'a Args, opts: &'a Options, console: &'a Console) -> Checked<'a> {
    let tenants = count_operand(args, "tenant-count")?.unwrap_or(200);
    let flags = CheckpointFlags::parse(args)?;
    let positive = |flag| args.value::<NonZeroUsize>(flag, POSITIVE);
    let cold = positive("--cold")?.map_or((tenants / 4).max(1), NonZeroUsize::get);
    let chunk = positive("--chunk")?.map_or(25, NonZeroUsize::get);
    let radius = args.value_by("--radius", "a positive number", |v| {
        v.parse::<f64>().ok().filter(|d| *d > 0.0)
    })?;
    let config = fleet::FleetConfig {
        tenants,
        seed: args.value("--seed", UNSIGNED)?.unwrap_or(42),
        cold,
        chunk,
        // Bundled scenarios span 7200 s; compress the timeline (same
        // iteration count, shorter intervals) so a 200-tenant fleet
        // finishes in minutes. `--quick` compresses 3x harder.
        scale_den: if opts.quick { 15 } else { 5 },
        online_levels: ONLINE_LEVELS,
        control: !args.has("--no-control"),
        radius: radius.unwrap_or(0.005),
    };

    if args.has("--list") {
        let roster = fleet::generate(config.tenants, config.seed);
        println!(
            "fleet roster: {} tenants from seed {}",
            config.tenants, config.seed
        );
        print!("{}", rac_bench::fleet::roster_table(&roster));
        return Ok(None);
    }

    let run = if let Some(path) = &flags.resume {
        let run = fleet::FleetRun::resume(config.clone(), &load_resume(path)?)
            .map_err(|e| Exit::Fail(2, format!("cannot resume from {}: {e}", path.display())))?;
        console.note(format!(
            "  resume: {}/{} tenants already finished ({} donors)",
            run.done(),
            tenants,
            run.store().len()
        ));
        run
    } else if let Some(path) = &flags.warm_start {
        let run = fleet::FleetRun::with_library(config.clone(), &load_warm_start(path)?).map_err(
            |e| Exit::Fail(2, format!("cannot warm-start from {}: {e}", path.display())),
        )?;
        console.note(format!(
            "  warm start: {} library donor(s) from {}",
            run.store().len(),
            path.display()
        ));
        run
    } else {
        fleet::FleetRun::new(config.clone()).map_err(|e| Exit::Fail(2, e.to_string()))?
    };
    job(format!("fleet {tenants}"), move || {
        fleet_job(run, &config, &flags, opts, console)
    })
}

/// Runs a checked fleet to completion (or to `--stop-after`),
/// checkpointing after every step when asked to.
fn fleet_job(
    mut run: fleet::FleetRun,
    config: &fleet::FleetConfig,
    flags: &CheckpointFlags,
    opts: &Options,
    console: &Console,
) -> Result<(), Exit> {
    let ckpt_path = flags.path("fleet.ckpt");
    let runner = Runner::global();
    console.note(format!(
        "fleet: {} tenants (cold wave {}, chunks of {}), seed {}, {} worker thread(s) [RAC_THREADS]",
        config.tenants,
        config.cold,
        config.chunk,
        config.seed,
        runner.threads()
    ));
    let started = Instant::now();
    let mut milestones: Vec<(usize, f64)> = Vec::new();
    while !run.is_complete() {
        run.step(runner)
            .map_err(|e| Exit::Fail(2, format!("fleet step failed: {e}")))?;
        milestones.push((run.done(), started.elapsed().as_secs_f64()));
        console.note(format!(
            "  fleet: {}/{} tenants, {} donor(s), {:.1}s",
            run.done(),
            config.tenants,
            run.store().len(),
            started.elapsed().as_secs_f64()
        ));
        if let Some(path) = &ckpt_path {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).ok();
                }
            }
            let mut snap = ckpt::SnapshotWriter::new();
            run.save(&mut snap);
            snap.write_atomic(path).map_err(|e| {
                Exit::Fail(2, format!("cannot checkpoint to {}: {e}", path.display()))
            })?;
        }
        if flags
            .stop_after
            .is_some_and(|stop| run.done() >= stop && !run.is_complete())
        {
            // Interrupted runs write no CSVs: their outputs exist to be
            // byte-compared once resumed to completion.
            console.note(format!(
                "  fleet: stopping after {} tenants (checkpointed; resume with --resume)",
                run.done()
            ));
            return Ok(());
        }
    }

    let stats = rac_bench::fleet::aggregate(&run);
    let table = rac_bench::fleet::aggregate_table(&stats);
    println!(
        "fleet: {} tenants, seed {} — SLA attainment by cohort",
        config.tenants, config.seed
    );
    print!("{table}");
    let [cold_stats, warm_stats, control_stats, _] = &stats;
    if control_stats.tenants > 0 {
        // The matched-pair comparison: the same tenants, warm vs cold.
        // (warm vs the cold *wave* compares different tenants and mostly
        // measures roster composition.)
        println!(
            "policy transfer: warm-started tenants reached SLA in {:.1} iterations (mean) vs \
             {:.1} for their matched cold controls — {:.1}% fewer",
            warm_stats.mean_iters_to_sla,
            control_stats.mean_iters_to_sla,
            100.0 * (1.0 - warm_stats.mean_iters_to_sla / control_stats.mean_iters_to_sla)
        );
    } else if warm_stats.tenants > 0 && cold_stats.tenants > 0 {
        println!(
            "policy transfer: warm cohort mean {:.1} iterations to SLA vs cold wave {:.1} \
             (unmatched cohorts — rerun without --no-control for the paired comparison)",
            warm_stats.mean_iters_to_sla, cold_stats.mean_iters_to_sla
        );
    }

    std::fs::create_dir_all(&opts.results_dir).ok();
    for (file, text) in [
        ("fleet-tenants.csv", rac_bench::fleet::tenants_csv(&run)),
        ("fleet-aggregate.csv", table.render_csv()),
        (
            "fleet-scaling.csv",
            rac_bench::fleet::scaling_csv(runner.threads(), &milestones),
        ),
    ] {
        let path = opts.results_dir.join(file);
        match std::fs::write(&path, text) {
            Ok(()) => println!("  -> {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
    console.note(format!(
        "\ntotal: {:.1}s wall-clock over {} tenants ({:.2} tenants/s)",
        started.elapsed().as_secs_f64(),
        config.tenants,
        config.tenants as f64 / started.elapsed().as_secs_f64().max(1e-9)
    ));
    Ok(())
}
