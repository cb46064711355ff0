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
//! cargo run --release -p rac-bench --bin figures -- bench            # writes BENCH_9.json
//! cargo run --release -p rac-bench --bin figures -- bench --quick --check BENCH_9.json
//! cargo run --release -p rac-bench --bin figures -- tournament       # 200 generated scenarios
//! cargo run --release -p rac-bench --bin figures -- tournament 24 --quick --seed 7
//! RAC_THREADS=8 cargo run --release -p rac-bench --bin figures -- all
//! RAC_OBS=trace cargo run --release -p rac-bench --bin figures -- fig5
//!
//! # Crash-safe scenario runs
//! figures -- scenario flash-crowd --checkpoint ckpts
//! figures -- scenario flash-crowd --checkpoint ckpts --stop-after 10
//! figures -- scenario flash-crowd --resume ckpts/scenario-flash-crowd.ckpt
//! figures -- scenario diurnal --warm-start ckpts/scenario-flash-crowd.ckpt
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
//! `inspect_trace` bin), and every run writes a metrics snapshot to
//! `results/metrics.prom` + `results/metrics.csv` unless observability
//! is off.
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
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use obs::{Console, TraceWriter};

use rac::{
    grouping, maxclients_sweep, paper_contexts, series_mean, Experiment, IterationRecord,
    MeasureJob, PolicyLibrary, RacAgent, RacSettings, Runner, SimMeasurer,
};
use rac_bench::checkpoint::{
    lineup_arms, run_lineup, CheckpointOptions, LineupCommand, LineupOutcome,
};
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--serve <addr>` is global: extract it (and its value) before any
    // sub-grammar sees the tail, then start the embedded observability
    // server so it is already answering while the policy library builds.
    let serve_addr = extract_serve_flag(&mut args);
    let live = serve_addr.is_some();
    let quick = args.iter().any(|a| a == "--quick");
    let quiet = args.iter().any(|a| a == "--quiet");
    let cmds: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let opts = Options {
        quick,
        results_dir: PathBuf::from("results"),
    };
    let console = Console::from_env(quiet);
    let _server = serve_addr.map(|addr| start_obs_server(&addr));

    // `scenario` is its own sub-grammar (operands are scenario names or
    // .scn paths, plus `--list` and the checkpoint flags, some of which
    // take values), so it gets the *raw* argument tail and branches off
    // before the figure validation below.
    if cmds.first() == Some(&"scenario") {
        run_scenarios(subcommand_tail(&args, "scenario"), &opts, &console, live);
        return;
    }

    // `chaos` likewise: operands are RNG seeds (default: the pinned CI
    // seeds), and the exit code reports invariant violations.
    if cmds.first() == Some(&"chaos") {
        run_chaos_harness(subcommand_tail(&args, "chaos"), &opts, &console);
        return;
    }

    // `crashdrill` likewise: operands are drill seeds; each seed
    // SIGKILLs a live racd daemon at seeded points and asserts the
    // recovered output is byte-identical to an uninterrupted run.
    if cmds.first() == Some(&"crashdrill") {
        run_crashdrill(subcommand_tail(&args, "crashdrill"), &opts, &console);
        return;
    }

    // `bench` likewise: runs the perf-trajectory suite and writes (or,
    // with --check, regression-tests against) a BENCH_<n>.json; its
    // --out/--check flags take values.
    if cmds.first() == Some(&"bench") {
        run_bench_suite(subcommand_tail(&args, "bench"), &console);
        return;
    }

    // `fleet` likewise: the operand is a tenant count, and the flags
    // (seed, cold wave, chunking, checkpointing) form a sub-grammar.
    if cmds.first() == Some(&"fleet") {
        run_fleet(subcommand_tail(&args, "fleet"), &opts, &console);
        return;
    }

    // `tournament` likewise: the operand is a scenario count, with
    // seed/profile/out flags.
    if cmds.first() == Some(&"tournament") {
        run_tournament(subcommand_tail(&args, "tournament"), &opts, &console);
        return;
    }

    // `profile` runs one scenario line-up under the hierarchical
    // self-profiler and reports where the wall-clock went.
    if cmds.first() == Some(&"profile") {
        run_profile(subcommand_tail(&args, "profile"), &opts, &console);
        return;
    }

    let selected: Vec<&str> = if cmds.is_empty() || cmds.contains(&"all") {
        ALL_CMDS.to_vec()
    } else {
        cmds
    };
    for cmd in &selected {
        if !ALL_CMDS.contains(cmd) {
            eprintln!("unknown experiment: {cmd}");
            top_usage();
        }
    }

    // The policy library feeds six figures; build it once before the
    // fan-out so concurrent jobs share it (and the disk cache sees a
    // single writer).
    let library = if selected.iter().any(|c| needs_library(c)) {
        Some(standard_policy_library(&opts.cache_dir()))
    } else {
        None
    };

    let runner = Runner::global();
    if obs::enabled() {
        obs::health::global().begin_job(&format!("figures {}", selected.join(" ")));
    }
    console.note(format!(
        "figures: {} job(s) across {} worker thread(s) [RAC_THREADS]",
        selected.len(),
        runner.threads()
    ));
    let started = Instant::now();
    let tracing = obs::tracing_enabled();
    let reports = runner.run_tasks(selected.len(), |i| {
        let cmd = selected[i];
        let _span = obs::Span::start("figure");
        let mut out = String::new();
        let t0 = Instant::now();
        // Each figure gets its own trace scope: the scope is
        // thread-local and the figure job is single-threaded (its
        // measurement fan-out happens in untraced workers), so the
        // JSONL is deterministic per figure at any RAC_THREADS.
        let trace = if tracing {
            let writer = Arc::new(TraceWriter::new());
            obs::trace::with_writer(&writer, || {
                run_figure(cmd, &opts, library.as_ref(), &mut out)
            });
            Some(writer)
        } else {
            run_figure(cmd, &opts, library.as_ref(), &mut out);
            None
        };
        (out, t0.elapsed().as_secs_f64(), trace)
    });
    for (cmd, (out, secs, trace)) in selected.iter().zip(&reports) {
        print!("{out}");
        if let Some(writer) = trace {
            let path = opts.results_dir.join(format!("{cmd}.trace.jsonl"));
            match writer.write_to(&path) {
                Ok(()) => {
                    console.note(format!("  -> {} ({} events)", path.display(), writer.len()))
                }
                Err(e) => eprintln!("  could not write {}: {e}", path.display()),
            }
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
    write_metrics_snapshot(&opts, &console);
    if obs::enabled() {
        obs::health::global().finish_job(true);
    }
}

/// Prints the top-level usage synopsis and exits 2 — the shared exit
/// for every malformed top-level invocation.
fn top_usage() -> ! {
    eprintln!(
        "available: table1 table2 fig1..fig10 all | scenario <name|file.scn> [--list] \
         [--quick] [--quiet] | fleet [<tenants>] [--list] [--seed N] | chaos [<seed>...] \
         [--iterations <n>] | bench [--quick] \
         [--out <path>] [--check <committed.json>] | \
         tournament [<scenarios>] [--seed N] [--profile <calm|brisk|stormy>] [--out <dir>] \
         [--quick] | profile <name|file.scn> [--quick] | crashdrill [<seed>...] \
         [--iterations <n>]\n\
         global: --serve <addr> exposes /metrics, /healthz and /profile over HTTP \
         while the run executes"
    );
    std::process::exit(2);
}

/// The argument tail after the subcommand token the dispatch matched.
/// The token always exists (it came from scanning `args`), but if the
/// scan ever drifts the user gets the usage message and exit 2, never a
/// panic.
fn subcommand_tail<'a>(args: &'a [String], cmd: &str) -> &'a [String] {
    match args.iter().position(|a| a == cmd) {
        Some(pos) => &args[pos + 1..],
        None => {
            eprintln!("figures: cannot locate `{cmd}` among the arguments");
            top_usage();
        }
    }
}

/// Pulls a global `--serve <addr>` (and its value) out of the argument
/// list so subcommand parsers never see it.
fn extract_serve_flag(args: &mut Vec<String>) -> Option<String> {
    let pos = args.iter().position(|a| a == "--serve")?;
    if pos + 1 >= args.len() || args[pos + 1].starts_with("--") {
        eprintln!("--serve needs a bind address, e.g. --serve 127.0.0.1:9898 (port 0 = auto)");
        std::process::exit(2);
    }
    let addr = args.remove(pos + 1);
    args.remove(pos);
    Some(addr)
}

/// Starts the embedded observability server (and switches the profiler
/// on so `/profile` has data), or exits with a clear message.
fn start_obs_server(addr: &str) -> obs::ObsServer {
    obs::profile::set_enabled(true);
    match obs::ObsServer::start(addr) {
        Ok(server) => {
            // To stdout, not the console: scripts (and the CI
            // live-endpoint job) grep this line for the bound port.
            println!("obs: serving on http://{}", server.local_addr());
            server
        }
        Err(e) => {
            eprintln!("cannot serve on {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// `figures bench [--quick] [--out <path>] [--check <committed.json>]`.
///
/// Default mode runs the perf-trajectory suite and writes the
/// `BENCH_<n>.json` report (full repeats unless `--quick`). `--check`
/// mode instead compares the fresh medians against a previously
/// committed report and exits 1 if any benchmark's median fell below
/// the regression floor — nothing is written, so the committed file
/// stays the authoritative trajectory point. Quick and full mode use
/// identical problem sizes (quick only repeats less), which is what
/// makes a quick-mode check against a full-mode file meaningful.
fn run_bench_suite(rest: &[String], console: &Console) {
    let mut quick = false;
    let mut check: Option<PathBuf> = None;
    let mut out = PathBuf::from(perfsuite::DEFAULT_OUTPUT);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--quiet" => {}
            "--check" => match it.next() {
                Some(p) => check = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--check needs a path to a committed BENCH_<n>.json");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown bench argument: {other}");
                eprintln!(
                    "usage: figures bench [--quick] [--out <path>] [--check <committed.json>]"
                );
                std::process::exit(2);
            }
        }
    }
    console.note(format!(
        "bench: perf-trajectory suite, {} mode, {} worker thread(s) [RAC_THREADS]",
        if quick { "quick" } else { "full" },
        Runner::global().threads()
    ));
    if obs::enabled() {
        obs::health::global().begin_job("bench");
    }
    let started = Instant::now();
    let report = perfsuite::run_suite(&perfsuite::SuiteOptions { quick });
    console.note(format!(
        "bench: suite finished in {:.1}s",
        started.elapsed().as_secs_f64()
    ));
    if let Some(s) = report.event_queue_speedup() {
        console.note(format!("bench: calendar queue {s:.2}x over heap baseline"));
    }
    if let Some(s) = report.qsweep_speedup() {
        console.note(format!("bench: optimized sweep {s:.2}x over naive loop"));
    }
    match check {
        Some(path) => {
            let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(2);
            });
            let medians = perfsuite::parse_medians(&committed).unwrap_or_else(|e| {
                eprintln!("cannot parse {}: {e}", path.display());
                std::process::exit(2);
            });
            let failures =
                perfsuite::check_regressions(&medians, &report, perfsuite::REGRESSION_FLOOR);
            if !failures.is_empty() {
                eprintln!("bench regression vs {}:", path.display());
                for f in &failures {
                    eprintln!("  {f}");
                }
                if obs::enabled() {
                    obs::health::global().finish_job(false);
                }
                std::process::exit(1);
            }
            println!(
                "bench check OK: all medians within {}x of {}",
                perfsuite::REGRESSION_FLOOR,
                path.display()
            );
        }
        None => {
            if let Some(dir) = out.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).ok();
                }
            }
            std::fs::write(&out, report.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", out.display());
                std::process::exit(2);
            });
            println!("wrote {}", out.display());
        }
    }
    if obs::enabled() {
        obs::health::global().finish_job(true);
    }
}

fn tournament_usage() -> ! {
    eprintln!(
        "usage: figures tournament [<scenarios>] [--seed N] [--profile <calm|brisk|stormy>] \
         [--out <dir>] [--quick] [--quiet]"
    );
    eprintln!(
        "defaults: 200 generated scenarios, seed 42, difficulty cycling calm/brisk/stormy; \
         --quick compresses every scenario's timeline 3x; writes \
         <dir>/tournament-matchups.csv and <dir>/tournament-scoreboard.csv (default dir: \
         results)"
    );
    std::process::exit(2);
}

/// `figures tournament [N] [--seed S] [--quick] [--profile P] [--out D]`
/// — RAC vs trial-and-error vs static default across N generated
/// scenarios, sharded over the global runner. The scoreboard is a pure
/// function of (seed, N): byte-identical CSVs at any `RAC_THREADS`.
fn run_tournament(raw: &[String], opts: &Options, console: &Console) {
    let mut topts = rac_bench::tournament::TournamentOptions {
        quick: opts.quick,
        ..rac_bench::tournament::TournamentOptions::default()
    };
    let mut out_dir = opts.results_dir.clone();
    let mut count: Option<usize> = None;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--quiet" => {}
            "--seed" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(seed) => topts.seed = seed,
                None => {
                    eprintln!("--seed needs an unsigned integer");
                    tournament_usage();
                }
            },
            "--profile" => match it.next().and_then(|v| scenario::Difficulty::by_name(v)) {
                Some(d) => topts.profile = Some(d),
                None => {
                    eprintln!("--profile needs one of: calm, brisk, stormy");
                    tournament_usage();
                }
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a directory");
                    tournament_usage();
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown tournament flag: {flag}");
                tournament_usage();
            }
            operand => {
                if count.is_some() {
                    eprintln!("tournament takes at most one scenario-count operand");
                    tournament_usage();
                }
                count = Some(match operand.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("scenario count must be a positive integer, got `{operand}`");
                        tournament_usage();
                    }
                });
            }
        }
    }
    if let Some(n) = count {
        topts.scenarios = n;
    }

    if obs::enabled() {
        obs::health::global().begin_job(&format!("tournament {}", topts.scenarios));
    }
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
    write_metrics_snapshot(opts, console);
    if obs::enabled() {
        obs::health::global().finish_job(true);
    }
}

/// Drops the process-wide metrics next to the figure CSVs (Prometheus
/// text + CSV), unless observability is off.
fn write_metrics_snapshot(opts: &Options, console: &Console) {
    if !obs::enabled() {
        return;
    }
    let snapshot = obs::Registry::global().snapshot();
    if snapshot.is_empty() {
        return;
    }
    for (file, text) in [
        ("metrics.prom", obs::export::render_prometheus(&snapshot)),
        ("metrics.csv", obs::export::render_csv(&snapshot)),
    ] {
        let path = opts.results_dir.join(file);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, text) {
            Ok(()) => console.note(format!("  -> {}", path.display())),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
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

fn response_series(records: &[IterationRecord]) -> Vec<f64> {
    records.iter().map(|r| r.response_ms).collect()
}

/// The iteration after which the series stays within 20% of its final
/// plateau (mean of the last 5 samples) — "driven to a stable state".
fn convergence_iteration(series: &[f64]) -> Option<usize> {
    if series.len() < 6 {
        return None;
    }
    let tail: f64 = series[series.len() - 5..].iter().sum::<f64>() / 5.0;
    if !tail.is_finite() {
        return None;
    }
    let ok = |v: f64| v.is_finite() && (v - tail).abs() <= 0.2 * tail.abs().max(1.0);
    let mut candidate = None;
    for (i, &v) in series.iter().enumerate() {
        if ok(v) {
            candidate.get_or_insert(i);
        } else {
            candidate = None;
        }
    }
    candidate
}

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
        match convergence_iteration(slice) {
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

    let mut with_ol = RacAgent::with_initial_policy(standard_settings(), &policy);
    let with_series = exp.run(&mut with_ol);
    let mut without_ol = RacAgent::with_initial_policy(
        RacSettings {
            online_learning: false,
            ..standard_settings()
        },
        &policy,
    );
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

        let mut with_init = RacAgent::with_initial_policy(standard_settings(), &policy);
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
            convergence_iteration(&response_series(&with_series))
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
        );
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
        let mut static_agent = RacAgent::with_initial_policy(standard_settings(), &static_policy);
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
            convergence_iteration(&response_series(&static_series))
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
    let mut static_agent = RacAgent::with_initial_policy(standard_settings(), &static_policy);
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

/// Parsed form of the `figures scenario` argument tail.
struct ScenarioCli {
    operands: Vec<String>,
    list: bool,
    checkpoint_dir: Option<PathBuf>,
    every: usize,
    stop_after: Option<usize>,
    resume: Option<PathBuf>,
    warm_start: Option<PathBuf>,
}

fn scenario_usage() -> ! {
    eprintln!(
        "usage: figures scenario <name|file.scn>... [--checkpoint <dir>] [--checkpoint-every N] \
         [--stop-after N] [--warm-start <file>]\n       \
         figures scenario <name|file.scn> --resume <file>\n       \
         figures scenario --list"
    );
    eprintln!(
        "bundled: {}",
        rac_bench::scenario::bundled_names().join(" ")
    );
    std::process::exit(2);
}

/// Parses the raw argument tail after the `scenario` token. The global
/// flags (`--quick`, `--quiet`) were consumed in `main` and are skipped
/// here; anything else starting with `--` must be a known scenario flag.
fn parse_scenario_cli(raw: &[String]) -> ScenarioCli {
    let mut cli = ScenarioCli {
        operands: Vec::new(),
        list: false,
        checkpoint_dir: None,
        every: 5,
        stop_after: None,
        resume: None,
        warm_start: None,
    };
    let mut i = 0;
    let value = |raw: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match raw.get(*i) {
            Some(v) if !v.starts_with("--") => v.clone(),
            _ => {
                eprintln!("{flag} needs a value");
                scenario_usage();
            }
        }
    };
    let number = |raw: &[String], i: &mut usize, flag: &str| -> usize {
        let v = value(raw, i, flag);
        match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("{flag} needs a positive integer, got `{v}`");
                scenario_usage();
            }
        }
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--list" => cli.list = true,
            "--quick" | "--quiet" => {}
            "--checkpoint" => {
                cli.checkpoint_dir = Some(PathBuf::from(value(raw, &mut i, "--checkpoint")))
            }
            "--checkpoint-every" => cli.every = number(raw, &mut i, "--checkpoint-every"),
            "--stop-after" => cli.stop_after = Some(number(raw, &mut i, "--stop-after")),
            "--resume" => cli.resume = Some(PathBuf::from(value(raw, &mut i, "--resume"))),
            "--warm-start" => {
                cli.warm_start = Some(PathBuf::from(value(raw, &mut i, "--warm-start")))
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown scenario flag: {flag}");
                scenario_usage();
            }
            operand => cli.operands.push(operand.to_string()),
        }
        i += 1;
    }
    if cli.stop_after.is_some() && cli.checkpoint_dir.is_none() && cli.resume.is_none() {
        eprintln!("--stop-after only makes sense with --checkpoint or --resume");
        scenario_usage();
    }
    if cli.resume.is_some() && cli.operands.len() != 1 {
        eprintln!("--resume continues exactly one scenario run");
        scenario_usage();
    }
    cli
}

/// Loads and verifies a snapshot file, or exits with a clear message —
/// a half-written, corrupt, or stale checkpoint must never panic.
fn load_snapshot_or_exit(path: &Path, what: &str) -> ckpt::Snapshot {
    match ckpt::Snapshot::load(path) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("cannot {what} from {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// The policy-library sidecar of the line-up checkpoint at `path`,
/// loaded for a warm start, or exits with a clear message.
fn load_warm_start_or_exit(path: &Path) -> ckpt::Snapshot {
    match rac_bench::checkpoint::library_sidecar(path) {
        Ok(sidecar) => load_snapshot_or_exit(&sidecar, "warm-start"),
        Err(e) => {
            eprintln!("cannot warm-start from {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// [`load_snapshot_or_exit`] for resume paths: first sweeps away any
/// `.tmp` file a crash left beside the checkpoint. The committed
/// snapshot is always the one to resume from — the temp is a torn
/// write by construction — so it must never shadow the real file or
/// clutter the checkpoint directory.
fn load_resume_snapshot_or_exit(path: &Path) -> ckpt::Snapshot {
    match ckpt::remove_stale_temp(path) {
        Ok(true) => eprintln!(
            "note: removed stale temp checkpoint beside {} (crash mid-write)",
            path.display()
        ),
        Ok(false) => {}
        Err(e) => {
            eprintln!("cannot clean stale temp beside {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    load_snapshot_or_exit(path, "resume")
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
/// With `live` (a `--serve` run), the growing trace is additionally
/// flushed to its final path as each tuner session completes, so
/// `inspect_trace --follow` can tail the run; the flushes are prefixes
/// of the final byte-identical file.
fn run_scenarios(raw: &[String], opts: &Options, console: &Console, live: bool) {
    let cli = parse_scenario_cli(raw);
    if cli.list {
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
        return;
    }
    if cli.operands.is_empty() {
        scenario_usage();
    }
    let scenarios: Vec<Scenario> = cli
        .operands
        .iter()
        .map(|arg| match rac_bench::scenario::resolve(arg) {
            Ok(scn) => {
                if opts.quick {
                    scn.scaled(1, 3)
                } else {
                    scn
                }
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        })
        .collect();

    // Mark the job running before the (potentially long) library build
    // so live /healthz readers see it immediately.
    if obs::enabled() {
        obs::health::global().begin_job(&format!("scenario {}", cli.operands.join(" ")));
    }
    let library = match &cli.warm_start {
        Some(path) => {
            let snap = load_warm_start_or_exit(path);
            // The checked variant turns a snapshot trained on a
            // different lattice into a typed mismatch here, at the
            // seeding boundary, instead of a panic mid-run.
            match rac::library_from_snapshot_checked(
                &snap,
                rac_bench::standard_lattice().num_states(),
                rac::Action::COUNT,
            ) {
                Ok(lib) => {
                    console.note(format!(
                        "  warm start: {} policies from {}",
                        lib.len(),
                        path.display()
                    ));
                    lib
                }
                Err(e) => {
                    eprintln!("cannot warm-start from {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        None => standard_policy_library(&opts.cache_dir()),
    };
    let resume = cli
        .resume
        .as_ref()
        .map(|path| load_resume_snapshot_or_exit(path));
    let tracing = obs::tracing_enabled();
    let started = Instant::now();
    for scn in &scenarios {
        // Resume continues the checkpoint file it came from; a fresh
        // checkpointed run gets one file per scenario under the dir.
        let ckpt_plan = match (&cli.resume, &cli.checkpoint_dir) {
            (Some(path), _) => Some(CheckpointOptions {
                path: path.clone(),
                every: cli.every,
                stop_after: cli.stop_after,
            }),
            (None, Some(dir)) => Some(CheckpointOptions {
                path: dir.join(format!("scenario-{}.ckpt", scn.name)),
                every: cli.every,
                stop_after: cli.stop_after,
            }),
            (None, None) => None,
        };
        let trace_path = opts
            .results_dir
            .join(format!("scenario-{}.trace.jsonl", scn.name));
        // Live runs flush the growing trace between tuner sessions so
        // followers see events mid-run (never for checkpointed runs,
        // whose stop-after contract is "no trace file").
        let live_trace = if live && tracing && ckpt_plan.is_none() {
            Some(trace_path.clone())
        } else {
            None
        };
        let mut out = String::new();
        let t0 = Instant::now();
        // Failures must still flush telemetry — the failed run is
        // exactly the one you want data from — so panics are caught,
        // metrics/trace written, and only then does the process die.
        let mut writer = None;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if tracing {
                let w = Arc::new(TraceWriter::new());
                writer = Some(Arc::clone(&w));
                obs::trace::with_writer(&w, || {
                    scenario_figure(
                        scn,
                        &library,
                        opts,
                        ckpt_plan.as_ref(),
                        resume.as_ref(),
                        live_trace.as_deref(),
                        &mut out,
                    )
                })
            } else {
                scenario_figure(
                    scn,
                    &library,
                    opts,
                    ckpt_plan.as_ref(),
                    resume.as_ref(),
                    None,
                    &mut out,
                )
            }
        }));
        print!("{out}");
        let completed = match outcome {
            Ok(Ok(completed)) => completed,
            Ok(Err(e)) => {
                eprintln!("scenario {}: checkpoint error: {e}", scn.name);
                flush_failure_telemetry(scn, writer.as_deref(), opts, console);
                std::process::exit(2);
            }
            Err(payload) => {
                eprintln!("scenario {}: run panicked; flushing telemetry", scn.name);
                flush_failure_telemetry(scn, writer.as_deref(), opts, console);
                std::panic::resume_unwind(payload);
            }
        };
        // An interrupted (`--stop-after`) run writes neither CSV nor
        // trace: its outputs exist only to be byte-compared against an
        // uninterrupted run once resumed to completion.
        if let (true, Some(writer)) = (completed, &writer) {
            match writer.write_to(&trace_path) {
                Ok(()) => console.note(format!(
                    "  -> {} ({} events)",
                    trace_path.display(),
                    writer.len()
                )),
                Err(e) => eprintln!("  could not write {}: {e}", trace_path.display()),
            }
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
    write_metrics_snapshot(opts, console);
    if obs::enabled() {
        obs::health::global().finish_job(true);
    }
}

/// Flush-on-failure: a failing scenario run still writes the metrics
/// snapshot and the buffered trace (under a `.failed.` name so partial
/// output can never masquerade as a completed run's artifact).
fn flush_failure_telemetry(
    scn: &Scenario,
    writer: Option<&TraceWriter>,
    opts: &Options,
    console: &Console,
) {
    if let Some(writer) = writer {
        let path = opts
            .results_dir
            .join(format!("scenario-{}.failed.trace.jsonl", scn.name));
        match writer.write_to(&path) {
            Ok(()) => console.note(format!(
                "  -> {} ({} events, partial)",
                path.display(),
                writer.len()
            )),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
    write_metrics_snapshot(opts, console);
    if obs::enabled() {
        obs::health::global().finish_job(false);
    }
}

/// Runs one scenario through RAC, trial-and-error, and the static
/// default, then reports the series table, chart, and summary stats.
/// Returns `Ok(false)` when a checkpointed run stopped early
/// (`--stop-after`) — the caller then skips the CSV and trace artifacts
/// — and `Err` on checkpoint I/O or validation failures, so the caller
/// can flush telemetry before exiting.
fn scenario_figure(
    scn: &Scenario,
    library: &PolicyLibrary,
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
    let outcome = run_lineup(scn, Some(library), ckpt_plan, resume, |status| {
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

fn profile_usage() -> ! {
    eprintln!("usage: figures profile <name|file.scn> [--quick] [--quiet]");
    eprintln!("  runs the tuner line-up once under the hierarchical self-profiler,");
    eprintln!("  prints a self-time table, and writes results/profile-<name>.folded");
    std::process::exit(2);
}

/// `figures profile <scenario>` — one checkpointed line-up run with the
/// self-profiler on, reported as a self-time table plus a
/// flamegraph-compatible folded-stack file. The run is checkpointed
/// (into a throwaway directory, snapshot and library sidecar both
/// deleted afterwards) so the `checkpoint` phase shows up in the
/// attribution alongside measure/tuner/sweep.
fn run_profile(raw: &[String], opts: &Options, console: &Console) {
    let mut operand: Option<&str> = None;
    for a in raw {
        match a.as_str() {
            "--quick" | "--quiet" => {}
            s if s.starts_with("--") => profile_usage(),
            s => {
                if operand.replace(s).is_some() {
                    eprintln!("profile: exactly one scenario, got several");
                    profile_usage();
                }
            }
        }
    }
    let Some(arg) = operand else { profile_usage() };
    let scn = match rac_bench::scenario::resolve(arg) {
        Ok(scn) => {
            if opts.quick {
                scn.scaled(1, 3)
            } else {
                scn
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    obs::profile::set_enabled(true);
    obs::profile::reset();
    if obs::enabled() {
        obs::health::global().begin_job(&format!("profile {}", scn.name));
    }
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
            eprintln!("profile {}: checkpoint error: {e}", scn.name);
            if obs::enabled() {
                obs::health::global().finish_job(false);
            }
            std::process::exit(2);
        }
    }
    console.note(format!(
        "  [profile {}: {:.1}s wall-clock]",
        scn.name,
        t0.elapsed().as_secs_f64()
    ));

    let snapshot = obs::profile::snapshot();
    print!("{}", rac_bench::profile::self_time_table(&snapshot));
    let folded_path = opts
        .results_dir
        .join(format!("profile-{}.folded", scn.name));
    match rac_bench::profile::write_folded(&folded_path) {
        Ok(()) => println!(
            "wrote {} ({} call paths)",
            folded_path.display(),
            snapshot.len()
        ),
        Err(e) => {
            eprintln!("cannot write {}: {e}", folded_path.display());
            std::process::exit(2);
        }
    }
    write_metrics_snapshot(opts, console);
    if obs::enabled() {
        obs::health::global().finish_job(true);
    }
}

fn chaos_usage() -> ! {
    eprintln!("usage: figures chaos [<seed>...] [--iterations <n>] [--quiet]");
    eprintln!("  (no seeds: runs the pinned CI seeds)");
    std::process::exit(2);
}

/// `figures chaos` — the deterministic chaos harness: for each seed,
/// generate a randomized fault schedule, run a cold-started RAC agent
/// through it, write `results/chaos-<seed>.csv` (and a trace under
/// `RAC_OBS=trace`), and check the guardrail invariants. Exits nonzero
/// if any invariant is violated, so CI can gate on it.
fn run_chaos_harness(raw: &[String], opts: &Options, console: &Console) {
    let mut seeds: Vec<u64> = Vec::new();
    let mut iterations = rac_bench::chaos::DEFAULT_ITERATIONS;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--iterations" => {
                i += 1;
                iterations = raw
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| chaos_usage());
            }
            "--quiet" | "--quick" => {}
            a if a.starts_with("--") => chaos_usage(),
            a => match a.parse::<u64>() {
                Ok(seed) => seeds.push(seed),
                Err(_) => {
                    eprintln!("chaos: seeds are unsigned integers, got {a:?}");
                    chaos_usage();
                }
            },
        }
        i += 1;
    }
    if seeds.is_empty() {
        seeds = rac_bench::chaos::PINNED_SEEDS.to_vec();
    }

    let tracing = obs::tracing_enabled();
    if obs::enabled() {
        let names: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        obs::health::global().begin_job(&format!("chaos {}", names.join(" ")));
    }
    let started = Instant::now();
    let mut violation_count = 0usize;
    for &seed in &seeds {
        let scn = rac_bench::chaos::chaos_scenario(seed, iterations);
        let t0 = Instant::now();
        let mut series = Vec::new();
        let trace = if tracing {
            let writer = Arc::new(TraceWriter::new());
            obs::trace::with_writer(&writer, || series = rac_bench::chaos::run_chaos(&scn));
            Some(writer)
        } else {
            series = rac_bench::chaos::run_chaos(&scn);
            None
        };
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
            match writer.write_to(&path) {
                Ok(()) => {
                    console.note(format!("  -> {} ({} events)", path.display(), writer.len()))
                }
                Err(e) => eprintln!("  could not write {}: {e}", path.display()),
            }
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
    write_metrics_snapshot(opts, console);
    if obs::enabled() {
        obs::health::global().finish_job(violation_count == 0);
    }
    if violation_count > 0 {
        eprintln!("chaos: {violation_count} invariant violation(s)");
        std::process::exit(1);
    }
}

// --------------------------------------------------------------------
// `figures crashdrill`: SIGKILL a live racd daemon at seeded points and
// assert byte-identical convergence after recovery.

fn run_crashdrill(raw: &[String], opts: &Options, console: &Console) {
    let usage = || -> ! {
        eprintln!("usage: figures crashdrill [<seed>...] [--iterations <n>]");
        std::process::exit(2);
    };
    let mut seeds: Vec<u64> = Vec::new();
    let mut iterations = rac_bench::chaos::DEFAULT_ITERATIONS;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--iterations" => {
                i += 1;
                iterations = raw
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quiet" | "--quick" => {}
            a if a.starts_with("--") => usage(),
            a => match a.parse::<u64>() {
                Ok(seed) => seeds.push(seed),
                Err(_) => {
                    eprintln!("crashdrill: seeds are unsigned integers, got {a:?}");
                    usage();
                }
            },
        }
        i += 1;
    }
    if seeds.is_empty() {
        seeds = rac_bench::crashdrill::DEFAULT_SEEDS.to_vec();
    }

    let racd = match rac_bench::crashdrill::find_racd() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("crashdrill: {e}");
            std::process::exit(2);
        }
    };
    console.note(format!("crashdrill: daemon binary {}", racd.display()));
    let drill_opts = rac_bench::crashdrill::DrillOptions {
        out_dir: opts.results_dir.clone(),
        iterations,
    };
    let started = Instant::now();
    let mut failure_count = 0usize;
    for &seed in &seeds {
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
                    failure_count += report.failures.len();
                }
                console.note(format!(
                    "  [crashdrill {seed}: {:.1}s wall-clock]",
                    t0.elapsed().as_secs_f64()
                ));
            }
            Err(e) => {
                eprintln!("crashdrill seed {seed}: {e}");
                failure_count += 1;
            }
        }
    }
    console.note(format!(
        "\ntotal: {:.1}s wall-clock over {} seed(s)",
        started.elapsed().as_secs_f64(),
        seeds.len()
    ));
    if failure_count > 0 {
        eprintln!("crashdrill: {failure_count} failure(s)");
        std::process::exit(1);
    }
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

struct FleetCli {
    tenants: Option<usize>,
    seed: u64,
    cold: Option<usize>,
    chunk: usize,
    list: bool,
    no_control: bool,
    radius: f64,
    checkpoint_dir: Option<PathBuf>,
    stop_after: Option<usize>,
    resume: Option<PathBuf>,
    warm_start: Option<PathBuf>,
}

fn fleet_usage() -> ! {
    eprintln!(
        "usage: figures fleet [<tenants>] [--seed N] [--cold N] [--chunk N] [--radius D] \
         [--quick] [--no-control] [--checkpoint <dir>] [--stop-after N] \
         [--warm-start <file>]\n       \
         figures fleet [<tenants>] [--seed N] --resume <file>\n       \
         figures fleet [<tenants>] [--seed N] --list"
    );
    eprintln!(
        "defaults: 200 tenants, seed 42, cold wave = tenants/4, chunk 25, transfer radius \
         0.005; --list prints the generated roster without running anything; --radius sets \
         the max squared feature distance a donor may sit at (>= 2.0 accepts any donor); \
         --no-control skips the matched cold-control run each warm tenant gets by default \
         (halves warm-tenant cost, drops the paired comparison)"
    );
    std::process::exit(2);
}

/// Parses the raw argument tail after the `fleet` token (the global
/// `--quick`/`--quiet` flags were consumed in `main` and are skipped).
fn parse_fleet_cli(raw: &[String]) -> FleetCli {
    let mut cli = FleetCli {
        tenants: None,
        seed: 42,
        cold: None,
        chunk: 25,
        list: false,
        no_control: false,
        radius: 0.005,
        checkpoint_dir: None,
        stop_after: None,
        resume: None,
        warm_start: None,
    };
    let mut i = 0;
    let value = |raw: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match raw.get(*i) {
            Some(v) if !v.starts_with("--") => v.clone(),
            _ => {
                eprintln!("{flag} needs a value");
                fleet_usage();
            }
        }
    };
    let number = |raw: &[String], i: &mut usize, flag: &str| -> usize {
        let v = value(raw, i, flag);
        match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("{flag} needs a positive integer, got `{v}`");
                fleet_usage();
            }
        }
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--list" => cli.list = true,
            "--quick" | "--quiet" => {}
            "--no-control" => cli.no_control = true,
            "--radius" => {
                let v = value(raw, &mut i, "--radius");
                cli.radius = match v.parse::<f64>() {
                    Ok(d) if d > 0.0 => d,
                    _ => {
                        eprintln!("--radius needs a positive number, got `{v}`");
                        fleet_usage();
                    }
                };
            }
            "--seed" => {
                let v = value(raw, &mut i, "--seed");
                cli.seed = match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--seed needs an unsigned integer, got `{v}`");
                        fleet_usage();
                    }
                };
            }
            "--cold" => cli.cold = Some(number(raw, &mut i, "--cold")),
            "--chunk" => cli.chunk = number(raw, &mut i, "--chunk"),
            "--checkpoint" => {
                cli.checkpoint_dir = Some(PathBuf::from(value(raw, &mut i, "--checkpoint")))
            }
            "--stop-after" => cli.stop_after = Some(number(raw, &mut i, "--stop-after")),
            "--resume" => cli.resume = Some(PathBuf::from(value(raw, &mut i, "--resume"))),
            "--warm-start" => {
                cli.warm_start = Some(PathBuf::from(value(raw, &mut i, "--warm-start")))
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown fleet flag: {flag}");
                fleet_usage();
            }
            operand => {
                if cli.tenants.is_some() {
                    eprintln!(
                        "fleet takes at most one tenant-count operand, got a second: {operand}"
                    );
                    fleet_usage();
                }
                cli.tenants = Some(match operand.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("tenant count must be a positive integer, got `{operand}`");
                        fleet_usage();
                    }
                });
            }
        }
        i += 1;
    }
    if cli.stop_after.is_some() && cli.checkpoint_dir.is_none() && cli.resume.is_none() {
        eprintln!("--stop-after only makes sense with --checkpoint or --resume");
        fleet_usage();
    }
    if cli.resume.is_some() && cli.warm_start.is_some() {
        eprintln!(
            "--resume restores the transfer store from the checkpoint; --warm-start \
                   only applies to a fresh fleet"
        );
        fleet_usage();
    }
    cli
}

/// Entry point for `figures fleet ...`: generates the tenant roster,
/// runs every tenant's RAC experiment sharded over the global runner
/// with nearest-neighbor policy transfer, and writes the per-tenant,
/// aggregate, and scaling CSVs under `results/`.
fn run_fleet(raw: &[String], opts: &Options, console: &Console) {
    let cli = parse_fleet_cli(raw);
    let tenants = cli.tenants.unwrap_or(200);
    let cold = cli.cold.unwrap_or_else(|| (tenants / 4).max(1));
    let config = fleet::FleetConfig {
        tenants,
        seed: cli.seed,
        cold,
        chunk: cli.chunk,
        // Bundled scenarios span 7200 s; compress the timeline (same
        // iteration count, shorter intervals) so a 200-tenant fleet
        // finishes in minutes. `--quick` compresses 3x harder.
        scale_den: if opts.quick { 15 } else { 5 },
        online_levels: ONLINE_LEVELS,
        control: !cli.no_control,
        radius: cli.radius,
    };

    if cli.list {
        let roster = fleet::generate(config.tenants, config.seed);
        println!(
            "fleet roster: {} tenants from seed {}",
            config.tenants, config.seed
        );
        print!("{}", rac_bench::fleet::roster_table(&roster));
        return;
    }

    if obs::enabled() {
        obs::health::global().begin_job(&format!("fleet {tenants}"));
    }
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        if obs::enabled() {
            obs::health::global().finish_job(false);
        }
        std::process::exit(2);
    };

    let mut run = if let Some(path) = &cli.resume {
        let snap = load_resume_snapshot_or_exit(path);
        match fleet::FleetRun::resume(config.clone(), &snap) {
            Ok(run) => {
                console.note(format!(
                    "  resume: {}/{} tenants already finished ({} donors)",
                    run.done(),
                    tenants,
                    run.store().len()
                ));
                run
            }
            Err(e) => fail(format!("cannot resume from {}: {e}", path.display())),
        }
    } else if let Some(path) = &cli.warm_start {
        let snap = load_warm_start_or_exit(path);
        match fleet::FleetRun::with_library(config.clone(), &snap) {
            Ok(run) => {
                console.note(format!(
                    "  warm start: {} library donor(s) from {}",
                    run.store().len(),
                    path.display()
                ));
                run
            }
            Err(e) => fail(format!("cannot warm-start from {}: {e}", path.display())),
        }
    } else {
        match fleet::FleetRun::new(config.clone()) {
            Ok(run) => run,
            Err(e) => fail(format!("{e}")),
        }
    };

    let ckpt_path = match (&cli.resume, &cli.checkpoint_dir) {
        (Some(path), _) => Some(path.clone()),
        (None, Some(dir)) => Some(dir.join("fleet.ckpt")),
        (None, None) => None,
    };

    let runner = Runner::global();
    console.note(format!(
        "fleet: {} tenants (cold wave {}, chunks of {}), seed {}, {} worker thread(s) [RAC_THREADS]",
        tenants,
        config.cold,
        config.chunk,
        config.seed,
        runner.threads()
    ));
    let started = Instant::now();
    let mut milestones: Vec<(usize, f64)> = Vec::new();
    while !run.is_complete() {
        match run.step(runner) {
            Ok(_) => {}
            Err(e) => fail(format!("fleet step failed: {e}")),
        }
        milestones.push((run.done(), started.elapsed().as_secs_f64()));
        console.note(format!(
            "  fleet: {}/{} tenants, {} donor(s), {:.1}s",
            run.done(),
            tenants,
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
            if let Err(e) = snap.write_atomic(path) {
                fail(format!("cannot checkpoint to {}: {e}", path.display()));
            }
        }
        if let Some(stop) = cli.stop_after {
            if run.done() >= stop && !run.is_complete() {
                // Interrupted runs write no CSVs: their outputs exist to
                // be byte-compared once resumed to completion.
                console.note(format!(
                    "  fleet: stopping after {} tenants (checkpointed; resume with --resume)",
                    run.done()
                ));
                if obs::enabled() {
                    obs::health::global().finish_job(true);
                }
                return;
            }
        }
    }

    let stats = rac_bench::fleet::aggregate(&run);
    let table = rac_bench::fleet::aggregate_table(&stats);
    println!(
        "fleet: {} tenants, seed {} — SLA attainment by cohort",
        tenants, config.seed
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
        tenants,
        tenants as f64 / started.elapsed().as_secs_f64().max(1e-9)
    ));
    write_metrics_snapshot(opts, console);
    if obs::enabled() {
        obs::health::global().finish_job(true);
    }
}
