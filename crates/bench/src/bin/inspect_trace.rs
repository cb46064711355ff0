//! Replays a decision trace (`results/<cmd>.trace.jsonl`, written by the
//! `figures` bin under `RAC_OBS=trace`) into summary tables: the reward
//! curve, the per-context action mix, violation episodes and policy
//! switches, and runner-batch cache efficiency.
//!
//! ```text
//! RAC_OBS=trace cargo run --release -p rac-bench --bin figures -- fig5 --quick
//! cargo run --release -p rac-bench --bin inspect_trace -- results/fig5.trace.jsonl
//! ```
//!
//! The bin doubles as a schema check: any malformed line, unknown event
//! kind, or decision event missing a required field fails the process
//! with a non-zero exit status (CI runs it after a traced figure).
//!
//! With `--follow` the bin tails one growing trace instead: a live
//! `figures scenario <name> --serve <addr>` run flushes its
//! (prefix-stable) trace between tuner sessions, and the follower polls
//! the file, schema-checks each appended line, and prints a one-line
//! summary per event until the file stays idle for `--max-idle-ms`
//! (default 15000).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use obs::event::parse_line;
use obs::{Event, Value};
use rac_bench::cli::{self, Grammar};
use rac_bench::output::{ascii_chart, TextTable};

/// Field names every `decision` event must carry (the schema contract
/// documented in DESIGN.md; `inspect_trace` is its executable check).
const DECISION_FIELDS: [&str; 17] = [
    "iter",
    "rt_ms",
    "p95_ms",
    "tput_rps",
    "completed",
    "refused",
    "reward",
    "epsilon",
    "state",
    "action",
    "next_state",
    "q_delta",
    "sweep_passes",
    "streak",
    "switched",
    "switches",
    "calibration",
];

const GRAMMAR: Grammar = Grammar {
    name: "",
    synopsis: "inspect_trace <trace.jsonl>...",
    flags: "\
--follow           tail one growing trace, one line per new event
--max-idle-ms <n>  with --follow, stop after this long without new events [15000]",
    notes: "",
};

/// Prints `msg` and the usage; exit 2.
fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprint!("{}", cli::usage(&[&GRAMMAR]));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv, &[&GRAMMAR]) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    let max_idle_ms = match args.value("--max-idle-ms", "an unsigned integer") {
        Ok(ms) => ms.unwrap_or(15_000),
        Err(e) => return usage(&e),
    };
    let paths = &args.operands;
    if args.has("--follow") {
        let [path] = paths.as_slice() else {
            return usage("inspect_trace: --follow takes exactly one trace file");
        };
        return match follow(Path::new(path), max_idle_ms) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if paths.is_empty() {
        return usage("inspect_trace: no trace file given");
    }
    let mut failed = false;
    for path in paths {
        match inspect(Path::new(path)) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Tails a growing trace: polls the file, parses + schema-checks lines
/// beyond the last seen one, prints a one-line summary per new event,
/// and returns once the file has been idle for `max_idle_ms`.
///
/// The writer flushes whole-prefix snapshots (`fs::write`), so a poll
/// can catch a torn mid-write file; parse errors are therefore treated
/// as transient and only reported if they persist through the idle
/// window. A file that *shrinks* (a fresh run truncated it) resets the
/// follower to the top.
fn follow(path: &Path, max_idle_ms: u64) -> Result<(), String> {
    let poll = Duration::from_millis(200);
    let max_idle = Duration::from_millis(max_idle_ms);
    let mut seen = 0usize;
    let mut idle = Duration::ZERO;
    let mut last_err: Option<String> = None;
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let complete = complete_lines(&text);
        if complete < seen {
            println!("-- follow: {} truncated; restarting", path.display());
            seen = 0;
        }
        match scan_new(&text, seen) {
            Ok(events) if !events.is_empty() => {
                idle = Duration::ZERO;
                last_err = None;
                for event in &events {
                    println!("{}", brief(event));
                }
                seen = complete;
            }
            Ok(_) => idle += poll,
            Err(e) => {
                // Possibly a torn write: hold the error, retry.
                idle += poll;
                last_err = Some(e);
            }
        }
        if idle >= max_idle {
            return match last_err {
                Some(e) => Err(e),
                None => {
                    println!(
                        "-- follow: {seen} events, idle {}ms; stopping",
                        max_idle.as_millis()
                    );
                    Ok(())
                }
            };
        }
        std::thread::sleep(poll);
    }
}

/// Number of newline-terminated lines in `text`. The final line of a
/// snapshot mid-write may be torn, so the follower only ever consumes
/// terminated lines.
fn complete_lines(text: &str) -> usize {
    text.bytes().filter(|&b| b == b'\n').count()
}

/// Parses + schema-checks the newline-terminated lines after the first
/// `seen`, returning the new events. Line numbers in errors are 1-based
/// over the whole file.
fn scan_new(text: &str, seen: usize) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text
        .split_inclusive('\n')
        .filter(|l| l.ends_with('\n'))
        .enumerate()
        .skip(seen)
    {
        let line = line.trim_end_matches('\n');
        let event = parse_line(line).map_err(|e| {
            format!(
                "line {}: parse error at byte {}: {}",
                lineno + 1,
                e.at,
                e.message
            )
        })?;
        check_schema(&event).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// One-line summary of an event for `--follow` output.
fn brief(event: &Event) -> String {
    let s = |name: &str| {
        event
            .get(name)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let f = |name: &str| event.get(name).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let u = |name: &str| event.get(name).and_then(Value::as_u64).unwrap_or(0);
    let detail = match event.kind.as_str() {
        "decision" => format!(
            "iter {} action {} reward {:.2} rt {:.0} ms",
            u("iter"),
            s("action"),
            f("reward"),
            f("rt_ms")
        ),
        "experiment" => format!("tuner {}", s("tuner")),
        "phase" => format!("phase {} context {}", u("phase"), s("context")),
        "reconfigure" => format!("iter {}: {} -> {}", u("iter"), s("from"), s("to")),
        "guardrail" => format!("{}: {}", s("action"), s("detail")),
        "scenario_event" => format!("{} ({})", s("event"), s("detail")),
        "checkpoint" => format!("iter {} tuner_iter {}", u("iter"), u("tuner_iter")),
        "runner_batch" => format!("{} jobs, {} distinct", u("jobs"), u("distinct")),
        _ => String::new(),
    };
    format!(
        "[run {}] t={:.0}s {} {}",
        event.run,
        event.t_us as f64 / 1e6,
        event.kind,
        detail
    )
}

fn inspect(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read trace: {e}"))?;
    let events = parse_and_check(&text)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=== {} ({} events) ===",
        path.display(),
        events.len()
    );
    render_runs(&events, &mut out);
    render_guardrail(&events, &mut out);
    render_scenario(&events, &mut out);
    render_cache(&events, &mut out);
    Ok(out)
}

/// Parses every line and enforces the event schema. Line numbers in
/// errors are 1-based.
fn parse_and_check(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let event = parse_line(line).map_err(|e| {
            format!(
                "line {}: parse error at byte {}: {}",
                lineno + 1,
                e.at,
                e.message
            )
        })?;
        check_schema(&event).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(event);
    }
    Ok(events)
}

fn check_schema(event: &Event) -> Result<(), String> {
    let require = |names: &[&str]| -> Result<(), String> {
        for name in names {
            if event.get(name).is_none() {
                return Err(format!("{} event missing field '{name}'", event.kind));
            }
        }
        Ok(())
    };
    match event.kind.as_str() {
        "decision" => {
            require(&DECISION_FIELDS)?;
            for name in ["rt_ms", "reward", "epsilon", "q_delta", "calibration"] {
                if event.get(name).and_then(Value::as_f64).is_none() {
                    return Err(format!("decision field '{name}' is not numeric"));
                }
            }
            if event.get("action").and_then(Value::as_str).is_none() {
                return Err("decision field 'action' is not a string".to_string());
            }
            if event.get("switched").and_then(Value::as_bool).is_none() {
                return Err("decision field 'switched' is not a bool".to_string());
            }
            Ok(())
        }
        "experiment" => require(&["tuner", "phases", "iterations", "interval_s", "warmup_s"]),
        "phase" => require(&["phase", "context", "iterations"]),
        "reconfigure" => require(&["iter", "from", "to"]),
        "runner_batch" => require(&["jobs", "distinct"]),
        "offline_training" => require(&["context"]),
        "offline_policy" => require(&["samples", "passes", "r_squared"]),
        "scenario_event" => require(&["event", "detail"]),
        "guardrail" => {
            require(&["iter", "action", "detail"])?;
            match event.get("action").and_then(Value::as_str) {
                Some("retry" | "trip" | "probe" | "recover" | "reopen" | "rollback") => Ok(()),
                Some(other) => Err(format!("unknown guardrail action '{other}'")),
                None => Err("guardrail field 'action' is not a string".to_string()),
            }
        }
        "checkpoint" => require(&["iter", "tuner_iter", "tuner"]),
        other => Err(format!("unknown event kind '{other}'")),
    }
}

/// Summarizes each run (one tuning session) in the trace: reward curve,
/// per-context action mix, violation episodes.
fn render_runs(events: &[Event], out: &mut String) {
    let runs: Vec<u64> = {
        let mut seen = Vec::new();
        for e in events {
            if e.kind == "decision" && !seen.contains(&e.run) {
                seen.push(e.run);
            }
        }
        seen
    };
    for run in runs {
        let in_run: Vec<&Event> = events.iter().filter(|e| e.run == run).collect();
        let tuner = in_run
            .iter()
            .find(|e| e.kind == "experiment")
            .and_then(|e| e.get("tuner"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        let _ = writeln!(out, "-- run {run}: {tuner}");

        // Replay in order, tracking the active context from phase events.
        let mut context = String::from("?");
        let mut rewards: Vec<f64> = Vec::new();
        let mut rts: Vec<f64> = Vec::new();
        let mut action_mix: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut episodes = 0u64;
        let mut in_episode = false;
        let mut switches = 0u64;
        for e in &in_run {
            match e.kind.as_str() {
                "phase" => {
                    context = e
                        .get("context")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                }
                "decision" => {
                    rewards.push(e.get("reward").and_then(Value::as_f64).unwrap_or(f64::NAN));
                    rts.push(e.get("rt_ms").and_then(Value::as_f64).unwrap_or(f64::NAN));
                    let action = e
                        .get("action")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    *action_mix.entry((context.clone(), action)).or_insert(0) += 1;
                    let streak = e.get("streak").and_then(Value::as_u64).unwrap_or(0);
                    if streak > 0 && !in_episode {
                        episodes += 1;
                    }
                    in_episode = streak > 0;
                    if e.get("switched").and_then(Value::as_bool) == Some(true) {
                        switches += 1;
                        // A detector firing ends its episode even though
                        // the streak counter resets to 0 on the same event.
                        in_episode = false;
                    }
                }
                _ => {}
            }
        }
        if rewards.is_empty() {
            let _ = writeln!(out, "   (no decision events)");
            continue;
        }

        let mean = |v: &[f64]| {
            let f: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
            if f.is_empty() {
                f64::NAN
            } else {
                f.iter().sum::<f64>() / f.len() as f64
            }
        };
        let _ = writeln!(
            out,
            "   {} decisions | reward first {:.2} last {:.2} mean {:.2} | mean rt {:.0} ms",
            rewards.len(),
            rewards.first().copied().unwrap_or(f64::NAN),
            rewards.last().copied().unwrap_or(f64::NAN),
            mean(&rewards),
            mean(&rts),
        );
        let _ = write!(out, "{}", ascii_chart(&[("reward", rewards)], 10));

        let mut t = TextTable::new(&["context", "action", "count"]);
        for ((ctx, action), count) in &action_mix {
            t.row(&[ctx.clone(), action.clone(), count.to_string()]);
        }
        let _ = write!(out, "{t}");
        let _ = writeln!(
            out,
            "   violation episodes: {episodes} | policy switches: {switches}"
        );
    }
}

/// Guardrail activity per run: retry absorptions, breaker trips /
/// reopens / recoveries, last-known-good rollbacks, and the number of
/// degraded iterations (derived from trip→recover iteration spans; a
/// trip the trace never sees recover counts up to the last guardrail
/// event). Silent when the trace has no guardrail events.
fn render_guardrail(events: &[Event], out: &mut String) {
    let guard: Vec<&Event> = events.iter().filter(|e| e.kind == "guardrail").collect();
    if guard.is_empty() {
        return;
    }
    let runs: Vec<u64> = {
        let mut seen = Vec::new();
        for e in &guard {
            if !seen.contains(&e.run) {
                seen.push(e.run);
            }
        }
        seen
    };
    let _ = writeln!(out, "-- guardrail: {} events", guard.len());
    let mut t = TextTable::new(&[
        "run",
        "retries",
        "trips",
        "reopens",
        "recoveries",
        "degraded iters",
        "rollbacks",
    ]);
    for run in runs {
        let (mut retries, mut trips, mut reopens, mut recoveries, mut rollbacks) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut degraded = 0u64;
        let mut open_at: Option<u64> = None;
        let mut last_iter = 0u64;
        for e in guard.iter().filter(|e| e.run == run) {
            let iter = e.get("iter").and_then(Value::as_u64).unwrap_or(0);
            last_iter = last_iter.max(iter);
            match e.get("action").and_then(Value::as_str).unwrap_or("?") {
                "retry" => retries += 1,
                "trip" => {
                    trips += 1;
                    open_at.get_or_insert(iter);
                }
                "reopen" => reopens += 1,
                "recover" => {
                    recoveries += 1;
                    if let Some(at) = open_at.take() {
                        degraded += iter.saturating_sub(at);
                    }
                }
                "rollback" => rollbacks += 1,
                _ => {}
            }
        }
        if let Some(at) = open_at {
            // Breaker still open when the trace ends.
            degraded += last_iter.saturating_sub(at);
        }
        t.row(&[
            run.to_string(),
            retries.to_string(),
            trips.to_string(),
            reopens.to_string(),
            recoveries.to_string(),
            degraded.to_string(),
            rollbacks.to_string(),
        ]);
    }
    let _ = write!(out, "{t}");
}

/// Per-event-type summary of the scenario timeline injections recorded
/// in the trace (intensity steps, mix drift, faults, ...), with the
/// first and last occurrence so the injection window is visible at a
/// glance. Silent when the trace has no scenario events.
fn render_scenario(events: &[Event], out: &mut String) {
    let mut by_type: BTreeMap<String, (u64, String, u64, u64)> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "scenario_event") {
        let name = e
            .get("event")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let detail = e
            .get("detail")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        by_type
            .entry(name)
            .and_modify(|(count, _, _, last)| {
                *count += 1;
                *last = e.t_us;
            })
            .or_insert((1, detail, e.t_us, e.t_us));
    }
    if by_type.is_empty() {
        return;
    }
    let total: u64 = by_type.values().map(|(c, _, _, _)| c).sum();
    let _ = writeln!(out, "-- scenario: {total} timeline events");
    let mut t = TextTable::new(&["event", "count", "first (s)", "last (s)", "first detail"]);
    for (name, (count, detail, first, last)) in &by_type {
        t.row(&[
            name.clone(),
            count.to_string(),
            format!("{:.0}", *first as f64 / 1e6),
            format!("{:.0}", *last as f64 / 1e6),
            detail.clone(),
        ]);
    }
    let _ = write!(out, "{t}");
}

/// Cache efficiency as far as the deterministic trace can tell it:
/// within-batch duplicate collapse. (Cross-batch hit rates depend on
/// scheduling and live in `results/metrics.csv` instead.)
fn render_cache(events: &[Event], out: &mut String) {
    let batches: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == "runner_batch")
        .map(|e| {
            (
                e.get("jobs").and_then(Value::as_u64).unwrap_or(0),
                e.get("distinct").and_then(Value::as_u64).unwrap_or(0),
            )
        })
        .collect();
    if batches.is_empty() {
        return;
    }
    let jobs: u64 = batches.iter().map(|&(j, _)| j).sum();
    let distinct: u64 = batches.iter().map(|&(_, d)| d).sum();
    let _ = writeln!(
        out,
        "-- runner: {} batches, {jobs} jobs, {distinct} distinct points ({:.0}% within-batch dedup)",
        batches.len(),
        if jobs > 0 {
            100.0 * (jobs - distinct) as f64 / jobs as f64
        } else {
            0.0
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::{self, TraceWriter};
    use std::sync::Arc;

    fn decision(iter: u64, reward: f64, action: &str, streak: u64, switched: bool) -> Event {
        Event::new("decision")
            .field("iter", iter)
            .field("rt_ms", 500.0)
            .field("p95_ms", 800.0)
            .field("tput_rps", 30.0)
            .field("completed", 900u64)
            .field("refused", 0u64)
            .field("reward", reward)
            .field("epsilon", 0.05)
            .field("state", 1u64)
            .field("action", action)
            .field("next_state", 2u64)
            .field("q_delta", 0.01)
            .field("sweep_passes", 3u64)
            .field("streak", streak)
            .field("switched", switched)
            .field("switches", u64::from(switched))
            .field("calibration", 1.0)
    }

    fn sample_trace() -> String {
        let w = Arc::new(TraceWriter::new());
        trace::with_writer(&w, || {
            trace::begin_run();
            trace::emit(|| {
                Event::new("experiment")
                    .field("tuner", "RAC")
                    .field("phases", 1u64)
                    .field("iterations", 3u64)
                    .field("interval_s", 300.0)
                    .field("warmup_s", 600.0)
            });
            trace::emit(|| {
                Event::new("phase")
                    .field("phase", 0u64)
                    .field("context", "shopping @ Level-1")
                    .field("iterations", 3u64)
            });
            for i in 1..=3u64 {
                trace::set_sim_time_us(i * 300_000_000);
                trace::emit(|| decision(i, i as f64, "Keep", u64::from(i == 2), i == 3));
            }
            trace::emit(|| {
                Event::new("runner_batch")
                    .field("jobs", 10u64)
                    .field("distinct", 7u64)
            });
        });
        w.serialize()
    }

    #[test]
    fn sample_trace_passes_schema_and_summarizes() {
        let text = sample_trace();
        let events = parse_and_check(&text).unwrap();
        assert_eq!(events.len(), 6);
        let mut out = String::new();
        render_runs(&events, &mut out);
        render_cache(&events, &mut out);
        assert!(out.contains("run 1: RAC"), "{out}");
        assert!(out.contains("3 decisions"), "{out}");
        assert!(out.contains("shopping @ Level-1"), "{out}");
        assert!(out.contains("Keep"), "{out}");
        assert!(out.contains("policy switches: 1"), "{out}");
        assert!(out.contains("within-batch dedup"), "{out}");
    }

    #[test]
    fn scenario_events_pass_schema_and_summarize_by_type() {
        let w = Arc::new(TraceWriter::new());
        trace::with_writer(&w, || {
            trace::begin_run();
            for (t_s, event, detail) in [
                (0u64, "intensity", "x1.00"),
                (300, "intensity", "x1.45"),
                (600, "stall", "appdb for 120s"),
                (900, "intensity", "x1.00"),
            ] {
                trace::set_sim_time_us(t_s * 1_000_000);
                trace::emit(|| {
                    Event::new("scenario_event")
                        .field("event", event)
                        .field("detail", detail)
                });
            }
        });
        let events = parse_and_check(&w.serialize()).unwrap();
        let mut out = String::new();
        render_scenario(&events, &mut out);
        assert!(out.contains("4 timeline events"), "{out}");
        assert!(out.contains("intensity"), "{out}");
        assert!(out.contains("appdb for 120s"), "{out}");

        // A scenario event missing its detail fails the schema check.
        let bad = Event::new("scenario_event").field("event", "stall");
        assert!(check_schema(&bad).unwrap_err().contains("detail"));
    }

    #[test]
    fn guardrail_events_pass_schema_and_summarize() {
        let w = Arc::new(TraceWriter::new());
        trace::with_writer(&w, || {
            trace::begin_run();
            for (iter, action, detail) in [
                (2u64, "retry", "timeout recovered by retry"),
                (4, "trip", "2 consecutive acquisition failures"),
                (6, "probe", "cooldown elapsed; probing channel"),
                (7, "recover", "channel healthy after 3 degraded intervals"),
                (
                    9,
                    "rollback",
                    "persistent severe violation; restoring last-known-good state 5",
                ),
            ] {
                trace::set_sim_time_us(iter * 60_000_000);
                trace::emit(|| {
                    Event::new("guardrail")
                        .field("iter", iter)
                        .field("action", action)
                        .field("detail", detail)
                });
            }
        });
        let events = parse_and_check(&w.serialize()).unwrap();
        let mut out = String::new();
        render_guardrail(&events, &mut out);
        assert!(out.contains("guardrail: 5 events"), "{out}");
        // retries=1, trips=1, reopens=0, recoveries=1, degraded 7-4=3,
        // rollbacks=1 for run 1.
        assert!(out.contains('3'), "{out}");
        let row: Vec<&str> = out
            .lines()
            .find(|l| l.trim_start().starts_with('1'))
            .expect("summary row")
            .split_whitespace()
            .collect();
        assert_eq!(row, ["1", "1", "1", "0", "1", "3", "1"], "{out}");

        // An unknown action and a missing field both fail the schema.
        let bad = Event::new("guardrail")
            .field("iter", 1u64)
            .field("action", "explode")
            .field("detail", "boom");
        assert!(check_schema(&bad).unwrap_err().contains("explode"));
        let missing = Event::new("guardrail").field("iter", 1u64);
        assert!(check_schema(&missing).unwrap_err().contains("action"));
    }

    #[test]
    fn decision_rollback_action_passes_schema() {
        let e = decision(3, 0.1, "rollback", 2, false);
        check_schema(&e).unwrap();
    }

    #[test]
    fn unknown_kind_fails_schema() {
        let e = Event::new("mystery");
        assert!(check_schema(&e).is_err());
    }

    #[test]
    fn checkpoint_events_pass_schema() {
        let e = Event::new("checkpoint")
            .field("iter", 10u64)
            .field("tuner_iter", 4u64)
            .field("tuner", 1u64);
        check_schema(&e).unwrap();
        let bad = Event::new("checkpoint").field("iter", 10u64);
        assert!(check_schema(&bad).unwrap_err().contains("tuner"));
    }

    #[test]
    fn missing_decision_field_fails_schema() {
        let e = Event::new("decision").field("iter", 1u64);
        let err = check_schema(&e).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn malformed_line_reports_position() {
        let err =
            parse_and_check("{\"run\":0,\"t_us\":0,\"seq\":0,\"kind\":\"decision\"\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn scan_new_consumes_only_new_terminated_lines() {
        let text = sample_trace();
        let all = scan_new(&text, 0).unwrap();
        assert_eq!(all.len(), 6);
        assert_eq!(complete_lines(&text), 6);

        // A follower that has seen 4 lines picks up exactly the last 2.
        let tail = scan_new(&text, 4).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].kind, all[4].kind);

        // Nothing new: empty.
        assert!(scan_new(&text, 6).unwrap().is_empty());

        // A torn (unterminated) final line is left for the next poll.
        let torn = format!("{}{}", text, "{\"run\":9,\"t_us\":0,\"se");
        assert_eq!(complete_lines(&torn), 6);
        assert!(scan_new(&torn, 6).unwrap().is_empty());
    }

    #[test]
    fn scan_new_reports_schema_errors_with_line_numbers() {
        let mut text = sample_trace();
        text.push_str("{\"run\":1,\"t_us\":0,\"seq\":99,\"kind\":\"mystery\"}\n");
        let err = scan_new(&text, 6).unwrap_err();
        assert!(err.contains("line 7"), "{err}");
        assert!(err.contains("mystery"), "{err}");
    }

    #[test]
    fn brief_lines_name_the_event() {
        let text = sample_trace();
        let events = scan_new(&text, 0).unwrap();
        let lines: Vec<String> = events.iter().map(brief).collect();
        assert!(lines[0].contains("experiment tuner RAC"), "{:?}", lines[0]);
        assert!(
            lines[2].contains("decision iter 1 action Keep"),
            "{:?}",
            lines[2]
        );
        assert!(lines[2].starts_with("[run 1] t=300s"), "{:?}", lines[2]);
        assert!(
            lines[5].contains("runner_batch 10 jobs, 7 distinct"),
            "{:?}",
            lines[5]
        );
    }
}
