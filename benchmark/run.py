#!/usr/bin/env python3
"""The repository benchmark: cold start, checkpointed lineup, tournament.

Run from the repository root:

    python3 benchmark/run.py --workload cold_start --seed 1 --seconds 20 --trace 0

It builds the probe package in this directory (`cargo build --release`,
into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs the
workload as a series of probe steps, each a fresh process, for about
`--seconds` seconds (at least one job). Every job's outputs are checked.
The last stdout line is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md for
what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cold_start", "checkpointed_lineup", "tournament")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rac.mean_response_ms": "ms",
    "rac.sla_violation_rate": "ratio",
    "cold_start_s": "s",
    "resume_s": "s",
    "failed_fraction": "ratio",
    "init.train_s": "s",
    "init.sample_s": "s",
    "init.fit_sweep_s": "s",
    "init.samples": "count",
    "init.sweep_passes": "count",
    "runner.jobs": "count",
    "runner.simulations": "count",
    "runner.hit_ratio": "ratio",
    "runner.busy_ratio": "ratio",
    "cache.bytes": "bytes",
    "cache.store_s": "s",
    "cache.load_s": "s",
    "websim.intervals": "count",
    "websim.requests_completed": "count",
    "websim.simulate_s": "s",
    "agent.tune_s.rac": "s",
    "agent.tune_s.tae": "s",
    "agent.tune_s.default": "s",
    "agent.sweep_updates": "count",
    "agent.sweep_passes": "count",
    "ckpt.persist_s": "s",
    "ckpt.encode_s": "s",
    "ckpt.write_s": "s",
    "ckpt.writes": "count",
    "ckpt.bytes_per_snapshot": "bytes",
    "ckpt.bytes_written": "bytes",
    "ckpt.restore_s": "s",
    "ckpt.replay_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}

# Generated scenarios per tournament job (quick scale).
TOURNAMENT_SCENARIOS = 16
# Set-up-only probes per run; setup_s is the median over these and the
# set-up of every measured job.
SETUP_PROBES = 15
# A probe step that runs longer than this is killed and counts as failed.
STEP_TIMEOUT_S = 170


class StepError(Exception):
    pass


# ---------------------------------------------------------------------------
# Arithmetic (pure; covered by test_run.py)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them;
    a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 if the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def tune_s(step):
    return step["tune_rac_s"] + step["tune_tae_s"] + step["tune_default_s"]


def agent_and_websim(traced):
    """Layer numbers every traced lineup or tournament step carries.
    `websim.simulate_s` is the lineup's wall minus its tuning (the plain
    lineup persists nothing)."""
    return {
        "websim.intervals": traced["websim_intervals"],
        "websim.requests_completed": traced["websim_requests_completed"],
        "websim.simulate_s": traced["lineup_s"] - tune_s(traced),
        "agent.tune_s.rac": traced["tune_rac_s"],
        "agent.tune_s.tae": traced["tune_tae_s"],
        "agent.tune_s.default": traced["tune_default_s"],
        "agent.sweep_updates": traced["agent_sweep_updates"],
        "agent.sweep_passes": traced["agent_sweep_passes"],
    }


def quality(step):
    """The RAC arm's quality: a pure function of the seed."""
    return {
        "rac.mean_response_ms": step["rac_mean_response_ms"],
        "rac.sla_violation_rate": step["rac_sla_violation_rate"],
    }


def runner_layer(traced):
    hits, misses = traced["runner_hits"], traced["runner_misses"]
    return {
        "runner.jobs": traced["runner_jobs"] + traced.get("runner_tasks", 0),
        "runner.simulations": misses,
        "runner.hit_ratio": ratio(hits, hits + misses),
        "runner.busy_ratio": ratio(traced["job_cpu_s"], traced["job_s"] * traced["threads"]),
    }


def cold_start_layers(untraced, traced):
    m = {
        "cold_start_s": untraced["cold_start_s"],
        "init.train_s": traced["init_train_s"],
        "init.sample_s": traced["init_sample_s"],
        "init.fit_sweep_s": traced["init_train_s"] - traced["init_sample_s"],
        "init.samples": traced["init_samples"],
        "init.sweep_passes": traced["init_sweep_passes"],
        "cache.bytes": traced["cache_bytes"],
        "cache.store_s": traced["cache_store_s"],
        "cache.load_s": traced["cache_load_s"],
        "proc.cpu_s": traced["proc_cpu_s"],
        "trace.overhead_s": traced["job_s"] - untraced["job_s"],
    }
    m.update(runner_layer(traced))
    m.update(agent_and_websim(traced))
    m.update(quality(traced))
    return m


def checkpointed_layers(plain, plain_traced, full, stop, resume):
    """`ckpt.persist_s` is the straight-through checkpointed lineup's
    wall minus the plain traced lineup's: both produce the same series,
    so they simulate and tune the same."""
    persist = full["job_s"] - plain_traced["job_s"]
    restore = resume["restore_read_s"] + resume["restore_parse_s"] + resume["ckpt_decode_s"]
    m = {
        "resume_s": resume["resume_s"],
        "cache.bytes": plain_traced["cache_bytes"],
        "cache.load_s": plain_traced["cache_load_s"],
        "ckpt.persist_s": persist,
        "ckpt.write_s": full["ckpt_write_s"],
        "ckpt.encode_s": persist - full["ckpt_write_s"],
        "ckpt.writes": full["ckpt_writes"],
        "ckpt.bytes_written": full["ckpt_bytes"],
        "ckpt.bytes_per_snapshot": ratio(full["ckpt_bytes"], full["ckpt_writes"]),
        "ckpt.restore_s": restore,
        "ckpt.replay_s": resume["resume_s"] - restore,
        "proc.cpu_s": stop["proc_cpu_s"] + resume["proc_cpu_s"],
        "trace.overhead_s": plain_traced["job_s"] - plain["job_s"],
    }
    m.update(runner_layer(plain_traced))
    m.update(agent_and_websim(plain_traced))
    m.update(quality(plain_traced))
    return m


def tournament_layers(untraced, traced):
    m = {
        "proc.cpu_s": traced["proc_cpu_s"],
        "trace.overhead_s": traced["job_s"] - untraced["job_s"],
    }
    m.update(runner_layer(traced))
    m.update(agent_and_websim(traced))
    m.update(quality(traced))
    return m


# ---------------------------------------------------------------------------
# Probe processes


def nproc():
    return len(os.sched_getaffinity(0))


class Bench:
    def __init__(self, exe, target, workdir, seed):
        self.exe = exe
        self.target = target
        self.workdir = workdir
        self.seed = seed
        self.dirs = 0

    def fresh_dir(self):
        self.dirs += 1
        path = os.path.join(self.workdir, f"step{self.dirs}")
        os.makedirs(path)
        return path

    def step(self, name, directory, *extra):
        """Runs one probe step in a fresh process; returns its report."""
        cmd = [self.exe, name, "--seed", str(self.seed), "--dir", directory, *extra]
        env = dict(os.environ, RAC_THREADS=str(nproc()), RAC_OBS="metrics")
        env["RAC_BENCH_SPAWN_NS"] = str(time.time_ns())
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as e:
            raise StepError(f"{name}: timed out after {e.timeout} s") from e
        if proc.returncode != 0:
            raise StepError(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as e:
            raise StepError(f"{name}: no report ({e})") from e

    def setups(self, name, *extra):
        return [
            self.step(name, self.fresh_dir(), "--setup-only", *extra)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]

    def library(self):
        """The six-context policy library, trained once per build of the
        probe and cached beside it (the checkpointed lineup loads it in
        set-up)."""
        with open(self.exe, "rb") as f:
            key = hashlib.sha256(f.read()).hexdigest()[:16]
        path = os.path.join(self.target, "rac-benchmark-library", key)
        if not os.path.exists(os.path.join(path, "policies.txt")):
            tmp = f"{path}.tmp{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            self.step("train", tmp)
            shutil.rmtree(path, ignore_errors=True)
            os.rename(tmp, path)
        return path


def read(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as f:
        return f.read()


def expect_same(what, got, want):
    if got != want:
        raise StepError(f"{what} differs from its reference")


class Tally:
    """Jobs attempted and failed; a job fails on a step error or on an
    output that differs from its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def job(self, run):
        self.attempted += 1
        try:
            run()
        except StepError as e:
            self.failed += 1
            self.problems.append(str(e))



def timed_loop(seconds, tally, job):
    """Runs `job` until the next one would overrun `seconds` (always once)."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        tally.job(job)
        took = time.monotonic() - t0
        if tally.failed or time.monotonic() - start + took > seconds:
            return


# ---------------------------------------------------------------------------
# Workloads


def cold_start(bench, seconds, trace, tally):
    """Empty policy cache → six-context library → plain lineup. Each job
    is checked by re-running the lineup from the cache it wrote."""
    if trace:
        out = {}

        def traced():
            u_dir, t_dir = bench.fresh_dir(), bench.fresh_dir()
            u = bench.step("cold", u_dir)
            t = bench.step("cold", t_dir, "--trace")
            expect_same("traced policies", read(t_dir, "policies.txt"), read(u_dir, "policies.txt"))
            expect_same("traced lineup", read(t_dir, "lineup.csv"), read(u_dir, "lineup.csv"))
            out.update(cold_start_layers(u, t))

        tally.job(traced)
        return out

    setups = bench.setups("cold")
    jobs = []
    ref = {}

    def job():
        d = bench.fresh_dir()
        r = bench.step("cold", d)
        setups.append(r["setup_s"])
        csv, policies = read(d, "lineup.csv"), read(d, "policies.txt")
        v = bench.fresh_dir()
        bench.step("plain", v, "--library", os.path.join(d, "cache"))
        expect_same("lineup from the cached library", read(v, "lineup.csv"), csv)
        expect_same("lineup", csv, ref.setdefault("csv", csv))
        expect_same("policies", policies, ref.setdefault("policies", policies))
        jobs.append(r)

    timed_loop(seconds, tally, job)
    return summarize(setups, [r["job_s"] for r in jobs], [r["peak_rss_mb"] for r in jobs])


def checkpointed_lineup(bench, seconds, trace, tally):
    """The lineup with a snapshot every 5 iterations, stopped right after
    the mid-lineup snapshot in one process and resumed in the next."""
    lib = bench.library()
    plain_dir = bench.fresh_dir()
    plain = {}

    def reference():
        plain.update(bench.step("plain", plain_dir, "--library", lib))

    tally.job(reference)
    if tally.failed:
        return {}
    ref = read(plain_dir, "lineup.csv")

    def kill_and_resume():
        d = bench.fresh_dir()
        stop = bench.step("ckpt-stop", d, "--library", lib)
        resume = bench.step("ckpt-resume", d, "--library", lib)
        expect_same("resumed lineup", read(d, "lineup.csv"), ref)
        return stop, resume

    if trace:
        out = {}

        def traced():
            t_dir, f_dir = bench.fresh_dir(), bench.fresh_dir()
            t = bench.step("plain", t_dir, "--library", lib, "--trace")
            expect_same("traced lineup", read(t_dir, "lineup.csv"), ref)
            full = bench.step("ckpt-full", f_dir, "--library", lib)
            expect_same("checkpointed lineup", read(f_dir, "lineup.csv"), ref)
            stop, resume = kill_and_resume()
            out.update(checkpointed_layers(plain, t, full, stop, resume))

        tally.job(traced)
        return out

    setups = bench.setups("ckpt-stop", "--library", lib)
    walls, rss = [], []

    def job():
        stop, resume = kill_and_resume()
        setups.extend([stop["setup_s"], resume["setup_s"]])
        walls.append(stop["job_s"] + resume["job_s"])
        rss.append(max(stop["peak_rss_mb"], resume["peak_rss_mb"]))

    timed_loop(seconds, tally, job)
    return summarize(setups, walls, rss)


def tournament(bench, seconds, trace, tally):
    """Generated quick-scale scenarios, sharded over the runner."""
    n = ["--scenarios", str(TOURNAMENT_SCENARIOS)]
    if trace:
        out = {}

        def traced():
            u_dir, t_dir = bench.fresh_dir(), bench.fresh_dir()
            u = bench.step("tournament", u_dir, *n)
            t = bench.step("tournament", t_dir, *n, "--trace")
            expect_same("traced scoreboard", read(t_dir, "scoreboard.csv"), read(u_dir, "scoreboard.csv"))
            out.update(tournament_layers(u, t))

        tally.job(traced)
        return out

    setups = bench.setups("tournament", *n)
    jobs = []
    ref = {}

    def job():
        d = bench.fresh_dir()
        r = bench.step("tournament", d, *n)
        setups.append(r["setup_s"])
        board = read(d, "scoreboard.csv")
        expect_same("scoreboard", board, ref.setdefault("board", board))
        jobs.append(r)

    timed_loop(seconds, tally, job)
    return summarize(setups, [r["job_s"] for r in jobs], [r["peak_rss_mb"] for r in jobs])


def summarize(setups, walls, rss):
    if not walls:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }


# ---------------------------------------------------------------------------


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target),
                          stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"benchmark: build failed (exit {proc.returncode})")
    return os.path.join(target, "release", "rac-benchmark"), target


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    exe, target = build()
    workdir = os.path.join(target, "rac-benchmark-runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bench = Bench(exe, target, workdir, args.seed)
    tally = Tally()
    try:
        run = globals()[args.workload]
        values = run(bench, args.seconds, bool(args.trace), tally)
    except StepError as e:
        # Set-up probes and library training run outside any job.
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(str(e))
        values = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        values.setdefault("failed_fraction", ratio(tally.failed, tally.attempted))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(f"# workload={args.workload} seed={args.seed} RAC_THREADS={nproc()} "
          f"nproc={os.cpu_count()} jobs={tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0 and bool(values),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
