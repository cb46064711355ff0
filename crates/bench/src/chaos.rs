//! Deterministic chaos harness: randomized fault schedules from
//! simkernel RNG seeds, plus the invariant checks the `figures chaos`
//! subcommand and `tests/chaos.rs` assert.
//!
//! A chaos run is a pure function of its seed: the schedule is drawn
//! from a [`Pcg64`] stream, the simulated system from the scenario's
//! own seed, and the RAC agent from its settings — so every run is
//! bit-identical across processes and `RAC_THREADS` settings, and any
//! invariant violation reproduces from the seed alone.

use rac::{Experiment, IterationRecord, RacAgent};
use scenario::{Directive, Scenario, Tier};
use simkernel::{Pcg64, SimDuration};
use tpcw::Mix;
use vmstack::ResourceLevel;

use crate::{paper_system_spec, standard_settings, SLA_MS};

/// Seeds the CI chaos job and the integration tests pin.
pub const PINNED_SEEDS: [u64; 3] = [101, 202, 303];

/// Default measured iterations of a chaos scenario.
pub const DEFAULT_ITERATIONS: usize = 24;

/// Iterations the agent gets to re-satisfy the SLA after the last
/// fault clears (breaker cooldown + probe + one decision, with slack).
pub const RECOVERY_GRACE: usize = 6;

/// Longest tolerated run of iterations that miss the SLA (or lose
/// their sample entirely). Fault windows are capped well below this;
/// anything longer means the guardrails failed to contain the damage.
pub const MAX_VIOLATION_STREAK: usize = 12;

const INTERVAL_S: u64 = 60;

/// Builds the randomized fault schedule for `seed`: a guaranteed
/// breaker-tripping blackout and a retry-absorbed timeout, plus 2–4
/// further faults drawn from every injectable kind (blackout, timeout,
/// drop, outlier, noise, stall) — all inside the first two-thirds of
/// the run, leaving a clean tail in which recovery must happen.
pub fn chaos_scenario(seed: u64, iterations: usize) -> Scenario {
    let iterations = iterations.max(9);
    let mut rng = Pcg64::seed_from_u64(seed);
    // Faults land in [1, fault_end); the tail stays clean.
    let fault_end = (iterations as u64 * 2) / 3;
    let mut directives = Vec::new();
    // A mild intensity step keeps the workload time-varying without
    // pushing the 60-client system anywhere near the SLA on its own.
    directives.push(Directive::IntensityAt {
        t: SimDuration::from_secs(rng.below(fault_end.max(2)) * INTERVAL_S),
        value: 1.0 + rng.f64() * 0.5,
    });
    // Every seed exercises the full breaker lifecycle: one blackout
    // long enough to trip it, and one one-shot timeout for the retry
    // path. Only their positions are random.
    let blackout_ivals = 2 + rng.below(2);
    let blackout_latest = fault_end.saturating_sub(blackout_ivals).max(2);
    directives.push(Directive::Blackout {
        t: SimDuration::from_secs((1 + rng.below(blackout_latest - 1)) * INTERVAL_S),
        dur: SimDuration::from_secs(blackout_ivals * INTERVAL_S),
    });
    directives.push(Directive::Timeout {
        t: SimDuration::from_secs((1 + rng.below(fault_end.max(4) - 2)) * INTERVAL_S),
    });
    let faults = 2 + rng.below(3);
    for _ in 0..faults {
        let kind = rng.below(6);
        // Durations first, so the onset can be clamped to clear before
        // the fault window ends.
        let dur_ivals = match kind {
            0 => 2 + rng.below(2), // blackout: long enough to trip
            4 => 1 + rng.below(2), // noise
            _ => 0,
        };
        let latest = fault_end.saturating_sub(dur_ivals).max(2);
        let t = SimDuration::from_secs((1 + rng.below(latest - 1)) * INTERVAL_S);
        let dur = SimDuration::from_secs(dur_ivals * INTERVAL_S);
        directives.push(match kind {
            0 => Directive::Blackout { t, dur },
            1 => Directive::Timeout { t },
            2 => Directive::Drop { t },
            3 => Directive::Outlier {
                t,
                factor: 2.0 + rng.f64() * 6.0,
            },
            4 => Directive::Noise {
                t,
                factor: 1.5 + rng.f64(),
                dur,
            },
            _ => Directive::Stall {
                t,
                tier: if rng.chance(0.5) {
                    Tier::Web
                } else {
                    Tier::AppDb
                },
                dur: SimDuration::from_secs(30),
            },
        });
    }
    Scenario {
        name: format!("chaos-{seed}"),
        duration: SimDuration::from_secs(iterations as u64 * INTERVAL_S),
        interval: SimDuration::from_secs(INTERVAL_S),
        warmup: SimDuration::from_secs(INTERVAL_S),
        clients: Some(60),
        mix: Mix::Shopping,
        level: ResourceLevel::Level1,
        seed: Some(seed),
        directives,
    }
}

/// The measured interval (0-based) containing the end of the last
/// fault: from here on the schedule injects nothing and the agent must
/// recover.
pub fn last_fault_clear_iteration(scn: &Scenario) -> usize {
    let interval_us = scn.interval.as_micros();
    let mut clear_us = 0u64;
    for d in &scn.directives {
        let end = match *d {
            Directive::Blackout { t, dur } | Directive::Noise { t, dur, .. } => {
                t.as_micros() + dur.as_micros()
            }
            Directive::Stall { t, dur, .. } => t.as_micros() + dur.as_micros(),
            Directive::Timeout { t } | Directive::Drop { t } | Directive::Outlier { t, .. } => {
                t.as_micros()
            }
            _ => 0,
        };
        clear_us = clear_us.max(end);
    }
    (clear_us.div_ceil(interval_us)) as usize
}

/// Runs the chaos line-up: a cold-started RAC agent (no offline policy
/// library — the guardrails must carry it) through the scenario.
pub fn run_chaos(scn: &Scenario) -> Vec<IterationRecord> {
    let exp = Experiment::for_scenario(paper_system_spec(), scn);
    exp.run_scenario(scn, &mut RacAgent::new(standard_settings()))
}

/// The seeded `kill` fault arm: iteration boundaries at which the
/// process "dies" during a chaos run. Always includes one kill right
/// inside the guaranteed blackout window (breaker open, agent
/// degraded) plus 1–2 further seeded points, so process death composes
/// with measurement faults in a single run.
pub fn kill_points(seed: u64, scn: &Scenario) -> Vec<usize> {
    let mut rng = Pcg64::seed_from_u64(seed ^ 0x4B1A);
    let total = scn.iterations();
    let blackout_iter = scn
        .directives
        .iter()
        .find_map(|d| match d {
            Directive::Blackout { t, .. } => {
                Some((t.as_micros() / scn.interval.as_micros()) as usize)
            }
            _ => None,
        })
        .unwrap_or(1);
    let mut points = vec![(blackout_iter + 2).min(total - 1)];
    for _ in 0..1 + rng.below(2) {
        points.push(1 + rng.below(total as u64 - 1) as usize);
    }
    points.sort_unstable();
    points.dedup();
    points
}

/// Checks the chaos invariants on a finished series. Returns one
/// human-readable message per violated invariant (empty = all hold).
///
/// 1. completeness — one record per scenario iteration;
/// 2. bounded violation streaks — never more than
///    [`MAX_VIOLATION_STREAK`] consecutive iterations miss the SLA or
///    lose their sample;
/// 3. recovery — within [`RECOVERY_GRACE`] iterations of the last
///    fault clearing, some iteration satisfies the SLA again.
pub fn check_invariants(scn: &Scenario, series: &[IterationRecord]) -> Vec<String> {
    let mut violations = Vec::new();
    if series.len() != scn.iterations() {
        violations.push(format!(
            "series has {} records, scenario runs {} iterations",
            series.len(),
            scn.iterations()
        ));
        return violations;
    }
    let bad = |r: &IterationRecord| !r.response_ms.is_finite() || r.response_ms > SLA_MS;

    let mut streak = 0usize;
    let mut worst = 0usize;
    for r in series {
        streak = if bad(r) { streak + 1 } else { 0 };
        worst = worst.max(streak);
    }
    if worst > MAX_VIOLATION_STREAK {
        violations.push(format!(
            "violation streak of {worst} iterations exceeds the {MAX_VIOLATION_STREAK} bound"
        ));
    }

    let clear = last_fault_clear_iteration(scn);
    let window_end = (clear + RECOVERY_GRACE).min(series.len());
    let recovered = series[clear.min(series.len())..window_end]
        .iter()
        .any(|r| !bad(r));
    if !recovered {
        violations.push(format!(
            "no SLA-satisfying iteration within {RECOVERY_GRACE} iterations of fault \
             clearance (iteration {clear})"
        ));
    }
    violations
}

/// The per-iteration chaos table written to `results/chaos-<seed>.csv`.
pub fn chaos_table(series: &[IterationRecord]) -> crate::output::TextTable {
    let mut t = crate::output::TextTable::new(&["iteration", "rt_ms", "p95_ms", "config"]);
    for r in series {
        t.row(&[
            r.iteration.to_string(),
            format!("{:.1}", r.response_ms),
            format!("{:.1}", r.p95_ms),
            r.config.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_fault_rich() {
        for seed in PINNED_SEEDS {
            let a = chaos_scenario(seed, DEFAULT_ITERATIONS);
            let b = chaos_scenario(seed, DEFAULT_ITERATIONS);
            assert_eq!(a, b, "schedule for seed {seed} not deterministic");
            assert!(a.directives.len() >= 5);
            let clear = last_fault_clear_iteration(&a);
            assert!(
                clear + RECOVERY_GRACE <= a.iterations(),
                "seed {seed}: no clean tail (clear at {clear} of {})",
                a.iterations()
            );
        }
    }

    #[test]
    fn distinct_seeds_draw_distinct_schedules() {
        let a = chaos_scenario(PINNED_SEEDS[0], DEFAULT_ITERATIONS);
        let b = chaos_scenario(PINNED_SEEDS[1], DEFAULT_ITERATIONS);
        assert_ne!(a.directives, b.directives);
    }

    #[test]
    fn invariant_checker_flags_planted_violations() {
        let scn = chaos_scenario(1, DEFAULT_ITERATIONS);
        let rec = |i: usize, rt: f64| IterationRecord {
            iteration: i,
            phase: 0,
            response_ms: rt,
            p95_ms: rt,
            throughput_rps: 10.0,
            config: websim::ServerConfig::default(),
        };
        // Wrong length.
        assert!(!check_invariants(&scn, &[]).is_empty());
        // A run that never recovers: everything violates.
        let dead: Vec<_> = (0..scn.iterations())
            .map(|i| rec(i, f64::INFINITY))
            .collect();
        let v = check_invariants(&scn, &dead);
        assert!(v.iter().any(|m| m.contains("streak")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("clearance")), "{v:?}");
        // A healthy run passes.
        let fine: Vec<_> = (0..scn.iterations()).map(|i| rec(i, 200.0)).collect();
        assert_eq!(check_invariants(&scn, &fine), Vec::<String>::new());
    }
}
