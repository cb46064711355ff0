//! Determinism regression suite.
//!
//! The parallel runner's headline guarantee — parallel ≡ serial, bit
//! for bit, at any thread count — rests on `measure_config` being a
//! pure function of `(spec, config, warmup, measure)`. These tests pin
//! both layers: the purity of a single measurement, and the runner's
//! order/identity contract across thread counts and the cache.

use rac::runner::{MeasureJob, Runner};
use rac::{train_initial_policy, ConfigLattice, OfflineSettings, SimMeasurer, SlaReward};
use simkernel::SimDuration;
use websim::{measure_config, Param, PerfSample, ServerConfig, SystemSpec};

fn spec(seed: u64) -> SystemSpec {
    SystemSpec::default().with_clients(40).with_seed(seed)
}

const WARMUP: SimDuration = SimDuration::from_secs(10);
const MEASURE: SimDuration = SimDuration::from_secs(40);

/// A mixed batch: several seeds, several configurations, one duplicate.
fn batch() -> Vec<MeasureJob> {
    let mut jobs: Vec<MeasureJob> = (0..6)
        .map(|i| {
            let config = ServerConfig::default()
                .with(Param::MaxClients, 100 + 50 * (i as u32 % 4))
                .unwrap();
            MeasureJob::new(spec(i), config, WARMUP, MEASURE)
        })
        .collect();
    jobs.push(jobs[2].clone()); // duplicate point, exercises in-batch memoization
    jobs
}

#[test]
fn same_seed_measure_config_is_bit_for_bit_repeatable() {
    let s = spec(7);
    let a = measure_config(&s, ServerConfig::default(), WARMUP, MEASURE);
    let b = measure_config(&s, ServerConfig::default(), WARMUP, MEASURE);
    // PartialEq on PerfSample is f64 equality — bit-for-bit, not tolerance.
    assert_eq!(a, b);
    assert!(a.is_measurable());
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the trivial way the repeatability test could pass:
    // a simulator that ignores its seed entirely.
    let a = measure_config(&spec(1), ServerConfig::default(), WARMUP, MEASURE);
    let b = measure_config(&spec(2), ServerConfig::default(), WARMUP, MEASURE);
    assert_ne!(a, b);
}

#[test]
fn runner_output_is_identical_across_thread_counts_and_matches_serial() {
    let jobs = batch();
    let serial: Vec<PerfSample> = jobs
        .iter()
        .map(|j| measure_config(&j.spec, j.config, j.warmup, j.measure))
        .collect();
    for threads in [1, 2, 8] {
        let runner = Runner::new(threads);
        let parallel = runner.run(&jobs);
        assert_eq!(
            parallel, serial,
            "runner output diverged from serial at {threads} threads"
        );
        // And a second run over a warm cache returns the same bits.
        assert_eq!(
            runner.run(&jobs),
            serial,
            "warm-cache rerun diverged at {threads} threads"
        );
    }
}

#[test]
fn env_configured_runner_matches_serial() {
    // Whatever RAC_THREADS the harness (e.g. the CI matrix) sets, the
    // env-configured runner must reproduce the serial path exactly.
    let jobs = batch();
    let serial: Vec<PerfSample> = jobs
        .iter()
        .map(|j| measure_config(&j.spec, j.config, j.warmup, j.measure))
        .collect();
    let runner = Runner::from_env();
    assert_eq!(
        runner.run(&jobs),
        serial,
        "RAC_THREADS={} diverged",
        runner.threads()
    );
}

#[test]
fn cache_hits_equal_fresh_simulation() {
    let runner = Runner::new(4);
    let jobs = batch();
    let first = runner.run(&jobs);
    let warm = runner.run(&jobs);
    assert_eq!(first, warm);
    runner.clear_cache();
    let cold = runner.run(&jobs);
    assert_eq!(first, cold);
}

#[test]
fn cache_key_separates_every_input_dimension() {
    let runner = Runner::new(2);
    let base = MeasureJob::new(spec(3), ServerConfig::default(), WARMUP, MEASURE);
    let variants = vec![
        MeasureJob {
            spec: spec(4),
            ..base.clone()
        },
        MeasureJob {
            config: ServerConfig::default()
                .with(Param::MaxClients, 555)
                .unwrap(),
            ..base.clone()
        },
        MeasureJob {
            warmup: SimDuration::from_secs(11),
            ..base.clone()
        },
        MeasureJob {
            measure: SimDuration::from_secs(41),
            ..base.clone()
        },
    ];
    let mut all = vec![base];
    all.extend(variants);
    runner.run(&all);
    assert_eq!(
        runner.cache_stats().entries,
        all.len(),
        "distinct (spec, config, warmup, measure) points must not collide in the cache"
    );
}

#[test]
fn policy_initialization_is_deterministic_through_the_runner() {
    // The full Algorithm-2 pipeline, sampled through SimMeasurer on
    // private runners with different thread counts, must produce
    // PartialEq-identical policies (Q-table, predictions, fit).
    static RUNNER_1: std::sync::OnceLock<Runner> = std::sync::OnceLock::new();
    static RUNNER_8: std::sync::OnceLock<Runner> = std::sync::OnceLock::new();
    let r1 = RUNNER_1.get_or_init(|| Runner::new(1));
    let r8 = RUNNER_8.get_or_init(|| Runner::new(8));

    let lattice = ConfigLattice::new(3);
    let reward = SlaReward::new(1_000.0);
    let settings = OfflineSettings { group_levels: 2 };
    let train = |runner: &'static Runner| {
        let measurer = SimMeasurer::on_runner(runner, spec(5), WARMUP, MEASURE);
        train_initial_policy(&lattice, reward, settings, measurer).unwrap()
    };
    assert_eq!(train(r1), train(r8));
}

#[test]
fn spec_fingerprint_tracks_every_field_that_matters() {
    let base = spec(1);
    assert_eq!(base.fingerprint(), spec(1).fingerprint());
    let variants = [
        base.clone().with_seed(2),
        base.clone().with_clients(41),
        base.clone().with_mix(tpcw::Mix::Ordering),
        base.clone().with_level(vmstack::ResourceLevel::Level3),
    ];
    for v in &variants {
        assert_ne!(base.fingerprint(), v.fingerprint(), "collision: {v:?}");
    }
}
