//! End-to-end pipeline tests: offline training → online tuning against
//! the live simulator, spanning every crate in the workspace.

use rac::{
    build_policy_library, ConfigLattice, Experiment, RacAgent, RacSettings, SlaReward,
    StaticDefault, SystemContext, TrainingOptions, TrialAndError,
};
use simkernel::SimDuration;
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::SystemSpec;

fn test_spec() -> SystemSpec {
    // Heavy enough that configuration genuinely matters (an underloaded
    // system is already fine at the defaults and there is nothing to
    // tune).
    SystemSpec::default().with_clients(600).with_seed(1234)
}

fn fast_settings() -> RacSettings {
    RacSettings {
        online_levels: 3,
        sla_ms: 1_000.0,
        seed: 99,
        ..RacSettings::default()
    }
}

fn fast_training() -> TrainingOptions {
    TrainingOptions {
        warmup: SimDuration::from_secs(300),
        measure: SimDuration::from_secs(180),
        ..TrainingOptions::default()
    }
}

fn quick_experiment(context: SystemContext, iters: usize) -> Experiment {
    Experiment::new(test_spec())
        .with_interval(SimDuration::from_secs(120))
        .with_warmup(SimDuration::from_secs(240))
        .then(context, iters)
}

#[test]
fn offline_training_then_online_tuning_beats_default() {
    let context = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
    let settings = fast_settings();
    let lattice = ConfigLattice::new(settings.online_levels);
    let library = build_policy_library(
        &test_spec(),
        &[context],
        &lattice,
        SlaReward::new(settings.sla_ms),
        fast_training(),
    );
    let policy = library.for_context(context).expect("trained").clone();
    assert!(
        policy.fit.r_squared > 0.3,
        "regression badly underfit: {:?}",
        policy.fit
    );

    let exp = quick_experiment(context, 15);
    let mut agent = RacAgent::with_initial_policy(settings, &policy).expect("same lattice");
    let agent_series = exp.run(&mut agent);
    let mut baseline = StaticDefault::new();
    let baseline_series = exp.run(&mut baseline);

    // Compare the settled halves.
    let agent_late = rac::series_mean(&agent_series[7..]);
    let baseline_late = rac::series_mean(&baseline_series[7..]);
    assert!(
        agent_late < baseline_late,
        "initialized RAC ({agent_late:.0} ms) should beat the default ({baseline_late:.0} ms)"
    );
}

#[test]
fn adaptive_agent_switches_policies_on_context_change() {
    let contexts = [
        SystemContext::new(Mix::Shopping, ResourceLevel::Level1),
        SystemContext::new(Mix::Ordering, ResourceLevel::Level3),
    ];
    let settings = fast_settings();
    let lattice = ConfigLattice::new(settings.online_levels);
    let library = build_policy_library(
        &test_spec(),
        &contexts,
        &lattice,
        SlaReward::new(settings.sla_ms),
        fast_training(),
    );

    let exp = Experiment::new(test_spec())
        .with_interval(SimDuration::from_secs(120))
        .with_warmup(SimDuration::from_secs(240))
        .then(contexts[0], 14)
        .then(contexts[1], 14);
    let mut agent = RacAgent::with_policy_library(settings, library);
    let series = exp.run(&mut agent);
    assert_eq!(series.len(), 28);
    // The Level-1 → Level-3 downgrade with an ordering mix is a drastic
    // shift; the detector must notice it at least once.
    assert!(
        agent.policy_switches() >= 1,
        "no policy switch across a drastic context change"
    );
}

#[test]
fn trial_and_error_improves_over_time() {
    let context = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
    let exp = quick_experiment(context, 30);
    let mut tae = TrialAndError::new(3);
    let series = exp.run(&mut tae);
    // After probing 8 parameters × 3 levels it must settle…
    assert!(tae.is_done(), "sweep unfinished after 30 iterations");
    // …and the settled configuration must beat the starting default.
    let start = series[0].response_ms;
    let settled = rac::series_mean(&series[25..]);
    assert!(
        settled < start * 1.05,
        "trial-and-error ended worse than it started: {start:.0} -> {settled:.0}"
    );
}

#[test]
fn cold_agent_explores_without_crashing_and_reports_experience() {
    let context = SystemContext::new(Mix::Browsing, ResourceLevel::Level2);
    let exp = quick_experiment(context, 10);
    let mut agent = RacAgent::new(fast_settings());
    let series = exp.run(&mut agent);
    assert_eq!(series.len(), 10);
    assert_eq!(agent.iterations(), 10);
    assert_eq!(agent.experience().len(), 10);
    // All applied configurations must be valid Table-1 settings.
    for r in &series {
        for p in websim::Param::ALL {
            let (lo, hi) = p.range();
            let v = r.config.get(p);
            assert!(
                v >= lo && v <= hi,
                "{p} = {v} out of range at iter {}",
                r.iteration
            );
        }
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let context = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
    let run = || {
        let exp = quick_experiment(context, 6);
        let mut agent = RacAgent::new(fast_settings());
        exp.run(&mut agent)
            .iter()
            .map(|r| (r.response_ms, r.config))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "identical seeds must reproduce bit-for-bit");
}
