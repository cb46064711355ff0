//! The policy-initialization pipeline (Algorithm 2), step by step.
//!
//! ```text
//! cargo run --release -p rac --example policy_initialization
//! ```
//!
//! Walks through: parameter grouping → coarse data collection →
//! polynomial-regression prediction → offline RL, then compares the
//! first online iterations of a bootstrapped agent against a cold one
//! (the paper's Figure 7 effect).

use rac::{
    grouping, train_initial_policy, ConfigLattice, Experiment, OfflineSettings, RacAgent,
    RacSettings, Runner, SimMeasurer, SlaReward, SystemContext,
};
use simkernel::SimDuration;
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::SystemSpec;

fn main() {
    let spec = SystemSpec::default().with_clients(600).with_seed(3);
    let context = SystemContext::new(Mix::Shopping, ResourceLevel::Level2);
    let spec_ctx = spec.clone().with_mix(context.mix).with_level(context.level);

    let settings = RacSettings::default();
    let lattice = ConfigLattice::new(settings.online_levels);
    let reward = SlaReward::new(settings.sla_ms);

    // Step 1+2: parameter grouping and coarse data collection.
    let plan = grouping::sampling_plan(3);
    println!(
        "step 1: parameter grouping -> {} groups, sampling plan of {} configurations",
        grouping::GROUP_COUNT,
        plan.len()
    );
    println!(
        "        (instead of {} at full online granularity)",
        lattice.num_states()
    );

    // Steps 2-4 run inside train_initial_policy; the measurer samples
    // the live simulator through the parallel runner, so the whole plan
    // fans out across RAC_THREADS workers.
    let runner = Runner::global();
    println!(
        "step 2: measuring the plan on the simulated testbed ({} worker threads)…",
        runner.threads()
    );
    let started = std::time::Instant::now();
    let measurer = SimMeasurer::new(
        spec_ctx,
        SimDuration::from_secs(600),
        SimDuration::from_secs(240),
    );
    let policy = train_initial_policy(&lattice, reward, OfflineSettings::default(), measurer)
        .expect("fit succeeds on the simulated landscape");
    let stats = runner.cache_stats();
    println!(
        "        {} configurations measured in {:.1}s wall-clock ({} cache hits)",
        stats.misses,
        started.elapsed().as_secs_f64(),
        stats.hits
    );
    println!(
        "step 3: regression fit over group features: r² = {:.3}, rmse = {:.1} ms",
        policy.fit.r_squared, policy.fit.rmse
    );
    println!(
        "        predicted performance for all {} lattice states",
        policy.perf_ms.len()
    );
    println!(
        "step 4: offline RL converged in {} sweep passes\n",
        policy.passes
    );

    // Online comparison: bootstrapped vs cold agent (Figure 7 effect).
    let experiment = Experiment::new(spec)
        .with_interval(SimDuration::from_secs(300))
        .with_warmup(SimDuration::from_secs(600))
        .then(context, 15);

    let mut with_init = RacAgent::with_initial_policy(settings.clone(), &policy)
        .expect("policy trained on the agent's lattice");
    let with_series = experiment.run(&mut with_init);
    let mut without_init = RacAgent::new(settings);
    let without_series = experiment.run(&mut without_init);

    println!(
        "{:>5} {:>16} {:>16}",
        "iter", "w/ init (ms)", "w/o init (ms)"
    );
    for (a, b) in with_series.iter().zip(&without_series) {
        println!(
            "{:>5} {:>16.0} {:>16.0}",
            a.iteration, a.response_ms, b.response_ms
        );
    }
    println!(
        "\nmean: w/ initialization {:.0} ms, w/o {:.0} ms",
        rac::series_mean(&with_series),
        rac::series_mean(&without_series)
    );
}
