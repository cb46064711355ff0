//! Offline training against the simulated testbed.
//!
//! Glue between Algorithm 2 (which is measurement-source agnostic, see
//! [`train_initial_policy`](crate::train_initial_policy)) and the
//! [`websim`] simulator: collects the coarse sample measurements for a
//! set of system contexts and builds the policy library. This is the
//! step the paper reports taking "more than ten hours" on the physical
//! testbed — here it is simulated time.

use simkernel::SimDuration;
use websim::SystemSpec;

use crate::context::{PolicyLibrary, SystemContext};
use crate::grouping::sampling_plan;
use crate::init::{fit_initial_policy, trace_offline_policy, OfflineSettings};
use crate::param::ConfigLattice;
use crate::reward::SlaReward;
use crate::runner::{MeasureJob, Runner};

/// Revision of the offline training code, part of every policy-cache
/// key: a cache filled by an older trainer is then a miss, never a
/// stale hit. Bump it with any change that moves the bytes of a trained
/// policy; `trained_library_bytes_are_pinned` fails on such a change.
/// The simulator's calibration ([`websim::MODEL`]) and fixed testbed
/// count as trainer code: the cache key's spec does not carry them, so
/// a recalibration must bump this revision too.
pub const TRAINING_REVISION: u32 = 1;

/// Options for offline training-data collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingOptions {
    /// Warm-up simulated time per sampled configuration (discarded).
    pub warmup: SimDuration,
    /// Measured simulated time per sampled configuration.
    pub measure: SimDuration,
    /// Offline settings (the sampling plan's grouping granularity).
    pub settings: OfflineSettings,
}

impl Default for TrainingOptions {
    /// The standard offline sampling: 240 s measured after a 120 s
    /// warm-up, the settling time of every simulator transient that
    /// ends, rounded up to a whole minute (DESIGN.md, "Offline warm-up").
    fn default() -> Self {
        TrainingOptions {
            warmup: SimDuration::from_secs(120),
            measure: SimDuration::from_secs(240),
            settings: OfflineSettings::default(),
        }
    }
}

/// Builds a [`PolicyLibrary`] covering the given contexts by sampling
/// the simulator (Algorithm 2 end to end, once per context), with the
/// entries in `contexts` order.
///
/// One [`Runner::run`] batch on the global runner samples every
/// context's coarse plan. Then each context's regression fit and
/// offline sweep runs as its own [`Runner::run_tasks`] task, at most
/// `min(RAC_THREADS, contexts)` at a time. A fit is a pure function of
/// its context's slice of the batch, so the library is bit-identical
/// to training each context with
/// [`train_initial_policy`](crate::train_initial_policy) over a
/// [`SimMeasurer`](crate::SimMeasurer), at any thread count. The
/// `offline_training` and `offline_policy` trace events are emitted
/// from the calling thread, in context order, after the batch's one
/// `runner_batch` event. No contexts means no batch and no events.
///
/// # Panics
///
/// Panics if a regression cannot be fit, which indicates the sampled
/// landscape is degenerate — with the provided simulator this does not
/// happen for the paper's contexts.
///
/// # Example
///
/// ```no_run
/// use rac::{build_policy_library, ConfigLattice, SlaReward, SystemContext, TrainingOptions};
/// use tpcw::Mix;
/// use vmstack::ResourceLevel;
/// use websim::SystemSpec;
///
/// let lattice = ConfigLattice::new(4);
/// let ctx = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
/// let library = build_policy_library(
///     &SystemSpec::default(), &[ctx], &lattice,
///     SlaReward::new(1_000.0), TrainingOptions::default());
/// let policy = library.for_context(ctx).expect("trained context");
/// println!("fit r² = {:.3}", policy.fit.r_squared);
/// ```
pub fn build_policy_library(
    spec_base: &SystemSpec,
    contexts: &[SystemContext],
    lattice: &ConfigLattice,
    reward: SlaReward,
    options: TrainingOptions,
) -> PolicyLibrary {
    build_policy_library_on(
        Runner::global(),
        spec_base,
        contexts,
        lattice,
        reward,
        options,
    )
}

/// [`build_policy_library`] on an explicit runner (its worker count and
/// measurement cache); the library is the same at any thread count.
pub fn build_policy_library_on(
    runner: &Runner,
    spec_base: &SystemSpec,
    contexts: &[SystemContext],
    lattice: &ConfigLattice,
    reward: SlaReward,
    options: TrainingOptions,
) -> PolicyLibrary {
    let mut library = PolicyLibrary::new();
    if contexts.is_empty() {
        return library;
    }
    let _span = obs::Span::start("build_policy_library");
    let plan = sampling_plan(options.settings.group_levels);
    let jobs: Vec<MeasureJob> = contexts
        .iter()
        .flat_map(|context| {
            let spec = spec_base
                .clone()
                .with_mix(context.mix)
                .with_level(context.level);
            plan.iter().map(move |(_, config)| {
                MeasureJob::new(spec.clone(), *config, options.warmup, options.measure)
            })
        })
        .collect();
    let measured: Vec<f64> = runner
        .run(&jobs)
        .iter()
        .map(|sample| sample.mean_response_ms)
        .collect();
    let per_context: Vec<&[f64]> = measured.chunks_exact(plan.len()).collect();
    let policies = runner.run_tasks(contexts.len(), |i| {
        fit_initial_policy(lattice, reward, &plan, per_context[i])
    });
    for (&context, policy) in contexts.iter().zip(policies) {
        obs::trace::emit(|| {
            obs::Event::new("offline_training").field("context", context.to_string())
        });
        let policy = policy.expect("offline sampling landscape must be fittable");
        trace_offline_policy(&policy);
        library.insert(context, policy);
    }
    library
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use obs::{TraceWriter, Value};
    use tpcw::Mix;
    use vmstack::ResourceLevel;

    use super::*;
    use crate::init::train_initial_policy;
    use crate::runner::SimMeasurer;

    /// End-to-end against a *small* simulated system: slow-ish but real.
    #[test]
    fn trains_against_live_simulator() {
        let spec = SystemSpec::default().with_clients(50).with_seed(2);
        let lattice = ConfigLattice::new(3);
        let options = TrainingOptions {
            warmup: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(60),
            settings: OfflineSettings { group_levels: 2 },
        };
        let ctx = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
        let library =
            build_policy_library(&spec, &[ctx], &lattice, SlaReward::new(1_000.0), options);
        let policy = library.for_context(ctx).expect("trained context");
        assert_eq!(policy.samples, 16);
        assert!(policy.perf_ms.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn library_equals_per_context_training_bit_for_bit() {
        let spec = SystemSpec::default().with_clients(45).with_seed(17);
        let lattice = ConfigLattice::new(3);
        let reward = SlaReward::new(1_000.0);
        let options = TrainingOptions {
            warmup: SimDuration::from_secs(20),
            measure: SimDuration::from_secs(40),
            settings: OfflineSettings { group_levels: 2 },
        };
        let contexts = [
            SystemContext::new(Mix::Ordering, ResourceLevel::Level3),
            SystemContext::new(Mix::Browsing, ResourceLevel::Level1),
            SystemContext::new(Mix::Shopping, ResourceLevel::Level2),
        ];
        let writer = Arc::new(TraceWriter::new());
        let library = obs::trace::with_writer(&writer, || {
            build_policy_library(&spec, &contexts, &lattice, reward, options)
        });

        // The per-context path samples on a private runner, so neither
        // side can answer from the other's cache.
        let private: &'static Runner = Box::leak(Box::new(Runner::new(2)));
        let mut expected = PolicyLibrary::new();
        for context in contexts {
            let measurer = SimMeasurer::on_runner(
                private,
                spec.clone().with_mix(context.mix).with_level(context.level),
                options.warmup,
                options.measure,
            );
            let policy = train_initial_policy(&lattice, reward, options.settings, measurer)
                .expect("fittable");
            expected.insert(context, policy);
        }
        assert_eq!(library, expected);

        let events = writer.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "runner_batch",
                "offline_training",
                "offline_policy",
                "offline_training",
                "offline_policy",
                "offline_training",
                "offline_policy",
            ]
        );
        let plan_size = sampling_plan(options.settings.group_levels).len();
        let jobs = events[0].get("jobs").and_then(Value::as_u64);
        assert_eq!(jobs, Some((contexts.len() * plan_size) as u64));
        for (i, (context, policy)) in expected.iter().enumerate() {
            let training = &events[1 + 2 * i];
            let trained = &events[2 + 2 * i];
            let label = training.get("context").and_then(Value::as_str);
            assert_eq!(label, Some(context.to_string().as_str()));
            let passes = trained.get("passes").and_then(Value::as_u64);
            assert_eq!(passes, Some(policy.passes as u64));
        }
    }

    /// Pins the bytes of a small trained library, so a sweep or
    /// simulator change that moves any Q-value, prediction or pass count
    /// fails here instead of passing as "bit-identical" by assertion.
    #[test]
    fn trained_library_bytes_are_pinned() {
        let spec = SystemSpec::default().with_clients(45).with_seed(17);
        let options = TrainingOptions {
            warmup: SimDuration::from_secs(20),
            measure: SimDuration::from_secs(40),
            settings: OfflineSettings { group_levels: 2 },
        };
        let contexts = [
            SystemContext::new(Mix::Ordering, ResourceLevel::Level3),
            SystemContext::new(Mix::Browsing, ResourceLevel::Level1),
            SystemContext::new(Mix::Shopping, ResourceLevel::Level2),
        ];
        let library = build_policy_library(
            &spec,
            &contexts,
            &ConfigLattice::new(3),
            SlaReward::new(1_000.0),
            options,
        );
        let passes: Vec<usize> = library.iter().map(|(_, p)| p.passes).collect();
        assert_eq!(
            (library.fingerprint(), passes, TRAINING_REVISION),
            (0xf636_a7e8_faf7_452f, vec![422, 425, 424], 1),
            "trained library bytes moved: a warm policy cache would serve stale \
             policies, so bump TRAINING_REVISION and pin it here with the new \
             digest and passes"
        );
    }

    #[test]
    fn library_covers_requested_contexts() {
        let spec = SystemSpec::default().with_clients(40).with_seed(3);
        let lattice = ConfigLattice::new(3);
        let options = TrainingOptions {
            warmup: SimDuration::from_secs(20),
            measure: SimDuration::from_secs(40),
            settings: OfflineSettings { group_levels: 2 },
        };
        let contexts = [
            SystemContext::new(Mix::Shopping, ResourceLevel::Level1),
            SystemContext::new(Mix::Ordering, ResourceLevel::Level3),
        ];
        let lib =
            build_policy_library(&spec, &contexts, &lattice, SlaReward::new(1_000.0), options);
        assert_eq!(lib.len(), 2);
        for ctx in contexts {
            assert!(lib.for_context(ctx).is_some());
        }
    }
}
