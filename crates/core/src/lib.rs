//! **RAC** — a Reinforcement-learning approach to online web-system
//! Auto-Configuration.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Bu, Rao & Xu, ICDCS 2009): an agent that automatically tunes the
//! performance-critical parameters of a multi-tier web system, online,
//! adapting both to workload changes and to VM resource reallocation.
//!
//! # Architecture
//!
//! The agent has the paper's three components:
//!
//! * a **performance monitor** — application-level response time per
//!   measurement interval (supplied by the [`Experiment`] runner from
//!   the [`websim`] simulator; nothing OS- or hypervisor-level),
//! * an **RL-based decision maker** — a Q-table over the discretized
//!   configuration lattice ([`ConfigLattice`], [`ConfigMdp`]), retrained
//!   in batch every interval and queried ε-greedily,
//! * a **configuration controller** — emits the next [`websim::ServerConfig`].
//!
//! Cold-started RL explores disastrously online, so RAC is bootstrapped
//! by **policy initialization** ([`train_initial_policy`]): parameter
//! grouping → coarse sampling → polynomial-regression prediction →
//! offline RL. Per-context policies form a [`PolicyLibrary`]; an online
//! [`ViolationDetector`] notices context changes and switches to the
//! best-matching policy (Algorithm 3).
//!
//! # Quickstart
//!
//! ```
//! use rac::{ContextPhase, Experiment, RacAgent, RacSettings, SystemContext};
//! use simkernel::SimDuration;
//! use tpcw::Mix;
//! use vmstack::ResourceLevel;
//! use websim::SystemSpec;
//!
//! // A (small, fast) tuning session on the simulated testbed.
//! let context = SystemContext::new(Mix::Shopping, ResourceLevel::Level1);
//! let experiment = Experiment::new(SystemSpec::default().with_clients(80))
//!     .with_interval(SimDuration::from_secs(60))
//!     .with_warmup(SimDuration::from_secs(60))
//!     .then(context, 5);
//!
//! let mut agent = RacAgent::new(RacSettings { online_levels: 3, ..RacSettings::default() });
//! let series = experiment.run(&mut agent);
//! assert_eq!(series.len(), 5);
//! for r in &series {
//!     println!("iter {:>2}: {:.0} ms under {}", r.iteration, r.response_ms, r.config);
//! }
//! ```
//!
//! See the repository's `examples/` for realistic scenarios (adaptive
//! tuning across context changes, the offline initialization pipeline,
//! capacity planning) and the `rac-bench` crate for the full
//! reproduction of the paper's tables and figures.

mod action;
mod agent;
mod analysis;
mod baseline;
mod checkpoint;
mod context;
mod experiment;
pub mod grouping;
mod guardrail;
mod init;
mod mdp;
mod measure;
mod param;
mod persist;
mod reward;
pub mod runner;
mod training;

pub use action::Action;
pub use agent::{AgentError, RacAgent, RacSettings, Tuner};
pub use analysis::{convergence_iteration, response_series};
pub use baseline::{StaticDefault, TrialAndError};
pub use checkpoint::{
    decode_series, encode_series, BoundaryAction, PersistTuner, ScenarioProgress,
    ScenarioRunOutcome,
};
pub use context::{paper_contexts, PolicyLibrary, SystemContext, ViolationDetector};
pub use experiment::{maxclients_sweep, series_mean, ContextPhase, Experiment, IterationRecord};
pub use guardrail::{GuardDecision, RollbackGuard};
pub use init::{train_initial_policy, InitialPolicy, OfflineSettings};
pub use mdp::{ConfigMdp, ALPHA, GAMMA, THETA};
pub use measure::{Acquisition, BreakerState, BreakerTransition, MeasurementChannel};
pub use param::ConfigLattice;
pub use persist::{decode_policy, encode_policy, library_from_snapshot, library_to_snapshot};
pub use reward::SlaReward;
pub use runner::{Measure, MeasureJob, Runner, SimMeasurer};
pub use training::{
    build_policy_library, build_policy_library_on, TrainingOptions, TRAINING_REVISION,
};
