//! Shared infrastructure for the paper-reproduction harness.
//!
//! The `figures` binary (one subcommand per table/figure of the paper)
//! builds on the helpers here: the canonical testbed specification, the
//! standard agent settings, a disk-cached policy library, and plain-text
//! table / CSV output.

pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod cli;
pub mod crashdrill;
pub mod fleet;
pub mod output;
pub mod perfsuite;
pub mod profile;
pub mod scenario;
pub mod tournament;

use std::path::Path;

use rac::{
    build_policy_library, paper_contexts, ConfigLattice, InitialPolicy, PolicyLibrary, RacSettings,
    SlaReward, SystemContext, TrainingOptions,
};
use simkernel::SimDuration;
use websim::SystemSpec;

/// Lattice resolution used by all reproduction experiments.
pub const ONLINE_LEVELS: usize = 4;

/// SLA reference used by the reward function (ms).
pub const SLA_MS: f64 = 1_000.0;

/// The canonical simulated testbed: the paper's host (two quad-core
/// Xeons, 8 GB) with a client population heavy enough that configuration
/// genuinely matters.
pub fn paper_system_spec() -> SystemSpec {
    SystemSpec::default().with_clients(600).with_seed(42)
}

/// Standard agent hyper-parameters for the reproduction (paper values).
pub fn standard_settings() -> RacSettings {
    RacSettings {
        online_levels: ONLINE_LEVELS,
        sla_ms: SLA_MS,
        ..RacSettings::default()
    }
}

/// The standard online lattice.
pub fn standard_lattice() -> ConfigLattice {
    ConfigLattice::new(ONLINE_LEVELS)
}

/// Offline-training options used for the policy library.
pub fn standard_training_options() -> TrainingOptions {
    TrainingOptions {
        warmup: SimDuration::from_secs(600),
        measure: SimDuration::from_secs(240),
        ..TrainingOptions::default()
    }
}

/// Builds (or loads from `results/cache/`) the policy library for the
/// six Table-2 contexts. Offline training is the expensive step — the
/// paper reports "more than ten hours" of data collection — so the
/// result is cached on disk keyed by context.
pub fn standard_policy_library(cache_dir: &Path) -> PolicyLibrary {
    let entries: Vec<(SystemContext, String)> = paper_contexts()
        .iter()
        .enumerate()
        .map(|(i, context)| {
            (
                *context,
                format!("policy-ctx{}-L{ONLINE_LEVELS}.bin", i + 1),
            )
        })
        .collect();
    cached_library(
        cache_dir,
        &entries,
        &paper_system_spec(),
        standard_training_options(),
    )
}

/// Convenience: train the library fresh with cheap settings, for smoke
/// tests of the harness itself.
pub fn quick_policy_library(contexts: &[SystemContext]) -> PolicyLibrary {
    let lattice = ConfigLattice::new(3);
    build_policy_library(
        &paper_system_spec().with_clients(80),
        contexts,
        &lattice,
        SlaReward::new(SLA_MS),
        TrainingOptions {
            warmup: SimDuration::from_secs(60),
            measure: SimDuration::from_secs(60),
            ..TrainingOptions::default()
        },
    )
}

/// A single-context library at the *standard* lattice with cheap
/// training, disk-cached like [`standard_policy_library`]. This is the
/// `racd --library quick` flavor: fast enough for the crash drill and
/// the CI daemon job (one short training pass, then cache hits), while
/// matching the lineup's `ONLINE_LEVELS` lattice so checkpoint
/// dimension checks pass. Deterministic: cached and freshly-trained
/// libraries are identical, so a relaunched daemon seeds the same
/// agent.
pub fn daemon_quick_library(cache_dir: &Path) -> PolicyLibrary {
    let entries = [(
        paper_contexts()[0],
        format!("policy-daemon-quick-L{ONLINE_LEVELS}.bin"),
    )];
    cached_library(
        cache_dir,
        &entries,
        &paper_system_spec().with_clients(60),
        TrainingOptions {
            warmup: SimDuration::from_secs(60),
            measure: SimDuration::from_secs(60),
            ..TrainingOptions::default()
        },
    )
}

/// A standard-lattice library over `entries`, each a context and the
/// cache file under `cache_dir` that holds its policy. Every context
/// whose file is missing or unreadable is trained in one
/// [`build_policy_library`] call and then stored. The library lists the
/// entries in order, and each policy is moved into it, never copied. A
/// fully cached library starts no runner batch.
fn cached_library(
    cache_dir: &Path,
    entries: &[(SystemContext, String)],
    spec: &SystemSpec,
    options: TrainingOptions,
) -> PolicyLibrary {
    let lattice = standard_lattice();
    let cached: Vec<Option<InitialPolicy>> = entries
        .iter()
        .map(|(_, file)| cache::load_policy(&cache_dir.join(file), &lattice))
        .collect();
    let mut missing = Vec::new();
    for ((context, file), policy) in entries.iter().zip(&cached) {
        if policy.is_none() {
            eprintln!("  [offline] training initial policy for {context} ({file})");
            missing.push(*context);
        }
    }
    let mut trained =
        build_policy_library(spec, &missing, &lattice, SlaReward::new(SLA_MS), options).into_iter();
    let mut library = PolicyLibrary::new();
    for ((context, file), policy) in entries.iter().zip(cached) {
        let policy = policy.unwrap_or_else(|| {
            let (_, policy) = trained
                .next()
                .expect("one trained policy per missing context");
            if let Err(e) = cache::store_policy(&cache_dir.join(file), &policy) {
                eprintln!("  [offline] warning: could not cache policy: {e}");
            }
            policy
        });
        library.insert(*context, policy);
    }
    library
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_and_settings_consistent() {
        let spec = paper_system_spec();
        assert_eq!(spec.clients, 600);
        let s = standard_settings();
        assert_eq!(s.online_levels, ONLINE_LEVELS);
        assert_eq!(standard_lattice().levels(), ONLINE_LEVELS);
    }

    #[test]
    fn quick_library_builds() {
        let contexts = [rac::paper_contexts()[0]];
        let lib = quick_policy_library(&contexts);
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn warm_cache_trains_nothing() {
        let dir = std::env::temp_dir().join(format!("rac-bench-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = daemon_quick_library(&dir);
        let writer = std::sync::Arc::new(obs::TraceWriter::new());
        let warm = obs::trace::with_writer(&writer, || daemon_quick_library(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        let kinds: Vec<String> = writer.events().into_iter().map(|e| e.kind).collect();
        assert!(
            !kinds.iter().any(|kind| kind == "runner_batch"),
            "a warm cache started a batch: {kinds:?}"
        );
        assert_eq!(warm, cold);
    }
}
