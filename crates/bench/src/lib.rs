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
    TrainingOptions::default()
}

/// Builds (or loads from `results/cache/`) the policy library for the
/// six Table-2 contexts. Offline training is the expensive step — the
/// paper reports "more than ten hours" of data collection — so the
/// result is cached on disk, one file per context, named by a
/// fingerprint of its training inputs.
pub fn standard_policy_library(cache_dir: &Path) -> PolicyLibrary {
    cached_library(
        cache_dir,
        &standard_policy_files(),
        &paper_system_spec(),
        standard_training_options(),
    )
}

/// The six Table-2 contexts, each with the cache file that holds its
/// standard policy.
pub fn standard_policy_files() -> Vec<(SystemContext, String)> {
    let spec = paper_system_spec();
    let options = standard_training_options();
    paper_contexts()
        .iter()
        .enumerate()
        .map(|(i, &context)| {
            let stem = format!("policy-ctx{}", i + 1);
            (context, policy_file(&stem, &spec, context, options))
        })
        .collect()
}

/// The cache file name of the policy trained for `context` from `spec`
/// under `options`: `<stem>-L4-<fingerprint>.bin`. The fingerprint is a
/// 64-bit FNV-1a hash of the spec with the context applied, the
/// warm-up, the measurement window and the offline settings, so a
/// policy trained from other inputs is a miss, never a stale hit.
fn policy_file(
    stem: &str,
    spec: &SystemSpec,
    context: SystemContext,
    options: TrainingOptions,
) -> String {
    let spec = spec.clone().with_mix(context.mix).with_level(context.level);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{spec:?}{options:?}").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{stem}-L{ONLINE_LEVELS}-{hash:016x}.bin")
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
    let context = paper_contexts()[0];
    let spec = paper_system_spec().with_clients(60);
    let options = TrainingOptions {
        warmup: SimDuration::from_secs(60),
        measure: SimDuration::from_secs(60),
        ..TrainingOptions::default()
    };
    let file = policy_file("policy-daemon-quick", &spec, context, options);
    cached_library(cache_dir, &[(context, file)], &spec, options)
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
    use websim::pool::WorkerPool;
    use websim::Param;

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

    /// The offline warm-up is the settling time of every simulator
    /// transient that ends, summed and rounded up to a whole minute
    /// (DESIGN.md, "Offline warm-up"), computed here from the model.
    #[test]
    fn offline_warmup_is_the_settling_time_of_the_simulator() {
        let spec = paper_system_spec();
        // Browser start-up: first issues come at exponential offsets
        // with the mean think time, so fewer than one browser is still
        // unstarted after mean · ln(clients).
        let startup = tpcw::MEAN_THINK_TIME_SECS * (spec.clients as f64).ln();
        // Pool ramp: a restarted pool grows from StartServers by one
        // doubling batch per one-second maintenance tick, capped at
        // MAX_SPAWN_BATCH, up to the largest MaxClients / MaxThreads.
        let cap = [Param::MaxClients, Param::MaxThreads]
            .iter()
            .map(|p| p.range().1)
            .max()
            .unwrap();
        let mut pool = WorkerPool::new(cap, 0, 1, spec.model.start_servers);
        let mut ticks = 0;
        while pool.size() < cap {
            pool.maintain(cap);
            ticks += 1;
        }
        assert_eq!(ticks, 23);
        // Keep-alive: a held worker is released after at most the
        // largest KeepaliveTimeout.
        let keepalive = f64::from(Param::KeepaliveTimeout.range().1);
        let settle = startup + f64::from(ticks) + keepalive;
        assert!((88.0..90.0).contains(&settle), "settling time {settle} s");
        let warmup = (settle / 60.0).ceil() as u64 * 60;
        assert_eq!(
            standard_training_options().warmup,
            SimDuration::from_secs(warmup)
        );
    }

    #[test]
    fn policy_cache_is_keyed_on_the_training_inputs() {
        let dir = std::env::temp_dir().join(format!("rac-bench-keyed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let context = paper_contexts()[0];
        let spec = paper_system_spec().with_clients(20);
        // One sweep pass keeps the fit cheap; the cache is what is tested.
        let trained_with = |warmup| TrainingOptions {
            warmup: SimDuration::from_secs(warmup),
            measure: SimDuration::from_secs(20),
            settings: rac::OfflineSettings {
                max_passes: 1,
                ..rac::OfflineSettings::default()
            },
        };
        let library = |options| {
            let entries = [(context, policy_file("policy-test", &spec, context, options))];
            let writer = std::sync::Arc::new(obs::TraceWriter::new());
            let library =
                obs::trace::with_writer(&writer, || cached_library(&dir, &entries, &spec, options));
            let trained = writer.events().iter().any(|e| e.kind == "runner_batch");
            (library, trained)
        };
        let (first, trained) = library(trained_with(10));
        assert!(trained, "an empty cache must train");
        let (_, trained) = library(trained_with(20));
        assert!(trained, "a policy cached under another warm-up was served");
        let (again, trained) = library(trained_with(10));
        assert!(
            !trained,
            "a policy cached under the same inputs was retrained"
        );
        assert_eq!(again, first);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
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
