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

use std::fs;
use std::path::Path;
use std::sync::Mutex;

use rac::{
    build_policy_library, paper_contexts, ConfigLattice, PolicyLibrary, RacSettings, Runner,
    SlaReward, SystemContext, TrainingOptions, TRAINING_REVISION,
};
use simkernel::{Fnv1a, SimDuration};
use websim::SystemSpec;

/// Lattice resolution used by all reproduction experiments.
pub const ONLINE_LEVELS: usize = 4;

/// SLA reference used by the reward function (ms).
pub const SLA_MS: f64 = 1_000.0;

/// The canonical simulated testbed: 600 browsers, a client population
/// heavy enough that configuration genuinely matters, against the
/// default shopping mix and Level-1 app/db VM, with seed 42. The host,
/// the web VM and the model's calibration are `websim` constants.
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
/// under `options`: `<stem>-L4-<fingerprint>.ckpt`. The fingerprint is a
/// 64-bit FNV-1a hash of the spec with the context applied, the
/// warm-up, the measurement window, the offline settings and the
/// [`TRAINING_REVISION`], so a policy trained from other inputs or by
/// other training code is a miss, never a stale hit.
fn policy_file(
    stem: &str,
    spec: &SystemSpec,
    context: SystemContext,
    options: TrainingOptions,
) -> String {
    let spec = spec.clone().with_mix(context.mix).with_level(context.level);
    let hash = Fnv1a::new()
        .write(format!("{spec:?}{options:?}").as_bytes())
        .write(&TRAINING_REVISION.to_le_bytes())
        .finish();
    format!("{stem}-L{ONLINE_LEVELS}-{hash:016x}.ckpt")
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
/// cache file under `cache_dir` that holds its policy. The files are
/// read, checked and decoded in parallel on the runner. Every context
/// whose file is missing or rejected is trained in one
/// [`build_policy_library`] call and then stored; a rejected file is
/// also warned about and counted in `rac_policy_cache_rejected_total`.
/// The library lists the entries in order, and each policy is moved
/// into it, never copied. A fully cached library starts no runner batch.
fn cached_library(
    cache_dir: &Path,
    entries: &[(SystemContext, String)],
    spec: &SystemSpec,
    options: TrainingOptions,
) -> PolicyLibrary {
    let lattice = standard_lattice();
    // The workers read into buffers that this thread allocated, one per
    // worker, reused from file to file. A buffer that a worker allocates
    // and frees stays in that worker's malloc arena, where the caller
    // never reuses it: that raised a checkpointed lineup's peak RSS by
    // 8 MB. And a fresh buffer per file pays its page faults again.
    let runner = Runner::global();
    let len = (entries.iter())
        .filter_map(|(_, file)| fs::metadata(cache_dir.join(file)).ok())
        .map(|meta| meta.len() as usize)
        .max();
    let buffers: Mutex<Vec<Vec<u8>>> = Mutex::new(
        (0..runner.threads().min(entries.len()))
            .map(|_| {
                let mut buf = Vec::new();
                // A file too large to hold fails its read instead.
                let _ = buf.try_reserve_exact(len.unwrap_or(0));
                buf
            })
            .collect(),
    );
    let cached = runner.run_tasks(entries.len(), |i| {
        let mut buf = buffers.lock().unwrap().pop().unwrap_or_default();
        let read = cache::read_policy(&cache_dir.join(&entries[i].1), &lattice, &mut buf);
        buffers.lock().unwrap().push(buf);
        read
    });
    let mut missing = Vec::new();
    let cached: Vec<_> = (entries.iter().zip(cached))
        .map(|((context, file), read)| {
            let policy = read.unwrap_or_else(|e| {
                eprintln!("  [offline] warning: rejected cached policy {file}: {e}");
                let rejected = obs::Registry::global().counter("rac_policy_cache_rejected_total");
                rejected.inc();
                None
            });
            if policy.is_none() {
                eprintln!("  [offline] training initial policy for {context} ({file})");
                missing.push(*context);
            }
            policy
        })
        .collect();
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

    /// Cache file names, checkpoint metadata and sidecar names are
    /// derived from these fingerprints, so none may move by accident.
    #[test]
    fn fingerprints_keep_their_persisted_values() {
        assert_eq!(paper_system_spec().fingerprint(), 0xb7a9_2c5d_27bd_ffd5);
        for (name, fp) in [
            ("flash-crowd", 0xf1e1_b04f_93b0_5f8b),
            ("diurnal", 0xdb7f_1171_e03e_327e),
            ("degrade", 0x4a89_8118_72a9_afb7),
        ] {
            assert_eq!(scenario::resolve(name).unwrap().fingerprint(), fp, "{name}");
        }
        let roster = ::fleet::generate(12, 42);
        assert_eq!(::fleet::roster_fingerprint(&roster), 0x34ec_79ca_7738_9044);
        let mut lib = PolicyLibrary::new();
        lib.insert(
            SystemContext::new(tpcw::Mix::Shopping, vmstack::ResourceLevel::Level2),
            rac::InitialPolicy {
                qtable: rl::QTable::from_raw(2, 2, vec![0.5, -1.0, 2.25, 0.0]),
                perf_ms: vec![410.0, 395.5],
                fit: numerics::FitQuality {
                    r_squared: 0.9,
                    rmse: 12.5,
                    samples: 7,
                },
                samples: 7,
                passes: 3,
            },
        );
        assert_eq!(lib.fingerprint(), 0x787d_35a2_d203_bbaa);
        let files: Vec<String> = standard_policy_files()
            .into_iter()
            .map(|(_, f)| f)
            .collect();
        assert_eq!(
            files,
            [
                "policy-ctx1-L4-1efc04751248ec52.ckpt",
                "policy-ctx2-L4-23169ee01325ae9a.ckpt",
                "policy-ctx3-L4-ba517d3105b7a134.ckpt",
                "policy-ctx4-L4-a201d33479bc4f41.ckpt",
                "policy-ctx5-L4-8abe4d24700db965.ckpt",
                "policy-ctx6-L4-fde5dee6119a7b23.ckpt",
            ]
        );
    }

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
        let mut pool = WorkerPool::new(cap, 0, 1, websim::MODEL.start_servers);
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
        let trained_with = |warmup| TrainingOptions {
            warmup: SimDuration::from_secs(warmup),
            measure: SimDuration::from_secs(20),
            ..TrainingOptions::default()
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
    fn corrupt_cached_policies_are_retrained_not_served() {
        let dir = std::env::temp_dir().join(format!("rac-bench-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = paper_system_spec().with_clients(20);
        let options = TrainingOptions {
            warmup: SimDuration::from_secs(10),
            measure: SimDuration::from_secs(20),
            ..TrainingOptions::default()
        };
        let entries: Vec<(SystemContext, String)> = paper_contexts()[..3]
            .iter()
            .enumerate()
            .map(|(i, &context)| {
                let stem = format!("policy-test{i}");
                (context, policy_file(&stem, &spec, context, options))
            })
            .collect();
        let path = |i: usize| dir.join(&entries[i].1);
        let library = || {
            let writer = std::sync::Arc::new(obs::TraceWriter::new());
            let library =
                obs::trace::with_writer(&writer, || cached_library(&dir, &entries, &spec, options));
            (library, writer.events())
        };
        let (clean, _) = library();
        let originals: Vec<Vec<u8>> = (0..3).map(|i| std::fs::read(path(i)).unwrap()).collect();

        // The 64-byte probe in the first file: the high byte of one
        // Q-value every 1,024 states (the values start after the
        // container header, the section header and the table's shape).
        let mut probed = originals[0].clone();
        let q_values = 16 + 2 + "rac.policy".len() + 8 + 4 + 16;
        let states = standard_lattice().num_states();
        for state in (0..states).step_by(1024) {
            probed[q_values + 4 * state * rac::Action::COUNT + 3] = 0x7f;
        }
        std::fs::write(path(0), probed).unwrap();
        // One flipped bit in the last file's payload.
        let mut flipped = originals[2].clone();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x04;
        std::fs::write(path(2), flipped).unwrap();

        let rejected = obs::Registry::global().counter("rac_policy_cache_rejected_total");
        let before = rejected.get();
        let (again, events) = library();
        assert_eq!(rejected.get() - before, 2);
        assert!(events.iter().any(|e| e.kind == "runner_batch"));
        let retrained: Vec<&obs::Value> = events
            .iter()
            .filter(|e| e.kind == "offline_training")
            .filter_map(|e| e.get("context"))
            .collect();
        let corrupted = [0, 2].map(|i| obs::Value::Str(entries[i].0.to_string()));
        assert_eq!(retrained, corrupted.iter().collect::<Vec<_>>());
        assert_eq!(again, clean);
        for (i, original) in originals.iter().enumerate() {
            assert_eq!(&std::fs::read(path(i)).unwrap(), original, "file {i}");
        }
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
