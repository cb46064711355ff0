//! Deterministic parallel measurement engine.
//!
//! The costliest stage of everything in this crate — policy
//! initialization, figure sweeps — is measuring
//! many *independent* `(spec, config)` points, one full simulated
//! interval each. Each measurement builds a fresh
//! [`websim::ThreeTierSystem`] from the spec (whose seed pins the PCG
//! stream), so a measurement is a **pure function** of its inputs:
//! scheduling order cannot affect results. That purity is what lets
//! this module promise its headline guarantee:
//!
//! > **Parallel ≡ serial, bit for bit, at any thread count.**
//!
//! [`Runner::run`] executes a batch over a work-queue of `RAC_THREADS`
//! workers (default: available parallelism) and returns results in
//! submission order. A process-wide memoizing cache keyed by
//! `(spec fingerprint, config, warmup, measure)` means repeated points
//! — the default config measured by fig 1, fig 5, and several table
//! rows — simulate exactly once per process; a cache hit returns the
//! same bits a fresh simulation would.
//!
//! # Example
//!
//! ```
//! use rac::runner::{MeasureJob, Runner};
//! use simkernel::SimDuration;
//! use websim::{measure_config, ServerConfig, SystemSpec};
//!
//! let spec = SystemSpec::default().with_clients(30);
//! let warmup = SimDuration::from_secs(10);
//! let measure = SimDuration::from_secs(30);
//! let jobs: Vec<MeasureJob> = (0..4)
//!     .map(|i| MeasureJob::new(spec.clone().with_seed(i), ServerConfig::default(), warmup, measure))
//!     .collect();
//!
//! let runner = Runner::new(2);
//! let parallel = runner.run(&jobs);
//! let serial: Vec<_> = jobs
//!     .iter()
//!     .map(|j| measure_config(&j.spec, j.config, j.warmup, j.measure))
//!     .collect();
//! assert_eq!(parallel, serial); // bit-identical, not just close
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use obs::Event;
use simkernel::SimDuration;
use websim::{measure_config, PerfSample, ServerConfig, SystemSpec};

/// Environment variable selecting the worker count (`0` or unset →
/// available parallelism).
pub const THREADS_ENV: &str = "RAC_THREADS";

/// Resolved-once obs handles for the measurement engine. Cache
/// hit/miss totals and wall-clock timings are inherently scheduling-
/// dependent across thread counts, so they live **only** here (the
/// metrics registry), never in the deterministic JSONL trace.
struct RunnerMetrics {
    jobs: obs::Counter,
    cache_hits: obs::Counter,
    cache_misses: obs::Counter,
    cache_clears: obs::Counter,
    queue_depth: obs::Gauge,
    job_ms: obs::Histogram,
}

impl RunnerMetrics {
    fn get() -> &'static RunnerMetrics {
        static METRICS: OnceLock<RunnerMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = obs::Registry::global();
            RunnerMetrics {
                jobs: r.counter("rac_runner_jobs_total"),
                cache_hits: r.counter("rac_runner_cache_hits_total"),
                cache_misses: r.counter("rac_runner_cache_misses_total"),
                cache_clears: r.counter("rac_runner_cache_clears_total"),
                queue_depth: r.gauge("rac_runner_queue_depth"),
                job_ms: r.histogram("rac_runner_job_ms"),
            }
        })
    }
}

/// One independent measurement: a system, a configuration, and how long
/// to warm up and measure.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureJob {
    /// The simulated testbed (its seed pins the RNG stream).
    pub spec: SystemSpec,
    /// The server configuration under test.
    pub config: ServerConfig,
    /// Simulated time discarded before measuring.
    pub warmup: SimDuration,
    /// Simulated time measured.
    pub measure: SimDuration,
}

impl MeasureJob {
    /// Bundles the four inputs of one measurement.
    pub fn new(
        spec: SystemSpec,
        config: ServerConfig,
        warmup: SimDuration,
        measure: SimDuration,
    ) -> Self {
        MeasureJob {
            spec,
            config,
            warmup,
            measure,
        }
    }

    fn key(&self) -> CacheKey {
        CacheKey {
            spec_fingerprint: self.spec.fingerprint(),
            config: self.config,
            warmup_us: self.warmup.as_micros(),
            measure_us: self.measure.as_micros(),
        }
    }

    fn execute(&self) -> PerfSample {
        measure_config(&self.spec, self.config, self.warmup, self.measure)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    spec_fingerprint: u64,
    config: ServerConfig,
    warmup_us: u64,
    measure_us: u64,
}

/// Cache effectiveness counters. `hits`, `misses`, and `clears` are
/// **cumulative over the runner's lifetime** — [`Runner::clear_cache`]
/// drops the cached samples (and resets `entries`) but never the
/// counters, so figure-end summaries report whole-process efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Measurements answered from memory.
    pub hits: u64,
    /// Measurements that ran a simulation.
    pub misses: u64,
    /// Distinct points currently cached.
    pub entries: usize,
    /// Times the cache has been cleared.
    pub clears: u64,
}

/// Work-queue executor for batches of independent measurements, plus a
/// memoizing cache. See the module docs for the determinism contract.
#[derive(Debug)]
pub struct Runner {
    threads: usize,
    cache: Mutex<HashMap<CacheKey, PerfSample>>,
    hits: AtomicU64,
    misses: AtomicU64,
    clears: AtomicU64,
}

impl Runner {
    /// Upper bound on the worker count: measurements are CPU-bound, so
    /// thousands of OS threads (e.g. a typo'd `RAC_THREADS`) would only
    /// add scheduling overhead and risk hitting thread limits.
    pub const MAX_THREADS: usize = 256;

    /// A runner with an explicit worker count (`0` → available
    /// parallelism; capped at [`Runner::MAX_THREADS`]).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            available_parallelism()
        } else {
            threads.min(Self::MAX_THREADS)
        };
        Runner {
            threads,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            clears: AtomicU64::new(0),
        }
    }

    /// A runner honouring `RAC_THREADS` (unset, empty, or `0` →
    /// available parallelism; unparsable values are ignored the same
    /// way).
    pub fn from_env() -> Self {
        Runner::new(threads_from_env())
    }

    /// The process-wide shared runner (and cache). First use pins the
    /// thread count from `RAC_THREADS`.
    pub fn global() -> &'static Runner {
        static GLOBAL: OnceLock<Runner> = OnceLock::new();
        GLOBAL.get_or_init(Runner::from_env)
    }

    /// The worker count this runner was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Measures one point through the cache.
    pub fn measure(
        &self,
        spec: &SystemSpec,
        config: ServerConfig,
        warmup: SimDuration,
        measure: SimDuration,
    ) -> PerfSample {
        let job = MeasureJob::new(spec.clone(), config, warmup, measure);
        let key = job.key();
        let recording = obs::enabled();
        if recording {
            RunnerMetrics::get().jobs.inc();
        }
        if let Some(sample) = self.cache.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if recording {
                RunnerMetrics::get().cache_hits.inc();
            }
            return *sample;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if recording {
            RunnerMetrics::get().cache_misses.inc();
        }
        let started = std::time::Instant::now();
        let sample = job.execute();
        if recording {
            RunnerMetrics::get()
                .job_ms
                .record_ms(started.elapsed().as_secs_f64() * 1_000.0);
        }
        self.cache.lock().unwrap().insert(key, sample);
        sample
    }

    /// Evaluates a batch of measurements across the worker pool,
    /// returning results **in submission order**.
    ///
    /// Duplicate points within the batch (and points already cached)
    /// simulate at most once; every occurrence receives the identical
    /// sample. Output is bit-identical to calling
    /// [`websim::measure_config`] in a loop, at any thread count.
    pub fn run(&self, jobs: &[MeasureJob]) -> Vec<PerfSample> {
        // Resolve the batch against the cache and collapse duplicates:
        // `pending` holds the first job for each distinct uncached key.
        let keys: Vec<CacheKey> = jobs.iter().map(MeasureJob::key).collect();
        let mut pending: Vec<(CacheKey, &MeasureJob)> = Vec::new();
        let mut batch_hits = 0u64;
        {
            let cache = self.cache.lock().unwrap();
            let mut scheduled: HashMap<CacheKey, ()> = HashMap::new();
            for (job, key) in jobs.iter().zip(&keys) {
                if cache.contains_key(key) {
                    batch_hits += 1;
                } else if scheduled.insert(*key, ()).is_none() {
                    pending.push((*key, job));
                } else {
                    batch_hits += 1;
                }
            }
        }
        self.hits.fetch_add(batch_hits, Ordering::Relaxed);
        self.misses
            .fetch_add(pending.len() as u64, Ordering::Relaxed);
        if obs::enabled() {
            let m = RunnerMetrics::get();
            m.jobs.add(jobs.len() as u64);
            m.cache_hits.add(batch_hits);
            m.cache_misses.add(pending.len() as u64);
        }
        // The trace carries only scheduling-independent facts about the
        // batch: its size and its distinct-key count are properties of
        // the job list alone. (Hit/miss counts depend on what other
        // batches already populated the shared cache, so they go to the
        // metrics registry above, never into the trace.)
        obs::trace::emit(|| {
            let distinct = keys.iter().collect::<std::collections::HashSet<_>>().len();
            Event::new("runner_batch")
                .field("jobs", jobs.len() as u64)
                .field("distinct", distinct as u64)
        });

        let fresh = self.execute_parallel(&pending);
        {
            let mut cache = self.cache.lock().unwrap();
            for ((key, _), sample) in pending.iter().zip(&fresh) {
                cache.insert(*key, *sample);
            }
        }

        let cache = self.cache.lock().unwrap();
        keys.iter().map(|key| cache[key]).collect()
    }

    /// Runs `n` arbitrary independent tasks across the worker pool,
    /// returning their results in index order. This is the generic
    /// engine behind [`Runner::run`], exposed for coarse-grained jobs
    /// (e.g. whole figures) that are not single measurements.
    ///
    /// `task` must be deterministic in its index for the parallel ≡
    /// serial guarantee to extend to the caller. A task's profiler
    /// frames fold under the submitting thread's innermost frame,
    /// whether the task runs on a worker or inline.
    pub fn run_tasks<R, F>(&self, n: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(&task).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let root = obs::profile::current_path();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    obs::profile::with_root(root.clone(), || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = task(i);
                        *slots[i].lock().unwrap() = Some(result);
                    })
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("worker completed every claimed job")
            })
            .collect()
    }

    /// Current cache counters (see [`CacheStats`]: `hits`/`misses`/
    /// `clears` are cumulative and survive [`Runner::clear_cache`]).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.cache.lock().unwrap().len(),
            clears: self.clears.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached sample (counters keep accumulating).
    pub fn clear_cache(&self) {
        self.cache.lock().unwrap().clear();
        self.clears.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            RunnerMetrics::get().cache_clears.inc();
        }
    }

    fn execute_parallel(&self, pending: &[(CacheKey, &MeasureJob)]) -> Vec<PerfSample> {
        if !obs::enabled() {
            return self.run_tasks(pending.len(), |i| pending[i].1.execute());
        }
        let m = RunnerMetrics::get();
        m.queue_depth.add(pending.len() as i64);
        self.run_tasks(pending.len(), |i| {
            // One profiler frame per queue job, under the submitter's.
            let _span = obs::Span::start("runner_job");
            let started = std::time::Instant::now();
            let sample = pending[i].1.execute();
            m.job_ms
                .record_ms(started.elapsed().as_secs_f64() * 1_000.0);
            m.queue_depth.add(-1);
            sample
        })
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::from_env()
    }
}

fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => v.trim().parse().unwrap_or(0),
        Err(_) => 0,
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A batched measurement source: the seam between the agent-side
/// pipelines (policy initialization, figure sweeps) and however
/// measurements are produced — live simulation through a [`Runner`], a
/// closure over a synthetic landscape in tests, or a recorded trace.
///
/// The blanket impl keeps every existing `FnMut(&ServerConfig) -> f64`
/// call site working unchanged; [`SimMeasurer`] adds the parallel,
/// cached path.
pub trait Measure {
    /// Measures one configuration (mean response time, milliseconds).
    fn measure(&mut self, config: &ServerConfig) -> f64;

    /// Measures a batch of configurations, in order. Implementations
    /// may evaluate concurrently but must return results positionally
    /// identical to measuring one at a time.
    fn measure_batch(&mut self, configs: &[ServerConfig]) -> Vec<f64> {
        configs.iter().map(|c| self.measure(c)).collect()
    }
}

impl<F: FnMut(&ServerConfig) -> f64> Measure for F {
    fn measure(&mut self, config: &ServerConfig) -> f64 {
        self(config)
    }
}

/// [`Measure`] backed by the simulator through a [`Runner`]: batches
/// fan out across workers and land in the process-wide cache.
///
/// # Example
///
/// ```
/// use rac::runner::{Measure, Runner, SimMeasurer};
/// use simkernel::SimDuration;
/// use websim::{ServerConfig, SystemSpec};
///
/// let spec = SystemSpec::default().with_clients(30);
/// let mut m = SimMeasurer::new(spec, SimDuration::from_secs(10), SimDuration::from_secs(30));
/// let ms = m.measure(&ServerConfig::default());
/// assert!(ms.is_finite() && ms > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimMeasurer {
    spec: SystemSpec,
    warmup: SimDuration,
    measure: SimDuration,
    runner: &'static Runner,
}

impl SimMeasurer {
    /// A measurer over `spec` using the [global runner](Runner::global).
    pub fn new(spec: SystemSpec, warmup: SimDuration, measure: SimDuration) -> Self {
        SimMeasurer {
            spec,
            warmup,
            measure,
            runner: Runner::global(),
        }
    }

    /// Same, but on an explicit runner (tests use private runners to
    /// control cache contents).
    pub fn on_runner(
        runner: &'static Runner,
        spec: SystemSpec,
        warmup: SimDuration,
        measure: SimDuration,
    ) -> Self {
        SimMeasurer {
            spec,
            warmup,
            measure,
            runner,
        }
    }

    /// The full [`PerfSample`] for one configuration (cached).
    pub fn sample(&self, config: ServerConfig) -> PerfSample {
        self.runner
            .measure(&self.spec, config, self.warmup, self.measure)
    }

    /// The full [`PerfSample`]s for a batch of configurations, in order.
    pub fn sample_batch(&self, configs: &[ServerConfig]) -> Vec<PerfSample> {
        let jobs: Vec<MeasureJob> = configs
            .iter()
            .map(|&c| MeasureJob::new(self.spec.clone(), c, self.warmup, self.measure))
            .collect();
        self.runner.run(&jobs)
    }
}

impl Measure for SimMeasurer {
    fn measure(&mut self, config: &ServerConfig) -> f64 {
        self.sample(*config).mean_response_ms
    }

    fn measure_batch(&mut self, configs: &[ServerConfig]) -> Vec<f64> {
        self.sample_batch(configs)
            .into_iter()
            .map(|s| s.mean_response_ms)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> SystemSpec {
        SystemSpec::default().with_clients(20).with_seed(seed)
    }

    fn tiny_jobs(n: u64) -> Vec<MeasureJob> {
        (0..n)
            .map(|i| {
                MeasureJob::new(
                    tiny_spec(i),
                    ServerConfig::default(),
                    SimDuration::from_secs(5),
                    SimDuration::from_secs(20),
                )
            })
            .collect()
    }

    #[test]
    fn thread_count_resolution() {
        assert!(Runner::new(0).threads() >= 1);
        assert_eq!(Runner::new(3).threads(), 3);
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let jobs = tiny_jobs(5);
        let serial: Vec<PerfSample> = jobs.iter().map(MeasureJob::execute).collect();
        for threads in [1, 2, 8] {
            let runner = Runner::new(threads);
            assert_eq!(runner.run(&jobs), serial, "threads={threads}");
        }
    }

    #[test]
    fn duplicates_simulate_once() {
        let runner = Runner::new(4);
        let job = tiny_jobs(1).remove(0);
        let batch = vec![job.clone(), job.clone(), job.clone()];
        let out = runner.run(&batch);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        let stats = runner.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_hit_equals_fresh_simulation() {
        let runner = Runner::new(2);
        let job = tiny_jobs(1).remove(0);
        let first = runner.measure(&job.spec, job.config, job.warmup, job.measure);
        let hit = runner.measure(&job.spec, job.config, job.warmup, job.measure);
        runner.clear_cache();
        let fresh = runner.measure(&job.spec, job.config, job.warmup, job.measure);
        assert_eq!(first, hit);
        assert_eq!(first, fresh);
        assert_eq!(runner.cache_stats().hits, 1);
        assert_eq!(runner.cache_stats().misses, 2);
    }

    #[test]
    fn cache_stats_survive_clear() {
        let runner = Runner::new(2);
        let jobs = tiny_jobs(3);
        runner.run(&jobs); // 3 misses
        runner.run(&jobs); // 3 hits
        let before = runner.cache_stats();
        assert_eq!((before.hits, before.misses), (3, 3));
        assert_eq!(before.entries, 3);
        assert_eq!(before.clears, 0);

        runner.clear_cache();
        let after = runner.cache_stats();
        // Cumulative counters are untouched; only the stored samples go.
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        assert_eq!(after.entries, 0);
        assert_eq!(after.clears, 1);

        runner.run(&jobs); // re-simulates: 3 more misses
        let refilled = runner.cache_stats();
        assert_eq!(refilled.misses, 6);
        assert_eq!(refilled.hits, 3);
        assert_eq!(refilled.entries, 3);
    }

    #[test]
    fn run_tasks_preserves_index_order() {
        let runner = Runner::new(4);
        let out = runner.run_tasks(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_empty_and_single() {
        let runner = Runner::new(4);
        assert!(runner.run_tasks(0, |i| i).is_empty());
        assert_eq!(runner.run_tasks(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn closure_satisfies_measure_trait() {
        fn takes_measure(mut m: impl Measure) -> Vec<f64> {
            m.measure_batch(&[ServerConfig::default(); 3])
        }
        let out = takes_measure(|_: &ServerConfig| 42.0);
        assert_eq!(out, vec![42.0; 3]);
    }

    #[test]
    fn sim_measurer_batch_matches_singles() {
        let spec = tiny_spec(9);
        let mut m = SimMeasurer::new(spec, SimDuration::from_secs(5), SimDuration::from_secs(20));
        let configs = [
            ServerConfig::default(),
            ServerConfig::default()
                .with(websim::Param::MaxClients, 100)
                .unwrap(),
        ];
        let batch = m.measure_batch(&configs);
        let singles: Vec<f64> = configs.iter().map(|c| m.measure(c)).collect();
        assert_eq!(batch, singles);
    }
}
