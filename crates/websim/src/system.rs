//! The three-tier web system simulator.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

use simkernel::rng::{Exponential, LogNormal};
use simkernel::{EventQueue, Pcg64, SimDuration, SimTime};
use tpcw::{DemandProfile, Fleet, Mix, SessionId, ThinkDist};
use vmstack::{MemoryModel, ResourceLevel, VmSpec};

use crate::config::ServerConfig;
use crate::cpu::{PsCpu, TaskToken};
use crate::disk::Disk;
use crate::metrics::PerfSample;
use crate::model::MODEL;
use crate::pool::WorkerPool;

/// Resolved-once obs handles for interval-level simulator metrics (the
/// registry mutex is taken once, not per interval).
struct SimMetrics {
    intervals: obs::Counter,
    completed: obs::Counter,
    refused: obs::Counter,
    response_ms: obs::Histogram,
    /// `websim_events_<kind>_total`, in [`EVENT_KINDS`] order.
    events: [obs::Counter; EVENT_KINDS.len()],
}

impl SimMetrics {
    fn get() -> &'static SimMetrics {
        static METRICS: OnceLock<SimMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = obs::Registry::global();
            SimMetrics {
                intervals: r.counter("websim_intervals_total"),
                completed: r.counter("websim_requests_completed_total"),
                refused: r.counter("websim_requests_refused_total"),
                response_ms: r.histogram("websim_interval_mean_rt_ms"),
                events: EVENT_KINDS.map(|kind| r.counter(&format!("websim_events_{kind}_total"))),
            }
        })
    }
}

/// What varies between simulated testbeds: the app/db VM's level, the
/// workload and the seed.
///
/// The rest is fixed and mirrors the paper's setup: one physical machine
/// (two quad-core Xeons, 8 GB) running Xen, with Apache on a 2-vCPU,
/// 1.5 GB VM and Tomcat + MySQL on a second VM whose resources are varied
/// between Levels 1–3. The model's calibration is [`MODEL`](crate::MODEL).
///
/// # Example
///
/// ```
/// use websim::SystemSpec;
/// use vmstack::ResourceLevel;
/// use tpcw::Mix;
///
/// let spec = SystemSpec::default()
///     .with_clients(300)
///     .with_mix(Mix::Ordering)
///     .with_level(ResourceLevel::Level2);
/// assert_eq!(spec.clients, 300);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Resource level of the app/db VM.
    pub appdb_level: ResourceLevel,
    /// Number of emulated browsers.
    pub clients: usize,
    /// TPC-W traffic mix.
    pub mix: Mix,
    /// RNG seed; equal seeds reproduce runs bit-for-bit.
    pub seed: u64,
}

impl Default for SystemSpec {
    fn default() -> Self {
        SystemSpec {
            appdb_level: ResourceLevel::Level1,
            clients: 600,
            mix: Mix::Shopping,
            seed: 42,
        }
    }
}

impl SystemSpec {
    /// Sets the number of emulated browsers.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Sets the traffic mix.
    pub fn with_mix(mut self, mix: Mix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the app/db VM resource level.
    pub fn with_level(mut self, level: ResourceLevel) -> Self {
        self.appdb_level = level;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A 64-bit FNV-1a fingerprint of the complete spec — the app/db
    /// level, the workload and the seed. Everything else a simulation
    /// reads is code, so two specs with equal fingerprints produce
    /// bit-identical simulations in one build, which is what makes
    /// memoizing measurement results safe (see `rac::runner`).
    ///
    /// The hash covers the spec's canonical `Debug` rendering. Rust
    /// renders floats with shortest-round-trip formatting, so the
    /// rendering is lossless; the fingerprint is stable within a
    /// process, which is all the in-memory cache needs.
    ///
    /// # Example
    ///
    /// ```
    /// use websim::SystemSpec;
    ///
    /// let a = SystemSpec::default();
    /// assert_eq!(a.fingerprint(), SystemSpec::default().fingerprint());
    /// assert_ne!(a.fingerprint(), a.clone().with_seed(7).fingerprint());
    /// assert_ne!(a.fingerprint(), a.clone().with_clients(10).fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        simkernel::Fnv1a::new()
            .write(format!("{self:?}").as_bytes())
            .finish()
    }
}

// Send audit: measurement jobs move specs and whole systems across
// worker threads (`rac::runner`). Every constituent of the simulator is
// owned data (no Rc, no raw pointers, no thread-locals), so these hold
// structurally; the assertions turn any future regression into a
// compile error at the definition site rather than an inference failure
// at a distant spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemSpec>();
    assert_send_sync::<ServerConfig>();
    assert_send_sync::<PerfSample>();
    assert_send::<ThreeTierSystem>();
};

type ReqId = usize;

const WEB: usize = 0;
const APPDB: usize = 1;

/// The web-tier VM. The paper varies only the app/db VM.
const WEB_VM: VmSpec = VmSpec::new(2, 1_536);

/// Per-runnable-task concurrency overhead of both tiers' CPUs (context
/// switches, cache pressure).
const CONCURRENCY_OVERHEAD: f64 = 0.0015;

/// Fewest cores a tier runs on between maintenance ticks, however idle
/// it was at the last one.
const MIN_CORES: f64 = 0.25;

/// Effective core count of a stalled tier. `PsCpu` requires a strictly
/// positive capacity, so a stall is modelled as a capacity so small that
/// no task completes within any realistic stall window.
const STALLED_CORES: f64 = 1e-6;

/// A tier of the simulated system, addressable by fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The web (Apache) VM.
    Web,
    /// The app/db (Tomcat + MySQL) VM.
    AppDb,
}

impl Tier {
    fn index(self) -> usize {
        match self {
            Tier::Web => WEB,
            Tier::AppDb => APPDB,
        }
    }
}

const PHASE_WEB: u8 = 0;
const PHASE_APP_FIRST: u8 = 1;
const PHASE_DB: u8 = 2;
const PHASE_APP_SECOND: u8 = 3;

/// The kinds of event the loop dispatches and counts. Each names a
/// `websim_events_<kind>_total` counter, which the counts are added to
/// once per interval. A superseded CPU tick is one that is no longer its
/// tier's next completion; a stale keep-alive expiry or fault clear is
/// one whose generation is no longer current. Either changes nothing
/// but the clock.
pub const EVENT_KINDS: [&str; 13] = [
    "issue",
    "retry",
    "web_swap",
    "app_swap",
    "disk_done",
    "cpu_tick",
    "cpu_tick_superseded",
    "keepalive_expire",
    "keepalive_stale",
    "maintain",
    "session_sweep",
    "fault_clear",
    "fault_clear_stale",
];

/// Indices into [`EVENT_KINDS`] and the system's event counts.
mod kind {
    pub const ISSUE: usize = 0;
    pub const RETRY: usize = 1;
    pub const WEB_SWAP: usize = 2;
    pub const APP_SWAP: usize = 3;
    pub const DISK_DONE: usize = 4;
    pub const CPU_TICK: usize = 5;
    pub const CPU_TICK_SUPERSEDED: usize = 6;
    pub const KEEPALIVE_EXPIRE: usize = 7;
    pub const KEEPALIVE_STALE: usize = 8;
    pub const MAINTAIN: usize = 9;
    pub const SESSION_SWEEP: usize = 10;
    pub const FAULT_CLEAR: usize = 11;
    pub const FAULT_CLEAR_STALE: usize = 12;
}

/// The events the [`EventQueue`] holds. CPU completion ticks are not
/// among them: the system keeps those apart (see
/// [`ThreeTierSystem::run_interval`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Browser `b` issues its next request.
    Issue(usize),
    /// A previously refused request retries admission.
    Retry(ReqId),
    /// Web-tier page-in wait (memory pressure) finished.
    WebSwap(ReqId),
    /// App-tier page-in wait finished.
    AppSwap(ReqId),
    /// The database disk completed the in-service aggregated I/O.
    DiskDone(ReqId),
    /// A keep-alive hold for browser `b` (generation `g`) timed out.
    KeepaliveExpire(usize, u64),
    /// Once-per-second pool maintenance (spawn/kill, tier cores).
    Maintain,
    /// Periodic expired-session sweep.
    SessionSweep,
    /// An injected tier stall (generation-checked) ends.
    FaultClear(usize, u64),
}

#[derive(Debug, Clone, Copy)]
struct ReqState {
    browser: usize,
    issued_at: SimTime,
    demand: DemandProfile,
    session: SessionId,
    new_session: bool,
    reused_connection: bool,
    /// Per-request service-time jitter (heavy-tail scenario regimes);
    /// exactly 1.0 — and costing zero RNG draws — when tails are off,
    /// so default runs stay bit-identical.
    jitter: f64,
}

/// The simulated three-tier web system.
///
/// Drive it in *measurement intervals*: configure, then call
/// [`run_interval`](ThreeTierSystem::run_interval) repeatedly; each call
/// advances simulated time and returns the application-level
/// [`PerfSample`] for that interval. System state (pools, sessions,
/// in-flight requests) persists across intervals and reconfigurations,
/// exactly like the live system the RAC agent tunes.
///
/// # Example
///
/// ```
/// use simkernel::SimDuration;
/// use websim::{ServerConfig, SystemSpec, ThreeTierSystem};
///
/// let mut sys = ThreeTierSystem::new(SystemSpec::default().with_clients(60));
/// sys.set_config(ServerConfig::default());
/// let sample = sys.run_interval(SimDuration::from_secs(120));
/// assert!(sample.is_measurable());
/// assert!(sample.mean_response_ms > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ThreeTierSystem {
    appdb_level: ResourceLevel,
    /// The app/db VM, at `appdb_level`.
    appdb_vm: VmSpec,
    /// Each tier's cores, as [`on_maintain`](Self::on_maintain) last set
    /// them: its runnable load clamped to `[MIN_CORES, vCPUs]`.
    cores: [f64; 2],
    config: ServerConfig,
    fleet: Fleet,
    rng: Pcg64,
    queue: EventQueue<Ev>,
    apache: WorkerPool,
    tomcat: WorkerPool,
    cpus: [PsCpu; 2],
    /// Both tiers' pending completion ticks as `(time, seq, tier)`,
    /// sorted descending so the earliest is last. `seq` comes from the
    /// queue's own counter, so ticks and queued events share one order.
    ticks: Vec<(SimTime, u64, usize)>,
    /// Each tier's live tick, the one at its next completion. Any other
    /// pending tick is superseded but still fires: advancing both CPUs'
    /// clocks at its instant rounds their virtual time differently than
    /// one longer step would.
    live_tick: [Option<(SimTime, u64)>; 2],
    /// Tasks a tick completed; kept to reuse its allocation.
    cpu_done: Vec<TaskToken>,
    db_busy: u32,
    db_queue: VecDeque<ReqId>,
    disk: Disk,
    accept_queue: VecDeque<ReqId>,
    app_queue: VecDeque<ReqId>,
    requests: Vec<Option<ReqState>>,
    free_ids: Vec<ReqId>,
    /// Keep-alive hold generation per browser index, 0 for none. It only
    /// grows, so a browser removed by a workload change keeps its hold
    /// until that expires.
    holds: Vec<u64>,
    /// Number of nonzero entries in `holds`.
    live_holds: usize,
    hold_gen: u64,
    sessions: HashMap<SessionId, SimTime>,
    response_ms: Vec<f64>,
    refused: u64,
    started: bool,
    /// Client population the spec started with; intensity scaling is
    /// always relative to this, not to the current fleet size.
    base_clients: usize,
    /// Multiplier on every CPU service demand (scenario latency noise;
    /// 1.0 = nominal).
    latency_factor: f64,
    /// Whether each tier's CPU is currently frozen by a fault.
    stalled: [bool; 2],
    /// Stall generations; a `FaultClear` only applies if its generation
    /// is current (overlapping stalls extend, not truncate).
    stall_gen: [u64; 2],
    /// Heavy-tail service regime: when set, each new request draws one
    /// mean-1 log-normal jitter multiplied into its CPU demands. `None`
    /// (the default) draws nothing and is bit-exact.
    service_tail: Option<LogNormal>,
    /// Events dispatched so far, per [`EVENT_KINDS`] entry.
    events: [u64; EVENT_KINDS.len()],
    /// The part of `events` already added to the registry's counters.
    events_folded: [u64; EVENT_KINDS.len()],
}

impl ThreeTierSystem {
    /// Builds the system (VMs placed, pools at their configured spare
    /// levels, browsers idle). Nothing runs until the first
    /// [`run_interval`](ThreeTierSystem::run_interval).
    pub fn new(spec: SystemSpec) -> Self {
        let appdb_vm = spec.appdb_level.vm_spec();
        let cores = [f64::from(WEB_VM.vcpus()), f64::from(appdb_vm.vcpus())];
        let config = ServerConfig::default();
        let apache = WorkerPool::new(
            config.max_clients(),
            config.min_spare_servers(),
            config.max_spare_servers(),
            config.min_spare_servers(),
        );
        let tomcat = WorkerPool::new(
            config.max_threads(),
            config.min_spare_threads(),
            config.max_spare_threads(),
            config.min_spare_threads(),
        );
        let cpus = cores.map(|c| PsCpu::new(c, CONCURRENCY_OVERHEAD));
        ThreeTierSystem {
            appdb_level: spec.appdb_level,
            appdb_vm,
            cores,
            config,
            fleet: Fleet::new(spec.clients, spec.mix),
            rng: Pcg64::seed_from_u64(spec.seed),
            queue: EventQueue::new(),
            apache,
            tomcat,
            cpus,
            ticks: Vec::new(),
            live_tick: [None, None],
            cpu_done: Vec::new(),
            db_busy: 0,
            db_queue: VecDeque::new(),
            disk: Disk::new(MODEL.disk_elevator_gain, MODEL.disk_max_depth),
            accept_queue: VecDeque::new(),
            app_queue: VecDeque::new(),
            requests: Vec::new(),
            free_ids: Vec::new(),
            holds: vec![0; spec.clients],
            live_holds: 0,
            hold_gen: 0,
            sessions: HashMap::new(),
            response_ms: Vec::new(),
            refused: 0,
            started: false,
            base_clients: spec.clients,
            latency_factor: 1.0,
            stalled: [false, false],
            stall_gen: [0, 0],
            service_tail: None,
            events: [0; EVENT_KINDS.len()],
            events_folded: [0; EVENT_KINDS.len()],
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Current traffic mix.
    pub fn mix(&self) -> Mix {
        self.fleet.mix()
    }

    /// Current number of emulated browsers.
    pub fn clients(&self) -> usize {
        self.fleet.len()
    }

    /// Current app/db VM resource level.
    pub fn resource_level(&self) -> ResourceLevel {
        self.appdb_level
    }

    /// Applies a new configuration at runtime (the paper's graceful
    /// restart): pool limits are re-clamped, keep-alive connections are
    /// dropped, sessions survive.
    pub fn set_config(&mut self, config: ServerConfig) {
        self.config = config;
        self.apache.set_limits(
            config.max_clients(),
            config.min_spare_servers(),
            config.max_spare_servers(),
        );
        self.tomcat.set_limits(
            config.max_threads(),
            config.min_spare_threads(),
            config.max_spare_threads(),
        );
        // Graceful restart drops idle keep-alive connections; their
        // expiry events become stale no-ops.
        for _ in 0..self.live_holds {
            self.apache.unhold_to_idle();
        }
        self.holds.fill(0);
        self.live_holds = 0;
        // New worker generations start small and ramp back up.
        self.apache.restart(MODEL.start_servers);
        self.tomcat.restart(MODEL.start_servers);
        self.serve_accept_queue();
        self.resync_cpu_ticks();
    }

    /// Changes the client population and/or mix (a workload change in the
    /// paper's system contexts).
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn set_workload(&mut self, clients: usize, mix: Mix) {
        assert!(clients > 0, "workload needs at least one client");
        if mix != self.fleet.mix() {
            self.fleet.set_mix(mix);
        }
        let old = self.fleet.len();
        self.fleet.resize(clients);
        if clients > self.holds.len() {
            self.holds.resize(clients, 0);
        }
        if self.started && clients > old {
            let now = self.queue.now();
            let think = Exponential::with_mean(tpcw::MEAN_THINK_TIME_SECS);
            for b in old..clients {
                let offset = SimDuration::from_secs_f64(think.sample(&mut self.rng));
                self.queue.schedule(now + offset, Ev::Issue(b));
            }
        }
    }

    /// Changes the app/db VM's resource allocation at runtime (the
    /// paper's VM reconfiguration events). Until the next maintenance
    /// tick the tier runs on all of the new level's vCPUs.
    pub fn set_resource_level(&mut self, level: ResourceLevel) {
        self.appdb_level = level;
        self.appdb_vm = level.vm_spec();
        self.cores[APPDB] = f64::from(self.appdb_vm.vcpus());
        let now = self.queue.now();
        self.apply_effective_cores(now);
        self.resync_cpu_ticks();
    }

    // ----- scenario hooks ---------------------------------------------

    /// Scales the offered client population to `scale ×` the spec's
    /// base population (scenario intensity curves). The mix is kept.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn set_intensity(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "intensity must be finite and positive, got {scale}"
        );
        let clients = ((self.base_clients as f64 * scale).round() as usize).max(1);
        self.set_workload(clients, self.fleet.mix());
    }

    /// Multiplies every CPU service demand by `factor` until the next
    /// call (scenario latency noise; 1.0 restores nominal service).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_latency_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "latency factor must be finite and positive, got {factor}"
        );
        self.latency_factor = factor;
    }

    /// Current latency-noise factor (diagnostics).
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Switches browser think times to a mean-preserving log-normal
    /// with the given σ, or back to the exponential TPC-W default
    /// (`None`) — the scenario `tail ... think` directive. Initial
    /// issue offsets (bootstrap and population growth) always stay
    /// exponential: they only desynchronize browsers, and keeping them
    /// fixed keeps tail-free runs bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not finite and non-negative.
    pub fn set_think_tail(&mut self, sigma: Option<f64>) {
        self.fleet.set_think_dist(match sigma {
            Some(s) => ThinkDist::lognormal(s),
            None => ThinkDist::exponential(),
        });
    }

    /// Applies mean-1 log-normal jitter with the given σ to every new
    /// request's CPU demands, or restores the deterministic default
    /// (`None`) — the scenario `tail ... service` directive. In-flight
    /// requests keep the jitter they were issued with.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not finite and non-negative.
    pub fn set_service_tail(&mut self, sigma: Option<f64>) {
        self.service_tail = sigma.map(|s| LogNormal::with_mean(1.0, s));
    }

    /// Drifts the traffic mix: installs the transition matrix `frac` of
    /// the way from `from` to `to` on every browser, preserving their
    /// sessions. The fleet reports whichever endpoint the blend is
    /// closer to as its nominal mix.
    pub fn set_mix_blend(&mut self, from: Mix, to: Mix, frac: f64) {
        let matrix = tpcw::MixMatrix::interpolate(&from.matrix(), &to.matrix(), frac);
        let nominal = if frac < 0.5 { from } else { to };
        self.fleet.set_matrix(matrix, nominal);
    }

    /// Freezes a tier's CPU for `duration` of simulated time (scenario
    /// stall fault); in-flight and arriving work queues up and drains
    /// when the stall clears. Overlapping stalls extend the freeze.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn inject_stall(&mut self, tier: Tier, duration: SimDuration) {
        assert!(!duration.is_zero(), "stall duration must be positive");
        let vm = tier.index();
        self.stalled[vm] = true;
        self.stall_gen[vm] += 1;
        let now = self.queue.now();
        self.queue
            .schedule(now + duration, Ev::FaultClear(vm, self.stall_gen[vm]));
        self.apply_effective_cores(now);
        self.resync_cpu_ticks();
    }

    /// Whether a tier is currently stalled by an injected fault.
    pub fn is_stalled(&self, tier: Tier) -> bool {
        self.stalled[tier.index()]
    }

    fn on_fault_clear(&mut self, now: SimTime, vm: usize, gen: u64) {
        if gen == self.stall_gen[vm] {
            self.events[kind::FAULT_CLEAR] += 1;
            self.stalled[vm] = false;
            self.apply_effective_cores(now);
        } else {
            self.events[kind::FAULT_CLEAR_STALE] += 1;
        }
    }

    /// Applies each tier's current cores to its CPU, respecting active
    /// stall faults — the single place core capacity is written, so the
    /// per-second maintenance cannot silently lift a stall.
    fn apply_effective_cores(&mut self, now: SimTime) {
        for vm in [WEB, APPDB] {
            let cores = if self.stalled[vm] {
                STALLED_CORES
            } else {
                self.cores[vm]
            };
            self.cpus[vm].set_cores(now, cores);
        }
    }

    /// Runs the simulation for `interval` of simulated time and returns
    /// the application-level performance observed during it.
    ///
    /// Events come from two sources: the event queue, and the tiers'
    /// pending CPU ticks. Every step dispatches whichever has the
    /// smallest `(time, seq)` key, so the interleaving is the one a
    /// single queue holding both would pop.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn run_interval(&mut self, interval: SimDuration) -> PerfSample {
        assert!(!interval.is_zero(), "interval must be positive");
        if !self.started {
            self.bootstrap();
        }
        let horizon = self.queue.now() + interval;
        loop {
            let tick = self.ticks.last().filter(|t| t.0 < horizon).copied();
            let (bound, seq) = tick.map_or((horizon, 0), |(at, seq, _)| (at, seq));
            if let Some((now, ev)) = self.queue.pop_below(bound, seq) {
                self.dispatch(now, ev);
            } else if let Some((now, seq, vm)) = tick {
                self.ticks.pop();
                self.queue.advance_to(now);
                self.on_cpu_tick(vm, (now, seq));
            } else {
                break;
            }
            self.resync_cpu_ticks();
        }
        let sample = PerfSample::from_parts(
            std::mem::take(&mut self.response_ms),
            std::mem::take(&mut self.refused),
            interval.as_secs_f64(),
        );
        if obs::enabled() {
            let m = SimMetrics::get();
            m.intervals.inc();
            m.completed.add(sample.completed);
            m.refused.add(sample.refused);
            m.response_ms.record_ms(sample.mean_response_ms);
            for (k, counter) in m.events.iter().enumerate() {
                counter.add(self.events[k] - self.events_folded[k]);
            }
            self.events_folded = self.events;
        }
        sample
    }

    fn bootstrap(&mut self) {
        self.started = true;
        let think = Exponential::with_mean(tpcw::MEAN_THINK_TIME_SECS);
        for b in 0..self.fleet.len() {
            let offset = SimDuration::from_secs_f64(think.sample(&mut self.rng));
            self.queue.schedule(SimTime::ZERO + offset, Ev::Issue(b));
        }
        self.queue.schedule(SimTime::from_secs(1), Ev::Maintain);
        self.queue
            .schedule(SimTime::from_secs(10), Ev::SessionSweep);
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Issue(b) => {
                self.events[kind::ISSUE] += 1;
                self.on_issue(now, b);
            }
            Ev::Retry(id) => {
                self.events[kind::RETRY] += 1;
                self.admit(now, id);
            }
            Ev::WebSwap(id) => {
                self.events[kind::WEB_SWAP] += 1;
                self.push_web_work(now, id);
            }
            Ev::AppSwap(id) => {
                self.events[kind::APP_SWAP] += 1;
                self.push_app_first_work(now, id);
            }
            Ev::DiskDone(id) => {
                self.events[kind::DISK_DONE] += 1;
                self.on_disk_done(now, id);
            }
            Ev::KeepaliveExpire(b, gen) => self.on_keepalive_expire(b, gen),
            Ev::Maintain => {
                self.events[kind::MAINTAIN] += 1;
                self.on_maintain(now);
            }
            Ev::SessionSweep => {
                self.events[kind::SESSION_SWEEP] += 1;
                self.on_session_sweep(now);
            }
            Ev::FaultClear(vm, gen) => self.on_fault_clear(now, vm, gen),
        }
    }

    // ----- processor-sharing plumbing ---------------------------------

    /// Gives each busy tier a tick at its next completion unless one is
    /// already pending for that instant. The tick takes the queue's next
    /// sequence number, exactly where scheduling it there would have.
    fn resync_cpu_ticks(&mut self) {
        let now = self.queue.now();
        for vm in [WEB, APPDB] {
            let eta = self.cpus[vm].next_completion(now);
            match (eta, self.live_tick[vm]) {
                (None, _) => self.live_tick[vm] = None,
                (Some(e), Some((t, _))) if t == e => {}
                (Some(e), _) => {
                    let seq = self.queue.reserve_seq();
                    self.live_tick[vm] = Some((e, seq));
                    // `seq` is the largest yet, so the new tick goes
                    // before every pending one that is not later.
                    let pos = self.ticks.partition_point(|&(at, _, _)| at > e);
                    self.ticks.insert(pos, (e, seq, vm));
                }
            }
        }
    }

    fn on_cpu_tick(&mut self, vm: usize, tick: (SimTime, u64)) {
        if self.live_tick[vm] != Some(tick) {
            // Superseded by a later arrival/departure.
            self.events[kind::CPU_TICK_SUPERSEDED] += 1;
            return;
        }
        self.events[kind::CPU_TICK] += 1;
        self.live_tick[vm] = None;
        let now = tick.0;
        let mut done = std::mem::take(&mut self.cpu_done);
        self.cpus[vm].pop_ready(now, &mut done);
        for &(id, phase) in &done {
            match phase {
                PHASE_WEB => self.on_web_done(now, id),
                PHASE_APP_FIRST => self.on_app_first_done(now, id),
                PHASE_DB => self.on_db_cpu_done(now, id),
                PHASE_APP_SECOND => self.on_app_second_done(now, id),
                other => unreachable!("unknown phase {other}"),
            }
        }
        self.cpu_done = done;
    }

    // ----- request lifecycle ------------------------------------------

    fn on_issue(&mut self, now: SimTime, browser: usize) {
        if browser >= self.fleet.len() {
            return; // browser removed by a workload change
        }
        let request = self.fleet.browser_mut(browser).next_request(&mut self.rng);
        let jitter = match &self.service_tail {
            Some(dist) => dist.sample(&mut self.rng),
            None => 1.0,
        };
        let id = self.alloc_request(ReqState {
            browser,
            issued_at: now,
            demand: request.interaction.demand(),
            session: request.session,
            new_session: request.new_session,
            reused_connection: false,
            jitter,
        });
        self.admit(now, id);
    }

    fn admit(&mut self, now: SimTime, id: ReqId) {
        let (browser, new_session) = {
            let req = self.req(id);
            (req.browser, req.new_session)
        };
        if new_session {
            // A fresh session opens a new TCP connection; any stale hold
            // for this browser's old connection is closed.
            if self.take_hold(browser) {
                self.apache.unhold_to_idle();
            }
        } else if self.take_hold(browser) {
            self.apache.unhold_to_busy();
            self.req_mut(id).reused_connection = true;
            self.start_web(now, id);
            return;
        }
        if self.apache.try_acquire() {
            self.start_web(now, id);
        } else if self.accept_queue.len() < MODEL.accept_backlog as usize {
            self.accept_queue.push_back(id);
        } else {
            self.refused += 1;
            let backoff = SimDuration::from_secs_f64(MODEL.retry_backoff_secs);
            self.queue.schedule(now + backoff, Ev::Retry(id));
        }
    }

    fn start_web(&mut self, now: SimTime, id: ReqId) {
        let swap_ms = self.web_swap_ms();
        if swap_ms >= 0.5 {
            let wait = SimDuration::from_millis_f64(swap_ms);
            self.queue.schedule(now + wait, Ev::WebSwap(id));
        } else {
            self.push_web_work(now, id);
        }
    }

    fn push_web_work(&mut self, now: SimTime, id: ReqId) {
        let (demand, reused, jitter) = {
            let req = self.req(id);
            (req.demand, req.reused_connection, req.jitter)
        };
        let mut cpu_us = demand.web_cpu_us as f64 * MODEL.demand_scale;
        if !reused {
            cpu_us += MODEL.connection_setup_us as f64;
        }
        self.cpus[WEB].push(now, cpu_us * self.latency_factor * jitter, (id, PHASE_WEB));
    }

    fn on_web_done(&mut self, now: SimTime, id: ReqId) {
        if self.req(id).demand.app_cpu_us == 0 {
            self.respond(now, id);
        } else if self.tomcat.try_acquire() {
            self.start_app_first(now, id);
        } else {
            self.app_queue.push_back(id);
        }
    }

    fn start_app_first(&mut self, now: SimTime, id: ReqId) {
        // The page-in cost of a pressured working set is charged once per
        // request, on entry to the app tier.
        let swap_ms = self.appdb_swap_ms();
        if swap_ms >= 0.5 {
            let wait = SimDuration::from_millis_f64(swap_ms);
            self.queue.schedule(now + wait, Ev::AppSwap(id));
        } else {
            self.push_app_first_work(now, id);
        }
    }

    fn push_app_first_work(&mut self, now: SimTime, id: ReqId) {
        let (demand, session, jitter) = {
            let req = self.req(id);
            (req.demand, req.session, req.jitter)
        };
        let mut cpu_us = demand.app_cpu_us as f64 / 2.0 * MODEL.demand_scale;
        if demand.uses_session {
            if !self.sessions.contains_key(&session) {
                cpu_us += MODEL.session_create_cpu_us as f64;
            }
            self.sessions.insert(session, now);
        }
        self.cpus[APPDB].push(
            now,
            (cpu_us * self.latency_factor * jitter).max(1.0),
            (id, PHASE_APP_FIRST),
        );
    }

    fn on_app_first_done(&mut self, now: SimTime, id: ReqId) {
        if self.req(id).demand.db_cpu_us == 0 {
            self.start_app_second(now, id);
        } else if self.db_busy < MODEL.db_connections {
            self.db_busy += 1;
            self.start_db(now, id);
        } else {
            self.db_queue.push_back(id);
        }
    }

    fn start_db(&mut self, now: SimTime, id: ReqId) {
        let (demand, jitter) = {
            let req = self.req(id);
            (req.demand, req.jitter)
        };
        let cpu_us = demand.db_cpu_us as f64 * MODEL.demand_scale;
        self.cpus[APPDB].push(
            now,
            (cpu_us * self.latency_factor * jitter).max(1.0),
            (id, PHASE_DB),
        );
    }

    /// Database CPU finished: pay for buffer-pool misses with disk I/O.
    fn on_db_cpu_done(&mut self, now: SimTime, id: ReqId) {
        let queries = self.req(id).demand.db_queries as f64;
        let disk_ms =
            queries * MODEL.accesses_per_query * self.db_miss_rate() * MODEL.disk_access_ms;
        if disk_ms < 0.05 {
            self.finish_db(now, id);
        } else if let Some(eta) = self.disk.submit(now, disk_ms, id) {
            self.queue.schedule(eta, Ev::DiskDone(id));
        }
    }

    fn on_disk_done(&mut self, now: SimTime, id: ReqId) {
        let (done, next) = self.disk.finish(now);
        debug_assert_eq!(done, id, "disk completions are FIFO");
        if let Some((token, eta)) = next {
            self.queue.schedule(eta, Ev::DiskDone(token));
        }
        self.finish_db(now, id);
    }

    /// Releases the DB connection and moves the request to the second
    /// app-tier phase.
    fn finish_db(&mut self, now: SimTime, id: ReqId) {
        self.db_busy -= 1;
        if let Some(next) = self.db_queue.pop_front() {
            self.db_busy += 1;
            self.start_db(now, next);
        }
        self.start_app_second(now, id);
    }

    fn start_app_second(&mut self, now: SimTime, id: ReqId) {
        let (demand, jitter) = {
            let req = self.req(id);
            (req.demand, req.jitter)
        };
        let cpu_us = demand.app_cpu_us as f64 / 2.0 * MODEL.demand_scale;
        self.cpus[APPDB].push(
            now,
            (cpu_us * self.latency_factor * jitter).max(1.0),
            (id, PHASE_APP_SECOND),
        );
    }

    fn on_app_second_done(&mut self, now: SimTime, id: ReqId) {
        self.tomcat.release();
        if let Some(next) = self.app_queue.pop_front() {
            let acquired = self.tomcat.try_acquire();
            debug_assert!(acquired, "a thread was just released");
            self.start_app_first(now, next);
        }
        self.respond(now, id);
    }

    fn respond(&mut self, now: SimTime, id: ReqId) {
        let req = self.requests[id]
            .take()
            .expect("responding to live request");
        self.free_ids.push(id);
        self.response_ms
            .push(now.saturating_since(req.issued_at).as_millis_f64());

        let browser_alive = req.browser < self.fleet.len();
        let keepalive = self.config.keepalive_timeout_secs();
        let persists = self.rng.chance(MODEL.keepalive_persist_p);
        if browser_alive && keepalive > 0 && persists {
            self.apache.hold();
            self.hold_gen += 1;
            if self.holds[req.browser] == 0 {
                self.live_holds += 1;
            }
            self.holds[req.browser] = self.hold_gen;
            self.queue.schedule(
                now + SimDuration::from_secs(keepalive as u64),
                Ev::KeepaliveExpire(req.browser, self.hold_gen),
            );
        } else {
            self.apache.release();
            self.serve_accept_queue();
        }
        if browser_alive {
            let think = self
                .fleet
                .browser_mut(req.browser)
                .think_time(&mut self.rng);
            self.queue.schedule(now + think, Ev::Issue(req.browser));
        }
    }

    fn on_keepalive_expire(&mut self, browser: usize, gen: u64) {
        if self.holds[browser] == gen {
            self.events[kind::KEEPALIVE_EXPIRE] += 1;
            self.take_hold(browser);
            self.apache.unhold_to_idle();
            self.serve_accept_queue();
        } else {
            self.events[kind::KEEPALIVE_STALE] += 1;
        }
    }

    /// Drops browser `b`'s keep-alive hold; `false` if it had none.
    fn take_hold(&mut self, b: usize) -> bool {
        let held = self.holds[b] != 0;
        if held {
            self.holds[b] = 0;
            self.live_holds -= 1;
        }
        held
    }

    fn serve_accept_queue(&mut self) {
        let now = self.queue.now();
        while !self.accept_queue.is_empty() && self.apache.try_acquire() {
            let id = self.accept_queue.pop_front().expect("non-empty");
            self.req_mut(id).reused_connection = false;
            self.start_web(now, id);
        }
    }

    // ----- periodic housekeeping --------------------------------------

    fn on_maintain(&mut self, now: SimTime) {
        let am = self.apache.maintain(self.accept_queue.len() as u32);
        let web_churn = am.spawned as f64 * MODEL.fork_cpu_us as f64 / 1e6;
        self.cpus[WEB].set_extra_load(now, web_churn);
        let tm = self.tomcat.maintain(self.app_queue.len() as u32);
        let appdb_churn = tm.spawned as f64 * MODEL.thread_create_cpu_us as f64 / 1e6;
        self.cpus[APPDB].set_extra_load(now, appdb_churn);

        self.serve_accept_queue();
        while !self.app_queue.is_empty() && self.tomcat.try_acquire() {
            let id = self.app_queue.pop_front().expect("non-empty");
            self.start_app_first(now, id);
        }

        // The host's eight cores cover both VMs' vCPUs, so no tier waits
        // for another: each runs on its load, up to its vCPUs.
        for (vm, spec) in [(WEB, WEB_VM), (APPDB, self.appdb_vm)] {
            let vcpus = f64::from(spec.vcpus());
            self.cores[vm] = self.cpus[vm].load().min(vcpus).max(MIN_CORES);
        }
        self.apply_effective_cores(now);

        self.queue
            .schedule(now + SimDuration::from_secs(1), Ev::Maintain);
    }

    fn on_session_sweep(&mut self, now: SimTime) {
        let timeout = SimDuration::from_secs(self.config.session_timeout_mins() as u64 * 60);
        self.sessions
            .retain(|_, last| now.saturating_since(*last) <= timeout);
        self.queue
            .schedule(now + SimDuration::from_secs(10), Ev::SessionSweep);
    }

    // ----- performance model ------------------------------------------

    /// Additive page-in latency on the web VM (ms), from worker memory.
    fn web_swap_ms(&self) -> f64 {
        let mem = MODEL.apache_base_mb + self.apache.size() as f64 * MODEL.per_worker_mb;
        let slowdown = MemoryModel::default().slowdown(mem, WEB_VM.memory_mb() as f64);
        (slowdown - 1.0) * MODEL.swap_unit_ms
    }

    /// Guest memory consumed on the app/db VM (MiB), excluding the page
    /// cache.
    fn appdb_used_mb(&self) -> f64 {
        MODEL.appdb_base_mb
            + self.tomcat.size() as f64 * MODEL.per_thread_mb
            + self.sessions.len() as f64 * MODEL.per_session_mb
            + self.db_busy as f64 * MODEL.per_db_conn_mb
    }

    /// Additive page-in latency on the app/db VM (ms), from threads,
    /// sessions and DB connections.
    fn appdb_swap_ms(&self) -> f64 {
        let mem = self.appdb_used_mb();
        let slowdown = MemoryModel::default().slowdown(mem, self.appdb_vm.memory_mb() as f64);
        (slowdown - 1.0) * MODEL.swap_unit_ms
    }

    /// Fraction of database page accesses that miss the page cache.
    ///
    /// Whatever guest memory threads/sessions/connections do not consume
    /// serves as page cache for the database's working set — the channel
    /// through which the VM's memory level (and the session-timeout and
    /// pool-size parameters) shapes database latency.
    fn db_miss_rate(&self) -> f64 {
        let alloc = self.appdb_vm.memory_mb() as f64;
        let cache = (alloc - self.appdb_used_mb()).max(MODEL.min_cache_mb);
        (1.0 - cache / MODEL.db_working_set_mb).clamp(MODEL.min_miss_rate, 1.0)
    }

    // ----- slab helpers ------------------------------------------------

    fn alloc_request(&mut self, state: ReqState) -> ReqId {
        if let Some(id) = self.free_ids.pop() {
            self.requests[id] = Some(state);
            id
        } else {
            self.requests.push(Some(state));
            self.requests.len() - 1
        }
    }

    fn req(&self, id: ReqId) -> &ReqState {
        self.requests[id].as_ref().expect("live request")
    }

    fn req_mut(&mut self, id: ReqId) -> &mut ReqState {
        self.requests[id].as_mut().expect("live request")
    }

    /// Number of requests currently in flight (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.requests.iter().filter(|r| r.is_some()).count()
    }

    /// Number of live HTTP sessions (diagnostics).
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }
}

/// Convenience: measure a configuration on a fresh system after a warm-up
/// interval. Used by offline training-data collection, the trial-and-error
/// baseline's probes, and the figure harness.
///
/// Runs `warmup` (discarded) then `measure` and returns the second
/// sample.
///
/// # Example
///
/// ```
/// use simkernel::SimDuration;
/// use websim::{measure_config, ServerConfig, SystemSpec};
///
/// let spec = SystemSpec::default().with_clients(50);
/// let s = measure_config(&spec, ServerConfig::default(),
///                        SimDuration::from_secs(60), SimDuration::from_secs(120));
/// assert!(s.is_measurable());
/// ```
pub fn measure_config(
    spec: &SystemSpec,
    config: ServerConfig,
    warmup: SimDuration,
    measure: SimDuration,
) -> PerfSample {
    let mut sys = ThreeTierSystem::new(spec.clone());
    sys.set_config(config);
    if !warmup.is_zero() {
        let _ = sys.run_interval(warmup);
    }
    sys.run_interval(measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Param;

    fn small_spec() -> SystemSpec {
        SystemSpec::default().with_clients(80).with_seed(7)
    }

    fn run_secs(sys: &mut ThreeTierSystem, secs: u64) -> PerfSample {
        sys.run_interval(SimDuration::from_secs(secs))
    }

    #[test]
    fn system_completes_requests() {
        let mut sys = ThreeTierSystem::new(small_spec());
        let s = run_secs(&mut sys, 120);
        assert!(s.is_measurable(), "no requests completed: {s}");
        assert!(s.mean_response_ms > 0.0);
        assert!(s.throughput_rps > 1.0, "throughput {s}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ThreeTierSystem::new(small_spec());
        let mut b = ThreeTierSystem::new(small_spec());
        let sa = run_secs(&mut a, 60);
        let sb = run_secs(&mut b, 60);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ThreeTierSystem::new(small_spec().with_seed(1));
        let mut b = ThreeTierSystem::new(small_spec().with_seed(2));
        assert_ne!(run_secs(&mut a, 60), run_secs(&mut b, 60));
    }

    #[test]
    fn state_persists_across_intervals() {
        let mut sys = ThreeTierSystem::new(small_spec());
        let s1 = run_secs(&mut sys, 60);
        let s2 = run_secs(&mut sys, 60);
        assert!(s1.is_measurable() && s2.is_measurable());
        // Pools warmed up; sessions accumulated.
        assert!(sys.live_sessions() > 0);
    }

    #[test]
    fn closed_loop_bounds_in_flight() {
        let mut sys = ThreeTierSystem::new(small_spec());
        run_secs(&mut sys, 120);
        assert!(sys.in_flight() <= sys.clients());
    }

    #[test]
    fn intensity_scales_relative_to_base_population() {
        let mut sys = ThreeTierSystem::new(small_spec());
        run_secs(&mut sys, 30);
        sys.set_intensity(2.5);
        assert_eq!(sys.clients(), 200);
        // Scaling is relative to the base (80), not the current fleet.
        sys.set_intensity(0.5);
        assert_eq!(sys.clients(), 40);
        sys.set_intensity(0.001);
        assert_eq!(sys.clients(), 1, "population never drops to zero");
        let s = run_secs(&mut sys, 60);
        assert!(s.is_measurable());
    }

    #[test]
    fn latency_noise_degrades_and_restores() {
        let run = |factor: f64| {
            let mut sys = ThreeTierSystem::new(small_spec());
            run_secs(&mut sys, 60);
            sys.set_latency_factor(factor);
            let noisy = run_secs(&mut sys, 120);
            sys.set_latency_factor(1.0);
            run_secs(&mut sys, 60);
            let restored = run_secs(&mut sys, 120);
            (noisy, restored)
        };
        let (clean, clean_tail) = run(1.0);
        let (noisy, noisy_tail) = run(2.0);
        assert!(
            noisy.mean_response_ms > 1.5 * clean.mean_response_ms,
            "noise must slow responses: clean {clean} noisy {noisy}"
        );
        // After restoring the factor the system converges back.
        assert!(
            noisy_tail.mean_response_ms < 1.5 * clean_tail.mean_response_ms,
            "restore: clean {clean_tail} noisy {noisy_tail}"
        );
    }

    #[test]
    fn unit_latency_factor_is_bit_identical_to_default() {
        let mut plain = ThreeTierSystem::new(small_spec());
        let mut touched = ThreeTierSystem::new(small_spec());
        touched.set_latency_factor(1.0);
        assert_eq!(run_secs(&mut plain, 120), run_secs(&mut touched, 120));
    }

    #[test]
    fn tails_off_is_bit_identical_to_default() {
        // Explicitly resetting both tails to their defaults must not
        // perturb the RNG stream or the arithmetic: `None` means zero
        // extra draws and a literal `* 1.0`.
        let mut plain = ThreeTierSystem::new(small_spec());
        let mut touched = ThreeTierSystem::new(small_spec());
        touched.set_think_tail(None);
        touched.set_service_tail(None);
        assert_eq!(run_secs(&mut plain, 120), run_secs(&mut touched, 120));
    }

    #[test]
    fn service_tail_changes_output_and_restores() {
        let mut plain = ThreeTierSystem::new(small_spec());
        let baseline = run_secs(&mut plain, 300);

        let mut tailed = ThreeTierSystem::new(small_spec());
        tailed.set_service_tail(Some(1.2));
        let heavy = run_secs(&mut tailed, 300);
        assert_ne!(baseline, heavy, "a heavy service tail must be visible");

        // Switching the tail back off restores the unit-jitter regime;
        // the RNG stream has diverged, so only sanity is checked.
        tailed.set_service_tail(None);
        let calmed = run_secs(&mut tailed, 300);
        assert!(calmed.is_measurable());
    }

    #[test]
    fn think_tail_changes_output() {
        let mut plain = ThreeTierSystem::new(small_spec());
        let baseline = run_secs(&mut plain, 300);

        let mut tailed = ThreeTierSystem::new(small_spec());
        tailed.set_think_tail(Some(1.0));
        let heavy = run_secs(&mut tailed, 300);
        assert_ne!(baseline, heavy, "a heavy think tail must be visible");
    }

    #[test]
    fn stall_freezes_then_recovers() {
        let mut sys = ThreeTierSystem::new(small_spec());
        run_secs(&mut sys, 60);
        sys.inject_stall(Tier::AppDb, SimDuration::from_secs(30));
        assert!(sys.is_stalled(Tier::AppDb));
        assert!(!sys.is_stalled(Tier::Web));
        let stalled = run_secs(&mut sys, 60);
        // Requests pile up behind the frozen tier: the interval's mean
        // response time reflects the 30 s freeze.
        let mut clean = ThreeTierSystem::new(small_spec());
        run_secs(&mut clean, 60);
        let clean_s = run_secs(&mut clean, 60);
        assert!(
            stalled.mean_response_ms > 3.0 * clean_s.mean_response_ms,
            "stall must hurt: clean {clean_s} stalled {stalled}"
        );
        assert!(!sys.is_stalled(Tier::AppDb), "stall self-clears");
        run_secs(&mut sys, 120);
        let recovered = run_secs(&mut sys, 120);
        assert!(
            recovered.mean_response_ms < 3.0 * clean_s.mean_response_ms,
            "post-stall recovery: clean {clean_s} recovered {recovered}"
        );
    }

    #[test]
    fn overlapping_stalls_extend_the_freeze() {
        let mut sys = ThreeTierSystem::new(small_spec());
        run_secs(&mut sys, 30);
        sys.inject_stall(Tier::Web, SimDuration::from_secs(40));
        // A second stall injected immediately supersedes the first
        // clear event; the tier stays frozen for the full 90 s.
        sys.inject_stall(Tier::Web, SimDuration::from_secs(90));
        run_secs(&mut sys, 60);
        assert!(sys.is_stalled(Tier::Web), "first clear must be stale");
        run_secs(&mut sys, 60);
        assert!(!sys.is_stalled(Tier::Web));
    }

    #[test]
    fn mix_blend_shifts_order_fraction() {
        let order_rate = |blend: Option<f64>| {
            let mut sys = ThreeTierSystem::new(small_spec());
            run_secs(&mut sys, 60);
            if let Some(frac) = blend {
                sys.set_mix_blend(Mix::Shopping, Mix::Ordering, frac);
            }
            // Sessions survive the blend; run long enough to see the
            // behavioural shift in aggregate throughput of order pages.
            run_secs(&mut sys, 600);
            sys.live_sessions()
        };
        // A full blend to Ordering creates session-heavier traffic than
        // pure shopping (ordering flows all use sessions).
        let shopping = order_rate(None);
        let ordering = order_rate(Some(1.0));
        assert!(
            ordering > shopping,
            "ordering-blend sessions {ordering} <= shopping {shopping}"
        );
        // Nominal mix follows the nearest endpoint.
        let mut sys = ThreeTierSystem::new(small_spec());
        sys.set_mix_blend(Mix::Shopping, Mix::Ordering, 0.25);
        assert_eq!(sys.mix(), Mix::Shopping);
        sys.set_mix_blend(Mix::Shopping, Mix::Ordering, 0.75);
        assert_eq!(sys.mix(), Mix::Ordering);
    }

    #[test]
    fn throughput_tracks_client_population() {
        let mut small = ThreeTierSystem::new(SystemSpec::default().with_clients(40).with_seed(3));
        let mut large = ThreeTierSystem::new(SystemSpec::default().with_clients(160).with_seed(3));
        let ss = run_secs(&mut small, 180);
        let sl = run_secs(&mut large, 180);
        assert!(
            sl.throughput_rps > 2.0 * ss.throughput_rps,
            "small {ss} large {sl}"
        );
    }

    #[test]
    fn weaker_vm_is_slower() {
        let spec = SystemSpec::default().with_seed(5);
        let strong = measure_config(
            &spec.clone().with_level(ResourceLevel::Level1),
            ServerConfig::default(),
            SimDuration::from_secs(600),
            SimDuration::from_secs(300),
        );
        let weak = measure_config(
            &spec.with_level(ResourceLevel::Level3),
            ServerConfig::default(),
            SimDuration::from_secs(600),
            SimDuration::from_secs(300),
        );
        assert!(
            weak.mean_response_ms > strong.mean_response_ms,
            "strong {strong} weak {weak}"
        );
    }

    #[test]
    fn tiny_max_clients_hurts() {
        let spec = SystemSpec::default().with_clients(200).with_seed(9);
        let choked = measure_config(
            &spec,
            ServerConfig::default().with(Param::MaxClients, 5).unwrap(),
            SimDuration::from_secs(120),
            SimDuration::from_secs(180),
        );
        let sane = measure_config(
            &spec,
            ServerConfig::default()
                .with(Param::MaxClients, 300)
                .unwrap(),
            SimDuration::from_secs(120),
            SimDuration::from_secs(180),
        );
        assert!(
            choked.mean_response_ms > 2.0 * sane.mean_response_ms,
            "choked {choked} sane {sane}"
        );
    }

    #[test]
    fn reconfiguration_applies_at_runtime() {
        let mut sys = ThreeTierSystem::new(small_spec());
        run_secs(&mut sys, 60);
        let new_cfg = ServerConfig::default()
            .with(Param::MaxClients, 300)
            .unwrap();
        sys.set_config(new_cfg);
        assert_eq!(sys.config().max_clients(), 300);
        let s = run_secs(&mut sys, 60);
        assert!(s.is_measurable());
    }

    #[test]
    fn workload_change_applies() {
        let mut sys = ThreeTierSystem::new(small_spec());
        run_secs(&mut sys, 60);
        sys.set_workload(160, Mix::Ordering);
        assert_eq!(sys.clients(), 160);
        assert_eq!(sys.mix(), Mix::Ordering);
        let s = run_secs(&mut sys, 120);
        assert!(s.is_measurable());
        // Shrink, too.
        sys.set_workload(20, Mix::Ordering);
        let s2 = run_secs(&mut sys, 120);
        assert!(s2.is_measurable());
        assert!(s2.throughput_rps < s.throughput_rps);
    }

    #[test]
    fn resource_level_change_applies() {
        let mut sys = ThreeTierSystem::new(small_spec());
        run_secs(&mut sys, 30);
        sys.set_resource_level(ResourceLevel::Level3);
        assert_eq!(sys.resource_level(), ResourceLevel::Level3);
        assert!(run_secs(&mut sys, 60).is_measurable());
    }

    /// The host's eight cores always cover both VMs' vCPUs, so at each
    /// maintenance tick a tier's cores become its own runnable load, at
    /// least `MIN_CORES` and at most its vCPUs. A level change gives the
    /// app/db tier all of its new vCPUs until the next tick.
    #[test]
    fn maintenance_clamps_each_tiers_cores_to_its_load() {
        let mut sys = ThreeTierSystem::new(SystemSpec::default().with_seed(11));
        assert_eq!(sys.cores, [2.0, 4.0], "a new system runs on every vCPU");
        let (mut idle, mut partial, mut full) = (0, 0, 0);
        for _ in 0..300 {
            sys.run_interval(SimDuration::from_millis(370));
            let now = sys.queue.now();
            sys.on_maintain(now);
            for (vm, vcpus) in [(WEB, 2.0), (APPDB, 4.0)] {
                let load = sys.cpus[vm].load();
                let cores = sys.cores[vm];
                assert_eq!(cores.to_bits(), load.min(vcpus).max(0.25).to_bits());
                if load == 0.0 {
                    assert_eq!(cores, 0.25, "an idle tier keeps a quarter core");
                    idle += 1;
                } else if load >= vcpus {
                    assert_eq!(cores, vcpus);
                    full += 1;
                } else if load > 0.25 {
                    assert_eq!(cores, load);
                    partial += 1;
                }
            }
        }
        assert!(
            idle > 0 && partial > 0 && full > 0,
            "idle {idle}, partial {partial}, full {full} ticks"
        );
        let web = sys.cores[WEB];
        sys.set_resource_level(ResourceLevel::Level3);
        assert_eq!(sys.cores, [web, 2.0]);
        let now = sys.queue.now();
        sys.on_maintain(now);
        let load = sys.cpus[APPDB].load();
        assert_eq!(sys.cores[APPDB], load.clamp(0.25, 2.0));
    }

    #[test]
    fn sessions_expire_with_short_timeout() {
        let mut sys = ThreeTierSystem::new(small_spec());
        sys.set_config(
            ServerConfig::default()
                .with(Param::SessionTimeout, 1)
                .unwrap(),
        );
        run_secs(&mut sys, 300);
        let short = sys.live_sessions();
        let mut sys2 = ThreeTierSystem::new(small_spec());
        sys2.set_config(
            ServerConfig::default()
                .with(Param::SessionTimeout, 35)
                .unwrap(),
        );
        run_secs(&mut sys2, 300);
        let long = sys2.live_sessions();
        assert!(long > short, "short timeout {short} vs long timeout {long}");
    }

    #[test]
    fn zero_interval_panics() {
        let mut sys = ThreeTierSystem::new(small_spec());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.run_interval(SimDuration::ZERO)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn measure_config_helper_runs() {
        let s = measure_config(
            &SystemSpec::default().with_clients(30),
            ServerConfig::default(),
            SimDuration::from_secs(30),
            SimDuration::from_secs(60),
        );
        assert!(s.is_measurable());
    }

    /// One fixed schedule through every path the standard sampling never
    /// takes: memory pressure on both tiers (swap waits), a backlog and
    /// `MaxClients` small enough to refuse (retries), overlapping stalls,
    /// service and think tails, a fleet that grows, shrinks and grows
    /// again, a mix blend, a resource-level change and reconfigurations
    /// while keep-alive holds are live.
    ///
    /// It runs on the standard testbed, so load alone must cross each
    /// threshold. The web VM swaps above 385 Apache workers (150 MB plus
    /// 3 MB each, past 85% of 1,536 MB). The Level-3 app/db VM swaps once
    /// its 1,100 MB base plus threads, sessions and DB connections pass
    /// 1,740.8 MB (85% of 2,048 MB). A request is refused once 511
    /// connections already wait for one of `MaxClients` workers. Hundreds
    /// of browsers at Level-3 do all three.
    fn pinned_schedule() -> (ThreeTierSystem, Vec<PerfSample>) {
        let spec = SystemSpec::default()
            .with_clients(700)
            .with_seed(23)
            .with_level(ResourceLevel::Level3);
        let mut sys = ThreeTierSystem::new(spec);
        let cfg = |p: Param, v: u32| ServerConfig::default().with(p, v).unwrap();
        let mut samples = Vec::new();
        let mut run = |sys: &mut ThreeTierSystem| samples.push(run_secs(sys, 30));
        run(&mut sys);
        sys.set_config(cfg(Param::MaxClients, 5));
        run(&mut sys);
        sys.inject_stall(Tier::AppDb, SimDuration::from_secs(5));
        sys.inject_stall(Tier::AppDb, SimDuration::from_secs(8));
        sys.inject_stall(Tier::Web, SimDuration::from_secs(3));
        run(&mut sys);
        sys.set_config(
            cfg(Param::MaxClients, 600)
                .with(Param::MaxThreads, 600)
                .unwrap(),
        );
        sys.set_service_tail(Some(0.8));
        sys.set_think_tail(Some(1.0));
        run(&mut sys);
        sys.set_workload(900, Mix::Shopping);
        run(&mut sys);
        sys.set_workload(300, Mix::Shopping);
        run(&mut sys);
        sys.set_mix_blend(Mix::Shopping, Mix::Ordering, 0.4);
        run(&mut sys);
        sys.set_resource_level(ResourceLevel::Level1);
        sys.set_config(cfg(Param::KeepaliveTimeout, 21));
        run(&mut sys);
        sys.set_workload(800, Mix::Ordering);
        run(&mut sys);
        sys.set_service_tail(None);
        sys.set_think_tail(None);
        run(&mut sys);
        (sys, samples)
    }

    /// `(mean, p95, throughput)` bits, completions and refusals of each
    /// of [`pinned_schedule`]'s intervals. Any change to event order,
    /// tick timing or float rounding moves them.
    const PINNED: [(u64, u64, u64, u64, u64); 10] = [
        (
            0x40a68bbaaba31e1f,
            0x40b3f7ced916872b,
            0x404ef33333333333,
            1857,
            0,
        ),
        (
            0x40bd3f9e45afae24,
            0x40cd2f1a9fbe76c9,
            0x4044222222222222,
            1208,
            0,
        ),
        (
            0x40cdee8e7b5affe7,
            0x40d604189374bc6a,
            0x403f4ccccccccccd,
            939,
            66,
        ),
        (
            0x40b26efc83a6923e,
            0x40cb22d0e5604189,
            0x4053955555555555,
            2350,
            0,
        ),
        (
            0x40a89ef1568557d8,
            0x40b26e978d4fdf3b,
            0x405459999999999a,
            2442,
            0,
        ),
        (
            0x4098301fcf16afb5,
            0x40b1eb851eb851ec,
            0x4048f77777777777,
            1498,
            0,
        ),
        (
            0x407270cb5ec9a1a6,
            0x408999999999999a,
            0x40436eeeeeeeeeef,
            1166,
            0,
        ),
        (
            0x406ae2d7212ed350,
            0x408c28f5c28f5c29,
            0x4044911111111111,
            1234,
            0,
        ),
        (
            0x40a5117f510e58f0,
            0x40b999999999999a,
            0x4052133333333333,
            2169,
            0,
        ),
        (
            0x40b86ddf04376a9d,
            0x40c374bc6a7ef9db,
            0x404fbbbbbbbbbbbc,
            1904,
            0,
        ),
    ];

    #[test]
    fn pinned_schedule_keeps_its_bits_and_fires_every_event_kind() {
        let (sys, samples) = pinned_schedule();
        let got: Vec<_> = samples
            .iter()
            .map(|s| {
                (
                    s.mean_response_ms.to_bits(),
                    s.p95_response_ms.to_bits(),
                    s.throughput_rps.to_bits(),
                    s.completed,
                    s.refused,
                )
            })
            .collect();
        assert_eq!(got, PINNED);
        for (kind, count) in EVENT_KINDS.iter().zip(sys.events) {
            assert!(count > 0, "no {kind} event fired");
        }
    }
}
