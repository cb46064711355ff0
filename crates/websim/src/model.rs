//! Calibration constants of the performance model.
//!
//! Everything that turns configuration + load into time lives here, in
//! one place, so that the model can be recalibrated without touching the
//! simulator mechanics.

/// The constants of the three-tier performance model, named.
///
/// The simulator runs one calibration, [`MODEL`]. It is code, not part
/// of [`SystemSpec`](crate::SystemSpec): a recalibration moves trained
/// policies, so it must bump `rac::TRAINING_REVISION` like any other
/// change to the trainer.
///
/// # Example
///
/// ```
/// use websim::MODEL;
///
/// assert!(MODEL.demand_scale >= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Multiplier applied to every interaction's CPU demand (calibrates
    /// absolute load for mid-2000s hardware).
    pub demand_scale: f64,
    /// Web-tier CPU (µs) for accepting a fresh TCP connection (paid when
    /// keep-alive cannot be reused).
    pub connection_setup_us: u64,
    /// Probability that a client keeps its connection open (idle) across
    /// a think time instead of closing it after the page. TPC-W's RBE
    /// mostly re-connects; real browsers mostly persist — the calibration
    /// is a mixed population. Idle-open connections are what make long
    /// `KeepAliveTimeout`s expensive.
    pub keepalive_persist_p: f64,
    /// Apache base memory footprint (MiB).
    pub apache_base_mb: f64,
    /// Memory per Apache worker process (MiB).
    pub per_worker_mb: f64,
    /// Combined Tomcat + MySQL base footprint on the app/db VM (MiB),
    /// including the default InnoDB buffer pool.
    pub appdb_base_mb: f64,
    /// Memory per Tomcat thread (MiB).
    pub per_thread_mb: f64,
    /// Memory per live HTTP session (MiB).
    pub per_session_mb: f64,
    /// Memory per open DB connection (MiB).
    pub per_db_conn_mb: f64,
    /// CPU cost (µs) of forking one Apache worker.
    pub fork_cpu_us: u64,
    /// CPU cost (µs) of creating one Tomcat thread.
    pub thread_create_cpu_us: u64,
    /// App-tier CPU (µs) to build a session object that was missing or
    /// had expired.
    pub session_create_cpu_us: u64,
    /// Additive latency (ms) per unit of memory-pressure excess: a
    /// working set 1 "slowdown unit" over the allocation adds this much
    /// page-in wait to a request phase on that VM.
    pub swap_unit_ms: f64,
    /// Average disk time (ms) of one uncached page access at queue
    /// depth 1 (seek + rotation).
    pub disk_access_ms: f64,
    /// Page accesses per database query.
    pub accesses_per_query: f64,
    /// Size of the database's hot working set (MiB); the portion that
    /// does not fit in free guest memory misses to disk.
    pub db_working_set_mb: f64,
    /// Page cache available even under extreme memory pressure (MiB).
    pub min_cache_mb: f64,
    /// Miss-rate floor (cold pages, logging) even with a fully cached
    /// working set.
    pub min_miss_rate: f64,
    /// Elevator/NCQ gain: disk speedup = 1 + gain · ln(1 + depth).
    pub disk_elevator_gain: f64,
    /// Queue depth beyond which elevator gains stop accruing.
    pub disk_max_depth: f64,
    /// Worker processes/threads a pool restarts with after a
    /// reconfiguration (Apache `StartServers`).
    pub start_servers: u32,
    /// MySQL connection-pool size (fixed: the paper keeps MySQL at its
    /// defaults).
    pub db_connections: u32,
    /// Apache accept-queue (listen backlog) length.
    pub accept_backlog: u32,
    /// Seconds a refused client waits before retrying.
    pub retry_backoff_secs: f64,
}

/// The calibration every simulation runs with. It makes the qualitative
/// shapes of the paper's Section-2 motivation hold on the simulated
/// testbed: concave response-time curves per parameter, workload-specific
/// optima, and an optimal `MaxClients` that *decreases* as the VM gets
/// stronger.
pub const MODEL: ModelParams = ModelParams {
    demand_scale: 1.5,
    connection_setup_us: 2_000,
    keepalive_persist_p: 0.25,
    apache_base_mb: 150.0,
    per_worker_mb: 3.0,
    appdb_base_mb: 1_100.0,
    per_thread_mb: 1.2,
    per_session_mb: 0.15,
    per_db_conn_mb: 4.0,
    fork_cpu_us: 25_000,
    thread_create_cpu_us: 3_000,
    session_create_cpu_us: 8_000,
    swap_unit_ms: 300.0,
    disk_access_ms: 8.0,
    accesses_per_query: 3.0,
    db_working_set_mb: 3_000.0,
    min_cache_mb: 64.0,
    min_miss_rate: 0.03,
    disk_elevator_gain: 0.5,
    disk_max_depth: 32.0,
    start_servers: 16,
    db_connections: 100,
    accept_backlog: 511,
    retry_backoff_secs: 3.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let m = MODEL;
        assert!(m.demand_scale > 0.0);
        assert!(m.per_worker_mb > 0.0);
        assert!(m.db_connections > 0);
        assert!(m.accept_backlog > 0);
        assert!(m.retry_backoff_secs > 0.0);
        // A full 600-worker Apache must overflow the 1.5 GB web VM — that
        // pressure is part of the MaxClients tradeoff.
        assert!(m.apache_base_mb + 600.0 * m.per_worker_mb > 1_536.0);
    }
}
