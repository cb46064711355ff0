//! Discrete-event simulator of a three-tier web system (Apache-like web
//! tier, Tomcat-like application tier, MySQL-like database tier) hosted
//! on virtual machines.
//!
//! This is the *system under tuning* of the RAC reproduction — the
//! simulated stand-in for the paper's physical Apache/Tomcat/MySQL
//! testbed. It implements, mechanistically, every channel through which
//! the eight Table-1 parameters affect response time:
//!
//! | Parameter | Mechanism in the simulator |
//! |---|---|
//! | `MaxClients` | cap on Apache worker pool: trades accept-queue delay against concurrency overhead + worker memory |
//! | `KeepAliveTimeout` | held workers block capacity across client think times, but reusing a connection skips TCP setup CPU |
//! | `Min/MaxSpareServers` | prefork pool ramp speed vs. fork churn |
//! | `maxThreads` | cap on app-tier concurrency reaching the colocated DB |
//! | session timeout | live session objects consume app/db VM memory; early expiry costs session re-creation CPU |
//! | `min/maxSpareThreads` | thread pool ramp vs. churn |
//!
//! Requests come from closed-loop TPC-W emulated browsers
//! ([`tpcw::Fleet`]); CPU time stretches with VM load and memory pressure
//! ([`vmstack::Vm::service_multiplier`]).
//!
//! See [`ThreeTierSystem`] for the main entry point and
//! [`measure_config`] for one-shot measurements.
//!
//! # Example
//!
//! ```
//! use simkernel::SimDuration;
//! use websim::{Param, ServerConfig, SystemSpec, ThreeTierSystem};
//!
//! let mut sys = ThreeTierSystem::new(SystemSpec::default().with_clients(100));
//! sys.set_config(ServerConfig::default().with(Param::MaxClients, 250).unwrap());
//! let sample = sys.run_interval(SimDuration::from_secs(300));
//! println!("mean response time: {:.1} ms", sample.mean_response_ms);
//! ```

mod config;
pub mod cpu;
pub mod disk;
mod metrics;
mod model;
pub mod pool;
mod system;

pub use config::{ConfigError, Param, ServerConfig};
pub use metrics::PerfSample;
pub use model::ModelParams;
pub use system::{measure_config, SystemSpec, ThreeTierSystem, Tier, EVENT_KINDS};
