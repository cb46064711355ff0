//! **obs** — zero-dependency observability for the RAC stack.
//!
//! The paper's whole argument rests on *seeing* what the agent does
//! online: per-iteration response time, chosen actions, SLA violations,
//! context switches. This crate turns those transient signals into
//! durable, machine-readable artifacts without pulling in a single
//! external dependency:
//!
//! * a global metrics [`Registry`] of counters,
//!   gauges and histograms — lock-free on the increment path (handles
//!   are `Arc`-shared atomics), lock-taking only at registration and
//!   snapshot time;
//! * a structured **decision trace** ([`trace`], [`event`]): JSONL
//!   events with simulated-time stamps, serialized deterministically
//!   (stable field order, `(run, sim-time, seq)` ordering) so traces
//!   are byte-diffable across `RAC_THREADS` settings;
//! * [`Span`]s for wall-clock timing of coarse stages
//!   (figure jobs, offline training), feeding duration histograms —
//!   and, when the hierarchical [`profile`]r is enabled, a per-thread
//!   call tree exported as flamegraph folded stacks;
//! * exporters ([`export`]): Prometheus text exposition (plus a
//!   [`export::validate_prometheus`] syntax checker) and CSV;
//! * a [`process`] gauge, `process_peak_rss_bytes`, read from the
//!   operating system each time the metrics are exported;
//! * a live plane: the embedded [`ObsServer`]
//!   answering `GET /metrics`, `/healthz` (backed by the [`health`]
//!   run-state cell) and `/profile` over plain HTTP/1.0;
//! * a [`Console`] for `--quiet`-able human-readable
//!   progress output.
//!
//! # The `RAC_OBS` contract
//!
//! The environment variable `RAC_OBS` selects the observability mode,
//! read once per process:
//!
//! | value                     | meaning                                          |
//! |---------------------------|--------------------------------------------------|
//! | `off`, `0`, `false`, `none` | everything disabled; instrumented code is a no-op |
//! | unset, `metrics`, `on`    | metrics registry active, no trace events         |
//! | `trace`, `full`           | metrics **and** decision-trace events            |
//!
//! Instrumented call sites guard with [`enabled`] (metrics) or install
//! trace scopes only under [`tracing_enabled`], so `RAC_OBS=off` costs
//! one cached enum load per instrumentation point.
//!
//! Trace *emission* itself is governed by scope presence, not by the
//! env var: [`trace::emit`] writes only when a [`trace::TraceWriter`]
//! scope is installed on the current thread. Tests can therefore drive
//! the full pipeline hermetically, without touching the process
//! environment.
//!
//! # Example
//!
//! ```
//! use obs::event::Event;
//! use obs::trace::{self, TraceWriter};
//! use std::sync::Arc;
//!
//! let writer = Arc::new(TraceWriter::new());
//! trace::with_writer(&writer, || {
//!     trace::set_sim_time_us(1_000_000);
//!     trace::emit(|| Event::new("decision").field("iter", 1u64).field("rt_ms", 512.5));
//! });
//! let jsonl = writer.serialize();
//! assert!(jsonl.contains("\"kind\":\"decision\""));
//! // Byte-identical round trip:
//! let reparsed = obs::event::parse_line(jsonl.trim_end()).unwrap();
//! assert_eq!(format!("{}\n", reparsed.to_json()), jsonl);
//! ```

pub mod console;
pub mod event;
pub mod export;
pub mod health;
pub mod process;
pub mod profile;
pub mod registry;
pub mod serve;
pub mod span;
pub mod trace;

pub use console::Console;
pub use event::{Event, ParseError, Value};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use serve::ObsServer;
pub use span::Span;
pub use trace::TraceWriter;

use std::sync::OnceLock;

/// Environment variable selecting the observability mode.
pub const ENV: &str = "RAC_OBS";

/// Process-wide observability mode (see the [crate docs](crate) for the
/// `RAC_OBS` contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Everything disabled; instrumentation is a no-op.
    Off,
    /// Metrics registry active; no trace events.
    Metrics,
    /// Metrics and decision-trace events.
    Trace,
}

impl Mode {
    /// Parses a `RAC_OBS` value (unknown values fall back to
    /// [`Mode::Metrics`], the default).
    pub fn parse(value: &str) -> Mode {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "false" | "none" => Mode::Off,
            "trace" | "full" => Mode::Trace,
            _ => Mode::Metrics,
        }
    }
}

/// The process-wide mode, read from `RAC_OBS` on first use and cached.
pub fn mode() -> Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var(ENV) {
        Ok(v) => Mode::parse(&v),
        Err(_) => Mode::Metrics,
    })
}

/// `true` unless `RAC_OBS=off`: metrics instrumentation should record.
pub fn enabled() -> bool {
    mode() != Mode::Off
}

/// `true` only under `RAC_OBS=trace`: harnesses should install trace
/// scopes and write JSONL artifacts.
pub fn tracing_enabled() -> bool {
    mode() == Mode::Trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse("off"), Mode::Off);
        assert_eq!(Mode::parse("0"), Mode::Off);
        assert_eq!(Mode::parse("FALSE"), Mode::Off);
        assert_eq!(Mode::parse("none"), Mode::Off);
        assert_eq!(Mode::parse("trace"), Mode::Trace);
        assert_eq!(Mode::parse("FULL"), Mode::Trace);
        assert_eq!(Mode::parse("metrics"), Mode::Metrics);
        assert_eq!(Mode::parse("on"), Mode::Metrics);
        assert_eq!(Mode::parse("anything-else"), Mode::Metrics);
        assert_eq!(Mode::parse("  trace  "), Mode::Trace);
    }

    #[test]
    fn mode_is_cached_and_consistent() {
        // Whatever the harness env says, the three predicates agree.
        let m = mode();
        assert_eq!(enabled(), m != Mode::Off);
        assert_eq!(tracing_enabled(), m == Mode::Trace);
        assert_eq!(mode(), m, "mode must be stable across calls");
    }
}
