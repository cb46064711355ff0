//! Deterministic discrete-event simulation kernel.
//!
//! `simkernel` is the foundation of the RAC reproduction: every simulated
//! subsystem (the three-tier web system, the virtual machine stack, the
//! TPC-W workload generator) is driven by the primitives in this crate.
//!
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution simulated
//!   clock with total ordering and saturating arithmetic.
//! * [`EventQueue`] — a calendar-queue future-event list with
//!   deterministic FIFO tie-breaking for events scheduled at the same
//!   instant, which makes whole-simulation runs reproducible.
//! * [`Pcg64`] — a small, fast, seedable PRNG (PCG XSH-RR variant) plus the
//!   distributions simulation code needs ([`rng::Exponential`],
//!   [`rng::LogNormal`]). Using an in-tree generator keeps results
//!   bit-for-bit stable across dependency upgrades.
//! * [`stats`] — online statistics: fixed-layout duration histograms with
//!   percentile queries, and sliding windows.
//! * [`Fnv1a`] — the byte-fed 64-bit hash behind every persisted
//!   fingerprint.
//!
//! # Example
//!
//! Simulate a tiny M/M/1 queue for one simulated minute:
//!
//! ```
//! use simkernel::{EventQueue, Pcg64, SimDuration, SimTime};
//! use simkernel::rng::Exponential;
//! use simkernel::stats::SlidingWindow;
//!
//! #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//! enum Ev { Arrival, Departure }
//!
//! let mut q = EventQueue::new();
//! let mut rng = Pcg64::seed_from_u64(7);
//! let arrivals = Exponential::new(0.01); // one arrival per 100 us on average
//! let service = Exponential::new(0.02);
//!
//! q.schedule(SimTime::ZERO, Ev::Arrival);
//! let mut in_system = 0u32;
//! // Queue lengths seen by the last 100 arrivals.
//! let mut seen = SlidingWindow::new(100);
//! while let Some((now, ev)) = q.pop_below(SimTime::from_secs(60), 0) {
//!     match ev {
//!         Ev::Arrival => {
//!             in_system += 1;
//!             seen.push(in_system as f64);
//!             q.schedule(now + SimDuration::from_micros(arrivals.sample_micros(&mut rng)), Ev::Arrival);
//!             if in_system == 1 {
//!                 q.schedule(now + SimDuration::from_micros(service.sample_micros(&mut rng)), Ev::Departure);
//!             }
//!         }
//!         Ev::Departure => {
//!             in_system -= 1;
//!             if in_system > 0 {
//!                 q.schedule(now + SimDuration::from_micros(service.sample_micros(&mut rng)), Ev::Departure);
//!             }
//!         }
//!     }
//! }
//! assert!(seen.mean().unwrap() >= 1.0);
//! ```

pub mod event;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use hash::Fnv1a;
pub use rng::Pcg64;
pub use time::{SimDuration, SimTime};
