//! Timing wrappers around the program's public extension points. They
//! forward every call unchanged, so a traced run decides exactly what an
//! untraced one does; they only add the wall-clock each call took.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rac::{Measure, Tuner};
use websim::{PerfSample, ServerConfig};

/// A [`Measure`] that accumulates the time spent inside the wrapped
/// measurer (for `SimMeasurer`: coarse sampling through the runner).
pub struct TimedMeasure<'a, M> {
    pub inner: M,
    pub busy: &'a Cell<Duration>,
}

impl<M: Measure> Measure for TimedMeasure<'_, M> {
    fn measure(&mut self, config: &ServerConfig) -> f64 {
        let t0 = Instant::now();
        let ms = self.inner.measure(config);
        self.busy.set(self.busy.get() + t0.elapsed());
        ms
    }

    fn measure_batch(&mut self, configs: &[ServerConfig]) -> Vec<f64> {
        let t0 = Instant::now();
        let ms = self.inner.measure_batch(configs);
        self.busy.set(self.busy.get() + t0.elapsed());
        ms
    }
}

/// A [`Tuner`] that adds the nanoseconds spent deciding to a shared
/// counter (atomic, so tournament workers can share one per arm).
pub struct TimedTuner<'a> {
    pub inner: &'a mut dyn Tuner,
    pub busy_ns: &'a AtomicU64,
}

impl TimedTuner<'_> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Tuner) -> R) -> R {
        let t0 = Instant::now();
        let out = f(&mut *self.inner);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Tuner for TimedTuner<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_config(&mut self, observed: &PerfSample) -> ServerConfig {
        self.timed(|t| t.next_config(observed))
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.timed(|t| t.set_degraded(degraded))
    }
}

/// Seconds held in a nanosecond counter.
pub fn seconds(ns: &AtomicU64) -> f64 {
    ns.load(Ordering::Relaxed) as f64 * 1e-9
}
