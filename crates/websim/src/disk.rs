//! Database disk model: FCFS service with elevator-scheduling gains.
//!
//! Mid-2000s TPC-W databases were disk-bound whenever the working set
//! outgrew the buffer pool / page cache — which is precisely what varies
//! across the paper's VM levels (4/3/2 GB). Two properties of rotating
//! disks matter for the configuration trade-offs:
//!
//! 1. **Cache misses cost seeks.** The fraction of queries that touch the
//!    disk grows as guest memory is consumed by threads and sessions
//!    (see [`crate::ModelParams`]).
//! 2. **Concurrency helps.** An elevator scheduler (and NCQ) reorders
//!    outstanding requests, so effective IOPS *improve* with queue depth.
//!    This is why a memory-starved VM prefers a *larger* `MaxClients`:
//!    admitted concurrency deepens the disk queue and raises throughput,
//!    while on a cache-warm VM the same concurrency only buys CPU
//!    overhead — the mechanism behind the paper's counter-intuitive
//!    Figure 2.

use simkernel::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A single disk serving aggregated I/O requests FCFS, with service times
/// that shrink as the queue deepens (elevator/NCQ effect).
///
/// # Example
///
/// ```
/// use simkernel::SimTime;
/// use websim::disk::Disk;
///
/// let mut disk = Disk::new(0.5, 16.0);
/// // An 18 ms I/O on an idle disk takes the full 18 ms.
/// let eta = disk.submit(SimTime::ZERO, 18.0, 7).unwrap();
/// assert_eq!(eta.as_micros(), 18_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Disk {
    /// Elevator gain coefficient: speedup = 1 + gain · ln(1 + depth).
    gain: f64,
    /// Depth beyond which no further speedup accrues.
    max_depth: f64,
    queue: VecDeque<(usize, f64)>,
    busy_with: Option<usize>,
}

impl Disk {
    /// Creates an idle disk.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is negative or `max_depth < 1`.
    pub fn new(gain: f64, max_depth: f64) -> Self {
        assert!(gain >= 0.0, "gain must be non-negative");
        assert!(max_depth >= 1.0, "max depth must be at least 1");
        Disk {
            gain,
            max_depth,
            queue: VecDeque::new(),
            busy_with: None,
        }
    }

    /// Outstanding operations (serving + queued).
    pub fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.busy_with.is_some())
    }

    /// Throughput multiplier at the current queue depth (1.0 when only a
    /// single operation is outstanding).
    pub fn speedup(&self) -> f64 {
        let depth = (self.depth().max(1) as f64).min(self.max_depth);
        1.0 + self.gain * depth.ln()
    }

    /// Submits an aggregated I/O of `work_ms` (at depth-1 speed) tagged
    /// with `token`.
    ///
    /// Returns `Some(completion_time)` if the disk was idle and service
    /// starts immediately; `None` if the request queued behind others
    /// (its completion will be returned by a later
    /// [`finish`](Disk::finish)).
    ///
    /// # Panics
    ///
    /// Panics if `work_ms` is not positive and finite.
    pub fn submit(&mut self, now: SimTime, work_ms: f64, token: usize) -> Option<SimTime> {
        assert!(
            work_ms.is_finite() && work_ms > 0.0,
            "disk work must be positive"
        );
        if self.busy_with.is_none() {
            self.busy_with = Some(token);
            // Depth at service start includes this op.
            Some(now + self.service_time(work_ms))
        } else {
            self.queue.push_back((token, work_ms));
            None
        }
    }

    fn service_time(&self, work_ms: f64) -> SimDuration {
        SimDuration::from_millis_f64(work_ms / self.speedup())
    }

    /// Completes the in-service operation and starts the next queued one,
    /// if any. Returns the finished token and, when another operation
    /// starts, its token and completion time.
    ///
    /// # Panics
    ///
    /// Panics if the disk is idle.
    pub fn finish(&mut self, now: SimTime) -> (usize, Option<(usize, SimTime)>) {
        let done = self.busy_with.take().expect("finish on idle disk");
        if let Some((token, work_ms)) = self.queue.pop_front() {
            self.busy_with = Some(token);
            let eta = now + self.service_time(work_ms);
            (done, Some((token, eta)))
        } else {
            (done, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn idle_disk_serves_immediately() {
        let mut d = Disk::new(0.5, 16.0);
        let eta = d.submit(T0, 10.0, 1).unwrap();
        assert_eq!(eta, SimTime::from_millis(10));
        assert_eq!(d.depth(), 1);
    }

    #[test]
    fn busy_disk_queues() {
        let mut d = Disk::new(0.5, 16.0);
        d.submit(T0, 10.0, 1).unwrap();
        assert!(d.submit(T0, 10.0, 2).is_none());
        assert_eq!(d.depth(), 2);
        let (done, next) = d.finish(SimTime::from_millis(10));
        assert_eq!(done, 1);
        let (token, _eta) = next.unwrap();
        assert_eq!(token, 2);
    }

    #[test]
    fn deeper_queue_speeds_service() {
        let mut shallow = Disk::new(0.5, 16.0);
        shallow.submit(T0, 10.0, 0).unwrap();
        let t_shallow = shallow.finish(SimTime::from_millis(10));

        let mut deep = Disk::new(0.5, 16.0);
        deep.submit(T0, 10.0, 0).unwrap();
        for i in 1..10 {
            deep.submit(T0, 10.0, i);
        }
        // Second request starts with depth 9 outstanding: faster than 10 ms.
        let (_, next) = deep.finish(SimTime::from_millis(10));
        let (_, eta) = next.unwrap();
        assert!(
            eta < SimTime::from_millis(20),
            "elevator gain missing: {eta}"
        );
        let _ = t_shallow;
    }

    #[test]
    fn speedup_caps_at_max_depth() {
        let mut d = Disk::new(0.5, 4.0);
        for i in 0..100 {
            d.submit(T0, 1.0, i);
        }
        assert!((d.speedup() - (1.0 + 0.5 * 4.0f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn zero_gain_is_plain_fcfs() {
        let mut d = Disk::new(0.0, 16.0);
        d.submit(T0, 8.0, 0).unwrap();
        d.submit(T0, 8.0, 1);
        let (_, next) = d.finish(SimTime::from_millis(8));
        assert_eq!(next.unwrap().1, SimTime::from_millis(16));
    }

    #[test]
    #[should_panic(expected = "finish on idle disk")]
    fn finish_idle_panics() {
        Disk::new(0.5, 16.0).finish(T0);
    }

    proptest! {
        /// FIFO order: tokens complete in submission order.
        #[test]
        fn prop_fifo_order(works in proptest::collection::vec(0.5f64..20.0, 1..20)) {
            let mut d = Disk::new(0.5, 16.0);
            let mut completions = Vec::new();
            let mut eta = None;
            for (i, w) in works.iter().enumerate() {
                if let Some(e) = d.submit(T0, *w, i) {
                    eta = Some(e);
                }
            }
            let mut now = eta.unwrap();
            loop {
                let (done, next) = d.finish(now);
                completions.push(done);
                match next {
                    Some((_, e)) => now = e,
                    None => break,
                }
            }
            prop_assert_eq!(completions, (0..works.len()).collect::<Vec<_>>());
        }
    }
}
