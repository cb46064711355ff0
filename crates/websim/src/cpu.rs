//! Exact processor-sharing CPU model.
//!
//! Each VM's CPU is modelled as an egalitarian processor-sharing server:
//! all runnable tasks progress simultaneously at a rate of
//! `min(cores / C, 1) / (1 + overhead · C)` where `C` is the number of
//! runnable tasks. Progress is tracked in *virtual work time*, so task
//! completions are exact under arbitrary arrival/departure interleavings
//! — no snapshot approximation, no oscillation artifacts.

use simkernel::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Token identifying a task inside a [`PsCpu`]; the simulator stores the
/// request id and phase in it.
pub type TaskToken = (usize, u8);

/// Task ids must fit in the 56 bits beneath the phase byte of a key.
const MAX_TASK_ID: usize = (1 << 56) - 1;

/// One heap key ordered exactly like `(vf.total_cmp, id, phase)`: the
/// virtual finish time's bits, mapped so that unsigned order is
/// `f64::total_cmp` order, above the token.
fn pack(vf: f64, (id, phase): TaskToken) -> u128 {
    assert!(id <= MAX_TASK_ID, "task id {id} does not fit a CPU key");
    let bits = vf.to_bits();
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (ordered as u128) << 64 | (id as u128) << 8 | phase as u128
}

/// The virtual finish time of a key made by [`pack`].
fn key_finish(key: u128) -> f64 {
    let ordered = (key >> 64) as u64;
    f64::from_bits(if ordered >> 63 == 1 {
        ordered & !(1 << 63)
    } else {
        !ordered
    })
}

/// The token of a key made by [`pack`].
fn key_token(key: u128) -> TaskToken {
    ((key as u64 >> 8) as usize, key as u8)
}

/// Whole microseconds until a completion `q` µs away, rounded up and at
/// least 1: equal to `q.ceil().max(1.0) as u64` for every `f64`, NaN,
/// ±0, ±∞ and values past 2⁶⁴ included, without `f64::ceil`, which the
/// baseline x86-64 target compiles to a library call.
fn ceil_micros(q: f64) -> u64 {
    let t = q as u64;
    let t = if (t as f64) < q {
        t.saturating_add(1)
    } else {
        t
    };
    t.max(1)
}

/// A processor-sharing CPU for one VM.
///
/// # Example
///
/// ```
/// use simkernel::SimTime;
/// use websim::cpu::PsCpu;
///
/// let mut cpu = PsCpu::new(2.0, 0.001);
/// cpu.push(SimTime::ZERO, 10_000.0, (0, 0)); // one task of 10 ms work
/// let eta = cpu.next_completion(SimTime::ZERO).unwrap();
/// // Alone on 2 cores: finishes in ~10 ms of real time.
/// assert!((eta.as_secs_f64() - 0.010).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct PsCpu {
    /// Virtual work completed per task so far (µs at unit speed).
    virt: f64,
    last: SimTime,
    /// Per-task progress in work-µs per real-µs.
    speed: f64,
    /// Runnable tasks keyed by [`pack`]: earliest virtual finish first,
    /// ties broken by token.
    heap: BinaryHeap<Reverse<u128>>,
    cores: f64,
    overhead: f64,
    extra_load: f64,
}

impl PsCpu {
    /// Creates an idle CPU with `cores` effective cores and per-task
    /// concurrency `overhead`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not positive or `overhead` is negative.
    pub fn new(cores: f64, overhead: f64) -> Self {
        assert!(cores > 0.0, "cores must be positive");
        assert!(overhead >= 0.0, "overhead must be non-negative");
        PsCpu {
            virt: 0.0,
            last: SimTime::ZERO,
            speed: 1.0,
            heap: BinaryHeap::new(),
            cores,
            overhead,
            extra_load: 0.0,
        }
    }

    /// Number of runnable tasks.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no task is runnable.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Effective runnable load including background churn.
    pub fn load(&self) -> f64 {
        self.heap.len() as f64 + self.extra_load
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_micros() as f64;
        if dt > 0.0 {
            if !self.heap.is_empty() {
                self.virt += self.speed * dt;
            }
            self.last = now;
        }
    }

    fn recompute_speed(&mut self) {
        let c = self.load();
        if c <= 0.0 {
            self.speed = 1.0;
            return;
        }
        let share = (self.cores / c).min(1.0);
        self.speed = share / (1.0 + self.overhead * c);
    }

    /// Updates the effective core count (maintenance tick, VM
    /// reallocation or stall).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not positive.
    pub fn set_cores(&mut self, now: SimTime, cores: f64) {
        assert!(cores > 0.0, "cores must be positive");
        self.advance(now);
        self.cores = cores;
        self.recompute_speed();
    }

    /// Updates the background churn load (fork/thread-creation CPU
    /// expressed as equivalent runnable tasks).
    ///
    /// # Panics
    ///
    /// Panics if `load` is negative or non-finite.
    pub fn set_extra_load(&mut self, now: SimTime, load: f64) {
        assert!(
            load.is_finite() && load >= 0.0,
            "extra load must be non-negative"
        );
        self.advance(now);
        self.extra_load = load;
        self.recompute_speed();
    }

    /// Adds a task needing `work_us` microseconds of unit-speed CPU.
    ///
    /// # Panics
    ///
    /// Panics if `work_us` is not positive and finite.
    pub fn push(&mut self, now: SimTime, work_us: f64, token: TaskToken) {
        assert!(
            work_us.is_finite() && work_us > 0.0,
            "work must be positive"
        );
        self.advance(now);
        self.heap.push(Reverse(pack(self.virt + work_us, token)));
        self.recompute_speed();
    }

    /// Real time at which the earliest task completes, or `None` when
    /// idle.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let &Reverse(key) = self.heap.peek()?;
        let remaining = (key_finish(key) - self.virt).max(0.0);
        let eta_us = ceil_micros(remaining / self.speed);
        Some(now + SimDuration::from_micros(eta_us))
    }

    /// Moves every task whose work is complete at `now` into `done`, in
    /// completion order, after clearing it. The caller owns the buffer,
    /// so completing tasks allocates nothing.
    pub fn pop_ready(&mut self, now: SimTime, done: &mut Vec<TaskToken>) {
        self.advance(now);
        done.clear();
        while let Some(&Reverse(key)) = self.heap.peek() {
            // Completion events are scheduled with a ceil'd ETA, so at
            // the event time the virtual clock may sit a hair past or
            // (after an intervening speed change) a hair before the
            // finish point; the 1 µs tolerance absorbs the rounding.
            if key_finish(key) <= self.virt + 1.0 {
                self.heap.pop();
                done.push(key_token(key));
            } else {
                break;
            }
        }
        if !done.is_empty() {
            self.recompute_speed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const T0: SimTime = SimTime::ZERO;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ready(cpu: &mut PsCpu, now: SimTime) -> Vec<TaskToken> {
        let mut done = vec![(usize::MAX, u8::MAX)];
        cpu.pop_ready(now, &mut done);
        done
    }

    #[test]
    fn single_task_runs_at_full_speed() {
        let mut cpu = PsCpu::new(4.0, 0.0);
        cpu.push(T0, 20_000.0, (1, 0));
        let eta = cpu.next_completion(T0).unwrap();
        assert_eq!(eta, at(20));
        assert!(ready(&mut cpu, at(19)).is_empty());
        assert_eq!(ready(&mut cpu, at(20)), vec![(1, 0)]);
        assert!(cpu.is_empty());
    }

    #[test]
    fn tasks_within_core_count_do_not_slow_down() {
        let mut cpu = PsCpu::new(4.0, 0.0);
        for i in 0..4 {
            cpu.push(T0, 10_000.0, (i, 0));
        }
        assert_eq!(cpu.next_completion(T0).unwrap(), at(10));
        assert_eq!(ready(&mut cpu, at(10)).len(), 4);
    }

    #[test]
    fn oversubscription_shares_the_cores() {
        // 8 equal tasks on 2 cores: each runs at 1/4 speed.
        let mut cpu = PsCpu::new(2.0, 0.0);
        for i in 0..8 {
            cpu.push(T0, 10_000.0, (i, 0));
        }
        let eta = cpu.next_completion(T0).unwrap();
        assert_eq!(eta, at(40));
        assert_eq!(ready(&mut cpu, at(40)).len(), 8);
    }

    #[test]
    fn late_arrival_slows_running_task() {
        let mut cpu = PsCpu::new(1.0, 0.0);
        cpu.push(T0, 10_000.0, (1, 0));
        // Half way through, a second task arrives: remaining 5 ms now
        // takes 10 ms of real time.
        cpu.push(at(5), 10_000.0, (2, 0));
        let eta = cpu.next_completion(at(5)).unwrap();
        assert_eq!(eta, at(15));
        assert_eq!(ready(&mut cpu, at(15)), vec![(1, 0)]);
        // Task 2 has 5 ms left, alone now: finishes at 20 ms.
        let eta2 = cpu.next_completion(at(15)).unwrap();
        assert_eq!(eta2, at(20));
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let mut cpu = PsCpu::new(1.0, 0.0);
        cpu.push(T0, 10_000.0, (1, 0));
        cpu.push(T0, 20_000.0, (2, 0));
        // Shared until t=20ms when task 1 (10 ms work at 1/2 speed) ends.
        assert_eq!(ready(&mut cpu, at(20)), vec![(1, 0)]);
        // Task 2 did 10 ms of its 20 ms; alone it needs 10 more.
        assert_eq!(cpu.next_completion(at(20)).unwrap(), at(30));
    }

    #[test]
    fn throughput_is_conserved_under_concurrency() {
        // Total work 400 ms on 2 cores: completes in ~200 ms of real time
        // regardless of how many tasks carry it (overhead = 0).
        for n in [2usize, 8, 40] {
            let mut cpu = PsCpu::new(2.0, 0.0);
            let per = 400_000.0 / n as f64;
            for i in 0..n {
                cpu.push(T0, per, (i, 0));
            }
            let mut t = T0;
            let mut done = 0;
            while let Some(eta) = cpu.next_completion(t) {
                t = eta;
                done += ready(&mut cpu, t).len();
            }
            assert_eq!(done, n);
            let secs = t.as_secs_f64();
            assert!((secs - 0.2).abs() < 0.01, "n={n}: finished at {secs}s");
        }
    }

    #[test]
    fn overhead_wastes_capacity() {
        let mut a = PsCpu::new(2.0, 0.0);
        let mut b = PsCpu::new(2.0, 0.01);
        for i in 0..10 {
            a.push(T0, 10_000.0, (i, 0));
            b.push(T0, 10_000.0, (i, 0));
        }
        let ea = a.next_completion(T0).unwrap();
        let eb = b.next_completion(T0).unwrap();
        assert!(eb > ea, "overhead must slow completion: {ea} vs {eb}");
    }

    #[test]
    fn core_change_mid_flight() {
        let mut cpu = PsCpu::new(4.0, 0.0);
        for i in 0..4 {
            cpu.push(T0, 20_000.0, (i, 0));
        }
        // Halve the cores half way: remaining 10 ms takes 20 ms.
        cpu.set_cores(at(10), 2.0);
        assert_eq!(cpu.next_completion(at(10)).unwrap(), at(30));
    }

    #[test]
    fn extra_load_steals_share() {
        let mut cpu = PsCpu::new(1.0, 0.0);
        cpu.push(T0, 10_000.0, (1, 0));
        cpu.set_extra_load(T0, 1.0); // churn equivalent to one task
        assert_eq!(cpu.next_completion(T0).unwrap(), at(20));
        cpu.set_extra_load(at(20), 0.0);
        assert_eq!(ready(&mut cpu, at(20)), vec![(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "work must be positive")]
    fn zero_work_panics() {
        PsCpu::new(1.0, 0.0).push(T0, 0.0, (0, 0));
    }

    /// The tuple-keyed heap entry the packed key replaced, kept as its
    /// ordering oracle.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct VirtFinish(f64);

    impl Eq for VirtFinish {}
    impl PartialOrd for VirtFinish {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for VirtFinish {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    /// Pops `tasks` from a packed-key heap and from the tuple-keyed
    /// oracle heap; both orders, as (finish bits, token), must agree.
    fn assert_same_pop_order(tasks: &[(f64, TaskToken)]) {
        let mut packed: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
        let mut tuples: BinaryHeap<Reverse<(VirtFinish, TaskToken)>> = BinaryHeap::new();
        for &(vf, token) in tasks {
            packed.push(Reverse(pack(vf, token)));
            tuples.push(Reverse((VirtFinish(vf), token)));
        }
        while let Some(Reverse((VirtFinish(vf), token))) = tuples.pop() {
            let Reverse(key) = packed.pop().expect("same length");
            assert_eq!(key_finish(key).to_bits(), vf.to_bits());
            assert_eq!(key_token(key), token);
        }
        assert!(packed.is_empty());
    }

    #[test]
    fn packed_keys_pop_like_tuple_keys_at_the_edges() {
        let finishes = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            2f64.powi(52),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut tasks = Vec::new();
        for (i, &vf) in finishes.iter().enumerate() {
            // Equal finish times, ordered by id, then by phase.
            for token in [(i, 3), (i, 0), (MAX_TASK_ID, 0), (0, u8::MAX), (i + 1, 1)] {
                tasks.push((vf, token));
            }
        }
        assert_same_pop_order(&tasks);
    }

    #[test]
    #[should_panic(expected = "does not fit a CPU key")]
    fn task_ids_past_56_bits_are_rejected() {
        pack(1.0, (MAX_TASK_ID + 1, 0));
    }

    #[test]
    fn integer_ceil_matches_f64_ceil_at_the_edges() {
        let two52 = 2f64.powi(52);
        let two64 = 2f64.powi(64);
        let edges = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -1e-300,
            -3.5,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            1.5,
            2.0,
            123_456.000_1,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2f64.powi(53) + 2.0,
            two64 - 2048.0,
            two64,
            two64 * 2.0,
            f64::MAX,
        ];
        for q in edges {
            assert_eq!(ceil_micros(q), q.ceil().max(1.0) as u64, "q = {q:e}");
        }
    }

    proptest! {
        /// The integer ceil agrees with `f64::ceil` on arbitrary bit
        /// patterns (every sign, exponent and NaN payload) and on the
        /// durations the simulator actually computes.
        #[test]
        fn prop_integer_ceil_matches_f64_ceil(bits: u64, micros in 0.0f64..1e9) {
            let q = f64::from_bits(bits);
            prop_assert_eq!(ceil_micros(q), q.ceil().max(1.0) as u64);
            prop_assert_eq!(ceil_micros(micros), micros.ceil().max(1.0) as u64);
        }

        /// Random finish times with many exact ties pop in the tuple
        /// heap's order.
        #[test]
        fn prop_packed_keys_pop_like_tuple_keys(
            raw in proptest::collection::vec((0u64..16, 0usize..8, 0u8..4), 1..64),
        ) {
            let tasks: Vec<(f64, TaskToken)> = raw
                .iter()
                .map(|&(vf, id, phase)| (vf as f64 * 0.25 - 1.0, (id, phase)))
                .collect();
            assert_same_pop_order(&tasks);
        }

        /// Work conservation: regardless of arrival pattern, total
        /// completion time of a batch is at least total_work/cores and at
        /// most total_work (for load ≥ cores and no overhead).
        #[test]
        fn prop_work_conservation(works in proptest::collection::vec(1_000.0f64..100_000.0, 1..20)) {
            let mut cpu = PsCpu::new(2.0, 0.0);
            for (i, w) in works.iter().enumerate() {
                cpu.push(T0, *w, (i, 0));
            }
            let mut t = T0;
            let mut done = 0;
            while let Some(eta) = cpu.next_completion(t) {
                t = eta;
                done += ready(&mut cpu, t).len();
            }
            prop_assert_eq!(done, works.len());
            let total: f64 = works.iter().sum();
            let secs = t.as_secs_f64() * 1e6;
            prop_assert!(secs + 50.0 >= total / 2.0, "{secs} vs {total}");
            prop_assert!(secs <= total + works.len() as f64 * 50.0 + 50.0);
        }

        /// With simultaneous arrivals, processor sharing completes tasks
        /// shortest-work-first.
        #[test]
        fn prop_shortest_first(works in proptest::collection::vec(1_000.0f64..100_000.0, 2..10)) {
            let mut cpu = PsCpu::new(1.0, 0.0);
            for (i, w) in works.iter().enumerate() {
                cpu.push(T0, *w, (i, 0));
            }
            let mut order = Vec::new();
            let mut t = T0;
            while let Some(eta) = cpu.next_completion(t) {
                t = eta;
                order.extend(ready(&mut cpu, t).into_iter().map(|(i, _)| i));
            }
            prop_assert_eq!(order.len(), works.len());
            for pair in order.windows(2) {
                prop_assert!(
                    works[pair[0]] <= works[pair[1]] + 2.0,
                    "completed {} (w={}) before {} (w={})",
                    pair[0], works[pair[0]], pair[1], works[pair[1]]
                );
            }
        }
    }
}
