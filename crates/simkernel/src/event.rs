//! The future-event list with deterministic tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Future-event list: the central data structure of a discrete-event
/// simulation.
///
/// Events are popped in non-decreasing timestamp order. Events scheduled
/// for the *same* instant are popped in the order they were scheduled
/// (FIFO), so a simulation's event interleaving is a pure function of
/// what was scheduled, and the event payload itself need not be ordered.
///
/// Internally a binary heap keyed by one `u128`, `(time << 64) |
/// sequence`, so every comparison is a single integer compare.
///
/// # Example
///
/// ```
/// use simkernel::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "second");
/// q.schedule(SimTime::from_secs(1), "first");
/// q.schedule(SimTime::from_secs(2), "third"); // same time: FIFO after "second"
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "third")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Slot<E>>,
    seq: u64,
    now: SimTime,
}

/// A pending event under its packed `(time, sequence)` key.
#[derive(Debug, Clone)]
struct Slot<E> {
    key: u128,
    event: E,
}

fn key(at: SimTime, seq: u64) -> u128 {
    u128::from(at.as_micros()) << 64 | u128::from(seq)
}

impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Slot<E> {}

impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Slot<E> {
    /// Reversed, so the max-heap's top is the earliest key.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The timestamp of the most recently popped event — the current
    /// simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a simulation bug; in debug builds this
    /// panics, in release builds the event fires at the current time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than [`EventQueue::now`].
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let key = key(at.max(self.now), self.reserve_seq());
        self.heap.push(Slot { key, event });
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot = self.heap.pop()?;
        self.now = SimTime::from_micros((slot.key >> 64) as u64);
        Some((self.now, slot.event))
    }

    /// Pops the earliest event only if its `(time, sequence)` key is
    /// strictly below `(at, seq)`.
    ///
    /// A caller that keeps some events outside the queue (under sequence
    /// numbers from [`EventQueue::reserve_seq`]) passes the earliest
    /// outside key as the bound, so both sources interleave in the one
    /// `(time, sequence)` order. A bound of `(horizon, 0)` pops only
    /// events strictly before `horizon`; the rest stay queued, so a
    /// simulation can resume past the horizon later. The clock does not
    /// advance when `None` is returned.
    pub fn pop_below(&mut self, at: SimTime, seq: u64) -> Option<(SimTime, E)> {
        if self.heap.peek()?.key < key(at, seq) {
            self.pop()
        } else {
            None
        }
    }

    /// Takes the next sequence number without scheduling anything, for
    /// an event the caller holds outside the queue. Events scheduled
    /// afterwards order after it at equal times, exactly as if it had
    /// been scheduled here.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Moves the clock to `at`, the time of an event consumed outside
    /// the queue. That event must not be later than any queued one, so
    /// `at` must not pass the queue's head.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than [`EventQueue::now`].
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "clock moved back: {at} < {}", self.now);
        self.now = self.now.max(at);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn pop_below_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(3), "b");
        assert_eq!(
            q.pop_below(SimTime::from_secs(2), 0),
            Some((SimTime::from_secs(1), "a"))
        );
        assert_eq!(q.pop_below(SimTime::from_secs(2), 0), None);
        assert_eq!(q.len(), 1);
        // Resume with a later horizon.
        assert_eq!(
            q.pop_below(SimTime::from_secs(4), 0),
            Some((SimTime::from_secs(3), "b"))
        );
    }

    #[test]
    fn pop_below_exact_horizon_is_exclusive() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.pop_below(SimTime::from_secs(2), 0), None);
    }

    #[test]
    fn pop_below_breaks_equal_times_by_sequence() {
        // An event held outside the queue under a reserved sequence
        // number sits between the two queued ones at the same instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "before");
        let outside = q.reserve_seq();
        q.schedule(t, "after");
        assert_eq!(q.pop_below(t, outside), Some((t, "before")));
        assert_eq!(q.pop_below(t, outside), None);
        q.advance_to(t);
        assert_eq!(q.now(), t);
        assert_eq!(q.pop_below(t, outside + 2), Some((t, "after")));
    }

    #[test]
    fn advance_to_moves_the_clock_without_popping() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "queued");
        q.advance_to(SimTime::from_secs(2));
        assert_eq!(q.now(), SimTime::from_secs(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "queued")));
    }

    #[test]
    fn resize_preserves_order_across_growth_and_shrink() {
        // Enough events to grow the heap's buffer several times, then
        // drained back down to empty.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0u64..500 {
            let at = (i * 7919) % 10_000; // pseudo-random but repeatable
            q.schedule(SimTime::from_micros(at), i);
            expect.push((at, i));
        }
        expect.sort_by_key(|&(at, i)| (at, i));
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn handles_simtime_extremes() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "end of time");
        q.schedule(SimTime::ZERO, "zero");
        q.schedule(SimTime::MAX, "after end of time"); // FIFO at the same extreme
        assert_eq!(q.pop(), Some((SimTime::ZERO, "zero")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end of time")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "after end of time")));
        assert_eq!(q.now(), SimTime::MAX);
        assert_eq!(q.pop(), None);
    }

    /// Satellite fix: the past-scheduling contract. Debug builds must
    /// reject time travel loudly (the queue cannot pop it "before" events
    /// already emitted), release builds clamp to `now`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn scheduling_in_the_past_clamps_to_now_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule(SimTime::from_secs(5), "late");
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "late")));
    }

    /// Reference model: a plain `Vec` of `(at, seq)` keys re-sorted after
    /// every mutation — obviously correct, O(n log n) per op.
    #[derive(Debug, Default)]
    struct ModelQueue {
        pending: Vec<(SimTime, u64)>,
        seq: u64,
        now: SimTime,
    }

    impl ModelQueue {
        fn schedule(&mut self, at: SimTime) {
            self.pending.push((at.max(self.now), self.seq));
            self.seq += 1;
            self.pending.sort_unstable();
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            if self.pending.is_empty() {
                return None;
            }
            let (at, seq) = self.pending.remove(0);
            self.now = at;
            Some((at, seq))
        }
        fn pop_below(&mut self, at: SimTime, seq: u64) -> Option<(SimTime, u64)> {
            if *self.pending.first()? < (at, seq) {
                self.pop()
            } else {
                None
            }
        }
    }

    proptest! {
        /// Under arbitrary interleavings of schedule / pop / bounded pop
        /// / sequence reservation / clock advance — including
        /// manufactured FIFO ties and `SimTime` extremes — the queue
        /// agrees step-for-step with the sorted-`Vec` model.
        ///
        /// Ops are encoded as `(kind, value)` pairs: kinds 0-2 schedule
        /// at `now + value`, 3-4 schedule at `now` (FIFO ties), 5
        /// schedules at `SimTime::MAX` (extreme), 6-7 pop, 8 pops below
        /// the key `(now + value, value mod (next seq + 1))`, 9 reserves
        /// a sequence number, 10 advances the clock to `now + value` or
        /// the head, whichever is earlier.
        #[test]
        fn prop_queue_matches_model(
            ops in proptest::collection::vec((0u8..11, 0u64..10_000), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut model = ModelQueue::default();
            for &(kind, val) in &ops {
                match kind {
                    0..=5 => {
                        // The model tracks `now` identically, so the same
                        // absolute time is valid for both.
                        let at = match kind {
                            0..=2 => model.now + crate::SimDuration::from_micros(val),
                            3 | 4 => model.now,
                            _ => SimTime::MAX,
                        };
                        q.schedule(at, model.seq);
                        model.schedule(at);
                    }
                    6 | 7 => prop_assert_eq!(q.pop(), model.pop()),
                    8 => {
                        let at = model.now + crate::SimDuration::from_micros(val);
                        let seq = val % (model.seq + 1);
                        prop_assert_eq!(q.pop_below(at, seq), model.pop_below(at, seq));
                    }
                    9 => {
                        prop_assert_eq!(q.reserve_seq(), model.seq);
                        model.seq += 1;
                    }
                    _ => {
                        let mut at = model.now + crate::SimDuration::from_micros(val);
                        if let Some(&(head, _)) = model.pending.first() {
                            at = at.min(head);
                        }
                        model.now = at;
                        q.advance_to(at);
                        prop_assert_eq!(q.now(), at);
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            }
            // Drain whatever is left: full agreement to the end.
            loop {
                let want = model.pop();
                let got = q.pop();
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }

        /// Popped timestamps are always non-decreasing regardless of the
        /// scheduling order.
        #[test]
        fn prop_pop_order_is_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((at, _)) = q.pop() {
                prop_assert!(at >= last);
                last = at;
            }
        }

        /// Every scheduled event is eventually popped exactly once.
        #[test]
        fn prop_no_event_lost(times in proptest::collection::vec(0u64..1_000, 1..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
