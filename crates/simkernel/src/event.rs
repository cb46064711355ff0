//! The calendar-queue future-event list with deterministic
//! tie-breaking.
//!
//! [`EventQueue`] is a calendar queue (Brown 1988): events hash into
//! time-sliced buckets, each held in sorted order, so both insert and
//! pop are O(1) amortized once the bucket width has adapted to the
//! event spacing. It pops in non-decreasing `(timestamp,
//! schedule-order)` order, breaking same-instant ties FIFO via a
//! monotonic sequence number, so a simulation's event interleaving is a
//! pure function of what was scheduled — never of queue internals. The
//! test module keeps the original `BinaryHeap` queue as its
//! differential oracle.

use crate::time::SimTime;

/// Calendar-queue future-event list: the central data structure of a
/// discrete-event simulation.
///
/// Events are popped in non-decreasing timestamp order. Events scheduled
/// for the *same* instant are popped in the order they were scheduled
/// (FIFO), which keeps simulations deterministic without requiring the
/// event payload itself to be ordered.
///
/// Internally, events hash by `timestamp / width` into a power-of-two
/// ring of buckets ("days" on a calendar), each kept sorted. Pops scan
/// forward from the current day; inserts binary-search within one
/// bucket. The bucket count doubles/halves with the queue length and the
/// width re-adapts to the observed event spacing on each resize, so both
/// operations stay O(1) amortized — unlike a binary heap's O(log n).
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
    /// Bucket ring; `buckets.len()` is a power of two. Each bucket is
    /// sorted *descending* by `(at, seq)` so the earliest entry is the
    /// tail and popping it is `Vec::pop`.
    buckets: Vec<Vec<Slot<E>>>,
    /// log₂ of the bucket width in microseconds: one calendar "day" is
    /// `1 << width_shift` µs. Keeping the width a power of two turns the
    /// timestamp→day mapping (run once per insert and once per scanned
    /// day on pop) into a shift instead of a 64-bit division.
    width_shift: u32,
    len: usize,
    seq: u64,
    now: SimTime,
}

#[derive(Debug, Clone)]
struct Slot<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Buckets never shrink below this; adaptation only matters at scale.
const MIN_BUCKETS: usize = 16;
/// Starting bucket width (log₂ µs ⇒ 1024 µs) before the first resize
/// re-estimates it.
const INITIAL_WIDTH_SHIFT: u32 = 10;

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width_shift: INITIAL_WIDTH_SHIFT,
            len: 0,
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
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(&self, at: u64) -> usize {
        ((at >> self.width_shift) & (self.buckets.len() as u64 - 1)) as usize
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
        let at = at.max(self.now);
        let seq = self.reserve_seq();
        let us = at.as_micros();
        let b = self.bucket_of(us);
        let bucket = &mut self.buckets[b];
        // Descending by (at, seq): find the first entry that is NOT
        // greater than the new key and insert before it.
        let pos = bucket.partition_point(|s| (s.at, s.seq) > (us, seq));
        bucket.insert(pos, Slot { at: us, seq, event });
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            let n = self.buckets.len() * 2;
            self.rebuild(n);
        }
    }

    /// Finds the bucket holding the globally earliest `(at, seq)` entry
    /// (always a bucket *tail*). O(1) amortized: scans days forward from
    /// `now`, falling back to a direct tail scan after one full ring
    /// cycle (a gap longer than the whole calendar year).
    fn locate_min(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let shift = self.width_shift;
        let nmask = self.buckets.len() as u128 - 1;
        // Day arithmetic in u128: with a 0-µs-wide shift near
        // `SimTime::MAX`, `day0 + i` could overflow u64.
        let day0 = (self.now.as_micros() >> shift) as u128;
        for i in 0..self.buckets.len() as u128 {
            let day = day0 + i;
            let b = (day & nmask) as usize;
            if let Some(s) = self.buckets[b].last() {
                if (s.at >> shift) as u128 == day {
                    return Some(b);
                }
            }
        }
        // No event within one ring cycle of `now`: direct search over
        // bucket tails (each tail is its bucket's minimum).
        let mut best: Option<(u64, u64, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(s) = bucket.last() {
                if best.is_none_or(|(at, seq, _)| (s.at, s.seq) < (at, seq)) {
                    best = Some((s.at, s.seq, b));
                }
            }
        }
        best.map(|(_, _, b)| b)
    }

    fn pop_from(&mut self, b: usize) -> (SimTime, E) {
        let slot = self.buckets[b].pop().expect("locate_min found a tail");
        self.len -= 1;
        self.now = SimTime::from_micros(slot.at);
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            let n = (self.buckets.len() / 2).max(MIN_BUCKETS);
            self.rebuild(n);
        }
        (self.now, slot.event)
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let b = self.locate_min()?;
        Some(self.pop_from(b))
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
        let b = self.locate_min()?;
        let head = self.buckets[b].last().expect("tail");
        if (head.at, head.seq) < (at.as_micros(), seq) {
            Some(self.pop_from(b))
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

    /// Removes every pending event.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
    }

    /// Rehashes every event into `nbuckets` buckets, re-estimating the
    /// bucket width from the spacing of the head cluster (the `2 *
    /// nbuckets` earliest events), which keeps a single far-future
    /// outlier from stretching the width until every near-term event
    /// lands in one bucket.
    fn rebuild(&mut self, nbuckets: usize) {
        let mut all: Vec<Slot<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        if all.len() >= 2 {
            let mut ats: Vec<u64> = all.iter().map(|s| s.at).collect();
            let k = (ats.len() - 1).min(nbuckets * 2);
            let (head, kth, _) = ats.select_nth_unstable(k);
            let lo = head.iter().min().copied().unwrap_or(*kth).min(*kth);
            let width = ((*kth - lo) / k as u64).max(1);
            // Round down to a power of two (at most 2× narrower than the
            // estimate) so the day mapping stays division-free.
            self.width_shift = width.ilog2();
        }
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        // Re-sorting per bucket preserves (at, seq) order exactly; the
        // sort key is unique, so stability is irrelevant.
        for slot in all {
            let b = self.bucket_of(slot.at);
            self.buckets[b].push(slot);
        }
        for bucket in &mut self.buckets {
            bucket.sort_unstable_by_key(|s| std::cmp::Reverse((s.at, s.seq)));
        }
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
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

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
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn resize_preserves_order_across_growth_and_shrink() {
        // Push enough to force several doublings, interleaved with pops
        // to trigger shrink rebuilds on the way back down.
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn heap_queue_scheduling_in_the_past_panics_in_debug() {
        let mut q = HeapQueue::new();
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

    /// The original `BinaryHeap` future-event list, kept as the
    /// calendar queue's differential oracle: the property suite checks
    /// both pop the identical `(time, event)` sequence. Same contract as
    /// [`EventQueue`]: non-decreasing timestamps, FIFO at equal instants,
    /// debug-panic on scheduling into the past.
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
    }

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse to get earliest-first, with
            // the sequence number breaking ties FIFO.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }

        fn schedule(&mut self, at: SimTime, event: E) {
            debug_assert!(
                at >= self.now,
                "scheduled event in the past: {at} < {}",
                self.now
            );
            let at = at.max(self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            Some((entry.at, entry.event))
        }

        fn pop_below(&mut self, at: SimTime, seq: u64) -> Option<(SimTime, E)> {
            let head = self.heap.peek()?;
            if (head.at, head.seq) < (at, seq) {
                self.pop()
            } else {
                None
            }
        }

        fn reserve_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }

        fn advance_to(&mut self, at: SimTime) {
            self.now = at;
        }

        fn clear(&mut self) {
            self.heap.clear();
        }
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
        /// / clear / sequence reservation / clock advance — including
        /// manufactured FIFO ties and `SimTime` extremes — the calendar
        /// queue agrees step-for-step with the sorted-`Vec` model AND
        /// with the retained `HeapQueue` oracle.
        ///
        /// Ops are encoded as `(kind, value)` pairs: kinds 0-2 schedule
        /// at `now + value`, 3-4 schedule at `now` (FIFO ties), 5
        /// schedules at `SimTime::MAX` (extreme), 6-7 pop, 8 pops below
        /// the key `(now + value, value mod (next seq + 1))`, 9 clears,
        /// 10 reserves a sequence number, 11 advances the clock to
        /// `now + value` or the head, whichever is earlier.
        #[test]
        fn prop_calendar_queue_matches_model_and_heap(
            ops in proptest::collection::vec((0u8..12, 0u64..10_000), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut model = ModelQueue::default();
            for &(kind, val) in &ops {
                match kind {
                    0..=4 => {
                        // The model tracks `now` identically, so the same
                        // absolute time is valid for all three.
                        let at = match kind {
                            0..=2 => model.now + crate::SimDuration::from_micros(val),
                            3 | 4 => model.now,
                            _ => unreachable!(),
                        };
                        let seq = model.seq;
                        q.schedule(at, seq);
                        heap.schedule(at, seq);
                        model.schedule(at);
                    }
                    5 => {
                        let seq = model.seq;
                        q.schedule(SimTime::MAX, seq);
                        heap.schedule(SimTime::MAX, seq);
                        model.schedule(SimTime::MAX);
                    }
                    6 | 7 => {
                        let want = model.pop();
                        prop_assert_eq!(q.pop(), want);
                        prop_assert_eq!(heap.pop(), want);
                    }
                    8 => {
                        let at = model.now + crate::SimDuration::from_micros(val);
                        let seq = val % (model.seq + 1);
                        let want = model.pop_below(at, seq);
                        prop_assert_eq!(q.pop_below(at, seq), want);
                        prop_assert_eq!(heap.pop_below(at, seq), want);
                    }
                    10 => {
                        let want = model.seq;
                        model.seq += 1;
                        prop_assert_eq!(q.reserve_seq(), want);
                        prop_assert_eq!(heap.reserve_seq(), want);
                    }
                    11 => {
                        let mut at = model.now + crate::SimDuration::from_micros(val);
                        if let Some(&(head, _)) = model.pending.first() {
                            at = at.min(head);
                        }
                        model.now = at;
                        q.advance_to(at);
                        heap.advance_to(at);
                        prop_assert_eq!(q.now(), at);
                    }
                    _ => {
                        q.clear();
                        heap.clear();
                        model.pending.clear();
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
