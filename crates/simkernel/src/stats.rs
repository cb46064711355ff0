//! Online statistics for simulation measurement.
//!
//! The RAC agent is non-intrusive: the only signal it consumes is
//! application-level performance sampled over an interval. `websim`
//! keeps each response time of an interval in a `Vec` and, when the
//! interval closes, bins them into a [`DurationHistogram`] for the p95.

use crate::time::SimDuration;

/// Histogram of durations with exponentially growing bucket widths,
/// supporting approximate percentile queries.
///
/// Buckets cover `[0, ~4.7 simulated hours)` with ≤ ~4% relative error —
/// plenty for response-time distributions.
///
/// # Example
///
/// ```
/// use simkernel::SimDuration;
/// use simkernel::stats::DurationHistogram;
///
/// let mut h = DurationHistogram::new();
/// for ms in [10u64, 20, 30, 40, 1000] {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 >= SimDuration::from_millis(20) && p50 <= SimDuration::from_millis(40));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationHistogram {
    /// Sub-bucket resolution: 32 linear sub-buckets per power of two.
    counts: Vec<u64>,
    total: u64,
    sum_micros: u128,
}

const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;
// 64 - 5 = enough exponents to cover u64, but cap the layout for memory.
const MAX_EXPONENT: u32 = 39; // covers up to 2^(39+5) us ≈ 4.7e8 s

impl DurationHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        DurationHistogram {
            counts: vec![0; ((MAX_EXPONENT + 1) as usize) * SUB_BUCKETS as usize],
            total: 0,
            sum_micros: 0,
        }
    }

    fn index_of(us: u64) -> usize {
        if us < SUB_BUCKETS {
            return us as usize;
        }
        let exp = 63 - us.leading_zeros(); // position of the highest set bit
        let exp = exp.min(MAX_EXPONENT + SUB_BITS - 1);
        let bucket_exp = exp - SUB_BITS + 1;
        // Shift so the value lands in [SUB_BUCKETS, 2*SUB_BUCKETS); the
        // masked low bits are then the linear sub-bucket, and
        // `lower_bound_of` round-trips it exactly via
        // `(SUB_BUCKETS + sub) << (bucket_exp - 1)`.
        let sub = (us >> (bucket_exp - 1)) & (SUB_BUCKETS - 1);
        ((bucket_exp as usize) * SUB_BUCKETS as usize + sub as usize)
            .min(((MAX_EXPONENT + 1) as usize) * SUB_BUCKETS as usize - 1)
    }

    fn lower_bound_of(index: usize) -> u64 {
        let bucket_exp = index / SUB_BUCKETS as usize;
        let sub = (index % SUB_BUCKETS as usize) as u64;
        if bucket_exp == 0 {
            sub
        } else {
            (SUB_BUCKETS + sub) << (bucket_exp - 1)
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.counts[Self::index_of(us)] += 1;
        self.total += 1;
        self.sum_micros += us as u128;
    }

    /// Records every duration in `ds` at once.
    ///
    /// Exactly equivalent to calling [`record`](Self::record) per
    /// element — the accumulators are integers, so batching the
    /// total/sum write-back cannot change any count, percentile, or
    /// bucket edge — but the struct fields are touched once per batch
    /// instead of once per observation, which is what lets per-event
    /// histogram updates amortize over an interval's worth of samples.
    pub fn record_batch<I>(&mut self, ds: I)
    where
        I: IntoIterator<Item = SimDuration>,
    {
        let mut total = 0u64;
        let mut sum = 0u128;
        for d in ds {
            let us = d.as_micros();
            self.counts[Self::index_of(us)] += 1;
            total += 1;
            sum += us as u128;
        }
        self.total += total;
        self.sum_micros += sum;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of all recorded durations, or `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        (self.total > 0)
            .then(|| SimDuration::from_micros((self.sum_micros / self.total as u128) as u64))
    }

    /// Approximate percentile (`p` in `[0, 100]`), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(SimDuration::from_micros(Self::lower_bound_of(i)));
            }
        }
        Some(SimDuration::from_micros(Self::lower_bound_of(
            self.counts.len() - 1,
        )))
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed-capacity sliding window over the most recent observations.
///
/// Used by the RAC agent's context-change detector, which compares the
/// current reward to the average of the last *n* rewards.
///
/// # Example
///
/// ```
/// use simkernel::stats::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.mean(), Some(3.0)); // 2, 3, 4
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    buf: Vec<f64>,
    head: usize,
    len: usize,
}

impl SlidingWindow {
    /// Creates a window keeping the `capacity` most recent values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            buf: vec![0.0; capacity],
            head: 0,
            len: 0,
        }
    }

    /// Number of currently retained values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no values have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a value, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        self.buf[self.head] = x;
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    /// Mean of the retained values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        Some(self.iter().sum::<f64>() / self.len as f64)
    }

    /// Median of the retained values, or `None` when empty. For an even
    /// count the two middle values are averaged. NaN-safe via total
    /// ordering (NaNs sort last).
    pub fn median(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let mut values: Vec<f64> = self.iter().collect();
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        Some(if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        })
    }

    /// Iterates over retained values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let cap = self.buf.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |i| self.buf[(start + i) % cap])
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = DurationHistogram::new();
        for ms in [100u64, 200, 300] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.mean(), Some(SimDuration::from_millis(200)));
    }

    #[test]
    fn histogram_percentiles_ordered() {
        let mut h = DurationHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_millis(i));
        }
        let p50 = h.percentile(50.0).unwrap();
        let p95 = h.percentile(95.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // ≤ ~4% relative bucket error
        let p50_ms = p50.as_millis_f64();
        assert!((470.0..=510.0).contains(&p50_ms), "p50 {p50_ms}");
    }

    #[test]
    fn histogram_empty_percentile_none() {
        let h = DurationHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0).is_some());
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut w = SlidingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        let vals: Vec<f64> = w.iter().collect();
        assert_eq!(vals, vec![2.0, 3.0]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn sliding_window_mean_empty() {
        let w = SlidingWindow::new(4);
        assert_eq!(w.mean(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn sliding_window_median() {
        let mut w = SlidingWindow::new(5);
        assert_eq!(w.median(), None);
        w.push(5.0);
        assert_eq!(w.median(), Some(5.0));
        w.push(1.0);
        assert_eq!(w.median(), Some(3.0)); // even count: average of middle two
        w.push(9.0);
        assert_eq!(w.median(), Some(5.0)); // odd count, unsorted input
                                           // Eviction changes the population the median is over.
        for x in [2.0, 2.0, 2.0, 2.0] {
            w.push(x);
        }
        assert_eq!(w.median(), Some(2.0));
    }

    proptest! {
        /// Satellite property: the batched recording path is *exactly*
        /// the one-at-a-time path — identical bucket counts (so every
        /// bucket edge), identical totals, identical exact sum, and
        /// therefore identical percentile answers at any rank. The
        /// struct derives `Eq`, so one comparison covers all of it.
        #[test]
        fn prop_histogram_batch_equals_one_at_a_time(
            us in proptest::collection::vec(0u64..u64::MAX, 1..200),
            split in 0usize..200,
        ) {
            let ds: Vec<SimDuration> = us.iter().map(|&u| SimDuration::from_micros(u)).collect();
            let mut one = DurationHistogram::new();
            for &d in &ds {
                one.record(d);
            }
            // Two batches (possibly empty), exercising the carry-over of
            // partially accumulated state between batch calls.
            let split = split.min(ds.len());
            let mut batched = DurationHistogram::new();
            batched.record_batch(ds[..split].iter().copied());
            batched.record_batch(ds[split..].iter().copied());
            prop_assert_eq!(&one, &batched);
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
                prop_assert_eq!(one.percentile(p), batched.percentile(p));
            }
            prop_assert_eq!(one.mean(), batched.mean());
            prop_assert_eq!(one.count(), batched.count());
        }

        #[test]
        fn prop_histogram_percentile_monotone(us in proptest::collection::vec(0u64..10_000_000, 1..100)) {
            let mut h = DurationHistogram::new();
            for &u in &us {
                h.record(SimDuration::from_micros(u));
            }
            let mut last = SimDuration::ZERO;
            for p in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
                let v = h.percentile(p).unwrap();
                prop_assert!(v >= last);
                last = v;
            }
        }

        #[test]
        fn prop_sliding_window_len_bounded(cap in 1usize..32, n in 0usize..100) {
            let mut w = SlidingWindow::new(cap);
            for i in 0..n {
                w.push(i as f64);
            }
            prop_assert_eq!(w.len(), n.min(cap));
            prop_assert_eq!(w.iter().count(), n.min(cap));
        }
    }
}
