//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::rng::ShimRng;
use crate::strategy::Strategy;

/// Length specification for [`vec()`]: a fixed size or a range of sizes,
/// mirroring proptest's `SizeRange` conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn draw(&self, rng: &mut ShimRng) -> usize {
        (self.lo..=self.hi_inclusive).generate(rng)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// Strategy for `Vec<T>` with a length drawn from `size` and elements
/// drawn from `element`.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut ShimRng) -> Vec<S::Value> {
        let len = self.size.draw(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Builds a [`VecStrategy`], mirroring `proptest::collection::vec`.
///
/// # Example
///
/// ```
/// use proptest::collection::vec;
/// use proptest::rng::ShimRng;
/// use proptest::Strategy;
///
/// let mut rng = ShimRng::new(1);
/// let xs = vec(0u32..10, 3..6).generate(&mut rng);
/// assert!((3..6).contains(&xs.len()));
/// assert!(xs.iter().all(|&x| x < 10));
/// assert_eq!(vec(0u32..10, 4).generate(&mut rng).len(), 4);
/// ```
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_cover_the_size_range() {
        let mut rng = ShimRng::new(21);
        let strat = vec(0u8..2, 0..4);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.generate(&mut rng).len()] = true;
        }
        assert!(seen.iter().all(|&s| s), "lengths seen: {seen:?}");
    }

    #[test]
    fn fixed_size_is_exact() {
        let mut rng = ShimRng::new(22);
        for _ in 0..50 {
            assert_eq!(vec(0u32..100, 9).generate(&mut rng).len(), 9);
        }
    }

    #[test]
    #[should_panic(expected = "empty size range")]
    fn empty_size_range_panics() {
        let _ = vec(0u8..2, 3..3);
    }
}
