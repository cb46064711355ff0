//! Seedable pseudo-random number generation and the distributions used by
//! the simulators.
//!
//! The generator is a PCG-XSH-RR 64/32 pair combined into 64-bit outputs.
//! Keeping the generator in-tree (rather than depending on `rand`) pins the
//! exact output stream, so every experiment in the repository reproduces
//! bit-for-bit across toolchain and dependency upgrades.

/// A small, fast, seedable PRNG (two PCG-XSH-RR 64/32 streams).
///
/// Not cryptographically secure; intended for simulation only.
///
/// # Example
///
/// ```
/// use simkernel::Pcg64;
///
/// let mut a = Pcg64::seed_from_u64(42);
/// let mut b = Pcg64::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let x = a.f64(); // uniform in [0, 1)
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: [u64; 2],
    inc: [u64; 2],
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Distinct seeds yield statistically independent streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into state + increments.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut rng = Pcg64 {
            state: [next(), next()],
            inc: [next() | 1, next() | 1],
        };
        // Warm up so low-entropy seeds decorrelate.
        for _ in 0..4 {
            rng.next_u64();
        }
        rng
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated component its own stream.
    pub fn fork(&mut self, stream: u64) -> Pcg64 {
        Pcg64::seed_from_u64(self.next_u64() ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    fn step(&mut self, lane: usize) -> u32 {
        let old = self.state[lane];
        self.state[lane] = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc[lane]);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.step(0) as u64;
        let lo = self.step(1) as u64;
        (hi << 32) | lo
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift with rejection for unbiasedness (Lemire).
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exports the generator's exact stream position as four words:
    /// `[state0, state1, inc0, inc1]`. Feeding them back through
    /// [`Pcg64::from_state_words`] resumes the output stream with no
    /// gap — the foundation of crash-safe checkpointing.
    ///
    /// # Example
    ///
    /// ```
    /// use simkernel::Pcg64;
    ///
    /// let mut a = Pcg64::seed_from_u64(9);
    /// a.next_u64();
    /// let mut b = Pcg64::from_state_words(a.state_words());
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    pub fn state_words(&self) -> [u64; 4] {
        [self.state[0], self.state[1], self.inc[0], self.inc[1]]
    }

    /// Rebuilds a generator at an exact position previously exported by
    /// [`Pcg64::state_words`]. The increments must come from a real
    /// generator (they are odd by construction); arbitrary words give a
    /// valid but unvetted stream.
    pub fn from_state_words(words: [u64; 4]) -> Self {
        Pcg64 {
            state: [words[0], words[1]],
            inc: [words[2], words[3]],
        }
    }

    /// Picks an index according to the given (not necessarily normalized)
    /// non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index on empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Exponential distribution with a given mean; samples come in the
/// mean's unit.
///
/// # Example
///
/// ```
/// use simkernel::rng::Exponential;
/// use simkernel::{Pcg64, SimDuration};
///
/// let mut rng = Pcg64::seed_from_u64(1);
/// // Mean think time of 7 simulated seconds:
/// let think = Exponential::with_mean(7.0);
/// let sample = SimDuration::from_secs_f64(think.sample(&mut rng));
/// assert!(sample > SimDuration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean (1/λ).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive, got {mean}"
        );
        Exponential { rate: 1.0 / mean }
    }

    /// Draws a sample (same unit as the mean).
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        // Inverse CDF; 1 - f64() is in (0, 1] so ln() is finite.
        -(1.0 - rng.f64()).ln() / self.rate
    }
}

/// Log-normal distribution parameterized by its **linear-space mean** and
/// the shape σ of the underlying normal, for heavy-tailed think and
/// service times: σ controls tail weight while the mean stays fixed, so
/// swapping an [`Exponential`] for a `LogNormal` of the same mean changes
/// variability without changing offered load.
///
/// # Example
///
/// ```
/// use simkernel::Pcg64;
/// use simkernel::rng::LogNormal;
///
/// let mut rng = Pcg64::seed_from_u64(1);
/// let d = LogNormal::with_mean(7.0, 1.0); // mean 7, heavy tail
/// assert!(d.sample(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution whose samples have the given
    /// linear-space mean: `μ = ln(mean) − σ²/2`, so
    /// `E[X] = exp(μ + σ²/2) = mean` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive or `sigma` is not
    /// finite and non-negative.
    pub fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive, got {mean}"
        );
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative, got {sigma}"
        );
        LogNormal {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    /// Draws a sample (always positive) via one Box–Muller normal draw.
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        let u1 = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = Pcg64::seed_from_u64(123);
        let mut b = Pcg64::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg64::seed_from_u64(1);
        let mut b = Pcg64::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_decorrelated() {
        let mut parent = Pcg64::seed_from_u64(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg64::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = Pcg64::seed_from_u64(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Pcg64::seed_from_u64(17);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Pcg64::seed_from_u64(0).below(0);
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut rng = Pcg64::seed_from_u64(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.range_inclusive(4, 6) {
                4 => saw_lo = true,
                6 => saw_hi = true,
                5 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Pcg64::seed_from_u64(11);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03, "frac {frac2}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = Pcg64::seed_from_u64(21);
        let d = Exponential::with_mean(250.0);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn lognormal_mean_matches() {
        let mut rng = Pcg64::seed_from_u64(37);
        let d = LogNormal::with_mean(7.0, 1.0);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 7.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn lognormal_variance_matches() {
        // Var[X] = mean² · (exp(σ²) − 1).
        let mut rng = Pcg64::seed_from_u64(41);
        let d = LogNormal::with_mean(10.0, 0.5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let expected = 100.0 * ((0.5f64 * 0.5).exp() - 1.0);
        assert!(
            (var - expected).abs() / expected < 0.05,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn lognormal_heavier_sigma_heavier_tail() {
        let mut a = Pcg64::seed_from_u64(55);
        let mut b = Pcg64::seed_from_u64(55);
        let light = LogNormal::with_mean(7.0, 0.25);
        let heavy = LogNormal::with_mean(7.0, 1.5);
        let n = 50_000;
        let over = |d: &LogNormal, rng: &mut Pcg64| (0..n).filter(|_| d.sample(rng) > 28.0).count();
        assert!(over(&heavy, &mut a) > 4 * over(&light, &mut b));
    }

    #[test]
    fn lognormal_sigma_zero_is_constant() {
        let mut rng = Pcg64::seed_from_u64(2);
        let d = LogNormal::with_mean(3.0, 0.0);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!((x - 3.0).abs() < 1e-12, "{x}");
        }
    }

    #[test]
    fn lognormal_is_deterministic() {
        let d = LogNormal::with_mean(7.0, 1.0);
        let mut a = Pcg64::seed_from_u64(99);
        let mut b = Pcg64::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut a).to_bits(), d.sample(&mut b).to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_below_always_in_range(seed: u64, bound in 1u64..1_000_000) {
            let mut rng = Pcg64::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(rng.below(bound) < bound);
            }
        }

        #[test]
        fn prop_exponential_positive(seed: u64, mean in 0.001f64..1e6) {
            let mut rng = Pcg64::seed_from_u64(seed);
            let d = Exponential::with_mean(mean);
            for _ in 0..16 {
                prop_assert!(d.sample(&mut rng) >= 0.0);
            }
        }

        #[test]
        fn prop_lognormal_positive_and_finite(seed: u64, mean in 0.001f64..1e6, sigma in 0.0f64..3.0) {
            let mut rng = Pcg64::seed_from_u64(seed);
            let d = LogNormal::with_mean(mean, sigma);
            for _ in 0..16 {
                let x = d.sample(&mut rng);
                prop_assert!(x > 0.0 && x.is_finite());
            }
        }
    }
}
