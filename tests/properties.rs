//! Property tests for the load-bearing kernels, cross-crate.
//!
//! These pin the numerical/combinatorial foundations the measurement
//! engine and the RL pipeline stand on: mixed-radix state indexing,
//! streaming statistics, the calibrated samplers, and configuration
//! range validation. Each property is checked against a naive reference
//! implementation on randomized inputs.

use proptest::prelude::*;
use rl::IndexSpace;
use simkernel::rng::Exponential;
use simkernel::stats::DurationHistogram;
use simkernel::{Pcg64, SimDuration};
use websim::{Param, ServerConfig};

proptest! {
    // ----------------------------------------------------------------
    // rl::space — mixed-radix index <-> coordinates
    // ----------------------------------------------------------------

    #[test]
    fn space_round_trips_over_arbitrary_shapes(
        dims in proptest::collection::vec(1usize..6, 1..6),
        seed: u64,
    ) {
        let space = IndexSpace::new(dims.clone());
        let index = (seed as usize) % space.len();
        let coords = space.decode(index);
        prop_assert_eq!(coords.len(), dims.len());
        for (c, d) in coords.iter().zip(&dims) {
            prop_assert!(c < d, "coordinate {c} out of bound {d}");
        }
        prop_assert_eq!(space.encode(&coords), index);
    }

    #[test]
    fn space_encode_is_row_major_and_dense(
        dims in proptest::collection::vec(1usize..5, 1..5),
    ) {
        // Iterating all coordinates in odometer order must enumerate
        // 0..len exactly — the Q-table relies on dense row-major states.
        let space = IndexSpace::new(dims);
        let indices: Vec<usize> = space.iter().map(|c| space.encode(&c)).collect();
        prop_assert_eq!(indices, (0..space.len()).collect::<Vec<_>>());
    }

    // ----------------------------------------------------------------
    // simkernel::stats — histogram percentile vs naive sorted reference
    // ----------------------------------------------------------------

    #[test]
    fn percentile_tracks_naive_reference_within_bucket_error(
        micros in proptest::collection::vec(1u64..10_000_000, 5..80),
        p in 1.0f64..100.0,
    ) {
        let mut hist = DurationHistogram::new();
        for &us in &micros {
            hist.record(SimDuration::from_micros(us));
        }
        let got = hist.percentile(p).expect("non-empty").as_micros();

        // Naive reference: smallest value covering >= p% of samples.
        let mut sorted = micros.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let want = sorted[rank - 1];

        // The histogram guarantees <= 4% relative error per bucket; the
        // discrete rank convention can differ by one sample, so accept
        // either neighbouring order statistic within the error band.
        let lo = sorted[rank.saturating_sub(2)] as f64 * 0.95;
        let hi = sorted[(rank).min(sorted.len() - 1)] as f64 * 1.05 + 1.0;
        prop_assert!(
            (got as f64) >= lo && (got as f64) <= hi,
            "p{p:.1}: histogram {got} outside [{lo:.0}, {hi:.0}] (naive {want})"
        );
    }

    // ----------------------------------------------------------------
    // simkernel::rng — sampler moment sanity
    // ----------------------------------------------------------------

    #[test]
    fn exponential_sample_mean_approaches_parameter(
        mean in 0.5f64..2_000.0,
        seed: u64,
    ) {
        let exp = Exponential::with_mean(mean);
        let mut rng = Pcg64::seed_from_u64(seed);
        let n = 4_000;
        let sum: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum();
        let got = sum / n as f64;
        // Std-error of the mean is mean/sqrt(n) ≈ 1.6%; allow 5 sigma.
        prop_assert!(
            (got - mean).abs() <= mean * 0.08,
            "exponential mean {got:.3} vs parameter {mean:.3}"
        );
    }

    // ----------------------------------------------------------------
    // websim::config — range validation
    // ----------------------------------------------------------------

    #[test]
    fn server_config_with_accepts_exactly_the_declared_range(
        param_idx in 0usize..8,
        value in 0u32..100_000,
    ) {
        let param = Param::ALL[param_idx];
        let (lo, hi) = param.range();
        let result = ServerConfig::default().with(param, value);
        if (lo..=hi).contains(&value) {
            let cfg = result.expect("in-range value accepted");
            prop_assert_eq!(cfg.get(param), value);
            // Other parameters are untouched.
            for &other in Param::ALL.iter().filter(|&&p| p != param) {
                prop_assert_eq!(cfg.get(other), ServerConfig::default().get(other));
            }
        } else {
            prop_assert!(result.is_err(), "{param:?}={value} outside [{lo},{hi}] accepted");
        }
    }

    #[test]
    fn server_config_from_values_round_trips(
        levels in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        // Interpolate each parameter inside its range, build, read back.
        let mut values = [0u32; 8];
        for (i, (param, t)) in Param::ALL.iter().zip(&levels).enumerate() {
            let (lo, hi) = param.range();
            values[i] = lo + ((hi - lo) as f64 * t) as u32;
        }
        let cfg = ServerConfig::from_values(values).expect("interpolated values in range");
        prop_assert_eq!(cfg.values(), values);
    }
}
