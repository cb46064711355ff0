//! The three TPC-W traffic mixes as customer-behaviour Markov chains.

use std::sync::{Arc, OnceLock};

use simkernel::Pcg64;

use crate::interaction::Interaction;

/// One of the three standard TPC-W traffic mixes.
///
/// TPC-W defines each mix by a customer-behaviour transition matrix whose
/// stationary distribution splits browse-class vs order-class requests
/// roughly 95/5 (browsing), 80/20 (shopping) and 50/50 (ordering). The
/// exact reference matrices are reproduced here in spirit: we build each
/// [`MixMatrix`] from the class split plus within-class popularity
/// weights, which preserves the tier-pressure profile the RAC evaluation
/// depends on.
///
/// # Example
///
/// ```
/// use tpcw::Mix;
///
/// let m = Mix::Browsing.matrix();
/// let stationary = m.stationary_distribution();
/// let browse: f64 = tpcw::Interaction::ALL.iter()
///     .filter(|i| i.is_browse())
///     .map(|i| stationary[i.index()])
///     .sum();
/// assert!((browse - 0.95).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mix {
    /// ≈95% browse / 5% order.
    Browsing,
    /// ≈80% browse / 20% order (the TPC-W default).
    Shopping,
    /// ≈50% browse / 50% order — the most write- and session-heavy mix.
    Ordering,
}

impl Mix {
    /// All mixes in the order the paper lists them (Table 2 uses
    /// shopping, ordering, browsing).
    pub const ALL: [Mix; 3] = [Mix::Browsing, Mix::Shopping, Mix::Ordering];

    /// Fraction of order-class interactions in this mix's stationary
    /// behaviour.
    pub fn order_fraction(self) -> f64 {
        match self {
            Mix::Browsing => 0.05,
            Mix::Shopping => 0.20,
            Mix::Ordering => 0.50,
        }
    }

    /// Short label used in tables and figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Mix::Browsing => "browsing",
            Mix::Shopping => "shopping",
            Mix::Ordering => "ordering",
        }
    }

    /// This mix's transition matrix. Every call shares one copy of the
    /// rows per mix, so a fleet of browsers holds three matrices, not
    /// one per browser.
    pub fn matrix(self) -> MixMatrix {
        static MATRICES: OnceLock<[MixMatrix; 3]> = OnceLock::new();
        // `Mix::ALL` lists the mixes in declaration order.
        MATRICES.get_or_init(|| Mix::ALL.map(MixMatrix::for_mix))[self as usize].clone()
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A 14×14 row-stochastic transition matrix over [`Interaction`]s.
///
/// Row `i` gives the probability of the next interaction given the
/// current one. Use [`MixMatrix::sample_next`] to walk the chain and
/// [`MixMatrix::stationary_distribution`] to inspect its long-run
/// behaviour. The rows are immutable and shared, so a clone costs a
/// reference count, not 1.5 KB.
#[derive(Debug, Clone, PartialEq)]
pub struct MixMatrix {
    rows: Arc<[[f64; 14]]>,
}

/// Relative within-class popularity of each interaction (independent of
/// mix). Derived from the TPC-W interaction frequencies: product detail
/// and search dominate browsing; the cart dominates ordering.
fn popularity(i: Interaction) -> f64 {
    match i {
        Interaction::Home => 16.0,
        Interaction::NewProducts => 10.0,
        Interaction::BestSellers => 10.0,
        Interaction::ProductDetail => 34.0,
        Interaction::SearchRequest => 14.0,
        Interaction::SearchResults => 16.0,
        Interaction::ShoppingCart => 32.0,
        Interaction::CustomerRegistration => 16.0,
        Interaction::BuyRequest => 14.0,
        Interaction::BuyConfirm => 12.0,
        Interaction::OrderInquiry => 8.0,
        Interaction::OrderDisplay => 7.0,
        Interaction::AdminRequest => 6.0,
        Interaction::AdminConfirm => 5.0,
    }
}

impl MixMatrix {
    /// Builds the matrix for a mix.
    ///
    /// Construction: from any interaction, the next one is order-class
    /// with the mix's [`order_fraction`](Mix::order_fraction) (nudged by
    /// a small persistence bonus toward staying in the current class,
    /// which models multi-page flows like cart → buy request → buy
    /// confirm), and the interaction within the class is chosen by
    /// TPC-W-style popularity weights.
    pub fn for_mix(mix: Mix) -> Self {
        let base_order = mix.order_fraction();
        const PERSISTENCE: f64 = 0.15;
        let rows = Interaction::ALL
            .iter()
            .map(|&from| {
                let order_p = if from.is_order() {
                    (base_order + PERSISTENCE).min(0.95)
                } else {
                    (base_order - PERSISTENCE * base_order).max(0.01)
                };
                let mut row = [0.0f64; 14];
                let browse_total: f64 = Interaction::ALL
                    .iter()
                    .filter(|i| i.is_browse())
                    .map(|&i| popularity(i))
                    .sum();
                let order_total: f64 = Interaction::ALL
                    .iter()
                    .filter(|i| i.is_order())
                    .map(|&i| popularity(i))
                    .sum();
                for &to in &Interaction::ALL {
                    let class_p = if to.is_order() {
                        order_p
                    } else {
                        1.0 - order_p
                    };
                    let within = popularity(to)
                        / if to.is_order() {
                            order_total
                        } else {
                            browse_total
                        };
                    row[to.index()] = class_p * within;
                }
                row
            })
            .collect();
        MixMatrix { rows }
    }

    /// Probability of moving from `from` to `to`.
    pub fn probability(&self, from: Interaction, to: Interaction) -> f64 {
        self.rows[from.index()][to.index()]
    }

    /// Row-wise convex combination of two matrices:
    /// `(1 − t)·a + t·b` with `t` clamped to `[0, 1]`. A convex
    /// combination of row-stochastic matrices is row-stochastic, which
    /// is what lets a scenario drift the traffic mix gradually instead
    /// of hard-switching it.
    pub fn interpolate(a: &MixMatrix, b: &MixMatrix, t: f64) -> MixMatrix {
        let t = t.clamp(0.0, 1.0);
        let rows = a
            .rows
            .iter()
            .zip(b.rows.iter())
            .map(|(ra, rb)| {
                let mut row = [0.0f64; 14];
                for (out, (pa, pb)) in row.iter_mut().zip(ra.iter().zip(rb)) {
                    *out = (1.0 - t) * pa + t * pb;
                }
                row
            })
            .collect();
        MixMatrix { rows }
    }

    /// Samples the next interaction after `from`.
    pub fn sample_next(&self, from: Interaction, rng: &mut Pcg64) -> Interaction {
        let row = &self.rows[from.index()];
        let mut x = rng.f64();
        for (idx, p) in row.iter().enumerate() {
            if x < *p {
                return Interaction::from_index(idx);
            }
            x -= p;
        }
        Interaction::from_index(13)
    }

    /// The stationary distribution of the chain (power iteration).
    ///
    /// Entry `k` is the long-run fraction of requests that are
    /// `Interaction::from_index(k)`.
    pub fn stationary_distribution(&self) -> [f64; 14] {
        let mut dist = [1.0 / 14.0; 14];
        for _ in 0..200 {
            let mut next = [0.0f64; 14];
            for (i, row) in self.rows.iter().enumerate() {
                for (j, p) in row.iter().enumerate() {
                    next[j] += dist[i] * p;
                }
            }
            dist = next;
        }
        dist
    }

    /// Verifies every row sums to 1 (within tolerance); used by tests and
    /// debug assertions.
    pub fn is_stochastic(&self) -> bool {
        self.rows.iter().all(|row| {
            let s: f64 = row.iter().sum();
            (s - 1.0).abs() < 1e-9 && row.iter().all(|p| *p >= 0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matrices_are_stochastic() {
        for mix in Mix::ALL {
            assert!(mix.matrix().is_stochastic(), "{mix} matrix not stochastic");
            assert_eq!(
                mix.matrix(),
                MixMatrix::for_mix(mix),
                "{mix} shares another's rows"
            );
        }
    }

    #[test]
    fn interpolation_stays_stochastic_and_hits_endpoints() {
        let a = Mix::Shopping.matrix();
        let b = Mix::Ordering.matrix();
        for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!(
                MixMatrix::interpolate(&a, &b, t).is_stochastic(),
                "blend at t={t} not stochastic"
            );
        }
        assert_eq!(MixMatrix::interpolate(&a, &b, 0.0), a);
        assert_eq!(MixMatrix::interpolate(&a, &b, 1.0), b);
        // Out-of-range fractions clamp to the endpoints.
        assert_eq!(MixMatrix::interpolate(&a, &b, -3.0), a);
        assert_eq!(MixMatrix::interpolate(&a, &b, 7.0), b);
        // The blend moves probability monotonically: halfway sits
        // between the endpoints entry-wise.
        let mid = MixMatrix::interpolate(&a, &b, 0.5);
        for from in Interaction::ALL {
            for to in Interaction::ALL {
                let (pa, pb) = (a.probability(from, to), b.probability(from, to));
                let pm = mid.probability(from, to);
                assert!(
                    (pm - (pa + pb) / 2.0).abs() < 1e-12,
                    "{from:?}->{to:?} midpoint off"
                );
            }
        }
    }

    fn stationary_order_fraction(mix: Mix) -> f64 {
        let m = mix.matrix();
        let dist = m.stationary_distribution();
        Interaction::ALL
            .iter()
            .filter(|i| i.is_order())
            .map(|i| dist[i.index()])
            .sum()
    }

    #[test]
    fn stationary_ratios_match_tpcw_targets() {
        let browsing = stationary_order_fraction(Mix::Browsing);
        let shopping = stationary_order_fraction(Mix::Shopping);
        let ordering = stationary_order_fraction(Mix::Ordering);
        assert!(
            (browsing - 0.05).abs() < 0.02,
            "browsing order fraction {browsing}"
        );
        assert!(
            (shopping - 0.20).abs() < 0.04,
            "shopping order fraction {shopping}"
        );
        assert!(
            (ordering - 0.50).abs() < 0.06,
            "ordering order fraction {ordering}"
        );
        assert!(browsing < shopping && shopping < ordering);
    }

    #[test]
    fn sampled_walk_matches_stationary() {
        let mix = Mix::Shopping;
        let m = mix.matrix();
        let mut rng = Pcg64::seed_from_u64(99);
        let mut current = Interaction::Home;
        let mut orders = 0u32;
        let n = 200_000;
        for _ in 0..n {
            current = m.sample_next(current, &mut rng);
            if current.is_order() {
                orders += 1;
            }
        }
        let frac = orders as f64 / n as f64;
        let expected = stationary_order_fraction(mix);
        assert!(
            (frac - expected).abs() < 0.01,
            "sampled {frac} vs stationary {expected}"
        );
    }

    #[test]
    fn order_flows_persist() {
        // From an order-class page, staying in the order class is more
        // likely than the base rate (cart → buy request → buy confirm).
        let m = Mix::Shopping.matrix();
        let from_order: f64 = Interaction::ALL
            .iter()
            .filter(|i| i.is_order())
            .map(|&to| m.probability(Interaction::ShoppingCart, to))
            .sum();
        let from_browse: f64 = Interaction::ALL
            .iter()
            .filter(|i| i.is_order())
            .map(|&to| m.probability(Interaction::Home, to))
            .sum();
        assert!(from_order > from_browse);
    }

    #[test]
    fn labels_and_order() {
        assert_eq!(Mix::Ordering.to_string(), "ordering");
        assert_eq!(Mix::ALL[0], Mix::Browsing);
        assert!(Mix::Browsing.order_fraction() < Mix::Ordering.order_fraction());
    }

    proptest! {
        #[test]
        fn prop_sample_next_total(seed: u64) {
            let m = Mix::Ordering.matrix();
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut cur = Interaction::Home;
            for _ in 0..64 {
                cur = m.sample_next(cur, &mut rng);
                // Any of the 14 interactions is valid; index must be dense.
                prop_assert!(cur.index() < 14);
            }
        }
    }
}
