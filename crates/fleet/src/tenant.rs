//! The tenant registry: a seeded generator that stamps out N
//! heterogeneous tenant systems.
//!
//! Each tenant is an independent three-tier web system with its own
//! hardware allocation (app/db VM resource level), workload mix, client
//! population, SLA target, scenario assignment (one of the bundled
//! `.scn` workloads), and simulation seed. The whole roster is a pure
//! function of `(count, seed)`: tenant `i` of a 500-tenant fleet equals
//! tenant `i` of a 200-tenant fleet under the same seed, because each
//! tenant's draws come from a dedicated forked RNG stream.

use scenario::bundled;
use simkernel::{Fnv1a, Pcg64};
use tpcw::Mix;
use vmstack::ResourceLevel;
use websim::SystemSpec;

/// Client populations are drawn uniformly from this inclusive range.
/// The floor sits where configuration starts to genuinely matter (the
/// paper's testbed uses 600); below ~300 the default configuration
/// already meets every SLA choice and the cold-vs-warm comparison
/// degenerates to zero iterations-to-SLA for both cohorts.
pub const CLIENT_RANGE: (usize, usize) = (420, 600);

/// SLA targets (ms) tenants contract for, drawn uniformly. Deliberately
/// tight for the client range above: a freshly-started agent usually
/// violates until it tunes, a well-configured system complies, so
/// iterations-to-SLA discriminates between cold and warm starts.
pub const SLA_CHOICES: [f64; 4] = [800.0, 1_000.0, 1_200.0, 1_400.0];

/// One generated tenant system.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Position in the roster (0-based); doubles as the deterministic
    /// tie-break key for policy transfer.
    pub id: usize,
    /// Base client population (scenario intensity curves scale it).
    pub clients: usize,
    /// TPC-W traffic mix.
    pub mix: Mix,
    /// App/db VM hardware allocation.
    pub level: ResourceLevel,
    /// Contracted SLA response time (ms).
    pub sla_ms: f64,
    /// Bundled scenario driving the tenant's workload dynamics.
    pub scenario: &'static str,
    /// Simulation + agent RNG seed.
    pub seed: u64,
}

impl TenantSpec {
    /// Display name (`t042`), used in CSVs, metrics labels, and donor
    /// provenance columns.
    pub fn name(&self) -> String {
        format!("t{:03}", self.id)
    }

    /// The tenant's feature vector for policy-transfer distance: order
    /// fraction of the mix, resource level, client population, and SLA
    /// target, each scaled to comparable magnitude. Exact `f64`
    /// arithmetic over these draws is deterministic, so so is every
    /// distance comparison built on them.
    pub fn features(&self) -> [f64; 4] {
        let level = ResourceLevel::ALL
            .iter()
            .position(|&l| l == self.level)
            .unwrap_or(0);
        [
            self.mix.order_fraction(),
            level as f64 / 2.0,
            self.clients as f64 / CLIENT_RANGE.1 as f64,
            self.sla_ms / 1_500.0,
        ]
    }

    /// The simulated system this tenant runs on.
    pub fn system_spec(&self) -> SystemSpec {
        SystemSpec::default()
            .with_clients(self.clients)
            .with_mix(self.mix)
            .with_level(self.level)
            .with_seed(self.seed)
    }
}

/// Generates the fleet roster: `count` tenants from `seed`.
pub fn generate(count: usize, seed: u64) -> Vec<TenantSpec> {
    // Domain-separate the registry stream from simulation seeds so a
    // fleet seed equal to a tenant seed cannot correlate their draws.
    let mut registry = Pcg64::seed_from_u64(seed ^ 0x666c_6565_745f_7631); // "fleet_v1"
    let scenarios: Vec<&'static str> = bundled::all().iter().map(|&(name, _)| name).collect();
    (0..count)
        .map(|id| {
            let mut rng = registry.fork(id as u64);
            let clients =
                rng.range_inclusive(CLIENT_RANGE.0 as u64, CLIENT_RANGE.1 as u64) as usize;
            let mix = Mix::ALL[rng.below(Mix::ALL.len() as u64) as usize];
            let level = ResourceLevel::ALL[rng.below(ResourceLevel::ALL.len() as u64) as usize];
            let sla_ms = SLA_CHOICES[rng.below(SLA_CHOICES.len() as u64) as usize];
            let scenario = scenarios[rng.below(scenarios.len() as u64) as usize];
            let seed = rng.next_u64();
            TenantSpec {
                id,
                clients,
                mix,
                level,
                sla_ms,
                scenario,
                seed,
            }
        })
        .collect()
}

/// FNV-1a fingerprint of a roster — stored in fleet checkpoints so a
/// resume under a drifted generator (or different count/seed) is
/// rejected as a mismatch instead of silently mixing fleets.
pub fn roster_fingerprint(roster: &[TenantSpec]) -> u64 {
    let mut hash = Fnv1a::new();
    for t in roster {
        let mix = Mix::ALL.iter().position(|&m| m == t.mix).unwrap_or(0) as u8;
        let level = ResourceLevel::ALL
            .iter()
            .position(|&l| l == t.level)
            .unwrap_or(0) as u8;
        hash.write(&(t.id as u64).to_le_bytes())
            .write(&(t.clients as u64).to_le_bytes())
            .write(&[mix, level])
            .write(&t.sla_ms.to_bits().to_le_bytes())
            .write(t.scenario.as_bytes())
            .write(&t.seed.to_le_bytes());
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_heterogeneous() {
        let a = generate(64, 42);
        let b = generate(64, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        // Heterogeneity: every mix, level, SLA choice, and scenario
        // shows up somewhere in a 64-tenant roster.
        for mix in Mix::ALL {
            assert!(a.iter().any(|t| t.mix == mix), "{mix:?} never drawn");
        }
        for level in ResourceLevel::ALL {
            assert!(a.iter().any(|t| t.level == level), "{level:?} never drawn");
        }
        for sla in SLA_CHOICES {
            assert!(a.iter().any(|t| t.sla_ms == sla), "SLA {sla} never drawn");
        }
        for (name, _) in bundled::all() {
            assert!(
                a.iter().any(|t| t.scenario == name),
                "{name} never assigned"
            );
        }
        let different = generate(64, 43);
        assert_ne!(a, different, "seed must matter");
    }

    #[test]
    fn roster_is_a_prefix_stable_stream() {
        // Growing the fleet must not reshuffle existing tenants.
        let small = generate(10, 7);
        let large = generate(50, 7);
        assert_eq!(small[..], large[..10]);
    }

    #[test]
    fn fingerprint_detects_any_field_drift() {
        let roster = generate(8, 1);
        let fp = roster_fingerprint(&roster);
        assert_eq!(fp, roster_fingerprint(&generate(8, 1)));
        assert_ne!(fp, roster_fingerprint(&generate(8, 2)));
        assert_ne!(fp, roster_fingerprint(&generate(7, 1)));
        let mut bumped = roster.clone();
        bumped[3].sla_ms += 1.0;
        assert_ne!(fp, roster_fingerprint(&bumped));
    }

    #[test]
    fn features_are_bounded_and_distinct_per_field() {
        for t in generate(32, 9) {
            for f in t.features() {
                assert!((0.0..=1.1).contains(&f), "feature {f} out of band");
            }
        }
    }
}
