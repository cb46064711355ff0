//! Virtualization substrate model for the RAC reproduction.
//!
//! The paper hosts the three-tier website on Xen 3.1 VMs and evaluates how
//! the web system must be *re*-configured when the VM resources change
//! (Levels 1–3: 4/3/2 virtual CPUs and 4/3/2 GB of memory). RAC itself
//! never looks inside the hypervisor — it only observes application-level
//! response time — so the substrate is only what shapes that response
//! time from below:
//!
//! 1. **VM size** — a [`VmSpec`] gives a VM's virtual CPUs, which cap the
//!    cores its tier's work can share, and its memory allocation.
//! 2. **Resource levels** — the paper's three [`ResourceLevel`]s, which
//!    the app/db VM switches between at runtime.
//! 3. **Memory pressure** — worker processes, threads and sessions consume
//!    guest memory; overshooting the VM allocation swaps, degrading
//!    latency super-linearly ([`MemoryModel`]).
//!
//! The simulated testbed places two VMs with 2 and at most 4 vCPUs on the
//! paper's eight cores, and 1.5 GB plus at most 4 GB of memory in its
//! 8 GB, so the host never contends: in `websim` a tier's cores depend
//! on its own VM's vCPUs and load alone.
//!
//! # Example
//!
//! ```
//! use vmstack::{MemoryModel, ResourceLevel};
//!
//! // The paper's strongest and weakest levels (Section 2.2).
//! let strong = ResourceLevel::Level1.vm_spec();
//! let weak = ResourceLevel::Level3.vm_spec();
//! assert_eq!((strong.vcpus(), weak.vcpus()), (4, 2));
//!
//! // The same 1.9 GB working set is free on Level-1 but slows Level-3.
//! let memory = MemoryModel::default();
//! let free = memory.slowdown(1_900.0, strong.memory_mb() as f64);
//! let slowed = memory.slowdown(1_900.0, weak.memory_mb() as f64);
//! assert_eq!(free, 1.0);
//! assert!(slowed > free);
//! ```

mod memory;

pub use memory::MemoryModel;

/// Static resource specification of a VM.
///
/// # Example
///
/// ```
/// use vmstack::VmSpec;
///
/// let spec = VmSpec::new(4, 4096);
/// assert_eq!(spec.vcpus(), 4);
/// assert_eq!(spec.memory_mb(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmSpec {
    vcpus: u32,
    memory_mb: u64,
}

impl VmSpec {
    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics if either resource is zero.
    pub const fn new(vcpus: u32, memory_mb: u64) -> Self {
        assert!(vcpus > 0, "a VM needs at least one vCPU");
        assert!(memory_mb > 0, "a VM needs memory");
        VmSpec { vcpus, memory_mb }
    }

    /// Number of virtual CPUs.
    pub const fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// Memory allocation in MiB.
    pub const fn memory_mb(&self) -> u64 {
        self.memory_mb
    }
}

/// The three VM resource-provisioning levels used throughout the paper's
/// evaluation (Section 2.2): Level-1 is the most powerful.
///
/// # Example
///
/// ```
/// use vmstack::ResourceLevel;
///
/// let spec = ResourceLevel::Level2.vm_spec();
/// assert_eq!(spec.vcpus(), 3);
/// assert_eq!(spec.memory_mb(), 3072);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceLevel {
    /// 4 virtual CPUs, 4 GB memory.
    Level1,
    /// 3 virtual CPUs, 3 GB memory.
    Level2,
    /// 2 virtual CPUs, 2 GB memory.
    Level3,
}

impl ResourceLevel {
    /// All levels, strongest first.
    pub const ALL: [ResourceLevel; 3] = [
        ResourceLevel::Level1,
        ResourceLevel::Level2,
        ResourceLevel::Level3,
    ];

    /// The VM specification for this level.
    pub fn vm_spec(self) -> VmSpec {
        match self {
            ResourceLevel::Level1 => VmSpec::new(4, 4096),
            ResourceLevel::Level2 => VmSpec::new(3, 3072),
            ResourceLevel::Level3 => VmSpec::new(2, 2048),
        }
    }

    /// Short label used in tables and figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ResourceLevel::Level1 => "Level-1",
            ResourceLevel::Level2 => "Level-2",
            ResourceLevel::Level3 => "Level-3",
        }
    }
}

impl std::fmt::Display for ResourceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_match_paper() {
        assert_eq!(ResourceLevel::Level1.vm_spec(), VmSpec::new(4, 4096));
        assert_eq!(ResourceLevel::Level2.vm_spec(), VmSpec::new(3, 3072));
        assert_eq!(ResourceLevel::Level3.vm_spec(), VmSpec::new(2, 2048));
    }

    #[test]
    fn level_ordering_strongest_first() {
        assert!(ResourceLevel::Level1 < ResourceLevel::Level3);
        assert_eq!(ResourceLevel::ALL[0], ResourceLevel::Level1);
    }

    #[test]
    fn display_labels() {
        assert_eq!(ResourceLevel::Level2.to_string(), "Level-2");
    }
}
