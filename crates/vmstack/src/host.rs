//! Physical host and virtual machines.

use std::error::Error;
use std::fmt;

use crate::credit::{CreditScheduler, VmLoad};
use crate::memory::MemoryModel;

/// Identifier of a VM within its [`Host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(usize);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

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
    pub fn new(vcpus: u32, memory_mb: u64) -> Self {
        assert!(vcpus > 0, "a VM needs at least one vCPU");
        assert!(memory_mb > 0, "a VM needs memory");
        VmSpec { vcpus, memory_mb }
    }

    /// Number of virtual CPUs.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// Memory allocation in MiB.
    pub fn memory_mb(&self) -> u64 {
        self.memory_mb
    }
}

/// Error raised by [`Host`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The requested VM memory exceeds what remains unallocated on the
    /// host (`requested`, `available` in MiB).
    InsufficientMemory {
        /// MiB requested by the new/updated spec.
        requested: u64,
        /// MiB still unallocated on the host.
        available: u64,
    },
    /// The VM id does not exist on this host.
    UnknownVm(VmId),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::InsufficientMemory {
                requested,
                available,
            } => {
                write!(f, "insufficient host memory: requested {requested} MiB, {available} MiB available")
            }
            HostError::UnknownVm(id) => write!(f, "unknown vm: {id}"),
        }
    }
}

impl Error for HostError {}

/// A virtual machine on a [`Host`].
///
/// The web-system simulator asks a VM for its
/// [`service_multiplier`](Vm::service_multiplier) — the factor by which
/// CPU demands stretch given current load — and otherwise treats the VM
/// as opaque, mirroring the paper's non-intrusive agent.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    id: VmId,
    spec: VmSpec,
    weight: f64,
    /// Effective cores granted by the host scheduler; defaults to the vCPU
    /// count and is refreshed by [`Host::rebalance`] under host contention.
    effective_cores: f64,
}

impl Vm {
    /// Identifier within the host.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// Current resource specification.
    pub fn spec(&self) -> VmSpec {
        self.spec
    }

    /// Scheduler weight (Xen default 256).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Effective physical cores currently granted by the host.
    pub fn effective_cores(&self) -> f64 {
        self.effective_cores
    }

    /// CPU-time multiplier (≥ 1) when `runnable_tasks` tasks are runnable
    /// on this VM.
    ///
    /// Two effects compose multiplicatively:
    ///
    /// * **processor sharing** — with more runnable tasks than effective
    ///   cores, each task advances at `tasks / cores` of full speed;
    /// * **concurrency overhead** — every runnable task adds a small
    ///   per-task cost even below saturation (this makes huge worker pools
    ///   counter-productive, per the paper's Figure 2).
    pub fn cpu_multiplier(&self, runnable_tasks: f64) -> f64 {
        let tasks = runnable_tasks.max(0.0);
        let sharing = (tasks / self.effective_cores).max(1.0);
        let overhead = 1.0 + Host::CONCURRENCY_OVERHEAD * tasks;
        sharing * overhead
    }

    /// Memory-pressure factor (≥ 1) for a guest working set of
    /// `used_memory_mb` under the default [`MemoryModel`]; see
    /// [`MemoryModel::slowdown`]. Unlike [`cpu_multiplier`](Vm::cpu_multiplier)
    /// this models swapping, whose cost is I/O *waiting* — callers
    /// typically convert the excess over 1.0 into additive latency rather
    /// than stretching CPU time.
    pub fn memory_slowdown(&self, used_memory_mb: f64) -> f64 {
        MemoryModel::default().slowdown(used_memory_mb, self.spec.memory_mb as f64)
    }

    /// Combined latency multiplier: CPU sharing/overhead × memory
    /// pressure. A convenient single-factor summary for coarse models.
    pub fn service_multiplier(&self, runnable_tasks: f64, used_memory_mb: f64) -> f64 {
        self.cpu_multiplier(runnable_tasks) * self.memory_slowdown(used_memory_mb)
    }
}

/// A physical machine hosting VMs, in the style of the paper's testbed
/// (two quad-core Xeons, 8 GB memory, Xen 3.1).
///
/// Memory is partitioned (a VM's allocation is reserved); CPU is shared
/// by the [`CreditScheduler`]. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    scheduler: CreditScheduler,
    memory_mb: u64,
    vms: Vec<Vm>,
}

impl Host {
    /// Per-runnable-task concurrency overhead of every VM (context
    /// switches, cache pressure).
    pub const CONCURRENCY_OVERHEAD: f64 = 0.0015;

    /// Creates a host with `cores` physical cores and `memory_mb` MiB of
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if either resource is zero.
    pub fn new(cores: u32, memory_mb: u64) -> Self {
        assert!(
            cores > 0 && memory_mb > 0,
            "host resources must be positive"
        );
        Host {
            scheduler: CreditScheduler::new(cores as f64),
            memory_mb,
            vms: Vec::new(),
        }
    }

    /// Total host memory in MiB.
    pub fn memory_mb(&self) -> u64 {
        self.memory_mb
    }

    /// MiB not yet reserved by any VM.
    pub fn available_memory_mb(&self) -> u64 {
        let used: u64 = self.vms.iter().map(|vm| vm.spec.memory_mb()).sum();
        self.memory_mb.saturating_sub(used)
    }

    /// Creates a VM with the Xen-default weight of 256.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::InsufficientMemory`] if the spec does not fit
    /// in the remaining host memory. vCPUs may be overcommitted (as Xen
    /// allows); memory may not.
    pub fn create_vm(&mut self, spec: VmSpec) -> Result<VmId, HostError> {
        let available = self.available_memory_mb();
        if spec.memory_mb() > available {
            return Err(HostError::InsufficientMemory {
                requested: spec.memory_mb(),
                available,
            });
        }
        let id = VmId(self.vms.len());
        self.vms.push(Vm {
            id,
            spec,
            weight: 256.0,
            effective_cores: spec.vcpus() as f64,
        });
        Ok(id)
    }

    /// Immutable access to a VM.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this host.
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.0]
    }

    /// Number of VMs on the host.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Iterates over all VMs.
    pub fn iter(&self) -> impl Iterator<Item = &Vm> {
        self.vms.iter()
    }

    /// Changes a VM's resource allocation at runtime — the paper's VM
    /// reconfiguration events (e.g. Level-1 → Level-3).
    ///
    /// # Errors
    ///
    /// Returns [`HostError::UnknownVm`] for foreign ids and
    /// [`HostError::InsufficientMemory`] if the new memory size does not
    /// fit alongside the other VMs.
    pub fn reallocate(&mut self, id: VmId, spec: VmSpec) -> Result<(), HostError> {
        if id.0 >= self.vms.len() {
            return Err(HostError::UnknownVm(id));
        }
        let others: u64 = self
            .vms
            .iter()
            .filter(|vm| vm.id != id)
            .map(|vm| vm.spec.memory_mb())
            .sum();
        let available = self.memory_mb.saturating_sub(others);
        if spec.memory_mb() > available {
            return Err(HostError::InsufficientMemory {
                requested: spec.memory_mb(),
                available,
            });
        }
        let vm = &mut self.vms[id.0];
        vm.spec = spec;
        vm.effective_cores = spec.vcpus() as f64;
        Ok(())
    }

    /// Re-runs the credit scheduler for the given per-VM CPU demands (in
    /// cores' worth of runnable work) and updates each VM's
    /// [`effective_cores`](Vm::effective_cores).
    ///
    /// # Panics
    ///
    /// Panics if `demands.len()` differs from [`Host::vm_count`].
    pub fn rebalance(&mut self, demands: &[f64]) {
        assert_eq!(demands.len(), self.vms.len(), "one demand per VM required");
        let loads: Vec<VmLoad> = self
            .vms
            .iter()
            .zip(demands)
            .map(|(vm, &demand)| VmLoad {
                weight: vm.weight,
                cap: vm.spec.vcpus() as f64,
                demand,
            })
            .collect();
        let shares = self.scheduler.allocate(&loads);
        for (vm, share) in self.vms.iter_mut().zip(shares) {
            // A VM with no current demand still schedules instantly when
            // work arrives, so floor at a small fraction of one core.
            vm.effective_cores = share.max(0.25).min(vm.spec.vcpus() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_inspect() {
        let mut host = Host::new(8, 8192);
        let id = host.create_vm(VmSpec::new(4, 4096)).unwrap();
        assert_eq!(host.vm(id).spec().vcpus(), 4);
        assert_eq!(host.available_memory_mb(), 4096);
        assert_eq!(host.vm_count(), 1);
        assert_eq!(id.to_string(), "vm0");
    }

    #[test]
    fn memory_is_partitioned() {
        let mut host = Host::new(8, 4096);
        host.create_vm(VmSpec::new(2, 3072)).unwrap();
        let err = host.create_vm(VmSpec::new(2, 2048)).unwrap_err();
        assert_eq!(
            err,
            HostError::InsufficientMemory {
                requested: 2048,
                available: 1024
            }
        );
        assert!(err.to_string().contains("2048"));
    }

    #[test]
    fn vcpus_can_overcommit() {
        let mut host = Host::new(4, 8192);
        host.create_vm(VmSpec::new(4, 1024)).unwrap();
        assert!(host.create_vm(VmSpec::new(4, 1024)).is_ok());
    }

    #[test]
    fn reallocate_changes_spec() {
        let mut host = Host::new(8, 8192);
        let id = host.create_vm(VmSpec::new(4, 4096)).unwrap();
        host.reallocate(id, VmSpec::new(2, 2048)).unwrap();
        assert_eq!(host.vm(id).spec(), VmSpec::new(2, 2048));
        assert_eq!(host.available_memory_mb(), 6144);
    }

    #[test]
    fn reallocate_checks_memory_against_others() {
        let mut host = Host::new(8, 8192);
        let a = host.create_vm(VmSpec::new(2, 4096)).unwrap();
        let _b = host.create_vm(VmSpec::new(2, 4096)).unwrap();
        assert!(matches!(
            host.reallocate(a, VmSpec::new(2, 5000)),
            Err(HostError::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn reallocate_unknown_vm_errors() {
        let mut host = Host::new(8, 8192);
        assert_eq!(
            host.reallocate(VmId(3), VmSpec::new(1, 128)),
            Err(HostError::UnknownVm(VmId(3)))
        );
    }

    #[test]
    fn service_multiplier_increases_with_load() {
        let mut host = Host::new(8, 8192);
        let id = host.create_vm(VmSpec::new(4, 4096)).unwrap();
        let vm = host.vm(id);
        let light = vm.service_multiplier(1.0, 512.0);
        let heavy = vm.service_multiplier(100.0, 512.0);
        assert!(light >= 1.0);
        assert!(heavy > 5.0 * light);
    }

    #[test]
    fn service_multiplier_memory_pressure() {
        let mut host = Host::new(8, 8192);
        let id = host.create_vm(VmSpec::new(4, 1024)).unwrap();
        let vm = host.vm(id);
        assert!(vm.service_multiplier(1.0, 2048.0) > vm.service_multiplier(1.0, 256.0));
    }

    #[test]
    fn stronger_vm_is_faster_under_same_load() {
        let mut host = Host::new(16, 8192);
        let strong = host
            .create_vm(crate::ResourceLevel::Level1.vm_spec())
            .unwrap();
        let weak = host
            .create_vm(crate::ResourceLevel::Level3.vm_spec())
            .unwrap();
        let load = 32.0;
        assert!(
            host.vm(strong).service_multiplier(load, 1024.0)
                < host.vm(weak).service_multiplier(load, 1024.0)
        );
    }

    #[test]
    fn rebalance_splits_under_contention() {
        let mut host = Host::new(4, 8192);
        let a = host.create_vm(VmSpec::new(4, 2048)).unwrap();
        let b = host.create_vm(VmSpec::new(4, 2048)).unwrap();
        host.rebalance(&[4.0, 4.0]);
        assert!((host.vm(a).effective_cores() - 2.0).abs() < 1e-9);
        assert!((host.vm(b).effective_cores() - 2.0).abs() < 1e-9);
        // Idle neighbour: full vCPU allocation again.
        host.rebalance(&[4.0, 0.0]);
        assert!((host.vm(a).effective_cores() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one demand per VM")]
    fn rebalance_wrong_len_panics() {
        let mut host = Host::new(4, 8192);
        host.create_vm(VmSpec::new(1, 128)).unwrap();
        host.rebalance(&[]);
    }
}
