//! The virtualization design problem (§3 of the paper).
//!
//! `N` workloads, each in its own VM, compete for `M` resources of one
//! physical machine. Choose resource shares `R_i = [r_i1 … r_iM]`
//! minimizing `Σ G_i · Cost(W_i, R_i)` subject to `Σ_i r_ij ≤ 1`,
//! `r_ij ≥ 0`, and per-workload degradation limits
//! `Cost(W_i, R_i) / Cost(W_i, [1…1]) ≤ L_i`.
//!
//! The paper evaluates M = 2 (CPU + memory) only because "most virtual
//! machine monitors currently provide mechanisms for controlling the
//! allocation of these two resources" — its Problem 4.1 formulation is
//! M-dimensional. This module is where the generalization lives: every
//! allocation is a [`ResourceVector`] over the full [`Resource::ALL`]
//! axis set, a [`SearchSpace`] varies an arbitrary [`AxisSet`] with
//! per-axis step sizes, and the historical two-field API survives as
//! thin compat shims ([`ResourceVector::new`],
//! [`ResourceVector::cpu`]/[`ResourceVector::memory`],
//! [`SearchSpace::cpu_only`]/[`SearchSpace::memory_only`]/
//! [`SearchSpace::cpu_and_memory`]) so M = 2 call sites keep working —
//! and keep producing bit-identical results — while new code can open
//! the [`Resource::DiskBandwidth`] (and, once the VMM controls it,
//! [`Resource::Network`]) axis.
//!
//! **Deprecation story for the shims:** they exist to make the M = 2 →
//! M-axis migration mechanical, not as the long-term surface. New code
//! should address axes through [`Resource`] (`get`/`with`/
//! [`ResourceVector::from_fn`]); once nothing in the tree constructs
//! two-axis literals, the shims can gain `#[deprecated]` and
//! eventually go — their semantics (unmentioned axes pinned at a full
//! share) are already fully expressible through the vector API.

use serde::{Deserialize, Serialize};
use vda_vmm::VmConfig;

/// A controllable resource axis. The paper's experiments fix
/// M = 2 (CPU + memory); this enum is the superset the advisor can
/// reason about. [`Resource::ALL`] is the single source of truth for
/// axis iteration — every layer that walks "all axes" walks it in this
/// canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Resource {
    /// CPU share of the physical machine.
    Cpu,
    /// Memory share of the physical machine.
    Memory,
    /// Disk-bandwidth share of the physical machine's disk subsystem
    /// (see [`vda_vmm::PhysicalMachine::disk_slice`]).
    DiskBandwidth,
    /// Network-bandwidth share. Reserved: the axis is representable
    /// end to end (vectors, search spaces, the DP lattice), but the
    /// simulated VMM does not yet model network contention, so no cost
    /// model prices it.
    Network,
}

impl Resource {
    /// All resources, in canonical order.
    pub const ALL: [Resource; 4] = [
        Resource::Cpu,
        Resource::Memory,
        Resource::DiskBandwidth,
        Resource::Network,
    ];

    /// Number of resource axes (`M` at its maximum).
    pub const COUNT: usize = Self::ALL.len();

    /// This resource's index into [`Resource::ALL`]-ordered arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Human-readable axis name.
    pub const fn name(self) -> &'static str {
        match self {
            Resource::Cpu => "cpu",
            Resource::Memory => "memory",
            Resource::DiskBandwidth => "disk",
            Resource::Network => "network",
        }
    }
}

/// A set of resource axes, stored as a bitmask over
/// [`Resource::ALL`]. Iteration order is always canonical, so two
/// layers walking the same set agree on axis order by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AxisSet(u8);

impl AxisSet {
    /// The empty set.
    pub const EMPTY: AxisSet = AxisSet(0);

    /// The set containing the given axes.
    pub fn of(axes: &[Resource]) -> Self {
        axes.iter().fold(AxisSet::EMPTY, |s, &r| s.with(r))
    }

    /// This set plus one axis.
    #[must_use]
    pub const fn with(self, r: Resource) -> Self {
        AxisSet(self.0 | (1 << r.index()))
    }

    /// This set minus one axis.
    #[must_use]
    pub const fn without(self, r: Resource) -> Self {
        AxisSet(self.0 & !(1 << r.index()))
    }

    /// Whether the set contains an axis.
    pub const fn contains(self, r: Resource) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Number of axes in the set.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The axes in canonical ([`Resource::ALL`]) order.
    pub fn iter(self) -> impl Iterator<Item = Resource> {
        Resource::ALL.into_iter().filter(move |r| self.contains(*r))
    }

    /// The raw bitmask (stable across runs; used by cache
    /// fingerprints).
    pub const fn bits(self) -> u8 {
        self.0
    }
}

/// Quantized cache key of a [`ResourceVector`] (10⁻⁴ share resolution
/// per axis).
pub type AllocKey = [u32; Resource::COUNT];

/// [`AllocKey`] steps per unit share: keys quantize every axis at
/// `1 / KEY_STEPS` = 10⁻⁴. Two shares closer than that share one key,
/// and so one cached probe and one cost.
pub const KEY_STEPS: f64 = 1e4;

/// A per-axis vector of resource shares — one VM's `R_i`, a machine's
/// capacity scale, or a per-axis grid step. Indexed by [`Resource`];
/// axes an M = 2 caller never mentions default to a full share of
/// `1.0`, which is exactly the paper's environment (the VM sees the
/// whole, uncontrolled disk).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceVector {
    shares: [f64; Resource::COUNT],
}

/// The historical name for a VM's resource shares; an `Allocation` is
/// a [`ResourceVector`] over [`Resource::ALL`].
pub type Allocation = ResourceVector;

impl ResourceVector {
    /// The same value on every axis.
    pub const fn splat(v: f64) -> Self {
        ResourceVector {
            shares: [v; Resource::COUNT],
        }
    }

    /// Compat shim: the paper's two-field constructor. Disk and
    /// network default to a full share (the M = 2 environment: the VM
    /// sees the whole, uncontrolled device).
    ///
    /// **Deprecation note:** this is the legacy `(cpu, memory)` pair
    /// kept for the paper-era call sites; new code should build
    /// vectors axis-by-axis with [`ResourceVector::from_fn`],
    /// [`ResourceVector::splat`], or [`ResourceVector::with`], which
    /// extend to every [`Resource`] axis instead of hard-coding two.
    pub const fn new(cpu: f64, memory: f64) -> Self {
        let mut shares = [1.0; Resource::COUNT];
        shares[Resource::Cpu.index()] = cpu;
        shares[Resource::Memory.index()] = memory;
        ResourceVector { shares }
    }

    /// The full-machine allocation `[1, …, 1]` used as the degradation
    /// baseline.
    pub const fn full() -> Self {
        Self::splat(1.0)
    }

    /// Compat accessor: the CPU share.
    ///
    /// **Deprecation note:** shorthand for
    /// `get(Resource::Cpu)` — prefer [`ResourceVector::get`] in code
    /// that iterates or abstracts over axes.
    pub const fn cpu(&self) -> f64 {
        self.shares[Resource::Cpu.index()]
    }

    /// Compat accessor: the memory share.
    ///
    /// **Deprecation note:** shorthand for
    /// `get(Resource::Memory)` — prefer [`ResourceVector::get`] in
    /// code that iterates or abstracts over axes.
    pub const fn memory(&self) -> f64 {
        self.shares[Resource::Memory.index()]
    }

    /// The disk-bandwidth share.
    pub const fn disk(&self) -> f64 {
        self.shares[Resource::DiskBandwidth.index()]
    }

    /// Share of one resource.
    pub const fn get(&self, r: Resource) -> f64 {
        self.shares[r.index()]
    }

    /// Copy with one resource share replaced.
    #[must_use]
    pub const fn with(&self, r: Resource, value: f64) -> Self {
        let mut a = *self;
        a.shares[r.index()] = value;
        a
    }

    /// Copy with one resource share shifted by `delta` (may be
    /// negative).
    #[must_use]
    pub const fn shifted(&self, r: Resource, delta: f64) -> Self {
        self.with(r, self.get(r) + delta)
    }

    /// Element-wise product (e.g. re-basing a share of a scaled
    /// machine into reference-machine units).
    #[must_use]
    pub fn scaled_by(&self, scale: &ResourceVector) -> Self {
        let mut a = *self;
        for r in Resource::ALL {
            a.shares[r.index()] *= scale.get(r);
        }
        a
    }

    /// Build a vector axis-by-axis from a closure over
    /// [`Resource::ALL`].
    pub fn from_fn(f: impl FnMut(Resource) -> f64) -> Self {
        let mut f = f;
        let mut shares = [0.0; Resource::COUNT];
        for r in Resource::ALL {
            shares[r.index()] = f(r);
        }
        ResourceVector { shares }
    }

    /// The VMM configuration realizing this allocation.
    pub fn vm_config(&self) -> Result<VmConfig, vda_vmm::VmmError> {
        VmConfig::with_disk(self.cpu(), self.memory(), self.disk())
    }

    /// Quantized cache key (`1 / KEY_STEPS` share resolution per
    /// axis), so repeated greedy probes of the same point hit the
    /// what-if cache despite floating-point dust.
    pub fn key(&self) -> AllocKey {
        let mut k = [0u32; Resource::COUNT];
        for r in Resource::ALL {
            k[r.index()] = (self.get(r) * KEY_STEPS).round() as u32;
        }
        k
    }

    /// Reconstruct the (quantized) vector a cache key encodes.
    pub fn from_key(key: AllocKey) -> Self {
        Self::from_fn(|r| key[r.index()] as f64 / KEY_STEPS)
    }

    /// Whether every axis share is a valid fraction in `(0, 1]`.
    pub fn is_valid(&self) -> bool {
        self.shares
            .iter()
            .all(|&v| (0.0..=1.0 + 1e-9).contains(&v) && v > 0.0)
    }
}

/// Per-workload quality-of-service settings (§3, §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoS {
    /// Degradation limit `L_i ≥ 1`; `f64::INFINITY` disables the
    /// constraint.
    pub degradation_limit: f64,
    /// Benefit gain factor `G_i ≥ 1`; cost improvements to this
    /// workload count `G_i`-fold.
    pub gain: f64,
}

impl Default for QoS {
    fn default() -> Self {
        QoS {
            degradation_limit: f64::INFINITY,
            gain: 1.0,
        }
    }
}

impl QoS {
    /// QoS with only a degradation limit.
    pub fn with_limit(limit: f64) -> Self {
        assert!(limit >= 1.0, "degradation limit must be >= 1");
        QoS {
            degradation_limit: limit,
            ..QoS::default()
        }
    }

    /// QoS with only a gain factor.
    pub fn with_gain(gain: f64) -> Self {
        assert!(gain >= 1.0, "gain factor must be >= 1");
        QoS {
            gain,
            ..QoS::default()
        }
    }

    /// Stable 64-bit fingerprint of the QoS settings (bit patterns of
    /// the limit and the gain). A snapshot's per-machine `warm_key`
    /// hashes it: a changed limit or gain changes the optimum even
    /// when no workload moved, so restore must refuse a fleet rebuilt
    /// with different QoS.
    pub fn fingerprint(&self) -> u64 {
        let mut h = vda_simdb::hash::Fnv64::new();
        h.write_u64(self.degradation_limit.to_bits());
        h.write_u64(self.gain.to_bits());
        h.finish()
    }
}

/// Search-space settings shared by the enumeration algorithms: which
/// axes the advisor controls, the shares of the axes it does not, and
/// the per-axis grid step δ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// The axes the advisor controls; the rest stay at
    /// [`SearchSpace::fixed`].
    pub varied: AxisSet,
    /// Shares used for axes that are *not* varied.
    pub fixed: ResourceVector,
    /// Greedy/exhaustive step δ per axis (the paper uses 5 % on every
    /// axis; each axis may use its own step).
    pub deltas: ResourceVector,
    /// Smallest share any workload may hold in a varied resource (a VM
    /// with zero CPU or memory cannot run its DBMS).
    pub min_share: f64,
}

impl SearchSpace {
    /// A search over `varied`, everything else pinned at `fixed`, with
    /// the paper's default δ = 5 % on every axis.
    pub fn over(varied: AxisSet, fixed: ResourceVector) -> Self {
        assert!(!varied.is_empty(), "at least one axis must be varied");
        SearchSpace {
            varied,
            fixed,
            deltas: ResourceVector::splat(0.05),
            min_share: 0.05,
        }
    }

    /// CPU-only search (§7.3, §7.6): memory fixed at `mem_share` for
    /// every VM.
    ///
    /// **Deprecation note:** one of the three paper-era presets over
    /// [`SearchSpace::over`]; code choosing axes dynamically should
    /// call `over` with an explicit [`AxisSet`] rather than matching
    /// on preset names.
    pub fn cpu_only(mem_share: f64) -> Self {
        Self::over(
            AxisSet::of(&[Resource::Cpu]),
            ResourceVector::new(1.0, mem_share),
        )
    }

    /// Memory-only search (§7.4): CPU fixed at `cpu_share`.
    ///
    /// **Deprecation note:** paper-era preset — see the note on
    /// [`SearchSpace::cpu_only`]; prefer [`SearchSpace::over`] for
    /// axis-generic code.
    pub fn memory_only(cpu_share: f64) -> Self {
        Self::over(
            AxisSet::of(&[Resource::Memory]),
            ResourceVector::new(cpu_share, 1.0),
        )
    }

    /// Joint CPU + memory search (§7.7).
    ///
    /// **Deprecation note:** paper-era preset — see the note on
    /// [`SearchSpace::cpu_only`]; prefer [`SearchSpace::over`] for
    /// axis-generic code.
    pub fn cpu_and_memory() -> Self {
        Self::over(
            AxisSet::of(&[Resource::Cpu, Resource::Memory]),
            ResourceVector::full(),
        )
    }

    /// Joint CPU + memory + disk-bandwidth search — the first axis
    /// beyond the paper's M = 2 (the VMM's disk model was always
    /// there; this opens it to the advisor).
    pub fn cpu_memory_disk() -> Self {
        Self::over(
            AxisSet::of(&[Resource::Cpu, Resource::Memory, Resource::DiskBandwidth]),
            ResourceVector::full(),
        )
    }

    /// Whether one axis is varied.
    pub fn is_varied(&self, r: Resource) -> bool {
        self.varied.contains(r)
    }

    /// The grid step of one axis.
    pub fn delta_for(&self, r: Resource) -> f64 {
        self.deltas.get(r)
    }

    /// Set every axis's grid step to `delta` (the uniform-grid
    /// configuration every M = 2 experiment uses).
    pub fn set_delta(&mut self, delta: f64) {
        self.deltas = ResourceVector::splat(delta);
    }

    /// Copy with every axis's grid step set to `delta`.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.set_delta(delta);
        self
    }

    /// The coarsest step among the varied axes — what a coarse-to-fine
    /// coarse δ must beat to be useful anywhere.
    pub fn max_varied_delta(&self) -> f64 {
        self.varied
            .iter()
            .map(|r| self.delta_for(r))
            .fold(0.0, f64::max)
    }

    /// The varied resources in canonical order.
    pub fn varied(&self) -> Vec<Resource> {
        self.varied.iter().collect()
    }

    /// The default allocation: `1/N` of each varied resource, the
    /// fixed share otherwise (the paper's comparison baseline).
    pub fn default_allocation(&self, n: usize) -> Allocation {
        let even = 1.0 / n as f64;
        ResourceVector::from_fn(|r| {
            if self.is_varied(r) {
                even
            } else {
                self.fixed.get(r)
            }
        })
    }

    /// The most generous feasible allocation for one workload (used as
    /// the degradation baseline `[1,…,1]`): full share of varied
    /// resources, fixed share otherwise.
    pub fn solo_allocation(&self) -> Allocation {
        ResourceVector::from_fn(|r| {
            if self.is_varied(r) {
                1.0
            } else {
                self.fixed.get(r)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_accessors_roundtrip() {
        let a = Allocation::new(0.3, 0.7);
        assert_eq!(a.get(Resource::Cpu), 0.3);
        assert_eq!(a.get(Resource::Memory), 0.7);
        assert_eq!(a.get(Resource::DiskBandwidth), 1.0);
        assert_eq!(a.get(Resource::Network), 1.0);
        let b = a.with(Resource::Cpu, 0.5).shifted(Resource::Memory, -0.2);
        assert!((b.cpu() - 0.5).abs() < 1e-12);
        assert!((b.memory() - 0.5).abs() < 1e-12);
        let d = a.with(Resource::DiskBandwidth, 0.25);
        assert_eq!(d.disk(), 0.25);
        assert_eq!(d.cpu(), a.cpu());
    }

    #[test]
    fn key_is_stable_under_fp_dust() {
        let a = Allocation::new(0.1 + 0.2, 0.5); // 0.30000000000000004
        let b = Allocation::new(0.3, 0.5);
        assert_eq!(a.key(), b.key());
        let c = Allocation::from_key(b.key());
        assert_eq!(b, c);
    }

    #[test]
    fn validity_checks() {
        assert!(Allocation::new(0.5, 0.5).is_valid());
        assert!(!Allocation::new(0.0, 0.5).is_valid());
        assert!(!Allocation::new(1.2, 0.5).is_valid());
        assert!(!Allocation::full()
            .with(Resource::DiskBandwidth, 0.0)
            .is_valid());
    }

    #[test]
    fn axis_set_semantics() {
        let s = AxisSet::of(&[Resource::Cpu, Resource::DiskBandwidth]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Resource::Cpu));
        assert!(!s.contains(Resource::Memory));
        // Canonical iteration order regardless of construction order.
        let t = AxisSet::of(&[Resource::DiskBandwidth, Resource::Cpu]);
        assert_eq!(s, t);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            vec![Resource::Cpu, Resource::DiskBandwidth]
        );
        assert!(s
            .without(Resource::Cpu)
            .without(Resource::DiskBandwidth)
            .is_empty());
    }

    #[test]
    fn resource_all_is_the_canonical_index_order() {
        for (i, r) in Resource::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn scaled_by_is_elementwise() {
        let a = Allocation::new(0.5, 0.8);
        let s = ResourceVector::new(0.5, 1.0).with(Resource::DiskBandwidth, 0.25);
        let b = a.scaled_by(&s);
        assert!((b.cpu() - 0.25).abs() < 1e-12);
        assert!((b.memory() - 0.8).abs() < 1e-12);
        assert!((b.disk() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn qos_constructors_validate() {
        let q = QoS::with_limit(2.5);
        assert_eq!(q.degradation_limit, 2.5);
        assert_eq!(q.gain, 1.0);
        let g = QoS::with_gain(4.0);
        assert_eq!(g.gain, 4.0);
        assert!(g.degradation_limit.is_infinite());
    }

    #[test]
    #[should_panic(expected = "degradation limit")]
    fn qos_rejects_sub_one_limit() {
        let _ = QoS::with_limit(0.5);
    }

    #[test]
    fn search_space_defaults() {
        let s = SearchSpace::cpu_only(0.0625);
        assert_eq!(s.varied(), vec![Resource::Cpu]);
        let d = s.default_allocation(4);
        assert!((d.cpu() - 0.25).abs() < 1e-12);
        assert!((d.memory() - 0.0625).abs() < 1e-12);
        assert_eq!(d.disk(), 1.0, "unmentioned axes stay at full share");
        let solo = s.solo_allocation();
        assert_eq!(solo.cpu(), 1.0);
        assert_eq!(solo.memory(), 0.0625);
    }

    #[test]
    fn joint_search_varies_both() {
        let s = SearchSpace::cpu_and_memory();
        assert_eq!(s.varied(), vec![Resource::Cpu, Resource::Memory]);
        let d = s.default_allocation(2);
        assert_eq!(d.cpu(), 0.5);
        assert_eq!(d.memory(), 0.5);
    }

    #[test]
    fn three_axis_space_includes_disk() {
        let s = SearchSpace::cpu_memory_disk();
        assert_eq!(
            s.varied(),
            vec![Resource::Cpu, Resource::Memory, Resource::DiskBandwidth]
        );
        let d = s.default_allocation(4);
        assert!((d.disk() - 0.25).abs() < 1e-12);
        assert_eq!(s.solo_allocation().disk(), 1.0);
    }

    #[test]
    fn per_axis_deltas_are_settable() {
        let mut s = SearchSpace::cpu_memory_disk();
        s.set_delta(0.1);
        assert_eq!(s.delta_for(Resource::Cpu), 0.1);
        s.deltas = s.deltas.with(Resource::DiskBandwidth, 0.25);
        assert_eq!(s.delta_for(Resource::DiskBandwidth), 0.25);
        assert_eq!(s.delta_for(Resource::Memory), 0.1);
        assert!((s.max_varied_delta() - 0.25).abs() < 1e-12);
    }
}
