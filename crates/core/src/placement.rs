//! Cross-machine tenant placement (the fleet layer).
//!
//! The paper configures `N` workloads on **one** physical machine; a
//! production fleet first has to decide *which* tenant lands on
//! *which* machine. [`place_tenants`] assigns `N` tenants to `K`
//! machines, one [`MachineSpec`] each. An identical fleet is `K` copies
//! of [`MachineSpec::reference`]; a heterogeneous one may differ per
//! machine in capacity, grid resolution and resource ceilings:
//!
//! 1. **Greedy bin-pack seeding**: tenants are ordered by their
//!    gain-weighted *marginal benefit* — how much a tenant's cost
//!    model says it gains between starving (minimum share) and owning
//!    a whole machine, maximized over the fleet's machine classes —
//!    and placed, most resource-sensitive first, on the machine where
//!    they raise the fleet objective least.
//! 2. **Local search**: single-tenant migrations and pairwise swaps
//!    across machines, steepest-descent, until no move improves the
//!    total gain-weighted cost. Every candidate move is priced against
//!    the *destination* machine's search space and scale.
//!
//! Every machine-subset evaluation is a per-machine solve with the
//! Figure 11 greedy enumerator ([`greedy_search_with`]) over the
//! tenants currently on that machine, so the placer optimizes exactly
//! the objective the per-machine advisor's
//! [`recommend`](crate::advisor::VirtualizationDesignAdvisor::recommend)
//! will realize. Subset solves are memoized for the lifetime of one
//! placement, keyed by `(`[`MachineClass`]`, subset)`: machines of the
//! same class share solves (an identical fleet solves each subset
//! once), while different classes never cross-contaminate.
//!
//! Each [`MachineSpec`] carries its own [`SearchSpace`] plus a resource
//! **scale** relative to the fleet's reference machine. A tenant's
//! cost model is written in reference-machine units; on a machine of
//! scale `s`, a share `a` of that machine is priced as `model(a ⊙ s)`
//! (see [`ScaledCostModel`]; at scale 1 that is the model itself).
//! Degradation limits stay machine-relative: `L_i` bounds the tenant's
//! cost against its solo cost *on the machine it is placed on*,
//! exactly what the per-machine advisor will later enforce.
//!
//! Degradation limits make some subsets jointly infeasible; the greedy
//! solve reports those best-effort via `limits_met`, and each unmet
//! limit costs a fixed penalty (`1e9`), steering the local search
//! toward spreading constrained tenants out rather than aborting.

use crate::costmodel::model::CostModel;
use crate::costmodel::whatif::Estimate;
use crate::enumerate::{axis_units, greedy_search_with, MachineClass, SearchOptions, SearchResult};
use crate::problem::{Allocation, QoS, Resource, ResourceVector, SearchSpace};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Local-search round cap: each round applies at most one move, and
/// the search stops earlier when no move improves.
const MAX_ROUNDS: usize = 32;

/// Objective penalty per unmet degradation limit, pricing
/// infeasible-but-rankable subsets.
const INFEASIBILITY_PENALTY: f64 = 1e9;

/// One machine of a (possibly heterogeneous) fleet: its search space
/// plus its resource capacity relative to the fleet's reference
/// machine.
///
/// `scale` maps a share of *this* machine into reference-machine
/// units: a machine with half the reference CPU and memory has `scale
/// = (0.5, 0.5)`, so giving a tenant the whole small machine prices
/// like half the reference machine. Cost models passed to
/// [`place_tenants`] are written in reference units and wrapped per
/// machine by [`ScaledCostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// This machine's search space (its own δ, `min_share`, fixed
    /// shares — capacities and grid resolutions may differ per
    /// machine).
    pub space: SearchSpace,
    /// Per-axis capacity as a fraction of the reference machine.
    pub scale: Allocation,
}

impl MachineSpec {
    /// A reference-sized machine (scale 1 in both resources).
    pub fn reference(space: SearchSpace) -> Self {
        MachineSpec {
            space,
            scale: Allocation::full(),
        }
    }

    /// A machine with `cpu_scale`/`memory_scale` times the reference
    /// machine's resources (disk and network stay at the reference
    /// scale; see [`Self::scaled_vector`] for the full axis set).
    /// Scales must be positive and finite (they may exceed 1 if some
    /// machine outgrows the reference).
    pub fn scaled(space: SearchSpace, cpu_scale: f64, memory_scale: f64) -> Self {
        Self::scaled_vector(
            space,
            Allocation::full()
                .with(Resource::Cpu, cpu_scale)
                .with(Resource::Memory, memory_scale),
        )
    }

    /// A machine whose capacity differs from the reference on an
    /// arbitrary axis set: `scale.get(r)` is this machine's capacity
    /// of resource `r` as a fraction (or multiple) of the reference
    /// machine's.
    pub fn scaled_vector(space: SearchSpace, scale: ResourceVector) -> Self {
        for r in Resource::ALL {
            let v = scale.get(r);
            assert!(
                v > 0.0 && v.is_finite(),
                "{} scale must be positive and finite",
                r.name()
            );
        }
        MachineSpec { space, scale }
    }

    /// The machine's class for cache keying: same space **and** same
    /// scale (on every axis) ⇒ same class; anything differing ⇒
    /// distinct classes, so subset solves can never leak across
    /// machine kinds. The scale is quantized at the same 1e-9
    /// resolution as the space fields (the [`MachineClass`] contract:
    /// dust-level differences share a class, genuinely different
    /// machines never do).
    pub fn class(&self) -> MachineClass {
        Resource::ALL
            .into_iter()
            .fold(MachineClass::of(&self.space), |class, r| {
                class.salted_share(self.scale.get(r))
            })
    }

    /// How many tenants this machine can host ([`machine_capacity`]).
    pub fn capacity(&self) -> usize {
        machine_capacity(&self.space)
    }
}

/// A cost model re-based onto one machine of a fleet: a share `a` of
/// the machine is priced as the wrapped model's cost at `a ⊙ scale`
/// (reference-machine units). At scale 1 every share is multiplied by
/// exactly 1.0, so a reference machine prices like the bare model.
/// Optimizer-call and cache-hit accounting delegate to the wrapped
/// model.
#[derive(Debug, Clone, Copy)]
pub struct ScaledCostModel<M> {
    inner: M,
    scale: Allocation,
}

impl<M: CostModel> ScaledCostModel<M> {
    /// Wrap `inner` (reference units) for a machine of `scale`.
    pub fn new(inner: M, scale: Allocation) -> Self {
        ScaledCostModel { inner, scale }
    }
}

impl<M: CostModel> CostModel for ScaledCostModel<M> {
    fn estimate(&self, alloc: Allocation) -> Estimate {
        self.inner.estimate(alloc.scaled_by(&self.scale))
    }

    fn optimizer_calls(&self) -> u64 {
        self.inner.optimizer_calls()
    }

    fn cache_hits(&self) -> u64 {
        self.inner.cache_hits()
    }
}

/// One accepted local-search move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementMove {
    /// Tenant moved from one machine to another.
    Migrate {
        /// Tenant index.
        tenant: usize,
        /// Source machine.
        from: usize,
        /// Destination machine.
        to: usize,
        /// Fleet-objective reduction from the move.
        improvement: f64,
    },
    /// Two tenants on different machines exchanged places.
    Swap {
        /// First tenant index.
        a: usize,
        /// Second tenant index.
        b: usize,
        /// Fleet-objective reduction from the move.
        improvement: f64,
    },
}

/// The fleet layer's answer: who goes where, and each machine's
/// per-machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementResult {
    /// `assignment[i]` is tenant `i`'s machine.
    pub assignment: Vec<usize>,
    /// Inner-solve result per machine (`None` for empty machines).
    /// `per_machine[m].allocations[j]` configures the `j`-th tenant of
    /// machine `m` in tenant-index order, in *shares of that machine*.
    pub per_machine: Vec<Option<SearchResult>>,
    /// Each machine's class (identical fleets have one class; the
    /// memo cache is keyed by it).
    pub machine_classes: Vec<MachineClass>,
    /// Total gain-weighted cost over the fleet (without penalties).
    pub total_weighted_cost: f64,
    /// Fleet objective (weighted cost plus infeasibility penalties) —
    /// what seeding and local search actually minimize.
    pub objective: f64,
    /// Accepted local-search moves, in order.
    pub moves: Vec<PlacementMove>,
    /// Distinct (machine class, tenant subset) inner solves (memoized).
    pub inner_solves: usize,
    /// The seeding order's gain-weighted marginal benefit per tenant
    /// (maximized over the fleet's machine classes).
    pub marginal_benefits: Vec<f64>,
}

impl PlacementResult {
    /// Tenant indices on machine `m`, ascending (the order of
    /// `per_machine[m].allocations`).
    pub fn tenants_on(&self, m: usize) -> Vec<usize> {
        (0..self.assignment.len())
            .filter(|&i| self.assignment[i] == m)
            .collect()
    }

    /// The recommended allocation of tenant `i`. Every occupied
    /// machine is solved, so this is `Some` for any result of
    /// [`place_tenants`].
    pub fn allocation_of(&self, i: usize) -> Option<Allocation> {
        let m = self.assignment[i];
        let slot = self.tenants_on(m).iter().position(|&t| t == i)?;
        self.per_machine[m].as_ref().map(|r| r.allocations[slot])
    }
}

/// How many tenants one machine with search space `space` can host:
/// the most its δ grid fits when each tenant needs `round(min_share/δ)`
/// (at least one) units of every varied axis, and 0 when some varied
/// axis is finer than the allocation-key resolution. This is exactly
/// the largest tenant count for which the grid solvers return `Some`.
pub fn machine_capacity(space: &SearchSpace) -> usize {
    space
        .varied
        .iter()
        .map(|r| axis_units(space.delta_for(r), space.min_share).map_or(0, |(t, m)| t / m))
        .min()
        .unwrap_or(0)
}

/// Memoized pricing of machine subsets, keyed by machine class, then
/// subset: fleet objective plus the greedy solve that produced it. Two
/// levels so cache probes can use the borrowed `&[usize]` subset
/// without allocating a key.
type SubsetCache = RefCell<HashMap<MachineClass, HashMap<Vec<usize>, (f64, SearchResult)>>>;

/// Memoizing fleet evaluator: (machine, subset) → (objective, inner
/// solve), with solves shared across machines of the same class.
struct FleetSolver<'a, M> {
    specs: Vec<MachineSpec>,
    classes: Vec<MachineClass>,
    qos: &'a [QoS],
    /// `models[i]` prices tenant `i` in reference-machine units.
    models: &'a [M],
    cache: SubsetCache,
    solves: Cell<usize>,
}

impl<'a, M: CostModel> FleetSolver<'a, M> {
    fn new(specs: &[MachineSpec], qos: &'a [QoS], models: &'a [M]) -> Self {
        assert!(!specs.is_empty(), "at least one machine spec");
        assert_eq!(models.len(), qos.len(), "one model per tenant");
        FleetSolver {
            specs: specs.to_vec(),
            classes: specs.iter().map(MachineSpec::class).collect(),
            qos,
            models,
            cache: RefCell::new(HashMap::new()),
            solves: Cell::new(0),
        }
    }

    /// Tenant `i`'s model in shares of machine `m`.
    fn model(&self, m: usize, i: usize) -> ScaledCostModel<&'a M> {
        ScaledCostModel::new(&self.models[i], self.specs[m].scale)
    }

    fn machines(&self) -> usize {
        self.specs.len()
    }

    /// Per-machine host capacities.
    fn capacities(&self) -> Vec<usize> {
        self.specs.iter().map(MachineSpec::capacity).collect()
    }

    /// First machine of each distinct class, in machine order — the
    /// representatives used wherever per-class work must happen
    /// exactly once (marginal benefits, memo lookups).
    fn class_representatives(&self) -> Vec<usize> {
        let mut reps: Vec<usize> = Vec::new();
        for m in 0..self.machines() {
            if !reps.iter().any(|&r| self.classes[r] == self.classes[m]) {
                reps.push(m);
            }
        }
        reps
    }

    /// Objective of hosting `subset` (ascending tenant indices) on
    /// machine `m`: gain-weighted cost plus one infeasibility penalty
    /// per unmet degradation limit, which the greedy solve reports
    /// best-effort via `limits_met`. Penalties are *finite*, so
    /// seeding deltas and local-search improvements stay comparable
    /// (∞ − ∞ would be NaN and silently freeze both), and every
    /// constrained tenant moved off an overloaded machine shrinks the
    /// objective.
    fn objective(&self, m: usize, subset: &[usize]) -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        // Borrowed two-level probe: cache hits (the vast majority of
        // local-search evaluations) allocate nothing.
        if let Some((obj, _)) = self
            .cache
            .borrow()
            .get(&self.classes[m])
            .and_then(|per_class| per_class.get(subset))
        {
            return *obj;
        }
        let space = &self.specs[m].space;
        let qos_sub: Vec<QoS> = subset.iter().map(|&i| self.qos[i]).collect();
        let models_sub: Vec<_> = subset.iter().map(|&i| self.model(m, i)).collect();
        let result = greedy_search_with(space, &qos_sub, &models_sub, &SearchOptions::default());
        self.solves.set(self.solves.get() + 1);
        let unmet = result.limits_met.iter().filter(|&&met| !met).count();
        let obj = result.weighted_cost + INFEASIBILITY_PENALTY * unmet as f64;
        self.cache
            .borrow_mut()
            .entry(self.classes[m])
            .or_default()
            .insert(subset.to_vec(), (obj, result));
        obj
    }

    /// Cached inner solve for `subset` on machine `m` (must have been
    /// priced already).
    fn solution(&self, m: usize, subset: &[usize]) -> Option<SearchResult> {
        self.cache
            .borrow()
            .get(&self.classes[m])
            .and_then(|per_class| per_class.get(subset))
            .map(|(_, r)| r.clone())
    }

    /// Fleet objective of a full assignment.
    fn total(&self, assignment: &[usize]) -> f64 {
        (0..self.machines())
            .map(|m| self.objective(m, &subset_of(assignment, m)))
            .sum()
    }
}

fn subset_of(assignment: &[usize], m: usize) -> Vec<usize> {
    (0..assignment.len())
        .filter(|&i| assignment[i] == m)
        .collect()
}

/// The allocation a tenant holds when starved on `space`: minimum
/// share of every varied resource, the fixed share otherwise.
fn starved_allocation(space: &SearchSpace) -> Allocation {
    Allocation::from_fn(|r| {
        if space.is_varied(r) {
            space.min_share
        } else {
            space.fixed.get(r)
        }
    })
}

/// Assign `N` tenants (their cost models and QoS) to a fleet of one
/// [`MachineSpec`] per machine, each with its own search space, grid
/// resolution and resource scale: greedy marginal-benefit seeding plus
/// steepest-descent migrate/swap local search, all priced through a
/// class-keyed memo of per-machine greedy solves. `models[i]` prices
/// tenant `i` in reference-machine units; each machine sees it through
/// a [`ScaledCostModel`] at that machine's scale.
///
/// # Example
///
/// ```
/// use vda_core::placement::{place_tenants, MachineSpec};
/// use vda_core::problem::{Allocation, QoS, SearchSpace};
/// use vda_core::FnCostModel;
///
/// // Two CPU-hungry tenants and two light ones: cost = α/cpu + 1.
/// let models: Vec<_> = [40.0, 30.0, 1.0, 1.0]
///     .into_iter()
///     .map(|alpha| FnCostModel::new(move |a: Allocation| alpha / a.cpu() + 1.0))
///     .collect();
/// let qos = vec![QoS::default(); 4];
/// let space = SearchSpace::cpu_only(0.5);
///
/// // An identical fleet: two reference machines, one machine class.
/// let identical = vec![MachineSpec::reference(space); 2];
/// let placed = place_tenants(&identical, &qos, &models);
/// assert_ne!(placed.assignment[0], placed.assignment[1]);
/// assert_eq!(placed.machine_classes[0], placed.machine_classes[1]);
///
/// // A mixed fleet: a reference machine and one with half its CPU.
/// let mixed = vec![
///     MachineSpec::reference(space),
///     MachineSpec::scaled(space, 0.5, 1.0),
/// ];
/// let placed = place_tenants(&mixed, &qos, &models);
/// assert_eq!(placed.assignment[0], 0, "the hungriest tenant takes the big machine");
/// assert_ne!(placed.machine_classes[0], placed.machine_classes[1]);
/// ```
pub fn place_tenants<M: CostModel>(
    specs: &[MachineSpec],
    qos: &[QoS],
    models: &[M],
) -> PlacementResult {
    let solver = FleetSolver::new(specs, qos, models);
    let n = qos.len();
    assert!(n >= 1, "at least one tenant");
    let k = solver.machines();
    let capacities = solver.capacities();
    let total_capacity: usize = capacities.iter().sum();
    assert!(
        total_capacity >= n,
        "fleet too small: {k} machines with total capacity {total_capacity} for {n} tenants"
    );

    // Gain-weighted marginal benefit: the cost spread the tenant's
    // model reports between its minimum share and owning a machine,
    // maximized over the fleet's distinct machine classes (evaluated
    // once per class so identical fleets pay exactly one probe
    // pair per tenant). Large spread ⇒ resource-sensitive ⇒ placed
    // first, while machines are still empty.
    let reps = solver.class_representatives();
    let marginal_benefits: Vec<f64> = (0..n)
        .map(|i| {
            reps.iter()
                .map(|&m| {
                    let space = &solver.specs[m].space;
                    let model = solver.model(m, i);
                    qos[i].gain
                        * (model.cost(starved_allocation(space))
                            - model.cost(space.solo_allocation()))
                })
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        marginal_benefits[b]
            .partial_cmp(&marginal_benefits[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    // Greedy bin-pack: put each tenant on the machine where it raises
    // the fleet objective least (first such machine on ties, so the
    // construction is deterministic). Deltas are priced against each
    // candidate machine's own space and scale.
    let mut assignment = vec![usize::MAX; n];
    for &t in &order {
        let mut best: Option<(usize, f64)> = None;
        for (m, &capacity) in capacities.iter().enumerate() {
            let mut subset = subset_of(&assignment, m);
            if subset.len() >= capacity {
                continue;
            }
            let before = solver.objective(m, &subset);
            subset.push(t);
            subset.sort_unstable();
            let delta = solver.objective(m, &subset) - before;
            if best.is_none_or(|(_, d)| delta < d - 1e-12) {
                best = Some((m, delta));
            }
        }
        let (m, _) = best.expect("capacity check guarantees a machine");
        assignment[t] = m;
    }

    // Local search: steepest-descent migrations and swaps, each
    // candidate priced on its destination machine.
    let mut moves = Vec::new();
    let mut current = solver.total(&assignment);
    for _ in 0..MAX_ROUNDS {
        let mut best: Option<(PlacementMove, Vec<usize>, f64)> = None;
        // Single-tenant migrations.
        for t in 0..n {
            let from = assignment[t];
            for (to, &capacity) in capacities.iter().enumerate() {
                if to == from || subset_of(&assignment, to).len() >= capacity {
                    continue;
                }
                let mut cand = assignment.clone();
                cand[t] = to;
                let obj = solver.total(&cand);
                let improvement = current - obj;
                if improvement > 1e-9 && best.as_ref().is_none_or(|(_, _, b)| improvement > *b) {
                    best = Some((
                        PlacementMove::Migrate {
                            tenant: t,
                            from,
                            to,
                            improvement,
                        },
                        cand,
                        improvement,
                    ));
                }
            }
        }
        // Pairwise swaps across machines.
        for a in 0..n {
            for b in (a + 1)..n {
                if assignment[a] == assignment[b] {
                    continue;
                }
                let mut cand = assignment.clone();
                cand.swap(a, b);
                let obj = solver.total(&cand);
                let improvement = current - obj;
                if improvement > 1e-9 && best.as_ref().is_none_or(|(_, _, i)| improvement > *i) {
                    best = Some((PlacementMove::Swap { a, b, improvement }, cand, improvement));
                }
            }
        }
        let Some((mv, cand, improvement)) = best else {
            break;
        };
        assignment = cand;
        current -= improvement;
        moves.push(mv);
    }

    // Materialize per-machine configurations from the memoized solves.
    let per_machine: Vec<Option<SearchResult>> = (0..k)
        .map(|m| {
            let subset = subset_of(&assignment, m);
            if subset.is_empty() {
                None
            } else {
                solver.objective(m, &subset); // ensure cached
                solver.solution(m, &subset)
            }
        })
        .collect();
    let total_weighted_cost = per_machine.iter().flatten().map(|r| r.weighted_cost).sum();

    PlacementResult {
        assignment,
        per_machine,
        machine_classes: solver.classes.clone(),
        total_weighted_cost,
        objective: current,
        moves,
        inner_solves: solver.solves.get(),
        marginal_benefits,
    }
}

/// Fleet objective of an explicit assignment (same pricing as
/// [`place_tenants`]: per-machine greedy solves, penalties for unmet
/// limits) — e.g. to price a hand-made or previously recorded
/// placement against the one the placer chose. `None` when it does
/// not give each tenant one machine of `specs`: a wrong length, or a
/// machine index past the last spec.
pub fn assignment_objective<M: CostModel>(
    specs: &[MachineSpec],
    qos: &[QoS],
    models: &[M],
    assignment: &[usize],
) -> Option<f64> {
    let solver = FleetSolver::new(specs, qos, models);
    (assignment.len() == qos.len() && assignment.iter().all(|&m| m < solver.machines()))
        .then(|| solver.total(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::model::FnCostModel;
    use crate::enumerate::{
        try_coarse_to_fine_search_with, try_exhaustive_search_with, CoarseToFineOptions,
    };

    fn synth(alphas: Vec<f64>) -> Vec<impl CostModel> {
        alphas
            .into_iter()
            .map(|alpha| FnCostModel::new(move |a: Allocation| alpha / a.cpu() + 1.0))
            .collect()
    }

    fn qos_n(n: usize) -> Vec<QoS> {
        vec![QoS::default(); n]
    }

    /// `k` identical reference machines over `space`.
    fn fleet(space: SearchSpace, k: usize) -> Vec<MachineSpec> {
        vec![MachineSpec::reference(space); k]
    }

    #[test]
    fn placement_spreads_hungry_tenants_across_machines() {
        let space = SearchSpace::cpu_only(0.5);
        // Two very hungry tenants and two light ones: each machine
        // should get one hungry tenant.
        let models = synth(vec![50.0, 50.0, 1.0, 1.0]);
        let r = place_tenants(&fleet(space, 2), &qos_n(4), &models);
        assert_ne!(
            r.assignment[0], r.assignment[1],
            "hungry tenants must not share: {:?}",
            r.assignment
        );
        assert!(r.total_weighted_cost.is_finite());
        // Identical machines: one shared class.
        assert_eq!(r.machine_classes[0], r.machine_classes[1]);
    }

    #[test]
    fn placement_beats_round_robin_on_skewed_fleet() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![40.0, 35.0, 30.0, 1.0, 1.0, 1.0]);
        let qos = qos_n(6);
        let machines = fleet(space, 3);
        let placed = place_tenants(&machines, &qos, &models);
        let round_robin: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let rr = assignment_objective(&machines, &qos, &models, &round_robin).unwrap();
        assert!(
            placed.objective <= rr + 1e-9,
            "placement {} must not lose to round-robin {}",
            placed.objective,
            rr
        );
    }

    #[test]
    fn single_machine_matches_plain_search() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![9.0, 4.0, 1.0]);
        let qos = qos_n(3);
        let r = place_tenants(&fleet(space, 1), &qos, &models);
        let direct = greedy_search_with(&space, &qos, &models, &SearchOptions::default());
        assert!(r.assignment.iter().all(|&m| m == 0));
        assert_eq!(r.per_machine[0].as_ref().unwrap(), &direct);
        assert!((r.total_weighted_cost - direct.weighted_cost).abs() < 1e-12);
    }

    #[test]
    fn moves_strictly_improve_the_objective() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![20.0, 18.0, 2.0, 1.5, 1.0]);
        let r = place_tenants(&fleet(space, 2), &qos_n(5), &models);
        for mv in &r.moves {
            let improvement = match mv {
                PlacementMove::Migrate { improvement, .. } => *improvement,
                PlacementMove::Swap { improvement, .. } => *improvement,
            };
            assert!(improvement > 0.0, "{mv:?}");
        }
    }

    #[test]
    fn capacity_is_respected() {
        // min_share 0.25 → at most 4 tenants per machine; 6 tenants
        // need both machines even if one machine would price lower.
        let mut space = SearchSpace::cpu_only(0.5);
        space.min_share = 0.25;
        space.set_delta(0.25);
        let models = synth(vec![1.0; 6]);
        let r = place_tenants(&fleet(space, 2), &qos_n(6), &models);
        for m in 0..2 {
            assert!(r.tenants_on(m).len() <= 4, "{:?}", r.assignment);
        }
    }

    #[test]
    #[should_panic(expected = "fleet too small")]
    fn too_small_fleet_panics() {
        let mut space = SearchSpace::cpu_only(0.5);
        space.min_share = 0.5;
        space.set_delta(0.5);
        let models = synth(vec![1.0; 5]);
        let _ = place_tenants(&fleet(space, 2), &qos_n(5), &models);
    }

    #[test]
    fn infeasible_limits_push_tenants_apart() {
        let space = SearchSpace::cpu_only(0.5);
        // Both tenants need nearly the whole machine to meet their
        // limit: any shared machine pays the infeasibility penalty, so
        // the placer must separate them.
        let models = synth(vec![10.0, 10.0, 0.1, 0.1]);
        let qos = vec![
            QoS::with_limit(1.05),
            QoS::with_limit(1.05),
            QoS::default(),
            QoS::default(),
        ];
        let r = place_tenants(&fleet(space, 2), &qos, &models);
        assert_ne!(r.assignment[0], r.assignment[1], "{:?}", r.assignment);
        assert!(
            r.objective < 1e6,
            "penalty must be avoided: {}",
            r.objective
        );
    }

    #[test]
    fn allocation_lookup_is_consistent() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![12.0, 6.0, 3.0, 1.0]);
        let r = place_tenants(&fleet(space, 2), &qos_n(4), &models);
        for i in 0..4 {
            let a = r.allocation_of(i).expect("feasible fleet");
            assert!(a.cpu() >= space.min_share - 1e-9);
        }
        // Per machine, shares sum to at most one.
        for m in 0..2 {
            let total: f64 = r
                .tenants_on(m)
                .iter()
                .map(|&i| r.allocation_of(i).unwrap().cpu())
                .sum();
            assert!(total <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn subset_memoization_bounds_inner_solves() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        let r = place_tenants(&fleet(space, 2), &qos_n(5), &models);
        // 5 tenants over 2 machines: far fewer distinct subsets than
        // the local search's move evaluations.
        assert!(r.inner_solves <= 62, "{}", r.inner_solves);
    }

    // ---- heterogeneous fleets ----

    /// A big (reference) and a half-scale small machine over the same
    /// CPU-only space.
    fn big_and_small() -> Vec<MachineSpec> {
        let space = SearchSpace::cpu_only(0.5);
        vec![
            MachineSpec::reference(space),
            MachineSpec::scaled(space, 0.5, 1.0),
        ]
    }

    #[test]
    fn machine_class_separates_specs() {
        let specs = big_and_small();
        assert_ne!(specs[0].class(), specs[1].class());
        // A scale difference on the NEW axis separates classes too: no
        // layer may silently ignore the third axis.
        let slow_disk = MachineSpec::scaled_vector(
            specs[0].space,
            ResourceVector::full().with(Resource::DiskBandwidth, 0.5),
        );
        assert_ne!(specs[0].class(), slow_disk.class());
        // Same spec ⇒ same class; scale dust ⇒ same class.
        assert_eq!(
            specs[0].class(),
            MachineSpec::reference(specs[0].space).class()
        );
        let dusty = MachineSpec::scaled(specs[1].space, 0.5 + 1e-13, 1.0);
        assert_eq!(specs[1].class(), dusty.class());
        // A different δ is a different class even at the same scale.
        let mut fine = specs[0].space;
        fine.set_delta(0.01);
        assert_ne!(specs[0].class(), MachineSpec::reference(fine).class());
    }

    #[test]
    fn memo_cache_is_machine_class_specific() {
        // Regression guard against the old machine-independent memo
        // key: the SAME tenant subset priced on two machine classes
        // through one shared solver must give class-specific
        // objectives. A subset-only key would serve the big machine's
        // cached solve for the small machine.
        let specs = big_and_small();
        let models = synth(vec![8.0]);
        let qos = qos_n(1);
        let solver = FleetSolver::new(&specs, &qos, &models);
        // Price on the big machine FIRST so a subset-only memo key
        // would poison the small machine's lookup.
        let on_big = solver.total(&[0]);
        let on_small = solver.total(&[1]);
        // Solo on big: 8/1 + 1 = 9. Solo on small (scale 0.5):
        // 8/0.5 + 1 = 17.
        assert!((on_big - 9.0).abs() < 1e-9, "big {on_big}");
        assert!((on_small - 17.0).abs() < 1e-9, "small {on_small}");
        // Re-pricing must hit the class-keyed cache, not cross over.
        assert_eq!(solver.total(&[1]), on_small);
        assert_eq!(solver.total(&[0]), on_big);
        assert_eq!(solver.solves.get(), 2, "one solve per class");
    }

    #[test]
    fn same_subset_on_two_classes_yields_class_specific_allocations() {
        // A saturating model (no benefit beyond 0.6 of the reference
        // CPU) splits differently on the two classes: on the big
        // machine the hungry tenant stops at 0.6; on the half-scale
        // machine every share still helps, so it takes more.
        let models: Vec<_> = [20.0, 1.0]
            .into_iter()
            .map(|alpha| FnCostModel::new(move |a: Allocation| alpha / a.cpu().min(0.6) + 1.0))
            .collect();
        let qos = qos_n(2);
        let space = SearchSpace::cpu_only(0.5);
        let solve_on = |spec: MachineSpec| {
            place_tenants(&[spec], &qos, &models).per_machine[0]
                .clone()
                .expect("solvable")
        };
        let big = solve_on(MachineSpec::reference(space));
        let small = solve_on(MachineSpec::scaled(space, 0.5, 1.0));
        // Same subset {0,1}, different classes ⇒ different shares.
        assert_ne!(
            big.allocations, small.allocations,
            "class-specific grids must produce class-specific allocations"
        );
        // On the big machine neither hungry tenant needs more than 0.6.
        assert!(
            big.allocations[0].cpu() <= 0.6 + 1e-9,
            "{:?}",
            big.allocations
        );
    }

    #[test]
    fn hungry_tenant_lands_on_the_big_machine() {
        let specs = big_and_small();
        let models = synth(vec![50.0, 1.0]);
        let r = place_tenants(&specs, &qos_n(2), &models);
        assert_eq!(
            r.assignment[0], 0,
            "resource-hungry tenant must take the big machine: {:?}",
            r.assignment
        );
        assert_ne!(r.machine_classes[0], r.machine_classes[1]);
        assert!(r.objective.is_finite());
    }

    #[test]
    fn heterogeneity_aware_placement_beats_smallest_machine_assumption() {
        // Treating every machine as the smallest (the old homogeneous
        // assumption) mis-places tenants; pricing that assignment on
        // the TRUE specs must be no better than heterogeneity-aware
        // placement.
        let space = SearchSpace::cpu_only(0.5);
        let specs = vec![
            MachineSpec::reference(space),
            MachineSpec::reference(space),
            MachineSpec::scaled(space, 0.4, 1.0),
        ];
        let models = synth(vec![30.0, 25.0, 20.0, 2.0, 1.0, 0.5]);
        let qos = qos_n(6);
        let aware = place_tenants(&specs, &qos, &models);
        // Homogeneous-as-smallest: place as if all machines were the
        // small one, then price that assignment on the true fleet.
        let smallest = vec![MachineSpec::scaled(space, 0.4, 1.0); 3];
        let blind = place_tenants(&smallest, &qos, &models);
        let blind_on_true = assignment_objective(&specs, &qos, &models, &blind.assignment).unwrap();
        assert!(
            aware.objective <= blind_on_true + 1e-9,
            "aware {} vs blind-on-true {}",
            aware.objective,
            blind_on_true
        );
    }

    #[test]
    fn capacity_counts_only_what_the_grid_hosts() {
        // δ 0.1 with min_share 0.05: each tenant needs one whole 0.1
        // unit, so the grid hosts 10 tenants, not ⌊1/0.05⌋ = 20.
        let mut space = SearchSpace::cpu_only(0.5);
        space.set_delta(0.1);
        assert_eq!(machine_capacity(&space), 10);
        let opts = SearchOptions::serial();
        let c2f = CoarseToFineOptions::default();
        for n in [10, 11] {
            let models = synth(vec![1.0; n]);
            let qos = qos_n(n);
            let exact = try_exhaustive_search_with(&space, &qos, &models, &opts);
            let refined = try_coarse_to_fine_search_with(&space, &qos, &models, &c2f, &opts);
            assert_eq!(exact.is_some(), n <= 10, "{n} tenants");
            assert_eq!(refined.is_some(), n <= 10, "{n} tenants");
        }
    }

    #[test]
    fn pricing_rejects_assignments_outside_the_fleet() {
        let machines = fleet(SearchSpace::cpu_only(0.5), 2);
        let models = synth(vec![2.0, 1.0]);
        let qos = qos_n(2);
        // Each tenant alone owns its machine: (2/1 + 1) + (1/1 + 1).
        let both = assignment_objective(&machines, &qos, &models, &[0, 1]).unwrap();
        assert!((both - 5.0).abs() < 1e-9, "{both}");
        // Machine 7 of 2 would leave tenant 1 unpriced.
        assert_eq!(
            assignment_objective(&machines, &qos, &models, &[0, 7]),
            None
        );
        // One machine per tenant: no fewer, no more.
        assert_eq!(assignment_objective(&machines, &qos, &models, &[0]), None);
        assert_eq!(
            assignment_objective(&machines, &qos, &models, &[0, 1, 1]),
            None
        );
    }

    #[test]
    fn scaled_model_delegates_accounting() {
        let m = FnCostModel::new(|a: Allocation| 4.0 / a.cpu());
        let scaled = ScaledCostModel::new(&m, Allocation::new(0.5, 1.0));
        // Full share of the half machine = half the reference machine.
        assert!((scaled.cost(Allocation::full()) - 8.0).abs() < 1e-12);
        assert_eq!(scaled.optimizer_calls(), 0);
        assert_eq!(scaled.cache_hits(), 0);
    }

    #[test]
    fn three_axis_placement_spreads_disk_hogs() {
        // Two disk-bound tenants on a cpu+memory+disk grid: the placer
        // must separate them, and every machine's disk budget holds.
        let mut space = SearchSpace::cpu_memory_disk();
        space.set_delta(0.25);
        space.min_share = 0.25;
        let models: Vec<_> = [40.0, 40.0, 1.0, 1.0]
            .into_iter()
            .map(|alpha| {
                FnCostModel::new(move |a: Allocation| alpha / a.disk() + 1.0 / a.cpu() + 1.0)
            })
            .collect();
        let r = place_tenants(&fleet(space, 2), &qos_n(4), &models);
        assert_ne!(
            r.assignment[0], r.assignment[1],
            "disk hogs must not share: {:?}",
            r.assignment
        );
        for m in 0..2 {
            if let Some(res) = &r.per_machine[m] {
                let disk: f64 = res.allocations.iter().map(|a| a.disk()).sum();
                assert!(disk <= 1.0 + 1e-9, "machine {m} disk oversubscribed");
            }
        }
    }

    #[test]
    fn per_machine_capacities_are_respected() {
        // The small machine's finer min_share hosts more tenants; the
        // big one's coarse min_share caps at 2. Capacities must be
        // tracked per machine, not fleet-uniform.
        let mut coarse = SearchSpace::cpu_only(0.5);
        coarse.min_share = 0.5;
        coarse.set_delta(0.25);
        let fine = SearchSpace::cpu_only(0.5);
        let specs = vec![
            MachineSpec::reference(coarse),
            MachineSpec::scaled(fine, 0.5, 1.0),
        ];
        assert_eq!(specs[0].capacity(), 2);
        assert_eq!(specs[1].capacity(), 20);
        let models = synth(vec![1.0; 5]);
        let r = place_tenants(&specs, &qos_n(5), &models);
        assert!(r.tenants_on(0).len() <= 2, "{:?}", r.assignment);
    }
}
