//! The virtualization design advisor (Figure 3 of the paper).
//!
//! Ties the pieces together: tenants (DBMS + database + workload per
//! VM), per-engine calibrated cost models, the what-if cost estimator,
//! and the configuration enumerator. Also provides the ground-truth
//! oracles the experiments need: actual workload costs from the
//! simulated executor, and the actual-cost optimum for
//! advisor-vs-optimal comparisons (§7.6–7.7).
//!
//! Every search runs through the
//! [`CostModel`](crate::costmodel::CostModel) interface:
//! [`VirtualizationDesignAdvisor::recommend`] /
//! [`VirtualizationDesignAdvisor::recommend_exhaustive`] build one
//! [`WhatIfEstimator`] per tenant, all over the advisor's one
//! [`ProbeCache`], so repeated searches reuse optimizer work, and
//! [`VirtualizationDesignAdvisor::optimal_actual`] builds
//! [`ActualCostModel`] executor oracles.
//!
//! The probe cache is the advisor's only warm state, and it is keyed,
//! never reset: rows hash the model and tenant fingerprints, so a
//! recalibration, drift or move changes a key, and a state that
//! returns finds its old rows until [`ProbeCache::prune`] drops the
//! fingerprints the advisor let go of. A repeat of an unchanged
//! solve re-walks cached rows and pays no optimizer call.
//!
//! Calibrated models are stored **per engine kind**, exactly like the
//! paper's one-time per-DBMS-per-machine calibration. Tenant ↔ model
//! pairing is re-derived from the tenant's engine kind on every
//! lookup, so reordering or swapping tenants (the §7.10 scenario) can
//! never pair a tenant with another engine's calibration.

use crate::costmodel::calibration::{CalibratedModel, CalibrationConfig, Calibrator};
use crate::costmodel::model::ActualCostModel;
use crate::costmodel::whatif::{ProbeCache, WhatIfEstimator};
use crate::enumerate::{
    greedy_search_with, try_coarse_to_fine_search_with, try_exhaustive_search_with,
    CoarseToFineOptions, SearchOptions, SearchResult,
};
use crate::metrics::CostAccounting;
use crate::problem::{Allocation, QoS, SearchSpace};
use crate::refine::{refine, RefineOptions, RefinedModel, RefinementOutcome};
use crate::tenant::Tenant;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use vda_simdb::engines::EngineKind;
use vda_simdb::hash::Fnv64;
use vda_simdb::Result as DbResult;
use vda_vmm::Hypervisor;
use vda_workloads::Workload;

/// A recommendation produced by the advisor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The search outcome (allocations, per-workload estimated costs,
    /// iterations, trace).
    pub result: SearchResult,
    /// Query-optimizer invocations spent producing it.
    pub optimizer_calls: u64,
    /// Estimate-cache hits recorded while producing it.
    pub cache_hits: u64,
}

/// What happened to a tenant's calibrated model during
/// [`VirtualizationDesignAdvisor::transfer_tenant`] — the fleet
/// layer's calibration-management policy, made explicit so a
/// migration can never *silently* reuse a model fit on different
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferCalibration {
    /// Machines physically identical and the destination lacked the
    /// engine kind: the source's calibrated model was copied over
    /// (calibration is per-DBMS **per-machine**, §4.3 — identical
    /// hardware needs no refit).
    Traveled,
    /// The destination already held the *identical* calibration:
    /// nothing to copy.
    ReusedIdentical,
    /// The destination was already calibrated for the kind but
    /// *differently* (different hardware or calibration run): the
    /// tenant adopts the destination's model.
    AdoptedDestination,
    /// The machines are not physically identical and the destination
    /// has no calibration for the kind: the calibrated model did NOT
    /// travel. The tenant is demoted to a what-if prior — the
    /// destination must calibrate (see
    /// [`VirtualizationDesignAdvisor::ensure_calibrated`]) and the
    /// refined model is rebuilt lazily by the usual refinement rounds.
    Demoted,
    /// The source itself had no calibration for the kind.
    SourceUncalibrated,
}

impl TransferCalibration {
    /// Whether the destination can serve estimates for this tenant
    /// without running its own calibration first.
    pub fn destination_ready(self) -> bool {
        !matches!(
            self,
            TransferCalibration::Demoted | TransferCalibration::SourceUncalibrated
        )
    }
}

/// Outcome of [`VirtualizationDesignAdvisor::transfer_tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantTransfer {
    /// The tenant's index on the destination advisor.
    pub index: usize,
    /// What happened to the calibrated model.
    pub calibration: TransferCalibration,
}

/// The advisor: a set of consolidated tenants on one physical machine.
#[derive(Debug)]
pub struct VirtualizationDesignAdvisor {
    hv: Hypervisor,
    tenants: Vec<Tenant>,
    qos: Vec<QoS>,
    /// One calibrated model per engine kind present (computed once per
    /// kind per machine, shared by every tenant of that kind).
    models: Vec<(EngineKind, CalibratedModel)>,
    /// The estimate cache every estimator reads and fills, keyed by
    /// `(calibrated-model fingerprint, tenant fingerprint,
    /// allocation)`: the advisor's own, or the fleet's once
    /// [`Self::attach_probe_cache`] swaps it in, so identical probes
    /// are shared across searches, periods and machines. It holds
    /// every hosted tenant's fingerprint.
    probe: ProbeCache,
    /// Cumulative [`Self::recommend_c2f`] solves. Atomic so the
    /// recommend API stays `&self` and the advisor stays `Sync`.
    solves: AtomicU64,
    calibration_config: CalibrationConfig,
}

// The control plane's re-solve wave solves advisors through shared
// borrows on several threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<VirtualizationDesignAdvisor>();
};

impl VirtualizationDesignAdvisor {
    /// Create an advisor for a physical machine.
    pub fn new(hv: Hypervisor) -> Self {
        VirtualizationDesignAdvisor {
            hv,
            tenants: Vec::new(),
            qos: Vec::new(),
            models: Vec::new(),
            probe: ProbeCache::new(),
            solves: AtomicU64::new(0),
            calibration_config: CalibrationConfig::default(),
        }
    }

    /// Back every estimator with a fleet-wide [`ProbeCache`] instead of
    /// the advisor's own. Entries are keyed by calibrated model and
    /// tenant fingerprint, so a recalibration or workload drift never
    /// reads stale estimates — and two machines pricing the same
    /// tenant under the same calibration share probes. The tenants'
    /// holds move to `cache`.
    pub fn attach_probe_cache(&mut self, cache: ProbeCache) {
        for t in &self.tenants {
            cache.hold_tenant(t.fingerprint());
            self.probe.release_tenant(t.fingerprint());
        }
        self.probe = cache;
    }

    /// The probe cache this advisor's estimators use.
    pub fn probe_cache(&self) -> &ProbeCache {
        &self.probe
    }

    /// Override calibration settings (must be called before
    /// [`Self::calibrate`]).
    pub fn set_calibration_config(&mut self, config: CalibrationConfig) {
        self.calibration_config = config;
    }

    /// Register a tenant with its QoS settings; returns its index.
    pub fn add_tenant(&mut self, tenant: Tenant, qos: QoS) -> usize {
        self.probe.hold_tenant(tenant.fingerprint());
        self.tenants.push(tenant);
        self.qos.push(qos);
        self.tenants.len() - 1
    }

    /// The hypervisor model.
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hv
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// A registered tenant.
    pub fn tenant(&self, i: usize) -> &Tenant {
        &self.tenants[i]
    }

    /// Replace tenant `i`'s workload (dynamic workload changes between
    /// monitoring periods) — [`Tenant::set_workload`] on the hosted
    /// tenant, which keeps its fingerprint in step.
    ///
    /// # Errors
    ///
    /// When a statement of `workload` does not bind against the
    /// tenant's catalog; the tenant is left unchanged.
    pub fn set_tenant_workload(&mut self, i: usize, workload: Workload) -> DbResult<()> {
        self.change_tenant(i, |t| t.set_workload(workload))
    }

    /// Scale tenant `i`'s workload intensity by `factor` —
    /// [`Tenant::scale_workload`] on the hosted tenant.
    pub fn scale_tenant_workload(&mut self, i: usize, factor: f64) {
        self.change_tenant(i, |t| t.scale_workload(factor));
    }

    /// Apply `change` to tenant `i`, moving its hold to the fingerprint
    /// the change leaves it with.
    fn change_tenant<T>(&mut self, i: usize, change: impl FnOnce(&mut Tenant) -> T) -> T {
        let before = self.tenants[i].fingerprint();
        let out = change(&mut self.tenants[i]);
        let after = self.tenants[i].fingerprint();
        if after != before {
            self.probe.hold_tenant(after);
            self.probe.release_tenant(before);
        }
        out
    }

    /// Swap two tenants between their VM slots (the §7.10 scenario:
    /// "the two workloads are switched between the virtual machines").
    /// Allocations attach to VM slots, so after the swap each workload
    /// runs under the other's resources until the manager reacts.
    ///
    /// Calibrated models are keyed by engine kind and cached
    /// estimates by fingerprint, not slot, so the swap cannot
    /// desynchronize tenant ↔ model pairing even when the swapped
    /// tenants run different engines, and each tenant keeps its warm
    /// estimates.
    pub fn swap_tenants(&mut self, i: usize, j: usize) {
        self.tenants.swap(i, j);
        self.qos.swap(i, j);
    }

    /// Move tenant `i` — workload and QoS — onto another machine's
    /// advisor. The fleet layer's migration primitive. Returns the
    /// tenant's destination index plus the calibration-management
    /// verdict ([`TransferCalibration`]).
    ///
    /// Calibration management: a calibrated model travels with the
    /// tenant **only to a physically identical machine** (calibration
    /// is per-DBMS-**per-machine**, §4.3 — identical hardware needs no
    /// refit, so a migration never forces a recalibration the paper
    /// says is unnecessary). Across *non-identical* machines the model
    /// is demoted to a what-if prior: the destination must calibrate
    /// for itself ([`Self::ensure_calibrated`], or the control plane
    /// installing a per-class model via [`Self::install_calibration`])
    /// and the refined model is rebuilt lazily by the usual refinement
    /// rounds. Cached estimates need no handling: they are keyed by
    /// model fingerprint, so a shared [`ProbeCache`] serves the source's
    /// rows exactly when the destination prices with the same model.
    pub fn transfer_tenant(
        &mut self,
        i: usize,
        dest: &mut VirtualizationDesignAdvisor,
    ) -> TenantTransfer {
        let tenant = self.tenants.remove(i);
        let qos = self.qos.remove(i);
        let kind = tenant.engine.kind();
        let calibration = match (self.calibration(kind), dest.calibration(kind)) {
            (Some(m), Some(dm)) if dm == m => TransferCalibration::ReusedIdentical,
            (_, Some(_)) => TransferCalibration::AdoptedDestination,
            // Model travels with the tenant across identical machines.
            (Some(m), None) if self.hv.machine() == dest.hv.machine() => {
                dest.models.push((kind, m.clone()));
                TransferCalibration::Traveled
            }
            // Different physical machine: the model must NOT travel —
            // the destination calibrates for itself.
            (Some(_), None) => TransferCalibration::Demoted,
            (None, None) => TransferCalibration::SourceUncalibrated,
        };
        dest.probe.hold_tenant(tenant.fingerprint());
        self.probe.release_tenant(tenant.fingerprint());
        dest.tenants.push(tenant);
        dest.qos.push(qos);
        TenantTransfer {
            index: dest.tenants.len() - 1,
            calibration,
        }
    }

    /// Deregister tenant `i` — the fleet layer's departure primitive.
    /// Returns the tenant and its QoS settings. Calibrated models stay
    /// (they are per engine kind per machine, not per tenant).
    pub fn remove_tenant(&mut self, i: usize) -> (Tenant, QoS) {
        let tenant = self.tenants.remove(i);
        self.probe.release_tenant(tenant.fingerprint());
        (tenant, self.qos.remove(i))
    }

    /// Per-tenant QoS settings.
    pub fn qos(&self) -> &[QoS] {
        &self.qos
    }

    /// Replace a tenant's QoS settings.
    pub fn set_qos(&mut self, i: usize, qos: QoS) {
        self.qos[i] = qos;
    }

    /// Run optimizer calibration (§4.3) — once per engine kind present,
    /// shared across tenants of that kind, exactly like the one-time
    /// per-machine calibration of the paper. Every model is refit;
    /// estimates cached under a model that comes out different are no
    /// longer looked up, and those of an identical refit stay warm.
    pub fn calibrate(&mut self) {
        self.models.clear();
        self.ensure_calibrated();
    }

    /// Calibrate only the engine kinds that are still missing a model
    /// (e.g. after a cross-hardware [`Self::transfer_tenant`] demoted
    /// a tenant's calibration). Existing calibrations are left
    /// untouched, unlike [`Self::calibrate`], which refits everything.
    pub fn ensure_calibrated(&mut self) {
        let calibrator = Calibrator::with_config(&self.hv, self.calibration_config.clone());
        for t in &self.tenants {
            let kind = t.engine.kind();
            if !self.models.iter().any(|(k, _)| *k == kind) {
                let model = calibrator.calibrate(&t.engine);
                self.models.push((kind, model));
            }
        }
    }

    /// Install a calibrated model for `kind`, replacing any existing
    /// one. The [`ControlPlane`](crate::controlplane::ControlPlane)
    /// uses this to share one per-hardware-class calibration across
    /// machines of identical hardware instead of refitting on every
    /// migration. Estimates are keyed by model fingerprint, so a model
    /// installed before finds its rows again.
    pub fn install_calibration(&mut self, kind: EngineKind, model: CalibratedModel) {
        match self.models.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, m)) => *m = model,
            None => self.models.push((kind, model)),
        }
    }

    /// The calibrated model for an engine kind, if any.
    pub fn calibration(&self, kind: EngineKind) -> Option<&CalibratedModel> {
        self.models.iter().find(|(k, _)| *k == kind).map(|(_, m)| m)
    }

    /// All (engine kind, calibrated model) pairs this machine holds.
    pub fn calibrations(&self) -> &[(EngineKind, CalibratedModel)] {
        &self.models
    }

    /// The calibration settings this advisor calibrates with.
    pub fn calibration_config(&self) -> &CalibrationConfig {
        &self.calibration_config
    }

    /// Whether every registered tenant's engine kind has a calibrated
    /// model.
    pub fn is_calibrated(&self) -> bool {
        !self.tenants.is_empty()
            && self
                .tenants
                .iter()
                .all(|t| self.models.iter().any(|(k, _)| *k == t.engine.kind()))
    }

    /// The calibrated model for tenant `i` (looked up by the tenant's
    /// engine kind).
    pub fn model(&self, i: usize) -> &CalibratedModel {
        self.calibration(self.tenants[i].engine.kind())
            .expect("call calibrate() first")
    }

    /// A what-if estimator for tenant `i` over the advisor's
    /// [`ProbeCache`]. Panics if the tenant's engine kind has no
    /// calibrated model.
    pub fn estimator(&self, i: usize) -> WhatIfEstimator<'_> {
        WhatIfEstimator::with_probe_cache(&self.tenants[i], self.model(i), self.probe.clone())
    }

    /// One estimator per tenant, for a full search.
    fn estimators(&self) -> Vec<WhatIfEstimator<'_>> {
        (0..self.tenants.len()).map(|i| self.estimator(i)).collect()
    }

    /// One executor-backed ground-truth oracle per tenant.
    pub fn actual_models(&self) -> Vec<ActualCostModel<'_>> {
        self.tenants
            .iter()
            .map(|t| ActualCostModel::new(t, &self.hv))
            .collect()
    }

    /// Produce the initial static recommendation with the greedy
    /// enumerator (§4.5).
    pub fn recommend(&self, space: &SearchSpace) -> Recommendation {
        let estimators = self.estimators();
        let result = greedy_search_with(space, &self.qos, &estimators, &SearchOptions::default());
        let accounting = CostAccounting::tally(&estimators);
        Recommendation {
            result,
            optimizer_calls: accounting.optimizer_calls,
            cache_hits: accounting.cache_hits,
        }
    }

    /// The estimate-based optimum over the δ-grid (the paper's
    /// exhaustive-search comparison for §4.5).
    pub fn recommend_exhaustive(&self, space: &SearchSpace) -> Recommendation {
        let estimators = self.estimators();
        let result =
            try_exhaustive_search_with(space, &self.qos, &estimators, &SearchOptions::default())
                .expect("no grid can host the workloads (min_share too large)");
        let accounting = CostAccounting::tally(&estimators);
        Recommendation {
            result,
            optimizer_calls: accounting.optimizer_calls,
            cache_hits: accounting.cache_hits,
        }
    }

    /// Coarse-to-fine recommendation over the advisor's probe cache:
    /// the grid optimum of [`try_coarse_to_fine_search_with`] at the
    /// coarse δ [`CoarseToFineOptions::auto`] picks. Rows are keyed by
    /// model and tenant fingerprint, so a repeat on an unchanged
    /// advisor pays no optimizer call, and a drift or recalibration
    /// pays only for the rows it changed.
    pub fn recommend_c2f(&self, space: &SearchSpace) -> Recommendation {
        self.solves.fetch_add(1, Ordering::Relaxed);
        let estimators = self.estimators();
        let (result, accounting) = solve_c2f(space, &self.qos, &estimators);
        Recommendation {
            result: result.expect("no grid can host the workloads (min_share too large)"),
            optimizer_calls: accounting.optimizer_calls,
            cache_hits: accounting.cache_hits,
        }
    }

    /// What a snapshot keys each machine's placement with besides
    /// `space` and the QoS vector (see
    /// [`warm_key`](crate::enumerate::warm_key)): the coarse δ
    /// ([`CoarseToFineOptions::auto`]) for `space`, the calibration
    /// salt (a fold of every tenant's model fingerprint) and the tenant
    /// fingerprints.
    pub(crate) fn warm_inputs(&self, space: &SearchSpace) -> (CoarseToFineOptions, u64, Vec<u64>) {
        let c2f = CoarseToFineOptions::auto(space, self.tenants.len());
        let mut salt = Fnv64::new();
        for i in 0..self.tenants.len() {
            salt.write_u64(self.model(i).fingerprint());
        }
        let fingerprints = self.tenants.iter().map(Tenant::fingerprint).collect();
        (c2f, salt.finish(), fingerprints)
    }

    /// Cumulative [`Self::recommend_c2f`] solves as `(solves, 0, 0)`.
    /// A transition form: the two zeros stand where delta solves and
    /// lattice reuses were counted, so callers that destructure the
    /// triple keep building.
    pub fn warm_stats(&self) -> (u64, u64, u64) {
        (self.solves.load(Ordering::Relaxed), 0, 0)
    }

    /// Reinstall a snapshot's solve counter.
    pub(crate) fn restore_solves(&mut self, solves: u64) {
        *self.solves.get_mut() = solves;
    }

    /// Actual cost (seconds) of tenant `i` under `alloc` — the
    /// simulation's ground truth.
    pub fn actual_cost(&self, i: usize, alloc: Allocation) -> f64 {
        self.tenants[i].actual_cost(&self.hv, alloc)
    }

    /// Total actual cost over all tenants for a full allocation vector.
    pub fn total_actual(&self, allocations: &[Allocation]) -> f64 {
        allocations
            .iter()
            .enumerate()
            .map(|(i, a)| self.actual_cost(i, *a))
            .sum()
    }

    /// The *actual-cost* optimum over the δ-grid, "obtained by
    /// exhaustively enumerating all feasible allocations and measuring
    /// performance in each one" (§7.6).
    pub fn optimal_actual(&self, space: &SearchSpace) -> SearchResult {
        try_exhaustive_search_with(
            space,
            &self.qos,
            &self.actual_models(),
            &SearchOptions::default(),
        )
        .expect("no grid can host the workloads (min_share too large)")
    }

    /// The default (1/N) allocation vector.
    pub fn default_allocations(&self, space: &SearchSpace) -> Vec<Allocation> {
        vec![space.default_allocation(self.tenants.len()); self.tenants.len()]
    }

    /// Relative actual improvement of `allocations` over the default
    /// allocation: `(T_default − T_alloc) / T_default` (§7.1).
    pub fn actual_improvement(&self, space: &SearchSpace, allocations: &[Allocation]) -> f64 {
        let t_default = self.total_actual(&self.default_allocations(space));
        let t_alloc = self.total_actual(allocations);
        (t_default - t_alloc) / t_default
    }

    /// Relative *estimated* improvement over the default allocation —
    /// the metric of the controlled validation experiments (§7.3–7.5).
    pub fn estimated_improvement(&self, space: &SearchSpace, allocations: &[Allocation]) -> f64 {
        let estimators = self.estimators();
        let default = self.default_allocations(space);
        let t_default: f64 = estimators
            .iter()
            .zip(&default)
            .map(|(e, a)| e.cost(*a))
            .sum();
        let t_alloc: f64 = estimators
            .iter()
            .zip(allocations)
            .map(|(e, a)| e.cost(*a))
            .sum();
        (t_default - t_alloc) / t_default
    }

    /// Fit the initial refinement model for tenant `i` from what-if
    /// estimates (§5.1).
    pub fn fit_refinement_model(&self, i: usize, space: &SearchSpace, grid: usize) -> RefinedModel {
        RefinedModel::fit_initial(space, grid, &self.estimator(i))
    }

    /// Run online refinement (§5) starting from `start`, observing
    /// actual executor costs. Returns the outcome plus the refined
    /// models (for continued dynamic management).
    pub fn refine_recommendation(
        &self,
        space: &SearchSpace,
        start: &[Allocation],
        opts: &RefineOptions,
    ) -> (RefinementOutcome, Vec<RefinedModel>) {
        let mut models: Vec<RefinedModel> = (0..self.tenants.len())
            .map(|i| self.fit_refinement_model(i, space, opts.sample_grid))
            .collect();
        let outcome = refine(
            &mut models,
            space,
            &self.qos,
            start,
            &self.actual_models(),
            opts,
        );
        (outcome, models)
    }
}

/// One coarse-to-fine solve over `estimators` at the coarse δ
/// [`CoarseToFineOptions::auto`] picks for `space`, with the
/// optimizer calls and cache hits the estimators paid. `None` when no
/// grid can host the set. The advisor's recommendations and the
/// control plane's hypothetical pricing both solve through it.
pub(crate) fn solve_c2f(
    space: &SearchSpace,
    qos: &[QoS],
    estimators: &[WhatIfEstimator<'_>],
) -> (Option<SearchResult>, CostAccounting) {
    let c2f = CoarseToFineOptions::auto(space, estimators.len());
    let result =
        try_coarse_to_fine_search_with(space, qos, estimators, &c2f, &SearchOptions::default());
    (result, CostAccounting::tally(estimators))
}

impl Drop for VirtualizationDesignAdvisor {
    /// Release every hosted tenant's hold.
    fn drop(&mut self) {
        for t in &self.tenants {
            self.probe.release_tenant(t.fingerprint());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vda_simdb::engines::Engine;
    use vda_vmm::PhysicalMachine;
    use vda_workloads::tpch;

    fn advisor_two_dss() -> VirtualizationDesignAdvisor {
        let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
        let mut adv = VirtualizationDesignAdvisor::new(hv);
        let cat = tpch::catalog(1.0);
        // Q18 (CPU-heavy) vs Q6 (scan-only): clear CPU asymmetry.
        adv.add_tenant(
            Tenant::new(
                "cpuheavy",
                Engine::pg(),
                cat.clone(),
                tpch::query_workload(18, 2.0),
            )
            .unwrap(),
            QoS::default(),
        );
        adv.add_tenant(
            Tenant::new("ioheavy", Engine::pg(), cat, tpch::query_workload(6, 2.0)).unwrap(),
            QoS::default(),
        );
        adv.calibrate();
        adv
    }

    fn advisor_mixed_engines() -> VirtualizationDesignAdvisor {
        let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
        let mut adv = VirtualizationDesignAdvisor::new(hv);
        let cat = tpch::catalog(1.0);
        adv.add_tenant(
            Tenant::new(
                "pg",
                Engine::pg(),
                cat.clone(),
                tpch::query_workload(18, 2.0),
            )
            .unwrap(),
            QoS::default(),
        );
        adv.add_tenant(
            Tenant::new("db2", Engine::db2(), cat, tpch::query_workload(6, 2.0)).unwrap(),
            QoS::default(),
        );
        adv.calibrate();
        adv
    }

    #[test]
    fn recommend_requires_calibration() {
        let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
        let mut adv = VirtualizationDesignAdvisor::new(hv);
        adv.add_tenant(
            Tenant::new(
                "t",
                Engine::pg(),
                tpch::catalog(1.0),
                tpch::query_workload(6, 1.0),
            )
            .unwrap(),
            QoS::default(),
        );
        assert!(!adv.is_calibrated());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            adv.estimator(0);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn recommendation_shifts_cpu_to_cpu_bound_tenant() {
        let adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let rec = adv.recommend(&space);
        assert!(
            rec.result.allocations[0].cpu() > 0.5,
            "CPU-heavy tenant should win CPU: {:?}",
            rec.result.allocations
        );
        assert!(rec.optimizer_calls > 0);
        // Feasibility.
        let total: f64 = rec.result.allocations.iter().map(|a| a.cpu()).sum();
        assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn greedy_close_to_exhaustive_estimate_optimum() {
        let adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let greedy = adv.recommend(&space);
        let exact = adv.recommend_exhaustive(&space);
        assert!(
            greedy.result.weighted_cost <= exact.result.weighted_cost * 1.05 + 1e-9,
            "greedy {} vs optimal {}",
            greedy.result.weighted_cost,
            exact.result.weighted_cost
        );
    }

    #[test]
    fn shared_cache_amortizes_optimizer_calls_across_searches() {
        let adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let first = adv.recommend(&space);
        assert!(first.optimizer_calls > 0);
        // The same search again is answered from the probe cache.
        let second = adv.recommend(&space);
        assert_eq!(second.optimizer_calls, 0, "{second:?}");
        assert!(second.cache_hits > 0);
        assert_eq!(first.result, second.result);
    }

    #[test]
    fn recommendation_improves_actual_performance() {
        let adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let rec = adv.recommend(&space);
        let imp = adv.actual_improvement(&space, &rec.result.allocations);
        assert!(imp >= -0.02, "advisor must not hurt performance: {imp}");
    }

    #[test]
    fn calibration_is_shared_per_engine_kind() {
        let adv = advisor_two_dss();
        // Both tenants run PgSim: identical models.
        assert_eq!(adv.model(0), adv.model(1));
    }

    #[test]
    fn swap_tenants_moves_workload_and_model() {
        let mut adv = advisor_two_dss();
        let n0 = adv.tenant(0).name.clone();
        let c0 = adv.actual_cost(0, crate::problem::Allocation::new(0.5, 0.5));
        adv.swap_tenants(0, 1);
        assert_eq!(adv.tenant(1).name, n0);
        let c1 = adv.actual_cost(1, crate::problem::Allocation::new(0.5, 0.5));
        assert!((c0 - c1).abs() < 1e-9, "workload must move with the swap");
        // Estimators keep working after the swap (models moved too).
        let _ = adv
            .estimator(0)
            .cost(crate::problem::Allocation::new(0.5, 0.5));
    }

    #[test]
    fn swap_tenants_keeps_engine_model_pairing_for_mixed_engines() {
        // §7.10 regression: swapping tenants of *different* engine
        // kinds must keep each tenant paired with its own engine's
        // calibration, and estimates must move with the tenant.
        let mut adv = advisor_mixed_engines();
        let a = Allocation::new(0.5, 0.5);
        let pg_est = adv.estimator(0).cost(a);
        let db2_est = adv.estimator(1).cost(a);
        let pg_kind = adv.tenant(0).engine.kind();

        adv.swap_tenants(0, 1);
        assert!(adv.is_calibrated(), "swap must not lose calibration");
        // Slot 1 now hosts the pg tenant; its model must be the pg
        // calibration, and its estimate must equal the pre-swap value.
        assert_eq!(adv.tenant(1).engine.kind(), pg_kind);
        assert_eq!(
            adv.estimator(1).cost(a),
            pg_est,
            "estimate must follow the tenant through the swap"
        );
        assert_eq!(adv.estimator(0).cost(a), db2_est);
        // Swapping back restores the original pairing too.
        adv.swap_tenants(0, 1);
        assert_eq!(adv.estimator(0).cost(a), pg_est);
        assert_eq!(adv.estimator(1).cost(a), db2_est);
    }

    #[test]
    fn adding_a_tenant_of_known_kind_stays_calibrated() {
        let mut adv = advisor_two_dss();
        assert!(adv.is_calibrated());
        // Per the paper, calibration is per-DBMS-per-machine: a new
        // tenant on an already-calibrated engine needs no recalibration.
        adv.add_tenant(
            Tenant::new(
                "late",
                Engine::pg(),
                tpch::catalog(1.0),
                tpch::query_workload(1, 1.0),
            )
            .unwrap(),
            QoS::default(),
        );
        assert!(adv.is_calibrated());
        let _ = adv.estimator(2).cost(Allocation::new(0.5, 0.5));
        // A tenant of a *new* kind does require recalibration.
        adv.add_tenant(
            Tenant::new(
                "newkind",
                Engine::db2(),
                tpch::catalog(1.0),
                tpch::query_workload(1, 1.0),
            )
            .unwrap(),
            QoS::default(),
        );
        assert!(!adv.is_calibrated());
        adv.calibrate();
        assert!(adv.is_calibrated());
    }

    /// Attach one probe cache to both advisors, as a fleet does.
    fn share_one_cache(a: &mut VirtualizationDesignAdvisor, b: &mut VirtualizationDesignAdvisor) {
        let cache = ProbeCache::new();
        a.attach_probe_cache(cache.clone());
        b.attach_probe_cache(cache);
    }

    #[test]
    fn transfer_tenant_carries_model_and_cache_to_identical_machine() {
        let mut src = advisor_two_dss();
        let mut dst =
            VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
        share_one_cache(&mut src, &mut dst);
        let a = Allocation::new(0.5, 0.5);
        let warm = src.estimator(0).cost(a); // warms the shared cache
        let t = src.transfer_tenant(0, &mut dst);
        assert_eq!(src.tenant_count(), 1);
        assert_eq!(dst.tenant_count(), 1);
        // Calibrated model traveled: no recalibration needed.
        assert_eq!(t.calibration, TransferCalibration::Traveled);
        assert!(t.calibration.destination_ready());
        assert!(dst.is_calibrated(), "model must travel with the tenant");
        // The destination finds the source's estimates under the
        // traveled model: same answer, zero new optimizer calls.
        let est = dst.estimator(t.index);
        assert_eq!(est.cost(a), warm);
        assert_eq!(est.optimizer_calls(), 0);
        assert!(est.cache_hits() > 0);
    }

    #[test]
    fn transfer_tenant_to_different_machine_demotes_calibration() {
        let mut src = advisor_two_dss();
        let a = Allocation::new(0.5, 0.5);
        let _ = src.estimator(0).cost(a);
        let mut spec = PhysicalMachine::paper_testbed();
        spec.core_ghz *= 2.0;
        let mut dst = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        let t = src.transfer_tenant(0, &mut dst);
        // Calibration is per-machine: the source's model must not be
        // trusted on different hardware.
        assert_eq!(t.calibration, TransferCalibration::Demoted);
        assert!(!t.calibration.destination_ready());
        assert!(!dst.is_calibrated());
        dst.ensure_calibrated();
        assert!(dst.is_calibrated());
        let est = dst.estimator(t.index);
        let _ = est.cost(a);
        assert!(est.optimizer_calls() > 0, "stale cache must not be served");
    }

    #[test]
    fn transfer_across_hardware_recalibrates_to_destination_oracle() {
        // The full calibration-management contract of a cross-hardware
        // migration: the source model must NOT travel, no estimate
        // priced under it may be served, and — after the destination
        // calibrates — the usual refinement rounds must converge the
        // tenant's model to the *destination's* actual-cost oracle,
        // not the source's.
        let mut src = advisor_two_dss();
        let a = Allocation::new(0.5, 0.5);
        let src_model = src.model(0).clone();
        let _ = src.estimator(0).cost(a); // warm rows that must not be served
        let mut spec = PhysicalMachine::paper_testbed();
        spec.core_ghz *= 2.0;
        spec.memory_mb *= 2.0;
        let mut dst = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        let t = src.transfer_tenant(0, &mut dst);
        assert_eq!(t.calibration, TransferCalibration::Demoted);
        // The destination's own model: nothing is served without
        // optimizer work.
        dst.ensure_calibrated();
        assert_ne!(
            dst.model(t.index),
            &src_model,
            "destination must fit its own calibration, not reuse the source's"
        );
        let est = dst.estimator(t.index);
        let _ = est.cost(a);
        assert!(est.optimizer_calls() > 0, "stale cache must not be served");
        // Refinement on the destination converges toward the
        // destination's ground truth within the usual rounds.
        let space = SearchSpace::cpu_only(0.5);
        let rec = dst.recommend(&space);
        let (_, models) =
            dst.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
        let check = rec.result.allocations[t.index];
        let actual = dst.actual_cost(t.index, check);
        let refined = models[t.index].predict(check);
        let rel_err = (refined - actual).abs() / actual.max(1e-12);
        assert!(
            rel_err < 0.05,
            "refined model must track the destination oracle: rel err {rel_err}"
        );
    }

    #[test]
    fn transfer_to_identically_calibrated_machine_reuses_calibration() {
        let mut src = advisor_two_dss();
        let mut dst = advisor_two_dss(); // same hardware, same calibration
        share_one_cache(&mut src, &mut dst);
        let a = Allocation::new(0.5, 0.5);
        let warm = src.estimator(0).cost(a);
        let t = src.transfer_tenant(0, &mut dst);
        assert_eq!(t.calibration, TransferCalibration::ReusedIdentical);
        // The warm rows stay valid under the identical calibration.
        let est = dst.estimator(t.index);
        assert_eq!(est.cost(a), warm);
        assert_eq!(est.optimizer_calls(), 0);
    }

    #[test]
    fn install_calibration_replaces_and_cold_starts() {
        let mut adv = advisor_two_dss();
        let a = Allocation::new(0.5, 0.5);
        let _ = adv.estimator(0).cost(a);
        let kind = adv.tenant(0).engine.kind();
        let same = adv.model(0).clone();
        // Identical model: caches stay warm.
        adv.install_calibration(kind, same);
        let est = adv.estimator(0);
        let _ = est.cost(a);
        assert_eq!(
            est.optimizer_calls(),
            0,
            "identical install must keep caches"
        );
        // A genuinely different calibration prices from rows of its
        // own, cold at first.
        let mut spec = PhysicalMachine::paper_testbed();
        spec.core_ghz *= 2.0;
        let other_hv = Hypervisor::new(spec);
        let other = Calibrator::with_config(&other_hv, adv.calibration_config().clone())
            .calibrate(&adv.tenant(0).engine.clone());
        adv.install_calibration(kind, other.clone());
        assert_eq!(adv.calibration(kind), Some(&other));
        let est = adv.estimator(0);
        let _ = est.cost(a);
        assert!(est.optimizer_calls() > 0, "stale cache must be dropped");
    }

    #[test]
    fn a_reinstalled_calibration_finds_its_rows() {
        let mut adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let first = adv.recommend(&space);
        let kind = adv.tenant(0).engine.kind();
        let original = adv.model(0).clone();
        let mut spec = PhysicalMachine::paper_testbed();
        spec.core_ghz *= 2.0;
        let other =
            Calibrator::with_config(&Hypervisor::new(spec), adv.calibration_config().clone())
                .calibrate(&adv.tenant(0).engine.clone());
        adv.install_calibration(kind, other);
        adv.install_calibration(kind, original);
        // Rows are keyed by the model fingerprint, which is back.
        let again = adv.recommend(&space);
        assert_eq!(again.optimizer_calls, 0, "{again:?}");
        assert_eq!(again.result, first.result);
    }

    #[test]
    fn a_reverted_workload_is_served_from_its_old_rows() {
        let mut adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let original = adv.tenant(0).workload.clone();
        let first = adv.recommend(&space);
        adv.set_tenant_workload(0, tpch::query_workload(1, 2.0))
            .unwrap();
        let drifted = adv.recommend(&space);
        assert!(drifted.optimizer_calls > 0, "{drifted:?}");
        // A → B → A: the drift did not evict A's generation.
        adv.set_tenant_workload(0, original).unwrap();
        let reverted = adv.recommend(&space);
        assert_eq!(reverted.optimizer_calls, 0, "{reverted:?}");
        assert_eq!(reverted.result, first.result);
    }

    #[test]
    fn holds_follow_tenants_through_transfers_attaches_and_drops() {
        let shared = ProbeCache::new();
        let mut src = advisor_two_dss();
        let mut dst =
            VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
        src.attach_probe_cache(shared.clone());
        dst.attach_probe_cache(shared.clone());
        let live: std::collections::HashSet<u64> = src
            .calibrations()
            .iter()
            .map(|(_, m)| m.fingerprint())
            .collect();
        let tenants = |cache: &ProbeCache| -> Vec<u64> {
            let mut fps: Vec<u64> = cache.export().iter().map(|r| r.1).collect();
            fps.dedup();
            fps
        };
        src.recommend(&SearchSpace::cpu_only(0.5));
        let moved = src.tenant(0).fingerprint();
        assert_eq!(tenants(&shared).len(), 2);
        // A migration keeps the tenant held.
        src.transfer_tenant(0, &mut dst);
        shared.prune(&live);
        assert_eq!(tenants(&shared).len(), 2);
        // Attaching another cache releases the shared one's holds.
        src.attach_probe_cache(ProbeCache::new());
        shared.prune(&live);
        assert_eq!(tenants(&shared), [moved]);
        // So does dropping the advisor.
        drop(dst);
        shared.prune(&live);
        assert!(shared.is_empty());
    }

    #[test]
    fn identical_tenants_bill_the_serial_tally_in_parallel() {
        // Two tenants with one workload share every probe row, so a
        // parallel search has them look up the same keys at once.
        let twins = || {
            let mut adv = advisor_two_dss();
            adv.set_tenant_workload(0, adv.tenant(1).workload.clone())
                .unwrap();
            assert_eq!(adv.tenant(0).fingerprint(), adv.tenant(1).fingerprint());
            adv
        };
        let space = SearchSpace::cpu_only(0.5);
        let tally = |estimators: &[WhatIfEstimator<'_>]| {
            let accounting = CostAccounting::tally(estimators);
            (accounting.optimizer_calls, accounting.cache_hits)
        };
        // The serial tallies: one serial search over a fresh twin's
        // estimators each.
        let greedy = {
            let adv = twins();
            let estimators = adv.estimators();
            greedy_search_with(&space, adv.qos(), &estimators, &SearchOptions::serial());
            tally(&estimators)
        };
        let exhaustive = {
            let adv = twins();
            let estimators = adv.estimators();
            try_exhaustive_search_with(&space, adv.qos(), &estimators, &SearchOptions::serial())
                .unwrap();
            tally(&estimators)
        };
        let billed = |rec: Recommendation| (rec.optimizer_calls, rec.cache_hits);
        for _ in 0..20 {
            assert_eq!(billed(twins().recommend(&space)), greedy);
            assert_eq!(billed(twins().recommend_exhaustive(&space)), exhaustive);
        }
    }

    #[test]
    fn refinement_runs_end_to_end() {
        let adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let rec = adv.recommend(&space);
        let (outcome, models) =
            adv.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
        assert_eq!(models.len(), 2);
        assert!(outcome.iterations >= 1);
        let total: f64 = outcome.final_allocations.iter().map(|a| a.cpu()).sum();
        assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn a_repeat_c2f_solve_pays_only_for_changed_rows() {
        let mut adv = advisor_two_dss();
        let space = SearchSpace::cpu_only(0.5);
        let first = adv.recommend_c2f(&space);
        assert!(first.optimizer_calls > 0);
        // Unchanged advisor: every probe is a cached row.
        let repeat = adv.recommend_c2f(&space);
        assert_eq!(repeat.optimizer_calls, 0, "{repeat:?}");
        assert_eq!(repeat.result, first.result);
        assert_eq!(adv.warm_stats(), (2, 0, 0), "every call is a solve");
        // One tenant drifts: its rows are new, the other tenant's are
        // cached, and the answer is a fresh advisor's bit for bit.
        adv.scale_tenant_workload(0, 3.0);
        let drifted = adv.recommend_c2f(&space);
        assert!(
            0 < drifted.optimizer_calls && drifted.optimizer_calls < first.optimizer_calls,
            "{drifted:?}"
        );
        let mut fresh = advisor_two_dss();
        fresh.scale_tenant_workload(0, 3.0);
        assert_eq!(drifted.result, fresh.recommend_c2f(&space).result);
        assert_eq!(adv.recommend_c2f(&space).optimizer_calls, 0);
        // A recalibration changes both tenants' rows (one engine kind):
        // the solve pays what a fresh advisor under that model pays.
        let kind = adv.tenant(0).engine.kind();
        let old = adv.calibration(kind).unwrap().clone();
        // The same fits on a machine with twice the memory, rebuilt
        // through the constructor (model fields are read-only).
        let flipped = CalibratedModel::new(
            old.kind(),
            old.machine_mem_mb() * 2.0,
            old.cpu_fits().clone(),
            old.io(),
            old.disk_fit(),
            old.renorm(),
            old.cost(),
        );
        assert_ne!(flipped.fingerprint(), old.fingerprint());
        adv.install_calibration(kind, flipped.clone());
        let after = adv.recommend_c2f(&space);
        fresh.install_calibration(kind, flipped);
        let reference = fresh.recommend_c2f(&space);
        assert!(after.optimizer_calls > 0);
        assert_eq!(after, reference);
        // Flipping back changes no row: the old model's rows answer.
        adv.install_calibration(kind, old);
        let back = adv.recommend_c2f(&space);
        assert_eq!(back.optimizer_calls, 0, "{back:?}");
        assert_eq!(back.result, drifted.result);
    }

    #[test]
    fn probe_cache_shares_probes_across_advisors() {
        let cache = ProbeCache::new();
        let mut a = advisor_two_dss();
        let mut b = advisor_two_dss();
        a.attach_probe_cache(cache.clone());
        b.attach_probe_cache(cache.clone());
        let space = SearchSpace::cpu_only(0.5);
        let ra = a.recommend(&space);
        assert!(ra.optimizer_calls > 0);
        // Identical hardware ⇒ identical calibration fingerprints, and
        // the same tenants ⇒ identical probe keys: machine B prices the
        // whole search from machine A's probes.
        let rb = b.recommend(&space);
        assert_eq!(rb.optimizer_calls, 0, "{rb:?}");
        assert_eq!(ra.result, rb.result);
        assert!(cache.hits() > 0);
    }
}
