//! Dynamic configuration management (§6).
//!
//! Online refinement assumes a static workload; real workloads change.
//! The manager watches two signals per monitoring period:
//!
//! * the **workload-change metric** (§6.1): the relative change in the
//!   optimizer-estimated *cost per query* between periods. Above the
//!   threshold λ (10 %) the change is **major**; the refined cost model
//!   describes a workload that no longer exists, so it is discarded
//!   and rebuilt from fresh optimizer estimates. Below λ the change is
//!   **minor** and refinement continues.
//! * the **relative modeling error** `E_ip = |Est − Act| / Act`: for a
//!   minor change that lands *before* refinement has converged, the
//!   manager continues refining only if errors are small (< 5 %) or
//!   shrinking; otherwise it conservatively rebuilds (§6.2).
//!
//! Changes in workload *intensity* (same queries, higher arrival rate)
//! do not move the per-query metric — by design — and are absorbed by
//! the refinement scaling instead.
//!
//! [`DynamicConfigManager`] manages one machine. The fleet runs the
//! same classification event by event, with cross-machine migration,
//! in [`ControlPlane`](crate::controlplane::ControlPlane).

use crate::advisor::VirtualizationDesignAdvisor;
use crate::problem::{Allocation, SearchSpace};
use crate::refine::{refine, RefineOptions, RefinedModel};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The paper's λ = 10 %: a larger per-query cost-estimate change is
/// major (§6.1). The control plane classifies its events with it too.
pub(crate) const CHANGE_THRESHOLD: f64 = 0.10;

/// The paper's 5 % modeling-error threshold: a minor change
/// mid-refinement continues refining while errors stay below it or
/// shrink (§6.2).
const ERROR_THRESHOLD: f64 = 0.05;

/// Refinement settings of each period's refinement step: one §5
/// round per monitoring period.
fn period_refine_options() -> RefineOptions {
    RefineOptions {
        max_iterations: 1,
        ..RefineOptions::default()
    }
}

/// Tenant `i`'s §6.1 per-query cost estimate: the optimizer's average
/// cost per statement at `space`'s reference (1/N) allocation. A fixed
/// reference keeps the metric "sensitive to changes in the nature of
/// the workload queries and not to variability in the run-time
/// environment" (§6.1), including the advisor's own reallocation.
/// Returns the estimate and the optimizer calls it paid.
pub(crate) fn per_query_estimate(
    advisor: &VirtualizationDesignAdvisor,
    space: &SearchSpace,
    i: usize,
) -> (f64, u64) {
    let reference = space.default_allocation(advisor.tenant_count());
    let est = advisor.estimator(i);
    let per_query = est.estimate(reference).avg_cost_per_statement;
    (per_query, est.optimizer_calls())
}

/// The §6.1 workload-change metric: the relative change of the
/// per-query estimate, `|after − before| / before` (0 when
/// `before ≤ 0`). Above [`CHANGE_THRESHOLD`] the change is major.
pub(crate) fn change_metric(before: f64, after: f64) -> f64 {
    if before > 0.0 {
        (after - before).abs() / before
    } else {
        0.0
    }
}

/// How the manager reacts to each period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeriodDecision {
    /// Minor (or no) change: keep refining the existing model.
    ContinueRefinement,
    /// Minor change mid-refinement with growing errors: rebuild
    /// conservatively.
    RebuildOnError,
    /// Major change: discard the model, restart from optimizer
    /// estimates.
    RebuildOnChange,
}

/// Management policy, for the §7.10 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ManagementMode {
    /// Full §6 logic: change classification + error tracking.
    Dynamic,
    /// Baseline: treat every change as minor and keep refining
    /// ("continuous online refinement" in Fig. 35/36).
    ContinuousRefinement,
}

/// Settings of the dynamic configuration manager. The thresholds are
/// the paper's (λ = 10 % on the per-query estimate change, a 5 %
/// modeling error), and each period runs one refinement round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicOptions {
    /// Policy mode.
    pub mode: ManagementMode,
}

impl Default for DynamicOptions {
    fn default() -> Self {
        DynamicOptions {
            mode: ManagementMode::Dynamic,
        }
    }
}

/// What happened in one monitoring period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodReport {
    /// Monitoring period number (1-based).
    pub period: usize,
    /// Allocations in force for the *next* period.
    pub allocations: Vec<Allocation>,
    /// Decision taken per workload.
    pub decisions: Vec<PeriodDecision>,
    /// Per-workload change metric observed this period.
    pub change_metrics: Vec<f64>,
    /// Per-workload relative modeling error `E_ip`.
    pub errors: Vec<f64>,
    /// Per-workload actual cost at the period's allocation.
    pub actual_costs: Vec<f64>,
}

struct WorkloadState {
    model: RefinedModel,
    prev_per_query_estimate: f64,
    prev_error: Option<f64>,
}

/// The §6 dynamic configuration manager. Owns the per-workload
/// refinement state; the advisor (and its tenants) stay outside so the
/// caller can mutate workloads between periods.
pub struct DynamicConfigManager {
    options: DynamicOptions,
    space: SearchSpace,
    states: Vec<WorkloadState>,
    current: Vec<Allocation>,
    converged: bool,
    period: usize,
}

impl DynamicConfigManager {
    /// Start managing: fit initial models and adopt the advisor's
    /// static recommendation.
    pub fn new(
        advisor: &VirtualizationDesignAdvisor,
        space: SearchSpace,
        options: DynamicOptions,
    ) -> Self {
        let rec = advisor.recommend(&space);
        let sample_grid = period_refine_options().sample_grid;
        let states = (0..advisor.tenant_count())
            .map(|i| WorkloadState {
                model: advisor.fit_refinement_model(i, &space, sample_grid),
                prev_per_query_estimate: per_query_estimate(advisor, &space, i).0,
                prev_error: None,
            })
            .collect();
        DynamicConfigManager {
            options,
            space,
            states,
            current: rec.result.allocations,
            converged: false,
            period: 0,
        }
    }

    /// Allocations currently in force.
    pub fn allocations(&self) -> &[Allocation] {
        &self.current
    }

    /// Process one monitoring period: classify workload changes,
    /// update or rebuild models, re-run the search, and adopt the new
    /// allocations. Call after applying any workload changes to the
    /// advisor's tenants.
    ///
    /// The period first prunes the advisor's probe cache
    /// ([`ProbeCache::prune`](crate::costmodel::ProbeCache::prune))
    /// with the advisor's models, so the rows of past workloads leave
    /// and a long run stays bounded. The manager assumes it owns that
    /// cache: other machines pricing with it would lose their rows.
    pub fn process_period(&mut self, advisor: &VirtualizationDesignAdvisor) -> PeriodReport {
        let live_models: HashSet<u64> = advisor
            .calibrations()
            .iter()
            .map(|(_, model)| model.fingerprint())
            .collect();
        advisor.probe_cache().prune(&live_models);
        self.period += 1;
        let n = self.states.len();
        assert_eq!(n, advisor.tenant_count(), "tenant set must be stable");

        let mut decisions = Vec::with_capacity(n);
        let mut change_metrics = Vec::with_capacity(n);
        let mut errors = Vec::with_capacity(n);
        let mut actual_costs = Vec::with_capacity(n);

        for i in 0..n {
            let alloc = self.current[i];
            // §6.1 change metric: per-query optimizer estimates for the
            // *current* (possibly changed) workload vs the previous
            // period.
            let (per_query, _) = per_query_estimate(advisor, &self.space, i);
            let change = change_metric(self.states[i].prev_per_query_estimate, per_query);
            change_metrics.push(change);

            // Monitoring observation.
            let actual = advisor.actual_cost(i, alloc);
            actual_costs.push(actual);
            let model_est = self.states[i].model.predict(alloc);
            let error = (model_est - actual).abs() / actual.max(1e-12);
            errors.push(error);

            let is_major =
                change > CHANGE_THRESHOLD && self.options.mode == ManagementMode::Dynamic;
            let decision = if is_major {
                PeriodDecision::RebuildOnChange
            } else if !self.converged
                && self.options.mode == ManagementMode::Dynamic
                && !self.error_acceptable(i, error)
            {
                PeriodDecision::RebuildOnError
            } else {
                PeriodDecision::ContinueRefinement
            };

            match decision {
                PeriodDecision::RebuildOnChange | PeriodDecision::RebuildOnError => {
                    // Discard the refined model; restart from fresh
                    // optimizer estimates, then apply one refinement
                    // step with the actual cost observed after the
                    // change (§6.2: "the actual execution cost that was
                    // observed after the major workload change is saved
                    // and used to perform an additional refinement
                    // step").
                    let mut model = advisor.fit_refinement_model(
                        i,
                        &self.space,
                        period_refine_options().sample_grid,
                    );
                    model.observe(alloc, actual);
                    self.states[i].model = model;
                    self.states[i].prev_error = None;
                }
                PeriodDecision::ContinueRefinement => {
                    self.states[i].model.observe(alloc, actual);
                    self.states[i].prev_error = Some(error);
                }
            }
            self.states[i].prev_per_query_estimate = per_query;
            decisions.push(decision);
        }

        // Re-run the search over the (refined or rebuilt) models,
        // observing the executor oracles for ground truth.
        let mut models: Vec<RefinedModel> = self.states.iter().map(|s| s.model.clone()).collect();
        let outcome = refine(
            &mut models,
            &self.space,
            advisor.qos(),
            &self.current,
            &advisor.actual_models(),
            &period_refine_options(),
        );
        for (s, m) in self.states.iter_mut().zip(models) {
            s.model = m;
        }
        self.converged = outcome.converged;
        self.current = outcome.final_allocations.clone();

        PeriodReport {
            period: self.period,
            allocations: self.current.clone(),
            decisions,
            change_metrics,
            errors,
            actual_costs,
        }
    }

    /// §6.2: mid-refinement minor changes continue only when errors are
    /// small or shrinking.
    fn error_acceptable(&self, i: usize, error: f64) -> bool {
        match self.states[i].prev_error {
            None => true,
            Some(prev) => (prev < ERROR_THRESHOLD && error < ERROR_THRESHOLD) || error < prev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QoS;
    use crate::tenant::Tenant;
    use vda_simdb::engines::Engine;
    use vda_vmm::{Hypervisor, PhysicalMachine};
    use vda_workloads::tpch;

    fn advisor() -> VirtualizationDesignAdvisor {
        let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
        let mut adv = VirtualizationDesignAdvisor::new(hv);
        let cat = tpch::catalog(1.0);
        adv.add_tenant(
            Tenant::new(
                "a",
                Engine::pg(),
                cat.clone(),
                tpch::query_workload(18, 1.0),
            )
            .unwrap(),
            QoS::default(),
        );
        adv.add_tenant(
            Tenant::new("b", Engine::pg(), cat, tpch::query_workload(6, 2.0)).unwrap(),
            QoS::default(),
        );
        adv.calibrate();
        adv
    }

    #[test]
    fn stable_workload_is_minor_and_continues() {
        let adv = advisor();
        let mut mgr =
            DynamicConfigManager::new(&adv, SearchSpace::cpu_only(0.5), DynamicOptions::default());
        let report = mgr.process_period(&adv);
        assert!(report
            .decisions
            .iter()
            .all(|d| *d == PeriodDecision::ContinueRefinement));
        assert!(report.change_metrics.iter().all(|&c| c < 0.10));
    }

    #[test]
    fn workload_swap_is_detected_as_major() {
        let mut adv = advisor();
        let space = SearchSpace::cpu_only(0.5);
        let mut mgr = DynamicConfigManager::new(&adv, space, DynamicOptions::default());
        mgr.process_period(&adv);
        // Swap the two tenants' workloads (the §7.10 scenario).
        let w0 = adv.tenant(0).workload.clone();
        let w1 = adv.tenant(1).workload.clone();
        adv.set_tenant_workload(0, w1).unwrap();
        adv.set_tenant_workload(1, w0).unwrap();
        let report = mgr.process_period(&adv);
        assert!(
            report.decisions.contains(&PeriodDecision::RebuildOnChange),
            "swap must be classified major: {:?}",
            report.decisions
        );
    }

    #[test]
    fn intensity_change_stays_minor() {
        let mut adv = advisor();
        let mut mgr =
            DynamicConfigManager::new(&adv, SearchSpace::cpu_only(0.5), DynamicOptions::default());
        mgr.process_period(&adv);
        // Double the arrival rate: per-query estimates are unchanged.
        adv.scale_tenant_workload(0, 2.0);
        let report = mgr.process_period(&adv);
        assert_eq!(report.decisions[0], PeriodDecision::ContinueRefinement);
        assert!(report.change_metrics[0] < 0.01);
    }

    #[test]
    fn continuous_mode_never_rebuilds() {
        let mut adv = advisor();
        let opts = DynamicOptions {
            mode: ManagementMode::ContinuousRefinement,
        };
        let mut mgr = DynamicConfigManager::new(&adv, SearchSpace::cpu_only(0.5), opts);
        mgr.process_period(&adv);
        let w0 = adv.tenant(0).workload.clone();
        let w1 = adv.tenant(1).workload.clone();
        adv.set_tenant_workload(0, w1).unwrap();
        adv.set_tenant_workload(1, w0).unwrap();
        let report = mgr.process_period(&adv);
        assert!(report
            .decisions
            .iter()
            .all(|d| *d == PeriodDecision::ContinueRefinement));
    }

    #[test]
    fn allocations_remain_feasible_across_periods() {
        let mut adv = advisor();
        let mut mgr =
            DynamicConfigManager::new(&adv, SearchSpace::cpu_only(0.5), DynamicOptions::default());
        for p in 0..4 {
            if p == 2 {
                adv.scale_tenant_workload(0, 1.5);
            }
            let report = mgr.process_period(&adv);
            let total: f64 = report.allocations.iter().map(|a| a.cpu()).sum();
            assert!(total <= 1.0 + 1e-9, "period {p}: {total}");
        }
    }
}
