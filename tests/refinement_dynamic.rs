//! Integration tests for online refinement (§5) and dynamic
//! configuration management (§6) across the full stack.

use vda::core::dynamic::{DynamicConfigManager, DynamicOptions, ManagementMode, PeriodDecision};
use vda::core::problem::{QoS, SearchSpace};
use vda::core::refine::RefineOptions;
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::{tpcc, tpch};

fn mixed_advisor() -> VirtualizationDesignAdvisor {
    let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
    let mut adv = VirtualizationDesignAdvisor::new(hv);
    adv.add_tenant(
        Tenant::new(
            "oltp",
            Engine::db2(),
            tpcc::catalog(10),
            tpcc::workload(6, 8, 40.0),
        )
        .expect("binds"),
        QoS::default(),
    );
    adv.add_tenant(
        Tenant::new(
            "dss",
            Engine::db2(),
            tpch::catalog(1.0),
            tpch::query_workload(18, 2.0),
        )
        .expect("binds"),
        QoS::default(),
    );
    adv.calibrate();
    adv
}

#[test]
fn oltp_workloads_are_underestimated() {
    // The §7.8 premise: optimizers do not model contention, so OLTP
    // actuals exceed estimates, increasingly at low CPU shares.
    let adv = mixed_advisor();
    let lo = vda::core::problem::Allocation::new(0.1, 0.25);
    let hi = vda::core::problem::Allocation::new(1.0, 0.25);
    let ratio_lo = adv.actual_cost(0, lo) / adv.estimator(0).cost(lo);
    let ratio_hi = adv.actual_cost(0, hi) / adv.estimator(0).cost(hi);
    assert!(ratio_hi > 1.1, "OLTP must be underestimated: {ratio_hi}");
    assert!(
        ratio_lo > ratio_hi,
        "underestimation must grow as CPU shrinks: {ratio_lo} vs {ratio_hi}"
    );
}

#[test]
fn refinement_never_ends_worse_than_start() {
    let adv = mixed_advisor();
    let space = SearchSpace::cpu_only(0.25);
    let rec = adv.recommend(&space);
    let before = adv.total_actual(&rec.result.allocations);
    let (outcome, _) =
        adv.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
    let after = adv.total_actual(&outcome.final_allocations);
    assert!(
        after <= before * 1.001,
        "refinement regressed: {before} -> {after}"
    );
}

#[test]
fn refinement_approaches_actual_optimum() {
    let adv = mixed_advisor();
    let space = SearchSpace::cpu_only(0.25);
    let rec = adv.recommend(&space);
    let (outcome, _) =
        adv.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
    let refined = adv.total_actual(&outcome.final_allocations);
    let optimal = adv.total_actual(&adv.optimal_actual(&space).allocations);
    assert!(
        refined <= optimal * 1.1,
        "refined {refined} vs optimal {optimal}"
    );
}

#[test]
fn refined_models_absorb_observations() {
    let adv = mixed_advisor();
    let space = SearchSpace::cpu_only(0.25);
    let rec = adv.recommend(&space);
    let (outcome, models) =
        adv.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
    assert!(outcome.iterations >= 1);
    for m in &models {
        let total: usize = m.pieces.iter().map(|p| p.observations.len()).sum();
        assert!(total >= 1, "every model should hold observations");
    }
    // History records (estimate, actual) pairs per iteration.
    for h in &outcome.history {
        assert_eq!(h.len(), outcome.iterations);
    }
}

#[test]
fn workload_swap_triggers_rebuild_and_reallocation() {
    let mut adv = mixed_advisor();
    let space = SearchSpace::cpu_only(0.25);
    let mut mgr = DynamicConfigManager::new(&adv, space, DynamicOptions::default());
    let before = mgr.process_period(&adv).allocations;

    adv.swap_tenants(0, 1);
    let report = mgr.process_period(&adv);
    assert!(
        report.decisions.contains(&PeriodDecision::RebuildOnChange),
        "swap not detected: {:?}",
        report.decisions
    );
    // The allocation must follow the workloads to their new VMs.
    let settle = mgr.process_period(&adv).allocations;
    let moved = (settle[0].cpu() - before[0].cpu()).abs() > 0.04
        || (settle[1].cpu() - before[1].cpu()).abs() > 0.04;
    assert!(moved, "allocations did not react: {before:?} -> {settle:?}");
}

#[test]
fn continuous_mode_never_reports_major_changes() {
    let mut adv = mixed_advisor();
    let opts = DynamicOptions {
        mode: ManagementMode::ContinuousRefinement,
    };
    let mut mgr = DynamicConfigManager::new(&adv, SearchSpace::cpu_only(0.25), opts);
    mgr.process_period(&adv);
    adv.swap_tenants(0, 1);
    let report = mgr.process_period(&adv);
    assert!(report
        .decisions
        .iter()
        .all(|d| *d == PeriodDecision::ContinueRefinement));
}

#[test]
fn intensity_growth_is_classified_minor() {
    let mut adv = mixed_advisor();
    let mut mgr =
        DynamicConfigManager::new(&adv, SearchSpace::cpu_only(0.25), DynamicOptions::default());
    mgr.process_period(&adv);
    adv.scale_tenant_workload(1, 3.0);
    let report = mgr.process_period(&adv);
    assert_eq!(
        report.decisions[1],
        PeriodDecision::ContinueRefinement,
        "intensity change misclassified: metric {:?}",
        report.change_metrics
    );
    assert!(report.change_metrics[1] < 0.05);
}
