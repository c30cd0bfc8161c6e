//! Integration tests of the unified `CostModel` layer: mixed-engine
//! advisors, greedy-vs-exhaustive agreement, and the parallel/serial
//! equivalence contract of the enumeration batch evaluator.

use vda::core::costmodel::{CostModel, WhatIfEstimator};
use vda::core::enumerate::{greedy_search_with, try_exhaustive_search_with, SearchOptions};
use vda::core::metrics::CostAccounting;
use vda::core::problem::{Allocation, QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

/// A pgsim tenant and a db2sim tenant consolidated on one machine.
fn mixed_engine_advisor() -> VirtualizationDesignAdvisor {
    let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
    let mut adv = VirtualizationDesignAdvisor::new(hv);
    let cat = tpch::catalog(1.0);
    adv.add_tenant(
        Tenant::new(
            "pg-cpu",
            Engine::pg(),
            cat.clone(),
            tpch::query_workload(18, 2.0),
        )
        .unwrap(),
        QoS::default(),
    );
    adv.add_tenant(
        Tenant::new("db2-scan", Engine::db2(), cat, tpch::query_workload(6, 2.0)).unwrap(),
        QoS::default(),
    );
    adv.calibrate();
    adv
}

#[test]
fn mixed_engines_greedy_agrees_with_exhaustive() {
    let adv = mixed_engine_advisor();
    let space = SearchSpace::cpu_only(0.5);
    let greedy = adv.recommend(&space);
    let exact = adv.recommend_exhaustive(&space);
    // §4.5/§7.6: greedy is very often optimal, always within 5 %.
    assert!(
        greedy.result.weighted_cost <= exact.result.weighted_cost * 1.05 + 1e-9,
        "greedy {} vs optimal {}",
        greedy.result.weighted_cost,
        exact.result.weighted_cost
    );
    // Costs are renormalized to seconds, so the cross-engine sum is
    // meaningful and the budget holds.
    let total: f64 = greedy.result.allocations.iter().map(|a| a.cpu()).sum();
    assert!(total <= 1.0 + 1e-9);
}

/// Fresh estimators over private caches, so optimizer-call counters
/// start at zero for each enumeration run.
fn fresh_estimators(adv: &VirtualizationDesignAdvisor) -> Vec<WhatIfEstimator<'_>> {
    (0..adv.tenant_count())
        .map(|i| WhatIfEstimator::new(adv.tenant(i), adv.model(i)))
        .collect()
}

#[test]
fn parallel_and_serial_enumeration_are_identical_with_real_estimators() {
    let adv = mixed_engine_advisor();
    let space = SearchSpace::cpu_only(0.5);
    let qos = adv.qos().to_vec();

    let serial_models = fresh_estimators(&adv);
    let serial = greedy_search_with(&space, &qos, &serial_models, &SearchOptions::serial());
    let serial_calls = CostAccounting::tally(&serial_models);

    let parallel_models = fresh_estimators(&adv);
    let parallel = greedy_search_with(&space, &qos, &parallel_models, &SearchOptions::parallel());
    let parallel_calls = CostAccounting::tally(&parallel_models);

    assert_eq!(
        serial, parallel,
        "parallel greedy must be bit-identical to serial"
    );
    assert_eq!(
        serial_calls, parallel_calls,
        "optimizer-call accounting must not depend on threading"
    );
    assert!(serial_calls.optimizer_calls > 0);
}

#[test]
fn parallel_and_serial_exhaustive_are_identical_with_real_estimators() {
    let adv = mixed_engine_advisor();
    let space = SearchSpace::cpu_only(0.5);
    let qos = adv.qos().to_vec();

    let serial_models = fresh_estimators(&adv);
    let serial = try_exhaustive_search_with(&space, &qos, &serial_models, &SearchOptions::serial());
    let serial_calls = CostAccounting::tally(&serial_models);

    let parallel_models = fresh_estimators(&adv);
    let parallel =
        try_exhaustive_search_with(&space, &qos, &parallel_models, &SearchOptions::parallel());
    let parallel_calls = CostAccounting::tally(&parallel_models);

    assert!(serial.is_some());
    assert_eq!(serial, parallel);
    assert_eq!(serial_calls, parallel_calls);
}

#[test]
fn advisor_parallel_and_serial_recommendations_match() {
    // `recommend` searches in parallel; a serial search over a second
    // fresh advisor's estimators must find the same answer and pay the
    // same optimizer calls.
    let space = SearchSpace::cpu_only(0.5);
    let parallel = mixed_engine_advisor().recommend(&space);

    let serial_adv = mixed_engine_advisor();
    let estimators: Vec<_> = (0..serial_adv.tenant_count())
        .map(|i| serial_adv.estimator(i))
        .collect();
    let serial = greedy_search_with(
        &space,
        serial_adv.qos(),
        &estimators,
        &SearchOptions::serial(),
    );
    assert_eq!(serial, parallel.result);
    assert_eq!(
        CostAccounting::tally(&estimators).optimizer_calls,
        parallel.optimizer_calls
    );
}

#[test]
fn heterogeneous_model_sets_enumerate_through_dyn() {
    // The trait layer accepts heterogeneous model sets: a real what-if
    // estimator next to the executor oracle for the other tenant.
    let adv = mixed_engine_advisor();
    let space = SearchSpace::cpu_only(0.5);
    let est = adv.estimator(0);
    let actuals = adv.actual_models();
    let models: Vec<&dyn CostModel> = vec![&est, &actuals[1]];
    let r = greedy_search_with(&space, adv.qos(), &models, &SearchOptions::default());
    let total: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
    assert!(total <= 1.0 + 1e-9);
    assert!(r.limits_met.iter().all(|&m| m));
}

#[test]
fn swap_regression_mixed_engines_survive_dynamic_management() {
    // §7.10 with mixed engines end-to-end: swapping the tenants must
    // keep estimates attached to their workloads and leave the
    // dynamic manager with a feasible, calibrated advisor.
    let mut adv = mixed_engine_advisor();
    let space = SearchSpace::cpu_only(0.5);
    let a = Allocation::new(0.5, 0.5);
    let pre_pg = adv.estimator(0).cost(a);
    let pre_db2 = adv.estimator(1).cost(a);

    adv.swap_tenants(0, 1);
    assert!(adv.is_calibrated());
    assert_eq!(adv.estimator(0).cost(a), pre_db2);
    assert_eq!(adv.estimator(1).cost(a), pre_pg);

    let rec = adv.recommend(&space);
    let total: f64 = rec.result.allocations.iter().map(|x| x.cpu()).sum();
    assert!(total <= 1.0 + 1e-9);
}
