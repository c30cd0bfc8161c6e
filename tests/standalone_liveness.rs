//! Probe-cache liveness without a control plane. A standalone advisor
//! holds the fingerprint of every tenant it hosts in its own
//! `ProbeCache`, so a prune drops the generations of workloads that no
//! tenant runs any more. The §6 manager prunes at the start of every
//! period, so a manager that runs period after period under drifting
//! workloads keeps a bounded cache; an advisor whose owner prunes after
//! each recommendation does too.

use std::collections::{BTreeSet, HashSet};
use vda::core::dynamic::{DynamicConfigManager, DynamicOptions};
use vda::core::problem::{QoS, Resource, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::{tpch, Workload, WorkloadStatement};

/// Drifts per run: each one mints a new fingerprint for tenant 0.
const DRIFTS: usize = 100;

/// Two TPC-H tenants, CPU-heavy Q18 and scan-only Q6, on one
/// calibrated paper-testbed machine.
fn advisor() -> VirtualizationDesignAdvisor {
    let mut adv =
        VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
    for (name, query, count) in [("q18", 18, 1.0), ("q6", 6, 2.0)] {
        adv.add_tenant(
            Tenant::new(
                name,
                Engine::pg(),
                tpch::catalog(1.0),
                tpch::query_workload(query, count),
            )
            .expect("tpch binds"),
            QoS::default(),
        );
    }
    adv.calibrate();
    adv
}

/// The fingerprints of the models `adv` prices with.
fn live_models(adv: &VirtualizationDesignAdvisor) -> HashSet<u64> {
    adv.calibrations()
        .iter()
        .map(|(_, model)| model.fingerprint())
        .collect()
}

/// The tenant fingerprints `adv` hosts, and those its cache holds rows
/// of.
fn hosted_and_cached(adv: &VirtualizationDesignAdvisor) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let hosted = (0..adv.tenant_count())
        .map(|i| adv.tenant(i).fingerprint())
        .collect();
    let cached = adv
        .probe_cache()
        .export()
        .iter()
        .map(|&(_, tenant, _, _)| tenant)
        .collect();
    (hosted, cached)
}

/// The most rows one `(model, tenant)` generation can hold in a
/// CPU-only search: one per CPU level of the δ grid.
fn rows_per_generation(space: &SearchSpace) -> usize {
    (1.0 / space.delta_for(Resource::Cpu)).round() as usize
}

/// Tenant 0 drifts before every period. Each period starts by pruning,
/// so after it the cache holds the rows of the hosted workloads only,
/// however long the manager runs. Without the prune the cache grows by
/// a generation per drift, from 27 rows after the first period to 126
/// after the hundredth.
#[test]
fn a_long_running_manager_keeps_a_bounded_cache() {
    let mut adv = advisor();
    let space = SearchSpace::cpu_only(0.5);
    let bound = adv.tenant_count() * rows_per_generation(&space);
    let mut mgr = DynamicConfigManager::new(&adv, space, DynamicOptions::default());
    for period in 1..=DRIFTS {
        adv.scale_tenant_workload(0, 1.01);
        mgr.process_period(&adv);
        let (hosted, cached) = hosted_and_cached(&adv);
        assert_eq!(
            cached, hosted,
            "period {period}: rows of a drifted workload"
        );
        let rows = adv.probe_cache().len();
        assert!(rows <= bound, "period {period}: {rows} rows > {bound}");
    }
}

/// The scenario of a standalone advisor whose owner prunes after each
/// recommendation: the cache peaks at one generation per hosted tenant
/// plus the one its last drift retired, where the same drifts without a
/// prune grow it from 12 rows to 729.
#[test]
fn a_pruned_advisor_stays_bounded_across_drifts() {
    let mut adv = advisor();
    let space = SearchSpace::cpu_only(0.5);
    let live = live_models(&adv);
    let bound = (adv.tenant_count() + 1) * rows_per_generation(&space);
    adv.recommend(&space);
    for drift in 1..=DRIFTS {
        adv.scale_tenant_workload(0, 1.01);
        adv.recommend(&space);
        let rows = adv.probe_cache().len();
        assert!(rows <= bound, "drift {drift}: {rows} rows > {bound}");
        adv.probe_cache().prune(&live);
        let (hosted, cached) = hosted_and_cached(&adv);
        assert_eq!(
            cached, hosted,
            "drift {drift}: the prune kept a dead generation"
        );
    }
}

/// A workload that does not bind leaves the tenant and its hold alone,
/// so a prune keeps its rows and the next recommendation is free.
#[test]
fn an_unbindable_workload_moves_no_hold() {
    let mut adv = advisor();
    let space = SearchSpace::cpu_only(0.5);
    let first = adv.recommend(&space);
    let mut unbindable = Workload::new("unbindable");
    unbindable.push(WorkloadStatement::dss("SELECT * FROM nonexistent", 1.0));
    assert!(adv.set_tenant_workload(0, unbindable).is_err());
    adv.probe_cache().prune(&live_models(&adv));
    let again = adv.recommend(&space);
    assert_eq!(again.optimizer_calls, 0, "{again:?}");
    assert_eq!(again.result, first.result);
}
