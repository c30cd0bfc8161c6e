//! Shared experiment scaffolding: machines, advisors, workload units.

use vda_core::advisor::VirtualizationDesignAdvisor;
use vda_core::costmodel::WhatIfEstimator;
use vda_core::problem::{Allocation, QoS};
use vda_core::tenant::Tenant;
use vda_simdb::catalog::Catalog;
use vda_simdb::engines::{Engine, TuningPolicy};
use vda_vmm::{Hypervisor, PhysicalMachine};
use vda_workloads::units::WorkloadUnit;
use vda_workloads::{tpch, Workload};

/// The paper's physical testbed with its always-on I/O-contention VM.
pub fn testbed() -> Hypervisor {
    Hypervisor::new(PhysicalMachine::paper_testbed())
}

/// Memory share equivalent to the paper's fixed 512 MB VMs (CPU-only
/// experiments give each VM 512 MB of the 8 GB machine).
pub const FIXED_512MB_SHARE: f64 = 512.0 / 8192.0;

/// An engine configured like the paper's CPU-only experiments: fixed
/// memory settings so only CPU matters.
pub fn engine_fixed_memory(kind: EngineChoice) -> Engine {
    match kind {
        EngineChoice::Pg => Engine::pg().with_policy(fixed_policy(EngineChoice::Pg)),
        EngineChoice::Db2 => Engine::db2().with_policy(fixed_policy(EngineChoice::Db2)),
    }
}

/// Which engine an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// PostgreSQL-like.
    Pg,
    /// DB2-like.
    Db2,
}

impl EngineChoice {
    /// Display name used in report titles.
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Pg => "PgSim",
            EngineChoice::Db2 => "Db2Sim",
        }
    }

    /// The proportional-policy engine (memory experiments).
    pub fn engine(self) -> Engine {
        match self {
            EngineChoice::Pg => Engine::pg(),
            EngineChoice::Db2 => Engine::db2(),
        }
    }
}

fn fixed_policy(kind: EngineChoice) -> TuningPolicy {
    match kind {
        EngineChoice::Pg => vda_simdb::engines::PgSim::fixed_memory_policy(),
        EngineChoice::Db2 => vda_simdb::engines::Db2Sim::fixed_memory_policy(),
    }
}

/// Build a calibrated advisor hosting the given `(name, workload)`
/// pairs, all on the same engine and catalog.
pub fn advisor_for(
    engine: &Engine,
    catalog: &Catalog,
    workloads: Vec<Workload>,
) -> VirtualizationDesignAdvisor {
    advisor_with_qos(
        engine,
        catalog,
        workloads.into_iter().map(|w| (w, QoS::default())).collect(),
    )
}

/// Build a calibrated advisor with explicit QoS per workload.
pub fn advisor_with_qos(
    engine: &Engine,
    catalog: &Catalog,
    workloads: Vec<(Workload, QoS)>,
) -> VirtualizationDesignAdvisor {
    let mut adv = VirtualizationDesignAdvisor::new(testbed());
    for (w, qos) in workloads {
        let name = w.name.clone();
        let tenant = Tenant::new(name, engine.clone(), catalog.clone(), w)
            .expect("experiment workloads bind");
        adv.add_tenant(tenant, qos);
    }
    adv.calibrate();
    adv
}

/// Estimated cost of a workload at a given allocation, through a
/// freshly calibrated what-if estimator — the unit-balancing oracle of
/// §7.3/§7.4. Units are balanced at 100 % of the *varied* resource
/// with the non-varied resource at its experimental fixed level
/// (the paper equalizes runtimes "when running with 100 % of the
/// available CPU", with memory at its per-VM fixed setting).
pub fn full_allocation_cost(
    engine: &Engine,
    catalog: &Catalog,
    w: &Workload,
    at: Allocation,
) -> f64 {
    let adv = advisor_for(engine, catalog, vec![w.clone()]);
    adv.estimator(0).cost(at)
}

/// The §7.3 C/I units: `C` multiples of Q18 vs `I` multiples of Q21,
/// balanced at 100 % CPU with the fixed 512 MB memory grant.
pub fn cpu_units(engine: &Engine, catalog: &Catalog) -> (WorkloadUnit, WorkloadUnit) {
    let at = Allocation::new(1.0, FIXED_512MB_SHARE);
    let mut oracle = |w: &Workload| full_allocation_cost(engine, catalog, w, at);
    let (i_unit, c_unit) = vda_workloads::units::balanced_pair(21, "I", 18, "C", &mut oracle);
    (c_unit, i_unit)
}

/// The §7.4 B/D units: `B` multiples of Q7 vs `D` multiples of Q16,
/// balanced at 100 % memory with CPU at its fixed 50 % level.
pub fn memory_units(engine: &Engine, catalog: &Catalog) -> (WorkloadUnit, WorkloadUnit) {
    let at = Allocation::new(0.5, 1.0);
    let mut oracle = |w: &Workload| full_allocation_cost(engine, catalog, w, at);
    let (b_unit, d_unit) = vda_workloads::units::balanced_pair(7, "B", 16, "D", &mut oracle);
    (b_unit, d_unit)
}

/// TPC-H catalog shorthand.
pub fn sf(scale: f64) -> Catalog {
    tpch::catalog(scale)
}

/// Build a calibrated advisor from fully-formed tenants (mixed engines
/// and catalogs).
pub fn advisor_from_tenants(tenants: Vec<(Tenant, QoS)>) -> VirtualizationDesignAdvisor {
    let mut adv = VirtualizationDesignAdvisor::new(testbed());
    for (t, q) in tenants {
        adv.add_tenant(t, q);
    }
    adv.calibrate();
    adv
}

/// The §7.6 TPC-C + TPC-H tenant mix: five TPC-C workloads (2–10
/// warehouses, 5–10 clients each) and five DSS workloads of up to 40
/// random TPC-H queries — four on SF1, one on SF10.
pub fn tpcc_tpch_mix(choice: EngineChoice, seed: u64) -> Vec<Tenant> {
    use rand::Rng;
    let mut rng = vda_workloads::random::rng(seed);
    let engine = engine_fixed_memory(choice);
    let tpcc_cat = vda_workloads::tpcc::catalog(10);
    let mut tenants = Vec::with_capacity(10);
    for i in 0..5 {
        let wh = rng.random_range(2..=10u32);
        let clients = rng.random_range(5..=10u32);
        let w = vda_workloads::tpcc::workload(wh, clients, TPCC_TXNS_PER_CLIENT);
        tenants.push(
            Tenant::new(format!("tpcc-{i}"), engine.clone(), tpcc_cat.clone(), w)
                .expect("tpcc workloads bind"),
        );
    }
    let sf1 = tpch::catalog(1.0);
    let sf10 = tpch::catalog(10.0);
    for i in 0..5 {
        let w = vda_workloads::random::random_tpch_queries(&mut rng, i, 40);
        let (cat, label) = if i == 4 {
            (sf10.clone(), "tpch-sf10")
        } else {
            (sf1.clone(), "tpch-sf1")
        };
        tenants.push(
            Tenant::new(
                format!("{label}-{i}"),
                engine.clone(),
                cat,
                w.named(format!("{label}-{i}")),
            )
            .expect("tpch workloads bind"),
        );
    }
    tenants
}

/// Transactions per client per monitoring interval in the TPC-C
/// workloads, sized so a 2-warehouse TPC-C tenant is in the same
/// cost ballpark as a random DSS tenant.
pub const TPCC_TXNS_PER_CLIENT: f64 = 40.0;

/// Fresh estimators over cold private caches, one per tenant, so a
/// timed measurement pays the full optimizer cost of its search
/// instead of reusing the advisor's warm probe cache.
pub fn cold_estimators(adv: &VirtualizationDesignAdvisor) -> Vec<WhatIfEstimator<'_>> {
    (0..adv.tenant_count())
        .map(|i| WhatIfEstimator::new(adv.tenant(i), adv.model(i)))
        .collect()
}
