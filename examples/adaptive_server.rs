//! Adaptive consolidation under workload change (§6): dynamic
//! configuration management over monitoring periods.
//!
//! A DSS tenant and an OLTP tenant share a machine. Over eight
//! monitoring periods the DSS workload grows, and halfway through the
//! two tenants swap VMs (a major change). The dynamic configuration
//! manager classifies each period's change via the per-query
//! cost-estimate metric, keeps refining through minor changes, and
//! rebuilds its models from fresh optimizer estimates after the swap.
//!
//! ```text
//! cargo run --release --example adaptive_server
//! ```

use vda::core::dynamic::{DynamicConfigManager, DynamicOptions};
use vda::core::problem::{AxisSet, QoS, Resource, ResourceVector, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::{tpcc, tpch};

fn main() {
    let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
    let mut advisor = VirtualizationDesignAdvisor::new(hv);
    advisor.add_tenant(
        Tenant::new(
            "dss",
            Engine::db2(),
            tpch::catalog(1.0),
            tpch::query_workload(18, 2.0),
        )
        .expect("binds"),
        QoS::default(),
    );
    advisor.add_tenant(
        Tenant::new(
            "oltp",
            Engine::db2(),
            tpcc::catalog(10),
            tpcc::workload(4, 6, 40.0),
        )
        .expect("binds"),
        QoS::default(),
    );
    advisor.calibrate();

    let space = SearchSpace::over(
        AxisSet::of(&[Resource::Cpu]),
        ResourceVector::full().with(Resource::Memory, 0.25),
    );
    let mut manager = DynamicConfigManager::new(&advisor, space, DynamicOptions::default());

    println!(
        "{:<8} {:>8} {:>8} {:>12}  decisions",
        "period", "VM0 cpu", "VM1 cpu", "improvement"
    );
    for period in 1..=8 {
        // Minor change each period: the DSS workload intensifies.
        for i in 0..2 {
            if advisor.tenant(i).name == "dss" {
                advisor.scale_tenant_workload(i, 1.2);
            }
        }
        // Major change after period 4: the workloads trade VMs.
        if period == 5 {
            advisor.swap_tenants(0, 1);
            println!("--- workloads swapped between VMs ---");
        }

        let report = manager.process_period(&advisor);
        let improvement = advisor.actual_improvement(&space, &report.allocations);
        println!(
            "{:<8} {:>7.0}% {:>7.0}% {:>+11.1}%  {:?}",
            period,
            report.allocations[0].cpu() * 100.0,
            report.allocations[1].cpu() * 100.0,
            improvement * 100.0,
            report.decisions,
        );
    }
}
