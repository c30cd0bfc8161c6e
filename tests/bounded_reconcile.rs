//! Bounded reconcile: a destination whose best-case gain cannot clear
//! the migration threshold is never priced, and one that can still is.

use vda::core::problem::{QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::{
    ControlPlane, ControlPlaneOptions, EventOutcome, FleetEvent, VirtualizationDesignAdvisor,
};
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

fn tenant(name: &str, query: usize, mult: f64) -> Tenant {
    Tenant::new(
        name,
        Engine::pg(),
        tpch::catalog(0.1),
        tpch::query_workload(query, mult),
    )
    .expect("TPC-H binds")
}

/// A fleet of paper-testbed machines, one per entry of `tenants`.
fn fleet(tenants: &[&[(usize, f64)]], migration_threshold: f64) -> ControlPlane {
    let machines = tenants
        .iter()
        .enumerate()
        .map(|(m, hosted)| {
            let mut adv =
                VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
            for (i, &(q, mult)) in hosted.iter().enumerate() {
                adv.add_tenant(tenant(&format!("m{m}-t{i}"), q, mult), QoS::default());
            }
            adv
        })
        .collect();
    ControlPlane::new(
        machines,
        vec![SearchSpace::cpu_only(0.25); tenants.len()],
        ControlPlaneOptions {
            migration_threshold,
            ..ControlPlaneOptions::default()
        },
    )
}

fn arrival(plane: &mut ControlPlane, machine: usize, query: usize, mult: f64) -> EventOutcome {
    plane.process_event(FleetEvent::TenantArrived {
        machine,
        tenant: Box::new(tenant("newcomer", query, mult)),
        qos: QoS::default(),
    })
}

/// A move changes two machines' costs, so with a third machine
/// occupied it gains less than the whole fleet objective: at a
/// threshold of 1.0 every destination is bounded before the source is
/// priced, and nothing is priced at all.
#[test]
fn a_threshold_no_move_can_clear_prices_nothing() {
    let mut plane = fleet(&[&[(18, 4.0), (21, 4.0)], &[(6, 1.0)], &[(1, 1.0)]], 1.0);
    let arrived = arrival(&mut plane, 0, 18, 6.0);
    let changed = plane.process_event(FleetEvent::WorkloadChanged {
        machine: 1,
        slot: 0,
        workload: tpch::query_workload(18, 3.0),
    });
    assert!(changed.action.ends_with("(major)"), "{}", changed.action);
    assert!(arrived.migration.is_none() && changed.migration.is_none());
    let stats = plane.stats();
    assert_eq!(stats.migrations, 0);
    assert_eq!(stats.reconcile_priced, 0, "{stats:?}");
    assert!(stats.reconcile_bounded > 0, "{stats:?}");
}

/// At a threshold of 1e-4 a heavy arrival next to an idle machine is
/// priced and moved. The counters belong to the process: a restored
/// plane starts them at zero and keeps the durable migration count.
#[test]
fn a_reachable_threshold_prices_and_moves() {
    let mut plane = fleet(&[&[(18, 2.0), (6, 2.0)], &[(1, 1.0)], &[]], 1e-4);
    let outcome = arrival(&mut plane, 0, 18, 3.0);
    let moved = outcome.migration.expect("the newcomer moves");
    assert_eq!((moved.from, moved.to), (0, 2));
    let stats = plane.stats();
    assert_eq!(stats.migrations, 1);
    assert!(stats.reconcile_priced > 0, "{stats:?}");

    let (machines, spaces): (Vec<_>, Vec<_>) = (0..plane.machine_count())
        .map(|m| {
            let live = plane.machine(m);
            let mut adv =
                VirtualizationDesignAdvisor::new(Hypervisor::new(*live.hypervisor().machine()));
            for (i, &q) in live.qos().iter().enumerate() {
                adv.add_tenant(live.tenant(i).clone(), q);
            }
            (adv, *plane.space(m))
        })
        .unzip();
    let restored =
        ControlPlane::restore(machines, spaces, plane.options().clone(), &plane.snapshot())
            .expect("snapshot restores");
    let after = restored.stats();
    assert_eq!(after.migrations, 1);
    assert_eq!((after.reconcile_priced, after.reconcile_bounded), (0, 0));
}
