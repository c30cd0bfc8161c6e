//! Safe moves: a reconcile migration never raises a machine's count of
//! unmet degradation limits, however large the gain it promises.

use vda::core::problem::{QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::{ControlPlane, ControlPlaneOptions, FleetEvent, VirtualizationDesignAdvisor};
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

/// Machine 0 hosts three loaded tenants, machine 1 one light tenant
/// with degradation limit `limit`; a heavy tenant then arrives on
/// machine 0. Moving it to machine 1 is the only migration on offer.
fn arrival_beside_a_limited_tenant(limit: f64) -> (ControlPlane, Vec<usize>) {
    let machine =
        || VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
    let mut loaded = machine();
    for (i, (q, mult)) in [(18, 4.0), (21, 4.0), (18, 4.0)].into_iter().enumerate() {
        loaded.add_tenant(tenant(&format!("m0-t{i}"), q, mult), QoS::default());
    }
    let mut light = machine();
    light.add_tenant(tenant("m1-t0", 18, 1.0), QoS::with_limit(limit));
    let mut plane = ControlPlane::new(
        vec![loaded, light],
        vec![SearchSpace::cpu_only(0.25); 2],
        ControlPlaneOptions::default(),
    );
    let unmet = |plane: &ControlPlane| -> Vec<usize> {
        plane
            .placements()
            .iter()
            .map(|p| {
                p.as_ref()
                    .map_or(0, |r| r.limits_met.iter().filter(|&&met| !met).count())
            })
            .collect()
    };
    let before = unmet(&plane);
    let outcome = plane.process_event(FleetEvent::TenantArrived {
        machine: 0,
        tenant: Box::new(tenant("newcomer", 18, 6.0)),
        qos: QoS::default(),
    });
    if let Some(m) = &outcome.migration {
        let after = unmet(&plane);
        for machine in [m.from, m.to] {
            assert!(
                after[machine] <= before[machine],
                "L = {limit}: {m:?} raised machine {machine}'s unmet limits {before:?} -> {after:?}"
            );
        }
    }
    (plane, before)
}

/// The newcomer would pay off on machine 1 (an estimated gain of about
/// a third of the fleet objective), but only by breaking machine 1's
/// tight limit, which it meets today: the plane keeps it on machine 0.
#[test]
fn a_move_that_breaks_a_met_limit_is_not_taken() {
    for limit in [1.02, 1.05] {
        let (plane, before) = arrival_beside_a_limited_tenant(limit);
        assert_eq!(before, [0, 0]);
        assert_eq!(plane.machine(1).tenant_count(), 1, "L = {limit}");
        assert_eq!(plane.stats().migrations, 0, "L = {limit}");
        let light = plane.placements()[1]
            .as_ref()
            .expect("machine 1 is occupied");
        assert_eq!(light.limits_met, [true], "L = {limit}");
    }
}

/// At L = 1.1 the limit holds with the newcomer aboard too, and the
/// solve that honours it leaves no move worth taking.
#[test]
fn a_loose_limit_leaves_no_move_worth_taking() {
    let (plane, _) = arrival_beside_a_limited_tenant(1.1);
    assert_eq!(plane.stats().migrations, 0);
    assert_eq!(plane.machine(0).tenant_count(), 4);
    assert!(plane
        .placements()
        .iter()
        .flatten()
        .all(|r| r.limits_met.iter().all(|&met| met)));
}
