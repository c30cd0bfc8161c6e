//! Sharded fleet control plane: events in, decisions out, durable
//! snapshots in between.
//!
//! A three-machine fleet (two hardware classes) hosts six tenants. The
//! [`ControlPlane`] partitions it into pricing-class shards, re-solves
//! only the machines an event dirties (each machine memoizes its last
//! solve, and probes are served by the fleet-wide cache), and
//! reconciles major workload changes against migration candidates in
//! other shards. Midway we serialize the whole earned state — models,
//! placements, warm-start memo keys, probe cache, decision log —
//! through the [`FleetSnapshot`] JSON format, restore it into a freshly
//! built fleet, and finish the event stream on the restored plane: the
//! decisions and placements are bit-identical to the uninterrupted
//! run, at its optimizer-call cost instead of recalibration cost. A final
//! burst goes through `ControlPlane::process_batch` — same-slot
//! events coalesce and the batch re-solves in one parallel wave.
//!
//! ```text
//! cargo run --release --example fleet_control
//! ```
//!
//! [`ControlPlane`]: vda::core::ControlPlane
//! [`FleetSnapshot`]: vda::core::FleetSnapshot

use vda::core::problem::{AxisSet, QoS, Resource, ResourceVector, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::core::{ControlPlane, ControlPlaneOptions, FleetEvent, FleetSnapshot};
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

/// Build the fleet: machine 0 and 2 are stock testbeds, machine 1 a
/// faster clock (its own hardware class, so its own shard and its own
/// calibration registry row).
fn fleet() -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let queries = [[18, 6], [21, 7], [16, 6]];
    let mut machines = Vec::new();
    for (m, qs) in queries.iter().enumerate() {
        let mut spec = PhysicalMachine::paper_testbed();
        if m == 1 {
            spec.core_ghz *= 1.5;
        }
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        for (s, &q) in qs.iter().enumerate() {
            let name = format!("m{m}-t{s}-q{q}");
            adv.add_tenant(
                Tenant::new(
                    name.clone(),
                    Engine::db2(),
                    tpch::catalog(1.0),
                    tpch::query_workload(q, 1.0 + (m * 2 + s) as f64 * 0.25).named(name),
                )
                .expect("bench workloads bind"),
                if s == 0 {
                    QoS::with_limit(6.0)
                } else {
                    QoS::default()
                },
            );
        }
        machines.push(adv);
    }
    let space = SearchSpace::over(
        AxisSet::of(&[Resource::Cpu]),
        ResourceVector::full().with(Resource::Memory, 512.0 / 8192.0),
    );
    let spaces = vec![space; machines.len()];
    (machines, spaces)
}

/// Reconstruct the plane's *current* topology as fresh, uncalibrated
/// advisors — what a restarted process would rebuild from its own
/// inventory before feeding the snapshot to [`ControlPlane::restore`].
fn rebuild(plane: &ControlPlane) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let mut machines = Vec::new();
    let mut spaces = Vec::new();
    for m in 0..plane.machine_count() {
        let live = plane.machine(m);
        let mut adv =
            VirtualizationDesignAdvisor::new(Hypervisor::new(*live.hypervisor().machine()));
        for (i, &q) in live.qos().iter().enumerate() {
            adv.add_tenant(live.tenant(i).clone(), q);
        }
        machines.push(adv);
        spaces.push(*plane.space(m));
    }
    (machines, spaces)
}

/// The event stream: intensity drift, a major workload change (a
/// migration candidate), an arrival, a departure.
fn events() -> Vec<FleetEvent> {
    vec![
        FleetEvent::WorkloadScaled {
            machine: 0,
            slot: 1,
            factor: 1.5,
        },
        FleetEvent::WorkloadChanged {
            machine: 2,
            slot: 1,
            workload: tpch::query_workload(21, 4.0).named("m2-t1-hot"),
        },
        FleetEvent::TenantArrived {
            machine: 1,
            tenant: Box::new(
                Tenant::new(
                    "newcomer-q6",
                    Engine::db2(),
                    tpch::catalog(1.0),
                    tpch::query_workload(6, 2.0).named("newcomer-q6"),
                )
                .expect("bench workloads bind"),
            ),
            qos: QoS::default(),
        },
        FleetEvent::TenantDeparted {
            machine: 0,
            slot: 1,
        },
    ]
}

fn main() {
    let (machines, spaces) = fleet();
    let options = ControlPlaneOptions {
        // Fleet-relative gates: a single-tenant move can't clear the
        // single-machine 5 % default against a whole-fleet objective.
        migration_threshold: 1e-3,
        recalibration_surcharge: 1e-2,
        ..ControlPlaneOptions::default()
    };
    let mut plane = ControlPlane::new(machines, spaces, options.clone());
    println!(
        "fleet up: {} machines in {} pricing-class shards",
        plane.machine_count(),
        plane.shards().len()
    );

    let stream = events();
    let half = stream.len() / 2;
    for event in &stream[..half] {
        let out = plane.process_event(event.clone());
        println!(
            "  #{} {:<34} re-solved {:?}  objective {:.4}",
            out.seq, out.action, out.resolved, out.objective
        );
    }

    // Durable checkpoint: everything the plane has earned, as JSON.
    let saved = plane.snapshot().to_json();
    println!(
        "snapshot at seq {}: {} bytes of JSON",
        plane.seq(),
        saved.len()
    );

    // A "restarted process": fresh, uncalibrated advisors rebuilt from
    // the *current* topology (events may have drifted it since
    // construction), state fed back from the snapshot. Restore
    // validates hardware and tenant fingerprints before accepting it.
    let parsed = FleetSnapshot::from_json(&saved).expect("snapshot parses");
    let (fresh, spaces) = rebuild(&plane);
    let mut restored =
        ControlPlane::restore(fresh, spaces, options, &parsed).expect("snapshot restores");

    for event in &stream[half..] {
        let a = plane.process_event(event.clone());
        let b = restored.process_event(event.clone());
        assert_eq!(a.action, b.action);
        assert_eq!(a.resolved, b.resolved);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        println!(
            "  #{} {:<34} re-solved {:?}  objective {:.4}  (restored agrees)",
            b.seq, b.action, b.resolved, b.objective
        );
    }
    assert_eq!(plane.decision_log(), restored.decision_log());
    assert_eq!(plane.placements(), restored.placements());

    // Batched ingestion: a burst lands as one call — the two events on
    // machine 1 slot 0 coalesce, the dirty machines re-solve in a
    // single parallel wave, one decision is logged, and the running
    // and restored planes still agree bit for bit.
    let burst = vec![
        FleetEvent::WorkloadScaled {
            machine: 1,
            slot: 0,
            factor: 1.2,
        },
        FleetEvent::WorkloadScaled {
            machine: 2,
            slot: 0,
            factor: 0.9,
        },
        FleetEvent::WorkloadScaled {
            machine: 1,
            slot: 0,
            factor: 1.1,
        },
    ];
    let a = plane.process_batch(&burst);
    let b = restored.process_batch(&burst);
    assert_eq!(a.action, b.action);
    assert_eq!(a.resolved, b.resolved);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    println!(
        "  batch #{}: {:<30} re-solved {:?}  objective {:.4}",
        a.seq, a.action, a.resolved, a.objective
    );

    let stats = plane.stats();
    println!(
        "done: {} events, {} re-solves, {} migrations, {} optimizer calls",
        stats.events, stats.resolves, stats.migrations, stats.optimizer_calls
    );
    println!("restored plane finished the stream bit-identically");
}
