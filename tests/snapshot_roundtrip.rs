//! Property tests for durable control-plane snapshots: across random
//! drift sequences and arbitrary mid-sequence restarts, save → restore
//! → resume must be bit-identical to the uninterrupted run — same
//! decision log, same placements, same objective bits — and the
//! snapshot JSON itself must round-trip byte-for-byte.

use proptest::prelude::*;
use vda::core::problem::{QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::core::{ControlPlane, ControlPlaneOptions, FleetEvent, FleetSnapshot, MachineSnapshot};
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

/// Queries cycled through by drift events (scan-leaning: cheap to
/// probe, so the tests stay affordable in debug builds).
const CYCLE: [usize; 3] = [6, 16, 7];

/// A miniature two-class fleet: machine 0 a stock paper testbed,
/// machine 1 a faster clock, two tenants each.
fn fleet() -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let mut machines = Vec::new();
    for m in 0..2usize {
        let mut spec = PhysicalMachine::paper_testbed();
        if m == 1 {
            spec.core_ghz *= 1.5;
        }
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        for s in 0..2usize {
            let q = CYCLE[(m * 2 + s) % CYCLE.len()];
            let name = format!("m{m}-t{s}-q{q}");
            adv.add_tenant(
                Tenant::new(
                    name.clone(),
                    Engine::db2(),
                    tpch::catalog(1.0),
                    tpch::query_workload(q, 1.0 + (m * 2 + s) as f64 * 0.5).named(name),
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
    let space = SearchSpace::cpu_only(512.0 / 8192.0);
    (machines, vec![space; 2])
}

fn options() -> ControlPlaneOptions {
    ControlPlaneOptions {
        migration_threshold: 1e-3,
        recalibration_surcharge: 1e-2,
        ..ControlPlaneOptions::default()
    }
}

/// Decode one drift event against the plane's *live* state, so every
/// generated event is valid whatever the earlier events did to slot
/// counts. `(kind, msel, ssel, factor)` come from the proptest
/// strategy.
fn decode_event(
    plane: &ControlPlane,
    e: usize,
    kind: u32,
    msel: usize,
    ssel: usize,
    factor: f64,
) -> FleetEvent {
    let count = plane.machine_count();
    // Walk to a machine that still hosts tenants (departures may have
    // emptied one).
    let mut m = msel % count;
    while plane.machine(m).tenant_count() == 0 {
        m = (m + 1) % count;
    }
    let tcount = plane.machine(m).tenant_count();
    let slot = ssel % tcount;
    let q = CYCLE[e % CYCLE.len()];
    match kind % 4 {
        0 => FleetEvent::WorkloadScaled {
            machine: m,
            slot,
            factor,
        },
        1 => FleetEvent::WorkloadChanged {
            machine: m,
            slot,
            workload: tpch::query_workload(q, 1.0 + factor).named(format!("drift-{e}-q{q}")),
        },
        2 if tcount > 1 => FleetEvent::TenantDeparted {
            machine: m,
            slot: tcount - 1,
        },
        _ => FleetEvent::TenantArrived {
            machine: msel % count,
            tenant: Box::new(
                Tenant::new(
                    format!("arrival-{e}-q{q}"),
                    Engine::db2(),
                    tpch::catalog(1.0),
                    tpch::query_workload(q, 1.0 + 0.125 * e as f64)
                        .named(format!("arrival-{e}-q{q}")),
                )
                .expect("bench workloads bind"),
            ),
            qos: QoS::default(),
        },
    }
}

/// Reconstruct the plane's current topology as fresh, uncalibrated
/// advisors — what a restarted process rebuilds before feeding the
/// snapshot to `ControlPlane::restore`.
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

/// Drive `plane` through the drift sequence, recording the concrete
/// events so a second leg can replay them verbatim.
fn drive(
    plane: &mut ControlPlane,
    drifts: &[(u32, usize, usize, f64)],
    from: usize,
    recorded: &mut Vec<FleetEvent>,
) {
    for (e, &(kind, msel, ssel, factor)) in drifts.iter().enumerate().skip(from) {
        let event = decode_event(plane, e, kind, msel, ssel, factor);
        recorded.push(event.clone());
        plane.process_event(event);
    }
}

/// The core contract check: run the sequence uninterrupted; run it
/// again with a snapshot/restore at `restart`; the two runs must agree
/// bit-for-bit, and the snapshot JSON must round-trip exactly.
fn check_restart_at(drifts: &[(u32, usize, usize, f64)], restart: usize) {
    // Uninterrupted leg (also the event recorder: the bit-identical
    // contract means the interrupted leg sees the same live state at
    // every step, so replaying the recorded events is faithful).
    let (machines, spaces) = fleet();
    let mut reference = ControlPlane::new(machines, spaces, options());
    let mut recorded = Vec::new();
    drive(&mut reference, drifts, 0, &mut recorded);

    // Interrupted leg: replay to the restart point, snapshot, restore
    // into a freshly built (uncalibrated) fleet, replay the rest.
    let (machines, spaces) = fleet();
    let mut first = ControlPlane::new(machines, spaces, options());
    for event in &recorded[..restart] {
        first.process_event(event.clone());
    }
    let snapshot = first.snapshot();
    let json = snapshot.to_json();
    let parsed = FleetSnapshot::from_json(&json).expect("snapshot parses");
    assert_eq!(parsed, snapshot, "parse must invert to_json");

    let (fresh, spaces) = rebuild(&first);
    let mut resumed =
        ControlPlane::restore(fresh, spaces, options(), &parsed).expect("snapshot restores");
    assert_eq!(
        resumed.snapshot().to_json(),
        json,
        "restored plane must re-serialize byte-identically"
    );
    for event in &recorded[restart..] {
        resumed.process_event(event.clone());
    }

    assert_eq!(
        resumed.decision_log(),
        reference.decision_log(),
        "restart at {restart}: decision logs diverge"
    );
    assert_eq!(
        resumed.placements(),
        reference.placements(),
        "restart at {restart}: placements diverge"
    );
    assert_eq!(
        resumed.objective().to_bits(),
        reference.objective().to_bits(),
        "restart at {restart}: objective bits diverge"
    );
    assert_eq!(
        resumed.stats().optimizer_calls,
        reference.stats().optimizer_calls,
        "restart at {restart}: optimizer-call bills diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random drift sequences, random restart point: resume must be
    /// bit-identical to never having stopped.
    #[test]
    fn resume_is_bit_identical_across_random_drift_sequences(
        drifts in proptest::collection::vec(
            (0u32..4, 0usize..8, 0usize..8, 0.4f64..2.5),
            2..6,
        ),
        cut in 0usize..64,
    ) {
        let restart = cut % (drifts.len() + 1);
        check_restart_at(&drifts, restart);
    }
}

/// Every restart point of one fixed sequence — including restart 0 (a
/// snapshot of the freshly built, never-evented plane) and a restart
/// after the final event (nothing left to replay).
#[test]
fn every_restart_point_of_a_fixed_sequence_resumes_bit_identically() {
    // One of each kind: a scale, a major change, a departure, an
    // arrival.
    let drifts = [
        (0u32, 0usize, 1usize, 1.6f64),
        (1, 1, 0, 2.0),
        (2, 0, 1, 1.0),
        (3, 1, 0, 1.2),
    ];
    for restart in 0..=drifts.len() {
        check_restart_at(&drifts, restart);
    }
}

/// Ring-buffer snapshots at a non-trivial head position: with a
/// three-decision horizon, five events wrap the ring before the
/// snapshot, so the log's logical order differs from its physical
/// buffer order (the head sits mid-buffer). The snapshot serializes
/// the *logical* order and the drop counter — head position is not
/// durable state — so restore must rebuild an equivalent ring, the
/// immediate re-snapshot must be byte-identical, and the resumed run
/// must keep overwriting oldest-first exactly like the uninterrupted
/// one.
#[test]
fn ring_buffer_snapshot_restores_at_a_wrapped_head_position() {
    let ring_options = || ControlPlaneOptions {
        decision_log_capacity: 3,
        ..options()
    };
    // Scales and changes only: slot counts stay fixed, so the recorded
    // stream is trivially valid for every leg.
    let drifts = [
        (0u32, 0usize, 1usize, 1.6f64),
        (1, 1, 0, 2.0),
        (0, 0, 0, 0.7),
        (1, 0, 1, 1.3),
        (0, 1, 1, 1.9),
        (0, 0, 1, 1.1),
        (1, 1, 1, 1.7),
    ];

    let (machines, spaces) = fleet();
    let mut reference = ControlPlane::new(machines, spaces, ring_options());
    let mut recorded = Vec::new();
    drive(&mut reference, &drifts, 0, &mut recorded);
    assert_eq!(reference.decision_log().len(), 3);
    assert_eq!(reference.decision_log().dropped(), 4);

    // Interrupted leg, cut after five events: two decisions already
    // overwritten, head wrapped to the middle of the buffer.
    let (machines, spaces) = fleet();
    let mut first = ControlPlane::new(machines, spaces, ring_options());
    for event in &recorded[..5] {
        first.process_event(event.clone());
    }
    assert_eq!(first.decision_log().len(), 3);
    assert_eq!(first.decision_log().dropped(), 2);

    let snapshot = first.snapshot();
    let json = snapshot.to_json();
    let parsed = FleetSnapshot::from_json(&json).expect("snapshot parses");
    assert_eq!(parsed, snapshot, "parse must invert to_json");

    let (fresh, spaces) = rebuild(&first);
    let mut resumed =
        ControlPlane::restore(fresh, spaces, ring_options(), &parsed).expect("snapshot restores");
    assert_eq!(
        resumed.snapshot().to_json(),
        json,
        "re-snapshot at a wrapped head must be byte-identical"
    );
    for event in &recorded[5..] {
        resumed.process_event(event.clone());
    }

    assert_eq!(
        resumed.decision_log(),
        reference.decision_log(),
        "ring contents after resume diverge"
    );
    assert_eq!(resumed.decision_log().dropped(), 4);
    assert_eq!(resumed.placements(), reference.placements());
    assert_eq!(
        resumed.objective().to_bits(),
        reference.objective().to_bits()
    );
}

/// A restored plane rejects topologies that do not match the snapshot
/// (wrong machine count, wrong hardware, wrong tenants, QoS or search
/// space) and machine states a live plane never has.
#[test]
fn restore_validates_the_rebuilt_topology() {
    let (machines, spaces) = fleet();
    let plane = ControlPlane::new(machines, spaces, options());
    let snapshot = plane.snapshot();

    let (mut machines, mut spaces) = fleet();
    machines.pop();
    spaces.pop();
    let err = ControlPlane::restore(machines, spaces, options(), &snapshot).unwrap_err();
    assert!(err.contains("machines"), "{err}");

    let (mut machines, spaces) = fleet();
    machines.swap(0, 1); // swaps both hardware and tenant sets
    let err = ControlPlane::restore(machines, spaces, options(), &snapshot).unwrap_err();
    assert!(err.contains("machine 0"), "{err}");

    let (mut machines, spaces) = fleet();
    machines[0].remove_tenant(1);
    let err = ControlPlane::restore(machines, spaces, options(), &snapshot).unwrap_err();
    assert!(err.contains("tenant"), "{err}");

    // The snapshot carries neither QoS nor search spaces, but each
    // machine's memo key hashes both: a fleet rebuilt with a changed
    // degradation limit or grid is refused, not resumed on placements
    // solved under the old ones.
    let (mut machines, spaces) = fleet();
    for adv in &mut machines {
        adv.set_qos(0, QoS::with_limit(1.01));
    }
    let err = ControlPlane::restore(machines, spaces, options(), &snapshot).unwrap_err();
    assert!(
        err.contains("machine 0") && err.contains("warm_key"),
        "{err}"
    );
    let (machines, mut spaces) = fleet();
    spaces[1] = SearchSpace::cpu_only(1024.0 / 8192.0);
    let err = ControlPlane::restore(machines, spaces, options(), &snapshot).unwrap_err();
    assert!(
        err.contains("machine 1") && err.contains("warm_key"),
        "{err}"
    );

    // Machine 1 (two tenants) edited into a state no live plane has;
    // `what` must appear in the refusal.
    type Edit = fn(&mut MachineSnapshot);
    let edits: [(&str, Edit); 6] = [
        ("1 allocations", |ms| {
            ms.placement.as_mut().unwrap().allocations.pop();
        }),
        ("3 costs", |ms| {
            ms.placement.as_mut().unwrap().costs.push(1.0);
        }),
        ("1 limit verdicts", |ms| {
            ms.placement.as_mut().unwrap().limits_met.pop();
        }),
        ("no placement", |ms| ms.placement = None),
        ("without a warm_key", |ms| ms.warm_key = None),
        ("calibrations", |ms| ms.calibrations.clear()),
    ];
    for (what, edit) in edits {
        let mut edited = snapshot.clone();
        edit(&mut edited.machines[1]);
        let (machines, spaces) = fleet();
        let err = ControlPlane::restore(machines, spaces, options(), &edited).unwrap_err();
        assert!(
            err.contains("machine 1") && err.contains(what),
            "{what}: {err}"
        );
    }
    // An emptied machine 1 may hold neither a placement nor a memo key.
    let emptied = |placement: bool, warm_key: bool| {
        let mut edited = snapshot.clone();
        let ms = &mut edited.machines[1];
        ms.tenants.clear();
        if !placement {
            ms.placement = None;
        }
        if !warm_key {
            ms.warm_key = None;
        }
        let (mut machines, spaces) = fleet();
        while machines[1].tenant_count() > 0 {
            machines[1].remove_tenant(0);
        }
        ControlPlane::restore(machines, spaces, options(), &edited)
    };
    let err = emptied(true, false).unwrap_err();
    assert!(
        err.contains("machine 1") && err.contains("empty machine"),
        "{err}"
    );
    let err = emptied(false, true).unwrap_err();
    assert!(
        err.contains("machine 1") && err.contains("warm_key"),
        "{err}"
    );
    assert!(emptied(false, false).is_ok());

    let (machines, spaces) = fleet();
    assert!(ControlPlane::restore(machines, spaces, options(), &snapshot).is_ok());
}

/// A machine emptied by departures holds neither a placement nor a
/// memo key, so its snapshot passes restore's checks and round-trips.
#[test]
fn a_machine_emptied_by_departures_restores() {
    let (machines, spaces) = fleet();
    let mut plane = ControlPlane::new(machines, spaces, options());
    for slot in [1, 0] {
        plane.process_event(FleetEvent::TenantDeparted { machine: 1, slot });
    }
    let snapshot = plane.snapshot();
    assert_eq!(snapshot.machines[1].warm_key, None);
    let (machines, spaces) = rebuild(&plane);
    let restored = ControlPlane::restore(machines, spaces, options(), &snapshot)
        .expect("an emptied machine restores");
    assert_eq!(restored.snapshot().to_json(), snapshot.to_json());
}

/// A restored plane re-solves an unchanged machine like the
/// uninterrupted one. A workload scaled by 1.0 changes no fingerprint,
/// so the re-solve it triggers reads every probe from the restored
/// cache: both planes pay the same optimizer calls (none, with an
/// unbounded cache) and land on the same placement bits.
#[test]
fn a_restored_plane_re_solves_an_unchanged_machine_like_the_uninterrupted_one() {
    let drifts = [(0u32, 0usize, 1usize, 1.6f64), (1, 1, 0, 2.0)];
    let (machines, spaces) = fleet();
    let mut reference = ControlPlane::new(machines, spaces, options());
    drive(&mut reference, &drifts, 0, &mut Vec::new());
    let snapshot = FleetSnapshot::from_json(&reference.snapshot().to_json()).expect("parses");
    let (fresh, spaces) = rebuild(&reference);
    let mut resumed =
        ControlPlane::restore(fresh, spaces, options(), &snapshot).expect("snapshot restores");

    for plane in [&mut reference, &mut resumed] {
        let outcome = plane.process_event(FleetEvent::WorkloadScaled {
            machine: 1,
            slot: 0,
            factor: 1.0,
        });
        assert_eq!(outcome.resolved, vec![1], "the event re-solves machine 1");
        assert_eq!(outcome.optimizer_calls, 0, "{outcome:?}");
    }
    assert_eq!(resumed.placements(), reference.placements());
    assert_eq!(resumed.snapshot().to_json(), reference.snapshot().to_json());
}

/// A plane that swaps in a fresh probe cache every event
/// (`incremental: false`) keys every occupied machine's placement by
/// its current inputs too: its snapshot carries the keys the
/// incremental plane writes, restore accepts it, and a rebuilt fleet
/// whose QoS changed on one machine is refused by machine number.
#[test]
fn a_cold_mode_snapshot_keys_every_occupied_machine() {
    let drifts = [
        (0u32, 0usize, 1usize, 1.6f64),
        (1, 1, 0, 2.0),
        (0, 0, 0, 0.5),
    ];
    let cold_options = ControlPlaneOptions {
        incremental: false,
        ..options()
    };
    let (machines, spaces) = fleet();
    let mut cold = ControlPlane::new(machines, spaces, cold_options.clone());
    drive(&mut cold, &drifts, 0, &mut Vec::new());
    let (machines, spaces) = fleet();
    let mut incremental = ControlPlane::new(machines, spaces, options());
    drive(&mut incremental, &drifts, 0, &mut Vec::new());

    let snapshot = cold.snapshot();
    let keys = |snapshot: &FleetSnapshot| -> Vec<Option<u64>> {
        snapshot.machines.iter().map(|ms| ms.warm_key).collect()
    };
    assert!(
        snapshot
            .machines
            .iter()
            .all(|ms| ms.warm_key.is_some() != ms.tenants.is_empty()),
        "{:?}",
        keys(&snapshot)
    );
    assert_eq!(keys(&snapshot), keys(&incremental.snapshot()));
    let (machines, spaces) = rebuild(&cold);
    let restored = ControlPlane::restore(machines, spaces, cold_options.clone(), &snapshot)
        .expect("a cold-mode snapshot restores");
    assert_eq!(restored.snapshot().to_json(), snapshot.to_json());
    for m in 0..cold.machine_count() {
        let (mut machines, spaces) = rebuild(&cold);
        machines[m].set_qos(0, QoS::with_limit(1.01));
        let err =
            ControlPlane::restore(machines, spaces, cold_options.clone(), &snapshot).unwrap_err();
        assert!(
            err.contains(&format!("machine {m}")) && err.contains("warm_key"),
            "{err}"
        );
    }
}
