//! Safe moves: a reconcile migration never raises a machine's count of
//! unmet degradation limits, however large the gain it promises.

use proptest::prelude::*;
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

/// Each machine's count of unmet degradation limits.
fn unmet(plane: &ControlPlane) -> Vec<usize> {
    plane
        .placements()
        .iter()
        .map(|p| {
            p.as_ref()
                .map_or(0, |r| r.limits_met.iter().filter(|&&met| !met).count())
        })
        .collect()
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

/// TPC-H queries the drawn tenants run.
const QUERIES: [usize; 4] = [18, 21, 6, 1];

/// A drawn tenant: engine (0 = Pg, 1 = Db2), index into [`QUERIES`],
/// statement count and degradation limit (`None` = unconstrained; two
/// tenants in three draw a limit from 1.0–1.3).
type TenantDraw = (usize, usize, f64, Option<f64>);

fn tenant_draw() -> impl Strategy<Value = TenantDraw> {
    (
        0usize..2,
        0usize..QUERIES.len(),
        1.0f64..6.0,
        prop_oneof![
            Just(None),
            (1.0f64..1.3).prop_map(Some),
            (1.0f64..1.3).prop_map(Some)
        ],
    )
}

fn drawn_tenant(name: String, (engine, query, mult, _): TenantDraw) -> Tenant {
    let engine = if engine == 0 {
        Engine::pg()
    } else {
        Engine::db2()
    };
    Tenant::new(
        name,
        engine,
        tpch::catalog(0.1),
        tpch::query_workload(QUERIES[query], mult),
    )
    .expect("TPC-H binds")
}

fn drawn_qos((_, _, _, limit): TenantDraw) -> QoS {
    limit.map_or_else(QoS::default, QoS::with_limit)
}

/// A drawn fleet: per machine, its clock (1 = 1.5× the testbed's) and
/// its initial tenants.
type FleetDraw = Vec<(usize, Vec<TenantDraw>)>;

/// A drawn event: arrival (0) or workload change (1), a machine pick,
/// a slot pick and a tenant draw (the arrival, or the changed
/// workload's query and count).
type EventDraw = (usize, usize, usize, TenantDraw);

fn fleet_draw() -> impl Strategy<Value = FleetDraw> {
    proptest::collection::vec(
        (0usize..2, proptest::collection::vec(tenant_draw(), 1..4)),
        2..4,
    )
}

fn events_draw() -> impl Strategy<Value = Vec<EventDraw>> {
    proptest::collection::vec((0usize..2, 0usize..3, 0usize..4, tenant_draw()), 4..7)
}

/// What a run saw, so a vacuous draw can be told from a real one.
#[derive(Debug, Default)]
struct Coverage {
    /// Major workload changes.
    majors: usize,
    /// Migrations taken.
    moves: usize,
    /// Migrations onto a machine that already hosted a finite
    /// degradation limit.
    limited_destinations: usize,
}

impl std::ops::AddAssign for Coverage {
    fn add_assign(&mut self, other: Coverage) {
        self.majors += other.majors;
        self.moves += other.moves;
        self.limited_destinations += other.limited_destinations;
    }
}

/// Build the drawn fleet, apply the drawn events one at a time, and
/// check every migration against the unmet-limit counts before its
/// event.
fn check(fleet: &FleetDraw, events: &[EventDraw]) -> Coverage {
    let machines = fleet
        .iter()
        .enumerate()
        .map(|(m, (fast, tenants))| {
            let mut spec = PhysicalMachine::paper_testbed();
            if *fast == 1 {
                spec.core_ghz *= 1.5;
            }
            let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
            for (i, &t) in tenants.iter().enumerate() {
                adv.add_tenant(drawn_tenant(format!("m{m}-t{i}"), t), drawn_qos(t));
            }
            adv
        })
        .collect();
    let k = fleet.len();
    let mut plane = ControlPlane::new(
        machines,
        vec![SearchSpace::cpu_only(0.25); k],
        ControlPlaneOptions::default(),
    );
    let mut coverage = Coverage::default();
    for (e, &(kind, m, slot, t)) in events.iter().enumerate() {
        let m = m % k;
        let arrival = kind == 0 || plane.machine(m).tenant_count() == 0;
        let event = if arrival {
            FleetEvent::TenantArrived {
                machine: m,
                tenant: Box::new(drawn_tenant(format!("arrival-{e}"), t)),
                qos: drawn_qos(t),
            }
        } else {
            let slot = slot % plane.machine(m).tenant_count();
            // The first drawn query the tenant does not run already.
            let current = &plane.machine(m).tenant(slot).workload.statements[0].sql;
            let workload = (0..QUERIES.len())
                .map(|j| tpch::query_workload(QUERIES[(t.1 + j) % QUERIES.len()], t.2))
                .find(|w| &w.statements[0].sql != current)
                .expect("the queries differ");
            FleetEvent::WorkloadChanged {
                machine: m,
                slot,
                workload,
            }
        };
        let before = unmet(&plane);
        let outcome = plane.process_event(event);
        coverage.majors += usize::from(outcome.action.contains("(major)"));
        let Some(mv) = &outcome.migration else {
            continue;
        };
        let after = unmet(&plane);
        assert!(
            after[mv.to] <= before[mv.to],
            "{mv:?} raised the destination's unmet limits {before:?} -> {after:?}"
        );
        if arrival {
            assert!(
                after[mv.from] <= before[mv.from],
                "{mv:?} raised the source's unmet limits {before:?} -> {after:?}"
            );
        }
        coverage.moves += 1;
        // The moved tenant is the destination's last.
        let qos = plane.machine(mv.to).qos();
        if qos[..qos.len() - 1]
            .iter()
            .any(|q| q.degradation_limit.is_finite())
        {
            coverage.limited_destinations += 1;
        }
    }
    coverage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random 2–3 machine fleets of two hardware classes (the paper
    /// testbed at 1.0× or 1.5× clock) with mixed Pg / Db2 tenants, some
    /// limited, take single arrivals and workload changes to another
    /// query (most classify major). After every event that migrates,
    /// the destination holds no more unmet limits than before the
    /// event, and after an arrival neither does the source. Each case
    /// draws several fleets, and together they must see major changes
    /// and move tenants, some onto limited machines.
    #[test]
    fn no_event_moves_a_tenant_into_a_broken_limit(
        draws in proptest::collection::vec((fleet_draw(), events_draw()), 16..17),
    ) {
        let mut coverage = Coverage::default();
        for (fleet, events) in &draws {
            coverage += check(fleet, events);
        }
        prop_assert!(coverage.majors > 0, "{coverage:?}");
        prop_assert!(coverage.moves > 0, "{coverage:?}");
        prop_assert!(coverage.limited_destinations > 0, "{coverage:?}");
    }
}
