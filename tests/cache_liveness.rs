//! Property tests for the control plane's probe-cache pruning. The
//! fleet cache counts the tenants its advisors hold per fingerprint and
//! queues the ones that lose their last holder, so a prune drops dead
//! generations without walking the fleet or the cache. That is only an
//! optimization if it drops exactly what the full sweep would — every
//! generation whose model no machine or registry entry holds, and every
//! generation whose tenant fingerprint no hosted tenant carries — at
//! the same prune points:
//!
//! * (a) after every prune point, a test-side full sweep
//!   ([`ProbeCache::retain_models`] + [`ProbeCache::retain_tenants`]
//!   over live sets read through the public API) changes nothing;
//! * (b) uncapped, the plane's cache equals, after every batch, the
//!   cache of a twin that never prunes periodically
//!   (`prune_every: 0`) and that the test sweeps at the same points.
//!
//! The streams revert workloads, give two tenants one fingerprint,
//! empty and decommission machines (one class each for two of them),
//! run adaptive tuning (canary, promotion and rollback install
//! models), and restart once from a snapshot taken between prunes;
//! some run the cold baseline, which replaces the cache every batch.
//!
//! [`ProbeCache::retain_models`]: vda::core::ProbeCache::retain_models
//! [`ProbeCache::retain_tenants`]: vda::core::ProbeCache::retain_tenants

use proptest::prelude::*;
use std::collections::HashSet;
use vda::core::problem::AllocKey;
use vda::core::problem::{QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::core::{
    AdaptionOptions, AdaptiveTuningOptions, ControlPlane, ControlPlaneOptions, Estimate,
    FleetEvent, FleetSnapshot, GuardrailOptions, ProbeCache,
};
use vda::simdb::engines::{Engine, EngineKind};
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::{tpcc, tpch, Workload};

/// TPC-C warehouses accessed by every OLTP tenant.
const WAREHOUSES: u32 = 2;

/// DSS workloads `(query, count)` drawn from a small palette, so
/// changes revert and two tenants often share a fingerprint.
const DSS: [(usize, f64); 4] = [(6, 1.0), (16, 1.0), (6, 2.0), (16, 2.0)];

/// Scale factors; `2.0` and `0.5` undo each other exactly.
const FACTORS: [f64; 4] = [2.0, 0.5, 1.25, 0.8];

/// Clock multiplier per machine index: machines 0 and 2 share a
/// hardware class, machines 1 and 3 each have their own, so emptying
/// and decommissioning one of them retires a class calibration.
const GHZ: [f64; 4] = [1.0, 1.5, 1.0, 2.0];

type Rows = Vec<(u64, u64, AllocKey, Estimate)>;

fn dss(pick: usize) -> Workload {
    let (q, count) = DSS[pick % DSS.len()];
    tpch::query_workload(q, count)
}

fn oltp(pick: usize) -> Workload {
    tpcc::workload(WAREHOUSES, 2 + (pick % 2) as u32, 40.0)
}

fn dss_tenant(name: String, pick: usize) -> Tenant {
    Tenant::new(
        name.clone(),
        Engine::db2(),
        tpch::catalog(1.0),
        dss(pick).named(name),
    )
    .expect("test workloads bind")
}

/// `k` machines: the even ones host a Db2 DSS tenant and a Pg TPC-C
/// tenant (the OLTP tenant's estimate/actual gap feeds adaptation),
/// the odd ones a single DSS tenant.
fn fleet(k: usize) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let mut machines = Vec::new();
    for (m, ghz) in GHZ.iter().enumerate().take(k) {
        let mut spec = PhysicalMachine::paper_testbed();
        spec.core_ghz *= ghz;
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        adv.add_tenant(dss_tenant(format!("m{m}-dss"), m), QoS::default());
        if m % 2 == 0 {
            let name = format!("m{m}-oltp");
            adv.add_tenant(
                Tenant::new(
                    name.clone(),
                    Engine::pg(),
                    tpcc::catalog(WAREHOUSES),
                    oltp(m / 2).named(name),
                )
                .expect("test workloads bind"),
                QoS::default(),
            );
        }
        machines.push(adv);
    }
    let space = SearchSpace::cpu_only(512.0 / 8192.0);
    (machines, vec![space; k])
}

/// Small-sample tuning, so Shadow → Canary → verdict fits in a few
/// reports. `promotable: false` forces every canary to roll back.
fn options(prune_every: u64, capacity: usize, promotable: bool) -> ControlPlaneOptions {
    ControlPlaneOptions {
        prune_every,
        probe_cache_capacity: capacity,
        adaptive: Some(AdaptiveTuningOptions {
            adaption: AdaptionOptions {
                min_samples: 2,
                ..AdaptionOptions::default()
            },
            guardrail: GuardrailOptions {
                min_shadow_samples: 2,
                min_canary_samples: 2,
                max_error_inflation: 0.5,
                max_objective_regression: if promotable { 10.0 } else { -1.0 },
            },
        }),
        ..ControlPlaneOptions::default()
    }
}

/// Decode a non-structural step against the plane's current state: an
/// actuals report on an OLTP tenant (the first one from the picked
/// machine on), a workload scale, or a workload change.
fn workload_event(plane: &ControlPlane, e: usize, step: (u32, usize, usize, usize)) -> FleetEvent {
    let (kind, msel, ssel, pick) = step;
    let count = plane.machine_count();
    if kind % 4 == 0 {
        let oltp_slot = (0..count).map(|i| (msel + i) % count).find_map(|m| {
            let adv = plane.machine(m);
            (0..adv.tenant_count())
                .find(|&s| adv.tenant(s).engine.kind() == EngineKind::PgSim)
                .map(|slot| (m, slot))
        });
        if let Some((machine, slot)) = oltp_slot {
            return FleetEvent::ActualsReported { machine, slot };
        }
    }
    let mut m = msel % count;
    while plane.machine(m).tenant_count() == 0 {
        m = (m + 1) % count;
    }
    let adv = plane.machine(m);
    let slot = ssel % adv.tenant_count();
    let workload = match adv.tenant(slot).engine.kind() {
        EngineKind::PgSim => oltp(pick),
        _ => dss(pick),
    };
    if kind % 4 == 1 {
        FleetEvent::WorkloadScaled {
            machine: m,
            slot,
            factor: FACTORS[pick % FACTORS.len()],
        }
    } else {
        FleetEvent::WorkloadChanged {
            machine: m,
            slot,
            workload: workload.named(format!("drift-{e}")),
        }
    }
}

/// One batch: every step but the last is a workload event decoded
/// against the pre-batch state (they leave indices alone); the last
/// step may be structural — an arrival, a departure (followed by the
/// machine's decommission when it empties it), or the decommission of
/// an already-empty machine.
fn decode_batch(
    plane: &ControlPlane,
    e: usize,
    steps: &[(u32, usize, usize, usize)],
) -> Vec<FleetEvent> {
    let (last, rest) = steps.split_last().expect("batches are non-empty");
    let mut events: Vec<FleetEvent> = rest
        .iter()
        .enumerate()
        .map(|(i, &step)| workload_event(plane, e + i, step))
        .collect();
    let e = e + rest.len();
    let (kind, msel, ssel, pick) = *last;
    let count = plane.machine_count();
    let empty = (0..count).find(|&m| plane.machine(m).tenant_count() == 0);
    // The fleet keeps at least one tenant, so decoding always finds one.
    let hosted: usize = (0..count).map(|m| plane.machine(m).tenant_count()).sum();
    match (kind % 6, empty) {
        (5, Some(m)) if count > 1 => events.push(FleetEvent::MachineDecommissioned { machine: m }),
        (4 | 5, _) if hosted > 1 => {
            let mut m = msel % count;
            while plane.machine(m).tenant_count() == 0 {
                m = (m + 1) % count;
            }
            let n = plane.machine(m).tenant_count();
            events.push(FleetEvent::TenantDeparted {
                machine: m,
                slot: ssel % n,
            });
            if n == 1 && count > 1 {
                events.push(FleetEvent::MachineDecommissioned { machine: m });
            }
        }
        (3..=5, _) => events.push(FleetEvent::TenantArrived {
            machine: msel % count,
            tenant: Box::new(dss_tenant(format!("arrival-{e}"), pick)),
            qos: QoS::default(),
        }),
        _ => events.push(workload_event(plane, e, *last)),
    }
    events
}

/// The plane's current topology as fresh, uncalibrated advisors — what
/// a restarted process hands to `ControlPlane::restore`.
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

/// Model and tenant fingerprints anything in the fleet can still read,
/// from public accessors only: installed calibrations, the class
/// registry, hosted tenants.
fn live_sets(plane: &ControlPlane) -> (HashSet<u64>, HashSet<u64>) {
    let mut models: HashSet<u64> = plane
        .snapshot()
        .registry
        .iter()
        .map(|(_, _, model)| model.fingerprint())
        .collect();
    let mut tenants = HashSet::new();
    for m in 0..plane.machine_count() {
        let adv = plane.machine(m);
        models.extend(adv.calibrations().iter().map(|(_, c)| c.fingerprint()));
        tenants.extend((0..adv.tenant_count()).map(|i| adv.tenant(i).fingerprint()));
    }
    (models, tenants)
}

/// `rows` after the full sweep against the plane's live sets.
fn swept(plane: &ControlPlane, rows: &Rows) -> Rows {
    let (models, tenants) = live_sets(plane);
    let copy = ProbeCache::new();
    copy.import(rows);
    copy.retain_models(&models);
    copy.retain_tenants(&tenants);
    copy.export()
}

/// Restart `plane` from a JSON round trip of its snapshot.
fn restarted(plane: &ControlPlane, options: ControlPlaneOptions) -> ControlPlane {
    let json = plane.snapshot().to_json();
    let parsed = FleetSnapshot::from_json(&json).expect("snapshot parses back");
    let (machines, spaces) = rebuild(plane);
    ControlPlane::restore(machines, spaces, options, &parsed).expect("snapshot restores")
}

/// What a run saw, so callers can tell a vacuous stream from a real
/// one.
#[derive(Debug, Default)]
struct Coverage {
    /// Prune points at which the cache held rows a sweep drops.
    pruned_dead: usize,
    /// Whether the restart's snapshot held such rows.
    restored_dead: bool,
    decommissions: usize,
}

/// Drive a plane with `opts` through `batches`, restarting it from its
/// snapshot before batch `restart`, and check (a) at every prune point
/// and, when uncapped, (b) after every batch.
fn check(
    machines: usize,
    opts: ControlPlaneOptions,
    batches: &[Vec<(u32, usize, usize, usize)>],
    restart: usize,
) -> Coverage {
    let prune_every = opts.prune_every;
    let (m, s) = fleet(machines);
    let mut plane = ControlPlane::new(m, s, opts.clone());
    let (m, s) = fleet(machines);
    let mut twin = ControlPlane::new(
        m,
        s,
        ControlPlaneOptions {
            prune_every: 0,
            ..opts.clone()
        },
    );
    let mut coverage = Coverage::default();
    let mut e = 0;
    for (b, steps) in batches.iter().enumerate() {
        if b == restart {
            let rows = plane.probe_cache().export();
            coverage.restored_dead = swept(&plane, &rows) != rows;
            plane = restarted(&plane, opts.clone());
        }
        let events = decode_batch(&plane, e, steps);
        e += steps.len();
        let decommissions = events
            .iter()
            .filter(|ev| matches!(ev, FleetEvent::MachineDecommissioned { .. }))
            .count();
        coverage.decommissions += decommissions;
        let before = plane.seq();
        let out = plane.process_batch(&events);
        let twin_out = twin.process_batch(&events);
        assert_eq!(out.action, twin_out.action, "batch {b}: actions diverge");
        assert_eq!(out.objective.to_bits(), twin_out.objective.to_bits());
        let periodic = before / prune_every < plane.seq() / prune_every;
        if periodic || decommissions > 0 {
            // (a) The plane's prune left nothing a full sweep drops.
            let rows = plane.probe_cache().export();
            assert_eq!(
                swept(&plane, &rows),
                rows,
                "batch {b}: prune missed dead rows"
            );
        }
        if periodic {
            let rows = twin.probe_cache().export();
            if swept(&twin, &rows) != rows {
                coverage.pruned_dead += 1;
            }
            let (models, tenants) = live_sets(&twin);
            twin.probe_cache().retain_models(&models);
            twin.probe_cache().retain_tenants(&tenants);
        }
        if opts.probe_cache_capacity == 0 {
            // (b) Same rows as the swept twin, batch by batch.
            assert_eq!(
                plane.probe_cache().export(),
                twin.probe_cache().export(),
                "batch {b}: caches diverge from the swept twin"
            );
        }
    }
    coverage
}

fn batch() -> impl Strategy<Value = Vec<(u32, usize, usize, usize)>> {
    proptest::collection::vec((0u32..6, 0usize..4, 0usize..3, 0usize..4), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random streams on 2–4 machines, `prune_every` 2–5, capped and
    /// uncapped, one case in four cold: the counted prune drops
    /// exactly what the sweep drops.
    #[test]
    fn counted_prune_equals_the_full_sweep(
        machines in 2usize..5,
        prune_every in 2u64..6,
        capped in 0usize..2,
        promotable in 0usize..2,
        mode in 0usize..4,
        batches in proptest::collection::vec(batch(), 4..12),
        restart in 1usize..8,
    ) {
        let opts = ControlPlaneOptions {
            incremental: mode != 0,
            ..options(prune_every, if capped == 1 { 24 } else { 0 }, promotable == 1)
        };
        check(machines, opts, &batches, restart);
    }
}

/// A fixed stream that is sure to cover what random ones may miss: a
/// change and its revert inside one prune interval, two tenants
/// sharing a fingerprint, a restart from a snapshot that holds dead
/// rows, and a class retired by a decommission in the middle of a
/// batch that also crosses a periodic prune point.
#[test]
fn a_fixed_stream_covers_revert_restart_and_decommission() {
    let batches = vec![
        // m0's DSS tenant takes m1's workload (one fingerprint, two
        // tenants); m2's DSS tenant scales ×2.
        vec![(2, 0, 0, 1), (1, 2, 0, 0)],
        // Actuals on m0's OLTP tenant; m2's tenant scales back ×0.5 —
        // its old fingerprint revives before the prune at seq 4.
        vec![(0, 0, 1, 0), (1, 2, 0, 1)],
        // m1 moves off the shared workload (it lives on with m0); m3's
        // fingerprint dies with no prune before the restart.
        vec![(2, 1, 0, 2), (2, 3, 0, 0)],
        // After the restart: m1 empties and is decommissioned mid-batch
        // (its class dies), and the batch crosses seq 8.
        vec![(0, 0, 1, 0), (4, 1, 0, 0)],
        vec![(2, 0, 0, 0), (1, 0, 0, 2)],
        vec![(2, 2, 0, 3)],
    ];
    let coverage = check(4, options(4, 0, true), &batches, 3);
    assert!(coverage.restored_dead, "{coverage:?}");
    assert!(coverage.decommissions >= 1, "{coverage:?}");
    assert!(coverage.pruned_dead >= 1, "{coverage:?}");
}
