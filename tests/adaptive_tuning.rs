//! Property tests for the adaptive-calibration subsystem: with
//! adaptation disabled the control plane must be bit-identical to the
//! frozen refined-model path (objectives, allocations, optimizer-call
//! counts); a rolled-back canary must restore the pre-canary model
//! exactly; and snapshots taken mid-adaptation (residual stores and
//! guardrail trackers live) must round-trip and resume bit-identically.

use proptest::prelude::*;
use vda::core::problem::{QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::core::{
    AdaptionOptions, AdaptiveTuningOptions, ControlPlane, ControlPlaneOptions, FleetEvent,
    FleetSnapshot, GuardrailOptions,
};
use vda::simdb::engines::{Engine, EngineKind};
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::{tpcc, tpch};

/// TPC-C warehouses accessed by every OLTP tenant.
const WAREHOUSES: u32 = 2;

/// Clients per warehouse at construction; drift events raise this so
/// the unmodeled lock-contention gap widens.
const BASE_CLIENTS: u32 = 2;

/// Scan-leaning DSS queries (cheap to probe in debug builds).
const DSS: [usize; 2] = [6, 16];

/// Two single-class machines, each hosting one Db2 DSS tenant (slot 0)
/// and one Pg TPC-C tenant (slot 1) — the optimizer's known OLTP
/// blind spot supplies the estimate/actual gap adaptation learns from.
/// Intensity salts are per global tenant index, so workload
/// fingerprints are fleet-unique.
fn fleet() -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let dss_cat = tpch::catalog(1.0);
    let oltp_cat = tpcc::catalog(WAREHOUSES);
    let mut machines = Vec::new();
    for m in 0..2usize {
        let mut adv =
            VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
        let q = DSS[m % DSS.len()];
        let g = m * 2;
        let name = format!("m{m}-dss-q{q}");
        adv.add_tenant(
            Tenant::new(
                name.clone(),
                Engine::db2(),
                dss_cat.clone(),
                tpch::query_workload(q, 2.0 * (1.0 + 0.001 * g as f64)).named(name),
            )
            .expect("test workloads bind"),
            QoS::default(),
        );
        let g = m * 2 + 1;
        let name = format!("m{m}-oltp");
        adv.add_tenant(
            Tenant::new(
                name.clone(),
                Engine::pg(),
                oltp_cat.clone(),
                tpcc::workload(WAREHOUSES, BASE_CLIENTS, 40.0 * (1.0 + 0.001 * g as f64))
                    .named(name),
            )
            .expect("test workloads bind"),
            QoS::default(),
        );
        machines.push(adv);
    }
    let space = SearchSpace::cpu_only(512.0 / 8192.0);
    (machines, vec![space; 2])
}

/// Prohibitive migration threshold: the topology stays pinned, so the
/// state-equality assertions compare like with like.
fn options(adaptive: Option<AdaptiveTuningOptions>) -> ControlPlaneOptions {
    ControlPlaneOptions {
        migration_threshold: 0.5,
        recalibration_surcharge: 1e-3,
        incremental: true,
        adaptive,
        ..ControlPlaneOptions::default()
    }
}

/// Small-sample knobs so the full Shadow → Canary → verdict lifecycle
/// fits in a handful of reports. `promotable: false` sets an
/// unsatisfiable objective-regression budget, forcing the canary
/// verdict to roll back.
fn tuning(promotable: bool) -> AdaptiveTuningOptions {
    AdaptiveTuningOptions {
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
    }
}

/// The drift event for machine `m`: replace its OLTP workload with a
/// heavier-contention variant. The event-index salt keeps every
/// drifted fingerprint unique.
fn drift_event(m: usize, clients: u32, e: usize) -> FleetEvent {
    FleetEvent::WorkloadChanged {
        machine: m,
        slot: 1,
        workload: tpcc::workload(WAREHOUSES, clients, 40.0 * (1.0 + 0.01 * e as f64))
            .named(format!("m{m}-oltp-drift-{e}")),
    }
}

/// Per-machine installed-calibration fingerprints — the certificate
/// that rollback restored the pre-canary models exactly.
fn calibration_fingerprints(plane: &ControlPlane) -> Vec<Vec<(&'static str, u64)>> {
    (0..plane.machine_count())
        .map(|m| {
            let adv = plane.machine(m);
            [EngineKind::Db2Sim, EngineKind::PgSim, EngineKind::TupleSim]
                .into_iter()
                .filter_map(|kind| {
                    adv.calibration(kind)
                        .map(|c| (kind.name(), c.fingerprint()))
                })
                .collect()
        })
        .collect()
}

/// Decode one generated step against the fixed two-machine topology.
/// `kind % 3`: a DSS workload scale, an OLTP contention drift, or an
/// actuals report on the OLTP slot.
fn decode_event(e: usize, kind: u32, msel: usize, factor: f64) -> FleetEvent {
    let m = msel % 2;
    match kind % 3 {
        0 => FleetEvent::WorkloadScaled {
            machine: m,
            slot: 0,
            factor,
        },
        1 => drift_event(m, BASE_CLIENTS + 1 + (e % 7) as u32, e),
        _ => FleetEvent::ActualsReported {
            machine: m,
            slot: 1,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// With adaptation disabled (the default), `ActualsReported` is a
    /// pure no-op: zero optimizer calls, an `(off)` decision, and a
    /// fleet bit-identical — objectives, allocations, per-event
    /// optimizer-call counts — to a plane that never saw the reports.
    /// This pins the adaptation-off path to the pre-subsystem
    /// refined-model behavior.
    #[test]
    fn adaptation_off_is_bit_identical_to_the_frozen_path(
        steps in proptest::collection::vec(
            (0u32..3, 0usize..2, 0.5f64..2.0),
            3..8,
        ),
    ) {
        let stream: Vec<FleetEvent> = steps
            .iter()
            .enumerate()
            .map(|(e, &(kind, msel, factor))| decode_event(e, kind, msel, factor))
            .collect();

        let (machines, spaces) = fleet();
        let mut with_reports = ControlPlane::new(machines, spaces, options(None));
        let (machines, spaces) = fleet();
        let mut without = ControlPlane::new(machines, spaces, options(None));
        prop_assert_eq!(
            with_reports.stats().optimizer_calls,
            without.stats().optimizer_calls
        );

        for ev in &stream {
            let out = with_reports.process_event(ev.clone());
            if matches!(ev, FleetEvent::ActualsReported { .. }) {
                prop_assert!(out.action.ends_with("(off)"), "action: {}", out.action);
                prop_assert_eq!(out.optimizer_calls, 0);
            } else {
                let base = without.process_event(ev.clone());
                prop_assert_eq!(out.optimizer_calls, base.optimizer_calls);
                prop_assert_eq!(out.objective.to_bits(), base.objective.to_bits());
            }
        }

        prop_assert_eq!(with_reports.placements(), without.placements());
        prop_assert_eq!(
            with_reports.objective().to_bits(),
            without.objective().to_bits()
        );
        prop_assert_eq!(
            with_reports.stats().optimizer_calls,
            without.stats().optimizer_calls
        );
    }

    /// Enabling the adaptive option without feeding any actuals must
    /// change nothing: the machinery only engages on reports, so every
    /// decision, allocation, and optimizer-call count stays
    /// bit-identical to the frozen path.
    #[test]
    fn adaptive_enabled_without_reports_changes_nothing(
        steps in proptest::collection::vec(
            (0u32..2, 0usize..2, 0.5f64..2.0),
            2..6,
        ),
    ) {
        let stream: Vec<FleetEvent> = steps
            .iter()
            .enumerate()
            .map(|(e, &(kind, msel, factor))| decode_event(e, kind, msel, factor))
            .collect();

        let (machines, spaces) = fleet();
        let mut adaptive = ControlPlane::new(machines, spaces, options(Some(tuning(true))));
        let (machines, spaces) = fleet();
        let mut frozen = ControlPlane::new(machines, spaces, options(None));

        for ev in &stream {
            let a = adaptive.process_event(ev.clone());
            let f = frozen.process_event(ev.clone());
            prop_assert_eq!(a.optimizer_calls, f.optimizer_calls);
            prop_assert_eq!(a.objective.to_bits(), f.objective.to_bits());
            prop_assert_eq!(&a.action, &f.action);
        }

        prop_assert_eq!(adaptive.placements(), frozen.placements());
        prop_assert_eq!(
            adaptive.objective().to_bits(),
            frozen.objective().to_bits()
        );
        prop_assert!(adaptive.tuners().is_empty());
        prop_assert!(adaptive.adaption_storages().is_empty());
    }

    /// A canary that fails its verdict must restore the pre-canary
    /// model exactly: placements, objective bits, and every installed
    /// calibration fingerprint equal a lockstep never-canaried
    /// baseline, and the tracker is gone.
    #[test]
    fn rollback_restores_the_pre_canary_model_exactly(
        drift_clients in 8u32..13,
    ) {
        let (machines, spaces) = fleet();
        let mut plane = ControlPlane::new(machines, spaces, options(Some(tuning(false))));
        let (machines, spaces) = fleet();
        let mut baseline = ControlPlane::new(machines, spaces, options(None));

        let mut canary_deployed = false;
        let mut rolled_back = false;
        let mut events: Vec<FleetEvent> = (0..2).map(|m| drift_event(m, drift_clients, m)).collect();
        for _ in 0..12 {
            for m in 0..2usize {
                events.push(FleetEvent::ActualsReported { machine: m, slot: 1 });
            }
        }
        // Drive both planes over the shared stream, stopping at the
        // first rollback (storage cleared, no further re-proposal).
        for ev in events {
            let out = plane.process_event(ev.clone());
            baseline.process_event(ev);
            prop_assert!(!out.action.ends_with("(promoted)"), "must never promote");
            canary_deployed |= out.action.ends_with("(canary)");
            if out.action.ends_with("(rolled-back)") {
                rolled_back = true;
                break;
            }
        }

        prop_assert!(canary_deployed, "the candidate must reach canary");
        prop_assert!(rolled_back, "the canary verdict must roll back");
        prop_assert!(plane.tuners().is_empty(), "rollback removes the tracker");
        prop_assert_eq!(plane.placements(), baseline.placements());
        prop_assert_eq!(plane.objective().to_bits(), baseline.objective().to_bits());
        prop_assert_eq!(
            calibration_fingerprints(&plane),
            calibration_fingerprints(&baseline)
        );
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

/// The full adaptation stream: drift both machines, then six rounds of
/// alternating actuals reports — enough for the candidate to walk
/// Shadow → Canary → Promoted with room to spare.
fn adaptation_stream() -> Vec<FleetEvent> {
    let mut events: Vec<FleetEvent> = (0..2).map(|m| drift_event(m, 10, m)).collect();
    for _ in 0..6 {
        for m in 0..2usize {
            events.push(FleetEvent::ActualsReported {
                machine: m,
                slot: 1,
            });
        }
    }
    events
}

/// Snapshot-v3 round-trip mid-adaptation: cut the stream at `restart`
/// — possibly mid-shadow or mid-canary, with residual stores and a
/// live guardrail tracker in the snapshot — restore into a fresh
/// fleet, and resume. The resumed run must match the uninterrupted one
/// bit for bit, and both serializations must be byte-identical.
fn check_adaptive_restart_at(stream: &[FleetEvent], restart: usize) {
    let opts = || options(Some(tuning(true)));

    let (machines, spaces) = fleet();
    let mut reference = ControlPlane::new(machines, spaces, opts());
    for ev in stream {
        reference.process_event(ev.clone());
    }

    let (machines, spaces) = fleet();
    let mut first = ControlPlane::new(machines, spaces, opts());
    for ev in &stream[..restart] {
        first.process_event(ev.clone());
    }
    let snapshot = first.snapshot();
    let json = snapshot.to_json();
    let parsed = FleetSnapshot::from_json(&json).expect("snapshot parses");
    assert_eq!(parsed, snapshot, "parse must invert to_json");

    let (fresh, spaces) = rebuild(&first);
    let mut resumed = ControlPlane::restore(fresh, spaces, opts(), &parsed).expect("restores");
    assert_eq!(
        resumed.snapshot().to_json(),
        json,
        "restored plane must re-serialize byte-identically"
    );
    for ev in &stream[restart..] {
        resumed.process_event(ev.clone());
    }

    assert_eq!(
        resumed.decision_log(),
        reference.decision_log(),
        "restart at {restart}: decision logs diverge"
    );
    assert_eq!(resumed.placements(), reference.placements());
    assert_eq!(
        resumed.objective().to_bits(),
        reference.objective().to_bits()
    );
    assert_eq!(
        resumed.snapshot().to_json(),
        reference.snapshot().to_json(),
        "restart at {restart}: final snapshots diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random restart points across the adaptation lifecycle: the
    /// snapshot carries whatever adaption state is live at the cut —
    /// empty stores, mid-shadow accumulators, a deployed canary, or a
    /// promoted model — and resume is bit-identical either way.
    #[test]
    fn snapshot_roundtrips_mid_adaptation(cut in 0usize..64) {
        let stream = adaptation_stream();
        check_adaptive_restart_at(&stream, cut % (stream.len() + 1));
    }
}

/// The uninterrupted adaptation run must actually exercise the
/// lifecycle this file claims to snapshot: the candidate promotes, and
/// the promoted model reprices the fleet.
#[test]
fn the_adaptation_stream_promotes() {
    let (machines, spaces) = fleet();
    let mut plane = ControlPlane::new(machines, spaces, options(Some(tuning(true))));
    let mut saw_canary = false;
    let mut saw_promotion = false;
    for ev in adaptation_stream() {
        let out = plane.process_event(ev);
        saw_canary |= out.action.ends_with("(canary)");
        saw_promotion |= out.action.ends_with("(promoted)");
    }
    assert!(saw_canary, "the candidate must deploy on its canary subset");
    assert!(saw_promotion, "the candidate must promote");
    assert!(
        !plane.adaption_storages().is_empty(),
        "residual stores persist past promotion"
    );
}

/// A snapshot taken mid-canary restores the *tracker* too: the resumed
/// plane continues the canary from its accumulated sample counts, not
/// from scratch.
#[test]
fn a_mid_canary_snapshot_restores_the_tracker() {
    let stream = adaptation_stream();
    let opts = || options(Some(tuning(true)));

    let (machines, spaces) = fleet();
    let mut plane = ControlPlane::new(machines, spaces, opts());
    let mut cut = None;
    for (e, ev) in stream.iter().enumerate() {
        let out = plane.process_event(ev.clone());
        if out.action.ends_with("(canary)") {
            cut = Some(e + 1);
            break;
        }
    }
    let cut = cut.expect("the stream must reach canary");
    assert!(
        !plane.tuners().is_empty(),
        "a deployed canary keeps its tracker"
    );

    let snapshot = plane.snapshot();
    let (fresh, spaces) = rebuild(&plane);
    let resumed = ControlPlane::restore(fresh, spaces, opts(), &snapshot).expect("restores");
    assert_eq!(
        resumed.tuners().len(),
        plane.tuners().len(),
        "the tracker must survive restore"
    );
    assert_eq!(
        resumed.adaption_storages().len(),
        plane.adaption_storages().len()
    );

    // And the contract holds end to end from this specific cut.
    check_adaptive_restart_at(&stream, cut);
}
