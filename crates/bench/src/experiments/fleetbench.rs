//! Fleet-scale control plane under a sustained event stream.
//!
//! The `BENCH_fleet.json` scenario: a 202-machine / 1000-tenant fleet
//! (200 populated machines plus two spares) across four hardware
//! classes, driven through 150 deterministic events (workload drift,
//! intensity scaling, tenant arrivals and departures, spare-machine
//! decommissions) three times over:
//!
//! * **incremental** — [`ControlPlane`] with its default warm path:
//!   per-event re-solves through each machine's memo of its last solve
//!   and the fleet-wide probe cache;
//! * **cold** — the same events with
//!   [`ControlPlaneOptions::incremental`] off: every event invalidates
//!   all warm state and cold-starts the probe cache, the baseline the
//!   5× contract is measured against;
//! * **resumed** — the incremental plane snapshotted mid-stream
//!   (serialized through the real `FleetSnapshot` JSON format),
//!   restored into a freshly built fleet, and driven through the
//!   remaining events.
//!
//! The contracts, all gated by `check_bench` against the committed
//! baseline: every event's decision (action, re-solved machines,
//! migration, objective bits) identical between the incremental and
//! cold legs (`results_match`); the restored plane's immediate
//! re-snapshot byte-identical to the saved one (`snapshot_roundtrip`);
//! the resumed run's decision log, placements, and final objective
//! identical to the uninterrupted run (`resume_matches`); and the
//! incremental leg paying at least 5× fewer event-phase optimizer
//! calls than the cold leg (`meets_5x` — the call totals themselves
//! are deterministic and gated, unlike wall-clock). The per-event p99
//! decision latency is recorded as `p99_ms` (environment-dependent,
//! ignored by the gate).
//!
//! Every tenant's workload carries an intensity salt derived from its
//! global index, so no two tenants share a workload fingerprint: probe-cache entries are
//! then never contended across concurrently solving machines, which
//! keeps hit/miss counters and optimizer-call totals identical across
//! `RAYON_NUM_THREADS` settings (both CI matrix legs diff against the
//! same baseline).
//!
//! # The scaled batched-ingestion section
//!
//! The 202-machine scenario above stays as the fast smoke tier; the
//! `"scaled"` section of `BENCH_fleet.json` ([`SCALED`],
//! [`measure_scaled`]) stresses the batched-ingestion and
//! bounded-memory machinery at 1000 machines / 20,000 tenants, driven
//! through 500 workload-storm events three times over:
//!
//! * **per-event** — [`ControlPlane::process_event`] per event, the
//!   wave-count baseline (one re-solve wave per event);
//! * **batched** — the same events through
//!   [`ControlPlane::process_batch`] in batches of 25, coalescing
//!   same-slot touches and paying one wave per batch;
//! * **batched + capped** — the batched leg re-run with
//!   [`ControlPlaneOptions::probe_cache_capacity`] low enough that the
//!   LRU evicts live rows.
//!
//! Gated contracts: the batched leg's final placements and objective
//! bits equal the per-event leg's (`serial_equivalence` — batching
//! reorders *work*, never *state*); the capped leg's per-batch
//! decisions equal the uncapped leg's decision for decision
//! (`results_match` — eviction costs recomputation, never accuracy);
//! the batched legs dispatch strictly fewer re-solve waves
//! (`batching_cuts_waves`, with both wave counts gated exactly); the
//! cap actually binds (`cache_bounded`: evictions observed, capped
//! resident bytes no larger than uncapped); and keeping it bound stays
//! cheap (`capped_within_1_5x`: the capped leg's wall time is at most
//! 1.5× the uncapped batched leg's). Wall times per leg are recorded
//! but not gated; only that ratio within one run is. The scaled fleet
//! has no spares and its event storm takes no arrivals/departures, so
//! every leg sees a constant 20-tenants-per-machine topology; the
//! migration threshold is set high enough that reconcile never moves
//! a tenant, which is what pins `serial_equivalence` to bit-for-bit
//! (batched classification is documented last-write-wins and *may*
//! diverge from per-event classification on drift-then-revert
//! patterns — decisions may differ in wording, state may not).
//!
//! Fingerprint uniqueness at this scale is by construction rather than
//! by coincidence: construction salts are `1.0 + 1e-4·g` (distinct for
//! every global index `g < 20,000`, topping out below 3.0) and drift
//! events use intensities at 4.0 and above, so no drifted workload can
//! ever collide with a construction salt either.

use crate::harness::{fmt_f, Report, Table};
use crate::setups::{self, EngineChoice};
use std::time::Instant;
use vda_core::metrics::percentile;
use vda_core::problem::{QoS, ResourceVector, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::VirtualizationDesignAdvisor;
use vda_core::{ControlPlane, ControlPlaneOptions, EventOutcome, FleetEvent, FleetSnapshot};
use vda_simdb::catalog::Catalog;
use vda_simdb::engines::Engine;
use vda_simdb::hash::fnv1a;
use vda_vmm::{Hypervisor, PhysicalMachine};

/// Scenario dimensions. [`FULL`] is the committed `BENCH_fleet.json`
/// scale; unit tests use a miniature with the same event recipe.
#[derive(Debug, Clone, Copy)]
pub struct FleetScale {
    /// Machines hosting tenants at construction.
    pub populated: usize,
    /// Empty spare machines, decommissioned by the first events.
    pub spares: usize,
    /// Tenants per populated machine at construction.
    pub tenants_per_machine: usize,
    /// Events in the stream.
    pub events: usize,
    /// Event index before which the incremental plane snapshots.
    pub snapshot_event: usize,
}

/// The committed-baseline scale: 202 machines (200 populated + 2
/// spares), 1000 tenants, 150 events, snapshot mid-stream. Five
/// tenants per machine keeps the automatic coarse δ
/// ([`vda_core::CoarseToFineOptions::auto`]) non-degenerate on the
/// 20-share CPU grid, so drift re-solves run the full coarse-to-fine
/// path over the probe cache.
pub const FULL: FleetScale = FleetScale {
    populated: 200,
    spares: 2,
    tenants_per_machine: 5,
    events: 150,
    snapshot_event: 75,
};

/// Dimensions of the batched-ingestion stress scenario (the `"scaled"`
/// section — see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct BatchScale {
    /// Machines, all populated (the storm has no spares).
    pub populated: usize,
    /// Tenants per machine at construction (constant throughout: the
    /// storm carries no arrivals or departures).
    pub tenants_per_machine: usize,
    /// Events in the storm.
    pub events: usize,
    /// Events per [`ControlPlane::process_batch`] call in the batched
    /// legs (must divide `events`).
    pub batch: usize,
    /// [`ControlPlaneOptions::probe_cache_capacity`] of the capped leg
    /// (rows). Low enough that the LRU must evict live rows.
    pub probe_cache_rows: usize,
    /// [`ControlPlaneOptions::decision_log_capacity`] for every leg.
    /// Below the per-leg decision count, so the ring wraps at scale.
    pub log_horizon: usize,
}

/// The committed `"scaled"` dimensions: 1000 machines, 20,000 tenants,
/// 500 events in batches of 25.
pub const SCALED: BatchScale = BatchScale {
    populated: 1000,
    tenants_per_machine: 20,
    events: 500,
    batch: 25,
    probe_cache_rows: 120_000,
    log_horizon: 12,
};

/// Fixed memory share (and CPU `min_share`/δ) of the scaled scenario's
/// search space: 4 % each, so a machine fits 25 CPU grid shares — 20
/// resident tenants plus slack for the optimizer to shift, without the
/// degenerate everyone-gets-the-minimum grid that 20 tenants on the
/// default 5 % grid would force.
const SCALED_SHARE: f64 = 0.04;

/// Per-core clock multipliers defining the fleet's hardware classes
/// (machine `m` is `paper_testbed` with `core_ghz` scaled by entry
/// `m % 4`).
const GHZ_STEPS: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

/// The mixed-DSS tenant population (same query pool as the placement
/// and dynamic scenarios): CPU-hungry Q18/Q21 and scan/memory-leaning
/// Q6/Q7/Q16.
const MIX: [(usize, f64); 10] = [
    (18, 6.0),
    (18, 1.0),
    (21, 4.0),
    (6, 2.0),
    (7, 3.0),
    (16, 1.0),
    (6, 5.0),
    (7, 1.0),
    (21, 1.0),
    (16, 3.0),
];

/// Queries cycled through by drift and arrival events.
const CYCLE: [usize; 5] = [18, 6, 21, 7, 16];

/// Degradation limit on each machine's first tenant: finite, so every
/// machine exercises the limit-aware coarse-to-fine path (coarse
/// feasibility map plus boundary band).
const FIRST_TENANT_LIMIT: f64 = 6.0;

/// Control-plane knobs for the scenario. The migration threshold and
/// recalibration surcharge are scaled down from their single-machine
/// defaults: both gate on *fleet-relative* objective gain, and no
/// single-tenant move can clear 5 % of a 100-machine objective.
fn options(incremental: bool) -> ControlPlaneOptions {
    ControlPlaneOptions {
        migration_threshold: 1e-4,
        recalibration_surcharge: 1e-3,
        incremental,
        ..ControlPlaneOptions::default()
    }
}

/// Machine `m`'s hardware: the paper testbed with a per-class clock.
fn spec_for(m: usize) -> PhysicalMachine {
    let mut spec = PhysicalMachine::paper_testbed();
    spec.core_ghz *= GHZ_STEPS[m % GHZ_STEPS.len()];
    spec
}

/// Build one leg's fleet: populated machines first, spares last (so
/// decommissioning the current last machine always hits a spare).
/// Workload intensities carry a global-index salt — see the module
/// docs for why fingerprint uniqueness matters.
fn fleet(scale: &FleetScale) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);
    let total = scale.populated + scale.spares;
    let mut machines = Vec::with_capacity(total);
    for m in 0..total {
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec_for(m)));
        if m < scale.populated {
            for s in 0..scale.tenants_per_machine {
                let (q, base) = MIX[(m + s) % MIX.len()];
                // Salted by the *global* tenant index: for fewer than
                // 1000 tenants no two (query, salted-intensity) pairs
                // coincide, so workload fingerprints are fleet-unique.
                let g = m * scale.tenants_per_machine + s;
                let mult = base * (1.0 + 0.001 * g as f64);
                let name = format!("M{m}-S{s}-Q{q}");
                let w = vda_workloads::tpch::query_workload(q, mult).named(name.clone());
                let qos = if s == 0 {
                    QoS::with_limit(FIRST_TENANT_LIMIT)
                } else {
                    QoS::default()
                };
                adv.add_tenant(
                    Tenant::new(name, engine.clone(), cat.clone(), w)
                        .expect("bench workloads bind"),
                    qos,
                );
            }
        }
        machines.push(adv);
    }
    let space = SearchSpace::cpu_only(setups::FIXED_512MB_SHARE);
    (machines, vec![space; total])
}

/// The deterministic event recipe for event `e`, generated against the
/// plane's *current* state (tenant counts and machine count shift as
/// events land, and the bit-identical contract guarantees every leg
/// sees the same state when the recorded stream is replayed).
fn next_event(
    plane: &ControlPlane,
    e: usize,
    scale: &FleetScale,
    engine: &Engine,
    cat: &Catalog,
) -> FleetEvent {
    let count = plane.machine_count();
    if e < scale.spares {
        // The spares sit at the end and nothing has migrated onto them
        // yet, so the current last machine is empty by construction.
        return FleetEvent::MachineDecommissioned { machine: count - 1 };
    }
    let occupied = |mut m: usize| {
        while plane.machine(m).tenant_count() == 0 {
            m = (m + 1) % count;
        }
        m
    };
    if e % 10 == 5 {
        let machine = occupied((e * 17) % count);
        let slot = e % plane.machine(machine).tenant_count();
        let q = CYCLE[e % CYCLE.len()];
        let workload = vda_workloads::tpch::query_workload(q, 2.0 + 0.001 * e as f64)
            .named(format!("drift-{e}-Q{q}"));
        FleetEvent::WorkloadChanged {
            machine,
            slot,
            workload,
        }
    } else if e % 25 == 7 {
        let machine = occupied((e * 11) % count);
        FleetEvent::TenantDeparted {
            machine,
            slot: plane.machine(machine).tenant_count() - 1,
        }
    } else if e % 25 == 17 {
        let machine = (e * 11) % count;
        let q = CYCLE[e % CYCLE.len()];
        let name = format!("A{e}-Q{q}");
        let w = vda_workloads::tpch::query_workload(q, 1.5 + 0.001 * e as f64).named(name.clone());
        let tenant =
            Tenant::new(name, engine.clone(), cat.clone(), w).expect("bench workloads bind");
        FleetEvent::TenantArrived {
            machine,
            tenant: Box::new(tenant),
            qos: QoS::default(),
        }
    } else {
        let machine = occupied((e * 13) % count);
        let slot = e % plane.machine(machine).tenant_count();
        let factor = if e.is_multiple_of(2) { 1.25 } else { 0.8 };
        FleetEvent::WorkloadScaled {
            machine,
            slot,
            factor,
        }
    }
}

/// Control-plane knobs for the scaled batched scenario. The migration
/// threshold is deliberately prohibitive (no reconcile move can gain
/// half the fleet objective): with migrations off and the storm free
/// of structural events, the per-event and batched legs must agree on
/// final state bit for bit, which is the `serial_equivalence` gate.
fn scaled_options(probe_cache_rows: usize, log_horizon: usize) -> ControlPlaneOptions {
    ControlPlaneOptions {
        migration_threshold: 0.5,
        recalibration_surcharge: 1e-3,
        incremental: true,
        probe_cache_capacity: probe_cache_rows,
        decision_log_capacity: log_horizon,
        ..ControlPlaneOptions::default()
    }
}

/// The scaled scenario's search space: CPU-only over a 4 % grid with
/// memory fixed at 4 % per VM (see [`SCALED_SHARE`]).
fn scaled_space() -> SearchSpace {
    let mut space = SearchSpace::cpu_only(SCALED_SHARE);
    space.min_share = SCALED_SHARE;
    space.deltas = ResourceVector::splat(SCALED_SHARE);
    space
}

/// Build one scaled leg's fleet. Salts are `1.0 + 1e-4·g` over the
/// global tenant index `g`: distinct for every `g` up to 20,000, so
/// workload fingerprints are fleet-unique regardless of which query a
/// tenant drew (unlike [`fleet`], whose uniqueness argument leans on
/// the query mix and only stretches to 1000 tenants).
fn scaled_fleet(scale: &BatchScale) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);
    let mut machines = Vec::with_capacity(scale.populated);
    for m in 0..scale.populated {
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec_for(m)));
        for s in 0..scale.tenants_per_machine {
            let (q, _) = MIX[(m + s) % MIX.len()];
            let g = m * scale.tenants_per_machine + s;
            let mult = 1.0 + 1e-4 * g as f64;
            let name = format!("S{m}-T{s}-Q{q}");
            let w = vda_workloads::tpch::query_workload(q, mult).named(name.clone());
            let qos = if s == 0 {
                QoS::with_limit(FIRST_TENANT_LIMIT)
            } else {
                QoS::default()
            };
            adv.add_tenant(
                Tenant::new(name, engine.clone(), cat.clone(), w).expect("bench workloads bind"),
                qos,
            );
        }
        machines.push(adv);
    }
    let space = scaled_space();
    (machines, vec![space; scale.populated])
}

/// The scaled storm's event `e` — a pure function of the index (no
/// plane peeks), so the same stream drives every leg whether it is
/// applied one event or 25 events at a time.
///
/// Events come in aligned groups of five on one machine, touching
/// slots `[0, 7, 14, 0, 7]` — two slots per group are touched twice,
/// so every batch coalesces a deterministic share of its events.
/// Every fourth event is a workload *change* (drift to a new query at
/// intensity `4.0 + 1e-4·e` — distinct per event, and disjoint from
/// every construction salt); the rest are intensity scalings. The
/// factors 1.21 / 0.83 are deliberately not reciprocal on the f64
/// lattice, so repeated scalings never reproduce another tenant's
/// workload fingerprint.
fn scaled_event(e: usize, scale: &BatchScale) -> FleetEvent {
    let machine = ((e / 5) * 131) % scale.populated;
    let slot = ((e % 5) % 3) * 7 % scale.tenants_per_machine;
    if e % 4 == 1 {
        let q = CYCLE[(e / 4) % CYCLE.len()];
        let workload = vda_workloads::tpch::query_workload(q, 4.0 + 1e-4 * e as f64)
            .named(format!("storm-{e}-Q{q}"));
        FleetEvent::WorkloadChanged {
            machine,
            slot,
            workload,
        }
    } else {
        FleetEvent::WorkloadScaled {
            machine,
            slot,
            factor: if e.is_multiple_of(2) { 1.21 } else { 0.83 },
        }
    }
}

/// The snapshot-time fleet topology: per machine, its hardware spec,
/// search space, and `(tenant, qos)` slots — what a restarted process
/// reconstructs before calling [`ControlPlane::restore`].
type Topology = Vec<(PhysicalMachine, SearchSpace, Vec<(Tenant, QoS)>)>;

fn topology_of(plane: &ControlPlane) -> Topology {
    (0..plane.machine_count())
        .map(|m| {
            let adv = plane.machine(m);
            let qos = adv.qos();
            let slots = (0..adv.tenant_count())
                .map(|i| (adv.tenant(i).clone(), qos[i]))
                .collect();
            (*adv.hypervisor().machine(), *plane.space(m), slots)
        })
        .collect()
}

/// Fresh *uncalibrated* advisors from a captured topology (restore
/// reinstalls the calibrations — no refitting).
fn rebuild(topology: Topology) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let mut machines = Vec::with_capacity(topology.len());
    let mut spaces = Vec::with_capacity(topology.len());
    for (spec, space, slots) in topology {
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        for (tenant, qos) in slots {
            adv.add_tenant(tenant, qos);
        }
        machines.push(adv);
        spaces.push(space);
    }
    (machines, spaces)
}

/// Per-kind event tallies (from the incremental leg's decision log).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventKinds {
    /// Intensity scalings (always minor per §6.1).
    pub scaled: u64,
    /// Workload replacements classified major.
    pub changed_major: u64,
    /// Workload replacements classified minor.
    pub changed_minor: u64,
    /// Tenant arrivals.
    pub arrived: u64,
    /// Tenant departures.
    pub departed: u64,
    /// Machine decommissions.
    pub decommissioned: u64,
}

/// The fleet scenario's measurement, as emitted into `BENCH_fleet.json`.
#[derive(Debug, Clone)]
pub struct FleetBench {
    /// The scenario dimensions measured.
    pub scale: FleetScale,
    /// Pricing-class shards after construction.
    pub shards: usize,
    /// Optimizer calls paid standing the plane up (calibration probes
    /// plus the initial full-fleet solve).
    pub construction_calls: u64,
    /// Fleet objective after the initial solve (`{:.9}`-gated).
    pub initial_objective: f64,
    /// Event-phase optimizer calls, incremental leg.
    pub warm_event_calls: u64,
    /// Event-phase optimizer calls, cold leg.
    pub cold_event_calls: u64,
    /// Event tallies by kind.
    pub kinds: EventKinds,
    /// Reconcile migrations executed (incremental leg).
    pub migrations: u64,
    /// Per-machine re-solves performed (incremental leg, including
    /// construction).
    pub resolves: u64,
    /// Fleet probe-cache hits / misses (incremental leg).
    pub probe_hits: u64,
    /// See [`Self::probe_hits`].
    pub probe_misses: u64,
    /// Cold solves summed over the incremental leg's machines; every
    /// other re-solve is a memo hit.
    pub cold_solves: u64,
    /// Fleet objective after the final event (`{:.9}`-gated).
    pub final_objective: f64,
    /// Size of the serialized mid-stream snapshot, bytes.
    pub snapshot_bytes: usize,
    /// FNV-1a of the serialized mid-stream snapshot
    /// ([`vda_simdb::hash::fnv1a`]): pins its content, where
    /// [`Self::snapshot_bytes`] only pins its size. Fingerprints are
    /// written as fixed-width hex, so a changed fingerprint value
    /// leaves the size alone but not the digest.
    pub snapshot_fnv: u64,
    /// Snapshot JSON parsed back equal, and the restored plane's
    /// immediate re-snapshot byte-identical to the saved document.
    pub snapshot_roundtrip: bool,
    /// Resumed run's decision log, placements, and final objective
    /// identical to the uninterrupted incremental run.
    pub resume_matches: bool,
    /// Every event's decision identical between the incremental and
    /// cold legs (action, resolved set, migration, objective bits).
    pub results_match: bool,
    /// Nearest-rank p99 of per-event decision latency, incremental leg
    /// (recorded, not gated).
    pub p99_ms: f64,
    /// Mean per-event decision latency, incremental leg.
    pub mean_ms: f64,
    /// Wall time of the incremental leg (construction + events).
    pub warm_wall_ms: f64,
    /// Wall time of the cold leg.
    pub cold_wall_ms: f64,
}

impl FleetBench {
    /// Event-phase optimizer-call ratio, cold over incremental. Unlike
    /// a wall-clock speedup this is deterministic, so it is gated.
    pub fn call_ratio(&self) -> f64 {
        self.cold_event_calls as f64 / self.warm_event_calls.max(1) as f64
    }

    /// The contract: incremental event handling pays at least 5× fewer
    /// optimizer calls than per-event cold re-solves.
    pub fn meets_5x(&self) -> bool {
        self.call_ratio() >= 5.0
    }
}

/// Run all three legs of the fleet scenario at the given scale.
///
/// Errors instead of panicking when the resume leg's load path fails
/// (snapshot missing from the stream, JSON that does not parse back,
/// or a restore-time topology mismatch).
pub fn measure_with(scale: FleetScale) -> Result<FleetBench, String> {
    assert!(
        scale.snapshot_event < scale.events,
        "snapshot must be mid-stream"
    );
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);

    // Incremental leg: drives the event stream (events reference live
    // tenant counts, and the bit-identical contract makes the recorded
    // stream valid for every other leg).
    let (machines, spaces) = fleet(&scale);
    let t0 = Instant::now();
    let mut warm = ControlPlane::new(machines, spaces, options(true));
    let construction_calls = warm.stats().optimizer_calls;
    let initial_objective = warm.objective();
    let shards = warm.shards().len();
    let mut events: Vec<FleetEvent> = Vec::with_capacity(scale.events);
    let mut warm_outcomes: Vec<EventOutcome> = Vec::with_capacity(scale.events);
    let mut snapshot = None;
    let mut topology = Vec::new();
    for e in 0..scale.events {
        if e == scale.snapshot_event {
            snapshot = Some(warm.snapshot());
            topology = topology_of(&warm);
        }
        let ev = next_event(&warm, e, &scale, &engine, &cat);
        events.push(ev.clone());
        warm_outcomes.push(warm.process_event(ev));
    }
    let warm_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_event_calls: u64 = warm_outcomes.iter().map(|o| o.optimizer_calls).sum();

    // Cold leg: identical events, warm state invalidated per event.
    let (machines, spaces) = fleet(&scale);
    let t0 = Instant::now();
    let mut cold = ControlPlane::new(machines, spaces, options(false));
    let mut results_match = true;
    let mut cold_event_calls = 0;
    for (ev, w) in events.iter().zip(&warm_outcomes) {
        let c = cold.process_event(ev.clone());
        cold_event_calls += c.optimizer_calls;
        results_match &= c.action == w.action
            && c.resolved == w.resolved
            && c.migration == w.migration
            && c.objective.to_bits() == w.objective.to_bits();
    }
    let cold_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Resumed leg: restore from the serialized mid-stream snapshot and
    // replay the remaining events.
    let snapshot = snapshot.ok_or("snapshot event index beyond the end of the stream")?;
    let snap_json = snapshot.to_json();
    let parsed = FleetSnapshot::from_json(&snap_json)
        .map_err(|e| format!("mid-stream snapshot failed to parse back: {e}"))?;
    let (machines, spaces) = rebuild(topology);
    let mut resumed = ControlPlane::restore(machines, spaces, options(true), &parsed)
        .map_err(|e| format!("restore rejected the rebuilt topology: {e}"))?;
    let snapshot_roundtrip = parsed == snapshot && resumed.snapshot().to_json() == snap_json;
    for ev in &events[scale.snapshot_event..] {
        resumed.process_event(ev.clone());
    }
    let resume_matches = resumed.decision_log() == warm.decision_log()
        && resumed.placements() == warm.placements()
        && resumed.objective().to_bits() == warm.objective().to_bits();

    let mut kinds = EventKinds::default();
    for o in &warm_outcomes {
        match o.action.split(' ').next().unwrap_or("") {
            "workload-scaled" => kinds.scaled += 1,
            "workload-changed" if o.action.ends_with("(major)") => kinds.changed_major += 1,
            "workload-changed" => kinds.changed_minor += 1,
            "tenant-arrived" => kinds.arrived += 1,
            "tenant-departed" => kinds.departed += 1,
            "machine-decommissioned" => kinds.decommissioned += 1,
            other => unreachable!("unknown action {other:?}"),
        }
    }
    let stats = warm.stats();
    let cold_solves = (0..warm.machine_count())
        .map(|m| warm.machine(m).warm_stats().0)
        .sum();
    let latencies: Vec<f64> = warm_outcomes.iter().map(|o| o.latency_ms).collect();
    let mean_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;

    Ok(FleetBench {
        scale,
        shards,
        construction_calls,
        initial_objective,
        warm_event_calls,
        cold_event_calls,
        kinds,
        migrations: stats.migrations,
        resolves: stats.resolves,
        probe_hits: stats.probe_hits,
        probe_misses: stats.probe_misses,
        cold_solves,
        final_objective: warm.objective(),
        snapshot_bytes: snap_json.len(),
        snapshot_fnv: fnv1a(&snap_json),
        snapshot_roundtrip,
        resume_matches,
        results_match,
        p99_ms: percentile(&latencies, 99.0),
        mean_ms,
        warm_wall_ms,
        cold_wall_ms,
    })
}

/// Run the committed-baseline scale.
pub fn measure() -> Result<FleetBench, String> {
    measure_with(FULL)
}

/// The scaled batched-ingestion measurement, as emitted into the
/// `"scaled"` section of `BENCH_fleet.json`. Everything except the
/// `*_wall_ms` fields is deterministic and gated.
#[derive(Debug, Clone)]
pub struct ScaledBench {
    /// The dimensions measured.
    pub scale: BatchScale,
    /// Pricing-class shards after construction.
    pub shards: usize,
    /// Optimizer calls standing one leg's plane up (identical across
    /// legs — the fleets are clones).
    pub construction_calls: u64,
    /// Fleet objective after the initial solve (`{:.9}`-gated).
    pub initial_objective: f64,
    /// Event-phase optimizer calls, per-event leg.
    pub per_event_calls: u64,
    /// Event-phase optimizer calls, batched uncapped leg.
    pub batched_calls: u64,
    /// Event-phase optimizer calls, batched capped leg (≥ the uncapped
    /// leg's: evicted rows are recomputed on demand).
    pub capped_calls: u64,
    /// Re-solve waves dispatched by the per-event leg (construction's
    /// initial wave plus one per event).
    pub waves_per_event: u64,
    /// Re-solve waves dispatched by the batched legs (construction
    /// plus one per batch; the capped leg must match or
    /// `results_match` goes false).
    pub waves_batched: u64,
    /// Events absorbed by same-slot coalescing across all batches
    /// (summed from the batch decisions' action strings).
    pub coalesced: u64,
    /// Ring-buffer decisions dropped by the per-event leg
    /// (`events − log_horizon`).
    pub log_dropped_per_event: u64,
    /// Decisions resident in the batched leg's ring at the end.
    pub log_len_batched: usize,
    /// Ring-buffer decisions dropped by the batched leg.
    pub log_dropped_batched: u64,
    /// Probe-cache misses, batched uncapped leg.
    pub probe_misses_uncapped: u64,
    /// Probe-cache misses, batched capped leg.
    pub probe_misses_capped: u64,
    /// Rows the capped leg's LRU evicted (the cap must bind).
    pub probe_evictions: u64,
    /// Final probe-cache resident bytes, uncapped leg (deterministic
    /// size model, not a heap measurement).
    pub probe_bytes_uncapped: u64,
    /// Final probe-cache resident bytes, capped leg.
    pub probe_bytes_capped: u64,
    /// Fleet objective after the storm (`{:.9}`-gated).
    pub final_objective: f64,
    /// Batched leg's final placements and objective bits equal the
    /// per-event leg's.
    pub serial_equivalence: bool,
    /// Capped leg's per-batch decisions (action, resolved set,
    /// migrations, objective bits) and wave count identical to the
    /// uncapped leg's.
    pub results_match: bool,
    /// Wall time of the per-event leg, construction included
    /// (recorded, not gated).
    pub per_event_wall_ms: f64,
    /// Wall time of the batched uncapped leg.
    pub batched_wall_ms: f64,
    /// Wall time of the batched capped leg.
    pub capped_wall_ms: f64,
}

impl ScaledBench {
    /// The headline contract: batching dispatches strictly fewer
    /// re-solve waves than per-event ingestion.
    pub fn batching_cuts_waves(&self) -> bool {
        self.waves_batched < self.waves_per_event
    }

    /// The bounded-memory contract held *and* bound: rows were
    /// evicted, and the capped cache never outgrew the uncapped one.
    pub fn cache_bounded(&self) -> bool {
        self.probe_evictions > 0 && self.probe_bytes_capped <= self.probe_bytes_uncapped
    }

    /// Keeping the cache bounded stays cheap: the capped leg takes at
    /// most 1.5× the uncapped batched leg's wall time. A ratio within
    /// one run, so it holds across hardware.
    pub fn capped_within_1_5x(&self) -> bool {
        self.capped_wall_ms <= 1.5 * self.batched_wall_ms
    }
}

/// Events a batch decision reports as coalesced, parsed back out of
/// its action string (`"batch n25 (…; 3 major, 10 coalesced)"`).
fn coalesced_in(action: &str) -> u64 {
    action
        .strip_suffix(" coalesced)")
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Run all three legs of the scaled batched scenario.
pub fn measure_scaled_with(scale: BatchScale) -> ScaledBench {
    assert!(
        scale.events.is_multiple_of(scale.batch),
        "batch size must divide the event count"
    );
    let events: Vec<FleetEvent> = (0..scale.events).map(|e| scaled_event(e, &scale)).collect();

    // Per-event leg: the wave-count baseline.
    let (machines, spaces) = scaled_fleet(&scale);
    let t0 = Instant::now();
    let mut plane = ControlPlane::new(machines, spaces, scaled_options(0, scale.log_horizon));
    let construction_calls = plane.stats().optimizer_calls;
    let initial_objective = plane.objective();
    let shards = plane.shards().len();
    for ev in &events {
        plane.process_event(ev.clone());
    }
    let per_event_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let per_event_stats = plane.stats();
    let log_dropped_per_event = plane.decision_log().dropped();
    // Keep only what `serial_equivalence` needs and release the rest —
    // three live 20k-tenant planes would triple peak memory for
    // nothing.
    let per_event_placements = plane.placements().to_vec();
    let per_event_objective = plane.objective();
    drop(plane);

    // Batched leg, unbounded cache.
    let (machines, spaces) = scaled_fleet(&scale);
    let t0 = Instant::now();
    let mut plane = ControlPlane::new(machines, spaces, scaled_options(0, scale.log_horizon));
    let batched_construction = plane.stats().optimizer_calls;
    let mut batched_outcomes = Vec::with_capacity(scale.events / scale.batch);
    for chunk in events.chunks(scale.batch) {
        batched_outcomes.push(plane.process_batch(chunk));
    }
    let batched_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let batched_stats = plane.stats();
    let serial_equivalence = plane.placements() == &per_event_placements[..]
        && plane.objective().to_bits() == per_event_objective.to_bits();
    let log_len_batched = plane.decision_log().len();
    let log_dropped_batched = plane.decision_log().dropped();
    let final_objective = plane.objective();
    drop(plane);

    // Batched leg, capped cache: decisions must not move.
    let (machines, spaces) = scaled_fleet(&scale);
    let t0 = Instant::now();
    let mut plane = ControlPlane::new(
        machines,
        spaces,
        scaled_options(scale.probe_cache_rows, scale.log_horizon),
    );
    let capped_construction = plane.stats().optimizer_calls;
    let mut results_match = true;
    for (chunk, uncapped) in events.chunks(scale.batch).zip(&batched_outcomes) {
        let capped = plane.process_batch(chunk);
        results_match &= capped.action == uncapped.action
            && capped.resolved == uncapped.resolved
            && capped.migrations == uncapped.migrations
            && capped.objective.to_bits() == uncapped.objective.to_bits();
    }
    let capped_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let capped_stats = plane.stats();
    results_match &= capped_stats.waves == batched_stats.waves;

    ScaledBench {
        scale,
        shards,
        construction_calls,
        initial_objective,
        per_event_calls: per_event_stats.optimizer_calls - construction_calls,
        batched_calls: batched_stats.optimizer_calls - batched_construction,
        capped_calls: capped_stats.optimizer_calls - capped_construction,
        waves_per_event: per_event_stats.waves,
        waves_batched: batched_stats.waves,
        coalesced: batched_outcomes
            .iter()
            .map(|o| coalesced_in(&o.action))
            .sum(),
        log_dropped_per_event,
        log_len_batched,
        log_dropped_batched,
        probe_misses_uncapped: batched_stats.probe_misses,
        probe_misses_capped: capped_stats.probe_misses,
        probe_evictions: capped_stats.probe_evictions,
        probe_bytes_uncapped: batched_stats.probe_bytes,
        probe_bytes_capped: capped_stats.probe_bytes,
        final_objective,
        serial_equivalence,
        results_match,
        per_event_wall_ms,
        batched_wall_ms,
        capped_wall_ms,
    }
}

/// Run the committed scaled dimensions.
pub fn measure_scaled() -> ScaledBench {
    measure_scaled_with(SCALED)
}

/// Measure and render as a report. A failed measurement renders as an
/// error report instead of panicking.
pub fn run() -> Report {
    match measure() {
        Ok(m) => run_from(m),
        Err(e) => {
            let mut report = Report::new(
                "fleetbench",
                "Sharded control plane: 1000 tenants / 202 machines / 150 events, snapshot + resume",
            );
            let mut table = Table::new(vec!["error"]);
            table.row(vec![e]);
            report.section("measurement failed", table);
            report
        }
    }
}

/// Render an existing measurement as a report.
pub fn run_from(m: FleetBench) -> Report {
    let mut report = Report::new(
        "fleetbench",
        "Sharded control plane: 1000 tenants / 202 machines / 150 events, snapshot + resume",
    );
    let mut table = Table::new(vec!["leg", "event calls", "wall ms"]);
    table.row(vec![
        "cold".to_string(),
        m.cold_event_calls.to_string(),
        fmt_f(m.cold_wall_ms, 1),
    ]);
    table.row(vec![
        "incremental".to_string(),
        m.warm_event_calls.to_string(),
        fmt_f(m.warm_wall_ms, 1),
    ]);
    report.section("cold vs incremental event handling", table);

    let mut counters = Table::new(vec!["counter", "value"]);
    counters.row(vec!["shards".to_string(), m.shards.to_string()]);
    counters.row(vec![
        "construction calls".to_string(),
        m.construction_calls.to_string(),
    ]);
    counters.row(vec!["migrations".to_string(), m.migrations.to_string()]);
    counters.row(vec!["re-solves".to_string(), m.resolves.to_string()]);
    counters.row(vec!["cold solves".to_string(), m.cold_solves.to_string()]);
    counters.row(vec!["probe hits".to_string(), m.probe_hits.to_string()]);
    counters.row(vec!["probe misses".to_string(), m.probe_misses.to_string()]);
    counters.row(vec![
        "snapshot bytes".to_string(),
        m.snapshot_bytes.to_string(),
    ]);
    counters.row(vec![
        "snapshot fnv".to_string(),
        format!("{:016x}", m.snapshot_fnv),
    ]);
    counters.row(vec!["p99 latency ms".to_string(), fmt_f(m.p99_ms, 3)]);
    counters.row(vec!["call ratio".to_string(), fmt_f(m.call_ratio(), 1)]);
    report.section("incremental-leg counters", counters);
    report.note(format!(
        "cold ≡ incremental decisions: {}; snapshot round-trips: {}; resume ≡ uninterrupted: {}; ≥5× fewer event optimizer calls: {}",
        m.results_match,
        m.snapshot_roundtrip,
        m.resume_matches,
        m.meets_5x()
    ));
    report
}

/// Serialize the measurement as the `BENCH_fleet.json` artifact.
/// Everything except the `*_ms` fields is deterministic and gated by
/// `check_bench` (including `call_ratio` — it counts optimizer calls,
/// not wall-clock).
pub fn to_json(m: &FleetBench) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"fleetbench\",\n",
            "  \"machines\": {},\n",
            "  \"spares\": {},\n",
            "  \"tenants\": {},\n",
            "  \"hardware_classes\": {},\n",
            "  \"events\": {},\n",
            "  \"snapshot_event\": {},\n",
            "  \"space\": \"cpu_only_512mb\",\n",
            "  \"shards\": {},\n",
            "  \"warm_wall_ms\": {:.3},\n",
            "  \"cold_wall_ms\": {:.3},\n",
            "  \"p99_ms\": {:.3},\n",
            "  \"mean_latency_ms\": {:.3},\n",
            "  \"construction_optimizer_calls\": {},\n",
            "  \"event_optimizer_calls_incremental\": {},\n",
            "  \"event_optimizer_calls_cold\": {},\n",
            "  \"call_ratio\": {:.3},\n",
            "  \"event_kinds\": {{\n",
            "    \"scaled\": {},\n",
            "    \"changed_major\": {},\n",
            "    \"changed_minor\": {},\n",
            "    \"arrived\": {},\n",
            "    \"departed\": {},\n",
            "    \"decommissioned\": {}\n",
            "  }},\n",
            "  \"migrations\": {},\n",
            "  \"resolves\": {},\n",
            "  \"cold_solves\": {},\n",
            "  \"probe_hits\": {},\n",
            "  \"probe_misses\": {},\n",
            "  \"initial_objective\": {:.9},\n",
            "  \"final_objective\": {:.9},\n",
            "  \"snapshot_bytes\": {},\n",
            "  \"snapshot_fnv\": \"{:016x}\",\n",
            "  \"snapshot_roundtrip\": {},\n",
            "  \"resume_matches\": {},\n",
            "  \"results_match\": {},\n",
            "  \"meets_5x\": {}\n",
            "}}\n"
        ),
        m.scale.populated + m.scale.spares,
        m.scale.spares,
        m.scale.populated * m.scale.tenants_per_machine,
        GHZ_STEPS.len(),
        m.scale.events,
        m.scale.snapshot_event,
        m.shards,
        m.warm_wall_ms,
        m.cold_wall_ms,
        m.p99_ms,
        m.mean_ms,
        m.construction_calls,
        m.warm_event_calls,
        m.cold_event_calls,
        m.call_ratio(),
        m.kinds.scaled,
        m.kinds.changed_major,
        m.kinds.changed_minor,
        m.kinds.arrived,
        m.kinds.departed,
        m.kinds.decommissioned,
        m.migrations,
        m.resolves,
        m.cold_solves,
        m.probe_hits,
        m.probe_misses,
        m.initial_objective,
        m.final_objective,
        m.snapshot_bytes,
        m.snapshot_fnv,
        m.snapshot_roundtrip,
        m.resume_matches,
        m.results_match,
        m.meets_5x(),
    )
}

/// The nested `"scaled"` object of `BENCH_fleet.json` (no trailing
/// comma or newline — [`full_json`] splices it into the root
/// document). Everything except the `*_wall_ms` leaves is gated by
/// `check_bench`, and everything gated except `capped_within_1_5x`
/// (a wall-time ratio within the run) is deterministic.
pub fn scaled_section_json(s: &ScaledBench) -> String {
    format!(
        concat!(
            "  \"scaled\": {{\n",
            "    \"machines\": {},\n",
            "    \"tenants\": {},\n",
            "    \"hardware_classes\": {},\n",
            "    \"events\": {},\n",
            "    \"batch_size\": {},\n",
            "    \"batches\": {},\n",
            "    \"space\": \"cpu_only_4pct\",\n",
            "    \"shards\": {},\n",
            "    \"probe_cache_rows\": {},\n",
            "    \"decision_log_horizon\": {},\n",
            "    \"per_event_wall_ms\": {:.3},\n",
            "    \"batched_wall_ms\": {:.3},\n",
            "    \"capped_wall_ms\": {:.3},\n",
            "    \"construction_optimizer_calls\": {},\n",
            "    \"event_optimizer_calls_per_event\": {},\n",
            "    \"event_optimizer_calls_batched\": {},\n",
            "    \"event_optimizer_calls_capped\": {},\n",
            "    \"waves_per_event\": {},\n",
            "    \"waves_batched\": {},\n",
            "    \"coalesced_events\": {},\n",
            "    \"log_dropped_per_event\": {},\n",
            "    \"log_len_batched\": {},\n",
            "    \"log_dropped_batched\": {},\n",
            "    \"probe_misses_uncapped\": {},\n",
            "    \"probe_misses_capped\": {},\n",
            "    \"probe_evictions\": {},\n",
            "    \"probe_bytes_uncapped\": {},\n",
            "    \"probe_bytes_capped\": {},\n",
            "    \"initial_objective\": {:.9},\n",
            "    \"final_objective\": {:.9},\n",
            "    \"serial_equivalence\": {},\n",
            "    \"results_match\": {},\n",
            "    \"batching_cuts_waves\": {},\n",
            "    \"cache_bounded\": {},\n",
            "    \"capped_within_1_5x\": {}\n",
            "  }}"
        ),
        s.scale.populated,
        s.scale.populated * s.scale.tenants_per_machine,
        GHZ_STEPS.len(),
        s.scale.events,
        s.scale.batch,
        s.scale.events / s.scale.batch,
        s.shards,
        s.scale.probe_cache_rows,
        s.scale.log_horizon,
        s.per_event_wall_ms,
        s.batched_wall_ms,
        s.capped_wall_ms,
        s.construction_calls,
        s.per_event_calls,
        s.batched_calls,
        s.capped_calls,
        s.waves_per_event,
        s.waves_batched,
        s.coalesced,
        s.log_dropped_per_event,
        s.log_len_batched,
        s.log_dropped_batched,
        s.probe_misses_uncapped,
        s.probe_misses_capped,
        s.probe_evictions,
        s.probe_bytes_uncapped,
        s.probe_bytes_capped,
        s.initial_objective,
        s.final_objective,
        s.serial_equivalence,
        s.results_match,
        s.batching_cuts_waves(),
        s.cache_bounded(),
        s.capped_within_1_5x(),
    )
}

/// The complete `BENCH_fleet.json` document: the 202-machine smoke
/// section at the root plus the nested `"scaled"` batched section.
pub fn full_json(m: &FleetBench, s: &ScaledBench) -> String {
    let root = to_json(m);
    let head = root
        .strip_suffix("\n}\n")
        .expect("root fleet json ends with its closing brace");
    format!("{head},\n{}\n}}\n", scaled_section_json(s))
}

/// Render a scaled measurement as a report.
pub fn run_scaled_from(s: &ScaledBench) -> Report {
    let mut report = Report::new(
        "fleetbench-scaled",
        "Batched ingestion: 20,000 tenants / 1000 machines / 500 events in batches of 25",
    );
    let mut table = Table::new(vec!["leg", "event calls", "waves", "wall ms"]);
    table.row(vec![
        "per-event".to_string(),
        s.per_event_calls.to_string(),
        s.waves_per_event.to_string(),
        fmt_f(s.per_event_wall_ms, 1),
    ]);
    table.row(vec![
        "batched".to_string(),
        s.batched_calls.to_string(),
        s.waves_batched.to_string(),
        fmt_f(s.batched_wall_ms, 1),
    ]);
    table.row(vec![
        "batched+capped".to_string(),
        s.capped_calls.to_string(),
        s.waves_batched.to_string(),
        fmt_f(s.capped_wall_ms, 1),
    ]);
    report.section("per-event vs batched ingestion", table);

    let mut counters = Table::new(vec!["counter", "value"]);
    counters.row(vec![
        "coalesced events".to_string(),
        s.coalesced.to_string(),
    ]);
    counters.row(vec![
        "probe evictions (capped)".to_string(),
        s.probe_evictions.to_string(),
    ]);
    counters.row(vec![
        "probe bytes uncapped".to_string(),
        s.probe_bytes_uncapped.to_string(),
    ]);
    counters.row(vec![
        "probe bytes capped".to_string(),
        s.probe_bytes_capped.to_string(),
    ]);
    counters.row(vec![
        "ring decisions dropped (batched)".to_string(),
        s.log_dropped_batched.to_string(),
    ]);
    report.section("bounded-memory counters", counters);
    report.note(format!(
        "batched ≡ per-event state: {}; capped ≡ uncapped decisions: {}; fewer waves batched: {}; cache cap bound: {}; capped within 1.5× batched wall: {}",
        s.serial_equivalence,
        s.results_match,
        s.batching_cuts_waves(),
        s.cache_bounded(),
        s.capped_within_1_5x()
    ));
    report
}

/// Measure both sections at full scale and write `BENCH_fleet.json` to
/// `path`.
pub fn write_json(path: &str) -> std::io::Result<(FleetBench, ScaledBench)> {
    let m = measure().map_err(std::io::Error::other)?;
    let s = measure_scaled();
    std::fs::write(path, full_json(&m, &s))?;
    Ok((m, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature scale exercising every event kind (decommission at
    /// event 0, drift at 5/15/25, departure at 7, arrival at 17) at
    /// unit-test cost.
    const TINY: FleetScale = FleetScale {
        populated: 5,
        spares: 1,
        tenants_per_machine: 3,
        events: 26,
        snapshot_event: 13,
    };

    #[test]
    fn tiny_fleet_holds_every_contract() {
        let m = measure_with(TINY).expect("tiny fleet scenario measures");
        assert!(m.results_match, "cold and incremental decisions diverged");
        assert!(m.snapshot_roundtrip, "snapshot did not round-trip");
        assert!(m.resume_matches, "resumed run diverged from uninterrupted");
        assert!(
            m.warm_event_calls < m.cold_event_calls,
            "incremental {} vs cold {}",
            m.warm_event_calls,
            m.cold_event_calls
        );
        assert_eq!(
            m.kinds.decommissioned, 1,
            "the spare must be decommissioned"
        );
        assert!(m.kinds.arrived >= 1 && m.kinds.departed >= 1);
        assert!(m.kinds.changed_major + m.kinds.changed_minor >= 1);
        assert_eq!(m.shards, 4, "four hardware classes, one space");

        let json = to_json(&m);
        assert!(json.contains("\"experiment\": \"fleetbench\""));
        assert!(json.contains("\"results_match\": true"));
        assert!(json.contains("\"resume_matches\": true"));
        assert!(json.contains("\"snapshot_roundtrip\": true"));
        assert!(json.contains(&format!("\"snapshot_fnv\": \"{:016x}\"", m.snapshot_fnv)));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// Miniature batched scenario: small enough for debug-mode unit
    /// tests, large enough that batches coalesce, the ring wraps, and
    /// the probe-cache cap binds.
    const TINY_SCALED: BatchScale = BatchScale {
        populated: 6,
        tenants_per_machine: 4,
        events: 40,
        batch: 10,
        probe_cache_rows: 96,
        log_horizon: 3,
    };

    #[test]
    fn tiny_batched_scenario_holds_every_contract() {
        let s = measure_scaled_with(TINY_SCALED);
        assert!(s.serial_equivalence, "batched state diverged from serial");
        assert!(s.results_match, "capped decisions diverged from uncapped");
        assert!(s.batching_cuts_waves());
        assert_eq!(s.waves_per_event, 1 + TINY_SCALED.events as u64);
        assert_eq!(
            s.waves_batched,
            1 + (TINY_SCALED.events / TINY_SCALED.batch) as u64
        );
        assert!(s.coalesced > 0, "the storm must produce same-slot touches");
        assert!(s.probe_evictions > 0, "the cache cap must bind");
        assert!(s.cache_bounded());
        assert!(
            s.probe_misses_capped >= s.probe_misses_uncapped,
            "eviction can only add misses"
        );
        assert!(
            s.batched_calls <= s.per_event_calls,
            "batched {} vs per-event {}",
            s.batched_calls,
            s.per_event_calls
        );
        assert_eq!(s.log_len_batched, TINY_SCALED.log_horizon);
        assert_eq!(
            s.log_dropped_batched,
            (TINY_SCALED.events / TINY_SCALED.batch - TINY_SCALED.log_horizon) as u64
        );
        assert_eq!(
            s.log_dropped_per_event,
            (TINY_SCALED.events - TINY_SCALED.log_horizon) as u64
        );

        let json = scaled_section_json(&s);
        assert!(json.contains("\"results_match\": true"));
        assert!(json.contains("\"serial_equivalence\": true"));
        assert!(json.contains("\"cache_bounded\": true"));
        assert!(json.ends_with("  }"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn coalesced_counts_parse_back_out_of_action_strings() {
        assert_eq!(
            coalesced_in("batch n25 (changed 6, scaled 19; 3 major, 10 coalesced)"),
            10
        );
        assert_eq!(coalesced_in("batch n1 (scaled 1; 0 major, 0 coalesced)"), 0);
        assert_eq!(coalesced_in("workload-scaled M3 S1 x1.25 (minor)"), 0);
    }

    #[test]
    fn tenant_fingerprints_are_fleet_unique() {
        // The thread-count determinism of the gated counters rests on
        // this (see the module docs): no two tenants may share a
        // workload fingerprint.
        let (machines, _) = fleet(&TINY);
        let mut fps: Vec<u64> = machines
            .iter()
            .flat_map(|adv| (0..adv.tenant_count()).map(|i| adv.tenant(i).fingerprint()))
            .collect();
        let total = fps.len();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), total, "duplicate tenant fingerprints");

        // Same property for the scaled fleet's by-construction salts.
        let (machines, _) = scaled_fleet(&TINY_SCALED);
        let mut fps: Vec<u64> = machines
            .iter()
            .flat_map(|adv| (0..adv.tenant_count()).map(|i| adv.tenant(i).fingerprint()))
            .collect();
        let total = fps.len();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), total, "duplicate scaled-fleet fingerprints");
    }
}
