//! The sharded fleet **control plane**: event-driven re-optimization
//! at production scale.
//!
//! The paper's §6 manager
//! ([`DynamicConfigManager`](crate::dynamic::DynamicConfigManager))
//! runs one machine in synchronous monitoring periods. A fleet of
//! hundreds of machines and thousands of tenants does not change in
//! lockstep — it emits a stream of *events* (a workload drifts, a
//! tenant arrives or leaves, a machine is decommissioned), and only a
//! handful of machines are affected by each one. [`ControlPlane`] is
//! the event-driven fleet manager:
//!
//! 1. **Shard** the fleet by pricing class
//!    ([`MachineClass::of`]`(space).salted(hardware)` — see
//!    [`ControlPlane::shards`]): machines of one shard share
//!    calibrations (the class registry), probe-cache entries (the
//!    fleet-wide [`ProbeCache`]), and therefore most of each other's
//!    optimizer work.
//! 2. **Re-solve only the dirty machines** of an event, in parallel,
//!    each through its advisor's coarse-to-fine search
//!    ([`VirtualizationDesignAdvisor::recommend_c2f`]): unchanged
//!    machines keep their placements, and a dirty machine solves with
//!    the probes of its unchanged tenants served by the fleet
//!    [`ProbeCache`], so it pays optimizer calls only for what
//!    changed. Everything stays bit-identical to a cold re-solve of
//!    the whole fleet.
//! 3. **Reconcile**: a *major* workload change (the §6.1 per-query
//!    estimate metric against the paper's λ = 10 %, the threshold the
//!    §6 manager defaults to) or a tenant arrival makes that tenant a
//!    cross-shard migration candidate. Candidate destinations (the
//!    four least-loaded machines with capacity) are first *bounded*:
//!    a destination whose best-case net gain cannot clear
//!    [`ControlPlaneOptions::migration_threshold`] — with the source's
//!    new cost at 0, then with it priced — is skipped unpriced, and
//!    the source is not priced when no destination survives. The rest
//!    are priced non-destructively with hypothetical estimator sets;
//!    the merge is deterministic — candidates are visited in `(tenant
//!    count, machine index)` order and a move is taken only if its
//!    surcharge-netted gain strictly beats the best so far and clears
//!    the threshold. The bound is exact, so it changes what is priced,
//!    never what moves. A move is never taken when it would raise
//!    either machine's count of unmet degradation limits. Calibration
//!    management follows
//!    [`VirtualizationDesignAdvisor::transfer_tenant`]: cross-class
//!    moves install the destination class's registry model instead of
//!    trusting one fit on different hardware.
//! 4. **Record**: each event appends a [`Decision`] to the log; its
//!    [`EventOutcome`] also reports the wall-clock decision latency,
//!    which is measurement, never state, and is not retained.
//!
//! Events can also be ingested **in batches**
//! ([`ControlPlane::process_batch`]): same-slot workload events are
//! coalesced (last-write-wins — see the method docs for the exact
//! rule), every dirty machine is marked once, and the whole batch is
//! re-solved in a *single* parallel wave instead of one wave per
//! event. Both entry points run the same loop:
//! [`ControlPlane::process_event`] is the batch of one. At scale both
//! the probe cache and the decision log run in
//! **bounded-memory modes**: a row-capped [`ProbeCache`] with
//! deterministic logical-epoch LRU eviction
//! ([`ControlPlaneOptions::probe_cache_capacity`]) and a ring-buffer
//! [`DecisionLog`] with a configurable retention horizon
//! ([`ControlPlaneOptions::decision_log_capacity`]). Capping either
//! never changes any decision — only the optimizer-call bill and the
//! retained history.
//!
//! The whole control-plane state — calibrations, class registry,
//! placements with the key of the inputs each was solved under, probe
//! entries, decision log — is durable: [`ControlPlane::snapshot`]
//! captures a [`crate::snapshot::FleetSnapshot`] and
//! [`ControlPlane::restore`] resumes from one at the optimizer-call
//! cost of a process that never restarted, with results bit-identical
//! to it.

use crate::advisor::{solve_c2f, Recommendation, VirtualizationDesignAdvisor};
use crate::costmodel::adaptive::{refit, Adaption, AdaptionOptions, RuntimeAdaptionStorage};
use crate::costmodel::calibration::{CalibratedModel, Calibrator};
use crate::costmodel::whatif::{ProbeCache, WhatIfEstimator};
use crate::dynamic::{change_metric, per_query_estimate, CHANGE_THRESHOLD};
use crate::enumerate::{
    warm_key, CoarseToFineOptions, MachineClass, SearchResult, DP_TIE_TOLERANCE,
};
use crate::guardrail::{GuardrailOptions, GuardrailState, GuardrailTracker};
use crate::metrics::Clock;
use crate::placement::machine_capacity;
use crate::problem::{QoS, SearchSpace};
use crate::snapshot::{AdaptionSnapshot, FleetSnapshot, MachineSnapshot, TunerSnapshot};
use crate::tenant::Tenant;
use rayon::prelude::ParallelMapSlice;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet, VecDeque};
use vda_simdb::engines::{Engine, EngineKind};
use vda_workloads::Workload;

/// One fleet state change, applied by [`ControlPlane::process_event`].
///
/// Machine and slot indices refer to the control plane's *current*
/// numbering; [`FleetEvent::MachineDecommissioned`] swap-removes, so
/// the last machine takes the removed machine's index.
#[derive(Debug, Clone)]
pub enum FleetEvent {
    /// A tenant's workload was replaced (the §6 drift scenario).
    /// Classified major/minor by the per-query cost-estimate metric;
    /// major changes become migration candidates.
    WorkloadChanged {
        /// Host machine index.
        machine: usize,
        /// Tenant slot on that machine.
        slot: usize,
        /// The new workload (must bind against the tenant's catalog).
        workload: Workload,
    },
    /// A tenant's workload intensity was scaled (statement counts
    /// multiplied by `factor`). Per §6.1 the per-query metric is
    /// deliberately insensitive to intensity, so this classifies minor:
    /// the host re-solves (relative weights shifted) but no migration
    /// is considered.
    WorkloadScaled {
        /// Host machine index.
        machine: usize,
        /// Tenant slot on that machine.
        slot: usize,
        /// Multiplier applied to every statement count.
        factor: f64,
    },
    /// A new tenant was provisioned onto a machine. The control plane
    /// calibrates the host for the tenant's engine kind if needed
    /// (through the class registry — one fit per hardware class per
    /// kind) and immediately treats the tenant as a migration
    /// candidate, so a bad initial placement is corrected in the same
    /// event.
    TenantArrived {
        /// Host machine index (must have a free capacity slot).
        machine: usize,
        /// The tenant (boxed: tenants carry their catalog + workload).
        tenant: Box<Tenant>,
        /// The tenant's service-level settings.
        qos: QoS,
    },
    /// A tenant was deprovisioned.
    TenantDeparted {
        /// Host machine index.
        machine: usize,
        /// Tenant slot on that machine.
        slot: usize,
    },
    /// An *empty* machine left the fleet (swap-remove: the last
    /// machine takes index `machine`). Dead calibrations and their
    /// probe-cache entries are pruned immediately, in the middle of
    /// the batch — the rows [`ProbeCache::retain_models`] would drop.
    MachineDecommissioned {
        /// Index of the machine to remove; it must host no tenants.
        machine: usize,
    },
    /// The executor reported actual runtimes for a hosted tenant. A
    /// no-op unless [`ControlPlaneOptions::adaptive`] is set; with
    /// adaptive tuning on, the residual against the *base* (un-adapted)
    /// calibrated model is recorded into the per-(hardware class,
    /// engine kind) [`RuntimeAdaptionStorage`], a refit may open a
    /// [`GuardrailTracker`], and the tracker's Shadow → Canary →
    /// Promoted/RolledBack verdicts install or retire adapted models
    /// (see the decision-log labels `(shadow)`, `(canary)`,
    /// `(promoted)`, `(rolled-back)`).
    ActualsReported {
        /// Host machine index.
        machine: usize,
        /// Tenant slot on that machine.
        slot: usize,
    },
}

/// Everything adaptive tuning needs, bundled so
/// [`ControlPlaneOptions::adaptive`] is a single opt-in: the residual
/// store / refit knobs plus the guardrail thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdaptiveTuningOptions {
    /// Residual storage and refit knobs.
    pub adaption: AdaptionOptions,
    /// Shadow/canary promotion gates.
    pub guardrail: GuardrailOptions,
}

/// Tuning knobs of the [`ControlPlane`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneOptions {
    /// Minimum relative fleet-objective gain (net of any surcharge)
    /// before a reconcile migration is taken.
    pub migration_threshold: f64,
    /// Gain penalty applied to cross-hardware-class candidates — the
    /// destination must recalibrate the tenant's model, so the move
    /// has to promise strictly more than a same-class one.
    pub recalibration_surcharge: f64,
    /// Prune the probe cache and class registry every this many events
    /// (`0` disables periodic pruning; decommissions always prune). A
    /// prune costs in proportion to the generations that died since
    /// the last one, not to the fleet or cache size.
    pub prune_every: u64,
    /// `true` (the default): re-solves read the persistent fleet
    /// probe cache. `false`: every event first swaps in a fresh probe
    /// cache, so each re-solve pays every optimizer call — the
    /// baseline the incremental path is measured against. Results are
    /// bit-identical either way.
    pub incremental: bool,
    /// Row capacity of the fleet [`ProbeCache`] (`0`, the default:
    /// unbounded). When set, least-recently-used `(model, tenant)`
    /// generations are evicted at the end of each event or batch —
    /// recency is the logical event sequence, so eviction (and every
    /// gated counter downstream of it) is bit-identical across thread
    /// counts. Decisions never change: the cache is read-through, a
    /// capped run just pays more optimizer calls.
    pub probe_cache_capacity: usize,
    /// Retention horizon of the [`DecisionLog`] in entries (`0`, the
    /// default: unbounded). When set, the log becomes a ring buffer:
    /// the oldest decision is overwritten and counted in
    /// [`DecisionLog::dropped`].
    pub decision_log_capacity: usize,
    /// Adaptive cost-model tuning (`None`, the default: off).
    /// With `None` every [`FleetEvent::ActualsReported`] is a recorded
    /// no-op and the plane's decisions are bit-identical to a build
    /// without the adaptive subsystem.
    pub adaptive: Option<AdaptiveTuningOptions>,
}

impl Default for ControlPlaneOptions {
    fn default() -> Self {
        ControlPlaneOptions {
            migration_threshold: 0.05,
            recalibration_surcharge: 0.02,
            prune_every: 64,
            incremental: true,
            probe_cache_capacity: 0,
            decision_log_capacity: 0,
            adaptive: None,
        }
    }
}

/// One executed cross-machine migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Migration {
    /// Name of the migrated tenant.
    pub tenant: String,
    /// Source machine.
    pub from: usize,
    /// Destination machine.
    pub to: usize,
    /// Relative fleet-objective improvement the estimators promised.
    pub estimated_gain: f64,
    /// Whether the tenant's calibrated model could not travel (a
    /// cross-hardware-class move), so the destination installed its
    /// class's registry calibration (`false` when the model traveled
    /// or the destination was already calibrated — see
    /// [`crate::advisor::TransferCalibration`]).
    pub recalibrated: bool,
}

/// One entry of the durable decision log: what an event (or batch)
/// changed. Deliberately excludes wall-clock measurements so snapshots
/// of two runs over the same event stream compare bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Event sequence number (1-based; `seq` events processed so far).
    /// A batch decision carries the sequence number of its *last*
    /// event.
    pub seq: u64,
    /// Compact human-readable description of the event and its
    /// classification, e.g. `"workload-changed m12 t3 (major)"`, or of
    /// the batch composition.
    pub action: String,
    /// Machines re-solved by this event (sorted).
    pub resolved: Vec<usize>,
    /// The reconcile migrations taken — at most one per single event,
    /// possibly several for a batch.
    pub migrations: Vec<Migration>,
    /// Estimated fleet objective after the event.
    pub objective: f64,
}

/// The decision log: unbounded by default, a fixed-capacity **ring
/// buffer** when [`ControlPlaneOptions::decision_log_capacity`] is
/// set. Once full, each push drops the oldest entry and bumps
/// [`Self::dropped`]; iteration ([`Self::iter`], [`Self::to_vec`]) is
/// always oldest → newest.
///
/// Equality is *logical*: two logs are equal when they hold the same
/// decisions in the same order and dropped the same count — the
/// configured capacity does not participate. Snapshots serialize the
/// log in logical order plus the dropped counter (`docs/FORMATS.md`),
/// so a restored log re-serializes byte-identically.
#[derive(Debug, Clone)]
pub struct DecisionLog {
    capacity: usize,
    buf: VecDeque<Decision>,
    dropped: u64,
}

impl DecisionLog {
    /// An empty log: ring of `capacity` entries, unbounded when `0`.
    pub fn with_capacity(capacity: usize) -> Self {
        DecisionLog {
            capacity,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Rebuild from snapshot state: `entries` in logical order plus
    /// the historical drop counter. Each entry is pushed in turn, so if
    /// `entries` exceeds the configured capacity, the oldest excess is
    /// dropped (and counted) — the snapshot may have been taken with a
    /// larger horizon than the restoring process is configured with.
    pub(crate) fn restore(capacity: usize, entries: Vec<Decision>, dropped: u64) -> Self {
        let mut log = DecisionLog {
            dropped,
            ..DecisionLog::with_capacity(capacity)
        };
        for decision in entries {
            log.push(decision);
        }
        log
    }

    /// Append a decision, dropping the oldest entry once the ring is
    /// full.
    pub fn push(&mut self, decision: Decision) {
        if self.capacity > 0 && self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(decision);
    }

    /// Retained decisions, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Decision> {
        self.buf.iter()
    }

    /// The retained decisions as a vector, oldest → newest.
    pub fn to_vec(&self) -> Vec<Decision> {
        self.buf.iter().cloned().collect()
    }

    /// The most recent decision, if any.
    pub fn latest(&self) -> Option<&Decision> {
        self.buf.back()
    }

    /// Number of retained decisions (≤ capacity once bounded).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the log holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Decisions dropped since the log was created.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl PartialEq for DecisionLog {
    fn eq(&self, other: &Self) -> bool {
        self.dropped == other.dropped && self.buf == other.buf
    }
}

/// What [`ControlPlane::process_event`] returns to the caller: the
/// durable [`Decision`] fields plus the non-durable measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// Event sequence number.
    pub seq: u64,
    /// Compact description (same string as the logged [`Decision`]).
    pub action: String,
    /// Machines re-solved by this event (sorted).
    pub resolved: Vec<usize>,
    /// The reconcile migration taken, if any.
    pub migration: Option<Migration>,
    /// Estimated fleet objective after the event.
    pub objective: f64,
    /// Wall-clock decision latency of this event, milliseconds.
    pub latency_ms: f64,
    /// Query-optimizer invocations this event paid (re-solves plus
    /// reconcile pricing plus classification estimates).
    pub optimizer_calls: u64,
}

/// What [`ControlPlane::process_batch`] returns: the durable
/// [`Decision`] fields of the one batch decision plus the non-durable
/// measurements for the whole batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Event sequence number after the batch (the last event's).
    pub seq: u64,
    /// Number of events the batch carried.
    pub events: usize,
    /// Compact description of the batch composition, or of its only
    /// event in a batch of one (same string as the logged
    /// [`Decision`]).
    pub action: String,
    /// Machines re-solved by this batch (sorted).
    pub resolved: Vec<usize>,
    /// The reconcile migrations taken, in candidate order.
    pub migrations: Vec<Migration>,
    /// Estimated fleet objective after the batch.
    pub objective: f64,
    /// Wall-clock decision latency of the whole batch, milliseconds.
    pub latency_ms: f64,
    /// Query-optimizer invocations the batch paid.
    pub optimizer_calls: u64,
}

/// Cumulative control-plane counters, from [`ControlPlane::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControlPlaneStats {
    /// Machines currently in the fleet.
    pub machines: usize,
    /// Tenants currently hosted.
    pub tenants: usize,
    /// Distinct pricing classes (shards) present.
    pub shards: usize,
    /// Events processed.
    pub events: u64,
    /// Per-machine re-solves performed.
    pub resolves: u64,
    /// Parallel re-solve waves dispatched (one [`resolve`] pass over a
    /// non-empty dirty set — batching exists to keep this low).
    ///
    /// [`resolve`]: ControlPlane::process_batch
    pub waves: u64,
    /// Reconcile migrations executed.
    pub migrations: u64,
    /// Total query-optimizer invocations (construction + events).
    pub optimizer_calls: u64,
    /// Fleet probe-cache hits.
    pub probe_hits: u64,
    /// Fleet probe-cache misses.
    pub probe_misses: u64,
    /// Probe rows evicted by the bounded-memory LRU (`0` while the
    /// cache runs unbounded — see
    /// [`ControlPlaneOptions::probe_cache_capacity`]).
    pub probe_evictions: u64,
    /// Approximate probe-cache resident bytes under its deterministic
    /// size model ([`ProbeCache::approx_bytes`]).
    pub probe_bytes: u64,
    /// Reconcile destinations priced with a hypothetical solve. Like
    /// the probe counters, this belongs to the process: it restarts at
    /// 0 in a restored plane and is not part of a snapshot.
    pub reconcile_priced: u64,
    /// Reconcile destinations skipped unpriced because their best-case
    /// net gain could not clear
    /// [`ControlPlaneOptions::migration_threshold`] (not durable either).
    pub reconcile_bounded: u64,
}

/// Per-kind event tally of one batch, for the batch decision's action
/// string.
#[derive(Debug, Default)]
struct BatchKinds {
    changed: usize,
    scaled: usize,
    arrived: usize,
    departed: usize,
    decommissioned: usize,
    actuals: usize,
    coalesced: usize,
    major: usize,
}

impl BatchKinds {
    /// Deterministic, compact batch description, e.g.
    /// `"batch n4 (changed 2, scaled 1, arrived 1; 1 major, 1 coalesced)"`.
    fn describe(&self, n: usize) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (label, count) in [
            ("changed", self.changed),
            ("scaled", self.scaled),
            ("arrived", self.arrived),
            ("departed", self.departed),
            ("decommissioned", self.decommissioned),
            ("actuals", self.actuals),
        ] {
            if count > 0 {
                parts.push(format!("{label} {count}"));
            }
        }
        format!(
            "batch n{n} ({}; {} major, {} coalesced)",
            parts.join(", "),
            self.major,
            self.coalesced
        )
    }
}

/// The event-driven fleet controller. See the [module docs](self) for
/// the event lifecycle.
#[derive(Debug)]
pub struct ControlPlane {
    machines: Vec<VirtualizationDesignAdvisor>,
    spaces: Vec<SearchSpace>,
    options: ControlPlaneOptions,
    /// Fleet-wide probe cache, shared by every advisor and by the
    /// reconcile pass's hypothetical estimators.
    probe: ProbeCache,
    /// Class calibration registry: one fitted model per (hardware
    /// fingerprint, engine kind), installed on machines instead of
    /// refitting per machine. Ordered so every traversal (snapshot
    /// registry, cache pruning) is independent of insertion history.
    class_models: BTreeMap<(u64, EngineKind), CalibratedModel>,
    /// Current placement per machine (`None` while a machine is
    /// empty).
    placements: Vec<Option<SearchResult>>,
    /// Per-(hardware class, engine kind) residual stores feeding the
    /// adaptive refits. Empty unless
    /// [`ControlPlaneOptions::adaptive`] is set.
    adaption: BTreeMap<(u64, EngineKind), RuntimeAdaptionStorage>,
    /// Live guardrail trackers — at most one candidate correction in
    /// flight per (hardware class, engine kind).
    tuners: BTreeMap<(u64, EngineKind), GuardrailTracker>,
    log: DecisionLog,
    seq: u64,
    /// Latency source for every decision: wall by default, injectable
    /// ([`Self::set_clock`]) so tests and replays get deterministic
    /// latency reports.
    clock: Clock,
    optimizer_calls: u64,
    resolves: u64,
    waves: u64,
    migrations: u64,
    /// Reconcile destinations priced and bounded since this process
    /// built or restored the plane; measurement, not snapshotted.
    reconcile_priced: u64,
    reconcile_bounded: u64,
}

impl ControlPlane {
    /// Stand up the control plane: attach the shared probe cache,
    /// calibrate every tenant-hosting machine through the class
    /// registry (one fit per hardware class per engine kind — machines
    /// already calibrated seed the registry), and solve every machine
    /// for the initial placements.
    ///
    /// # Panics
    ///
    /// If `machines` and `spaces` lengths differ, the fleet is empty,
    /// or any machine hosts more tenants than its space has capacity
    /// for.
    pub fn new(
        machines: Vec<VirtualizationDesignAdvisor>,
        spaces: Vec<SearchSpace>,
        options: ControlPlaneOptions,
    ) -> Self {
        assert_eq!(machines.len(), spaces.len(), "one search space per machine");
        assert!(!machines.is_empty(), "fleet must not be empty");
        let k = machines.len();
        let placements = vec![None; k];
        let probe = ProbeCache::new();
        probe.set_capacity(options.probe_cache_capacity);
        let log = DecisionLog::with_capacity(options.decision_log_capacity);
        let mut plane = ControlPlane {
            machines,
            spaces,
            options,
            probe,
            class_models: BTreeMap::new(),
            placements,
            adaption: BTreeMap::new(),
            tuners: BTreeMap::new(),
            log,
            seq: 0,
            clock: Clock::wall(),
            optimizer_calls: 0,
            resolves: 0,
            waves: 0,
            migrations: 0,
            reconcile_priced: 0,
            reconcile_bounded: 0,
        };
        for m in 0..k {
            assert!(
                plane.machines[m].tenant_count() <= machine_capacity(&plane.spaces[m]),
                "machine {m} over capacity"
            );
            plane.machines[m].attach_probe_cache(plane.probe.clone());
            // Pre-calibrated machines seed the registry for their class.
            let hw = plane.hardware_class(m);
            for (kind, model) in plane.machines[m].calibrations().to_vec() {
                plane.class_models.entry((hw, kind)).or_insert(model);
            }
        }
        for m in 0..k {
            plane.ensure_machine_calibrated(m);
        }
        let all: Vec<usize> = (0..k).collect();
        plane.resolve(&all);
        plane.probe.enforce_capacity();
        plane
    }

    /// Machine `m`'s advisor.
    pub fn machine(&self, m: usize) -> &VirtualizationDesignAdvisor {
        &self.machines[m]
    }

    /// Number of machines currently in the fleet.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Machine `m`'s search space.
    pub fn space(&self, m: usize) -> &SearchSpace {
        &self.spaces[m]
    }

    /// The control plane's tuning knobs.
    pub fn options(&self) -> &ControlPlaneOptions {
        &self.options
    }

    /// Current placement per machine (`None` while a machine is
    /// empty).
    pub fn placements(&self) -> &[Option<SearchResult>] {
        &self.placements
    }

    /// The durable decision log: one [`Decision`] per processed event
    /// or batch, ring-bounded when
    /// [`ControlPlaneOptions::decision_log_capacity`] is set.
    pub fn decision_log(&self) -> &DecisionLog {
        &self.log
    }

    /// Events processed so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The shared fleet probe cache.
    pub fn probe_cache(&self) -> &ProbeCache {
        &self.probe
    }

    /// Live guardrail trackers, keyed by (hardware class fingerprint,
    /// engine kind). Empty unless [`ControlPlaneOptions::adaptive`]
    /// tuning has opened a candidate.
    pub fn tuners(&self) -> &BTreeMap<(u64, EngineKind), GuardrailTracker> {
        &self.tuners
    }

    /// Adaptive residual stores, keyed like [`Self::tuners`].
    pub fn adaption_storages(&self) -> &BTreeMap<(u64, EngineKind), RuntimeAdaptionStorage> {
        &self.adaption
    }

    /// Estimated fleet objective: the sum of every machine's current
    /// weighted placement cost.
    pub fn objective(&self) -> f64 {
        self.placements
            .iter()
            .flatten()
            .map(|r| r.weighted_cost)
            .sum()
    }

    /// Replace the latency clock. Wall by default; inject a
    /// [`Clock::manual`] to make the outcomes' `latency_ms`
    /// deterministic (tests, replay harnesses). Takes effect from the
    /// next event.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ControlPlaneStats {
        ControlPlaneStats {
            machines: self.machines.len(),
            tenants: self.machines.iter().map(|a| a.tenant_count()).sum(),
            shards: self.shards().len(),
            events: self.seq,
            resolves: self.resolves,
            waves: self.waves,
            migrations: self.migrations,
            optimizer_calls: self.optimizer_calls,
            probe_hits: self.probe.hits(),
            probe_misses: self.probe.misses(),
            probe_evictions: self.probe.evictions(),
            probe_bytes: self.probe.approx_bytes(),
            reconcile_priced: self.reconcile_priced,
            reconcile_bounded: self.reconcile_bounded,
        }
    }

    /// The fleet's shards: machine indices grouped by pricing class
    /// (search space + hardware, see [`MachineClass`]). Machines of one
    /// shard share class calibrations and probe-cache entries, so one
    /// shard member's optimizer work warms the whole shard.
    pub fn shards(&self) -> BTreeMap<u64, Vec<usize>> {
        let mut map: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for m in 0..self.machines.len() {
            map.entry(self.pricing_class(m).id()).or_default().push(m);
        }
        map
    }

    /// Apply one fleet event: the batch of one. Re-solves the dirty
    /// machines (in parallel, over the fleet probe cache), reconciles
    /// the migration candidate, logs the [`Decision`] and measures the
    /// decision latency, through the same loop as
    /// [`process_batch`](Self::process_batch) — the event is moved in,
    /// never cloned.
    ///
    /// # Panics
    ///
    /// Under the same conditions as [`process_batch`](Self::process_batch).
    pub fn process_event(&mut self, event: FleetEvent) -> EventOutcome {
        let mut outcome = self.ingest(std::iter::once(event));
        EventOutcome {
            seq: outcome.seq,
            action: outcome.action,
            resolved: outcome.resolved,
            // One event yields at most one candidate, so at most one move.
            migration: outcome.migrations.pop(),
            objective: outcome.objective,
            latency_ms: outcome.latency_ms,
            optimizer_calls: outcome.optimizer_calls,
        }
    }

    /// Apply a batch of fleet events with **one** parallel re-solve
    /// wave, instead of one wave per event.
    ///
    /// # The coalescing rule (deterministic, last-write-wins)
    ///
    /// Event *mutations* are applied strictly in order, so the fleet
    /// state after the batch is identical to what replaying the same
    /// events as a sequence of one-event batches
    /// ([`process_event`](Self::process_event)) would leave behind —
    /// and since every placement is recomputed deterministically from
    /// that state, the re-solved placements and the batch objective
    /// are bit-identical to the serial replay's (on unconstrained
    /// machines, i.e. when the serial replay takes no intermediate
    /// migration). What *is* coalesced:
    ///
    /// * **Major/minor classification** runs once per touched `(machine,
    ///   slot)`, comparing the per-query estimate *before the slot's
    ///   first mutation in the batch* against the estimate *after its
    ///   last* — last-write-wins per tenant slot. Two sub-threshold
    ///   drifts that compose to a major change classify **major** here
    ///   where serial replay would have said minor twice; the reverse
    ///   (a change and its revert) classifies minor. This is the
    ///   explicit divergence, pinned by
    ///   `batch_classification_is_last_write_wins_per_slot`.
    /// * **Dirty machines are marked once** and re-solved in a single
    ///   wave (one [`ControlPlaneStats::waves`] increment), no matter
    ///   how many events touched them.
    /// * **Reconcile candidates** (arrivals, in event order, then
    ///   major-classified slots in ascending `(machine, slot)` order)
    ///   are priced *after* the wave, against the batch-final state.
    ///
    /// Structural events keep their serial semantics: indices inside
    /// the batch refer to the fleet numbering *at that point in the
    /// batch*, exactly as if the events were applied one at a time
    /// (departures shift higher slots down,
    /// [`FleetEvent::MachineDecommissioned`] swap-removes).
    ///
    /// One [`Decision`] is logged per batch; `seq` advances by the
    /// number of events carried, so the probe cache's logical epoch
    /// and [`ControlPlaneOptions::prune_every`] see the same event
    /// arithmetic as serial ingestion. A batch of several events logs
    /// its composition (`"batch n3 (…)"`); a batch of one logs that
    /// event's own action, e.g. `"workload-changed m3 t1 (major)"`.
    ///
    /// # Example
    ///
    /// Three events, two of them touching the same slot: one re-solve
    /// wave, one coalesced classification.
    ///
    /// ```
    /// use vda_core::{ControlPlane, ControlPlaneOptions, FleetEvent};
    /// # use vda_core::problem::{QoS, SearchSpace};
    /// # use vda_core::tenant::Tenant;
    /// # use vda_core::VirtualizationDesignAdvisor;
    /// # use vda_vmm::{Hypervisor, PhysicalMachine};
    /// # let mut adv =
    /// #     VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
    /// # for (i, q) in [6usize, 16].into_iter().enumerate() {
    /// #     let name = format!("t{i}-q{q}");
    /// #     adv.add_tenant(
    /// #         Tenant::new(
    /// #             name.clone(),
    /// #             vda_simdb::engines::Engine::db2(),
    /// #             vda_workloads::tpch::catalog(1.0),
    /// #             vda_workloads::tpch::query_workload(q, 1.0 + i as f64).named(name),
    /// #         )
    /// #         .unwrap(),
    /// #         QoS::default(),
    /// #     );
    /// # }
    /// # let space = SearchSpace::cpu_only(512.0 / 8192.0);
    ///
    /// // `adv` hosts two tenants on one machine (setup hidden).
    /// let mut plane = ControlPlane::new(vec![adv], vec![space], ControlPlaneOptions::default());
    /// let waves_before = plane.stats().waves;
    ///
    /// let outcome = plane.process_batch(&[
    ///     FleetEvent::WorkloadScaled { machine: 0, slot: 0, factor: 1.25 },
    ///     FleetEvent::WorkloadScaled { machine: 0, slot: 1, factor: 0.8 },
    ///     FleetEvent::WorkloadScaled { machine: 0, slot: 0, factor: 1.25 },
    /// ]);
    ///
    /// assert_eq!(plane.stats().waves, waves_before + 1); // one wave, not three
    /// assert_eq!(outcome.action, "batch n3 (scaled 3; 0 major, 1 coalesced)");
    /// assert_eq!(outcome.resolved, vec![0]);
    /// assert_eq!(plane.seq(), 3); // seq advances by events carried
    /// ```
    ///
    /// # Panics
    ///
    /// On an empty batch, an arrival on a machine without a free
    /// capacity slot, a new workload that does not bind against the
    /// tenant's catalog, or decommissioning a non-empty machine.
    pub fn process_batch(&mut self, events: &[FleetEvent]) -> BatchOutcome {
        assert!(!events.is_empty(), "batch must carry at least one event");
        self.ingest(events.iter().cloned())
    }

    /// The one event-application loop behind both entry points: apply
    /// `events` serially, classify the touched slots, re-solve every
    /// dirty machine in one wave, reconcile the candidates, prune, and
    /// log one [`Decision`].
    fn ingest(&mut self, events: impl ExactSizeIterator<Item = FleetEvent>) -> BatchOutcome {
        let n = events.len();
        let started_ms = self.clock.now_ms();
        let calls_before = self.optimizer_calls;
        if !self.options.incremental {
            self.cold_start();
        }
        // Probe recency is the first event's 1-based sequence number —
        // a logical epoch, never wall clock.
        self.probe.set_epoch(self.seq + 1);

        // Per-slot classification records: first-touch pre-estimate,
        // keyed by (machine, slot). BTreeMap so the end-of-batch
        // classification pass runs in deterministic key order.
        let mut pending: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        // Arrival candidates, in event order.
        let mut arrivals: Vec<(usize, usize)> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();
        let mut kinds = BatchKinds::default();
        // A one-event decision logs the event's own action, formatted
        // only then; a workload event's classification label is
        // appended once it is known, after the loop.
        let mut single: Option<String> = None;

        for event in events {
            match event {
                FleetEvent::WorkloadChanged {
                    machine,
                    slot,
                    workload,
                } => {
                    self.note_first_touch(&mut pending, &mut kinds, machine, slot);
                    self.machines[machine]
                        .set_tenant_workload(slot, workload)
                        .expect("new workload must bind against the tenant's catalog");
                    dirty.push(machine);
                    kinds.changed += 1;
                    if n == 1 {
                        single = Some(format!("workload-changed m{machine} t{slot}"));
                    }
                }
                FleetEvent::WorkloadScaled {
                    machine,
                    slot,
                    factor,
                } => {
                    self.note_first_touch(&mut pending, &mut kinds, machine, slot);
                    self.machines[machine].scale_tenant_workload(slot, factor);
                    dirty.push(machine);
                    kinds.scaled += 1;
                    if n == 1 {
                        single = Some(format!("workload-scaled m{machine} t{slot}"));
                    }
                }
                FleetEvent::TenantArrived {
                    machine,
                    tenant,
                    qos,
                } => {
                    assert!(
                        self.machines[machine].tenant_count()
                            < machine_capacity(&self.spaces[machine]),
                        "machine {machine} has no free capacity slot"
                    );
                    let slot = self.machines[machine].add_tenant(*tenant, qos);
                    self.ensure_machine_calibrated(machine);
                    arrivals.push((machine, slot));
                    dirty.push(machine);
                    kinds.arrived += 1;
                    if n == 1 {
                        single = Some(format!("tenant-arrived m{machine} t{slot}"));
                    }
                }
                FleetEvent::TenantDeparted { machine, slot } => {
                    let (tenant, _) = self.machines[machine].remove_tenant(slot);
                    // A canary must not outlive its evidence stream: if
                    // the departed tenant was in any live canary subset,
                    // that candidate rolls back deterministically.
                    dirty.extend(self.rollback_canaries_of_tenant(tenant.fingerprint()));
                    // The departed slot's records die with it; higher
                    // slots shift down (Vec::remove semantics).
                    pending.remove(&(machine, slot));
                    pending = pending
                        .into_iter()
                        .map(|((m, s), v)| {
                            if m == machine && s > slot {
                                ((m, s - 1), v)
                            } else {
                                ((m, s), v)
                            }
                        })
                        .collect();
                    arrivals.retain(|&(m, s)| !(m == machine && s == slot));
                    for a in arrivals.iter_mut() {
                        if a.0 == machine && a.1 > slot {
                            a.1 -= 1;
                        }
                    }
                    dirty.push(machine);
                    kinds.departed += 1;
                    if n == 1 {
                        single = Some(format!("tenant-departed m{machine} ({})", tenant.name));
                    }
                }
                FleetEvent::MachineDecommissioned { machine } => {
                    assert_eq!(
                        self.machines[machine].tenant_count(),
                        0,
                        "decommissioned machine must be empty"
                    );
                    let last = self.machines.len() - 1;
                    self.machines.swap_remove(machine);
                    self.spaces.swap_remove(machine);
                    self.placements.swap_remove(machine);
                    // Swap-remove renumbering: records on the removed
                    // (empty) machine are gone, the former last
                    // machine now answers to `machine`.
                    pending = pending
                        .into_iter()
                        .filter(|&((m, _), _)| m != machine)
                        .map(|((m, s), v)| {
                            if m == last {
                                ((machine, s), v)
                            } else {
                                ((m, s), v)
                            }
                        })
                        .collect();
                    arrivals.retain(|&(m, _)| m != machine);
                    for a in arrivals.iter_mut() {
                        if a.0 == last {
                            a.0 = machine;
                        }
                    }
                    dirty.retain(|&m| m != machine);
                    for d in dirty.iter_mut() {
                        if *d == last {
                            *d = machine;
                        }
                    }
                    // Models only this machine's class used are now
                    // dead weight in the probe cache; reclaim
                    // immediately (mid-batch: the prune sees the fleet
                    // as the events so far left it).
                    self.prune_caches();
                    kinds.decommissioned += 1;
                    if n == 1 {
                        single = Some(format!("machine-decommissioned m{machine}"));
                    }
                }
                FleetEvent::ActualsReported { machine, slot } => {
                    let (action, d) = self.handle_actuals(machine, slot);
                    dirty.extend(d);
                    kinds.actuals += 1;
                    if n == 1 {
                        single = Some(action);
                    }
                }
            }
        }

        // Classify every coalesced workload mutation once, against the
        // batch-final workload (last-write-wins). Major slots join the
        // candidate list unless an in-batch arrival already put them
        // there.
        let mut candidates = arrivals;
        for (&(machine, slot), &before) in &pending {
            if self.classify_major(machine, slot, before) {
                kinds.major += 1;
                if !candidates.contains(&(machine, slot)) {
                    candidates.push((machine, slot));
                }
            }
        }

        dirty.sort_unstable();
        dirty.dedup();
        // The single wave.
        self.resolve(&dirty);

        let mut migrations: Vec<Migration> = Vec::new();
        let mut i = 0;
        while i < candidates.len() {
            let (machine, slot) = candidates[i];
            i += 1;
            if let Some(mig) = self.reconcile(machine, slot) {
                dirty.push(mig.from);
                dirty.push(mig.to);
                // The executed transfer removed `slot` from `from`;
                // later candidates on that machine shift down.
                for c in candidates[i..].iter_mut() {
                    if c.0 == mig.from && c.1 > slot {
                        c.1 -= 1;
                    }
                }
                migrations.push(mig);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        let seq_before = self.seq;
        self.seq += n as u64;
        if self.options.prune_every > 0
            && seq_before / self.options.prune_every < self.seq / self.options.prune_every
        {
            self.prune_caches();
        }
        // The serial sync point: no solve wave is in flight, so the
        // LRU eviction scan sees a thread-count-independent recency
        // map.
        self.probe.enforce_capacity();
        let objective = self.objective();
        let action = match single {
            Some(prefix) if kinds.changed + kinds.scaled > 0 => {
                let class = if kinds.major > 0 { "major" } else { "minor" };
                format!("{prefix} ({class})")
            }
            Some(action) => action,
            None => kinds.describe(n),
        };
        self.log.push(Decision {
            seq: self.seq,
            action: action.clone(),
            resolved: dirty.clone(),
            migrations: migrations.clone(),
            objective,
        });
        BatchOutcome {
            seq: self.seq,
            events: n,
            action,
            resolved: dirty,
            migrations,
            objective,
            latency_ms: self.clock.now_ms() - started_ms,
            optimizer_calls: self.optimizer_calls - calls_before,
        }
    }

    /// Record the pre-mutation per-query estimate the first time a
    /// batch touches `(machine, slot)`; later touches coalesce.
    fn note_first_touch(
        &mut self,
        pending: &mut BTreeMap<(usize, usize), f64>,
        kinds: &mut BatchKinds,
        machine: usize,
        slot: usize,
    ) {
        if let std::collections::btree_map::Entry::Vacant(e) = pending.entry((machine, slot)) {
            let before = self.per_query_estimate(machine, slot);
            e.insert(before);
        } else {
            kinds.coalesced += 1;
        }
    }

    /// Capture the durable control-plane state — see
    /// [`FleetSnapshot`] for the format and
    /// [`Self::restore`] for the other half of the round trip.
    pub fn snapshot(&self) -> FleetSnapshot {
        let machines = (0..self.machines.len())
            .map(|m| {
                let adv = &self.machines[m];
                // Every occupied machine's placement was solved under
                // its current inputs: an event that changes one
                // re-solves the machine.
                let key = (adv.tenant_count() > 0).then(|| {
                    let space = &self.spaces[m];
                    let (c2f, salt, fingerprints) = adv.warm_inputs(space);
                    warm_key(space, adv.qos(), &c2f, salt, &fingerprints)
                });
                MachineSnapshot {
                    hardware: self.hardware_class(m),
                    tenants: (0..adv.tenant_count())
                        .map(|i| adv.tenant(i).fingerprint())
                        .collect(),
                    calibrations: adv.calibrations().to_vec(),
                    placement: self.placements[m].clone(),
                    warm_key: key,
                    cold_solves: adv.warm_stats().0,
                }
            })
            .collect();
        let mut registry: Vec<(u64, EngineKind, CalibratedModel)> = self
            .class_models
            .iter()
            .map(|(&(hw, kind), model)| (hw, kind, model.clone()))
            .collect();
        registry.sort_by_key(|(hw, kind, _)| (*hw, kind.name()));
        let mut adaption: Vec<AdaptionSnapshot> = self
            .adaption
            .iter()
            .map(|(&(hw, kind), storage)| AdaptionSnapshot {
                hardware: hw,
                kind,
                epoch: storage.epoch(),
                version: storage.version(),
                rows: storage.export(),
            })
            .collect();
        adaption.sort_by_key(|s| (s.hardware, s.kind.name()));
        let mut tuners: Vec<TunerSnapshot> = self
            .tuners
            .iter()
            .map(|(&(hw, kind), tracker)| TunerSnapshot {
                hardware: hw,
                kind,
                tracker: tracker.export(),
            })
            .collect();
        tuners.sort_by_key(|t| (t.hardware, t.kind.name()));
        FleetSnapshot {
            seq: self.seq,
            optimizer_calls: self.optimizer_calls,
            resolves: self.resolves,
            waves: self.waves,
            migrations: self.migrations,
            machines,
            registry,
            probes: self.probe.export(),
            log: self.log.to_vec(),
            log_dropped: self.log.dropped(),
            adaption,
            tuners,
        }
    }

    /// Resume from a [`FleetSnapshot`]. The caller reconstructs the
    /// snapshot-time fleet topology — one *uncalibrated* advisor per
    /// machine with the same hardware, tenants (in order), and QoS —
    /// and `restore` reinstalls everything durable: calibrations (no
    /// refit), the class registry, probe-cache entries, placements,
    /// per-machine solve counters, and the decision log.
    /// Subsequent events cost what they would have cost the process
    /// that never restarted, and their results are bit-identical to
    /// it. Probe rows beyond `options.probe_cache_capacity` are
    /// evicted before this returns, in the cache's usual victim order,
    /// and rows of tenants gone before the snapshot leave at the next
    /// prune, as they would have without the restart.
    ///
    /// # Errors
    ///
    /// A human-readable description naming the machine when the
    /// provided fleet does not match the snapshot (machine count,
    /// per-machine hardware fingerprint, or per-slot tenant
    /// fingerprints), or when a machine's state is one a live plane
    /// never has: a placement on an empty machine or none on an
    /// occupied one, a placement whose allocations, costs or limit
    /// verdicts do not number the tenants, a `warm_key` with no
    /// placement or a placement with no `warm_key`, or calibrations
    /// that miss a hosted tenant's engine kind. The snapshot carries no
    /// QoS or search spaces, so each occupied machine's `warm_key` must
    /// equal the key recomputed from the rebuilt fleet's inputs.
    pub fn restore(
        mut machines: Vec<VirtualizationDesignAdvisor>,
        spaces: Vec<SearchSpace>,
        options: ControlPlaneOptions,
        snapshot: &FleetSnapshot,
    ) -> Result<Self, String> {
        if machines.len() != snapshot.machines.len() {
            return Err(format!(
                "snapshot holds {} machines, {} provided",
                snapshot.machines.len(),
                machines.len()
            ));
        }
        if machines.len() != spaces.len() {
            return Err("one search space per machine required".to_string());
        }
        let probe = ProbeCache::new();
        probe.set_capacity(options.probe_cache_capacity);
        for (m, (adv, ms)) in machines.iter_mut().zip(&snapshot.machines).enumerate() {
            let hw = adv.hypervisor().machine().fingerprint();
            if hw != ms.hardware {
                return Err(format!("machine {m}: hardware fingerprint mismatch"));
            }
            let tenants: Vec<u64> = (0..adv.tenant_count())
                .map(|i| adv.tenant(i).fingerprint())
                .collect();
            if tenants != ms.tenants {
                return Err(format!("machine {m}: tenant set mismatch"));
            }
            // A live plane solves every occupied machine, one
            // allocation, cost and verdict per tenant, and keys only a
            // placement.
            let n = tenants.len();
            match &ms.placement {
                None if n > 0 => {
                    return Err(format!("machine {m}: no placement for {n} tenants"));
                }
                Some(_) if n == 0 => {
                    return Err(format!("machine {m}: placement on an empty machine"));
                }
                Some(p) if [p.allocations.len(), p.costs.len(), p.limits_met.len()] != [n; 3] => {
                    return Err(format!(
                        "machine {m}: placement has {} allocations, {} costs and {} limit verdicts for {n} tenants",
                        p.allocations.len(),
                        p.costs.len(),
                        p.limits_met.len()
                    ));
                }
                _ => {}
            }
            match (&ms.placement, ms.warm_key) {
                (Some(_), None) => {
                    return Err(format!("machine {m}: placement without a warm_key"));
                }
                (None, Some(_)) => {
                    return Err(format!("machine {m}: warm_key without a placement"));
                }
                _ => {}
            }
            if let Some(t) = (0..n).find(|&i| {
                let kind = adv.tenant(i).engine.kind();
                ms.calibrations.iter().all(|(k, _)| *k != kind)
            }) {
                return Err(format!(
                    "machine {m}: calibrations miss tenant {t}'s engine kind {}",
                    adv.tenant(t).engine.kind().name()
                ));
            }
            for (kind, model) in &ms.calibrations {
                adv.install_calibration(*kind, model.clone());
            }
            // The key hashes the QoS and space the snapshot lacks, and
            // every occupied machine carries one.
            if let Some(key) = ms.warm_key {
                let (c2f, salt, fingerprints) = adv.warm_inputs(&spaces[m]);
                if warm_key(&spaces[m], adv.qos(), &c2f, salt, &fingerprints) != key {
                    return Err(format!(
                        "machine {m}: warm_key does not match the rebuilt QoS and search space"
                    ));
                }
            }
            adv.attach_probe_cache(probe.clone());
            adv.restore_solves(ms.cold_solves);
        }
        // Recency is runtime state: imported generations are stamped
        // with the restore-time epoch (the snapshot's seq). The rebuilt
        // advisors hold their tenants by now, so the import queues the
        // tenants that left since the last prune, as they are queued
        // in the uninterrupted plane's cache.
        probe.set_epoch(snapshot.seq);
        probe.import(&snapshot.probes);
        // The restoring process may run a tighter cap than the one
        // that wrote the snapshot: bound the cache now, as `new` does,
        // not at the first decision.
        probe.enforce_capacity();
        let class_models = snapshot
            .registry
            .iter()
            .map(|(hw, kind, model)| ((*hw, *kind), model.clone()))
            .collect();
        let placements = snapshot
            .machines
            .iter()
            .map(|ms| ms.placement.clone())
            .collect();
        let log = DecisionLog::restore(
            options.decision_log_capacity,
            snapshot.log.clone(),
            snapshot.log_dropped,
        );
        // Adaptive state restores regardless of whether the restoring
        // process has tuning enabled: with `adaptive: None` the maps
        // are inert (ActualsReported no-ops) but still round-trip, so
        // snapshot → restore → snapshot is lossless either way. The
        // knobs themselves come from `options`, not the snapshot.
        let tuning = options.adaptive.unwrap_or_default();
        let mut adaption: BTreeMap<(u64, EngineKind), RuntimeAdaptionStorage> = BTreeMap::new();
        for s in &snapshot.adaption {
            let mut storage = RuntimeAdaptionStorage::new(tuning.adaption.capacity);
            storage.import(s.rows.clone(), s.epoch, s.version);
            adaption.insert((s.hardware, s.kind), storage);
        }
        let tuners: BTreeMap<(u64, EngineKind), GuardrailTracker> = snapshot
            .tuners
            .iter()
            .map(|t| {
                (
                    (t.hardware, t.kind),
                    GuardrailTracker::import(t.tracker.clone(), tuning.guardrail),
                )
            })
            .collect();
        Ok(ControlPlane {
            machines,
            spaces,
            options,
            probe,
            class_models,
            placements,
            adaption,
            tuners,
            log,
            seq: snapshot.seq,
            clock: Clock::wall(),
            optimizer_calls: snapshot.optimizer_calls,
            resolves: snapshot.resolves,
            waves: snapshot.waves,
            migrations: snapshot.migrations,
            reconcile_priced: 0,
            reconcile_bounded: 0,
        })
    }

    // ------------------------------------------------------------------
    // Event classification
    // ------------------------------------------------------------------

    /// §6.1 change metric at a fixed reference allocation, after the
    /// workload mutated: relative per-query estimate change vs
    /// `before`, classified against the paper's λ
    /// ([`CHANGE_THRESHOLD`]).
    fn classify_major(&mut self, m: usize, slot: usize, before: f64) -> bool {
        change_metric(before, self.per_query_estimate(m, slot)) > CHANGE_THRESHOLD
    }

    /// Per-query cost estimate of tenant `slot` on machine `m` at the
    /// machine's reference (1/N) allocation, billing the optimizer
    /// calls it paid.
    fn per_query_estimate(&mut self, m: usize, slot: usize) -> f64 {
        let (per_query, calls) = per_query_estimate(&self.machines[m], &self.spaces[m], slot);
        self.optimizer_calls += calls;
        per_query
    }

    // ------------------------------------------------------------------
    // Solving
    // ------------------------------------------------------------------

    /// Re-solve the given machines in parallel through their
    /// advisors, shard-ordered so same-class machines run adjacently
    /// and feed each other's probe entries. Empty machines get a
    /// `None` placement.
    fn resolve(&mut self, dirty: &[usize]) {
        let mut dirty: Vec<usize> = dirty.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        // Deterministic shard ordering of the work list.
        dirty.sort_by_key(|&m| (self.pricing_class(m).id(), m));
        let (machines, spaces) = (&self.machines, &self.spaces);
        let (work, empty): (Vec<usize>, Vec<usize>) =
            dirty.iter().partition(|&&m| machines[m].tenant_count() > 0);
        let solved: Vec<Recommendation> = work.par_map(|&m| machines[m].recommend_c2f(&spaces[m]));
        if !work.is_empty() {
            self.waves += 1;
        }
        for (m, rec) in work.into_iter().zip(solved) {
            self.optimizer_calls += rec.optimizer_calls;
            self.resolves += 1;
            self.placements[m] = Some(rec.result);
        }
        for m in empty {
            self.placements[m] = None;
        }
    }

    // ------------------------------------------------------------------
    // Reconciliation
    // ------------------------------------------------------------------

    /// Execute the move [`Self::choose_move`] picks for tenant `slot`
    /// of machine `from`, if any: transfer the tenant and re-solve both
    /// machines.
    fn reconcile(&mut self, from: usize, slot: usize) -> Option<Migration> {
        let (to, gain) = self.choose_move(from, slot)?;
        let kind = self.machines[from].tenant(slot).engine.kind();
        let tenant = self.machines[from].tenant(slot).name.clone();
        let hw_to = self.hardware_class(to);
        let (src_adv, dst_adv) = two_mut(&mut self.machines, from, to);
        let transfer = src_adv.transfer_tenant(slot, dst_adv);
        let recalibrated = !transfer.calibration.destination_ready();
        if recalibrated {
            // The model could not travel across hardware classes; the
            // registry holds the destination class's fit (`choose_move`
            // ensured it), so installation costs no calibration run.
            let model = self.class_models[&(hw_to, kind)].clone();
            self.machines[to].install_calibration(kind, model);
        }
        self.resolve(&[from, to]);
        self.migrations += 1;
        Some(Migration {
            tenant,
            from,
            to,
            estimated_gain: gain,
            recalibrated,
        })
    }

    /// The best move of tenant `slot` off machine `from`, as its
    /// destination and raw gain: among the least-loaded destinations
    /// with a free slot, the one whose surcharge-netted gain clears the
    /// threshold by the most. A move is never chosen, however large
    /// its gain, when either machine's hypothetical solve leaves more
    /// degradation limits unmet than its current placement does.
    /// Deterministic: destinations are visited in `(tenant count,
    /// machine index)` order and only a strictly better net gain
    /// displaces the incumbent.
    ///
    /// Destinations are bounded before they are priced: each one's
    /// best-case net gain ([`Self::may_clear`]) is checked once with
    /// the source's new cost at its floor of 0, before the source is
    /// priced, and again once it is. A destination that cannot clear
    /// the threshold is never priced, and when none can, neither is
    /// the source. Both bounds hold exactly, so the choice is the one
    /// pricing every destination would make.
    fn choose_move(&mut self, from: usize, slot: usize) -> Option<(usize, f64)> {
        let base_total = self.objective();
        let mut dests: Vec<usize> = (0..self.machines.len())
            .filter(|&d| {
                d != from && self.machines[d].tenant_count() < machine_capacity(&self.spaces[d])
            })
            .collect();
        dests.sort_by_key(|&d| (self.machines[d].tenant_count(), d));
        dests.truncate(RECONCILE_FANOUT);
        // Every destination's class gets a registry model, bounded or
        // not, so the registry does not depend on what was priced.
        let engine = self.machines[from].tenant(slot).engine.clone();
        for &d in &dests {
            self.class_model(d, &engine);
        }

        let src_cur = self.current_cost(from);
        self.bound_destinations(&mut dests, base_total, from, src_cur, 0.0);
        if dests.is_empty() {
            return None;
        }
        let (src_new, src_calls) = self.price_without(from, slot);
        self.optimizer_calls += src_calls;
        let (src_new, src_unmet) = src_new?;
        if src_unmet > self.unmet_limits(from) {
            return None;
        }
        self.bound_destinations(&mut dests, base_total, from, src_cur, src_new);

        let mut best: Option<(f64, usize, f64)> = None; // (net, dest, raw gain)
        for d in dests {
            let (dst_new, dst_calls) = self.price_with_extra(d, from, slot);
            self.optimizer_calls += dst_calls;
            self.reconcile_priced += 1;
            let Some((dst_new, dst_unmet)) = dst_new else {
                continue;
            };
            if dst_unmet > self.unmet_limits(d) {
                continue;
            }
            let Some((net, gain)) = self.net_gain(base_total, from, src_cur, src_new, d, dst_new)
            else {
                continue;
            };
            if net <= self.options.migration_threshold {
                continue;
            }
            if best.map(|(bn, _, _)| net > bn).unwrap_or(true) {
                best = Some((net, d, gain));
            }
        }
        best.map(|(_, to, gain)| (to, gain))
    }

    /// The surcharge-netted and the raw relative gain of moving a
    /// tenant from `from` to `d`, given both machines' costs after the
    /// move (`None` when the move gains nothing).
    fn net_gain(
        &self,
        base_total: f64,
        from: usize,
        src_cur: f64,
        src_new: f64,
        d: usize,
        dst_new: f64,
    ) -> Option<(f64, f64)> {
        let candidate_total = base_total - src_cur - self.current_cost(d) + src_new + dst_new;
        let gain = migration_gain(base_total, candidate_total)?;
        // Only a move across hardware classes recalibrates; a
        // different grid on identical hardware does not.
        let net = if self.hardware_class(d) != self.hardware_class(from) {
            gain - self.options.recalibration_surcharge
        } else {
            gain
        };
        Some((net, gain))
    }

    /// Whether a move from `from` to `d` can clear the threshold when
    /// the source costs at least `src_floor` after it: [`Self::net_gain`]
    /// at the two floors. Every operation in it is monotone and IEEE
    /// rounding is too, so when the bound does not clear the
    /// threshold, neither does the priced move.
    fn may_clear(
        &self,
        base_total: f64,
        from: usize,
        src_cur: f64,
        src_floor: f64,
        d: usize,
    ) -> bool {
        self.net_gain(base_total, from, src_cur, src_floor, d, self.dst_floor(d))
            .is_some_and(|(net, _)| net > self.options.migration_threshold)
    }

    /// Drop the destinations that [`Self::may_clear`] rules out,
    /// counting them in `reconcile_bounded`.
    fn bound_destinations(
        &mut self,
        dests: &mut Vec<usize>,
        base_total: f64,
        from: usize,
        src_cur: f64,
        src_floor: f64,
    ) {
        let before = dests.len();
        dests.retain(|&d| self.may_clear(base_total, from, src_cur, src_floor, d));
        self.reconcile_bounded += (before - dests.len()) as u64;
    }

    /// A floor on machine `d`'s cost after it takes one more tenant, for
    /// a move that leaves no more of `d`'s limits unmet (reconcile takes
    /// no other). Weighted costs are non-negative, so 0 always holds.
    /// When `d`'s placement is a full-grid optimum, the move's solve
    /// restricted to `d`'s own tenants is a grid allocation of them (the
    /// n-tenant cell ranges contain the (n+1)-tenant ones, and the
    /// budget is Σ ≤ 1) with no more unmet limits. The DP minimizes
    /// unmet limits before cost, so that allocation costs no less than
    /// the placement. The floor is then the placement's cost, less
    /// the DP's reconstruction tie tolerance per tenant and one more for
    /// summation order. A placement is a full-grid optimum when the
    /// coarse-to-fine solve picks no coarse δ for it; an empty machine
    /// costs 0.
    fn dst_floor(&self, d: usize) -> f64 {
        let n = self.machines[d].tenant_count();
        if n == 0
            || CoarseToFineOptions::auto(&self.spaces[d], n)
                .coarse
                .is_some()
        {
            return 0.0;
        }
        let cur = self.current_cost(d);
        (cur - (n + 1) as f64 * DP_TIE_TOLERANCE * cur.max(1.0)).max(0.0)
    }

    /// Machine `m`'s current placement cost (0 while empty).
    fn current_cost(&self, m: usize) -> f64 {
        self.placements[m]
            .as_ref()
            .map(|r| r.weighted_cost)
            .unwrap_or(0.0)
    }

    /// How many degradation limits machine `m`'s current placement
    /// leaves unmet (0 while empty).
    fn unmet_limits(&self, m: usize) -> usize {
        self.placements[m].as_ref().map_or(0, unmet)
    }

    /// Hypothetical cost and unmet-limit count of machine `m` without
    /// tenant `skip` (`Some((0.0, 0))` if that empties the machine),
    /// plus the optimizer calls spent pricing it.
    fn price_without(&self, m: usize, skip: usize) -> (Option<(f64, usize)>, u64) {
        let adv = &self.machines[m];
        let n = adv.tenant_count();
        if n <= 1 {
            return (Some((0.0, 0)), 0);
        }
        let estimators: Vec<WhatIfEstimator<'_>> = (0..n)
            .filter(|&i| i != skip)
            .map(|i| adv.estimator(i))
            .collect();
        let qos: Vec<QoS> = adv
            .qos()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .map(|(_, q)| *q)
            .collect();
        self.solve_hypothetical(m, &qos, &estimators)
    }

    /// Hypothetical cost and unmet-limit count of machine `d` hosting
    /// its tenants plus tenant `slot` of machine `from` — priced with
    /// `d`'s own calibration for the moved tenant's kind when present,
    /// the class registry's otherwise (see [`Self::class_model`]).
    fn price_with_extra(&self, d: usize, from: usize, slot: usize) -> (Option<(f64, usize)>, u64) {
        let adv = &self.machines[d];
        let moved = self.machines[from].tenant(slot);
        let kind = moved.engine.kind();
        let model = match adv.calibration(kind) {
            Some(model) => model,
            None => &self.class_models[&(self.hardware_class(d), kind)],
        };
        let mut estimators: Vec<WhatIfEstimator<'_>> =
            (0..adv.tenant_count()).map(|i| adv.estimator(i)).collect();
        estimators.push(WhatIfEstimator::with_probe_cache(
            moved,
            model,
            self.probe.clone(),
        ));
        let mut qos: Vec<QoS> = adv.qos().to_vec();
        qos.push(self.machines[from].qos()[slot]);
        self.solve_hypothetical(d, &qos, &estimators)
    }

    /// One non-destructive coarse-to-fine solve over a hypothetical
    /// estimator set: its weighted cost and unmet-limit count (`None`
    /// when no grid can host the set), and the optimizer calls it paid.
    fn solve_hypothetical(
        &self,
        m: usize,
        qos: &[QoS],
        estimators: &[WhatIfEstimator<'_>],
    ) -> (Option<(f64, usize)>, u64) {
        let (result, accounting) = solve_c2f(&self.spaces[m], qos, estimators);
        let priced = result.map(|r| (r.weighted_cost, unmet(&r)));
        (priced, accounting.optimizer_calls)
    }

    // ------------------------------------------------------------------
    // Calibration management
    // ------------------------------------------------------------------

    fn hardware_class(&self, m: usize) -> u64 {
        self.machines[m].hypervisor().machine().fingerprint()
    }

    fn pricing_class(&self, m: usize) -> MachineClass {
        MachineClass::of(&self.spaces[m]).salted(self.hardware_class(m))
    }

    /// Calibrate machine `m` for every engine kind its tenants need,
    /// installing each missing kind's [`Self::class_model`].
    fn ensure_machine_calibrated(&mut self, m: usize) {
        for slot in 0..self.machines[m].tenant_count() {
            let kind = self.machines[m].tenant(slot).engine.kind();
            if self.machines[m].calibration(kind).is_none() {
                let engine = self.machines[m].tenant(slot).engine.clone();
                let model = self.class_model(m, &engine);
                self.machines[m].install_calibration(kind, model);
            }
        }
    }

    /// The class registry's model for machine `m`'s hardware class and
    /// `engine`'s kind. On a miss the registry takes `m`'s own model
    /// for the kind, or one fitted once on `m`, for the whole hardware
    /// class.
    fn class_model(&mut self, m: usize, engine: &Engine) -> CalibratedModel {
        let key = (self.hardware_class(m), engine.kind());
        if let Some(model) = self.class_models.get(&key) {
            return model.clone();
        }
        let adv = &self.machines[m];
        let model = match adv.calibration(engine.kind()) {
            Some(model) => model.clone(),
            None => Calibrator::with_config(adv.hypervisor(), adv.calibration_config().clone())
                .calibrate(engine),
        };
        self.class_models.insert(key, model.clone());
        model
    }

    // ------------------------------------------------------------------
    // Adaptive tuning (ActualsReported lifecycle)
    // ------------------------------------------------------------------

    /// Handle one executor actuals report for tenant `slot` on machine
    /// `m`. Returns the decision-log action string and the machines
    /// whose installed calibration changed (canary deploys, promotions,
    /// rollbacks) — those re-solve in the caller's wave.
    ///
    /// Residuals are recorded against the **base** (un-adapted) model:
    /// the installed model's correction factor is divided back out of
    /// its prediction, so a refit always proposes a correction *of the
    /// analytic fit*, never a correction of a correction. The class
    /// registry holds the currently-promoted model; canary installs
    /// touch only the machines hosting canary tenants, and a rollback
    /// reinstalls the registry incumbent bit-identically (model
    /// installation cold-starts the machine's caches, which the
    /// incremental-vs-cold contract already pins).
    fn handle_actuals(&mut self, m: usize, slot: usize) -> (String, Vec<usize>) {
        let prefix = format!("actuals-reported m{m} t{slot}");
        let Some(tuning) = self.options.adaptive else {
            return (format!("{prefix} (off)"), Vec::new());
        };
        let Some(alloc) = self.placements[m]
            .as_ref()
            .and_then(|r| r.allocations.get(slot).copied())
        else {
            return (format!("{prefix} (unplaced)"), Vec::new());
        };
        let kind = self.machines[m].tenant(slot).engine.kind();
        let hw = self.hardware_class(m);
        let key = (hw, kind);
        let tenant_fp = self.machines[m].tenant(slot).fingerprint();

        // Price with the machine's installed (possibly canary) model,
        // then divide its correction factor back out for the base
        // prediction.
        let est = self.machines[m].estimator(slot);
        let installed_pred = est.estimate(alloc).seconds;
        self.optimizer_calls += est.optimizer_calls();
        let installed_factor = self.machines[m]
            .calibration(kind)
            .and_then(|model| model.adaption())
            .map_or(1.0, |a| a.factor(alloc));
        let base_pred = installed_pred / installed_factor;
        let actual = self.machines[m].actual_cost(slot, alloc);

        let incumbent = self
            .class_models
            .get(&key)
            .cloned()
            .expect("machine hosting a tenant is calibrated through the registry");
        let incumbent_pred = base_pred * incumbent.adaption().map_or(1.0, |a| a.factor(alloc));

        let storage = self
            .adaption
            .entry(key)
            .or_insert_with(|| RuntimeAdaptionStorage::new(tuning.adaption.capacity));
        storage.set_epoch(self.seq + 1);
        storage.record(tenant_fp, alloc, base_pred, actual);

        // Open a tracker when the evidence proposes a correction the
        // fleet is not already running. After a promotion the same
        // samples refit to the promoted correction, so no tracker
        // churns; after a rollback the cleared store cannot re-propose
        // the rejected candidate from the same evidence.
        if !self.tuners.contains_key(&key) {
            let storage = &self.adaption[&key];
            if let Some(correction) = refit(storage, &tuning.adaption) {
                let proposes_change = match incumbent.adaption() {
                    Some(current) => correction != current.correction,
                    None => !correction.is_identity(),
                };
                if proposes_change {
                    let candidate = Adaption {
                        correction,
                        version: storage.version(),
                    };
                    let base_fp = incumbent.clone().without_adaption().fingerprint();
                    self.tuners.insert(
                        key,
                        GuardrailTracker::new(candidate, base_fp, tuning.guardrail),
                    );
                }
            }
        }

        let objective = self.objective();
        let verdict = {
            let Some(tracker) = self.tuners.get_mut(&key) else {
                return (format!("{prefix} (recorded)"), Vec::new());
            };
            let cand_pred = base_pred * tracker.candidate().factor(alloc);
            tracker.observe(tenant_fp, cand_pred, incumbent_pred, actual, objective)
        };
        match verdict {
            GuardrailState::Shadow => (format!("{prefix} (shadow)"), Vec::new()),
            GuardrailState::Canary => {
                let dirty = self.deploy_canary(key, &incumbent);
                (format!("{prefix} (canary)"), dirty)
            }
            GuardrailState::Promoted => {
                let dirty = self.promote_candidate(key, &incumbent);
                (format!("{prefix} (promoted)"), dirty)
            }
            GuardrailState::RolledBack => {
                let dirty = self.rollback_candidate(key);
                (format!("{prefix} (rolled-back)"), dirty)
            }
        }
    }

    /// Install `key`'s candidate model on every machine of the
    /// hardware class hosting a canary tenant of that kind (idempotent:
    /// machines already running the candidate are skipped). Returns
    /// the machines whose calibration changed.
    fn deploy_canary(&mut self, key: (u64, EngineKind), incumbent: &CalibratedModel) -> Vec<usize> {
        let Some(tracker) = self.tuners.get(&key) else {
            return Vec::new();
        };
        let candidate = candidate_model(incumbent, tracker);
        let candidate_fp = candidate.fingerprint();
        let fps: Vec<u64> = tracker.canary_tenants().to_vec();
        let kind = key.1;
        self.install_on_class(key, &candidate, |machine| {
            let hosts_canary = (0..machine.tenant_count()).any(|i| {
                machine.tenant(i).engine.kind() == kind
                    && fps.contains(&machine.tenant(i).fingerprint())
            });
            hosts_canary
                && machine.calibration(kind).map(CalibratedModel::fingerprint) != Some(candidate_fp)
        })
    }

    /// The candidate survived both gates: it becomes the class
    /// registry's model for `key` and installs on every calibrated
    /// machine of the class. The tracker retires.
    fn promote_candidate(
        &mut self,
        key: (u64, EngineKind),
        incumbent: &CalibratedModel,
    ) -> Vec<usize> {
        let Some(tracker) = self.tuners.remove(&key) else {
            return Vec::new();
        };
        let promoted = candidate_model(incumbent, &tracker);
        let promoted_fp = promoted.fingerprint();
        self.class_models.insert(key, promoted.clone());
        self.install_on_class(key, &promoted, |machine| {
            machine
                .calibration(key.1)
                .is_some_and(|c| c.fingerprint() != promoted_fp)
        })
    }

    /// The candidate was rejected (shadow gate, canary gate, or a
    /// forced rollback): reinstall the registry incumbent on exactly
    /// the machines running the candidate, retire the tracker, and
    /// clear the residual store so the same evidence cannot re-propose
    /// the rejected correction.
    fn rollback_candidate(&mut self, key: (u64, EngineKind)) -> Vec<usize> {
        let Some(tracker) = self.tuners.remove(&key) else {
            return Vec::new();
        };
        if let Some(storage) = self.adaption.get_mut(&key) {
            storage.clear();
        }
        let Some(incumbent) = self.class_models.get(&key).cloned() else {
            return Vec::new();
        };
        let candidate_fp = candidate_model(&incumbent, &tracker).fingerprint();
        self.install_on_class(key, &incumbent, |machine| {
            machine.calibration(key.1).map(CalibratedModel::fingerprint) == Some(candidate_fp)
        })
    }

    /// Install `model` for `key`'s engine kind on every machine of
    /// `key`'s hardware class that `installs` accepts. Returns the
    /// machines whose calibration changed.
    fn install_on_class(
        &mut self,
        (hw, kind): (u64, EngineKind),
        model: &CalibratedModel,
        installs: impl Fn(&VirtualizationDesignAdvisor) -> bool,
    ) -> Vec<usize> {
        let mut dirty = Vec::new();
        for m in 0..self.machines.len() {
            if self.hardware_class(m) == hw && installs(&self.machines[m]) {
                self.machines[m].install_calibration(kind, model.clone());
                dirty.push(m);
            }
        }
        dirty
    }

    /// Roll back every candidate whose canary subset contains the
    /// departed tenant — a canary must not outlive its evidence
    /// stream. Shadow-phase trackers are unaffected (they keep
    /// accumulating from the remaining tenants).
    fn rollback_canaries_of_tenant(&mut self, tenant_fp: u64) -> Vec<usize> {
        let keys: Vec<(u64, EngineKind)> = self
            .tuners
            .iter()
            .filter(|(_, t)| t.state() == GuardrailState::Canary && t.is_canary_tenant(tenant_fp))
            .map(|(&k, _)| k)
            .collect();
        let mut dirty = Vec::new();
        for key in keys {
            if let Some(tracker) = self.tuners.get_mut(&key) {
                tracker.force_rollback();
            }
            dirty.extend(self.rollback_candidate(key));
        }
        dirty
    }

    // ------------------------------------------------------------------
    // Cache management
    // ------------------------------------------------------------------

    /// Drop probe entries and registry models that nothing in the
    /// fleet can read anymore: registry entries of departed hardware
    /// classes, probe rows of models no machine or registry entry
    /// holds, and probe rows of tenant fingerprints no hosted tenant
    /// carries — what a full [`ProbeCache::retain_models`] +
    /// [`ProbeCache::retain_tenants`] sweep drops, found by
    /// [`ProbeCache::prune`] from the stored model fingerprints and
    /// the tenants the advisors let go of, without a walk.
    fn prune_caches(&mut self) {
        let hw_live: HashSet<u64> = (0..self.machines.len())
            .map(|m| self.hardware_class(m))
            .collect();
        self.class_models.retain(|(hw, _), _| hw_live.contains(hw));
        // Adaptive state of a departed hardware class is unreadable:
        // a decommission mid-lifecycle deterministically retires the
        // class's residual store and any in-flight tracker.
        self.adaption.retain(|(hw, _), _| hw_live.contains(hw));
        self.tuners.retain(|(hw, _), _| hw_live.contains(hw));
        let live_models: HashSet<u64> = self
            .machines
            .iter()
            .flat_map(|a| a.calibrations().iter().map(|(_, m)| m.fingerprint()))
            .chain(self.class_models.values().map(|m| m.fingerprint()))
            .collect();
        self.probe.prune(&live_models);
    }

    /// Cold-baseline mode: swap in a fresh probe cache on every
    /// advisor, so the next event pays full price.
    fn cold_start(&mut self) {
        self.probe = ProbeCache::new();
        self.probe.set_capacity(self.options.probe_cache_capacity);
        for adv in &mut self.machines {
            adv.attach_probe_cache(self.probe.clone());
        }
    }
}

/// How many candidate destinations (least-loaded first) the reconcile
/// pass prices per migration candidate.
const RECONCILE_FANOUT: usize = 4;

/// Smallest fleet objective the relative migration gain may be
/// divided by. A fleet objective near zero (all tenants idle) would
/// otherwise turn float dust in the subtraction into an arbitrarily
/// large relative "gain" and trigger a pointless migration.
const MIGRATION_BASE_FLOOR: f64 = 1e-6;

/// Smallest absolute objective improvement that counts as a migration
/// gain at all — the absolute half of the absolute-plus-relative gate.
const MIGRATION_MIN_IMPROVEMENT: f64 = 1e-9;

/// Relative improvement of moving the fleet objective from `base` to
/// `obj`, gated absolute-plus-relative: `None` unless the improvement
/// clears [`MIGRATION_MIN_IMPROVEMENT`], and the denominator is
/// bounded below by [`MIGRATION_BASE_FLOOR`] so a near-zero `base`
/// cannot manufacture a spurious gain.
fn migration_gain(base: f64, obj: f64) -> Option<f64> {
    let improvement = base - obj;
    if !improvement.is_finite() || improvement <= MIGRATION_MIN_IMPROVEMENT {
        return None;
    }
    Some(improvement / base.abs().max(MIGRATION_BASE_FLOOR))
}

/// How many degradation limits `placement` leaves unmet.
fn unmet(placement: &SearchResult) -> usize {
    placement.limits_met.iter().filter(|&&met| !met).count()
}

/// `incumbent`'s analytic fit under `tracker`'s candidate correction:
/// the model a canary or a promotion installs.
fn candidate_model(incumbent: &CalibratedModel, tracker: &GuardrailTracker) -> CalibratedModel {
    incumbent
        .clone()
        .without_adaption()
        .with_adaption(tracker.candidate())
}

/// Distinct mutable borrows of two vector slots.
fn two_mut<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Allocation;
    use vda_simdb::engines::Engine;
    use vda_vmm::{Hypervisor, PhysicalMachine};
    use vda_workloads::tpch;

    fn machine_with(tenants: &[(&str, usize, f64)]) -> VirtualizationDesignAdvisor {
        machine_on(PhysicalMachine::paper_testbed(), tenants)
    }

    fn machine_on(
        spec: PhysicalMachine,
        tenants: &[(&str, usize, f64)],
    ) -> VirtualizationDesignAdvisor {
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        let cat = tpch::catalog(0.1);
        for &(name, q, mult) in tenants {
            adv.add_tenant(
                Tenant::new(
                    name,
                    Engine::pg(),
                    cat.clone(),
                    tpch::query_workload(q, mult),
                )
                .unwrap(),
                QoS::default(),
            );
        }
        adv
    }

    fn small_fleet() -> ControlPlane {
        small_fleet_with(ControlPlaneOptions::default())
    }

    fn small_fleet_with(options: ControlPlaneOptions) -> ControlPlane {
        let machines = vec![
            machine_with(&[("a0", 18, 2.0), ("a1", 6, 2.0)]),
            machine_with(&[("b0", 1, 1.0)]),
            machine_with(&[]),
        ];
        let spaces = vec![SearchSpace::cpu_only(0.25); 3];
        ControlPlane::new(machines, spaces, options)
    }

    #[test]
    fn construction_solves_all_occupied_machines() {
        let plane = small_fleet();
        assert!(plane.placements()[0].is_some());
        assert!(plane.placements()[1].is_some());
        assert!(
            plane.placements()[2].is_none(),
            "empty machine stays unsolved"
        );
        let stats = plane.stats();
        assert_eq!(stats.machines, 3);
        assert_eq!(stats.tenants, 3);
        assert_eq!(stats.shards, 1, "identical hardware + space = one shard");
        assert!(stats.optimizer_calls > 0);
        assert!(plane.objective() > 0.0);
    }

    #[test]
    fn registry_calibrates_once_per_class() {
        let plane = small_fleet();
        // Same hardware class: both occupied machines hold the *same*
        // calibrated model, fitted exactly once through the registry.
        let kind = plane.machine(0).tenant(0).engine.kind();
        assert_eq!(
            plane.machine(0).calibration(kind),
            plane.machine(1).calibration(kind)
        );
    }

    #[test]
    fn minor_drift_resolves_only_the_dirty_machine() {
        let mut plane = small_fleet();
        let outcome = plane.process_event(FleetEvent::WorkloadScaled {
            machine: 0,
            slot: 0,
            factor: 1.5,
        });
        assert_eq!(outcome.resolved, vec![0], "only the host re-solves");
        assert!(
            outcome.migration.is_none(),
            "intensity scaling is minor (§6.1)"
        );
        assert!(outcome.action.contains("minor"), "{}", outcome.action);
        assert_eq!(plane.seq(), 1);
        assert_eq!(plane.decision_log().len(), 1);
    }

    #[test]
    fn unchanged_event_stream_costs_no_optimizer_calls_when_warm() {
        let mut plane = small_fleet();
        // Scaling by 1.0 leaves fingerprints unchanged: the re-solve
        // reads every probe from the cache without touching the
        // optimizer (the classification estimates hit the probe cache
        // after the first event).
        let first = plane.process_event(FleetEvent::WorkloadScaled {
            machine: 1,
            slot: 0,
            factor: 1.0,
        });
        let second = plane.process_event(FleetEvent::WorkloadScaled {
            machine: 1,
            slot: 0,
            factor: 1.0,
        });
        assert!(second.optimizer_calls <= first.optimizer_calls);
        assert_eq!(second.optimizer_calls, 0, "{second:?}");
    }

    #[test]
    fn cold_mode_matches_incremental_results_at_higher_cost() {
        let build = || {
            vec![
                machine_with(&[("a0", 18, 2.0), ("a1", 6, 2.0)]),
                machine_with(&[("b0", 1, 1.0)]),
                machine_with(&[]),
            ]
        };
        let spaces = vec![SearchSpace::cpu_only(0.25); 3];
        let mut warm = ControlPlane::new(build(), spaces.clone(), ControlPlaneOptions::default());
        let mut cold = ControlPlane::new(
            build(),
            spaces,
            ControlPlaneOptions {
                incremental: false,
                ..ControlPlaneOptions::default()
            },
        );
        let events = |_: ()| {
            vec![
                FleetEvent::WorkloadScaled {
                    machine: 0,
                    slot: 0,
                    factor: 2.0,
                },
                FleetEvent::WorkloadScaled {
                    machine: 0,
                    slot: 0,
                    factor: 1.0 / 2.0,
                },
                FleetEvent::WorkloadScaled {
                    machine: 1,
                    slot: 0,
                    factor: 3.0,
                },
            ]
        };
        let mut warm_calls = 0;
        let mut cold_calls = 0;
        for (we, ce) in events(()).into_iter().zip(events(())) {
            let w = warm.process_event(we);
            let c = cold.process_event(ce);
            assert_eq!(w.resolved, c.resolved);
            assert_eq!(w.migration, c.migration);
            assert_eq!(
                w.objective.to_bits(),
                c.objective.to_bits(),
                "incremental and cold paths must agree bit-for-bit"
            );
            warm_calls += w.optimizer_calls;
            cold_calls += c.optimizer_calls;
        }
        assert!(
            warm_calls < cold_calls,
            "warm {warm_calls} vs cold {cold_calls}"
        );
    }

    #[test]
    fn arrival_on_loaded_machine_reconciles_to_idle_machine() {
        let mut plane = small_fleet();
        let cat = tpch::catalog(0.1);
        let tenant = Tenant::new("hot", Engine::pg(), cat, tpch::query_workload(18, 3.0)).unwrap();
        // Arrives on the busiest machine while machine 2 sits idle: the
        // reconcile pass should move it (no surcharge — same class).
        let outcome = plane.process_event(FleetEvent::TenantArrived {
            machine: 0,
            tenant: Box::new(tenant),
            qos: QoS::default(),
        });
        let mig = outcome.migration.as_ref().expect("expected a migration");
        assert_eq!(mig.tenant, "hot");
        assert_eq!(mig.from, 0);
        assert_eq!(mig.to, 2, "least-loaded destination wins");
        assert!(!mig.recalibrated, "same hardware class: model travels");
        assert!(mig.estimated_gain > plane.options().migration_threshold);
        assert_eq!(plane.machine(2).tenant_count(), 1);
        assert!(plane.placements()[2].is_some());
        assert_eq!(plane.stats().migrations, 1);
    }

    #[test]
    fn departure_and_decommission_prune_dead_state() {
        let mut plane = small_fleet();
        let models_before = plane.probe_cache().export().len();
        assert!(models_before > 0);
        plane.process_event(FleetEvent::TenantDeparted {
            machine: 1,
            slot: 0,
        });
        assert_eq!(plane.machine(1).tenant_count(), 0);
        assert!(plane.placements()[1].is_none());
        // Decommission the now-empty machine: fleet shrinks, and the
        // prune drops probe rows no live (model, tenant) can read.
        plane.process_event(FleetEvent::MachineDecommissioned { machine: 1 });
        assert_eq!(plane.machine_count(), 2);
        let fingerprints: HashSet<u64> = plane
            .probe_cache()
            .export()
            .iter()
            .map(|&(_, tenant, _, _)| tenant)
            .collect();
        let live: HashSet<u64> = (0..plane.machine_count())
            .flat_map(|m| (0..plane.machine(m).tenant_count()).map(move |i| (m, i)))
            .map(|(m, i)| plane.machine(m).tenant(i).fingerprint())
            .collect();
        assert!(
            fingerprints.is_subset(&live),
            "pruned cache must only hold live tenants"
        );
    }

    #[test]
    fn decision_latencies_are_recorded_but_not_durable() {
        let mut plane = small_fleet();
        let outcome = plane.process_event(FleetEvent::WorkloadScaled {
            machine: 0,
            slot: 0,
            factor: 1.2,
        });
        assert!(outcome.latency_ms >= 0.0);
        let batch = plane.process_batch(&[FleetEvent::WorkloadScaled {
            machine: 1,
            slot: 0,
            factor: 1.2,
        }]);
        assert!(batch.latency_ms >= 0.0);
        // Latency is measurement, not state: Decision carries none.
        let snap = plane.snapshot();
        assert_eq!(snap.log.len(), 2);
    }

    #[test]
    fn injected_manual_clock_makes_latencies_deterministic() {
        let mut plane = small_fleet();
        let clock = Clock::manual();
        plane.set_clock(clock.clone());
        // The clock never advances during the event, so the measured
        // latency is exactly zero — bit-identical on every run.
        let first = plane.process_event(FleetEvent::WorkloadScaled {
            machine: 0,
            slot: 0,
            factor: 1.2,
        });
        clock.advance_ms(7.25);
        let second = plane.process_event(FleetEvent::WorkloadScaled {
            machine: 0,
            slot: 0,
            factor: 1.1,
        });
        assert_eq!([first.latency_ms, second.latency_ms], [0.0, 0.0]);
    }

    /// Tenant `hot` arrives on a machine hosting `a0` and `a1`, next to
    /// an idle machine on `hardware` searching `space`.
    fn hot_arrival_beside(
        hardware: PhysicalMachine,
        space: SearchSpace,
        options: ControlPlaneOptions,
    ) -> (ControlPlane, EventOutcome) {
        let machines = vec![
            machine_with(&[("a0", 18, 2.0), ("a1", 6, 2.0)]),
            machine_on(hardware, &[]),
        ];
        let spaces = vec![SearchSpace::cpu_only(0.25), space];
        let mut plane = ControlPlane::new(machines, spaces, options);
        let cat = tpch::catalog(0.1);
        let tenant = Tenant::new("hot", Engine::pg(), cat, tpch::query_workload(18, 3.0)).unwrap();
        let outcome = plane.process_event(FleetEvent::TenantArrived {
            machine: 0,
            tenant: Box::new(tenant),
            qos: QoS::default(),
        });
        (plane, outcome)
    }

    fn fast_testbed() -> PhysicalMachine {
        let mut fast = PhysicalMachine::paper_testbed();
        fast.core_ghz *= 2.0;
        fast
    }

    #[test]
    fn heterogeneous_arrival_pays_recalibration_surcharge() {
        let (plane, outcome) = hot_arrival_beside(
            fast_testbed(),
            SearchSpace::cpu_only(0.25),
            ControlPlaneOptions {
                // Surcharge so high no cross-class move can clear it.
                recalibration_surcharge: 1e6,
                ..ControlPlaneOptions::default()
            },
        );
        assert!(
            outcome.migration.is_none(),
            "prohibitive surcharge must gate the cross-class move: {outcome:?}"
        );
        assert_eq!(plane.machine(0).tenant_count(), 3);
    }

    #[test]
    fn cross_hardware_move_recalibrates_on_the_destination() {
        let (plane, outcome) = hot_arrival_beside(
            fast_testbed(),
            SearchSpace::cpu_only(0.25),
            ControlPlaneOptions::default(),
        );
        let mig = outcome
            .migration
            .expect("cross-class move clears the surcharge");
        assert_eq!((mig.from, mig.to), (0, 1));
        assert!(mig.recalibrated, "cross-hardware move must recalibrate");
        // The destination serves estimates from its own hardware
        // class's calibration, not a model fit on the source.
        let kind = plane.machine(0).tenant(0).engine.kind();
        assert!(plane.machine(1).calibration(kind).is_some());
        assert_ne!(
            plane.machine(1).calibration(kind),
            plane.machine(0).calibration(kind),
            "destination must not reuse a model fit on different hardware"
        );
    }

    #[test]
    fn surcharge_follows_hardware_class_not_search_space() {
        // Identical hardware, different grids: two pricing classes,
        // one hardware class. The move needs no recalibration, so even
        // a prohibitive surcharge must not gate it.
        let (plane, outcome) = hot_arrival_beside(
            PhysicalMachine::paper_testbed(),
            SearchSpace::cpu_only(0.25).with_delta(0.1),
            ControlPlaneOptions {
                recalibration_surcharge: 1e9,
                ..ControlPlaneOptions::default()
            },
        );
        assert_eq!(plane.shards().len(), 2, "two pricing classes");
        let mig = outcome
            .migration
            .expect("same-hardware move is never surcharged");
        assert_eq!((mig.from, mig.to), (0, 1));
        assert!(!mig.recalibrated, "{mig:?}");
    }

    /// `small_fleet` under `options`, after tenant `a1` (machine 0,
    /// slot 1) turns into a second heavy tenant next to `a0`.
    fn after_major_drift(options: ControlPlaneOptions) -> (ControlPlane, EventOutcome) {
        let mut plane = small_fleet_with(options);
        let outcome = plane.process_event(FleetEvent::WorkloadChanged {
            machine: 0,
            slot: 1,
            workload: tpch::query_workload(21, 5.0),
        });
        assert_eq!(outcome.action, "workload-changed m0 t1 (major)");
        (plane, outcome)
    }

    #[test]
    fn major_drift_migrates_to_the_idle_machine_unless_the_threshold_gates_it() {
        let (moved, outcome) = after_major_drift(ControlPlaneOptions::default());
        let mig = outcome.migration.expect("major drift must migrate");
        assert_eq!((mig.tenant.as_str(), mig.from, mig.to), ("a1", 0, 2));
        assert!(!mig.recalibrated, "same hardware class: model travels");
        assert_eq!(moved.machine(0).tenant_count(), 1);
        assert_eq!(moved.machine(2).tenant_count(), 1);
        assert_eq!(outcome.resolved, vec![0, 2]);

        // Same hardware: even a prohibitive surcharge leaves the move
        // alone.
        let (_, surcharged) = after_major_drift(ControlPlaneOptions {
            recalibration_surcharge: 1e9,
            ..ControlPlaneOptions::default()
        });
        assert_eq!(surcharged.migration, Some(mig));

        let (gated, outcome) = after_major_drift(ControlPlaneOptions {
            migration_threshold: 1e9, // nothing clears this bar
            ..ControlPlaneOptions::default()
        });
        assert!(outcome.migration.is_none(), "{outcome:?}");
        assert_eq!(gated.machine(0).tenant_count(), 2);
        assert!(
            moved.objective() < gated.objective(),
            "the move must cut the estimated objective: {} vs {}",
            moved.objective(),
            gated.objective()
        );
    }

    #[test]
    fn per_event_action_strings_are_pinned() {
        // Decision logs, snapshot bytes and per-kind tallies all read
        // these strings: one event of each kind, full text.
        let mut plane = small_fleet();
        let mut action = |event| plane.process_event(event).action;
        assert_eq!(
            action(FleetEvent::WorkloadScaled {
                machine: 0,
                slot: 0,
                factor: 1.5,
            }),
            "workload-scaled m0 t0 (minor)"
        );
        // Same query at another intensity: per-query cost unchanged.
        assert_eq!(
            action(FleetEvent::WorkloadChanged {
                machine: 0,
                slot: 1,
                workload: tpch::query_workload(6, 4.0),
            }),
            "workload-changed m0 t1 (minor)"
        );
        assert_eq!(
            action(FleetEvent::ActualsReported {
                machine: 0,
                slot: 0,
            }),
            "actuals-reported m0 t0 (off)"
        );
        assert_eq!(
            action(FleetEvent::TenantDeparted {
                machine: 1,
                slot: 0,
            }),
            "tenant-departed m1 (b0)"
        );
        assert_eq!(
            action(FleetEvent::MachineDecommissioned { machine: 1 }),
            "machine-decommissioned m1"
        );
        let tenant = Tenant::new(
            "c0",
            Engine::pg(),
            tpch::catalog(0.1),
            tpch::query_workload(1, 1.0),
        )
        .unwrap();
        assert_eq!(
            action(FleetEvent::TenantArrived {
                machine: 0,
                tenant: Box::new(tenant),
                qos: QoS::default(),
            }),
            "tenant-arrived m0 t2"
        );
        assert_eq!(
            action(FleetEvent::WorkloadChanged {
                machine: 0,
                slot: 0,
                workload: tpch::query_workload(21, 5.0),
            }),
            "workload-changed m0 t0 (major)"
        );
    }

    #[test]
    fn a_one_event_batch_decides_exactly_like_process_event() {
        let events = || {
            let hot = Tenant::new(
                "hot",
                Engine::pg(),
                tpch::catalog(0.1),
                tpch::query_workload(18, 3.0),
            )
            .unwrap();
            vec![
                FleetEvent::TenantArrived {
                    machine: 0,
                    tenant: Box::new(hot),
                    qos: QoS::default(),
                },
                FleetEvent::WorkloadChanged {
                    machine: 0,
                    slot: 0,
                    workload: tpch::query_workload(21, 5.0),
                },
                FleetEvent::TenantDeparted {
                    machine: 1,
                    slot: 0,
                },
            ]
        };
        let mut single = small_fleet();
        let mut batched = small_fleet();
        for (s, b) in events().into_iter().zip(events()) {
            let s = single.process_event(s);
            let b = batched.process_batch(&[b]);
            assert_eq!(b.events, 1);
            assert_eq!(s.action, b.action);
            assert_eq!(s.resolved, b.resolved);
            assert_eq!(s.migration.into_iter().collect::<Vec<_>>(), b.migrations);
            assert_eq!(s.objective.to_bits(), b.objective.to_bits());
            assert_eq!(s.optimizer_calls, b.optimizer_calls);
        }
        assert!(
            single.stats().migrations > 0,
            "the stream must move a tenant"
        );
        assert_eq!(single.snapshot().to_json(), batched.snapshot().to_json());
    }

    #[test]
    fn shards_group_by_hardware_and_space() {
        let mut fast = PhysicalMachine::paper_testbed();
        fast.core_ghz *= 2.0;
        let machines = vec![
            machine_with(&[("a", 6, 1.0)]),
            machine_with(&[("b", 6, 1.0)]),
            machine_on(fast, &[("c", 6, 1.0)]),
        ];
        let spaces = vec![SearchSpace::cpu_only(0.25); 3];
        let plane = ControlPlane::new(machines, spaces, ControlPlaneOptions::default());
        let shards = plane.shards();
        assert_eq!(shards.len(), 2);
        let sizes: Vec<usize> = shards.values().map(|v| v.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1), "{shards:?}");
    }

    #[test]
    fn default_allocation_reference_is_stable() {
        // Guards the classification metric's reference point.
        let space = SearchSpace::cpu_only(0.25);
        let r = space.default_allocation(2);
        assert_eq!(r, Allocation::new(0.5, 0.25));
    }

    #[test]
    fn migration_gain_is_robust_near_zero_objectives() {
        // A near-zero base objective used to manufacture huge relative
        // gains out of float dust (the old gate divided by `base`
        // unguarded). The absolute-plus-relative gate must reject
        // noise-sized improvements outright...
        assert_eq!(migration_gain(1e-12, 0.0), None);
        assert_eq!(migration_gain(0.0, -1e-12), None);
        // ...and scale dust-sized improvements by the floor, not the
        // tiny base: 1e-8 improvement on a 1e-10 base is a 1e8×
        // relative gain by the old math, but far below any plausible
        // migration threshold with the floored denominator.
        let g = migration_gain(1e-10, -1e-8 + 1e-10).unwrap();
        assert!(g < 0.05, "spurious gain {g}");
        // Regressions and no-ops are never gains.
        assert_eq!(migration_gain(10.0, 10.0), None);
        assert_eq!(migration_gain(10.0, 12.0), None);
        // Real improvements keep their usual relative value.
        let g = migration_gain(10.0, 9.0).unwrap();
        assert!((g - 0.1).abs() < 1e-12);
    }

    #[test]
    fn batch_matches_serial_replay_bit_for_bit() {
        // Minor-only workload events: serial replay takes no migration,
        // so the batch contract promises bit-identical placements and
        // objective — with fewer waves.
        let mut serial = small_fleet();
        let mut batched = small_fleet();
        let events = vec![
            FleetEvent::WorkloadScaled {
                machine: 0,
                slot: 0,
                factor: 1.5,
            },
            FleetEvent::WorkloadScaled {
                machine: 1,
                slot: 0,
                factor: 0.8,
            },
            FleetEvent::WorkloadScaled {
                machine: 0,
                slot: 1,
                factor: 2.0,
            },
        ];
        let waves_before_serial = serial.stats().waves;
        for e in events.clone() {
            serial.process_event(e);
        }
        let waves_before_batch = batched.stats().waves;
        let outcome = batched.process_batch(&events);
        assert_eq!(outcome.events, 3);
        assert_eq!(outcome.resolved, vec![0, 1], "each dirty machine once");
        assert!(outcome.migrations.is_empty());
        assert_eq!(
            outcome.objective.to_bits(),
            serial.objective().to_bits(),
            "batch-final state must equal serial replay"
        );
        for (b, s) in batched.placements().iter().zip(serial.placements()) {
            assert_eq!(b, s, "placements must be bit-identical");
        }
        assert_eq!(
            batched.seq(),
            serial.seq(),
            "seq counts events, not batches"
        );
        let serial_waves = serial.stats().waves - waves_before_serial;
        let batch_waves = batched.stats().waves - waves_before_batch;
        assert_eq!(serial_waves, 3, "serial: one wave per event");
        assert_eq!(batch_waves, 1, "batched: one wave for the whole batch");
    }

    #[test]
    fn batch_classification_is_last_write_wins_per_slot() {
        // A drift and its revert: serial replay classifies the first
        // change major; the batch compares first-touch against the
        // batch-final workload, sees no net change, and says minor.
        // This is the documented coalescing divergence.
        let original = tpch::query_workload(18, 2.0);
        let drifted = tpch::query_workload(21, 5.0);
        let mut serial = small_fleet();
        let first = serial.process_event(FleetEvent::WorkloadChanged {
            machine: 0,
            slot: 0,
            workload: drifted.clone(),
        });
        assert!(first.action.contains("major"), "{}", first.action);

        let mut batched = small_fleet();
        let outcome = batched.process_batch(&[
            FleetEvent::WorkloadChanged {
                machine: 0,
                slot: 0,
                workload: drifted,
            },
            FleetEvent::WorkloadChanged {
                machine: 0,
                slot: 0,
                workload: original,
            },
        ]);
        assert!(
            outcome.action.contains("0 major") && outcome.action.contains("1 coalesced"),
            "net-zero drift coalesces to minor: {}",
            outcome.action
        );
        assert!(outcome.migrations.is_empty());
        assert_eq!(batched.decision_log().len(), 1, "one decision per batch");
    }

    #[test]
    fn batch_rekeys_slots_and_machines_through_structural_events() {
        // Departure inside a batch shifts later slots; decommission
        // swap-removes. The batch must keep its pending records and
        // dirty set consistent through both.
        let mut plane = small_fleet();
        let outcome = plane.process_batch(&[
            // Touch slot 1 of machine 0 (record keyed (0, 1))...
            FleetEvent::WorkloadScaled {
                machine: 0,
                slot: 1,
                factor: 1.5,
            },
            // ...then remove slot 0: the record must re-key to (0, 0).
            FleetEvent::TenantDeparted {
                machine: 0,
                slot: 0,
            },
            // Empty machine 1 and decommission it: machine 2 (empty)
            // takes index 1.
            FleetEvent::TenantDeparted {
                machine: 1,
                slot: 0,
            },
            FleetEvent::MachineDecommissioned { machine: 1 },
        ]);
        assert_eq!(plane.machine_count(), 2);
        assert_eq!(plane.machine(0).tenant_count(), 1);
        assert_eq!(plane.machine(0).tenant(0).name, "a1");
        assert!(
            outcome.resolved.iter().all(|&m| m < 2),
            "no stale machine indices: {:?}",
            outcome.resolved
        );
        assert_eq!(plane.seq(), 4);
        assert!(
            outcome.action.contains("decommissioned 1"),
            "{}",
            outcome.action
        );
    }

    #[test]
    fn batch_reconciles_arrivals_after_the_single_wave() {
        let mut plane = small_fleet();
        let cat = tpch::catalog(0.1);
        let tenant = Tenant::new("hot", Engine::pg(), cat, tpch::query_workload(18, 3.0)).unwrap();
        let outcome = plane.process_batch(&[
            FleetEvent::WorkloadScaled {
                machine: 1,
                slot: 0,
                factor: 1.1,
            },
            FleetEvent::TenantArrived {
                machine: 0,
                tenant: Box::new(tenant),
                qos: QoS::default(),
            },
        ]);
        assert_eq!(outcome.migrations.len(), 1, "{outcome:?}");
        assert_eq!(outcome.migrations[0].tenant, "hot");
        assert_eq!(outcome.migrations[0].to, 2, "least-loaded destination wins");
        assert_eq!(plane.machine(2).tenant_count(), 1);
        assert_eq!(plane.stats().migrations, 1);
        let logged = plane.decision_log().latest().unwrap().clone();
        assert_eq!(logged.migrations, outcome.migrations);
    }

    #[test]
    fn ring_log_retains_horizon_and_counts_drops() {
        let machines = vec![
            machine_with(&[("a0", 18, 2.0), ("a1", 6, 2.0)]),
            machine_with(&[("b0", 1, 1.0)]),
            machine_with(&[]),
        ];
        let spaces = vec![SearchSpace::cpu_only(0.25); 3];
        let mut plane = ControlPlane::new(
            machines,
            spaces,
            ControlPlaneOptions {
                decision_log_capacity: 2,
                ..ControlPlaneOptions::default()
            },
        );
        for i in 0..5 {
            plane.process_event(FleetEvent::WorkloadScaled {
                machine: 0,
                slot: 0,
                factor: 1.0 + 0.1 * (i as f64),
            });
        }
        let log = plane.decision_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let seqs: Vec<u64> = log.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![4, 5], "oldest → newest across the ring head");
        assert_eq!(log.latest().unwrap().seq, 5);
    }

    #[test]
    fn capped_probe_cache_evicts_but_never_changes_decisions() {
        let build = || {
            vec![
                machine_with(&[("a0", 18, 2.0), ("a1", 6, 2.0)]),
                machine_with(&[("b0", 1, 1.0)]),
                machine_with(&[]),
            ]
        };
        let spaces = vec![SearchSpace::cpu_only(0.25); 3];
        let mut uncapped =
            ControlPlane::new(build(), spaces.clone(), ControlPlaneOptions::default());
        let mut capped = ControlPlane::new(
            build(),
            spaces,
            ControlPlaneOptions {
                probe_cache_capacity: 8,
                ..ControlPlaneOptions::default()
            },
        );
        for i in 0..4u32 {
            let e = |_: ()| FleetEvent::WorkloadScaled {
                machine: (i as usize) % 2,
                slot: 0,
                factor: 1.0 + 0.2 * (i as f64),
            };
            let u = uncapped.process_event(e(()));
            let c = capped.process_event(e(()));
            assert_eq!(u.action, c.action);
            assert_eq!(u.resolved, c.resolved);
            assert_eq!(
                u.objective.to_bits(),
                c.objective.to_bits(),
                "capped cache must not change any decision"
            );
        }
        assert!(capped.probe_cache().len() <= 8);
        assert!(capped.probe_cache().evictions() > 0, "cap must bind");
        assert_eq!(uncapped.probe_cache().evictions(), 0);
        assert!(
            capped.probe_cache().misses() >= uncapped.probe_cache().misses(),
            "a capped cache pays with misses, not answers"
        );
        assert!(capped.probe_cache().approx_bytes() <= uncapped.probe_cache().approx_bytes());
    }

    /// The plane's topology rebuilt as [`ControlPlane::restore`] wants
    /// it: uncalibrated advisors with the same hardware, tenants and
    /// QoS, plus the same search spaces.
    fn fresh_topology(
        plane: &ControlPlane,
    ) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
        (0..plane.machine_count())
            .map(|m| {
                let live = plane.machine(m);
                let mut adv =
                    VirtualizationDesignAdvisor::new(Hypervisor::new(*live.hypervisor().machine()));
                for (i, &q) in live.qos().iter().enumerate() {
                    adv.add_tenant(live.tenant(i).clone(), q);
                }
                (adv, *plane.space(m))
            })
            .unzip()
    }

    #[test]
    fn restore_under_a_tighter_cap_evicts_at_once_and_decides_alike() {
        let mut uncapped = small_fleet();
        let snapshot = uncapped.snapshot();
        assert!(
            snapshot.probes.len() > 8,
            "the snapshot must overflow the cap"
        );
        let (machines, spaces) = fresh_topology(&uncapped);
        let options = ControlPlaneOptions {
            probe_cache_capacity: 8,
            ..ControlPlaneOptions::default()
        };
        let mut capped =
            ControlPlane::restore(machines, spaces, options, &snapshot).expect("snapshot restores");
        assert!(
            capped.probe_cache().len() <= 8,
            "restore must enforce the cap"
        );
        assert!(capped.stats().probe_evictions > 0);
        assert!(capped.stats().probe_bytes < uncapped.stats().probe_bytes);

        let event = FleetEvent::WorkloadScaled {
            machine: 0,
            slot: 0,
            factor: 1.5,
        };
        let u = uncapped.process_event(event.clone());
        let c = capped.process_event(event);
        assert_eq!(u.action, c.action);
        assert_eq!(u.resolved, c.resolved);
        assert_eq!(u.objective.to_bits(), c.objective.to_bits());
    }

    // ------------------------------------------------------------------
    // Adaptive tuning lifecycle
    // ------------------------------------------------------------------

    /// Adaptive knobs small fleets can exercise: refits fire from two
    /// distinct samples, gates settle after a couple of reports.
    fn eager_tuning() -> AdaptiveTuningOptions {
        AdaptiveTuningOptions {
            adaption: AdaptionOptions {
                min_samples: 2,
                ..AdaptionOptions::default()
            },
            guardrail: GuardrailOptions {
                min_shadow_samples: 3,
                min_canary_samples: 2,
                // Wide-open gates: promotion is decided by the shadow
                // comparison, not the canary thresholds.
                max_error_inflation: 10.0,
                max_objective_regression: 10.0,
            },
        }
    }

    fn adaptive_fleet(tuning: Option<AdaptiveTuningOptions>) -> ControlPlane {
        let machines = vec![
            machine_with(&[("a0", 18, 2.0), ("a1", 6, 2.0)]),
            machine_with(&[("b0", 1, 1.0)]),
        ];
        let spaces = vec![SearchSpace::cpu_only(0.25); 2];
        ControlPlane::new(
            machines,
            spaces,
            ControlPlaneOptions {
                adaptive: tuning,
                ..ControlPlaneOptions::default()
            },
        )
    }

    /// Every tenant reports actuals once, in (machine, slot) order.
    fn report_all(plane: &mut ControlPlane) -> Vec<String> {
        let mut actions = Vec::new();
        for m in 0..plane.machine_count() {
            for slot in 0..plane.machine(m).tenant_count() {
                let outcome = plane.process_event(FleetEvent::ActualsReported { machine: m, slot });
                actions.push(outcome.action);
            }
        }
        actions
    }

    #[test]
    fn actuals_are_a_recorded_noop_without_adaptive_tuning() {
        let mut plane = adaptive_fleet(None);
        let objective = plane.objective();
        let outcome = plane.process_event(FleetEvent::ActualsReported {
            machine: 0,
            slot: 0,
        });
        assert_eq!(outcome.action, "actuals-reported m0 t0 (off)");
        assert!(outcome.resolved.is_empty());
        assert_eq!(outcome.objective.to_bits(), objective.to_bits());
        assert!(plane.tuners().is_empty());
        assert!(plane.adaption_storages().is_empty());
    }

    #[test]
    fn adaptive_lifecycle_reaches_a_terminal_verdict() {
        let mut plane = adaptive_fleet(Some(eager_tuning()));
        let mut actions = Vec::new();
        for _ in 0..6 {
            actions.extend(report_all(&mut plane));
        }
        assert!(
            actions.iter().any(|a| a.ends_with("(shadow)")),
            "a refitted candidate must shadow first: {actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| a.ends_with("(promoted)") || a.ends_with("(rolled-back)")),
            "the guardrail must reach a verdict: {actions:?}"
        );
        // Whatever the verdict, no machine is left running an
        // uninstalled candidate: every calibration matches the class
        // registry model for its (hardware, kind).
        for m in 0..plane.machine_count() {
            for (kind, model) in plane.machine(m).calibrations().to_vec() {
                let hw = plane.machine(m).hypervisor().machine().fingerprint();
                let class = plane.snapshot().registry;
                let registered = class
                    .iter()
                    .find(|(h, k, _)| *h == hw && *k == kind)
                    .map(|(_, _, m)| m.clone())
                    .expect("class model registered");
                assert_eq!(model.fingerprint(), registered.fingerprint());
            }
        }
    }

    #[test]
    fn failed_canary_rolls_back_to_the_exact_incumbent() {
        let mut tuning = eager_tuning();
        // An impossible objective gate: any canary verdict rolls back.
        tuning.guardrail.max_objective_regression = -1.0;
        let mut plane = adaptive_fleet(Some(tuning));
        let before: Vec<Vec<(EngineKind, CalibratedModel)>> = (0..plane.machine_count())
            .map(|m| plane.machine(m).calibrations().to_vec())
            .collect();
        let registry_before = plane.snapshot().registry;

        let mut actions = Vec::new();
        let mut rolled_back = false;
        'outer: for _ in 0..8 {
            for m in 0..plane.machine_count() {
                for slot in 0..plane.machine(m).tenant_count() {
                    let outcome =
                        plane.process_event(FleetEvent::ActualsReported { machine: m, slot });
                    let done = outcome.action.ends_with("(rolled-back)");
                    actions.push(outcome.action);
                    if done {
                        // Stop at the verdict: a cleared store will
                        // re-propose a fresh candidate from new
                        // residuals, so reporting further would start
                        // the next lifecycle.
                        rolled_back = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            rolled_back,
            "the impossible objective gate must roll the canary back: {actions:?}"
        );
        assert!(
            !actions.iter().any(|a| a.ends_with("(promoted)")),
            "nothing can promote past an impossible gate: {actions:?}"
        );
        // Rollback restores the pre-canary models *exactly*.
        for (m, expected) in before.iter().enumerate() {
            assert_eq!(
                plane.machine(m).calibrations().to_vec(),
                *expected,
                "machine {m} calibrations must be bit-identical after rollback"
            );
        }
        assert_eq!(plane.snapshot().registry, registry_before);
        assert!(plane.tuners().is_empty(), "tracker retires on rollback");
        // The rejected candidate's evidence is gone: the store was
        // cleared so the same samples cannot re-propose it.
        for storage in plane.adaption_storages().values() {
            assert!(storage.len() <= plane.stats().tenants);
        }
    }

    #[test]
    fn canary_tenant_departure_forces_rollback() {
        let mut tuning = eager_tuning();
        // Canary never settles on its own: it needs many samples.
        tuning.guardrail.min_canary_samples = 1_000;
        let mut plane = adaptive_fleet(Some(tuning));
        let mut entered_canary = false;
        for _ in 0..8 {
            for a in report_all(&mut plane) {
                entered_canary |= a.ends_with("(canary)");
            }
            if entered_canary {
                break;
            }
        }
        assert!(entered_canary, "fixture must enter canary");
        let canary_fp = plane
            .tuners()
            .values()
            .next()
            .expect("tracker live in canary")
            .canary_tenants()[0];
        // Find and depart the canary tenant.
        let (m, slot) = (0..plane.machine_count())
            .flat_map(|m| (0..plane.machine(m).tenant_count()).map(move |s| (m, s)))
            .find(|&(m, s)| plane.machine(m).tenant(s).fingerprint() == canary_fp)
            .expect("canary tenant is hosted");
        let registry_before = plane.snapshot().registry;
        plane.process_event(FleetEvent::TenantDeparted { machine: m, slot });
        assert!(
            plane.tuners().is_empty(),
            "departure of the canary tenant must retire the tracker"
        );
        assert_eq!(
            plane.snapshot().registry,
            registry_before,
            "registry incumbent unchanged by the forced rollback"
        );
    }

    #[test]
    fn adaptive_state_snapshot_round_trips() {
        let mut plane = adaptive_fleet(Some(eager_tuning()));
        // Stop mid-lifecycle so both a storage and (typically) a
        // tracker are live in the snapshot.
        for _ in 0..2 {
            report_all(&mut plane);
        }
        let snapshot = plane.snapshot();
        assert!(
            !snapshot.adaption.is_empty(),
            "residual stores must be captured"
        );
        let json = snapshot.to_json();
        let parsed = FleetSnapshot::from_json(&json).expect("snapshot parses");
        assert_eq!(parsed, snapshot);

        let (fresh, spaces) = fresh_topology(&plane);
        let resumed = ControlPlane::restore(
            fresh,
            spaces,
            ControlPlaneOptions {
                adaptive: Some(eager_tuning()),
                ..ControlPlaneOptions::default()
            },
            &parsed,
        )
        .expect("snapshot restores");
        assert_eq!(
            resumed.snapshot().to_json(),
            json,
            "restored adaptive state must re-serialize byte-identically"
        );
        assert_eq!(resumed.tuners(), plane.tuners());
        assert_eq!(
            resumed.adaption_storages().keys().collect::<Vec<_>>(),
            plane.adaption_storages().keys().collect::<Vec<_>>()
        );
    }

    /// Bounded reconcile pricing against a frozen copy of the
    /// unbounded loop it replaced, on the same fleet states.
    mod bounded_pricing {
        use super::*;
        use crate::problem::{AxisSet, Resource, ResourceVector};
        use proptest::prelude::*;

        /// The relative gain and its surcharge-netted value exactly as
        /// the unbounded loop computed them.
        fn frozen_net(
            plane: &ControlPlane,
            base_total: f64,
            (from, src_cur, src_new): (usize, f64, f64),
            (d, dst_new): (usize, f64),
        ) -> Option<(f64, f64)> {
            let candidate_total = base_total - src_cur - plane.current_cost(d) + src_new + dst_new;
            let gain = migration_gain(base_total, candidate_total)?;
            let net = if plane.hardware_class(d) != plane.hardware_class(from) {
                gain - plane.options.recalibration_surcharge
            } else {
                gain
            };
            Some((net, gain))
        }

        /// The pricing loop before destinations were bounded: every
        /// fan-out destination is priced. Returns the fan-out and the
        /// move it picks as `(destination, raw gain)`.
        fn unbounded_move(
            plane: &mut ControlPlane,
            from: usize,
            slot: usize,
        ) -> (Vec<usize>, Option<(usize, f64)>) {
            let base_total = plane.objective();
            let mut dests: Vec<usize> = (0..plane.machines.len())
                .filter(|&d| {
                    d != from
                        && plane.machines[d].tenant_count() < machine_capacity(&plane.spaces[d])
                })
                .collect();
            dests.sort_by_key(|&d| (plane.machines[d].tenant_count(), d));
            dests.truncate(RECONCILE_FANOUT);
            if dests.is_empty() {
                return (dests, None);
            }
            let engine = plane.machines[from].tenant(slot).engine.clone();
            for &d in &dests {
                plane.class_model(d, &engine);
            }
            let src_cur = plane.current_cost(from);
            let Some((src_new, src_unmet)) = plane.price_without(from, slot).0 else {
                return (dests, None);
            };
            if src_unmet > plane.unmet_limits(from) {
                return (dests, None);
            }
            let mut best: Option<(f64, usize, f64)> = None;
            for &d in &dests {
                let Some((dst_new, dst_unmet)) = plane.price_with_extra(d, from, slot).0 else {
                    continue;
                };
                if dst_unmet > plane.unmet_limits(d) {
                    continue;
                }
                let Some((net, gain)) =
                    frozen_net(plane, base_total, (from, src_cur, src_new), (d, dst_new))
                else {
                    continue;
                };
                if net <= plane.options.migration_threshold {
                    continue;
                }
                if best.map(|(bn, _, _)| net > bn).unwrap_or(true) {
                    best = Some((net, d, gain));
                }
            }
            (dests, best.map(|(_, to, gain)| (to, gain)))
        }

        /// What the checks saw, so a vacuous draw can be told from a
        /// real one.
        #[derive(Debug, Default)]
        struct Coverage {
            /// Destinations the first pass (source floor 0) skipped.
            first: u64,
            /// Destinations the second pass (source priced) skipped.
            second: u64,
            /// Destinations priced.
            priced: u64,
            /// Fan-out destinations with a positive floor (full-grid
            /// placements).
            tight: u64,
            /// Occupied fan-out destinations with the floor 0
            /// (coarse-to-fine placements).
            loose: u64,
            /// Migrations the events took.
            moves: usize,
            /// Probe rows the capped caches evicted.
            evictions: u64,
        }

        /// `choose_move` for tenant `slot` of `from` picks the frozen
        /// loop's destination and gain bits, and its counters add up to
        /// the two passes. Every fan-out destination, priced in full,
        /// costs at least its floor unless the move breaks a limit, and
        /// every destination the passes bounded has no solve, breaks a
        /// limit or cannot clear the threshold.
        fn check_candidate(
            plane: &mut ControlPlane,
            from: usize,
            slot: usize,
            seen: &mut Coverage,
        ) {
            let (dests, reference) = unbounded_move(plane, from, slot);
            let (priced, bounded) = (plane.reconcile_priced, plane.reconcile_bounded);
            let chosen = plane.choose_move(from, slot);
            let bits = |m: Option<(usize, f64)>| m.map(|(d, gain)| (d, gain.to_bits()));
            assert_eq!(bits(chosen), bits(reference), "m{from} t{slot}");

            let base_total = plane.objective();
            let src_cur = plane.current_cost(from);
            let src = plane
                .price_without(from, slot)
                .0
                .filter(|&(_, unmet)| unmet <= plane.unmet_limits(from))
                .map(|(cost, _)| cost);
            let first_pass: Vec<bool> = dests
                .iter()
                .map(|&d| !plane.may_clear(base_total, from, src_cur, 0.0, d))
                .collect();
            // Past the first pass only with a survivor and a source
            // that prices without breaking a limit.
            let src = src.filter(|_| first_pass.contains(&false));
            let mut counted = Coverage::default();
            for (&d, bounded_first) in dests.iter().zip(first_pass) {
                // Every destination's cost after a move that leaves no
                // more of its limits unmet is at least its floor.
                let dst_new = plane
                    .price_with_extra(d, from, slot)
                    .0
                    .filter(|&(_, unmet)| unmet <= plane.unmet_limits(d))
                    .map(|(cost, _)| cost);
                let floor = plane.dst_floor(d);
                if let Some(dst_new) = dst_new {
                    assert!(
                        dst_new >= floor,
                        "m{from} t{slot} -> m{d}: {dst_new} < {floor}"
                    );
                }
                if floor > 0.0 {
                    seen.tight += 1;
                } else if plane.current_cost(d) > 0.0 {
                    seen.loose += 1;
                }
                let src_floor = if bounded_first {
                    counted.first += 1;
                    0.0
                } else {
                    match src {
                        Some(src_new)
                            if !plane.may_clear(base_total, from, src_cur, src_new, d) =>
                        {
                            counted.second += 1;
                            src_new
                        }
                        Some(_) => {
                            counted.priced += 1;
                            continue;
                        }
                        None => continue,
                    }
                };
                let Some(dst_new) = dst_new else {
                    continue;
                };
                let net = frozen_net(plane, base_total, (from, src_cur, src_floor), (d, dst_new));
                assert!(
                    net.is_none_or(|(net, _)| net <= plane.options.migration_threshold),
                    "m{from} t{slot} -> m{d}: bounded, but nets {net:?} at source cost {src_floor}"
                );
            }
            assert_eq!(
                plane.reconcile_bounded - bounded,
                counted.first + counted.second
            );
            assert_eq!(plane.reconcile_priced - priced, counted.priced);
            seen.first += counted.first;
            seen.second += counted.second;
            seen.priced += counted.priced;
        }

        /// TPC-H queries the drawn tenants run.
        const QUERIES: [usize; 4] = [18, 21, 6, 1];

        /// A drawn tenant: engine (0 = Pg, 1 = Db2), index into
        /// [`QUERIES`], statement count (one tenant in two is light, so
        /// a move can add little to its destination's cost) and
        /// degradation limit (`None` = unconstrained).
        type TenantDraw = (usize, usize, f64, Option<f64>);

        fn tenant_draw() -> impl Strategy<Value = TenantDraw> {
            (
                0usize..2,
                0usize..QUERIES.len(),
                prop_oneof![1.0f64..6.0, 0.02f64..0.2],
                prop_oneof![Just(None), Just(None), (1.0f64..1.3).prop_map(Some)],
            )
        }

        fn drawn_tenant(name: String, (engine, query, mult, _): TenantDraw) -> Tenant {
            let engine = if engine == 0 {
                Engine::pg()
            } else {
                Engine::db2()
            };
            let workload = tpch::query_workload(QUERIES[query], mult);
            Tenant::new(name, engine, tpch::catalog(0.1), workload).unwrap()
        }

        fn drawn_qos((_, _, _, limit): TenantDraw) -> QoS {
            limit.map_or_else(QoS::default, QoS::with_limit)
        }

        /// Search space `pick`. CPU, memory, and CPU × memory at δ 0.2
        /// always solve on the full grid; on memory alone a light
        /// arrival can cost its destination under 0.5 % more, so a
        /// floor set too high shows. CPU at δ 0.1 with a 0.1 minimum
        /// share refines from a coarse δ of 0.2 while it hosts at most
        /// two tenants. CPU at δ 0.05 always refines here.
        fn space(pick: usize) -> SearchSpace {
            let grid = |axes: &[Resource], delta: f64, min_share: f64| {
                let fixed = ResourceVector::full().with(Resource::Memory, 0.25);
                let mut space = SearchSpace::over(AxisSet::of(axes), fixed);
                space.deltas = ResourceVector::splat(delta);
                space.min_share = min_share;
                space
            };
            match pick {
                0 => grid(&[Resource::Cpu], 0.2, 0.05),
                1 => grid(&[Resource::Memory], 0.2, 0.05),
                2 => grid(&[Resource::Cpu, Resource::Memory], 0.2, 0.05),
                3 => grid(&[Resource::Cpu], 0.1, 0.1),
                _ => SearchSpace::cpu_only(0.25),
            }
        }

        /// A drawn machine: 1.5× the testbed's clock or not, a space
        /// pick and its initial tenants.
        type MachineDraw = (bool, usize, Vec<TenantDraw>);

        /// A drawn event: arrival (0), workload change (1) or departure
        /// (2), a machine pick, a slot pick and a tenant draw.
        type EventDraw = (usize, usize, usize, TenantDraw);

        /// Threshold, surcharge and probe-cache cap.
        type OptionsDraw = (f64, f64, usize);

        fn fleet_draw() -> impl Strategy<Value = (Vec<MachineDraw>, Vec<EventDraw>, OptionsDraw)> {
            (
                proptest::collection::vec(
                    (
                        prop_oneof![Just(false), Just(true)],
                        0usize..5,
                        proptest::collection::vec(tenant_draw(), 0..4),
                    ),
                    2..7,
                ),
                proptest::collection::vec((0usize..3, 0usize..6, 0usize..4, tenant_draw()), 3..5),
                (
                    // Log-uniform reaches the small thresholds moves
                    // clear; uniform, the large ones the first pass
                    // settles alone.
                    prop_oneof![
                        (-4.0f64..0.5f64.log10()).prop_map(|e| 10f64.powf(e)),
                        1e-4f64..0.5
                    ],
                    prop_oneof![Just(0.0), Just(1e-3), Just(0.02)],
                    prop_oneof![Just(0usize), Just(48)],
                ),
            )
        }

        /// Build the drawn fleet, then check every hosted tenant before
        /// the first event and after each one.
        fn check_fleet(
            machines: &[MachineDraw],
            events: &[EventDraw],
            (threshold, surcharge, cap): OptionsDraw,
            seen: &mut Coverage,
        ) {
            let (advisors, spaces): (Vec<_>, Vec<_>) = machines
                .iter()
                .enumerate()
                .map(|(m, (fast, pick, tenants))| {
                    let mut spec = PhysicalMachine::paper_testbed();
                    // Machines 0 and 1 differ, so the fleet spans two
                    // hardware classes.
                    if m == 1 || (m > 1 && *fast) {
                        spec.core_ghz *= 1.5;
                    }
                    let space = space(*pick);
                    let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
                    for (i, &t) in tenants.iter().enumerate() {
                        if adv.tenant_count() < machine_capacity(&space) {
                            adv.add_tenant(drawn_tenant(format!("m{m}-t{i}"), t), drawn_qos(t));
                        }
                    }
                    (adv, space)
                })
                .unzip();
            let options = ControlPlaneOptions {
                migration_threshold: threshold,
                recalibration_surcharge: surcharge,
                probe_cache_capacity: cap,
                ..ControlPlaneOptions::default()
            };
            let mut plane = ControlPlane::new(advisors, spaces, options);
            let check_all = |plane: &mut ControlPlane, seen: &mut Coverage| {
                for from in 0..plane.machine_count() {
                    for slot in 0..plane.machine(from).tenant_count() {
                        check_candidate(plane, from, slot, seen);
                    }
                }
            };
            check_all(&mut plane, seen);
            let k = plane.machine_count();
            for (e, &(kind, m, slot, t)) in events.iter().enumerate() {
                let m = m % k;
                let n = plane.machine(m).tenant_count();
                let event = if n == 0 || (kind == 0 && n < machine_capacity(plane.space(m))) {
                    FleetEvent::TenantArrived {
                        machine: m,
                        tenant: Box::new(drawn_tenant(format!("arrival-{e}"), t)),
                        qos: drawn_qos(t),
                    }
                } else if kind == 2 {
                    FleetEvent::TenantDeparted {
                        machine: m,
                        slot: slot % n,
                    }
                } else {
                    // The first drawn query the tenant does not run.
                    let slot = slot % n;
                    let current = &plane.machine(m).tenant(slot).workload.statements[0].sql;
                    let workload = (0..QUERIES.len())
                        .map(|j| tpch::query_workload(QUERIES[(t.1 + j) % QUERIES.len()], t.2))
                        .find(|w| &w.statements[0].sql != current)
                        .unwrap();
                    FleetEvent::WorkloadChanged {
                        machine: m,
                        slot,
                        workload,
                    }
                };
                seen.moves += usize::from(plane.process_event(event).migration.is_some());
                check_all(&mut plane, seen);
            }
            seen.evictions += plane.stats().probe_evictions;
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            /// Random 2–6 machine fleets of two hardware classes, on
            /// full-grid and coarse-to-fine spaces, with Pg and Db2
            /// TPC-H tenants (some limited), a threshold from 1e-4 to
            /// 0.5, a surcharge of 0, 1e-3 or 0.02 and a capped or
            /// uncapped probe cache, take arrivals, workload changes
            /// and departures. Before the first event and after each
            /// one, every hosted tenant's `choose_move` equals the
            /// unbounded loop's, every destination's priced cost
            /// respects its floor, and no destination it bounded could
            /// have been taken. Each case must see both passes skip,
            /// destinations priced, full-grid and coarse-to-fine
            /// destinations, tenants moved and probe rows evicted.
            #[test]
            fn bounded_choice_matches_the_unbounded_loop(
                fleets in proptest::collection::vec(fleet_draw(), 8),
            ) {
                let mut seen = Coverage::default();
                for (machines, events, options) in &fleets {
                    check_fleet(machines, events, *options, &mut seen);
                }
                prop_assert!(seen.first > 0, "{seen:?}");
                prop_assert!(seen.second > 0, "{seen:?}");
                prop_assert!(seen.priced > 0, "{seen:?}");
                prop_assert!(seen.tight > 0 && seen.loose > 0, "{seen:?}");
                prop_assert!(seen.moves > 0 && seen.evictions > 0, "{seen:?}");
            }
        }
    }
}
