//! One run: set up, drive the closed loop, checkpoint and restart,
//! check the outputs, and derive the metrics.
//!
//! The loop is closed with one caller: each decision is generated only
//! after the previous one returned, because event indices refer to the
//! fleet numbering the previous decision left behind.

use crate::fleet::{self, EventGen, Inputs, Workload};
use crate::probes;
use crate::procfs::{self, CpuTimes};
use crate::trace::{self, Tracer};
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vda_core::costmodel::WhatIfEstimator;
use vda_core::metrics::{percentile, Clock};
use vda_core::problem::{QoS, Resource, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::{
    try_coarse_to_fine_search_with, CoarseToFineOptions, ControlPlane, FleetEvent, FleetSnapshot,
    SearchOptions, VirtualizationDesignAdvisor,
};
use vda_vmm::{Hypervisor, PhysicalMachine};

/// `ControlPlane::new` runs this many times per run; `setup_s` is the
/// median, so one slow construction does not move it.
const SETUPS: usize = 3;

/// Cold re-solve checks of one just-resolved machine per run, spread
/// evenly over the event phase.
const CHECKS: usize = 20;

/// Machines cold re-solved after the last decision.
const FINAL_CHECKS: usize = 4;

/// What one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The span document of a traced run.
    pub trace: Option<String>,
}

/// One decision as the benchmark sees it.
struct Decided {
    objective: f64,
    resolved: Vec<usize>,
    candidates: u64,
}

/// Migration candidates a decision priced: arrivals plus slots
/// classified major, read from its action string, e.g.
/// `"batch n25 (changed 6, scaled 19; 3 major, 10 coalesced)"` or
/// `"workload-changed m12 t3 (major)"`.
fn candidates_in(action: &str) -> u64 {
    let number_before = |part: &str, suffix: &str| -> u64 {
        part.strip_suffix(suffix)
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or(0)
    };
    match action
        .strip_prefix("batch ")
        .and_then(|rest| rest.split_once(" ("))
    {
        Some((_, body)) => {
            let (kinds, classes) = body.split_once("; ").unwrap_or((body, ""));
            let arrived: u64 = kinds
                .split(", ")
                .filter_map(|k| k.strip_prefix("arrived "))
                .filter_map(|n| n.parse::<u64>().ok())
                .sum();
            let major: u64 = classes
                .split(", ")
                .map(|c| number_before(c, " major"))
                .sum();
            arrived + major
        }
        None => u64::from(action.starts_with("tenant-arrived") || action.ends_with("(major)")),
    }
}

fn decide(plane: &mut ControlPlane, events: Vec<FleetEvent>) -> Decided {
    if events.len() == 1 {
        let event = events.into_iter().next().expect("one event");
        let o = plane.process_event(event);
        Decided {
            objective: o.objective,
            resolved: o.resolved,
            candidates: candidates_in(&o.action),
        }
    } else {
        let o = plane.process_batch(&events);
        Decided {
            objective: o.objective,
            resolved: o.resolved,
            candidates: candidates_in(&o.action),
        }
    }
}

/// The sum of the placement costs, in machine order (the order
/// `ControlPlane::objective` promises to sum in).
fn placement_total(plane: &ControlPlane) -> f64 {
    plane
        .placements()
        .iter()
        .flatten()
        .map(|r| r.weighted_cost)
        .sum()
}

/// A cold coarse-to-fine solve of machine `m` with uncached estimators
/// must reproduce the plane's allocations and weighted cost bit for bit.
fn cold_solve_matches(plane: &ControlPlane, m: usize) -> bool {
    let adv = plane.machine(m);
    let n = adv.tenant_count();
    let placed = &plane.placements()[m];
    if n == 0 {
        return placed.is_none();
    }
    let Some(placed) = placed else {
        return false;
    };
    let estimators: Vec<WhatIfEstimator<'_>> = (0..n)
        .map(|i| WhatIfEstimator::without_cache(adv.tenant(i), adv.model(i)))
        .collect();
    let space = plane.space(m);
    let c2f = CoarseToFineOptions::auto(space, n);
    let Some(cold) = try_coarse_to_fine_search_with(
        space,
        adv.qos(),
        &estimators,
        &c2f,
        &SearchOptions::serial(),
    ) else {
        return false;
    };
    let bits = |a: &[vda_core::Allocation]| -> Vec<u64> {
        a.iter()
            .flat_map(|x| Resource::ALL.map(|r| x.get(r).to_bits()))
            .collect()
    };
    cold.weighted_cost.to_bits() == placed.weighted_cost.to_bits()
        && bits(&cold.allocations) == bits(&placed.allocations)
}

/// What a restarted process rebuilds before `ControlPlane::restore`:
/// per machine, its hardware, search space and `(tenant, qos)` slots.
type Topology = Vec<(PhysicalMachine, SearchSpace, Vec<(Tenant, QoS)>)>;

fn topology_of(plane: &ControlPlane) -> Topology {
    (0..plane.machine_count())
        .map(|m| {
            let adv = plane.machine(m);
            let slots = (0..adv.tenant_count())
                .map(|i| (adv.tenant(i).clone(), adv.qos()[i]))
                .collect();
            (*adv.hypervisor().machine(), *plane.space(m), slots)
        })
        .collect()
}

fn rebuild(topology: Topology) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    topology
        .into_iter()
        .map(|(spec, space, slots)| {
            let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
            for (tenant, qos) in slots {
                adv.add_tenant(tenant, qos);
            }
            (adv, space)
        })
        .unzip()
}

/// Timings and sizes of checkpoint-and-restart cycles.
#[derive(Default)]
struct Cycles {
    checkpoint_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    bytes: usize,
    probe_rows: usize,
    registry_models: usize,
}

impl Cycles {
    /// One timed checkpoint: `snapshot` → `to_json`.
    fn checkpoint(&mut self, plane: &ControlPlane, tracer: &mut Tracer) -> String {
        let seq = plane.seq();
        let span = tracer.begin("snapshot.capture", seq);
        let snapshot = plane.snapshot();
        let capture_ms = tracer.end(span);
        let span = tracer.begin("jsonio.encode", seq);
        let json = snapshot.to_json();
        let encode_ms = tracer.end(span);
        self.checkpoint_ms.push(capture_ms + encode_ms);
        self.bytes = json.len();
        self.probe_rows = snapshot.probes.len();
        self.registry_models = snapshot.registry.len();
        json
    }

    /// Checkpoint the plane, drop it, and restart from the checkpoint
    /// (`from_json` → topology rebuild → `restore`). The restored plane
    /// is checkpointed again and must produce the same bytes. Returns
    /// the restored plane, with a reason when the bytes differ; an
    /// error when no plane could be restored.
    fn cycle(
        &mut self,
        plane: ControlPlane,
        w: &Workload,
        tracer: &mut Tracer,
    ) -> Result<(ControlPlane, Option<String>), String> {
        let seq = plane.seq();
        let topology = topology_of(&plane);
        let json = self.checkpoint(&plane, tracer);
        drop(plane);

        let (machines, spaces) = rebuild(topology);
        let span = tracer.begin("jsonio.decode", seq);
        let parsed = FleetSnapshot::from_json(&json);
        let decode_ms = tracer.end(span);
        let parsed = parsed.map_err(|e| format!("checkpoint does not parse: {e}"))?;
        let span = tracer.begin("snapshot.install", seq);
        let restored = ControlPlane::restore(machines, spaces, w.options(), &parsed);
        let install_ms = tracer.end(span);
        let restored = restored.map_err(|e| format!("restore rejected: {e}"))?;
        self.restore_ms.push(decode_ms + install_ms);
        drop(parsed);
        let differs = (self.checkpoint(&restored, tracer) != json)
            .then(|| format!("restored plane at seq {seq} re-snapshots differently"));
        Ok((restored, differs))
    }
}

/// Nearest-rank median, the convention of every timing this benchmark
/// reports.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Every cumulative counter the event phase reports deltas of.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    events: u64,
    resolves: u64,
    waves: u64,
    migrations: u64,
    optimizer_calls: u64,
    probe_hits: u64,
    probe_misses: u64,
    probe_evictions: u64,
    cold_solves: u64,
    delta_solves: u64,
    lattice_reuses: u64,
}

impl Counters {
    /// Read at a decision boundary. `stats()` walks the fleet, so it is
    /// read only at phase and restart boundaries, never per decision.
    fn of(plane: &ControlPlane) -> Counters {
        let s = plane.stats();
        let (cold_solves, delta_solves, lattice_reuses) = (0..plane.machine_count())
            .map(|m| plane.machine(m).warm_stats())
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
        Counters {
            events: s.events,
            resolves: s.resolves,
            waves: s.waves,
            migrations: s.migrations,
            optimizer_calls: s.optimizer_calls,
            probe_hits: s.probe_hits,
            probe_misses: s.probe_misses,
            probe_evictions: s.probe_evictions,
            cold_solves,
            delta_solves,
            lattice_reuses,
        }
    }

    /// Add the growth from `start` to `end`. Probe hit, miss and
    /// eviction counters belong to the process and restart at zero in a
    /// restored plane, so a run sums them segment by segment.
    fn add_segment(&mut self, start: &Counters, end: &Counters) {
        self.events += end.events - start.events;
        self.resolves += end.resolves - start.resolves;
        self.waves += end.waves - start.waves;
        self.migrations += end.migrations - start.migrations;
        self.optimizer_calls += end.optimizer_calls - start.optimizer_calls;
        self.probe_hits += end.probe_hits - start.probe_hits;
        self.probe_misses += end.probe_misses - start.probe_misses;
        self.probe_evictions += end.probe_evictions - start.probe_evictions;
        self.cold_solves += end.cold_solves - start.cold_solves;
        self.delta_solves += end.delta_solves - start.delta_solves;
        self.lattice_reuses += end.lattice_reuses - start.lattice_reuses;
    }
}

/// Which decisions failed a check, for `success_ratio`. A failed check
/// covers the decisions it cannot vouch for: an objective check its own
/// decision, a cold re-solve check every decision since the last passing
/// one, a restart check every decision since the previous restart, and
/// a panic every decision not yet processed.
struct Tally {
    failed: Vec<bool>,
    /// Decisions before this index passed a cold re-solve check.
    verified: usize,
    /// Decisions before this index were checkpointed and restored.
    restarted: usize,
}

impl Tally {
    fn fail(&mut self, decisions: std::ops::Range<usize>) {
        self.failed[decisions].iter_mut().for_each(|f| *f = true);
    }

    fn failed_decisions(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }
}

pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let clock = Clock::wall();
    let mut tracer = Tracer::new(clock.clone(), traced);
    let inputs = Inputs::new();
    let mut notes = Vec::new();

    // Set-up: input generation stays outside the span.
    let mut setup_ms = Vec::with_capacity(SETUPS);
    let mut plane = None;
    let mut generate_ms = 0.0;
    for _ in 0..SETUPS {
        drop(plane.take());
        let started = clock.now_ms();
        let (machines, spaces) = fleet::fleet(w, seed, &inputs);
        generate_ms += clock.now_ms() - started;
        let span = tracer.begin("controlplane.construct", 0);
        let built = ControlPlane::new(machines, spaces, w.options());
        setup_ms.push(tracer.end(span));
        plane = Some(built);
    }
    let mut plane = plane.expect("at least one set-up");

    // Event phase.
    let planned = w.decisions(seconds);
    let batch = w.batch() as u64;
    let mut tally = Tally {
        failed: vec![false; planned],
        verified: 0,
        restarted: 0,
    };
    let mut latencies: Vec<f64> = Vec::with_capacity(planned);
    let mut candidates = 0u64;
    let mut gen = EventGen::new(w, seed);
    let mut check_rng = fleet::rng(seed, fleet::CHECK_STREAM);
    let check_every = (planned / CHECKS).max(1);
    // Restarts are spread over the phase, so checkpoint and restore
    // timings sample the whole run rather than one stretch of it.
    let restart_every = (planned / w.restarts).max(1);
    let mut check_ms = 0.0;
    let mut cycles = Cycles::default();
    let mut delta = Counters::default();
    let mut segment = Counters::of(&plane);
    let spans0 = tracer.len();
    let cpu0 = CpuTimes::now()?;
    let wall0 = clock.now_ms();
    let mut stopped = false;
    for d in 0..planned {
        let events = gen.next(&plane, &inputs);
        let n = events.len() as u64;
        let span = tracer.begin("controlplane.decide", plane.seq() + n);
        let decided = catch_unwind(AssertUnwindSafe(|| decide(&mut plane, events)));
        let ms = tracer.end(span);
        let Ok(decided) = decided else {
            // The plane may be half-applied: nothing after this
            // decision is trusted, so every remaining event fails.
            notes.push(format!("decision {d} panicked; the run stopped"));
            tally.fail(d..planned);
            stopped = true;
            break;
        };
        latencies.push(ms);
        candidates += decided.candidates;
        if !decided.objective.is_finite()
            || decided.objective.to_bits() != placement_total(&plane).to_bits()
        {
            notes.push(format!(
                "decision {d}: objective is not the sum of placements"
            ));
            tally.fail(d..d + 1);
        }
        if (d + 1) % check_every == 0 && !decided.resolved.is_empty() {
            let m = decided.resolved[check_rng.random_range(0..decided.resolved.len())];
            let started = clock.now_ms();
            let matches = cold_solve_matches(&plane, m);
            check_ms += clock.now_ms() - started;
            if !matches {
                notes.push(format!(
                    "decision {d}: machine {m} differs from a cold solve"
                ));
                tally.fail(tally.verified..d + 1);
            }
            tally.verified = d + 1;
        }
        if (d + 1) % restart_every == 0 {
            delta.add_segment(&segment, &Counters::of(&plane));
            let (restored, differs) = cycles.cycle(plane, w, &mut tracer)?;
            plane = restored;
            if let Some(why) = differs {
                notes.push(why);
                tally.fail(tally.restarted..d + 1);
            }
            tally.restarted = d + 1;
            segment = Counters::of(&plane);
        }
    }
    let event_wall_ms = clock.now_ms() - wall0;
    let cpu = CpuTimes::now()?.since(cpu0);
    delta.add_segment(&segment, &Counters::of(&plane));
    let event_spans = tracer.len() - spans0;
    let final_objective = plane.objective();
    let resident_rows = plane.probe_cache().len();
    let resident_bytes = plane.probe_cache().approx_bytes();

    // Final output check on a seeded sample of machines, skipped on a
    // plane a panic may have left half-applied.
    let started = clock.now_ms();
    if !stopped {
        for _ in 0..FINAL_CHECKS {
            let m = check_rng.random_range(0..plane.machine_count());
            if !cold_solve_matches(&plane, m) {
                notes.push(format!(
                    "final check: machine {m} differs from a cold solve"
                ));
                tally.fail(tally.verified..planned);
            }
        }
    }
    check_ms += clock.now_ms() - started;

    let started = clock.now_ms();
    let events = delta.events.max(1) as f64;
    let decide_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let spans = |name: &str| median(&tracer.durations(name));
    let metrics = if traced {
        let unit = probes::measure(&plane, seed, &clock, delta.probe_misses / planned as u64);
        let span_ms = trace::cost_per_span_ms(&clock, 100_000);
        let lookups = (delta.probe_hits + delta.probe_misses).max(1) as f64;
        let cpu_s = cpu.user_s + cpu.sys_s;
        let c = delta;
        vec![
            (
                "controlplane.construct_ms",
                spans("controlplane.construct"),
                "ms",
            ),
            ("controlplane.decide_ms", spans("controlplane.decide"), "ms"),
            (
                "controlplane.resolves_per_event",
                c.resolves as f64 / events,
                "count",
            ),
            (
                "controlplane.waves_per_event",
                c.waves as f64 / events,
                "count",
            ),
            (
                "controlplane.wave_width",
                c.resolves as f64 / c.waves.max(1) as f64,
                "count",
            ),
            (
                "controlplane.candidates_per_event",
                candidates as f64 / events,
                "count",
            ),
            (
                "controlplane.migrations_per_kevent",
                c.migrations as f64 * 1e3 / events,
                "count",
            ),
            (
                "controlplane.moves_per_candidate",
                c.migrations as f64 / candidates.max(1) as f64,
                "ratio",
            ),
            ("enumerate.cold_solves", c.cold_solves as f64, "count"),
            ("enumerate.delta_solves", c.delta_solves as f64, "count"),
            ("enumerate.lattice_reuses", c.lattice_reuses as f64, "count"),
            (
                "enumerate.warm_ratio",
                1.0 - c.cold_solves as f64 / c.resolves.max(1) as f64,
                "ratio",
            ),
            ("enumerate.solve_ms", unit.solve_ms, "ms"),
            ("enumerate.solve_parallel_ms", unit.solve_parallel_ms, "ms"),
            (
                "whatif.hits_per_event",
                c.probe_hits as f64 / events,
                "count",
            ),
            (
                "whatif.misses_per_event",
                c.probe_misses as f64 / events,
                "count",
            ),
            ("whatif.hit_ratio", c.probe_hits as f64 / lookups, "ratio"),
            ("whatif.resident_rows", resident_rows as f64, "count"),
            ("whatif.resident_mb", resident_bytes as f64 / 1e6, "MB"),
            (
                "whatif.evicted_rows_per_event",
                c.probe_evictions as f64 / events,
                "count",
            ),
            ("whatif.enforce_ms", unit.enforce_ms, "ms"),
            ("whatif.retain_ms", unit.retain_ms, "ms"),
            ("whatif.hit_us", unit.hit_us, "us"),
            ("whatif.miss_us", unit.miss_us, "us"),
            ("calibration.fingerprint_us", unit.fingerprint_us, "us"),
            ("calibration.fit_ms", unit.fit_ms, "ms"),
            (
                "calibration.registry_models",
                cycles.registry_models as f64,
                "count",
            ),
            ("simdb.plan_us", unit.plan_us, "us"),
            ("snapshot.capture_ms", spans("snapshot.capture"), "ms"),
            ("jsonio.encode_ms", spans("jsonio.encode"), "ms"),
            ("jsonio.decode_ms", spans("jsonio.decode"), "ms"),
            ("snapshot.install_ms", spans("snapshot.install"), "ms"),
            ("snapshot.probe_rows", cycles.probe_rows as f64, "count"),
            ("process.cpu_per_wall", cpu_s * 1e3 / event_wall_ms, "ratio"),
            (
                "process.sys_share",
                cpu.sys_s / cpu_s.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            (
                "trace.overhead_pct",
                100.0 * span_ms * event_spans as f64 / (decide_s * 1e3),
                "%",
            ),
        ]
    } else {
        let succeeded = (planned as u64 - tally.failed_decisions()) as f64;
        vec![
            ("setup_s", median(&setup_ms) / 1e3, "s"),
            ("decision_p50_ms", median(&latencies), "ms"),
            ("decision_tail_ms", percentile(&latencies, w.tail_pct), "ms"),
            ("events_per_s", delta.events as f64 / decide_s, "1/s"),
            (
                "optimizer_calls_per_event",
                delta.optimizer_calls as f64 / events,
                "count",
            ),
            ("final_objective", final_objective, "s"),
            ("peak_rss_mb", procfs::peak_rss_mb()?, "MB"),
            ("success_ratio", succeeded / planned as f64, "ratio"),
            ("checkpoint_s", median(&cycles.checkpoint_ms) / 1e3, "s"),
            ("restore_s", median(&cycles.restore_ms) / 1e3, "s"),
            ("checkpoint_mb", cycles.bytes as f64 / 1e6, "MB"),
        ]
    };
    notes.push(format!(
        "{}: {} decisions of {} event(s); decision_tail_ms is p{} of {} samples; {} set-ups, {} checkpoints, {} restores",
        w.name,
        latencies.len(),
        batch,
        w.tail_pct,
        latencies.len(),
        setup_ms.len(),
        cycles.checkpoint_ms.len(),
        cycles.restore_ms.len(),
    ));
    notes.push(format!(
        "phase seconds: generate {:.2}, set-up {:.2}, events {:.2} (deciding {:.2}, checks {:.2}), metrics {:.2}, total {:.2}",
        generate_ms / 1e3,
        setup_ms.iter().sum::<f64>() / 1e3,
        event_wall_ms / 1e3,
        decide_s,
        check_ms / 1e3,
        (clock.now_ms() - started) / 1e3,
        clock.now_ms() / 1e3,
    ));
    Ok(Outcome {
        correct: tally.failed_decisions() == 0,
        attempted: planned as u64 * batch,
        failed: tally.failed_decisions() * batch,
        metrics,
        notes,
        trace: traced.then(|| tracer.to_json()),
    })
}
