//! Adaptive cost-model tuning under drifting actuals.
//!
//! The `BENCH_adaptive.json` scenario: a small heterogeneous fleet
//! where every machine hosts two DSS tenants (Db2Sim — the optimizer
//! prices these well) and one TPC-C tenant (PgSim — the optimizer's
//! §7.8 blind spot: lock contention and update costs are unmodeled,
//! so actuals run far above estimates). A **drift phase** replaces
//! every OLTP workload with a heavier-contention variant, widening the
//! estimate/actual gap; an **adaptation phase** then feeds
//! [`FleetEvent::ActualsReported`] events until every hardware class's
//! candidate correction has walked the full
//! Shadow → Canary → Promoted guardrail lifecycle.
//!
//! Two legs over the *same recorded event stream*:
//!
//! * **frozen** — [`ControlPlaneOptions::adaptive`] off: actuals
//!   reports are no-ops and the construction-time calibration prices
//!   every decision forever;
//! * **adaptive** — residuals accumulate per (hardware class, engine),
//!   refits propose corrections, and the guardrail promotes them.
//!
//! Gated contracts (`check_bench` against the committed baseline):
//! every class promotes (`all_promoted`); the adapted leg's final
//! placements cost strictly fewer *actual* seconds than the frozen
//! leg's (`adaptive_improves` — better predictions move the greedy
//! optimum toward the true optimum); and the adapted models' mean
//! relative prediction error is strictly lower (`reduces_error`).
//! Optimizer-call totals and lifecycle tallies are deterministic and
//! gated; wall times are recorded but ignored.
//!
//! # The rollback section
//!
//! A second, single-class fleet runs the same recipe with a guardrail
//! whose objective-regression budget is deliberately unsatisfiable
//! (−1.0): the candidate passes shadow, deploys on its canary subset —
//! visibly steering that machine's decisions away from the baseline —
//! and is then rolled back at the canary verdict. Gated contracts: the
//! canary acted (`canary_deployed`, `diverged_during_canary`), the
//! verdict rolled it back without ever promoting (`rolled_back`,
//! `never_promoted`), and the post-rollback fleet state — placements,
//! objective bits, and every installed calibration fingerprint — is
//! identical to a plane that ran the same stream with adaptation off
//! (`state_restored`).
//!
//! Tenant workloads carry per-global-index intensity salts (same trick
//! as `fleetbench`): fleet-unique workload fingerprints keep
//! probe-cache counters and optimizer-call totals identical across
//! `RAYON_NUM_THREADS` settings, so both CI matrix legs diff against
//! the same baseline.

use crate::harness::{fmt_f, fmt_pct, Report, Table};
use crate::setups::{self, EngineChoice};
use std::time::Instant;
use vda_core::problem::{QoS, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::VirtualizationDesignAdvisor;
use vda_core::{
    AdaptionOptions, AdaptiveTuningOptions, ControlPlane, ControlPlaneOptions, FleetEvent,
    GuardrailOptions,
};
use vda_simdb::engines::EngineKind;
use vda_vmm::{Hypervisor, PhysicalMachine};

/// Scenario dimensions. [`FULL`] is the committed `BENCH_adaptive.json`
/// scale; unit tests use a miniature with the same recipe.
#[derive(Debug, Clone, Copy)]
pub struct AdaptScale {
    /// Machines in the improvement fleet (a multiple of
    /// `GHZ_STEPS.len()`, so every hardware class is populated).
    pub machines: usize,
    /// Machines in the single-class rollback fleet.
    pub rollback_machines: usize,
    /// DSS tenants per machine (the OLTP tenant sits in the next slot).
    pub dss_per_machine: usize,
    /// TPC-C clients per warehouse after the drift phase (construction
    /// uses `BASE_CLIENTS`).
    pub drift_clients: u32,
    /// Fuel for the adaptation phase, in whole fleet rounds.
    pub max_rounds: usize,
}

/// The committed-baseline scale: 12 machines over two hardware
/// classes, 36 tenants (12 of them TPC-C).
pub const FULL: AdaptScale = AdaptScale {
    machines: 12,
    rollback_machines: 3,
    dss_per_machine: 2,
    drift_clients: 10,
    max_rounds: 24,
};

/// Per-core clock multipliers defining the improvement fleet's
/// hardware classes (machine `m` is `paper_testbed` with `core_ghz`
/// scaled by entry `m % 2`). Adaptions are tracked per class, so the
/// scenario exercises two independent guardrail lifecycles.
const GHZ_STEPS: [f64; 2] = [1.0, 1.5];

/// DSS queries cycled across the Db2 slots.
const DSS_MIX: [(usize, f64); 4] = [(18, 2.0), (6, 3.0), (21, 1.0), (7, 2.0)];

/// TPC-C warehouses accessed by every OLTP tenant.
const WAREHOUSES: u32 = 2;

/// Clients per warehouse at construction — light contention, so the
/// drift to [`AdaptScale::drift_clients`] visibly widens the
/// estimate/actual gap.
const BASE_CLIENTS: u32 = 2;

/// Control-plane knobs shared by every leg. The migration threshold is
/// prohibitive: with the topology pinned, the rollback leg's
/// state-equality contract compares like with like, and the
/// improvement leg isolates the effect of *allocations* (not tenant
/// moves) on actual cost.
fn options(adaptive: Option<AdaptiveTuningOptions>) -> ControlPlaneOptions {
    ControlPlaneOptions {
        migration_threshold: 0.5,
        recalibration_surcharge: 1e-3,
        incremental: true,
        adaptive,
        ..ControlPlaneOptions::default()
    }
}

/// Guardrail + refit knobs. The objective-regression budget is the
/// fork between the two sections: correcting a systematic
/// *under*estimate legitimately raises the predicted fleet objective
/// (nothing real got worse — the lie got smaller), so the promotable
/// leg budgets generously; the rollback leg's −1.0 can never be
/// satisfied, forcing the canary verdict to fail.
fn tuning(promotable: bool) -> AdaptiveTuningOptions {
    AdaptiveTuningOptions {
        // The residual store keeps one row per (tenant, allocation),
        // so a class can hold at most as many distinct rows as it has
        // reporting tenants — the refit floor must fit the smallest
        // class (two OLTP tenants in the unit-test miniature).
        adaption: AdaptionOptions {
            min_samples: 2,
            ..AdaptionOptions::default()
        },
        guardrail: GuardrailOptions {
            min_shadow_samples: 4,
            min_canary_samples: 2,
            max_error_inflation: 0.5,
            max_objective_regression: if promotable { 10.0 } else { -1.0 },
        },
    }
}

/// Build one leg's fleet: `machines` machines over `classes` hardware
/// classes, each hosting `dss_per_machine` Db2 DSS tenants plus one
/// Pg TPC-C tenant in the last slot. Intensity salts are per global
/// tenant index, so workload fingerprints are fleet-unique.
fn fleet(
    machines: usize,
    classes: usize,
    scale: &AdaptScale,
) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let dss_engine = EngineChoice::Db2.engine();
    let oltp_engine = EngineChoice::Pg.engine();
    let dss_cat = setups::sf(1.0);
    let oltp_cat = vda_workloads::tpcc::catalog(WAREHOUSES);
    let slots = scale.dss_per_machine + 1;
    let mut advisors = Vec::with_capacity(machines);
    for m in 0..machines {
        let mut spec = PhysicalMachine::paper_testbed();
        spec.core_ghz *= GHZ_STEPS[m % classes];
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        for s in 0..scale.dss_per_machine {
            let (q, base) = DSS_MIX[(m + s) % DSS_MIX.len()];
            let g = m * slots + s;
            let name = format!("M{m}-S{s}-Q{q}");
            let w = vda_workloads::tpch::query_workload(q, base * (1.0 + 0.001 * g as f64))
                .named(name.clone());
            adv.add_tenant(
                Tenant::new(name, dss_engine.clone(), dss_cat.clone(), w)
                    .expect("bench workloads bind"),
                QoS::default(),
            );
        }
        let g = m * slots + scale.dss_per_machine;
        let w = vda_workloads::tpcc::workload(
            WAREHOUSES,
            BASE_CLIENTS,
            setups::TPCC_TXNS_PER_CLIENT * (1.0 + 0.001 * g as f64),
        )
        .named(format!("M{m}-oltp"));
        adv.add_tenant(
            Tenant::new(
                format!("M{m}-oltp"),
                oltp_engine.clone(),
                oltp_cat.clone(),
                w,
            )
            .expect("bench workloads bind"),
            QoS::default(),
        );
        advisors.push(adv);
    }
    let space = SearchSpace::cpu_only(setups::FIXED_512MB_SHARE);
    (advisors, vec![space; machines])
}

/// The drift event for machine `m`: its OLTP tenant's workload is
/// replaced by a heavier-contention variant (same warehouses, more
/// clients — lock-contention CPU grows with concurrency, and the
/// optimizer prices none of it). The intensity salt keeps the drifted
/// fingerprints fleet-unique and disjoint from every construction
/// salt (different client count, different transaction total).
fn drift_event(m: usize, scale: &AdaptScale) -> FleetEvent {
    let slots = scale.dss_per_machine + 1;
    let g = m * slots + scale.dss_per_machine;
    let workload = vda_workloads::tpcc::workload(
        WAREHOUSES,
        scale.drift_clients,
        setups::TPCC_TXNS_PER_CLIENT * (1.0 + 0.001 * g as f64),
    )
    .named(format!("M{m}-oltp-drift"));
    FleetEvent::WorkloadChanged {
        machine: m,
        slot: scale.dss_per_machine,
        workload,
    }
}

/// Total *actual* seconds of the fleet at its current placements — the
/// decision-quality metric both legs are judged on.
fn actual_total(plane: &ControlPlane) -> f64 {
    (0..plane.machine_count())
        .map(|m| {
            let result = plane.placements()[m]
                .as_ref()
                .expect("every bench machine is placed");
            plane.machine(m).total_actual(&result.allocations)
        })
        .sum()
}

/// Mean relative prediction error of the *installed* models over every
/// tenant at its placed allocation: `mean(|predicted − actual| /
/// actual)`. Frozen legs price with the construction calibration;
/// adapted legs with whatever the guardrail promoted.
fn fleet_mape(plane: &ControlPlane) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for m in 0..plane.machine_count() {
        let adv = plane.machine(m);
        let result = plane.placements()[m]
            .as_ref()
            .expect("every bench machine is placed");
        for (i, alloc) in result.allocations.iter().enumerate() {
            let predicted = adv.estimator(i).estimate(*alloc).seconds;
            let actual = adv.actual_cost(i, *alloc);
            if actual > 0.0 {
                sum += (predicted - actual).abs() / actual;
                n += 1;
            }
        }
    }
    sum / n.max(1) as f64
}

/// Per-machine installed-calibration fingerprints, per engine kind —
/// the rollback leg's state-equality certificate.
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

/// Guardrail verdict counts parsed out of actuals-reported decision
/// actions (`"actuals-reported m3 t2 (promoted)"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleTallies {
    /// Reports priced in shadow (no effect on decisions).
    pub shadows: u64,
    /// Canary deployments (candidate installed on the canary subset).
    pub canaries: u64,
    /// Fleet-wide promotions.
    pub promotions: u64,
    /// Rollbacks (shadow rejections and failed canary verdicts).
    pub rollbacks: u64,
}

impl LifecycleTallies {
    fn count(&mut self, action: &str) {
        if action.ends_with("(shadow)") {
            self.shadows += 1;
        } else if action.ends_with("(canary)") {
            self.canaries += 1;
        } else if action.ends_with("(promoted)") {
            self.promotions += 1;
        } else if action.ends_with("(rolled-back)") {
            self.rollbacks += 1;
        }
    }
}

/// The improvement measurement (root fields of `BENCH_adaptive.json`).
#[derive(Debug, Clone)]
pub struct ImproveBench {
    /// The dimensions measured.
    pub scale: AdaptScale,
    /// Hardware classes (independent adaption scopes).
    pub classes: usize,
    /// Drift-phase events.
    pub drift_events: u64,
    /// Adaptation-phase `ActualsReported` events.
    pub actuals_events: u64,
    /// Whole fleet rounds the adaptation phase used.
    pub rounds_used: u64,
    /// Optimizer calls standing one leg's plane up (the fleets are
    /// clones, so this is identical across legs).
    pub construction_calls: u64,
    /// Event-phase optimizer calls, adaptive leg.
    pub event_calls_adaptive: u64,
    /// Event-phase optimizer calls, frozen leg.
    pub event_calls_frozen: u64,
    /// Guardrail lifecycle tallies (adaptive leg).
    pub tallies: LifecycleTallies,
    /// Final *predicted* fleet objective, frozen leg (`{:.9}`-gated).
    pub frozen_objective: f64,
    /// Final predicted fleet objective, adaptive leg. Higher than the
    /// frozen leg's — the promoted corrections stop underpricing OLTP.
    pub adaptive_objective: f64,
    /// Total actual seconds at the frozen leg's final placements.
    pub frozen_actual_seconds: f64,
    /// Total actual seconds at the adaptive leg's final placements.
    pub adaptive_actual_seconds: f64,
    /// Mean relative prediction error, frozen leg.
    pub frozen_mape: f64,
    /// Mean relative prediction error, adaptive leg.
    pub adaptive_mape: f64,
    /// Every hardware class promoted its candidate.
    pub all_promoted: bool,
    /// Wall time of the adaptive leg (construction + events).
    pub adaptive_wall_ms: f64,
    /// Wall time of the frozen leg.
    pub frozen_wall_ms: f64,
}

impl ImproveBench {
    /// Fraction of actual seconds the adapted decisions saved.
    pub fn actual_improvement(&self) -> f64 {
        (self.frozen_actual_seconds - self.adaptive_actual_seconds) / self.frozen_actual_seconds
    }

    /// The headline contract: adapted decisions cost strictly fewer
    /// actual seconds than frozen-calibration decisions.
    pub fn adaptive_improves(&self) -> bool {
        self.adaptive_actual_seconds < self.frozen_actual_seconds
    }

    /// The promoted models predict strictly better than the frozen
    /// calibration.
    pub fn reduces_error(&self) -> bool {
        self.adaptive_mape < self.frozen_mape
    }
}

/// The rollback measurement (the `"rollback"` section).
#[derive(Debug, Clone)]
pub struct RollbackBench {
    /// Machines in the single-class rollback fleet.
    pub machines: usize,
    /// Events driven (drift + actuals, identical on both planes).
    pub events: u64,
    /// The candidate reached canary (it acted on real decisions).
    pub canary_deployed: bool,
    /// While the canary was live, the plane's objective diverged from
    /// the never-canaried baseline's.
    pub diverged_during_canary: bool,
    /// The canary verdict rolled the candidate back.
    pub rolled_back: bool,
    /// No candidate was ever promoted.
    pub never_promoted: bool,
    /// Post-rollback placements, objective bits, and every installed
    /// calibration fingerprint equal the never-canaried baseline's.
    pub state_restored: bool,
    /// Final fleet objective (both planes; `{:.9}`-gated).
    pub final_objective: f64,
    /// Wall time of the paired run.
    pub rollback_wall_ms: f64,
}

/// Run the improvement legs at the given scale.
pub fn measure_improvement(scale: AdaptScale) -> ImproveBench {
    let classes = GHZ_STEPS.len();
    assert!(
        scale.machines.is_multiple_of(classes),
        "every hardware class must be populated"
    );

    // Adaptive leg drives the stream: drift everything, then report
    // actuals round-robin until every class's candidate promoted.
    let (machines, spaces) = fleet(scale.machines, classes, &scale);
    let t0 = Instant::now();
    let mut adaptive = ControlPlane::new(machines, spaces, options(Some(tuning(true))));
    let construction_calls = adaptive.stats().optimizer_calls;
    let mut events: Vec<FleetEvent> = Vec::new();
    for m in 0..scale.machines {
        events.push(drift_event(m, &scale));
    }
    let mut outcomes = Vec::with_capacity(events.len());
    for ev in &events {
        outcomes.push(adaptive.process_event(ev.clone()));
    }

    let mut tallies = LifecycleTallies::default();
    let mut promoted = vec![false; classes];
    let mut rounds_used = 0u64;
    let mut actuals_events = 0u64;
    for _ in 0..scale.max_rounds {
        if promoted.iter().all(|p| *p) {
            break;
        }
        rounds_used += 1;
        for m in 0..scale.machines {
            if promoted[m % classes] {
                continue;
            }
            let ev = FleetEvent::ActualsReported {
                machine: m,
                slot: scale.dss_per_machine,
            };
            events.push(ev.clone());
            let out = adaptive.process_event(ev);
            actuals_events += 1;
            tallies.count(&out.action);
            if out.action.ends_with("(promoted)") {
                promoted[m % classes] = true;
            }
            outcomes.push(out);
        }
    }
    let adaptive_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let all_promoted = promoted.iter().all(|p| *p);
    let event_calls_adaptive: u64 = outcomes.iter().map(|o| o.optimizer_calls).sum();
    let adaptive_objective = adaptive.objective();
    let adaptive_actual_seconds = actual_total(&adaptive);
    let adaptive_mape = fleet_mape(&adaptive);
    drop(adaptive);

    // Frozen leg replays the recorded stream with adaptation off:
    // every actuals report is a no-op and the construction calibration
    // prices every decision.
    let (machines, spaces) = fleet(scale.machines, classes, &scale);
    let t0 = Instant::now();
    let mut frozen = ControlPlane::new(machines, spaces, options(None));
    let mut event_calls_frozen = 0u64;
    for ev in &events {
        event_calls_frozen += frozen.process_event(ev.clone()).optimizer_calls;
    }
    let frozen_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    ImproveBench {
        scale,
        classes,
        drift_events: scale.machines as u64,
        actuals_events,
        rounds_used,
        construction_calls,
        event_calls_adaptive,
        event_calls_frozen,
        tallies,
        frozen_objective: frozen.objective(),
        adaptive_objective,
        frozen_actual_seconds: actual_total(&frozen),
        adaptive_actual_seconds,
        frozen_mape: fleet_mape(&frozen),
        adaptive_mape,
        all_promoted,
        adaptive_wall_ms,
        frozen_wall_ms,
    }
}

/// Run the rollback section: a guardrail that cannot pass its canary
/// verdict, driven in lockstep with a never-canaried baseline.
pub fn measure_rollback(scale: AdaptScale) -> RollbackBench {
    let t0 = Instant::now();
    let (machines, spaces) = fleet(scale.rollback_machines, 1, &scale);
    let mut plane = ControlPlane::new(machines, spaces, options(Some(tuning(false))));
    let (machines, spaces) = fleet(scale.rollback_machines, 1, &scale);
    let mut baseline = ControlPlane::new(machines, spaces, options(None));

    let mut events = 0u64;
    let mut canary_deployed = false;
    let mut diverged_during_canary = false;
    let mut rolled_back = false;
    let mut never_promoted = true;
    let mut step = |plane: &mut ControlPlane, baseline: &mut ControlPlane, ev: FleetEvent| {
        let out = plane.process_event(ev.clone());
        let base = baseline.process_event(ev);
        events += 1;
        canary_deployed |= out.action.ends_with("(canary)");
        diverged_during_canary |= out.objective.to_bits() != base.objective.to_bits();
        rolled_back |= out.action.ends_with("(rolled-back)");
        never_promoted &= !out.action.ends_with("(promoted)");
        rolled_back
    };

    for m in 0..scale.rollback_machines {
        step(&mut plane, &mut baseline, drift_event(m, &scale));
    }
    'rounds: for _ in 0..scale.max_rounds {
        for m in 0..scale.rollback_machines {
            let ev = FleetEvent::ActualsReported {
                machine: m,
                slot: scale.dss_per_machine,
            };
            if step(&mut plane, &mut baseline, ev) {
                break 'rounds;
            }
        }
    }

    let state_restored = plane.placements() == baseline.placements()
        && plane.objective().to_bits() == baseline.objective().to_bits()
        && calibration_fingerprints(&plane) == calibration_fingerprints(&baseline)
        && plane.tuners().is_empty();

    RollbackBench {
        machines: scale.rollback_machines,
        events,
        canary_deployed,
        diverged_during_canary,
        rolled_back,
        never_promoted,
        state_restored,
        final_objective: plane.objective(),
        rollback_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run both sections at the given scale.
pub fn measure_with(scale: AdaptScale) -> (ImproveBench, RollbackBench) {
    (measure_improvement(scale), measure_rollback(scale))
}

/// Run the committed-baseline scale.
pub fn measure() -> (ImproveBench, RollbackBench) {
    measure_with(FULL)
}

/// Measure at full scale and render as a report.
pub fn run() -> Report {
    let (m, r) = measure();
    run_from(&m, &r)
}

/// Render existing measurements as a report.
pub fn run_from(m: &ImproveBench, r: &RollbackBench) -> Report {
    let mut report = Report::new(
        "adaptbench",
        "Adaptive calibration under OLTP contention drift: frozen vs guardrail-promoted models",
    );
    let mut table = Table::new(vec!["leg", "actual seconds", "MAPE", "predicted objective"]);
    table.row(vec![
        "frozen".to_string(),
        fmt_f(m.frozen_actual_seconds, 3),
        fmt_f(m.frozen_mape, 4),
        fmt_f(m.frozen_objective, 3),
    ]);
    table.row(vec![
        "adaptive".to_string(),
        fmt_f(m.adaptive_actual_seconds, 3),
        fmt_f(m.adaptive_mape, 4),
        fmt_f(m.adaptive_objective, 3),
    ]);
    report.section("frozen vs adaptive decision quality", table);

    let mut counters = Table::new(vec!["counter", "value"]);
    counters.row(vec!["drift events".to_string(), m.drift_events.to_string()]);
    counters.row(vec![
        "actuals events".to_string(),
        m.actuals_events.to_string(),
    ]);
    counters.row(vec!["rounds".to_string(), m.rounds_used.to_string()]);
    counters.row(vec![
        "shadow reports".to_string(),
        m.tallies.shadows.to_string(),
    ]);
    counters.row(vec![
        "canary deployments".to_string(),
        m.tallies.canaries.to_string(),
    ]);
    counters.row(vec![
        "promotions".to_string(),
        m.tallies.promotions.to_string(),
    ]);
    counters.row(vec![
        "rollbacks".to_string(),
        m.tallies.rollbacks.to_string(),
    ]);
    report.section("guardrail lifecycle", counters);

    let mut rb = Table::new(vec!["contract", "holds"]);
    rb.row(vec![
        "canary deployed".to_string(),
        r.canary_deployed.to_string(),
    ]);
    rb.row(vec![
        "diverged during canary".to_string(),
        r.diverged_during_canary.to_string(),
    ]);
    rb.row(vec!["rolled back".to_string(), r.rolled_back.to_string()]);
    rb.row(vec![
        "never promoted".to_string(),
        r.never_promoted.to_string(),
    ]);
    rb.row(vec![
        "state restored".to_string(),
        r.state_restored.to_string(),
    ]);
    report.section("rollback section (unsatisfiable canary gate)", rb);

    report.note(format!(
        "adapted decisions save {} actual seconds ({}); prediction error {} → {}; all classes promoted: {}",
        fmt_f(m.frozen_actual_seconds - m.adaptive_actual_seconds, 3),
        fmt_pct(m.actual_improvement()),
        fmt_f(m.frozen_mape, 4),
        fmt_f(m.adaptive_mape, 4),
        m.all_promoted
    ));
    report.note(format!(
        "mispredicting canary rolled back bit-identically to the never-canaried baseline: {}",
        r.state_restored
    ));
    report
}

/// Serialize both sections as the `BENCH_adaptive.json` artifact.
/// Everything except the `*_wall_ms` fields is deterministic and
/// gated by `check_bench`.
pub fn to_json(m: &ImproveBench, r: &RollbackBench) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"adaptbench\",\n",
            "  \"machines\": {},\n",
            "  \"tenants\": {},\n",
            "  \"hardware_classes\": {},\n",
            "  \"oltp_tenants\": {},\n",
            "  \"space\": \"cpu_only_512mb\",\n",
            "  \"drift_clients\": {},\n",
            "  \"drift_events\": {},\n",
            "  \"actuals_events\": {},\n",
            "  \"adaptation_rounds\": {},\n",
            "  \"adaptive_wall_ms\": {:.3},\n",
            "  \"frozen_wall_ms\": {:.3},\n",
            "  \"construction_optimizer_calls\": {},\n",
            "  \"event_optimizer_calls_adaptive\": {},\n",
            "  \"event_optimizer_calls_frozen\": {},\n",
            "  \"shadow_reports\": {},\n",
            "  \"canary_deployments\": {},\n",
            "  \"promotions\": {},\n",
            "  \"rollbacks\": {},\n",
            "  \"frozen_objective\": {:.9},\n",
            "  \"adaptive_objective\": {:.9},\n",
            "  \"frozen_actual_seconds\": {:.9},\n",
            "  \"adaptive_actual_seconds\": {:.9},\n",
            "  \"actual_improvement\": {:.6},\n",
            "  \"frozen_mape\": {:.6},\n",
            "  \"adaptive_mape\": {:.6},\n",
            "  \"all_promoted\": {},\n",
            "  \"adaptive_improves\": {},\n",
            "  \"reduces_error\": {},\n",
            "  \"rollback\": {{\n",
            "    \"machines\": {},\n",
            "    \"events\": {},\n",
            "    \"rollback_wall_ms\": {:.3},\n",
            "    \"canary_deployed\": {},\n",
            "    \"diverged_during_canary\": {},\n",
            "    \"rolled_back\": {},\n",
            "    \"never_promoted\": {},\n",
            "    \"state_restored\": {},\n",
            "    \"final_objective\": {:.9}\n",
            "  }}\n",
            "}}\n"
        ),
        m.scale.machines,
        m.scale.machines * (m.scale.dss_per_machine + 1),
        m.classes,
        m.scale.machines,
        m.scale.drift_clients,
        m.drift_events,
        m.actuals_events,
        m.rounds_used,
        m.adaptive_wall_ms,
        m.frozen_wall_ms,
        m.construction_calls,
        m.event_calls_adaptive,
        m.event_calls_frozen,
        m.tallies.shadows,
        m.tallies.canaries,
        m.tallies.promotions,
        m.tallies.rollbacks,
        m.frozen_objective,
        m.adaptive_objective,
        m.frozen_actual_seconds,
        m.adaptive_actual_seconds,
        m.actual_improvement(),
        m.frozen_mape,
        m.adaptive_mape,
        m.all_promoted,
        m.adaptive_improves(),
        m.reduces_error(),
        r.machines,
        r.events,
        r.rollback_wall_ms,
        r.canary_deployed,
        r.diverged_during_canary,
        r.rolled_back,
        r.never_promoted,
        r.state_restored,
        r.final_objective,
    )
}

/// Measure at full scale and write `BENCH_adaptive.json` to `path`.
pub fn write_json(path: &str) -> std::io::Result<(ImproveBench, RollbackBench)> {
    let (m, r) = measure();
    std::fs::write(path, to_json(&m, &r))?;
    Ok((m, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature scale: one machine pair per class, two rollback
    /// machines, same recipe as [`FULL`] at unit-test cost.
    const TINY: AdaptScale = AdaptScale {
        machines: 4,
        rollback_machines: 2,
        dss_per_machine: 2,
        drift_clients: 10,
        max_rounds: 24,
    };

    #[test]
    fn tiny_adaptive_scenario_holds_every_contract() {
        let (m, r) = measure_with(TINY);
        assert!(m.all_promoted, "every class must promote: {:?}", m.tallies);
        assert_eq!(m.tallies.promotions as usize, m.classes);
        assert!(
            m.adaptive_improves(),
            "adapted decisions must cost fewer actual seconds: adaptive {} vs frozen {}",
            m.adaptive_actual_seconds,
            m.frozen_actual_seconds
        );
        assert!(
            m.reduces_error(),
            "promoted models must predict better: adaptive {} vs frozen {}",
            m.adaptive_mape,
            m.frozen_mape
        );
        assert!(
            m.adaptive_objective > m.frozen_objective,
            "correcting an underestimate must raise the predicted objective"
        );
        assert!(m.tallies.canaries >= m.classes as u64);

        assert!(r.canary_deployed, "the rollback candidate must act");
        assert!(r.diverged_during_canary, "the canary must steer decisions");
        assert!(r.rolled_back && r.never_promoted);
        assert!(
            r.state_restored,
            "rollback must restore the never-canaried baseline exactly"
        );

        let json = to_json(&m, &r);
        assert!(json.contains("\"experiment\": \"adaptbench\""));
        assert!(json.contains("\"adaptive_improves\": true"));
        assert!(json.contains("\"reduces_error\": true"));
        assert!(json.contains("\"state_restored\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn tenant_fingerprints_are_fleet_unique() {
        // Thread-count determinism of the gated counters rests on
        // fleet-unique workload fingerprints (probe-cache rows are
        // then never contended across concurrently solving machines).
        let (machines, _) = fleet(TINY.machines, GHZ_STEPS.len(), &TINY);
        let mut fps: Vec<u64> = machines
            .iter()
            .flat_map(|adv| (0..adv.tenant_count()).map(|i| adv.tenant(i).fingerprint()))
            .collect();
        // Drifted workloads must not collide with construction salts
        // (tenant fingerprints hash engine + catalog + statements, so
        // wrapping the drifted workload in an equivalent tenant makes
        // the fingerprints comparable).
        let oltp_engine = EngineChoice::Pg.engine();
        let oltp_cat = vda_workloads::tpcc::catalog(WAREHOUSES);
        for m in 0..TINY.machines {
            let FleetEvent::WorkloadChanged { workload, .. } = drift_event(m, &TINY) else {
                unreachable!("drift events replace workloads");
            };
            let drifted = Tenant::new(
                format!("drift{m}"),
                oltp_engine.clone(),
                oltp_cat.clone(),
                workload,
            )
            .expect("bench workloads bind");
            fps.push(drifted.fingerprint());
        }
        let total = fps.len();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), total, "duplicate workload fingerprints");
    }
}
