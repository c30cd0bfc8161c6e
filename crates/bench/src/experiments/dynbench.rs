//! Steady-state incremental re-optimization (beyond the paper).
//!
//! The paper's §6 manager re-optimizes every monitoring period; at
//! fleet scale the dominant cost is re-running the coarse-to-fine
//! search on machines where little or nothing changed. This scenario
//! runs a 3-machine / 10-tenant fleet for 20 periods with exactly one
//! tenant drifting per period and re-optimizes the fleet every period
//! twice over:
//!
//! * **cold** — the baseline: fresh estimators, full coarse-to-fine
//!   search on every machine every period;
//! * **incremental** — as the control plane does, only the drifted
//!   machine re-solves, through
//!   [`VirtualizationDesignAdvisor::recommend_c2f`] with a fleet-wide
//!   [`ProbeCache`] that serves its unchanged tenants' probes; the
//!   other machines keep their last result.
//!
//! Both legs must agree bit-for-bit on every period's objective,
//! allocations, and limit verdicts on every machine (`results_match`),
//! and the incremental leg must save at least 10× the steady-state
//! optimizer calls (`meets_10x`). [`write_json`] emits the deterministic numbers
//! as `BENCH_dynamic.json`; CI diffs them against the committed
//! baseline and fails on regression.

use crate::harness::{fmt_f, Report, Table};
use crate::setups::{self, cold_estimators, EngineChoice};
use std::time::Instant;
use vda_core::costmodel::ProbeCache;
use vda_core::metrics::CostAccounting;
use vda_core::problem::{QoS, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::{coarse_to_fine_search_with, CoarseToFineOptions, SearchResult};
use vda_core::{SearchOptions, VirtualizationDesignAdvisor};

/// Machines in the fleet.
pub const MACHINES: usize = 3;
/// Tenants across the fleet.
pub const TENANTS: usize = 10;
/// Monitoring periods after the initial solve.
pub const PERIODS: usize = 20;

/// Tenants per machine (sums to [`TENANTS`]).
const SPLIT: [usize; MACHINES] = [4, 3, 3];

/// The placement scenario's mixed-DSS tenant population: CPU-hungry
/// (Q18/Q21) and scan/memory-leaning (Q6/Q7/Q16) workloads.
const MIX: [(usize, f64); TENANTS] = [
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

/// Degradation limit given to each machine's first tenant — loose
/// enough to be met, finite so every machine exercises the limit-aware
/// coarse-to-fine path (coarse feasibility map plus boundary band).
const FIRST_TENANT_LIMIT: f64 = 6.0;

/// One leg's fleet: three identically-built machines.
fn fleet() -> Vec<VirtualizationDesignAdvisor> {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);
    let mut advisors = Vec::with_capacity(MACHINES);
    let mut g = 0;
    for &count in &SPLIT {
        let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
        for slot in 0..count {
            let (q, mult) = MIX[g];
            let w = vda_workloads::tpch::query_workload(q, mult).named(format!("T{g}-Q{q}"));
            let qos = if slot == 0 {
                QoS::with_limit(FIRST_TENANT_LIMIT)
            } else {
                QoS::default()
            };
            adv.add_tenant(
                Tenant::new(format!("T{g}-Q{q}"), engine.clone(), cat.clone(), w)
                    .expect("bench workloads bind"),
                qos,
            );
            g += 1;
        }
        adv.calibrate();
        advisors.push(adv);
    }
    advisors
}

/// Which machine hosts global tenant `g`, and at which slot.
fn host_of(g: usize) -> (usize, usize) {
    let mut offset = 0;
    for (m, &count) in SPLIT.iter().enumerate() {
        if g < offset + count {
            return (m, g - offset);
        }
        offset += count;
    }
    unreachable!("tenant index out of range")
}

/// The drifting tenant and its intensity factor for period `p`
/// (1-based): periods 1–10 scale each tenant up once, periods 11–20
/// scale each back down (×1.25 then ×0.8 restores the original
/// counts).
fn drift_for(p: usize) -> (usize, f64) {
    let g = (p - 1) % TENANTS;
    let factor = if p <= TENANTS { 1.25 } else { 0.8 };
    (g, factor)
}

/// A full cold re-solve of machine `adv`: fresh estimators (no cache
/// carried over from any previous period), full coarse-to-fine
/// search. Returns the result and the optimizer calls it paid.
fn cold_solve(adv: &VirtualizationDesignAdvisor, space: &SearchSpace) -> (SearchResult, u64) {
    let models = cold_estimators(adv);
    let c2f = CoarseToFineOptions::auto(space, models.len());
    let result =
        coarse_to_fine_search_with(space, adv.qos(), &models, &c2f, &SearchOptions::default());
    let calls = CostAccounting::tally(&models).optimizer_calls;
    (result, calls)
}

/// The steady-state measurement, as emitted into `BENCH_dynamic.json`.
#[derive(Debug, Clone)]
pub struct DynamicBench {
    /// Optimizer calls of the initial (period-0) solves, cold leg.
    pub init_cold_calls: u64,
    /// Optimizer calls of the initial solves, incremental leg (its
    /// first solve is cold too — there is nothing to warm-start from).
    pub init_warm_calls: u64,
    /// Per-period optimizer calls over periods 1..=[`PERIODS`], cold leg.
    pub cold_calls_per_period: Vec<u64>,
    /// Per-period optimizer calls, incremental leg.
    pub warm_calls_per_period: Vec<u64>,
    /// Solves summed over the incremental leg's machines: one per
    /// machine to start, then the drifted machine each period.
    pub cold_solves: u64,
    /// Incremental-leg accounting: steady-state optimizer calls plus
    /// the fleet probe cache's cross-period hit/miss counters.
    pub accounting: CostAccounting,
    /// Whether every period's incremental result matched the cold one
    /// bit-for-bit (objective, allocations, limit verdicts).
    pub results_match: bool,
    /// Per-machine weighted cost after the final period (`{:.9}`-gated).
    pub final_objectives: Vec<f64>,
    /// Wall time of the cold leg, milliseconds.
    pub cold_wall_ms: f64,
    /// Wall time of the incremental leg, milliseconds.
    pub warm_wall_ms: f64,
}

impl DynamicBench {
    /// Total steady-state optimizer calls, cold leg.
    pub fn steady_cold_calls(&self) -> u64 {
        self.cold_calls_per_period.iter().sum()
    }

    /// Total steady-state optimizer calls, incremental leg.
    pub fn steady_warm_calls(&self) -> u64 {
        self.warm_calls_per_period.iter().sum()
    }

    /// Steady-state optimizer-call ratio, cold over incremental.
    pub fn speedup(&self) -> f64 {
        self.steady_cold_calls() as f64 / self.steady_warm_calls().max(1) as f64
    }

    /// The contract: incremental re-optimization saves at least 10×
    /// the steady-state optimizer calls.
    pub fn meets_10x(&self) -> bool {
        self.speedup() >= 10.0
    }
}

/// Run both legs of the steady-state scenario.
pub fn measure() -> DynamicBench {
    let space = SearchSpace::cpu_and_memory(); // δ = 0.05

    // Cold leg: full re-solve of every machine every period.
    let mut cold_fleet = fleet();
    let t0 = Instant::now();
    let mut init_cold_calls = 0;
    let mut cold_results: Vec<SearchResult> = Vec::with_capacity(MACHINES);
    for adv in &cold_fleet {
        let (r, calls) = cold_solve(adv, &space);
        init_cold_calls += calls;
        cold_results.push(r);
    }
    let mut cold_calls_per_period = Vec::with_capacity(PERIODS);
    let mut cold_history: Vec<Vec<SearchResult>> = Vec::with_capacity(PERIODS);
    for p in 1..=PERIODS {
        let (g, factor) = drift_for(p);
        let (m, slot) = host_of(g);
        cold_fleet[m].scale_tenant_workload(slot, factor);
        let mut calls = 0;
        let mut results = Vec::with_capacity(MACHINES);
        for adv in &cold_fleet {
            let (r, c) = cold_solve(adv, &space);
            calls += c;
            results.push(r);
        }
        cold_calls_per_period.push(calls);
        cold_history.push(results);
    }
    let cold_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Incremental leg: advisor solves over a fleet-wide probe cache,
    // of the drifted machine only.
    let probe = ProbeCache::new();
    let mut warm_fleet = fleet();
    for adv in &mut warm_fleet {
        adv.attach_probe_cache(probe.clone());
    }
    let t0 = Instant::now();
    let mut init_warm_calls = 0;
    let mut warm_results: Vec<SearchResult> = Vec::with_capacity(MACHINES);
    for adv in &warm_fleet {
        let rec = adv.recommend_c2f(&space);
        init_warm_calls += rec.optimizer_calls;
        warm_results.push(rec.result);
    }
    let mut results_match = warm_results
        .iter()
        .zip(&cold_results)
        .all(|(w, c)| identical(w, c));
    let mut warm_calls_per_period = Vec::with_capacity(PERIODS);
    for p in 1..=PERIODS {
        let (g, factor) = drift_for(p);
        let (m, slot) = host_of(g);
        warm_fleet[m].scale_tenant_workload(slot, factor);
        let rec = warm_fleet[m].recommend_c2f(&space);
        warm_calls_per_period.push(rec.optimizer_calls);
        warm_results[m] = rec.result;
        results_match &= warm_results
            .iter()
            .zip(&cold_history[p - 1])
            .all(|(w, c)| identical(w, c));
    }
    let warm_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let cold_solves = warm_fleet.iter().map(|adv| adv.warm_stats().0).sum();
    let steady_warm: u64 = warm_calls_per_period.iter().sum();
    let accounting = CostAccounting {
        optimizer_calls: steady_warm,
        cache_hits: 0,
        ..CostAccounting::default()
    }
    .with_probe_cache(&probe);

    let final_objectives = cold_history
        .last()
        .expect("at least one period")
        .iter()
        .map(|r| r.weighted_cost)
        .collect();

    DynamicBench {
        init_cold_calls,
        init_warm_calls,
        cold_calls_per_period,
        warm_calls_per_period,
        cold_solves,
        accounting,
        results_match,
        final_objectives,
        cold_wall_ms,
        warm_wall_ms,
    }
}

/// Bit-for-bit result identity: objective, allocations, limit
/// verdicts.
fn identical(a: &SearchResult, b: &SearchResult) -> bool {
    a.weighted_cost.to_bits() == b.weighted_cost.to_bits()
        && a.allocations == b.allocations
        && a.limits_met == b.limits_met
}

/// Measure and render as a report.
pub fn run() -> Report {
    run_from(measure())
}

/// Render an existing measurement as a report.
pub fn run_from(m: DynamicBench) -> Report {
    let mut report = Report::new(
        "dynbench",
        "Incremental re-optimization: 10 tenants / 3 machines / 20 periods, one drift per period",
    );
    let mut table = Table::new(vec!["leg", "init calls", "steady calls", "wall ms"]);
    table.row(vec![
        "cold".to_string(),
        m.init_cold_calls.to_string(),
        m.steady_cold_calls().to_string(),
        fmt_f(m.cold_wall_ms, 1),
    ]);
    table.row(vec![
        "incremental".to_string(),
        m.init_warm_calls.to_string(),
        m.steady_warm_calls().to_string(),
        fmt_f(m.warm_wall_ms, 1),
    ]);
    report.section("cold vs incremental optimizer calls", table);

    let mut counters = Table::new(vec!["counter", "value"]);
    counters.row(vec!["solves".to_string(), m.cold_solves.to_string()]);
    counters.row(vec![
        "probe hits".to_string(),
        m.accounting.probe_hits.to_string(),
    ]);
    counters.row(vec![
        "probe misses".to_string(),
        m.accounting.probe_misses.to_string(),
    ]);
    counters.row(vec![
        "steady-state speedup".to_string(),
        fmt_f(m.speedup(), 1),
    ]);
    report.section("incremental-leg counters", counters);
    report.note(format!(
        "incremental results identical to cold: {}; ≥10× fewer steady-state optimizer calls: {}",
        m.results_match,
        m.meets_10x()
    ));
    report
}

/// Serialize the measurement as the `BENCH_dynamic.json` artifact.
/// Everything except the `*_ms` fields is deterministic and gated by
/// `check_bench`.
pub fn to_json(m: &DynamicBench) -> String {
    let cold: Vec<String> = m.cold_calls_per_period.iter().map(u64::to_string).collect();
    let warm: Vec<String> = m.warm_calls_per_period.iter().map(u64::to_string).collect();
    let finals: Vec<String> = m
        .final_objectives
        .iter()
        .map(|o| format!("{o:.9}"))
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"dynbench\",\n",
            "  \"machines\": {},\n",
            "  \"workloads\": {},\n",
            "  \"periods\": {},\n",
            "  \"space\": \"cpu_and_memory\",\n",
            "  \"delta\": 0.05,\n",
            "  \"cold_wall_ms\": {:.3},\n",
            "  \"warm_wall_ms\": {:.3},\n",
            "  \"init_optimizer_calls_cold\": {},\n",
            "  \"init_optimizer_calls_incremental\": {},\n",
            "  \"steady_optimizer_calls_cold\": {},\n",
            "  \"steady_optimizer_calls_incremental\": {},\n",
            "  \"cold_calls_per_period\": [{}],\n",
            "  \"incremental_calls_per_period\": [{}],\n",
            "  \"cold_solves\": {},\n",
            "  \"probe_hits\": {},\n",
            "  \"probe_misses\": {},\n",
            "  \"final_objectives\": [{}],\n",
            "  \"speedup\": {:.3},\n",
            "  \"results_match\": {},\n",
            "  \"meets_10x\": {}\n",
            "}}\n"
        ),
        MACHINES,
        TENANTS,
        PERIODS,
        m.cold_wall_ms,
        m.warm_wall_ms,
        m.init_cold_calls,
        m.init_warm_calls,
        m.steady_cold_calls(),
        m.steady_warm_calls(),
        cold.join(", "),
        warm.join(", "),
        m.cold_solves,
        m.accounting.probe_hits,
        m.accounting.probe_misses,
        finals.join(", "),
        m.speedup(),
        m.results_match,
        m.meets_10x(),
    )
}

/// Measure and write `BENCH_dynamic.json` to `path`.
pub fn write_json(path: &str) -> std::io::Result<DynamicBench> {
    let m = measure();
    std::fs::write(path, to_json(&m))?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_incremental_and_exact() {
        let m = measure();
        assert!(m.results_match, "incremental must equal cold bit-for-bit");
        assert!(
            m.meets_10x(),
            "steady-state speedup {}× (cold {} vs incremental {})",
            m.speedup(),
            m.steady_cold_calls(),
            m.steady_warm_calls()
        );
        // One solve per machine to start, then exactly the drifted
        // machine each period.
        assert_eq!(m.cold_solves, (MACHINES + PERIODS) as u64);
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let m = measure();
        let json = to_json(&m);
        assert!(json.contains("\"experiment\": \"dynbench\""));
        assert!(json.contains("\"steady_optimizer_calls_cold\""));
        assert!(json.contains("\"results_match\": true"));
        assert!(json.contains("\"meets_10x\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
