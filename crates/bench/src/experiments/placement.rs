//! Fleet placement: N tenants over K machines (beyond the paper).
//!
//! The paper stops at N = 10 tenants on one machine; the fleet layer
//! decides *which* tenant lands on *which* machine before the
//! per-machine advisor configures it. This scenario places ten mixed
//! DSS tenants on three identical machines (CPU + memory jointly) and
//! compares the placer — marginal-benefit bin-packing plus
//! swap/migrate local search, greedy per-machine inner solves —
//! against naive round-robin placement. [`write_json`] emits the
//! deterministic numbers (assignment, objectives, optimizer calls,
//! move/solve counts) as `BENCH_placement.json`; CI diffs them against
//! the committed baseline and fails on regression.

use crate::harness::{fmt_f, fmt_pct, Report, Table};
use crate::setups::{self, cold_estimators, EngineChoice};
use std::time::Instant;
use vda_core::metrics::CostAccounting;
use vda_core::placement::{assignment_objective, place_tenants, MachineSpec, PlacementResult};
use vda_core::problem::{QoS, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::VirtualizationDesignAdvisor;

/// Machines in the fleet scenario.
pub const MACHINES: usize = 3;

/// Big (reference-sized) machines in the heterogeneous scenario.
pub const HET_BIG: usize = 2;
/// Small machines in the heterogeneous scenario.
pub const HET_SMALL: usize = 2;
/// The small machines' CPU and memory capacity relative to the big
/// ones.
pub const HET_SMALL_SCALE: f64 = 0.5;

/// The placement measurement: the placer's answer plus the round-robin
/// baseline, with optimizer-call accounting.
#[derive(Debug, Clone)]
pub struct PlacementMeasurement {
    /// Tenant count.
    pub workloads: usize,
    /// Machine count.
    pub machines: usize,
    /// The placer's result.
    pub result: PlacementResult,
    /// Round-robin fleet objective (same pricing).
    pub round_robin_objective: f64,
    /// Wall time of the placement run, milliseconds.
    pub wall_ms: f64,
    /// Optimizer calls the placement run issued (cold caches).
    pub optimizer_calls: u64,
    /// Per-tenant names, for the report.
    pub tenant_names: Vec<String>,
}

impl PlacementMeasurement {
    /// Relative improvement of the placer over round-robin.
    pub fn improvement(&self) -> f64 {
        (self.round_robin_objective - self.result.objective) / self.round_robin_objective
    }
}

/// Ten mixed DSS tenants: CPU-hungry (Q18/Q21), scan/memory-leaning
/// (Q6/Q7/Q16), and a couple of heavyweights, so machines genuinely
/// differ in attractiveness.
fn fleet_advisor() -> VirtualizationDesignAdvisor {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);
    let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
    let mix: [(usize, f64); 10] = [
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
    for (i, &(q, count)) in mix.iter().enumerate() {
        let w = vda_workloads::tpch::query_workload(q, count).named(format!("T{i}-Q{q}"));
        adv.add_tenant(
            Tenant::new(format!("T{i}-Q{q}"), engine.clone(), cat.clone(), w)
                .expect("bench workloads bind"),
            QoS::default(),
        );
    }
    adv.calibrate();
    adv
}

/// Run the fleet scenario.
pub fn measure() -> PlacementMeasurement {
    let adv = fleet_advisor();
    // Identical reference machines on the joint δ = 0.05 grid.
    let fleet = vec![MachineSpec::reference(SearchSpace::cpu_and_memory()); MACHINES];
    let qos = adv.qos();
    let n = adv.tenant_count();

    let models = cold_estimators(&adv);
    let t0 = Instant::now();
    let result = place_tenants(&fleet, qos, &models);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let optimizer_calls = CostAccounting::tally(&models).optimizer_calls;

    let round_robin: Vec<usize> = (0..n).map(|i| i % MACHINES).collect();
    let round_robin_objective = assignment_objective(&fleet, qos, &models, &round_robin)
        .expect("round-robin names one fleet machine per tenant");

    PlacementMeasurement {
        workloads: n,
        machines: MACHINES,
        result,
        round_robin_objective,
        wall_ms,
        optimizer_calls,
        tenant_names: (0..n).map(|i| adv.tenant(i).name.clone()).collect(),
    }
}

/// The heterogeneous fleet measurement: heterogeneity-aware placement
/// over 2 big + 2 small machines vs the homogeneous assumption
/// (placing as if every machine were the smallest, then paying the
/// true fleet).
#[derive(Debug, Clone)]
pub struct HeterogeneousMeasurement {
    /// Tenant count.
    pub workloads: usize,
    /// The true fleet's machine specs (small machines first — the
    /// homogeneous assumption cannot see which slots are big).
    pub specs: Vec<MachineSpec>,
    /// The heterogeneity-aware placer's result.
    pub result: PlacementResult,
    /// Assignment chosen under the all-machines-are-smallest
    /// assumption.
    pub smallest_assignment: Vec<usize>,
    /// That assignment's objective priced on the TRUE fleet.
    pub smallest_objective: f64,
    /// Wall time of the heterogeneity-aware placement run, ms.
    pub wall_ms: f64,
    /// Optimizer calls the aware placement issued (cold caches).
    pub optimizer_calls: u64,
    /// Per-tenant names, for the report.
    pub tenant_names: Vec<String>,
}

impl HeterogeneousMeasurement {
    /// Relative improvement of heterogeneity-aware placement over the
    /// smallest-machine assumption.
    pub fn improvement(&self) -> f64 {
        (self.smallest_objective - self.result.objective) / self.smallest_objective
    }
}

/// The heterogeneous fleet: `HET_SMALL` half-scale machines followed
/// by `HET_BIG` reference machines, all on the same joint CPU+memory
/// δ-grid. Small machines come first so the homogeneous baseline —
/// which sees four interchangeable machines — packs its
/// most-resource-sensitive tenants onto slots that are, in truth, the
/// small ones.
fn het_specs() -> Vec<MachineSpec> {
    let space = SearchSpace::cpu_and_memory();
    let mut specs = vec![MachineSpec::scaled(space, HET_SMALL_SCALE, HET_SMALL_SCALE); HET_SMALL];
    specs.extend(vec![MachineSpec::reference(space); HET_BIG]);
    specs
}

/// Run the heterogeneous fleet scenario.
pub fn measure_heterogeneous() -> HeterogeneousMeasurement {
    let adv = fleet_advisor();
    let qos = adv.qos();
    let n = adv.tenant_count();
    let specs = het_specs();

    let models = cold_estimators(&adv);
    let t0 = Instant::now();
    let result = place_tenants(&specs, qos, &models);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let optimizer_calls = CostAccounting::tally(&models).optimizer_calls;

    // The homogeneous assumption: every machine is the smallest. Place
    // under that fiction, then pay the true fleet for the resulting
    // assignment.
    let smallest = vec![specs[0]; specs.len()];
    let blind = place_tenants(&smallest, qos, &models);
    let smallest_objective = assignment_objective(&specs, qos, &models, &blind.assignment)
        .expect("a placement over the same fleet size fits the true fleet");

    HeterogeneousMeasurement {
        workloads: n,
        specs,
        result,
        smallest_assignment: blind.assignment,
        smallest_objective,
        wall_ms,
        optimizer_calls,
        tenant_names: (0..n).map(|i| adv.tenant(i).name.clone()).collect(),
    }
}

/// Both placement measurements, as emitted into
/// `BENCH_placement.json`.
#[derive(Debug, Clone)]
pub struct PlacementBench {
    /// The homogeneous 10-tenants-over-3-machines scenario.
    pub homogeneous: PlacementMeasurement,
    /// The heterogeneous 2-big + 2-small scenario.
    pub heterogeneous: HeterogeneousMeasurement,
}

/// Measure and render as a report.
pub fn run() -> Report {
    run_from(measure())
}

/// Measure the heterogeneous scenario and render as a report.
pub fn run_heterogeneous() -> Report {
    run_heterogeneous_from(measure_heterogeneous())
}

/// Render the heterogeneous measurement as a report.
pub fn run_heterogeneous_from(m: HeterogeneousMeasurement) -> Report {
    let mut report = Report::new(
        "placement-heterogeneous",
        "Heterogeneous fleet: 10 tenants over 2 big + 2 small machines",
    );
    let mut table = Table::new(vec!["machine", "cpu/mem scale", "tenants", "weighted cost"]);
    for (machine, spec) in m.specs.iter().enumerate() {
        let tenants = m.result.tenants_on(machine);
        let names: Vec<&str> = tenants
            .iter()
            .map(|&i| m.tenant_names[i].as_str())
            .collect();
        let cost = match &m.result.per_machine[machine] {
            Some(r) => fmt_f(r.weighted_cost, 2),
            None => "-".to_string(),
        };
        table.row(vec![
            machine.to_string(),
            format!(
                "{}/{}",
                fmt_f(spec.scale.cpu(), 2),
                fmt_f(spec.scale.memory(), 2)
            ),
            names.join(","),
            cost,
        ]);
    }
    report.section("heterogeneity-aware placement", table);

    let mut summary = Table::new(vec!["metric", "value"]);
    summary.row(vec![
        "aware objective".to_string(),
        fmt_f(m.result.objective, 2),
    ]);
    summary.row(vec![
        "smallest-assumption objective".to_string(),
        fmt_f(m.smallest_objective, 2),
    ]);
    summary.row(vec!["improvement".to_string(), fmt_pct(m.improvement())]);
    summary.row(vec![
        "local-search moves".to_string(),
        m.result.moves.len().to_string(),
    ]);
    summary.row(vec![
        "inner solves (memoized)".to_string(),
        m.result.inner_solves.to_string(),
    ]);
    summary.row(vec![
        "optimizer calls".to_string(),
        m.optimizer_calls.to_string(),
    ]);
    summary.row(vec!["wall ms".to_string(), fmt_f(m.wall_ms, 1)]);
    report.section("aware vs smallest-machine assumption", summary);
    report.note(format!(
        "heterogeneity-aware placement beats the homogeneous assumption: {}",
        m.improvement() > 0.0
    ));
    report
}

/// Render an existing measurement as a report.
pub fn run_from(m: PlacementMeasurement) -> Report {
    let mut report = Report::new(
        "placement",
        "Fleet placement: 10 tenants over 3 machines vs round-robin",
    );
    let mut table = Table::new(vec!["machine", "tenants", "weighted cost", "cpu shares"]);
    for machine in 0..m.machines {
        let tenants = m.result.tenants_on(machine);
        let names: Vec<&str> = tenants
            .iter()
            .map(|&i| m.tenant_names[i].as_str())
            .collect();
        let (cost, shares) = match &m.result.per_machine[machine] {
            Some(r) => (
                fmt_f(r.weighted_cost, 2),
                r.allocations
                    .iter()
                    .map(|a| fmt_f(a.cpu(), 2))
                    .collect::<Vec<_>>()
                    .join("/"),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row(vec![machine.to_string(), names.join(","), cost, shares]);
    }
    report.section("final placement", table);

    let mut summary = Table::new(vec!["metric", "value"]);
    summary.row(vec![
        "fleet objective".to_string(),
        fmt_f(m.result.objective, 2),
    ]);
    summary.row(vec![
        "round-robin objective".to_string(),
        fmt_f(m.round_robin_objective, 2),
    ]);
    summary.row(vec!["improvement".to_string(), fmt_pct(m.improvement())]);
    summary.row(vec![
        "local-search moves".to_string(),
        m.result.moves.len().to_string(),
    ]);
    summary.row(vec![
        "inner solves (memoized)".to_string(),
        m.result.inner_solves.to_string(),
    ]);
    summary.row(vec![
        "optimizer calls".to_string(),
        m.optimizer_calls.to_string(),
    ]);
    summary.row(vec!["wall ms".to_string(), fmt_f(m.wall_ms, 1)]);
    report.section("placer vs round-robin", summary);
    report.note(format!(
        "placement beats round-robin: {} ({} over {} machines)",
        m.improvement() > 0.0,
        m.workloads,
        m.machines
    ));
    report
}

/// Serialize both measurements as the `BENCH_placement.json`
/// artifact: the homogeneous scenario's fields at the top level (as
/// before), the heterogeneous scenario nested under
/// `"heterogeneous"`.
pub fn to_json(bench: &PlacementBench) -> String {
    let m = &bench.homogeneous;
    let assignment: Vec<String> = m.result.assignment.iter().map(usize::to_string).collect();
    let per_machine: Vec<String> = (0..m.machines)
        .map(|machine| {
            let tenants: Vec<String> = m
                .result
                .tenants_on(machine)
                .iter()
                .map(|t| t.to_string())
                .collect();
            let cost = m.result.per_machine[machine]
                .as_ref()
                .map(|r| format!("{:.9}", r.weighted_cost))
                .unwrap_or_else(|| "null".to_string());
            format!(
                concat!(
                    "    {{\n",
                    "      \"machine\": {},\n",
                    "      \"tenants\": [{}],\n",
                    "      \"weighted_cost\": {}\n",
                    "    }}"
                ),
                machine,
                tenants.join(", "),
                cost,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"placement\",\n",
            "  \"workloads\": {},\n",
            "  \"machines\": {},\n",
            "  \"space\": \"cpu_and_memory\",\n",
            "  \"delta\": 0.05,\n",
            "  \"wall_ms\": {:.3},\n",
            "  \"assignment\": [{}],\n",
            "  \"total_weighted_cost\": {:.9},\n",
            "  \"objective\": {:.9},\n",
            "  \"round_robin_objective\": {:.9},\n",
            "  \"improvement\": {:.6},\n",
            "  \"moves\": {},\n",
            "  \"inner_solves\": {},\n",
            "  \"optimizer_calls\": {},\n",
            "  \"per_machine\": [\n{}\n  ],\n",
            "{}",
            "}}\n"
        ),
        m.workloads,
        m.machines,
        m.wall_ms,
        assignment.join(", "),
        m.result.total_weighted_cost,
        m.result.objective,
        m.round_robin_objective,
        m.improvement(),
        m.result.moves.len(),
        m.result.inner_solves,
        m.optimizer_calls,
        per_machine.join(",\n"),
        heterogeneous_json(&bench.heterogeneous),
    )
}

/// The nested `"heterogeneous"` JSON section. Every field except
/// `wall_ms` is deterministic and gated by `check_bench`.
fn heterogeneous_json(m: &HeterogeneousMeasurement) -> String {
    let assignment: Vec<String> = m.result.assignment.iter().map(usize::to_string).collect();
    let smallest: Vec<String> = m.smallest_assignment.iter().map(usize::to_string).collect();
    // Both resource dimensions are gated: an asymmetric scale change
    // (cpu ≠ memory) must fail the gate too.
    let cpu_scales: Vec<String> = m
        .specs
        .iter()
        .map(|s| format!("{:.3}", s.scale.cpu()))
        .collect();
    let memory_scales: Vec<String> = m
        .specs
        .iter()
        .map(|s| format!("{:.3}", s.scale.memory()))
        .collect();
    format!(
        concat!(
            "  \"heterogeneous\": {{\n",
            "    \"workloads\": {},\n",
            "    \"machines\": {},\n",
            "    \"big_machines\": {},\n",
            "    \"small_machines\": {},\n",
            "    \"machine_scales_cpu\": [{}],\n",
            "    \"machine_scales_memory\": [{}],\n",
            "    \"wall_ms\": {:.3},\n",
            "    \"assignment\": [{}],\n",
            "    \"total_weighted_cost\": {:.9},\n",
            "    \"objective\": {:.9},\n",
            "    \"smallest_assumption_assignment\": [{}],\n",
            "    \"smallest_assumption_objective\": {:.9},\n",
            "    \"improvement\": {:.6},\n",
            "    \"moves\": {},\n",
            "    \"inner_solves\": {},\n",
            "    \"optimizer_calls\": {},\n",
            "    \"beats_smallest_assumption\": {}\n",
            "  }}\n",
        ),
        m.workloads,
        m.specs.len(),
        HET_BIG,
        HET_SMALL,
        cpu_scales.join(", "),
        memory_scales.join(", "),
        m.wall_ms,
        assignment.join(", "),
        m.result.total_weighted_cost,
        m.result.objective,
        smallest.join(", "),
        m.smallest_objective,
        m.improvement(),
        m.result.moves.len(),
        m.result.inner_solves,
        m.optimizer_calls,
        m.improvement() > 0.0,
    )
}

/// Measure both scenarios and write `BENCH_placement.json` to `path`.
pub fn write_json(path: &str) -> std::io::Result<PlacementBench> {
    let bench = PlacementBench {
        homogeneous: measure(),
        heterogeneous: measure_heterogeneous(),
    };
    std::fs::write(path, to_json(&bench))?;
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_scenario_beats_round_robin_and_is_feasible() {
        let m = measure();
        assert_eq!(m.workloads, 10);
        assert!(
            m.result.objective <= m.round_robin_objective + 1e-9,
            "placer {} vs round-robin {}",
            m.result.objective,
            m.round_robin_objective
        );
        assert!(m.optimizer_calls > 0);
        // Every machine hosts someone and stays within budget.
        for machine in 0..m.machines {
            let r = m.result.per_machine[machine]
                .as_ref()
                .expect("no machine should sit idle at N=10, K=3");
            let cpu: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
            let mem: f64 = r.allocations.iter().map(|a| a.memory()).sum();
            assert!(cpu <= 1.0 + 1e-9);
            assert!(mem <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn heterogeneous_scenario_beats_smallest_machine_assumption() {
        let m = measure_heterogeneous();
        assert_eq!(m.workloads, 10);
        assert_eq!(m.specs.len(), HET_BIG + HET_SMALL);
        assert!(
            m.result.objective < m.smallest_objective,
            "aware {} must beat the smallest-machine assumption {}",
            m.result.objective,
            m.smallest_objective
        );
        assert!(m.improvement() > 0.0);
        assert!(m.optimizer_calls > 0);
        // Every machine stays within its own budget (shares of itself).
        for machine in 0..m.specs.len() {
            if let Some(r) = &m.result.per_machine[machine] {
                let cpu: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
                let mem: f64 = r.allocations.iter().map(|a| a.memory()).sum();
                assert!(cpu <= 1.0 + 1e-9);
                assert!(mem <= 1.0 + 1e-9);
            }
        }
        // The big machines (slots 2, 3) must host more of the fleet
        // than the small ones.
        let small_load = m.result.tenants_on(0).len() + m.result.tenants_on(1).len();
        let big_load = m.result.tenants_on(2).len() + m.result.tenants_on(3).len();
        assert!(
            big_load >= small_load,
            "big machines should carry at least as many tenants: {:?}",
            m.result.assignment
        );
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let bench = PlacementBench {
            homogeneous: measure(),
            heterogeneous: measure_heterogeneous(),
        };
        let json = to_json(&bench);
        assert!(json.contains("\"experiment\": \"placement\""));
        assert!(json.contains("\"assignment\""));
        assert!(json.contains("\"per_machine\""));
        assert!(json.contains("\"heterogeneous\""));
        assert!(json.contains("\"smallest_assumption_objective\""));
        assert!(json.contains("\"beats_smallest_assumption\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
