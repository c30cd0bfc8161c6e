//! §7.2 — cost of calibration and of the search algorithms.
//!
//! The paper reports: DB2 calibration under 6 minutes, PostgreSQL
//! under 9; greedy search converging in ≤ 8 iterations; online
//! refinement needing no optimizer calls; and greedy "very often
//! optimal and always within 5 % of the optimal". This experiment
//! regenerates all four numbers, plus the §4.5 cache ablation
//! (optimizer calls with and without the per-allocation cache).

use crate::harness::{fmt_f, fmt_pct, Report, Table};
use crate::setups::{self, EngineChoice, FIXED_512MB_SHARE};
use vda_core::costmodel::calibration::Calibrator;
use vda_core::costmodel::whatif::WhatIfEstimator;
use vda_core::enumerate::{greedy_search_with, SearchOptions};
use vda_core::problem::{Allocation, QoS, SearchSpace};
use vda_simdb::engines::Engine;
use vda_workloads::tpch;

/// Run the experiment.
pub fn run() -> Report {
    let mut report = Report::new("sec72", "Cost of calibration and search (§7.2)");
    let hv = setups::testbed();

    // --- calibration cost ---
    let mut cal_table = Table::new(vec![
        "engine",
        "simulated time",
        "VM configs",
        "queries run",
    ]);
    for (name, engine) in [("PgSim", Engine::pg()), ("Db2Sim", Engine::db2())] {
        let model = Calibrator::new(&hv).calibrate(&engine);
        cal_table.row(vec![
            name.to_string(),
            format!("{:.1} min", model.cost().simulated_seconds / 60.0),
            model.cost().vm_configurations.to_string(),
            model.cost().queries_run.to_string(),
        ]);
    }
    report.section(
        "one-time calibration cost (paper: < 6 min DB2, < 9 min PostgreSQL)",
        cal_table,
    );

    // --- greedy iterations + greedy-vs-optimal gap over a sweep ---
    let engine = setups::engine_fixed_memory(EngineChoice::Db2);
    let cat = setups::sf(1.0);
    let (c, i) = setups::cpu_units(&engine, &cat);
    let space = SearchSpace::cpu_only(FIXED_512MB_SHARE);

    let mut sweep = Table::new(vec![
        "problem",
        "iterations",
        "greedy cost",
        "optimal cost",
        "gap",
    ]);
    let mut max_gap = 0.0_f64;
    let mut max_iters = 0usize;
    for k in [0usize, 2, 5, 8, 10] {
        let w1 = c.compose(5.0, &i, 5.0);
        let w2 = c.compose(k as f64, &i, (10 - k) as f64);
        let adv = setups::advisor_for(&engine, &cat, vec![w1, w2]);
        let greedy = adv.recommend(&space);
        let exact = adv.recommend_exhaustive(&space);
        let gap = greedy.result.weighted_cost / exact.result.weighted_cost - 1.0;
        max_gap = max_gap.max(gap);
        max_iters = max_iters.max(greedy.result.iterations);
        sweep.row(vec![
            format!("5C+5I vs {k}C+{}I", 10 - k),
            greedy.result.iterations.to_string(),
            fmt_f(greedy.result.weighted_cost, 0),
            fmt_f(exact.result.weighted_cost, 0),
            fmt_pct(gap),
        ]);
    }
    report.section("greedy search vs exhaustive optimum", sweep);
    report.note(format!(
        "greedy within 5% of optimal everywhere: {} (max gap {}); iterations <= {}",
        max_gap <= 0.05,
        fmt_pct(max_gap),
        max_iters
    ));

    // --- §4.5 cache ablation ---
    let tenant = vda_core::tenant::Tenant::new(
        "cache-ablation",
        engine.clone(),
        cat.clone(),
        tpch::query_workload(18, 5.0),
    )
    .expect("workload binds");
    let model = Calibrator::new(&hv).calibrate(&engine);
    let cached = WhatIfEstimator::new(&tenant, &model);
    let uncached = WhatIfEstimator::without_cache(&tenant, &model);
    // A synthetic greedy-like probe sequence revisiting allocations.
    let probes: Vec<Allocation> = (1..=10)
        .flat_map(|i| {
            vec![
                Allocation::new(i as f64 / 10.0, 0.5),
                Allocation::new(0.5, 0.5),
            ]
        })
        .collect();
    for a in &probes {
        cached.cost(*a);
        uncached.cost(*a);
    }
    let mut ablation = Table::new(vec!["estimator", "optimizer calls", "cache hits"]);
    ablation.row(vec![
        "with cache (§4.5)".to_string(),
        cached.optimizer_calls().to_string(),
        cached.cache_hits().to_string(),
    ]);
    ablation.row(vec![
        "without cache".to_string(),
        uncached.optimizer_calls().to_string(),
        uncached.cache_hits().to_string(),
    ]);
    report.section(
        "what-if cache ablation over a revisiting probe sequence",
        ablation,
    );
    report.note(format!(
        "the cache eliminates {}% of optimizer calls on the probe sequence",
        (100.0 * (1.0 - cached.optimizer_calls() as f64 / uncached.optimizer_calls() as f64))
            .round()
    ));

    // --- QoS feasibility sanity (greedy honors limits) ---
    let w1 = c.times(1.0);
    let w2 = c.times(1.0);
    let adv = setups::advisor_with_qos(
        &engine,
        &cat,
        vec![(w1, QoS::with_limit(2.0)), (w2, QoS::default())],
    );
    let estimators = [adv.estimator(0), adv.estimator(1)];
    let res = greedy_search_with(&space, adv.qos(), &estimators, &SearchOptions::default());
    report.note(format!(
        "degradation limits respected in the QoS spot check: {:?}",
        res.limits_met
    ));
    report
}
