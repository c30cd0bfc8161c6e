//! Enumeration performance: serial vs parallel candidate evaluation,
//! and coarse-to-fine vs full-grid DP at production scale.
//!
//! The paper reports the advisor's search cost in optimizer calls
//! (§7.2); this experiment starts the repository's own performance
//! trajectory by measuring wall time too. For greedy and exhaustive
//! search it runs the serial and the parallel evaluation path on
//! identical cold caches, verifies the results are bit-identical (the
//! `SearchOptions` contract), and reports wall time, optimizer calls,
//! and cache hits. A second section pits coarse-to-fine refinement
//! against the full-grid DP on the paper's maximum tenant count
//! (N = 10) at a δ ten times finer than the paper's (0.01, CPU and
//! memory jointly): same objective, a fraction of the optimizer calls.
//! A third section repeats that comparison with four *finite, binding*
//! degradation limits — the regime where coarse-to-fine used to
//! silently degrade to the full grid — asserting identical objectives
//! *and* limit verdicts at ≥ 3× fewer optimizer calls. A fourth
//! section opens the **third resource axis**: N = 5 tenants over a
//! joint CPU + memory + disk-bandwidth grid (δ = 0.05, disk-calibrated
//! what-if estimators), coarse-to-fine against the 3-D full-grid DP —
//! same objective, ≥ 2× fewer optimizer calls. [`write_json`] emits
//! the same numbers as machine-readable `BENCH_enumeration.json`; CI
//! diffs the deterministic fields against the committed baseline and
//! fails on regression.

use crate::harness::{fmt_f, Report, Table};
use crate::setups::{self, cold_estimators, EngineChoice, FIXED_512MB_SHARE};
use std::time::Instant;
use vda_core::costmodel::{CalibrationConfig, WhatIfEstimator};
use vda_core::enumerate::{
    coarse_to_fine_search_with, greedy_search_with, try_exhaustive_search_with,
    CoarseToFineOptions, SearchOptions, SearchResult,
};
use vda_core::jsonio::fmt_f64;
use vda_core::metrics::CostAccounting;
use vda_core::problem::{Resource, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::VirtualizationDesignAdvisor;

/// One algorithm's serial-vs-parallel measurement.
#[derive(Debug, Clone)]
pub struct AlgoMeasurement {
    /// `"greedy"` or `"exhaustive"`.
    pub name: &'static str,
    /// Serial wall time in milliseconds.
    pub serial_ms: f64,
    /// Parallel wall time in milliseconds.
    pub parallel_ms: f64,
    /// Optimizer calls on the serial path.
    pub optimizer_calls_serial: u64,
    /// Optimizer calls on the parallel path.
    pub optimizer_calls_parallel: u64,
    /// Cache hits on the serial path.
    pub cache_hits: u64,
    /// Whether serial and parallel returned identical results.
    pub identical: bool,
    /// Greedy iterations (0 for exhaustive).
    pub iterations: usize,
}

impl AlgoMeasurement {
    /// serial/parallel wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }
}

fn bench_advisor() -> VirtualizationDesignAdvisor {
    let engine = setups::engine_fixed_memory(EngineChoice::Db2);
    let cat = setups::sf(1.0);
    let (c_unit, i_unit) = setups::cpu_units(&engine, &cat);
    setups::advisor_for(
        &engine,
        &cat,
        vec![
            c_unit.compose(5.0, &i_unit, 5.0),
            c_unit.compose(2.0, &i_unit, 8.0),
            c_unit.compose(8.0, &i_unit, 2.0),
            c_unit.compose(1.0, &i_unit, 9.0),
            i_unit.times(10.0),
        ],
    )
}

fn search(
    exhaustive: bool,
    space: &SearchSpace,
    qos: &[vda_core::problem::QoS],
    models: &[WhatIfEstimator<'_>],
    options: &SearchOptions,
) -> SearchResult {
    if exhaustive {
        try_exhaustive_search_with(space, qos, models, options).expect("the grid hosts the tenants")
    } else {
        greedy_search_with(space, qos, models, options)
    }
}

/// Timed repetitions per path; the minimum is reported to suppress
/// scheduling noise on small problems.
const REPS: usize = 5;

fn measure(
    adv: &VirtualizationDesignAdvisor,
    space: &SearchSpace,
    name: &'static str,
    exhaustive: bool,
) -> AlgoMeasurement {
    let qos = adv.qos();

    let mut serial_ms = f64::INFINITY;
    let mut parallel_ms = f64::INFINITY;
    let mut serial = None;
    let mut parallel = None;
    let mut serial_acct = CostAccounting::default();
    let mut parallel_acct = CostAccounting::default();
    for _ in 0..REPS {
        let serial_models = cold_estimators(adv);
        let t0 = Instant::now();
        let r = search(
            exhaustive,
            space,
            qos,
            &serial_models,
            &SearchOptions::serial(),
        );
        serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        serial_acct = CostAccounting::tally(&serial_models);
        serial = Some(r);

        let parallel_models = cold_estimators(adv);
        let t1 = Instant::now();
        let r = search(
            exhaustive,
            space,
            qos,
            &parallel_models,
            &SearchOptions::parallel(),
        );
        parallel_ms = parallel_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        parallel_acct = CostAccounting::tally(&parallel_models);
        parallel = Some(r);
    }
    let serial = serial.expect("REPS >= 1");
    let parallel = parallel.expect("REPS >= 1");

    AlgoMeasurement {
        name,
        serial_ms,
        parallel_ms,
        optimizer_calls_serial: serial_acct.optimizer_calls,
        optimizer_calls_parallel: parallel_acct.optimizer_calls,
        cache_hits: serial_acct.cache_hits,
        identical: serial == parallel,
        iterations: serial.iterations,
    }
}

/// Coarse-to-fine vs full-grid DP at the paper's maximum scale:
/// N = 10 tenants, CPU and memory jointly, δ = 0.01.
#[derive(Debug, Clone)]
pub struct C2fMeasurement {
    /// Tenant count.
    pub workloads: usize,
    /// Fine grid step.
    pub delta: f64,
    /// Coarse δ the search used; empty when it ran the full grid.
    pub coarse_deltas: Vec<f64>,
    /// Full-grid DP wall time in milliseconds.
    pub full_ms: f64,
    /// Coarse-to-fine wall time in milliseconds.
    pub c2f_ms: f64,
    /// Optimizer calls the full-grid DP issued (cold caches).
    pub full_optimizer_calls: u64,
    /// Optimizer calls coarse-to-fine issued (cold caches).
    pub c2f_optimizer_calls: u64,
    /// Full-grid objective.
    pub full_weighted_cost: f64,
    /// Coarse-to-fine objective.
    pub c2f_weighted_cost: f64,
}

impl C2fMeasurement {
    /// full/c2f optimizer-call ratio.
    pub fn call_ratio(&self) -> f64 {
        self.full_optimizer_calls as f64 / (self.c2f_optimizer_calls as f64).max(1.0)
    }

    /// Whether the objectives agree (1e-9 relative).
    pub fn objective_match(&self) -> bool {
        (self.full_weighted_cost - self.c2f_weighted_cost).abs()
            <= 1e-9 * self.full_weighted_cost.abs().max(1.0)
    }

    /// The acceptance bar: same objective, ≥ 5× fewer optimizer calls.
    pub fn meets_5x(&self) -> bool {
        self.objective_match() && self.call_ratio() >= 5.0
    }

    /// The 3-axis acceptance bar: same objective, ≥ 2× fewer
    /// optimizer calls (the 3-D windows are cubes, so the windowed
    /// fraction of the grid is larger than in 2-D — the savings bar is
    /// correspondingly lower).
    pub fn meets_2x(&self) -> bool {
        self.objective_match() && self.call_ratio() >= 2.0
    }
}

/// Ten light DSS tenants with mixed CPU/memory appetites (proportional
/// memory policy, so both resource axes matter). `limits[i]` is tenant
/// `i`'s degradation limit (`INFINITY` = unconstrained).
fn c2f_advisor_with_limits(limits: &[f64; 10]) -> VirtualizationDesignAdvisor {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);
    let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
    let mix: [(usize, f64); 10] = [
        (18, 3.0),
        (6, 1.0),
        (7, 2.0),
        (16, 1.0),
        (21, 2.0),
        (1, 1.0),
        (18, 1.0),
        (7, 4.0),
        (6, 3.0),
        (16, 2.0),
    ];
    for (i, &(q, count)) in mix.iter().enumerate() {
        let w = vda_workloads::tpch::query_workload(q, count).named(format!("T{i}-Q{q}"));
        let qos = if limits[i].is_finite() {
            vda_core::problem::QoS::with_limit(limits[i])
        } else {
            vda_core::problem::QoS::default()
        };
        adv.add_tenant(
            Tenant::new(format!("T{i}"), engine.clone(), cat.clone(), w)
                .expect("bench workloads bind"),
            qos,
        );
    }
    adv.calibrate();
    adv
}

fn c2f_advisor() -> VirtualizationDesignAdvisor {
    c2f_advisor_with_limits(&[f64::INFINITY; 10])
}

/// Disk-bandwidth shares the 3-axis scenario calibrates the what-if
/// estimators at (the multiplier fit over `1/disk_share`).
pub const DISK_CALIBRATION_LEVELS: [f64; 3] = [0.25, 0.5, 1.0];

/// Five DSS tenants with mixed CPU / I/O appetites for the 3-axis
/// scenario: scan-bound tenants (Q6) want disk bandwidth, Q18 wants
/// CPU, the rest sit in between — so all three axes genuinely trade
/// off. The advisor calibrates the disk axis
/// ([`DISK_CALIBRATION_LEVELS`]) so the estimators *price* it.
fn c2f_advisor_3axis() -> VirtualizationDesignAdvisor {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);
    let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
    adv.set_calibration_config(CalibrationConfig::with_disk_levels(
        DISK_CALIBRATION_LEVELS.to_vec(),
    ));
    let mix: [(usize, f64); 5] = [(18, 3.0), (6, 4.0), (7, 2.0), (21, 2.0), (16, 1.0)];
    for (i, &(q, count)) in mix.iter().enumerate() {
        let w = vda_workloads::tpch::query_workload(q, count).named(format!("T{i}-Q{q}"));
        adv.add_tenant(
            Tenant::new(format!("T{i}"), engine.clone(), cat.clone(), w)
                .expect("bench workloads bind"),
            vda_core::problem::QoS::default(),
        );
    }
    adv.calibrate();
    adv
}

/// Degradation limits of the finite-limit scenario: four constrained
/// tenants, each limit *below* the tenant's degradation at the
/// unconstrained optimum (5.3×/9.9×/7.0×/6.1× respectively), so the
/// limit boundary genuinely moves the optimum — yet loose enough that
/// the ten limits stay jointly feasible.
pub const LIMITED_SCENARIO_LIMITS: [f64; 10] = [
    4.0,
    f64::INFINITY,
    8.0,
    f64::INFINITY,
    6.0,
    f64::INFINITY,
    f64::INFINITY,
    5.0,
    f64::INFINITY,
    f64::INFINITY,
];

/// One full-vs-coarse-to-fine comparison on cold caches: the shared
/// measurement protocol of every c2f section (the advisor/space pair
/// is the only thing that varies between them). Returns the
/// measurement plus both search results (the limited section also
/// needs the limit verdicts).
fn measure_c2f_pair(
    adv: &VirtualizationDesignAdvisor,
    space: &SearchSpace,
) -> (C2fMeasurement, SearchResult, SearchResult) {
    let qos = adv.qos();
    let n = adv.tenant_count();
    let options = SearchOptions::default();

    let full_models = cold_estimators(adv);
    let t0 = Instant::now();
    let full = try_exhaustive_search_with(space, qos, &full_models, &options)
        .expect("the grid hosts the tenants");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let full_acct = CostAccounting::tally(&full_models);

    let c2f_opts = CoarseToFineOptions::auto(space, n);
    let c2f_models = cold_estimators(adv);
    let t1 = Instant::now();
    let c2f = coarse_to_fine_search_with(space, qos, &c2f_models, &c2f_opts, &options);
    let c2f_ms = t1.elapsed().as_secs_f64() * 1e3;
    let c2f_acct = CostAccounting::tally(&c2f_models);

    let m = C2fMeasurement {
        workloads: n,
        delta: space.delta_for(Resource::Cpu),
        coarse_deltas: c2f_opts.coarse.into_iter().collect(),
        full_ms,
        c2f_ms,
        full_optimizer_calls: full_acct.optimizer_calls,
        c2f_optimizer_calls: c2f_acct.optimizer_calls,
        full_weighted_cost: full.weighted_cost,
        c2f_weighted_cost: c2f.weighted_cost,
    };
    (m, full, c2f)
}

/// Measure coarse-to-fine against the full-grid DP (one run each; the
/// gated quantities — optimizer calls, objectives — are deterministic).
pub fn measure_c2f() -> C2fMeasurement {
    let adv = c2f_advisor();
    let mut space = SearchSpace::cpu_and_memory();
    space.set_delta(0.01);
    measure_c2f_pair(&adv, &space).0
}

/// Measure coarse-to-fine against the 3-D full-grid DP on the
/// CPU + memory + disk scenario (one run each; the gated quantities —
/// optimizer calls, objectives — are deterministic).
pub fn measure_c2f_3axis() -> C2fMeasurement {
    let adv = c2f_advisor_3axis();
    let space = SearchSpace::cpu_memory_disk(); // δ = 0.05 per axis
    measure_c2f_pair(&adv, &space).0
}

/// The finite-limit counterpart of [`C2fMeasurement`]: same N = 10,
/// δ = 0.01, CPU+memory scenario, but with the
/// [`LIMITED_SCENARIO_LIMITS`] degradation limits in force — the
/// regime where coarse-to-fine used to silently degrade to the full
/// grid.
#[derive(Debug, Clone)]
pub struct C2fLimitedMeasurement {
    /// The base comparison (calls, objectives, wall times).
    pub base: C2fMeasurement,
    /// The configured degradation limits (`INFINITY` = none).
    pub degradation_limits: Vec<f64>,
    /// Per-tenant limit verdicts of the full-grid DP.
    pub full_limits_met: Vec<bool>,
    /// Whether coarse-to-fine reported identical limit verdicts.
    pub limits_match: bool,
}

impl C2fLimitedMeasurement {
    /// The acceptance bar: identical objective *and* limit verdicts,
    /// ≥ 3× fewer optimizer calls.
    pub fn meets_3x(&self) -> bool {
        self.base.objective_match() && self.limits_match && self.base.call_ratio() >= 3.0
    }
}

/// Measure the limit-aware coarse-to-fine path against the full-grid
/// DP on the finite-limit scenario (one run each; the gated quantities
/// — optimizer calls, objectives, limit verdicts — are deterministic).
pub fn measure_c2f_limited() -> C2fLimitedMeasurement {
    let adv = c2f_advisor_with_limits(&LIMITED_SCENARIO_LIMITS);
    let mut space = SearchSpace::cpu_and_memory();
    space.set_delta(0.01);
    let (base, full, c2f) = measure_c2f_pair(&adv, &space);
    C2fLimitedMeasurement {
        base,
        degradation_limits: LIMITED_SCENARIO_LIMITS.to_vec(),
        full_limits_met: full.limits_met.clone(),
        limits_match: c2f.limits_met == full.limits_met,
    }
}

/// The whole experiment's measurements.
#[derive(Debug, Clone)]
pub struct EnumerationBench {
    /// Serial-vs-parallel per algorithm (5 workloads, CPU-only).
    pub algos: Vec<AlgoMeasurement>,
    /// Coarse-to-fine vs full grid (10 workloads, CPU+memory, δ 0.01).
    pub c2f: C2fMeasurement,
    /// The same comparison under finite degradation limits.
    pub c2f_limited: C2fLimitedMeasurement,
    /// The third axis opened: coarse-to-fine vs the 3-D full grid
    /// (5 workloads, CPU+memory+disk, δ 0.05).
    pub c2f_3axis: C2fMeasurement,
}

/// Run the measurements (5 workloads CPU-only serial-vs-parallel, plus
/// the N = 10 coarse-to-fine comparisons with and without limits).
pub fn measurements() -> EnumerationBench {
    let adv = bench_advisor();
    let space = SearchSpace::cpu_only(FIXED_512MB_SHARE);
    EnumerationBench {
        algos: vec![
            measure(&adv, &space, "greedy", false),
            measure(&adv, &space, "exhaustive", true),
        ],
        c2f: measure_c2f(),
        c2f_limited: measure_c2f_limited(),
        c2f_3axis: measure_c2f_3axis(),
    }
}

/// Measure and render as a report.
pub fn run() -> Report {
    run_from(measurements())
}

/// Render existing measurements as a report.
pub fn run_from(bench: EnumerationBench) -> Report {
    let ms = &bench.algos;
    let mut report = Report::new(
        "enumbench",
        "Enumeration perf: serial vs parallel, coarse-to-fine vs full grid",
    );
    let mut table = Table::new(vec![
        "algorithm",
        "serial ms",
        "parallel ms",
        "speedup",
        "optimizer calls",
        "cache hits",
        "identical",
    ]);
    for m in ms {
        table.row(vec![
            m.name.to_string(),
            fmt_f(m.serial_ms, 1),
            fmt_f(m.parallel_ms, 1),
            format!("{:.2}x", m.speedup()),
            m.optimizer_calls_serial.to_string(),
            m.cache_hits.to_string(),
            m.identical.to_string(),
        ]);
    }
    report.section("greedy vs exhaustive, serial vs parallel", table);

    let c2f = &bench.c2f;
    let mut c2f_table = Table::new(vec![
        "search",
        "wall ms",
        "optimizer calls",
        "weighted cost",
    ]);
    c2f_table.row(vec![
        format!("full grid (N={}, δ={})", c2f.workloads, fmt_f64(c2f.delta)),
        fmt_f(c2f.full_ms, 1),
        c2f.full_optimizer_calls.to_string(),
        fmt_f(c2f.full_weighted_cost, 6),
    ]);
    c2f_table.row(vec![
        format!("coarse-to-fine (ladder {:?})", c2f.coarse_deltas),
        fmt_f(c2f.c2f_ms, 1),
        c2f.c2f_optimizer_calls.to_string(),
        fmt_f(c2f.c2f_weighted_cost, 6),
    ]);
    report.section("coarse-to-fine vs full-grid DP", c2f_table);

    let lim = &bench.c2f_limited;
    let mut lim_table = Table::new(vec![
        "search",
        "wall ms",
        "optimizer calls",
        "weighted cost",
        "limits met",
    ]);
    let met = lim.full_limits_met.iter().filter(|&&m| m).count();
    lim_table.row(vec![
        format!(
            "full grid (N={}, δ={}, {} finite limits)",
            lim.base.workloads,
            fmt_f64(lim.base.delta),
            lim.degradation_limits
                .iter()
                .filter(|l| l.is_finite())
                .count()
        ),
        fmt_f(lim.base.full_ms, 1),
        lim.base.full_optimizer_calls.to_string(),
        fmt_f(lim.base.full_weighted_cost, 6),
        format!("{met}/{}", lim.full_limits_met.len()),
    ]);
    lim_table.row(vec![
        format!("limit-aware c2f (ladder {:?})", lim.base.coarse_deltas),
        fmt_f(lim.base.c2f_ms, 1),
        lim.base.c2f_optimizer_calls.to_string(),
        fmt_f(lim.base.c2f_weighted_cost, 6),
        if lim.limits_match {
            "identical".to_string()
        } else {
            "DIFFER".to_string()
        },
    ]);
    report.section("limit-aware coarse-to-fine vs full-grid DP", lim_table);

    let ax3 = &bench.c2f_3axis;
    let mut ax3_table = Table::new(vec![
        "search",
        "wall ms",
        "optimizer calls",
        "weighted cost",
    ]);
    ax3_table.row(vec![
        format!(
            "3-axis full grid (N={}, cpu+memory+disk, δ={})",
            ax3.workloads,
            fmt_f64(ax3.delta)
        ),
        fmt_f(ax3.full_ms, 1),
        ax3.full_optimizer_calls.to_string(),
        fmt_f(ax3.full_weighted_cost, 6),
    ]);
    ax3_table.row(vec![
        format!("3-axis coarse-to-fine (ladder {:?})", ax3.coarse_deltas),
        fmt_f(ax3.c2f_ms, 1),
        ax3.c2f_optimizer_calls.to_string(),
        fmt_f(ax3.c2f_weighted_cost, 6),
    ]);
    report.section("3-axis coarse-to-fine vs full-grid DP", ax3_table);

    let all_identical = ms.iter().all(|m| m.identical);
    let calls_match = ms
        .iter()
        .all(|m| m.optimizer_calls_serial == m.optimizer_calls_parallel);
    report.note(format!(
        "parallel results identical to serial: {all_identical}; optimizer-call counts match: {calls_match}"
    ));
    report.note(format!(
        "coarse-to-fine objective matches full grid: {}; {:.1}x fewer optimizer calls (>=5x: {})",
        c2f.objective_match(),
        c2f.call_ratio(),
        c2f.meets_5x(),
    ));
    report.note(format!(
        "under finite limits: objective match {}, limit verdicts match {}; {:.1}x fewer optimizer calls (>=3x: {})",
        lim.base.objective_match(),
        lim.limits_match,
        lim.base.call_ratio(),
        lim.meets_3x(),
    ));
    report.note(format!(
        "3-axis (cpu+memory+disk): objective match {}; {:.1}x fewer optimizer calls (>=2x: {})",
        ax3.objective_match(),
        ax3.call_ratio(),
        ax3.meets_2x(),
    ));
    report.note(format!("worker threads: {}", rayon::current_num_threads()));
    report
}

/// Serialize measurements as the `BENCH_enumeration.json` artifact.
pub fn to_json(bench: &EnumerationBench) -> String {
    let algos: Vec<String> = bench
        .algos
        .iter()
        .map(|m| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"name\": \"{}\",\n",
                    "      \"serial_ms\": {:.3},\n",
                    "      \"parallel_ms\": {:.3},\n",
                    "      \"speedup\": {:.3},\n",
                    "      \"optimizer_calls_serial\": {},\n",
                    "      \"optimizer_calls_parallel\": {},\n",
                    "      \"cache_hits\": {},\n",
                    "      \"iterations\": {},\n",
                    "      \"allocations_identical\": {}\n",
                    "    }}"
                ),
                m.name,
                m.serial_ms,
                m.parallel_ms,
                m.speedup(),
                m.optimizer_calls_serial,
                m.optimizer_calls_parallel,
                m.cache_hits,
                m.iterations,
                m.identical,
            )
        })
        .collect();
    let c2f = &bench.c2f;
    let ladder: Vec<String> = c2f.coarse_deltas.iter().map(|d| fmt_f64(*d)).collect();
    let lim = &bench.c2f_limited;
    let lim_ladder: Vec<String> = lim.base.coarse_deltas.iter().map(|d| fmt_f64(*d)).collect();
    let lim_limits: Vec<String> = lim
        .degradation_limits
        .iter()
        .map(|l| {
            if l.is_finite() {
                fmt_f64(*l)
            } else {
                "null".to_string()
            }
        })
        .collect();
    let lim_met: Vec<String> = lim.full_limits_met.iter().map(|m| format!("{m}")).collect();
    let ax3 = &bench.c2f_3axis;
    let ax3_ladder: Vec<String> = ax3.coarse_deltas.iter().map(|d| fmt_f64(*d)).collect();
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"enumeration\",\n",
            "  \"workloads\": 5,\n",
            "  \"space\": \"cpu_only\",\n",
            "  \"delta\": 0.05,\n",
            "  \"threads\": {},\n",
            "  \"algorithms\": [\n{}\n  ],\n",
            "  \"coarse_to_fine\": {{\n",
            "    \"workloads\": {},\n",
            "    \"space\": \"cpu_and_memory\",\n",
            "    \"delta\": {},\n",
            "    \"coarse_deltas\": [{}],\n",
            "    \"full_ms\": {:.3},\n",
            "    \"c2f_ms\": {:.3},\n",
            "    \"full_optimizer_calls\": {},\n",
            "    \"c2f_optimizer_calls\": {},\n",
            "    \"full_weighted_cost\": {:.9},\n",
            "    \"c2f_weighted_cost\": {:.9},\n",
            "    \"call_ratio\": {:.3},\n",
            "    \"objective_match\": {},\n",
            "    \"meets_5x\": {}\n",
            "  }},\n",
            "  \"coarse_to_fine_limited\": {{\n",
            "    \"workloads\": {},\n",
            "    \"space\": \"cpu_and_memory\",\n",
            "    \"delta\": {},\n",
            "    \"degradation_limits\": [{}],\n",
            "    \"coarse_deltas\": [{}],\n",
            "    \"full_ms\": {:.3},\n",
            "    \"c2f_ms\": {:.3},\n",
            "    \"full_optimizer_calls\": {},\n",
            "    \"c2f_optimizer_calls\": {},\n",
            "    \"full_weighted_cost\": {:.9},\n",
            "    \"c2f_weighted_cost\": {:.9},\n",
            "    \"limits_met\": [{}],\n",
            "    \"call_ratio\": {:.3},\n",
            "    \"objective_match\": {},\n",
            "    \"limits_match\": {},\n",
            "    \"meets_3x\": {}\n",
            "  }},\n",
            "  \"coarse_to_fine_3axis\": {{\n",
            "    \"workloads\": {},\n",
            "    \"space\": \"cpu_memory_disk\",\n",
            "    \"delta\": {},\n",
            "    \"disk_calibration_levels\": [{}],\n",
            "    \"coarse_deltas\": [{}],\n",
            "    \"full_ms\": {:.3},\n",
            "    \"c2f_ms\": {:.3},\n",
            "    \"full_optimizer_calls\": {},\n",
            "    \"c2f_optimizer_calls\": {},\n",
            "    \"full_weighted_cost\": {:.9},\n",
            "    \"c2f_weighted_cost\": {:.9},\n",
            "    \"call_ratio\": {:.3},\n",
            "    \"objective_match\": {},\n",
            "    \"meets_2x\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        rayon::current_num_threads(),
        algos.join(",\n"),
        c2f.workloads,
        fmt_f64(c2f.delta),
        ladder.join(", "),
        c2f.full_ms,
        c2f.c2f_ms,
        c2f.full_optimizer_calls,
        c2f.c2f_optimizer_calls,
        c2f.full_weighted_cost,
        c2f.c2f_weighted_cost,
        c2f.call_ratio(),
        c2f.objective_match(),
        c2f.meets_5x(),
        lim.base.workloads,
        fmt_f64(lim.base.delta),
        lim_limits.join(", "),
        lim_ladder.join(", "),
        lim.base.full_ms,
        lim.base.c2f_ms,
        lim.base.full_optimizer_calls,
        lim.base.c2f_optimizer_calls,
        lim.base.full_weighted_cost,
        lim.base.c2f_weighted_cost,
        lim_met.join(", "),
        lim.base.call_ratio(),
        lim.base.objective_match(),
        lim.limits_match,
        lim.meets_3x(),
        ax3.workloads,
        fmt_f64(ax3.delta),
        DISK_CALIBRATION_LEVELS
            .iter()
            .map(|d| fmt_f64(*d))
            .collect::<Vec<_>>()
            .join(", "),
        ax3_ladder.join(", "),
        ax3.full_ms,
        ax3.c2f_ms,
        ax3.full_optimizer_calls,
        ax3.c2f_optimizer_calls,
        ax3.full_weighted_cost,
        ax3.c2f_weighted_cost,
        ax3.call_ratio(),
        ax3.objective_match(),
        ax3.meets_2x(),
    )
}

/// Measure and write `BENCH_enumeration.json` to `path`.
pub fn write_json(path: &str) -> std::io::Result<EnumerationBench> {
    let bench = measurements();
    std::fs::write(path, to_json(&bench))?;
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_bench() -> EnumerationBench {
        EnumerationBench {
            algos: vec![AlgoMeasurement {
                name: "greedy",
                serial_ms: 12.5,
                parallel_ms: 5.0,
                optimizer_calls_serial: 100,
                optimizer_calls_parallel: 100,
                cache_hits: 40,
                identical: true,
                iterations: 6,
            }],
            c2f: C2fMeasurement {
                workloads: 10,
                delta: 0.01,
                coarse_deltas: vec![0.05],
                full_ms: 1000.0,
                c2f_ms: 90.0,
                full_optimizer_calls: 52020,
                c2f_optimizer_calls: 4880,
                full_weighted_cost: 123.456,
                c2f_weighted_cost: 123.456,
            },
            c2f_limited: C2fLimitedMeasurement {
                base: C2fMeasurement {
                    workloads: 10,
                    delta: 0.01,
                    coarse_deltas: vec![0.05],
                    full_ms: 1100.0,
                    c2f_ms: 150.0,
                    full_optimizer_calls: 26020,
                    c2f_optimizer_calls: 7000,
                    full_weighted_cost: 130.0,
                    c2f_weighted_cost: 130.0,
                },
                degradation_limits: vec![
                    1.5,
                    f64::INFINITY,
                    2.0,
                    f64::INFINITY,
                    1.8,
                    f64::INFINITY,
                    f64::INFINITY,
                    2.5,
                    f64::INFINITY,
                    f64::INFINITY,
                ],
                full_limits_met: vec![true; 10],
                limits_match: true,
            },
            c2f_3axis: C2fMeasurement {
                workloads: 5,
                delta: 0.05,
                coarse_deltas: vec![0.1],
                full_ms: 2000.0,
                c2f_ms: 400.0,
                full_optimizer_calls: 20485,
                c2f_optimizer_calls: 6000,
                full_weighted_cost: 456.789,
                c2f_weighted_cost: 456.789,
            },
        }
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let json = to_json(&fake_bench());
        assert!(json.contains("\"experiment\": \"enumeration\""));
        assert!(json.contains("\"name\": \"greedy\""));
        assert!(json.contains("\"allocations_identical\": true"));
        assert!(json.contains("\"coarse_to_fine\""));
        assert!(json.contains("\"meets_5x\": true"));
        assert!(json.contains("\"coarse_to_fine_limited\""));
        assert!(json.contains(
            "\"degradation_limits\": [1.5, null, 2, null, 1.8, null, null, 2.5, null, null]"
        ));
        assert!(json.contains("\"limits_match\": true"));
        assert!(json.contains("\"meets_3x\": true"));
        assert!(json.contains("\"coarse_to_fine_3axis\""));
        assert!(json.contains("\"space\": \"cpu_memory_disk\""));
        assert!(json.contains("\"disk_calibration_levels\": [0.25, 0.5, 1]"));
        assert!(json.contains("\"meets_2x\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn c2f_limited_acceptance_math() {
        let lim = fake_bench().c2f_limited;
        assert!(lim.meets_3x());
        let worse_calls = C2fLimitedMeasurement {
            base: C2fMeasurement {
                c2f_optimizer_calls: 10000,
                ..lim.base.clone()
            },
            ..lim.clone()
        };
        assert!(!worse_calls.meets_3x());
        let verdicts_differ = C2fLimitedMeasurement {
            limits_match: false,
            ..lim
        };
        assert!(!verdicts_differ.meets_3x());
    }

    #[test]
    fn c2f_acceptance_math() {
        let c2f = fake_bench().c2f;
        assert!(c2f.objective_match());
        assert!((c2f.call_ratio() - 52020.0 / 4880.0).abs() < 1e-9);
        assert!(c2f.meets_5x());
        let worse = C2fMeasurement {
            c2f_optimizer_calls: 20000,
            ..c2f
        };
        assert!(!worse.meets_5x());
    }

    /// The real measurement: the acceptance bar — full-grid objective
    /// at N = 10, δ = 0.01 with ≥ 5× fewer optimizer calls — holds.
    /// Ignored by default (the full-grid DP costs ~5 s in debug
    /// builds); CI enforces the same bar in release via the
    /// bench-regression gate (`meets_5x` in `BENCH_enumeration.json`).
    /// Run explicitly with `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "slow in debug; CI's release bench gate asserts the same bar"]
    fn measured_c2f_meets_acceptance_bar() {
        let c2f = measure_c2f();
        assert!(
            c2f.objective_match(),
            "objectives differ: {} vs {}",
            c2f.full_weighted_cost,
            c2f.c2f_weighted_cost
        );
        assert!(
            c2f.call_ratio() >= 5.0,
            "only {:.2}x fewer calls ({} vs {})",
            c2f.call_ratio(),
            c2f.full_optimizer_calls,
            c2f.c2f_optimizer_calls
        );
    }

    /// The 3-axis acceptance bar: on the N = 5, δ = 0.05
    /// CPU+memory+disk scenario, coarse-to-fine must match the 3-D
    /// full-grid objective with ≥ 2× fewer optimizer calls. Ignored
    /// for the same reason as above; CI's release bench gate enforces
    /// `meets_2x` via `BENCH_enumeration.json`.
    #[test]
    #[ignore = "slow in debug; CI's release bench gate asserts the same bar"]
    fn measured_c2f_3axis_meets_acceptance_bar() {
        let ax3 = measure_c2f_3axis();
        assert!(
            ax3.objective_match(),
            "objectives differ: {} vs {}",
            ax3.full_weighted_cost,
            ax3.c2f_weighted_cost
        );
        assert!(
            ax3.call_ratio() >= 2.0,
            "only {:.2}x fewer calls ({} vs {})",
            ax3.call_ratio(),
            ax3.full_optimizer_calls,
            ax3.c2f_optimizer_calls
        );
    }

    /// The finite-limit acceptance bar: on the N = 10, δ = 0.01
    /// scenario with four finite degradation limits, the limit-aware
    /// path must match the full grid's objective and limit verdicts
    /// exactly while issuing ≥ 3× fewer optimizer calls. Ignored for
    /// the same reason as above; CI's release bench gate enforces
    /// `meets_3x` via `BENCH_enumeration.json`.
    #[test]
    #[ignore = "slow in debug; CI's release bench gate asserts the same bar"]
    fn measured_c2f_limited_meets_acceptance_bar() {
        let lim = measure_c2f_limited();
        assert!(
            lim.base.objective_match(),
            "objectives differ: {} vs {}",
            lim.base.full_weighted_cost,
            lim.base.c2f_weighted_cost
        );
        assert!(lim.limits_match, "limit verdicts differ");
        assert!(
            lim.full_limits_met.iter().all(|&m| m),
            "scenario must be jointly feasible: {:?}",
            lim.full_limits_met
        );
        assert!(
            lim.base.call_ratio() >= 3.0,
            "only {:.2}x fewer calls ({} vs {})",
            lim.base.call_ratio(),
            lim.base.full_optimizer_calls,
            lim.base.c2f_optimizer_calls
        );
    }
}
