//! Figures 28–34 — online refinement (§7.8–7.9).
//!
//! §7.8 (Figs. 28–31): on the TPC-C + TPC-H mixes, the optimizers
//! underestimate TPC-C's CPU needs (lock contention and update costs
//! are unmodeled), so the initial recommendations starve the TPC-C
//! VMs and the *actual* improvement is negative. Online refinement
//! observes actual runtimes, corrects the linear CPU cost models, and
//! converges to allocations that hand CPU back to TPC-C — positive
//! improvements up to ~28 % (DB2) / ~25 % (PostgreSQL) in the paper.
//!
//! §7.9 (Figs. 32–34): with CPU *and* memory allocated, DB2's
//! optimizer underestimates how much sort-heavy queries (Q4, Q18)
//! benefit from sort memory. The generalized multi-resource
//! refinement fixes the memory misallocation, with improvements up to
//! ~38 % in the paper.

use crate::harness::{fmt_f, fmt_pct, Report, Table};
use crate::setups::{self, EngineChoice};
use vda_core::advisor::VirtualizationDesignAdvisor;
use vda_core::problem::{QoS, Resource, SearchSpace};
use vda_core::refine::RefineOptions;
use vda_core::tenant::Tenant;
use vda_workloads::random;

const MEM_SHARE: f64 = 0.25;

fn cpu_space() -> SearchSpace {
    SearchSpace::cpu_only(MEM_SHARE)
}

fn mix_advisor(choice: EngineChoice, n: usize) -> VirtualizationDesignAdvisor {
    let tenants = setups::tpcc_tpch_mix(choice, 0xF1622);
    let (tpcc, tpch): (Vec<_>, Vec<_>) = tenants
        .into_iter()
        .partition(|t| t.name.starts_with("tpcc"));
    let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
    let mut interleaved = Vec::new();
    for (a, b) in tpcc.into_iter().zip(tpch) {
        interleaved.push(a);
        interleaved.push(b);
    }
    for t in interleaved.into_iter().take(n) {
        adv.add_tenant(t, QoS::default());
    }
    adv.calibrate();
    adv
}

/// Shared §7.8 run: refined CPU allocations per N.
fn refined_allocations(id: &str, choice: EngineChoice) -> Report {
    let mut report = Report::new(
        id,
        format!(
            "CPU allocation for N TPC-C+TPC-H workloads AFTER online refinement ({})",
            choice.name()
        ),
    );
    let mut table = Table::new(
        std::iter::once("N".to_string())
            .chain((0..10).map(|i| format!("W{i}")))
            .collect::<Vec<_>>(),
    );
    let mut tpcc_gain = Vec::new();
    for n in (2..=10).step_by(2) {
        let adv = mix_advisor(choice, n);
        let rec = adv.recommend(&cpu_space());
        let (outcome, _) = adv.refine_recommendation(
            &cpu_space(),
            &rec.result.allocations,
            &RefineOptions::default(),
        );
        // TPC-C tenants are the even indexes.
        let before: f64 = (0..n)
            .step_by(2)
            .map(|i| rec.result.allocations[i].cpu())
            .sum();
        let after: f64 = (0..n)
            .step_by(2)
            .map(|i| outcome.final_allocations[i].cpu())
            .sum();
        tpcc_gain.push(after - before);
        let mut row = vec![n.to_string()];
        for i in 0..10 {
            if i < n {
                row.push(fmt_f(outcome.final_allocations[i].cpu(), 2));
            } else {
                row.push(String::new());
            }
        }
        table.row(row);
    }
    report.section("refined CPU share per workload (even = TPC-C)", table);
    let gains: Vec<String> = tpcc_gain.iter().map(|g| format!("{:+.2}", g)).collect();
    report.note(format!(
        "total CPU moved to the TPC-C VMs by refinement, per N: {gains:?} (paper: 'the \
         CPU taken from [TPC-H] is given to the TPC-C workloads')"
    ));
    report
}

/// Shared §7.8 run: improvements before/after refinement per N.
fn refinement_improvements(id: &str, choice: EngineChoice) -> Report {
    let mut report = Report::new(
        id,
        format!(
            "Actual improvement for TPC-C+TPC-H with online refinement ({})",
            choice.name()
        ),
    );
    let mut table = Table::new(vec![
        "N",
        "before refinement",
        "after refinement",
        "optimal",
        "iterations",
    ]);
    let mut worst_before = f64::INFINITY;
    let mut best_after = f64::NEG_INFINITY;
    for n in (2..=10).step_by(2) {
        let adv = mix_advisor(choice, n);
        let space = cpu_space();
        let rec = adv.recommend(&space);
        let before = adv.actual_improvement(&space, &rec.result.allocations);
        let (outcome, _) =
            adv.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
        let after = adv.actual_improvement(&space, &outcome.final_allocations);
        let optimal = adv.optimal_actual(&space);
        let opt = adv.actual_improvement(&space, &optimal.allocations);
        worst_before = worst_before.min(before);
        best_after = best_after.max(after);
        table.row(vec![
            n.to_string(),
            fmt_pct(before),
            fmt_pct(after),
            fmt_pct(opt),
            outcome.iterations.to_string(),
        ]);
    }
    report.section("improvement over the default allocation", table);
    report.note(format!(
        "refinement improves on the initial recommendation everywhere and tracks the \
         optimum (before min {}, after max {}). Deviation from the paper: our \
         pre-refinement improvements stay positive because workload-length differences \
         already dominate the initial estimates, while the paper's misestimates were \
         severe enough to go negative — the *correction direction and convergence* \
         match",
        fmt_pct(worst_before),
        fmt_pct(best_after)
    ));
    report
}

/// Fig. 28 — Db2Sim refined CPU allocations.
pub fn run_fig28() -> Report {
    refined_allocations("fig28", EngineChoice::Db2)
}

/// Fig. 29 — PgSim refined CPU allocations.
pub fn run_fig29() -> Report {
    refined_allocations("fig29", EngineChoice::Pg)
}

/// Fig. 30 — Db2Sim improvements with refinement.
pub fn run_fig30() -> Report {
    refinement_improvements("fig30", EngineChoice::Db2)
}

/// Fig. 31 — PgSim improvements with refinement.
pub fn run_fig31() -> Report {
    refinement_improvements("fig31", EngineChoice::Pg)
}

// ---- §7.9: multiple resources --------------------------------------

fn sort_advisor(n: usize) -> VirtualizationDesignAdvisor {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(10.0);
    let mut rng = random::rng(0xF1632);
    let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
    for i in 0..n {
        let w = random::sort_sensitive_workload(&mut rng, i);
        adv.add_tenant(
            Tenant::new(format!("W{i}"), engine.clone(), cat.clone(), w).expect("workloads bind"),
            QoS::default(),
        );
    }
    adv.calibrate();
    adv
}

/// Figs. 32/33 — CPU and memory allocations after multi-resource
/// refinement.
pub fn run_fig32_33() -> Report {
    let mut report = Report::new(
        "fig32",
        "CPU & memory allocation after refinement of M=2 resources (Db2Sim, SF10)",
    );
    let space = SearchSpace::cpu_and_memory();
    let mut cpu_table = Table::new(
        std::iter::once("N".to_string())
            .chain((0..8).map(|i| format!("W{i}")))
            .collect::<Vec<_>>(),
    );
    let mut mem_table = cpu_table.clone();
    for n in [2usize, 4, 6, 8] {
        let adv = sort_advisor(n);
        let rec = adv.recommend(&space);
        let (outcome, _) =
            adv.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
        let mut crow = vec![n.to_string()];
        let mut mrow = vec![n.to_string()];
        for i in 0..8 {
            if i < n {
                crow.push(fmt_f(outcome.final_allocations[i].get(Resource::Cpu), 2));
                mrow.push(fmt_f(outcome.final_allocations[i].get(Resource::Memory), 2));
            } else {
                crow.push(String::new());
                mrow.push(String::new());
            }
        }
        cpu_table.row(crow);
        mem_table.row(mrow);
    }
    report.section("Fig. 32: refined CPU shares", cpu_table);
    report.section("Fig. 33: refined memory shares", mem_table);
    report.note(
        "refinement compensates for the optimizer's underestimated sort-heap benefit; \
         memory shifts toward the sort-heavy (Q4+Q18) workloads"
            .to_string(),
    );
    report
}

/// Fig. 34 — improvements with multi-resource refinement.
pub fn run_fig34() -> Report {
    let mut report = Report::new(
        "fig34",
        "Actual improvement with refinement of M=2 resources (Db2Sim, SF10)",
    );
    let space = SearchSpace::cpu_and_memory();
    let mut table = Table::new(vec![
        "N",
        "before refinement",
        "after refinement",
        "iterations",
    ]);
    let mut best_after = f64::NEG_INFINITY;
    let mut improved_all = true;
    for n in [2usize, 4, 6, 8] {
        let adv = sort_advisor(n);
        let rec = adv.recommend(&space);
        let before = adv.actual_improvement(&space, &rec.result.allocations);
        let (outcome, _) =
            adv.refine_recommendation(&space, &rec.result.allocations, &RefineOptions::default());
        let after = adv.actual_improvement(&space, &outcome.final_allocations);
        best_after = best_after.max(after);
        improved_all &= after >= before - 1e-9;
        table.row(vec![
            n.to_string(),
            fmt_pct(before),
            fmt_pct(after),
            outcome.iterations.to_string(),
        ]);
    }
    report.section("improvement over the default allocation", table);
    report.note(format!(
        "refinement never hurts: {improved_all}; best improvement {} (paper: up to ~38%)",
        fmt_pct(best_after)
    ));
    report
}
