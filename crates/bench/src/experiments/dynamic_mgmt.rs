//! Figures 35–36 — dynamic configuration management (§7.10).
//!
//! Two Db2Sim workloads: W24 (TPC-H DSS) and W25 (TPC-C). Nine
//! monitoring periods; every period the TPC-H workload grows by one
//! workload unit (a *minor* change), and at the end of periods 3 and 7
//! the two workloads swap VMs (a *major* change). Dynamic
//! configuration management detects the major changes through the
//! per-query cost-estimate metric and rebuilds its models, re-tracking
//! the optimal allocation within one period; continuous online
//! refinement drags its stale models along and recovers slowly.

use crate::harness::{fmt_f, fmt_pct, Report, Table};
use crate::setups::{self, EngineChoice};
use vda_core::advisor::VirtualizationDesignAdvisor;
use vda_core::dynamic::{DynamicConfigManager, DynamicOptions, ManagementMode};
use vda_core::problem::{QoS, SearchSpace};
use vda_core::tenant::Tenant;
use vda_workloads::tpch;

const MEM_SHARE: f64 = 0.25;
const PERIODS: usize = 9;

fn space() -> SearchSpace {
    SearchSpace::cpu_only(MEM_SHARE)
}

fn advisor() -> VirtualizationDesignAdvisor {
    let engine = setups::engine_fixed_memory(EngineChoice::Db2);
    let tpch_cat = setups::sf(1.0);
    let tpcc_cat = vda_workloads::tpcc::catalog(10);
    let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
    adv.add_tenant(
        Tenant::new(
            "W24-tpch",
            engine.clone(),
            tpch_cat,
            tpch::query_workload(18, 2.0),
        )
        .expect("tpch binds"),
        QoS::default(),
    );
    adv.add_tenant(
        Tenant::new(
            "W25-tpcc",
            engine,
            tpcc_cat,
            vda_workloads::tpcc::workload(4, 6, setups::TPCC_TXNS_PER_CLIENT),
        )
        .expect("tpcc binds"),
        QoS::default(),
    );
    adv.calibrate();
    adv
}

/// One simulation run under a management mode; returns per-period
/// (cpu share of VM0, cpu share of VM1, actual improvement over the
/// default allocation, decisions).
fn simulate(mode: ManagementMode) -> Vec<(f64, f64, f64, String)> {
    let mut adv = advisor();
    let mut mgr = DynamicConfigManager::new(&adv, space(), DynamicOptions { mode });
    let mut out = Vec::with_capacity(PERIODS);
    for p in 1..=PERIODS {
        // Minor change each period: the TPC-H workload grows by one
        // unit. (A swap may relocate it to the other VM.)
        for i in 0..2 {
            if adv.tenant(i).name.contains("tpch") {
                let grown = {
                    let t = adv.tenant(i);
                    let mut w = t.workload.clone();
                    let unit = tpch::query_workload(18, 1.0);
                    w.merge_scaled(&unit, 1.0);
                    w
                };
                adv.set_tenant_workload(i, grown).expect("tpch grows");
            }
        }
        // Major change: swap the VMs' workloads (databases move with
        // them) after periods 3 and 7.
        if p == 4 || p == 8 {
            adv.swap_tenants(0, 1);
        }

        let report = mgr.process_period(&adv);
        let improvement = adv.actual_improvement(&space(), &report.allocations);
        let decisions = report
            .decisions
            .iter()
            .map(|d| format!("{d:?}"))
            .collect::<Vec<_>>()
            .join("/");
        out.push((
            report.allocations[0].cpu(),
            report.allocations[1].cpu(),
            improvement,
            decisions,
        ));
    }
    out
}

/// Fig. 35 — CPU shares per monitoring period.
pub fn run_fig35() -> Report {
    let mut report = Report::new(
        "fig35",
        "CPU allocation per period: dynamic management vs continuous refinement (Db2Sim)",
    );
    let dynamic = simulate(ManagementMode::Dynamic);
    let continuous = simulate(ManagementMode::ContinuousRefinement);

    let mut table = Table::new(vec![
        "period",
        "dyn VM0",
        "dyn VM1",
        "cont VM0",
        "cont VM1",
        "dynamic decisions",
    ]);
    for p in 0..PERIODS {
        table.row(vec![
            format!(
                "{}{}",
                p + 1,
                if p == 3 || p == 7 { " (post-swap)" } else { "" }
            ),
            fmt_f(dynamic[p].0, 2),
            fmt_f(dynamic[p].1, 2),
            fmt_f(continuous[p].0, 2),
            fmt_f(continuous[p].1, 2),
            dynamic[p].3.clone(),
        ]);
    }
    report.section("CPU shares per monitoring period", table);
    let rebuilds: usize = dynamic
        .iter()
        .enumerate()
        .filter(|(p, d)| (*p == 3 || *p == 7) && d.3.contains("RebuildOnChange"))
        .count();
    report.note(format!(
        "major changes (workload swaps) detected and models rebuilt in both swap periods: {}",
        rebuilds == 2
    ));
    report
}

/// Fig. 36 — improvement per monitoring period.
pub fn run_fig36() -> Report {
    let mut report = Report::new(
        "fig36",
        "Improvement per period: dynamic management vs continuous refinement (Db2Sim)",
    );
    let dynamic = simulate(ManagementMode::Dynamic);
    let continuous = simulate(ManagementMode::ContinuousRefinement);

    let mut table = Table::new(vec!["period", "dynamic", "continuous refinement"]);
    for p in 0..PERIODS {
        table.row(vec![
            format!(
                "{}{}",
                p + 1,
                if p == 3 || p == 7 { " (post-swap)" } else { "" }
            ),
            fmt_pct(dynamic[p].2),
            fmt_pct(continuous[p].2),
        ]);
    }
    report.section("actual improvement over the default allocation", table);
    let post_swap_gap: f64 = [3usize, 7]
        .iter()
        .map(|&p| dynamic[p].2 - continuous[p].2)
        .sum::<f64>()
        / 2.0;
    report.note(format!(
        "after the swaps, dynamic management beats continuous refinement by an average of \
         {:.1} percentage points (paper: continuous refinement 'gave poor recommendations \
         and was not able to recover')",
        post_swap_gap * 100.0
    ));
    report
}
