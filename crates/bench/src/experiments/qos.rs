//! Figures 19–20 — QoS metrics: degradation limits and benefit gain
//! factors (§7.5).
//!
//! Five identical workloads `W9..W13`, each one C unit on Db2Sim. The
//! symmetric optimum is a 20 % share each; QoS settings on W9/W10 bend
//! the recommendation:
//!
//! * Fig. 19: `L9` sweeps 1.5–4.5 with `L10 = 2.5`. At `L9 = 1.5` the
//!   constraints are infeasible (the paper's advisor "was not able to
//!   meet all of the required constraints"); for looser settings both
//!   limits hold, at the price of higher degradation for W11–W13.
//! * Fig. 20: `G9` sweeps 1–10 with `G10 = 4`. W10 receives the most
//!   CPU until `G9 ≥ 5`, where W9 overtakes it.

use crate::harness::{fmt_f, Report, Table};
use crate::setups::{self, EngineChoice, FIXED_512MB_SHARE};
use vda_core::problem::{QoS, SearchSpace};

fn space() -> SearchSpace {
    SearchSpace::cpu_only(FIXED_512MB_SHARE)
}

/// Fig. 19 — degradation limits.
pub fn run_fig19() -> Report {
    let mut report = Report::new(
        "fig19",
        "Effect of degradation limit L9 (Db2Sim): five identical 1C workloads, L10=2.5",
    );
    let engine = setups::engine_fixed_memory(EngineChoice::Db2);
    let cat = setups::sf(1.0);
    let (c, _) = setups::cpu_units(&engine, &cat);

    let mut table = Table::new(vec![
        "L9",
        "deg W9",
        "deg W10",
        "deg W11",
        "deg W12",
        "deg W13",
        "limits met",
    ]);
    let mut met_at: Vec<(f64, bool)> = Vec::new();
    let mut others_degrade_more = true;
    for &l9 in &[1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5] {
        let qos = [
            QoS::with_limit(l9),
            QoS::with_limit(2.5),
            QoS::default(),
            QoS::default(),
            QoS::default(),
        ];
        let workloads: Vec<_> = (0..5)
            .map(|i| c.times(1.0).named(format!("W{}", 9 + i)))
            .collect();
        let adv = setups::advisor_with_qos(
            &engine,
            &cat,
            workloads.into_iter().zip(qos.iter().copied()).collect(),
        );
        let rec = adv.recommend(&space());
        // Degradation = est cost at recommendation / est cost at full
        // allocation.
        let solo = space().solo_allocation();
        let mut row = vec![fmt_f(l9, 1)];
        let mut degs = [0.0; 5];
        #[allow(clippy::needless_range_loop)] // fixed five-workload sweep
        for i in 0..5 {
            let est = adv.estimator(i);
            degs[i] = rec.result.costs[i] / est.cost(solo);
            row.push(fmt_f(degs[i], 2));
        }
        met_at.push((l9, rec.result.limits_met[0] && rec.result.limits_met[1]));
        others_degrade_more &= degs[2..].iter().all(|&d| d >= degs[0] && d >= degs[1]);
        row.push(format!(
            "W9:{} W10:{}",
            rec.result.limits_met[0], rec.result.limits_met[1]
        ));
        table.row(row);
    }
    report.section("degradation per workload vs L9", table);
    report.note(format!(
        "limits met per L9: {met_at:?} (paper: infeasible at L9=1.5, met for all looser \
         settings; our simulated cost curves are shallow enough that even 1.5 is \
         attainable by starving W11-W13)"
    ));
    report.note(format!(
        "constrained workloads are protected at the expense of the unconstrained ones \
         in every setting: {others_degrade_more} (paper: 'at the cost of higher \
         degradation for the other workloads')"
    ));
    report
}

/// Fig. 20 — benefit gain factors.
pub fn run_fig20() -> Report {
    let mut report = Report::new(
        "fig20",
        "Effect of gain factor G9 (Db2Sim): five identical 1C workloads, G10=4",
    );
    let engine = setups::engine_fixed_memory(EngineChoice::Db2);
    let cat = setups::sf(1.0);
    let (c, _) = setups::cpu_units(&engine, &cat);

    let mut table = Table::new(vec!["G9", "CPU W9", "CPU W10", "CPU W11-13 (avg)"]);
    let mut w9_shares = Vec::new();
    let mut w10_shares = Vec::new();
    for g9 in 1..=10 {
        let qos = [
            QoS::with_gain(g9 as f64),
            QoS::with_gain(4.0),
            QoS::default(),
            QoS::default(),
            QoS::default(),
        ];
        let workloads: Vec<_> = (0..5)
            .map(|i| c.times(1.0).named(format!("W{}", 9 + i)))
            .collect();
        let adv = setups::advisor_with_qos(
            &engine,
            &cat,
            workloads.into_iter().zip(qos.iter().copied()).collect(),
        );
        let rec = adv.recommend(&space());
        let a = &rec.result.allocations;
        let rest = (a[2].cpu() + a[3].cpu() + a[4].cpu()) / 3.0;
        w9_shares.push(a[0].cpu());
        w10_shares.push(a[1].cpu());
        table.row(vec![
            g9.to_string(),
            fmt_f(a[0].cpu(), 2),
            fmt_f(a[1].cpu(), 2),
            fmt_f(rest, 2),
        ]);
    }
    report.section("CPU shares vs G9", table);
    let crossover = w9_shares
        .iter()
        .zip(&w10_shares)
        .position(|(w9, w10)| w9 >= w10)
        .map(|p| p + 1);
    report.note(format!(
        "W10 leads for small G9; W9 overtakes at G9 = {crossover:?} (paper: G9 >= 5)"
    ));
    report.note(format!(
        "W9's share is non-decreasing in G9: {}",
        w9_shares.windows(2).all(|w| w[1] >= w[0] - 1e-9)
    ));
    report
}
