//! Figure 2 — the motivating example (§1).
//!
//! Two VMs on one server: PostgreSQL running 1×Q17 and DB2 running
//! 1×Q18, both over 10 GB TPC-H databases. Starting from the default
//! 50 %/50 % split, the advisor recommends shifting most of the CPU
//! and memory to the DB2 VM (the paper recommends 15 %/20 % CPU/memory
//! for PostgreSQL and 85 %/80 % for DB2): the PostgreSQL workload is
//! I/O-bound in this environment and barely degrades, while the DB2
//! workload is CPU-bound and speeds up massively, for an overall
//! improvement around 24 %.

use crate::harness::{fmt_f, fmt_pct, Report, Table};
use crate::setups;
use vda_core::problem::{QoS, SearchSpace};
use vda_core::tenant::Tenant;
use vda_workloads::tpch;

/// Run the experiment.
pub fn run() -> Report {
    let mut report = Report::new(
        "fig2",
        "Motivating example: PostgreSQL 1xQ17 vs DB2 1xQ18 on 10 GB TPC-H",
    );
    let cat = setups::sf(10.0);
    let pg = Tenant::new(
        "postgresql-Q17",
        setups::EngineChoice::Pg.engine(),
        cat.clone(),
        tpch::query_workload(17, 1.0),
    )
    .expect("Q17 binds");
    let db2 = Tenant::new(
        "db2-Q18",
        setups::EngineChoice::Db2.engine(),
        cat,
        tpch::query_workload(18, 1.0),
    )
    .expect("Q18 binds");
    let adv = setups::advisor_from_tenants(vec![(pg, QoS::default()), (db2, QoS::default())]);

    let space = SearchSpace::cpu_and_memory();
    let rec = adv.recommend(&space);
    let default = adv.default_allocations(&space);

    let mut alloc_table = Table::new(vec!["VM", "CPU share", "memory share"]);
    for (name, a) in [
        ("postgresql-Q17", rec.result.allocations[0]),
        ("db2-Q18", rec.result.allocations[1]),
    ] {
        alloc_table.row(vec![
            name.to_string(),
            fmt_f(a.cpu(), 2),
            fmt_f(a.memory(), 2),
        ]);
    }
    report.section("recommended configuration", alloc_table);

    let mut rt = Table::new(vec!["workload", "default (s)", "recommended (s)", "change"]);
    let mut t_def = 0.0;
    let mut t_rec = 0.0;
    for (i, name) in ["postgresql-Q17", "db2-Q18"].iter().enumerate() {
        let d = adv.actual_cost(i, default[i]);
        let r = adv.actual_cost(i, rec.result.allocations[i]);
        t_def += d;
        t_rec += r;
        rt.row(vec![
            name.to_string(),
            fmt_f(d, 0),
            fmt_f(r, 0),
            fmt_pct((d - r) / d),
        ]);
    }
    rt.row(vec![
        "TOTAL".to_string(),
        fmt_f(t_def, 0),
        fmt_f(t_rec, 0),
        fmt_pct((t_def - t_rec) / t_def),
    ]);
    report.section("actual execution times (Fig. 2)", rt);

    let pg_alloc = rec.result.allocations[0];
    let db2_alloc = rec.result.allocations[1];
    report.note(format!(
        "paper: pg gets 15% CPU / 20% memory; measured: {:.0}% / {:.0}%",
        pg_alloc.cpu() * 100.0,
        pg_alloc.memory() * 100.0
    ));
    report.note(format!(
        "CPU direction matches the paper (db2 wins CPU: {}); the memory split differs \
         by design: our simulated Q17 runs as an index-probe storm whose heap fetches \
         benefit from cache residency, while the paper's PostgreSQL plan was scan-bound \
         and memory-insensitive",
        db2_alloc.cpu() > pg_alloc.cpu(),
    ));
    report.note(format!(
        "overall improvement {} (paper: ~24%)",
        fmt_pct((t_def - t_rec) / t_def)
    ));
    report
}
