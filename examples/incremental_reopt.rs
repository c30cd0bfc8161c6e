//! Incremental re-optimization over a shared probe cache.
//!
//! Two machines each host two tenants. Every monitoring period one
//! tenant drifts (its workload intensifies or relaxes), and only its
//! machine re-solves with [`recommend_c2f`]; the other machine keeps
//! its last placement and pays nothing. The shared [`ProbeCache`]
//! means identical (model, workload, allocation) probes are priced
//! once fleet-wide, so a re-solve pays optimizer calls only for the
//! probes the cache does not hold yet, chiefly the drifted tenant's.
//! The answers are bit-for-bit the same as a cold solve — only the
//! optimizer-call bill shrinks.
//!
//! ```text
//! cargo run --release --example incremental_reopt
//! ```
//!
//! [`recommend_c2f`]: vda::core::VirtualizationDesignAdvisor::recommend_c2f
//! [`ProbeCache`]: vda::core::costmodel::whatif::ProbeCache

use vda::core::costmodel::whatif::ProbeCache;
use vda::core::problem::{AxisSet, QoS, Resource, ResourceVector, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

fn advisor(queries: [usize; 2], limits: [f64; 2]) -> VirtualizationDesignAdvisor {
    let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
    let mut advisor = VirtualizationDesignAdvisor::new(hv);
    for (i, (&q, &limit)) in queries.iter().zip(&limits).enumerate() {
        advisor.add_tenant(
            Tenant::new(
                format!("tenant-{i}-q{q}"),
                Engine::db2(),
                tpch::catalog(1.0),
                tpch::query_workload(q, 1.0 + i as f64),
            )
            .expect("binds"),
            QoS::with_limit(limit),
        );
    }
    advisor.calibrate();
    advisor
}

fn main() {
    // One shared probe cache across the fleet: what-if prices computed
    // on either machine are visible to both.
    let probe = ProbeCache::new();
    let mut fleet = vec![
        advisor([18, 6], [6.0, f64::INFINITY]),
        advisor([21, 7], [4.0, f64::INFINITY]),
    ];
    for adv in &mut fleet {
        adv.attach_probe_cache(probe.clone());
    }

    let space = SearchSpace::over(
        AxisSet::of(&[Resource::Cpu]),
        ResourceVector::full().with(Resource::Memory, 0.5),
    );
    println!(
        "{:<8} {:>10} {:>10} {:>14} {:>12}",
        "period", "m0 calls", "m1 calls", "objectives", "probe hits"
    );
    let mut objectives: Vec<Option<f64>> = vec![None; fleet.len()];
    for period in 1..=6 {
        // One tenant drifts per period; its machine re-solves, and so
        // does a machine never solved yet.
        let machine = (period - 1) % fleet.len();
        let factor = if period <= 3 { 1.3 } else { 1.0 / 1.3 };
        fleet[machine].scale_tenant_workload(0, factor);

        let mut calls = vec![0; fleet.len()];
        for (m, adv) in fleet.iter().enumerate() {
            if m == machine || objectives[m].is_none() {
                let rec = adv.recommend_c2f(&space);
                calls[m] = rec.optimizer_calls;
                objectives[m] = Some(rec.result.weighted_cost);
            }
        }
        println!(
            "{:<8} {:>10} {:>10} {:>6.1} {:>7.1} {:>12}",
            period,
            calls[0],
            calls[1],
            objectives[0].unwrap_or_default(),
            objectives[1].unwrap_or_default(),
            probe.hits(),
        );
    }

    for (i, adv) in fleet.iter().enumerate() {
        let solves = adv.warm_stats().0;
        println!("machine {i}: {solves} solve(s), the other periods kept the last placement");
    }
    println!(
        "probe cache: {} entries, {} hits, {} misses",
        probe.len(),
        probe.hits(),
        probe.misses()
    );
}
