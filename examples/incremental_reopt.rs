//! Warm-started incremental re-optimization: each machine memoizes its
//! last solve, backed by a shared probe cache.
//!
//! Two machines each host two tenants. Every monitoring period one
//! tenant drifts (its workload intensifies or relaxes) and both
//! machines re-solve. With [`recommend_c2f_warm`] the machine that did
//! not drift returns its memoized solve at zero optimizer calls, and
//! the drifted one cold-solves; the shared [`ProbeCache`] means
//! identical (model, workload, allocation) probes are priced once
//! fleet-wide, so that cold solve pays optimizer calls only for the
//! probes the cache does not hold yet, chiefly the drifted tenant's.
//! The answers are bit-for-bit the same as a cold solve — only the
//! optimizer-call bill shrinks.
//!
//! ```text
//! cargo run --release --example incremental_reopt
//! ```
//!
//! [`recommend_c2f_warm`]: vda::core::VirtualizationDesignAdvisor::recommend_c2f_warm
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
    for period in 1..=6 {
        // One tenant drifts per period; everyone re-solves.
        let machine = (period - 1) % fleet.len();
        let factor = if period <= 3 { 1.3 } else { 1.0 / 1.3 };
        fleet[machine].scale_tenant_workload(0, factor);

        let recs: Vec<_> = fleet
            .iter()
            .map(|adv| adv.recommend_c2f_warm(&space))
            .collect();
        println!(
            "{:<8} {:>10} {:>10} {:>6.1} {:>7.1} {:>12}",
            period,
            recs[0].optimizer_calls,
            recs[1].optimizer_calls,
            recs[0].result.weighted_cost,
            recs[1].result.weighted_cost,
            probe.hits(),
        );
    }

    for (i, adv) in fleet.iter().enumerate() {
        let cold = adv.warm_stats().0;
        println!("machine {i}: {cold} cold solve(s), the other periods memo hits");
    }
    println!(
        "probe cache: {} entries, {} hits, {} misses",
        probe.len(),
        probe.hits(),
        probe.misses()
    );
}
