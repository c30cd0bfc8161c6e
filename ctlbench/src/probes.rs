//! Unit-cost probes: time single public operations of one layer on
//! copies of the run's state, after the event phase. They read the
//! plane but never change it, its counters or its cache recency.

use crate::fleet;
use crate::run::median;
use rand::Rng;
use std::collections::HashSet;
use std::hint::black_box;
use vda_core::costmodel::calibration::Calibrator;
use vda_core::costmodel::{Estimate, ProbeCache, WhatIfEstimator};
use vda_core::metrics::Clock;
use vda_core::problem::AllocKey;
use vda_core::{coarse_to_fine_search_with, CoarseToFineOptions, ControlPlane, SearchOptions};
use vda_simdb::optimizer::Optimizer;

/// Machines a probe samples.
const MACHINES: usize = 4;

/// Repetitions of the probes that copy the probe cache first.
const COPIES: usize = 3;

/// The per-layer unit costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    pub solve_ms: f64,
    pub solve_parallel_ms: f64,
    pub enforce_ms: f64,
    pub retain_ms: f64,
    pub hit_us: f64,
    pub miss_us: f64,
    pub fingerprint_us: f64,
    pub fit_ms: f64,
    pub plan_us: f64,
}

/// Mean wall time of `f` over `n` calls, in microseconds.
fn per_call_us(clock: &Clock, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = clock.now_ms();
    for i in 0..n {
        f(i);
    }
    (clock.now_ms() - start) * 1e3 / n as f64
}

fn copy_of(rows: &[(u64, u64, AllocKey, Estimate)]) -> ProbeCache {
    let copy = ProbeCache::new();
    copy.import(rows);
    copy
}

/// Measure every unit cost. `batch_rows` is how many probe rows one
/// decision adds (its misses): the eviction probe starts that far over
/// the cap, as the plane's cache does after a decision.
pub fn measure(plane: &ControlPlane, seed: u64, clock: &Clock, batch_rows: u64) -> UnitCosts {
    let mut rng = fleet::rng(seed, fleet::PROBE_STREAM);
    let sample: Vec<usize> = (0..MACHINES)
        .map(|_| {
            let count = plane.machine_count();
            let start = rng.random_range(0..count);
            (0..count)
                .map(|i| (start + i) % count)
                .find(|&m| plane.machine(m).tenant_count() > 0)
                .expect("a fleet with tenants")
        })
        .collect();
    let rows = plane.probe_cache().export();
    let cache = copy_of(&rows);

    // Coarse-to-fine solves over the copied cache: the re-solve and
    // reconcile-pricing unit, serial and with the nested fan-out.
    let solve = |options: SearchOptions| -> f64 {
        let mut times = Vec::new();
        for &m in &sample {
            let adv = plane.machine(m);
            let n = adv.tenant_count();
            for _ in 0..2 {
                let estimators: Vec<WhatIfEstimator<'_>> = (0..n)
                    .map(|i| {
                        WhatIfEstimator::with_probe_cache(
                            adv.tenant(i),
                            adv.model(i),
                            cache.clone(),
                        )
                    })
                    .collect();
                let space = plane.space(m);
                let c2f = CoarseToFineOptions::auto(space, n);
                let start = clock.now_ms();
                black_box(coarse_to_fine_search_with(
                    space,
                    adv.qos(),
                    &estimators,
                    &c2f,
                    &options,
                ));
                times.push(clock.now_ms() - start);
            }
        }
        median(&times)
    };
    let solve_ms = solve(SearchOptions::serial());
    let solve_parallel_ms = solve(SearchOptions::parallel());

    // Cached and uncached what-if estimates at placed allocations.
    let placed: Vec<(usize, usize, vda_core::Allocation)> = sample
        .iter()
        .flat_map(|&m| {
            let result = plane.placements()[m]
                .as_ref()
                .expect("non-empty machines are placed");
            result
                .allocations
                .iter()
                .enumerate()
                .map(move |(i, &a)| (m, i, a))
        })
        .collect();
    let cached: Vec<(WhatIfEstimator<'_>, vda_core::Allocation)> = placed
        .iter()
        .map(|&(m, i, a)| {
            let adv = plane.machine(m);
            let est = WhatIfEstimator::with_probe_cache(adv.tenant(i), adv.model(i), cache.clone());
            (est, a)
        })
        .collect();
    let hit_us = per_call_us(clock, 20_000, |k| {
        let (est, a) = &cached[k % cached.len()];
        black_box(est.estimate(*a));
    });
    drop(cached);
    let uncached: Vec<(WhatIfEstimator<'_>, vda_core::Allocation)> = placed
        .iter()
        .map(|&(m, i, a)| {
            let adv = plane.machine(m);
            (
                WhatIfEstimator::without_cache(adv.tenant(i), adv.model(i)),
                a,
            )
        })
        .collect();
    let miss_us = per_call_us(clock, 500, |k| {
        let (est, a) = &uncached[k % uncached.len()];
        black_box(est.estimate(*a));
    });
    drop(cache);

    // Cache upkeep: eviction one decision's rows over the cap (a no-op
    // when the plane runs unbounded), and the prune's cache side.
    let capacity = plane.probe_cache().capacity();
    let enforce_ms = median(
        &(0..COPIES)
            .map(|_| {
                let copy = copy_of(&rows);
                if capacity > 0 {
                    copy.set_capacity(copy.len().saturating_sub(batch_rows as usize).max(1));
                }
                let start = clock.now_ms();
                black_box(copy.enforce_capacity());
                clock.now_ms() - start
            })
            .collect::<Vec<_>>(),
    );
    let live_models: HashSet<u64> = (0..plane.machine_count())
        .flat_map(|m| {
            plane
                .machine(m)
                .calibrations()
                .iter()
                .map(|(_, c)| c.fingerprint())
        })
        .collect();
    let live_tenants: HashSet<u64> = (0..plane.machine_count())
        .flat_map(|m| {
            let adv = plane.machine(m);
            (0..adv.tenant_count()).map(move |i| adv.tenant(i).fingerprint())
        })
        .collect();
    let retain_ms = median(
        &(0..COPIES)
            .map(|_| {
                let copy = copy_of(&rows);
                let start = clock.now_ms();
                copy.retain_models(&live_models);
                copy.retain_tenants(&live_tenants);
                clock.now_ms() - start
            })
            .collect::<Vec<_>>(),
    );

    // Calibration: fingerprinting an installed model, and a class fit.
    let adv = plane.machine(sample[0]);
    let model = adv.model(0);
    let fingerprint_us = per_call_us(clock, 2_000, |_| {
        black_box(model.fingerprint());
    });
    let engine = adv.tenant(0).engine.clone();
    let fit_ms = median(
        &(0..5)
            .map(|_| {
                let start = clock.now_ms();
                black_box(
                    Calibrator::with_config(adv.hypervisor(), adv.calibration_config().clone())
                        .calibrate(&engine),
                );
                clock.now_ms() - start
            })
            .collect::<Vec<_>>(),
    );

    // One optimizer call: plan a sampled tenant's statement at its
    // placed allocation.
    let (m, i, alloc) = placed[0];
    let tenant = plane.machine(m).tenant(i);
    let params = plane.machine(m).model(i).params_at(&tenant.engine, alloc);
    let optimizer = Optimizer::new(&tenant.catalog, tenant.engine.factors(&params));
    let statements = tenant.statements();
    let plan_us = per_call_us(clock, 2_000, |k| {
        black_box(optimizer.plan(&statements[k % statements.len()].query));
    });

    UnitCosts {
        solve_ms,
        solve_parallel_ms,
        enforce_ms,
        retain_ms,
        hit_us,
        miss_us,
        fingerprint_us,
        fit_ms,
        plan_us,
    }
}
