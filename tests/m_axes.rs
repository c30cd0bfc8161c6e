//! M-axis equivalence pins.
//!
//! Two contracts guard the `ResourceVector` redesign:
//!
//! 1. **Legacy pin** — the M-axis DP restricted to the paper's
//!    `{Cpu, Memory}` axes reproduces the historical 2-axis
//!    implementation **bit-identically**: objectives, allocations,
//!    per-workload costs, `limits_met`, *and* optimizer-call counts,
//!    across random QoS/penalty regimes. The reference below is a
//!    frozen copy of the pre-redesign `grid_search` (hard-coded
//!    `(cpu units, memory units)` tuples, the same lexicographic DP
//!    and reconstruction, the same batch-level probe accounting).
//! 2. **3-axis ≡ full grid** — with the disk axis open, the exact
//!    M-axis DP equals brute-force composition enumeration, and
//!    coarse-to-fine refinement equals the full-grid DP, at small N.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use vda::core::costmodel::FnCostModel;
use vda::core::enumerate::{
    coarse_to_fine_search_with, try_exhaustive_search_with, CoarseToFineOptions, SearchOptions,
};
use vda::core::problem::{Allocation, AxisSet, QoS, Resource, ResourceVector, SearchSpace};

// ---------------------------------------------------------------------
// The frozen legacy 2-axis reference.
// ---------------------------------------------------------------------

/// The legacy search-space description: two hard-coded axes.
#[derive(Clone, Copy)]
struct LegacySpace {
    vary_cpu: bool,
    vary_memory: bool,
    fixed: (f64, f64),
    delta: f64,
    min_share: f64,
}

/// What the legacy DP returned (trace fields omitted — exhaustive
/// search never produced them).
struct LegacyOutcome {
    weighted_cost: f64,
    allocations: Vec<(f64, f64)>,
    costs: Vec<f64>,
    limits_met: Vec<bool>,
    /// Cost-function invocations, one per probe, as the batch
    /// evaluator issues them.
    calls: u64,
}

/// Frozen copy of the pre-redesign full-grid DP (`grid_search` with
/// `allowed = None`): per-workload option tables over the
/// `(cpu units, memory units)` product range, a lexicographic
/// (unmet limits, weighted cost) DP over the 2-D remaining-budget
/// lattice, and greedy reconstruction by re-derivation.
fn legacy_exhaustive(
    space: &LegacySpace,
    qos: &[QoS],
    cost: &dyn Fn(usize, f64, f64) -> f64,
) -> Option<LegacyOutcome> {
    const LIMIT_EPS: f64 = 1e-9;
    let within_limit = |c: f64, limit: f64, full: f64| -> bool { c <= limit * full + LIMIT_EPS };
    let n = qos.len();
    let mut calls = 0u64;

    let units_total = (1.0 / space.delta).round() as usize;
    let min_units = (space.min_share / space.delta).round().max(1.0) as usize;
    if units_total < n * min_units {
        return None;
    }
    let (min_units, max_units) = (min_units, units_total - (n - 1) * min_units);
    let delta = space.delta;

    let solo = (
        if space.vary_cpu { 1.0 } else { space.fixed.0 },
        if space.vary_memory {
            1.0
        } else {
            space.fixed.1
        },
    );
    let full_cost: Vec<f64> = (0..n)
        .map(|i| {
            calls += 1;
            cost(i, solo.0, solo.1)
        })
        .collect();

    let vary_cpu = space.vary_cpu;
    let vary_mem = space.vary_memory;
    let cpu_budget = if vary_cpu { units_total } else { 0 };
    let mem_budget = if vary_mem { units_total } else { 0 };

    let alloc_for = |cu: usize, mu: usize| -> (f64, f64) {
        (
            if vary_cpu {
                cu as f64 * delta
            } else {
                space.fixed.0
            },
            if vary_mem {
                mu as f64 * delta
            } else {
                space.fixed.1
            },
        )
    };

    // Full product cells, cpu-major ascending (the legacy
    // `product_cells` order).
    let cpu_axis: Vec<usize> = if vary_cpu {
        (min_units..=max_units).collect()
    } else {
        vec![0]
    };
    let mem_axis: Vec<usize> = if vary_mem {
        (min_units..=max_units).collect()
    } else {
        vec![0]
    };
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for &cu in &cpu_axis {
        for &mu in &mem_axis {
            cells.push((cu, mu));
        }
    }

    struct Cell {
        units: (usize, usize),
        cost: f64,
        weighted: f64,
        within_limit: bool,
    }
    let tables: Vec<Vec<Cell>> = (0..n)
        .map(|i| {
            cells
                .iter()
                .map(|&(cu, mu)| {
                    let (c, m) = alloc_for(cu, mu);
                    calls += 1;
                    let v = cost(i, c, m);
                    Cell {
                        units: (cu, mu),
                        cost: v,
                        weighted: qos[i].gain * v,
                        within_limit: within_limit(v, qos[i].degradation_limit, full_cost[i]),
                    }
                })
                .collect()
        })
        .collect();

    const UNREACHABLE: (u32, f64) = (u32::MAX, f64::INFINITY);
    let lex_less = |a: (u32, f64), b: (u32, f64)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1);
    let width = cpu_budget + 1;
    let height = mem_budget + 1;
    let idx = |c: usize, m: usize| c * height + m;
    let mut next: Vec<(u32, f64)> = vec![(0, 0.0); width * height];
    let mut layers: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n + 1);
    layers.push(next.clone());
    for i in (0..n).rev() {
        let mut cur = vec![UNREACHABLE; width * height];
        for c_left in 0..width {
            for m_left in 0..height {
                let mut best = UNREACHABLE;
                for cell in &tables[i] {
                    let (cu, mu) = cell.units;
                    let cu_eff = if vary_cpu { cu } else { 0 };
                    let mu_eff = if vary_mem { mu } else { 0 };
                    if cu_eff <= c_left && mu_eff <= m_left {
                        let rest = next[idx(c_left - cu_eff, m_left - mu_eff)];
                        if rest.0 == u32::MAX {
                            continue;
                        }
                        let v = (
                            rest.0 + u32::from(!cell.within_limit),
                            cell.weighted + rest.1,
                        );
                        if lex_less(v, best) {
                            best = v;
                        }
                    }
                }
                cur[idx(c_left, m_left)] = best;
            }
        }
        layers.push(cur.clone());
        next = cur;
    }
    layers.reverse();

    if layers[0][idx(cpu_budget, mem_budget)].0 == u32::MAX {
        return None;
    }

    let mut c_left = cpu_budget;
    let mut m_left = mem_budget;
    let mut weighted_cost = 0.0;
    let mut allocations = Vec::with_capacity(n);
    let mut costs = Vec::with_capacity(n);
    let mut limits_met = Vec::with_capacity(n);
    let mut chosen_weighted = Vec::with_capacity(n);
    for i in 0..n {
        let target = layers[i][idx(c_left, m_left)];
        let mut found = false;
        for cell in &tables[i] {
            let (cu, mu) = cell.units;
            let cu_eff = if vary_cpu { cu } else { 0 };
            let mu_eff = if vary_mem { mu } else { 0 };
            if cu_eff <= c_left && mu_eff <= m_left {
                let rest = layers[i + 1][idx(c_left - cu_eff, m_left - mu_eff)];
                if rest.0 == u32::MAX {
                    continue;
                }
                let v = (
                    rest.0 + u32::from(!cell.within_limit),
                    cell.weighted + rest.1,
                );
                if v.0 == target.0 && (v.1 - target.1).abs() <= 1e-9 * target.1.abs().max(1.0) {
                    allocations.push(alloc_for(cu, mu));
                    costs.push(cell.cost);
                    limits_met.push(cell.within_limit);
                    chosen_weighted.push(cell.weighted);
                    c_left -= cu_eff;
                    m_left -= mu_eff;
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "legacy reconstruction must find the chosen option");
    }
    for w in chosen_weighted {
        weighted_cost += w;
    }
    Some(LegacyOutcome {
        weighted_cost,
        allocations,
        costs,
        limits_met,
        calls,
    })
}

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

fn coeffs(n: usize) -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    proptest::collection::vec((0.1f64..30.0, 0.1f64..30.0, 0.1f64..5.0), n)
}

fn qos_regimes(n: usize) -> impl Strategy<Value = Vec<QoS>> {
    proptest::collection::vec(
        (
            1.0f64..5.0,
            prop_oneof![Just(f64::INFINITY), proptest::boxed(1.3f64..4.0)],
        ),
        n,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(gain, limit)| QoS {
                gain,
                degradation_limit: limit,
            })
            .collect()
    })
}

/// Which of the two legacy axes vary: cpu-only, memory-only, or both.
fn legacy_axes() -> impl Strategy<Value = (bool, bool)> {
    prop_oneof![Just((true, false)), Just((false, true)), Just((true, true))]
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The M-axis DP restricted to {Cpu, Memory} IS the legacy 2-axis
    /// DP: same objective, allocations, per-workload costs, limit
    /// verdicts, and optimizer-call counts — bit for bit.
    #[test]
    fn m_axis_dp_reproduces_legacy_two_axis_dp_bit_identically(
        coeffs in coeffs(4),
        qos in qos_regimes(4),
        n in 1usize..=4,
        (vary_cpu, vary_memory) in legacy_axes(),
        delta in prop_oneof![Just(0.25), Just(0.2), Just(0.1)],
        fixed_cpu in 0.2f64..1.0,
        fixed_mem in 0.2f64..1.0,
    ) {
        let coeffs = &coeffs[..n];
        let qos = &qos[..n];

        // Legacy side: tuples all the way down.
        let legacy_space = LegacySpace {
            vary_cpu,
            vary_memory,
            fixed: (fixed_cpu, fixed_mem),
            delta,
            min_share: 0.05,
        };
        let legacy_coeffs = coeffs.to_vec();
        let legacy_cost = move |i: usize, cpu: f64, mem: f64| -> f64 {
            let (a, b, c) = legacy_coeffs[i];
            a / cpu + b / mem + c
        };
        let legacy = legacy_exhaustive(&legacy_space, qos, &legacy_cost);

        // M-axis side: the same problem through the vector API.
        let mut axes = AxisSet::EMPTY;
        if vary_cpu {
            axes = axes.with(Resource::Cpu);
        }
        if vary_memory {
            axes = axes.with(Resource::Memory);
        }
        let mut space = SearchSpace::over(axes, ResourceVector::new(fixed_cpu, fixed_mem));
        space.set_delta(delta);
        space.min_share = 0.05;
        let calls = AtomicU64::new(0);
        let models: Vec<_> = coeffs
            .iter()
            .map(|&(a, b, c)| {
                let calls = &calls;
                FnCostModel::new(move |alloc: Allocation| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    a / alloc.cpu() + b / alloc.memory() + c
                })
            })
            .collect();
        let units_total = (1.0 / delta).round() as usize;
        let min_units = (0.05f64 / delta).round().max(1.0) as usize;
        if units_total < n * min_units {
            prop_assert!(legacy.is_none());
        } else {
            let new = try_exhaustive_search_with(&space, qos, &models, &SearchOptions::serial()).unwrap();
            let legacy = legacy.expect("grid hosts the workloads");

            // Bit-identical, not approximately equal.
            prop_assert_eq!(new.weighted_cost, legacy.weighted_cost);
            prop_assert_eq!(&new.costs, &legacy.costs);
            prop_assert_eq!(&new.limits_met, &legacy.limits_met);
            for (a, &(cpu, mem)) in new.allocations.iter().zip(&legacy.allocations) {
                prop_assert_eq!(a.cpu(), cpu);
                prop_assert_eq!(a.memory(), mem);
                // The compat default on the axes the legacy API never
                // had.
                prop_assert_eq!(a.disk(), 1.0);
            }
            prop_assert_eq!(calls.load(Ordering::Relaxed), legacy.calls);
        }
    }

    /// With the disk axis open, the exact M-axis DP and coarse-to-fine
    /// refinement agree with the full grid at small N across random
    /// QoS/penalty regimes (objective within 1e-9 and identical limit
    /// verdicts).
    #[test]
    fn three_axis_c2f_equals_full_grid(
        coeffs in proptest::collection::vec(
            (0.1f64..30.0, 0.1f64..30.0, 0.1f64..30.0, 0.1f64..5.0), 3),
        qos in qos_regimes(3),
        n in 2usize..=3,
    ) {
        let coeffs = &coeffs[..n];
        let qos = &qos[..n];
        let mut space = SearchSpace::cpu_memory_disk();
        space.set_delta(0.05);
        space.min_share = 0.25;
        let models: Vec<_> = coeffs
            .iter()
            .map(|&(a, b, d, c)| {
                FnCostModel::new(move |alloc: Allocation| {
                    a / alloc.cpu() + b / alloc.memory() + d / alloc.disk() + c
                })
            })
            .collect();
        let full = try_exhaustive_search_with(&space, qos, &models, &SearchOptions::serial()).unwrap();
        let c2f = coarse_to_fine_search_with(
            &space,
            qos,
            &models,
            &CoarseToFineOptions::auto(&space, models.len()),
            &SearchOptions::serial(),
        );
        prop_assert!(
            (c2f.weighted_cost - full.weighted_cost).abs()
                <= 1e-9 * full.weighted_cost.abs().max(1.0),
            "c2f {} vs full {}",
            c2f.weighted_cost,
            full.weighted_cost
        );
        prop_assert_eq!(&c2f.limits_met, &full.limits_met);
        for res in [Resource::Cpu, Resource::Memory, Resource::DiskBandwidth] {
            let sum: f64 = c2f.allocations.iter().map(|a| a.get(res)).sum();
            prop_assert!(sum <= 1.0 + 1e-9, "{:?} oversubscribed: {}", res, sum);
        }
    }
}

/// The 3-axis proptest regime has a coarse δ at n = 2 (at n = 3 the
/// auto heuristic correctly finds no coarse grid with enough options
/// and falls back to the full grid — also a valid equivalence case,
/// just not a windowed one).
#[test]
fn three_axis_proptest_regime_has_a_real_coarse_ladder() {
    let mut space = SearchSpace::cpu_memory_disk();
    space.set_delta(0.05);
    space.min_share = 0.25;
    let opts = CoarseToFineOptions::auto(&space, 2);
    assert!(opts.coarse.is_some(), "auto finds no coarse δ at n=2");
}

/// A deterministic three-tenant 3-axis case in a regime with a coarse
/// δ (0.1), so windowed 3-D refinement itself — not the full-grid
/// fallback — is exercised against the full grid.
#[test]
fn three_axis_windowed_refinement_matches_full_grid_at_n3() {
    let mut space = SearchSpace::cpu_memory_disk();
    space.set_delta(0.05);
    space.min_share = 0.2;
    let opts = CoarseToFineOptions::auto(&space, 3);
    assert_eq!(opts.coarse, Some(0.1), "regime must have a coarse δ");
    let coeffs = [(12.0, 2.0, 5.0), (2.0, 9.0, 1.0), (4.0, 4.0, 15.0)];
    let models: Vec<_> = coeffs
        .iter()
        .map(|&(a, b, d)| {
            FnCostModel::new(move |alloc: Allocation| {
                a / alloc.cpu() + b / alloc.memory() + d / alloc.disk() + 1.0
            })
        })
        .collect();
    let qos = vec![QoS::with_limit(2.5), QoS::default(), QoS::with_gain(2.0)];
    let full = try_exhaustive_search_with(&space, &qos, &models, &SearchOptions::serial()).unwrap();
    let c2f = coarse_to_fine_search_with(&space, &qos, &models, &opts, &SearchOptions::serial());
    assert!(
        (c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9 * full.weighted_cost.abs().max(1.0),
        "c2f {} vs full {}",
        c2f.weighted_cost,
        full.weighted_cost
    );
    assert_eq!(c2f.limits_met, full.limits_met);
}

/// Belt-and-braces for the legacy pin: one deterministic scenario with
/// binding limits, checked end to end (so a proptest shrink can never
/// hide a systematic mismatch).
#[test]
fn legacy_pin_holds_on_a_binding_limit_scenario() {
    let qos = vec![QoS::with_limit(1.5), QoS::default(), QoS::with_gain(3.0)];
    let legacy_space = LegacySpace {
        vary_cpu: true,
        vary_memory: true,
        fixed: (1.0, 1.0),
        delta: 0.1,
        min_share: 0.05,
    };
    let coeffs = [(9.0, 2.0, 1.0), (3.0, 7.0, 0.5), (1.0, 1.0, 2.0)];
    let legacy_cost =
        move |i: usize, cpu: f64, mem: f64| coeffs[i].0 / cpu + coeffs[i].1 / mem + coeffs[i].2;
    let legacy = legacy_exhaustive(&legacy_space, &qos, &legacy_cost).unwrap();

    let mut space = SearchSpace::cpu_and_memory();
    space.set_delta(0.1);
    let models: Vec<_> = coeffs
        .iter()
        .map(|&(a, b, c)| {
            FnCostModel::new(move |alloc: Allocation| a / alloc.cpu() + b / alloc.memory() + c)
        })
        .collect();
    let new = try_exhaustive_search_with(&space, &qos, &models, &SearchOptions::serial()).unwrap();
    assert_eq!(new.weighted_cost, legacy.weighted_cost);
    assert_eq!(new.limits_met, legacy.limits_met);
    assert!(new.limits_met[0], "the limit is satisfiable here");
    for (a, &(cpu, mem)) in new.allocations.iter().zip(&legacy.allocations) {
        assert_eq!(a.cpu(), cpu);
        assert_eq!(a.memory(), mem);
    }
}
