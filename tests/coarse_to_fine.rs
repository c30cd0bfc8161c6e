//! Property tests for coarse-to-fine enumeration: windowed refinement
//! must find the same δ-grid objective as the full-grid DP, across
//! random workload mixes and QoS/penalty regimes, and period after
//! period along drift sequences — including drifts that throw the
//! optimum across coarse-cell boundaries and periods whose
//! degradation limits are jointly infeasible.

use proptest::prelude::*;
use vda::core::costmodel::{CostModel, FnCostModel};
use vda::core::enumerate::{
    coarse_to_fine_search_with, greedy_search_with, try_coarse_to_fine_search_with,
    try_exhaustive_search_with, CoarseToFineOptions, SearchOptions,
};
use vda::core::placement::{place_tenants, MachineSpec};
use vda::core::problem::{Allocation, QoS, SearchSpace};

/// Per-workload convex resource-cost coefficients (α for CPU, β for
/// memory, γ flat), the shape real DBMS workload costs take along
/// each resource axis.
fn coeffs(n: usize) -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    proptest::collection::vec((0.1f64..30.0, 0.1f64..30.0, 0.1f64..5.0), n)
}

/// Random QoS regimes: mixed gains, and degradation limits that are
/// sometimes absent, sometimes loose, sometimes tight.
fn qos_regimes(n: usize) -> impl Strategy<Value = Vec<QoS>> {
    proptest::collection::vec(
        (
            1.0f64..5.0,
            prop_oneof![Just(f64::INFINITY), boxed(1.3f64..4.0)],
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

/// Random QoS regimes with *every* degradation limit finite — the
/// regime the limit-aware windowed refinement exists for.
fn finite_qos_regimes(n: usize) -> impl Strategy<Value = Vec<QoS>> {
    proptest::collection::vec((1.0f64..5.0, 1.3f64..4.0), n).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(gain, limit)| QoS {
                gain,
                degradation_limit: limit,
            })
            .collect()
    })
}

fn models(coeffs: &[(f64, f64, f64)]) -> Vec<impl CostModel> {
    coeffs
        .iter()
        .map(|&(alpha, beta, gamma)| {
            FnCostModel::new(move |a: Allocation| alpha / a.cpu() + beta / a.memory() + gamma)
        })
        .collect()
}

fn boxed<S: Strategy + 'static>(s: S) -> proptest::BoxedStrategy<S::Value> {
    proptest::boxed(s)
}

/// Workload `i`'s model at drift scale `s`: the CPU term scales, so a
/// drift moves both the optimum *and* the degradation boundary (a
/// pure whole-cost scaling would leave the degradation ratio — and
/// with it every limit verdict — untouched).
fn drifted_models(coeffs: &[(f64, f64, f64)], scales: &[f64]) -> Vec<impl CostModel> {
    coeffs
        .iter()
        .zip(scales)
        .map(|(&(alpha, beta, gamma), &s)| {
            FnCostModel::new(move |a: Allocation| s * alpha / a.cpu() + beta / a.memory() + gamma)
        })
        .collect()
}

/// One drift period: the coarse-to-fine solve and the full grid agree
/// on objective, allocations, and limit verdicts within 1e-9.
fn check_period<M: CostModel>(
    space: &SearchSpace,
    qos: &[QoS],
    models: &[M],
    opts: &CoarseToFineOptions,
    period: usize,
) {
    let serial = SearchOptions::serial();
    let c2f = try_coarse_to_fine_search_with(space, qos, models, opts, &serial)
        .expect("c2f is None only when exhaustive is");
    let full =
        try_exhaustive_search_with(space, qos, models, &serial).expect("grid hosts the workloads");
    prop_assert!(
        (c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9,
        "period {period}: c2f {} vs full grid {}",
        c2f.weighted_cost,
        full.weighted_cost
    );
    prop_assert_eq!(
        &c2f.limits_met,
        &full.limits_met,
        "period {}: limit verdicts diverge",
        period
    );
    for (i, (c, f)) in c2f.allocations.iter().zip(&full.allocations).enumerate() {
        prop_assert!(
            (c.cpu() - f.cpu()).abs() <= 1e-9 && (c.memory() - f.memory()).abs() <= 1e-9,
            "period {period}, workload {i}: c2f {c:?} vs full grid {f:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CPU-only, fine δ = 0.05 (the paper's grid), N ≤ 6: the windowed
    /// refinement's objective equals the full-grid DP's within 1e-9,
    /// across random QoS/penalty regimes, and the two agree on every
    /// per-workload limit verdict (both searches report jointly
    /// infeasible limits best-effort via `limits_met` — `None` is
    /// reserved for grids that cannot host the workloads at all).
    #[test]
    fn cpu_only_refinement_matches_full_grid(
        cs in coeffs(6),
        qos in qos_regimes(6),
        n in 2usize..=6,
    ) {
        let space = SearchSpace::cpu_only(0.5); // δ = 0.05
        let cs = &cs[..n];
        let qos = &qos[..n];
        let models = models(cs);
        let opts = CoarseToFineOptions::auto(&space, n);
        prop_assert!(opts.coarse.is_some(), "auto must find a coarse level");
        let serial = SearchOptions::serial();
        let full = try_exhaustive_search_with(&space, qos, &models, &serial)
            .expect("δ = 0.05 hosts six workloads");
        let c2f = try_coarse_to_fine_search_with(&space, qos, &models, &opts, &serial)
            .expect("c2f is None only when exhaustive is");
        prop_assert!(
            (full.weighted_cost - c2f.weighted_cost).abs() <= 1e-9,
            "full {} vs c2f {} (n={n}, qos={qos:?})",
            full.weighted_cost,
            c2f.weighted_cost
        );
        prop_assert_eq!(&full.limits_met, &c2f.limits_met, "limit verdicts differ");
    }

    /// Joint CPU+memory grids agree too (N ≤ 4 keeps the full DP
    /// cheap enough for many cases).
    #[test]
    fn joint_grid_refinement_matches_full_grid(
        cs in coeffs(4),
        qos in qos_regimes(4),
        n in 2usize..=4,
    ) {
        let space = SearchSpace::cpu_and_memory(); // δ = 0.05
        let cs = &cs[..n];
        let qos = &qos[..n];
        let models = models(cs);
        let opts = CoarseToFineOptions::auto(&space, n);
        let serial = SearchOptions::serial();
        let full = try_exhaustive_search_with(&space, qos, &models, &serial)
            .expect("δ = 0.05 hosts four workloads");
        let c2f = try_coarse_to_fine_search_with(&space, qos, &models, &opts, &serial)
            .expect("c2f is None only when exhaustive is");
        prop_assert!(
            (full.weighted_cost - c2f.weighted_cost).abs() <= 1e-9,
            "full {} vs c2f {} (n={n}, cs={cs:?}, qos={qos:?})",
            full.weighted_cost,
            c2f.weighted_cost
        );
        prop_assert_eq!(&full.limits_met, &c2f.limits_met, "limit verdicts differ");
    }

    /// The tentpole regime: *every* limit finite, N ≤ 6, δ = 0.05.
    /// The limit-aware windowed path (boundary band + per-window
    /// escalation) must match the full grid's objective within 1e-9
    /// and agree on every `limits_met` flag.
    #[test]
    fn finite_limit_refinement_matches_full_grid(
        cs in coeffs(6),
        qos in finite_qos_regimes(6),
        n in 2usize..=6,
    ) {
        let space = SearchSpace::cpu_only(0.5); // δ = 0.05
        let cs = &cs[..n];
        let qos = &qos[..n];
        let models = models(cs);
        let opts = CoarseToFineOptions::auto(&space, n);
        let serial = SearchOptions::serial();
        let full = try_exhaustive_search_with(&space, qos, &models, &serial)
            .expect("δ = 0.05 hosts six workloads");
        let c2f = try_coarse_to_fine_search_with(&space, qos, &models, &opts, &serial)
            .expect("c2f is None only when exhaustive is");
        prop_assert!(
            (full.weighted_cost - c2f.weighted_cost).abs() <= 1e-9,
            "full {} vs c2f {} (n={n}, qos={qos:?})",
            full.weighted_cost,
            c2f.weighted_cost
        );
        prop_assert_eq!(&full.limits_met, &c2f.limits_met, "limit verdicts differ");
    }

    /// A finer fine grid (δ = 0.01) under one coarse δ of 5 or 10 fine
    /// steps still matches the full-grid DP on unconstrained regimes.
    #[test]
    fn fine_delta_ladder_matches_full_grid(
        cs in coeffs(4),
        coarse in prop_oneof![Just(0.1), Just(0.05)],
        n in 2usize..=4,
    ) {
        let mut space = SearchSpace::cpu_only(0.5);
        space.set_delta(0.01);
        let cs = &cs[..n];
        let qos = vec![QoS::default(); n];
        let models = models(cs);
        let opts = CoarseToFineOptions { coarse: Some(coarse) };
        let full = try_exhaustive_search_with(&space, &qos, &models, &SearchOptions::serial()).unwrap();
        let c2f = coarse_to_fine_search_with(
            &space,
            &qos,
            &models,
            &opts,
            &SearchOptions::serial(),
        );
        prop_assert!(
            (full.weighted_cost - c2f.weighted_cost).abs() <= 1e-9,
            "full {} vs c2f {} (n={n})",
            full.weighted_cost,
            c2f.weighted_cost
        );
    }

    /// The same one-coarse-δ refinement down to δ = 0.01 also survives
    /// finite degradation limits: the limit-aware windows must track
    /// the boundary across a 5- or 10-step refinement hop and still
    /// land on the full-grid optimum with identical limit verdicts.
    #[test]
    fn fine_delta_ladder_matches_full_grid_under_limits(
        cs in coeffs(4),
        qos in finite_qos_regimes(4),
        coarse in prop_oneof![Just(0.1), Just(0.05)],
        n in 2usize..=4,
    ) {
        let mut space = SearchSpace::cpu_only(0.5);
        space.set_delta(0.01);
        let cs = &cs[..n];
        let qos = &qos[..n];
        let models = models(cs);
        let opts = CoarseToFineOptions { coarse: Some(coarse) };
        let serial = SearchOptions::serial();
        let full = try_exhaustive_search_with(&space, qos, &models, &serial)
            .expect("δ = 0.01 hosts four workloads");
        let c2f = try_coarse_to_fine_search_with(&space, qos, &models, &opts, &serial)
            .expect("c2f is None only when exhaustive is");
        prop_assert!(
            (full.weighted_cost - c2f.weighted_cost).abs() <= 1e-9,
            "full {} vs c2f {} (n={n}, qos={qos:?})",
            full.weighted_cost,
            c2f.weighted_cost
        );
        prop_assert_eq!(&full.limits_met, &c2f.limits_met, "limit verdicts differ");
    }

    /// Fleet placement always produces a feasible fleet: every tenant
    /// assigned to a real machine, per-machine shares within budget,
    /// and capacity respected.
    #[test]
    fn placement_is_always_feasible(
        cs in coeffs(8),
        qos in qos_regimes(8),
        n in 2usize..=8,
        k in 2usize..=3,
    ) {
        let space = SearchSpace::cpu_only(0.5);
        let cs = &cs[..n];
        let qos = &qos[..n];
        let models = models(cs);
        let fleet = vec![MachineSpec::reference(space); k];
        let r = place_tenants(&fleet, qos, &models);
        prop_assert!(r.assignment.iter().all(|&m| m < k));
        for m in 0..k {
            let tenants = r.tenants_on(m);
            if let Some(res) = &r.per_machine[m] {
                prop_assert_eq!(res.allocations.len(), tenants.len());
                let total: f64 = res.allocations.iter().map(|a| a.cpu()).sum();
                prop_assert!(total <= 1.0 + 1e-9, "machine {} oversubscribed: {}", m, total);
            } else {
                prop_assert!(tenants.is_empty());
            }
        }
    }
}

/// Regression for the jointly-infeasible panic: the non-`try_` grid
/// paths used to `.expect(...)` when no allocation satisfied every
/// degradation limit, while greedy search reported the same
/// situation gracefully. All three searches must now agree: return a
/// best-effort allocation and flag the violation via `limits_met`.
#[test]
fn jointly_infeasible_limits_never_panic() {
    let mut space = SearchSpace::cpu_only(0.5);
    space.set_delta(0.01);
    // Each workload needs essentially the whole machine to stay within
    // a 1.05× degradation of its solo cost.
    let cs = vec![(10.0, 0.0, 1.0), (10.0, 0.0, 1.0)];
    let models = models(&cs);
    let qos = vec![QoS::with_limit(1.05), QoS::with_limit(1.05)];
    let options = SearchOptions::default();
    let greedy = greedy_search_with(&space, &qos, &models, &options);
    let full = try_exhaustive_search_with(&space, &qos, &models, &options).unwrap();
    let c2f_options = CoarseToFineOptions::auto(&space, models.len());
    let c2f = coarse_to_fine_search_with(&space, &qos, &models, &c2f_options, &options);
    for (name, r) in [("greedy", &greedy), ("exhaustive", &full), ("c2f", &c2f)] {
        assert!(
            r.limits_met.iter().any(|m| !m),
            "{name} must flag the infeasibility: {:?}",
            r.limits_met
        );
        let total: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
        assert!(total <= 1.0 + 1e-9, "{name} oversubscribed: {total}");
    }
    // The grid paths agree with each other exactly.
    assert_eq!(c2f.limits_met, full.limits_met);
    assert!((c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CPU-only drift sequences: each period rescales one workload by
    /// a moderate factor; every period's solve must match the full
    /// grid.
    #[test]
    fn c2f_tracks_random_drift_sequences(
        cs in coeffs(5),
        qos in qos_regimes(5),
        n in 2usize..=5,
        drifts in proptest::collection::vec((0usize..8, 0.3f64..3.0), 1..5),
    ) {
        let space = SearchSpace::cpu_only(0.5); // δ = 0.05
        let cs = &cs[..n];
        let qos = &qos[..n];
        let opts = CoarseToFineOptions::auto(&space, n);
        let mut scales = vec![1.0f64; n];
        for (period, &(idx, factor)) in std::iter::once(&(0, 1.0)).chain(&drifts).enumerate() {
            scales[idx % n] *= factor;
            check_period(&space, qos, &drifted_models(cs, &scales), &opts, period);
        }
    }

    /// Violent drifts (×10–×100 up or down) throw the optimum across
    /// coarse-cell boundaries; each period must still land on the full
    /// grid's answer.
    #[test]
    fn c2f_survives_coarse_cell_boundary_crossings(
        cs in coeffs(4),
        qos in qos_regimes(4),
        n in 2usize..=4,
        drifts in proptest::collection::vec(
            (0usize..8, prop_oneof![0.01f64..0.1, 10.0f64..100.0]),
            1..4,
        ),
    ) {
        let space = SearchSpace::cpu_only(0.5);
        let cs = &cs[..n];
        let qos = &qos[..n];
        let opts = CoarseToFineOptions::auto(&space, n);
        let mut scales = vec![1.0f64; n];
        for (period, &(idx, factor)) in std::iter::once(&(0, 1.0)).chain(&drifts).enumerate() {
            scales[idx % n] *= factor;
            check_period(&space, qos, &drifted_models(cs, &scales), &opts, period);
        }
    }

    /// Joint CPU+memory grids: drift sequences over the 2-D lattice
    /// agree with the full grid too.
    #[test]
    fn c2f_tracks_drift_on_joint_grids(
        cs in coeffs(3),
        qos in qos_regimes(3),
        n in 2usize..=3,
        drifts in proptest::collection::vec((0usize..8, 0.2f64..5.0), 1..4),
    ) {
        let space = SearchSpace::cpu_and_memory(); // δ = 0.05
        let cs = &cs[..n];
        let qos = &qos[..n];
        let opts = CoarseToFineOptions::auto(&space, n);
        let mut scales = vec![1.0f64; n];
        for (period, &(idx, factor)) in std::iter::once(&(0, 1.0)).chain(&drifts).enumerate() {
            scales[idx % n] *= factor;
            check_period(&space, qos, &drifted_models(cs, &scales), &opts, period);
        }
    }
}

/// A drift sequence that passes through a jointly-infeasible period:
/// coarse-to-fine must flag the infeasibility exactly like the full
/// grid (best-effort allocation, `limits_met` flags false) and recover
/// to the feasible optimum once the drift reverts.
#[test]
fn jointly_infeasible_periods_are_flagged_and_recovered_from() {
    let space = SearchSpace::cpu_only(0.5);
    let qos = vec![QoS::with_limit(1.05), QoS::with_limit(1.05)];
    let cs = vec![(10.0, 0.0, 1.0), (10.0, 0.0, 1.0)];
    let opts = CoarseToFineOptions::auto(&space, 2);
    // s = 0.002: each workload stays within 1.05× of solo cost from
    // ~0.28 CPU share up — two fit. s = 1.0: workload 0 needs ~0.95 —
    // jointly infeasible with workload 1's ~0.28.
    for (period, scales) in [[0.002, 0.002], [1.0, 0.002], [0.002, 0.002]]
        .iter()
        .enumerate()
    {
        let models = drifted_models(&cs, scales);
        check_period(&space, &qos, &models, &opts, period);
        let serial = SearchOptions::serial();
        let full = try_exhaustive_search_with(&space, &qos, &models, &serial).unwrap();
        if period == 1 {
            assert!(
                full.limits_met.iter().any(|m| !m),
                "the middle period must be jointly infeasible: {:?}",
                full.limits_met
            );
        } else {
            assert!(
                full.limits_met.iter().all(|&m| m),
                "feasible periods must meet every limit: {:?}",
                full.limits_met
            );
        }
    }
}
