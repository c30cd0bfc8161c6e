//! Property tests for warm-started incremental re-optimization:
//! across arbitrary drift sequences, every period's warm-started
//! coarse-to-fine solve must match a cold coarse-to-fine solve *and*
//! the full-grid DP — objective, allocations, and `limits_met`, within
//! 1e-9 — including drifts that throw the optimum across coarse-cell
//! boundaries and periods whose degradation limits are jointly
//! infeasible.

use proptest::prelude::*;
use vda::core::costmodel::{CostModel, FnCostModel};
use vda::core::enumerate::{
    coarse_to_fine_search_warm, try_coarse_to_fine_search_with, try_exhaustive_search_with,
    CoarseToFineOptions, SearchOptions, WarmStart,
};
use vda::core::problem::{Allocation, QoS, SearchSpace};

/// Calibration-identity stand-in: constant because the drift tests
/// never recalibrate (workload drift is carried by the fingerprints).
const SALT: u64 = 0x5eed;

/// Per-workload convex coefficients (α for CPU, β for memory, γ flat).
fn coeffs(n: usize) -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    proptest::collection::vec((0.1f64..30.0, 0.1f64..30.0, 0.1f64..5.0), n)
}

/// Random QoS regimes: mixed gains, limits absent / loose / tight.
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

fn boxed<S: Strategy + 'static>(s: S) -> proptest::BoxedStrategy<S::Value> {
    proptest::boxed(s)
}

/// Workload `i`'s model at drift scale `s`: the CPU term scales, so a
/// drift moves both the optimum *and* the degradation boundary (a
/// pure whole-cost scaling would leave the degradation ratio — and
/// with it every limit verdict — untouched).
fn models(coeffs: &[(f64, f64, f64)], scales: &[f64]) -> Vec<impl CostModel> {
    coeffs
        .iter()
        .zip(scales)
        .map(|(&(alpha, beta, gamma), &s)| {
            FnCostModel::new(move |a: Allocation| s * alpha / a.cpu() + beta / a.memory() + gamma)
        })
        .collect()
}

/// One period: warm solve against the drift state, cold solve, full
/// grid — all three must agree on objective, allocations, and limit
/// verdicts within 1e-9.
fn check_period<M: CostModel>(
    space: &SearchSpace,
    qos: &[QoS],
    models: &[M],
    opts: &CoarseToFineOptions,
    fingerprints: &[u64],
    warm: &mut WarmStart,
    period: usize,
) {
    let serial = SearchOptions::serial();
    let warm_r =
        coarse_to_fine_search_warm(space, qos, models, opts, &serial, SALT, fingerprints, warm)
            .expect("grid hosts the workloads");
    let cold_r = try_coarse_to_fine_search_with(space, qos, models, opts, &serial)
        .expect("c2f is None only when exhaustive is");
    let full_r =
        try_exhaustive_search_with(space, qos, models, &serial).expect("grid hosts the workloads");
    for (name, other) in [("cold c2f", &cold_r), ("full grid", &full_r)] {
        prop_assert!(
            (warm_r.weighted_cost - other.weighted_cost).abs() <= 1e-9,
            "period {period}: warm {} vs {name} {}",
            warm_r.weighted_cost,
            other.weighted_cost
        );
        prop_assert_eq!(
            &warm_r.limits_met,
            &other.limits_met,
            "period {}: warm limit verdicts diverge from {}",
            period,
            name
        );
        for (i, (w, o)) in warm_r
            .allocations
            .iter()
            .zip(&other.allocations)
            .enumerate()
        {
            prop_assert!(
                (w.cpu() - o.cpu()).abs() <= 1e-9 && (w.memory() - o.memory()).abs() <= 1e-9,
                "period {period}, workload {i}: warm {w:?} vs {name} {o:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CPU-only drift sequences: each period rescales one workload by
    /// a moderate factor; warm solves must track cold and full-grid
    /// answers period over period. A period whose fingerprints differ
    /// from the previous one's cold-solves; a repeat is a memo hit.
    #[test]
    fn warm_tracks_random_drift_sequences(
        cs in coeffs(5),
        qos in qos_regimes(5),
        n in 2usize..=5,
        drifts in proptest::collection::vec((0usize..8, 0.3f64..3.0), 1..5),
    ) {
        let space = SearchSpace::cpu_only(0.5); // δ = 0.05
        let cs = &cs[..n];
        let qos = &qos[..n];
        let opts = CoarseToFineOptions::auto(&space, n);
        let mut warm = WarmStart::new();
        let mut scales = vec![1.0f64; n];
        let mut changed_periods = 0;
        let mut previous: Option<Vec<u64>> = None;
        for (period, &(idx, factor)) in std::iter::once(&(0, 1.0)).chain(&drifts).enumerate() {
            scales[idx % n] *= factor;
            let models = models(cs, &scales);
            let fingerprints: Vec<u64> = scales.iter().map(|s| s.to_bits()).collect();
            check_period(&space, qos, &models, &opts, &fingerprints, &mut warm, period);
            // The same period again must be a hit with the same answer.
            check_period(&space, qos, &models, &opts, &fingerprints, &mut warm, period);
            if previous.as_ref() != Some(&fingerprints) {
                changed_periods += 1;
            }
            previous = Some(fingerprints);
        }
        prop_assert!(warm.is_warm());
        prop_assert_eq!(
            warm.cold_solves(),
            changed_periods,
            "one cold solve per changed period, hits otherwise"
        );
    }

    /// Violent drifts (×10–×100 up or down) throw the optimum across
    /// coarse-cell boundaries; the warm path must still land on the
    /// cold answer, never on the previous period's memoized one.
    #[test]
    fn warm_survives_coarse_cell_boundary_crossings(
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
        let mut warm = WarmStart::new();
        let mut scales = vec![1.0f64; n];
        for (period, &(idx, factor)) in std::iter::once(&(0, 1.0)).chain(&drifts).enumerate() {
            scales[idx % n] *= factor;
            let models = models(cs, &scales);
            let fingerprints: Vec<u64> = scales.iter().map(|s| s.to_bits()).collect();
            check_period(&space, qos, &models, &opts, &fingerprints, &mut warm, period);
        }
    }

    /// Joint CPU+memory grids: drift sequences over the 2-D lattice
    /// agree with cold and full-grid answers too.
    #[test]
    fn warm_tracks_drift_on_joint_grids(
        cs in coeffs(3),
        qos in qos_regimes(3),
        n in 2usize..=3,
        drifts in proptest::collection::vec((0usize..8, 0.2f64..5.0), 1..4),
    ) {
        let space = SearchSpace::cpu_and_memory(); // δ = 0.05
        let cs = &cs[..n];
        let qos = &qos[..n];
        let opts = CoarseToFineOptions::auto(&space, n);
        let mut warm = WarmStart::new();
        let mut scales = vec![1.0f64; n];
        for (period, &(idx, factor)) in std::iter::once(&(0, 1.0)).chain(&drifts).enumerate() {
            scales[idx % n] *= factor;
            let models = models(cs, &scales);
            let fingerprints: Vec<u64> = scales.iter().map(|s| s.to_bits()).collect();
            check_period(&space, qos, &models, &opts, &fingerprints, &mut warm, period);
        }
    }
}

/// A drift sequence that passes through a jointly-infeasible period:
/// the warm path must flag the infeasibility exactly like the cold and
/// full-grid searches (best-effort allocation, `limits_met` flags
/// false) and recover to the feasible optimum — not a stale cached
/// answer — once the drift reverts. A repeat of the last period is a
/// memo hit.
#[test]
fn jointly_infeasible_periods_are_flagged_and_recovered_from() {
    let space = SearchSpace::cpu_only(0.5);
    let qos = vec![QoS::with_limit(1.05), QoS::with_limit(1.05)];
    let cs = vec![(10.0, 0.0, 1.0), (10.0, 0.0, 1.0)];
    let opts = CoarseToFineOptions::auto(&space, 2);
    let mut warm = WarmStart::new();
    // s = 0.002: each workload stays within 1.05× of solo cost from
    // ~0.28 CPU share up — two fit. s = 1.0: workload 0 needs ~0.95 —
    // jointly infeasible with workload 1's ~0.28.
    for (period, scales) in [
        [0.002, 0.002],
        [1.0, 0.002], // infeasible period
        [0.002, 0.002],
        [0.002, 0.002], // repeat: a hit
    ]
    .iter()
    .enumerate()
    {
        let models = models(&cs, scales);
        let fingerprints: Vec<u64> = scales.iter().map(|s| s.to_bits()).collect();
        check_period(
            &space,
            &qos,
            &models,
            &opts,
            &fingerprints,
            &mut warm,
            period,
        );
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
    assert_eq!(warm.cold_solves(), 3);
}
