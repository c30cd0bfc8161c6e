//! Property-based tests over the advisor's core invariants.

use proptest::prelude::*;
use vda::core::costmodel::{CostModel, FnCostModel, RegimeFnCostModel};
use vda::core::enumerate::{greedy_search_with, try_exhaustive_search_with, SearchOptions};
use vda::core::problem::{Allocation, QoS, SearchSpace};
use vda::core::refine::RefinedModel;
use vda::stats::{LinearFit, MultiLinearFit, ReciprocalFit};

/// Strategy: per-workload reciprocal cost coefficients.
fn alphas(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.1f64..50.0, n)
}

/// Reciprocal synthetic cost models `α_i/r + β_i` per workload.
fn reciprocal_models(a: &[f64], betas: &[f64]) -> Vec<impl CostModel> {
    a.iter()
        .zip(betas)
        .map(|(&alpha, &beta)| FnCostModel::new(move |al: Allocation| alpha / al.cpu() + beta))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy allocations are always feasible: shares within bounds and
    /// summing to at most 1 per varied resource.
    #[test]
    fn greedy_is_always_feasible(a in alphas(4), betas in alphas(4)) {
        let space = SearchSpace::cpu_only(0.5);
        let models = reciprocal_models(&a, &betas);
        let r = greedy_search_with(&space, &[QoS::default(); 4], &models, &SearchOptions::default());
        let total: f64 = r.allocations.iter().map(|al| al.cpu()).sum();
        prop_assert!(total <= 1.0 + 1e-9);
        for al in &r.allocations {
            prop_assert!(al.cpu() >= space.min_share - 1e-9);
            prop_assert!(al.cpu() <= 1.0 + 1e-9);
        }
    }

    /// Greedy never produces a worse total than the default allocation.
    #[test]
    fn greedy_never_worse_than_default(a in alphas(3), betas in alphas(3)) {
        let space = SearchSpace::cpu_only(0.5);
        let default_cost: f64 = (0..3)
            .map(|i| a[i] / space.default_allocation(3).cpu() + betas[i])
            .sum();
        let models = reciprocal_models(&a, &betas);
        let r = greedy_search_with(&space, &[QoS::default(); 3], &models, &SearchOptions::default());
        prop_assert!(r.weighted_cost <= default_cost + 1e-9);
    }

    /// Greedy lands within 5 % of the grid optimum on reciprocal
    /// models (the §4.5 claim).
    #[test]
    fn greedy_close_to_exhaustive(a in alphas(3)) {
        let space = SearchSpace::cpu_only(0.5);
        let models = reciprocal_models(&a, &[1.0; 3]);
        let greedy = greedy_search_with(&space, &[QoS::default(); 3], &models, &SearchOptions::default());
        let exact = try_exhaustive_search_with(&space, &[QoS::default(); 3], &models, &SearchOptions::default()).unwrap();
        prop_assert!(greedy.weighted_cost <= exact.weighted_cost * 1.05 + 1e-9);
    }

    /// The exhaustive DP respects both resource budgets jointly.
    #[test]
    fn exhaustive_budgets_hold(a in alphas(3), b in alphas(3)) {
        let space = SearchSpace::cpu_and_memory();
        let models: Vec<_> = a
            .iter()
            .zip(&b)
            .map(|(&ca, &cb)| {
                FnCostModel::new(move |al: Allocation| ca / al.cpu() + cb / al.memory())
            })
            .collect();
        let r = try_exhaustive_search_with(&space, &[QoS::default(); 3], &models, &SearchOptions::default()).unwrap();
        let cpu: f64 = r.allocations.iter().map(|al| al.cpu()).sum();
        let mem: f64 = r.allocations.iter().map(|al| al.memory()).sum();
        prop_assert!(cpu <= 1.0 + 1e-9);
        prop_assert!(mem <= 1.0 + 1e-9);
    }

    /// Degradation limits are never violated when satisfiable.
    #[test]
    fn degradation_limits_hold(alpha in 1.0f64..20.0, limit in 2.0f64..6.0) {
        let space = SearchSpace::cpu_only(0.5);
        let models = reciprocal_models(&[alpha, 4.0 * alpha], &[1.0; 2]);
        let qos = vec![QoS::with_limit(limit), QoS::default()];
        let r = greedy_search_with(&space, &qos, &models, &SearchOptions::default());
        if r.limits_met[0] {
            let full = alpha / 1.0 + 1.0;
            prop_assert!(r.costs[0] <= limit * full + 1e-6);
        }
    }

    /// Parallel and serial enumeration agree exactly, whatever the
    /// cost surface (the bit-identical contract of `SearchOptions`).
    #[test]
    fn parallel_enumeration_matches_serial(a in alphas(4), betas in alphas(4)) {
        let space = SearchSpace::cpu_only(0.5);
        let models = reciprocal_models(&a, &betas);
        let serial = greedy_search_with(&space, &[QoS::default(); 4], &models, &SearchOptions::serial());
        let parallel = greedy_search_with(&space, &[QoS::default(); 4], &models, &SearchOptions::parallel());
        prop_assert_eq!(serial, parallel);
        let es = try_exhaustive_search_with(&space, &[QoS::default(); 4], &models, &SearchOptions::serial());
        let ep = try_exhaustive_search_with(&space, &[QoS::default(); 4], &models, &SearchOptions::parallel());
        prop_assert!(es.is_some());
        prop_assert_eq!(es, ep);
    }

    /// Simple regression recovers planted lines exactly.
    #[test]
    fn linear_fit_recovers_planted_line(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
    ) {
        let xs: Vec<f64> = (1..8).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let fit = LinearFit::fit(&xs, &ys).expect("distinct xs");
        prop_assert!((fit.slope - slope).abs() < 1e-6);
        prop_assert!((fit.intercept - intercept).abs() < 1e-6);
    }

    /// Reciprocal fits recover planted cost models over any share set.
    #[test]
    fn reciprocal_fit_recovers_model(alpha in 0.1f64..100.0, beta in 0.0f64..100.0) {
        let shares = [0.1, 0.25, 0.4, 0.7, 1.0];
        let costs: Vec<f64> = shares.iter().map(|r| alpha / r + beta).collect();
        let fit = ReciprocalFit::fit(&shares, &costs).expect("valid shares");
        prop_assert!((fit.alpha - alpha).abs() / alpha < 1e-6);
        prop_assert!((fit.beta - beta).abs() < 1e-4);
    }

    /// Multi-dimensional regression recovers planted planes.
    #[test]
    fn multi_fit_recovers_plane(
        b0 in -10.0f64..10.0,
        b1 in -10.0f64..10.0,
        b2 in -10.0f64..10.0,
    ) {
        let rows: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0], vec![2.0, 1.0], vec![1.0, 2.0],
            vec![3.0, 5.0], vec![0.5, 0.25], vec![4.0, 2.0],
        ];
        let ys: Vec<f64> = rows.iter().map(|r| b0 + b1 * r[0] + b2 * r[1]).collect();
        let fit = MultiLinearFit::fit(&rows, &ys).expect("well-posed");
        prop_assert!((fit.intercept - b0).abs() < 1e-6);
        prop_assert!((fit.coefficients[0] - b1).abs() < 1e-6);
        prop_assert!((fit.coefficients[1] - b2).abs() < 1e-6);
    }

    /// A refined model scaled by one observation passes through it.
    #[test]
    fn refinement_scaling_passes_through_observation(
        alpha in 1.0f64..50.0,
        factor in 0.2f64..5.0,
    ) {
        let space = SearchSpace::cpu_only(0.5);
        let est = RegimeFnCostModel::new(move |a: Allocation| (alpha / a.cpu() + 1.0, 1));
        let mut model = RefinedModel::fit_initial(&space, 8, &est);
        let at = Allocation::new(0.5, 0.5);
        let actual = factor * (alpha / 0.5 + 1.0);
        model.observe(at, actual);
        let predicted = model.predict(at);
        prop_assert!(
            (predicted - actual).abs() / actual < 1e-6,
            "model must pass through the observation: {} vs {}",
            predicted,
            actual
        );
    }

    /// Piece lookup is total: any share in (0, 1] maps to some piece.
    #[test]
    fn piece_lookup_total(share in 0.01f64..1.0) {
        let space = SearchSpace::memory_only(0.5);
        let est = RegimeFnCostModel::new(|a: Allocation| {
            if a.memory() < 0.35 { (50.0 / a.memory(), 1) } else { (5.0 / a.memory() + 20.0, 2) }
        });
        let model = RefinedModel::fit_initial(&space, 10, &est);
        let idx = model.piece_for(share);
        prop_assert!(idx < model.pieces.len());
        prop_assert!(model.predict(Allocation::new(0.5, share)).is_finite());
    }

    /// The serialization contract over the *entire* f64 bit space:
    /// any finite bit pattern — normal, subnormal, signed zero —
    /// written by jsonio parses back to the identical bits, and the
    /// non-finite patterns all collapse to the null sentinel. Two u32
    /// draws make up the u64 (the full-width `0..=u64::MAX` range
    /// strategy would overflow its span arithmetic).
    #[test]
    fn jsonio_round_trips_arbitrary_f64_bit_patterns(
        hi in 0u32..=u32::MAX,
        lo in 0u32..=u32::MAX,
    ) {
        use vda::core::jsonio::{self, Json};
        let bits = ((hi as u64) << 32) | lo as u64;
        let x = f64::from_bits(bits);
        let written = jsonio::write(&Json::Num(x));
        prop_assert_eq!(&written, &jsonio::fmt_f64(x));
        if x.is_finite() {
            let back = jsonio::parse(&written).unwrap();
            let y = back.as_f64().unwrap();
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "bits 0x{:016x} did not round-trip ({} -> {})", bits, x, y
            );
        } else {
            prop_assert_eq!(written.as_str(), "null");
        }
    }
}
