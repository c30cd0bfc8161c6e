//! Online cost-model adaptation from executor actuals.
//!
//! The paper calibrates each cost model once per (machine, engine)
//! pair and then trusts it forever (§4.3); in a long-running fleet one
//! bad calibration silently poisons every later migration decision for
//! its hardware class. This module closes the loop: executor actuals
//! reported at runtime are banked as *residual samples* (predicted vs
//! actual seconds, stamped with the logical epoch) in a bounded
//! [`RuntimeAdaptionStorage`], and [`refit`] periodically regresses a
//! small multiplicative [`AxisCorrection`] over the same per-axis
//! feature basis the calibrator uses (`1/cpu_share` for the CPU axis,
//! the memory share for the buffer axis). The correction never touches
//! plan choice — it scales predicted *seconds* only, downstream of the
//! optimizer — so an adapted model disagrees with its base about
//! magnitudes, never about plans.
//!
//! One application path exists:
//! [`CalibratedModel::with_adaption`](crate::costmodel::CalibratedModel::with_adaption)
//! installs an [`Adaption`] overlay that `to_seconds_at` applies, so
//! every existing estimator, probe cache, and snapshot path prices
//! adapted models with zero API changes. The guardrail shadow-prices a
//! candidate without installing it by multiplying the base prediction
//! by the candidate's [`Adaption::factor`].
//!
//! **Fingerprint salting.** An [`Adaption`] carries a `version`
//! counter bumped on every refit; the `CalibratedModel` fingerprint
//! (which hashes the full `Debug` rendering, overlay included) folds
//! the version in, so an adapted model can never alias its base — or a
//! previous adaption of the same base — in the
//! [`ProbeCache`](crate::costmodel::ProbeCache).
//!
//! Everything here is deterministic: samples live in `BTreeMap`s keyed
//! by `(tenant fingerprint, allocation key)`, eviction follows the
//! smallest `(epoch, tenant, key)` triple, and the refit solves one
//! fixed 3×3 normal-equation system.

use crate::problem::{AllocKey, Allocation, Resource};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vda_stats::solve_dense;

/// Hard bounds on the multiplicative correction factor at any
/// allocation. However wild the residuals, an adapted model never
/// prices an allocation more than 4× away from its base — a runaway
/// fit degrades gracefully into a bounded bias instead of an
/// infinite one.
pub const MIN_FACTOR: f64 = 0.25;
/// Upper bound companion to [`MIN_FACTOR`].
pub const MAX_FACTOR: f64 = 4.0;

/// Refit-time clamp on the constant term: [`refit`] confines `scale`
/// to `[1/MAX_GAIN, MAX_GAIN]`.
const MAX_GAIN: f64 = 4.0;

/// A per-axis multiplicative correction over the calibrator's own
/// feature basis. The factor at allocation `R` is
///
/// ```text
/// factor(R) = scale + cpu·(1/R_cpu − 1) + mem·(R_mem − 1)
/// ```
///
/// clamped to `[MIN_FACTOR, MAX_FACTOR]`. At the full allocation the
/// factor is exactly `scale`; the identity correction
/// (`scale = 1`, zero axis terms) prices every allocation exactly
/// like the base model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AxisCorrection {
    /// Constant term (the factor at the full allocation).
    pub scale: f64,
    /// Coefficient on `1/cpu_share − 1`.
    pub cpu: f64,
    /// Coefficient on `mem_share − 1`.
    pub mem: f64,
}

impl AxisCorrection {
    /// The do-nothing correction: factor `1.0` everywhere.
    pub const fn identity() -> Self {
        AxisCorrection {
            scale: 1.0,
            cpu: 0.0,
            mem: 0.0,
        }
    }

    /// A pure scale correction (no axis terms).
    pub const fn scale_only(scale: f64) -> Self {
        AxisCorrection {
            scale,
            cpu: 0.0,
            mem: 0.0,
        }
    }

    /// The multiplicative factor at an allocation, clamped to
    /// `[MIN_FACTOR, MAX_FACTOR]`.
    pub fn factor(&self, alloc: Allocation) -> f64 {
        let inv_cpu = 1.0 / alloc.cpu().max(1e-6);
        // detlint:allow(axis-compat, reason = "AxisCorrection's own coefficient field, not an Allocation axis")
        let raw = self.scale + self.cpu * (inv_cpu - 1.0) + self.mem * (alloc.memory() - 1.0);
        raw.clamp(MIN_FACTOR, MAX_FACTOR)
    }

    /// Whether this correction is exactly the identity.
    pub fn is_identity(&self) -> bool {
        *self == AxisCorrection::identity()
    }
}

/// A versioned correction overlay. The `version` is the value of the
/// feeding [`RuntimeAdaptionStorage`]'s mutation counter at refit
/// time; it salts the fingerprint of whatever model carries the
/// overlay, so two refits that happen to produce the same
/// coefficients from different evidence still read as distinct models
/// to every cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Adaption {
    /// The fitted correction.
    pub correction: AxisCorrection,
    /// Storage version the correction was fitted at.
    pub version: u64,
}

impl Adaption {
    /// The identity overlay at version 0.
    pub const fn identity() -> Self {
        Adaption {
            correction: AxisCorrection::identity(),
            version: 0,
        }
    }

    /// The correction factor at an allocation.
    pub fn factor(&self, alloc: Allocation) -> f64 {
        self.correction.factor(alloc)
    }
}

/// Knobs of the adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptionOptions {
    /// Residual samples kept per storage (oldest evicted first).
    pub capacity: usize,
    /// Minimum distinct samples before [`refit`] produces a
    /// correction at all.
    pub min_samples: usize,
}

impl Default for AdaptionOptions {
    fn default() -> Self {
        AdaptionOptions {
            capacity: 256,
            min_samples: 6,
        }
    }
}

/// One banked residual: what the installed model predicted for a
/// (tenant, allocation) pair and what the executor actually measured,
/// stamped with the logical epoch of the report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResidualSample {
    /// Logical epoch (control-plane sequence number) of the report.
    pub epoch: u64,
    /// Installed-model prediction, seconds.
    pub predicted: f64,
    /// Executor-measured actual, seconds.
    pub actual: f64,
}

/// Bounded, epoch-stamped per-tenant residual store. One storage
/// exists per adapted scope — the control plane keeps one per
/// (hardware class, engine) pair — and every mutation bumps a version
/// counter that ends up salting the fingerprint of any model refitted
/// from it.
///
/// The store keeps at most one sample per `(tenant, allocation)` key
/// (a re-report overwrites in place, so drift refreshes evidence
/// rather than duplicating it) and at most `capacity` samples overall,
/// evicting the smallest `(epoch, tenant, key)` triple first —
/// deterministic LRU by logical time with a total tie-break.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeAdaptionStorage {
    samples: BTreeMap<(u64, AllocKey), ResidualSample>,
    capacity: usize,
    epoch: u64,
    version: u64,
}

impl RuntimeAdaptionStorage {
    /// Empty storage holding at most `capacity` residuals.
    pub fn new(capacity: usize) -> Self {
        RuntimeAdaptionStorage {
            samples: BTreeMap::new(),
            capacity: capacity.max(1),
            epoch: 0,
            version: 0,
        }
    }

    /// Advance the logical epoch stamped on subsequent records.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Current logical epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mutation counter: bumped by every [`record`](Self::record),
    /// [`import`](Self::import), and [`clear`](Self::clear).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of banked residuals.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Bank one residual for `(tenant, alloc)`, overwriting any
    /// previous sample at the same key and evicting the oldest
    /// samples if the store is over capacity. Non-finite or
    /// non-positive observations are ignored (the executor measured
    /// nothing usable).
    pub fn record(&mut self, tenant: u64, alloc: Allocation, predicted: f64, actual: f64) {
        if !(predicted.is_finite() && actual.is_finite() && predicted > 0.0 && actual > 0.0) {
            return;
        }
        self.samples.insert(
            (tenant, alloc.key()),
            ResidualSample {
                epoch: self.epoch,
                predicted,
                actual,
            },
        );
        self.version += 1;
        while self.samples.len() > self.capacity {
            let oldest = self
                .samples
                .iter()
                .map(|(k, s)| (s.epoch, *k))
                .min()
                .map(|(_, k)| k)
                .expect("non-empty: len > capacity >= 1");
            self.samples.remove(&oldest);
        }
    }

    /// Iterate residuals in key order.
    pub fn samples(&self) -> impl Iterator<Item = (&(u64, AllocKey), &ResidualSample)> {
        self.samples.iter()
    }

    /// Drop every residual (e.g. after a rollback discards the
    /// evidence a rejected candidate was fitted from). Bumps the
    /// version so the next refit can never alias the rejected one.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.version += 1;
    }

    /// Export rows in key order for snapshotting:
    /// `(tenant, alloc key, epoch, predicted, actual)`.
    pub fn export(&self) -> Vec<(u64, AllocKey, u64, f64, f64)> {
        self.samples
            .iter()
            .map(|((t, k), s)| (*t, *k, s.epoch, s.predicted, s.actual))
            .collect()
    }

    /// Rebuild from exported rows plus the scalar state. Used by
    /// snapshot restore; the `(epoch, version)` pair round-trips
    /// exactly so a restored fleet refits identically to one that
    /// never snapshotted.
    pub fn import(&mut self, rows: Vec<(u64, AllocKey, u64, f64, f64)>, epoch: u64, version: u64) {
        self.samples = rows
            .into_iter()
            .map(|(t, k, e, p, a)| {
                (
                    (t, k),
                    ResidualSample {
                        epoch: e,
                        predicted: p,
                        actual: a,
                    },
                )
            })
            .collect();
        self.epoch = epoch;
        self.version = version;
    }
}

/// Refit a correction from the banked residuals, or `None` when the
/// evidence is insufficient (fewer than
/// [`min_samples`](AdaptionOptions::min_samples) rows).
///
/// The target is the ratio `actual / predicted` per sample, regressed
/// by least squares over the features `[1, 1/cpu − 1, mem − 1]` via
/// the 3×3 normal equations. When the system is singular (every
/// sample at one allocation, say) or produces non-finite
/// coefficients, the fit falls back to the scale-only mean ratio —
/// always defined, always finite. The constant term is clamped to
/// `[1/4, 4]`.
pub fn refit(
    storage: &RuntimeAdaptionStorage,
    options: &AdaptionOptions,
) -> Option<AxisCorrection> {
    let rows: Vec<([f64; 3], f64)> = storage
        .samples()
        .map(|((_, key), s)| {
            let cpu = f64::from(key[Resource::Cpu.index()]) / 1e4;
            let mem = f64::from(key[Resource::Memory.index()]) / 1e4;
            let x = [1.0, 1.0 / cpu.max(1e-6) - 1.0, mem - 1.0];
            (x, s.actual / s.predicted)
        })
        .collect();
    if rows.len() < options.min_samples.max(1) {
        return None;
    }
    let lo = 1.0 / MAX_GAIN;
    let mean_ratio = rows.iter().map(|(_, y)| *y).sum::<f64>() / rows.len() as f64;
    let fallback = AxisCorrection::scale_only(mean_ratio.clamp(lo, MAX_GAIN));

    // Normal equations XᵀX β = Xᵀy over the 3-feature basis.
    let mut a = vec![vec![0.0f64; 3]; 3];
    let mut b = vec![0.0f64; 3];
    for (x, y) in &rows {
        for i in 0..3 {
            for j in 0..3 {
                a[i][j] += x[i] * x[j];
            }
            b[i] += x[i] * y;
        }
    }
    let beta = match solve_dense(&a, &b) {
        Ok(beta) if beta.iter().all(|c| c.is_finite()) => beta,
        _ => return Some(fallback),
    };
    Some(AxisCorrection {
        scale: beta[0].clamp(lo, MAX_GAIN),
        cpu: beta[1],
        mem: beta[2],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(cpu: f64, mem: f64) -> Allocation {
        Allocation::new(cpu, mem)
    }

    #[test]
    fn identity_correction_is_exactly_neutral() {
        let c = AxisCorrection::identity();
        for &(cpu, mem) in &[(0.25, 0.25), (0.5, 0.75), (1.0, 1.0)] {
            assert_eq!(c.factor(alloc(cpu, mem)), 1.0);
        }
        assert!(c.is_identity());
    }

    #[test]
    fn factor_is_clamped_to_hard_bounds() {
        let c = AxisCorrection {
            scale: 10.0,
            cpu: 50.0,
            mem: 0.0,
        };
        assert_eq!(c.factor(alloc(0.25, 0.5)), MAX_FACTOR);
        let c = AxisCorrection {
            scale: -3.0,
            cpu: 0.0,
            mem: 0.0,
        };
        assert_eq!(c.factor(alloc(0.5, 0.5)), MIN_FACTOR);
    }

    #[test]
    fn storage_overwrites_in_place_and_evicts_oldest_first() {
        let mut s = RuntimeAdaptionStorage::new(2);
        s.set_epoch(1);
        s.record(7, alloc(0.5, 0.5), 1.0, 2.0);
        s.record(7, alloc(0.5, 0.5), 1.0, 3.0); // overwrite, not grow
        assert_eq!(s.len(), 1);
        s.set_epoch(2);
        s.record(9, alloc(0.25, 0.5), 1.0, 1.5);
        s.set_epoch(3);
        s.record(3, alloc(0.75, 0.5), 1.0, 1.1);
        assert_eq!(s.len(), 2);
        // The epoch-1 sample (tenant 7) was the oldest and is gone.
        let tenants: Vec<u64> = s.samples().map(|((t, _), _)| *t).collect();
        assert_eq!(tenants, vec![3, 9]);
    }

    #[test]
    fn storage_rejects_unusable_observations() {
        let mut s = RuntimeAdaptionStorage::new(8);
        let v0 = s.version();
        s.record(1, alloc(0.5, 0.5), 0.0, 1.0);
        s.record(1, alloc(0.5, 0.5), 1.0, f64::NAN);
        s.record(1, alloc(0.5, 0.5), -1.0, 1.0);
        assert!(s.is_empty());
        assert_eq!(s.version(), v0);
    }

    #[test]
    fn every_mutation_bumps_version() {
        let mut s = RuntimeAdaptionStorage::new(4);
        s.record(1, alloc(0.5, 0.5), 1.0, 2.0);
        assert_eq!(s.version(), 1);
        s.record(1, alloc(0.5, 0.5), 1.0, 2.5);
        assert_eq!(s.version(), 2);
        s.clear();
        assert_eq!(s.version(), 3);
    }

    #[test]
    fn export_import_round_trips_exactly() {
        let mut s = RuntimeAdaptionStorage::new(8);
        s.set_epoch(5);
        s.record(2, alloc(0.25, 0.75), 1.25, 2.5);
        s.record(11, alloc(0.5, 0.5), 3.0, 2.0);
        let rows = s.export();
        let mut t = RuntimeAdaptionStorage::new(8);
        t.import(rows, s.epoch(), s.version());
        assert_eq!(s, t);
    }

    #[test]
    fn refit_needs_min_samples() {
        let mut s = RuntimeAdaptionStorage::new(32);
        let opts = AdaptionOptions {
            min_samples: 3,
            ..AdaptionOptions::default()
        };
        s.record(1, alloc(0.5, 0.5), 1.0, 2.0);
        s.record(2, alloc(0.5, 0.5), 1.0, 2.0);
        assert!(refit(&s, &opts).is_none());
        s.record(3, alloc(0.25, 0.5), 1.0, 2.0);
        assert!(refit(&s, &opts).is_some());
    }

    #[test]
    fn refit_recovers_planted_axis_bias() {
        // Plant actual = predicted · (1.5 + 0.2·(1/cpu − 1)); the
        // refit should recover the coefficients.
        let truth = AxisCorrection {
            scale: 1.5,
            cpu: 0.2,
            mem: 0.0,
        };
        let mut s = RuntimeAdaptionStorage::new(64);
        let mut t = 0u64;
        for &cpu in &[0.25, 0.4, 0.5, 0.75, 1.0] {
            for &mem in &[0.25, 0.5, 0.75] {
                t += 1;
                let a = alloc(cpu, mem);
                let predicted = 10.0 / cpu;
                s.record(t, a, predicted, predicted * truth.factor(a));
            }
        }
        let c = refit(&s, &AdaptionOptions::default()).expect("enough samples");
        assert!((c.scale - truth.scale).abs() < 1e-9, "scale {}", c.scale);
        assert!((c.cpu - truth.cpu).abs() < 1e-9, "cpu {}", c.cpu);
        assert!(c.mem.abs() < 1e-9, "mem {}", c.mem);
    }

    #[test]
    fn refit_falls_back_to_mean_ratio_on_degenerate_evidence() {
        // Every sample at the same allocation: the 3×3 system is
        // singular, so the fit degrades to the scale-only mean ratio.
        let mut s = RuntimeAdaptionStorage::new(32);
        for t in 0..6u64 {
            s.record(t, alloc(0.5, 0.5), 2.0, 3.0);
        }
        let c = refit(&s, &AdaptionOptions::default()).expect("enough samples");
        assert_eq!(c.cpu, 0.0);
        assert_eq!(c.mem, 0.0);
        assert!((c.scale - 1.5).abs() < 1e-12);
    }
}
