//! Performance metrics shared by the experiments (§7.1), plus
//! optimizer-call accounting over [`CostModel`] sets (§7.2 reports the
//! advisor's search cost in optimizer invocations) and the injectable
//! [`Clock`] every latency measurement outside the bench harness must
//! route through.
//!
//! This module is the workspace's *designated wall-clock scope* (see
//! the determinism rules in `docs/ARCHITECTURE.md`): it is the only
//! core module allowed to touch `std::time` directly, so that every
//! other module can be driven by a [`Clock::manual`] in tests and
//! replays.

use crate::costmodel::model::CostModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// A millisecond clock that is either the process wall clock or a
/// manually advanced counter.
///
/// Components that report latencies (e.g.
/// [`ControlPlane`](crate::controlplane::ControlPlane)) hold a `Clock`
/// instead of calling `Instant::now` themselves. Production uses
/// [`Clock::wall`]; tests and deterministic replays use
/// [`Clock::manual`], advancing it explicitly so reported latencies
/// are bit-identical run to run.
///
/// Cloning shares the underlying source: advancing one clone of a
/// manual clock advances them all.
#[derive(Debug, Clone)]
pub struct Clock {
    source: ClockSource,
}

#[derive(Debug, Clone)]
enum ClockSource {
    /// Milliseconds since the clock was created.
    Wall(Instant),
    /// Milliseconds advanced by hand.
    Manual(Arc<parking_lot::Mutex<f64>>),
}

impl Clock {
    /// The process wall clock, measuring from now.
    pub fn wall() -> Self {
        Clock {
            source: ClockSource::Wall(Instant::now()),
        }
    }

    /// A deterministic clock starting at zero; advance it with
    /// [`advance_ms`](Self::advance_ms).
    pub fn manual() -> Self {
        Clock {
            source: ClockSource::Manual(Arc::new(parking_lot::Mutex::new(0.0))),
        }
    }

    /// Milliseconds elapsed since the clock's epoch.
    pub fn now_ms(&self) -> f64 {
        match &self.source {
            ClockSource::Wall(epoch) => epoch.elapsed().as_secs_f64() * 1e3,
            ClockSource::Manual(ms) => *ms.lock(),
        }
    }

    /// Advance a manual clock by `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on a wall clock — real time cannot be steered, and a
    /// caller that thinks it can has wired the wrong clock.
    pub fn advance_ms(&self, ms: f64) {
        match &self.source {
            ClockSource::Wall(_) => panic!("advance_ms on a wall clock"),
            ClockSource::Manual(total) => *total.lock() += ms,
        }
    }

    /// Whether this is a manual (deterministic) clock.
    pub fn is_manual(&self) -> bool {
        matches!(self.source, ClockSource::Manual(_))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::wall()
    }
}

/// Aggregated optimizer-call/cache-hit accounting over a set of cost
/// models (one search's worth of estimators, typically), plus the
/// cross-period counters of incremental re-optimization: fleet-wide
/// probe-cache hits, misses, evictions and resident size. The
/// per-search counters come from [`Self::tally`]; the cross-period
/// counters are zero there (estimator instances die with the search)
/// and are filled in from the fleet cache via
/// [`Self::with_probe_cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CostAccounting {
    /// Total query-optimizer invocations.
    pub optimizer_calls: u64,
    /// Total estimate-cache hits.
    pub cache_hits: u64,
    /// Fleet-wide [`ProbeCache`](crate::costmodel::whatif::ProbeCache)
    /// hits (cross-period and cross-machine, unlike `cache_hits` which
    /// an estimator instance only accumulates within one search).
    pub probe_hits: u64,
    /// Fleet-wide probe-cache misses.
    pub probe_misses: u64,
    /// Probe rows evicted by the bounded-memory LRU
    /// ([`ProbeCache::enforce_capacity`](crate::costmodel::whatif::ProbeCache::enforce_capacity));
    /// `0` while the cache runs unbounded.
    pub probe_evictions: u64,
    /// Approximate probe-cache resident size under the cache's fixed
    /// size model
    /// ([`ProbeCache::approx_bytes`](crate::costmodel::whatif::ProbeCache::approx_bytes)) —
    /// deterministic accounting, not a heap measurement.
    pub probe_bytes: u64,
}

impl CostAccounting {
    /// Sum the counters of every model in the set.
    pub fn tally<M: CostModel>(models: &[M]) -> Self {
        CostAccounting {
            optimizer_calls: models.iter().map(|m| m.optimizer_calls()).sum(),
            cache_hits: models.iter().map(|m| m.cache_hits()).sum(),
            ..CostAccounting::default()
        }
    }

    /// Copy with the cross-period probe-cache counters taken from a
    /// fleet [`ProbeCache`](crate::costmodel::whatif::ProbeCache).
    #[must_use]
    pub fn with_probe_cache(mut self, cache: &crate::costmodel::whatif::ProbeCache) -> Self {
        self.probe_hits = cache.hits();
        self.probe_misses = cache.misses();
        self.probe_evictions = cache.evictions();
        self.probe_bytes = cache.approx_bytes();
        self
    }
}

/// Relative improvement of `t_candidate` over `t_default`:
/// `(T_default − T_candidate) / T_default`. Positive is better;
/// negative means the candidate allocation *hurt* (as the
/// pre-refinement recommendations of §7.8 do).
pub fn relative_improvement(t_default: f64, t_candidate: f64) -> f64 {
    assert!(t_default > 0.0, "default cost must be positive");
    (t_default - t_candidate) / t_default
}

/// Degradation of a workload relative to owning the whole machine:
/// `Cost(W, R) / Cost(W, [1,…,1])` (§3).
pub fn degradation(cost_at_alloc: f64, cost_at_full: f64) -> f64 {
    assert!(cost_at_full > 0.0, "full-allocation cost must be positive");
    cost_at_alloc / cost_at_full
}

/// Nearest-rank percentile of a sample set (`p` in `[0, 100]`), the
/// convention operators expect from latency dashboards: the smallest
/// sample ≥ `p`% of the distribution. The control plane reports its
/// per-event decision latency through this (`p = 99.0` for the bench's
/// p99). Non-finite samples are ignored; returns `0.0` for an empty
/// (or all-non-finite) set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::model::FnCostModel;
    use crate::problem::Allocation;

    #[test]
    fn accounting_tallies_zero_for_synthetic_models() {
        let models: Vec<_> = (0..3)
            .map(|_| FnCostModel::new(|a: Allocation| 1.0 / a.cpu()))
            .collect();
        models.iter().for_each(|m| {
            use crate::costmodel::model::CostModel;
            let _ = m.cost(Allocation::new(0.5, 0.5));
        });
        assert_eq!(CostAccounting::tally(&models), CostAccounting::default());
    }

    #[test]
    fn improvement_signs() {
        assert!((relative_improvement(100.0, 76.0) - 0.24).abs() < 1e-12);
        assert!(relative_improvement(100.0, 120.0) < 0.0);
        assert_eq!(relative_improvement(50.0, 50.0), 0.0);
    }

    #[test]
    fn degradation_is_ratio() {
        assert!((degradation(15.0, 10.0) - 1.5).abs() < 1e-12);
        assert_eq!(degradation(10.0, 10.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "default cost")]
    fn improvement_rejects_zero_baseline() {
        let _ = relative_improvement(0.0, 1.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 90.0), 5.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        // Single sample: every percentile is that sample.
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Empty and non-finite inputs degrade to zero.
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[f64::NAN, f64::INFINITY], 99.0), 0.0);
        // Non-finite samples are skipped, not counted.
        assert_eq!(percentile(&[f64::NAN, 2.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn manual_clock_is_deterministic_and_shared() {
        let clock = Clock::manual();
        assert!(clock.is_manual());
        assert_eq!(clock.now_ms(), 0.0);
        let clone = clock.clone();
        clock.advance_ms(12.5);
        clone.advance_ms(0.5);
        assert_eq!(clock.now_ms(), 13.0);
        assert_eq!(clone.now_ms(), 13.0);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = Clock::wall();
        assert!(!clock.is_manual());
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    #[should_panic(expected = "advance_ms on a wall clock")]
    fn wall_clock_rejects_manual_advance() {
        Clock::wall().advance_ms(1.0);
    }
}
