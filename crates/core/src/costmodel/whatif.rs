//! What-if cost estimation (§4.1) with allocation-keyed caching (§4.5).
//!
//! "Instead of generating cost estimates under a fixed setting of `P`
//! as a query optimizer typically would, we map a given `R_i` to the
//! corresponding `P_i`, and we optimize the query with this `P_i`."
//!
//! The estimator also records, per allocation, the *plan-regime
//! signature* of the workload (a hash over the per-statement plan
//! signatures): plan changes along the memory axis define the
//! piecewise-interval boundaries `A_ij` that online refinement needs
//! (§5.1), and the paper harvests them "during configuration
//! enumeration ... to minimize the number of optimizer calls".
//!
//! Estimates are cached in one place, a [`ProbeCache`] keyed by
//! *(calibrated-model fingerprint, tenant fingerprint, allocation)*:
//!
//! * [`WhatIfEstimator::with_probe_cache`] reads and fills a cache
//!   that outlives the estimator: an advisor's own, or the fleet's,
//!   shared by every machine. Repeated searches (greedy, exhaustive,
//!   refinement sampling, dynamic monitoring periods) and
//!   cross-machine candidate pricing pay for each optimizer probe
//!   once. A changed workload or a replaced calibration changes a
//!   fingerprint, so its old rows become unreachable; nothing resets
//!   the cache by hand;
//! * [`WhatIfEstimator::new`] is the same over a private cache;
//! * [`WhatIfEstimator::without_cache`] recomputes every probe, the
//!   §4.5 caching ablation.
//!
//! A missing key is *claimed* by its first lookup, so concurrent
//! lookups wait instead of computing it again (see [`ProbeCache`]).

use crate::costmodel::calibration::CalibratedModel;
use crate::costmodel::model::CostModel;
use crate::problem::{AllocKey, Allocation};
use crate::tenant::Tenant;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use vda_simdb::hash::Fnv64;
use vda_simdb::optimizer::Optimizer;

/// One cached what-if estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Estimated workload cost in seconds.
    pub seconds: f64,
    /// Hash over the per-statement plan signatures: identifies the
    /// plan regime the workload occupies at this allocation.
    pub plan_regime: u64,
    /// Estimated cost per statement execution (the §6.1 change
    /// metric's "average cost estimates of workload queries").
    pub avg_cost_per_statement: f64,
}

/// The probe cache: what-if estimates keyed by *(calibrated-model
/// fingerprint, tenant fingerprint)* generation, then by allocation.
/// Cloning is cheap and shares the underlying map. Every advisor owns
/// one; a fleet attaches one cache to all its machines.
///
/// The cache holds many `(model, tenant)` generations at once, so
///
/// * re-optimizing a fleet after one tenant's workload drifted pays
///   optimizer calls only for that tenant — every other tenant's
///   probes, at whatever allocation any search requests, are hits;
/// * a workload that returns to an earlier state, or identical
///   tenants on one machine, reuse the rows already probed;
/// * candidate-migration pricing that evaluates the same tenant under
///   the same class calibration on several machines probes each
///   (allocation) point once fleet-wide;
/// * a recalibration never serves stale estimates: the model
///   fingerprint ([`CalibratedModel::fingerprint`]) changes, so old
///   entries become unreachable (and reclaimable by [`Self::prune`]).
///
/// Every advisor that prices with the cache holds in it the
/// fingerprint of each tenant it hosts, and moves the hold when a
/// workload changes or a tenant leaves. So the cache knows which tenant
/// generations died, and [`Self::prune`] drops them by lookup.
///
/// Hit/miss counters live in the cache itself, so cross-period cache
/// effectiveness is observable even though estimator instances (and
/// their per-instance counters) are rebuilt every search.
///
/// # Claimed misses
///
/// Two threads of one parallel search can look up one key at once:
/// identical tenants on one machine, or one tenant priced on two
/// same-class machines in one wave. If both computed it, the
/// optimizer-call bill would depend on thread timing. So the first
/// lookup of a missing key claims it, and a concurrent lookup waits
/// until the claim is filled and counts a hit (or, if the compute
/// unwound, claims the key in turn). Each key is computed once, and the
/// counts are the serial ones. A claim holder makes no other cache call
/// before it fills, so the waits cannot deadlock, and no claim is open
/// at the serial sync points where eviction, pruning and export run.
///
/// # Bounded-memory mode and the eviction policy
///
/// By default the cache is unbounded (capacity `0`). Setting a row
/// capacity with [`Self::set_capacity`] arms a **deterministic
/// per-generation LRU**:
///
/// * Recency is the *logical epoch* installed by [`Self::set_epoch`]
///   (the control plane's event sequence number), never wall-clock
///   time — the recency a generation gets depends only on *which*
///   epoch touched it, not on when or on which thread.
/// * Lookups and inserts stamp the whole `(model, tenant)` generation
///   with the current epoch. Within one parallel solve wave every
///   stamp writes the same epoch, so the resulting recency map is
///   independent of thread interleaving.
/// * Eviction happens only at serial sync points, when the owner calls
///   [`Self::enforce_capacity`]: whole generations are dropped in
///   ascending `(last_used_epoch, model, tenant)` order until the row
///   count fits. The key order tie-break makes the victim sequence
///   reproducible bit-for-bit across runs and thread counts.
///
/// The cache keeps that victim order as a maintained index and keeps
/// a running row count, so upkeep never walks the whole cache. A
/// generation's first touch in an epoch moves its index entry
/// (`O(log n)` in the number of generations); further touches in the
/// same epoch are a compare. Each victim costs one `O(log n)` pop plus
/// its removal, and [`Self::len`] and [`Self::approx_bytes`] are
/// `O(1)`.
///
/// Because the cache is strictly read-through (a miss recomputes the
/// identical deterministic estimate), a capped cache returns the same
/// answers as an unbounded one — only the hit/miss/eviction counters
/// and the optimizer-call bill differ. That equivalence is pinned by
/// `tests/bounded_probe_cache.rs`.
///
/// ```
/// use vda_core::costmodel::{Estimate, ProbeCache};
///
/// let cache = ProbeCache::new();
/// let est = Estimate {
///     seconds: 1.0,
///     plan_regime: 7,
///     avg_cost_per_statement: 0.5,
/// };
/// // Three single-row generations, touched at epochs 1, 2, 3.
/// for (epoch, tenant) in [(1, 10), (2, 11), (3, 12)] {
///     cache.set_epoch(epoch);
///     cache.import(&[(42, tenant, [0; 4], est)]);
/// }
/// cache.set_capacity(2);
/// assert_eq!(cache.enforce_capacity(), 1); // evicts the oldest …
/// assert_eq!(cache.evictions(), 1); // … which is (42, tenant 10)
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProbeCache {
    inner: Arc<Shared>,
}

/// The cache state and the condition its claim waiters block on, in
/// one allocation.
#[derive(Debug, Default)]
struct Shared {
    state: Mutex<ProbeCacheInner>,
    /// Signalled when a claimed key is filled or released.
    settled: Condvar,
}

/// Deterministic size model for [`ProbeCache::approx_bytes`]: one
/// cached row is an `AllocKey` + [`Estimate`] plus ordered-map
/// overhead. A fixed per-row figure (not a platform `size_of`) so the
/// byte counter is part of the bit-identical surface and can be gated.
const PROBE_ROW_BYTES: u64 = 64;
/// Per-generation overhead in the same size model: the outer map node
/// and the recency stamp.
const PROBE_GENERATION_BYTES: u64 = 96;

/// One `(model, tenant)` generation: its allocation-keyed rows plus
/// the last logical epoch that read or wrote any of them.
#[derive(Debug)]
struct Generation {
    rows: BTreeMap<AllocKey, Estimate>,
    last_used: u64,
}

impl Generation {
    /// Stamp this generation (`id` in `recency`) with `epoch`. Its
    /// victim-index entry moves only when the stamp changes, so repeat
    /// touches within one epoch are a compare. The old entry is found
    /// by the *stored* stamp, which keeps this correct when epochs go
    /// backwards (a restore installs the snapshot's sequence number).
    fn stamp(&mut self, id: (u64, u64), epoch: u64, recency: &mut BTreeSet<(u64, (u64, u64))>) {
        if self.last_used != epoch {
            recency.remove(&(self.last_used, id));
            recency.insert((epoch, id));
            self.last_used = epoch;
        }
    }
}

#[derive(Debug, Default)]
struct ProbeCacheInner {
    // BTreeMaps, not HashMaps: `samples_for` feeds refinement's model
    // fits, whose float sums are order-sensitive, and `export` must be
    // deterministic by construction.
    map: BTreeMap<(u64, u64), Generation>,
    // The victim index: one `(last_used, generation)` entry per
    // generation in `map`. Its first entry is the next victim, and
    // ties break by key order, not hash order.
    recency: BTreeSet<(u64, (u64, u64))>,
    // Total rows across every generation in `map`.
    rows: usize,
    epoch: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    // Keys whose miss a thread is computing, at most one per thread.
    claims: Vec<((u64, u64), AllocKey)>,
    // Threads blocked in `get_or_claim` until a claim settles.
    waiters: usize,
    // Holders per hosted tenant fingerprint; none reads 0. Only looked
    // up.
    holders: HashMap<u64, usize>,
    // Tenants released to no holder, or imported unheld, since the
    // last prune: the only ones whose generations a prune can drop.
    released: BTreeSet<u64>,
}

impl ProbeCacheInner {
    /// Store rows under generation `id` and stamp the generation with
    /// the current epoch: one map lookup and one stamp however many
    /// rows. Overwriting an existing key adds no row.
    fn put(&mut self, id: (u64, u64), rows: impl IntoIterator<Item = (AllocKey, Estimate)>) {
        let epoch = self.epoch;
        let gen = match self.map.entry(id) {
            Entry::Occupied(e) => {
                let gen = e.into_mut();
                gen.stamp(id, epoch, &mut self.recency);
                gen
            }
            Entry::Vacant(e) => {
                self.recency.insert((epoch, id));
                e.insert(Generation {
                    rows: BTreeMap::new(),
                    last_used: epoch,
                })
            }
        };
        let before = gen.rows.len();
        gen.rows.extend(rows);
        self.rows += gen.rows.len() - before;
    }

    /// Remove generation `id`, unlinking it from the victim index and
    /// the row count. Returns the rows it held, `None` when it was not
    /// cached. Every removal — eviction, sweep, targeted prune — goes
    /// through here.
    fn remove(&mut self, id: (u64, u64)) -> Option<usize> {
        let gen = self.map.remove(&id)?;
        self.recency.remove(&(gen.last_used, id));
        self.rows -= gen.rows.len();
        Some(gen.rows.len())
    }

    /// Keep only the generations `keep` accepts — one pass over the
    /// whole cache.
    fn retain(&mut self, keep: impl Fn((u64, u64)) -> bool) {
        let dropped: Vec<(u64, u64)> = self.map.keys().copied().filter(|&id| !keep(id)).collect();
        for id in dropped {
            self.remove(id);
        }
    }
}

impl ProbeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache state. A poisoned lock is taken as is: no critical
    /// section calls out of the cache, so none stops part-way, and
    /// [`Claim`]'s drop must not panic.
    fn lock(&self) -> MutexGuard<'_, ProbeCacheInner> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached estimate for `key` in generation `id` (`(model,
    /// tenant)`), counted as a hit and refreshing the generation's
    /// recency stamp, or else the claim to compute it, counted as a
    /// miss. A key another thread has claimed is waited for.
    fn get_or_claim(&self, id: (u64, u64), key: AllocKey) -> Result<Estimate, Claim<'_>> {
        let mut guard = self.lock();
        loop {
            let inner = &mut *guard;
            let hit = inner.map.get_mut(&id).and_then(|gen| {
                let est = gen.rows.get(&key).copied()?;
                gen.stamp(id, inner.epoch, &mut inner.recency);
                Some(est)
            });
            if let Some(est) = hit {
                inner.hits += 1;
                return Ok(est);
            }
            if !inner.claims.contains(&(id, key)) {
                inner.misses += 1;
                inner.claims.push((id, key));
                return Err(Claim {
                    cache: self,
                    id,
                    key,
                });
            }
            inner.waiters += 1;
            guard = self
                .inner
                .settled
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
            guard.waiters -= 1;
        }
    }

    /// Drop the claim on `key` in `id`, under the held lock `inner`,
    /// and wake its waiters, if any (a single thread pays no wake-up).
    /// A waiter finds the row a [`Claim::fill`] stored, or claims the
    /// key in turn.
    fn release(&self, mut inner: MutexGuard<'_, ProbeCacheInner>, id: (u64, u64), key: AllocKey) {
        inner.claims.retain(|&claim| claim != (id, key));
        if inner.waiters > 0 {
            self.inner.settled.notify_all();
        }
    }

    /// All cached (allocation, estimate) pairs of one generation.
    fn samples_for(&self, id: (u64, u64)) -> Vec<(Allocation, Estimate)> {
        self.lock()
            .map
            .get(&id)
            .map(|g| {
                g.rows
                    .iter()
                    .map(|(&key, &est)| (Allocation::from_key(key), est))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Drop every generation whose *tenant* fingerprint is not in
    /// `live`, in a full sweep over the cache. [`Self::prune`] drops
    /// the same rows by lookup, from the holds its advisors keep.
    pub fn retain_tenants(&self, live: &HashSet<u64>) {
        self.lock().retain(|(_, tenant)| live.contains(&tenant));
    }

    /// Drop every generation whose *model* fingerprint is not in
    /// `live`, in a full sweep: a decommissioned machine's calibration
    /// leaves generations with live tenant fingerprints behind.
    /// [`Self::prune`] drops the same rows by lookup.
    pub fn retain_models(&self, live: &HashSet<u64>) {
        self.lock().retain(|(model, _)| live.contains(&model));
    }

    /// Count one more hosted tenant with fingerprint `fp`.
    pub(crate) fn hold_tenant(&self, fp: u64) {
        *self.lock().holders.entry(fp).or_insert(0) += 1;
    }

    /// Count one hosted tenant with fingerprint `fp` fewer; the last
    /// one queues `fp` for the next [`Self::prune`]. An unheld `fp` is
    /// left alone.
    pub(crate) fn release_tenant(&self, fp: u64) {
        let mut inner = self.lock();
        let Some(holders) = inner.holders.get_mut(&fp) else {
            return;
        };
        *holders -= 1;
        if *holders == 0 {
            inner.holders.remove(&fp);
            inner.released.insert(fp);
        }
    }

    /// Drop every generation of a model not in `live_models`, and of a
    /// tenant that lost its last holder (or was imported unheld) since
    /// the last prune and is not held again. Workload drift mints a
    /// tenant fingerprint per change, so without this the dead
    /// generations would accumulate forever. The rows are those
    /// [`Self::retain_models`] and [`Self::retain_tenants`] would drop,
    /// found by lookups in the `(model, tenant)`-ordered map. The
    /// caller must pass every model any holder of the cache prices
    /// with, and call it between solves.
    pub fn prune(&self, live_models: &HashSet<u64>) {
        let mut inner = self.lock();
        let dead_tenants: Vec<u64> = std::mem::take(&mut inner.released)
            .into_iter()
            .filter(|fp| !inner.holders.contains_key(fp))
            .collect();
        let mut next = Some(0);
        while let Some(from) = next {
            let Some(&(model, _)) = inner.map.range((from, 0)..).next().map(|(id, _)| id) else {
                break;
            };
            next = model.checked_add(1);
            if live_models.contains(&model) {
                for &tenant in &dead_tenants {
                    inner.remove((model, tenant));
                }
            } else {
                let dead: Vec<(u64, u64)> = inner
                    .map
                    .range((model, 0)..=(model, u64::MAX))
                    .map(|(&id, _)| id)
                    .collect();
                for id in dead {
                    inner.remove(id);
                }
            }
        }
    }

    /// Every cached entry, flattened to `(model fingerprint, tenant
    /// fingerprint, allocation key, estimate)` rows in a deterministic
    /// order (sorted by generation, then allocation key) — the
    /// snapshot export. Pair with [`Self::import`] to rebuild the
    /// cache in a restarted process.
    pub fn export(&self) -> Vec<(u64, u64, AllocKey, Estimate)> {
        self.lock()
            .map
            .iter()
            .flat_map(|(&(model, tenant), g)| {
                g.rows
                    .iter()
                    .map(move |(&key, &est)| (model, tenant, key, est))
            })
            .collect()
    }

    /// Insert previously [`export`](Self::export)ed rows. Existing
    /// entries under the same keys are overwritten; hit/miss counters
    /// are untouched (they describe this process's lookups, not the
    /// imported history). Imported generations are stamped with the
    /// *current* epoch: recency is runtime state, not durable state,
    /// so a restored cache treats everything it was handed as
    /// just-used (see `docs/FORMATS.md`). Each run of adjacent rows
    /// with one `(model, tenant)` — a whole generation, in export
    /// order — is stored with one lookup. Holds are not durable: an
    /// imported generation's tenant that nobody holds is queued for
    /// the next [`Self::prune`].
    pub fn import(&self, rows: &[(u64, u64, AllocKey, Estimate)]) {
        let mut inner = self.lock();
        for run in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (model, tenant, _, _) = run[0];
            inner.put(
                (model, tenant),
                run.iter().map(|&(_, _, key, est)| (key, est)),
            );
            if !inner.holders.contains_key(&tenant) {
                inner.released.insert(tenant);
            }
        }
    }

    /// Set the row capacity of the bounded-memory mode; `0` (the
    /// default) means unbounded. The cap is *not* enforced here — it
    /// takes effect at the next [`Self::enforce_capacity`] call, so
    /// arming a cap mid-wave cannot race a parallel solve.
    pub fn set_capacity(&self, rows: usize) {
        self.lock().capacity = rows;
    }

    /// The configured row capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Install the logical epoch used to stamp generation recency.
    /// The control plane calls this serially with its event sequence
    /// number before dispatching each event or batch; it is never
    /// derived from wall-clock time.
    pub fn set_epoch(&self, epoch: u64) {
        self.lock().epoch = epoch;
    }

    /// Evict least-recently-used generations until the total row count
    /// fits the configured capacity, returning the number of rows
    /// evicted by this call. Victims are whole `(model, tenant)`
    /// generations in ascending `(last_used_epoch, model, tenant)`
    /// order — a total, deterministic order, so the victim sequence is
    /// identical across runs and thread counts. Must only be called at
    /// serial sync points (the control plane calls it after each event
    /// or batch, never from inside a solve wave).
    pub fn enforce_capacity(&self) -> u64 {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        while inner.rows > inner.capacity {
            let Some((_, id)) = inner.recency.pop_first() else {
                break;
            };
            let rows = inner
                .remove(id)
                .expect("the victim index holds only cached generations");
            evicted += rows as u64;
        }
        inner.evictions += evicted;
        evicted
    }

    /// Rows evicted by [`Self::enforce_capacity`] over the cache's
    /// lifetime.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Approximate resident size under a *fixed, deterministic* size
    /// model (64 bytes per row plus 96 per generation) — an accounting
    /// figure that is bit-identical across platforms and thread
    /// counts, not a heap measurement.
    pub fn approx_bytes(&self) -> u64 {
        let inner = self.lock();
        inner.rows as u64 * PROBE_ROW_BYTES + inner.map.len() as u64 * PROBE_GENERATION_BYTES
    }

    /// Cache hits recorded over the cache's lifetime.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Cache misses recorded over the cache's lifetime.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Total cached estimates across all generations.
    pub fn len(&self) -> usize {
        self.lock().rows
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }
}

/// A claimed miss (see [`ProbeCache`], "Claimed misses"): its holder
/// computes the estimate and [`fill`](Self::fill)s it. Dropping an
/// unfilled claim releases it, so a compute that unwinds never strands
/// a waiter.
#[must_use]
struct Claim<'c> {
    cache: &'c ProbeCache,
    id: (u64, u64),
    key: AllocKey,
}

impl Claim<'_> {
    /// Store the claimed key's estimate, stamping its generation with
    /// the current epoch, and release the claim in the same lock.
    fn fill(self, estimate: Estimate) {
        let mut inner = self.cache.lock();
        inner.put(self.id, [(self.key, estimate)]);
        self.cache.release(inner, self.id, self.key);
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.release(self.cache.lock(), self.id, self.key);
    }
}

/// The cached what-if estimator for one tenant.
#[derive(Debug)]
pub struct WhatIfEstimator<'a> {
    tenant: &'a Tenant,
    model: &'a CalibratedModel,
    /// The cache and the `(model, tenant)` generation this estimator
    /// reads and fills; `None` is the §4.5 ablation.
    cache: Option<(ProbeCache, (u64, u64))>,
    optimizer_calls: AtomicU64,
    cache_hits: AtomicU64,
}

impl<'a> WhatIfEstimator<'a> {
    /// Create an estimator with a private cache.
    pub fn new(tenant: &'a Tenant, model: &'a CalibratedModel) -> Self {
        Self::with_probe_cache(tenant, model, ProbeCache::new())
    }

    /// Create an estimator backed by a [`ProbeCache`] that outlives it.
    /// Entries are keyed by the calibrated model's
    /// [`fingerprint`](CalibratedModel::fingerprint) *and* the
    /// tenant's [`fingerprint`](Tenant::fingerprint), so they survive
    /// estimator churn, monitoring periods, and machine boundaries —
    /// but never serve a changed workload or a replaced calibration.
    pub fn with_probe_cache(
        tenant: &'a Tenant,
        model: &'a CalibratedModel,
        cache: ProbeCache,
    ) -> Self {
        WhatIfEstimator {
            cache: Some((cache, (model.fingerprint(), tenant.fingerprint()))),
            ..Self::without_cache(tenant, model)
        }
    }

    /// Create an estimator with the cache disabled (the §4.5 caching
    /// ablation).
    pub fn without_cache(tenant: &'a Tenant, model: &'a CalibratedModel) -> Self {
        WhatIfEstimator {
            tenant,
            model,
            cache: None,
            optimizer_calls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// The tenant being estimated.
    pub fn tenant(&self) -> &Tenant {
        self.tenant
    }

    /// Estimated cost (seconds) of the tenant's workload under `alloc`.
    pub fn estimate(&self, alloc: Allocation) -> Estimate {
        let Some((cache, id)) = &self.cache else {
            return self.compute(alloc);
        };
        match cache.get_or_claim(*id, alloc.key()) {
            Ok(est) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                est
            }
            Err(claim) => {
                let est = self.compute(alloc);
                claim.fill(est);
                est
            }
        }
    }

    /// Estimated cost in seconds (convenience).
    pub fn cost(&self, alloc: Allocation) -> f64 {
        self.estimate(alloc).seconds
    }

    fn compute(&self, alloc: Allocation) -> Estimate {
        let params = self.model.params_at(&self.tenant.engine, alloc);
        let factors = self.tenant.engine.factors(&params);
        let optimizer = Optimizer::new(&self.tenant.catalog, factors);
        let mut total = 0.0;
        let mut regime = Fnv64::new();
        let mut statements = 0.0;
        for s in self.tenant.statements() {
            self.optimizer_calls.fetch_add(1, Ordering::Relaxed);
            let plan = optimizer.plan(&s.query);
            total += self.model.to_seconds_at(plan.native_cost, alloc) * s.count;
            statements += s.count;
            regime.write_u64(plan.signature);
        }
        Estimate {
            seconds: total,
            plan_regime: regime.finish(),
            avg_cost_per_statement: if statements > 0.0 {
                total / statements
            } else {
                0.0
            },
        }
    }

    /// Total optimizer invocations by this estimator instance.
    pub fn optimizer_calls(&self) -> u64 {
        self.optimizer_calls.load(Ordering::Relaxed)
    }

    /// Cache hits recorded by this estimator instance.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Snapshot of every allocation estimated so far (refinement fits
    /// its initial models from these enumeration-time samples, §5.1).
    /// With a cache that outlives the estimator this includes samples
    /// other estimators stored for the same model and tenant
    /// fingerprints.
    pub fn samples(&self) -> Vec<(Allocation, Estimate)> {
        self.cache
            .as_ref()
            .map(|(cache, id)| cache.samples_for(*id))
            .unwrap_or_default()
    }
}

impl CostModel for WhatIfEstimator<'_> {
    fn estimate(&self, alloc: Allocation) -> Estimate {
        WhatIfEstimator::estimate(self, alloc)
    }

    fn optimizer_calls(&self) -> u64 {
        WhatIfEstimator::optimizer_calls(self)
    }

    fn cache_hits(&self) -> u64 {
        WhatIfEstimator::cache_hits(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::calibration::Calibrator;
    use vda_simdb::engines::Engine;
    use vda_vmm::{Hypervisor, PhysicalMachine};
    use vda_workloads::tpch;

    fn setup() -> (Hypervisor, Tenant) {
        let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
        let tenant = Tenant::new(
            "t",
            Engine::pg(),
            tpch::catalog(1.0),
            tpch::query_workload(6, 3.0),
        )
        .unwrap();
        (hv, tenant)
    }

    #[test]
    fn estimates_scale_with_statement_count() {
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let single = Tenant::new(
            "s",
            Engine::pg(),
            tpch::catalog(1.0),
            tpch::query_workload(6, 1.0),
        )
        .unwrap();
        let e3 = WhatIfEstimator::new(&tenant, &model).cost(Allocation::new(0.5, 0.5));
        let e1 = WhatIfEstimator::new(&single, &model).cost(Allocation::new(0.5, 0.5));
        assert!((e3 / e1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cache_avoids_repeat_optimizer_calls() {
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let est = WhatIfEstimator::new(&tenant, &model);
        let a = Allocation::new(0.5, 0.5);
        let first = est.estimate(a);
        let calls_after_first = est.optimizer_calls();
        let second = est.estimate(a);
        assert_eq!(first, second);
        assert_eq!(est.optimizer_calls(), calls_after_first);
        assert_eq!(est.cache_hits(), 1);
    }

    #[test]
    fn disabled_cache_repeats_work() {
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let est = WhatIfEstimator::without_cache(&tenant, &model);
        let a = Allocation::new(0.5, 0.5);
        est.estimate(a);
        let calls = est.optimizer_calls();
        est.estimate(a);
        assert_eq!(est.optimizer_calls(), 2 * calls);
    }

    #[test]
    fn adapted_models_never_alias_their_base_in_the_probe_cache() {
        use crate::costmodel::adaptive::{Adaption, AxisCorrection};

        let (hv, tenant) = setup();
        let base = Calibrator::new(&hv).calibrate(&tenant.engine);
        let adaption = Adaption {
            correction: AxisCorrection::scale_only(1.5),
            version: 7,
        };
        let adapted = base.clone().with_adaption(adaption);
        // The fingerprint hashes the model's full debug form, so the
        // overlay (and its version) salts it automatically.
        assert_ne!(base.fingerprint(), adapted.fingerprint());
        let rev = Adaption {
            version: 8,
            ..adaption
        };
        assert_ne!(
            adapted.fingerprint(),
            base.clone().with_adaption(rev).fingerprint(),
            "same coefficients at a different storage version are a \
             different model to every cache"
        );
        // Stripping the overlay restores the base fingerprint exactly
        // (rollback relies on this).
        assert_eq!(
            adapted.clone().without_adaption().fingerprint(),
            base.fingerprint()
        );

        // Regression: a probe-cache row primed by the base model must
        // never be served to the adapted model, and vice versa. A
        // stale hit would show up as identical seconds and zero
        // optimizer calls on the second estimator.
        let cache = ProbeCache::new();
        let a = Allocation::new(0.5, 0.5);
        let base_est = WhatIfEstimator::with_probe_cache(&tenant, &base, cache.clone());
        let e_base = base_est.estimate(a);
        assert!(base_est.optimizer_calls() > 0);

        let adapted_est = WhatIfEstimator::with_probe_cache(&tenant, &adapted, cache.clone());
        let e_adapted = adapted_est.estimate(a);
        assert!(
            adapted_est.optimizer_calls() > 0,
            "stale base-model row served to the adapted model"
        );
        assert_eq!(adapted_est.cache_hits(), 0);
        assert!(
            (e_adapted.seconds / e_base.seconds - 1.5).abs() < 1e-9,
            "the adapted estimate must carry the correction factor"
        );
        assert_eq!(cache.len(), 2, "one generation per model fingerprint");

        // And the rows stay separate: re-querying each model hits its
        // own generation.
        let again = WhatIfEstimator::with_probe_cache(&tenant, &base, cache.clone());
        assert_eq!(again.estimate(a), e_base);
        assert_eq!(again.optimizer_calls(), 0);
    }

    #[test]
    fn probe_cache_survives_estimator_churn_and_counts() {
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let cache = ProbeCache::new();
        let a = Allocation::new(0.5, 0.5);

        let first = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone());
        let e1 = first.estimate(a);
        assert!(first.optimizer_calls() > 0);
        assert_eq!(cache.misses(), 1);

        let second = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone());
        let e2 = second.estimate(a);
        assert_eq!(e1, e2);
        assert_eq!(second.optimizer_calls(), 0);
        assert_eq!(second.cache_hits(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn probe_cache_keeps_generations_side_by_side() {
        // A workload change must NOT evict the previous generation:
        // cross-period re-optimization wants the unchanged tenants'
        // probes to stay warm while the drifted tenant re-probes under
        // its new fingerprint, and a workload that reverts finds its
        // old rows.
        let (hv, mut tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let cache = ProbeCache::new();
        let a = Allocation::new(0.5, 0.5);
        let old_fp = tenant.fingerprint();

        let before = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone());
        let e_before = before.estimate(a);
        drop(before);

        tenant.set_workload(tpch::query_workload(18, 1.0)).unwrap();
        let after = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone());
        let e_after = after.estimate(a);
        assert!(after.optimizer_calls() > 0, "stale entry served");
        assert_ne!(e_before.seconds, e_after.seconds);
        assert_eq!(cache.len(), 2, "both generations must coexist");

        // Pruning against the live fingerprint set reclaims the old
        // generation.
        let live = std::collections::HashSet::from([tenant.fingerprint()]);
        cache.retain_tenants(&live);
        assert_eq!(cache.len(), 1);
        assert!(!live.contains(&old_fp));
    }

    #[test]
    fn probe_cache_keys_by_calibration() {
        // A replaced calibration changes the model fingerprint, so old
        // entries are unreachable: a stale estimate priced under the
        // old calibration is never served under the new one.
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let mut spec = vda_vmm::PhysicalMachine::paper_testbed();
        spec.core_ghz *= 2.0;
        let other = Calibrator::new(&Hypervisor::new(spec)).calibrate(&tenant.engine);
        assert_ne!(model.fingerprint(), other.fingerprint());

        let cache = ProbeCache::new();
        let a = Allocation::new(0.5, 0.5);
        let _ = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone()).estimate(a);
        let recal = WhatIfEstimator::with_probe_cache(&tenant, &other, cache.clone());
        let _ = recal.estimate(a);
        assert!(recal.optimizer_calls() > 0, "stale calibration served");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn probe_cache_retain_models_evicts_removed_machines() {
        // Regression: retain_tenants only keys on the tenant
        // fingerprint, so decommissioning a machine left its
        // calibration's generations alive forever — the tenants still
        // exist, their fingerprints stay live, and the dead model's
        // entries were never reclaimed.
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let mut spec = vda_vmm::PhysicalMachine::paper_testbed();
        spec.core_ghz *= 2.0;
        let removed = Calibrator::new(&Hypervisor::new(spec)).calibrate(&tenant.engine);

        let cache = ProbeCache::new();
        let a = Allocation::new(0.5, 0.5);
        let _ = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone()).estimate(a);
        let _ = WhatIfEstimator::with_probe_cache(&tenant, &removed, cache.clone()).estimate(a);
        assert_eq!(cache.len(), 2);

        // Pruning by live tenants alone reclaims nothing — the tenant
        // is still live under both models. This was the leak.
        let live_tenants = std::collections::HashSet::from([tenant.fingerprint()]);
        cache.retain_tenants(&live_tenants);
        assert_eq!(cache.len(), 2, "tenant pruning cannot see dead machines");

        // Pruning by the calibrations still installed in the fleet
        // reclaims the removed machine's generation — and keeps the
        // live one's entries warm.
        let live_models = std::collections::HashSet::from([model.fingerprint()]);
        cache.retain_models(&live_models);
        assert_eq!(cache.len(), 1);
        let warm = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone());
        warm.estimate(a);
        assert_eq!(warm.optimizer_calls(), 0, "survivor entry must stay warm");
    }

    #[test]
    fn probe_cache_export_import_round_trips() {
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let cache = ProbeCache::new();
        let est = WhatIfEstimator::with_probe_cache(&tenant, &model, cache.clone());
        est.estimate(Allocation::new(0.25, 0.5));
        est.estimate(Allocation::new(0.75, 0.5));

        let rows = cache.export();
        assert_eq!(rows.len(), 2);
        // Deterministic order: sorted by (model, tenant, key).
        assert!(rows
            .windows(2)
            .all(|w| (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2)));

        // A restored cache serves the imported entries without
        // re-probing.
        let restored = ProbeCache::new();
        restored.import(&rows);
        assert_eq!(restored.len(), 2);
        let warm = WhatIfEstimator::with_probe_cache(&tenant, &model, restored.clone());
        let e = warm.estimate(Allocation::new(0.25, 0.5));
        assert_eq!(warm.optimizer_calls(), 0);
        assert_eq!(e, est.estimate(Allocation::new(0.25, 0.5)));
        assert_eq!(restored.export(), rows);
    }

    fn row(value: u64) -> Estimate {
        Estimate {
            seconds: value as f64,
            plan_regime: value,
            avg_cost_per_statement: 0.5,
        }
    }

    /// Spin until `n` threads wait on a claim in `cache`.
    fn await_waiters(cache: &ProbeCache, n: usize) {
        while cache.lock().waiters < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_lookup_of_a_claimed_key_waits_for_the_fill_and_counts_a_hit() {
        let cache = ProbeCache::new();
        let claim = cache
            .get_or_claim((42, 10), [0; 4])
            .expect_err("an empty cache misses");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.get_or_claim((42, 10), [0; 4]).ok());
            await_waiters(&cache, 1);
            claim.fill(row(7));
            assert_eq!(waiter.join().unwrap(), Some(row(7)));
        });
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_released_claim_passes_to_its_waiter() {
        let cache = ProbeCache::new();
        let claim = cache
            .get_or_claim((42, 10), [0; 4])
            .expect_err("an empty cache misses");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.get_or_claim((42, 10), [0; 4]) {
                Ok(_) => panic!("a released key has no row to hit"),
                Err(claim) => claim.fill(row(8)),
            });
            await_waiters(&cache, 1);
            // Dropping the claim unfilled releases it.
            drop(claim);
            waiter.join().unwrap();
        });
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.export(), [(42, 10, [0; 4], row(8))]);
    }

    #[test]
    fn a_hit_moves_its_generation_to_the_back_of_the_victim_order() {
        let cache = ProbeCache::new();
        for (epoch, tenant) in [(1, 10), (2, 11), (3, 12)] {
            cache.set_epoch(epoch);
            cache.import(&[(42, tenant, [0; 4], row(tenant))]);
        }
        let order = |cache: &ProbeCache| -> Vec<(u64, (u64, u64))> {
            cache.lock().recency.iter().copied().collect()
        };
        assert_eq!(order(&cache), [(1, (42, 10)), (2, (42, 11)), (3, (42, 12))]);

        cache.set_epoch(4);
        assert_eq!(cache.get_or_claim((42, 10), [0; 4]).ok(), Some(row(10)));
        let after_first_hit = order(&cache);
        assert_eq!(
            after_first_hit,
            [(2, (42, 11)), (3, (42, 12)), (4, (42, 10))]
        );
        assert_eq!(cache.get_or_claim((42, 10), [0; 4]).ok(), Some(row(10)));
        assert_eq!(
            order(&cache),
            after_first_hit,
            "a same-epoch hit moves nothing"
        );
        assert_eq!(cache.hits(), 2);

        // The oldest generations go first; the refreshed one survives.
        cache.set_capacity(1);
        assert_eq!(cache.enforce_capacity(), 2);
        assert_eq!(cache.export(), [(42, 10, [0; 4], row(10))]);
        assert_eq!(order(&cache), [(4, (42, 10))]);
    }

    /// Equivalence of the indexed cache with a reference that is the
    /// full-scan algorithm written out: a `last_used` map beside the
    /// rows, a row recount and a `min` scan over every generation for
    /// each victim, a sorted export, and a prune that scans every
    /// generation against a plain multiset of holders.
    mod indexed_eviction {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        #[derive(Debug, Default)]
        struct FullScan {
            map: BTreeMap<(u64, u64), BTreeMap<AllocKey, Estimate>>,
            last_used: BTreeMap<(u64, u64), u64>,
            epoch: u64,
            capacity: usize,
            hits: u64,
            misses: u64,
            evictions: u64,
            // Holders per tenant fingerprint; a count never reads 0.
            holders: BTreeMap<u64, usize>,
            // Tenants released by a holder or imported since the last
            // prune.
            touched: BTreeSet<u64>,
        }

        impl FullScan {
            fn rows(&self) -> usize {
                self.map.values().map(BTreeMap::len).sum()
            }

            fn get(&mut self, id: (u64, u64), key: AllocKey) -> Option<Estimate> {
                let hit = self.map.get(&id).and_then(|g| g.get(&key)).copied();
                match hit {
                    Some(_) => {
                        self.hits += 1;
                        self.last_used.insert(id, self.epoch);
                    }
                    None => self.misses += 1,
                }
                hit
            }

            /// Store one row, as a filled claim does.
            fn fill(&mut self, id: (u64, u64), key: AllocKey, estimate: Estimate) {
                self.map.entry(id).or_default().insert(key, estimate);
                self.last_used.insert(id, self.epoch);
            }

            /// Store one imported row.
            fn insert(&mut self, id: (u64, u64), key: AllocKey, estimate: Estimate) {
                self.fill(id, key, estimate);
                self.touched.insert(id.1);
            }

            fn hold(&mut self, tenant: u64) {
                *self.holders.entry(tenant).or_default() += 1;
            }

            fn release(&mut self, tenant: u64) {
                if let Some(count) = self.holders.get_mut(&tenant) {
                    *count -= 1;
                    if *count == 0 {
                        self.holders.remove(&tenant);
                    }
                    self.touched.insert(tenant);
                }
            }

            /// Drop each generation whose model is not live, or whose
            /// tenant nobody holds and was released or imported since
            /// the last prune.
            fn prune(&mut self, live_models: &HashSet<u64>) {
                let touched = std::mem::take(&mut self.touched);
                let dead: Vec<(u64, u64)> = self
                    .map
                    .keys()
                    .copied()
                    .filter(|&(m, t)| {
                        !live_models.contains(&m)
                            || (!self.holders.contains_key(&t) && touched.contains(&t))
                    })
                    .collect();
                self.retain(|id| !dead.contains(&id));
            }

            fn retain(&mut self, keep: impl Fn((u64, u64)) -> bool) {
                self.map.retain(|&id, _| keep(id));
                self.last_used.retain(|&id, _| keep(id));
            }

            fn enforce_capacity(&mut self) -> u64 {
                if self.capacity == 0 {
                    return 0;
                }
                let mut evicted = 0;
                while self.rows() > self.capacity {
                    let (_, victim) = self
                        .map
                        .keys()
                        .map(|&id| (self.last_used[&id], id))
                        .min()
                        .expect("rows above capacity means a generation exists");
                    evicted += self.map.remove(&victim).map_or(0, |g| g.len()) as u64;
                    self.last_used.remove(&victim);
                }
                self.evictions += evicted;
                evicted
            }

            fn export(&self) -> Vec<(u64, u64, AllocKey, Estimate)> {
                let mut rows: Vec<_> = self
                    .map
                    .iter()
                    .flat_map(|(&(m, t), g)| g.iter().map(move |(&k, &e)| (m, t, k, e)))
                    .collect();
                rows.sort_by_key(|r| (r.0, r.1, r.2));
                rows
            }

            fn approx_bytes(&self) -> u64 {
                self.rows() as u64 * PROBE_ROW_BYTES
                    + self.map.len() as u64 * PROBE_GENERATION_BYTES
            }
        }

        /// A `(model, tenant, key, value)` draw over small domains, so
        /// generations and keys collide often.
        type Draw = (u64, u64, u32, u64);

        #[derive(Debug, Clone)]
        enum Op {
            SetEpoch(u64),
            Insert(Draw),
            Get(Draw),
            Fill(Draw),
            Import(Vec<Draw>),
            RetainTenants(Vec<u64>),
            RetainModels(Vec<u64>),
            SetCapacity(usize),
            Enforce,
            Hold(u64),
            Release(u64),
            Prune(Vec<u64>),
        }

        fn draw() -> impl Strategy<Value = Draw> {
            (0u64..3, 0u64..6, 0u32..4, 0u64..1000)
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..8).prop_map(Op::SetEpoch),
                draw().prop_map(Op::Insert),
                draw().prop_map(Op::Insert),
                draw().prop_map(Op::Get),
                draw().prop_map(Op::Get),
                draw().prop_map(Op::Get),
                draw().prop_map(Op::Fill),
                proptest::collection::vec(draw(), 0..8).prop_map(Op::Import),
                proptest::collection::vec(0u64..6, 0..6).prop_map(Op::RetainTenants),
                proptest::collection::vec(0u64..3, 0..3).prop_map(Op::RetainModels),
                (0usize..14).prop_map(Op::SetCapacity),
                Just(Op::Enforce),
                Just(Op::Enforce),
                (0u64..6).prop_map(Op::Hold),
                (0u64..6).prop_map(Op::Hold),
                (0u64..6).prop_map(Op::Release),
                (0u64..6).prop_map(Op::Release),
                proptest::collection::vec(0u64..3, 0..4).prop_map(Op::Prune),
            ]
        }

        fn key(k: u32) -> AllocKey {
            [k, 0, 0, 0]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn indexed_eviction_equals_the_full_scan(
                ops in proptest::collection::vec(op(), 1..120)
            ) {
                let cache = ProbeCache::new();
                let mut reference = FullScan::default();
                for op in ops {
                    match op {
                        Op::SetEpoch(epoch) => {
                            cache.set_epoch(epoch);
                            reference.epoch = epoch;
                        }
                        Op::Insert((m, t, k, v)) => {
                            cache.import(&[(m, t, key(k), row(v))]);
                            reference.insert((m, t), key(k), row(v));
                        }
                        Op::Get((m, t, k, _)) => {
                            // A miss drops its claim unfilled.
                            prop_assert_eq!(
                                cache.get_or_claim((m, t), key(k)).ok(),
                                reference.get((m, t), key(k))
                            );
                        }
                        Op::Fill((m, t, k, v)) => {
                            // A miss fills its claim, as an estimator
                            // does; no holder is involved.
                            let hit = match cache.get_or_claim((m, t), key(k)) {
                                Ok(est) => Some(est),
                                Err(claim) => {
                                    claim.fill(row(v));
                                    None
                                }
                            };
                            let expected = reference.get((m, t), key(k));
                            if expected.is_none() {
                                reference.fill((m, t), key(k), row(v));
                            }
                            prop_assert_eq!(hit, expected);
                        }
                        Op::Import(draws) => {
                            let rows: Vec<_> =
                                draws.iter().map(|&(m, t, k, v)| (m, t, key(k), row(v))).collect();
                            cache.import(&rows);
                            for (m, t, k, e) in rows {
                                reference.insert((m, t), k, e);
                            }
                        }
                        Op::RetainTenants(live) => {
                            let live: HashSet<u64> = live.into_iter().collect();
                            cache.retain_tenants(&live);
                            reference.retain(|(_, t)| live.contains(&t));
                        }
                        Op::RetainModels(live) => {
                            let live: HashSet<u64> = live.into_iter().collect();
                            cache.retain_models(&live);
                            reference.retain(|(m, _)| live.contains(&m));
                        }
                        Op::SetCapacity(rows) => {
                            cache.set_capacity(rows);
                            reference.capacity = rows;
                        }
                        Op::Enforce => {
                            prop_assert_eq!(cache.enforce_capacity(), reference.enforce_capacity());
                        }
                        Op::Hold(t) => {
                            cache.hold_tenant(t);
                            reference.hold(t);
                        }
                        Op::Release(t) => {
                            cache.release_tenant(t);
                            reference.release(t);
                        }
                        Op::Prune(live) => {
                            let live: HashSet<u64> = live.into_iter().collect();
                            cache.prune(&live);
                            reference.prune(&live);
                        }
                    }
                    prop_assert_eq!(cache.export(), reference.export());
                    prop_assert_eq!(cache.len(), reference.rows());
                    prop_assert_eq!(cache.is_empty(), reference.map.is_empty());
                    prop_assert_eq!(cache.approx_bytes(), reference.approx_bytes());
                    prop_assert_eq!(
                        (cache.hits(), cache.misses(), cache.evictions()),
                        (reference.hits, reference.misses, reference.evictions)
                    );
                }
            }
        }
    }

    #[test]
    fn more_cpu_never_costs_more() {
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let est = WhatIfEstimator::new(&tenant, &model);
        let mut prev = f64::INFINITY;
        for i in 1..=10 {
            let c = est.cost(Allocation::new(i as f64 / 10.0, 0.5));
            assert!(c <= prev + 1e-9, "cost rose with CPU at level {i}");
            prev = c;
        }
    }

    #[test]
    fn estimate_tracks_actual_for_dss() {
        // End-to-end §4 validation: calibrated what-if estimates land
        // near executor actuals for a well-modeled read-only workload.
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let est = WhatIfEstimator::new(&tenant, &model);
        for &(c, m) in &[(0.3, 0.5), (0.6, 0.4), (0.9, 0.8)] {
            let alloc = Allocation::new(c, m);
            let predicted = est.cost(alloc);
            let actual = tenant.actual_cost(&hv, alloc);
            let err = (predicted - actual).abs() / actual;
            assert!(
                err < 0.1,
                "estimate {predicted} vs actual {actual} (err {err}) at {alloc:?}"
            );
        }
    }

    #[test]
    fn estimate_tracks_actual_across_disk_shares() {
        // The third axis is *priced*, not just representable: with a
        // disk-calibrated model, what-if estimates track the
        // executor's actuals across disk-bandwidth shares.
        use crate::costmodel::calibration::CalibrationConfig;
        use crate::problem::Resource;
        let (hv, tenant) = setup();
        let cal = Calibrator::with_config(
            &hv,
            CalibrationConfig::with_disk_levels(vec![0.25, 0.5, 1.0]),
        );
        let model = cal.calibrate(&tenant.engine);
        let est = WhatIfEstimator::new(&tenant, &model);
        for &d in &[0.2, 0.4, 0.75, 1.0] {
            let alloc = Allocation::new(0.5, 0.5).with(Resource::DiskBandwidth, d);
            let predicted = est.cost(alloc);
            let actual = tenant.actual_cost(&hv, alloc);
            let err = (predicted - actual).abs() / actual;
            assert!(
                err < 0.1,
                "estimate {predicted} vs actual {actual} (err {err}) at disk {d}"
            );
        }
        // The axis genuinely moves the estimate: at a quarter of the
        // disk, the scan workload's I/O time quadruples.
        let full = est.cost(Allocation::new(0.5, 0.5));
        let quarter = est.cost(Allocation::new(0.5, 0.5).with(Resource::DiskBandwidth, 0.25));
        assert!(
            quarter > full * 1.05,
            "quartering disk must hurt: {quarter} vs {full}"
        );
    }

    #[test]
    fn uncalibrated_disk_axis_prices_at_reference_share() {
        // Without disk calibration the estimator must NOT silently
        // invent a disk price: the estimate is the reference-share
        // estimate regardless of the allocation's disk component.
        use crate::problem::Resource;
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let est = WhatIfEstimator::new(&tenant, &model);
        let a = est.cost(Allocation::new(0.5, 0.5));
        let b = est.cost(Allocation::new(0.5, 0.5).with(Resource::DiskBandwidth, 0.5));
        assert_eq!(a, b);
    }

    #[test]
    fn samples_reflect_probed_allocations() {
        let (hv, tenant) = setup();
        let model = Calibrator::new(&hv).calibrate(&tenant.engine);
        let est = WhatIfEstimator::new(&tenant, &model);
        est.cost(Allocation::new(0.25, 0.5));
        est.cost(Allocation::new(0.75, 0.5));
        let samples = est.samples();
        assert_eq!(samples.len(), 2);
    }
}
