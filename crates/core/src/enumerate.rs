//! Configuration enumeration (§4.5), over an arbitrary axis set.
//! Each solver has one entry point:
//!
//! * [`greedy_search_with`] is the paper's Figure 11 algorithm
//!   verbatim: start from equal shares, and in each iteration consider
//!   shifting a share δ of some resource from the workload that
//!   suffers least to the workload that benefits most, honoring
//!   degradation limits `L_i` and weighting costs by gain factors
//!   `G_i`. The search terminates when no beneficial reallocation
//!   exists.
//! * [`try_exhaustive_search_with`] finds the *true* optimum over the
//!   same δ-quantized allocation grid. Because the objective
//!   `Σ G_i·Cost_i` is separable (each workload's cost depends only on
//!   its own allocation), the grid optimum is computable exactly by
//!   dynamic programming over remaining resource budgets instead of
//!   enumerating every composition — same answer as brute force,
//!   polynomial cost. The paper uses exhaustive search to show greedy
//!   is "very often optimal and always within 5 % of the optimal"
//!   (§4.5, §7.6–7.7).
//! * [`try_coarse_to_fine_search_with`] reaches the same grid optimum
//!   through one coarse-δ solve plus one windowed fine refinement
//!   loop, at a fraction of the optimizer calls. The loop serves
//!   unconstrained and limited problems alike; under finite
//!   degradation limits its windows also track the limit boundary
//!   (see the function docs). [`coarse_to_fine_search_with`] is its
//!   panicking shorthand. Nothing memoizes a solve: a repeat pays
//!   optimizer calls only for the probes its caller's
//!   [`ProbeCache`](crate::costmodel::ProbeCache) does not hold.
//!
//! All searches report jointly infeasible limits the same way: a
//! best-effort allocation with the violations flagged in
//! [`SearchResult::limits_met`], never a panic. The grid solvers
//! return `None` for a grid they cannot solve: one too coarse to host
//! every workload's minimum share, or one finer than the
//! [`KEY_STEPS`] allocation-key resolution, whose neighbouring cells
//! would share one cached probe and one cost.
//!
//! Every algorithm here is **M-dimensional**: the varied axes come
//! from the search space's [`AxisSet`](crate::problem::AxisSet), the DP budget lattice has one
//! dimension per varied axis (each with its own δ), and windows /
//! boundary bands are per-axis boxes. Restricted to the paper's
//! `{Cpu, Memory}` the code paths reduce exactly to the historical
//! two-axis implementation — probe sequences, tie-breaking, and
//! results are bit-identical (`tests/m_axes.rs` pins this against a
//! frozen copy of the legacy 2-axis DP).
//!
//! Every search consumes one [`CostModel`] per workload — what-if
//! estimators, refined models, the executor oracle, or synthetic
//! models — and evaluate each iteration's candidate set as a batch.
//! With [`SearchOptions::parallel`] the batch fans out across threads.
//! No batch repeats a (workload, allocation) probe, so the parallel
//! and serial paths evaluate the same probes and return bit-identical
//! results (the selection logic, and therefore tie-breaking, is always
//! serial).

use crate::costmodel::model::CostModel;
use crate::problem::{Allocation, QoS, Resource, SearchSpace, KEY_STEPS};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use vda_simdb::hash::Fnv64;

/// One greedy reallocation step, for tracing/benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Resource shifted.
    pub resource: Resource,
    /// Workload that received δ.
    pub winner: usize,
    /// Workload that gave up δ.
    pub loser: usize,
    /// Net gain-weighted cost reduction.
    pub improvement: f64,
}

/// Result of a search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Recommended allocation per workload.
    pub allocations: Vec<Allocation>,
    /// Gain-weighted total cost at the recommendation.
    pub weighted_cost: f64,
    /// Unweighted per-workload costs at the recommendation.
    pub costs: Vec<f64>,
    /// Greedy iterations executed (0 for exhaustive search).
    pub iterations: usize,
    /// Greedy trace (empty for exhaustive search).
    pub trace: Vec<TraceStep>,
    /// Per-workload: whether the degradation limit is satisfied at the
    /// recommendation. All `true` unless the limits are jointly
    /// infeasible (the paper's Fig. 19 shows exactly such a case at
    /// `L9 = 1.5`).
    pub limits_met: Vec<bool>,
}

/// How the enumerators evaluate candidate sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// Evaluate each iteration's candidate batch on multiple threads.
    /// Results are identical to the serial path either way.
    pub parallel: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { parallel: true }
    }
}

impl SearchOptions {
    /// Strictly serial evaluation.
    pub fn serial() -> Self {
        SearchOptions { parallel: false }
    }

    /// Parallel batch evaluation.
    pub fn parallel() -> Self {
        SearchOptions { parallel: true }
    }
}

/// Identifies a machine's search space (and, via [`Self::salted`], any
/// extra machine state such as hardware or resource scale) for cache
/// keying. Two machines of the same class produce identical inner
/// solves for the same tenant subset, so the fleet layer's subset
/// memoization is keyed by `(MachineClass, subset)` — never by subset
/// alone, which would silently reuse one machine's solve on different
/// hardware.
///
/// The fingerprint covers the full axis set: the varied
/// [`AxisSet`](crate::problem::AxisSet) bitmask plus every axis's
/// fixed share and δ, quantized at 1e-9
/// share resolution (far finer than any δ grid in use), so spaces that
/// differ only by floating-point dust share a class while genuinely
/// different grids — including grids differing on a *new* axis —
/// never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MachineClass(u64);

impl MachineClass {
    /// The class of a search space.
    pub fn of(space: &SearchSpace) -> Self {
        let mut h = Fnv64::new();
        h.write_u64(space.varied.bits() as u64);
        for r in Resource::ALL {
            h.write_u64(quantize_share(space.fixed.get(r)));
            h.write_u64(quantize_share(space.delta_for(r)));
        }
        h.write_u64(quantize_share(space.min_share));
        MachineClass(h.finish())
    }

    /// A derived class mixing in extra machine-distinguishing state
    /// (e.g. a hardware fingerprint, or a resource-scale quantization):
    /// same space + same salt ⇒ same class, any differing salt ⇒ a
    /// distinct class.
    #[must_use]
    pub fn salted(self, salt: u64) -> Self {
        MachineClass(Fnv64::resume(self.0).write_u64(salt).finish())
    }

    /// A derived class mixing in a share-like float (e.g. a resource
    /// scale), quantized at the same 1e-9 resolution as the space
    /// fields — the single place the class-resolution contract lives.
    #[must_use]
    pub fn salted_share(self, share: f64) -> Self {
        self.salted(quantize_share(share))
    }

    /// The raw 64-bit fingerprint.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Shares and deltas live in [0, 1]; 1e-9 resolution distinguishes
/// every grid anyone can realistically configure.
fn quantize_share(x: f64) -> u64 {
    (x * 1e9).round() as u64
}

/// Minimum weighted-cost improvement for a step to count as progress.
const PROGRESS_EPS: f64 = 1e-9;

/// Slack used everywhere a cost is compared against a degradation
/// limit: candidate acceptance in the greedy search, option
/// feasibility in the grid DP, and the final `limits_met` report. One
/// constant keeps the verdicts consistent — an allocation accepted
/// during search can never be reported limit-violating afterwards, and
/// vice versa. (The search paths used to accept at `1e-12` slack while
/// the report checked at `1e-9`, so the two could disagree in the
/// `(1e-12, 1e-9]` band.)
pub const LIMIT_EPS: f64 = 1e-9;

/// Whether `cost` satisfies the degradation limit `limit` relative to
/// the workload's solo baseline cost `full`.
fn within_limit(cost: f64, limit: f64, full: f64) -> bool {
    cost <= limit * full + LIMIT_EPS
}

/// Costs for a batch of (workload, allocation) jobs, in job order,
/// fanned out across threads when `options.parallel` is set.
///
/// Every batch is distinct by construction: greedy's ±δ probes differ
/// per (workload, resource, sign), and a grid table's cells per
/// workload. So the serial and parallel paths evaluate the same
/// probes, and a shared [`ProbeCache`](crate::costmodel::ProbeCache)
/// claims each miss once, keeping their optimizer-call counts equal.
fn batch_costs<M: CostModel>(
    models: &[M],
    options: &SearchOptions,
    jobs: &[(usize, Allocation)],
) -> Vec<f64> {
    debug_assert!(
        {
            let mut seen = BTreeSet::new();
            jobs.iter().all(|&(i, a)| seen.insert((i, a.key())))
        },
        "a batch repeats a (workload, allocation) probe"
    );
    if options.parallel && jobs.len() > 1 {
        jobs.par_map(|&(i, a)| models[i].cost(a))
    } else {
        jobs.iter().map(|&(i, a)| models[i].cost(a)).collect()
    }
}

/// The Figure 11 greedy configuration enumerator.
///
/// One cost model per workload; `qos[i]` carries `L_i`/`G_i`. Returns
/// the recommended allocations plus the iteration trace.
/// `options` only chooses serial or parallel candidate evaluation;
/// the result is bit-identical either way.
pub fn greedy_search_with<M: CostModel>(
    space: &SearchSpace,
    qos: &[QoS],
    models: &[M],
    options: &SearchOptions,
) -> SearchResult {
    let n = models.len();
    assert!(n >= 1, "at least one workload");
    assert_eq!(qos.len(), n, "one QoS entry per workload");
    let varied = space.varied();
    assert!(!varied.is_empty(), "at least one resource must be varied");
    let eval = |jobs: &[(usize, Allocation)]| batch_costs(models, options, jobs);

    // Degradation baselines: Cost(W_i, [1,…,1]) over the varied
    // resources.
    let solo = space.solo_allocation();
    let full_cost = eval(&(0..n).map(|i| (i, solo)).collect::<Vec<_>>());

    // Start with equal shares of every varied resource.
    let mut alloc: Vec<Allocation> = vec![space.default_allocation(n); n];

    // Feasibility pre-phase. Figure 11 only *preserves* degradation
    // limits when taking resources away; when the equal-share start
    // itself violates a limit (five identical workloads with
    // L_i = 2.5, §7.5), the advisor must first shift resources toward
    // the violating workload. We move δ at a time from the workload
    // with the most slack until every satisfiable limit holds.
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > 10_000 {
            break;
        }
        let current = eval(&(0..n).map(|i| (i, alloc[i])).collect::<Vec<_>>());
        let violator = (0..n)
            .filter(|&i| qos[i].degradation_limit.is_finite())
            .filter(|&i| !within_limit(current[i], qos[i].degradation_limit, full_cost[i]))
            .map(|i| (i, current[i] / full_cost[i] - qos[i].degradation_limit))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let Some((v, _)) = violator else { break };

        // Best (resource, donor) pair: maximal reduction of the
        // violator's cost among donors that stay within their own
        // limits and minimum shares. Candidate probes for every
        // (resource, donor) pair are evaluated as one batch.
        let mut jobs: Vec<(usize, Allocation)> = Vec::new();
        for &res in &varied {
            let delta = space.delta_for(res);
            if alloc[v].get(res) + delta > 1.0 + 1e-9 {
                continue;
            }
            jobs.push((v, alloc[v].shifted(res, delta)));
            for (k, a) in alloc.iter().enumerate() {
                if k == v || a.get(res) - delta < space.min_share - 1e-9 {
                    continue;
                }
                jobs.push((k, a.shifted(res, -delta)));
            }
        }
        let costs = eval(&jobs);
        let mut cursor = 0;
        let mut best: Option<(Resource, usize, f64)> = None;
        for &res in &varied {
            let delta = space.delta_for(res);
            if alloc[v].get(res) + delta > 1.0 + 1e-9 {
                continue;
            }
            let relief = current[v] - costs[cursor];
            cursor += 1;
            let donors: Vec<usize> = (0..n)
                .filter(|&k| k != v && alloc[k].get(res) - delta >= space.min_share - 1e-9)
                .collect();
            for k in donors {
                let donor_cost = costs[cursor];
                cursor += 1;
                if relief <= 0.0 {
                    continue;
                }
                if !within_limit(donor_cost, qos[k].degradation_limit, full_cost[k]) {
                    continue;
                }
                let score = relief - (donor_cost - current[k]);
                let better = best.as_ref().is_none_or(|b| score > b.2);
                if better {
                    best = Some((res, k, score));
                }
            }
        }
        let Some((res, donor, _)) = best else {
            break; // jointly infeasible: report via limits_met
        };
        let delta = space.delta_for(res);
        alloc[v] = alloc[v].shifted(res, delta);
        alloc[donor] = alloc[donor].shifted(res, -delta);
    }

    let start_costs = eval(&(0..n).map(|i| (i, alloc[i])).collect::<Vec<_>>());
    let mut weighted: Vec<f64> = (0..n).map(|i| qos[i].gain * start_costs[i]).collect();

    let mut trace = Vec::new();
    let mut iterations = 0;
    // The search moves δ-sized shares on a finite grid and each step
    // strictly decreases total weighted cost, so it terminates; the
    // cap is a safety net, not a tuning knob.
    let max_iterations = 10_000;

    while iterations < max_iterations {
        // Candidate batch: ±δ probes for every (resource, workload).
        let mut jobs: Vec<(usize, Allocation)> = Vec::new();
        for &res in &varied {
            let delta = space.delta_for(res);
            for (i, a) in alloc.iter().enumerate() {
                let share = a.get(res);
                if share + delta <= 1.0 + 1e-9 {
                    jobs.push((i, a.shifted(res, delta)));
                }
                if share - delta >= space.min_share - 1e-9 {
                    jobs.push((i, a.shifted(res, -delta)));
                }
            }
        }
        let costs = eval(&jobs);

        let mut cursor = 0;
        let mut best: Option<TraceStep> = None;
        let mut best_up_cost = 0.0;
        let mut best_down_cost = 0.0;

        for &res in &varied {
            let delta = space.delta_for(res);
            // Who benefits most from +δ?
            let mut max_gain = 0.0;
            let mut i_gain = None;
            let mut gain_cost = 0.0;
            // Who suffers least from −δ?
            let mut min_loss = f64::INFINITY;
            let mut i_lose = None;
            let mut lose_cost = 0.0;

            for (i, a) in alloc.iter().enumerate() {
                let share = a.get(res);
                if share + delta <= 1.0 + 1e-9 {
                    let up_cost = costs[cursor];
                    cursor += 1;
                    let c_up = qos[i].gain * up_cost;
                    let gain = weighted[i] - c_up;
                    if gain > max_gain {
                        max_gain = gain;
                        i_gain = Some(i);
                        gain_cost = up_cost;
                    }
                }
                if share - delta >= space.min_share - 1e-9 {
                    let c_down = costs[cursor];
                    cursor += 1;
                    // Degradation limit: only take resources away if the
                    // reduced allocation still satisfies L_i.
                    if within_limit(c_down, qos[i].degradation_limit, full_cost[i]) {
                        let loss = qos[i].gain * c_down - weighted[i];
                        if loss < min_loss {
                            min_loss = loss;
                            i_lose = Some(i);
                            lose_cost = c_down;
                        }
                    }
                }
            }

            if let (Some(w), Some(l)) = (i_gain, i_lose) {
                if w != l {
                    let improvement = max_gain - min_loss;
                    let better = best.as_ref().is_none_or(|b| improvement > b.improvement);
                    if improvement > PROGRESS_EPS && better {
                        best = Some(TraceStep {
                            resource: res,
                            winner: w,
                            loser: l,
                            improvement,
                        });
                        best_up_cost = gain_cost;
                        best_down_cost = lose_cost;
                    }
                }
            }
        }

        let Some(step) = best else { break };
        let delta = space.delta_for(step.resource);
        alloc[step.winner] = alloc[step.winner].shifted(step.resource, delta);
        alloc[step.loser] = alloc[step.loser].shifted(step.resource, -delta);
        weighted[step.winner] = qos[step.winner].gain * best_up_cost;
        weighted[step.loser] = qos[step.loser].gain * best_down_cost;
        trace.push(step);
        iterations += 1;
    }

    let costs = eval(&(0..n).map(|i| (i, alloc[i])).collect::<Vec<_>>());
    let limits_met = costs
        .iter()
        .zip(qos)
        .zip(&full_cost)
        .map(|((c, q), f)| within_limit(*c, q.degradation_limit, *f))
        .collect();
    SearchResult {
        weighted_cost: costs.iter().zip(qos).map(|(c, q)| q.gain * c).sum(),
        allocations: alloc,
        costs,
        iterations,
        trace,
        limits_met,
    }
}

/// Exact optimum over the δ-quantized grid, via DP on remaining budget
/// units (one budget dimension per varied axis). Equivalent to
/// brute-force enumeration of all grid allocations because the
/// objective is separable per workload. The DP minimizes (unmet
/// degradation limits, weighted cost) lexicographically, so whenever
/// the limits are jointly satisfiable it returns the cheapest
/// limit-respecting allocation, and when they are not it returns the
/// best-effort optimum — fewest violations first, cheapest second —
/// flagged via [`SearchResult::limits_met`], exactly like
/// [`greedy_search_with`] reports them. The fleet placement layer
/// uses this to price overloaded machine subsets by their unmet-limit
/// count instead of aborting. The per-workload cost tables over the
/// grid are evaluated as one batch (in parallel when
/// `options.parallel` is set).
///
/// `None` when the grid cannot be solved: some varied axis has fewer
/// δ units than the workloads' minimum shares need, or a δ finer than
/// the [`KEY_STEPS`] allocation-key resolution. Jointly infeasible
/// degradation limits are *not* a `None`.
pub fn try_exhaustive_search_with<M: CostModel>(
    space: &SearchSpace,
    qos: &[QoS],
    models: &[M],
    options: &SearchOptions,
) -> Option<SearchResult> {
    grid_search(space, qos, models, options, None).map(|s| s.result)
}

/// One grid point's per-axis unit coordinates, in [`Resource::ALL`]
/// order; `0` stands for a non-varied axis. The derived lexicographic
/// `Ord` matches the historical `(cpu units, memory units)` tuple
/// order on 2-axis spaces.
pub(crate) type Units = [usize; Resource::COUNT];

/// One evaluated cell of a workload's grid option table.
#[derive(Debug, Clone, Copy)]
struct GridCell {
    /// Per-axis units of the cell.
    units: Units,
    /// Unweighted cost at the cell.
    cost: f64,
    /// Gain-weighted cost at the cell.
    weighted: f64,
    /// Whether the cell satisfies the workload's degradation limit.
    within_limit: bool,
}

/// A grid DP solve plus the per-workload option tables it evaluated.
/// The limit-aware coarse-to-fine refinement reads a coarse level's
/// tables to locate the degradation-limit boundary.
struct GridSolve {
    result: SearchResult,
    /// Per workload: every evaluated cell with its limit verdict.
    tables: Vec<Vec<GridCell>>,
}

/// Per-axis `[min_units, max_units]` of one workload's share on the
/// δ grid of `space` with `n` workloads; non-varied axes carry the
/// placeholder `(0, 0)`. `None` when some varied axis cannot host
/// them all (see [`unit_range_axis`]).
fn axis_ranges(space: &SearchSpace, n: usize) -> Option<[(usize, usize); Resource::COUNT]> {
    let mut ranges = [(0usize, 0usize); Resource::COUNT];
    for r in space.varied.iter() {
        ranges[r.index()] = unit_range_axis(space.delta_for(r), space.min_share, n)?;
    }
    Some(ranges)
}

/// `[min_units, max_units]` of one workload's share on one varied
/// axis of step `delta`; `None` when the axis cannot host `n`
/// workloads (see [`axis_units`]).
fn unit_range_axis(delta: f64, min_share: f64, n: usize) -> Option<(usize, usize)> {
    let (units_total, min_units) = axis_units(delta, min_share)?;
    (units_total >= n * min_units).then(|| (min_units, units_total - (n - 1) * min_units))
}

/// The per-axis unit rule every grid solver and
/// [`machine_capacity`](crate::placement::machine_capacity) share:
/// an axis of step `delta` has `round(1/δ)` units, and each workload
/// needs `round(min_share/δ).max(1)` of them. `None` when δ is finer
/// than the [`KEY_STEPS`] allocation-key resolution: two cells would
/// then share one probe key and one cost, and the DP would price
/// cells with their neighbours' costs.
pub(crate) fn axis_units(delta: f64, min_share: f64) -> Option<(usize, usize)> {
    (delta * KEY_STEPS >= 1.0 - 1e-9).then(|| {
        let units_total = (1.0 / delta).round() as usize;
        let min_units = (min_share / delta).round().max(1.0) as usize;
        (units_total, min_units)
    })
}

/// The per-axis budget lattice: total units per axis (0 for non-varied
/// axes), the dimension strides of the flattened state array, and the
/// decoded per-axis remainder of every state index.
#[derive(Debug)]
struct BudgetLattice {
    budgets: Units,
    strides: Units,
    /// `lefts[s]` = per-axis units left at state index `s`.
    lefts: Vec<Units>,
    /// Varied axis indices (into [`Resource::ALL`]), for the inner
    /// feasibility checks.
    varied_idx: Vec<usize>,
}

/// One 16-bit lane per axis in the packed unit representation; bit 15
/// of every lane is the [`GUARD`] bit the SWAR feasibility check
/// borrows against.
const LANE_BITS: usize = 16;

/// The guard bits of the packed representation (bit 15 of each lane).
const GUARD: u64 = 0x8000_8000_8000_8000;

/// Packed per-axis units: one 15-bit value per lane. Lane `j` holds
/// axis `j`'s units, so a single guarded subtraction compares all
/// axes at once. Every budget fits a lane: [`axis_units`] caps an axis
/// at `KEY_STEPS` = 10⁴ units, below the 2^15 a lane holds.
fn pack_units(units: &Units) -> u64 {
    let mut p = 0u64;
    for (j, &u) in units.iter().enumerate() {
        p |= (u as u64) << (LANE_BITS * j);
    }
    p
}

impl BudgetLattice {
    fn new(space: &SearchSpace) -> Self {
        let mut budgets = [0usize; Resource::COUNT];
        for r in space.varied.iter() {
            let (units_total, _) = axis_units(space.delta_for(r), space.min_share)
                .expect("lattices are only built over grids the unit rule accepts");
            budgets[r.index()] = units_total;
        }
        // Later axes vary fastest, mirroring the historical
        // `cpu_left * height + mem_left` indexing.
        let mut strides = [0usize; Resource::COUNT];
        let mut stride = 1usize;
        for j in (0..Resource::COUNT).rev() {
            strides[j] = stride;
            stride *= budgets[j] + 1;
        }
        let state_count = stride;
        let mut lefts = Vec::with_capacity(state_count);
        let mut cur = [0usize; Resource::COUNT];
        for _ in 0..state_count {
            // `cur` counts up with the last axis fastest — the inverse
            // of the stride layout above, so index(cur) enumerates
            // 0..state_count in order.
            lefts.push(cur);
            for j in (0..Resource::COUNT).rev() {
                if cur[j] < budgets[j] {
                    cur[j] += 1;
                    break;
                }
                cur[j] = 0;
            }
        }
        let varied_idx = space.varied.iter().map(Resource::index).collect();
        BudgetLattice {
            budgets,
            strides,
            lefts,
            varied_idx,
        }
    }

    fn state_count(&self) -> usize {
        self.lefts.len()
    }

    /// Flattened index of a per-axis remainder.
    fn index(&self, left: &Units) -> usize {
        left.iter()
            .zip(&self.strides)
            .map(|(l, s)| l * s)
            .sum::<usize>()
    }

    /// Whether a cell fits into the per-axis remainder.
    fn fits(&self, cell: &Units, left: &Units) -> bool {
        self.varied_idx.iter().all(|&j| cell[j] <= left[j])
    }
}

/// The allocation realizing per-axis `units` on `space`'s grid.
fn alloc_for(space: &SearchSpace, units: &Units) -> Allocation {
    Allocation::from_fn(|r| {
        if space.is_varied(r) {
            units[r.index()] as f64 * space.delta_for(r)
        } else {
            space.fixed.get(r)
        }
    })
}

/// The DP grid optimum, optionally restricted to explicit per-workload
/// cell sets (refinement windows). The DP value is the lexicographic
/// pair (unmet degradation limits, weighted cost): limit-satisfying
/// configurations always win when one exists, and jointly infeasible
/// limits yield the cheapest least-violating allocation — reported via
/// `limits_met` — instead of no answer. Returns `None` only when the
/// grid cannot host every workload or a window excludes every option
/// (or every within-budget combination) for some workload.
fn grid_search<M: CostModel>(
    space: &SearchSpace,
    qos: &[QoS],
    models: &[M],
    options: &SearchOptions,
    allowed: Option<&[Vec<Units>]>,
) -> Option<GridSolve> {
    let n = models.len();
    assert!(n >= 1);
    assert_eq!(qos.len(), n);
    assert!(!space.varied.is_empty());
    let ranges = axis_ranges(space, n)?;
    let eval = |jobs: &[(usize, Allocation)]| batch_costs(models, options, jobs);

    let solo = space.solo_allocation();
    let full_cost = eval(&(0..n).map(|i| (i, solo)).collect::<Vec<_>>());

    let lattice = BudgetLattice::new(space);

    // Option cells per workload: the full product range, or the
    // caller's explicit (refinement-window) cells.
    let cells_for = |i: usize| -> Vec<Units> {
        match allowed {
            Some(sets) => sets[i].clone(),
            None => full_cells(space, &ranges),
        }
    };

    // Per-workload cost tables over the option cells, evaluated as one
    // batch: this is the bulk of the optimizer work, and the
    // embarrassingly parallel part. Limit-violating cells are kept in
    // the tables, flagged, so the DP can fall back on them when the
    // limits are jointly infeasible.
    let mut jobs: Vec<(usize, Allocation)> = Vec::new();
    let mut coords: Vec<(usize, Units)> = Vec::new();
    for i in 0..n {
        for units in cells_for(i) {
            jobs.push((i, alloc_for(space, &units)));
            coords.push((i, units));
        }
    }
    let grid_costs = eval(&jobs);
    let mut tables: Vec<Vec<GridCell>> = vec![Vec::new(); n];
    for ((i, units), c) in coords.into_iter().zip(grid_costs) {
        tables[i].push(GridCell {
            units,
            cost: c,
            weighted: qos[i].gain * c,
            within_limit: within_limit(c, qos[i].degradation_limit, full_cost[i]),
        });
    }
    if tables.iter().any(Vec::is_empty) {
        return None; // a window excluded every option for some workload
    }

    let result = solve_dp(space, &lattice, &tables)?;
    Some(GridSolve { result, tables })
}

/// Unreachable DP state: no within-budget completion exists.
const UNREACHABLE: (u32, f64) = (u32::MAX, f64::INFINITY);

/// How far above its DP value, relative to `max(|value|, 1)`, an option
/// may cost and still be taken when [`solve_dp`] reconstructs its
/// choices. A grid optimum's reported cost can therefore exceed the
/// true optimum by up to this much per workload.
pub(crate) const DP_TIE_TOLERANCE: f64 = 1e-9;

/// Lexicographic DP order: fewer unmet limits first, then weighted
/// cost.
fn lex_less(a: (u32, f64), b: (u32, f64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The DP core of [`grid_search`] over its evaluated option tables.
/// DP over (workload index, per-axis units left): lexicographically
/// minimal (unmet limits, weighted cost) completing workloads `i..n`.
fn solve_dp(
    space: &SearchSpace,
    lattice: &BudgetLattice,
    tables: &[Vec<GridCell>],
) -> Option<SearchResult> {
    let n = tables.len();
    let state_count = lattice.state_count();
    // Base case: all workloads placed; leftover units are fine (the
    // constraint is Σ ≤ 1). Backward DP with parent reconstruction by
    // re-derivation; layers are built last-workload-first and reversed.
    let mut layers: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n + 1);
    layers.push(vec![(0, 0.0); state_count]);
    dp_layers(lattice, tables, &mut layers);
    layers.reverse(); // layers[i] = cost-to-go starting at workload i

    let start = lattice.index(&lattice.budgets);
    if layers[0][start].0 == u32::MAX {
        return None; // windows exclude every within-budget combination
    }

    // Reconstruct choices greedily from the DP tables.
    let mut left = lattice.budgets;
    let mut chosen: Vec<GridCell> = Vec::with_capacity(n);
    for i in 0..n {
        let s = lattice.index(&left);
        let target = layers[i][s];
        let mut found = false;
        for cell in &tables[i] {
            if lattice.fits(&cell.units, &left) {
                let rest = layers[i + 1][s - lattice.index(&cell.units)];
                if rest.0 == u32::MAX {
                    continue;
                }
                let v = (
                    rest.0 + u32::from(!cell.within_limit),
                    cell.weighted + rest.1,
                );
                if v.0 == target.0
                    && (v.1 - target.1).abs() <= DP_TIE_TOLERANCE * target.1.abs().max(1.0)
                {
                    chosen.push(*cell);
                    for &j in &lattice.varied_idx {
                        left[j] -= cell.units[j];
                    }
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "DP reconstruction must find the chosen option");
    }

    let allocations: Vec<Allocation> = chosen
        .iter()
        .map(|cell| alloc_for(space, &cell.units))
        .collect();
    let costs: Vec<f64> = chosen.iter().map(|cell| cell.cost).collect();
    let limits_met = chosen.iter().map(|cell| cell.within_limit).collect();
    Some(SearchResult {
        weighted_cost: chosen.iter().map(|cell| cell.weighted).sum(),
        allocations,
        costs,
        iterations: 0,
        trace: Vec::new(),
        limits_met,
    })
}

/// The DP inner loop: every axis packed into a 16-bit lane of one
/// `u64`, so a single guarded subtraction compares all axes at once
/// (the M-axis generalization must not tax the 2-axis hot path).
fn dp_layers(lattice: &BudgetLattice, tables: &[Vec<GridCell>], layers: &mut Vec<Vec<(u32, f64)>>) {
    let state_count = lattice.state_count();
    // Hot per-cell data for the inner loop, contiguous per table: the
    // flattened state offset, the SWAR-packed units, the unmet-limit
    // increment, and the weighted cost.
    struct HotCell {
        offset: usize,
        packed: u64,
        unmet: u32,
        weighted: f64,
    }
    let hot: Vec<Vec<HotCell>> = tables
        .iter()
        .map(|table| {
            table
                .iter()
                .map(|c| HotCell {
                    offset: lattice.index(&c.units),
                    packed: pack_units(&c.units),
                    unmet: u32::from(!c.within_limit),
                    weighted: c.weighted,
                })
                .collect()
        })
        .collect();
    // Guard-carrying packed remainders per state: lane `j` of
    // `pleft - cell.packed` keeps its guard bit iff `left_j >=
    // cell_j` (a lane that would go negative borrows exactly its own
    // guard bit, never its neighbour's).
    let packed_lefts: Vec<u64> = lattice
        .lefts
        .iter()
        .map(|l| pack_units(l) | GUARD)
        .collect();
    let mut next: Vec<(u32, f64)> = layers[0].clone();
    for i in (0..tables.len()).rev() {
        let mut cur = vec![UNREACHABLE; state_count];
        for (s, &pleft) in packed_lefts.iter().enumerate() {
            let mut best = UNREACHABLE;
            for cell in &hot[i] {
                if (pleft - cell.packed) & GUARD == GUARD {
                    let rest = next[s - cell.offset];
                    if rest.0 == u32::MAX {
                        continue;
                    }
                    let v = (rest.0 + cell.unmet, cell.weighted + rest.1);
                    if lex_less(v, best) {
                        best = v;
                    }
                }
            }
            cur[s] = best;
        }
        layers.push(cur.clone());
        next = cur;
    }
}

/// Settings for [`try_coarse_to_fine_search_with`]: the coarse δ.
///
/// The search solves the full DP at the coarse δ, then refines on the
/// search space's own (per-axis) δ inside a window of two coarse steps
/// around each workload's coarse share. No coarse δ, one not strictly
/// coarser than every varied axis's fine δ, or a coarse grid that
/// cannot host all workloads means the plain full-grid DP, so the
/// result is always feasible whenever the full-grid DP is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoarseToFineOptions {
    /// The coarse δ, applied uniformly to every varied axis; `None`
    /// runs the full-grid DP.
    pub coarse: Option<f64>,
}

impl Default for CoarseToFineOptions {
    fn default() -> Self {
        CoarseToFineOptions { coarse: Some(0.1) }
    }
}

impl CoarseToFineOptions {
    /// Pick a coarse δ automatically for `n` workloads: the coarsest
    /// standard step that still gives every workload a few options at
    /// the coarse level. `None` (plain full-grid search) when no
    /// candidate is useful.
    pub fn auto(space: &SearchSpace, n: usize) -> Self {
        const CANDIDATES: [f64; 5] = [0.2, 0.1, 0.05, 0.04, 0.025];
        // A level that cannot host n workloads gives no options.
        let coarse = CANDIDATES.into_iter().find(|&c| {
            c > space.max_varied_delta() * 1.5
                && unit_range_axis(c, space.min_share, n).is_some_and(|(lo, hi)| hi - lo + 1 >= 4)
        });
        CoarseToFineOptions { coarse }
    }
}

/// Refinement-window half-width around the coarse optimum, in coarse
/// steps. For separable convex costs any value ≥ 1 is exact
/// (re-centering follows unit exchanges); 2 also clears the
/// ~2-coarse-step plan-regime basins real what-if estimators exhibit
/// along the memory axis (see `BENCH_enumeration.json`).
const WINDOW_STEPS: f64 = 2.0;

/// [`try_coarse_to_fine_search_with`] for a grid known to be
/// solvable: panics where it would return `None`.
pub fn coarse_to_fine_search_with<M: CostModel>(
    space: &SearchSpace,
    qos: &[QoS],
    models: &[M],
    c2f: &CoarseToFineOptions,
    options: &SearchOptions,
) -> SearchResult {
    try_coarse_to_fine_search_with(space, qos, models, c2f, options)
        .expect("no grid can host the workloads (min_share too large)")
}

/// Coarse-to-fine enumeration: solve the DP on the coarse δ first,
/// then refine only inside per-workload windows around the coarse
/// optimum on the search space's fine δ, re-centering the windows on
/// each improved solution until a round no longer improves. On
/// separable convex workload costs this finds the full-grid optimum
/// while probing far fewer allocations (the optimizer-call counts of
/// the cost models record exactly how many); `tests/coarse_to_fine.rs`
/// property-checks the equivalence against
/// [`try_exhaustive_search_with`].
///
/// One loop serves every problem. Finite degradation limits make the
/// grid problem non-convex (the fine-grid optimum can hide against the
/// limit boundary, behind coarse samples that are limit-infeasible),
/// so when some `L_i` is finite the refinement becomes
/// *feasibility-aware* instead of falling back to the full grid:
///
/// 1. The unwindowed coarse solve classifies every coarse cell against
///    the limits. A limited workload's fine window is expanded with a
///    **boundary band**: the fine cells within one coarse step of its
///    limit boundary.
/// 2. A workload whose refined optimum lands on the *edge* of its own
///    window gets that window widened (doubling, then full range)
///    per-window rather than escalating the whole search.
/// 3. If the best refined result still violates a limit, the full grid
///    runs: only it can certify joint infeasibility. Like greedy and
///    exhaustive search, jointly infeasible limits yield a best-effort
///    result flagged via [`SearchResult::limits_met`].
///
/// Unconstrained problems skip steps 2 and 3. Re-centering alone is
/// exact on separable convex costs, and widening would only buy
/// probes: real what-if costs have plan-regime steps along memory that
/// leave optima on window edges (`BENCH_enumeration.json`'s
/// unconstrained section would pay 4518 optimizer calls instead of
/// 4040 for the same objective).
///
/// `None` exactly when [`try_exhaustive_search_with`] would return
/// `None` too: the fine grid cannot host every workload, or its δ is
/// finer than the [`KEY_STEPS`] allocation-key resolution.
pub fn try_coarse_to_fine_search_with<M: CostModel>(
    space: &SearchSpace,
    qos: &[QoS],
    models: &[M],
    c2f: &CoarseToFineOptions,
    options: &SearchOptions,
) -> Option<SearchResult> {
    let n = models.len();
    assert!(n >= 1);
    let full_grid = || try_exhaustive_search_with(space, qos, models, options);
    let coarse = c2f
        .coarse
        .filter(|&d| d > space.max_varied_delta() + 1e-12)
        .and_then(|d| {
            grid_search(&space.with_delta(d), qos, models, options, None).map(|s| (s, d))
        });
    let Some((coarse, coarse_delta)) = coarse else {
        return full_grid();
    };
    let ranges = axis_ranges(space, n)?;
    // Finite limits make the grid problem non-convex: only then do
    // windows widen at their edges and the full grid re-certify.
    let limited = qos.iter().any(|q| q.degradation_limit.is_finite());
    let band: Vec<Vec<Units>> = (0..n)
        .map(|i| {
            if qos[i].degradation_limit.is_finite() {
                boundary_band_cells(space, &coarse.tables[i], coarse_delta, &ranges)
            } else {
                Vec::new()
            }
        })
        .collect();

    let mut centers = coarse.result.allocations;
    let mut half = vec![WINDOW_STEPS * coarse_delta; n];
    let mut full_range = vec![false; n];
    let mut best: Option<SearchResult> = None;
    for _ in 0..RECENTER_CAP {
        let allowed: Vec<Vec<Units>> = (0..n)
            .map(|i| {
                if full_range[i] {
                    full_cells(space, &ranges)
                } else {
                    let mut cells = window_cells(space, centers[i], half[i], &ranges);
                    cells.extend_from_slice(&band[i]);
                    cells.sort_unstable();
                    cells.dedup();
                    cells
                }
            })
            .collect();
        let Some(s) = grid_search(space, qos, models, options, Some(&allowed)) else {
            break;
        };
        let r = s.result;
        let improved = best.as_ref().is_none_or(|b| lex_better(&r, b));
        // A chosen cell on its window's edge means the window clipped
        // the descent direction there, so that workload's window is
        // widened rather than escalating the whole search.
        let mut grew = false;
        for i in 0..n {
            if limited
                && !full_range[i]
                && on_window_edge(&r.allocations[i], &allowed[i], space, &ranges)
            {
                half[i] *= 2.0;
                grew = true;
                if half[i] >= 1.0 {
                    // Shares live in (0, 1]; this window is the full
                    // range no matter where its center sits.
                    full_range[i] = true;
                }
            }
        }
        centers.clone_from(&r.allocations);
        if improved {
            best = Some(r);
        } else if !grew {
            break;
        }
    }
    match best {
        Some(r) if !limited || r.limits_met.iter().all(|&m| m) => Some(r),
        // No round solved, or no limit-satisfying configuration was
        // found; only the full grid can certify joint infeasibility
        // (and its best-effort optimum is the reference answer).
        _ => full_grid(),
    }
}

/// Re-centering round cap for the fine level of coarse-to-fine search;
/// each round strictly improves the objective (or strictly widens some
/// window) on a finite grid, so this is a safety net, not a tuning
/// knob.
const RECENTER_CAP: usize = 100;

/// The key of the inputs a coarse-to-fine solve reads: machine class
/// (axis set, δs, fixed shares, min share) ⊕ caller salt (calibration
/// identity) ⊕ the full QoS vector ⊕ the coarse-to-fine settings ⊕
/// the workload fingerprints. Snapshots store it per occupied machine
/// (`warm_key`), and restore recomputes it from the rebuilt fleet,
/// which is how a changed QoS or search space is refused.
pub(crate) fn warm_key(
    space: &SearchSpace,
    qos: &[QoS],
    c2f: &CoarseToFineOptions,
    salt: u64,
    fingerprints: &[u64],
) -> u64 {
    let mut h = Fnv64::resume(MachineClass::of(space).id());
    h.write_u64(salt);
    h.write_u64(qos.len() as u64);
    for q in qos {
        h.write_u64(q.fingerprint());
    }
    // The bytes the options wrote as a coarse ladder of zero or one δ
    // plus a window width: the keys snapshots store and restore
    // re-checks stay what they were.
    h.write_u64(u64::from(c2f.coarse.is_some()));
    if let Some(d) = c2f.coarse {
        h.write_u64(d.to_bits());
    }
    h.write_u64(WINDOW_STEPS.to_bits());
    h.write_u64(fingerprints.len() as u64);
    for &f in fingerprints {
        h.write_u64(f);
    }
    h.finish()
}

/// Lexicographically better search result: fewer unmet degradation
/// limits first, lower weighted cost second.
fn lex_better(a: &SearchResult, b: &SearchResult) -> bool {
    let unmet = |r: &SearchResult| r.limits_met.iter().filter(|&&m| !m).count();
    let (ua, ub) = (unmet(a), unmet(b));
    ua < ub || (ua == ub && a.weighted_cost < b.weighted_cost - 1e-12)
}

/// Cartesian product of per-axis unit options, ascending in canonical
/// axis order (earlier axes outermost) — the sorted order
/// [`on_window_edge`]'s binary search and the deterministic probe
/// sequence both rely on. A non-varied axis contributes the single
/// placeholder unit 0.
fn product_cells(axes: &[Vec<usize>; Resource::COUNT]) -> Vec<Units> {
    let mut cells = Vec::with_capacity(axes.iter().map(Vec::len).product());
    let mut cur = [0usize; Resource::COUNT];
    fn rec(axes: &[Vec<usize>; Resource::COUNT], j: usize, cur: &mut Units, out: &mut Vec<Units>) {
        if j == Resource::COUNT {
            out.push(*cur);
            return;
        }
        for &u in &axes[j] {
            cur[j] = u;
            rec(axes, j + 1, cur, out);
        }
    }
    rec(axes, 0, &mut cur, &mut cells);
    cells
}

/// Per-axis option lists for a window/full-range construction: the
/// closure supplies a varied axis's units, non-varied axes contribute
/// the placeholder `[0]`.
fn axis_options(
    space: &SearchSpace,
    mut f: impl FnMut(Resource) -> Vec<usize>,
) -> [Vec<usize>; Resource::COUNT] {
    let mut axes: [Vec<usize>; Resource::COUNT] = std::array::from_fn(|_| vec![0]);
    for r in space.varied.iter() {
        axes[r.index()] = f(r);
    }
    axes
}

/// Grid cells of `space` inside a per-axis window of `half_width`
/// (in shares) around `center`, clamped to the per-axis unit ranges.
fn window_cells(
    space: &SearchSpace,
    center: Allocation,
    half_width: f64,
    ranges: &[(usize, usize); Resource::COUNT],
) -> Vec<Units> {
    let axes = axis_options(space, |r| {
        let (lo, hi) = ranges[r.index()];
        let delta = space.delta_for(r);
        let c = center.get(r);
        (lo..=hi)
            .filter(|&u| (u as f64 * delta - c).abs() <= half_width + 1e-9)
            .collect()
    });
    product_cells(&axes)
}

/// Every grid cell of `space` over the per-axis unit ranges.
fn full_cells(space: &SearchSpace, ranges: &[(usize, usize); Resource::COUNT]) -> Vec<Units> {
    let axes = axis_options(space, |r| {
        let (lo, hi) = ranges[r.index()];
        (lo..=hi).collect()
    });
    product_cells(&axes)
}

/// The fine cells within one coarse step of the workload's
/// degradation-limit boundary. Every limit-satisfying coarse cell with
/// a limit-violating axis neighbor contributes the fine cells inside a
/// ±`coarse_delta` box around it: the true boundary crosses somewhere
/// between such neighbor pairs, and the box covers the crossing
/// wherever in the gap it falls — so fine-grid optima pressed against
/// the limit (behind coarse-infeasible samples) stay reachable without
/// paying full-grid cost.
fn boundary_band_cells(
    space: &SearchSpace,
    coarse_table: &[GridCell],
    coarse_delta: f64,
    ranges: &[(usize, usize); Resource::COUNT],
) -> Vec<Units> {
    let verdict: HashMap<Units, bool> = coarse_table
        .iter()
        .map(|c| (c.units, c.within_limit))
        .collect();
    let varied_idx: Vec<usize> = space.varied.iter().map(Resource::index).collect();
    let mut centers: Vec<Units> = Vec::new();
    for cell in coarse_table {
        if !cell.within_limit {
            continue;
        }
        let is_boundary = varied_idx.iter().any(|&j| {
            let mut lo = cell.units;
            lo[j] = lo[j].wrapping_sub(1);
            let mut hi = cell.units;
            hi[j] += 1;
            verdict.get(&lo) == Some(&false) || verdict.get(&hi) == Some(&false)
        });
        if is_boundary {
            centers.push(cell.units);
        }
    }
    // Fine units within ±coarse_delta of a coarse unit, clamped.
    let axis_box = |r: Resource, units: usize| -> (usize, usize) {
        let (lo, hi) = ranges[r.index()];
        let fine = space.delta_for(r);
        let share = units as f64 * coarse_delta;
        let a = (((share - coarse_delta) / fine) - 1e-9).ceil().max(0.0) as usize;
        let b = (((share + coarse_delta) / fine) + 1e-9).floor().max(0.0) as usize;
        (a.clamp(lo, hi), b.clamp(lo, hi))
    };
    // BTreeSet: dedup and ordering in one structure — ascending
    // traversal yields exactly what the old collect-then-sort did,
    // without ever holding the cells in RandomState order.
    let mut cells: BTreeSet<Units> = BTreeSet::new();
    for units in centers {
        let axes = axis_options(space, |r| {
            let (blo, bhi) = axis_box(r, units[r.index()]);
            (blo..=bhi).collect()
        });
        for cell in product_cells(&axes) {
            cells.insert(cell);
        }
    }
    cells.into_iter().collect()
}

/// Whether workload's chosen allocation sits on the edge of its
/// allowed cell set: some in-range axis neighbor is missing from the
/// set. (`cells` must be sorted ascending. A neighbor that was in the
/// set but limit-infeasible is *not* an edge — the window clipped
/// nothing there, the limit did.)
fn on_window_edge(
    alloc: &Allocation,
    cells: &[Units],
    space: &SearchSpace,
    ranges: &[(usize, usize); Resource::COUNT],
) -> bool {
    let mut units = [0usize; Resource::COUNT];
    for r in space.varied.iter() {
        units[r.index()] = (alloc.get(r) / space.delta_for(r)).round() as usize;
    }
    let missing = |u: &Units| cells.binary_search(u).is_err();
    space.varied.iter().any(|r| {
        let j = r.index();
        let (lo, hi) = ranges[j];
        let u = units[j];
        (u > lo && {
            let mut v = units;
            v[j] = u - 1;
            missing(&v)
        }) || (u < hi && {
            let mut v = units;
            v[j] = u + 1;
            missing(&v)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::model::FnCostModel;
    use crate::placement::machine_capacity;
    use crate::problem::AllocKey;

    /// Synthetic reciprocal cost models: cost_i = α_i/cpu + 1.
    fn synth(alphas: Vec<f64>) -> Vec<impl CostModel> {
        alphas
            .into_iter()
            .map(|alpha| FnCostModel::new(move |a: Allocation| alpha / a.cpu() + 1.0))
            .collect()
    }

    fn qos_n(n: usize) -> Vec<QoS> {
        vec![QoS::default(); n]
    }

    fn greedy<M: CostModel>(space: &SearchSpace, qos: &[QoS], models: &[M]) -> SearchResult {
        greedy_search_with(space, qos, models, &SearchOptions::default())
    }

    fn exhaustive<M: CostModel>(space: &SearchSpace, qos: &[QoS], models: &[M]) -> SearchResult {
        try_exhaustive_search_with(space, qos, models, &SearchOptions::default()).unwrap()
    }

    /// Coarse-to-fine with the automatic coarse δ.
    fn c2f_auto<M: CostModel>(space: &SearchSpace, qos: &[QoS], models: &[M]) -> SearchResult {
        let c2f = CoarseToFineOptions::auto(space, models.len());
        coarse_to_fine_search_with(space, qos, models, &c2f, &SearchOptions::default())
    }

    #[test]
    fn greedy_gives_cpu_to_the_hungrier_workload() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![10.0, 1.0]);
        let r = greedy(&space, &qos_n(2), &models);
        assert!(r.allocations[0].cpu() > 0.6, "{:?}", r.allocations);
        assert!((r.allocations[0].cpu() + r.allocations[1].cpu() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_keeps_symmetric_workloads_even() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![5.0, 5.0]);
        let r = greedy(&space, &qos_n(2), &models);
        assert_eq!(r.iterations, 0);
        assert!((r.allocations[0].cpu() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn greedy_total_cost_never_increases() {
        let space = SearchSpace::cpu_only(0.5);
        let alphas = [8.0, 3.0, 1.0, 0.5];
        let models = synth(alphas.to_vec());
        let r = greedy(&space, &qos_n(4), &models);
        // Replay the trace and verify monotone improvement.
        let mut alloc = vec![space.default_allocation(4); 4];
        let total = |alloc: &[Allocation]| -> f64 {
            alloc
                .iter()
                .enumerate()
                .map(|(i, a)| alphas[i] / a.cpu() + 1.0)
                .sum()
        };
        let mut prev = total(&alloc);
        for step in &r.trace {
            let delta = space.delta_for(step.resource);
            alloc[step.winner] = alloc[step.winner].shifted(step.resource, delta);
            alloc[step.loser] = alloc[step.loser].shifted(step.resource, -delta);
            let now = total(&alloc);
            assert!(now < prev + 1e-12, "step worsened cost");
            prev = now;
        }
        assert_eq!(alloc, r.allocations);
    }

    #[test]
    fn greedy_respects_degradation_limit() {
        let space = SearchSpace::cpu_only(0.5);
        // Workload 0 is hungry; workload 1 has a limit of 2× its
        // solo cost (cost_1(r) = 2/r + 1, solo cost 3 → cap 6 →
        // r_1 ≥ 0.4).
        let models = synth(vec![10.0, 2.0]);
        let free = greedy(&space, &qos_n(2), &models);
        let qos = vec![QoS::default(), QoS::with_limit(2.0)];
        let r = greedy(&space, &qos, &models);
        let full = 2.0 / 1.0 + 1.0;
        assert!(
            r.costs[1] <= 2.0 * full + 1e-9,
            "degradation violated: {} > {}",
            r.costs[1],
            2.0 * full
        );
        assert!(r.allocations[1].cpu() >= 0.4 - 1e-9, "{:?}", r.allocations);
        // The limit must actually bind: without it workload 1 gives up
        // more CPU.
        assert!(free.allocations[1].cpu() < r.allocations[1].cpu());
    }

    #[test]
    fn greedy_gain_factor_biases_allocation() {
        let space = SearchSpace::cpu_only(0.5);
        // Identical workloads; gain pulls resources to workload 0.
        let models = synth(vec![5.0, 5.0]);
        let r_plain = greedy(&space, &qos_n(2), &models);
        let qos = vec![QoS::with_gain(5.0), QoS::default()];
        let r_gain = greedy(&space, &qos, &models);
        assert!(r_gain.allocations[0].cpu() > r_plain.allocations[0].cpu());
    }

    #[test]
    fn greedy_matches_exhaustive_on_reciprocal_models() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![9.0, 4.0, 1.0]);
        let greedy = greedy(&space, &qos_n(3), &models);
        let exact = exhaustive(&space, &qos_n(3), &models);
        // Paper: greedy is very often optimal, always within 5 %.
        assert!(
            greedy.weighted_cost <= exact.weighted_cost * 1.05 + 1e-9,
            "greedy {} vs optimal {}",
            greedy.weighted_cost,
            exact.weighted_cost
        );
    }

    #[test]
    fn exhaustive_finds_known_optimum() {
        let space = SearchSpace::cpu_only(0.5);
        // cost_0 dominated by CPU, cost_1 flat: optimum pushes
        // workload 0 to the max share.
        let m0 = FnCostModel::new(|a: Allocation| 100.0 / a.cpu());
        let m1 = FnCostModel::new(|a: Allocation| 10.0 + 0.001 / a.cpu());
        let models: Vec<&dyn CostModel> = vec![&m0, &m1];
        let r = exhaustive(&space, &qos_n(2), &models);
        assert!(
            (r.allocations[0].cpu() - 0.95).abs() < 1e-9,
            "{:?}",
            r.allocations
        );
        assert!((r.allocations[1].cpu() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_respects_budget_on_both_resources() {
        let space = SearchSpace::cpu_and_memory();
        let models: Vec<_> = (0..3)
            .map(|i| {
                FnCostModel::new(move |a: Allocation| (i as f64 + 1.0) / a.cpu() + 2.0 / a.memory())
            })
            .collect();
        let r = exhaustive(&space, &qos_n(3), &models);
        let cpu_sum: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
        let mem_sum: f64 = r.allocations.iter().map(|a| a.memory()).sum();
        assert!(cpu_sum <= 1.0 + 1e-9);
        assert!(mem_sum <= 1.0 + 1e-9);
    }

    #[test]
    fn exhaustive_three_axes_respects_every_budget() {
        // The M > 2 contract: the DP budget lattice enforces Σ ≤ 1 on
        // every varied axis, disk included.
        let mut space = SearchSpace::cpu_memory_disk();
        space.set_delta(0.25);
        space.min_share = 0.25;
        let models: Vec<_> = (0..2)
            .map(|i| {
                FnCostModel::new(move |a: Allocation| {
                    (i as f64 + 1.0) / a.cpu() + 2.0 / a.memory() + 3.0 / a.disk()
                })
            })
            .collect();
        let r = exhaustive(&space, &qos_n(2), &models);
        for res in [Resource::Cpu, Resource::Memory, Resource::DiskBandwidth] {
            let sum: f64 = r.allocations.iter().map(|a| a.get(res)).sum();
            assert!(sum <= 1.0 + 1e-9, "{res:?} oversubscribed: {sum}");
            for a in &r.allocations {
                assert!(a.get(res) >= space.min_share - 1e-9);
            }
        }
        // The disk-hungriest coefficient (3.0) dominates: both get
        // valid, positive shares and costs are finite.
        assert!(r.weighted_cost.is_finite());
    }

    #[test]
    fn exhaustive_three_axes_matches_brute_force() {
        // Pin the M-axis DP against literal composition enumeration at
        // a size where brute force is tractable.
        let mut space = SearchSpace::cpu_memory_disk();
        space.set_delta(0.25);
        space.min_share = 0.25;
        let alphas = [(4.0, 1.0, 0.5), (1.0, 3.0, 2.0)];
        let models: Vec<_> = alphas
            .iter()
            .map(|&(c, m, d)| {
                FnCostModel::new(move |a: Allocation| c / a.cpu() + m / a.memory() + d / a.disk())
            })
            .collect();
        let r = exhaustive(&space, &qos_n(2), &models);
        // Brute force: all (u0, u1) per axis with u0 + u1 <= 4,
        // 1 <= u <= 3 per workload.
        let mut best = f64::INFINITY;
        let cost = |i: usize, u: (usize, usize, usize)| -> f64 {
            let (c, m, d) = alphas[i];
            c / (u.0 as f64 * 0.25) + m / (u.1 as f64 * 0.25) + d / (u.2 as f64 * 0.25)
        };
        for c0 in 1..=3 {
            for m0 in 1..=3 {
                for d0 in 1..=3 {
                    for c1 in 1..=(4 - c0).min(3) {
                        for m1 in 1..=(4 - m0).min(3) {
                            for d1 in 1..=(4 - d0).min(3) {
                                let total = cost(0, (c0, m0, d0)) + cost(1, (c1, m1, d1));
                                if total < best {
                                    best = total;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            (r.weighted_cost - best).abs() <= 1e-9 * best,
            "DP {} vs brute force {}",
            r.weighted_cost,
            best
        );
    }

    #[test]
    fn per_axis_deltas_give_each_axis_its_own_grid() {
        // CPU on a 0.25 grid, memory on a 0.5 grid: the optimum's
        // shares must be multiples of their own axis's δ.
        let mut space = SearchSpace::cpu_and_memory();
        space.deltas = space
            .deltas
            .with(Resource::Cpu, 0.25)
            .with(Resource::Memory, 0.5);
        space.min_share = 0.25;
        let models: Vec<_> = [(8.0, 1.0), (1.0, 4.0)]
            .into_iter()
            .map(|(c, m)| FnCostModel::new(move |a: Allocation| c / a.cpu() + m / a.memory()))
            .collect();
        let r = exhaustive(&space, &qos_n(2), &models);
        for a in &r.allocations {
            let cpu_units = a.cpu() / 0.25;
            let mem_units = a.memory() / 0.5;
            assert!((cpu_units - cpu_units.round()).abs() < 1e-9, "{a:?}");
            assert!((mem_units - mem_units.round()).abs() < 1e-9, "{a:?}");
        }
        // CPU-hungry workload 0 wins CPU; memory-hungry workload 1
        // wins memory (the only grid choice is 0.5 each there).
        assert!(r.allocations[0].cpu() > r.allocations[1].cpu());
    }

    #[test]
    fn exhaustive_reports_infeasible_limits_best_effort() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![10.0, 10.0]);
        let qos = vec![QoS::with_limit(1.05), QoS::with_limit(1.05)];
        // Both want nearly everything to meet their limit — jointly
        // impossible. The DP must report that via `limits_met` (like
        // greedy does) instead of panicking, and still hand back the
        // least-violating, cheapest allocation.
        let r = exhaustive(&space, &qos, &models);
        assert!(
            r.limits_met.iter().any(|m| !m),
            "jointly infeasible limits must be reported: {:?}",
            r.limits_met
        );
        let total: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
        assert!(total <= 1.0 + 1e-9);
        assert!(r.weighted_cost.is_finite());
        // Symmetric workloads, one violation unavoidable: exactly one
        // flag is false, not both.
        assert_eq!(r.limits_met.iter().filter(|&&m| !m).count(), 1, "{r:?}");
    }

    #[test]
    fn exhaustive_best_effort_minimizes_violations_before_cost() {
        let space = SearchSpace::cpu_only(0.5);
        // Workload 1 can meet its limit only by hogging CPU; workload 0
        // is unconstrained but expensive when starved. The cheapest
        // *unconstrained* split would violate workload 1's limit; the
        // best-effort DP must prefer the zero-violation allocation.
        let models = synth(vec![10.0, 2.0]);
        let qos = vec![QoS::default(), QoS::with_limit(1.5)];
        let r = exhaustive(&space, &qos, &models);
        assert!(r.limits_met.iter().all(|&m| m), "{r:?}");
        let full = 2.0 / 1.0 + 1.0;
        assert!(r.costs[1] <= 1.5 * full + 1e-9);
    }

    #[test]
    fn greedy_two_resources_splits_by_affinity() {
        let space = SearchSpace::cpu_and_memory();
        // Workload 0 is CPU-bound, workload 1 memory-bound.
        let m0 = FnCostModel::new(|a: Allocation| 20.0 / a.cpu() + 1.0 / a.memory());
        let m1 = FnCostModel::new(|a: Allocation| 1.0 / a.cpu() + 20.0 / a.memory());
        let models: Vec<&dyn CostModel> = vec![&m0, &m1];
        let r = greedy(&space, &qos_n(2), &models);
        assert!(r.allocations[0].cpu() > 0.6, "{:?}", r.allocations);
        assert!(r.allocations[1].memory() > 0.6, "{:?}", r.allocations);
    }

    #[test]
    fn greedy_three_resources_splits_by_affinity() {
        let space = SearchSpace::cpu_memory_disk();
        // Three workloads, each bound to a different axis.
        let m0 =
            FnCostModel::new(|a: Allocation| 20.0 / a.cpu() + 1.0 / a.memory() + 1.0 / a.disk());
        let m1 =
            FnCostModel::new(|a: Allocation| 1.0 / a.cpu() + 20.0 / a.memory() + 1.0 / a.disk());
        let m2 =
            FnCostModel::new(|a: Allocation| 1.0 / a.cpu() + 1.0 / a.memory() + 20.0 / a.disk());
        let models: Vec<&dyn CostModel> = vec![&m0, &m1, &m2];
        let r = greedy(&space, &qos_n(3), &models);
        assert!(r.allocations[0].cpu() > 0.5, "{:?}", r.allocations);
        assert!(r.allocations[1].memory() > 0.5, "{:?}", r.allocations);
        assert!(r.allocations[2].disk() > 0.5, "{:?}", r.allocations);
        let disk_sum: f64 = r.allocations.iter().map(|a| a.disk()).sum();
        assert!(disk_sum <= 1.0 + 1e-9);
    }

    #[test]
    fn feasibility_phase_meets_limits_violated_at_start() {
        // Five identical workloads; the equal-share start (r = 0.2)
        // degrades each to cost(0.2)/cost(1.0) = (25+1)/(5+1) ≈ 4.33.
        // A limit of 2.5 forces the pre-phase to push the constrained
        // workload above the symmetric share before Fig. 11 runs.
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![5.0; 5]);
        let mut qos = qos_n(5);
        qos[0] = QoS::with_limit(2.5);
        let r = greedy(&space, &qos, &models);
        assert!(r.limits_met[0], "{:?}", r);
        let full = 5.0 + 1.0;
        assert!(r.costs[0] <= 2.5 * full + 1e-9);
        assert!(r.allocations[0].cpu() > 0.2, "{:?}", r.allocations);
        // Feasibility must not oversubscribe.
        let total: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
        assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn infeasible_limits_are_reported_not_panicked() {
        // Both workloads demand more than half the machine to stay
        // within their limits: jointly infeasible.
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![10.0, 10.0]);
        let qos = vec![QoS::with_limit(1.05), QoS::with_limit(1.05)];
        let r = greedy(&space, &qos, &models);
        assert!(
            r.limits_met.iter().any(|m| !m),
            "jointly infeasible limits must be reported: {:?}",
            r.limits_met
        );
    }

    #[test]
    fn single_workload_keeps_everything() {
        let space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![5.0]);
        let r = greedy(&space, &qos_n(1), &models);
        assert_eq!(r.iterations, 0);
        assert!((r.allocations[0].cpu() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_and_serial_paths_are_bit_identical() {
        let space = SearchSpace::cpu_and_memory();
        let models: Vec<_> = [3.0, 8.0, 1.5, 5.0]
            .into_iter()
            .enumerate()
            .map(|(i, alpha)| {
                FnCostModel::new(move |a: Allocation| {
                    alpha / a.cpu() + (i as f64 + 1.0) / a.memory()
                })
            })
            .collect();
        let qos = vec![
            QoS::default(),
            QoS::with_limit(3.0),
            QoS::with_gain(2.0),
            QoS::default(),
        ];
        let serial = greedy_search_with(&space, &qos, &models, &SearchOptions::serial());
        let parallel = greedy_search_with(&space, &qos, &models, &SearchOptions::parallel());
        assert_eq!(serial, parallel);
        let e_serial =
            try_exhaustive_search_with(&space, &qos, &models, &SearchOptions::serial()).unwrap();
        let e_parallel =
            try_exhaustive_search_with(&space, &qos, &models, &SearchOptions::parallel()).unwrap();
        assert_eq!(e_serial, e_parallel);
    }

    #[test]
    fn coarse_to_fine_matches_full_grid_on_fine_delta() {
        let mut space = SearchSpace::cpu_only(0.5);
        space.set_delta(0.01);
        let models = synth(vec![9.0, 4.0, 1.0]);
        let qos = qos_n(3);
        let full = exhaustive(&space, &qos, &models);
        let c2f = c2f_auto(&space, &qos, &models);
        assert!(
            (c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9,
            "c2f {} vs full {}",
            c2f.weighted_cost,
            full.weighted_cost
        );
        assert_eq!(c2f.allocations, full.allocations);
    }

    #[test]
    fn coarse_to_fine_respects_degradation_limits() {
        let mut space = SearchSpace::cpu_only(0.5);
        space.set_delta(0.01);
        let models = synth(vec![10.0, 2.0]);
        let qos = vec![QoS::default(), QoS::with_limit(2.0)];
        let full = exhaustive(&space, &qos, &models);
        let c2f = c2f_auto(&space, &qos, &models);
        assert!((c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9);
        assert!(c2f.limits_met.iter().all(|&m| m));
    }

    #[test]
    fn coarse_to_fine_probes_fewer_points_than_full_grid() {
        // Count *unique* probed allocations per workload — what
        // optimizer calls cost through a cached estimator (repeat
        // probes of the same point are cache hits).
        use parking_lot::Mutex;
        use std::collections::HashSet;
        // Two varied resources: the per-workload option table is the
        // square of the per-axis range, which is where windowing pays.
        let mut space = SearchSpace::cpu_and_memory();
        space.set_delta(0.02);
        type ProbeSet = Mutex<HashSet<(usize, AllocKey)>>;
        let count = |alphas: &[f64]| -> (Vec<_>, &'static ProbeSet) {
            // Leak one shared probe set per call; tests only.
            let probes: &'static ProbeSet = Box::leak(Box::new(Mutex::new(HashSet::new())));
            let models: Vec<_> = alphas
                .iter()
                .enumerate()
                .map(|(i, &alpha)| {
                    FnCostModel::new(move |a: Allocation| {
                        probes.lock().insert((i, a.key()));
                        alpha / a.cpu() + (i + 1) as f64 / a.memory() + 1.0
                    })
                })
                .collect();
            (models, probes)
        };
        let qos = qos_n(4);
        let alphas = [8.0, 3.0, 1.0, 0.5];
        let (full_models, full_probes) = count(&alphas);
        let full = try_exhaustive_search_with(&space, &qos, &full_models, &SearchOptions::serial())
            .unwrap();
        let (c2f_models, c2f_probes) = count(&alphas);
        let c2f = coarse_to_fine_search_with(
            &space,
            &qos,
            &c2f_models,
            &CoarseToFineOptions::auto(&space, 4),
            &SearchOptions::serial(),
        );
        assert!((c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9);
        let full_n = full_probes.lock().len();
        let c2f_n = c2f_probes.lock().len();
        assert!(
            c2f_n * 2 < full_n,
            "coarse-to-fine should probe far fewer points: {c2f_n} vs {full_n}"
        );
    }

    #[test]
    fn coarse_to_fine_three_axes_matches_full_grid() {
        // The new axis end to end at enumeration level: c2f over
        // cpu+memory+disk equals the full-grid DP with fewer probes.
        use parking_lot::Mutex;
        use std::collections::HashSet;
        let mut space = SearchSpace::cpu_memory_disk();
        space.set_delta(0.05);
        type ProbeSet = Mutex<HashSet<(usize, AllocKey)>>;
        let count = |alphas: &[(f64, f64, f64)]| -> (Vec<_>, &'static ProbeSet) {
            let probes: &'static ProbeSet = Box::leak(Box::new(Mutex::new(HashSet::new())));
            let models: Vec<_> = alphas
                .iter()
                .enumerate()
                .map(|(i, &(c, m, d))| {
                    FnCostModel::new(move |a: Allocation| {
                        probes.lock().insert((i, a.key()));
                        c / a.cpu() + m / a.memory() + d / a.disk() + 1.0
                    })
                })
                .collect();
            (models, probes)
        };
        let alphas = [(8.0, 1.0, 2.0), (1.0, 6.0, 1.0), (2.0, 2.0, 7.0)];
        let qos = qos_n(3);
        let (full_models, full_probes) = count(&alphas);
        let full = try_exhaustive_search_with(&space, &qos, &full_models, &SearchOptions::serial())
            .unwrap();
        let (c2f_models, c2f_probes) = count(&alphas);
        let c2f = coarse_to_fine_search_with(
            &space,
            &qos,
            &c2f_models,
            &CoarseToFineOptions::auto(&space, 3),
            &SearchOptions::serial(),
        );
        assert!(
            (c2f.weighted_cost - full.weighted_cost).abs()
                <= 1e-9 * full.weighted_cost.abs().max(1.0),
            "c2f {} vs full {}",
            c2f.weighted_cost,
            full.weighted_cost
        );
        let full_n = full_probes.lock().len();
        let c2f_n = c2f_probes.lock().len();
        assert!(
            c2f_n * 2 < full_n,
            "3-axis c2f should probe far fewer points: {c2f_n} vs {full_n}"
        );
    }

    #[test]
    fn coarse_to_fine_falls_back_without_a_coarse_delta() {
        let space = SearchSpace::cpu_only(0.5); // δ = 0.05
        let models = synth(vec![9.0, 4.0]);
        let qos = qos_n(2);
        let opts = CoarseToFineOptions { coarse: None };
        let c2f =
            coarse_to_fine_search_with(&space, &qos, &models, &opts, &SearchOptions::serial());
        let full = exhaustive(&space, &qos, &models);
        assert_eq!(c2f, full);
    }

    #[test]
    fn coarse_to_fine_infeasible_matches_exhaustive_best_effort() {
        let mut space = SearchSpace::cpu_only(0.5);
        space.set_delta(0.01);
        let models = synth(vec![10.0, 10.0]);
        let qos = vec![QoS::with_limit(1.05), QoS::with_limit(1.05)];
        // Jointly infeasible: both must return the same best-effort
        // allocation with the violation flagged, not panic.
        let full = exhaustive(&space, &qos, &models);
        let c2f = c2f_auto(&space, &qos, &models);
        assert!(full.limits_met.iter().any(|m| !m), "{full:?}");
        assert_eq!(c2f.limits_met, full.limits_met);
        assert!((c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9);
    }

    #[test]
    fn limit_aware_c2f_matches_exhaustive_and_probes_fewer() {
        // The tentpole contract: with *finite* degradation limits the
        // coarse-to-fine search must no longer degrade to the full
        // grid — same objective and limit verdicts as exhaustive, far
        // fewer unique probes.
        use parking_lot::Mutex;
        use std::collections::HashSet;
        let mut space = SearchSpace::cpu_and_memory();
        space.set_delta(0.02);
        type ProbeSet = Mutex<HashSet<(usize, AllocKey)>>;
        let count = |alphas: &[f64]| -> (Vec<_>, &'static ProbeSet) {
            let probes: &'static ProbeSet = Box::leak(Box::new(Mutex::new(HashSet::new())));
            let models: Vec<_> = alphas
                .iter()
                .enumerate()
                .map(|(i, &alpha)| {
                    FnCostModel::new(move |a: Allocation| {
                        probes.lock().insert((i, a.key()));
                        alpha / a.cpu() + (i + 1) as f64 / a.memory() + 1.0
                    })
                })
                .collect();
            (models, probes)
        };
        let qos = vec![
            QoS::with_limit(2.0),
            QoS::default(),
            QoS::with_limit(3.0),
            QoS::default(),
        ];
        let alphas = [8.0, 3.0, 1.0, 0.5];
        let (full_models, full_probes) = count(&alphas);
        let full = try_exhaustive_search_with(&space, &qos, &full_models, &SearchOptions::serial())
            .unwrap();
        let (c2f_models, c2f_probes) = count(&alphas);
        let c2f = coarse_to_fine_search_with(
            &space,
            &qos,
            &c2f_models,
            &CoarseToFineOptions::auto(&space, 4),
            &SearchOptions::serial(),
        );
        assert!(
            (c2f.weighted_cost - full.weighted_cost).abs() <= 1e-9,
            "c2f {} vs full {}",
            c2f.weighted_cost,
            full.weighted_cost
        );
        assert_eq!(c2f.limits_met, full.limits_met);
        assert!(c2f.limits_met.iter().all(|&m| m), "limits must be met");
        let full_n = full_probes.lock().len();
        let c2f_n = c2f_probes.lock().len();
        assert!(
            c2f_n * 2 < full_n,
            "limit-aware c2f should probe far fewer points: {c2f_n} vs {full_n}"
        );
    }

    #[test]
    fn auto_options_find_no_coarse_delta_for_a_coarse_space() {
        // δ = 0.2 leaves no useful coarser level.
        let mut space = SearchSpace::cpu_only(0.5);
        space.set_delta(0.2);
        let opts = CoarseToFineOptions::auto(&space, 2);
        assert_eq!(opts.coarse, None);
        // δ = 0.01 with 10 workloads: 0.1 is degenerate (one option
        // per workload), so auto must pick 0.05.
        space.set_delta(0.01);
        let opts = CoarseToFineOptions::auto(&space, 10);
        assert_eq!(opts.coarse, Some(0.05));
    }

    #[test]
    fn grids_finer_than_the_key_resolution_are_rejected() {
        // Both δ are finer than the 1e-4 allocation key, so
        // neighbouring cells would share one probe key and one cost
        // (1/40000 also overflows a 15-bit SWAR lane). Every grid
        // solver rejects them like a grid too coarse to host the
        // workloads, and the capacity rule agrees.
        let mut space = SearchSpace::cpu_only(0.5);
        let models = synth(vec![3.0, 1.0]);
        let qos = qos_n(2);
        let opts = SearchOptions::serial();
        let c2f = CoarseToFineOptions::default();
        for delta in [5e-5, 1.0 / 40_000.0] {
            space.set_delta(delta);
            assert!(try_exhaustive_search_with(&space, &qos, &models, &opts).is_none());
            assert!(try_coarse_to_fine_search_with(&space, &qos, &models, &c2f, &opts).is_none());
            assert_eq!(machine_capacity(&space), 0);
        }
        // The key resolution itself is still a grid.
        space.set_delta(1.0 / KEY_STEPS);
        assert_eq!(machine_capacity(&space), 20);
    }

    /// Restore refuses a rebuilt machine whose key differs from the
    /// snapshot's, so every input a solve reads must move the key.
    #[test]
    fn warm_key_changes_with_every_input() {
        let space = SearchSpace::cpu_only(0.5);
        let qos = qos_n(2);
        let c2f = CoarseToFineOptions::auto(&space, 2);
        let fps = [5u64, 6];
        let base = warm_key(&space, &qos, &c2f, 1, &fps);
        assert_eq!(base, warm_key(&space, &qos, &c2f, 1, &fps));
        let mut keys = vec![base, warm_key(&space, &qos, &c2f, 2, &fps)];
        for i in 0..qos.len() {
            let mut limited = qos.clone();
            limited[i] = QoS::with_limit(1.5);
            keys.push(warm_key(&space, &limited, &c2f, 1, &fps));
            let mut weighted = qos.clone();
            weighted[i].gain = 2.0;
            keys.push(warm_key(&space, &weighted, &c2f, 1, &fps));
            let mut drifted = fps;
            drifted[i] += 1;
            keys.push(warm_key(&space, &qos, &c2f, 1, &drifted));
        }
        keys.push(warm_key(&SearchSpace::cpu_only(0.25), &qos, &c2f, 1, &fps));
        keys.push(warm_key(
            &SearchSpace::cpu_and_memory(),
            &qos,
            &c2f,
            1,
            &fps,
        ));
        for coarse in [None, Some(0.05)] {
            assert_ne!(c2f.coarse, coarse);
            keys.push(warm_key(
                &space,
                &qos,
                &CoarseToFineOptions { coarse },
                1,
                &fps,
            ));
        }
        let distinct: BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:x?}");
    }

    /// The merged refinement loop against the unconstrained loop it
    /// replaced.
    mod merged_loop {
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// The unconstrained coarse-to-fine loop as it stood before it was
        /// folded into the limit-aware one, frozen here verbatim with its
        /// coarse-δ ladder and window width as parameters: each ladder
        /// level's optimum centers the next level's window, and the fine
        /// level re-centers while the weighted cost strictly improves.
        fn frozen_unconstrained_c2f<M: CostModel>(
            space: &SearchSpace,
            qos: &[QoS],
            models: &[M],
            ladder: &[f64],
            window_steps: f64,
            options: &SearchOptions,
        ) -> Option<SearchResult> {
            let n = models.len();
            let mut ladder: Vec<f64> = ladder
                .iter()
                .copied()
                .filter(|&d| d > space.max_varied_delta() + 1e-12)
                .collect();
            ladder.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
            let mut seed: Option<(Vec<Allocation>, f64)> = None;
            for delta in ladder {
                let coarse_space = space.with_delta(delta);
                let allowed = seed.as_ref().and_then(|(centers, prev_delta)| {
                    let ranges = axis_ranges(&coarse_space, n)?;
                    Some(
                        (0..n)
                            .map(|i| {
                                window_cells(
                                    &coarse_space,
                                    centers[i],
                                    window_steps * prev_delta,
                                    &ranges,
                                )
                            })
                            .collect::<Vec<_>>(),
                    )
                });
                seed = grid_search(&coarse_space, qos, models, options, allowed.as_deref())
                    .map(|s| (s.result.allocations, delta));
            }
            if let Some((centers, prev_delta)) = seed {
                if let Some(ranges) = axis_ranges(space, n) {
                    let half_width = window_steps * prev_delta;
                    let mut centers = centers;
                    let mut best: Option<SearchResult> = None;
                    for _ in 0..RECENTER_CAP {
                        let allowed: Vec<Vec<Units>> = (0..n)
                            .map(|i| window_cells(space, centers[i], half_width, &ranges))
                            .collect();
                        let Some(s) = grid_search(space, qos, models, options, Some(&allowed))
                        else {
                            break;
                        };
                        let r = s.result;
                        let improved = best
                            .as_ref()
                            .is_none_or(|b| r.weighted_cost < b.weighted_cost - 1e-12);
                        centers.clone_from(&r.allocations);
                        if improved {
                            best = Some(r);
                        } else {
                            break;
                        }
                    }
                    if best.is_some() {
                        return best;
                    }
                }
            }
            try_exhaustive_search_with(space, qos, models, options)
        }

        /// `α/cpu + β/mem + γ + h·(⌊k·mem⌋ mod 2)`: separable convex costs
        /// plus a step along memory, the shape of a plan-regime switch,
        /// counting every evaluation as an optimizer call.
        struct SteppedModel {
            coeffs: (f64, f64, f64, f64, f64),
            calls: AtomicU64,
        }

        impl CostModel for SteppedModel {
            fn estimate(&self, a: Allocation) -> crate::costmodel::Estimate {
                self.calls.fetch_add(1, Ordering::Relaxed);
                let (alpha, beta, gamma, h, k) = self.coeffs;
                crate::costmodel::Estimate {
                    seconds: alpha / a.cpu()
                        + beta / a.memory()
                        + gamma
                        + h * ((k * a.memory()).floor() % 2.0),
                    plan_regime: 0,
                    avg_cost_per_statement: 0.0,
                }
            }

            fn optimizer_calls(&self) -> u64 {
                self.calls.load(Ordering::Relaxed)
            }
        }

        fn stepped(coeffs: &[(f64, f64, f64, f64, f64)]) -> Vec<SteppedModel> {
            coeffs
                .iter()
                .map(|&coeffs| SteppedModel {
                    coeffs,
                    calls: Default::default(),
                })
                .collect()
        }

        fn calls(models: &[SteppedModel]) -> u64 {
            models.iter().map(CostModel::optimizer_calls).sum()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Unconstrained problems through the merged loop return
            /// exactly what the frozen unconstrained loop returned, at
            /// exactly its optimizer calls. The memory step puts optima
            /// on window edges, so widening windows there would show:
            /// with widening ungated, a joint δ = 0.05 case bills 802
            /// calls against the frozen loop's 627. Joint grids stop at
            /// δ = 0.02, where a debug-build case still takes under a
            /// second; `BENCH_enumeration.json` gates the joint δ = 0.01
            /// unconstrained calls at N = 10.
            #[test]
            fn unconstrained_c2f_matches_the_frozen_loop(
                coeffs in proptest::collection::vec(
                    (0.1f64..30.0, 0.1f64..30.0, 0.1f64..5.0, 0.0f64..50.0, 1.0f64..30.0),
                    8,
                ),
                gains in proptest::collection::vec(1.0f64..5.0, 8),
                (joint, delta) in prop_oneof![
                    Just((false, 0.05)),
                    Just((false, 0.02)),
                    Just((false, 0.01)),
                    Just((true, 0.05)),
                    Just((true, 0.02)),
                ],
                coarse in prop_oneof![Just(None), Just(Some(0.2)), Just(Some(0.1)), Just(Some(0.05))],
                n in 2usize..=8,
            ) {
                let mut space = if joint {
                    SearchSpace::cpu_and_memory()
                } else {
                    SearchSpace::cpu_only(0.5)
                };
                space.set_delta(delta);
                let qos: Vec<QoS> = gains[..n].iter().map(|&g| QoS::with_gain(g)).collect();
                let serial = SearchOptions::serial();
                let frozen_models = stepped(&coeffs[..n]);
                let frozen = frozen_unconstrained_c2f(
                    &space,
                    &qos,
                    &frozen_models,
                    coarse.as_slice(),
                    2.0,
                    &serial,
                );
                let merged_models = stepped(&coeffs[..n]);
                let merged = try_coarse_to_fine_search_with(
                    &space,
                    &qos,
                    &merged_models,
                    &CoarseToFineOptions { coarse },
                    &serial,
                );
                let case = format!("n={n}, joint={joint}, delta={delta}, coarse={coarse:?}");
                prop_assert_eq!(&merged, &frozen, "{}", case);
                prop_assert_eq!(
                    calls(&merged_models),
                    calls(&frozen_models),
                    "optimizer calls differ: {}",
                    case
                );
            }
        }
    }
}
