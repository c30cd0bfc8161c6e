//! Safe online tuning: the Shadow → Canary → Promoted / RolledBack
//! state machine.
//!
//! An adapted cost model ([`crate::costmodel::adaptive`]) is a
//! *hypothesis* about the fleet's pricing error. Installing a wrong
//! hypothesis is exactly the failure the adaptation loop exists to
//! prevent, so no candidate ever steers a decision until it has
//! survived two gates, in the spirit of the canary-and-rollback
//! discipline of safe cloud-database configuration tuning:
//!
//! 1. **Shadow.** The candidate prices every reported actual *in
//!    parallel with* the incumbent, changing nothing. Only if its mean
//!    relative error is strictly lower than the incumbent's after
//!    [`GuardrailOptions::min_shadow_samples`] reports does it
//!    advance; otherwise it is rejected (`RolledBack`) without ever
//!    acting.
//! 2. **Canary.** The candidate is deployed on a *bounded tenant
//!    subset* — the lowest-fingerprint tenant observed during shadow —
//!    while the rest of the fleet stays on the incumbent. After
//!    [`GuardrailOptions::min_canary_samples`] canary reports the
//!    verdict is evaluated: the candidate's canary error must not
//!    exceed the incumbent's by more than
//!    [`GuardrailOptions::max_error_inflation`], and the fleet
//!    objective must not have regressed past
//!    [`GuardrailOptions::max_objective_regression`] relative to the
//!    objective recorded at canary entry. Pass → `Promoted`
//!    (installed fleet-wide); fail → `RolledBack` (the pre-canary
//!    incumbent is reinstalled bit-identically).
//!
//! Every transition is a pure function of the observed sample stream
//! and the options — no clocks, no randomness — so a replayed event
//! log reproduces the same verdicts, and the tracker state snapshots
//! and restores exactly ([`GuardrailTracker::export`]).

use crate::costmodel::adaptive::Adaption;
use std::collections::BTreeSet;

/// Size of the canary subset: the lowest-fingerprint tenants seen
/// during shadow.
const CANARY_TENANTS: usize = 1;

/// Lifecycle of one tuning candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardrailState {
    /// Pricing in parallel with the incumbent; no effect on decisions.
    Shadow,
    /// Deployed on the bounded canary tenant subset only.
    Canary,
    /// Survived both gates; installed fleet-wide. Terminal.
    Promoted,
    /// Rejected in shadow, failed the canary gate, or force-rolled
    /// back; the incumbent is (re)installed. Terminal.
    RolledBack,
}

impl GuardrailState {
    /// Whether the candidate's lifecycle is over.
    pub fn is_terminal(self) -> bool {
        matches!(self, GuardrailState::Promoted | GuardrailState::RolledBack)
    }

    /// Stable lower-case name (snapshots, decision-log labels).
    pub fn name(self) -> &'static str {
        match self {
            GuardrailState::Shadow => "shadow",
            GuardrailState::Canary => "canary",
            GuardrailState::Promoted => "promoted",
            GuardrailState::RolledBack => "rolled-back",
        }
    }

    /// Parse [`Self::name`] back (snapshot restore).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "shadow" => Some(GuardrailState::Shadow),
            "canary" => Some(GuardrailState::Canary),
            "promoted" => Some(GuardrailState::Promoted),
            "rolled-back" => Some(GuardrailState::RolledBack),
            _ => None,
        }
    }
}

/// Degradation-guardrail thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardrailOptions {
    /// Reports the candidate must shadow-price before the shadow gate
    /// is evaluated.
    pub min_shadow_samples: u64,
    /// Canary-tenant reports required before the verdict.
    pub min_canary_samples: u64,
    /// Allowed canary error inflation: the candidate's mean relative
    /// error may exceed the incumbent's by at most this fraction.
    pub max_error_inflation: f64,
    /// Allowed relative fleet-objective regression versus the
    /// objective recorded at canary entry.
    pub max_objective_regression: f64,
}

impl Default for GuardrailOptions {
    fn default() -> Self {
        GuardrailOptions {
            min_shadow_samples: 4,
            min_canary_samples: 4,
            max_error_inflation: 0.25,
            max_objective_regression: 0.05,
        }
    }
}

/// Running mean-relative-error comparison of candidate vs incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorAccumulator {
    /// Summed `|candidate − actual| / actual`.
    pub candidate_abs: f64,
    /// Summed `|incumbent − actual| / actual`.
    pub incumbent_abs: f64,
    /// Reports accumulated.
    pub samples: u64,
}

impl ErrorAccumulator {
    fn record(&mut self, candidate: f64, incumbent: f64, actual: f64) {
        if !(actual.is_finite() && actual > 0.0) {
            return;
        }
        self.candidate_abs += (candidate - actual).abs() / actual;
        self.incumbent_abs += (incumbent - actual).abs() / actual;
        self.samples += 1;
    }

    /// Mean relative error of the candidate.
    pub fn candidate_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.candidate_abs / self.samples as f64
        }
    }

    /// Mean relative error of the incumbent.
    pub fn incumbent_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.incumbent_abs / self.samples as f64
        }
    }
}

/// Snapshot form of a [`GuardrailTracker`] — every field public so
/// `crate::snapshot` can serialize it without this module knowing the
/// wire format. Round-trips bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardrailExport {
    /// Current lifecycle state.
    pub state: GuardrailState,
    /// The candidate overlay under evaluation.
    pub candidate: Adaption,
    /// Fingerprint of the un-adapted base model the candidate
    /// corrects.
    pub base_fingerprint: u64,
    /// Shadow-phase error accumulator.
    pub shadow: ErrorAccumulator,
    /// Canary-phase error accumulator.
    pub canary: ErrorAccumulator,
    /// Distinct tenants observed during shadow (sorted).
    pub seen_tenants: Vec<u64>,
    /// The chosen canary subset (sorted; empty before canary entry).
    pub canary_tenants: Vec<u64>,
    /// Fleet objective recorded at canary entry.
    pub baseline_objective: Option<f64>,
}

/// The per-candidate state machine. One tracker exists per adapted
/// scope (the control plane keys them by (hardware class, engine));
/// it consumes `(tenant, candidate predicted, incumbent predicted,
/// actual, fleet objective)` observations and walks
/// `Shadow → Canary → {Promoted, RolledBack}` deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardrailTracker {
    options: GuardrailOptions,
    state: GuardrailState,
    candidate: Adaption,
    base_fingerprint: u64,
    shadow: ErrorAccumulator,
    canary: ErrorAccumulator,
    seen_tenants: BTreeSet<u64>,
    canary_tenants: Vec<u64>,
    baseline_objective: Option<f64>,
}

impl GuardrailTracker {
    /// Start shadowing `candidate` (a correction of the base model
    /// with fingerprint `base_fingerprint`).
    pub fn new(candidate: Adaption, base_fingerprint: u64, options: GuardrailOptions) -> Self {
        GuardrailTracker {
            options,
            state: GuardrailState::Shadow,
            candidate,
            base_fingerprint,
            shadow: ErrorAccumulator::default(),
            canary: ErrorAccumulator::default(),
            seen_tenants: BTreeSet::new(),
            canary_tenants: Vec::new(),
            baseline_objective: None,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> GuardrailState {
        self.state
    }

    /// The candidate overlay under evaluation.
    pub fn candidate(&self) -> Adaption {
        self.candidate
    }

    /// Fingerprint of the base model the candidate corrects.
    pub fn base_fingerprint(&self) -> u64 {
        self.base_fingerprint
    }

    /// The chosen canary subset (empty before canary entry).
    pub fn canary_tenants(&self) -> &[u64] {
        &self.canary_tenants
    }

    /// Whether `tenant` is in the canary subset.
    pub fn is_canary_tenant(&self, tenant: u64) -> bool {
        self.canary_tenants.binary_search(&tenant).is_ok()
    }

    /// Shadow/canary error accumulators (for reporting).
    pub fn accumulators(&self) -> (&ErrorAccumulator, &ErrorAccumulator) {
        (&self.shadow, &self.canary)
    }

    /// Feed one report: the candidate's and the incumbent's predicted
    /// seconds for a `(tenant, allocation)` pair, the executor's
    /// actual, and the current fleet objective. Returns the state
    /// *after* the observation — the caller acts on `Canary` (deploy
    /// on the canary subset), `Promoted` (install fleet-wide), and
    /// `RolledBack` (reinstall the incumbent) transitions.
    pub fn observe(
        &mut self,
        tenant: u64,
        candidate_predicted: f64,
        incumbent_predicted: f64,
        actual: f64,
        objective: f64,
    ) -> GuardrailState {
        match self.state {
            GuardrailState::Shadow => {
                self.seen_tenants.insert(tenant);
                self.shadow
                    .record(candidate_predicted, incumbent_predicted, actual);
                if self.shadow.samples >= self.options.min_shadow_samples.max(1) {
                    if self.shadow.candidate_mean() < self.shadow.incumbent_mean() {
                        self.state = GuardrailState::Canary;
                        self.canary_tenants = self
                            .seen_tenants
                            .iter()
                            .copied()
                            .take(CANARY_TENANTS)
                            .collect();
                        self.baseline_objective = Some(objective);
                    } else {
                        // Worse than the incumbent while changing
                        // nothing: rejected without ever acting.
                        self.state = GuardrailState::RolledBack;
                    }
                }
            }
            GuardrailState::Canary => {
                if self.is_canary_tenant(tenant) {
                    self.canary
                        .record(candidate_predicted, incumbent_predicted, actual);
                    if self.canary.samples >= self.options.min_canary_samples.max(1) {
                        let error_ok = self.canary.candidate_mean()
                            <= self.canary.incumbent_mean()
                                * (1.0 + self.options.max_error_inflation);
                        let objective_ok = match self.baseline_objective {
                            None => true,
                            Some(base) => {
                                objective <= base * (1.0 + self.options.max_objective_regression)
                            }
                        };
                        self.state = if error_ok && objective_ok {
                            GuardrailState::Promoted
                        } else {
                            GuardrailState::RolledBack
                        };
                    }
                }
            }
            GuardrailState::Promoted | GuardrailState::RolledBack => {}
        }
        self.state
    }

    /// Deterministic forced rollback — e.g. a canary machine was
    /// decommissioned mid-canary, so the verdict can never arrive.
    /// No-op once promoted.
    pub fn force_rollback(&mut self) {
        if self.state != GuardrailState::Promoted {
            self.state = GuardrailState::RolledBack;
        }
    }

    /// Export every field for snapshotting.
    pub fn export(&self) -> GuardrailExport {
        GuardrailExport {
            state: self.state,
            candidate: self.candidate,
            base_fingerprint: self.base_fingerprint,
            shadow: self.shadow,
            canary: self.canary,
            seen_tenants: self.seen_tenants.iter().copied().collect(),
            canary_tenants: self.canary_tenants.clone(),
            baseline_objective: self.baseline_objective,
        }
    }

    /// Rebuild from an export plus the (caller-owned) options. The
    /// round trip `import(export(), options)` is exact.
    pub fn import(e: GuardrailExport, options: GuardrailOptions) -> Self {
        GuardrailTracker {
            options,
            state: e.state,
            candidate: e.candidate,
            base_fingerprint: e.base_fingerprint,
            shadow: e.shadow,
            canary: e.canary,
            seen_tenants: e.seen_tenants.into_iter().collect(),
            canary_tenants: e.canary_tenants,
            baseline_objective: e.baseline_objective,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::adaptive::AxisCorrection;

    fn candidate() -> Adaption {
        Adaption {
            correction: AxisCorrection::scale_only(1.5),
            version: 7,
        }
    }

    fn opts() -> GuardrailOptions {
        GuardrailOptions {
            min_shadow_samples: 2,
            min_canary_samples: 2,
            max_error_inflation: 0.25,
            max_objective_regression: 0.05,
        }
    }

    #[test]
    fn better_candidate_walks_shadow_canary_promoted() {
        let mut t = GuardrailTracker::new(candidate(), 0xB, opts());
        // Actual is 3.0; incumbent predicts 2.0, candidate 3.0.
        assert_eq!(t.observe(10, 3.0, 2.0, 3.0, 100.0), GuardrailState::Shadow);
        assert_eq!(t.observe(20, 3.0, 2.0, 3.0, 100.0), GuardrailState::Canary);
        // Canary subset: lowest fingerprint seen in shadow.
        assert_eq!(t.canary_tenants(), &[10]);
        // Non-canary reports do not advance the canary gate.
        assert_eq!(t.observe(20, 3.0, 2.0, 3.0, 100.0), GuardrailState::Canary);
        assert_eq!(t.observe(10, 3.0, 2.0, 3.0, 100.0), GuardrailState::Canary);
        assert_eq!(
            t.observe(10, 3.0, 2.0, 3.0, 100.0),
            GuardrailState::Promoted
        );
        assert!(t.state().is_terminal());
    }

    #[test]
    fn worse_candidate_is_rejected_in_shadow() {
        let mut t = GuardrailTracker::new(candidate(), 0xB, opts());
        assert_eq!(t.observe(1, 5.0, 3.0, 3.0, 100.0), GuardrailState::Shadow);
        assert_eq!(
            t.observe(2, 5.0, 3.0, 3.0, 100.0),
            GuardrailState::RolledBack
        );
        assert!(t.canary_tenants().is_empty());
    }

    #[test]
    fn mispredicting_canary_is_rolled_back() {
        let mut t = GuardrailTracker::new(candidate(), 0xB, opts());
        // Shadow: candidate looks better.
        t.observe(1, 3.0, 2.0, 3.0, 100.0);
        t.observe(2, 3.0, 2.0, 3.0, 100.0);
        assert_eq!(t.state(), GuardrailState::Canary);
        // Canary: the world shifted — the candidate now mispredicts
        // badly while the incumbent is close.
        t.observe(1, 6.0, 2.1, 2.0, 100.0);
        assert_eq!(
            t.observe(1, 6.0, 2.1, 2.0, 100.0),
            GuardrailState::RolledBack
        );
    }

    #[test]
    fn objective_regression_fails_the_canary_gate() {
        let mut t = GuardrailTracker::new(candidate(), 0xB, opts());
        t.observe(1, 3.0, 2.0, 3.0, 100.0);
        t.observe(2, 3.0, 2.0, 3.0, 100.0);
        assert_eq!(t.state(), GuardrailState::Canary);
        // Accurate canary predictions, but the fleet objective
        // regressed 10 % past the recorded baseline.
        t.observe(1, 3.0, 2.0, 3.0, 110.0);
        assert_eq!(
            t.observe(1, 3.0, 2.0, 3.0, 110.0),
            GuardrailState::RolledBack
        );
    }

    #[test]
    fn force_rollback_is_deterministic_and_spares_promoted() {
        let mut t = GuardrailTracker::new(candidate(), 0xB, opts());
        t.force_rollback();
        assert_eq!(t.state(), GuardrailState::RolledBack);

        let mut p = GuardrailTracker::new(candidate(), 0xB, opts());
        p.observe(1, 3.0, 2.0, 3.0, 100.0);
        p.observe(2, 3.0, 2.0, 3.0, 100.0);
        p.observe(1, 3.0, 2.0, 3.0, 100.0);
        p.observe(1, 3.0, 2.0, 3.0, 100.0);
        assert_eq!(p.state(), GuardrailState::Promoted);
        p.force_rollback();
        assert_eq!(p.state(), GuardrailState::Promoted);
    }

    #[test]
    fn export_import_round_trips_exactly() {
        let mut t = GuardrailTracker::new(candidate(), 0xB, opts());
        t.observe(5, 3.0, 2.0, 3.0, 100.0);
        t.observe(9, 3.0, 2.0, 3.0, 100.0);
        t.observe(5, 3.0, 2.1, 2.9, 101.0);
        let back = GuardrailTracker::import(t.export(), opts());
        assert_eq!(t, back);
        assert_eq!(t.export(), back.export());
    }

    #[test]
    fn state_names_round_trip() {
        for s in [
            GuardrailState::Shadow,
            GuardrailState::Canary,
            GuardrailState::Promoted,
            GuardrailState::RolledBack,
        ] {
            assert_eq!(GuardrailState::from_name(s.name()), Some(s));
        }
        assert_eq!(GuardrailState::from_name("nope"), None);
    }
}
