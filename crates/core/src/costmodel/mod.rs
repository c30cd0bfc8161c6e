//! Cost estimation for the virtualization design advisor (§4.1–4.4).
//!
//! The advisor never invents its own cost model: it drives each
//! DBMS's query-optimizer cost model in a *what-if* mode. Three pieces
//! make that possible:
//!
//! * [`renormalize`] — converting engine-native cost units
//!   (sequential-page units for PgSim, timerons for Db2Sim) into
//!   seconds so costs are comparable *across* engines (§4.2);
//! * [`calibration`] — measuring, once per engine per physical
//!   machine, how the descriptive optimizer parameters depend on the
//!   candidate resource allocation (§4.3), exploiting the
//!   independence structure of §4.4 (CPU parameters are linear in
//!   1/cpu-share and independent of memory; I/O parameters are
//!   constants);
//! * [`whatif`] — mapping a candidate allocation `R` to parameters
//!   `P`, invoking the optimizer, and renormalizing, with a
//!   per-allocation cache so the greedy search's repeated probes cost
//!   one optimizer call each (§4.5).
//!
//! [`model`] unifies every cost source — what-if estimators, refined
//! models (§5), and the executor's ground truth — behind the
//! [`CostModel`] trait that the enumeration, refinement, and dynamic
//! management layers consume. [`adaptive`] closes the loop the paper
//! leaves open: executor actuals reported at runtime refit bounded
//! per-axis corrections onto a calibrated model, guarded by the
//! [`guardrail`](crate::guardrail) state machine before any adapted
//! model is allowed to steer fleet decisions.

pub mod adaptive;
pub mod calibration;
pub mod model;
pub mod renormalize;
pub mod whatif;

pub use adaptive::{
    refit, Adaption, AdaptionOptions, AxisCorrection, ResidualSample, RuntimeAdaptionStorage,
};
pub use calibration::{CalibratedModel, CalibrationConfig, CalibrationCost, Calibrator};
pub use model::{ActualCostModel, CostModel, FnCostModel, RegimeFnCostModel};
pub use renormalize::Renormalizer;
pub use whatif::{Estimate, ProbeCache, WhatIfEstimator};
