#![warn(missing_docs)]

//! # vda-core
//!
//! The **virtualization design advisor** of Soror et al., *Automatic
//! Virtual Machine Configuration for Database Workloads* (SIGMOD 2008 /
//! TODS). Given `N` database workloads destined for `N` VMs on one
//! physical machine, the advisor recommends how much CPU and memory
//! each VM should get:
//!
//! 1. **Calibration** ([`costmodel::calibration`], §4.3–4.4): measure,
//!    once per DBMS per machine, how the query optimizer's descriptive
//!    configuration parameters depend on the VM's resource allocation.
//! 2. **What-if costing** ([`costmodel::whatif`], §4.1–4.2): map a
//!    candidate allocation to optimizer parameters, ask the optimizer
//!    for workload cost, renormalize to seconds.
//! 3. **Greedy enumeration** ([`enumerate`], §4.5, Fig. 11): shift δ-
//!    sized resource shares from the workload that suffers least to the
//!    workload that gains most, under degradation limits `L_i` and gain
//!    factors `G_i` (§4.6).
//! 4. **Online refinement** ([`refine`], §5): correct optimizer
//!    misestimates from observed runtimes with linear (CPU) and
//!    piecewise-linear (memory) models.
//! 5. **Dynamic configuration management** ([`dynamic`], §6): detect
//!    workload changes via the per-query cost-estimate metric and
//!    rebuild or keep refining accordingly.
//!
//! Beyond the paper, the **fleet layer** scales the advisor out:
//!
//! 6. **Coarse-to-fine enumeration**
//!    ([`enumerate::try_coarse_to_fine_search_with`]): solve the DP
//!    grid at a coarse δ, then refine only inside a window around the
//!    coarse optimum — the full-grid answer at a fraction of the
//!    optimizer calls.
//! 7. **Cross-machine placement** ([`placement::place_tenants`]):
//!    assign `N` tenants to `K` machines, one
//!    [`placement::MachineSpec`] each (per-machine search spaces and
//!    resource scales; identical fleets repeat one spec, and subset
//!    solves are memoized per [`enumerate::MachineClass`]) — via
//!    marginal-benefit bin-packing plus swap/migrate local search over
//!    per-machine greedy solves.
//! 8. **Fleet control plane** ([`controlplane`]): the event-driven
//!    fleet manager. [`ControlPlane`] classifies each workload change
//!    (§6.1), re-solves only the machines an event dirties, and lets
//!    major changes and arrivals trigger live migrations with explicit
//!    calibration management
//!    ([`advisor::VirtualizationDesignAdvisor::transfer_tenant`]
//!    returns a [`advisor::TransferCalibration`] verdict): calibrated
//!    models travel only between physically identical machines, and a
//!    cross-hardware move installs the destination class's
//!    calibration. Its state snapshots durably ([`snapshot`]).
//!
//! [`advisor::VirtualizationDesignAdvisor`] is the façade tying it all
//! together over the simulated substrate ([`vda_simdb`], [`vda_vmm`]).

pub mod advisor;
pub mod controlplane;
pub mod costmodel;
pub mod dynamic;
pub mod enumerate;
pub mod guardrail;
pub mod jsonio;
pub mod metrics;
pub mod placement;
pub mod problem;
pub mod refine;
pub mod snapshot;
pub mod tenant;

pub use advisor::{
    Recommendation, TenantTransfer, TransferCalibration, VirtualizationDesignAdvisor,
};
pub use controlplane::{
    AdaptiveTuningOptions, BatchOutcome, ControlPlane, ControlPlaneOptions, ControlPlaneStats,
    Decision, DecisionLog, EventOutcome, FleetEvent, Migration,
};
pub use costmodel::{
    ActualCostModel, Adaption, AdaptionOptions, AxisCorrection, CalibratedModel, Calibrator,
    CostModel, Estimate, FnCostModel, ProbeCache, RegimeFnCostModel, Renormalizer,
    RuntimeAdaptionStorage, WhatIfEstimator,
};
pub use dynamic::{DynamicConfigManager, DynamicOptions, ManagementMode, PeriodReport};
pub use enumerate::{
    coarse_to_fine_search_with, greedy_search_with, try_coarse_to_fine_search_with,
    try_exhaustive_search_with, CoarseToFineOptions, MachineClass, SearchOptions, SearchResult,
    TraceStep,
};
pub use guardrail::{GuardrailOptions, GuardrailState, GuardrailTracker};
pub use metrics::CostAccounting;
pub use placement::{
    assignment_objective, machine_capacity, place_tenants, MachineSpec, PlacementMove,
    PlacementResult, ScaledCostModel,
};
pub use problem::{Allocation, QoS, Resource, SearchSpace};
pub use refine::{RefineOptions, RefinedModel, RefinementOutcome};
pub use snapshot::{FleetSnapshot, MachineSnapshot};
pub use tenant::{BoundStatement, Tenant};
