#![warn(missing_docs)]

//! # vda — Virtualization Design Advisor
//!
//! A full reproduction of *Automatic Virtual Machine Configuration for
//! Database Workloads* (Soror, Minhas, Aboulnaga, Salem, Kokosielis,
//! Kamath — SIGMOD 2008 / TODS), built as a Rust workspace with every
//! substrate the paper depends on implemented from scratch:
//!
//! * [`core`] — the virtualization design advisor itself: optimizer
//!   calibration, what-if cost estimation, greedy configuration
//!   enumeration, online refinement, dynamic configuration management.
//! * [`simdb`] — a simulated DBMS substrate (SQL subset, cost-based
//!   optimizer, PostgreSQL-like and DB2-like engines, analytic
//!   executor).
//! * [`vmm`] — a Xen-like hypervisor model (CPU shares, memory grants,
//!   disk contention, calibration micro-benchmarks).
//! * [`workloads`] — TPC-H-like and TPC-C-like workload generators.
//! * [`stats`] — regression/solving/piecewise-model numerics.
//!
//! See the README for a quickstart and `docs/ARCHITECTURE.md` for the
//! system inventory; the `experiments` binary of `vda-bench`
//! (`experiments list`) regenerates every figure and table in the
//! paper's evaluation, each report noting where it departs from the
//! paper.

pub use vda_core as core;
pub use vda_simdb as simdb;
pub use vda_stats as stats;
pub use vda_vmm as vmm;
pub use vda_workloads as workloads;

/// Commonly used items, re-exported for `use vda::prelude::*`.
pub mod prelude {
    pub use vda_core::advisor::VirtualizationDesignAdvisor;
    pub use vda_core::problem::{Allocation, QoS, Resource, SearchSpace};
    pub use vda_core::tenant::Tenant;
    pub use vda_simdb::engines::{Engine, EngineKind};
    pub use vda_vmm::{Hypervisor, PhysicalMachine, VmConfig};
    pub use vda_workloads::{Workload, WorkloadStatement};
}
