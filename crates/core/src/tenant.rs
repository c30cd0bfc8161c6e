//! A tenant: one DBMS instance in one VM with its workload.
//!
//! The advisor's unit of consolidation. A tenant owns its engine, its
//! database catalog, and its current workload; statements are parsed
//! and bound once at construction so that repeated what-if costing
//! only pays for optimization, not parsing.

use crate::problem::Allocation;
use std::sync::OnceLock;
use vda_simdb::bind::{bind_statement, BoundQuery};
use vda_simdb::catalog::Catalog;
use vda_simdb::engines::Engine;
use vda_simdb::exec::{ExecContext, ExecOutcome, Executor};
use vda_simdb::hash::Fnv64;
use vda_simdb::Result as DbResult;
use vda_vmm::Hypervisor;
use vda_workloads::Workload;

/// A bound workload statement with its frequency.
#[derive(Debug, Clone)]
pub struct BoundStatement {
    /// The bound query.
    pub query: BoundQuery,
    /// Executions in the monitoring interval.
    pub count: f64,
    /// Concurrent clients issuing it.
    pub concurrency: f64,
}

/// One consolidated DBMS instance.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name.
    pub name: String,
    /// The database engine running in this VM.
    pub engine: Engine,
    /// The database's catalog (statistics).
    pub catalog: Catalog,
    /// The current workload description.
    pub workload: Workload,
    bound: Vec<BoundStatement>,
    /// FNV-1a state after hashing the engine and the catalog — the
    /// fixed part of [`Self::fingerprint`], computed on first use and
    /// never reset (engine and catalog are fixed for a tenant's
    /// lifetime).
    prefix: OnceLock<u64>,
    /// Memoized [`Self::fingerprint`]; workload mutations reset it.
    fingerprint: OnceLock<u64>,
}

impl Tenant {
    /// Create a tenant, binding every workload statement against the
    /// catalog.
    pub fn new(
        name: impl Into<String>,
        engine: Engine,
        catalog: Catalog,
        workload: Workload,
    ) -> DbResult<Self> {
        let bound = bind_workload(&workload, &catalog)?;
        Ok(Tenant {
            name: name.into(),
            engine,
            catalog,
            workload,
            bound,
            prefix: OnceLock::new(),
            fingerprint: OnceLock::new(),
        })
    }

    /// The bound statements.
    pub fn statements(&self) -> &[BoundStatement] {
        &self.bound
    }

    /// Total statement executions in the monitoring interval.
    pub fn total_count(&self) -> f64 {
        self.bound.iter().map(|s| s.count).sum()
    }

    /// Replace the workload (dynamic configuration management: the
    /// observed workload changed between monitoring periods).
    pub fn set_workload(&mut self, workload: Workload) -> DbResult<()> {
        self.bound = bind_workload(&workload, &self.catalog)?;
        self.workload = workload;
        self.fingerprint = OnceLock::new();
        Ok(())
    }

    /// Scale workload intensity in place (†: same queries, higher
    /// arrival rate).
    pub fn scale_workload(&mut self, factor: f64) {
        self.workload.scale(factor);
        for s in &mut self.bound {
            s.count *= factor;
        }
        self.fingerprint = OnceLock::new();
    }

    /// Stable identity of everything that determines a what-if
    /// estimate for this tenant besides the calibrated model and the
    /// candidate allocation: engine (kind *and* tuning policy),
    /// catalog statistics, and the workload's statements with their
    /// frequencies. The [`ProbeCache`](crate::costmodel::ProbeCache)
    /// keys entries by it (with the model fingerprint), so a workload
    /// change makes old entries unreachable rather than wrong.
    ///
    /// Memoized in two parts, so a stored value is a read and a
    /// workload change re-hashes only the statements: the hash state
    /// after the engine and the catalog is kept for the tenant's
    /// lifetime, and the full value until [`Self::set_workload`] or
    /// [`Self::scale_workload`] resets it. Writing the public
    /// `engine`, `catalog` or `workload` fields directly bypasses both
    /// memos and leaves a stale fingerprint: change a workload through
    /// those two methods (or the advisor's
    /// [`set_tenant_workload`](crate::advisor::VirtualizationDesignAdvisor::set_tenant_workload)
    /// and
    /// [`scale_tenant_workload`](crate::advisor::VirtualizationDesignAdvisor::scale_tenant_workload)),
    /// and build a new tenant for a new engine or catalog.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let prefix = *self.prefix.get_or_init(|| {
                let mut h = Fnv64::new();
                h.write_str(&format!("{:?}", self.engine));
                h.write_u64(self.catalog.signature());
                h.finish()
            });
            // FNV-1a has no finalization step: resuming from the
            // stored state hashes exactly as one pass would.
            let mut h = Fnv64::resume(prefix);
            for s in &self.workload.statements {
                h.write_str(&s.sql);
                h.write_u64(s.count.to_bits());
                h.write_u64(s.concurrency.to_bits());
            }
            h.finish()
        })
    }

    /// Measure the **actual** cost (total seconds) of running this
    /// tenant's workload in a VM configured with `alloc` on `hv` —
    /// the simulation's ground truth, used for online refinement and
    /// for the experiments' "actual improvement" metrics.
    pub fn actual_cost(&self, hv: &Hypervisor, alloc: Allocation) -> f64 {
        let perf = hv.perf_for(
            alloc
                .vm_config()
                .expect("advisor allocations are valid VM configs"),
        );
        let exec = Executor::new(&self.engine, &self.catalog);
        self.bound
            .iter()
            .map(|s| {
                let ctx = ExecContext {
                    concurrency: s.concurrency,
                };
                let out: ExecOutcome = exec.execute(&s.query, &perf, &ctx);
                out.seconds * s.count
            })
            .sum()
    }
}

fn bind_workload(workload: &Workload, catalog: &Catalog) -> DbResult<Vec<BoundStatement>> {
    workload
        .statements
        .iter()
        .map(|s| {
            Ok(BoundStatement {
                query: bind_statement(&s.sql, catalog)?,
                count: s.count,
                concurrency: s.concurrency,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vda_vmm::PhysicalMachine;
    use vda_workloads::{tpch, WorkloadStatement};

    fn tenant() -> Tenant {
        Tenant::new(
            "t",
            Engine::pg(),
            tpch::catalog(1.0),
            tpch::query_workload(6, 2.0),
        )
        .unwrap()
    }

    #[test]
    fn binds_statements_on_construction() {
        let t = tenant();
        assert_eq!(t.statements().len(), 1);
        assert_eq!(t.total_count(), 2.0);
    }

    #[test]
    fn rejects_unbindable_workload() {
        let mut w = Workload::new("bad");
        w.push(WorkloadStatement::dss("SELECT * FROM nonexistent", 1.0));
        assert!(Tenant::new("t", Engine::pg(), tpch::catalog(1.0), w).is_err());
    }

    #[test]
    fn actual_cost_scales_with_count() {
        let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
        let t1 = Tenant::new(
            "a",
            Engine::pg(),
            tpch::catalog(1.0),
            tpch::query_workload(6, 1.0),
        )
        .unwrap();
        let t2 = Tenant::new(
            "b",
            Engine::pg(),
            tpch::catalog(1.0),
            tpch::query_workload(6, 3.0),
        )
        .unwrap();
        let alloc = Allocation::new(0.5, 0.5);
        let c1 = t1.actual_cost(&hv, alloc);
        let c2 = t2.actual_cost(&hv, alloc);
        assert!((c2 / c1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scale_workload_changes_counts() {
        let mut t = tenant();
        t.scale_workload(2.5);
        assert_eq!(t.total_count(), 5.0);
    }

    #[test]
    fn set_workload_rebinds() {
        let mut t = tenant();
        t.set_workload(tpch::query_workload(1, 4.0)).unwrap();
        assert_eq!(t.total_count(), 4.0);
        assert!(t.workload.name.contains("Q1"));
    }

    #[test]
    fn more_cpu_never_hurts_actual_cost() {
        let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
        let t = tenant();
        let lo = t.actual_cost(&hv, Allocation::new(0.2, 0.5));
        let hi = t.actual_cost(&hv, Allocation::new(0.8, 0.5));
        assert!(hi <= lo);
    }
}
