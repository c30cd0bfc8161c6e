//! Seeded inputs: the workload table, the fleet recipe and the event
//! streams.
//!
//! Every workload shares one fleet recipe: four hardware classes (the
//! paper testbed at four clock speeds), Db2 tenants running one TPC-H
//! query each, a CPU-only search space on a 4 % grid and a degradation
//! limit on each machine's first tenant, so every machine takes the
//! limit-aware coarse-to-fine path that keeps a warm DP lattice.
//!
//! # Fingerprint uniqueness
//!
//! Two tenants with the same workload fingerprint on the same hardware
//! class share probe-cache rows. In a parallel wave, which of them
//! misses first depends on thread interleaving, and so would the hit,
//! miss and optimizer-call counts. Every workload intensity is
//! therefore drawn from the lattice `2^k · (1 + j · 2^-24)` with a
//! distinct `j` per origin: construction uses `j = 256·g` for the
//! global tenant index `g`, drifts use `j = 4e + 1` and arrivals
//! `j = 4a + 3`. The three classes are disjoint modulo 4, and scaling
//! events multiply by exactly 2 or 1/2, which only moves the exponent.
//! So no two tenants ever share a `(query, count)` pair, under every
//! seed and for the whole run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vda_core::problem::{AxisSet, QoS, Resource, ResourceVector, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::{
    machine_capacity, ControlPlane, ControlPlaneOptions, FleetEvent, VirtualizationDesignAdvisor,
};
use vda_simdb::catalog::Catalog;
use vda_simdb::engines::Engine;
use vda_vmm::{Hypervisor, PhysicalMachine};

/// CPU grid step, minimum share and fixed memory share: a machine fits
/// 25 tenants, so 20 residents leave the optimizer room to shift.
const SHARE: f64 = 0.04;

/// Per-core clock multipliers of the four hardware classes.
const GHZ_STEPS: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

/// The DSS query pool: CPU-hungry Q18/Q21, scan-leaning Q6/Q7/Q16.
const QUERIES: [usize; 5] = [18, 6, 21, 7, 16];

/// Degradation limit of each machine's first tenant.
const FIRST_TENANT_LIMIT: f64 = 6.0;

/// How a workload drives the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Batches of drift/scaling events, five per machine on a few
    /// machines, with repeated slots so batches coalesce.
    Storm,
    /// Batches with one drift/scaling event on each of many machines.
    Wave,
    /// One event per call: major drifts, arrivals and departures.
    Churn,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub stream: Stream,
    /// Worker threads the vendored rayon may use.
    pub threads: usize,
    /// Machines in the fleet.
    pub machines: usize,
    /// Tenants per machine at construction: `lo..=hi`, drawn per machine.
    pub tenants: (usize, usize),
    /// Machines one decision touches: five events each in a storm
    /// batch, one each in a wave batch.
    pub batch_machines: usize,
    /// Decisions per second of `--seconds`: the run's event count is
    /// fixed by this, so every count and objective repeats exactly.
    pub decisions_per_s: usize,
    /// The tail percentile reported as `decision_tail_ms`.
    pub tail_pct: f64,
    /// Probe-cache cap in rows per constructed tenant (0: unbounded).
    pub cap_rows_per_tenant: usize,
    /// Relative gain a reconcile move must clear.
    pub migration_threshold: f64,
    /// Checkpoint-and-restart cycles per run, evenly spaced over the
    /// event phase.
    pub restarts: usize,
}

/// Events per machine in a storm batch, on slots `[a, b, c, a, b]`.
const STORM_TOUCHES: usize = 5;

/// Decision-log horizon: the log is not read by the benchmark, and a
/// ring keeps its memory flat however long a run is.
const LOG_HORIZON: usize = 64;

/// No reconcile move can gain half the fleet objective, so `storm`,
/// `capped` and `wave` price candidates but never migrate.
const NO_MOVES: f64 = 0.5;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "storm",
        stream: Stream::Storm,
        threads: 1,
        machines: 1000,
        tenants: (20, 20),
        batch_machines: 5,
        decisions_per_s: 80,
        tail_pct: 98.75,
        cap_rows_per_tenant: 0,
        migration_threshold: NO_MOVES,
        restarts: 3,
    },
    Workload {
        name: "capped",
        stream: Stream::Storm,
        threads: 1,
        machines: 1000,
        tenants: (20, 20),
        batch_machines: 5,
        decisions_per_s: 12,
        tail_pct: 91.6,
        cap_rows_per_tenant: 7,
        migration_threshold: NO_MOVES,
        restarts: 3,
    },
    Workload {
        name: "churn",
        stream: Stream::Churn,
        threads: 1,
        machines: 1000,
        tenants: (16, 20),
        batch_machines: 1,
        decisions_per_s: 300,
        tail_pct: 99.66,
        cap_rows_per_tenant: 0,
        migration_threshold: 1e-4,
        restarts: 5,
    },
    Workload {
        name: "wave",
        stream: Stream::Wave,
        threads: 2,
        machines: 1000,
        tenants: (20, 20),
        batch_machines: 50,
        decisions_per_s: 16,
        tail_pct: 93.75,
        cap_rows_per_tenant: 0,
        migration_threshold: NO_MOVES,
        restarts: 3,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The self-test's miniature: the same recipe on 24 machines with at
    /// most 8 tenants each.
    pub fn mini(self) -> Workload {
        Workload {
            machines: 24,
            tenants: (self.tenants.0.min(8) - 2, 8),
            batch_machines: self.batch_machines.min(12),
            ..self
        }
    }

    /// Events per decision; 1 means `process_event`.
    pub fn batch(&self) -> usize {
        match self.stream {
            Stream::Storm => STORM_TOUCHES * self.batch_machines,
            Stream::Wave => self.batch_machines,
            Stream::Churn => 1,
        }
    }

    /// Decisions in a run of `seconds`.
    pub fn decisions(&self, seconds: u64) -> usize {
        (self.decisions_per_s * seconds as usize).max(1)
    }

    pub fn options(&self) -> ControlPlaneOptions {
        ControlPlaneOptions {
            migration_threshold: self.migration_threshold,
            recalibration_surcharge: 1e-3,
            probe_cache_capacity: self.cap_rows_per_tenant
                * self.machines
                * (self.tenants.0 + self.tenants.1)
                / 2,
            decision_log_capacity: LOG_HORIZON,
            ..ControlPlaneOptions::default()
        }
    }
}

/// Independent generator streams drawn from one `--seed`, so changing
/// how many draws one part makes never shifts another part's inputs.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

pub const FLEET_STREAM: u64 = 1;
pub const EVENT_STREAM: u64 = 2;
pub const CHECK_STREAM: u64 = 3;
pub const PROBE_STREAM: u64 = 4;

/// Intensity `2^k · (1 + j · 2^-24)`: exact in f64 for `j < 2^24`.
fn intensity(j: u64, k: u32) -> f64 {
    assert!(j < 1 << 24, "intensity lattice exhausted");
    (1.0 + j as f64 / (1u64 << 24) as f64) * f64::from(1u32 << k)
}

fn construction_intensity(g: usize, k: u32) -> f64 {
    intensity(256 * g as u64, k)
}

fn drift_intensity(e: u64, k: u32) -> f64 {
    intensity(4 * e + 1, k)
}

fn arrival_intensity(a: u64, k: u32) -> f64 {
    intensity(4 * a + 3, k)
}

/// The machine spec of hardware class `m % 4`.
fn spec_for(m: usize) -> PhysicalMachine {
    let mut spec = PhysicalMachine::paper_testbed();
    spec.core_ghz *= GHZ_STEPS[m % GHZ_STEPS.len()];
    spec
}

/// CPU-only search over the 4 % grid, memory fixed at 4 % per VM.
pub fn space() -> SearchSpace {
    let mut space = SearchSpace::over(
        AxisSet::of(&[Resource::Cpu]),
        ResourceVector::full().with(Resource::Memory, SHARE),
    );
    space.min_share = SHARE;
    space.deltas = ResourceVector::splat(SHARE);
    space
}

/// The shared engine and catalog handles the generators clone.
pub struct Inputs {
    db2: Engine,
    pg: Engine,
    catalog: Catalog,
}

impl Inputs {
    pub fn new() -> Self {
        Inputs {
            db2: Engine::db2(),
            pg: Engine::pg(),
            catalog: vda_workloads::tpch::catalog(1.0),
        }
    }

    /// Query `q` at intensity `count`, named after the query so a drift
    /// can tell which query a slot runs.
    fn workload(&self, q: usize, count: f64) -> vda_workloads::Workload {
        vda_workloads::tpch::query_workload(q, count).named(format!("Q{q}"))
    }

    fn tenant(&self, name: String, engine: &Engine, q: usize, count: f64) -> Tenant {
        Tenant::new(
            name,
            engine.clone(),
            self.catalog.clone(),
            self.workload(q, count),
        )
        .expect("TPC-H queries bind against the TPC-H catalog")
    }
}

/// The fleet of `w` under `seed`: advisors and their search spaces.
pub fn fleet(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
) -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let mut rng = rng(seed, FLEET_STREAM);
    let mut machines = Vec::with_capacity(w.machines);
    let mut g = 0;
    for m in 0..w.machines {
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec_for(m)));
        let n = rng.random_range(w.tenants.0..=w.tenants.1);
        for s in 0..n {
            let q = QUERIES[rng.random_range(0..QUERIES.len())];
            let count = construction_intensity(g, rng.random_range(0..3));
            g += 1;
            let qos = if s == 0 {
                QoS::with_limit(FIRST_TENANT_LIMIT)
            } else {
                QoS::default()
            };
            adv.add_tenant(
                inputs.tenant(format!("m{m}s{s}"), &inputs.db2, q, count),
                qos,
            );
        }
        machines.push(adv);
    }
    (machines, vec![space(); w.machines])
}

/// Generates a workload's decisions in order.
pub struct EventGen {
    w: Workload,
    rng: StdRng,
    drifts: u64,
    arrivals: u64,
    churned: u64,
}

impl EventGen {
    pub fn new(w: &Workload, seed: u64) -> Self {
        EventGen {
            w: *w,
            rng: rng(seed, EVENT_STREAM),
            drifts: 0,
            arrivals: 0,
            churned: 0,
        }
    }

    /// The next decision's events. Only `churn` reads the plane, for
    /// its free and occupied slots; the batched streams are a pure
    /// function of the seed.
    pub fn next(&mut self, plane: &ControlPlane, inputs: &Inputs) -> Vec<FleetEvent> {
        match self.w.stream {
            Stream::Storm => self.storm(inputs),
            Stream::Wave => self.wave(inputs),
            Stream::Churn => vec![self.churn(plane, inputs)],
        }
    }

    fn distinct_machines(&mut self, n: usize) -> Vec<usize> {
        let mut picked: Vec<usize> = Vec::with_capacity(n);
        while picked.len() < n {
            let m = self.rng.random_range(0..self.w.machines);
            if !picked.contains(&m) {
                picked.push(m);
            }
        }
        picked
    }

    /// A drift (one in four) or an exact ×2 / ×½ scaling of one slot.
    fn touch(&mut self, machine: usize, slot: usize, inputs: &Inputs) -> FleetEvent {
        if self.rng.random_range(0..4) == 0 {
            let q = QUERIES[self.rng.random_range(0..QUERIES.len())];
            FleetEvent::WorkloadChanged {
                machine,
                slot,
                workload: inputs.workload(q, self.drift_intensity()),
            }
        } else {
            FleetEvent::WorkloadScaled {
                machine,
                slot,
                factor: if self.rng.random_bool(0.5) { 2.0 } else { 0.5 },
            }
        }
    }

    /// Five events per machine on slots `[a, b, c, a, b]`: two of every
    /// five coalesce.
    fn storm(&mut self, inputs: &Inputs) -> Vec<FleetEvent> {
        let mut events = Vec::with_capacity(self.w.batch());
        for m in self.distinct_machines(self.w.batch_machines) {
            let mut slots: Vec<usize> = Vec::with_capacity(3);
            while slots.len() < 3 {
                let s = self.rng.random_range(0..self.w.tenants.0);
                if !slots.contains(&s) {
                    slots.push(s);
                }
            }
            for i in 0..STORM_TOUCHES {
                let slot = slots[i % 3];
                events.push(self.touch(m, slot, inputs));
            }
        }
        events
    }

    /// One event on each of `batch` distinct machines: nothing
    /// coalesces, and the batch is one wide re-solve wave.
    fn wave(&mut self, inputs: &Inputs) -> Vec<FleetEvent> {
        let machines = self.distinct_machines(self.w.batch_machines);
        machines
            .into_iter()
            .map(|m| {
                let slot = self.rng.random_range(0..self.w.tenants.0);
                self.touch(m, slot, inputs)
            })
            .collect()
    }

    /// First machine at or after a random start that satisfies `ok`.
    fn machine_where(&mut self, plane: &ControlPlane, ok: impl Fn(usize) -> bool) -> usize {
        let count = plane.machine_count();
        let start = self.rng.random_range(0..count);
        (0..count)
            .map(|i| (start + i) % count)
            .find(|&m| ok(plane.machine(m).tenant_count()))
            .expect("the churn fleet always has a machine with room and one with tenants")
    }

    /// Events cycle drift, arrival, drift, departure, so the tenant
    /// count stays level: drifts move a slot to a different query (a
    /// major change), every fourth arrival runs the second engine kind.
    fn churn(&mut self, plane: &ControlPlane, inputs: &Inputs) -> FleetEvent {
        let turn = self.churned;
        self.churned += 1;
        match turn % 4 {
            0 | 2 => {
                let machine = self.machine_where(plane, |n| n > 0);
                let adv = plane.machine(machine);
                let slot = self.rng.random_range(0..adv.tenant_count());
                let current = &adv.tenant(slot).workload.name;
                let others: Vec<usize> = QUERIES
                    .into_iter()
                    .filter(|q| *current != format!("Q{q}"))
                    .collect();
                let q = others[self.rng.random_range(0..others.len())];
                FleetEvent::WorkloadChanged {
                    machine,
                    slot,
                    workload: inputs.workload(q, self.drift_intensity()),
                }
            }
            1 => {
                let room = machine_capacity(&space());
                let machine = self.machine_where(plane, |n| n < room);
                let a = self.arrivals;
                self.arrivals += 1;
                let engine = if a % 4 == 3 { &inputs.pg } else { &inputs.db2 };
                let q = QUERIES[self.rng.random_range(0..QUERIES.len())];
                let count = arrival_intensity(a, (a % 3) as u32);
                FleetEvent::TenantArrived {
                    machine,
                    tenant: Box::new(inputs.tenant(format!("a{a}"), engine, q, count)),
                    qos: QoS::default(),
                }
            }
            _ => {
                let machine = self.machine_where(plane, |n| n > 1);
                let slot = self
                    .rng
                    .random_range(0..plane.machine(machine).tenant_count());
                FleetEvent::TenantDeparted { machine, slot }
            }
        }
    }

    /// The next drift's intensity, cycling the power-of-two factor.
    fn drift_intensity(&mut self) -> f64 {
        let e = self.drifts;
        self.drifts += 1;
        drift_intensity(e, (e % 3) as u32)
    }
}
