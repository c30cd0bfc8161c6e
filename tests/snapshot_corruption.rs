//! Corruption probe for durable snapshots: every truncation and every
//! single-byte substitution of a real checkpoint must be refused by
//! `FleetSnapshot::from_json` or `ControlPlane::restore`. None may be
//! accepted silently, and none may panic.

use vda::core::problem::{QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::core::{ControlPlane, ControlPlaneOptions, FleetSnapshot};
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

/// Corruptions of each kind.
const TRIALS: usize = 200;

/// Two machines of two tenants each, one with a degradation limit.
fn fleet() -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let mut machines = Vec::new();
    for m in 0..2usize {
        let mut spec = PhysicalMachine::paper_testbed();
        if m == 1 {
            spec.core_ghz *= 1.5;
        }
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        for (s, q) in [6usize, 16].into_iter().enumerate() {
            let name = format!("m{m}-t{s}-q{q}");
            adv.add_tenant(
                Tenant::new(
                    name.clone(),
                    Engine::db2(),
                    tpch::catalog(1.0),
                    tpch::query_workload(q, 1.0 + (m * 2 + s) as f64 * 0.5).named(name),
                )
                .expect("bench workloads bind"),
                if s == 0 {
                    QoS::with_limit(6.0)
                } else {
                    QoS::default()
                },
            );
        }
        machines.push(adv);
    }
    let space = SearchSpace::cpu_only(512.0 / 8192.0);
    (machines, vec![space; 2])
}

/// A seeded xorshift64 stream: the probe is the same on every run.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Whether a rebuilt fleet refuses `doc`, at parse or at restore.
fn refused(doc: &str) -> bool {
    match FleetSnapshot::from_json(doc) {
        Err(_) => true,
        Ok(snapshot) => {
            let (machines, spaces) = fleet();
            ControlPlane::restore(machines, spaces, ControlPlaneOptions::default(), &snapshot)
                .is_err()
        }
    }
}

#[test]
fn no_truncation_or_byte_substitution_restores() {
    let (machines, spaces) = fleet();
    let plane = ControlPlane::new(machines, spaces, ControlPlaneOptions::default());
    let json = plane.snapshot().to_json();
    assert!(json.is_ascii(), "substitutions below keep the text ASCII");
    assert!(!refused(&json), "the intact checkpoint restores");

    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    let mut accepted = Vec::new();
    for _ in 0..TRIALS {
        let len = rng.below(json.len());
        if !refused(&json[..len]) {
            accepted.push(format!("truncated to {len} bytes"));
        }
    }
    for _ in 0..TRIALS {
        let at = rng.below(json.len());
        let old = json.as_bytes()[at];
        // A different printable ASCII byte, 0x20..=0x7e.
        let new = loop {
            let b = 0x20 + rng.below(95) as u8;
            if b != old {
                break b;
            }
        };
        let mut bytes = json.clone().into_bytes();
        bytes[at] = new;
        let doc = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        if !refused(&doc) {
            accepted.push(format!("byte {at} {:?} -> {:?}", old as char, new as char));
        }
    }
    assert!(
        accepted.is_empty(),
        "{} of {} corruptions restored silently: {accepted:?}",
        accepted.len(),
        2 * TRIALS
    );
}
