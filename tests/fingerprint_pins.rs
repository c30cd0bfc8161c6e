//! Pinned identity values. A calibrated model's and a tenant's
//! fingerprints key the fleet probe cache and are written into every
//! snapshot, so computing them once instead of on every use must not
//! change a single value. The constants below are the fingerprints the
//! on-every-use hashing produced; every way a model or a tenant can
//! change must land on them, and the stored value must always equal a
//! from-scratch hash of the fields it identifies.

use vda::core::advisor::VirtualizationDesignAdvisor;
use vda::core::costmodel::adaptive::{Adaption, AxisCorrection};
use vda::core::costmodel::calibration::{CalibratedModel, Calibrator};
use vda::core::problem::QoS;
use vda::core::tenant::Tenant;
use vda::core::FleetSnapshot;
use vda::simdb::engines::{Engine, EngineKind};
use vda::simdb::hash::{fnv1a, Fnv64};
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

/// `(engine kind, plain, with_adaption(adaption()))` fingerprints of
/// the paper testbed's calibrations.
const MODEL_PINS: [(EngineKind, u64, u64); 3] = [
    (
        EngineKind::PgSim,
        0x7b43_6e8a_bd04_fbd5,
        0xfeb1_e4b6_298d_6d34,
    ),
    (
        EngineKind::Db2Sim,
        0xf9f7_3dcc_1571_b91b,
        0x0735_57c6_a164_cd02,
    ),
    (
        EngineKind::TupleSim,
        0x5f0c_6c3f_f03e_b5f8,
        0x58ec_e0d6_4ce1_7215,
    ),
];

fn engine(kind: EngineKind) -> Engine {
    match kind {
        EngineKind::PgSim => Engine::pg(),
        EngineKind::Db2Sim => Engine::db2(),
        EngineKind::TupleSim => Engine::tuple(),
    }
}

fn adaption() -> Adaption {
    Adaption {
        correction: AxisCorrection {
            scale: 1.25,
            cpu: -0.0625,
            mem: 0.015625,
        },
        version: 3,
    }
}

/// The model's identity hashed from scratch: FNV-1a of its `Debug`
/// rendering.
fn model_hash(m: &CalibratedModel) -> u64 {
    fnv1a(&format!("{m:?}"))
}

/// The tenant's identity hashed from scratch from its public fields.
fn tenant_hash(t: &Tenant) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&format!("{:?}", t.engine));
    h.write_u64(t.catalog.signature());
    for s in &t.workload.statements {
        h.write_str(&s.sql);
        h.write_u64(s.count.to_bits());
        h.write_u64(s.concurrency.to_bits());
    }
    h.finish()
}

fn assert_model(m: &CalibratedModel, pinned: u64, what: &str) {
    assert_eq!(m.fingerprint(), pinned, "{what}: pinned value");
    assert_eq!(
        m.fingerprint(),
        model_hash(m),
        "{what}: stored ≠ recomputed"
    );
}

fn assert_tenant(t: &Tenant, pinned: u64, what: &str) {
    assert_eq!(t.fingerprint(), pinned, "{what}: pinned value");
    assert_eq!(
        t.fingerprint(),
        tenant_hash(t),
        "{what}: stored ≠ recomputed"
    );
}

#[test]
fn model_fingerprints_are_pinned_across_every_change() {
    let hw = PhysicalMachine::paper_testbed();
    let hv = Hypervisor::new(hw);
    let calibrator = Calibrator::new(&hv);
    let mut registry = Vec::new();
    for (kind, plain_pin, adapted_pin) in MODEL_PINS {
        let plain = calibrator.calibrate(&engine(kind));
        assert_model(&plain, plain_pin, "calibrated");
        let adapted = plain.clone().with_adaption(adaption());
        assert_model(&adapted, adapted_pin, "with_adaption");
        // A second overlay replaces the first: a different identity,
        // and swapping the original back restores the pinned one.
        let readapted = adapted.clone().with_adaption(Adaption::identity());
        assert_ne!(readapted.fingerprint(), adapted_pin);
        assert_eq!(readapted.fingerprint(), model_hash(&readapted));
        assert_model(
            &readapted.with_adaption(adaption()),
            adapted_pin,
            "with_adaption twice",
        );
        let base = adapted.clone().without_adaption();
        assert_model(&base, plain_pin, "without_adaption");
        assert_eq!(base, plain);
        assert_model(
            &plain.clone().without_adaption(),
            plain_pin,
            "without_adaption of a plain model",
        );
        registry.push((hw.fingerprint(), kind, plain));
        registry.push((hw.fingerprint(), kind, adapted));
    }

    let snapshot = FleetSnapshot {
        seq: 0,
        optimizer_calls: 0,
        resolves: 0,
        waves: 0,
        migrations: 0,
        machines: vec![],
        registry,
        probes: vec![],
        log: vec![],
        log_dropped: 0,
        adaption: vec![],
        tuners: vec![],
    };
    let json = snapshot.to_json();
    let restored = FleetSnapshot::from_json(&json).expect("snapshot parses back");
    assert_eq!(restored, snapshot);
    assert_eq!(restored.to_json(), json);
    for (i, (kind, plain_pin, adapted_pin)) in MODEL_PINS.into_iter().enumerate() {
        let (_, k, plain) = &restored.registry[2 * i];
        let (_, _, adapted) = &restored.registry[2 * i + 1];
        assert_eq!(*k, kind);
        assert_model(plain, plain_pin, "plain after a snapshot round trip");
        assert_model(adapted, adapted_pin, "adapted after a snapshot round trip");
    }
}

#[test]
fn tenant_fingerprints_are_pinned_across_every_change() {
    let pg = Tenant::new(
        "t",
        Engine::pg(),
        tpch::catalog(1.0),
        tpch::query_workload(6, 2.0),
    )
    .expect("tpch binds");
    assert_tenant(&pg, 0x0c1b_ccea_62fd_e15e, "new (pg)");
    let db2 = Tenant::new(
        "u",
        Engine::db2(),
        tpch::catalog(1.0),
        tpch::query_workload(1, 3.0),
    )
    .expect("tpch binds");
    assert_tenant(&db2, 0x86ab_e838_e6d1_e2e5, "new (db2)");

    let mut src =
        VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
    src.add_tenant(pg, QoS::default());
    src.add_tenant(db2, QoS::default());
    src.set_tenant_workload(0, tpch::query_workload(1, 4.0))
        .expect("tpch binds");
    assert_tenant(src.tenant(0), 0x8379_2929_d35e_755a, "set_tenant_workload");
    src.scale_tenant_workload(0, 2.5);
    assert_tenant(
        src.tenant(0),
        0x58c1_e4ff_a915_4a26,
        "scale_tenant_workload",
    );
    assert_tenant(&src.tenant(0).clone(), 0x58c1_e4ff_a915_4a26, "clone");

    let mut dst =
        VirtualizationDesignAdvisor::new(Hypervisor::new(PhysicalMachine::paper_testbed()));
    let moved = src.transfer_tenant(0, &mut dst);
    assert_tenant(
        dst.tenant(moved.index),
        0x58c1_e4ff_a915_4a26,
        "transfer_tenant",
    );
    assert_tenant(src.tenant(0), 0x86ab_e838_e6d1_e2e5, "left behind");

    // A change and its revert land back on the original value; a
    // rejected workload leaves the tenant as it was.
    dst.scale_tenant_workload(moved.index, 0.4);
    assert_tenant(
        dst.tenant(moved.index),
        0x8379_2929_d35e_755a,
        "scaled back",
    );
    let mut bad = tpch::query_workload(6, 1.0);
    bad.statements[0].sql = "SELECT * FROM no_such_table".into();
    assert!(dst.set_tenant_workload(moved.index, bad).is_err());
    assert_tenant(
        dst.tenant(moved.index),
        0x8379_2929_d35e_755a,
        "rejected workload",
    );
    dst.set_tenant_workload(moved.index, tpch::query_workload(6, 2.0))
        .expect("tpch binds");
    assert_tenant(
        dst.tenant(moved.index),
        0x0c1b_ccea_62fd_e15e,
        "reverted workload",
    );
}
