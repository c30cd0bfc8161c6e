//! Self-test: miniatures of every workload through the benchmark binary.
//!
//! Checks what the benchmark's contract rests on: every metric named in
//! `BENCHMARK.json` prints with its unit, the deterministic metrics
//! repeat exactly from run to run, and the `wave` stream reaches the
//! same deterministic metrics at one and at two threads.

use std::process::Command;
use vda_core::jsonio::{self, Json};

const WORKLOADS: [&str; 4] = ["storm", "capped", "churn", "wave"];

/// Metrics that depend only on the seed, never on timing or threads.
const DETERMINISTIC: [&str; 4] = [
    "optimizer_calls_per_event",
    "final_objective",
    "checkpoint_mb",
    "success_ratio",
];

const DETERMINISTIC_LAYERS: [&str; 14] = [
    "controlplane.resolves_per_event",
    "controlplane.waves_per_event",
    "controlplane.wave_width",
    "controlplane.candidates_per_event",
    "controlplane.migrations_per_kevent",
    "enumerate.cold_solves",
    "enumerate.delta_solves",
    "enumerate.lattice_reuses",
    "whatif.hits_per_event",
    "whatif.misses_per_event",
    "whatif.resident_rows",
    "whatif.evicted_rows_per_event",
    "calibration.registry_models",
    "snapshot.probe_rows",
];

struct Printed {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, String)>,
}

impl Printed {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or_else(|| panic!("{name} not printed"))
    }
}

fn run(workload: &str, trace: bool, threads: Option<usize>) -> Printed {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ctlbench"));
    cmd.args([
        "--mini",
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .current_dir(env!("CARGO_TARGET_TMPDIR"));
    if let Some(n) = threads {
        cmd.args(["--threads", &n.to_string()]);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    let result = jsonio::parse(last).expect("the last line is JSON");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object in {last}");
    };
    Printed {
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted"),
        failed: result.get("failed").and_then(Json::as_f64).expect("failed"),
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("a numeric value");
                let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = jsonio::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = declared(section);
        for workload in WORKLOADS {
            let printed = run(workload, trace, None);
            assert!(printed.correct, "{workload}: outputs failed their checks");
            assert_eq!(printed.failed, 0.0, "{workload}");
            assert!(printed.attempted >= 1.0, "{workload}");
            let got: Vec<(String, String)> = printed
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, expected, "{workload} {section}");
            for (name, value, _) in &printed.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            if !trace {
                assert_eq!(printed.value("success_ratio"), 1.0, "{workload}");
            }
        }
    }
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    for workload in WORKLOADS {
        for (trace, names) in [
            (false, &DETERMINISTIC[..]),
            (true, &DETERMINISTIC_LAYERS[..]),
        ] {
            let (a, b) = (run(workload, trace, None), run(workload, trace, None));
            for name in names {
                assert_eq!(
                    a.value(name).to_bits(),
                    b.value(name).to_bits(),
                    "{workload}: {name} moved between two runs"
                );
            }
        }
    }
}

#[test]
fn wave_metrics_do_not_depend_on_the_thread_count() {
    for (trace, names) in [
        (false, &DETERMINISTIC[..]),
        (true, &DETERMINISTIC_LAYERS[..]),
    ] {
        let one = run("wave", trace, Some(1));
        let two = run("wave", trace, Some(2));
        for name in names {
            assert_eq!(
                one.value(name).to_bits(),
                two.value(name).to_bits(),
                "wave: {name} differs between one and two threads"
            );
        }
    }
}

#[test]
fn each_workload_exercises_its_mechanism() {
    let layer = |w: &str, name: &str| run(w, true, None).value(name);
    assert!(
        layer("capped", "whatif.evicted_rows_per_event") > 0.0,
        "the cap must bind"
    );
    assert_eq!(layer("storm", "whatif.evicted_rows_per_event"), 0.0);
    assert_eq!(layer("storm", "controlplane.migrations_per_kevent"), 0.0);
    assert!(
        layer("churn", "controlplane.migrations_per_kevent") > 0.0,
        "churn must migrate"
    );
    // One wave per event, plus one per executed move.
    assert!(layer("churn", "controlplane.waves_per_event") >= 1.0);
}
