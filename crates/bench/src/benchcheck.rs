//! The CI bench-regression gate.
//!
//! [`compare_reports`] diffs a freshly measured `BENCH_*.json` against
//! the committed baseline: deterministic fields (optimizer-call
//! counts, chosen allocations/assignments, objectives, contract
//! booleans) must match; wall-clock fields (`*_ms`, `speedup`) and the
//! worker-thread count are environment-dependent and ignored, which is
//! what makes the gate meaningful on a 1-CPU runner. [`check_vendor`]
//! catches the other silent-drift hazard: a `vendor/` stub whose
//! version no longer matches the pin in `Cargo.lock` (the cargo cache
//! key hashes both, so a drift would otherwise poison caches quietly).

use vda_core::jsonio::{parse, Json};

/// Relative tolerance for numeric leaves. Tight enough that a single
/// extra optimizer call or a different chosen allocation fails, loose
/// enough to absorb last-digit printing differences of float costs.
const REL_TOL: f64 = 1e-6;

/// Whether a leaf is environment-dependent and excluded from the diff.
fn ignored(path: &str) -> bool {
    let last = path
        .rsplit('.')
        .next()
        .unwrap_or(path)
        .trim_end_matches(|c: char| c == ']' || c.is_ascii_digit())
        .trim_end_matches('[');
    last.ends_with("_ms") || matches!(last, "speedup" | "threads" | "wall_ms")
}

/// Diff candidate against baseline. Returns the list of regressions
/// (empty = gate passes).
pub fn compare_reports(baseline: &str, candidate: &str) -> Vec<String> {
    let base = match parse(baseline) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline does not parse: {e}")],
    };
    let cand = match parse(candidate) {
        Ok(v) => v,
        Err(e) => return vec![format!("candidate does not parse: {e}")],
    };
    let mut problems = Vec::new();
    let base_leaves = base.leaves();
    let cand_leaves = cand.leaves();
    for (path, b) in &base_leaves {
        if ignored(path) {
            continue;
        }
        match cand_leaves.get(path) {
            None => problems.push(format!("{path}: missing from candidate")),
            Some(c) => {
                let matches = match (b, c) {
                    (Json::Num(x), Json::Num(y)) => {
                        (x - y).abs() <= REL_TOL * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => b == c,
                };
                if !matches {
                    problems.push(format!("{path}: baseline {b} vs candidate {c}"));
                }
            }
        }
    }
    for path in cand_leaves.keys() {
        if !ignored(path) && !base_leaves.contains_key(path) {
            problems.push(format!("{path}: not in baseline (schema drift)"));
        }
    }
    problems
}

/// `(name, version)` pins from a `Cargo.lock`.
fn lock_pins(lock: &str) -> Vec<(String, String)> {
    let mut pins = Vec::new();
    let mut name: Option<String> = None;
    for line in lock.lines() {
        let line = line.trim();
        if line == "[[package]]" {
            name = None;
        } else if let Some(v) = line.strip_prefix("name = ") {
            name = Some(v.trim_matches('"').to_string());
        } else if let Some(v) = line.strip_prefix("version = ") {
            if let Some(n) = name.take() {
                pins.push((n, v.trim_matches('"').to_string()));
            }
        }
    }
    pins
}

/// First `key = "value"` in a manifest's `[package]` section.
fn manifest_field(manifest: &str, key: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(v) = line.strip_prefix(key) {
                let v = v.trim_start();
                if let Some(v) = v.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Verify every vendored stub's `(name, version)` against the pins in
/// `Cargo.lock`. `manifests` holds `(directory name, Cargo.toml
/// contents)` pairs. Returns the list of drifts (empty = in sync).
pub fn check_vendor(lock: &str, manifests: &[(String, String)]) -> Vec<String> {
    let pins = lock_pins(lock);
    let mut problems = Vec::new();
    if manifests.is_empty() {
        problems.push("no vendor manifests found".to_string());
    }
    for (dir, manifest) in manifests {
        let Some(name) = manifest_field(manifest, "name") else {
            problems.push(format!("vendor/{dir}: no package name"));
            continue;
        };
        let Some(version) = manifest_field(manifest, "version") else {
            problems.push(format!("vendor/{dir}: no package version"));
            continue;
        };
        match pins.iter().find(|(n, _)| *n == name) {
            None => problems.push(format!("vendor/{dir}: {name} is not pinned in Cargo.lock")),
            Some((_, pinned)) if *pinned != version => problems.push(format!(
                "vendor/{dir}: {name} {version} drifted from Cargo.lock pin {pinned}"
            )),
            Some(_) => {}
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "threads": 1,
  "algorithms": [
    { "name": "greedy", "serial_ms": 10.0, "speedup": 1.5,
      "optimizer_calls_serial": 100, "allocations_identical": true }
  ],
  "coarse_to_fine": { "c2f_ms": 50.0, "c2f_optimizer_calls": 4040, "meets_5x": true },
  "coarse_to_fine_limited": {
    "degradation_limits": [4, null],
    "c2f_ms": 60.0,
    "c2f_optimizer_calls": 5325,
    "full_weighted_cost": 2853.05,
    "limits_met": [true, true],
    "limits_match": true,
    "meets_3x": true
  },
  "coarse_to_fine_3axis": {
    "space": "cpu_memory_disk",
    "disk_calibration_levels": [0.25, 0.5, 1],
    "c2f_ms": 70.0,
    "full_optimizer_calls": 20485,
    "c2f_optimizer_calls": 3230,
    "full_weighted_cost": 764.788,
    "objective_match": true,
    "meets_2x": true
  },
  "dynamic": {
    "periods": 20,
    "cold_wall_ms": 140.0,
    "warm_wall_ms": 25.0,
    "steady_optimizer_calls_cold": 24729,
    "steady_optimizer_calls_incremental": 1256,
    "incremental_calls_per_period": [157, 98, 0, 5],
    "cold_solves": 23,
    "probe_hits": 12285,
    "final_objectives": [890.642, 222.932],
    "speedup": 19.689,
    "results_match": true,
    "meets_10x": true
  },
  "fleet": {
    "shards": 4,
    "warm_wall_ms": 9000.0,
    "cold_wall_ms": 30000.0,
    "p99_ms": 45.2,
    "mean_latency_ms": 12.1,
    "construction_optimizer_calls": 181000,
    "event_optimizer_calls_incremental": 21000,
    "event_optimizer_calls_cold": 240000,
    "call_ratio": 11.4,
    "event_kinds": { "scaled": 121, "changed_major": 9, "changed_minor": 6 },
    "snapshot_bytes": 3100000,
    "snapshot_fnv": "1cc7ddb8e8106564",
    "snapshot_roundtrip": true,
    "resume_matches": true,
    "meets_5x": true,
    "scaled": {
      "batch_size": 25,
      "probe_cache_rows": 120000,
      "per_event_wall_ms": 2400.0,
      "batched_wall_ms": 2200.0,
      "capped_wall_ms": 2300.0,
      "event_optimizer_calls_batched": 5850,
      "waves_per_event": 501,
      "waves_batched": 21,
      "coalesced_events": 200,
      "log_dropped_batched": 8,
      "probe_evictions": 26075,
      "probe_bytes_capped": 9304480,
      "serial_equivalence": true,
      "batching_cuts_waves": true,
      "cache_bounded": true,
      "capped_within_1_5x": true
    }
  },
  "adaptive": {
    "drift_events": 12,
    "actuals_events": 30,
    "adaptive_wall_ms": 35.5,
    "frozen_wall_ms": 18.4,
    "event_optimizer_calls_adaptive": 9000,
    "event_optimizer_calls_frozen": 5268,
    "shadow_reports": 6,
    "canary_deployments": 20,
    "promotions": 2,
    "rollbacks": 0,
    "frozen_actual_seconds": 14042.156,
    "adaptive_actual_seconds": 13515.704,
    "frozen_mape": 0.201479,
    "adaptive_mape": 0.007372,
    "all_promoted": true,
    "adaptive_improves": true,
    "reduces_error": true,
    "rollback": {
      "rollback_wall_ms": 11.2,
      "diverged_during_canary": true,
      "state_restored": true
    }
  },
  "heterogeneous": {
    "machine_scales_cpu": [0.5, 0.5, 1.0, 1.0],
    "machine_scales_memory": [0.5, 0.5, 1.0, 1.0],
    "wall_ms": 22.0,
    "assignment": [2, 0, 3, 3],
    "objective": 964.05,
    "smallest_assumption_assignment": [0, 1, 2, 3],
    "smallest_assumption_objective": 1089.6,
    "improvement": 0.115,
    "inner_solves": 154,
    "optimizer_calls": 1172,
    "beats_smallest_assumption": true
  }
}"#;

    #[test]
    fn identical_reports_pass() {
        assert!(compare_reports(BASE, BASE).is_empty());
    }

    #[test]
    fn wall_time_and_threads_are_ignored() {
        let cand = BASE
            .replace("\"threads\": 1", "\"threads\": 4")
            .replace("10.0", "93.5")
            .replace("1.5", "0.4")
            .replace("50.0", "4900.0");
        assert!(compare_reports(BASE, &cand).is_empty());
    }

    #[test]
    fn optimizer_call_regressions_fail() {
        let cand = BASE.replace(
            "\"optimizer_calls_serial\": 100",
            "\"optimizer_calls_serial\": 101",
        );
        let problems = compare_reports(BASE, &cand);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("optimizer_calls_serial"));
    }

    #[test]
    fn contract_boolean_regressions_fail() {
        let cand = BASE.replace("\"meets_5x\": true", "\"meets_5x\": false");
        let problems = compare_reports(BASE, &cand);
        assert!(problems.iter().any(|p| p.contains("meets_5x")));
    }

    #[test]
    fn limited_section_deterministic_fields_are_gated() {
        // The finite-limit coarse-to-fine section: optimizer calls,
        // objectives, limit verdicts, configured limits (nulls
        // included), and the meets_3x contract boolean are all
        // deterministic and therefore gated; its wall time is not.
        for (field, original, replacement) in [
            (
                "c2f_optimizer_calls",
                "\"c2f_optimizer_calls\": 5325",
                "\"c2f_optimizer_calls\": 9999",
            ),
            (
                "full_weighted_cost",
                "\"full_weighted_cost\": 2853.05",
                "\"full_weighted_cost\": 2900.0",
            ),
            (
                "limits_met",
                "\"limits_met\": [true, true]",
                "\"limits_met\": [true, false]",
            ),
            (
                "degradation_limits",
                "\"degradation_limits\": [4, null]",
                "\"degradation_limits\": [4, 2]",
            ),
            (
                "limits_match",
                "\"limits_match\": true",
                "\"limits_match\": false",
            ),
            ("meets_3x", "\"meets_3x\": true", "\"meets_3x\": false"),
        ] {
            let cand = BASE.replace(original, replacement);
            assert_ne!(cand, BASE, "{field} must appear in the fixture");
            let problems = compare_reports(BASE, &cand);
            assert!(
                problems.iter().any(|p| p.contains(field)),
                "{field} drift must fail the gate: {problems:?}"
            );
        }
        let cand = BASE.replace("\"c2f_ms\": 60.0", "\"c2f_ms\": 999.0");
        assert!(
            compare_reports(BASE, &cand).is_empty(),
            "limited-section wall time must stay unguarded"
        );
    }

    #[test]
    fn three_axis_section_deterministic_fields_are_gated() {
        // The cpu+memory+disk coarse-to-fine section: optimizer calls,
        // objectives, the calibrated disk levels, and the contract
        // booleans are deterministic and gated; its wall time is not.
        for (field, original, replacement) in [
            (
                "c2f_optimizer_calls",
                "\"c2f_optimizer_calls\": 3230",
                "\"c2f_optimizer_calls\": 9999",
            ),
            (
                "full_weighted_cost",
                "\"full_weighted_cost\": 764.788",
                "\"full_weighted_cost\": 800.0",
            ),
            (
                "disk_calibration_levels",
                "\"disk_calibration_levels\": [0.25, 0.5, 1]",
                "\"disk_calibration_levels\": [0.5, 0.75, 1]",
            ),
            ("meets_2x", "\"meets_2x\": true", "\"meets_2x\": false"),
            (
                "space",
                "\"space\": \"cpu_memory_disk\"",
                "\"space\": \"cpu_and_memory\"",
            ),
        ] {
            let cand = BASE.replace(original, replacement);
            assert_ne!(cand, BASE, "{field} must appear in the fixture");
            let problems = compare_reports(BASE, &cand);
            assert!(
                problems.iter().any(|p| p.contains(field)),
                "3-axis {field} drift must fail the gate: {problems:?}"
            );
        }
        let cand = BASE.replace("\"c2f_ms\": 70.0", "\"c2f_ms\": 5000.0");
        assert!(
            compare_reports(BASE, &cand).is_empty(),
            "3-axis wall time must stay unguarded"
        );
    }

    #[test]
    fn heterogeneous_section_deterministic_fields_are_gated() {
        // The heterogeneous fleet section of BENCH_placement.json:
        // assignments (both the aware one and the smallest-machine
        // baseline's), objectives, the improvement, solve/optimizer
        // accounting, machine scales, and the contract boolean are all
        // deterministic and therefore gated; its wall time is not.
        for (field, original, replacement) in [
            (
                "assignment",
                "\"assignment\": [2, 0, 3, 3]",
                "\"assignment\": [2, 0, 3, 2]",
            ),
            ("objective", "\"objective\": 964.05", "\"objective\": 970.0"),
            (
                "smallest_assumption_assignment",
                "\"smallest_assumption_assignment\": [0, 1, 2, 3]",
                "\"smallest_assumption_assignment\": [0, 1, 2, 0]",
            ),
            (
                "smallest_assumption_objective",
                "\"smallest_assumption_objective\": 1089.6",
                "\"smallest_assumption_objective\": 1100.0",
            ),
            (
                "improvement",
                "\"improvement\": 0.115",
                "\"improvement\": 0.01",
            ),
            (
                "inner_solves",
                "\"inner_solves\": 154",
                "\"inner_solves\": 200",
            ),
            (
                "optimizer_calls",
                "\"optimizer_calls\": 1172",
                "\"optimizer_calls\": 1173",
            ),
            (
                "machine_scales_cpu",
                "\"machine_scales_cpu\": [0.5, 0.5, 1.0, 1.0]",
                "\"machine_scales_cpu\": [0.5, 1.0, 1.0, 1.0]",
            ),
            (
                "machine_scales_memory",
                "\"machine_scales_memory\": [0.5, 0.5, 1.0, 1.0]",
                "\"machine_scales_memory\": [0.5, 0.5, 0.5, 1.0]",
            ),
            (
                "beats_smallest_assumption",
                "\"beats_smallest_assumption\": true",
                "\"beats_smallest_assumption\": false",
            ),
        ] {
            let cand = BASE.replace(original, replacement);
            assert_ne!(cand, BASE, "{field} must appear in the fixture");
            let problems = compare_reports(BASE, &cand);
            assert!(
                problems.iter().any(|p| p.contains(field)),
                "heterogeneous {field} drift must fail the gate: {problems:?}"
            );
        }
        let cand = BASE.replace("\"wall_ms\": 22.0", "\"wall_ms\": 9999.0");
        assert!(
            compare_reports(BASE, &cand).is_empty(),
            "heterogeneous wall time must stay unguarded"
        );
    }

    #[test]
    fn dynamic_section_deterministic_fields_are_gated() {
        // The incremental re-optimization section of
        // BENCH_dynamic.json: optimizer-call totals and per-period
        // series, cold-solve and probe counters, objectives, and
        // the two contract booleans are deterministic and gated; both
        // wall times (and the environment-dependent speedup ratio)
        // are not.
        for (field, original, replacement) in [
            (
                "steady_optimizer_calls_cold",
                "\"steady_optimizer_calls_cold\": 24729",
                "\"steady_optimizer_calls_cold\": 24000",
            ),
            (
                "steady_optimizer_calls_incremental",
                "\"steady_optimizer_calls_incremental\": 1256",
                "\"steady_optimizer_calls_incremental\": 2000",
            ),
            (
                "incremental_calls_per_period",
                "\"incremental_calls_per_period\": [157, 98, 0, 5]",
                "\"incremental_calls_per_period\": [157, 98, 7, 5]",
            ),
            ("cold_solves", "\"cold_solves\": 23", "\"cold_solves\": 3"),
            ("probe_hits", "\"probe_hits\": 12285", "\"probe_hits\": 12"),
            (
                "final_objectives",
                "\"final_objectives\": [890.642, 222.932]",
                "\"final_objectives\": [890.642, 230.0]",
            ),
            (
                "results_match",
                "\"results_match\": true",
                "\"results_match\": false",
            ),
            ("meets_10x", "\"meets_10x\": true", "\"meets_10x\": false"),
        ] {
            let cand = BASE.replace(original, replacement);
            assert_ne!(cand, BASE, "{field} must appear in the fixture");
            let problems = compare_reports(BASE, &cand);
            assert!(
                problems.iter().any(|p| p.contains(field)),
                "dynamic {field} drift must fail the gate: {problems:?}"
            );
        }
        let cand = BASE
            .replace("\"cold_wall_ms\": 140.0", "\"cold_wall_ms\": 9000.0")
            .replace("\"warm_wall_ms\": 25.0", "\"warm_wall_ms\": 2.0")
            .replace("\"speedup\": 19.689", "\"speedup\": 4.0");
        assert!(
            compare_reports(BASE, &cand).is_empty(),
            "dynamic wall times and the speedup ratio must stay unguarded"
        );
    }

    #[test]
    fn adaptive_section_deterministic_fields_are_gated() {
        // The adaptive-calibration section of BENCH_adaptive.json:
        // event tallies, optimizer-call totals, guardrail lifecycle
        // counts, actual-seconds totals, prediction errors, the
        // contract booleans, and the nested rollback-leg booleans are
        // deterministic and gated; all three wall times are not.
        for (field, original, replacement) in [
            (
                "drift_events",
                "\"drift_events\": 12",
                "\"drift_events\": 11",
            ),
            (
                "actuals_events",
                "\"actuals_events\": 30",
                "\"actuals_events\": 31",
            ),
            (
                "event_optimizer_calls_adaptive",
                "\"event_optimizer_calls_adaptive\": 9000",
                "\"event_optimizer_calls_adaptive\": 9001",
            ),
            (
                "event_optimizer_calls_frozen",
                "\"event_optimizer_calls_frozen\": 5268",
                "\"event_optimizer_calls_frozen\": 5300",
            ),
            (
                "shadow_reports",
                "\"shadow_reports\": 6",
                "\"shadow_reports\": 7",
            ),
            (
                "canary_deployments",
                "\"canary_deployments\": 20",
                "\"canary_deployments\": 2",
            ),
            ("promotions", "\"promotions\": 2", "\"promotions\": 1"),
            ("rollbacks", "\"rollbacks\": 0", "\"rollbacks\": 3"),
            (
                "frozen_actual_seconds",
                "\"frozen_actual_seconds\": 14042.156",
                "\"frozen_actual_seconds\": 14000.0",
            ),
            (
                "adaptive_actual_seconds",
                "\"adaptive_actual_seconds\": 13515.704",
                "\"adaptive_actual_seconds\": 13600.0",
            ),
            (
                "frozen_mape",
                "\"frozen_mape\": 0.201479",
                "\"frozen_mape\": 0.25",
            ),
            (
                "adaptive_mape",
                "\"adaptive_mape\": 0.007372",
                "\"adaptive_mape\": 0.4",
            ),
            (
                "all_promoted",
                "\"all_promoted\": true",
                "\"all_promoted\": false",
            ),
            (
                "adaptive_improves",
                "\"adaptive_improves\": true",
                "\"adaptive_improves\": false",
            ),
            (
                "reduces_error",
                "\"reduces_error\": true",
                "\"reduces_error\": false",
            ),
            (
                "diverged_during_canary",
                "\"diverged_during_canary\": true",
                "\"diverged_during_canary\": false",
            ),
            (
                "state_restored",
                "\"state_restored\": true",
                "\"state_restored\": false",
            ),
        ] {
            let cand = BASE.replace(original, replacement);
            assert_ne!(cand, BASE, "{field} must appear in the fixture");
            let problems = compare_reports(BASE, &cand);
            assert!(
                problems.iter().any(|p| p.contains(field)),
                "adaptive {field} drift must fail the gate: {problems:?}"
            );
        }
        let cand = BASE
            .replace("\"adaptive_wall_ms\": 35.5", "\"adaptive_wall_ms\": 900.0")
            .replace("\"frozen_wall_ms\": 18.4", "\"frozen_wall_ms\": 2.0")
            .replace("\"rollback_wall_ms\": 11.2", "\"rollback_wall_ms\": 777.0");
        assert!(
            compare_reports(BASE, &cand).is_empty(),
            "adaptive wall times must stay unguarded"
        );
    }

    #[test]
    fn fleet_section_deterministic_fields_are_gated() {
        // The control-plane fleet section of BENCH_fleet.json:
        // optimizer-call totals, the call ratio (deterministic, unlike
        // a wall-clock speedup), shard/event tallies, snapshot size
        // and content digest, and the three contract booleans are
        // gated; the wall times and latency percentiles are not.
        for (field, original, replacement) in [
            ("shards", "\"shards\": 4", "\"shards\": 3"),
            (
                "construction_optimizer_calls",
                "\"construction_optimizer_calls\": 181000",
                "\"construction_optimizer_calls\": 200000",
            ),
            (
                "event_optimizer_calls_incremental",
                "\"event_optimizer_calls_incremental\": 21000",
                "\"event_optimizer_calls_incremental\": 90000",
            ),
            (
                "event_optimizer_calls_cold",
                "\"event_optimizer_calls_cold\": 240000",
                "\"event_optimizer_calls_cold\": 100000",
            ),
            ("call_ratio", "\"call_ratio\": 11.4", "\"call_ratio\": 2.0"),
            (
                "changed_major",
                "\"changed_major\": 9",
                "\"changed_major\": 2",
            ),
            (
                "snapshot_bytes",
                "\"snapshot_bytes\": 3100000",
                "\"snapshot_bytes\": 17",
            ),
            (
                "snapshot_fnv",
                "\"snapshot_fnv\": \"1cc7ddb8e8106564\"",
                "\"snapshot_fnv\": \"1cc7ddb8e8106565\"",
            ),
            (
                "snapshot_roundtrip",
                "\"snapshot_roundtrip\": true",
                "\"snapshot_roundtrip\": false",
            ),
            (
                "resume_matches",
                "\"resume_matches\": true",
                "\"resume_matches\": false",
            ),
        ] {
            let cand = BASE.replace(original, replacement);
            assert_ne!(cand, BASE, "{field} must appear in the fixture");
            let problems = compare_reports(BASE, &cand);
            assert!(
                problems.iter().any(|p| p.contains(field)),
                "fleet {field} drift must fail the gate: {problems:?}"
            );
        }
        let cand = BASE
            .replace("\"warm_wall_ms\": 9000.0", "\"warm_wall_ms\": 1.0")
            .replace("\"cold_wall_ms\": 30000.0", "\"cold_wall_ms\": 2.0")
            .replace("\"p99_ms\": 45.2", "\"p99_ms\": 9000.0")
            .replace("\"mean_latency_ms\": 12.1", "\"mean_latency_ms\": 500.0");
        assert!(
            compare_reports(BASE, &cand).is_empty(),
            "fleet wall times and latency percentiles must stay unguarded"
        );
    }

    #[test]
    fn fleet_scaled_section_deterministic_fields_are_gated() {
        // The nested batched-ingestion section of BENCH_fleet.json:
        // dimensions and knobs, optimizer-call totals, wave counts,
        // coalescing/eviction/ring counters, resident-byte accounting
        // (a deterministic size model, not a heap measurement), and
        // the five contract booleans are gated; the three per-leg wall
        // times are not.
        for (field, original, replacement) in [
            ("batch_size", "\"batch_size\": 25", "\"batch_size\": 50"),
            (
                "probe_cache_rows",
                "\"probe_cache_rows\": 120000",
                "\"probe_cache_rows\": 60000",
            ),
            (
                "event_optimizer_calls_batched",
                "\"event_optimizer_calls_batched\": 5850",
                "\"event_optimizer_calls_batched\": 7000",
            ),
            (
                "waves_per_event",
                "\"waves_per_event\": 501",
                "\"waves_per_event\": 500",
            ),
            (
                "waves_batched",
                "\"waves_batched\": 21",
                "\"waves_batched\": 501",
            ),
            (
                "coalesced_events",
                "\"coalesced_events\": 200",
                "\"coalesced_events\": 0",
            ),
            (
                "log_dropped_batched",
                "\"log_dropped_batched\": 8",
                "\"log_dropped_batched\": 0",
            ),
            (
                "probe_evictions",
                "\"probe_evictions\": 26075",
                "\"probe_evictions\": 0",
            ),
            (
                "probe_bytes_capped",
                "\"probe_bytes_capped\": 9304480",
                "\"probe_bytes_capped\": 11144960",
            ),
            (
                "serial_equivalence",
                "\"serial_equivalence\": true",
                "\"serial_equivalence\": false",
            ),
            (
                "batching_cuts_waves",
                "\"batching_cuts_waves\": true",
                "\"batching_cuts_waves\": false",
            ),
            (
                "cache_bounded",
                "\"cache_bounded\": true",
                "\"cache_bounded\": false",
            ),
            (
                "capped_within_1_5x",
                "\"capped_within_1_5x\": true",
                "\"capped_within_1_5x\": false",
            ),
        ] {
            let cand = BASE.replace(original, replacement);
            assert_ne!(cand, BASE, "{field} must appear in the fixture");
            let problems = compare_reports(BASE, &cand);
            assert!(
                problems.iter().any(|p| p.contains(field)),
                "scaled {field} drift must fail the gate: {problems:?}"
            );
        }
        let cand = BASE
            .replace(
                "\"per_event_wall_ms\": 2400.0",
                "\"per_event_wall_ms\": 1.0",
            )
            .replace("\"batched_wall_ms\": 2200.0", "\"batched_wall_ms\": 2.0")
            .replace("\"capped_wall_ms\": 2300.0", "\"capped_wall_ms\": 3.0");
        assert!(
            compare_reports(BASE, &cand).is_empty(),
            "scaled per-leg wall times must stay unguarded"
        );
    }

    #[test]
    fn schema_drift_fails_both_ways() {
        let cand = BASE.replace("\"meets_5x\": true", "\"meets_5x\": true, \"extra\": 1");
        assert!(compare_reports(BASE, &cand)
            .iter()
            .any(|p| p.contains("schema drift")));
        assert!(compare_reports(&cand, BASE)
            .iter()
            .any(|p| p.contains("missing from candidate")));
    }

    const LOCK: &str = r#"
[[package]]
name = "proptest"
version = "1.0.0"

[[package]]
name = "rayon"
version = "1.0.0"
"#;

    fn manifest(name: &str, version: &str) -> String {
        format!("[package]\nname = \"{name}\"\nversion = \"{version}\"\nedition = \"2021\"\n")
    }

    #[test]
    fn vendor_in_sync_passes() {
        let manifests = vec![
            ("proptest".to_string(), manifest("proptest", "1.0.0")),
            ("rayon".to_string(), manifest("rayon", "1.0.0")),
        ];
        assert!(check_vendor(LOCK, &manifests).is_empty());
    }

    #[test]
    fn vendor_version_drift_fails() {
        let manifests = vec![("proptest".to_string(), manifest("proptest", "1.1.0"))];
        let problems = check_vendor(LOCK, &manifests);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("drifted"));
    }

    #[test]
    fn unpinned_vendor_crate_fails() {
        let manifests = vec![("serde".to_string(), manifest("serde", "1.0.0"))];
        let problems = check_vendor(LOCK, &manifests);
        assert!(problems[0].contains("not pinned"));
    }

    #[test]
    fn ignores_are_not_too_greedy() {
        // A genuinely deterministic field whose name merely *contains*
        // "ms" must still be compared.
        let base = r#"{ "rooms": 3, "kms": 2 }"#;
        let cand = r#"{ "rooms": 4, "kms": 2 }"#;
        let problems = compare_reports(base, cand);
        assert!(problems.iter().any(|p| p.contains("rooms")), "{problems:?}");
    }
}
