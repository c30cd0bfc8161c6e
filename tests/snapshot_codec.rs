//! The snapshot codec (schema v5): random snapshots round-trip bit for
//! bit and re-encode to the same bytes, malformed probe columns and
//! older versions are refused by name, and `jsonio` strings round-trip
//! across its bulk copy paths.

use proptest::prelude::*;
use vda::core::costmodel::Estimate;
use vda::core::enumerate::SearchResult;
use vda::core::jsonio::{self, Json};
use vda::core::problem::{AllocKey, Allocation};
use vda::core::{FleetSnapshot, MachineSnapshot};
use vda::simdb::hash::Fnv64;

type ProbeRow = (u64, u64, AllocKey, Estimate);

/// A seeded xorshift64 stream for the parts of a case proptest does
/// not draw directly.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A fingerprint above 2⁵³, which a JSON number cannot hold.
    fn fingerprint(&mut self) -> u64 {
        self.next() | 1 << 60
    }

    /// An `f64` whose text or sign a lossy codec would drop: −0.0, a
    /// subnormal, ±∞, a NaN with a payload, or arbitrary bits.
    fn awkward_f64(&mut self) -> f64 {
        match self.below(7) {
            0 => -0.0,
            1 => f64::from_bits(1 + self.next() % 0x000f_ffff_ffff_ffff),
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::from_bits(0x7ff8_0000_0000_0000 | self.next() & 0xffff),
            5 => f64::from_bits(self.next()),
            _ => self.below(1000) as f64 / 7.0,
        }
    }

    fn key_axis(&mut self) -> u32 {
        [0, 10_000, u32::MAX, self.next() as u32][self.below(4)]
    }
}

fn result(rng: &mut XorShift, tenants: usize) -> SearchResult {
    let allocations: Vec<Allocation> = (0..tenants)
        .map(|_| Allocation::new(rng.below(25) as f64 / 25.0, 0.5))
        .collect();
    SearchResult {
        costs: (0..tenants).map(|_| rng.below(1000) as f64 / 3.0).collect(),
        allocations,
        weighted_cost: rng.below(1000) as f64 / 7.0,
        iterations: rng.below(10),
        trace: Vec::new(),
        limits_met: (0..tenants).map(|_| rng.below(2) == 0).collect(),
    }
}

fn machine(rng: &mut XorShift) -> MachineSnapshot {
    let tenants: Vec<u64> = (0..rng.below(4)).map(|_| rng.fingerprint()).collect();
    let placement = (!tenants.is_empty()).then(|| result(rng, tenants.len()));
    // A placed machine's memo may be warm or cold; an empty one's is
    // cold.
    let warm_key = placement
        .as_ref()
        .and_then(|_| (rng.below(4) != 0).then(|| rng.fingerprint()));
    MachineSnapshot {
        hardware: rng.fingerprint(),
        tenants,
        calibrations: Vec::new(),
        placement,
        warm_key,
        // Counters are written as JSON numbers: at most 2⁵³.
        cold_solves: rng.next() >> 11,
    }
}

/// `rows` probe rows over `generations` generations. With two or more
/// generations and three or more rows, the first run is a one-row
/// generation and the last run returns to it, so that generation is
/// split into two non-adjacent runs.
fn probes(rng: &mut XorShift, rows: usize, generations: usize) -> Vec<ProbeRow> {
    if rows == 0 || generations == 0 {
        return Vec::new();
    }
    let ids: Vec<(u64, u64)> = (0..generations)
        .map(|_| (rng.fingerprint(), rng.fingerprint()))
        .collect();
    let mut runs = ids.clone();
    if generations >= 2 {
        runs.push(ids[0]);
    }
    let last = runs.len() - 1;
    let mut lengths = vec![0; runs.len()];
    if last == 0 {
        lengths[0] = rows;
    } else {
        // One row each to the first run, the last run and the run
        // between them; the rest anywhere after the first run.
        let seeded = [0, last, 1];
        for r in 0..rows {
            let run = seeded
                .get(r)
                .copied()
                .unwrap_or_else(|| 1 + rng.below(last));
            lengths[run] += 1;
        }
    }
    let mut out = Vec::new();
    for ((model, tenant), len) in runs.into_iter().zip(lengths) {
        for _ in 0..len {
            let key = [
                rng.key_axis(),
                rng.key_axis(),
                rng.key_axis(),
                rng.key_axis(),
            ];
            let estimate = Estimate {
                seconds: rng.awkward_f64(),
                plan_regime: rng.fingerprint(),
                avg_cost_per_statement: rng.awkward_f64(),
            };
            out.push((model, tenant, key, estimate));
        }
    }
    out
}

fn snapshot(machines: Vec<MachineSnapshot>, probes: Vec<ProbeRow>) -> FleetSnapshot {
    FleetSnapshot {
        seq: 42,
        optimizer_calls: 1 << 40,
        resolves: 7,
        waves: 5,
        migrations: 1,
        machines,
        registry: Vec::new(),
        probes,
        log: Vec::new(),
        log_dropped: 0,
        adaption: Vec::new(),
        tuners: Vec::new(),
    }
}

/// Every probe field as bits: `PartialEq` on `f64` equates −0.0 with
/// 0.0 and no NaN with itself.
fn probe_bits(probes: &[ProbeRow]) -> Vec<(u64, u64, AllocKey, u64, u64, u64)> {
    probes
        .iter()
        .map(|(m, t, k, e)| {
            (
                *m,
                *t,
                *k,
                e.seconds.to_bits(),
                e.plan_regime,
                e.avg_cost_per_statement.to_bits(),
            )
        })
        .collect()
}

/// Give an edited document a fresh digest (docs/FORMATS.md: the words
/// hash of every byte before `,"digest":`), so it reaches the decoder.
fn reseal(doc: &str) -> String {
    let body = &doc[..doc.rfind(",\"digest\":").expect("a sealed snapshot")];
    let digest = Fnv64::new().write_words(body.as_bytes()).finish();
    format!("{body},\"digest\":\"{digest:016x}\"}}")
}

/// Apply `edit` to the text of generation `index`'s `column`.
fn edit_column(doc: &str, index: usize, column: &str, edit: impl Fn(&mut String)) -> String {
    let key = format!("\"{column}\":\"");
    let start = doc
        .match_indices(&key)
        .nth(index)
        .expect("column present")
        .0
        + key.len();
    let end = start + doc[start..].find('"').expect("closed column");
    let mut digits = doc[start..end].to_string();
    edit(&mut digits);
    reseal(&format!("{}{digits}{}", &doc[..start], &doc[end..]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_snapshots_round_trip_bit_for_bit(
        machines in 0usize..4,
        rows in 0usize..61,
        generations in 0usize..9,
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = XorShift(seed);
        let machines = (0..machines).map(|_| machine(&mut rng)).collect();
        let probes = probes(&mut rng, rows, generations);
        let snap = snapshot(machines, probes);
        let json = snap.to_json();
        // One generation object per run of adjacent rows.
        let runs = snap.probes.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)).count();
        prop_assert_eq!(json.matches("\"keys\":\"").count(), runs);
        let back = FleetSnapshot::from_json(&json).expect("a fresh snapshot parses");
        prop_assert_eq!(probe_bits(&back.probes), probe_bits(&snap.probes));
        prop_assert_eq!(format!("{:?}", back.machines), format!("{:?}", snap.machines));
        prop_assert_eq!(back.seq, snap.seq);
        prop_assert_eq!(back.optimizer_calls, snap.optimizer_calls);
        prop_assert_eq!(back.to_json(), json);
    }
}

#[test]
fn malformed_probe_columns_are_named_with_their_generation() {
    // Three generations of two rows each.
    let rows = (0..6u64)
        .map(|r| {
            let estimate = Estimate {
                seconds: r as f64,
                plan_regime: r,
                avg_cost_per_statement: 0.5,
            };
            (r / 2, 99, [r as u32; 4], estimate)
        })
        .collect();
    let json = snapshot(Vec::new(), rows).to_json();
    assert_eq!(reseal(&json), json);
    assert!(FleetSnapshot::from_json(&json).is_ok());

    let cases: [(&str, String); 4] = [
        // Not a whole number of rows.
        (
            "seconds",
            edit_column(&json, 1, "seconds", |c| {
                c.pop();
            }),
        ),
        (
            "keys",
            edit_column(&json, 1, "keys", |c| c.push_str("0000")),
        ),
        // A non-hex digit (hex is lowercase).
        (
            "regimes",
            edit_column(&json, 1, "regimes", |c| {
                c.replace_range(3..4, "g");
            }),
        ),
        // A whole row fewer than the other columns.
        (
            "per_statement",
            edit_column(&json, 1, "per_statement", |c| {
                c.truncate(c.len() - 16);
            }),
        ),
    ];
    for (column, doc) in cases {
        let err = FleetSnapshot::from_json(&doc).unwrap_err();
        assert!(
            err.contains("probe generation 1") && err.contains(&format!("{column:?}")),
            "{column}: {err}"
        );
    }
    let err = FleetSnapshot::from_json(&edit_column(&json, 2, "keys", |c| {
        c.replace_range(0..1, "A");
    }))
    .unwrap_err();
    assert!(
        err.contains("probe generation 2") && err.contains("\"keys\""),
        "{err}"
    );
}

#[test]
fn a_version_3_document_is_refused_by_version() {
    let json = snapshot(Vec::new(), Vec::new()).to_json();
    let body = &json[..json.rfind(",\"digest\":").expect("a sealed snapshot")];
    // v3 had no digest and no probe columns.
    let v3 = format!("{}}}", body.replacen("\"version\":5,", "\"version\":3,", 1));
    assert_eq!(
        FleetSnapshot::from_json(&v3).unwrap_err(),
        "unsupported snapshot version 3"
    );
    // An unsealed current document is refused for its missing digest.
    let err = FleetSnapshot::from_json(&format!("{body}}}")).unwrap_err();
    assert!(err.contains("digest"), "{err}");
}

#[test]
fn a_version_4_document_is_refused_by_version() {
    // v4 was sealed like v5; its machines carried a `warm` object and
    // a `warm_counters` triple instead of `warm_key` and `cold_solves`.
    let json = snapshot(Vec::new(), Vec::new()).to_json();
    let v4 = reseal(&json.replacen("\"version\":5,", "\"version\":4,", 1));
    assert_ne!(v4, json);
    assert_eq!(
        FleetSnapshot::from_json(&v4).unwrap_err(),
        "unsupported snapshot version 4"
    );
}

/// The escaping `jsonio::write` has always done, one character at a
/// time: the bulk path must produce exactly these bytes.
fn escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn jsonio_strings_round_trip_across_the_bulk_paths() {
    let megabyte: String = "0123456789abcdef".repeat(1 << 16);
    let mut cases = vec![megabyte.clone()];
    for last in ['"', '\\', '\n', '\t'] {
        cases.push(format!("{megabyte}{last}"));
    }
    for s in [
        "",
        "é",
        "é\"",
        "\"é",
        "日本\\語",
        "🦀",
        "a🦀\t🦀b",
        "δ=0.05\n",
        "\\é",
        "π\"≈\"3.14",
    ] {
        cases.push(s.to_string());
    }
    for s in cases {
        let doc = Json::Arr(vec![
            Json::Str(s.clone()),
            Json::Obj(vec![(s.clone(), Json::Null)]),
        ]);
        let text = jsonio::write(&doc);
        let quoted = escaped(&s);
        assert_eq!(text, format!("[{quoted},{{{quoted}:null}}]"));
        assert_eq!(jsonio::parse(&text).unwrap(), doc);
    }
}
