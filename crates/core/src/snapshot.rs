//! Durable control-plane snapshots.
//!
//! [`FleetSnapshot`] is the serialized form of everything a
//! [`ControlPlane`](crate::controlplane::ControlPlane) has *earned*:
//! calibrated models (expensive benchmark runs), the class registry,
//! current placements with the key of the inputs each was solved
//! under, the fleet
//! probe cache, and the decision log. A restarted process feeds it to
//! [`ControlPlane::restore`](crate::controlplane::ControlPlane::restore)
//! and resumes without recalibrating or re-probing, with bit-identical
//! results.
//!
//! The wire format is the repo's hand-rolled JSON ([`crate::jsonio`]),
//! with four schema-level conventions on top of it:
//!
//! - every `f64` round-trips **exactly** (shortest-round-trip
//!   formatting, see the [`crate::jsonio`] module docs), which is what
//!   makes restored calibrations keep their fingerprints and restored
//!   solves stay bit-identical;
//! - `u64` fingerprints and keys are encoded as 16-char hex *strings*
//!   ([`crate::jsonio::Json::hex_u64`]) — values above 2⁵³ do not
//!   survive a JSON number, so a counter (written as a number) above
//!   2⁵³ is refused on read;
//! - the probe cache, almost all of a snapshot, is written one
//!   `(model, tenant)` generation at a time, its rows as fixed-width
//!   lowercase hex *columns*: 8 digits per allocation-key axis, 16
//!   per plan regime, and each `f64` as the 16 hex digits of its bit
//!   pattern (exact for every value, `-0.0`, subnormals and
//!   non-finite values included);
//! - the document ends with a `digest` member sealing every byte
//!   before it, which [`FleetSnapshot::from_json`] checks before it
//!   decodes anything — a re-formatted or hand-edited file is
//!   rejected by design.
//!
//! See `docs/FORMATS.md` for the field-by-field schema.

use crate::controlplane::{Decision, Migration};
use crate::costmodel::adaptive::{Adaption, AxisCorrection};
use crate::costmodel::calibration::{CalibratedModel, CalibrationCost, CpuFits, IoConstants};
use crate::costmodel::whatif::Estimate;
use crate::costmodel::Renormalizer;
use crate::enumerate::{SearchResult, TraceStep};
use crate::guardrail::{ErrorAccumulator, GuardrailExport, GuardrailState};
use crate::jsonio::{self, Json};
use crate::problem::{AllocKey, Allocation, Resource, ResourceVector};
use vda_simdb::engines::EngineKind;
use vda_simdb::hash::Fnv64;
use vda_stats::LinearFit;

/// Format marker written into every snapshot.
const FORMAT: &str = "vda-fleet-snapshot";
/// Schema version this module reads and writes; no other version is
/// read. Version 2 added the re-solve wave counter (`waves`), the
/// ring-buffer decision log's drop counter (`log_dropped`), and turned
/// each decision's `migration` (object or null) into a `migrations`
/// array — batches can take several. Version 3 added the
/// adaptive-calibration state: a nullable `adaption` overlay on every
/// serialized model, the per-(hardware class, engine) residual stores
/// (`adaption`), and the guardrail trackers (`tuners`). Version 4
/// writes each probe generation once, its rows as hex columns, and
/// seals the document with a trailing `digest`. Version 5 stores, per
/// machine, the key of the inputs its placement was solved under
/// (`warm_key`) and its solve counter (`cold_solves`).
const VERSION: f64 = 5.0;
/// 2⁵³: every whole number up to it is an exact `f64`, and counters
/// are written as JSON numbers, so none above it was written exactly.
const MAX_EXACT_COUNT: f64 = 9_007_199_254_740_992.0;

/// Hex digits per allocation-key axis in a probe generation's `keys`
/// column: a whole `u32`, so every [`AllocKey`] fits.
const KEY_DIGITS: usize = 8;
/// Hex digits per `u64` (a plan regime, or an `f64`'s bit pattern) in
/// the other probe columns.
const WORD_DIGITS: usize = 16;
/// The lowercase hex digits, by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";
/// The value of each byte as a lowercase hex digit; `0xff` marks a
/// byte that is not one.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut digit = 0;
    while digit < 16 {
        table[HEX_DIGITS[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};
/// What every snapshot ends with, before the digest's digits and the
/// closing `"}`.
const DIGEST_KEY: &str = ",\"digest\":\"";
/// Length of the whole seal: key, digits, closing quote and brace.
const SEAL_LEN: usize = DIGEST_KEY.len() + WORD_DIGITS + 2;

/// One machine's durable state inside a [`FleetSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot {
    /// Hardware fingerprint
    /// ([`vda_vmm::PhysicalMachine::fingerprint`]) — restore-time
    /// validation: a snapshot never resumes onto different hardware.
    pub hardware: u64,
    /// Per-slot tenant fingerprints, in slot order — restore-time
    /// validation of the reconstructed tenant set.
    pub tenants: Vec<u64>,
    /// Every calibrated model the machine holds, by engine kind.
    pub calibrations: Vec<(EngineKind, CalibratedModel)>,
    /// The machine's current placement (`None` while empty).
    pub placement: Option<SearchResult>,
    /// The key of the inputs [`Self::placement`] was solved under
    /// (search space, QoS, coarse δ, calibrations, tenant
    /// fingerprints), written for every occupied machine and `None`
    /// for an empty one. Restore recomputes it from the rebuilt fleet
    /// and refuses a mismatch.
    pub warm_key: Option<u64>,
    /// The machine's solves
    /// ([`crate::VirtualizationDesignAdvisor::warm_stats`]).
    pub cold_solves: u64,
}

/// One (hardware class, engine kind) runtime adaption store inside a
/// [`FleetSnapshot`]: the banked residual rows plus the scalar state
/// that makes restored refits identical to never-restarted ones (see
/// [`crate::costmodel::adaptive::RuntimeAdaptionStorage`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptionSnapshot {
    /// Hardware-class fingerprint the store belongs to.
    pub hardware: u64,
    /// Engine kind the store belongs to.
    pub kind: EngineKind,
    /// The store's logical epoch at snapshot time.
    pub epoch: u64,
    /// The store's mutation counter at snapshot time.
    pub version: u64,
    /// Residual rows, sorted by `(tenant, allocation key)`:
    /// `(tenant, key, epoch, predicted, actual)`.
    pub rows: Vec<(u64, AllocKey, u64, f64, f64)>,
}

/// One (hardware class, engine kind) guardrail tracker inside a
/// [`FleetSnapshot`] (see [`crate::guardrail::GuardrailTracker`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TunerSnapshot {
    /// Hardware-class fingerprint the tracker belongs to.
    pub hardware: u64,
    /// Engine kind the tracker belongs to.
    pub kind: EngineKind,
    /// The tracker's full exported state.
    pub tracker: GuardrailExport,
}

/// The durable state of a whole
/// [`ControlPlane`](crate::controlplane::ControlPlane).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Events processed when the snapshot was taken.
    pub seq: u64,
    /// Cumulative optimizer-call counter.
    pub optimizer_calls: u64,
    /// Cumulative per-machine re-solve counter.
    pub resolves: u64,
    /// Cumulative re-solve wave counter (parallel dispatches).
    pub waves: u64,
    /// Cumulative migration counter.
    pub migrations: u64,
    /// Per-machine durable state, in machine-index order.
    pub machines: Vec<MachineSnapshot>,
    /// The class calibration registry: `(hardware fingerprint, engine
    /// kind, model)` rows, sorted for deterministic output.
    pub registry: Vec<(u64, EngineKind, CalibratedModel)>,
    /// The fleet probe cache: `(model fingerprint, tenant fingerprint,
    /// allocation key, estimate)` rows, sorted (see
    /// [`crate::costmodel::whatif::ProbeCache::export`]). On disk each
    /// run of adjacent rows with one `(model, tenant)` is one
    /// generation, so any order round-trips.
    pub probes: Vec<(u64, u64, AllocKey, Estimate)>,
    /// The decision log's retained entries, oldest → newest (the ring
    /// buffer's *logical* order — the head position is not durable
    /// state, see [`crate::controlplane::DecisionLog`]).
    pub log: Vec<Decision>,
    /// Decisions the ring-buffer log overwrote before the snapshot was
    /// taken (`0` for an unbounded log).
    pub log_dropped: u64,
    /// Runtime adaption stores, sorted by `(hardware, kind)` (empty
    /// when the adaptive subsystem is off).
    pub adaption: Vec<AdaptionSnapshot>,
    /// Guardrail trackers, sorted by `(hardware, kind)` (empty when no
    /// candidate is in flight).
    pub tuners: Vec<TunerSnapshot>,
}

impl FleetSnapshot {
    /// Serialize to the snapshot JSON format (compact, deterministic:
    /// the same snapshot always produces the same bytes), sealed with
    /// a trailing `digest`.
    pub fn to_json(&self) -> String {
        let machines = Json::Arr(self.machines.iter().map(machine_to_json).collect());
        let registry = Json::Arr(
            self.registry
                .iter()
                .map(|(hw, kind, model)| {
                    obj(vec![
                        ("hardware", Json::hex_u64(*hw)),
                        ("kind", kind_to_json(*kind)),
                        ("model", model_to_json(model)),
                    ])
                })
                .collect(),
        );
        let probes = Json::Arr(
            self.probes
                .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
                .map(generation_to_json)
                .collect(),
        );
        let log = Json::Arr(self.log.iter().map(decision_to_json).collect());
        let adaption = Json::Arr(self.adaption.iter().map(adaption_store_to_json).collect());
        let tuners = Json::Arr(self.tuners.iter().map(tuner_to_json).collect());
        let root = obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Num(VERSION)),
            ("seq", Json::Num(self.seq as f64)),
            ("optimizer_calls", Json::Num(self.optimizer_calls as f64)),
            ("resolves", Json::Num(self.resolves as f64)),
            ("waves", Json::Num(self.waves as f64)),
            ("migrations", Json::Num(self.migrations as f64)),
            ("machines", machines),
            ("registry", registry),
            ("probes", probes),
            ("log", log),
            ("log_dropped", Json::Num(self.log_dropped as f64)),
            ("adaption", adaption),
            ("tuners", tuners),
        ]);
        seal(jsonio::write(&root))
    }

    /// Parse a snapshot previously produced by [`Self::to_json`].
    ///
    /// The digest is checked before anything is decoded, so a file
    /// changed in any byte — corrupted, truncated, re-formatted or
    /// hand-edited — is rejected. A document with no digest at all is
    /// parsed only to say why it is not a current snapshot: foreign
    /// JSON names its format, an older snapshot its version.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem: a missing
    /// or mismatched digest, bad JSON, wrong format marker, unknown
    /// version, missing or mistyped field, or a malformed probe column
    /// (named with its generation index).
    pub fn from_json(input: &str) -> Result<FleetSnapshot, String> {
        match unseal(input) {
            Some((body, stored)) => {
                let actual = digest(body);
                if stored != actual {
                    return Err(format!(
                        "snapshot digest mismatch: stored {stored:016x}, contents hash to {actual:016x}"
                    ));
                }
            }
            None => {
                check_header(&jsonio::parse(input)?)?;
                return Err("snapshot does not end with its \"digest\" field".to_string());
            }
        }
        let root = jsonio::parse(input)?;
        check_header(&root)?;
        let machines = arr_field(&root, "machines")?
            .iter()
            .map(machine_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let registry = arr_field(&root, "registry")?
            .iter()
            .map(|j| {
                Ok((
                    hex_field(j, "hardware")?,
                    kind_from_json(field(j, "kind")?)?,
                    model_from_json(field(j, "model")?)?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut probes = Vec::new();
        for (index, generation) in arr_field(&root, "probes")?.iter().enumerate() {
            generation_from_json(generation, &mut probes)
                .map_err(|e| format!("probe generation {index}: {e}"))?;
        }
        let log = arr_field(&root, "log")?
            .iter()
            .map(decision_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let adaption = arr_field(&root, "adaption")?
            .iter()
            .map(adaption_store_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let tuners = arr_field(&root, "tuners")?
            .iter()
            .map(tuner_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FleetSnapshot {
            seq: u64_field(&root, "seq")?,
            optimizer_calls: u64_field(&root, "optimizer_calls")?,
            resolves: u64_field(&root, "resolves")?,
            waves: u64_field(&root, "waves")?,
            migrations: u64_field(&root, "migrations")?,
            machines,
            registry,
            probes,
            log,
            log_dropped: u64_field(&root, "log_dropped")?,
            adaption,
            tuners,
        })
    }
}

// ----------------------------------------------------------------------
// Building blocks: writers
// ----------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn machine_to_json(m: &MachineSnapshot) -> Json {
    let calibrations = Json::Arr(
        m.calibrations
            .iter()
            .map(|(kind, model)| {
                obj(vec![
                    ("kind", kind_to_json(*kind)),
                    ("model", model_to_json(model)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("hardware", Json::hex_u64(m.hardware)),
        (
            "tenants",
            Json::Arr(m.tenants.iter().map(|&f| Json::hex_u64(f)).collect()),
        ),
        ("calibrations", calibrations),
        (
            "placement",
            m.placement.as_ref().map_or(Json::Null, result_to_json),
        ),
        ("warm_key", m.warm_key.map_or(Json::Null, Json::hex_u64)),
        ("cold_solves", Json::Num(m.cold_solves as f64)),
    ])
}

fn kind_to_json(kind: EngineKind) -> Json {
    Json::Str(kind.name().to_string())
}

fn alloc_to_json(a: &Allocation) -> Json {
    Json::Arr(Resource::ALL.iter().map(|&r| Json::Num(a.get(r))).collect())
}

fn result_to_json(r: &SearchResult) -> Json {
    obj(vec![
        (
            "allocations",
            Json::Arr(r.allocations.iter().map(alloc_to_json).collect()),
        ),
        ("weighted_cost", Json::Num(r.weighted_cost)),
        (
            "costs",
            Json::Arr(r.costs.iter().map(|&c| Json::Num(c)).collect()),
        ),
        ("iterations", Json::Num(r.iterations as f64)),
        (
            "trace",
            Json::Arr(
                r.trace
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("resource", Json::Num(s.resource.index() as f64)),
                            ("winner", Json::Num(s.winner as f64)),
                            ("loser", Json::Num(s.loser as f64)),
                            ("improvement", Json::Num(s.improvement)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "limits_met",
            Json::Arr(r.limits_met.iter().map(|&b| Json::Bool(b)).collect()),
        ),
    ])
}

/// One probe generation — a run of rows sharing `(model, tenant)` —
/// with its rows as hex columns, each built in one buffer.
fn generation_to_json(run: &[(u64, u64, AllocKey, Estimate)]) -> Json {
    let mut keys = Vec::with_capacity(run.len() * Resource::COUNT * KEY_DIGITS);
    let mut seconds = Vec::with_capacity(run.len() * WORD_DIGITS);
    let mut regimes = Vec::with_capacity(run.len() * WORD_DIGITS);
    let mut per_statement = Vec::with_capacity(run.len() * WORD_DIGITS);
    for (_, _, key, est) in run {
        for &axis in key {
            push_hex::<KEY_DIGITS>(&mut keys, u64::from(axis));
        }
        push_hex::<WORD_DIGITS>(&mut seconds, est.seconds.to_bits());
        push_hex::<WORD_DIGITS>(&mut regimes, est.plan_regime);
        push_hex::<WORD_DIGITS>(&mut per_statement, est.avg_cost_per_statement.to_bits());
    }
    let column =
        |digits: Vec<u8>| Json::Str(String::from_utf8(digits).expect("hex digits are ASCII"));
    obj(vec![
        ("model", Json::hex_u64(run[0].0)),
        ("tenant", Json::hex_u64(run[0].1)),
        ("keys", column(keys)),
        ("seconds", column(seconds)),
        ("regimes", column(regimes)),
        ("per_statement", column(per_statement)),
    ])
}

/// Append the low `DIGITS` hex digits of `value`, most significant
/// first.
fn push_hex<const DIGITS: usize>(out: &mut Vec<u8>, value: u64) {
    let mut digits = [0u8; DIGITS];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = HEX_DIGITS[(value >> (4 * (DIGITS - 1 - i))) as usize & 0xf];
    }
    out.extend_from_slice(&digits);
}

/// The snapshot digest of `body`: [`Fnv64::write_words`] over it.
fn digest(body: &[u8]) -> u64 {
    Fnv64::new().write_words(body).finish()
}

/// Close a serialized root object with the `digest` of every byte
/// before its final `}`.
fn seal(mut doc: String) -> String {
    let close = doc.pop();
    assert_eq!(close, Some('}'), "a snapshot is one JSON object");
    let digest = digest(doc.as_bytes());
    doc.push_str(&format!("{DIGEST_KEY}{digest:016x}\"}}"));
    doc
}

fn fit_to_json(f: &LinearFit) -> Json {
    obj(vec![
        ("intercept", Json::Num(f.intercept)),
        ("slope", Json::Num(f.slope)),
        ("r_squared", Json::Num(f.r_squared)),
    ])
}

fn model_to_json(m: &CalibratedModel) -> Json {
    let cpu_fits = match m.cpu_fits() {
        CpuFits::Pg {
            tuple,
            operator,
            index_tuple,
        } => obj(vec![
            ("variant", Json::Str("pg".to_string())),
            ("tuple", fit_to_json(tuple)),
            ("operator", fit_to_json(operator)),
            ("index_tuple", fit_to_json(index_tuple)),
        ]),
        CpuFits::Db2 { cpuspeed } => obj(vec![
            ("variant", Json::Str("db2".to_string())),
            ("cpuspeed", fit_to_json(cpuspeed)),
        ]),
        CpuFits::Tuple { scan, op, index } => obj(vec![
            ("variant", Json::Str("tuple".to_string())),
            ("scan", fit_to_json(scan)),
            ("op", fit_to_json(op)),
            ("index", fit_to_json(index)),
        ]),
    };
    let io = match m.io() {
        IoConstants::Pg { random_page_cost } => obj(vec![
            ("variant", Json::Str("pg".to_string())),
            ("random_page_cost", Json::Num(random_page_cost)),
        ]),
        IoConstants::Db2 {
            overhead_ms,
            transfer_rate_ms,
        } => obj(vec![
            ("variant", Json::Str("db2".to_string())),
            ("overhead_ms", Json::Num(overhead_ms)),
            ("transfer_rate_ms", Json::Num(transfer_rate_ms)),
        ]),
        IoConstants::Tuple { page, seek } => obj(vec![
            ("variant", Json::Str("tuple".to_string())),
            ("page", Json::Num(page)),
            ("seek", Json::Num(seek)),
        ]),
    };
    let renorm = match m.renorm() {
        Renormalizer::SecondsPerUnit { secs_per_unit } => obj(vec![
            ("variant", Json::Str("seconds_per_unit".to_string())),
            ("secs_per_unit", Json::Num(secs_per_unit)),
        ]),
        Renormalizer::Regression { slope, intercept } => obj(vec![
            ("variant", Json::Str("regression".to_string())),
            ("slope", Json::Num(slope)),
            ("intercept", Json::Num(intercept)),
        ]),
    };
    let cost = m.cost();
    obj(vec![
        ("kind", kind_to_json(m.kind())),
        ("machine_mem_mb", Json::Num(m.machine_mem_mb())),
        ("cpu_fits", cpu_fits),
        ("io", io),
        (
            "disk_fit",
            m.disk_fit().as_ref().map_or(Json::Null, fit_to_json),
        ),
        ("renorm", renorm),
        (
            "cost",
            obj(vec![
                ("simulated_seconds", Json::Num(cost.simulated_seconds)),
                (
                    "vm_configurations",
                    Json::Num(cost.vm_configurations as f64),
                ),
                ("queries_run", Json::Num(cost.queries_run as f64)),
            ]),
        ),
        (
            "adaption",
            m.adaption().as_ref().map_or(Json::Null, adaption_to_json),
        ),
    ])
}

fn adaption_to_json(a: &Adaption) -> Json {
    obj(vec![
        ("scale", Json::Num(a.correction.scale)),
        // detlint:allow(axis-compat, reason = "AxisCorrection's own coefficient field, not an Allocation axis")
        ("cpu", Json::Num(a.correction.cpu)),
        ("mem", Json::Num(a.correction.mem)),
        ("version", Json::hex_u64(a.version)),
    ])
}

fn key_to_json(key: &AllocKey) -> Json {
    Json::Arr(key.iter().map(|&k| Json::Num(k as f64)).collect())
}

fn adaption_store_to_json(s: &AdaptionSnapshot) -> Json {
    let rows = Json::Arr(
        s.rows
            .iter()
            .map(|(tenant, key, epoch, predicted, actual)| {
                obj(vec![
                    ("tenant", Json::hex_u64(*tenant)),
                    ("key", key_to_json(key)),
                    ("epoch", Json::Num(*epoch as f64)),
                    ("predicted", Json::Num(*predicted)),
                    ("actual", Json::Num(*actual)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("hardware", Json::hex_u64(s.hardware)),
        ("kind", kind_to_json(s.kind)),
        ("epoch", Json::Num(s.epoch as f64)),
        ("version", Json::Num(s.version as f64)),
        ("rows", rows),
    ])
}

fn accumulator_to_json(a: &ErrorAccumulator) -> Json {
    obj(vec![
        ("candidate_abs", Json::Num(a.candidate_abs)),
        ("incumbent_abs", Json::Num(a.incumbent_abs)),
        ("samples", Json::Num(a.samples as f64)),
    ])
}

fn tuner_to_json(t: &TunerSnapshot) -> Json {
    let e = &t.tracker;
    obj(vec![
        ("hardware", Json::hex_u64(t.hardware)),
        ("kind", kind_to_json(t.kind)),
        ("state", Json::Str(e.state.name().to_string())),
        ("candidate", adaption_to_json(&e.candidate)),
        ("base_fingerprint", Json::hex_u64(e.base_fingerprint)),
        ("shadow", accumulator_to_json(&e.shadow)),
        ("canary", accumulator_to_json(&e.canary)),
        (
            "seen_tenants",
            Json::Arr(e.seen_tenants.iter().map(|&f| Json::hex_u64(f)).collect()),
        ),
        (
            "canary_tenants",
            Json::Arr(e.canary_tenants.iter().map(|&f| Json::hex_u64(f)).collect()),
        ),
        (
            "baseline_objective",
            e.baseline_objective.map_or(Json::Null, Json::Num),
        ),
    ])
}

fn decision_to_json(d: &Decision) -> Json {
    let migrations = Json::Arr(
        d.migrations
            .iter()
            .map(|m| {
                obj(vec![
                    ("tenant", Json::Str(m.tenant.clone())),
                    ("from", Json::Num(m.from as f64)),
                    ("to", Json::Num(m.to as f64)),
                    ("estimated_gain", Json::Num(m.estimated_gain)),
                    ("recalibrated", Json::Bool(m.recalibrated)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("seq", Json::Num(d.seq as f64)),
        ("action", Json::Str(d.action.clone())),
        (
            "resolved",
            Json::Arr(d.resolved.iter().map(|&m| Json::Num(m as f64)).collect()),
        ),
        ("migrations", migrations),
        ("objective", Json::Num(d.objective)),
    ])
}

// ----------------------------------------------------------------------
// Building blocks: readers
// ----------------------------------------------------------------------

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn f64_field(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

/// `x` as a count: a whole number from 0 to 2⁵³. A larger one cannot
/// have been written exactly, and casting it would saturate.
fn exact_count(x: f64) -> Option<u64> {
    (x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT_COUNT).then_some(x as u64)
}

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    exact_count(f64_field(j, key)?)
        .ok_or_else(|| format!("field {key:?} must be a whole number from 0 to 2^53"))
}

fn usize_field(j: &Json, key: &str) -> Result<usize, String> {
    Ok(u64_field(j, key)? as usize)
}

fn hex_field(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_hex_u64()
        .ok_or_else(|| format!("field {key:?} must be a hex-u64 string"))
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn bool_field(j: &Json, key: &str) -> Result<bool, String> {
    field(j, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a boolean"))
}

fn arr_field<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(j, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

fn hex_arr(j: &Json, key: &str) -> Result<Vec<u64>, String> {
    arr_field(j, key)?
        .iter()
        .map(|v| {
            v.as_hex_u64()
                .ok_or_else(|| format!("field {key:?} entries must be hex-u64 strings"))
        })
        .collect()
}

fn kind_from_json(j: &Json) -> Result<EngineKind, String> {
    match j.as_str() {
        Some("pgsim") => Ok(EngineKind::PgSim),
        Some("db2sim") => Ok(EngineKind::Db2Sim),
        Some("tuplesim") => Ok(EngineKind::TupleSim),
        other => Err(format!("unknown engine kind {other:?}")),
    }
}

fn alloc_from_json(j: &Json) -> Result<Allocation, String> {
    let items = j.as_arr().ok_or("allocation must be an array")?;
    if items.len() != Resource::COUNT {
        return Err(format!("allocation must have {} axes", Resource::COUNT));
    }
    let mut shares = [0.0; Resource::COUNT];
    for (slot, item) in shares.iter_mut().zip(items) {
        *slot = item.as_f64().ok_or("allocation entries must be numbers")?;
    }
    Ok(ResourceVector::from_fn(|r| shares[r.index()]))
}

fn result_from_json(j: &Json) -> Result<SearchResult, String> {
    let allocations = arr_field(j, "allocations")?
        .iter()
        .map(alloc_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let costs = arr_field(j, "costs")?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or("costs entries must be numbers".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let trace = arr_field(j, "trace")?
        .iter()
        .map(|s| {
            let idx = usize_field(s, "resource")?;
            let resource = *Resource::ALL
                .get(idx)
                .ok_or_else(|| format!("unknown resource index {idx}"))?;
            Ok(TraceStep {
                resource,
                winner: usize_field(s, "winner")?,
                loser: usize_field(s, "loser")?,
                improvement: f64_field(s, "improvement")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let limits_met = arr_field(j, "limits_met")?
        .iter()
        .map(|v| {
            v.as_bool()
                .ok_or("limits_met entries must be booleans".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SearchResult {
        allocations,
        weighted_cost: f64_field(j, "weighted_cost")?,
        costs,
        iterations: usize_field(j, "iterations")?,
        trace,
        limits_met,
    })
}

/// Split a sealed document into the bytes its digest covers and the
/// stored digest; `None` when it does not end with a well-formed seal.
fn unseal(input: &str) -> Option<(&[u8], u64)> {
    let split = input.len().checked_sub(SEAL_LEN)?;
    let (body, seal) = input.as_bytes().split_at(split);
    let digits = seal
        .strip_prefix(DIGEST_KEY.as_bytes())?
        .strip_suffix(b"\"}")?;
    Some((body, hex_value(digits)?))
}

/// The format marker and version a document must carry.
fn check_header(root: &Json) -> Result<(), String> {
    let format = str_field(root, "format")?;
    if format != FORMAT {
        return Err(format!("not a fleet snapshot (format {format:?})"));
    }
    let version = f64_field(root, "version")?;
    if version != VERSION {
        return Err(format!("unsupported snapshot version {version}"));
    }
    Ok(())
}

/// Lowercase hex digits as a `u64`; `None` on any other byte. Callers
/// bound the length (at most 16 digits).
fn hex_value(digits: &[u8]) -> Option<u64> {
    let mut value = 0u64;
    let mut invalid = 0u8;
    for &d in digits {
        let v = HEX_VALUES[d as usize];
        invalid |= v;
        value = value << 4 | u64::from(v & 0xf);
    }
    (invalid & 0xf0 == 0).then_some(value)
}

/// One probe column: `width`-digit hex values, `per_row` to a row.
fn hex_column(j: &Json, name: &str, per_row: usize, width: usize) -> Result<Vec<u64>, String> {
    let digits = str_field(j, name)?.as_bytes();
    let row_digits = per_row * width;
    if digits.len() % row_digits != 0 {
        return Err(format!(
            "column {name:?} holds {} digits, not a whole number of {row_digits}-digit rows",
            digits.len()
        ));
    }
    digits
        .chunks_exact(width)
        .enumerate()
        .map(|(i, value)| {
            hex_value(value)
                .ok_or_else(|| format!("column {name:?} has a non-hex digit in value {i}"))
        })
        .collect()
}

/// Decode one probe generation, appending its rows to `probes`.
fn generation_from_json(
    j: &Json,
    probes: &mut Vec<(u64, u64, AllocKey, Estimate)>,
) -> Result<(), String> {
    let model = hex_field(j, "model")?;
    let tenant = hex_field(j, "tenant")?;
    let keys = hex_column(j, "keys", Resource::COUNT, KEY_DIGITS)?;
    let seconds = hex_column(j, "seconds", 1, WORD_DIGITS)?;
    let regimes = hex_column(j, "regimes", 1, WORD_DIGITS)?;
    let per_statement = hex_column(j, "per_statement", 1, WORD_DIGITS)?;
    let rows = keys.len() / Resource::COUNT;
    if rows == 0 {
        return Err("a generation must hold at least one row".to_string());
    }
    for (name, column) in [
        ("seconds", &seconds),
        ("regimes", &regimes),
        ("per_statement", &per_statement),
    ] {
        if column.len() != rows {
            return Err(format!(
                "column {name:?} holds {} rows, column \"keys\" {rows}",
                column.len()
            ));
        }
    }
    probes.extend((0..rows).map(|r| {
        let key: AllocKey = std::array::from_fn(|axis| keys[r * Resource::COUNT + axis] as u32);
        let estimate = Estimate {
            seconds: f64::from_bits(seconds[r]),
            plan_regime: regimes[r],
            avg_cost_per_statement: f64::from_bits(per_statement[r]),
        };
        (model, tenant, key, estimate)
    }));
    Ok(())
}

fn fit_from_json(j: &Json) -> Result<LinearFit, String> {
    Ok(LinearFit {
        intercept: f64_field(j, "intercept")?,
        slope: f64_field(j, "slope")?,
        r_squared: f64_field(j, "r_squared")?,
    })
}

fn adaption_from_json(j: &Json) -> Result<Adaption, String> {
    Ok(Adaption {
        correction: AxisCorrection {
            scale: f64_field(j, "scale")?,
            cpu: f64_field(j, "cpu")?,
            mem: f64_field(j, "mem")?,
        },
        version: hex_field(j, "version")?,
    })
}

fn key_from_json(j: &Json) -> Result<AllocKey, String> {
    let key_arr = j.as_arr().ok_or("allocation key must be an array")?;
    if key_arr.len() != Resource::COUNT {
        return Err(format!("allocation key must have {} axes", Resource::COUNT));
    }
    let mut key: AllocKey = [0; Resource::COUNT];
    for (slot, item) in key.iter_mut().zip(key_arr) {
        *slot = item
            .as_f64()
            .ok_or("allocation key entries must be numbers")? as u32;
    }
    Ok(key)
}

fn adaption_store_from_json(j: &Json) -> Result<AdaptionSnapshot, String> {
    let rows = arr_field(j, "rows")?
        .iter()
        .map(|r| {
            Ok((
                hex_field(r, "tenant")?,
                key_from_json(field(r, "key")?)?,
                u64_field(r, "epoch")?,
                f64_field(r, "predicted")?,
                f64_field(r, "actual")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(AdaptionSnapshot {
        hardware: hex_field(j, "hardware")?,
        kind: kind_from_json(field(j, "kind")?)?,
        epoch: u64_field(j, "epoch")?,
        version: u64_field(j, "version")?,
        rows,
    })
}

fn accumulator_from_json(j: &Json) -> Result<ErrorAccumulator, String> {
    Ok(ErrorAccumulator {
        candidate_abs: f64_field(j, "candidate_abs")?,
        incumbent_abs: f64_field(j, "incumbent_abs")?,
        samples: u64_field(j, "samples")?,
    })
}

fn tuner_from_json(j: &Json) -> Result<TunerSnapshot, String> {
    let state_name = str_field(j, "state")?;
    let state = GuardrailState::from_name(state_name)
        .ok_or_else(|| format!("unknown guardrail state {state_name:?}"))?;
    let baseline_objective = match field(j, "baseline_objective")? {
        Json::Null => None,
        v => Some(v.as_f64().ok_or("baseline_objective must be a number")?),
    };
    Ok(TunerSnapshot {
        hardware: hex_field(j, "hardware")?,
        kind: kind_from_json(field(j, "kind")?)?,
        tracker: GuardrailExport {
            state,
            candidate: adaption_from_json(field(j, "candidate")?)?,
            base_fingerprint: hex_field(j, "base_fingerprint")?,
            shadow: accumulator_from_json(field(j, "shadow")?)?,
            canary: accumulator_from_json(field(j, "canary")?)?,
            seen_tenants: hex_arr(j, "seen_tenants")?,
            canary_tenants: hex_arr(j, "canary_tenants")?,
            baseline_objective,
        },
    })
}

fn model_from_json(j: &Json) -> Result<CalibratedModel, String> {
    let cpu = field(j, "cpu_fits")?;
    let cpu_fits = match str_field(cpu, "variant")? {
        "pg" => CpuFits::Pg {
            tuple: fit_from_json(field(cpu, "tuple")?)?,
            operator: fit_from_json(field(cpu, "operator")?)?,
            index_tuple: fit_from_json(field(cpu, "index_tuple")?)?,
        },
        "db2" => CpuFits::Db2 {
            cpuspeed: fit_from_json(field(cpu, "cpuspeed")?)?,
        },
        "tuple" => CpuFits::Tuple {
            scan: fit_from_json(field(cpu, "scan")?)?,
            op: fit_from_json(field(cpu, "op")?)?,
            index: fit_from_json(field(cpu, "index")?)?,
        },
        other => return Err(format!("unknown cpu_fits variant {other:?}")),
    };
    let io_j = field(j, "io")?;
    let io = match str_field(io_j, "variant")? {
        "pg" => IoConstants::Pg {
            random_page_cost: f64_field(io_j, "random_page_cost")?,
        },
        "db2" => IoConstants::Db2 {
            overhead_ms: f64_field(io_j, "overhead_ms")?,
            transfer_rate_ms: f64_field(io_j, "transfer_rate_ms")?,
        },
        "tuple" => IoConstants::Tuple {
            page: f64_field(io_j, "page")?,
            seek: f64_field(io_j, "seek")?,
        },
        other => return Err(format!("unknown io variant {other:?}")),
    };
    let renorm_j = field(j, "renorm")?;
    let renorm = match str_field(renorm_j, "variant")? {
        "seconds_per_unit" => Renormalizer::SecondsPerUnit {
            secs_per_unit: f64_field(renorm_j, "secs_per_unit")?,
        },
        "regression" => Renormalizer::Regression {
            slope: f64_field(renorm_j, "slope")?,
            intercept: f64_field(renorm_j, "intercept")?,
        },
        other => return Err(format!("unknown renorm variant {other:?}")),
    };
    let disk_fit = match field(j, "disk_fit")? {
        Json::Null => None,
        fit => Some(fit_from_json(fit)?),
    };
    let cost_j = field(j, "cost")?;
    let adaption = match field(j, "adaption")? {
        Json::Null => None,
        a => Some(adaption_from_json(a)?),
    };
    let model = CalibratedModel::new(
        kind_from_json(field(j, "kind")?)?,
        f64_field(j, "machine_mem_mb")?,
        cpu_fits,
        io,
        disk_fit,
        renorm,
        CalibrationCost {
            simulated_seconds: f64_field(cost_j, "simulated_seconds")?,
            vm_configurations: usize_field(cost_j, "vm_configurations")?,
            queries_run: usize_field(cost_j, "queries_run")?,
        },
    );
    Ok(match adaption {
        Some(a) => model.with_adaption(a),
        None => model,
    })
}

fn decision_from_json(j: &Json) -> Result<Decision, String> {
    let migrations = arr_field(j, "migrations")?
        .iter()
        .map(|m| {
            Ok(Migration {
                tenant: str_field(m, "tenant")?.to_string(),
                from: usize_field(m, "from")?,
                to: usize_field(m, "to")?,
                estimated_gain: f64_field(m, "estimated_gain")?,
                recalibrated: bool_field(m, "recalibrated")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let resolved = arr_field(j, "resolved")?
        .iter()
        .map(|v| {
            v.as_f64()
                .and_then(exact_count)
                .map(|x| x as usize)
                .ok_or("resolved entries must be machine indices".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Decision {
        seq: u64_field(j, "seq")?,
        action: str_field(j, "action")?.to_string(),
        resolved,
        migrations,
        objective: f64_field(j, "objective")?,
    })
}

fn machine_from_json(j: &Json) -> Result<MachineSnapshot, String> {
    let calibrations = arr_field(j, "calibrations")?
        .iter()
        .map(|c| {
            Ok((
                kind_from_json(field(c, "kind")?)?,
                model_from_json(field(c, "model")?)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let placement = match field(j, "placement")? {
        Json::Null => None,
        p => Some(result_from_json(p)?),
    };
    let warm_key = match field(j, "warm_key")? {
        Json::Null => None,
        _ => Some(hex_field(j, "warm_key")?),
    };
    Ok(MachineSnapshot {
        hardware: hex_field(j, "hardware")?,
        tenants: hex_arr(j, "tenants")?,
        calibrations,
        placement,
        warm_key,
        cold_solves: u64_field(j, "cold_solves")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> CalibratedModel {
        CalibratedModel::new(
            EngineKind::PgSim,
            1024.0,
            CpuFits::Pg {
                tuple: LinearFit {
                    intercept: 0.01,
                    slope: 0.1,
                    r_squared: 0.999,
                },
                operator: LinearFit {
                    intercept: 0.0025,
                    slope: 1.0 / 3.0,
                    r_squared: 1.0,
                },
                index_tuple: LinearFit {
                    intercept: 0.005,
                    slope: 0.05,
                    r_squared: 0.98,
                },
            },
            IoConstants::Pg {
                random_page_cost: 4.0,
            },
            Some(LinearFit {
                intercept: 0.1,
                slope: 0.9,
                r_squared: 0.97,
            }),
            Renormalizer::SecondsPerUnit {
                secs_per_unit: 1e-4,
            },
            CalibrationCost {
                simulated_seconds: 12.5,
                vm_configurations: 6,
                queries_run: 42,
            },
        )
    }

    fn sample_adaption() -> Adaption {
        Adaption {
            correction: AxisCorrection {
                scale: 1.25,
                cpu: -0.0625,
                mem: 0.015625,
            },
            version: (1 << 57) + 9,
        }
    }

    fn sample_result() -> SearchResult {
        SearchResult {
            allocations: vec![Allocation::new(0.6, 0.5), Allocation::new(0.4, 0.5)],
            weighted_cost: 123.456789,
            costs: vec![100.0 / 3.0, 90.1],
            iterations: 7,
            trace: vec![TraceStep {
                resource: Resource::Cpu,
                winner: 0,
                loser: 1,
                improvement: 0.25,
            }],
            limits_met: vec![true, false],
        }
    }

    fn sample_snapshot() -> FleetSnapshot {
        let model = sample_model();
        FleetSnapshot {
            seq: 75,
            optimizer_calls: 4321,
            resolves: 99,
            waves: 61,
            migrations: 3,
            machines: vec![
                MachineSnapshot {
                    hardware: u64::MAX - 17,
                    tenants: vec![(1 << 60) + 3, 42],
                    calibrations: vec![(
                        EngineKind::PgSim,
                        model.clone().with_adaption(sample_adaption()),
                    )],
                    placement: Some(sample_result()),
                    warm_key: Some(0xdead_beef_cafe_f00d),
                    cold_solves: 4,
                },
                MachineSnapshot {
                    hardware: 7,
                    tenants: vec![],
                    calibrations: vec![],
                    placement: None,
                    warm_key: None,
                    cold_solves: 0,
                },
            ],
            registry: vec![(u64::MAX - 17, EngineKind::PgSim, model)],
            probes: vec![(
                0x0123_4567_89ab_cdef,
                42,
                [5000, 5000, 10000, 10000],
                Estimate {
                    seconds: 0.1 + 0.2, // deliberately awkward bits
                    plan_regime: (1 << 53) + 1,
                    avg_cost_per_statement: 1e-300,
                },
            )],
            log: vec![Decision {
                seq: 75,
                action: "workload-changed m0 t1 (major)".to_string(),
                resolved: vec![0, 1],
                migrations: vec![Migration {
                    tenant: "hot".to_string(),
                    from: 0,
                    to: 1,
                    estimated_gain: 0.0625,
                    recalibrated: true,
                }],
                objective: 98.7654321,
            }],
            log_dropped: 7,
            adaption: vec![AdaptionSnapshot {
                hardware: u64::MAX - 17,
                kind: EngineKind::PgSim,
                epoch: 74,
                version: 12,
                rows: vec![
                    (42, [5000, 5000, 10000, 10000], 71, 0.125, 0.25),
                    ((1 << 60) + 3, [2500, 7500, 10000, 10000], 74, 1e-3, 2e-3),
                ],
            }],
            tuners: vec![TunerSnapshot {
                hardware: u64::MAX - 17,
                kind: EngineKind::PgSim,
                tracker: GuardrailExport {
                    state: GuardrailState::Canary,
                    candidate: sample_adaption(),
                    base_fingerprint: 0xFEED_FACE_0123_4567,
                    shadow: ErrorAccumulator {
                        candidate_abs: 0.5,
                        incumbent_abs: 1.5,
                        samples: 4,
                    },
                    canary: ErrorAccumulator {
                        candidate_abs: 0.25,
                        incumbent_abs: 0.75,
                        samples: 2,
                    },
                    seen_tenants: vec![42, (1 << 60) + 3],
                    canary_tenants: vec![42],
                    baseline_objective: Some(98.7654321),
                },
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_bit_for_bit() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let back = FleetSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        // Exactness down to the float bits that PartialEq would let
        // slide (e.g. -0.0 == 0.0).
        assert_eq!(
            snap.probes[0].3.seconds.to_bits(),
            back.probes[0].3.seconds.to_bits()
        );
        // Determinism: same state, same bytes.
        assert_eq!(json, back.to_json());
    }

    /// Replace a hand-edited document's digest with one over its new
    /// contents, so a test reaches the check behind the digest.
    fn reseal(doc: &str) -> String {
        seal(format!("{}}}", &doc[..doc.len() - SEAL_LEN]))
    }

    #[test]
    fn snapshot_rejects_foreign_and_versioned_input() {
        assert!(FleetSnapshot::from_json("{}").is_err());
        assert!(FleetSnapshot::from_json("not json").is_err());
        let wrong_format = r#"{"format": "other", "version": 1}"#;
        assert!(FleetSnapshot::from_json(wrong_format)
            .unwrap_err()
            .contains("format"));
        let edited = sample_snapshot()
            .to_json()
            .replace("\"version\":5,\"seq\"", "\"version\":6,\"seq\"");
        let err = FleetSnapshot::from_json(&edited).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        let err = FleetSnapshot::from_json(&reseal(&edited)).unwrap_err();
        assert!(err.contains("version 6"), "{err}");
    }

    #[test]
    fn snapshot_reports_missing_fields_by_name() {
        let broken = reseal(&sample_snapshot().to_json().replace("\"resolves\"", "\"x\""));
        let err = FleetSnapshot::from_json(&broken).unwrap_err();
        assert!(err.contains("resolves"), "{err}");
    }

    #[test]
    fn snapshot_ends_with_a_digest_of_everything_before_it() {
        let json = sample_snapshot().to_json();
        let (body, stored) = unseal(&json).expect("sealed");
        assert_eq!(stored, digest(body));
        assert_eq!(
            body,
            &json.as_bytes()[..json.rfind(",\"digest\":").unwrap()]
        );
        assert_eq!(reseal(&json), json);
    }

    #[test]
    fn counters_above_2_53_are_refused_by_name() {
        // to_json writes u64::MAX as 1.8446744073709552e19, which a
        // cast would saturate back to u64::MAX.
        let mut snap = sample_snapshot();
        snap.seq = u64::MAX;
        let err = FleetSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("\"seq\""), "{err}");
        let json = sample_snapshot().to_json();
        for (from, to, field) in [
            ("\"seq\":75,", "\"seq\":1e20,", "\"seq\""),
            (
                "\"cold_solves\":4}",
                "\"cold_solves\":18014398509481984}",
                "\"cold_solves\"",
            ),
        ] {
            assert!(json.contains(from), "{from}");
            let edited = reseal(&json.replacen(from, to, 1));
            let err = FleetSnapshot::from_json(&edited).unwrap_err();
            assert!(err.contains(field) && err.contains("2^53"), "{err}");
        }
        // 2^53 itself is exact.
        snap.seq = 1 << 53;
        let back = FleetSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.seq, 1 << 53);
    }

    #[test]
    fn fingerprints_above_2_53_survive() {
        let snap = sample_snapshot();
        let back = FleetSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.machines[0].tenants[0], (1 << 60) + 3);
        assert_eq!(back.machines[0].hardware, u64::MAX - 17);
        assert_eq!(back.probes[0].3.plan_regime, (1 << 53) + 1);
    }
}
