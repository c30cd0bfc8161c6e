//! A minimal JSON value type, reader, and writer for durable state.
//!
//! The vendored `serde` is a marker-only stub (ROADMAP: "nothing
//! serializes yet"), so everything that persists — the `BENCH_*.json`
//! artifacts and the control plane's [`crate::snapshot`] files — is
//! written by hand-rolled formatters and read back by this hand-rolled
//! recursive-descent parser. It supports exactly the JSON those
//! writers emit: objects, arrays, strings (no escapes beyond `\"`,
//! `\\`, `\n`, `\t`), numbers, booleans, and `null`.
//!
//! This module started life as the CI bench-regression gate's reader
//! in `vda-bench`; the control plane's snapshot format promoted it
//! into `vda-core` and added the writer. The bench gate
//! (`check_bench`) reads through it directly.
//!
//! ## Exactness
//!
//! [`write()`] emits finite `f64`s with Rust's shortest-round-trip
//! `Display`, and [`parse`] recovers them with `str::parse::<f64>()`
//! — so a finite float survives a write → parse cycle **bit for
//! bit**. Two deliberate gaps, handled by the schema layer rather
//! than here:
//!
//! * Non-finite floats have no JSON literal. [`write()`] renders them
//!   as `null`; callers that must round-trip `INFINITY` (e.g. an
//!   unset QoS degradation limit) encode a string sentinel instead.
//! * `u64` values above 2^53 (fingerprints are full 64-bit hashes) do
//!   not fit in [`Json::Num`]'s `f64` losslessly. Snapshots store
//!   them as fixed-width hex strings ([`Json::hex_u64`] /
//!   [`Json::as_hex_u64`]).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 precision suffices for the bench artifacts).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encode a full-width `u64` (fingerprints, warm keys) as a
    /// fixed-width hex string — `Json::Num` is an `f64` and would
    /// silently round anything above 2^53.
    pub fn hex_u64(value: u64) -> Json {
        Json::Str(format!("{value:016x}"))
    }

    /// Decode a [`Json::hex_u64`]-encoded value.
    pub fn as_hex_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        }
    }

    /// Every scalar leaf under this value, keyed by its path
    /// (`algorithms[0].serial_ms`-style). Arrays index, objects dot.
    pub fn leaves(&self) -> BTreeMap<String, Json> {
        let mut out = BTreeMap::new();
        self.collect_leaves(String::new(), &mut out);
        out
    }

    fn collect_leaves(&self, path: String, out: &mut BTreeMap<String, Json>) {
        match self {
            Json::Obj(members) => {
                for (k, v) in members {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    v.collect_leaves(sub, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    v.collect_leaves(format!("{path}[{i}]"), out);
                }
            }
            leaf => {
                out.insert(path, leaf.clone());
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(items) => write!(f, "[{} items]", items.len()),
            Json::Obj(members) => write!(f, "{{{} members}}", members.len()),
        }
    }
}

/// Serialize a [`Json`] value to a compact document the [`parse`]r
/// round-trips exactly: finite floats via shortest-round-trip
/// `Display` (integers without a trailing `.0`), strings with only
/// the four escapes the parser understands, non-finite floats as
/// `null` (see the module docs for the sentinel story).
pub fn write(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

/// Format one `f64` exactly as [`write()`] would inside a document:
/// shortest-round-trip digits for finite values, `null` for NaN and
/// the infinities. This is the blessed spelling for code that emits
/// floats into hand-assembled JSON (e.g. the bench artifact writers)
/// instead of a bare `{}` placeholder.
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    write_num(x, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => write_num(*x, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_num(x: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // `{}` on a whole f64 prints without a decimal point ("3"),
        // which the parser reads back as the same f64 — keep it.
        let _ = write!(out, "{x}");
    } else {
        // Shortest round-trip: `{}` for f64 guarantees
        // `out.parse::<f64>() == x` bit for bit.
        let _ = write!(out, "{x}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Everything before the first character that needs an escape goes
    // out in one copy: snapshot columns are megabytes of hex digits.
    // The four escaped characters are ASCII, so `plain` ends on a char
    // boundary.
    let plain = s
        .bytes()
        .position(|b| matches!(b, b'"' | b'\\' | b'\n' | b'\t'))
        .unwrap_or(s.len());
    out.push_str(&s[..plain]);
    for c in s[plain..].chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting ceiling for the recursive-descent parser. Snapshot and
/// bench documents nest a handful of levels; anything deeper is a
/// malformed or adversarial input, and rejecting it with an error
/// beats overflowing the stack.
const MAX_DEPTH: usize = 512;

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    // Fast path: scan to the first quote or backslash. A string that
    // ends before any backslash is one slice, validated and copied
    // once.
    let start = *pos;
    let run = bytes[start..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .ok_or("unterminated string")?;
    *pos = start + run;
    if bytes[*pos] == b'"' {
        *pos += 1;
        return std::str::from_utf8(&bytes[start..start + run])
            .map(str::to_owned)
            .map_err(|e| format!("string is not valid UTF-8: {e}"));
    }
    // Accumulate raw bytes and validate once at the closing quote:
    // pushing each byte as a `char` would re-encode bytes >= 0x80 and
    // mangle multi-byte UTF-8 sequences.
    let mut out: Vec<u8> = bytes[start..*pos].to_vec();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out)
                    .map_err(|e| format!("string is not valid UTF-8: {e}"));
            }
            b'\\' => {
                *pos += 1;
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => b'"',
                    Some(b'\\') => b'\\',
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    other => {
                        return Err(format!("unsupported escape {other:?} at byte {pos}"));
                    }
                };
                out.push(escaped);
                *pos += 1;
            }
            b => {
                out.push(b);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_artifact_shape() {
        let doc = r#"{
  "experiment": "enumeration",
  "threads": 1,
  "algorithms": [
    { "name": "greedy", "serial_ms": 12.5, "identical": true },
    { "name": "exhaustive", "serial_ms": 80.25, "identical": true }
  ],
  "coarse_to_fine": { "meets_5x": true, "calls": 4040 }
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("experiment"),
            Some(&Json::Str("enumeration".to_string()))
        );
        assert_eq!(v.get("threads").and_then(Json::as_f64), Some(1.0));
        let leaves = v.leaves();
        assert_eq!(
            leaves.get("algorithms[1].serial_ms"),
            Some(&Json::Num(80.25))
        );
        assert_eq!(
            leaves.get("coarse_to_fine.meets_5x"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} junk").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn round_trips_empty_containers_and_null() {
        let v = parse("{\"a\": [], \"b\": {}, \"c\": null}").unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("c"), Some(&Json::Null));
        // Null is a leaf.
        assert_eq!(v.leaves().get("c"), Some(&Json::Null));
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let v = parse("[-1.5, 2e3, 0.000001]").unwrap();
        let leaves = v.leaves();
        assert_eq!(leaves.get("[0]"), Some(&Json::Num(-1.5)));
        assert_eq!(leaves.get("[1]"), Some(&Json::Num(2000.0)));
    }

    #[test]
    fn write_parse_round_trips_structures() {
        let doc = Json::Obj(vec![
            ("null".into(), Json::Null),
            ("flag".into(), Json::Bool(true)),
            ("n".into(), Json::Num(-12.75)),
            (
                "s".into(),
                Json::Str("line\nbreak\ttab \"quoted\" back\\slash".into()),
            ),
            (
                "arr".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
    }

    #[test]
    fn write_parse_round_trips_awkward_floats_bit_for_bit() {
        let values = [
            0.1_f64,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            -0.0,
            1e-300,
            123_456_789.123_456_78,
            2f64.powi(60),
            // Subnormals: the smallest positive f64 and the largest
            // subnormal (all-ones mantissa, zero exponent).
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            -f64::from_bits(1),
        ];
        for &x in &values {
            let doc = Json::Arr(vec![Json::Num(x)]);
            let back = parse(&write(&doc)).unwrap();
            let y = back.as_arr().unwrap()[0].as_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x:?} did not round-trip");
            // fmt_f64 must agree with the in-document spelling.
            assert_eq!(write(&Json::Num(x)), fmt_f64(x));
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn negative_zero_keeps_its_sign_bit() {
        let back = parse(&write(&Json::Num(-0.0))).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let depth = 100_000;
        let mut doc = String::new();
        doc.push_str(&"[".repeat(depth));
        doc.push('1');
        doc.push_str(&"]".repeat(depth));
        let err = parse(&doc).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A fat but legal document still parses.
        let legal = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&legal).is_ok());
    }

    #[test]
    fn multi_byte_utf8_strings_round_trip() {
        for s in [
            "héllo",
            "δ=0.05",
            "日本語",
            "emoji 🦀 crab",
            "mixed π≈3.14159",
        ] {
            let doc = Json::Obj(vec![(s.to_string(), Json::Str(s.to_string()))]);
            let back = parse(&write(&doc)).unwrap();
            assert_eq!(back.get(s).and_then(Json::as_str), Some(s), "{s}");
        }
        // Raw multi-byte bytes inside an incoming document (not
        // produced by `write`) must decode, not be mangled byte-wise.
        let incoming = "{\"label\": \"δ grid\"}";
        let v = parse(incoming).unwrap();
        assert_eq!(v.get("label").and_then(Json::as_str), Some("δ grid"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let doc = Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(f64::NAN)]);
        assert_eq!(write(&doc), "[null,null]");
    }

    #[test]
    fn hex_u64_round_trips_full_width_values() {
        for v in [
            0u64,
            1,
            u64::MAX,
            0xdead_beef_cafe_f00d,
            1 << 53,
            (1 << 53) + 1,
        ] {
            let j = Json::hex_u64(v);
            assert_eq!(j.as_hex_u64(), Some(v));
            let back = parse(&write(&j)).unwrap();
            assert_eq!(back.as_hex_u64(), Some(v));
        }
    }
}
