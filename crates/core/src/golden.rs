//! Byte-exact golden-trace codec: a dependency-free JSON encoder, a
//! minimal recursive-descent parser and a per-field differ.
//!
//! The golden-trace harness (`tests/golden_traces.rs`) pins full [`Trace`]s
//! — every timestamp, measurement and configuration coordinate — against
//! committed fixtures. That needs three things serde would not give a
//! hermetic workspace:
//!
//! * **Shortest-round-trip floats.** Every `f64` is rendered with `{:?}`,
//!   Rust's shortest representation that parses back to the identical bit
//!   pattern, so "encode, commit, parse, compare bits" is lossless.
//! * **Bit-level comparison.** [`diff`] compares numbers by
//!   `f64::to_bits`, not by epsilon: the determinism contract is *byte*
//!   identity, and a one-ulp drift is a real regression.
//! * **Readable failure reports.** A mismatch names the JSON path
//!   (`samples[3].error`), both values and both bit patterns — not a
//!   2000-character string inequality.

// Writing into a `String` cannot fail, so the encoders below drop the
// `fmt::Result` of each `write!`.
use std::fmt::Write;

use crate::driver::{Sample, SampleKind, Trace};

/// A parsed JSON value. Object member order is preserved (traces are
/// encoded with a fixed key order, so order mismatches are real diffs).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (plus `NaN` / `inf` / `-inf`, which `{:?}` emits
    /// for non-finite floats).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key–value pairs.
    Object(Vec<(String, Value)>),
}

/// Stable wire name for a [`SampleKind`] (matches the CSV export).
fn kind_name(kind: SampleKind) -> &'static str {
    match kind {
        SampleKind::Rejected => "rejected",
        SampleKind::EarlyTerminated => "early_terminated",
        SampleKind::Trained => "trained",
        SampleKind::Failed => "failed",
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, x: f64) {
    // `{:?}` is the shortest string that round-trips to the same bits.
    let _ = write!(out, "{x:?}");
}

fn push_opt_f64(out: &mut String, x: Option<f64>) {
    match x {
        Some(x) => push_f64(out, x),
        None => out.push_str("null"),
    }
}

fn push_sample(out: &mut String, s: &Sample, indent: &str) {
    out.push_str(indent);
    let _ = write!(out, "{{\"index\": {}", s.index);
    out.push_str(", \"timestamp_s\": ");
    push_f64(out, s.timestamp_s);
    out.push_str(", \"kind\": ");
    push_escaped(out, kind_name(s.kind));
    out.push_str(", \"error\": ");
    push_opt_f64(out, s.error);
    out.push_str(", \"power_w\": ");
    push_f64(out, s.power_w);
    out.push_str(", \"memory_bytes\": ");
    match s.memory_bytes {
        Some(m) => {
            let _ = write!(out, "{m}");
        }
        None => out.push_str("null"),
    }
    out.push_str(", \"latency_s\": ");
    push_opt_f64(out, s.latency_s);
    out.push_str(", \"feasible\": ");
    out.push_str(if s.feasible { "true" } else { "false" });
    // `Sample::hedged` / `Sample::reclaimed` are deliberately NOT encoded:
    // they are operational lease telemetry, not trace identity. Excluding
    // them is what makes hedged and unhedged runs byte-compare equal here
    // (the server's trace-neutrality proof leans on this).
    // Fault-recovery keys are emitted only when non-default, so fault-free
    // traces (and the pre-fault golden fixtures) are byte-identical to the
    // v1 encoding.
    if s.retries > 0 {
        let _ = write!(out, ", \"retries\": {}", s.retries);
    }
    if !s.faults.is_empty() {
        out.push_str(", \"faults\": [");
        for (i, f) in s.faults.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_escaped(out, f.wire_name());
        }
        out.push(']');
    }
    if let Some(failure) = s.failure {
        out.push_str(", \"failure\": ");
        push_escaped(out, failure.wire_name());
    }
    // Self-healing keys follow the same only-when-non-default rule: runs
    // with the drift monitor off (the default) encode byte-identically to
    // the pre-drift format.
    if !s.drift_events.is_empty() {
        out.push_str(", \"drift_events\": [");
        for (i, e) in s.drift_events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_escaped(out, e.wire_name());
        }
        out.push(']');
    }
    if !s.degradations.is_empty() {
        out.push_str(", \"degradations\": [");
        for (i, d) in s.degradations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_escaped(out, &d.wire_name());
        }
        out.push(']');
    }
    if let Some(rmspe) = s.drift_rmspe {
        out.push_str(", \"drift_rmspe\": ");
        push_f64(out, rmspe);
    }
    out.push_str(", \"config\": [");
    for (i, u) in s.config.unit().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_f64(out, *u);
    }
    out.push_str("]}");
}

/// Encodes one [`Sample`] as a single JSON object line (the same encoding
/// [`encode_trace`] uses inside `samples`). Used by the run-checkpoint
/// format so resumed traces are byte-compatible with golden fixtures.
pub fn encode_sample(s: &Sample) -> String {
    // Room for a typical fault-free sample, so the line grows at most once.
    let mut out = String::with_capacity(384);
    push_sample(&mut out, s, "");
    out
}

/// Encodes a [`Trace`] as deterministic, human-diffable JSON: fixed key
/// order, one sample per line, shortest-round-trip floats, trailing
/// newline.
pub fn encode_trace(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"hyperpower-trace-v1\",\n  \"method\": ");
    push_escaped(&mut out, &trace.method.to_string());
    out.push_str(",\n  \"mode\": ");
    push_escaped(&mut out, &trace.mode.to_string());
    out.push_str(",\n  \"budgets\": {\"power_w\": ");
    push_opt_f64(&mut out, trace.budgets.power.map(|p| p.get()));
    out.push_str(", \"memory_mib\": ");
    push_opt_f64(&mut out, trace.budgets.memory.map(|m| m.get()));
    out.push_str(", \"latency_s\": ");
    push_opt_f64(&mut out, trace.budgets.latency.map(|l| l.get()));
    out.push_str("},\n  \"total_time_s\": ");
    push_f64(&mut out, trace.total_time_s);
    out.push_str(",\n  \"samples\": [");
    for (i, s) in trace.samples.iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        push_sample(&mut out, s, "    ");
    }
    if trace.samples.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Deepest `[`/`{` nesting [`parse`] accepts. The codec emits at most 4
/// levels; the bound keeps the recursive descent's stack use fixed on
/// hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> std::result::Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth >= MAX_DEPTH {
                    return Err(self.fail(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'N') if self.eat_keyword("NaN") => Ok(Value::Number(f64::NAN)),
            Some(b'i') if self.eat_keyword("inf") => Ok(Value::Number(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.pos += 4;
                Ok(Value::Number(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn object(&mut self) -> std::result::Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> std::result::Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> std::result::Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = hex else {
                                return Err(self.fail("bad \\u escape"));
                            };
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are valid UTF-8 (the input is &str); copy the
                    // whole next char.
                    let rest = &self.bytes[self.pos..];
                    let Ok(s) = std::str::from_utf8(rest) else {
                        return Err(self.fail("invalid UTF-8"));
                    };
                    let Some(c) = s.chars().next() else {
                        return Err(self.fail("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> std::result::Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(self.fail("invalid number bytes"));
        };
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.fail(&format!("bad number {text:?}")))
    }
}

/// Parses JSON text (as produced by [`encode_trace`]) into a [`Value`].
///
/// # Errors
///
/// Returns a byte-offset-annotated message on malformed input, including
/// arrays and objects nested more than 64 levels deep.
pub fn parse(text: &str) -> std::result::Result<Value, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Most mismatches reported before the differ truncates; keeps the report
/// readable when a whole trace diverges.
const MAX_DIFFS: usize = 40;

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn diff_into(path: &str, expected: &Value, actual: &Value, out: &mut Vec<String>) {
    if out.len() >= MAX_DIFFS {
        return;
    }
    match (expected, actual) {
        (Value::Number(e), Value::Number(a)) => {
            if e.to_bits() != a.to_bits() {
                out.push(format!(
                    "{path}: expected {e:?} (bits {:016x}), got {a:?} (bits {:016x})",
                    e.to_bits(),
                    a.to_bits()
                ));
            }
        }
        (Value::Null, Value::Null) => {}
        (Value::Bool(e), Value::Bool(a)) => {
            if e != a {
                out.push(format!("{path}: expected {e}, got {a}"));
            }
        }
        (Value::String(e), Value::String(a)) => {
            if e != a {
                out.push(format!("{path}: expected {e:?}, got {a:?}"));
            }
        }
        (Value::Array(e), Value::Array(a)) => {
            if e.len() != a.len() {
                out.push(format!(
                    "{path}: expected {} elements, got {}",
                    e.len(),
                    a.len()
                ));
            }
            for (i, (ev, av)) in e.iter().zip(a.iter()).enumerate() {
                diff_into(&format!("{path}[{i}]"), ev, av, out);
            }
        }
        (Value::Object(e), Value::Object(a)) => {
            for (key, ev) in e {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => diff_into(&format!("{path}.{key}"), ev, av, out),
                    None => out.push(format!("{path}.{key}: missing in actual")),
                }
            }
            for (key, _) in a {
                if !e.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: unexpected in actual"));
                }
            }
        }
        (e, a) => {
            out.push(format!(
                "{path}: expected {} ({e:?}), got {} ({a:?})",
                type_name(e),
                type_name(a)
            ));
        }
    }
}

/// Compares two parsed values field by field. Returns one human-readable
/// line per mismatch (empty ⇒ byte-equivalent traces); numbers are
/// compared by exact bit pattern.
pub fn diff(expected: &Value, actual: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff_into("$", expected, actual, &mut out);
    if out.len() >= MAX_DIFFS {
        out.push(format!("... report truncated at {MAX_DIFFS} mismatches"));
    }
    out
}

/// Parses both texts and diffs them; a parse failure is itself reported as
/// a diff line.
pub fn diff_text(expected: &str, actual: &str) -> Vec<String> {
    match (parse(expected), parse(actual)) {
        (Ok(e), Ok(a)) => diff(&e, &a),
        (Err(e), _) => vec![format!("expected fixture does not parse: {e}")],
        (_, Err(a)) => vec![format!("actual trace does not parse: {a}")],
    }
}

#[cfg(test)]
// Tests assert exact constructed values; strict float equality intended.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Budgets, Config, Method, Mode, Watts};

    fn toy_trace() -> Trace {
        Trace {
            method: Method::HwIeci,
            mode: Mode::HyperPower,
            budgets: Budgets::power(Watts(85.0)),
            samples: vec![
                Sample {
                    index: 0,
                    timestamp_s: 0.1 + 0.2, // deliberately not 0.3
                    kind: SampleKind::Rejected,
                    error: None,
                    power_w: 91.25,
                    memory_bytes: None,
                    latency_s: None,
                    feasible: false,
                    retries: 0,
                    faults: Vec::new(),
                    failure: None,
                    drift_events: Vec::new(),
                    degradations: Vec::new(),
                    drift_rmspe: None,
                    hedged: 0,
                    reclaimed: 0,
                    config: Config::new(vec![0.25, 1.0 / 3.0]).unwrap(),
                },
                Sample {
                    index: 1,
                    timestamp_s: 3600.5,
                    kind: SampleKind::Trained,
                    error: Some(0.0123456789),
                    power_w: 80.0,
                    memory_bytes: Some(1_234_567_890),
                    latency_s: Some(1e-3),
                    feasible: true,
                    retries: 0,
                    faults: Vec::new(),
                    failure: None,
                    drift_events: Vec::new(),
                    degradations: Vec::new(),
                    drift_rmspe: None,
                    hedged: 0,
                    reclaimed: 0,
                    config: Config::new(vec![0.5, 0.75]).unwrap(),
                },
            ],
            total_time_s: 3600.5,
        }
    }

    #[test]
    fn encode_parse_roundtrip_is_bit_exact() {
        let trace = toy_trace();
        let text = encode_trace(&trace);
        let value = parse(&text).unwrap();
        // Pull samples[0].timestamp_s back out and compare bits.
        let Value::Object(top) = &value else {
            panic!("not an object")
        };
        let (_, samples) = top.iter().find(|(k, _)| k == "samples").unwrap();
        let Value::Array(samples) = samples else {
            panic!("samples not an array")
        };
        let Value::Object(s0) = &samples[0] else {
            panic!("sample not an object")
        };
        let (_, ts) = s0.iter().find(|(k, _)| k == "timestamp_s").unwrap();
        let Value::Number(ts) = ts else {
            panic!("timestamp not a number")
        };
        assert_eq!(ts.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_ne!(*ts, 0.3);
    }

    #[test]
    fn identical_traces_have_empty_diff() {
        let text = encode_trace(&toy_trace());
        assert_eq!(diff_text(&text, &text), Vec::<String>::new());
    }

    #[test]
    fn one_ulp_drift_is_detected_and_named() {
        let trace = toy_trace();
        let mut drifted = trace.clone();
        let e = drifted.samples[1].error.unwrap();
        drifted.samples[1].error = Some(f64::from_bits(e.to_bits() + 1));
        let report = diff_text(&encode_trace(&trace), &encode_trace(&drifted));
        assert_eq!(report.len(), 1);
        assert!(report[0].starts_with("$.samples[1].error:"), "{report:?}");
        assert!(report[0].contains("bits"), "{report:?}");
    }

    #[test]
    fn sample_count_mismatch_is_reported() {
        let trace = toy_trace();
        let mut short = trace.clone();
        short.samples.pop();
        let report = diff_text(&encode_trace(&trace), &encode_trace(&short));
        assert!(
            report
                .iter()
                .any(|l| l.contains("$.samples") && l.contains("elements")),
            "{report:?}"
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        // Deep enough to overflow the stack of an unbounded recursive
        // descent: still a plain error.
        let hostile = "{\"a\": ".repeat(500_000) + &"[".repeat(500_000);
        assert!(parse(&hostile).unwrap_err().contains("nesting"));
    }

    #[test]
    fn parse_handles_special_numbers_and_null() {
        let v = parse("[NaN, inf, -inf, null, -1.5e-3]").unwrap();
        let Value::Array(items) = v else {
            panic!("not an array")
        };
        assert!(matches!(items[0], Value::Number(x) if x.is_nan()));
        assert!(matches!(items[1], Value::Number(x) if x == f64::INFINITY));
        assert!(matches!(items[2], Value::Number(x) if x == f64::NEG_INFINITY));
        assert_eq!(items[3], Value::Null);
        assert!(matches!(items[4], Value::Number(x) if x == -1.5e-3));
    }

    #[test]
    fn fault_keys_are_emitted_only_when_non_default() {
        use crate::recovery::TrialFailure;
        let trace = toy_trace();
        // Default (fault-free) samples carry none of the new keys: the
        // encoding is byte-identical to the pre-fault format.
        let clean = encode_trace(&trace);
        assert!(!clean.contains("retries"));
        assert!(!clean.contains("faults"));
        assert!(!clean.contains("failure"));
        let mut faulted = trace.clone();
        faulted.samples[1].retries = 2;
        faulted.samples[1].faults = vec![TrialFailure::Crash, TrialFailure::SensorGlitch];
        faulted.samples[1].failure = Some(TrialFailure::Crash);
        let text = encode_trace(&faulted);
        assert!(text.contains("\"retries\": 2"));
        assert!(text.contains("\"faults\": [\"crash\", \"sensor_glitch\"]"));
        assert!(text.contains("\"failure\": \"crash\""));
        assert!(parse(&text).is_ok());
        // The differ names the new keys on mismatch.
        let report = diff_text(&clean, &text);
        assert!(report.iter().any(|l| l.contains("retries")), "{report:?}");
        // Single-sample encoder matches the in-trace encoding.
        let line = encode_sample(&faulted.samples[1]);
        assert!(text.contains(&line));
    }

    #[test]
    fn drift_keys_are_emitted_only_when_non_default() {
        use crate::drift::{DegradationEvent, DriftEvent, DriftTarget};
        let trace = toy_trace();
        let clean = encode_trace(&trace);
        assert!(!clean.contains("drift_events"));
        assert!(!clean.contains("degradations"));
        assert!(!clean.contains("drift_rmspe"));
        let mut healing = trace.clone();
        healing.samples[1].drift_events = vec![
            DriftEvent::DriftDetected(DriftTarget::Power),
            DriftEvent::Recalibrated,
        ];
        healing.samples[1].degradations = vec![
            DegradationEvent::JitterEscalated { rung: 1 },
            DegradationEvent::RandWalkFallback,
        ];
        healing.samples[1].drift_rmspe = Some(0.25);
        let text = encode_trace(&healing);
        assert!(text.contains("\"drift_events\": [\"drift:power\", \"recalibrated\"]"));
        assert!(text.contains("\"degradations\": [\"jitter:1\", \"rand-walk-fallback\"]"));
        assert!(text.contains("\"drift_rmspe\": 0.25"));
        assert!(parse(&text).is_ok());
        let report = diff_text(&clean, &text);
        assert!(
            report.iter().any(|l| l.contains("drift_events")),
            "{report:?}"
        );
        // Single-sample encoder matches the in-trace encoding.
        let line = encode_sample(&healing.samples[1]);
        assert!(text.contains(&line));
    }

    #[test]
    fn empty_trace_encodes_and_roundtrips() {
        let trace = Trace {
            method: Method::Rand,
            mode: Mode::Default,
            budgets: Budgets::default(),
            samples: vec![],
            total_time_s: 0.0,
        };
        let text = encode_trace(&trace);
        assert!(parse(&text).is_ok());
        assert!(diff_text(&text, &text).is_empty());
    }
}
