//! The trace record model: what one line of a trace means.
//!
//! A trace is an ordered sequence of [`Record`]s. Three kinds exist:
//! `span_start` / `span_end` delimit a named region of work (spans nest via
//! `parent`), and `event` attaches a point observation to the innermost
//! enclosing span. Every record carries a collector-wide sequence number
//! (`seq`) and a list of typed key/value [`FieldValue`] pairs.
//!
//! Records serialize to one JSON object per line (JSONL) with a fixed key
//! order, so identical traces produce byte-identical files — the property
//! the `dblayout explain` artifact relies on.

use serde_json::{Value, ValueExt};

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (ids, counts, block totals).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (costs, deltas). Non-finite values serialize as strings.
    F64(f64),
    /// Free text (names, reasons).
    Str(String),
    /// Flag.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    /// Non-negative values canonicalize to `U64` so construction matches
    /// what [`parse_trace`] produces and round-trips compare equal.
    fn from(v: i64) -> Self {
        match u64::try_from(v) {
            Ok(u) => FieldValue::U64(u),
            Err(_) => FieldValue::I64(v),
        }
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// Shorthand field constructor: `f("cost_ms", 12.5)`.
pub fn f(key: &str, value: impl Into<FieldValue>) -> (String, FieldValue) {
    (key.to_string(), value.into())
}

/// What a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened.
    SpanStart,
    /// A span closed.
    SpanEnd,
    /// A point event inside a span.
    Event,
}

impl RecordKind {
    /// Wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::SpanStart => "span_start",
            RecordKind::SpanEnd => "span_end",
            RecordKind::Event => "event",
        }
    }
}

/// One trace record (one JSONL line).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Collector-wide sequence number: unique per record, increasing in
    /// each emitting thread's program order.
    pub seq: u64,
    /// Start, end, or point event.
    pub kind: RecordKind,
    /// The span this record belongs to (its own id for start/end records;
    /// the enclosing span's id for events, `0` when emitted outside any
    /// span).
    pub span: u64,
    /// The enclosing span of a `span_start` (`None` for root spans; absent
    /// for other kinds).
    pub parent: Option<u64>,
    /// Span or event name (dotted taxonomy, e.g. `tsgreedy.candidate`).
    pub name: String,
    /// Typed payload, in emission order.
    pub fields: Vec<(String, FieldValue)>,
    /// Wall-clock span duration in microseconds, present on `span_end`
    /// records only when the collector records timing (off for
    /// deterministic artifacts).
    pub elapsed_us: Option<u64>,
}

impl Record {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `u64` (accepting `I64`/`F64` when losslessly convertible).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Field as `f64` (integers widen).
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            FieldValue::F64(v) => Some(*v),
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Field as `&str`.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The record as a JSON value with fixed key order (`seq`, `kind`,
    /// `span`, `parent` when set, `name`, `elapsed_us` when set,
    /// `fields`).
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = Vec::with_capacity(7);
        pairs.push(("seq".into(), Value::U64(self.seq)));
        pairs.push(("kind".into(), Value::Str(self.kind.as_str().into())));
        pairs.push(("span".into(), Value::U64(self.span)));
        if let Some(parent) = self.parent {
            pairs.push(("parent".into(), Value::U64(parent)));
        }
        pairs.push(("name".into(), Value::Str(self.name.clone())));
        if let Some(us) = self.elapsed_us {
            pairs.push(("elapsed_us".into(), Value::U64(us)));
        }
        let fields: Vec<(String, Value)> = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), field_to_json(v)))
            .collect();
        pairs.push(("fields".into(), Value::Map(fields)));
        Value::Map(pairs)
    }

    /// The record as one JSONL line (no trailing newline). Serialization of
    /// the value tree built by [`Record::to_json`] cannot fail; the fallback
    /// line keeps the emit path total anyway.
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(&self.to_json()).unwrap_or_else(|_| {
            format!("{{\"seq\":{},\"kind\":\"lost\",\"fields\":{{}}}}", self.seq)
        })
    }
}

fn field_to_json(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(n) => Value::U64(*n),
        FieldValue::I64(n) => Value::I64(*n),
        FieldValue::F64(n) if n.is_finite() => Value::F64(*n),
        // JSON has no NaN/inf; preserve the information as text.
        FieldValue::F64(n) => Value::Str(format!("{n}")),
        FieldValue::Str(s) => Value::Str(s.clone()),
        FieldValue::Bool(b) => Value::Bool(*b),
    }
}

/// A trace-line parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a JSONL trace back into records (inverse of
/// [`Record::to_jsonl`] per line; blank lines are skipped).
pub fn parse_trace(text: &str) -> Result<Vec<Record>, TraceParseError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(parse_record_line(line).map_err(|message| TraceParseError {
            line: idx + 1,
            message,
        })?);
    }
    Ok(records)
}

fn parse_record_line(line: &str) -> Result<Record, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let kind = match value.get("kind").and_then(|v| v.as_str()) {
        Some("span_start") => RecordKind::SpanStart,
        Some("span_end") => RecordKind::SpanEnd,
        Some("event") => RecordKind::Event,
        Some(other) => return Err(format!("unknown record kind `{other}`")),
        None => return Err("missing string field `kind`".into()),
    };
    let seq = value
        .get("seq")
        .and_then(|v| v.as_u64())
        .ok_or("missing integer field `seq`")?;
    let span = value
        .get("span")
        .and_then(|v| v.as_u64())
        .ok_or("missing integer field `span`")?;
    let parent = value.get("parent").and_then(|v| v.as_u64());
    let name = value
        .get("name")
        .and_then(|v| v.as_str())
        .ok_or("missing string field `name`")?
        .to_string();
    let elapsed_us = value.get("elapsed_us").and_then(|v| v.as_u64());
    let mut fields = Vec::new();
    if let Some(raw) = value.get("fields") {
        let entries = raw.as_object().ok_or("`fields` must be an object")?;
        for (k, v) in entries {
            fields.push((k.clone(), json_to_field(v)?));
        }
    }
    Ok(Record {
        seq,
        kind,
        span,
        parent,
        name,
        fields,
        elapsed_us,
    })
}

fn json_to_field(v: &Value) -> Result<FieldValue, String> {
    match v {
        Value::U64(n) => Ok(FieldValue::U64(*n)),
        // Canonical integer form: non-negative is always U64 (the JSON
        // text is identical either way).
        Value::I64(n) => Ok(match u64::try_from(*n) {
            Ok(u) => FieldValue::U64(u),
            Err(_) => FieldValue::I64(*n),
        }),
        Value::F64(n) => Ok(FieldValue::F64(*n)),
        Value::Str(s) => Ok(FieldValue::Str(s.clone())),
        Value::Bool(b) => Ok(FieldValue::Bool(*b)),
        other => Err(format!("unsupported field value {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_every_field_type() {
        let record = Record {
            seq: 7,
            kind: RecordKind::Event,
            span: 3,
            parent: None,
            name: "costmodel.subplan".into(),
            fields: vec![
                f("disk", 2u64),
                f("delta", -4i64),
                f("cost_ms", 12.625),
                f("whole_ms", 3.0),
                f("reason", "bottleneck"),
                f("accepted", true),
            ],
            elapsed_us: None,
        };
        let line = record.to_jsonl();
        let parsed = parse_trace(&line).unwrap();
        assert_eq!(parsed, vec![record]);
    }

    #[test]
    fn span_records_round_trip_with_parent_and_elapsed() {
        let start = Record {
            seq: 0,
            kind: RecordKind::SpanStart,
            span: 2,
            parent: Some(1),
            name: "tsgreedy.iteration".into(),
            fields: vec![f("iter", 1u64)],
            elapsed_us: None,
        };
        let end = Record {
            seq: 1,
            kind: RecordKind::SpanEnd,
            span: 2,
            parent: None,
            name: "tsgreedy.iteration".into(),
            fields: Vec::new(),
            elapsed_us: Some(1234),
        };
        let text = format!("{}\n{}\n", start.to_jsonl(), end.to_jsonl());
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, vec![start, end]);
    }

    #[test]
    fn non_finite_floats_become_strings() {
        let record = Record {
            seq: 0,
            kind: RecordKind::Event,
            span: 0,
            parent: None,
            name: "x".into(),
            fields: vec![f("bad", f64::NAN)],
            elapsed_us: None,
        };
        let parsed = parse_trace(&record.to_jsonl()).unwrap();
        assert_eq!(parsed[0].field_str("bad"), Some("NaN"));
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let good = Record {
            seq: 0,
            kind: RecordKind::Event,
            span: 0,
            parent: None,
            name: "ok".into(),
            fields: Vec::new(),
            elapsed_us: None,
        };
        let text = format!("{}\n{{not json\n", good.to_jsonl());
        let err = parse_trace(&text).unwrap_err();
        assert_eq!(err.line, 2);
        let missing = parse_trace(r#"{"kind":"event","span":0,"name":"x"}"#).unwrap_err();
        assert!(missing.message.contains("seq"), "{}", missing.message);
        let bad_kind =
            parse_trace(r#"{"seq":0,"kind":"warp","span":0,"name":"x","fields":{}}"#).unwrap_err();
        assert!(bad_kind.message.contains("warp"));
    }

    #[test]
    fn field_accessors_coerce() {
        let record = Record {
            seq: 0,
            kind: RecordKind::Event,
            span: 0,
            parent: None,
            name: "x".into(),
            fields: vec![f("n", 5u64), f("i", 9i64), f("c", 2.5)],
            elapsed_us: None,
        };
        assert_eq!(record.field_u64("n"), Some(5));
        assert_eq!(record.field_u64("i"), Some(9));
        assert_eq!(record.field_f64("n"), Some(5.0));
        assert_eq!(record.field_f64("c"), Some(2.5));
        assert_eq!(record.field_str("n"), None);
        assert_eq!(record.field("missing"), None);
    }
}
