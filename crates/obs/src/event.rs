//! Structured events and their deterministic JSONL encoding.
//!
//! Encoding is hand-rolled rather than serde-derived so the byte layout is
//! fully pinned down by this module and the crate's JSON writer: fixed key
//! order, integer microsecond timestamps, shortest-round-trip float
//! formatting. Two campaigns with the same seeds therefore produce
//! byte-identical trace files regardless of platform or thread count.

use crate::json;
use crate::level::Level;
use wavm3_simkit::SimTime;

/// One structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (counts, bytes, indices).
    U64(u64),
    /// Floating-point measurement.
    F64(f64),
    /// Free-form text (labels, outcomes).
    Str(String),
}

macro_rules! from_int {
    ($($t:ty => $variant:ident as $as:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $as)
            }
        })*
    };
}

from_int!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(v as f64)
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

impl From<SimTime> for FieldValue {
    fn from(v: SimTime) -> Self {
        FieldValue::U64(v.as_micros())
    }
}

impl From<wavm3_simkit::SimDuration> for FieldValue {
    fn from(v: wavm3_simkit::SimDuration) -> Self {
        FieldValue::U64(v.as_micros())
    }
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            FieldValue::I64(i) => {
                out.push_str(&i.to_string());
            }
            FieldValue::U64(u) => {
                out.push_str(&u.to_string());
            }
            FieldValue::F64(f) => json::write_f64(out, *f),
            FieldValue::Str(s) => json::write_str(out, s),
        }
    }

    /// Console rendering (`key=value`, strings unquoted unless spaced).
    fn write_console(&self, out: &mut String) {
        match self {
            FieldValue::Str(s) if s.contains([' ', '=']) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            FieldValue::Str(s) => out.push_str(s),
            other => other.write_json(out),
        }
    }
}

/// One trace record: a point event, or a closed span when
/// [`Event::span_start`] is set (then [`Event::t`] is the span end).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation instant of the event (span end for spans).
    pub t: SimTime,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem ("migration", "runner", "consolidation", …).
    pub target: &'static str,
    /// Event name within the target ("phase.transfer", "runner.retry", …).
    pub name: &'static str,
    /// Span start instant; `None` for point events.
    pub span_start: Option<SimTime>,
    /// Key/value payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// One JSONL line (no trailing newline). Key order is fixed:
    /// `t_us, level, target, name, [span_start_us,] fields`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        out.push_str("{\"t_us\":");
        out.push_str(&self.t.as_micros().to_string());
        out.push_str(",\"level\":\"");
        out.push_str(self.level.as_str());
        out.push_str("\",\"target\":");
        json::write_str(&mut out, self.target);
        out.push_str(",\"name\":");
        json::write_str(&mut out, self.name);
        if let Some(start) = self.span_start {
            out.push_str(",\"span_start_us\":");
            out.push_str(&start.as_micros().to_string());
        }
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            v.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// One human console line.
    pub fn to_console(&self) -> String {
        let mut out = String::with_capacity(80);
        out.push_str(&format!(
            "[{:>10.3}s {:<5} {}] {}",
            self.t.as_secs_f64(),
            self.level.as_str(),
            self.target,
            self.name
        ));
        if let Some(start) = self.span_start {
            out.push_str(&format!(
                " span={:.3}s..{:.3}s",
                start.as_secs_f64(),
                self.t.as_secs_f64()
            ));
        }
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            v.write_console(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            t: SimTime::from_millis(1_500),
            level: Level::Info,
            target: "migration",
            name: "phase.transfer",
            span_start: Some(SimTime::from_millis(500)),
            fields: vec![
                ("bw", FieldValue::F64(1.15e8)),
                ("rounds", FieldValue::U64(3)),
                ("label", FieldValue::Str("0 VM".into())),
                ("aborted", FieldValue::Bool(false)),
            ],
        }
    }

    #[test]
    fn jsonl_layout_is_pinned() {
        assert_eq!(
            sample().to_jsonl(),
            "{\"t_us\":1500000,\"level\":\"info\",\"target\":\"migration\",\
             \"name\":\"phase.transfer\",\"span_start_us\":500000,\
             \"fields\":{\"bw\":115000000,\"rounds\":3,\"label\":\"0 VM\",\"aborted\":false}}"
        );
    }

    #[test]
    fn jsonl_escapes_strings() {
        let ev = Event {
            t: SimTime::ZERO,
            level: Level::Error,
            target: "t",
            name: "n",
            span_start: None,
            fields: vec![("msg", FieldValue::Str("a\"b\\c\nd".into()))],
        };
        assert!(ev.to_jsonl().contains("\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let ev = Event {
            t: SimTime::ZERO,
            level: Level::Info,
            target: "t",
            name: "n",
            span_start: None,
            fields: vec![("x", FieldValue::F64(f64::NAN))],
        };
        assert!(ev.to_jsonl().contains("\"x\":null"));
    }

    #[test]
    fn console_line_is_readable() {
        let line = sample().to_console();
        assert!(line.contains("info"));
        assert!(line.contains("phase.transfer"));
        assert!(line.contains("label=\"0 VM\""));
        assert!(line.contains("span=0.500s..1.500s"));
    }
}
