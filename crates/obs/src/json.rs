//! The crate's one JSON writer: string literals, floats, and Chrome
//! `trace_event` documents.
//!
//! Hand-rolled rather than routed through serde_json so the bytes of the
//! trace, ledger and export files are pinned here: floats print in Rust's
//! shortest round-trip form (`3`, not serde_json's `3.0`) and non-finite
//! ones as `null`, since JSON has neither NaN nor infinity.

use std::fmt::Write as _;

/// Append `s` as a JSON string literal, quotes included.
pub(crate) fn write_str(out: &mut String, s: &str) {
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

/// Append `v` in shortest round-trip form, or `null` when it is not
/// finite.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append a nanosecond count as microseconds with three decimals, the
/// unit Chrome `trace_event` timestamps are read in.
pub(crate) fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// A Chrome `trace_event` document (`chrome://tracing`, Perfetto):
/// `{"displayTimeUnit":"ms","traceEvents":[…]}` holding only complete
/// (`"ph":"X"`) events, each with `ts` and `pid`.
pub(crate) struct ChromeTrace {
    out: String,
    empty: bool,
}

impl ChromeTrace {
    pub(crate) fn new() -> ChromeTrace {
        ChromeTrace {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            empty: true,
        }
    }

    /// Append one complete event covering `[ts_ns, ts_ns + dur_ns]`.
    /// `args` writes the members of the event's `args` object.
    pub(crate) fn complete(
        &mut self,
        cat: &str,
        name: &str,
        tid: u64,
        ts_ns: u64,
        dur_ns: u64,
        args: impl FnOnce(&mut String),
    ) {
        let out = &mut self.out;
        if !self.empty {
            out.push(',');
        }
        self.empty = false;
        let _ = write!(out, "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"cat\":");
        write_str(out, cat);
        out.push_str(",\"name\":");
        write_str(out, name);
        out.push_str(",\"ts\":");
        write_us(out, ts_ns);
        out.push_str(",\"dur\":");
        write_us(out, dur_ns);
        out.push_str(",\"args\":{");
        args(out);
        out.push_str("}}");
    }

    /// Close the document.
    pub(crate) fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_documents_hold_only_complete_events() {
        assert_eq!(
            ChromeTrace::new().finish(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        let mut doc = ChromeTrace::new();
        doc.complete("perf", "a", 1, 0, 2_500, |_| {});
        doc.complete("request", "b\"", 7, 1_000, 500, |out| {
            out.push_str("\"n\":1")
        });
        assert_eq!(
            doc.finish(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"perf\",\"name\":\"a\",\
             \"ts\":0.000,\"dur\":2.500,\"args\":{}},\
             {\"ph\":\"X\",\"pid\":1,\"tid\":7,\"cat\":\"request\",\"name\":\"b\\\"\",\
             \"ts\":1.000,\"dur\":0.500,\"args\":{\"n\":1}}]}"
        );
    }
}
