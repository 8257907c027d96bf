//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out once the traced pass ends.
//!
//! A span is `(name, start, end, parent)` on the benchmark's wall clock;
//! spans of one request or scenario share a `group` id. [`Tracer`] only
//! appends to a vector while the pass runs; [`Tracer::chrome_json`]
//! renders the Chrome `trace_event` format afterwards.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`collect`, `engine`, `client.connect`, ...).
    pub name: String,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: f64,
    /// End, microseconds since the tracer's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request or scenario the span belongs to.
    pub group: u64,
    /// Lane the span ran on (sender thread, or 0).
    pub lane: u64,
}

impl Span {
    /// Duration, microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Append-only span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// `t` on the tracer's clock, microseconds.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span (times on the tracer's clock) and return
    /// its index, for children to name as their parent.
    pub fn record(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        group: u64,
        lane: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            group,
            lane,
        });
        self.spans.len() - 1
    }

    /// Start a span on lane 0 now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>, group: u64) -> usize {
        let now = self.at(Instant::now());
        self.record(name, now, now, parent, group, 0)
    }

    /// End span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_us = self.at(Instant::now());
    }

    /// Time `f` as a span on lane 0 and return its result.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, parent, group);
        let out = f();
        self.close(index);
        out
    }

    /// Chrome `trace_event` JSON (complete events, one lane per `tid`).
    pub fn chrome_json(&self) -> String {
        let events: Vec<serde::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde::Value::Object(vec![
                    ("name".into(), serde::Value::Str(s.name.clone())),
                    ("ph".into(), serde::Value::Str("X".into())),
                    ("ts".into(), serde::Value::F64(s.start_us)),
                    ("dur".into(), serde::Value::F64(s.duration_us())),
                    ("pid".into(), serde::Value::U64(1)),
                    ("tid".into(), serde::Value::U64(s.lane)),
                    (
                        "args".into(),
                        serde::Value::Object(vec![
                            ("id".into(), serde::Value::U64(i as u64)),
                            (
                                "parent".into(),
                                s.parent
                                    .map_or(serde::Value::Null, |p| serde::Value::U64(p as u64)),
                            ),
                            ("group".into(), serde::Value::U64(s.group)),
                        ]),
                    ),
                ])
            })
            .collect();
        let root = serde::Value::Object(vec![("traceEvents".into(), serde::Value::Array(events))]);
        serde_json::to_string(&root).expect("trace events serialise")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_is_valid_json_with_parents() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.open("pass", None, 0);
        assert_eq!(tracer.time("child", Some(root), 0, || 41 + 1), 42);
        tracer.close(root);
        tracer.record("lane", 0.0, 1.0, Some(root), 0, 3);
        let parsed: serde::Value = serde_json::from_str(&tracer.chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&serde::Value::U64(0)));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&serde::Value::Null)
        );
        assert_eq!(events[2].get("tid"), Some(&serde::Value::U64(3)));
    }
}
