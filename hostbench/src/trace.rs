//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans wrap calls into the simulator's public functions from the
//! benchmark side: name (the layer), tag (e.g. the serving mode), host
//! start and end, parent span and op id. They are kept in memory and
//! written out as JSON when the run ends. Untraced runs use
//! [`Tracer::off`], whose spans record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    /// Index of the timed op the span belongs to; `None` in set-up and
    /// probes.
    pub op: Option<u64>,
    pub parent: Option<usize>,
    /// Host time since the tracer was created.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            counters: BTreeMap::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Runs `f` inside a span; nested `span` calls made by `f` through
    /// the tracer it receives become children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            op: self.op,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Adds `v` to a named counter (traced runs only).
    pub fn count(&mut self, key: impl Into<String>, v: f64) {
        if self.on {
            *self.counters.entry(key.into()).or_default() += v;
        }
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON document, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"op\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}{}",
                s.name,
                s.tag,
                opt(s.op),
                opt(s.parent.map(|p| p as u64)),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Calls, busy time and self time of one layer (one span name).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub busy: Duration,
    pub self_time: Duration,
}

/// Sums spans named `name` (and, when `tag` is given, tagged `tag`).
/// `timed_only` keeps the spans of timed ops and drops set-up ones.
pub fn layer(
    spans: &[Span],
    selfs: &[Duration],
    name: &str,
    tag: Option<&str>,
    timed_only: bool,
) -> LayerTime {
    let mut t = LayerTime::default();
    for (s, &st) in spans.iter().zip(selfs) {
        if s.name == name && tag.is_none_or(|g| g == s.tag) && (!timed_only || s.op.is_some()) {
            t.calls += 1;
            t.busy += s.dur();
            t.self_time += st;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name: "x",
            tag: "",
            op: Some(0),
            parent,
            start: Duration::from_micros(a),
            end: Duration::from_micros(b),
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        // Parent 0..100 with children 10..30, 20..50 (overlapping) and
        // 90..120 (running past the parent's end): covered 10..50 and
        // 90..100, so self time is 100 - 40 - 10 = 50.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),
            span(Some(0), 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], Duration::from_micros(50));
        assert_eq!(st[1], Duration::from_micros(20));
    }

    #[test]
    fn nested_spans_record_parents_and_layer_totals() {
        let mut t = Tracer::on();
        t.set_op(Some(3));
        t.span("op", "", |t| {
            t.span("tabulation", "flow", |_| ());
            t.span("event_loop", "flow", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == Some(3) && s.end >= s.start));
        let st = self_times(spans);
        let l = layer(spans, &st, "tabulation", Some("flow"), true);
        assert_eq!(l.calls, 1);
        assert_eq!(
            layer(spans, &st, "tabulation", Some("per_stream"), true).calls,
            0
        );
        assert!(st[0] <= spans[0].dur());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("op", "", |t| t.span("inner", "", |_| 7));
        t.count("c", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }
}
