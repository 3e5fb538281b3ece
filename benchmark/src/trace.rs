//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only (spans inside the
//! crates are a later change), kept in memory, and written out when the run
//! ends. A disabled tracer records nothing, so the untraced run that
//! produces the end-to-end metrics pays one branch per call site.

use sdt::controller::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or unit) the span belongs to; spans of one request share it.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Switch recording on or off between units (never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = on;
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
    }

    /// Time one call into a layer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// `(occurrences, total self ns)` of the spans called `name`.
    pub fn total_self_ns(&self, name: &str) -> (u64, u64) {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(n, t), (_, ns)| (n + 1, t + ns))
    }

    /// Mean self time per occurrence of `name`, in `ns / per` units (per =
    /// 1e3 for µs, 1e6 for ms); 0 when the span never ran.
    pub fn mean_self(&self, name: &str, per: f64) -> f64 {
        match self.total_self_ns(name) {
            (0, _) => 0.0,
            (n, total) => total as f64 / n as f64 / per,
        }
    }

    /// Durations (children included) of the spans called `name`, in ns.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Durations of the spans that directly enclose a span called `child` —
    /// e.g. the whole requests that contained an admission.
    pub fn enclosing_ns(&self, child: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == child)
            .filter_map(|s| s.parent)
            .map(|p| self.spans[p].dur_ns())
            .collect()
    }

    /// Per-name totals, in first-seen order: `(name, occurrences, self ns)`.
    pub fn by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let own = self.self_times_ns();
        let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += ns;
                }
                None => rows.push((s.name, 1, ns)),
            }
        }
        rows
    }

    /// The spans as a JSON array, for `<out>.trace.json`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name)),
                        ("start_ns".into(), Json::u64(s.start_ns)),
                        ("end_ns".into(), Json::u64(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                        ),
                        ("request".into(), Json::u64(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

/// See [`Tracer::self_times_ns`]. Children never overlap each other (the
/// tracer is single-threaded and stack-disciplined), so the covered part of
/// a span is the plain sum of its direct children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("admit", 30, 90, Some(0)),
            span("proof", 40, 80, Some(2)),
        ];
        // request: 100 - 20 - 60; admit: 60 - 40; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(t.by_name().is_empty());
        assert_eq!(t.mean_self("x", 1e3), 0.0);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_request() {
        let mut t = Tracer::new(true);
        t.set_request(42);
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 42);
        let rows = t.by_name();
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec!["outer", "inner"]
        );
        let (n, _) = t.total_self_ns("inner");
        assert_eq!(n, 1);
    }
}
