//! Outside-in span recorder: one span around each call the benchmark makes
//! into a layer's public functions. Spans are kept in memory and written
//! when the run ends; nothing here is linked into the program under test.

use crate::alloc;
use crate::json::Json;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The span that was open when this one started (`None` for a root).
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `factor.learn`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts taken at the same boundary, in insertion order.
    pub counts: Vec<(&'static str, f64)>,
    /// Allocator reading at open, in a [`Tracer::counting`] tracer.
    alloc_at_open: Option<alloc::AllocCounts>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The value of count `key`, `0.0` when the span has none.
    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The spans of one repair (or one feed) and of the probes beside it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    count_allocs: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            count_allocs: false,
        }
    }

    /// A tracer for the counted pass: every span also records what it
    /// allocated (`alloc_bytes`, `allocs`). The caller brackets the pass
    /// with [`alloc::start`] and [`alloc::stop`].
    pub fn counting() -> Self {
        Tracer {
            count_allocs: true,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
            alloc_at_open: self.count_allocs.then(alloc::snapshot),
        });
        self.open.push(id);
        // Read the clock last, so the span does not bill its own set-up.
        self.spans[id.0].start_ns = self.now_ns();
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        if let Some(before) = span.alloc_at_open.take() {
            let after = alloc::snapshot();
            span.counts.push((
                "alloc_bytes",
                (after.alloc_bytes - before.alloc_bytes) as f64,
            ));
            span.counts
                .push(("allocs", (after.allocs - before.allocs) as f64));
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (SpanId, R) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Attaches a work count to a span.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id.0].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Self time: the span's duration minus the part of it its direct
    /// children cover. Children are sequential and nested inside their
    /// parent, so that part is the sum of their durations.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id.0].duration_ns() - covered
    }

    /// `(name, self time in ms)` of every span, in start order.
    pub fn self_ms(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        (0..self.spans.len()).map(|i| (self.spans[i].name, self.self_ns(SpanId(i)) as f64 / 1e6))
    }

    /// The span list of a trace file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Int(i as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p.0 as i64)),
                        ),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        (
                            "counts",
                            Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v)))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set clocks: root 0..100 with children 10..30 and
    /// 40..90, the second with a grandchild 50..60; a second root 200..250.
    fn fixture() -> (Tracer, [SpanId; 5]) {
        let mut t = Tracer::new();
        let root = t.open("repair");
        let a = t.open("a");
        t.close(a);
        let b = t.open("b");
        let c = t.open("c");
        t.close(c);
        t.close(b);
        t.close(root);
        let probe = t.open("probe");
        t.close(probe);
        for (id, start, end) in [
            (root, 0, 100),
            (a, 10, 30),
            (b, 40, 90),
            (c, 50, 60),
            (probe, 200, 250),
        ] {
            t.spans[id.0].start_ns = start;
            t.spans[id.0].end_ns = end;
        }
        (t, [root, a, b, c, probe])
    }

    #[test]
    fn parents_follow_nesting() {
        let (t, [root, a, b, c, probe]) = fixture();
        assert_eq!(t.spans[root.0].parent, None);
        assert_eq!(t.spans[a.0].parent, Some(root));
        assert_eq!(t.spans[b.0].parent, Some(root));
        assert_eq!(t.spans[c.0].parent, Some(b));
        assert_eq!(
            t.spans[probe.0].parent, None,
            "probes hang off their own root"
        );
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let (t, [root, a, b, c, probe]) = fixture();
        assert_eq!(t.self_ns(root), 100 - 20 - 50);
        assert_eq!(t.self_ns(a), 20);
        assert_eq!(t.self_ns(b), 50 - 10, "a grandchild is billed once");
        assert_eq!(t.self_ns(c), 10);
        assert_eq!(t.self_ns(probe), 50);
        // Self times of a tree sum to its root's duration.
        let tree: u64 = [root, a, b, c].iter().map(|&s| t.self_ns(s)).sum();
        assert_eq!(tree, t.spans[root.0].duration_ns());
    }

    #[test]
    fn counts_and_json_shape() {
        let (mut t, [root, a, ..]) = fixture();
        t.count(a, "rows", 996.0);
        assert_eq!(t.spans[a.0].count("rows"), 996.0);
        assert_eq!(t.spans[a.0].count("absent"), 0.0);
        assert_eq!(t.find("a").map(|s| s.start_ns), Some(10));
        let json = t.to_json().to_string();
        assert!(json.starts_with(
            r#"[{"id":0,"parent":null,"name":"repair","start_ns":0,"end_ns":100,"counts":{}}"#
        ));
        assert!(json.contains(
            r#"{"id":1,"parent":0,"name":"a","start_ns":10,"end_ns":30,"counts":{"rows":996}}"#
        ));
        let _ = root;
    }

    #[test]
    fn span_closure_records_a_real_interval() {
        let mut t = Tracer::new();
        let (id, out) = t.span("work", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        assert_eq!(out, 49_995_000);
        assert!(t.spans[id.0].end_ns >= t.spans[id.0].start_ns);
        assert!(t.open.is_empty());
    }
}
