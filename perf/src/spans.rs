//! In-memory spans recorded around the calls into each layer, from the
//! benchmark's side of the interface. Nothing is written until the run
//! ends; a layer's self time is its span minus what its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// Operation id of spans recorded outside the timed section (set-up,
/// restore).
pub const NO_OP: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The operation that caused the span; spans of one operation share
    /// it.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: NO_OP }
    }

    /// Spans entered from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op: self.op });
        id
    }

    pub fn exit(&mut self, id: SpanId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Cost of one empty enter/exit pair in nanoseconds, over `n`
    /// pairs: what tracing adds to every span it records.
    pub fn span_cost_ns(n: usize) -> f64 {
        let mut t = Tracer::new();
        t.spans.reserve(n);
        let start = Instant::now();
        for _ in 0..n {
            let id = t.enter("empty");
            t.exit(id);
        }
        let cost = start.elapsed().as_nanos() as f64 / n as f64;
        std::hint::black_box(&t.spans);
        cost
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.duration_ns();
        }
    }
    own
}

/// Per span name: total duration, and the durations grouped by
/// operation (one entry per operation that entered the name, summed if
/// it entered more than once), for the spans `keep` selects.
pub struct ByName {
    pub total_ns: BTreeMap<&'static str, u64>,
    pub per_op_ns: BTreeMap<&'static str, BTreeMap<u32, u64>>,
}

pub fn by_name(spans: &[Span], keep: impl Fn(&Span) -> bool) -> ByName {
    let mut out = ByName { total_ns: BTreeMap::new(), per_op_ns: BTreeMap::new() };
    for s in spans.iter().filter(|s| keep(s)) {
        *out.total_ns.entry(s.name).or_default() += s.duration_ns();
        *out.per_op_ns.entry(s.name).or_default().entry(s.op).or_default() += s.duration_ns();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; op ⊃ b [50,90].
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a1", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::new();
        t.set_op(7);
        let op = t.enter("op");
        let a = t.enter("a");
        t.exit(a);
        let b = t.enter("b");
        t.exit(b);
        t.exit(op);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, op, op));
        assert!(s.iter().all(|x| x.op == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let grouped = by_name(s, |x| x.parent == op);
        assert_eq!(grouped.total_ns.len(), 2);
    }
}
