//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only (nothing under
//! `crates/` is instrumented), kept in memory, and written out once when
//! the run ends. A span's self time is its duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;
use xia_obs::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Name of the layer call, `layer.call`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`. Tracers of several client
    /// threads share one epoch so their spans line up in one file.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// The instant span times are counted from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the op id given to the spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans `f` records become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Self time of every span in nanoseconds: its duration minus the union
/// of its direct children's intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: total self time in milliseconds divided by `ops`.
pub fn self_ms_per_op(spans: &[Span], ops: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6 / ops.max(1) as f64;
    }
    out
}

/// Median over ops of the time the op's root spans cover, in
/// milliseconds: the "staged sum" compared with the untraced op median.
pub fn root_ms_per_op(spans: &[Span]) -> Vec<f64> {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        *per_op.entry(s.op).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
    }
    per_op.into_values().collect()
}

/// The trace file: one object per span plus the self-time summary.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], ops: usize) -> Json {
    let selfs = self_times_ns(spans);
    let span_objs = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op".into(), Json::Num(s.op as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num(self_ns as f64)),
            ])
        })
        .collect();
    let summary = self_ms_per_op(spans, ops)
        .into_iter()
        .map(|(name, ms)| (name.to_string(), Json::Num(ms)))
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("ops".into(), Json::Num(ops as f64)),
        ("self_ms_per_op".into(), Json::Obj(summary)),
        ("spans".into(), Json::Arr(span_objs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // A child from another thread's clock running past its parent.
            span("c", 190, 230, Some(0)),
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_absorbs_other_threads() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.set_op(7);
        let out = t.span("outer", |t| t.span("inner", |_| 42));
        assert_eq!(out, 42);
        let mut other = Tracer::new(epoch);
        other.span("x", |t| t.span("y", |_| ()));
        t.absorb(other);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["outer", "inner", "x", "y"]
        );
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[1].op, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn summaries_divide_by_ops_and_group_roots() {
        let mut spans = vec![
            span("load", 0, 2_000_000, None),
            span("search", 2_000_000, 3_000_000, None),
            span("load", 5_000_000, 9_000_000, None),
        ];
        spans[2].op = 1;
        let per = self_ms_per_op(&spans, 2);
        assert_eq!(per["load"], 3.0);
        assert_eq!(per["search"], 0.5);
        assert_eq!(root_ms_per_op(&spans), vec![3.0, 4.0]);
        let file = to_json("w", 1, &spans, 2).render();
        assert!(Json::parse(&file).is_ok());
    }
}
