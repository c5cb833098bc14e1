//! The harness's own spans: one around each public call it makes into
//! the program, kept in memory and written out when the run ends.
//!
//! A disabled [`Recorder`] records nothing and reads no clock, which
//! is how timed passes stay free of tracing.

use pdt_trace::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op (index within the pass) this span belongs to; spans of
    /// one op share it.
    pub op: Option<usize>,
}

pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    /// Parent (in the recorder this one was forked from) of this
    /// recorder's top-level spans.
    forked_under: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            forked_under: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A recorder for another thread, on the same clock; its top-level
    /// spans become children of this recorder's innermost open span
    /// once [`Recorder::absorb`]ed.
    pub fn fork(&self) -> Recorder {
        Recorder {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            forked_under: self.stack.last().copied(),
        }
    }

    pub fn absorb(&mut self, child: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset).or(child.forked_under),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |i| Json::Int(i as i64));
        self.spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Int(s.start_ns as i64)),
                    ("end_ns".into(), Json::Int(s.end_ns as i64)),
                    ("parent".into(), opt(s.parent)),
                    ("op".into(), opt(s.op)),
                ])
                .to_string()
                    + "\n"
            })
            .collect()
    }
}

/// Per-name roll-up of a span forest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of each span's interval that its child
    /// spans cover.
    pub self_ns: u64,
}

/// Self time per span name. Children may overlap each other (client
/// threads under one pass span), so a parent is charged for the
/// *union* of its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (lo, hi) in kids {
            if hi > reach {
                covered += hi - lo.max(reach);
                reach = hi;
            }
        }
        let total = s.end_ns - s.start_ns;
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += total;
        layer.self_ns += total - covered;
    }
    out
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
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("op", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("tune", 20, 90, Some(0)),
            span("eval", 30, 50, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["parse"].self_ns, 10);
        assert_eq!(t["tune"].self_ns, 50);
        assert_eq!(t["tune"].total_ns, 70);
        assert_eq!(t["eval"].self_ns, 20);
    }

    #[test]
    fn overlapping_children_are_charged_as_a_union() {
        // Two client threads under one pass: 10..60 and 40..90 cover
        // 80 ns of the parent, not 100.
        let spans = [
            span("pass", 0, 100, None),
            span("op", 10, 60, Some(0)),
            span("op", 40, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].self_ns, 20);
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["op"].total_ns, 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("a", 10, 20, None), span("b", 5, 30, Some(0))];
        assert_eq!(self_times(&spans)["a"].self_ns, 0);
    }

    #[test]
    fn recorder_nests_and_forks() {
        let mut rec = Recorder::new(true);
        rec.span("pass", None, |rec| {
            rec.span("op", Some(0), |_| ());
            let mut other = rec.fork();
            other.span("op", Some(1), |r| r.span("submit", Some(1), |_| ()));
            rec.absorb(other);
        });
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("pass", None),
                ("op", Some(0)),
                ("op", Some(0)),
                ("submit", Some(2))
            ]
        );
        assert_eq!(rec.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("op", None, |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
