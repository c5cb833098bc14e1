//! # pdt-trace — structured search telemetry
//!
//! A lightweight event layer for the tuning engine: spans, counters,
//! and flat key/value events that roll up into per-phase summaries and
//! export as JSONL. Zero dependencies (std only).
//!
//! The design constraint that shapes everything here is the workspace
//! determinism invariant: `tune()` output must be byte-identical across
//! runs and across checkpoint/resume. Consequently:
//!
//! * events carry **no wall-clock data** — only a session-scoped
//!   sequence number, a span depth, a kind, and caller-chosen fields;
//! * emission happens only at deterministic points of the session (the
//!   search loop, an evaluation's commit point);
//! * wall-clock timing lives exclusively in the [`PhaseSummary`]
//!   roll-up, where report consumers already expect a non-deterministic
//!   `elapsed`.
//!
//! Everything funnels through an internal mutex, so a `&Tracer` can be
//! shared freely; the engine threads `Option<&Tracer>` through its call
//! graph and the [`emit`]/[`incr`] free functions make the disabled
//! path a no-op.

pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A counting wrapper over the system allocator: every allocation on
/// any thread bumps two relaxed atomics. Installed as the process-wide
/// `#[global_allocator]` here (every workspace crate links `pdt-trace`),
/// so the hot-phase roll-ups can attribute allocation traffic as well
/// as wall-clock time. Deallocation is uncounted — the interesting
/// signal for the hot path is churn created, not freed.
pub struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counters are plain
// relaxed atomics with no allocation of their own.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

/// Process-wide (allocation count, bytes requested) since start.
/// Monotonic; subtract two snapshots to attribute a section.
pub fn allocation_counters() -> (u64, u64) {
    (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// A field value: the closed set of scalar types events may carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured event. `seq` is a session-scoped emission index and
/// `depth` the span-nesting level at emission time; both are assigned
/// under the tracer lock, so the event stream has one total order.
#[derive(Debug, Clone)]
pub struct Event {
    pub seq: u64,
    pub depth: u16,
    pub kind: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Append the event as one flat JSON object: `seq`/`depth`/`kind`
    /// first, then the fields in emission order. Streams straight into
    /// `out` — JSONL export and checkpoint records both render through
    /// here, so the two can never disagree on a byte.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        json::write_int(out, self.seq as i64);
        out.push_str(",\"depth\":");
        json::write_int(out, i64::from(self.depth));
        out.push_str(",\"kind\":");
        json::write_escaped(out, self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            json::write_escaped(out, k);
            out.push(':');
            match v {
                Value::U64(x) => json::write_int(out, *x as i64),
                Value::I64(x) => json::write_int(out, *x),
                Value::F64(x) => json::write_num(out, *x),
                Value::Bool(x) => json::write_bool(out, *x),
                Value::Str(x) => json::write_escaped(out, x),
            }
        }
        out.push('}');
    }
}

/// Wall-clock and event-count roll-up of one closed span.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    pub name: &'static str,
    /// Events emitted while the span was open (its own begin/end
    /// markers included).
    pub events: u64,
    /// Wall-clock time the span was open. The only non-deterministic
    /// datum the tracer records; consumers comparing traces across
    /// runs must zero it, exactly like `TuningReport::elapsed`.
    pub elapsed: Duration,
}

/// The four hot-path sections of the relaxation loop, measured by
/// [`Tracer::hot_span`]. The variants index [`TraceSummary::hot_phases`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotPhase {
    /// Transformation enumeration (from scratch or by delta).
    Candidates,
    /// §3.3.2 bound pricing of fresh candidates (describe + bound).
    Pricing,
    /// Workload cost evaluation (what-if optimizer calls + shells).
    Eval,
    /// §3.6 skyline dominance filtering of the open candidate pool.
    Skyline,
}

impl HotPhase {
    pub const ALL: [HotPhase; 4] = [
        HotPhase::Candidates,
        HotPhase::Pricing,
        HotPhase::Eval,
        HotPhase::Skyline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            HotPhase::Candidates => "candidates",
            HotPhase::Pricing => "pricing",
            HotPhase::Eval => "eval",
            HotPhase::Skyline => "skyline",
        }
    }
}

/// Wall-clock + allocation roll-up of one hot-path section, summed
/// over every visit. Like [`PhaseSummary::elapsed`], every field here
/// is non-deterministic measurement data: it never enters the event
/// stream, checkpoints, or [`TraceState`], and consumers comparing
/// summaries across runs must clear it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotPhaseStat {
    pub name: &'static str,
    /// Times the section was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds inside the section.
    pub nanos: u64,
    /// Heap allocations performed while inside (process-wide, so
    /// worker-thread allocations during a section count toward it).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// The deterministic roll-up of a whole trace: totals, named counters,
/// and the closed phases in completion order.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total events emitted.
    pub events: u64,
    /// Named counters in name order.
    pub counters: Vec<(&'static str, u64)>,
    pub phases: Vec<PhaseSummary>,
    /// Hot-path measurement roll-up, one entry per [`HotPhase`] in
    /// `HotPhase::ALL` order. Wall-clock + allocation data only —
    /// non-deterministic, excluded from traces and checkpoints.
    pub hot_phases: Vec<HotPhaseStat>,
}

impl TraceSummary {
    /// Value of a named counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

#[derive(Debug)]
struct Inner {
    events: Vec<Event>,
    depth: u16,
    counters: BTreeMap<&'static str, u64>,
    phases: Vec<PhaseSummary>,
    /// Indexed by `HotPhase as usize`; purely measurement data, not
    /// part of [`TraceState`] (a resumed session keeps accumulating
    /// into its own live counters).
    hot: Vec<HotPhaseStat>,
}

fn fresh_hot_stats() -> Vec<HotPhaseStat> {
    HotPhase::ALL
        .iter()
        .map(|p| HotPhaseStat {
            name: p.name(),
            ..HotPhaseStat::default()
        })
        .collect()
}

/// The event collector. Interior-mutable: share `&Tracer` freely.
#[derive(Debug)]
pub struct Tracer {
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            inner: Mutex::new(Inner {
                events: Vec::new(),
                depth: 0,
                counters: BTreeMap::new(),
                phases: Vec::new(),
                hot: fresh_hot_stats(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The tracer holds no invariants a panicking emitter could
        // break mid-update; recover instead of poisoning the session.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emit one event at the current span depth.
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        let mut inner = self.lock();
        let seq = inner.events.len() as u64;
        let depth = inner.depth;
        inner.events.push(Event {
            seq,
            depth,
            kind,
            fields,
        });
    }

    /// Add `n` to a named counter.
    pub fn incr(&self, counter: &'static str, n: u64) {
        *self.lock().counters.entry(counter).or_insert(0) += n;
    }

    /// Current value of a named counter.
    pub fn counter(&self, counter: &str) -> u64 {
        self.lock().counters.get(counter).copied().unwrap_or(0)
    }

    /// Events emitted so far.
    pub fn len(&self) -> u64 {
        self.lock().events.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a span: emits `span.begin`, increments the nesting depth,
    /// and returns a guard whose drop emits `span.end` and records a
    /// [`PhaseSummary`].
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let events_at_open = {
            let mut inner = self.lock();
            let seq = inner.events.len() as u64;
            let depth = inner.depth;
            inner.events.push(Event {
                seq,
                depth,
                kind: "span.begin",
                fields: vec![("name", Value::Str(name.to_string()))],
            });
            inner.depth += 1;
            seq
        };
        Span {
            tracer: self,
            name,
            start: Instant::now(),
            events_at_open,
        }
    }

    /// Open a hot-path measurement section. Unlike [`span`](Tracer::span)
    /// this emits nothing and touches no deterministic state — the
    /// guard's drop folds wall-clock time and allocation deltas into
    /// the [`HotPhaseStat`] for `phase`. Reentrant use would double-
    /// count allocations; the engine's sections never nest.
    pub fn hot_span(&self, phase: HotPhase) -> HotSpan<'_> {
        let (allocs, bytes) = allocation_counters();
        HotSpan {
            tracer: self,
            phase,
            start: Instant::now(),
            allocs_at_open: allocs,
            bytes_at_open: bytes,
        }
    }

    /// Snapshot the deterministic roll-up.
    pub fn summary(&self) -> TraceSummary {
        let inner = self.lock();
        TraceSummary {
            events: inner.events.len() as u64,
            counters: inner.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            phases: inner.phases.clone(),
            hot_phases: inner.hot.clone(),
        }
    }

    /// Render every event as one compact JSON object per line.
    pub fn to_jsonl(&self) -> String {
        self.events_jsonl_from(0).0
    }

    /// Render the events with `seq >= from` as JSONL, returning the
    /// rendered text and the next unseen seq. Repeated calls with the
    /// returned cursor stream a live session's trace incrementally —
    /// the serve layer's `watch` op is built on this. Because `seq` is
    /// dense and append-only, the concatenation of every streamed chunk
    /// is byte-identical to [`to_jsonl`](Tracer::to_jsonl) at the end.
    pub fn events_jsonl_from(&self, from: u64) -> (String, u64) {
        let inner = self.lock();
        let mut out = String::new();
        for e in inner.events.iter().skip(from as usize) {
            e.write_json(&mut out);
            out.push('\n');
        }
        (out, inner.events.len() as u64)
    }

    /// Mark the stream at this instant: O(1) in the events emitted so
    /// far (the counters are a fixed, small vocabulary). Events and
    /// closed phases are append-only, so the mark holds only their
    /// counts; [`read_prefix`](Tracer::read_prefix) hands out what lies
    /// below a mark later, however far the stream has moved on.
    pub fn mark(&self) -> TraceMark {
        let inner = self.lock();
        TraceMark {
            events: inner.events.len() as u64,
            depth: inner.depth,
            counters: inner.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            phases: inner.phases.len(),
        }
    }

    /// Run `f` over the events with `from <= seq < mark.events` and the
    /// phases closed before `mark`, under the tracer lock — a
    /// checkpoint record renders them in place instead of cloning them.
    pub fn read_prefix<R>(
        &self,
        from: u64,
        mark: &TraceMark,
        f: impl FnOnce(&[Event], &[PhaseSummary]) -> R,
    ) -> R {
        let inner = self.lock();
        f(
            &inner.events[from as usize..mark.events as usize],
            &inner.phases[..mark.phases],
        )
    }

    /// Replace the tracer's state wholesale with a checkpointed one.
    /// Used on resume: the restored stream continues exactly where the
    /// checkpointed session left off (same seq, same depth).
    pub fn restore_state(&self, state: TraceState) {
        let mut inner = self.lock();
        inner.events = state.events;
        inner.depth = state.depth;
        inner.counters = state.counters.into_iter().collect();
        inner.phases = state.phases;
    }

    /// Re-open a span that was already open (its `span.begin` event is
    /// in the restored stream) without emitting anything or touching
    /// the depth. Dropping the returned guard closes the span normally,
    /// counting events from `events_at_open` — the original begin seq —
    /// so the phase roll-up matches an uninterrupted run.
    pub fn resume_span(&self, name: &'static str, events_at_open: u64) -> Span<'_> {
        Span {
            tracer: self,
            name,
            start: Instant::now(),
            events_at_open,
        }
    }
}

/// A position in a [`Tracer`]'s stream; see [`Tracer::mark`].
#[derive(Debug, Clone)]
pub struct TraceMark {
    /// Events emitted before the mark (the next event's `seq`).
    pub events: u64,
    pub depth: u16,
    /// Every named counter's value at the mark, in name order.
    pub counters: Vec<(&'static str, u64)>,
    /// Phases closed before the mark.
    pub phases: usize,
}

/// A [`Tracer`]'s full deterministic state, as a checkpoint carries it.
#[derive(Debug, Clone)]
pub struct TraceState {
    pub events: Vec<Event>,
    pub depth: u16,
    pub counters: Vec<(&'static str, u64)>,
    pub phases: Vec<PhaseSummary>,
}

/// An open span; dropping it closes the phase.
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start: Instant,
    events_at_open: u64,
}

impl Span<'_> {
    /// Sequence number of this span's `span.begin` event; persisted in
    /// checkpoints so [`Tracer::resume_span`] can re-open the span with
    /// the same event-count baseline.
    pub fn events_at_open(&self) -> u64 {
        self.events_at_open
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let mut inner = self.tracer.lock();
        inner.depth = inner.depth.saturating_sub(1);
        let seq = inner.events.len() as u64;
        let depth = inner.depth;
        inner.events.push(Event {
            seq,
            depth,
            kind: "span.end",
            fields: vec![("name", Value::Str(self.name.to_string()))],
        });
        let events = seq + 1 - self.events_at_open;
        inner.phases.push(PhaseSummary {
            name: self.name,
            events,
            elapsed,
        });
    }
}

/// An open hot-path measurement section; dropping it folds the
/// elapsed time and allocation delta into the phase's roll-up.
pub struct HotSpan<'a> {
    tracer: &'a Tracer,
    phase: HotPhase,
    start: Instant,
    allocs_at_open: u64,
    bytes_at_open: u64,
}

impl Drop for HotSpan<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        let (allocs, bytes) = allocation_counters();
        let mut inner = self.tracer.lock();
        let stat = &mut inner.hot[self.phase as usize];
        stat.calls += 1;
        stat.nanos += nanos;
        stat.allocs += allocs.saturating_sub(self.allocs_at_open);
        stat.alloc_bytes += bytes.saturating_sub(self.bytes_at_open);
    }
}

/// Open a hot-path section through an optional tracer (no-op when
/// tracing is off).
pub fn hot_span<'a>(tracer: Option<&'a Tracer>, phase: HotPhase) -> Option<HotSpan<'a>> {
    tracer.map(|t| t.hot_span(phase))
}

/// Emit through an optional tracer (no-op when tracing is off).
pub fn emit(tracer: Option<&Tracer>, kind: &'static str, fields: Vec<(&'static str, Value)>) {
    if let Some(t) = tracer {
        t.emit(kind, fields);
    }
}

/// Increment a counter through an optional tracer.
pub fn incr(tracer: Option<&Tracer>, counter: &'static str, n: u64) {
    if let Some(t) = tracer {
        t.incr(counter, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sequenced_and_nested() {
        let t = Tracer::new();
        t.emit("a", vec![("x", 1u64.into())]);
        {
            let _s = t.span("phase");
            t.emit("b", vec![("y", 2.5.into()), ("s", "hi".into())]);
        }
        t.emit("c", vec![]);
        let s = t.summary();
        // a, span.begin, b, span.end, c
        assert_eq!(s.events, 5);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].name, "phase");
        assert_eq!(s.phases[0].events, 3, "begin + b + end");
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        // Depth rises inside the span, seq is dense from 0.
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).expect("valid json");
            assert_eq!(v.get("seq").and_then(json::Json::as_i64), Some(i as i64));
        }
        assert_eq!(
            json::parse(lines[2])
                .unwrap()
                .get("depth")
                .and_then(json::Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn counters_accumulate() {
        let t = Tracer::new();
        t.incr("calls", 3);
        t.incr("calls", 4);
        t.incr("hits", 1);
        assert_eq!(t.counter("calls"), 7);
        assert_eq!(t.counter("nope"), 0);
        let s = t.summary();
        assert_eq!(s.counter("calls"), 7);
        assert_eq!(s.counter("hits"), 1);
        // Counters come back in name order.
        assert_eq!(s.counters[0].0, "calls");
        assert_eq!(s.counters[1].0, "hits");
    }

    #[test]
    fn optional_tracer_helpers_noop_when_disabled() {
        emit(None, "ignored", vec![("x", 1u64.into())]);
        incr(None, "ignored", 5);
        let t = Tracer::new();
        emit(Some(&t), "kept", vec![]);
        incr(Some(&t), "kept", 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.counter("kept"), 2);
    }

    #[test]
    fn jsonl_round_trips_field_types() {
        let t = Tracer::new();
        t.emit(
            "kinds",
            vec![
                ("u", Value::U64(42)),
                ("i", Value::I64(-7)),
                ("f", Value::F64(1.5)),
                ("b", Value::Bool(true)),
                ("s", Value::Str("a \"quoted\"\nline".to_string())),
            ],
        );
        let line = t.to_jsonl();
        let v = json::parse(line.trim()).expect("valid json");
        assert_eq!(v.get("u").and_then(json::Json::as_i64), Some(42));
        assert_eq!(v.get("i").and_then(json::Json::as_i64), Some(-7));
        assert_eq!(v.get("f").and_then(json::Json::as_f64), Some(1.5));
        assert_eq!(v.get("b"), Some(&json::Json::Bool(true)));
        assert_eq!(
            v.get("s"),
            Some(&json::Json::Str("a \"quoted\"\nline".to_string()))
        );
    }

    /// What a checkpoint folds out of a mark: the state below it.
    fn state_at(t: &Tracer, mark: &TraceMark) -> TraceState {
        t.read_prefix(0, mark, |events, phases| TraceState {
            events: events.to_vec(),
            depth: mark.depth,
            counters: mark.counters.clone(),
            phases: phases.to_vec(),
        })
    }

    #[test]
    fn mark_restore_resume_is_byte_identical() {
        // Reference: one uninterrupted session with an open span.
        let full = {
            let t = Tracer::new();
            let s = t.span("search");
            for i in 0..6u64 {
                t.emit("step", vec![("i", i.into())]);
            }
            drop(s);
            t.to_jsonl()
        };
        // Checkpointed session: snapshot mid-span, restore into a fresh
        // tracer, resume the span, finish the work.
        let (state, begin_seq) = {
            let t = Tracer::new();
            let s = t.span("search");
            for i in 0..3u64 {
                t.emit("step", vec![("i", i.into())]);
            }
            // The mark outlives the instant it was taken at: whatever
            // the stream does next stays above it.
            let mark = t.mark();
            t.emit("step", vec![("i", 99u64.into())]);
            t.incr("late", 1);
            let state = state_at(&t, &mark);
            assert_eq!(state.events.len(), 4, "begin + 3 steps");
            assert!(state.counters.is_empty());
            let begin_seq = s.events_at_open();
            std::mem::forget(s); // span stays "open" in the snapshot
            (state, begin_seq)
        };
        let t = Tracer::new();
        t.restore_state(state);
        let s = t.resume_span("search", begin_seq);
        for i in 3..6u64 {
            t.emit("step", vec![("i", i.into())]);
        }
        drop(s);
        assert_eq!(t.to_jsonl(), full);
        let summary = t.summary();
        assert_eq!(summary.phases.len(), 1);
        assert_eq!(summary.phases[0].events, 8, "begin + 6 steps + end");
    }

    #[test]
    fn hot_spans_measure_without_emitting() {
        let t = Tracer::new();
        {
            let _h = t.hot_span(HotPhase::Eval);
            let v: Vec<u64> = Vec::with_capacity(64);
            std::hint::black_box(&v);
        }
        {
            let _h = t.hot_span(HotPhase::Eval);
        }
        assert_eq!(t.len(), 0, "hot spans must not enter the event stream");
        let s = t.summary();
        assert_eq!(s.hot_phases.len(), HotPhase::ALL.len());
        let eval = &s.hot_phases[HotPhase::Eval as usize];
        assert_eq!(eval.name, "eval");
        assert_eq!(eval.calls, 2);
        assert!(eval.allocs >= 1, "the Vec allocation must be attributed");
        assert!(eval.alloc_bytes >= 64 * 8);
        // Marks exclude measurement data entirely.
        assert_eq!(t.mark().events, 0);
    }

    #[test]
    fn incremental_streaming_matches_full_render() {
        let t = Tracer::new();
        let mut streamed = String::new();
        let mut cursor = 0u64;
        for i in 0..7u64 {
            t.emit("step", vec![("i", i.into())]);
            if i % 3 == 0 {
                let (chunk, next) = t.events_jsonl_from(cursor);
                streamed.push_str(&chunk);
                cursor = next;
            }
        }
        let (chunk, next) = t.events_jsonl_from(cursor);
        streamed.push_str(&chunk);
        assert_eq!(next, t.len());
        assert_eq!(streamed, t.to_jsonl());
        // A caught-up cursor yields nothing.
        let (empty, again) = t.events_jsonl_from(next);
        assert!(empty.is_empty());
        assert_eq!(again, next);
    }

    #[test]
    fn identical_emission_sequences_are_byte_identical() {
        let run = || {
            let t = Tracer::new();
            let s = t.span("search");
            for i in 0..10u64 {
                t.emit(
                    "step",
                    vec![("i", i.into()), ("cost", (i as f64 * 0.1).into())],
                );
            }
            drop(s);
            t.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
