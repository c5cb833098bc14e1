//! Checkpoint/resume for tuning sessions.
//!
//! A checkpoint is a *fuzzy snapshot plus deterministic redo*, in the
//! spirit of ARIES: rather than serializing the whole search pool
//! (nodes, scored candidates, tried-sets), it persists only what replay
//! cannot cheaply regenerate — the what-if cost cache, the trace
//! stream, the RNG state, counters, and contained faults. On resume the
//! engine re-executes setup and iterations `1..=iteration`
//! *silently* (tracing suspended, stop control disabled, fault/
//! checkpoint recording off); the restored cache turns every committed
//! evaluation into pure hits, so the replay costs almost no optimizer
//! calls. At `iteration + 1` the session "goes live": replayed state is
//! verified against the checkpoint's [`Head`] (iteration, RNG state,
//! frontier length, call-budget ledger, best cost), counters and trace
//! are restored, and the run continues — byte-identical to one that was
//! never interrupted.
//!
//! Everything a checkpoint holds is append-only (cache entries, trace
//! events, faults) or a handful of scalars, so
//! a session writes it as a **log of records**, each costing what
//! changed since the one before. The first record a sink receives is a
//! complete document ([`Checkpoint::from_json_str`] reads it); every
//! later one is a *delta*: the header scalars, plus only the entries,
//! events and faults added since the previous record.
//! [`Checkpoint::apply_record`] folds a delta in, and the fold of
//! records `0..=k` is exactly the state at record `k`'s iteration — so
//! any prefix of the log is a resumable checkpoint and the whole log is
//! the size of one snapshot. On disk each record is framed
//! ([`Checkpoint::frame_record`]: length, checksum, body, newline) and
//! [`Checkpoint::from_log`] folds the longest intact prefix, which is
//! what makes a plain `append` + `fdatasync` crash-safe: a torn tail is
//! a record that does not check out, and is dropped.
//!
//! Records are JSON, streamed straight into one reused `String` (no
//! value tree; `pdt-trace`'s parser reads them back). Entry batches are
//! sorted by key and floats use the shortest round-trip rendering, so a
//! given state serializes to the same bytes every time. Signatures rely
//! on `std`'s `DefaultHasher`, which is only stable within one build —
//! checkpoints are same-binary artifacts, and `validate` rejects
//! anything else.
//!
//! This module is the one owner of the record format: the [`Head`] every
//! record carries, the session's `Capture` that writes the records, and
//! the checks and restore a resume makes.

use crate::arena::sort_batch;
use crate::cache::{CacheEntry, CostCache, DerivedTally};
use crate::derived::QueryRelevance;
use crate::error::TuneError;
use crate::fault::{FaultEvent, FaultKind};
use crate::search::{CheckpointSink, SessionCtl, TuningReport};
use pdt_catalog::{ColumnId, TableId};
use pdt_opt::{IndexUsage, UsageKind};
use pdt_physical::{Configuration, Index};
use pdt_trace::json::{self, write_bool, write_escaped, write_int, write_num, Json};
use pdt_trace::{PhaseSummary, TraceMark, TraceState, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Debug, Write};
use std::sync::Mutex;
use std::time::Duration;

const VERSION: i64 = 9;
const KIND: &str = "pdtune-checkpoint";
const DELTA_KIND: &str = "pdtune-checkpoint-delta";

/// Serialized mid-session state; see the module docs for the model.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Hash of every decision-relevant tuner option plus the workload;
    /// resume refuses a session that would make different decisions.
    pub options_sig: u64,
    /// `Configuration::base(db).signature()` — a same-build probe that
    /// the database (and the binary's hasher) match.
    pub base_sig: u64,
    /// Reference costs verified bitwise after the setup replay.
    pub initial_cost: f64,
    pub optimal_cost: f64,
    /// `(cost, size_bytes)` of the warm-start deployed configuration
    /// (`TunerOptions::deployed`), verified bitwise after the setup
    /// replay like the costs above; `None` for cold sessions.
    pub deployed: Option<(f64, f64)>,
    /// The scalars of the last record folded in.
    pub head: Head,
    pub faults: Vec<FaultEvent>,
    /// Every cost-cache entry, sorted by `(query, signature)`.
    pub cache: Vec<((usize, u128), CacheEntry)>,
    /// Per-query relevance rows ([`crate::derived::RelevanceTable`]).
    /// Pure function of the (already-validated) workload and database —
    /// persisted so resume can verify the rebuilt table matches instead
    /// of trusting it blindly.
    pub relevance: Vec<Option<QueryRelevance>>,
    pub trace: Option<TraceCheckpoint>,
}

/// The scalars every record carries — the whole header of a delta. A
/// session builds one from its state at each boundary it marks, and
/// again at go-live, where replay must have regenerated every field but
/// the counters (`Head::restore` puts those back).
#[derive(Debug, Clone, Copy)]
pub struct Head {
    /// Completed search iterations at capture time; replay re-executes
    /// `1..=iteration` and goes live after.
    pub iteration: usize,
    pub rng_state: u64,
    pub optimizer_calls: usize,
    /// Call-budget ledger at capture time (worst-case charges spent /
    /// estimates served; see `TunerOptions::optimizer_call_budget`).
    /// Charging is a pure function of the replayed trajectory, so replay
    /// regenerates both; persisting them lets go-live verify the replay
    /// made the same spend/skip decisions.
    pub budget_spent: u64,
    pub budget_skipped: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Derived-costing counters at capture time (avoided calls, plan
    /// cache hits/misses/repricings). Restored at go-live like the
    /// cache counters: the silent replay serves everything from the
    /// pre-warmed cache and would otherwise under-count.
    pub derived: DerivedTally,
    /// `(cost, size_bytes)` of the best configuration so far, used to
    /// verify replay fidelity (the configuration itself is regenerated
    /// by the replay).
    pub best: Option<(f64, f64)>,
    pub frontier_len: usize,
}

impl Head {
    /// The header of a live session at its current boundary.
    fn of(live: &Live<'_>) -> Head {
        let (report, cache) = (live.report, live.cache);
        Head {
            iteration: report.iterations,
            rng_state: live.rng_state,
            optimizer_calls: report.optimizer_calls,
            budget_spent: live.budget.0,
            budget_skipped: live.budget.1,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            derived: cache.derived_counters(),
            best: report.best.as_ref().map(|b| (b.cost, b.size_bytes)),
            frontier_len: report.frontier.len(),
        }
    }

    /// At go-live, what replay must regenerate: the first such field the
    /// replayed session gets wrong, as a resume error naming it.
    pub(crate) fn check_replay(&self, live: &Live<'_>) -> Result<(), TuneError> {
        let (r, c) = (&Head::of(live), self);
        let context = format!(
            "replay diverged from the checkpoint at iteration {}",
            c.iteration
        );
        check_fields(
            &context,
            &[
                field("iteration", &r.iteration, &c.iteration),
                field("rng_state", &r.rng_state, &c.rng_state),
                field("frontier_len", &r.frontier_len, &c.frontier_len),
                field("budget_spent", &r.budget_spent, &c.budget_spent),
                field("budget_skipped", &r.budget_skipped, &c.budget_skipped),
                costs("best", &r.best, &c.best),
            ],
        )
    }

    /// What replay cannot regenerate: its evaluations hit the restored
    /// cache instead of calling the optimizer, so the call and cache
    /// counters are put back from the checkpoint. (The candidate
    /// generated/reused counters replay exactly — replay prices the same
    /// candidates — so neither needs a field.)
    pub(crate) fn restore(&self, report: &mut TuningReport, cache: &CostCache) {
        report.optimizer_calls = self.optimizer_calls;
        cache.set_counters(self.cache_hits, self.cache_misses);
        cache.set_derived_counters(self.derived);
    }
}

/// One field a resume check compares: its name, this session's value,
/// the checkpoint's, and whether they agree.
type Field<'v> = (&'v str, &'v dyn Debug, &'v dyn Debug, bool);

fn field<'v, T: Debug + PartialEq>(name: &'v str, session: &'v T, checkpoint: &'v T) -> Field<'v> {
    (name, session, checkpoint, session == checkpoint)
}

/// A cost compared bit for bit: a replay regenerates costs exactly.
fn cost<'v>(name: &'v str, session: &'v f64, checkpoint: &'v f64) -> Field<'v> {
    let same = session.to_bits() == checkpoint.to_bits();
    (name, session, checkpoint, same)
}

/// A `(cost, size_bytes)` pair compared bit for bit, like [`cost`].
fn costs<'v>(
    name: &'v str,
    session: &'v Option<(f64, f64)>,
    checkpoint: &'v Option<(f64, f64)>,
) -> Field<'v> {
    let bits = |p: &Option<(f64, f64)>| p.map(|(cost, size)| (cost.to_bits(), size.to_bits()));
    (name, session, checkpoint, bits(session) == bits(checkpoint))
}

/// The resume error naming the first of `fields` that disagrees, with
/// both values.
fn check_fields(context: &str, fields: &[Field<'_>]) -> Result<(), TuneError> {
    let Some((name, session, checkpoint, _)) = fields.iter().find(|f| !f.3) else {
        return Ok(());
    };
    Err(TuneError::Checkpoint(format!(
        "{context}: {name} {session:?} in this session vs {checkpoint:?} in the checkpoint"
    )))
}

/// The tracer's full state plus the seq of the open `search` span's
/// begin event (needed to re-open the span on resume).
#[derive(Debug, Clone)]
pub struct TraceCheckpoint {
    pub state: TraceState,
    pub open_span_seq: u64,
}

impl Checkpoint {
    /// Reject a checkpoint that does not match this session's options,
    /// workload, or database (or was written by a different build).
    pub fn validate(&self, options_sig: u64, base_sig: u64) -> Result<(), TuneError> {
        check_fields(
            "checkpoint was written for different tuner options, workload or database (or by \
             a different build)",
            &[
                field("options_sig", &options_sig, &self.options_sig),
                field("base_sig", &base_sig, &self.base_sig),
            ],
        )
    }

    /// Before a resumed session does any work: [`validate`](Self::validate),
    /// then refuse an untraced checkpoint for a traced session (its trace
    /// could not be continued) and a relevance table other than the one
    /// the session rebuilt from its workload.
    pub(crate) fn check_identity(
        &self,
        options_sig: u64,
        base_sig: u64,
        traced: bool,
        relevance: &[Option<QueryRelevance>],
    ) -> Result<(), TuneError> {
        self.validate(options_sig, base_sig)?;
        let (rows, has_trace) = (&self.relevance, self.trace.is_some());
        let row = (0..relevance.len().max(rows.len()))
            .find(|&q| relevance.get(q) != rows.get(q))
            .unwrap_or(0);
        let (name, mine, theirs) = (
            format!("relevance row {row}"),
            relevance.get(row),
            rows.get(row),
        );
        check_fields(
            "checkpoint does not match this session",
            &[
                ("trace", &traced, &has_trace, has_trace || !traced),
                (&name, &mine, &theirs, relevance == rows),
            ],
        )
    }

    /// After the setup replay: the reference costs must be the
    /// checkpointed ones bit for bit — anything else means the database
    /// or cost model changed in a way the signatures could not see.
    pub(crate) fn check_setup(&self, live: &Live<'_>) -> Result<(), TuneError> {
        let r = live.report;
        check_fields(
            "replayed setup diverged from the checkpoint",
            &[
                cost("initial_cost", &r.initial_cost, &self.initial_cost),
                cost("optimal_cost", &r.optimal_cost, &self.optimal_cost),
                costs("deployed", &live.deployed, &self.deployed),
            ],
        )
    }

    /// Rebuild the what-if cost cache (counters start at zero; the
    /// session restores them when it goes live). Checkpoints carry only
    /// portable `(query, signature)` keys, so the dump restores
    /// identically whatever the table layout.
    pub fn restore_cache(&self) -> CostCache {
        let cache = CostCache::new();
        for ((q, sig), entry) in &self.cache {
            cache.insert(*q, *sig, entry.clone());
        }
        cache
    }

    /// The complete document: what the first record of a session's log
    /// is, and what the fold of any log prefix renders back to.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        write_record(
            &mut out,
            RecordKind::Full(&Identity {
                options_sig: self.options_sig,
                base_sig: self.base_sig,
                initial_cost: self.initial_cost,
                optimal_cost: self.optimal_cost,
                deployed: self.deployed,
                relevance: &self.relevance,
            }),
            &self.head,
            &Batch {
                faults: &self.faults,
                cache: &self.cache,
                trace: self.trace.as_ref().map(|t| TraceBatch {
                    depth: t.state.depth,
                    open_span_seq: t.open_span_seq,
                    counters: &t.state.counters,
                    phases: &t.state.phases,
                    events: &t.state.jsonl,
                }),
            },
        );
        out
    }

    /// Parse a complete document (a log's first record).
    pub fn from_json_str(s: &str) -> Result<Checkpoint, TuneError> {
        parse_checkpoint(s).map_err(TuneError::Checkpoint)
    }

    /// Fold one delta record into this checkpoint, which must be the
    /// state the record was written against (`base`). All-or-nothing:
    /// the record is parsed and checked in full before anything moves,
    /// so a rejected record leaves the checkpoint as it was. Batches
    /// are merged by key (a re-inserted key takes the record's value),
    /// so the result equals a full capture at the record's iteration.
    pub fn apply_record(&mut self, record: &str) -> Result<(), TuneError> {
        let (head, batch) = parse_delta(record, self).map_err(TuneError::Checkpoint)?;
        self.head = head;
        self.faults.extend(batch.faults);
        self.cache.extend(batch.cache);
        sort_batch(&mut self.cache);
        match (&mut self.trace, batch.trace) {
            (Some(mine), Some(theirs)) => {
                mine.state.events += theirs.state.events;
                mine.state.jsonl.push_str(&theirs.state.jsonl);
                mine.state.depth = theirs.state.depth;
                mine.state.counters = theirs.state.counters;
                mine.state.phases = theirs.state.phases;
                mine.open_span_seq = theirs.open_span_seq;
            }
            // An untraced session resumed a traced log and kept
            // appending: from here on the log describes an untraced one.
            (mine, None) => *mine = None,
            (None, Some(_)) => unreachable!("parse_delta rejects a trace without a base"),
        }
        Ok(())
    }

    /// Frame `record` for an append-only log file into `out` (cleared
    /// first): `<len:08x> <checksum:016x> <record>\n`. Length and
    /// checksum cover the record text only.
    pub fn frame_record(record: &str, out: &mut Vec<u8>) {
        out.clear();
        let header = format!("{:08x} {:016x} ", record.len(), checksum(record.as_bytes()));
        debug_assert_eq!(header.len(), FRAME_HEADER);
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(record.as_bytes());
        out.push(b'\n');
    }

    /// Fold the longest intact prefix of a record log: returns the
    /// checkpoint at the last record that checks out and the number of
    /// bytes those records occupy. Reading stops — silently — at the
    /// first record that is short, fails its checksum or lacks its
    /// terminator: that is what a crash mid-append leaves, and
    /// everything from there on is dropped (an appender truncates the
    /// file to the returned length first). A log whose *first* record
    /// is not intact, or whose intact records do not parse or chain, is
    /// an error.
    pub fn from_log(log: &[u8]) -> Result<(Checkpoint, usize), TuneError> {
        let mut folded: Option<Checkpoint> = None;
        let mut kept = 0;
        while let Some((record, framed)) = read_frame(&log[kept..]) {
            match &mut folded {
                None => folded = Some(Checkpoint::from_json_str(record)?),
                Some(ck) => ck.apply_record(record)?,
            }
            kept += framed;
        }
        match folded {
            Some(ck) => Ok((ck, kept)),
            None => Err(TuneError::Checkpoint(
                // A bare document is what builds before version 6
                // wrote; say so instead of "corrupt".
                match std::str::from_utf8(log).map(parse_checkpoint) {
                    Ok(Err(why)) if log.first() == Some(&b'{') => why,
                    _ => "no intact checkpoint record (not a checkpoint log, or torn \
                          before its first record was complete)"
                        .to_string(),
                },
            )),
        }
    }
}

// ---- capture ------------------------------------------------------

/// A live session as its checkpoint reads it: what a record captures at a
/// clean boundary, and what the setup and go-live checks compare.
pub(crate) struct Live<'s> {
    pub options_sig: u64,
    pub base_sig: u64,
    pub relevance: &'s [Option<QueryRelevance>],
    /// The warm start's deployed `(cost, size_bytes)`.
    pub deployed: Option<(f64, f64)>,
    pub report: &'s TuningReport,
    pub rng_state: u64,
    /// The call-budget ledger's `(spent, skipped)`.
    pub budget: (u64, u64),
    pub cache: &'s CostCache,
    /// Seq of the open `search` span's begin event (0 before it opens).
    pub open_span_seq: u64,
}

/// A session's side of its checkpoint log: when records are written
/// and what each holds. A session has one exactly when it has a sink.
pub(crate) struct Capture<'a> {
    sink: CheckpointSink<'a>,
    every: usize,
    tracer: Option<&'a Tracer>,
    /// Journal epoch inserts currently land in; closed by every [`Mark`].
    epoch: u32,
    /// The newest clean boundary marked but not yet written.
    pending: Option<Mark>,
    /// What the records written so far (or the checkpoint resumed
    /// from) already cover.
    written: Written,
    /// Reused across records.
    buf: String,
}

/// A clean iteration boundary, held until (and unless) a record is
/// written for it: the header scalars by value, and everything
/// append-only by position; see [`Capture::boundary`].
struct Mark {
    head: Head,
    /// The journal epoch this boundary closed: the record takes what
    /// the cost cache gained in epochs `..= epoch`.
    epoch: u32,
    /// `report.faults.len()` at the boundary.
    faults: usize,
    trace: Option<TraceMark>,
}

/// How far the checkpoint log already reaches: the boundary of the last
/// record written (or of the checkpoint resumed from; 0 = the log is
/// empty and the next record opens it with a complete document), and
/// the positions the next record's batches start at.
struct Written {
    iteration: usize,
    faults: usize,
    events: u64,
}

impl<'a> Capture<'a> {
    /// The capture of a session run under `ctl`; `None` without a sink.
    /// A resumed session's log already reaches its checkpoint.
    pub(crate) fn new(ctl: &SessionCtl<'a>) -> Option<Capture<'a>> {
        let resume = ctl.resume;
        Some(Capture {
            sink: ctl.checkpoint_sink?,
            every: ctl.checkpoint_every,
            tracer: ctl.tracer,
            epoch: 0,
            pending: None,
            written: Written {
                iteration: resume.map_or(0, |ck| ck.head.iteration),
                faults: resume.map_or(0, |ck| ck.faults.len()),
                events: resume
                    .and_then(|ck| ck.trace.as_ref())
                    .map_or(0, |t| t.state.events),
            },
            buf: String::new(),
        })
    }

    /// The top of a live iteration, un-stopped. The token is sticky, so
    /// reaching it proves every iteration before it completed without
    /// stop interference: mark them as the new resume boundary (there
    /// is none before the first), and write it on the cadence.
    pub(crate) fn boundary(&mut self, live: &Live<'_>) {
        if live.report.iterations == 0 {
            return;
        }
        let mark = self.mark(live);
        let done = mark.head.iteration;
        if self.every > 0 && done.is_multiple_of(self.every) && done > self.written.iteration {
            self.write(&mark, live);
        }
        self.pending = Some(mark);
    }

    /// The session stops: save the newest clean boundary. It was marked
    /// before the previous iteration ran, so it is valid even if that
    /// iteration was truncated mid-evaluation by this very stop: nothing
    /// inserted or emitted after the mark reaches the record.
    pub(crate) fn stop(&mut self, live: &Live<'_>) {
        if let Some(mark) = self.pending.take() {
            if mark.head.iteration > self.written.iteration {
                self.write(&mark, live);
            }
        }
    }

    /// The header scalars, and *positions* in everything append-only —
    /// the journal epoch this closes, the fault count, the tracer's
    /// event and phase counts. Costs the same however much state the
    /// session has accumulated.
    fn mark(&mut self, live: &Live<'_>) -> Mark {
        let epoch = self.epoch;
        live.cache.seal(epoch);
        self.epoch += 1;
        Mark {
            head: Head::of(live),
            epoch,
            faults: live.report.faults.len(),
            trace: self.tracer.map(Tracer::mark),
        }
    }

    /// Render the record for `mark` — what the cost cache, the fault list
    /// and the tracer gained between the previous record and the mark —
    /// and hand it to the sink.
    fn write(&mut self, mark: &Mark, live: &Live<'_>) {
        let (report, written) = (live.report, &self.written);
        let cache = live.cache.drain_through(mark.epoch);
        let identity = Identity {
            options_sig: live.options_sig,
            base_sig: live.base_sig,
            initial_cost: report.initial_cost,
            optimal_cost: report.optimal_cost,
            deployed: live.deployed,
            relevance: live.relevance,
        };
        let kind = if written.iteration == 0 {
            RecordKind::Full(&identity)
        } else {
            RecordKind::Delta {
                base: written.iteration,
            }
        };
        let out = &mut self.buf;
        out.clear();
        let render = |trace: Option<TraceBatch<'_>>| {
            let batch = Batch {
                faults: &report.faults[written.faults..mark.faults],
                cache: &cache,
                trace,
            };
            write_record(out, kind, &mark.head, &batch);
        };
        match (self.tracer, &mark.trace) {
            (Some(t), Some(at)) => t.read_prefix(written.events, at, |events, phases| {
                render(Some(TraceBatch {
                    depth: at.depth,
                    open_span_seq: live.open_span_seq,
                    counters: &at.counters,
                    phases,
                    events,
                }))
            }),
            _ => render(None),
        }
        (self.sink)(mark.head.iteration, &self.buf);
        self.written = Written {
            iteration: mark.head.iteration,
            faults: mark.faults,
            events: mark.trace.as_ref().map_or(0, |t| t.events),
        };
    }
}

// ---- log framing ----------------------------------------------------

/// `<len:08x> <checksum:016x> ` — two fixed-width hex fields, each
/// followed by a space.
const FRAME_HEADER: usize = 8 + 1 + 16 + 1;

/// One intact frame at the start of `log`: the record text and the
/// frame's total length. `None` for anything else.
fn read_frame(log: &[u8]) -> Option<(&str, usize)> {
    let header = std::str::from_utf8(log.get(..FRAME_HEADER)?).ok()?;
    let (len, sum) = (header.get(..8)?, header.get(9..25)?);
    if header.as_bytes()[8] != b' ' || header.as_bytes()[25] != b' ' {
        return None;
    }
    let len = usize::from_str_radix(len, 16).ok()?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    // The length comes from the file: bound it by what is there before
    // slicing, and never allocate for it.
    let end = FRAME_HEADER.checked_add(len)?;
    let record = log.get(FRAME_HEADER..end)?;
    if log.get(end) != Some(&b'\n') || checksum(record) != sum {
        return None;
    }
    Some((std::str::from_utf8(record).ok()?, end + 1))
}

/// 64-bit multiply-xor checksum over little-endian words. Not a hash
/// anyone relies on for distribution — it only has to make a torn or
/// bit-flipped record fail: each step is a bijection of the running
/// value, so any change confined to one word changes the result.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h
}

// ---- records --------------------------------------------------------

/// What never changes over a session; only the first record carries it.
struct Identity<'a> {
    options_sig: u64,
    base_sig: u64,
    initial_cost: f64,
    optimal_cost: f64,
    deployed: Option<(f64, f64)>,
    relevance: &'a [Option<QueryRelevance>],
}

enum RecordKind<'a> {
    /// A log's first record: a complete document.
    Full(&'a Identity<'a>),
    /// Extends the record written at iteration `base`.
    Delta { base: usize },
}

/// What a record adds to the one before it (for the first record:
/// everything so far). Entry slices are sorted by key.
struct Batch<'a> {
    faults: &'a [FaultEvent],
    cache: &'a [((usize, u128), CacheEntry)],
    trace: Option<TraceBatch<'a>>,
}

/// The tracer's scalars at the record's boundary, whole (they are a
/// fixed small vocabulary), and the events since the previous record
/// as the tracer rendered them: JSONL, which the record copies.
struct TraceBatch<'a> {
    depth: u16,
    open_span_seq: u64,
    counters: &'a [(&'static str, u64)],
    phases: &'a [PhaseSummary],
    events: &'a str,
}

/// Stream one record into `out`. Field order is fixed, so equal state
/// serializes to equal bytes.
fn write_record(out: &mut String, kind: RecordKind<'_>, head: &Head, batch: &Batch<'_>) {
    let _ = write!(out, "{{\"version\":{VERSION},\"kind\":");
    match kind {
        RecordKind::Full(id) => {
            write_escaped(out, KIND);
            out.push_str(",\"options_sig\":");
            write_hex(out, id.options_sig);
            out.push_str(",\"base_sig\":");
            write_hex(out, id.base_sig);
            out.push_str(",\"initial_cost\":");
            write_num(out, id.initial_cost);
            out.push_str(",\"optimal_cost\":");
            write_num(out, id.optimal_cost);
            out.push_str(",\"deployed\":");
            write_cost_size(out, id.deployed);
        }
        RecordKind::Delta { base } => {
            write_escaped(out, DELTA_KIND);
            out.push_str(",\"base\":");
            write_int(out, base as i64);
        }
    }
    out.push_str(",\"iteration\":");
    write_int(out, head.iteration as i64);
    out.push_str(",\"rng_state\":");
    write_hex(out, head.rng_state);
    out.push_str(",\"optimizer_calls\":");
    write_int(out, head.optimizer_calls as i64);
    for (key, v) in [
        ("budget_spent", head.budget_spent),
        ("budget_skipped", head.budget_skipped),
        ("cache_hits", head.cache_hits),
        ("cache_misses", head.cache_misses),
    ] {
        let _ = write!(out, ",\"{key}\":");
        write_hex(out, v);
    }
    out.push_str(",\"derived\":{\"avoided\":");
    write_hex(out, head.derived.avoided);
    out.push_str(",\"plan_hits\":");
    write_hex(out, head.derived.plan_hits);
    out.push_str(",\"plan_misses\":");
    write_hex(out, head.derived.plan_misses);
    out.push_str(",\"repriced\":");
    write_hex(out, head.derived.repriced);
    out.push_str("},\"best\":");
    write_cost_size(out, head.best);
    out.push_str(",\"frontier_len\":");
    write_int(out, head.frontier_len as i64);
    out.push_str(",\"faults\":");
    write_arr(out, batch.faults, write_fault);
    out.push_str(",\"cache\":");
    write_arr(out, batch.cache, |out, ((q, sig), e)| {
        out.push_str("{\"q\":");
        write_int(out, *q as i64);
        out.push_str(",\"sig\":");
        write_hex128(out, *sig);
        out.push(',');
        write_entry_fields(out, e);
        out.push('}');
    });
    if let RecordKind::Full(id) = kind {
        out.push_str(",\"relevance\":");
        write_arr(out, id.relevance, |out, r| match r {
            Some(qr) => write_relevance(out, qr),
            None => out.push_str("null"),
        });
    }
    out.push_str(",\"trace\":");
    match &batch.trace {
        Some(t) => write_trace(out, t),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn parse_checkpoint(s: &str) -> Result<Checkpoint, String> {
    let doc = pdt_trace::json::parse(s)?;
    check_version(&doc)?;
    if get(&doc, "kind")?.as_str() != Some(KIND) {
        return Err("not a pdtune checkpoint".to_string());
    }
    let head = parse_head(&doc)?;
    let batch = parse_batch(&doc, 0)?;
    let relevance = get(&doc, "relevance")?
        .as_arr()
        .ok_or("relevance must be an array")?
        .iter()
        .map(|r| match r {
            Json::Null => Ok(None),
            q => relevance_parse(q).map(Some),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Checkpoint {
        options_sig: unhex(get(&doc, "options_sig")?)?,
        base_sig: unhex(get(&doc, "base_sig")?)?,
        initial_cost: f64n(get(&doc, "initial_cost")?)?,
        optimal_cost: f64n(get(&doc, "optimal_cost")?)?,
        deployed: cost_size_parse(get(&doc, "deployed")?)?,
        head,
        faults: batch.faults,
        cache: batch.cache,
        relevance,
        trace: batch.trace,
    })
}

/// Checkpoints are same-binary artifacts: there is no migration, only
/// a clear refusal.
fn check_version(doc: &Json) -> Result<(), String> {
    match get(doc, "version")?.as_i64() {
        Some(VERSION) => Ok(()),
        Some(v) if (1..VERSION).contains(&v) => Err(format!(
            "checkpoint version {v} was written by an earlier build; this build reads \
             version {VERSION} record logs — re-run the session"
        )),
        _ => Err(format!(
            "unsupported checkpoint version (expected {VERSION})"
        )),
    }
}

/// Parse and check a delta record against the checkpoint it extends.
fn parse_delta(record: &str, onto: &Checkpoint) -> Result<(Head, OwnedBatch), String> {
    let doc = pdt_trace::json::parse(record)?;
    check_version(&doc)?;
    if get(&doc, "kind")?.as_str() != Some(DELTA_KIND) {
        return Err("not a pdtune checkpoint delta record".to_string());
    }
    let base = uint(get(&doc, "base")?)? as usize;
    let head = parse_head(&doc)?;
    if base != onto.head.iteration || head.iteration <= base {
        return Err(format!(
            "record for iterations {base}..{} does not extend a checkpoint at iteration {}",
            head.iteration, onto.head.iteration
        ));
    }
    let next = match (&onto.trace, get(&doc, "trace")?) {
        (None, Json::Null) => 0,
        (None, _) => {
            return Err("record carries a trace but the checkpoint it extends has none".into())
        }
        (Some(mine), _) => mine.state.events,
    };
    Ok((head, parse_batch(&doc, next)?))
}

fn parse_head(doc: &Json) -> Result<Head, String> {
    let dj = get(doc, "derived")?;
    Ok(Head {
        iteration: uint(get(doc, "iteration")?)? as usize,
        rng_state: unhex(get(doc, "rng_state")?)?,
        optimizer_calls: uint(get(doc, "optimizer_calls")?)? as usize,
        budget_spent: unhex(get(doc, "budget_spent")?)?,
        budget_skipped: unhex(get(doc, "budget_skipped")?)?,
        cache_hits: unhex(get(doc, "cache_hits")?)?,
        cache_misses: unhex(get(doc, "cache_misses")?)?,
        derived: DerivedTally {
            avoided: unhex(get(dj, "avoided")?)?,
            plan_hits: unhex(get(dj, "plan_hits")?)?,
            plan_misses: unhex(get(dj, "plan_misses")?)?,
            repriced: unhex(get(dj, "repriced")?)?,
        },
        best: cost_size_parse(get(doc, "best")?)?,
        frontier_len: uint(get(doc, "frontier_len")?)? as usize,
    })
}

/// A parsed record's batch sections.
struct OwnedBatch {
    faults: Vec<FaultEvent>,
    cache: Vec<((usize, u128), CacheEntry)>,
    trace: Option<TraceCheckpoint>,
}

/// `next_seq`: the seq the batch's first trace event must carry.
fn parse_batch(doc: &Json, next_seq: u64) -> Result<OwnedBatch, String> {
    let faults = arr(get(doc, "faults")?)?
        .iter()
        .map(fault_parse)
        .collect::<Result<Vec<_>, _>>()?;
    let cache = arr(get(doc, "cache")?)?
        .iter()
        .map(|e| {
            Ok((
                (uint(get(e, "q")?)? as usize, unhex128(get(e, "sig")?)?),
                entry_parse(e)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let trace = match get(doc, "trace")? {
        Json::Null => None,
        t => Some(trace_parse(t, next_seq)?),
    };
    Ok(OwnedBatch {
        faults,
        cache,
        trace,
    })
}

// ---- configuration persistence --------------------------------------

const CONFIG_KIND: &str = "pdtune-config";
const CONFIG_VERSION: i64 = 1;

/// Serialize an index-only configuration as deterministic JSON (the
/// durable `deployed`/`result` artifacts of warm-started sessions).
/// Indexes are content-addressed column ids, so — unlike checkpoints —
/// the document is portable across builds. Materialized views have no
/// portable serialization; a configuration containing one is rejected,
/// and warm starts fall back to cold.
pub fn config_to_json(config: &Configuration) -> Result<String, TuneError> {
    if config.view_count() > 0 {
        return Err(TuneError::Checkpoint(
            "configurations with materialized views have no durable serialization".to_string(),
        ));
    }
    let mut out = String::new();
    let _ = write!(out, "{{\"version\":{CONFIG_VERSION},\"kind\":");
    write_escaped(&mut out, CONFIG_KIND);
    out.push_str(",\"indexes\":");
    write_arr(&mut out, config.indexes(), write_index);
    out.push('}');
    Ok(out)
}

/// Inverse of [`config_to_json`].
pub fn config_from_json(s: &str) -> Result<Configuration, TuneError> {
    let parse = || -> Result<Configuration, String> {
        let doc = pdt_trace::json::parse(s)?;
        if get(&doc, "version")?.as_i64() != Some(CONFIG_VERSION) {
            return Err("unsupported configuration version".to_string());
        }
        if get(&doc, "kind")?.as_str() != Some(CONFIG_KIND) {
            return Err("not a pdtune configuration".to_string());
        }
        let mut config = Configuration::new();
        for ij in arr(get(&doc, "indexes")?)? {
            config.add_index(index_parse(ij)?);
        }
        Ok(config)
    };
    parse().map_err(TuneError::Checkpoint)
}

// ---- scalar helpers -------------------------------------------------

/// u64 values (signatures, RNG state, counters) are rendered as 16-hex-
/// digit strings: JSON integers are `i64` here and cannot carry the
/// high bit.
fn write_hex(out: &mut String, v: u64) {
    let _ = write!(out, "\"{v:016x}\"");
}

fn unhex(j: &Json) -> Result<u64, String> {
    let s = j.as_str().ok_or("expected hex string")?;
    u64::from_str_radix(s, 16).map_err(|_| format!("bad hex value '{s}'"))
}

/// 128-bit signatures render as 32-hex-digit strings.
pub(crate) fn write_hex128(out: &mut String, v: u128) {
    let _ = write!(out, "\"{v:032x}\"");
}

/// `[a,b,…]` with `each` rendering one item.
pub(crate) fn write_arr<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// `{"cost":…,"size_bytes":…}` or `null`.
fn write_cost_size(out: &mut String, pair: Option<(f64, f64)>) {
    match pair {
        Some((cost, size)) => {
            out.push_str("{\"cost\":");
            write_num(out, cost);
            out.push_str(",\"size_bytes\":");
            write_num(out, size);
            out.push('}');
        }
        None => out.push_str("null"),
    }
}

fn cost_size_parse(j: &Json) -> Result<Option<(f64, f64)>, String> {
    match j {
        Json::Null => Ok(None),
        b => Ok(Some((f64n(get(b, "cost")?)?, f64n(get(b, "size_bytes")?)?))),
    }
}

pub(crate) fn unhex128(j: &Json) -> Result<u128, String> {
    let s = j.as_str().ok_or("expected hex string")?;
    u128::from_str_radix(s, 16).map_err(|_| format!("bad hex value '{s}'"))
}

fn write_sigs128(out: &mut String, sigs: &[u128]) {
    write_arr(out, sigs, |out, s| write_hex128(out, *s));
}

pub(crate) fn sigs128_parse(j: &Json) -> Result<std::sync::Arc<[u128]>, String> {
    Ok(arr(j)?
        .iter()
        .map(unhex128)
        .collect::<Result<Vec<_>, _>>()?
        .into())
}

fn uint(j: &Json) -> Result<u64, String> {
    match j.as_i64() {
        Some(v) if v >= 0 => Ok(v as u64),
        _ => Err("expected non-negative integer".to_string()),
    }
}

/// f64 with the writer's NaN convention: non-finite costs (poisoned
/// entries captured mid-fault-run) render as `null` and read back NaN.
pub(crate) fn f64n(j: &Json) -> Result<f64, String> {
    match j {
        Json::Null => Ok(f64::NAN),
        _ => j.as_f64().ok_or_else(|| "expected number".to_string()),
    }
}

pub(crate) fn get<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

// ---- interning ------------------------------------------------------

/// Trace kinds, field keys, counter names, and phase names are
/// `&'static str` in `pdt-trace`; strings read back from a checkpoint
/// are interned (leaked once per distinct string, deduplicated
/// process-wide — bounded by the fixed vocabulary the engine emits).
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

// ---- faults ---------------------------------------------------------

fn write_fault(out: &mut String, f: &FaultEvent) {
    out.push_str("{\"iteration\":");
    write_int(out, f.iteration as i64);
    out.push_str(",\"kind\":");
    write_escaped(out, f.kind.label());
    out.push_str(",\"detail\":");
    write_escaped(out, &f.detail);
    out.push('}');
}

fn fault_parse(j: &Json) -> Result<FaultEvent, String> {
    let kind = match get(j, "kind")?.as_str() {
        Some("eval-panic") => FaultKind::EvalPanic,
        Some("cache-poison") => FaultKind::CachePoison,
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultEvent {
        iteration: uint(get(j, "iteration")?)? as usize,
        kind,
        detail: get(j, "detail")?
            .as_str()
            .ok_or("fault detail must be a string")?
            .to_string(),
    })
}

// ---- physical structures -------------------------------------------

fn write_cid(out: &mut String, c: ColumnId) {
    let _ = write!(out, "[{},{}]", c.table.0, c.ordinal);
}

fn cid_parse(j: &Json) -> Result<ColumnId, String> {
    match j.as_arr() {
        Some([t, o]) => Ok(ColumnId {
            table: TableId(uint(t)? as u32),
            ordinal: uint(o)? as u16,
        }),
        _ => Err("column id must be [table, ordinal]".to_string()),
    }
}

fn write_index(out: &mut String, i: &Index) {
    let _ = write!(out, "{{\"table\":{},\"key\":", i.table.0);
    write_arr(out, &i.key, |out, c| write_cid(out, *c));
    out.push_str(",\"suffix\":");
    write_arr(out, &i.suffix, |out, c| write_cid(out, *c));
    out.push_str(",\"clustered\":");
    write_bool(out, i.clustered);
    out.push('}');
}

fn index_parse(j: &Json) -> Result<Index, String> {
    Ok(Index {
        table: TableId(uint(get(j, "table")?)? as u32),
        key: arr(get(j, "key")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        suffix: arr(get(j, "suffix")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        clustered: bool_(get(j, "clustered")?)?,
    })
}

fn arr(j: &Json) -> Result<&[Json], String> {
    j.as_arr().ok_or_else(|| "expected array".to_string())
}

fn bool_(j: &Json) -> Result<bool, String> {
    match j {
        Json::Bool(b) => Ok(*b),
        _ => Err("expected boolean".to_string()),
    }
}

/// A [`CacheEntry`]'s fields, without the braces — the checkpoint's
/// cache section and the shared store's warm file each lead with their
/// own key.
pub(crate) fn write_entry_fields(out: &mut String, e: &CacheEntry) {
    out.push_str("\"cost\":");
    write_num(out, e.cost);
    out.push_str(",\"usages\":");
    write_arr(out, e.usages.iter(), write_usage);
    out.push_str(",\"coarse\":");
    write_hex128(out, e.coarse);
    out.push_str(",\"relevant\":");
    write_sigs128(out, &e.relevant);
    out.push_str(",\"footprint\":");
    write_sigs128(out, &e.footprint);
    out.push_str(",\"pinned\":");
    write_sigs128(out, &e.pinned);
}

/// Inverse of [`write_entry_fields`], over the object that holds them.
pub(crate) fn entry_parse(j: &Json) -> Result<CacheEntry, String> {
    let usages = arr(get(j, "usages")?)?
        .iter()
        .map(usage_parse)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CacheEntry {
        cost: f64n(get(j, "cost")?)?,
        usages: usages.into(),
        coarse: unhex128(get(j, "coarse")?)?,
        relevant: sigs128_parse(get(j, "relevant")?)?,
        footprint: sigs128_parse(get(j, "footprint")?)?,
        pinned: sigs128_parse(get(j, "pinned")?)?,
    })
}

fn write_usage(out: &mut String, u: &IndexUsage) {
    out.push_str("{\"index\":");
    write_index(out, &u.index);
    match &u.kind {
        UsageKind::Scan => out.push_str(",\"kind\":{\"kind\":\"scan\"}"),
        UsageKind::Seek {
            seek_cols,
            selectivity,
        } => {
            let _ = write!(
                out,
                ",\"kind\":{{\"kind\":\"seek\",\"seek_cols\":{seek_cols},\"selectivity\":"
            );
            write_num(out, *selectivity);
            out.push('}');
        }
    }
    out.push_str(",\"access_io\":");
    write_num(out, u.access_io);
    out.push_str(",\"access_cpu\":");
    write_num(out, u.access_cpu);
    out.push_str(",\"rows\":");
    write_num(out, u.rows);
    out.push_str(",\"provided_order\":");
    match &u.provided_order {
        None => out.push_str("null"),
        Some(order) => write_arr(out, order, |out, (c, desc)| {
            out.push('[');
            write_cid(out, *c);
            out.push(',');
            write_bool(out, *desc);
            out.push(']');
        }),
    }
    out.push_str(",\"provided_columns\":");
    write_arr(out, &u.provided_columns, |out, c| write_cid(out, *c));
    out.push_str(",\"followed_by_lookup\":");
    write_bool(out, u.followed_by_lookup);
    out.push_str(",\"seek_col_sels\":");
    write_arr(out, &u.seek_col_sels, |out, (c, sel, eq)| {
        out.push('[');
        write_cid(out, *c);
        out.push(',');
        write_num(out, *sel);
        out.push(',');
        write_bool(out, *eq);
        out.push(']');
    });
    let _ = write!(out, ",\"total_preds\":{}", u.total_preds);
    out.push_str(",\"resid_pred_cols\":");
    write_arr(out, &u.resid_pred_cols, |out, c| write_cid(out, *c));
    out.push_str(",\"resid_filter_cpu\":");
    write_num(out, u.resid_filter_cpu);
    out.push_str(",\"executions\":");
    write_num(out, u.executions);
    out.push('}');
}

pub(crate) fn usage_parse(j: &Json) -> Result<IndexUsage, String> {
    let kj = get(j, "kind")?;
    let kind = match get(kj, "kind")?.as_str() {
        Some("scan") => UsageKind::Scan,
        Some("seek") => UsageKind::Seek {
            seek_cols: uint(get(kj, "seek_cols")?)? as usize,
            selectivity: f64n(get(kj, "selectivity")?)?,
        },
        other => return Err(format!("unknown usage kind {other:?}")),
    };
    let provided_order = match get(j, "provided_order")? {
        Json::Null => None,
        o => Some(
            arr(o)?
                .iter()
                .map(|p| match p.as_arr() {
                    Some([c, d]) => Ok((cid_parse(c)?, bool_(d)?)),
                    _ => Err("order entry must be [column, desc]".to_string()),
                })
                .collect::<Result<Vec<_>, String>>()?,
        ),
    };
    let seek_col_sels = arr(get(j, "seek_col_sels")?)?
        .iter()
        .map(|p| match p.as_arr() {
            Some([c, s, e]) => Ok((cid_parse(c)?, f64n(s)?, bool_(e)?)),
            _ => Err("seek entry must be [column, selectivity, eq]".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(IndexUsage {
        index: index_parse(get(j, "index")?)?,
        kind,
        access_io: f64n(get(j, "access_io")?)?,
        access_cpu: f64n(get(j, "access_cpu")?)?,
        rows: f64n(get(j, "rows")?)?,
        provided_order,
        provided_columns: arr(get(j, "provided_columns")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        followed_by_lookup: bool_(get(j, "followed_by_lookup")?)?,
        seek_col_sels,
        total_preds: uint(get(j, "total_preds")?)? as usize,
        resid_pred_cols: arr(get(j, "resid_pred_cols")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        resid_filter_cpu: f64n(get(j, "resid_filter_cpu")?)?,
        executions: f64n(get(j, "executions")?)?,
    })
}

// ---- relevance ------------------------------------------------------

fn write_relevance(out: &mut String, qr: &QueryRelevance) {
    out.push_str("{\"tables\":");
    write_arr(out, &qr.tables, |out, t| write_int(out, i64::from(t.0)));
    out.push_str(",\"sarg_cols\":");
    write_arr(out, &qr.sarg_cols, |out, c| write_cid(out, *c));
    out.push_str(",\"required\":");
    write_arr(out, &qr.required, |out, (t, cols)| {
        let _ = write!(out, "[{},", t.0);
        write_arr(out, cols, |out, c| write_cid(out, *c));
        out.push(']');
    });
    out.push('}');
}

fn relevance_parse(j: &Json) -> Result<QueryRelevance, String> {
    let tables: BTreeSet<TableId> = arr(get(j, "tables")?)?
        .iter()
        .map(|t| Ok(TableId(uint(t)? as u32)))
        .collect::<Result<_, String>>()?;
    let sarg_cols: BTreeSet<ColumnId> = arr(get(j, "sarg_cols")?)?
        .iter()
        .map(cid_parse)
        .collect::<Result<_, _>>()?;
    let required: BTreeMap<TableId, BTreeSet<ColumnId>> = arr(get(j, "required")?)?
        .iter()
        .map(|p| match p.as_arr() {
            Some([t, cols]) => Ok((
                TableId(uint(t)? as u32),
                arr(cols)?.iter().map(cid_parse).collect::<Result<_, _>>()?,
            )),
            _ => Err("required entry must be [table, [columns]]".to_string()),
        })
        .collect::<Result<_, String>>()?;
    Ok(QueryRelevance {
        tables,
        sarg_cols,
        required,
    })
}

// ---- trace ----------------------------------------------------------

fn write_trace(out: &mut String, t: &TraceBatch<'_>) {
    let _ = write!(
        out,
        "{{\"depth\":{},\"open_span_seq\":{},\"counters\":",
        t.depth, t.open_span_seq
    );
    write_arr(out, t.counters, |out, (name, v)| {
        out.push('[');
        write_escaped(out, name);
        out.push(',');
        write_hex(out, *v);
        out.push(']');
    });
    out.push_str(",\"phases\":");
    write_arr(out, t.phases, |out, p| {
        out.push('[');
        write_escaped(out, p.name);
        out.push(',');
        write_hex(out, p.events);
        let _ = write!(out, ",{}]", p.elapsed.as_nanos() as i64);
    });
    out.push_str(",\"events\":");
    write_arr(out, t.events.split_terminator('\n'), |out, e| {
        out.push_str(e)
    });
    out.push('}');
}

/// One record's trace section; its events must start at `next_seq`.
fn trace_parse(j: &Json, next_seq: u64) -> Result<TraceCheckpoint, String> {
    let counters = arr(get(j, "counters")?)?
        .iter()
        .map(|c| match c.as_arr() {
            Some([k, v]) => Ok((
                intern(k.as_str().ok_or("counter name must be a string")?),
                unhex(v)?,
            )),
            _ => Err("counter must be [name, value]".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let phases = arr(get(j, "phases")?)?
        .iter()
        .map(|p| match p.as_arr() {
            Some([name, events, nanos]) => Ok(PhaseSummary {
                name: intern(name.as_str().ok_or("phase name must be a string")?),
                events: unhex(events)?,
                elapsed: Duration::from_nanos(uint(nanos)?),
            }),
            _ => Err("phase must be [name, events, elapsed_nanos]".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    // The events go back to the lines the tracer rendered: the compact
    // writer is the tracer's own, so each line is the bytes it was.
    let events = arr(get(j, "events")?)?;
    let mut jsonl = String::new();
    for (seq, e) in (next_seq..).zip(events) {
        if get(e, "seq")?.as_i64() != Some(seq as i64) {
            return Err(format!("trace events do not continue at seq {seq}"));
        }
        json::write_compact(&mut jsonl, e);
        jsonl.push('\n');
    }
    Ok(TraceCheckpoint {
        state: TraceState {
            events: events.len() as u64,
            jsonl,
            depth: uint(get(j, "depth")?)? as u16,
            counters,
            phases,
        },
        open_span_seq: uint(get(j, "open_span_seq")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_trace::Value;

    fn sample_usage() -> IndexUsage {
        let t = TableId(3);
        let c0 = ColumnId {
            table: t,
            ordinal: 0,
        };
        let c1 = ColumnId {
            table: t,
            ordinal: 1,
        };
        IndexUsage {
            index: Index {
                table: t,
                key: vec![c0, c1],
                suffix: [ColumnId {
                    table: t,
                    ordinal: 2,
                }]
                .into_iter()
                .collect(),
                clustered: false,
            },
            kind: UsageKind::Seek {
                seek_cols: 1,
                selectivity: 0.125,
            },
            access_io: 10.5,
            access_cpu: 0.25,
            rows: 100.0,
            provided_order: Some(vec![(c0, false), (c1, true)]),
            provided_columns: [c0, c1].into_iter().collect(),
            followed_by_lookup: true,
            seek_col_sels: vec![(c0, 0.125, true)],
            total_preds: 2,
            resid_pred_cols: [c1].into_iter().collect(),
            resid_filter_cpu: 0.0625,
            executions: 1.0,
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let tracer = pdt_trace::Tracer::new();
        tracer.emit("session.begin", vec![("entries", 2u64.into())]);
        let span = tracer.span("search");
        tracer.emit(
            "search.step",
            vec![
                ("iteration", 1u64.into()),
                ("cost", 12.5.into()),
                ("delta", Value::I64(-3)),
                ("fits", true.into()),
                ("transformation", "remove(ix)".into()),
            ],
        );
        // Every value kind a resume re-renders from parsed JSON: a
        // non-finite float (written `null`), a u64 past `i64::MAX`
        // (written as its two's-complement i64) and a string the
        // writer escapes.
        tracer.emit(
            "search.edge",
            vec![
                ("nan", f64::NAN.into()),
                ("inf", f64::NEG_INFINITY.into()),
                ("big", u64::MAX.into()),
                ("tiny", 5e-324.into()),
                ("text", "tab\t \"quote\" back\\slash\n\u{1}\u{7f} ↦".into()),
            ],
        );
        tracer.incr("search.iterations", 1);
        let open_span_seq = span.events_at_open();
        let mark = tracer.mark();
        let state = tracer.read_prefix(0, &mark, |jsonl, phases| TraceState {
            events: mark.events,
            jsonl: jsonl.to_string(),
            depth: mark.depth,
            counters: mark.counters.clone(),
            phases: phases.to_vec(),
        });
        std::mem::forget(span);
        Checkpoint {
            options_sig: 0xDEAD_BEEF_0123_4567,
            base_sig: u64::MAX,
            initial_cost: 123.456,
            optimal_cost: 78.9,
            deployed: Some((101.5, 2048.0)),
            head: Head {
                iteration: 7,
                rng_state: 0x0123_4567_89AB_CDEF,
                optimizer_calls: 42,
                budget_spent: 13,
                budget_skipped: 27,
                cache_hits: 10,
                cache_misses: 5,
                derived: DerivedTally {
                    avoided: 9,
                    plan_hits: 4,
                    plan_misses: 2,
                    repriced: 3,
                },
                best: Some((80.25, 4096.0)),
                frontier_len: 8,
            },
            faults: vec![FaultEvent {
                iteration: 3,
                kind: FaultKind::EvalPanic,
                detail: "injected fault: site=1 iteration=3 query=0".to_string(),
            }],
            cache: vec![
                (
                    (0, 17 << 70),
                    CacheEntry {
                        cost: 9.75,
                        usages: vec![sample_usage()].into(),
                        coarse: u128::MAX,
                        relevant: vec![1u128 << 90, u128::MAX - 1].into(),
                        footprint: vec![1u128 << 90].into(),
                        pinned: vec![u128::MAX - 1].into(),
                    },
                ),
                (
                    (1, 99),
                    CacheEntry::plain(
                        f64::NAN, // a poisoned entry mid-repair
                        Vec::new().into(),
                        0x42,
                    ),
                ),
            ],
            relevance: vec![
                None,
                Some(QueryRelevance {
                    tables: [TableId(3)].into_iter().collect(),
                    sarg_cols: [ColumnId {
                        table: TableId(3),
                        ordinal: 1,
                    }]
                    .into_iter()
                    .collect(),
                    required: [(
                        TableId(3),
                        [ColumnId {
                            table: TableId(3),
                            ordinal: 0,
                        }]
                        .into_iter()
                        .collect(),
                    )]
                    .into_iter()
                    .collect(),
                }),
            ],
            trace: Some(TraceCheckpoint {
                state,
                open_span_seq,
            }),
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let ck = sample_checkpoint();
        let s1 = ck.to_json_string();
        let back = Checkpoint::from_json_str(&s1).expect("parses");
        let s2 = back.to_json_string();
        assert_eq!(s1, s2, "serialize → parse → serialize must be a fixpoint");
        // Spot-check deep contents.
        assert_eq!(back.head.iteration, 7);
        assert_eq!(back.head.rng_state, 0x0123_4567_89AB_CDEF);
        assert_eq!((back.head.budget_spent, back.head.budget_skipped), (13, 27));
        assert_eq!(back.head.best, Some((80.25, 4096.0)));
        assert_eq!(back.deployed, Some((101.5, 2048.0)));
        assert_eq!(back.faults.len(), 1);
        assert_eq!(back.faults[0].kind, FaultKind::EvalPanic);
        assert!(back.cache[1].1.cost.is_nan(), "NaN cost survives via null");
        assert_eq!(back.cache[0].1.usages[0], sample_usage());
        assert_eq!(back.cache[0].0 .1, 17 << 70, "u128 keys survive");
        assert_eq!(back.cache[0].1.coarse, u128::MAX);
        assert_eq!(
            back.cache[0].1.relevant.as_ref(),
            &[1u128 << 90, u128::MAX - 1]
        );
        assert_eq!(back.cache[0].1.footprint.as_ref(), &[1u128 << 90]);
        assert_eq!(back.cache[0].1.pinned.as_ref(), &[u128::MAX - 1]);
        assert!(back.cache[1].1.relevant.is_empty());
        assert_eq!(back.head.derived, ck.head.derived);
        assert_eq!(back.relevance, ck.relevance);
    }

    #[test]
    fn restored_trace_renders_identical_jsonl() {
        let ck = sample_checkpoint();
        let json = ck.to_json_string();
        let back = Checkpoint::from_json_str(&json).unwrap();
        let t1 = pdt_trace::Tracer::new();
        t1.restore_state(ck.trace.as_ref().unwrap().state.clone());
        let t2 = pdt_trace::Tracer::new();
        t2.restore_state(back.trace.unwrap().state);
        assert_eq!(t1.to_jsonl(), t2.to_jsonl());
        let jsonl = t2.to_jsonl();
        assert_eq!(
            jsonl.lines().nth(3).unwrap(),
            r#"{"seq":3,"depth":1,"kind":"search.edge","nan":null,"inf":null,"big":-1,"tiny":5e-324,"text":"tab\t \"quote\" back\\slash\n\u0001"#
                .to_string()
                + "\u{7f} ↦\"}"
        );
        // The restored stream goes on at the next seq.
        t2.emit("after", vec![]);
        assert!(t2
            .to_jsonl()
            .ends_with("{\"seq\":4,\"depth\":1,\"kind\":\"after\"}\n"));
        assert_eq!(t1.counter("search.iterations"), 1);
        assert_eq!(t2.counter("search.iterations"), 1);
    }

    #[test]
    fn restore_cache_rebuilds_entries() {
        let ck = sample_checkpoint();
        let cache = ck.restore_cache();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(0, 17 << 70).unwrap().cost, 9.75);
        assert!(cache.lookup(1, 99).unwrap().cost.is_nan());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // The restored store snapshots back to the identical dump
        // (`Debug` rendering: the sample carries a NaN cost).
        assert_eq!(format!("{:?}", cache.snapshot()), format!("{:?}", ck.cache));
    }

    #[test]
    fn validate_rejects_mismatches() {
        let ck = sample_checkpoint();
        assert!(ck.validate(ck.options_sig, ck.base_sig).is_ok());
        assert!(ck.validate(ck.options_sig + 1, ck.base_sig).is_err());
        assert!(ck.validate(ck.options_sig, 0).is_err());
    }

    #[test]
    fn config_json_round_trips_index_only() {
        let mut c = Configuration::new();
        c.add_index(sample_usage().index);
        c.add_index(Index::clustered(
            TableId(1),
            [ColumnId {
                table: TableId(1),
                ordinal: 0,
            }],
        ));
        let s1 = config_to_json(&c).expect("index-only serializes");
        let back = config_from_json(&s1).expect("parses");
        assert_eq!(back.index_count(), 2);
        assert_eq!(back.signature128(), c.signature128());
        assert_eq!(config_to_json(&back).unwrap(), s1, "fixpoint");
        assert!(config_from_json("{}").is_err());
        assert!(config_from_json("not json").is_err());
    }

    #[test]
    fn rejects_garbage_documents() {
        assert!(Checkpoint::from_json_str("").is_err());
        assert!(Checkpoint::from_json_str("{}").is_err());
        assert!(Checkpoint::from_json_str("{\"version\":99}").is_err());
        let valid = sample_checkpoint().to_json_string();
        let truncated = &valid[..valid.len() / 2];
        assert!(Checkpoint::from_json_str(truncated).is_err());
        // What earlier builds wrote — a version-5 bare document, a
        // version-6, -7 or -8 record log — is refused by its version,
        // as a document and where a log is expected.
        for version in [5, 6, 7, 8] {
            let old = valid.replacen(
                &format!("\"version\":{VERSION}"),
                &format!("\"version\":{version}"),
                1,
            );
            let mut log = Vec::new();
            Checkpoint::frame_record(&old, &mut log);
            let named = format!("checkpoint version {version} was written by an earlier build");
            for err in [
                Checkpoint::from_json_str(&old).unwrap_err(),
                Checkpoint::from_log(old.as_bytes()).unwrap_err(),
                Checkpoint::from_log(&log).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, TuneError::Checkpoint(m) if m.contains(&named)),
                    "{err}"
                );
            }
        }
        assert!(Checkpoint::from_log(b"").is_err());
        assert!(Checkpoint::from_log(b"{\"not\": \"a checkpoint\"}").is_err());
    }

    /// A delta record extending `base`: two more cache entries (one
    /// re-inserting — repairing — the poisoned key), a fault and one
    /// more trace event.
    fn sample_delta(base: &Checkpoint, iteration: usize) -> String {
        let tracer = pdt_trace::Tracer::new();
        let trace = base.trace.as_ref().unwrap();
        tracer.restore_state(trace.state.clone());
        let before = tracer.mark();
        tracer.emit("search.step", vec![("iteration", iteration.into())]);
        tracer.incr("search.iterations", 1);
        let at = tracer.mark();
        let repaired = CacheEntry::plain(3.5, Vec::new().into(), 0x42);
        let mut out = String::new();
        tracer.read_prefix(before.events, &at, |events, phases| {
            write_record(
                &mut out,
                RecordKind::Delta {
                    base: base.head.iteration,
                },
                &Head {
                    iteration,
                    rng_state: 0xABCD,
                    optimizer_calls: base.head.optimizer_calls + 3,
                    ..base.head
                },
                &Batch {
                    faults: &[FaultEvent {
                        iteration,
                        kind: FaultKind::CachePoison,
                        detail: "repaired".to_string(),
                    }],
                    cache: &[((0, 5), repaired.clone()), ((1, 99), repaired)],
                    trace: Some(TraceBatch {
                        depth: at.depth,
                        open_span_seq: trace.open_span_seq,
                        counters: &at.counters,
                        phases,
                        events,
                    }),
                },
            );
        });
        out
    }

    #[test]
    fn folding_a_record_equals_the_full_state_and_is_all_or_nothing() {
        let base = sample_checkpoint();
        let record = sample_delta(&base, 9);
        let mut folded = Checkpoint::from_json_str(&base.to_json_string()).unwrap();
        folded.apply_record(&record).expect("extends iteration 7");
        assert_eq!((folded.head.iteration, folded.head.rng_state), (9, 0xABCD));
        assert_eq!(folded.head.optimizer_calls, 45);
        assert_eq!(folded.faults.len(), 2);
        // Merged by key: (0,5) sorts first, (1,99) took the record's
        // value instead of growing a duplicate.
        let keys: Vec<_> = folded.cache.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(0, 5), (0, 17 << 70), (1, 99)]);
        assert_eq!(folded.cache[2].1.cost, 3.5);
        let trace = folded.trace.as_ref().unwrap();
        assert_eq!(trace.state.events, 5);
        assert!(trace
            .state
            .jsonl
            .ends_with("\n{\"seq\":4,\"depth\":1,\"kind\":\"search.step\",\"iteration\":9}\n"));
        assert_eq!(trace.state.counters, vec![("search.iterations", 2)]);
        // The fold is a fixpoint of the document format too.
        let doc = folded.to_json_string();
        assert_eq!(
            Checkpoint::from_json_str(&doc).unwrap().to_json_string(),
            doc
        );

        // Rejected records change nothing: wrong base, a replay of the
        // same record, a full document, a torn body.
        let before = folded.to_json_string();
        for bad in [
            record.as_str(),
            &sample_delta(&base, 12),
            &base.to_json_string(),
            &record[..record.len() - 9],
        ] {
            assert!(matches!(
                folded.apply_record(bad),
                Err(TuneError::Checkpoint(_))
            ));
            assert_eq!(folded.to_json_string(), before);
        }
        // An untraced session that resumed this log keeps appending:
        // the fold follows it and drops the trace.
        let untraced = sample_delta(&folded, 11);
        let cut = untraced.find(",\"trace\":").unwrap();
        let untraced = format!("{},\"trace\":null}}", &untraced[..cut]);
        folded.apply_record(&untraced).unwrap();
        assert!(folded.trace.is_none());
        assert_eq!(folded.head.iteration, 11);
    }

    #[test]
    fn logs_fold_their_longest_intact_prefix() {
        let base = sample_checkpoint();
        let records = [base.to_json_string(), sample_delta(&base, 9)];
        let mut log = Vec::new();
        let mut frame = Vec::new();
        let mut ends = Vec::new();
        for r in &records {
            Checkpoint::frame_record(r, &mut frame);
            log.extend_from_slice(&frame);
            ends.push(log.len());
        }
        let (whole, kept) = Checkpoint::from_log(&log).unwrap();
        assert_eq!((whole.head.iteration, kept), (9, log.len()));
        // Cut anywhere inside the last record: the first survives.
        for cut in [ends[0], ends[0] + 1, ends[0] + FRAME_HEADER, log.len() - 1] {
            let (ck, kept) = Checkpoint::from_log(&log[..cut]).unwrap();
            assert_eq!((ck.head.iteration, kept), (7, ends[0]), "cut at {cut}");
        }
        // Cut inside the first: nothing to resume from.
        assert!(Checkpoint::from_log(&log[..ends[0] - 1]).is_err());
        // One flipped byte drops its record and everything after it.
        let mut flipped = log.clone();
        flipped[ends[0] + FRAME_HEADER + 40] ^= 0x20;
        assert_eq!(Checkpoint::from_log(&flipped).unwrap().1, ends[0]);
        flipped = log.clone();
        flipped[FRAME_HEADER + 40] ^= 0x01;
        assert!(Checkpoint::from_log(&flipped).is_err());
        // A record that checks out but does not chain is a corrupt
        // log, not a torn one.
        let mut twice = log.clone();
        twice.extend_from_slice(&frame);
        assert!(Checkpoint::from_log(&twice).is_err());
        // A length field larger than the file is just a short record.
        let mut huge = log[..ends[0]].to_vec();
        huge.extend_from_slice(b"ffffffff 0000000000000000 {}\n");
        assert_eq!(Checkpoint::from_log(&huge).unwrap().1, ends[0]);
    }
}
