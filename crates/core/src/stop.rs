//! Anytime stop control: why a session ended, a shared trip-once
//! token, and the deadline-aware check threaded through the search
//! loop, the §3.5 pre-pass, and per-query evaluation.
//!
//! The paper frames relaxation as an *anytime* search (§3.1: "the
//! process can be stopped at any time and the best configuration found
//! so far returned"). The [`StopToken`] makes that literal: any thread
//! (a SIGINT handler, a deadline check, the fault-limit guard) can trip
//! it, and the engine breaks at the next well-defined point — the top
//! of a search iteration or between per-query evaluations — and
//! returns a complete [`TuningReport`] with the best configuration
//! found so far.
//!
//! [`TuningReport`]: crate::search::TuningReport

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a tuning session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// No configuration in the pool can be relaxed further.
    Converged,
    /// The `max_iterations` budget ran out (the common case).
    #[default]
    IterationBudget,
    /// `TunerOptions::deadline_ms` elapsed.
    Deadline,
    /// The [`StopToken`] was tripped externally (e.g. SIGINT).
    Interrupted,
    /// More faults than `TunerOptions::max_faults` were tolerated.
    FaultLimit,
    /// `TunerOptions::optimizer_call_budget` ran out: the next step
    /// needed more real what-if invocations than remained.
    CallBudget,
}

impl StopReason {
    /// Short lower-case label for CLI output and logs.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::IterationBudget => "iteration-budget",
            StopReason::Deadline => "deadline",
            StopReason::Interrupted => "interrupted",
            StopReason::FaultLimit => "fault-limit",
            StopReason::CallBudget => "call-budget",
        }
    }
}

// Token encoding: 0 = not tripped; otherwise a trip-able reason.
const TRIP_DEADLINE: u8 = 1;
const TRIP_INTERRUPTED: u8 = 2;
const TRIP_FAULT_LIMIT: u8 = 3;
const TRIP_CALL_BUDGET: u8 = 4;

/// A shared, trip-once cancellation token. Cloning shares the flag.
///
/// The first `trip` wins: later trips (a deadline firing after Ctrl-C,
/// say) do not overwrite the recorded reason. All operations are lock-
/// free and async-signal-safe, so the SIGINT handler may trip the token
/// directly.
#[derive(Debug, Clone, Default)]
pub struct StopToken(Arc<AtomicU8>);

impl StopToken {
    pub fn new() -> StopToken {
        StopToken::default()
    }

    /// Trip the token. Returns `true` if this call was the first trip.
    /// Only `Deadline`, `Interrupted`, `FaultLimit`, and `CallBudget`
    /// are trip-able; other reasons describe natural session ends and
    /// are ignored.
    pub fn trip(&self, reason: StopReason) -> bool {
        let code = match reason {
            StopReason::Deadline => TRIP_DEADLINE,
            StopReason::Interrupted => TRIP_INTERRUPTED,
            StopReason::FaultLimit => TRIP_FAULT_LIMIT,
            StopReason::CallBudget => TRIP_CALL_BUDGET,
            StopReason::Converged | StopReason::IterationBudget => return false,
        };
        self.0
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The reason the token was tripped with, if any.
    pub fn get(&self) -> Option<StopReason> {
        match self.0.load(Ordering::Acquire) {
            0 => None,
            TRIP_DEADLINE => Some(StopReason::Deadline),
            TRIP_INTERRUPTED => Some(StopReason::Interrupted),
            TRIP_CALL_BUDGET => Some(StopReason::CallBudget),
            _ => Some(StopReason::FaultLimit),
        }
    }

    pub fn is_tripped(&self) -> bool {
        self.0.load(Ordering::Acquire) != 0
    }

    fn inner(&self) -> &Arc<AtomicU8> {
        &self.0
    }
}

/// A [`StopToken`] plus an optional wall-clock deadline. `stopped`
/// lazily converts a passed deadline into a `Deadline` trip, so every
/// caller — driver loop, pre-pass, per-query evaluation — sees one
/// consistent first-trip reason.
#[derive(Debug, Clone, Copy)]
pub struct StopCheck<'a> {
    token: &'a StopToken,
    deadline: Option<Instant>,
}

impl<'a> StopCheck<'a> {
    pub fn new(token: &'a StopToken, deadline: Option<Instant>) -> StopCheck<'a> {
        StopCheck { token, deadline }
    }

    /// The stop reason, tripping the token first if the deadline has
    /// passed. `None` means: keep working.
    pub fn stopped(&self) -> Option<StopReason> {
        if let Some(r) = self.token.get() {
            return Some(r);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.token.trip(StopReason::Deadline);
            return Some(self.token.get().unwrap_or(StopReason::Deadline));
        }
        None
    }

    pub fn is_stopped(&self) -> bool {
        self.stopped().is_some()
    }
}

// Per-signal token slots for the cooperative stop handlers. The
// handler cannot own an `Arc`, so one strong count is leaked into a
// static pointer slot per signal. Install-once: later calls for a
// different token swap the slot (the superseded count stays leaked —
// bounded by the number of install calls, one or two per process run).
#[cfg(unix)]
static SIGINT_TOKEN: AtomicUsize = AtomicUsize::new(0);
#[cfg(unix)]
static SIGTERM_TOKEN: AtomicUsize = AtomicUsize::new(0);

#[cfg(unix)]
const SIGINT_NUM: i32 = 2;
#[cfg(unix)]
const SIGTERM_NUM: i32 = 15;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Shared handler body: trip the signal's registered token and fall
/// back to the default disposition, so a *second* delivery of the same
/// signal kills the process. Async-signal-safe: two atomic operations
/// and a `signal` call.
#[cfg(unix)]
extern "C" fn on_stop_signal(signum: i32) {
    const SIG_DFL: usize = 0;
    let slot = if signum == SIGTERM_NUM {
        &SIGTERM_TOKEN
    } else {
        &SIGINT_TOKEN
    };
    let ptr = slot.load(Ordering::Acquire);
    if ptr != 0 {
        let flag = unsafe { &*(ptr as *const AtomicU8) };
        let _ = flag.compare_exchange(0, TRIP_INTERRUPTED, Ordering::AcqRel, Ordering::Acquire);
    }
    unsafe {
        signal(signum, SIG_DFL);
    }
}

#[cfg(unix)]
fn install_stop_signal(token: &StopToken, signum: i32, slot: &AtomicUsize) {
    let raw = Arc::into_raw(Arc::clone(token.inner())) as usize;
    slot.store(raw, Ordering::Release);
    unsafe {
        signal(signum, on_stop_signal as extern "C" fn(i32) as usize);
    }
}

/// Install a process-wide SIGINT handler that trips `token`, so Ctrl-C
/// ends the session cooperatively and the caller still gets a complete
/// report. A second Ctrl-C falls back to the default disposition
/// (process death) — the handler resets itself after the first trip.
///
/// Implemented with `signal(2)` directly (std already links libc; no
/// new dependency).
#[cfg(unix)]
pub fn install_sigint(token: &StopToken) {
    install_stop_signal(token, SIGINT_NUM, &SIGINT_TOKEN);
}

/// Install a process-wide SIGTERM handler that trips `token`. The serve
/// daemon uses this for graceful shutdown: a service manager's SIGTERM
/// drains every live session to a durable checkpoint before exit, and a
/// second SIGTERM (or an impatient SIGKILL) falls back to process
/// death — which the recovery scan then handles on restart.
#[cfg(unix)]
pub fn install_sigterm(token: &StopToken) {
    install_stop_signal(token, SIGTERM_NUM, &SIGTERM_TOKEN);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn first_trip_wins() {
        let t = StopToken::new();
        assert_eq!(t.get(), None);
        assert!(!t.is_tripped());
        assert!(t.trip(StopReason::Interrupted));
        assert!(!t.trip(StopReason::Deadline), "second trip must lose");
        assert_eq!(t.get(), Some(StopReason::Interrupted));
        assert!(t.is_tripped());
    }

    #[test]
    fn natural_reasons_do_not_trip() {
        let t = StopToken::new();
        assert!(!t.trip(StopReason::Converged));
        assert!(!t.trip(StopReason::IterationBudget));
        assert_eq!(t.get(), None);
    }

    #[test]
    fn clones_share_the_flag() {
        let t = StopToken::new();
        let c = t.clone();
        t.trip(StopReason::FaultLimit);
        assert_eq!(c.get(), Some(StopReason::FaultLimit));
    }

    #[test]
    fn deadline_converts_to_trip() {
        let t = StopToken::new();
        let check = StopCheck::new(&t, Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(check.stopped(), Some(StopReason::Deadline));
        assert_eq!(t.get(), Some(StopReason::Deadline));
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let t = StopToken::new();
        let check = StopCheck::new(&t, Some(Instant::now() + Duration::from_secs(3600)));
        assert!(!check.is_stopped());
        let unbounded = StopCheck::new(&t, None);
        assert!(!unbounded.is_stopped());
    }

    #[test]
    fn external_trip_beats_deadline() {
        let t = StopToken::new();
        t.trip(StopReason::Interrupted);
        let check = StopCheck::new(&t, Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(check.stopped(), Some(StopReason::Interrupted));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StopReason::Deadline.label(), "deadline");
        assert_eq!(StopReason::IterationBudget.label(), "iteration-budget");
        assert_eq!(StopReason::CallBudget.label(), "call-budget");
    }

    #[test]
    fn call_budget_trips_and_decodes() {
        let t = StopToken::new();
        assert!(t.trip(StopReason::CallBudget));
        assert_eq!(t.get(), Some(StopReason::CallBudget));
    }
}
