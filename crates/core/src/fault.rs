//! Deterministic fault injection and fault accounting.
//!
//! The recovery paths added by the resilience layer (catch_unwind
//! around candidate evaluation, cache-entry validation) are only
//! trustworthy if they are exercised. [`FaultPlan`] injects failures
//! at chosen points — forced panics inside what-if evaluation and
//! poisoned (NaN) cost-cache inserts — from a pure hash of
//! `(seed, kind, site, iteration, query)`, so a given plan fires at
//! exactly the same logical points on every run and across resume.
//! That keeps the workspace determinism invariant intact even for
//! faulted runs, and makes every injected failure reproducible from the
//! seed alone.

use std::fmt;

/// Injection site: which pipeline stage the evaluation runs under.
pub const SITE_CANDIDATE: u32 = 1;
pub const SITE_SHRINK: u32 = 2;
pub const SITE_PREPASS: u32 = 3;
/// I/O sites: which durable-write path a serve-mode fault targets.
pub const SITE_CHECKPOINT_WRITE: u32 = 4;
pub const SITE_MANIFEST_WRITE: u32 = 5;

const KIND_PANIC: u64 = 1;
const KIND_POISON: u64 = 2;
const KIND_IO: u64 = 3;

/// A seeded plan for injecting faults at a given per-decision rate.
///
/// Parsed from `PDTUNE_FAULTS=<seed>:<rate>` by the CLI or set
/// directly via `TunerOptions::fault_plan`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability in `[0, 1]` that any single decision point fires.
    pub rate: f64,
}

impl FaultPlan {
    /// Parse `"<seed>:<rate>"`, e.g. `"7:0.05"`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed, rate) = s
            .split_once(':')
            .ok_or_else(|| format!("expected <seed>:<rate>, got '{s}'"))?;
        let seed = seed
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("bad fault seed '{seed}'"))?;
        let rate = rate
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("bad fault rate '{rate}'"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} not in [0, 1]"));
        }
        Ok(FaultPlan { seed, rate })
    }

    /// Read a plan from the `PDTUNE_FAULTS` environment variable.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("PDTUNE_FAULTS") {
            Ok(v) if !v.trim().is_empty() => FaultPlan::parse(v.trim()).map(Some),
            _ => Ok(None),
        }
    }

    /// Pure decision: does the fault of `kind` fire at this logical
    /// point? Depends only on the plan and the point's coordinates —
    /// never on time or evaluation order.
    fn roll(&self, kind: u64, site: u32, iteration: u64, query: u64) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        // SplitMix64 finalizer over the mixed coordinates.
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(kind)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(site as u64)
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(iteration)
            .rotate_left(31)
            .wrapping_add(query.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x as f64) < self.rate * (u64::MAX as f64)
    }

    /// Pure decision: does the `attempt`-th try of durable write number
    /// `seq` at `site` (checkpoint or manifest) fail with an injected
    /// I/O error? Each retry attempt rolls independently at the plan's
    /// rate, so a bounded-retry/backoff policy is exercised end to end:
    /// with rate 1.0 every attempt fails (the write gives up after its
    /// retry budget), with intermediate rates some writes succeed only
    /// on a later attempt. Deterministic in `(seed, site, seq,
    /// attempt)` — never in time or daemon scheduling.
    pub fn io_write_fails(&self, site: u32, seq: u64, attempt: u64) -> bool {
        self.roll(KIND_IO, site, seq, attempt)
    }
}

/// A [`FaultPlan`] positioned at one evaluation site and iteration;
/// handed to the eval layer so per-query decision points can roll.
#[derive(Debug, Clone, Copy)]
pub struct FaultSite<'a> {
    plan: &'a FaultPlan,
    site: u32,
    iteration: u64,
}

impl<'a> FaultSite<'a> {
    pub fn new(plan: &'a FaultPlan, site: u32, iteration: u64) -> FaultSite<'a> {
        FaultSite {
            plan,
            site,
            iteration,
        }
    }

    /// Panic (to be caught by the isolation layer) if the plan says
    /// this query's evaluation fails here.
    pub fn maybe_panic(&self, query: usize) {
        if self
            .plan
            .roll(KIND_PANIC, self.site, self.iteration, query as u64)
        {
            panic!(
                "injected fault: site={} iteration={} query={query}",
                self.site, self.iteration
            );
        }
    }

    /// Does the plan poison the cache entry this query is about to
    /// insert? (The eval layer then writes a NaN cost, which the
    /// validation path must detect and repair on the next lookup.)
    pub fn poison_roll(&self, query: usize) -> bool {
        self.plan
            .roll(KIND_POISON, self.site, self.iteration, query as u64)
    }
}

/// What kind of fault was observed (injected or genuine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A panic escaped a what-if evaluation and was contained.
    EvalPanic,
    /// A corrupt cost-cache entry was detected and repaired.
    CachePoison,
}

impl FaultKind {
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::EvalPanic => "eval-panic",
            FaultKind::CachePoison => "cache-poison",
        }
    }
}

/// One contained fault, recorded in the report's `faults` list.
#[derive(Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Search iteration the fault surfaced in (0 = pre-pass/setup).
    pub iteration: usize,
    pub kind: FaultKind,
    /// Human-readable context (panic payload or repaired query index).
    pub detail: String,
}

impl fmt::Debug for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultEvent")
            .field("iteration", &self.iteration)
            .field("kind", &self.kind)
            .field("detail", &self.detail)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_rate() {
        assert_eq!(
            FaultPlan::parse("7:0.05"),
            Ok(FaultPlan {
                seed: 7,
                rate: 0.05
            })
        );
        assert_eq!(
            FaultPlan::parse(" 42 : 1.0 "),
            Ok(FaultPlan {
                seed: 42,
                rate: 1.0
            })
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("7").is_err());
        assert!(FaultPlan::parse("x:0.1").is_err());
        assert!(FaultPlan::parse("7:nope").is_err());
        assert!(FaultPlan::parse("7:1.5").is_err());
        assert!(FaultPlan::parse("7:-0.1").is_err());
        assert!(FaultPlan::parse("7:NaN").is_err());
    }

    #[test]
    fn rolls_are_deterministic_and_distinct() {
        let plan = FaultPlan { seed: 9, rate: 0.5 };
        for site in [SITE_CANDIDATE, SITE_SHRINK, SITE_PREPASS] {
            for it in 0..20u64 {
                for q in 0..10u64 {
                    assert_eq!(
                        plan.roll(KIND_PANIC, site, it, q),
                        plan.roll(KIND_PANIC, site, it, q)
                    );
                }
            }
        }
        // Different kinds must decide independently at the same point.
        let mut diverged = false;
        for q in 0..64u64 {
            if plan.roll(KIND_PANIC, SITE_CANDIDATE, 1, q)
                != plan.roll(KIND_POISON, SITE_CANDIDATE, 1, q)
            {
                diverged = true;
            }
        }
        assert!(diverged, "panic and poison rolls should be independent");
    }

    #[test]
    fn rate_bounds_behave() {
        let never = FaultPlan { seed: 1, rate: 0.0 };
        let always = FaultPlan { seed: 1, rate: 1.0 };
        for q in 0..32u64 {
            assert!(!never.roll(KIND_PANIC, SITE_CANDIDATE, 3, q));
            assert!(always.roll(KIND_PANIC, SITE_CANDIDATE, 3, q));
        }
    }

    #[test]
    fn rate_is_roughly_honored() {
        let plan = FaultPlan { seed: 5, rate: 0.2 };
        let fired = (0..2000u64)
            .filter(|&q| plan.roll(KIND_PANIC, SITE_CANDIDATE, 1, q))
            .count();
        assert!(
            (200..600).contains(&fired),
            "rate 0.2 fired {fired}/2000 times"
        );
    }

    #[test]
    fn io_rolls_are_deterministic_and_attempt_independent() {
        let plan = FaultPlan {
            seed: 11,
            rate: 0.5,
        };
        for site in [SITE_CHECKPOINT_WRITE, SITE_MANIFEST_WRITE] {
            for seq in 0..32u64 {
                for attempt in 0..4u64 {
                    assert_eq!(
                        plan.io_write_fails(site, seq, attempt),
                        plan.io_write_fails(site, seq, attempt)
                    );
                }
            }
        }
        // Attempts at the same write must decide independently, so a
        // retry can succeed where the first try failed.
        let diverged = (0..64u64).any(|seq| {
            plan.io_write_fails(SITE_CHECKPOINT_WRITE, seq, 0)
                != plan.io_write_fails(SITE_CHECKPOINT_WRITE, seq, 1)
        });
        assert!(diverged, "retry attempts should roll independently");
        // Rate bounds.
        let never = FaultPlan { seed: 1, rate: 0.0 };
        let always = FaultPlan { seed: 1, rate: 1.0 };
        for seq in 0..16u64 {
            assert!(!never.io_write_fails(SITE_MANIFEST_WRITE, seq, 0));
            assert!(always.io_write_fails(SITE_MANIFEST_WRITE, seq, 0));
        }
    }

    #[test]
    fn site_panics_and_rolls() {
        let plan = FaultPlan { seed: 3, rate: 1.0 };
        let site = FaultSite::new(&plan, SITE_CANDIDATE, 4);
        assert!(site.poison_roll(0));
        let err = std::panic::catch_unwind(|| site.maybe_panic(2)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with("injected fault:"), "{msg}");
    }
}
