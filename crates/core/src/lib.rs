//! # pdt-tuner — relaxation-based automatic physical database tuning
//!
//! The paper's contribution (Bruno & Chaudhuri, SIGMOD 2005):
//!
//! 1. [`instrument`] — intercept every index/view request the optimizer
//!    issues, synthesize the per-request optimal structure (§2.1,
//!    Lemmas 1–2), and gather the **optimal configuration**;
//! 2. [`transform`] — the relaxation transformations of §3.1: index
//!    merge / split / prefix / promote-to-clustered / removal, view
//!    merge (with index promotion) / removal;
//! 3. [`bound`] — §3.3.2: upper-bound the cost of a relaxed
//!    configuration *without* optimizer calls by locally patching the
//!    plans that used the replaced structures;
//! 4. [`search`] — the Fig. 5 template search with the §3.4 penalty
//!    heuristic, §3.5 variations, and §3.6 update handling (update
//!    shells, skyline filtering, keep-relaxing-below-budget); what a
//!    search node knows about its configuration, and the one rule that
//!    derives a child's from its parent's, is [`node`];
//! 5. [`eval`] — workload cost evaluation with minimal re-optimization,
//!    memoized through the session's what-if cost cache ([`cache`]);
//! 6. [`workload`] — bound workloads and update-shell splitting.
//!
//! Entry point: [`tune`].
//!
//! ```no_run
//! use pdt_tuner::{tune, TunerOptions, Workload};
//! use pdt_workloads::tpch;
//!
//! let db = tpch::tpch_database(0.1);
//! let w = Workload::bind(&db, &tpch::tpch_workload().statements).unwrap();
//! let report = tune(&db, &w, &TunerOptions {
//!     space_budget: Some(512.0 * 1024.0 * 1024.0),
//!     ..TunerOptions::default()
//! });
//! println!("best improvement: {:.1}%", report.best_improvement_pct());
//! ```

pub mod arena;
pub mod bound;
pub mod cache;
pub mod checkpoint;
pub mod derived;
pub mod error;
pub mod eval;
pub mod fault;
pub mod incremental;
pub mod instrument;
pub mod node;
pub mod online;
pub mod report;
pub mod search;
pub mod shared;
pub mod stop;
pub mod transform;
pub mod workload;

pub use cache::{CacheEntry, CostCache, DerivedTally};
pub use checkpoint::{config_from_json, config_to_json, Checkpoint, TraceCheckpoint};
pub use derived::{FlatProjector, Projection, QueryRelevance, RelevanceTable};
pub use error::TuneError;
pub use eval::{EvalCtx, EvalResult, QueryEval};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use incremental::Interner;
pub use instrument::{
    gather_optimal_configuration, gather_optimal_configuration_traced, OptimalSink,
};
pub use online::{
    render_replay_report, run_replay, window_costs, DriftDecision, DriftDetector, EpochReport,
    ReplayOptions, ReplayReport, WindowOptions, WindowSummarizer,
};
pub use report::{configuration_ddl, index_ddl, summarize};
pub use search::{
    tune, tune_session, tune_traced, BoundViolation, ConfigChoice, FrontierPoint, Reference,
    SessionCtl, TransformationChoice, TunerOptions, TuningReport,
};
pub use shared::{
    schema_signature, statement_signature, SharedInvocationStore, SharedKey, SharedStats,
    DEFAULT_SHARED_CAP,
};
#[cfg(unix)]
pub use stop::{install_sigint, install_sigterm};
pub use stop::{StopCheck, StopReason, StopToken};
pub use transform::{AppliedTransform, Transformation};
pub use workload::{UpdateShell, Workload, WorkloadEntry};
