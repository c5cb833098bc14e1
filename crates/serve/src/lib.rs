//! # pdt-serve — crash-safe tuning daemon for pdtune
//!
//! `pdtune serve` turns the single-shot tuner into a long-lived,
//! durable service: tuning jobs arrive over a line-delimited JSON
//! protocol on a local TCP socket, run concurrently through the PR 3
//! checkpoint machinery, and survive anything up to `kill -9` — an
//! interrupted session resumes from its durable checkpoint and
//! produces a report and trace **byte-identical** to an uninterrupted
//! run, at every thread count.
//!
//! The crate is organized by responsibility:
//!
//! - [`durable`] — crash-safe writes (tmp + fsync + rename + dir
//!   fsync) and the bounded-retry/backoff policy, with deterministic
//!   I/O fault injection;
//! - [`job`] — [`job::JobSpec`], the pure-data description of one job
//!   from which database, workload, and options are derived on every
//!   (re)run;
//! - [`catalogs`] — the daemon's table of built catalogs, one shared
//!   `Arc<Database>` per [`job::JobSpec::catalog_key`];
//! - [`manifest`] — the WAL-style per-session state record that makes
//!   accepted jobs unlosable;
//! - [`session`] — the fault-isolated run of one session
//!   (`catch_unwind`, durable checkpoints, terminal artifacts);
//! - [`daemon`] — accept loop, worker pool, bounded admission with
//!   explicit backpressure, fair-share what-if budget scheduling,
//!   recovery scan, graceful drain;
//! - [`protocol`] — the wire format;
//! - [`client`] — a blocking client with retries, timeouts, and
//!   backpressure-honoring submit (used by `pdtune job` and tests).

pub mod catalogs;
pub mod client;
pub mod daemon;
pub mod durable;
pub mod job;
pub mod manifest;
pub mod protocol;
pub mod session;

pub use catalogs::CatalogTable;
pub use client::Client;
pub use daemon::{serve, ServeOptions};
pub use durable::{atomic_write, CheckpointLog, DurableWriter, RetryPolicy};
pub use job::JobSpec;
pub use manifest::{Manifest, SessionState};
pub use session::{run_session, RunOutcome, Session, SessionCounters};
