//! # pdt-opt — a cost-based query optimizer with instrumentable
//! access-path and view-matching entry points
//!
//! A from-scratch System-R-style optimizer built specifically so that
//! the relaxation-based tuner can instrument it the way the paper
//! instruments SQL Server (Section 2):
//!
//! * there is **one** component that generates physical strategies for
//!   single-table logical sub-plans ([`access`]), and **one** view
//!   matching component ([`Optimizer`] drives [`pdt_physical::view`]);
//! * the §2 walk ([`Optimizer::observe_with_sink`]) hands a
//!   [`RequestSink`] every full [`IndexRequest`] `(S, N, O, A)` and
//!   [`ViewRequest`] (an SPJG sub-query) a plan search would make, in
//!   its order. The sink may add hypothetical structures to the working
//!   configuration *before* the next request is built — the
//!   suspend/analyze/resume loop of the paper's Fig. 2. A plan search
//!   is a pure function of the configuration and issues no requests;
//! * plans carry per-index [`IndexUsage`] annotations: everything the
//!   paper's §3.3.2 extracts from "explain" output (cost, rows, seek vs
//!   scan, seek selectivity, provided order, provided columns).
//!
//! The optimizer performs: predicate classification, histogram-based
//! cardinality estimation, single-table access-path selection (seeks,
//! covering scans, rid lookups, two-way rid intersection, sort
//! avoidance), dynamic-programming join enumeration (hash joins and
//! index nested-loops), view matching with compensating filters and
//! re-grouping, and sort/aggregate planning.

pub mod access;
pub mod block;
pub mod card;
pub mod cost;
pub mod optimizer;
pub mod plan;
pub mod prepared;
pub mod request;

pub use block::QueryBlock;
pub use cost::CostModel;
pub use optimizer::{invocation_count, plan_footprint, reprice_plan, Optimizer, OptimizerOptions};
pub use plan::{IndexUsage, Op, PhysPlan, PlanNode, UsageKind};
pub use prepared::{PreparedSelect, WhatIf};
pub use request::{CountingSink, IndexRequest, RequestSink, TracingSink, ViewRequest};
