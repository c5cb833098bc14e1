//! Access-path and view requests: the two instrumentation points.
//!
//! "Each time the optimizer issues an index or view request, we suspend
//! optimization and analyze the request ... we then simulate these
//! hypothetical structures in the system catalogs and resume
//! optimization" (paper §2, Fig. 2). A [`RequestSink`] receives each
//! request *before* the optimizer enumerates physical alternatives and
//! may add hypothetical structures to the working configuration.

use pdt_catalog::{ColumnId, Database, TableId};
use pdt_expr::SargablePred;
use pdt_physical::{Configuration, SpjgExpr};
use std::collections::BTreeSet;

/// An index request `(S, N, O, A)`: "S are columns in sargable
/// predicates, N contains subsets of columns in non-sargable
/// predicates, O are columns in order requests, and A are other
/// referenced columns" (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRequest {
    /// The table (or materialized view) being accessed.
    pub table: TableId,
    /// `S`: sargable predicates, with merged sargs and selectivities
    /// derivable against the catalog.
    pub sargable: Vec<SargablePred>,
    /// `N`: column sets of local non-sargable predicates, with their
    /// heuristic selectivities.
    pub non_sargable: Vec<(BTreeSet<ColumnId>, f64)>,
    /// `O`: requested output order.
    pub order: Vec<(ColumnId, bool)>,
    /// `A`: additional columns referenced upwards in the tree.
    pub additional: BTreeSet<ColumnId>,
    /// Cardinality of the underlying table/view.
    pub input_rows: f64,
}

impl IndexRequest {
    /// All columns mentioned anywhere in the request.
    pub fn all_columns(&self) -> BTreeSet<ColumnId> {
        let mut out: BTreeSet<ColumnId> = self.sargable.iter().map(|s| s.column).collect();
        for (cols, _) in &self.non_sargable {
            out.extend(cols.iter().copied());
        }
        out.extend(self.order.iter().map(|(c, _)| *c));
        out.extend(self.additional.iter().copied());
        out
    }
}

/// A view request: an SPJG sub-query the optimizer would like a
/// materialized view for.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewRequest {
    pub spjg: SpjgExpr,
    /// True when the request covers the whole query block (as opposed
    /// to a join sub-expression explored during enumeration).
    pub top_level: bool,
}

/// Instrumentation hook invoked at the two optimizer entry points.
pub trait RequestSink {
    /// Called before single-relation access-path selection. The sink
    /// may add hypothetical indexes to `config`.
    fn on_index_request(
        &mut self,
        _req: &IndexRequest,
        _db: &Database,
        _config: &mut Configuration,
    ) {
    }

    /// Called before view matching for an SPJG sub-query. The sink may
    /// add hypothetical materialized views (plus their clustered
    /// indexes) to `config`.
    fn on_view_request(&mut self, _req: &ViewRequest, _db: &Database, _config: &mut Configuration) {
    }

    /// Whether this sink looks at the requests at all. A property of
    /// the sink type, not a setting: only a sink that ignores every
    /// request and never touches the configuration may answer `false`.
    /// The optimizer then neither builds requests nobody reads nor
    /// chooses the same access path twice in one invocation. Any sink
    /// that counts, traces or extends the configuration must see every
    /// request, in enumeration order, and each choice must be made
    /// under the configuration it left behind.
    fn observes(&self) -> bool {
        true
    }
}

/// A sink that does nothing (plain optimization).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl RequestSink for NullSink {
    fn observes(&self) -> bool {
        false
    }
}

/// A sink that counts requests (reproduces the paper's Table 1).
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    pub index_requests: usize,
    pub view_requests: usize,
}

impl RequestSink for CountingSink {
    fn on_index_request(
        &mut self,
        _req: &IndexRequest,
        _db: &Database,
        _config: &mut Configuration,
    ) {
        self.index_requests += 1;
    }

    fn on_view_request(&mut self, _req: &ViewRequest, _db: &Database, _config: &mut Configuration) {
        self.view_requests += 1;
    }
}

/// A sink that emits one trace event per request, then delegates to an
/// inner sink. Optimization under a sink is single-threaded (requests
/// arrive in plan-enumeration order), so the event stream is
/// deterministic for a given query and configuration.
pub struct TracingSink<'a, S: RequestSink> {
    inner: S,
    tracer: &'a pdt_trace::Tracer,
}

impl<'a, S: RequestSink> TracingSink<'a, S> {
    pub fn new(inner: S, tracer: &'a pdt_trace::Tracer) -> Self {
        TracingSink { inner, tracer }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RequestSink> RequestSink for TracingSink<'_, S> {
    fn on_index_request(&mut self, req: &IndexRequest, db: &Database, config: &mut Configuration) {
        self.tracer.emit(
            "request.index",
            vec![
                ("table", (req.table.0 as u64).into()),
                ("sargable", req.sargable.len().into()),
                ("non_sargable", req.non_sargable.len().into()),
                ("order", req.order.len().into()),
                ("additional", req.additional.len().into()),
            ],
        );
        self.tracer.incr("request.index", 1);
        self.inner.on_index_request(req, db, config);
    }

    fn on_view_request(&mut self, req: &ViewRequest, db: &Database, config: &mut Configuration) {
        self.tracer.emit(
            "request.view",
            vec![
                ("tables", req.spjg.tables.len().into()),
                ("top_level", req.top_level.into()),
                ("grouped", req.spjg.is_grouped().into()),
            ],
        );
        self.tracer.incr("request.view", 1);
        self.inner.on_view_request(req, db, config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_expr::{Interval, Sarg};

    #[test]
    fn all_columns_unions_every_component() {
        let t = TableId(0);
        let c = |i: u16| ColumnId::new(t, i);
        let req = IndexRequest {
            table: t,
            sargable: vec![SargablePred {
                column: c(0),
                sarg: Sarg::Range(Interval::point(1.0)),
            }],
            non_sargable: vec![([c(1), c(2)].into(), 0.33)],
            order: vec![(c(3), false)],
            additional: [c(4)].into(),
            input_rows: 100.0,
        };
        assert_eq!(req.all_columns().len(), 5);
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::default();
        let mut b = pdt_catalog::Database::builder("x");
        b.add_table(
            "t",
            1.0,
            vec![pdt_catalog::Column {
                name: "a".into(),
                ty: pdt_catalog::ColumnType::Int,
                stats: pdt_catalog::ColumnStats::uniform(1.0, 0.0, 1.0, 4.0),
            }],
            vec![],
        );
        let db = b.build();
        let mut config = Configuration::new();
        let req = IndexRequest {
            table: TableId(0),
            sargable: vec![],
            non_sargable: vec![],
            order: vec![],
            additional: BTreeSet::new(),
            input_rows: 1.0,
        };
        sink.on_index_request(&req, &db, &mut config);
        sink.on_index_request(&req, &db, &mut config);
        sink.on_view_request(
            &ViewRequest {
                spjg: SpjgExpr::default(),
                top_level: true,
            },
            &db,
            &mut config,
        );
        assert_eq!(sink.index_requests, 2);
        assert_eq!(sink.view_requests, 1);
    }
}
