//! Access-path and view requests: the two instrumentation points.
//!
//! "Each time the optimizer issues an index or view request, we suspend
//! optimization and analyze the request ... we then simulate these
//! hypothetical structures in the system catalogs and resume
//! optimization" (paper §2, Fig. 2). The §2 walk
//! (`Optimizer::observe_with_sink`) hands a [`RequestSink`] each
//! request a plan search makes, in the search's order, and the sink may
//! add hypothetical structures to the working configuration before the
//! next request is built. A plan search itself issues no requests.

use crate::prepared::PreparedSelect;
use pdt_catalog::{ColumnId, Database, TableId};
use pdt_expr::{Bound, Sarg, SargablePred};
use pdt_physical::{Configuration, SpjgExpr};
use std::cell::OnceCell;
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

    /// The request as words: two requests have equal keys iff they are
    /// equal field by field with every `f64` compared by its bits. A
    /// map keyed by it finds the earlier issues of a request.
    pub fn bit_key(&self) -> Vec<u64> {
        let mut key = Vec::new();
        self.write_bit_key(&mut key);
        key
    }

    /// [`bit_key`](Self::bit_key) written into `key`, which is cleared
    /// first: a caller that looks up many requests reuses one buffer.
    pub fn write_bit_key(&self, key: &mut Vec<u64>) {
        let col = |c: &ColumnId| u64::from(c.table.0) << 16 | u64::from(c.ordinal);
        let bound = |b: &Bound| match b {
            Bound::Unbounded => [0, 0],
            Bound::Inclusive(v) => [1, v.to_bits()],
            Bound::Exclusive(v) => [2, v.to_bits()],
        };
        key.clear();
        key.extend([u64::from(self.table.0), self.input_rows.to_bits()]);
        key.push(self.sargable.len() as u64);
        for s in &self.sargable {
            key.push(col(&s.column));
            match &s.sarg {
                Sarg::Range(i) => {
                    key.push(0);
                    key.extend(bound(&i.lo));
                    key.extend(bound(&i.hi));
                }
                Sarg::InList(values) => {
                    key.extend([1, values.len() as u64]);
                    key.extend(values.iter().map(|v| v.to_bits()));
                }
                Sarg::Prefix(prefix) => {
                    key.extend([2, prefix.len() as u64]);
                    key.extend(prefix.bytes().map(u64::from));
                }
                Sarg::Param { selectivity } => key.extend([3, selectivity.to_bits()]),
            }
        }
        key.push(self.non_sargable.len() as u64);
        for (cols, sel) in &self.non_sargable {
            key.extend([cols.len() as u64, sel.to_bits()]);
            key.extend(cols.iter().map(col));
        }
        key.push(self.order.len() as u64);
        key.extend(
            self.order
                .iter()
                .map(|(c, desc)| col(c) << 1 | u64::from(*desc)),
        );
        key.push(self.additional.len() as u64);
        key.extend(self.additional.iter().map(col));
    }
}

/// A view request: an SPJG sub-query the optimizer would like a
/// materialized view for. A request the §2 walk issues builds its
/// expression on first read ([`spjg`](Self::spjg)), so a sink that
/// ignores join-subset requests never pays for their expressions.
#[derive(Clone)]
pub struct ViewRequest<'p> {
    spjg: OnceCell<SpjgExpr>,
    /// The prepared statement and FROM-position mask the expression is
    /// built from, when it is not built yet.
    source: Option<(&'p PreparedSelect, Option<usize>)>,
    /// True when the request covers the whole query block (as opposed
    /// to a join sub-expression explored during enumeration).
    pub top_level: bool,
}

impl ViewRequest<'static> {
    /// A request for `spjg`.
    pub fn new(spjg: SpjgExpr, top_level: bool) -> Self {
        ViewRequest {
            spjg: OnceCell::from(spjg),
            source: None,
            top_level,
        }
    }
}

impl<'p> ViewRequest<'p> {
    /// The request over the tables of `prep`'s block at the FROM
    /// positions of `subset` (`None`: the whole block), its expression
    /// not yet built.
    pub(crate) fn over(prep: &'p PreparedSelect, subset: Option<usize>) -> ViewRequest<'p> {
        ViewRequest {
            spjg: OnceCell::new(),
            source: Some((prep, subset)),
            top_level: subset.is_none(),
        }
    }

    /// The requested SPJG expression.
    pub fn spjg(&self) -> &SpjgExpr {
        self.spjg.get_or_init(|| {
            let (prep, subset) = self
                .source
                .expect("a request without an expression has a source");
            prep.view_spjg(subset)
        })
    }
}

impl std::fmt::Debug for ViewRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewRequest")
            .field("spjg", self.spjg())
            .field("top_level", &self.top_level)
            .finish()
    }
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

/// A sink that emits one trace event per request when it has a tracer,
/// then delegates to an inner sink. The §2 walk is single-threaded and
/// issues requests in the plan search's order, so the event stream is
/// deterministic for a given query and configuration.
pub struct TracingSink<'a, S: RequestSink> {
    inner: S,
    tracer: Option<&'a pdt_trace::Tracer>,
}

impl<'a, S: RequestSink> TracingSink<'a, S> {
    pub fn new(inner: S, tracer: Option<&'a pdt_trace::Tracer>) -> Self {
        TracingSink { inner, tracer }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RequestSink> RequestSink for TracingSink<'_, S> {
    fn on_index_request(&mut self, req: &IndexRequest, db: &Database, config: &mut Configuration) {
        if let Some(t) = self.tracer {
            t.emit(
                "request.index",
                vec![
                    ("table", (req.table.0 as u64).into()),
                    ("sargable", req.sargable.len().into()),
                    ("non_sargable", req.non_sargable.len().into()),
                    ("order", req.order.len().into()),
                    ("additional", req.additional.len().into()),
                ],
            );
            t.incr("request.index", 1);
        }
        self.inner.on_index_request(req, db, config);
    }

    fn on_view_request(&mut self, req: &ViewRequest, db: &Database, config: &mut Configuration) {
        if let Some(t) = self.tracer {
            t.emit(
                "request.view",
                vec![
                    ("tables", req.spjg().tables.len().into()),
                    ("top_level", req.top_level.into()),
                    ("grouped", req.spjg().is_grouped().into()),
                ],
            );
            t.incr("request.view", 1);
        }
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
            &ViewRequest::new(SpjgExpr::default(), true),
            &db,
            &mut config,
        );
        assert_eq!(sink.index_requests, 2);
        assert_eq!(sink.view_requests, 1);
    }
}
