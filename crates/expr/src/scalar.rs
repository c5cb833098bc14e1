//! Bound scalar expressions and predicate trees.

use pdt_catalog::{ColumnId, Database, TableId, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators in bound predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` -> `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
            other => other,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }
}

/// Arithmetic operators inside scalar expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    pub fn as_str(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }

    fn is_commutative(self) -> bool {
        matches!(self, ArithOp::Add | ArithOp::Mul)
    }
}

/// Aggregate functions over bound expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A bound aggregate call (`arg == None` means `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<ScalarExpr>,
    pub distinct: bool,
}

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    Column(ColumnId),
    Literal(Value),
    Arith {
        op: ArithOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    Neg(Box<ScalarExpr>),
    Agg(Box<AggCall>),
}

impl ScalarExpr {
    pub fn column(id: ColumnId) -> ScalarExpr {
        ScalarExpr::Column(id)
    }

    pub fn literal(v: Value) -> ScalarExpr {
        ScalarExpr::Literal(v)
    }

    /// Collect every referenced base column into `out`.
    pub fn collect_columns(&self, out: &mut BTreeSet<ColumnId>) {
        match self {
            ScalarExpr::Column(c) => {
                out.insert(*c);
            }
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Arith { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            ScalarExpr::Neg(e) => e.collect_columns(out),
            ScalarExpr::Agg(call) => {
                if let Some(arg) = &call.arg {
                    arg.collect_columns(out);
                }
            }
        }
    }

    /// The set of referenced columns.
    pub fn columns(&self) -> BTreeSet<ColumnId> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    /// The set of referenced tables.
    pub fn tables(&self) -> BTreeSet<TableId> {
        self.columns().into_iter().map(|c| c.table).collect()
    }

    /// True if the expression is exactly one column reference.
    pub fn as_column(&self) -> Option<ColumnId> {
        match self {
            ScalarExpr::Column(c) => Some(*c),
            _ => None,
        }
    }

    /// True if the expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            ScalarExpr::Agg(_) => true,
            ScalarExpr::Arith { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            ScalarExpr::Neg(e) => e.contains_aggregate(),
            _ => false,
        }
    }

    /// Rewrite column references through `f` (used when promoting
    /// indexes/predicates from merged views onto the merged view's
    /// column space).
    pub fn map_columns(&self, f: &mut impl FnMut(ColumnId) -> ColumnId) -> ScalarExpr {
        match self {
            ScalarExpr::Column(c) => ScalarExpr::Column(f(*c)),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Arith { op, left, right } => ScalarExpr::Arith {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(e.map_columns(f))),
            ScalarExpr::Agg(call) => ScalarExpr::Agg(Box::new(AggCall {
                func: call.func,
                arg: call.arg.as_ref().map(|a| a.map_columns(f)),
                distinct: call.distinct,
            })),
        }
    }

    /// Canonicalize commutative operations so that structural equality
    /// is insensitive to operand order (`a + b` == `b + a`).
    pub fn normalized(&self) -> ScalarExpr {
        match self {
            ScalarExpr::Arith { op, left, right } => {
                let l = left.normalized();
                let r = right.normalized();
                if op.is_commutative() && expr_sort_token(&r) < expr_sort_token(&l) {
                    ScalarExpr::Arith {
                        op: *op,
                        left: Box::new(r),
                        right: Box::new(l),
                    }
                } else {
                    ScalarExpr::Arith {
                        op: *op,
                        left: Box::new(l),
                        right: Box::new(r),
                    }
                }
            }
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(e.normalized())),
            ScalarExpr::Agg(call) => ScalarExpr::Agg(Box::new(AggCall {
                func: call.func,
                arg: call.arg.as_ref().map(|a| a.normalized()),
                distinct: call.distinct,
            })),
            other => other.clone(),
        }
    }

    /// Render with human-readable column names.
    pub fn display<'a>(&'a self, db: &'a Database) -> impl fmt::Display + 'a {
        DisplayExpr { expr: self, db }
    }
}

/// Stable ordering token used to canonicalize commutative operands.
fn expr_sort_token(e: &ScalarExpr) -> String {
    format!("{e:?}")
}

struct DisplayExpr<'a> {
    expr: &'a ScalarExpr,
    db: &'a Database,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_scalar(self.expr, self.db, f)
    }
}

fn fmt_scalar(e: &ScalarExpr, db: &Database, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        ScalarExpr::Column(c) => f.write_str(&db.column_name(*c)),
        ScalarExpr::Literal(v) => write!(f, "{v}"),
        ScalarExpr::Arith { op, left, right } => {
            f.write_str("(")?;
            fmt_scalar(left, db, f)?;
            write!(f, " {} ", op.as_str())?;
            fmt_scalar(right, db, f)?;
            f.write_str(")")
        }
        ScalarExpr::Neg(inner) => {
            f.write_str("-")?;
            fmt_scalar(inner, db, f)
        }
        ScalarExpr::Agg(call) => {
            write!(f, "{}(", call.func.as_str())?;
            if call.distinct {
                f.write_str("DISTINCT ")?;
            }
            match &call.arg {
                Some(a) => fmt_scalar(a, db, f)?,
                None => f.write_str("*")?,
            }
            f.write_str(")")
        }
    }
}

/// A bound boolean predicate tree (pre-classification form).
#[derive(Debug, Clone, PartialEq)]
pub enum PredExpr {
    /// `left op right` over scalar expressions.
    Cmp {
        op: CmpOp,
        left: ScalarExpr,
        right: ScalarExpr,
    },
    /// `col IN (v1, ..., vk)` (values are literals).
    InList {
        expr: ScalarExpr,
        list: Vec<Value>,
        negated: bool,
    },
    /// `col LIKE 'pattern'`.
    Like {
        expr: ScalarExpr,
        pattern: String,
        negated: bool,
    },
    IsNull {
        expr: ScalarExpr,
        negated: bool,
    },
    And(Vec<PredExpr>),
    Or(Vec<PredExpr>),
    Not(Box<PredExpr>),
}

impl PredExpr {
    /// Split a predicate into its top-level conjuncts, flattening
    /// nested ANDs.
    pub fn conjuncts(self) -> Vec<PredExpr> {
        match self {
            PredExpr::And(parts) => parts.into_iter().flat_map(PredExpr::conjuncts).collect(),
            other => vec![other],
        }
    }

    /// Conjunction of a list of predicates (flattened).
    pub fn and_all(parts: Vec<PredExpr>) -> Option<PredExpr> {
        let mut flat: Vec<PredExpr> = parts.into_iter().flat_map(PredExpr::conjuncts).collect();
        match flat.len() {
            0 => None,
            1 => Some(flat.remove(0)),
            _ => Some(PredExpr::And(flat)),
        }
    }

    /// Collect every referenced column.
    pub fn collect_columns(&self, out: &mut BTreeSet<ColumnId>) {
        match self {
            PredExpr::Cmp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            PredExpr::InList { expr, .. }
            | PredExpr::Like { expr, .. }
            | PredExpr::IsNull { expr, .. } => expr.collect_columns(out),
            PredExpr::And(parts) | PredExpr::Or(parts) => {
                for p in parts {
                    p.collect_columns(out);
                }
            }
            PredExpr::Not(inner) => inner.collect_columns(out),
        }
    }

    /// The set of referenced columns.
    pub fn columns(&self) -> BTreeSet<ColumnId> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    /// The set of referenced tables.
    pub fn tables(&self) -> BTreeSet<TableId> {
        self.columns().into_iter().map(|c| c.table).collect()
    }

    /// Rewrite column references through `f`.
    pub fn map_columns(&self, f: &mut impl FnMut(ColumnId) -> ColumnId) -> PredExpr {
        match self {
            PredExpr::Cmp { op, left, right } => PredExpr::Cmp {
                op: *op,
                left: left.map_columns(f),
                right: right.map_columns(f),
            },
            PredExpr::InList {
                expr,
                list,
                negated,
            } => PredExpr::InList {
                expr: expr.map_columns(f),
                list: list.clone(),
                negated: *negated,
            },
            PredExpr::Like {
                expr,
                pattern,
                negated,
            } => PredExpr::Like {
                expr: expr.map_columns(f),
                pattern: pattern.clone(),
                negated: *negated,
            },
            PredExpr::IsNull { expr, negated } => PredExpr::IsNull {
                expr: expr.map_columns(f),
                negated: *negated,
            },
            PredExpr::And(parts) => PredExpr::And(parts.iter().map(|p| p.map_columns(f)).collect()),
            PredExpr::Or(parts) => PredExpr::Or(parts.iter().map(|p| p.map_columns(f)).collect()),
            PredExpr::Not(inner) => PredExpr::Not(Box::new(inner.map_columns(f))),
        }
    }

    /// Canonical form for structural conjunct equality (paper §3.1.2:
    /// "predicate trees are the same modulo column equivalence"):
    /// comparisons are oriented so the lexicographically smaller side
    /// is on the left, commutative arithmetic is sorted, and AND/OR
    /// children are sorted.
    pub fn normalized(&self) -> PredExpr {
        match self {
            PredExpr::Cmp { op, left, right } => {
                let l = left.normalized();
                let r = right.normalized();
                if expr_sort_token(&r) < expr_sort_token(&l) {
                    PredExpr::Cmp {
                        op: op.flipped(),
                        left: r,
                        right: l,
                    }
                } else {
                    PredExpr::Cmp {
                        op: *op,
                        left: l,
                        right: r,
                    }
                }
            }
            PredExpr::InList {
                expr,
                list,
                negated,
            } => {
                let mut list = list.clone();
                list.sort_by(|a, b| a.total_cmp(b));
                PredExpr::InList {
                    expr: expr.normalized(),
                    list,
                    negated: *negated,
                }
            }
            PredExpr::Like {
                expr,
                pattern,
                negated,
            } => PredExpr::Like {
                expr: expr.normalized(),
                pattern: pattern.clone(),
                negated: *negated,
            },
            PredExpr::IsNull { expr, negated } => PredExpr::IsNull {
                expr: expr.normalized(),
                negated: *negated,
            },
            PredExpr::And(parts) => {
                let mut norm: Vec<PredExpr> = parts.iter().map(|p| p.normalized()).collect();
                norm.sort_by_key(|p| format!("{p:?}"));
                PredExpr::And(norm)
            }
            PredExpr::Or(parts) => {
                let mut norm: Vec<PredExpr> = parts.iter().map(|p| p.normalized()).collect();
                norm.sort_by_key(|p| format!("{p:?}"));
                PredExpr::Or(norm)
            }
            PredExpr::Not(inner) => PredExpr::Not(Box::new(inner.normalized())),
        }
    }

    /// Render with human-readable column names.
    pub fn display<'a>(&'a self, db: &'a Database) -> impl fmt::Display + 'a {
        DisplayPred { pred: self, db }
    }
}

struct DisplayPred<'a> {
    pred: &'a PredExpr,
    db: &'a Database,
}

impl fmt::Display for DisplayPred<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_pred(self.pred, self.db, f)
    }
}

fn fmt_pred(p: &PredExpr, db: &Database, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match p {
        PredExpr::Cmp { op, left, right } => {
            fmt_scalar(left, db, f)?;
            write!(f, " {} ", op.as_str())?;
            fmt_scalar(right, db, f)
        }
        PredExpr::InList {
            expr,
            list,
            negated,
        } => {
            fmt_scalar(expr, db, f)?;
            if *negated {
                f.write_str(" NOT")?;
            }
            f.write_str(" IN (")?;
            for (i, v) in list.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{v}")?;
            }
            f.write_str(")")
        }
        PredExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            fmt_scalar(expr, db, f)?;
            if *negated {
                f.write_str(" NOT")?;
            }
            write!(f, " LIKE '{pattern}'")
        }
        PredExpr::IsNull { expr, negated } => {
            fmt_scalar(expr, db, f)?;
            f.write_str(if *negated { " IS NOT NULL" } else { " IS NULL" })
        }
        PredExpr::And(parts) => {
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    f.write_str(" AND ")?;
                }
                f.write_str("(")?;
                fmt_pred(p, db, f)?;
                f.write_str(")")?;
            }
            Ok(())
        }
        PredExpr::Or(parts) => {
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    f.write_str(" OR ")?;
                }
                f.write_str("(")?;
                fmt_pred(p, db, f)?;
                f.write_str(")")?;
            }
            Ok(())
        }
        PredExpr::Not(inner) => {
            f.write_str("NOT (")?;
            fmt_pred(inner, db, f)?;
            f.write_str(")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::TableId;

    fn cid(t: u32, c: u16) -> ColumnId {
        ColumnId::new(TableId(t), c)
    }

    #[test]
    fn conjunct_splitting_flattens() {
        let p = PredExpr::And(vec![
            PredExpr::And(vec![
                PredExpr::IsNull {
                    expr: ScalarExpr::column(cid(0, 0)),
                    negated: false,
                },
                PredExpr::IsNull {
                    expr: ScalarExpr::column(cid(0, 1)),
                    negated: false,
                },
            ]),
            PredExpr::IsNull {
                expr: ScalarExpr::column(cid(0, 2)),
                negated: false,
            },
        ]);
        assert_eq!(p.conjuncts().len(), 3);
    }

    #[test]
    fn normalization_orients_comparisons() {
        // `5 > a` and `a < 5` normalize identically.
        let a = PredExpr::Cmp {
            op: CmpOp::Gt,
            left: ScalarExpr::literal(Value::Int(5)),
            right: ScalarExpr::column(cid(0, 0)),
        };
        let b = PredExpr::Cmp {
            op: CmpOp::Lt,
            left: ScalarExpr::column(cid(0, 0)),
            right: ScalarExpr::literal(Value::Int(5)),
        };
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn normalization_sorts_commutative_arith() {
        let ab = ScalarExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(ScalarExpr::column(cid(0, 0))),
            right: Box::new(ScalarExpr::column(cid(0, 1))),
        };
        let ba = ScalarExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(ScalarExpr::column(cid(0, 1))),
            right: Box::new(ScalarExpr::column(cid(0, 0))),
        };
        assert_eq!(ab.normalized(), ba.normalized());
    }

    #[test]
    fn column_collection_covers_nested() {
        let p = PredExpr::Or(vec![
            PredExpr::Cmp {
                op: CmpOp::Lt,
                left: ScalarExpr::column(cid(0, 0)),
                right: ScalarExpr::column(cid(0, 1)),
            },
            PredExpr::Cmp {
                op: CmpOp::Lt,
                left: ScalarExpr::column(cid(0, 2)),
                right: ScalarExpr::literal(Value::Int(8)),
            },
        ]);
        let cols = p.columns();
        assert_eq!(cols.len(), 3);
        assert_eq!(p.tables().len(), 1);
    }

    #[test]
    fn map_columns_rewrites() {
        let p = PredExpr::Cmp {
            op: CmpOp::Eq,
            left: ScalarExpr::column(cid(0, 0)),
            right: ScalarExpr::column(cid(1, 0)),
        };
        let mapped = p.map_columns(&mut |c| ColumnId::new(TableId(9), c.ordinal));
        assert!(mapped.tables().contains(&TableId(9)));
        assert_eq!(mapped.tables().len(), 1);
    }

    #[test]
    fn and_all_flattens_and_simplifies() {
        let one = PredExpr::IsNull {
            expr: ScalarExpr::column(cid(0, 0)),
            negated: false,
        };
        assert_eq!(PredExpr::and_all(vec![]), None);
        assert_eq!(PredExpr::and_all(vec![one.clone()]), Some(one.clone()));
        let two = PredExpr::and_all(vec![one.clone(), one.clone()]).unwrap();
        assert!(matches!(two, PredExpr::And(v) if v.len() == 2));
    }
}
