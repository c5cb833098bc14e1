//! Unbound abstract syntax tree for the SQL subset.
//!
//! Every node implements `Display`, rendering canonical SQL; the parser
//! accepts its own output (round-trip property, tested in `parser.rs`).

use std::fmt;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    Update(UpdateStmt),
    Insert(InsertStmt),
    Delete(DeleteStmt),
}

impl Statement {
    /// The statement as a `SELECT`, if it is one.
    pub fn as_select(&self) -> Option<&SelectStmt> {
        match self {
            Statement::Select(s) => Some(s),
            _ => None,
        }
    }

    /// True for `UPDATE`/`INSERT`/`DELETE`.
    pub fn is_dml(&self) -> bool {
        !matches!(self, Statement::Select(_))
    }

    /// Name of the table written by a DML statement.
    pub fn written_table(&self) -> Option<&str> {
        match self {
            Statement::Select(_) => None,
            Statement::Update(u) => Some(&u.table),
            Statement::Insert(i) => Some(&i.table),
            Statement::Delete(d) => Some(&d.table),
        }
    }
}

/// A single-block SPJG query with optional ORDER BY.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub projections: Vec<SelectItem>,
    pub from: Vec<TableRefAst>,
    pub predicate: Option<AstExpr>,
    pub group_by: Vec<AstExpr>,
    pub order_by: Vec<(AstExpr, OrderDir)>,
    /// Optional `TOP k` row limit (used by update shells, Section 3.6).
    pub top: Option<u64>,
}

/// One projection: an expression with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: AstExpr,
    pub alias: Option<String>,
}

/// A base-table reference in the FROM list.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRefAst {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRefAst {
    /// The name this table is referred to by in the rest of the query.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderDir {
    #[default]
    Asc,
    Desc,
}

/// `UPDATE t SET c = e, ... WHERE p`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub assignments: Vec<(String, AstExpr)>,
    pub predicate: Option<AstExpr>,
    /// Optional `TOP k` (used when rendering update shells).
    pub top: Option<u64>,
}

/// `INSERT INTO t (c, ...) VALUES (e, ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    pub table: String,
    pub columns: Vec<String>,
    pub values: Vec<AstExpr>,
}

/// `DELETE FROM t WHERE p`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    pub predicate: Option<AstExpr>,
}

/// Binary operators (comparison, boolean, arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    IsNull,
    IsNotNull,
}

/// Aggregate functions.
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

/// An unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `qualifier.name` or bare `name`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    IntLit(i64),
    FloatLit(f64),
    StrLit(String),
    Null,
    Binary {
        op: BinOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<AstExpr>,
    },
    /// Aggregate call; `arg == None` means `COUNT(*)`.
    Agg {
        func: AggFunc,
        arg: Option<Box<AstExpr>>,
        distinct: bool,
    },
    /// `expr BETWEEN low AND high` (kept structured so the binder can
    /// split it into two range conjuncts).
    Between {
        expr: Box<AstExpr>,
        low: Box<AstExpr>,
        high: Box<AstExpr>,
        negated: bool,
    },
    /// `expr IN (v, ...)`.
    InList {
        expr: Box<AstExpr>,
        list: Vec<AstExpr>,
        negated: bool,
    },
    /// `expr LIKE 'pattern'`.
    Like {
        expr: Box<AstExpr>,
        pattern: String,
        negated: bool,
    },
}

impl AstExpr {
    pub fn column(qualifier: &str, name: &str) -> AstExpr {
        AstExpr::Column {
            qualifier: Some(qualifier.to_string()),
            name: name.to_string(),
        }
    }

    pub fn bare(name: &str) -> AstExpr {
        AstExpr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    pub fn binary(op: BinOp, left: AstExpr, right: AstExpr) -> AstExpr {
        AstExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn and(left: AstExpr, right: AstExpr) -> AstExpr {
        AstExpr::binary(BinOp::And, left, right)
    }

    /// Fold a non-empty conjunct list into a single AND tree.
    pub fn conjoin(mut parts: Vec<AstExpr>) -> Option<AstExpr> {
        let first = if parts.is_empty() {
            return None;
        } else {
            parts.remove(0)
        };
        Some(parts.into_iter().fold(first, AstExpr::and))
    }

    /// True if the expression contains an aggregate call anywhere.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            AstExpr::Agg { .. } => true,
            AstExpr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            AstExpr::Unary { expr, .. } => expr.contains_aggregate(),
            AstExpr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            AstExpr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            AstExpr::Like { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------
// Display — canonical SQL rendering
// ---------------------------------------------------------------------

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
    }
}

fn fmt_expr(expr: &AstExpr, parent_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match expr {
        AstExpr::Column { qualifier, name } => match qualifier {
            Some(q) => write!(f, "{q}.{name}"),
            None => write!(f, "{name}"),
        },
        AstExpr::IntLit(v) => write!(f, "{v}"),
        AstExpr::FloatLit(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                write!(f, "{v:.1}")
            } else {
                write!(f, "{v}")
            }
        }
        AstExpr::StrLit(s) => write!(f, "'{}'", s.replace('\'', "''")),
        AstExpr::Null => f.write_str("NULL"),
        AstExpr::Binary { op, left, right } => {
            let p = prec(*op);
            let need_parens = p < parent_prec;
            if need_parens {
                f.write_str("(")?;
            }
            fmt_expr(left, p, f)?;
            write!(f, " {} ", op.as_str())?;
            // Right side binds one tighter to keep `a - b - c` as
            // `(a - b) - c` on reparse.
            fmt_expr(right, p + 1, f)?;
            if need_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        AstExpr::Unary { op, expr } => match op {
            UnOp::Neg => {
                f.write_str("-")?;
                fmt_expr(expr, 6, f)
            }
            UnOp::Not => {
                f.write_str("NOT ")?;
                fmt_expr(expr, 6, f)
            }
            UnOp::IsNull => {
                fmt_expr(expr, 6, f)?;
                f.write_str(" IS NULL")
            }
            UnOp::IsNotNull => {
                fmt_expr(expr, 6, f)?;
                f.write_str(" IS NOT NULL")
            }
        },
        AstExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            write!(f, "{}(", func.as_str())?;
            if *distinct {
                f.write_str("DISTINCT ")?;
            }
            match arg {
                Some(a) => fmt_expr(a, 0, f)?,
                None => f.write_str("*")?,
            }
            f.write_str(")")
        }
        AstExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            fmt_expr(expr, 4, f)?;
            if *negated {
                f.write_str(" NOT")?;
            }
            f.write_str(" BETWEEN ")?;
            fmt_expr(low, 4, f)?;
            f.write_str(" AND ")?;
            fmt_expr(high, 4, f)
        }
        AstExpr::InList {
            expr,
            list,
            negated,
        } => {
            fmt_expr(expr, 4, f)?;
            if *negated {
                f.write_str(" NOT")?;
            }
            f.write_str(" IN (")?;
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(item, 0, f)?;
            }
            f.write_str(")")
        }
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            fmt_expr(expr, 4, f)?;
            if *negated {
                f.write_str(" NOT")?;
            }
            write!(f, " LIKE '{}'", pattern.replace('\'', "''"))
        }
    }
}

impl fmt::Display for AstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self, 0, f)
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if let Some(k) = self.top {
            write!(f, "TOP {k} ")?;
        }
        for (i, item) in self.projections.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", item.expr)?;
            if let Some(alias) = &item.alias {
                write!(f, " AS {alias}")?;
            }
        }
        f.write_str(" FROM ")?;
        for (i, table) in self.from.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", table.table)?;
            if let Some(alias) = &table.alias {
                write!(f, " AS {alias}")?;
            }
        }
        if let Some(pred) = &self.predicate {
            write!(f, " WHERE {pred}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, (e, dir)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
                if *dir == OrderDir::Desc {
                    f.write_str(" DESC")?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Update(u) => {
                f.write_str("UPDATE ")?;
                if let Some(k) = u.top {
                    write!(f, "TOP {k} ")?;
                }
                write!(f, "{} SET ", u.table)?;
                for (i, (col, expr)) in u.assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{col} = {expr}")?;
                }
                if let Some(p) = &u.predicate {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
            Statement::Insert(ins) => {
                write!(f, "INSERT INTO {}", ins.table)?;
                if !ins.columns.is_empty() {
                    f.write_str(" (")?;
                    for (i, c) in ins.columns.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        f.write_str(c)?;
                    }
                    f.write_str(")")?;
                }
                f.write_str(" VALUES (")?;
                for (i, v) in ins.values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(")")
            }
            Statement::Delete(d) => {
                write!(f, "DELETE FROM {}", d.table)?;
                if let Some(p) = &d.predicate {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjoin_builds_left_deep_and() {
        let e = AstExpr::conjoin(vec![
            AstExpr::bare("a"),
            AstExpr::bare("b"),
            AstExpr::bare("c"),
        ])
        .unwrap();
        assert_eq!(e.to_string(), "a AND b AND c");
    }

    #[test]
    fn conjoin_empty_is_none() {
        assert!(AstExpr::conjoin(vec![]).is_none());
    }

    #[test]
    fn display_parenthesizes_or_under_and() {
        let e = AstExpr::and(
            AstExpr::binary(BinOp::Or, AstExpr::bare("a"), AstExpr::bare("b")),
            AstExpr::bare("c"),
        );
        assert_eq!(e.to_string(), "(a OR b) AND c");
    }

    #[test]
    fn aggregate_detection_descends() {
        let e = AstExpr::binary(
            BinOp::Add,
            AstExpr::bare("x"),
            AstExpr::Agg {
                func: AggFunc::Sum,
                arg: Some(Box::new(AstExpr::bare("y"))),
                distinct: false,
            },
        );
        assert!(e.contains_aggregate());
        assert!(!AstExpr::bare("x").contains_aggregate());
    }

    #[test]
    fn written_table_reported_for_dml() {
        let up = Statement::Update(UpdateStmt {
            table: "r".into(),
            assignments: vec![("a".into(), AstExpr::IntLit(0))],
            predicate: None,
            top: None,
        });
        assert_eq!(up.written_table(), Some("r"));
        assert!(up.is_dml());
    }
}
