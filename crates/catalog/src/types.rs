//! Column type system and literal values.
//!
//! Histograms and selectivity arithmetic operate on a one-dimensional
//! [`SortKey`] (an `f64`): integers and floats map to themselves, dates
//! to day numbers, and strings to a big-endian prefix fraction. This is
//! the standard trick used by commercial optimizers to keep histogram
//! machinery type-agnostic.

use std::cmp::Ordering;
use std::fmt;

/// SQL column types supported by the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 4-byte integer.
    Int,
    /// 8-byte integer.
    BigInt,
    /// 8-byte IEEE double (also used for DECIMAL in this model).
    Double,
    /// Date stored as a day number (4 bytes).
    Date,
    /// Fixed-width character string.
    Char(u16),
    /// Variable-width string with a declared maximum.
    VarChar(u16),
}

impl ColumnType {
    /// Storage width in bytes for fixed-width types; `None` for
    /// variable-width types (whose average width lives in the stats).
    pub fn fixed_width(self) -> Option<u32> {
        match self {
            ColumnType::Int => Some(4),
            ColumnType::BigInt => Some(8),
            ColumnType::Double => Some(8),
            ColumnType::Date => Some(4),
            ColumnType::Char(n) => Some(n as u32),
            ColumnType::VarChar(_) => None,
        }
    }

    /// Declared maximum width in bytes.
    pub fn max_width(self) -> u32 {
        match self {
            ColumnType::VarChar(n) => n as u32,
            other => other.fixed_width().expect("fixed type has width"),
        }
    }

    /// True if values of this type are numeric (orderable arithmetic).
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ColumnType::Int | ColumnType::BigInt | ColumnType::Double | ColumnType::Date
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => f.write_str("INT"),
            ColumnType::BigInt => f.write_str("BIGINT"),
            ColumnType::Double => f.write_str("DOUBLE"),
            ColumnType::Date => f.write_str("DATE"),
            ColumnType::Char(n) => write!(f, "CHAR({n})"),
            ColumnType::VarChar(n) => write!(f, "VARCHAR({n})"),
        }
    }
}

/// One-dimensional, order-preserving key used by histograms.
pub type SortKey = f64;

/// A literal value as it appears in predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Double(f64),
    Str(String),
    /// Day number since an arbitrary epoch.
    Date(i64),
    Null,
}

impl Value {
    /// Map the value onto the histogram domain. Strings map to a
    /// fraction built from their first eight bytes, which preserves
    /// lexicographic order for ASCII data.
    pub fn sort_key(&self) -> SortKey {
        match self {
            Value::Int(v) => *v as f64,
            Value::Double(v) => *v,
            Value::Date(v) => *v as f64,
            Value::Str(s) => string_sort_key(s),
            Value::Null => f64::NEG_INFINITY,
        }
    }

    /// Total order consistent with `sort_key` (NULL sorts first).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.sort_key().total_cmp(&other.sort_key())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(v) => write!(f, "{v}"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

/// Order-preserving map from a string to `[0, 1)` using the first eight
/// bytes as a base-256 fraction.
pub fn string_sort_key(s: &str) -> SortKey {
    let mut acc = 0.0f64;
    let mut scale = 1.0f64 / 256.0;
    for &b in s.as_bytes().iter().take(8) {
        acc += (b as f64) * scale;
        scale /= 256.0;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(ColumnType::Int.fixed_width(), Some(4));
        assert_eq!(ColumnType::Char(25).fixed_width(), Some(25));
        assert_eq!(ColumnType::VarChar(40).fixed_width(), None);
        assert_eq!(ColumnType::VarChar(40).max_width(), 40);
    }

    #[test]
    fn string_sort_key_preserves_order() {
        let words = ["", "a", "ab", "abc", "b", "ba", "zzzz"];
        for pair in words.windows(2) {
            assert!(
                string_sort_key(pair[0]) < string_sort_key(pair[1]),
                "{} !< {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn value_cmp_is_consistent() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Double(3.5)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
    }

    #[test]
    fn display_escapes_strings() {
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
    }
}
