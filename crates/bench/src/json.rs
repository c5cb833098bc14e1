//! The harness's JSON writer: machine-readable results without an
//! external serialization dependency (the workspace builds fully
//! offline). The value type is [`pdt_trace::json::Json`]; this module
//! adds what the experiment binaries need on top of it — a
//! pretty-printer with stable key order (declaration order), and
//! [`ToJson`] / [`crate::json_struct!`] to build values from result rows.

pub use pdt_trace::json::Json;
use std::fmt::Write as _;

/// Pretty-print with two-space indentation (trailing newline).
pub fn pretty(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out, 0);
    out.push('\n');
    out
}

fn write(value: &Json, out: &mut String, indent: usize) {
    match value {
        // Floats print as `{}` (`1` for 1.0), not the trace layer's
        // round-trip `{:?}`: the checked-in `results/` were written so.
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                write(item, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                pdt_trace::json::write_escaped(out, key);
                out.push_str(": ");
                write(value, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        // Scalars, strings, non-finite numbers (`null`) and empty
        // containers read the same compact or pretty.
        compact => {
            let _ = write!(out, "{compact}");
        }
    }
}

/// Conversion into [`Json`]; implemented for primitives, collections,
/// and (via [`crate::json_struct!`]) the experiment result structs.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

int_to_json!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl ToJson for std::time::Duration {
    fn to_json(&self) -> Json {
        Json::Num(self.as_secs_f64())
    }
}

/// Derive [`ToJson`] for a struct by listing its fields:
///
/// ```ignore
/// struct Point { x: f64, y: f64 }
/// json_struct!(Point { x, y });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let v = Json::Obj(vec![
            ("name".into(), "q\"1\"".to_json()),
            ("cost".into(), 12.5.to_json()),
            ("tags".into(), vec!["a", "b"].to_json()),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let s = pretty(&v);
        assert!(s.contains("\"q\\\"1\\\"\""), "{s}");
        assert!(s.contains("\"cost\": 12.5"), "{s}");
        assert!(s.contains("\"empty\": []"), "{s}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(pretty(&f64::NAN.to_json()), "null\n");
        assert_eq!(pretty(&f64::INFINITY.to_json()), "null\n");
    }

    #[test]
    fn json_struct_macro_emits_declaration_order() {
        struct P {
            b: f64,
            a: usize,
        }
        json_struct!(P { b, a });
        let s = pretty(&P { b: 1.0, a: 2 }.to_json());
        let (bi, ai) = (s.find("\"b\"").unwrap(), s.find("\"a\"").unwrap());
        assert!(bi < ai, "{s}");
    }
}
