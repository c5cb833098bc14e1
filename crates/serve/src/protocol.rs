//! The line-delimited JSON protocol spoken on the daemon's socket.
//!
//! One JSON object per line in each direction. Every response carries
//! `"ok"`; failures carry `"error"`, and admission rejections
//! additionally carry `"retry_after_ms"` — the client's explicit
//! backpressure signal (bounded queue, never unbounded memory).
//!
//! ```text
//! → {"op":"submit","spec":{"db":"tpch","sf":0.01,"iterations":40}}
//! ← {"ok":true,"id":"s0001","state":"queued"}
//! → {"op":"status","id":"s0001"}
//! ← {"ok":true,"id":"s0001","state":"running","error":null}
//! → {"op":"watch","id":"s0001","from":0}
//! ← {"seq":0,"kind":"span.begin",...}           (one line per event)
//! ← {"ok":true,"done":true,"state":"done"}      (terminal line)
//! ```
//!
//! `watch` is the only op with a multi-line response; every other op
//! is strictly one request line, one response line.

use crate::job::JobSpec;
use pdt_trace::json::{parse, Json};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Ping,
    Submit { spec: JobSpec },
    Status { id: String },
    List,
    Cancel { id: String },
    Watch { id: String, from: u64 },
    Stats,
    Shutdown,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse(line.trim()).map_err(|e| format!("bad request JSON: {e}"))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request has no `op`")?;
    let id = |doc: &Json| -> Result<String, String> {
        doc.get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("`{op}` needs an `id`"))
    };
    Ok(match op {
        "ping" => Request::Ping,
        "submit" => Request::Submit {
            spec: JobSpec::from_json(doc.get("spec").ok_or("`submit` needs a `spec`")?)?,
        },
        "status" => Request::Status { id: id(&doc)? },
        "list" => Request::List,
        "cancel" => Request::Cancel { id: id(&doc)? },
        "watch" => Request::Watch {
            id: id(&doc)?,
            from: doc.get("from").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op `{other}`")),
    })
}

/// A successful single-line response with extra fields.
pub fn ok_response(fields: Vec<(String, Json)>) -> String {
    let mut obj = vec![("ok".to_string(), Json::Bool(true))];
    obj.extend(fields);
    Json::Obj(obj).to_string()
}

/// A failed single-line response.
pub fn err_response(msg: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(msg.to_string())),
    ])
    .to_string()
}

/// The admission-control rejection: queue full, retry after a delay.
/// Distinguished from other errors by the `retry_after_ms` field.
pub fn overloaded_response(retry_after_ms: u64) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str("overloaded".into())),
        ("retry_after_ms".into(), Json::Int(retry_after_ms as i64)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"list"}"#).unwrap(), Request::List);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"op":"status","id":"s0001"}"#).unwrap(),
            Request::Status { id: "s0001".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":"s0002"}"#).unwrap(),
            Request::Cancel { id: "s0002".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"watch","id":"s0003","from":17}"#).unwrap(),
            Request::Watch {
                id: "s0003".into(),
                from: 17
            }
        );
        match parse_request(r#"{"op":"submit","spec":{"db":"tpch","iterations":5}}"#).unwrap() {
            Request::Submit { spec } => assert_eq!(spec.iterations, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","spec":{"db":"oracle"}}"#,
            r#"{"op":"submit","spec":{"db":"tpch","threads":100000000,"queries":4000000000}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    /// Fuzz-ish sweep for the `stats` op: the parser keys on `op`
    /// alone, so arbitrary extra fields (including ones other ops use,
    /// and ones no op uses) must never break a stats request — clients
    /// built against newer counter sets stay compatible.
    #[test]
    fn stats_requests_tolerate_arbitrary_extra_fields() {
        let junk_values = [
            "null",
            "true",
            "-17",
            "3.5",
            "\"s0001\"",
            "[1,[2,{\"x\":null}],\"y\"]",
            "{\"op\":\"shutdown\"}", // nested op must not confuse the parser
        ];
        let junk_keys = ["id", "from", "spec", "extra", "op2", "stats"];
        for (i, v) in junk_values.iter().enumerate() {
            for (j, k) in junk_keys.iter().enumerate() {
                // Vary field order too: junk before and after `op`.
                let requests = [
                    format!(r#"{{"op":"stats","{k}":{v}}}"#),
                    format!(r#"{{"{k}":{v},"op":"stats"}}"#),
                    format!(
                        r#"{{"{k}":{v},"op":"stats","{}":{}}}"#,
                        junk_keys[(j + 1) % junk_keys.len()],
                        junk_values[(i + 1) % junk_values.len()],
                    ),
                ];
                for r in &requests {
                    assert_eq!(
                        parse_request(r).unwrap(),
                        Request::Stats,
                        "stats request rejected: {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn responses_are_single_line_json() {
        let ok = ok_response(vec![("id".into(), Json::Str("s1".into()))]);
        assert_eq!(ok, r#"{"ok":true,"id":"s1"}"#);
        let err = err_response("no such session");
        assert_eq!(err, r#"{"ok":false,"error":"no such session"}"#);
        let over = overloaded_response(250);
        assert!(over.contains(r#""retry_after_ms":250"#), "{over}");
        for line in [&ok, &err, &over] {
            assert!(!line.contains('\n'));
            assert!(parse(line).is_ok());
        }
    }
}
