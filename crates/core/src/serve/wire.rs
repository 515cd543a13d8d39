//! The wire schema: JSON request bodies in, structured JSON errors out.
//!
//! Requests (`POST /v1/query` bodies) are parsed with the dependency-free
//! [`trex_obs::json`] parser:
//!
//! ```json
//! {"nexi": "//article//sec[about(., xml)]", "k": 10,
//!  "strategy": "auto", "trace": false, "deadline_ms": 250}
//! ```
//!
//! Only `nexi` is required; unknown fields are ignored (forward
//! compatibility — newer clients may send knobs an older server does not
//! know). Errors render as `{"code", "message", "retryable"}` so clients
//! can branch on `code` without parsing prose.

use std::fmt;

use trex_obs::{json_escape, parse_json, JsonValue};

use crate::serve::request::QueryRequest;

/// A request body that could not be turned into a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body is not valid JSON.
    BadJson(String),
    /// The body is valid JSON but not an object.
    NotAnObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field has the wrong type or an invalid value.
    BadField(&'static str, String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadJson(e) => write!(f, "request body is not valid JSON: {e}"),
            WireError::NotAnObject => write!(f, "request body must be a JSON object"),
            WireError::MissingField(name) => write!(f, "missing required field {name:?}"),
            WireError::BadField(name, why) => write!(f, "invalid field {name:?}: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Parses one `POST /v1/query` body into a [`QueryRequest`].
///
/// Field semantics: `nexi` (string, required); `k` (non-negative integer;
/// absent → [`DEFAULT_K`](crate::serve::request::DEFAULT_K), `null` → all
/// answers); `strategy` (string, one of `auto|era|ta|merge`);
/// `interpretation` (string, `strict|vague`); `trace` (bool);
/// `deadline_ms` (non-negative integer). Unknown fields are ignored.
pub fn parse_query_request(body: &str) -> Result<QueryRequest, WireError> {
    let value = parse_json(body).map_err(|e| WireError::BadJson(e.to_string()))?;
    let JsonValue::Object(_) = &value else {
        return Err(WireError::NotAnObject);
    };

    let nexi = value
        .get("nexi")
        .ok_or(WireError::MissingField("nexi"))?
        .as_str()
        .ok_or_else(|| WireError::BadField("nexi", "expected a string".into()))?;
    let mut req = QueryRequest::new(nexi);

    if let Some(k) = value.get("k") {
        req = match k {
            JsonValue::Null => req.k(None),
            _ => req.k(Some(
                usize::try_from(k.as_u64().ok_or_else(|| {
                    WireError::BadField("k", "expected a non-negative integer".into())
                })?)
                .map_err(|_| WireError::BadField("k", "out of range".into()))?,
            )),
        };
    }

    if let Some(strategy) = value.get("strategy") {
        if !strategy.is_null() {
            let name = strategy
                .as_str()
                .ok_or_else(|| WireError::BadField("strategy", "expected a string".into()))?;
            req = req.strategy(
                name.parse()
                    .map_err(|e: String| WireError::BadField("strategy", e))?,
            );
        }
    }

    if let Some(interp) = value.get("interpretation") {
        if !interp.is_null() {
            let name = interp
                .as_str()
                .ok_or_else(|| WireError::BadField("interpretation", "expected a string".into()))?;
            req = req.interpretation(match name.to_ascii_lowercase().as_str() {
                "strict" => trex_nexi::Interpretation::Strict,
                "vague" => trex_nexi::Interpretation::Vague,
                other => {
                    return Err(WireError::BadField(
                        "interpretation",
                        format!("unknown interpretation {other:?}; expected strict or vague"),
                    ))
                }
            });
        }
    }

    if let Some(trace) = value.get("trace") {
        if !trace.is_null() {
            req = req.trace(
                trace
                    .as_bool()
                    .ok_or_else(|| WireError::BadField("trace", "expected a boolean".into()))?,
            );
        }
    }

    if let Some(deadline) = value.get("deadline_ms") {
        if !deadline.is_null() {
            req = req.deadline_ms(Some(deadline.as_u64().ok_or_else(|| {
                WireError::BadField("deadline_ms", "expected a non-negative integer".into())
            })?));
        }
    }

    Ok(req)
}

/// Renders a [`QueryRequest`] as a wire body — the inverse of
/// [`parse_query_request`], used by the load bench, the tests, and clients
/// embedding the crate.
pub fn render_query_request(req: &QueryRequest) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\"nexi\":\"");
    out.push_str(&json_escape(&req.nexi));
    out.push('"');
    match req.k {
        Some(k) => {
            let _ = write!(out, ",\"k\":{k}");
        }
        None => out.push_str(",\"k\":null"),
    }
    let _ = write!(out, ",\"strategy\":\"{}\"", req.strategy.as_str());
    let interp = match req.interpretation {
        trex_nexi::Interpretation::Strict => "strict",
        trex_nexi::Interpretation::Vague => "vague",
    };
    let _ = write!(out, ",\"interpretation\":\"{interp}\"");
    let _ = write!(out, ",\"trace\":{}", req.trace);
    if let Some(ms) = req.deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
    out.push('}');
    out
}

/// The structured error body every non-200 response carries:
/// `{"code":"...","message":"...","retryable":bool}`.
pub fn error_body(code: &str, message: &str, retryable: bool) -> String {
    format!(
        "{{\"code\":\"{}\",\"message\":\"{}\",\"retryable\":{retryable}}}",
        json_escape(code),
        json_escape(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Strategy;
    use trex_nexi::Interpretation;

    #[test]
    fn full_body_round_trips() {
        let req = QueryRequest::new("//a//s[about(., \"quoted phrase\")]")
            .k(Some(25))
            .strategy(Strategy::Merge)
            .interpretation(Interpretation::Strict)
            .trace(true)
            .deadline_ms(125);
        let body = render_query_request(&req);
        let back = parse_query_request(&body).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn minimal_body_gets_defaults() {
        let req = parse_query_request(r#"{"nexi": "//a[about(., x)]"}"#).unwrap();
        assert_eq!(req.nexi, "//a[about(., x)]");
        assert_eq!(req.k, Some(super::super::request::DEFAULT_K));
        assert_eq!(req.strategy, Strategy::Auto);
        assert!(!req.trace);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn null_k_means_all_answers_and_unknown_fields_are_ignored() {
        let req =
            parse_query_request(r#"{"nexi": "//a[about(., x)]", "k": null, "future_knob": 7}"#)
                .unwrap();
        assert_eq!(req.k, None);
    }

    #[test]
    fn bad_bodies_name_the_problem() {
        assert!(matches!(
            parse_query_request("not json"),
            Err(WireError::BadJson(_))
        ));
        assert!(matches!(
            parse_query_request("[1,2]"),
            Err(WireError::NotAnObject)
        ));
        assert!(matches!(
            parse_query_request("{\"k\": 5}"),
            Err(WireError::MissingField("nexi"))
        ));
        assert!(matches!(
            parse_query_request(r#"{"nexi": "//a", "k": -3}"#),
            Err(WireError::BadField("k", _))
        ));
        assert!(matches!(
            parse_query_request(r#"{"nexi": "//a", "strategy": "warp"}"#),
            Err(WireError::BadField("strategy", _))
        ));
        assert!(matches!(
            parse_query_request(r#"{"nexi": "//a", "strategy": "race"}"#),
            Err(WireError::BadField("strategy", _))
        ));
        assert!(matches!(
            parse_query_request(r#"{"nexi": "//a", "deadline_ms": "soon"}"#),
            Err(WireError::BadField("deadline_ms", _))
        ));
        assert!(matches!(
            parse_query_request(r#"{"nexi": 42}"#),
            Err(WireError::BadField("nexi", _))
        ));
    }

    #[test]
    fn error_body_escapes_and_flags() {
        let body = error_body("parse_error", "bad \"quote\"", false);
        assert_eq!(
            body,
            "{\"code\":\"parse_error\",\"message\":\"bad \\\"quote\\\"\",\"retryable\":false}"
        );
        let v = trex_obs::parse_json(&body).unwrap();
        assert_eq!(v.get("retryable").and_then(|x| x.as_bool()), Some(false));
    }
}
