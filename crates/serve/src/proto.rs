//! The `rmd serve` wire protocol: one JSON object per line, in both
//! directions.
//!
//! # Grammar
//!
//! ```text
//! frame    := object NL                    ; exactly one object per line
//! request  := { "type": kind, ["id": string|number,]
//!               ["deadline_ms": number,] ["trace": bool,]
//!               ...kind-specific members }
//! kind     := "machine" | "schedule" | "suite" | "status" | "metrics"
//!           | "shutdown"
//! reply    := { "ok": true, "id": id|null, "type": kind, ... }
//!           | { "ok": false, "id": id|null,
//!               "error": { "code": number, "kind": string, "detail": string },
//!               ["retry_after_ms": number] }
//! ```
//!
//! Replies carry the request's `id` verbatim (or `null` when the frame
//! was too broken to extract one), so pipelined clients can match them
//! even though the daemon already answers strictly in admission order.
//! A numeric id is echoed as its source text; a string id is decoded
//! and re-encoded.
//!
//! # Decoding
//!
//! [`parse_frame`] parses the line into a caller-owned
//! [`serde_json::Tape`], which keeps its capacity from frame to frame
//! (the engine trims it after a large frame), and reads the request
//! through borrowed [`ValueRef`] handles on it.
//! The decoded [`Frame`] borrows the fingerprint, node names, model
//! name and MDL text from the line; only strings holding an escape are
//! copied.

use crate::error::ServeError;
use rmd_obs::export::push_json_string;
use rmd_sched::DepKind;
use serde_json::{Tape, ValueRef};
use std::borrow::Cow;

/// Per-frame size limit (bytes). A megabyte comfortably holds the
/// largest `.mdl` sources while bounding a hostile client's memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Upper bound on the `loops` member of a suite request.
pub const MAX_SUITE_LOOPS: usize = 100_000;

/// Where a `machine` request's description comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineSource<'a> {
    /// A built-in model name (`fig1`, `cydra5-subset`, …).
    Model(Cow<'a, str>),
    /// Inline MDL source text.
    Mdl(Cow<'a, str>),
}

/// One dependence edge of a `schedule` request:
/// `[from, to, delay, distance]` with an optional fifth member naming
/// the kind (`"flow"` default, `"anti"`, `"output"`, `"memory"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Source node index into the request's `nodes` array.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Latency: `t(to) ≥ t(from) + delay − II·distance`.
    pub delay: i32,
    /// Iteration distance.
    pub distance: u32,
    /// Dependence kind.
    pub kind: DepKind,
}

/// A parsed request body, borrowing its strings from the frame's line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request<'a> {
    /// Submit a machine; the daemon reduces (with fallback unless
    /// `strict`), verifies, and caches it under its fingerprint.
    Machine {
        /// Model name or inline MDL.
        source: MachineSource<'a>,
        /// Fail with a typed error instead of falling back to the
        /// original tables when reduction or verification fails.
        strict: bool,
        /// Reduction step budget (maps to [`rmd_core::ReduceOptions`]).
        max_steps: Option<u64>,
    },
    /// Schedule one dependence graph against a cached machine.
    Schedule {
        /// Fingerprint of a previously submitted machine.
        fingerprint: Cow<'a, str>,
        /// Operation names, one per node.
        nodes: Vec<Cow<'a, str>>,
        /// Dependence edges.
        edges: Vec<EdgeSpec>,
        /// Scheduler budget ratio override.
        budget_ratio: Option<f64>,
        /// Cap on the initiation intervals attempted.
        max_ii: Option<u32>,
    },
    /// Schedule a generated loop suite against a cached machine.
    Suite {
        /// Fingerprint of a previously submitted machine.
        fingerprint: Cow<'a, str>,
        /// Number of loops to generate.
        loops: usize,
        /// Suite generator seed.
        seed: u64,
    },
    /// Report daemon counters.
    Status,
    /// Snapshot the full metric registry (counters, gauges, latency
    /// histograms) without pausing request processing.
    Metrics,
    /// Begin a graceful drain.
    Shutdown,
}

/// A framed request: the client-chosen id and deadline survive even
/// when the body failed to parse, so the error reply can carry them.
#[derive(Clone, Debug)]
pub struct Frame<'a> {
    /// The request's `id` member, pre-rendered as a JSON token.
    pub id: Option<Cow<'a, str>>,
    /// The request's `deadline_ms` member.
    pub deadline_ms: Option<u64>,
    /// The request's `trace` member: when `true`, the reply carries
    /// the request's span tree as an inline Chrome-trace slice.
    pub trace: bool,
    /// The parsed body, or the typed error to reply with.
    pub body: Result<Request<'a>, ServeError>,
}

impl Frame<'_> {
    /// A frame that failed before parsing (no id recoverable).
    pub fn broken(e: ServeError) -> Self {
        Frame {
            id: None,
            deadline_ms: None,
            trace: false,
            body: Err(e),
        }
    }
}

/// Renders an `id` member back into a JSON token: a number as its
/// source text, a string re-encoded. Only strings and numbers are
/// accepted — other types would make reply matching ambiguous.
fn render_id<'a>(v: ValueRef<'a, '_>) -> Result<Cow<'a, str>, ServeError> {
    if let Some(text) = v.number_text() {
        return Ok(Cow::Borrowed(text));
    }
    match v.as_str() {
        Some(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            push_json_string(&mut out, &s);
            Ok(Cow::Owned(out))
        }
        None => Err(ServeError::BadRequest {
            detail: "id must be a string or number".to_string(),
        }),
    }
}

fn need_str<'a>(v: ValueRef<'a, '_>, key: &str) -> Result<Cow<'a, str>, ServeError> {
    v.get(key)
        .and_then(|s| s.as_str())
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("missing or non-string {key:?} member"),
        })
}

fn opt_u64(v: ValueRef<'_, '_>, key: &str) -> Result<Option<u64>, ServeError> {
    match v.get(key) {
        None => Ok(None),
        Some(m) => m.as_u64().map(Some).ok_or_else(|| ServeError::BadRequest {
            detail: format!("{key:?} must be a non-negative integer"),
        }),
    }
}

fn opt_bool(v: ValueRef<'_, '_>, key: &str) -> Result<bool, ServeError> {
    match v.get(key) {
        None => Ok(false),
        Some(b) => b.as_bool().ok_or_else(|| ServeError::BadRequest {
            detail: format!("{key:?} must be a boolean"),
        }),
    }
}

fn parse_edge(i: usize, v: ValueRef<'_, '_>) -> Result<EdgeSpec, ServeError> {
    let bad = |detail: String| ServeError::BadRequest { detail };
    let mut parts = v
        .as_array()
        .ok_or_else(|| bad(format!("edge {i} must be an array")))?;
    if !(parts.len() == 4 || parts.len() == 5) {
        return Err(bad(format!(
            "edge {i} must be [from, to, delay, distance] with an optional kind"
        )));
    }
    let mut idx = |what: &str| {
        parts
            .next()
            .and_then(|p| p.as_u64())
            .map(|n| n as usize)
            .ok_or_else(|| bad(format!("edge {i}: {what} must be a non-negative integer")))
    };
    let from = idx("from")?;
    let to = idx("to")?;
    let delay = parts
        .next()
        .and_then(|p| p.as_i64())
        .and_then(|d| i32::try_from(d).ok())
        .ok_or_else(|| bad(format!("edge {i}: delay must be an i32 integer")))?;
    let distance = parts
        .next()
        .and_then(|p| p.as_u64())
        .and_then(|d| u32::try_from(d).ok())
        .ok_or_else(|| bad(format!("edge {i}: distance must be a u32 integer")))?;
    let kind = match parts.next() {
        None => DepKind::Flow,
        Some(k) => match k.as_str().as_deref() {
            Some("flow") => DepKind::Flow,
            Some("anti") => DepKind::Anti,
            Some("output") => DepKind::Output,
            Some("memory") => DepKind::Memory,
            _ => {
                return Err(bad(format!(
                    "edge {i}: kind must be \"flow\", \"anti\", \"output\", or \"memory\""
                )))
            }
        },
    };
    Ok(EdgeSpec {
        from,
        to,
        delay,
        distance,
        kind,
    })
}

fn parse_body<'a>(v: ValueRef<'a, '_>) -> Result<Request<'a>, ServeError> {
    let ty = v
        .get("type")
        .and_then(|t| t.as_str())
        .ok_or_else(|| ServeError::BadRequest {
            detail: "missing or non-string \"type\" member".to_string(),
        })?;
    match &*ty {
        "machine" => {
            let model = v.get("model").and_then(|m| m.as_str());
            let mdl = v.get("mdl").and_then(|m| m.as_str());
            let source = match (model, mdl) {
                (Some(m), None) => MachineSource::Model(m),
                (None, Some(s)) => MachineSource::Mdl(s),
                _ => {
                    return Err(ServeError::BadRequest {
                        detail: "machine request needs exactly one of \"model\" or \"mdl\""
                            .to_string(),
                    })
                }
            };
            Ok(Request::Machine {
                source,
                strict: opt_bool(v, "strict")?,
                max_steps: opt_u64(v, "max_steps")?,
            })
        }
        "schedule" => {
            let fingerprint = need_str(v, "fingerprint")?;
            let names = v.get("nodes").and_then(|n| n.as_array()).ok_or_else(|| {
                ServeError::BadRequest {
                    detail: "missing or non-array \"nodes\" member".to_string(),
                }
            })?;
            // Sized up front, here and for the edges: collecting through
            // `Result` would grow the vector several times per frame.
            let mut nodes = Vec::with_capacity(names.len());
            for n in names {
                nodes.push(n.as_str().ok_or_else(|| ServeError::BadRequest {
                    detail: "every node must be an operation name string".to_string(),
                })?);
            }
            if nodes.is_empty() {
                return Err(ServeError::BadRequest {
                    detail: "\"nodes\" must not be empty".to_string(),
                });
            }
            let edges = match v.get("edges") {
                None => Vec::new(),
                Some(e) => {
                    let list = e.as_array().ok_or_else(|| ServeError::BadRequest {
                        detail: "\"edges\" must be an array".to_string(),
                    })?;
                    let mut edges = Vec::with_capacity(list.len());
                    for (i, e) in list.enumerate() {
                        edges.push(parse_edge(i, e)?);
                    }
                    edges
                }
            };
            for e in &edges {
                if e.from >= nodes.len() || e.to >= nodes.len() {
                    return Err(ServeError::BadRequest {
                        detail: format!(
                            "edge [{}, {}] references a node out of range (have {})",
                            e.from,
                            e.to,
                            nodes.len()
                        ),
                    });
                }
            }
            let budget_ratio = match v.get("budget_ratio") {
                None => None,
                Some(b) => {
                    let r = b.as_f64().ok_or_else(|| ServeError::BadRequest {
                        detail: "\"budget_ratio\" must be a number".to_string(),
                    })?;
                    if !(r.is_finite() && r > 0.0) {
                        return Err(ServeError::BadRequest {
                            detail: "\"budget_ratio\" must be finite and positive".to_string(),
                        });
                    }
                    Some(r)
                }
            };
            let max_ii = opt_u64(v, "max_ii")?
                .map(|n| {
                    u32::try_from(n).map_err(|_| ServeError::BadRequest {
                        detail: "\"max_ii\" must fit in u32".to_string(),
                    })
                })
                .transpose()?;
            Ok(Request::Schedule {
                fingerprint,
                nodes,
                edges,
                budget_ratio,
                max_ii,
            })
        }
        "suite" => {
            let fingerprint = need_str(v, "fingerprint")?;
            let loops = opt_u64(v, "loops")?.unwrap_or(64) as usize;
            if loops == 0 || loops > MAX_SUITE_LOOPS {
                return Err(ServeError::BadRequest {
                    detail: format!("\"loops\" must be in 1..={MAX_SUITE_LOOPS}"),
                });
            }
            let seed = opt_u64(v, "seed")?.unwrap_or(0xC5);
            Ok(Request::Suite {
                fingerprint,
                loops,
                seed,
            })
        }
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::UnknownType {
            got: other.to_string(),
        }),
    }
}

/// Parses one protocol line into a [`Frame`], using `tape` as the
/// decoding buffer. Never panics: every malformation maps to a typed
/// error carried in the frame body.
pub fn parse_frame<'a>(line: &'a str, tape: &mut Tape) -> Frame<'a> {
    if line.len() > MAX_FRAME_BYTES {
        return Frame::broken(ServeError::Oversized {
            limit: MAX_FRAME_BYTES,
            actual: line.len(),
        });
    }
    let v = match tape.parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Frame::broken(ServeError::Malformed {
                detail: e.to_string(),
            })
        }
    };
    if !v.is_object() {
        return Frame::broken(ServeError::Malformed {
            detail: "frame must be a JSON object".to_string(),
        });
    }
    let id = match v.get("id").map(render_id).transpose() {
        Ok(id) => id,
        Err(e) => {
            return Frame {
                id: None,
                deadline_ms: None,
                trace: false,
                body: Err(e),
            }
        }
    };
    let deadline_ms = match opt_u64(v, "deadline_ms") {
        Ok(d) => d,
        Err(e) => {
            return Frame {
                id,
                deadline_ms: None,
                trace: false,
                body: Err(e),
            }
        }
    };
    let trace = match opt_bool(v, "trace") {
        Ok(t) => t,
        Err(e) => {
            return Frame {
                id,
                deadline_ms,
                trace: false,
                body: Err(e),
            }
        }
    };
    let body = parse_body(v);
    Frame {
        id,
        deadline_ms,
        trace,
        body,
    }
}

/// Bytes a reply holds besides its id and any integer array: room for
/// the members of every fixed-shape reply (a machine reply with its
/// fingerprint is about 150).
const REPLY_BYTES: usize = 192;

/// Bytes one `u32` array element takes at most: ten digits and a comma.
const ELEMENT_BYTES: usize = 11;

/// Incrementally builds one `{"ok":true,...}` reply line.
pub struct ReplyBuilder {
    out: String,
}

impl ReplyBuilder {
    /// Starts a success reply for request `id` of the given `type`.
    pub fn ok(id: Option<&str>, ty: &str) -> Self {
        Self::with_room(id, ty, 0)
    }

    /// As [`ok`](Self::ok), with room for `elements` more `u32` array
    /// elements, so a reply with an array of known length (a
    /// schedule's `times`) is written into the one buffer allocated
    /// here.
    pub fn with_room(id: Option<&str>, ty: &str, elements: usize) -> Self {
        let id = id.unwrap_or("null");
        let mut out = String::with_capacity(REPLY_BYTES + id.len() + elements * ELEMENT_BYTES);
        out.push_str("{\"ok\":true,\"id\":");
        out.push_str(id);
        out.push_str(",\"type\":");
        push_json_string(&mut out, ty);
        ReplyBuilder { out }
    }

    /// Appends a string member.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        push_json_string(&mut self.out, v);
        self
    }

    /// Appends a numeric member.
    pub fn num(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        push_u64(&mut self.out, v);
        self
    }

    /// Appends a boolean member.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends an array-of-integers member.
    pub fn nums<I: IntoIterator<Item = u64>>(mut self, key: &str, vs: I) -> Self {
        self.key(key);
        self.out.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_u64(&mut self.out, v);
        }
        self.out.push(']');
        self
    }

    /// Appends a raw, pre-rendered JSON member.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    fn key(&mut self, key: &str) {
        self.out.push(',');
        push_json_string(&mut self.out, key);
        self.out.push(':');
    }

    /// Closes and returns the reply line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Appends `v` in decimal, the digits `format!("{v}")` writes, without
/// going through `core::fmt`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Frame<'_> {
        parse_frame(line, &mut Tape::new())
    }

    #[test]
    fn parses_machine_request() {
        let f = parse(r#"{"type":"machine","model":"fig1","id":7,"deadline_ms":250}"#);
        assert_eq!(f.id.as_deref(), Some("7"));
        assert_eq!(f.deadline_ms, Some(250));
        assert!(!f.trace);
        assert_eq!(
            f.body.unwrap(),
            Request::Machine {
                source: MachineSource::Model(Cow::Borrowed("fig1")),
                strict: false,
                max_steps: None,
            }
        );
    }

    #[test]
    fn parses_schedule_request_with_edge_kinds() {
        let f = parse(
            r#"{"type":"schedule","fingerprint":"rmd-x","nodes":["fadd","fmul"],
               "edges":[[0,1,7,0],[1,0,1,1,"anti"]],"id":"a b"}"#,
        );
        assert_eq!(f.id.as_deref(), Some("\"a b\""));
        match f.body.unwrap() {
            Request::Schedule { nodes, edges, .. } => {
                assert_eq!(nodes, vec!["fadd", "fmul"]);
                assert_eq!(edges.len(), 2);
                assert_eq!(edges[0].kind, DepKind::Flow);
                assert_eq!(edges[1].kind, DepKind::Anti);
                assert_eq!(edges[1].distance, 1);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn strings_borrow_from_the_line_unless_escaped() {
        let f = parse(r#"{"type":"schedule","fingerprint":"rmd-x","nodes":["fadd","f\u006dul"]}"#);
        match f.body.unwrap() {
            Request::Schedule {
                fingerprint, nodes, ..
            } => {
                assert!(matches!(fingerprint, Cow::Borrowed("rmd-x")));
                assert!(matches!(nodes[0], Cow::Borrowed("fadd")));
                assert!(matches!(&nodes[1], Cow::Owned(s) if s == "fmul"));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_metrics_and_trace_members() {
        let f = parse(r#"{"type":"metrics","id":1}"#);
        assert_eq!(f.body.unwrap(), Request::Metrics);
        assert!(!f.trace);

        let f = parse(r#"{"type":"status","trace":true}"#);
        assert_eq!(f.body.unwrap(), Request::Status);
        assert!(f.trace);

        // A non-boolean trace member is a typed error, and the flag
        // stays off so the error reply is untraced.
        let f = parse(r#"{"type":"status","trace":1}"#);
        assert_eq!(f.body.unwrap_err().kind(), "bad_request");
        assert!(!f.trace);
    }

    #[test]
    fn frame_errors_are_typed() {
        let cases: Vec<(&str, &str)> = vec![
            (r#"{"type":"machine","model":"fig1""#, "malformed"), // truncated
            (r#"{"type":"status"} {"type":"status"}"#, "malformed"), // interleaved
            (r#"[1,2,3]"#, "malformed"),
            (r#"{"type":"frobnicate"}"#, "unknown_type"),
            (r#"{"type":"machine"}"#, "bad_request"),
            (r#"{"type":"machine","model":"a","mdl":"b"}"#, "bad_request"),
            (r#"{"type":"schedule","fingerprint":"f"}"#, "bad_request"),
            (
                r#"{"type":"schedule","fingerprint":"f","nodes":["a"],"edges":[[0,5,1,0]]}"#,
                "bad_request",
            ),
            (
                r#"{"type":"suite","fingerprint":"f","loops":0}"#,
                "bad_request",
            ),
            (r#"{"type":"status","id":[1]}"#, "bad_request"),
            (r#"{"type":"status","deadline_ms":-4}"#, "bad_request"),
        ];
        for (line, kind) in cases {
            let f = parse(line);
            let e = f.body.expect_err(line);
            assert_eq!(e.kind(), kind, "{line}");
        }
        let line = format!(
            r#"{{"type":"status","pad":"{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        );
        assert_eq!(parse(&line).body.unwrap_err().kind(), "oversized");
    }

    /// The integer writer against `core::fmt`: both ends of every
    /// digit count, the type limits, and seeded values of every width.
    #[test]
    fn integers_render_as_format_does() {
        use rand::{RngCore, SeedableRng};
        let mut values = vec![0, 9, 10, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1e7_d161);
        values.extend((0..10_000).map(|i| rng.next_u64() >> (i % 64)));
        for v in values {
            let mut out = String::from("[");
            push_u64(&mut out, v);
            assert_eq!(out, format!("[{v}"), "{v}");
        }
    }

    #[test]
    fn reply_builder_emits_valid_json() {
        let r = ReplyBuilder::ok(Some("42"), "schedule")
            .str("fingerprint", "rmd-1234")
            .num("ii", 8)
            .bool("fallback", false)
            .nums("times", [0u64, 3, 9])
            .finish();
        let v = serde_json::from_str(&r).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(serde_json::Value::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(serde_json::Value::as_u64), Some(42));
        assert_eq!(
            v.get("times")
                .and_then(serde_json::Value::as_array)
                .map(|a| a.len()),
            Some(3)
        );
    }
}
