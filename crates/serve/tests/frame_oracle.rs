//! Differential test of `parse_frame` against the `Value`-walking
//! decoder it replaced, kept below verbatim in `mod oracle` (only its
//! `use crate::error` path is spelled `rmd_serve::error`). Every
//! truncation of a fixed set of protocol frames, and 500,000 seeded
//! byte mutations of them, must give the same id, deadline, trace and
//! request (compared through `Debug`), or the same error-reply bytes.
//!
//! The one intended difference is a numeric `id` not written as a plain
//! integer within ±2^53 (or written `-0`): the new decoder echoes its
//! source text, where the old one re-rendered the parsed `f64` through
//! an `i64` cast. For those the test checks that the echoed token is a
//! JSON number with the value the client sent.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmd_serve::proto::{parse_frame, Frame, MAX_FRAME_BYTES};
use serde_json::Tape;

/// Frames the mutations start from: every request type and member,
/// string and numeric ids, escapes, duplicate keys, exponents, `-0`
/// and integers past 2^53 and past `u64`.
const SEEDS: &[&str] = &[
    r#"{"type":"machine","model":"fig1","id":7,"deadline_ms":250}"#,
    r#"{"type":"machine","mdl":"machine \"m\" {\n resources { r; }\n op a { use r @ 0; }\n}","strict":true,"max_steps":12}"#,
    r#"{"type":"schedule","fingerprint":"rmd-0123456789abcdef","nodes":["A","B","B"],"edges":[[0,1,2,0],[1,2,1,0,"anti"],[2,0,1,1,"memory"]],"id":"req \"1\""}"#,
    r#"{"type":"schedule","fingerprint":"rmd-x","nodes":["fadd"],"edges":[],"budget_ratio":1.5e0,"max_ii":64,"trace":true}"#,
    r#"{"type":"schedule","fingerprint":"rmd-x","nodes":["a","b"],"edges":[[0,1,-3,0,"output"],[1,1,2147483647,4294967295,"flow"]],"id":-0}"#,
    r#"{"type":"suite","fingerprint":"rmd-x","loops":80,"seed":7,"threads":2,"id":1e2}"#,
    r#"{"type":"suite","fingerprint":"rmd-x","loops":100000,"seed":18446744073709551615}"#,
    r#"{"type":"status","id":12345678901234567890}"#,
    r#"{"type":"status","id":9007199254740993,"deadline_ms":0}"#,
    r#"{"type":"metrics","id":-9007199254740992,"trace":false}"#,
    r#"{"type":"shutdown","id":"😀😀"}"#,
    r#"{"type":"status","type":"metrics","id":1,"id":2}"#,
    r#"{"type":"status","id":1.0,"deadline_ms":1e3}"#,
    r#"{"type":"schedule","fingerprint":"f","nodes":["a"],"edges":[[0,0,1,0,"flow",1]],"budget_ratio":-1}"#,
    r#" { "type" : "schedule" , "fingerprint" : "f" , "nodes" : [ "a" , "b" ] , "edges" : [ [ 0 , 1 , 1 , 0 ] ] } "#,
    r#"{"type":"machine","model":"fig1","mdl":"x","id":[1]}"#,
    r#"{"type":"suite","fingerprint":"f","loops":0.5,"threads":1e300}"#,
];

/// Bytes a mutation writes: JSON punctuation, escape letters, digits,
/// number signs, whitespace, control bytes, and UTF-8 lead and
/// continuation bytes.
const ALPHABET: &[u8] = b"{}[]\":,\\/ubnrtf0123456789aAdeE-+. \t\n\x00\x01\xc3\xa9\xf0\x9f\x98\x80";

/// Fragments a mutation splices in.
const SNIPPETS: &[&str] = &[
    r#""type":"schedule","#,
    r#""type":"machine","#,
    r#""id":1e300,"#,
    r#""id":-0,"#,
    r#""id":"x","#,
    r#""nodes":["A","B"],"#,
    r#""edges":[[0,1,2,0,"anti"]],"#,
    r#""deadline_ms":5,"#,
    r#""trace":true,"#,
    r#""max_ii":4294967296,"#,
    r#"\ud83d"#,
    r#"\ude00"#,
    r#"é"#,
    "1e999",
    "-0",
    "12345678901234567890",
    "9007199254740993",
    "null",
    "true",
    "[[",
    "]]",
    "😀",
];

/// One to four random edits of `seed`.
fn mutate(rng: &mut StdRng, seed: &str) -> Vec<u8> {
    let mut b = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(b.len() + 1);
        match rng.index(6) {
            0 if at < b.len() => b[at] = ALPHABET[rng.index(ALPHABET.len())],
            1 => b.insert(at, ALPHABET[rng.index(ALPHABET.len())]),
            2 if at < b.len() => {
                b.remove(at);
            }
            3 => {
                let s = SNIPPETS[rng.index(SNIPPETS.len())].as_bytes();
                b.splice(at..at, s.iter().copied());
            }
            4 if at < b.len() => {
                let end = at + rng.index((b.len() - at).min(16)) + 1;
                let copy = b[at..end].to_vec();
                b.splice(at..at, copy);
            }
            _ => b.truncate(at),
        }
    }
    b
}

/// Whether the old decoder rendered numeric id `text` as written: a
/// plain integer of magnitude at most 2^53, other than `-0`.
fn old_renders_verbatim(text: &str) -> bool {
    let digits = text.strip_prefix('-').unwrap_or(text);
    let plain = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    plain && text != "-0" && digits.parse::<u64>().is_ok_and(|n| n <= 1 << 53)
}

fn id_member(line: &str) -> Option<f64> {
    serde_json::from_str(line).ok()?.get("id")?.as_f64()
}

fn check(line: &str, tape: &mut Tape) {
    let want = oracle::parse_frame(line, MAX_FRAME_BYTES);
    let got: Frame<'_> = parse_frame(line, tape);
    match (&want.id, got.id.as_deref()) {
        (Some(old), Some(new)) if old != new => {
            // Only a numeric id may differ; a string id must not.
            let sent = id_member(line)
                .unwrap_or_else(|| panic!("{line:?}: non-numeric id {old} became {new}"));
            assert!(
                !old_renders_verbatim(new),
                "{line:?}: id {new} rendered {old} before"
            );
            let echoed = serde_json::from_str(new).ok().and_then(|v| v.as_f64());
            assert_eq!(
                echoed.map(f64::to_bits),
                Some(sent.to_bits()),
                "{line:?}: id echoed as {new}"
            );
        }
        (old, new) => assert_eq!(old.as_deref(), new, "{line:?}: id"),
    }
    assert_eq!(want.deadline_ms, got.deadline_ms, "{line:?}: deadline");
    assert_eq!(want.trace, got.trace, "{line:?}: trace");
    match (&want.body, &got.body) {
        (Ok(old), Ok(new)) => {
            assert_eq!(format!("{old:?}"), format!("{new:?}"), "{line:?}: request")
        }
        (Err(old), Err(new)) => {
            assert_eq!(
                old.to_reply(None),
                new.to_reply(None),
                "{line:?}: error reply"
            )
        }
        (old, new) => panic!("{line:?}: {old:?} became {new:?}"),
    }
}

#[test]
fn every_truncation_decodes_as_before() {
    let mut tape = Tape::new();
    for seed in SEEDS {
        for end in (0..=seed.len()).filter(|&e| seed.is_char_boundary(e)) {
            check(&seed[..end], &mut tape);
        }
    }
}

#[test]
fn seeded_mutations_decode_as_before() {
    let mut tape = Tape::new();
    // Seeded: the campaign is the same on every run.
    let mut rng = StdRng::seed_from_u64(0x5EED_F2A3);
    let mut decoded = 0;
    for i in 0..500_000 {
        let bytes = mutate(&mut rng, SEEDS[i % SEEDS.len()]);
        if let Ok(line) = String::from_utf8(bytes) {
            check(&line, &mut tape);
            decoded += 1;
        }
    }
    // Most mutations stay valid UTF-8, so the campaign is not vacuous.
    assert!(
        decoded > 300_000,
        "only {decoded} mutations were valid UTF-8"
    );
}

#[test]
fn numeric_ids_outside_the_old_rendering_are_the_only_difference() {
    let mut tape = Tape::new();
    for (id, old) in [
        ("7", "7"),
        ("-0", "0"),
        ("1.0", "1"),
        ("1e2", "100"),
        ("1e300", "9223372036854775807"),
        ("12345678901234567890", "9223372036854775807"),
        ("9007199254740993", "9007199254740992"),
    ] {
        let line = format!(r#"{{"type":"status","id":{id}}}"#);
        let want = oracle::parse_frame(&line, MAX_FRAME_BYTES);
        assert_eq!(want.id.as_deref(), Some(old), "{line}");
        let got = parse_frame(&line, &mut tape);
        assert_eq!(got.id.as_deref(), Some(id), "{line}");
        assert_eq!(old_renders_verbatim(id), id == old, "{id}");
    }
}

// ---- The replaced decoder, verbatim. ----

mod oracle {
    #![allow(dead_code)]

    use rmd_obs::export::push_json_string;
    use rmd_sched::DepKind;
    use rmd_serve::error::ServeError;
    use serde_json::Value;

    /// Default per-frame size limit (bytes). A megabyte comfortably holds
    /// the largest `.mdl` sources while bounding a hostile client's memory.
    pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

    /// Upper bound on the `loops` member of a suite request.
    pub const MAX_SUITE_LOOPS: usize = 100_000;

    /// Where a `machine` request's description comes from.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum MachineSource {
        /// A built-in model name (`fig1`, `cydra5-subset`, …).
        Model(String),
        /// Inline MDL source text.
        Mdl(String),
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

    /// A parsed request body.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request {
        /// Submit a machine; the daemon reduces (with fallback unless
        /// `strict`), verifies, and caches it under its fingerprint.
        Machine {
            /// Model name or inline MDL.
            source: MachineSource,
            /// Fail with a typed error instead of falling back to the
            /// original tables when reduction or verification fails.
            strict: bool,
            /// Reduction step budget (maps to [`rmd_core::ReduceOptions`]).
            max_steps: Option<u64>,
        },
        /// Schedule one dependence graph against a cached machine.
        Schedule {
            /// Fingerprint of a previously submitted machine.
            fingerprint: String,
            /// Operation names, one per node.
            nodes: Vec<String>,
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
            fingerprint: String,
            /// Number of loops to generate.
            loops: usize,
            /// Suite generator seed.
            seed: u64,
            /// Worker thread cap (clamped by the daemon's own limit).
            threads: Option<usize>,
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
    pub struct Frame {
        /// The request's `id` member, pre-rendered as a JSON token.
        pub id: Option<String>,
        /// The request's `deadline_ms` member.
        pub deadline_ms: Option<u64>,
        /// The request's `trace` member: when `true`, the reply carries
        /// the request's span tree as an inline Chrome-trace slice.
        pub trace: bool,
        /// The parsed body, or the typed error to reply with.
        pub body: Result<Request, ServeError>,
    }

    impl Frame {
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

    /// Renders an `id` member back into a JSON token. Only strings and
    /// numbers are accepted — other types would make reply matching
    /// ambiguous.
    fn render_id(v: &Value) -> Result<String, ServeError> {
        match v {
            Value::String(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                push_json_string(&mut out, s);
                Ok(out)
            }
            Value::Number(n) if n.fract() == 0.0 => Ok(format!("{}", *n as i64)),
            Value::Number(n) => Ok(format!("{n}")),
            _ => Err(ServeError::BadRequest {
                detail: "id must be a string or number".to_string(),
            }),
        }
    }

    fn need_str(v: &Value, key: &str) -> Result<String, ServeError> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::BadRequest {
                detail: format!("missing or non-string {key:?} member"),
            })
    }

    fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, ServeError> {
        match v.get(key) {
            None => Ok(None),
            Some(m) => m.as_u64().map(Some).ok_or_else(|| ServeError::BadRequest {
                detail: format!("{key:?} must be a non-negative integer"),
            }),
        }
    }

    fn opt_bool(v: &Value, key: &str) -> Result<bool, ServeError> {
        match v.get(key) {
            None => Ok(false),
            Some(b) => b.as_bool().ok_or_else(|| ServeError::BadRequest {
                detail: format!("{key:?} must be a boolean"),
            }),
        }
    }

    fn parse_edge(i: usize, v: &Value) -> Result<EdgeSpec, ServeError> {
        let bad = |detail: String| ServeError::BadRequest { detail };
        let parts = v
            .as_array()
            .ok_or_else(|| bad(format!("edge {i} must be an array")))?;
        if !(parts.len() == 4 || parts.len() == 5) {
            return Err(bad(format!(
                "edge {i} must be [from, to, delay, distance] with an optional kind"
            )));
        }
        let idx = |j: usize, what: &str| {
            parts[j]
                .as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| bad(format!("edge {i}: {what} must be a non-negative integer")))
        };
        let from = idx(0, "from")?;
        let to = idx(1, "to")?;
        let delay = parts[2]
            .as_i64()
            .and_then(|d| i32::try_from(d).ok())
            .ok_or_else(|| bad(format!("edge {i}: delay must be an i32 integer")))?;
        let distance = parts[3]
            .as_u64()
            .and_then(|d| u32::try_from(d).ok())
            .ok_or_else(|| bad(format!("edge {i}: distance must be a u32 integer")))?;
        let kind = match parts.get(4) {
            None => DepKind::Flow,
            Some(k) => match k.as_str() {
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

    fn parse_body(v: &Value) -> Result<Request, ServeError> {
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::BadRequest {
                detail: "missing or non-string \"type\" member".to_string(),
            })?;
        match ty {
            "machine" => {
                let model = v.get("model").and_then(Value::as_str);
                let mdl = v.get("mdl").and_then(Value::as_str);
                let source = match (model, mdl) {
                    (Some(m), None) => MachineSource::Model(m.to_string()),
                    (None, Some(s)) => MachineSource::Mdl(s.to_string()),
                    _ => {
                        return Err(ServeError::BadRequest {
                            detail: "machine request needs exactly one of \"model\" or \"mdl\""
                                .to_string(),
                        })
                    }
                };
                let strict = match v.get("strict") {
                    None => false,
                    Some(b) => b.as_bool().ok_or_else(|| ServeError::BadRequest {
                        detail: "\"strict\" must be a boolean".to_string(),
                    })?,
                };
                Ok(Request::Machine {
                    source,
                    strict,
                    max_steps: opt_u64(v, "max_steps")?,
                })
            }
            "schedule" => {
                let fingerprint = need_str(v, "fingerprint")?;
                let nodes: Vec<String> = v
                    .get("nodes")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ServeError::BadRequest {
                        detail: "missing or non-array \"nodes\" member".to_string(),
                    })?
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ServeError::BadRequest {
                                detail: "every node must be an operation name string".to_string(),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                if nodes.is_empty() {
                    return Err(ServeError::BadRequest {
                        detail: "\"nodes\" must not be empty".to_string(),
                    });
                }
                let edges = match v.get("edges") {
                    None => Vec::new(),
                    Some(e) => e
                        .as_array()
                        .ok_or_else(|| ServeError::BadRequest {
                            detail: "\"edges\" must be an array".to_string(),
                        })?
                        .iter()
                        .enumerate()
                        .map(|(i, e)| parse_edge(i, e))
                        .collect::<Result<Vec<_>, _>>()?,
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
                let threads = opt_u64(v, "threads")?.map(|n| n as usize);
                Ok(Request::Suite {
                    fingerprint,
                    loops,
                    seed,
                    threads,
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

    /// Parses one protocol line into a [`Frame`]. Never panics: every
    /// malformation maps to a typed error carried in the frame body.
    pub fn parse_frame(line: &str, max_bytes: usize) -> Frame {
        if line.len() > max_bytes {
            return Frame::broken(ServeError::Oversized {
                limit: max_bytes,
                actual: line.len(),
            });
        }
        let v = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                return Frame::broken(ServeError::Malformed {
                    detail: e.to_string(),
                })
            }
        };
        if !matches!(v, Value::Object(_)) {
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
        let deadline_ms = match opt_u64(&v, "deadline_ms") {
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
        let trace = match opt_bool(&v, "trace") {
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
        let body = parse_body(&v);
        Frame {
            id,
            deadline_ms,
            trace,
            body,
        }
    }
}
