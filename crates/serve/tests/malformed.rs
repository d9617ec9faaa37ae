//! Table-driven malformed-request tests: every hostile frame yields a
//! typed error reply, and the daemon keeps serving afterwards.

use rmd_serve::{EngineConfig, ServeEngine};
use std::time::Instant;

struct Case {
    name: &'static str,
    line: String,
    want_kind: &'static str,
    want_code: u64,
}

fn kind_of(v: &serde_json::Value) -> Option<&str> {
    v.get("error")?.get("kind")?.as_str()
}

fn code_of(v: &serde_json::Value) -> Option<u64> {
    v.get("error")?.get("code")?.as_u64()
}

#[test]
fn hostile_frames_get_typed_replies_and_service_continues() {
    let mut engine = ServeEngine::new(EngineConfig {
        max_frame_bytes: 4096,
        ..EngineConfig::default()
    });

    // A real fingerprint so the mismatch case is the only wrong bit.
    let (reply, _) = engine.handle_line(r#"{"type":"machine","model":"fig1"}"#, Instant::now());
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{reply}");

    let cases = vec![
        Case {
            name: "truncated JSON",
            line: r#"{"type":"status","id":"#.to_string(),
            want_kind: "malformed",
            want_code: 100,
        },
        Case {
            name: "interleaved pipelined frames on one line",
            line: r#"{"type":"status","id":1}{"type":"status","id":2}"#.to_string(),
            want_kind: "malformed",
            want_code: 100,
        },
        Case {
            name: "oversized line",
            line: format!(r#"{{"type":"status","pad":"{}"}}"#, "x".repeat(8192)),
            want_kind: "oversized",
            want_code: 101,
        },
        Case {
            name: "unknown request type",
            line: r#"{"type":"reticulate","id":3}"#.to_string(),
            want_kind: "unknown_type",
            want_code: 102,
        },
        Case {
            name: "non-object top level",
            line: r#"[1,2,3]"#.to_string(),
            want_kind: "malformed",
            want_code: 100,
        },
        Case {
            name: "schedule missing nodes",
            line: r#"{"type":"schedule","fingerprint":"rmd-0000000000000000"}"#.to_string(),
            want_kind: "bad_request",
            want_code: 103,
        },
        Case {
            name: "fingerprint mismatch",
            line: r#"{"type":"schedule","fingerprint":"rmd-0000000000000000","nodes":["A"]}"#
                .to_string(),
            want_kind: "unknown_fingerprint",
            want_code: 104,
        },
        Case {
            name: "edge index out of range",
            line: r#"{"type":"schedule","fingerprint":"rmd-0000000000000000","nodes":["A"],"edges":[[0,7,1,0]]}"#
                .to_string(),
            want_kind: "bad_request",
            want_code: 103,
        },
        Case {
            name: "unknown op name",
            line: r#"{"type":"schedule","fingerprint":"FPHERE","nodes":["no-such-op"]}"#
                .to_string(),
            want_kind: "bad_request",
            want_code: 103,
        },
        Case {
            name: "suite with zero loops",
            line: r#"{"type":"suite","fingerprint":"rmd-0000000000000000","loops":0}"#.to_string(),
            want_kind: "bad_request",
            want_code: 103,
        },
        Case {
            name: "id of unsupported type",
            line: r#"{"type":"status","id":[1]}"#.to_string(),
            want_kind: "bad_request",
            want_code: 103,
        },
        Case {
            name: "negative deadline",
            line: r#"{"type":"status","deadline_ms":-1}"#.to_string(),
            want_kind: "bad_request",
            want_code: 103,
        },
    ];

    let fp = {
        let (reply, _) =
            engine.handle_line(r#"{"type":"machine","model":"fig1"}"#, Instant::now());
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        v.get("fingerprint").and_then(|f| f.as_str()).unwrap().to_string()
    };

    for case in cases {
        let line = case.line.replace("FPHERE", &fp);
        let (reply, shutdown) = engine.handle_line(&line, Instant::now());
        assert!(!shutdown, "{}: must not shut the daemon down", case.name);
        let v: serde_json::Value = serde_json::from_str(&reply)
            .unwrap_or_else(|e| panic!("{}: reply not JSON ({e}): {reply}", case.name));
        assert_eq!(
            v.get("ok").and_then(|o| o.as_bool()),
            Some(false),
            "{}: {reply}",
            case.name
        );
        assert_eq!(kind_of(&v), Some(case.want_kind), "{}: {reply}", case.name);
        assert_eq!(code_of(&v), Some(case.want_code), "{}: {reply}", case.name);

        // The daemon keeps serving after every hostile frame.
        let (status, _) = engine.handle_line(r#"{"type":"status"}"#, Instant::now());
        let s: serde_json::Value = serde_json::from_str(&status).unwrap();
        assert_eq!(
            s.get("ok").and_then(|o| o.as_bool()),
            Some(true),
            "{}: daemon stopped serving: {status}",
            case.name
        );
    }

    // fig1 lacks the loop-suite vocabulary: a suite frame is a typed
    // client error naming the first missing op, never a panic.
    let line = format!(r#"{{"type":"suite","fingerprint":"{fp}","loops":1}}"#);
    let (reply, _) = engine.handle_line(&line, Instant::now());
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(kind_of(&v), Some("bad_request"), "{reply}");
    assert_eq!(code_of(&v), Some(103), "{reply}");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("detail"))
            .and_then(|d| d.as_str()),
        Some(r#"machine lacks op "load.w.0" required by the suite generator"#),
        "{reply}"
    );

    // And real work still succeeds at the end of the gauntlet.
    let line = format!(
        r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A","B"],"edges":[[0,1,2,0]]}}"#
    );
    let (reply, _) = engine.handle_line(&line, Instant::now());
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{reply}");
}

/// Frames the JSON parser rejects, with their full replies: the
/// message and byte offset of every parse error are part of the
/// protocol, so a parser change must keep them byte for byte.
#[test]
fn parse_error_replies_are_pinned_byte_for_byte() {
    let deep = format!(
        r#"{{"type":"status","pad":{}{}}}"#,
        "[".repeat(128),
        "]".repeat(128)
    );
    let cases: Vec<(&str, String, &str)> = vec![
        (
            "truncated JSON",
            r#"{"type":"status","id":"#.to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"unexpected end of input at byte 22"}}"#,
        ),
        (
            "interleaved pipelined frames on one line",
            r#"{"type":"status","id":1}{"type":"status","id":2}"#.to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"trailing data after JSON value at byte 24"}}"#,
        ),
        (
            "non-object top level",
            "[1,2,3]".to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"frame must be a JSON object"}}"#,
        ),
        (
            "bad escape",
            r#"{"type":"status","id":"a\qb"}"#.to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"invalid escape character at byte 26"}}"#,
        ),
        (
            "lone high surrogate",
            r#"{"type":"status","id":"\ud83d"}"#.to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"invalid \\u escape at byte 29"}}"#,
        ),
        (
            "high surrogate followed by a plain character",
            r#"{"type":"status","id":"\ud83dx"}"#.to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"invalid \\u escape at byte 29"}}"#,
        ),
        (
            "129-deep nesting",
            deep,
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"nesting too deep at byte 150"}}"#,
        ),
        (
            "raw control character in a string",
            "{\"type\":\"status\",\"id\":\"a\u{1}b\"}".to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"control character in string at byte 24"}}"#,
        ),
        (
            "raw tab in a string",
            "{\"type\":\"status\",\"id\":\"a\tb\"}".to_string(),
            r#"{"ok":false,"id":null,"error":{"code":100,"kind":"malformed","detail":"control character in string at byte 24"}}"#,
        ),
    ];
    let mut engine = ServeEngine::new(EngineConfig::default());
    for (name, line, want) in cases {
        let (reply, _) = engine.handle_line(&line, Instant::now());
        assert_eq!(reply, want, "{name}");
    }
}
