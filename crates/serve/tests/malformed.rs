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
