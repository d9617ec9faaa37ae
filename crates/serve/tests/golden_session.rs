//! Golden session: a fixed frame script replayed through
//! [`ServeEngine::handle_line`] must answer, byte for byte, the replies
//! committed next to it.
//!
//! `golden/session.jsonl` holds machine frames for `fig1` and
//! `cydra5-subset` (one of them a cache hit), schedule frames whose ids
//! are numeric (`-0`, an exponent, a fraction, past `u64`), plain,
//! escaped and non-ASCII strings, an escaped member key, padding
//! whitespace, duplicate members, a ten-digit start time, a schedule
//! sent cold and again warm, and the error replies: two unschedulable
//! frames (one before any attempt, one after its attempts ran out), bad
//! requests, an unknown fingerprint, a malformed frame with its byte
//! offset, an unknown type, and two suite frames. It has no `status` or
//! `metrics` frame, whose replies carry uptime and latencies.
//!
//! `golden/session.replies.jsonl` was captured from the daemon before
//! its reply writer and frame bookkeeping were rewritten, so the test
//! holds the guardrail that untraced schedule streams stay
//! byte-identical. CI pipes the same script through the release `rmd
//! serve` on stdin and compares its output with the same file.

use rmd_serve::{EngineConfig, ServeEngine};
use std::time::Instant;

const SCRIPT: &str = include_str!("golden/session.jsonl");
const REPLIES: &str = include_str!("golden/session.replies.jsonl");

#[test]
fn the_golden_session_replays_byte_for_byte() {
    let frames: Vec<&str> = SCRIPT.lines().collect();
    let want: Vec<&str> = REPLIES.lines().collect();
    assert_eq!(frames.len(), want.len(), "one reply per frame");
    let mut engine = ServeEngine::new(EngineConfig::default());
    for (i, (frame, want)) in frames.iter().zip(&want).enumerate() {
        let (got, shutdown) = engine.handle_line(frame, Instant::now());
        assert!(!shutdown, "frame {}: {frame}", i + 1);
        assert_eq!(got, *want, "frame {}: {frame}", i + 1);
    }
}
