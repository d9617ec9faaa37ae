//! The crash flight recorder: a fixed-size ring of recent request
//! summaries that can be dumped as a self-describing JSON black box.
//!
//! The engine records one [`FlightEntry`] per request — id, kind,
//! fingerprint, latency, outcome — into a ring that overwrites oldest
//! first, so the recorder's memory is bounded no matter how long the
//! daemon runs. When something goes wrong (a `catch_unwind` trips and
//! quarantines a cache entry, or SIGTERM drains the daemon), the ring
//! is rendered as one JSON object whose `entries` array reads oldest →
//! newest: the last N requests leading up to the incident, which is
//! exactly what a post-mortem needs. Recording is plain single-threaded
//! code on the engine's request thread — no locks anywhere — and
//! rendering never allocates more than the output string.
//!
//! Dumps are *queued* on the recorder rather than printed, so the
//! transport layer decides where they go (stderr for the daemon) and
//! in-process tests can assert on every dump an injected panic
//! produced.

use rmd_obs::export::push_json_string;
use std::fmt::Write as _;

/// Schema tag embedded in every dump, so readers can detect format
/// drift.
pub const FLIGHT_SCHEMA: &str = "rmd-flight/1";

/// Number of request summaries the ring retains.
pub const FLIGHT_CAPACITY: usize = 64;

/// One request summary retained by the recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// The engine's request index (monotonic admission order).
    pub req: u64,
    /// The client-chosen id, pre-rendered as a JSON token.
    pub id: Option<String>,
    /// Request kind (`"schedule"`, `"suite"`, …, or `"invalid"` when
    /// the body never parsed).
    pub kind: &'static str,
    /// Fingerprint of the machine the request touched, if any.
    pub fingerprint: Option<String>,
    /// Wall-clock latency from admission to reply, nanoseconds.
    pub latency_ns: u64,
    /// `"ok"` or the typed error kind (`"timeout"`, `"panicked"`, …).
    pub outcome: String,
}

/// A ring of the last [`FLIGHT_CAPACITY`] [`FlightEntry`] values plus
/// the queue of dumps tripped since the last
/// [`take_dumps`](FlightRecorder::take_dumps).
#[derive(Debug, Default)]
pub struct FlightRecorder {
    entries: Vec<FlightEntry>,
    /// Index the next entry overwrites once the ring is full.
    next: usize,
    recorded: u64,
    dumps: Vec<String>,
}

impl FlightRecorder {
    /// Records one request summary, overwriting the oldest once full.
    pub fn record(&mut self, e: FlightEntry) {
        self.recorded += 1;
        if self.entries.len() < FLIGHT_CAPACITY {
            self.entries.push(e);
        } else {
            self.entries[self.next] = e;
            self.next = (self.next + 1) % FLIGHT_CAPACITY;
        }
    }

    /// Total requests ever recorded (not just the retained window).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        let (older, newer) = self.entries.split_at(self.next);
        newer.iter().chain(older.iter())
    }

    /// Renders the black box as one self-describing JSON object.
    pub fn render_dump(&self, reason: &str) -> String {
        let mut out = String::with_capacity(128 + 96 * self.entries.len());
        out.push_str("{\"flight_recorder\":");
        push_json_string(&mut out, FLIGHT_SCHEMA);
        out.push_str(",\"reason\":");
        push_json_string(&mut out, reason);
        let _ = write!(
            out,
            ",\"recorded\":{},\"capacity\":{},\"entries\":[",
            self.recorded, FLIGHT_CAPACITY
        );
        for (i, e) in self.entries().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"req\":{},\"id\":", e.req);
            out.push_str(e.id.as_deref().unwrap_or("null"));
            out.push_str(",\"kind\":");
            push_json_string(&mut out, e.kind);
            out.push_str(",\"fingerprint\":");
            match &e.fingerprint {
                Some(fp) => push_json_string(&mut out, fp),
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"latency_ns\":{},\"outcome\":", e.latency_ns);
            push_json_string(&mut out, &e.outcome);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders a dump for `reason` and queues it for the transport
    /// layer to publish.
    pub fn trip(&mut self, reason: &str) {
        let dump = self.render_dump(reason);
        self.dumps.push(dump);
    }

    /// Takes every dump tripped since the last call, oldest first.
    pub fn take_dumps(&mut self) -> Vec<String> {
        std::mem::take(&mut self.dumps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn entry(req: u64, outcome: &str) -> FlightEntry {
        FlightEntry {
            req,
            id: Some(format!("{req}")),
            kind: "schedule",
            fingerprint: Some("rmd-test".to_string()),
            latency_ns: 1000 + req,
            outcome: outcome.to_string(),
        }
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let mut fr = FlightRecorder::default();
        let n = FLIGHT_CAPACITY as u64 + 2;
        for i in 0..n {
            fr.record(entry(i, "ok"));
        }
        let reqs: Vec<u64> = fr.entries().map(|e| e.req).collect();
        assert_eq!(reqs, (2..n).collect::<Vec<u64>>());
        assert_eq!(fr.recorded(), n);
    }

    #[test]
    fn dump_is_self_describing_parseable_json() {
        let mut fr = FlightRecorder::default();
        fr.record(entry(0, "ok"));
        fr.record(FlightEntry {
            req: 1,
            id: None,
            kind: "invalid",
            fingerprint: None,
            latency_ns: 7,
            outcome: "malformed".to_string(),
        });
        let dump = fr.render_dump("panic");
        let v = serde_json::from_str(&dump).expect("dump parses");
        assert_eq!(
            v.get("flight_recorder").and_then(Value::as_str),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("panic"));
        assert_eq!(v.get("recorded").and_then(Value::as_u64), Some(2));
        let entries = v.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("req").and_then(Value::as_u64), Some(0));
        assert!(entries[1].get("id").unwrap().as_str().is_none()); // null
        assert_eq!(
            entries[1].get("outcome").and_then(Value::as_str),
            Some("malformed")
        );
    }

    #[test]
    fn trip_queues_dumps_until_taken() {
        let mut fr = FlightRecorder::default();
        fr.record(entry(0, "panicked"));
        fr.trip("panic");
        fr.record(entry(1, "ok"));
        fr.trip("drain");
        let dumps = fr.take_dumps();
        assert_eq!(dumps.len(), 2);
        assert!(dumps[0].contains("\"reason\":\"panic\""));
        assert!(dumps[1].contains("\"reason\":\"drain\""));
        assert!(fr.take_dumps().is_empty());
    }
}
