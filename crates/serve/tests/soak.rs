//! The acceptance soak: 10k requests under seeded chaos — mixed valid,
//! malformed, panicking, and deadline-busting frames — with zero
//! daemon crashes, every request answered (success or typed error),
//! every successful schedule byte-identical to the offline library
//! result, and a clean SIGTERM drain mid-burst. Live telemetry rides
//! along: periodic metrics snapshots stay monotonic and parseable,
//! traced requests carry their span tree without perturbing untraced
//! replies, and every injected panic trips a parseable flight-recorder
//! dump.

use rmd_core::{reduce_with_fallback, Objective, ReduceOptions};
use rmd_machine::models;
use rmd_query::WordLayout;
use rmd_sched::{mii::mii, DepGraph, DepKind, ImsConfig, IterativeModuloScheduler, Representation};
use rmd_serve::daemon::{serve_stream, SharedWriter};
use rmd_serve::engine::suite_digest;
use rmd_serve::proto::MAX_FRAME_BYTES;
use rmd_serve::{signal, Chaos, EngineConfig, ServeEngine, ServeOptions};
use std::collections::HashMap;
use std::io::{BufReader, Cursor, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SOAK_REQUESTS: usize = 10_000;
const CHAOS_SEED: u64 = 0xC5;
const SUITE_LOOPS: usize = 2;
const SUITE_SEED: u64 = 7;
const SUITE_THREADS: usize = 2;

/// A `(from, to, delay, distance)` dependence edge.
type Edge = (usize, usize, i32, u32);

/// The three schedule-request shapes the soak cycles through:
/// node names plus their dependence edges.
const VARIANTS: [(&[&str], &[Edge]); 3] = [
    (&["A", "B"], &[(0, 1, 2, 0)]),
    (&["A", "B", "B"], &[(0, 1, 2, 0), (1, 2, 1, 0)]),
    (&["B", "B"], &[(0, 1, 2, 0), (1, 0, 1, 1)]),
];

fn schedule_line(i: usize, fp: &str) -> String {
    let (nodes, edges) = VARIANTS[i % VARIANTS.len()];
    let nodes_json = nodes
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect::<Vec<_>>()
        .join(",");
    let edges_json = edges
        .iter()
        .map(|(f, t, d, dist)| format!("[{f},{t},{d},{dist}]"))
        .collect::<Vec<_>>()
        .join(",");
    let deadline = if i % 7 == 0 {
        r#","deadline_ms":1"#
    } else {
        ""
    };
    let trace = if i % 11 == 0 { r#","trace":true"# } else { "" };
    format!(
        r#"{{"type":"schedule","id":{i},"fingerprint":"{fp}","nodes":[{nodes_json}],"edges":[{edges_json}]{deadline}{trace}}}"#
    )
}

fn build_line(i: usize, fig1_fp: &str, cydra_fp: &str) -> String {
    if i % 113 == 0 {
        // Oversized: blows the frame limit.
        format!(
            r#"{{"type":"status","id":{i},"pad":"{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        )
    } else if i % 101 == 0 {
        format!(
            r#"{{"type":"suite","id":{i},"fingerprint":"{cydra_fp}","loops":{SUITE_LOOPS},"seed":{SUITE_SEED},"threads":{SUITE_THREADS}}}"#
        )
    } else if i % 73 == 0 {
        // Live telemetry mid-burst: a metrics frame between requests.
        format!(r#"{{"type":"metrics","id":{i}}}"#)
    } else if i % 50 == 0 {
        format!(r#"{{"type":"status","id":{i}}}"#)
    } else if i % 37 == 0 {
        // Malformed on purpose (on top of what chaos corrupts).
        r#"{"type":"#.to_string()
    } else {
        schedule_line(i, fig1_fp)
    }
}

/// Submits a machine until the reply is ok — chaos may corrupt or
/// panic any individual attempt; a real client retries exactly so.
fn submit_until_ok(engine: &mut ServeEngine, line: &str) -> String {
    for _ in 0..64 {
        let (reply, _) = engine.handle_line(line, Instant::now());
        let v: serde_json::Value = serde_json::from_str(&reply).expect("reply is JSON");
        if v.get("ok").and_then(|o| o.as_bool()) == Some(true) {
            return v
                .get("fingerprint")
                .and_then(|f| f.as_str())
                .expect("machine reply carries fingerprint")
                .to_string();
        }
    }
    panic!("machine submission never succeeded under chaos");
}

/// The offline reference: the same rule the daemon documents, computed
/// with no daemon, no cache, and no chaos.
fn offline_schedule(
    m: &rmd_machine::MachineDescription,
    red: &rmd_machine::MachineDescription,
    variant: usize,
) -> (u64, Vec<u64>) {
    let (nodes, edges) = VARIANTS[variant];
    let mut g = DepGraph::new();
    let ids: Vec<_> = nodes
        .iter()
        .map(|n| g.add_node(m.op_by_name(n).expect("op exists")))
        .collect();
    for &(f, t, d, dist) in edges {
        g.add_edge(ids[f], ids[t], d, dist, DepKind::Flow);
    }
    let lower = mii(&g, m);
    let layout = WordLayout::widest(64, red.num_resources());
    let r = IterativeModuloScheduler::new(ImsConfig::default())
        .schedule_with_mii(&g, red, Representation::Bitvec(layout), lower)
        .expect("offline schedule succeeds");
    (
        u64::from(r.ii),
        r.times.iter().map(|&t| u64::from(t)).collect(),
    )
}

fn reduced(m: &rmd_machine::MachineDescription) -> rmd_machine::MachineDescription {
    let layout = WordLayout::widest(64, m.num_resources());
    reduce_with_fallback(
        m,
        Objective::KCycleWord { k: layout.k },
        &ReduceOptions::default(),
    )
    .machine
}

#[test]
fn chaos_soak_ten_thousand_requests() {
    let mut engine = ServeEngine::new(EngineConfig {
        chaos: Some(Chaos::new(CHAOS_SEED)),
        ..EngineConfig::default()
    });
    let fig1_line = r#"{"type":"machine","model":"fig1"}"#;
    let cydra_line = r#"{"type":"machine","model":"cydra5-subset"}"#;
    let fig1_fp = submit_until_ok(&mut engine, fig1_line);
    let cydra_fp = submit_until_ok(&mut engine, cydra_line);

    // Offline references, computed once (the daemon must match them on
    // every successful reply no matter what chaos did in between).
    let fig1 = models::example_machine();
    let fig1_red = reduced(&fig1);
    let expected: Vec<(u64, Vec<u64>)> = (0..VARIANTS.len())
        .map(|v| offline_schedule(&fig1, &fig1_red, v))
        .collect();
    let cydra = models::cydra5_subset();
    let cydra_red = reduced(&cydra);
    let expected_digest = {
        let ops = rmd_loops::OpSet::for_cydra_subset(&cydra);
        let suite = rmd_loops::suite(&ops, SUITE_LOOPS, SUITE_SEED);
        let layout = WordLayout::widest(64, cydra_red.num_resources());
        let runs = rmd_bench::run_suite_runs(
            &cydra_red,
            &cydra,
            &suite,
            Representation::Bitvec(layout),
            ImsConfig::default().budget_ratio,
            SUITE_THREADS,
        );
        suite_digest(&runs)
    };

    let mut kinds: HashMap<String, u64> = HashMap::new();
    let mut ok_schedules = 0u64;
    let mut ok_suites = 0u64;
    let mut ok_metrics = 0u64;
    let mut traced_schedules = 0u64;
    let mut answered = 0u64;
    let mut last_requests = 0u64;
    for i in 1..=SOAK_REQUESTS {
        let line = build_line(i, &fig1_fp, &cydra_fp);
        let (reply, shutdown) = engine.handle_line(&line, Instant::now());
        assert!(!shutdown, "nothing in the soak requests shutdown");
        assert!(
            !reply.contains('\n'),
            "request {i}: reply broke line framing"
        );
        let v: serde_json::Value = serde_json::from_str(&reply)
            .unwrap_or_else(|e| panic!("request {i}: reply not JSON ({e}): {reply}"));
        answered += 1;
        if i % 500 == 0 {
            // --metrics-every at work: a periodic snapshot taken mid-burst
            // must render as valid JSON with a monotonic request counter,
            // and taking it must not perturb the live registry.
            let snap = rmd_obs::export::registry_to_json(&engine.metrics_snapshot());
            let sv: serde_json::Value =
                serde_json::from_str(&snap).unwrap_or_else(|e| panic!("snapshot not JSON ({e})"));
            let reqs = sv
                .get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(|r| r.as_u64())
                .expect("snapshot carries serve.requests");
            assert!(reqs >= last_requests, "request counter went backwards");
            last_requests = reqs;
        }
        match v.get("ok").and_then(|o| o.as_bool()) {
            Some(true) => match v.get("type").and_then(|t| t.as_str()) {
                Some("schedule") => {
                    let id = v.get("id").and_then(|x| x.as_u64()).expect("id echoed") as usize;
                    let (want_ii, want_times) = &expected[id % VARIANTS.len()];
                    let got_ii = v.get("ii").and_then(|x| x.as_u64()).unwrap();
                    let got_times: Vec<u64> = v
                        .get("times")
                        .and_then(|t| t.as_array())
                        .unwrap()
                        .iter()
                        .map(|t| t.as_u64().unwrap())
                        .collect();
                    assert_eq!(got_ii, *want_ii, "request {i}: II diverged from offline");
                    assert_eq!(
                        &got_times, want_times,
                        "request {i}: schedule bytes diverged from offline"
                    );
                    // Tracing changes the reply's *decoration*, never its
                    // *result*: traced replies carry a span tree, untraced
                    // replies carry no trace member at all.
                    if id % 11 == 0 {
                        let events = v
                            .get("trace")
                            .and_then(|t| t.get("traceEvents"))
                            .and_then(|e| e.as_array())
                            .unwrap_or_else(|| panic!("request {i}: traced reply lacks span tree"));
                        assert!(!events.is_empty(), "request {i}: empty span tree");
                        traced_schedules += 1;
                    } else {
                        assert!(v.get("trace").is_none(), "request {i}: stray trace member");
                    }
                    ok_schedules += 1;
                }
                Some("metrics") => {
                    let reqs = v
                        .get("metrics")
                        .and_then(|m| m.get("counters"))
                        .and_then(|c| c.get("serve.requests"))
                        .and_then(|r| r.as_u64())
                        .unwrap_or_else(|| {
                            panic!("request {i}: metrics reply lacks serve.requests")
                        });
                    assert!(reqs >= last_requests, "request counter went backwards");
                    last_requests = reqs;
                    ok_metrics += 1;
                }
                Some("suite") => {
                    assert_eq!(
                        v.get("schedule_digest").and_then(|d| d.as_str()),
                        Some(expected_digest.as_str()),
                        "request {i}: suite digest diverged from offline"
                    );
                    assert_eq!(
                        v.get("loops").and_then(|l| l.as_u64()),
                        Some(SUITE_LOOPS as u64)
                    );
                    ok_suites += 1;
                }
                _ => {}
            },
            Some(false) => {
                let kind = v
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(|k| k.as_str())
                    .unwrap_or_else(|| panic!("request {i}: error reply lacks kind: {reply}"))
                    .to_string();
                *kinds.entry(kind.clone()).or_insert(0) += 1;
                if kind == "panicked" {
                    // A panic quarantines the touched machine; a real
                    // client resubmits and carries on. Fingerprints
                    // must come back identical.
                    assert_eq!(submit_until_ok(&mut engine, fig1_line), fig1_fp);
                    assert_eq!(submit_until_ok(&mut engine, cydra_line), cydra_fp);
                }
            }
            None => panic!("request {i}: reply lacks ok field: {reply}"),
        }
    }

    assert_eq!(answered, SOAK_REQUESTS as u64, "every request answered");
    assert!(
        ok_schedules >= 1_000,
        "only {ok_schedules} schedules verified"
    );
    assert!(ok_suites >= 1, "no suite request succeeded");
    assert!(ok_metrics >= 1, "no metrics frame succeeded mid-burst");
    assert!(traced_schedules >= 1, "no traced schedule survived chaos");
    assert!(
        kinds.get("malformed").copied().unwrap_or(0) >= 1,
        "{kinds:?}"
    );
    assert!(
        kinds.get("oversized").copied().unwrap_or(0) >= 1,
        "{kinds:?}"
    );
    assert!(
        kinds.get("panicked").copied().unwrap_or(0) >= 1,
        "{kinds:?}"
    );
    assert!(kinds.get("timeout").copied().unwrap_or(0) >= 1, "{kinds:?}");
    assert!(engine.counter("serve.quarantined") >= 1);
    // No reply kind outside the typed taxonomy leaked out.
    for kind in kinds.keys() {
        assert!(
            [
                "malformed",
                "oversized",
                "unknown_type",
                "bad_request",
                "unknown_fingerprint",
                "parse",
                "invalid_machine",
                "limit_exceeded",
                "degenerate_input",
                "verification_failed",
                "io",
                "budget_exhausted",
                "unschedulable",
                "timeout",
                "overloaded",
                "shutting_down",
                "panicked",
                "rmd_error",
            ]
            .contains(&kind.as_str()),
            "untyped error kind {kind}"
        );
    }
    // Every injected panic tripped the flight recorder, and every dump
    // is a parseable post-mortem whose newest entry is the offender.
    // (The machine resubmission retries above can panic too, so the
    // dump count is a floor, not an exact match.)
    let dumps = engine.take_flight_dumps();
    let panicked = kinds.get("panicked").copied().unwrap_or(0);
    assert!(
        dumps.len() as u64 >= panicked,
        "{panicked} panics but only {} flight dumps",
        dumps.len()
    );
    for dump in &dumps {
        let d: serde_json::Value =
            serde_json::from_str(dump).unwrap_or_else(|e| panic!("dump not JSON ({e}): {dump}"));
        assert_eq!(
            d.get("flight_recorder").and_then(|s| s.as_str()),
            Some("rmd-flight/1"),
            "dump lacks schema tag"
        );
        let reason = d
            .get("reason")
            .and_then(|s| s.as_str())
            .expect("dump carries reason");
        assert!(
            reason.starts_with("panic"),
            "unexpected dump reason {reason:?}"
        );
        let entries = d
            .get("entries")
            .and_then(|e| e.as_array())
            .expect("dump carries entries");
        assert!(!entries.is_empty(), "empty flight dump");
        assert_eq!(
            entries
                .last()
                .unwrap()
                .get("outcome")
                .and_then(|o| o.as_str()),
            Some("panicked"),
            "newest flight entry is not the panicking request"
        );
    }

    // Metrics survive the whole ordeal and still flush as valid JSON.
    let metrics = engine.flush_metrics();
    assert!(serde_json::from_str(&metrics).is_ok(), "{metrics}");
}

/// A reader that raises the process SIGTERM flag once roughly half of
/// the input has been consumed — a signal arriving mid-burst.
struct SigtermMidway<R> {
    inner: R,
    consumed: usize,
    at: usize,
}

impl<R: Read> Read for SigtermMidway<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed += n;
        if self.consumed >= self.at {
            signal::set_shutdown(true);
        }
        Ok(n)
    }
}

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sigterm_mid_burst_drains_cleanly() {
    signal::set_shutdown(false);
    let lines: Vec<String> = (0..1_000)
        .map(|i| format!(r#"{{"type":"status","id":{i}}}"#))
        .collect();
    let input = lines.join("\n") + "\n";
    let total_bytes = input.len();
    let mut engine = ServeEngine::new(EngineConfig::default());
    let buf = SharedBuf::default();
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(buf.clone())));
    let opts = ServeOptions {
        queue_cap: 16,
        ..ServeOptions::default()
    };
    serve_stream(
        BufReader::new(SigtermMidway {
            inner: Cursor::new(input.into_bytes()),
            consumed: 0,
            at: total_bytes / 2,
        }),
        writer,
        &mut engine,
        &opts,
    );
    signal::set_shutdown(false);

    let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    let mut shutting_down = 0u64;
    let mut replies = 0u64;
    for line in out.lines() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
        replies += 1;
        match v.get("ok").and_then(|o| o.as_bool()) {
            Some(true) => ok += 1,
            Some(false) => {
                match v
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(|k| k.as_str())
                {
                    Some("overloaded") => overloaded += 1,
                    Some("shutting_down") => shutting_down += 1,
                    other => panic!("unexpected drain-phase error kind {other:?}: {line}"),
                }
            }
            None => panic!("reply lacks ok: {line}"),
        }
    }
    assert_eq!(
        replies,
        lines.len() as u64,
        "every frame answered exactly once: ok={ok} overloaded={overloaded} shutting_down={shutting_down}"
    );
    assert!(ok >= 1, "nothing was processed before the signal");
    assert!(
        shutting_down >= 1,
        "frames read after SIGTERM must be rejected as shutting_down"
    );
    assert_eq!(engine.counter("serve.shed"), overloaded);
    // The drain flushed usable metrics.
    let metrics = engine.flush_metrics();
    assert!(serde_json::from_str(&metrics).is_ok(), "{metrics}");
}
