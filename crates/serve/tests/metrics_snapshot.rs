//! Metrics-snapshot consistency: a `metrics` frame observed mid-burst
//! must be an exact, coherent view of the engine at that instant — not
//! an approximation, not a torn read, not dependent on merge order.
//!
//! Two layers are pinned here. Single-engine: interleaved `metrics`
//! frames report exactly the number of requests handled so far, and
//! taking a snapshot never perturbs the live registry. Multi-worker:
//! when several engines publish snapshots concurrently, merging the
//! published registries in *any* order renders byte-identical JSON, and
//! the merged counters equal the per-worker sums at that instant.

use rmd_obs::export::registry_to_json;
use rmd_obs::MetricRegistry;
use rmd_serve::{EngineConfig, ServeEngine};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

fn ok_reply(engine: &mut ServeEngine, line: &str) -> serde_json::Value {
    let (reply, shutdown) = engine.handle_line(line, Instant::now());
    assert!(!shutdown);
    let v: serde_json::Value = serde_json::from_str(&reply).expect("reply is JSON");
    assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{reply}");
    v
}

fn counter(v: &serde_json::Value, name: &str) -> u64 {
    v.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| panic!("metrics reply lacks counter {name}"))
}

#[test]
fn metrics_frame_reports_exact_request_count_mid_burst() {
    let mut engine = ServeEngine::new(EngineConfig::default());
    let mut sent = 0u64;
    for burst in 1..=10u64 {
        for i in 0..9 {
            ok_reply(&mut engine, &format!(r#"{{"type":"status","id":{i}}}"#));
            sent += 1;
        }
        let v = ok_reply(&mut engine, r#"{"type":"metrics"}"#);
        sent += 1;
        // The snapshot counts every request admitted so far, including
        // this metrics frame itself — an exact figure, every time.
        assert_eq!(counter(&v, "serve.requests"), sent, "burst {burst}");
        assert_eq!(counter(&v, "serve.ok"), sent - 1, "burst {burst}");
    }
    // The snapshots themselves never leaked into the live registry:
    // the engine's own counter agrees with the frame count.
    assert_eq!(engine.counter("serve.requests"), sent);
}

#[test]
fn threaded_snapshot_equals_sum_of_worker_registries() {
    const WORKERS: usize = 4;
    const REQUESTS_PER_WORKER: u64 = 200;

    // Each worker drives its own engine and publishes a fresh snapshot
    // after every request; the collector plays the role of a `metrics`
    // frame, merging whatever the workers have published at an instant.
    let slots: Arc<Vec<Mutex<MetricRegistry>>> = Arc::new(
        (0..WORKERS)
            .map(|_| Mutex::new(MetricRegistry::new()))
            .collect(),
    );

    thread::scope(|scope| {
        for w in 0..WORKERS {
            let slots = Arc::clone(&slots);
            scope.spawn(move || {
                let mut engine = ServeEngine::new(EngineConfig::default());
                for i in 0..REQUESTS_PER_WORKER {
                    let (reply, _) = engine
                        .handle_line(&format!(r#"{{"type":"status","id":{i}}}"#), Instant::now());
                    assert!(reply.contains("\"ok\":true"), "{reply}");
                    *slots[w].lock().unwrap() = engine.metrics_snapshot();
                }
            });
        }

        let slots = Arc::clone(&slots);
        scope.spawn(move || {
            for _ in 0..25 {
                // One coherent instant: clone every published snapshot,
                // then reason about the clones only.
                let snaps: Vec<MetricRegistry> =
                    slots.iter().map(|s| s.lock().unwrap().clone()).collect();

                // Merge order must not matter: left-to-right,
                // right-to-left, and pairwise-tree renders identically.
                let mut ltr = MetricRegistry::new();
                for s in &snaps {
                    ltr.merge(s);
                }
                let mut rtl = MetricRegistry::new();
                for s in snaps.iter().rev() {
                    rtl.merge(s);
                }
                let mut pairs: Vec<MetricRegistry> = snaps.clone();
                while pairs.len() > 1 {
                    let b = pairs.pop().unwrap();
                    pairs.last_mut().unwrap().merge(&b);
                }
                let tree = pairs.pop().unwrap();
                let rendered = registry_to_json(&ltr);
                assert_eq!(rendered, registry_to_json(&rtl));
                assert_eq!(rendered, registry_to_json(&tree));

                // The merge IS the sum of the per-worker registries at
                // this instant — counters and histogram counts alike.
                let sum_requests: u64 = snaps.iter().map(|s| s.counter("serve.requests")).sum();
                assert_eq!(ltr.counter("serve.requests"), sum_requests);
                let sum_lat: u64 = snaps
                    .iter()
                    .filter_map(|s| s.histogram("serve.latency_ns"))
                    .map(|h| h.count())
                    .sum();
                let merged_lat = ltr
                    .histogram("serve.latency_ns")
                    .map(|h| h.count())
                    .unwrap_or(0);
                assert_eq!(merged_lat, sum_lat);
                thread::yield_now();
            }
        });
    });

    // After the burst, the merged view accounts for every request sent.
    let mut total = MetricRegistry::new();
    for s in slots.iter() {
        total.merge(&s.lock().unwrap());
    }
    assert_eq!(
        total.counter("serve.requests"),
        WORKERS as u64 * REQUESTS_PER_WORKER
    );
    assert_eq!(
        total.histogram("serve.latency_ns").map(|h| h.count()),
        Some(WORKERS as u64 * REQUESTS_PER_WORKER)
    );
}
