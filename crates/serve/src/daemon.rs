//! The daemon loop: framing, admission control, graceful shutdown.
//!
//! One reader thread turns the transport (stdin or a unix-socket
//! connection) into lines and offers them to a *bounded* admission
//! queue — when the queue is full the request is shed immediately with
//! a `429`-style `overloaded` reply carrying a retry-after hint, so a
//! slow scheduler never translates into unbounded daemon memory. The
//! processor thread (the caller) drains the queue through
//! [`ServeEngine::handle_line`] and writes replies in admission order.
//!
//! Shutdown is graceful on SIGTERM, EOF, or a `shutdown` request:
//! everything already admitted is drained and answered, frames read
//! after the flag flips get a typed `shutting_down` reply, and rmd-obs
//! metrics are flushed before the process exits.

use crate::engine::{EngineConfig, ServeEngine};
use crate::error::ServeError;
use crate::signal;
use rmd_core::RmdError;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shareable, lockable reply sink.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Daemon configuration beyond the engine's own knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Serve a unix socket at this path instead of stdin/stdout.
    pub socket: Option<PathBuf>,
    /// Admission-queue depth; requests beyond it are shed.
    pub queue_cap: usize,
    /// Where to write the flushed metrics JSON (stderr when `None`).
    pub metrics_path: Option<PathBuf>,
    /// Emit a metrics-snapshot JSONL line every N requests; `0`
    /// disables. Snapshots are non-destructive ([`ServeEngine::
    /// metrics_snapshot`]) and never pause request processing. With a
    /// `metrics_path` the lines are *appended* (and the final drain
    /// flush appends too, keeping the file JSONL); without one they go
    /// to stderr.
    pub metrics_every: u64,
    /// Log a structured JSONL record to stderr for every request whose
    /// latency reaches this many milliseconds; `0` disables.
    pub slow_ms: u64,
    /// Engine knobs (deadlines, caps, chaos).
    pub engine: EngineConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: None,
            queue_cap: 64,
            metrics_path: None,
            metrics_every: 0,
            slow_ms: 0,
            engine: EngineConfig::default(),
        }
    }
}

/// What a daemon run did, for the CLI's closing stderr line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Frames admitted and answered (success or typed error).
    pub requests: u64,
    /// Successful replies.
    pub ok: u64,
    /// Typed error replies.
    pub errors: u64,
    /// Requests shed by the admission queue.
    pub shed: u64,
    /// Cache entries quarantined after a panicking request.
    pub quarantined: u64,
}

/// Retry-after hint carried by `overloaded` replies, milliseconds.
const RETRY_AFTER_MS: u64 = 50;

/// Poll interval for the shutdown flag while the queue is idle.
const IDLE_POLL: Duration = Duration::from_millis(25);

fn write_line(writer: &SharedWriter, line: &str) -> bool {
    let mut w = match writer.lock() {
        Ok(w) => w,
        // A writer poisoned by a panicking peer thread still holds a
        // usable sink; recover it rather than dying.
        Err(poisoned) => poisoned.into_inner(),
    };
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .and_then(|()| w.flush())
        .is_ok()
}

/// Serves one framed stream until EOF or shutdown. The reader runs on
/// its own thread feeding the bounded admission queue; this thread
/// processes and replies in admission order. Public so the soak test
/// can run the full admission pipeline over in-memory streams.
pub fn serve_stream<R>(
    reader: R,
    writer: SharedWriter,
    engine: &mut ServeEngine,
    opts: &ServeOptions,
) where
    R: BufRead + Send + 'static,
{
    let (tx, rx) = sync_channel::<(String, Instant)>(opts.queue_cap.max(1));
    let shed = Arc::new(AtomicU64::new(0));
    let reader_writer = Arc::clone(&writer);
    let reader_shed = Arc::clone(&shed);
    let reader_thread = std::thread::spawn(move || {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if signal::sigterm_received() {
                // Reject new work during the drain, but keep reading so
                // pipelined clients get an answer for every frame.
                write_line(&reader_writer, &ServeError::ShuttingDown.to_reply(None));
                continue;
            }
            match tx.try_send((line, Instant::now())) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    reader_shed.fetch_add(1, Ordering::Relaxed);
                    let e = ServeError::Overloaded {
                        retry_after_ms: RETRY_AFTER_MS,
                    };
                    if !write_line(&reader_writer, &e.to_reply(None)) {
                        break;
                    }
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
    });

    loop {
        match rx.recv_timeout(IDLE_POLL) {
            Ok((line, at)) => {
                let (reply, shutdown) = engine.handle_line(&line, at);
                after_request(engine, opts);
                if !write_line(&writer, &reply) {
                    break;
                }
                if shutdown {
                    signal::set_shutdown(true);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if signal::sigterm_received() {
                    // Drain everything already admitted, then stop.
                    while let Ok((line, at)) = rx.try_recv() {
                        let (reply, _) = engine.handle_line(&line, at);
                        after_request(engine, opts);
                        write_line(&writer, &reply);
                    }
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    engine.record_shed(shed.load(Ordering::Relaxed));
    // The reader may be blocked on the transport; socket mode unblocks
    // it by shutting the stream down, stdio mode lets process exit
    // reap it. Join only if it already finished.
    if reader_thread.is_finished() {
        let _ = reader_thread.join();
    }
}

/// Per-request observability: publishes any flight-recorder dumps the
/// request tripped, logs it when it was slow, and appends a periodic
/// metrics snapshot every `metrics_every` requests. Runs on the
/// processor thread between requests — no pause, no locks.
fn after_request(engine: &mut ServeEngine, opts: &ServeOptions) {
    for dump in engine.take_flight_dumps() {
        eprintln!("rmd serve: flight {dump}");
    }
    if let Some(record) = engine
        .last_flight_entry()
        .and_then(|entry| slow_record(entry, opts.slow_ms))
    {
        eprintln!("{record}");
    }
    if opts.metrics_every > 0 && engine.counter("serve.requests") % opts.metrics_every == 0 {
        write_metrics(engine, opts);
    }
}

/// The structured JSONL record of a request whose latency reaches the
/// `--slow-ms` threshold; `None` when it stays under it or the
/// threshold is `0` (off).
fn slow_record(entry: &crate::flight::FlightEntry, slow_ms: u64) -> Option<String> {
    use rmd_obs::export::push_json_string;
    if slow_ms == 0 || entry.latency_ns / 1_000_000 < slow_ms {
        return None;
    }
    let mut out = String::with_capacity(128);
    out.push_str("{\"slow_request\":true,\"req\":");
    out.push_str(&entry.req.to_string());
    out.push_str(",\"id\":");
    out.push_str(entry.id.as_deref().unwrap_or("null"));
    out.push_str(",\"kind\":");
    push_json_string(&mut out, entry.kind);
    out.push_str(",\"latency_ms\":");
    out.push_str(&(entry.latency_ns / 1_000_000).to_string());
    out.push_str(",\"threshold_ms\":");
    out.push_str(&slow_ms.to_string());
    out.push_str(",\"outcome\":");
    push_json_string(&mut out, entry.outcome);
    out.push('}');
    Some(out)
}

/// Writes one metrics-snapshot line ([`ServeEngine::metrics_snapshot`],
/// which leaves the live registry untouched) to the metrics path, or to
/// stderr without one. With periodic emission on the file is JSONL
/// history, so the line is appended; otherwise it replaces the file.
fn write_metrics(engine: &ServeEngine, opts: &ServeOptions) {
    let append = opts.metrics_every > 0;
    let json = rmd_obs::export::registry_to_json(&engine.metrics_snapshot());
    let Some(path) = &opts.metrics_path else {
        eprintln!("rmd serve: metrics {json}");
        return;
    };
    let written = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .and_then(|mut f| writeln!(f, "{json}"));
    if let Err(e) = written {
        eprintln!("rmd serve: cannot write metrics to {}: {e}", path.display());
        eprintln!("rmd serve: metrics {json}");
    }
}

fn summary_of(engine: &ServeEngine) -> ServeSummary {
    ServeSummary {
        requests: engine.counter("serve.requests"),
        ok: engine.counter("serve.ok"),
        errors: engine.counter("serve.errors"),
        shed: engine.counter("serve.shed"),
        quarantined: engine.counter("serve.quarantined"),
    }
}

/// Runs the daemon until EOF, SIGTERM, or a `shutdown` request, then
/// drains, flushes metrics, and returns the run summary.
///
/// # Errors
///
/// Only transport setup can fail (binding the unix socket); everything
/// after that is answered in-band with typed error replies.
pub fn run(opts: &ServeOptions) -> Result<ServeSummary, ServeError> {
    signal::install_sigterm_handler();
    signal::set_shutdown(false);
    let mut engine = ServeEngine::new(opts.engine.clone());
    match &opts.socket {
        None => {
            let writer: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
            serve_stream(BufReader::new(io::stdin()), writer, &mut engine, opts);
        }
        Some(path) => serve_socket(path, &mut engine, opts)?,
    }
    // The drain is a black-box moment too: dump the last requests so a
    // post-mortem can see what the daemon was doing when it stopped.
    engine.trip_flight("drain");
    for dump in engine.take_flight_dumps() {
        eprintln!("rmd serve: flight {dump}");
    }
    write_metrics(&engine, opts);
    let s = summary_of(&engine);
    eprintln!(
        "rmd serve: drained; requests={} ok={} errors={} shed={} quarantined={}",
        s.requests, s.ok, s.errors, s.shed, s.quarantined
    );
    Ok(s)
}

fn serve_socket(
    path: &PathBuf,
    engine: &mut ServeEngine,
    opts: &ServeOptions,
) -> Result<(), ServeError> {
    // A stale socket file from a crashed daemon would make bind fail;
    // connect() can't succeed on it either, so replacing it is safe.
    if path.exists() {
        let _ = std::fs::remove_file(path);
    }
    let listener = UnixListener::bind(path)
        .map_err(|e| ServeError::Rmd(RmdError::Io(format!("bind {}: {e}", path.display()))))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Rmd(RmdError::Io(format!("socket setup: {e}"))))?;
    loop {
        if signal::sigterm_received() {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let Ok(()) = stream.set_nonblocking(false) else {
                    continue;
                };
                let (Ok(read_half), Ok(write_half)) = (stream.try_clone(), stream.try_clone())
                else {
                    continue;
                };
                let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
                serve_stream(BufReader::new(read_half), writer, engine, opts);
                // Unblock the reader thread if it is still parked on
                // this connection, then move on (or shut down).
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(IDLE_POLL),
            Err(e) => {
                // Transient accept failures must not kill the daemon.
                eprintln!("rmd serve: accept: {e}");
                std::thread::sleep(IDLE_POLL);
            }
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn run_lines(lines: &str, opts: &ServeOptions) -> (Vec<serde_json::Value>, ServeSummary) {
        let _g = signal::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        signal::set_shutdown(false);
        let mut engine = ServeEngine::new(opts.engine.clone());
        let buf = SharedBuf::default();
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(buf.clone())));
        serve_stream(
            Cursor::new(lines.as_bytes().to_vec()),
            writer,
            &mut engine,
            opts,
        );
        let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let replies = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        signal::set_shutdown(false);
        (replies, summary_of(&engine))
    }

    #[test]
    fn pipelined_frames_answered_in_order() {
        let lines = concat!(
            r#"{"type":"machine","model":"fig1","id":0}"#,
            "\n",
            r#"{"type":"status","id":1}"#,
            "\n",
            r#"{"type":"nope","id":2}"#,
            "\n",
            r#"{"type":"status","id":3}"#,
            "\n",
        );
        let (replies, summary) = run_lines(lines, &ServeOptions::default());
        assert_eq!(replies.len(), 4);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(
                r.get("id").and_then(|v| v.as_u64()),
                Some(i as u64),
                "admission order must be preserved"
            );
        }
        assert_eq!(replies[2].get("ok").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.ok, 3);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn shutdown_request_drains_and_exits() {
        let lines = concat!(
            r#"{"type":"status","id":0}"#,
            "\n",
            r#"{"type":"shutdown","id":1}"#,
            "\n",
        );
        let (replies, _) = run_lines(lines, &ServeOptions::default());
        // Both frames were admitted before the shutdown reply flipped
        // the flag, so both are answered; the stream then ends.
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[1].get("draining").and_then(|v| v.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn eof_ends_the_stream() {
        let (replies, summary) = run_lines("", &ServeOptions::default());
        assert!(replies.is_empty());
        assert_eq!(summary, ServeSummary::default());
    }

    #[test]
    fn metrics_every_appends_parseable_snapshots() {
        let path = std::env::temp_dir().join(format!(
            "rmd-serve-metrics-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let opts = ServeOptions {
            metrics_path: Some(path.clone()),
            metrics_every: 2,
            ..ServeOptions::default()
        };
        let lines = concat!(
            r#"{"type":"status","id":0}"#,
            "\n",
            r#"{"type":"status","id":1}"#,
            "\n",
            r#"{"type":"status","id":2}"#,
            "\n",
            r#"{"type":"status","id":3}"#,
            "\n",
            r#"{"type":"status","id":4}"#,
            "\n",
        );
        let (replies, _) = run_lines(lines, &opts);
        assert_eq!(replies.len(), 5);
        let text = std::fs::read_to_string(&path).expect("metrics file");
        let snaps: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        // 5 requests at every-2 → snapshots after requests 2 and 4.
        assert_eq!(snaps.len(), 2, "{text}");
        let requests = |v: &serde_json::Value| {
            v.get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(|n| n.as_u64())
                .unwrap()
        };
        assert_eq!(requests(&snaps[0]), 2);
        assert_eq!(requests(&snaps[1]), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_record_is_structured_jsonl() {
        // Both requests were admitted 12 ms ago, so they reach a 10 ms
        // threshold; their ids are recorded as the engine echoes them.
        let admitted = Instant::now() - Duration::from_millis(12);
        let mut engine = ServeEngine::new(EngineConfig::default());
        let cases = [
            (r#"{"type":"status","id":42}"#, "42", "status", "ok"),
            (
                r#"{"type":"nope","id":"a \"b\"\n"}"#,
                r#""a \"b\"\n""#,
                "invalid",
                "unknown_type",
            ),
        ];
        for (req, (frame, id, kind, outcome)) in cases.into_iter().enumerate() {
            engine.handle_line(frame, admitted);
            let entry = engine.last_flight_entry().expect("request recorded");
            assert_eq!(slow_record(entry, 0), None, "0 turns the log off");
            assert_eq!(slow_record(entry, 60_000), None, "{frame} is not slow");
            let line = slow_record(entry, 10).expect("12 ms reaches 10 ms");
            let v: serde_json::Value = serde_json::from_str(&line).expect("parses");
            let text = |k: &str| v.get(k).and_then(|s| s.as_str());
            assert_eq!(v.get("slow_request").and_then(|b| b.as_bool()), Some(true));
            assert_eq!(v.get("req").and_then(|n| n.as_u64()), Some(req as u64));
            assert_eq!(v.get("id"), Some(&serde_json::from_str(id).unwrap()));
            assert_eq!(text("kind"), Some(kind), "{line}");
            assert_eq!(
                v.get("latency_ms").and_then(|n| n.as_u64()),
                Some(entry.latency_ns / 1_000_000)
            );
            assert!(entry.latency_ns >= 12_000_000);
            assert_eq!(v.get("threshold_ms").and_then(|n| n.as_u64()), Some(10));
            assert_eq!(text("outcome"), Some(outcome), "{line}");
        }
        // A fixed latency pins the unit: whole milliseconds, truncated.
        let entry = crate::flight::FlightEntry {
            req: 7,
            id: Some("\"a b\"".to_string()),
            kind: "schedule",
            fingerprint: None,
            latency_ns: 12_999_999,
            outcome: "ok",
        };
        assert_eq!(slow_record(&entry, 13), None, "12.99 ms is under 13 ms");
        let line = slow_record(&entry, 12).expect("12.99 ms reaches 12 ms");
        let v: serde_json::Value = serde_json::from_str(&line).expect("parses");
        assert_eq!(v.get("req").and_then(|n| n.as_u64()), Some(7));
        assert_eq!(v.get("id").and_then(|s| s.as_str()), Some("a b"));
        assert_eq!(v.get("latency_ms").and_then(|n| n.as_u64()), Some(12));
        assert_eq!(v.get("threshold_ms").and_then(|n| n.as_u64()), Some(12));
    }
}
