//! Span/event recording into thread-local ring buffers, behind one
//! process-global enable flag.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled tracing must cost (almost) nothing.** [`is_enabled`] is
//!    a single relaxed atomic load; when it returns `false`, [`span`]
//!    returns an inert guard without touching the thread-local, without
//!    reading the clock, and without allocating. The query hot path
//!    (`check` at millions of calls per compilation) keeps its current
//!    performance; `tests` pin the zero-allocation property.
//! 2. **Recording must not allocate per event.** Event payloads are
//!    `Copy` — names and categories are `&'static str`, arguments a
//!    single `(&'static str, u64)` pair — and land in a pre-grown
//!    `Vec` used as a ring: once full, the oldest events are
//!    overwritten and counted in [`dropped_events`].
//! 3. **No cross-thread coordination on the hot path.** Each thread
//!    records privately, and a drain ([`drain_events`]) is explicit
//!    and per-thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Per-thread ring capacity (events), enough for a full reduction +
/// profile run without drops.
const RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Is event recording currently enabled?
///
/// One relaxed atomic load — cheap enough for the innermost query loop.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables event recording.
///
/// Off by default. Spans created while disabled stay inert even if
/// recording is enabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-wide tracing epoch (the
/// first call to any timing function in this module).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What an [`Event`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A duration: `start_ns..start_ns + dur_ns`.
    Span,
    /// A point in time; `dur_ns` is zero.
    Instant,
}

impl EventKind {
    /// Stable lowercase tag used by the exporters.
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        }
    }
}

/// One recorded trace event. `Copy` by construction: names are static,
/// the optional argument is a single key/value pair.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Category (the subsystem: `"reduction"`, `"query"`, `"sched"`, …).
    pub cat: &'static str,
    /// Event name (e.g. a reduction phase or `"attempt"`).
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Start time, nanoseconds since the tracing epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// Recording thread (small sequential id, not the OS tid).
    pub tid: u32,
    /// Optional single argument, e.g. `("ii", 7)`.
    pub arg: Option<(&'static str, u64)>,
}

struct Recorder {
    tid: u32,
    buf: Vec<Event>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    dropped: u64,
}

impl Recorder {
    fn push(&mut self, e: Event) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        // buf[next..] holds the oldest events once the ring has wrapped.
        let mut out = self.buf.split_off(self.next);
        out.append(&mut self.buf);
        self.next = 0;
        out
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        buf: Vec::new(),
        next: 0,
        dropped: 0,
    });
}

fn record(
    cat: &'static str,
    name: &'static str,
    kind: EventKind,
    start_ns: u64,
    dur_ns: u64,
    arg: Option<(&'static str, u64)>,
) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let tid = r.tid;
        r.push(Event {
            cat,
            name,
            kind,
            start_ns,
            dur_ns,
            tid,
            arg,
        });
    });
}

/// Drains and returns this thread's recorded events, oldest first.
///
/// Also resets the dropped-event count. Each thread drains its own
/// buffer; a multi-threaded harness collects per-worker drains and
/// concatenates them by worker index for determinism.
pub fn drain_events() -> Vec<Event> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.dropped = 0;
        r.drain()
    })
}

/// Events overwritten on this thread since the last drain (ring full).
pub fn dropped_events() -> u64 {
    RECORDER.with(|r| r.borrow().dropped)
}

/// Records an instant event if tracing is enabled.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if is_enabled() {
        record(cat, name, EventKind::Instant, now_ns(), 0, None);
    }
}

/// Records an instant event with one argument if tracing is enabled.
#[inline]
pub fn instant_with(cat: &'static str, name: &'static str, key: &'static str, value: u64) {
    if is_enabled() {
        record(
            cat,
            name,
            EventKind::Instant,
            now_ns(),
            0,
            Some((key, value)),
        );
    }
}

/// Everything a live span needs to record itself on drop; `Copy`, so an
/// inert guard is just `None`.
#[derive(Clone, Copy)]
struct Live {
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    arg: Option<(&'static str, u64)>,
}

/// RAII guard returned by [`span`]; records a [`EventKind::Span`] event
/// covering its lifetime when dropped. Inert (no clock read, no
/// recording) when tracing was disabled at creation.
#[must_use = "a span records on drop; binding it to _ discards it immediately"]
pub struct SpanGuard {
    live: Option<Live>,
}

impl SpanGuard {
    /// Attaches (or replaces) the span's single argument. No-op on an
    /// inert guard.
    pub fn set_arg(&mut self, key: &'static str, value: u64) {
        if let Some(l) = &mut self.live {
            l.arg = Some((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(l) = self.live {
            let dur = now_ns().saturating_sub(l.start_ns);
            record(l.cat, l.name, EventKind::Span, l.start_ns, dur, l.arg);
        }
    }
}

/// Opens a span; the returned guard records the elapsed duration when
/// dropped. When tracing is disabled this is one atomic load and an
/// inert guard — no clock read, no allocation.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if is_enabled() {
        SpanGuard {
            live: Some(Live {
                cat,
                name,
                start_ns: now_ns(),
                arg: None,
            }),
        }
    } else {
        SpanGuard { live: None }
    }
}

/// Like [`span`], with one argument attached up front.
#[inline]
pub fn span_with(
    cat: &'static str,
    name: &'static str,
    key: &'static str,
    value: u64,
) -> SpanGuard {
    let mut g = span(cat, name);
    g.set_arg(key, value);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests in this module: they all toggle the global
    /// flag and share the thread-local buffer.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap();
        drain_events();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        drain_events();
        r
    }

    #[test]
    fn spans_record_on_drop_in_order() {
        with_tracing(|| {
            {
                let _outer = span("t", "outer");
                let _inner = span_with("t", "inner", "k", 3);
            }
            instant("t", "mark");
            let ev = drain_events();
            // Inner drops before outer; the instant comes last.
            assert_eq!(
                ev.iter().map(|e| e.name).collect::<Vec<_>>(),
                vec!["inner", "outer", "mark"]
            );
            assert_eq!(ev[0].arg, Some(("k", 3)));
            assert_eq!(ev[0].kind, EventKind::Span);
            assert_eq!(ev[2].kind, EventKind::Instant);
            assert_eq!(ev[2].dur_ns, 0);
            // The outer span opened first and covers the inner one.
            assert!(ev[1].start_ns <= ev[0].start_ns);
            assert!(ev[1].dur_ns >= ev[0].dur_ns);
        });
    }

    #[test]
    fn disabled_spans_record_nothing_even_if_enabled_later() {
        with_tracing(|| {
            set_enabled(false);
            let g = span("t", "ghost");
            set_enabled(true);
            drop(g);
            assert!(drain_events().is_empty());
        });
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        with_tracing(|| {
            for _ in 0..RING_CAPACITY + 2 {
                instant("t", "e");
            }
            assert_eq!(dropped_events(), 2);
            let ev = drain_events();
            assert_eq!(ev.len(), RING_CAPACITY);
            assert_eq!(dropped_events(), 0);
            // Oldest-first: timestamps are non-decreasing.
            for w in ev.windows(2) {
                assert!(w[0].start_ns <= w[1].start_ns);
            }
        });
    }

    #[test]
    fn set_arg_replaces_the_argument() {
        with_tracing(|| {
            let mut g = span_with("t", "s", "a", 1);
            g.set_arg("b", 2);
            drop(g);
            assert_eq!(drain_events()[0].arg, Some(("b", 2)));
        });
    }
}
