//! Allocation guard for the serve hot path.
//!
//! A warm, untraced `schedule` frame — 14 nodes and 20 edges on
//! `cydra5-subset` — goes through [`ServeEngine::handle_line`] with a
//! counting allocator installed. The frame is decoded into the engine's
//! reused token tape with its strings borrowed from the line, the graph
//! is rebuilt in the engine's reused arena, and IMS runs on a warm
//! `SchedScratch`, so what is left is four buffers: the node and edge
//! lists, MII's positive-circuit probe (the frame has carried back
//! edges, so its RecMII has no closed form), and the reply line, sized
//! once. The flight
//! recorder copies the id and fingerprint into the strings of the entry
//! it overwrites, and the engine resolves the machine into a reused
//! buffer. Decoding into a `serde_json::Value` tree and formatting each
//! number into its own `String` made 110 allocations; per-request
//! bookkeeping strings and a reply that outgrew its buffer made 10. The
//! bound is the measured count, so any new allocation on the path
//! fails it. An unschedulable frame must leave the engine as warm as a
//! scheduled one: the graph arena and the scratch's vectors survive
//! every error return.
//!
//! The same allocator tracks live bytes, to check that the reused tape
//! does not keep the buffer of one large frame for the daemon's life.

use rmd_serve::{EngineConfig, ServeEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// Wraps the system allocator and counts every allocation call, and
/// the bytes held, of the calling thread.
struct CountingAlloc;

thread_local! {
    /// Per-thread, so allocations by concurrently running tests cannot
    /// leak into a measured window. `const`-initialised with no
    /// destructor: touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_allocation(grown_by: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    count_bytes(grown_by);
}

fn count_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only a thread-local `Cell` and never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `body` and returns how many allocations it performed on this
/// thread.
fn allocations_during(body: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs `body` and returns how many more bytes this thread holds after
/// it than before.
fn bytes_retained_by(body: impl FnOnce()) -> i64 {
    let before = LIVE_BYTES.with(Cell::get);
    body();
    LIVE_BYTES.with(Cell::get) - before
}

/// Allocations one warm schedule frame may make: exactly what it makes.
const MAX_ALLOCATIONS: u64 = 4;

/// Bytes a large frame may leave held once a small frame follows it:
/// room for the 96 KiB of tape the engine keeps between frames. A tape
/// that kept its capacity would hold the frame's 12 MiB.
const MAX_RETAINED_BYTES: i64 = 256 << 10;

/// A 14-node, 20-edge loop body over `cydra5-subset`'s operations: a
/// load–compute–store chain, cross edges, and two loop-carried
/// recurrences, written the way a client would send it.
fn schedule_frame(fp: &str) -> String {
    let nodes = [
        "load.w.0",
        "load.w.1",
        "fmul",
        "fadd",
        "fmul",
        "fadd",
        "iadd",
        "aadd.0",
        "aadd.1",
        "fmul.d",
        "fadd",
        "store.w.0",
        "store.w.1",
        "brtop",
    ];
    let mut edges: Vec<String> = (0..13).map(|i| format!("[{i},{},2,0]", i + 1)).collect();
    edges.extend(
        [
            "[0,3,20,0,\"flow\"]",
            "[1,4,20,0]",
            "[2,5,7,0,\"anti\"]",
            "[5,2,1,1]",
            "[7,0,1,1,\"memory\"]",
            "[8,12,3,0,\"output\"]",
            "[6,13,1,0]",
        ]
        .map(String::from),
    );
    let quoted: Vec<String> = nodes.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        r#"{{"type":"schedule","id":17,"fingerprint":"{fp}","nodes":[{}],"edges":[{}]}}"#,
        quoted.join(","),
        edges.join(",")
    )
}

/// An engine with `cydra5-subset` cached and every reused buffer warmed
/// by [`schedule_frame`], and that frame with its first reply. The
/// flight recorder's ring is full, so a measured request overwrites an
/// entry instead of growing it.
fn warm_engine() -> (ServeEngine, String, String) {
    assert!(
        !rmd_obs::is_enabled(),
        "tracing must be off for the allocation guard"
    );
    let mut engine = ServeEngine::new(EngineConfig::default());
    let (reply, _) = engine.handle_line(
        r#"{"type":"machine","model":"cydra5-subset"}"#,
        Instant::now(),
    );
    let v = serde_json::from_str(&reply).expect("machine reply is JSON");
    let fp = v
        .get("fingerprint")
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("no fingerprint: {reply}"))
        .to_string();
    let frame = schedule_frame(&fp);
    let (first, _) = engine.handle_line(&frame, Instant::now());
    assert!(first.starts_with("{\"ok\":true,\"id\":17,"), "{first}");
    for _ in 0..100 {
        engine.handle_line(&frame, Instant::now());
    }
    (engine, frame, first)
}

/// Sends `frame` once more and checks its reply and allocation count.
fn assert_warm(engine: &mut ServeEngine, frame: &str, first: &str) {
    let mut reply = String::new();
    let allocs = allocations_during(|| {
        reply = engine.handle_line(frame, Instant::now()).0;
    });
    assert_eq!(reply, first, "a warm request changed the reply");
    assert!(
        allocs <= MAX_ALLOCATIONS,
        "warm schedule frame made {allocs} allocations (bound {MAX_ALLOCATIONS})"
    );
}

#[test]
fn warm_schedule_frame_allocates_a_bounded_handful() {
    let (mut engine, frame, first) = warm_engine();
    assert_warm(&mut engine, &frame, &first);
}

#[test]
fn an_unschedulable_frame_leaves_the_engine_warm() {
    let (mut engine, frame, first) = warm_engine();
    // One decision per attempt runs out at every II from the MII (29)
    // to 40, so the frame fails after its attempts.
    let unschedulable = frame.replacen('{', r#"{"budget_ratio":0.01,"max_ii":40,"#, 1);
    let (reply, _) = engine.handle_line(&unschedulable, Instant::now());
    assert!(reply.contains(r#""kind":"unschedulable""#), "{reply}");
    assert_warm(&mut engine, &frame, &first);
}

#[test]
fn a_large_frame_does_not_stay_resident() {
    let mut engine = ServeEngine::new(EngineConfig::default());
    let small = r#"{"type":"status","id":1}"#;
    // Warm the metrics, and fill the flight recorder's ring.
    for _ in 0..100 {
        engine.handle_line(small, Instant::now());
    }
    // 450,001 one-digit elements: a 900 KB frame of as many tokens.
    let pad = "0,".repeat(450_000);
    let large = format!(r#"{{"type":"status","id":1,"pad":[{pad}0]}}"#);
    let retained = bytes_retained_by(|| {
        let (reply, _) = engine.handle_line(&large, Instant::now());
        assert!(reply.starts_with(r#"{"ok":true,"id":1,"#), "{reply}");
        engine.handle_line(small, Instant::now());
    });
    assert!(
        retained <= MAX_RETAINED_BYTES,
        "a large frame left {retained} bytes held (bound {MAX_RETAINED_BYTES})"
    );
}
