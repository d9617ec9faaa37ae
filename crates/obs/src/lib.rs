//! `rmd-obs` — the observability layer of the rmd workspace.
//!
//! The paper's whole evaluation (Tables 4–6, Figure 12) is built from
//! measurements: work units per query function, per-II scheduler effort,
//! reduction-pipeline cost. This crate provides the shared, dependency-free
//! substrate those measurements flow through:
//!
//! * **Spans and events** ([`span`], [`instant`], [`Event`]) — a
//!   lightweight tracing API recording into *thread-local ring buffers*.
//!   Recording is gated by a single process-global flag
//!   ([`set_enabled`] / [`is_enabled`]); with tracing off (the default)
//!   a [`span`] call is one relaxed atomic load and constructs nothing,
//!   so release hot paths pay essentially zero — the same philosophy as
//!   the `debug_assertions`-gated `ProtocolChecker` in `rmd-query`.
//! * **Metrics** ([`MetricRegistry`], [`Histogram`]) — monotonic
//!   counters, gauges, and log2-bucketed histograms whose `merge` is
//!   associative and commutative with the empty registry as identity,
//!   so the `rmd-bench::parallel` work-stealing workers can each record
//!   privately and merge deterministically by index.
//! * **Work units** ([`WorkCounters`], [`FnCounter`], [`QueryFn`]) —
//!   the paper's §8 accounting ("one unit of work handles a single
//!   resource usage or a single non-empty word"), shared by every query
//!   backend and exportable into a [`MetricRegistry`].
//! * **Exporters** ([`export`]) — JSONL event streams and Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`), plus
//!   a compact JSON rendering of a registry.
//!
//! This crate deliberately has **no dependencies** (not even the
//! workspace's serde shim): every other crate, including the innermost
//! query hot paths, can depend on it without cycles or baggage.
//!
//! # Example
//!
//! ```
//! use rmd_obs as obs;
//!
//! obs::set_enabled(true);
//! {
//!     let _g = obs::span_with("reduction", "genset", "pairs", 42);
//!     // ... work ...
//! } // span recorded on drop
//! obs::instant("reduction", "verified");
//! let events = obs::drain_events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].name, "genset"); // recorded when the guard dropped
//! obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
mod metrics;
mod span;
mod work;

pub use metrics::{Histogram, MetricRegistry, HIST_BUCKETS};
pub use span::{
    drain_events, dropped_events, instant, instant_with, is_enabled, now_ns, set_enabled, span,
    span_with, Event, EventKind, SpanGuard,
};
pub use work::{FnCounter, QueryFn, WorkCounters};
