//! rmd-serve — a fault-isolated scheduling daemon.
//!
//! `rmd serve` accepts line-delimited JSON requests over stdin or a
//! unix socket: submit a machine description, schedule a dependence
//! graph or a generated loop suite against its cached reduced
//! description, query status, or shut down. The daemon is built around
//! one invariant: **every successful response is byte-identical to
//! what the offline `rmd` CLI computes on the same inputs**. The
//! robustness layer — deadlines, step budgets, panic quarantine,
//! bounded admission with shedding, graceful drain, seeded chaos —
//! changes *availability* (a request may be refused with a typed
//! error), never *results*.
//!
//! Module map:
//!
//! - [`proto`] — the line protocol: framing, request grammar, replies.
//! - [`engine`] — the request engine: caching, scheduling, isolation.
//! - [`daemon`] — transports, admission queue, drain, metrics flush.
//! - [`error`] — the typed error taxonomy and its JSON rendering.
//! - [`chaos`] — seeded fault injection from the `rand` shim's
//!   splitmix64.
//! - [`signal`] — SIGTERM flag (the workspace's one unsafe block).
//! - [`flight`] — the crash flight recorder (black-box ring + dumps).
//!
//! The cache key of a machine is [`fingerprint`]: rmd-machine's content
//! fingerprint, which `rmd certify` and `rmd lint` key their artifacts
//! by too.

#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod engine;
pub mod error;
pub mod flight;
pub mod proto;
pub mod signal;

pub use chaos::{Chaos, ChaosAction};
pub use daemon::{run, ServeOptions, ServeSummary, SharedWriter};
pub use engine::{EngineConfig, ServeEngine};
pub use error::ServeError;
pub use flight::{FlightEntry, FlightRecorder};
pub use rmd_machine::content_fingerprint as fingerprint;
