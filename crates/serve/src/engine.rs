//! The request engine: all protocol semantics, no I/O.
//!
//! [`ServeEngine::handle_line`] takes one frame and returns one reply
//! line — the daemon loop in [`crate::daemon`] only does framing,
//! admission control, and shutdown around it, and the bench load
//! driver and the soak tests drive it directly. Every request runs
//! under [`std::panic::catch_unwind`]: a panicking request yields a
//! typed `panicked` reply and *quarantines* the cached machine entry
//! it touched, so no partially mutated state survives into later
//! requests. Results are byte-identical to offline scheduling on the
//! same inputs — caching, eviction, and degradation change
//! availability and latency, never schedules.

use crate::chaos::{Chaos, ChaosAction};
use crate::error::ServeError;
use crate::fingerprint::fingerprint;
use crate::flight::{FlightEntry, FlightRecorder};
use crate::proto::{parse_frame, EdgeSpec, Frame, MachineSource, ReplyBuilder, Request};
use rmd_core::{
    reduce_with_fallback, validate_limits, FallbackEvent, Objective, ReduceOptions, RmdError,
};
use rmd_machine::{mdl, models, MachineDescription};
use rmd_obs::{Event, EventKind, MetricRegistry};
use rmd_query::{ModuloMaskCache, WordLayout};
use rmd_sched::{
    mii::mii, DepGraph, ImsConfig, ImsError, IterativeModuloScheduler, NodeId, Representation,
    SchedScratch,
};
use serde_json::Tape;
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ServeEngine`].
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Deadline applied when a request names none; `0` disables.
    pub default_deadline_ms: u64,
    /// Deterministic fault injection, when enabled.
    pub chaos: Option<Chaos>,
    /// When set, a machine is admitted only if some `*.json` file in
    /// this directory is an `rmd certify` certificate vouching for its
    /// content fingerprint; others are refused with an `uncertified`
    /// reply. `None` (the default) disables the gate.
    pub cert_dir: Option<std::path::PathBuf>,
}

/// Whether any `*.json` certificate in `dir` vouches for fingerprint
/// `fp`. Unreadable directories or files simply fail to vouch — the
/// gate's failure mode is refusal, never a panic.
fn certificate_vouches(dir: &std::path::Path, fp: &str) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "json") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if rmd_certify::Certificate::vouches_for(&text, fp) {
                    return true;
                }
            }
        }
    }
    false
}

/// Maximum machines cached at once (LRU beyond that).
const MACHINE_CAP: usize = 8;

/// Loops scheduled between deadline checks in a suite request.
const SUITE_DEADLINE_CHUNK: usize = 32;

/// Worker-thread cap for suite requests; a larger `threads` field is
/// clamped to it (and the reply echoes the clamped value).
const MAX_SUITE_THREADS: usize = 8;

/// Entry cap for each cached machine's [`ModuloMaskCache`].
const MASK_CACHE_CAP: usize = 64;

/// Token-tape capacity kept between frames: 4,096 tokens of 24 bytes,
/// about 800 schedule edges. A frame that needed more frees the rest
/// once decoded, so one large frame does not stay resident.
const TAPE_TOKENS_KEPT: usize = 4096;

/// A cached machine: the description to schedule against plus the
/// shared (LRU-bounded) mask cache and reusable scheduling scratch for
/// it.
struct MachineEntry {
    original: MachineDescription,
    /// The verified reduced machine, or the original after a fallback.
    sched_machine: MachineDescription,
    layout: WordLayout,
    mask_cache: ModuloMaskCache,
    /// Scheduling buffers reused across this machine's requests: after
    /// the first schedule of a given shape, repeat requests allocate
    /// nothing on the scheduling path.
    scratch: SchedScratch,
    fallback: Option<&'static str>,
    last_used: u64,
}

/// The deadline attached to one request.
#[derive(Clone, Copy, Debug)]
struct Deadline {
    at: Option<Instant>,
    ms: u64,
}

impl Deadline {
    fn none() -> Self {
        Deadline { at: None, ms: 0 }
    }

    fn check(&self) -> Result<(), ServeError> {
        match self.at {
            Some(at) if Instant::now() > at => Err(ServeError::Timeout {
                deadline_ms: self.ms,
            }),
            _ => Ok(()),
        }
    }
}

/// The fault-isolated request engine. One instance per daemon; it is
/// driven from a single thread and fans suite work out through the
/// `rmd-bench` parallel engine internally.
pub struct ServeEngine {
    cfg: EngineConfig,
    machines: HashMap<String, MachineEntry>,
    tick: u64,
    req_index: u64,
    metrics: MetricRegistry,
    started: Instant,
    draining: bool,
    /// Fingerprint the currently executing request resolved; read back
    /// for quarantine when the request panics.
    touched: Option<String>,
    flight: FlightRecorder,
    /// Dependence graph reused across `schedule` requests (node and
    /// edge arenas keep their capacity; see [`DepGraph::clear`]).
    graph_scratch: DepGraph,
    /// Token tape every frame is decoded into, reused across requests.
    tape: Tape,
}

impl ServeEngine {
    /// A fresh engine.
    pub fn new(cfg: EngineConfig) -> Self {
        ServeEngine {
            cfg,
            machines: HashMap::new(),
            tick: 0,
            req_index: 0,
            metrics: MetricRegistry::new(),
            started: Instant::now(),
            draining: false,
            touched: None,
            flight: FlightRecorder::default(),
            graph_scratch: DepGraph::new(),
            tape: Tape::new(),
        }
    }

    /// The engine's metric registry (counters, latency histograms).
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// Counter accessor for summaries.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Marks the engine as draining: subsequent requests are answered
    /// with `shutting_down` (the daemon still drains what was admitted
    /// before the flag flipped — it calls this only for frames read
    /// *after* shutdown began).
    pub fn set_draining(&mut self, v: bool) {
        self.draining = v;
    }

    /// Records `n` requests shed by the daemon's admission queue.
    pub fn record_shed(&mut self, n: u64) {
        if n > 0 {
            self.metrics.inc("serve.shed", n);
        }
    }

    /// Handles one frame. Returns the reply line (no newline) and
    /// whether the request asked the daemon to begin a graceful drain.
    ///
    /// Never panics: request execution runs under `catch_unwind`, and a
    /// panic quarantines whatever cached machine the request touched.
    ///
    /// When the frame carries `trace: true`, rmd-obs recording is
    /// enabled for the duration of this request and the reply gains a
    /// `trace` member holding its span tree (parse → cache lookup →
    /// reduction → schedule → reply) as an inline Chrome-trace slice.
    /// With tracing off — the default — the reply bytes are identical
    /// to the offline CLI path.
    pub fn handle_line(&mut self, line: &str, admitted_at: Instant) -> (String, bool) {
        let idx = self.req_index;
        self.req_index += 1;
        self.metrics.inc("serve.requests", 1);

        let action = match self.cfg.chaos {
            Some(c) => c.action(idx),
            None => ChaosAction::None,
        };
        let corrupted;
        let line = if action == ChaosAction::CorruptFrame {
            self.metrics.inc("serve.chaos.corrupted", 1);
            corrupted = Chaos::corrupt(line);
            &corrupted
        } else {
            line
        };

        let parse_start = rmd_obs::now_ns();
        let frame = parse_frame(line, &mut self.tape);
        let parse_dur = rmd_obs::now_ns().saturating_sub(parse_start);
        self.tape.shrink_to(TAPE_TOKENS_KEPT);
        let id = frame.id.clone();
        let kind = request_kind(&frame);
        let tracing_was = if frame.trace {
            let was = rmd_obs::is_enabled();
            rmd_obs::set_enabled(true);
            rmd_obs::drain_events(); // discard this thread's stale events
            Some(was)
        } else {
            None
        };
        let trace = frame.trace;

        let quarantined_before = self.metrics.counter("serve.quarantined");
        self.touched = None;
        let (reply, shutdown) = self.handle_frame(frame, admitted_at, action, idx);
        let outcome = match &reply {
            Ok(_) => "ok".to_string(),
            Err(e) => e.kind().to_string(),
        };
        let panicked = matches!(&reply, Err(ServeError::Panicked { .. }));
        let reply = match reply {
            Ok(r) => {
                self.metrics.inc("serve.ok", 1);
                r
            }
            Err(e) => {
                self.metrics.inc("serve.errors", 1);
                self.metrics.inc(&format!("serve.errors.{}", e.kind()), 1);
                e.to_reply(id.as_deref())
            }
        };
        let elapsed = admitted_at.elapsed().as_nanos() as u64;
        self.metrics.observe("serve.latency_ns", elapsed);

        // Flight recorder: every request leaves a summary, and a panic
        // trips a black-box dump that includes the offender itself.
        self.flight.record(FlightEntry {
            req: idx,
            id: id.map(Cow::into_owned),
            kind,
            fingerprint: self.touched.clone(),
            latency_ns: elapsed,
            outcome,
        });
        if panicked {
            let reason = if self.metrics.counter("serve.quarantined") > quarantined_before {
                "panic+quarantine"
            } else {
                "panic"
            };
            self.flight.trip(reason);
        }

        let reply = if let Some(was) = tracing_was {
            let mut events = rmd_obs::drain_events();
            events.insert(
                0,
                Event {
                    cat: "serve",
                    name: "parse",
                    kind: EventKind::Span,
                    start_ns: parse_start,
                    dur_ns: parse_dur,
                    tid: 0,
                    arg: Some(("req", idx)),
                },
            );
            events.push(Event {
                cat: "serve",
                name: "reply",
                kind: EventKind::Instant,
                start_ns: rmd_obs::now_ns(),
                dur_ns: 0,
                tid: 0,
                arg: Some(("req", idx)),
            });
            rmd_obs::set_enabled(was);
            splice_trace(reply, &events)
        } else {
            debug_assert!(!trace);
            reply
        };
        (reply, shutdown)
    }

    fn handle_frame(
        &mut self,
        frame: Frame<'_>,
        admitted_at: Instant,
        action: ChaosAction,
        idx: u64,
    ) -> (Result<String, ServeError>, bool) {
        if self.draining {
            return (Err(ServeError::ShuttingDown), false);
        }
        let req = match frame.body {
            Ok(r) => r,
            Err(e) => return (Err(e), false),
        };
        let deadline_ms = frame.deadline_ms.unwrap_or(self.cfg.default_deadline_ms);
        let deadline = if deadline_ms == 0 {
            Deadline::none()
        } else {
            Deadline {
                at: Some(admitted_at + Duration::from_millis(deadline_ms)),
                ms: deadline_ms,
            }
        };
        // Time spent queued counts against the deadline.
        if let Err(e) = deadline.check() {
            return (Err(e), false);
        }
        let shutdown = matches!(req, Request::Shutdown);
        let id = frame.id.as_deref();
        let latency_histogram = match &req {
            Request::Machine { .. } => "serve.latency_ns.machine",
            Request::Schedule { .. } => "serve.latency_ns.schedule",
            Request::Suite { .. } => "serve.latency_ns.suite",
            Request::Status => "serve.latency_ns.status",
            Request::Metrics => "serve.latency_ns.metrics",
            Request::Shutdown => "serve.latency_ns.shutdown",
        };
        self.touched = None;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.execute(req, id, deadline, action, idx)
        }));
        self.metrics
            .observe(latency_histogram, t0.elapsed().as_nanos() as u64);
        match outcome {
            Ok(r) => (r, shutdown),
            Err(payload) => {
                // Quarantine: drop the entry this request touched so a
                // partial mutation can never serve a later request. The
                // fingerprint stays readable in `touched` so the flight
                // recorder can attribute the incident.
                if let Some(fp) = self.touched.clone() {
                    if self.machines.remove(&fp).is_some() {
                        self.metrics.inc("serve.quarantined", 1);
                    }
                }
                let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                (Err(ServeError::Panicked { detail }), false)
            }
        }
    }

    fn execute(
        &mut self,
        req: Request<'_>,
        id: Option<&str>,
        deadline: Deadline,
        action: ChaosAction,
        idx: u64,
    ) -> Result<String, ServeError> {
        // Chaos slow handler: burn wall-clock before doing the work so
        // deadline enforcement has something to catch.
        if let ChaosAction::SlowMs(ms) = action {
            self.metrics.inc("serve.chaos.slowed", 1);
            std::thread::sleep(Duration::from_millis(ms));
            deadline.check()?;
        }
        match req {
            Request::Machine {
                source,
                strict,
                max_steps,
            } => self.exec_machine(id, source, strict, max_steps, deadline, action, idx),
            Request::Schedule {
                fingerprint,
                nodes,
                edges,
                budget_ratio,
                max_ii,
            } => self.exec_schedule(
                id,
                &fingerprint,
                &nodes,
                &edges,
                budget_ratio,
                max_ii,
                deadline,
                action,
                idx,
            ),
            Request::Suite {
                fingerprint,
                loops,
                seed,
                threads,
            } => self.exec_suite(
                id,
                &fingerprint,
                loops,
                seed,
                threads,
                deadline,
                action,
                idx,
            ),
            Request::Status => Ok(self.exec_status(id)),
            Request::Metrics => Ok(ReplyBuilder::ok(id, "metrics")
                .raw(
                    "metrics",
                    &rmd_obs::export::registry_to_json(&self.metrics_snapshot()),
                )
                .finish()),
            Request::Shutdown => Ok(ReplyBuilder::ok(id, "shutdown")
                .bool("draining", true)
                .finish()),
        }
    }

    fn chaos_panic_point(&mut self, action: ChaosAction) {
        if action == ChaosAction::Panic {
            self.metrics.inc("serve.chaos.panicked", 1);
            panic!("chaos: injected mid-request panic");
        }
    }

    fn load_source(&self, source: &MachineSource<'_>) -> Result<MachineDescription, ServeError> {
        let m = match source {
            MachineSource::Model(name) => {
                models::by_name(name).ok_or_else(|| ServeError::BadRequest {
                    detail: format!("unknown built-in model {name:?}"),
                })?
            }
            MachineSource::Mdl(src) => {
                let (m, _) =
                    mdl::parse_machine(src).map_err(|e| ServeError::Rmd(RmdError::Parse(e)))?;
                m
            }
        };
        validate_limits(&m).map_err(ServeError::Rmd)?;
        Ok(m)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_machine(
        &mut self,
        id: Option<&str>,
        source: MachineSource<'_>,
        strict: bool,
        max_steps: Option<u64>,
        deadline: Deadline,
        action: ChaosAction,
        idx: u64,
    ) -> Result<String, ServeError> {
        let m = self.load_source(&source)?;
        let lookup_span = rmd_obs::span_with("serve", "cache_lookup", "req", idx);
        let fp = fingerprint(&m);
        self.touched = Some(fp.clone());
        drop(lookup_span);
        self.chaos_panic_point(action);
        if let Some(entry) = self.machines.get_mut(&fp) {
            self.tick += 1;
            entry.last_used = self.tick;
            let reply = ReplyBuilder::ok(id, "machine")
                .str("fingerprint", &fp)
                .bool("cached", true)
                .bool("fallback", entry.fallback.is_some())
                .num("resources", entry.original.num_resources() as u64)
                .num(
                    "reduced_resources",
                    entry.sched_machine.num_resources() as u64,
                )
                .num("operations", entry.original.num_operations() as u64)
                .finish();
            return Ok(reply);
        }
        // Certificate gate: an uncached machine is admitted only when a
        // certificate on disk vouches for its content fingerprint.
        // (Cache hits above were certified at admission.)
        if let Some(dir) = &self.cfg.cert_dir {
            if !certificate_vouches(dir, &fp) {
                return Err(ServeError::Uncertified { fingerprint: fp });
            }
        }
        deadline.check()?;
        let layout = WordLayout::widest(64, m.num_resources());
        let options = ReduceOptions { max_steps };
        let reduce_span = rmd_obs::span_with("serve", "reduction", "req", idx);
        let red = reduce_with_fallback(&m, Objective::KCycleWord { k: layout.k }, &options);
        drop(reduce_span);
        if strict {
            if let Some(ev) = &red.fallback {
                return Err(ServeError::Rmd(ev.error().clone()));
            }
        }
        deadline.check()?;
        let fallback = red.fallback.as_ref().map(|ev| match ev {
            FallbackEvent::ReductionFailed(_) => "reduction_failed",
            FallbackEvent::VerificationFailed(_) => "verification_failed",
            _ => "fallback",
        });
        let sched_machine = red.machine;
        let sched_layout = WordLayout::widest(64, sched_machine.num_resources());
        let mask_cache = ModuloMaskCache::with_cap(&sched_machine, sched_layout, MASK_CACHE_CAP);
        self.tick += 1;
        let entry = MachineEntry {
            original: m,
            sched_machine,
            layout: sched_layout,
            mask_cache,
            scratch: SchedScratch::new(),
            fallback,
            last_used: self.tick,
        };
        // Bound the machine cache itself: evict the least recently
        // used entry (mask caches and all) beyond the cap.
        while self.machines.len() >= MACHINE_CAP {
            if let Some(lru) = self
                .machines
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.machines.remove(&lru);
                self.metrics.inc("serve.machine_evictions", 1);
            } else {
                break;
            }
        }
        let reply = ReplyBuilder::ok(id, "machine")
            .str("fingerprint", &fp)
            .bool("cached", false)
            .bool("fallback", entry.fallback.is_some())
            .num("resources", entry.original.num_resources() as u64)
            .num(
                "reduced_resources",
                entry.sched_machine.num_resources() as u64,
            )
            .num("operations", entry.original.num_operations() as u64)
            .finish();
        self.machines.insert(fp, entry);
        self.metrics
            .set_gauge("serve.machines_cached", self.machines.len() as u64);
        Ok(reply)
    }

    fn lookup(&mut self, fp: &str) -> Result<(), ServeError> {
        if self.machines.contains_key(fp) {
            self.tick += 1;
            let tick = self.tick;
            if let Some(e) = self.machines.get_mut(fp) {
                e.last_used = tick;
            }
            self.touched = Some(fp.to_string());
            Ok(())
        } else {
            Err(ServeError::UnknownFingerprint {
                got: fp.to_string(),
            })
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_schedule(
        &mut self,
        id: Option<&str>,
        fp: &str,
        nodes: &[Cow<'_, str>],
        edges: &[EdgeSpec],
        budget_ratio: Option<f64>,
        max_ii: Option<u32>,
        deadline: Deadline,
        action: ChaosAction,
        idx: u64,
    ) -> Result<String, ServeError> {
        {
            let _g = rmd_obs::span_with("serve", "cache_lookup", "req", idx);
            self.lookup(fp)?;
        }
        self.chaos_panic_point(action);
        let defaults = ImsConfig::default();
        let config = ImsConfig {
            budget_ratio: budget_ratio.unwrap_or(defaults.budget_ratio),
            max_ii: max_ii.unwrap_or(defaults.max_ii),
        };
        // The request graph is built in a reused arena taken off the
        // engine; it is put back after a successful reply. Early error
        // returns drop it (losing only retained capacity, never
        // correctness) — the next request just starts from a fresh one.
        let mut g = std::mem::take(&mut self.graph_scratch);
        let entry = self.machines.get_mut(fp).expect("looked up above");
        if let Err(e) = build_graph_into(&mut g, &entry.original, nodes, edges) {
            self.graph_scratch = g;
            return Err(e);
        }
        deadline.check()?;
        let lower = {
            let _g = rmd_obs::span_with("sched", "mii", "nodes", g.num_nodes() as u64);
            mii(&g, &entry.original)
        };
        let ims = IterativeModuloScheduler::new(config);
        let sched_span = rmd_obs::span_with("serve", "schedule", "req", idx);
        let r = ims
            .schedule_with_mii_cached_scratch(
                &g,
                &entry.sched_machine,
                Representation::Bitvec(entry.layout),
                lower,
                &mut entry.mask_cache,
                &mut entry.scratch,
            )
            .map_err(|e| match e {
                ImsError::NoFeasibleIi { max_ii } => {
                    ServeError::Rmd(RmdError::Unschedulable { max_ii })
                }
                other => ServeError::BadRequest {
                    detail: format!("scheduler error: {other}"),
                },
            })?;
        drop(sched_span);
        deadline.check()?;
        let reply = ReplyBuilder::ok(id, "schedule")
            .str("fingerprint", fp)
            .num("ii", u64::from(r.ii))
            .num("mii", u64::from(r.mii))
            .num("decisions", r.decisions)
            .num("attempts", u64::from(r.attempts))
            .nums("times", r.times.iter().map(|&t| u64::from(t)))
            .finish();
        entry.scratch.recycle(r);
        self.graph_scratch = g;
        Ok(reply)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_suite(
        &mut self,
        id: Option<&str>,
        fp: &str,
        loops: usize,
        seed: u64,
        threads: Option<usize>,
        deadline: Deadline,
        action: ChaosAction,
        idx: u64,
    ) -> Result<String, ServeError> {
        {
            let _g = rmd_obs::span_with("serve", "cache_lookup", "req", idx);
            self.lookup(fp)?;
        }
        self.chaos_panic_point(action);
        let threads = threads.unwrap_or(1).clamp(1, MAX_SUITE_THREADS);
        let entry = self.machines.get(fp).expect("looked up above");
        // The generator vocabulary must resolve against this machine;
        // a missing op is a client error, not a panic.
        let ops = rmd_loops::OpSet::try_for_cydra_subset(&entry.original).map_err(|name| {
            ServeError::BadRequest {
                detail: format!("machine lacks op {name:?} required by the suite generator"),
            }
        })?;
        let suite = rmd_loops::suite(&ops, loops, seed);
        deadline.check()?;
        // Dispatch in chunks through the existing parallel engine so
        // long suites still honor their deadline between chunks.
        let _suite_span = rmd_obs::span_with("serve", "schedule", "req", idx);
        let mut runs = Vec::with_capacity(suite.len());
        for chunk in suite.chunks(SUITE_DEADLINE_CHUNK) {
            runs.extend(rmd_bench::run_suite_runs(
                &entry.sched_machine,
                &entry.original,
                chunk,
                Representation::Bitvec(entry.layout),
                ImsConfig::default().budget_ratio,
                threads,
            ));
            deadline.check()?;
        }
        let at_mii = runs.iter().filter(|r| r.ii == r.mii).count();
        let sum_ii: u64 = runs.iter().map(|r| u64::from(r.ii)).sum();
        let digest = suite_digest(&runs);
        Ok(ReplyBuilder::ok(id, "suite")
            .str("fingerprint", fp)
            .num("loops", runs.len() as u64)
            .num("at_mii", at_mii as u64)
            .num("sum_ii", sum_ii)
            .num("threads", threads as u64)
            .str("schedule_digest", &digest)
            .finish())
    }

    fn exec_status(&mut self, id: Option<&str>) -> String {
        ReplyBuilder::ok(id, "status")
            .num("requests", self.metrics.counter("serve.requests"))
            .num("ok", self.metrics.counter("serve.ok"))
            .num("errors", self.metrics.counter("serve.errors"))
            .num("shed", self.metrics.counter("serve.shed"))
            .num("quarantined", self.metrics.counter("serve.quarantined"))
            .num("machines_cached", self.machines.len() as u64)
            .num("uptime_ms", self.started.elapsed().as_millis() as u64)
            .bool("draining", self.draining)
            .finish()
    }

    /// A point-in-time copy of the full metric registry: the engine's
    /// own counters/gauges/histograms plus every cached machine's
    /// mask-cache statistics. The live registry is untouched, so
    /// snapshots are repeatable — taking one every N requests (the
    /// daemon's `--metrics-every`) never double-counts the additively
    /// exported mask-cache counters, and a snapshot equals the merge of
    /// the per-source registries at that instant.
    pub fn metrics_snapshot(&self) -> MetricRegistry {
        let mut snap = self.metrics.clone();
        for entry in self.machines.values() {
            entry.mask_cache.export_to(&mut snap, "serve.mask_cache");
        }
        snap.set_gauge("serve.machines_cached", self.machines.len() as u64);
        snap
    }

    /// Exports per-machine mask-cache statistics into the registry and
    /// returns the full registry as compact JSON — called once by the
    /// daemon when it drains.
    pub fn flush_metrics(&mut self) -> String {
        self.metrics = self.metrics_snapshot();
        rmd_obs::export::registry_to_json(&self.metrics)
    }

    /// Queues a flight-recorder dump for `reason` ("drain", …); the
    /// transport layer publishes it via [`take_flight_dumps`].
    ///
    /// [`take_flight_dumps`]: ServeEngine::take_flight_dumps
    pub fn trip_flight(&mut self, reason: &str) {
        self.flight.trip(reason);
    }

    /// Takes every flight-recorder dump tripped since the last call
    /// (each one self-describing JSON), oldest first.
    pub fn take_flight_dumps(&mut self) -> Vec<String> {
        self.flight.take_dumps()
    }

    /// The most recent flight-recorder entry, if any — the request the
    /// engine just answered. The daemon's `--slow-ms` log reads this.
    pub fn last_flight_entry(&self) -> Option<&FlightEntry> {
        self.flight.entries().last()
    }
}

/// The request kind recorded in the flight ring — the protocol type
/// name, or `"invalid"` when the body never parsed.
fn request_kind(frame: &Frame) -> &'static str {
    match &frame.body {
        Ok(Request::Machine { .. }) => "machine",
        Ok(Request::Schedule { .. }) => "schedule",
        Ok(Request::Suite { .. }) => "suite",
        Ok(Request::Status) => "status",
        Ok(Request::Metrics) => "metrics",
        Ok(Request::Shutdown) => "shutdown",
        Err(_) => "invalid",
    }
}

/// Splices a Chrome-trace slice into a finished reply line as its
/// `trace` member. The exporter's inter-token newlines are stripped so
/// the reply stays one line — the framing invariant of the protocol —
/// which is safe because string values escape `\n`.
fn splice_trace(reply: String, events: &[Event]) -> String {
    let chrome = rmd_obs::export::events_to_chrome_trace(events).replace('\n', "");
    let mut out = reply;
    debug_assert!(out.ends_with('}'));
    out.pop();
    out.push_str(",\"trace\":");
    out.push_str(&chrome);
    out.push('}');
    out
}

/// Builds the dependence graph of a `schedule` request into a reused
/// arena (cleared first), resolving node names against the submitted
/// machine. Node `i` of the request is node `i` of the graph.
fn build_graph_into(
    g: &mut DepGraph,
    machine: &MachineDescription,
    nodes: &[Cow<'_, str>],
    edges: &[EdgeSpec],
) -> Result<(), ServeError> {
    g.clear();
    for name in nodes {
        let op = machine
            .op_by_name(name)
            .ok_or_else(|| ServeError::BadRequest {
                detail: format!("machine has no operation named {name:?}"),
            })?;
        g.add_node(op);
    }
    for e in edges {
        let (from, to) = (NodeId(e.from as u32), NodeId(e.to as u32));
        g.add_edge(from, to, e.delay, e.distance, e.kind);
    }
    Ok(())
}

/// FNV-1a digest over every loop's achieved II and issue times — a
/// compact, order-sensitive schedule identity: a suite reply's
/// `schedule_digest`, and the offline reference the soak test compares
/// daemon replies against.
pub fn suite_digest(runs: &[rmd_bench::LoopRun]) -> String {
    let mut h = rmd_machine::fnv::Fnv64::new();
    for r in runs {
        h.write(&u64::from(r.ii).to_le_bytes());
        for &t in &r.times {
            h.write(&u64::from(t).to_le_bytes());
        }
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ServeEngine {
        ServeEngine::new(EngineConfig::default())
    }

    fn ok_reply(engine: &mut ServeEngine, line: &str) -> serde_json::Value {
        let (reply, _) = engine.handle_line(line, Instant::now());
        let v = serde_json::from_str(&reply).expect("reply is JSON");
        assert_eq!(
            v.get("ok").and_then(serde_json::Value::as_bool),
            Some(true),
            "{reply}"
        );
        v
    }

    fn submit_fig1(engine: &mut ServeEngine) -> String {
        let v = ok_reply(engine, r#"{"type":"machine","model":"fig1"}"#);
        v.get("fingerprint")
            .and_then(|f| f.as_str())
            .unwrap()
            .to_string()
    }

    #[test]
    fn machine_then_schedule_roundtrip() {
        let mut e = engine();
        let fp = submit_fig1(&mut e);
        let line = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A","B"],"edges":[[0,1,2,0]],"id":1}}"#
        );
        let v = ok_reply(&mut e, &line);
        let times = v.get("times").and_then(|t| t.as_array()).unwrap();
        assert_eq!(times.len(), 2);
        assert!(v.get("ii").and_then(|i| i.as_u64()).unwrap() >= 1);
        assert_eq!(v.get("id").and_then(|i| i.as_u64()), Some(1));
    }

    #[test]
    fn numeric_ids_are_echoed_verbatim() {
        let mut e = engine();
        for id in [
            "7",
            "-0",
            "1.0",
            "1e2",
            "1e300",
            "12345678901234567890",
            "9007199254740993",
            "1e999",
        ] {
            let (reply, _) =
                e.handle_line(&format!(r#"{{"type":"status","id":{id}}}"#), Instant::now());
            assert!(
                reply.starts_with(&format!(r#"{{"ok":true,"id":{id},"type":"status","#)),
                "{reply}"
            );
            assert!(serde_json::from_str(&reply).is_ok(), "{reply}");
            let (reply, _) =
                e.handle_line(&format!(r#"{{"type":"nope","id":{id}}}"#), Instant::now());
            assert!(
                reply.starts_with(&format!(r#"{{"ok":false,"id":{id},"error":"#)),
                "{reply}"
            );
        }
        // String ids are decoded and re-encoded, as before.
        let (reply, _) = e.handle_line(r#"{"type":"status","id":"a\u0041\/"}"#, Instant::now());
        assert!(reply.starts_with(r#"{"ok":true,"id":"aA/","#), "{reply}");
    }

    #[test]
    fn schedule_matches_offline_library_result() {
        let mut e = engine();
        let fp = submit_fig1(&mut e);
        let line = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A","B","B"],"edges":[[0,1,2,0],[1,2,1,0]]}}"#
        );
        let v = ok_reply(&mut e, &line);

        // Offline: same rule the engine documents — reduce with
        // fallback under the widest layout, MII from the original,
        // schedule on the reduced machine.
        let m = models::example_machine();
        let layout = WordLayout::widest(64, m.num_resources());
        let red = reduce_with_fallback(
            &m,
            Objective::KCycleWord { k: layout.k },
            &ReduceOptions::default(),
        );
        let sched_layout = WordLayout::widest(64, red.machine.num_resources());
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        let mut g = DepGraph::new();
        let n0 = g.add_node(a);
        let n1 = g.add_node(b);
        let n2 = g.add_node(b);
        g.add_edge(n0, n1, 2, 0, rmd_sched::DepKind::Flow);
        g.add_edge(n1, n2, 1, 0, rmd_sched::DepKind::Flow);
        let lower = mii(&g, &m);
        let r = IterativeModuloScheduler::new(ImsConfig::default())
            .schedule_with_mii(
                &g,
                &red.machine,
                Representation::Bitvec(sched_layout),
                lower,
            )
            .expect("offline schedule");
        let got: Vec<u64> = v
            .get("times")
            .and_then(|t| t.as_array())
            .unwrap()
            .iter()
            .map(|t| t.as_u64().unwrap())
            .collect();
        let want: Vec<u64> = r.times.iter().map(|&t| u64::from(t)).collect();
        assert_eq!(got, want, "daemon schedule must be byte-identical");
        assert_eq!(v.get("ii").and_then(|i| i.as_u64()), Some(u64::from(r.ii)));
    }

    #[test]
    fn positive_zero_distance_self_loop_is_unschedulable() {
        let mut e = engine();
        let fp = submit_fig1(&mut e);
        let line = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A"],"edges":[[0,0,1,0]],"id":3}}"#
        );
        let (reply, _) = e.handle_line(&line, Instant::now());
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            v.get("ok").and_then(|o| o.as_bool()),
            Some(false),
            "{reply}"
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("unschedulable"),
            "{reply}"
        );
        // The engine keeps serving.
        let line = format!(r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A"]}}"#);
        ok_reply(&mut e, &line);
    }

    #[test]
    fn start_times_past_u32_are_unschedulable() {
        // Four fadds chained by delay i32::MAX: the last would start
        // past u32::MAX, so no start time in the reply could be right.
        let mut e = engine();
        let v = ok_reply(&mut e, r#"{"type":"machine","model":"cydra5-subset"}"#);
        let fp = v.get("fingerprint").and_then(|f| f.as_str()).unwrap();
        let d = i32::MAX;
        let line = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["fadd","fadd","fadd","fadd"],"edges":[[0,1,{d},0],[1,2,{d},0],[2,3,{d},0]],"id":4}}"#
        );
        let (reply, _) = e.handle_line(&line, Instant::now());
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            v.get("ok").and_then(|o| o.as_bool()),
            Some(false),
            "{reply}"
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("unschedulable"),
            "{reply}"
        );
    }

    #[test]
    fn unknown_fingerprint_is_typed() {
        let mut e = engine();
        let (reply, _) = e.handle_line(
            r#"{"type":"schedule","fingerprint":"rmd-ffff","nodes":["A"]}"#,
            Instant::now(),
        );
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("unknown_fingerprint")
        );
        // The engine keeps serving.
        submit_fig1(&mut e);
    }

    #[test]
    fn expired_deadline_yields_timeout() {
        let mut e = engine();
        let admitted = Instant::now() - Duration::from_millis(100);
        let (reply, _) = e.handle_line(
            r#"{"type":"machine","model":"fig1","deadline_ms":5}"#,
            admitted,
        );
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("timeout"),
            "{reply}"
        );
    }

    #[test]
    fn strict_budget_exhaustion_is_typed() {
        let mut e = engine();
        let (reply, _) = e.handle_line(
            r#"{"type":"machine","model":"cydra5-subset","strict":true,"max_steps":1}"#,
            Instant::now(),
        );
        let v = serde_json::from_str(&reply).unwrap();
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str())
            .unwrap();
        assert_eq!(kind, "budget_exhausted", "{reply}");
        // Same request without strict falls back and succeeds.
        let v = ok_reply(
            &mut e,
            r#"{"type":"machine","model":"cydra5-subset","max_steps":1}"#,
        );
        assert_eq!(v.get("fallback").and_then(|f| f.as_bool()), Some(true));
    }

    #[test]
    fn status_and_shutdown() {
        let mut e = engine();
        submit_fig1(&mut e);
        let v = ok_reply(&mut e, r#"{"type":"status"}"#);
        assert_eq!(v.get("machines_cached").and_then(|m| m.as_u64()), Some(1));
        let (reply, shutdown) = e.handle_line(r#"{"type":"shutdown"}"#, Instant::now());
        assert!(shutdown);
        assert!(reply.contains("\"draining\":true"));
        e.set_draining(true);
        let (reply, _) = e.handle_line(r#"{"type":"status"}"#, Instant::now());
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("shutting_down")
        );
    }

    #[test]
    fn suite_runs_and_is_deterministic() {
        // 80 loops span three deadline chunks; every thread count must
        // give the reply of one offline serial run over the same loops.
        let mut e = engine();
        let v = ok_reply(&mut e, r#"{"type":"machine","model":"cydra5-subset"}"#);
        let fp = v
            .get("fingerprint")
            .and_then(|f| f.as_str())
            .unwrap()
            .to_string();
        let mut replies = Vec::new();
        for (threads, clamped) in [(1u64, 1u64), (2, 2), (8, 8), (16, 8)] {
            let line = format!(
                r#"{{"type":"suite","fingerprint":"{fp}","loops":80,"seed":7,"threads":{threads}}}"#
            );
            let v = ok_reply(&mut e, &line);
            let echoed = v.get("threads").and_then(|t| t.as_u64());
            assert_eq!(echoed, Some(clamped), "{v:?}");
            assert_eq!(v.get("loops").and_then(|l| l.as_u64()), Some(80));
            replies.push(v);
        }
        for v in &replies[1..] {
            for k in ["schedule_digest", "at_mii", "sum_ii"] {
                assert!(v.get(k).is_some(), "{k} missing");
                assert_eq!(v.get(k), replies[0].get(k), "{k}");
            }
        }
        let entry = &e.machines[&fp];
        let ops = rmd_loops::OpSet::for_cydra_subset(&entry.original);
        let offline = rmd_bench::run_suite_runs(
            &entry.sched_machine,
            &entry.original,
            &rmd_loops::suite(&ops, 80, 7),
            Representation::Bitvec(entry.layout),
            ImsConfig::default().budget_ratio,
            1,
        );
        assert_eq!(
            replies[0].get("schedule_digest").and_then(|d| d.as_str()),
            Some(suite_digest(&offline).as_str())
        );
    }

    #[test]
    fn machine_cache_is_bounded() {
        let mut e = ServeEngine::new(EngineConfig::default());
        for i in 0..=MACHINE_CAP {
            ok_reply(
                &mut e,
                &format!(
                    r#"{{"type":"machine","mdl":"machine \"m{i}\" {{ resources {{ r; }} op a {{ use r @ {i}; }} }}"}}"#
                ),
            );
        }
        assert_eq!(e.counter("serve.machine_evictions"), 1);
        let v = ok_reply(&mut e, r#"{"type":"status"}"#);
        assert_eq!(
            v.get("machines_cached").and_then(|m| m.as_u64()),
            Some(MACHINE_CAP as u64)
        );
    }

    #[test]
    fn chaos_panic_quarantines_touched_machine() {
        // Find a seed whose action stream is: clean machine submit, a
        // panic on the second request, then clean requests after.
        let seed = (0u64..10_000)
            .find(|&s| {
                let c = Chaos::new(s);
                c.action(0) == ChaosAction::None
                    && c.action(1) == ChaosAction::Panic
                    && c.action(2) == ChaosAction::None
                    && c.action(3) == ChaosAction::None
            })
            .expect("a suitable chaos seed exists");
        let mut e = ServeEngine::new(EngineConfig {
            chaos: Some(Chaos::new(seed)),
            ..EngineConfig::default()
        });
        let fp = submit_fig1(&mut e);
        let line = format!(r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A"],"id":1}}"#);
        let (reply, _) = e.handle_line(&line, Instant::now());
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("panicked"),
            "{reply}"
        );
        assert_eq!(e.counter("serve.quarantined"), 1);
        // The machine the panicking request touched is quarantined...
        let (reply, _) = e.handle_line(&line, Instant::now());
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("unknown_fingerprint"),
            "{reply}"
        );
        // ...and resubmitting it heals the daemon in place.
        let fp2 = submit_fig1(&mut e);
        assert_eq!(fp, fp2);
    }

    #[test]
    fn metrics_frame_snapshots_are_repeatable() {
        let mut e = engine();
        let fp = submit_fig1(&mut e);
        let line = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A","B"],"edges":[[0,1,2,0]]}}"#
        );
        ok_reply(&mut e, &line);
        let a = ok_reply(&mut e, r#"{"type":"metrics","id":9}"#);
        let b = ok_reply(&mut e, r#"{"type":"metrics","id":10}"#);
        let counter = |v: &serde_json::Value, name: &str| {
            v.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(serde_json::Value::as_u64)
        };
        // The engine's own counters advance by exactly the metrics
        // request in between...
        assert_eq!(counter(&a, "serve.requests"), Some(3));
        assert_eq!(counter(&b, "serve.requests"), Some(4));
        // ...while the additively exported mask-cache statistics do NOT
        // double-count across snapshots: no schedule ran in between, so
        // the numbers are identical.
        assert_eq!(
            counter(&a, "serve.mask_cache.misses"),
            counter(&b, "serve.mask_cache.misses")
        );
        assert!(counter(&a, "serve.mask_cache.misses").is_some());
        // The latency histogram is exposed with derived quantiles.
        let hist = a
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("serve.latency_ns"))
            .expect("latency histogram");
        assert!(hist
            .get("p50")
            .and_then(serde_json::Value::as_u64)
            .is_some());
        assert!(hist
            .get("p99")
            .and_then(serde_json::Value::as_u64)
            .is_some());
    }

    #[test]
    fn traced_request_carries_span_tree_untraced_stays_byte_identical() {
        let mut e = engine();
        let fp = submit_fig1(&mut e);
        let plain = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A","B"],"edges":[[0,1,2,0]],"id":1}}"#
        );
        let traced = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A","B"],"edges":[[0,1,2,0]],"id":1,"trace":true}}"#
        );
        let (before, _) = e.handle_line(&plain, Instant::now());
        let (with_trace, _) = e.handle_line(&traced, Instant::now());
        let (after, _) = e.handle_line(&plain, Instant::now());
        // Tracing off: byte-identical replies before and after the
        // traced request — enabling tracing for one request leaves no
        // residue.
        assert_eq!(before, after);
        assert!(!before.contains("\"trace\""));
        // The traced reply is one line and carries the span tree.
        assert!(!with_trace.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&with_trace).expect("traced reply parses");
        assert_eq!(v.get("ok").and_then(serde_json::Value::as_bool), Some(true));
        let events = v
            .get("trace")
            .and_then(|t| t.get("traceEvents"))
            .and_then(serde_json::Value::as_array)
            .expect("trace.traceEvents");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|ev| ev.get("name").and_then(serde_json::Value::as_str))
            .collect();
        assert_eq!(names.first(), Some(&"parse"), "{names:?}");
        assert_eq!(names.last(), Some(&"reply"), "{names:?}");
        let at = |name: &str| {
            let at = names.iter().position(|&n| n == name);
            at.unwrap_or_else(|| panic!("no {name} span: {names:?}"))
        };
        assert!(at("cache_lookup") < at("mii"), "{names:?}");
        assert!(at("mii") < at("schedule"), "{names:?}");
        // Every other reply field matches the untraced reply.
        let p: serde_json::Value = serde_json::from_str(&before).unwrap();
        assert_eq!(v.get("times"), p.get("times"));
        assert_eq!(v.get("ii"), p.get("ii"));
    }

    #[test]
    fn panic_trips_a_parseable_flight_dump() {
        let seed = (0u64..10_000)
            .find(|&s| {
                let c = Chaos::new(s);
                c.action(0) == ChaosAction::None && c.action(1) == ChaosAction::Panic
            })
            .expect("a suitable chaos seed exists");
        let mut e = ServeEngine::new(EngineConfig {
            chaos: Some(Chaos::new(seed)),
            ..EngineConfig::default()
        });
        let fp = submit_fig1(&mut e);
        assert!(e.take_flight_dumps().is_empty());
        let line = format!(r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["A"],"id":42}}"#);
        let (reply, _) = e.handle_line(&line, Instant::now());
        assert!(reply.contains("\"panicked\""), "{reply}");
        let dumps = e.take_flight_dumps();
        assert_eq!(dumps.len(), 1);
        let v: serde_json::Value = serde_json::from_str(&dumps[0]).expect("dump parses");
        assert_eq!(
            v.get("flight_recorder").and_then(serde_json::Value::as_str),
            Some(crate::flight::FLIGHT_SCHEMA)
        );
        assert_eq!(
            v.get("reason").and_then(serde_json::Value::as_str),
            Some("panic+quarantine")
        );
        let entries = v
            .get("entries")
            .and_then(serde_json::Value::as_array)
            .unwrap();
        let last = entries.last().unwrap();
        assert_eq!(last.get("id").and_then(serde_json::Value::as_u64), Some(42));
        assert_eq!(
            last.get("outcome").and_then(serde_json::Value::as_str),
            Some("panicked")
        );
        assert_eq!(
            last.get("fingerprint").and_then(serde_json::Value::as_str),
            Some(fp.as_str()),
            "the dump attributes the quarantined machine"
        );
        // Drain-style manual trips work too and queue separately.
        e.trip_flight("drain");
        assert_eq!(e.take_flight_dumps().len(), 1);
    }

    #[test]
    fn certificate_gate_refuses_unvouched_machines() {
        let dir = std::env::temp_dir().join(format!(
            "rmd-serve-certgate-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp cert dir");

        let mut e = ServeEngine::new(EngineConfig {
            cert_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        // No certificates on disk: refusal with the typed reply.
        let (reply, _) = e.handle_line(
            r#"{"type":"machine","model":"fig1","id":7}"#,
            Instant::now(),
        );
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("uncertified"),
            "{reply}"
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_u64()),
            Some(105)
        );

        // Certify fig1 for real and drop the certificate in place: the
        // same request is now admitted, and stays admitted from cache.
        let cert = rmd_certify::certify_machine(
            &models::example_machine(),
            "fig1",
            &rmd_certify::CertifyOptions::default(),
        )
        .expect("fig1 certifies");
        std::fs::write(dir.join("fig1.json"), cert.render_json()).expect("write cert");
        let v = ok_reply(&mut e, r#"{"type":"machine","model":"fig1"}"#);
        assert_eq!(v.get("cached").and_then(|c| c.as_bool()), Some(false));
        let v = ok_reply(&mut e, r#"{"type":"machine","model":"fig1"}"#);
        assert_eq!(v.get("cached").and_then(|c| c.as_bool()), Some(true));

        // A machine the certificate does not vouch for is still refused.
        let (reply, _) = e.handle_line(r#"{"type":"machine","model":"mips"}"#, Instant::now());
        assert!(reply.contains("\"uncertified\""), "{reply}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
