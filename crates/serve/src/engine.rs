//! The request engine: all protocol semantics, no I/O.
//!
//! [`ServeEngine::handle_line`] takes one frame and returns one reply
//! line — the daemon loop in [`crate::daemon`] only does framing,
//! admission control, and shutdown around it, and perfbench's serve
//! phase and the soak tests drive it directly. Every request runs
//! under [`std::panic::catch_unwind`]: a panicking request yields a
//! typed `panicked` reply and *quarantines* the cached machine entry
//! it touched, so no partially mutated state survives into later
//! requests. Results are byte-identical to offline scheduling on the
//! same inputs — caching, eviction, and degradation change
//! availability and latency, never schedules.

use crate::chaos::{Chaos, ChaosAction};
use crate::error::ServeError;
use crate::flight::{FlightEntry, FlightRecorder};
use crate::proto::{parse_frame, EdgeSpec, Frame, MachineSource, ReplyBuilder, Request};
use rmd_core::{reduce_with_fallback, validate_limits, Objective, ReduceOptions, RmdError};
use rmd_machine::fnv::Fnv64;
use rmd_machine::{content_fingerprint, mdl, models, MachineDescription};
use rmd_obs::{Event, EventKind, Histogram, MetricRegistry};
use rmd_query::{ModuloMaskCache, WordLayout};
use rmd_sched::{
    mii::mii, DepGraph, ImsConfig, ImsError, ImsResult, IterativeModuloScheduler, NodeId,
    Representation, SchedScratch,
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

/// Entry cap for each cached machine's [`ModuloMaskCache`].
const MASK_CACHE_CAP: usize = 64;

/// Token-tape capacity kept between frames: 4,096 tokens of 24 bytes,
/// about 800 schedule edges. A frame that needed more frees the rest
/// once decoded, so one large frame does not stay resident.
const TAPE_TOKENS_KEPT: usize = 4096;

/// A cached machine: the description to schedule against plus the
/// shared (LRU-bounded) mask cache and reusable scheduling scratch for
/// it, which its schedule and suite frames share.
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
    /// The reduction failed and `sched_machine` is the original.
    fallback: bool,
    last_used: u64,
}

impl MachineEntry {
    /// Schedules `g`, the one scheduling path of schedule and suite
    /// frames: the MII from the original description, then IMS on the
    /// scheduling machine through the entry's mask cache and scratch. A
    /// graph with no feasible II is `unschedulable`.
    fn schedule(
        &mut self,
        ims: &IterativeModuloScheduler,
        g: &DepGraph,
        idx: u64,
    ) -> Result<ImsResult, ServeError> {
        let lower = {
            let _g = rmd_obs::span_with("sched", "mii", "nodes", g.num_nodes() as u64);
            mii(g, &self.original)
        };
        let _span = rmd_obs::span_with("serve", "schedule", "req", idx);
        ims.schedule_with_mii_cached_scratch(
            g,
            &self.sched_machine,
            Representation::Bitvec(self.layout),
            lower,
            &mut self.mask_cache,
            &mut self.scratch,
        )
        .map_err(|ImsError::NoFeasibleIi { max_ii }| {
            ServeError::Rmd(RmdError::Unschedulable { max_ii })
        })
    }
}

/// Each request kind's latency histogram, indexed as
/// [`ServeEngine::handle_frame`] numbers the kinds.
const KIND_LATENCIES: [&str; 6] = [
    "serve.latency_ns.machine",
    "serve.latency_ns.schedule",
    "serve.latency_ns.suite",
    "serve.latency_ns.status",
    "serve.latency_ns.metrics",
    "serve.latency_ns.shutdown",
];

/// The counters and histograms every request updates, kept in fields
/// so that a request looks up no metric names.
/// [`ServeEngine::metrics_snapshot`] and [`ServeEngine::counter`] read
/// them under their names.
#[derive(Default)]
struct RequestTally {
    requests: u64,
    ok: u64,
    quarantined: u64,
    latency: Histogram,
    by_kind: [Histogram; KIND_LATENCIES.len()],
}

impl RequestTally {
    const COUNTERS: [&'static str; 3] = ["serve.requests", "serve.ok", "serve.quarantined"];

    fn counters(&self) -> [u64; 3] {
        [self.requests, self.ok, self.quarantined]
    }

    /// Counter `name`, if the tally keeps it.
    fn counter(&self, name: &str) -> Option<u64> {
        let i = Self::COUNTERS.iter().position(|&c| c == name)?;
        Some(self.counters()[i])
    }

    /// Adds the tally to `reg` under its names, leaving out what
    /// recorded nothing, as a registry holds no name never recorded.
    fn fold_into(&self, reg: &mut MetricRegistry) {
        for (name, v) in Self::COUNTERS.into_iter().zip(self.counters()) {
            if v > 0 {
                reg.inc(name, v);
            }
        }
        let histograms = std::iter::once(("serve.latency_ns", &self.latency))
            .chain(KIND_LATENCIES.into_iter().zip(&self.by_kind));
        for (name, h) in histograms.filter(|(_, h)| !h.is_empty()) {
            reg.merge_histogram(name, h);
        }
    }
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

/// The fault-isolated request engine. One instance per daemon, driven
/// from a single thread; schedule and suite frames both schedule on
/// the cached machine's warm mask cache and scratch.
pub struct ServeEngine {
    cfg: EngineConfig,
    machines: HashMap<String, MachineEntry>,
    tick: u64,
    req_index: u64,
    tally: RequestTally,
    metrics: MetricRegistry,
    started: Instant,
    /// Fingerprint the currently executing request resolved, empty when
    /// none; read back for quarantine when the request panics. One
    /// buffer for the engine's life, so resolving allocates nothing.
    touched: String,
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
            tally: RequestTally::default(),
            metrics: MetricRegistry::new(),
            started: Instant::now(),
            touched: String::new(),
            flight: FlightRecorder::default(),
            graph_scratch: DepGraph::new(),
            tape: Tape::new(),
        }
    }

    /// Counter accessor for summaries.
    pub fn counter(&self, name: &str) -> u64 {
        self.tally
            .counter(name)
            .unwrap_or_else(|| self.metrics.counter(name))
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
        self.tally.requests += 1;

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
        let Frame {
            id,
            deadline_ms,
            trace,
            body,
        } = parse_frame(line, &mut self.tape);
        // Only a traced reply carries the parse span, so only it reads
        // the clock at the parse's end.
        let traced = trace.then(|| {
            let parse_end = rmd_obs::now_ns();
            let was = rmd_obs::is_enabled();
            rmd_obs::set_enabled(true);
            rmd_obs::drain_events(); // discard this thread's stale events
            (was, parse_end)
        });
        self.tape.shrink_to(TAPE_TOKENS_KEPT);
        let kind = request_kind(&body);

        let quarantined_before = self.tally.quarantined;
        self.touched.clear();
        let (reply, shutdown, started) =
            self.handle_frame(body, deadline_ms, id.as_deref(), admitted_at, action, idx);
        let panicked = matches!(&reply, Err(ServeError::Panicked { .. }));
        let (reply, outcome) = match reply {
            Ok(r) => {
                self.tally.ok += 1;
                (r, "ok")
            }
            Err(e) => {
                self.metrics.inc("serve.errors", 1);
                self.metrics.inc(e.counter_name(), 1);
                (e.to_reply(id.as_deref()), e.kind())
            }
        };
        // One end reading serves both latency histograms.
        let done = Instant::now();
        let elapsed = done.saturating_duration_since(admitted_at).as_nanos() as u64;
        self.tally.latency.record(elapsed);
        if let Some((kind_index, t0)) = started {
            let ns = done.saturating_duration_since(t0).as_nanos() as u64;
            self.tally.by_kind[kind_index].record(ns);
        }

        // Flight recorder: every request leaves a summary, and a panic
        // trips a black-box dump that includes the offender itself.
        let touched = (!self.touched.is_empty()).then_some(self.touched.as_str());
        self.flight
            .record(idx, id.as_deref(), kind, touched, elapsed, outcome);
        if panicked {
            let reason = if self.tally.quarantined > quarantined_before {
                "panic+quarantine"
            } else {
                "panic"
            };
            self.flight.trip(reason);
        }

        let reply = if let Some((was, parse_end)) = traced {
            let mut events = rmd_obs::drain_events();
            events.insert(
                0,
                Event {
                    cat: "serve",
                    name: "parse",
                    kind: EventKind::Span,
                    start_ns: parse_start,
                    dur_ns: parse_end.saturating_sub(parse_start),
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
            reply
        };
        (reply, shutdown)
    }

    /// Runs one decoded request under `catch_unwind`. Returns the reply,
    /// whether it asked for a drain, and, when it got as far as
    /// executing, its kind's index in [`KIND_LATENCIES`] with the
    /// instant execution began.
    fn handle_frame(
        &mut self,
        body: Result<Request<'_>, ServeError>,
        deadline_ms: Option<u64>,
        id: Option<&str>,
        admitted_at: Instant,
        action: ChaosAction,
        idx: u64,
    ) -> (Result<String, ServeError>, bool, Option<(usize, Instant)>) {
        let req = match body {
            Ok(r) => r,
            Err(e) => return (Err(e), false, None),
        };
        let deadline_ms = deadline_ms.unwrap_or(self.cfg.default_deadline_ms);
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
            return (Err(e), false, None);
        }
        let shutdown = matches!(req, Request::Shutdown);
        let kind = match &req {
            Request::Machine { .. } => 0,
            Request::Schedule { .. } => 1,
            Request::Suite { .. } => 2,
            Request::Status => 3,
            Request::Metrics => 4,
            Request::Shutdown => 5,
        };
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.execute(req, id, deadline, action, idx)
        }));
        let started = Some((kind, t0));
        match outcome {
            Ok(r) => (r, shutdown, started),
            Err(payload) => {
                // Quarantine: drop the entry this request touched so a
                // partial mutation can never serve a later request. The
                // fingerprint stays readable in `touched` so the flight
                // recorder can attribute the incident.
                if !self.touched.is_empty() && self.machines.remove(&self.touched).is_some() {
                    self.tally.quarantined += 1;
                }
                let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                (Err(ServeError::Panicked { detail }), false, started)
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
            } => self.exec_suite(id, &fingerprint, loops, seed, deadline, action, idx),
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
        let fp = content_fingerprint(&m);
        self.touched.push_str(&fp);
        drop(lookup_span);
        chaos_panic_point(&mut self.metrics, action);
        if let Some(entry) = self.machines.get_mut(&fp) {
            self.tick += 1;
            entry.last_used = self.tick;
            return Ok(machine_reply(id, &fp, true, entry));
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
        let fallback = match red.fallback {
            Some(e) if strict => return Err(ServeError::Rmd(e)),
            other => other.is_some(),
        };
        deadline.check()?;
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
        let reply = machine_reply(id, &fp, false, &entry);
        self.machines.insert(fp, entry);
        self.metrics
            .set_gauge("serve.machines_cached", self.machines.len() as u64);
        Ok(reply)
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
        let entry = {
            let _g = rmd_obs::span_with("serve", "cache_lookup", "req", idx);
            lookup(&mut self.machines, &mut self.tick, &mut self.touched, fp)?
        };
        chaos_panic_point(&mut self.metrics, action);
        let defaults = ImsConfig::default();
        let config = ImsConfig {
            budget_ratio: budget_ratio.unwrap_or(defaults.budget_ratio),
            max_ii: max_ii.unwrap_or(defaults.max_ii),
        };
        // The request graph is built in the engine's reused arena, and
        // the result's vectors go back to the entry's scratch whatever
        // the deadline says, so no reply leaves the next request to
        // allocate them again.
        let g = &mut self.graph_scratch;
        build_graph_into(g, &entry.original, nodes, edges)?;
        deadline.check()?;
        let r = entry.schedule(&IterativeModuloScheduler::new(config), g, idx)?;
        let reply = deadline.check().map(|()| {
            ReplyBuilder::with_room(id, "schedule", r.times.len())
                .str("fingerprint", fp)
                .num("ii", u64::from(r.ii))
                .num("mii", u64::from(r.mii))
                .num("decisions", r.decisions)
                .num("attempts", u64::from(r.attempts))
                .nums("times", r.times.iter().map(|&t| u64::from(t)))
                .finish()
        });
        entry.scratch.recycle(r);
        reply
    }

    /// Schedules each loop of a generated suite on the cached machine,
    /// folding the reply's counts and digest as it goes and checking
    /// the deadline after every loop.
    #[allow(clippy::too_many_arguments)]
    fn exec_suite(
        &mut self,
        id: Option<&str>,
        fp: &str,
        loops: usize,
        seed: u64,
        deadline: Deadline,
        action: ChaosAction,
        idx: u64,
    ) -> Result<String, ServeError> {
        let entry = {
            let _g = rmd_obs::span_with("serve", "cache_lookup", "req", idx);
            lookup(&mut self.machines, &mut self.tick, &mut self.touched, fp)?
        };
        chaos_panic_point(&mut self.metrics, action);
        // The generator vocabulary must resolve against this machine;
        // a missing op is a client error, not a panic.
        let ops = rmd_loops::OpSet::try_for_cydra_subset(&entry.original).map_err(|name| {
            ServeError::BadRequest {
                detail: format!("machine lacks op {name:?} required by the suite generator"),
            }
        })?;
        let suite = rmd_loops::suite(&ops, loops, seed);
        deadline.check()?;
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let (mut at_mii, mut sum_ii) = (0u64, 0u64);
        let mut digest = SuiteDigest::default();
        for l in &suite {
            let r = entry.schedule(&ims, &l.graph, idx)?;
            at_mii += u64::from(r.ii == r.mii);
            sum_ii += u64::from(r.ii);
            digest.push(&r);
            entry.scratch.recycle(r);
            deadline.check()?;
        }
        Ok(ReplyBuilder::ok(id, "suite")
            .str("fingerprint", fp)
            .num("loops", suite.len() as u64)
            .num("at_mii", at_mii)
            .num("sum_ii", sum_ii)
            .str("schedule_digest", &digest.hex())
            .finish())
    }

    fn exec_status(&mut self, id: Option<&str>) -> String {
        ReplyBuilder::ok(id, "status")
            .num("requests", self.tally.requests)
            .num("ok", self.tally.ok)
            .num("errors", self.metrics.counter("serve.errors"))
            .num("shed", self.metrics.counter("serve.shed"))
            .num("quarantined", self.tally.quarantined)
            .num("machines_cached", self.machines.len() as u64)
            .num("uptime_ms", self.started.elapsed().as_millis() as u64)
            .bool("draining", crate::signal::sigterm_received())
            .finish()
    }

    /// A point-in-time copy of the full metric registry: the engine's
    /// own counters/gauges/histograms, its per-request tally, and every
    /// cached machine's mask-cache statistics. The live registry is untouched, so
    /// snapshots are repeatable — taking one every N requests (the
    /// daemon's `--metrics-every`) never double-counts the additively
    /// exported mask-cache counters, and a snapshot equals the merge of
    /// the per-source registries at that instant.
    pub fn metrics_snapshot(&self) -> MetricRegistry {
        let mut snap = self.metrics.clone();
        self.tally.fold_into(&mut snap);
        for entry in self.machines.values() {
            entry.mask_cache.export_to(&mut snap, "serve.mask_cache");
        }
        snap.set_gauge("serve.machines_cached", self.machines.len() as u64);
        snap
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

/// Resolves `fp` to its cached machine with one hash lookup, marks it
/// most recently used, and records `fp` in `touched` for quarantine.
fn lookup<'m>(
    machines: &'m mut HashMap<String, MachineEntry>,
    tick: &mut u64,
    touched: &mut String,
    fp: &str,
) -> Result<&'m mut MachineEntry, ServeError> {
    let entry = machines
        .get_mut(fp)
        .ok_or_else(|| ServeError::UnknownFingerprint {
            got: fp.to_string(),
        })?;
    *tick += 1;
    entry.last_used = *tick;
    touched.push_str(fp);
    Ok(entry)
}

/// Chaos mid-request panic: fires after the request resolved its
/// machine, so the quarantine path has an entry to drop.
fn chaos_panic_point(metrics: &mut MetricRegistry, action: ChaosAction) {
    if action == ChaosAction::Panic {
        metrics.inc("serve.chaos.panicked", 1);
        panic!("chaos: injected mid-request panic");
    }
}

/// The reply to a `machine` request for `entry`, cached under `fp`.
fn machine_reply(id: Option<&str>, fp: &str, cached: bool, entry: &MachineEntry) -> String {
    ReplyBuilder::ok(id, "machine")
        .str("fingerprint", fp)
        .bool("cached", cached)
        .bool("fallback", entry.fallback)
        .num("resources", entry.original.num_resources() as u64)
        .num(
            "reduced_resources",
            entry.sched_machine.num_resources() as u64,
        )
        .num("operations", entry.original.num_operations() as u64)
        .finish()
}

/// The request kind recorded in the flight ring — the protocol type
/// name, or `"invalid"` when the body never parsed.
fn request_kind(body: &Result<Request<'_>, ServeError>) -> &'static str {
    match body {
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

/// A suite reply's `schedule_digest`: FNV-1a over each loop's achieved
/// II and then its issue times, as little-endian `u64`s, in suite order.
/// The engine folds it loop by loop; the offline reference folds the
/// suite runner's results through the same [`push`](Self::push).
#[derive(Debug, Default)]
pub struct SuiteDigest(Fnv64);

impl SuiteDigest {
    /// Folds in one loop's schedule.
    pub fn push(&mut self, r: &ImsResult) {
        self.0.write(&u64::from(r.ii).to_le_bytes());
        for &t in &r.times {
            self.0.write(&u64::from(t).to_le_bytes());
        }
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
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
    fn schedule_skips_an_ii_an_op_does_not_fit() {
        // `x` reserves `r` at cycles 0 and 3, so it collides with its own
        // next iteration at II 3, the MII of this recurrence.
        let src =
            r#"machine "m" { resources { r; s; } op x { use r @ 0, 3; } op y { use s @ 0; } }"#;
        let mut e = engine();
        let frame = format!(
            r#"{{"type":"machine","mdl":"{}"}}"#,
            src.replace('"', r#"\""#)
        );
        let v = ok_reply(&mut e, &frame);
        let fp = v.get("fingerprint").and_then(|f| f.as_str()).unwrap();
        let line = format!(
            r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["x","y"],"edges":[[0,1,1,0],[1,0,2,1]]}}"#
        );
        let v = ok_reply(&mut e, &line);
        let num = |k: &str| v.get(k).and_then(|n| n.as_u64()).unwrap();
        assert_eq!((num("ii"), num("mii")), (4, 3));
        let (m, _) = mdl::parse_machine(src).unwrap();
        let mut g = DepGraph::new();
        let (x, y) = (m.op_by_name("x").unwrap(), m.op_by_name("y").unwrap());
        let (n0, n1) = (g.add_node(x), g.add_node(y));
        g.add_edge(n0, n1, 1, 0, rmd_sched::DepKind::Flow);
        g.add_edge(n1, n0, 2, 1, rmd_sched::DepKind::Flow);
        let r = rmd_sched::ImsResult {
            times: v
                .get("times")
                .and_then(|t| t.as_array())
                .unwrap()
                .iter()
                .map(|t| t.as_u64().unwrap() as u32)
                .collect(),
            chosen: vec![x, y],
            ii: 4,
            mii: 3,
            decisions: 0,
            reversed_by_resource: 0,
            reversed_by_dependence: 0,
            attempts: 0,
            per_attempt_ratio: Vec::new(),
            counters: rmd_query::WorkCounters::new(),
        };
        rmd_sched::validate(&g, &m, &r).expect("the reply validates");
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
    }

    #[test]
    fn status_reports_the_drain() {
        let _g = crate::signal::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let mut e = engine();
        let mut draining = || {
            ok_reply(&mut e, r#"{"type":"status"}"#)
                .get("draining")
                .and_then(|d| d.as_bool())
        };
        crate::signal::set_shutdown(true);
        assert_eq!(draining(), Some(true));
        crate::signal::set_shutdown(false);
        assert_eq!(draining(), Some(false));
    }

    fn submit_cydra5_subset(engine: &mut ServeEngine) -> String {
        let v = ok_reply(engine, r#"{"type":"machine","model":"cydra5-subset"}"#);
        v.get("fingerprint")
            .and_then(|f| f.as_str())
            .unwrap()
            .to_string()
    }

    #[test]
    fn suite_runs_and_is_deterministic() {
        suite_matches_offline_run(80);
    }

    #[test]
    fn one_loop_suite_frame_schedules_one_loop() {
        suite_matches_offline_run(1);
    }

    /// Sends the same suite frame on a cold and then a warm mask cache
    /// and scratch: both replies must equal one offline run over
    /// `suite(ops, loops, 7)`.
    fn suite_matches_offline_run(loops: usize) {
        let mut e = engine();
        let fp = submit_cydra5_subset(&mut e);
        let line = format!(r#"{{"type":"suite","fingerprint":"{fp}","loops":{loops},"seed":7}}"#);
        let replies = [ok_reply(&mut e, &line), ok_reply(&mut e, &line)];
        let entry = &e.machines[&fp];
        let ops = rmd_loops::OpSet::for_cydra_subset(&entry.original);
        let offline = rmd_bench::run_suite_runs(
            &entry.sched_machine,
            &entry.original,
            &rmd_loops::suite(&ops, loops, 7),
            Representation::Bitvec(entry.layout),
            ImsConfig::default().budget_ratio,
        );
        assert_eq!(offline.len(), loops);
        let mut digest = SuiteDigest::default();
        offline.iter().for_each(|r| digest.push(r));
        let at_mii = offline.iter().filter(|r| r.ii == r.mii).count() as u64;
        let sum_ii: u64 = offline.iter().map(|r| u64::from(r.ii)).sum();
        for v in &replies {
            let num = |k: &str| v.get(k).and_then(|n| n.as_u64());
            assert_eq!(num("loops"), Some(loops as u64), "{v:?}");
            assert_eq!(num("at_mii"), Some(at_mii), "{v:?}");
            assert_eq!(num("sum_ii"), Some(sum_ii), "{v:?}");
            assert_eq!(
                v.get("schedule_digest").and_then(|d| d.as_str()),
                Some(digest.hex().as_str())
            );
            assert!(v.get("threads").is_none(), "{v:?}");
        }
    }

    #[test]
    fn suite_loop_with_no_feasible_ii_is_unschedulable() {
        // `brtop` holds r11 for 4,097 cycles, so it collides with its
        // own next iteration at every II up to the default cap of 4,096;
        // `state_eq@12`, which a suite of two or more loops schedules
        // second, uses it.
        // The suite frame answers like the schedule frame, and the
        // machine stays cached.
        let ops = models::CYDRA5_SUBSET_OPS;
        let resources: Vec<String> = (0..ops.len()).map(|i| format!("r{i};")).collect();
        let mut src = format!("machine \"m\" {{ resources {{ {} }}", resources.join(" "));
        for (i, op) in ops.iter().enumerate() {
            let cycles = if *op == "brtop" { "0..4097" } else { "0" };
            src.push_str(&format!(" op {op} {{ use r{i} @ {cycles}; }}"));
        }
        src.push_str(" }");
        let mut e = engine();
        let frame = format!(
            r#"{{"type":"machine","mdl":"{}","max_steps":1}}"#,
            src.replace('"', r#"\""#)
        );
        let fp = ok_reply(&mut e, &frame)
            .get("fingerprint")
            .and_then(|f| f.as_str())
            .unwrap()
            .to_string();
        let schedule = format!(r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["brtop"]}}"#);
        let (want, _) = e.handle_line(&schedule, Instant::now());
        assert!(want.contains(r#""kind":"unschedulable""#), "{want}");
        let suite = format!(r#"{{"type":"suite","fingerprint":"{fp}","loops":2,"seed":7}}"#);
        let (got, _) = e.handle_line(&suite, Instant::now());
        assert_eq!(got, want);
        assert_eq!(e.counter("serve.quarantined"), 0);
        assert!(e.take_flight_dumps().is_empty());
        let v = ok_reply(&mut e, r#"{"type":"status"}"#);
        assert_eq!(v.get("machines_cached").and_then(|m| m.as_u64()), Some(1));
    }

    #[test]
    fn suite_leaves_no_trace_in_schedule_replies() {
        // A suite frame shares the entry's mask cache and scratch with
        // schedule frames; the schedule reply after it equals the one
        // before it and a fresh engine's.
        let schedule = |fp: &str| {
            format!(
                r#"{{"type":"schedule","fingerprint":"{fp}","nodes":["load.w.0","fmul","fadd","store.w.0","brtop"],"edges":[[0,1,13,0],[1,2,4,0],[2,3,3,0],[2,2,3,1]]}}"#
            )
        };
        let mut e = engine();
        let fp = submit_cydra5_subset(&mut e);
        let (before, _) = e.handle_line(&schedule(&fp), Instant::now());
        ok_reply(
            &mut e,
            &format!(r#"{{"type":"suite","fingerprint":"{fp}","loops":80,"seed":7}}"#),
        );
        let (after, _) = e.handle_line(&schedule(&fp), Instant::now());
        let mut fresh = engine();
        let fresh_fp = submit_cydra5_subset(&mut fresh);
        let (want, _) = fresh.handle_line(&schedule(&fresh_fp), Instant::now());
        assert!(want.starts_with(r#"{"ok":true,"#), "{want}");
        assert_eq!(before, want);
        assert_eq!(after, want);
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
