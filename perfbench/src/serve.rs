//! The `serve_mix` phase: one closed-loop client calling
//! `ServeEngine::handle_line` in-process with the certificate gate on.
//! Most frames schedule suite loops on cached machines (reads); about
//! one in 250 submits one of the nine certified machines as inline MDL,
//! drawn with skew (writes: a cache hit, or reduction + admission + LRU
//! eviction on a miss); a few are `status`/`metrics` frames.

use crate::stats::{lower_decile, median, ratio, SplitMix64};
use crate::{traced_round, Outcome, Phase};
use rmd_machine::{mdl, models, MachineDescription};
use rmd_query::WorkCounters;
use rmd_sched::{DepGraph, DepKind, ImsResult};
use rmd_serve::{EngineConfig, ServeEngine};
use serde_json::Value;
use std::time::Instant;

/// Rounds a companion run makes. A round deals every schedule frame once
/// (928 of them) with the other frames interleaved.
const COMPANION_ROUNDS: usize = 36;
/// Schedule frames carry every `LOOP_STRIDE`-th loop of the suite phase.
const LOOP_STRIDE: usize = 3;

/// The nine certified machines, in skew order: the draw weight of the
/// machine at rank `r` is `1 / (r + 1)`. The first two also receive the
/// schedule frames. `cydra5` has no MDL file and is rendered from the
/// built-in model.
const MACHINES: [(&str, Option<&str>); 9] = [
    ("cydra5_subset", Some("cydra5_subset")),
    ("cydra5", None),
    ("zoo_wide_issue", Some("zoo_wide_issue")),
    ("vliw_dsp", Some("vliw_dsp")),
    ("fig1", Some("example")),
    ("zoo_clustered", Some("zoo_clustered")),
    ("zoo_deep_np", Some("zoo_deep_np")),
    ("mips_r3000", Some("mips_r3000")),
    ("alpha21064", Some("alpha21064")),
];

#[derive(Clone, Copy)]
enum Kind {
    Machine(usize),
    Schedule(usize, usize),
    Status,
    Metrics,
}

/// A frame in both spellings, indexed by whether it asks for a trace.
type Frame = [String; 2];

/// A machine that receives schedule frames.
struct Target {
    original: MachineDescription,
    graphs: Vec<DepGraph>,
    frames: Vec<Frame>,
    /// The first reply to each frame, once it validated; later replies
    /// to the same frame must be byte-identical.
    validated: Vec<Option<String>>,
}

/// Stage time folded from traced replies, in nanoseconds.
#[derive(Default)]
struct Stages {
    frames: u64,
    wall: u64,
    parse: u64,
    lookup: u64,
    lookups: u64,
    reduction: u64,
    reductions: u64,
    schedule: u64,
    schedules: u64,
    reply: u64,
    graph_mii: u64,
    gate: u64,
    export: u64,
}

pub struct Serve {
    engine: ServeEngine,
    machines: Vec<Frame>,
    weights: Vec<f64>,
    targets: Vec<Target>,
    status: Frame,
    metrics: Frame,
    rng: SplitMix64,
    deck: Vec<(usize, usize)>,
    dealt: usize,
    evictions_at_start: u64,
    pending: Vec<(Kind, String, u64, u64)>,
    /// Round time per frame.
    untraced_frame_s: Vec<f64>,
    traced_frame_s: Vec<f64>,
    /// Fastest untraced latency and send count per item (see `item`).
    best_ns: Vec<u64>,
    count: Vec<u64>,
    stages: Stages,
    /// Machine frames answered from the cache, and all machine frames.
    hits: (u64, u64),
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `body` is a frame without its closing brace.
fn spellings(body: String) -> Frame {
    [format!("{body}}}"), format!("{body},\"trace\":true}}")]
}

fn schedule_body(fp: &str, g: &DepGraph, m: &MachineDescription) -> String {
    let mut s = String::from("{\"type\":\"schedule\",\"fingerprint\":");
    push_json_str(&mut s, fp);
    s.push_str(",\"nodes\":[");
    for (i, n) in g.nodes().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_json_str(&mut s, m.operation(g.op(n)).name());
    }
    s.push_str("],\"edges\":[");
    for (i, e) in g.edges().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let kind = match e.kind {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Memory => "memory",
        };
        s.push_str(&format!(
            "[{},{},{},{},\"{kind}\"]",
            e.from.index(),
            e.to.index(),
            e.delay,
            e.distance
        ));
    }
    s.push(']');
    s
}

/// `g` (over `from`'s operations) rebuilt over `to`'s operations of the
/// same names.
fn remap(g: &DepGraph, from: &MachineDescription, to: &MachineDescription) -> Option<DepGraph> {
    let mut h = DepGraph::new();
    for n in g.nodes() {
        h.add_node(to.op_by_name(from.operation(g.op(n)).name())?);
    }
    for e in g.edges() {
        h.add_edge(e.from, e.to, e.delay, e.distance, e.kind);
    }
    Some(h)
}

/// Validates a schedule reply against the original reservation tables.
fn validate_reply(v: &Value, g: &DepGraph, m: &MachineDescription) -> Result<(), String> {
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("reply lacks {k}"))
    };
    let ii = u32::try_from(num("ii")?).map_err(|e| e.to_string())?;
    let mii = u32::try_from(num("mii")?).map_err(|e| e.to_string())?;
    let times: Vec<u32> = v
        .get("times")
        .and_then(Value::as_array)
        .ok_or("reply lacks times")?
        .iter()
        .map(|t| t.as_u64().and_then(|t| u32::try_from(t).ok()))
        .collect::<Option<_>>()
        .ok_or("bad times")?;
    if times.len() != g.num_nodes() || ii == 0 || ii < mii {
        return Err(format!(
            "{} times for {} nodes, II {ii}, MII {mii}",
            times.len(),
            g.num_nodes()
        ));
    }
    let r = ImsResult {
        times,
        chosen: g.nodes().map(|n| g.op(n)).collect(),
        ii,
        mii,
        decisions: 0,
        reversed_by_resource: 0,
        reversed_by_dependence: 0,
        attempts: 0,
        per_attempt_ratio: Vec::new(),
        counters: WorkCounters::new(),
    };
    rmd_sched::validate(g, m, &r).map_err(|e| e.to_string())
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

impl Serve {
    /// Builds the frames, admits every machine once, and warms the
    /// engine with a short stream.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut machines = Vec::new();
        let mut originals = Vec::new();
        for (name, stem) in MACHINES {
            let text = match stem {
                Some(stem) => {
                    std::fs::read_to_string(format!("machines/{stem}.mdl")).map_err(|e| {
                        format!(
                            "cannot read machines/{stem}.mdl: {e} (run from the repository root)"
                        )
                    })?
                }
                None => mdl::print(&models::cydra5()),
            };
            let (m, _) = mdl::parse_machine(&text).map_err(|e| format!("{name}: {e}"))?;
            let mut body = String::from("{\"type\":\"machine\",\"mdl\":");
            push_json_str(&mut body, &text);
            machines.push(spellings(body));
            originals.push(m);
        }
        let weights: Vec<f64> = (0..MACHINES.len()).map(|r| 1.0 / (r + 1) as f64).collect();

        let mut engine = ServeEngine::new(EngineConfig {
            cert_dir: Some("certs".into()),
            ..EngineConfig::default()
        });
        // Admit coldest first so the schedule targets end up most
        // recently used; the ninth admission evicts the first.
        for (i, f) in machines.iter().enumerate().rev() {
            let (reply, _) = engine.handle_line(&f[0], Instant::now());
            if !is_ok(&reply) {
                return Err(format!("admitting {}: {reply}", MACHINES[i].0));
            }
        }

        // Every third loop keeps the deck short, so each frame is sent
        // often enough, even in a companion run, for its best latency to
        // settle.
        let subset = &originals[0];
        let loops: Vec<_> = crate::suite::generate(subset, seed)
            .into_iter()
            .step_by(LOOP_STRIDE)
            .collect();
        let mut targets = Vec::new();
        for original in originals.iter().take(2) {
            let fp = rmd_serve::fingerprint(original);
            let graphs: Vec<DepGraph> = loops
                .iter()
                .map(|l| remap(&l.graph, subset, original))
                .collect::<Option<_>>()
                .ok_or("schedule target lacks a suite operation")?;
            targets.push(Target {
                original: original.clone(),
                validated: vec![None; graphs.len()],
                frames: graphs
                    .iter()
                    .map(|g| spellings(schedule_body(&fp, g, original)))
                    .collect(),
                graphs,
            });
        }
        let items = 2 * loops.len() + 2 * MACHINES.len() + 2;
        let mut serve = Serve {
            engine,
            machines,
            weights,
            targets,
            status: spellings("{\"type\":\"status\"".into()),
            metrics: spellings("{\"type\":\"metrics\"".into()),
            rng: SplitMix64::new(seed ^ 0x5E27_E000),
            deck: (0..2)
                .flat_map(|t| (0..loops.len()).map(move |l| (t, l)))
                .collect(),
            dealt: usize::MAX,
            evictions_at_start: 0,
            pending: Vec::new(),
            untraced_frame_s: Vec::new(),
            traced_frame_s: Vec::new(),
            best_ns: vec![u64::MAX; items],
            count: vec![0; items],
            stages: Stages::default(),
            hits: (0, 0),
        };
        serve.warm(0);
        serve.evictions_at_start = serve.evictions();
        Ok(serve)
    }

    /// Index of a distinct request: a schedule frame, a machine frame
    /// with its cache outcome, or a status or metrics frame.
    fn item(&self, kind: Kind, reply: &str) -> usize {
        let schedules = self.targets.iter().map(|t| t.graphs.len()).sum::<usize>();
        match kind {
            Kind::Schedule(t, l) => t * self.targets[0].graphs.len() + l,
            Kind::Machine(i) => schedules + 2 * i + usize::from(!reply.contains("\"cached\":true")),
            Kind::Status => schedules + 2 * MACHINES.len(),
            Kind::Metrics => schedules + 2 * MACHINES.len() + 1,
        }
    }

    /// Whether `kind` was the last schedule frame of the deck.
    fn deck_dealt(&self, kind: Kind) -> bool {
        matches!(kind, Kind::Schedule(..)) && self.dealt == self.deck.len()
    }

    fn evictions(&self) -> u64 {
        self.engine
            .metrics_snapshot()
            .counter("serve.machine_evictions")
    }

    fn draw(&mut self) -> Kind {
        match self.rng.below(1000) {
            0..=3 => {
                let total: f64 = self.weights.iter().sum();
                let mut x = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
                let mut pick = self.weights.len() - 1;
                for (i, w) in self.weights.iter().enumerate() {
                    if x < *w {
                        pick = i;
                        break;
                    }
                    x -= w;
                }
                Kind::Machine(pick)
            }
            4 | 5 => Kind::Status,
            6 => Kind::Metrics,
            _ => {
                // Schedule frames deal from a shuffled deck of every
                // (target, loop) pair, so each is sent equally often.
                if self.dealt >= self.deck.len() {
                    for i in (1..self.deck.len()).rev() {
                        self.deck.swap(i, self.rng.below(i + 1));
                    }
                    self.dealt = 0;
                }
                self.dealt += 1;
                let (t, l) = self.deck[self.dealt - 1];
                Kind::Schedule(t, l)
            }
        }
    }

    /// Sends one frame; returns the reply, its latency in ns, and the
    /// trace clock (`rmd_obs::now_ns`) when the reply was back.
    fn send(&mut self, kind: Kind, traced: bool) -> (String, u64, u64) {
        let frame = &match kind {
            Kind::Machine(i) => &self.machines[i],
            Kind::Schedule(t, l) => &self.targets[t].frames[l],
            Kind::Status => &self.status,
            Kind::Metrics => &self.metrics,
        }[usize::from(traced)];
        let t = Instant::now();
        let (reply, _) = self.engine.handle_line(frame, t);
        let ns = t.elapsed().as_nanos() as u64;
        (reply, ns, if traced { rmd_obs::now_ns() } else { 0 })
    }

    /// Checks one reply; folds trace spans when `stages` is given.
    fn check(
        &mut self,
        kind: Kind,
        reply: &str,
        stages: Option<(&mut Stages, u64)>,
        out: &mut Outcome,
    ) {
        out.attempted += 1;
        if !is_ok(reply) {
            out.check(false, || format!("error reply: {reply}"));
            return;
        }
        if let Kind::Machine(_) = kind {
            self.hits.1 += 1;
            if reply.contains("\"cached\":true") {
                self.hits.0 += 1;
            }
        }
        let traced = stages.is_some();
        let parsed = match stages {
            Some((st, done_at)) => match serde_json::from_str(reply) {
                Ok(v) => {
                    fold_trace(&v, st, done_at);
                    Some(v)
                }
                Err(e) => {
                    out.check(false, || format!("unparseable reply ({e:?}): {reply}"));
                    return;
                }
            },
            None => None,
        };
        let Kind::Schedule(t, l) = kind else {
            return;
        };
        let target = &mut self.targets[t];
        let v = match parsed {
            Some(v) => v,
            None => {
                // Untraced replies to the same frame must repeat byte
                // for byte; the first one is validated.
                if let Some(first) = &target.validated[l] {
                    out.check(first == reply, || {
                        format!("loop {l}: reply changed between identical requests")
                    });
                    return;
                }
                match serde_json::from_str(reply) {
                    Ok(v) => v,
                    Err(e) => {
                        out.check(false, || format!("unparseable reply ({e:?}): {reply}"));
                        return;
                    }
                }
            }
        };
        let valid = validate_reply(&v, &target.graphs[l], &target.original);
        if valid.is_ok() && !traced {
            target.validated[l] = Some(reply.to_string());
        }
        out.check(valid.is_ok(), || {
            format!("loop {l}: {}", valid.unwrap_err())
        });
    }
}

impl Phase for Serve {
    fn companion_rounds(&self) -> usize {
        COMPANION_ROUNDS
    }

    /// One untimed round.
    fn warm(&mut self, _index: usize) {
        loop {
            let kind = self.draw();
            self.send(kind, false);
            if self.deck_dealt(kind) {
                return;
            }
        }
    }

    /// One round of the frame stream; replies are checked after the
    /// round's clock stops. With tracing on, every other round is traced.
    fn round(&mut self, index: usize, trace: bool, out: &mut Outcome) {
        let traced = traced_round(trace, index);
        let mut pending = std::mem::take(&mut self.pending);
        let round_start = Instant::now();
        loop {
            let kind = self.draw();
            let (reply, ns, done_at) = self.send(kind, traced);
            pending.push((kind, reply, ns, done_at));
            if self.deck_dealt(kind) {
                break;
            }
        }
        let frame_s = round_start.elapsed().as_secs_f64() / pending.len() as f64;
        let mut stages = std::mem::take(&mut self.stages);
        for (kind, reply, ns, done_at) in pending.drain(..) {
            if traced {
                stages.frames += 1;
                stages.wall += ns;
                self.check(kind, &reply, Some((&mut stages, done_at)), out);
            } else {
                let item = self.item(kind, &reply);
                self.best_ns[item] = self.best_ns[item].min(ns);
                self.count[item] += 1;
                self.check(kind, &reply, None, out);
            }
        }
        self.stages = stages;
        self.pending = pending;
        if traced {
            self.traced_frame_s.push(frame_s);
        } else {
            self.untraced_frame_s.push(frame_s);
        }
    }

    fn finish(&mut self, out: &mut Outcome) {
        let (untraced_frame_s, traced_frame_s, hits) =
            (&self.untraced_frame_s, &self.traced_frame_s, self.hits);
        let rounds = untraced_frame_s.len() + traced_frame_s.len();
        let evictions = self.evictions() - self.evictions_at_start;

        // Each distinct request (frame and cache outcome) contributes its
        // fastest untraced latency, weighted by how often it was sent.
        let mut items: Vec<(u64, u64)> = self
            .best_ns
            .iter()
            .zip(&self.count)
            .filter(|(_, &n)| n > 0)
            .map(|(&b, &n)| (b, n))
            .collect();
        items.sort_unstable();
        let requests: u64 = items.iter().map(|&(_, n)| n).sum();
        let busy_s = items.iter().map(|&(b, n)| b as f64 * n as f64).sum::<f64>() / 1e9;
        let weighted = |q: f64| {
            let rank = (q * requests as f64).ceil() as u64;
            let mut seen = 0;
            items
                .iter()
                .find(|&&(_, n)| {
                    seen += n;
                    seen >= rank
                })
                .map_or(0.0, |&(b, _)| b as f64 / 1e3)
        };
        let (p50, p99) = (weighted(0.50), weighted(0.99));
        let frame_s = lower_decile(untraced_frame_s);
        out.e2e("requests_per_s", ratio(requests as f64, busy_s), "1/s");
        out.e2e("request_p50_us", p50, "us");
        out.e2e("request_p99_us", p99, "us");

        let us = |ns: u64, count: u64| ratio(ns as f64 / 1e3, count as f64);
        let s = &self.stages;
        out.layer("serve.parse_us", us(s.parse, s.frames), "us");
        out.layer("serve.cache_lookup_us", us(s.lookup, s.lookups), "us");
        out.layer("serve.schedule_us", us(s.schedule, s.schedules), "us");
        out.layer("serve.reduction_us", us(s.reduction, s.reductions), "us");
        out.layer("serve.reply_us", us(s.reply, s.frames), "us");
        out.layer("serve.graph_mii_us", us(s.graph_mii, s.schedules), "us");
        out.layer("serve.cert_gate_us", us(s.gate, s.reductions), "us");
        out.layer("serve.trace_export_us", us(s.export, s.frames), "us");
        out.layer(
            "serve.machine_hit_share",
            ratio(hits.0 as f64, hits.1 as f64),
            "share",
        );
        out.layer("serve.machine_evictions", evictions as f64, "count");
        let attributed = s.parse
            + s.lookup
            + s.reduction
            + s.schedule
            + s.reply
            + s.graph_mii
            + s.gate
            + s.export;
        out.layer(
            "serve_mix.unattributed_share",
            1.0 - ratio(attributed as f64, s.wall as f64),
            "share",
        );
        out.layer(
            "serve_mix.trace_overhead_share",
            ratio(lower_decile(traced_frame_s), frame_s) - 1.0,
            "share",
        );
        out.report.push(format!(
            "serve_mix: {rounds} rounds ({} traced), each dealing all {} schedule frames; \
             {:.2} us per frame lower decile, {:.2} median; {requests} untraced requests over {} distinct \
             (frame, outcome) items, best-latency busy time {:.1} ms; request p50 {p50:.2} us, \
             p99 {p99:.2} us; machine frames {} ({} hits), {evictions} evictions",
            traced_frame_s.len(),
            self.deck.len(),
            frame_s * 1e6,
            median(untraced_frame_s) * 1e6,
            items.len(),
            busy_s * 1e3,
            hits.1,
            hits.0
        ));
    }
}

/// Adds one reply's trace to `st`. Besides the `serve` spans, three
/// stages are the gaps between them: graph build + MII (cache lookup to
/// schedule), the certificate gate (cache lookup to reduction on a
/// miss), and trace export (the closing `reply` instant to `done_at`,
/// when `handle_line` returned). The reply stage runs from the end of
/// the last span to the `reply` instant.
fn fold_trace(v: &Value, st: &mut Stages, done_at: u64) {
    let Some(events) = v
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Value::as_array)
    else {
        return;
    };
    let ns = |e: &Value, k: &str| {
        e.get(k)
            .and_then(Value::as_f64)
            .map_or(0, |us| (us * 1e3).round() as u64)
    };
    let (mut lookup, mut reduction, mut schedule) = (None, None, None);
    let mut last_end = 0u64;
    let mut reply_at = None;
    for e in events {
        let (start, dur) = (ns(e, "ts"), ns(e, "dur"));
        if e.get("ph").and_then(Value::as_str) == Some("X") {
            last_end = last_end.max(start + dur);
        }
        if e.get("cat").and_then(Value::as_str) != Some("serve") {
            continue;
        }
        let span = Some((start, start + dur));
        match e.get("name").and_then(Value::as_str) {
            Some("parse") => st.parse += dur,
            Some("cache_lookup") => {
                st.lookup += dur;
                st.lookups += 1;
                lookup = span;
            }
            Some("reduction") => {
                st.reduction += dur;
                st.reductions += 1;
                reduction = span;
            }
            Some("schedule") => {
                st.schedule += dur;
                st.schedules += 1;
                schedule = span;
            }
            Some("reply") => reply_at = Some(start),
            _ => {}
        }
    }
    if let (Some((_, looked_up)), Some((scheduled, _))) = (lookup, schedule) {
        st.graph_mii += scheduled.saturating_sub(looked_up);
    }
    if let (Some((_, looked_up)), Some((reducing, _))) = (lookup, reduction) {
        st.gate += reducing.saturating_sub(looked_up);
    }
    if let Some(at) = reply_at {
        st.reply += at.saturating_sub(last_end);
        st.export += done_at.saturating_sub(at);
    }
}
