//! The engine behind the `rmd profile` CLI subcommand.
//!
//! Runs the whole stack — reduction pipeline, all five query backends,
//! and (where the machine supports the loop suite) the iterative modulo
//! scheduler — under [`rmd_obs`] tracing and folds the result into one
//! [`Profile`]: the raw event stream (exportable as JSONL or Chrome
//! trace JSON), a merged [`MetricRegistry`], and per-phase wall-clock
//! aggregates over the canonical [`REDUCTION_PHASES`] list.
//!
//! Everything here is additive instrumentation: the workloads reuse the
//! deterministic shapes the bench harness already runs, so a profile
//! never perturbs what it measures beyond the tracing overhead itself.

use crate::benchcmd::{suite_supported, SUITE_SEED};
use crate::{run_suite_runs, LoopRun};
use rmd_core::{reduce_with_fallback, Objective, ReduceOptions, REDUCTION_PHASES};
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{
    BitvecModule, CompiledModule, ContentionQuery, DiscreteModule, MeteredQuery,
    ModuloBitvecModule, ModuloDiscreteModule, ModuloMaskCache, OpInstance, QueryFn, WordLayout,
};
use rmd_sched::{mii, ImsConfig, IterativeModuloScheduler, Representation, SchedScratch};
use rmd_obs::{Event, EventKind, MetricRegistry};
use serde::Serialize;
use std::fmt::Write as _;

/// Loop count `rmd profile` schedules by default (a quick slice of the
/// §8 suite — enough for meaningful per-II spans without a long run).
pub const DEFAULT_PROFILE_LOOPS: usize = 64;

/// Options of one `rmd profile` invocation.
#[derive(Clone, Copy, Debug)]
pub struct ProfileOptions {
    /// Loops to schedule (0 skips the scheduler section; ignored for
    /// machines outside the suite vocabulary).
    pub loops: usize,
    /// Suite generator seed.
    pub seed: u64,
    /// Restrict the per-backend metering to one backend (a
    /// [`crate::BACKEND_NAMES`] entry; `None` meters all five). The CLI
    /// validates user input before it reaches here.
    pub backend: Option<&'static str>,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            loops: DEFAULT_PROFILE_LOOPS,
            seed: SUITE_SEED,
            backend: None,
        }
    }
}

/// Wall-clock aggregate of one reduction phase (summed over its spans).
#[derive(Clone, Debug, Serialize)]
pub struct PhaseTiming {
    /// Phase name, from [`REDUCTION_PHASES`].
    pub phase: String,
    /// Total nanoseconds across all spans of this phase.
    pub wall_ns: u64,
    /// Number of spans observed.
    pub spans: u64,
}

/// One row of the per-function work-unit report (the Table-6-style
/// averages `rmd profile --table6` renders and records).
#[derive(Clone, Debug, Serialize)]
pub struct FnWorkRow {
    /// Metric scope, e.g. `query.discrete` or `sched.query`.
    pub scope: String,
    /// Query function name (`check`, `assign`, `assign_free`, `free`).
    pub function: String,
    /// Calls issued.
    pub calls: u64,
    /// Work units handled (paper §8 accounting).
    pub units: u64,
    /// Average units per call.
    pub avg_units: f64,
}

/// The outcome of profiling one machine.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Machine name.
    pub machine: String,
    /// The drained event stream, in recording order.
    pub events: Vec<Event>,
    /// Metrics merged from every instrumented layer.
    pub registry: MetricRegistry,
    /// Per-phase wall-clock aggregates over [`REDUCTION_PHASES`].
    pub phases: Vec<PhaseTiming>,
}

/// The serializable record `--table6` writes under `results/`.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileRecord {
    /// Record schema tag.
    pub schema: String,
    /// Machine name.
    pub machine: String,
    /// Per-phase reduction timings.
    pub phases: Vec<PhaseTiming>,
    /// Per-function work-unit rows across all instrumented scopes.
    pub work: Vec<FnWorkRow>,
}

/// Schema tag of [`ProfileRecord`].
pub const PROFILE_SCHEMA: &str = "rmd-profile/1";

/// Sums span durations per [`REDUCTION_PHASES`] entry over `events`.
///
/// Phases appear in canonical order; a phase with no span is reported
/// with zero spans (this is what the CI smoke check guards against).
pub fn aggregate_phases(events: &[Event]) -> Vec<PhaseTiming> {
    REDUCTION_PHASES
        .iter()
        .map(|&phase| {
            let mut wall_ns = 0u64;
            let mut spans = 0u64;
            for e in events {
                if e.cat == "reduce" && e.name == phase && e.kind == EventKind::Span {
                    wall_ns += e.dur_ns;
                    spans += 1;
                }
            }
            PhaseTiming {
                phase: phase.to_owned(),
                wall_ns,
                spans,
            }
        })
        .collect()
}

/// A deterministic check/assign/assign&free/free workload exercising
/// every protocol function through a [`MeteredQuery`] wrapper. The
/// shape mirrors the bench harness's query workload: greedy fill over a
/// cycle window, a few forced placements, then tear-down of what is
/// still live.
fn metered_workload<Q: ContentionQuery>(
    q: &mut MeteredQuery<Q>,
    m: &MachineDescription,
    cycles: u32,
) {
    let nops = m.num_operations().max(1) as u32;
    let mut live: Vec<(u32, OpId, u32)> = Vec::new();
    let mut inst = 0u32;
    for cycle in 0..cycles {
        let op = OpId(cycle % nops);
        if q.check(op, cycle) {
            q.assign(OpInstance(inst), op, cycle);
            live.push((inst, op, cycle));
            inst += 1;
        }
    }
    // Forced placements: evictions unschedule earlier instances, so the
    // live list must drop whatever `assign&free` reports back.
    for i in 0..4u32.min(cycles) {
        let op = OpId(i % nops);
        let evicted = q.assign_free(OpInstance(inst), op, i);
        live.retain(|(id, _, _)| !evicted.contains(&OpInstance(*id)));
        live.push((inst, op, i));
        inst += 1;
    }
    // Batched window scans over the filled span, so the `check_window`
    // latency histogram and work rows show up in every profile.
    for start in (0..cycles).step_by(64) {
        let _ = q.check_window(OpId(start % nops), start, 64);
        let _ = q.first_free_in(OpId((start + 1) % nops), start, 64);
    }
    for &(id, op, c) in live.iter().rev() {
        q.free(OpInstance(id), op, c);
    }
}

/// Profiles the five query backends with per-function latency
/// histograms, merging each backend's metrics into `reg` under
/// `query.<backend>`. With a `filter` (a [`crate::BACKEND_NAMES`]
/// entry) only that backend is metered.
fn profile_backends(m: &MachineDescription, reg: &mut MetricRegistry, filter: Option<&str>) {
    let layout = WordLayout::widest(64, m.num_resources());
    // An II at least as long as the longest table keeps every operation
    // `fits()`-admissible in the modulo backends.
    let ii = m.max_table_length().max(1);
    let cycles = 256u32;
    let wants = |name: &str| filter.map_or(true, |f| f == name);

    if wants("discrete") {
        let mut q = MeteredQuery::new(DiscreteModule::new(m));
        metered_workload(&mut q, m, cycles);
        reg.merge(&q.export_registry("query.discrete"));
    }

    if wants("bitvec") {
        let mut q = MeteredQuery::new(BitvecModule::new(m, layout));
        metered_workload(&mut q, m, cycles);
        reg.merge(&q.export_registry("query.bitvec"));
    }

    if wants("compiled") {
        let mut q = MeteredQuery::new(CompiledModule::new(m, layout));
        metered_workload(&mut q, m, cycles);
        reg.merge(&q.export_registry("query.compiled"));
    }

    if wants("modulo_discrete") {
        let mut q = MeteredQuery::new(ModuloDiscreteModule::new(m, ii));
        metered_workload(&mut q, m, 2 * ii);
        reg.merge(&q.export_registry("query.modulo_discrete"));
    }

    if wants("modulo_bitvec") {
        let mut q = MeteredQuery::new(ModuloBitvecModule::new(m, ii, layout));
        metered_workload(&mut q, m, 2 * ii);
        reg.merge(&q.export_registry("query.modulo_bitvec"));
    }
}

/// Schedules `count` suite loops under tracing, merging scheduler work
/// counters, the II histogram, and modulo-mask-cache statistics into
/// `reg`.
fn profile_scheduler(m: &MachineDescription, count: usize, seed: u64, reg: &mut MetricRegistry) {
    let ops = rmd_loops::OpSet::for_cydra_subset(m);
    let loops = rmd_loops::suite(&ops, count, seed);
    let layout = WordLayout::widest(64, m.num_resources());
    let repr = Representation::Bitvec(layout);
    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    let mut cache = ModuloMaskCache::new(m, layout);
    let mut scratch = SchedScratch::new();
    for l in &loops {
        let lower = mii::mii(&l.graph, m);
        let r = ims
            .schedule_with_mii_cached_scratch(&l.graph, m, repr, lower, &mut cache, &mut scratch)
            .unwrap_or_else(|e| panic!("{}: {e}", l.name));
        r.counters.export_to(reg, "sched.query");
        reg.inc("sched.loops", 1);
        reg.inc("sched.decisions", r.decisions);
        reg.inc("sched.reversed_by_resource", r.reversed_by_resource);
        reg.inc("sched.reversed_by_dependence", r.reversed_by_dependence);
        reg.inc("sched.attempts", u64::from(r.attempts));
        reg.observe("sched.ii", u64::from(r.ii));
        scratch.recycle(r);
    }
    cache.export_to(reg, "sched.mask_cache");
}

/// Runs every applicable workload on `machine` under tracing and
/// returns the collected [`Profile`].
///
/// Tracing is enabled for the duration of the call and restored to
/// disabled afterwards; stale events recorded by this thread beforehand
/// are discarded.
pub fn profile_machine(machine: &MachineDescription, opts: &ProfileOptions) -> Profile {
    rmd_obs::set_enabled(true);
    let _ = rmd_obs::drain_events();
    let mut registry = MetricRegistry::new();

    // 1. Reduction pipeline, through the verify + fallback gate so the
    //    `verify` phase (and any `fallback` instant) is on the trace.
    let red = reduce_with_fallback(machine, Objective::ResUses, &ReduceOptions::default());
    registry.inc("reduce.runs", 1);
    registry.inc("reduce.fallbacks", u64::from(red.used_fallback()));
    if let Some(r) = &red.reduction {
        registry.set_gauge("reduce.genset_size", r.genset_size as u64);
        registry.set_gauge("reduce.pruned_size", r.pruned_size as u64);
        registry.set_gauge("reduce.resources", r.reduced.num_resources() as u64);
        registry.set_gauge("reduce.usages", r.reduced.total_usages() as u64);
    }

    // 2. Per-backend latency + work-unit metering.
    profile_backends(machine, &mut registry, opts.backend);

    // 3. Scheduler (per-II attempt spans + merged counters).
    if opts.loops > 0 && suite_supported(machine) {
        profile_scheduler(machine, opts.loops, opts.seed, &mut registry);
    }

    let events = rmd_obs::drain_events();
    rmd_obs::set_enabled(false);
    let phases = aggregate_phases(&events);
    Profile {
        machine: machine.name().to_owned(),
        events,
        registry,
        phases,
    }
}

/// Extracts the per-function work-unit rows from a profile's registry:
/// every `<scope>.<fn>.calls` / `.units` counter pair, in registry
/// (deterministic BTreeMap) order.
pub fn work_rows(reg: &MetricRegistry) -> Vec<FnWorkRow> {
    let mut rows = Vec::new();
    for (name, calls) in reg.counters() {
        let Some(stem) = name.strip_suffix(".calls") else {
            continue;
        };
        let Some((scope, function)) = stem.rsplit_once('.') else {
            continue;
        };
        if !QueryFn::ALL.iter().any(|f| f.name() == function) {
            continue;
        }
        let units = reg.counter(&format!("{stem}.units"));
        rows.push(FnWorkRow {
            scope: scope.to_owned(),
            function: function.to_owned(),
            calls,
            units,
            avg_units: if calls == 0 {
                0.0
            } else {
                units as f64 / calls as f64
            },
        });
    }
    rows
}

/// Builds the serializable `--table6` record from a profile.
pub fn profile_record(p: &Profile) -> ProfileRecord {
    ProfileRecord {
        schema: PROFILE_SCHEMA.to_owned(),
        machine: p.machine.clone(),
        phases: p.phases.clone(),
        work: work_rows(&p.registry),
    }
}

/// Writes `record` as `PROFILE_<machine>.json` under `out_dir` and
/// returns the path.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created
/// or the file cannot be written.
pub fn write_profile_record(
    record: &ProfileRecord,
    out_dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("PROFILE_{}.json", record.machine));
    let json = serde_json::to_string_pretty(record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Renders the `--table6` work-unit table on its own (also part of the
/// full [`render_profile`] report).
pub fn render_work_table(p: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-function work units of `{}` (Table 6 accounting):",
        p.machine
    );
    let _ = writeln!(
        out,
        "  {:34} {:>12} {:>12} {:>10}",
        "scope.function", "calls", "units", "avg"
    );
    for row in work_rows(&p.registry) {
        let _ = writeln!(
            out,
            "  {:34} {:>12} {:>12} {:>10.2}",
            format!("{}.{}", row.scope, row.function),
            row.calls,
            row.units,
            row.avg_units
        );
    }
    out
}

/// Renders the human-readable profile report.
pub fn render_profile(p: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile of `{}`", p.machine);

    let _ = writeln!(out, "\nreduction phases:");
    for t in &p.phases {
        let _ = writeln!(
            out,
            "  {:16} {:>10.3} ms  ({} span{})",
            t.phase,
            t.wall_ns as f64 / 1e6,
            t.spans,
            if t.spans == 1 { "" } else { "s" }
        );
    }
    if p.registry.counter("reduce.fallbacks") > 0 {
        let _ = writeln!(out, "  (!) reduction fell back to the original tables");
    }

    let _ = writeln!(out, "\nquery latency (ns/call):");
    let _ = writeln!(
        out,
        "  {:34} {:>12} {:>8} {:>8} {:>8}",
        "scope.function", "calls", "p50", "p99", "max"
    );
    for (name, h) in p.registry.histograms() {
        let Some(stem) = name.strip_suffix(".latency_ns") else {
            continue;
        };
        if h.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:34} {:>12} {:>8} {:>8} {:>8}",
            stem,
            h.count(),
            h.approx_quantile(0.5),
            h.approx_quantile(0.99),
            h.max().unwrap_or(0)
        );
    }

    let _ = writeln!(out, "\nwork units per call (Table 6 accounting):");
    let _ = writeln!(
        out,
        "  {:34} {:>12} {:>12} {:>10}",
        "scope.function", "calls", "units", "avg"
    );
    for row in work_rows(&p.registry) {
        let _ = writeln!(
            out,
            "  {:34} {:>12} {:>12} {:>10.2}",
            format!("{}.{}", row.scope, row.function),
            row.calls,
            row.units,
            row.avg_units
        );
    }

    if p.registry.counter("sched.loops") > 0 {
        let _ = writeln!(out, "\nscheduler:");
        for key in [
            "sched.loops",
            "sched.attempts",
            "sched.decisions",
            "sched.reversed_by_resource",
            "sched.reversed_by_dependence",
            "sched.mask_cache.hits",
            "sched.mask_cache.misses",
        ] {
            let _ = writeln!(
                out,
                "  {:28} {:>12}",
                key.strip_prefix("sched.").unwrap_or(key),
                p.registry.counter(key)
            );
        }
        if let Some(h) = p.registry.histogram("sched.ii") {
            let _ = writeln!(
                out,
                "  {:28} min {} / p50 {} / max {}",
                "achieved II",
                h.min().unwrap_or(0),
                h.approx_quantile(0.5),
                h.max().unwrap_or(0)
            );
        }
    }

    let attempts = p
        .events
        .iter()
        .filter(|e| e.cat == "sched" && e.name == "attempt")
        .count();
    let _ = writeln!(
        out,
        "\n{} events recorded ({} scheduler attempt spans, {} dropped)",
        p.events.len(),
        attempts,
        rmd_obs::dropped_events()
    );
    out
}

/// Deterministic suite-wide metrics: schedules `loops` across up to
/// `threads` workers and folds every per-loop result into one registry.
///
/// Because per-loop results are deterministic, results come back in
/// suite order, and every registry operation is associative and
/// commutative, the returned registry is **identical for any thread
/// count** — the property the metrics determinism test pins.
pub fn suite_metrics(
    machine: &MachineDescription,
    mii_machine: &MachineDescription,
    loops: &[rmd_loops::Loop],
    repr: Representation,
    budget_ratio: f64,
    threads: usize,
) -> MetricRegistry {
    let runs = run_suite_runs(machine, mii_machine, loops, repr, budget_ratio, threads);
    let mut reg = MetricRegistry::new();
    for r in &runs {
        fold_run(&mut reg, r);
    }
    reg
}

/// Folds one per-loop result into a registry (additive, so folding in
/// any grouping yields the same totals).
fn fold_run(reg: &mut MetricRegistry, r: &LoopRun) {
    r.counters.export_to(reg, "sched.query");
    reg.inc("sched.loops", 1);
    reg.inc("sched.reversed_by_resource", r.reversed_by_resource);
    reg.inc("sched.reversed_by_dependence", r.reversed_by_dependence);
    reg.observe("sched.ii", u64::from(r.ii));
    reg.observe("sched.ops", r.ops as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_tracing_lock as with_profile_lock;
    use rmd_machine::models::{cydra5_subset, example_machine};

    #[test]
    fn profile_covers_every_reduction_phase() {
        let p = with_profile_lock(|| {
            profile_machine(&example_machine(), &ProfileOptions::default())
        });
        assert_eq!(p.phases.len(), REDUCTION_PHASES.len());
        for t in &p.phases {
            assert!(t.spans >= 1, "phase `{}` has no spans", t.phase);
        }
        assert_eq!(p.registry.counter("reduce.fallbacks"), 0);
    }

    #[test]
    fn profile_meters_all_five_backends() {
        let p = with_profile_lock(|| {
            profile_machine(&example_machine(), &ProfileOptions::default())
        });
        for backend in [
            "discrete",
            "bitvec",
            "compiled",
            "modulo_discrete",
            "modulo_bitvec",
        ] {
            let key = format!("query.{backend}.check.latency_ns");
            let h = p.registry.histogram(&key).unwrap_or_else(|| {
                panic!("missing latency histogram `{key}`")
            });
            assert!(h.count() > 0, "{key} is empty");
            assert!(p.registry.counter(&format!("query.{backend}.check.calls")) > 0);
        }
    }

    #[test]
    fn profile_meters_window_queries() {
        let p = with_profile_lock(|| {
            profile_machine(&example_machine(), &ProfileOptions::default())
        });
        for backend in ["discrete", "bitvec"] {
            let key = format!("query.{backend}.check_window.latency_ns");
            let h = p
                .registry
                .histogram(&key)
                .unwrap_or_else(|| panic!("missing latency histogram `{key}`"));
            assert!(h.count() > 0, "{key} is empty");
            assert!(p.registry.counter(&format!("query.{backend}.check_window.calls")) > 0);
        }
        // The window rows ride along in the Table-6-style report.
        assert!(work_rows(&p.registry)
            .iter()
            .any(|r| r.function == "check_window" && r.calls > 0));
    }

    #[test]
    fn backend_filter_meters_only_the_requested_backend() {
        let p = with_profile_lock(|| {
            profile_machine(
                &example_machine(),
                &ProfileOptions {
                    backend: Some("compiled"),
                    ..ProfileOptions::default()
                },
            )
        });
        assert!(p.registry.counter("query.compiled.check.calls") > 0);
        for other in ["discrete", "bitvec", "modulo_discrete", "modulo_bitvec"] {
            assert_eq!(
                p.registry.counter(&format!("query.{other}.check.calls")),
                0,
                "{other} should be filtered out"
            );
        }
    }

    #[test]
    fn profile_schedules_suite_loops_when_supported() {
        let p = with_profile_lock(|| {
            profile_machine(
                &cydra5_subset(),
                &ProfileOptions {
                    loops: 8,
                    seed: SUITE_SEED,
                    backend: None,
                },
            )
        });
        assert_eq!(p.registry.counter("sched.loops"), 8);
        assert!(p.registry.counter("sched.query.check.calls") > 0);
        assert!(
            p.events
                .iter()
                .any(|e| e.cat == "sched" && e.name == "attempt"),
            "no attempt spans recorded"
        );
        let text = render_profile(&p);
        assert!(text.contains("reduction phases:"), "{text}");
        assert!(text.contains("sched.query.check"), "{text}");
        assert!(text.contains("mask_cache"), "{text}");
    }

    #[test]
    fn work_rows_pair_calls_with_units() {
        let mut reg = MetricRegistry::new();
        let mut w = rmd_obs::WorkCounters::new();
        w.record(QueryFn::Check, 7);
        w.record(QueryFn::Check, 3);
        w.export_to(&mut reg, "query.discrete");
        let rows = work_rows(&reg);
        let check = rows
            .iter()
            .find(|r| r.scope == "query.discrete" && r.function == "check")
            .expect("check row");
        assert_eq!(check.calls, 2);
        assert_eq!(check.units, 10);
        assert!((check.avg_units - 5.0).abs() < 1e-12);
    }

    #[test]
    fn suite_metrics_identical_across_thread_counts() {
        let m = cydra5_subset();
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let loops = rmd_loops::suite(&ops, 24, SUITE_SEED);
        let repr = Representation::Bitvec(WordLayout::widest(64, m.num_resources()));
        let r1 = suite_metrics(&m, &m, &loops, repr, 6.0, 1);
        let r2 = suite_metrics(&m, &m, &loops, repr, 6.0, 2);
        let r8 = suite_metrics(&m, &m, &loops, repr, 6.0, 8);
        assert_eq!(r1, r2);
        assert_eq!(r1, r8);
        assert_eq!(r1.counter("sched.loops"), 24);
        assert!(r1.histogram("sched.ii").is_some());
    }

    #[test]
    fn profile_record_serializes_well_formed_json() {
        let p = with_profile_lock(|| {
            profile_machine(&example_machine(), &ProfileOptions::default())
        });
        let rec = profile_record(&p);
        assert_eq!(rec.schema, PROFILE_SCHEMA);
        let json = serde_json::to_string_pretty(&rec).unwrap();
        assert!(crate::benchcmd::json_is_well_formed(&json), "{json}");
        assert!(json.contains("\"phase\": \"genset\""), "{json}");
    }
}
