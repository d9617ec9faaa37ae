//! The engine behind the `rmd bench` CLI subcommand.
//!
//! Runs reduction, query, and (where the machine supports the loop
//! suite) scheduler workloads against one machine and emits a
//! machine-readable `BENCH_<name>.json` record — the perf trajectory
//! every later optimization PR is judged against.
//!
//! Record schema (`"schema": "rmd-bench/6"`): see the field docs on
//! [`BenchRecord`] and the schema note in the repository README.
//! Schema 2 added the `phases` section — per-phase wall-clock of one
//! traced reduction run (see [`crate::profile::PhaseTiming`]). Schema 3
//! added the `query_window` section — batched window queries vs the
//! scalar per-cycle scan (see [`QueryWindowBench`]) — and the
//! `check_window` fields of [`crate::CounterSummary`]. Schema 4 added
//! the `serve` section — the `rmd serve` daemon load-driver workload
//! (see [`ServeBench`]); the CLI fills it in, so records written by
//! other drivers carry `"serve": null`. Schema 5 added the `stress`
//! section — a seeded 100k-loop scheduling stress run sized for the
//! parallel scheduler (see [`StressBench`]); like `scheduler`, it is
//! `null` for machines outside the suite vocabulary. Schema 6 adds the
//! top-level `host_parallelism` field (cores actually available to the
//! run — the honest denominator for any speedup) and the
//! `speedup_by_threads` sweeps on `scheduler` and `stress` (see
//! [`ThreadSpeedup`]): parallel wall-clock and schedule identity at
//! several thread counts, with the legacy flat `parallel_wall_ms` /
//! `speedup` / `schedules_identical` fields now aliases for the sweep
//! entry at the record's `threads`.
//! Timings are wall-clock milliseconds measured on whatever host ran
//! the bench; the derived throughput numbers (`queries_per_sec`,
//! `speedup`) are for trend-watching, not cross-host comparison.

use crate::{
    aggregate, reduction_report, run_suite_runs, SuiteStats,
    BACKEND_NAMES,
};
use rmd_loops::Loop;
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{
    BitvecModule, CompiledModule, ContentionQuery, DiscreteModule, ModuloBitvecModule,
    ModuloDiscreteModule, OpInstance, WordLayout, WorkCounters,
};
use rmd_sched::Representation;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag stamped into every record; bump on breaking layout
/// changes.
pub const SCHEMA: &str = "rmd-bench/6";

/// Loop count of the full suite (the paper's §8 corpus).
pub const FULL_LOOPS: usize = 1327;

/// Loop count under `--quick` (CI smoke).
pub const QUICK_LOOPS: usize = 64;

/// Suite generator seed, matching the `table5`/`table6` binaries so
/// bench trajectories are comparable with the paper-table runs.
pub const SUITE_SEED: u64 = 0xC5;

/// Loop count of the full stress run (schema rmd-bench/5).
pub const STRESS_FULL_LOOPS: usize = 100_000;

/// Stress loop count under `--quick` (CI smoke).
pub const STRESS_QUICK_LOOPS: usize = 2_000;

/// Stress-suite generator seed.
pub const STRESS_SEED: u64 = 0x57_7E55; // "stress"

/// Options of one `rmd bench` invocation.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Shrink every workload for CI smoke runs.
    pub quick: bool,
    /// Worker threads for the parallel suite run.
    pub threads: usize,
    /// Directory the `BENCH_*.json` records are written to.
    pub out_dir: PathBuf,
    /// Query backend the `query_window` workload runs against (a
    /// [`BACKEND_NAMES`] entry; `None` means `"bitvec"`). The CLI
    /// validates user input before it reaches here.
    pub backend: Option<&'static str>,
}

/// A sensible default worker-thread count: the host's available
/// parallelism, but at least 4 so the parallel-vs-serial comparison is
/// meaningful even when the runtime underreports cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4)
}

/// One `BENCH_<name>.json` record.
#[derive(Clone, Debug, Serialize)]
pub struct BenchRecord {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Machine name.
    pub machine: String,
    /// Whether the workloads were shrunk by `--quick`.
    pub quick: bool,
    /// Worker threads used by the parallel suite run.
    pub threads: usize,
    /// Logical CPUs available to the benching process (schema
    /// rmd-bench/6 addition). The honest denominator for every speedup
    /// in the record: a `speedup` near 1.0 at `threads = 8` means
    /// nothing was lost to parallel overhead when this is 1, and means
    /// the runner failed to scale when this is 8.
    pub host_parallelism: usize,
    /// Record creation time, seconds since the Unix epoch.
    pub unix_time_secs: u64,
    /// Reduction-sweep workload.
    pub reduction: ReductionBench,
    /// Per-phase wall-clock of one traced `reduce_with_fallback` run
    /// (schema rmd-bench/2 addition; canonical phase order).
    pub phases: Vec<crate::profile::PhaseTiming>,
    /// Contention-query workload.
    pub query: QueryBench,
    /// Batched window queries vs the scalar per-cycle scan (schema
    /// rmd-bench/3 addition).
    pub query_window: QueryWindowBench,
    /// Loop-suite scheduling workload; `null` for machines outside the
    /// Cydra benchmark-subset vocabulary.
    pub scheduler: Option<SchedulerBench>,
    /// `rmd serve` daemon load-driver workload (schema rmd-bench/4
    /// addition). Plain data: the driver lives in `rmd-serve` and the
    /// CLI glues its report in here, so this crate stays free of a
    /// daemon dependency. `null` when the driver did not run.
    pub serve: Option<ServeBench>,
    /// Seeded 100k-loop scheduling stress run (schema rmd-bench/5
    /// addition); `null` for machines outside the suite vocabulary.
    pub stress: Option<StressBench>,
}

/// One entry of a `speedup_by_threads` sweep (schema rmd-bench/6):
/// the parallel suite run repeated at one thread count against the
/// same serial baseline. Entries are sorted by ascending `threads`, so
/// compare metric paths like `scheduler.speedup_by_threads.0.speedup`
/// stay stable across regenerated records.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ThreadSpeedup {
    /// Requested worker threads (the runner additionally caps OS
    /// workers at [`BenchRecord::host_parallelism`]).
    pub threads: usize,
    /// Parallel wall-clock milliseconds at this thread count.
    pub parallel_wall_ms: f64,
    /// Serial wall-clock over this entry's parallel wall-clock.
    pub speedup: f64,
    /// Whether this run reproduced the serial per-loop results
    /// bit-for-bit.
    pub schedules_identical: bool,
}

/// The seeded many-loop scheduling stress run (schema rmd-bench/5):
/// [`STRESS_FULL_LOOPS`] small loop bodies, serial vs parallel wall
/// clock, and the bit-identity of the two runs' schedules. Where the
/// paper-shape [`SchedulerBench`] measures per-loop scheduling quality,
/// this section measures sustained throughput at a loop count two
/// orders of magnitude larger — the regime where worker startup and
/// work-stealing overheads amortize and the parallel runner must win.
#[derive(Clone, Debug, Serialize)]
pub struct StressBench {
    /// Generator seed ([`STRESS_SEED`]).
    pub seed: u64,
    /// Loops scheduled.
    pub loops: usize,
    /// Total operations placed.
    pub ops_scheduled: u64,
    /// Serial wall-clock milliseconds.
    pub serial_wall_ms: f64,
    /// Parallel wall-clock milliseconds at [`BenchRecord::threads`].
    pub parallel_wall_ms: f64,
    /// `serial_wall_ms / parallel_wall_ms`.
    pub speedup: f64,
    /// Whether the parallel run reproduced the serial per-loop results
    /// bit-for-bit.
    pub schedules_identical: bool,
    /// Serial-run throughput, loops per second.
    pub loops_per_sec: f64,
    /// Thread-count sweep (schema rmd-bench/6): the flat fields above
    /// are the entry at [`BenchRecord::threads`].
    pub speedup_by_threads: Vec<ThreadSpeedup>,
}

/// Throughput and tail latency of an in-process `rmd serve` load run
/// (schema rmd-bench/4). Filled in by the CLI from the `rmd-serve`
/// load driver.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ServeBench {
    /// Requests answered in the timed phase.
    pub requests: u64,
    /// Successful replies.
    pub ok: u64,
    /// Typed error replies.
    pub errors: u64,
    /// Requests shed by the bounded admission queue in the burst phase.
    pub shed: u64,
    /// Timed-phase throughput, requests per second.
    pub req_per_s: f64,
    /// Median handler latency, nanoseconds (rmd-obs histogram).
    pub p50_ns: u64,
    /// 99th-percentile handler latency, nanoseconds.
    pub p99_ns: u64,
}

/// Timing of repeated full reduction sweeps (Tables 1–4 shape).
#[derive(Clone, Debug, Serialize)]
pub struct ReductionBench {
    /// Sweep repetitions timed.
    pub rounds: u32,
    /// Verified reductions performed across all rounds.
    pub reductions: u64,
    /// Total wall-clock milliseconds.
    pub wall_ms: f64,
    /// Verified reductions per second.
    pub reductions_per_sec: f64,
}

/// Timing of a deterministic check/assign/free workload on the linear
/// bitvector module.
#[derive(Clone, Debug, Serialize)]
pub struct QueryBench {
    /// Workload rounds.
    pub rounds: u32,
    /// Query-module calls issued (check + assign + free).
    pub queries: u64,
    /// Work units handled (paper §8 accounting).
    pub work_units: u64,
    /// Total wall-clock milliseconds.
    pub wall_ms: f64,
    /// Query calls per second.
    pub queries_per_sec: f64,
}

/// Head-to-head timing of the batched window queries against the
/// per-cycle scan they replace, both through `&mut dyn ContentionQuery`
/// (the scheduler's access path). The scalar pass assembles each
/// 64-cycle availability bitmask from individual `check` calls; the
/// window pass asks `check_window` once per window on the same module
/// state, so `masks_identical` pins semantic equivalence while the
/// load counters pin the mechanical saving.
#[derive(Clone, Debug, Serialize)]
pub struct QueryWindowBench {
    /// Backend the workload ran against (a [`BACKEND_NAMES`] entry).
    pub backend: String,
    /// Workload rounds (each scans the whole cycle span once).
    pub rounds: u32,
    /// Window queries issued per pass.
    pub windows: u64,
    /// Wall-clock milliseconds of the scalar per-cycle pass.
    pub scalar_wall_ms: f64,
    /// Wall-clock milliseconds of the batched window pass.
    pub window_wall_ms: f64,
    /// `scalar_wall_ms / window_wall_ms`.
    pub speedup: f64,
    /// Backend word loads of the scalar pass (its `check` units).
    pub scalar_mask_loads: u64,
    /// Backend word loads of the window pass (its `check_window`
    /// units — strictly fewer on word-packed backends).
    pub window_mask_loads: u64,
    /// Whether both passes produced bit-identical availability masks.
    pub masks_identical: bool,
}

/// One bucket of the achieved-II histogram.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IiBucket {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Loops scheduled at it.
    pub loops: u64,
}

/// Timing of the loop-suite scheduling run, serial vs parallel.
#[derive(Clone, Debug, Serialize)]
pub struct SchedulerBench {
    /// Loops scheduled.
    pub loops: usize,
    /// Total operations placed (sum of loop body sizes).
    pub ops_scheduled: u64,
    /// Serial wall-clock milliseconds.
    pub serial_wall_ms: f64,
    /// Parallel wall-clock milliseconds at [`BenchRecord::threads`].
    pub parallel_wall_ms: f64,
    /// `serial_wall_ms / parallel_wall_ms` (< 1 means parallel lost —
    /// expected on single-core hosts, recorded faithfully either way).
    pub speedup: f64,
    /// Whether the parallel run reproduced the serial per-loop results
    /// bit-for-bit (times, IIs, statistics, and work counters).
    pub schedules_identical: bool,
    /// Query-module calls per second of the serial run.
    pub queries_per_sec: f64,
    /// Achieved-II histogram over the suite.
    pub ii_histogram: Vec<IiBucket>,
    /// The paper's Table 5/6 statistics for the run.
    pub stats: SuiteStats,
    /// Thread-count sweep (schema rmd-bench/6): the flat
    /// `parallel_wall_ms` / `speedup` / `schedules_identical` fields
    /// above are the entry at [`BenchRecord::threads`].
    pub speedup_by_threads: Vec<ThreadSpeedup>,
}

/// Whether `m` carries the Cydra benchmark-subset vocabulary the loop
/// suite is generated from.
pub fn suite_supported(m: &MachineDescription) -> bool {
    [
        "load.w.0", "load.w.1", "store.w.0", "store.w.1", "aadd.0", "aadd.1", "fadd", "fmul",
        "fmul.d", "iadd", "recip", "brtop",
    ]
    .iter()
    .all(|n| m.op_by_name(n).is_some())
}

fn reduction_bench(m: &MachineDescription, rounds: u32) -> ReductionBench {
    let mut reductions = 0u64;
    let start = Instant::now();
    for _ in 0..rounds {
        let report = reduction_report(m, &[32, 64]);
        // Every column past "original" is one verified reduction.
        reductions += report.columns.len().saturating_sub(1) as u64;
    }
    let wall = start.elapsed().as_secs_f64();
    ReductionBench {
        rounds,
        reductions,
        wall_ms: wall * 1e3,
        reductions_per_sec: reductions as f64 / wall.max(1e-9),
    }
}

fn query_bench(m: &MachineDescription, rounds: u32) -> QueryBench {
    let layout = WordLayout::widest(64, m.num_resources());
    let mut q = BitvecModule::new(m, layout);
    let nops = m.num_operations() as u32;
    let mut totals = WorkCounters::new();
    let start = Instant::now();
    for round in 0..rounds {
        // Greedy fill over a cycle window, then tear down in reverse —
        // exercises check, assign, and free on live state.
        let mut placed: Vec<(u32, OpId, u32)> = Vec::new();
        let mut inst = 0u32;
        for cycle in 0..512u32 {
            let op = OpId((cycle + round) % nops.max(1));
            if q.check(op, cycle) {
                q.assign(OpInstance(inst), op, cycle);
                placed.push((inst, op, cycle));
                inst += 1;
            }
        }
        for &(i, op, c) in placed.iter().rev() {
            q.free(OpInstance(i), op, c);
        }
        totals.merge(q.counters());
        q.reset();
    }
    let wall = start.elapsed().as_secs_f64();
    let queries = totals.total_calls();
    QueryBench {
        rounds,
        queries,
        work_units: totals.total_units(),
        wall_ms: wall * 1e3,
        queries_per_sec: queries as f64 / wall.max(1e-9),
    }
}

/// Builds the named query backend over `m`. The modulo backends use an
/// II of the longest reservation table so every operation fits.
fn backend_module(m: &MachineDescription, name: &str) -> Box<dyn ContentionQuery> {
    let layout = WordLayout::widest(64, m.num_resources());
    let ii = m.max_table_length().max(1);
    match name {
        "discrete" => Box::new(DiscreteModule::new(m)),
        "bitvec" => Box::new(BitvecModule::new(m, layout)),
        "compiled" => Box::new(CompiledModule::new(m, layout)),
        "modulo_discrete" => Box::new(ModuloDiscreteModule::new(m, ii)),
        "modulo_bitvec" => Box::new(ModuloBitvecModule::new(m, ii, layout)),
        other => panic!("unknown backend `{other}` (the CLI validates names)"),
    }
}

fn query_window_bench(m: &MachineDescription, rounds: u32, backend: &str) -> QueryWindowBench {
    let span = 512u32;
    let nops = m.num_operations().max(1) as u32;
    let mut module = backend_module(m, backend);
    let q: &mut dyn ContentionQuery = module.as_mut();

    // Greedy fill so each window sees a mix of free and busy cycles.
    let mut inst = 0u32;
    for cycle in 0..span {
        let op = OpId(cycle % nops);
        if q.check(op, cycle) {
            q.assign(OpInstance(inst), op, cycle);
            inst += 1;
        }
    }

    let windows_per_round = span / 64;
    let mut scalar_masks = Vec::new();
    let scalar_loads_before = q.counters().check.units;
    let t0 = Instant::now();
    for round in 0..rounds {
        for w in 0..windows_per_round {
            let op = OpId((w + round) % nops);
            let start = w * 64;
            let mut mask = 0u64;
            for i in 0..64u32 {
                if q.check(op, start + i) {
                    mask |= 1u64 << i;
                }
            }
            if round == 0 {
                scalar_masks.push(mask);
            }
        }
    }
    let scalar_wall = t0.elapsed().as_secs_f64();
    let scalar_mask_loads = q.counters().check.units - scalar_loads_before;

    let mut window_masks = Vec::new();
    let window_loads_before = q.counters().check_window.units;
    let t1 = Instant::now();
    for round in 0..rounds {
        for w in 0..windows_per_round {
            let op = OpId((w + round) % nops);
            let mask = q.check_window(op, w * 64, 64);
            if round == 0 {
                window_masks.push(mask);
            }
        }
    }
    let window_wall = t1.elapsed().as_secs_f64();
    let window_mask_loads = q.counters().check_window.units - window_loads_before;

    QueryWindowBench {
        backend: backend.to_owned(),
        rounds,
        windows: u64::from(rounds) * u64::from(windows_per_round),
        scalar_wall_ms: scalar_wall * 1e3,
        window_wall_ms: window_wall * 1e3,
        speedup: scalar_wall / window_wall.max(1e-9),
        scalar_mask_loads,
        window_mask_loads,
        masks_identical: scalar_masks == window_masks,
    }
}

/// The thread counts a section sweeps: `base` (the schema-6 canonical
/// points) plus the record's own `threads`, ascending and deduplicated.
fn sweep_threads(base: &[usize], opts_threads: usize) -> Vec<usize> {
    let mut v = base.to_vec();
    v.push(opts_threads);
    v.sort_unstable();
    v.dedup();
    v
}

/// Runs the parallel suite once per swept thread count against a
/// serial baseline measured by the caller.
fn sweep_speedups(
    m: &MachineDescription,
    loops: &[Loop],
    repr: Representation,
    budget_ratio: f64,
    serial: &[crate::LoopRun],
    serial_wall: f64,
    threads: &[usize],
) -> Vec<ThreadSpeedup> {
    threads
        .iter()
        .map(|&t| {
            let t0 = Instant::now();
            let parallel = run_suite_runs(m, m, loops, repr, budget_ratio, t);
            let wall = t0.elapsed().as_secs_f64();
            ThreadSpeedup {
                threads: t,
                parallel_wall_ms: wall * 1e3,
                speedup: serial_wall / wall.max(1e-9),
                schedules_identical: serial == parallel,
            }
        })
        .collect()
}

fn scheduler_bench(m: &MachineDescription, opts: &BenchOptions) -> SchedulerBench {
    let ops = rmd_loops::OpSet::for_cydra_subset(m);
    let count = if opts.quick { QUICK_LOOPS } else { FULL_LOOPS };
    let loops = rmd_loops::suite(&ops, count, SUITE_SEED);
    let repr = Representation::Bitvec(WordLayout::widest(64, m.num_resources()));
    let budget_ratio = 6.0;

    let t0 = Instant::now();
    let serial = run_suite_runs(m, m, &loops, repr, budget_ratio, 1);
    let serial_wall = t0.elapsed().as_secs_f64();

    let base: &[usize] = if opts.quick { &[2] } else { &[2, 8] };
    let sweep = sweep_threads(base, opts.threads);
    let speedup_by_threads =
        sweep_speedups(m, &loops, repr, budget_ratio, &serial, serial_wall, &sweep);
    let at_threads = speedup_by_threads
        .iter()
        .find(|s| s.threads == opts.threads)
        .copied()
        .expect("sweep includes the record's own thread count");

    let stats = aggregate(&serial, budget_ratio);
    let ops_scheduled: u64 = serial.iter().map(|r| r.ops as u64).sum();
    let queries: u64 = serial.iter().map(|r| r.counters.total_calls()).sum();
    let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &serial {
        *hist.entry(r.ii).or_insert(0) += 1;
    }

    SchedulerBench {
        loops: loops.len(),
        ops_scheduled,
        serial_wall_ms: serial_wall * 1e3,
        parallel_wall_ms: at_threads.parallel_wall_ms,
        speedup: at_threads.speedup,
        schedules_identical: at_threads.schedules_identical,
        queries_per_sec: queries as f64 / serial_wall.max(1e-9),
        ii_histogram: hist
            .into_iter()
            .map(|(ii, loops)| IiBucket { ii, loops })
            .collect(),
        stats,
        speedup_by_threads,
    }
}

/// Generates the scheduling stress suite: `count` seeded loop bodies
/// drawn small on purpose (geometric sizes, mean ≈ 7 operations, tail
/// capped at 40) so a 100k-loop run finishes in seconds while still
/// placing the better part of a million operations. Small bodies are
/// also the adversarial case for the parallel runner — per-loop work
/// barely exceeds the cost of handing the loop to a worker — which is
/// exactly what the serial-vs-parallel comparison should stress.
/// Deterministic in `(count, seed)`.
pub fn stress_suite(ops: &rmd_loops::OpSet, count: usize, seed: u64) -> Vec<Loop> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            // Geometric-ish size draw: P(grow) = 5/6 per step from 2,
            // capped at 40 — mean ≈ 7 operations.
            let mut size = 2usize;
            while size < 40 && rng.gen_range(0..6) != 0 {
                size += 1;
            }
            let graph = rmd_loops::random::random_loop(
                ops,
                &mut rng,
                rmd_loops::random::RandomLoopParams {
                    size,
                    ..Default::default()
                },
            );
            Loop {
                name: format!("stress#{i}"),
                graph,
            }
        })
        .collect()
}

fn stress_bench(m: &MachineDescription, opts: &BenchOptions) -> StressBench {
    let ops = rmd_loops::OpSet::for_cydra_subset(m);
    let count = if opts.quick {
        STRESS_QUICK_LOOPS
    } else {
        STRESS_FULL_LOOPS
    };
    let loops = stress_suite(&ops, count, STRESS_SEED);
    let repr = Representation::Bitvec(WordLayout::widest(64, m.num_resources()));
    let budget_ratio = 6.0;

    let t0 = Instant::now();
    let serial = run_suite_runs(m, m, &loops, repr, budget_ratio, 1);
    let serial_wall = t0.elapsed().as_secs_f64();

    let base: &[usize] = if opts.quick { &[2] } else { &[1, 2, 4, 8] };
    let sweep = sweep_threads(base, opts.threads);
    let speedup_by_threads =
        sweep_speedups(m, &loops, repr, budget_ratio, &serial, serial_wall, &sweep);
    let at_threads = speedup_by_threads
        .iter()
        .find(|s| s.threads == opts.threads)
        .copied()
        .expect("sweep includes the record's own thread count");

    StressBench {
        seed: STRESS_SEED,
        loops: loops.len(),
        ops_scheduled: serial.iter().map(|r| r.ops as u64).sum(),
        serial_wall_ms: serial_wall * 1e3,
        parallel_wall_ms: at_threads.parallel_wall_ms,
        speedup: at_threads.speedup,
        schedules_identical: at_threads.schedules_identical,
        loops_per_sec: loops.len() as f64 / serial_wall.max(1e-9),
        speedup_by_threads,
    }
}

/// One traced `reduce_with_fallback` run, folded into per-phase
/// wall-clock aggregates (the schema-2 `phases` section). Runs before
/// the timed workloads so the brief tracing window cannot skew them.
fn phases_bench(m: &MachineDescription) -> Vec<crate::profile::PhaseTiming> {
    rmd_obs::set_enabled(true);
    let _ = rmd_obs::drain_events();
    let _ = rmd_core::reduce_with_fallback(
        m,
        rmd_core::Objective::ResUses,
        &rmd_core::ReduceOptions::default(),
    );
    let events = rmd_obs::drain_events();
    rmd_obs::set_enabled(false);
    crate::profile::aggregate_phases(&events)
}

/// Runs all applicable workloads against `machine`.
pub fn bench_machine(machine: &MachineDescription, opts: &BenchOptions) -> BenchRecord {
    let (red_rounds, query_rounds) = if opts.quick { (1, 8) } else { (3, 64) };
    // Window rounds are higher: each round is only a handful of window
    // queries, and the speedup ratio needs enough samples to be stable.
    let window_rounds = if opts.quick { 64 } else { 512 };
    BenchRecord {
        schema: SCHEMA.to_owned(),
        machine: machine.name().to_owned(),
        quick: opts.quick,
        threads: opts.threads,
        host_parallelism: crate::parallel::host_parallelism(),
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        reduction: reduction_bench(machine, red_rounds),
        phases: phases_bench(machine),
        query: query_bench(machine, query_rounds),
        query_window: query_window_bench(
            machine,
            window_rounds,
            opts.backend.unwrap_or(BACKEND_NAMES[1]),
        ),
        scheduler: suite_supported(machine).then(|| scheduler_bench(machine, opts)),
        serve: None,
        stress: suite_supported(machine).then(|| stress_bench(machine, opts)),
    }
}

/// Canonical file-name form of a machine name: every character outside
/// `[A-Za-z0-9_]` becomes `_`. Deterministic and idempotent, so
/// spelling variants like `cydra5-subset` and `cydra5_subset` land on
/// the same `BENCH_cydra5_subset.json` and a trajectory can never fork
/// into near-duplicate record files.
pub fn sanitize_machine_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

/// Writes `record` as `BENCH_<machine>.json` under `out_dir` (machine
/// name passed through [`sanitize_machine_name`]) and returns the path.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created
/// or the file cannot be written.
pub fn write_bench_record(record: &BenchRecord, out_dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("BENCH_{}.json", sanitize_machine_name(&record.machine)));
    let json = serde_json::to_string_pretty(record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Checks that `s` is one well-formed JSON value (full syntax: objects,
/// arrays, strings with escapes, numbers, literals). Predates the
/// `serde_json` shim's parser and is kept as an independent
/// well-formedness oracle: it accepts exactly the JSON grammar without
/// building a value tree, so record-emission tests cross-check against
/// it rather than trusting one parser to validate its own sibling.
pub fn json_is_well_formed(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if !parse_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        skip_ws(b, pos);
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return false;
                            }
                            *pos += 1;
                        }
                    }
                    _ => return false,
                }
            }
            0x00..=0x1F => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > start
    };
    if !digits(b, pos) {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::{cydra5_subset, example_machine};

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            "\"a\\nb\\u00e9\"",
            "{\"a\": [1, 2.5, true, null], \"b\": {\"c\": \"d\"}}",
        ] {
            assert!(json_is_well_formed(good), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} {}",
            "01e",
            "\"bad\\q\"",
        ] {
            assert!(!json_is_well_formed(bad), "{bad}");
        }
    }

    #[test]
    fn bench_filenames_are_sanitized_deterministically() {
        // Spelling variants collapse onto one canonical record file...
        assert_eq!(sanitize_machine_name("cydra5-subset"), "cydra5_subset");
        assert_eq!(sanitize_machine_name("cydra5_subset"), "cydra5_subset");
        assert_eq!(sanitize_machine_name("a b/c.mdl"), "a_b_c_mdl");
        // ...and the map is idempotent, so re-sanitizing never drifts.
        for name in ["cydra5-subset", "fig1", "zoo wide-issue", "x&y"] {
            let once = sanitize_machine_name(name);
            assert_eq!(sanitize_machine_name(&once), once, "{name}");
        }
    }

    #[test]
    fn suite_support_matches_vocabulary() {
        assert!(suite_supported(&cydra5_subset()));
        assert!(!suite_supported(&example_machine()));
    }

    #[test]
    fn bench_record_for_non_suite_machine() {
        let opts = BenchOptions {
            quick: true,
            threads: 2,
            out_dir: PathBuf::from("."),
            backend: None,
        };
        let rec = crate::with_tracing_lock(|| bench_machine(&example_machine(), &opts));
        assert_eq!(rec.schema, SCHEMA);
        assert!(rec.scheduler.is_none());
        assert_eq!(rec.phases.len(), rmd_core::REDUCTION_PHASES.len());
        assert!(rec.phases.iter().all(|t| t.spans >= 1), "{:?}", rec.phases);
        assert!(rec.query.queries > 0);
        assert!(rec.query.queries_per_sec > 0.0);
        assert!(rec.reduction.reductions > 0);
        assert_eq!(rec.query_window.backend, "bitvec");
        assert!(rec.query_window.windows > 0);
        assert!(rec.query_window.speedup.is_finite());
        assert!(rec.query_window.masks_identical);
        // fig1's widest layout packs 12 cycles per word: the batched
        // scan must answer from strictly fewer loads than the scalar
        // one-load-per-probed-mask-entry pass.
        assert!(
            rec.query_window.window_mask_loads > 0
                && rec.query_window.window_mask_loads < rec.query_window.scalar_mask_loads,
            "{:?}",
            rec.query_window
        );
        let json = serde_json::to_string_pretty(&rec).unwrap();
        assert!(json_is_well_formed(&json), "{json}");
    }

    #[test]
    fn query_window_masks_agree_on_every_backend() {
        let m = cydra5_subset();
        for name in crate::BACKEND_NAMES {
            let qw = query_window_bench(&m, 2, name);
            assert!(qw.masks_identical, "{name}: {qw:?}");
            assert!(qw.windows > 0, "{name}");
        }
    }

    #[test]
    fn bench_record_round_trips_to_disk() {
        let opts = BenchOptions {
            quick: true,
            threads: 2,
            out_dir: std::env::temp_dir().join("rmd-benchcmd-test"),
            backend: None,
        };
        let mut rec = crate::with_tracing_lock(|| bench_machine(&example_machine(), &opts));
        rec.machine = "benchcmd-unit".into(); // avoid clobbering real records
        let path = write_bench_record(&rec, &opts.out_dir).unwrap();
        assert!(path.ends_with("BENCH_benchcmd_unit.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(json_is_well_formed(&body));
        assert!(body.contains("\"schema\": \"rmd-bench/6\""));
        assert!(body.contains("\"phases\""));
        assert!(body.contains("\"query_window\""));
        assert!(body.contains("\"serve\""));
        assert!(body.contains("\"stress\""));
        assert!(body.contains("\"host_parallelism\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scheduler_sweep_covers_requested_thread_counts() {
        let m = cydra5_subset();
        let opts = BenchOptions {
            quick: true,
            threads: 8,
            out_dir: PathBuf::from("."),
            backend: None,
        };
        let sb = scheduler_bench(&m, &opts);
        let swept: Vec<usize> = sb.speedup_by_threads.iter().map(|s| s.threads).collect();
        // Quick sweeps {2} ∪ {opts.threads}, ascending.
        assert_eq!(swept, vec![2, 8]);
        for s in &sb.speedup_by_threads {
            assert!(s.schedules_identical, "threads={}", s.threads);
            assert!(s.speedup.is_finite() && s.speedup > 0.0, "threads={}", s.threads);
        }
        // The flat fields alias the sweep entry at the record's threads.
        let at = sb
            .speedup_by_threads
            .iter()
            .find(|s| s.threads == opts.threads)
            .unwrap();
        assert_eq!(sb.parallel_wall_ms, at.parallel_wall_ms);
        assert_eq!(sb.speedup, at.speedup);
        assert_eq!(sb.schedules_identical, at.schedules_identical);
    }

    #[test]
    fn sweep_threads_dedups_and_sorts() {
        assert_eq!(sweep_threads(&[2, 8], 8), vec![2, 8]);
        assert_eq!(sweep_threads(&[2, 8], 4), vec![2, 4, 8]);
        assert_eq!(sweep_threads(&[1, 2, 4, 8], 16), vec![1, 2, 4, 8, 16]);
        assert_eq!(sweep_threads(&[2], 1), vec![1, 2]);
    }

    #[test]
    fn stress_suite_is_deterministic_and_sized_small() {
        let m = cydra5_subset();
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let a = stress_suite(&ops, 300, STRESS_SEED);
        let b = stress_suite(&ops, 300, STRESS_SEED);
        assert_eq!(a.len(), 300);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph, y.graph);
        }
        // Small-body distribution: every size within the cap (+1 for
        // brtop), mean well under the paper suite's 17.5.
        let sizes: Vec<usize> = a.iter().map(|l| l.graph.num_nodes()).collect();
        assert!(sizes.iter().all(|&s| (3..=41).contains(&s)), "{sizes:?}");
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((4.0..=14.0).contains(&avg), "mean stress body size {avg:.2}");
        assert_ne!(
            stress_suite(&ops, 10, 1)[9].graph,
            stress_suite(&ops, 10, 2)[9].graph,
            "seed must matter"
        );
    }

    #[test]
    fn stress_bench_schedules_identically_in_parallel() {
        let m = cydra5_subset();
        let opts = BenchOptions {
            quick: true,
            threads: 2,
            out_dir: PathBuf::from("."),
            backend: None,
        };
        // The quick count is already CI-sized; shrink further for the
        // unit test by running the core directly on a small suite.
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let loops = stress_suite(&ops, 200, STRESS_SEED);
        let repr = Representation::Bitvec(WordLayout::widest(64, m.num_resources()));
        let serial = run_suite_runs(&m, &m, &loops, repr, 6.0, 1);
        // The full-bench sweep points: byte-identical at every count.
        for threads in [1usize, 2, 4, 8, opts.threads] {
            let parallel = run_suite_runs(&m, &m, &loops, repr, 6.0, threads);
            assert_eq!(serial, parallel, "threads={threads}: stress run must be bit-identical");
        }
        assert_eq!(serial.len(), 200);
        assert!(serial.iter().map(|r| r.ops as u64).sum::<u64>() > 1_000);
    }
}
