//! Shared infrastructure for the table/figure binaries: reduction
//! sweeps, suite scheduling runs, plain-text table rendering, and
//! machine-readable experiment records.

use rmd_core::{avg_word_usages, reduce, verify_equivalence, Objective, Reduction};
use rmd_latency::{ClassPartition, ForbiddenMatrix};
use rmd_loops::Loop;
use rmd_machine::MachineDescription;
use rmd_query::{ModuloMaskCache, WordLayout, WorkCounters};
use rmd_sched::{mii, ImsConfig, IterativeModuloScheduler, Representation, SchedScratch};
use serde::Serialize;
use std::path::Path;

pub mod benchcmd;
pub mod compare;
pub mod parallel;
pub mod profile;

/// The query-backend vocabulary accepted by the `--backend` filter of
/// `rmd bench` and `rmd profile`, in profile-report order.
pub const BACKEND_NAMES: [&str; 5] = [
    "discrete",
    "bitvec",
    "compiled",
    "modulo_discrete",
    "modulo_bitvec",
];

/// One column of a paper Table 1–4 style report.
#[derive(Clone, Debug, Serialize)]
pub struct ColumnStats {
    /// Column label ("original", "res-uses", "2-cycle-word", ...).
    pub label: String,
    /// Number of modeled resources.
    pub num_resources: usize,
    /// Average resource usages per operation class.
    pub avg_usages_per_op: f64,
    /// Cycles per word used for the word-usage metric.
    pub k: u32,
    /// Average nonempty words per operation class, over all alignments.
    pub avg_word_usages: f64,
}

/// A full reduction report for one machine (one paper table).
#[derive(Clone, Debug, Serialize)]
pub struct ReductionReport {
    /// Machine name.
    pub machine: String,
    /// Operation-class count.
    pub num_classes: usize,
    /// Total nonnegative forbidden latencies.
    pub forbidden_latencies: usize,
    /// Largest forbidden latency.
    pub max_latency: i32,
    /// Per-column statistics.
    pub columns: Vec<ColumnStats>,
}

/// Runs the paper's Table 1–4 sweep on `machine`: the original
/// description, the discrete (res-uses) reduction, and one
/// k-cycle-word reduction per entry of `word_bits` (k chosen as
/// `word_bits / reduced resource count`, as the paper does), plus the
/// 1-cycle-word column.
///
/// Every reduction is verified to preserve the forbidden-latency matrix
/// exactly before being reported.
///
/// # Panics
///
/// Panics if any reduction fails verification (that would be a bug, not
/// an input property).
pub fn reduction_report(machine: &MachineDescription, word_bits: &[u32]) -> ReductionReport {
    let f = ForbiddenMatrix::compute(machine);
    let classes = ClassPartition::compute(machine, &f);
    let class_machine = classes.class_machine(machine).expect("valid machine");
    let cf = ForbiddenMatrix::compute(&class_machine);

    let mut columns = Vec::new();
    columns.push(ColumnStats {
        label: "original".into(),
        num_resources: machine.num_resources(),
        avg_usages_per_op: class_machine.avg_usages_per_op(),
        k: 1,
        avg_word_usages: avg_word_usages(&class_machine, 1),
    });

    let res_uses = checked_reduce(machine, Objective::ResUses);
    let n0 = res_uses.reduced_classes.num_resources().max(1);
    columns.push(ColumnStats {
        label: "res-uses".into(),
        num_resources: n0,
        avg_usages_per_op: res_uses.reduced_classes.avg_usages_per_op(),
        k: 1,
        avg_word_usages: avg_word_usages(&res_uses.reduced_classes, 1),
    });

    let mut ks = vec![1u32];
    for &wb in word_bits {
        ks.push((wb / n0 as u32).max(1));
    }
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        let red = checked_reduce(machine, Objective::KCycleWord { k });
        columns.push(ColumnStats {
            label: format!("{k}-cycle-word"),
            num_resources: red.reduced_classes.num_resources(),
            avg_usages_per_op: red.reduced_classes.avg_usages_per_op(),
            k,
            avg_word_usages: avg_word_usages(&red.reduced_classes, k),
        });
    }

    ReductionReport {
        machine: machine.name().to_owned(),
        num_classes: classes.num_classes(),
        forbidden_latencies: cf.total_nonneg(),
        max_latency: cf.max_latency(),
        columns,
    }
}

/// Runs [`reduction_report`] for several machines across up to
/// `threads` worker threads (see [`parallel::run_indexed`]), the
/// largest machines (operations × resources) first; reports come back
/// in input order, identical to mapping serially.
pub fn reduction_reports_parallel(
    machines: &[&MachineDescription],
    word_bits: &[u32],
    threads: usize,
) -> Vec<ReductionReport> {
    let costs: Vec<u64> = machines
        .iter()
        .map(|m| (m.num_operations() * m.num_resources()) as u64)
        .collect();
    parallel::run_indexed(
        machines.len(),
        threads,
        &costs,
        || (),
        |(), i| reduction_report(machines[i], word_bits),
    )
}

/// Reduces under `objective` and asserts exact equivalence.
pub fn checked_reduce(machine: &MachineDescription, objective: Objective) -> Reduction {
    let red = reduce(machine, objective);
    verify_equivalence(machine, &red.reduced)
        .unwrap_or_else(|e| panic!("{}: reduction broke equivalence: {e}", machine.name()));
    red
}

/// Renders a [`ReductionReport`] in the layout of the paper's Tables 1–4.
pub fn render_report(r: &ReductionReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} operation classes, {} forbidden latencies (all < {})",
        r.machine,
        r.num_classes,
        r.forbidden_latencies,
        r.max_latency + 1
    );
    let w = 16usize;
    let _ = write!(out, "{:34}", "");
    for c in &r.columns {
        let _ = write!(out, "{:>w$}", c.label);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:34}", "number of resources");
    for c in &r.columns {
        let _ = write!(out, "{:>w$}", c.num_resources);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:34}", "avg resource usages / operation");
    for c in &r.columns {
        let _ = write!(out, "{:>w$.1}", c.avg_usages_per_op);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:34}", "avg word usages / operation");
    for c in &r.columns {
        let _ = write!(out, "{:>w$}", format!("{:.1} (k={})", c.avg_word_usages, c.k));
    }
    let _ = writeln!(out);
    out
}

/// Aggregate results of scheduling a loop suite (paper Tables 5 and 6).
#[derive(Clone, Debug, Serialize)]
pub struct SuiteStats {
    /// Loops scheduled.
    pub loops: usize,
    /// Operation-count distribution: (min, percent at min, mean, max).
    pub ops: Distribution,
    /// II distribution.
    pub ii: Distribution,
    /// II/MII distribution.
    pub ii_ratio: Distribution,
    /// Scheduling decisions per operation, averaged over attempts.
    pub decisions_per_op: Distribution,
    /// Fraction of loops scheduled at II = MII.
    pub at_mii: f64,
    /// Fraction of loops with no reversed decision.
    pub no_reversal: f64,
    /// Fraction of attempts that exceeded the budget.
    pub budget_exceeded: f64,
    /// Fraction of `assign&free` calls (per loop) that evicted something,
    /// and the share of reversals due to resources.
    pub resource_reversal_share: f64,
    /// Merged query-module work counters.
    pub counters: CounterSummary,
}

/// Min / share-at-min / mean / max of a statistic (the paper's Table 5
/// row format).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Distribution {
    /// Smallest value.
    pub min: f64,
    /// Fraction of samples equal to the minimum.
    pub at_min: f64,
    /// Mean.
    pub mean: f64,
    /// Largest value.
    pub max: f64,
}

impl Distribution {
    /// Computes the distribution of `xs` (empty input yields zeros).
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Distribution {
                min: 0.0,
                at_min: 0.0,
                mean: 0.0,
                max: 0.0,
            };
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let at_min = xs.iter().filter(|&&x| (x - min).abs() < 1e-9).count() as f64 / xs.len() as f64;
        Distribution { min, at_min, mean, max }
    }
}

/// Serializable view of [`WorkCounters`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CounterSummary {
    /// check: (calls, avg units).
    pub check_calls: u64,
    /// Average work units per check call.
    pub check_avg: f64,
    /// assign&free calls.
    pub assign_free_calls: u64,
    /// Average work units per assign&free call.
    pub assign_free_avg: f64,
    /// free calls.
    pub free_calls: u64,
    /// Average work units per free call.
    pub free_avg: f64,
    /// Weighted average units over all calls.
    pub weighted_avg: f64,
    /// Optimistic→update transitions.
    pub transitions: u64,
    /// Batched window queries issued (the scalar-equivalent work they
    /// replace is already folded into `check_calls`/`check_avg`).
    pub check_window_calls: u64,
    /// Backend word loads performed by the batched scans.
    pub check_window_loads: u64,
}

impl From<&WorkCounters> for CounterSummary {
    fn from(w: &WorkCounters) -> Self {
        CounterSummary {
            check_calls: w.check.calls,
            check_avg: w.check.avg(),
            assign_free_calls: w.assign_free.calls,
            assign_free_avg: w.assign_free.avg(),
            free_calls: w.free.calls,
            free_avg: w.free.avg(),
            weighted_avg: w.weighted_avg_units(),
            transitions: w.transitions,
            check_window_calls: w.check_window.calls,
            check_window_loads: w.check_window.units,
        }
    }
}

/// Per-loop outcome of a suite run — the unit of work sharded by the
/// parallel runner and folded (always in suite order) by [`aggregate`].
#[derive(Clone, Debug, PartialEq)]
pub struct LoopRun {
    /// Operations in the loop body.
    pub ops: usize,
    /// Achieved initiation interval.
    pub ii: u32,
    /// The MII lower bound (computed from the MII machine).
    pub mii: u32,
    /// Issue time per node — schedule-identity checks between serial and
    /// parallel runs compare these directly.
    pub times: Vec<u32>,
    /// Scheduling decisions per operation, one entry per II attempt.
    pub per_attempt_ratio: Vec<f64>,
    /// Decisions reversed by resource eviction.
    pub reversed_by_resource: u64,
    /// Decisions reversed by dependence violation.
    pub reversed_by_dependence: u64,
    /// Query-module work counters for this loop.
    pub counters: WorkCounters,
}

/// Per-worker steady-state buffers — a mask cache and scheduling
/// scratch — when the representation can use a cache.
fn worker_state(
    machine: &MachineDescription,
    repr: Representation,
) -> Option<(ModuloMaskCache, SchedScratch)> {
    match repr {
        Representation::Bitvec(layout) => {
            Some((ModuloMaskCache::new(machine, layout), SchedScratch::new()))
        }
        Representation::Discrete => None,
    }
}

/// Cheap per-loop cost estimates driving the parallel runner's
/// [`parallel::ClaimPlan`]: `ops × resource-pressure bound` — the
/// dominant terms of IMS work (each attempt places about `ops`
/// operations and the slot-search window is one II wide, with the
/// pressure bound a lower bound on II). Dispatch metadata only: the
/// estimate decides which loop a worker claims next, never what any
/// loop's schedule looks like.
pub fn loop_costs(machine: &MachineDescription, loops: &[Loop]) -> Vec<u64> {
    let mut per_res = vec![0u64; machine.num_resources()];
    loops
        .iter()
        .map(|l| {
            per_res.iter_mut().for_each(|c| *c = 0);
            for n in l.graph.nodes() {
                let t = machine.operation(l.graph.op(n)).table();
                for u in t.usages() {
                    per_res[u.resource.index()] += 1;
                }
            }
            let pressure = per_res.iter().copied().max().unwrap_or(1).max(1);
            (l.graph.num_nodes() as u64).saturating_mul(pressure).max(1)
        })
        .collect()
}

/// Schedules one loop: the worker body of [`run_suite_runs`].
fn run_one(
    ims: &IterativeModuloScheduler,
    machine: &MachineDescription,
    mii_machine: &MachineDescription,
    l: &Loop,
    repr: Representation,
    state: &mut Option<(ModuloMaskCache, SchedScratch)>,
) -> LoopRun {
    let m = mii::mii(&l.graph, mii_machine);
    let mut r = match state {
        Some((cache, scratch)) => {
            ims.schedule_with_mii_cached_scratch(&l.graph, machine, repr, m, cache, scratch)
        }
        None => ims.schedule_with_mii(&l.graph, machine, repr, m),
    }
    .unwrap_or_else(|e| panic!("{}: {e}", l.name));
    // `times`/`per_attempt_ratio` are retained in the record; the ops
    // vector is not, so hand its capacity back to the scratch.
    if let Some((_, scratch)) = state {
        scratch.recycle_ops(std::mem::take(&mut r.chosen));
    }
    LoopRun {
        ops: l.graph.num_nodes(),
        ii: r.ii,
        mii: r.mii,
        times: std::mem::take(&mut r.times),
        per_attempt_ratio: std::mem::take(&mut r.per_attempt_ratio),
        reversed_by_resource: r.reversed_by_resource,
        reversed_by_dependence: r.reversed_by_dependence,
        counters: r.counters,
    }
}

/// Schedules every loop of `loops` on `machine` with the given
/// representation and budget ratio, returning per-loop results in suite
/// order; [`aggregate`] folds them into the paper's [`SuiteStats`].
/// `mii_machine` supplies the MII (pass the original description when
/// `machine` is a reduction so trajectories are comparable).
///
/// `threads` is a parallelism budget for [`parallel::run_indexed`]: at
/// one worker the loops run inline in suite order; otherwise they are
/// claimed in descending [`loop_costs`] order so the expensive ones
/// start first, cheap loops are claimed in batches, and the worker
/// count is capped at the host's available parallelism.
///
/// Results are identical at every thread count: each loop is scheduled
/// independently by a deterministic scheduler, each worker owns a
/// private [`ModuloMaskCache`] + [`SchedScratch`] pair (sharing is only
/// of immutable compiled masks, never of reservation or scratch state),
/// and merging is positional. Only wall-clock time depends on the
/// thread count.
pub fn run_suite_runs(
    machine: &MachineDescription,
    mii_machine: &MachineDescription,
    loops: &[Loop],
    repr: Representation,
    budget_ratio: f64,
    threads: usize,
) -> Vec<LoopRun> {
    let ims = IterativeModuloScheduler::new(ImsConfig {
        budget_ratio,
        ..ImsConfig::default()
    });
    parallel::run_indexed(
        loops.len(),
        threads,
        &loop_costs(machine, loops),
        || worker_state(machine, repr),
        |state, i| run_one(&ims, machine, mii_machine, &loops[i], repr, state),
    )
}

/// Folds per-loop results into the paper's Table 5/6 statistics.
///
/// Deterministic in the input order: [`run_suite_runs`] presents runs
/// in suite order at every thread count, so their [`SuiteStats`] agree
/// bit-for-bit.
pub fn aggregate(runs: &[LoopRun], budget_ratio: f64) -> SuiteStats {
    let mut ops_v = Vec::new();
    let mut ii_v = Vec::new();
    let mut ratio_v = Vec::new();
    let mut dec_v = Vec::new();
    let mut at_mii = 0usize;
    let mut no_reversal = 0usize;
    let mut attempts_total = 0usize;
    let mut attempts_over = 0usize;
    let mut reversals_resource = 0u64;
    let mut reversals_total = 0u64;
    let mut counters = WorkCounters::new();

    for r in runs {
        ops_v.push(r.ops as f64);
        ii_v.push(f64::from(r.ii));
        ratio_v.push(f64::from(r.ii) / f64::from(r.mii));
        for &ratio in &r.per_attempt_ratio {
            dec_v.push(ratio);
            attempts_total += 1;
            if ratio >= budget_ratio {
                attempts_over += 1;
            }
        }
        if r.ii == r.mii {
            at_mii += 1;
        }
        if r.reversed_by_resource + r.reversed_by_dependence == 0 {
            no_reversal += 1;
        }
        reversals_resource += r.reversed_by_resource;
        reversals_total += r.reversed_by_resource + r.reversed_by_dependence;
        counters.merge(&r.counters);
    }

    SuiteStats {
        loops: runs.len(),
        ops: Distribution::of(&ops_v),
        ii: Distribution::of(&ii_v),
        ii_ratio: Distribution::of(&ratio_v),
        decisions_per_op: Distribution::of(&dec_v),
        at_mii: at_mii as f64 / runs.len().max(1) as f64,
        no_reversal: no_reversal as f64 / runs.len().max(1) as f64,
        budget_exceeded: attempts_over as f64 / attempts_total.max(1) as f64,
        resource_reversal_share: if reversals_total == 0 {
            0.0
        } else {
            reversals_resource as f64 / reversals_total as f64
        },
        counters: (&counters).into(),
    }
}

/// The representations compared in Table 6, in paper column order,
/// for a machine with `num_resources` reduced resources.
pub fn table6_representations(num_resources: usize) -> Vec<(String, Objective, Representation)> {
    let mut out = vec![(
        "discrete res-uses".to_owned(),
        Objective::ResUses,
        Representation::Discrete,
    )];
    let mut ks = vec![1u32];
    ks.push((32 / num_resources as u32).max(1));
    ks.push((64 / num_resources as u32).max(1));
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        out.push((
            format!("bitvec {k}-cycle-word"),
            Objective::KCycleWord { k },
            Representation::Bitvec(WordLayout::with_k(64, k)),
        ));
    }
    out
}

/// Writes an experiment record as pretty JSON under `results/`.
///
/// # Panics
///
/// Panics on I/O errors — these binaries are experiment drivers and a
/// failure to record results should be loud.
pub fn write_record<T: Serialize>(id: &str, record: &T) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(record).expect("serialize record");
    std::fs::write(&path, json).expect("write record");
    println!("\n[recorded results/{id}.json]");
}

/// Serializes the tests that toggle the process-global tracing flag
/// (`rmd profile` runs and the bench record's traced `phases` pass).
#[cfg(test)]
pub(crate) fn with_tracing_lock<R>(f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::{cydra5_subset, mips_r3000};

    #[test]
    fn distribution_basics() {
        let d = Distribution::of(&[1.0, 1.0, 2.0, 4.0]);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 4.0);
        assert!((d.mean - 2.0).abs() < 1e-12);
        assert!((d.at_min - 0.5).abs() < 1e-12);
        let empty = Distribution::of(&[]);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn reduction_report_columns_are_consistent() {
        let r = reduction_report(&mips_r3000(), &[32, 64]);
        assert_eq!(r.columns[0].label, "original");
        assert_eq!(r.columns[1].label, "res-uses");
        assert!(r.columns.len() >= 3);
        // Reduction must shrink resources and usages.
        assert!(r.columns[1].num_resources < r.columns[0].num_resources);
        assert!(r.columns[1].avg_usages_per_op < r.columns[0].avg_usages_per_op);
    }

    #[test]
    fn small_suite_runs_end_to_end() {
        let m = cydra5_subset();
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let loops = rmd_loops::suite(&ops, 25, 42);
        let runs = run_suite_runs(&m, &m, &loops, Representation::Discrete, 6.0, 1);
        let stats = aggregate(&runs, 6.0);
        assert_eq!(stats.loops, 25);
        assert!(stats.at_mii > 0.5, "at_mii = {}", stats.at_mii);
        assert!(stats.counters.check_calls > 0);
    }

    #[test]
    fn suite_is_byte_identical_at_all_thread_counts() {
        let m = cydra5_subset();
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let loops = rmd_loops::suite(&ops, 24, 0xC5);
        let repr = Representation::Bitvec(WordLayout::widest(64, m.num_resources()));
        let serial = run_suite_runs(&m, &m, &loops, repr, 6.0, 1);
        for threads in [2, 8] {
            let par = run_suite_runs(&m, &m, &loops, repr, 6.0, threads);
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn window_path_loads_strictly_fewer_words_than_scalar_on_cydra5() {
        // The counter-based perf guard (no wall-clock flakiness): on the
        // cydra5 subset's bitvec representation the batched slot search
        // must answer from strictly fewer backend word loads than the
        // per-cycle scan, which by construction performs one load per
        // mask entry probed (`check.units`).
        let m = cydra5_subset();
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let loops = rmd_loops::suite(&ops, 24, 0xC5);
        let repr = Representation::Bitvec(WordLayout::widest(64, m.num_resources()));
        let runs = run_suite_runs(&m, &m, &loops, repr, 6.0, 1);
        let mut merged = WorkCounters::new();
        for r in &runs {
            merged.merge(&r.counters);
        }
        assert!(merged.check_window.calls > 0, "window path not exercised");
        assert!(
            merged.check_window.units > 0 && merged.check_window.units < merged.check.units,
            "window loads {} vs scalar loads {}",
            merged.check_window.units,
            merged.check.units,
        );
    }
}
