//! Shared infrastructure for the table/figure binaries: reduction
//! sweeps, the serial suite runner, plain-text table rendering, and
//! machine-readable experiment records.

use rmd_core::{avg_word_usages, reduce, Objective};
use rmd_loops::Loop;
use rmd_machine::MachineDescription;
use rmd_query::{ModuloMaskCache, WordLayout, WorkCounters};
use rmd_sched::{
    mii, ImsConfig, ImsResult, IterativeModuloScheduler, Representation, SchedScratch,
};
use serde::Serialize;
use std::path::Path;

pub mod profile;

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
/// The class count, the class matrix and the original column come from
/// the res-uses reduction's step 1, and every reduction is verified to
/// preserve the forbidden-latency matrix exactly (by [`reduce`]) before
/// being reported.
///
/// # Panics
///
/// Panics if any reduction fails verification (that would be a bug, not
/// an input property).
pub fn reduction_report(machine: &MachineDescription, word_bits: &[u32]) -> ReductionReport {
    let res_uses = reduce(machine, Objective::ResUses);
    let class_machine = &res_uses.class_machine;

    let mut columns = Vec::new();
    columns.push(ColumnStats {
        label: "original".into(),
        num_resources: machine.num_resources(),
        avg_usages_per_op: class_machine.avg_usages_per_op(),
        k: 1,
        avg_word_usages: avg_word_usages(class_machine, 1),
    });

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
        let red = reduce(machine, Objective::KCycleWord { k });
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
        num_classes: res_uses.classes.num_classes(),
        forbidden_latencies: res_uses.matrix.total_nonneg(),
        max_latency: res_uses.matrix.max_latency(),
        columns,
    }
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
        let _ = write!(
            out,
            "{:>w$}",
            format!("{:.1} (k={})", c.avg_word_usages, c.k)
        );
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
        let at_min =
            xs.iter().filter(|&&x| (x - min).abs() < 1e-9).count() as f64 / xs.len() as f64;
        Distribution {
            min,
            at_min,
            mean,
            max,
        }
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

/// Schedules every loop of `loops` on `machine` with the given
/// representation and budget ratio, serially and in suite order, and
/// returns one [`ImsResult`] per loop; [`aggregate`] folds them into the
/// paper's [`SuiteStats`]. `mii_machine` supplies the MII (pass the
/// original description when `machine` is a reduction so trajectories
/// are comparable). A bitvector run reuses one [`ModuloMaskCache`] and
/// one [`SchedScratch`] for the whole suite.
///
/// # Panics
///
/// Panics, naming the loop, if some loop has no feasible II: the table
/// binaries are experiment drivers, and every loop of the paper's suite
/// schedules on the shipped machines.
pub fn run_suite_runs(
    machine: &MachineDescription,
    mii_machine: &MachineDescription,
    loops: &[Loop],
    repr: Representation,
    budget_ratio: f64,
) -> Vec<ImsResult> {
    let ims = IterativeModuloScheduler::new(ImsConfig {
        budget_ratio,
        ..ImsConfig::default()
    });
    let mut cached = match repr {
        Representation::Bitvec(layout) => {
            Some((ModuloMaskCache::new(machine, layout), SchedScratch::new()))
        }
        Representation::Discrete => None,
    };
    loops
        .iter()
        .map(|l| {
            let m = mii::mii(&l.graph, mii_machine);
            match &mut cached {
                Some((cache, scratch)) => {
                    ims.schedule_with_mii_cached_scratch(&l.graph, machine, repr, m, cache, scratch)
                }
                None => ims.schedule_with_mii(&l.graph, machine, repr, m),
            }
            .unwrap_or_else(|e| panic!("{}: {e}", l.name))
        })
        .collect()
}

/// Folds per-loop results, in suite order, into the paper's Table 5/6
/// statistics.
pub fn aggregate(runs: &[ImsResult], budget_ratio: f64) -> SuiteStats {
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
        ops_v.push(r.times.len() as f64);
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
    use rmd_machine::models::{cydra5_subset, mips_r3000};

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
        let runs = run_suite_runs(&m, &m, &loops, Representation::Discrete, 6.0);
        let stats = aggregate(&runs, 6.0);
        assert_eq!(stats.loops, 25);
        assert!(stats.at_mii > 0.5, "at_mii = {}", stats.at_mii);
        assert!(stats.counters.check_calls > 0);
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
        let runs = run_suite_runs(&m, &m, &loops, repr, 6.0);
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
