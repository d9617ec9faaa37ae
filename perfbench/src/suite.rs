//! The `suite` phase: a compiler modulo-scheduling the paper's loop
//! suite (plus a few seeded loops) serially against the *reduced* cydra5
//! subset, with the k-cycle-word objective and widest 64-bit layout
//! `rmd serve` uses, MII from the original description, and one warm
//! mask cache and scratch.

use crate::stats::{lower_decile, median, quantile, ratio};
use crate::{traced_round, Outcome, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmd_core::{reduce_with_fallback, Objective, ReduceOptions};
use rmd_loops::random::{random_loop, RandomLoopParams};
use rmd_loops::Loop;
use rmd_machine::{models, MachineDescription};
use rmd_query::{ModuloMaskCache, WordLayout, WorkCounters};
use rmd_sched::{
    mii, ImsConfig, ImsError, ImsResult, IterativeModuloScheduler, Representation, SchedScratch,
};
use std::time::Instant;

/// Loops in the paper's corpus, generated with `rmd_loops`' default seed.
const PAPER_LOOPS: usize = 1327;
const PAPER_SEED: u64 = 0xC5;
/// Loops drawn from the run's seed and appended to the paper's corpus.
/// They are small, so the seed changes the inputs (and every counter)
/// without letting a few heavy loops drawn by one seed move the timings.
const SEEDED_LOOPS: usize = 64;
/// Suite passes a companion run makes.
const COMPANION_PASSES: usize = 40;

/// Deterministic counters of one pass over the suite; equal for equal
/// seeds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    loops: u64,
    ops: u64,
    attempts: u64,
    attempts_over_budget: u64,
    decision_ratio_sum: f64,
    reversals: u64,
    at_mii: u64,
    ii_over_mii_sum: f64,
    work: WorkCounters,
}

impl Counts {
    fn add(&mut self, r: &ImsResult, ops: usize) {
        self.loops += 1;
        self.ops += ops as u64;
        self.attempts += u64::from(r.attempts);
        for &d in &r.per_attempt_ratio {
            self.decision_ratio_sum += d;
            if d >= ImsConfig::default().budget_ratio {
                self.attempts_over_budget += 1;
            }
        }
        self.reversals += r.reversed_by_resource + r.reversed_by_dependence;
        if r.ii == r.mii {
            self.at_mii += 1;
        }
        self.ii_over_mii_sum += r.ii_ratio();
        self.work.merge(&r.counters);
    }
}

/// Timings of one pass.
struct Pass {
    wall_ms: f64,
    mii_us: f64,
    ims_us: f64,
    /// Share of the pass wall time spent inside mii + IMS.
    attributed: f64,
}

/// A loop's schedule as the reference the timed passes must reproduce.
struct Expected {
    ii: u32,
    times: Vec<u32>,
}

pub struct Suite {
    original: MachineDescription,
    reduced: MachineDescription,
    loops: Vec<Loop>,
    ims: IterativeModuloScheduler,
    cache: ModuloMaskCache,
    scratch: SchedScratch,
    expected: Vec<Expected>,
    /// Warm-up results, validated after set-up timing ends.
    warmup: Vec<ImsResult>,
    seed: u64,
    /// Each loop's fastest untraced time: the per-item latency the
    /// quantiles are taken over, free of stretches of host contention.
    best_ns: Vec<u64>,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    pub counts: Counts,
    pub generate_ms: f64,
    pub reduce_ms: f64,
}

/// The workload's loops: the paper's corpus plus `SEEDED_LOOPS` random
/// bodies of 2 to 24 operations drawn from `seed`.
pub fn generate(original: &MachineDescription, seed: u64) -> Vec<Loop> {
    let ops = rmd_loops::OpSet::for_cydra_subset(original);
    let mut loops = rmd_loops::suite(&ops, PAPER_LOOPS, PAPER_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..SEEDED_LOOPS {
        let params = RandomLoopParams {
            size: rng.gen_range(2..25),
            ..RandomLoopParams::default()
        };
        loops.push(Loop {
            name: format!("seeded#{i}"),
            graph: random_loop(&ops, &mut rng, params),
        });
    }
    loops
}

/// Schedules every loop on `machine` (MII from `original`) with the
/// cache's layout and hands each outcome to `f`; a result `f` hands back
/// is recycled into `scratch`.
fn schedule_each(
    ims: &IterativeModuloScheduler,
    loops: &[Loop],
    original: &MachineDescription,
    machine: &MachineDescription,
    cache: &mut ModuloMaskCache,
    scratch: &mut SchedScratch,
    mut f: impl FnMut(&Loop, Result<ImsResult, ImsError>) -> Option<ImsResult>,
) {
    let repr = Representation::Bitvec(cache.layout());
    for l in loops {
        let m = mii::mii(&l.graph, original);
        let r = ims.schedule_with_mii_cached_scratch(&l.graph, machine, repr, m, cache, scratch);
        if let Some(r) = f(l, r) {
            scratch.recycle(r);
        }
    }
}

impl Suite {
    /// Generates the loops, reduces the machine, and warms the mask
    /// cache and scratch with one full pass.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let original = models::cydra5_subset();
        let t0 = Instant::now();
        let loops = generate(&original, seed);
        let generate_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let layout = WordLayout::widest(64, original.num_resources());
        let red = reduce_with_fallback(
            &original,
            Objective::KCycleWord { k: layout.k },
            &ReduceOptions::default(),
        );
        let reduce_ms = t1.elapsed().as_secs_f64() * 1e3;
        if red.fallback.is_some() {
            return Err("cydra5 subset reduction fell back to the original".into());
        }
        let reduced = red.machine;
        let mut cache =
            ModuloMaskCache::new(&reduced, WordLayout::widest(64, reduced.num_resources()));
        let mut scratch = SchedScratch::new();
        let ims = IterativeModuloScheduler::new(ImsConfig::default());
        let (mut counts, mut expected, mut warmup) = (Counts::default(), Vec::new(), Vec::new());
        let mut failure = None;
        schedule_each(
            &ims,
            &loops,
            &original,
            &reduced,
            &mut cache,
            &mut scratch,
            |l, r| {
                match r {
                    Ok(r) => {
                        counts.add(&r, l.graph.num_nodes());
                        expected.push(Expected {
                            ii: r.ii,
                            times: r.times.clone(),
                        });
                        warmup.push(r);
                    }
                    Err(e) => failure = Some(format!("{}: {e}", l.name)),
                }
                None
            },
        );
        if let Some(f) = failure {
            return Err(f);
        }
        Ok(Suite {
            best_ns: vec![u64::MAX; loops.len()],
            original,
            reduced,
            loops,
            ims,
            cache,
            scratch,
            expected,
            warmup,
            seed,
            untraced: Vec::new(),
            traced: Vec::new(),
            counts,
            generate_ms,
            reduce_ms,
        })
    }

    /// One timed pass over the suite; the mii/IMS split is only taken
    /// when `traced`.
    fn pass(&mut self, traced: bool, out: &mut Outcome) -> Pass {
        let repr = Representation::Bitvec(self.cache.layout());
        let (mut mii_ns, mut ims_ns) = (0u64, 0u64);
        let start = Instant::now();
        for ((l, want), best) in self.loops.iter().zip(&self.expected).zip(&mut self.best_ns) {
            let t0 = Instant::now();
            let m = mii::mii(&l.graph, &self.original);
            let t1 = if traced { Some(Instant::now()) } else { None };
            let r = self.ims.schedule_with_mii_cached_scratch(
                &l.graph,
                &self.reduced,
                repr,
                m,
                &mut self.cache,
                &mut self.scratch,
            );
            let t2 = Instant::now();
            match t1 {
                Some(t1) => {
                    mii_ns += (t1 - t0).as_nanos() as u64;
                    ims_ns += (t2 - t1).as_nanos() as u64;
                }
                None => *best = (*best).min((t2 - t0).as_nanos() as u64),
            }
            out.attempted += 1;
            match r {
                Ok(r) => {
                    out.check(r.ii == want.ii && r.times == want.times, || {
                        format!("{}: schedule differs from the validated one", l.name)
                    });
                    self.scratch.recycle(r);
                }
                Err(e) => out.check(false, || format!("{}: {e}", l.name)),
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let n = self.loops.len() as f64;
        Pass {
            wall_ms: wall_ns as f64 / 1e6,
            mii_us: mii_ns as f64 / 1e3 / n,
            ims_us: ims_ns as f64 / 1e3 / n,
            attributed: (mii_ns + ims_ns) as f64 / wall_ns as f64,
        }
    }

    /// Every warm-up schedule must pass validation against the original
    /// reservation tables.
    fn check_warmup(&mut self, out: &mut Outcome) {
        for (l, r) in self.loops.iter().zip(self.warmup.drain(..)) {
            let v = rmd_sched::validate(&l.graph, &self.original, &r);
            out.check(v.is_ok(), || format!("{}: invalid schedule: {v:?}", l.name));
            self.scratch.recycle(r);
        }
    }

    /// The paper's claim: scheduling the same loops on the *original*
    /// description gives identical times and II.
    fn check_against_original(&self, out: &mut Outcome) {
        let layout = WordLayout::widest(64, self.original.num_resources());
        let mut cache = ModuloMaskCache::new(&self.original, layout);
        let mut want = self.expected.iter();
        schedule_each(
            &self.ims,
            &self.loops,
            &self.original,
            &self.original,
            &mut cache,
            &mut SchedScratch::new(),
            |l, r| {
                let want = want.next().expect("one expectation per loop");
                out.check(
                    r.as_ref()
                        .is_ok_and(|r| r.ii == want.ii && r.times == want.times),
                    || format!("{}: original and reduced descriptions disagree", l.name),
                );
                r.ok()
            },
        );
    }

    /// Self-check: counters repeat for the same seed (checked across
    /// set-up repetitions) and change for another seed.
    fn check_seed_sensitivity(&self, out: &mut Outcome) {
        let other = self.seed.wrapping_add(1);
        let mut counts = Counts::default();
        schedule_each(
            &self.ims,
            &generate(&self.original, other),
            &self.original,
            &self.reduced,
            &mut ModuloMaskCache::new(&self.reduced, self.cache.layout()),
            &mut SchedScratch::new(),
            |l, r| {
                let r = r.ok()?;
                counts.add(&r, l.graph.num_nodes());
                Some(r)
            },
        );
        out.check(counts != self.counts, || {
            format!(
                "seeds {} and {other} gave identical scheduler counters",
                self.seed
            )
        });
    }
}

impl Phase for Suite {
    fn companion_rounds(&self) -> usize {
        COMPANION_PASSES
    }

    fn warm(&mut self, _index: usize) {
        schedule_each(
            &self.ims,
            &self.loops,
            &self.original,
            &self.reduced,
            &mut self.cache,
            &mut self.scratch,
            |_, r| r.ok(),
        );
    }

    /// One pass over the suite; with tracing on, every other pass is
    /// traced.
    fn round(&mut self, index: usize, trace: bool, out: &mut Outcome) {
        let traced = traced_round(trace, index);
        let pass = self.pass(traced, out);
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
        .push(pass);
    }

    fn finish(&mut self, out: &mut Outcome) {
        self.check_warmup(out);
        self.check_against_original(out);
        self.check_seed_sensitivity(out);

        let low =
            |v: &[Pass], f: fn(&Pass) -> f64| lower_decile(&v.iter().map(f).collect::<Vec<_>>());
        let (untraced, traced) = (&self.untraced, &self.traced);
        let c = &self.counts;
        let loops = c.loops as f64;
        let mut best = self.best_ns.clone();
        let best_s = best.iter().sum::<u64>() as f64 / 1e9;
        let p50 = quantile(&mut best, 0.50) as f64 / 1e3;
        let p99 = quantile(&mut best, 0.99) as f64 / 1e3;
        out.e2e("loops_per_s", ratio(loops, best_s), "1/s");
        out.e2e("loop_p50_us", p50, "us");
        out.e2e("loop_p99_us", p99, "us");
        out.e2e("ii_over_mii", ratio(c.ii_over_mii_sum, loops), "ratio");
        out.e2e("at_mii_share", ratio(c.at_mii as f64, loops), "share");

        let w = &c.work;
        let attempts = c.attempts as f64;
        for (name, value, unit) in [
            ("sched.mii_us", low(traced, |p| p.mii_us), "us"),
            ("sched.ims_us", low(traced, |p| p.ims_us), "us"),
            ("sched.attempts_per_loop", ratio(attempts, loops), "count"),
            (
                "sched.decisions_per_op",
                ratio(c.decision_ratio_sum, attempts),
                "ratio",
            ),
            (
                "sched.budget_exceeded_share",
                ratio(c.attempts_over_budget as f64, attempts),
                "share",
            ),
            (
                "sched.reversals_per_loop",
                ratio(c.reversals as f64, loops),
                "count",
            ),
            ("query.check_calls", w.check.calls as f64, "count"),
            (
                "query.check_window_calls",
                w.check_window.calls as f64,
                "count",
            ),
            (
                "query.check_window_loads",
                w.check_window.units as f64,
                "count",
            ),
            (
                "query.assign_free_calls",
                w.assign_free.calls as f64,
                "count",
            ),
            ("query.free_calls", w.free.calls as f64, "count"),
            ("query.work_units", w.total_units() as f64, "count"),
            (
                "suite.unattributed_share",
                1.0 - median(&traced.iter().map(|p| p.attributed).collect::<Vec<_>>()),
                "share",
            ),
            (
                "suite.trace_overhead_share",
                ratio(low(traced, |p| p.wall_ms), low(untraced, |p| p.wall_ms)) - 1.0,
                "share",
            ),
        ] {
            out.layer(name, value, unit);
        }
        out.report.push(format!(
            "suite: {} passes ({} traced) of {} loops ({} ops); pass {:.2} ms lower decile, \
             {:.2} median, {:.2} sum of per-loop bests; loop p50 {p50:.2} us, p99 {p99:.2} us \
             over {} per-loop bests; II/MII {:.4}, at MII {:.4}",
            untraced.len() + traced.len(),
            traced.len(),
            c.loops,
            c.ops,
            low(untraced, |p| p.wall_ms),
            median(&untraced.iter().map(|p| p.wall_ms).collect::<Vec<_>>()),
            best_s * 1e3,
            best.len(),
            ratio(c.ii_over_mii_sum, loops),
            ratio(c.at_mii as f64, loops),
        ));
    }
}
