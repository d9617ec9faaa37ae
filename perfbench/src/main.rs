//! Benchmark harness for the reduced machine description stack.
//!
//! ```text
//! rmd-perfbench --workload suite|certify|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run executes three phases — modulo-scheduling the loop suite,
//! certifying reductions, and a closed-loop serve stream — on inputs
//! drawn from `--seed`. The phase named by `--workload` runs rounds for
//! `--seconds`; the other two run a fixed number of companion rounds
//! spread over the same time, so every end-to-end metric is measured on
//! every workload. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` rounds alternate untraced and
//! traced and it carries the per-layer metrics. A human-readable report
//! goes to stderr. Run from the repository root: inputs are read from
//! `machines/` and `certs/`. See `README.md` next to this crate.

mod certify;
mod serve;
mod stats;
mod suite;

use std::sync::mpsc;
use std::time::Instant;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Suite,
    Certify,
    ServeMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "suite" => Some(Workload::Suite),
            "certify" => Some(Workload::Certify),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

/// One of the three measured phases, driven round by round.
pub trait Phase: Send {
    /// Rounds the phase makes when it is not the workload's own.
    fn companion_rounds(&self) -> usize;
    /// Runs round `index`, recording attempts and failed checks.
    fn round(&mut self, index: usize, trace: bool, out: &mut Outcome);
    /// Untimed work run before companion round `index`, so the round
    /// does not pay for the caches the other phases evicted.
    fn warm(&mut self, _index: usize) {}
    /// Whether the workload's own phase may stop after `rounds` rounds
    /// once its time is up.
    fn can_stop(&self, rounds: usize) -> bool {
        rounds >= 2
    }
    /// Runs the end-of-run checks and reports the metrics.
    fn finish(&mut self, out: &mut Outcome);
}

/// Whether round `i` is traced: with tracing on, rounds alternate so the
/// untraced rounds give the baseline for the tracing overhead.
pub fn traced_round(trace: bool, i: usize) -> bool {
    trace && i % 2 == 1
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one phase measured.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable report lines (stderr).
    pub report: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records the outcome of one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.report.push(format!("CHECK FAILED: {}", what()));
            }
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.end_to_end.extend(other.end_to_end);
        self.layers.extend(other.layers);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.report.extend(other.report);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The three phases after set-up.
struct Phases {
    suite: suite::Suite,
    certify: certify::Certify,
    serve: serve::Serve,
}

fn setup(seed: u64) -> Result<Phases, String> {
    Ok(Phases {
        suite: suite::Suite::setup(seed)?,
        certify: certify::Certify::setup(seed)?,
        serve: serve::Serve::setup(seed)?,
    })
}

/// Times of the set-up repetitions.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    generate_ms: Vec<f64>,
    reduce_ms: Vec<f64>,
    verify_ms: Vec<f64>,
}

impl SetupTimes {
    /// Sets up once, recording its times.
    fn run(&mut self, seed: u64) -> Result<Phases, String> {
        let t0 = Instant::now();
        let p = setup(seed)?;
        self.total_s.push(t0.elapsed().as_secs_f64());
        self.generate_ms.push(p.suite.generate_ms);
        self.reduce_ms.push(p.suite.reduce_ms);
        self.verify_ms.push(p.certify.verify_ms);
        Ok(p)
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let mut p = setups.run(args.seed)?;
    let counts = p.suite.counts.clone();
    let phases: [&mut dyn Phase; 3] = [&mut p.suite, &mut p.certify, &mut p.serve];
    let companion: [usize; 3] = std::array::from_fn(|i| phases[i].companion_rounds());
    let mut outs: [Outcome; 3] = Default::default();

    // Each phase runs on a thread of its own, so it allocates from its
    // own heap arena and the other phases cannot fragment it; rounds
    // still run one at a time, in the order decided here.
    std::thread::scope(|scope| -> Result<(), String> {
        let mut links = Vec::new();
        for (phase, o) in phases.into_iter().zip(&mut outs) {
            let (to_phase, commands) = mpsc::channel::<(usize, bool)>();
            let (to_main, acks) = mpsc::channel::<bool>();
            scope.spawn(move || {
                for (index, warm) in commands {
                    if warm {
                        phase.warm(index);
                    } else {
                        phase.round(index, args.trace, o);
                    }
                    if to_main.send(phase.can_stop(index + 1)).is_err() {
                        return;
                    }
                }
                phase.finish(o);
            });
            links.push((to_phase, acks));
        }
        // Runs round (or warm-up for round) `index` of phase `i`; returns
        // whether the phase may stop after it.
        let call = |i: usize, index: usize, warm: bool| {
            links[i].0.send((index, warm)).expect("phase thread alive");
            links[i].1.recv().expect("phase thread alive")
        };

        // Phases in `Workload` order.
        let main = args.workload as usize;
        let mut done = [0usize; 3];
        let mut can_stop = false;
        let start = Instant::now();
        loop {
            // Companion rounds, and the repeated set-ups, are spread
            // evenly over the run, so a stretch of contention on the host
            // cannot hit all of them. A repeated set-up is timed and
            // dropped; it must reproduce the deterministic counters.
            let progress = (start.elapsed().as_secs_f64() / args.seconds as f64).min(1.0);
            while setups.total_s.len() < SETUP_REPS
                && setups.total_s.len() as f64 <= progress * SETUP_REPS as f64
            {
                let again = setups.run(args.seed)?;
                out.check(again.suite.counts == counts, || {
                    "same seed gave different scheduler counters".to_string()
                });
            }
            for i in (0..3).filter(|&i| i != main) {
                while done[i] < companion[i] && done[i] as f64 <= progress * companion[i] as f64 {
                    call(i, done[i], true);
                    call(i, done[i], false);
                    done[i] += 1;
                }
            }
            if progress >= 1.0 && can_stop {
                break;
            }
            can_stop = call(main, done[main], false);
            done[main] += 1;
        }
        Ok(())
    })?;

    out.e2e("setup_s", stats::median(&setups.total_s), "s");
    out.layer(
        "loops.generate_ms",
        stats::median(&setups.generate_ms),
        "ms",
    );
    out.layer("core.reduce_ms", stats::median(&setups.reduce_ms), "ms");
    out.layer("core.verify_ms", stats::median(&setups.verify_ms), "ms");
    out.report.push(format!(
        "set-up: median {:.1} ms over {SETUP_REPS} repetitions spread over the run ({})",
        stats::median(&setups.total_s) * 1e3,
        setups
            .total_s
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for o in outs {
        out.absorb(o);
    }
    out.e2e("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    Ok(out)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmd-perfbench: {e}");
            eprintln!(
                "usage: rmd-perfbench --workload suite|certify|serve_mix --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rmd-perfbench: {e}");
            std::process::exit(3);
        }
    };
    for line in &out.report {
        eprintln!("{line}");
    }
    let shown = if args.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    eprintln!(
        "{:<36} {:>16} unit",
        if args.trace {
            "per-layer metric"
        } else {
            "end-to-end metric"
        },
        "value"
    );
    for m in shown {
        eprintln!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "failed_share {:.6} ({} failed / {} attempted)",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics(shown)
    );
}
