//! The `certify` phase: `rmd_certify::certify_machine` from MDL source
//! to rendered certificate over a set of certified machines, next to a
//! seeded draw of `rmd_fault::mutate` mutants that the prover must
//! refute exactly when they are inequivalent.

use crate::stats::{geomean, lower_decile, ratio, SplitMix64};
use crate::{traced_round, Outcome, Phase};
use rmd_certify::{
    certificate_objectives, certify_machine, certify_pair, Certificate, CertifyOptions,
    ConflictVectors, ObjectiveCert,
};
use rmd_core::{fingerprints, try_reduce, verify_equivalence, ReduceOptions};
use rmd_fault::{mutate, MutantPayload, ALL_OPERATORS};
use rmd_latency::ForbiddenMatrix;
use rmd_machine::{content_fingerprint, mdl, MachineDescription};
use std::time::Instant;

/// Certificate name and MDL file stem of the certified machines (each
/// verdict well under 100 ms). `cydra5_subset`, `mips_r3000`, `cydra5`
/// and `alpha21064` take 5 to 16 s each and are left out: see the
/// README.
const MACHINES: [(&str, &str); 5] = [
    ("fig1", "example"),
    ("vliw_dsp", "vliw_dsp"),
    ("zoo_clustered", "zoo_clustered"),
    ("zoo_deep_np", "zoo_deep_np"),
    ("zoo_wide_issue", "zoo_wide_issue"),
];
/// Mutants drawn per run.
const MUTANTS: usize = 8;
/// Passes a companion run makes.
const COMPANION_PASSES: usize = 20;
/// An untraced round repeats a machine's verdict until this much time
/// has accumulated, so cheap machines still give many samples.
const MIN_MACHINE_MS: f64 = 10.0;
const MAX_REPS: usize = 400;

struct Entry {
    name: &'static str,
    mdl: String,
    committed: String,
    original: MachineDescription,
    samples_ms: Vec<f64>,
}

struct Mutant {
    machine: usize,
    what: String,
    suspect: MachineDescription,
    /// `verify_equivalence`'s answer: the reference the prover must
    /// match.
    inequivalent: bool,
}

/// Per-layer time of the traced passes, in nanoseconds.
#[derive(Default)]
struct Layers {
    parse: u64,
    matrix: u64,
    reduce: u64,
    vectors: u64,
    pair: u64,
}

impl Layers {
    fn sum(&self) -> u64 {
        self.parse + self.matrix + self.reduce + self.vectors + self.pair
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

pub struct Certify {
    entries: Vec<Entry>,
    mutants: Vec<Mutant>,
    seed: u64,
    options: CertifyOptions,
    /// The first certificate of each machine, for the counts.
    certs: Vec<Option<Certificate>>,
    layers: Layers,
    /// Verdict time of the pass in progress.
    pass_ns: u64,
    untraced_pass_ms: Vec<f64>,
    traced_pass_ms: Vec<f64>,
    /// Mean `verify_equivalence` time of the mutant oracle, in ms.
    pub verify_ms: f64,
}

impl Certify {
    /// Reads the machines and committed certificates and draws the
    /// mutants with their reference verdicts.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (name, stem) in MACHINES {
            let mdl = read(&format!("machines/{stem}.mdl"))?;
            let committed = read(&format!("certs/{name}.json"))?;
            let (original, _) = mdl::parse_machine(&mdl).map_err(|e| format!("{stem}: {e}"))?;
            entries.push(Entry {
                name,
                mdl,
                committed,
                original,
                samples_ms: Vec::new(),
            });
        }

        let (mutants, verify_ns) = draw_mutants(&entries, seed)?;
        Ok(Certify {
            certs: vec![None; entries.len()],
            layers: Layers::default(),
            pass_ns: 0,
            untraced_pass_ms: Vec::new(),
            traced_pass_ms: Vec::new(),
            verify_ms: verify_ns as f64 / 1e6 / mutants.len() as f64,
            entries,
            mutants,
            seed,
            options: CertifyOptions::default(),
        })
    }

    /// Verdicts for machine `i`: repeated in an untraced round until
    /// enough time has accumulated, once in a traced round. Returns the
    /// round's lower-decile verdict time in ns.
    fn machine_round(&mut self, i: usize, traced: bool, out: &mut Outcome) -> u64 {
        let e = &self.entries[i];
        let mut samples = Vec::new();
        let mut spent = 0.0;
        while samples.is_empty() || (!traced && spent < MIN_MACHINE_MS && samples.len() < MAX_REPS)
        {
            let t = Instant::now();
            let r = if traced {
                verdict_traced(e, &self.options, &mut self.layers)
            } else {
                verdict(e, &self.options)
            };
            let ms = ns_since(t) as f64 / 1e6;
            out.attempted += 1;
            match r {
                Ok((cert, json)) => {
                    out.check(json == e.committed, || {
                        format!("{}: certificate differs from certs/{}.json", e.name, e.name)
                    });
                    self.certs[i].get_or_insert(cert);
                }
                Err(err) => out.check(false, || format!("{}: {err}", e.name)),
            }
            spent += ms;
            samples.push(ms);
        }
        let ns = (lower_decile(&samples) * 1e6) as u64;
        if !traced {
            self.entries[i].samples_ms.extend(samples);
        }
        ns
    }
    /// One proof attempt per mutant; the prover must refute exactly the
    /// inequivalent ones. Returns the time taken in ns.
    fn mutant_round(&mut self, traced: bool, out: &mut Outcome) -> u64 {
        let mut total = 0;
        for mu in &self.mutants {
            let original = &self.entries[mu.machine].original;
            let t = Instant::now();
            let refuted = certify_pair(original, &mu.suspect, &self.options).is_err();
            total += ns_since(t);
            out.attempted += 1;
            out.check(refuted == mu.inequivalent, || {
                format!(
                    "mutant {}: prover refuted={refuted}, verify_equivalence inequivalent={}",
                    mu.what, mu.inequivalent
                )
            });
        }
        if traced {
            self.layers.pair += total;
        }
        total
    }

    fn slots(&self) -> usize {
        self.entries.len() + 1
    }
}

impl Phase for Certify {
    fn companion_rounds(&self) -> usize {
        COMPANION_PASSES * self.slots()
    }

    /// One untimed verdict of the machine the round will time.
    fn warm(&mut self, index: usize) {
        if let Some(e) = self.entries.get(index % self.slots()) {
            let _ = verdict(e, &self.options);
        }
    }

    /// Rounds walk the machines and then the mutants, pass by pass; with
    /// tracing on, every other pass is traced.
    fn round(&mut self, index: usize, trace: bool, out: &mut Outcome) {
        let (pass, slot) = (index / self.slots(), index % self.slots());
        let traced = traced_round(trace, pass);
        self.pass_ns += if slot < self.entries.len() {
            self.machine_round(slot, traced, out)
        } else {
            self.mutant_round(traced, out)
        };
        if slot + 1 == self.slots() {
            let ms = std::mem::take(&mut self.pass_ns) as f64 / 1e6;
            if traced {
                &mut self.traced_pass_ms
            } else {
                &mut self.untraced_pass_ms
            }
            .push(ms);
        }
    }

    /// Stops only between whole passes, after at least two.
    fn can_stop(&self, rounds: usize) -> bool {
        rounds >= 2 * self.slots() && rounds % self.slots() == 0
    }

    fn finish(&mut self, out: &mut Outcome) {
        // Self-check: another seed draws other mutants.
        let other = draw_mutants(&self.entries, self.seed.wrapping_add(1));
        out.check(
            other.is_ok_and(|(o, _)| {
                o.iter()
                    .map(|m| &m.what)
                    .ne(self.mutants.iter().map(|m| &m.what))
            }),
            || "another seed drew the same mutants".to_string(),
        );
        let verdicts: Vec<f64> = self
            .entries
            .iter()
            .map(|e| e.samples_ms.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let mut usage_ratios = Vec::new();
        let (mut pair_states, mut comparisons, mut global_states, mut schedules) = (0, 0, 0, 0);
        for (e, cert) in self.entries.iter().zip(&self.certs) {
            for o in cert.iter().flat_map(|c| &c.objectives) {
                usage_ratios.push(o.reduced_usages as f64 / e.original.total_usages() as f64);
                pair_states += o.pair_product_states;
                comparisons += o.modulo_comparisons;
                global_states += o.global_states;
                schedules += o.schedules_checked;
            }
        }
        out.e2e("verdict_geomean_ms", geomean(&verdicts), "ms");
        out.e2e("usages_ratio", geomean(&usage_ratios), "ratio");

        let traced_passes = self.traced_pass_ms.len();
        let per_pass = |ns: u64| ratio(ns as f64 / 1e6, traced_passes as f64);
        let l = &self.layers;
        out.layer("machine.parse_ms", per_pass(l.parse), "ms");
        out.layer("latency.matrix_ms", per_pass(l.matrix), "ms");
        out.layer("core.try_reduce_ms", per_pass(l.reduce), "ms");
        out.layer("certify.vectors_ms", per_pass(l.vectors), "ms");
        out.layer("certify.pair_ms", per_pass(l.pair), "ms");
        out.layer("certify.pair_states", pair_states as f64, "count");
        out.layer("certify.modulo_comparisons", comparisons as f64, "count");
        out.layer("certify.global_states", global_states as f64, "count");
        out.layer("certify.schedules_checked", schedules as f64, "count");
        for (e, v) in self.entries.iter().zip(&verdicts) {
            out.layer(&format!("certify.verdict_ms.{}", e.name), *v, "ms");
        }
        let traced_ms: f64 = self.traced_pass_ms.iter().sum();
        out.layer(
            "certify.unattributed_share",
            1.0 - ratio(l.sum() as f64 / 1e6, traced_ms),
            "share",
        );
        out.layer(
            "certify.trace_overhead_share",
            ratio(
                lower_decile(&self.traced_pass_ms),
                lower_decile(&self.untraced_pass_ms),
            ) - 1.0,
            "share",
        );

        out.report.push(format!(
            "certify: {} passes ({traced_passes} traced) over {} machines + {} mutants ({} inequivalent)",
            self.untraced_pass_ms.len() + traced_passes,
            self.entries.len(),
            self.mutants.len(),
            self.mutants.iter().filter(|m| m.inequivalent).count()
        ));
        for (e, m) in self.entries.iter().zip(&verdicts) {
            out.report.push(format!(
                "  verdict {:<16} {:>10.3} ms (fastest of {} samples)",
                e.name,
                m,
                e.samples_ms.len()
            ));
        }
        out.report.push(format!(
            "  verdict geomean {:.3} ms, usages ratio {:.4}",
            geomean(&verdicts),
            geomean(&usage_ratios)
        ));
    }
}

/// Parse + certify + render, as `rmd certify <file>.mdl` does.
fn verdict(e: &Entry, options: &CertifyOptions) -> Result<(Certificate, String), String> {
    let (m, _) = mdl::parse_machine(&e.mdl).map_err(|err| err.to_string())?;
    let cert = certify_machine(&m, e.name, options).map_err(|err| err.to_string())?;
    let json = cert.render_json();
    Ok((cert, json))
}

/// The same verdict assembled from the public steps `certify_machine`
/// is made of, timing each layer.
fn verdict_traced(
    e: &Entry,
    options: &CertifyOptions,
    l: &mut Layers,
) -> Result<(Certificate, String), String> {
    let t = Instant::now();
    let (m, _) = mdl::parse_machine(&e.mdl).map_err(|err| err.to_string())?;
    l.parse += ns_since(t);
    let t = Instant::now();
    let matrix = ForbiddenMatrix::compute(&m);
    l.matrix += ns_since(t);
    let mut objectives = Vec::new();
    for (label, objective) in certificate_objectives(&m) {
        let t = Instant::now();
        let red =
            try_reduce(&m, objective, &ReduceOptions::default()).map_err(|err| err.to_string())?;
        l.reduce += ns_since(t);
        let t = Instant::now();
        ConflictVectors::compute(&m).map_err(|err| err.to_string())?;
        ConflictVectors::compute(&red.reduced).map_err(|err| err.to_string())?;
        l.vectors += ns_since(t);
        let t = Instant::now();
        let stats = certify_pair(&m, &red.reduced, options).map_err(|err| err.to_string())?;
        l.pair += ns_since(t);
        objectives.push(ObjectiveCert {
            objective: label,
            reduced_fingerprint: content_fingerprint(&red.reduced),
            reduced_resources: red.reduced.num_resources(),
            reduced_usages: red.reduced.total_usages(),
            pairs: stats.pairs,
            pair_product_states: stats.pair_product_states,
            max_pair_states: stats.max_pair_states,
            modulo_max_ii: stats.modulo.max_ii,
            modulo_comparisons: stats.modulo.comparisons,
            global_completed: stats.global.completed,
            global_states: stats.global.product_states,
            schedules_checked: stats.schedules_checked,
        });
    }
    let cert = Certificate {
        machine: e.name.to_string(),
        fingerprint: content_fingerprint(&m),
        matrix_fingerprint: fingerprints::matrix_fingerprint_hex(&matrix),
        operations: m.num_operations(),
        resources: m.num_resources(),
        objectives,
    };
    let json = cert.render_json();
    Ok((cert, json))
}

/// Draws `MUTANTS` description mutants of the machines from `seed`, each
/// with `verify_equivalence`'s verdict. Also returns the time spent in
/// `verify_equivalence`, in ns.
fn draw_mutants(entries: &[Entry], seed: u64) -> Result<(Vec<Mutant>, u64), String> {
    let mut rng = SplitMix64::new(seed ^ 0x00CE_27F1);
    let mut mutants = Vec::new();
    let mut verify_ns = 0u64;
    for _ in 0..1000 {
        if mutants.len() == MUTANTS {
            return Ok((mutants, verify_ns));
        }
        let machine = rng.below(entries.len());
        let op = ALL_OPERATORS[rng.below(ALL_OPERATORS.len())];
        let mseed = rng.next_u64();
        let original = &entries[machine].original;
        let Some(mu) = mutate(original, op, mseed) else {
            continue;
        };
        let suspect = match mu.payload {
            MutantPayload::Machine(m) | MutantPayload::ReducedMachine(m) => m,
            MutantPayload::QueryWord { .. } => continue,
        };
        let t = Instant::now();
        let inequivalent = verify_equivalence(original, &suspect).is_err();
        verify_ns += ns_since(t);
        mutants.push(Mutant {
            machine,
            what: format!("{} {op}:{mseed} ({})", entries[machine].name, mu.what),
            suspect,
            inequivalent,
        });
    }
    Err("could not draw enough description mutants".into())
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e} (run from the repository root)"))
}
