//! Generative differential fuzzing of the whole reduction stack.
//!
//! Each case draws a structured random machine from
//! [`generate`] and pushes it through the
//! same gauntlet every shipped description faces:
//!
//! 1. **render → reparse** — the canonical MDL rendering must parse
//!    back to an equal description;
//! 2. **lint** — `rmd-analyze` must report no error-severity findings;
//! 3. **reduce** — one [`ReductionFront`] must finish under both
//!    [`certificate_objectives`], passing the pipeline's own
//!    equivalence check; later stages use the res-uses reduction;
//! 4. **differential replay** — a query trace recorded against the
//!    original (linear and modulo) must replay answer-for-answer over
//!    every backend of the reduced description: discrete, bitvec,
//!    modulo-discrete, modulo-bitvec, and the automata baseline
//!    (skipped with accounting when its state cap trips).
//!
//! A failing case is **shrunk** — operations, then usages, then unused
//! resources are greedily removed while the failure persists — and the
//! minimized machine is canonicalized through MDL, handed to the static
//! prover (`rmd certify`) for a second opinion, and rendered as a
//! regression-corpus entry that CI replays forever after.
//!
//! The `--mutant` mode closes the loop on the harness itself: a seeded
//! [`MutationOp`] corrupts each case's *reduction output*, simulating a
//! buggy reducer. Every semantic corruption must be caught; one that
//! survives all backends is itself reported (stage `oracle-gap`).

use crate::generate::{generate, GenConfig};
use crate::mutate::{mutate, MutantPayload, MutationOp, Parts, ALL_OPERATORS};
use crate::oracle::{
    record_linear_trace, record_modulo_trace, replay_backends, replay_diff, trace_oracle,
};
use rand::mix_seed;
use rmd_analyze::lint_machine;
use rmd_automata::{AutomataModule, Automaton, Direction};
use rmd_certify::{
    certificate_objectives, certify_machine, certify_pair, CertifyFailure, CertifyOptions,
};
use rmd_core::{try_reduce, Objective, ReduceOptions, ReductionFront, RmdError};
use rmd_machine::{mdl, MachineDescription};
use std::fmt::Write as _;

/// Seed-stream tags separating the generator and trace streams.
const TAG_CASE: u64 = 0x6361_7365; // "case"
const TAG_TRACE: u64 = 0x7472_6163; // "trac"

/// State cap for the automata baseline; a machine that exceeds it skips
/// that backend (counted, never silent).
const AUTOMATA_CAP: usize = 1 << 18;

/// A fuzz campaign's knobs.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Base seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Number of generated machines to push through the pipeline.
    pub count: u32,
    /// Size envelope for the generator.
    pub size: GenConfig,
    /// Inject this seeded mutation into every case's reduction output.
    pub mutant: Option<(MutationOp, u64)>,
}

impl FuzzConfig {
    /// The default campaign: `count` small machines from `seed`, no
    /// mutant.
    pub fn new(seed: u64, count: u32) -> Self {
        FuzzConfig {
            seed,
            count,
            size: GenConfig::small(),
            mutant: None,
        }
    }
}

/// Bookkeeping one case reports alongside its verdict.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseFlags {
    /// The configured mutation found an application site.
    pub mutant_applied: bool,
    /// The applied mutation was matrix-neutral (must *not* be caught).
    pub mutant_neutral: bool,
    /// The automata baseline was skipped (state cap exceeded).
    pub automata_skipped: bool,
    /// The packed backends were skipped (more than 64 resources).
    pub packed_skipped: bool,
}

/// The verdict of one pipeline run.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// Every stage agreed.
    Pass(CaseFlags),
    /// A stage disagreed (or a semantic mutant survived: `oracle-gap`).
    Fail {
        /// Pipeline stage that failed: `round-trip`, `lint`, `reduce`,
        /// `equivalence`, `differential`, or `oracle-gap`.
        stage: &'static str,
        /// Human-readable description of the disagreement.
        detail: String,
        /// Flags accumulated before the failure.
        flags: CaseFlags,
    },
}

/// One failing case after minimization.
#[derive(Clone, Debug)]
pub struct FailedCase {
    /// Seed the machine was generated from.
    pub case_seed: u64,
    /// Seed of the recorded query trace.
    pub trace_seed: u64,
    /// Stage that failed on the *shrunk* machine.
    pub stage: &'static str,
    /// Divergence description from the shrunk machine.
    pub detail: String,
    /// The injected mutation, if the campaign ran one.
    pub mutant: Option<(MutationOp, u64)>,
    /// The minimized failing machine.
    pub machine: MachineDescription,
    /// Canonical MDL rendering of the minimized machine.
    pub mdl: String,
    /// The static prover's verdict on the minimized failure.
    pub certify: String,
}

/// A fuzz campaign's aggregate result.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Base seed of the campaign.
    pub seed: u64,
    /// Cases run.
    pub cases: u32,
    /// Cases whose pipeline agreed everywhere.
    pub passed: u32,
    /// Minimized failing cases.
    pub failures: Vec<FailedCase>,
    /// Cases where the configured mutation applied.
    pub mutants_applied: u32,
    /// Applied mutations that were matrix-neutral.
    pub mutants_neutral: u32,
    /// Cases that skipped the automata baseline (state cap).
    pub automata_skipped: u32,
    /// Cases that skipped the packed backends (>64 resources).
    pub packed_skipped: u32,
}

impl FuzzReport {
    /// No divergences found.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the campaign summary plus every minimized failure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "rmd-fuzz report");
        let _ = writeln!(out, "  base seed         {}", self.seed);
        let _ = writeln!(out, "  cases             {}", self.cases);
        let _ = writeln!(out, "  passed            {}", self.passed);
        let _ = writeln!(out, "  failed            {}", self.failures.len());
        let _ = writeln!(out, "  mutants applied   {}", self.mutants_applied);
        let _ = writeln!(out, "  mutants neutral   {}", self.mutants_neutral);
        let _ = writeln!(out, "  automata skipped  {}", self.automata_skipped);
        let _ = writeln!(out, "  packed skipped    {}", self.packed_skipped);
        for f in &self.failures {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "failure: stage {} (case seed {}, replay with `rmd fuzz --seed {} --count 1`)",
                f.stage, f.case_seed, f.case_seed
            );
            if let Some((op, seed)) = f.mutant {
                let _ = writeln!(out, "  mutant    {}:{seed}", op.name());
            }
            let _ = writeln!(out, "  detail    {}", f.detail);
            let _ = writeln!(out, "  certify   {}", f.certify);
            let _ = writeln!(out, "  shrunk machine:");
            for line in f.mdl.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }
}

/// Runs the full differential pipeline over one machine.
///
/// `mutant` corrupts the reduction output before the replay phase;
/// `trace_seed` drives the recorded query trace; the baseline automata
/// build stops at 2^18 states.
pub fn check_machine(
    m: &MachineDescription,
    mutant: Option<(MutationOp, u64)>,
    trace_seed: u64,
) -> CaseOutcome {
    let mut flags = CaseFlags::default();
    let fail = |stage, detail, flags| CaseOutcome::Fail {
        stage,
        detail,
        flags,
    };

    // ---- 1. canonical rendering round-trips -------------------------
    let src = mdl::print(m);
    match mdl::parse_machine(&src) {
        Err(e) => {
            return fail(
                "round-trip",
                format!("rendering does not parse: {e}"),
                flags,
            )
        }
        Ok((parsed, _)) if parsed != *m => {
            return fail(
                "round-trip",
                "reparsed machine differs from the original".into(),
                flags,
            )
        }
        Ok(_) => {}
    }

    // ---- 2. lint: no error-severity findings ------------------------
    let lint = lint_machine(m);
    if lint.errors() > 0 {
        return fail(
            "lint",
            format!("{} error-severity finding(s)", lint.errors()),
            flags,
        );
    }

    // ---- 3. reduce + verify under both certificate objectives -------
    let objectives = certificate_objectives(m);
    let front = match ReductionFront::compute(m, &ReduceOptions::default()) {
        Ok(front) => front,
        // Reported under the first objective, the one the later stages use.
        Err(e) => return fail("reduce", format!("{:?}: {e}", objectives[0].1), flags),
    };
    let mut reduced = None;
    for (_, objective) in objectives {
        let red = match front.finish(objective) {
            Ok(r) => r,
            Err(RmdError::VerificationFailed(e)) => {
                return fail("equivalence", format!("{objective:?}: {e}"), flags)
            }
            Err(e) => return fail("reduce", format!("{objective:?}: {e}"), flags),
        };
        if reduced.is_none() {
            reduced = Some(red.reduced);
        }
    }
    let mut rut = reduced.expect("first objective ran"); // reduction under test

    // ---- 4. optional mutation of the reduction output ---------------
    let mut semantic_mutant = false;
    if let Some((op, seed)) = mutant {
        if let Some(mu) = mutate(&rut, op, seed) {
            flags.mutant_applied = true;
            match &mu.payload {
                MutantPayload::Machine(mm) | MutantPayload::ReducedMachine(mm) => {
                    semantic_mutant = mu.is_semantic(m);
                    flags.mutant_neutral = !semantic_mutant;
                    rut = mm.clone();
                }
                MutantPayload::QueryWord { .. } => {
                    // Query-state corruption never touches the machine;
                    // the trace oracle compares the corrupted packed
                    // words against a clean discrete module directly.
                    return match trace_oracle(&rut, &mu, trace_seed) {
                        Some(d) => fail("differential", format!("corrupt-word: {d}"), flags),
                        None => fail(
                            "oracle-gap",
                            format!("planted word corruption survived: {}", mu.what),
                            flags,
                        ),
                    };
                }
            }
        }
    }

    // ---- 5. differential replay over every backend ------------------
    let span = m.max_table_length().max(rut.max_table_length()).max(1);
    flags.packed_skipped = rut.num_resources() > 64;
    let (trace, expected) = record_linear_trace(m, span, trace_seed);
    let mut caught = replay_backends(&trace, &expected, &rut).or_else(|| {
        let (mtrace, mexpected) = record_modulo_trace(m, span + 1, span, trace_seed);
        replay_backends(&mtrace, &mexpected, &rut)
    });
    if caught.is_none() {
        // The automata baseline: exact by construction, but its state
        // space can blow up on adversarial machines — skip with
        // accounting rather than hang.
        match (
            Automaton::build(&rut, Direction::Forward, AUTOMATA_CAP),
            Automaton::build(&rut, Direction::Reverse, AUTOMATA_CAP),
        ) {
            (Ok(fwd), Ok(rev)) => {
                let horizon = 4 * span + 2;
                let mut am = AutomataModule::new(&rut, &fwd, &rev, horizon);
                if let Some(d) = replay_diff(&trace, &expected, &mut am) {
                    caught = Some(format!("automata: {d}"));
                }
            }
            _ => flags.automata_skipped = true,
        }
    }

    match caught {
        Some(detail) => fail("differential", detail, flags),
        None if semantic_mutant => fail(
            "oracle-gap",
            "semantic mutant of the reduction survived every backend".into(),
            flags,
        ),
        None => CaseOutcome::Pass(flags),
    }
}

/// Runs a fuzz campaign: generate, check, shrink failures, collect.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        seed: cfg.seed,
        ..FuzzReport::default()
    };
    for i in 0..cfg.count {
        let case_seed = mix_seed(cfg.seed, TAG_CASE, u64::from(i));
        let trace_seed = mix_seed(cfg.seed, TAG_TRACE, u64::from(i));
        let m = generate(case_seed, &cfg.size);
        report.cases += 1;
        let outcome = check_machine(&m, cfg.mutant, trace_seed);
        let (flags, failure) = match outcome {
            CaseOutcome::Pass(flags) => (flags, None),
            CaseOutcome::Fail {
                stage,
                detail,
                flags,
            } => (flags, Some((stage, detail))),
        };
        report.mutants_applied += u32::from(flags.mutant_applied);
        report.mutants_neutral += u32::from(flags.mutant_neutral);
        report.automata_skipped += u32::from(flags.automata_skipped);
        report.packed_skipped += u32::from(flags.packed_skipped);
        match failure {
            None => report.passed += 1,
            Some((want_stage, _)) => {
                // Pin the stage while shrinking so minimization cannot
                // morph a real divergence into an unrelated artifact.
                let fails = |cand: &MachineDescription| {
                    matches!(
                        check_machine(cand, cfg.mutant, trace_seed),
                        CaseOutcome::Fail { stage, .. } if stage == want_stage
                    )
                };
                let shrunk = shrink(&m, &fails);
                let (stage, detail) = match check_machine(&shrunk, cfg.mutant, trace_seed) {
                    CaseOutcome::Fail { stage, detail, .. } => (stage, detail),
                    CaseOutcome::Pass(_) => unreachable!("shrink preserves failure"),
                };
                let certify = certify_verdict(&shrunk, cfg.mutant, CertifyOptions::default());
                report.failures.push(FailedCase {
                    case_seed,
                    trace_seed,
                    stage,
                    detail,
                    mutant: cfg.mutant,
                    mdl: mdl::print(&shrunk),
                    machine: shrunk,
                    certify,
                });
            }
        }
    }
    report
}

/// The static prover's second opinion on a minimized failure.
///
/// With an injected mutant, re-derive the corrupted reduction and ask
/// `certify_pair` to disprove it — the prover and the runtime replay
/// must agree the pair diverges. Without one, the failure is a real
/// find at HEAD: certify the machine itself and report the verdict.
fn certify_verdict(
    m: &MachineDescription,
    mutant: Option<(MutationOp, u64)>,
    options: CertifyOptions,
) -> String {
    if let Some((op, seed)) = mutant {
        let Ok(red) = try_reduce(m, Objective::ResUses, &ReduceOptions::default()) else {
            return "n/a (shrunk machine no longer reduces)".into();
        };
        let Some(mu) = mutate(&red.reduced, op, seed) else {
            return "n/a (mutation no longer applies to the shrunk reduction)".into();
        };
        let (MutantPayload::Machine(mm) | MutantPayload::ReducedMachine(mm)) = &mu.payload else {
            return "n/a (query-state mutant; no description pair to prove)".into();
        };
        return match certify_pair(m, mm, &options) {
            Err(CertifyFailure::Mismatch(cex)) => format!(
                "static prover confirms: probe {} at cycle {} disproves equivalence",
                cex.probe.0, cex.probe.1
            ),
            Err(CertifyFailure::Error(e)) => format!("static prover could not run: {e}"),
            Ok(_) => "static prover DISAGREES: pair certified equivalent".into(),
        };
    }
    match certify_machine(m, "fuzz-find", &options) {
        Ok(_) => "machine certifies clean (divergence is runtime-only)".into(),
        Err(e) => format!("static prover also rejects: {e}"),
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// `m`'s parts without base attribution: removals leave partial
/// alternative groups whose rendering cannot preserve the base, and a
/// flat machine always round-trips. Semantics (the forbidden matrix)
/// are unaffected.
fn flat_parts(m: &MachineDescription) -> Parts {
    let mut parts = Parts::of(m);
    for op in &mut parts.ops {
        op.base = None;
    }
    parts
}

/// Greedy structural minimization: drop operations, then usages, then
/// unreferenced resources, keeping each removal only while `fails`
/// still holds; finally canonicalize the survivor through MDL so the
/// corpus rendering reproduces the exact failing machine.
fn shrink(
    m: &MachineDescription,
    fails: &dyn Fn(&MachineDescription) -> bool,
) -> MachineDescription {
    let mut cur = m.clone();
    loop {
        let mut changed = false;

        // Drop whole operations.
        'ops: loop {
            if cur.num_operations() <= 1 {
                break;
            }
            for i in 0..cur.num_operations() {
                let mut p = flat_parts(&cur);
                p.ops.remove(i);
                if let Some(cand) = p.build() {
                    if fails(&cand) {
                        cur = cand;
                        changed = true;
                        continue 'ops;
                    }
                }
            }
            break;
        }

        // Drop individual usages (keeping every table nonempty).
        'usages: loop {
            for oi in 0..cur.num_operations() {
                let n = cur.operations()[oi].table().num_usages();
                if n < 2 {
                    continue;
                }
                for ui in 0..n {
                    let mut p = flat_parts(&cur);
                    p.ops[oi].usages.remove(ui);
                    if let Some(cand) = p.build() {
                        if fails(&cand) {
                            cur = cand;
                            changed = true;
                            continue 'usages;
                        }
                    }
                }
            }
            break;
        }

        // Drop resources no usage references.
        let p = flat_parts(&cur);
        let used: Vec<bool> = (0..p.resources.len() as u32)
            .map(|r| {
                p.ops
                    .iter()
                    .any(|op| op.usages.iter().any(|&(ur, _)| ur == r))
            })
            .collect();
        if used.iter().any(|&u| !u) && used.iter().any(|&u| u) {
            let remap: Vec<Option<u32>> = {
                let mut next = 0u32;
                used.iter()
                    .map(|&u| {
                        u.then(|| {
                            let id = next;
                            next += 1;
                            id
                        })
                    })
                    .collect()
            };
            let mut q = p.clone();
            q.resources = p
                .resources
                .iter()
                .zip(&used)
                .filter(|(_, &u)| u)
                .map(|(r, _)| r.clone())
                .collect();
            for op in &mut q.ops {
                for u in &mut op.usages {
                    u.0 = remap[u.0 as usize].expect("used resource survives");
                }
            }
            if let Some(cand) = q.build() {
                if fails(&cand) {
                    cur = cand;
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }
    // Canonicalize: the corpus stores `mdl::print(cur)`, so the machine
    // we keep must be exactly what that text parses back to (this also
    // normalizes base attribution a partial alt group cannot round-trip).
    if let Ok((canon, _)) = mdl::parse_machine(&mdl::print(&cur)) {
        if fails(&canon) {
            return canon;
        }
    }
    cur
}

// ---------------------------------------------------------------------
// Regression corpus
// ---------------------------------------------------------------------

/// A parsed regression-corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Seed recorded for provenance (the machine is stored verbatim).
    pub case_seed: u64,
    /// Trace seed the replay must use.
    pub trace_seed: u64,
    /// Mutation to re-inject on replay.
    pub mutant: Option<(MutationOp, u64)>,
    /// `true`: the pipeline must fail on this machine; `false`: it must
    /// pass (a pinned-clean machine).
    pub expect_caught: bool,
    /// The machine itself.
    pub machine: MachineDescription,
}

/// Renders a minimized failure as a self-contained corpus entry: MDL
/// with a structured comment header (comments are legal MDL, so the
/// whole file parses as a machine).
pub fn render_corpus_entry(f: &FailedCase) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// rmd-fuzz corpus v1");
    let _ = writeln!(out, "// case-seed: {}", f.case_seed);
    let _ = writeln!(out, "// trace-seed: {}", f.trace_seed);
    if let Some((op, seed)) = f.mutant {
        let _ = writeln!(out, "// mutant: {}:{seed}", op.name());
    }
    let _ = writeln!(out, "// expect: caught");
    let _ = writeln!(out, "// stage: {}", f.stage);
    let _ = writeln!(out, "//");
    out.push_str(&f.mdl);
    out
}

/// Parses a corpus entry produced by [`render_corpus_entry`].
///
/// # Errors
///
/// A human-readable message when a header field is missing or
/// malformed, or the machine body does not parse.
pub fn parse_corpus_entry(text: &str) -> Result<CorpusEntry, String> {
    let mut case_seed = None;
    let mut trace_seed = None;
    let mut mutant = None;
    let mut expect = None;
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("//") else {
            break; // header comments end where the machine begins
        };
        let Some((key, value)) = rest.split_once(':') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "case-seed" => {
                case_seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("case-seed: {e}"))?,
                )
            }
            "trace-seed" => {
                trace_seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("trace-seed: {e}"))?,
                )
            }
            "mutant" => {
                let (name, seed) = value
                    .split_once(':')
                    .ok_or_else(|| format!("mutant `{value}`: expected OP:SEED"))?;
                let op = ALL_OPERATORS
                    .into_iter()
                    .find(|op| op.name() == name.trim())
                    .ok_or_else(|| format!("unknown mutation operator `{name}`"))?;
                let seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| format!("mutant seed: {e}"))?;
                mutant = Some((op, seed));
            }
            "expect" => {
                expect = Some(match value {
                    "caught" => true,
                    "clean" => false,
                    other => return Err(format!("expect `{other}`: want caught|clean")),
                })
            }
            _ => {} // stage/detail lines are informational
        }
    }
    let (machine, _) =
        mdl::parse_machine(text).map_err(|e| format!("machine body does not parse: {e}"))?;
    Ok(CorpusEntry {
        case_seed: case_seed.ok_or("missing `// case-seed:` header")?,
        trace_seed: trace_seed.ok_or("missing `// trace-seed:` header")?,
        mutant,
        expect_caught: expect.ok_or("missing `// expect:` header")?,
        machine,
    })
}

/// Replays one corpus entry; `Ok` carries a one-line summary.
///
/// # Errors
///
/// The entry's expectation was not met (a pinned failure passed, or a
/// pinned-clean machine failed).
pub fn replay_corpus_entry(e: &CorpusEntry) -> Result<String, String> {
    let outcome = check_machine(&e.machine, e.mutant, e.trace_seed);
    match (e.expect_caught, outcome) {
        (true, CaseOutcome::Fail { stage, detail, .. }) => {
            Ok(format!("still caught at stage {stage}: {detail}"))
        }
        (true, CaseOutcome::Pass(_)) => Err(format!(
            "regression NOT caught anymore (case seed {}): the pipeline passed \
             a machine it once failed",
            e.case_seed
        )),
        (false, CaseOutcome::Pass(_)) => Ok("still clean".into()),
        (false, CaseOutcome::Fail { stage, detail, .. }) => Err(format!(
            "pinned-clean machine now fails at stage {stage}: {detail}"
        )),
    }
}

/// Replays a set of `(name, text)` corpus entries, stopping at the
/// first violated expectation.
///
/// # Errors
///
/// The offending entry's name plus the parse or replay failure.
pub fn replay_corpus(entries: &[(String, String)]) -> Result<Vec<String>, String> {
    let mut summaries = Vec::with_capacity(entries.len());
    for (name, text) in entries {
        let entry = parse_corpus_entry(text).map_err(|e| format!("{name}: {e}"))?;
        let summary = replay_corpus_entry(&entry).map_err(|e| format!("{name}: {e}"))?;
        summaries.push(format!("{name}: {summary}"));
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::example_machine;

    #[test]
    fn head_is_clean_on_a_quick_campaign() {
        let report = fuzz(&FuzzConfig::new(0xF00D, 25));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.passed, 25);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = fuzz(&FuzzConfig::new(7, 5));
        let b = fuzz(&FuzzConfig::new(7, 5));
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn injected_semantic_mutants_are_caught_and_shrunk() {
        let mut cfg = FuzzConfig::new(0xBEEF, 8);
        cfg.mutant = Some((MutationOp::DropUsage, 1));
        let report = fuzz(&cfg);
        assert!(report.mutants_applied > 0, "{}", report.render());
        // Every non-neutral application must surface as a failure.
        let expected = report.mutants_applied - report.mutants_neutral;
        assert_eq!(
            report.failures.len() as u32,
            expected,
            "{}",
            report.render()
        );
        for f in &report.failures {
            assert_eq!(f.stage, "differential", "{}", f.detail);
            assert!(
                f.certify.starts_with("static prover confirms") || f.certify.starts_with("n/a"),
                "{}",
                f.certify
            );
            // Shrunk machines are small and self-contained.
            assert!(f.machine.num_operations() <= 8);
        }
    }

    #[test]
    fn corpus_entries_round_trip_and_replay() {
        let mut cfg = FuzzConfig::new(0xBEEF, 4);
        cfg.mutant = Some((MutationOp::DropUsage, 1));
        let report = fuzz(&cfg);
        let f = report.failures.first().expect("mutant campaign fails");
        let text = render_corpus_entry(f);
        let entry = parse_corpus_entry(&text).expect("rendered entry parses");
        assert_eq!(entry.case_seed, f.case_seed);
        assert_eq!(entry.trace_seed, f.trace_seed);
        assert_eq!(entry.mutant, f.mutant);
        assert!(entry.expect_caught);
        assert_eq!(
            entry.machine, f.machine,
            "stored MDL reproduces the machine"
        );
        let summary = replay_corpus_entry(&entry).expect("replay re-catches");
        assert!(summary.contains("still caught"));
    }

    #[test]
    fn clean_corpus_entries_are_supported() {
        let m = example_machine();
        let text = format!(
            "// rmd-fuzz corpus v1\n// case-seed: 0\n// trace-seed: 3\n// expect: clean\n//\n{}",
            mdl::print(&m)
        );
        let entry = parse_corpus_entry(&text).unwrap();
        assert!(!entry.expect_caught);
        assert!(replay_corpus_entry(&entry).is_ok());
    }

    #[test]
    fn malformed_corpus_entries_are_rejected_with_context() {
        for (text, needle) in [
            ("machine \"m\" { resources { r; } op a { use r @ 0; } }", "case-seed"),
            ("// case-seed: 1\n// trace-seed: 2\n// expect: maybe\nmachine \"m\" { resources { r; } op a { use r @ 0; } }", "caught|clean"),
            ("// case-seed: 1\n// trace-seed: 2\n// mutant: bogus:1\n// expect: caught\nmachine \"m\" { resources { r; } op a { use r @ 0; } }", "unknown mutation operator"),
        ] {
            let err = parse_corpus_entry(text).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }
}
