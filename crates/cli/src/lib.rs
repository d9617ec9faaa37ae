//! Implementation of the `rmd` command-line tool.
//!
//! The binary wraps the reduction pipeline for interactive use; `rmd
//! help` lists every command and option. The library form exists so the
//! argument parser and command logic are unit-testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod args;

pub use args::{help, parse_args};

use rmd_core::{
    try_reduce, validate_limits, verify_equivalence, Objective, ReduceOptions, RmdError,
};
use rmd_latency::{ClassPartition, ForbiddenMatrix};
use rmd_machine::{mdl, models, MachineDescription};
use std::fmt::Write as _;

/// A failure of the `rmd` tool, classified by pipeline stage.
///
/// Each variant maps to a distinct process exit code via
/// [`CliError::exit_code`] so scripts can tell *why* an invocation
/// failed without scraping stderr:
///
/// | variant          | exit code | meaning                                   |
/// |------------------|-----------|-------------------------------------------|
/// | `Usage`          | 2         | malformed command line                    |
/// | `Parse`          | 3         | unreadable input or MDL syntax error      |
/// | `Validation`     | 4         | machine rejected by structural validation |
/// | `Verification`   | 5         | equivalence check failed                  |
/// | `Lint`           | 6         | lint findings at error severity           |
/// | `Export`         | 7         | profile/trace export could not be written |
/// | `Serve`          | 8         | daemon transport could not be set up      |
/// | `Certify`        | 9         | equivalence certification failed          |
/// | `Fuzz`           | 10        | fuzz campaign found divergences, or a     |
/// |                  |           | corpus replay violated an expectation     |
/// | `Internal`       | 1         | unexpected pipeline failure               |
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The command line itself is malformed.
    Usage(String),
    /// The named input could not be read or parsed as MDL.
    Parse {
        /// The file path or model spec that failed.
        spec: String,
        /// What went wrong, already rendered for display.
        message: String,
    },
    /// A machine was loaded but rejected by validation limits or
    /// structural checks.
    Validation(RmdError),
    /// Two descriptions do not forbid the same latencies (from
    /// `rmd verify`), or a reduction failed its mandatory
    /// post-verification.
    Verification {
        /// The rendered inequivalence witness.
        message: String,
    },
    /// `rmd lint` found error-severity diagnostics (possibly escalated
    /// warnings under `--deny warnings`).
    Lint {
        /// The full rendered report, in the requested format; the
        /// binary prints this on stdout before exiting.
        report: String,
        /// Number of error-severity findings.
        errors: usize,
    },
    /// A profile or trace export could not be written (from
    /// `rmd profile --out`, or a `--table6` record).
    Export {
        /// The destination that failed.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// The `rmd serve` daemon could not set up its transport (socket
    /// bind or configuration failures). Errors on individual requests
    /// never surface here — they are answered in-band as typed JSON
    /// replies, and socket I/O errors on a connection are logged and
    /// survived, never panicked on.
    Serve {
        /// What failed, already rendered for display.
        message: String,
    },
    /// `rmd certify` disproved an equivalence (a counterexample was
    /// found) or could not complete the proof.
    Certify {
        /// The full rendered result — counterexample trace or proof
        /// error — in the requested format; the binary prints this on
        /// stdout before exiting.
        report: String,
        /// One-line failure summary for stderr.
        message: String,
    },
    /// `rmd fuzz` found pipeline divergences (minimized failures in the
    /// report), or a regression-corpus replay violated an entry's
    /// expectation.
    Fuzz {
        /// The full rendered campaign report or replay transcript; the
        /// binary prints this on stdout before exiting.
        report: String,
        /// One-line failure summary for stderr.
        message: String,
    },
    /// An unexpected internal failure.
    Internal(String),
}

impl CliError {
    /// The process exit code this error should terminate with.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Parse { .. } => 3,
            CliError::Validation(_) => 4,
            CliError::Verification { .. } => 5,
            CliError::Lint { .. } => 6,
            CliError::Export { .. } => 7,
            CliError::Serve { .. } => 8,
            CliError::Certify { .. } => 9,
            CliError::Fuzz { .. } => 10,
            CliError::Internal(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Parse { spec, message } => write!(f, "{spec}: {message}"),
            CliError::Validation(e) => write!(f, "invalid machine: {e}"),
            CliError::Verification { message } => write!(f, "{message}"),
            CliError::Lint { errors, .. } => {
                write!(f, "lint: {errors} error-severity finding(s)")
            }
            CliError::Export { path, message } => {
                write!(f, "cannot write `{path}`: {message}")
            }
            CliError::Serve { message } => write!(f, "serve: {message}"),
            CliError::Certify { message, .. } => write!(f, "certify: {message}"),
            CliError::Fuzz { message, .. } => write!(f, "fuzz: {message}"),
            CliError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<RmdError> for CliError {
    fn from(e: RmdError) -> Self {
        match e {
            RmdError::VerificationFailed(v) => CliError::Verification {
                message: format!("reduction broke equivalence: {v}"),
            },
            other => CliError::Validation(other),
        }
    }
}

/// A parsed command line: one variant per `rmd` subcommand.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// `rmd stats`.
    Stats {
        /// Model name or `.mdl` path.
        machine: String,
    },
    /// `rmd reduce`.
    Reduce {
        /// Model name or `.mdl` path.
        machine: String,
        /// Selection objective.
        objective: Objective,
        /// Also print the reduced machine as MDL.
        emit_mdl: bool,
    },
    /// `rmd verify`.
    Verify {
        /// First machine.
        left: String,
        /// Second machine.
        right: String,
    },
    /// `rmd matrix`.
    Matrix {
        /// Model name or `.mdl` path.
        machine: String,
    },
    /// `rmd render`.
    Render {
        /// Model name or `.mdl` path.
        machine: String,
    },
    /// `rmd table`: a paper-style reduction report.
    Table {
        /// Model name or `.mdl` path.
        machine: String,
    },
    /// `rmd lint`.
    Lint {
        /// Model name or `.mdl` path.
        machine: String,
        /// Report output format.
        format: ReportFormat,
        /// Escalate warnings to errors before deciding the exit code.
        deny_warnings: bool,
    },
    /// `rmd certify`.
    Certify {
        /// Model name or `.mdl` path of the original description.
        machine: String,
        /// Certify against this second description instead of the
        /// machine's own reductions.
        against: Option<String>,
        /// Apply this seeded rmd-fault mutation operator to the machine
        /// and certify the mutant against the original (the
        /// counterexample-replay loop).
        mutant: Option<(rmd_fault::MutationOp, u64)>,
        /// Write the certificate JSON into this directory (default-mode
        /// runs only).
        out: Option<String>,
        /// Result output format.
        format: ReportFormat,
        /// Override the global pass's product-state budget.
        budget: Option<u64>,
    },
    /// `rmd fuzz`.
    Fuzz {
        /// Base seed of the campaign.
        seed: u64,
        /// Generated machines to push through the pipeline.
        count: u32,
        /// Generator size preset name, for [`rmd_fault::GenConfig::preset`].
        size: String,
        /// Inject this seeded rmd-fault mutation into every case's
        /// reduction output (the harness self-test mode).
        mutant: Option<(rmd_fault::MutationOp, u64)>,
        /// Regression-corpus directory: minimized failures are written
        /// here, and `--replay` reads it back.
        corpus: Option<String>,
        /// Replay the corpus directory instead of running a campaign.
        replay: bool,
    },
    /// `rmd profile`.
    Profile {
        /// Model name or `.mdl` path.
        machine: String,
        /// Loops to schedule; `None` picks the profile default (the
        /// scheduler section is skipped for non-suite machines either
        /// way).
        loops: Option<usize>,
        /// Output format for the event stream.
        format: ProfileFormat,
        /// Write the formatted output to this file instead of stdout.
        out: Option<String>,
        /// Also render the per-function work-unit table and record it
        /// under `results/`.
        table6: bool,
    },
    /// `rmd serve`.
    Serve {
        /// Serve a unix socket at this path instead of stdin/stdout.
        socket: Option<String>,
        /// Admission-queue depth; requests beyond it are shed with an
        /// `overloaded` reply.
        queue: Option<usize>,
        /// Default per-request deadline in milliseconds (0 disables).
        deadline_ms: Option<u64>,
        /// Deterministic fault-injection seed (chaos mode).
        chaos: Option<u64>,
        /// Write flushed metrics JSON to this file instead of stderr.
        metrics: Option<String>,
        /// Emit a metrics snapshot (JSONL) every N requests while the
        /// daemon runs; 0 or `None` disables periodic emission.
        metrics_every: Option<u64>,
        /// Log a structured JSONL record to stderr for every request
        /// slower than N milliseconds; 0 or `None` disables.
        slow_ms: Option<u64>,
        /// Directory of `rmd certify` certificates; machines without a
        /// vouching certificate are refused. `None` means the default
        /// `certs` directory.
        certs: Option<String>,
        /// Serve without the certificate gate.
        uncertified: bool,
    },
    /// `rmd models`.
    Models,
    /// `rmd help`, or no arguments.
    Help,
}

/// Output format of `rmd profile`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProfileFormat {
    /// Human-readable report (default).
    #[default]
    Text,
    /// One JSON event per line.
    Jsonl,
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
    /// Prometheus/OpenMetrics text exposition of the merged metric
    /// registry (counters, gauges, and histogram summaries).
    Prom,
}

/// Output format of `rmd lint` and `rmd certify` reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReportFormat {
    /// Human-readable report (default).
    #[default]
    Text,
    /// One JSON object (one line for lint reports, pretty-printed for
    /// certificates).
    Json,
    /// SARIF 2.1.0 log for code-scanning upload.
    Sarif,
}

impl ReportFormat {
    /// Renders `report` in this format; `Text` is the caller's `text`.
    fn render(self, report: &rmd_analyze::Report, text: String) -> String {
        match self {
            ReportFormat::Text => text,
            ReportFormat::Json => report.render_json() + "\n",
            ReportFormat::Sarif => report.render_sarif() + "\n",
        }
    }
}

/// Loads a machine from a built-in model name or an `.mdl` file path,
/// then checks it against the input limits ([`validate_limits`]).
///
/// # Errors
///
/// [`CliError::Parse`] for unreadable files and MDL syntax errors
/// (with positions), [`CliError::Validation`] when the parsed machine
/// exceeds a resource limit.
pub fn load_machine(spec: &str) -> Result<MachineDescription, CliError> {
    let m = match models::by_name(spec) {
        Some(m) => m,
        None => parse_spec(spec, mdl::parse_machine)?.0,
    };
    validate_limits(&m).map_err(CliError::from)?;
    Ok(m)
}

/// Lints a machine spec without the [`validate_limits`] gate, so limit
/// violations surface as findings (`RMD-L005`) rather than hard
/// failures. Built-in names lint the expanded model; `.mdl` paths are
/// re-parsed with a source map so findings carry declaration spans.
fn lint_spec(spec: &str) -> Result<rmd_analyze::Report, CliError> {
    let mut report = match models::by_name(spec) {
        Some(m) => rmd_analyze::lint_machine(&m),
        None => {
            let (d, map) = parse_spec(spec, mdl::parse_with_source_map)?;
            rmd_analyze::lint_alt(&d, Some(&map))
        }
    };
    report.subject = spec.to_owned();
    Ok(report)
}

/// Reads and parses the `.mdl` file behind a machine spec that names no
/// built-in model. A mistyped model name lands here too, so a read
/// failure lists the built-in names.
fn parse_spec<T>(spec: &str, parse: fn(&str) -> Result<T, mdl::ParseError>) -> Result<T, CliError> {
    let text = std::fs::read_to_string(spec).map_err(|e| CliError::Parse {
        spec: spec.to_owned(),
        message: format!(
            "cannot read: {e}; built-in models are {}",
            models::NAMES.join(", ")
        ),
    })?;
    parse(&text).map_err(|e| CliError::Parse {
        spec: spec.to_owned(),
        message: e.to_string(),
    })
}

/// Maps a failed write of `path` to a [`CliError::Export`] (exit 7).
fn export_error(path: impl AsRef<std::path::Path>) -> impl FnOnce(std::io::Error) -> CliError {
    move |e| CliError::Export {
        path: path.as_ref().display().to_string(),
        message: e.to_string(),
    }
}

/// Finding id for a disproved equivalence (`rmd certify`).
const CERTIFY_MISMATCH: &str = "RMD-C001";
/// Finding id for a certification that could not be completed.
const CERTIFY_ERROR: &str = "RMD-C002";

/// The display key for a machine spec: the model name itself, or the
/// file stem for `.mdl` paths (the same convention `certify` and
/// `profile --table6` use to key their records).
fn spec_key(spec: &str) -> String {
    if models::NAMES.contains(&spec) {
        spec.to_owned()
    } else {
        std::path::Path::new(spec)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| spec.to_owned())
    }
}

/// How far the global product pass got.
fn global_pass(completed: bool, states: u64) -> String {
    let how = if completed {
        "complete"
    } else {
        "skipped at budget"
    };
    format!("{how} ({states} states)")
}

/// One-line proof statistics for a successful `certify_pair` run.
fn render_stats(stats: &rmd_certify::EquivalenceStats) -> String {
    format!(
        "  {} pairs, {} product states (max {}); modulo II<={} ({} comparisons); \
         global pass {}; {} schedules revalidated\n",
        stats.pairs,
        stats.pair_product_states,
        stats.max_pair_states,
        stats.modulo.max_ii,
        stats.modulo.comparisons,
        global_pass(stats.global.completed, stats.global.product_states),
        stats.schedules_checked,
    )
}

/// Human-readable rendering of a full certificate.
fn render_cert_text(cert: &rmd_certify::Certificate) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{}: certified equivalent under {} objective(s)",
        cert.machine,
        cert.objectives.len()
    );
    let _ = writeln!(
        s,
        "  fingerprint {}, matrix {}, {} operations, {} resources",
        cert.fingerprint, cert.matrix_fingerprint, cert.operations, cert.resources
    );
    for o in &cert.objectives {
        let _ = writeln!(
            s,
            "  {}: {} resources, {} usages; {} pairs, {} states (max {}); \
             modulo II<={}; global pass {}; {} schedules",
            o.objective,
            o.reduced_resources,
            o.reduced_usages,
            o.pairs,
            o.pair_product_states,
            o.max_pair_states,
            o.modulo_max_ii,
            global_pass(o.global_completed, o.global_states),
            o.schedules_checked,
        );
    }
    s
}

/// Converts a certification failure into the exit-9 [`CliError::Certify`],
/// rendering the counterexample (or proof error) in the requested format
/// and — when the suspect description is in hand — replaying the
/// counterexample through the rmd-fault runtime query modules for
/// independent confirmation.
fn certify_failure(
    mut report: rmd_analyze::Report,
    format: ReportFormat,
    original: &MachineDescription,
    suspect: Option<&MachineDescription>,
    failure: &rmd_certify::CertifyFailure,
) -> CliError {
    let message = failure.to_string();
    let (id, text) = match failure {
        rmd_certify::CertifyFailure::Mismatch(cex) => {
            let mut t = String::from("NOT equivalent.\n");
            t.push_str(&cex.render(original));
            if let Some(s) = suspect {
                match rmd_fault::confirm_counterexample(original, s, cex) {
                    Some(div) => {
                        let _ = writeln!(t, "runtime replay confirms the divergence ({div})");
                    }
                    None => {
                        let _ = writeln!(t, "runtime replay did NOT reproduce the divergence");
                    }
                }
            }
            (CERTIFY_MISMATCH, t)
        }
        rmd_certify::CertifyFailure::Error(e) => {
            (CERTIFY_ERROR, format!("certification failed: {e}\n"))
        }
    };
    report.diagnostics.push(rmd_analyze::Diagnostic {
        id,
        severity: rmd_analyze::Severity::Error,
        message: text.trim_end().to_owned(),
        span: None,
    });
    CliError::Certify {
        report: format.render(&report, text),
        message,
    }
}

/// Writes a certificate into `dir` as `<machine>.json`, creating the
/// directory if needed.
fn write_certificate(
    cert: &rmd_certify::Certificate,
    dir: &str,
) -> Result<std::path::PathBuf, CliError> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(export_error(dir))?;
    let path = dir.join(format!("{}.json", cert.machine));
    std::fs::write(&path, cert.render_json()).map_err(export_error(&path))?;
    Ok(path)
}

/// The `rmd certify` command body: default mode proves the machine's
/// own reductions and emits a certificate; `--against` proves an
/// arbitrary pair; `--mutant` certifies a seeded rmd-fault mutant
/// against the original and replays any counterexample through the
/// runtime query modules.
fn run_certify(
    spec: &str,
    against: Option<&str>,
    mutant: Option<(rmd_fault::MutationOp, u64)>,
    out_dir: Option<&str>,
    format: ReportFormat,
    options: &rmd_certify::CertifyOptions,
) -> Result<String, CliError> {
    let original = load_machine(spec)?;
    let mut report = rmd_analyze::Report::new(spec);
    report.fingerprint = Some(rmd_machine::content_fingerprint(&original));

    let (suspect, headline) = if let Some((op, seed)) = mutant {
        let mu = rmd_fault::mutate(&original, op, seed).ok_or_else(|| {
            CliError::Usage(format!("--mutant {op}:{seed} does not apply to `{spec}`"))
        })?;
        let suspect = match &mu.payload {
            rmd_fault::MutantPayload::Machine(m) | rmd_fault::MutantPayload::ReducedMachine(m) => {
                m.clone()
            }
            rmd_fault::MutantPayload::QueryWord { .. } => {
                return Err(CliError::Usage(format!(
                    "--mutant {op}:{seed} corrupts a query module's packed state, not \
                     the description; the static certifier has nothing to compare — \
                     replay it with the rmd-fault differential oracle instead"
                )))
            }
        };
        let headline = format!(
            "mutant {op}:{seed} of `{spec}` ({}) is neutral: certified equivalent",
            mu.what
        );
        (suspect, headline)
    } else if let Some(b_spec) = against {
        let headline = format!(
            "equivalent: `{spec}` and `{b_spec}` admit the same placements in \
             every reachable scheduling state"
        );
        (load_machine(b_spec)?, headline)
    } else {
        return match rmd_certify::certify_machine(&original, &spec_key(spec), options) {
            Ok(cert) => {
                // JSON output is the certificate itself.
                let mut text = if format == ReportFormat::Json {
                    cert.render_json()
                } else {
                    format.render(&report, render_cert_text(&cert))
                };
                if let Some(dir) = out_dir {
                    let path = write_certificate(&cert, dir)?;
                    let _ = writeln!(text, "[wrote {}]", path.display());
                }
                Ok(text)
            }
            Err(failure) => Err(certify_failure(report, format, &original, None, &failure)),
        };
    };
    match rmd_certify::certify_pair(&original, &suspect, options) {
        Ok(stats) => Ok(format.render(&report, format!("{headline}\n{}", render_stats(&stats)))),
        Err(failure) => Err(certify_failure(
            report,
            format,
            &original,
            Some(&suspect),
            &failure,
        )),
    }
}

/// The `rmd fuzz` command body.
///
/// Campaign mode generates `count` machines from `seed` and pushes each
/// through the differential pipeline; minimized failures are written
/// into the corpus directory (when given) and the run exits 10.
/// `--replay` instead re-runs every `.mdl` entry under the corpus
/// directory and checks its recorded expectation.
fn run_fuzz(
    seed: u64,
    count: u32,
    size: &str,
    mutant: Option<(rmd_fault::MutationOp, u64)>,
    corpus: Option<&str>,
    replay: bool,
) -> Result<String, CliError> {
    if replay {
        let dir = corpus.unwrap_or("corpus");
        let mut entries: Vec<(String, String)> = Vec::new();
        let read = std::fs::read_dir(dir).map_err(|e| CliError::Parse {
            spec: dir.to_owned(),
            message: format!("cannot read corpus directory: {e}"),
        })?;
        for item in read {
            let path = item
                .map_err(|e| CliError::Parse {
                    spec: dir.to_owned(),
                    message: e.to_string(),
                })?
                .path();
            if path.extension().is_some_and(|x| x == "mdl") {
                let text = std::fs::read_to_string(&path).map_err(|e| CliError::Parse {
                    spec: path.display().to_string(),
                    message: format!("cannot read: {e}"),
                })?;
                entries.push((path.display().to_string(), text));
            }
        }
        entries.sort();
        return match rmd_fault::replay_corpus(&entries) {
            Ok(summaries) => {
                let mut out = String::new();
                for s in &summaries {
                    let _ = writeln!(out, "{s}");
                }
                let _ = writeln!(
                    out,
                    "replayed {} corpus entries, all expectations hold",
                    summaries.len()
                );
                Ok(out)
            }
            Err(message) => Err(CliError::Fuzz {
                report: format!("{message}\n"),
                message,
            }),
        };
    }

    let cfg = rmd_fault::FuzzConfig {
        seed,
        count,
        size: rmd_fault::GenConfig::preset(size)
            .ok_or_else(|| CliError::Usage(format!("unknown size preset `{size}`")))?,
        mutant,
    };
    let report = rmd_fault::fuzz(&cfg);
    let mut rendered = report.render();
    if !report.is_clean() {
        if let Some(dir_str) = corpus {
            let dir = std::path::Path::new(dir_str);
            std::fs::create_dir_all(dir).map_err(export_error(dir))?;
            for f in &report.failures {
                let path = dir.join(format!("fuzz-{:016x}.mdl", f.case_seed));
                std::fs::write(&path, rmd_fault::render_corpus_entry(f))
                    .map_err(export_error(&path))?;
                let _ = writeln!(rendered, "[wrote {}]", path.display());
            }
        }
        return Err(CliError::Fuzz {
            report: rendered,
            message: format!(
                "{} divergence(s) in {} cases (seed {seed})",
                report.failures.len(),
                report.cases
            ),
        });
    }
    Ok(rendered)
}

/// Executes a command, returning its stdout text.
///
/// # Errors
///
/// Returns a [`CliError`] classified by pipeline stage; print it to
/// stderr and exit with [`CliError::exit_code`].
pub fn run(cmd: &Command) -> Result<String, CliError> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(&help()),
        Command::Models => {
            for name in models::NAMES {
                let m = load_machine(name)?;
                let _ = writeln!(
                    out,
                    "{name:14} {} resources, {} operations, {} usages",
                    m.num_resources(),
                    m.num_operations(),
                    m.total_usages()
                );
            }
        }
        Command::Stats { machine } => {
            let m = load_machine(machine)?;
            let f = ForbiddenMatrix::compute(&m);
            let classes = ClassPartition::compute(&m, &f);
            let cm = classes
                .class_machine(&m)
                .map_err(|e| CliError::Validation(RmdError::from(e)))?;
            let cf = ForbiddenMatrix::compute(&cm);
            let _ = writeln!(out, "{m}");
            let _ = writeln!(out, "operation classes:       {}", classes.num_classes());
            let _ = writeln!(
                out,
                "forbidden latencies:     {} (max {})",
                cf.total_nonneg(),
                cf.max_latency()
            );
            let _ = writeln!(
                out,
                "avg usages per class:    {:.2}",
                cm.avg_usages_per_op()
            );
            let _ = writeln!(
                out,
                "longest table:           {} cycles",
                m.max_table_length()
            );
        }
        Command::Matrix { machine } => {
            let m = load_machine(machine)?;
            let f = ForbiddenMatrix::compute(&m);
            for (x, xop) in m.ops() {
                for (y, yop) in m.ops() {
                    let s = f.get(x, y);
                    if !s.is_empty() {
                        let _ = writeln!(out, "F[{}][{}] = {s}", xop.name(), yop.name());
                    }
                }
            }
        }
        Command::Render { machine } => {
            let m = load_machine(machine)?;
            out.push_str(&rmd_machine::render::machine(&m));
        }
        Command::Table { machine } => {
            let m = load_machine(machine)?;
            let report = rmd_bench::reduction_report(&m, &[32, 64]);
            out.push_str(&rmd_bench::render_report(&report));
        }
        Command::Lint {
            machine,
            format,
            deny_warnings,
        } => {
            let mut report = lint_spec(machine)?;
            if *deny_warnings {
                report.escalate_warnings();
            }
            let rendered = format.render(&report, report.render_text());
            if report.errors() > 0 {
                return Err(CliError::Lint {
                    report: rendered,
                    errors: report.errors(),
                });
            }
            out.push_str(&rendered);
        }
        Command::Certify {
            machine,
            against,
            mutant,
            out: out_dir,
            format,
            budget,
        } => {
            let options = rmd_certify::CertifyOptions {
                global_budget: budget
                    .unwrap_or(rmd_certify::CertifyOptions::default().global_budget),
                ..rmd_certify::CertifyOptions::default()
            };
            let text = run_certify(
                machine,
                against.as_deref(),
                *mutant,
                out_dir.as_deref(),
                *format,
                &options,
            )?;
            out.push_str(&text);
        }
        Command::Fuzz {
            seed,
            count,
            size,
            mutant,
            corpus,
            replay,
        } => {
            let text = run_fuzz(*seed, *count, size, *mutant, corpus.as_deref(), *replay)?;
            out.push_str(&text);
        }
        Command::Profile {
            machine,
            loops,
            format,
            out: out_file,
            table6,
        } => {
            use rmd_bench::profile;
            let m = load_machine(machine)?;
            let p = profile::profile_machine(&m, loops.unwrap_or(profile::DEFAULT_PROFILE_LOOPS));
            let rendered = match format {
                ProfileFormat::Text => profile::render_profile(&p),
                ProfileFormat::Jsonl => rmd_obs::export::events_to_jsonl(&p.events),
                ProfileFormat::Chrome => {
                    let mut s = rmd_obs::export::events_to_chrome_trace(&p.events);
                    s.push('\n');
                    s
                }
                ProfileFormat::Prom => rmd_obs::export::registry_to_prom(&p.registry),
            };
            match out_file {
                Some(path) => {
                    std::fs::write(path, &rendered).map_err(export_error(path))?;
                    let _ = writeln!(out, "[wrote {path}]");
                }
                None => out.push_str(&rendered),
            }
            if *table6 {
                if *format != ProfileFormat::Text || out_file.is_some() {
                    // The full text report embeds the table already when
                    // it goes to stdout; otherwise render it here.
                    out.push_str(&profile::render_work_table(&p));
                }
                let mut rec = profile::profile_record(&p);
                // Key the record by the requested spec, like `certify`.
                rec.machine = spec_key(machine);
                let dir = std::path::Path::new("results");
                let path = profile::write_profile_record(&rec, dir).map_err(export_error(
                    dir.join(format!("PROFILE_{}.json", rec.machine)),
                ))?;
                let _ = writeln!(out, "[recorded {}]", path.display());
            }
        }
        Command::Serve {
            socket,
            queue,
            deadline_ms,
            chaos,
            metrics,
            metrics_every,
            slow_ms,
            certs,
            uncertified,
        } => {
            // Replies go to stdout (stdio mode) or the socket; the run
            // summary goes to stderr inside the daemon. Nothing is
            // returned here so stdout stays a pure reply stream.
            //
            // The certificate gate is on by default: a machine is only
            // admitted when some certificate under the cert directory
            // (default `certs/`) vouches for its content fingerprint.
            let cert_dir = if *uncertified {
                None
            } else {
                Some(std::path::PathBuf::from(
                    certs.as_deref().unwrap_or("certs"),
                ))
            };
            let opts = rmd_serve::ServeOptions {
                socket: socket.as_ref().map(std::path::PathBuf::from),
                queue_cap: queue.unwrap_or(64),
                metrics_path: metrics.as_ref().map(std::path::PathBuf::from),
                metrics_every: metrics_every.unwrap_or(0),
                slow_ms: slow_ms.unwrap_or(0),
                engine: rmd_serve::EngineConfig {
                    default_deadline_ms: deadline_ms.unwrap_or(0),
                    chaos: chaos.map(rmd_serve::Chaos::new),
                    cert_dir,
                },
            };
            rmd_serve::run(&opts).map_err(|e| CliError::Serve {
                message: e.to_string(),
            })?;
        }
        Command::Verify { left, right } => {
            let a = load_machine(left)?;
            let b = load_machine(right)?;
            match verify_equivalence(&a, &b) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "equivalent: `{left}` and `{right}` forbid exactly the same latencies"
                    );
                }
                Err(e) => {
                    return Err(CliError::Verification {
                        message: format!("NOT equivalent: {e}"),
                    })
                }
            }
        }
        Command::Reduce {
            machine,
            objective,
            emit_mdl,
        } => {
            let m = load_machine(machine)?;
            let red =
                try_reduce(&m, *objective, &ReduceOptions::default()).map_err(CliError::from)?;
            verify_equivalence(&m, &red.reduced).map_err(|e| CliError::Verification {
                message: format!("reduction broke equivalence: {e}"),
            })?;
            let _ = writeln!(out, "reduced `{}` under {objective:?}:", m.name());
            let _ = writeln!(
                out,
                "  resources  {:4} -> {:4}",
                m.num_resources(),
                red.reduced.num_resources()
            );
            let _ = writeln!(
                out,
                "  usages     {:4} -> {:4}",
                m.total_usages(),
                red.reduced.total_usages()
            );
            let _ = writeln!(
                out,
                "  generating set {} resources, {} after pruning",
                red.genset_size, red.pruned_size
            );
            let _ = writeln!(out, "  equivalence verified: identical forbidden latencies");
            if *emit_mdl {
                out.push('\n');
                out.push_str(&mdl::print(&red.reduced));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_reduce_with_options() {
        let c = parse_args(&args(&[
            "reduce",
            "mips",
            "--objective",
            "word",
            "--k",
            "7",
            "--emit-mdl",
        ]))
        .expect("valid command line");
        assert_eq!(
            c,
            Command::Reduce {
                machine: "mips".into(),
                objective: Objective::KCycleWord { k: 7 },
                emit_mdl: true,
            }
        );
    }

    fn usage_error(args_: &[&str]) -> CliError {
        match parse_args(&args(args_)) {
            Err(e) => e,
            Ok(c) => unreachable!("expected a usage error, parsed {c:?}"),
        }
    }

    #[test]
    fn parses_serve_with_options() {
        let c = parse_args(&args(&[
            "serve",
            "--socket",
            "/tmp/rmd.sock",
            "--queue",
            "8",
            "--deadline-ms",
            "250",
            "--chaos",
            "197",
            "--metrics",
            "metrics.json",
        ]))
        .expect("valid command line");
        assert_eq!(
            c,
            Command::Serve {
                socket: Some("/tmp/rmd.sock".into()),
                queue: Some(8),
                deadline_ms: Some(250),
                chaos: Some(197),
                metrics: Some("metrics.json".into()),
                metrics_every: None,
                slow_ms: None,
                certs: None,
                uncertified: false,
            }
        );
        let c = parse_args(&args(&["serve", "--certs", "my-certs"])).expect("parses");
        assert_eq!(
            c,
            Command::Serve {
                socket: None,
                queue: None,
                deadline_ms: None,
                chaos: None,
                metrics: None,
                metrics_every: None,
                slow_ms: None,
                certs: Some("my-certs".into()),
                uncertified: false,
            }
        );
        let c = parse_args(&args(&["serve", "--uncertified"])).expect("parses");
        assert!(matches!(
            c,
            Command::Serve {
                uncertified: true,
                ..
            }
        ));
    }

    #[test]
    fn rejects_bad_serve_usage_with_exit_code_2() {
        for bad in [
            &["serve", "--socket"][..],
            &["serve", "--queue", "0"],
            &["serve", "--queue", "many"],
            &["serve", "--deadline-ms", "-1"],
            &["serve", "--chaos"],
            &["serve", "--metrics"],
            &["serve", "--certs"],
            &["serve", "--certs", "c", "--uncertified"],
            &["serve", "--nope"],
        ] {
            let e = usage_error(bad);
            assert_eq!(e.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn serve_transport_failure_exits_8() {
        // Binding a socket inside a directory that does not exist is a
        // transport setup failure — the only path to exit code 8. The
        // CLI reports it as a typed error instead of panicking.
        let cmd = Command::Serve {
            socket: Some("/nonexistent-dir/rmd.sock".into()),
            queue: None,
            deadline_ms: None,
            chaos: None,
            metrics: None,
            metrics_every: None,
            slow_ms: None,
            certs: None,
            uncertified: true,
        };
        let e = run(&cmd).expect_err("bind must fail");
        assert_eq!(e.exit_code(), 8);
        assert!(matches!(e, CliError::Serve { .. }), "{e:?}");
    }

    #[test]
    fn parses_serve_telemetry_flags() {
        let c = parse_args(&args(&[
            "serve",
            "--metrics-every",
            "100",
            "--slow-ms",
            "5",
            "--uncertified",
        ]))
        .expect("valid serve telemetry flags");
        assert!(
            matches!(
                c,
                Command::Serve {
                    metrics_every: Some(100),
                    slow_ms: Some(5),
                    ..
                }
            ),
            "{c:?}"
        );
        for bad in [
            &["serve", "--metrics-every"][..],
            &["serve", "--metrics-every", "-1"],
            &["serve", "--slow-ms", "soon"],
        ] {
            assert_eq!(usage_error(bad).exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn parses_fuzz_with_options() {
        let c = parse_args(&args(&["fuzz"])).expect("defaults parse");
        assert_eq!(
            c,
            Command::Fuzz {
                seed: 0,
                count: 100,
                size: "small".into(),
                mutant: None,
                corpus: None,
                replay: false,
            }
        );
        let c = parse_args(&args(&[
            "fuzz",
            "--seed",
            "42",
            "--count",
            "500",
            "--size",
            "medium",
            "--mutant",
            "drop-usage:1",
            "--corpus",
            "corpus",
        ]))
        .expect("valid command line");
        assert_eq!(
            c,
            Command::Fuzz {
                seed: 42,
                count: 500,
                size: "medium".into(),
                mutant: Some((rmd_fault::MutationOp::DropUsage, 1)),
                corpus: Some("corpus".into()),
                replay: false,
            }
        );
        let c = parse_args(&args(&["fuzz", "--replay", "--corpus", "c"])).expect("parses");
        assert!(matches!(c, Command::Fuzz { replay: true, .. }));
    }

    #[test]
    fn rejects_bad_fuzz_usage_with_exit_code_2() {
        for bad in [
            &["fuzz", "--seed"][..],
            &["fuzz", "--seed", "many"],
            &["fuzz", "--count", "0"],
            &["fuzz", "--size", "gigantic"],
            &["fuzz", "--mutant", "bogus:1"],
            &["fuzz", "--corpus"],
            &["fuzz", "--replay", "--mutant", "drop-usage:1"],
            &["fuzz", "--nope"],
        ] {
            let e = usage_error(bad);
            assert_eq!(e.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn fuzz_campaign_is_clean_at_head() {
        let out = run(&Command::Fuzz {
            seed: 0xF00D,
            count: 5,
            size: "small".into(),
            mutant: None,
            corpus: None,
            replay: false,
        })
        .expect("HEAD finds no divergences");
        assert!(out.contains("passed            5"), "{out}");
    }

    #[test]
    fn fuzz_mutant_campaign_exits_10_and_writes_corpus() {
        let dir = std::env::temp_dir().join(format!("rmd-fuzz-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = Command::Fuzz {
            seed: 0xBEEF,
            count: 8,
            size: "small".into(),
            mutant: Some((rmd_fault::MutationOp::DropUsage, 1)),
            corpus: Some(dir.display().to_string()),
            replay: false,
        };
        let e = run(&cmd).expect_err("semantic mutants must be caught");
        assert_eq!(e.exit_code(), 10);
        let CliError::Fuzz { report, .. } = &e else {
            unreachable!("expected a fuzz error, got {e:?}");
        };
        assert!(report.contains("failure: stage differential"), "{report}");
        // The corpus replays clean through the same CLI path.
        let replayed = run(&Command::Fuzz {
            seed: 0,
            count: 1,
            size: "small".into(),
            mutant: None,
            corpus: Some(dir.display().to_string()),
            replay: true,
        })
        .expect("written corpus replays with expectations held");
        assert!(replayed.contains("still caught"), "{replayed}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_usage_with_exit_code_2() {
        for bad in [
            &["reduce"][..],
            &["reduce", "mips", "--k", "2"][..],
            &["frobnicate"][..],
            &["reduce", "mips", "--objective", "speed"][..],
            &["stats", "fig1", "--bogus"][..],
            &["matrix", "fig1", "extra"][..],
            &["render", "fig1", "fig1"][..],
            &["table", "fig1", "--k", "2"][..],
            &["verify", "fig1", "fig1", "mips"][..],
            &["models", "--x"][..],
            // `bench` is not a command: perfbench is the benchmark.
            &["bench"][..],
            &["bench", "fig1", "--compare", "x.json"][..],
            // Operand slots never take an option token.
            &["stats", "--help"][..],
            &["certify", "--help"][..],
            &["profile", "--table6"][..],
            &["reduce", "mips", "--objective", "word", "--k", "0"][..],
        ] {
            let e = usage_error(bad);
            assert!(matches!(e, CliError::Usage(_)), "{bad:?} -> {e:?}");
            assert_eq!(e.exit_code(), 2);
        }
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).expect("empty args"), Command::Help);
        assert!(run(&Command::Help).expect("help runs").contains("USAGE"));
    }

    #[test]
    fn stats_and_reduce_run_on_builtin_models() {
        let s = run(&Command::Stats {
            machine: "fig1".into(),
        })
        .expect("stats on builtin model");
        assert!(s.contains("operation classes"));
        let r = run(&Command::Reduce {
            machine: "fig1".into(),
            objective: Objective::ResUses,
            emit_mdl: true,
        })
        .expect("reduce on builtin model");
        assert!(r.contains("resources     5 ->    2"), "{r}");
        assert!(r.contains("machine \"fig1-example-reduced\""));
    }

    #[test]
    fn verify_detects_equivalence_and_difference() {
        assert!(run(&Command::Verify {
            left: "fig1".into(),
            right: "fig1".into(),
        })
        .is_ok());
        match run(&Command::Verify {
            left: "fig1".into(),
            right: "mips".into(),
        }) {
            Err(e @ CliError::Verification { .. }) => {
                assert_eq!(e.exit_code(), 5);
                assert!(e.to_string().contains("NOT equivalent"));
            }
            other => unreachable!("expected a verification error, got {other:?}"),
        }
    }

    #[test]
    fn load_machine_reports_missing_files_as_parse_errors() {
        // A mistyped built-in name is read as a path; its error names
        // the built-ins.
        for (spec, expect) in [
            ("/no/such/file.mdl", "cannot read"),
            ("cydra", "cydra5-subset"),
        ] {
            match load_machine(spec) {
                Err(e @ CliError::Parse { .. }) => {
                    assert_eq!(e.exit_code(), 3);
                    assert!(e.to_string().contains(expect), "{e}");
                }
                other => unreachable!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn emitted_mdl_reparses() {
        let out = run(&Command::Reduce {
            machine: "cydra5-subset".into(),
            objective: Objective::KCycleWord { k: 4 },
            emit_mdl: true,
        })
        .expect("reduce succeeds");
        let mdl_start = out.find("machine \"").expect("mdl present");
        let (m, _) =
            rmd_machine::mdl::parse_machine(&out[mdl_start..]).expect("emitted mdl reparses");
        assert!(m.num_resources() > 0);
    }
}

#[cfg(test)]
mod lint_tests {
    use super::*;
    use std::path::Path;

    fn fixture(name: &str) -> String {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../analyze/tests/fixtures")
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn parses_lint_with_options() {
        let c = parse_args(
            &["lint", "mips", "--format", "json", "--deny", "warnings"].map(String::from),
        )
        .expect("valid command line");
        assert_eq!(
            c,
            Command::Lint {
                machine: "mips".into(),
                format: ReportFormat::Json,
                deny_warnings: true,
            }
        );
        let c = parse_args(&["lint", "mips", "--format", "sarif"].map(String::from))
            .expect("valid command line");
        assert_eq!(
            c,
            Command::Lint {
                machine: "mips".into(),
                format: ReportFormat::Sarif,
                deny_warnings: false,
            }
        );
        for bad in [
            &["lint"][..],
            &["lint", "mips", "--format", "yaml"][..],
            &["lint", "mips", "--deny", "infos"][..],
        ] {
            let e = parse_args(&bad.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .expect_err("usage error");
            assert_eq!(e.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn builtin_models_lint_without_errors() {
        for name in models::NAMES {
            let out = run(&Command::Lint {
                machine: name.into(),
                format: ReportFormat::Text,
                deny_warnings: true,
            })
            .expect("built-ins pass --deny warnings");
            assert!(out.contains("0 error(s)"), "{name}: {out}");
        }
    }

    #[test]
    fn error_fixture_exits_with_code_6_and_keeps_the_report() {
        match run(&Command::Lint {
            machine: fixture("l005_table_overrun.mdl"),
            format: ReportFormat::Text,
            deny_warnings: false,
        }) {
            Err(e @ CliError::Lint { .. }) => {
                assert_eq!(e.exit_code(), 6);
                let CliError::Lint { report, errors } = e else {
                    unreachable!()
                };
                assert!(errors >= 1);
                assert!(report.contains("RMD-L005"), "{report}");
            }
            other => unreachable!("expected a lint failure, got {other:?}"),
        }
    }

    #[test]
    fn deny_warnings_escalates_a_warning_only_fixture() {
        let spec = fixture("l001_dead_resource.mdl");
        let out = run(&Command::Lint {
            machine: spec.clone(),
            format: ReportFormat::Text,
            deny_warnings: false,
        })
        .expect("warnings alone exit 0");
        assert!(out.contains("RMD-L001"), "{out}");
        let e = run(&Command::Lint {
            machine: spec,
            format: ReportFormat::Text,
            deny_warnings: true,
        })
        .expect_err("--deny warnings escalates");
        assert_eq!(e.exit_code(), 6);
    }

    #[test]
    fn json_format_is_one_line_and_machine_readable() {
        let out = run(&Command::Lint {
            machine: "fig1".into(),
            format: ReportFormat::Json,
            deny_warnings: false,
        })
        .expect("fig1 lints clean of errors");
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(out.starts_with("{\"subject\":\"fig1\""), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // The report carries the same content fingerprint `rmd serve`
        // caches under and `rmd certify` binds certificates to.
        let fp = rmd_machine::content_fingerprint(&models::example_machine());
        assert!(out.contains(&format!("\"fingerprint\":\"{fp}\"")), "{out}");
    }

    #[test]
    fn sarif_format_is_a_valid_log() {
        let out = run(&Command::Lint {
            machine: "fig1".into(),
            format: ReportFormat::Sarif,
            deny_warnings: false,
        })
        .expect("fig1 lints clean of errors");
        assert!(out.contains("\"version\":\"2.1.0\""), "{out}");
        assert!(serde_json::from_str(&out).is_ok(), "{out}");
    }

    #[test]
    fn missing_lint_input_is_a_parse_error() {
        let e = run(&Command::Lint {
            machine: "/no/such/file.mdl".into(),
            format: ReportFormat::Text,
            deny_warnings: false,
        })
        .expect_err("missing file");
        assert_eq!(e.exit_code(), 3);
    }
}

#[cfg(test)]
mod certify_tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_certify_with_options() {
        let c = parse_args(&args(&[
            "certify", "fig1", "--out", "certs", "--format", "json", "--budget", "1000",
        ]))
        .expect("valid command line");
        assert_eq!(
            c,
            Command::Certify {
                machine: "fig1".into(),
                against: None,
                mutant: None,
                out: Some("certs".into()),
                format: ReportFormat::Json,
                budget: Some(1000),
            }
        );
        let c = parse_args(&args(&["certify", "fig1", "--mutant", "drop-usage:3"]))
            .expect("valid command line");
        assert_eq!(
            c,
            Command::Certify {
                machine: "fig1".into(),
                against: None,
                mutant: Some((rmd_fault::MutationOp::DropUsage, 3)),
                out: None,
                format: ReportFormat::Text,
                budget: None,
            }
        );
    }

    #[test]
    fn rejects_bad_certify_usage_with_exit_code_2() {
        for bad in [
            &["certify"][..],
            &["certify", "fig1", "--mutant"][..],
            &["certify", "fig1", "--mutant", "drop-usage"][..],
            &["certify", "fig1", "--mutant", "warp-drive:3"][..],
            &["certify", "fig1", "--mutant", "drop-usage:many"][..],
            &[
                "certify",
                "fig1",
                "--against",
                "mips",
                "--mutant",
                "drop-usage:3",
            ][..],
            &["certify", "fig1", "--against", "mips", "--out", "certs"][..],
            &["certify", "fig1", "--format", "yaml"][..],
            &["certify", "fig1", "--max-ii", "0"][..],
            &["certify", "fig1", "--max-ii", "12"][..],
            &["certify", "fig1", "--budget", "lots"][..],
            &["certify", "fig1", "--bogus"][..],
        ] {
            let e = parse_args(&args(bad)).expect_err("usage error");
            assert_eq!(e.exit_code(), 2, "{bad:?}");
        }
    }

    /// Builds a `certify` command; `out`, `against`, `mutant`, and
    /// `format` vary per test, the budget knobs stay at their defaults.
    fn certify_with(
        machine: &str,
        against: Option<&str>,
        mutant: Option<(rmd_fault::MutationOp, u64)>,
        out: Option<&str>,
        format: ReportFormat,
    ) -> Command {
        Command::Certify {
            machine: machine.into(),
            against: against.map(str::to_owned),
            mutant,
            out: out.map(str::to_owned),
            format,
            budget: None,
        }
    }

    #[test]
    fn certifies_fig1_and_writes_a_vouching_certificate() {
        let dir = std::env::temp_dir().join(format!("rmd-certify-cli-{}", std::process::id()));
        let out = run(&certify_with(
            "fig1",
            None,
            None,
            Some(&dir.to_string_lossy()),
            ReportFormat::Text,
        ))
        .expect("fig1 certifies");
        assert!(out.contains("certified equivalent"), "{out}");
        assert!(out.contains("[wrote "), "{out}");
        let body = std::fs::read_to_string(dir.join("fig1.json")).expect("cert written");
        let fp = rmd_machine::content_fingerprint(&models::example_machine());
        assert!(rmd_certify::Certificate::vouches_for(&body, &fp), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_format_emits_the_certificate_itself() {
        let out = run(&certify_with("fig1", None, None, None, ReportFormat::Json))
            .expect("fig1 certifies");
        assert!(out.contains("\"schema\": \"rmd-cert/1\""), "{out}");
        assert!(out.contains("\"status\": \"equivalent\""), "{out}");
    }

    #[test]
    fn against_mode_proves_a_machine_equivalent_to_itself() {
        let out = run(&certify_with(
            "fig1",
            Some("fig1"),
            None,
            None,
            ReportFormat::Text,
        ))
        .expect("fig1 == fig1");
        assert!(out.contains("equivalent"), "{out}");
        assert!(out.contains("pairs"), "{out}");
    }

    #[test]
    fn against_mode_disproves_with_exit_code_9() {
        // fig1 and mips do not even share an operation set: the proof
        // cannot be attempted, which is still a certification failure.
        let e = run(&certify_with(
            "fig1",
            Some("mips"),
            None,
            None,
            ReportFormat::Text,
        ))
        .expect_err("fig1 != mips");
        assert_eq!(e.exit_code(), 9);
        let CliError::Certify { report, message } = e else {
            panic!("expected a certify error");
        };
        assert!(report.contains("certification failed"), "{report}");
        assert!(message.contains("operation sets differ"), "{message}");
    }

    #[test]
    fn semantic_mutant_yields_a_confirmed_counterexample_and_exit_9() {
        // Find a seeded description-level mutant that changes the
        // forbidden-latency matrix, then certify it through the CLI: the
        // prover must report a counterexample (never panic) and the
        // runtime replay must confirm it.
        let m = models::example_machine();
        let (op, seed) = rmd_fault::ALL_OPERATORS
            .into_iter()
            .flat_map(|op| (0..8).map(move |s| (op, s)))
            .find(|&(op, seed)| {
                rmd_fault::mutate(&m, op, seed).is_some_and(|mu| {
                    matches!(
                        mu.payload,
                        rmd_fault::MutantPayload::Machine(_)
                            | rmd_fault::MutantPayload::ReducedMachine(_)
                    ) && mu.is_semantic(&m)
                })
            })
            .expect("fig1 has semantic description mutants");
        let e = run(&certify_with(
            "fig1",
            None,
            Some((op, seed)),
            None,
            ReportFormat::Text,
        ))
        .expect_err("semantic mutant must be disproved");
        assert_eq!(e.exit_code(), 9, "{op}:{seed}");
        let CliError::Certify { report, .. } = e else {
            panic!("expected a certify error");
        };
        assert!(report.contains("counterexample"), "{report}");
        assert!(
            report.contains("runtime replay confirms the divergence"),
            "{report}"
        );
    }

    #[test]
    fn sarif_failure_report_is_valid_json_with_the_finding() {
        let e = run(&certify_with(
            "fig1",
            Some("mips"),
            None,
            None,
            ReportFormat::Sarif,
        ))
        .expect_err("fig1 != mips");
        let CliError::Certify { report, .. } = e else {
            panic!("expected a certify error");
        };
        assert!(report.contains("\"ruleId\":\"RMD-C002\""), "{report}");
        assert!(serde_json::from_str(&report).is_ok(), "{report}");
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;

    #[test]
    fn table_command_renders_report() {
        let c = parse_args(&["table".to_string(), "fig1".to_string()]).expect("parses");
        let out = run(&c).expect("table runs");
        assert!(out.contains("number of resources"), "{out}");
        assert!(out.contains("res-uses"));
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    /// One row of the profile parse table: argv, then the expected
    /// loops / format / out / table6 fields of [`Command::Profile`].
    type ProfileRow<'a> = (
        &'a [&'a str],
        Option<usize>,
        ProfileFormat,
        Option<&'a str>,
        bool,
    );

    #[test]
    fn parses_profile_command_lines() {
        let rows: &[ProfileRow] = &[
            (&["profile", "fig1"], None, ProfileFormat::Text, None, false),
            (
                &["profile", "mips", "--loops", "8"],
                Some(8),
                ProfileFormat::Text,
                None,
                false,
            ),
            (
                &["profile", "fig1", "--format", "jsonl"],
                None,
                ProfileFormat::Jsonl,
                None,
                false,
            ),
            (
                &["profile", "fig1", "--format", "chrome", "--out", "t.json"],
                None,
                ProfileFormat::Chrome,
                Some("t.json"),
                false,
            ),
            (
                &["profile", "cydra5-subset", "--table6"],
                None,
                ProfileFormat::Text,
                None,
                true,
            ),
        ];
        for (argv, loops, format, out, table6) in rows {
            let c = parse_args(&args(argv)).expect("valid profile command line");
            assert_eq!(
                c,
                Command::Profile {
                    machine: argv[1].to_string(),
                    loops: *loops,
                    format: *format,
                    out: out.map(str::to_owned),
                    table6: *table6,
                },
                "argv: {argv:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_profile_usage_with_exit_code_2() {
        for argv in [
            &["profile"][..],
            &["profile", "fig1", "extra"][..],
            &["profile", "fig1", "--loops"][..],
            &["profile", "fig1", "--loops", "many"][..],
            &["profile", "fig1", "--format", "xml"][..],
            &["profile", "fig1", "--out"][..],
            &["profile", "fig1", "--bogus"][..],
            &["profile", "fig1", "--backend", "bitvec"][..],
        ] {
            let e = parse_args(&args(argv)).expect_err("should be a usage error");
            assert_eq!(e.exit_code(), 2, "argv: {argv:?}");
        }
    }

    #[test]
    fn profile_text_report_covers_phases_and_backends() {
        let out = run(&Command::Profile {
            machine: "fig1".into(),
            loops: Some(2),
            format: ProfileFormat::Text,
            out: None,
            table6: false,
        })
        .expect("profile fig1");
        for phase in rmd_core::REDUCTION_PHASES {
            assert!(out.contains(phase), "missing phase {phase}: {out}");
        }
        assert!(out.contains("query.modulo_bitvec"), "{out}");
        assert!(out.contains("Table 6"), "{out}");
    }

    #[test]
    fn profile_jsonl_export_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("rmd-profile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fig1.jsonl");
        let out = run(&Command::Profile {
            machine: "fig1".into(),
            loops: Some(0),
            format: ProfileFormat::Jsonl,
            out: Some(path.to_string_lossy().into_owned()),
            table6: false,
        })
        .expect("profile fig1 --format jsonl --out");
        assert!(out.contains("[wrote "), "{out}");
        let body = std::fs::read_to_string(&path).expect("export written");
        assert!(!body.is_empty());
        for line in body.lines() {
            assert!(
                rmd_bench::json_is_well_formed(line),
                "bad JSONL line: {line}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_prom_format_renders_text_exposition() {
        let out = run(&Command::Profile {
            machine: "fig1".into(),
            loops: Some(0),
            format: ProfileFormat::Prom,
            out: None,
            table6: false,
        })
        .expect("profile fig1 --format prom");
        assert!(out.contains("# TYPE reduce_runs counter"), "{out}");
        assert!(out.contains("reduce_runs 1"), "{out}");
        // Histograms render as summaries with quantile labels.
        assert!(out.contains("quantile=\"0.99\""), "{out}");
        // Prom metric names never carry dots or dashes.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad prom name in line: {line}"
            );
        }
    }

    #[test]
    fn unwritable_export_path_exits_with_code_7() {
        let e = run(&Command::Profile {
            machine: "fig1".into(),
            loops: Some(0),
            format: ProfileFormat::Jsonl,
            out: Some("/nonexistent-dir/trace.jsonl".into()),
            table6: false,
        })
        .expect_err("export must fail");
        assert_eq!(e.exit_code(), 7);
        assert!(
            e.to_string().contains("/nonexistent-dir/trace.jsonl"),
            "{e}"
        );
    }
}
