//! The `rmd` command table: each subcommand's operands and options,
//! the one pass that checks an argument vector against it, and the
//! help text rendered from it.

use crate::{CliError, Command, ProfileFormat, ReportFormat};
use rmd_core::Objective;
use std::fmt::Write as _;

/// One option: its flag, the value it takes, and its help text.
///
/// The value is `""` for a switch, `<…>` for any word, and `a|b|c` for
/// exactly those words. The help text carries its own line breaks.
type Opt = (&'static str, &'static str, &'static str);

/// One subcommand: the words it takes, how its help row reads, and the
/// step that builds its [`Command`] once the generic pass has checked
/// the arguments.
struct Spec {
    name: &'static str,
    operands: &'static [&'static str],
    summary: &'static str,
    options: &'static [Opt],
    build: fn(&Args<'_>) -> Result<Command, CliError>,
}

/// Every subcommand except `help`, in help order.
#[rustfmt::skip]
const SPECS: &[Spec] = &[
    Spec {
        name: "stats",
        operands: &["<machine>"],
        summary: "description statistics",
        options: &[],
        build: |a| Ok(Command::Stats { machine: a.operand(0) }),
    },
    Spec {
        name: "reduce",
        operands: &["<machine>"],
        summary: "reduce + verify",
        options: &[
            ("--objective", "res-uses|word", "selection objective [res-uses]"),
            ("--k", "<N>", "cycles per word (with `word`) [4]"),
            ("--emit-mdl", "", "print the reduced machine as MDL"),
        ],
        build: reduce,
    },
    Spec {
        name: "verify",
        operands: &["<machine-a>", "<machine-b>"],
        summary: "exact equivalence check",
        options: &[],
        build: |a| Ok(Command::Verify { left: a.operand(0), right: a.operand(1) }),
    },
    Spec {
        name: "matrix",
        operands: &["<machine>"],
        summary: "forbidden-latency matrix",
        options: &[],
        build: |a| Ok(Command::Matrix { machine: a.operand(0) }),
    },
    Spec {
        name: "render",
        operands: &["<machine>"],
        summary: "ASCII reservation tables",
        options: &[],
        build: |a| Ok(Command::Render { machine: a.operand(0) }),
    },
    Spec {
        name: "table",
        operands: &["<machine>"],
        summary: "paper-style reduction report",
        options: &[],
        build: |a| Ok(Command::Table { machine: a.operand(0) }),
    },
    Spec {
        name: "lint",
        operands: &["<machine>"],
        summary: "lint the description",
        options: &[
            ("--format", "text|json|sarif", "report format [text]"),
            ("--deny", "warnings", "treat warnings as errors"),
        ],
        build: |a| Ok(Command::Lint {
            machine: a.operand(0),
            format: report_format(a),
            deny_warnings: a.has("--deny"),
        }),
    },
    Spec {
        name: "certify",
        operands: &["<machine>"],
        summary: "prove reductions equivalent ->\n\
                  certs/<machine>.json",
        options: &[
            ("--out", "<DIR>", "write the certificate JSON to\n\
                                DIR/<machine>.json"),
            ("--against", "<machine>", "prove equivalence of two given\n\
                                        descriptions instead of the\n\
                                        machine's own reductions"),
            ("--mutant", "<OP:SEED>", "certify a seeded rmd-fault\n\
                                       mutant against the original;\n\
                                       counterexamples are replayed\n\
                                       through the runtime query\n\
                                       modules"),
            ("--format", "text|json|sarif", "result format [text]"),
            ("--budget", "<N>", "global-pass product-state\n\
                                 budget"),
        ],
        build: certify,
    },
    Spec {
        name: "fuzz",
        operands: &[],
        summary: "generative differential fuzzing",
        options: &[
            ("--seed", "<N>", "base campaign seed [0]"),
            ("--count", "<N>", "machines to generate [100]"),
            ("--size", "small|medium|large", "generator size envelope [small]"),
            ("--mutant", "<OP:SEED>", "corrupt every case's reduction\n\
                                       with this seeded rmd-fault\n\
                                       operator (harness self-test)"),
            ("--corpus", "<DIR>", "write minimized failures here\n\
                                   as replayable .mdl entries"),
            ("--replay", "", "replay the corpus directory\n\
                              [corpus] instead of fuzzing"),
        ],
        build: fuzz,
    },
    Spec {
        name: "profile",
        operands: &["<machine>"],
        summary: "traced run -> phase/latency report",
        options: &[
            ("--loops", "<N>", "suite loops to schedule [64]"),
            ("--format", "text|jsonl|chrome|prom", "report format [text]"),
            ("--out", "<FILE>", "write the report to FILE"),
            ("--table6", "", "append the per-function work\n\
                              table and record it under\n\
                              results/PROFILE_<name>.json"),
        ],
        build: |a| Ok(Command::Profile {
            machine: a.operand(0),
            loops: a.num("--loops")?,
            format: a.choice("--format", [
                ProfileFormat::Text, ProfileFormat::Jsonl,
                ProfileFormat::Chrome, ProfileFormat::Prom,
            ]),
            out: a.string("--out"),
            table6: a.has("--table6"),
        }),
    },
    Spec {
        name: "serve",
        operands: &[],
        summary: "line-JSON scheduling daemon",
        options: &[
            ("--socket", "<PATH>", "serve a unix socket instead of\n\
                                    stdin/stdout"),
            ("--queue", "<N>", "admission-queue depth [64];\n\
                                overflow is shed with a typed\n\
                                `overloaded` reply"),
            ("--deadline-ms", "<N>", "default per-request deadline\n\
                                      [0 = none]"),
            ("--chaos", "<SEED>", "deterministic fault injection\n\
                                   (corrupt/slow/panic ~1/10 each)"),
            ("--metrics", "<FILE>", "write flushed rmd-obs metrics\n\
                                     JSON here [stderr]"),
            ("--metrics-every", "<N>", "also emit a metrics snapshot\n\
                                        (JSONL) every N requests while\n\
                                        serving [0 = off]"),
            ("--slow-ms", "<N>", "log a structured JSONL record\n\
                                  for every request over N ms\n\
                                  [0 = off]"),
            ("--certs", "<DIR>", "admit only machines some\n\
                                  certificate in DIR vouches\n\
                                  for [certs]"),
            ("--uncertified", "", "serve without the certificate\n\
                                   gate"),
        ],
        build: serve,
    },
    Spec {
        name: "models",
        operands: &[],
        summary: "list built-in models",
        options: &[],
        build: |_| Ok(Command::Models),
    },
];

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed command lines.
pub fn parse_args(argv: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let spec = SPECS
        .iter()
        .find(|s| s.name == cmd)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{cmd}` (try `rmd help`)")))?;
    (spec.build)(&spec.check(rest)?)
}

/// A subcommand's arguments after the generic pass.
struct Args<'a> {
    spec: &'static Spec,
    operands: &'a [String],
    /// The last value given for each of `spec.options`, by position;
    /// `""` for a switch that was given.
    values: Vec<Option<&'a str>>,
}

impl Spec {
    /// The generic pass: operands first, in order, then options, each
    /// checked against this spec's table. A repeated option keeps its
    /// last value.
    fn check<'a>(&'static self, argv: &'a [String]) -> Result<Args<'a>, CliError> {
        for (i, what) in self.operands.iter().enumerate() {
            argv.get(i)
                .filter(|a| !a.starts_with('-'))
                .ok_or_else(|| CliError::Usage(format!("`rmd {}` requires {what}", self.name)))?;
        }
        let (operands, rest) = argv.split_at(self.operands.len());
        let mut values = vec![None; self.options.len()];
        let mut rest = rest.iter();
        while let Some(arg) = rest.next() {
            let i = self
                .options
                .iter()
                .position(|o| o.0 == arg)
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "unexpected argument `{arg}` to `rmd {}`",
                        self.name
                    ))
                })?;
            let (flag, value, _) = self.options[i];
            values[i] = Some(if value.is_empty() {
                ""
            } else {
                let v = rest
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("`{flag}` expects {value}")))?;
                if !value.starts_with('<') && !value.split('|').any(|w| w == v) {
                    return Err(CliError::Usage(format!(
                        "`{flag}` expects {value}, got `{v}`"
                    )));
                }
                v
            });
        }
        Ok(Args {
            spec: self,
            operands,
            values,
        })
    }
}

impl<'a> Args<'a> {
    fn operand(&self, i: usize) -> String {
        self.operands[i].clone()
    }

    /// The position of `flag` in this command's option table.
    fn index(&self, flag: &str) -> usize {
        self.spec
            .options
            .iter()
            .position(|o| o.0 == flag)
            .expect("a command step reads only its own spec's flags")
    }

    /// The value given for `flag`, if any; `""` for a given switch.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values[self.index(flag)]
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    fn string(&self, flag: &str) -> Option<String> {
        self.value(flag).map(str::to_owned)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        let i = self.index(flag);
        let want = self.spec.options[i].1;
        self.values[i]
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("`{flag}` expects {want}, got `{v}`")))
            })
            .transpose()
    }

    /// [`Args::num`] for options whose value must be at least 1.
    fn positive<T: std::str::FromStr + From<u8> + PartialEq>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, CliError> {
        let n = self.num(flag)?;
        if n == Some(T::from(0)) {
            return Err(CliError::Usage(format!("`{flag}` must be at least 1")));
        }
        Ok(n)
    }

    /// The entry of `values` at the position of the word given for an
    /// `a|b|c` option, or the default when none was given.
    fn choice<T: Copy + Default, const N: usize>(&self, flag: &str, values: [T; N]) -> T {
        let i = self.index(flag);
        self.values[i].map_or_else(T::default, |given| {
            let word = self.spec.options[i].1.split('|').position(|w| w == given);
            values[word.expect("the generic pass admits only listed words")]
        })
    }
}

fn report_format(a: &Args<'_>) -> ReportFormat {
    let formats = [ReportFormat::Text, ReportFormat::Json, ReportFormat::Sarif];
    a.choice("--format", formats)
}

fn reduce(a: &Args<'_>) -> Result<Command, CliError> {
    let k = a.positive("--k")?;
    let objective = if a.value("--objective") == Some("word") {
        Objective::KCycleWord { k: k.unwrap_or(4) }
    } else if k.is_some() {
        return Err(CliError::Usage(
            "`--k` only applies with `--objective word`".to_owned(),
        ));
    } else {
        Objective::ResUses
    };
    Ok(Command::Reduce {
        machine: a.operand(0),
        objective,
        emit_mdl: a.has("--emit-mdl"),
    })
}

fn certify(a: &Args<'_>) -> Result<Command, CliError> {
    let against = a.string("--against");
    let mutant = a.value("--mutant").map(parse_mutant).transpose()?;
    let out = a.string("--out");
    if against.is_some() && mutant.is_some() {
        return Err(CliError::Usage(
            "`--against` and `--mutant` are mutually exclusive".to_owned(),
        ));
    }
    if out.is_some() && (against.is_some() || mutant.is_some()) {
        return Err(CliError::Usage(
            "`--out` only applies when certifying a machine against its own reductions".to_owned(),
        ));
    }
    Ok(Command::Certify {
        machine: a.operand(0),
        against,
        mutant,
        out,
        format: report_format(a),
        budget: a.num("--budget")?,
    })
}

fn fuzz(a: &Args<'_>) -> Result<Command, CliError> {
    let mutant = a.value("--mutant").map(parse_mutant).transpose()?;
    let replay = a.has("--replay");
    if replay && mutant.is_some() {
        return Err(CliError::Usage(
            "`--replay` re-injects each entry's recorded mutant; `--mutant` does not apply"
                .to_owned(),
        ));
    }
    Ok(Command::Fuzz {
        seed: a.num("--seed")?.unwrap_or(0),
        count: a.positive("--count")?.unwrap_or(100),
        size: a.value("--size").unwrap_or("small").to_owned(),
        mutant,
        corpus: a.string("--corpus"),
        replay,
    })
}

fn serve(a: &Args<'_>) -> Result<Command, CliError> {
    let certs = a.string("--certs");
    let uncertified = a.has("--uncertified");
    if uncertified && certs.is_some() {
        return Err(CliError::Usage(
            "`--certs` and `--uncertified` are mutually exclusive".to_owned(),
        ));
    }
    Ok(Command::Serve {
        socket: a.string("--socket"),
        queue: a.positive("--queue")?,
        deadline_ms: a.num("--deadline-ms")?,
        chaos: a.num("--chaos")?,
        metrics: a.string("--metrics"),
        metrics_every: a.num("--metrics-every")?,
        slow_ms: a.num("--slow-ms")?,
        certs,
        uncertified,
    })
}

/// Parses a `--mutant OP:SEED` argument against the rmd-fault operator
/// vocabulary, e.g. `drop-usage:3`. Unknown operators are a usage error
/// that lists the valid names.
fn parse_mutant(spec: &str) -> Result<(rmd_fault::MutationOp, u64), CliError> {
    let list = rmd_fault::ALL_OPERATORS.map(|o| o.name()).join(", ");
    let Some((name, seed)) = spec.split_once(':') else {
        return Err(CliError::Usage(format!(
            "`--mutant` expects <OP:SEED> (operators: {list})"
        )));
    };
    let op = rmd_fault::ALL_OPERATORS
        .into_iter()
        .find(|o| o.name() == name)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown mutation operator `{name}` (valid operators: {list})"
            ))
        })?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| CliError::Usage(format!("`--mutant` expects a numeric seed, got `{seed}`")))?;
    Ok((op, seed))
}

/// The `rmd help` text: usage and option rows rendered from the command
/// table, then notes on exit codes and behaviour.
#[must_use]
pub fn help() -> String {
    let mut s =
        String::from("rmd — reduced multipipeline machine descriptions (PLDI '96)\n\nUSAGE:\n");
    for spec in SPECS {
        let mut words = spec.operands.to_vec();
        if !spec.options.is_empty() {
            words.push("[options]");
        }
        let usage = format!("rmd {:<6} {}", spec.name, words.join(" "));
        help_row(&mut s, &usage, spec.summary);
    }
    for spec in SPECS.iter().filter(|s| !s.options.is_empty()) {
        let _ = write!(s, "\nOPTIONS ({}):\n", spec.name);
        for (flag, value, text) in spec.options {
            help_row(&mut s, format!("{flag} {value}").trim_end(), text);
        }
    }
    s.push('\n');
    s.push_str(NOTES);
    s
}

/// One help row: `left` in a 41-column cell, then `text`, whose further
/// lines are indented under its first.
fn help_row(s: &mut String, left: &str, text: &str) {
    for (i, line) in text.lines().enumerate() {
        let _ = writeln!(s, "    {:<41}{line}", if i == 0 { left } else { "" });
    }
}

/// The prose after the option rows.
const NOTES: &str = "\
Profile runs the reduction pipeline, all four query backends, and the
loop-suite scheduler under rmd-obs tracing; `jsonl` dumps the raw event
stream, `chrome` a trace loadable in chrome://tracing, and `prom` the
merged metric registry as Prometheus/OpenMetrics text exposition.
Export failures (--out / --table6) exit with code 7.

Lint exits 0 when no error-severity findings remain and 6 otherwise;
the report is always printed on stdout.

Certify statically proves that every reduction of the machine admits
exactly the same placements as the original, in every reachable linear
and modulo scheduling state, and writes a deterministic certificate
that `rmd serve` checks before admitting the machine. It exits 0 on a
proof and 9 on a disproof (printing the counterexample trace) or when
the proof cannot be completed.

Fuzz generates seeded, structure-aware machine descriptions and checks
render/parse round-trips, lints, both reduction objectives, and a
differential query trace across all four backends plus the automata
baseline. Failures are minimized, cross-checked by the static prover,
and (with --corpus) written as self-contained regression entries; a
failing campaign or a violated replay expectation exits 10. Equal
seeds reproduce identical campaigns.

Serve answers every request in-band with a typed JSON reply and exits 0
on a graceful drain (SIGTERM, EOF, or a `shutdown` request); only
transport setup failures (e.g. the socket path cannot be bound) exit
with code 8. Machines are admitted only when a certificate under the
--certs directory vouches for their content fingerprint, unless
--uncertified is given; uncertified machines are refused with a typed
`uncertified` reply. Live telemetry: a `{\"type\":\"metrics\"}` frame
returns a registry snapshot in-band, `\"trace\":true` on any request
returns its span tree inline (replies without it stay byte-identical
to the offline CLI), and panics, quarantines, and drains dump a
flight-recorder black box of the last requests to stderr.

<machine> is a built-in model name (fig1, mips, alpha, cydra5,
cydra5-subset) or a path to an .mdl file.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Command, CliError> {
        parse_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// The words to try for an option's value: every listed word, or
    /// one sample of a `<…>` placeholder.
    fn samples(value: &str) -> Vec<&str> {
        match value {
            "<N>" | "<SEED>" => vec!["7"],
            "<OP:SEED>" => vec!["drop-usage:1"],
            _ if value.starts_with('<') => vec!["x"],
            _ => value.split('|').collect(),
        }
    }

    /// Walks the whole table: every option is read by its command's
    /// step, refuses a missing value with a readable message, and has
    /// its row in the help text.
    #[test]
    fn every_table_row_is_parsed_checked_and_documented() {
        let help = help();
        for spec in SPECS {
            let mut base = vec![spec.name];
            base.extend(spec.operands.iter().map(|_| "fig1"));
            assert!(help.contains(&format!("rmd {:<6} {}", spec.name, spec.operands.join(" "))));
            assert!(help.contains(spec.summary.lines().next().unwrap_or_default()));
            for &(flag, value, text) in spec.options {
                let mut argv = base.clone();
                if flag == "--k" {
                    argv.extend(["--objective", "word"]);
                }
                let plain = parse(&argv).expect("the base command line parses");
                argv.push(flag);
                let parsed: Vec<Command> = if value.is_empty() {
                    vec![parse(&argv).expect("the switch parses")]
                } else {
                    match parse(&argv) {
                        Err(CliError::Usage(m)) => assert!(
                            m.contains(flag) && !m.contains("None") && !m.contains("Some("),
                            "{argv:?}: {m}"
                        ),
                        other => panic!("{argv:?} without a value: {other:?}"),
                    }
                    samples(value)
                        .into_iter()
                        .map(|v| parse(&[&argv[..], &[v]].concat()).expect("the value parses"))
                        .collect()
                };
                assert!(
                    parsed.iter().any(|c| *c != plain),
                    "{argv:?} {value} changes nothing"
                );
                for (i, c) in parsed.iter().enumerate() {
                    assert!(!parsed[..i].contains(c), "{flag}: two words parse alike");
                }
                assert!(
                    help.contains(format!("    {flag} {value}").trim_end()),
                    "{flag}"
                );
                for line in text.lines() {
                    assert!(help.contains(line), "{flag}: {line}");
                }
            }
        }
        for line in help.lines() {
            assert!(
                line.chars().count() <= 80,
                "help line over 80 columns: {line}"
            );
        }
    }
}
