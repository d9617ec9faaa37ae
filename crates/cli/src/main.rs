//! The `rmd` binary. All logic lives in the library for testability.
//!
//! Exit codes: 0 success, 1 internal error, 2 usage, 3 parse,
//! 4 validation, 5 verification failure, 6 lint findings at error
//! severity, 7 export failure, 8 serve transport failure, 9
//! certification failure, 10 fuzz divergence or corpus-replay
//! violation (see `rmd_cli::CliError`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match rmd_cli::parse_args(&args) {
        Ok(cmd) => match rmd_cli::run(&cmd) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                // Lint, certify, and fuzz failures still print the full
                // report (findings, counterexample trace, minimized
                // machines) on stdout so machine-readable formats stay
                // intact; only the one-line summary goes to stderr.
                match &e {
                    rmd_cli::CliError::Lint { report, .. }
                    | rmd_cli::CliError::Certify { report, .. }
                    | rmd_cli::CliError::Fuzz { report, .. } => print!("{report}"),
                    _ => {}
                }
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", rmd_cli::HELP);
            std::process::exit(e.exit_code());
        }
    }
}
