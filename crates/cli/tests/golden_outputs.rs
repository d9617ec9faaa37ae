//! Golden CLI outputs: `rmd stats`, `rmd table`, `rmd reduce` (res-uses
//! with `--emit-mdl`, and the 4-cycle word) and `rmd lint --format json`
//! on the five built-in models and the four file-only `machines/*.mdl`
//! must print, byte for byte, the transcripts committed under
//! `tests/golden/`, one file per machine.
//!
//! Each transcript is the concatenation, command by command, of a
//! `$ rmd <args>` header line and that command's stdout. The `.mdl`
//! paths are relative to this crate, where `cargo test` runs.

use rmd_cli::{parse_args, run};

/// (transcript file stem, machine spec).
const MACHINES: [(&str, &str); 9] = [
    ("fig1", "fig1"),
    ("mips", "mips"),
    ("alpha", "alpha"),
    ("cydra5", "cydra5"),
    ("cydra5-subset", "cydra5-subset"),
    ("vliw_dsp", "../../machines/vliw_dsp.mdl"),
    ("zoo_clustered", "../../machines/zoo_clustered.mdl"),
    ("zoo_deep_np", "../../machines/zoo_deep_np.mdl"),
    ("zoo_wide_issue", "../../machines/zoo_wide_issue.mdl"),
];

/// The commands, with `{}` standing for the machine spec.
const COMMANDS: [&str; 5] = [
    "stats {}",
    "table {}",
    "reduce {} --objective res-uses --emit-mdl",
    "reduce {} --objective word --k 4",
    "lint {} --format json",
];

fn transcript(spec: &str) -> String {
    let mut out = String::new();
    for command in COMMANDS {
        let line = command.replace("{}", spec);
        let argv: Vec<String> = line.split(' ').map(str::to_owned).collect();
        let cmd = parse_args(&argv).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        let stdout = run(&cmd).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        out.push_str(&format!("$ rmd {line}\n"));
        out.push_str(&stdout);
    }
    out
}

#[test]
fn cli_outputs_match_the_committed_transcripts() {
    for (stem, spec) in MACHINES {
        let path = format!("tests/golden/{stem}.txt");
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let got = transcript(spec);
        if got == want {
            continue;
        }
        let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
            (got.lines().collect(), want.lines().collect());
        let at = got_lines
            .iter()
            .zip(&want_lines)
            .position(|(g, w)| g != w)
            .unwrap_or(got_lines.len().min(want_lines.len()));
        panic!(
            "{path}: first difference at line {}:\n  got:  {:?}\n  want: {:?}",
            at + 1,
            got_lines.get(at),
            want_lines.get(at)
        );
    }
}
