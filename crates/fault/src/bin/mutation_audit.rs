//! `mutation-audit`: run the fault-injection harness against built-in
//! machine models and fail (exit 1) unless every semantic mutant is
//! killed.
//!
//! ```text
//! mutation-audit [--model <name>|all] [--seeds N] [--seed S]
//! ```

use rmd_fault::audit_model;
use rmd_machine::models;

const DEFAULT_MODELS: [&str; 3] = ["fig1", "cydra5-subset", "mips"];

struct Options {
    models: Vec<String>,
    seeds: u64,
    base_seed: u64,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        models: DEFAULT_MODELS.iter().map(|s| s.to_string()).collect(),
        seeds: 16,
        base_seed: 0xE1C4_B0A7,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => {
                let v = it.next().ok_or("--model expects a name or `all`")?;
                if v == "all" {
                    opts.models = models::NAMES.iter().map(|s| s.to_string()).collect();
                } else {
                    models::by_name(v).ok_or_else(|| format!("unknown model `{v}`"))?;
                    opts.models = vec![v.clone()];
                }
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds expects a count")?;
                opts.seeds = v
                    .parse()
                    .map_err(|_| format!("--seeds expects a count, got `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed expects a number")?;
                opts.base_seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects a number, got `{v}`"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: mutation-audit [--model <name>|all] [--seeds N] [--seed S]".to_owned(),
                )
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut all_perfect = true;
    let mut any_semantic = false;
    for name in &opts.models {
        let machine = models::by_name(name).expect("validated during parsing");
        let report = audit_model(&machine, opts.seeds, opts.base_seed);
        print!("{}", report.render());
        println!();
        any_semantic |= report.total_semantic() > 0;
        if !report.is_perfect() {
            all_perfect = false;
        }
    }
    if !all_perfect {
        if any_semantic {
            eprintln!("mutation audit FAILED: surviving or wrongly-killed mutants (see above)");
        } else {
            eprintln!("mutation audit FAILED: no semantic mutants generated (raise --seeds)");
        }
        std::process::exit(1);
    }
}
