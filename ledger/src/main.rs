//! Command line of the layer-ledger benchmark:
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload warm_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the resolved configuration as a `# config` line, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;

use bcag_ledger::run::{self, Config};
use bcag_ledger::workload;

fn usage() -> String {
    format!(
        "usage: bcag-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workload::NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !workload::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload `{}`", cfg.workload));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    // An inherited A/B switch would silently change the program measured.
    let switches: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("BCAG_"))
        .collect();
    if !switches.is_empty() {
        eprintln!(
            "bcag-ledger: refusing to run with {} set; unset every BCAG_* variable",
            switches.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("bcag-ledger: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("# config {}", run::header(&cfg));
    match run::run(&cfg) {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bcag-ledger: {e}");
            ExitCode::from(3)
        }
    }
}
