//! Runs one workload and prints its ledger rows and, as the last line,
//! the JSON result. Usually started through `perfbench/run.py`, which
//! builds this binary and prints the host header first.
//!
//! ```text
//! siopmp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corpus DIR]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use siopmp_perfbench::report::{ledger_table, result_line, END_TO_END, PER_LAYER};
use siopmp_perfbench::{run, RunConfig, WORKLOADS};

const USAGE: &str =
    "usage: siopmp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corpus DIR]";

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corpus: PathBuf::from("corpus"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {flag} value `{value}`: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--corpus" => cfg.corpus = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        format!(
            "--workload is required (one of {})\n{USAGE}",
            WORKLOADS.join(", ")
        )
    })?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("siopmp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("siopmp-perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload={workload} seed={} trace={} attempted={} failed={} fail_frac={}",
        cfg.seed,
        u8::from(cfg.trace),
        outcome.attempted,
        outcome.failed,
        outcome.fail_frac()
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# PROBLEM: {problem}");
    }
    let specs = if cfg.trace { PER_LAYER } else { END_TO_END };
    for line in ledger_table(specs, &outcome.values) {
        println!("{line}");
    }
    if let (true, Some(host), Some(model)) = (
        cfg.trace,
        outcome.values.get("check.host_ns"),
        outcome.values.get("check.model_cycles"),
    ) {
        println!("# check stage        host (wall)  | modelled (timing model)");
        println!(
            "# check stage  {:>10.1} ns  | {:>6} cycles  (CheckerKind::extra_cycles)",
            host.value, model.value
        );
    }
    println!("{}", result_line(&outcome, specs));
    ExitCode::SUCCESS
}
