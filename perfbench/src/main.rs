//! Nebula benchmark: one closed-loop workload per run, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload annotate-large --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every metric is printed as `name value unit`; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A failed output check prints `"correct": false` and exits 1.

mod probe;
mod run;
#[cfg(test)]
mod tests;
mod workloads;

use run::{Outcome, Params, Scale};
use std::process::ExitCode;
use workloads::{AnnotateLarge, AnnotatePaged, ChurnFocal, ReplicatedTiny, NAMES};

const USAGE: &str =
    "usage: nebula-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Run one named workload.
fn run_workload(name: &str, params: &Params) -> Result<Outcome, String> {
    match name {
        "annotate-large" => run::run::<AnnotateLarge>(params),
        "annotate-paged" => run::run::<AnnotatePaged>(params),
        "churn-focal" => run::run::<ChurnFocal>(params),
        "replicated-tiny" => run::run::<ReplicatedTiny>(params),
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    }
}

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut params = Params { seed: 1, seconds: 20.0, trace: false, scale: Scale::Bench };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => params.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                params.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(params.seconds > 0.0 && params.seconds <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {NAMES:?}"));
    }
    Ok((workload, params))
}

/// The result line: one JSON object, every value with all its digits.
fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.check.is_ok(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, params) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&name, &params) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &outcome.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome));
    match &outcome.check {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: output check failed: {e}");
            ExitCode::from(1)
        }
    }
}
