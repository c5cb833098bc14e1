//! # pdt-benchmark — one benchmark for `tune`, `serve` and `replay`
//!
//! ```text
//! pdt-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
//! pdt-benchmark compare <base.json>... -- <new.json>...
//! ```
//!
//! `run` prints every metric as `name value unit`, writes the run's
//! envelope (JSON) and ends standard output with the one-line result
//! the benchmark driver reads. README.md in this directory has the
//! metric definitions, the workloads and how to compare two commits.

mod compare;
mod inputs;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use run::RunArgs;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  pdt-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
  pdt-benchmark compare <base.json>... -- <new.json>...";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: run::DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => run.out = Some(value()?.into()),
            // Bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                run.trace = args
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(run)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut sides = args.split(|a| a == "--");
    let (Some(base), Some(new), None) = (sides.next(), sides.next(), sides.next()) else {
        return Err(USAGE.to_string());
    };
    let read_all = |paths: &[String]| -> Result<Vec<String>, String> {
        if paths.is_empty() {
            return Err(USAGE.to_string());
        }
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
            .collect()
    };
    let (table, pass) = compare::compare(&read_all(base)?, &read_all(new)?)?;
    print!("{table}");
    Ok(pass)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            // Debug builds back every cache serve with a real optimizer
            // call: their counts and times describe another program.
            if cfg!(debug_assertions) {
                println!("degraded: pdt-benchmark reports from release builds only");
                return ExitCode::from(2);
            }
            parse_run(rest).and_then(|run| run::run(&run, process_start))
        }
        Some((cmd, rest)) if cmd == "compare" => run_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pdt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_flags_parse_in_both_trace_spellings() {
        let driver = parse_run(&args(
            "--workload relax_deep --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((driver.seed, driver.seconds, driver.trace), (7, 3, true));
        assert!(
            !parse_run(&args("--workload relax_deep --trace 0 --seed 2"))
                .unwrap()
                .trace
        );
        let bare = parse_run(&args("--workload serve_fleet --trace --seed 2")).unwrap();
        assert!(bare.trace && bare.seed == 2);
        assert!(
            parse_run(&args("--workload serve_fleet --trace"))
                .unwrap()
                .trace
        );
        assert!(parse_run(&args("--workload relax_deep --seed")).is_err());
    }
}
