//! perfbench — the end-to-end benchmark of the Muppet engine.
//!
//! ```text
//! perfbench --workload <hot_topics_local|hot_topics_tcp|zipf_durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its events from the seed, times the cluster's
//! set-up, offers load open-loop at the workload's fixed rate, then
//! saturates the cluster with a closed loop, and checks every final slate
//! against `core::reference`. It prints a readable summary, then, as its
//! last line, one JSON object: with `--trace 0` the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of a traced pass (see
//! README.md).

mod clock;
mod harness;
mod hot_topics;
mod openloop;
mod ops;
mod report;
mod stats;
mod trace;
mod zipf;

use std::process::ExitCode;

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            report::WORKLOADS
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, not {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn main() -> ExitCode {
    clock::now_ns(); // fix the epoch before anything is timed
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = report::run(&args.workload, args.seed, args.seconds, args.trace);
    print!("{}", out.summary);
    println!("{}", out.json);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload zipf_durable --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "zipf_durable".into(), seed: 7, seconds: 10, trace: true });
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload zipf_durable --trace 2")).is_err());
        assert!(parse_args(&argv("--workload zipf_durable --seconds")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
