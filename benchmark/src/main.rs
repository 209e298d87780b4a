//! The repository benchmark: four seeded workloads, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced one, and `compare`.
//!
//! ```text
//! easz-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! easz-benchmark compare <A.jsonl> <B.jsonl> [--spec BENCHMARK.json]
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod alloc;
mod compare;
mod decode;
mod edge;
mod harness;
mod inputs;
mod json;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: easz-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       \
easz-benchmark compare <A.jsonl> <B.jsonl> [--spec BENCHMARK.json]";

/// The value after `--name` in `args`.
fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn run(args: &[String], started: Instant) -> Result<bool, String> {
    let workload = option(args, "--workload").ok_or(USAGE)?;
    let number = |name: &str| {
        option(args, name)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or(format!("{name} needs a whole number\n{USAGE}"))
    };
    let run_args = harness::RunArgs {
        started,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        traced: number("--trace")? == 1,
    };
    if run_args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let report = match workload {
        "edge_encode" => edge::run(&run_args),
        "decode_offline" => decode::run(&run_args),
        "serve_steady" => serve::run(&run_args, serve::Kind::Steady),
        "serve_batch" => serve::run(&run_args, serve::Kind::Batch),
        other => Err(format!(
            "unknown workload {other}: the workloads are {}",
            report::WORKLOADS.join(", ")
        )),
    }?;
    let line = report.print(workload, run_args.seed, run_args.seconds, run_args.traced)?;
    if let Some(path) = option(args, "--out") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(report.failed == 0)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b, ..] = args else { return Err(USAGE.into()) };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = read(option(args, "--spec").unwrap_or("BENCHMARK.json"))?;
    Ok(!compare::compare(&spec, &read(a)?, &read(b)?)?)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        run(&args, started)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed correctness check or a regression: already printed.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
