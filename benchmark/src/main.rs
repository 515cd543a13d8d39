//! The TReX macro-benchmark. One invocation runs one workload in its own
//! process:
//!
//! ```text
//! trex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--json <path>]
//! trex-benchmark list
//! trex-benchmark compare <a.json> <b.json> [BENCHMARK.json]
//! ```
//!
//! It prints `name unit value n=<samples>` per metric and, as its last
//! line, one JSON object `{correct, attempted, failed, metrics}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! `README.md` says why each workload and metric exists.

mod compare;
mod inputs;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::single_store::Kind;
use workloads::Run;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: trex-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--json PATH]\n\
         \x20      trex-benchmark list\n\
         \x20      trex-benchmark compare A.json B.json [BENCHMARK.json]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" | "--duration-s" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => parsed.trace = true,
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}\n{}",
            parsed.workload,
            usage()
        ));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            parsed.seconds
        ));
    }
    Ok(parsed)
}

/// Where this run's stores live: under the build directory, so that a
/// `cargo clean` takes them and the checkout stays free of them.
fn run_dir(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("benchmark")
        .join(format!("{workload}-{}", std::process::id()))
}

fn run_workload(args: &Args) -> Outcome {
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: run_dir(&args.workload),
    };
    let outcome = match args.workload.as_str() {
        "hot_topk" => workloads::single_store::run(&run, Kind::Hot),
        "cold_era" => workloads::single_store::run(&run, Kind::Cold),
        "http_zipf" => workloads::http_zipf::run(&run),
        "ingest_mixed" => workloads::ingest_mixed::run(&run),
        "partition_scatter" => workloads::partition_scatter::run(&run),
        "selfmanage_shift" => workloads::selfmanage_shift::run(&run),
        other => unreachable!("{other} passed the workload check"),
    };
    if outcome.correct() {
        // Stores are deleted on success and kept for a look after a failure.
        let _ = std::fs::remove_dir_all(&run.dir);
    }
    outcome
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for w in WORKLOADS {
                println!("{w}");
            }
            return ExitCode::SUCCESS;
        }
        Some("compare") => return compare::main(&args[1..]),
        _ => {}
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let outcome = run_workload(&args);
    let table: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    outcome.print_lines();
    for v in &outcome.violations {
        eprintln!("violation: {v}");
    }
    let result = outcome.result_json(table);
    if let Some(path) = &args.json {
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
