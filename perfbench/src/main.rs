//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh|replay|heavy --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed`; the program sees only their
//! bytes. With `--trace 0` the run prints the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a traced run. Every output is
//! checked against the generator's labels; the last line of standard
//! output is one JSON object, and the exit code is non-zero when any
//! check failed. See `perfbench/README.md` for the method.

mod check;
mod closed;
mod inputs;
mod replay;
mod trace;
mod util;

use std::time::Instant;
use util::{available_parallelism, nproc, secs, Report};

/// Client threads (closed loop) and batch workers (replay), capped by
/// the CPUs the process may use.
const MAX_CLIENTS: usize = 2;

/// Where stores and span files go, relative to the working directory.
pub const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload fresh|replay|heavy is required")?;
    // Required, so a run always lasts the length whose spread was measured.
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = nproc();
    let clients = MAX_CLIENTS.min(nproc).max(1);
    let mut report = Report::default();
    report.info("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", u8::from(args.trace));
    report.info("nproc", nproc);
    report.info("available_parallelism", available_parallelism());
    report.info("clients", clients);

    let t = Instant::now();
    match args.workload.as_str() {
        "fresh" | "heavy" => {
            let cases = if args.workload == "fresh" {
                inputs::fresh(args.seed)
            } else {
                inputs::heavy(args.seed)
            };
            report.info("harness.input_gen_s", secs(t));
            report.info("input_contracts", cases.len());
            report.info(
                "input_functions",
                cases.iter().map(|c| c.labels.len()).sum::<usize>(),
            );
            if args.trace {
                trace::run_closed(&args.workload, &cases, clients, args.seconds, &mut report);
            } else {
                closed::run(&cases, clients, args.seconds, &mut report);
            }
        }
        "replay" => {
            let inputs = inputs::replay(args.seed);
            report.info("harness.input_gen_s", secs(t));
            report.info("input_templates", inputs.templates.len());
            report.info("input_stream", inputs.stream.len());
            report.info("input_bursts_per_boundary", inputs.bursts.len());
            replay::run(&inputs, clients, args.seconds, args.trace, &mut report);
        }
        other => {
            eprintln!("perfbench: unknown workload {other} (fresh, replay, heavy)");
            std::process::exit(2);
        }
    }
    if !report.print() {
        std::process::exit(1);
    }
}
