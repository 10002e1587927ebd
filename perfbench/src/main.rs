//! `perfbench --workload <ingest|join|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed by one
//! JSON result line: the end-to-end metrics untraced, the per-layer
//! metrics traced. Optional: `--spans <file>` writes the traced run's
//! spans as JSON lines.

use perfbench::workloads::{self, Params, Size, Workload};
use perfbench::{env, report, trace};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <ingest|join|serve> --seed <u64> \
                     --seconds <secs> --trace <0|1> [--spans <file>]";

struct Args {
    params: Params,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = trace.ok_or("--trace is required")?;
    Ok(Args {
        params: Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            size: Size::full(),
            // A traced run alternates untraced and traced operations, so
            // it needs two of each for the overhead medians.
            min_ops: if trace { 4 } else { 3 },
        },
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = env::knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with program knobs set ({}); the benchmark \
             measures default behaviour only — unset them",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let p = args.params;
    println!("{}", env::fingerprint(&p));

    let m = workloads::run(&p);

    if let (true, Some(path)) = (p.trace, &args.spans) {
        if let Err(e) = std::fs::write(path, trace::to_json_lines(&m.spans)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match report::lines(&p, &m) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
