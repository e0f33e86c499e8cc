//! Command line of the paper-figure benchmark.
//!
//! ```text
//! ark-paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints details on standard error and a report line, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans to
//! `.bench_traces/<workload>-seed<n>.json` in the working directory.

use ark_paperbench::{env::WorkDir, report, run, Config, Scale, Workload, WORKERS};
use std::process::ExitCode;

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = ark_paperbench::reference::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        workers: WORKERS,
        scale: Scale::FULL,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match run(&cfg, &work) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    drop(work);
    for m in &out.mismatches {
        eprintln!("output check failed: {m}");
    }
    if let Some(trace) = &out.trace_json {
        let dir = std::path::Path::new(".bench_traces");
        let file = dir.join(format!("{}-seed{}.json", cfg.workload.name(), cfg.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, trace)) {
            eprintln!("warning: cannot write {}: {e}", file.display());
        }
    }
    println!("{}", report::json_obj(&out.report));
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
