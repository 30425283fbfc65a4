//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, sample count), then
//! the result as one JSON object on the last line. Exits non-zero when
//! a run cannot measure or an output check fails.

use perfbench::report::Outcome;
use perfbench::workload::{Spec, WORKLOADS};
use perfbench::{run, RunConfig, SETUPS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch and span files go here, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Spec::named(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let out_dir = PathBuf::from(OUT_DIR);
    Ok(RunConfig {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
        setups: SETUPS,
    })
}

fn report(cfg: &RunConfig, out: &Outcome) {
    println!(
        "{} seed = {} trace = {} seconds = {}",
        cfg.spec.name,
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds
    );
    for line in out.human_lines(cfg.spec.name) {
        println!("{line}");
    }
    for m in out.mismatches.iter().take(20) {
        let short: String = m.chars().take(400).collect();
        eprintln!("MISMATCH {short}");
    }
    if out.mismatches.len() > 20 {
        eprintln!("... {} mismatches in all", out.mismatches.len());
    }
    println!("{}", out.json_line());
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            report(&cfg, &out);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", cfg.spec.name, cfg.seed);
            ExitCode::FAILURE
        }
    }
}
