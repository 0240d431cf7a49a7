//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the current directory and prints, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Stores live under `.bench_work/` and are removed at the end; a
//! traced run writes its spans to `.bench_out/<workload>.trace.tsv`.

use perfbench::inputs::{Scale, Workload};
use perfbench::run::{run, Options};
use std::process::ExitCode;

fn parse() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 24.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
        work_dir: cwd.join(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        out_dir: cwd.join(".bench_out"),
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload serve-mine|mine-batch|serve-mixed --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
