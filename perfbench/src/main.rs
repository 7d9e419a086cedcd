//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (each with its
//! value and unit). The line before it holds the run's probe median, scale and
//! unscaled metric values. Exits non-zero when an output check fails.
//!
//! `perfbench --probe` times one host-speed probe and prints its seconds; the
//! benchmark starts itself this way between its measured operations.

use f2_perfbench::probe::{probe, PROBE_FLAG};
use f2_perfbench::{run, Options, Scale, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Inputs, streams and traces stay inside the benchmark's own directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Options {
        workload,
        seed,
        seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace,
        scale: Scale::Full,
        work_dir: root.join("work").join(format!("{}-{}", workload.name(), std::process::id())),
        trace_dir: root.join("traces"),
        probe_exe: std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == [PROBE_FLAG] {
        println!("{:?}", probe());
        return ExitCode::SUCCESS;
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(outcome) => {
            println!("{}", outcome.unscaled_json());
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                for problem in &outcome.problems {
                    eprintln!("perfbench: {problem}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
