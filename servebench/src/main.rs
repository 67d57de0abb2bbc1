//! `servebench` — adcast's benchmark.
//!
//! ```text
//! servebench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the workload through the `adcast-serve` /
//! `adcast-router` binaries in `DIR` and reports the end-to-end metrics;
//! `--trace 1` replays the same inputs through each layer in-process and
//! reports the per-layer metrics. The last stdout line is the JSON
//! result; the exit code is nonzero when any correctness check fails.
//! See `servebench/README.md`.

mod inputs;
mod ladder;
mod procs;
mod served;
mod spans;
mod twin;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use inputs::Workload;
use procs::Env;
use util::result_json;

/// A run that has not finished by then is killed, servers included.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    bin_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| {
        value(name)?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        bin_dir: PathBuf::from(value("--bin-dir")?),
        workload: Workload::parse(workload).ok_or_else(|| {
            format!("unknown workload {workload} (ingest-heavy, routed-replicated)")
        })?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = args.bin_dir.join(format!(
        "servebench-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("servebench: mkdir {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let finished = std::sync::Arc::new(AtomicBool::new(false));
    let watchdog = {
        let finished = std::sync::Arc::clone(&finished);
        std::thread::spawn(move || {
            let step = Duration::from_millis(100);
            let mut waited = Duration::ZERO;
            while waited < WATCHDOG {
                if finished.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(step);
                waited += step;
            }
            eprintln!("servebench: run exceeded {WATCHDOG:?}; killing servers");
            procs::kill_all_registered();
            std::process::exit(3);
        })
    };
    let env = Env {
        bin_dir: args.bin_dir.clone(),
        work_dir: work_dir.clone(),
    };
    let inputs = inputs::generate(args.workload, args.seed, args.seconds);
    let outcome = if args.trace {
        ladder::run(&env, args.workload, &inputs, args.seed, args.seconds)
    } else {
        served::run(&env, args.workload, &inputs, args.seed, args.seconds)
    };
    finished.store(true, Ordering::SeqCst);
    let _ = watchdog.join();
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Err(e) => {
            eprintln!("servebench: run failed: {e}");
            ExitCode::FAILURE
        }
        Ok(o) => {
            for m in &o.report.0 {
                println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
            for f in &o.failures {
                eprintln!("servebench: CHECK FAILED: {f}");
            }
            let correct = o.failures.is_empty();
            println!("{}", result_json(correct, o.attempted, o.failed, &o.report));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
