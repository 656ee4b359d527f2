//! `loosebench`: see `benchmark/README.md`.
//!
//! ```text
//! loosebench --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! loosebench run     [--seed N] [--seconds S] [--runs K]     all workloads, untraced
//! loosebench trace   [--seed N]                              all workloads, traced
//! loosebench compare A.json B.json                           apply the bounds
//! loosebench manifest                                        print BENCHMARK.json
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use loosebench::drive::{run_workload, RunConfig};
use loosebench::ops::Workload;
use loosebench::report::{compare, header, out_dir, print_outcome, result_line, run_all};
use loosebench::spec;
use loosebench::trace::trace_workload;
use loosebench::world::Scale;

/// Warm-up before every measured window, seconds.
const WARMUP_S: u64 = 3;
/// The window `run` measures when not told otherwise, seconds.
const RUN_WINDOW_S: u64 = 30;

/// The value after `--name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            let text = args.get(i + 1).ok_or(format!("{name} needs a value"))?;
            text.parse().map(Some).map_err(|_| format!("{name}: cannot read {text:?}"))
        }
    }
}

fn one_run(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or(format!("no workload called {name:?}"))?;
    let seed: u64 = flag(args, "--seed")?.ok_or("--seed is required")?;
    let seconds: u64 = flag(args, "--seconds")?.unwrap_or(spec::RUN_SECONDS);
    let traced = flag::<u8>(args, "--trace")?.unwrap_or(0) == 1;
    let cfg = RunConfig {
        workload,
        scale: Scale::FULL,
        seed,
        warmup: Duration::from_secs(WARMUP_S),
        window: Duration::from_secs(seconds),
        out: out_dir(),
    };
    let outcome = if traced { trace_workload(&cfg, &header(seed))? } else { run_workload(&cfg)? };
    print_outcome(workload, &outcome);
    // The result line carries the verdict; the exit code only says
    // whether there is a line.
    println!("{}", result_line(&outcome));
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let seed = flag(args, "--seed")?.unwrap_or(1);
            let seconds = flag(args, "--seconds")?.unwrap_or(RUN_WINDOW_S);
            run_all(false, seed, seconds, flag(args, "--runs")?.unwrap_or(1))
        }
        Some("trace") => run_all(true, flag(args, "--seed")?.unwrap_or(1), spec::RUN_SECONDS, 1),
        Some("compare") => match args {
            [_, a, b] => compare(Path::new(a), Path::new(b)).map(|regressed| !regressed),
            _ => Err("compare takes two files".into()),
        },
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        _ => one_run(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("loosebench: {why}");
            ExitCode::from(2)
        }
    }
}
