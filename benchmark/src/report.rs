//! What leaves the benchmark: the driver's result line, the stamped
//! output files of `run` and `trace`, and `compare`'s verdicts.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::drive::Outcome;
use crate::json::Json;
use crate::ops::Workload;
use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// Where journals, traces and run files go: `benchmark/out/` from the
/// root of a checkout, `out/` from inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() { "benchmark/out" } else { "out" }.into()
}

/// The commit, read from `.git` without spawning anything; a checkout
/// that is not a repository says so.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    [".git", "../.git"]
        .iter()
        .find_map(|git| {
            let head = read(&format!("{git}/HEAD"))?;
            match head.strip_prefix("ref: ") {
                Some(reference) => read(&format!("{git}/{reference}")),
                None => Some(head),
            }
        })
        .map_or("unknown".into(), |rev| rev.chars().take(12).collect())
}

/// The stamp every output file starts with.
pub fn header(seed: u64) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("benchmark", Json::str("loosebench")),
        ("nproc", Json::Num(cores as f64)),
        ("git_rev", Json::str(git_rev())),
        ("seed", Json::Num(seed as f64)),
        ("connections", Json::Num(Workload::CONNECTIONS as f64)),
        (
            "flush_policy",
            Json::str(
                "SyncPolicy::Always: fsync after every WAL append, on the sandbox's filesystem",
            ),
        ),
    ])
}

/// The line the driver reads: last on standard output.
pub fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| {
                (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
            })),
        ),
    ])
}

/// Every metric by name with its unit, for a person.
pub fn print_outcome(workload: Workload, outcome: &Outcome) {
    eprintln!("{}: {} attempted, {} failed", workload.name(), outcome.attempted, outcome.failed);
    for m in &outcome.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        eprintln!("  {:<34} {:>14.3} {}{samples}", m.name, m.value, m.unit);
    }
}

/// One workload's results over the rounds of a `run` or `trace`.
struct Rounds {
    workload: Workload,
    attempted: Vec<f64>,
    failed: Vec<f64>,
    /// Per metric of the list, one value per round.
    values: Vec<Vec<f64>>,
}

/// One run in a fresh child process; its parsed result line.
fn child_run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let name = workload.name();
    let output = Command::new(&exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{name}: the run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!("{name}: no result line"))?;
    Json::parse(line).map_err(|e| format!("{name}: result line: {e}"))
}

/// Runs every workload `runs` times, each in a fresh child process (so
/// memory is per workload), rotating the order between rounds, and
/// writes the stamped file `<kind>-seed<N>.json`. `Ok(false)` when any
/// request failed.
pub fn run_all(traced: bool, seed: u64, seconds: u64, runs: usize) -> Result<bool, String> {
    let specs = if traced { PER_LAYER } else { END_TO_END };
    let mut table: Vec<Rounds> = Workload::ALL
        .map(|workload| Rounds {
            workload,
            attempted: vec![],
            failed: vec![],
            values: vec![vec![]; specs.len()],
        })
        .into();
    for round in 0..runs {
        for slot in 0..table.len() {
            let row = &mut table[(slot + round) % Workload::ALL.len()];
            let name = row.workload.name();
            eprintln!("loosebench: {name}, round {} of {runs}", round + 1);
            let result = child_run(row.workload, seed + round as u64, seconds, traced)?;
            let number = |v: Option<&Json>| {
                v.and_then(Json::as_f64).ok_or(format!("{name}: malformed result"))
            };
            row.attempted.push(number(result.get("attempted"))?);
            row.failed.push(number(result.get("failed"))?);
            for (values, m) in row.values.iter_mut().zip(specs) {
                let metric = result.get("metrics").and_then(|ms| ms.get(m.name));
                values.push(number(metric.and_then(|v| v.get("value")))?);
            }
        }
    }
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    let workloads = table.iter().map(|row| {
        let metrics = specs.iter().zip(&row.values).map(|(m, values)| {
            (m.name, Json::obj([("unit", Json::str(m.unit)), ("values", nums(values))]))
        });
        let body = [
            ("attempted", nums(&row.attempted)),
            ("failed", nums(&row.failed)),
            ("metrics", Json::obj(metrics)),
        ];
        (row.workload.name(), Json::obj(body))
    });
    let kind = if traced { "trace" } else { "run" };
    let body = Json::obj([
        ("header", header(seed)),
        ("kind", Json::str(kind)),
        ("seconds", Json::Num(seconds as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let file = out.join(format!("{kind}-seed{seed}.json"));
    std::fs::write(&file, body.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;

    println!("{:<14} {:<34} {:>14} {:<6} {:>8}", "workload", "metric", "median", "unit", "spread");
    for row in &table {
        let name = row.workload.name();
        let share = row.failed.iter().sum::<f64>() / row.attempted.iter().sum::<f64>().max(1.0);
        println!("{name:<14} {:<34} {share:>14.6} {:<6}", "failed_share", "share");
        for (m, values) in specs.iter().zip(&row.values) {
            let (mid, iqr) = (median(values), spread(values) * 100.0);
            println!("{name:<14} {:<34} {mid:>14.3} {:<6} {iqr:>7.1}%", m.name, m.unit);
        }
    }
    println!("wrote {}", file.display());
    // Any failed, refused or wrong request fails the whole command.
    Ok(table.iter().all(|row| row.failed.iter().all(|f| *f == 0.0)))
}

/// How one metric moved between two files, against its bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Regression,
    Improved,
    Unchanged,
    /// The inputs' own run-to-run spread exceeds the bound: no call.
    Unresolved,
}

/// Judges medians `a` → `b`. `worse` is the share by which `b` is worse
/// than `a` (negative when better).
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (mid_a, mid_b) = (median(a), median(b));
    let change = (mid_b - mid_a) / mid_a.abs().max(f64::MIN_POSITIVE);
    let worse = if m.better == Better::Lower { change } else { -change };
    let verdict = if worse > m.bound {
        Verdict::Regression
    } else if spread(a).max(spread(b)) > m.bound {
        Verdict::Unresolved
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

fn values(file: &Json, workload: &str, path: &[&str]) -> Vec<f64> {
    let mut node = file.get("workloads").and_then(|w| w.get(workload));
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_arr).map_or(vec![], |vs| vs.iter().filter_map(Json::as_f64).collect())
}

/// One row per workload × end-to-end metric. `Ok(true)` when something
/// regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut regressed = false;
    println!(
        "{:<14} {:<22} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    for w in Workload::ALL {
        let share = |f: &Json| {
            values(f, w.name(), &["failed"]).iter().sum::<f64>()
                / values(f, w.name(), &["attempted"]).iter().sum::<f64>().max(1.0)
        };
        // Failures have no tolerance: any increase is a regression.
        let (fa, fb) = (share(&a), share(&b));
        let verdict = if fb > fa { Verdict::Regression } else { Verdict::Unchanged };
        regressed |= verdict == Verdict::Regression;
        println!(
            "{:<14} {:<22} {fa:>13.6} {fb:>13.6} {:>8} {:>6}  {}",
            w.name(),
            "failed_share",
            "",
            "none",
            format!("{verdict:?}").to_lowercase()
        );
        for m in END_TO_END {
            let path = ["metrics", m.name, "values"];
            let (va, vb) = (values(&a, w.name(), &path), values(&b, w.name(), &path));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {}: missing from an input", w.name(), m.name));
            }
            let (worse, verdict) = judge(m, &va, &vb);
            regressed |= verdict == Verdict::Regression;
            println!(
                "{:<14} {:<22} {:>13.3} {:>13.3} {:>+7.1}% {:>5.0}%  {}",
                w.name(),
                m.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                m.bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let lower = MetricSpec { name: "x_us", unit: "us", better: Better::Lower, bound: 0.10 };
        let higher =
            MetricSpec { name: "x_per_s", unit: "1/s", better: Better::Higher, bound: 0.10 };
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(judge(&lower, &steady, &[120.0, 121.0, 119.0]).1, Verdict::Regression);
        assert_eq!(judge(&lower, &steady, &[80.0, 81.0, 79.0]).1, Verdict::Improved);
        assert_eq!(judge(&lower, &steady, &[104.0, 105.0, 103.0]).1, Verdict::Unchanged);
        assert_eq!(judge(&higher, &steady, &[80.0, 81.0, 79.0]).1, Verdict::Regression);
        assert_eq!(judge(&higher, &steady, &[120.0, 121.0, 119.0]).1, Verdict::Improved);
        // Noisy inputs that do not clear the bound cannot be called.
        assert_eq!(
            judge(&lower, &[80.0, 100.0, 120.0], &[82.0, 103.0, 118.0]).1,
            Verdict::Unresolved
        );
    }
}
