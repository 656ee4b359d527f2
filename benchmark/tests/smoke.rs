//! Tiny worlds, one-second windows: the benchmark keeps the promises
//! `BENCHMARK.json` makes, and its inputs and exact counts repeat.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use loosebench::drive::{run_workload, RunConfig};
use loosebench::json::Json;
use loosebench::ops::{Gen, Op, Workload};
use loosebench::report::{header, result_line};
use loosebench::spec;
use loosebench::trace::trace_workload;
use loosebench::world::Scale;

/// The runs below time things on two cores; they take turns.
static CORES: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON")
}

fn config(workload: Workload, seed: u64, dir: &str) -> RunConfig {
    RunConfig {
        workload,
        scale: Scale::TINY,
        seed,
        warmup: Duration::from_millis(200),
        window: Duration::from_secs(1),
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

fn names(manifest: &Json, list: &str) -> Vec<(String, String)> {
    let text =
        |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).expect(key).to_string();
    let entries = manifest.get(list).and_then(Json::as_arr).expect(list);
    entries.iter().map(|e| (text(e, "name"), text(e, "unit"))).collect()
}

/// The result line, as the driver would read it: parsed, not searched.
fn emitted(line: &Json, name: &str) -> (f64, String) {
    let metric = line
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("{name} not emitted"));
    let value =
        metric.get("value").and_then(Json::as_f64).unwrap_or_else(|| panic!("{name}: no value"));
    (
        value,
        metric
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: no unit"))
            .to_string(),
    )
}

#[test]
fn benchmark_json_is_the_manifest() {
    assert_eq!(
        benchmark_json(),
        spec::manifest(),
        "regenerate with `loosebench manifest > BENCHMARK.json`"
    );
}

#[test]
fn untraced_and_traced_runs_cover_benchmark_json() {
    let _turn = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let manifest = benchmark_json();
    let listed = manifest.get("workloads").and_then(Json::as_arr).expect("workloads");
    assert_eq!(listed.len(), Workload::ALL.len());
    for entry in listed {
        let name = entry.get("name").and_then(Json::as_str).expect("name");
        let workload =
            Workload::from_name(name).unwrap_or_else(|| panic!("{name} is not a workload"));

        let outcome = run_workload(&config(workload, 5, "smoke-run")).expect("untraced run");
        assert_eq!(outcome.failed, 0, "{name}: wrong or failed requests");
        let line = Json::parse(&result_line(&outcome).to_string()).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for (metric, unit) in names(&manifest, "end_to_end") {
            let (value, got) = emitted(&line, &metric);
            assert_eq!(got, unit, "{name} / {metric}");
            assert!(value.is_finite() && value > 0.0, "{name} / {metric} = {value}");
        }

        let outcome =
            trace_workload(&config(workload, 5, "smoke-trace"), &header(5)).expect("traced run");
        assert_eq!(outcome.failed, 0, "{name}: served and embedded answers differ");
        let line = Json::parse(&result_line(&outcome).to_string()).expect("result line is JSON");
        for (metric, unit) in names(&manifest, "per_layer") {
            let (value, got) = emitted(&line, &metric);
            assert_eq!(got, unit, "{name} / {metric}");
            assert!(value.is_finite(), "{name} / {metric} = {value}");
        }
    }
}

fn stream(workload: Workload, seed: u64, conn: usize) -> Vec<Op> {
    let mut gen = Gen::new(workload, Scale::TINY, seed, conn);
    (0..400).map(|_| gen.next_op()).collect()
}

#[test]
fn the_seed_and_nothing_else_decides_the_requests() {
    for workload in Workload::ALL {
        for conn in 0..Workload::CONNECTIONS {
            assert_eq!(
                stream(workload, 7, conn),
                stream(workload, 7, conn),
                "{workload:?}: same seed"
            );
            assert_ne!(
                stream(workload, 7, conn),
                stream(workload, 8, conn),
                "{workload:?}: another seed"
            );
        }
        assert_ne!(
            stream(workload, 7, 0),
            stream(workload, 7, 1),
            "{workload:?}: connections differ"
        );
    }
}

#[test]
fn exact_counts_repeat_under_the_same_seed() {
    let _turn = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let exact = ["store.fsyncs_per_op", "engine.derived_per_class_insert", "browse.probe_attempts"];
    let counts = |seed: u64| {
        let outcome =
            trace_workload(&config(Workload::ProbeInfer, seed, "smoke-counts"), &header(seed))
                .expect("traced run");
        let line = result_line(&outcome);
        exact.map(|name| emitted(&line, name).0)
    };
    let first = counts(11);
    assert_eq!(first, counts(11));
    assert!(first[0] == 1.0, "SyncPolicy::Always is one fsync per journaled write");
    assert!(first[1] > 0.0, "a class-level fact reaches its members");
}
