//! The benchmark's contract as data: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! `loosebench manifest` written to a file; the smoke test holds the two
//! together.

use crate::json::Json;
use crate::ops::Kind;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "loosebench",
    "--",
];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "browse_hot",
        why: "Zipf world, no inference, repeated queries fit the answer cache: evaluation is nearly free, so serve framing, browse caches and rendering carry the cost",
    },
    WorkloadSpec {
        name: "query_cold",
        why: "same world, every query a renamed-variable join that misses the answer cache: query execution and row rendering dominate, serve does little",
    },
    WorkloadSpec {
        name: "probe_infer",
        why: "university world with inference on: navigation over derived facts, queries needing gen/isa/inv, probes with retraction waves over the closure view",
    },
    WorkloadSpec {
        name: "write_durable",
        why: "same university world on a journaled backend with fsync per write: publishes, retracts and class-level fan-out beside a paced reader",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// Per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the served system sees. The sandbox's own run-to-run
/// spread on these reaches 10–20% when a neighbour is busy (see the
/// README), so the bounds sit at the contract's ceiling; memory, which
/// repeats to a few percent, is held tighter.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("rss_mb", "MB", Lower, 0.15),
    e2e("nav_p50_us", "us", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("probe_p50_us", "us", Lower, 0.25),
    e2e("publish_p50_us", "us", Lower, 0.25),
    e2e("retract_p50_us", "us", Lower, 0.25),
];

/// The served round trip each latency metric is a percentile of.
pub const LATENCIES: &[(&str, Kind, f64)] = &[
    ("nav_p50_us", Kind::Nav, 0.50),
    ("query_p50_us", Kind::Query, 0.50),
    ("query_p99_us", Kind::Query, 0.99),
    ("probe_p50_us", Kind::Probe, 0.50),
    ("publish_p50_us", Kind::Publish, 0.50),
    ("retract_p50_us", Kind::Retract, 0.50),
];

/// Single-layer numbers from the traced run (layer = crate). The first
/// four are served latencies demoted from the end-to-end list: no bound
/// the contract allows holds them on every workload (see the README).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("nav_p99_us", "us", Lower),
    layer("probe_p90_us", "us", Lower),
    layer("publish_p99_us", "us", Lower),
    layer("class_publish_p50_us", "us", Lower),
    layer("datagen.build_s", "s", Lower),
    layer("store.match_us", "us", Lower),
    layer("store.io_append_fsync_us", "us", Lower),
    layer("store.wal_bytes_per_op", "bytes", Lower),
    layer("store.fsyncs_per_op", "count", Lower),
    layer("engine.closure_build_s", "s", Lower),
    layer("engine.closure_ratio", "ratio", Lower),
    layer("engine.bytes_per_closure_fact", "bytes", Lower),
    layer("engine.recover_s", "s", Lower),
    layer("engine.snapshot_us", "us", Lower),
    layer("engine.insert_us", "us", Lower),
    layer("engine.durable_add_us", "us", Lower),
    layer("engine.class_insert_us", "us", Lower),
    layer("engine.derived_per_class_insert", "count", Lower),
    layer("engine.remove_us", "us", Lower),
    layer("query.parse_us", "us", Lower),
    layer("query.plan_us", "us", Lower),
    layer("query.plan_cache_hit_ratio", "ratio", Higher),
    layer("query.eval_us", "us", Lower),
    layer("query.rows_out", "count", Lower),
    layer("query.probes_per_row", "ratio", Lower),
    layer("browse.navigate_us", "us", Lower),
    layer("browse.nav_rows", "count", Lower),
    layer("browse.query_hit_us", "us", Lower),
    layer("browse.answer_cache_hit_ratio", "ratio", Higher),
    layer("browse.render_us", "us", Lower),
    layer("browse.probe_us", "us", Lower),
    layer("browse.probe_waves", "count", Lower),
    layer("browse.probe_attempts", "count", Lower),
    layer("browse.probe_success_ratio", "ratio", Higher),
    layer("serve.encode_req_us", "us", Lower),
    layer("serve.decode_req_us", "us", Lower),
    layer("serve.encode_resp_us", "us", Lower),
    layer("serve.decode_resp_us", "us", Lower),
    layer("serve.resp_bytes", "bytes", Lower),
    layer("serve.unattributed_us.nav", "us", Lower),
    layer("serve.unattributed_share.nav", "share", Lower),
    layer("serve.unattributed_us.query", "us", Lower),
    layer("serve.unattributed_share.query", "share", Lower),
    layer("serve.mirror_build_s", "s", Lower),
    layer("serve.start_s", "s", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.reader_late_p99_us", "us", Lower),
];

/// `BENCHMARK.json`, generated.
pub fn manifest() -> Json {
    let better = |b: Better| Json::str(if b == Lower { "lower" } else { "higher" });
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
