//! loosebench: the repo's one benchmark. Four served browsing workloads,
//! end-to-end metrics from an untraced closed-loop run, per-layer metrics
//! from a separate traced run. See `benchmark/README.md`.

pub mod drive;
pub mod json;
pub mod ops;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod world;
