//! The one benchmark of the EMBera reproduction: six named workloads,
//! end-to-end metrics with regression bounds, and per-layer metrics —
//! all declared in the repository's `BENCHMARK.json` and measured from
//! outside the program, through its public interfaces. See `README.md`.

pub mod cells;
pub mod compare;
pub mod contract;
pub mod host;
pub mod json;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
