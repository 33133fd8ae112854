//! The repository benchmark: converged exact solves (`exact_solve`),
//! analog Monte-Carlo trials (`analog_mc`) and a cached-operator
//! service mix (`service_mix`), each a closed loop driven by one client.
//!
//! An untraced run reports the end-to-end metrics; a traced run replays
//! the same requests with the benchmark's spans and the program's
//! telemetry counters on and reports the per-layer metrics. Every run
//! gates correctness; see `BENCHMARK.json` for the metric definitions.

pub mod gen;
pub mod layers;
pub mod run;
pub mod trace;
pub mod workloads;
