//! # pqbench — the repo's benchmark
//!
//! Four long workloads over the pathlearn RPQ stack, five end-to-end
//! metrics, per-layer metrics from a separate traced run, and an A/A
//! procedure that holds the bounds honest. `README.md` has the method;
//! `BENCHMARK.json` at the repo root is the contract the driver reads.
//!
//! Every layer is measured from outside, through its public functions;
//! [`sut`] is the only module that names the program's crates.

pub mod aa;
pub mod affinity;
pub mod bench;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
