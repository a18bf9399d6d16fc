//! `mcbench` — the repository's benchmark: five workloads, end-to-end
//! and per-layer metrics, a traced run. Every layer is measured from
//! outside, through public items of the crates only. See `README.md`.

#![warn(missing_docs)]
pub mod decl;
pub mod host;
pub mod json;
pub mod layers;
pub mod live;
pub mod result;
pub mod simcheck;
pub mod slices;
pub mod spans;
pub mod stats;
pub mod workloads;
