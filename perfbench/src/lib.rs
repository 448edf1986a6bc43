//! # tsg-perfbench — the repository benchmark
//!
//! Three closed-loop workloads drive the workspace's public surface from one
//! process:
//!
//! * `powerlaw-a2` — CSR→CSR `A·A` of a skewed R-MAT graph through an
//!   [`tilespgemm_core::SpGemm`] context (convert, multiply, `to_csr`);
//! * `fem-a2` — the same loop on a FEM-class block matrix;
//! * `serve-mixed` — two clients, each with its own
//!   [`tsg_serve::ServeSession`], sending a mix of small multiplies, a
//!   masked triangle count, a 3-link chain and a load/multiply/unload
//!   write path to a two-worker engine.
//!
//! An untraced run reports the end-to-end metrics; a traced run (`--trace
//! 1`) times each layer's public calls from outside, prints a per-layer
//! table that ends in a residual, and writes the spans as Chrome trace-event
//! JSON. Every output is checked: warm-up products against serial
//! Gustavson with `tsg_check::compare_csr`, timed products bitwise against
//! the warm-up, served replies by `nnz_c`.
//!
//! The helpers here ([`stats`], [`layers`], [`trace`], [`report`]) carry no
//! workload logic and are covered by the crate's own tests.

pub mod host;
pub mod layers;
pub mod library;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
