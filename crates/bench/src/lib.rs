//! Benchmark harness regenerating every figure of the paper's evaluation
//! (§8). See `DESIGN.md` for the per-figure index and `EXPERIMENTS.md`
//! for the recorded paper-vs-measured comparison.
//!
//! The binary (`cargo run -p eirene-bench --release -- <figure>`) prints
//! the same rows/series the paper reports and writes CSV files under
//! `results/`.

pub mod ablate;
pub mod figures;
pub mod fuzz;
pub mod harness;
pub mod metrics;
pub mod serve;

pub use harness::{Measurement, Point, Scale, TreeKind};
