//! Workload generation and correctness oracles for the Eirene reproduction.
//!
//! This crate owns the *request model* shared by every tree implementation
//! (Eirene and the baselines): key/value types, operation kinds, batches of
//! timestamped requests, YCSB-style generators (uniform and zipfian key
//! distributions, configurable query/update mixes, range-query workloads),
//! and a sequential oracle that defines linearizable behaviour.
//!
//! The paper (§8.1) uses YCSB with 32-bit keys and 32-bit values, a default
//! 95% query / 5% update mix, uniform distribution, and 1M-request batches.

mod oracle;
mod request;
mod spec;
mod zipf;

pub use oracle::{EpochedOracle, Oracle, SequentialOracle};
pub use request::{range_window, Batch, Key, OpKind, Request, Response, Value, NULL_VALUE};
pub use spec::{Distribution, Mix, ShardedGen, WorkloadGen, WorkloadSpec};
pub use zipf::Zipfian;
