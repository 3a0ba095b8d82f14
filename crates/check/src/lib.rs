//! `eirene-check`: the correctness backstop of the workspace.
//!
//! The paper's central claim (§6) is linearizability — every concurrent
//! batch execution produces exactly the results of a sequential execution
//! in logical-timestamp order. The unit and integration tests check that
//! claim on fixed workloads; this crate *hunts* for violations:
//!
//! * [`gen`] builds adversarial batches: uniform and skewed key mixes,
//!   boundary keys `0`/`u32::MAX`, duplicate and colliding timestamps,
//!   overlapping range queries, delete-heavy churn — plus key-disjoint
//!   batches for the baselines, which only order racing requests on the
//!   *same* key and are therefore not linearizable under key conflicts.
//! * [`diff`] runs one generated case through a tree, compares every
//!   response against the [`SequentialOracle`](eirene_workloads::SequentialOracle),
//!   re-validates the structural invariants with `btree::validate`, and
//!   diffs the final key/value contents.
//! * [`mod@shrink`] reduces a failing batch delta-debugging-style to a minimal
//!   reproducer.
//! * [`harness`] is the fuzz driver wired into `eirene-bench fuzz` and the
//!   CI smoke job; failures print a self-contained reproducer with every
//!   seed needed to replay it.
//! * [`serve`] pushes the same adversarial streams through the sharded
//!   serving layer (`eirene-serve`) — epoch splitting, cross-shard range
//!   merging, shard routing — and shrinks any divergence to a minimal
//!   cross-shard counterexample.
//! * [`churn`] keeps one tree alive across many delete-heavy rounds,
//!   hunting reclamation bugs the per-case-fresh-tree loop cannot see:
//!   merge/borrow rebalancing, epoch-quarantined node reuse, and the
//!   bounded-occupancy (no-leak) property of the slab arena.
//! * [`coalesce`] hammers the combine path: duplicate-key clusters with
//!   colliding timestamps, ranges straddling leaf-run boundaries, and a
//!   build → split-invalidate → rebuild pivot-cache cycle, each round
//!   checked against both the flat oracle and a coalesce-disabled twin.
//! * [`fault`] injects a deliberate off-by-one into a tree's responses so
//!   the harness itself can be tested end-to-end (a fuzzer that never
//!   fires is indistinguishable from a fuzzer that cannot fire).
//!
//! Reproducibility comes from two layers: every batch is generated from a
//! per-iteration seed, and when the harness runs the device in
//! [`SchedMode::Deterministic`](eirene_sim::SchedMode) the warp
//! interleaving itself replays bit-for-bit from the device seed (see
//! `crates/sim/src/sched.rs` and the DESIGN.md section on deterministic
//! scheduling).

pub mod churn;
pub mod coalesce;
pub mod diff;
pub mod fault;
pub mod gen;
pub mod harness;
pub mod serve;
pub mod shrink;

pub use churn::{run_churn_case, run_churn_fuzz, ChurnFailure, ChurnOptions, ChurnOutcome};
pub use coalesce::{
    run_coalesce_case, run_coalesce_fuzz, CoalesceFailure, CoalesceOptions, CoalesceOutcome,
};
pub use diff::{build_tree, check_case, FuzzTree, Violation};
pub use fault::{FaultSpec, FaultyTree};
pub use gen::{adversarial_batch, dense_pairs, disjoint_batch, GenOptions, Profile};
pub use harness::{run_fuzz, FuzzFailure, FuzzOptions, FuzzOutcome};
pub use serve::{
    fuzz_shard_map, run_serve_case, run_serve_fuzz, ServeFuzzFailure, ServeFuzzOptions,
    ServeFuzzOutcome, ServeViolation,
};
pub use shrink::shrink;
