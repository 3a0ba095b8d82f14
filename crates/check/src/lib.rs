//! `eirene-check`: the correctness backstop of the workspace.
//!
//! The paper's central claim (§6) is linearizability — every concurrent
//! batch execution produces exactly the results of a sequential execution
//! in logical-timestamp order. The unit and integration tests check that
//! claim on fixed workloads; this crate *hunts* for violations with one
//! driver and four case providers:
//!
//! * [`driver`] is the one fuzz loop behind `eirene-bench fuzz` and the
//!   CI smoke job. A run is a [`Fuzz`] value; [`Fuzz::run`] derives each
//!   case's seed, generates its input, checks it, ddmin-shrinks a failing
//!   request list ([`mod@shrink`]) and returns one [`Outcome`]. Every leg
//!   reports the same [`Failure`] — case, seeds, violation, reproducer
//!   and a replay line printed by the same flag table that parses the
//!   command line, so a replay line names every setting the run used.
//! * [`cli`] is that flag table, generic over the settings it fills: the
//!   one command-line vocabulary of `eirene-bench` (fuzz, serve and the
//!   figures), which parses a line, prints it back and writes its usage.
//! * The providers, one per [`Leg`]:
//!   - **tree** ([`diff`]): one [`gen`]erated batch on a fresh tree —
//!     Eirene, its two ablations, and the STM/Lock baselines (which get
//!     key-disjoint batches: they only serialize same-key races);
//!   - **serve** ([`serve`]): the same adversarial streams through the
//!     sharded service — epoch splitting, cross-shard range merging,
//!     shard routing, tenant quotas, hash scatter — replayed through the
//!     oracle in admission-timestamp order;
//!   - **churn** ([`churn`]): one tree kept alive across many
//!     delete-heavy rounds, hunting reclamation bugs — merge/borrow,
//!     epoch-quarantined node reuse, bounded arena occupancy;
//!   - **coalesce** ([`coalesce`]): duplicate-key clusters, straddling
//!     ranges and a build → split-invalidate → rebuild pivot-cache cycle,
//!     on a coalesced tree and its coalesce-off twin.
//! * Every tree-level check goes through [`check_against_oracle`]:
//!   responses by position against the
//!   [`SequentialOracle`](eirene_workloads::SequentialOracle), then
//!   `btree::validate`, then the contents; any failure is one
//!   [`Violation`].
//! * [`fault`] injects a deliberate off-by-one into a tree's responses so
//!   the driver itself can be tested end-to-end (a fuzzer that never
//!   fires is indistinguishable from a fuzzer that cannot fire).
//!
//! Reproducibility comes from two layers: every case is generated from
//! its case seed, and when devices run under
//! [`SchedMode::Deterministic`](eirene_sim::SchedMode) the warp
//! interleaving itself replays bit-for-bit from seeds derived from it
//! (see `crates/sim/src/sched.rs` and the DESIGN.md section on
//! deterministic scheduling).

pub mod churn;
pub mod cli;
pub mod coalesce;
pub mod diff;
pub mod driver;
pub mod fault;
pub mod gen;
pub mod serve;
pub mod shrink;

pub use churn::run_churn_case;
pub use coalesce::run_coalesce_case;
pub use diff::{build_tree, check_against_oracle, check_case, FuzzTree, Violation};
pub use driver::{At, Case, CaseKind, Failure, Fuzz, Leg, Outcome};
pub use fault::{FaultSpec, FaultyTree};
pub use gen::{adversarial_batch, dense_pairs, disjoint_batch, GenOptions, Profile};
pub use serve::{fuzz_shard_map, run_serve_case};
pub use shrink::shrink;
