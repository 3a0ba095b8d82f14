//! Baseline concurrent GPU B+trees the paper compares against (§8.1).
//!
//! * [`nocc`] — GB-tree **without concurrency control**: the "ideal"
//!   first bar of Fig. 1. Only safe for pure-query batches; it exists to
//!   measure the floor of memory/control instructions per request.
//! * [`lock`] — **Lock GB-tree** (Awad et al., PPoPP'19): warp-cooperative
//!   traversal with per-node latches for updates and restart-on-version
//!   -change reads.
//! * [`stm_tree`] — **STM GB-tree** (Holey & Zhai, ICPP'14): every request
//!   runs as one transaction covering the whole traversal, over the
//!   word-based eager STM.
//!
//! All three run on the same simulator and the same node layout as Eirene,
//! so instruction counts, conflicts and makespans are directly comparable;
//! the leaf lookup and range scan (Eirene's query phase too), the plain
//! descent and the per-request batch loop are one copy, in [`common`].
//! None of them is linearizable — requests race on keys exactly as in the
//! original systems, which the linearizability tests demonstrate.

pub mod common;
pub mod lock;
pub mod nocc;
pub mod stm_tree;

pub use common::{BatchRun, ConcurrentTree};
pub use lock::LockTree;
pub use nocc::NoCcTree;
pub use stm_tree::StmTree;
