//! **Eirene** — the paper's contribution: a combining-based concurrency
//! control framework for concurrent GPU B+trees (PPoPP'23).
//!
//! A batch of timestamped requests is processed in five stages
//! (Alg. 1):
//!
//! 1. **Combining-based synchronization** ([`plan`]): requests are radix
//!    -sorted by (key, logical timestamp); requests on the same key are
//!    combined into a *run* with exactly one issued request, and the
//!    dependence among the rest is captured so their results can be
//!    computed without touching the tree. Key conflicts are thereby
//!    eliminated (§4.1).
//! 2. **Range-query handling** ([`plan`]): range queries sort by their
//!    lower bound; for every in-range key that has updates in the batch an
//!    *artificial query* carrying the range query's timestamp is inserted
//!    into that key's run (§4.1.2).
//! 3. **Kernel partition and execution** ([`exec`]): issued requests split
//!    into a query kernel (no synchronization at all) and an update kernel
//!    (optimistic: unprotected inner traversal, STM-protected leaf region
//!    with version validation, full-STM fallback after a retry threshold)
//!    (§4.2).
//! 4. **Locality-aware warp reorganization** ([`locality`]): adjacent
//!    request groups execute as iteration warps that reuse the previous
//!    group's leaf, traversing horizontally along the leaf chain when the
//!    RF (range field) bound says it is profitable, vertically otherwise
//!    (§5).
//! 5. **Result calculation** ([`exec`]): unissued requests compute their
//!    responses from the dependence chain and the issued requests'
//!    retrieved old values; range results are patched from artificial
//!    queries. It runs inside the two kernels, in the warp that issued each
//!    run, not as a pass of its own, so a batch makes three launches. The
//!    outcome is linearizable in logical-timestamp order (§6) —
//!    property-tested against the sequential oracle.

pub mod exec;
pub mod locality;
pub mod pivot;
pub mod plan;
mod tree;

pub use tree::{EireneOptions, EireneTree};
