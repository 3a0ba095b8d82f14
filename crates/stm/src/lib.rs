//! Word-based eager software transactional memory over the device arena.
//!
//! A reproduction of the lightweight GPU STM of Holey & Zhai (ICPP'14) that
//! both the STM GB-tree baseline and Eirene's update kernel build on
//! (§3, §7 of the paper): encounter-time (eager) locking with undo logging
//! and eager conflict detection.
//!
//! * Every pair of arena words maps by address to a stripe of an
//!   **ownership table** (neighbouring pairs own neighbouring records, see
//!   [`Stm::record_addr`]). The table itself lives in device memory, so the
//!   extra memory traffic STM incurs (ownership-record reads on every
//!   transactional access — the 2.98× memory-instruction blow-up of Fig. 1)
//!   is counted by the same instrumentation as ordinary accesses.
//! * A stripe record is either an even **version number** or an odd **lock
//!   marker** naming the owning transaction. Writers CAS the record from
//!   version to marker at first write (acquiring ownership), write in
//!   place, and keep an undo log; readers check the record and remember the
//!   version.
//! * Conflicts are detected eagerly: touching a stripe owned by another
//!   transaction aborts immediately (no waiting — so no deadlock). Commit
//!   validates the read set, bumps owned versions by 2, and releases.
//!   Abort rolls the undo log back and restores versions.
//!
//! Like the original, the STM provides conflict-serializability but not
//! opacity: a doomed transaction may observe an inconsistent snapshot
//! before it aborts. That is safe here because tree nodes are never freed
//! (device allocations are bump-only), so a stale traversal dereferences
//! valid-if-outdated nodes and commit-time validation forces the retry.

mod tx;

pub use tx::{Abort, Stm, Tx, TxResult, TxScratch};
