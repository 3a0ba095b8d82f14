//! Access policies: *how* the one tree algorithm in [`ops`](crate::ops)
//! touches node words.
//!
//! The paper's trees differ in concurrency control, not in structure (§7),
//! so the structure is written once, generic over [`NodeAccess`], and the
//! discipline lives in the type — monomorphised, never `dyn`, free at run
//! time. Exactly two policies exist because exactly two callers do:
//!
//! | | [`TxAccess`] (device: Eirene update kernel, STM GB-tree) | [`Direct`] (host: `refops`, quiesced shard migration) |
//! |---|---|---|
//! | read / write | `Tx::read` / `Tx::write` (ownership records, undo log), may abort | plain arena load / store, cannot fail |
//! | alloc | `alloc_reuse` + `Tx::retire_on_abort` + one charged atomic | `alloc_reuse` |
//! | retire | `Tx::defer_retire`: quarantined only if the transaction commits | quarantined at once |
//! | abort | undo log unlinks the node; fresh blocks retire, deferred retirements are dropped | — (`Infallible`) |
//! | cost hooks | charged to the warp, in the current phase | no-ops |
//!
//! A versioned (MVCC) tree would be a third policy here, not a third tree.

use crate::node::NODE_WORDS;
use eirene_sim::{Addr, GlobalMemory, Phase, TraceEventKind, WarpCtx};
use eirene_stm::{Abort, Tx};
use std::convert::Infallible;

/// Traversal counters the algorithm reports (Fig. 10's step counts).
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// A traversal (re)started from the root.
    Descent,
    /// One node visited on the way down.
    Vertical,
    /// One leaf-chain hop.
    Horizontal,
}

/// The word-level interface the tree algorithm is written against.
///
/// The required methods are the access discipline; the provided ones are
/// cost hooks that default to no-ops, so an uninstrumented policy
/// implements only the first four.
pub trait NodeAccess {
    /// Why an access can fail; [`Infallible`] for policies that cannot.
    type Abort;

    fn read(&mut self, addr: Addr) -> Result<u64, Self::Abort>;

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Self::Abort>;

    /// A zeroed, 16-word-aligned node block that nothing links to yet.
    fn alloc_node(&mut self) -> Addr;

    /// Gives back a node the caller has just unlinked and tombstoned. Its
    /// words stay readable until the arena's next epoch advance.
    fn retire_node(&mut self, addr: Addr);

    /// Charges `n` control-flow instructions.
    fn control(&mut self, _n: u64) {}

    /// Switches the phase costs are attributed to; returns the previous
    /// one so the caller can restore it.
    fn set_phase(&mut self, phase: Phase) -> Phase {
        phase
    }

    fn step(&mut self, _step: Step) {}

    /// Records a split or merge of `node` in the warp's trace.
    fn emit(&mut self, _kind: TraceEventKind, _node: Addr) {}
}

/// Uninstrumented, single-threaded access for host-side code. The caller
/// guarantees no kernel runs on the tree meanwhile.
pub struct Direct<'m>(pub &'m GlobalMemory);

impl NodeAccess for Direct<'_> {
    type Abort = Infallible;

    #[inline]
    fn read(&mut self, addr: Addr) -> Result<u64, Infallible> {
        Ok(self.0.read(addr))
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Infallible> {
        self.0.write(addr, value);
        Ok(())
    }

    fn alloc_node(&mut self) -> Addr {
        self.0.alloc_reuse(NODE_WORDS, 16)
    }

    fn retire_node(&mut self, addr: Addr) {
        self.0.retire(addr, NODE_WORDS, 16);
    }
}

/// Access through an open STM transaction on one warp: every word goes
/// through the ownership table, every cost lands on the warp's counters.
pub struct TxAccess<'a, 's, 'c> {
    tx: &'a mut Tx<'s>,
    ctx: &'a mut WarpCtx<'c>,
}

impl<'a, 's, 'c> TxAccess<'a, 's, 'c> {
    pub fn new(tx: &'a mut Tx<'s>, ctx: &'a mut WarpCtx<'c>) -> Self {
        TxAccess { tx, ctx }
    }
}

impl NodeAccess for TxAccess<'_, '_, '_> {
    type Abort = Abort;

    #[inline]
    fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        self.tx.read(self.ctx, addr)
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Abort> {
        self.tx.write(self.ctx, addr, value)
    }

    /// The block is registered with [`Tx::retire_on_abort`], so a rollback
    /// retires the never-published node instead of leaking it.
    fn alloc_node(&mut self) -> Addr {
        let addr = self.ctx.raw_mem().alloc_reuse(NODE_WORDS, 16);
        self.tx.retire_on_abort(addr, NODE_WORDS, 16);
        self.ctx.charge_alloc();
        addr
    }

    /// Deferred to commit: a rolled-back tree still links the node.
    fn retire_node(&mut self, addr: Addr) {
        self.tx.defer_retire(addr, NODE_WORDS, 16);
    }

    #[inline]
    fn control(&mut self, n: u64) {
        self.ctx.control(n);
    }

    #[inline]
    fn set_phase(&mut self, phase: Phase) -> Phase {
        self.ctx.set_phase(phase)
    }

    #[inline]
    fn step(&mut self, step: Step) {
        let stats = &mut self.ctx.stats;
        match step {
            Step::Descent => stats.vertical_traversals += 1,
            Step::Vertical => stats.vertical_steps += 1,
            Step::Horizontal => stats.horizontal_steps += 1,
        }
    }

    #[inline]
    fn emit(&mut self, kind: TraceEventKind, node: Addr) {
        self.ctx.emit(kind, node);
    }
}
