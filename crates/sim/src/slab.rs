//! Size-classed slab bookkeeping with epoch-based reclamation, layered
//! over [`GlobalMemory`](crate::GlobalMemory)'s bump allocator.
//!
//! The bump allocator never recycles, so delete-heavy workloads grow the
//! arena as O(operations). The slab layer closes that hole: fixed-size
//! blocks (B+tree nodes, tickets — any `(words, align)` class) are
//! `retire`d instead of leaked, parked on an epoch-tagged quarantine
//! list, and handed back out by `alloc_reuse` once an epoch boundary
//! proves no stale reference can still reach them.
//!
//! ## Epoch discipline
//!
//! The arena keeps a monotone epoch counter. `retire` tags each block
//! with the epoch it was retired in; a block becomes *reusable* only at
//! the first [`advance_epoch`](crate::GlobalMemory::advance_epoch)
//! *after* its retirement — never within the epoch that retired it. The
//! caller advances the epoch only at quiescent points (for this
//! simulator: between kernel launches, which are synchronous — see
//! DESIGN.md §14 for why the serve layer's reorder-stage watermark makes
//! the combiner's epoch boundary such a point). Readers that raced the
//! retirement in epoch N may therefore still dereference the block for
//! the remainder of epoch N and will observe intact contents; by the
//! time the block is recycled they have all finished.
//!
//! ## Reuse poisoning
//!
//! Under `cfg(debug_assertions)` every word of a block is overwritten
//! with [`POISON_WORD`] at *recycle* time (the epoch advance), not at
//! retire time — retired-but-quarantined blocks must stay readable for
//! same-epoch stale readers. A reader that holds a pointer across an
//! epoch boundary into reclaimed memory then sees the sentinel and trips
//! a `debug_assert` at the next structured read. Blocks are zeroed again
//! when `alloc_reuse` hands them out, preserving the
//! fresh-memory-is-zeroed contract of the bump allocator.

use crate::mem::{Addr, NULL_ADDR};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Sentinel written over every word of a reclaimed block under
/// `cfg(debug_assertions)`. Structured readers assert they never see it.
pub const POISON_WORD: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// Occupancy snapshot of a slab arena. Counters are cumulative, gauges
/// are levels at the sampling instant. All counts are in *blocks* (not
/// words); classes are aggregated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Blocks handed out (by `alloc_reuse`) and not yet retired.
    pub live: u64,
    /// Blocks retired and quarantined, awaiting an epoch advance.
    pub retired: u64,
    /// Blocks on free lists, immediately reusable.
    pub free: u64,
    /// Cumulative allocations served from a free list.
    pub reused: u64,
    /// Cumulative allocations that fell through to the bump allocator.
    pub bump_allocs: u64,
    /// Current reclamation epoch.
    pub epoch: u64,
}

/// One `(words, align)` size class: an immediately-reusable free list
/// plus the epoch-tagged quarantine queue.
#[derive(Debug)]
struct SizeClass {
    words: usize,
    align: usize,
    free: Vec<Addr>,
    /// `(retire_epoch, addr)`, oldest first.
    retired: VecDeque<(u64, Addr)>,
}

#[derive(Debug, Default)]
struct SlabInner {
    classes: Vec<SizeClass>,
    epoch: u64,
    live: u64,
    reused: u64,
    bump_allocs: u64,
}

impl SlabInner {
    fn class_mut(&mut self, words: usize, align: usize) -> &mut SizeClass {
        if let Some(i) = self
            .classes
            .iter()
            .position(|c| c.words == words && c.align == align)
        {
            &mut self.classes[i]
        } else {
            self.classes.push(SizeClass {
                words,
                align,
                free: Vec::new(),
                retired: VecDeque::new(),
            });
            self.classes.last_mut().unwrap()
        }
    }
}

/// Lock-protected slab bookkeeping. The critical sections contain no
/// yield points, so under the deterministic token-passing scheduler
/// (where at most one warp runs at a time) acquisition order — and hence
/// every recycled address — is deterministic.
#[derive(Debug, Default)]
pub(crate) struct SlabArena {
    inner: Mutex<SlabInner>,
}

impl SlabArena {
    /// Pops a reusable block of the class, if any. Counts the block as
    /// live on success; the caller zeroes it.
    pub fn pop_free(&self, words: usize, align: usize) -> Option<Addr> {
        let mut g = self.inner.lock().unwrap();
        let addr = g.class_mut(words, align).free.pop()?;
        g.live += 1;
        g.reused += 1;
        Some(addr)
    }

    /// Records an allocation that fell through to the bump allocator.
    pub fn note_bump(&self) {
        let mut g = self.inner.lock().unwrap();
        g.live += 1;
        g.bump_allocs += 1;
    }

    /// Quarantines a block: it stays readable (contents intact) until the
    /// next epoch advance, and only becomes reusable after it.
    pub fn retire(&self, addr: Addr, words: usize, align: usize) {
        debug_assert_ne!(addr, NULL_ADDR, "retiring the null address");
        debug_assert_eq!(
            addr % align as Addr,
            0,
            "retired block not aligned to its class"
        );
        let mut g = self.inner.lock().unwrap();
        let epoch = g.epoch;
        g.live = g.live.saturating_sub(1);
        let class = g.class_mut(words, align);
        debug_assert!(
            !class.free.contains(&addr) && !class.retired.iter().any(|&(_, a)| a == addr),
            "double retire of block {addr}"
        );
        class.retired.push_back((epoch, addr));
    }

    /// Advances the epoch and moves every block retired *before* the
    /// advance onto its free list. Returns the new epoch and the list of
    /// recycled `(addr, words)` blocks so the caller can poison them.
    pub fn advance(&self) -> (u64, Vec<(Addr, usize)>) {
        let mut g = self.inner.lock().unwrap();
        g.epoch += 1;
        let epoch = g.epoch;
        let mut recycled = Vec::new();
        for class in &mut g.classes {
            while let Some(&(e, addr)) = class.retired.front() {
                if e >= epoch {
                    break;
                }
                class.retired.pop_front();
                class.free.push(addr);
                recycled.push((addr, class.words));
            }
        }
        (epoch, recycled)
    }

    /// Occupancy snapshot across all classes.
    pub fn stats(&self) -> SlabStats {
        let g = self.inner.lock().unwrap();
        SlabStats {
            live: g.live,
            retired: g.classes.iter().map(|c| c.retired.len() as u64).sum(),
            free: g.classes.iter().map(|c| c.free.len() as u64).sum(),
            reused: g.reused,
            bump_allocs: g.bump_allocs,
            epoch: g.epoch,
        }
    }
}
