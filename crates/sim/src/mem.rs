//! Word-addressable global-memory arena shared by all warps.
//!
//! The arena is a flat array of `AtomicU64`. Device data structures (B+tree
//! nodes, request arrays, ownership tables) are allocated from it with a
//! lock-free bump allocator. Host-side accessors on this type are
//! *uninstrumented* — device code must go through
//! [`WarpCtx`](crate::WarpCtx) so that every access is counted and charged.

#[cfg(debug_assertions)]
use crate::slab::POISON_WORD;
use crate::slab::{SlabArena, SlabStats};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// A device address: an index of a 64-bit word in the arena.
pub type Addr = u64;

/// The null device pointer. The first words of the arena are reserved so
/// that no allocation ever returns 0.
pub const NULL_ADDR: Addr = 0;

/// Number of reserved words at the bottom of the arena (so address 0 is
/// never handed out, and there is scratch space for globals like the root
/// pointer).
const RESERVED_WORDS: usize = 64;

/// The global-memory arena.
///
/// The arena is one zeroed allocation at the natural alignment, which the
/// system allocator serves with `calloc`: fresh OS pages in every build
/// profile, each zeroed lazily by the fault of whoever touches it first,
/// so headroom and table words nobody writes are never backed. On Linux the
/// whole 2 MiB pages inside it are advised `MADV_HUGEPAGE` before anything
/// writes them: with transparent huge pages `enabled` at `madvise` or
/// `always`, the first write into such a region faults in one huge page
/// instead of 512 small ones, and node, record and ownership-word accesses
/// stop missing the TLB. With `never`, or if the call fails, the arena
/// keeps 4 KiB pages; nothing simulated depends on which.
pub struct GlobalMemory {
    words: Box<[AtomicU64]>,
    next: AtomicUsize,
    slab: SlabArena,
}

impl GlobalMemory {
    /// Creates a zeroed arena of `num_words` 64-bit words, in microseconds
    /// whatever `num_words` is (see the type's docs for how it is backed).
    ///
    /// # Panics
    /// Panics if `num_words` is not larger than the reserved prefix.
    pub fn new(num_words: usize) -> Self {
        assert!(
            num_words > RESERVED_WORDS,
            "arena must exceed the {RESERVED_WORDS}-word reserved prefix"
        );
        // SAFETY: all-zero bytes are a valid `AtomicU64` (zero).
        let words = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(num_words).assume_init() };
        #[cfg(target_os = "linux")]
        advise_huge_pages(&words);
        GlobalMemory {
            words,
            next: AtomicUsize::new(RESERVED_WORDS),
            slab: SlabArena::default(),
        }
    }

    /// Arena capacity in words.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Words currently allocated (including the reserved prefix).
    pub fn used(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }

    /// Bump-allocates `words` contiguous words and returns the base address.
    /// The memory is zeroed (the arena starts zeroed and is never recycled).
    ///
    /// # Panics
    /// Panics when the arena is exhausted; sizing is a host-side decision
    /// and running out indicates a mis-sized experiment, not a recoverable
    /// condition.
    pub fn alloc(&self, words: usize) -> Addr {
        assert!(words > 0, "zero-sized allocation");
        self.alloc_aligned(words, 1)
    }

    /// Aligns the bump pointer up to a multiple of `align` words, then
    /// allocates. Useful to keep node loads within coalescing segments.
    pub fn alloc_aligned(&self, words: usize, align: usize) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        loop {
            let cur = self.next.load(Ordering::Relaxed);
            let base = (cur + align - 1) & !(align - 1);
            let end = base + words;
            assert!(
                end <= self.words.len(),
                "device arena exhausted: need {} words, capacity {}",
                end,
                self.words.len()
            );
            if self
                .next
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return base as Addr;
            }
        }
    }

    /// Slab-backed allocation of a fixed-size block: pops the
    /// `(words, align)` free list when a reclaimed block is available,
    /// falling through to [`alloc_aligned`](Self::alloc_aligned)
    /// otherwise. Reused blocks are zeroed first, so callers keep the
    /// bump allocator's fresh-memory-is-zeroed contract either way. The
    /// zero stores are `Relaxed`: a block is always published by a later
    /// `Release` store/CAS of the pointer or flag that names it, which
    /// orders them for every reader of published data.
    pub fn alloc_reuse(&self, words: usize, align: usize) -> Addr {
        if let Some(addr) = self.slab.pop_free(words, align) {
            let base = addr as usize;
            for slot in &self.words[base..base + words] {
                slot.store(0, Ordering::Relaxed);
            }
            addr
        } else {
            self.slab.note_bump();
            self.alloc_aligned(words, align)
        }
    }

    /// Retires a block previously returned by
    /// [`alloc_reuse`](Self::alloc_reuse). The block's contents stay
    /// intact and readable until the next
    /// [`advance_epoch`](Self::advance_epoch) — same-epoch stale readers
    /// may still dereference it — and it only becomes available to
    /// `alloc_reuse` after that advance.
    pub fn retire(&self, addr: Addr, words: usize, align: usize) {
        self.slab.retire(addr, words, align);
    }

    /// Advances the reclamation epoch at a quiescent point (no in-flight
    /// kernel may still hold pointers into retired blocks — see module
    /// docs of the `slab` module). Every block retired before the call
    /// becomes reusable; under `cfg(debug_assertions)` each is first
    /// overwritten with [`POISON_WORD`](crate::POISON_WORD) so stale
    /// readers that outlive the epoch trip an assert. Returns the new
    /// epoch.
    pub fn advance_epoch(&self) -> u64 {
        let (epoch, recycled) = self.slab.advance();
        #[cfg(debug_assertions)]
        for (addr, words) in recycled {
            let base = addr as usize;
            for slot in &self.words[base..base + words] {
                slot.store(POISON_WORD, Ordering::Relaxed);
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = recycled;
        epoch
    }

    /// Occupancy snapshot of the slab layer (blocks live / quarantined /
    /// reusable, cumulative reuse and bump counts).
    pub fn slab_stats(&self) -> SlabStats {
        self.slab.stats()
    }

    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU64 {
        &self.words[addr as usize]
    }

    /// Uninstrumented read (host side, or already-charged device access).
    #[inline]
    pub fn read(&self, addr: Addr) -> u64 {
        self.word(addr).load(Ordering::Acquire)
    }

    /// Uninstrumented write.
    #[inline]
    pub fn write(&self, addr: Addr, value: u64) {
        self.word(addr).store(value, Ordering::Release);
    }

    /// Compare-and-swap; returns `Ok(previous)` on success and
    /// `Err(actual)` on failure.
    #[inline]
    pub fn cas(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.word(addr)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomic fetch-add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        self.word(addr).fetch_add(delta, Ordering::AcqRel)
    }

    /// Atomic fetch-or; returns the previous value.
    #[inline]
    pub fn fetch_or(&self, addr: Addr, bits: u64) -> u64 {
        self.word(addr).fetch_or(bits, Ordering::AcqRel)
    }

    /// Atomic fetch-and; returns the previous value.
    #[inline]
    pub fn fetch_and(&self, addr: Addr, bits: u64) -> u64 {
        self.word(addr).fetch_and(bits, Ordering::AcqRel)
    }

    /// Bulk write of contiguous words (node images, bulk build). The
    /// per-word stores are `Relaxed`; one `Release` fence ahead of the
    /// block keeps everything written *before* this call visible to any
    /// thread that observes one of these stores. The block itself is
    /// published the way all node data is: by a subsequent `Release`
    /// [`write`](Self::write)/CAS of the pointer or flag that names it,
    /// which orders the relaxed stores before the publication for free —
    /// so readers of published data lose nothing, and the innermost copy
    /// loop sheds a full fence per word on weakly-ordered hosts.
    ///
    /// **No intra-slice ordering.** Unlike the old per-word `Release`
    /// stores, observing one word of this block does **not** make earlier
    /// words of the same block visible: the words themselves are plain
    /// `Relaxed` stores with no ordering among them. A word of the slice
    /// must therefore never be used as the publication flag for the rest
    /// of the slice — publish through a *separate* `Release`
    /// [`write`](Self::write)/[`cas`](Self::cas) (or read the block back
    /// with [`read_slice`](Self::read_slice), whose trailing `Acquire`
    /// fence pairs with the leading fence here).
    pub fn write_slice(&self, base: Addr, values: &[u64]) {
        let base = base as usize;
        let dst = &self.words[base..base + values.len()];
        fence(Ordering::Release);
        for (slot, &v) in dst.iter().zip(values) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// Bulk read of contiguous words: `Relaxed` loads closed by one
    /// `Acquire` fence, the mirror of [`write_slice`](Self::write_slice).
    /// The fence upgrades every observed store to a synchronizing one, so
    /// anything that happened before the writer's fence (or before a
    /// `Release` store whose value one of these loads saw) is visible
    /// after this call returns. The same caveat as `write_slice` applies:
    /// synchronization is established only *after* the whole call — the
    /// individual loads carry no ordering among themselves, so a caller
    /// must not treat one slice word as a flag guarding the others.
    pub fn read_slice(&self, base: Addr, out: &mut [u64]) {
        let base = base as usize;
        let src = &self.words[base..base + out.len()];
        for (slot, word) in out.iter_mut().zip(src) {
            *slot = word.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
    }
}

/// Advises `MADV_HUGEPAGE` on the whole 2 MiB pages inside `words`, which
/// nothing has written yet; a failure leaves them on 4 KiB pages.
#[cfg(target_os = "linux")]
fn advise_huge_pages(words: &[AtomicU64]) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: c_int = 14;
    let lo = (words.as_ptr() as usize).next_multiple_of(HUGE_PAGE);
    let hi = (words.as_ptr() as usize + size_of_val(words)) & !(HUGE_PAGE - 1);
    if lo < hi {
        // SAFETY: `lo..hi` is page-aligned and inside the arena's
        // allocation, which outlives the call; the advice changes how the
        // kernel backs those pages, never what they hold.
        unsafe { madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE) };
    }
}

impl std::fmt::Debug for GlobalMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalMemory")
            .field("capacity_words", &self.capacity())
            .field("used_words", &self.used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_never_returns_null() {
        let m = GlobalMemory::new(1024);
        for _ in 0..10 {
            assert_ne!(m.alloc(7), NULL_ADDR);
        }
    }

    #[test]
    fn allocations_do_not_overlap() {
        let m = GlobalMemory::new(4096);
        let a = m.alloc(10);
        let b = m.alloc(10);
        assert!(b >= a + 10);
    }

    #[test]
    fn aligned_alloc_is_aligned() {
        let m = GlobalMemory::new(4096);
        m.alloc(3); // perturb the bump pointer
        let a = m.alloc_aligned(36, 16);
        assert_eq!(a % 16, 0);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn alloc_panics_when_exhausted() {
        let m = GlobalMemory::new(128);
        m.alloc(200);
    }

    #[test]
    fn read_write_roundtrip() {
        let m = GlobalMemory::new(1024);
        let a = m.alloc(4);
        m.write(a + 2, 0xDEAD_BEEF);
        assert_eq!(m.read(a + 2), 0xDEAD_BEEF);
        assert_eq!(m.read(a + 3), 0, "fresh memory is zeroed");
    }

    #[test]
    fn cas_success_and_failure() {
        let m = GlobalMemory::new(1024);
        let a = m.alloc(1);
        assert_eq!(m.cas(a, 0, 5), Ok(0));
        assert_eq!(m.cas(a, 0, 9), Err(5));
        assert_eq!(m.read(a), 5);
    }

    #[test]
    fn fetch_ops() {
        let m = GlobalMemory::new(1024);
        let a = m.alloc(1);
        assert_eq!(m.fetch_add(a, 3), 0);
        assert_eq!(m.fetch_or(a, 0b1000), 3);
        assert_eq!(m.fetch_and(a, 0b1011), 0b1011);
        assert_eq!(m.read(a), 0b1011);
    }

    #[test]
    fn slice_roundtrip() {
        let m = GlobalMemory::new(1024);
        let a = m.alloc(8);
        m.write_slice(a, &[1, 2, 3, 4]);
        let mut out = [0u64; 4];
        m.read_slice(a, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    /// Two-thread visibility check for the fence-based slice ops: a writer
    /// fills a block with `write_slice` and publishes it with a `Release`
    /// flag write; once the reader observes the flag, `read_slice` must
    /// return the complete block. Runs many rounds at distinct addresses
    /// so a visibility bug has repeated chances to surface.
    #[test]
    fn slice_writes_published_by_flag_are_fully_visible() {
        use std::sync::Arc;
        const ROUNDS: u64 = 200;
        const BLOCK: usize = 64;
        let m = Arc::new(GlobalMemory::new(1 << 16));
        let flags = m.alloc(ROUNDS as usize);
        let blocks = m.alloc(ROUNDS as usize * BLOCK);
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for r in 0..ROUNDS {
                    let vals: Vec<u64> = (0..BLOCK as u64).map(|i| r * 1000 + i + 1).collect();
                    m.write_slice(blocks + r * BLOCK as u64, &vals);
                    m.write(flags + r, 1); // Release: publishes the block
                }
            })
        };
        for r in 0..ROUNDS {
            while m.read(flags + r) == 0 {
                std::hint::spin_loop();
            }
            let mut out = [0u64; BLOCK];
            m.read_slice(blocks + r * BLOCK as u64, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, r * 1000 + i as u64 + 1, "round {r} word {i}");
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn alloc_reuse_falls_back_to_bump_and_recycles_after_advance() {
        let m = GlobalMemory::new(4096);
        let a = m.alloc_reuse(38, 16);
        let b = m.alloc_reuse(38, 16);
        assert_ne!(a, b);
        assert_eq!(a % 16, 0);
        let used_before = m.used();
        m.retire(a, 38, 16);
        // Quarantined: not reusable within the epoch that retired it.
        let c = m.alloc_reuse(38, 16);
        assert_ne!(c, a, "retired block reused before the epoch advanced");
        m.advance_epoch();
        let d = m.alloc_reuse(38, 16);
        assert_eq!(d, a, "recycled block should come back first");
        // Only c bumped (one aligned 38-word block, ≤ 48 words of stride).
        assert!(m.used() <= used_before + 48, "more than one block bumped");
        let st = m.slab_stats();
        assert_eq!(st.reused, 1);
        assert_eq!(st.bump_allocs, 3);
        assert_eq!(st.live, 3, "b, c, and the recycled a/d block");
        assert_eq!(st.free, 0);
        assert_eq!(st.retired, 0);
    }

    #[test]
    fn retired_blocks_stay_readable_until_the_epoch_advances() {
        let m = GlobalMemory::new(4096);
        let a = m.alloc_reuse(4, 4);
        m.write(a, 7);
        m.write(a + 3, 9);
        m.retire(a, 4, 4);
        // A same-epoch stale reader still sees intact contents.
        assert_eq!(m.read(a), 7);
        assert_eq!(m.read(a + 3), 9);
        m.advance_epoch();
        #[cfg(debug_assertions)]
        {
            // Past the epoch boundary the block is poisoned until reuse.
            assert_eq!(m.read(a), crate::slab::POISON_WORD);
            assert_eq!(m.read(a + 3), crate::slab::POISON_WORD);
        }
        let b = m.alloc_reuse(4, 4);
        assert_eq!(b, a);
        assert_eq!(m.read(b), 0, "reused blocks are zeroed");
        assert_eq!(m.read(b + 3), 0, "reused blocks are zeroed");
    }

    /// The arena-level epoch-pinning property: a block retired in epoch N
    /// survives any number of allocations within epoch N and is recycled
    /// only by the advance into N+1 — so anything still referencing it
    /// (an in-flight warp, a pending reorder-stage ticket of timestamp
    /// ≤ N) reads intact memory for as long as it can legally run.
    #[test]
    fn epoch_pins_retired_blocks_against_reuse() {
        let m = GlobalMemory::new(1 << 14);
        m.advance_epoch(); // epoch 1
        let pinned = m.alloc_reuse(38, 16);
        m.write(pinned, 0xAB);
        m.retire(pinned, 38, 16);
        for _ in 0..32 {
            assert_ne!(m.alloc_reuse(38, 16), pinned);
            assert_eq!(m.read(pinned), 0xAB, "pinned block clobbered in-epoch");
        }
        assert_eq!(m.slab_stats().retired, 1);
        m.advance_epoch(); // epoch 2: now it may recycle
        let mut seen = false;
        for _ in 0..2 {
            if m.alloc_reuse(38, 16) == pinned {
                seen = true;
            }
        }
        assert!(seen, "block never recycled after the epoch advanced");
    }

    #[test]
    fn distinct_size_classes_do_not_cross_recycle() {
        let m = GlobalMemory::new(4096);
        let node = m.alloc_reuse(38, 16);
        m.retire(node, 38, 16);
        m.advance_epoch();
        // A different class must not be served the node-class block.
        let t = m.alloc_reuse(8, 8);
        assert_ne!(t, node);
        assert_eq!(m.alloc_reuse(38, 16), node);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double retire")]
    fn double_retire_is_caught_in_debug() {
        let m = GlobalMemory::new(4096);
        let a = m.alloc_reuse(38, 16);
        m.retire(a, 38, 16);
        m.retire(a, 38, 16);
    }

    #[test]
    fn concurrent_alloc_is_disjoint() {
        use std::sync::Arc;
        let m = Arc::new(GlobalMemory::new(1 << 16));
        let mut handles = vec![];
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| m.alloc(5)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Addr> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 5, "overlapping allocations");
        }
    }
}
