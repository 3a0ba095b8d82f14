//! Node layout: a fixed 38-word record in device memory.
//!
//! ```text
//! word 0  META     bit0 = leaf flag, bit1 = lock bit, bit2 = dead flag
//!                  (set when a merge unlinks the node), bits 8..16 = count
//! word 1  VERSION  bumped atomically when the node splits or merges (§4.2)
//! word 2  NEXT     right-sibling address (leaves; 0 = none)
//! word 3  RF       range field for locality-aware traversal (§5);
//!                  u64::MAX = "no bound, horizontal always allowed"
//! word 4  HIGH     Lehman-Yao high key: exclusive upper bound of the
//!                  node's key range (u64::MAX = unbounded). A request
//!                  with key >= HIGH must follow NEXT; key deletions never
//!                  shrink HIGH (an underflow merge *raises* the absorbing
//!                  node's HIGH to cover the absorbed sibling, and the
//!                  dead sibling keeps its NEXT/HIGH intact until
//!                  reclamation), so right-hops stay correct even when a
//!                  node's minimum key rises above its parent fence
//! word 5  LOW      inclusive lower bound of the node's key range (the
//!                  fence it was created with; 0 = unbounded). Together
//!                  with HIGH it makes node ownership locally checkable:
//!                  node owns key iff LOW <= key < HIGH — which lets the
//!                  update kernel's STM leaf region verify a leaf located
//!                  by an *unprotected* traversal
//! words 6..22   KEYS     up to 16 keys, ascending; empty slots = u64::MAX
//! words 22..38  PAYLOADS leaf: values; inner: child addresses
//! ```
//!
//! Inner nodes use the *fence-key* convention: entry `i` is
//! `(min key of child i's subtree, child i)`. Search picks the largest `i`
//! with `keys[i] <= target`. This keeps key and payload arrays the same
//! length (warp-friendly: one coalesced load covers either) and makes
//! splits symmetric between leaves and inner nodes.
//!
//! Nodes are allocated 16-word aligned so a cooperative node load always
//! touches exactly three 128-byte transactions.

use eirene_sim::{Addr, GlobalMemory, WarpCtx};

/// Maximum entries per node.
pub const FANOUT: usize = 16;
/// Words per node record.
pub const NODE_WORDS: usize = 38;
/// Mean fill used by the bulk loader (leaves room for inserts). The
/// actual per-node fill is staggered around this value (see
/// [`build_fill_for`]) so that later insert streams do not drive whole
/// levels to capacity in the same batch — uniform fill makes every leaf
/// split in lockstep, which synchronizes structure conflicts into storms.
pub const BUILD_FILL: usize = 12;

/// Staggered fill for the `i`-th node of a level: 10..=14, mean 12.
#[inline]
pub fn build_fill_for(i: usize) -> usize {
    10 + (i * 7 + 3) % 5
}

/// Minimum occupancy maintained by delete rebalancing: a non-root node
/// that drops below this borrows from or merges with an adjacent sibling.
/// FANOUT/4 keeps merges rare under mixed workloads (a merge product has
/// at most FANOUT/2 entries, leaving split headroom) while still bounding
/// waste to 4x.
pub const MIN_OCCUPANCY: usize = FANOUT / 4;

/// Key slot value meaning "empty".
pub const EMPTY_KEY: u64 = u64::MAX;

/// Word offsets within a node.
pub const OFF_META: u64 = 0;
pub const OFF_VERSION: u64 = 1;
pub const OFF_NEXT: u64 = 2;
pub const OFF_RF: u64 = 3;
pub const OFF_HIGH: u64 = 4;
pub const OFF_LOW: u64 = 5;
pub const OFF_KEYS: u64 = 6;
pub const OFF_VALS: u64 = 6 + FANOUT as u64;

/// META bit for "this node is a leaf".
pub const META_LEAF: u64 = 1;
/// META bit used as a latch by the lock-based tree.
pub const META_LOCK: u64 = 2;
/// META bit for "this node was unlinked by an underflow merge". Set
/// transactionally before the node is retired so an *unprotected*
/// optimistic traversal that raced the merge can detect the corpse and
/// restart (the node's NEXT/HIGH stay intact for same-epoch readers;
/// the block itself is recycled only after an epoch advance).
pub const META_DEAD: u64 = 4;
const META_COUNT_SHIFT: u64 = 8;
const META_COUNT_MASK: u64 = 0xFF << META_COUNT_SHIFT;

/// Packs a META word from parts.
#[inline]
pub fn pack_meta(leaf: bool, locked: bool, count: usize) -> u64 {
    debug_assert!(count <= FANOUT);
    (leaf as u64) | ((locked as u64) << 1) | ((count as u64) << META_COUNT_SHIFT)
}

/// Extracts the entry count from a META word.
#[inline]
pub fn meta_count(meta: u64) -> usize {
    ((meta & META_COUNT_MASK) >> META_COUNT_SHIFT) as usize
}

/// True if the META word marks a leaf.
#[inline]
pub fn meta_is_leaf(meta: u64) -> bool {
    meta & META_LEAF != 0
}

/// True if the META word's latch bit is set.
#[inline]
pub fn meta_is_locked(meta: u64) -> bool {
    meta & META_LOCK != 0
}

/// True if the META word carries the merged-away tombstone.
#[inline]
pub fn meta_is_dead(meta: u64) -> bool {
    meta & META_DEAD != 0
}

/// A typed, *uninstrumented* view of a node for host-side code (bulk
/// build, reference ops, validation). Device kernels must not use these
/// accessors — they read nodes through `WarpCtx` so traffic is counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRef {
    pub addr: Addr,
}

impl NodeRef {
    /// Allocates a fresh node from the slab arena (recycling a reclaimed
    /// block when one is available; the arena zeroes it first, so
    /// VERSION/NEXT/LOW/VALS keep their fresh-memory-is-zero contract).
    pub fn alloc(mem: &GlobalMemory, leaf: bool) -> NodeRef {
        let addr = mem.alloc_reuse(NODE_WORDS, 16);
        mem.write(addr + OFF_META, pack_meta(leaf, false, 0));
        mem.write(addr + OFF_RF, u64::MAX);
        mem.write(addr + OFF_HIGH, u64::MAX);
        for i in 0..FANOUT as u64 {
            mem.write(addr + OFF_KEYS + i, EMPTY_KEY);
        }
        NodeRef { addr }
    }

    /// Retires this node into the arena's quarantine: it stays readable
    /// for the rest of the current epoch and is recycled (poisoned under
    /// debug) at the next epoch advance.
    pub fn retire(&self, mem: &GlobalMemory) {
        mem.retire(self.addr, NODE_WORDS, 16);
    }

    #[inline]
    pub fn meta(&self, mem: &GlobalMemory) -> u64 {
        let meta = mem.read(self.addr + OFF_META);
        debug_assert_ne!(
            meta,
            eirene_sim::POISON_WORD,
            "read of a reclaimed node at {:#x} — a stale pointer outlived its epoch",
            self.addr
        );
        meta
    }

    #[inline]
    pub fn is_leaf(&self, mem: &GlobalMemory) -> bool {
        meta_is_leaf(self.meta(mem))
    }

    #[inline]
    pub fn count(&self, mem: &GlobalMemory) -> usize {
        meta_count(self.meta(mem))
    }

    /// Rewrites META preserving the leaf/lock/dead bits, setting `count`.
    pub fn set_count(&self, mem: &GlobalMemory, count: usize) {
        let meta = self.meta(mem);
        mem.write(
            self.addr + OFF_META,
            pack_meta(meta_is_leaf(meta), meta_is_locked(meta), count) | (meta & META_DEAD),
        );
    }

    #[inline]
    pub fn key(&self, mem: &GlobalMemory, i: usize) -> u64 {
        debug_assert!(i < FANOUT);
        mem.read(self.addr + OFF_KEYS + i as u64)
    }

    #[inline]
    pub fn set_key(&self, mem: &GlobalMemory, i: usize, key: u64) {
        debug_assert!(i < FANOUT);
        mem.write(self.addr + OFF_KEYS + i as u64, key);
    }

    #[inline]
    pub fn val(&self, mem: &GlobalMemory, i: usize) -> u64 {
        debug_assert!(i < FANOUT);
        mem.read(self.addr + OFF_VALS + i as u64)
    }

    #[inline]
    pub fn set_val(&self, mem: &GlobalMemory, i: usize, val: u64) {
        debug_assert!(i < FANOUT);
        mem.write(self.addr + OFF_VALS + i as u64, val);
    }

    #[inline]
    pub fn next(&self, mem: &GlobalMemory) -> Addr {
        mem.read(self.addr + OFF_NEXT)
    }

    #[inline]
    pub fn set_next(&self, mem: &GlobalMemory, next: Addr) {
        mem.write(self.addr + OFF_NEXT, next);
    }

    #[inline]
    pub fn version(&self, mem: &GlobalMemory) -> u64 {
        mem.read(self.addr + OFF_VERSION)
    }

    /// Atomically bumps the version (done when the node splits).
    pub fn bump_version(&self, mem: &GlobalMemory) {
        mem.fetch_add(self.addr + OFF_VERSION, 1);
    }

    #[inline]
    pub fn high(&self, mem: &GlobalMemory) -> u64 {
        mem.read(self.addr + OFF_HIGH)
    }

    #[inline]
    pub fn set_high(&self, mem: &GlobalMemory, high: u64) {
        mem.write(self.addr + OFF_HIGH, high);
    }

    #[inline]
    pub fn low(&self, mem: &GlobalMemory) -> u64 {
        mem.read(self.addr + OFF_LOW)
    }

    #[inline]
    pub fn set_low(&self, mem: &GlobalMemory, low: u64) {
        mem.write(self.addr + OFF_LOW, low);
    }

    #[inline]
    pub fn rf(&self, mem: &GlobalMemory) -> u64 {
        mem.read(self.addr + OFF_RF)
    }

    #[inline]
    pub fn set_rf(&self, mem: &GlobalMemory, rf: u64) {
        mem.write(self.addr + OFF_RF, rf);
    }

    /// Smallest key stored in the node (must be non-empty).
    pub fn min_key(&self, mem: &GlobalMemory) -> u64 {
        debug_assert!(self.count(mem) > 0);
        self.key(mem, 0)
    }

    /// Largest key stored in the node (must be non-empty).
    pub fn max_key(&self, mem: &GlobalMemory) -> u64 {
        let c = self.count(mem);
        debug_assert!(c > 0);
        self.key(mem, c - 1)
    }
}

/// A device kernel's node buffer: the node's 38-word record, word for word.
/// [`load`](Self::load) fills it in place with one cooperative
/// `WarpCtx::read_block` (exactly one node's traffic), and the accessors read
/// each field at its `OFF_*` word, so a load copies nothing on the host. A
/// traversal keeps one buffer and loads every node it visits into it;
/// whoever needs two nodes at once keeps two buffers (there is no `Clone`).
#[derive(Debug)]
pub struct ParsedNode([u64; NODE_WORDS]);

impl Default for ParsedNode {
    fn default() -> Self {
        ParsedNode([0; NODE_WORDS])
    }
}

/// One `ParsedNode` accessor per single-word field, reading the field's word.
macro_rules! word_fields {
    ($($(#[$doc:meta])* $name:ident = $off:ident;)*) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&self) -> u64 {
            self.0[$off as usize]
        }
    )*};
}

impl ParsedNode {
    /// Loads the node at `addr` into this buffer (one warp memory operation).
    #[inline]
    pub fn load(&mut self, ctx: &mut WarpCtx<'_>, addr: Addr) {
        ctx.read_block(addr, &mut self.0);
        // META *and* VERSION poisoned is a stale pointer into a reclaimed block,
        // not a benign optimistic race (a torn read can hit one poisoned word).
        debug_assert!(
            !(self.meta() == eirene_sim::POISON_WORD && self.version() == eirene_sim::POISON_WORD),
            "snapshot of a reclaimed node — a stale pointer outlived its epoch"
        );
    }

    /// The record as loaded.
    #[inline]
    pub fn words(&self) -> &[u64; NODE_WORDS] {
        &self.0
    }

    word_fields! {
        meta = OFF_META;
        version = OFF_VERSION;
        next = OFF_NEXT;
        rf = OFF_RF;
        /// Exclusive upper bound of this node's key range (Lehman-Yao).
        high = OFF_HIGH;
        /// Inclusive lower bound of this node's key range.
        low = OFF_LOW;
    }

    /// All [`FANOUT`] key slots.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.0[OFF_KEYS as usize..OFF_VALS as usize]
    }

    /// All [`FANOUT`] payload slots.
    #[inline]
    pub fn vals(&self) -> &[u64] {
        &self.0[OFF_VALS as usize..]
    }

    #[inline]
    pub fn is_leaf(&self) -> bool {
        meta_is_leaf(self.meta())
    }

    /// True if the snapshot carries the merged-away tombstone.
    #[inline]
    pub fn is_dead(&self) -> bool {
        meta_is_dead(self.meta())
    }

    /// Entry count, clamped to [`FANOUT`]: device snapshots may observe
    /// torn or foreign words under unprotected traversal, and a clamped
    /// count keeps every array access in bounds (callers re-validate
    /// before trusting the data).
    #[inline]
    pub fn count(&self) -> usize {
        meta_count(self.meta()).min(FANOUT)
    }

    /// Inner-node search: index of the child to descend into — the last
    /// entry whose fence key is `<= key`, or 0 if all fences exceed it
    /// (only possible at the root for keys below the tree minimum).
    pub fn child_slot(&self, key: u64) -> usize {
        let c = self.count();
        debug_assert!(c > 0);
        let mut slot = 0;
        for i in 0..c {
            if self.keys()[i] <= key {
                slot = i;
            } else {
                break;
            }
        }
        slot
    }

    /// Leaf search: slot of `key` if present.
    pub fn find(&self, key: u64) -> Option<usize> {
        let c = self.count();
        (0..c).find(|&i| self.keys()[i] == key)
    }

    /// Largest key in the node (node must be non-empty).
    pub fn max_key(&self) -> u64 {
        let c = self.count();
        debug_assert!(c > 0);
        self.keys()[c - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_pack_roundtrip() {
        let m = pack_meta(true, false, 13);
        assert!(meta_is_leaf(m));
        assert!(!meta_is_locked(m));
        assert_eq!(meta_count(m), 13);
        let m = pack_meta(false, true, 0);
        assert!(!meta_is_leaf(m));
        assert!(meta_is_locked(m));
        assert_eq!(meta_count(m), 0);
    }

    #[test]
    fn alloc_initializes_node() {
        let mem = GlobalMemory::new(1 << 12);
        let n = NodeRef::alloc(&mem, true);
        assert!(n.is_leaf(&mem));
        assert_eq!(n.count(&mem), 0);
        assert_eq!(n.rf(&mem), u64::MAX);
        assert_eq!(n.key(&mem, 0), EMPTY_KEY);
        assert_eq!(n.addr % 16, 0, "node must be 16-word aligned");
    }

    #[test]
    fn accessors_roundtrip() {
        let mem = GlobalMemory::new(1 << 12);
        let n = NodeRef::alloc(&mem, true);
        n.set_key(&mem, 3, 42);
        n.set_val(&mem, 3, 420);
        n.set_count(&mem, 4);
        n.set_next(&mem, 0x100);
        n.set_rf(&mem, 999);
        assert_eq!(n.key(&mem, 3), 42);
        assert_eq!(n.val(&mem, 3), 420);
        assert_eq!(n.count(&mem), 4);
        assert_eq!(n.next(&mem), 0x100);
        assert_eq!(n.rf(&mem), 999);
        assert!(n.is_leaf(&mem), "set_count must preserve the leaf bit");
    }

    #[test]
    fn version_bumps() {
        let mem = GlobalMemory::new(1 << 12);
        let n = NodeRef::alloc(&mem, false);
        assert_eq!(n.version(&mem), 0);
        n.bump_version(&mem);
        n.bump_version(&mem);
        assert_eq!(n.version(&mem), 2);
    }

    /// Block-loads the node at `addr` the way a kernel does.
    fn load(mem: &GlobalMemory, addr: Addr) -> ParsedNode {
        let cfg = eirene_sim::DeviceConfig::test_small();
        let mut stats = eirene_sim::WarpStats::default();
        let mut ctx = WarpCtx::new(mem, &cfg, 0, &mut stats);
        let mut p = ParsedNode::default();
        p.load(&mut ctx, addr);
        assert_eq!(ctx.stats.mem_words, NODE_WORDS as u64, "one node's traffic");
        p
    }

    #[test]
    fn parsed_node_matches_stored_node() {
        let mem = GlobalMemory::new(1 << 12);
        let n = NodeRef::alloc(&mem, true);
        for i in 0..5 {
            n.set_key(&mem, i, (i as u64 + 1) * 10);
            n.set_val(&mem, i, i as u64);
        }
        n.set_count(&mem, 5);
        n.set_next(&mem, 77);
        let p = load(&mem, n.addr);
        assert!(p.is_leaf());
        assert_eq!(p.count(), 5);
        assert_eq!(p.next(), 77);
        assert_eq!(p.keys()[2], 30);
        assert_eq!(p.max_key(), 50);
    }

    /// The buffer *is* the record: every field written through `NodeRef`
    /// comes back from the accessor reading its `OFF_*` word, and the type
    /// is exactly one record wide.
    #[test]
    fn node_image_layout_is_the_record() {
        assert_eq!(std::mem::size_of::<ParsedNode>(), NODE_WORDS * 8);
        let mem = GlobalMemory::new(1 << 12);
        let n = NodeRef::alloc(&mem, false);
        n.set_count(&mem, 9);
        n.bump_version(&mem);
        n.bump_version(&mem);
        n.set_next(&mem, 0x1230);
        n.set_rf(&mem, 0x4560);
        n.set_high(&mem, 0x7890);
        n.set_low(&mem, 0x0ab0);
        for i in 0..FANOUT {
            n.set_key(&mem, i, 1000 + i as u64);
            n.set_val(&mem, i, 2000 + i as u64);
        }
        let p = load(&mem, n.addr);
        let mut fields = vec![
            (p.meta(), OFF_META, pack_meta(false, false, 9)),
            (p.version(), OFF_VERSION, 2),
            (p.next(), OFF_NEXT, 0x1230),
            (p.rf(), OFF_RF, 0x4560),
            (p.high(), OFF_HIGH, 0x7890),
            (p.low(), OFF_LOW, 0x0ab0),
        ];
        assert_eq!((p.keys().len(), p.vals().len()), (FANOUT, FANOUT));
        for i in 0..FANOUT as u64 {
            fields.push((p.keys()[i as usize], OFF_KEYS + i, 1000 + i));
            fields.push((p.vals()[i as usize], OFF_VALS + i, 2000 + i));
        }
        for (got, off, written) in fields {
            assert_eq!(got, mem.read(n.addr + off), "accessor of word {off}");
            assert_eq!(got, written, "word {off}");
        }
        let mut w = [0u64; NODE_WORDS];
        mem.read_slice(n.addr, &mut w);
        assert_eq!(p.words(), &w);
    }

    #[test]
    fn child_slot_picks_fence() {
        let mut w = [0u64; NODE_WORDS];
        w[0] = pack_meta(false, false, 3);
        w[OFF_KEYS as usize] = 10;
        w[OFF_KEYS as usize + 1] = 20;
        w[OFF_KEYS as usize + 2] = 30;
        let p = ParsedNode(w);
        assert_eq!(p.child_slot(5), 0, "below minimum clamps to first child");
        assert_eq!(p.child_slot(10), 0);
        assert_eq!(p.child_slot(19), 0);
        assert_eq!(p.child_slot(20), 1);
        assert_eq!(p.child_slot(1000), 2);
    }

    #[test]
    fn find_locates_keys_in_leaf() {
        let mut w = [0u64; NODE_WORDS];
        w[0] = pack_meta(true, false, 2);
        w[OFF_KEYS as usize] = 7;
        w[OFF_KEYS as usize + 1] = 9;
        let p = ParsedNode(w);
        assert_eq!(p.find(7), Some(0));
        assert_eq!(p.find(9), Some(1));
        assert_eq!(p.find(8), None);
    }
}
