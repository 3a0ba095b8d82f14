//! Snapshot pivot cache: a compact, read-only copy of the tree's upper
//! internal levels, rebuilt lazily at batch boundaries.
//!
//! Every issued request used to pay a full root-to-leaf descent — O(depth)
//! node loads — even though a 16k-request epoch re-reads the same root and
//! upper internal nodes thousands of times. The cache snapshots the
//! deepest internal level that fits in [`FRONTIER_CAP`] entries (the
//! *frontier*) plus the low-fence key of every leaf, so run dispatch
//! binary-searches host-staged fences instead of chasing device-memory
//! pointers, and each descent starts at a frontier node instead of the
//! root.
//!
//! **Snapshot rule.** The cache is built at a batch boundary — the same
//! quiescent point where the slab reclamation epoch advances (DESIGN.md
//! §14): no kernel is in flight and nothing outside the tree holds node
//! addresses. A snapshot counts as valid while its tree's root and
//! *inner-structure generation* ([`TreeHandle::gen_word`]) are the ones
//! it was taken with. The generation counts inner nodes born or retired —
//! inner and root splits, inner merges, root collapses, and splits whose
//! transaction later aborts — so while it stands, every frontier node is
//! alive at its address with its fences, and the frontier is exact.
//!
//! **Leaf changes are invisible to that rule.** A leaf split or merge, and
//! a borrow between two siblings (`borrow_from_left` /
//! `borrow_from_right` in `eirene_btree::ops`, which rewrites the fence
//! between them in both nodes and in their parent), keeps the snapshot
//! valid while its leaf fences — and, after a borrow between internal
//! nodes, its frontier fences — are stale. That is safe because neither is
//! trusted: leaf runs only group requests (each request's leaf is found by
//! the warp's locator, whose walks follow the nodes' own HIGH fences, so a
//! run that spans a split leaf steps right onto its sibling, and two runs
//! that share a merged leaf are serialised by the update kernel's STM), and
//! a descent re-validates its cached start node (the safety net below).
//!
//! **Safety net.** Validity checking is per-epoch, but the update kernel
//! can split nodes *during* an epoch that started with a valid snapshot.
//! A descent that starts from a cached node therefore re-validates the
//! node on load (alive, internal, owns the key between its LOW/HIGH
//! fences) and falls back to a root descent on any mismatch — the same
//! hint discipline the unprotected traversal already applies to everything
//! it reads (Alg. 1 line 29).

use eirene_btree::build::TreeHandle;
use eirene_btree::node::{NodeRef, FANOUT, NODE_WORDS, OFF_KEYS, OFF_VALS};
use eirene_primitives::PrimCost;
use eirene_sim::{Addr, DeviceConfig, GlobalMemory};

/// Maximum frontier width: the deepest internal level with at most this
/// many nodes becomes the descent frontier. 4096 entries (two words each)
/// comfortably fit the shared-memory budget the staging cost models.
pub const FRONTIER_CAP: usize = 4096;

/// The snapshot pivot cache (see module docs). The default value is an
/// empty cache, which is never valid.
#[derive(Default)]
pub struct PivotCache {
    /// `(inclusive low fence, node address)` per frontier node, in
    /// ascending fence order; entry 0 covers keys from zero. Empty while
    /// there is no snapshot.
    frontier: Vec<(u64, Addr)>,
    /// Low-fence key of every leaf (the keys stored in the leaf-parent
    /// level), ascending. Used for leaf-run partitioning at dispatch.
    leaf_fences: Vec<u64>,
    /// The internal level being scanned and the next one, kept only so a
    /// rebuild reuses their buffers.
    level: Vec<(u64, Addr)>,
    below: Vec<(u64, Addr)>,
    /// Inner-structure generation when the snapshot was taken.
    gen: u64,
    /// Root address when the snapshot was taken.
    root: Addr,
    /// Control instructions charged per frontier lookup
    /// (`log2(frontier) + 2`, the binary search).
    lookup_cost: u64,
}

impl PivotCache {
    /// Builds a snapshot; see [`rebuild`](Self::rebuild).
    pub fn build(mem: &GlobalMemory, handle: &TreeHandle, cfg: &DeviceConfig) -> (Self, PrimCost) {
        let mut cache = PivotCache::default();
        let cost = cache.rebuild(mem, handle, cfg);
        (cache, cost)
    }

    /// Takes a fresh snapshot in place, reusing this cache's buffers, by
    /// walking the internal levels host-side (the batch boundary is
    /// quiescent, so uninstrumented reads are safe). Returns the modelled
    /// device cost of the build — one streaming pass over every internal
    /// node scanned, which the caller charges to the batch like any other
    /// host-executed primitive.
    ///
    /// A level is read a node at a time, its keys (and above the leaf
    /// parents its children) one `read_slice` each; the level whose
    /// children are leaves — known from its first child — writes its keys
    /// straight into the leaf fences.
    pub fn rebuild(
        &mut self,
        mem: &GlobalMemory,
        handle: &TreeHandle,
        cfg: &DeviceConfig,
    ) -> PrimCost {
        let root = handle.root(mem);
        self.gen = handle.inner_gen(mem);
        self.root = root;
        self.frontier.clear();
        self.frontier.push((0, root));
        self.leaf_fences.clear();
        self.level.clear();
        self.level.push((0, root));
        let mut nodes_scanned = 0u64;
        if (NodeRef { addr: root }).is_leaf(mem) {
            // Root-is-leaf tree: the root is the frontier and its one fence.
            self.leaf_fences.push(0);
        } else {
            loop {
                nodes_scanned += self.level.len() as u64;
                if self.level.len() <= FRONTIER_CAP {
                    self.frontier.clone_from(&self.level);
                }
                let first_child = self.level.iter().find_map(|&(_, addr)| {
                    let n = NodeRef { addr };
                    (n.count(mem) > 0).then(|| n.val(mem, 0))
                });
                let leaf_parents = first_child.is_none_or(|addr| NodeRef { addr }.is_leaf(mem));
                self.below.clear();
                let (mut keys, mut vals) = ([0u64; FANOUT], [0u64; FANOUT]);
                for &(_, addr) in &self.level {
                    let count = NodeRef { addr }.count(mem);
                    debug_assert!(count <= FANOUT, "node {addr:#x} holds {count} entries");
                    let keys = &mut keys[..count];
                    mem.read_slice(addr + OFF_KEYS, keys);
                    if leaf_parents {
                        self.leaf_fences.extend_from_slice(keys);
                    } else {
                        let vals = &mut vals[..count];
                        mem.read_slice(addr + OFF_VALS, vals);
                        self.below
                            .extend(keys.iter().copied().zip(vals.iter().copied()));
                    }
                }
                if leaf_parents {
                    break;
                }
                std::mem::swap(&mut self.level, &mut self.below);
            }
        }
        self.lookup_cost = (usize::BITS - self.frontier.len().leading_zeros()) as u64 + 2;
        PrimCost::streaming(cfg, nodes_scanned * NODE_WORDS as u64, 1, 1)
    }

    /// Drops the snapshot, keeping its buffers for the next
    /// [`rebuild`](Self::rebuild).
    pub fn clear(&mut self) {
        self.frontier.clear();
    }

    /// True while there is a snapshot and no inner node was born or
    /// retired since it was taken: same inner-structure generation, same
    /// root.
    pub fn is_valid(&self, mem: &GlobalMemory, handle: &TreeHandle) -> bool {
        !self.frontier.is_empty()
            && self.gen == handle.inner_gen(mem)
            && self.root == handle.root(mem)
    }

    /// Frontier node whose subtree owned `key` at snapshot time: binary
    /// search for the last fence `<=` key (entry 0 is unbounded below).
    pub fn lookup(&self, key: u64) -> Addr {
        let idx = self.frontier.partition_point(|&(f, _)| f <= key);
        self.frontier[idx.max(1) - 1].1
    }

    /// Control instructions one frontier lookup costs on the device.
    pub fn lookup_cost(&self) -> u64 {
        self.lookup_cost
    }

    /// Leaf low-fence keys of the snapshot (ascending), for leaf-run
    /// partitioning.
    pub fn leaf_fences(&self) -> &[u64] {
        &self.leaf_fences
    }

    /// Number of frontier entries.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Modelled cost of staging the frontier fences into shared memory at
    /// kernel start (one streaming pass over the fence words), charged
    /// once per kernel that dispatches through the cache.
    pub fn staging_cost(&self, cfg: &DeviceConfig) -> PrimCost {
        PrimCost::streaming(cfg, self.frontier.len() as u64, 1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EireneOptions, EireneTree};
    use eirene_baselines::common::ConcurrentTree;
    use eirene_btree::build::{arena_budget, bulk_build};
    use eirene_btree::node::MIN_OCCUPANCY;
    use eirene_btree::refops;
    use eirene_sim::{Device, WarpStats};
    use eirene_workloads::{Batch, OpKind, Oracle, Request, SequentialOracle};

    fn tree(n: u64) -> (Device, TreeHandle) {
        let dev = Device::new(arena_budget(n as usize, 64), DeviceConfig::test_small());
        let pairs: Vec<(u64, u64)> = (1..=n).map(|i| (2 * i, 2 * i + 1)).collect();
        let t = bulk_build(dev.mem(), &pairs);
        (dev, t)
    }

    #[test]
    fn lookup_returns_owning_frontier_node() {
        let (dev, t) = tree(5000);
        let (cache, _) = PivotCache::build(dev.mem(), &t, dev.config());
        assert!(cache.frontier_len() > 1, "tree is tall enough to cache");
        for key in [0u64, 2, 777, 4999, 10_000, u64::MAX] {
            let addr = cache.lookup(key);
            let n = NodeRef { addr };
            assert!(!n.is_leaf(dev.mem()), "frontier nodes are internal");
            assert!(n.low(dev.mem()) <= key);
            assert!(key < n.high(dev.mem()) || n.high(dev.mem()) == u64::MAX);
        }
    }

    #[test]
    fn leaf_fences_cover_every_leaf() {
        let (dev, t) = tree(5000);
        let (cache, _) = PivotCache::build(dev.mem(), &t, dev.config());
        let fences = cache.leaf_fences();
        assert!(fences.windows(2).all(|w| w[0] < w[1]), "ascending");
        // Walk the leaf chain: every leaf's min key must be a fence.
        let mut addr = t.root(dev.mem());
        loop {
            let n = NodeRef { addr };
            if n.is_leaf(dev.mem()) {
                break;
            }
            addr = n.val(dev.mem(), 0);
        }
        let mut count = 0usize;
        loop {
            let n = NodeRef { addr };
            assert!(
                fences.binary_search(&n.min_key(dev.mem())).is_ok(),
                "leaf fence missing for leaf at {addr:#x}"
            );
            count += 1;
            if n.next(dev.mem()) == 0 {
                break;
            }
            addr = n.next(dev.mem());
        }
        assert_eq!(count, fences.len());
    }

    /// `(inner nodes, leaves, height)`, walked level by level.
    fn shape(mem: &GlobalMemory, t: &TreeHandle) -> (usize, usize, u64) {
        let (mut level, mut inner) = (vec![t.root(mem)], 0);
        while !(NodeRef { addr: level[0] }).is_leaf(mem) {
            inner += level.len();
            level = level
                .iter()
                .flat_map(|&addr| {
                    let n = NodeRef { addr };
                    (0..n.count(mem)).map(move |i| n.val(mem, i))
                })
                .collect();
        }
        (inner, level.len(), t.height(mem))
    }

    /// What one structure change does to `shape`: `(Δinner, Δleaves,
    /// Δheight)`; `None` matches anything.
    type Delta = (Option<isize>, Option<isize>, isize);

    fn delta(before: (usize, usize, u64), after: (usize, usize, u64)) -> (isize, isize, isize) {
        let d = |a: usize, b: usize| b as isize - a as isize;
        let height = after.2 as isize - before.2 as isize;
        (d(before.0, after.0), d(before.1, after.1), height)
    }

    fn matches(want: Delta, got: (isize, isize, isize)) -> bool {
        want.0.is_none_or(|i| i == got.0) && want.1.is_none_or(|l| l == got.1) && want.2 == got.2
    }

    /// A tree of 400 keys — three leaf parents under the root, so two of
    /// them can merge without collapsing it — with room for a thousand
    /// more nodes and an STM.
    fn roomy_tree() -> (Device, TreeHandle, eirene_stm::Stm) {
        let dev = Device::new(
            arena_budget(400, 1024) + (1 << 13),
            DeviceConfig::test_small(),
        );
        let pairs: Vec<(u64, u64)> = (1..=400).map(|i| (2 * i, 2 * i + 1)).collect();
        let t = bulk_build(dev.mem(), &pairs);
        let stm = eirene_stm::Stm::new(dev.mem(), 1 << 12);
        (dev, t, stm)
    }

    /// One step of a drive: appends above the largest key grow the tree
    /// at its right edge through the host-side reference operations;
    /// deletes from the smallest key up shrink it from the left.
    #[derive(Clone, Copy, Debug)]
    enum Drive {
        Append,
        DeleteLowest,
    }

    fn step(dev: &Device, t: &TreeHandle, drive: Drive, i: u64) {
        let mem = dev.mem();
        match drive {
            Drive::Append => drop(refops::upsert(mem, t, 1000 + i, i)),
            Drive::DeleteLowest => drop(refops::delete(mem, t, 2 * (i + 1))),
        }
    }

    /// Drives `step`s on a fresh tree until one changes the shape by
    /// `want`; returns how many steps ran before it.
    fn steps_before(drive: Drive, want: Delta) -> u64 {
        let (dev, t, _) = roomy_tree();
        (0..2000)
            .find(|&i| {
                let before = shape(dev.mem(), &t);
                step(&dev, &t, drive, i);
                matches(want, delta(before, shape(dev.mem(), &t)))
            })
            .unwrap_or_else(|| panic!("no {drive:?} step changed the shape by {want:?}"))
    }

    #[test]
    fn leaf_changes_keep_the_snapshot_and_inner_changes_invalidate_it() {
        use eirene_btree::{access::TxAccess, ops::descend};
        use Drive::*;
        let inner_split = (Some(1), None, 0);
        // `(change, drive, shape delta, made by a split-capable descent in
        // a transaction that then rolls back, snapshot still valid)`.
        let table: [(&str, Drive, Delta, bool, bool); 7] = [
            ("leaf split", Append, (Some(0), Some(1), 0), false, true),
            (
                "leaf merge",
                DeleteLowest,
                (Some(0), Some(-1), 0),
                false,
                true,
            ),
            ("inner split", Append, inner_split, false, false),
            (
                "inner merge",
                DeleteLowest,
                (Some(-1), None, 0),
                false,
                false,
            ),
            ("root split", Append, (None, None, 1), false, false),
            (
                "root collapse",
                DeleteLowest,
                (None, None, -1),
                false,
                false,
            ),
            ("aborted inner split", Append, inner_split, true, false),
        ];
        for (what, drive, want, aborted, valid) in table {
            let n = steps_before(drive, want);
            let (dev, t, stm) = roomy_tree();
            let mem = dev.mem();
            (0..n).for_each(|i| step(&dev, &t, drive, i));
            let (cache, _) = PivotCache::build(mem, &t, dev.config());
            let before = shape(mem, &t);
            let got = if aborted {
                let mut stats = WarpStats::default();
                let mut ctx = eirene_sim::WarpCtx::new(mem, dev.config(), 0, &mut stats);
                let mut scratch = eirene_stm::TxScratch::default();
                let mut tx = stm.begin(&mut scratch);
                descend(&mut TxAccess::new(&mut tx, &mut ctx), &t, 1000 + n, true).unwrap();
                let split = delta(before, shape(mem, &t));
                tx.rollback(&mut ctx);
                assert_eq!(shape(mem, &t), before, "{what}: rolled back");
                split
            } else {
                step(&dev, &t, drive, n);
                delta(before, shape(mem, &t))
            };
            assert!(matches(want, got), "{what}: shape moved by {got:?}");
            assert_eq!(cache.is_valid(mem, &t), valid, "{what}");
        }
    }

    /// An Eirene tree over the even keys `2..=2000` beside its oracle.
    struct Checked {
        t: EireneTree,
        oracle: SequentialOracle,
        ts: u64,
    }

    impl Checked {
        fn new() -> Self {
            let init: Vec<(u32, u32)> = (1..=1000).map(|i| (2 * i, 2 * i + 1)).collect();
            let pairs: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k.into(), v.into())).collect();
            Checked {
                t: EireneTree::new(&pairs, EireneOptions::test_small()),
                oracle: SequentialOracle::load(&init),
                ts: 0,
            }
        }

        /// Executes `ops` as one batch (timestamps continuing from the
        /// last), checks every response against the oracle and returns
        /// the batch's totals.
        fn run(&mut self, ops: Vec<(u64, OpKind)>) -> WarpStats {
            let reqs = ops.into_iter().map(|(key, op)| {
                self.ts += 1;
                Request {
                    key: key as u32,
                    op,
                    ts: self.ts,
                }
            });
            let batch = Batch::new(reqs.collect());
            let got = self.t.run_batch(&batch);
            assert_eq!(got.responses, self.oracle.run_batch(&batch), "responses");
            got.stats.totals
        }
    }

    /// `(live, reused, bump_allocs)` of the arena's slab.
    fn slab(mem: &GlobalMemory) -> (u64, u64, u64) {
        let s = mem.slab_stats();
        (s.live, s.reused, s.bump_allocs)
    }

    #[test]
    fn a_borrow_keeps_the_snapshot_valid_with_stale_fences_and_answers_stay_right() {
        let mut c = Checked::new();
        let (mem, cfg) = (c.t.device().mem(), c.t.device().config());
        let (before, _) = PivotCache::build(mem, c.t.handle(), cfg);
        let fences = before.leaf_fences().to_vec();
        // Leaf 5 and its right sibling sit under the first leaf parent.
        let (lo, hi) = (fences[5], fences[6]);
        let leaf: Vec<u64> = (lo..hi).filter(|k| k % 2 == 0).collect();
        assert!(
            leaf.len() > MIN_OCCUPANCY + 1,
            "{} keys in leaf 5",
            leaf.len()
        );
        // 1. Leaf-local deletes take leaf 5 down to the occupancy floor;
        //    one more underflows it, and its rich right sibling lends it
        //    an entry: a borrow, which neither allocates nor retires.
        let sig = slab(mem);
        let floor = leaf.len() - MIN_OCCUPANCY;
        c.run(leaf[..floor].iter().map(|&k| (k, OpKind::Delete)).collect());
        c.run(vec![(leaf[floor], OpKind::Delete)]);
        let mem = c.t.device().mem();
        assert_eq!(slab(mem), sig, "no node was allocated or retired");
        assert!(before.is_valid(mem, c.t.handle()), "the snapshot survives");
        let (after, _) = PivotCache::build(mem, c.t.handle(), c.t.device().config());
        assert_eq!(after.leaf_fences()[6], hi + 2, "the fence moved right");
        assert_ne!(before.leaf_fences(), after.leaf_fences(), "stale fences");
        // 2. A later batch queries around the moved fence through the
        //    stale snapshot, and 3. answers as the oracle does.
        let around = (lo - 8..fences[7] + 8)
            .map(|k| (k, OpKind::Query))
            .collect();
        let stats = c.run(around);
        assert_eq!(stats.pivot_cache_rebuilds, 0, "no rebuild");
        assert!(
            stats.pivot_cache_hits > 0,
            "dispatched through the snapshot"
        );
    }

    #[test]
    fn a_leaf_split_keeps_the_snapshot_and_answers_around_the_new_fence_stay_right() {
        let mut c = Checked::new();
        // The first batch takes the tree's snapshot.
        let first = c.run(vec![(2, OpKind::Query)]);
        assert_eq!(first.pivot_cache_rebuilds, 1);
        let (mem, cfg) = (c.t.device().mem(), c.t.device().config());
        let (before, _) = PivotCache::build(mem, c.t.handle(), cfg);
        let fences = before.leaf_fences().to_vec();
        let (lo, hi) = (fences[5], fences[6]);
        // 1. Every odd key of leaf 5 goes in: it overflows and splits,
        //    and no inner node is born (its parent has room).
        let live = slab(mem).0;
        let fill = (lo..hi)
            .filter(|k| k % 2 == 1)
            .map(|k| (k, OpKind::Upsert(7)));
        let stats = c.run(fill.collect());
        assert_eq!(stats.pivot_cache_rebuilds, 0, "the snapshot was kept");
        let mem = c.t.device().mem();
        assert!(slab(mem).0 > live, "a leaf was born");
        assert!(before.is_valid(mem, c.t.handle()), "the snapshot survives");
        let (after, _) = PivotCache::build(mem, c.t.handle(), c.t.device().config());
        let new_fences = after.leaf_fences().len() - fences.len();
        assert!(
            new_fences > 0,
            "the split published a fence the snapshot lacks"
        );
        assert_eq!(after.frontier, before.frontier, "the frontier is exact");
        // 2. A later batch reads and writes around the new fences through
        //    the stale snapshot, and 3. answers as the oracle does.
        let around = (lo - 8..hi + 8).map(|k| match k % 3 {
            0 => (k, OpKind::Upsert(k as u32)),
            _ => (k, OpKind::Query),
        });
        let stats = c.run(around.collect());
        assert_eq!(stats.pivot_cache_rebuilds, 0, "no rebuild");
        assert!(
            stats.pivot_cache_hits > 0,
            "dispatched through the snapshot"
        );
    }

    #[test]
    fn build_cost_is_charged() {
        let (dev, t) = tree(5000);
        let (_, cost) = PivotCache::build(dev.mem(), &t, dev.config());
        assert!(cost.mem_words > 0);
        assert!(cost.cycles > 0);
    }

    #[test]
    fn single_leaf_tree_builds_trivial_cache() {
        let (dev, t) = tree(4);
        let (cache, _) = PivotCache::build(dev.mem(), &t, dev.config());
        // Root is a leaf: the frontier is the root itself.
        assert_eq!(cache.frontier_len(), 1);
        assert_eq!(cache.lookup(42), t.root(dev.mem()));
        assert_eq!(cache.leaf_fences(), &[0]);
    }

    /// The walk `rebuild` replaced, kept as the reference it must equal:
    /// every internal level's `(fence, child)` pairs collected a word at a
    /// time — the leaf parents' included — until the first entry of a level
    /// is a leaf, whose fences are then copied out. Returns the frontier,
    /// the leaf fences, the lookup cost and the charged cost.
    fn build_reference(
        mem: &GlobalMemory,
        handle: &TreeHandle,
        cfg: &DeviceConfig,
    ) -> (Vec<(u64, Addr)>, Vec<u64>, u64, PrimCost) {
        let mut level: Vec<(u64, Addr)> = vec![(0, handle.root(mem))];
        let mut frontier = level.clone();
        let mut nodes_scanned = 0u64;
        let leaf_fences = loop {
            if (NodeRef { addr: level[0].1 }).is_leaf(mem) {
                break level.iter().map(|&(f, _)| f).collect::<Vec<u64>>();
            }
            let mut children = Vec::with_capacity(level.len() * FANOUT);
            for &(_, addr) in &level {
                let n = NodeRef { addr };
                nodes_scanned += 1;
                for i in 0..n.count(mem) {
                    children.push((n.key(mem, i), n.val(mem, i)));
                }
            }
            if level.len() <= FRONTIER_CAP {
                frontier = level.clone();
            }
            level = children;
        };
        let lookup_cost = (usize::BITS - frontier.len().leading_zeros()) as u64 + 2;
        let cost = PrimCost::streaming(cfg, nodes_scanned * NODE_WORDS as u64, 1, 1);
        (frontier, leaf_fences, lookup_cost, cost)
    }

    /// Rebuilds `cache` in place (whatever snapshot it held before) and a
    /// fresh one, and checks both against the reference walk.
    fn assert_rebuild_equals_reference(
        cache: &mut PivotCache,
        mem: &GlobalMemory,
        handle: &TreeHandle,
        cfg: &DeviceConfig,
        what: &str,
    ) {
        let (frontier, fences, lookup_cost, want) = build_reference(mem, handle, cfg);
        let cost = cache.rebuild(mem, handle, cfg);
        let (fresh, fresh_cost) = PivotCache::build(mem, handle, cfg);
        for (c, cost) in [(&*cache, cost), (&fresh, fresh_cost)] {
            assert_eq!(c.frontier, frontier, "{what}: frontier");
            assert_eq!(c.leaf_fences, fences, "{what}: leaf fences");
            assert_eq!(c.lookup_cost, lookup_cost, "{what}: lookup cost");
            assert_eq!(cost, want, "{what}: charged cost");
            assert!(c.is_valid(mem, handle), "{what}: valid");
        }
    }

    /// A tree of `leaves` two-key leaves whose inner nodes hold `per_node`
    /// children each (the last of a level fewer), so every level's width
    /// is exact.
    fn uniform_tree(leaves: usize, per_node: usize) -> (Device, TreeHandle) {
        let dev = Device::new((2 * leaves + 64) * 48, DeviceConfig::test_small());
        let mem = dev.mem();
        let mut level: Vec<(u64, Addr)> = (0..leaves as u64)
            .map(|i| {
                let leaf = NodeRef::alloc(mem, true);
                for j in 0..2 {
                    leaf.set_key(mem, j, 4 * i + 2 * j as u64);
                    leaf.set_val(mem, j, i);
                }
                leaf.set_count(mem, 2);
                (4 * i, leaf.addr)
            })
            .collect();
        let mut height = 1;
        while level.len() > 1 {
            level = level
                .chunks(per_node)
                .map(|chunk| {
                    let inner = NodeRef::alloc(mem, false);
                    for (j, &(key, child)) in chunk.iter().enumerate() {
                        inner.set_key(mem, j, key);
                        inner.set_val(mem, j, child);
                    }
                    inner.set_count(mem, chunk.len());
                    (chunk[0].0, inner.addr)
                })
                .collect();
            height += 1;
        }
        let handle = TreeHandle::alloc(mem);
        handle.set_root(mem, level[0].1, height);
        (dev, handle)
    }

    #[test]
    fn rebuild_equals_the_reference_walk_at_every_height() {
        // One cache rebuilt across all of them, largest first, so every
        // rebuild lands in buffers a bigger snapshot left behind.
        let mut cache = PivotCache::default();
        for (n, height) in [
            (400_000, 6),
            (100_000, 5),
            (10_000, 4),
            (1000, 3),
            (100, 2),
            (4, 1),
        ] {
            let (dev, t) = tree(n);
            assert_eq!(t.height(dev.mem()), height, "{n} keys");
            let what = format!("height {height}");
            assert_rebuild_equals_reference(&mut cache, dev.mem(), &t, dev.config(), &what);
        }
    }

    #[test]
    fn rebuild_equals_the_reference_walk_around_the_frontier_cap() {
        let mut cache = PivotCache::default();
        // Leaf parents exactly `FRONTIER_CAP` wide are the frontier; one
        // node more and the frontier is the level above.
        for (parents, frontier) in [(FRONTIER_CAP, FRONTIER_CAP), (FRONTIER_CAP + 1, 1025)] {
            let (dev, t) = uniform_tree(4 * parents - 3, 4);
            let what = format!("{parents} leaf parents");
            assert_rebuild_equals_reference(&mut cache, dev.mem(), &t, dev.config(), &what);
            assert_eq!(cache.frontier_len(), frontier, "{what}");
        }
    }

    #[test]
    fn rebuild_equals_the_reference_walk_after_splits_and_merges() {
        let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|i| (2 * i, 2 * i + 1)).collect();
        let mut t = EireneTree::new(&pairs, EireneOptions::test_small());
        let mut cache = PivotCache::default();
        let height = t.handle().height(t.device().mem());
        // Split-heavy: every odd key in, then merge-heavy: nearly all out.
        let inserts = (0..6000u32).map(|i| Request::upsert(2 * i + 1, i, i as u64));
        t.run_batch(&Batch::new(inserts.collect()));
        assert!(
            t.handle().height(t.device().mem()) > height,
            "splits grew the tree"
        );
        let mem = t.device().mem();
        assert_rebuild_equals_reference(&mut cache, mem, t.handle(), t.device().config(), "splits");
        let deletes = (0..11_900u32).map(|k| Request::delete(k, k as u64));
        t.run_batch(&Batch::new(deletes.collect()));
        let mem = t.device().mem();
        assert!(t.handle().height(mem) <= height, "merges shrank the tree");
        assert_rebuild_equals_reference(&mut cache, mem, t.handle(), t.device().config(), "merges");
    }
}
