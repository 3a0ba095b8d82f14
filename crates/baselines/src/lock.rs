//! **Lock GB-tree** — reproduction of the fine-grained-lock GPU B-tree of
//! Awad et al. (PPoPP'19) on this substrate.
//!
//! * Warp-cooperative processing: a warp serves its requests one at a
//!   time, loading whole nodes with coalesced block reads.
//! * Queries are lock-free seqlock reads: each node load is validated
//!   against the node's lock bit and version, retrying on interference.
//! * Updates descend with **lock coupling** and **preemptive splits**: a
//!   full node encountered on the way down is split while its parent is
//!   still locked, so a leaf always has room when the insert arrives and
//!   split propagation never needs to walk back up.
//! * Splits only ever move keys right and every level keeps right-sibling
//!   links, so readers holding a stale root or a stale child simply hop
//!   right (B-link style) and remain correct.
//!
//! Like the original, this tree is not linearizable: requests racing on
//! the same key resolve in lock-acquisition order, not timestamp order.

use crate::common::{
    charge_request_io, seqlock_load, warp_span, warps_for, BatchRun, ConcurrentTree, ResponseBuf,
    TreeBase, HOP_CONTROL, NODE_SEARCH_CONTROL,
};
use eirene_btree::build::TreeHandle;
use eirene_btree::node::{
    pack_meta, ParsedNode, FANOUT, META_LOCK, NODE_WORDS, OFF_HIGH, OFF_KEYS, OFF_LOW, OFF_META,
    OFF_NEXT, OFF_RF, OFF_VALS, OFF_VERSION,
};
use eirene_sim::{Addr, Device, DeviceConfig, Phase, TraceEventKind, WarpCtx};
use eirene_workloads::{range_window, Batch, OpKind, Response};

/// The lock-based tree.
pub struct LockTree {
    base: TreeBase,
}

impl LockTree {
    /// Bulk-loads the tree, reserving split headroom proportional to the
    /// expected insert volume (`headroom_nodes`).
    pub fn new(pairs: &[(u64, u64)], cfg: DeviceConfig, headroom_nodes: usize) -> Self {
        LockTree {
            base: TreeBase::build(pairs, cfg, headroom_nodes, 0),
        }
    }
}

/// Spins until the node latch is acquired. Counts failed attempts as lock
/// conflicts (the Fig. 12 conflict class for lock-based designs).
fn lock(ctx: &mut WarpCtx<'_>, addr: Addr) {
    let prev = ctx.set_phase(Phase::LockAcquire);
    loop {
        ctx.control(2);
        let old = ctx.atomic_or(addr + OFF_META, META_LOCK);
        if old & META_LOCK == 0 {
            ctx.set_phase(prev);
            return;
        }
        ctx.lock_conflict();
        ctx.charge_cycles(30 + (ctx.warp_id() as u64 % 7) * 10);
    }
}

/// Releases the latch; if the holder modified the node, the version is
/// bumped first so seqlock readers retry.
fn unlock(ctx: &mut WarpCtx<'_>, addr: Addr, modified: bool) {
    let prev = ctx.set_phase(Phase::LockAcquire);
    ctx.control(1);
    if modified {
        ctx.atomic_add(addr + OFF_VERSION, 1);
    }
    ctx.atomic_and(addr + OFF_META, !META_LOCK);
    ctx.set_phase(prev);
}

/// Splits a full, locked node: the upper half moves to a freshly allocated
/// right sibling that is *born locked* (invisible writers cannot race on
/// it before the caller decides which side to keep). Returns the sibling's
/// address and fence key. The caller must unlock both sides.
fn split_locked(ctx: &mut WarpCtx<'_>, addr: Addr, node: &ParsedNode) -> (Addr, u64) {
    debug_assert_eq!(node.count(), FANOUT);
    let prev = ctx.set_phase(Phase::StructureMod);
    let half = FANOUT / 2;
    // Device-side allocation: one atomic bump on the allocator.
    let raddr = ctx.raw_mem().alloc_aligned(NODE_WORDS, 16);
    ctx.charge_alloc();
    // Compose the sibling locally, then publish with one block write.
    let mut w = [0u64; NODE_WORDS];
    w[OFF_META as usize] = pack_meta(node.is_leaf(), true, FANOUT - half);
    w[OFF_VERSION as usize] = 0;
    w[OFF_NEXT as usize] = node.next();
    w[OFF_RF as usize] = node.rf();
    w[OFF_HIGH as usize] = node.high();
    w[OFF_LOW as usize] = node.keys()[half];
    for i in 0..FANOUT {
        w[OFF_KEYS as usize + i] = u64::MAX;
    }
    for i in half..FANOUT {
        w[OFF_KEYS as usize + (i - half)] = node.keys()[i];
        w[OFF_VALS as usize + (i - half)] = node.vals()[i];
    }
    ctx.write_block(raddr, &w);
    // Shrink the left half in place (lock bit stays set); the fence
    // becomes the left half's Lehman-Yao high key.
    for i in half..FANOUT {
        ctx.write(addr + OFF_KEYS + i as u64, u64::MAX);
    }
    ctx.write(addr + OFF_HIGH, node.keys()[half]);
    ctx.write(addr + OFF_NEXT, raddr);
    ctx.write(addr + OFF_META, pack_meta(node.is_leaf(), true, half));
    ctx.control(4);
    ctx.emit(TraceEventKind::NodeSplit, addr);
    ctx.set_phase(prev);
    (raddr, node.keys()[half])
}

/// Inserts a fence entry into a locked, non-full inner node at the slot
/// after `after`.
fn insert_fence(
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    node: &ParsedNode,
    after: usize,
    fence: u64,
    child: Addr,
) {
    let prev = ctx.set_phase(Phase::StructureMod);
    let c = node.count();
    debug_assert!(c < FANOUT);
    let slot = after + 1;
    let mut i = c;
    while i > slot {
        ctx.write(addr + OFF_KEYS + i as u64, node.keys()[i - 1]);
        ctx.write(addr + OFF_VALS + i as u64, node.vals()[i - 1]);
        i -= 1;
    }
    ctx.write(addr + OFF_KEYS + slot as u64, fence);
    ctx.write(addr + OFF_VALS + slot as u64, child);
    ctx.write(addr + OFF_META, pack_meta(false, true, c + 1));
    ctx.control((c - slot) as u64 + 2);
    ctx.set_phase(prev);
}

/// Splits a full root under its lock: builds the sibling and a new root,
/// installs the root atomically, bumps the height. The caller still holds
/// (and must release) the old root's latch.
fn split_root(ctx: &mut WarpCtx<'_>, handle: &TreeHandle, root_addr: Addr, node: &ParsedNode) {
    let prev = ctx.set_phase(Phase::StructureMod);
    let (raddr, rfence) = split_locked(ctx, root_addr, node);
    let new_root = ctx.raw_mem().alloc_aligned(NODE_WORDS, 16);
    ctx.charge_alloc();
    let mut w = [0u64; NODE_WORDS];
    w[OFF_META as usize] = pack_meta(false, false, 2);
    w[OFF_RF as usize] = u64::MAX;
    w[OFF_HIGH as usize] = u64::MAX;
    for i in 0..FANOUT {
        w[OFF_KEYS as usize + i] = u64::MAX;
    }
    w[OFF_KEYS as usize] = node.keys()[0];
    w[OFF_VALS as usize] = root_addr;
    w[OFF_KEYS as usize + 1] = rfence;
    w[OFF_VALS as usize + 1] = raddr;
    ctx.write_block(new_root, &w);
    // Only the root-latch holder installs a new root, so the CAS succeeds.
    let ok = ctx
        .atomic_cas(handle.root_word, root_addr, new_root)
        .is_ok();
    debug_assert!(ok, "root CAS must succeed under the root latch");
    ctx.atomic_add(handle.height_word, 1);
    unlock(ctx, raddr, false); // newborn sibling
    ctx.set_phase(prev);
}

/// Lock-coupled descent to the leaf owning `key`. Returns the *locked*
/// leaf and its snapshot, which lives in one of `bufs` (a parent and its
/// child are held at once). With `may_insert`, full nodes on the path are
/// split preemptively so the returned leaf always has room.
fn locked_descend<'b>(
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
    may_insert: bool,
    bufs: &'b mut [ParsedNode; 2],
) -> (Addr, &'b ParsedNode) {
    let outer = ctx.set_phase(Phase::VerticalTraversal);
    let [mut node, mut child] = bufs.each_mut();
    'retry: loop {
        let root_addr = ctx.read(handle.root_word);
        lock(ctx, root_addr);
        if ctx.read(handle.root_word) != root_addr {
            // Root changed while we were locking a stale node.
            unlock(ctx, root_addr, false);
            ctx.lock_conflict();
            continue 'retry;
        }
        ctx.stats.vertical_traversals += 1;
        let mut cur = root_addr;
        node.load(ctx, cur);
        ctx.stats.vertical_steps += 1;
        if may_insert && node.count() == FANOUT {
            split_root(ctx, handle, cur, node);
            unlock(ctx, cur, true);
            continue 'retry;
        }
        loop {
            if node.is_leaf() {
                // Right-hop with lock coupling across concurrent splits
                // (key >= high means the key moved right, Lehman-Yao).
                let vprev = ctx.set_phase(Phase::HorizontalTraversal);
                while key >= node.high() && node.next() != 0 {
                    ctx.control(HOP_CONTROL);
                    let nxt_addr = node.next();
                    lock(ctx, nxt_addr);
                    node.load(ctx, nxt_addr);
                    ctx.stats.horizontal_steps += 1;
                    unlock(ctx, cur, false);
                    cur = nxt_addr;
                }
                ctx.set_phase(vprev);
                ctx.control(1);
                if may_insert && node.count() == FANOUT {
                    // A full leaf reached by hopping: its fence was being
                    // published by a concurrent split when we read the
                    // path. Drop the lock and retry from the root, which
                    // will reach the leaf with its parent held and split
                    // it preemptively.
                    unlock(ctx, cur, false);
                    ctx.lock_conflict();
                    ctx.charge_cycles(50);
                    continue 'retry;
                }
                ctx.set_phase(outer);
                return (cur, node);
            }
            let slot = node.child_slot(key);
            ctx.control(NODE_SEARCH_CONTROL);
            let mut child_addr = node.vals()[slot];
            lock(ctx, child_addr);
            child.load(ctx, child_addr);
            ctx.stats.vertical_steps += 1;
            let mut parent_modified = false;
            if may_insert && child.count() == FANOUT {
                // Preemptive split: parent (cur) is locked and non-full.
                let child_low = child.low();
                let (raddr, rfence) = split_locked(ctx, child_addr, child);
                if rfence < node.keys()[slot] {
                    // Clamp case (leftmost spine): lower the stale fence
                    // to the child's true bound before inserting.
                    ctx.write(cur + OFF_KEYS + slot as u64, child_low);
                }
                insert_fence(ctx, cur, node, slot, rfence, raddr);
                parent_modified = true;
                if key >= rfence {
                    unlock(ctx, child_addr, true);
                    child_addr = raddr;
                } else {
                    unlock(ctx, raddr, false);
                }
                child.load(ctx, child_addr);
            }
            unlock(ctx, cur, parent_modified);
            cur = child_addr;
            std::mem::swap(&mut node, &mut child);
        }
    }
}

/// Seqlock descent for queries, with right-hops, into `node`.
fn descend_seq(ctx: &mut WarpCtx<'_>, handle: &TreeHandle, key: u64, node: &mut ParsedNode) {
    let outer = ctx.set_phase(Phase::VerticalTraversal);
    let root = ctx.read(handle.root_word);
    ctx.stats.vertical_traversals += 1;
    seqlock_load(ctx, root, node);
    ctx.stats.vertical_steps += 1;
    while !node.is_leaf() {
        ctx.control(NODE_SEARCH_CONTROL);
        seqlock_load(ctx, node.vals()[node.child_slot(key)], node);
        ctx.stats.vertical_steps += 1;
    }
    ctx.set_phase(Phase::HorizontalTraversal);
    while key >= node.high() && node.next() != 0 {
        ctx.control(HOP_CONTROL);
        seqlock_load(ctx, node.next(), node);
        ctx.stats.horizontal_steps += 1;
    }
    ctx.control(1);
    ctx.set_phase(outer);
}

fn process_one(ctx: &mut WarpCtx<'_>, handle: &TreeHandle, key: u64, op: OpKind) -> Response {
    let leaf = &mut ParsedNode::default();
    match op {
        OpKind::Query => {
            descend_seq(ctx, handle, key, leaf);
            let prev = ctx.set_phase(Phase::LeafOp);
            ctx.control(NODE_SEARCH_CONTROL);
            let resp = Response::Value(leaf.find(key).map(|i| leaf.vals()[i] as u32));
            ctx.set_phase(prev);
            resp
        }
        OpKind::Upsert(v) => {
            locked_upsert(ctx, handle, key, v as u64);
            Response::Done
        }
        OpKind::Delete => {
            locked_delete(ctx, handle, key);
            Response::Done
        }
        OpKind::Range { len } => {
            let mut out = vec![None; len as usize];
            let Some((lo, hi)) = range_window(key, len) else {
                return Response::Range(out);
            };
            descend_seq(ctx, handle, lo, leaf);
            let prev = ctx.set_phase(Phase::LeafOp);
            loop {
                for i in 0..leaf.count() {
                    let k = leaf.keys()[i];
                    if k >= lo && k <= hi {
                        out[(k - lo) as usize] = Some(leaf.vals()[i] as u32);
                    }
                }
                ctx.control(leaf.count() as u64 + 2);
                if hi < leaf.high() || leaf.next() == 0 {
                    break;
                }
                ctx.set_phase(Phase::HorizontalTraversal);
                seqlock_load(ctx, leaf.next(), leaf);
                ctx.stats.horizontal_steps += 1;
                ctx.set_phase(Phase::LeafOp);
            }
            ctx.set_phase(prev);
            Response::Range(out)
        }
    }
}

/// Latch-protected upsert usable as a standalone update primitive: the
/// paper notes (§7) that Eirene's update kernel can use fine-grained
/// locks instead of STM; Eirene's `UpdateProtection::FineGrainedLocks`
/// mode is built on this. Returns the previous value, or `u64::MAX` when
/// the key was absent.
pub fn locked_upsert(ctx: &mut WarpCtx<'_>, handle: &TreeHandle, key: u64, val: u64) -> u64 {
    let mut bufs = Default::default();
    let (addr, leaf) = locked_descend(ctx, handle, key, true, &mut bufs);
    let prev = ctx.set_phase(Phase::LeafOp);
    ctx.control(NODE_SEARCH_CONTROL);
    let old = if let Some(slot) = leaf.find(key) {
        let old = leaf.vals()[slot];
        ctx.write(addr + OFF_VALS + slot as u64, val);
        old
    } else {
        let c = leaf.count();
        debug_assert!(c < FANOUT, "preemptive split guarantees room");
        let slot = (0..c).take_while(|&i| leaf.keys()[i] < key).count();
        let mut i = c;
        while i > slot {
            ctx.write(addr + OFF_KEYS + i as u64, leaf.keys()[i - 1]);
            ctx.write(addr + OFF_VALS + i as u64, leaf.vals()[i - 1]);
            i -= 1;
        }
        ctx.write(addr + OFF_KEYS + slot as u64, key);
        ctx.write(addr + OFF_VALS + slot as u64, val);
        ctx.write(addr + OFF_META, pack_meta(true, true, c + 1));
        ctx.control((c - slot) as u64 + 2);
        u64::MAX
    };
    unlock(ctx, addr, true);
    ctx.set_phase(prev);
    old
}

/// Latch-protected delete; see [`locked_upsert`]. Returns the previous
/// value, or `u64::MAX` when the key was absent.
pub fn locked_delete(ctx: &mut WarpCtx<'_>, handle: &TreeHandle, key: u64) -> u64 {
    let mut bufs = Default::default();
    let (addr, leaf) = locked_descend(ctx, handle, key, false, &mut bufs);
    let prev = ctx.set_phase(Phase::LeafOp);
    ctx.control(NODE_SEARCH_CONTROL);
    let old = match leaf.find(key) {
        None => {
            unlock(ctx, addr, false);
            u64::MAX
        }
        Some(slot) => {
            let old = leaf.vals()[slot];
            let c = leaf.count();
            for i in slot..c - 1 {
                ctx.write(addr + OFF_KEYS + i as u64, leaf.keys()[i + 1]);
                ctx.write(addr + OFF_VALS + i as u64, leaf.vals()[i + 1]);
            }
            ctx.write(addr + OFF_KEYS + (c - 1) as u64, u64::MAX);
            ctx.write(addr + OFF_META, pack_meta(true, true, c - 1));
            ctx.control((c - slot) as u64 + 2);
            unlock(ctx, addr, true);
            old
        }
    };
    ctx.set_phase(prev);
    old
}

impl ConcurrentTree for LockTree {
    fn run_batch(&mut self, batch: &Batch) -> BatchRun {
        let n = batch.len();
        let ws = self.base.device.config().warp_size;
        let buf = ResponseBuf::new(n);
        let handle = self.base.handle;
        let stats = self
            .base
            .device
            .launch("lock-gbtree", warps_for(n, ws), |wid, ctx| {
                for i in warp_span(n, wid, ws) {
                    let req = batch.requests[i];
                    ctx.begin_request();
                    charge_request_io(ctx);
                    let resp = process_one(ctx, &handle, req.key as u64, req.op);
                    buf.set(i, resp);
                    ctx.end_request();
                }
            });
        BatchRun {
            responses: buf.into_vec(),
            stats,
        }
    }

    fn device(&self) -> &Device {
        &self.base.device
    }

    fn handle(&self) -> &TreeHandle {
        &self.base.handle
    }

    fn name(&self) -> &'static str {
        "Lock GB-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_btree::refops;
    use eirene_btree::validate::validate;
    use eirene_workloads::Request;
    use rand::{Rng, SeedableRng};

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
    }

    #[test]
    fn queries_match_reference() {
        let mut t = LockTree::new(&pairs(3000), DeviceConfig::test_small(), 64);
        let batch = Batch::new(
            (0..200u32)
                .map(|i| Request::query(i * 31 % 6000, i as u64))
                .collect(),
        );
        let run = t.run_batch(&batch);
        for (i, r) in run.responses.iter().enumerate() {
            let k = (i as u32) * 31 % 6000;
            let expect = refops::get(t.device().mem(), t.handle(), k as u64).map(|v| v as u32);
            assert_eq!(*r, Response::Value(expect), "key {k}");
        }
    }

    #[test]
    fn concurrent_disjoint_upserts_all_land() {
        let mut t = LockTree::new(&pairs(500), DeviceConfig::test_small(), 4096);
        // 512 distinct odd keys: all inserts, heavy splitting.
        let batch = Batch::new(
            (0..512u32)
                .map(|i| Request::upsert(2 * i + 1, i, i as u64))
                .collect(),
        );
        t.run_batch(&batch);
        validate(t.device().mem(), t.handle()).unwrap();
        for i in 0..512u32 {
            assert_eq!(
                refops::get(t.device().mem(), t.handle(), (2 * i + 1) as u64),
                Some(i as u64),
                "key {}",
                2 * i + 1
            );
        }
    }

    #[test]
    fn concurrent_disjoint_deletes_all_land() {
        let mut t = LockTree::new(&pairs(1000), DeviceConfig::test_small(), 64);
        let batch = Batch::new(
            (1..=300u32)
                .map(|i| Request::delete(2 * i, i as u64))
                .collect(),
        );
        t.run_batch(&batch);
        validate(t.device().mem(), t.handle()).unwrap();
        for i in 1..=300u32 {
            assert_eq!(
                refops::get(t.device().mem(), t.handle(), (2 * i) as u64),
                None
            );
        }
        assert_eq!(
            refops::get(t.device().mem(), t.handle(), 602).unwrap(),
            603,
            "untouched keys survive"
        );
    }

    #[test]
    fn mixed_batch_keeps_tree_valid() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut t = LockTree::new(&pairs(2000), DeviceConfig::test_small(), 8192);
        for _ in 0..3 {
            let reqs: Vec<Request> = (0..2048u64)
                .map(|ts| {
                    let key = rng.gen_range(1..=4000u32);
                    match rng.gen_range(0..10) {
                        0..=6 => Request::query(key, ts),
                        7..=8 => Request::upsert(key, rng.gen(), ts),
                        _ => Request::delete(key, ts),
                    }
                })
                .collect();
            t.run_batch(&Batch::new(reqs));
            validate(t.device().mem(), t.handle()).unwrap();
        }
    }

    #[test]
    fn conflicts_appear_under_contention() {
        let mut t = LockTree::new(&pairs(64), DeviceConfig::test_small(), 4096);
        // Everyone hammers the same few keys with updates.
        let batch = Batch::new(
            (0..1024u64)
                .map(|ts| Request::upsert(2 + (ts % 4) as u32 * 2, ts as u32, ts))
                .collect(),
        );
        let run = t.run_batch(&batch);
        assert!(
            run.stats.totals.conflicts() > 0,
            "contended updates must produce lock conflicts"
        );
    }

    #[test]
    fn range_queries_match_reference() {
        let mut t = LockTree::new(&pairs(1000), DeviceConfig::test_small(), 64);
        let batch = Batch::new(vec![Request::range(100, 8, 0), Request::range(1999, 8, 1)]);
        let run = t.run_batch(&batch);
        let r0 = refops::range(t.device().mem(), t.handle(), 100, 8)
            .into_iter()
            .map(|o| o.map(|v| v as u32))
            .collect::<Vec<_>>();
        assert_eq!(run.responses[0], Response::Range(r0));
    }
}
