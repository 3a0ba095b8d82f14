//! Shared infrastructure for all concurrent trees: the batch-execution
//! trait, device construction, device-side node loads, and the code every
//! tree runs the same way — the thread-per-request batch loop, the plain
//! descent, the leaf lookup and the leaf-chain range scan — so their
//! charges are one definition, not copies that agree.

use eirene_btree::build::{arena_budget, bulk_build, TreeHandle};
use eirene_btree::node::{
    meta_is_locked, pack_meta, ParsedNode, OFF_KEYS, OFF_META, OFF_VALS, OFF_VERSION,
};
use eirene_sim::{Addr, Device, DeviceConfig, KernelStats, Phase, WarpCtx};
use eirene_workloads::{Batch, Request, Response};

/// Result of running one batch: positionally-aligned responses plus the
/// merged execution statistics (all kernels, and for Eirene the combining
/// primitives too).
#[derive(Clone, Debug)]
pub struct BatchRun {
    pub responses: Vec<Response>,
    pub stats: KernelStats,
}

impl BatchRun {
    /// Throughput in requests per second for this batch under the device's
    /// clock.
    pub fn throughput(&self, device: &Device, requests: usize) -> f64 {
        device.throughput(requests, self.stats.makespan_cycles)
    }
}

/// A concurrent B+tree that processes batches of requests on the device.
pub trait ConcurrentTree {
    /// Executes a batch concurrently and returns responses + statistics.
    fn run_batch(&mut self, batch: &Batch) -> BatchRun;
    /// The device the tree lives on.
    fn device(&self) -> &Device;
    /// Handle to the tree structure in device memory.
    fn handle(&self) -> &TreeHandle;
    /// Short display name ("STM GB-tree", ...).
    fn name(&self) -> &'static str;
}

/// Device + tree, as built by every implementation.
pub struct TreeBase {
    pub device: Device,
    pub handle: TreeHandle,
}

impl TreeBase {
    /// Builds a device sized for `pairs` plus `headroom_nodes` of split
    /// headroom (plus `extra_words` for auxiliary tables such as STM
    /// ownership records), bulk-loads the tree, and returns the base.
    pub fn build(
        pairs: &[(u64, u64)],
        cfg: DeviceConfig,
        headroom_nodes: usize,
        extra_words: usize,
    ) -> TreeBase {
        let words = arena_budget(pairs.len(), headroom_nodes) + extra_words;
        let device = Device::new(words, cfg);
        let handle = bulk_build(device.mem(), pairs);
        TreeBase { device, handle }
    }
}

/// Request indices processed by warp `wid` when `n` requests are assigned
/// `warp_size` per warp in order.
#[inline]
fn warp_span(n: usize, wid: usize, warp_size: usize) -> std::ops::Range<usize> {
    let lo = wid * warp_size;
    let hi = ((wid + 1) * warp_size).min(n);
    lo..hi
}

/// Number of warps needed for `n` requests.
#[inline]
fn warps_for(n: usize, warp_size: usize) -> usize {
    n.div_ceil(warp_size)
}

/// Control-flow cost of searching within one loaded node (predicate
/// evaluation across lanes, ballot, result select, loop bookkeeping —
/// what Nsight counts as dozens of SASS control instructions per node at
/// warp level, scaled to our per-warp-op accounting).
pub const NODE_SEARCH_CONTROL: u64 = 12;
/// Control-flow cost of one leaf-chain hop decision.
pub const HOP_CONTROL: u64 = 4;

/// Runs `batch` on `base` thread-per-request as kernel `name`: warp `w`
/// serves requests `w * warp_size ..` one at a time, each between
/// `begin_request` and `end_request` and charged its request I/O, and
/// `process` answers it with the worker slot's `S` lent.
pub(crate) fn run_per_request<S: Default + Send>(
    base: &TreeBase,
    name: &str,
    batch: &Batch,
    process: impl Fn(&mut WarpCtx<'_>, &mut S, &TreeHandle, Request) -> Response + Sync,
) -> BatchRun {
    let TreeBase { device, handle } = base;
    let (n, ws) = (batch.len(), device.config().warp_size);
    let buf = ResponseBuf::new(n);
    let stats = device.launch_with(name, warps_for(n, ws), false, |wid, ctx, slot: &mut S| {
        for i in warp_span(n, wid, ws) {
            ctx.begin_request();
            ctx.charge_request_io();
            let resp = process(ctx, slot, handle, batch.requests[i]);
            buf.set(i, resp);
            ctx.end_request();
        }
    });
    BatchRun {
        responses: buf.into_vec(),
        stats,
    }
}

/// Descends from the root to the leaf responsible for `key`, loading each
/// node into `node` with `load` ([`ParsedNode::load`] or
/// [`seqlock_load`]), and hops right across leaf splits
/// (Lehman-Yao). Returns the leaf address; `node` holds its snapshot.
pub(crate) fn descend(
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
    node: &mut ParsedNode,
    load: impl Fn(&mut ParsedNode, &mut WarpCtx<'_>, Addr),
) -> Addr {
    let outer = ctx.set_phase(Phase::VerticalTraversal);
    let mut addr = ctx.read(handle.root_word);
    ctx.stats.vertical_traversals += 1;
    load(node, ctx, addr);
    ctx.stats.vertical_steps += 1;
    while !node.is_leaf() {
        ctx.control(NODE_SEARCH_CONTROL);
        addr = node.vals()[node.child_slot(key)];
        load(node, ctx, addr);
        ctx.stats.vertical_steps += 1;
    }
    ctx.set_phase(Phase::HorizontalTraversal);
    while key >= node.high() && node.next() != 0 {
        ctx.control(HOP_CONTROL);
        addr = node.next();
        load(node, ctx, addr);
        ctx.stats.horizontal_steps += 1;
    }
    ctx.control(1);
    ctx.set_phase(outer);
    addr
}

/// The leaf operation of a point lookup: searches the loaded `leaf` for
/// `key` and returns its value.
#[inline]
pub fn find_in_leaf(ctx: &mut WarpCtx<'_>, leaf: &ParsedNode, key: u64) -> Option<u64> {
    let prev = ctx.set_phase(Phase::LeafOp);
    ctx.control(NODE_SEARCH_CONTROL);
    let value = leaf.find(key).map(|i| leaf.vals()[i]);
    ctx.set_phase(prev);
    value
}

/// The leaf operation of a range query over `lo..=hi`: scans the leaf
/// chain from `first`, the loaded leaf owning `lo`, and hands each key in
/// the window to `hit` as `(key - lo, value)`. Later leaves load with
/// `load` into `walk`, a buffer the caller lends, so `first` is read in
/// place.
pub fn scan_leaves(
    ctx: &mut WarpCtx<'_>,
    first: &ParsedNode,
    walk: &mut ParsedNode,
    (lo, hi): (u64, u64),
    load: impl Fn(&mut ParsedNode, &mut WarpCtx<'_>, Addr),
    mut hit: impl FnMut(usize, u64),
) {
    let prev = ctx.set_phase(Phase::LeafOp);
    let mut leaf = first;
    loop {
        for i in 0..leaf.count() {
            let k = leaf.keys()[i];
            if k >= lo && k <= hi {
                hit((k - lo) as usize, leaf.vals()[i]);
            }
        }
        ctx.control(leaf.count() as u64 + 2);
        if hi < leaf.high() || leaf.next() == 0 {
            break;
        }
        ctx.set_phase(Phase::HorizontalTraversal);
        let next = leaf.next();
        load(walk, ctx, next);
        leaf = walk;
        ctx.stats.horizontal_steps += 1;
        ctx.set_phase(Phase::LeafOp);
    }
    ctx.set_phase(prev);
}

/// Rewrites the loaded `node` at `addr` in place with `entry` inserted at
/// `slot`, or with the entry at `slot` removed (`None`): the entries after
/// `slot` shift one place, then META takes the new count and the latch bit
/// `latched`. Charges `(count - slot) + 2` control: one per entry shifted
/// or past the end, two for the slot and META.
pub fn shift_entries(
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    node: &ParsedNode,
    slot: usize,
    entry: Option<(u64, u64)>,
    latched: bool,
) {
    let (c, keys, vals) = (node.count(), node.keys(), node.vals());
    let count = match entry {
        Some((key, val)) => {
            for i in (slot + 1..=c).rev() {
                ctx.write(addr + OFF_KEYS + i as u64, keys[i - 1]);
                ctx.write(addr + OFF_VALS + i as u64, vals[i - 1]);
            }
            ctx.write(addr + OFF_KEYS + slot as u64, key);
            ctx.write(addr + OFF_VALS + slot as u64, val);
            c + 1
        }
        None => {
            for i in slot..c - 1 {
                ctx.write(addr + OFF_KEYS + i as u64, keys[i + 1]);
                ctx.write(addr + OFF_VALS + i as u64, vals[i + 1]);
            }
            ctx.write(addr + OFF_KEYS + (c - 1) as u64, u64::MAX);
            c - 1
        }
    };
    ctx.write(addr + OFF_META, pack_meta(node.is_leaf(), latched, count));
    ctx.control((c - slot) as u64 + 2);
}

/// Seqlock-style consistent node load into `node`, used by the Lock
/// GB-tree: loads the block, then re-reads META and VERSION; if the node
/// was locked or its version moved during the read, the load retries
/// (`stats.version_conflicts` counts the retries). A plain, unsynchronized
/// load is [`ParsedNode::load`] itself, whose argument order this shares,
/// so either is the node loader of the plain descent and [`scan_leaves`].
pub fn seqlock_load(node: &mut ParsedNode, ctx: &mut WarpCtx<'_>, addr: Addr) {
    loop {
        node.load(ctx, addr);
        let meta2 = ctx.read(addr + OFF_META);
        let ver2 = ctx.read(addr + OFF_VERSION);
        ctx.control(2);
        if !meta_is_locked(node.meta()) && !meta_is_locked(meta2) && node.version() == ver2 {
            return;
        }
        ctx.version_conflict();
        ctx.charge_cycles(20);
    }
}

/// Shared response buffer written concurrently by warps.
///
/// Each request index is owned by exactly one warp (the one its request is
/// assigned to), so disjoint writes need no synchronization — the same
/// discipline as a device-side results array.
struct ResponseBuf {
    data: std::cell::UnsafeCell<Vec<Response>>,
}

// SAFETY: every index is written by at most one thread (the warp owning
// that request), and reads happen only after the launch completes.
unsafe impl Sync for ResponseBuf {}

impl ResponseBuf {
    fn new(n: usize) -> Self {
        ResponseBuf {
            data: std::cell::UnsafeCell::new(vec![Response::Done; n]),
        }
    }

    /// Stores the response for request `idx`. Must be called at most once
    /// per index across all warps.
    #[allow(clippy::mut_from_ref)]
    fn set(&self, idx: usize, resp: Response) {
        // SAFETY: disjoint-index discipline documented on the type; the
        // write goes through a raw element pointer so no &mut to the whole
        // vector is ever formed.
        unsafe {
            let vec = self.data.get();
            assert!(idx < (*vec).len(), "response index out of bounds");
            let base = (*vec).as_mut_ptr();
            *base.add(idx) = resp;
        }
    }

    fn into_vec(self) -> Vec<Response> {
        self.data.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_sim::WarpStats;

    #[test]
    fn response_buf_roundtrip() {
        let buf = ResponseBuf::new(3);
        buf.set(1, Response::Value(Some(9)));
        let v = buf.into_vec();
        assert_eq!(v[0], Response::Done);
        assert_eq!(v[1], Response::Value(Some(9)));
    }

    #[test]
    fn warp_span_covers_all_requests_disjointly() {
        let n = 100;
        let mut covered = vec![false; n];
        for wid in 0..warps_for(n, 32) {
            for i in warp_span(n, wid, 32) {
                assert!(!covered[i], "request {i} assigned twice");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn warps_for_rounds_up() {
        assert_eq!(warps_for(0, 32), 0);
        assert_eq!(warps_for(1, 32), 1);
        assert_eq!(warps_for(32, 32), 1);
        assert_eq!(warps_for(33, 32), 2);
    }

    #[test]
    fn tree_base_builds_and_validates() {
        let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|i| (2 * i, 0)).collect();
        let base = TreeBase::build(&pairs, DeviceConfig::test_small(), 128, 0);
        eirene_btree::validate::validate(base.device.mem(), &base.handle).unwrap();
    }

    #[test]
    fn seqlock_load_returns_consistent_snapshot() {
        let pairs: Vec<(u64, u64)> = (1..=100u64).map(|i| (2 * i, 2 * i + 1)).collect();
        let base = TreeBase::build(&pairs, DeviceConfig::test_small(), 16, 0);
        let root = base.handle.root(base.device.mem());
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(base.device.mem(), base.device.config(), 0, &mut stats);
        let mut snap = ParsedNode::default();
        seqlock_load(&mut snap, &mut ctx, root);
        assert!(snap.count() > 0);
        assert_eq!(ctx.stats.version_conflicts, 0);
    }
}
