//! Shared infrastructure for all concurrent trees: the batch-execution
//! trait, device construction, and device-side node loads.

use eirene_btree::build::{arena_budget, bulk_build, TreeHandle};
use eirene_btree::node::{meta_is_locked, ParsedNode, OFF_META, OFF_VERSION};
use eirene_sim::{Addr, Device, DeviceConfig, KernelStats, WarpCtx};
use eirene_workloads::{Batch, Response};

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
/// 32 per warp in order.
#[inline]
pub fn warp_span(n: usize, wid: usize, warp_size: usize) -> std::ops::Range<usize> {
    let lo = wid * warp_size;
    let hi = ((wid + 1) * warp_size).min(n);
    lo..hi
}

/// Number of warps needed for `n` requests.
#[inline]
pub fn warps_for(n: usize, warp_size: usize) -> usize {
    n.div_ceil(warp_size)
}

/// Control-flow cost of searching within one loaded node (predicate
/// evaluation across lanes, ballot, result select, loop bookkeeping —
/// what Nsight counts as dozens of SASS control instructions per node at
/// warp level, scaled to our per-warp-op accounting).
pub const NODE_SEARCH_CONTROL: u64 = 12;
/// Control-flow cost of one leaf-chain hop decision.
pub const HOP_CONTROL: u64 = 4;

/// Charges the device cost of fetching one request from the batch array
/// and writing its result back (coalesced across the warp in the real
/// system; identical for every tree, so it cancels in comparisons but
/// keeps absolute per-request instruction counts honest).
#[inline]
pub fn charge_request_io(ctx: &mut WarpCtx<'_>) {
    ctx.charge_request_io();
}

/// Seqlock-style consistent node load into `node`, used by the Lock
/// GB-tree: loads the block, then re-reads META and VERSION; if the node
/// was locked or its version moved during the read, the load retries
/// (`stats.version_conflicts` counts the retries). A plain, unsynchronized
/// load is [`ParsedNode::load`] itself.
pub fn seqlock_load(ctx: &mut WarpCtx<'_>, addr: Addr, node: &mut ParsedNode) {
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
pub struct ResponseBuf {
    data: std::cell::UnsafeCell<Vec<Response>>,
}

// SAFETY: every index is written by at most one thread (the warp owning
// that request), and reads happen only after the launch completes.
unsafe impl Sync for ResponseBuf {}

impl ResponseBuf {
    pub fn new(n: usize) -> Self {
        ResponseBuf {
            data: std::cell::UnsafeCell::new(vec![Response::Done; n]),
        }
    }

    /// Stores the response for request `idx`. Must be called at most once
    /// per index across all warps.
    #[allow(clippy::mut_from_ref)]
    pub fn set(&self, idx: usize, resp: Response) {
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

    pub fn into_vec(self) -> Vec<Response> {
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
        seqlock_load(&mut ctx, root, &mut snap);
        assert!(snap.count() > 0);
        assert_eq!(ctx.stats.version_conflicts, 0);
    }
}
