//! GB-tree **without concurrency control** — the "ideal" profiling floor
//! of Fig. 1.
//!
//! Requests traverse and modify the tree with no synchronization at all.
//! This measures the minimum memory/control instructions a request costs
//! on this substrate; under concurrent updates its *results* are unsound
//! by construction (the paper's first bar exists only as an instruction
//! baseline, and so does this type). Structural damage is bounded because
//! this tree never splits: an insert into a full leaf is dropped, so child
//! pointers stay immutable and traversals always terminate.

use crate::common::{
    charge_request_io, warp_span, warps_for, BatchRun, ConcurrentTree, ResponseBuf, TreeBase,
    HOP_CONTROL, NODE_SEARCH_CONTROL,
};
use eirene_btree::build::TreeHandle;
use eirene_btree::node::{pack_meta, ParsedNode, FANOUT, OFF_KEYS, OFF_META, OFF_VALS};
use eirene_sim::{Addr, Device, DeviceConfig, Phase, WarpCtx};
use eirene_workloads::{range_window, Batch, OpKind, Response};

/// The no-concurrency-control tree.
pub struct NoCcTree {
    base: TreeBase,
}

impl NoCcTree {
    /// Bulk-loads the tree from ascending `(key, value)` pairs.
    pub fn new(pairs: &[(u64, u64)], cfg: DeviceConfig) -> Self {
        NoCcTree {
            base: TreeBase::build(pairs, cfg, 64, 0),
        }
    }
}

/// Descends from the root to the leaf responsible for `key` using plain
/// loads into `node`, hopping right across leaf splits/empties. Returns the
/// leaf address; `node` holds its snapshot.
pub(crate) fn descend_plain(
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
    node: &mut ParsedNode,
) -> Addr {
    let outer = ctx.set_phase(Phase::VerticalTraversal);
    let mut addr = ctx.read(handle.root_word);
    ctx.stats.vertical_traversals += 1;
    node.load(ctx, addr);
    ctx.stats.vertical_steps += 1;
    while !node.is_leaf() {
        ctx.control(NODE_SEARCH_CONTROL);
        let slot = node.child_slot(key);
        addr = node.vals()[slot];
        node.load(ctx, addr);
        ctx.stats.vertical_steps += 1;
    }
    // Right-hop across the leaf chain if the key lies beyond this leaf's
    // high bound (Lehman-Yao).
    ctx.set_phase(Phase::HorizontalTraversal);
    while key >= node.high() && node.next() != 0 {
        ctx.control(HOP_CONTROL);
        addr = node.next();
        node.load(ctx, addr);
        ctx.stats.horizontal_steps += 1;
    }
    ctx.control(1);
    ctx.set_phase(outer);
    addr
}

fn process_one(ctx: &mut WarpCtx<'_>, handle: &TreeHandle, key: u64, op: OpKind) -> Response {
    let leaf = &mut ParsedNode::default();
    match op {
        OpKind::Query => {
            descend_plain(ctx, handle, key, leaf);
            let prev = ctx.set_phase(Phase::LeafOp);
            ctx.control(NODE_SEARCH_CONTROL);
            let resp = Response::Value(leaf.find(key).map(|i| leaf.vals()[i] as u32));
            ctx.set_phase(prev);
            resp
        }
        OpKind::Upsert(v) => {
            let addr = descend_plain(ctx, handle, key, leaf);
            let prev = ctx.set_phase(Phase::LeafOp);
            ctx.control(NODE_SEARCH_CONTROL);
            if let Some(slot) = leaf.find(key) {
                ctx.write(addr + OFF_VALS + slot as u64, v as u64);
            } else if leaf.count() < FANOUT {
                // Unsynchronized sorted insert (racy by design).
                let c = leaf.count();
                let slot = (0..c).take_while(|&i| leaf.keys()[i] < key).count();
                let mut i = c;
                while i > slot {
                    ctx.write(addr + OFF_KEYS + i as u64, leaf.keys()[i - 1]);
                    ctx.write(addr + OFF_VALS + i as u64, leaf.vals()[i - 1]);
                    i -= 1;
                }
                ctx.write(addr + OFF_KEYS + slot as u64, key);
                ctx.write(addr + OFF_VALS + slot as u64, v as u64);
                ctx.write(addr + OFF_META, pack_meta(true, false, c + 1));
                ctx.control(c as u64 + 2);
            }
            // Full leaf: insert dropped (this tree never splits).
            ctx.set_phase(prev);
            Response::Done
        }
        OpKind::Delete => {
            let addr = descend_plain(ctx, handle, key, leaf);
            let prev = ctx.set_phase(Phase::LeafOp);
            ctx.control(NODE_SEARCH_CONTROL);
            if let Some(slot) = leaf.find(key) {
                let c = leaf.count();
                for i in slot..c - 1 {
                    ctx.write(addr + OFF_KEYS + i as u64, leaf.keys()[i + 1]);
                    ctx.write(addr + OFF_VALS + i as u64, leaf.vals()[i + 1]);
                }
                ctx.write(addr + OFF_KEYS + (c - 1) as u64, u64::MAX);
                ctx.write(addr + OFF_META, pack_meta(true, false, c - 1));
                ctx.control(c as u64);
            }
            ctx.set_phase(prev);
            Response::Done
        }
        OpKind::Range { len } => {
            let mut out = vec![None; len as usize];
            let Some((lo, hi)) = range_window(key, len) else {
                return Response::Range(out);
            };
            descend_plain(ctx, handle, lo, leaf);
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
                leaf.load(ctx, leaf.next());
                ctx.stats.horizontal_steps += 1;
                ctx.set_phase(Phase::LeafOp);
            }
            ctx.set_phase(prev);
            Response::Range(out)
        }
    }
}

impl ConcurrentTree for NoCcTree {
    fn run_batch(&mut self, batch: &Batch) -> BatchRun {
        let n = batch.len();
        let ws = self.base.device.config().warp_size;
        let buf = ResponseBuf::new(n);
        let handle = self.base.handle;
        let stats = self
            .base
            .device
            .launch("nocc", warps_for(n, ws), |wid, ctx| {
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
        "GB-tree w/o concurrency control"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_workloads::Request;

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
    }

    #[test]
    fn pure_queries_return_correct_values() {
        let mut t = NoCcTree::new(&pairs(2000), DeviceConfig::test_small());
        let batch = Batch::new(
            (1..=100u32)
                .map(|k| Request::query(2 * k, k as u64))
                .collect(),
        );
        let run = t.run_batch(&batch);
        for (i, r) in run.responses.iter().enumerate() {
            let k = 2 * (i as u32 + 1);
            assert_eq!(*r, Response::Value(Some(k + 1)), "key {k}");
        }
    }

    #[test]
    fn missing_keys_return_none() {
        let mut t = NoCcTree::new(&pairs(100), DeviceConfig::test_small());
        let batch = Batch::new(vec![Request::query(3, 0), Request::query(9999, 1)]);
        let run = t.run_batch(&batch);
        assert_eq!(run.responses[0], Response::Value(None));
        assert_eq!(run.responses[1], Response::Value(None));
    }

    #[test]
    fn sequential_update_then_query_observes_value() {
        let mut t = NoCcTree::new(&pairs(100), DeviceConfig::test_small());
        let b1 = Batch::new(vec![Request::upsert(10, 777, 0)]);
        t.run_batch(&b1);
        let b2 = Batch::new(vec![Request::query(10, 1)]);
        let run = t.run_batch(&b2);
        assert_eq!(run.responses[0], Response::Value(Some(777)));
    }

    #[test]
    fn range_query_collects_in_order() {
        let mut t = NoCcTree::new(&pairs(100), DeviceConfig::test_small());
        let batch = Batch::new(vec![Request::range(10, 4, 0)]);
        let run = t.run_batch(&batch);
        assert_eq!(
            run.responses[0],
            Response::Range(vec![Some(11), None, Some(13), None])
        );
    }

    #[test]
    fn stats_count_requests_and_steps() {
        let mut t = NoCcTree::new(&pairs(5000), DeviceConfig::test_small());
        let batch = Batch::new(
            (0..64u32)
                .map(|i| Request::query(2 * i + 2, i as u64))
                .collect(),
        );
        let run = t.run_batch(&batch);
        assert_eq!(run.stats.totals.requests, 64);
        let height = t.handle().height(t.device().mem());
        let steps = run.stats.steps_per_request();
        assert!(steps >= height as f64, "steps {steps} < height {height}");
        assert!(run.stats.mem_insts_per_request() > 0.0);
        assert_eq!(run.stats.totals.conflicts(), 0, "no-CC never conflicts");
    }
}
