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
    descend, find_in_leaf, run_per_request, scan_leaves, BatchRun, ConcurrentTree, TreeBase,
    NODE_SEARCH_CONTROL,
};
use eirene_btree::build::TreeHandle;
use eirene_btree::node::{pack_meta, ParsedNode, FANOUT, OFF_KEYS, OFF_META, OFF_VALS};
use eirene_sim::{Device, DeviceConfig, Phase, WarpCtx};
use eirene_workloads::{range_window, Batch, OpKind, Request, Response};

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

/// Answers one request; the tree keeps no per-slot state.
fn process_one(ctx: &mut WarpCtx<'_>, _: &mut (), handle: &TreeHandle, req: Request) -> Response {
    let (key, leaf) = (req.key as u64, &mut ParsedNode::default());
    match req.op {
        OpKind::Query => {
            descend(ctx, handle, key, leaf, ParsedNode::load);
            Response::Value(find_in_leaf(ctx, leaf, key).map(|v| v as u32))
        }
        OpKind::Upsert(v) => {
            let addr = descend(ctx, handle, key, leaf, ParsedNode::load);
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
            let addr = descend(ctx, handle, key, leaf, ParsedNode::load);
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
            let Some(window) = range_window(key, len) else {
                return Response::Range(out);
            };
            descend(ctx, handle, window.0, leaf, ParsedNode::load);
            let walk = &mut ParsedNode::default();
            scan_leaves(ctx, leaf, walk, window, ParsedNode::load, |i, v| {
                out[i] = Some(v as u32)
            });
            Response::Range(out)
        }
    }
}

impl ConcurrentTree for NoCcTree {
    fn run_batch(&mut self, batch: &Batch) -> BatchRun {
        run_per_request(&self.base, "nocc", batch, process_one)
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
