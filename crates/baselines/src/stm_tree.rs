//! **STM GB-tree** — reproduction of the STM-protected GPU B+tree built on
//! the lightweight GPU STM of Holey & Zhai (ICPP'14), as used for the
//! paper's STM baseline (§8.1).
//!
//! One request = one transaction covering the *entire* traversal and the
//! leaf operation (queries included). Every node word the request touches
//! goes through the STM, which is exactly why this design pays ~3× the
//! memory instructions and ~4.5× the control instructions of the
//! unprotected tree (Fig. 1): each transactional access also reads an
//! ownership record, and conflict handling adds branches and full
//! re-executions.
//!
//! Threads process requests independently (thread-per-request, the
//! original design), so a warp serializes its 32 divergent transactions —
//! the SIMT penalty the paper describes.

use crate::common::{run_per_request, BatchRun, ConcurrentTree, TreeBase};
use eirene_btree::access::TxAccess;
use eirene_btree::build::TreeHandle;
use eirene_btree::node::{meta_count, OFF_KEYS, OFF_META, OFF_NEXT, OFF_VALS};
use eirene_btree::ops::{
    delete_rebalancing, descend, query_at_leaf, upsert_at_leaf, LeafUpsert, NO_VALUE,
};
use eirene_sim::{Device, DeviceConfig, Phase, WarpCtx};
use eirene_stm::{Stm, Tx, TxResult, TxScratch};
use eirene_workloads::{range_window, Batch, OpKind, Request, Response};

/// The STM-based tree.
pub struct StmTree {
    base: TreeBase,
    stm: Stm,
}

impl StmTree {
    /// Bulk-loads the tree and allocates the STM ownership table.
    pub fn new(pairs: &[(u64, u64)], cfg: DeviceConfig, headroom_nodes: usize) -> Self {
        let stripes = (pairs.len() * 4)
            .next_power_of_two()
            .clamp(1 << 12, 1 << 22);
        let base = TreeBase::build(pairs, cfg, headroom_nodes, stripes + 64);
        let stm = Stm::new(base.device.mem(), stripes);
        StmTree { base, stm }
    }

    /// The STM instance (exposed for tests).
    pub fn stm(&self) -> &Stm {
        &self.stm
    }
}

fn tx_process(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    req: Request,
) -> TxResult<Response> {
    let key = req.key as u64;
    match req.op {
        OpKind::Query => {
            let a = &mut TxAccess::new(tx, ctx);
            let (addr, count) = descend(a, handle, key, false)?;
            let v = query_at_leaf(a, addr, count, key)?;
            Ok(Response::Value((v != NO_VALUE).then_some(v as u32)))
        }
        OpKind::Upsert(v) => {
            let a = &mut TxAccess::new(tx, ctx);
            let (addr, count) = descend(a, handle, key, true)?;
            match upsert_at_leaf(a, addr, count, key, v as u64)? {
                LeafUpsert::Done(_) => Ok(Response::Done),
                LeafUpsert::Full => unreachable!("insert-capable descent guarantees room"),
            }
        }
        OpKind::Delete => {
            // The merging descent keeps every node above the occupancy
            // floor, so deletes shrink the tree instead of stranding
            // near-empty nodes.
            delete_rebalancing(&mut TxAccess::new(tx, ctx), handle, key)?;
            Ok(Response::Done)
        }
        OpKind::Range { len } => {
            let mut out = vec![None; len as usize];
            let Some((lo, hi)) = range_window(key, len) else {
                return Ok(Response::Range(out));
            };
            let (mut addr, mut count) = descend(&mut TxAccess::new(tx, ctx), handle, lo, false)?;
            let prev = ctx.set_phase(Phase::LeafOp);
            let mut scan = |tx: &mut Tx<'_>, ctx: &mut WarpCtx<'_>, out: &mut Vec<Option<u32>>| {
                loop {
                    let mut maxk = 0;
                    for i in 0..count {
                        let k = tx.read(ctx, addr + OFF_KEYS + i as u64)?;
                        ctx.control(1);
                        maxk = k;
                        if k >= lo && k <= hi {
                            let v = tx.read(ctx, addr + OFF_VALS + i as u64)?;
                            out[(k - lo) as usize] = Some(v as u32);
                        }
                    }
                    if count > 0 && maxk >= hi {
                        break;
                    }
                    ctx.set_phase(Phase::HorizontalTraversal);
                    let next = tx.read(ctx, addr + OFF_NEXT)?;
                    if next == 0 {
                        ctx.set_phase(Phase::LeafOp);
                        break;
                    }
                    ctx.stats.horizontal_steps += 1;
                    addr = next;
                    let meta = tx.read(ctx, addr + OFF_META)?;
                    count = meta_count(meta);
                    ctx.set_phase(Phase::LeafOp);
                }
                Ok(())
            };
            let r = scan(tx, ctx, &mut out);
            ctx.set_phase(prev);
            r?;
            Ok(Response::Range(out))
        }
    }
}

impl ConcurrentTree for StmTree {
    fn run_batch(&mut self, batch: &Batch) -> BatchRun {
        // One set of transaction logs per worker slot, not per warp.
        let process = |ctx: &mut WarpCtx<'_>, scratch: &mut TxScratch, handle: &_, req| {
            let resp = self.stm.run(ctx, scratch, usize::MAX >> 1, |tx, ctx| {
                tx_process(tx, ctx, handle, req)
            });
            resp.expect("unbounded retries cannot exhaust")
        };
        run_per_request(&self.base, "stm-gbtree", batch, process)
    }

    fn device(&self) -> &Device {
        &self.base.device
    }

    fn handle(&self) -> &TreeHandle {
        &self.base.handle
    }

    fn name(&self) -> &'static str {
        "STM GB-tree"
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
        let mut t = StmTree::new(&pairs(2000), DeviceConfig::test_small(), 64);
        let batch = Batch::new(
            (0..128u32)
                .map(|i| Request::query(i * 37 % 4000, i as u64))
                .collect(),
        );
        let run = t.run_batch(&batch);
        for (i, r) in run.responses.iter().enumerate() {
            let k = (i as u32) * 37 % 4000;
            let expect = refops::get(t.device().mem(), t.handle(), k as u64).map(|v| v as u32);
            assert_eq!(*r, Response::Value(expect), "key {k}");
        }
    }

    #[test]
    fn concurrent_inserts_with_splits_keep_tree_valid() {
        let mut t = StmTree::new(&pairs(200), DeviceConfig::test_small(), 8192);
        let batch = Batch::new(
            (0..256u32)
                .map(|i| Request::upsert(2 * i + 1, i, i as u64))
                .collect(),
        );
        t.run_batch(&batch);
        validate(t.device().mem(), t.handle()).unwrap();
        for i in 0..256u32 {
            assert_eq!(
                refops::get(t.device().mem(), t.handle(), (2 * i + 1) as u64),
                Some(i as u64)
            );
        }
    }

    #[test]
    fn deletes_apply_atomically() {
        let mut t = StmTree::new(&pairs(500), DeviceConfig::test_small(), 64);
        let batch = Batch::new(
            (1..=100u32)
                .map(|i| Request::delete(2 * i, i as u64))
                .collect(),
        );
        t.run_batch(&batch);
        validate(t.device().mem(), t.handle()).unwrap();
        for i in 1..=100u32 {
            assert_eq!(
                refops::get(t.device().mem(), t.handle(), (2 * i) as u64),
                None
            );
        }
    }

    #[test]
    fn contended_updates_produce_aborts() {
        let mut t = StmTree::new(&pairs(64), DeviceConfig::test_small(), 4096);
        let batch = Batch::new(
            (0..512u64)
                .map(|ts| Request::upsert(2, ts as u32, ts))
                .collect(),
        );
        let run = t.run_batch(&batch);
        assert!(
            run.stats.totals.stm_aborts > 0,
            "same-key updates must abort"
        );
    }

    #[test]
    fn stm_costs_more_memory_insts_than_nocc() {
        // The Fig. 1 relationship on identical workloads.
        let p = pairs(4000);
        let batch = Batch::new(
            (0..256u32)
                .map(|i| Request::query(2 * (i % 2000) + 2, i as u64))
                .collect(),
        );
        let mut stm_t = StmTree::new(&p, DeviceConfig::test_small(), 64);
        let stm_run = stm_t.run_batch(&batch);
        let mut nocc_t = crate::nocc::NoCcTree::new(&p, DeviceConfig::test_small());
        let nocc_run = nocc_t.run_batch(&batch);
        assert!(
            stm_run.stats.mem_insts_per_request() > 1.5 * nocc_run.stats.mem_insts_per_request(),
            "stm {} vs nocc {}",
            stm_run.stats.mem_insts_per_request(),
            nocc_run.stats.mem_insts_per_request()
        );
    }

    #[test]
    fn contended_rightmost_splits_stay_valid() {
        // Regression test for the dirty-read TOCTOU in Tx::read: keys
        // beyond the loaded range pile onto the rightmost leaf, forcing
        // many conflicting split+insert transactions on the same node.
        for seed in [1u64, 2, 3] {
            let mut t = StmTree::new(&pairs(500), DeviceConfig::test_small(), 1 << 13);
            let batch = Batch::new(
                (0..800u32)
                    .map(|i| Request::upsert(i * 5 + 1 + seed as u32, i, i as u64))
                    .collect(),
            );
            t.run_batch(&batch);
            validate(t.device().mem(), t.handle()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mixed_random_batches_stay_valid() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut t = StmTree::new(&pairs(1000), DeviceConfig::test_small(), 8192);
        for _ in 0..2 {
            let reqs: Vec<Request> = (0..1024u64)
                .map(|ts| {
                    let key = rng.gen_range(1..=2000u32);
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
}
