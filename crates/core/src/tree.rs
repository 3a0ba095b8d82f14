//! Public API: the Eirene concurrent GPU B+tree.

use crate::exec::execute;
use crate::pivot::PivotCache;
use crate::plan::build_plan;
use eirene_baselines::common::{BatchRun, ConcurrentTree, TreeBase};
use eirene_btree::build::TreeHandle;
use eirene_sim::Phase;
use eirene_sim::{Device, DeviceConfig};
use eirene_stm::Stm;
use eirene_workloads::Batch;

/// Configuration of an [`EireneTree`].
#[derive(Clone, Debug)]
pub struct EireneOptions {
    /// Device geometry and latency model.
    pub device: DeviceConfig,
    /// Locality-aware warp reorganization (§5). Disabling it yields the
    /// paper's "+ Combining" ablation configuration (Fig. 11).
    pub locality: bool,
    /// Optimistic retries before the inner traversal falls back to full
    /// STM protection (Alg. 1 THRESHOLD).
    pub retry_threshold: u32,
    /// Arena headroom in nodes for splits across the tree's lifetime.
    pub headroom_nodes: usize,
    /// Target number of iteration warps per kernel; request groups are
    /// spread contiguously over this many warps (0 = one per resident
    /// warp). Smaller values mean more RGs per iteration warp — more
    /// locality reuse, less parallelism — the trade-off §5 discusses.
    pub target_warps: usize,
    /// Coalesced run dispatch through the snapshot pivot cache (leaf-run
    /// groups, one descent per run). Off = per-request execution, the
    /// comparison baseline of `tests/coalesce_floor.rs`, `plan_equiv.rs`
    /// and `fuzz --coalesce`.
    pub coalesce: bool,
}

impl Default for EireneOptions {
    fn default() -> Self {
        EireneOptions {
            device: DeviceConfig::default(),
            locality: true,
            retry_threshold: 3,
            headroom_nodes: 1 << 16,
            target_warps: 0,
            coalesce: true,
        }
    }
}

impl EireneOptions {
    /// Small-device options for tests.
    pub fn test_small() -> Self {
        EireneOptions {
            device: DeviceConfig::test_small(),
            headroom_nodes: 1 << 14,
            ..Default::default()
        }
    }
}

/// The Eirene concurrent GPU B+tree: combining-based synchronization,
/// query/update kernel partition with optimistic STM, and locality-aware
/// warp reorganization, processing batches of timestamped requests with
/// linearizable results.
///
/// ```
/// use eirene_core::{EireneOptions, EireneTree};
/// use eirene_workloads::{Batch, Request, Response};
/// use eirene_baselines::common::ConcurrentTree;
///
/// // Bulk-load the even keys 2..=200 with value key+1.
/// let pairs: Vec<(u64, u64)> = (1..=100u64).map(|i| (2 * i, 2 * i + 1)).collect();
/// let mut tree = EireneTree::new(&pairs, EireneOptions::test_small());
///
/// // A concurrent batch: the query (timestamp 2) must observe the upsert
/// // (timestamp 1) on the same key — linearizability in timestamp order.
/// let batch = Batch::new(vec![
///     Request::upsert(10, 777, 1),
///     Request::query(10, 2),
/// ]);
/// let run = tree.run_batch(&batch);
/// assert_eq!(run.responses[1], Response::Value(Some(777)));
/// ```
pub struct EireneTree {
    base: TreeBase,
    stm: Stm,
    opts: EireneOptions,
    /// Snapshot pivot cache, rebuilt lazily at batch boundaries and
    /// cleared (its buffers kept for the next rebuild) when an epoch that
    /// bore or retired an inner node invalidates it.
    pivot: PivotCache,
}

impl EireneTree {
    /// Builds the tree from strictly-ascending `(key, value)` pairs.
    pub fn new(pairs: &[(u64, u64)], opts: EireneOptions) -> Self {
        let stripes = (pairs.len() * 4)
            .next_power_of_two()
            .clamp(1 << 12, 1 << 22);
        let base = TreeBase::build(
            pairs,
            opts.device.clone(),
            opts.headroom_nodes,
            stripes + 64,
        );
        let stm = Stm::new(base.device.mem(), stripes);
        EireneTree {
            base,
            stm,
            opts,
            pivot: PivotCache::default(),
        }
    }

    /// The configured options.
    pub fn options(&self) -> &EireneOptions {
        &self.opts
    }

    /// Builds the combining plan for a batch without executing it
    /// (exposed for inspection, tests and benchmarks).
    pub fn plan(&self, batch: &Batch) -> crate::plan::CombinePlan {
        build_plan(batch, self.base.device.config())
    }

    /// Executes a batch with an already-built [`CombinePlan`](crate::plan::CombinePlan).
    ///
    /// [`build_plan`](crate::plan::build_plan) needs only the batch and the
    /// device configuration — not the tree — so a caller can combine batch
    /// N+1 on another host thread while batch N executes on the device (the
    /// paper's pipelined-epoch model, used by `eirene-serve`). The plan
    /// must have been built for this batch and this tree's device config.
    pub fn run_planned(&mut self, batch: &Batch, plan: &crate::plan::CombinePlan) -> BatchRun {
        // Lazily (re)build the snapshot pivot cache at the batch boundary
        // — the quiescent point where the snapshot is safe to take. A
        // cache from an earlier batch survives as long as no inner node
        // was born or retired since; leaf splits and merges keep it.
        let (mem, handle) = (self.base.device.mem(), &self.base.handle);
        let rebuild_cost = (self.opts.coalesce && !self.pivot.is_valid(mem, handle))
            .then(|| self.pivot.rebuild(mem, handle, self.base.device.config()));
        let mut run = execute(
            &self.base.device,
            handle,
            &self.stm,
            &self.opts,
            batch,
            plan,
            self.opts.coalesce.then_some(&self.pivot),
        );
        if let Some(cost) = rebuild_cost {
            let cfg = self.base.device.config();
            let mut build_stats =
                cost.into_phased_kernel_stats("eirene-pivot-build", cfg, Phase::RunDispatch);
            build_stats.totals.pivot_cache_rebuilds = 1;
            run.stats.merge(&build_stats);
        }
        // An epoch that bore or retired an inner node moved the tree's
        // inner-structure generation: drop the snapshot before the epoch
        // advance below recycles retired inner nodes its frontier may
        // still reference. (Leaves are referenced only by fence key.)
        if !self.pivot.is_valid(mem, handle) {
            self.pivot.clear();
        }
        // The batch boundary is a quiescent point: kernel launches are
        // synchronous, and nothing outside the launch holds node
        // addresses (pending serve tickets carry only keys). Advancing
        // the reclamation epoch here lets nodes retired by this batch's
        // merges and aborted splits be recycled by the next batch.
        mem.advance_epoch();
        run
    }
}

impl ConcurrentTree for EireneTree {
    fn run_batch(&mut self, batch: &Batch) -> BatchRun {
        let plan = build_plan(batch, self.base.device.config());
        self.run_planned(batch, &plan)
    }

    fn device(&self) -> &Device {
        &self.base.device
    }

    fn handle(&self) -> &TreeHandle {
        &self.base.handle
    }

    fn name(&self) -> &'static str {
        "Eirene"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_btree::refops;
    use eirene_btree::validate::validate;
    use eirene_workloads::{
        Oracle, Request, Response, SequentialOracle, WorkloadGen, WorkloadSpec,
    };

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
    }

    #[test]
    fn pure_queries_return_correct_values() {
        let mut t = EireneTree::new(&pairs(3000), EireneOptions::test_small());
        let batch = Batch::new(
            (0..300u32)
                .map(|i| Request::query(i * 13 % 6000, i as u64))
                .collect(),
        );
        let run = t.run_batch(&batch);
        for (i, r) in run.responses.iter().enumerate() {
            let k = (i as u32) * 13 % 6000;
            let expect = ((2..=6000).contains(&k) && k.is_multiple_of(2)).then_some(k + 1);
            assert_eq!(*r, Response::Value(expect), "key {k}");
        }
    }

    #[test]
    fn result_calc_is_costed_on_the_launching_device() {
        // A latency model other than the A100 default: the `ResultCalc`
        // row must follow it (it was once costed on `DeviceConfig::default()`).
        // Four queries per key, so each of the 1 024 runs' issued queries
        // resolves three run-mates: distinct keys would leave nothing to
        // resolve, since an issued request's own answer is request I/O.
        let slow = DeviceConfig {
            mem_latency: 3 * DeviceConfig::default().mem_latency,
            control_latency: 2 * DeviceConfig::default().control_latency,
            ..DeviceConfig::test_small()
        };
        let batch = Batch::new(
            (0..4096u32)
                .map(|i| Request::query(i / 4, i as u64))
                .collect(),
        );
        let result_calc = |device: DeviceConfig| {
            let opts = EireneOptions {
                device: device.clone(),
                ..EireneOptions::test_small()
            };
            let run = EireneTree::new(&pairs(3000), opts).run_batch(&batch);
            let row = *run.stats.totals.phases.row(Phase::ResultCalc);
            // Four control per mate, and one warp-wide load and store per
            // chunk: a warp's runs here all have adjacent answer slots, so
            // its mates share chunks of 32, far fewer than one per run.
            let chunks = row.mem_transactions;
            assert!(8 * chunks <= 1024, "{chunks} chunks for 1 024 runs");
            assert_eq!((row.mem_insts, row.control_insts), (2 * chunks, 12 * 1024));
            let control = 12 * 1024 * device.control_latency;
            assert_eq!(row.cycles, chunks * device.mem_latency + control);
            row
        };
        let (base, scaled) = (result_calc(DeviceConfig::test_small()), result_calc(slow));
        assert!(scaled.cycles > 2 * base.cycles, "{scaled:?} vs {base:?}");
    }

    #[test]
    fn same_key_requests_resolve_in_timestamp_order() {
        let mut t = EireneTree::new(&pairs(100), EireneOptions::test_small());
        let batch = Batch::new(vec![
            Request::query(10, 0), // sees pre-batch value 11
            Request::upsert(10, 100, 1),
            Request::query(10, 2), // sees 100
            Request::delete(10, 3),
            Request::query(10, 4), // sees nothing
            Request::upsert(10, 200, 5),
            Request::query(10, 6), // sees 200
        ]);
        let run = t.run_batch(&batch);
        assert_eq!(run.responses[0], Response::Value(Some(11)));
        assert_eq!(run.responses[2], Response::Value(Some(100)));
        assert_eq!(run.responses[4], Response::Value(None));
        assert_eq!(run.responses[6], Response::Value(Some(200)));
        // Final state: last state op wins.
        assert_eq!(refops::get(t.device().mem(), t.handle(), 10), Some(200));
    }

    #[test]
    fn batch_matches_oracle_mixed_workload() {
        let spec = WorkloadSpec {
            tree_size: 1 << 10,
            batch_size: 4096,
            mix: eirene_workloads::Mix {
                upsert: 0.2,
                delete: 0.1,
                range: 0.05,
                range_len: 4,
            },
            distribution: eirene_workloads::Distribution::Uniform,
            seed: 7,
        };
        let init = spec.initial_pairs();
        let pairs64: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
        let mut t = EireneTree::new(&pairs64, EireneOptions::test_small());
        let mut oracle = SequentialOracle::load(&init);
        let mut gen = WorkloadGen::new(spec);
        for _ in 0..2 {
            let batch = gen.next_batch();
            let got = t.run_batch(&batch).responses;
            let want = oracle.run_batch(&batch);
            for i in 0..batch.len() {
                assert_eq!(got[i], want[i], "request {i}: {:?}", batch.requests[i]);
            }
            validate(t.device().mem(), t.handle()).unwrap();
            // Tree contents must equal the oracle map.
            let tree_contents: Vec<(u64, u64)> = refops::contents(t.device().mem(), t.handle());
            let oracle_contents: Vec<(u64, u64)> = oracle
                .contents()
                .iter()
                .map(|(&k, &v)| (k as u64, v as u64))
                .collect();
            assert_eq!(tree_contents, oracle_contents);
        }
    }

    #[test]
    fn range_query_sees_update_before_its_timestamp() {
        // The Fig. 4 scenario: without artificial queries the range would
        // return the wrong value.
        let mut t = EireneTree::new(&pairs(100), EireneOptions::test_small());
        let batch = Batch::new(vec![
            Request::upsert(4, 0xB, 1),
            Request::range(3, 3, 2), // covers keys 3,4,5 at ts 2
            Request::upsert(4, 0xE, 10),
        ]);
        let run = t.run_batch(&batch);
        // Key 4 at ts 2: must see 0xB (not the final 0xE, not the old 5).
        assert_eq!(
            run.responses[1],
            Response::Range(vec![None, Some(0xB), None])
        );
        // Final state is the last update.
        assert_eq!(refops::get(t.device().mem(), t.handle(), 4), Some(0xE));
    }

    #[test]
    fn locality_off_still_correct() {
        let mut opts = EireneOptions::test_small();
        opts.locality = false;
        let mut t = EireneTree::new(&pairs(2000), EireneOptions::test_small());
        let mut t2 = EireneTree::new(&pairs(2000), opts);
        let batch = Batch::new(
            (0..512u32)
                .map(|i| {
                    if i % 4 == 0 {
                        Request::upsert(i * 7 % 4000 + 1, i, i as u64)
                    } else {
                        Request::query(i * 7 % 4000 + 1, i as u64)
                    }
                })
                .collect(),
        );
        let r1 = t.run_batch(&batch);
        let r2 = t2.run_batch(&batch);
        assert_eq!(r1.responses, r2.responses);
    }

    #[test]
    fn combining_issues_at_most_one_request_per_key() {
        let mut t = EireneTree::new(&pairs(100), EireneOptions::test_small());
        // 1000 requests on 5 keys.
        let batch = Batch::new(
            (0..1000u64)
                .map(|ts| Request::upsert((ts % 5) as u32 * 2 + 2, ts as u32, ts))
                .collect(),
        );
        let plan = t.plan(&batch);
        assert_eq!(plan.issued.len(), 5);
        let run = t.run_batch(&batch);
        // Update kernel processed only the issued requests.
        assert_eq!(run.stats.totals.requests, 5);
        for k in 0..5u64 {
            let key = k * 2 + 2;
            let expect = 995 + k; // last ts for this key
            assert_eq!(
                refops::get(t.device().mem(), t.handle(), key),
                Some(expect),
                "key {key}"
            );
        }
    }

    #[test]
    fn run_planned_matches_run_batch() {
        let batch = Batch::new(
            (0..400u32)
                .map(|i| match i % 5 {
                    0 => Request::upsert(i * 3 % 1000, i, i as u64),
                    1 => Request::delete(i * 7 % 1000, i as u64),
                    2 => Request::range(i * 11 % 1000, 4, i as u64),
                    _ => Request::query(i * 13 % 1000, i as u64),
                })
                .collect(),
        );
        let mut a = EireneTree::new(&pairs(400), EireneOptions::test_small());
        let mut b = EireneTree::new(&pairs(400), EireneOptions::test_small());
        // Plan built off-tree (only the device config matters), as the
        // serving layer's pipelined combiner does.
        let plan = b.plan(&batch);
        let ra = a.run_batch(&batch);
        let rb = b.run_planned(&batch, &plan);
        assert_eq!(ra.responses, rb.responses);
        assert_eq!(
            refops::contents(a.device().mem(), a.handle()),
            refops::contents(b.device().mem(), b.handle())
        );
    }

    #[test]
    fn heavy_insert_batch_keeps_tree_valid() {
        let mut t = EireneTree::new(&pairs(200), EireneOptions::test_small());
        let batch = Batch::new(
            (0..1000u32)
                .map(|i| Request::upsert(2 * i + 1, i, i as u64))
                .collect(),
        );
        t.run_batch(&batch);
        validate(t.device().mem(), t.handle()).unwrap();
        for i in 0..1000u32 {
            assert_eq!(
                refops::get(t.device().mem(), t.handle(), (2 * i + 1) as u64),
                Some(i as u64)
            );
        }
    }

    #[test]
    fn eirene_uses_fewer_memory_insts_than_stm_tree() {
        use eirene_baselines::StmTree;
        let p = pairs(4000);
        let batch = Batch::new(
            (0..1024u32)
                .map(|i| {
                    let key = (i * 37) % 8000 + 1;
                    if i % 20 == 0 {
                        Request::upsert(key, i, i as u64)
                    } else {
                        Request::query(key, i as u64)
                    }
                })
                .collect(),
        );
        let mut eirene = EireneTree::new(&p, EireneOptions::test_small());
        let er = eirene.run_batch(&batch);
        let mut stm = StmTree::new(&p, DeviceConfig::test_small(), 64);
        let sr = stm.run_batch(&batch);
        // Normalize per *batch* request (Eirene counts issued only in
        // `requests`, so divide totals by the batch size directly).
        let em = er.stats.totals.mem_insts as f64 / batch.len() as f64;
        let sm = sr.stats.totals.mem_insts as f64 / batch.len() as f64;
        assert!(em < sm, "eirene {em} vs stm {sm} memory insts per request");
    }
}
