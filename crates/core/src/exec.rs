//! Kernel execution and result calculation (Alg. 1, §4.2).
//!
//! After combining, the issued requests are partitioned by type:
//!
//! * the **query kernel** processes issued point queries and range queries
//!   with *no synchronization at all* — safe because issued requests have
//!   no key conflicts and queries do not modify the structure;
//! * the **update kernel** processes issued upserts/deletes with the
//!   optimistic scheme: unprotected inner-node traversal (locality-aware,
//!   §5), an STM-protected leaf region guarded by the leaf-version
//!   validation of Eunomia, and a full STM-protected descent as the
//!   fallback once the retry threshold is exceeded.
//!
//! Both kernels record the *old value* of each issued key; the
//! **result-calculation** phase then resolves every unissued request from
//! its run's dependence chain and patches range-query slots from
//! artificial queries — all without touching the tree.

use crate::locality::WarpLocator;
use crate::pivot::PivotCache;
use crate::plan::{
    partition_leaf_runs, Artificial, CombinePlan, IssuedKind, Point, QueryItem, UpdateItem,
};
use eirene_baselines::common::{charge_request_io, BatchRun};
use eirene_btree::access::{NodeAccess, TxAccess};
use eirene_btree::build::TreeHandle;
use eirene_btree::node::{
    meta_count, meta_is_dead, meta_is_leaf, ParsedNode, MIN_OCCUPANCY, OFF_LOW, OFF_META,
    OFF_VERSION,
};
use eirene_btree::ops::{
    delete_at_leaf, delete_rebalancing, descend, hop_right, upsert_at_leaf, LeafDelete, LeafUpsert,
    NO_VALUE,
};
use eirene_primitives::PrimCost;
use eirene_sim::{Device, DeviceConfig, KernelStats, Phase, TraceEventKind};
use eirene_stm::{Abort, Stm, TxScratch};
use eirene_workloads::{Batch, OpKind, Response};
use std::sync::atomic::{AtomicU64, Ordering};

/// How the update kernel protects leaf-region operations. The paper's
/// design uses the optimistic STM scheme of Alg. 1; §7 notes that
/// "synchronization schemes other than STM can be used in the
/// implementation, such as fine-grained locks" — that alternative is
/// provided for the ablation benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UpdateProtection {
    /// Alg. 1: unprotected inner traversal, STM-protected leaf region with
    /// version validation, full-STM fallback past the retry threshold.
    #[default]
    OptimisticStm,
    /// Latch-coupled descent with preemptive splits (the Lock GB-tree's
    /// update machinery) for every issued update. No optimism, and no
    /// locality reuse on the update path.
    FineGrainedLocks,
}

/// Tunables of the execution engine.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Enable locality-aware warp reorganization (§5). Off = the paper's
    /// "+ Combining" ablation configuration (Fig. 11).
    pub locality: bool,
    /// Optimistic retries before the inner traversal falls back to full
    /// STM protection (Alg. 1 line 28 THRESHOLD).
    pub retry_threshold: u32,
    /// Requests per request group (warp size in the paper).
    pub rg_size: usize,
    /// Leaf-region synchronization of the update kernel.
    pub protection: UpdateProtection,
    /// Target number of iteration warps per kernel; request groups are
    /// spread contiguously over this many warps (0 = one per resident
    /// warp). Smaller values mean more RGs per iteration warp — more
    /// locality reuse, less parallelism — the trade-off §5 discusses.
    pub target_warps: usize,
    /// Coalesced run dispatch: group work items into leaf runs (one
    /// descent per run, in-leaf application for run-mates) and start
    /// descents from the snapshot pivot cache. Off = the per-request
    /// baseline, one full descent per issued request.
    pub coalesce: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            locality: true,
            retry_threshold: 3,
            rg_size: 32,
            protection: UpdateProtection::OptimisticStm,
            target_warps: 0,
            coalesce: true,
        }
    }
}

/// Executes a combined batch on the device. `stm` protects the update
/// kernel's leaf region. `pivot` is the snapshot pivot cache for the
/// coalesced dispatch path (`None` = per-request descents from the root).
pub fn execute(
    device: &Device,
    handle: &TreeHandle,
    stm: &Stm,
    opts: &ExecOptions,
    batch: &Batch,
    plan: &CombinePlan,
    pivot: Option<&PivotCache>,
) -> BatchRun {
    let pivot = pivot.filter(|_| opts.coalesce);
    let n = batch.len();
    // Written only by result calculation, after both kernels.
    let mut responses = vec![Response::Done; n];
    // Old value per run, retrieved by the run's issued request.
    let old_vals: Vec<AtomicU64> = (0..plan.runs.len())
        .map(|_| AtomicU64::new(NO_VALUE))
        .collect();

    // Range results are accumulated here (written by the query kernel,
    // patched by result calculation) and installed into `responses` last.
    let range_results = RangeSlots::new(plan.ranges.iter().map(|r| r.len as usize));

    // ------------------------- Query kernel ----------------------------
    // Both kernels' work lists (Alg. 1 l.3) come laid out in the plan.
    let query_stats = launch_grouped(
        device,
        opts,
        &plan.query_items,
        pivot,
        "eirene-query",
        // No synchronization because nothing is written: results cannot
        // depend on warp interleaving, so the launch need not pay for any.
        true,
        // A range's later leaves load into the worker slot's buffer: the
        // locator's keeps the leaf it lent, where the next RG's walk starts.
        |ctx, loc, walk: &mut ParsedNode, item| match *item {
            QueryItem::Query { run, key } => {
                let key = key as u64;
                ctx.begin_request();
                charge_request_io(ctx);
                let run_len = plan.runs[run as usize].len;
                if run_len > 1 {
                    ctx.emit(TraceEventKind::CombineHit, run_len as u64);
                }
                let (_, leaf) = loc.locate(ctx, handle, key);
                let prev = ctx.set_phase(Phase::LeafOp);
                ctx.control(12);
                let v = leaf.find(key).map_or(NO_VALUE, |i| leaf.vals()[i]);
                ctx.set_phase(prev);
                old_vals[run as usize].store(v, Ordering::Relaxed);
                ctx.end_request();
            }
            QueryItem::Range { range_idx, .. } => {
                let (lo, hi) = item.window();
                ctx.begin_request();
                charge_request_io(ctx);
                let (_, mut leaf) = loc.locate(ctx, handle, lo);
                let slots = range_results.of(range_idx);
                let prev = ctx.set_phase(Phase::LeafOp);
                loop {
                    for i in 0..leaf.count() {
                        let k = leaf.keys()[i];
                        if k >= lo && k <= hi {
                            slots[(k - lo) as usize].store(leaf.vals()[i], Ordering::Relaxed);
                        }
                    }
                    ctx.control(leaf.count() as u64 + 2);
                    if hi < leaf.high() || leaf.next() == 0 {
                        break;
                    }
                    ctx.set_phase(Phase::HorizontalTraversal);
                    walk.load(ctx, leaf.next());
                    leaf = walk;
                    ctx.stats.horizontal_steps += 1;
                    ctx.set_phase(Phase::LeafOp);
                }
                ctx.set_phase(prev);
                ctx.end_request();
            }
        },
    );

    // ------------------------- Update kernel ---------------------------
    let update_stats = launch_grouped(
        device,
        opts,
        &plan.update_items,
        pivot,
        "eirene-update",
        false,
        |ctx, loc, scratch: &mut TxScratch, item| {
            let UpdateItem { run, key, kind } = *item;
            let key = key as u64;
            ctx.begin_request();
            charge_request_io(ctx);
            let run_len = plan.runs[run as usize].len;
            if run_len > 1 {
                ctx.emit(TraceEventKind::CombineHit, run_len as u64);
            }
            let old = match opts.protection {
                UpdateProtection::OptimisticStm => update_one(
                    ctx,
                    handle,
                    stm,
                    opts,
                    WarpState { loc, scratch },
                    key,
                    kind,
                ),
                UpdateProtection::FineGrainedLocks => match kind {
                    IssuedKind::Upsert(v) => {
                        eirene_baselines::lock::locked_upsert(ctx, handle, key, v as u64)
                    }
                    IssuedKind::Delete => eirene_baselines::lock::locked_delete(ctx, handle, key),
                    IssuedKind::Query => unreachable!("queries run in the query kernel"),
                },
            };
            old_vals[run as usize].store(old, Ordering::Relaxed);
            ctx.end_request();
        },
    );

    // ----------------------- Result calculation ------------------------
    let cfg = device.config();
    let resolve_cost = resolve(cfg, plan, &old_vals, &mut responses, &range_results);

    // Install range responses.
    for (idx, r) in plan.ranges.iter().enumerate() {
        let values = range_results.of(idx as u32).iter().map(|slot| {
            let v = slot.load(Ordering::Relaxed);
            (v != NO_VALUE).then_some(v as u32)
        });
        responses[r.orig_idx as usize] = Response::Range(values.collect());
    }

    // ----------------------------- Stats --------------------------------
    let mut stats = plan
        .cost
        .into_phased_kernel_stats("eirene-combine", cfg, Phase::Combine);
    stats.merge(&query_stats);
    stats.merge(&update_stats);
    stats.merge(&resolve_cost.into_phased_kernel_stats("eirene-resolve", cfg, Phase::ResultCalc));
    if let Some(cache) = pivot {
        // Staging the frontier fences into shared memory, once per kernel
        // that dispatched through the cache.
        let mut staging = cache.staging_cost(cfg);
        staging.merge(cache.staging_cost(cfg));
        stats.merge(&staging.into_phased_kernel_stats("eirene-dispatch", cfg, Phase::RunDispatch));
    }

    BatchRun { responses, stats }
}

/// Executes one issued update with the optimistic protocol of Alg. 1.
fn update_one(
    ctx: &mut eirene_sim::WarpCtx<'_>,
    handle: &TreeHandle,
    stm: &Stm,
    opts: &ExecOptions,
    warp: WarpState<'_, '_>,
    key: u64,
    kind: IssuedKind,
) -> u64 {
    let WarpState { loc, scratch } = warp;
    let mut retries = 0u32;
    loop {
        if retries >= opts.retry_threshold {
            // Fallback: the whole traversal under STM protection
            // (Alg. 1 lines 30-34). Unbounded retries: progress is
            // guaranteed because aborting releases ownership.
            loc.invalidate();
            let old = stm
                .run(ctx, scratch, usize::MAX >> 1, |tx, ctx| {
                    let a = &mut TxAccess::new(tx, ctx);
                    match kind {
                        IssuedKind::Upsert(v) => {
                            let (addr, count) = descend(a, handle, key, true)?;
                            match upsert_at_leaf(a, addr, count, key, v as u64)? {
                                LeafUpsert::Done(old) => Ok(old),
                                LeafUpsert::Full => unreachable!("descent guarantees room"),
                            }
                        }
                        IssuedKind::Delete => delete_rebalancing(a, handle, key),
                        IssuedKind::Query => unreachable!("queries run in the query kernel"),
                    }
                })
                .expect("unbounded retries cannot exhaust");
            return old;
        }

        // Optimistic pass: unprotected inner traversal (lines 28-29),
        // leaf-version validation + STM-protected leaf region (37-45).
        let (addr, node) = loc.locate(ctx, handle, key);
        let leafvers = node.version();
        let mut need_smo = false;
        let outer = ctx.set_phase(Phase::LeafOp);
        let attempt = {
            let mut tx = stm.begin(scratch);
            let r = (|| {
                let a = &mut TxAccess::new(&mut tx, ctx);
                let v2 = a.read(addr + OFF_VERSION)?;
                a.control(1);
                if v2 != leafvers {
                    return Ok(None); // stale leaf reference (line 38)
                }
                let meta = a.read(addr + OFF_META)?;
                a.control(1);
                if !meta_is_leaf(meta) || meta_is_dead(meta) {
                    // The unprotected hint was garbage, or the leaf was
                    // merged away and awaits reclamation.
                    return Ok(None);
                }
                let count = meta_count(meta);
                let (laddr, lcount) = hop_right(a, addr, count, key)?;
                // Ownership proof: hop_right established key < high; the
                // low fence closes the other side. A leaf located right of
                // the target (possible only from a torn hint) fails here
                // and retries vertically.
                let low = a.read(laddr + OFF_LOW)?;
                a.control(1);
                if key < low {
                    return Ok(None);
                }
                match kind {
                    IssuedKind::Upsert(v) => {
                        match upsert_at_leaf(a, laddr, lcount, key, v as u64)? {
                            LeafUpsert::Done(old) => Ok(Some(old)),
                            LeafUpsert::Full => {
                                need_smo = true;
                                Err(Abort)
                            }
                        }
                    }
                    IssuedKind::Delete => {
                        match delete_at_leaf(a, laddr, lcount, key, MIN_OCCUPANCY)? {
                            LeafDelete::Done(old) => Ok(Some(old)),
                            LeafDelete::Underflow => {
                                need_smo = true;
                                Err(Abort)
                            }
                        }
                    }
                    IssuedKind::Query => unreachable!(),
                }
            })();
            match r {
                Ok(Some(old)) => match tx.commit(ctx) {
                    Ok(()) => Some(old),
                    Err(Abort) => {
                        ctx.stm_abort();
                        None
                    }
                },
                Ok(None) => {
                    tx.rollback(ctx);
                    ctx.version_conflict();
                    None
                }
                Err(Abort) => {
                    tx.rollback(ctx);
                    if !need_smo {
                        ctx.stm_abort();
                    }
                    None
                }
            }
        };
        ctx.set_phase(outer);
        match attempt {
            Some(old) => return old,
            None => {
                if need_smo {
                    // Structure change required: jump straight to the
                    // STM-protected path, which can split or merge.
                    retries = opts.retry_threshold;
                } else {
                    retries += 1;
                    // Per §5, a conflicted horizontal traversal retries
                    // vertically.
                    loc.invalidate();
                    ctx.charge_cycles(50 * retries as u64);
                }
            }
        }
    }
}

/// What an issued update is handed besides the tree, each with the lifetime
/// of its owner.
struct WarpState<'a, 'c> {
    /// The iteration warp's last accessed leaf, for the
    /// horizontal-or-vertical choice (§5).
    loc: &'a mut WarpLocator<'c>,
    /// Logs and leased ids of the worker slot's transactions: a warp runs
    /// ≈ 5 of them, a slot ≈ 500, so the logs are grown once per slot.
    scratch: &'a mut TxScratch,
}

/// Work items that expose the key the RF decision needs.
trait HasKey: Sync {
    fn item_key(&self) -> u64;

    /// Key the item's traversal starts at (ranges locate their lower
    /// bound first); used for leaf-run partitioning.
    fn locate_key(&self) -> u64 {
        self.item_key()
    }
}

impl HasKey for QueryItem {
    fn item_key(&self) -> u64 {
        // A range touches keys up to its inclusive upper bound.
        self.window().1
    }

    fn locate_key(&self) -> u64 {
        self.window().0
    }
}

impl HasKey for UpdateItem {
    fn item_key(&self) -> u64 {
        self.key as u64
    }
}

/// Launches `items` over iteration warps: contiguous blocks of request
/// groups per warp, so adjacent RGs share one [`WarpLocator`], the leaf
/// buffer of §5. `body` also gets the `S` of the worker slot the warp
/// happens to run on ([`Device::launch_with`]).
///
/// With a pivot cache (`pivot = Some`), request groups are *leaf runs* —
/// maximal ascending-key groups targeting the same leaf under the
/// snapshot's fences — so each group pays one descent and applies the
/// rest of its items in-leaf; without one, groups are fixed-size RG
/// blocks (`opts.rg_size`), the per-request baseline.
fn launch_grouped<T: HasKey, S: Default + Send>(
    device: &Device,
    opts: &ExecOptions,
    items: &[T],
    pivot: Option<&PivotCache>,
    name: &str,
    read_only: bool,
    body: impl Fn(&mut eirene_sim::WarpCtx<'_>, &mut WarpLocator<'_>, &mut S, &T) + Sync,
) -> KernelStats {
    let n = items.len();
    if n == 0 {
        return KernelStats {
            name: name.to_string(),
            ..Default::default()
        };
    }
    let target = if opts.target_warps > 0 {
        opts.target_warps
    } else {
        device.config().resident_warps().max(1)
    };
    // Group boundaries: leaf runs under coalesced dispatch, fixed-size RG
    // blocks otherwise.
    let rg = opts.rg_size.max(1);
    let groups: Vec<(usize, usize)> = match pivot {
        Some(cache) => partition_leaf_runs(items, T::locate_key, cache.leaf_fences()),
        None => (0..n.div_ceil(rg))
            .map(|g| (g * rg, ((g + 1) * rg).min(n)))
            .collect(),
    };
    // Spread contiguous group blocks over the iteration warps, balanced
    // by item count (leaf runs vary in size; fixed RGs reduce to the old
    // contiguous-block split).
    let items_per_warp = match pivot {
        Some(_) => n.div_ceil(target).max(1),
        None => groups.len().div_ceil(target).max(1) * rg,
    };
    let mut warp_groups: Vec<(usize, usize)> = Vec::new();
    let mut glo = 0usize;
    let mut acc = 0usize;
    for (g, &(lo, hi)) in groups.iter().enumerate() {
        acc += hi - lo;
        if acc >= items_per_warp {
            warp_groups.push((glo, g + 1));
            glo = g + 1;
            acc = 0;
        }
    }
    if glo < groups.len() {
        warp_groups.push((glo, groups.len()));
    }
    let coalesced = pivot.is_some();
    let kernel = |wid: usize, ctx: &mut eirene_sim::WarpCtx<'_>, slot: &mut S| {
        let mut loc = WarpLocator::with_cache(opts.locality, pivot);
        let (wg_lo, wg_hi) = warp_groups[wid];
        for &(lo, hi) in &groups[wg_lo..wg_hi] {
            // RF decision per group uses the group's maximal key (§5);
            // keys are ascending, so it is the last item's key.
            loc.begin_rg(items[hi - 1].item_key());
            for (i, item) in items[lo..hi].iter().enumerate() {
                let verticals_before = ctx.stats.vertical_traversals;
                body(ctx, &mut loc, slot, item);
                // A run-mate that finished without a fresh vertical
                // traversal rode the run's descent: an upper-level walk
                // the per-request baseline would have paid.
                if coalesced && i > 0 && ctx.stats.vertical_traversals == verticals_before {
                    ctx.stats.descents_saved += 1;
                }
            }
        }
    };
    device.launch_with(name, warp_groups.len(), read_only, kernel)
}

/// Result calculation (Alg. 1 line 6, RESULT_CAL): resolves every point
/// request from its run's dependence chain and patches range slots from
/// artificial queries, reading each run's points and artificial queries in
/// order. A plain loop on the calling thread; the modelled device cost is a
/// streaming pass over the batch.
fn resolve(
    cfg: &DeviceConfig,
    plan: &CombinePlan,
    old_vals: &[AtomicU64],
    responses: &mut [Response],
    range_results: &RangeSlots,
) -> PrimCost {
    let mut arts = plan.artificial.as_slice();
    for (i, (run, old)) in plan.runs.iter().zip(old_vals).enumerate() {
        let mine = arts.iter().take_while(|a| a.run == i as u32).count();
        let (mine, rest) = arts.split_at(mine);
        arts = rest;
        let old = old.load(Ordering::Relaxed);
        resolve_run(plan.run_points(run), mine, old, responses, range_results);
    }
    PrimCost::streaming(cfg, responses.len() as u64, 1, 4)
}

/// State of a key while replaying its run in timestamp order.
#[derive(Clone, Copy)]
enum KeyState {
    /// No state-changing op seen yet: queries observe the old value.
    Old,
    Deleted,
    Value(u32),
}

/// Replays one run from `old`, the value its issued request retrieved.
fn resolve_run(
    points: &[Point],
    arts: &[Artificial],
    old: u64,
    responses: &mut [Response],
    range_results: &RangeSlots,
) {
    let mut state = KeyState::Old;
    let value_at = |state: KeyState| -> u64 {
        match state {
            KeyState::Old => old,
            KeyState::Deleted => NO_VALUE,
            KeyState::Value(v) => v as u64,
        }
    };
    let patch = |a: &Artificial, state: KeyState| {
        range_results.of(a.range_idx)[a.offset as usize].store(value_at(state), Ordering::Relaxed);
    };
    let mut arts = arts.iter().peekable();
    for p in points {
        // Artificial queries with earlier timestamp *ranks* resolve first.
        // Ranks (position in the `(ts, batch index)` order) rather than raw
        // timestamps: on an equal timestamp, the request earlier in the
        // batch wins, exactly as the oracle's stable sort orders it. A raw
        // `ts <` comparison would resolve an equal-ts artificial query
        // after the point request and hand the range the *new* value.
        while let Some(a) = arts.next_if(|a| a.rank < p.rank) {
            patch(a, state);
        }
        match p.op {
            OpKind::Query => {
                let v = value_at(state);
                responses[p.orig as usize] = Response::Value((v != NO_VALUE).then_some(v as u32));
            }
            // Upserts and deletes answer `Done`, the buffer's initial value.
            OpKind::Upsert(v) => state = KeyState::Value(v),
            OpKind::Delete => state = KeyState::Deleted,
            OpKind::Range { .. } => unreachable!("ranges are not in runs"),
        }
    }
    for a in arts {
        patch(a, state);
    }
}

/// Result slots of every range query of a batch in one buffer (`NO_VALUE`
/// = empty), written across warps by the query kernel and patched by the
/// resolution pass.
struct RangeSlots {
    slots: Vec<AtomicU64>,
    /// Range `i` owns `slots[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl RangeSlots {
    fn new(lens: impl Iterator<Item = usize>) -> Self {
        let mut starts = vec![0];
        starts.extend(lens.scan(0, |end, len| {
            *end += len;
            Some(*end)
        }));
        let total = *starts.last().expect("starts with 0");
        RangeSlots {
            slots: (0..total).map(|_| AtomicU64::new(NO_VALUE)).collect(),
            starts,
        }
    }

    /// The slots of range `range_idx`, one per key of its window.
    fn of(&self, range_idx: u32) -> &[AtomicU64] {
        let i = range_idx as usize;
        &self.slots[self.starts[i]..self.starts[i + 1]]
    }
}
