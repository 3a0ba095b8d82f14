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
//!   fallback once the retry threshold is exceeded. Alg. 1 sends every
//!   structure change to that fallback; here a full leaf whose parent has
//!   room splits inside the leaf region instead. The parent comes from an
//!   unprotected descent that stops one level above the leaves, run only
//!   for a leaf that reads full, and the transaction re-checks it. A split
//!   that would propagate (the parent is full, dead or no longer points at
//!   the leaf) and a delete that would underflow still fall back.
//!
//! The two kernels run as the `query` and `update` phases of one launch,
//! `eirene-batch`, split by a grid barrier (DESIGN §6). The warp that gets
//! a run's old value then resolves the run (**result calculation**): it
//! answers the run-mates from the dependence chain and, in the update
//! phase, patches the range slots the query phase filled from artificial
//! queries — all without touching the tree.

use crate::locality::WarpLocator;
use crate::pivot::PivotCache;
use crate::plan::{
    partition_leaf_runs, Artificial, CombinePlan, IssuedKind, Point, QueryItem, UpdateItem,
};
use crate::EireneOptions;
use eirene_baselines::common::{find_in_leaf, scan_leaves, BatchRun};
use eirene_btree::access::{NodeAccess, TxAccess};
use eirene_btree::build::TreeHandle;
use eirene_btree::node::{
    meta_count, meta_is_dead, meta_is_leaf, ParsedNode, FANOUT, MIN_OCCUPANCY, OFF_LOW, OFF_META,
    OFF_VERSION,
};
use eirene_btree::ops::{
    delete_at_leaf, delete_rebalancing, descend, hop_right, split_leaf_in_parent, upsert_at_leaf,
    LeafDelete, LeafUpsert, NO_VALUE,
};
use eirene_sim::{Device, Launch, Phase, TraceEventKind, WarpCtx};
use eirene_stm::{Abort, Stm, Tx, TxScratch};
use eirene_workloads::{Batch, OpKind, Response};
use std::sync::atomic::{AtomicU64, Ordering};

/// Executes a combined batch on the device. `stm` protects the update
/// kernel's leaf region. `pivot` is the snapshot pivot cache for the
/// coalesced dispatch path (`None` = per-request descents from the root).
pub fn execute(
    device: &Device,
    handle: &TreeHandle,
    stm: &Stm,
    opts: &EireneOptions,
    batch: &Batch,
    plan: &CombinePlan,
    pivot: Option<&PivotCache>,
) -> BatchRun {
    // One answer slot per point, in run order: a warp's stores stay
    // contiguous, where stores at batch positions thrash the host's caches.
    // The host installs the responses from the slots last.
    let answers: Vec<AtomicU64> = plan.points.iter().map(|_| AtomicU64::new(0)).collect();
    let range_results = RangeSlots::new(plan.ranges.iter().map(|r| r.len as usize));
    // Result calculation (Alg. 1 line 6, RESULT_CAL) of run `run` by the
    // warp that issued it, once its request ended with `old`. Only run-mates
    // and patches are charged (the issued request's answer is request I/O),
    // in warp-wide chunks over the warp's runs with adjacent answer slots.
    let resolve = |ctx: &mut WarpCtx<'_>, chunk: &mut ResultChunk, run: u32, old: u64| {
        let (r, arts) = (&plan.runs[run as usize], plan.run_artificial(run));
        let slots = &answers[r.start as usize..][..r.len as usize];
        resolve_run(plan.run_points(r), slots, arts, old, &range_results);
        if r.len > 1 {
            ctx.emit(TraceEventKind::CombineHit, r.len as u64);
        }
        let points = u64::from(r.len - 1) + arts.len() as u64;
        chunk.add(ctx, r.start, r.len, points);
    };

    // The barrier between the two phases keeps every update out of the
    // query phase's descents, which is what lets the queries run without
    // synchronization. Their work lists (Alg. 1 l.3) come laid out in the
    // plan.
    let mut launch = device.begin_launch("eirene-batch");
    // ------------------------- Query phase -----------------------------
    launch_grouped(
        &mut launch,
        opts,
        &plan.query_items,
        pivot,
        "query",
        // No synchronization because nothing is written: results cannot
        // depend on warp interleaving, so the phase need not pay for any.
        true,
        // A range's later leaves load into the worker slot's buffer: the
        // locator's keeps the leaf it lent, where the next RG's walk starts.
        |ctx, loc, walk: &mut ParsedNode, chunk, item| match *item {
            QueryItem::Query { run, key } => {
                let key = key as u64;
                ctx.begin_request();
                ctx.charge_request_io();
                let (_, leaf) = loc.locate(ctx, handle, key);
                let v = find_in_leaf(ctx, leaf, key).unwrap_or(NO_VALUE);
                ctx.end_request();
                resolve(ctx, chunk, run, v);
            }
            QueryItem::Range { range_idx, .. } => {
                ctx.begin_request();
                ctx.charge_request_io();
                let window = item.window();
                let (_, leaf) = loc.locate(ctx, handle, window.0);
                let slots = range_results.of(range_idx);
                scan_leaves(ctx, leaf, walk, window, ParsedNode::load, |i, v| {
                    slots[i].store(v, Ordering::Relaxed)
                });
                ctx.end_request();
            }
        },
    );

    // ------------------------- Update phase ----------------------------
    launch_grouped(
        &mut launch,
        opts,
        &plan.update_items,
        pivot,
        "update",
        false,
        |ctx, loc, scratch: &mut TxScratch, chunk, item| {
            let UpdateItem { run, key, kind } = *item;
            let key = key as u64;
            ctx.begin_request();
            ctx.charge_request_io();
            let state = WarpState { loc, scratch };
            let old = update_one(ctx, handle, stm, opts, state, key, kind);
            ctx.end_request();
            resolve(ctx, chunk, run, old);
        },
    );

    // Upserts and deletes answer `Done`.
    let mut responses = vec![Response::Done; batch.len()];
    for (p, slot) in plan.points.iter().zip(&answers) {
        if p.op == OpKind::Query {
            responses[p.orig as usize] = Response::Value(found(slot.load(Ordering::Relaxed)));
        }
    }
    for (idx, r) in plan.ranges.iter().enumerate() {
        let values = range_results.of(idx as u32).iter();
        let values = values.map(|slot| found(slot.load(Ordering::Relaxed)));
        responses[r.orig_idx as usize] = Response::Range(values.collect());
    }

    // ----------------------------- Stats --------------------------------
    let cfg = device.config();
    let mut stats = plan
        .cost
        .into_phased_kernel_stats("eirene-combine", cfg, Phase::Combine);
    let mut kernel = launch.end();
    if let Some(cache) = pivot.filter(|_| kernel.warps > 0) {
        // Prologue: staging the frontier fences into shared memory, once
        // per launch (shared memory outlives the grid barrier), costs the
        // makespan share a launch of its own would, without the launch.
        let staging = cache.staging_cost(cfg);
        kernel.makespan_cycles += staging.cycles as f64 / cfg.resident_warps() as f64;
        let staged = staging.into_phased_kernel_stats("", cfg, Phase::RunDispatch);
        kernel.totals.merge(&staged.totals);
    }
    stats.absorb(kernel);

    BatchRun { responses, stats }
}

/// Executes one issued update with the optimistic protocol of Alg. 1,
/// splitting a full leaf in the leaf region when its parent has room.
fn update_one(
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    stm: &Stm,
    opts: &EireneOptions,
    warp: WarpState<'_, '_>,
    key: u64,
    kind: IssuedKind,
) -> u64 {
    let WarpState { loc, scratch } = warp;
    let mut retries = 0u32;
    let upsert = matches!(kind, IssuedKind::Upsert(_));
    // Set when the leaf region found the leaf full with no parent in hand:
    // the snapshot read it short of full because the run's earlier upserts
    // landed after it was loaded.
    let mut seek_parent = false;
    loop {
        if retries >= opts.retry_threshold {
            // Fallback: the whole traversal under STM protection
            // (Alg. 1 lines 30-34). Unbounded retries: progress is
            // guaranteed because aborting releases ownership.
            ctx.stats.fallbacks += 1;
            loc.invalidate();
            let old = stm
                .run(ctx, scratch, usize::MAX >> 1, |tx, ctx| {
                    let a = &mut TxAccess::new(tx, ctx);
                    match kind {
                        IssuedKind::Upsert(v) => {
                            let (addr, count) = descend(a, handle, key, true)?;
                            match upsert_at_leaf(a, addr, count, key, v as u64)? {
                                LeafUpsert::Done(old) => Ok(old),
                                // The descent split every full node on the way down.
                                LeafUpsert::Full => torn_view(tx, ctx, addr),
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
        // A leaf that already reads full will need a split: find its
        // parent now, outside the transaction, so the split can run inside
        // it. Every other update skips this. The parent is a hint like the
        // leaf: the leaf region re-reads it before splitting.
        let seek = seek_parent || (upsert && node.count() == FANOUT && node.find(key).is_none());
        let parent = seek
            .then(|| loc.leaf_parent(ctx, handle, key, addr))
            .flatten();
        let mut need_smo = false;
        let mut split = false;
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
                        if let LeafUpsert::Done(old) =
                            upsert_at_leaf(a, laddr, lcount, key, v as u64)?
                        {
                            return Ok(Some(old));
                        }
                        // Full: split it here when its parent has room;
                        // only a split that would propagate falls back.
                        let half = match parent {
                            Some(p) => split_leaf_in_parent(a, handle, p, laddr, key)?,
                            None => None,
                        };
                        let Some((half, hcount)) = half else {
                            need_smo = true;
                            return Err(Abort);
                        };
                        split = true;
                        match upsert_at_leaf(a, half, hcount, key, v as u64)? {
                            LeafUpsert::Done(old) => Ok(Some(old)),
                            // The split left each half at most half full.
                            LeafUpsert::Full => torn_view(&tx, ctx, half),
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
            Some(old) => {
                if split {
                    // The buffered leaf is the split's pre-image.
                    loc.invalidate();
                }
                return old;
            }
            None => {
                if need_smo && upsert && !seek {
                    // Full after all: find the parent and try once more.
                    seek_parent = true;
                } else if need_smo {
                    // A split that would propagate, or an underflow: jump
                    // straight to the STM-protected path, which can split
                    // or merge on the way down.
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

/// A transaction body met a full leaf where its reads rule one out: on a
/// torn view that is an abort, for the retry or commit to decide; on a view
/// that still validates it is a bug, reported at the caller, not a livelock.
#[track_caller]
fn torn_view<T>(tx: &Tx<'_>, ctx: &mut WarpCtx<'_>, leaf: u64) -> Result<T, Abort> {
    assert!(!tx.reads_valid(ctx), "leaf {leaf:#x} full, view valid");
    Err(Abort)
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

/// Runs `items` as phase `label` of `launch`, over iteration warps:
/// contiguous blocks of request groups per warp, so adjacent RGs share one
/// [`WarpLocator`], the leaf buffer of §5. `body` also gets the `S` of the
/// worker slot the warp happens to run on ([`Launch::phase`]) and the
/// warp's [`ResultChunk`], which the warp flushes when it ends.
///
/// With a pivot cache (`pivot = Some`), request groups are *leaf runs* —
/// maximal ascending-key groups targeting the same leaf under the
/// snapshot's fences — so each group pays one descent and applies the
/// rest of its items in-leaf; without one, groups are fixed-size RG
/// blocks of one warp's width, the per-request baseline.
fn launch_grouped<T: HasKey, S: Default + Send>(
    launch: &mut Launch<'_>,
    opts: &EireneOptions,
    items: &[T],
    pivot: Option<&PivotCache>,
    label: &str,
    read_only: bool,
    body: impl Fn(&mut WarpCtx<'_>, &mut WarpLocator<'_>, &mut S, &mut ResultChunk, &T) + Sync,
) {
    let n = items.len();
    let device = launch.device();
    let target = if opts.target_warps > 0 {
        opts.target_warps
    } else {
        device.config().resident_warps().max(1)
    };
    // Group boundaries: leaf runs under coalesced dispatch, fixed-size RG
    // blocks otherwise.
    let rg = device.config().warp_size.max(1);
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
    let kernel = |wid: usize, ctx: &mut WarpCtx<'_>, slot: &mut S| {
        let mut loc = WarpLocator::with_cache(opts.locality, pivot);
        let mut chunk = ResultChunk::default();
        let (wg_lo, wg_hi) = warp_groups[wid];
        for &(lo, hi) in &groups[wg_lo..wg_hi] {
            // RF decision per group uses the group's maximal key (§5);
            // keys are ascending, so it is the last item's key.
            loc.begin_rg(items[hi - 1].item_key());
            for (i, item) in items[lo..hi].iter().enumerate() {
                let verticals_before = ctx.stats.vertical_traversals;
                body(ctx, &mut loc, slot, &mut chunk, item);
                // A run-mate that finished without a fresh vertical
                // traversal rode the run's descent: an upper-level walk
                // the per-request baseline would have paid.
                if coalesced && i > 0 && ctx.stats.vertical_traversals == verticals_before {
                    ctx.stats.descents_saved += 1;
                }
            }
        }
        chunk.flush(ctx);
    };
    launch.phase(label, warp_groups.len(), read_only, kernel);
}

/// The run-mates and patches a warp has resolved but not yet charged: those
/// of its latest runs whose answer slots follow one another in
/// [`CombinePlan::points`], which warp-wide stores cover together. The
/// charge ticks no scheduler.
#[derive(Default)]
struct ResultChunk {
    /// One past the latest run's last answer slot.
    end: u32,
    points: u64,
}

impl ResultChunk {
    /// Adds `points` of the run whose answer slots start at `start`,
    /// charging what came before first unless those slots end there.
    fn add(&mut self, ctx: &mut WarpCtx<'_>, start: u32, len: u32, points: u64) {
        if start != self.end {
            self.flush(ctx);
        }
        self.end = start + len;
        self.points += points;
    }

    /// Charges the points so far: one warp-wide load and store per chunk,
    /// four control per point.
    fn flush(&mut self, ctx: &mut WarpCtx<'_>) {
        let points = std::mem::take(&mut self.points);
        if points == 0 {
            return;
        }
        let prev = ctx.set_phase(Phase::ResultCalc);
        for _ in 0..points.div_ceil(ctx.config().warp_size as u64) {
            ctx.charge_request_io();
        }
        ctx.control(4 * points);
        ctx.set_phase(prev);
    }
}

/// The answer a stored word gives (`NO_VALUE` = no such key).
fn found(v: u64) -> Option<u32> {
    (v != NO_VALUE).then_some(v as u32)
}

/// State of a key while replaying its run in timestamp order.
#[derive(Clone, Copy)]
enum KeyState {
    /// No state-changing op seen yet: queries observe the old value.
    Old,
    Deleted,
    Value(u32),
}

/// Replays one run from `old`, the value its issued request retrieved,
/// storing each query's answer in its slot of `answers`.
fn resolve_run(
    points: &[Point],
    answers: &[AtomicU64],
    arts: &[Artificial],
    old: u64,
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
    for (p, answer) in points.iter().zip(answers) {
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
            OpKind::Query => answer.store(value_at(state), Ordering::Relaxed),
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
/// update kernel's run resolution.
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
