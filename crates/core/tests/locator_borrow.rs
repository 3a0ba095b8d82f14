//! The iteration warp's leaf buffer (§5) is lent, not copied: after every
//! `WarpLocator::locate` the borrowed snapshot must be exactly the record at
//! the returned address, and the simulated counters must be the ones the
//! copying implementation produced. One warp is scripted through every
//! path of the locator — first descent, run-mate hit, short horizontal
//! walk, overshoot with RF refresh, `begin_rg` drop and `invalidate` — and
//! one query batch pins the rule that a range walk keeps its own buffer.

use eirene_baselines::common::ConcurrentTree;
use eirene_btree::build::{arena_budget, bulk_build, TreeHandle};
use eirene_btree::node::{NodeRef, NODE_WORDS, OFF_RF};
use eirene_core::locality::WarpLocator;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{Addr, Device, DeviceConfig, Phase, WarpCtx, WarpStats};
use eirene_workloads::{Batch, Request, Response};

/// Keys 2, 4, …, 10 000, each mapped to key + 1.
fn pairs() -> Vec<(u64, u64)> {
    (1..=5000u64).map(|i| (2 * i, 2 * i + 1)).collect()
}

/// Memory instructions, vertical and horizontal steps, vertical and
/// horizontal traversals, then every phase row's cycles.
fn counters(s: &WarpStats) -> Vec<u64> {
    let mut c = vec![
        s.mem_insts,
        s.vertical_steps,
        s.horizontal_steps,
        s.vertical_traversals,
        s.horizontal_traversals,
    ];
    c.extend(Phase::ALL.iter().map(|&p| s.phases.row(p).cycles));
    c
}

/// Locates `key` and checks the lent snapshot against an uninstrumented
/// read of the returned leaf.
fn locate(loc: &mut WarpLocator<'_>, ctx: &mut WarpCtx<'_>, t: &TreeHandle, key: u64) -> Addr {
    let (addr, leaf) = loc.locate(ctx, t, key);
    let mut stored = [0u64; NODE_WORDS];
    ctx.raw_mem().read_slice(addr, &mut stored);
    assert_eq!(
        leaf.words(),
        &stored,
        "key {key}: snapshot of leaf {addr:#x}"
    );
    assert!(leaf.is_leaf() && leaf.low() <= key && key < leaf.high());
    addr
}

#[test]
fn the_located_leaf_is_lent_and_the_counters_do_not_move() {
    let dev = Device::new(arena_budget(5000, 64), DeviceConfig::test_small());
    let t = bulk_build(dev.mem(), &pairs());
    let mut stats = WarpStats::default();
    let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
    let mut loc = WarpLocator::new(true);

    // First vertical descent, then a run-mate on the same leaf.
    let first = locate(&mut loc, &mut ctx, &t, 500);
    assert_eq!(counters(ctx.stats), STEPS[0]);
    assert_eq!(locate(&mut loc, &mut ctx, &t, 502), first);
    assert_eq!(counters(ctx.stats), STEPS[1]);

    // Within RF: a horizontal walk of one to three leaves.
    loc.begin_rg(560);
    let before = ctx.stats.horizontal_steps;
    let walked = locate(&mut loc, &mut ctx, &t, 560);
    assert!((1..=3).contains(&(ctx.stats.horizontal_steps - before)));
    assert_eq!(counters(ctx.stats), STEPS[2]);

    // Far right: the walk overshoots height + 1, refreshes the start
    // leaf's RF (unbounded here, so the refresh shows) and descends.
    dev.mem().write(walked + OFF_RF, u64::MAX);
    locate(&mut loc, &mut ctx, &t, 9000);
    assert!(dev.mem().read(walked + OFF_RF) < 9000);
    assert_eq!(counters(ctx.stats), STEPS[3]);

    // An RG whose maximal key is past RF drops the buffer.
    loc.begin_rg(9990);
    locate(&mut loc, &mut ctx, &t, 9990);
    assert_eq!(counters(ctx.stats), STEPS[4]);

    // So does `invalidate`, even for a key in the buffered leaf.
    loc.invalidate();
    locate(&mut loc, &mut ctx, &t, 9992);
    assert_eq!(counters(ctx.stats), STEPS[5]);
}

/// Counters after each `locate` of the script above, as the copying
/// locator produced them.
const STEPS: [[u64; 18]; 6] = [
    [9, 4, 0, 1, 0, 0, 0, 296, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [9, 4, 0, 1, 1, 0, 0, 296, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [15, 4, 3, 1, 2, 0, 0, 296, 195, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [33, 8, 7, 2, 3, 0, 0, 592, 477, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [42, 12, 7, 3, 3, 0, 0, 888, 478, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [51, 16, 7, 4, 3, 0, 0, 1184, 479, 0, 0, 0, 0, 0, 0, 0, 0, 0],
];

/// `(low, high)` of every leaf, left to right (host-side, uninstrumented).
fn leaves(tree: &EireneTree) -> Vec<(u64, u64)> {
    let mem = tree.device().mem();
    let mut node = NodeRef {
        addr: tree.handle().root(mem),
    };
    while !node.is_leaf(mem) {
        node.addr = node.val(mem, 0);
    }
    let mut out = vec![(node.low(mem), node.high(mem))];
    while node.next(mem) != 0 {
        node.addr = node.next(mem);
        out.push((node.low(mem), node.high(mem)));
    }
    out
}

/// A range over three leaves followed, in the same leaf run, by a point
/// query on its first leaf, then a point query one leaf past the range. If
/// the range walk loaded its later leaves into the locator's buffer, the
/// first query would search the wrong leaf and the second would walk from
/// the range's last leaf instead of its first.
#[test]
fn a_range_walk_keeps_its_own_buffer() {
    let opts = EireneOptions {
        target_warps: 1,
        ..EireneOptions::test_small()
    };
    let mut tree = EireneTree::new(&pairs(), opts);
    let leaves = leaves(&tree);
    let (a_low, a_high) = leaves[10];
    let (lo, hi) = (a_low + 1, leaves[12].0 + 3);
    let (same_leaf, past) = (a_low + 2, leaves[13].0);
    assert!(same_leaf < a_high && hi < leaves[12].1);
    let batch = Batch::new(vec![
        Request::range(lo as u32, (hi - lo + 1) as u32, 0),
        Request::query(same_leaf as u32, 1),
        Request::query(past as u32, 2),
    ]);
    let run = tree.run_batch(&batch);
    let range = (lo..=hi)
        .map(|k| (k % 2 == 0).then_some(k as u32 + 1))
        .collect();
    assert_eq!(
        run.responses,
        [
            Response::Range(range),
            Response::Value(Some(same_leaf as u32 + 1)),
            Response::Value(Some(past as u32 + 1)),
        ]
    );
    assert_eq!(counters(&run.stats.totals), BATCH);
}

/// Counters of the batch above, as the copying implementation produced them.
const BATCH: [u64; 18] = [
    125, 2, 5, 1, 2, 60, 228, 136, 315, 65, 0, 0, 0, 0, 32, 0, 0, 5480,
];
