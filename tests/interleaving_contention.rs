//! Contention survives the contention-adaptive OS launcher.
//!
//! The OS-mode launcher spends `sched_yield`s only where interleaving can
//! change an outcome: never in a read-only launch, on every fourth tick
//! while a read-write launch is cool, on every tick while a conflict is
//! live. The point of yielding at all is that conflicting warps *do*
//! conflict on a host with fewer cores than warps, so these tests hold the
//! launcher to that from outside, in OS mode, with margins wide enough for
//! any scheduler mood: the baselines still contend on a hot key set, Eirene
//! still conflicts less than both (the Fig. 12 ordering), STM still aborts
//! and still never loses an increment — and the yields that were cut are
//! really gone.

use eirene::baselines::common::ConcurrentTree;
use eirene::baselines::{LockTree, StmTree};
use eirene::core::{EireneOptions, EireneTree};
use eirene::sim::{Device, DeviceConfig, WarpStats};
use eirene::stm::{Stm, TxScratch};
use eirene::workloads::{Batch, Request};

fn conflicts(t: &WarpStats) -> u64 {
    t.lock_conflicts + t.stm_aborts + t.version_conflicts
}

#[test]
fn hot_key_updates_still_contend_and_eirene_conflicts_least() {
    let pairs: Vec<(u64, u64)> = (1..=2000u64).map(|i| (2 * i, i)).collect();
    // 8192 upserts over 32 adjacent keys: every warp of a baseline fights
    // for the same two leaves; combining leaves Eirene 32 issued updates.
    let batch = Batch::new(
        (0..8192u32)
            .map(|i| Request::upsert(2 * (1000 + i % 32), i, i as u64))
            .collect(),
    );
    let n = batch.len() as u64;

    let mut lock = LockTree::new(&pairs, DeviceConfig::test_small(), 1 << 13);
    let lock_run = lock.run_batch(&batch).stats.totals;
    assert!(lock_run.lock_conflicts > 0, "Lock GB-tree never contended");

    let mut stm = StmTree::new(&pairs, DeviceConfig::test_small(), 1 << 13);
    let stm_run = stm.run_batch(&batch).stats.totals;
    assert!(stm_run.stm_aborts > 0, "STM GB-tree never aborted");

    let mut eirene = EireneTree::new(&pairs, EireneOptions::test_small());
    let eirene_run = eirene.run_batch(&batch).stats.totals;
    let eirene_conflicts = conflicts(&eirene_run);
    assert!(
        eirene_conflicts < conflicts(&lock_run) && eirene_conflicts < conflicts(&stm_run),
        "conflicts per {n} requests: eirene {eirene_conflicts}, lock {}, stm {}",
        conflicts(&lock_run),
        conflicts(&stm_run),
    );
}

#[test]
fn stm_counter_increments_abort_and_stay_exact() {
    let dev = Device::new(1 << 14, DeviceConfig::test_small());
    let stm = Stm::new(dev.mem(), 1024);
    let cell = dev.mem().alloc(1);
    const WARPS: usize = 64;
    const INCREMENTS: u64 = 200;
    let stats = dev.launch("stm-counter", WARPS, |_, ctx| {
        let mut scratch = TxScratch::default();
        for _ in 0..INCREMENTS {
            stm.run(ctx, &mut scratch, usize::MAX >> 1, |tx, ctx| {
                let v = tx.read(ctx, cell)?;
                tx.write(ctx, cell, v + 1)
            })
            .expect("unbounded retries cannot exhaust");
        }
    });
    assert_eq!(dev.mem().read(cell), WARPS as u64 * INCREMENTS);
    assert!(
        stats.totals.stm_aborts >= 1,
        "64 warps on one word never aborted"
    );
}

#[test]
fn yields_are_spent_only_where_interleaving_matters() {
    let cfg = DeviceConfig::test_small();
    let interval = cfg.yield_interval as u64;
    let dev = Device::new(1 << 14, cfg);
    const WARPS: usize = 32;
    const OPS: u64 = 4800;
    let cells = dev.mem().alloc(WARPS);

    let stats = dev.launch_read_only("readers", WARPS, |wid, ctx| {
        for _ in 0..OPS {
            ctx.read(cells + wid as u64);
        }
    });
    assert_eq!(stats.totals.mem_insts, WARPS as u64 * OPS);
    assert_eq!(dev.os_yields(), 0, "a read-only launch yielded");

    // Disjoint words, no conflict reports: the launch stays cool.
    dev.launch("disjoint-writers", WARPS, |wid, ctx| {
        for i in 0..OPS {
            ctx.write(cells + wid as u64, i);
        }
    });
    let ticks = WARPS as u64 * OPS / interval;
    let yields = dev.os_yields();
    assert!(
        (ticks / 8..=ticks / 2).contains(&yields),
        "{yields} yields for {ticks} ticks: a cool launch yields on every 4th"
    );
}
