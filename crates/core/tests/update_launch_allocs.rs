//! What an update launch allocates depends on how many worker slots run it,
//! not on how many iteration warps it is cut into: the transaction logs
//! belong to the slot. Counted exactly with a counting global allocator
//! (the one of `crates/stm/tests/alloc_free.rs`); this file holds one test,
//! so nothing else allocates meanwhile.

use eirene_baselines::common::ConcurrentTree;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::DeviceConfig;
use eirene_workloads::{Batch, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every request; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 1 << 14;
const UPDATES: u32 = 4096;

/// Allocator calls of the second of two update-only batches (4 096 upserts
/// of distinct keys, a third of them new) on a fresh 2^14-key tree cut into
/// `target_warps` iteration warps. The first batch spawns the pool and
/// builds the pivot cache; with no query the second is one plan, one update
/// launch and one resolve (≈ 260 calls). OS scheduling on eight workers: the
/// deterministic scheduler allocates a candidate list per tick, which would
/// drown what is counted here.
fn update_batch_allocs(target_warps: usize) -> u64 {
    let pairs: Vec<(u64, u64)> = (1..=KEYS).map(|k| (3 * k, k)).collect();
    let mut tree = EireneTree::new(
        &pairs,
        EireneOptions {
            device: DeviceConfig {
                worker_threads: 8,
                ..DeviceConfig::test_small()
            },
            target_warps,
            ..EireneOptions::test_small()
        },
    );
    let batch = |round: u32| {
        Batch::new(
            (0..UPDATES)
                .map(|i| {
                    let key = 7 * i + round + 3;
                    Request::upsert(key, i, (round * UPDATES + i) as u64)
                })
                .collect(),
        )
    };
    tree.run_batch(&batch(0));
    let second = batch(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    let run = tree.run_batch(&second);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(run.stats.totals.requests, UPDATES as u64);
    allocs
}

#[test]
fn update_launch_allocations_do_not_scale_with_iteration_warps() {
    let (few, many) = (update_batch_allocs(64), update_batch_allocs(864));
    // What may differ: the `warp_groups` vector doubles four more times on
    // its way to 864 entries, and which transactions meet in one slot (so
    // how far that slot's five logs grow) follows the cut and the OS
    // scheduler; 5 to 13 calls apart in practice. One scratch per warp was
    // ≈ 9 calls for each of the 800 extra warps (1 254 vs 9 085).
    assert!(
        few.abs_diff(many) <= 40,
        "{few} allocator calls at 64 iteration warps, {many} at 864"
    );
}
