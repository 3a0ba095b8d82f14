//! What a launch allocates depends on how many workers run it, not on how
//! many warps it has nor — under the deterministic scheduler — on how many
//! ticks it takes. Counted exactly with a counting global allocator; this
//! file holds one test, so nothing else allocates meanwhile.

use eirene_sim::{Device, DeviceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

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

const WORKERS: usize = 8;

#[test]
fn launch_allocations_scale_with_workers_not_warps_or_ticks() {
    os_launches();
    det_launches();
}

fn os_launches() {
    let dev = Device::new(
        1 << 12,
        DeviceConfig {
            worker_threads: WORKERS,
            ..DeviceConfig::default()
        },
    );
    let cell = dev.mem().alloc(1);
    // The first WORKERS warps meet at a barrier, so every worker runs at
    // least one warp and which accumulators get used does not vary.
    let all_in = Barrier::new(WORKERS);
    let allocs_of = |warps: usize| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let stats = dev.launch("one-request", warps, |wid, ctx| {
            if wid < WORKERS {
                all_in.wait();
            }
            ctx.begin_request();
            ctx.read(cell);
            ctx.end_request();
        });
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(stats.totals.requests, warps as u64);
        allocs
    };
    allocs_of(WORKERS); // warm-up: spawns the pool
    let (few, many) = (allocs_of(64), allocs_of(864));
    assert_eq!(few, many, "64 warps vs 864 warps");
    assert!(many <= 4 * WORKERS as u64, "{many} allocations");
}

/// Every deterministic tick goes through `DetState::pick`: anything it
/// allocates per tick shows here as calls growing with the ticks. What may
/// grow is the recorded choice sequence, one doubling at a time.
fn det_launches() {
    const WARPS: usize = 16;
    let dev = Device::new(1 << 12, DeviceConfig::default().with_deterministic_sched(7));
    let cell = dev.mem().alloc(1);
    // (allocator calls, scheduler ticks) of one launch.
    let run = |reads: usize| {
        let before = ALLOCS.load(Ordering::Relaxed);
        dev.launch("reads", WARPS, |_, ctx| {
            for _ in 0..reads {
                ctx.read(cell);
            }
        });
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let log = dev.take_schedule_log();
        (allocs, log.launches[0].choices.len() as u64)
    };
    run(64); // warm-up: spawns the pool
    let ((few, short), (many, long)) = (run(64), run(64 * 64));
    assert!(long >= 32 * short, "{short} ticks vs {long}");
    let doublings = u64::from((long / short).ilog2()) + 2;
    assert!(
        many <= few + doublings,
        "{few} allocations over {short} ticks, {many} over {long}"
    );
}
