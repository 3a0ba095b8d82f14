//! The deterministic yield cadence, pinned by value.
//!
//! `det_launch_is_bit_identical_for_a_seed` proves a seed replays itself
//! run to run; this test proves it replays itself *commit to commit*. The
//! grant sequence of a deterministic launch is a function of the seed, the
//! worker-slot bound and where each warp hands the token back — one hand-off
//! per `yield_interval` instrumented ops, staggered by warp id. Anything that
//! moves a hand-off (a new tick cadence, a scheduler that skips ticks, a
//! changed stagger) changes this string, and fails here by name rather than
//! as a drift in `tests/tree_cost_golden.rs`.

use eirene_sim::{Device, DeviceConfig};

const PINNED: &str = "eirene-schedule v1\n\
    pinned-cas\t6\t2,4,5,5,2,3,0,2,4,5,5,5,1,3,1,2,5,4,4,4,3,3,3\n\
    pinned-read\t3\t1,1,1,2,2,2,0,0,0\n";

#[test]
fn deterministic_schedule_of_a_fixed_kernel_is_pinned() {
    let dev = Device::new(
        1 << 12,
        DeviceConfig::test_small().with_deterministic_sched(0x5EED),
    );
    let cell = dev.mem().alloc(1);
    // Two launches, so the per-launch seed derivation is pinned too; uneven
    // per-warp work, so warps finish at different grants; a conflict report
    // in the mix, which deterministic mode must ignore.
    dev.launch("pinned-cas", 6, |wid, ctx| {
        for _ in 0..10 * (wid + 1) {
            loop {
                let cur = ctx.read(cell);
                if ctx.atomic_cas(cell, cur, cur + 1).is_ok() {
                    break;
                }
                ctx.lock_conflict();
            }
        }
    });
    dev.launch("pinned-read", 3, |_, ctx| {
        for _ in 0..50 {
            ctx.read(cell);
        }
    });
    assert_eq!(dev.mem().read(cell), 10 * (1 + 2 + 3 + 4 + 5 + 6));
    assert_eq!(dev.take_schedule_log().serialize(), PINNED);
}
