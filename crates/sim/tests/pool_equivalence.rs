//! Pool-correctness acceptance tests: the persistent worker pool must be
//! an invisible substrate. A pooled OS-mode launch has to produce exactly
//! the counters a sequential reference launch produces (for a kernel with
//! no cross-warp conflicts, where counters are interleaving-independent),
//! and back-to-back launches on one device must not leak statistics from
//! one epoch into the next. The same holds for how a launch keeps its
//! books: warps of one worker share an accumulator, and nothing a caller
//! can read — trace events included — may show it. What a worker slot does
//! show, on purpose, is the state a kernel asks it to keep across warps.

use eirene_sim::{Device, DeviceConfig, KernelStats, Phase, TraceEventKind, WarpCtx, WarpStats};
use std::sync::{Barrier, Mutex};

const WARPS: usize = 24;
const BLOCK: usize = 16;

/// A conflict-free kernel: every warp works on its own disjoint block, so
/// every counter (instructions, transactions, cycles, latency histogram,
/// phase rows) is independent of how warps interleave.
fn disjoint_kernel(base: u64) -> impl Fn(usize, &mut WarpCtx) + Sync {
    move |wid, ctx| {
        let mine = base + (wid * BLOCK) as u64;
        let prev = ctx.set_phase(Phase::VerticalTraversal);
        ctx.begin_request();
        let mut buf = [0u64; BLOCK];
        ctx.read_block(mine, &mut buf);
        ctx.control(buf.len() as u64);
        ctx.set_phase(Phase::LeafOp);
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = (wid * 1000 + i) as u64;
        }
        ctx.write_block(mine, &buf);
        ctx.atomic_add(mine, 1);
        ctx.end_request();
        ctx.set_phase(prev);
    }
}

fn counters_of(stats: &KernelStats) -> KernelStats {
    // Compare everything except the makespan, which depends on the
    // SM-assignment order of per-warp cycle totals, not on the counters
    // the pool must preserve.
    let mut c = stats.clone();
    c.makespan_cycles = 0.0;
    c
}

#[test]
fn pooled_launch_matches_sequential_reference() {
    let dev_pool = Device::with_arena(1 << 16);
    let dev_seq = Device::with_arena(1 << 16);
    let base_pool = dev_pool.mem().alloc(WARPS * BLOCK);
    let base_seq = dev_seq.mem().alloc(WARPS * BLOCK);
    assert_eq!(base_pool, base_seq, "identical allocation sequence");

    let pooled = dev_pool.launch("disjoint", WARPS, disjoint_kernel(base_pool));
    let seq = dev_seq.launch_seq("disjoint", WARPS, disjoint_kernel(base_seq));

    assert_eq!(counters_of(&pooled), counters_of(&seq));
    assert_eq!(pooled.warps, WARPS as u64);
    assert_eq!(pooled.totals.requests, WARPS as u64);
    // The data really landed: spot-check the last warp's block.
    let last = base_pool + ((WARPS - 1) * BLOCK) as u64;
    // First word got +1 from the atomic_add after the block write.
    assert_eq!(dev_pool.mem().read(last), ((WARPS - 1) * 1000) as u64 + 1);
}

#[test]
fn back_to_back_launches_do_not_leak_stats_across_epochs() {
    let dev = Device::with_arena(1 << 16);
    let fresh = Device::with_arena(1 << 16);
    let base_a = dev.mem().alloc(WARPS * BLOCK);
    let base_b = dev.mem().alloc(WARPS * BLOCK);
    let fresh_a = fresh.mem().alloc(WARPS * BLOCK);
    let fresh_b = fresh.mem().alloc(WARPS * BLOCK);
    assert_eq!((base_a, base_b), (fresh_a, fresh_b));

    // First epoch on the shared device: different warp count so a leak
    // would change warp totals, not just counters.
    let first = dev.launch("first", WARPS / 2, disjoint_kernel(base_a));
    assert_eq!(first.warps, (WARPS / 2) as u64);

    // Second epoch must look exactly like the same launch on a device
    // that never ran the first one.
    let second = dev.launch("second", WARPS, disjoint_kernel(base_b));
    let reference = fresh.launch("second", WARPS, disjoint_kernel(fresh_b));
    assert_eq!(counters_of(&second), counters_of(&reference));
    assert_eq!(second.totals.requests, WARPS as u64);
}

/// A traced conflict-free kernel with uneven work: warp `wid` serves
/// `wid % 3 + 1` requests of growing length and logs an event in each, so
/// event cycles and response times differ from warp to warp.
fn traced_kernel(cell: u64) -> impl Fn(usize, &mut WarpCtx) + Sync {
    move |wid, ctx| {
        for r in 0..wid % 3 + 1 {
            ctx.begin_request();
            for _ in 0..=wid + 10 * r {
                ctx.read(cell);
            }
            ctx.emit(TraceEventKind::CombineHit, r as u64);
            ctx.control(3);
            ctx.end_request();
        }
    }
}

#[test]
fn shared_accumulators_are_invisible_in_traces_and_response_times() {
    let traced = |workers: usize| DeviceConfig {
        trace: true,
        worker_threads: workers,
        ..DeviceConfig::test_small()
    };
    // The kernel only reads, so it may also be declared read-only: both
    // sides of each threshold below which a launch runs on its launcher.
    for (warps, read_only) in [
        (WARPS, false),
        (4, false),
        (5, false),
        (64, true),
        (65, true),
    ] {
        let launch = |cfg: DeviceConfig, seq: bool| {
            let dev = Device::new(1 << 12, cfg);
            let kernel = traced_kernel(dev.mem().alloc(1));
            if seq {
                dev.launch_seq("traced", warps, kernel)
            } else if read_only {
                dev.launch_read_only("traced", warps, kernel)
            } else {
                dev.launch("traced", warps, kernel)
            }
        };

        // The reference keeps one `WarpStats` per warp and merges them in
        // warp order, as every launch used to.
        let cfg = traced(1);
        let dev = Device::new(1 << 12, cfg.clone());
        let kernel = traced_kernel(dev.mem().alloc(1));
        let mut per_warp = WarpStats::default();
        for wid in 0..warps {
            let mut stats = WarpStats::default();
            kernel(wid, &mut WarpCtx::new(dev.mem(), &cfg, wid, &mut stats));
            per_warp.merge(&stats);
        }
        assert_eq!(per_warp.events.len(), (0..warps).map(|w| w % 3 + 1).sum());
        assert!(per_warp.events.windows(2).all(|p| p[0].warp <= p[1].warp));

        let runs = [
            ("os, 1 worker", launch(traced(1), false)),
            ("os, 4 workers", launch(traced(4), false)),
            (
                "det",
                launch(traced(4).with_deterministic_sched(0xACC), false),
            ),
            ("seq", launch(traced(1), true)),
        ];
        for (mode, stats) in &runs {
            let what = format!("{mode}, {warps} warps");
            assert_eq!(stats.totals.events, per_warp.events, "{what}: events");
            let (got, want) = (&stats.totals.latency, &per_warp.latency);
            assert_eq!(
                (got.min(), got.max(), got.sum(), got.count()),
                (want.min(), want.max(), want.sum(), want.count()),
                "{what}: response times"
            );
            assert_eq!(stats.totals, per_warp, "{what}: totals");
            assert_eq!(stats.makespan_cycles, runs[0].1.makespan_cycles, "{what}");
        }
    }
}

/// A launch at or below the threshold of its kind runs every warp on the
/// thread that issued it, in warp-id order, without a yield; one warp more
/// and no warp does.
#[test]
fn small_launches_run_on_the_launching_thread() {
    let dev = Device::new(
        1 << 12,
        DeviceConfig {
            worker_threads: 4,
            ..DeviceConfig::test_small()
        },
    );
    let cell = dev.mem().alloc(1);
    let launcher = std::thread::current().id();
    for (read_only, threshold) in [(false, 4), (true, 64)] {
        for warps in [1, threshold, threshold + 1] {
            let ran_on = Mutex::new(Vec::new());
            let yields_before = dev.os_yields();
            let stats = dev.launch_with("who", warps, read_only, |wid, ctx, _: &mut ()| {
                // Enough ticks that a pooled read-write launch would yield.
                for _ in 0..200 {
                    ctx.read(cell);
                }
                ran_on
                    .lock()
                    .unwrap()
                    .push((wid, std::thread::current().id()));
            });
            assert_eq!(stats.totals.mem_insts, 200 * warps as u64);
            let ran_on = ran_on.into_inner().unwrap();
            let what = format!("read_only {read_only}, {warps} warps");
            if warps <= threshold {
                let expect: Vec<_> = (0..warps).map(|wid| (wid, launcher)).collect();
                assert_eq!(ran_on, expect, "{what}");
                assert_eq!(dev.os_yields(), yields_before, "{what}: yielded");
            } else {
                assert_eq!(ran_on.len(), warps, "{what}");
                assert!(ran_on.iter().all(|&(_, t)| t != launcher), "{what}");
            }
        }
    }
}

/// Two threads issuing small launches on one device do not wait for each
/// other: each launch's first warp blocks until the other launch has
/// started too, which a shared launch mutex would turn into a deadlock.
#[test]
fn concurrent_small_launches_do_not_serialise() {
    let dev = Device::new(1 << 12, DeviceConfig::test_small());
    let cells = dev.mem().alloc(2);
    let both_running = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (dev, both_running) = (&dev, &both_running);
            s.spawn(move || {
                for round in 0..20 {
                    let stats = dev.launch("small", 4, |wid, ctx| {
                        if wid == 0 {
                            both_running.wait();
                        }
                        ctx.atomic_add(cells + t, 1);
                    });
                    assert_eq!(stats.warps, 4, "thread {t}, round {round}");
                    assert_eq!(stats.totals.atomic_insts, 4, "thread {t}, round {round}");
                }
            });
        }
    });
    assert_eq!(dev.mem().read(cells), 80);
    assert_eq!(dev.mem().read(cells + 1), 80);
}

/// Per-slot state that reports, when its slot lets go of it, which warps it
/// was lent to.
#[derive(Default)]
struct Lent(Vec<usize>);

/// One entry per dropped [`Lent`]. Only the test below touches it.
static RETURNED: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());

impl Drop for Lent {
    fn drop(&mut self) {
        RETURNED.lock().unwrap().push(std::mem::take(&mut self.0));
    }
}

#[test]
fn slot_state_is_lent_to_every_warp_of_its_slot_and_dropped_once() {
    let workers = |n: usize| DeviceConfig {
        worker_threads: n,
        ..DeviceConfig::test_small()
    };
    // (mode, config, sequential launch?, warps, slots the launch must use)
    let modes = [
        ("os, 1 worker", workers(1), false, WARPS, 1),
        ("os, 4 workers", workers(4), false, WARPS, 4),
        ("os, 4 workers, on the launcher", workers(4), false, 4, 1),
        (
            "det",
            workers(4).with_deterministic_sched(0x1E47),
            false,
            WARPS,
            4,
        ),
        ("seq", workers(4), true, WARPS, 1),
    ];
    for (what, cfg, seq, warps, slots) in modes {
        let dev = Device::new(1 << 12, cfg);
        let cell = dev.mem().alloc(1);
        let kernel = |wid: usize, ctx: &mut WarpCtx, lent: &mut Lent| {
            for _ in 0..40 {
                ctx.read(cell);
            }
            lent.0.push(wid);
        };
        let stats = if seq {
            dev.launch_seq_with("lend", warps, kernel)
        } else {
            dev.launch_with("lend", warps, false, kernel)
        };
        assert_eq!(stats.totals.mem_insts, 40 * warps as u64, "{what}");
        // The launch has returned, so every slot has dropped its state.
        let returned = std::mem::take(&mut *RETURNED.lock().unwrap());
        assert_eq!(returned.len(), slots, "{what}: one drop per slot");
        let mut lent_to: Vec<usize> = returned.iter().flatten().copied().collect();
        lent_to.sort_unstable();
        assert!(lent_to.iter().copied().eq(0..warps), "{what}: {returned:?}");
        if slots == 1 {
            // One slot claims warp ids in order (OS, launcher, sequential).
            assert!(returned[0].iter().copied().eq(0..warps), "{what}");
        }
    }
}
