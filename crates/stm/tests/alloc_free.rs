//! A steady-state transaction makes no allocator call, with or without a
//! node snapshot: its logs and the snapshot's buffers live in a
//! `TxScratch` that outlives it. Counted exactly with a counting global
//! allocator; this file holds one test, so nothing else allocates meanwhile.

use eirene_sim::{Addr, Device, DeviceConfig, WarpCtx, WarpStats};
use eirene_stm::{Stm, TxScratch};
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

const READS: usize = 64;
const WRITES: usize = 32;
/// A node's worth of words, loaded by a snapshot.
const NODE: usize = 38;

#[test]
fn steady_state_transactions_do_not_allocate() {
    let dev = Device::new(1 << 14, DeviceConfig::test_small());
    let stm = Stm::new(dev.mem(), 1 << 10);
    let cells: Vec<Addr> = (0..READS).map(|_| dev.mem().alloc(1)).collect();
    let node = dev.mem().alloc_aligned(NODE, 16);
    let mut stats = WarpStats::default();
    let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
    let mut scratch = TxScratch::default();
    // The largest transactions of the run: 64 reads, 32 of them written
    // back; with a snapshot, also every word of the node, half written back.
    let mut transact = |ctx: &mut WarpCtx<'_>, commit: bool, snapshot: bool| {
        let mut tx = stm.begin(&mut scratch);
        if snapshot {
            tx.snapshot(ctx, node, NODE);
            for i in 0..NODE as u64 {
                let v = tx.read(ctx, node + i).expect("one warp cannot conflict");
                if i % 2 == 0 {
                    tx.write(ctx, node + i, v + 1)
                        .expect("one warp cannot conflict");
                }
            }
        }
        for (i, &cell) in cells.iter().enumerate() {
            let v = tx.read(ctx, cell).expect("one warp cannot conflict");
            if i < WRITES {
                tx.write(ctx, cell, v + 1)
                    .expect("one warp cannot conflict");
            }
        }
        if commit {
            tx.commit(ctx).expect("nothing invalidates the read set");
        } else {
            tx.rollback(ctx);
        }
    };
    // Warm-up: the logs and the snapshot's buffers grow to their final size.
    transact(&mut ctx, true, false);
    transact(&mut ctx, true, true);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..500 {
        for snapshot in [false, true] {
            transact(&mut ctx, true, snapshot);
            transact(&mut ctx, false, snapshot);
        }
    }
    assert_eq!(ALLOCS.load(Ordering::Relaxed) - before, 0);
    assert_eq!(
        (dev.mem().read(cells[0]), dev.mem().read(node)),
        (1002, 501),
        "commits landed, rollbacks did not"
    );
}
