//! The launches a batch pays, pinned by the cost model. Each launch adds
//! `DeviceConfig::launch_overhead` to the makespan once and nothing else
//! does, so the makespan of a run with an overhead of `L` minus that of the
//! same run with none is `L` times the launches. Under one scheduler seed
//! the two runs do the same work, so the difference is exact. A batch with
//! updates makes three launches (combine, query, update), a query-only
//! batch two: frontier staging is a prologue of each kernel and result
//! calculation runs in the warps that issued the runs, coalesced or not.

use eirene_baselines::common::ConcurrentTree;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::DeviceConfig;
use eirene_workloads::{Batch, Request};

const L: u64 = 2_000;

/// Queries, upserts and deletes on a hot window of keys, with ranges over
/// it: run-mates and artificial queries both resolve in the kernels.
fn mixed() -> Batch {
    Batch::new(
        (0..512u32)
            .map(|i| {
                let (key, ts) = (200 + (i * 7) % 64, 100 + i as u64);
                match i % 8 {
                    0 | 1 => Request::upsert(key, i, ts),
                    2 => Request::delete(key + 1, ts),
                    3 => Request::range(key, 8, ts),
                    _ => Request::query(key, ts),
                }
            })
            .collect(),
    )
}

/// Queries only, four per key.
fn query_only() -> Batch {
    Batch::new(
        (0..512u32)
            .map(|i| Request::query(2 * (i / 4), 100 + i as u64))
            .collect(),
    )
}

/// Makespan of `batch` on a fresh tree whose pivot snapshot a warm-up batch
/// already built, so the measured batch makes no `eirene-pivot-build`
/// launch of its own.
fn makespan(coalesce: bool, launch_overhead: u64, batch: &Batch) -> f64 {
    let device = DeviceConfig {
        launch_overhead,
        worker_threads: 8,
        ..DeviceConfig::test_small()
    }
    .with_deterministic_sched(0x1A7);
    let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|i| (2 * i, 2 * i + 1)).collect();
    let mut tree = EireneTree::new(
        &pairs,
        EireneOptions {
            device,
            coalesce,
            ..EireneOptions::test_small()
        },
    );
    tree.run_batch(&Batch::new(vec![Request::query(2, 0)]));
    let stats = tree.run_batch(batch).stats;
    assert_eq!(
        stats.totals.pivot_cache_rebuilds, 0,
        "a rebuild is a launch"
    );
    stats.makespan_cycles
}

fn launches(coalesce: bool, batch: &Batch) -> f64 {
    (makespan(coalesce, L, batch) - makespan(coalesce, 0, batch)) / L as f64
}

#[test]
fn a_batch_with_updates_makes_three_launches() {
    for coalesce in [true, false] {
        let n = launches(coalesce, &mixed());
        assert!((n - 3.0).abs() < 1e-9, "coalesce {coalesce}: {n} launches");
    }
}

#[test]
fn a_query_only_batch_makes_two_launches() {
    for coalesce in [true, false] {
        let n = launches(coalesce, &query_only());
        assert!((n - 2.0).abs() < 1e-9, "coalesce {coalesce}: {n} launches");
    }
}
