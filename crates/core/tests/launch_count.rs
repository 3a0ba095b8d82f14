//! The launches a batch pays, pinned by the cost model. Each launch adds
//! `DeviceConfig::launch_overhead` to the makespan once and nothing else
//! does, so the makespan of a run with an overhead of `L` minus that of the
//! same run with none is `L` times the launches. Under one scheduler seed
//! the two runs do the same work, so the difference is exact. Every batch
//! makes two launches, `eirene-combine` and `eirene-batch`, coalesced or
//! not: the query and update kernels are two phases of `eirene-batch`,
//! frontier staging is its prologue and result calculation runs in the
//! warps that issued the runs.

use eirene_baselines::common::ConcurrentTree;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{DeviceConfig, ScheduleLog};
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

/// A fresh tree under scheduler seed `seed` whose pivot snapshot a warm-up
/// batch already built, so the measured batch makes no
/// `eirene-pivot-build` launch of its own.
fn warm_tree(coalesce: bool, launch_overhead: u64, seed: u64) -> EireneTree {
    let device = DeviceConfig {
        launch_overhead,
        worker_threads: 8,
        ..DeviceConfig::test_small()
    }
    .with_deterministic_sched(seed);
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
    tree
}

fn makespan(coalesce: bool, launch_overhead: u64, batch: &Batch) -> f64 {
    let stats = warm_tree(coalesce, launch_overhead, 0x1A7)
        .run_batch(batch)
        .stats;
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
fn every_batch_makes_two_launches() {
    for (what, batch) in [("mixed", mixed()), ("query-only", query_only())] {
        for coalesce in [true, false] {
            let n = launches(coalesce, &batch);
            assert!(
                (n - 2.0).abs() < 1e-9,
                "{what}, coalesce {coalesce}: {n} launches"
            );
        }
    }
}

/// Both phases of `eirene-batch` keep their own schedule entries, and the
/// captured log replays the mixed batch bit for bit on a tree seeded
/// differently.
#[test]
fn a_mixed_batch_replays_its_schedule_log() {
    let mut tree = warm_tree(true, L, 0xB47C);
    tree.device().take_schedule_log();
    let run = tree.run_batch(&mixed());
    let log = tree.device().take_schedule_log();
    let names: Vec<&str> = log.launches.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, ["eirene-batch/query", "eirene-batch/update"]);

    let mut replayed = warm_tree(true, L, 0);
    replayed.device().take_schedule_log();
    replayed
        .device()
        .set_replay_log(ScheduleLog::parse(&log.serialize()).expect("a captured log parses"));
    let again = replayed.run_batch(&mixed());
    assert_eq!(again.responses, run.responses);
    assert_eq!(again.stats, run.stats);
    assert_eq!(replayed.device().take_schedule_log(), log);
}
