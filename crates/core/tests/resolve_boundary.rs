//! Result calculation across the launch boundary. Each run is resolved by
//! the warp that issued it: a query-only run's warp answers its run-mates
//! in the query launch, and an update run's warp, in the update launch,
//! also patches the range slots the query launch filled. The batches here
//! hold all three shapes: query-only runs with run-mates, update runs whose
//! artificial queries patch ranges the query launch walked, and ranges
//! sharing a timestamp with an update of a key in their window, in either
//! batch order. Every batch must answer as `SequentialOracle` does and
//! leave a valid tree, under the deterministic scheduler on eight worker
//! slots over sixteen seeds, and under OS scheduling.

use eirene_baselines::common::ConcurrentTree;
use eirene_btree::validate::validate;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{mix64, DeviceConfig};
use eirene_workloads::{Batch, Oracle, Request, SequentialOracle};

/// Read keys 100..124 see queries only; write keys 300..332 see upserts,
/// deletes, queries and ranges of 8 starting at 296..336. Every 16th
/// position is a range paired with an upsert of its fourth key under one
/// timestamp, the range first on even pairs; elsewhere neighbours share a
/// timestamp two by two.
fn batch(seed: u64, ts0: u64) -> Batch {
    let mut state = seed;
    let mut next = || {
        state = mix64(state);
        state
    };
    let mut reqs = Vec::new();
    for i in 0..384u64 {
        let ts = ts0 + i / 2;
        let r = next();
        let (pick, op) = ((r >> 16) as u32, r % 10);
        if i % 16 == 0 {
            let lo = 296 + pick % 36;
            let pair = [Request::range(lo, 8, ts), Request::upsert(lo + 3, pick, ts)];
            if i % 32 == 0 {
                reqs.extend(pair);
            } else {
                reqs.extend(pair.into_iter().rev());
            }
            continue;
        }
        reqs.push(match op {
            0..=3 => Request::query(100 + pick % 24, ts),
            4 | 5 => Request::upsert(300 + pick % 32, pick, ts),
            6 => Request::delete(300 + pick % 32, ts),
            7 => Request::query(300 + pick % 32, ts),
            _ => Request::range(296 + pick % 40, 8, ts),
        });
    }
    Batch::new(reqs)
}

/// Runs three batches against the oracle, validating after each, and
/// checks that the batches exercised every shape the file is about.
fn check(device: DeviceConfig, coalesce: bool, seed: u64) {
    let pairs: Vec<(u64, u64)> = (1..=300u64).map(|i| (2 * i, 2 * i + 1)).collect();
    let init: Vec<(u32, u32)> = pairs.iter().map(|&(k, v)| (k as u32, v as u32)).collect();
    let mut tree = EireneTree::new(
        &pairs,
        EireneOptions {
            device,
            coalesce,
            ..EireneOptions::test_small()
        },
    );
    let mut oracle = SequentialOracle::load(&init);
    for round in 0..3u64 {
        let b = batch(mix64(seed ^ round), 1000 * round);
        let plan = tree.plan(&b);
        let mates = plan.runs.iter().any(|r| !r.has_state_ops && r.len > 1);
        let ties = plan.artificial.iter().any(|a| {
            let run = &plan.runs[a.run as usize];
            plan.run_points(run)
                .iter()
                .any(|p| b.requests[p.orig as usize].ts == a.ts)
        });
        assert!(
            mates && ties,
            "seed {seed:#x} round {round}: a shape is missing"
        );
        let got = tree.run_planned(&b, &plan).responses;
        let want = oracle.run_batch(&b);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g, w,
                "seed {seed:#x} round {round} request {i}: {:?}",
                b.requests[i]
            );
        }
        validate(tree.device().mem(), tree.handle())
            .unwrap_or_else(|e| panic!("seed {seed:#x} round {round}: {e}"));
    }
}

#[test]
fn runs_resolve_in_their_warps_under_sixteen_deterministic_seeds() {
    for seed in 0..16u64 {
        for coalesce in [true, false] {
            let device = DeviceConfig {
                worker_threads: 8,
                ..DeviceConfig::test_small()
            }
            .with_deterministic_sched(seed);
            check(device, coalesce, seed);
        }
    }
}

#[test]
fn runs_resolve_in_their_warps_under_os_scheduling() {
    for seed in 0..4u64 {
        for coalesce in [true, false] {
            check(DeviceConfig::test_small(), coalesce, 100 + seed);
        }
    }
}
