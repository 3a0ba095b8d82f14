//! Seed corpus for the differential fuzzer (`crates/check`): fixed cases
//! that previously surfaced bugs or probe known-delicate territory —
//! boundary keys `0` and `u32::MAX`, duplicate-timestamp batches, empty
//! batches, and range queries spanning leaf boundaries — each checked
//! across the four fuzzed trees (Eirene, its combining-only ablation, and
//! the STM and Lock GB-trees).
//!
//! The baselines only serialize racing requests on the *same* key, so
//! cases with key conflicts run only on the linearizable Eirene variants;
//! conflict-free cases run on all four.

use eirene::check::{check_case, run_serve_case, Fuzz, FuzzTree, Leg, Outcome};
use eirene::serve::ShardMap;
use eirene::sim::DeviceConfig;
use eirene::workloads::Request;

fn pairs(n: u64) -> Vec<(u64, u64)> {
    (1..=n).map(|k| (k, k + 1)).collect()
}

fn check_all(pairs: &[(u64, u64)], reqs: &[Request]) {
    for sel in FuzzTree::ALL {
        check_case(sel, pairs, &DeviceConfig::test_small(), 1 << 12, reqs)
            .unwrap_or_else(|v| panic!("{}: {v}", sel.label()));
    }
}

fn check_linearizable(pairs: &[(u64, u64)], reqs: &[Request]) {
    for sel in FuzzTree::ALL.into_iter().filter(|t| t.linearizable()) {
        check_case(sel, pairs, &DeviceConfig::test_small(), 1 << 12, reqs)
            .unwrap_or_else(|v| panic!("{}: {v}", sel.label()));
    }
}

#[test]
fn boundary_key_zero_full_lifecycle() {
    // Key 0 sits on the leftmost leaf's low fence. Disjoint footprints, so
    // all four trees must agree.
    let p = pairs(64);
    check_all(
        &p,
        &[
            Request::query(0, 0),
            Request::upsert(1, 100, 1),
            Request::range(2, 4, 2),
        ],
    );
    // Insert, read, delete, re-read key 0 — key conflicts, Eirene only.
    check_linearizable(
        &p,
        &[
            Request::query(0, 0),
            Request::upsert(0, 42, 1),
            Request::query(0, 2),
            Request::delete(0, 3),
            Request::query(0, 4),
        ],
    );
}

#[test]
fn boundary_key_u32_max_full_lifecycle() {
    let p = pairs(64);
    // Disjoint: one op per key at the top of the key space.
    check_all(
        &p,
        &[
            Request::upsert(u32::MAX, 7, 0),
            Request::query(u32::MAX - 1, 1),
            Request::query(63, 2),
        ],
    );
    // Conflicting lifecycle on u32::MAX, plus a range whose window
    // saturates at the top of the domain (oracle uses checked_add; the
    // trees compute bounds in u64 — both must agree slot-for-slot).
    check_linearizable(
        &p,
        &[
            Request::upsert(u32::MAX, 1, 0),
            Request::range(u32::MAX - 3, 8, 1),
            Request::query(u32::MAX, 2),
            Request::delete(u32::MAX, 3),
            Request::range(u32::MAX - 3, 8, 4),
        ],
    );
}

#[test]
fn duplicate_timestamp_batches() {
    let p = pairs(64);
    // Every request shares ts 5: resolution must follow batch position,
    // matching the oracle's stable sort. Key conflicts -> Eirene only.
    check_linearizable(
        &p,
        &[
            Request::query(10, 5),
            Request::upsert(10, 1, 5),
            Request::query(10, 5),
            Request::upsert(10, 2, 5),
            Request::delete(10, 5),
            Request::query(10, 5),
        ],
    );
    // Equal-ts artificial-query tie-break, both orders (regression for
    // the raw-ts comparison bug in resolve_run).
    check_linearizable(&p, &[Request::range(8, 5, 7), Request::upsert(10, 99, 7)]);
    check_linearizable(&p, &[Request::upsert(10, 99, 7), Request::range(8, 5, 7)]);
}

#[test]
fn empty_batch_is_a_no_op_everywhere() {
    check_all(&pairs(64), &[]);
}

#[test]
fn range_queries_spanning_leaf_boundaries() {
    // FANOUT is 16, so a bulk-loaded 512-key tree packs multiple leaves;
    // a 64-wide window crosses several leaf boundaries and forces
    // horizontal traversal. Disjoint from all updates -> all four trees.
    let p = pairs(512);
    check_all(
        &p,
        &[
            Request::range(100, 64, 0),
            Request::upsert(300, 1, 1),
            Request::range(400, 64, 2),
        ],
    );
    // The same spanning window with updates *inside* it (artificial-query
    // patching across leaf boundaries) -> Eirene variants.
    check_linearizable(
        &p,
        &[
            Request::range(100, 64, 0),
            Request::upsert(120, 1, 1),
            Request::delete(140, 2),
            Request::range(100, 64, 3),
            Request::upsert(160, 2, 4),
            Request::range(130, 64, 5),
        ],
    );
}

#[test]
fn delete_heavy_churn_on_a_small_key_set() {
    let p = pairs(32);
    let mut reqs = Vec::new();
    for round in 0u64..8 {
        for key in [4u32, 8, 12] {
            let base = round * 9 + (key / 4 - 1) as u64 * 3;
            reqs.push(Request::delete(key, base));
            reqs.push(Request::upsert(key, (round * 10) as u32, base + 1));
            reqs.push(Request::query(key, base + 2));
        }
    }
    check_linearizable(&p, &reqs);
}

// ---------------------------------------------------------------------
// Serving-layer seed corpus: the same delicate territory pushed through
// the sharded service (shard routing, epoch splitting, range merging).
// ---------------------------------------------------------------------

fn check_serve(map: ShardMap, pairs: &[(u64, u64)], reqs: &[Request]) {
    let opts = Fuzz {
        epoch_limit: 8, // small epochs: every corpus case spans several
        ..Fuzz::new(Leg::Serve)
    };
    // Once under OS scheduling, once under a deterministic warp schedule.
    run_serve_case(&opts, &map, pairs, 0, reqs).unwrap_or_else(|v| panic!("os-sched: {v}"));
    let det = Fuzz {
        deterministic: true,
        ..opts
    };
    run_serve_case(&det, &map, pairs, 0x5EED, reqs).unwrap_or_else(|v| panic!("det-sched: {v}"));
}

#[test]
fn serve_boundary_keys_route_and_linearize() {
    // Ops on the extreme keys 0 and u32::MAX land on the outermost
    // shards; a saturating range window near the top must still merge.
    let map = ShardMap::from_starts(vec![0, 64, 128, u32::MAX - 8]).expect("valid shard starts");
    check_serve(
        map,
        &pairs(48),
        &[
            Request::query(0, 0),
            Request::upsert(0, 42, 1),
            Request::upsert(u32::MAX, 7, 2),
            Request::range(u32::MAX - 10, 16, 3), // straddles the top boundary, saturates
            Request::query(0, 4),
            Request::delete(u32::MAX, 5),
            Request::range(u32::MAX - 10, 16, 6),
        ],
    );
}

#[test]
fn serve_ranges_straddling_every_boundary() {
    // One window covering all four shards plus per-boundary straddlers,
    // interleaved with updates on the boundary keys themselves.
    let map = ShardMap::from_starts(vec![0, 16, 32, 48]).expect("valid shard starts");
    check_serve(
        map,
        &pairs(64),
        &[
            Request::range(1, 60, 0), // spans all four shards
            Request::upsert(16, 100, 1),
            Request::range(14, 5, 2),
            Request::delete(32, 3),
            Request::range(30, 5, 4),
            Request::upsert(48, 200, 5),
            Request::range(46, 5, 6),
            Request::range(1, 60, 7),
        ],
    );
}

#[test]
fn serve_duplicate_and_conflicting_keys_across_epochs() {
    // A single hot key hammered across several tiny epochs: per-shard
    // queue order must linearize identically to the flat oracle.
    let map = ShardMap::from_starts(vec![0, 24]).expect("valid shard starts");
    let mut reqs = Vec::new();
    for i in 0u64..40 {
        let op = match i % 4 {
            0 => Request::upsert(24, i as u32, i), // boundary key itself
            1 => Request::query(24, i),
            2 => Request::delete(24, i),
            _ => Request::range(20, 9, i),
        };
        reqs.push(op);
    }
    check_serve(map, &pairs(48), &reqs);
}

#[test]
fn serve_fuzz_repro_seeds_stay_green() {
    // Pinned repro seeds (the exact replay path a failure report prints):
    // each runs every adversarial profile once through a 4-shard service.
    for seed in [0x5E4E5E_u64, 0xB0A7, 0xD15C0] {
        let fuzz = Fuzz {
            repro: Some(seed),
            ..Fuzz::new(Leg::Serve)
        };
        match fuzz.run() {
            Outcome::Passed { .. } => {}
            Outcome::Failed(f) => panic!("repro seed {seed:#x} diverged: {f}"),
        }
    }
}
