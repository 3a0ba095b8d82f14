//! Differential tests across every concurrent tree in the workspace.
//!
//! The baselines are *not* linearizable (same-key races resolve in lock or
//! commit order), but on key-disjoint batches every correct tree must
//! produce identical, oracle-equal results — and after any batch every
//! synchronized tree must still satisfy the structural invariants.

use eirene::baselines::common::{BatchRun, ConcurrentTree};
use eirene::baselines::{LockTree, NoCcTree, StmTree};
use eirene::btree::refops;
use eirene::btree::validate::validate;
use eirene::core::{EireneOptions, EireneTree};
use eirene::sim::DeviceConfig;
use eirene::workloads::{Batch, OpKind, Oracle, Request, Response, SequentialOracle};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn pairs(n: u64) -> Vec<(u64, u64)> {
    (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
}

fn all_trees(p: &[(u64, u64)]) -> Vec<Box<dyn ConcurrentTree>> {
    vec![
        Box::new(StmTree::new(p, DeviceConfig::test_small(), 1 << 13)),
        Box::new(LockTree::new(p, DeviceConfig::test_small(), 1 << 13)),
        Box::new(EireneTree::new(p, EireneOptions::test_small())),
    ]
}

/// A batch where every request's *footprint* is disjoint from every other
/// request's, in random order. A `Range { len }` request reads `len`
/// consecutive keys, so its whole window is reserved: if another request
/// wrote inside the window, the concurrent trees (which only order requests
/// on the *same* key) could legitimately disagree with the sequential
/// oracle.
fn disjoint_batch(seed: u64, n: usize, domain: u32) -> Batch {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut keys: Vec<u32> = (1..=domain).collect();
    keys.shuffle(&mut rng);
    let mut used = std::collections::HashSet::new();
    let mut reqs: Vec<Request> = Vec::with_capacity(n);
    for &key in &keys {
        if reqs.len() == n {
            break;
        }
        if used.contains(&key) {
            continue;
        }
        let mut op = match rng.gen_range(0..6) {
            0 => OpKind::Upsert(rng.gen()),
            1 => OpKind::Delete,
            2 => OpKind::Range { len: 4 },
            _ => OpKind::Query,
        };
        if let OpKind::Range { len } = op {
            if (1..len).any(|d| used.contains(&(key + d))) {
                // Window collides with an already-claimed key: fall back to
                // a point read rather than disturbing determinism.
                op = OpKind::Query;
            } else {
                used.extend((1..len).map(|d| key + d));
            }
        }
        used.insert(key);
        let ts = reqs.len() as u64;
        reqs.push(Request { key, op, ts });
    }
    assert_eq!(reqs.len(), n, "domain too small for a disjoint batch");
    Batch::new(reqs)
}

#[test]
fn disjoint_key_batches_agree_across_all_trees() {
    let p = pairs(2000);
    let init: Vec<(u32, u32)> = p.iter().map(|&(k, v)| (k as u32, v as u32)).collect();
    let batch = disjoint_batch(1, 1024, 4000);
    let want = SequentialOracle::load(&init).run_batch(&batch);
    for mut tree in all_trees(&p) {
        let BatchRun { responses, .. } = tree.run_batch(&batch);
        for i in 0..batch.len() {
            assert_eq!(
                responses[i],
                want[i],
                "{}: response {i} for {:?}",
                tree.name(),
                batch.requests[i]
            );
        }
        validate(tree.device().mem(), tree.handle())
            .unwrap_or_else(|e| panic!("{}: {e}", tree.name()));
    }
}

#[test]
fn final_state_agrees_on_disjoint_updates() {
    let p = pairs(500);
    // All upserts on distinct keys: final contents must be identical in
    // every tree regardless of execution order.
    let batch = Batch::new(
        (0..800u32)
            .map(|i| Request::upsert(i * 5 + 1, i, i as u64))
            .collect(),
    );
    let mut snapshots = Vec::new();
    for mut tree in all_trees(&p) {
        tree.run_batch(&batch);
        validate(tree.device().mem(), tree.handle())
            .unwrap_or_else(|e| panic!("{}: {e}", tree.name()));
        snapshots.push((
            tree.name(),
            refops::contents(tree.device().mem(), tree.handle()),
        ));
    }
    for w in snapshots.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0, w[1].0);
    }
}

#[test]
fn contended_batches_keep_every_tree_structurally_valid() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
    let p = pairs(300);
    for mut tree in all_trees(&p) {
        for round in 0..3 {
            let reqs: Vec<Request> = (0..1500u64)
                .map(|ts| {
                    let key = rng.gen_range(1..=600u32);
                    let op = match rng.gen_range(0..10) {
                        0..=4 => OpKind::Upsert(rng.gen()),
                        5 => OpKind::Delete,
                        _ => OpKind::Query,
                    };
                    Request { key, op, ts }
                })
                .collect();
            tree.run_batch(&Batch::new(reqs));
            validate(tree.device().mem(), tree.handle())
                .unwrap_or_else(|e| panic!("{} round {round}: {e}", tree.name()));
        }
    }
}

#[test]
fn every_tree_reports_execution_statistics() {
    let p = pairs(1000);
    let batch = disjoint_batch(3, 512, 2000);
    for mut tree in all_trees(&p) {
        let run = tree.run_batch(&batch);
        assert!(run.stats.totals.mem_insts > 0, "{}", tree.name());
        assert!(run.stats.totals.control_insts > 0, "{}", tree.name());
        assert!(run.stats.makespan_cycles > 0.0, "{}", tree.name());
        assert!(run.stats.totals.requests > 0, "{}", tree.name());
        let tput = run.throughput(tree.device(), batch.len());
        assert!(tput > 0.0, "{}", tree.name());
    }
}

#[test]
fn eirene_issues_fewer_tree_operations_than_baselines_on_hot_keys() {
    // 4096 requests over 8 keys: baselines traverse 4096 times, Eirene 8.
    let p = pairs(1000);
    let batch = Batch::new(
        (0..4096u64)
            .map(|ts| Request::upsert(((ts % 8) * 2 + 2) as u32, ts as u32, ts))
            .collect(),
    );
    let mut eirene = EireneTree::new(&p, EireneOptions::test_small());
    let er = eirene.run_batch(&batch);
    assert_eq!(er.stats.totals.requests, 8, "one issued request per key");
    let mut lock = LockTree::new(&p, DeviceConfig::test_small(), 1 << 12);
    let lr = lock.run_batch(&batch);
    assert_eq!(lr.stats.totals.requests, 4096);
    assert!(
        er.stats.totals.mem_insts * 10 < lr.stats.totals.mem_insts,
        "combining must slash memory traffic on hot keys: {} vs {}",
        er.stats.totals.mem_insts,
        lr.stats.totals.mem_insts
    );
}

#[test]
fn concurrent_descending_inserts_below_minimum_stay_valid() {
    // Regression for the clamp-case fence undercut: a stream of inserts
    // below the tree's minimum key repeatedly splits leftmost-spine
    // nodes whose keys sit below their parent fences.
    let p: Vec<(u64, u64)> = vec![(1_000_000, 0)];
    let batch = Batch::new(
        (0..1200u32)
            .map(|i| Request::upsert(2000 - i, i, i as u64))
            .collect(),
    );
    for mut tree in all_trees(&p) {
        tree.run_batch(&batch);
        validate(tree.device().mem(), tree.handle())
            .unwrap_or_else(|e| panic!("{}: {e}", tree.name()));
        for i in 0..1200u32 {
            assert_eq!(
                refops::get(tree.device().mem(), tree.handle(), (2000 - i) as u64),
                Some(i as u64),
                "{}: key {}",
                tree.name(),
                2000 - i
            );
        }
    }
}

#[test]
fn zero_length_ranges_answer_empty_on_every_tree() {
    // Regression: `Range { len: 0 }` used to underflow `lo + len - 1` in
    // all four trees (debug: overflow panic; release: an out-of-bounds
    // slot write inside the kernel). The empty window must answer
    // `Range(vec![])` without disturbing live updates to the same key.
    let p = pairs(2000);
    let init: Vec<(u32, u32)> = p.iter().map(|&(k, v)| (k as u32, v as u32)).collect();
    let keys = [0u32, 2001, u32::MAX];
    // Updates and empty ranges on the same keys, then reads of what the
    // updates left behind beside more empty ranges — two batches, because
    // the baselines order same-key requests only across batches. The last
    // range saturates at the top of the key space.
    let first = keys
        .iter()
        .flat_map(|&k| [(k, OpKind::Upsert(k ^ 7)), (k, OpKind::Range { len: 0 })]);
    let second = keys
        .iter()
        .flat_map(|&k| [(k, OpKind::Range { len: 0 }), (k, OpKind::Query)])
        .chain([(u32::MAX - 1, OpKind::Range { len: 4 })]);
    let batches = [Batch::from_ops(first), Batch::from_ops(second)];
    let mut trees = all_trees(&p);
    trees.push(Box::new(NoCcTree::new(&p, DeviceConfig::test_small())));
    for mut tree in trees {
        let mut oracle = SequentialOracle::load(&init);
        for batch in &batches {
            let want = oracle.run_batch(batch);
            let got = tree.run_batch(batch).responses;
            assert_eq!(got, want, "{}", tree.name());
        }
        validate(tree.device().mem(), tree.handle())
            .unwrap_or_else(|e| panic!("{}: {e}", tree.name()));
    }
    // What the oracle answers is the contract: empty vector, not a panic.
    let want = SequentialOracle::load(&init).run_batch(&batches[0]);
    assert_eq!(want[1], Response::Range(vec![]));
}
