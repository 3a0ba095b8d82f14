//! A full leaf splits inside the update kernel's optimistic leaf region
//! when its parent has room; only a split that would propagate takes
//! Alg. 1's full-STM fallback. Each test reads `WarpStats::fallbacks`
//! (one per request that entered the fallback), checks every response
//! against `SequentialOracle` and validates the tree after every batch.

use eirene_baselines::common::ConcurrentTree;
use eirene_btree::node::{NodeRef, FANOUT};
use eirene_btree::validate::validate;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{DeviceConfig, GlobalMemory};
use eirene_workloads::{Batch, Oracle, Request, SequentialOracle};

/// Keys 8, 16, …, 4 800, each mapped to key + 1: leaves of 10–14 keys
/// under leaf parents of 10–14 children, three levels, and seven free
/// keys between two neighbours.
fn pairs() -> Vec<(u64, u64)> {
    (1..=600u64).map(|i| (8 * i, 8 * i + 1)).collect()
}

fn tree(device: DeviceConfig, retry_threshold: u32) -> (EireneTree, SequentialOracle) {
    let p = pairs();
    let opts = EireneOptions {
        device,
        retry_threshold,
        ..EireneOptions::test_small()
    };
    let narrow: Vec<(u32, u32)> = p.iter().map(|&(k, v)| (k as u32, v as u32)).collect();
    (EireneTree::new(&p, opts), SequentialOracle::load(&narrow))
}

fn single_slot() -> DeviceConfig {
    DeviceConfig {
        worker_threads: 1,
        ..DeviceConfig::test_small()
    }
}

/// The leaf parents left to right, each as its children's keys.
fn leaf_parents(mem: &GlobalMemory, tree: &EireneTree) -> Vec<Vec<Vec<u64>>> {
    fn walk(mem: &GlobalMemory, node: NodeRef, out: &mut Vec<Vec<Vec<u64>>>) {
        let children: Vec<NodeRef> = (0..node.count(mem))
            .map(|i| NodeRef {
                addr: node.val(mem, i),
            })
            .collect();
        if children[0].is_leaf(mem) {
            let keys = |l: &NodeRef| (0..l.count(mem)).map(|i| l.key(mem, i)).collect();
            out.push(children.iter().map(keys).collect());
        } else {
            for c in children {
                walk(mem, c, out);
            }
        }
    }
    let mut out = Vec::new();
    let root = NodeRef {
        addr: tree.handle().root(mem),
    };
    walk(mem, root, &mut out);
    out
}

/// The absent keys strictly between two keys of `leaf`, which the leaf
/// owns whatever its fences, ascending.
fn free_keys(leaf: &[u64]) -> impl Iterator<Item = u32> + '_ {
    leaf.windows(2)
        .flat_map(|w| w[0] + 1..w[1])
        .map(|k| k as u32)
}

/// The first `n` of `leaf`'s free keys.
fn gaps(leaf: &[u64], n: usize) -> Vec<u32> {
    let keys: Vec<u32> = free_keys(leaf).take(n).collect();
    assert_eq!(keys.len(), n, "leaf {leaf:?} has too few gaps");
    keys
}

/// Upserts of `keys`, in key order, stamped from `*ts` on.
fn upserts(keys: &[u32], ts: &mut u64) -> Batch {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    Batch::new(
        keys.iter()
            .map(|&k| {
                *ts += 1;
                Request::upsert(k, k + 7, *ts)
            })
            .collect(),
    )
}

/// Runs `batch` on both, asserts equal responses and a valid tree, and
/// returns the batch's fallbacks and the tree's leaf count.
fn run(tree: &mut EireneTree, oracle: &mut SequentialOracle, batch: &Batch) -> (u64, usize) {
    let run = tree.run_batch(batch);
    assert_eq!(run.responses, oracle.run_batch(batch), "responses");
    let shape = validate(tree.device().mem(), tree.handle()).expect("valid tree");
    assert_eq!(shape.keys, oracle.len(), "key count");
    (run.stats.totals.fallbacks, shape.leaves)
}

/// One leaf of every leaf parent: filled to exactly `FANOUT` (no split),
/// then two more keys each, so every chosen leaf splits while its parent
/// has room. Then the second leaf of every parent is overfilled by one in
/// a single batch: its snapshot was loaded before the run's earlier
/// upserts landed, so the leaf region meets it full unannounced. Neither
/// split batch falls back.
#[test]
fn full_leaves_under_roomy_parents_split_in_place_without_a_fallback() {
    let (mut tree, mut oracle) = tree(single_slot(), 3);
    let mut ts = 0;
    let parents = leaf_parents(tree.device().mem(), &tree);
    assert!(parents.len() >= 4, "several leaf parents");
    assert!(
        parents.iter().all(|p| p.len() < FANOUT - 2),
        "parents have room"
    );

    let fill: Vec<u32> = parents
        .iter()
        .flat_map(|p| gaps(&p[0], FANOUT - p[0].len()))
        .collect();
    let (fallbacks, leaves) = run(&mut tree, &mut oracle, &upserts(&fill, &mut ts));
    assert_eq!(fallbacks, 0, "filling to FANOUT splits nothing");

    let parents_full = leaf_parents(tree.device().mem(), &tree);
    let over: Vec<u32> = parents_full.iter().flat_map(|p| gaps(&p[0], 2)).collect();
    let (fallbacks, after) = run(&mut tree, &mut oracle, &upserts(&over, &mut ts));
    assert_eq!(
        fallbacks, 0,
        "a full leaf under a roomy parent splits in place"
    );
    assert_eq!(after, leaves + parents.len(), "one split per chosen leaf");

    let stale: Vec<u32> = parents
        .iter()
        .flat_map(|p| gaps(&p[1], FANOUT + 1 - p[1].len()))
        .collect();
    let (fallbacks, last) = run(&mut tree, &mut oracle, &upserts(&stale, &mut ts));
    assert_eq!(fallbacks, 0, "a run that fills its leaf splits it in place");
    assert_eq!(last, after + parents.len(), "one split per overfilled leaf");
}

/// Overfilling `FANOUT - count + 1` children of one leaf parent in one
/// batch fills the parent with in-place splits; the last split would
/// propagate, so it falls back, and the answers stay right.
#[test]
fn a_full_parent_still_takes_the_fallback() {
    let (mut tree, mut oracle) = tree(single_slot(), 3);
    let mut ts = 0;
    let parent = &leaf_parents(tree.device().mem(), &tree)[1];
    let splits = FANOUT - parent.len() + 1;
    let keys: Vec<u32> = parent[..splits]
        .iter()
        .flat_map(|leaf| gaps(leaf, FANOUT + 1 - leaf.len()))
        .collect();
    let (fallbacks, _) = run(&mut tree, &mut oracle, &upserts(&keys, &mut ts));
    assert!(fallbacks > 0, "the split under the full parent falls back");
    assert!(fallbacks < splits as u64, "the splits before it did not");
}

/// `retry_threshold: 0` still means "always fall back", which the
/// retry-threshold ablation relies on: every issued update, split or not,
/// upsert or delete, takes the full-STM path.
#[test]
fn retry_threshold_zero_sends_every_update_to_the_fallback() {
    let (mut tree, mut oracle) = tree(single_slot(), 0);
    let mut ts = 0;
    let parents = leaf_parents(tree.device().mem(), &tree);
    let mut batch = upserts(
        &gaps(&parents[0][0], FANOUT + 1 - parents[0][0].len()),
        &mut ts,
    );
    batch.requests.extend((0..40u32).map(|i| {
        ts += 1;
        Request::delete(2_400 + 8 * i, ts)
    }));
    let (fallbacks, _) = run(&mut tree, &mut oracle, &batch);
    assert_eq!(fallbacks, batch.len() as u64, "one fallback per update");
}

/// Eight worker slots under the deterministic scheduler, 24 seeds: three
/// batches each overfill two or three sibling leaves under every leaf
/// parent, so sibling splits race for their parent's words. Answers and
/// the tree stay right after every batch, most splits stay in place, and
/// the races are real (transactions abort).
#[test]
fn sibling_leaves_split_concurrently_under_one_parent() {
    let (mut splits, mut fallbacks, mut aborts) = (0, 0, 0);
    for seed in 0..24u64 {
        let device = DeviceConfig {
            worker_threads: 8,
            ..DeviceConfig::test_small().with_deterministic_sched(seed)
        };
        let (mut tree, mut oracle) = tree(device, 3);
        let mut ts = 0;
        let mut leaves = validate(tree.device().mem(), tree.handle()).unwrap().leaves;
        for round in 0..3 {
            let parents = leaf_parents(tree.device().mem(), &tree);
            let keys: Vec<u32> = parents
                .iter()
                .filter(|p| p.len() + 3 <= FANOUT)
                .flat_map(|p| {
                    // Every other leaf with room to overfill.
                    p.iter()
                        .map(|leaf| (leaf, FANOUT + 1 - leaf.len()))
                        .filter(|&(leaf, need)| free_keys(leaf).nth(need - 1).is_some())
                        .step_by(2)
                        .take(2 + (seed as usize + round) % 2)
                        .flat_map(|(leaf, need)| gaps(leaf, need))
                })
                .collect();
            let batch = upserts(&keys, &mut ts);
            let run = tree.run_batch(&batch);
            assert_eq!(run.responses, oracle.run_batch(&batch), "seed {seed}");
            let shape = validate(tree.device().mem(), tree.handle())
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
            assert_eq!(shape.keys, oracle.len(), "seed {seed}");
            splits += shape.leaves - leaves;
            leaves = shape.leaves;
            fallbacks += run.stats.totals.fallbacks;
            aborts += run.stats.totals.stm_aborts;
        }
    }
    assert!(aborts > 0, "sibling splits never raced");
    assert!(
        fallbacks * 4 < splits as u64,
        "{fallbacks} fallbacks for {splits} splits: most splits stay in place"
    );
}
