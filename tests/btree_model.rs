//! Property-based differential testing of the B+tree substrate against
//! `std::collections::BTreeMap`: arbitrary op sequences must produce
//! identical observable behaviour and preserve every structural invariant.

use eirene::btree::access::TxAccess;
use eirene::btree::build::{arena_budget, bulk_build, TreeHandle};
use eirene::btree::node::NodeRef;
use eirene::btree::validate::validate;
use eirene::btree::{ops, refops};
use eirene::sim::{DeviceConfig, GlobalMemory, WarpCtx, WarpStats};
use eirene::stm::{Stm, TxScratch};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Get(u64),
    Upsert(u64, u64),
    Delete(u64),
    Range(u64, u32),
}

/// Mutations for the twin-tree test; keys are folded onto the tree's
/// domain when applied.
#[derive(Clone, Debug)]
enum Edit {
    Upsert(u64, u64),
    Delete(u64),
    /// Deletes a run of consecutive keys, draining whole leaves.
    DeleteRun(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..200).prop_map(Op::Get),
        ((1u64..200), any::<u64>()).prop_map(|(k, v)| Op::Upsert(k, v)),
        (1u64..200).prop_map(Op::Delete),
        ((1u64..190), (1u32..12)).prop_map(|(lo, len)| Op::Range(lo, len)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_refops_match_btreemap(
        initial in 1u64..60,
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mem = GlobalMemory::new(arena_budget(initial as usize, 2048));
        let pairs: Vec<(u64, u64)> = (1..=initial).map(|i| (2 * i, i)).collect();
        let tree = bulk_build(&mem, &pairs);
        let mut model: BTreeMap<u64, u64> = pairs.iter().copied().collect();

        for op in &ops {
            match *op {
                Op::Get(k) => {
                    prop_assert_eq!(refops::get(&mem, &tree, k), model.get(&k).copied());
                }
                Op::Upsert(k, v) => {
                    prop_assert_eq!(refops::upsert(&mem, &tree, k, v), model.insert(k, v));
                }
                Op::Delete(k) => {
                    prop_assert_eq!(refops::delete(&mem, &tree, k), model.remove(&k));
                }
                Op::Range(lo, len) => {
                    let got = refops::range(&mem, &tree, lo, len);
                    for off in 0..len as u64 {
                        prop_assert_eq!(
                            got[off as usize],
                            model.get(&(lo + off)).copied(),
                            "range offset {} from {}", off, lo
                        );
                    }
                }
            }
        }
        // Full-state comparison + invariants at the end.
        let contents = refops::contents(&mem, &tree);
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(contents, expect);
        validate(&mem, &tree).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn prop_both_policies_build_the_same_tree(
        initial in 1u64..300,
        edits in proptest::collection::vec(
            prop_oneof![
                (any::<u32>(), (0u64..1000)).prop_map(|(k, v)| Edit::Upsert(k as u64, v)),
                (any::<u32>(), (0u64..1000)).prop_map(|(k, v)| Edit::Upsert(k as u64, v)),
                (any::<u32>(), (0u64..1000)).prop_map(|(k, v)| Edit::Upsert(k as u64, v)),
                (any::<u32>(), (0u64..1000)).prop_map(|(k, v)| Edit::Upsert(k as u64, v)),
                any::<u32>().prop_map(|k| Edit::Delete(k as u64)),
                any::<u32>().prop_map(|k| Edit::DeleteRun(k as u64)),
            ],
            1..600,
        ),
    ) {
        // One algorithm: the stream applied through the direct policy and,
        // on a twin, through the transactional policy on one warp must
        // leave the same tree — contents, stats, and every node's keys.
        let pairs: Vec<(u64, u64)> = (1..=initial).map(|i| (2 * i, i)).collect();
        let budget = arena_budget(initial as usize, 4096) + (1 << 13);
        let direct = GlobalMemory::new(budget);
        let dtree = bulk_build(&direct, &pairs);
        let twin = GlobalMemory::new(budget);
        let ttree = bulk_build(&twin, &pairs);
        let stm = Stm::new(&twin, 1 << 12);
        let cfg = DeviceConfig::test_small();
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&twin, &cfg, 0, &mut stats);
        // Keys fold onto the loaded domain plus a margin of absent keys.
        // Upserts split nodes; delete runs drain whole leaves, so streams
        // also borrow, merge and collapse the root.
        let domain = 2 * initial + 16;
        for edit in &edits {
            match *edit {
                Edit::Upsert(k, v) => {
                    let k = 1 + k % domain;
                    let old = refops::upsert(&direct, &dtree, k, v);
                    let told = tx_upsert(&stm, &mut ctx, &ttree, k, v);
                    prop_assert_eq!(old.unwrap_or(ops::NO_VALUE), told);
                }
                Edit::Delete(k) | Edit::DeleteRun(k) => {
                    let run = if matches!(edit, Edit::DeleteRun(_)) { 10 } else { 1 };
                    for k in (k..k + run).map(|k| 1 + k % domain) {
                        let old = refops::delete(&direct, &dtree, k);
                        let told = tx_delete(&stm, &mut ctx, &ttree, k);
                        prop_assert_eq!(old.unwrap_or(ops::NO_VALUE), told);
                    }
                }
            }
        }
        prop_assert_eq!(refops::contents(&direct, &dtree), refops::contents(&twin, &ttree));
        let dstats = validate(&direct, &dtree).map_err(TestCaseError::fail)?;
        let tstats = validate(&twin, &ttree).map_err(TestCaseError::fail)?;
        prop_assert_eq!(dstats, tstats);
        prop_assert_eq!(node_keys(&direct, &dtree), node_keys(&twin, &ttree));
        // Retirement differs only in timing: by now both quarantines hold
        // the same merged-away nodes.
        prop_assert_eq!(direct.slab_stats(), twin.slab_stats());
    }

    #[test]
    fn prop_bulk_build_validates_at_any_size(n in 1usize..3000) {
        let mem = GlobalMemory::new(arena_budget(n, 64));
        let pairs: Vec<(u64, u64)> = (1..=n as u64).map(|i| (3 * i, i)).collect();
        let tree = bulk_build(&mem, &pairs);
        let stats = validate(&mem, &tree).map_err(TestCaseError::fail)?;
        prop_assert_eq!(stats.keys, n);
        // Every loaded key must be findable.
        for &(k, v) in pairs.iter().step_by((n / 17).max(1)) {
            prop_assert_eq!(refops::get(&mem, &tree, k), Some(v));
        }
    }

    #[test]
    fn prop_monotone_insert_stream_keeps_balance(
        n in 1usize..500,
        base in 1u64..1000,
    ) {
        // Ascending inserts are the worst case for rightmost-leaf splits.
        let mem = GlobalMemory::new(arena_budget(8, n * 8 + 256));
        let tree = bulk_build(&mem, &[(1, 1), (2, 2)]);
        for i in 0..n as u64 {
            refops::upsert(&mem, &tree, base + i, i);
        }
        let stats = validate(&mem, &tree).map_err(TestCaseError::fail)?;
        prop_assert!(stats.keys >= n);
        // Height stays logarithmic (fanout 16, generous bound).
        prop_assert!(stats.height <= 1 + (n as f64).log2() as u64);
    }
}

/// One upsert through the transactional policy, as the kernels run it.
fn tx_upsert(stm: &Stm, ctx: &mut WarpCtx<'_>, tree: &TreeHandle, key: u64, val: u64) -> u64 {
    stm.run(ctx, &mut TxScratch::default(), 0, |tx, ctx| {
        let a = &mut TxAccess::new(tx, ctx);
        let (leaf, count) = ops::descend(a, tree, key, true)?;
        match ops::upsert_at_leaf(a, leaf, count, key, val)? {
            ops::LeafUpsert::Done(old) => Ok(old),
            ops::LeafUpsert::Full => unreachable!("insert-capable descent guarantees room"),
        }
    })
    .expect("one warp cannot conflict with itself")
}

fn tx_delete(stm: &Stm, ctx: &mut WarpCtx<'_>, tree: &TreeHandle, key: u64) -> u64 {
    stm.run(ctx, &mut TxScratch::default(), 0, |tx, ctx| {
        ops::delete_rebalancing(&mut TxAccess::new(tx, ctx), tree, key)
    })
    .expect("one warp cannot conflict with itself")
}

/// Every node's `(depth, keys)` in preorder — the tree's shape without its
/// addresses.
fn node_keys(mem: &GlobalMemory, tree: &TreeHandle) -> Vec<(u32, Vec<u64>)> {
    fn walk(mem: &GlobalMemory, node: NodeRef, depth: u32, out: &mut Vec<(u32, Vec<u64>)>) {
        let count = node.count(mem);
        out.push((depth, (0..count).map(|i| node.key(mem, i)).collect()));
        if !node.is_leaf(mem) {
            for i in 0..count {
                let child = NodeRef {
                    addr: node.val(mem, i),
                };
                walk(mem, child, depth + 1, out);
            }
        }
    }
    let mut out = Vec::new();
    let root = NodeRef {
        addr: tree.root(mem),
    };
    walk(mem, root, 0, &mut out);
    out
}

#[test]
fn descending_insert_stream_keeps_left_spine_valid() {
    // Descending inserts drive everything through the leftmost clamp.
    let mem = GlobalMemory::new(arena_budget(8, 4096));
    let tree = bulk_build(&mem, &[(1_000_000, 0)]);
    for i in (1..=2000u64).rev() {
        refops::upsert(&mem, &tree, i, i);
    }
    validate(&mem, &tree).unwrap();
    for i in 1..=2000u64 {
        assert_eq!(refops::get(&mem, &tree, i), Some(i));
    }
}

#[test]
fn interleaved_delete_insert_cycles_preserve_invariants() {
    let mem = GlobalMemory::new(arena_budget(1000, 1 << 14));
    let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|i| (2 * i, i)).collect();
    let tree = bulk_build(&mem, &pairs);
    // Delete and reinsert the same band repeatedly: exercises empty
    // leaves, re-fills, and fence staleness.
    for round in 0..5u64 {
        for k in (100..300u64).step_by(2) {
            refops::delete(&mem, &tree, k);
        }
        validate(&mem, &tree).unwrap();
        for k in (100..300u64).step_by(2) {
            assert_eq!(refops::upsert(&mem, &tree, k, round), None);
        }
        validate(&mem, &tree).unwrap();
    }
    assert_eq!(refops::get(&mem, &tree, 200), Some(4));
}
