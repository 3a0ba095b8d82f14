//! Host-side reference operations: uninstrumented, single-threaded tree
//! ops used by tests, examples, the differential fuzzers and quiesced
//! shard migration. `get` / `upsert` / `delete` are the shared algorithm
//! of [`ops`] under the [`Direct`] policy — the same splits, borrows,
//! merges and root collapses the device kernels perform through
//! `TxAccess`, so a host-built tree and a device-built tree have the same
//! shape. `range` and `contents` are plain leaf-chain readers.

use crate::access::Direct;
use crate::build::TreeHandle;
use crate::node::NodeRef;
use crate::ops::{self, LeafUpsert, NO_VALUE};
use eirene_sim::GlobalMemory;
use eirene_workloads::range_window;

/// Looks up `key`, returning its value if present.
pub fn get(mem: &GlobalMemory, tree: &TreeHandle, key: u64) -> Option<u64> {
    let a = &mut Direct(mem);
    let Ok((leaf, count)) = ops::descend(a, tree, key, false);
    let Ok(v) = ops::query_at_leaf(a, leaf, count, key);
    (v != NO_VALUE).then_some(v)
}

/// Inserts or updates `key`, returning the previous value if any. Full
/// nodes on the path split on the way down. `u64::MAX` is the in-memory
/// "no value" sentinel and cannot be stored.
pub fn upsert(mem: &GlobalMemory, tree: &TreeHandle, key: u64, val: u64) -> Option<u64> {
    debug_assert_ne!(val, NO_VALUE, "u64::MAX is the no-value sentinel");
    let a = &mut Direct(mem);
    let Ok((leaf, count)) = ops::descend(a, tree, key, true);
    match ops::upsert_at_leaf(a, leaf, count, key, val) {
        Ok(LeafUpsert::Done(old)) => (old != NO_VALUE).then_some(old),
        Ok(LeafUpsert::Full) => unreachable!("insert-capable descent guarantees room"),
    }
}

/// Deletes `key`, returning its previous value if it was present. Nodes
/// at the [`MIN_OCCUPANCY`](crate::node::MIN_OCCUPANCY) floor on the path
/// are rebalanced on the way down (see [`ops::delete_rebalancing`]);
/// merged-away nodes go to the arena's epoch quarantine at once.
pub fn delete(mem: &GlobalMemory, tree: &TreeHandle, key: u64) -> Option<u64> {
    let Ok(old) = ops::delete_rebalancing(&mut Direct(mem), tree, key);
    (old != NO_VALUE).then_some(old)
}

/// Returns the values of keys in `[lo, lo + len - 1]`, one optional slot
/// per key offset.
pub fn range(mem: &GlobalMemory, tree: &TreeHandle, lo: u64, len: u32) -> Vec<Option<u64>> {
    let mut out = vec![None; len as usize];
    let Some((lo, hi)) = range_window(lo, len) else {
        return out;
    };
    let Ok((leaf, _)) = ops::descend(&mut Direct(mem), tree, lo, false);
    let mut node = NodeRef { addr: leaf };
    loop {
        let c = node.count(mem);
        for i in 0..c {
            let k = node.key(mem, i);
            if k >= lo && k <= hi {
                out[(k - lo) as usize] = Some(node.val(mem, i));
            }
        }
        if c > 0 && node.key(mem, c - 1) >= hi {
            break;
        }
        let next = node.next(mem);
        if next == 0 {
            break;
        }
        node = NodeRef { addr: next };
    }
    out
}

/// Walks the leaf chain and returns every (key, value) pair in order.
pub fn contents(mem: &GlobalMemory, tree: &TreeHandle) -> Vec<(u64, u64)> {
    let mut node = NodeRef {
        addr: tree.root(mem),
    };
    while !node.is_leaf(mem) {
        node = NodeRef {
            addr: node.val(mem, 0),
        };
    }
    let mut out = Vec::new();
    loop {
        for i in 0..node.count(mem) {
            out.push((node.key(mem, i), node.val(mem, i)));
        }
        let next = node.next(mem);
        if next == 0 {
            break;
        }
        node = NodeRef { addr: next };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{arena_budget, bulk_build};
    use crate::validate::validate;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn tree_with(n: u64) -> (GlobalMemory, TreeHandle) {
        let mem = GlobalMemory::new(arena_budget(n as usize, 4 * n as usize + 64));
        let pairs: Vec<(u64, u64)> = (1..=n).map(|i| (2 * i, 2 * i + 1)).collect();
        let t = bulk_build(&mem, &pairs);
        (mem, t)
    }

    #[test]
    fn get_finds_loaded_keys() {
        let (mem, t) = tree_with(1000);
        assert_eq!(get(&mem, &t, 2), Some(3));
        assert_eq!(get(&mem, &t, 1000), Some(1001));
        assert_eq!(get(&mem, &t, 2000), Some(2001));
        assert_eq!(get(&mem, &t, 3), None);
        assert_eq!(get(&mem, &t, 99_999), None);
    }

    #[test]
    fn upsert_updates_in_place() {
        let (mem, t) = tree_with(100);
        assert_eq!(upsert(&mem, &t, 10, 555), Some(11));
        assert_eq!(get(&mem, &t, 10), Some(555));
    }

    #[test]
    fn upsert_inserts_new_keys_with_splits() {
        let (mem, t) = tree_with(100);
        // Insert all the odd keys — forces many leaf splits.
        for i in 0..100u64 {
            assert_eq!(upsert(&mem, &t, 2 * i + 1, i), None);
        }
        for i in 0..100u64 {
            assert_eq!(get(&mem, &t, 2 * i + 1), Some(i));
        }
        // Originals still present.
        for i in 1..=100u64 {
            assert_eq!(get(&mem, &t, 2 * i), Some(2 * i + 1));
        }
        validate(&mem, &t).unwrap();
    }

    #[test]
    fn insert_below_global_minimum() {
        let (mem, t) = tree_with(500);
        assert_eq!(upsert(&mem, &t, 1, 42), None);
        assert_eq!(get(&mem, &t, 1), Some(42));
        validate(&mem, &t).unwrap();
    }

    #[test]
    fn delete_removes_and_returns_old() {
        let (mem, t) = tree_with(200);
        assert_eq!(delete(&mem, &t, 50), Some(51));
        assert_eq!(get(&mem, &t, 50), None);
        assert_eq!(delete(&mem, &t, 50), None);
        validate(&mem, &t).unwrap();
    }

    #[test]
    fn delete_then_reinsert() {
        let (mem, t) = tree_with(50);
        delete(&mem, &t, 20).unwrap();
        assert_eq!(upsert(&mem, &t, 20, 7), None);
        assert_eq!(get(&mem, &t, 20), Some(7));
    }

    #[test]
    fn range_collects_per_offset() {
        let (mem, t) = tree_with(100);
        // Keys 10..=13: 10 and 12 exist.
        let r = range(&mem, &t, 10, 4);
        assert_eq!(r, vec![Some(11), None, Some(13), None]);
    }

    #[test]
    fn range_spanning_many_leaves() {
        let (mem, t) = tree_with(1000);
        let r = range(&mem, &t, 2, 100);
        for off in 0..100u64 {
            let k = 2 + off;
            let expect = if k % 2 == 0 { Some(k + 1) } else { None };
            assert_eq!(r[off as usize], expect, "key {k}");
        }
    }

    #[test]
    fn contents_match_inserted_set() {
        let (mem, t) = tree_with(300);
        upsert(&mem, &t, 7, 70);
        delete(&mem, &t, 4);
        let c = contents(&mem, &t);
        assert_eq!(c.len(), 300);
        assert!(c.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(c.contains(&(7, 70)));
        assert!(!c.iter().any(|&(k, _)| k == 4));
    }

    #[test]
    fn split_bumps_version() {
        let (mem, t) = tree_with(100);
        let mut node = NodeRef { addr: t.root(&mem) };
        while !node.is_leaf(&mem) {
            node = NodeRef {
                addr: node.val(&mem, 0),
            };
        }
        let v0 = node.version(&mem);
        // Fill this leaf until it splits: insert odd keys just above its
        // min until the version changes.
        let base = node.min_key(&mem);
        for d in 0..10u64 {
            upsert(&mem, &t, base + 2 * d + 1, 0);
        }
        assert!(node.version(&mem) > v0, "leaf split must bump version");
    }

    #[test]
    fn randomized_against_btreemap() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let (mem, t) = tree_with(500);
        let mut model: std::collections::BTreeMap<u64, u64> =
            (1..=500u64).map(|i| (2 * i, 2 * i + 1)).collect();
        let mut keys: Vec<u64> = (1..=1000).collect();
        keys.shuffle(&mut rng);
        for (step, &k) in keys.iter().enumerate() {
            match step % 3 {
                0 => {
                    let v = rng.gen::<u32>() as u64;
                    assert_eq!(upsert(&mem, &t, k, v), model.insert(k, v), "upsert {k}");
                }
                1 => {
                    assert_eq!(delete(&mem, &t, k), model.remove(&k), "delete {k}");
                }
                _ => {
                    assert_eq!(get(&mem, &t, k), model.get(&k).copied(), "get {k}");
                }
            }
        }
        let c = contents(&mem, &t);
        let m: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(c, m);
        validate(&mem, &t).unwrap();
    }
}
