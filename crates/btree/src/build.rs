//! Host-side bulk build of the tree and the tree handle.

use crate::node::{build_fill_for, NodeRef, BUILD_FILL, MIN_OCCUPANCY};
use eirene_sim::{Addr, GlobalMemory};

/// Handle to a tree living in device memory. Three words of state, all in
/// the arena so device code can reach them: the current root address and
/// the height (the root changes when a root split occurs), and the
/// inner-structure generation.
#[derive(Clone, Copy, Debug)]
pub struct TreeHandle {
    /// Arena word holding the root node address.
    pub root_word: Addr,
    /// Arena word holding the height (number of levels; 1 = root is leaf).
    pub height_word: Addr,
    /// Arena word counting the inner nodes born or retired by the
    /// structure changes in [`ops`](crate::ops): every split of an inner
    /// node or of the root, every inner merge and every root collapse bumps
    /// it, leaf splits and merges do not. A tree that changes its structure
    /// by other means (the lock baseline's latch-coupled splits) leaves it
    /// alone. Host-visible bookkeeping, written uncharged and never rolled
    /// back (an aborted split still counts), so it only ever over-reports a
    /// change.
    pub gen_word: Addr,
}

impl TreeHandle {
    /// Allocates the handle's three words (zeroed: no root, generation 0).
    pub fn alloc(mem: &GlobalMemory) -> Self {
        let root_word = mem.alloc(3);
        TreeHandle {
            root_word,
            height_word: root_word + 1,
            gen_word: root_word + 2,
        }
    }

    pub fn root(&self, mem: &GlobalMemory) -> Addr {
        mem.read(self.root_word)
    }

    pub fn height(&self, mem: &GlobalMemory) -> u64 {
        mem.read(self.height_word)
    }

    pub fn set_root(&self, mem: &GlobalMemory, root: Addr, height: u64) {
        mem.write(self.root_word, root);
        mem.write(self.height_word, height);
    }

    /// The inner-structure generation (see [`gen_word`](Self::gen_word)).
    pub fn inner_gen(&self, mem: &GlobalMemory) -> u64 {
        mem.read(self.gen_word)
    }

    /// Counts one inner node born or retired.
    pub fn bump_inner_gen(&self, mem: &GlobalMemory) {
        mem.fetch_add(self.gen_word, 1);
    }
}

/// Bulk-builds a B+tree from key/value pairs sorted by key (strictly
/// ascending). Returns the handle.
///
/// Leaves are filled to [`BUILD_FILL`] of [`FANOUT`](crate::FANOUT)
/// entries (75%), leaving headroom for inserts, and linked through their
/// `NEXT` fields. Upper levels are built the same way over
/// `(min key, child)` fence entries. Finally the RF (range field) of each
/// leaf is initialized per §5: leaf `i`'s RF is the minimal key of leaf
/// `i + height + 1` (the first leaf for which a horizontal walk from leaf
/// `i` costs more than a vertical descent), or `u64::MAX` if there is no
/// such leaf.
///
/// # Panics
/// Panics if `pairs` is empty or not strictly ascending by key.
pub fn bulk_build(mem: &GlobalMemory, pairs: &[(u64, u64)]) -> TreeHandle {
    assert!(!pairs.is_empty(), "cannot build an empty tree");
    assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "bulk_build requires strictly ascending keys"
    );

    // Level 0: leaves (staggered fill; see `build_fill_for`).
    let mut leaves: Vec<NodeRef> = Vec::new();
    let mut entries: Vec<(u64, Addr)> = Vec::new(); // fences for next level
    for chunk in StaggeredChunks::new(pairs) {
        let leaf = NodeRef::alloc(mem, true);
        for (i, &(k, v)) in chunk.iter().enumerate() {
            leaf.set_key(mem, i, k);
            leaf.set_val(mem, i, v);
        }
        leaf.set_count(mem, chunk.len());
        leaf.set_low(mem, if leaves.is_empty() { 0 } else { chunk[0].0 });
        if let Some(prev) = leaves.last() {
            prev.set_next(mem, leaf.addr);
            prev.set_high(mem, chunk[0].0);
        }
        entries.push((chunk[0].0, leaf.addr));
        leaves.push(leaf);
    }

    // Upper levels.
    let mut height = 1u64;
    while entries.len() > 1 {
        let mut next_entries = Vec::with_capacity(entries.len().div_ceil(BUILD_FILL));
        let mut prev: Option<NodeRef> = None;
        for chunk in StaggeredChunks::new(&entries) {
            let inner = NodeRef::alloc(mem, false);
            for (i, &(k, child)) in chunk.iter().enumerate() {
                inner.set_key(mem, i, k);
                inner.set_val(mem, i, child);
            }
            inner.set_count(mem, chunk.len());
            inner.set_low(mem, if prev.is_none() { 0 } else { chunk[0].0 });
            if let Some(p) = prev {
                p.set_next(mem, inner.addr);
                p.set_high(mem, chunk[0].0);
            }
            prev = Some(inner);
            next_entries.push((chunk[0].0, inner.addr));
        }
        entries = next_entries;
        height += 1;
    }

    // Initialize leaf RF values.
    let skip = (height + 1) as usize;
    for i in 0..leaves.len() {
        let rf = if i + skip < leaves.len() {
            leaves[i + skip].min_key(mem)
        } else {
            u64::MAX
        };
        leaves[i].set_rf(mem, rf);
    }

    let handle = TreeHandle::alloc(mem);
    handle.set_root(mem, entries[0].1, height);
    handle
}

/// Iterator over slices of staggered [`build_fill_for`] lengths.
struct StaggeredChunks<'a, T> {
    rest: &'a [T],
    idx: usize,
}

impl<'a, T> StaggeredChunks<'a, T> {
    fn new(items: &'a [T]) -> Self {
        StaggeredChunks {
            rest: items,
            idx: 0,
        }
    }
}

impl<'a, T> Iterator for StaggeredChunks<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        if self.rest.is_empty() {
            return None;
        }
        let mut take = build_fill_for(self.idx).min(self.rest.len());
        // Never strand a runt: if taking the staggered fill would leave a
        // tail below MIN_OCCUPANCY, split the remainder evenly instead —
        // both halves land in [5, 9], inside the rebalancing floor and
        // the insert-headroom ceiling. (A whole level smaller than the
        // floor is fine: it becomes the root, which is exempt.)
        let rem = self.rest.len() - take;
        if rem > 0 && rem < MIN_OCCUPANCY {
            take = self.rest.len() / 2;
        }
        self.idx += 1;
        let (chunk, rest) = self.rest.split_at(take);
        self.rest = rest;
        Some(chunk)
    }
}

/// Arena words needed to hold a tree of `n` pairs built by [`bulk_build`],
/// plus `extra_nodes` headroom for splits. Used to size devices.
pub fn arena_budget(n: usize, extra_nodes: usize) -> usize {
    // Stride is 48 words per node once 16-word alignment is included.
    let stride = 48;
    let mut nodes = 0usize;
    // Minimum staggered fill is 10, so divide by 10 for a safe bound.
    let min_fill = BUILD_FILL - 2;
    let mut level = n.div_ceil(min_fill).max(1);
    loop {
        nodes += level;
        if level == 1 {
            break;
        }
        level = level.div_ceil(min_fill);
    }
    (nodes + extra_nodes) * stride + 4096
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FANOUT;

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let mem = GlobalMemory::new(1 << 12);
        let h = bulk_build(&mem, &pairs(5));
        assert_eq!(h.height(&mem), 1);
        let root = NodeRef { addr: h.root(&mem) };
        assert!(root.is_leaf(&mem));
        assert_eq!(root.count(&mem), 5);
        assert_eq!(root.key(&mem, 0), 2);
        assert_eq!(root.val(&mem, 0), 3);
    }

    #[test]
    fn two_level_tree() {
        let mem = GlobalMemory::new(1 << 14);
        let h = bulk_build(&mem, &pairs(100));
        assert_eq!(h.height(&mem), 2);
        let root = NodeRef { addr: h.root(&mem) };
        assert!(!root.is_leaf(&mem));
        // Fences in the root are the min keys of the leaves.
        let c0 = NodeRef {
            addr: root.val(&mem, 0),
        };
        assert_eq!(root.key(&mem, 0), c0.min_key(&mem));
    }

    #[test]
    fn leaves_are_linked_in_order() {
        let mem = GlobalMemory::new(1 << 16);
        let h = bulk_build(&mem, &pairs(500));
        // Descend to leftmost leaf.
        let mut node = NodeRef { addr: h.root(&mem) };
        while !node.is_leaf(&mem) {
            node = NodeRef {
                addr: node.val(&mem, 0),
            };
        }
        let mut seen = 0;
        let mut last_key = 0;
        loop {
            for i in 0..node.count(&mem) {
                let k = node.key(&mem, i);
                assert!(k > last_key);
                last_key = k;
                seen += 1;
            }
            let next = node.next(&mem);
            if next == 0 {
                break;
            }
            node = NodeRef { addr: next };
        }
        assert_eq!(seen, 500);
    }

    #[test]
    fn build_fill_leaves_insert_headroom() {
        let mem = GlobalMemory::new(1 << 16);
        let h = bulk_build(&mem, &pairs(300));
        let mut node = NodeRef { addr: h.root(&mem) };
        while !node.is_leaf(&mem) {
            node = NodeRef {
                addr: node.val(&mem, 0),
            };
        }
        let mut counts = Vec::new();
        loop {
            assert!(node.count(&mem) <= BUILD_FILL + 2);
            assert!(
                node.count(&mem) < FANOUT,
                "every leaf keeps insert headroom"
            );
            counts.push(node.count(&mem));
            let next = node.next(&mem);
            if next == 0 {
                break;
            }
            node = NodeRef { addr: next };
        }
        // Fill must actually be staggered, not uniform.
        let distinct: std::collections::HashSet<_> = counts[..counts.len() - 1].iter().collect();
        assert!(
            distinct.len() >= 3,
            "staggered fill expected, got {counts:?}"
        );
    }

    #[test]
    fn rf_points_height_plus_one_leaves_ahead() {
        let mem = GlobalMemory::new(1 << 16);
        let h = bulk_build(&mem, &pairs(300));
        let height = h.height(&mem) as usize;
        // Collect leaves.
        let mut node = NodeRef { addr: h.root(&mem) };
        while !node.is_leaf(&mem) {
            node = NodeRef {
                addr: node.val(&mem, 0),
            };
        }
        let mut leaves = vec![node];
        while leaves.last().unwrap().next(&mem) != 0 {
            leaves.push(NodeRef {
                addr: leaves.last().unwrap().next(&mem),
            });
        }
        for (i, leaf) in leaves.iter().enumerate() {
            let expect = if i + height + 1 < leaves.len() {
                leaves[i + height + 1].min_key(&mem)
            } else {
                u64::MAX
            };
            assert_eq!(leaf.rf(&mem), expect, "leaf {i}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_input() {
        let mem = GlobalMemory::new(1 << 12);
        bulk_build(&mem, &[(3, 0), (2, 0)]);
    }

    #[test]
    fn arena_budget_is_sufficient() {
        let n = 10_000;
        let mem = GlobalMemory::new(arena_budget(n, 64));
        let h = bulk_build(&mem, &pairs(n as u64));
        assert!(h.height(&mem) >= 4);
    }
}
