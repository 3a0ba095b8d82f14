//! The B+tree algorithm, written once over a [`NodeAccess`] policy.
//!
//! Top-down and preemptive, the way the device runs it: an insert-capable
//! descent splits every full node it meets while the parent is in hand, a
//! merge-capable descent borrows into or merges every at-floor child
//! before stepping into it and collapses a single-child root, so a leaf
//! operation never propagates back up. Leaves are reached Lehman-Yao
//! style: splits only move keys right, so hopping right from any leaf at
//! or left of the target is always correct.
//!
//! Instantiated with [`TxAccess`](crate::access::TxAccess) by the STM
//! GB-tree baseline (every request one transaction) and by Eirene's update
//! kernel (leaf region, plus the full descent as its fallback once the
//! optimistic retry threshold is exceeded — Alg. 1 lines 27-46), and with
//! [`Direct`](crate::access::Direct) by the host-side [`refops`](crate::refops).

use crate::access::{NodeAccess, Step};
use crate::build::TreeHandle;
use crate::node::{
    meta_count, meta_is_dead, meta_is_leaf, pack_meta, FANOUT, META_DEAD, MIN_OCCUPANCY, OFF_HIGH,
    OFF_KEYS, OFF_LOW, OFF_META, OFF_NEXT, OFF_RF, OFF_VALS, OFF_VERSION,
};
use eirene_sim::{Addr, Phase, TraceEventKind};

/// Sentinel for "no previous value".
pub const NO_VALUE: u64 = u64::MAX;

#[inline]
fn key_word(node: Addr, slot: usize) -> Addr {
    node + OFF_KEYS + slot as u64
}

#[inline]
fn val_word(node: Addr, slot: usize) -> Addr {
    node + OFF_VALS + slot as u64
}

/// Runs `body` with costs attributed to `phase`. The previous phase is
/// restored on every exit, including an abort leaving `body` through `?`.
fn in_phase<A: NodeAccess, T>(
    a: &mut A,
    phase: Phase,
    body: impl FnOnce(&mut A) -> Result<T, A::Abort>,
) -> Result<T, A::Abort> {
    let prev = a.set_phase(phase);
    let r = body(a);
    a.set_phase(prev);
    r
}

/// Copies entry `i` of node `from` to slot `j` of node `to`.
fn move_entry<A: NodeAccess>(
    a: &mut A,
    from: Addr,
    i: usize,
    to: Addr,
    j: usize,
) -> Result<(), A::Abort> {
    let k = a.read(key_word(from, i))?;
    let v = a.read(val_word(from, i))?;
    a.write(key_word(to, j), k)?;
    a.write(val_word(to, j), v)
}

/// Shifts entries `at..count` one slot right, leaving slot `at` free.
fn open_slot<A: NodeAccess>(
    a: &mut A,
    node: Addr,
    at: usize,
    count: usize,
) -> Result<(), A::Abort> {
    for i in (at..count).rev() {
        move_entry(a, node, i, node, i + 1)?;
    }
    Ok(())
}

/// Shifts entries `at + 1..count` one slot left over slot `at` and marks
/// the vacated last slot empty.
fn close_slot<A: NodeAccess>(
    a: &mut A,
    node: Addr,
    at: usize,
    count: usize,
) -> Result<(), A::Abort> {
    for i in at..count - 1 {
        move_entry(a, node, i + 1, node, i)?;
    }
    a.write(key_word(node, count - 1), u64::MAX)
}

/// The validation signal of §4.2: optimistic readers holding a snapshot
/// of a node that split, merged or rotated fail their version check.
fn bump_version<A: NodeAccess>(a: &mut A, node: Addr) -> Result<(), A::Abort> {
    let v = a.read(node + OFF_VERSION)?;
    a.write(node + OFF_VERSION, v + 1)
}

/// Tombstones an unlinked node (dead bit + version bump) and hands it to
/// the policy for retirement. Its `NEXT` and `HIGH` stay intact for
/// same-epoch stale readers walking the chain.
fn retire_node<A: NodeAccess>(a: &mut A, node: Addr, meta: u64) -> Result<(), A::Abort> {
    a.write(node + OFF_META, meta | META_DEAD)?;
    bump_version(a, node)?;
    a.retire_node(node);
    Ok(())
}

/// Binary search for the descent slot in an inner node — the last entry
/// whose fence is `<= key`, or 0 if all fences exceed it: `O(log FANOUT)`
/// probes, each one access.
fn child_slot<A: NodeAccess>(
    a: &mut A,
    node: Addr,
    count: usize,
    key: u64,
) -> Result<usize, A::Abort> {
    let mut lo = 0usize; // invariant: keys[lo] <= key or lo == 0
    let mut hi = count; // invariant: keys[hi] > key (virtual +inf)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let k = a.read(key_word(node, mid))?;
        a.control(2);
        if k <= key {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Searches a leaf for `key`: `Ok(slot)` where it is, or `Err(slot)`
/// where it would be inserted, as `slice::binary_search` answers.
fn search<A: NodeAccess>(
    a: &mut A,
    leaf: Addr,
    count: usize,
    key: u64,
) -> Result<Result<usize, usize>, A::Abort> {
    if count == 0 {
        return Ok(Err(0));
    }
    let slot = child_slot(a, leaf, count, key)?;
    let k = a.read(key_word(leaf, slot))?;
    a.control(1);
    // `child_slot` gives the last key `<= key`, or slot 0 when every key
    // is larger.
    Ok(match k.cmp(&key) {
        std::cmp::Ordering::Equal => Ok(slot),
        std::cmp::Ordering::Less => Err(slot + 1),
        std::cmp::Ordering::Greater => Err(slot),
    })
}

/// Where a split publishes its new fence.
enum SplitParent {
    /// Insert the fence into this (non-full) parent: `(address, child
    /// slot, count)`.
    Node(Addr, usize, usize),
    /// The split node is the root: build a new root.
    Root,
}

/// Splits the full node `addr`: the upper half moves to a fresh right
/// sibling, the fence is published in `parent` (or in a new root), the
/// version bumps.
fn split<A: NodeAccess>(
    a: &mut A,
    handle: &TreeHandle,
    parent: SplitParent,
    addr: Addr,
    leaf: bool,
) -> Result<(), A::Abort> {
    in_phase(a, Phase::StructureMod, |a| {
        if !leaf || matches!(parent, SplitParent::Root) {
            // An inner sibling or a new root is born.
            a.bump_inner_gen(handle);
        }
        let half = FANOUT / 2;
        let raddr = a.alloc_node();
        for i in half..FANOUT {
            move_entry(a, addr, i, raddr, i - half)?;
            a.write(key_word(addr, i), u64::MAX)?;
        }
        // Remaining sibling key slots start zeroed; mark them empty.
        for i in (FANOUT - half)..FANOUT {
            a.write(key_word(raddr, i), u64::MAX)?;
        }
        // The sibling inherits the RF bound of the node it split from (§5:
        // RF values are heuristics, refreshed lazily by overshooting
        // traversals).
        let rf = a.read(addr + OFF_RF)?;
        a.write(raddr + OFF_RF, rf)?;
        let next = a.read(addr + OFF_NEXT)?;
        a.write(raddr + OFF_NEXT, next)?;
        a.write(raddr + OFF_META, pack_meta(leaf, false, FANOUT - half))?;
        let rfence = a.read(raddr + OFF_KEYS)?;
        // Lehman-Yao bounds: the sibling inherits the node's high key, the
        // node's new high key is the fence.
        let high = a.read(addr + OFF_HIGH)?;
        a.write(raddr + OFF_HIGH, high)?;
        a.write(raddr + OFF_LOW, rfence)?;
        a.write(addr + OFF_HIGH, rfence)?;
        a.write(addr + OFF_NEXT, raddr)?;
        a.write(addr + OFF_META, pack_meta(leaf, false, half))?;
        bump_version(a, addr)?;

        match parent {
            SplitParent::Node(paddr, slot, pcount) => {
                // Clamp case (leftmost spine): the split child may hold
                // keys below its parent fence; lower the stale fence to the
                // child's true bound so the inserted fence keeps the order.
                let pfence = a.read(key_word(paddr, slot))?;
                if rfence < pfence {
                    let child_low = a.read(addr + OFF_LOW)?;
                    a.write(key_word(paddr, slot), child_low)?;
                }
                debug_assert!(pcount < FANOUT);
                open_slot(a, paddr, slot + 1, pcount)?;
                a.write(key_word(paddr, slot + 1), rfence)?;
                a.write(val_word(paddr, slot + 1), raddr)?;
                a.write(paddr + OFF_META, pack_meta(false, false, pcount + 1))?;
            }
            SplitParent::Root => {
                // New root with two fences.
                let new_root = a.alloc_node();
                let k0 = a.read(addr + OFF_KEYS)?;
                for i in 2..FANOUT {
                    a.write(key_word(new_root, i), u64::MAX)?;
                }
                a.write(new_root + OFF_KEYS, k0)?;
                a.write(new_root + OFF_VALS, addr)?;
                a.write(key_word(new_root, 1), rfence)?;
                a.write(val_word(new_root, 1), raddr)?;
                a.write(new_root + OFF_RF, u64::MAX)?;
                a.write(new_root + OFF_HIGH, u64::MAX)?;
                a.write(new_root + OFF_META, pack_meta(false, false, 2))?;
                a.write(handle.root_word, new_root)?;
                let h = a.read(handle.height_word)?;
                a.write(handle.height_word, h + 1)?;
            }
        }
        a.control(8);
        a.emit(TraceEventKind::NodeSplit, addr);
        Ok(())
    })
}

/// Splits the full leaf `leaf` under `parent`, whose entry `slot` was
/// found pointing at it by an unprotected traversal, and hops to the half
/// owning `key`: returns that half and its count. Everything is re-read
/// through `a` and every index is bounded by [`FANOUT`], since a doomed
/// transaction can see torn words. Returns `None`, having written nothing,
/// unless `parent` is a live inner node with `slot < count < FANOUT` whose
/// entry `slot` is still `leaf`: a split that would have to propagate is
/// left to the split-capable [`descend`].
pub fn split_leaf_in_parent<A: NodeAccess>(
    a: &mut A,
    handle: &TreeHandle,
    (parent, slot): (Addr, usize),
    leaf: Addr,
    key: u64,
) -> Result<Option<(Addr, usize)>, A::Abort> {
    let pmeta = a.read(parent + OFF_META)?;
    let pcount = meta_count(pmeta);
    a.control(2);
    if meta_is_leaf(pmeta) || meta_is_dead(pmeta) || slot >= pcount || pcount >= FANOUT {
        return Ok(None);
    }
    if a.read(val_word(parent, slot))? != leaf {
        return Ok(None);
    }
    let under = SplitParent::Node(parent, slot, pcount);
    split(a, handle, under, leaf, true)?;
    hop_right(a, leaf, FANOUT / 2, key).map(Some)
}

/// Right-hops across the leaf chain until reaching the leaf responsible
/// for `key`. Returns the leaf address and count.
pub fn hop_right<A: NodeAccess>(
    a: &mut A,
    mut addr: Addr,
    mut count: usize,
    key: u64,
) -> Result<(Addr, usize), A::Abort> {
    in_phase(a, Phase::HorizontalTraversal, |a| {
        loop {
            let high = a.read(addr + OFF_HIGH)?;
            a.control(1);
            if key < high {
                break;
            }
            let next = a.read(addr + OFF_NEXT)?;
            if next == 0 {
                break;
            }
            a.step(Step::Horizontal);
            addr = next;
            count = meta_count(a.read(addr + OFF_META)?);
        }
        Ok((addr, count))
    })
}

/// Descends from the root to the leaf owning `key`. With `may_insert`, any
/// full node on the path is split and the descent restarts (observing its
/// own split); the returned leaf then always has room. Returns (leaf
/// address, leaf count).
pub fn descend<A: NodeAccess>(
    a: &mut A,
    handle: &TreeHandle,
    key: u64,
    may_insert: bool,
) -> Result<(Addr, usize), A::Abort> {
    in_phase(a, Phase::VerticalTraversal, |a| 'restart: loop {
        a.step(Step::Descent);
        let mut parent = SplitParent::Root;
        let mut cur = a.read(handle.root_word)?;
        loop {
            let meta = a.read(cur + OFF_META)?;
            a.step(Step::Vertical);
            a.control(2);
            let count = meta_count(meta);
            let leaf = meta_is_leaf(meta);
            if may_insert && count == FANOUT {
                split(a, handle, parent, cur, leaf)?;
                continue 'restart;
            }
            if leaf {
                let (cur_l, count_l) = hop_right(a, cur, count, key)?;
                if may_insert && count_l == FANOUT && cur_l != cur {
                    // Hopped onto a full leaf whose parent we do not hold.
                    // Committed state always publishes fences, so this can
                    // only be a transient view of another writer's split —
                    // restart the descent, which will land on the leaf via
                    // its fence path (with the parent in hand).
                    continue 'restart;
                }
                return Ok((cur_l, count_l));
            }
            let slot = child_slot(a, cur, count, key)?;
            let child = a.read(val_word(cur, slot))?;
            parent = SplitParent::Node(cur, slot, count);
            cur = child;
        }
    })
}

/// Descent that keeps every node on the path above the occupancy floor:
/// any child at or below [`MIN_OCCUPANCY`] is rebalanced (borrow from a
/// richer sibling, else merge) *before* descending into it, and a
/// single-child inner root is collapsed, so the returned leaf can always
/// lose one entry without underflowing. Returns `(leaf address, leaf
/// count, floor)` where `floor` is the occupancy bound to pass to
/// [`delete_at_leaf`] (zero when the leaf is the root, which is exempt).
fn descend_merging<A: NodeAccess>(
    a: &mut A,
    handle: &TreeHandle,
    key: u64,
) -> Result<(Addr, usize, usize), A::Abort> {
    in_phase(a, Phase::VerticalTraversal, |a| 'restart: loop {
        a.step(Step::Descent);
        let mut cur = a.read(handle.root_word)?;
        let mut meta = a.read(cur + OFF_META)?;
        a.control(2);
        // A single-child inner root is replaced by its child before the
        // descent, shrinking the height. The promoted child already spans
        // the full key range, so no re-fencing is needed.
        while !meta_is_leaf(meta) && meta_count(meta) == 1 {
            let child = a.read(cur + OFF_VALS)?;
            a.bump_inner_gen(handle);
            a.write(handle.root_word, child)?;
            let h = a.read(handle.height_word)?;
            a.write(handle.height_word, h - 1)?;
            retire_node(a, cur, meta)?;
            cur = child;
            meta = a.read(cur + OFF_META)?;
        }
        let mut at_root = true;
        loop {
            a.step(Step::Vertical);
            a.control(2);
            let count = meta_count(meta);
            if meta_is_leaf(meta) {
                let (cur_l, count_l) = hop_right(a, cur, count, key)?;
                if cur_l != cur && count_l <= MIN_OCCUPANCY {
                    // Hopped onto an at-floor leaf whose parent we do not
                    // hold; restart — the fence path reaches it with the
                    // parent in hand and rebalances it preemptively.
                    continue 'restart;
                }
                let floor = if at_root && cur_l == cur {
                    0
                } else {
                    MIN_OCCUPANCY
                };
                return Ok((cur_l, count_l, floor));
            }
            let slot = child_slot(a, cur, count, key)?;
            let child = a.read(val_word(cur, slot))?;
            let cmeta = a.read(child + OFF_META)?;
            if meta_count(cmeta) <= MIN_OCCUPANCY && count > 1 {
                fix_child(a, handle, cur, count, slot, meta_is_leaf(cmeta))?;
                continue 'restart;
            }
            at_root = false;
            cur = child;
            meta = cmeta;
        }
    })
}

/// Rebalances the at-floor child at `slot`: borrows from an adjacent
/// sibling with slack, else merges with one (both at the floor, so the
/// merged node holds at most `2 * MIN_OCCUPANCY <= FANOUT` entries).
fn fix_child<A: NodeAccess>(
    a: &mut A,
    handle: &TreeHandle,
    parent: Addr,
    pcount: usize,
    slot: usize,
    leaf: bool,
) -> Result<(), A::Abort> {
    in_phase(a, Phase::StructureMod, |a| {
        let child = a.read(val_word(parent, slot))?;
        let ccount = meta_count(a.read(child + OFF_META)?);
        a.control(4);
        if slot + 1 < pcount {
            let right = a.read(val_word(parent, slot + 1))?;
            let rcount = meta_count(a.read(right + OFF_META)?);
            if rcount > MIN_OCCUPANCY {
                return borrow_from_right(a, parent, slot, child, ccount, right, rcount, leaf);
            }
        }
        if slot > 0 {
            let left = a.read(val_word(parent, slot - 1))?;
            let lcount = meta_count(a.read(left + OFF_META)?);
            if lcount > MIN_OCCUPANCY {
                return borrow_from_left(a, parent, slot, left, lcount, child, ccount, leaf);
            }
        }
        let right_slot = if slot + 1 < pcount { slot + 1 } else { slot };
        if !leaf {
            a.bump_inner_gen(handle);
        }
        merge_into_left(a, parent, pcount, right_slot, leaf)
    })
}

/// Moves the right sibling's first entry onto the child's end. The
/// boundary triple moves together: the parent fence, the donor's low key,
/// and the receiver's high key all become the donor's new minimum.
#[allow(clippy::too_many_arguments)]
fn borrow_from_right<A: NodeAccess>(
    a: &mut A,
    parent: Addr,
    slot: usize,
    left: Addr,
    lcount: usize,
    right: Addr,
    rcount: usize,
    leaf: bool,
) -> Result<(), A::Abort> {
    move_entry(a, right, 0, left, lcount)?;
    a.write(left + OFF_META, pack_meta(leaf, false, lcount + 1))?;
    close_slot(a, right, 0, rcount)?;
    a.write(right + OFF_META, pack_meta(leaf, false, rcount - 1))?;
    let fence = a.read(right + OFF_KEYS)?;
    a.write(key_word(parent, slot + 1), fence)?;
    a.write(right + OFF_LOW, fence)?;
    a.write(left + OFF_HIGH, fence)?;
    bump_version(a, left)?;
    bump_version(a, right)?;
    a.control(4);
    Ok(())
}

/// Moves the left sibling's last entry onto the child's front; the
/// boundary triple (parent fence, child low, donor high) follows it.
#[allow(clippy::too_many_arguments)]
fn borrow_from_left<A: NodeAccess>(
    a: &mut A,
    parent: Addr,
    slot: usize,
    left: Addr,
    lcount: usize,
    child: Addr,
    ccount: usize,
    leaf: bool,
) -> Result<(), A::Abort> {
    let k = a.read(key_word(left, lcount - 1))?;
    let v = a.read(val_word(left, lcount - 1))?;
    a.write(key_word(left, lcount - 1), u64::MAX)?;
    a.write(left + OFF_META, pack_meta(leaf, false, lcount - 1))?;
    open_slot(a, child, 0, ccount)?;
    a.write(child + OFF_KEYS, k)?;
    a.write(child + OFF_VALS, v)?;
    a.write(child + OFF_META, pack_meta(leaf, false, ccount + 1))?;
    a.write(key_word(parent, slot), k)?;
    a.write(child + OFF_LOW, k)?;
    a.write(left + OFF_HIGH, k)?;
    bump_version(a, left)?;
    bump_version(a, child)?;
    a.control(4);
    Ok(())
}

/// Merges the node at `right_slot` into its left sibling: the absorbed
/// node's entries are appended, the left node inherits its `NEXT` and
/// `HIGH` (keeping the leaf chain abutting), the parent entry is removed,
/// and the absorbed node is tombstoned and retired.
fn merge_into_left<A: NodeAccess>(
    a: &mut A,
    parent: Addr,
    pcount: usize,
    right_slot: usize,
    leaf: bool,
) -> Result<(), A::Abort> {
    let left = a.read(val_word(parent, right_slot - 1))?;
    let right = a.read(val_word(parent, right_slot))?;
    let lcount = meta_count(a.read(left + OFF_META)?);
    let rmeta = a.read(right + OFF_META)?;
    let rcount = meta_count(rmeta);
    debug_assert!(lcount + rcount <= FANOUT, "merge would overflow the node");
    for i in 0..rcount {
        move_entry(a, right, i, left, lcount + i)?;
    }
    let rnext = a.read(right + OFF_NEXT)?;
    let rhigh = a.read(right + OFF_HIGH)?;
    a.write(left + OFF_NEXT, rnext)?;
    a.write(left + OFF_HIGH, rhigh)?;
    a.write(left + OFF_META, pack_meta(leaf, false, lcount + rcount))?;
    bump_version(a, left)?;
    // Remove the parent's entry for the absorbed node.
    close_slot(a, parent, right_slot, pcount)?;
    a.write(parent + OFF_META, pack_meta(false, false, pcount - 1))?;
    retire_node(a, right, rmeta)?;
    a.emit(TraceEventKind::NodeMerge, right);
    a.control(8);
    Ok(())
}

/// Outcome of a leaf-local upsert.
pub enum LeafUpsert {
    /// Applied; carries the previous value or [`NO_VALUE`].
    Done(u64),
    /// The key is absent and the leaf is full — the caller must take a
    /// split-capable path.
    Full,
}

/// Upserts `key` in the (already located) leaf. Does not split.
pub fn upsert_at_leaf<A: NodeAccess>(
    a: &mut A,
    leaf: Addr,
    count: usize,
    key: u64,
    val: u64,
) -> Result<LeafUpsert, A::Abort> {
    in_phase(a, Phase::LeafOp, |a| {
        let slot = match search(a, leaf, count, key)? {
            Ok(slot) => {
                let old = a.read(val_word(leaf, slot))?;
                a.write(val_word(leaf, slot), val)?;
                return Ok(LeafUpsert::Done(old));
            }
            Err(_) if count == FANOUT => return Ok(LeafUpsert::Full),
            Err(slot) => slot,
        };
        open_slot(a, leaf, slot, count)?;
        a.write(key_word(leaf, slot), key)?;
        a.write(val_word(leaf, slot), val)?;
        a.write(leaf + OFF_META, pack_meta(true, false, count + 1))?;
        Ok(LeafUpsert::Done(NO_VALUE))
    })
}

/// Outcome of a leaf-local delete.
pub enum LeafDelete {
    /// Applied (or the key was absent); carries the previous value or
    /// [`NO_VALUE`].
    Done(u64),
    /// The key is present but removing it would drop the leaf below
    /// `floor` — the caller must take a merge-capable path
    /// ([`delete_rebalancing`]). The leaf is left untouched.
    Underflow,
}

/// Deletes `key` from the (already located) leaf. Does not rebalance:
/// when the leaf sits at `floor` and holds the key, it escapes with
/// [`LeafDelete::Underflow`] instead of violating the occupancy floor.
/// Pass `floor = 0` to delete unconditionally (root leaves are exempt
/// from the floor).
pub fn delete_at_leaf<A: NodeAccess>(
    a: &mut A,
    leaf: Addr,
    count: usize,
    key: u64,
    floor: usize,
) -> Result<LeafDelete, A::Abort> {
    in_phase(a, Phase::LeafOp, |a| match search(a, leaf, count, key)? {
        Err(_) => Ok(LeafDelete::Done(NO_VALUE)),
        Ok(_) if count <= floor => Ok(LeafDelete::Underflow),
        Ok(slot) => {
            let old = a.read(val_word(leaf, slot))?;
            close_slot(a, leaf, slot, count)?;
            a.write(leaf + OFF_META, pack_meta(true, false, count - 1))?;
            Ok(LeafDelete::Done(old))
        }
    })
}

/// Full delete with rebalancing: a merging descent keeps the path above
/// the occupancy floor, so the leaf-local delete can never underflow.
/// Merged-away nodes and collapsed roots are tombstoned (`META_DEAD`) and
/// retired through the policy. Returns the previous value or
/// [`NO_VALUE`].
pub fn delete_rebalancing<A: NodeAccess>(
    a: &mut A,
    handle: &TreeHandle,
    key: u64,
) -> Result<u64, A::Abort> {
    let (leaf, count, floor) = descend_merging(a, handle, key)?;
    match delete_at_leaf(a, leaf, count, key, floor)? {
        LeafDelete::Done(old) => Ok(old),
        LeafDelete::Underflow => torn_view(a, leaf, "at the floor after a merging descent"),
    }
}

/// A body met a state its reads rule out, `claim` about `node`: on a torn
/// view ([`NodeAccess::torn`]) that is an abort, for the retry to decide;
/// on a view that still validates it is a bug, not a livelock.
#[track_caller]
pub fn torn_view<A: NodeAccess, T>(a: &mut A, node: Addr, claim: &str) -> Result<T, A::Abort> {
    match a.torn() {
        Some(abort) => Err(abort),
        None => panic!("node {node:#x}: {claim}, yet the view validates"),
    }
}

/// Reads `key`'s value from the (already located) leaf, or [`NO_VALUE`].
pub fn query_at_leaf<A: NodeAccess>(
    a: &mut A,
    leaf: Addr,
    count: usize,
    key: u64,
) -> Result<u64, A::Abort> {
    in_phase(a, Phase::LeafOp, |a| match search(a, leaf, count, key)? {
        Err(_) => Ok(NO_VALUE),
        Ok(slot) => a.read(val_word(leaf, slot)),
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Direct, TxAccess};
    use crate::build::{arena_budget, bulk_build};
    use crate::refops;
    use crate::validate::validate;
    use eirene_sim::{Device, DeviceConfig, WarpCtx, WarpStats};
    use eirene_stm::{Abort, Stm, TxScratch};

    fn setup(n: u64) -> (Device, TreeHandle, Stm) {
        let dev = Device::new(
            arena_budget(n as usize, 4 * n as usize + 64) + (1 << 14),
            DeviceConfig::test_small(),
        );
        let pairs: Vec<(u64, u64)> = (1..=n).map(|i| (2 * i, 2 * i + 1)).collect();
        let t = bulk_build(dev.mem(), &pairs);
        let stm = Stm::new(dev.mem(), 1 << 12);
        (dev, t, stm)
    }

    #[test]
    fn tx_descend_reaches_correct_leaf() {
        let (dev, t, stm) = setup(1000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let v = stm
            .run(&mut ctx, &mut scratch, 4, |tx, ctx| {
                let (addr, count) = descend(&mut TxAccess::new(tx, ctx), &t, 500, false)?;
                query_at_leaf(&mut TxAccess::new(tx, ctx), addr, count, 500)
            })
            .unwrap();
        assert_eq!(v, 501);
    }

    /// The one rule for a state the reads rule out: an abort on a view a
    /// commit has since overwritten, a panic naming the node on a view that
    /// still validates, and always a panic under `Direct`.
    #[test]
    fn a_torn_view_aborts_and_a_valid_one_panics() {
        let (dev, t, stm) = setup(200);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let (mut scratch, mut other) = (TxScratch::default(), TxScratch::default());
        let claim = |a: &mut dyn FnMut() -> Result<(), Abort>| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(a))
        };
        for overwritten in [true, false] {
            let mut tx = stm.begin(&mut scratch);
            let a = &mut TxAccess::new(&mut tx, &mut ctx);
            let (leaf, _) = descend(a, &t, 7, false).unwrap();
            if overwritten {
                // A commit rewrites a word the descent read, value unchanged.
                let mut writer = stm.begin(&mut other);
                let meta = dev.mem().read(leaf + OFF_META);
                writer.write(&mut ctx, leaf + OFF_META, meta).unwrap();
                writer.commit(&mut ctx).unwrap();
            }
            let a = &mut TxAccess::new(&mut tx, &mut ctx);
            let got = claim(&mut || torn_view(a, leaf, "the leaf contradicts itself"));
            if overwritten {
                assert_eq!(got.unwrap(), Err(Abort));
            } else {
                let msg = *got.unwrap_err().downcast::<String>().unwrap();
                assert!(
                    msg.starts_with(&format!("node {leaf:#x}: the leaf")),
                    "{msg}"
                );
            }
            tx.rollback(&mut ctx);
        }
        let direct = &mut Direct(dev.mem());
        let direct = claim(&mut || {
            torn_view::<_, ()>(direct, 64, "a contradiction").unwrap();
            Ok(())
        });
        assert!(direct.is_err());
    }

    #[test]
    fn tx_upsert_and_delete_roundtrip() {
        let (dev, t, stm) = setup(200);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        stm.run(&mut ctx, &mut scratch, 4, |tx, ctx| {
            let (addr, count) = descend(&mut TxAccess::new(tx, ctx), &t, 7, true)?;
            match upsert_at_leaf(&mut TxAccess::new(tx, ctx), addr, count, 7, 70)? {
                LeafUpsert::Done(old) => {
                    assert_eq!(old, NO_VALUE);
                    Ok(())
                }
                LeafUpsert::Full => unreachable!("descent guarantees room"),
            }
        })
        .unwrap();
        assert_eq!(refops::get(dev.mem(), &t, 7), Some(70));
        stm.run(&mut ctx, &mut scratch, 4, |tx, ctx| {
            let old = delete_rebalancing(&mut TxAccess::new(tx, ctx), &t, 7)?;
            assert_eq!(old, 70);
            Ok(())
        })
        .unwrap();
        assert_eq!(refops::get(dev.mem(), &t, 7), None);
        validate(dev.mem(), &t).unwrap();
    }

    #[test]
    fn tx_inserts_split_and_stay_valid() {
        let (dev, t, stm) = setup(100);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        for i in 0..100u64 {
            stm.run(&mut ctx, &mut scratch, 8, |tx, ctx| {
                let (addr, count) = descend(&mut TxAccess::new(tx, ctx), &t, 2 * i + 1, true)?;
                match upsert_at_leaf(&mut TxAccess::new(tx, ctx), addr, count, 2 * i + 1, i)? {
                    LeafUpsert::Done(_) => Ok(()),
                    LeafUpsert::Full => unreachable!(),
                }
            })
            .unwrap();
        }
        validate(dev.mem(), &t).unwrap();
        for i in 0..100u64 {
            assert_eq!(refops::get(dev.mem(), &t, 2 * i + 1), Some(i));
        }
    }

    #[test]
    fn aborted_split_rolls_back_cleanly() {
        let (dev, t, stm) = setup(100);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let before = refops::contents(dev.mem(), &t);
        // Force the leaf containing key 2 full, then run a tx that splits
        // and deliberately aborts.
        for d in 0..12u64 {
            refops::upsert(dev.mem(), &t, 3 + d * 2, 0);
        }
        let snapshot = refops::contents(dev.mem(), &t);
        assert!(snapshot.len() > before.len());
        let mut tx = stm.begin(&mut scratch);
        let r = descend(&mut TxAccess::new(&mut tx, &mut ctx), &t, 5_000_000, true);
        assert!(r.is_ok());
        tx.rollback(&mut ctx);
        assert_eq!(
            refops::contents(dev.mem(), &t),
            snapshot,
            "rollback must undo"
        );
        validate(dev.mem(), &t).unwrap();
    }

    #[test]
    fn aborted_split_retires_its_orphan_sibling() {
        let (dev, t, stm) = setup(100);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        // Fill the rightmost leaf to FANOUT so a split-capable descent
        // towards a huge key must split it.
        let mut k = 1_000u64;
        loop {
            let count = stm
                .run(&mut ctx, &mut scratch, 4, |tx, ctx| {
                    Ok(descend(&mut TxAccess::new(tx, ctx), &t, 5_000_000, false)?.1)
                })
                .unwrap();
            if count == FANOUT {
                break;
            }
            refops::upsert(dev.mem(), &t, k, 0);
            k += 2;
        }
        let snapshot = refops::contents(dev.mem(), &t);
        let retired_before = dev.mem().slab_stats().retired;
        let mut tx = stm.begin(&mut scratch);
        descend(&mut TxAccess::new(&mut tx, &mut ctx), &t, 5_000_000, true).unwrap();
        tx.rollback(&mut ctx);
        assert_eq!(
            refops::contents(dev.mem(), &t),
            snapshot,
            "rollback must undo the split"
        );
        validate(dev.mem(), &t).unwrap();
        // The never-published sibling must land in the slab quarantine,
        // not leak into the bump arena.
        assert!(
            dev.mem().slab_stats().retired > retired_before,
            "aborted split must retire its orphaned sibling"
        );
    }

    #[test]
    fn leaf_delete_escapes_at_the_occupancy_floor() {
        let (dev, t, stm) = setup(100);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        // Drain the leftmost leaf one key at a time with the floor-aware
        // leaf delete; once it reaches the floor the op must escape
        // without modifying the leaf.
        let mut escaped = None;
        for i in 1..=FANOUT as u64 {
            let key = 2 * i;
            let r = stm
                .run(&mut ctx, &mut scratch, 4, |tx, ctx| {
                    let (addr, count) = descend(&mut TxAccess::new(tx, ctx), &t, key, false)?;
                    delete_at_leaf(&mut TxAccess::new(tx, ctx), addr, count, key, MIN_OCCUPANCY)
                })
                .unwrap();
            match r {
                LeafDelete::Done(v) => assert_eq!(v, 2 * i + 1),
                LeafDelete::Underflow => {
                    escaped = Some(key);
                    break;
                }
            }
        }
        let key = escaped.expect("the leaf must hit the floor");
        assert_eq!(
            refops::get(dev.mem(), &t, key),
            Some(key + 1),
            "the underflow escape must leave the leaf untouched"
        );
        // The merge-capable path finishes the job.
        stm.run(&mut ctx, &mut scratch, 8, |tx, ctx| {
            delete_rebalancing(&mut TxAccess::new(tx, ctx), &t, key)
        })
        .unwrap();
        assert_eq!(refops::get(dev.mem(), &t, key), None);
        crate::validate::validate_with(dev.mem(), &t, crate::validate::ValidateOpts::merging())
            .unwrap();
    }

    #[test]
    fn tx_deletes_merge_shrink_and_recycle() {
        let (dev, t, stm) = setup(1000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let h0 = t.height(dev.mem());
        assert!(h0 >= 3);
        for i in 1..=995u64 {
            let old = stm
                .run(&mut ctx, &mut scratch, 16, |tx, ctx| {
                    delete_rebalancing(&mut TxAccess::new(tx, ctx), &t, 2 * i)
                })
                .unwrap();
            assert_eq!(old, 2 * i + 1, "key {}", 2 * i);
        }
        assert!(t.height(dev.mem()) < h0, "merges must shrink the tree");
        let left = refops::contents(dev.mem(), &t);
        assert_eq!(left.len(), 5);
        crate::validate::validate_with(dev.mem(), &t, crate::validate::ValidateOpts::merging())
            .unwrap();
        let st = dev.mem().slab_stats();
        assert!(st.retired > 0, "merged-away nodes must be quarantined");
        // An epoch advance drains the quarantine into the free lists.
        dev.mem().advance_epoch();
        let st = dev.mem().slab_stats();
        assert_eq!(st.retired, 0);
        assert!(st.free > 0);
    }

    #[test]
    fn hop_right_walks_to_covering_leaf() {
        let (dev, t, stm) = setup(1000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        // Start from the leftmost leaf and hop to key 1500.
        let mut leftmost = crate::node::NodeRef {
            addr: t.root(dev.mem()),
        };
        while !leftmost.is_leaf(dev.mem()) {
            leftmost = crate::node::NodeRef {
                addr: leftmost.val(dev.mem(), 0),
            };
        }
        let v = stm
            .run(&mut ctx, &mut scratch, 4, |tx, ctx| {
                let count = leftmost.count(dev.mem());
                let (addr, count) =
                    hop_right(&mut TxAccess::new(tx, ctx), leftmost.addr, count, 1500)?;
                query_at_leaf(&mut TxAccess::new(tx, ctx), addr, count, 1500)
            })
            .unwrap();
        assert_eq!(v, 1501);
        assert!(ctx.stats.horizontal_steps > 0);
    }
}
