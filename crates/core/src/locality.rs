//! Locality-aware warp reorganization (§5).
//!
//! After combining, issued requests are key-sorted, so adjacent request
//! groups (RGs) target the same or adjacent leaves. Each *iteration warp*
//! processes several adjacent RGs in a loop with one node buffer, which
//! every traversal loads into in place, so it holds the last accessed leaf
//! and that leaf's RF (range field); `locate` lends that leaf, uncopied. At
//! each RG boundary the warp compares the RG's maximal key with the
//! buffered RF to choose between:
//!
//! * **horizontal traversal** — walk the leaf chain rightward from the
//!   buffered leaf (cheap when the target is within `height` hops);
//! * **vertical traversal** — descend from the root.
//!
//! If a horizontal walk overshoots `height + 1` steps, the walk aborts to
//! a vertical descent and the starting leaf's RF is refreshed with the
//! minimal key of the node reached at step `height + 1`, exactly the
//! adaptive rule of §5.

use crate::pivot::PivotCache;
use eirene_btree::build::TreeHandle;
use eirene_btree::node::{ParsedNode, OFF_RF};
use eirene_sim::{Addr, Phase, WarpCtx};

/// Per-warp traversal state implementing the RF-guided choice.
pub struct WarpLocator<'c> {
    enabled: bool,
    /// Snapshot pivot cache for the coalesced path: vertical descents
    /// start from a cached frontier node instead of the root when the
    /// cached node still validates (see [`crate::pivot`]).
    cache: Option<&'c PivotCache>,
    /// The warp's node buffer: after `locate` it holds the leaf lent to the
    /// caller, where the next RG's horizontal walk starts, so nothing but
    /// this locator's traversals may load into it.
    buf: ParsedNode,
    /// Address of the leaf in `buf`, if reusable. Only an enabled locator
    /// sets it.
    cur: Option<Addr>,
}

impl<'c> WarpLocator<'c> {
    pub fn new(enabled: bool) -> Self {
        Self::with_cache(enabled, None)
    }

    /// Locator whose vertical descents consult the snapshot pivot cache.
    pub fn with_cache(enabled: bool, cache: Option<&'c PivotCache>) -> Self {
        WarpLocator {
            enabled,
            cache,
            buf: ParsedNode::default(),
            cur: None,
        }
    }

    /// Called at every RG boundary with the RG's maximal key: applies the
    /// RF check (§5) and drops the buffer when a vertical start is the
    /// better choice.
    pub fn begin_rg(&mut self, rg_max_key: u64) {
        if rg_max_key > self.buf.rf() {
            self.cur = None;
        }
    }

    /// Invalidates the buffer (e.g. after an STM conflict, per §5 the
    /// retry traverses vertically).
    pub fn invalidate(&mut self) {
        self.cur = None;
    }

    /// Locates the leaf owning `key`, horizontally from the buffered leaf
    /// when possible, vertically otherwise. Returns the leaf address and
    /// lends its snapshot (unprotected reads — callers that mutate
    /// re-validate transactionally).
    pub fn locate(
        &mut self,
        ctx: &mut WarpCtx<'_>,
        handle: &TreeHandle,
        key: u64,
    ) -> (Addr, &ParsedNode) {
        let height = handle.height(ctx.raw_mem());
        // An overshot walk falls through to a vertical descent.
        let walked = self
            .cur
            .take()
            .and_then(|start| self.walk_right(ctx, start, key, height));
        let addr = walked.unwrap_or_else(|| self.descend(ctx, handle, key));
        self.cur = self.enabled.then_some(addr);
        (addr, &self.buf)
    }

    /// Horizontal traversal from the buffered leaf at `start_addr`, with
    /// the height+1 overshoot bound and RF refresh. Returns `None` when the
    /// walk aborted to vertical.
    fn walk_right(
        &mut self,
        ctx: &mut WarpCtx<'_>,
        start_addr: Addr,
        key: u64,
        height: u64,
    ) -> Option<Addr> {
        let prev = ctx.set_phase(Phase::HorizontalTraversal);
        ctx.stats.horizontal_traversals += 1;
        let node = &mut self.buf;
        let mut addr = start_addr;
        let mut steps = 0u64;
        // Lehman-Yao walk: the owning leaf is the first one whose high
        // bound exceeds the key.
        while key >= node.high() && node.next() != 0 {
            ctx.control(4);
            steps += 1;
            if steps > height {
                // Overshoot: refresh the starting leaf's RF with the high
                // bound of the node at step height+1, then give up and
                // descend vertically (§5).
                // A hint store: RF only steers `begin_rg`'s horizontal-or-
                // vertical choice, so the read-only query kernel may issue it.
                ctx.write_hint(start_addr + OFF_RF, node.high().min(node.rf()));
                ctx.control(1);
                ctx.set_phase(prev);
                return None;
            }
            addr = node.next();
            node.load(ctx, addr);
            ctx.stats.horizontal_steps += 1;
        }
        ctx.control(1);
        ctx.set_phase(prev);
        Some(addr)
    }

    /// Vertical descent from the root with right-hops at the leaf level,
    /// into the warp's buffer.
    ///
    /// This traversal is *unprotected* (Alg. 1 line 29): it can observe
    /// another transaction's uncommitted or rolled-back eager writes, so
    /// everything it reads is treated as a hint — malformed nodes (empty
    /// inners, null children, runaway depth) restart the descent, and the
    /// caller's STM leaf region re-validates ownership before mutating.
    fn descend(&mut self, ctx: &mut WarpCtx<'_>, handle: &TreeHandle, key: u64) -> Addr {
        let outer = ctx.set_phase(Phase::VerticalTraversal);
        // One cache consultation per descent: binary-search the staged
        // frontier fences for the node owning `key`. The hit is a *hint*
        // like everything else an unprotected traversal reads — the loaded
        // node re-validates below and any mismatch restarts from the root.
        let mut start: Option<Addr> = self.cache.map(|cache| {
            let prev = ctx.set_phase(Phase::RunDispatch);
            ctx.control(cache.lookup_cost());
            ctx.set_phase(prev);
            cache.lookup(key)
        });
        let node = &mut self.buf;
        'restart: loop {
            ctx.set_phase(Phase::VerticalTraversal);
            ctx.stats.vertical_traversals += 1;
            let (mut addr, from_cache) = match start.take() {
                Some(hint) => (hint, true),
                None => (ctx.read(handle.root_word), false),
            };
            node.load(ctx, addr);
            ctx.stats.vertical_steps += 1;
            if from_cache {
                // Validate the snapshot start: alive and owning the key
                // between its fences (a split since the snapshot shrinks
                // HIGH; a merge sets the dead bit).
                ctx.control(4);
                if node.is_dead() || node.count() == 0 || key < node.low() || key >= node.high() {
                    ctx.charge_cycles(50);
                    continue 'restart;
                }
                ctx.stats.pivot_cache_hits += 1;
            }
            let mut depth = 0u32;
            while !node.is_leaf() {
                ctx.control(12);
                depth += 1;
                if depth > 64 || node.count() == 0 {
                    ctx.charge_cycles(50);
                    continue 'restart;
                }
                let child = node.vals()[node.child_slot(key)];
                if child == 0 {
                    ctx.charge_cycles(50);
                    continue 'restart;
                }
                addr = child;
                node.load(ctx, addr);
                ctx.stats.vertical_steps += 1;
            }
            ctx.set_phase(Phase::HorizontalTraversal);
            let mut hops = 0u32;
            while key >= node.high() && node.next() != 0 {
                ctx.control(4);
                hops += 1;
                if hops > 256 {
                    ctx.charge_cycles(50);
                    continue 'restart;
                }
                addr = node.next();
                node.load(ctx, addr);
                ctx.stats.horizontal_steps += 1;
            }
            ctx.control(1);
            ctx.set_phase(outer);
            return addr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_btree::build::{arena_budget, bulk_build};
    use eirene_sim::{Device, DeviceConfig, WarpStats};

    fn tree(n: u64) -> (Device, TreeHandle) {
        let dev = Device::new(arena_budget(n as usize, 64), DeviceConfig::test_small());
        let pairs: Vec<(u64, u64)> = (1..=n).map(|i| (2 * i, 2 * i + 1)).collect();
        let t = bulk_build(dev.mem(), &pairs);
        (dev, t)
    }

    #[test]
    fn first_locate_descends_vertically() {
        let (dev, t) = tree(5000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut loc = WarpLocator::new(true);
        let (_, leaf) = loc.locate(&mut ctx, &t, 500);
        assert_eq!(leaf.find(500).map(|i| leaf.vals()[i]), Some(501));
        assert_eq!(ctx.stats.vertical_traversals, 1);
        assert_eq!(ctx.stats.horizontal_traversals, 0);
    }

    #[test]
    fn adjacent_keys_walk_horizontally() {
        let (dev, t) = tree(5000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut loc = WarpLocator::new(true);
        loc.locate(&mut ctx, &t, 500);
        let v_before = ctx.stats.vertical_traversals;
        // Next key is nearby: must reuse the buffer.
        let (_, leaf) = loc.locate(&mut ctx, &t, 530);
        assert_eq!(leaf.find(530).map(|i| leaf.vals()[i]), Some(531));
        assert_eq!(
            ctx.stats.vertical_traversals, v_before,
            "no new vertical descent"
        );
        assert!(ctx.stats.horizontal_traversals >= 1);
    }

    #[test]
    fn distant_key_overshoots_and_falls_back_vertical() {
        let (dev, t) = tree(5000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut loc = WarpLocator::new(true);
        let (start_addr, _) = loc.locate(&mut ctx, &t, 2);
        let rf_before = dev.mem().read(start_addr + OFF_RF);
        let (_, leaf) = loc.locate(&mut ctx, &t, 9000);
        assert_eq!(leaf.find(9000).map(|i| leaf.vals()[i]), Some(9001));
        assert_eq!(ctx.stats.vertical_traversals, 2, "fallback descent");
        let rf_after = dev.mem().read(start_addr + OFF_RF);
        assert!(rf_after <= rf_before, "overshoot must refresh the RF bound");
        assert_ne!(rf_after, u64::MAX);
    }

    #[test]
    fn begin_rg_honors_rf_bound() {
        let (dev, t) = tree(5000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut loc = WarpLocator::new(true);
        loc.locate(&mut ctx, &t, 2);
        // A far-away RG max key must force a vertical start.
        loc.begin_rg(10_000);
        assert!(loc.cur.is_none());
        let (_, _) = loc.locate(&mut ctx, &t, 9998);
        assert_eq!(ctx.stats.vertical_traversals, 2);
    }

    #[test]
    fn disabled_locator_always_descends() {
        let (dev, t) = tree(2000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut loc = WarpLocator::new(false);
        loc.locate(&mut ctx, &t, 100);
        loc.locate(&mut ctx, &t, 102);
        loc.locate(&mut ctx, &t, 104);
        assert_eq!(ctx.stats.vertical_traversals, 3);
        assert_eq!(ctx.stats.horizontal_traversals, 0);
    }

    #[test]
    fn locate_works_for_absent_keys() {
        let (dev, t) = tree(1000);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut loc = WarpLocator::new(true);
        let (_, leaf) = loc.locate(&mut ctx, &t, 501); // odd key, absent
        assert_eq!(leaf.find(501), None);
        // And keys beyond the maximum.
        let (_, leaf) = loc.locate(&mut ctx, &t, 99_999);
        assert_eq!(leaf.find(99_999), None);
        assert_eq!(leaf.next(), 0, "must land on the rightmost leaf");
    }
}
