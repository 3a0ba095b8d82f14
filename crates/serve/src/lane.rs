//! Per-tenant QoS lanes: quota-bounded staging queues ahead of
//! timestamping.
//!
//! With QoS enabled, a submission does not go straight to the shard's
//! ingress queue. It is routed to its home shard and parked — *without
//! a timestamp* — in that shard's lane for the submitting tenant, one
//! segment per call. Each combiner then drains its shard's lanes with a
//! deterministic weighted round-robin and draws timestamps at admission
//! time, under the same in-flight-slot protocol racing clients use. This
//! ordering is what keeps the linearizability story trivial: lanes reorder
//! *admission*, never timestamps — every request still linearizes at the
//! timestamp it is assigned, and the flat ts-order oracle remains valid.
//!
//! Quotas are enforced at lane push: a tenant whose lane on a shard
//! already holds `quota` requests is shed immediately (`Rejected`),
//! regardless of the service's [`AdmitPolicy`](crate::AdmitPolicy) —
//! blocking an abusive tenant would let it stall well-behaved ones,
//! which is exactly what lanes exist to prevent.
//!
//! The WRR drain is deterministic: tenants are visited in descending
//! weight order (ties by tenant id), each taking up to `weight` requests
//! per round, rounds repeating until the budget or the lanes are
//! exhausted. Under contention each tenant's share of an epoch is
//! proportional to its weight; the fixed visit order also makes
//! closed-loop isolation tests reproducible. A tenant's whole share then
//! leaves its lane at once, as the segments (or a front piece of one) of
//! the calls it staged: what the rounds admit of one call stays one
//! segment.

use crate::queue::Segment;
use std::collections::VecDeque;

/// Identifies a tenant; an index into [`QosConfig::tenants`].
pub type TenantId = usize;

/// Per-tenant QoS parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Relative drain weight: requests admitted per WRR round.
    pub weight: u32,
    /// Max requests the tenant may stage per shard; beyond it, shed.
    pub quota: usize,
}

impl TenantSpec {
    pub fn new(weight: u32, quota: usize) -> Self {
        TenantSpec {
            weight: weight.max(1),
            quota: quota.max(1),
        }
    }
}

/// Tenant table for a service. An empty table disables QoS lanes
/// entirely (submissions go straight to the ingress queues, exactly the
/// pre-lane behavior).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QosConfig {
    pub tenants: Vec<TenantSpec>,
}

impl QosConfig {
    /// QoS disabled: no lanes, no quotas, single implicit tenant 0.
    pub fn disabled() -> Self {
        QosConfig::default()
    }

    /// `n` equal-weight tenants with the same per-shard quota.
    pub fn uniform(n: usize, quota: usize) -> Self {
        QosConfig {
            tenants: (0..n).map(|_| TenantSpec::new(1, quota)).collect(),
        }
    }

    pub fn enabled(&self) -> bool {
        !self.tenants.is_empty()
    }

    /// Number of tenant slots for accounting vectors (at least 1 so the
    /// disabled case still has the implicit tenant 0).
    pub fn num_tenants(&self) -> usize {
        self.tenants.len().max(1)
    }
}

/// Why a lane push was refused; the refused requests are handed back, as
/// one segment, for the caller to resolve.
#[derive(Debug)]
pub(crate) enum LaneReject {
    /// Lanes are closed (service shutting down).
    Closed(Segment),
    /// The tenant's lane is at quota on this shard.
    OverQuota(Segment),
}

/// One shard's set of tenant lanes. Lives inside the ingress queue's
/// mutex so lane pushes share the queue's wakeup machinery.
#[derive(Debug)]
pub(crate) struct LaneSet {
    specs: Vec<TenantSpec>,
    lanes: Vec<VecDeque<Segment>>,
    /// Requests staged per lane.
    staged: Vec<usize>,
    /// Tenant visit order: descending weight, ties by id.
    order: Vec<usize>,
    pending: usize,
    closed: bool,
    /// True while the combiner is admitting a drained batch (between
    /// `drain_wrr` returning segments and `drain_done`); shutdown must
    /// not close ingress queues while cross-shard parts may still be
    /// in flight from a lane admission.
    draining: bool,
}

impl LaneSet {
    pub(crate) fn new(cfg: &QosConfig) -> Self {
        assert!(cfg.enabled(), "LaneSet requires at least one tenant");
        let n = cfg.tenants.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(cfg.tenants[t].weight), t));
        LaneSet {
            specs: cfg.tenants.clone(),
            lanes: (0..n).map(|_| VecDeque::new()).collect(),
            staged: vec![0; n],
            order,
            pending: 0,
            closed: false,
            draining: false,
        }
    }

    pub(crate) fn num_tenants(&self) -> usize {
        self.specs.len()
    }

    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Stages as much of `seg` on `tenant`'s lane as its quota leaves room
    /// for; FIFO per lane. Returns the requests accepted and the refused
    /// rest.
    pub(crate) fn push(
        &mut self,
        tenant: TenantId,
        mut seg: Segment,
    ) -> (usize, Option<LaneReject>) {
        if self.closed {
            return (0, Some(LaneReject::Closed(seg)));
        }
        let room = self.specs[tenant].quota - self.staged[tenant];
        let over = (seg.len() > room).then(|| LaneReject::OverQuota(seg.split_off(room)));
        let accepted = seg.len();
        if accepted > 0 {
            self.staged[tenant] += accepted;
            self.pending += accepted;
            self.lanes[tenant].push_back(seg);
        }
        (accepted, over)
    }

    /// Deterministic WRR drain of up to `budget` requests (module docs),
    /// marking the set as mid-drain when anything is returned (clear with
    /// [`drain_done`](Self::drain_done)).
    pub(crate) fn drain_wrr(&mut self, budget: usize) -> Vec<Segment> {
        let mut share = vec![0usize; self.specs.len()];
        let mut left = budget.min(self.pending);
        // Each round takes at least one request while any is left, since
        // `left` never exceeds what the lanes hold beyond their shares.
        while left > 0 {
            for &t in &self.order {
                let take = (self.specs[t].weight as usize)
                    .min(left)
                    .min(self.staged[t] - share[t]);
                share[t] += take;
                left -= take;
            }
        }
        let mut out = Vec::new();
        for &t in &self.order {
            let (lane, mut n) = (&mut self.lanes[t], share[t]);
            self.staged[t] -= n;
            self.pending -= n;
            while n > 0 {
                let piece = if lane.front().map_or(0, Segment::len) > n {
                    lane.front_mut().expect("a longer head").split_front(n)
                } else {
                    lane.pop_front().expect("a lane holds what it counts")
                };
                n -= piece.len();
                out.push(piece);
            }
        }
        if !out.is_empty() {
            self.draining = true;
        }
        out
    }

    pub(crate) fn drain_done(&mut self) {
        self.draining = false;
    }

    /// Refuse all future pushes; staged segments still drain.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// True once nothing staged remains and no drained batch is still
    /// being admitted. Only meaningful after [`close`](Self::close).
    pub(crate) fn quiesced(&self) -> bool {
        self.closed && self.pending == 0 && !self.draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{Slot, TicketBatch};
    use eirene_workloads::Request;

    /// One call of `tenant` staging queries on these keys.
    fn call(tenant: TenantId, keys: &[u32]) -> Segment {
        let mut seg = Segment::new(TicketBatch::new(keys.len()), None, tenant, keys.len());
        for (i, &key) in (0u32..).zip(keys) {
            seg.push(Request::query(key, u64::MAX), Slot::Cell(i), 0);
        }
        seg
    }

    fn set(specs: Vec<TenantSpec>) -> LaneSet {
        LaneSet::new(&QosConfig { tenants: specs })
    }

    /// Requests of `tenant` among `drained`.
    fn of(drained: &[Segment], tenant: TenantId) -> usize {
        drained
            .iter()
            .filter(|s| s.tenant == tenant)
            .map(Segment::len)
            .sum()
    }

    #[test]
    fn quota_sheds_and_drain_restores_headroom() {
        let mut lanes = set(vec![TenantSpec::new(1, 2)]);
        assert!(matches!(lanes.push(0, call(0, &[1])), (1, None)));
        assert!(matches!(lanes.push(0, call(0, &[2])), (1, None)));
        assert!(matches!(
            lanes.push(0, call(0, &[3])),
            (0, Some(LaneReject::OverQuota(_)))
        ));
        let drained = lanes.drain_wrr(1);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].reqs[0].key, 1, "lanes are FIFO");
        assert!(matches!(lanes.push(0, call(0, &[4])), (1, None)));
        assert_eq!(lanes.pending(), 2);
    }

    #[test]
    fn wrr_shares_follow_weights() {
        let mut lanes = set(vec![TenantSpec::new(1, 100), TenantSpec::new(3, 100)]);
        for i in 0..20 {
            lanes.push(0, call(0, &[i]));
            lanes.push(1, call(1, &[100 + i]));
        }
        let drained = lanes.drain_wrr(16);
        assert_eq!(of(&drained, 0) + of(&drained, 1), 16);
        assert_eq!(
            of(&drained, 1),
            12,
            "weight-3 tenant takes 3/4 of the budget"
        );
        assert_eq!(of(&drained, 0), 4);
        // The heaviest tenant is visited first.
        assert_eq!(drained[0].tenant, 1);
    }

    #[test]
    fn wrr_spills_budget_to_nonempty_lanes() {
        let mut lanes = set(vec![TenantSpec::new(2, 100), TenantSpec::new(2, 100)]);
        lanes.push(0, call(0, &[1]));
        lanes.push(1, call(1, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]));
        let drained = lanes.drain_wrr(8);
        let total = of(&drained, 0) + of(&drained, 1);
        assert_eq!(total, 8, "budget not stranded on an empty lane");
        assert_eq!(of(&drained, 0), 1);
    }

    #[test]
    fn a_tenant_share_leaves_as_pieces_of_its_calls() {
        let mut lanes = set(vec![TenantSpec::new(1, 100), TenantSpec::new(1, 100)]);
        lanes.push(0, call(0, &[1, 2, 3, 4, 5, 6]));
        lanes.push(0, call(0, &[7, 8]));
        lanes.push(1, call(1, &[9]));
        // Rounds of one request each give tenant 0 four of the five: one
        // front piece of its first call, not four one-request segments.
        let keys = |s: &Segment| s.reqs.iter().map(|r| r.key).collect::<Vec<_>>();
        let got: Vec<_> = lanes.drain_wrr(5).iter().map(keys).collect();
        assert_eq!(got, [vec![1, 2, 3, 4], vec![9]]);
        let got: Vec<_> = lanes.drain_wrr(8).iter().map(keys).collect();
        assert_eq!(
            got,
            [vec![5, 6], vec![7, 8]],
            "the rest, then the next call"
        );
        assert_eq!(lanes.pending(), 0);
    }

    #[test]
    fn close_and_quiesce_protocol() {
        let mut lanes = set(vec![TenantSpec::new(1, 8)]);
        lanes.push(0, call(0, &[1]));
        lanes.close();
        assert!(matches!(
            lanes.push(0, call(0, &[2])),
            (0, Some(LaneReject::Closed(_)))
        ));
        assert!(!lanes.quiesced(), "still pending");
        let drained = lanes.drain_wrr(8);
        assert_eq!(drained.len(), 1);
        assert!(!lanes.quiesced(), "mid-drain");
        lanes.drain_done();
        assert!(lanes.quiesced());
    }

    #[test]
    fn uniform_config_helpers() {
        let cfg = QosConfig::uniform(4, 100);
        assert!(cfg.enabled());
        assert_eq!(cfg.num_tenants(), 4);
        assert_eq!(QosConfig::disabled().num_tenants(), 1);
        assert!(!QosConfig::disabled().enabled());
    }
}
