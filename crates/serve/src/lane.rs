//! Per-tenant QoS lanes: quota-bounded staging queues ahead of
//! timestamping.
//!
//! With QoS enabled, a submission does not go straight to the shard's
//! ingress queue. It is routed to its home shard and parked — *without
//! a timestamp* — in that shard's lane for the submitting tenant. Each
//! combiner then drains its shard's lanes with a deterministic weighted
//! round-robin and draws timestamps at admission time, under the same
//! in-flight-slot protocol racing clients use. This ordering is what
//! keeps the linearizability story trivial: lanes reorder *admission*,
//! never timestamps — every request still linearizes at the timestamp
//! it is assigned, and the flat ts-order oracle remains valid.
//!
//! Quotas are enforced at lane push: a tenant whose lane on a shard
//! already holds `quota` entries is shed immediately (`Rejected`),
//! regardless of the service's [`AdmitPolicy`](crate::AdmitPolicy) —
//! blocking an abusive tenant would let it stall well-behaved ones,
//! which is exactly what lanes exist to prevent.
//!
//! The WRR drain is deterministic: tenants are visited in descending
//! weight order (ties by tenant id), each taking up to `weight` entries
//! per round, rounds repeating until the budget or the lanes are
//! exhausted. Under contention each tenant's share of an epoch is
//! proportional to its weight; the fixed visit order also makes
//! closed-loop isolation tests reproducible.

use crate::queue::Entry;
use std::collections::VecDeque;

/// Identifies a tenant; an index into [`QosConfig::tenants`].
pub type TenantId = usize;

/// Per-tenant QoS parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Relative drain weight: entries admitted per WRR round.
    pub weight: u32,
    /// Max entries the tenant may stage per shard; beyond it, shed.
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

/// Why a lane push was refused; the entry is handed back for the caller
/// to resolve.
#[derive(Debug)]
pub(crate) enum LaneReject {
    /// Lanes are closed (service shutting down).
    Closed(Entry),
    /// The tenant's lane is at quota on this shard.
    OverQuota(Entry),
}

/// One shard's set of tenant lanes. Lives inside the ingress queue's
/// mutex so lane pushes share the queue's wakeup machinery.
#[derive(Debug)]
pub(crate) struct LaneSet {
    specs: Vec<TenantSpec>,
    lanes: Vec<VecDeque<Entry>>,
    /// Tenant visit order: descending weight, ties by id.
    order: Vec<usize>,
    pending: usize,
    closed: bool,
    /// True while the combiner is admitting a drained batch (between
    /// `drain_wrr` returning entries and `drain_done`); shutdown must
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

    /// Stages `entry` on `tenant`'s lane; FIFO per lane.
    pub(crate) fn push(&mut self, tenant: TenantId, entry: Entry) -> Result<usize, LaneReject> {
        if self.closed {
            return Err(LaneReject::Closed(entry));
        }
        let lane = &mut self.lanes[tenant];
        if lane.len() >= self.specs[tenant].quota {
            return Err(LaneReject::OverQuota(entry));
        }
        lane.push_back(entry);
        self.pending += 1;
        Ok(lane.len())
    }

    /// Deterministic WRR drain of up to `budget` entries, marking the
    /// set as mid-drain when anything is returned (clear with
    /// [`drain_done`](Self::drain_done)).
    pub(crate) fn drain_wrr(&mut self, budget: usize) -> Vec<Entry> {
        if budget == 0 || self.pending == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(budget.min(self.pending));
        while out.len() < budget && self.pending > 0 {
            for &t in &self.order {
                let lane = &mut self.lanes[t];
                let take = (self.specs[t].weight as usize)
                    .min(budget - out.len())
                    .min(lane.len());
                for _ in 0..take {
                    out.push(lane.pop_front().expect("lane length checked"));
                }
                self.pending -= take;
                if out.len() == budget {
                    break;
                }
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

    /// Refuse all future pushes; staged entries still drain.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// True once no staged entry remains and no drained batch is still
    /// being admitted. Only meaningful after [`close`](Self::close).
    pub(crate) fn quiesced(&self) -> bool {
        self.closed && self.pending == 0 && !self.draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Entry;
    use crate::ticket::{Completion, TicketBatch};
    use eirene_workloads::Request;

    fn entry(tenant: TenantId, key: u32) -> Entry {
        let cell = TicketBatch::new(1).cell_ref(0);
        Entry {
            req: Request::query(key, u64::MAX),
            deadline: None,
            arrival: 0,
            tenant,
            completion: Completion::Direct(cell),
        }
    }

    fn set(specs: Vec<TenantSpec>) -> LaneSet {
        LaneSet::new(&QosConfig { tenants: specs })
    }

    #[test]
    fn quota_sheds_and_drain_restores_headroom() {
        let mut lanes = set(vec![TenantSpec::new(1, 2)]);
        assert!(lanes.push(0, entry(0, 1)).is_ok());
        assert!(lanes.push(0, entry(0, 2)).is_ok());
        assert!(matches!(
            lanes.push(0, entry(0, 3)),
            Err(LaneReject::OverQuota(_))
        ));
        let drained = lanes.drain_wrr(1);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].req.key, 1, "lanes are FIFO");
        assert!(lanes.push(0, entry(0, 4)).is_ok());
        assert_eq!(lanes.pending(), 2);
    }

    #[test]
    fn wrr_shares_follow_weights() {
        let mut lanes = set(vec![TenantSpec::new(1, 100), TenantSpec::new(3, 100)]);
        for i in 0..20 {
            lanes.push(0, entry(0, i)).unwrap();
            lanes.push(1, entry(1, 100 + i)).unwrap();
        }
        let drained = lanes.drain_wrr(16);
        let t1 = drained.iter().filter(|e| e.tenant == 1).count();
        let t0 = drained.len() - t1;
        assert_eq!(drained.len(), 16);
        assert_eq!(t1, 12, "weight-3 tenant takes 3/4 of the budget");
        assert_eq!(t0, 4);
        // Heaviest tenant is visited first within each round.
        assert_eq!(drained[0].tenant, 1);
    }

    #[test]
    fn wrr_spills_budget_to_nonempty_lanes() {
        let mut lanes = set(vec![TenantSpec::new(2, 100), TenantSpec::new(2, 100)]);
        lanes.push(0, entry(0, 1)).unwrap();
        for i in 0..10 {
            lanes.push(1, entry(1, i)).unwrap();
        }
        let drained = lanes.drain_wrr(8);
        assert_eq!(drained.len(), 8, "budget not stranded on an empty lane");
        assert_eq!(drained.iter().filter(|e| e.tenant == 0).count(), 1);
    }

    #[test]
    fn close_and_quiesce_protocol() {
        let mut lanes = set(vec![TenantSpec::new(1, 8)]);
        lanes.push(0, entry(0, 1)).unwrap();
        lanes.close();
        assert!(matches!(
            lanes.push(0, entry(0, 2)),
            Err(LaneReject::Closed(_))
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
