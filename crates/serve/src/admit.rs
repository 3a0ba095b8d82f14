//! The front door: timestamp assignment under the in-flight watermark,
//! routing, and admission — by submitters into the shard queues, by
//! combiners out of the QoS lanes.
//!
//! # The watermark invariant
//!
//! Every submitter publishes a lower bound of the timestamp(s) it is
//! about to draw in an in-flight slot ([`Inflight`]) *before* the
//! `fetch_add`, and clears the slot only after every part of the request
//! sits in its shard queue(s). The watermark is
//! `min(next_ts, min over occupied slots)`, read in that order with
//! sequentially consistent operations. That yields the key invariant:
//!
//! > any request with timestamp `t < watermark` is fully enqueued at the
//! > moment the watermark was read.
//!
//! Proof sketch: suppose a submitter drew `t < watermark` but had not
//! finished enqueueing when the combiner computed the watermark. Since
//! `t < next_ts` as read by the combiner, the submitter's `fetch_add`
//! precedes that read in the seq-cst total order; its slot publish (with
//! value `lb <= t`) precedes the `fetch_add`; and the combiner scans the
//! slots *after* reading `next_ts`. So the scan observes either the slot
//! (value `<= t`, contradicting `t < watermark`) or its clearance — which
//! only happens after the request is fully enqueued. ∎
//!
//! The invariant is about the shard *queues* and says nothing yet about a
//! combiner's reorder heap: [`Reorder::offer`]'s precondition is what
//! carries it there (`reorder` module docs). Every draw is one contiguous
//! range — a submission call's, or a lane segment's — and what one draw
//! sends one shard travels as one [`Segment`].

use crate::lane::{LaneReject, QosConfig, TenantId};
use crate::queue::{AdmitPolicy, Segment};
use crate::reorder::Reorder;
use crate::service::{FaultPlan, ShardState};
use crate::shard::{hash_shard, window_end, RangePart, ShardId, ShardMap, Sharding};
use crate::ticket::{CellRef, Outcome, RangeMerge, Slot, Ticket, TicketBatch};
use eirene_workloads::{Key, OpKind, Request, Response};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Empty in-flight slot.
const SLOT_FREE: u64 = u64::MAX;
/// In-flight slots; more concurrent submitters than this spin for a slot.
const INFLIGHT_SLOTS: usize = 64;

/// The in-flight submission registry behind the watermark (module docs).
#[derive(Debug)]
pub(crate) struct Inflight {
    slots: Vec<AtomicU64>,
    /// Rotating claim hint so submitters spread over the slot array.
    hint: AtomicUsize,
}

impl Inflight {
    pub(crate) fn new() -> Self {
        Inflight {
            slots: (0..INFLIGHT_SLOTS)
                .map(|_| AtomicU64::new(SLOT_FREE))
                .collect(),
            hint: AtomicUsize::new(0),
        }
    }

    /// Publishes `lower_bound` in a free slot, spinning until one frees
    /// up. Must complete *before* the covered timestamps are drawn.
    fn claim(&self, lower_bound: u64) -> InflightGuard<'_> {
        let start = self.hint.fetch_add(1, Ordering::Relaxed);
        loop {
            for i in 0..INFLIGHT_SLOTS {
                let idx = (start + i) % INFLIGHT_SLOTS;
                if self.slots[idx]
                    .compare_exchange(SLOT_FREE, lower_bound, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    return InflightGuard { reg: self, idx };
                }
            }
            std::thread::yield_now();
        }
    }

    /// Minimum published lower bound over occupied slots ([`SLOT_FREE`]
    /// when none). Only [`Inner::read_watermark`] calls this, after it
    /// has read `next_ts` — the order the watermark proof depends on.
    fn min_active(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .min()
            .unwrap_or(SLOT_FREE)
    }

    /// Occupied slots: submissions currently mid-admission. A snapshot
    /// for observability gauges only — no ordering relied upon.
    fn occupancy(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != SLOT_FREE)
            .count() as u64
    }
}

/// Clears the claimed slot on drop, so a panicking submitter cannot stall
/// the watermark forever.
struct InflightGuard<'a> {
    reg: &'a Inflight,
    idx: usize,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.reg.slots[self.idx].store(SLOT_FREE, Ordering::SeqCst);
    }
}

/// How one request routes across shards.
enum Route {
    /// Resolves immediately (empty range window), nothing to enqueue.
    Empty,
    /// Whole request lands on one shard.
    One(ShardId),
    /// Range window split across several shards.
    Split(Vec<RangePart>),
}

impl Route {
    /// The shards the request lands on, one entry each.
    fn shards(&self) -> impl Iterator<Item = ShardId> + '_ {
        let (one, parts): (Option<ShardId>, &[RangePart]) = match self {
            Route::Empty => (None, &[]),
            Route::One(shard) => (Some(*shard), &[]),
            Route::Split(parts) => (None, parts),
        };
        one.into_iter().chain(parts.iter().map(|p| p.shard))
    }
}

pub(crate) struct Inner {
    /// The live shard map. Admission paths hold the read lock from
    /// routing until every part of a request is enqueued (so its shard
    /// counters are booked under the map that routed it); the rebalancer
    /// takes the write lock to quiesce admission while it migrates keys
    /// and publishes a moved boundary. Uncontended reads are a few
    /// nanoseconds — unmeasurable next to a queue push.
    pub(crate) topology: RwLock<ShardMap>,
    /// Range or hash-scatter placement. Immutable for the service's
    /// lifetime.
    pub(crate) sharding: Sharding,
    pub(crate) shards: Vec<ShardState>,
    pub(crate) next_ts: AtomicU64,
    pub(crate) inflight: Inflight,
    /// `true` while the epoch gate is held (combiners blocked).
    pub(crate) gate: Mutex<bool>,
    pub(crate) gate_cv: Condvar,
    pub(crate) policy: AdmitPolicy,
    pub(crate) qos: QosConfig,
    pub(crate) fault: FaultPlan,
    /// Counts shed-mode submission calls, solely to locate the one the
    /// [`FaultPlan`] kills. Untouched (and unread) when no fault is armed.
    pub(crate) admit_seq: AtomicU64,
}

impl Inner {
    /// The reorder low watermark: every request with a timestamp below it
    /// is fully enqueued (module docs). Can transiently regress between
    /// calls; that only delays emission, never reorders it.
    pub(crate) fn watermark(&self) -> u64 {
        self.read_watermark().1
    }

    /// `(next_ts, watermark)` from one read of each, in the order the
    /// proof depends on.
    fn read_watermark(&self) -> (u64, u64) {
        // next_ts MUST be read before the slot scan — see the proof.
        let n = self.next_ts.load(Ordering::SeqCst);
        (n, n.min(self.inflight.min_active()))
    }

    /// Opens an admission: publishes the current `next_ts` as the lower
    /// bound of every timestamp drawn while the returned slot is held.
    /// The slot must outlive the enqueue of everything those timestamps
    /// go to.
    fn open_admission(&self) -> InflightGuard<'_> {
        let lb = self.next_ts.load(Ordering::SeqCst);
        self.inflight.claim(lb)
    }

    /// `(next_ts - watermark, occupied in-flight slots)` as of now: the
    /// pipeline-state gauges an epoch carries when observing.
    pub(crate) fn gauges(&self) -> (u64, u64) {
        let (n, wm) = self.read_watermark();
        (n - wm, self.inflight.occupancy())
    }

    /// Routes one request under `map` (the caller's topology read guard).
    /// Hash mode ignores the range structure of the map entirely: points
    /// go to their hash shard, ranges scatter-gather to every shard —
    /// each part covers the *full* clipped window and returns `Some` only
    /// at the keys its shard owns; the positional union reassembles the
    /// window ([`RangeMerge::complete_part`]).
    fn route(&self, map: &ShardMap, key: Key, op: OpKind) -> Route {
        match self.sharding {
            Sharding::Range => match op {
                OpKind::Range { len } => {
                    let parts = map.split_range(key, len);
                    match parts.len() {
                        0 => Route::Empty,
                        1 => Route::One(parts[0].shard),
                        _ => Route::Split(parts),
                    }
                }
                _ => Route::One(map.shard_of(key)),
            },
            Sharding::Hash => match op {
                OpKind::Range { len } => {
                    let n = self.shards.len();
                    let Some(hi) = window_end(key, len) else {
                        return Route::Empty;
                    };
                    if n == 1 {
                        return Route::One(0);
                    }
                    // Clip at the domain edge like split_range: slots past
                    // the edge stay None, matching the oracle.
                    let clipped = hi - key + 1;
                    Route::Split(
                        (0..n)
                            .map(|shard| RangePart {
                                shard,
                                lo: key,
                                len: clipped,
                                offset: 0,
                            })
                            .collect(),
                    )
                }
                _ => Route::One(hash_shard(key, self.shards.len())),
            },
        }
    }

    /// Trips the armed admission fault, if any (tests only): dies between
    /// the capacity reservations and the enqueue with the in-flight slot
    /// held, the exact window the two RAII guards exist to cover.
    fn maybe_trip_fault(&self) {
        if let Some(n) = self.fault.panic_on_admit {
            if self.admit_seq.fetch_add(1, Ordering::Relaxed) == n {
                panic!("injected fault: submitter killed between reserve and push");
            }
        }
    }

    /// A lone submission is a window of one.
    pub(crate) fn submit(
        &self,
        key: Key,
        op: OpKind,
        deadline: Option<Instant>,
        arrival: u64,
        tenant: TenantId,
    ) -> Ticket {
        self.submit_many(1, std::iter::once((key, op, arrival)), deadline, tenant)
            .pop()
            .expect("one ticket per op")
    }

    /// QoS-lane path: every op parks — *untimestamped* — on its home
    /// shard's lane for the submitting tenant, each shard's share pushed
    /// as one segment under one lane lock; the shard's combiner draws the
    /// timestamps at admission ([`admit_lanes`]). A split range's home is
    /// its first part's shard: the combiner re-routes and fans the parts
    /// out when it admits the request. Quota sheds resolve `Rejected`.
    fn submit_many_lanes(
        &self,
        n: usize,
        ops: impl Iterator<Item = (Key, OpKind, u64)>,
        deadline: Option<Instant>,
        tenant: TenantId,
    ) -> Vec<Ticket> {
        let batch = TicketBatch::new(n);
        let mut buckets: Vec<Segment> = (0..self.shards.len())
            .map(|_| Segment::new(batch.clone(), deadline, tenant, 0))
            .collect();
        let topo = self.topology.read().unwrap();
        for (i, (key, op, arrival)) in (0u32..).zip(ops) {
            let Some(home) = self.route(&topo, key, op).shards().next() else {
                // A store without a wake: no caller holds the tickets
                // before this call returns, so none is parked.
                let empty = Outcome::Done(Response::Range(Vec::new()));
                batch.cell(i).store(empty);
                continue;
            };
            let staged = Request {
                key,
                op,
                ts: u64::MAX,
            };
            buckets[home].push(staged, Slot::Cell(i), arrival);
        }
        for (shard, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let state = &self.shards[shard];
            let refused = match state.queue.push_lane(tenant, bucket) {
                None => continue,
                Some(LaneReject::OverQuota(rest)) => {
                    state.record_shed(rest.len() as u64, tenant);
                    rest
                }
                Some(LaneReject::Closed(rest)) => rest,
            };
            refused.fail(&Outcome::Rejected);
        }
        (0..n as u32).map(|i| batch.ticket(i)).collect()
    }

    /// Batched admission: routes every op, claims the whole timestamp
    /// range with ONE `fetch_add`, allocates every ticket cell in ONE
    /// shared block ([`TicketBatch`]), and enqueues each shard's share as
    /// one segment (one queue-lock acquisition per shard instead of one
    /// per request). Request `i` gets timestamp `base + i`, so a single
    /// caller's batch linearizes in its own order. `ops` must yield
    /// exactly `n` items.
    pub(crate) fn submit_many(
        &self,
        n: usize,
        ops: impl Iterator<Item = (Key, OpKind, u64)>,
        deadline: Option<Instant>,
        tenant: TenantId,
    ) -> Vec<Ticket> {
        if n == 0 {
            return Vec::new();
        }
        if self.qos.enabled() {
            return self.submit_many_lanes(n, ops, deadline, tenant);
        }
        let num_shards = self.shards.len();
        let batch = TicketBatch::new(n);
        // Sized for a roughly uniform spread plus slack; a skewed batch
        // costs at most one regrowth per shard.
        let bucket_cap = n / num_shards + n / 8 + 4;
        let mut buckets: Vec<Segment> = (0..num_shards)
            .map(|_| Segment::new(batch.clone(), deadline, tenant, bucket_cap))
            .collect();
        // Shed mode: one RAII capacity grant per shard; `avail` mirrors
        // the unspent slots during routing, and any still unspent when
        // the grants drop are released automatically.
        let mut grants: Vec<Option<crate::queue::Reservation<'_>>> =
            (0..num_shards).map(|_| None).collect();
        let mut avail = vec![0usize; num_shards];
        let topo = self.topology.read().unwrap();

        // Under Shed the per-shard demand must be known before any
        // request is placed, so that path routes in a pre-pass and grabs
        // capacity credits up front (one reservation call per shard);
        // requests whose shards ran out are shed individually, split
        // ranges all-or-nothing. Block needs no credits, so it routes
        // inline — a single pass with no intermediate routed Vec.
        let mut ops = Some(ops);
        let routed: Option<Vec<(Key, OpKind, u64, Route)>> = match self.policy {
            AdmitPolicy::Block => None,
            AdmitPolicy::Shed => {
                let routed: Vec<(Key, OpKind, u64, Route)> = ops
                    .take()
                    .expect("ops iterator consumed twice")
                    .map(|(key, op, arrival)| (key, op, arrival, self.route(&topo, key, op)))
                    .collect();
                let mut demand = vec![0usize; num_shards];
                for (_, _, _, route) in &routed {
                    route.shards().for_each(|shard| demand[shard] += 1);
                }
                for (shard, &d) in demand.iter().enumerate() {
                    if d > 0 {
                        let grant = self.shards[shard].queue.reserve_up_to(d);
                        avail[shard] = grant.count();
                        grants[shard] = Some(grant);
                    }
                }
                Some(routed)
            }
        };

        let _slot = self.open_admission();
        let base = self.next_ts.fetch_add(n as u64, Ordering::SeqCst);
        if self.policy == AdmitPolicy::Shed {
            self.maybe_trip_fault();
        }

        {
            let mut admit_one = |i: u32, key: Key, op: OpKind, arrival: u64, route: Route| {
                let cell = batch.cell(i);
                if self.policy == AdmitPolicy::Shed {
                    // All or nothing: a request spends one credit on every
                    // shard it lands on, or is shed whole.
                    if let Some(full) = route.shards().find(|&shard| avail[shard] == 0) {
                        self.shards[full].record_shed(1, tenant);
                        // Stored without a wake: nobody holds the tickets yet.
                        cell.store(Outcome::Rejected);
                        return;
                    }
                    route.shards().for_each(|shard| avail[shard] -= 1);
                }
                let ts = base + u64::from(i);
                let req = Request { key, op, ts };
                match route {
                    Route::Empty => cell.store(Outcome::Done(Response::Range(Vec::new()))),
                    Route::One(shard) => {
                        cell.set_ts(ts);
                        buckets[shard].push(req, Slot::Cell(i), arrival);
                    }
                    Route::Split(parts) => {
                        cell.set_ts(ts);
                        for (shard, part, slot) in split_parts(&parts, req, batch.cell_ref(i)) {
                            buckets[shard].push(part, slot, arrival);
                        }
                    }
                }
            };
            match routed {
                Some(routed) => {
                    for (i, (key, op, arrival, route)) in (0u32..).zip(routed) {
                        admit_one(i, key, op, arrival, route);
                    }
                }
                None => {
                    let ops = ops.take().expect("ops iterator consumed twice");
                    for (i, (key, op, arrival)) in (0u32..).zip(ops) {
                        let route = self.route(&topo, key, op);
                        admit_one(i, key, op, arrival, route);
                    }
                }
            }
        }
        // Before the fill: once the segments are queued, all that should
        // stand between them and the combiner is this call's slot.
        let tickets = (0..n as u32).map(|i| batch.ticket(i)).collect();

        for (shard, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                // An untouched grant (if any) drops with the function,
                // releasing its slots.
                continue;
            }
            let state = &self.shards[shard];
            let (pushed, depth, refused) = match self.policy {
                // Fill through the grant; its unspent remainder is
                // released when the guard drops here.
                AdmitPolicy::Shed => {
                    let mut grant = grants[shard]
                        .take()
                        .expect("grant reserved in the pre-pass");
                    let n = bucket.len();
                    match grant.push(bucket) {
                        Ok(depth) => (n, depth, None),
                        Err(refused) => (0, 0, Some(refused)),
                    }
                }
                AdmitPolicy::Block => state.queue.push_blocking(bucket),
            };
            state.record_enqueue(pushed as u64, depth);
            if let Some(refused) = refused {
                refused.fail(&Outcome::Rejected);
            }
        }
        tickets
    }
}

/// The per-shard parts of one split range `req`, already timestamped:
/// every part carries its timestamp and reports into one shared
/// [`RangeMerge`] behind the range's ticket `cell`.
fn split_parts(
    parts: &[RangePart],
    req: Request,
    cell: CellRef,
) -> impl Iterator<Item = (ShardId, Request, Slot)> + '_ {
    let OpKind::Range { len } = req.op else {
        unreachable!("only range requests split")
    };
    let merge = Arc::new(RangeMerge::new(len as usize, parts.len(), cell));
    parts.iter().map(move |p| {
        let slot = Slot::Part {
            merge: merge.clone(),
            offset: p.offset,
        };
        (p.shard, Request::range(p.lo, p.len, req.ts), slot)
    })
}

/// Admits one WRR-drained batch of staged lane segments: draws each
/// segment's timestamps just-in-time under the in-flight-slot protocol
/// (one slot covers the whole batch) and parks what lives here in the
/// home reorder stage — or, for a split range's peer parts, in the peer
/// shards' ingress queues with all-or-nothing shed-on-full reservations.
/// The admitting combiner never blocks on a peer queue: blocking there
/// could deadlock two combiners admitting toward each other's full queues.
/// Returns how many requests were dead on admission, for the shard
/// thread's books.
pub(crate) fn admit_lanes(
    inner: &Inner,
    state: &ShardState,
    shard: ShardId,
    budget: usize,
    reorder: &mut Reorder,
) -> u64 {
    // Never block on the topology here: the rebalancer holds the write
    // lock while quiescing this very combiner's shard, and a combiner
    // parked on the read lock could never drain — deadlock. Skip the
    // admission pass instead (segments stay staged); the short sleep
    // keeps the loop from hot-spinning meanwhile, since staged lane
    // requests defeat the ingress drain's idle wait.
    let Ok(topo) = inner.topology.try_read() else {
        std::thread::sleep(Duration::from_micros(50));
        return 0;
    };
    let drained = state.queue.drain_lanes(budget);
    if drained.is_empty() {
        return 0;
    }
    let (now, mut expired) = (Instant::now(), 0);
    {
        // Publish the slot before drawing any timestamp: peer combiners
        // must not emit an epoch past these requests until every one —
        // cross-shard parts included — sits in its queue or reorder stage.
        let _slot = inner.open_admission();
        for seg in drained {
            if seg.deadline.is_some_and(|d| now >= d) {
                // Dead on admission. Count it enqueued + timed out so the
                // per-tenant books still balance (enqueued = executed +
                // timed_out).
                let n = seg.len() as u64;
                state.record_enqueue(n, 0);
                expired += n;
                seg.fail(&Outcome::TimedOut);
                continue;
            }
            admit_lane_segment(inner, &topo, state, shard, reorder, seg);
        }
    }
    state.queue.lane_drain_done();
    expired
}

/// Timestamps one lane-drained segment with one range draw and places
/// each request: what lives on this shard goes, as one segment, straight
/// into this combiner's reorder stage; what lives on a peer — the other
/// parts of a split range, or the whole request when a rebalance moved
/// the boundary between staging and admission — goes into the peer's
/// queue as a one-request segment, through reservations taken before any
/// of the request is placed (all-or-nothing; any full peer sheds the
/// whole request without blocking). The caller's in-flight slot covers
/// the timestamps until the last push lands.
fn admit_lane_segment(
    inner: &Inner,
    topo: &ShardMap,
    state: &ShardState,
    shard: ShardId,
    reorder: &mut Reorder,
    seg: Segment,
) {
    let base = inner.next_ts.fetch_add(seg.len() as u64, Ordering::SeqCst);
    let (batch, mut home) = (&seg.batch, seg.sibling());
    let mut shed = false;
    for (i, (&req, slot)) in seg.reqs.iter().zip(&seg.slots).enumerate() {
        let &Slot::Cell(idx) = slot else {
            unreachable!("a lane stages whole requests")
        };
        let arrival = seg.arrivals[i];
        let route = inner.route(topo, req.key, req.op);
        let mut grants = Vec::new();
        let mut full = None;
        for peer in route.shards().filter(|&s| s != shard) {
            match inner.shards[peer].queue.try_reserve(1) {
                Some(grant) => grants.push(grant),
                None => {
                    full = Some(peer);
                    break;
                }
            }
        }
        if let Some(peer) = full {
            // Dropping `grants` releases the earlier reservations.
            inner.shards[peer].record_shed(1, home.tenant);
            batch.cell(idx).store(Outcome::Rejected);
            shed = true;
            continue;
        }
        let ts = base + i as u64;
        batch.cell(idx).set_ts(ts);
        let req = Request { ts, ..req };
        let mut grants = grants.into_iter();
        let mut place = |s: ShardId, req: Request, slot: Slot| {
            if s == shard {
                home.push(req, slot, arrival);
                return;
            }
            let mut part = home.sibling();
            part.push(req, slot, arrival);
            let mut grant = grants.next().expect("one grant per peer part");
            match grant.forward(part) {
                Ok(depth) => inner.shards[s].record_enqueue(1, depth),
                Err(part) => part.fail(&Outcome::Rejected),
            }
        };
        match route {
            Route::Empty => unreachable!("empty ranges resolve at submission"),
            Route::One(s) => place(s, req, Slot::Cell(idx)),
            Route::Split(parts) => split_parts(&parts, req, batch.cell_ref(idx))
                .for_each(|(s, part, slot)| place(s, part, slot)),
        }
    }
    if shed {
        batch.wake();
    }
    if !home.is_empty() {
        state.record_enqueue(home.len() as u64, 0);
        reorder.admit(home);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_slots_claim_release_and_minimum() {
        let reg = Inflight::new();
        assert_eq!(reg.min_active(), SLOT_FREE);
        let a = reg.claim(7);
        let b = reg.claim(3);
        let c = reg.claim(9);
        assert_eq!(reg.min_active(), 3);
        drop(b);
        assert_eq!(reg.min_active(), 7);
        drop(a);
        drop(c);
        assert_eq!(reg.min_active(), SLOT_FREE);
    }

    #[test]
    fn watermark_never_admits_unenqueued_timestamps() {
        // Deterministic schedule of the protocol: a claimed slot with a
        // lower bound below next_ts must cap the watermark.
        let inner = Inner {
            topology: RwLock::new(ShardMap::uniform(1)),
            sharding: Sharding::Range,
            shards: vec![ShardState::new(4, &QosConfig::disabled())],
            next_ts: AtomicU64::new(10),
            inflight: Inflight::new(),
            gate: Mutex::new(false),
            gate_cv: Condvar::new(),
            policy: AdmitPolicy::Block,
            qos: QosConfig::disabled(),
            fault: FaultPlan::default(),
            admit_seq: AtomicU64::new(0),
        };
        assert_eq!(inner.watermark(), 10);
        let slot = inner.inflight.claim(6);
        assert_eq!(inner.watermark(), 6);
        drop(slot);
        assert_eq!(inner.watermark(), 10);
    }
}
