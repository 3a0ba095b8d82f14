//! The front door: timestamp assignment under the in-flight watermark,
//! routing, and admission into the shard queues.
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
//! carries it there (`reorder` module docs). Every timestamp is drawn here,
//! by [`Inner::submit_many`]: one contiguous range per submission call,
//! and what one call sends one shard travels as one [`Segment`].
//!
//! # One placement rule
//!
//! Every admission is a driver around [`place`], the pure step that gives
//! each request of a draw its timestamp, spends its credits and buckets
//! its parts. The two drivers differ only in their credits: `submit_many`
//! under `Block` without tenant quotas has unlimited credits and pushes
//! with `push_blocking`; otherwise its credits are the grants
//! [`Inner::reserve`] takes before the slot opens — queue slots under
//! `Shed`, capped by the tenant's quota room under quotas — and each
//! bucket is pushed through its grant. Under `Block` with quotas the grant
//! is quota room alone, and its push still waits for queue room.

use crate::lane::{QosConfig, TenantId};
use crate::queue::{AdmitPolicy, Reservation, Segment};
use crate::service::ShardState;
use crate::shard::{hash_shard, window_end, RangePart, ShardId, ShardMap, Sharding};
use crate::ticket::{CellRef, Outcome, RangeMerge, Slot, Ticket, TicketBatch};
use eirene_workloads::{Key, OpKind, Request, Response};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// The shard map and the placement rule. Both are immutable for the
    /// service's lifetime, so a request routes the same way whenever it is
    /// routed.
    pub(crate) map: ShardMap,
    pub(crate) sharding: Sharding,
    pub(crate) shards: Vec<ShardState>,
    pub(crate) next_ts: AtomicU64,
    pub(crate) inflight: Inflight,
    pub(crate) policy: AdmitPolicy,
    pub(crate) qos: QosConfig,
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

    /// Draws `n` consecutive timestamps: the one place a timestamp is
    /// drawn, always under a slot [`open_admission`](Self::open_admission)
    /// published first. Returns the first.
    fn draw(&self, n: usize) -> u64 {
        self.next_ts.fetch_add(n as u64, Ordering::SeqCst)
    }

    /// `(next_ts - watermark, occupied in-flight slots)` as of now: the
    /// pipeline-state gauges an epoch carries when observing.
    pub(crate) fn gauges(&self) -> (u64, u64) {
        let (n, wm) = self.read_watermark();
        (n - wm, self.inflight.occupancy())
    }

    /// Routes the request in ticket `cell`; it stays untimestamped until
    /// [`place`].
    /// Hash mode ignores the range structure of the map entirely: points
    /// go to their hash shard, ranges scatter-gather to every shard —
    /// each part covers the *full* clipped window and returns `Some` only
    /// at the keys its shard owns; the positional union reassembles the
    /// window ([`RangeMerge::complete_part`]).
    fn route(&self, cell: u32, (key, op, arrival): Op) -> Routed {
        let (map, n) = (&self.map, self.shards.len());
        let route = match (self.sharding, op) {
            (Sharding::Range, OpKind::Range { len }) => {
                let parts = map.split_range(key, len);
                match parts.len() {
                    0 => Route::Empty,
                    1 => Route::One(parts[0].shard),
                    _ => Route::Split(parts),
                }
            }
            (Sharding::Range, _) => Route::One(map.shard_of(key)),
            // Clip at the domain edge like split_range: slots past the
            // edge stay None, matching the oracle.
            (Sharding::Hash, OpKind::Range { len }) => match window_end(key, len) {
                None => Route::Empty,
                Some(_) if n == 1 => Route::One(0),
                Some(hi) => Route::Split(
                    (0..n)
                        .map(|shard| RangePart {
                            shard,
                            lo: key,
                            len: hi - key + 1,
                            offset: 0,
                        })
                        .collect(),
                ),
            },
            (Sharding::Hash, _) => Route::One(hash_shard(key, n)),
        };
        let req = Request {
            key,
            op,
            ts: u64::MAX,
        };
        Routed {
            cell,
            req,
            arrival,
            route,
        }
    }

    /// A lone submission is a window of one.
    pub(crate) fn submit(
        &self,
        key: Key,
        op: OpKind,
        deadline: Option<Instant>,
        arrival: Option<u64>,
        tenant: TenantId,
    ) -> Ticket {
        self.submit_many(1, std::iter::once((key, op, arrival)), deadline, tenant)
            .pop()
            .expect("one ticket per op")
    }

    /// Reserves for `tenant`, on every shard, as much of the routed draw's
    /// demand as fits — queue slots under `Shed`, quota room under quotas
    /// — and records each grant in `avail`. The grants are RAII: whatever
    /// is still unfilled when they drop — a shed, a normal return, or an
    /// unwinding caller — goes back to its queue.
    fn reserve(
        &self,
        routed: &[Routed],
        tenant: TenantId,
        avail: &mut [usize],
    ) -> Vec<Option<Reservation<'_>>> {
        let slots = self.policy == AdmitPolicy::Shed;
        let mut demand = vec![0usize; self.shards.len()];
        let touched = routed.iter().flat_map(|r| r.route.shards());
        touched.for_each(|shard| demand[shard] += 1);
        (0..self.shards.len())
            .map(|shard| {
                if demand[shard] == 0 {
                    return None;
                }
                let grant = self.shards[shard]
                    .queue
                    .reserve(tenant, demand[shard], slots);
                avail[shard] = grant.count();
                Some(grant)
            })
            .collect()
    }

    /// Batched admission: routes every op, claims the whole timestamp
    /// range with ONE `fetch_add`, allocates every ticket cell in ONE
    /// shared block ([`TicketBatch`]), places the window ([`place`]) and
    /// enqueues each shard's share as one segment (one queue-lock
    /// acquisition per shard instead of one per request). The credits are
    /// the grants reserved before the slot opens — unlimited under `Block`
    /// without quotas — and a push without queue slots waits for room.
    /// `ops` must yield exactly `n` items.
    pub(crate) fn submit_many(
        &self,
        n: usize,
        ops: impl Iterator<Item = Op>,
        deadline: Option<Instant>,
        tenant: TenantId,
    ) -> Vec<Ticket> {
        if n == 0 {
            return Vec::new();
        }
        let num_shards = self.shards.len();
        let batch = TicketBatch::new(n);
        // Sized for a roughly uniform spread plus slack; a skewed batch
        // costs at most one regrowth per shard.
        let bucket_cap = n / num_shards + n / 8 + 4;
        let mut buckets: Vec<Segment> = (0..num_shards)
            .map(|_| Segment::new(batch.clone(), deadline, tenant, bucket_cap))
            .collect();
        let routed: Vec<Routed> = (0u32..)
            .zip(ops)
            .map(|(cell, op)| self.route(cell, op))
            .collect();
        let mut avail = vec![usize::MAX; num_shards];
        let mut grants = if self.policy == AdmitPolicy::Shed || self.qos.enabled() {
            self.reserve(&routed, tenant, &mut avail)
        } else {
            Vec::new()
        };

        let _slot = self.open_admission();
        let base = self.draw(n);
        let clock = |shard: ShardId| self.shards[shard].clock.load(Ordering::Relaxed);
        for full in place(routed, base, &mut avail, &batch, &mut buckets, clock) {
            self.shards[full].record_shed(1, tenant);
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
            let (pushed, depth, refused) = match grants.get_mut(shard) {
                // Push through the grant; its unspent remainder is
                // released when the guard drops.
                Some(grant) => grant
                    .as_mut()
                    .expect("a bucket spent its grant")
                    .push(bucket),
                None => state.queue.push_blocking(bucket),
            };
            state.record_enqueue(pushed as u64, depth);
            if let Some(refused) = refused {
                refused.fail(&Outcome::Rejected);
            }
        }
        tickets
    }
}

/// A request to admit, with its virtual arrival (`None`: live, see [`place`]).
type Op = (Key, OpKind, Option<u64>);

/// One request of a timestamp draw, routed.
struct Routed {
    /// The request's cell in its call's ticket block.
    cell: u32,
    /// Untimestamped.
    req: Request,
    arrival: Option<u64>,
    route: Route,
}

/// The one placement rule of every admission. Request `i` of the draw
/// gets timestamp `base + i` and spends one credit (`avail`) on every
/// shard its route touches; if any of them has none left, the request is
/// shed whole — its cell stores `Rejected` and the full shard is
/// returned, once per shed request, for the driver to book. An empty
/// range resolves `Done(Range([]))` with no timestamp and no credit; a
/// split range goes into the buckets as the parts [`split_parts`] cuts.
/// A live request arrives at the `clock` of each shard it goes to. No lock,
/// no queue: cells are stored without the wake the driver then owes.
fn place(
    routed: Vec<Routed>,
    base: u64,
    avail: &mut [usize],
    batch: &Arc<TicketBatch>,
    buckets: &mut [Segment],
    clock: impl Fn(ShardId) -> u64,
) -> Vec<ShardId> {
    let mut shed = Vec::new();
    for (ts, r) in (base..).zip(routed) {
        let cell = batch.cell(r.cell);
        if let Some(full) = r.route.shards().find(|&shard| avail[shard] == 0) {
            cell.store(Outcome::Rejected);
            shed.push(full);
            continue;
        }
        r.route.shards().for_each(|shard| avail[shard] -= 1);
        let req = Request { ts, ..r.req };
        let arrival = |shard| r.arrival.unwrap_or_else(|| clock(shard));
        match r.route {
            Route::Empty => cell.store(Outcome::Done(Response::Range(Vec::new()))),
            Route::One(shard) => {
                cell.set_ts(ts);
                buckets[shard].push(req, Slot::Cell(r.cell), arrival(shard));
            }
            Route::Split(parts) => {
                cell.set_ts(ts);
                for (shard, part, slot) in split_parts(&parts, req, batch.cell_ref(r.cell)) {
                    buckets[shard].push(part, slot, arrival(shard));
                }
            }
        }
    }
    shed
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn inner(shards: usize, depth: usize) -> Inner {
        Inner {
            map: ShardMap::uniform(shards),
            sharding: Sharding::Range,
            shards: (0..shards)
                .map(|_| ShardState::new(depth, &QosConfig::disabled(), false))
                .collect(),
            next_ts: AtomicU64::new(10),
            inflight: Inflight::new(),
            policy: AdmitPolicy::Shed,
            qos: QosConfig::disabled(),
        }
    }

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
        let inner = inner(1, 4);
        assert_eq!(inner.watermark(), 10);
        let slot = inner.inflight.claim(6);
        assert_eq!(inner.watermark(), 6);
        drop(slot);
        assert_eq!(inner.watermark(), 10);
    }

    /// What `place` did with one request of the draw.
    #[derive(Debug, PartialEq)]
    enum Placed {
        /// Bucketed at `base + position`.
        At(u64),
        Shed,
        Empty,
    }

    /// One row of the `place` table: a draw and everything it must end as.
    struct Row {
        name: &'static str,
        credits: Vec<usize>,
        /// `(cell, op, route)` in draw order.
        draw: Vec<(u32, OpKind, Route)>,
        /// What each request of the draw became.
        placed: Vec<Placed>,
        /// Each shard's bucket as `(cell, ts)`; a split part has no cell.
        buckets: [Vec<(Option<u32>, u64)>; 2],
        shed: Vec<ShardId>,
        credits_left: Vec<usize>,
    }

    #[test]
    fn place_table() {
        const U: usize = usize::MAX;
        let (query, range) = (OpKind::Query, OpKind::Range { len: 4 });
        let split = || {
            let part = |shard, lo, offset| RangePart {
                shard,
                lo,
                len: 2,
                offset,
            };
            Route::Split(vec![part(0, 5, 0), part(1, 7, 2)])
        };
        let rows = [
            Row {
                name: "Block: every credit unlimited",
                credits: vec![U, U],
                draw: vec![
                    (0, query, Route::One(0)),
                    (1, query, Route::One(1)),
                    (2, query, Route::One(0)),
                ],
                placed: vec![Placed::At(100), Placed::At(101), Placed::At(102)],
                buckets: [vec![(Some(0), 100), (Some(2), 102)], vec![(Some(1), 101)]],
                shed: vec![],
                credits_left: vec![U - 2, U - 1],
            },
            Row {
                name: "Shed: credits run out mid-window",
                credits: vec![2, 1],
                draw: (0..5)
                    .map(|cell| (cell, query, Route::One(usize::from(cell >= 3))))
                    .collect(),
                placed: vec![
                    Placed::At(100),
                    Placed::At(101),
                    Placed::Shed,
                    Placed::At(103),
                    Placed::Shed,
                ],
                buckets: [vec![(Some(0), 100), (Some(1), 101)], vec![(Some(3), 103)]],
                shed: vec![0, 1],
                credits_left: vec![0, 0],
            },
            Row {
                name: "a split range with one shard full is shed whole",
                credits: vec![5, 0],
                draw: vec![(0, range, split())],
                placed: vec![Placed::Shed],
                buckets: [vec![], vec![]],
                shed: vec![1],
                credits_left: vec![5, 0],
            },
            Row {
                name: "a split range spends one credit on each shard",
                credits: vec![5, 1],
                draw: vec![(0, range, split())],
                placed: vec![Placed::At(100)],
                buckets: [vec![(None, 100)], vec![(None, 100)]],
                shed: vec![],
                credits_left: vec![4, 0],
            },
            Row {
                name: "an empty range spends no credit and gets no timestamp",
                credits: vec![0, 0],
                draw: vec![(0, range, Route::Empty)],
                placed: vec![Placed::Empty],
                buckets: [vec![], vec![]],
                shed: vec![],
                credits_left: vec![0, 0],
            },
            Row {
                name: "Block with quotas: the tenant's quota room caps the call",
                credits: vec![1, 2],
                draw: vec![
                    (0, query, Route::One(0)),
                    (1, query, Route::One(1)),
                    (2, query, Route::One(0)),
                    (3, range, split()),
                ],
                placed: vec![Placed::At(100), Placed::At(101), Placed::Shed, Placed::Shed],
                buckets: [vec![(Some(0), 100)], vec![(Some(1), 101)]],
                shed: vec![0, 0],
                credits_left: vec![0, 1],
            },
        ];
        for row in rows {
            let (name, mut avail) = (row.name, row.credits);
            let batch = TicketBatch::new(8);
            let cells: Vec<u32> = row.draw.iter().map(|(cell, ..)| *cell).collect();
            let routed = row.draw.into_iter().map(|(cell, op, route)| Routed {
                cell,
                req: Request {
                    op,
                    ..Request::query(5, u64::MAX)
                },
                arrival: None,
                route,
            });
            let mut buckets: Vec<Segment> = (0..2)
                .map(|_| Segment::new(batch.clone(), None, 0, 0))
                .collect();
            let clock = |shard: ShardId| 1000 + shard as u64;
            let shed = place(
                routed.collect(),
                100,
                &mut avail,
                &batch,
                &mut buckets,
                clock,
            );
            let placed: Vec<Placed> = cells
                .iter()
                .map(|&cell| {
                    let ticket = batch.ticket(cell);
                    match (ticket.try_get(), ticket.timestamp()) {
                        (None, Some(ts)) => Placed::At(ts),
                        (Some(Outcome::Rejected), None) => Placed::Shed,
                        (Some(Outcome::Done(Response::Range(r))), None) if r.is_empty() => {
                            Placed::Empty
                        }
                        other => panic!("{name}: cell {cell} ended as {other:?}"),
                    }
                })
                .collect();
            let held = |seg: &Segment| -> Vec<(Option<u32>, u64)> {
                let cell = |slot: &Slot| match slot {
                    &Slot::Cell(c) => Some(c),
                    Slot::Part { .. } => None,
                };
                let ts = seg.reqs.iter().map(|r| r.ts);
                seg.slots.iter().map(cell).zip(ts).collect()
            };
            assert_eq!(placed, row.placed, "{name}");
            // A live request, and each part of a split one, arrives at
            // its own shard's clock.
            for (shard, bucket) in buckets.iter().enumerate() {
                assert!(bucket.arrivals.iter().all(|&a| a == clock(shard)), "{name}");
            }
            let buckets = [held(&buckets[0]), held(&buckets[1])];
            assert_eq!(buckets, row.buckets, "{name}");
            assert_eq!((shed, avail), (row.shed, row.credits_left), "{name}");
        }
    }

    #[test]
    fn a_killed_submitter_releases_its_grants_and_its_slot() {
        // The window the two RAII guards exist for: `submit_many` has
        // reserved under Shed, opened its slot and drawn its timestamps,
        // and dies before it pushes.
        let depth = 4;
        let inner = inner(1, depth);
        let died = catch_unwind(AssertUnwindSafe(|| {
            let routed: Vec<Routed> = (0..depth as u32)
                .map(|cell| inner.route(cell, (cell, OpKind::Query, None)))
                .collect();
            let mut avail = vec![0; 1];
            let _grants = inner.reserve(&routed, 0, &mut avail);
            assert_eq!(avail, [depth]);
            let _slot = inner.open_admission();
            let _base = inner.draw(depth);
            assert_eq!(inner.watermark(), 10);
            panic!("submitter killed between the draw and the push");
        }));
        assert!(died.is_err());
        assert_eq!(inner.watermark(), inner.next_ts.load(Ordering::SeqCst));
        assert_eq!(inner.shards[0].queue.reserve(0, depth, true).count(), depth);
    }
}
