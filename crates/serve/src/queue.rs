//! Bounded MPSC ingress queue feeding one shard's epoch pipeline, and the
//! [`Segment`] it carries.
//!
//! Since the lock-free admission rework the queue carries segments in
//! *arrival* order, which may differ slightly from timestamp order (many
//! submitters interleave between drawing a timestamp range and
//! enqueueing); the combiner's reorder stage restores timestamp order. The
//! queue's job is bounded buffering with race-free admission accounting:
//!
//! - **Reservations** make shed-vs-admit decisions atomic: before it
//!   draws, an admission reserves what fits of each shard's demand
//!   ([`IngressQueue::reserve`]), spends it as credits and fills it
//!   through the returned [`Reservation`] guard, so two admissions racing
//!   one remaining slot can never both admit past the configured depth.
//!   Under tenant quotas the grant is also capped by the tenant's quota
//!   room, which the queue counts per tenant, queued or reserved, and
//!   frees when the combiner drains. Reservations are RAII: a guard
//!   dropped with unfilled slots — normal return, early shed, or a
//!   *panicking* submitter — releases them, so a killed submitter can
//!   never strand capacity or quota and wedge admission. Capacity counts
//!   requests, not segments.
//! - **Every push is one segment**: [`Reservation::push`] and
//!   [`IngressQueue::push_blocking`] take the queue lock once per call,
//!   however many requests the segment carries — the amortization behind
//!   [`Client::submit_many`](crate::Client::submit_many), of which a lone
//!   `submit` is the one-request case.

use crate::lane::{QosConfig, TenantId};
use crate::ticket::{Outcome, Slot, TicketBatch};
use eirene_workloads::{Request, Response};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What admission control does when a shard's ingress queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Reject immediately: the ticket resolves
    /// [`Rejected`](crate::Outcome::Rejected).
    Shed,
    /// Block the submitting client until the queue drains.
    Block,
}

/// One submission call's requests to one shard: the unit the queue, the
/// reorder stage and the epoch carry. A call claims one contiguous
/// timestamp range, so no other call has a timestamp between a segment's
/// first and last, and segments order exactly by their first timestamp
/// (`reorder` module docs). When the batch target cuts a segment, the
/// epoch takes a prefix and the rest stays first in line.
#[derive(Debug)]
pub(crate) struct Segment {
    /// Ascending by timestamp; a split range's part carries its sub-range.
    pub reqs: Vec<Request>,
    /// Where each request's outcome goes, positionally.
    pub slots: Vec<Slot>,
    /// Virtual arrival per request in device cycles: the shard's clock at
    /// admission for a live submission, the caller's for `submit_at`
    /// (open-loop offered load). An epoch cannot start before its last
    /// member arrived.
    pub arrivals: Vec<u64>,
    /// The call's wall-clock deadline: an expired segment resolves
    /// `TimedOut` at epoch formation without executing.
    pub deadline: Option<Instant>,
    /// Submitting tenant (0 when quotas are disabled).
    pub tenant: TenantId,
    /// The call's ticket block.
    pub batch: Arc<TicketBatch>,
}

impl Segment {
    pub(crate) fn new(
        batch: Arc<TicketBatch>,
        deadline: Option<Instant>,
        tenant: TenantId,
        capacity: usize,
    ) -> Self {
        Segment {
            reqs: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            arrivals: Vec::with_capacity(capacity),
            deadline,
            tenant,
            batch,
        }
    }

    /// An empty segment of the same call.
    fn sibling(&self) -> Self {
        Segment::new(self.batch.clone(), self.deadline, self.tenant, 0)
    }

    /// Appends a request with a timestamp above every one held.
    pub(crate) fn push(&mut self, req: Request, slot: Slot, arrival: u64) {
        self.reqs.push(req);
        self.slots.push(slot);
        self.arrivals.push(arrival);
    }

    pub(crate) fn len(&self) -> usize {
        self.reqs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    pub(crate) fn first_ts(&self) -> u64 {
        self.reqs[0].ts
    }

    /// Keeps the first `at` requests and returns the rest, as a segment of
    /// the same call.
    pub(crate) fn split_off(&mut self, at: usize) -> Segment {
        Segment {
            reqs: self.reqs.split_off(at),
            slots: self.slots.split_off(at),
            arrivals: self.arrivals.split_off(at),
            ..self.sibling()
        }
    }

    /// Takes the first `n` requests as a segment of the same call.
    pub(crate) fn split_front(&mut self, n: usize) -> Segment {
        let rest = self.split_off(n);
        std::mem::replace(self, rest)
    }

    /// Executor side: stores one response per request, in order, then
    /// wakes the call's parked callers once — after the last store, so none
    /// sleeps through its outcome. Takes no more responses than requests.
    pub(crate) fn settle(&self, responses: impl IntoIterator<Item = Response>) {
        for (slot, resp) in self.slots.iter().zip(responses) {
            self.batch.store(slot, Outcome::Done(resp));
        }
        self.batch.wake();
    }

    /// Resolves every request with `outcome` (sheds, timeouts, rejects),
    /// then wakes once.
    pub(crate) fn fail(&self, outcome: &Outcome) {
        for slot in &self.slots {
            self.batch.store(slot, outcome.clone());
        }
        self.batch.wake();
    }
}

#[derive(Debug, Default)]
struct QueueState {
    segments: VecDeque<Segment>,
    /// Requests in `segments`, and capacity promised to in-flight
    /// submitters but not yet filled: `len + reserved <= capacity` always
    /// holds.
    len: usize,
    reserved: usize,
    closed: bool,
    /// Successful push calls by submitters, cumulative: one per call,
    /// however many requests it carried; a refused push, or one that met a
    /// closed queue, does not count. A closed-loop caller comes back with
    /// exactly one such call per shard it touches, which is what the
    /// combiner's `Returned` exit counts.
    pushes: u64,
    /// Entries per tenant, queued or reserved (with quotas only; empty
    /// otherwise): `held[t] <= quota` always holds.
    held: Vec<usize>,
    gate: Gate,
}

/// The epoch gate of a queue built gated
/// ([`ServeConfig::hold_gate`](crate::ServeConfig::hold_gate)): `drain`
/// blocks while it is `Held`, and the first drain after its release
/// returns nothing and opens it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Gate {
    #[default]
    Open,
    Held,
    Released,
}

impl QueueState {
    /// Releases a held gate.
    fn open_gate(&mut self) {
        if self.gate == Gate::Held {
            self.gate = Gate::Released;
        }
    }

    fn room(&self, capacity: usize) -> usize {
        capacity - self.len - self.reserved
    }

    fn push(&mut self, seg: Segment) {
        self.len += seg.len();
        self.segments.push_back(seg);
    }
}

/// Everything one [`IngressQueue::drain`] call popped.
#[derive(Debug, Default)]
pub(crate) struct Drained {
    pub segments: Vec<Segment>,
    /// [`IngressQueue::pushes`] under the same lock as the pop: every
    /// push it counts has all its requests in `segments` or in an earlier
    /// drain.
    pub pushes: u64,
    /// The queue is closed and nothing more will ever come: the combiner
    /// may finish once its reorder stage is empty too.
    pub finished: bool,
}

/// RAII credit grant on one [`IngressQueue`]: queue slots under the shed
/// policy, a tenant's quota room under quotas, or both. Fill it with
/// [`push`](Reservation::push); whatever it still holds when the guard
/// drops — including for an unwinding submitter — goes back to the queue.
#[derive(Debug)]
#[must_use = "dropping a Reservation immediately releases the reserved credits"]
pub(crate) struct Reservation<'q> {
    queue: &'q IngressQueue,
    count: usize,
    /// The grant holds queue slots (shed policy); otherwise a push waits
    /// for room.
    slots: bool,
    tenant: TenantId,
}

impl Reservation<'_> {
    /// Credits still held by this guard.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Pushes one submitter's segment of at most `count` requests, counted
    /// as one push call: into the reserved slots under one lock
    /// acquisition, or, without slots, as [`IngressQueue::push_blocking`]
    /// does. Returns `(pushed, depth, refused rest)`; a closed queue
    /// refuses, and the refused part's credits go back when the guard
    /// drops.
    pub(crate) fn push(&mut self, seg: Segment) -> (usize, usize, Option<Segment>) {
        debug_assert!(self.count >= seg.len(), "push beyond the Reservation");
        let done = if self.slots {
            let mut st = self.queue.state.lock().unwrap();
            if st.closed {
                return (0, 0, Some(seg));
            }
            let n = seg.len();
            st.reserved -= n;
            st.push(seg);
            st.pushes += 1;
            self.queue.not_empty.notify_one();
            (n, st.len, None)
        } else {
            self.queue.push_blocking(seg)
        };
        // What was pushed stays held for its tenant until drained.
        self.count -= done.0;
        done
    }
}

/// Returns the unfilled credits.
impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.count == 0 {
            return;
        }
        let mut st = self.queue.state.lock().unwrap();
        if self.slots {
            debug_assert!(
                st.reserved >= self.count,
                "cancelling more than was reserved"
            );
            st.reserved -= self.count;
            self.queue.not_full.notify_all();
        }
        if self.queue.quota.is_some() {
            st.held[self.tenant] -= self.count;
        }
    }
}

/// Bounded MPSC queue: many submitting clients, one combiner consumer.
#[derive(Debug)]
pub(crate) struct IngressQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The per-tenant quota, with quotas enabled.
    quota: Option<usize>,
}

impl IngressQueue {
    /// A queue that enforces `qos`'s per-tenant quota (none when disabled)
    /// and, when `gated`, drains nothing until released.
    pub(crate) fn new(capacity: usize, qos: &QosConfig, gated: bool) -> Self {
        assert!(capacity > 0, "ingress queue capacity must be positive");
        let state = QueueState {
            held: vec![0; if qos.enabled() { qos.tenants } else { 0 }],
            gate: if gated { Gate::Held } else { Gate::Open },
            ..QueueState::default()
        };
        IngressQueue {
            state: Mutex::new(state),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            quota: qos.enabled().then_some(qos.quota),
        }
    }

    /// Requests queued.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().len
    }

    /// Cumulative successful submitter push calls: one per call.
    pub(crate) fn pushes(&self) -> u64 {
        self.state.lock().unwrap().pushes
    }

    /// Reserves as many of `n` credits for `tenant` as currently fit: queue
    /// slots when `slots` (the shed policy), and, with quotas, the tenant's
    /// quota room. The guard's `count` reports the grant (0 on a closed
    /// queue).
    pub(crate) fn reserve(&self, tenant: TenantId, n: usize, slots: bool) -> Reservation<'_> {
        let mut st = self.state.lock().unwrap();
        let mut grant = if st.closed { 0 } else { n };
        if slots {
            grant = grant.min(st.room(self.capacity));
            st.reserved += grant;
        }
        if let Some(quota) = self.quota {
            grant = grant.min(quota - st.held[tenant]);
            st.held[tenant] += grant;
        }
        Reservation {
            queue: self,
            count: grant,
            slots,
            tenant,
        }
    }

    /// Blocking push (block policy): takes the lock once and pushes the
    /// segment, a front piece at a time whenever it does not fit, waiting
    /// on the consumer in between. If the queue closes mid-way the rest is
    /// refused. Returns `(pushed, high-water depth, refused rest)`.
    pub(crate) fn push_blocking(&self, mut seg: Segment) -> (usize, usize, Option<Segment>) {
        let mut st = self.state.lock().unwrap();
        let (mut pushed, mut high) = (0usize, 0usize);
        while !seg.is_empty() {
            while !st.closed && st.room(self.capacity) == 0 {
                self.not_empty.notify_one();
                st = self.not_full.wait(st).unwrap();
            }
            if st.closed {
                return (pushed, high, Some(seg));
            }
            let piece = seg.split_front(st.room(self.capacity).min(seg.len()));
            pushed += piece.len();
            st.push(piece);
            high = high.max(st.len);
        }
        st.pushes += 1;
        self.not_empty.notify_one();
        (pushed, high, None)
    }

    /// Drains every queued segment, in arrival order, and frees its
    /// tenant's quota room. The first call on a gated queue blocks,
    /// whatever `wait`, until the queue is released or closed, and returns
    /// nothing.
    /// Otherwise, while no segment exists and the queue is open, it waits
    /// up to `wait`: `Duration::ZERO` does not block, and `Duration::MAX`
    /// (or any wait too large to add to the clock) has no time bound.
    /// `finished` is set once the queue is closed and fully drained.
    pub(crate) fn drain(&self, wait: Duration) -> Drained {
        let mut st = self.state.lock().unwrap();
        if st.gate != Gate::Open {
            // The caller may have read its watermark before the release:
            // gather nothing under it, and let the next drain read one
            // taken after.
            while st.gate == Gate::Held {
                st = self.not_empty.wait(st).unwrap();
            }
            st.gate = Gate::Open;
            return Drained::default();
        }
        let idle = |st: &QueueState| st.segments.is_empty() && !st.closed;
        if idle(&st) && !wait.is_zero() {
            // An unbounded wait reads no clock.
            let deadline = (wait != Duration::MAX)
                .then(|| Instant::now().checked_add(wait))
                .flatten();
            while idle(&st) {
                match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                    None => st = self.not_empty.wait(st).unwrap(),
                    Some(left) if left.is_zero() => break,
                    Some(left) => st = self.not_empty.wait_timeout(st, left).unwrap().0,
                }
            }
        }
        st.len = 0;
        let segments: Vec<Segment> = st.segments.drain(..).collect();
        if !segments.is_empty() {
            self.not_full.notify_all();
        }
        if self.quota.is_some() {
            for seg in &segments {
                st.held[seg.tenant] -= seg.len();
            }
        }
        Drained {
            segments,
            pushes: st.pushes,
            finished: st.closed,
        }
    }

    /// Opens the epoch gate: `drain` gathers again.
    pub(crate) fn release(&self) {
        self.state.lock().unwrap().open_gate();
        self.not_empty.notify_all();
    }

    /// Closes the queue, releasing its gate: future pushes and reservations
    /// fail, blocked pushers wake with their segments back, and `drain`
    /// reports `finished` once the remainder is popped.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        st.open_gate();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::RangeMerge;
    use std::sync::Arc;

    /// One call's segment of point queries at these timestamps.
    fn seg(ts: &[u64]) -> Segment {
        let mut seg = Segment::new(TicketBatch::new(ts.len()), None, 0, ts.len());
        for (i, &t) in (0u32..).zip(ts) {
            seg.push(Request::query(1, t), Slot::Cell(i), 0);
        }
        seg
    }

    /// This call's segment of `tenant`.
    fn of(tenant: TenantId, ts: &[u64]) -> Segment {
        Segment { tenant, ..seg(ts) }
    }

    fn queue(capacity: usize) -> IngressQueue {
        IngressQueue::new(capacity, &QosConfig::disabled(), false)
    }

    /// `n` queue slots for tenant 0, as the shed policy reserves them.
    fn slots(q: &IngressQueue, n: usize) -> Reservation<'_> {
        q.reserve(0, n, true)
    }

    /// The depth a reserved push reached, or the refused segment.
    fn fill(r: &mut Reservation, s: Segment) -> Result<usize, Segment> {
        match r.push(s) {
            (_, depth, None) => Ok(depth),
            (_, _, Some(rest)) => Err(rest),
        }
    }

    /// The depth an unrefused blocking push reached.
    fn push_blocking(q: &IngressQueue, s: Segment) -> Result<usize, Segment> {
        match q.push_blocking(s) {
            (_, high, None) => Ok(high),
            (_, _, Some(rest)) => Err(rest),
        }
    }

    fn drain_ts(q: &IngressQueue) -> Vec<u64> {
        let d = q.drain(Duration::ZERO);
        d.segments
            .iter()
            .flat_map(|s| &s.reqs)
            .map(|r| r.ts)
            .collect()
    }

    #[test]
    fn reservations_gate_admission_at_capacity() {
        let q = queue(2);
        let mut r1 = slots(&q, 1);
        let mut r2 = slots(&q, 1);
        // Capacity is fully promised: a third reservation is granted
        // nothing even though nothing has been pushed yet.
        assert_eq!(slots(&q, 1).count(), 0);
        assert_eq!(fill(&mut r1, seg(&[0])).unwrap(), 1);
        assert_eq!(fill(&mut r2, seg(&[1])).unwrap(), 2);
        assert_eq!(slots(&q, 1).count(), 0);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn dropped_reservations_free_room() {
        let q = queue(2);
        let r = slots(&q, 2);
        assert_eq!(slots(&q, 1).count(), 0);
        drop(r);
        let r = slots(&q, 2);
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn panicking_reserver_releases_capacity() {
        // The RAII guard must release on unwind: a submitter killed
        // between reserve and push no longer leaks the slot (which
        // used to wedge admission at capacity forever).
        let q = Arc::new(queue(1));
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let _res = slots(&q2, 1);
            panic!("submitter dies mid-admission");
        });
        assert!(t.join().is_err());
        let mut r = slots(&q, 1);
        assert_eq!(r.count(), 1, "capacity recovered after panic");
        assert_eq!(fill(&mut r, seg(&[7])).unwrap(), 1);
        assert_eq!(drain_ts(&q), [7]);
    }

    #[test]
    fn partially_used_reservation_returns_the_rest() {
        let q = queue(4);
        {
            let mut r = slots(&q, 3);
            fill(&mut r, seg(&[0])).unwrap();
            assert_eq!(r.count(), 2);
            // Two unfilled slots release here.
        }
        assert_eq!(slots(&q, 9).count(), 3);
    }

    #[test]
    fn reserve_grants_partial_room() {
        let q = queue(4);
        let r3 = slots(&q, 3);
        let r1 = slots(&q, 5);
        assert_eq!(r1.count(), 1);
        assert_eq!(slots(&q, 5).count(), 0);
        drop(r3);
        drop(r1);
        let r = slots(&q, 2);
        assert_eq!(r.count(), 2);
        drop(r);
        assert_eq!(push_blocking(&q, seg(&[9])).unwrap(), 1);
        assert_eq!(slots(&q, 9).count(), 3);
    }

    #[test]
    fn racing_reservers_never_over_admit() {
        // 4 threads race 8 single-slot reservations against capacity 3:
        // exactly 3 must win in aggregate, no matter the interleaving.
        let q = Arc::new(queue(3));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                (0..2)
                    .map(|_| {
                        let r = slots(&q, 1);
                        let won = r.count();
                        std::mem::forget(r);
                        won
                    })
                    .sum::<usize>()
            }));
        }
        let won: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(won, 3);
    }

    #[test]
    fn a_reserved_segment_lands_whole_in_one_push() {
        let q = queue(8);
        let mut r = slots(&q, 3);
        assert_eq!(fill(&mut r, seg(&[0, 1, 2])).unwrap(), 3);
        let d = q.drain(Duration::ZERO);
        assert_eq!(d.segments.len(), 1);
        assert_eq!(d.segments[0].len(), 3);
        assert_eq!((d.pushes, q.depth()), (1, 0));
    }

    #[test]
    fn every_push_path_counts_one_per_successful_call() {
        let q = queue(9);
        assert_eq!(q.pushes(), 0);
        // One per call, whether it carries one request (a lone `submit`)
        // or a window, into reserved slots or not.
        fill(&mut slots(&q, 1), seg(&[0])).unwrap();
        assert_eq!(q.pushes(), 1);
        fill(&mut slots(&q, 3), seg(&[1, 2, 3])).unwrap();
        assert_eq!(q.pushes(), 2, "a segment is one call");
        push_blocking(&q, seg(&[4])).unwrap();
        push_blocking(&q, seg(&[5, 6])).unwrap();
        assert_eq!(q.pushes(), 4);
        fill(&mut q.reserve(0, 1, false), seg(&[7])).unwrap();
        assert_eq!((q.pushes(), q.depth()), (5, 8));
        // Reserving, cancelling and draining are not pushes, and the drain
        // reports the count it ran under.
        drop(slots(&q, 1));
        let d = q.drain(Duration::ZERO);
        assert_eq!((d.segments.len(), d.pushes, q.pushes()), (5, 5, 5));
        // Nothing lands on a closed queue, through any door.
        let (mut r, mut quota) = (slots(&q, 4), q.reserve(0, 4, false));
        q.close();
        assert!(fill(&mut r, seg(&[8])).is_err());
        assert_eq!(fill(&mut r, seg(&[8, 9])).unwrap_err().len(), 2);
        assert_eq!(fill(&mut quota, seg(&[8, 9])).unwrap_err().len(), 2);
        assert!(push_blocking(&q, seg(&[10])).is_err());
        assert_eq!(push_blocking(&q, seg(&[11, 12])).unwrap_err().len(), 2);
        assert_eq!(q.pushes(), 5);
    }

    #[test]
    fn drain_takes_every_segment_and_reports_finished() {
        let q = queue(16);
        for ts in 0..5 {
            fill(&mut slots(&q, 1), seg(&[ts])).unwrap();
        }
        assert_eq!(q.depth(), 5);
        assert_eq!(drain_ts(&q), [0, 1, 2, 3, 4]);
        let d = q.drain(Duration::ZERO);
        assert!(d.segments.is_empty());
        assert!(!d.finished);
        assert_eq!(q.depth(), 0);
        q.close();
        assert!(q.drain(Duration::ZERO).finished);
    }

    #[test]
    fn blocked_pusher_wakes_on_drain() {
        let q = Arc::new(queue(1));
        push_blocking(&q, seg(&[0])).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || push_blocking(&q2, seg(&[1])).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.drain(Duration::MAX).segments.len(), 1);
        assert!(pusher.join().unwrap());
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn blocking_push_streams_a_segment_through_a_tiny_queue() {
        let q = Arc::new(queue(2));
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking(seg(&[0, 1, 2, 3, 4, 5, 6])));
        let mut got = Vec::new();
        while got.len() < 7 {
            let d = q.drain(Duration::MAX);
            // Pieces of the one call, each at most what the queue holds.
            assert!(d.segments.iter().all(|s| s.len() <= 2));
            got.extend(d.segments.iter().flat_map(|s| &s.reqs).map(|r| r.ts));
        }
        let (pushed, high, refused) = pusher.join().unwrap();
        assert_eq!((pushed, refused.is_none()), (7, true));
        assert!(high <= 2);
        assert_eq!(got, (0..7).collect::<Vec<u64>>());
        assert_eq!(q.pushes(), 1, "one call, however many pieces");
    }

    #[test]
    fn close_fails_pending_and_future_pushes() {
        let q = Arc::new(queue(1));
        push_blocking(&q, seg(&[0])).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || push_blocking(&q2, seg(&[1])).is_err());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(pusher.join().unwrap(), "blocked pusher must fail on close");
        assert_eq!(slots(&q, 1).count(), 0);
        // The already-queued segment still drains, then the queue reports
        // finished.
        let d = q.drain(Duration::ZERO);
        assert_eq!(d.segments.len(), 1);
        assert!(d.finished);
    }

    #[test]
    fn blocking_push_returns_the_rest_on_close() {
        let q = Arc::new(queue(2));
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking(seg(&[0, 1, 2, 3, 4])));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let (pushed, _high, rest) = pusher.join().unwrap();
        assert_eq!(pushed, 2);
        let rest: Vec<u64> = rest.unwrap().reqs.iter().map(|r| r.ts).collect();
        assert_eq!(rest, [2, 3, 4]);
        assert_eq!(drain_ts(&q), [0, 1]);
    }

    #[test]
    fn a_bounded_drain_waits_out_its_bound_and_a_push_ends_any_drain() {
        let q = Arc::new(queue(4));
        // Nothing comes: a bounded wait runs its full course.
        let start = Instant::now();
        assert!(q.drain(Duration::from_millis(30)).segments.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(30));
        // A wait too long to add to the clock is unbounded, not a panic.
        // A push ends it, as it ends a bounded or an unbounded one.
        let too_long = Duration::from_secs(u64::MAX);
        for (ts, wait) in (0..).zip([too_long, Duration::from_secs(60), Duration::MAX]) {
            let q2 = q.clone();
            let drainer = std::thread::spawn(move || q2.drain(wait));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!drainer.is_finished(), "nothing to return yet");
            fill(&mut slots(&q, 1), seg(&[ts])).unwrap();
            let limit = Instant::now() + Duration::from_secs(10);
            while !drainer.is_finished() && Instant::now() < limit {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(drainer.is_finished(), "the push did not end {wait:?}");
            let d = drainer.join().unwrap();
            assert_eq!((d.segments.len(), d.finished), (1, false));
        }
    }

    #[test]
    fn a_gated_queue_drains_nothing_until_released_or_closed() {
        crate::ticket::tests::watchdog(|| {
            for close in [false, true] {
                let q = Arc::new(IngressQueue::new(4, &QosConfig::disabled(), true));
                fill(&mut slots(&q, 1), seg(&[0])).unwrap();
                // Even a drain that would not wait blocks while gated, and
                // returns nothing once the gate opens: the next drain gathers.
                let q2 = q.clone();
                let drainer = std::thread::spawn(move || q2.drain(Duration::ZERO));
                std::thread::sleep(Duration::from_millis(20));
                assert!(!drainer.is_finished(), "a gated queue drained");
                assert_eq!(q.depth(), 1);
                if close {
                    q.close();
                } else {
                    q.release();
                }
                let d = drainer.join().unwrap();
                assert_eq!((d.segments.len(), d.pushes, d.finished), (0, 0, false));
                let d = q.drain(Duration::ZERO);
                assert_eq!((d.segments.len(), d.pushes, d.finished), (1, 1, close));
            }
            // Released before its first drain, whose caller may have read
            // its watermark while the gate was held: that drain still
            // returns nothing.
            let q = IngressQueue::new(4, &QosConfig::disabled(), true);
            fill(&mut slots(&q, 1), seg(&[0])).unwrap();
            q.release();
            assert!(q.drain(Duration::ZERO).segments.is_empty());
            assert_eq!(drain_ts(&q), [0]);
        });
    }

    #[test]
    fn quota_room_caps_each_tenants_grant_and_frees_once_drained() {
        let q = IngressQueue::new(8, &QosConfig::uniform(2, 3), false);
        // Room is per tenant, and the queue's room caps it under Shed.
        let mut a = q.reserve(0, 5, true);
        assert_eq!(a.count(), 3);
        assert_eq!(q.reserve(0, 1, false).count(), 0, "tenant 0 is at quota");
        assert_eq!(q.reserve(1, 9, true).count(), 3);
        assert_eq!(q.reserve(1, 9, false).count(), 3, "the last grant dropped");
        // Pushed entries stay held until the combiner drains them.
        fill(&mut a, of(0, &[0, 1])).unwrap();
        drop(a);
        assert_eq!(q.reserve(0, 9, false).count(), 1);
        let mut b = q.reserve(1, 2, false);
        fill(&mut b, of(1, &[2, 3])).unwrap();
        assert_eq!(q.reserve(0, 9, true).count(), 1);
        assert_eq!(q.reserve(1, 9, true).count(), 1);
        assert_eq!(drain_ts(&q), [0, 1, 2, 3]);
        assert_eq!(q.reserve(0, 9, true).count(), 3);
        assert_eq!(q.reserve(1, 9, false).count(), 3);
    }

    #[test]
    fn a_killed_submitter_returns_its_quota_room() {
        let q = Arc::new(IngressQueue::new(8, &QosConfig::uniform(1, 2), false));
        let q2 = q.clone();
        let died = std::thread::spawn(move || {
            let _grant = q2.reserve(0, 2, false);
            panic!("submitter dies mid-admission");
        });
        assert!(died.join().is_err());
        assert_eq!(q.reserve(0, 2, true).count(), 2);
    }

    #[test]
    fn a_segment_splits_and_settles_positionally() {
        // Arrivals stay beside their requests through a split, and a split
        // range's part goes into its merge, which resolves the range's own
        // ticket once its last part lands.
        let batch = TicketBatch::new(3);
        let merge = Arc::new(RangeMerge::new(2, 2, batch.cell_ref(1)));
        let mut s = Segment::new(batch.clone(), None, 0, 3);
        s.push(Request::query(1, 10), Slot::Cell(0), 0);
        let part = Slot::Part {
            merge: merge.clone(),
            offset: 0,
        };
        s.push(Request::range(2, 1, 11), part, 700);
        s.push(Request::query(3, 12), Slot::Cell(2), 0);
        let head = s.split_front(2);
        assert_eq!(
            (head.arrivals.as_slice(), s.arrivals.as_slice()),
            (&[0, 700][..], &[0][..])
        );
        assert_eq!((head.first_ts(), s.first_ts()), (10, 12));
        head.settle([Response::Value(Some(5)), Response::Range(vec![Some(6)])]);
        let ticket = |i| batch.ticket(i).try_get();
        assert_eq!(ticket(0), Some(Outcome::Done(Response::Value(Some(5)))));
        assert_eq!(ticket(1), None, "one part of two has landed");
        merge.complete_part(1, &[Some(7)]);
        let range = Response::Range(vec![Some(6), Some(7)]);
        assert_eq!(ticket(1), Some(Outcome::Done(range)));
        s.fail(&Outcome::TimedOut);
        assert_eq!(ticket(2), Some(Outcome::TimedOut));
    }
}
