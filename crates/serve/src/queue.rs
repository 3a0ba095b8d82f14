//! Bounded MPSC ingress queue feeding one shard's epoch pipeline, and the
//! [`Segment`] it carries.
//!
//! Since the lock-free admission rework the queue carries segments in
//! *arrival* order, which may differ slightly from timestamp order (many
//! submitters interleave between drawing a timestamp range and
//! enqueueing); the combiner's reorder stage restores timestamp order. The
//! queue's job is bounded buffering with race-free admission accounting:
//!
//! - **Reservations** make shed-vs-admit decisions atomic: a submitter
//!   reserves capacity first ([`IngressQueue::try_reserve`] /
//!   [`IngressQueue::reserve_up_to`]) and then fills the reservation
//!   through the returned [`Reservation`] guard, so two submitters racing
//!   one remaining slot can never both admit past the configured depth.
//!   Reservations are RAII: a guard dropped with unfilled slots — normal
//!   return, early shed, or a *panicking* submitter — releases them, so a
//!   killed submitter can never strand capacity and wedge admission.
//!   Capacity counts requests, not segments.
//! - **Every push is one segment**: [`Reservation::push`] (shed policy),
//!   [`IngressQueue::push_blocking`] (block policy) and
//!   [`IngressQueue::push_lane`] (QoS staging) take the queue lock once per
//!   call, however many requests the segment carries — the amortization
//!   behind [`Client::submit_many`](crate::Client::submit_many), of which
//!   a lone `submit` is the one-request case. [`Reservation::forward`] is
//!   a peer combiner handing a segment on.
//! - **Tenant lanes** (QoS mode) live *inside* the queue's mutex: staged,
//!   not-yet-timestamped segments the combiner admits with weighted
//!   round-robin. Sharing the mutex lets a lane push wake a combiner
//!   blocked in [`drain`](IngressQueue::drain) through the same condvar
//!   as a direct enqueue.
//! - **Executor wake** ([`IngressQueue::wake`]) rides the same condvar: a
//!   shard's executor going idle interrupts its combiner's bounded
//!   (linger) wait, so the combiner can re-evaluate whether to close the
//!   epoch — without polling.

use crate::lane::{LaneReject, LaneSet, QosConfig, TenantId};
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
    /// Ascending by timestamp (`u64::MAX` while staged on a tenant lane,
    /// before a timestamp is drawn); a split range's part carries its
    /// sub-range.
    pub reqs: Vec<Request>,
    /// Where each request's outcome goes, positionally.
    pub slots: Vec<Slot>,
    /// Virtual arrival per request in device cycles (0 = at service
    /// start, as for live submissions). An epoch cannot start before its
    /// last member arrived; offered-load benchmarks use this to model
    /// open-loop arrival.
    pub arrivals: Vec<u64>,
    /// The call's wall-clock deadline: an expired segment resolves
    /// `TimedOut` at epoch formation without executing.
    pub deadline: Option<Instant>,
    /// Submitting tenant (0 when QoS lanes are disabled).
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
    pub(crate) fn sibling(&self) -> Self {
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
    /// Set by [`IngressQueue::wake`], consumed by the next `drain`.
    woken: bool,
    /// Successful push calls by submitters (ingress or lane), cumulative:
    /// one per call, however many requests it carried; a refused push, one
    /// that met a closed queue, or a peer combiner's
    /// [`forward`](Reservation::forward) does not count. A closed-loop
    /// caller comes back with exactly one such call per shard it touches,
    /// which is what the combiner's `Returned` exit counts.
    pushes: u64,
    /// Tenant lanes (QoS mode only).
    lanes: Option<LaneSet>,
}

impl QueueState {
    fn room(&self, capacity: usize) -> usize {
        capacity - self.len - self.reserved
    }

    fn lane_pending(&self) -> usize {
        self.lanes.as_ref().map_or(0, |l| l.pending())
    }

    fn push(&mut self, seg: Segment) {
        self.len += seg.len();
        self.segments.push_back(seg);
    }
}

/// Everything one [`IngressQueue::drain`] call popped.
#[derive(Debug)]
pub(crate) struct Drained {
    pub segments: Vec<Segment>,
    /// [`IngressQueue::pushes`] under the same lock as the pop: every
    /// ingress push it counts has all its requests in `segments` or in an
    /// earlier drain.
    pub pushes: u64,
    /// The queue is closed and nothing more will ever come (lanes
    /// included): the combiner may finish once its reorder stage is
    /// empty too.
    pub finished: bool,
}

/// RAII capacity grant on one [`IngressQueue`]. Fill it with
/// [`push`](Reservation::push) (or, from a peer combiner,
/// [`forward`](Reservation::forward)); any slots still held when the
/// guard drops — including an unwinding submitter — are released back to
/// the queue.
#[derive(Debug)]
#[must_use = "dropping a Reservation immediately releases the reserved capacity"]
pub(crate) struct Reservation<'q> {
    queue: &'q IngressQueue,
    count: usize,
}

impl Reservation<'_> {
    /// Slots still held by this guard.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Fills `seg.len()` reserved slots with one submitter's segment under
    /// one lock acquisition, counted as one push call. Returns the
    /// resulting depth; a closed queue hands the segment back.
    pub(crate) fn push(&mut self, seg: Segment) -> Result<usize, Segment> {
        self.fill(seg, true)
    }

    /// [`push`](Self::push) for a peer shard's combiner handing a segment
    /// on: no caller came back with it, so it is not counted in
    /// [`IngressQueue::pushes`].
    pub(crate) fn forward(&mut self, seg: Segment) -> Result<usize, Segment> {
        self.fill(seg, false)
    }

    /// The slots are consumed either way: a closed queue has no capacity to
    /// return them to.
    fn fill(&mut self, seg: Segment, counted: bool) -> Result<usize, Segment> {
        let n = seg.len();
        debug_assert!(self.count >= n, "fill beyond the Reservation");
        self.count -= n;
        let mut st = self.queue.state.lock().unwrap();
        st.reserved -= n;
        if st.closed {
            return Err(seg);
        }
        st.push(seg);
        st.pushes += u64::from(counted);
        self.queue.not_empty.notify_one();
        Ok(st.len)
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.queue.cancel_reservation(self.count);
    }
}

/// Bounded MPSC queue: many submitting clients, one combiner consumer.
#[derive(Debug)]
pub(crate) struct IngressQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl IngressQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ingress queue capacity must be positive");
        IngressQueue {
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// A queue with tenant lanes attached (no-op for a disabled config).
    pub(crate) fn with_lanes(capacity: usize, qos: &QosConfig) -> Self {
        let q = Self::new(capacity);
        if qos.enabled() {
            q.state.lock().unwrap().lanes = Some(LaneSet::new(qos));
        }
        q
    }

    /// Requests queued.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().len
    }

    /// Cumulative successful submitter push calls, ingress and lane: one
    /// per call.
    pub(crate) fn pushes(&self) -> u64 {
        self.state.lock().unwrap().pushes
    }

    /// Atomically reserves `n` slots (all or nothing). Returns `None` on
    /// a closed queue or insufficient room; concurrent reservers can
    /// never jointly over-commit the capacity.
    pub(crate) fn try_reserve(&self, n: usize) -> Option<Reservation<'_>> {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.room(self.capacity) < n {
            return None;
        }
        st.reserved += n;
        Some(Reservation {
            queue: self,
            count: n,
        })
    }

    /// Reserves as many of `n` slots as currently fit; the guard's
    /// `count` reports the grant (0 on a closed queue).
    pub(crate) fn reserve_up_to(&self, n: usize) -> Reservation<'_> {
        let mut st = self.state.lock().unwrap();
        let grant = if st.closed {
            0
        } else {
            st.room(self.capacity).min(n)
        };
        st.reserved += grant;
        Reservation {
            queue: self,
            count: grant,
        }
    }

    /// Returns `n` unfilled reservations (called by [`Reservation`]'s
    /// destructor).
    fn cancel_reservation(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.reserved >= n, "cancelling more than was reserved");
        st.reserved -= n;
        self.not_full.notify_all();
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

    /// Stages a segment on `tenant`'s lane (QoS mode) under one lock, as
    /// far as the tenant's quota allows. Returns the refused rest with its
    /// cause.
    pub(crate) fn push_lane(&self, tenant: TenantId, seg: Segment) -> Option<LaneReject> {
        let mut st = self.state.lock().unwrap();
        let lanes = st.lanes.as_mut().expect("push_lane without lanes");
        let (accepted, reject) = lanes.push(tenant, seg);
        if accepted > 0 {
            st.pushes += 1;
            self.not_empty.notify_one();
        }
        reject
    }

    /// WRR-drains up to `budget` staged lane requests for admission. A
    /// non-empty result marks the lanes mid-drain until
    /// [`lane_drain_done`](Self::lane_drain_done).
    pub(crate) fn drain_lanes(&self, budget: usize) -> Vec<Segment> {
        let mut st = self.state.lock().unwrap();
        match st.lanes.as_mut() {
            Some(lanes) => lanes.drain_wrr(budget),
            None => Vec::new(),
        }
    }

    /// Marks the admission of the last [`drain_lanes`](Self::drain_lanes)
    /// batch complete (shutdown waits for this before closing queues).
    pub(crate) fn lane_drain_done(&self) {
        let mut st = self.state.lock().unwrap();
        if let Some(lanes) = st.lanes.as_mut() {
            lanes.drain_done();
        }
    }

    /// Staged lane requests not yet admitted.
    pub(crate) fn lane_pending(&self) -> usize {
        self.state.lock().unwrap().lane_pending()
    }

    /// Number of tenants the lanes were configured with (1 when lanes
    /// are disabled: the implicit tenant 0).
    pub(crate) fn num_tenants(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .lanes
            .as_ref()
            .map_or(1, |l| l.num_tenants())
    }

    /// Refuses future lane pushes; staged segments still drain.
    pub(crate) fn close_lanes(&self) {
        let mut st = self.state.lock().unwrap();
        if let Some(lanes) = st.lanes.as_mut() {
            lanes.close();
        }
        self.not_empty.notify_all();
    }

    /// True when lanes are absent, or closed with nothing staged and no
    /// drained batch still being admitted.
    pub(crate) fn lanes_quiesced(&self) -> bool {
        self.state
            .lock()
            .unwrap()
            .lanes
            .as_ref()
            .is_none_or(|l| l.quiesced())
    }

    /// Interrupts the consumer's bounded wait in [`drain`](Self::drain)
    /// (the shard's executor calls this when it goes idle). The flag is
    /// sticky until the next `drain` returns, so a wake that lands between
    /// the consumer's decision to wait and the wait itself is not lost. An
    /// unbounded (`wait: None`) drain waits for arrivals only and sleeps
    /// through it.
    pub(crate) fn wake(&self) {
        let mut st = self.state.lock().unwrap();
        st.woken = true;
        self.not_empty.notify_one();
    }

    /// Drains every queued segment, in arrival order. With `wait: None`
    /// the call blocks until at least one exists (directly queued *or*
    /// staged on a lane — lane arrivals need the combiner awake to admit
    /// them) or the queue closes; `Some(d)` bounds that wait
    /// (`Duration::ZERO` = non-blocking; a `d` too large to add to the
    /// clock = no time bound) and also returns early on a
    /// [`wake`](Self::wake). `finished` is set once the queue is closed
    /// and fully drained, lanes included.
    pub(crate) fn drain(&self, wait: Option<Duration>) -> Drained {
        let mut st = self.state.lock().unwrap();
        let idle = |st: &QueueState| st.segments.is_empty() && st.lane_pending() == 0 && !st.closed;
        if idle(&st) {
            match wait {
                None => {
                    while idle(&st) {
                        st = self.not_empty.wait(st).unwrap();
                    }
                }
                Some(d) if !d.is_zero() => {
                    let deadline = Instant::now().checked_add(d);
                    while idle(&st) && !st.woken {
                        let Some(deadline) = deadline else {
                            st = self.not_empty.wait(st).unwrap();
                            continue;
                        };
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (st2, timeout) =
                            self.not_empty.wait_timeout(st, deadline - now).unwrap();
                        st = st2;
                        if timeout.timed_out() {
                            break;
                        }
                    }
                }
                Some(_) => {}
            }
        }
        st.woken = false;
        st.len = 0;
        let segments: Vec<Segment> = st.segments.drain(..).collect();
        if !segments.is_empty() {
            self.not_full.notify_all();
        }
        Drained {
            segments,
            pushes: st.pushes,
            finished: st.closed && st.lane_pending() == 0,
        }
    }

    /// Closes the queue: future pushes and reservations fail, blocked
    /// pushers wake with their segments back, and `drain` reports
    /// `finished` once the remainder is popped.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        if let Some(lanes) = st.lanes.as_mut() {
            lanes.close();
        }
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

    /// One call staged on a lane: requests not yet timestamped.
    fn staged(n: usize) -> Segment {
        seg(&vec![u64::MAX; n])
    }

    /// The depth an unrefused blocking push reached.
    fn push_blocking(q: &IngressQueue, s: Segment) -> Result<usize, Segment> {
        match q.push_blocking(s) {
            (_, high, None) => Ok(high),
            (_, _, Some(rest)) => Err(rest),
        }
    }

    fn drain_ts(q: &IngressQueue) -> Vec<u64> {
        let d = q.drain(Some(Duration::ZERO));
        d.segments
            .iter()
            .flat_map(|s| &s.reqs)
            .map(|r| r.ts)
            .collect()
    }

    #[test]
    fn reservations_gate_admission_at_capacity() {
        let q = IngressQueue::new(2);
        let mut r1 = q.try_reserve(1).unwrap();
        let mut r2 = q.try_reserve(1).unwrap();
        // Capacity is fully promised: a third reservation must fail even
        // though nothing has been pushed yet.
        assert!(q.try_reserve(1).is_none());
        assert_eq!(r1.push(seg(&[0])).unwrap(), 1);
        assert_eq!(r2.push(seg(&[1])).unwrap(), 2);
        assert!(q.try_reserve(1).is_none());
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn dropped_reservations_free_room() {
        let q = IngressQueue::new(2);
        let r = q.try_reserve(2).unwrap();
        assert!(q.try_reserve(1).is_none());
        drop(r);
        let r = q.try_reserve(2).unwrap();
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn panicking_reserver_releases_capacity() {
        // The RAII guard must release on unwind: a submitter killed
        // between try_reserve and push no longer leaks the slot (which
        // used to wedge admission at capacity forever).
        let q = Arc::new(IngressQueue::new(1));
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let _res = q2.try_reserve(1).expect("slot free");
            panic!("submitter dies mid-admission");
        });
        assert!(t.join().is_err());
        let mut r = q.try_reserve(1).expect("capacity recovered after panic");
        assert_eq!(r.push(seg(&[7])).unwrap(), 1);
        assert_eq!(drain_ts(&q), [7]);
    }

    #[test]
    fn partially_used_reservation_returns_the_rest() {
        let q = IngressQueue::new(4);
        {
            let mut r = q.try_reserve(3).unwrap();
            r.push(seg(&[0])).unwrap();
            assert_eq!(r.count(), 2);
            // Two unfilled slots release here.
        }
        assert_eq!(q.reserve_up_to(9).count(), 3);
    }

    #[test]
    fn reserve_up_to_grants_partial_room() {
        let q = IngressQueue::new(4);
        let r3 = q.try_reserve(3).unwrap();
        let r1 = q.reserve_up_to(5);
        assert_eq!(r1.count(), 1);
        assert_eq!(q.reserve_up_to(5).count(), 0);
        drop(r3);
        drop(r1);
        let r = q.reserve_up_to(2);
        assert_eq!(r.count(), 2);
        drop(r);
        assert_eq!(push_blocking(&q, seg(&[9])).unwrap(), 1);
        assert_eq!(q.reserve_up_to(9).count(), 3);
    }

    #[test]
    fn racing_reservers_never_over_admit() {
        // 4 threads race 8 single-slot reservations against capacity 3:
        // exactly 3 must win in aggregate, no matter the interleaving.
        let q = Arc::new(IngressQueue::new(3));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                (0..2)
                    .filter(|_| q.try_reserve(1).map(std::mem::forget).is_some())
                    .count()
            }));
        }
        let won: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(won, 3);
    }

    #[test]
    fn a_reserved_segment_lands_whole_in_one_push() {
        let q = IngressQueue::new(8);
        let mut r = q.try_reserve(3).unwrap();
        assert_eq!(r.push(seg(&[0, 1, 2])).unwrap(), 3);
        let d = q.drain(Some(Duration::ZERO));
        assert_eq!(d.segments.len(), 1);
        assert_eq!(d.segments[0].len(), 3);
        assert_eq!((d.pushes, q.depth()), (1, 0));
    }

    #[test]
    fn every_push_path_counts_one_per_successful_call() {
        let qos = QosConfig::uniform(1, 2);
        let q = IngressQueue::with_lanes(9, &qos);
        assert_eq!(q.pushes(), 0);
        // One per call, whether it carries one request (a lone `submit`)
        // or a window.
        q.try_reserve(1).unwrap().push(seg(&[0])).unwrap();
        assert_eq!(q.pushes(), 1);
        q.try_reserve(3).unwrap().push(seg(&[1, 2, 3])).unwrap();
        assert_eq!(q.pushes(), 2, "a segment is one call");
        push_blocking(&q, seg(&[4])).unwrap();
        push_blocking(&q, seg(&[5, 6])).unwrap();
        assert_eq!(q.pushes(), 4);
        assert!(q.push_lane(0, staged(1)).is_none());
        assert_eq!(q.pushes(), 5);
        // A peer combiner's forward lands the segment but is nobody's
        // return.
        q.try_reserve(1).unwrap().forward(seg(&[7])).unwrap();
        assert_eq!((q.pushes(), q.depth()), (5, 8));
        // One lane slot left: the push lands one request and counts once;
        // the next is refused whole and does not count.
        let over = q.push_lane(0, staged(2));
        assert!(matches!(over, Some(LaneReject::OverQuota(rest)) if rest.len() == 1));
        assert_eq!(q.pushes(), 6);
        let over = q.push_lane(0, staged(1));
        assert!(matches!(over, Some(LaneReject::OverQuota(_))));
        assert_eq!(q.pushes(), 6);
        // Reserving, cancelling and draining are not pushes, and the drain
        // reports the count it ran under.
        drop(q.try_reserve(1).unwrap());
        let d = q.drain(Some(Duration::ZERO));
        assert_eq!((d.segments.len(), d.pushes, q.pushes()), (5, 6, 6));
        // Nothing lands on a closed queue, through any door.
        let mut r = q.try_reserve(4).unwrap();
        q.close();
        assert!(r.push(seg(&[8])).is_err());
        assert!(r.forward(seg(&[8])).is_err());
        assert_eq!(r.push(seg(&[8, 9])).unwrap_err().len(), 2);
        assert!(push_blocking(&q, seg(&[10])).is_err());
        assert_eq!(push_blocking(&q, seg(&[11, 12])).unwrap_err().len(), 2);
        let closed = q.push_lane(0, staged(1));
        assert!(matches!(closed, Some(LaneReject::Closed(_))));
        assert_eq!(q.pushes(), 6);
    }

    #[test]
    fn drain_takes_every_segment_and_reports_finished() {
        let q = IngressQueue::new(16);
        for ts in 0..5 {
            q.try_reserve(1).unwrap().push(seg(&[ts])).unwrap();
        }
        assert_eq!(q.depth(), 5);
        assert_eq!(drain_ts(&q), [0, 1, 2, 3, 4]);
        let d = q.drain(Some(Duration::ZERO));
        assert!(d.segments.is_empty());
        assert!(!d.finished);
        assert_eq!(q.depth(), 0);
        q.close();
        assert!(q.drain(Some(Duration::ZERO)).finished);
    }

    #[test]
    fn blocked_pusher_wakes_on_drain() {
        let q = Arc::new(IngressQueue::new(1));
        push_blocking(&q, seg(&[0])).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || push_blocking(&q2, seg(&[1])).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.drain(None).segments.len(), 1);
        assert!(pusher.join().unwrap());
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn blocking_push_streams_a_segment_through_a_tiny_queue() {
        let q = Arc::new(IngressQueue::new(2));
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking(seg(&[0, 1, 2, 3, 4, 5, 6])));
        let mut got = Vec::new();
        while got.len() < 7 {
            let d = q.drain(None);
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
        let q = Arc::new(IngressQueue::new(1));
        push_blocking(&q, seg(&[0])).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || push_blocking(&q2, seg(&[1])).is_err());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(pusher.join().unwrap(), "blocked pusher must fail on close");
        assert!(q.try_reserve(1).is_none());
        assert_eq!(q.reserve_up_to(1).count(), 0);
        // The already-queued segment still drains, then the queue reports
        // finished.
        let d = q.drain(Some(Duration::ZERO));
        assert_eq!(d.segments.len(), 1);
        assert!(d.finished);
    }

    #[test]
    fn blocking_push_returns_the_rest_on_close() {
        let q = Arc::new(IngressQueue::new(2));
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
    fn wake_interrupts_a_bounded_wait_once() {
        let q = IngressQueue::new(4);
        // Sticky: a wake that lands before the wait still ends it, and a
        // wait too long to add to the clock is unbounded, not a panic.
        q.wake();
        let d = q.drain(Some(Duration::MAX));
        assert!(d.segments.is_empty());
        assert!(!d.finished);
        // Consumed: the next bounded wait runs its full course.
        let start = Instant::now();
        q.drain(Some(Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn wake_does_not_end_an_unbounded_wait() {
        let q = Arc::new(IngressQueue::new(4));
        let q2 = q.clone();
        let drainer = std::thread::spawn(move || q2.drain(None));
        std::thread::sleep(Duration::from_millis(20));
        q.wake();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!drainer.is_finished(), "only an arrival ends wait: None");
        push_blocking(&q, seg(&[5])).unwrap();
        assert_eq!(drainer.join().unwrap().segments.len(), 1);
    }

    #[test]
    fn lane_push_wakes_a_blocked_drainer() {
        let qos = QosConfig::uniform(2, 8);
        let q = Arc::new(IngressQueue::with_lanes(16, &qos));
        let q2 = q.clone();
        let drainer = std::thread::spawn(move || q2.drain(None));
        std::thread::sleep(Duration::from_millis(20));
        assert!(q.push_lane(1, staged(1)).is_none());
        // The drainer wakes (lane pending breaks the idle predicate) with
        // nothing queued directly; the combiner then admits from the lanes.
        let d = drainer.join().unwrap();
        assert!(d.segments.is_empty());
        assert!(!d.finished);
        assert_eq!(q.lane_pending(), 1);
        assert_eq!(q.drain_lanes(4).len(), 1);
        q.lane_drain_done();
    }

    #[test]
    fn lane_quiesce_tracks_drain_in_progress() {
        let qos = QosConfig::uniform(1, 4);
        let q = IngressQueue::with_lanes(8, &qos);
        assert!(q.push_lane(0, staged(1)).is_none());
        q.close_lanes();
        let refused = q.push_lane(0, staged(1));
        assert!(matches!(refused, Some(LaneReject::Closed(_))));
        assert!(!q.lanes_quiesced());
        let batch = q.drain_lanes(8);
        assert_eq!(batch.len(), 1);
        assert!(!q.lanes_quiesced(), "drained batch still being admitted");
        q.lane_drain_done();
        assert!(q.lanes_quiesced());
        // Direct segments still flow after lanes close.
        q.try_reserve(1).unwrap().push(seg(&[3])).unwrap();
        assert_eq!(drain_ts(&q), [3]);
    }

    #[test]
    fn lane_push_refuses_the_rest_by_cause() {
        let qos = QosConfig::uniform(1, 2);
        let q = IngressQueue::with_lanes(8, &qos);
        let over = q.push_lane(0, seg(&[0, 1, 2, 3]));
        let Some(LaneReject::OverQuota(rest)) = over else {
            panic!("the quota refuses the tail: {over:?}")
        };
        assert_eq!(rest.reqs.iter().map(|r| r.ts).collect::<Vec<_>>(), [2, 3]);
        q.close();
        let closed = q.push_lane(0, seg(&[4, 5]));
        assert!(matches!(closed, Some(LaneReject::Closed(s)) if s.len() == 2));
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
