//! Bounded MPSC ingress queue feeding one shard's epoch pipeline.
//!
//! Since the lock-free admission rework the queue carries entries in
//! *arrival* order, which may differ slightly from timestamp order (many
//! submitters interleave between drawing a timestamp and enqueueing); the
//! combiner's reorder stage restores timestamp order. The queue's job is
//! bounded buffering with race-free admission accounting:
//!
//! - **Reservations** make shed-vs-admit decisions atomic: a submitter
//!   reserves capacity first ([`IngressQueue::try_reserve`] /
//!   [`IngressQueue::reserve_up_to`]) and then fills the reservation
//!   through the returned [`Reservation`] guard, so two submitters racing
//!   one remaining slot can never both admit past the configured depth.
//!   Reservations are RAII: a guard dropped with unfilled slots — normal
//!   return, early shed, or a *panicking* submitter — releases them, so a
//!   killed submitter can never strand capacity and wedge admission.
//! - **Every push is a bulk push**: [`Reservation::push_many`] (shed
//!   policy), [`IngressQueue::push_blocking_many`] (block policy) and
//!   [`IngressQueue::push_lane_many`] (QoS staging) take the queue lock
//!   once per call, however many entries it carries — the amortization
//!   behind [`Client::submit_many`](crate::Client::submit_many), of which
//!   a lone `submit` is the one-element case. The one single-entry door is
//!   [`Reservation::forward`], a peer combiner handing an entry on.
//! - **Tenant lanes** (QoS mode) live *inside* the queue's mutex: staged,
//!   not-yet-timestamped entries the combiner admits with weighted
//!   round-robin. Sharing the mutex lets a lane push wake a combiner
//!   blocked in [`drain`](IngressQueue::drain) through the same condvar
//!   as a direct enqueue.
//! - **Executor wake** ([`IngressQueue::wake`]) rides the same condvar: a
//!   shard's executor going idle interrupts its combiner's bounded
//!   (linger) wait, so the combiner can re-evaluate whether to close the
//!   epoch — without polling.

use crate::lane::{LaneReject, LaneSet, QosConfig, TenantId};
use crate::ticket::Completion;
use eirene_workloads::Request;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
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

/// One admitted request, queued on its shard.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    /// The request as the shard's tree will see it (sub-range keys for
    /// split ranges; the admission timestamp in `ts`, or `u64::MAX`
    /// while staged on a tenant lane before a timestamp is drawn).
    pub req: Request,
    /// Wall-clock deadline; expired entries resolve `TimedOut` at epoch
    /// formation without executing.
    pub deadline: Option<Instant>,
    /// Virtual arrival time in device cycles (0 = at service start). The
    /// epoch pipeline cannot start an epoch before its last member
    /// arrived; offered-load benchmarks use this to model open-loop
    /// arrival, and live submissions leave it 0.
    pub arrival: u64,
    /// Submitting tenant (0 when QoS lanes are disabled).
    pub tenant: TenantId,
    pub completion: Completion,
}

#[derive(Debug, Default)]
struct QueueState {
    entries: VecDeque<Entry>,
    /// Capacity promised to in-flight submitters but not yet filled.
    /// `entries.len() + reserved <= capacity` always holds.
    reserved: usize,
    closed: bool,
    /// Set by [`IngressQueue::wake`], consumed by the next `drain`.
    woken: bool,
    /// Successful push calls by submitters (ingress or lane), cumulative:
    /// one per call, however many entries it carried; a refused push, one
    /// that met a closed queue, or a peer combiner's
    /// [`forward`](Reservation::forward) does not count. A closed-loop
    /// caller comes back with exactly one such call per shard it touches
    /// (a split range: one per part), which is what the combiner's
    /// `Returned` exit counts.
    pushes: u64,
    /// Tenant lanes (QoS mode only).
    lanes: Option<LaneSet>,
}

impl QueueState {
    fn room(&self, capacity: usize) -> usize {
        capacity - self.entries.len() - self.reserved
    }

    fn lane_pending(&self) -> usize {
        self.lanes.as_ref().map_or(0, |l| l.pending())
    }
}

/// Everything one [`IngressQueue::drain`] call popped.
#[derive(Debug)]
pub(crate) struct Drained {
    pub entries: Vec<Entry>,
    /// [`IngressQueue::pushes`] under the same lock as the pop: with an
    /// unbounded `max`, every ingress push it counts has all its entries
    /// in `entries` or in an earlier drain.
    pub pushes: u64,
    /// The queue is closed and nothing more will ever come (lanes
    /// included): the combiner may finish once its reorder stage is
    /// empty too.
    pub finished: bool,
}

/// What a bulk ingress push did: entries pushed, the (high-water) depth
/// they reached, and the entries a closed queue refused, in order.
pub(crate) type Pushed = (usize, usize, Vec<Entry>);

/// Outcome of a bulk lane push: entries the lanes refused, partitioned
/// by cause so the caller can count quota sheds separately.
#[derive(Debug, Default)]
pub(crate) struct LaneBulkReject {
    pub over_quota: Vec<Entry>,
    pub closed: Vec<Entry>,
}

/// RAII capacity grant on one [`IngressQueue`]. Fill it with
/// [`push_many`](Reservation::push_many) (or, from a peer combiner,
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

    /// Fills one reserved slot for a peer shard's combiner handing an
    /// entry on: no caller came back with it, so it is not counted in
    /// [`IngressQueue::pushes`]. Fails only on a closed queue (the entry
    /// comes back; the slot is consumed either way — a closed queue has
    /// no capacity to return to). Returns the resulting depth.
    pub(crate) fn forward(&mut self, entry: Entry) -> Result<usize, Entry> {
        debug_assert!(self.count >= 1, "forward on an exhausted Reservation");
        self.count -= 1;
        let mut st = self.queue.state.lock().unwrap();
        st.reserved -= 1;
        if st.closed {
            return Err(entry);
        }
        st.entries.push_back(entry);
        self.queue.not_empty.notify_one();
        Ok(st.entries.len())
    }

    /// Fills `entries.len()` reserved slots under one lock acquisition.
    /// A closed queue refuses them all.
    pub(crate) fn push_many(&mut self, entries: Vec<Entry>) -> Pushed {
        debug_assert!(
            self.count >= entries.len(),
            "push_many beyond the Reservation"
        );
        let n = entries.len();
        self.count -= n;
        let mut st = self.queue.state.lock().unwrap();
        st.reserved -= n;
        if st.closed {
            return (0, 0, entries);
        }
        st.entries.extend(entries);
        st.pushes += 1;
        self.queue.not_empty.notify_one();
        (n, st.entries.len(), Vec::new())
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
            state: Mutex::new(QueueState {
                // Pre-size the ring (capped for very deep queues) so bulk
                // pushes on the ingress hot path don't pay repeated growth
                // memcpys while the queue fills.
                entries: VecDeque::with_capacity(capacity.min(1 << 15)),
                ..QueueState::default()
            }),
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

    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().entries.len()
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

    /// Blocking bulk push (block policy): takes the lock once and pushes
    /// every entry, waiting on the consumer whenever the queue is full. If
    /// the queue closes mid-way the unpushed tail is refused.
    pub(crate) fn push_blocking_many(&self, entries: Vec<Entry>) -> Pushed {
        let mut st = self.state.lock().unwrap();
        let (mut pushed, mut high) = (0usize, 0usize);
        let mut it = entries.into_iter();
        for entry in it.by_ref() {
            while !st.closed && st.room(self.capacity) == 0 {
                self.not_empty.notify_one();
                st = self.not_full.wait(st).unwrap();
            }
            if st.closed {
                let mut rest = vec![entry];
                rest.extend(it);
                return (pushed, high, rest);
            }
            st.entries.push_back(entry);
            pushed += 1;
            high = high.max(st.entries.len());
        }
        st.pushes += 1;
        self.not_empty.notify_one();
        (pushed, high, Vec::new())
    }

    /// Stages entries on `tenant`'s lane (QoS mode) under one lock.
    /// Returns the accepted count and the refused entries partitioned by
    /// cause.
    pub(crate) fn push_lane_many(
        &self,
        tenant: TenantId,
        entries: Vec<Entry>,
    ) -> (usize, LaneBulkReject) {
        let mut st = self.state.lock().unwrap();
        let lanes = st.lanes.as_mut().expect("push_lane_many without lanes");
        let mut accepted = 0usize;
        let mut reject = LaneBulkReject::default();
        for entry in entries {
            match lanes.push(tenant, entry) {
                Ok(_) => accepted += 1,
                Err(LaneReject::OverQuota(e)) => reject.over_quota.push(e),
                Err(LaneReject::Closed(e)) => reject.closed.push(e),
            }
        }
        if accepted > 0 {
            st.pushes += 1;
            self.not_empty.notify_one();
        }
        (accepted, reject)
    }

    /// WRR-drains up to `budget` staged lane entries for admission. A
    /// non-empty result marks the lanes mid-drain until
    /// [`lane_drain_done`](Self::lane_drain_done).
    pub(crate) fn drain_lanes(&self, budget: usize) -> Vec<Entry> {
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

    /// Staged lane entries not yet admitted.
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

    /// Refuses future lane pushes; staged entries still drain.
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

    /// Drains up to `max` entries in arrival order. With `wait: None` the
    /// call blocks until at least one entry exists (directly queued *or*
    /// staged on a lane — lane arrivals need the combiner awake to admit
    /// them) or the queue closes; `Some(d)` bounds that wait
    /// (`Duration::ZERO` = non-blocking; a `d` too large to add to the
    /// clock = no time bound) and also returns early on a
    /// [`wake`](Self::wake). `finished` is set once the queue is closed
    /// and fully drained, lanes included.
    pub(crate) fn drain(&self, max: usize, wait: Option<Duration>) -> Drained {
        let mut st = self.state.lock().unwrap();
        let idle = |st: &QueueState| st.entries.is_empty() && st.lane_pending() == 0 && !st.closed;
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
        let n = st.entries.len().min(max);
        let entries: Vec<Entry> = st.entries.drain(..n).collect();
        if n > 0 {
            self.not_full.notify_all();
        }
        Drained {
            entries,
            pushes: st.pushes,
            finished: st.closed && st.entries.is_empty() && st.lane_pending() == 0,
        }
    }

    /// Closes the queue: future pushes and reservations fail, blocked
    /// pushers wake with their entries back, and `drain` reports
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
    use crate::ticket::TicketBatch;
    use eirene_workloads::Request;
    use std::sync::Arc;

    fn entry(ts: u64) -> Entry {
        let cell = TicketBatch::new(1).cell_ref(0);
        Entry {
            req: Request::query(1, ts),
            deadline: None,
            arrival: 0,
            tenant: 0,
            completion: Completion::Direct(cell),
        }
    }

    /// The depth an unrefused bulk push reached.
    fn landed((pushed, depth, refused): Pushed) -> Result<usize, Vec<Entry>> {
        if refused.is_empty() {
            assert!(pushed > 0);
            Ok(depth)
        } else {
            Err(refused)
        }
    }

    // The one-element forms of the three bulk pushes, as a lone `submit`
    // makes them.
    fn fill(r: &mut Reservation<'_>, e: Entry) -> Result<usize, Vec<Entry>> {
        landed(r.push_many(vec![e]))
    }

    fn push_blocking(q: &IngressQueue, e: Entry) -> Result<usize, Vec<Entry>> {
        landed(q.push_blocking_many(vec![e]))
    }

    fn push_lane(q: &IngressQueue, tenant: TenantId, e: Entry) -> Result<(), LaneBulkReject> {
        match q.push_lane_many(tenant, vec![e]) {
            (1, _) => Ok(()),
            (_, reject) => Err(reject),
        }
    }

    fn drain_ts(q: &IngressQueue, max: usize) -> Vec<u64> {
        q.drain(max, Some(Duration::ZERO))
            .entries
            .iter()
            .map(|e| e.req.ts)
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
        assert_eq!(fill(&mut r1, entry(0)).unwrap(), 1);
        assert_eq!(fill(&mut r2, entry(1)).unwrap(), 2);
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
        assert_eq!(fill(&mut r, entry(7)).unwrap(), 1);
        assert_eq!(drain_ts(&q, 4), [7]);
    }

    #[test]
    fn partially_used_reservation_returns_the_rest() {
        let q = IngressQueue::new(4);
        {
            let mut r = q.try_reserve(3).unwrap();
            fill(&mut r, entry(0)).unwrap();
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
        assert_eq!(push_blocking(&q, entry(9)).unwrap(), 1);
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
    fn bulk_reserved_push_fills_in_one_shot() {
        let q = IngressQueue::new(8);
        let mut r = q.try_reserve(3).unwrap();
        let (pushed, depth, refused) = r.push_many(vec![entry(0), entry(1), entry(2)]);
        assert_eq!((pushed, depth, refused.len()), (3, 3, 0));
        assert_eq!(drain_ts(&q, 8), [0, 1, 2]);
    }

    #[test]
    fn every_push_path_counts_one_per_successful_call() {
        let qos = QosConfig::uniform(1, 2);
        let q = IngressQueue::with_lanes(9, &qos);
        assert_eq!(q.pushes(), 0);
        // One per call, whether it carries one entry (a lone `submit`) or
        // a window.
        fill(&mut q.try_reserve(1).unwrap(), entry(0)).unwrap();
        assert_eq!(q.pushes(), 1);
        let mut r = q.try_reserve(3).unwrap();
        landed(r.push_many(vec![entry(1), entry(2), entry(3)])).unwrap();
        assert_eq!(q.pushes(), 2, "a bulk fill is one call");
        push_blocking(&q, entry(4)).unwrap();
        landed(q.push_blocking_many(vec![entry(5), entry(6)])).unwrap();
        assert_eq!(q.pushes(), 4);
        push_lane(&q, 0, entry(u64::MAX)).unwrap();
        assert_eq!(q.pushes(), 5);
        // A peer combiner's forward lands the entry but is nobody's return.
        q.try_reserve(1).unwrap().forward(entry(7)).unwrap();
        assert_eq!((q.pushes(), q.depth()), (5, 8));
        // One lane slot left: the bulk push lands one entry and counts
        // once; the next is refused whole and does not count.
        let (accepted, _) = q.push_lane_many(0, vec![entry(u64::MAX), entry(u64::MAX)]);
        assert_eq!((accepted, q.pushes()), (1, 6));
        assert!(push_lane(&q, 0, entry(u64::MAX)).is_err());
        assert_eq!(q.pushes(), 6);
        // Reserving, cancelling and draining are not pushes, and the drain
        // reports the count it ran under.
        drop(q.try_reserve(1).unwrap());
        let d = q.drain(usize::MAX, Some(Duration::ZERO));
        assert_eq!((d.entries.len(), d.pushes, q.pushes()), (8, 6, 6));
        // Nothing lands on a closed queue, through any door.
        let mut r = q.try_reserve(4).unwrap();
        q.close();
        assert!(fill(&mut r, entry(8)).is_err());
        assert!(r.forward(entry(8)).is_err());
        assert_eq!(r.push_many(vec![entry(8), entry(9)]).2.len(), 2);
        assert!(push_blocking(&q, entry(10)).is_err());
        assert_eq!(q.push_blocking_many(vec![entry(11), entry(12)]).2.len(), 2);
        assert!(push_lane(&q, 0, entry(u64::MAX)).is_err());
        assert_eq!(q.pushes(), 6);
    }

    #[test]
    fn drain_bounds_size_and_reports_finished() {
        let q = IngressQueue::new(16);
        for ts in 0..5 {
            let mut r = q.try_reserve(1).unwrap();
            fill(&mut r, entry(ts)).unwrap();
        }
        assert_eq!(drain_ts(&q, 3), [0, 1, 2]);
        let d = q.drain(3, Some(Duration::ZERO));
        assert_eq!(d.entries.len(), 2);
        assert!(!d.finished);
        q.close();
        assert!(q.drain(3, Some(Duration::ZERO)).finished);
    }

    #[test]
    fn blocked_pusher_wakes_on_drain() {
        let q = Arc::new(IngressQueue::new(1));
        push_blocking(&q, entry(0)).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || push_blocking(&q2, entry(1)).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.drain(1, None).entries.len(), 1);
        assert!(pusher.join().unwrap());
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn blocking_bulk_push_streams_through_a_tiny_queue() {
        let q = Arc::new(IngressQueue::new(2));
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking_many((0..7).map(entry).collect()));
        let mut got = Vec::new();
        while got.len() < 7 {
            got.extend(q.drain(16, None).entries.into_iter().map(|e| e.req.ts));
        }
        let (pushed, high, refused) = pusher.join().unwrap();
        assert_eq!((pushed, refused.len()), (7, 0));
        assert!(high <= 2);
        assert_eq!(got, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn close_fails_pending_and_future_pushes() {
        let q = Arc::new(IngressQueue::new(1));
        push_blocking(&q, entry(0)).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || push_blocking(&q2, entry(1)).is_err());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(pusher.join().unwrap(), "blocked pusher must fail on close");
        assert!(q.try_reserve(1).is_none());
        assert_eq!(q.reserve_up_to(1).count(), 0);
        // The already-queued entry still drains, then the queue reports
        // finished.
        let d = q.drain(8, Some(Duration::ZERO));
        assert_eq!(d.entries.len(), 1);
        assert!(d.finished);
    }

    #[test]
    fn bulk_blocking_push_returns_tail_on_close() {
        let q = Arc::new(IngressQueue::new(2));
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_blocking_many((0..5).map(entry).collect()));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let (pushed, _high, rest) = pusher.join().unwrap();
        assert_eq!(pushed, 2);
        assert_eq!(rest.len(), 3);
        assert_eq!(q.drain(8, Some(Duration::ZERO)).entries.len(), 2);
    }

    #[test]
    fn wake_interrupts_a_bounded_wait_once() {
        let q = IngressQueue::new(4);
        // Sticky: a wake that lands before the wait still ends it, and a
        // wait too long to add to the clock is unbounded, not a panic.
        q.wake();
        let d = q.drain(8, Some(Duration::MAX));
        assert!(d.entries.is_empty());
        assert!(!d.finished);
        // Consumed: the next bounded wait runs its full course.
        let start = Instant::now();
        q.drain(8, Some(Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn wake_does_not_end_an_unbounded_wait() {
        let q = Arc::new(IngressQueue::new(4));
        let q2 = q.clone();
        let drainer = std::thread::spawn(move || q2.drain(8, None));
        std::thread::sleep(Duration::from_millis(20));
        q.wake();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!drainer.is_finished(), "only an arrival ends wait: None");
        push_blocking(&q, entry(5)).unwrap();
        assert_eq!(drainer.join().unwrap().entries.len(), 1);
    }

    #[test]
    fn lane_push_wakes_a_blocked_drainer() {
        let qos = QosConfig::uniform(2, 8);
        let q = Arc::new(IngressQueue::with_lanes(16, &qos));
        let q2 = q.clone();
        let drainer = std::thread::spawn(move || q2.drain(8, None));
        std::thread::sleep(Duration::from_millis(20));
        push_lane(&q, 1, entry(u64::MAX)).unwrap();
        // The drainer wakes (lane pending breaks the idle predicate) with
        // no direct entries; the combiner then admits from the lanes.
        let d = drainer.join().unwrap();
        assert!(d.entries.is_empty());
        assert!(!d.finished);
        assert_eq!(q.lane_pending(), 1);
        assert_eq!(q.drain_lanes(4).len(), 1);
        q.lane_drain_done();
    }

    #[test]
    fn lane_quiesce_tracks_drain_in_progress() {
        let qos = QosConfig::uniform(1, 4);
        let q = IngressQueue::with_lanes(8, &qos);
        push_lane(&q, 0, entry(u64::MAX)).unwrap();
        q.close_lanes();
        let refused = push_lane(&q, 0, entry(u64::MAX)).unwrap_err();
        assert_eq!((refused.over_quota.len(), refused.closed.len()), (0, 1));
        assert!(!q.lanes_quiesced());
        let batch = q.drain_lanes(8);
        assert_eq!(batch.len(), 1);
        assert!(!q.lanes_quiesced(), "drained batch still being admitted");
        q.lane_drain_done();
        assert!(q.lanes_quiesced());
        // Direct entries still flow after lanes close.
        let mut r = q.try_reserve(1).unwrap();
        fill(&mut r, entry(3)).unwrap();
        assert_eq!(drain_ts(&q, 4), [3]);
    }

    #[test]
    fn bulk_lane_push_partitions_rejects() {
        let qos = QosConfig::uniform(1, 2);
        let q = IngressQueue::with_lanes(8, &qos);
        let (accepted, rej) = q.push_lane_many(0, (0..4).map(entry).collect());
        assert_eq!(accepted, 2);
        assert_eq!(rej.over_quota.len(), 2);
        assert!(rej.closed.is_empty());
        q.close();
        let (accepted, rej) = q.push_lane_many(0, (0..2).map(entry).collect());
        assert_eq!(accepted, 0);
        assert_eq!(rej.closed.len(), 2);
    }
}
