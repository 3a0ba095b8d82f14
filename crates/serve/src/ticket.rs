//! Asynchronous completion: tickets, outcomes, and cross-shard range
//! merging.

use eirene_workloads::{Response, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Sentinel for "no timestamp assigned yet" in [`TicketCell::ts`].
const TS_UNSET: u64 = u64::MAX;

/// Final outcome of a submitted request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The request executed in some epoch; the response is linearized at
    /// the request's admission timestamp.
    Done(Response),
    /// The request's deadline expired before its epoch formed; it never
    /// executed against any tree.
    TimedOut,
    /// Admission control shed the request (bounded ingress queue full
    /// under [`AdmitPolicy::Shed`](crate::AdmitPolicy::Shed), or the
    /// service was already shut down). It never executed.
    Rejected,
}

impl Outcome {
    /// The response, if the request executed.
    pub fn response(&self) -> Option<&Response> {
        match self {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// One-shot slot a [`Ticket`] reads without a lock. The first store wins;
/// later ones are ignored (a split range can race a timeout against a
/// merge).
#[derive(Debug)]
pub(crate) struct TicketCell {
    outcome: OnceLock<Outcome>,
    /// The admission timestamp, once drawn ([`TS_UNSET`] before that and
    /// for requests that resolve without admission: empty ranges, sheds).
    ts: AtomicU64,
}

impl TicketCell {
    pub(crate) fn set_ts(&self, ts: u64) {
        self.ts.store(ts, Ordering::Release);
    }

    /// Stores the outcome without waking anyone. For a ticket nobody can
    /// be waiting on yet (its submission call has not returned), or with a
    /// wake of the block to follow.
    pub(crate) fn store(&self, outcome: Outcome) {
        let _ = self.outcome.set(outcome);
    }
}

/// One block of ticket cells allocated together, and the one place the
/// callers of its submission park. Batched submission
/// ([`Client::submit_many`](crate::Client::submit_many)) makes one block
/// per call instead of one `Arc` per request — the dominant per-op malloc
/// on the ingress hot path. [`Ticket`]s address into the block by index
/// via [`CellRef`]; inside the pipeline a segment holds the block once and
/// each of its requests a [`Slot`]. The block is freed when the last of
/// them drops.
#[derive(Debug)]
pub(crate) struct TicketBatch {
    cells: Box<[TicketCell]>,
    /// Threads parked in [`Ticket::wait`] on any cell of the block. A wake
    /// notifies only when this is non-zero: a condvar notify enters the
    /// kernel even with nobody parked.
    parked: Mutex<u32>,
    cv: Condvar,
}

impl TicketBatch {
    pub(crate) fn new(n: usize) -> Arc<TicketBatch> {
        Arc::new(TicketBatch {
            cells: (0..n)
                .map(|_| TicketCell {
                    outcome: OnceLock::new(),
                    ts: AtomicU64::new(TS_UNSET),
                })
                .collect(),
            parked: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn cell(&self, idx: u32) -> &TicketCell {
        &self.cells[idx as usize]
    }

    pub(crate) fn cell_ref(self: &Arc<Self>, idx: u32) -> CellRef {
        debug_assert!((idx as usize) < self.cells.len());
        CellRef {
            batch: self.clone(),
            idx,
        }
    }

    pub(crate) fn ticket(self: &Arc<Self>, idx: u32) -> Ticket {
        Ticket {
            cell: self.cell_ref(idx),
        }
    }

    /// Stores `outcome` for the request behind `slot` without waking the
    /// block. A split range's part goes into its merge instead, and the
    /// last part stores and wakes.
    pub(crate) fn store(&self, slot: &Slot, outcome: Outcome) {
        match (slot, outcome) {
            (Slot::Cell(idx), outcome) => self.cell(*idx).store(outcome),
            (Slot::Part { merge, offset }, Outcome::Done(Response::Range(part))) => {
                merge.complete_part(*offset, &part)
            }
            (Slot::Part { .. }, Outcome::Done(other)) => {
                panic!("range part resolved with non-range response {other:?}")
            }
            (Slot::Part { merge, .. }, failed) => merge.fail_part(failed),
        }
    }

    /// Wakes every caller parked on the block. Call only after the stores
    /// it announces: a waiter re-checks its slot under this mutex before it
    /// parks, so taking the mutex after the stores means it either sees the
    /// outcome or is counted here — never neither.
    pub(crate) fn wake(&self) {
        // Recovered, not unwrapped: the lock guards only the parked count,
        // which no panic can leave half-written.
        let parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        if *parked > 0 {
            self.cv.notify_all();
        }
    }
}

/// Where one request of a segment reports back. The segment holds the
/// ticket block; a slot only names the cell, so a request in the pipeline
/// holds no reference count of its own.
#[derive(Debug)]
pub(crate) enum Slot {
    /// The whole request lives on one shard: this cell of the block.
    Cell(u32),
    /// One part of a split range query.
    Part { merge: Arc<RangeMerge>, offset: u32 },
}

/// Shared-ownership handle to one cell inside a [`TicketBatch`]. Derefs
/// to the cell, so call sites read like the old `Arc<TicketCell>`.
#[derive(Clone)]
pub(crate) struct CellRef {
    batch: Arc<TicketBatch>,
    idx: u32,
}

impl CellRef {
    /// Stores the outcome and wakes the block's parked callers at once.
    pub(crate) fn resolve(&self, outcome: Outcome) {
        if self.outcome.set(outcome).is_ok() {
            self.batch.wake();
        }
    }
}

impl std::ops::Deref for CellRef {
    type Target = TicketCell;

    fn deref(&self) -> &TicketCell {
        self.batch.cell(self.idx)
    }
}

impl std::fmt::Debug for CellRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CellRef({:?})", &**self)
    }
}

/// Handle to one submitted request. Obtained from
/// [`Client::submit`](crate::Client::submit); redeem it with
/// [`wait`](Ticket::wait).
#[derive(Clone, Debug)]
pub struct Ticket {
    cell: CellRef,
}

impl Ticket {
    /// Blocks until the request resolves. Takes no lock once the outcome
    /// is stored.
    pub fn wait(&self) -> Outcome {
        if let Some(o) = self.cell.outcome.get() {
            return o.clone();
        }
        let batch = &self.cell.batch;
        // Recovered, not unwrapped: the lock guards only the parked count,
        // which no panic can leave half-written.
        let mut parked = batch.parked.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            // Re-checked under the block's mutex, which a waker takes only
            // after its stores (`TicketBatch::wake`).
            if let Some(o) = self.cell.outcome.get() {
                return o.clone();
            }
            *parked += 1;
            // Recovered for the same reason as the lock above.
            parked = batch
                .cv
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
            *parked -= 1;
        }
    }

    /// The outcome if already resolved, without blocking.
    pub fn try_get(&self) -> Option<Outcome> {
        self.cell.outcome.get().cloned()
    }

    /// The global admission timestamp this request linearizes at, or
    /// `None` if it was never admitted (an empty range, which resolves at
    /// once; a request shed at submission). Stable once the ticket has
    /// resolved — waiting clients use it to replay a concurrent history
    /// in timestamp order.
    pub fn timestamp(&self) -> Option<u64> {
        match self.cell.ts.load(Ordering::Acquire) {
            TS_UNSET => None,
            ts => Some(ts),
        }
    }
}

/// Merge state of one cross-shard range query: each shard part fills its
/// slice of the slot vector; the last part to arrive resolves the ticket.
/// Any failed part (deadline expiry) poisons the whole range — sub-queries
/// are read-only, so a partially executed range mutates nothing.
#[derive(Debug)]
pub(crate) struct RangeMerge {
    state: Mutex<MergeState>,
    cell: CellRef,
}

#[derive(Debug)]
struct MergeState {
    slots: Vec<Option<Value>>,
    pending: usize,
    failed: Option<Outcome>,
}

impl RangeMerge {
    pub(crate) fn new(len: usize, parts: usize, cell: CellRef) -> Self {
        RangeMerge {
            state: Mutex::new(MergeState {
                slots: vec![None; len],
                pending: parts,
                failed: None,
            }),
            cell,
        }
    }

    fn finish(&self, state: &mut MergeState) {
        state.pending -= 1;
        if state.pending == 0 {
            match state.failed.take() {
                Some(o) => self.cell.resolve(o),
                None => self
                    .cell
                    .resolve(Outcome::Done(Response::Range(std::mem::take(
                        &mut state.slots,
                    )))),
            }
        }
    }

    pub(crate) fn complete_part(&self, offset: u32, part: &[Option<Value>]) {
        let mut state = self.state.lock().unwrap();
        let off = offset as usize;
        // Union, not overwrite. Range-sharded parts fill disjoint windows
        // (union == overwrite there, since slots start `None`), while
        // hash-scattered parts each cover the *whole* window with `Some`
        // only at the keys their shard owns — a later all-`None`-elsewhere
        // part must not clobber an earlier shard's hits.
        for (slot, v) in state.slots[off..off + part.len()].iter_mut().zip(part) {
            if v.is_some() {
                *slot = *v;
            }
        }
        self.finish(&mut state);
    }

    pub(crate) fn fail_part(&self, outcome: Outcome) {
        let mut state = self.state.lock().unwrap();
        state.failed.get_or_insert(outcome);
        self.finish(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Segment;
    use eirene_workloads::Request;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// A lone ticket and its cell: a block of one.
    fn lone() -> (Ticket, CellRef) {
        let batch = TicketBatch::new(1);
        (batch.ticket(0), batch.cell_ref(0))
    }

    /// Runs `body` on its own thread and fails unless it returns within a
    /// minute — next to the milliseconds each scenario takes, so a lost
    /// wake-up fails the test instead of hanging it.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let limit = Duration::from_secs(60);
        let (done, finished) = mpsc::channel();
        let runner = thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
            panic!("no return within {limit:?}: a waiter slept through its wake-up");
        }
        if let Err(cause) = runner.join() {
            std::panic::resume_unwind(cause);
        }
    }

    fn parked(batch: &TicketBatch) -> u32 {
        *batch.parked.lock().unwrap()
    }

    /// Waiter threads on cells `idx` of `batch`, returned once `idx.len()`
    /// callers are parked on the block.
    fn park_on(
        batch: &Arc<TicketBatch>,
        idx: impl IntoIterator<Item = u32>,
    ) -> Vec<thread::JoinHandle<Outcome>> {
        let waiters: Vec<_> = idx
            .into_iter()
            .map(|i| {
                let t = batch.ticket(i);
                thread::spawn(move || t.wait())
            })
            .collect();
        while (parked(batch) as usize) < waiters.len() {
            thread::yield_now();
        }
        waiters
    }

    /// Cells `0..n` of `batch` as one segment of point queries.
    fn segment(batch: &Arc<TicketBatch>, n: u32) -> Segment {
        let mut seg = Segment::new(batch.clone(), None, 0, n as usize);
        for i in 0..n {
            seg.push(Request::query(1, i.into()), Slot::Cell(i), 0);
        }
        seg
    }

    #[test]
    fn ticket_resolves_once() {
        let (t, cell) = lone();
        assert_eq!(t.try_get(), None);
        cell.resolve(Outcome::Done(Response::Done));
        cell.resolve(Outcome::Rejected); // ignored: first resolution wins
        cell.store(Outcome::TimedOut); // so is a later store
        assert_eq!(t.try_get(), Some(Outcome::Done(Response::Done)));
        assert_eq!(t.wait(), Outcome::Done(Response::Done));
    }

    #[test]
    fn parked_waiters_are_counted_and_woken() {
        watchdog(|| {
            let batch = TicketBatch::new(1);
            // Resolve only once both are parked: the notify then has to
            // reach both, and it is the block's parked count that
            // triggers it.
            let waiters = park_on(&batch, [0, 0]);
            batch.cell_ref(0).resolve(Outcome::TimedOut);
            for w in waiters {
                assert_eq!(w.join().unwrap(), Outcome::TimedOut);
            }
            assert_eq!(parked(&batch), 0);
        });
    }

    #[test]
    fn one_wake_releases_every_parked_waiter_of_a_block() {
        const K: u32 = 4;
        watchdog(|| {
            let batch = TicketBatch::new(K as usize);
            let waiters = park_on(&batch, 0..K);
            let responses = (0..K).map(|i| Response::Value(Some(i as Value)));
            segment(&batch, K).settle(responses);
            for (i, w) in waiters.into_iter().enumerate() {
                let want = Outcome::Done(Response::Value(Some(i as Value)));
                assert_eq!(w.join().unwrap(), want);
            }
            assert_eq!(parked(&batch), 0);
        });
    }

    #[test]
    fn a_waiter_parking_between_the_stores_and_the_wake_is_woken() {
        // A submission long enough that the waiter, released as the stores
        // begin, often parks on the last cell before it is stored.
        const RUN: u32 = 64;
        watchdog(|| {
            for _ in 0..10_000 {
                let batch = TicketBatch::new(RUN as usize);
                let seg = segment(&batch, RUN);
                let last = batch.ticket(RUN - 1);
                let (ready, go) = (AtomicBool::new(false), AtomicBool::new(false));
                thread::scope(|s| {
                    let waiter = s.spawn(|| {
                        ready.store(true, Ordering::Release);
                        while !go.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        last.wait()
                    });
                    while !ready.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    go.store(true, Ordering::Release);
                    seg.settle((0..RUN).map(|_| Response::Done));
                    assert_eq!(waiter.join().unwrap(), Outcome::Done(Response::Done));
                });
            }
        });
    }

    #[test]
    fn range_merge_assembles_parts_in_any_order() {
        let (t, cell) = lone();
        let merge = RangeMerge::new(5, 2, cell);
        merge.complete_part(3, &[Some(30), None]);
        assert_eq!(t.try_get(), None);
        merge.complete_part(0, &[Some(1), None, Some(3)]);
        assert_eq!(
            t.wait(),
            Outcome::Done(Response::Range(vec![
                Some(1),
                None,
                Some(3),
                Some(30),
                None
            ]))
        );
    }

    #[test]
    fn hash_scatter_parts_union_instead_of_overwriting() {
        // Hash-scatter merging: every shard reports the full window, with
        // `Some` only at its own keys. The union must survive whatever
        // order the parts land in.
        let (t, cell) = lone();
        let merge = RangeMerge::new(4, 3, cell);
        merge.complete_part(0, &[Some(1), None, None, None]);
        merge.complete_part(0, &[None, None, Some(3), None]);
        merge.complete_part(0, &[None, Some(2), None, None]);
        assert_eq!(
            t.wait(),
            Outcome::Done(Response::Range(vec![Some(1), Some(2), Some(3), None]))
        );
    }

    #[test]
    fn failed_part_poisons_the_range() {
        let (t, cell) = lone();
        let merge = RangeMerge::new(4, 2, cell);
        merge.complete_part(0, &[Some(1), Some(2)]);
        merge.fail_part(Outcome::TimedOut);
        assert_eq!(t.wait(), Outcome::TimedOut);
    }
}
