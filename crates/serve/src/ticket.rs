//! Asynchronous completion: tickets, outcomes, and cross-shard range
//! merging.

use eirene_workloads::{Response, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// Shared slot a [`Ticket`] waits on. First resolution wins; later ones
/// are ignored (a split range can race a timeout against a merge).
#[derive(Debug)]
pub(crate) struct TicketCell {
    state: Mutex<CellState>,
    cv: Condvar,
    /// The admission timestamp, once drawn ([`TS_UNSET`] before that and
    /// for requests that resolve without admission: empty ranges, sheds).
    ts: AtomicU64,
}

#[derive(Debug, Default)]
struct CellState {
    outcome: Option<Outcome>,
    /// Threads parked in [`Ticket::wait`]. `resolve` notifies only when
    /// this is non-zero: a condvar notify enters the kernel even with
    /// nobody parked, and an executor resolves a whole epoch of tickets
    /// whose owners are almost never waiting on that very cell yet.
    waiters: u32,
}

impl Default for TicketCell {
    fn default() -> Self {
        TicketCell {
            state: Mutex::new(CellState::default()),
            cv: Condvar::new(),
            ts: AtomicU64::new(TS_UNSET),
        }
    }
}

impl TicketCell {
    pub(crate) fn resolve(&self, outcome: Outcome) {
        let mut state = self.state.lock().unwrap();
        if state.outcome.is_none() {
            state.outcome = Some(outcome);
            if state.waiters > 0 {
                self.cv.notify_all();
            }
        }
    }

    pub(crate) fn set_ts(&self, ts: u64) {
        self.ts.store(ts, Ordering::Release);
    }
}

/// One block of ticket cells allocated together. Batched submission
/// ([`Client::submit_many`](crate::Client::submit_many)) makes ONE shared
/// allocation per call instead of one `Arc` per request — the dominant
/// per-op malloc on the ingress hot path. Individual [`Ticket`]s and
/// [`Completion`]s address into the block by index via [`CellRef`]; the
/// block is freed when the last of them drops.
pub(crate) struct TicketBatch {
    cells: Arc<[TicketCell]>,
}

impl TicketBatch {
    pub(crate) fn new(n: usize) -> TicketBatch {
        TicketBatch {
            cells: (0..n).map(|_| TicketCell::default()).collect(),
        }
    }

    pub(crate) fn cell_ref(&self, idx: usize) -> CellRef {
        debug_assert!(idx < self.cells.len());
        CellRef {
            cells: self.cells.clone(),
            idx: idx as u32,
        }
    }

    pub(crate) fn ticket(&self, idx: usize) -> Ticket {
        Ticket {
            cell: self.cell_ref(idx),
        }
    }
}

/// Shared-ownership handle to one cell inside a [`TicketBatch`]. Derefs
/// to the cell, so call sites read like the old `Arc<TicketCell>`.
#[derive(Clone)]
pub(crate) struct CellRef {
    cells: Arc<[TicketCell]>,
    idx: u32,
}

impl std::ops::Deref for CellRef {
    type Target = TicketCell;

    fn deref(&self) -> &TicketCell {
        &self.cells[self.idx as usize]
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
    /// Blocks until the request resolves.
    pub fn wait(&self) -> Outcome {
        let mut state = self.cell.state.lock().unwrap();
        loop {
            if let Some(o) = state.outcome.as_ref() {
                return o.clone();
            }
            // Counted under the cell's mutex before parking, so a
            // resolver either sees the waiter or has already stored the
            // outcome this loop just missed — never neither.
            state.waiters += 1;
            state = self.cell.cv.wait(state).unwrap();
            state.waiters -= 1;
        }
    }

    /// The outcome if already resolved, without blocking.
    pub fn try_get(&self) -> Option<Outcome> {
        self.cell.state.lock().unwrap().outcome.clone()
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

/// How an executed (or failed) shard entry reports back.
#[derive(Clone, Debug)]
pub(crate) enum Completion {
    /// The whole request lives on one shard.
    Direct(CellRef),
    /// One part of a split range query.
    Part { merge: Arc<RangeMerge>, offset: u32 },
}

impl Completion {
    /// Whether both entries came in through one submission call: they
    /// then share its ticket block (a lone `submit` is a call of one).
    pub(crate) fn same_submission(&self, other: &Completion) -> bool {
        fn block(c: &Completion) -> &Arc<[TicketCell]> {
            match c {
                Completion::Direct(cell) => &cell.cells,
                Completion::Part { merge, .. } => &merge.cell.cells,
            }
        }
        Arc::ptr_eq(block(self), block(other))
    }

    pub(crate) fn resolve_ok(&self, resp: Response) {
        match self {
            Completion::Direct(cell) => cell.resolve(Outcome::Done(resp)),
            Completion::Part { merge, offset } => match resp {
                Response::Range(slots) => merge.complete_part(*offset, &slots),
                other => panic!("range part resolved with non-range response {other:?}"),
            },
        }
    }

    pub(crate) fn resolve_fail(&self, outcome: Outcome) {
        match self {
            Completion::Direct(cell) => cell.resolve(outcome),
            Completion::Part { merge, .. } => merge.fail_part(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lone ticket and its cell: a block of one.
    fn lone() -> (Ticket, CellRef) {
        let batch = TicketBatch::new(1);
        (batch.ticket(0), batch.cell_ref(0))
    }

    #[test]
    fn ticket_resolves_once() {
        let (t, cell) = lone();
        assert_eq!(t.try_get(), None);
        cell.resolve(Outcome::Done(Response::Done));
        cell.resolve(Outcome::Rejected); // ignored: first resolution wins
        assert_eq!(t.try_get(), Some(Outcome::Done(Response::Done)));
        assert_eq!(t.wait(), Outcome::Done(Response::Done));
    }

    #[test]
    fn parked_waiters_are_counted_and_woken() {
        let (t, cell) = lone();
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || t.wait())
            })
            .collect();
        // Resolve only once both are parked: the notify then has to reach
        // both, and it is the waiter count that triggers it.
        while cell.state.lock().unwrap().waiters < 2 {
            std::thread::yield_now();
        }
        cell.resolve(Outcome::TimedOut);
        for w in waiters {
            assert_eq!(w.join().unwrap(), Outcome::TimedOut);
        }
        assert_eq!(cell.state.lock().unwrap().waiters, 0);
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
