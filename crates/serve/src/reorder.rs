//! The combiner's reorder stage: a timestamp min-heap that releases
//! entries only below the watermark of the last complete drain.
//!
//! The `admit` module proves the watermark invariant, which is about the
//! shard's *queue*: every request with a timestamp below a watermark was
//! fully enqueued when that watermark was read. This module carries it to
//! the heap, through the precondition of the one method that moves the
//! watermark.
//!
//! **Lemma (drain ↔ pop coupling).** Let `wm` be a watermark and let a
//! drain that empties the shard's queue start after `wm` was read. Once
//! [`Reorder::offer`] has that drain's entries and `wm`, every entry of
//! this shard with `ts < wm` that has not been popped is in the heap.
//!
//! *Proof.* By the watermark invariant such an entry had reached this
//! shard when `wm` was read: it was in the queue, or an earlier drain had
//! taken it (so it is in the heap or popped), or this combiner drew its
//! timestamp itself and put it in the heap with [`Reorder::admit`]
//! before its slot cleared. A complete drain that starts after the read
//! takes whatever was still queued. ∎
//!
//! [`Reorder::pop`] releases ascending while `ts < wm`, so an epoch is a
//! strictly ascending slice, and by the lemma nothing the stage receives
//! later — through a later `offer`, or an `admit`, whose timestamp is
//! drawn after every watermark read so far — is below `wm`: everything a
//! later pop releases is above everything an earlier one did. That is the
//! cross-epoch order `ShardReport::epoch_order_violations` counts breaks
//! of. The lemma says nothing about a watermark no drain followed — a
//! fresher one may cover entries still queued behind larger timestamps
//! the heap already holds — which is why `pop` takes no watermark: the
//! only one it can use is the one `offer` was given.

use crate::queue::Entry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap wrapper ordering pending entries by admission timestamp.
/// Timestamps are globally unique and a split range puts at most one part
/// on each shard, so ties cannot occur within one shard's heap.
struct ByTs(Entry);

impl PartialEq for ByTs {
    fn eq(&self, other: &Self) -> bool {
        self.0.req.ts == other.0.req.ts
    }
}
impl Eq for ByTs {}
impl PartialOrd for ByTs {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByTs {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.req.ts.cmp(&other.0.req.ts)
    }
}

/// One shard's reorder stage (module docs).
pub(crate) struct Reorder {
    heap: BinaryHeap<Reverse<ByTs>>,
    /// The watermark of the last [`offer`](Self::offer): everything of
    /// this shard below it is in `heap` or already popped.
    drained_wm: u64,
    /// Parked entries at which the combiner stops draining its queue:
    /// back-pressure, so `AdmitPolicy::Block` submitters wait on the
    /// bounded queue instead of the heap growing with the offered load.
    /// A pause, not a bound — one drain takes whatever the queue holds,
    /// lane admissions come on top, and a stalled stage drains anyway.
    heap_target: usize,
}

impl Reorder {
    pub(crate) fn new(heap_target: usize) -> Self {
        Reorder {
            heap: BinaryHeap::new(),
            drained_wm: 0,
            heap_target,
        }
    }

    /// Takes the entries of a *complete* drain of the shard's queue that
    /// started after `wm` was read, and moves the release watermark to
    /// `wm` — the only way it moves (module docs). A regressed `wm` only
    /// delays releases.
    pub(crate) fn offer(&mut self, entries: Vec<Entry>, wm: u64) {
        self.heap
            .extend(entries.into_iter().map(|e| Reverse(ByTs(e))));
        self.drained_wm = wm;
    }

    /// Parks an entry the combiner timestamped itself (a lane admission).
    /// Its timestamp was drawn after the last watermark read, so it waits
    /// for a later [`offer`](Self::offer).
    pub(crate) fn admit(&mut self, entry: Entry) {
        self.heap.push(Reverse(ByTs(entry)));
    }

    /// Whether the combiner should drain its queue this turn: below
    /// `heap_target`, or whenever emission is `stalled` — the entry that
    /// unblocks the head of the heap may be a `Block` submitter's, which
    /// holds its watermark slot while it waits for queue room.
    pub(crate) fn wants_drain(&self, stalled: bool) -> bool {
        stalled || self.heap.len() < self.heap_target
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Moves entries below the last offered watermark to `out`, ascending,
    /// until `out` holds `limit`.
    pub(crate) fn pop(&mut self, limit: usize, out: &mut Vec<Entry>) {
        while out.len() < limit {
            match self.heap.peek() {
                Some(Reverse(p)) if p.0.req.ts < self.drained_wm => {
                    out.push(self.heap.pop().expect("peeked entry").0 .0);
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{Completion, TicketBatch};
    use eirene_workloads::Request;

    fn entry(ts: u64) -> Entry {
        Entry {
            req: Request::query(1, ts),
            deadline: None,
            arrival: 0,
            tenant: 0,
            completion: Completion::Direct(TicketBatch::new(1).cell_ref(0)),
        }
    }

    #[derive(Debug)]
    enum Step {
        /// A complete drain brought these timestamps, under this watermark.
        Offer(&'static [u64], u64),
        /// A lane admission.
        Admit(u64),
        /// `pop` with a fresh `out` and this limit releases exactly these.
        Pop(usize, &'static [u64]),
        /// `wants_drain(stalled)` answers this.
        WantsDrain(bool, bool),
    }
    use Step::{Admit, Offer, Pop, WantsDrain};

    #[test]
    fn reorder_releases_only_under_the_watermark_of_its_last_drain() {
        // (case, heap_target, steps on one fresh stage)
        let table: [(&str, usize, &[Step]); 5] = [
            (
                // ROADMAP item 1. The heap is at its target after the first
                // pop, so the combiner's next turn skips the drain; ts 535
                // sits in the queue meanwhile and the world's watermark
                // reads 540. Handed that 540, the second pop would release
                // [532, 537] and strand 535 behind them.
                "a turn that skips its drain releases nothing new",
                2,
                &[
                    Offer(&[510, 532, 537], 530),
                    Pop(1, &[510]),
                    WantsDrain(false, false),
                    Pop(8, &[]),
                    Offer(&[535], 540),
                    Pop(8, &[532, 535, 537]),
                ],
            ),
            (
                "admit does not move the watermark",
                64,
                &[
                    Offer(&[3], 5),
                    Admit(6),
                    Admit(7),
                    Pop(8, &[3]),
                    Admit(8),
                    Pop(8, &[]),
                    Offer(&[], 8),
                    Pop(8, &[6, 7]),
                    Offer(&[], 9),
                    Pop(8, &[8]),
                ],
            ),
            (
                "pop stops at the limit and resumes ascending",
                64,
                &[
                    Offer(&[9, 2, 7, 4], 8),
                    Pop(2, &[2, 4]),
                    Pop(0, &[]),
                    Pop(2, &[7]),
                    Pop(2, &[]),
                ],
            ),
            (
                "a regressed watermark only delays",
                64,
                &[
                    Offer(&[11, 14], 15),
                    Offer(&[], 12),
                    Pop(8, &[11]),
                    Offer(&[], 15),
                    Pop(8, &[14]),
                ],
            ),
            (
                "draining pauses at heap_target unless stalled",
                2,
                &[
                    WantsDrain(false, true),
                    Offer(&[5], 0),
                    WantsDrain(false, true),
                    Offer(&[6], 0),
                    WantsDrain(false, false),
                    WantsDrain(true, true),
                    Admit(9),
                    WantsDrain(false, false),
                    Offer(&[], 6),
                    Pop(8, &[5]),
                    WantsDrain(false, false),
                    Offer(&[], 7),
                    Pop(8, &[6]),
                    WantsDrain(false, true),
                ],
            ),
        ];
        for (case, heap_target, steps) in table {
            let mut stage = Reorder::new(heap_target);
            let mut parked = 0;
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Offer(ts, wm) => {
                        stage.offer(ts.iter().copied().map(entry).collect(), wm);
                        parked += ts.len();
                    }
                    Admit(ts) => {
                        stage.admit(entry(ts));
                        parked += 1;
                    }
                    Pop(limit, want) => {
                        let mut out = Vec::new();
                        stage.pop(limit, &mut out);
                        let got: Vec<u64> = out.iter().map(|e| e.req.ts).collect();
                        assert_eq!(got, want, "{case}: step {i} {step:?}");
                        parked -= got.len();
                    }
                    WantsDrain(stalled, want) => {
                        assert_eq!(
                            stage.wants_drain(stalled),
                            want,
                            "{case}: step {i} {step:?}"
                        );
                    }
                }
                assert_eq!(stage.len(), parked, "{case}: step {i} {step:?}");
                assert_eq!(stage.is_empty(), parked == 0);
            }
        }
    }

    #[test]
    fn pop_appends_to_what_is_already_gathered() {
        let mut stage = Reorder::new(64);
        stage.offer(vec![entry(1), entry(2), entry(3)], 9);
        let mut out = vec![entry(0)];
        stage.pop(3, &mut out);
        let got: Vec<u64> = out.iter().map(|e| e.req.ts).collect();
        assert_eq!(got, [0, 1, 2], "the limit bounds the epoch, not the call");
        assert_eq!(stage.len(), 1);
    }
}
