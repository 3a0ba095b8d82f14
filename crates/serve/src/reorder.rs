//! The combiner's reorder stage (the reorder heap): parked segments in
//! first-timestamp order, released only below the watermark of the last
//! complete drain.
//!
//! The `admit` module proves the watermark invariant, which is about the
//! shard's *queue*: every request with a timestamp below a watermark was
//! fully enqueued when that watermark was read. This module carries it to
//! the heap, through the precondition of the one method that moves the
//! watermark.
//!
//! **Lemma (drain ↔ pop coupling).** Let `wm` be a watermark and let a
//! drain that empties the shard's queue start after `wm` was read. Once
//! [`Reorder::offer`] has that drain's segments and `wm`, every request of
//! this shard with `ts < wm` that has not been popped is in the heap.
//!
//! *Proof.* By the watermark invariant such a request had reached this
//! shard when `wm` was read: it was in the queue, or an earlier drain had
//! taken it (so it is in the heap or popped), or this combiner drew its
//! timestamp itself and put it in the heap with [`Reorder::admit`]
//! before its slot cleared. A complete drain that starts after the read
//! takes whatever was still queued. ∎
//!
//! **Segments.** A segment is one timestamp draw's requests to this shard
//! (or a piece of them), and draws are disjoint ranges: no other segment
//! of this shard has a timestamp between a segment's first and last. So
//! ordering segments by their first timestamp orders every request, and
//! releasing a segment whose first timestamp is below `wm` *whole*
//! releases nothing out of order: whatever lies inside its span is its
//! own, and every other segment lies wholly below or above it.
//!
//! [`Reorder::pop`] releases ascending while the head's first `ts < wm`,
//! so an epoch is a strictly ascending slice, and by the lemma nothing the
//! stage receives later — through a later `offer`, or an `admit`, whose
//! timestamps are drawn after every watermark read so far — lies below
//! what it released: everything a later pop releases is above everything
//! an earlier one did. That is the cross-epoch order
//! `ShardReport::epoch_order_violations` counts breaks of. The lemma says
//! nothing about a watermark no drain followed — a fresher one may cover
//! requests still queued behind larger timestamps the heap already holds
//! — which is why `pop` takes no watermark: the only one it can use is the
//! one `offer` was given.

use crate::queue::Segment;
use std::collections::BTreeMap;

/// One shard's reorder stage (module docs).
pub(crate) struct Reorder {
    /// Parked segments by first timestamp. Timestamps are globally unique
    /// and a split range puts at most one part on each shard, so no two
    /// segments of one shard share a key.
    segments: BTreeMap<u64, Segment>,
    /// Requests in `segments`.
    parked: usize,
    /// The watermark of the last [`offer`](Self::offer): everything of
    /// this shard below it is parked or already popped.
    drained_wm: u64,
    /// Parked requests at which the combiner stops draining its queue:
    /// back-pressure, so `AdmitPolicy::Block` submitters wait on the
    /// bounded queue instead of the heap growing with the offered load.
    /// A pause, not a bound — one drain takes whatever the queue holds,
    /// lane admissions come on top, and a stalled stage drains anyway.
    heap_target: usize,
}

impl Reorder {
    pub(crate) fn new(heap_target: usize) -> Self {
        Reorder {
            segments: BTreeMap::new(),
            parked: 0,
            drained_wm: 0,
            heap_target,
        }
    }

    /// Takes the segments of a *complete* drain of the shard's queue that
    /// started after `wm` was read, and moves the release watermark to
    /// `wm` — the only way it moves (module docs). A regressed `wm` only
    /// delays releases.
    pub(crate) fn offer(&mut self, segments: Vec<Segment>, wm: u64) {
        for seg in segments {
            self.admit(seg);
        }
        self.drained_wm = wm;
    }

    /// Parks a segment the combiner timestamped itself (a lane admission).
    /// Its timestamps were drawn after the last watermark read, so it waits
    /// for a later [`offer`](Self::offer).
    pub(crate) fn admit(&mut self, seg: Segment) {
        if !seg.is_empty() {
            self.parked += seg.len();
            self.segments.insert(seg.first_ts(), seg);
        }
    }

    /// Whether the combiner should drain its queue this turn: below
    /// `heap_target`, or whenever emission is `stalled` — the segment that
    /// unblocks the head of the heap may be a `Block` submitter's, which
    /// holds its watermark slot while it waits for queue room.
    pub(crate) fn wants_drain(&self, stalled: bool) -> bool {
        stalled || self.parked < self.heap_target
    }

    /// Requests parked.
    pub(crate) fn len(&self) -> usize {
        self.parked
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.parked == 0
    }

    /// Moves up to `room` requests, ascending, to `out`, from segments
    /// whose first timestamp is below the last offered watermark: whole
    /// segments, then a prefix of the one `room` cuts, whose rest stays
    /// first in line. Returns the requests moved.
    pub(crate) fn pop(&mut self, room: usize, out: &mut Vec<Segment>) -> usize {
        let mut moved = 0;
        while moved < room {
            let Some(head) = self.segments.first_entry() else {
                break;
            };
            if *head.key() >= self.drained_wm {
                break;
            }
            let mut seg = head.remove();
            if seg.len() > room - moved {
                let rest = seg.split_off(room - moved);
                self.segments.insert(rest.first_ts(), rest);
            }
            moved += seg.len();
            out.push(seg);
        }
        self.parked -= moved;
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{Slot, TicketBatch};
    use eirene_workloads::Request;

    /// One call's segment of point queries at these timestamps.
    fn seg(ts: &[u64]) -> Segment {
        let mut seg = Segment::new(TicketBatch::new(ts.len()), None, 0, ts.len());
        for (i, &t) in (0u32..).zip(ts) {
            seg.push(Request::query(1, t), Slot::Cell(i), 0);
        }
        seg
    }

    fn flat(out: &[Segment]) -> Vec<u64> {
        out.iter().flat_map(|s| &s.reqs).map(|r| r.ts).collect()
    }

    #[derive(Debug)]
    enum Step {
        /// A complete drain brought these segments, under this watermark.
        Offer(&'static [&'static [u64]], u64),
        /// A lane admission.
        Admit(&'static [u64]),
        /// `pop` with a fresh `out` and this room releases exactly these.
        Pop(usize, &'static [u64]),
        /// `wants_drain(stalled)` answers this.
        WantsDrain(bool, bool),
    }
    use Step::{Admit, Offer, Pop, WantsDrain};

    #[test]
    fn reorder_releases_only_under_the_watermark_of_its_last_drain() {
        // (case, heap_target, steps on one fresh stage)
        let table: [(&str, usize, &[Step]); 9] = [
            (
                // ROADMAP item 1. The heap is at its target after the first
                // pop, so the combiner's next turn skips the drain; ts 535
                // sits in the queue meanwhile and the world's watermark
                // reads 540. Handed that 540, the second pop would release
                // [532, 537] and strand 535 behind them.
                "a turn that skips its drain releases nothing new",
                2,
                &[
                    Offer(&[&[510], &[532], &[537]], 530),
                    Pop(1, &[510]),
                    WantsDrain(false, false),
                    Pop(8, &[]),
                    Offer(&[&[535]], 540),
                    Pop(8, &[532, 535, 537]),
                ],
            ),
            (
                "admit does not move the watermark",
                64,
                &[
                    Offer(&[&[3]], 5),
                    Admit(&[6]),
                    Admit(&[7]),
                    Pop(8, &[3]),
                    Admit(&[8]),
                    Pop(8, &[]),
                    Offer(&[], 8),
                    Pop(8, &[6, 7]),
                    Offer(&[], 9),
                    Pop(8, &[8]),
                ],
            ),
            (
                "pop stops at the room and resumes ascending",
                64,
                &[
                    Offer(&[&[9], &[2], &[7], &[4]], 8),
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
                    Offer(&[&[11], &[14]], 15),
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
                    Offer(&[&[5]], 0),
                    WantsDrain(false, true),
                    Offer(&[&[6]], 0),
                    WantsDrain(false, false),
                    WantsDrain(true, true),
                    Admit(&[9]),
                    WantsDrain(false, false),
                    Offer(&[], 6),
                    Pop(8, &[5]),
                    WantsDrain(false, false),
                    Offer(&[], 7),
                    Pop(8, &[6]),
                    WantsDrain(false, true),
                ],
            ),
            (
                "segments order by their first timestamp, whatever order they came in",
                64,
                &[
                    Offer(&[&[7, 9], &[1, 3], &[5]], 10),
                    Pop(8, &[1, 3, 5, 7, 9]),
                ],
            ),
            (
                // Nothing of another call can lie inside the span of a
                // segment whose first timestamp the watermark vouches for.
                "a segment under the watermark leaves whole, even past it",
                64,
                &[
                    Offer(&[&[3, 5, 9], &[12]], 4),
                    Pop(8, &[3, 5, 9]),
                    Offer(&[], 12),
                    Pop(8, &[]),
                    Offer(&[], 13),
                    Pop(8, &[12]),
                ],
            ),
            (
                "the room cuts a segment, and its rest stays first in line",
                64,
                &[
                    Offer(&[&[2, 4, 6, 8], &[10]], 20),
                    Pop(3, &[2, 4, 6]),
                    Pop(3, &[8, 10]),
                ],
            ),
            (
                "the heap target counts requests, not segments",
                4,
                &[
                    Offer(&[&[1, 2, 3, 4, 5]], 9),
                    WantsDrain(false, false),
                    Pop(2, &[1, 2]),
                    WantsDrain(false, true),
                ],
            ),
        ];
        for (case, heap_target, steps) in table {
            let mut stage = Reorder::new(heap_target);
            let mut parked = 0;
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Offer(segments, wm) => {
                        stage.offer(segments.iter().map(|ts| seg(ts)).collect(), wm);
                        parked += segments.iter().map(|ts| ts.len()).sum::<usize>();
                    }
                    Admit(ts) => {
                        stage.admit(seg(ts));
                        parked += ts.len();
                    }
                    Pop(room, want) => {
                        let mut out = Vec::new();
                        let moved = stage.pop(room, &mut out);
                        assert_eq!(flat(&out), want, "{case}: step {i} {step:?}");
                        assert_eq!(moved, want.len(), "{case}: step {i} {step:?}");
                        parked -= moved;
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
        stage.offer(vec![seg(&[1, 2, 3])], 9);
        let mut out = vec![seg(&[0])];
        assert_eq!(stage.pop(2, &mut out), 2, "the room bounds the call");
        assert_eq!(flat(&out), [0, 1, 2]);
        assert_eq!(stage.len(), 1);
    }
}
