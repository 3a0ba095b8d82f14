//! The combiner as a step machine. [`Combiner`] owns what a shard's
//! combiner keeps across turns; [`Combiner::turn`] and [`Combiner::drained`]
//! answer what the shard thread (in `service.rs`) read with one [`Effect`]
//! for the thread to carry out. The machine reads no clock, takes no lock
//! and touches no queue or channel.
//!
//! # One turn
//!
//! Given a [`TurnView`], the machine resolves gathered segments whose
//! deadline has passed; or hands the epoch over when it is full, the queue
//! has finished or [`linger_step`] closes it; or else drains the queue
//! under a watermark read just before (the drain ↔ pop coupling of the
//! `reorder` module) and releases what that drain vouched for. The drain is skipped while the stage holds two
//! epochs' worth and nothing is stalled. It does not wait while the stage
//! holds requests; otherwise it waits for an arrival, and with an epoch in
//! hand only until the linger's wake-up or the earliest gathered deadline.
//! A non-empty stage that releases nothing backs off — a submitter that
//! drew an earlier timestamp is still enqueueing — and makes the next turn
//! drain: that submitter may be blocked on the full queue.
//!
//! # When an epoch closes
//!
//! A combiner with at least one entry gathered hands the epoch over at the
//! first of four exits ([`linger_step`] decides the last three): the batch
//! target is reached; [`linger`](crate::ServeConfig::linger) has elapsed;
//! every caller the last epoch released is back (`Returned`); or one grace,
//! `min(linger, service time)`, has run from the later of the first
//! gathered entry and the instant the last epoch finished (`Idle`). The
//! shard thread runs each epoch it hands over before its next turn, so a
//! turn always finds the device idle and any wait is pure added latency.
//! What arrives while an epoch runs waits in the queue and is gathered at
//! the next turn: a window that arrived mid-epoch starts its grace when
//! the epoch ends, beside the window of the caller that epoch released,
//! which keeps closed-loop clients in phase instead of splitting them into
//! half-sized epochs for good. A shard that has not measured an epoch yet
//! waits out the whole linger.
//!
//! `Returned` counts the callers instead of guessing how long they take.
//! Just before an epoch's first ticket resolves, the shard thread notes how
//! many segments it carried (`released`: one per submission, but for a
//! call the batch target or a full queue cut in two) and the queue's
//! cumulative push-call count (`pushes_at_release`). A released caller
//! comes back with one push call, and only after that snapshot, so once the
//! queue has seen `released` more calls — all drained and gathered — a
//! closed loop has nobody left to wait for. The count is of returns *since
//! release*, not of callers gathered: a window gathered mid-epoch was
//! pushed before the snapshot, and waits for the caller just released. A
//! count that comes up short (a caller that went away, a call shed whole,
//! a window cut by the batch target) only falls back to the grace; an
//! open-loop arrival mistaken for a return closes an epoch the device was
//! idle for anyway (argued, not measured).
//!
//! Once every released caller is back, the grace does not close the epoch
//! while some of their entries still sit in the stage above the watermark:
//! their submitter is still enqueueing the rest of its window, and closing
//! ahead of it makes a half-sized epoch now and another right behind it.
//! That is the one place a turn waits longer than the grace — as
//! long as those entries must anyway, within `linger`.

use crate::observe::CloseCause;
use crate::queue::{Drained, Segment};
use crate::reorder::Reorder;
use std::time::{Duration, Instant};

/// What the shard thread knows of the epochs it has run, for its
/// combiner's linger decision ([`linger_step`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ExecutorState {
    /// When the last epoch finished.
    pub(crate) idle_since: Option<Instant>,
    /// Smoothed host service time per epoch, from the start of its run to
    /// the last ticket resolved. `None` until the first epoch has been
    /// measured.
    pub(crate) service: Option<Duration>,
    /// Segments in the epoch whose tickets resolved last: the callers it
    /// released, one per submission and shard. 0 until an epoch has
    /// resolved.
    pub(crate) released: u64,
    /// The shard queue's cumulative push-call count
    /// ([`IngressQueue::pushes`]) just before the first of those tickets
    /// resolved. A released caller can only push after this snapshot, so
    /// `pushes - pushes_at_release` counts the ones that are back (and
    /// whoever else arrived since).
    pub(crate) pushes_at_release: u64,
}

impl ExecutorState {
    /// An epoch of `released` segments is about to store its first
    /// outcome, and the queue has seen `pushes` push calls.
    pub(crate) fn releasing(&mut self, released: u64, pushes: u64) {
        self.released = released;
        self.pushes_at_release = pushes;
    }

    /// The epoch's last ticket resolved `took` after its run began; the
    /// shard is idle from `now`.
    pub(crate) fn finished(&mut self, took: Duration, now: Instant) {
        self.service = Some(self.service.map_or(took, |old| (old * 3 + took) / 4));
        self.idle_since = Some(now);
    }
}

/// What a lingering combiner does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LingerStep {
    /// Stop gathering and hand the epoch over.
    Close(CloseCause),
    /// Keep gathering; re-decide at this instant at the latest (`None`:
    /// only when an arrival or the executor wakes the queue).
    WakeAt(Option<Instant>),
}

/// The linger decision, free of clocks and threads: whether a combiner
/// that began gathering at `start` should close its partial epoch at
/// `now`. `linger` always bounds the wait (unbounded if `start + linger`
/// overflows the clock). `Returned`, at once, when every caller the last
/// epoch released is back: `pushes` (the queue's push-call count as of the
/// combiner's last drain) has moved `released` past `pushes_at_release`,
/// and nothing it counts is still `parked` in the reorder heap short of
/// the gathered epoch. `Idle` otherwise, one
/// grace — `min(linger, service time)` — after the later of `start` and
/// the instant the last epoch finished; except that with all of them back
/// and some still parked, the wait is for those (module docs). A shard that
/// has not measured an epoch yet waits out the linger.
pub(crate) fn linger_step(
    now: Instant,
    start: Instant,
    linger: Duration,
    executor: ExecutorState,
    pushes: u64,
    parked: usize,
) -> LingerStep {
    let deadline = start.checked_add(linger);
    if deadline.is_some_and(|d| now >= d) {
        return LingerStep::Close(CloseCause::Linger);
    }
    let Some(service) = executor.service else {
        return LingerStep::WakeAt(deadline);
    };
    // A drain older than the snapshot reads as nobody back yet.
    let returned = pushes.saturating_sub(executor.pushes_at_release);
    let all_back = executor.released > 0 && returned >= executor.released;
    if all_back && parked == 0 {
        return LingerStep::Close(CloseCause::Returned);
    }
    let grace_end = executor
        .idle_since
        .map_or(start, |idle| idle.max(start))
        .checked_add(service.min(linger));
    match grace_end {
        // The grace guesses how long the released callers take to come
        // back. With all of them back and one still enqueueing, there is
        // nothing left to guess: closing ahead of it is how windows split.
        Some(end) if now >= end && !(all_back && parked > 0) => LingerStep::Close(CloseCause::Idle),
        Some(end) if now < end => LingerStep::WakeAt(Some(deadline.map_or(end, |d| d.min(end)))),
        _ => LingerStep::WakeAt(deadline),
    }
}

/// What the shard thread reads at the top of a turn.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TurnView {
    pub(crate) now: Instant,
    pub(crate) executor: ExecutorState,
}

/// What the machine asks its thread to do. Every effect but `Drain` ends
/// the turn.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Nothing more this turn.
    NextTurn,
    /// Resolve these `TimedOut`.
    Expire(Vec<Segment>),
    /// Read the watermark, drain the whole queue with this `wait`
    /// (`IngressQueue::drain`: `Duration::MAX` is unbounded) and hand both
    /// to [`Combiner::drained`].
    Drain { wait: Duration },
    /// Yield the CPU (zero), or sleep this long.
    BackOff(Duration),
    /// Plan these segments as one epoch and run it before the next turn.
    HandOver {
        segments: Vec<Segment>,
        close: CloseCause,
    },
    /// The queue has finished and everything is handed over.
    Exit,
}

/// One shard's combiner (module docs).
pub(crate) struct Combiner {
    linger: Duration,
    stage: Reorder,
    /// What the last drain reported: nothing more will ever come, and the
    /// queue's push-call count as it left it.
    finished: bool,
    pushes: u64,
    /// Turns in a row on which a non-empty stage released nothing.
    stalls: u32,
    /// The epoch being gathered, ascending, and the requests in it; the
    /// first turn that found it non-empty began at `gather_start`.
    gathered: Vec<Segment>,
    gathered_len: usize,
    gather_start: Option<Instant>,
    target: usize,
}

impl Combiner {
    /// `target` is the service's batch limit (0 reads as 1): draining pauses
    /// at two epochs' worth of it (at least 64).
    pub(crate) fn new(target: usize, linger: Duration) -> Self {
        let target = target.max(1);
        Combiner {
            linger,
            stage: Reorder::new(target.saturating_mul(2).max(64)),
            finished: false,
            pushes: 0,
            stalls: 0,
            gathered: Vec::new(),
            gathered_len: 0,
            gather_start: None,
            target,
        }
    }

    /// Requests parked in the reorder stage: an epoch's `reorder_pending`.
    pub(crate) fn parked(&self) -> usize {
        self.stage.len()
    }

    /// Opens a turn.
    pub(crate) fn turn(&mut self, view: TurnView) -> Effect {
        let live = |s: &Segment| s.deadline.is_none_or(|d| view.now < d);
        if !self.gathered.iter().all(live) {
            let expired;
            (self.gathered, expired) = std::mem::take(&mut self.gathered)
                .into_iter()
                .partition(live);
            self.gathered_len = self.gathered.iter().map(Segment::len).sum();
            return Effect::Expire(expired);
        }
        let mut wake = None;
        if self.gathered.is_empty() {
            self.gather_start = None;
        } else {
            let start = *self.gather_start.get_or_insert(view.now);
            let step = if self.gathered_len >= self.target {
                LingerStep::Close(CloseCause::Full)
            } else if self.finished {
                LingerStep::Close(CloseCause::Drain)
            } else {
                linger_step(
                    view.now,
                    start,
                    self.linger,
                    view.executor,
                    self.pushes,
                    self.stage.len(),
                )
            };
            match step {
                LingerStep::Close(close) => {
                    debug_assert!(
                        (self.gathered.iter().flat_map(|s| &s.reqs))
                            .is_sorted_by(|a, b| a.ts < b.ts),
                        "epoch must carry a strictly ascending timestamp slice"
                    );
                    self.gather_start = None;
                    self.gathered_len = 0;
                    let segments = std::mem::take(&mut self.gathered);
                    return Effect::HandOver { segments, close };
                }
                // No later than the earliest gathered deadline, so a
                // segment expiring mid-linger resolves then.
                LingerStep::WakeAt(at) => {
                    let deadlines = self.gathered.iter().filter_map(|s| s.deadline);
                    wake = deadlines.fold(at, |acc, d| Some(acc.map_or(d, |a| a.min(d))));
                }
            }
        }
        // A finished queue is closed and empty — the stage holds all there
        // is — and draining it again only moves the watermark.
        if !self.finished && !self.stage.wants_drain(self.stalls > 0) {
            return self.pop();
        }
        // Entries in the stage have left the queue, and no arrival will end
        // a wait on their behalf: try them against a fresh watermark now.
        let wait = match wake {
            _ if !self.stage.is_empty() => Duration::ZERO,
            Some(w) if !self.gathered.is_empty() => w.saturating_duration_since(view.now),
            _ => Duration::MAX,
        };
        Effect::Drain { wait }
    }

    /// Closes a turn with the drain it asked for and the watermark read
    /// before that drain started.
    pub(crate) fn drained(&mut self, wm: u64, drained: Drained) -> Effect {
        self.stage.offer(drained.segments, wm);
        (self.finished, self.pushes) = (drained.finished, drained.pushes);
        self.pop()
    }

    fn pop(&mut self) -> Effect {
        if self.stage.is_empty() {
            self.stalls = 0;
            return if self.finished && self.gathered.is_empty() {
                Effect::Exit
            } else {
                Effect::NextTurn
            };
        }
        let before = self.gathered_len;
        let room = self.target.saturating_sub(before);
        self.gathered_len += self.stage.pop(room, &mut self.gathered);
        if self.gathered_len > before || before >= self.target {
            self.stalls = 0;
            return Effect::NextTurn;
        }
        // Slots clear in microseconds in the common case: yield first, and
        // sleep only if the stall persists.
        self.stalls += 1;
        Effect::BackOff(Duration::from_micros(if self.stalls > 16 { 50 } else { 0 }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{Slot, TicketBatch};
    use eirene_workloads::Request;

    #[test]
    fn linger_step_closes_on_linger_or_an_idle_executor() {
        use CloseCause::{Idle, Linger, Returned};
        // Instants are offsets in µs from one base; nothing sleeps.
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let exec = |idle_since: Option<u64>, service: Option<u64>| ExecutorState {
            idle_since: idle_since.map(at),
            service: service.map(Duration::from_micros),
            ..ExecutorState::default()
        };
        // The last epoch released `released` callers when the queue had
        // seen `pushes_at_release` push calls.
        let after =
            |executor: ExecutorState, released: u64, pushes_at_release: u64| ExecutorState {
                released,
                pushes_at_release,
                ..executor
            };
        let idle = exec(Some(5_000), Some(200));
        let close = LingerStep::Close;
        let wake = |us: u64| LingerStep::WakeAt(Some(at(us)));
        let ms = Duration::from_millis(1);
        const START: u64 = 10_000;
        // (case, now, linger, executor, (pushes, parked), expected) —
        // gathering began at START.
        let table = [
            (
                "idle: waits out the grace",
                START + 199,
                ms,
                idle,
                (0, 0),
                wake(START + 200),
            ),
            (
                "idle: grace elapsed closes",
                START + 200,
                ms,
                idle,
                (0, 0),
                close(Idle),
            ),
            (
                "grace counts from a later idle instant",
                START + 300,
                ms,
                exec(Some(START + 150), Some(200)),
                (0, 0),
                wake(START + 350),
            ),
            (
                "and closes once it has run from there",
                START + 350,
                ms,
                exec(Some(START + 150), Some(200)),
                (0, 0),
                close(Idle),
            ),
            (
                "unmeasured service time: as without the exit",
                START + 999,
                ms,
                exec(None, None),
                (0, 0),
                wake(START + 1000),
            ),
            (
                "unmeasured service time: closes at linger",
                START + 1000,
                ms,
                exec(None, None),
                (0, 0),
                close(Linger),
            ),
            (
                "zero linger never lingers, idle or not",
                START,
                Duration::ZERO,
                exec(Some(START), Some(200)),
                (0, 0),
                close(Linger),
            ),
            (
                "grace is capped by linger",
                START + 999,
                ms,
                exec(Some(5_000), Some(5_000)),
                (0, 0),
                wake(START + 1000),
            ),
            (
                "a late idle instant cannot push past linger",
                START + 950,
                ms,
                exec(Some(START + 900), Some(200)),
                (0, 0),
                wake(START + 1000),
            ),
            (
                "unbounded linger, idle: the grace still closes it",
                START + 200,
                Duration::MAX,
                idle,
                (0, 0),
                close(Idle),
            ),
            (
                "parked entries nobody is counted back for: the grace closes as ever",
                START + 200,
                ms,
                idle,
                (0, 1),
                close(Idle),
            ),
            (
                "one of two back and still parked: likewise",
                START + 200,
                ms,
                after(idle, 2, 40),
                (41, 1),
                close(Idle),
            ),
            (
                "all back, one still parked: the grace waits for it, within linger",
                START + 200,
                ms,
                after(idle, 2, 40),
                (42, 1),
                wake(START + 1000),
            ),
            (
                "and the linger still bounds that",
                START + 1000,
                ms,
                after(idle, 2, 40),
                (42, 1),
                close(Linger),
            ),
            (
                "unbounded linger, all back, one parked: until its slot clears",
                START + 200,
                Duration::MAX,
                after(idle, 2, 40),
                (42, 1),
                LingerStep::WakeAt(None),
            ),
            (
                "idle, both released callers back: closes before the grace",
                START + 10,
                ms,
                after(idle, 2, 40),
                (42, 0),
                close(Returned),
            ),
            (
                "idle, one of two back: waits exactly as without the exit",
                START + 10,
                ms,
                after(idle, 2, 40),
                (41, 0),
                wake(START + 200),
            ),
            (
                "and the grace still closes it",
                START + 200,
                ms,
                after(idle, 2, 40),
                (41, 0),
                close(Idle),
            ),
            (
                "all back after the grace ran out: still their return",
                START + 200,
                ms,
                after(idle, 2, 40),
                (42, 0),
                close(Returned),
            ),
            (
                "all back at the linger: the bound wins",
                START + 1000,
                ms,
                after(idle, 2, 40),
                (42, 0),
                close(Linger),
            ),
            (
                "unmeasured first epoch: returns do not close",
                START + 10,
                ms,
                after(exec(None, None), 2, 40),
                (42, 0),
                wake(START + 1000),
            ),
            (
                "a counted push still parked in the heap defers it",
                START + 10,
                ms,
                after(idle, 2, 40),
                (42, 1),
                wake(START + 200),
            ),
            (
                "nothing released (no epoch resolved): an empty bar closes nothing",
                START + 10,
                ms,
                after(idle, 0, 3),
                (7, 0),
                wake(START + 200),
            ),
            (
                "out of phase: the window gathered before the release is in the snapshot",
                START + 10,
                ms,
                after(idle, 1, 41),
                (41, 0),
                wake(START + 200),
            ),
            (
                "and goes out with the released caller's next push",
                START + 60,
                ms,
                after(idle, 1, 41),
                (42, 0),
                close(Returned),
            ),
            (
                "a drain older than the snapshot reads as nobody back",
                START + 10,
                ms,
                after(idle, 1, 41),
                (39, 0),
                wake(START + 200),
            ),
        ];
        for (case, now, linger, executor, (pushes, parked), want) in table {
            assert_eq!(
                linger_step(at(now), at(START), linger, executor, pushes, parked),
                want,
                "{case}"
            );
        }
        // The decision as it was before the `Returned` exit, to hold the
        // new one against.
        let before = |now: u64, executor: ExecutorState| {
            let (now, start) = (at(now), at(START));
            let deadline = start + ms;
            if now >= deadline {
                return close(Linger);
            }
            match executor.service {
                Some(service) => {
                    let end =
                        executor.idle_since.map_or(start, |idle| idle.max(start)) + service.min(ms);
                    if now >= end {
                        close(Idle)
                    } else {
                        LingerStep::WakeAt(Some(end.min(deadline)))
                    }
                }
                None => LingerStep::WakeAt(Some(deadline)),
            }
        };
        // Whatever the executor and the counters say: `Returned` closes
        // a measured shard's epoch then and there, where the old decision
        // was still waiting or closing on the grace; every caller back and
        // one still parked is the one state that waits longer, and only
        // to `linger`; everything else decides exactly as before.
        for idle_since in [None, Some(0), Some(START + 400), Some(START + 5_000)] {
            for service in [None, Some(0), Some(300), Some(50_000)] {
                for (released, at_release, pushes, parked) in [
                    (0, 0, 0, 0),
                    (0, 2, 9, 0),
                    (0, 2, 9, 1),
                    (1, 2, 2, 0),
                    (1, 2, 3, 0),
                    (3, 2, 4, 0),
                    (3, 2, 4, 1),
                    (3, 2, 5, 0),
                    (3, 2, 5, 1),
                    (3, 7, 5, 0),
                ] {
                    let executor = after(exec(idle_since, service), released, at_release);
                    let measured = service.is_some();
                    let all_back = released > 0 && pushes >= at_release + released;
                    for now in [START, START + 300, START + 500, START + 999, START + 1000] {
                        let got = linger_step(at(now), at(START), ms, executor, pushes, parked);
                        let was = before(now, executor);
                        if was == close(Linger) {
                            assert_eq!(got, was);
                        } else if measured && all_back && parked == 0 {
                            assert_eq!(got, close(Returned));
                        } else if measured && all_back && parked > 0 {
                            assert_eq!(
                                got,
                                if was == close(Idle) {
                                    wake(START + 1000)
                                } else {
                                    was
                                }
                            );
                        } else {
                            assert_eq!(got, was);
                        }
                    }
                }
            }
        }
    }

    /// What a test sees of an [`Effect`]: timestamps, not segments, and
    /// waits in µs (`None`: unbounded).
    #[derive(Debug, PartialEq)]
    enum Seen {
        Next,
        Expire(Vec<u64>),
        Drain(Option<u64>),
        BackOff(u64),
        HandOver(Vec<u64>, CloseCause),
        Exit,
    }

    impl From<Effect> for Seen {
        fn from(effect: Effect) -> Self {
            let ts = |segments: Vec<Segment>| {
                let reqs = segments.iter().flat_map(|s| &s.reqs);
                reqs.map(|r| r.ts).collect()
            };
            let us = |d: Duration| d.as_micros() as u64;
            match effect {
                Effect::NextTurn => Seen::Next,
                Effect::Expire(entries) => Seen::Expire(ts(entries)),
                Effect::Drain { wait } => Seen::Drain((wait != Duration::MAX).then(|| us(wait))),
                Effect::BackOff(pause) => Seen::BackOff(us(pause)),
                Effect::HandOver { segments, close } => Seen::HandOver(ts(segments), close),
                Effect::Exit => Seen::Exit,
            }
        }
    }

    enum Step {
        /// A turn at this µs offset.
        Turn(u64),
        /// The drain the machine asked for brought these timestamps, one
        /// call each, under this watermark; the queue had seen this many
        /// push calls, and is (or is not) finished.
        Drain(&'static [u64], u64, u64, bool),
        /// The same, for one call's segment of all these timestamps.
        DrainCall(&'static [u64], u64, u64, bool),
    }

    /// (case, batch target, executor, deadlines as (ts, µs), script).
    type Row = (
        &'static str,
        usize,
        ExecutorState,
        &'static [(u64, u64)],
        Vec<(Step, Seen)>,
    );

    #[test]
    fn combiner_script_table() {
        use CloseCause::{Full, Linger, Returned};
        use Step::{Drain, DrainCall, Turn};
        // Instants are offsets in µs from one base; nothing sleeps.
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        // Nothing measured yet: every epoch waits out the linger.
        let unmeasured = ExecutorState::default();
        // Idle since 0 with a 500 µs grace; the last epoch released one
        // caller when the queue had seen 4 push calls.
        let idle = ExecutorState {
            idle_since: Some(at(0)),
            service: Some(Duration::from_micros(500)),
            released: 1,
            pushes_at_release: 4,
        };
        let next = || Seen::Next;
        let drain = Seen::Drain;
        let hand_over = |ts: &[u64], close| Seen::HandOver(ts.to_vec(), close);
        // The stage's heap target is 2 and the linger 1 ms throughout.
        let table: Vec<Row> = vec![
            (
                "a head-of-line entry above the watermark backs off, and the \
                 next turn drains though the stage is at its heap target",
                8,
                unmeasured,
                &[],
                vec![
                    (Turn(0), drain(None)),
                    (Drain(&[5, 6], 5, 1, false), Seen::BackOff(0)),
                    (Turn(1), drain(Some(0))),
                    (Drain(&[4], 7, 2, false), next()),
                    // Gathering starts at the turn that finds the epoch.
                    (Turn(2), drain(Some(1000))),
                    (Drain(&[], 7, 2, false), next()),
                    (Turn(1002), hand_over(&[4, 5, 6], Linger)),
                ],
            ),
            (
                "a turn that skipped the drain releases nothing above the last \
                 drain's watermark",
                1,
                unmeasured,
                &[],
                vec![
                    (Turn(0), drain(None)),
                    (Drain(&[510, 532, 537], 530, 1, false), next()),
                    (Turn(1), hand_over(&[510], Full)),
                    // 535 is still queued; the stage is at its heap target.
                    (Turn(2), Seen::BackOff(0)),
                    (Turn(3), drain(Some(0))),
                    (Drain(&[535], 540, 2, false), next()),
                    (Turn(4), hand_over(&[532], Full)),
                    (Turn(5), next()),
                    (Turn(6), hand_over(&[535], Full)),
                ],
            ),
            (
                "an entry whose deadline falls mid-linger resolves TimedOut at \
                 the deadline, and the epoch closes without it",
                8,
                unmeasured,
                &[(1, 300)],
                vec![
                    (Turn(0), drain(None)),
                    (Drain(&[1, 2], 10, 1, false), next()),
                    (Turn(100), drain(Some(200))),
                    (Drain(&[], 10, 1, false), next()),
                    (Turn(300), Seen::Expire(vec![1])),
                    (Turn(301), drain(Some(799))),
                    (Drain(&[], 10, 1, false), next()),
                    (Turn(1100), hand_over(&[2], Linger)),
                ],
            ),
            (
                "Returned closes only once nothing is parked",
                8,
                idle,
                &[],
                vec![
                    (Turn(0), drain(None)),
                    // The caller is back, but 5 is parked above the watermark.
                    (Drain(&[3, 5], 4, 5, false), next()),
                    (Turn(10), drain(Some(0))),
                    (Drain(&[], 4, 5, false), Seen::BackOff(0)),
                    (Turn(20), drain(Some(0))),
                    (Drain(&[], 6, 5, false), next()),
                    (Turn(40), hand_over(&[3, 5], Returned)),
                ],
            ),
            (
                "the batch target takes a prefix of a call, and its rest leads \
                 the next epoch",
                3,
                unmeasured,
                &[],
                vec![
                    (Turn(0), drain(None)),
                    (DrainCall(&[1, 2, 3, 4, 5], 10, 1, false), next()),
                    (Turn(1), hand_over(&[1, 2, 3], Full)),
                    // The rest is at the heap target: released undrained.
                    (Turn(2), next()),
                    (Turn(3), drain(Some(1000))),
                    (Drain(&[], 10, 1, false), next()),
                    (Turn(1003), hand_over(&[4, 5], Linger)),
                ],
            ),
            (
                "a finished queue closes Drain, then exits",
                8,
                unmeasured,
                &[],
                vec![
                    (Turn(0), drain(None)),
                    (Drain(&[1, 2], 3, 1, true), next()),
                    (Turn(10), hand_over(&[1, 2], CloseCause::Drain)),
                    (Turn(11), drain(None)),
                    (Drain(&[], 3, 1, true), Seen::Exit),
                ],
            ),
        ];
        for (case, target, executor, deadlines, script) in table {
            // One call's segment, due at the deadline of its first request.
            let call = |ts: &[u64]| {
                let deadline = deadlines
                    .iter()
                    .find(|&&(t, _)| t == ts[0])
                    .map(|&(_, us)| at(us));
                let mut seg = Segment::new(TicketBatch::new(ts.len()), deadline, 0, ts.len());
                for (i, &t) in (0u32..).zip(ts) {
                    seg.push(Request::query(1, t), Slot::Cell(i), 0);
                }
                seg
            };
            let mut combiner = Combiner {
                stage: Reorder::new(2),
                ..Combiner::new(target, Duration::from_millis(1))
            };
            for (i, (step, want)) in script.into_iter().enumerate() {
                let effect = match step {
                    Turn(us) => combiner.turn(TurnView {
                        now: at(us),
                        executor,
                    }),
                    Drain(ts, wm, pushes, finished) => combiner.drained(
                        wm,
                        Drained {
                            segments: ts.iter().map(|&t| call(&[t])).collect(),
                            pushes,
                            finished,
                        },
                    ),
                    DrainCall(ts, wm, pushes, finished) => combiner.drained(
                        wm,
                        Drained {
                            segments: vec![call(ts)],
                            pushes,
                            finished,
                        },
                    ),
                };
                assert_eq!(Seen::from(effect), want, "{case}: step {i}");
            }
        }
    }
}
