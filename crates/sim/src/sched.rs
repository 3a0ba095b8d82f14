//! Pluggable warp scheduling: contention-adaptive OS yields by default,
//! seeded deterministic cooperative stepping for reproducible concurrency
//! testing.
//!
//! Every instrumented device operation passes through
//! [`WarpCtx::maybe_yield`](crate::WarpCtx), which reports a *tick* to a
//! [`Scheduler`] every [`yield_interval`](crate::DeviceConfig::yield_interval)
//! operations. The interval is the **finest** granularity at which warps can
//! interleave; what a tick costs is the scheduler's decision:
//!
//! * [`OsScheduler`] — the production default, one per OS-mode launch. Warps
//!   run genuinely in parallel on oversubscribed pool threads, and a tick
//!   becomes a `sched_yield` only where the interleaving can matter:
//!   - a **read-only** launch never yields — it writes no device memory, so
//!     no request's result depends on how its warps interleave;
//!   - a read-write launch is **cool** until a warp reports a conflict and
//!     yields on every [`COOL_STRIDE`]th tick of each warp: the same
//!     `worker_threads` warps stay in flight, so as many transactions and
//!     latches are open at once as ever — which is what creates conflicts;
//!   - a conflict ([`Scheduler::conflict`]: failed latch, STM abort, stale
//!     leaf version) makes the launch **hot** for the next [`HOT_SLICES`]
//!     ticks, during which every tick yields: a waiter's spin cost depends
//!     on the holder getting the CPU back at memory-access granularity.
//!
//!   Fast, but a failing interleaving is unreproducible.
//! * [`DetScheduler`] — one warp runs at a time; at every tick the token
//!   returns to a coordinator that picks the next warp from a seeded PRNG
//!   (or from a recorded schedule). A given `(seed, kernel)` pair therefore
//!   replays the *same* interleaving bit-for-bit, and the chosen warp
//!   sequence is captured as a [`LaunchSchedule`] that can be serialized and
//!   replayed later. It hands the token over on every tick and ignores
//!   conflict reports, so its cadence is `yield_interval` alone.
//!
//! Deterministic mode serializes execution, so it is meant for correctness
//! work (the differential fuzzer in `eirene-check`, regression replay), not
//! for timing figures — the cycle model is unaffected either way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};

/// Tick hook used by [`WarpCtx`](crate::WarpCtx). Implementations decide
/// what "this warp offers to interleave here" means.
pub trait Scheduler: Sync {
    /// Called by the thread running warp `warp_id` after every
    /// `yield_interval` instrumented operations; `tick` counts the warp's
    /// calls so far, starting at 1. May block until the warp is scheduled
    /// again. Returns whether the tick cost the host a `sched_yield`: the
    /// warp counts those itself, so a scheduler shared by every warp of a
    /// launch has nothing to write on a tick.
    fn yield_point(&self, warp_id: usize, tick: u32) -> bool;

    /// A warp lost a synchronization race (failed latch acquisition, STM
    /// abort, stale version). Schedulers that adapt their interleaving to
    /// contention listen here; the default ignores it.
    fn conflict(&self) {}
}

/// A cool read-write launch yields on every `COOL_STRIDE`th tick of a warp.
pub(crate) const COOL_STRIDE: u32 = 4;

/// Ticks (launch-wide) that yield unconditionally after a conflict report.
pub(crate) const HOT_SLICES: u32 = 16;

/// The whole yield policy of [`OsScheduler`]: whether tick number `tick` of
/// a warp gives up the CPU, given what the launch declared and observed.
#[inline]
pub(crate) fn os_tick_yields(read_only: bool, hot: bool, tick: u32) -> bool {
    !read_only && (hot || tick.is_multiple_of(COOL_STRIDE))
}

/// Default scheduler: real parallelism, with `sched_yield`s spent only while
/// they can change an outcome (see the module docs for the three regimes).
/// One instance per launch, so concurrent launches (two shard devices in
/// `serve`) never heat each other.
pub struct OsScheduler {
    read_only: bool,
    /// Every tick yields regardless of `hot` — no launch to observe.
    pinned_hot: bool,
    /// Hot ticks left; 0 = cool. The only shared word a tick touches, and a
    /// cool tick only loads it, so the line stays shared among the workers
    /// until a conflict heats the launch. Relaxed: a heuristic that
    /// publishes no data, and a lost update only stretches or trims a hot
    /// window.
    hot: AtomicU32,
}

impl OsScheduler {
    /// Scheduler for one launch; `read_only` is the kernel's declaration
    /// that it writes no device memory.
    pub const fn for_launch(read_only: bool) -> Self {
        OsScheduler {
            read_only,
            pinned_hot: false,
            hot: AtomicU32::new(0),
        }
    }

    /// Scheduler for contexts created outside any launch: nothing to adapt
    /// to, so every tick yields.
    pub const fn out_of_launch() -> Self {
        OsScheduler {
            read_only: false,
            pinned_hot: true,
            hot: AtomicU32::new(0),
        }
    }

    /// Consumes one tick: spends a hot slice if any is left and returns
    /// whether this tick yields. Everything but the syscall, so the policy
    /// is testable without threads.
    #[inline]
    fn tick_yields(&self, tick: u32) -> bool {
        let hot = self.pinned_hot
            || self
                .hot
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| h.checked_sub(1))
                .is_ok();
        os_tick_yields(self.read_only, hot, tick)
    }
}

impl Scheduler for OsScheduler {
    #[inline]
    fn yield_point(&self, _warp_id: usize, tick: u32) -> bool {
        let yields = self.tick_yields(tick);
        if yields {
            std::thread::yield_now();
        }
        yields
    }

    #[inline]
    fn conflict(&self) {
        self.hot.store(HOT_SLICES, Ordering::Relaxed);
    }
}

/// Shared instance for contexts created outside a launch
/// ([`WarpCtx::new`](crate::WarpCtx::new)): unit tests of device code and
/// `Device::launch_seq`. Pinned hot, so it has no state to share.
pub static OS_SCHEDULER: OsScheduler = OsScheduler::out_of_launch();

/// Which scheduler a [`Device`](crate::Device) launches kernels under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// OS-scheduled worker threads under a per-launch [`OsScheduler`]:
    /// contention-adaptive `sched_yield` interleaving points.
    #[default]
    Os,
    /// Seeded deterministic cooperative stepping: warps execute one at a
    /// time, interleaved at yield points by a PRNG derived from `seed` and
    /// the launch index, with schedule capture for replay.
    Deterministic { seed: u64 },
}

/// The warp-choice sequence of one deterministic launch: `choices[i]` is
/// the warp granted the execution token at scheduling step `i`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchSchedule {
    /// Kernel name the launch was issued with.
    pub name: String,
    /// Number of warps in the launch.
    pub num_warps: u32,
    /// Warp ids in grant order.
    pub choices: Vec<u32>,
}

/// Ordered log of every deterministic launch a device performed. One
/// tree-level batch spans several launches (query kernel, update kernel),
/// so replaying a failure means replaying the whole log in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleLog {
    pub launches: Vec<LaunchSchedule>,
}

impl ScheduleLog {
    /// Serializes the log to a line-oriented text form (stable across
    /// versions of this crate; see [`ScheduleLog::parse`]).
    pub fn serialize(&self) -> String {
        let mut out = String::from("eirene-schedule v1\n");
        for l in &self.launches {
            out.push_str(&l.name);
            out.push('\t');
            out.push_str(&l.num_warps.to_string());
            out.push('\t');
            for (i, c) in l.choices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text form produced by [`ScheduleLog::serialize`].
    pub fn parse(text: &str) -> Result<ScheduleLog, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("eirene-schedule v1") => {}
            other => return Err(format!("bad schedule header: {other:?}")),
        }
        let mut launches = Vec::new();
        for (ln, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            let (name, warps, choices) = match (parts.next(), parts.next(), parts.next()) {
                (Some(n), Some(w), Some(c)) => (n, w, c),
                _ => return Err(format!("line {}: expected 3 tab-separated fields", ln + 2)),
            };
            let num_warps: u32 = warps
                .parse()
                .map_err(|e| format!("line {}: bad warp count: {e}", ln + 2))?;
            let choices: Vec<u32> = if choices.is_empty() {
                Vec::new()
            } else {
                choices
                    .split(',')
                    .map(|c| c.parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("line {}: bad choice: {e}", ln + 2))?
            };
            launches.push(LaunchSchedule {
                name: name.to_string(),
                num_warps,
                choices,
            });
        }
        Ok(ScheduleLog { launches })
    }
}

/// SplitMix64: small, seedable, dependency-free PRNG driving scheduling
/// decisions. Statistical quality is ample for interleaving exploration.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives the per-launch seed from the device seed and the launch index,
/// so each launch under one device gets an independent but reproducible
/// decision stream.
pub(crate) fn launch_seed(device_seed: u64, launch_index: u64) -> u64 {
    SplitMix64::new(device_seed ^ launch_index.wrapping_mul(0xA076_1D64_78BD_642F)).next()
}

/// Who currently holds the execution token.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Turn {
    Coordinator,
    Warp(usize),
}

enum ChoiceSource {
    Rng(SplitMix64),
    /// Recorded choices plus a cursor. Once the tape is exhausted, or when
    /// a recorded warp already finished (benign length drift), the
    /// scheduler falls back to the first runnable warp. A recorded warp
    /// that is *unfinished* but ineligible under the worker bound is a
    /// real divergence (the log was captured under a different limit or
    /// version) and is reported through [`DetScheduler::replay_divergence`]
    /// instead of being silently substituted.
    Replay(Vec<u32>, usize),
}

struct DetState {
    turn: Turn,
    finished: Vec<bool>,
    live: usize,
    source: ChoiceSource,
    choices: Vec<u32>,
    /// [`pick`](Self::pick)'s candidate list, kept between ticks so a
    /// tick allocates nothing.
    runnable: Vec<usize>,
    /// First replay divergence detected (see [`ChoiceSource::Replay`]).
    /// The schedule keeps draining on the fallback so every warp finishes
    /// — panicking mid-drive would strand warp threads parked on the
    /// token — and the launch fails loudly afterwards.
    diverged: Option<String>,
    /// Bounded-worker multiplexing (None = legacy one-thread-per-warp).
    /// When set, at most `limit` warps may be mid-execution at once; a
    /// warp not yet started is only eligible while a worker slot is free,
    /// and granting it enqueues a start assignment for the worker pool.
    workers: Option<WorkerState>,
}

struct WorkerState {
    /// The configured slot limit (kept for diagnostics; `free` tracks the
    /// live remainder).
    limit: usize,
    started: Vec<bool>,
    /// Worker slots not currently owning a started-but-unfinished warp.
    free: usize,
    /// Warp ids granted their first turn, awaiting pickup by a worker.
    assignments: VecDeque<usize>,
}

impl DetState {
    /// A warp is eligible for the next grant if it is unfinished and —
    /// under bounded workers — either already started (its worker is
    /// parked at a yield point) or startable on a free worker slot.
    fn eligible(&self, w: usize) -> bool {
        if self.finished[w] {
            return false;
        }
        match &self.workers {
            None => true,
            Some(ws) => ws.started[w] || ws.free > 0,
        }
    }

    fn pick(&mut self) -> usize {
        let mut runnable = std::mem::take(&mut self.runnable);
        runnable.clear();
        runnable.extend((0..self.finished.len()).filter(|&w| self.eligible(w)));
        debug_assert!(!runnable.is_empty());
        let step = self.choices.len();
        let w = match &mut self.source {
            ChoiceSource::Rng(rng) => runnable[(rng.next() % runnable.len() as u64) as usize],
            ChoiceSource::Replay(choices, pos) => {
                let recorded = choices.get(*pos).map(|&c| c as usize);
                *pos += 1;
                let divergence = match recorded {
                    Some(c) if c < self.finished.len() && runnable.contains(&c) => None,
                    // A recorded warp that is still unfinished but not
                    // grantable can only mean the worker bound differs
                    // from the recording run (other machine, other limit,
                    // other crate version). Substituting a plausible warp
                    // here would silently replay a *different*
                    // interleaving, so record the divergence; the launch
                    // drains on the fallback and then fails loudly.
                    Some(c) if c < self.finished.len() && !self.finished[c] => Some(format!(
                        "schedule replay diverged at step {step}: recorded warp {c} is \
                         unfinished but cannot be granted (not started and no free slot \
                         under det worker limit {}); the log was captured under a \
                         different worker limit or version",
                        self.workers.as_ref().map_or(0, |ws| ws.limit),
                    )),
                    Some(c) if c >= self.finished.len() => Some(format!(
                        "schedule replay diverged at step {step}: recorded warp {c} is \
                         out of range for a {}-warp launch (corrupt or mismatched log)",
                        self.finished.len(),
                    )),
                    // Exhausted tape or an already-finished warp: benign
                    // length drift, fall back as before.
                    _ => None,
                };
                if divergence.is_some() && self.diverged.is_none() {
                    self.diverged = divergence;
                }
                match recorded {
                    Some(c) if c < self.finished.len() && runnable.contains(&c) => c,
                    _ => runnable[0],
                }
            }
        };
        self.runnable = runnable;
        self.choices.push(w as u32);
        if let Some(ws) = &mut self.workers {
            if !ws.started[w] {
                ws.started[w] = true;
                ws.free -= 1;
                ws.assignments.push_back(w);
            }
        }
        w
    }
}

/// Coordinator for one deterministic launch: grants the execution token to
/// one warp at a time and records every grant.
///
/// Protocol: warp threads call [`warp_begin`](Self::warp_begin) before
/// running the kernel, [`yield_point`](Scheduler::yield_point) (through
/// `WarpCtx`) inside it, and [`warp_finished`](Self::warp_finished) after
/// it (on every exit path, panic included); the launching thread runs
/// [`drive`](Self::drive) until every warp finished.
pub struct DetScheduler {
    state: Mutex<DetState>,
    cv: Condvar,
}

impl DetScheduler {
    /// PRNG-driven scheduler for `num_warps` warps.
    pub fn seeded(num_warps: usize, seed: u64) -> Self {
        Self::with_source(num_warps, ChoiceSource::Rng(SplitMix64::new(seed)))
    }

    /// Replay scheduler following a recorded choice sequence.
    pub fn replaying(num_warps: usize, choices: Vec<u32>) -> Self {
        Self::with_source(num_warps, ChoiceSource::Replay(choices, 0))
    }

    fn with_source(num_warps: usize, source: ChoiceSource) -> Self {
        DetScheduler {
            state: Mutex::new(DetState {
                turn: Turn::Coordinator,
                finished: vec![false; num_warps],
                live: num_warps,
                source,
                choices: Vec::new(),
                runnable: Vec::with_capacity(num_warps),
                diverged: None,
                workers: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enables bounded-worker multiplexing: at most `limit` warps may be
    /// mid-execution at once, and warps are started through the assignment
    /// queue ([`next_assignment`](Self::next_assignment)) instead of
    /// dedicated per-warp threads. The grant sequence stays a pure
    /// function of the seed (worker-slot availability at each step is
    /// itself determined by the grant prefix), so capture/replay is
    /// unaffected; with `limit >= num_warps` the eligibility constraint
    /// never binds and the schedule equals the unbounded one.
    pub fn with_worker_limit(self, limit: usize) -> Self {
        {
            let mut st = self.lock();
            let n = st.finished.len();
            st.workers = Some(WorkerState {
                limit: limit.max(1),
                started: vec![false; n],
                free: limit.max(1),
                assignments: VecDeque::new(),
            });
        }
        self
    }

    /// Blocks until a warp is assigned to this worker slot, returning
    /// `None` once every warp has finished. Used by pooled deterministic
    /// launches; each worker runs assigned warps to completion in a loop.
    pub fn next_assignment(&self) -> Option<usize> {
        let mut st = self.lock();
        loop {
            if let Some(ws) = &mut st.workers {
                if let Some(w) = ws.assignments.pop_front() {
                    return Some(w);
                }
            }
            if st.live == 0 {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DetState> {
        // A kernel panic never happens while holding this lock (the lock
        // guards only token handoff), but a poisoned mutex must not turn a
        // captured kernel panic into a scheduler panic.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks the warp thread until the coordinator grants it the token
    /// for the first time.
    pub fn warp_begin(&self, warp_id: usize) {
        let mut st = self.lock();
        while st.turn != Turn::Warp(warp_id) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks a warp complete and returns the token to the coordinator.
    pub fn warp_finished(&self, warp_id: usize) {
        let mut st = self.lock();
        if !st.finished[warp_id] {
            st.finished[warp_id] = true;
            st.live -= 1;
            if let Some(ws) = &mut st.workers {
                // The finishing warp's worker slot is free for another
                // start assignment.
                ws.free += 1;
            }
        }
        st.turn = Turn::Coordinator;
        drop(st);
        self.cv.notify_all();
    }

    /// Runs the scheduling loop until every warp has finished.
    pub fn drive(&self) {
        let mut st = self.lock();
        loop {
            while st.turn != Turn::Coordinator {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.live == 0 {
                return;
            }
            let w = st.pick();
            st.turn = Turn::Warp(w);
            self.cv.notify_all();
        }
    }

    /// The grant sequence recorded so far (normally read after `drive`
    /// returns).
    pub fn take_choices(&self) -> Vec<u32> {
        std::mem::take(&mut self.lock().choices)
    }

    /// The first replay divergence detected, if any: a recorded choice
    /// that was unfinished yet ineligible (or out of range), meaning the
    /// log came from a different worker limit, machine, or version. The
    /// schedule drains on a fallback so every warp completes — callers
    /// (e.g. `Device::launch_det`) must check this after `drive` returns
    /// and fail loudly rather than accept the substituted interleaving.
    pub fn replay_divergence(&self) -> Option<String> {
        self.lock().diverged.clone()
    }
}

impl Scheduler for DetScheduler {
    fn yield_point(&self, warp_id: usize, _tick: u32) -> bool {
        let mut st = self.lock();
        st.turn = Turn::Coordinator;
        self.cv.notify_all();
        while st.turn != Turn::Warp(warp_id) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        // A token hand-over, not a `sched_yield`.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_decision_table() {
        // (read_only, hot, tick) -> yields?
        for (read_only, hot, tick, want) in [
            (true, false, 4, false),
            (true, true, 1, false),
            (true, true, 4, false),
            (false, false, 1, false),
            (false, false, 3, false),
            (false, false, 4, true),
            (false, false, 5, false),
            (false, false, 8, true),
            (false, true, 1, true),
            (false, true, 2, true),
            (false, true, 4, true),
        ] {
            assert_eq!(
                os_tick_yields(read_only, hot, tick),
                want,
                "read_only={read_only} hot={hot} tick={tick}"
            );
        }
    }

    #[test]
    fn read_only_launch_never_yields_even_after_a_conflict() {
        let sched = OsScheduler::for_launch(true);
        assert!((1..=64).all(|t| !sched.tick_yields(t)));
        sched.conflict();
        assert!((1..=64).all(|t| !sched.tick_yields(t)));
    }

    #[test]
    fn cool_launch_yields_on_every_fourth_tick_only() {
        let sched = OsScheduler::for_launch(false);
        let yielded: Vec<u32> = (1..=20).filter(|&t| sched.tick_yields(t)).collect();
        assert_eq!(yielded, [4, 8, 12, 16, 20]);
    }

    #[test]
    fn conflict_heats_sixteen_slices_then_the_launch_cools() {
        let sched = OsScheduler::for_launch(false);
        assert!(!sched.tick_yields(1), "cool before any conflict");
        sched.conflict();
        // Tick 1 never yields while cool, so every `true` here is heat.
        assert!((0..HOT_SLICES).all(|_| sched.tick_yields(1)));
        assert!(!sched.tick_yields(1), "cooled after HOT_SLICES ticks");
        assert!(sched.tick_yields(COOL_STRIDE), "cool cadence resumes");
        // A conflict during a hot window restarts it rather than stacking.
        sched.conflict();
        sched.tick_yields(1);
        sched.conflict();
        assert!((0..HOT_SLICES).all(|_| sched.tick_yields(1)));
        assert!(!sched.tick_yields(1));
    }

    #[test]
    fn out_of_launch_scheduler_yields_on_every_tick() {
        assert!((1..=64).all(|t| OS_SCHEDULER.tick_yields(t)));
    }

    #[test]
    fn schedule_log_roundtrips_through_text() {
        let log = ScheduleLog {
            launches: vec![
                LaunchSchedule {
                    name: "eirene-query".into(),
                    num_warps: 4,
                    choices: vec![0, 2, 2, 1, 3, 0],
                },
                LaunchSchedule {
                    name: "empty".into(),
                    num_warps: 0,
                    choices: vec![],
                },
            ],
        };
        let text = log.serialize();
        assert_eq!(ScheduleLog::parse(&text).unwrap(), log);
    }

    #[test]
    fn schedule_parse_rejects_garbage() {
        assert!(ScheduleLog::parse("not a schedule").is_err());
        assert!(ScheduleLog::parse("eirene-schedule v1\nname\t4\tx,y").is_err());
        assert!(ScheduleLog::parse("eirene-schedule v1\nonly-one-field").is_err());
    }

    #[test]
    fn splitmix_is_deterministic_and_moves() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        assert_ne!(launch_seed(1, 0), launch_seed(1, 1));
        assert_eq!(launch_seed(9, 3), launch_seed(9, 3));
    }

    #[test]
    fn det_scheduler_serializes_and_records_choices() {
        // Three "warps" that each append their id at every step they are
        // granted; the grant order must equal the recorded choices.
        let sched = DetScheduler::seeded(3, 42);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..3usize {
                let sched = &sched;
                let order = &order;
                scope.spawn(move || {
                    sched.warp_begin(w);
                    for _ in 0..5 {
                        order.lock().unwrap().push(w as u32);
                        sched.yield_point(w, 0);
                    }
                    order.lock().unwrap().push(w as u32);
                    sched.warp_finished(w);
                });
            }
            sched.drive();
        });
        let order = order.into_inner().unwrap();
        let choices = sched.take_choices();
        assert_eq!(order.len(), 18, "6 steps per warp");
        assert_eq!(choices, order, "grant sequence must match execution");
    }

    /// Runs `num_warps` warps (each yielding `yields` times) under
    /// `sched`, either on dedicated per-warp threads (`limit == None`,
    /// the legacy pattern) or multiplexed over `limit` worker slots via
    /// the assignment queue. Returns (execution order, recorded choices).
    fn run_warps(sched: DetScheduler, num_warps: usize, yields: usize) -> (Vec<u32>, Vec<u32>) {
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..num_warps {
                let sched = &sched;
                let order = &order;
                scope.spawn(move || {
                    sched.warp_begin(w);
                    for _ in 0..yields {
                        order.lock().unwrap().push(w as u32);
                        sched.yield_point(w, 0);
                    }
                    order.lock().unwrap().push(w as u32);
                    sched.warp_finished(w);
                });
            }
            sched.drive();
        });
        (order.into_inner().unwrap(), sched.take_choices())
    }

    fn run_warps_bounded(sched: DetScheduler, limit: usize, yields: usize) -> (Vec<u32>, Vec<u32>) {
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _slot in 0..limit {
                let sched = &sched;
                let order = &order;
                scope.spawn(move || {
                    while let Some(w) = sched.next_assignment() {
                        sched.warp_begin(w);
                        for _ in 0..yields {
                            order.lock().unwrap().push(w as u32);
                            sched.yield_point(w, 0);
                        }
                        order.lock().unwrap().push(w as u32);
                        sched.warp_finished(w);
                    }
                });
            }
            sched.drive();
        });
        (order.into_inner().unwrap(), sched.take_choices())
    }

    #[test]
    fn bounded_workers_multiplex_deterministically() {
        let run =
            |seed| run_warps_bounded(DetScheduler::seeded(6, seed).with_worker_limit(2), 2, 3);
        let (o1, c1) = run(99);
        let (o2, c2) = run(99);
        assert_eq!(o1, o2, "bounded schedule must be seed-deterministic");
        assert_eq!(c1, c2);
        assert_eq!(o1.len(), 6 * 4, "every warp ran all its steps");
        assert_eq!(c1, o1, "grant sequence must match execution order");
    }

    #[test]
    fn bounded_replay_follows_recorded_choices() {
        let (o1, c1) =
            run_warps_bounded(DetScheduler::seeded(5, 0xFEED).with_worker_limit(2), 2, 4);
        let (o2, c2) = run_warps_bounded(
            DetScheduler::replaying(5, c1.clone()).with_worker_limit(2),
            2,
            4,
        );
        assert_eq!(o1, o2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn bounded_replay_under_smaller_limit_reports_divergence() {
        // The tape starts warps 0, 1, 2 back-to-back, which needs three
        // concurrent slots; under limit 2 the third start is ineligible.
        // The schedule must still drain (every warp finishes) and the
        // divergence must be reported, not silently substituted.
        let sched = DetScheduler::replaying(3, vec![0, 1, 2]).with_worker_limit(2);
        std::thread::scope(|scope| {
            for _slot in 0..2 {
                let sched = &sched;
                scope.spawn(move || {
                    while let Some(w) = sched.next_assignment() {
                        sched.warp_begin(w);
                        for _ in 0..2 {
                            sched.yield_point(w, 0);
                        }
                        sched.warp_finished(w);
                    }
                });
            }
            sched.drive();
        });
        let msg = sched
            .replay_divergence()
            .expect("ineligible recorded choice must be reported");
        assert!(msg.contains("worker limit 2"), "{msg}");
        assert!(msg.contains("warp 2"), "{msg}");
    }

    #[test]
    fn faithful_bounded_replay_reports_no_divergence() {
        let (_, c1) = run_warps_bounded(DetScheduler::seeded(5, 0xFEED).with_worker_limit(2), 2, 4);
        let sched = DetScheduler::replaying(5, c1).with_worker_limit(2);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _slot in 0..2 {
                let sched = &sched;
                let order = &order;
                scope.spawn(move || {
                    while let Some(w) = sched.next_assignment() {
                        sched.warp_begin(w);
                        for _ in 0..4 {
                            order.lock().unwrap().push(w as u32);
                            sched.yield_point(w, 0);
                        }
                        order.lock().unwrap().push(w as u32);
                        sched.warp_finished(w);
                    }
                });
            }
            sched.drive();
        });
        assert_eq!(sched.replay_divergence(), None);
    }

    #[test]
    fn wide_worker_limit_matches_unbounded_schedule() {
        // With limit >= num_warps the eligibility constraint never binds,
        // so the multiplexed schedule equals the per-warp-thread one.
        let (_, unbounded) = run_warps(DetScheduler::seeded(6, 4242), 6, 3);
        let (_, wide) = run_warps_bounded(DetScheduler::seeded(6, 4242).with_worker_limit(6), 6, 3);
        assert_eq!(wide, unbounded);
    }

    #[test]
    fn replay_follows_recorded_choices() {
        let run = |sched: DetScheduler| {
            let order = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for w in 0..3usize {
                    let sched = &sched;
                    let order = &order;
                    scope.spawn(move || {
                        sched.warp_begin(w);
                        for _ in 0..4 {
                            order.lock().unwrap().push(w as u32);
                            sched.yield_point(w, 0);
                        }
                        sched.warp_finished(w);
                    });
                }
                sched.drive();
            });
            (order.into_inner().unwrap(), sched.take_choices())
        };
        let (order1, choices1) = run(DetScheduler::seeded(3, 1234));
        let (order2, choices2) = run(DetScheduler::replaying(3, choices1.clone()));
        assert_eq!(order1, order2);
        assert_eq!(choices1, choices2);
    }
}
