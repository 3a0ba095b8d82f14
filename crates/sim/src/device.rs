//! The device: owns the arena and launches kernels.

use crate::config::DeviceConfig;
use crate::mem::GlobalMemory;
use crate::pool::WorkerPool;
use crate::sched::{
    launch_seed, DetScheduler, LaunchSchedule, OsScheduler, SchedMode, ScheduleLog, Scheduler,
    OS_SCHEDULER,
};
use crate::stats::{KernelStats, WarpStats};
use crate::warp::WarpCtx;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// First panic captured out of a kernel launch: the offending warp id plus
/// the original payload.
type KernelPanic = (usize, Box<dyn std::any::Any + Send>);

/// Best-effort text of a panic payload (the common `&str`/`String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// What one worker slot of a launch owns while it runs warps: everything a
/// slot touches per tick or per request lives here, so no warp writes a
/// cache line another slot reads.
#[derive(Default)]
struct Slot<S> {
    /// Counters of every warp the slot ran. Every field of [`WarpStats`]
    /// is an order-independent fold, so a few slot accumulators sum to
    /// what one `WarpStats` per warp did.
    stats: WarpStats,
    /// `sched_yield`s those warps took.
    os_yields: u64,
    /// The kernel's own per-slot state, lent to each warp in turn.
    state: S,
}

/// What a launch records while its warps run: one [`Slot`] per worker slot,
/// and the one per-warp datum the SM makespan model needs, each warp's own
/// cycles.
struct LaunchStats<S> {
    /// A slot is run by one pool item, which holds its lock throughout.
    /// Kernel panics are caught below the guard, so none poisons it.
    slots: Vec<Mutex<Slot<S>>>,
    warp_cycles: Vec<AtomicU64>,
    /// First kernel panic, with the warp it came from.
    failure: Mutex<Option<KernelPanic>>,
}

impl<S: Default> LaunchStats<S> {
    fn new(slots: usize, num_warps: usize) -> Self {
        LaunchStats {
            slots: (0..slots).map(|_| Mutex::default()).collect(),
            warp_cycles: (0..num_warps).map(|_| AtomicU64::new(0)).collect(),
            failure: Mutex::new(None),
        }
    }
}

/// Re-raises a captured kernel panic, annotated with the kernel name and
/// the warp that actually panicked (rather than a misleading downstream
/// `expect` failure for some unrelated warp).
fn resume_kernel_panic(name: &str, failure: KernelPanic) -> ! {
    let (wid, payload) = failure;
    std::panic::panic_any(format!(
        "kernel '{name}' panicked in warp {wid}: {}",
        panic_message(payload.as_ref())
    ))
}

/// The whole policy of who runs an OS-mode launch: one whose pool would
/// have a single worker, or one too small for a pool hand-off to pay for
/// itself, runs its warps, in warp-id order, on the thread that launched
/// it. The hand-off is two condvar wakes (≈ 40 µs, what the benchmark's
/// `sim.launch_host_us.w1` read while a 1-warp launch still paid it).
///
/// * **One worker** (every serve shard's device, see `Cluster`). A
///   one-worker pool runs the warps one at a time in warp-id order, as the
///   launcher does, so only the hand-off and futile yields are saved.
/// * **Read-only, 64** (sized on 2 vCPUs, 4 workers; the first worker to
///   wake drains a short launch before the others are scheduled anyway).
///   Results cannot depend on how the warps interleave, the pool ran
///   2 886 of 3 000 launches of 9–32 warps (3 000 of 3 000 at 33–64) on a
///   single slot anyway, and 64 light warps ≈ 64 µs of work against the
///   ≈ 40 µs hand-off is break-even even on a host with many idle cores. On a 2-vCPU host the launcher wins far beyond it (query
///   kernel, 4 workers: 58 warps 32 vs 91 µs, 115 warps 49–57 vs 105–136,
///   230 warps 87–109 vs 144–202, 460 warps 168–177 vs 186–189, 900 warps
///   338–382 vs 331–366) — recorded, not exploited.
/// * **Read-write, 4.** Below five warps the pool's own schedule is serial
///   a quarter to half of the time already (2, 3, 4 warps: one slot in
///   50 %, 24 %, 15 % of launches — decided by wake latency, not by the
///   yield policy), Eirene's update warps own disjoint leaf runs, and a
///   thread-per-request baseline needs more than 128 requests to exceed
///   it, so no figure, ablation or contention guard runs a launch this
///   small. Launches of 5–8 warps use 3–4 slots in 90 % of runs: running
///   those here would change what runs concurrently, so they stay pooled.
#[inline]
pub(crate) fn runs_on_launcher(read_only: bool, num_warps: usize, workers: usize) -> bool {
    workers == 1 || num_warps <= if read_only { 64 } else { 4 }
}

/// A simulated GPU: a global-memory arena plus a configuration, able to
/// launch kernels.
///
/// A *kernel* is a closure executed once per warp; warps run concurrently
/// on host threads, so device-side synchronization (locks, STM, versions)
/// exhibits genuine contention. The launch returns aggregated
/// [`KernelStats`] including a makespan computed under the SM occupancy
/// model: warps are assigned to SMs round-robin, an SM's time is the sum of
/// its warps' cycles divided by the number of concurrently-resident warps
/// (capped at the configured occupancy, and never more than the warps the
/// SM actually hosts), and the kernel's makespan is the slowest SM plus
/// launch overhead.
///
/// Scheduling: under [`SchedMode::Os`] (default) warps run in parallel on
/// OS threads — except in a launch too small to share (at most 64
/// read-only or 4 read-write warps) or on a one-worker device, which runs
/// on the thread that issued it. Under [`SchedMode::Deterministic`] the
/// launch serializes warps beneath a seeded cooperative scheduler
/// ([`DetScheduler`](crate::DetScheduler)) so the interleaving — and with
/// it every conflict, allocation, and statistic — replays bit-for-bit for
/// a given seed; each launch's warp-grant sequence is captured and can be
/// drained with [`take_schedule_log`](Self::take_schedule_log) and
/// force-replayed with [`set_replay_log`](Self::set_replay_log).
pub struct Device {
    mem: GlobalMemory,
    cfg: DeviceConfig,
    /// Monotonic launch counter; derives per-launch PRNG seeds in
    /// deterministic mode.
    launches: AtomicU64,
    /// Schedules captured by deterministic launches since the last drain.
    sched_log: Mutex<ScheduleLog>,
    /// Pending replay queue: schedules consumed launch-by-launch.
    replay: Mutex<Option<(ScheduleLog, usize)>>,
    /// Persistent SM worker pool, created lazily on the first threaded
    /// launch and reused for every subsequent one: launch overhead is a
    /// few condvar wakes, not `effective_workers()` thread spawns/joins.
    pool: OnceLock<WorkerPool>,
    /// `sched_yield`s taken by finished launches, added once per launch
    /// (host-side observability; deliberately outside [`KernelStats`]).
    os_yields: AtomicU64,
}

impl Device {
    /// Creates a device with an arena of `arena_words` 64-bit words.
    ///
    /// # Panics
    /// If a geometry field the cost model divides by is too small — named
    /// here rather than met as a division by zero inside some warp.
    pub fn new(arena_words: usize, cfg: DeviceConfig) -> Self {
        for (field, value, min) in [
            ("num_sms", cfg.num_sms, 1),
            ("warp_size", cfg.warp_size, 1),
            ("warps_per_sm", cfg.warps_per_sm, 1),
            ("transaction_bytes", cfg.transaction_bytes, 8),
        ] {
            assert!(
                value >= min,
                "DeviceConfig::{field} is {value}, below {min}"
            );
        }
        Device {
            mem: GlobalMemory::new(arena_words),
            cfg,
            launches: AtomicU64::new(0),
            sched_log: Mutex::new(ScheduleLog::default()),
            replay: Mutex::new(None),
            pool: OnceLock::new(),
            os_yields: AtomicU64::new(0),
        }
    }

    /// The device's persistent worker pool (lazily created so purely
    /// sequential users never spawn threads).
    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::new(self.cfg.effective_workers()))
    }

    /// Device with default (A100-like) configuration.
    pub fn with_arena(arena_words: usize) -> Self {
        Self::new(arena_words, DeviceConfig::default())
    }

    pub fn mem(&self) -> &GlobalMemory {
        &self.mem
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Total `sched_yield`s taken by this device's launches so far: what
    /// warp interleaving cost the host. Each warp counts its own and a
    /// launch adds the sum when it completes, so the total is exact between
    /// launches. A host-side count, not a simulated statistic — it varies
    /// run to run and stays out of [`KernelStats`].
    pub fn os_yields(&self) -> u64 {
        self.os_yields.load(Ordering::Relaxed)
    }

    /// Drains the schedules captured by deterministic launches since the
    /// last call (empty under [`SchedMode::Os`]).
    pub fn take_schedule_log(&self) -> ScheduleLog {
        std::mem::take(&mut self.sched_log.lock().unwrap())
    }

    /// Queues a captured schedule log for replay: subsequent deterministic
    /// launches consume it in order instead of drawing fresh PRNG
    /// decisions.
    ///
    /// # Panics
    /// A consuming launch panics if its kernel name or warp count diverges
    /// from the recorded entry — the replayed workload must be the one that
    /// produced the log — or if a recorded choice cannot be honored under
    /// the current deterministic worker limit
    /// ([`DeviceConfig::det_workers`]), which means the log was captured
    /// under a different limit (machine-pinned `worker_threads`, or an
    /// older crate version): a silent fallback would replay a
    /// different-but-plausible interleaving, defeating regression replay.
    pub fn set_replay_log(&self, log: ScheduleLog) {
        *self.replay.lock().unwrap() = Some((log, 0));
    }

    /// Launches `num_warps` warps running `kernel` and aggregates their
    /// statistics. The closure receives the warp id and its context.
    ///
    /// In OS mode warps execute on a pool of **oversubscribed** OS threads
    /// ([`DeviceConfig::effective_workers`]); combined with the cooperative
    /// yields a per-launch [`OsScheduler`] takes at [`WarpCtx`] ticks —
    /// coarsely until a warp reports a conflict, at memory-access
    /// granularity while one is live — device-side synchronization exhibits
    /// real contention regardless of how many host cores exist. A launch of
    /// at most 64 read-only or 4 read-write warps, or any launch on a
    /// one-worker device, skips all of that: the launching thread runs its
    /// warps in warp-id order, without a yield (`runs_on_launcher` in this
    /// file has the reasons). In deterministic mode warps multiplex over a
    /// small **host-independent** number of pool slots
    /// ([`DeviceConfig::det_workers`]) and a seeded scheduler serializes
    /// their stepping, so a `(seed, config, kernel)` triple replays the same
    /// interleaving on any machine.
    ///
    /// # Panics
    /// If the kernel panics in any warp, the launch re-raises the first
    /// captured panic annotated with the offending warp id.
    pub fn launch<F>(&self, name: &str, num_warps: usize, kernel: F) -> KernelStats
    where
        F: Fn(usize, &mut WarpCtx) + Sync,
    {
        self.launch_with(name, num_warps, false, |wid, ctx, _: &mut ()| {
            kernel(wid, ctx)
        })
    }

    /// [`launch`](Self::launch) for a kernel that declares it writes no
    /// device memory ([`WarpCtx::write_hint`] stores excepted). No result
    /// can then depend on how the warps interleave, so an OS-mode launch
    /// takes no yields at all. Deterministic mode schedules exactly as
    /// `launch` does.
    ///
    /// # Panics
    /// As `launch`; additionally a `write`, `write_block` or `atomic_*`
    /// issued by the kernel panics in the issuing warp, in either mode.
    pub fn launch_read_only<F>(&self, name: &str, num_warps: usize, kernel: F) -> KernelStats
    where
        F: Fn(usize, &mut WarpCtx) + Sync,
    {
        self.launch_with(name, num_warps, true, |wid, ctx, _: &mut ()| {
            kernel(wid, ctx)
        })
    }

    /// The launch every other one is a case of: `kernel` also receives a
    /// `&mut S` that belongs to the worker slot running the warp. Each slot
    /// starts from `S::default()`, lends the same value to every warp it
    /// runs, one after the other, and drops it when the launch ends — the
    /// place for working memory worth keeping warm across warps (a
    /// transaction's logs), which a launch of hundreds of short warps would
    /// otherwise build hundreds of times. How many slots there are, and
    /// which warps share one, is the launcher's business: a kernel's
    /// results must not depend on what an earlier warp left in `S`, and a
    /// kernel must not make one warp wait for another to *start* — under
    /// the deterministic scheduler, and in a launch run by its launching
    /// thread, the other warp may not run until this one returns.
    /// `read_only` is the declaration of [`launch_read_only`](Self::launch_read_only).
    pub fn launch_with<S, F>(
        &self,
        name: &str,
        num_warps: usize,
        read_only: bool,
        kernel: F,
    ) -> KernelStats
    where
        S: Default + Send,
        F: Fn(usize, &mut WarpCtx, &mut S) + Sync,
    {
        match self.cfg.sched {
            SchedMode::Os => self.launch_os(name, num_warps, read_only, kernel),
            SchedMode::Deterministic { seed } => {
                self.launch_det(name, num_warps, seed, read_only, kernel)
            }
        }
    }

    /// Runs warp `wid` on `slot`; `false` if the kernel panicked (the
    /// launch keeps its first panic). Every launch runs every warp through
    /// here.
    fn run_warp<S>(
        &self,
        run: &LaunchStats<S>,
        slot: &mut Slot<S>,
        sched: &dyn Scheduler,
        read_only: bool,
        kernel: impl FnOnce(usize, &mut WarpCtx, &mut S),
        wid: usize,
    ) -> bool {
        let Slot {
            stats,
            os_yields,
            state,
        } = slot;
        let mut ctx =
            WarpCtx::with_scheduler(&self.mem, &self.cfg, wid, stats, sched).deny_writes(read_only);
        let outcome = catch_unwind(AssertUnwindSafe(|| kernel(wid, &mut ctx, state)));
        *os_yields += ctx.os_yields();
        match outcome {
            Ok(()) => {
                // Ordered before `aggregate` by the pool's completion count
                // (or by program order, on the launching thread).
                run.warp_cycles[wid].store(ctx.cycles(), Ordering::Relaxed);
                true
            }
            Err(payload) => {
                let mut f = run.failure.lock().unwrap_or_else(|e| e.into_inner());
                f.get_or_insert((wid, payload));
                false
            }
        }
    }

    /// Runs the whole launch on the calling thread: one slot, warps in
    /// warp-id order, the rest unrun once one panics. Same bookkeeping as a
    /// pooled launch — [`run_warp`](Self::run_warp) into a one-slot
    /// [`LaunchStats`], folded by [`aggregate`](Self::aggregate).
    fn launch_serial<S: Default>(
        &self,
        name: &str,
        num_warps: usize,
        sched: &dyn Scheduler,
        read_only: bool,
        mut kernel: impl FnMut(usize, &mut WarpCtx, &mut S),
    ) -> KernelStats {
        let run = LaunchStats::<S>::new(1, num_warps);
        {
            let mut slot = run.slots[0].lock().expect("nobody else holds a fresh lock");
            for wid in 0..num_warps {
                if !self.run_warp(&run, &mut slot, sched, read_only, &mut kernel, wid) {
                    break;
                }
            }
        }
        self.aggregate(name, run)
    }

    fn launch_os<S, F>(
        &self,
        name: &str,
        num_warps: usize,
        read_only: bool,
        kernel: F,
    ) -> KernelStats
    where
        S: Default + Send,
        F: Fn(usize, &mut WarpCtx, &mut S) + Sync,
    {
        if runs_on_launcher(read_only, num_warps, self.cfg.effective_workers()) {
            // No warp of a serial launch is runnable elsewhere, so no tick
            // is worth a yield — the read-only regime, whatever the kernel
            // declared. Neither the pool nor its launch mutex is touched.
            let sched = OsScheduler::for_launch(true);
            return self.launch_serial(name, num_warps, &sched, read_only, &kernel);
        }
        // Per launch, so concurrent launches never heat each other.
        let sched = OsScheduler::for_launch(read_only);
        let workers = self.pool().workers().min(num_warps);
        let run = LaunchStats::<S>::new(workers, num_warps);
        let next_warp = AtomicUsize::new(0);
        // Each pool item is one worker slot claiming warp ids off an atomic
        // counter until none are left.
        self.pool().run(workers, &|idx| {
            let mut slot = run.slots[idx]
                .lock()
                .expect("kernel panics are caught below the guard");
            loop {
                let wid = next_warp.fetch_add(1, Ordering::Relaxed);
                if wid >= num_warps {
                    break;
                }
                if !self.run_warp(&run, &mut slot, &sched, read_only, &kernel, wid) {
                    // The launch has failed: leave unclaimed warps unrun.
                    next_warp.store(num_warps, Ordering::Relaxed);
                }
            }
        });
        self.aggregate(name, run)
    }

    fn launch_det<S, F>(
        &self,
        name: &str,
        num_warps: usize,
        seed: u64,
        read_only: bool,
        kernel: F,
    ) -> KernelStats
    where
        S: Default + Send,
        F: Fn(usize, &mut WarpCtx, &mut S) + Sync,
    {
        let launch_idx = self.launches.fetch_add(1, Ordering::Relaxed);
        if num_warps == 0 {
            return self.aggregate(name, LaunchStats::<S>::new(0, 0));
        }
        // Replay takes precedence over fresh PRNG decisions.
        let recorded: Option<Vec<u32>> = {
            let mut guard = self.replay.lock().unwrap();
            match guard.as_mut() {
                Some((log, pos)) if *pos < log.launches.len() => {
                    let entry = &log.launches[*pos];
                    assert!(
                        entry.name == name && entry.num_warps as usize == num_warps,
                        "replay schedule mismatch: recorded '{}' ({} warps), \
                         launching '{}' ({} warps)",
                        entry.name,
                        entry.num_warps,
                        name,
                        num_warps,
                    );
                    let choices = entry.choices.clone();
                    *pos += 1;
                    Some(choices)
                }
                _ => None,
            }
        };
        // Warps multiplex over a bounded set of pool worker slots instead
        // of one (mostly parked) thread per warp: a slot runs its assigned
        // warp until the warp completes, then picks up the next start
        // assignment. The token-passing protocol is unchanged; only the
        // thread mapping is. The slot bound shapes the captured schedule
        // (an unstarted warp needs a free slot to be grantable), so it
        // must be host-independent — `det_workers()`, never the
        // core-count-derived `effective_workers()` — or the same seed
        // would interleave differently on different machines.
        let workers = self.cfg.det_workers().min(num_warps);
        let sched = match recorded {
            Some(choices) => DetScheduler::replaying(num_warps, choices),
            None => DetScheduler::seeded(num_warps, launch_seed(seed, launch_idx)),
        }
        .with_worker_limit(workers);
        let run = LaunchStats::<S>::new(workers, num_warps);
        self.pool().run_with_driver(
            workers,
            &|idx| {
                let mut slot = run.slots[idx]
                    .lock()
                    .expect("kernel panics are caught below the guard");
                while let Some(wid) = sched.next_assignment() {
                    sched.warp_begin(wid);
                    self.run_warp(&run, &mut slot, &sched, read_only, &kernel, wid);
                    // Hand the token back even on panic, or the
                    // coordinator would wait forever.
                    sched.warp_finished(wid);
                }
            },
            || sched.drive(),
        );
        self.sched_log
            .lock()
            .unwrap()
            .launches
            .push(LaunchSchedule {
                name: name.to_string(),
                num_warps: num_warps as u32,
                choices: sched.take_choices(),
            });
        // Re-raises a kernel panic, so a real kernel failure keeps
        // precedence over the divergence check below.
        let stats = self.aggregate(name, run);
        // A replayed choice the scheduler could not honor means the log
        // came from a different det worker limit (machine/version): the
        // launch drained on a fallback interleaving, which must not pass
        // for a faithful replay.
        if let Some(msg) = sched.replay_divergence() {
            panic!("kernel '{name}': {msg}");
        }
        stats
    }

    /// Sequential launch, for deterministic debugging and tests that need
    /// reproducible interleavings (no cross-warp races): warps run in
    /// warp-id order on the calling thread in either mode, under the
    /// out-of-launch scheduler (every tick yields). A kernel panic is
    /// re-raised as by [`launch`](Self::launch).
    pub fn launch_seq<F>(&self, name: &str, num_warps: usize, mut kernel: F) -> KernelStats
    where
        F: FnMut(usize, &mut WarpCtx),
    {
        self.launch_seq_with(name, num_warps, |wid, ctx, _: &mut ()| kernel(wid, ctx))
    }

    /// [`launch_seq`](Self::launch_seq) with the per-slot state of
    /// [`launch_with`](Self::launch_with): one slot, so every warp is lent
    /// the same `S`.
    pub fn launch_seq_with<S, F>(&self, name: &str, num_warps: usize, kernel: F) -> KernelStats
    where
        S: Default,
        F: FnMut(usize, &mut WarpCtx, &mut S),
    {
        self.launch_serial(name, num_warps, &OS_SCHEDULER, false, kernel)
    }

    /// Folds what a launch recorded into its [`KernelStats`], or re-raises
    /// the kernel's panic if a warp failed.
    fn aggregate<S>(&self, name: &str, run: LaunchStats<S>) -> KernelStats {
        if let Some(f) = run.failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_kernel_panic(name, f);
        }
        let warps = run.warp_cycles.len() as u64;
        let mut totals = WarpStats::default();
        let mut os_yields = 0;
        for slot in run.slots {
            let slot = slot
                .into_inner()
                .expect("kernel panics are caught below the guard");
            // Move-based merge: trace event vectors are appended, not
            // cloned (and no allocation happens when tracing is off).
            totals.absorb(slot.stats);
            os_yields += slot.os_yields;
        }
        self.os_yields.fetch_add(os_yields, Ordering::Relaxed);
        // A slot logs its warps' events in the order it ran them; a stable
        // sort restores warp-id-major order and keeps each warp's own
        // events in program order.
        totals.events.sort_by_key(|e| e.warp);
        // Per SM: summed cycles and the number of warps it actually hosts.
        let mut per_sm = vec![(0u64, 0usize); self.cfg.num_sms];
        for (wid, cycles) in run.warp_cycles.into_iter().enumerate() {
            let sm = &mut per_sm[wid % self.cfg.num_sms];
            sm.0 += cycles.into_inner();
            sm.1 += 1;
        }
        // An SM's makespan is its cycle sum divided by the warps making
        // concurrent progress on it: the configured occupancy, but never
        // more than the warps the SM was actually assigned — an
        // under-occupied launch gets no imaginary speedup.
        let slowest_sm = per_sm
            .iter()
            .filter(|&&(_, warps)| warps > 0)
            .map(|&(cycles, warps)| cycles as f64 / warps.min(self.cfg.warps_per_sm) as f64)
            .fold(0.0f64, f64::max);
        let makespan = slowest_sm + self.cfg.launch_overhead as f64;
        KernelStats {
            name: name.to_string(),
            warps,
            totals,
            makespan_cycles: makespan,
        }
    }

    /// Converts a makespan in cycles into throughput (requests per second).
    pub fn throughput(&self, requests: usize, makespan_cycles: f64) -> f64 {
        if makespan_cycles == 0.0 {
            return 0.0;
        }
        requests as f64 / self.cfg.cycles_to_secs(makespan_cycles)
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("mem", &self.mem)
            .field("num_sms", &self.cfg.num_sms)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_geometry_is_rejected_by_field_name() {
        type Break = fn(&mut DeviceConfig);
        let cases: [(&str, Break); 4] = [
            ("num_sms", |c| c.num_sms = 0),
            ("warp_size", |c| c.warp_size = 0),
            ("warps_per_sm", |c| c.warps_per_sm = 0),
            ("transaction_bytes", |c| c.transaction_bytes = 7),
        ];
        for (field, break_it) in cases {
            let mut cfg = DeviceConfig::test_small();
            break_it(&mut cfg);
            let err = catch_unwind(|| Device::new(1 << 12, cfg)).expect_err(field);
            let msg = panic_message(err.as_ref());
            assert!(msg.contains(&format!("DeviceConfig::{field}")), "{msg}");
        }
    }

    #[test]
    fn launch_runs_every_warp() {
        let dev = Device::new(1 << 12, DeviceConfig::test_small());
        let counter = dev.mem().alloc(1);
        let stats = dev.launch("count", 64, |_, ctx| {
            ctx.atomic_add(counter, 1);
        });
        assert_eq!(dev.mem().read(counter), 64);
        assert_eq!(stats.warps, 64);
        assert_eq!(stats.totals.atomic_insts, 64);
    }

    #[test]
    fn makespan_reflects_occupancy_model() {
        let cfg = DeviceConfig {
            num_sms: 2,
            warps_per_sm: 2,
            launch_overhead: 0,
            ..DeviceConfig::default()
        };
        let dev = Device::new(1 << 12, cfg.clone());
        let a = dev.mem().alloc(1);
        // 4 warps, each does one read: each SM gets 2 warps × mem_latency
        // cycles, divided by 2 resident warps.
        let stats = dev.launch("reads", 4, |_, ctx| {
            ctx.read(a);
        });
        assert!((stats.makespan_cycles - cfg.mem_latency as f64).abs() < 1e-9);
    }

    #[test]
    fn underoccupied_launch_is_not_divided_by_full_occupancy() {
        // Regression: a 1-warp launch must report the warp's own cycles
        // (plus launch overhead), not cycles / warps_per_sm.
        let cfg = DeviceConfig {
            num_sms: 4,
            warps_per_sm: 8,
            ..DeviceConfig::default()
        };
        let dev = Device::new(1 << 12, cfg.clone());
        let a = dev.mem().alloc(1);
        let stats = dev.launch("one", 1, |_, ctx| {
            for _ in 0..10 {
                ctx.read(a);
            }
        });
        let warp_cycles = 10.0 * cfg.mem_latency as f64;
        assert!(
            (stats.makespan_cycles - (warp_cycles + cfg.launch_overhead as f64)).abs() < 1e-9,
            "1-warp makespan {} != warp cycles {} + overhead {}",
            stats.makespan_cycles,
            warp_cycles,
            cfg.launch_overhead
        );
    }

    #[test]
    fn partially_occupied_sm_divides_by_its_resident_warps() {
        // 3 warps on one SM with occupancy 8: the SM hosts 3 warps, so its
        // time is the cycle sum over 3, not over 8.
        let cfg = DeviceConfig {
            num_sms: 1,
            warps_per_sm: 8,
            launch_overhead: 0,
            ..DeviceConfig::default()
        };
        let dev = Device::new(1 << 12, cfg.clone());
        let a = dev.mem().alloc(1);
        let stats = dev.launch("three", 3, |_, ctx| {
            ctx.read(a);
        });
        let expect = 3.0 * cfg.mem_latency as f64 / 3.0;
        assert!((stats.makespan_cycles - expect).abs() < 1e-9);
    }

    #[test]
    fn small_launches_run_on_the_launcher() {
        for (read_only, warps, workers, expect) in [
            (false, 1, 4, true),
            (false, 4, 4, true),
            (false, 5, 4, false),
            (false, 864, 4, false),
            (true, 1, 4, true),
            (true, 64, 4, true),
            (true, 65, 4, false),
            (true, 864, 4, false),
            (false, 5, 1, true),
            (false, 864, 1, true),
            (true, 65, 1, true),
            (true, 864, 1, true),
        ] {
            assert_eq!(
                runs_on_launcher(read_only, warps, workers),
                expect,
                "read_only {read_only}, {warps} warps, {workers} workers"
            );
        }
    }

    #[test]
    fn a_one_worker_device_never_spawns_its_pool() {
        let cfg = DeviceConfig {
            worker_threads: 1,
            ..DeviceConfig::test_small()
        };
        let (dev, seq) = (Device::new(1 << 12, cfg.clone()), Device::new(1 << 12, cfg));
        let cells = dev.mem().alloc(865);
        assert_eq!(seq.mem().alloc(865), cells);
        // Every warp bumps one shared counter and stores what it read: the
        // launch's results and counters depend on the warps' order.
        let kernel = |wid: usize, ctx: &mut WarpCtx| {
            ctx.begin_request();
            let seen = ctx.atomic_add(cells, 1);
            ctx.write(cells + 1 + wid as u64, seen);
            ctx.control(wid as u64 % 7);
            ctx.end_request();
        };
        let stats = dev.launch("rw", 864, kernel);
        assert!(
            dev.pool.get().is_none(),
            "a one-worker launch spawned the pool"
        );
        assert_eq!(stats, seq.launch_seq("rw", 864, kernel));
        for word in cells..cells + 865 {
            assert_eq!(dev.mem().read(word), seq.mem().read(word), "word {word}");
        }
    }

    #[test]
    fn kernel_panic_reports_offending_warp() {
        let dev = Device::new(1 << 12, DeviceConfig::test_small());
        let kernel = |wid: usize, _: &mut WarpCtx| {
            if wid == 3 {
                panic!("injected fault");
            }
        };
        for what in ["pooled", "on the launcher", "launch_seq"] {
            let err = catch_unwind(AssertUnwindSafe(|| match what {
                "pooled" => dev.launch("boom", 8, kernel),
                "on the launcher" => dev.launch("boom", 4, kernel),
                _ => dev.launch_seq("boom", 8, kernel),
            }))
            .expect_err("launch must propagate the kernel panic");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("warp 3") && msg.contains("injected fault"),
                "{what}: unhelpful panic message: {msg}"
            );
            assert!(msg.contains("boom"), "{what}: missing kernel name: {msg}");
        }
    }

    #[test]
    fn kernel_panic_reports_offending_warp_in_det_mode() {
        let dev = Device::new(
            1 << 12,
            DeviceConfig::test_small().with_deterministic_sched(1),
        );
        let err = catch_unwind(AssertUnwindSafe(|| {
            dev.launch("boom-det", 4, |wid, _ctx| {
                if wid == 2 {
                    panic!("det fault");
                }
            });
        }))
        .expect_err("launch must propagate the kernel panic");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("warp 2") && msg.contains("det fault"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn misdeclared_read_only_kernel_is_reraised_like_any_kernel_panic() {
        for cfg in [
            DeviceConfig::test_small(),
            DeviceConfig::test_small().with_deterministic_sched(3),
        ] {
            let dev = Device::new(1 << 12, cfg);
            let a = dev.mem().alloc(1);
            let err = catch_unwind(AssertUnwindSafe(|| {
                dev.launch_read_only("liar", 8, |wid, ctx| {
                    ctx.read(a);
                    if wid == 5 {
                        ctx.atomic_add(a, 1);
                    }
                });
            }))
            .expect_err("a write under a read-only declaration must fail the launch");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("'liar'") && msg.contains("warp 5") && msg.contains("read-only"),
                "unhelpful panic message: {msg}"
            );
            assert_eq!(dev.mem().read(a), 0);
            // The device stays usable, and an honest kernel passes.
            let stats = dev.launch_read_only("honest", 8, |_, ctx| {
                ctx.read(a);
            });
            assert_eq!(stats.totals.mem_insts, 8);
            // `launch_seq` shares the runner but declares nothing.
            dev.launch_seq("seq", 8, |wid, ctx| {
                if wid == 5 {
                    ctx.atomic_add(a, 1);
                }
            });
            assert_eq!(dev.mem().read(a), 1);
        }
    }

    #[test]
    fn concurrent_launches_on_one_device_are_safe() {
        // `launch` takes &self; with per-launch scoped threads concurrent
        // launches were safe, and the pooled substrate must keep them so
        // (the pool serializes epochs internally).
        let dev = Device::new(1 << 14, DeviceConfig::test_small());
        let cells: Vec<_> = (0..4).map(|_| dev.mem().alloc(1)).collect();
        std::thread::scope(|s| {
            for &cell in &cells {
                let dev = &dev;
                s.spawn(move || {
                    for _ in 0..5 {
                        let stats = dev.launch("concurrent", 16, |_, ctx| {
                            ctx.atomic_add(cell, 1);
                        });
                        assert_eq!(stats.warps, 16);
                        assert_eq!(stats.totals.atomic_insts, 16);
                    }
                });
            }
        });
        for &cell in &cells {
            assert_eq!(dev.mem().read(cell), 5 * 16);
        }
    }

    #[test]
    fn warps_contend_on_shared_memory() {
        let dev = Device::new(1 << 12, DeviceConfig::test_small());
        let cell = dev.mem().alloc(1);
        // Spin-increment through CAS: total must be exact despite races.
        dev.launch("cas", 32, |_, ctx| {
            for _ in 0..100 {
                loop {
                    let cur = ctx.read(cell);
                    if ctx.atomic_cas(cell, cur, cur + 1).is_ok() {
                        break;
                    }
                    ctx.stats.lock_conflicts += 1;
                }
            }
        });
        assert_eq!(dev.mem().read(cell), 3200);
    }

    #[test]
    fn det_launch_is_bit_identical_for_a_seed() {
        let run = || {
            let dev = Device::new(
                1 << 12,
                DeviceConfig::test_small().with_deterministic_sched(0xDECAF),
            );
            let cell = dev.mem().alloc(1);
            let stats = dev.launch("det-cas", 8, |_, ctx| {
                for _ in 0..50 {
                    loop {
                        let cur = ctx.read(cell);
                        if ctx.atomic_cas(cell, cur, cur + 1).is_ok() {
                            break;
                        }
                        ctx.lock_conflict();
                    }
                }
            });
            assert_eq!(dev.mem().read(cell), 400);
            (stats, dev.take_schedule_log())
        };
        let (s1, log1) = run();
        let (s2, log2) = run();
        assert_eq!(s1, s2, "KernelStats must be bit-identical");
        assert_eq!(log1, log2, "schedules must be bit-identical");
        assert_eq!(log1.launches.len(), 1);
        assert!(!log1.launches[0].choices.is_empty());
    }

    #[test]
    fn det_launches_with_different_seeds_can_differ() {
        let run = |seed| {
            let dev = Device::new(
                1 << 12,
                DeviceConfig::test_small().with_deterministic_sched(seed),
            );
            let cell = dev.mem().alloc(1);
            dev.launch("det", 8, |_, ctx| {
                for _ in 0..20 {
                    ctx.atomic_add(cell, 1);
                }
            });
            dev.take_schedule_log()
        };
        // Not a hard guarantee for any seed pair, but these differ.
        assert_ne!(run(1), run(2), "seeds 1 and 2 produced equal schedules");
    }

    #[test]
    fn captured_schedule_replays_identically() {
        let mk = || {
            Device::new(
                1 << 12,
                DeviceConfig::test_small().with_deterministic_sched(77),
            )
        };
        let kernel = |_: usize, ctx: &mut WarpCtx| {
            for _ in 0..30 {
                let cur = ctx.read(0);
                let _ = ctx.atomic_cas(0, cur, cur + 1);
            }
        };
        let dev1 = mk();
        let s1 = dev1.launch("replayable", 6, kernel);
        let log = dev1.take_schedule_log();
        // Round-trip through the text form, as a saved reproducer would.
        let log = ScheduleLog::parse(&log.serialize()).unwrap();

        let dev2 = mk();
        dev2.set_replay_log(log.clone());
        let s2 = dev2.launch("replayable", 6, kernel);
        assert_eq!(s1, s2, "replayed stats must match the original");
        assert_eq!(dev2.take_schedule_log(), log, "replay re-captures itself");
    }

    #[test]
    fn det_schedule_does_not_depend_on_host_worker_resolution() {
        // The det slot bound must come from the config, never from
        // available_parallelism: a launch wider than the bound captures
        // the same schedule whether the (host-dependent) OS worker count
        // is tiny or huge. Both configs here resolve det_workers() == 8
        // because worker_threads is left auto; the test pins the *shape*
        // of the guarantee by running well past the slot bound.
        let run = || {
            let dev = Device::new(
                1 << 14,
                DeviceConfig::test_small().with_deterministic_sched(0xC0FFEE),
            );
            let cell = dev.mem().alloc(1);
            dev.launch("wide-det", 3 * DeviceConfig::DET_WORKER_SLOTS, |_, ctx| {
                for _ in 0..40 {
                    ctx.atomic_add(cell, 1);
                }
            });
            dev.take_schedule_log()
        };
        assert_eq!(run(), run(), "schedules must be identical across runs");
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn replay_from_larger_worker_limit_fails_loudly() {
        // A log that starts DET_WORKER_SLOTS + 1 distinct warps before any
        // finishes can only have been captured under a larger worker limit
        // (another machine's pinned config, or the pre-bounding version).
        // Replaying it must fail, not silently substitute an eligible warp.
        let dev = Device::new(
            1 << 12,
            DeviceConfig::test_small().with_deterministic_sched(9),
        );
        let a = dev.mem().alloc(1);
        let warps = DeviceConfig::DET_WORKER_SLOTS + 4;
        dev.set_replay_log(ScheduleLog {
            launches: vec![LaunchSchedule {
                name: "div".into(),
                num_warps: warps as u32,
                choices: (0..=DeviceConfig::DET_WORKER_SLOTS as u32).collect(),
            }],
        });
        dev.launch("div", warps, |_, ctx| {
            // Enough reads that every warp yields before finishing, so the
            // first DET_WORKER_SLOTS starts all stay in flight.
            for _ in 0..60 {
                ctx.read(a);
            }
        });
    }

    #[test]
    #[should_panic(expected = "replay schedule mismatch")]
    fn replay_rejects_diverging_launch() {
        let dev = Device::new(
            1 << 12,
            DeviceConfig::test_small().with_deterministic_sched(5),
        );
        dev.set_replay_log(ScheduleLog {
            launches: vec![LaunchSchedule {
                name: "other".into(),
                num_warps: 2,
                choices: vec![0, 1],
            }],
        });
        dev.launch("mine", 4, |_, _| {});
    }

    #[test]
    fn launch_seq_is_deterministic() {
        let dev = Device::new(1 << 12, DeviceConfig::test_small());
        let a = dev.mem().alloc(1);
        let s1 = dev.launch_seq("s", 8, |wid, ctx| {
            ctx.write(a, wid as u64);
            ctx.control(wid as u64);
        });
        assert_eq!(dev.mem().read(a), 7);
        assert_eq!(s1.totals.control_insts, (0..8).sum::<u64>());
    }

    #[test]
    fn throughput_conversion() {
        let cfg = DeviceConfig {
            clock_ghz: 1.0,
            ..DeviceConfig::default()
        };
        let dev = Device::new(1 << 12, cfg);
        // 1000 requests in 1000 cycles at 1 GHz = 1e9 req/s.
        let tput = dev.throughput(1000, 1000.0);
        assert!((tput - 1e9).abs() / 1e9 < 1e-9);
    }

    #[test]
    fn empty_launch_is_harmless() {
        let dev = Device::new(1 << 12, DeviceConfig::test_small());
        let stats = dev.launch("empty", 0, |_, _| {});
        assert_eq!(stats.warps, 0);
        assert_eq!(stats.totals.requests, 0);

        let det = Device::new(
            1 << 12,
            DeviceConfig::test_small().with_deterministic_sched(0),
        );
        let stats = det.launch("empty-det", 0, |_, _| {});
        assert_eq!(stats.warps, 0);
    }
}
