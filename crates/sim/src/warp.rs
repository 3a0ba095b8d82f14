//! Per-warp execution context: every device memory access, atomic, and
//! branch goes through here so it can be counted and charged cycles.

use crate::config::DeviceConfig;
use crate::mem::{Addr, GlobalMemory};
use crate::sched::{Scheduler, OS_SCHEDULER};
use crate::stats::WarpStats;
use eirene_telemetry::{Phase, TraceEvent, TraceEventKind};

/// Execution context handed to a kernel closure, one per warp.
///
/// A `WarpCtx` wraps the shared [`GlobalMemory`] with instrumentation: each
/// operation updates a borrowed [`WarpStats`] (instruction and transaction
/// counts, conflict counters) and advances its simulated cycle count
/// according to the [`DeviceConfig`] latency model. A launch lends every
/// warp a worker runs the same accumulator, so only differences of its
/// counters — [`cycles`](Self::cycles), response times — are this warp's.
///
/// Phase scoping: the context carries a current [`Phase`]; every charge is
/// attributed both to the kernel totals and to the current phase's row, so
/// per-phase rows always sum to the totals exactly. Kernels switch phases
/// with [`set_phase`](Self::set_phase), restoring the previous phase when a
/// span ends:
///
/// ```ignore
/// let prev = ctx.set_phase(Phase::VerticalTraversal);
/// // ... descend ...
/// ctx.set_phase(prev);
/// ```
///
/// Request boundaries: kernels bracket the work done for one request with
/// [`begin_request`](Self::begin_request) /
/// [`end_request`](Self::end_request) so per-request response times (the
/// QoS figures) land in the bounded latency histogram.
/// The single shared-row charge helper: applies the same `field += delta`
/// updates to the warp totals *and* to the current phase's row, evaluating
/// each delta exactly once. Every `charge_*` method below goes through
/// this, which is what keeps the phase rows summing to the totals exactly
/// — there is one list of deltas per charge, not two to keep in sync.
macro_rules! charge {
    ($ctx:expr, $($field:ident += $delta:expr),+ $(,)?) => {{
        $(let $field = $delta;)+
        let row = $ctx.stats.phases.row_mut($ctx.phase);
        $(row.$field += $field;)+
        $($ctx.stats.$field += $field;)+
    }};
}

pub struct WarpCtx<'a> {
    mem: &'a GlobalMemory,
    cfg: &'a DeviceConfig,
    warp_id: usize,
    /// Counters this warp adds to; algorithm code bumps step counters
    /// directly and reports conflicts through the phase-aware methods below.
    pub stats: &'a mut WarpStats,
    /// `stats.cycles` when this warp started.
    cycle_base: u64,
    phase: Phase,
    req_start: u64,
    ops_since_yield: u32,
    /// Scheduler ticks reported so far (one per `yield_interval` ops).
    ticks: u32,
    /// Ticks that cost a `sched_yield`. Counted here, in the warp's own
    /// memory: the scheduler is shared by every warp of the launch.
    os_yields: u64,
    /// The launch declared that it writes no device memory; the write
    /// paths enforce it.
    read_only: bool,
    sched: &'a dyn Scheduler,
}

impl<'a> WarpCtx<'a> {
    /// Creates a context under the out-of-launch OS scheduler, which yields
    /// on every tick. Public so lower-level crates can unit-test device code
    /// without a full launch; [`Device::launch_seq`](crate::Device::launch_seq)
    /// runs its warps under the same scheduler.
    pub fn new(
        mem: &'a GlobalMemory,
        cfg: &'a DeviceConfig,
        warp_id: usize,
        stats: &'a mut WarpStats,
    ) -> Self {
        Self::with_scheduler(mem, cfg, warp_id, stats, &OS_SCHEDULER)
    }

    /// Creates a context whose ticks and conflicts report to `sched` — the
    /// launch's own scheduler, which decides what a tick costs (OS mode) or
    /// which warp runs next (deterministic mode).
    pub fn with_scheduler(
        mem: &'a GlobalMemory,
        cfg: &'a DeviceConfig,
        warp_id: usize,
        stats: &'a mut WarpStats,
        sched: &'a dyn Scheduler,
    ) -> Self {
        WarpCtx {
            mem,
            cfg,
            warp_id,
            cycle_base: stats.cycles,
            stats,
            phase: Phase::Other,
            req_start: 0,
            // Stagger the first yield per warp so co-scheduled warps do
            // not advance in lockstep with each other.
            ops_since_yield: (warp_id as u32).wrapping_mul(7) % cfg.yield_interval.max(1),
            ticks: 0,
            os_yields: 0,
            read_only: false,
            sched,
        }
    }

    /// Marks the context as belonging to a launch declared read-only:
    /// `write*` and `atomic_*` panic from here on.
    pub(crate) fn deny_writes(mut self, read_only: bool) -> Self {
        self.read_only = read_only;
        self
    }

    /// Cooperative interleaving point: every `yield_interval` ops the warp
    /// reports a tick to its scheduler. With oversubscribed worker threads
    /// the OS scheduler turns ticks into yields as finely as the launch's
    /// contention warrants, so locks and transactions genuinely contend
    /// even on few-core hosts. Under a deterministic scheduler every tick
    /// hands the execution token back.
    #[inline]
    fn maybe_yield(&mut self) {
        if self.cfg.yield_interval == 0 {
            return;
        }
        self.ops_since_yield += 1;
        if self.ops_since_yield >= self.cfg.yield_interval {
            self.ops_since_yield = 0;
            self.ticks = self.ticks.wrapping_add(1);
            self.os_yields += u64::from(self.sched.yield_point(self.warp_id, self.ticks));
        }
    }

    /// `sched_yield`s this warp has taken so far. Host-side: it varies run
    /// to run, so it stays out of [`WarpStats`]; a launch sums it into
    /// [`Device::os_yields`](crate::Device::os_yields).
    #[inline]
    pub fn os_yields(&self) -> u64 {
        self.os_yields
    }

    #[inline]
    pub fn warp_id(&self) -> usize {
        self.warp_id
    }

    #[inline]
    pub fn config(&self) -> &DeviceConfig {
        self.cfg
    }

    /// The phase charges are currently attributed to.
    #[inline]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Switches the attribution phase, returning the previous one so
    /// nested spans can restore it.
    #[inline]
    pub fn set_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.phase, phase)
    }

    /// Appends an event to the trace when tracing is enabled.
    #[inline]
    pub fn emit(&mut self, kind: TraceEventKind, arg: u64) {
        if self.cfg.trace {
            let cycle = self.cycles();
            self.stats.events.push(TraceEvent {
                kind,
                warp: self.warp_id as u32,
                cycle,
                arg,
            });
        }
    }

    /// Raw, *uninstrumented* access to the arena. Use only for host-visible
    /// bookkeeping that the real system would not execute on the device.
    #[inline]
    pub fn raw_mem(&self) -> &'a GlobalMemory {
        self.mem
    }

    #[inline]
    fn charge_mem(&mut self, addr: Addr, words: usize) {
        self.maybe_yield();
        let insts = words.div_ceil(self.cfg.warp_size) as u64;
        let txns = self.cfg.transactions_for(addr, words);
        charge!(
            self,
            mem_insts += insts,
            mem_words += words as u64,
            mem_transactions += txns,
            cycles += txns * self.cfg.mem_latency,
        );
    }

    /// Instrumented single-word read.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> u64 {
        self.charge_mem(addr, 1);
        self.mem.read(addr)
    }

    /// Fails a device-memory mutation issued under a read-only launch. The
    /// launch re-raises the panic with the kernel's name.
    #[inline]
    fn assert_writable(&self, op: &str) {
        assert!(
            !self.read_only,
            "warp {} issued `{op}` in a launch declared read-only",
            self.warp_id
        );
    }

    /// Instrumented single-word write.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.assert_writable("write");
        self.write_hint(addr, value);
    }

    /// Instrumented single-word store of an *advisory* word, charged
    /// exactly like [`write`](Self::write) but legal in a read-only launch:
    /// by contract no request's result depends on a hint, and every reader
    /// tolerates a stale value (the leaf RF fence of §5 is the one user).
    #[inline]
    pub fn write_hint(&mut self, addr: Addr, value: u64) {
        self.charge_mem(addr, 1);
        self.mem.write(addr, value);
    }

    /// Warp-cooperative coalesced read of `out.len()` contiguous words
    /// (lanes each load one word per instruction, as in the warp-wide node
    /// loads of the Lock GB-tree and Eirene kernels).
    pub fn read_block(&mut self, base: Addr, out: &mut [u64]) {
        self.charge_mem(base, out.len());
        self.mem.read_slice(base, out);
    }

    /// Warp-cooperative coalesced write of contiguous words.
    pub fn write_block(&mut self, base: Addr, values: &[u64]) {
        self.assert_writable("write_block");
        self.charge_mem(base, values.len());
        self.mem.write_slice(base, values);
    }

    #[inline]
    fn charge_atomic(&mut self) {
        self.maybe_yield();
        charge!(
            self,
            atomic_insts += 1,
            mem_transactions += 1,
            cycles += self.cfg.atomic_latency,
        );
    }

    /// Instrumented compare-and-swap.
    #[inline]
    pub fn atomic_cas(&mut self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.assert_writable("atomic_cas");
        self.charge_atomic();
        self.mem.cas(addr, current, new)
    }

    /// Instrumented fetch-add.
    #[inline]
    pub fn atomic_add(&mut self, addr: Addr, delta: u64) -> u64 {
        self.assert_writable("atomic_add");
        self.charge_atomic();
        self.mem.fetch_add(addr, delta)
    }

    /// Instrumented fetch-or.
    #[inline]
    pub fn atomic_or(&mut self, addr: Addr, bits: u64) -> u64 {
        self.assert_writable("atomic_or");
        self.charge_atomic();
        self.mem.fetch_or(addr, bits)
    }

    /// Instrumented fetch-and.
    #[inline]
    pub fn atomic_and(&mut self, addr: Addr, bits: u64) -> u64 {
        self.assert_writable("atomic_and");
        self.charge_atomic();
        self.mem.fetch_and(addr, bits)
    }

    /// Records `n` control-flow instructions (branch decisions, loop
    /// iterations, predicate evaluations).
    #[inline]
    pub fn control(&mut self, n: u64) {
        charge!(
            self,
            control_insts += n,
            cycles += n * self.cfg.control_latency,
        );
    }

    /// Charges extra cycles without touching instruction counters (e.g.
    /// back-off delays).
    #[inline]
    pub fn charge_cycles(&mut self, extra: u64) {
        charge!(self, cycles += extra);
    }

    /// Charges an arena allocation: one atomic bump of the allocation
    /// cursor, without a coalesced-transaction charge (the bump targets a
    /// dedicated cursor word, not tree data).
    #[inline]
    pub fn charge_alloc(&mut self) {
        charge!(self, atomic_insts += 1, cycles += self.cfg.atomic_latency);
    }

    /// Charges the fixed I/O of accepting a request and publishing its
    /// response (one coalesced read of the request word, one coalesced
    /// write of the response word).
    #[inline]
    pub fn charge_request_io(&mut self) {
        charge!(
            self,
            mem_insts += 2,
            mem_words += 2,
            mem_transactions += 1,
            cycles += self.cfg.mem_latency,
        );
    }

    /// Records a failed latch acquisition, attributed to the current phase.
    #[inline]
    pub fn lock_conflict(&mut self) {
        charge!(self, lock_conflicts += 1);
        self.sched.conflict();
        self.emit(TraceEventKind::LockConflict, 0);
    }

    /// Records an STM abort, attributed to the current phase.
    #[inline]
    pub fn stm_abort(&mut self) {
        charge!(self, stm_aborts += 1);
        self.sched.conflict();
        self.emit(TraceEventKind::StmAbort, 0);
    }

    /// Records a version-validation failure, attributed to the current
    /// phase.
    #[inline]
    pub fn version_conflict(&mut self) {
        charge!(self, version_conflicts += 1);
        self.sched.conflict();
        self.emit(TraceEventKind::VersionConflict, 0);
    }

    /// Simulated cycles this warp has consumed so far.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.stats.cycles - self.cycle_base
    }

    /// Marks the start of one request's processing.
    #[inline]
    pub fn begin_request(&mut self) {
        self.req_start = self.stats.cycles;
    }

    /// Marks the end of one request's processing: records its response time
    /// and bumps the completed-request count.
    #[inline]
    pub fn end_request(&mut self) {
        let dt = self.stats.cycles - self.req_start;
        self.stats.latency.record(dt);
        self.stats.requests += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GlobalMemory, DeviceConfig) {
        (GlobalMemory::new(4096), DeviceConfig::default())
    }

    /// Records what a context reports, yielding nothing.
    #[derive(Default)]
    struct Recorder {
        ticks: std::sync::Mutex<Vec<(usize, u32)>>,
        conflicts: std::sync::atomic::AtomicU32,
    }

    impl Scheduler for Recorder {
        fn yield_point(&self, warp_id: usize, tick: u32) -> bool {
            self.ticks.lock().unwrap().push((warp_id, tick));
            false
        }

        fn conflict(&self) {
            self.conflicts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn ticks_are_numbered_per_warp_every_yield_interval_ops() {
        let (mem, cfg) = setup();
        let a = mem.alloc(1);
        let rec = Recorder::default();
        // Warp 0 has no stagger: ticks land exactly every 24 ops.
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::with_scheduler(&mem, &cfg, 0, &mut stats, &rec);
        for _ in 0..3 * cfg.yield_interval {
            ctx.read(a);
        }
        assert_eq!(*rec.ticks.lock().unwrap(), [(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn zero_yield_interval_reports_no_ticks() {
        let mem = GlobalMemory::new(4096);
        let cfg = DeviceConfig {
            yield_interval: 0,
            ..DeviceConfig::default()
        };
        let a = mem.alloc(1);
        let rec = Recorder::default();
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::with_scheduler(&mem, &cfg, 3, &mut stats, &rec);
        for _ in 0..500 {
            ctx.read(a);
            ctx.atomic_add(a, 1);
        }
        assert!(rec.ticks.lock().unwrap().is_empty());
    }

    #[test]
    fn conflicts_reach_the_scheduler() {
        let (mem, cfg) = setup();
        let rec = Recorder::default();
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::with_scheduler(&mem, &cfg, 0, &mut stats, &rec);
        ctx.lock_conflict();
        ctx.stm_abort();
        ctx.version_conflict();
        assert_eq!(rec.conflicts.into_inner(), 3);
    }

    #[test]
    fn default_context_yields_on_every_tick() {
        let (mem, cfg) = setup();
        let a = mem.alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        for _ in 0..3 * cfg.yield_interval {
            ctx.read(a);
        }
        // The warp's own count: exact, whatever other tests do meanwhile.
        assert_eq!(ctx.os_yields(), 3);
    }

    #[test]
    fn read_only_context_rejects_every_mutation_and_nothing_else() {
        let (mem, cfg) = setup();
        let a = mem.alloc(4);
        type Op = fn(&mut WarpCtx<'_>, Addr);
        let mutations: [(&str, Op); 6] = [
            ("write", |c, a| c.write(a, 1)),
            ("write_block", |c, a| c.write_block(a, &[1, 2])),
            ("atomic_cas", |c, a| _ = c.atomic_cas(a, 0, 1)),
            ("atomic_add", |c, a| _ = c.atomic_add(a, 1)),
            ("atomic_or", |c, a| _ = c.atomic_or(a, 1)),
            ("atomic_and", |c, a| _ = c.atomic_and(a, 1)),
        ];
        for (name, op) in mutations {
            let err = std::panic::catch_unwind(|| {
                let mut stats = WarpStats::default();
                let mut ctx = WarpCtx::new(&mem, &cfg, 9, &mut stats).deny_writes(true);
                op(&mut ctx, a);
            })
            .expect_err(name);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.contains("warp 9") && msg.contains(&format!("`{name}`")),
                "{msg}"
            );
            assert_eq!(mem.read(a), 0, "{name} must not reach memory");
        }
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 9, &mut stats).deny_writes(true);
        ctx.read(a);
        ctx.read_block(a, &mut [0; 4]);
        ctx.control(3);
        ctx.write_hint(a + 1, 7);
        assert_eq!(mem.read(a + 1), 7);
        assert_eq!(ctx.stats.mem_insts, 3);
    }

    #[test]
    fn read_counts_one_inst_one_transaction() {
        let (mem, cfg) = setup();
        let a = mem.alloc(4);
        mem.write(a, 42);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        assert_eq!(ctx.read(a), 42);
        assert_eq!(ctx.stats.mem_insts, 1);
        assert_eq!(ctx.stats.mem_transactions, 1);
        assert_eq!(ctx.stats.cycles, cfg.mem_latency);
    }

    #[test]
    fn block_read_coalesces() {
        let (mem, cfg) = setup();
        let a = mem.alloc_aligned(36, 16);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        let mut out = [0u64; 36];
        ctx.read_block(a, &mut out);
        // 36 words / 32 lanes = 2 warp instructions; 36 aligned words touch
        // 3 128-byte segments.
        assert_eq!(ctx.stats.mem_insts, 2);
        assert_eq!(ctx.stats.mem_transactions, 3);
        assert_eq!(ctx.stats.mem_words, 36);
    }

    #[test]
    fn atomics_charge_atomic_latency() {
        let (mem, cfg) = setup();
        let a = mem.alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        assert_eq!(ctx.atomic_cas(a, 0, 1), Ok(0));
        assert_eq!(ctx.atomic_add(a, 1), 1);
        assert_eq!(ctx.stats.atomic_insts, 2);
        assert_eq!(ctx.stats.cycles, 2 * cfg.atomic_latency);
    }

    #[test]
    fn request_brackets_record_response_times() {
        let (mem, cfg) = setup();
        let a = mem.alloc(1);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        ctx.begin_request();
        ctx.read(a);
        ctx.end_request();
        ctx.begin_request();
        ctx.read(a);
        ctx.read(a);
        ctx.end_request();
        assert_eq!(ctx.stats.requests, 2);
        assert_eq!(ctx.stats.latency.count(), 2);
        assert_eq!(ctx.stats.latency.min(), cfg.mem_latency);
        assert_eq!(ctx.stats.latency.max(), 2 * cfg.mem_latency);
        assert_eq!(ctx.stats.latency.sum(), 3 * cfg.mem_latency);
    }

    #[test]
    fn control_charges_control_latency() {
        let (mem, cfg) = setup();
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        ctx.control(7);
        assert_eq!(ctx.stats.control_insts, 7);
        assert_eq!(ctx.stats.cycles, 7 * cfg.control_latency);
    }

    #[test]
    fn writes_are_visible_through_raw_mem() {
        let (mem, cfg) = setup();
        let a = mem.alloc(2);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        ctx.write(a + 1, 99);
        assert_eq!(mem.read(a + 1), 99);
        assert_eq!(ctx.raw_mem().read(a + 1), 99);
    }

    #[test]
    fn phase_rows_sum_to_totals() {
        let (mem, cfg) = setup();
        let a = mem.alloc(64);
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg, 0, &mut stats);
        let prev = ctx.set_phase(Phase::VerticalTraversal);
        assert_eq!(prev, Phase::Other);
        let mut buf = [0u64; 16];
        ctx.read_block(a, &mut buf);
        ctx.control(12);
        let prev = ctx.set_phase(Phase::LeafOp);
        assert_eq!(prev, Phase::VerticalTraversal);
        ctx.write(a + 3, 7);
        ctx.version_conflict();
        ctx.set_phase(Phase::LockAcquire);
        ctx.atomic_or(a + 8, 1);
        ctx.lock_conflict();
        ctx.charge_cycles(30);
        ctx.set_phase(Phase::StmCommit);
        ctx.stm_abort();
        ctx.charge_alloc();
        ctx.set_phase(Phase::Other);
        ctx.charge_request_io();

        let sums = ctx.stats.phase_sums();
        assert_eq!(sums.mem_insts, ctx.stats.mem_insts);
        assert_eq!(sums.mem_words, ctx.stats.mem_words);
        assert_eq!(sums.mem_transactions, ctx.stats.mem_transactions);
        assert_eq!(sums.control_insts, ctx.stats.control_insts);
        assert_eq!(sums.atomic_insts, ctx.stats.atomic_insts);
        assert_eq!(sums.cycles, ctx.stats.cycles);
        assert_eq!(sums.lock_conflicts, ctx.stats.lock_conflicts);
        assert_eq!(sums.stm_aborts, ctx.stats.stm_aborts);
        assert_eq!(sums.version_conflicts, ctx.stats.version_conflicts);
        // And the work landed in the phases that issued it.
        assert_eq!(
            ctx.stats.phases.row(Phase::VerticalTraversal).control_insts,
            12
        );
        assert_eq!(ctx.stats.phases.row(Phase::LeafOp).version_conflicts, 1);
        assert_eq!(ctx.stats.phases.row(Phase::LockAcquire).lock_conflicts, 1);
        assert_eq!(ctx.stats.phases.row(Phase::StmCommit).stm_aborts, 1);
        assert_eq!(ctx.stats.phases.row(Phase::StmCommit).atomic_insts, 1);
    }

    #[test]
    fn events_are_recorded_only_when_tracing() {
        let (mem, _) = setup();
        let cfg_off = DeviceConfig::default();
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg_off, 0, &mut stats);
        ctx.lock_conflict();
        assert!(ctx.stats.events.is_empty());

        let cfg_on = DeviceConfig {
            trace: true,
            ..DeviceConfig::default()
        };
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(&mem, &cfg_on, 3, &mut stats);
        ctx.charge_cycles(100);
        ctx.lock_conflict();
        ctx.emit(TraceEventKind::CombineHit, 5);
        assert_eq!(ctx.stats.events.len(), 2);
        assert_eq!(ctx.stats.events[0].kind, TraceEventKind::LockConflict);
        assert_eq!(ctx.stats.events[0].warp, 3);
        assert_eq!(ctx.stats.events[0].cycle, 100);
        assert_eq!(ctx.stats.events[1].arg, 5);
    }
}
