//! Device configuration: geometry and latency model.

use crate::sched::SchedMode;

/// SplitMix64 step: derives the per-shard scheduler seeds (the same
/// generator the fuzz harness uses for per-case seeds).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Geometry and cost model of the simulated device.
///
/// Defaults approximate an NVIDIA A100 (108 SMs, 32-lane warps, 1.41 GHz).
/// Latencies are *effective* per-instruction costs after pipelining — they
/// set the relative weight of memory traffic vs. control flow vs. atomics
/// in the makespan, which is what determines the shape of the throughput
/// and QoS figures.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Lanes per warp (fixed at 32 on all NVIDIA hardware).
    pub warp_size: usize,
    /// Warps that make concurrent progress on one SM (occupancy). The
    /// makespan of an SM is its total warp cycles divided by this.
    pub warps_per_sm: usize,
    /// Effective cycles charged per coalesced global-memory transaction.
    pub mem_latency: u64,
    /// Effective cycles per atomic operation (CAS / fetch-add).
    pub atomic_latency: u64,
    /// Cycles per control-flow instruction.
    pub control_latency: u64,
    /// Fixed kernel-launch overhead in cycles.
    pub launch_overhead: u64,
    /// Core clock in GHz, used only to convert cycles to wall time for
    /// throughput reporting.
    pub clock_ghz: f64,
    /// Bytes per coalesced memory transaction (128 on NVIDIA hardware).
    pub transaction_bytes: usize,
    /// Host threads that execute warps concurrently. `0` = auto
    /// (`max(8, 2 × cores)`). Oversubscription is deliberate: it fixes how
    /// many warps — and so how many open transactions and held latches —
    /// are in flight at once, which is what creates lock/STM conflicts even
    /// on hosts with few cores. `yield_interval` then decides how finely
    /// those warps alternate.
    pub worker_threads: usize,
    /// The *finest* interleaving granularity: a warp reports a tick to the
    /// launch's scheduler after this many instrumented device operations
    /// (0 disables ticks, and with them every yield). The deterministic
    /// scheduler hands the token over on every tick. The OS scheduler
    /// ([`OsScheduler`](crate::OsScheduler)) spends a `sched_yield` on a
    /// tick only where it can change an outcome: never in a launch declared
    /// read-only, on every 4th tick of a warp while a read-write launch is
    /// *cool* (no conflict seen lately), and on every tick while it is
    /// *hot* — the 16 ticks after a warp reports a lock conflict, STM abort
    /// or version conflict — when a waiter's spin cost depends on the
    /// holder running again at memory-access granularity.
    pub yield_interval: u32,
    /// Record per-warp [`TraceEvent`](eirene_telemetry::TraceEvent)s
    /// (lock conflicts, STM aborts, version invalidations, node splits,
    /// combine hits) for chrome://tracing export. Off by default: tracing
    /// allocates per-event and is meant for timeline inspection, not
    /// steady-state benchmarking.
    pub trace: bool,
    /// Warp scheduling mode. `Os` (default) runs warps in parallel on OS
    /// threads; `Deterministic { seed }` serializes warps under a seeded
    /// cooperative scheduler so a `(seed, kernel)` pair replays the same
    /// interleaving bit-for-bit, with schedule capture for replay.
    pub sched: SchedMode,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            num_sms: 108,
            warp_size: 32,
            warps_per_sm: 8,
            mem_latency: 20,
            atomic_latency: 40,
            control_latency: 1,
            launch_overhead: 2_000,
            clock_ghz: 1.41,
            transaction_bytes: 128,
            worker_threads: 0,
            yield_interval: 24,
            trace: false,
            sched: SchedMode::Os,
        }
    }
}

impl DeviceConfig {
    /// A small configuration for unit tests: fewer SMs keeps contention
    /// high and tests fast.
    pub fn test_small() -> Self {
        DeviceConfig {
            num_sms: 4,
            warps_per_sm: 2,
            ..Self::default()
        }
    }

    /// Returns a copy that launches kernels under the seeded deterministic
    /// scheduler (see [`SchedMode::Deterministic`]).
    pub fn with_deterministic_sched(mut self, seed: u64) -> Self {
        self.sched = SchedMode::Deterministic { seed };
        self
    }

    /// Shard `shard`'s device config in the sharded service, derived from
    /// this base. In OS mode every shard gets `worker_threads = 1`, whatever
    /// the base says: every launch runs on the shard thread that issued it
    /// and no shard device spawns a pool (the shards already supply the host
    /// parallelism, and a one-worker pool ran warps in warp-id order exactly
    /// as the launching thread does, so nothing simulated changes). In
    /// deterministic mode each shard gets its own scheduler seed, derived
    /// from the base seed and the shard index so one base seed still replays
    /// every shard, and `worker_threads` is kept: the slot bound shapes
    /// captured schedules (see [`det_workers`](Self::det_workers)).
    pub fn for_shard(&self, shard: usize) -> Self {
        let mut cfg = self.clone();
        match self.sched {
            SchedMode::Deterministic { seed } => {
                cfg.sched = SchedMode::Deterministic {
                    seed: mix64(seed ^ mix64(shard as u64)),
                };
            }
            SchedMode::Os => cfg.worker_threads = 1,
        }
        cfg
    }

    /// Words (u64) per coalesced transaction.
    pub fn transaction_words(&self) -> usize {
        self.transaction_bytes / std::mem::size_of::<u64>()
    }

    /// Number of coalesced transactions needed to touch `words` contiguous
    /// words starting at `addr` (segment-aligned, as real hardware counts).
    pub fn transactions_for(&self, addr: u64, words: usize) -> u64 {
        if words == 0 {
            return 0;
        }
        let tw = self.transaction_words() as u64;
        let first = addr / tw;
        let last = (addr + words as u64 - 1) / tw;
        last - first + 1
    }

    /// Converts cycles to seconds at the configured clock.
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Total warps resident across the device.
    pub fn resident_warps(&self) -> usize {
        self.num_sms * self.warps_per_sm
    }

    /// Cycles of one grid-wide barrier across `sms` SMs, in the
    /// contention-free gather/release shape of Stuart & Owens: each SM
    /// stores its arrival flag, one block gathers the `sms` 8-byte flags in
    /// coalesced transactions, checking each, then stores the release flag
    /// every SM polls — a chain of memory round trips, not `sms` atomics
    /// serialised on one counter.
    pub fn grid_barrier_cycles(&self, sms: usize) -> u64 {
        let gather = (sms * std::mem::size_of::<u64>()).div_ceil(self.transaction_bytes) as u64;
        (1 + gather + 1 + 1) * self.mem_latency + sms as u64 * self.control_latency
    }

    /// Resolved worker-thread count for kernel launches.
    ///
    /// Host-dependent by design (auto mode scales with the machine's
    /// cores), so it must never influence anything a deterministic launch
    /// captures — see [`det_workers`](Self::det_workers).
    pub fn effective_workers(&self) -> usize {
        if self.worker_threads != 0 {
            return self.worker_threads;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (2 * cores).max(8)
    }

    /// Worker-slot bound for deterministic-mode launches.
    ///
    /// Unlike [`effective_workers`](Self::effective_workers) this is a
    /// pure function of the configuration — never of the host: the slot
    /// limit shapes the captured schedule (an unstarted warp is only
    /// eligible for a grant while a slot is free), so a host-derived limit
    /// would replay one seed differently on different machines. An
    /// explicit `worker_threads` is honored; auto (`0`) resolves to
    /// [`Self::DET_WORKER_SLOTS`].
    pub fn det_workers(&self) -> usize {
        if self.worker_threads != 0 {
            return self.worker_threads;
        }
        Self::DET_WORKER_SLOTS
    }

    /// Deterministic-mode slot count in auto (`worker_threads == 0`) mode.
    /// Equals the floor of what auto [`effective_workers`](Self::effective_workers)
    /// can resolve to, so deterministic slots never outnumber the pool
    /// threads that must run them concurrently (fewer slot threads than
    /// the scheduler's limit would deadlock a granted-but-unpicked warp).
    pub const DET_WORKER_SLOTS: usize = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a100_like() {
        let c = DeviceConfig::default();
        assert_eq!(c.num_sms, 108);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.transaction_words(), 16);
    }

    #[test]
    fn transactions_respect_segment_alignment() {
        let c = DeviceConfig::default();
        // 16 words fit one aligned segment.
        assert_eq!(c.transactions_for(0, 16), 1);
        // Unaligned 16-word access straddles two segments.
        assert_eq!(c.transactions_for(8, 16), 2);
        // A single word is one transaction.
        assert_eq!(c.transactions_for(1234, 1), 1);
        // Zero words cost nothing.
        assert_eq!(c.transactions_for(0, 0), 0);
        // 36 words aligned: words 0..36 covers segments 0,1,2.
        assert_eq!(c.transactions_for(0, 36), 3);
    }

    #[test]
    fn det_workers_is_host_independent() {
        // Auto mode resolves to the fixed constant, never to anything
        // derived from available_parallelism: the det worker limit shapes
        // captured schedules, which must replay bit-for-bit across hosts.
        let auto = DeviceConfig::default();
        assert_eq!(auto.det_workers(), DeviceConfig::DET_WORKER_SLOTS);
        // An explicit pin is part of the shipped config, so it is honored
        // (and keeps the det limit equal to the pool size).
        let pinned = DeviceConfig {
            worker_threads: 5,
            ..DeviceConfig::default()
        };
        assert_eq!(pinned.det_workers(), 5);
        assert_eq!(pinned.effective_workers(), 5);
    }

    #[test]
    fn shard_configs_take_one_worker_in_os_mode_and_their_own_seed_in_det_mode() {
        let det = DeviceConfig::test_small().with_deterministic_sched(42);
        let os = |worker_threads| DeviceConfig {
            worker_threads,
            ..DeviceConfig::test_small()
        };
        // (base, shards, worker_threads of every shard config, distinct seeds)
        for (base, shards, workers, seeds) in [
            (os(0), 1024, 1, 0),
            (os(6), 4, 1, 0),
            (det.clone(), 4, 0, 4),
        ] {
            let configs: Vec<DeviceConfig> = (0..shards).map(|i| base.for_shard(i)).collect();
            assert!(configs.iter().all(|c| c.worker_threads == workers));
            // The derivation is a pure function of (base, shard).
            assert_eq!(
                configs,
                (0..shards).map(|i| base.for_shard(i)).collect::<Vec<_>>()
            );
            let mut derived: Vec<u64> = configs
                .iter()
                .filter_map(|c| match c.sched {
                    SchedMode::Deterministic { seed } => Some(seed),
                    SchedMode::Os => None,
                })
                .collect();
            derived.sort_unstable();
            derived.dedup();
            assert_eq!(derived.len(), seeds);
        }
        // Det mode keeps the host-independent slot bound.
        assert_eq!(
            det.for_shard(3).det_workers(),
            DeviceConfig::DET_WORKER_SLOTS
        );
    }

    #[test]
    fn cycles_to_secs_uses_clock() {
        let c = DeviceConfig {
            clock_ghz: 1.0,
            ..Default::default()
        };
        assert!((c.cycles_to_secs(1e9) - 1.0).abs() < 1e-12);
    }
}
