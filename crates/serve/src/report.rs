//! Final reports returned by [`Service::shutdown`](crate::Service::shutdown).

use crate::observe::{CloseCounts, SloBreach};
use crate::rebalance::RebalanceEvent;
use crate::shard::ShardId;
use eirene_sim::{CycleHistogram, DeviceConfig, KernelStats, PhaseStats, ScheduleLog};
use eirene_telemetry::LifecycleSpan;

/// Everything one shard's pipeline observed over the service's lifetime.
#[derive(Clone, Debug)]
pub struct ShardReport {
    pub shard: ShardId,
    /// Merged execution statistics of every epoch on this shard's device,
    /// plus the serving-layer `ingress` and `queue_wait` accounting rows.
    pub stats: KernelStats,
    /// Epochs executed.
    pub epochs: u64,
    /// Those epochs by the reason their combiner closed them; sums to
    /// `epochs` and matches the terminal sample's `closed`.
    pub closed: CloseCounts,
    /// Entries admitted to the ingress queue (split-range parts count
    /// individually).
    pub enqueued: u64,
    /// Entries that executed in some epoch.
    pub executed: u64,
    /// Epochs whose first timestamp did not exceed the previous epoch's
    /// last: the order the combiner's reorder stage exists to keep, and
    /// what the service's linearizability rests on. Always 0.
    pub epoch_order_violations: u64,
    /// Requests shed because this shard's queue was full.
    pub shed: u64,
    /// Entries whose deadline expired before their epoch formed.
    pub timed_out: u64,
    /// High-water mark of the ingress-queue depth.
    pub max_queue_depth: u64,
    /// The batch controller's final target (constant under
    /// [`EpochSizing::Fixed`](crate::EpochSizing::Fixed)).
    pub batch_target: u64,
    /// Per-tenant shed counts; sums to `shed`. Length is the service's
    /// tenant count (1 when QoS lanes are disabled).
    pub tenant_shed: Vec<u64>,
    /// Per-tenant end-to-end latency histograms; counts sum to
    /// `executed`. Same length as `tenant_shed`.
    pub tenant_latency: Vec<CycleHistogram>,
    /// End-to-end latency per executed entry (cycles): admission (or
    /// virtual arrival) to end of its epoch on the shard's virtual clock.
    pub latency: CycleHistogram,
    /// Cycles the shard's device spent executing epochs.
    pub busy_cycles: u64,
    /// The shard's virtual clock at shutdown (end of its last epoch).
    pub clock_cycles: u64,
    /// Captured warp schedule (replayable in deterministic mode).
    pub schedule: ScheduleLog,
    /// Final `(key, value)` contents of the shard's tree, sentinel
    /// filtered.
    pub contents: Vec<(u64, u64)>,
    /// Keys owned by the shard's tree at shutdown (always
    /// `contents.len()`); matches the terminal sample's `key_count`
    /// gauge.
    pub key_count: u64,
    /// Live node blocks in the shard device's slab arena at shutdown;
    /// matches the terminal sample's `arena_live` gauge.
    pub arena_live: u64,
    /// Node blocks still quarantined in the slab arena at shutdown (the
    /// final epoch advance has already run, so this is normally 0);
    /// matches the terminal sample's `arena_retired` gauge.
    pub arena_retired: u64,
    /// Result of `btree::validate` on the final tree structure.
    pub structure: Result<(), String>,
    /// Lifecycle spans retained by this shard's bounded ring, oldest
    /// first (empty when observability was off).
    pub spans: Vec<LifecycleSpan>,
    /// Spans evicted to respect the ring's capacity bound.
    pub spans_dropped: u64,
    /// Whether span recording ran; gates the span invariants in
    /// [`ServeReport::assert_consistent`].
    pub spans_enabled: bool,
    /// SLO breach events this shard emitted, in sample order.
    pub breaches: Vec<SloBreach>,
}

impl ShardReport {
    /// Whether this shard's per-phase telemetry rows sum exactly to its
    /// counter totals (the invariant the device guarantees, extended here
    /// to the serving-layer rows).
    pub fn phase_rows_sum_to_totals(&self) -> bool {
        let sums: PhaseStats = self.stats.totals.phase_sums();
        let t = &self.stats.totals;
        sums.mem_insts == t.mem_insts
            && sums.mem_words == t.mem_words
            && sums.mem_transactions == t.mem_transactions
            && sums.control_insts == t.control_insts
            && sums.atomic_insts == t.atomic_insts
            && sums.lock_conflicts == t.lock_conflicts
            && sums.stm_aborts == t.stm_aborts
            && sums.version_conflicts == t.version_conflicts
            && sums.cycles == t.cycles
    }
}

/// The whole service's final report: one [`ShardReport`] per shard plus
/// aggregate views.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// The base device configuration the service was built with (cycle ↔
    /// wall-time conversion).
    pub device: DeviceConfig,
    /// Topology changes the online rebalancer published, in sequence
    /// order (empty unless [`ServeConfig::rebalance`](crate::ServeConfig)
    /// was set).
    pub rebalances: Vec<RebalanceEvent>,
}

impl ServeReport {
    pub fn executed(&self) -> u64 {
        self.shards.iter().map(|s| s.executed).sum()
    }

    pub fn enqueued(&self) -> u64 {
        self.shards.iter().map(|s| s.enqueued).sum()
    }

    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    pub fn timed_out(&self) -> u64 {
        self.shards.iter().map(|s| s.timed_out).sum()
    }

    /// Service makespan in cycles: shards run concurrently, so it is the
    /// latest virtual clock across shards.
    pub fn makespan_cycles(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.clock_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate throughput in executed entries per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.device.cycles_to_secs(self.makespan_cycles() as f64);
        if secs == 0.0 {
            0.0
        } else {
            self.executed() as f64 / secs
        }
    }

    /// Every retained lifecycle span, across shards (each span's `track`
    /// field still names its shard). Ready for
    /// [`chrome_trace_with_spans`](eirene_telemetry::chrome_trace_with_spans)
    /// or [`spans_to_jsonl`](eirene_telemetry::spans_to_jsonl).
    pub fn spans(&self) -> Vec<LifecycleSpan> {
        self.shards
            .iter()
            .flat_map(|s| s.spans.iter().copied())
            .collect()
    }

    /// Every SLO breach, across shards.
    pub fn breaches(&self) -> Vec<SloBreach> {
        self.shards
            .iter()
            .flat_map(|s| s.breaches.iter().cloned())
            .collect()
    }

    /// End-to-end latency histogram merged across shards.
    pub fn latency(&self) -> CycleHistogram {
        let mut merged = CycleHistogram::new();
        for shard in &self.shards {
            merged.merge(&shard.latency);
        }
        merged
    }

    /// Number of tenant slots in the per-tenant vectors (1 when QoS
    /// lanes were disabled).
    pub fn num_tenants(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.tenant_shed.len())
            .max()
            .unwrap_or(1)
    }

    /// One tenant's end-to-end latency histogram merged across shards.
    pub fn tenant_latency(&self, tenant: usize) -> CycleHistogram {
        let mut merged = CycleHistogram::new();
        for shard in &self.shards {
            if let Some(h) = shard.tenant_latency.get(tenant) {
                merged.merge(h);
            }
        }
        merged
    }

    /// One tenant's shed total across shards.
    pub fn tenant_shed(&self, tenant: usize) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.tenant_shed.get(tenant))
            .sum()
    }

    /// Whether every shard's telemetry rows sum exactly to its totals.
    pub fn phase_rows_sum_to_totals(&self) -> bool {
        self.shards.iter().all(|s| s.phase_rows_sum_to_totals())
    }

    /// Final contents of the whole service, merged across shards in key
    /// order.
    pub fn contents(&self) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|s| s.contents.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// First shard structure-validation failure, if any.
    pub fn structure(&self) -> Result<(), String> {
        for shard in &self.shards {
            if let Err(e) = &shard.structure {
                return Err(format!("shard {}: {e}", shard.shard));
            }
        }
        Ok(())
    }

    /// Panics unless the report's internal accounting is consistent:
    /// admission counters balance, every executed entry has a latency
    /// sample, telemetry rows sum to totals, and every shard tree
    /// validated.
    pub fn assert_consistent(&self) {
        for s in &self.shards {
            assert_eq!(
                s.enqueued,
                s.executed + s.timed_out,
                "shard {}: admitted entries must execute or time out",
                s.shard
            );
            assert_eq!(
                s.latency.count(),
                s.executed,
                "shard {}: one latency sample per executed entry",
                s.shard
            );
            assert_eq!(
                s.closed.total(),
                s.epochs,
                "shard {}: every epoch closes for exactly one cause",
                s.shard
            );
            assert_eq!(
                s.epoch_order_violations, 0,
                "shard {}: successive epochs must be timestamp-ordered",
                s.shard
            );
            assert!(
                s.phase_rows_sum_to_totals(),
                "shard {}: phase rows do not sum to totals",
                s.shard
            );
            assert!(
                s.clock_cycles >= s.busy_cycles,
                "shard {}: virtual clock ran backwards",
                s.shard
            );
            assert_eq!(
                s.tenant_shed.iter().sum::<u64>(),
                s.shed,
                "shard {}: per-tenant shed counts must sum to shed",
                s.shard
            );
            assert_eq!(
                s.tenant_shed.len(),
                s.tenant_latency.len(),
                "shard {}: tenant vectors disagree on tenant count",
                s.shard
            );
            assert_eq!(
                s.tenant_latency.iter().map(|h| h.count()).sum::<u64>(),
                s.executed,
                "shard {}: per-tenant latency counts must sum to executed",
                s.shard
            );
            assert_eq!(
                s.key_count,
                s.contents.len() as u64,
                "shard {}: key_count gauge disagrees with the final contents",
                s.shard
            );
            if s.spans_enabled {
                assert_eq!(
                    s.spans.len() as u64 + s.spans_dropped,
                    s.executed,
                    "shard {}: one lifecycle span per executed entry",
                    s.shard
                );
                for span in &s.spans {
                    assert!(
                        span.is_monotone(),
                        "shard {}: span {} stamps regress",
                        s.shard,
                        span.id
                    );
                    assert_eq!(
                        span.phase_deltas().iter().sum::<u64>(),
                        span.total_cycles(),
                        "shard {}: span {} phase deltas do not telescope",
                        s.shard,
                        span.id
                    );
                }
                if s.spans_dropped == 0 {
                    // With no evictions the retained spans cover every
                    // executed entry, so their end-to-end cycles must sum
                    // to the latency histogram's exact sum.
                    let span_sum: u64 = s.spans.iter().map(|sp| sp.total_cycles()).sum();
                    assert_eq!(
                        span_sum,
                        s.latency.sum(),
                        "shard {}: span latencies disagree with the histogram",
                        s.shard
                    );
                }
            }
        }
        if let Err(e) = self.structure() {
            panic!("structure validation failed: {e}");
        }
    }
}
