//! Final reports returned by [`Service::shutdown`](crate::Service::shutdown).

use crate::observe::CloseCounts;
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
    /// Per-tenant shed counts; sums to `shed`. Length is the service's
    /// tenant count (1 when QoS lanes are disabled).
    pub tenant_shed: Vec<u64>,
    /// Per-tenant end-to-end latency histograms; counts sum to
    /// `executed`. Same length as `tenant_shed`.
    pub tenant_latency: Vec<CycleHistogram>,
    /// End-to-end latency per executed entry (cycles): its arrival
    /// (admission, or the `submit_at` time) to the end of its epoch, both
    /// on the shard's virtual clock.
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
    /// first (empty without an observer).
    pub spans: Vec<LifecycleSpan>,
    /// Spans evicted to respect the ring's capacity bound.
    pub spans_dropped: u64,
    /// Whether span recording ran (an observer was registered); gates the
    /// span invariants in [`ServeReport::check`].
    pub spans_enabled: bool,
}

impl ShardReport {
    /// The first of this shard's invariants that does not hold (see
    /// [`ServeReport::check`]).
    pub(crate) fn check(&self) -> Result<(), String> {
        let fail = |why: String| Err(format!("shard {}: {why}", self.shard));
        let (t, rows) = (&self.stats.totals, self.stats.totals.phase_sums());
        let tenant_executed = self.tenant_latency.iter().map(CycleHistogram::count);
        let pairs = [
            (
                "admitted entries must execute or time out",
                self.enqueued,
                self.executed + self.timed_out,
            ),
            (
                "one latency sample per executed entry",
                self.latency.count(),
                self.executed,
            ),
            (
                "every epoch closes for exactly one cause",
                self.closed.total(),
                self.epochs,
            ),
            (
                "successive epochs must be timestamp-ordered",
                self.epoch_order_violations,
                0,
            ),
            (
                "per-tenant shed counts must sum to shed",
                self.tenant_shed.iter().sum(),
                self.shed,
            ),
            (
                "tenant vectors must agree on the tenant count",
                self.tenant_shed.len() as u64,
                self.tenant_latency.len() as u64,
            ),
            (
                "per-tenant latency counts must sum to executed",
                tenant_executed.sum(),
                self.executed,
            ),
            (
                "key_count must match the final contents",
                self.key_count,
                self.contents.len() as u64,
            ),
        ];
        for (invariant, got, want) in pairs {
            if got != want {
                return fail(format!("{invariant} ({got} != {want})"));
            }
        }
        let totals = PhaseStats {
            mem_insts: t.mem_insts,
            mem_words: t.mem_words,
            mem_transactions: t.mem_transactions,
            control_insts: t.control_insts,
            atomic_insts: t.atomic_insts,
            lock_conflicts: t.lock_conflicts,
            stm_aborts: t.stm_aborts,
            version_conflicts: t.version_conflicts,
            cycles: t.cycles,
        };
        if rows != totals {
            return fail(format!(
                "phase rows must sum to totals ({rows:?} != {totals:?})"
            ));
        }
        if self.clock_cycles < self.busy_cycles {
            return fail(format!(
                "virtual clock ran backwards ({} cycles, {} busy)",
                self.clock_cycles, self.busy_cycles
            ));
        }
        if self.spans_enabled {
            let spans = self.spans.len() as u64 + self.spans_dropped;
            if spans != self.executed {
                return fail(format!(
                    "one lifecycle span per executed entry ({spans} != {})",
                    self.executed
                ));
            }
            if let Some(span) = self.spans.iter().find(|sp| !sp.is_monotone()) {
                return fail(format!(
                    "span {} stamps regress: arrival {}, start {}, end {}",
                    span.id, span.arrival, span.start, span.end
                ));
            }
            // With no evictions the retained spans cover every executed
            // entry, so their `end - arrival` sums to the latency
            // histogram's exact sum.
            let span_sum: u64 = self.spans.iter().map(|sp| sp.total_cycles()).sum();
            if self.spans_dropped == 0 && span_sum != self.latency.sum() {
                return fail(format!(
                    "span latencies must sum to the histogram's ({span_sum} != {})",
                    self.latency.sum()
                ));
            }
        }
        match &self.structure {
            Err(e) => fail(format!("structure validation failed: {e}")),
            Ok(()) => Ok(()),
        }
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
    /// [`spans_to_jsonl`](eirene_telemetry::spans_to_jsonl).
    pub fn spans(&self) -> Vec<LifecycleSpan> {
        self.shards
            .iter()
            .flat_map(|s| s.spans.iter().copied())
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

    /// The first broken invariant of the report, if any. For every
    /// shard: admitted entries executed or timed out; one latency sample,
    /// and one sample per tenant, per executed entry; every epoch closed
    /// for one cause and in timestamp order; the telemetry phase rows sum
    /// to the totals; the virtual clock covers the busy cycles; tenant shed
    /// counts sum to the shed; `key_count` matches the contents; with spans
    /// recorded, one span per executed entry with `arrival <= start <= end`
    /// and, with none evicted, whose `end - arrival` sums to the latency
    /// histogram's; and the tree validated.
    pub fn check(&self) -> Result<(), String> {
        self.shards.iter().try_for_each(ShardReport::check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{ObserveConfig, SeriesCollector};
    use crate::service::{ServeConfig, Service};
    use crate::shard::ShardMap;
    use eirene_workloads::OpKind;

    /// The report of a small observed service: two shards, spans on.
    fn clean() -> ServeReport {
        let pairs: Vec<(u64, u64)> = (0..64u64).map(|k| (k, k + 1)).collect();
        let cfg = ServeConfig {
            map: ShardMap::from_starts(vec![0, 32]).expect("valid shard starts"),
            observe: ObserveConfig::with_observer(SeriesCollector::new()),
            ..ServeConfig::test_small(2)
        };
        let svc = Service::new(&pairs, cfg);
        let ops: Vec<_> = (0..48u32)
            .map(|k| {
                (
                    k,
                    if k % 3 == 0 {
                        OpKind::Upsert(7)
                    } else {
                        OpKind::Query
                    },
                )
            })
            .collect();
        for ticket in svc.client().submit_many(&ops) {
            ticket.wait();
        }
        svc.shutdown()
    }

    #[test]
    fn check_names_the_invariant_each_row_breaks() {
        let report = clean();
        report.check().unwrap();
        assert!(!report.shards[0].spans.is_empty());
        type Row = (&'static str, fn(&mut ShardReport));
        let table: [Row; 15] = [
            ("admitted entries must execute or time out", |s| {
                s.enqueued += 1
            }),
            ("one latency sample per executed entry", |s| {
                s.latency.record(5)
            }),
            ("every epoch closes for exactly one cause", |s| {
                s.closed.linger += 1
            }),
            ("successive epochs must be timestamp-ordered", |s| {
                s.epoch_order_violations = 1
            }),
            ("phase rows must sum to totals", |s| {
                s.stats.totals.cycles += 1
            }),
            ("virtual clock ran backwards", |s| {
                s.busy_cycles = s.clock_cycles + 1
            }),
            ("per-tenant shed counts must sum to shed", |s| {
                s.tenant_shed[0] += 1
            }),
            ("tenant vectors must agree on the tenant count", |s| {
                s.tenant_shed.push(0)
            }),
            ("per-tenant latency counts must sum to executed", |s| {
                s.tenant_latency[0].record(5)
            }),
            ("key_count must match the final contents", |s| {
                s.key_count += 1
            }),
            ("one lifecycle span per executed entry", |s| {
                s.spans.truncate(1)
            }),
            // start < arrival, then end < start.
            ("stamps regress", |s| {
                s.spans[0].arrival = s.spans[0].start + 1
            }),
            ("stamps regress", |s| s.spans[0].start = s.spans[0].end + 1),
            ("span latencies must sum to the histogram", |s| {
                s.spans[0].end += 1
            }),
            ("structure validation failed", |s| {
                s.structure = Err("broken".into())
            }),
        ];
        for (invariant, break_it) in table {
            let mut broken = report.clone();
            break_it(&mut broken.shards[0]);
            let err = broken.check().unwrap_err();
            assert!(
                err.starts_with("shard 0: ") && err.contains(invariant),
                "{invariant}: {err}"
            );
        }
    }
}
