//! The executor's books: what a shard's executor keeps across epochs
//! apart from its tree. They book each executed epoch, take the shard's
//! samples and write its [`ShardReport`]; they read no clock, take no lock
//! and touch no channel. The executor thread in `service.rs` runs the
//! tree, resolves the tickets and carries out the rest.

use crate::control::EpochFeedback;
use crate::observe::{
    CloseCause, LatencySummary, ObserveConfig, ShardMetrics, ShardSample, SloBreach, SloMonitor,
};
use crate::queue::Segment;
use crate::report::ShardReport;
use crate::shard::ShardId;
use eirene_core::plan::CombinePlan;
use eirene_sim::{CycleHistogram, KernelStats, Phase, ScheduleLog};
use eirene_telemetry::{LifecycleSpan, SpanRing};
use eirene_workloads::Batch;

/// Host control-flow instructions charged per admitted request for the
/// `ingress` telemetry phase (route lookup, timestamp fetch, queue push).
const INGRESS_CONTROL_PER_REQUEST: u64 = 8;

/// One planned epoch in flight from a shard's combiner to its executor.
pub(crate) struct Epoch {
    pub(crate) batch: Batch,
    pub(crate) plan: CombinePlan,
    /// The epoch's requests by segment: concatenated, they are
    /// `batch.requests`. Each segment is one submission call's (or a piece
    /// of one), so their count is what `ExecutorState::released` is set
    /// from.
    pub(crate) segments: Vec<Segment>,
    /// Why the combiner stopped gathering.
    pub(crate) close: CloseCause,
    /// Ingress-queue depth left behind after forming this epoch: always
    /// read, since the adaptive controller feeds on it too.
    pub(crate) queue_depth: u64,
    /// Requests still parked in the reorder heap (admitted but above the
    /// watermark or beyond the batch target).
    pub(crate) reorder_pending: u64,
    /// Requests still staged on tenant lanes (0 without QoS).
    pub(crate) lane_depth: u64,
    /// `next_ts - watermark` and the occupied in-flight slots at hand-over:
    /// how far submissions in flight held the watermark back. They cost
    /// SeqCst scans, so they are read only when observing (0 otherwise).
    pub(crate) watermark_lag: u64,
    pub(crate) inflight: u64,
}

/// One shard's books (module docs).
#[derive(Default)]
pub(crate) struct Books {
    shard: ShardId,
    /// Observability is on (spans, samples, SLOs); sizing is adaptive.
    observe: bool,
    adaptive: bool,
    control_latency: u64,
    /// The shard's virtual clock: the end of its last epoch.
    clock: u64,
    busy_cycles: u64,
    epochs: u64,
    executed: u64,
    /// The device's counters over every booked epoch.
    pub(crate) stats: KernelStats,
    /// The serving layer's own rows — ingress control instructions and
    /// queue-wait cycles — summed here and booked into `stats` once, by
    /// [`finish`](Self::finish).
    ingress_control: u64,
    queue_wait: u64,
    latency: CycleHistogram,
    tenant_latency: Vec<CycleHistogram>,
    /// The last epoch's latency histogram, for its sample.
    epoch_latency: Option<CycleHistogram>,
    spans: Option<SpanRing>,
    slo: Option<SloMonitor>,
    breaches: Vec<SloBreach>,
    /// The last timestamp of the previous epoch, and how often the next
    /// one did not start above it.
    last_ts: Option<u64>,
    pub(crate) epoch_order_violations: u64,
}

impl Books {
    pub(crate) fn new(
        shard: ShardId,
        tenants: usize,
        control_latency: u64,
        observe: &ObserveConfig,
        adaptive: bool,
    ) -> Self {
        Books {
            shard,
            observe: observe.enabled,
            adaptive,
            control_latency,
            tenant_latency: vec![CycleHistogram::new(); tenants],
            spans: observe
                .enabled
                .then(|| SpanRing::new(observe.span_capacity)),
            slo: observe.slo.filter(|_| observe.enabled).map(SloMonitor::new),
            ..Books::default()
        }
    }

    /// Books one executed epoch: its order, its place on the virtual clock,
    /// its latencies, spans and device counters. Returns what the adaptive
    /// controller sizes the next epoch from (`None` under fixed sizing).
    pub(crate) fn record(&mut self, epoch: &Epoch, run: KernelStats) -> Option<EpochFeedback> {
        // What the reorder stage exists for: successive epochs are mutually
        // ordered (within an epoch the combiner asserts it).
        let requests = &epoch.batch.requests;
        self.epoch_order_violations += u64::from(self.last_ts >= requests.first().map(|r| r.ts));
        self.last_ts = requests.last().map(|r| r.ts);
        // Virtual-clock model: an epoch cannot start before the shard is
        // free *and* its last member has arrived.
        let arrivals = epoch.segments.iter().flat_map(|s| &s.arrivals);
        let arrived = arrivals.copied().max().unwrap_or(0);
        let start = self.clock.max(arrived);
        let makespan = run.makespan_cycles.ceil() as u64;
        let end = start + makespan;
        // The per-epoch histogram also feeds the adaptive controller's
        // p99 signal, so it is computed whenever either consumer needs it.
        let mut epoch_latency = (self.observe || self.adaptive).then(CycleHistogram::new);
        for seg in &epoch.segments {
            for (req, &arrival) in seg.reqs.iter().zip(&seg.arrivals) {
                self.queue_wait += start - arrival;
                let lat = end - arrival;
                self.latency.record(lat);
                self.tenant_latency[seg.tenant].record(lat);
                if let Some(h) = epoch_latency.as_mut() {
                    h.record(lat);
                }
                if let Some(ring) = self.spans.as_mut() {
                    // Stamps on the shard's virtual clock: admission is
                    // host work with zero virtual duration (submit ==
                    // enqueue at arrival), reorder-release/combine/execute
                    // coincide at epoch start, complete at epoch end.
                    // Monotone, and the deltas telescope to the reported
                    // latency.
                    ring.push(LifecycleSpan {
                        id: req.ts,
                        track: self.shard as u32,
                        epoch: self.epochs + 1,
                        stamps: [arrival, arrival, start, start, start, end],
                    });
                }
            }
        }
        let n = epoch.batch.len() as u64;
        self.stats.absorb(run);
        self.ingress_control += INGRESS_CONTROL_PER_REQUEST * n;
        self.clock = end;
        self.busy_cycles += makespan;
        self.epochs += 1;
        self.executed += n;
        // Close the loop: this epoch's realized batch, the backlog left
        // behind it (ingress + reorder + staged lanes), and its p99 set the
        // next epoch's target.
        let feedback = self.adaptive.then(|| EpochFeedback {
            batch: n,
            queue_depth: epoch.queue_depth + epoch.lane_depth,
            reorder_pending: epoch.reorder_pending,
            epoch_p99: epoch_latency.as_ref().map_or(0, |h| h.p99()),
        });
        self.epoch_latency = epoch_latency;
        feedback
    }

    /// A [`ShardSample`] of the epoch booked last — or, `terminal`, of the
    /// whole run — and the SLO breaches it tripped.
    pub(crate) fn sample(
        &mut self,
        m: &ShardMetrics,
        terminal: bool,
    ) -> (ShardSample, &[SloBreach]) {
        let epoch_latency = self.epoch_latency.take().filter(|_| !terminal);
        let epoch_latency = epoch_latency.unwrap_or_default();
        let sample = ShardSample {
            shard: self.shard,
            epoch: self.epochs + u64::from(terminal),
            terminal,
            clock_cycles: self.clock,
            batch_size: epoch_latency.count(),
            queue_depth: m.get(m.queue_depth),
            reorder_pending: m.get(m.reorder_pending),
            watermark_lag: m.get(m.watermark_lag),
            inflight: m.get(m.inflight),
            enqueued: m.get(m.enqueued),
            shed: m.get(m.shed),
            timed_out: m.get(m.timed_out),
            completed: m.get(m.completed),
            max_queue_depth: m.get(m.max_depth),
            closed: m.closed(),
            batch_target: m.get(m.batch_target),
            lane_pending: m.get(m.lane_pending),
            key_count: m.get(m.key_count),
            arena_live: m.get(m.arena_live),
            arena_retired: m.get(m.arena_retired),
            descents_saved: m.get(m.descents_saved),
            pivot_cache_hits: m.get(m.pivot_cache_hits),
            tenant_shed: m.tenant_shed.iter().map(|&id| m.get(id)).collect(),
            latency: LatencySummary::from_hist(&self.latency),
            epoch_latency,
        };
        let seen = self.breaches.len();
        if let Some(monitor) = self.slo.as_mut() {
            self.breaches.extend(monitor.observe(&sample));
        }
        (sample, &self.breaches[seen..])
    }

    /// The shard's report, from the books, the terminal sample and what
    /// the tree ends with.
    pub(crate) fn finish(
        mut self,
        terminal: ShardSample,
        batch_target: u64,
        schedule: ScheduleLog,
        contents: Vec<(u64, u64)>,
        structure: Result<(), String>,
    ) -> ShardReport {
        // Host-side rows with zero makespan (host work overlaps device
        // execution; charging it to the makespan would double-count the
        // pipeline). Totals and the phase rows move together, so the rows
        // still sum to the totals.
        let ingress_cycles = self.ingress_control * self.control_latency;
        let t = &mut self.stats.totals;
        t.control_insts += self.ingress_control;
        t.cycles += ingress_cycles + self.queue_wait;
        let ingress = t.phases.row_mut(Phase::Ingress);
        ingress.control_insts += self.ingress_control;
        ingress.cycles += ingress_cycles;
        t.phases.row_mut(Phase::QueueWait).cycles += self.queue_wait;
        let spans_dropped = self.spans.as_ref().map_or(0, SpanRing::dropped);
        let spans = self.spans.map_or_else(Vec::new, SpanRing::into_vec);
        ShardReport {
            shard: self.shard,
            stats: self.stats,
            epochs: self.epochs,
            closed: terminal.closed,
            enqueued: terminal.enqueued,
            executed: self.executed,
            epoch_order_violations: self.epoch_order_violations,
            shed: terminal.shed,
            timed_out: terminal.timed_out,
            max_queue_depth: terminal.max_queue_depth,
            batch_target,
            tenant_shed: terminal.tenant_shed,
            tenant_latency: self.tenant_latency,
            latency: self.latency,
            busy_cycles: self.busy_cycles,
            clock_cycles: self.clock,
            schedule,
            key_count: contents.len() as u64,
            arena_live: terminal.arena_live,
            arena_retired: terminal.arena_retired,
            descents_saved: terminal.descents_saved,
            pivot_cache_hits: terminal.pivot_cache_hits,
            contents,
            structure,
            spans,
            spans_dropped,
            spans_enabled: self.observe,
            breaches: self.breaches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ServeReport;
    use crate::ticket::{Slot, TicketBatch};
    use eirene_core::plan::build_plan;
    use eirene_sim::DeviceConfig;
    use eirene_workloads::Request;

    /// An epoch of one segment of point queries at these timestamps, each
    /// arriving at `arrival` cycles.
    fn epoch(ts: &[u64], arrival: u64) -> Epoch {
        let mut seg = Segment::new(TicketBatch::new(ts.len()), None, 0, ts.len());
        for (i, &t) in (0u32..).zip(ts) {
            seg.push(Request::query(1, t), Slot::Cell(i), arrival);
        }
        let batch = Batch::new(seg.reqs.clone());
        let plan = build_plan(&batch, &DeviceConfig::test_small());
        Epoch {
            batch,
            plan,
            segments: vec![seg],
            close: CloseCause::Full,
            queue_depth: 0,
            reorder_pending: 0,
            lane_depth: 0,
            watermark_lag: 0,
            inflight: 0,
        }
    }

    /// The books' report over `epochs` of 100 cycles each, with a registry
    /// that balances.
    fn report(books: &mut Books, epochs: &[Epoch]) -> ShardReport {
        let m = ShardMetrics::new(1);
        for epoch in epochs {
            let run = KernelStats {
                makespan_cycles: 100.0,
                ..KernelStats::default()
            };
            books.record(epoch, run);
            m.record_epoch(epoch.close);
            m.add(m.enqueued, epoch.batch.len() as u64);
            m.add(m.completed, epoch.batch.len() as u64);
        }
        let (terminal, _) = books.sample(&m, true);
        std::mem::take(books).finish(terminal, 8, ScheduleLog::default(), Vec::new(), Ok(()))
    }

    #[test]
    #[should_panic(expected = "successive epochs must be timestamp-ordered")]
    fn books_count_an_epoch_out_of_timestamp_order() {
        let mut books = Books::new(0, 1, 1, &ObserveConfig::default(), false);
        let report = report(&mut books, &[epoch(&[5, 6], 0), epoch(&[4], 0)]);
        assert_eq!(report.epoch_order_violations, 1);
        ServeReport {
            shards: vec![report],
            device: DeviceConfig::test_small(),
            rebalances: Vec::new(),
        }
        .assert_consistent();
    }

    #[test]
    fn books_book_the_serve_rows_once_at_the_end() {
        // Epochs of 3 and 2 requests: the first runs at once over cycles
        // 0–100, the second's requests arrive at 40 and wait for it.
        let mut books = Books::new(0, 1, 7, &ObserveConfig::default(), false);
        let report = report(&mut books, &[epoch(&[1, 2, 3], 0), epoch(&[4, 5], 40)]);
        let t = &report.stats.totals;
        let ingress = t.phases.row(Phase::Ingress);
        assert_eq!((ingress.control_insts, ingress.cycles), (8 * 5, 8 * 5 * 7));
        assert_eq!(t.phases.row(Phase::QueueWait).cycles, 2 * 60);
        assert_eq!((t.control_insts, t.cycles), (8 * 5, 8 * 5 * 7 + 2 * 60));
        assert_eq!(report.clock_cycles, 200);
        assert_eq!(report.epoch_order_violations, 0);
        assert!(report.phase_rows_sum_to_totals());
    }
}
