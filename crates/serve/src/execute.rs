//! The executor's books: what a shard keeps across the epochs it runs,
//! apart from its tree. They book each executed epoch, take the shard's
//! samples and write its [`ShardReport`]; they read no clock, take no lock
//! and touch no channel. The shard thread in `service.rs` runs the tree,
//! resolves the tickets and carries out the rest.

use crate::observe::{
    CloseCause, CloseCounts, LatencySummary, ObserveConfig, ShardSample, SloMonitor,
};
use crate::queue::Segment;
use crate::report::ShardReport;
use crate::service::ShardState;
use crate::shard::ShardId;
use eirene_sim::{CycleHistogram, KernelStats, Phase, ScheduleLog, SlabStats};
use eirene_telemetry::{LifecycleSpan, SpanRing};
use eirene_workloads::Batch;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Host control-flow instructions charged per admitted request for the
/// `ingress` telemetry phase (route lookup, timestamp fetch, queue push).
const INGRESS_CONTROL_PER_REQUEST: u64 = 8;

/// Capacity of an observed shard's span ring: bounded memory however long
/// the service runs, deep enough that tests and smoke benches keep every span.
const SPAN_CAPACITY: usize = 1 << 14;

/// One epoch, as the shard thread runs and books it.
pub(crate) struct Epoch {
    pub(crate) batch: Batch,
    /// The epoch's requests by segment: concatenated, they are
    /// `batch.requests`. Each segment is one submission call's (or a piece
    /// of one), so their count is what `ExecutorState::released` is set
    /// from.
    pub(crate) segments: Vec<Segment>,
    /// Why the combiner stopped gathering.
    pub(crate) close: CloseCause,
    /// Requests still parked in the reorder heap (admitted but above the
    /// watermark or beyond the batch limit).
    pub(crate) reorder_pending: u64,
    /// The ingress-queue depth left behind after forming this epoch. It
    /// takes the queue's lock, so it is read only when observing (0
    /// otherwise).
    pub(crate) queue_depth: u64,
    /// `next_ts - watermark` and the occupied in-flight slots at hand-over:
    /// how far submissions in flight held the watermark back. They cost
    /// SeqCst scans, so they are read only when observing (0 otherwise).
    pub(crate) watermark_lag: u64,
    pub(crate) inflight: u64,
}

/// One shard's books (module docs).
#[derive(Default)]
pub(crate) struct Books {
    pub(crate) shard: ShardId,
    /// An observer is registered (spans, samples, SLOs).
    observe: bool,
    control_latency: u64,
    /// The shard's virtual clock: the end of its last epoch.
    pub(crate) clock: u64,
    busy_cycles: u64,
    epochs: u64,
    closed: CloseCounts,
    executed: u64,
    /// Entries that expired before their epoch formed.
    pub(crate) timed_out: u64,
    /// Keys in the tree (sentinel excluded): the count it was built with,
    /// and exact once the shard thread has read the final contents.
    pub(crate) key_count: u64,
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
    ) -> Self {
        let observing = observe.observer.is_some();
        Books {
            shard,
            observe: observing,
            control_latency,
            tenant_latency: vec![CycleHistogram::new(); tenants],
            spans: observing.then(|| SpanRing::new(SPAN_CAPACITY)),
            slo: observe.slo.filter(|_| observing).map(SloMonitor::new),
            ..Books::default()
        }
    }

    /// Books one executed epoch: its order, its place on the virtual clock,
    /// its latencies, spans and device counters.
    pub(crate) fn record(&mut self, epoch: &Epoch, run: KernelStats) {
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
        // The per-epoch histogram is for the epoch's sample alone.
        let mut epoch_latency = self.observe.then(CycleHistogram::new);
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
                    ring.push(LifecycleSpan {
                        id: req.ts,
                        track: self.shard as u32,
                        epoch: self.epochs + 1,
                        arrival,
                        start,
                        end,
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
        self.closed.record(epoch.close);
        self.executed += n;
        self.epoch_latency = epoch_latency;
    }

    /// A [`ShardSample`] of `epoch`, the epoch booked last — or, given
    /// `None`, of the whole run (the terminal sample) — with the SLO
    /// breaches it trips. `arena` is the device's slab occupancy now.
    pub(crate) fn sample(
        &mut self,
        epoch: Option<&Epoch>,
        shared: &ShardState,
        arena: SlabStats,
    ) -> ShardSample {
        let terminal = epoch.is_none();
        let epoch_latency = self.epoch_latency.take().filter(|_| !terminal);
        let epoch_latency = epoch_latency.unwrap_or_default();
        // At the end the queue has finished: nothing waits, is parked or
        // in flight.
        let gauge = |read: fn(&Epoch) -> u64| epoch.map_or(0, read);
        let load = |cell: &AtomicU64| cell.load(Relaxed);
        let mut sample = ShardSample {
            shard: self.shard,
            epoch: self.epochs + u64::from(terminal),
            terminal,
            clock_cycles: self.clock,
            batch_size: epoch_latency.count(),
            queue_depth: gauge(|e| e.queue_depth),
            reorder_pending: gauge(|e| e.reorder_pending),
            watermark_lag: gauge(|e| e.watermark_lag),
            inflight: gauge(|e| e.inflight),
            enqueued: load(&shared.enqueued),
            shed: load(&shared.shed),
            timed_out: self.timed_out,
            completed: self.executed,
            max_queue_depth: load(&shared.max_depth),
            closed: self.closed,
            key_count: self.key_count,
            arena_live: arena.live,
            arena_retired: arena.retired,
            descents_saved: self.stats.totals.descents_saved,
            pivot_cache_hits: self.stats.totals.pivot_cache_hits,
            tenant_shed: shared.tenant_shed.iter().map(load).collect(),
            latency: LatencySummary::from_hist(&self.latency),
            epoch_latency,
            breaches: Vec::new(),
        };
        if let Some(slo) = self.slo.as_mut() {
            sample.breaches = slo.observe(&sample);
        }
        sample
    }

    /// The shard's report, from the books, the terminal sample and what
    /// the tree ends with.
    pub(crate) fn finish(
        mut self,
        terminal: ShardSample,
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
            tenant_shed: terminal.tenant_shed,
            tenant_latency: self.tenant_latency,
            latency: self.latency,
            busy_cycles: self.busy_cycles,
            clock_cycles: self.clock,
            schedule,
            key_count: terminal.key_count,
            arena_live: terminal.arena_live,
            arena_retired: terminal.arena_retired,
            contents,
            structure,
            spans,
            spans_dropped,
            spans_enabled: self.observe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::QosConfig;
    use crate::ticket::{Slot, TicketBatch};
    use eirene_workloads::Request;

    /// An epoch of one segment of point queries at these timestamps, each
    /// arriving at `arrival` cycles.
    fn epoch(ts: &[u64], arrival: u64) -> Epoch {
        let mut seg = Segment::new(TicketBatch::new(ts.len()), None, 0, ts.len());
        for (i, &t) in (0u32..).zip(ts) {
            seg.push(Request::query(1, t), Slot::Cell(i), arrival);
        }
        Epoch {
            batch: Batch::new(seg.reqs.clone()),
            segments: vec![seg],
            close: CloseCause::Full,
            queue_depth: 0,
            reorder_pending: 0,
            watermark_lag: 0,
            inflight: 0,
        }
    }

    /// The books' report over `epochs` of 100 cycles each, with admission
    /// counters that balance.
    fn report(books: &mut Books, epochs: &[Epoch]) -> ShardReport {
        let state = ShardState::new(4, &QosConfig::disabled(), false);
        for epoch in epochs {
            let run = KernelStats {
                makespan_cycles: 100.0,
                ..KernelStats::default()
            };
            books.record(epoch, run);
            state.record_enqueue(epoch.batch.len() as u64, 0);
        }
        let terminal = books.sample(None, &state, SlabStats::default());
        std::mem::take(books).finish(terminal, ScheduleLog::default(), Vec::new(), Ok(()))
    }

    #[test]
    fn books_sample_the_epoch_gauges_and_end_on_a_terminal_sample_of_the_run() {
        let state = ShardState::new(4, &QosConfig::uniform(3, 8), false);
        let observe = ObserveConfig::with_observer(crate::observe::SeriesCollector::new());
        let mut books = Books::new(0, 3, 1, &observe);
        let causes = [CloseCause::Idle, CloseCause::Returned, CloseCause::Idle];
        for (i, close) in (0u64..).zip(causes) {
            let epoch = Epoch {
                close,
                queue_depth: 1,
                reorder_pending: 2,
                watermark_lag: 4,
                inflight: 5,
                ..epoch(&[2 * i, 2 * i + 1], 0)
            };
            state.record_enqueue(2, 6);
            books.record(&epoch, KernelStats::default());
            let s = books.sample(Some(&epoch), &state, SlabStats::default());
            let gauges = (s.queue_depth, s.reorder_pending);
            assert_eq!((gauges, s.watermark_lag, s.inflight), ((1, 2), 4, 5));
            assert_eq!((s.epoch, s.batch_size, s.closed.total()), (i + 1, 2, i + 1));
        }
        state.record_shed(5, 2);
        let arena = SlabStats {
            live: 7,
            ..SlabStats::default()
        };
        let t = books.sample(None, &state, arena);
        assert!(t.terminal);
        let gauges = (t.queue_depth, t.reorder_pending);
        assert_eq!((gauges, t.watermark_lag, t.inflight), ((0, 0), 0, 0));
        assert_eq!((t.epoch, t.batch_size), (4, 0));
        assert_eq!(t.closed.total(), t.epoch - 1);
        assert_eq!((t.closed.idle, t.closed.returned), (2, 1));
        assert_eq!((t.enqueued, t.completed, t.max_queue_depth), (6, 6, 6));
        assert_eq!((t.shed, t.arena_live), (5, 7));
        assert_eq!(t.tenant_shed, [0, 0, 5]);
    }

    #[test]
    fn books_count_an_epoch_out_of_timestamp_order() {
        let mut books = Books::new(0, 1, 1, &ObserveConfig::default());
        let report = report(&mut books, &[epoch(&[5, 6], 0), epoch(&[4], 0)]);
        assert_eq!(report.epoch_order_violations, 1);
        let err = report.check().unwrap_err();
        assert!(
            err.contains("successive epochs must be timestamp-ordered"),
            "{err}"
        );
    }

    #[test]
    fn books_book_the_serve_rows_once_at_the_end() {
        // Epochs of 3 and 2 requests: the first runs at once over cycles
        // 0–100, the second's requests arrive at 40 and wait for it.
        let mut books = Books::new(0, 1, 7, &ObserveConfig::default());
        let report = report(&mut books, &[epoch(&[1, 2, 3], 0), epoch(&[4, 5], 40)]);
        let t = &report.stats.totals;
        let ingress = t.phases.row(Phase::Ingress);
        assert_eq!((ingress.control_insts, ingress.cycles), (8 * 5, 8 * 5 * 7));
        assert_eq!(t.phases.row(Phase::QueueWait).cycles, 2 * 60);
        assert_eq!((t.control_insts, t.cycles), (8 * 5, 8 * 5 * 7 + 2 * 60));
        assert_eq!(report.clock_cycles, 200);
        assert_eq!(report.epoch_order_violations, 0);
        report.check().unwrap();
    }
}
