//! Live observability for the serving layer: per-shard metric samples at
//! epoch boundaries, an SLO/QoS monitor over sliding epoch windows, and
//! the [`ServiceObserver`] subscription API.
//!
//! Everything here is *streaming*: unlike [`ServeReport`](crate::ServeReport),
//! which only materializes at shutdown, a [`ShardSample`] is pushed to the
//! registered observer the moment a shard finishes an epoch — epoch
//! boundaries are the natural sampling points of the combining pipeline
//! (every counter is quiescent for the sampled epoch, and the shard's
//! virtual clock has a well-defined value). The batch controller
//! (adaptive epoch sizing) and the rebalancer (hot-shard splitting) feed
//! on exactly these signals.
//!
//! Overhead when disabled: with [`ObserveConfig::enabled`] false the
//! admission hot path is untouched (the always-on accounting counters are
//! the same relaxed atomics the report already needed), combiners skip the
//! gauge reads, and executors record no spans and emit no samples.

use crate::rebalance::RebalanceEvent;
use crate::report::ServeReport;
use crate::shard::ShardId;
use eirene_telemetry::{CycleHistogram, JsonValue, MetricId, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The per-shard metric registry: always-on admission counters plus
/// gauges refreshed at epoch boundaries. One instance per shard, shared
/// between submitters (counter bumps), the combiner (timeout counter),
/// and the executor (gauges, sampling).
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    reg: MetricsRegistry,
    pub enqueued: MetricId,
    pub shed: MetricId,
    pub timed_out: MetricId,
    pub completed: MetricId,
    pub epochs: MetricId,
    pub max_depth: MetricId,
    pub queue_depth: MetricId,
    pub reorder_pending: MetricId,
    pub watermark_lag: MetricId,
    pub inflight: MetricId,
    pub epoch_batch: MetricId,
    /// Controller's batch target for the next epoch.
    pub batch_target: MetricId,
    /// Entries staged on QoS lanes (0 when lanes are disabled).
    pub lane_pending: MetricId,
    /// Keys owned by the shard's tree as of its last build or rebalance
    /// migration (sentinel excluded). Not updated per epoch — upserts and
    /// deletes move it only at the terminal snapshot, where it is exact.
    pub key_count: MetricId,
    /// Live node blocks in the shard device's slab arena (allocated minus
    /// retired), refreshed at epoch boundaries.
    pub arena_live: MetricId,
    /// Node blocks quarantined in the slab arena awaiting their epoch to
    /// pass; refreshed at epoch boundaries, right after the reclamation
    /// epoch advanced (so it shows the steady-state backlog, usually 0).
    pub arena_retired: MetricId,
    /// Upper-level descents avoided by leaf-run coalescing (cumulative
    /// device total, refreshed at epoch boundaries).
    pub descents_saved: MetricId,
    /// Run dispatches resolved from the snapshot pivot cache instead of
    /// device-memory upper levels (cumulative, refreshed per epoch).
    pub pivot_cache_hits: MetricId,
    /// Per-tenant shed counters; `tenant_shed[t]` sums into `shed`.
    pub tenant_shed: Vec<MetricId>,
    /// Epochs by close cause, indexed by [`CloseCause`]; bumped together
    /// with `epochs`, so the five always sum to it.
    closed: [MetricId; 5],
}

/// Why the combiner stopped gathering an epoch and handed it over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CloseCause {
    /// The batch target was reached.
    Full,
    /// `linger` elapsed on a partial epoch (at once when it is zero).
    Linger,
    /// The executor had sat idle for one epoch's service time: the grace
    /// ran out.
    Idle,
    /// The executor sat idle and every caller the last epoch released had
    /// pushed again: nothing more could join.
    Returned,
    /// The queue closed (shutdown): whatever was gathered goes out.
    Drain,
}

/// Executed epochs by the reason their combiner closed them (cumulative).
/// The five counts sum to the shard's epoch count at every sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CloseCounts {
    /// Batch target reached.
    pub full: u64,
    /// [`ServeConfig::linger`](crate::ServeConfig::linger) elapsed on a
    /// partial epoch (every partial epoch when it is zero).
    pub linger: u64,
    /// Closed early: the executor had been idle for one epoch's service
    /// time (the grace ran out), so lingering on would only have added
    /// latency.
    pub idle: u64,
    /// Closed earlier still: the executor was idle and as many submissions
    /// had arrived since the previous epoch's tickets began to resolve as
    /// that epoch carried — in a closed loop, everyone who could still
    /// join had.
    pub returned: u64,
    /// Queue closed at shutdown with entries still gathered.
    pub drain: u64,
}

impl CloseCounts {
    pub fn total(&self) -> u64 {
        self.full + self.linger + self.idle + self.returned + self.drain
    }
}

impl ShardMetrics {
    pub fn new(tenants: usize) -> Self {
        // Registration order is each metric's id: keep it.
        let mut r = MetricsRegistry::new();
        ShardMetrics {
            enqueued: r.register_counter("enqueued"),
            shed: r.register_counter("shed"),
            timed_out: r.register_counter("timed_out"),
            completed: r.register_counter("completed"),
            epochs: r.register_counter("epochs"),
            max_depth: r.register_gauge("max_queue_depth"),
            queue_depth: r.register_gauge("queue_depth"),
            reorder_pending: r.register_gauge("reorder_pending"),
            watermark_lag: r.register_gauge("watermark_lag"),
            inflight: r.register_gauge("inflight"),
            epoch_batch: r.register_gauge("epoch_batch"),
            batch_target: r.register_gauge("batch_target"),
            lane_pending: r.register_gauge("lane_pending"),
            key_count: r.register_gauge("key_count"),
            arena_live: r.register_gauge("arena_live"),
            arena_retired: r.register_gauge("arena_retired"),
            descents_saved: r.register_gauge("descents_saved"),
            pivot_cache_hits: r.register_gauge("pivot_cache_hits"),
            tenant_shed: (0..tenants.max(1))
                .map(|t| r.register_counter(&format!("tenant{t}_shed")))
                .collect(),
            closed: [
                "closed_full",
                "closed_linger",
                "closed_idle",
                "closed_returned",
                "closed_drain",
            ]
            .map(|name| r.register_counter(name)),
            reg: r,
        }
    }

    /// Counts one executed epoch under the cause that closed it.
    pub fn record_epoch(&self, cause: CloseCause) {
        self.reg.add(self.epochs, 1);
        self.reg.add(self.closed[cause as usize], 1);
    }

    pub fn closed(&self) -> CloseCounts {
        let [full, linger, idle, returned, drain] = self.closed.map(|id| self.reg.get(id));
        CloseCounts {
            full,
            linger,
            idle,
            returned,
            drain,
        }
    }

    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        self.reg.add(id, n);
    }

    #[inline]
    pub fn set(&self, id: MetricId, v: u64) {
        self.reg.set(id, v);
    }

    #[inline]
    pub fn record_max(&self, id: MetricId, v: u64) {
        self.reg.record_max(id, v);
    }

    #[inline]
    pub fn get(&self, id: MetricId) -> u64 {
        self.reg.get(id)
    }
}

/// Exact summary of a latency histogram at a sampling instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    pub count: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
}

impl LatencySummary {
    pub fn from_hist(h: &CycleHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            p999: h.p999(),
            max: h.max(),
        }
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("count", JsonValue::from(self.count)),
            ("mean", JsonValue::from(self.mean)),
            ("p50", JsonValue::from(self.p50)),
            ("p90", JsonValue::from(self.p90)),
            ("p99", JsonValue::from(self.p99)),
            ("p999", JsonValue::from(self.p999)),
            ("max", JsonValue::from(self.max)),
        ])
    }
}

/// One shard's signals at one epoch boundary. Counters are cumulative
/// since service start; gauges are levels at the moment the sampled epoch
/// was emitted by the combiner.
#[derive(Clone, Debug)]
pub struct ShardSample {
    pub shard: ShardId,
    /// Epoch id, 1-based and strictly increasing per shard. The terminal
    /// sample (emitted once at shard shutdown, after the last epoch) uses
    /// the next id in sequence.
    pub epoch: u64,
    /// True for the final shutdown sample: counters are the shard's
    /// totals, exactly the values the [`ShardReport`](crate::ShardReport)
    /// carries.
    pub terminal: bool,
    /// The shard's virtual clock (cycles) at the end of this epoch.
    pub clock_cycles: u64,
    /// Entries executed in this epoch (0 for the terminal sample).
    pub batch_size: u64,
    /// Ingress-queue depth when the epoch was emitted.
    pub queue_depth: u64,
    /// Entries sitting in the combiner's reorder heap (admitted but above
    /// the watermark or beyond the epoch limit).
    pub reorder_pending: u64,
    /// `next_ts - watermark`: how far the in-flight registry was holding
    /// the watermark behind the timestamp counter.
    pub watermark_lag: u64,
    /// Occupied slots of the in-flight submission registry.
    pub inflight: u64,
    /// The batch controller's target for the *next* epoch (constant under
    /// [`EpochSizing::Fixed`](crate::EpochSizing::Fixed)).
    pub batch_target: u64,
    /// Entries staged on QoS lanes when the epoch was emitted (0 with
    /// lanes disabled).
    pub lane_pending: u64,
    /// Keys owned by this shard's tree as of its last build or rebalance
    /// migration (exact at the terminal sample). The signal a dashboard
    /// watches to see load drain off a hot shard.
    pub key_count: u64,
    /// Live node blocks in the shard device's slab arena when the epoch
    /// finished. The signal a dashboard watches to confirm delete-heavy
    /// churn is reclaiming memory instead of growing the arena.
    pub arena_live: u64,
    /// Node blocks still quarantined (retired, epoch not yet passed) when
    /// the epoch finished — sampled right after the boundary's epoch
    /// advance, so a non-zero steady state means reclamation is lagging.
    pub arena_retired: u64,
    /// Cumulative upper-level descents avoided by leaf-run coalescing.
    /// The signal a dashboard watches to confirm the combine path is
    /// actually amortizing traversals (0 with coalescing disabled).
    pub descents_saved: u64,
    /// Cumulative run dispatches resolved from the snapshot pivot cache.
    /// Tracks `descents_saved`'s denominator side: a low hit count with
    /// high epoch throughput means the cache is being invalidated by
    /// structure-modifying epochs.
    pub pivot_cache_hits: u64,
    /// Cumulative per-tenant shed counts; sums to `shed`.
    pub tenant_shed: Vec<u64>,
    /// Cumulative entries admitted to this shard's queue.
    pub enqueued: u64,
    /// Cumulative requests shed at this shard's full queue.
    pub shed: u64,
    /// Cumulative entries that expired before their epoch formed.
    pub timed_out: u64,
    /// Cumulative entries executed (completions).
    pub completed: u64,
    /// High-water mark of the ingress-queue depth.
    pub max_queue_depth: u64,
    /// Cumulative epochs by close cause; sums to the epochs executed so
    /// far. The signal a dashboard watches to see *why* batches are the
    /// size they are: mostly `returned` under closed-loop load, `idle`
    /// when callers come and go, `full` under backlog, `linger` when
    /// arrivals trickle in behind a busy executor.
    pub closed: CloseCounts,
    /// Completion-latency histogram of *this epoch's* entries.
    pub epoch_latency: CycleHistogram,
    /// Summary of the cumulative completion-latency histogram.
    pub latency: LatencySummary,
}

impl ShardSample {
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("shard", JsonValue::from(self.shard)),
            ("epoch", JsonValue::from(self.epoch)),
            ("terminal", JsonValue::from(self.terminal)),
            ("clock_cycles", JsonValue::from(self.clock_cycles)),
            ("batch_size", JsonValue::from(self.batch_size)),
            ("queue_depth", JsonValue::from(self.queue_depth)),
            ("reorder_pending", JsonValue::from(self.reorder_pending)),
            ("watermark_lag", JsonValue::from(self.watermark_lag)),
            ("inflight", JsonValue::from(self.inflight)),
            ("batch_target", JsonValue::from(self.batch_target)),
            ("lane_pending", JsonValue::from(self.lane_pending)),
            ("key_count", JsonValue::from(self.key_count)),
            ("arena_live", JsonValue::from(self.arena_live)),
            ("arena_retired", JsonValue::from(self.arena_retired)),
            ("descents_saved", JsonValue::from(self.descents_saved)),
            ("pivot_cache_hits", JsonValue::from(self.pivot_cache_hits)),
            (
                "tenant_shed",
                JsonValue::Arr(
                    self.tenant_shed
                        .iter()
                        .map(|&v| JsonValue::from(v))
                        .collect(),
                ),
            ),
            ("enqueued", JsonValue::from(self.enqueued)),
            ("shed", JsonValue::from(self.shed)),
            ("timed_out", JsonValue::from(self.timed_out)),
            ("completed", JsonValue::from(self.completed)),
            ("max_queue_depth", JsonValue::from(self.max_queue_depth)),
            ("closed_full", JsonValue::from(self.closed.full)),
            ("closed_linger", JsonValue::from(self.closed.linger)),
            ("closed_idle", JsonValue::from(self.closed.idle)),
            ("closed_returned", JsonValue::from(self.closed.returned)),
            ("closed_drain", JsonValue::from(self.closed.drain)),
            (
                "epoch_latency",
                LatencySummary::from_hist(&self.epoch_latency).to_json(),
            ),
            ("latency", self.latency.to_json()),
        ])
    }
}

/// Which objective a breach violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloObjective {
    /// Windowed p99 completion latency exceeded the cycle budget.
    P99LatencyCycles,
    /// Windowed shed rate (shed / offered) exceeded the allowed fraction.
    ShedRate,
}

impl SloObjective {
    pub fn name(self) -> &'static str {
        match self {
            SloObjective::P99LatencyCycles => "p99_latency_cycles",
            SloObjective::ShedRate => "shed_rate",
        }
    }
}

/// Configurable service-level objectives, evaluated per shard over a
/// sliding window of epochs at every sample.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Breach when the window's p99 completion latency exceeds this many
    /// cycles.
    pub p99_max_cycles: Option<u64>,
    /// Breach when the window's shed rate — shed / (shed + admitted),
    /// both as deltas over the window — exceeds this fraction.
    pub shed_rate_max: Option<f64>,
    /// Sliding-window length in epochs (clamped to at least 1).
    pub window_epochs: usize,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            p99_max_cycles: None,
            shed_rate_max: None,
            window_epochs: 16,
        }
    }
}

/// One structured SLO breach event.
#[derive(Clone, Debug)]
pub struct SloBreach {
    pub shard: ShardId,
    /// Epoch id of the sample that tripped the objective.
    pub epoch: u64,
    pub objective: SloObjective,
    /// The windowed value that was observed.
    pub observed: f64,
    /// The configured limit it exceeded.
    pub limit: f64,
    /// Epochs actually in the evaluation window.
    pub window_epochs: usize,
}

impl SloBreach {
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("shard", JsonValue::from(self.shard)),
            ("epoch", JsonValue::from(self.epoch)),
            ("objective", JsonValue::from(self.objective.name())),
            ("observed", JsonValue::from(self.observed)),
            ("limit", JsonValue::from(self.limit)),
            ("window_epochs", JsonValue::from(self.window_epochs)),
        ])
    }
}

impl std::fmt::Display for SloBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SLO breach: shard {} epoch {} {}: observed {:.2} > limit {:.2} over {} epoch(s)",
            self.shard,
            self.epoch,
            self.objective.name(),
            self.observed,
            self.limit,
            self.window_epochs
        )
    }
}

/// Per-epoch window entry the monitor retains.
#[derive(Debug)]
struct WindowEntry {
    latency: CycleHistogram,
    admitted_delta: u64,
    shed_delta: u64,
}

/// Evaluates an [`SloSpec`] over a sliding window of one shard's epoch
/// samples. Owned by the shard's executor thread — no locking.
#[derive(Debug)]
pub struct SloMonitor {
    spec: SloSpec,
    window: VecDeque<WindowEntry>,
    last_enqueued: u64,
    last_shed: u64,
}

impl SloMonitor {
    pub fn new(spec: SloSpec) -> Self {
        SloMonitor {
            spec,
            window: VecDeque::new(),
            last_enqueued: 0,
            last_shed: 0,
        }
    }

    /// Folds one sample into the window and returns any breaches it
    /// tripped (at most one per objective per sample).
    pub fn observe(&mut self, sample: &ShardSample) -> Vec<SloBreach> {
        let admitted_delta = sample.enqueued.saturating_sub(self.last_enqueued);
        let shed_delta = sample.shed.saturating_sub(self.last_shed);
        self.last_enqueued = sample.enqueued;
        self.last_shed = sample.shed;
        self.window.push_back(WindowEntry {
            latency: sample.epoch_latency.clone(),
            admitted_delta,
            shed_delta,
        });
        while self.window.len() > self.spec.window_epochs.max(1) {
            self.window.pop_front();
        }

        let mut breaches = Vec::new();
        if let Some(limit) = self.spec.p99_max_cycles {
            let mut merged = CycleHistogram::new();
            for e in &self.window {
                merged.merge(&e.latency);
            }
            if !merged.is_empty() && merged.p99() > limit {
                breaches.push(SloBreach {
                    shard: sample.shard,
                    epoch: sample.epoch,
                    objective: SloObjective::P99LatencyCycles,
                    observed: merged.p99() as f64,
                    limit: limit as f64,
                    window_epochs: self.window.len(),
                });
            }
        }
        if let Some(limit) = self.spec.shed_rate_max {
            let shed: u64 = self.window.iter().map(|e| e.shed_delta).sum();
            let offered: u64 = self
                .window
                .iter()
                .map(|e| e.shed_delta + e.admitted_delta)
                .sum();
            if offered > 0 {
                let rate = shed as f64 / offered as f64;
                if rate > limit {
                    breaches.push(SloBreach {
                        shard: sample.shard,
                        epoch: sample.epoch,
                        objective: SloObjective::ShedRate,
                        observed: rate,
                        limit,
                        window_epochs: self.window.len(),
                    });
                }
            }
        }
        breaches
    }
}

/// Subscription API: implement this and register it in
/// [`ObserveConfig::observer`] to receive live samples and breach events.
/// Callbacks run on the emitting shard's executor thread — keep them
/// short (push to a channel or a lock-briefly buffer) so they do not
/// stall the epoch pipeline.
pub trait ServiceObserver: Send + Sync {
    /// One shard finished an epoch (or shut down, for terminal samples).
    fn on_sample(&self, _sample: &ShardSample) {}

    /// A configured objective was breached at a sample.
    fn on_breach(&self, _breach: &SloBreach) {}

    /// The rebalancer published a topology change. Runs on the
    /// rebalancer thread, after the new shard map is live.
    fn on_rebalance(&self, _event: &RebalanceEvent) {}
}

/// Built-in observer that accumulates the full sample series and breach
/// list, for dashboards and JSON export.
#[derive(Debug, Default)]
pub struct SeriesCollector {
    state: Mutex<SeriesState>,
}

#[derive(Debug, Default)]
struct SeriesState {
    samples: Vec<ShardSample>,
    breaches: Vec<SloBreach>,
    rebalances: Vec<RebalanceEvent>,
}

impl SeriesCollector {
    pub fn new() -> Arc<SeriesCollector> {
        Arc::new(SeriesCollector::default())
    }

    /// Snapshot of every sample collected so far (arrival order:
    /// interleaved across shards, monotone epoch ids within a shard).
    pub fn samples(&self) -> Vec<ShardSample> {
        self.state.lock().unwrap().samples.clone()
    }

    /// Snapshot of every breach event so far.
    pub fn breaches(&self) -> Vec<SloBreach> {
        self.state.lock().unwrap().breaches.clone()
    }

    /// Snapshot of every rebalance event so far, in publication order.
    pub fn rebalances(&self) -> Vec<RebalanceEvent> {
        self.state.lock().unwrap().rebalances.clone()
    }

    /// Latest sample per shard, in shard order.
    pub fn latest_per_shard(&self) -> Vec<ShardSample> {
        let st = self.state.lock().unwrap();
        let mut latest: Vec<Option<ShardSample>> = Vec::new();
        for s in &st.samples {
            if s.shard >= latest.len() {
                latest.resize(s.shard + 1, None);
            }
            latest[s.shard] = Some(s.clone());
        }
        latest.into_iter().flatten().collect()
    }

    /// The collected series as one JSON document (`schema_version` 1).
    pub fn to_json(&self) -> JsonValue {
        let st = self.state.lock().unwrap();
        JsonValue::obj(vec![
            ("schema_version", JsonValue::from(1u64)),
            (
                "samples",
                JsonValue::Arr(st.samples.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "breaches",
                JsonValue::Arr(st.breaches.iter().map(|b| b.to_json()).collect()),
            ),
            (
                "rebalances",
                JsonValue::Arr(st.rebalances.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }
}

impl ServiceObserver for SeriesCollector {
    fn on_sample(&self, sample: &ShardSample) {
        self.state.lock().unwrap().samples.push(sample.clone());
    }

    fn on_breach(&self, breach: &SloBreach) {
        self.state.lock().unwrap().breaches.push(breach.clone());
    }

    fn on_rebalance(&self, event: &RebalanceEvent) {
        self.state.lock().unwrap().rebalances.push(event.clone());
    }
}

/// Observability configuration of a [`Service`](crate::Service).
#[derive(Clone, Default)]
pub struct ObserveConfig {
    /// Master switch. Off (the default) guarantees the epoch pipeline
    /// does no sampling, span recording, gauge refreshing, or SLO work.
    pub enabled: bool,
    /// Per-shard lifecycle-span ring capacity; 0 disables span recording
    /// even when `enabled` (dropped spans are still counted).
    pub span_capacity: usize,
    /// Objectives to evaluate per shard at every sample.
    pub slo: Option<SloSpec>,
    /// Live subscriber for samples and breaches.
    pub observer: Option<Arc<dyn ServiceObserver>>,
}

impl std::fmt::Debug for ObserveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserveConfig")
            .field("enabled", &self.enabled)
            .field("span_capacity", &self.span_capacity)
            .field("slo", &self.slo)
            .field("observer", &self.observer.as_ref().map(|_| "dyn"))
            .finish()
    }
}

impl ObserveConfig {
    /// Default capacity of the per-shard span ring when observability is
    /// on: bounded memory however long the service runs, deep enough that
    /// tests and smoke benches keep every span.
    pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 14;

    /// Everything on with the default span capacity.
    pub fn live() -> Self {
        ObserveConfig {
            enabled: true,
            span_capacity: Self::DEFAULT_SPAN_CAPACITY,
            slo: None,
            observer: None,
        }
    }

    /// `live()` plus an observer.
    pub fn with_observer(observer: Arc<dyn ServiceObserver>) -> Self {
        ObserveConfig {
            observer: Some(observer),
            ..Self::live()
        }
    }
}

/// Cross-checks a collected sample series against the final report:
/// terminal samples must exist for every shard and reconcile *exactly*
/// with the report's totals, epoch ids must be strictly increasing per
/// shard, and every sample's close-cause counts must sum to the epochs
/// executed by then. Returns a description of the first mismatch.
pub fn reconcile_samples(samples: &[ShardSample], report: &ServeReport) -> Result<(), String> {
    let mut last_epoch: Vec<Option<u64>> = vec![None; report.shards.len()];
    let mut terminal: Vec<Option<&ShardSample>> = vec![None; report.shards.len()];
    for s in samples {
        if s.shard >= report.shards.len() {
            return Err(format!("sample for unknown shard {}", s.shard));
        }
        if let Some(prev) = last_epoch[s.shard] {
            if s.epoch <= prev {
                return Err(format!(
                    "shard {}: epoch ids not strictly increasing ({} after {prev})",
                    s.shard, s.epoch
                ));
            }
        }
        last_epoch[s.shard] = Some(s.epoch);
        // The terminal sample takes the id after the last epoch.
        let epochs = s.epoch - u64::from(s.terminal);
        if s.closed.total() != epochs {
            return Err(format!(
                "shard {}: close causes {:?} do not sum to the {epochs} epoch(s) executed",
                s.shard, s.closed
            ));
        }
        if s.terminal {
            terminal[s.shard] = Some(s);
        }
    }
    for shard in &report.shards {
        let t = terminal[shard.shard]
            .ok_or_else(|| format!("shard {}: no terminal sample", shard.shard))?;
        let pairs = [
            ("enqueued", t.enqueued, shard.enqueued),
            ("shed", t.shed, shard.shed),
            ("timed_out", t.timed_out, shard.timed_out),
            ("completed", t.completed, shard.executed),
            ("epochs", t.epoch - 1, shard.epochs),
            ("max_queue_depth", t.max_queue_depth, shard.max_queue_depth),
            ("clock_cycles", t.clock_cycles, shard.clock_cycles),
            ("latency_count", t.latency.count, shard.latency.count()),
            ("latency_max", t.latency.max, shard.latency.max()),
            ("key_count", t.key_count, shard.key_count),
            ("arena_live", t.arena_live, shard.arena_live),
            ("arena_retired", t.arena_retired, shard.arena_retired),
            ("descents_saved", t.descents_saved, shard.descents_saved),
            (
                "pivot_cache_hits",
                t.pivot_cache_hits,
                shard.pivot_cache_hits,
            ),
        ];
        for (name, sampled, reported) in pairs {
            if sampled != reported {
                return Err(format!(
                    "shard {}: terminal sample {name} = {sampled} but report says {reported}",
                    shard.shard
                ));
            }
        }
        if t.batch_target != shard.batch_target {
            return Err(format!(
                "shard {}: terminal sample batch_target = {} but report says {}",
                shard.shard, t.batch_target, shard.batch_target
            ));
        }
        if t.closed != shard.closed {
            return Err(format!(
                "shard {}: terminal sample closed = {:?} but report says {:?}",
                shard.shard, t.closed, shard.closed
            ));
        }
        if t.tenant_shed != shard.tenant_shed {
            return Err(format!(
                "shard {}: terminal sample tenant_shed = {:?} but report says {:?}",
                shard.shard, t.tenant_shed, shard.tenant_shed
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(shard: ShardId, epoch: u64, enqueued: u64, shed: u64, lat: &[u64]) -> ShardSample {
        let mut epoch_latency = CycleHistogram::new();
        for &v in lat {
            epoch_latency.record(v);
        }
        ShardSample {
            shard,
            epoch,
            terminal: false,
            clock_cycles: epoch * 100,
            batch_size: lat.len() as u64,
            queue_depth: 0,
            reorder_pending: 0,
            watermark_lag: 0,
            inflight: 0,
            batch_target: 0,
            lane_pending: 0,
            key_count: 0,
            arena_live: 0,
            arena_retired: 0,
            descents_saved: 0,
            pivot_cache_hits: 0,
            tenant_shed: vec![shed],
            enqueued,
            shed,
            timed_out: 0,
            completed: enqueued,
            max_queue_depth: 0,
            closed: CloseCounts {
                full: epoch,
                ..CloseCounts::default()
            },
            latency: LatencySummary::from_hist(&epoch_latency),
            epoch_latency,
        }
    }

    #[test]
    fn slo_monitor_trips_p99_over_the_window() {
        let mut mon = SloMonitor::new(SloSpec {
            p99_max_cycles: Some(1000),
            shed_rate_max: None,
            window_epochs: 4,
        });
        assert!(mon.observe(&sample(0, 1, 10, 0, &[100; 10])).is_empty());
        let breaches = mon.observe(&sample(0, 2, 20, 0, &[50_000; 10]));
        assert_eq!(breaches.len(), 1);
        let b = &breaches[0];
        assert_eq!(b.objective, SloObjective::P99LatencyCycles);
        assert!(b.observed > b.limit);
        assert_eq!(b.window_epochs, 2);
        // The slow epoch ages out of the window after 4 more fast ones.
        for e in 3..7 {
            mon.observe(&sample(0, e, 10 * e, 0, &[100; 10]));
        }
        assert!(mon.observe(&sample(0, 7, 100, 0, &[100; 10])).is_empty());
    }

    #[test]
    fn slo_monitor_trips_shed_rate_on_deltas() {
        let mut mon = SloMonitor::new(SloSpec {
            p99_max_cycles: None,
            shed_rate_max: Some(0.10),
            window_epochs: 2,
        });
        // 100 admitted, 0 shed: fine.
        assert!(mon.observe(&sample(0, 1, 100, 0, &[10; 4])).is_empty());
        // +100 admitted, +50 shed => window rate 50/250 = 20% > 10%.
        let breaches = mon.observe(&sample(0, 2, 200, 50, &[10; 4]));
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].objective, SloObjective::ShedRate);
        assert!((breaches[0].observed - 0.2).abs() < 1e-9);
    }

    #[test]
    fn collector_orders_and_snapshots() {
        let coll = SeriesCollector::new();
        coll.on_sample(&sample(1, 1, 5, 0, &[10]));
        coll.on_sample(&sample(0, 1, 3, 0, &[20]));
        coll.on_sample(&sample(1, 2, 9, 0, &[30]));
        assert_eq!(coll.samples().len(), 3);
        let latest = coll.latest_per_shard();
        assert_eq!(latest.len(), 2);
        assert_eq!((latest[0].shard, latest[0].epoch), (0, 1));
        assert_eq!((latest[1].shard, latest[1].epoch), (1, 2));
        let doc = coll.to_json();
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            doc.get("samples").and_then(|v| v.as_arr()).unwrap().len(),
            3
        );
    }

    #[test]
    fn shard_metrics_register_the_standard_set() {
        let m = ShardMetrics::new(3);
        m.add(m.enqueued, 7);
        m.set(m.queue_depth, 3);
        m.record_max(m.max_depth, 9);
        assert_eq!(m.get(m.enqueued), 7);
        assert_eq!(m.get(m.queue_depth), 3);
        assert_eq!(m.get(m.max_depth), 9);
        assert_eq!(m.get(m.shed), 0);
        assert_eq!(m.tenant_shed.len(), 3);
        m.add(m.tenant_shed[2], 5);
        assert_eq!(m.get(m.tenant_shed[2]), 5);
        assert_eq!(m.get(m.batch_target), 0);
        m.record_epoch(CloseCause::Idle);
        m.record_epoch(CloseCause::Idle);
        m.record_epoch(CloseCause::Returned);
        m.record_epoch(CloseCause::Drain);
        let closed = m.closed();
        assert_eq!((closed.idle, closed.returned, closed.drain), (2, 1, 1));
        assert_eq!(closed.total(), m.get(m.epochs));
        // Even tenant-less services carry the implicit tenant 0.
        assert_eq!(ShardMetrics::new(0).tenant_shed.len(), 1);
    }
}
