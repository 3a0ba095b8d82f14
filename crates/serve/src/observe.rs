//! Live observability for the serving layer: per-shard metric samples at
//! epoch boundaries, an SLO/QoS monitor over sliding epoch windows, and
//! the [`ServiceObserver`] subscription API.
//!
//! Everything here is *streaming*: unlike [`ServeReport`](crate::ServeReport),
//! which only materializes at shutdown, a [`ShardSample`] is pushed to the
//! registered observer the moment a shard finishes an epoch — epoch
//! boundaries are the natural sampling points of the combining pipeline
//! (every counter is quiescent for the sampled epoch, and the shard's
//! virtual clock has a well-defined value). A sample is built only to be
//! exported, and nothing on the epoch path reads one.
//!
//! One switch: a service observes exactly when an observer is registered
//! in [`ObserveConfig::observer`]. One stream: every sample reaches it
//! through [`ServiceObserver::on_sample`], carrying the SLO breaches it
//! tripped in [`ShardSample::breaches`].
//!
//! Overhead without an observer: the admission hot path is untouched (its
//! counters are the relaxed atomics the report needs anyway), and shard
//! threads skip the gauge reads, record no spans, evaluate no SLO and build
//! no sample but the terminal one, which the report is taken from.

use crate::report::ServeReport;
use crate::shard::ShardId;
use eirene_telemetry::{CycleHistogram, JsonValue};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

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

    /// Counts one epoch closed by `cause`.
    pub(crate) fn record(&mut self, cause: CloseCause) {
        *match cause {
            CloseCause::Full => &mut self.full,
            CloseCause::Linger => &mut self.linger,
            CloseCause::Idle => &mut self.idle,
            CloseCause::Returned => &mut self.returned,
            CloseCause::Drain => &mut self.drain,
        } += 1;
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
    /// Keys owned by this shard's tree as of its build (exact at the
    /// terminal sample).
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
    /// Cumulative requests shed at this shard (a full queue or a tenant at
    /// quota).
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
    /// the shard has no service time measured yet, or the service time
    /// outlasts the linger.
    pub closed: CloseCounts,
    /// Completion-latency histogram of *this epoch's* entries.
    pub epoch_latency: CycleHistogram,
    /// Summary of the cumulative completion-latency histogram.
    pub latency: LatencySummary,
    /// The SLO breaches this sample tripped (at most one per objective;
    /// empty without an [`SloSpec`]).
    pub breaches: Vec<SloBreach>,
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
/// samples. Owned by the shard thread — no locking.
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
/// [`ObserveConfig::observer`] to receive every [`ShardSample`], with the
/// SLO breaches it tripped, as it happens. Samples arrive on the emitting
/// shard's thread between its epochs — keep the callback short (push to a
/// channel or a lock-briefly buffer) so it does not stall the shard.
pub trait ServiceObserver: Send + Sync {
    fn on_sample(&self, sample: &ShardSample);
}

/// Built-in observer that keeps every sample, in arrival order, for
/// dashboards and JSON export.
#[derive(Debug, Default)]
pub struct SeriesCollector {
    samples: Mutex<Vec<ShardSample>>,
}

impl SeriesCollector {
    pub fn new() -> Arc<SeriesCollector> {
        Arc::new(SeriesCollector::default())
    }

    /// The series, locked: no push panics holding it, so it is never
    /// poisoned.
    fn series(&self) -> MutexGuard<'_, Vec<ShardSample>> {
        self.samples.lock().expect("never poisoned")
    }

    /// Every sample so far, in arrival order (interleaved across shards;
    /// monotone epoch ids within a shard).
    pub fn samples(&self) -> Vec<ShardSample> {
        self.series().clone()
    }

    /// Every breach so far, in the order of the samples that tripped them.
    pub fn breaches(&self) -> Vec<SloBreach> {
        self.series()
            .iter()
            .flat_map(|s| s.breaches.iter().cloned())
            .collect()
    }

    /// Latest sample per shard, in shard order.
    pub fn latest_per_shard(&self) -> Vec<ShardSample> {
        let latest: BTreeMap<_, _> = self.samples().into_iter().map(|s| (s.shard, s)).collect();
        latest.into_values().collect()
    }

    /// The collected series as one JSON document (`schema_version` 2).
    pub fn to_json(&self) -> JsonValue {
        let (mut samples, mut breaches) = (Vec::new(), Vec::new());
        for s in self.series().iter() {
            samples.push(s.to_json());
            breaches.extend(s.breaches.iter().map(SloBreach::to_json));
        }
        JsonValue::obj(vec![
            ("schema_version", JsonValue::from(2u64)),
            ("samples", JsonValue::Arr(samples)),
            ("breaches", JsonValue::Arr(breaches)),
        ])
    }
}

impl ServiceObserver for SeriesCollector {
    fn on_sample(&self, sample: &ShardSample) {
        self.series().push(sample.clone());
    }
}

/// Observability configuration of a [`Service`](crate::Service). A
/// service observes exactly when an observer is registered: it then
/// samples every epoch, records lifecycle spans into a bounded ring and
/// evaluates `slo`. Without one (the default) the epoch pipeline does
/// none of that work.
#[derive(Clone, Default)]
pub struct ObserveConfig {
    /// Live subscriber for every [`ShardSample`].
    pub observer: Option<Arc<dyn ServiceObserver>>,
    /// Objectives to evaluate per shard at every sample.
    pub slo: Option<SloSpec>,
}

impl std::fmt::Debug for ObserveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserveConfig")
            .field("observer", &self.observer.as_ref().map(|_| "dyn"))
            .field("slo", &self.slo)
            .finish()
    }
}

impl ObserveConfig {
    /// Observation on, delivering to `observer`, with no objectives.
    pub fn with_observer(observer: Arc<dyn ServiceObserver>) -> Self {
        ObserveConfig {
            observer: Some(observer),
            slo: None,
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
        let totals = &shard.stats.totals;
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
            ("descents_saved", t.descents_saved, totals.descents_saved),
            (
                "pivot_cache_hits",
                t.pivot_cache_hits,
                totals.pivot_cache_hits,
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
            breaches: Vec::new(),
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
        let mut mon = SloMonitor::new(SloSpec {
            p99_max_cycles: Some(1),
            ..SloSpec::default()
        });
        for (shard, epoch) in [(1, 1), (0, 1), (1, 2)] {
            let mut s = sample(shard, epoch, 5, 0, &[10]);
            if shard == 0 {
                s.breaches = mon.observe(&s);
            }
            coll.on_sample(&s);
        }
        // The breach rides on the sample that tripped it, and the export
        // still lists it at the top level.
        assert_eq!(coll.breaches().len(), 1);
        assert_eq!((coll.breaches()[0].shard, coll.breaches()[0].epoch), (0, 1));
        assert_eq!(coll.samples().len(), 3);
        let latest = coll.latest_per_shard();
        assert_eq!(latest.len(), 2);
        assert_eq!((latest[0].shard, latest[0].epoch), (0, 1));
        assert_eq!((latest[1].shard, latest[1].epoch), (1, 2));
        let doc = coll.to_json();
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(2));
        assert!(
            doc.get("rebalances").is_none(),
            "schema 2 has no rebalances"
        );
        assert_eq!(
            doc.get("samples").and_then(|v| v.as_arr()).unwrap().len(),
            3
        );
        assert_eq!(
            doc.get("breaches").and_then(|v| v.as_arr()).unwrap().len(),
            1
        );
    }
}
