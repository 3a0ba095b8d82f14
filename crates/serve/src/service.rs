//! The sharded service: configuration, the public handles, and the
//! per-shard threads. The front door — timestamps and admission — is the
//! `admit` module. What a shard's combiner and executor decide is the step
//! machines of `combine` and `execute`; their threads here only carry out
//! the effects. The rebalancer's thread lives in `rebalance`.
//!
//! # Linearizability without a submission lock
//!
//! Timestamps come from one global `AtomicU64` with a bare `fetch_add`, so
//! a shard's ingress queue receives entries in *arrival* order, which can
//! differ slightly from timestamp order. Each combiner restores it in a
//! bounded **reorder stage** gated by a **low watermark** of in-flight
//! submissions. The argument has three steps, each stated beside the code
//! that carries it:
//!
//! 1. **The watermark invariant is about the queue** (`admit`): any request
//!    with a timestamp below a watermark was fully enqueued when it was read.
//! 2. **`Reorder::offer`'s precondition carries it to the stage**
//!    (`reorder`, the drain ↔ pop lemma): the stage releases only under the
//!    watermark of its last complete drain, so a turn that skips the drain
//!    cannot release under a fresher one.
//! 3. **Cross-epoch order is the conclusion**, and what the executor's
//!    books count breaks of (`ShardReport::epoch_order_violations`): each
//!    shard executes its slice of the history in global timestamp order,
//!    so the service linearizes at admission timestamps — a flat
//!    [`SequentialOracle`](eirene_workloads::SequentialOracle) over the
//!    timestamp-sorted submissions is a valid oracle even with concurrent
//!    lock-free clients. A split range's parts share one timestamp and are
//!    all enqueued before its slot clears, so no combiner can close an
//!    epoch between two of them.
//!
//! # Pipelining
//!
//! Each shard runs two threads joined by a depth-1 channel: the combiner
//! gathers, orders, expires and plans epoch N+1 (host work) while the
//! executor runs epoch N on the shard's device — the paper's pipelined
//! epochs at service scope.

use crate::admit::{admit_lanes, Inflight, Inner};
use crate::combine::{Combiner, Effect, ExecutorState, TurnView};
use crate::control::{BatchController, EpochSizing};
use crate::execute::{Books, Epoch};
use crate::lane::{QosConfig, TenantId};
use crate::observe::{ObserveConfig, ShardMetrics, ShardSample, SloBreach};
use crate::queue::{AdmitPolicy, IngressQueue, Segment};
use crate::rebalance::{
    rebalancer_loop, RebalanceAction, RebalanceEvent, RebalanceFeed, RebalanceShared, RebalanceSpec,
};
use crate::report::{ServeReport, ShardReport};
use crate::shard::{hash_shard, ShardId, ShardMap, Sharding};
use crate::ticket::{Outcome, Ticket};
use eirene_baselines::common::ConcurrentTree;
use eirene_core::plan::build_plan;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{Cluster, DeviceConfig, GlobalMemory, ScheduleLog};
use eirene_workloads::{Batch, Key, OpKind};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sentinel pair appended to every shard's initial pairs: `bulk_build`
/// requires a non-empty tree, and a shard's key slice may hold no initial
/// data. The key is far outside the `u32` request domain (and no request
/// window can reach it), so it is invisible to clients; reports filter it
/// from shard contents.
pub(crate) const SENTINEL_KEY: u64 = u64::MAX - 1;

/// Test-only fault injection for the admission path. `Default` injects
/// nothing; benchmarks never set this.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Panic inside the Nth (0-based) shed-mode submission call, *after*
    /// the capacity reservations and the timestamp draw and *before* the
    /// enqueue — the window where a killed submitter used to leak the
    /// reservation and wedge admission at capacity forever, and where it
    /// holds its in-flight slot. `eirene-check` uses this to prove both
    /// RAII guards release on unwind.
    pub panic_on_admit: Option<u64>,
}

/// Configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Key-range partition; one device (and tree) per shard. Under
    /// [`Sharding::Hash`] only the shard *count* is used.
    pub map: ShardMap,
    /// Range (default) or hash-scatter key placement.
    pub sharding: Sharding,
    /// Online shard rebalancing: watch the per-shard sample stream and
    /// move a hot (or cold) range boundary at an epoch boundary. `None`
    /// (the default) keeps the topology static. Requires range sharding;
    /// incompatible with schedule replay (migrations rebuild shard
    /// trees). Setting this forces [`ObserveConfig::enabled`] on — the
    /// rebalancer feeds on epoch samples.
    pub rebalance: Option<RebalanceSpec>,
    /// Base device configuration, specialized per shard by
    /// [`Cluster`](eirene_sim::Cluster) (worker split in OS mode, derived
    /// seeds in deterministic mode).
    pub device: DeviceConfig,
    /// How each shard sizes its epochs: a fixed batch limit (the paper's
    /// model, kept for ablation) or the closed-loop AIMD controller.
    pub sizing: EpochSizing,
    /// Per-tenant QoS lanes and quotas; [`QosConfig::disabled`] (the
    /// default) bypasses lanes entirely.
    pub qos: QosConfig,
    /// Admission-path fault injection for tests; inert by default.
    pub fault: FaultPlan,
    /// Bounded ingress-queue capacity per shard.
    pub queue_depth: usize,
    /// What admission does when a shard's queue is full.
    pub policy: AdmitPolicy,
    /// Upper bound on how long a combiner waits for an epoch to fill
    /// toward the batch target once it has at least one request; the
    /// combiner closes earlier once its executor is idle and either every
    /// caller the last epoch released has submitted again or one epoch's
    /// service time has passed (see "When an epoch closes" in the
    /// `combine` module docs). Zero never waits. A value too large to add to the
    /// clock (`Duration::MAX`) means "until full or the executor idles" —
    /// where an idle executor whose released callers are all back waits
    /// for the last of them to finish its submission call, however long
    /// that takes, instead of for the service time.
    pub linger: Duration,
    /// Start with the epoch gate held: combiners do not consume until
    /// [`Service::release`]. Tests use this to make epoch composition
    /// deterministic. With [`AdmitPolicy::Block`], submitting more than
    /// the total queue capacity while the gate is held deadlocks (nothing
    /// drains) — release the gate from another thread first.
    pub hold_gate: bool,
    /// Per-shard arena headroom in nodes.
    pub headroom_nodes: usize,
    /// Replay a previously captured per-shard schedule (deterministic
    /// mode); one log per shard, in shard order.
    pub replay: Option<Vec<ScheduleLog>>,
    /// Live observability: epoch-boundary metric samples, per-ticket
    /// lifecycle spans, and SLO evaluation. Disabled by default; when
    /// disabled the epoch pipeline does none of that work.
    pub observe: ObserveConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            map: ShardMap::uniform(4),
            sharding: Sharding::default(),
            rebalance: None,
            device: DeviceConfig::default(),
            sizing: EpochSizing::Fixed(4096),
            qos: QosConfig::disabled(),
            fault: FaultPlan::default(),
            queue_depth: 1 << 16,
            policy: AdmitPolicy::Block,
            linger: Duration::from_millis(1),
            hold_gate: false,
            headroom_nodes: 1 << 14,
            replay: None,
            observe: ObserveConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Small-device configuration for tests.
    pub fn test_small(shards: usize) -> Self {
        ServeConfig {
            map: ShardMap::uniform(shards),
            device: DeviceConfig::test_small(),
            sizing: EpochSizing::Fixed(1024),
            queue_depth: 1 << 12,
            headroom_nodes: 1 << 12,
            ..Default::default()
        }
    }
}

/// Shared per-shard state: the ingress queue plus the metric registry
/// holding the admission counters (always on — the final report needs
/// them) and the epoch-boundary gauges (refreshed only when observability
/// is enabled).
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) queue: IngressQueue,
    pub(crate) metrics: ShardMetrics,
    /// Written by the shard's combiner (hand-over) and executor (finish),
    /// read by the combiner's linger decision.
    executor: Mutex<ExecutorState>,
}

impl ShardState {
    pub(crate) fn new(capacity: usize, qos: &QosConfig) -> Self {
        ShardState {
            queue: IngressQueue::with_lanes(capacity, qos),
            metrics: ShardMetrics::new(qos.num_tenants()),
            executor: Mutex::new(ExecutorState::default()),
        }
    }

    fn executor(&self) -> ExecutorState {
        *self.executor.lock().unwrap()
    }

    /// Combiner side: call *before* sending the epoch, so the executor's
    /// matching [`epoch_finished`](Self::epoch_finished) never runs first.
    fn epoch_handed_over(&self) {
        self.executor.lock().unwrap().inflight += 1;
    }

    /// Executor side: call *before* the epoch's first outcome is stored — a
    /// caller reads a stored outcome without waiting for its wake, can be
    /// back before [`epoch_finished`] runs, and its push must land after
    /// the snapshot to count as a return.
    ///
    /// [`epoch_finished`]: Self::epoch_finished
    fn epoch_releasing(&self, released: u64) {
        let pushes = self.queue.pushes();
        let mut ex = self.executor.lock().unwrap();
        ex.released = released;
        ex.pushes_at_release = pushes;
    }

    /// Executor side: folds one epoch's service time into the smoothed
    /// estimate and, if that was the last epoch in flight, stamps the idle
    /// instant and wakes a lingering combiner to act on it.
    fn epoch_finished(&self, took: Duration) {
        let idle = {
            let mut ex = self.executor.lock().unwrap();
            ex.inflight -= 1;
            ex.service = Some(ex.service.map_or(took, |old| (old * 3 + took) / 4));
            let idle = ex.inflight == 0;
            if idle {
                ex.idle_since = Some(Instant::now());
            }
            idle
        };
        if idle {
            self.queue.wake();
        }
    }

    pub(crate) fn record_enqueue(&self, n: u64, depth: usize) {
        self.metrics.add(self.metrics.enqueued, n);
        self.metrics
            .record_max(self.metrics.max_depth, depth as u64);
    }

    pub(crate) fn record_shed(&self, n: u64, tenant: TenantId) {
        self.metrics.add(self.metrics.shed, n);
        self.metrics.add(self.metrics.tenant_shed[tenant], n);
    }

    pub(crate) fn record_timeout(&self, n: u64) {
        self.metrics.add(self.metrics.timed_out, n);
    }
}

impl Inner {
    fn wait_gate(&self) {
        let mut held = self.gate.lock().unwrap();
        while *held {
            held = self.gate_cv.wait(held).unwrap();
        }
    }

    fn release_gate(&self) {
        *self.gate.lock().unwrap() = false;
        self.gate_cv.notify_all();
    }
}

/// What flows over a shard's combiner→executor channel. Epochs come from
/// the combiner; the migration messages come from the rebalancer, which
/// only sends them while it holds the topology write lock and the shard
/// pair is quiescent — so they never interleave with an epoch in flight.
pub(crate) enum ExecMsg {
    Epoch(Box<Epoch>),
    /// Report the keys currently in `[lo, hi]` (the rebalancer picks the
    /// donor's median key from this).
    Probe {
        lo: Key,
        hi: Key,
        reply: Sender<Vec<Key>>,
    },
    /// Remove (in place) and return every pair in `[lo, hi]`.
    Extract {
        lo: Key,
        hi: Key,
        reply: Sender<Vec<(u64, u64)>>,
    },
    /// Fold migrated pairs into this shard's tree (rebuild).
    Absorb {
        pairs: Vec<(u64, u64)>,
        reply: Sender<()>,
    },
}

/// Cloneable submission handle to a running [`Service`]. Handles carry
/// the tenant they submit as (tenant 0 unless [`Client::for_tenant`]
/// re-bound it); without QoS lanes the tenant is purely a label.
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
    tenant: TenantId,
}

impl Client {
    /// A handle that submits as `tenant`. Panics if the tenant is outside
    /// the service's [`QosConfig`].
    pub fn for_tenant(&self, tenant: TenantId) -> Client {
        assert!(
            tenant < self.inner.qos.num_tenants(),
            "tenant {tenant} outside the configured tenant table"
        );
        Client {
            inner: self.inner.clone(),
            tenant,
        }
    }

    /// The tenant this handle submits as.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Submits a request; the returned [`Ticket`] resolves once its epoch
    /// executes (or admission sheds it).
    pub fn submit(&self, key: Key, op: OpKind) -> Ticket {
        self.inner.submit(key, op, None, 0, self.tenant)
    }

    /// Submits with a deadline: if the deadline passes before the request's
    /// epoch forms, it resolves [`Outcome::TimedOut`] without executing.
    pub fn submit_with_deadline(&self, key: Key, op: OpKind, deadline: Duration) -> Ticket {
        // A deadline too far off to represent is no deadline.
        let deadline = Instant::now().checked_add(deadline);
        self.inner.submit(key, op, deadline, 0, self.tenant)
    }

    /// Submits with a virtual arrival time in device cycles (open-loop
    /// offered-load benchmarking): the request's epoch cannot start before
    /// `arrival_cycles` on the shard's virtual clock, and its reported
    /// latency is measured from that arrival.
    pub fn submit_at(&self, key: Key, op: OpKind, arrival_cycles: u64) -> Ticket {
        self.inner
            .submit(key, op, None, arrival_cycles, self.tenant)
    }

    /// Batched submission: admits the whole slice with one timestamp
    /// range-claim and one bulk enqueue per involved shard, amortizing
    /// the per-request admission overhead. Request `i` draws timestamp
    /// `base + i`, so the batch linearizes in slice order. Tickets come
    /// back positionally.
    pub fn submit_many(&self, ops: &[(Key, OpKind)]) -> Vec<Ticket> {
        self.inner.submit_many(
            ops.len(),
            ops.iter().map(|&(k, o)| (k, o, 0)),
            None,
            self.tenant,
        )
    }

    /// [`submit_many`](Client::submit_many) with a virtual arrival time
    /// (device cycles) per request.
    pub fn submit_many_at(&self, ops: &[(Key, OpKind, u64)]) -> Vec<Ticket> {
        self.inner
            .submit_many(ops.len(), ops.iter().copied(), None, self.tenant)
    }

    /// A snapshot of the service's current shard map. With online
    /// rebalancing enabled the live map can move at any epoch boundary,
    /// so this returns a clone, not a reference.
    pub fn map(&self) -> ShardMap {
        self.inner.topology.read().unwrap().clone()
    }

    /// Current ingress-queue depth of one shard.
    pub fn queue_depth(&self, shard: ShardId) -> usize {
        self.inner.shards[shard].queue.depth()
    }
}

/// A running sharded serving instance: `N` shards, each owning one device
/// and one Eirene GB-tree, fed by bounded ingress queues.
pub struct Service {
    inner: Arc<Inner>,
    combiners: Vec<JoinHandle<()>>,
    executors: Vec<JoinHandle<ShardReport>>,
    device: DeviceConfig,
    /// Present iff [`ServeConfig::rebalance`] was set.
    rebalance: Option<Arc<RebalanceShared>>,
    rebalancer: Option<JoinHandle<()>>,
}

impl Service {
    /// Builds the service from strictly-ascending initial `(key, value)`
    /// pairs (keys must fit the `u32` request domain), partitioned onto the
    /// shard trees, and spawns every shard's combiner/executor pair.
    pub fn new(pairs: &[(u64, u64)], mut cfg: ServeConfig) -> Self {
        let num_shards = cfg.map.num_shards();
        if let Some(replay) = &cfg.replay {
            assert_eq!(replay.len(), num_shards, "one replay log per shard");
        }
        if cfg.rebalance.is_some() {
            assert_eq!(
                cfg.sharding,
                Sharding::Range,
                "online rebalancing moves range boundaries; hash scatter has none"
            );
            assert!(
                cfg.replay.is_none(),
                "online rebalancing rebuilds shard trees, invalidating schedule replay"
            );
            // The rebalancer feeds on the epoch sample stream; span
            // recording still honors span_capacity (0 records none).
            cfg.observe.enabled = true;
        }
        let rebalance_shared = cfg
            .rebalance
            .as_ref()
            .map(|_| Arc::new(RebalanceShared::default()));
        if let Some(shared) = &rebalance_shared {
            shared.set_shards(num_shards);
            cfg.observe.observer = Some(Arc::new(RebalanceFeed {
                shared: shared.clone(),
                user: cfg.observe.observer.take(),
                last_enqueued: Mutex::new(vec![0; num_shards]),
            }));
        }
        let cluster = Cluster::new(&cfg.device, num_shards);
        let mut shard_pairs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); num_shards];
        for &(k, v) in pairs {
            assert!(
                k <= Key::MAX as u64,
                "initial key {k} outside the u32 request domain"
            );
            let home = match cfg.sharding {
                Sharding::Range => cfg.map.shard_of(k as Key),
                Sharding::Hash => hash_shard(k as Key, num_shards),
            };
            shard_pairs[home].push((k, v));
        }
        for sp in &mut shard_pairs {
            sp.push((SENTINEL_KEY, 0));
        }
        let states: Vec<Arc<ShardState>> = (0..num_shards)
            .map(|_| Arc::new(ShardState::new(cfg.queue_depth, &cfg.qos)))
            .collect();
        let inner = Arc::new(Inner {
            topology: RwLock::new(cfg.map.clone()),
            sharding: cfg.sharding,
            shards: states.clone(),
            next_ts: AtomicU64::new(0),
            inflight: Inflight::new(),
            gate: Mutex::new(cfg.hold_gate),
            gate_cv: Condvar::new(),
            policy: cfg.policy,
            qos: cfg.qos.clone(),
            fault: cfg.fault.clone(),
            admit_seq: AtomicU64::new(0),
        });
        let mut replays: Vec<Option<ScheduleLog>> = match cfg.replay {
            Some(logs) => logs.into_iter().map(Some).collect(),
            None => vec![None; num_shards],
        };
        let mut combiners = Vec::with_capacity(num_shards);
        let mut executors = Vec::with_capacity(num_shards);
        // The rebalancer keeps a clone of every executor channel for its
        // migration messages; the clones exist only when rebalancing is
        // configured, so executors still exit when their combiner (and
        // the joined rebalancer) drop their senders.
        let mut exec_txs: Vec<SyncSender<ExecMsg>> = Vec::new();
        for (shard, pairs) in shard_pairs.into_iter().enumerate() {
            let shard_cfg = cluster.config(shard).clone();
            let (tx, rx) = std::sync::mpsc::sync_channel::<ExecMsg>(1);
            if rebalance_shared.is_some() {
                exec_txs.push(tx.clone());
            }
            // One controller per shard, shared combiner-side (reads the
            // target) and executor-side (feeds epoch signals back).
            let controller = Arc::new(BatchController::new(cfg.sizing.clone()));
            let (inner2, combine_ctl) = (inner.clone(), controller.clone());
            let (plan_cfg, linger, observe) = (shard_cfg.clone(), cfg.linger, cfg.observe.enabled);
            combiners.push(
                std::thread::Builder::new()
                    .name(format!("serve-combine-{shard}"))
                    .spawn(move || {
                        combiner_loop(&inner2, shard, &plan_cfg, &combine_ctl, linger, observe, tx)
                    })
                    .expect("spawn combiner"),
            );
            let state = states[shard].clone();
            let books = Books::new(
                shard,
                state.queue.num_tenants(),
                shard_cfg.control_latency,
                &cfg.observe,
                cfg.sizing.is_adaptive(),
            );
            let opts = EireneOptions {
                device: shard_cfg,
                headroom_nodes: cfg.headroom_nodes,
                ..Default::default()
            };
            let (replay, observe) = (replays[shard].take(), cfg.observe.clone());
            executors.push(
                std::thread::Builder::new()
                    .name(format!("serve-exec-{shard}"))
                    .spawn(move || {
                        // `opts` outlives the first build: rebalance
                        // migrations rebuild the tree with the same options.
                        let tree = fresh_tree(&state, &pairs, &opts);
                        if let Some(log) = replay {
                            tree.device().set_replay_log(log);
                        }
                        executor_loop(&state, tree, &opts, books, &observe, &controller, &rx)
                    })
                    .expect("spawn executor"),
            );
        }
        let rebalancer = cfg.rebalance.map(|spec| {
            let shared = rebalance_shared
                .clone()
                .expect("shared state exists when rebalance is configured");
            let inner2 = inner.clone();
            let observer = cfg.observe.observer.clone();
            std::thread::Builder::new()
                .name("serve-rebalance".into())
                .spawn(move || rebalancer_loop(&inner2, &shared, &spec, &exec_txs, observer))
                .expect("spawn rebalancer")
        });
        Service {
            inner,
            combiners,
            executors,
            device: cfg.device,
            rebalance: rebalance_shared,
            rebalancer,
        }
    }

    /// A new submission handle (tenant 0; see [`Client::for_tenant`]).
    pub fn client(&self) -> Client {
        Client {
            inner: self.inner.clone(),
            tenant: 0,
        }
    }

    /// Opens the epoch gate (no-op unless the service was built with
    /// [`ServeConfig::hold_gate`]).
    pub fn release(&self) {
        self.inner.release_gate();
    }

    /// Queues an explicit topology change on the rebalancer, bypassing
    /// the sample-driven policy (tests and the fuzzer use this with
    /// [`RebalanceSpec::manual`] for deterministic splits/merges). The
    /// action runs asynchronously; poll [`rebalance_attempts`]
    /// (monotone, bumped once per processed action — published or
    /// skipped) to await it. Do not force while the epoch gate is held:
    /// quiescing a shard pair needs the combiners draining.
    ///
    /// # Panics
    /// Panics if the service was built without [`ServeConfig::rebalance`].
    ///
    /// [`rebalance_attempts`]: Service::rebalance_attempts
    pub fn force_rebalance(&self, action: RebalanceAction) {
        self.rebalance
            .as_ref()
            .expect("service was built without ServeConfig::rebalance")
            .force(action);
    }

    /// Rebalance actions fully processed so far (published or skipped as
    /// no-ops). 0 when rebalancing is not configured.
    pub fn rebalance_attempts(&self) -> u64 {
        self.rebalance.as_ref().map_or(0, |s| s.attempts_done())
    }

    /// Topology changes published so far, in sequence order.
    pub fn rebalance_events(&self) -> Vec<RebalanceEvent> {
        self.rebalance
            .as_ref()
            .map_or_else(Vec::new, |s| s.events())
    }

    /// Drains and stops the service: closes admission, executes every
    /// already-admitted epoch, joins the pipelines, and returns the final
    /// report.
    pub fn shutdown(mut self) -> ServeReport {
        // Stop the rebalancer first: it holds executor channel senders
        // (joined executors below require every sender dropped), and no
        // topology change may race the close sequence.
        let rebalances = match (self.rebalancer.take(), self.rebalance.take()) {
            (Some(handle), Some(shared)) => {
                shared.stop();
                handle.join().expect("rebalancer panicked");
                shared.events()
            }
            _ => Vec::new(),
        };
        if self.inner.qos.enabled() {
            // Two-phase in QoS mode: refuse new lane arrivals first and
            // let the combiners admit everything already staged (a lane
            // admission may still fan split parts into *peer* ingress
            // queues); only close the queues once every shard's lanes
            // have quiesced, so no admitted part hits a closed queue.
            for state in &self.inner.shards {
                state.queue.close_lanes();
            }
            self.inner.release_gate();
            while !self.inner.shards.iter().all(|s| s.queue.lanes_quiesced()) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        for state in &self.inner.shards {
            state.queue.close();
        }
        self.inner.release_gate();
        for handle in self.combiners {
            handle.join().expect("combiner panicked");
        }
        let mut shards: Vec<ShardReport> = self
            .executors
            .into_iter()
            .map(|handle| handle.join().expect("executor panicked"))
            .collect();
        shards.sort_by_key(|r| r.shard);
        ServeReport {
            shards,
            device: self.device,
            rebalances,
        }
    }
}

/// The combiner's thread: carries out what its [`Combiner`] asks, until
/// it exits or the executor is gone.
fn combiner_loop(
    inner: &Inner,
    shard: ShardId,
    plan_cfg: &DeviceConfig,
    controller: &BatchController,
    linger: Duration,
    observe: bool,
    tx: SyncSender<ExecMsg>,
) {
    let state = &*inner.shards[shard];
    let qos = inner.qos.enabled();
    let lane_pending = || if qos { state.queue.lane_pending() } else { 0 };
    let mut combiner = Combiner::new(controller.max_target(), linger);
    loop {
        inner.wait_gate();
        let mut effect = combiner.turn(TurnView {
            now: Instant::now(),
            target: controller.target().max(1),
            executor: state.executor(),
            staged: lane_pending(),
        });
        if let Effect::Drain { admit, wait } = effect {
            if let Some(budget) = admit {
                admit_lanes(inner, state, shard, budget, combiner.stage());
            }
            // The watermark first, *then* the drain: the order
            // `Reorder::offer` requires. Lane entries admitted earlier drew
            // their timestamps before this read, so it covers them too.
            let wm = inner.watermark();
            effect = combiner.drained(wm, state.queue.drain(wait));
        }
        match effect {
            Effect::Expire(expired) => {
                let timed_out = expired.iter().map(Segment::len).sum::<usize>();
                state.record_timeout(timed_out as u64);
                for seg in &expired {
                    seg.fail(&Outcome::TimedOut);
                }
            }
            Effect::BackOff(pause) if pause.is_zero() => std::thread::yield_now(),
            Effect::BackOff(pause) => std::thread::sleep(pause),
            Effect::HandOver { segments, close } => {
                let n = segments.iter().map(Segment::len).sum();
                let mut requests = Vec::with_capacity(n);
                for seg in &segments {
                    requests.extend_from_slice(&seg.reqs);
                }
                let batch = Batch::new(requests);
                let plan = build_plan(&batch, plan_cfg);
                let (watermark_lag, inflight) = if observe { inner.gauges() } else { (0, 0) };
                let epoch = Epoch {
                    batch,
                    plan,
                    segments,
                    close,
                    queue_depth: state.queue.depth() as u64,
                    reorder_pending: combiner.stage().len() as u64,
                    lane_depth: lane_pending() as u64,
                    watermark_lag,
                    inflight,
                };
                state.epoch_handed_over();
                if tx.send(ExecMsg::Epoch(Box::new(epoch))).is_err() {
                    return; // executor gone
                }
            }
            Effect::Exit => return,
            // `drained` never asks for another drain.
            Effect::NextTurn | Effect::Drain { .. } => {}
        }
    }
}

/// A shard tree over `pairs` (sentinel included), with the shard's key
/// count and arena gauges set from it.
fn fresh_tree(state: &ShardState, pairs: &[(u64, u64)], opts: &EireneOptions) -> EireneTree {
    let tree = EireneTree::new(pairs, opts.clone());
    // Sentinel excluded: the gauge counts client-visible keys.
    let m = &state.metrics;
    m.set(m.key_count, pairs.len() as u64 - 1);
    set_arena_gauges(state, tree.device().mem());
    tree
}

/// The executor's thread: runs epochs and the rebalancer's migrations on
/// the shard's tree, resolves tickets in the order the combiner's
/// `Returned` exit counts on, keeps the registry, and feeds its [`Books`].
fn executor_loop(
    state: &ShardState,
    mut tree: EireneTree,
    opts: &EireneOptions,
    mut books: Books,
    observe: &ObserveConfig,
    controller: &BatchController,
    rx: &Receiver<ExecMsg>,
) -> ShardReport {
    let m = &state.metrics;
    while let Ok(msg) = rx.recv() {
        let epoch = match msg {
            ExecMsg::Epoch(epoch) => *epoch,
            ExecMsg::Probe { lo, hi, reply } => {
                let keys = eirene_btree::refops::contents(tree.device().mem(), tree.handle())
                    .into_iter()
                    .filter_map(|(k, _)| (k >= lo as u64 && k <= hi as u64).then_some(k as Key))
                    .collect();
                let _ = reply.send(keys);
                continue;
            }
            ExecMsg::Extract { lo, hi, reply } => {
                // Donor-side migration runs in place: every donated key
                // goes through the merging delete path, so emptied donor
                // nodes are tombstoned and retired into the shard's slab
                // arena — and recycled at the epoch advance below — rather
                // than discarded by a tree rebuild. The sentinel key sits
                // above the u32 domain (`hi` is a u32 key), so the tree
                // never empties. Migration is host work: it charges no
                // virtual cycles and leaves the shard clock alone.
                let all = eirene_btree::refops::contents(tree.device().mem(), tree.handle());
                let (moved, keep): (Vec<_>, Vec<_>) = all
                    .into_iter()
                    .partition(|&(k, _)| k >= lo as u64 && k <= hi as u64);
                for &(k, _) in &moved {
                    eirene_btree::refops::delete(tree.device().mem(), tree.handle(), k);
                }
                // The pair is quiescent (no epoch in flight), so the
                // retired donor nodes are reclaimable immediately.
                tree.device().mem().advance_epoch();
                m.set(m.key_count, keep.len() as u64 - 1);
                set_arena_gauges(state, tree.device().mem());
                let _ = reply.send(moved);
                continue;
            }
            ExecMsg::Absorb {
                pairs: migrated,
                reply,
            } => {
                let mut all = eirene_btree::refops::contents(tree.device().mem(), tree.handle());
                all.extend(migrated);
                // Shards own disjoint key sets, so the merge has no
                // duplicates; bulk_build wants ascending keys.
                all.sort_unstable();
                tree = fresh_tree(state, &all, opts);
                let _ = reply.send(());
                continue;
            }
        };
        let received = Instant::now();
        let run = tree.run_planned(&epoch.batch, &epoch.plan);
        // Release the callers first: the books read only the segments and
        // the run's counters, and nobody should wait on them. Each segment
        // stores its outcomes, then wakes its callers once.
        state.epoch_releasing(epoch.segments.len() as u64);
        let mut responses = run.responses.into_iter();
        for seg in &epoch.segments {
            seg.settle(responses.by_ref());
        }
        state.epoch_finished(received.elapsed());
        if let Some(feedback) = books.record(&epoch, run.stats) {
            controller.on_epoch(&feedback);
        }
        debug_assert_eq!(
            books.epoch_order_violations,
            0,
            "successive epochs must be timestamp-ordered: this one starts at ts {:?}",
            epoch.batch.requests.first().map(|r| r.ts)
        );
        m.record_epoch(epoch.close);
        m.add(m.completed, epoch.batch.len() as u64);
        // Combine-path gauges mirror the cumulative device totals, so the
        // terminal sample (and hence the report) reconciles exactly.
        m.set(m.descents_saved, books.stats.totals.descents_saved);
        m.set(m.pivot_cache_hits, books.stats.totals.pivot_cache_hits);
        if observe.enabled {
            m.set(m.epoch_batch, epoch.batch.len() as u64);
            m.set(m.queue_depth, epoch.queue_depth);
            m.set(m.reorder_pending, epoch.reorder_pending);
            m.set(m.lane_pending, epoch.lane_depth);
            m.set(m.batch_target, controller.target() as u64);
            m.set(m.watermark_lag, epoch.watermark_lag);
            m.set(m.inflight, epoch.inflight);
            // `run_planned` advanced the reclamation epoch at the batch
            // boundary, so `retired` here is quarantine that survived the
            // advance (normally 0).
            set_arena_gauges(state, tree.device().mem());
            let (sample, breaches) = books.sample(m, false);
            emit(observe, &sample, breaches);
        }
    }
    // Terminal sample: one final snapshot after the pipeline drained. The
    // combiner has exited, so every admission counter is final — the
    // report's totals are taken FROM this snapshot, which is what makes
    // live sampled series reconcile exactly with the final report.
    if observe.enabled {
        m.set(m.queue_depth, state.queue.depth() as u64);
        m.set(m.epoch_batch, 0);
        m.set(m.reorder_pending, 0);
        m.set(m.watermark_lag, 0);
        m.set(m.inflight, 0);
        m.set(m.lane_pending, 0);
        // The terminal sample keeps the controller's final target, so a
        // sampled series ends on the value the report carries.
        m.set(m.batch_target, controller.target() as u64);
    }
    let structure = eirene_btree::validate::validate(tree.device().mem(), tree.handle())
        .map(|_| ())
        .map_err(|e| e.to_string());
    let contents: Vec<(u64, u64)> =
        eirene_btree::refops::contents(tree.device().mem(), tree.handle())
            .into_iter()
            .filter(|&(k, _)| k != SENTINEL_KEY)
            .collect();
    // Contents are final here (the pipeline has drained), so the
    // terminal sample's key_count is exact — mid-run the gauge only
    // tracks builds and migrations, not per-epoch mutations.
    m.set(m.key_count, contents.len() as u64);
    set_arena_gauges(state, tree.device().mem());
    let (terminal, breaches) = books.sample(m, true);
    if observe.enabled {
        emit(observe, &terminal, breaches);
    }
    let (target, schedule) = (
        controller.target() as u64,
        tree.device().take_schedule_log(),
    );
    books.finish(terminal, target, schedule, contents, structure)
}

/// Refreshes the shard's slab-arena occupancy gauges from its device.
fn set_arena_gauges(state: &ShardState, mem: &GlobalMemory) {
    let st = mem.slab_stats();
    let m = &state.metrics;
    m.set(m.arena_live, st.live);
    m.set(m.arena_retired, st.retired);
}

/// Hands one sample, then the SLO breaches it tripped, to the registered
/// observer.
fn emit(observe: &ObserveConfig, sample: &ShardSample, breaches: &[SloBreach]) {
    if let Some(observer) = &observe.observer {
        observer.on_sample(sample);
        for breach in breaches {
            observer.on_breach(breach);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::RebalanceKind;
    use crate::ticket::{Slot, TicketBatch};
    use eirene_workloads::{Oracle, Request, Response, SequentialOracle};

    fn boundary_map() -> ShardMap {
        ShardMap::from_starts(vec![0, 1000, 2000, 3000]).expect("valid shard starts")
    }

    fn small_cfg(map: ShardMap) -> ServeConfig {
        ServeConfig {
            map,
            ..ServeConfig::test_small(4)
        }
    }

    fn initial_pairs() -> Vec<(u64, u64)> {
        // Even keys 0..4000: ~500 per shard of `boundary_map`, plus the
        // whole tail of the domain on shard 3.
        (0..2000u64).map(|i| (2 * i, i + 1)).collect()
    }

    fn boundary_ops() -> Vec<(Key, OpKind)> {
        // Ops deliberately straddle every shard and hit boundary keys.
        vec![
            (999, OpKind::Upsert(71)),
            (999, OpKind::Query),
            (1000, OpKind::Delete),
            (1000, OpKind::Query),
            (2000, OpKind::Upsert(72)),
            (2999, OpKind::Query),
            (3000, OpKind::Query),
            (0, OpKind::Delete),
            (0, OpKind::Query),
            (2000, OpKind::Query),
        ]
    }

    fn check_ops_against_oracle(cfg: ServeConfig, batched: bool) {
        let pairs = initial_pairs();
        let ops = boundary_ops();
        let svc = Service::new(&pairs, cfg);
        let client = svc.client();
        let tickets: Vec<Ticket> = if batched {
            client.submit_many(&ops)
        } else {
            ops.iter().map(|&(k, op)| client.submit(k, op)).collect()
        };
        svc.release();
        let report = svc.shutdown();

        let reqs: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(ts, &(key, op))| Request {
                key,
                op,
                ts: ts as u64,
            })
            .collect();
        let oracle_pairs: Vec<(Key, Key)> =
            pairs.iter().map(|&(k, v)| (k as Key, v as Key)).collect();
        let mut oracle = SequentialOracle::load(&oracle_pairs);
        let want = oracle.run_batch(&Batch::new(reqs));
        for (i, (ticket, want)) in tickets.iter().zip(want).enumerate() {
            assert_eq!(ticket.wait(), Outcome::Done(want), "response {i}");
            assert_eq!(ticket.timestamp(), Some(i as u64));
        }
        assert_eq!(report.executed(), ops.len() as u64);
        let want_contents: Vec<(u64, u64)> = oracle
            .contents()
            .iter()
            .map(|(&k, &v)| (k as u64, v as u64))
            .collect();
        assert_eq!(report.contents(), want_contents);
        report.assert_consistent();
    }

    #[test]
    fn point_ops_match_the_oracle_across_shards() {
        let mut cfg = small_cfg(boundary_map());
        cfg.hold_gate = true;
        check_ops_against_oracle(cfg, false);
    }

    #[test]
    fn submit_many_matches_the_oracle_across_shards() {
        let mut cfg = small_cfg(boundary_map());
        cfg.hold_gate = true;
        check_ops_against_oracle(cfg, true);
    }

    #[test]
    fn split_ranges_merge_across_shards() {
        let pairs = initial_pairs();
        let mut cfg = small_cfg(boundary_map());
        cfg.hold_gate = true;
        let svc = Service::new(&pairs, cfg);
        let client = svc.client();
        // Mutate around a boundary, then read a window straddling all of
        // shards 0..=2 at a later timestamp.
        let t0 = client.submit(998, OpKind::Upsert(7));
        let t1 = client.submit(1002, OpKind::Delete);
        let t2 = client.submit(995, OpKind::Range { len: 1010 });
        // Zero-length ranges resolve immediately and are not admitted:
        // the ticket carries no timestamp.
        let t3 = client.submit(995, OpKind::Range { len: 0 });
        assert_eq!(t3.wait(), Outcome::Done(Response::Range(Vec::new())));
        assert_eq!(t3.timestamp(), None);
        svc.release();
        let report = svc.shutdown();

        let oracle_pairs: Vec<(Key, Key)> =
            pairs.iter().map(|&(k, v)| (k as Key, v as Key)).collect();
        let mut oracle = SequentialOracle::load(&oracle_pairs);
        let want = oracle.run_batch(&Batch::new(vec![
            Request::upsert(998, 7, 0),
            Request::delete(1002, 1),
            Request::range(995, 1010, 2),
        ]));
        assert_eq!(t0.wait(), Outcome::Done(want[0].clone()));
        assert_eq!(t1.wait(), Outcome::Done(want[1].clone()));
        assert_eq!(t2.wait(), Outcome::Done(want[2].clone()));
        // Every part of the split range shares the range's timestamp.
        assert_eq!(t2.timestamp(), Some(2));
        // The range window [995, 2004] split into three parts (shards 0,
        // 1 and 2), so 2 point entries + 3 range parts were admitted.
        assert_eq!(report.enqueued(), 5);
        report.assert_consistent();
    }

    #[test]
    fn hash_sharding_matches_the_oracle_including_ranges() {
        let pairs = initial_pairs();
        let mut cfg = small_cfg(boundary_map());
        cfg.sharding = Sharding::Hash;
        cfg.hold_gate = true;
        let svc = Service::new(&pairs, cfg);
        let client = svc.client();
        let mut ops = boundary_ops();
        // Ranges under hash sharding scatter-gather across every shard.
        ops.push((995, OpKind::Range { len: 1010 }));
        ops.push((0, OpKind::Range { len: 20 }));
        let tickets: Vec<Ticket> = ops.iter().map(|&(k, op)| client.submit(k, op)).collect();
        svc.release();
        let report = svc.shutdown();

        let oracle_pairs: Vec<(Key, Key)> =
            pairs.iter().map(|&(k, v)| (k as Key, v as Key)).collect();
        let mut oracle = SequentialOracle::load(&oracle_pairs);
        let reqs: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(ts, &(key, op))| Request {
                key,
                op,
                ts: ts as u64,
            })
            .collect();
        let want = oracle.run_batch(&Batch::new(reqs));
        for (i, (ticket, want)) in tickets.iter().zip(want).enumerate() {
            assert_eq!(ticket.wait(), Outcome::Done(want), "response {i}");
        }
        let want_contents: Vec<(u64, u64)> = oracle
            .contents()
            .iter()
            .map(|(&k, &v)| (k as u64, v as u64))
            .collect();
        assert_eq!(report.contents(), want_contents);
        // Each range fanned out to all 4 shards: 10 points + 2 * 4 parts.
        assert_eq!(report.enqueued(), 18);
        report.assert_consistent();
    }

    #[test]
    fn forced_split_and_merge_migrate_keys_and_emit_events() {
        let pairs = initial_pairs();
        let mut cfg = small_cfg(boundary_map());
        cfg.rebalance = Some(RebalanceSpec::manual());
        let svc = Service::new(&pairs, cfg);
        let client = svc.client();

        // Half the ops before any topology change...
        let ops = boundary_ops();
        let (first, second) = ops.split_at(ops.len() / 2);
        let t1: Vec<Ticket> = first.iter().map(|&(k, op)| client.submit(k, op)).collect();

        // ...then force a split of shard 1 and a merge of shard 0 into
        // shard 1, waiting for each attempt to finish.
        svc.force_rebalance(RebalanceAction::Split { shard: 1 });
        while svc.rebalance_attempts() < 1 {
            std::thread::sleep(Duration::from_micros(50));
        }
        svc.force_rebalance(RebalanceAction::Merge { left: 0 });
        while svc.rebalance_attempts() < 2 {
            std::thread::sleep(Duration::from_micros(50));
        }

        // The published topology is visible to clients and routes the
        // remaining ops correctly.
        let map = client.map();
        assert_eq!(map.num_shards(), 4);
        let t2: Vec<Ticket> = second.iter().map(|&(k, op)| client.submit(k, op)).collect();
        let report = svc.shutdown();

        let events = &report.rebalances;
        assert_eq!(events.len(), 2, "events: {events:?}");
        assert_eq!(events[0].kind, RebalanceKind::Split);
        assert!(events[0].forced);
        assert!(events[0].moved_keys > 0);
        assert_eq!(events[1].kind, RebalanceKind::Merge);
        assert_eq!(events[1].from, 0);
        assert_eq!(events[1].to, 1);
        // The merge left shard 0 a width-1 remnant.
        assert_eq!(map.start_of(1), 1);

        let oracle_pairs: Vec<(Key, Key)> =
            pairs.iter().map(|&(k, v)| (k as Key, v as Key)).collect();
        let mut oracle = SequentialOracle::load(&oracle_pairs);
        let reqs: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(ts, &(key, op))| Request {
                key,
                op,
                ts: ts as u64,
            })
            .collect();
        let want = oracle.run_batch(&Batch::new(reqs));
        for (i, (ticket, want)) in t1.iter().chain(&t2).zip(want).enumerate() {
            assert_eq!(ticket.wait(), Outcome::Done(want), "response {i}");
        }
        let want_contents: Vec<(u64, u64)> = oracle
            .contents()
            .iter()
            .map(|(&k, &v)| (k as u64, v as u64))
            .collect();
        assert_eq!(report.contents(), want_contents);
        report.assert_consistent();
    }

    #[test]
    fn auto_rebalance_splits_a_hot_shard_under_skew() {
        // Shard 0 owns the whole hot prefix; hammer it and the policy
        // must move its boundary toward shard 1.
        let pairs: Vec<(u64, u64)> = (0..2000u64).map(|i| (i, i + 1)).collect();
        let mut cfg =
            small_cfg(ShardMap::from_starts(vec![0, 1 << 20]).expect("valid shard starts"));
        cfg.rebalance = Some(RebalanceSpec {
            sustain_epochs: 1,
            cooldown_epochs: 0,
            min_depth: 1,
            ..RebalanceSpec::default()
        });
        cfg.sizing = EpochSizing::Fixed(64);
        let svc = Service::new(&pairs, cfg);
        let client = svc.client();
        let mut tickets = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.rebalance_events().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "no rebalance after 10s"
            );
            for k in 0..512u32 {
                tickets.push(client.submit(k % 2000, OpKind::Query));
            }
        }
        let report = svc.shutdown();
        for t in &tickets {
            assert!(matches!(t.wait(), Outcome::Done(_)));
        }
        let events = &report.rebalances;
        assert!(!events.is_empty());
        assert_eq!(events[0].kind, RebalanceKind::Split);
        assert!(!events[0].forced);
        assert_eq!(events[0].from, 0);
        report.assert_consistent();
    }

    #[test]
    fn shed_policy_rejects_deterministically_at_capacity() {
        let mut cfg =
            small_cfg(ShardMap::from_starts(vec![0, 1 << 16]).expect("valid shard starts"));
        cfg.policy = AdmitPolicy::Shed;
        cfg.queue_depth = 4;
        cfg.hold_gate = true;
        let svc = Service::new(&[(2, 1), (1 << 20, 1)], cfg);
        let client = svc.client();
        let mut ok = Vec::new();
        for i in 0..4 {
            ok.push(client.submit(i, OpKind::Query));
        }
        // Queue 0 is full and the gate is held: the next submission to
        // shard 0 is shed immediately and deterministically.
        let shed = client.submit(5, OpKind::Query);
        assert_eq!(shed.try_get(), Some(Outcome::Rejected));
        // Other shards still have room.
        let other = client.submit(1 << 20, OpKind::Query);
        assert_eq!(other.try_get(), None);
        svc.release();
        let report = svc.shutdown();
        for t in &ok {
            assert!(matches!(t.wait(), Outcome::Done(_)));
        }
        assert!(matches!(other.wait(), Outcome::Done(_)));
        assert_eq!(report.shards[0].shed, 1);
        assert_eq!(report.shards[0].executed, 4);
        assert_eq!(report.shards[0].max_queue_depth, 4);
        assert_eq!(report.shards[1].shed, 0);
        report.assert_consistent();
    }

    #[test]
    fn racing_submitters_never_over_admit_past_queue_depth() {
        // Two submitter threads race 8 requests each at a depth-4 queue
        // with the gate held (nothing drains): admission must grant
        // exactly 4 slots total, shed the other 12, and stay balanced —
        // the accounting race the reservation protocol closes.
        const THREADS: usize = 2;
        const PER_THREAD: usize = 8;
        let mut cfg = small_cfg(ShardMap::uniform(1));
        cfg.policy = AdmitPolicy::Shed;
        cfg.queue_depth = 4;
        cfg.hold_gate = true;
        let svc = Service::new(&[(2, 1)], cfg);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let client = svc.client();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Mix the single and batched admission paths.
                        if i % 2 == 0 {
                            let _ = client.submit((t * 100 + i) as Key, OpKind::Query);
                        } else {
                            let _ = client.submit_many(&[((t * 100 + i) as Key, OpKind::Query)]);
                        }
                    }
                });
            }
        });
        svc.release();
        let report = svc.shutdown();
        assert_eq!(report.enqueued(), 4, "over-admission past queue depth");
        assert_eq!(report.shed(), (THREADS * PER_THREAD) as u64 - 4);
        assert_eq!(report.executed(), 4);
        assert_eq!(report.shards[0].max_queue_depth, 4);
        report.assert_consistent();
    }

    #[test]
    fn block_policy_blocks_until_the_queue_drains() {
        let mut cfg = small_cfg(ShardMap::uniform(2));
        cfg.queue_depth = 1;
        cfg.hold_gate = true;
        let svc = Service::new(&[(2, 1)], cfg);
        let client = svc.client();
        let first = client.submit(10, OpKind::Query);
        let client2 = client.clone();
        let blocked = std::thread::spawn(move || client2.submit(11, OpKind::Query).wait());
        // The second submission is stuck behind the full depth-1 queue.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(first.try_get(), None);
        assert!(!blocked.is_finished());
        // Releasing the gate lets the combiner drain the queue, unblocking
        // the submitter; both requests then execute.
        svc.release();
        assert!(matches!(blocked.join().unwrap(), Outcome::Done(_)));
        assert!(matches!(first.wait(), Outcome::Done(_)));
        let report = svc.shutdown();
        assert_eq!(report.executed(), 2);
        assert_eq!(report.shed(), 0);
        report.assert_consistent();
    }

    #[test]
    fn expired_deadlines_time_out_without_executing() {
        let mut cfg = small_cfg(ShardMap::uniform(2));
        cfg.hold_gate = true;
        let svc = Service::new(&[(2, 1)], cfg);
        let client = svc.client();
        // The upsert's deadline expires while the gate is held, so it must
        // never mutate the tree; the later query proves it.
        let doomed = client.submit_with_deadline(50, OpKind::Upsert(9), Duration::ZERO);
        let witness = client.submit(50, OpKind::Query);
        std::thread::sleep(Duration::from_millis(5));
        svc.release();
        assert_eq!(doomed.wait(), Outcome::TimedOut);
        assert_eq!(witness.wait(), Outcome::Done(Response::Value(None)));
        let report = svc.shutdown();
        assert_eq!(report.timed_out(), 1);
        assert_eq!(report.executed(), 1);
        assert_eq!(report.enqueued(), 2);
        assert!(report.contents().iter().all(|&(k, _)| k != 50));
        report.assert_consistent();
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let svc = Service::new(&[(2, 1)], small_cfg(ShardMap::uniform(2)));
        let client = svc.client();
        let before = client.submit(3, OpKind::Query);
        assert!(matches!(before.wait(), Outcome::Done(_)));
        let _ = svc.shutdown();
        let after = client.submit(3, OpKind::Query);
        assert_eq!(after.wait(), Outcome::Rejected);
        for t in client.submit_many(&[(3, OpKind::Query), (5, OpKind::Query)]) {
            assert_eq!(t.wait(), Outcome::Rejected);
        }
    }

    #[test]
    fn live_observability_samples_spans_and_reconciles() {
        use crate::observe::{reconcile_samples, SeriesCollector, SloSpec};
        let collector = SeriesCollector::new();
        let mut cfg = small_cfg(boundary_map());
        cfg.hold_gate = true;
        cfg.observe = ObserveConfig {
            // A 1-cycle p99 budget cannot be met: every sample breaches,
            // proving the monitor and observer wiring end to end.
            slo: Some(SloSpec {
                p99_max_cycles: Some(1),
                shed_rate_max: None,
                window_epochs: 4,
            }),
            ..ObserveConfig::with_observer(collector.clone())
        };
        let pairs = initial_pairs();
        let ops = boundary_ops();
        let svc = Service::new(&pairs, cfg);
        let client = svc.client();
        let tickets = client.submit_many(&ops);
        svc.release();
        let report = svc.shutdown();
        for t in &tickets {
            assert!(matches!(t.wait(), Outcome::Done(_)));
        }
        // assert_consistent now also checks the span invariants (count,
        // monotonicity, telescoping, histogram-sum agreement).
        report.assert_consistent();
        assert!(report.shards.iter().all(|s| s.spans_enabled));
        assert_eq!(report.spans().len() as u64, report.executed());
        for span in report.spans() {
            assert!(span.is_monotone());
            assert!(span.epoch >= 1);
        }
        // The live sample series reconciles exactly with the report.
        let samples = collector.samples();
        assert!(!samples.is_empty());
        reconcile_samples(&samples, &report).expect("samples reconcile");
        // Every epoch closed for exactly one cause, and a series that
        // miscounts one no longer reconciles.
        for s in &report.shards {
            assert_eq!(s.closed.total(), s.epochs);
        }
        let mut tampered = samples.clone();
        let bumped = tampered.iter_mut().find(|s| s.batch_size > 0).unwrap();
        bumped.closed.linger += 1;
        let err = reconcile_samples(&tampered, &report).unwrap_err();
        assert!(err.contains("close causes"), "{err}");
        // Terminal samples exist for every shard, even idle ones.
        assert_eq!(
            samples.iter().filter(|s| s.terminal).count(),
            report.shards.len()
        );
        // The impossible SLO tripped, and breaches reached both the
        // observer and the report.
        let live = collector.breaches();
        assert!(!live.is_empty());
        assert_eq!(report.breaches().len(), live.len());
    }

    #[test]
    fn spans_stamp_virtual_arrivals_and_match_latency() {
        let collector = crate::observe::SeriesCollector::new();
        let mut cfg = small_cfg(ShardMap::uniform(1));
        cfg.hold_gate = true;
        cfg.observe = ObserveConfig::with_observer(collector.clone());
        let svc = Service::new(&[(2, 1)], cfg);
        let client = svc.client();
        // Two requests with distinct virtual arrivals land in one epoch:
        // the epoch starts no earlier than the later arrival, and each
        // span's total must equal its reported latency contribution.
        let t0 = client.submit_at(10, OpKind::Query, 100);
        let t1 = client.submit_at(20, OpKind::Query, 700);
        svc.release();
        let report = svc.shutdown();
        assert!(matches!(t0.wait(), Outcome::Done(_)));
        assert!(matches!(t1.wait(), Outcome::Done(_)));
        report.assert_consistent();
        let spans = report.spans();
        assert_eq!(spans.len(), 2);
        let by_ts = |ts: u64| *spans.iter().find(|s| s.id == ts).unwrap();
        let (s0, s1) = (by_ts(0), by_ts(1));
        // Submit and enqueue stamp the virtual arrival.
        assert_eq!(s0.stamps[0], 100);
        assert_eq!(s1.stamps[0], 700);
        // Same epoch: both released at the same epoch start, which waits
        // for the later arrival.
        if s0.epoch == s1.epoch {
            assert_eq!(s0.stamps[2], s1.stamps[2]);
            assert!(s0.stamps[2] >= 700);
        }
        // Per-span totals sum to the histogram's exact latency sum.
        assert_eq!(
            s0.total_cycles() + s1.total_cycles(),
            report.latency().sum()
        );
    }

    #[test]
    fn disabled_observability_reports_no_spans_or_samples() {
        let mut cfg = small_cfg(boundary_map());
        cfg.hold_gate = true;
        let svc = Service::new(&initial_pairs(), cfg);
        let client = svc.client();
        let tickets = client.submit_many(&boundary_ops());
        svc.release();
        let report = svc.shutdown();
        for t in &tickets {
            assert!(matches!(t.wait(), Outcome::Done(_)));
        }
        for s in &report.shards {
            assert!(!s.spans_enabled);
            assert!(s.spans.is_empty());
            assert_eq!(s.spans_dropped, 0);
            assert!(s.breaches.is_empty());
        }
        report.assert_consistent();
    }

    #[test]
    fn epoch_releasing_snapshots_the_push_count_before_anyone_is_back() {
        let state = ShardState::new(4, &QosConfig::disabled());
        let call = || {
            let mut seg = Segment::new(TicketBatch::new(1), None, 0, 1);
            seg.push(Request::query(1, 0), Slot::Cell(0), 0);
            seg
        };
        state.queue.push_blocking(call());
        state.epoch_handed_over();
        state.epoch_releasing(2);
        // A caller back before `epoch_finished` runs still counts.
        state.queue.push_blocking(call());
        state.epoch_finished(Duration::from_micros(100));
        let ex = state.executor();
        assert_eq!((ex.released, ex.pushes_at_release), (2, 1));
        assert_eq!(state.queue.pushes() - ex.pushes_at_release, 1);
    }

    #[test]
    fn executor_state_counts_inflight_and_smooths_service_time() {
        let state = ShardState::new(4, &QosConfig::disabled());
        state.epoch_handed_over();
        state.epoch_handed_over();
        state.epoch_finished(Duration::from_micros(400));
        let ex = state.executor();
        assert_eq!(ex.inflight, 1);
        assert_eq!(ex.idle_since, None, "one epoch is still in flight");
        assert_eq!(ex.service, Some(Duration::from_micros(400)));
        state.epoch_finished(Duration::from_micros(800));
        let ex = state.executor();
        assert_eq!(ex.inflight, 0);
        assert!(ex.idle_since.is_some());
        // (3 * 400 + 800) / 4
        assert_eq!(ex.service, Some(Duration::from_micros(500)));
        // Going idle woke the queue: a bounded drain returns at once.
        let start = Instant::now();
        state.queue.drain(Some(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
