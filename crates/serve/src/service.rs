//! The sharded service: configuration, the per-shard combiner/executor
//! epoch pipelines, sampling, and the rebalancer. The front door —
//! timestamp assignment and admission — is the `admit` module.
//!
//! # Linearizability without a submission lock
//!
//! Timestamps come from one global `AtomicU64` with a bare `fetch_add` —
//! there is no submission lock, so per-shard ingress queues receive
//! entries in *arrival* order, which can differ slightly from timestamp
//! order when many clients interleave between drawing a timestamp and
//! enqueueing. Order is restored per shard by the combiner's bounded
//! **reorder stage**: a pending min-heap keyed by timestamp, gated by a
//! **low watermark** of in-flight submissions. The argument has three
//! steps, each stated beside the code that carries it.
//!
//! 1. **The watermark invariant is about the queue** (`admit` module
//!    docs, with its proof): any request with a timestamp below a
//!    watermark is fully enqueued at the moment the watermark was read.
//! 2. **`Reorder::offer`'s precondition carries it to the heap**
//!    (`reorder` module docs, the drain ↔ pop lemma): the stage takes a
//!    watermark only together with a complete drain made after it was
//!    read, and releases under no other. A turn that leaves the queue
//!    alone (the stage already holds two epochs' worth) therefore cannot
//!    release under a fresher one, below which entries may still be
//!    queued behind larger timestamps the heap already has.
//! 3. **Cross-epoch order is the conclusion**, and what the executor
//!    counts breaks of (`ShardReport::epoch_order_violations`): epochs
//!    carry strictly ascending timestamp slices and successive epochs are
//!    mutually ordered, so each shard executes its slice of the history
//!    in global timestamp order and the whole service linearizes at
//!    admission timestamps — a flat
//!    [`SequentialOracle`](eirene_workloads::SequentialOracle) over the
//!    timestamp-sorted submissions remains a valid oracle even with
//!    concurrent lock-free clients. Split range queries reuse the *same*
//!    timestamp on every shard and all their parts are enqueued before
//!    the slot clears, so no combiner can close an epoch between two
//!    parts of one range.
//!
//! # Pipelining
//!
//! Each shard runs two threads joined by a depth-1 channel: the *combiner*
//! pops entries from the ingress queue, restores timestamp order, expires
//! deadlines, and builds the [`CombinePlan`] (host work); the *executor*
//! runs the planned epoch on the shard's device. The combiner therefore
//! plans epoch N+1 while epoch N executes — the paper's pipelined-epoch
//! model at service scope.
//!
//! # When an epoch closes
//!
//! A combiner that has gathered at least one entry hands the epoch over
//! at the first of four exits ([`linger_step`] decides the last three):
//! the batch target is reached; [`ServeConfig::linger`] has elapsed; the
//! executor is *idle* and every caller the last epoch released is back;
//! or the executor is idle and has been for one epoch's smoothed service
//! time. While the executor is busy, gathering costs nothing — the epoch
//! could not start anyway — so the combiner batches what arrives, as the
//! paper's combiner does. Once it is idle, every further microsecond of
//! waiting is pure added latency, worth paying only as long as one more
//! epoch's worth of work might still join: the grace is
//! `min(linger, service time)`, counted from the later of the first
//! gathered entry and the instant the executor went idle. Counting from
//! the idle instant is what keeps closed-loop clients in phase: a client
//! whose window arrived mid-epoch would otherwise see its grace already
//! spent when the executor frees up, go out alone, and leave the clients
//! that epoch just released to form their own half-sized epoch behind
//! it — forever.
//!
//! The grace is a guess at how long the released callers take to come
//! back; the third exit counts them instead. Just before it resolves an
//! epoch's first ticket the executor publishes how many distinct
//! submissions the epoch carried (`released`) and the shard queue's
//! cumulative push-call count at that instant (`pushes_at_release`). A
//! caller blocked on those tickets cannot push again before that
//! snapshot, and comes back with one push call, so once the queue has
//! seen `released` more calls — and all of them are drained and
//! gathered — a closed loop has nobody left to wait for, and the epoch
//! closes `Returned` without sitting out the grace. The count is of
//! returns *since release*, not of callers *gathered*: a window that
//! arrived mid-epoch is already gathered when the executor frees up and
//! was pushed before the snapshot, so it does not count — it waits for
//! the caller just released and the two stay merged. (Closing "once as
//! many callers are gathered as the last epoch carried" lets that window
//! leave alone, sets the bar to one, and locks the clients out of phase
//! for good.) A count that comes up short — a caller that went away, QoS
//! lanes whose timestamps are drawn here so one submission is not one
//! adjacent run, a window cut by the batch target — only falls back to
//! the grace, never past it; an open-loop arrival that is mistaken for a
//! return closes an epoch the executor was idle for anyway (argued, not
//! measured: the benchmark has no open-loop serve workload). Pushes a
//! peer's combiner forwards here (lane entries a rebalance re-homed, the
//! peer parts of a lane-staged split range) are nobody's return and are
//! not counted.
//!
//! Between the count being reached and its last entry being gathered the
//! grace does not close the epoch either. Those entries sit in the
//! reorder heap above the watermark, held back until their submitter has
//! enqueued the rest of its window — microseconds, unless it lost its CPU
//! on the way, which on a busy host is routine — and the grace, a guess
//! at whether the released callers will come back, has nothing left to
//! guess once the count says they have: closing ahead of them makes a
//! half-sized epoch now, another right behind it, and a bar of one that
//! keeps it so. This is the one place an idle executor waits longer than
//! `min(linger, service time)`: for as long as the parked entries
//! themselves have to (they cannot run before that slot clears, in this
//! epoch or any other), within `linger`. A submitter holds its slot only
//! while it also holds the topology read lock, so a rebalance — which
//! quiesces a shard under the write lock — never finds a combiner waiting
//! this way; staged lane entries, which the combiner cannot admit during
//! a rebalance, keep the `Returned` exit shut but not the grace.

use crate::admit::{admit_lanes, Inflight, Inner};
use crate::control::{BatchController, EpochFeedback, EpochSizing};
use crate::lane::{QosConfig, TenantId};
use crate::observe::{
    CloseCause, LatencySummary, ObserveConfig, ServiceObserver, ShardMetrics, ShardSample,
    SloBreach, SloMonitor,
};
use crate::queue::{AdmitPolicy, Entry, IngressQueue};
use crate::rebalance::{
    decide, Decision, RebalanceAction, RebalanceEvent, RebalanceKind, RebalanceShared,
    RebalanceSpec, Wake,
};
use crate::reorder::Reorder;
use crate::report::{ServeReport, ShardReport};
use crate::shard::{hash_shard, ShardId, ShardMap, Sharding};
use crate::ticket::{Outcome, Ticket};
use eirene_baselines::common::ConcurrentTree;
use eirene_core::plan::{build_plan, CombinePlan};
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{
    Cluster, CycleHistogram, DeviceConfig, GlobalMemory, KernelStats, Phase, PhaseTable,
    ScheduleLog, WarpStats,
};
use eirene_telemetry::{LifecycleSpan, SpanRing};
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

/// Host control-flow instructions charged per admitted request for the
/// `ingress` telemetry phase (route lookup, timestamp fetch, queue push).
const INGRESS_CONTROL_PER_REQUEST: u64 = 8;

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
    /// `service` module docs). Zero never waits. A value too large to add to the
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
    metrics: ShardMetrics,
    /// Written by the shard's combiner (hand-over) and executor (finish),
    /// read by the combiner's linger decision.
    executor: Mutex<ExecutorState>,
}

/// What a shard's executor publishes for its combiner's linger decision
/// ([`linger_step`]).
#[derive(Clone, Copy, Debug, Default)]
struct ExecutorState {
    /// Epochs handed over and not yet finished: 0 is idle; up to two are
    /// in flight behind the depth-1 channel (one executing, one queued).
    inflight: u32,
    /// When `inflight` last fell to 0.
    idle_since: Option<Instant>,
    /// Smoothed host service time per epoch, from receipt to the last
    /// ticket resolved. `None` until the first epoch has been measured.
    service: Option<Duration>,
    /// Distinct submissions in the epoch whose tickets resolved last: the
    /// callers it released. 0 until an epoch has resolved.
    released: u64,
    /// The shard queue's cumulative push-call count
    /// ([`IngressQueue::pushes`]) just before the first of those tickets
    /// resolved. A released caller can only push after this snapshot, so
    /// `pushes - pushes_at_release` counts the ones that are back (and
    /// whoever else arrived since).
    pushes_at_release: u64,
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

    /// Executor side: call *before* the epoch's first ticket resolves — a
    /// released caller can be back before [`epoch_finished`] runs, and its
    /// push must land after the snapshot to count as a return.
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

/// Pipeline-state gauges the combiner snapshots at epoch emission when
/// observability is enabled (they cost SeqCst scans); the executor folds
/// them into the shard's metric registry and the emitted [`ShardSample`].
pub(crate) struct EpochGauges {
    /// `next_ts - watermark`: how far in-flight submissions were holding
    /// the watermark behind the timestamp counter.
    pub(crate) watermark_lag: u64,
    /// Occupied slots of the in-flight submission registry.
    pub(crate) inflight: u64,
}

/// One planned epoch in flight from a shard's combiner to its executor.
/// `entries` aligns positionally with `batch.requests`.
struct Epoch {
    batch: Batch,
    plan: CombinePlan,
    entries: Vec<Entry>,
    /// Why the combiner stopped gathering.
    close: CloseCause,
    /// Distinct submissions among `entries`: runs of adjacent entries
    /// sharing one ticket block (a `submit_many` draws one contiguous
    /// timestamp block, so in an ascending epoch its entries are
    /// adjacent). What [`ExecutorState::released`] is set from.
    released: u64,
    /// Ingress-queue depth left behind after forming this epoch. Always
    /// snapshotted (cheap): the adaptive controller feeds on it even with
    /// observability off.
    queue_depth: u64,
    /// Entries still parked in the reorder heap (admitted but above the
    /// watermark or beyond the batch target).
    reorder_pending: u64,
    /// Entries still staged on tenant lanes (0 without QoS).
    lane_depth: u64,
    /// `Some` iff observability is enabled.
    gauges: Option<EpochGauges>,
}

/// What flows over a shard's combiner→executor channel. Epochs come from
/// the combiner; the migration messages come from the rebalancer, which
/// only sends them while it holds the topology write lock and the shard
/// pair is quiescent — so they never interleave with an epoch in flight.
enum ExecMsg {
    Epoch(Box<Epoch>),
    /// Report the keys currently in `[lo, hi]` (the rebalancer picks the
    /// donor's median key from this).
    Probe {
        lo: Key,
        hi: Key,
        reply: Sender<Vec<Key>>,
    },
    /// Remove and return every pair in `[lo, hi]`; the executor rebuilds
    /// its tree from the remainder.
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
            let (inner2, state) = (inner.clone(), states[shard].clone());
            let (plan_cfg, linger) = (shard_cfg.clone(), cfg.linger);
            // One controller per shard, shared combiner-side (reads the
            // target) and executor-side (feeds epoch signals back).
            let controller = Arc::new(BatchController::new(cfg.sizing.clone()));
            let combine_ctl = controller.clone();
            let observe_epochs = cfg.observe.enabled;
            combiners.push(
                std::thread::Builder::new()
                    .name(format!("serve-combine-{shard}"))
                    .spawn(move || {
                        combiner_loop(
                            &inner2,
                            &state,
                            shard,
                            &plan_cfg,
                            &combine_ctl,
                            linger,
                            observe_epochs,
                            tx,
                        )
                    })
                    .expect("spawn combiner"),
            );
            let opts = EireneOptions {
                device: shard_cfg,
                headroom_nodes: cfg.headroom_nodes,
                ..Default::default()
            };
            let (state, replay) = (states[shard].clone(), replays[shard].take());
            let observe = cfg.observe.clone();
            executors.push(
                std::thread::Builder::new()
                    .name(format!("serve-exec-{shard}"))
                    .spawn(move || {
                        executor_loop(
                            shard,
                            &state,
                            &pairs,
                            opts,
                            replay,
                            observe,
                            &controller,
                            &rx,
                        )
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

/// The combiner: drains arrival-ordered entries into the reorder stage
/// ([`Reorder`]), emits watermark-gated ascending epochs, and plans them.
///
/// Draining pauses while the stage holds two epochs' worth (at the largest
/// batch target, at least 64 entries) and emission is not stalled; a turn
/// that does not drain releases only what the last drain vouched for, which
/// [`Reorder::pop`] sees to. Entries parked in the stage were each within
/// the queue bound at their admission instant; the hard admission check
/// itself stays at the queue.
///
/// With QoS lanes the combiner is also the *admitter*: each pass it
/// WRR-drains up to one batch target of staged entries and timestamps
/// them ([`admit_lanes`]) before forming the epoch.
#[allow(clippy::too_many_arguments)]
fn combiner_loop(
    inner: &Inner,
    state: &ShardState,
    shard: ShardId,
    plan_cfg: &DeviceConfig,
    controller: &BatchController,
    linger: Duration,
    observe: bool,
    tx: SyncSender<ExecMsg>,
) {
    let mut reorder = Reorder::new(controller.max_target().saturating_mul(2).max(64));
    // What the last drain reported: nothing more will ever come, and the
    // queue's push-call count as it left it.
    let (mut finished, mut pushes) = (false, 0u64);
    let mut stalls = 0u32;
    let qos = inner.qos.enabled();
    loop {
        inner.wait_gate();
        // The closed-loop batch target for this epoch (constant under
        // EpochSizing::Fixed).
        let batch_limit = controller.target().max(1);
        if qos && !finished {
            admit_lanes(inner, state, shard, batch_limit, &mut reorder);
        }
        // A finished queue is closed and empty — the stage holds all there
        // is — and draining it again only moves the watermark.
        if finished || reorder.wants_drain(stalls > 0) {
            let wait = if reorder.is_empty() {
                None // block until something arrives or the queue closes
            } else {
                Some(Duration::ZERO)
            };
            (finished, pushes) = drain_into(inner, state, &mut reorder, wait);
        }
        if reorder.is_empty() {
            if finished {
                return;
            }
            continue;
        }
        let mut ready = Vec::new();
        reorder.pop(batch_limit, &mut ready);
        if ready.is_empty() {
            // Head-of-line entry above the watermark: some submitter that
            // drew an earlier timestamp is still enqueueing (or blocked on
            // a full queue elsewhere). Slots clear in microseconds in the
            // common case; back off harder if the stall persists.
            back_off(&mut stalls);
            continue;
        }
        stalls = 0;
        // Expired entries resolve TimedOut *before* any lingering: a
        // short-deadline request must not sit out a long linger window
        // waiting for the epoch to fill.
        let mut ready = expire_ready(state, ready);
        // Linger for the epoch to fill toward the batch target: up to
        // `linger`, less once the executor sits idle (module docs).
        let mut lingered = CloseCause::Linger;
        if !linger.is_zero() {
            let start = Instant::now();
            let mut stuck = 0u32;
            while ready.len() < batch_limit && !finished {
                let now = Instant::now();
                // Everything `pushes` counts is gathered once nothing is
                // short of `ready`: parked in the heap, or (by a counted
                // lane push) staged in the lanes.
                let staged = if qos { state.queue.lane_pending() } else { 0 };
                let executor = state.executor();
                let step = linger_step(now, start, linger, executor, pushes, reorder.len(), staged);
                let wake = match step {
                    LingerStep::Close(cause) => {
                        lingered = cause;
                        break;
                    }
                    LingerStep::WakeAt(at) => at,
                };
                // Wake no later than the earliest deadline among the
                // gathered entries, so one expiring mid-linger resolves
                // then — not when the linger runs out.
                let wake = ready
                    .iter()
                    .filter_map(|e| e.deadline)
                    .fold(wake, |acc, d| Some(acc.map_or(d, |a| a.min(d))));
                // Sleep on the queue only with an empty stage. Entries
                // parked there have already left the queue — the drain that
                // brought them ran under a watermark read before they
                // arrived, so it could not release them — and no arrival
                // will wake this loop on their behalf: try them against a
                // fresh watermark now. The wait also ends on an arrival,
                // or when the executor goes idle (`epoch_finished` wakes
                // the queue).
                let wait = if reorder.is_empty() {
                    wake.map_or(Duration::MAX, |w| w.saturating_duration_since(now))
                } else {
                    Duration::ZERO
                };
                (finished, pushes) = drain_into(inner, state, &mut reorder, Some(wait));
                if qos && !finished {
                    // A lane arrival also wakes the drain; admit it (its
                    // timestamp lands above the drain's watermark, so it
                    // joins the *next* pop) instead of spinning on a
                    // non-empty lane.
                    admit_lanes(
                        inner,
                        state,
                        shard,
                        batch_limit.saturating_sub(ready.len()).max(1),
                        &mut reorder,
                    );
                }
                let gathered = ready.len();
                reorder.pop(batch_limit, &mut ready);
                if wait.is_zero() && ready.len() == gathered && !reorder.is_empty() {
                    // Still held back by a submitter in flight, as in the
                    // head-of-line stall above.
                    back_off(&mut stuck);
                } else {
                    stuck = 0;
                }
                ready = expire_ready(state, ready);
            }
        }
        let close = if ready.len() >= batch_limit {
            CloseCause::Full
        } else if finished {
            CloseCause::Drain
        } else {
            lingered
        };
        debug_assert!(
            ready.windows(2).all(|w| w[0].req.ts < w[1].req.ts),
            "epoch must carry a strictly ascending timestamp slice"
        );
        // Final expiry pass: covers the linger-zero path and anything
        // that expired since the last refill.
        let live = expire_ready(state, ready);
        if live.is_empty() {
            continue;
        }
        let batch = Batch::new(live.iter().map(|e| e.req).collect());
        let plan = build_plan(&batch, plan_cfg);
        let gauges = observe.then(|| inner.gauges());
        let released = 1 + live
            .windows(2)
            .filter(|w| !w[0].completion.same_submission(&w[1].completion))
            .count() as u64;
        let epoch = Epoch {
            batch,
            plan,
            entries: live,
            close,
            released,
            queue_depth: state.queue.depth() as u64,
            reorder_pending: reorder.len() as u64,
            lane_depth: if qos {
                state.queue.lane_pending() as u64
            } else {
                0
            },
            gauges,
        };
        state.epoch_handed_over();
        if tx.send(ExecMsg::Epoch(Box::new(epoch))).is_err() {
            return; // executor gone
        }
    }
}

/// The one way entries reach the reorder stage from the queue: read the
/// watermark, *then* drain everything the queue holds, and offer both —
/// the order [`Reorder::offer`] requires. Lane entries this combiner
/// admitted earlier drew their timestamps before this read, so they are
/// covered too. Returns the drain's `(finished, pushes)`.
fn drain_into(
    inner: &Inner,
    state: &ShardState,
    reorder: &mut Reorder,
    wait: Option<Duration>,
) -> (bool, u64) {
    let wm = inner.watermark();
    let drained = state.queue.drain(usize::MAX, wait);
    reorder.offer(drained.entries, wm);
    (drained.finished, drained.pushes)
}

/// One step of the wait for an in-flight submitter's watermark slot to
/// clear: slots clear in microseconds in the common case, so yield first
/// and sleep only if the stall persists.
fn back_off(stalls: &mut u32) {
    *stalls += 1;
    if *stalls > 16 {
        std::thread::sleep(Duration::from_micros(50));
    } else {
        std::thread::yield_now();
    }
}

/// Resolves `TimedOut` immediately for every expired entry in `ready`,
/// returning the live remainder in order.
fn expire_ready(state: &ShardState, ready: Vec<Entry>) -> Vec<Entry> {
    let now = Instant::now();
    if ready.iter().all(|e| e.deadline.is_none_or(|d| now < d)) {
        return ready;
    }
    let (live, expired): (Vec<Entry>, Vec<Entry>) = ready
        .into_iter()
        .partition(|e| e.deadline.is_none_or(|d| now < d));
    state.record_timeout(expired.len() as u64);
    for entry in &expired {
        entry.completion.resolve_fail(Outcome::TimedOut);
    }
    live
}

/// What a lingering combiner does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LingerStep {
    /// Stop gathering and hand the epoch over.
    Close(CloseCause),
    /// Keep gathering; re-decide at this instant at the latest (`None`:
    /// only when an arrival or the executor wakes the queue).
    WakeAt(Option<Instant>),
}

/// The linger decision, free of clocks and threads: whether a combiner
/// that began gathering at `start` should close its partial epoch at
/// `now`. `linger` always bounds the wait (unbounded if `start + linger`
/// overflows the clock). Short of that the epoch closes only while the
/// executor is idle. `Returned`, at once, when every caller the last epoch
/// released is back: `pushes` (the queue's push-call count as of the
/// combiner's last drain) has moved `released` past `pushes_at_release`,
/// and nothing it counts is still short of the gathered epoch — `parked`
/// in the reorder heap or `staged` in the lanes. `Idle` otherwise, one
/// grace — `min(linger, service time)` — after the later of `start` and
/// the instant it went idle; except that with all of them back and some
/// still parked, the wait is for those (module docs). A busy executor, or
/// one that has not measured an epoch yet, waits out the linger.
fn linger_step(
    now: Instant,
    start: Instant,
    linger: Duration,
    executor: ExecutorState,
    pushes: u64,
    parked: usize,
    staged: usize,
) -> LingerStep {
    let deadline = start.checked_add(linger);
    if deadline.is_some_and(|d| now >= d) {
        return LingerStep::Close(CloseCause::Linger);
    }
    let (0, Some(service)) = (executor.inflight, executor.service) else {
        return LingerStep::WakeAt(deadline);
    };
    // A drain older than the snapshot reads as nobody back yet.
    let returned = pushes.saturating_sub(executor.pushes_at_release);
    let all_back = executor.released > 0 && returned >= executor.released;
    if all_back && parked + staged == 0 {
        return LingerStep::Close(CloseCause::Returned);
    }
    let grace_end = executor
        .idle_since
        .map_or(start, |idle| idle.max(start))
        .checked_add(service.min(linger));
    match grace_end {
        // The grace guesses how long the released callers take to come
        // back. With all of them back and one still enqueueing, there is
        // nothing left to guess: closing ahead of it is how windows split.
        Some(end) if now >= end && !(all_back && parked > 0) => LingerStep::Close(CloseCause::Idle),
        Some(end) if now < end => LingerStep::WakeAt(Some(deadline.map_or(end, |d| d.min(end)))),
        _ => LingerStep::WakeAt(deadline),
    }
}

#[allow(clippy::too_many_arguments)]
fn executor_loop(
    shard: ShardId,
    state: &ShardState,
    pairs: &[(u64, u64)],
    opts: EireneOptions,
    replay: Option<ScheduleLog>,
    observe: ObserveConfig,
    controller: &BatchController,
    rx: &Receiver<ExecMsg>,
) -> ShardReport {
    // `opts` outlives the first build: rebalance migrations rebuild the
    // tree from its surviving contents with the same options.
    let mut tree = EireneTree::new(pairs, opts.clone());
    if let Some(log) = replay {
        tree.device().set_replay_log(log);
    }
    // Sentinel excluded: the gauge counts client-visible keys.
    state
        .metrics
        .set(state.metrics.key_count, pairs.len() as u64 - 1);
    set_arena_gauges(state, tree.device().mem());
    let control_latency = tree.device().config().control_latency;
    let adaptive = controller.is_adaptive();
    let tenants = state.queue.num_tenants();
    let mut stats = KernelStats::default();
    let mut latency = CycleHistogram::new();
    let mut tenant_latency: Vec<CycleHistogram> =
        (0..tenants).map(|_| CycleHistogram::new()).collect();
    let (mut clock, mut busy_cycles) = (0u64, 0u64);
    let (mut epochs, mut executed) = (0u64, 0u64);
    let mut spans = observe
        .enabled
        .then(|| SpanRing::new(observe.span_capacity));
    let mut slo = observe
        .enabled
        .then(|| observe.slo.map(SloMonitor::new))
        .flatten();
    let mut breaches: Vec<SloBreach> = Vec::new();
    // Last timestamp of the previous epoch, and how often the next one did
    // not start above it (the report carries the count; debug builds stop).
    let mut last_ts = None;
    let mut epoch_order_violations = 0u64;
    while let Ok(msg) = rx.recv() {
        let epoch = match msg {
            ExecMsg::Epoch(epoch) => *epoch,
            ExecMsg::Probe { lo, hi, reply } => {
                let keys = eirene_btree::refops::contents(tree.device().mem(), tree.handle())
                    .into_iter()
                    .map(|(k, _)| k)
                    .filter(|&k| k >= lo as u64 && k <= hi as u64)
                    .map(|k| k as Key)
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
                state
                    .metrics
                    .set(state.metrics.key_count, keep.len() as u64 - 1);
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
                tree = EireneTree::new(&all, opts.clone());
                state
                    .metrics
                    .set(state.metrics.key_count, all.len() as u64 - 1);
                set_arena_gauges(state, tree.device().mem());
                let _ = reply.send(());
                continue;
            }
        };
        let received = Instant::now();
        // What the reorder stage exists for: successive epochs are mutually
        // ordered (within an epoch the combiner asserts it).
        let first_ts = epoch.entries.first().map(|e| e.req.ts);
        epoch_order_violations += u64::from(last_ts >= first_ts);
        debug_assert!(
            last_ts < first_ts,
            "shard {shard}: epoch starts at ts {first_ts:?}, after one that ended at {last_ts:?}"
        );
        last_ts = epoch.entries.last().map(|e| e.req.ts);
        // Virtual-clock model: an epoch cannot start before the shard is
        // free *and* its last member has arrived.
        let arrived = epoch.entries.iter().map(|e| e.arrival).max().unwrap_or(0);
        let start = clock.max(arrived);
        let run = tree.run_planned(&epoch.batch, &epoch.plan);
        // Release the callers first: the bookkeeping below reads only the
        // entries and the two clock values, and nobody should wait on it.
        state.epoch_releasing(epoch.released);
        for (entry, resp) in epoch.entries.iter().zip(run.responses) {
            entry.completion.resolve_ok(resp);
        }
        state.epoch_finished(received.elapsed());
        let makespan = run.stats.makespan_cycles.ceil() as u64;
        let end = start + makespan;
        let mut queue_wait = 0u64;
        // The per-epoch histogram also feeds the adaptive controller's
        // p99 signal, so it is computed whenever either consumer needs it.
        let mut epoch_hist = (observe.enabled || adaptive).then(CycleHistogram::new);
        for entry in &epoch.entries {
            queue_wait += start - entry.arrival;
            let lat = end - entry.arrival;
            latency.record(lat);
            tenant_latency[entry.tenant].record(lat);
            if let Some(h) = epoch_hist.as_mut() {
                h.record(lat);
            }
            if let Some(ring) = spans.as_mut() {
                // Stamps on the shard's virtual clock: admission is host
                // work with zero virtual duration (submit == enqueue at
                // arrival), reorder-release/combine/execute coincide at
                // epoch start, complete at epoch end. Monotone, and the
                // deltas telescope to the reported latency.
                ring.push(LifecycleSpan {
                    id: entry.req.ts,
                    track: shard as u32,
                    epoch: epochs + 1,
                    stamps: [entry.arrival, entry.arrival, start, start, start, end],
                });
            }
        }
        let n = epoch.batch.len() as u64;
        stats.absorb(run.stats);
        let ingress = INGRESS_CONTROL_PER_REQUEST * n;
        stats.absorb(phase_row(
            "serve-ingress",
            Phase::Ingress,
            ingress,
            ingress * control_latency,
        ));
        stats.absorb(phase_row(
            "serve-queue-wait",
            Phase::QueueWait,
            0,
            queue_wait,
        ));
        clock = end;
        busy_cycles += makespan;
        epochs += 1;
        executed += n;
        if adaptive {
            // Close the loop: this epoch's realized batch, the backlog
            // left behind it (ingress + reorder + staged lanes), and its
            // p99 set the next epoch's target.
            controller.on_epoch(&EpochFeedback {
                batch: n,
                queue_depth: epoch.queue_depth + epoch.lane_depth,
                reorder_pending: epoch.reorder_pending,
                epoch_p99: epoch_hist.as_ref().map_or(0, |h| h.p99()),
            });
        }
        let m = &state.metrics;
        m.record_epoch(epoch.close);
        m.add(m.completed, n);
        // Combine-path gauges mirror the cumulative device totals, so the
        // terminal sample (and hence the report) reconciles exactly.
        m.set(m.descents_saved, stats.totals.descents_saved);
        m.set(m.pivot_cache_hits, stats.totals.pivot_cache_hits);
        if observe.enabled {
            let epoch_hist = epoch_hist.take().expect("histogram exists when observing");
            m.set(m.epoch_batch, n);
            m.set(m.queue_depth, epoch.queue_depth);
            m.set(m.reorder_pending, epoch.reorder_pending);
            m.set(m.lane_pending, epoch.lane_depth);
            m.set(m.batch_target, controller.target() as u64);
            if let Some(g) = &epoch.gauges {
                m.set(m.watermark_lag, g.watermark_lag);
                m.set(m.inflight, g.inflight);
            }
            // `run_planned` advanced the reclamation epoch at the batch
            // boundary, so `retired` here is quarantine that survived the
            // advance (normally 0).
            set_arena_gauges(state, tree.device().mem());
            let sample = shard_sample(shard, state, epochs, false, clock, n, epoch_hist, &latency);
            emit_sample(&observe, &mut slo, &mut breaches, sample);
        }
    }
    // Terminal sample: one final snapshot after the pipeline drained. The
    // combiner has exited, so every admission counter is final — the
    // report's totals are taken FROM this snapshot, which is what makes
    // live sampled series reconcile exactly with the final report.
    if observe.enabled {
        let m = &state.metrics;
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
    state
        .metrics
        .set(state.metrics.key_count, contents.len() as u64);
    set_arena_gauges(state, tree.device().mem());
    let terminal = shard_sample(
        shard,
        state,
        epochs + 1,
        true,
        clock,
        0,
        CycleHistogram::new(),
        &latency,
    );
    if observe.enabled {
        emit_sample(&observe, &mut slo, &mut breaches, terminal.clone());
    }
    let (spans, spans_dropped) = match spans {
        Some(ring) => {
            let dropped = ring.dropped();
            (ring.into_vec(), dropped)
        }
        None => (Vec::new(), 0),
    };
    let m = &state.metrics;
    ShardReport {
        shard,
        stats,
        epochs,
        closed: terminal.closed,
        enqueued: terminal.enqueued,
        executed,
        epoch_order_violations,
        shed: terminal.shed,
        timed_out: terminal.timed_out,
        max_queue_depth: terminal.max_queue_depth,
        batch_target: controller.target() as u64,
        tenant_shed: m.tenant_shed.iter().map(|&id| m.get(id)).collect(),
        tenant_latency,
        latency,
        busy_cycles,
        clock_cycles: clock,
        schedule: tree.device().take_schedule_log(),
        key_count: contents.len() as u64,
        arena_live: terminal.arena_live,
        arena_retired: terminal.arena_retired,
        descents_saved: terminal.descents_saved,
        pivot_cache_hits: terminal.pivot_cache_hits,
        contents,
        structure,
        spans,
        spans_dropped,
        spans_enabled: observe.enabled,
        breaches,
    }
}

/// Snapshots one shard's registry into a [`ShardSample`].
#[allow(clippy::too_many_arguments)]
fn shard_sample(
    shard: ShardId,
    state: &ShardState,
    epoch: u64,
    terminal: bool,
    clock: u64,
    batch_size: u64,
    epoch_latency: CycleHistogram,
    latency: &CycleHistogram,
) -> ShardSample {
    let m = &state.metrics;
    ShardSample {
        shard,
        epoch,
        terminal,
        clock_cycles: clock,
        batch_size,
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
        latency: LatencySummary::from_hist(latency),
        epoch_latency,
    }
}

/// Refreshes the shard's slab-arena occupancy gauges from its device.
fn set_arena_gauges(state: &ShardState, mem: &GlobalMemory) {
    let st = mem.slab_stats();
    let m = &state.metrics;
    m.set(m.arena_live, st.live);
    m.set(m.arena_retired, st.retired);
}

/// Routes one sample through the SLO monitor and the registered observer
/// (sample first, then any breaches it tripped).
fn emit_sample(
    observe: &ObserveConfig,
    slo: &mut Option<SloMonitor>,
    breaches: &mut Vec<SloBreach>,
    sample: ShardSample,
) {
    if let Some(observer) = &observe.observer {
        observer.on_sample(&sample);
    }
    if let Some(monitor) = slo.as_mut() {
        for breach in monitor.observe(&sample) {
            if let Some(observer) = &observe.observer {
                observer.on_breach(&breach);
            }
            breaches.push(breach);
        }
    }
}

/// Observer shim installed when rebalancing is configured: forwards every
/// callback to the user's observer (if any) and feeds each shard's load
/// into the rebalancer's shared state. The load signal is the shard's
/// standing backlog (ingress depth + reorder heap + staged lanes) *plus*
/// its arrivals since the previous sample: executors simulate device time
/// on a virtual clock while draining queues at host speed, so a hot shard
/// can run epoch after epoch with an empty ingress queue — its heat shows
/// up in the arrival rate, not the instantaneous depth. The rate term
/// exposes it either way; under real backpressure the depth term
/// dominates instead.
struct RebalanceFeed {
    shared: Arc<RebalanceShared>,
    user: Option<Arc<dyn ServiceObserver>>,
    /// Cumulative `enqueued` per shard at its previous sample.
    last_enqueued: Mutex<Vec<u64>>,
}

impl ServiceObserver for RebalanceFeed {
    fn on_sample(&self, sample: &ShardSample) {
        let arrivals = {
            let mut last = self.last_enqueued.lock().unwrap();
            if sample.shard >= last.len() {
                last.resize(sample.shard + 1, 0);
            }
            let d = sample.enqueued.saturating_sub(last[sample.shard]);
            last[sample.shard] = sample.enqueued;
            d
        };
        self.shared.note_sample(
            sample.shard,
            sample.queue_depth + sample.reorder_pending + sample.lane_pending + arrivals,
            sample.terminal,
        );
        if let Some(user) = &self.user {
            user.on_sample(sample);
        }
    }

    fn on_breach(&self, breach: &SloBreach) {
        if let Some(user) = &self.user {
            user.on_breach(breach);
        }
    }

    fn on_rebalance(&self, event: &RebalanceEvent) {
        if let Some(user) = &self.user {
            user.on_rebalance(event);
        }
    }
}

/// The rebalancer thread: sleeps on the shared state, runs the hysteresis
/// policy over each fresh round of backlog samples, and executes
/// policy-chosen or forced boundary moves. Owns a sender clone of every
/// executor channel for the migration messages.
fn rebalancer_loop(
    inner: &Inner,
    shared: &RebalanceShared,
    spec: &RebalanceSpec,
    exec_txs: &[SyncSender<ExecMsg>],
    observer: Option<Arc<dyn ServiceObserver>>,
) {
    let mut streaks = vec![0i64; inner.shards.len()];
    // Warmup doubles as an initial cooldown: early rounds are skipped so
    // the first decisions see a sample from every busy shard, not just
    // the quick light ones.
    let mut cooldown = spec.warmup_rounds;
    let mut seq = 0u64;
    loop {
        let action = match shared.wait() {
            Wake::Stop => return,
            Wake::Forced(action) => Some((action, true)),
            Wake::Samples(depths) => {
                if cooldown > 0 {
                    cooldown -= 1;
                    continue;
                }
                match decide(&depths, &mut streaks, spec) {
                    Decision::Act(action) => Some((action, false)),
                    Decision::None => None,
                }
            }
        };
        let Some((action, forced)) = action else {
            continue;
        };
        let published = execute_rebalance(
            inner, shared, spec, exec_txs, &observer, action, forced, &mut seq,
        );
        // Whatever happened, this streak is consumed; on a publish let the
        // queues re-equilibrate before judging the new map.
        streaks.iter_mut().for_each(|s| *s = 0);
        if published {
            cooldown = spec.cooldown_epochs;
        }
        shared.attempt_done();
    }
}

/// Blocks until both pair shards have drained completely — every admitted
/// entry executed or timed out, which (with the topology write lock held,
/// so no new admissions) also means empty ingress queue, empty reorder
/// heap, and no epoch in the executor channel. Returns false if shutdown
/// was requested mid-wait (the gate being held also parks us here until
/// then: callers must not quiesce a gated service).
fn quiesce_pair(inner: &Inner, shared: &RebalanceShared, pair: [ShardId; 2]) -> bool {
    loop {
        if shared.stopping() {
            return false;
        }
        let drained = pair.iter().all(|&s| {
            let m = &inner.shards[s].metrics;
            m.get(m.enqueued) == m.get(m.completed) + m.get(m.timed_out)
        });
        if drained {
            return true;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// One request/reply round trip with a shard's executor: `msg` wraps a
/// fresh reply channel into the request. An executor that is gone
/// answers `R::default()`.
fn exec_call<R: Default>(tx: &SyncSender<ExecMsg>, msg: impl FnOnce(Sender<R>) -> ExecMsg) -> R {
    let (reply, rx) = std::sync::mpsc::channel();
    if tx.send(msg(reply)).is_err() {
        return R::default();
    }
    rx.recv().unwrap_or_default()
}

/// Executes one topology change end to end: write-lock the topology
/// (stalling new admissions; in-flight read-held admissions finish
/// first), quiesce the affected adjacent pair, migrate keys between their
/// trees, then publish the moved boundary and release. Returns whether a
/// change was published (infeasible actions — degenerate spans, missing
/// neighbors, already-merged pairs — are skipped, not errors).
#[allow(clippy::too_many_arguments)]
fn execute_rebalance(
    inner: &Inner,
    shared: &RebalanceShared,
    spec: &RebalanceSpec,
    exec_txs: &[SyncSender<ExecMsg>],
    observer: &Option<Arc<dyn ServiceObserver>>,
    action: RebalanceAction,
    forced: bool,
    seq: &mut u64,
) -> bool {
    let n = inner.shards.len();
    if n < 2 {
        return false;
    }
    let mut topo = inner.topology.write().unwrap();
    // The move: boundary `boundary` goes to `new_start`, and the keys in
    // `moved` (inclusive) go from shard `from` to shard `to`.
    let (kind, boundary, new_start, from, to, moved) = match action {
        RebalanceAction::Split { shard } => {
            if shard >= n {
                return false;
            }
            let (lo, hi) = (topo.start_of(shard), topo.end_of(shard));
            if !forced && (hi - lo) < spec.min_span {
                return false;
            }
            // Donate toward the lighter adjacent neighbor (edge shards
            // have only one choice).
            let depths = shared.depths();
            let weight = |s: ShardId| depths.get(s).copied().unwrap_or(0);
            let give_right = match (shard > 0, shard + 1 < n) {
                (_, false) => false,
                (false, true) => true,
                (true, true) => weight(shard + 1) <= weight(shard - 1),
            };
            let receiver = if give_right { shard + 1 } else { shard - 1 };
            if !quiesce_pair(inner, shared, [shard, receiver]) {
                return false;
            }
            // Median key of the *actual* keys, not the span midpoint:
            // under skew the hot mass sits in a narrow band, and halving
            // the keys (instead of the range) is what halves the load.
            let keys: Vec<Key> =
                exec_call(&exec_txs[shard], |reply| ExecMsg::Probe { lo, hi, reply });
            if keys.is_empty() {
                return false;
            }
            // b > lo keeps the donor non-empty.
            let b = keys[keys.len() / 2].max(lo + 1);
            if give_right {
                // Donor keeps [lo, b-1], receiver gains [b, hi].
                (RebalanceKind::Split, receiver, b, shard, receiver, (b, hi))
            } else {
                // Donor keeps [b, hi], receiver gains [lo, b-1].
                (RebalanceKind::Split, shard, b, shard, receiver, (lo, b - 1))
            }
        }
        RebalanceAction::Merge { left } => {
            if left + 1 >= n {
                return false;
            }
            // The shard count is fixed, so a "merge" collapses the cold
            // left shard to a width-1 remnant and hands the rest of its
            // range to the right neighbor.
            let new_start = topo.start_of(left) + 1;
            if topo.start_of(left + 1) == new_start {
                return false; // already a width-1 remnant
            }
            if !quiesce_pair(inner, shared, [left, left + 1]) {
                return false;
            }
            let rest = (new_start, topo.end_of(left));
            (
                RebalanceKind::Merge,
                left + 1,
                new_start,
                left,
                left + 1,
                rest,
            )
        }
    };
    let old_start = topo.start_of(boundary);
    let Ok(new_map) = topo.with_boundary(boundary, new_start) else {
        return false;
    };
    let (lo, hi) = moved;
    let pairs: Vec<(u64, u64)> =
        exec_call(&exec_txs[from], |reply| ExecMsg::Extract { lo, hi, reply });
    let moved_keys = pairs.len() as u64;
    exec_call::<()>(&exec_txs[to], |reply| ExecMsg::Absorb { pairs, reply });
    *topo = new_map;
    let event = RebalanceEvent {
        seq: *seq + 1,
        kind,
        boundary,
        old_start,
        new_start,
        from,
        to,
        moved_keys,
        forced,
    };
    *seq = event.seq;
    shared.push_event(event.clone());
    drop(topo); // publish before notifying observers
    if let Some(obs) = observer {
        obs.on_rebalance(&event);
    }
    true
}

/// A host-side accounting row: counters attributed to one serving phase,
/// with zero makespan (host work overlaps device execution; charging it to
/// the makespan would double-count the pipeline). Totals and the phase row
/// move together, preserving the rows-sum-to-totals invariant.
fn phase_row(name: &str, phase: Phase, control_insts: u64, cycles: u64) -> KernelStats {
    let mut phases = PhaseTable::default();
    let row = phases.row_mut(phase);
    row.control_insts = control_insts;
    row.cycles = cycles;
    KernelStats {
        name: name.into(),
        warps: 0,
        totals: WarpStats {
            control_insts,
            cycles,
            phases,
            ..Default::default()
        },
        makespan_cycles: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{Completion, TicketBatch};
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
    fn linger_step_closes_on_linger_or_an_idle_executor() {
        use CloseCause::{Idle, Linger, Returned};
        // Instants are offsets in µs from one base; nothing sleeps.
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let exec = |inflight: u32, idle_since: Option<u64>, service: Option<u64>| ExecutorState {
            inflight,
            idle_since: idle_since.map(at),
            service: service.map(Duration::from_micros),
            ..ExecutorState::default()
        };
        // The last epoch released `released` callers when the queue had
        // seen `pushes_at_release` push calls.
        let after =
            |executor: ExecutorState, released: u64, pushes_at_release: u64| ExecutorState {
                released,
                pushes_at_release,
                ..executor
            };
        let idle = exec(0, Some(5_000), Some(200));
        let close = LingerStep::Close;
        let wake = |us: u64| LingerStep::WakeAt(Some(at(us)));
        let ms = Duration::from_millis(1);
        const START: u64 = 10_000;
        // (case, now, linger, executor, (pushes, parked, staged), expected) —
        // gathering began at START.
        let table = [
            (
                "busy: gathers until linger",
                START + 999,
                ms,
                exec(1, Some(5_000), Some(200)),
                (0, 0, 0),
                wake(START + 1000),
            ),
            (
                "busy: closes at linger",
                START + 1000,
                ms,
                exec(2, None, Some(200)),
                (0, 0, 0),
                close(Linger),
            ),
            (
                "idle: waits out the grace",
                START + 199,
                ms,
                idle,
                (0, 0, 0),
                wake(START + 200),
            ),
            (
                "idle: grace elapsed closes",
                START + 200,
                ms,
                idle,
                (0, 0, 0),
                close(Idle),
            ),
            (
                "grace counts from a later idle instant",
                START + 300,
                ms,
                exec(0, Some(START + 150), Some(200)),
                (0, 0, 0),
                wake(START + 350),
            ),
            (
                "and closes once it has run from there",
                START + 350,
                ms,
                exec(0, Some(START + 150), Some(200)),
                (0, 0, 0),
                close(Idle),
            ),
            (
                "unmeasured service time: as without the exit",
                START + 999,
                ms,
                exec(0, None, None),
                (0, 0, 0),
                wake(START + 1000),
            ),
            (
                "unmeasured service time: closes at linger",
                START + 1000,
                ms,
                exec(0, None, None),
                (0, 0, 0),
                close(Linger),
            ),
            (
                "zero linger never lingers",
                START,
                Duration::ZERO,
                exec(1, None, None),
                (0, 0, 0),
                close(Linger),
            ),
            (
                "zero linger never lingers, idle or not",
                START,
                Duration::ZERO,
                exec(0, Some(START), Some(200)),
                (0, 0, 0),
                close(Linger),
            ),
            (
                "grace is capped by linger",
                START + 999,
                ms,
                exec(0, Some(5_000), Some(5_000)),
                (0, 0, 0),
                wake(START + 1000),
            ),
            (
                "a late idle instant cannot push past linger",
                START + 950,
                ms,
                exec(0, Some(START + 900), Some(200)),
                (0, 0, 0),
                wake(START + 1000),
            ),
            (
                "unbounded linger, busy: only a wake ends the wait",
                START + 5_000_000,
                Duration::MAX,
                exec(1, None, Some(200)),
                (0, 0, 0),
                LingerStep::WakeAt(None),
            ),
            (
                "unbounded linger, idle: the grace still closes it",
                START + 200,
                Duration::MAX,
                idle,
                (0, 0, 0),
                close(Idle),
            ),
            (
                "parked entries nobody is counted back for: the grace closes as ever",
                START + 200,
                ms,
                idle,
                (0, 1, 0),
                close(Idle),
            ),
            (
                "one of two back and still parked: likewise",
                START + 200,
                ms,
                after(idle, 2, 40),
                (41, 1, 0),
                close(Idle),
            ),
            (
                "all back, one still parked: the grace waits for it, within linger",
                START + 200,
                ms,
                after(idle, 2, 40),
                (42, 1, 0),
                wake(START + 1000),
            ),
            (
                "and the linger still bounds that",
                START + 1000,
                ms,
                after(idle, 2, 40),
                (42, 1, 0),
                close(Linger),
            ),
            (
                "unbounded linger, all back, one parked: until its slot clears",
                START + 200,
                Duration::MAX,
                after(idle, 2, 40),
                (42, 1, 0),
                LingerStep::WakeAt(None),
            ),
            (
                "all back, one staged in a lane: the count is not exact, the grace decides",
                START + 10,
                ms,
                after(idle, 2, 40),
                (42, 0, 1),
                wake(START + 200),
            ),
            (
                "and closes on time: a rebalance may be what keeps it staged",
                START + 200,
                Duration::MAX,
                after(idle, 2, 40),
                (42, 0, 1),
                close(Idle),
            ),
            (
                "idle, both released callers back: closes before the grace",
                START + 10,
                ms,
                after(idle, 2, 40),
                (42, 0, 0),
                close(Returned),
            ),
            (
                "idle, one of two back: waits exactly as without the exit",
                START + 10,
                ms,
                after(idle, 2, 40),
                (41, 0, 0),
                wake(START + 200),
            ),
            (
                "and the grace still closes it",
                START + 200,
                ms,
                after(idle, 2, 40),
                (41, 0, 0),
                close(Idle),
            ),
            (
                "all back after the grace ran out: still their return",
                START + 200,
                ms,
                after(idle, 2, 40),
                (42, 0, 0),
                close(Returned),
            ),
            (
                "all back at the linger: the bound wins",
                START + 1000,
                ms,
                after(idle, 2, 40),
                (42, 0, 0),
                close(Linger),
            ),
            (
                "busy executor: returns do not close",
                START + 10,
                ms,
                after(exec(1, Some(5_000), Some(200)), 2, 40),
                (42, 0, 0),
                wake(START + 1000),
            ),
            (
                "unmeasured first epoch: returns do not close",
                START + 10,
                ms,
                after(exec(0, None, None), 2, 40),
                (42, 0, 0),
                wake(START + 1000),
            ),
            (
                "a counted push still parked in the heap defers it",
                START + 10,
                ms,
                after(idle, 2, 40),
                (42, 1, 0),
                wake(START + 200),
            ),
            (
                "nothing released (no epoch resolved): an empty bar closes nothing",
                START + 10,
                ms,
                after(idle, 0, 3),
                (7, 0, 0),
                wake(START + 200),
            ),
            (
                "out of phase: the window gathered before the release is in the snapshot",
                START + 10,
                ms,
                after(idle, 1, 41),
                (41, 0, 0),
                wake(START + 200),
            ),
            (
                "and goes out with the released caller's next push",
                START + 60,
                ms,
                after(idle, 1, 41),
                (42, 0, 0),
                close(Returned),
            ),
            (
                "a drain older than the snapshot reads as nobody back",
                START + 10,
                ms,
                after(idle, 1, 41),
                (39, 0, 0),
                wake(START + 200),
            ),
        ];
        for (case, now, linger, executor, (pushes, parked, staged), want) in table {
            assert_eq!(
                linger_step(at(now), at(START), linger, executor, pushes, parked, staged),
                want,
                "{case}"
            );
        }
        // The decision as it was before the `Returned` exit, to hold the
        // new one against.
        let before = |now: u64, executor: ExecutorState| {
            let (now, start) = (at(now), at(START));
            let deadline = start + ms;
            if now >= deadline {
                return close(Linger);
            }
            match (executor.inflight, executor.service) {
                (0, Some(service)) => {
                    let end =
                        executor.idle_since.map_or(start, |idle| idle.max(start)) + service.min(ms);
                    if now >= end {
                        close(Idle)
                    } else {
                        LingerStep::WakeAt(Some(end.min(deadline)))
                    }
                }
                _ => LingerStep::WakeAt(Some(deadline)),
            }
        };
        // Whatever the executor and the counters say: `Returned` closes
        // an idle executor's epoch then and there, where the old decision
        // was still waiting or closing on the grace; every caller back and
        // one still parked is the one state that waits longer, and only
        // to `linger`; everything else decides exactly as before.
        for inflight in 0..3 {
            for idle_since in [None, Some(0), Some(START + 400), Some(START + 5_000)] {
                for service in [None, Some(0), Some(300), Some(50_000)] {
                    for (released, at_release, pushes, parked, staged) in [
                        (0, 0, 0, 0, 0),
                        (0, 2, 9, 0, 0),
                        (0, 2, 9, 1, 1),
                        (1, 2, 2, 0, 0),
                        (1, 2, 3, 0, 0),
                        (3, 2, 4, 0, 0),
                        (3, 2, 4, 1, 0),
                        (3, 2, 5, 0, 0),
                        (3, 2, 5, 1, 0),
                        (3, 2, 5, 0, 1),
                        (3, 2, 5, 1, 1),
                        (3, 7, 5, 0, 0),
                    ] {
                        let executor =
                            after(exec(inflight, idle_since, service), released, at_release);
                        let is_idle = inflight == 0 && service.is_some();
                        let all_back = released > 0 && pushes >= at_release + released;
                        for now in [START, START + 300, START + 500, START + 999, START + 1000] {
                            let got = linger_step(
                                at(now),
                                at(START),
                                ms,
                                executor,
                                pushes,
                                parked,
                                staged,
                            );
                            let was = before(now, executor);
                            if was == close(Linger) {
                                assert_eq!(got, was);
                            } else if is_idle && all_back && parked + staged == 0 {
                                assert_eq!(got, close(Returned));
                            } else if is_idle && all_back && parked > 0 {
                                assert_eq!(
                                    got,
                                    if was == close(Idle) {
                                        wake(START + 1000)
                                    } else {
                                        was
                                    }
                                );
                            } else {
                                assert_eq!(got, was);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn epoch_releasing_snapshots_the_push_count_before_anyone_is_back() {
        let state = ShardState::new(4, &QosConfig::disabled());
        let entry = || {
            let cell = TicketBatch::new(1).cell_ref(0);
            Entry {
                req: Request::query(1, 0),
                deadline: None,
                arrival: 0,
                tenant: 0,
                completion: Completion::Direct(cell),
            }
        };
        state.queue.push_blocking_many(vec![entry()]);
        state.epoch_handed_over();
        state.epoch_releasing(2);
        // A caller back before `epoch_finished` runs still counts.
        state.queue.push_blocking_many(vec![entry()]);
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
        state.queue.drain(1, Some(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
