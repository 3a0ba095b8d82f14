//! The sharded service: configuration, the public handles, and the
//! per-shard threads. The front door — timestamps and admission — is the
//! `admit` module. What a shard's combiner and executor decide is the step
//! machines of `combine` and `execute`; the shard thread here only carries
//! out the effects.
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
//! # One thread per shard
//!
//! Each shard runs one thread. It takes its combiner's turns, and when a
//! turn hands an epoch over it plans the epoch, runs it on the shard's
//! device, settles its tickets and books it before the next turn. What
//! arrives meanwhile waits in the ingress queue: a closed-loop caller
//! cannot come back before its epoch settles, so nothing is lost by not
//! planning epoch N+1 while N runs, and no epoch waits for a second thread
//! to wake. The shard's tree is a local of its thread: no other thread
//! reads or writes it, and the shard map that routes to it never changes.

use crate::admit::{Inflight, Inner};
use crate::combine::{Combiner, Effect, ExecutorState, TurnView};
use crate::execute::{Books, Epoch};
use crate::lane::{QosConfig, TenantId};
use crate::observe::{ObserveConfig, ServiceObserver};
use crate::queue::{AdmitPolicy, IngressQueue, Segment};
use crate::report::{ServeReport, ShardReport};
use crate::shard::{hash_shard, ShardMap, Sharding};
use crate::ticket::{Outcome, Ticket};
use eirene_baselines::common::ConcurrentTree;
use eirene_btree::refops;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{DeviceConfig, ScheduleLog};
use eirene_workloads::{Batch, Key, OpKind};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sentinel pair appended to every shard's initial pairs: `bulk_build`
/// requires a non-empty tree, and a shard's key slice may hold no initial
/// data. The key is far outside the `u32` request domain (and no request
/// window can reach it), so it is invisible to clients; reports filter it
/// from shard contents.
pub(crate) const SENTINEL_KEY: u64 = u64::MAX - 1;

/// Configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Key-range partition, fixed for the service's lifetime; one device
    /// (and tree) per shard. Under [`Sharding::Hash`] only the shard
    /// *count* is used.
    pub map: ShardMap,
    /// Range (default) or hash-scatter key placement.
    pub sharding: Sharding,
    /// Base device configuration, specialized per shard by
    /// [`DeviceConfig::for_shard`]. OS mode ignores `worker_threads`:
    /// every shard runs its kernels on its own thread and spawns no worker
    /// pool. Deterministic mode honours it (the slot bound shapes the
    /// captured schedules) and derives a seed per shard.
    pub device: DeviceConfig,
    /// The batch limit: the most requests one epoch of a shard carries
    /// (the paper's fixed batch size; 4 096 by default, and 0 reads as 1).
    pub sizing: usize,
    /// Tenant quotas; [`QosConfig::disabled`] (the default) counts no
    /// tenants.
    pub qos: QosConfig,
    /// Bounded ingress-queue capacity per shard.
    pub queue_depth: usize,
    /// What admission does when a shard's queue is full.
    pub policy: AdmitPolicy,
    /// Upper bound on how long a combiner waits for an epoch to fill
    /// toward the batch target once it has at least one request; once the
    /// shard has measured an epoch, it closes earlier when every caller
    /// the last epoch released has submitted again or one epoch's service
    /// time has passed (see "When an epoch closes" in the `combine` module
    /// docs). Zero never waits. A value too large to add to the clock
    /// (`Duration::MAX`) means "until full, or until the grace" — where a
    /// shard whose released callers are all back waits for the last of
    /// them to finish its submission call, however long that takes,
    /// instead of for the service time.
    pub linger: Duration,
    /// Start with every shard's ingress queue gated: combiners gather
    /// nothing until [`Service::release`]. Tests use this to make epoch
    /// composition deterministic. With [`AdmitPolicy::Block`], submitting
    /// more than the total queue capacity while the gate is held deadlocks
    /// (nothing drains) — release the gate from another thread first.
    pub hold_gate: bool,
    /// Per-shard arena headroom in nodes.
    pub headroom_nodes: usize,
    /// Replay a previously captured per-shard schedule (deterministic
    /// mode); one log per shard, in shard order.
    pub replay: Option<Vec<ScheduleLog>>,
    /// Live observability: epoch-boundary metric samples, per-ticket
    /// lifecycle spans, and SLO evaluation, on exactly when an observer is
    /// registered. Off by default; then the epoch pipeline does none of
    /// that work.
    pub observe: ObserveConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            map: ShardMap::uniform(4),
            sharding: Sharding::default(),
            device: DeviceConfig::default(),
            sizing: 4096,
            qos: QosConfig::disabled(),
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
            sizing: 1024,
            queue_depth: 1 << 12,
            headroom_nodes: 1 << 12,
            ..Default::default()
        }
    }
}

/// Shared per-shard state: the ingress queue and the counters other
/// threads than the shard's own write or read. Submitters count
/// admissions and sheds and read the clock.
/// Everything only the shard thread touches lives in its [`Books`] or
/// beside them in its `Executor`, the tree included.
pub(crate) struct ShardState {
    pub(crate) queue: IngressQueue,
    /// Entries admitted to this shard, cumulative.
    pub(crate) enqueued: AtomicU64,
    /// Requests shed at this shard (a full queue or a tenant at quota), in
    /// all and per tenant.
    pub(crate) shed: AtomicU64,
    pub(crate) tenant_shed: Vec<AtomicU64>,
    /// High-water mark of the ingress-queue depth.
    pub(crate) max_depth: AtomicU64,
    /// The virtual clock as of the last booked epoch: a live request
    /// arrives at it.
    pub(crate) clock: AtomicU64,
}

impl ShardState {
    /// A shard whose queue holds `capacity` requests, enforces `qos`'s
    /// quota and starts `gated` (see [`ServeConfig::hold_gate`]).
    pub(crate) fn new(capacity: usize, qos: &QosConfig, gated: bool) -> Self {
        ShardState {
            queue: IngressQueue::new(capacity, qos, gated),
            enqueued: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            tenant_shed: (0..qos.num_tenants()).map(|_| AtomicU64::new(0)).collect(),
            max_depth: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_enqueue(&self, n: u64, depth: usize) {
        self.enqueued.fetch_add(n, Relaxed);
        self.max_depth.fetch_max(depth as u64, Relaxed);
    }

    pub(crate) fn record_shed(&self, n: u64, tenant: TenantId) {
        self.shed.fetch_add(n, Relaxed);
        self.tenant_shed[tenant].fetch_add(n, Relaxed);
    }
}

/// Cloneable submission handle to a running [`Service`]. Handles carry
/// the tenant they submit as (tenant 0 unless [`Client::for_tenant`]
/// re-bound it); without quotas the tenant is purely a label.
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

    /// Submits a request; the returned [`Ticket`] resolves once its epoch
    /// executes (or admission sheds it). It arrives now: at its shard's
    /// virtual clock, the end of the shard's last booked epoch.
    pub fn submit(&self, key: Key, op: OpKind) -> Ticket {
        self.inner.submit(key, op, None, None, self.tenant)
    }

    /// Submits with a deadline: if the deadline passes before the request's
    /// epoch forms, it resolves [`Outcome::TimedOut`] without executing.
    pub fn submit_with_deadline(&self, key: Key, op: OpKind, deadline: Duration) -> Ticket {
        // A deadline too far off to represent is no deadline.
        let deadline = Instant::now().checked_add(deadline);
        self.inner.submit(key, op, deadline, None, self.tenant)
    }

    /// Submits with a virtual arrival time in device cycles (open-loop
    /// offered-load benchmarking): the request's epoch cannot start before
    /// `arrival_cycles` on the shard's virtual clock, and its reported
    /// latency is measured from that arrival.
    pub fn submit_at(&self, key: Key, op: OpKind, arrival_cycles: u64) -> Ticket {
        self.inner
            .submit(key, op, None, Some(arrival_cycles), self.tenant)
    }

    /// Batched submission: admits the whole slice with one timestamp
    /// range-claim and one bulk enqueue per involved shard, amortizing
    /// the per-request admission overhead. Request `i` draws timestamp
    /// `base + i`, so the batch linearizes in slice order. Tickets come
    /// back positionally. Each request arrives now, as with `submit`.
    pub fn submit_many(&self, ops: &[(Key, OpKind)]) -> Vec<Ticket> {
        let ops = ops.iter().map(|&(k, o)| (k, o, None));
        self.inner.submit_many(ops.len(), ops, None, self.tenant)
    }

    /// [`submit_many`](Client::submit_many) with a virtual arrival time
    /// (device cycles) per request.
    pub fn submit_many_at(&self, ops: &[(Key, OpKind, u64)]) -> Vec<Ticket> {
        let ops = ops.iter().map(|&(k, o, at)| (k, o, Some(at)));
        self.inner.submit_many(ops.len(), ops, None, self.tenant)
    }
}

/// A running sharded serving instance: `N` shards, each owning one device
/// and one Eirene GB-tree, fed by bounded ingress queues.
pub struct Service {
    inner: Arc<Inner>,
    shards: Vec<JoinHandle<ShardReport>>,
    device: DeviceConfig,
}

impl Service {
    /// Builds the service from strictly-ascending initial `(key, value)`
    /// pairs (keys must fit the `u32` request domain), partitioned onto the
    /// shard trees, and spawns one thread per shard.
    pub fn new(pairs: &[(u64, u64)], cfg: ServeConfig) -> Self {
        let num_shards = cfg.map.num_shards();
        if let Some(replay) = &cfg.replay {
            assert_eq!(replay.len(), num_shards, "one replay log per shard");
        }
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
        let inner = Arc::new(Inner {
            map: cfg.map.clone(),
            sharding: cfg.sharding,
            shards: (0..num_shards)
                .map(|_| ShardState::new(cfg.queue_depth, &cfg.qos, cfg.hold_gate))
                .collect(),
            next_ts: AtomicU64::new(0),
            inflight: Inflight::new(),
            policy: cfg.policy,
            qos: cfg.qos.clone(),
        });
        let mut replays: Vec<Option<ScheduleLog>> = match cfg.replay {
            Some(logs) => logs.into_iter().map(Some).collect(),
            None => vec![None; num_shards],
        };
        let mut shards = Vec::with_capacity(num_shards);
        for (shard, pairs) in shard_pairs.into_iter().enumerate() {
            let device = cfg.device.for_shard(shard);
            let mut books = Books::new(
                shard,
                cfg.qos.num_tenants(),
                device.control_latency,
                &cfg.observe,
            );
            // Sentinel excluded: the count is of client-visible keys.
            books.key_count = pairs.len() as u64 - 1;
            let opts = EireneOptions {
                device,
                headroom_nodes: cfg.headroom_nodes,
                ..Default::default()
            };
            let (inner, replay) = (inner.clone(), replays[shard].take());
            let observer = cfg.observe.observer.clone();
            let (sizing, linger) = (cfg.sizing, cfg.linger);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("serve-shard-{shard}"))
                    .spawn(move || {
                        let state = &inner.shards[shard];
                        // Built here, so the shard trees build in parallel.
                        let tree = EireneTree::new(&pairs, opts);
                        if let Some(log) = replay {
                            tree.device().set_replay_log(log);
                        }
                        let executor = Executor {
                            state,
                            tree,
                            books,
                            observer,
                            view: ExecutorState::default(),
                        };
                        shard_loop(&inner, executor, Combiner::new(sizing, linger))
                    })
                    .expect("spawn shard thread"),
            );
        }
        Service {
            inner,
            shards,
            device: cfg.device,
        }
    }

    /// A new submission handle (tenant 0; see [`Client::for_tenant`]).
    pub fn client(&self) -> Client {
        Client {
            inner: self.inner.clone(),
            tenant: 0,
        }
    }

    /// Opens every shard queue's epoch gate (no-op unless the service was
    /// built with [`ServeConfig::hold_gate`]).
    pub fn release(&self) {
        for state in &self.inner.shards {
            state.queue.release();
        }
    }

    /// Drains and stops the service: closes admission (which opens any
    /// held gate), executes every already-admitted epoch, joins the shard
    /// threads, and returns the final report.
    pub fn shutdown(self) -> ServeReport {
        for state in &self.inner.shards {
            state.queue.close();
        }
        let mut shards: Vec<ShardReport> = self
            .shards
            .into_iter()
            .map(|handle| handle.join().expect("shard thread panicked"))
            .collect();
        shards.sort_by_key(|r| r.shard);
        ServeReport {
            shards,
            device: self.device,
        }
    }
}

/// The shard's thread: takes its [`Combiner`]'s turns and carries out each
/// effect until the queue has finished, then reports. A hand-over is
/// planned, run and booked here before the next turn.
fn shard_loop(inner: &Inner, mut ex: Executor, mut combiner: Combiner) -> ShardReport {
    let state = ex.state;
    loop {
        let mut effect = combiner.turn(TurnView {
            now: Instant::now(),
            executor: ex.view,
        });
        if let Effect::Drain { wait } = effect {
            // The watermark first, *then* the drain: the order
            // `Reorder::offer` requires.
            let wm = inner.watermark();
            effect = combiner.drained(wm, state.queue.drain(wait));
        }
        match effect {
            Effect::Expire(expired) => {
                ex.time_out(expired.iter().map(Segment::len).sum::<usize>() as u64);
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
                let observing = ex.observer.is_some();
                let (watermark_lag, inflight) = if observing { inner.gauges() } else { (0, 0) };
                let queue_depth = if observing { state.queue.depth() } else { 0 };
                ex.run(Epoch {
                    batch: Batch::new(requests),
                    segments,
                    close,
                    queue_depth: queue_depth as u64,
                    reorder_pending: combiner.parked() as u64,
                    watermark_lag,
                    inflight,
                });
            }
            Effect::Exit => return ex.finish(),
            // `drained` never asks for another drain.
            Effect::NextTurn | Effect::Drain { .. } => {}
        }
    }
}

/// What the shard thread keeps beside its [`Combiner`]: the tree, what
/// its epochs are booked into, and what the linger decision reads of them.
struct Executor<'s> {
    state: &'s ShardState,
    tree: EireneTree,
    books: Books,
    observer: Option<Arc<dyn ServiceObserver>>,
    view: ExecutorState,
}

impl Executor<'_> {
    /// Plans and runs one epoch on the shard's tree, resolves its tickets
    /// in the order the combiner's `Returned` exit counts on, books it and
    /// feeds the observer.
    fn run(&mut self, epoch: Epoch) {
        let (state, tree) = (self.state, &mut self.tree);
        let started = Instant::now();
        let plan = tree.plan(&epoch.batch);
        let run = tree.run_planned(&epoch.batch, &plan);
        // Release the callers first: the books read only the segments and
        // the run's counters, and nobody should wait on them. The push
        // count is read before the first outcome is stored: a caller reads
        // a stored outcome without waiting for its wake, and its push must
        // land after the snapshot to count as a return. Each segment stores
        // its outcomes, then wakes its callers once.
        self.view
            .releasing(epoch.segments.len() as u64, state.queue.pushes());
        let mut responses = run.responses.into_iter();
        for seg in &epoch.segments {
            seg.settle(responses.by_ref());
        }
        self.view.finished(started.elapsed(), Instant::now());
        let books = &mut self.books;
        books.record(&epoch, run.stats);
        state.clock.store(books.clock, Relaxed);
        debug_assert_eq!(
            books.epoch_order_violations,
            0,
            "successive epochs must be timestamp-ordered: this one starts at ts {:?}",
            epoch.batch.requests.first().map(|r| r.ts)
        );
        if let Some(observer) = &self.observer {
            // `run_planned` advanced the reclamation epoch at the batch
            // boundary, so the arena's `retired` is quarantine that
            // survived the advance (normally 0).
            let arena = tree.device().mem().slab_stats();
            observer.on_sample(&books.sample(Some(&epoch), state, arena));
        }
    }

    /// Counts `n` entries that expired before their epoch formed.
    fn time_out(&mut self, n: u64) {
        self.books.timed_out += n;
    }

    /// The terminal sample and the shard's report, once every epoch ran.
    fn finish(mut self) -> ShardReport {
        let tree = &self.tree;
        let (mem, root) = (tree.device().mem(), tree.handle());
        let structure = eirene_btree::validate::validate(mem, root)
            .map(|_| ())
            .map_err(|e| e.to_string());
        let contents: Vec<(u64, u64)> = refops::contents(mem, root)
            .into_iter()
            .filter(|&(k, _)| k != SENTINEL_KEY)
            .collect();
        // Contents are final here, so the terminal key count is exact —
        // mid-run it is the count the tree was built with.
        self.books.key_count = contents.len() as u64;
        // Terminal sample: one final snapshot after the queue finished, so
        // every admission counter is final — the report's totals are taken
        // FROM this snapshot, which is what makes live sampled series
        // reconcile exactly with the final report.
        let terminal = self.books.sample(None, self.state, mem.slab_stats());
        if let Some(observer) = &self.observer {
            observer.on_sample(&terminal);
        }
        let schedule = tree.device().take_schedule_log();
        self.books.finish(terminal, schedule, contents, structure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{ShardSample, SloBreach};
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
        report.check().unwrap();
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
        report.check().unwrap();
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
        report.check().unwrap();
    }

    #[test]
    fn a_dead_shard_thread_does_not_hang_a_qos_shutdown() {
        /// Panics on shard 1's first epoch sample, which kills its thread
        /// after the epoch's tickets resolved.
        struct Faulty;
        impl ServiceObserver for Faulty {
            fn on_sample(&self, sample: &ShardSample) {
                assert!(sample.shard != 1, "observer fault on shard 1");
            }
        }
        crate::ticket::tests::watchdog(|| {
            let map = ShardMap::from_starts(vec![0, 1000]).expect("valid shard starts");
            let mut cfg = small_cfg(map);
            cfg.qos = QosConfig::uniform(2, 1024);
            cfg.observe = ObserveConfig::with_observer(Arc::new(Faulty));
            let svc = Service::new(&initial_pairs(), cfg);
            let client = svc.client();
            let served = client.submit(1500, OpKind::Query);
            assert!(matches!(served.wait(), Outcome::Done(_)));
            // Queued on shard 1, whose dead thread never drains it.
            let _staged = client.submit(1501, OpKind::Query);
            let shutdown =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.shutdown()));
            let Err(cause) = shutdown else {
                panic!("shutdown did not report the dead shard thread");
            };
            let cause = cause.downcast_ref::<String>().map_or("", String::as_str);
            assert!(cause.starts_with("shard thread panicked"), "{cause}");
        });
    }

    #[test]
    fn the_over_quota_part_of_a_call_is_rejected_without_a_timestamp() {
        for policy in [AdmitPolicy::Shed, AdmitPolicy::Block] {
            // Under Block the over-quota part must not wait: the gate is
            // held, so nothing would ever make room.
            crate::ticket::tests::watchdog(move || {
                let map = ShardMap::from_starts(vec![0, 1000]).expect("valid shard starts");
                let mut cfg = small_cfg(map);
                cfg.qos = QosConfig::uniform(2, 3);
                cfg.policy = policy;
                cfg.hold_gate = true;
                let svc = Service::new(&initial_pairs(), cfg);
                let hog = svc.client().for_tenant(1);
                // Five to shard 0, one to shard 1: shard 0's quota room of
                // 3 admits the first three in draw order.
                let ops = [10, 11, 1500, 12, 13, 14].map(|k| (k, OpKind::Query));
                let tickets = hog.submit_many(&ops);
                let rejected = [false, false, false, false, true, true];
                for (ticket, rejected) in tickets.iter().zip(rejected) {
                    assert_eq!(ticket.timestamp().is_none(), rejected, "{policy:?}");
                    let shed = ticket.try_get() == Some(Outcome::Rejected);
                    assert_eq!(shed, rejected, "{policy:?}");
                }
                // Another tenant's room on the same shard is its own.
                let other = svc.client().for_tenant(0).submit_many(&ops[..3]);
                assert!(other.iter().all(|t| t.timestamp().is_some()));
                svc.release();
                let report = svc.shutdown();
                for ticket in tickets.iter().take(4).chain(&other) {
                    assert!(matches!(ticket.wait(), Outcome::Done(_)));
                }
                assert_eq!((report.shed(), report.tenant_shed(1)), (2, 2));
                assert_eq!(report.executed(), 7);
                report.check().unwrap();
            });
        }
    }

    #[test]
    fn epoch_releasing_snapshots_the_push_count_before_anyone_is_back() {
        let state = ShardState::new(4, &QosConfig::disabled(), false);
        let call = || {
            let mut seg = Segment::new(TicketBatch::new(1), None, 0, 1);
            seg.push(Request::query(1, 0), Slot::Cell(0), 0);
            seg
        };
        state.queue.push_blocking(call());
        let mut ex = ExecutorState::default();
        ex.releasing(2, state.queue.pushes());
        // A caller back before the epoch finishes still counts.
        state.queue.push_blocking(call());
        ex.finished(Duration::from_micros(100), Instant::now());
        assert_eq!((ex.released, ex.pushes_at_release), (2, 1));
        assert_eq!(state.queue.pushes() - ex.pushes_at_release, 1);
    }

    #[test]
    fn executor_state_smooths_service_time_and_goes_idle() {
        let mut ex = ExecutorState::default();
        let (first, second) = (Instant::now(), Instant::now() + Duration::from_millis(1));
        ex.finished(Duration::from_micros(400), first);
        assert_eq!(ex.service, Some(Duration::from_micros(400)));
        assert_eq!(ex.idle_since, Some(first));
        ex.finished(Duration::from_micros(800), second);
        // (3 * 400 + 800) / 4
        assert_eq!(ex.service, Some(Duration::from_micros(500)));
        assert_eq!(ex.idle_since, Some(second));
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
        report.check().unwrap();
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
        report.check().unwrap();
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
        report.check().unwrap();
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
        report.check().unwrap();
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
        // check also tests the span invariants (count, arrival <= start <=
        // end, histogram-sum agreement).
        report.check().unwrap();
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
        // The impossible SLO tripped, and each breach sits on the sample
        // of its shard and epoch.
        assert!(!collector.breaches().is_empty());
        for s in &samples {
            let on_its_sample = |b: &SloBreach| (b.shard, b.epoch) == (s.shard, s.epoch);
            assert!(s.breaches.iter().all(on_its_sample));
        }
        assert!(samples
            .iter()
            .any(|s| !s.terminal && !s.breaches.is_empty()));
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
        report.check().unwrap();
        let spans = report.spans();
        assert_eq!(spans.len(), 2);
        let by_ts = |ts: u64| *spans.iter().find(|s| s.id == ts).unwrap();
        let (s0, s1) = (by_ts(0), by_ts(1));
        assert_eq!((s0.arrival, s1.arrival), (100, 700));
        // Same epoch: both start at the same epoch start, which waits for
        // the later arrival.
        if s0.epoch == s1.epoch {
            assert_eq!(s0.start, s1.start);
            assert!(s0.start >= 700);
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
        // Objectives without an observer turn nothing on.
        cfg.observe.slo = Some(crate::observe::SloSpec {
            p99_max_cycles: Some(1),
            ..Default::default()
        });
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
        }
        report.check().unwrap();
    }
}
