//! Online shard rebalancing: the policy that watches each shard's load,
//! fed by the shard threads after every epoch, for a sustained hot (or
//! cold) shard, and the thread that carries a decision out — quiesce the
//! shard pair, migrate keys between their trees, atomically publish the new
//! [`ShardMap`](crate::ShardMap). Every rebalance moves exactly ONE
//! interior boundary between two ADJACENT shards
//! ([`ShardMap::with_boundary`](crate::ShardMap::with_boundary)), so only
//! that pair ever quiesces; repeated single-boundary moves cascade load
//! toward balance.

use crate::admit::Inner;
use crate::observe::ServiceObserver;
use crate::queue::IngressQueue;
use crate::shard::ShardId;
use eirene_telemetry::JsonValue;
use eirene_workloads::Key;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A request from the rebalancer to a shard thread, posted in the shard's
/// queue ([`IngressQueue::migrate`]). The rebalancer only posts while it
/// holds the topology write lock and the shard pair is quiescent, so a
/// migration never meets an epoch in progress.
#[derive(Debug)]
pub(crate) enum Migration {
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

/// Policy knobs of the online rebalancer. Thresholds are *relative*
/// (hot vs the runner-up shard, cold vs the median backlog), with
/// hysteresis (`sustain_epochs`) and a post-action cooldown so one noisy
/// epoch cannot thrash the topology.
#[derive(Clone, Debug)]
pub struct RebalanceSpec {
    /// Split when one shard's backlog exceeds `hot_ratio x` the
    /// second-hottest shard's backlog (sustained).
    pub hot_ratio: f64,
    /// Merge an adjacent pair when both backlogs stay below
    /// `cold_ratio x` the median (sustained) while some shard is busy.
    pub cold_ratio: f64,
    /// Consecutive qualifying decision rounds before acting.
    pub sustain_epochs: u32,
    /// Decision rounds ignored after a topology change (lets queues
    /// re-equilibrate under the new map before judging it).
    pub cooldown_epochs: u32,
    /// Decision rounds ignored at service start. Shards report at their
    /// own epoch boundaries, so a saturated shard grinding through its
    /// first big epoch reports *after* the light shards — acting before
    /// every shard has spoken splits whichever light shard reported first.
    pub warmup_rounds: u32,
    /// Never split a shard whose key span is below this width.
    pub min_span: u32,
    /// Backlogs below this are noise: no shard with a smaller backlog is
    /// ever considered hot.
    pub min_depth: u64,
}

impl Default for RebalanceSpec {
    fn default() -> Self {
        RebalanceSpec {
            hot_ratio: 2.0,
            cold_ratio: 0.25,
            sustain_epochs: 3,
            cooldown_epochs: 8,
            warmup_rounds: 4,
            min_span: 16,
            min_depth: 64,
        }
    }
}

impl RebalanceSpec {
    /// A spec whose automatic triggers can never fire: only
    /// [`Service::force_rebalance`](crate::Service::force_rebalance)
    /// actions run. The fuzzer uses this to keep topology changes
    /// deterministic.
    pub fn manual() -> Self {
        RebalanceSpec {
            hot_ratio: f64::INFINITY,
            cold_ratio: 0.0,
            sustain_epochs: u32::MAX,
            ..Self::default()
        }
    }
}

/// What kind of boundary move a [`RebalanceEvent`] was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebalanceKind {
    /// A hot shard gave roughly half its keys to its lighter neighbor.
    Split,
    /// A cold shard's range collapsed into its neighbor (a width-1
    /// remnant stays behind — shard count is fixed).
    Merge,
}

impl RebalanceKind {
    pub fn name(self) -> &'static str {
        match self {
            RebalanceKind::Split => "split",
            RebalanceKind::Merge => "merge",
        }
    }
}

/// One published topology change. `boundary` indexes the start key that
/// moved (`1 <= boundary < num_shards`); keys in
/// `[min(old_start, new_start), max(old_start, new_start))` migrated from
/// shard `from` to shard `to`.
#[derive(Clone, Debug)]
pub struct RebalanceEvent {
    /// 1-based publication sequence number, service-wide.
    pub seq: u64,
    pub kind: RebalanceKind,
    /// Index of the moved interior boundary in the shard map's starts.
    pub boundary: usize,
    pub old_start: Key,
    pub new_start: Key,
    /// Donor shard (lost keys).
    pub from: ShardId,
    /// Receiver shard (gained keys).
    pub to: ShardId,
    /// Pairs migrated between the two trees.
    pub moved_keys: u64,
    /// True when the action came from
    /// [`Service::force_rebalance`](crate::Service::force_rebalance)
    /// rather than the load-driven policy.
    pub forced: bool,
}

impl RebalanceEvent {
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("seq", JsonValue::from(self.seq)),
            ("kind", JsonValue::from(self.kind.name())),
            ("boundary", JsonValue::from(self.boundary)),
            ("old_start", JsonValue::from(self.old_start as u64)),
            ("new_start", JsonValue::from(self.new_start as u64)),
            ("from", JsonValue::from(self.from)),
            ("to", JsonValue::from(self.to)),
            ("moved_keys", JsonValue::from(self.moved_keys)),
            ("forced", JsonValue::from(self.forced)),
        ])
    }
}

impl std::fmt::Display for RebalanceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rebalance #{}: {} boundary[{}] {} -> {} ({} keys shard {} -> {}{})",
            self.seq,
            self.kind.name(),
            self.boundary,
            self.old_start,
            self.new_start,
            self.moved_keys,
            self.from,
            self.to,
            if self.forced { ", forced" } else { "" }
        )
    }
}

/// An explicitly requested topology change
/// ([`Service::force_rebalance`](crate::Service::force_rebalance)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Split `shard`'s range at its median key, donating one half to its
    /// lighter adjacent neighbor.
    Split { shard: ShardId },
    /// Collapse shard `left`'s range into shard `left + 1`, leaving a
    /// width-1 remnant.
    Merge { left: ShardId },
}

/// What the load-driven policy wants to do this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Decision {
    Act(RebalanceAction),
    None,
}

/// One round of the hysteresis policy over the latest per-shard loads
/// (see [`RebalanceShared::note_load`]). `streaks[s]` carries shard `s`'s
/// consecutive qualifying rounds between calls, signed: positive counts
/// hot rounds, negative cold rounds, and a transition restarts from the
/// new side — a long-cold shard that suddenly spikes must still sustain
/// its heat, not inherit the cold streak's length. The caller zeroes the
/// slate after acting.
pub(crate) fn decide(depths: &[u64], streaks: &mut [i64], spec: &RebalanceSpec) -> Decision {
    let n = depths.len();
    if n < 2 {
        return Decision::None;
    }
    let mut sorted: Vec<u64> = depths.to_vec();
    sorted.sort_unstable();
    let median = sorted[n / 2].max(1);
    // Hot means *dominating the runner-up*, not the median: a median-
    // relative cut can never fire at 2 shards (the hot shard is its own
    // median) and misses a lone spike among drained shards.
    let second = sorted[n - 2].max(1);
    let hot_cut = (spec.hot_ratio * second as f64).max(spec.min_depth as f64);
    let cold_cut = spec.cold_ratio * median as f64;

    // Hot first: the single worst shard drives the streak.
    let (hot, &hot_depth) = depths
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .expect("n >= 2");
    let sustain = spec.sustain_epochs as i64;
    for (s, streak) in streaks.iter_mut().enumerate() {
        if s == hot && (hot_depth as f64) > hot_cut {
            *streak = (*streak).max(0).saturating_add(1);
        } else if (depths[s] as f64) < cold_cut && depths[s] < hot_depth {
            *streak = (*streak).min(0).saturating_sub(1);
        } else {
            *streak = 0;
        }
    }
    if (hot_depth as f64) > hot_cut && streaks[hot] >= sustain {
        return Decision::Act(RebalanceAction::Split { shard: hot });
    }
    // Cold merge: an adjacent pair both cold and sustained, while the
    // service is busy enough (median above the noise floor) that the
    // pair's emptiness is meaningful.
    if median >= spec.min_depth {
        for left in 0..n - 1 {
            let pair_cold = |s: usize| (depths[s] as f64) < cold_cut && -streaks[s] >= sustain;
            if pair_cold(left) && pair_cold(left + 1) {
                return Decision::Act(RebalanceAction::Merge { left });
            }
        }
    }
    Decision::None
}

/// State shared between the load feed (the shard threads), the public
/// force/inspect API, and the rebalancer thread.
#[derive(Debug)]
pub(crate) struct RebalanceShared {
    state: Mutex<FeedState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct FeedState {
    /// Latest load per shard (see [`RebalanceShared::note_load`]).
    depths: Vec<u64>,
    /// Loads fed since the last decision round.
    fresh: u64,
    /// Explicitly requested actions, FIFO.
    forced: VecDeque<RebalanceAction>,
    /// Forced or policy actions fully processed (published OR skipped) —
    /// tests wait on this to know a `force_rebalance` finished.
    attempts_done: u64,
    /// Published events, in sequence order.
    events: Vec<RebalanceEvent>,
    stop: bool,
}

/// What the rebalancer thread should do next.
pub(crate) enum Wake {
    Stop,
    Forced(RebalanceAction),
    /// A fresh decision round over the latest backlogs.
    Loads(Vec<u64>),
}

impl RebalanceShared {
    /// One load per shard, zero until the shard feeds one: an idle shard
    /// (which runs no epochs) counts as zero-load in every decision round.
    pub(crate) fn new(shards: usize) -> Self {
        let depths = vec![0; shards];
        let state = Mutex::new(FeedState {
            depths,
            ..FeedState::default()
        });
        RebalanceShared {
            state,
            cv: Condvar::new(),
        }
    }

    /// A shard thread's load after one of its epochs: its standing backlog
    /// (ingress depth + reorder heap + staged lanes) *plus* its arrivals
    /// since its previous epoch. Shards simulate device time on a virtual
    /// clock while draining queues at host speed, so a hot shard can run
    /// epoch after epoch with an empty ingress queue — its heat shows up
    /// in the arrival rate, not the instantaneous depth. The rate term
    /// exposes it either way; under real backpressure the depth term
    /// dominates instead.
    pub(crate) fn note_load(&self, shard: ShardId, load: u64) {
        let mut st = self.state.lock().unwrap();
        st.depths[shard] = load;
        st.fresh += 1;
        self.cv.notify_all();
    }

    pub(crate) fn force(&self, action: RebalanceAction) {
        let mut st = self.state.lock().unwrap();
        st.forced.push_back(action);
        self.cv.notify_all();
    }

    pub(crate) fn stop(&self) {
        self.state.lock().unwrap().stop = true;
        self.cv.notify_all();
    }

    pub(crate) fn stopping(&self) -> bool {
        self.state.lock().unwrap().stop
    }

    /// Blocks until there is something to do. Decision rounds fire once
    /// at least one shard fed a fresh load.
    pub(crate) fn wait(&self) -> Wake {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.stop {
                return Wake::Stop;
            }
            if let Some(a) = st.forced.pop_front() {
                return Wake::Forced(a);
            }
            if st.fresh > 0 {
                st.fresh = 0;
                return Wake::Loads(st.depths.clone());
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    pub(crate) fn depths(&self) -> Vec<u64> {
        self.state.lock().unwrap().depths.clone()
    }

    pub(crate) fn attempt_done(&self) {
        let mut st = self.state.lock().unwrap();
        st.attempts_done += 1;
        self.cv.notify_all();
    }

    pub(crate) fn attempts_done(&self) -> u64 {
        self.state.lock().unwrap().attempts_done
    }

    pub(crate) fn push_event(&self, ev: RebalanceEvent) {
        self.state.lock().unwrap().events.push(ev);
    }

    pub(crate) fn events(&self) -> Vec<RebalanceEvent> {
        self.state.lock().unwrap().events.clone()
    }
}

/// The rebalancer thread: sleeps on the shared state, runs the hysteresis
/// policy over each fresh round of loads, and executes
/// policy-chosen or forced boundary moves.
pub(crate) fn rebalancer_loop(
    inner: &Inner,
    shared: &RebalanceShared,
    spec: &RebalanceSpec,
    observer: Option<Arc<dyn ServiceObserver>>,
) {
    let mut streaks = vec![0i64; inner.shards.len()];
    // Warmup doubles as an initial cooldown: early rounds are skipped so
    // the first decisions see a load from every busy shard, not just
    // the quick light ones.
    let mut cooldown = spec.warmup_rounds;
    let mut seq = 0u64;
    loop {
        let action = match shared.wait() {
            Wake::Stop => return,
            Wake::Forced(action) => Some((action, true)),
            Wake::Loads(depths) => {
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
        let published = execute_rebalance(inner, shared, spec, &observer, action, forced, &mut seq);
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
/// heap, and no epoch gathered or running. Returns false if shutdown
/// was requested mid-wait (the gate being held also parks us here until
/// then: callers must not quiesce a gated service).
fn quiesce_pair(inner: &Inner, shared: &RebalanceShared, pair: [ShardId; 2]) -> bool {
    loop {
        if shared.stopping() {
            return false;
        }
        let drained = pair.iter().all(|&s| {
            let state = &inner.shards[s];
            state.enqueued.load(Relaxed) == state.settled.load(Relaxed)
        });
        if drained {
            return true;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// One request/reply round trip with a shard thread through its queue's
/// migration slot: `msg` wraps a fresh reply channel into the request. A
/// request the shard thread is gone for is dropped unserved and answers
/// `R::default()`.
fn shard_call<R: Default>(queue: &IngressQueue, msg: impl FnOnce(Sender<R>) -> Migration) -> R {
    let (reply, rx) = std::sync::mpsc::channel();
    queue.migrate(msg(reply));
    rx.recv().unwrap_or_default()
}

/// Executes one topology change end to end: write-lock the topology
/// (stalling new admissions; in-flight read-held admissions finish
/// first), quiesce the affected adjacent pair, migrate keys between their
/// trees, then publish the moved boundary and release. Returns whether a
/// change was published (infeasible actions — degenerate spans, missing
/// neighbors, already-merged pairs — are skipped, not errors).
fn execute_rebalance(
    inner: &Inner,
    shared: &RebalanceShared,
    spec: &RebalanceSpec,
    observer: &Option<Arc<dyn ServiceObserver>>,
    action: RebalanceAction,
    forced: bool,
    seq: &mut u64,
) -> bool {
    let n = inner.shards.len();
    let queue = |s: ShardId| &inner.shards[s].queue;
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
                shard_call(queue(shard), |reply| Migration::Probe { lo, hi, reply });
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
        shard_call(queue(from), |reply| Migration::Extract { lo, hi, reply });
    let moved_keys = pairs.len() as u64;
    shard_call::<()>(queue(to), |reply| Migration::Absorb { pairs, reply });
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RebalanceSpec {
        RebalanceSpec {
            sustain_epochs: 2,
            min_depth: 8,
            ..RebalanceSpec::default()
        }
    }

    #[test]
    fn hot_shard_splits_only_after_sustained_rounds() {
        let spec = spec();
        let mut streaks = vec![0i64; 4];
        let depths = [10, 12, 400, 11];
        assert_eq!(decide(&depths, &mut streaks, &spec), Decision::None);
        assert_eq!(
            decide(&depths, &mut streaks, &spec),
            Decision::Act(RebalanceAction::Split { shard: 2 })
        );
    }

    #[test]
    fn a_noisy_round_resets_the_streak() {
        let spec = spec();
        let mut streaks = vec![0i64; 4];
        assert_eq!(
            decide(&[10, 12, 400, 11], &mut streaks, &spec),
            Decision::None
        );
        // The spike vanished: the streak must reset, not act next round.
        assert_eq!(
            decide(&[10, 12, 14, 11], &mut streaks, &spec),
            Decision::None
        );
        assert_eq!(
            decide(&[10, 12, 400, 11], &mut streaks, &spec),
            Decision::None
        );
    }

    #[test]
    fn a_cold_streak_does_not_satisfy_the_hot_sustain() {
        let spec = spec();
        let mut streaks = vec![0i64; 4];
        // Shard 1 idles cold for many rounds...
        for _ in 0..6 {
            assert_eq!(
                decide(&[40, 0, 44, 46], &mut streaks, &spec),
                Decision::None
            );
        }
        // ...then spikes. The first hot round must NOT act (the cold
        // streak is not heat); the second sustained hot round may.
        assert_eq!(
            decide(&[40, 400, 44, 46], &mut streaks, &spec),
            Decision::None
        );
        assert_eq!(
            decide(&[40, 400, 44, 46], &mut streaks, &spec),
            Decision::Act(RebalanceAction::Split { shard: 1 })
        );
    }

    #[test]
    fn small_absolute_depths_are_noise() {
        let spec = spec();
        let mut streaks = vec![0i64; 4];
        // 6 > 2x median but below min_depth: never hot.
        for _ in 0..8 {
            assert_eq!(decide(&[1, 1, 6, 1], &mut streaks, &spec), Decision::None);
        }
    }

    #[test]
    fn adjacent_cold_pair_merges() {
        let spec = spec();
        let mut streaks = vec![0i64; 4];
        let depths = [0, 1, 100, 110];
        assert_eq!(decide(&depths, &mut streaks, &spec), Decision::None);
        assert_eq!(
            decide(&depths, &mut streaks, &spec),
            Decision::Act(RebalanceAction::Merge { left: 0 })
        );
    }

    #[test]
    fn manual_spec_never_fires_automatically() {
        let spec = RebalanceSpec::manual();
        let mut streaks = vec![0i64; 4];
        for _ in 0..16 {
            assert_eq!(
                decide(&[0, 0, 1_000_000, 0], &mut streaks, &spec),
                Decision::None
            );
        }
    }

    #[test]
    fn single_shard_services_never_rebalance() {
        let mut streaks = vec![0i64; 1];
        assert_eq!(
            decide(&[1_000_000], &mut streaks, &RebalanceSpec::default()),
            Decision::None
        );
    }

    #[test]
    fn shared_state_queues_forced_actions_and_events() {
        let sh = RebalanceShared::new(3);
        assert_eq!(sh.depths(), vec![0, 0, 0]);
        sh.note_load(2, 40);
        assert_eq!(sh.depths(), vec![0, 0, 40]);
        sh.force(RebalanceAction::Merge { left: 0 });
        match sh.wait() {
            Wake::Forced(RebalanceAction::Merge { left: 0 }) => {}
            _ => panic!("forced action must win the wakeup"),
        }
        match sh.wait() {
            Wake::Loads(d) => assert_eq!(d, vec![0, 0, 40]),
            _ => panic!("fresh loads pending"),
        }
        sh.attempt_done();
        assert_eq!(sh.attempts_done(), 1);
        sh.stop();
        assert!(matches!(sh.wait(), Wake::Stop));
    }

    #[test]
    fn event_json_and_display_carry_every_field() {
        let ev = RebalanceEvent {
            seq: 3,
            kind: RebalanceKind::Split,
            boundary: 2,
            old_start: 2000,
            new_start: 1500,
            from: 1,
            to: 2,
            moved_keys: 257,
            forced: true,
        };
        let j = ev.to_json();
        assert_eq!(j.get("seq").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(j.get("moved_keys").and_then(|v| v.as_u64()), Some(257));
        let s = ev.to_string();
        assert!(s.contains("split") && s.contains("forced") && s.contains("257"));
    }
}
