//! Online shard rebalancing: the policy that watches each shard's load,
//! fed by the shard threads after every epoch, for a sustained hot (or
//! cold) shard, and the thread that carries a decision out — quiesce the
//! shard pair, lock both trees and move the keys itself, atomically publish
//! the new [`ShardMap`](crate::ShardMap). Every rebalance moves exactly ONE
//! interior boundary between two ADJACENT shards
//! ([`ShardMap::with_boundary`](crate::ShardMap::with_boundary)), so only
//! that pair ever quiesces; repeated single-boundary moves cascade load
//! toward balance. An action that would leave the boundary where it was is
//! skipped before any key moves.
//!
//! Lock order: the topology write lock, then the trees, lower shard first.
//! A shard thread takes only its own tree, and never the topology lock
//! while it holds the tree.

use crate::admit::Inner;
use crate::observe::{ServeEvent, ServiceObserver};
use crate::service::ShardState;
use crate::shard::ShardId;
use eirene_baselines::common::ConcurrentTree;
use eirene_btree::refops;
use eirene_core::EireneTree;
use eirene_telemetry::JsonValue;
use eirene_workloads::Key;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Split when one shard's backlog exceeds this many times the
/// second-hottest shard's backlog (sustained).
const HOT_RATIO: f64 = 2.0;
/// Merge an adjacent pair when both backlogs stay below this fraction of
/// the median (sustained) while some shard is busy.
const COLD_RATIO: f64 = 0.25;
/// Never split a shard whose key span is below this width, unless forced.
const MIN_SPAN: u32 = 16;

/// Policy knobs of the online rebalancer. Thresholds are *relative*
/// (hot: twice the runner-up shard's backlog; cold: a quarter of the
/// median), with hysteresis (`sustain_epochs`) and a post-action cooldown
/// so one noisy epoch cannot thrash the topology. Shards narrower than 16
/// keys are split only when forced.
#[derive(Clone, Debug)]
pub struct RebalanceSpec {
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
    /// Backlogs below this are noise: no shard with a smaller backlog is
    /// ever considered hot.
    pub min_depth: u64,
}

impl Default for RebalanceSpec {
    fn default() -> Self {
        RebalanceSpec {
            sustain_epochs: 3,
            cooldown_epochs: 8,
            warmup_rounds: 4,
            min_depth: 64,
        }
    }
}

impl RebalanceSpec {
    /// A spec whose automatic triggers can never fire — no streak lasts
    /// `u32::MAX` rounds — so only
    /// [`Service::force_rebalance`](crate::Service::force_rebalance)
    /// actions run. The fuzzer uses this to keep topology changes
    /// deterministic.
    pub fn manual() -> Self {
        RebalanceSpec {
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
    let hot_cut = (HOT_RATIO * second as f64).max(spec.min_depth as f64);
    let cold_cut = COLD_RATIO * median as f64;

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
        let published = execute_rebalance(inner, shared, &observer, action, forced, &mut seq);
        // Whatever happened, this streak is consumed; on a publish let the
        // queues re-equilibrate before judging the new map.
        streaks.iter_mut().for_each(|s| *s = 0);
        if published {
            cooldown = spec.cooldown_epochs;
        }
        shared.attempt_done();
    }
}

/// A quiesced shard as the rebalancer holds it: its counters and its
/// locked tree.
struct Held<'a>(&'a ShardState, MutexGuard<'a, EireneTree>);

/// Blocks until both shards of the pair have built their trees and settled
/// every admitted entry (executed or timed out), which — with the topology
/// write lock held, so no new admissions — also means empty ingress queue,
/// empty reorder heap, and no epoch gathered; then locks both trees, lower
/// shard first, which waits out an epoch still booking under its lock.
/// Returns the pair in the order given. `None` if shutdown was requested
/// mid-wait (the gate being held also parks us here until then: callers
/// must not quiesce a gated service) or a tree is poisoned: its thread
/// died inside an epoch.
fn quiesce_pair<'a>(
    inner: &'a Inner,
    shared: &RebalanceShared,
    pair: [ShardId; 2],
) -> Option<[Held<'a>; 2]> {
    let states = pair.map(|s| &inner.shards[s]);
    let settled = |s: &ShardState| s.enqueued.load(Relaxed) == s.settled.load(Relaxed);
    let trees = loop {
        if shared.state.lock().unwrap().stop {
            return None;
        }
        if let [Some(a), Some(b)] = states.map(|s| s.tree.get()) {
            if a.is_poisoned() || b.is_poisoned() {
                return None;
            }
            if states.iter().all(|s| settled(s)) {
                break [a, b];
            }
        }
        std::thread::sleep(Duration::from_micros(50));
    };
    let lock = |i: usize| trees[i].lock().ok().map(|tree| Held(states[i], tree));
    let (a, b) = if pair[0] < pair[1] { (0, 1) } else { (1, 0) };
    let [x, y] = [lock(a)?, lock(b)?];
    Some(if a == 0 { [x, y] } else { [y, x] })
}

/// Moves every pair in `[lo, hi]` from the donor's tree to the receiver's
/// and returns how many moved. The donor deletes them in place through the
/// merging delete, so emptied nodes are tombstoned and retired into its
/// slab arena, and recycled at once: the pair is quiescent, so nothing
/// holds their addresses. The receiver is rebuilt with its own options.
/// Both key counts follow (sentinel excluded; it sits above the `u32`
/// domain, so neither tree empties). Host work: it charges no virtual
/// cycles and leaves the shard clocks alone.
fn move_keys(donor: &mut Held, receiver: &mut Held, lo: Key, hi: Key) -> u64 {
    let (Held(from, donor), Held(to, receiver)) = (donor, receiver);
    let (mem, root) = (donor.device().mem(), donor.handle());
    let (moved, keep): (Vec<_>, Vec<_>) = refops::contents(mem, root)
        .into_iter()
        .partition(|&(k, _)| (lo as u64..=hi as u64).contains(&k));
    for &(k, _) in &moved {
        refops::delete(mem, root, k);
    }
    mem.advance_epoch();
    from.key_count.store(keep.len() as u64 - 1, Relaxed);
    let (mem, root) = (receiver.device().mem(), receiver.handle());
    let mut all = refops::contents(mem, root);
    all.extend_from_slice(&moved);
    // Shards own disjoint key sets, so the merge has no duplicates;
    // bulk_build wants ascending keys.
    all.sort_unstable();
    to.key_count.store(all.len() as u64 - 1, Relaxed);
    **receiver = EireneTree::new(&all, receiver.options().clone());
    moved.len() as u64
}

/// Executes one topology change end to end: write-lock the topology
/// (stalling new admissions; in-flight read-held admissions finish
/// first), quiesce the affected adjacent pair and lock its trees, move keys
/// between them, then publish the moved boundary and release. Returns
/// whether a change was published (infeasible actions — degenerate spans,
/// missing neighbors, a boundary that would not move — are skipped, not
/// errors).
fn execute_rebalance(
    inner: &Inner,
    shared: &RebalanceShared,
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
    // The donor and the receiver, adjacent.
    let (kind, [from, to]) = match action {
        RebalanceAction::Split { shard } => {
            if shard >= n {
                return false;
            }
            if !forced && (topo.end_of(shard) - topo.start_of(shard)) < MIN_SPAN {
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
            (RebalanceKind::Split, [shard, receiver])
        }
        // The shard count is fixed, so a "merge" collapses the cold left
        // shard to a width-1 remnant and hands the rest of its range to the
        // right neighbor.
        RebalanceAction::Merge { left } if left + 1 < n => (RebalanceKind::Merge, [left, left + 1]),
        RebalanceAction::Merge { .. } => return false,
    };
    let Some([mut donor, mut receiver]) = quiesce_pair(inner, shared, [from, to]) else {
        return false;
    };
    // The donor's range [lo, hi] splits at `new_start`: the side toward the
    // receiver moves, and `new_start` becomes the start of the shard on the
    // right.
    let (lo, hi) = (topo.start_of(from), topo.end_of(from));
    let new_start = match kind {
        // Median key of the *actual* keys, not the span midpoint: under
        // skew the hot mass sits in a narrow band, and halving the keys
        // (instead of the range) is what halves the load.
        RebalanceKind::Split => {
            let (mem, root) = (donor.1.device().mem(), donor.1.handle());
            let keys: Vec<Key> = refops::contents(mem, root)
                .into_iter()
                .filter_map(|(k, _)| (lo as u64..=hi as u64).contains(&k).then_some(k as Key))
                .collect();
            if keys.is_empty() {
                return false;
            }
            // > lo keeps the donor non-empty.
            keys[keys.len() / 2].max(lo + 1)
        }
        RebalanceKind::Merge => lo + 1,
    };
    let (boundary, moved) = if to > from {
        (to, (new_start, hi))
    } else {
        (from, (lo, new_start - 1))
    };
    let old_start = topo.start_of(boundary);
    // A width-1 remnant's split, or its merge, would move nothing: skip it
    // before any key moves.
    if new_start == old_start {
        return false;
    }
    let Ok(new_map) = topo.with_boundary(boundary, new_start) else {
        return false;
    };
    let moved_keys = move_keys(&mut donor, &mut receiver, moved.0, moved.1);
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
    shared.state.lock().unwrap().events.push(event.clone());
    drop((donor, receiver, topo)); // publish before notifying observers
    if let Some(obs) = observer {
        obs.on_event(&ServeEvent::Rebalance(event));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::QosConfig;
    use crate::service::SENTINEL_KEY;
    use eirene_core::EireneOptions;

    /// A shard whose tree holds `keys` (value `k + 1`) and the sentinel,
    /// with its key count set as its thread sets it.
    fn shard(keys: impl Iterator<Item = u64>) -> ShardState {
        let state = ShardState::new(4, &QosConfig::disabled());
        let mut pairs: Vec<(u64, u64)> = keys.map(|k| (k, k + 1)).collect();
        state.key_count.store(pairs.len() as u64, Relaxed);
        pairs.push((SENTINEL_KEY, 0));
        let tree = EireneTree::new(&pairs, EireneOptions::test_small());
        assert!(state.tree.set(Mutex::new(tree)).is_ok());
        state
    }

    fn hold(state: &ShardState) -> Held<'_> {
        Held(state, state.tree.get().unwrap().lock().unwrap())
    }

    fn contents(held: &Held) -> Vec<(u64, u64)> {
        refops::contents(held.1.device().mem(), held.1.handle())
    }

    #[test]
    fn move_keys_table() {
        // Shard 0 holds the even keys below 1 000, shard 1 those from 1 000
        // to 1 998; each row moves [lo, hi] from the donor to the receiver.
        let rows = [
            ("split right", 0, 500, 999, 250),
            ("split left", 1, 1000, 1499, 250),
            ("merge", 0, 1, 999, 499),
            ("empty range", 0, 1001, 1000, 0),
        ];
        for (case, donor, lo, hi, want) in rows {
            let states = [
                shard((0..500).map(|i| 2 * i)),
                shard((500..1000).map(|i| 2 * i)),
            ];
            let [mut a, mut b] = [hold(&states[0]), hold(&states[1])];
            let mut before: Vec<(u64, u64)> = [contents(&a), contents(&b)].concat();
            before.sort_unstable();
            let (from, to) = if donor == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            assert_eq!(move_keys(from, to, lo, hi), want, "{case}");
            let inside = |k: u64| (lo as u64..=hi as u64).contains(&k);
            assert!(contents(from).iter().all(|&(k, _)| !inside(k)), "{case}");
            let retired = from.1.device().mem().slab_stats().retired;
            assert_eq!(retired, 0, "{case}: the donor's retired nodes are recycled");
            for held in [&a, &b] {
                let (mem, root) = (held.1.device().mem(), held.1.handle());
                let valid = eirene_btree::validate::validate(mem, root);
                assert!(valid.is_ok(), "{case}: {valid:?}");
                let count = held.0.key_count.load(Relaxed);
                assert_eq!(count, contents(held).len() as u64 - 1, "{case}");
            }
            let mut after: Vec<(u64, u64)> = [contents(&a), contents(&b)].concat();
            after.sort_unstable();
            assert_eq!(after, before, "{case}: keys are conserved");
        }
    }

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
