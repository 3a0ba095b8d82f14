//! Combining-based synchronization: sort, run detection, issued-request
//! selection, artificial-query generation (§4.1), and the two kernels'
//! work lists.

use eirene_primitives::{radix_sort_cost, radix_sort_pairs, PrimCost};
use eirene_sim::DeviceConfig;
use eirene_workloads::{range_window, Batch, Key, OpKind, Value};

/// The request issued to the tree on behalf of a whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssuedKind {
    /// All requests in the run are queries: one query is issued and its
    /// result is shared.
    Query,
    /// The run's last state-changing operation is an update: it is issued
    /// and retrieves the old value.
    Upsert(Value),
    /// The run's last state-changing operation is a delete.
    Delete,
}

/// One issued request (exactly one per distinct point-request key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Issued {
    pub key: Key,
    pub kind: IssuedKind,
    /// Index of the run this request represents.
    pub run: u32,
}

/// A point request in its run, with what result calculation reads of it,
/// so that pass walks each run in order instead of looking requests up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point {
    /// Position of the request in the original batch.
    pub orig: u32,
    /// Timestamp rank: the position of `(ts, batch position)` in the
    /// batch's total order, which breaks equal-timestamp ties exactly as
    /// the sequential oracle's stable sort does.
    pub rank: u32,
    /// The request's operation (never a range).
    pub op: OpKind,
}

/// A run: all point requests on one key, in timestamp order. The key and
/// the request issued for the run are its entry in
/// [`CombinePlan::issued`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Start offset into [`CombinePlan::points`].
    pub start: u32,
    /// Number of point requests in the run.
    pub len: u32,
    /// Whether the run contains any upsert/delete.
    pub has_state_ops: bool,
}

/// A range query, sorted into the batch by its lower bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeReq {
    /// Position of the request in the original batch.
    pub orig_idx: u32,
    pub lo: Key,
    pub len: u32,
    pub ts: u64,
    /// Timestamp rank, as for [`Point::rank`].
    pub rank: u32,
}

/// An artificial query (§4.1.2): "the run's key as of timestamp `ts`",
/// generated because a range query covers a key that has updates in the
/// batch. Its resolved value patches slot `offset` of range `range_idx`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Artificial {
    /// The run whose key the query reads.
    pub run: u32,
    pub range_idx: u32,
    pub offset: u32,
    pub ts: u64,
    /// Timestamp *rank* of the originating range request. Result
    /// calculation orders an artificial query against a point request by
    /// rank, so two requests sharing a raw timestamp resolve in batch
    /// order, matching the oracle's stable sort.
    pub rank: u32,
}

/// One query-kernel work item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryItem {
    /// The issued point query of run `run`.
    Query { run: u32, key: Key },
    /// Range query `range_idx` over the `len >= 1` keys from `lo`.
    Range { range_idx: u32, lo: Key, len: u32 },
}

impl QueryItem {
    /// The first and the last key the item reads, inclusive.
    pub fn window(&self) -> (u64, u64) {
        match *self {
            QueryItem::Query { key, .. } => (key as u64, key as u64),
            QueryItem::Range { lo, len, .. } => (lo as u64, lo as u64 + len as u64 - 1),
        }
    }
}

/// One update-kernel work item: the issued upsert or delete of run `run`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateItem {
    pub run: u32,
    pub key: Key,
    pub kind: IssuedKind,
}

/// Output of the combining phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CombinePlan {
    /// Point requests sorted by (key, timestamp). Runs are contiguous
    /// slices of this array.
    pub points: Vec<Point>,
    pub runs: Vec<Run>,
    /// One issued request per run, in ascending key order.
    pub issued: Vec<Issued>,
    /// Range queries in ascending lower-bound order.
    pub ranges: Vec<RangeReq>,
    /// Artificial queries of every run, in run order, each run's sorted by
    /// timestamp rank.
    pub artificial: Vec<Artificial>,
    /// The query kernel's work list (Alg. 1 l.3): issued point queries and
    /// ranges with a non-empty window, in ascending key order, a point
    /// query ahead of the ranges starting on its key. An empty window
    /// never reaches the kernel: its response is the empty vector.
    pub query_items: Vec<QueryItem>,
    /// The update kernel's work list: issued upserts and deletes, in
    /// ascending key order.
    pub update_items: Vec<UpdateItem>,
    /// Modelled device cost of sorting + combining + artificial-query
    /// generation.
    pub cost: PrimCost,
}

impl CombinePlan {
    /// Total number of artificial queries generated.
    pub fn artificial_count(&self) -> usize {
        self.artificial.len()
    }

    /// Number of issued update-kernel requests.
    pub fn issued_updates(&self) -> usize {
        self.update_items.len()
    }

    /// Requests whose tree traversal was eliminated by combining (unissued
    /// point requests).
    pub fn combined_away(&self) -> usize {
        self.points.len() - self.issued.len()
    }

    /// The point requests of `run`, in timestamp order.
    pub fn run_points(&self, run: &Run) -> &[Point] {
        &self.points[run.start as usize..][..run.len as usize]
    }

    /// Closes the run of `key` — the points from `start` on — whose last
    /// state-changing operation makes it issue `kind`: records the run,
    /// its issued request and work item, and the artificial queries of
    /// every active range covering `key` (§4.1.2). `active` holds the
    /// ranges whose window could still cover the key, `(hi, range index)`;
    /// ranges activate in lower-bound order from `next_range`, and every
    /// range starting at or below `key` is already in [`Self::ranges`].
    fn close_run(
        &mut self,
        key: Key,
        start: usize,
        kind: IssuedKind,
        active: &mut Vec<(u64, u32)>,
        next_range: &mut usize,
    ) {
        let (run, k) = (self.runs.len() as u32, key as u64);
        for r in &self.ranges[*next_range..] {
            // A zero-length range covers no key: it never becomes active.
            if let Some((_, hi)) = range_window(r.lo as u64, r.len) {
                active.push((hi, *next_range as u32));
            }
            *next_range += 1;
        }
        active.retain(|&(hi, _)| hi >= k);
        let has_state_ops = kind != IssuedKind::Query;
        let art_start = self.artificial.len();
        if has_state_ops {
            for &(_, range_idx) in active.iter() {
                let r = &self.ranges[range_idx as usize];
                self.artificial.push(Artificial {
                    run,
                    range_idx,
                    offset: (k - r.lo as u64) as u32,
                    ts: r.ts,
                    rank: r.rank,
                });
            }
            self.artificial[art_start..].sort_unstable_by_key(|a| a.rank);
        }
        self.runs.push(Run {
            start: start as u32,
            len: (self.points.len() - start) as u32,
            has_state_ops,
        });
        self.issued.push(Issued { key, kind, run });
        match kind {
            IssuedKind::Query => self.query_items.push(QueryItem::Query { run, key }),
            kind => self.update_items.push(UpdateItem { run, key, kind }),
        }
    }
}

/// Builds the combining plan for a batch (§4.1, §4.1.2).
///
/// The device sorts composite `(key << 32) | timestamp-rank` keys with
/// CUB's radix sort (§7). The host gets the same order from half the
/// digits: the bare 32-bit keys (ranges by their lower bound), laid out in
/// timestamp order and sorted stably with their ranks by
/// [`radix_sort_pairs`], so each key's requests keep timestamp order. The
/// charge stays the device's composite sort ([`radix_sort_cost`] of
/// `u64` keys). One scan over the sorted keys then forms the runs, picks
/// each run's issued request, generates artificial queries and emits both
/// kernels' work lists. The sort's and the scans' modelled cost are part
/// of the returned plan, because the paper charges them to Eirene in every
/// measurement (§8.1). Plain loops on the calling thread.
pub fn build_plan(batch: &Batch, cfg: &DeviceConfig) -> CombinePlan {
    let n = batch.len();
    assert!(n < (1 << 32), "batch too large for 32-bit timestamp ranks");
    let reqs = &batch.requests;

    // Timestamp order: requests may carry arbitrary (unique) ts values,
    // ties broken by batch position. Rank `r` is request `by_ts[r]`, or
    // request `r` itself in a batch already in timestamp order, as
    // generated batches are.
    let by_ts: Option<Vec<u32>> = (!reqs.is_sorted_by_key(|r| r.ts)).then(|| {
        let mut by_ts: Vec<u32> = (0..n as u32).collect();
        by_ts.sort_unstable_by_key(|&i| (reqs[i as usize].ts, i));
        by_ts
    });
    let orig_of = |rank: u32| by_ts.as_ref().map_or(rank, |v| v[rank as usize]);
    let mut keys: Vec<Key> = (0..n as u32)
        .map(|r| reqs[orig_of(r) as usize].key)
        .collect();
    let mut ranks: Vec<u32> = (0..n as u32).collect();
    radix_sort_pairs(&mut keys, &mut ranks, cfg);

    let mut plan = CombinePlan {
        points: Vec::with_capacity(n),
        runs: Vec::with_capacity(n),
        issued: Vec::with_capacity(n),
        ranges: Vec::new(),
        artificial: Vec::new(),
        query_items: Vec::with_capacity(n),
        update_items: Vec::with_capacity(n),
        cost: radix_sort_cost::<u64>(cfg, n),
    };
    let mut active: Vec<(u64, u32)> = Vec::new();
    let mut next_range = 0usize;
    let mut ranks = ranks.iter();
    // One key at a time: its point requests form the key's run, its range
    // queries join the ranges. A range does not break the run.
    for group in keys.chunk_by(|a, b| a == b) {
        let key = group[0];
        let (start, first_range) = (plan.points.len(), plan.ranges.len());
        let mut kind = IssuedKind::Query;
        for &rank in ranks.by_ref().take(group.len()) {
            let orig = orig_of(rank);
            let req = &reqs[orig as usize];
            match req.op {
                OpKind::Range { len } => {
                    plan.ranges.push(RangeReq {
                        orig_idx: orig,
                        lo: key,
                        len,
                        ts: req.ts,
                        rank,
                    });
                    continue;
                }
                OpKind::Upsert(v) => kind = IssuedKind::Upsert(v),
                OpKind::Delete => kind = IssuedKind::Delete,
                OpKind::Query => {}
            }
            plan.points.push(Point {
                orig,
                rank,
                op: req.op,
            });
        }
        if plan.points.len() > start {
            plan.close_run(key, start, kind, &mut active, &mut next_range);
        }
        for (idx, r) in plan.ranges.iter().enumerate().skip(first_range) {
            if r.len > 0 {
                plan.query_items.push(QueryItem::Range {
                    range_idx: idx as u32,
                    lo: r.lo,
                    len: r.len,
                });
            }
        }
    }

    // Modelled cost of the combining scan (one pass), issued partition
    // (one pass over issued), and artificial generation (proportional to
    // ranges + artificial count).
    plan.cost.merge(PrimCost::streaming(cfg, n as u64, 1, 4));
    plan.cost
        .merge(PrimCost::streaming(cfg, plan.issued.len() as u64, 2, 2));
    let art = plan.ranges.len() + plan.artificial.len();
    plan.cost.merge(PrimCost::streaming(cfg, art as u64, 1, 4));
    plan
}

/// Partitions work items, in ascending `key` order, into *leaf runs*:
/// maximal contiguous groups whose keys fall between the same pair of
/// adjacent leaf low-fence keys, i.e. target the same leaf under the
/// pivot-cache snapshot. Returns half-open `(start, end)` index ranges
/// covering `items` exactly, in order.
///
/// The fences are a dispatch *hint* (a snapshot): a stale partition only
/// makes groups slightly off — every item still locates its leaf through
/// the validated traversal — so correctness never depends on them.
/// Linearization is untouched: partitioning only groups the already
/// rank-ordered issued stream, it never reorders items.
pub fn partition_leaf_runs<T>(
    items: &[T],
    key: impl Fn(&T) -> u64,
    fences: &[u64],
) -> Vec<(usize, usize)> {
    debug_assert!(fences.windows(2).all(|w| w[0] < w[1]), "fences must ascend");
    debug_assert!(
        items.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
        "keys must ascend"
    );
    // Every item's bucket — the number of fences `<= key` — from
    // `FENCE_WALKS` walks over consecutive slices of the items, interleaved:
    // a walk's next fence window depends on where its last one ended, so
    // one walk alone waits out every load, while four keep four in flight.
    let n = items.len();
    let per_walk = n.div_ceil(FENCE_WALKS).max(1);
    let mut at: [usize; FENCE_WALKS] = std::array::from_fn(|w| {
        // Start below the walk's first key: a lower bound for all of them.
        items
            .get(w * per_walk)
            .map_or(0, |t| fences.partition_point(|&f| f < key(t)))
    });
    let mut buckets = vec![0u32; n];
    for i in 0..per_walk {
        for (w, b) in at.iter_mut().enumerate() {
            if let Some(t) = items.get(w * per_walk + i) {
                *b = advance_bucket(fences, *b, key(t));
                buckets[w * per_walk + i] = *b as u32;
            }
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 1..n {
        if buckets[i] != buckets[i - 1] {
            out.push((start, i));
            start = i;
        }
    }
    if n > 0 {
        out.push((start, n));
    }
    out
}

/// Interleaved fence walks of [`partition_leaf_runs`].
const FENCE_WALKS: usize = 4;

/// Fences [`advance_bucket`] searches without a branch before it gallops.
/// A `tree_read` epoch (16 384 uniform keys over ≈ 87 000 leaves) moves
/// ≈ 5 fences per key, at random, which a fence-at-a-time step pays for in
/// a mispredicted exit per key.
const FENCE_WINDOW: usize = 16;

/// The bucket of `key` — the number of fences `<= key` — given that it is
/// at least `b` (keys ascend, so the fence cursor only moves forward). A
/// branch-free binary search of the next [`FENCE_WINDOW`] fences, then an
/// exponential probe and a binary search inside the bracket it found:
/// O(log gap) per key, so a 30-key epoch over 10 000 leaves does not walk
/// every fence.
#[inline]
fn advance_bucket(fences: &[u64], mut b: usize, key: u64) -> usize {
    if let Some(window) = fences.get(b..b + FENCE_WINDOW) {
        // Halve toward the count of fences `<= key` (they come first): each
        // step adds `half` when the last fence of the lower half is one.
        let mut below = 0;
        let mut half = FENCE_WINDOW / 2;
        while half > 0 {
            below += half * usize::from(window[below + half - 1] <= key);
            half /= 2;
        }
        below += usize::from(window[below] <= key);
        if below < FENCE_WINDOW {
            return b + below;
        }
        b += FENCE_WINDOW;
    }
    // `fences[..b] <= key`; double the stride until a fence above `key` (or
    // the end) brackets the answer.
    let mut step = 1usize;
    let end = loop {
        match fences.get(b + step) {
            Some(&f) if f <= key => {
                b += step + 1;
                step *= 2;
            }
            Some(_) => break b + step,
            None => break fences.len(),
        }
    };
    b + fences[b..end].partition_point(|&f| f <= key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_workloads::Request;
    use proptest::prelude::*;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn plan_of(reqs: Vec<Request>) -> CombinePlan {
        build_plan(&Batch::new(reqs), &DeviceConfig::default())
    }

    fn leaf_runs(keys: &[u64], fences: &[u64]) -> Vec<(usize, usize)> {
        partition_leaf_runs(keys, |&k| k, fences)
    }

    #[test]
    fn paper_figure3_example() {
        // Fig. 3: Q4@T2 U(5,f)@T3 Q1@T4 U(4,a)@T5 Q4@T5' W... — transcribed
        // with our op set: requests on keys 1, 4, 5.
        let reqs = vec![
            Request::upsert(5, 0xF, 3),
            Request::query(4, 2),
            Request::query(1, 4),
            Request::upsert(4, 0xA, 5),
            Request::query(4, 6),
            Request::upsert(5, 0xE, 7),
            Request::upsert(4, 0xB, 8),
            Request::query(1, 9),
        ];
        let p = plan_of(reqs);
        assert_eq!(p.runs.len(), 3);
        assert_eq!(p.issued.len(), 3);
        // Key 1: all queries -> issued Query.
        assert_eq!(p.issued[0].key, 1);
        assert_eq!(p.issued[0].kind, IssuedKind::Query);
        // Key 4: mixed -> last update U(4,b) issued.
        assert_eq!(p.issued[1].key, 4);
        assert_eq!(p.issued[1].kind, IssuedKind::Upsert(0xB));
        // Key 5: all updates -> last update U(5,e) issued.
        assert_eq!(p.issued[2].key, 5);
        assert_eq!(p.issued[2].kind, IssuedKind::Upsert(0xE));
        // 8 point requests, 3 issued -> 5 combined away.
        assert_eq!(p.combined_away(), 5);
    }

    #[test]
    fn runs_are_timestamp_sorted() {
        let reqs = vec![
            Request::query(7, 30),
            Request::upsert(7, 1, 10),
            Request::query(7, 20),
        ];
        let p = plan_of(reqs);
        assert_eq!(p.runs.len(), 1);
        let order: Vec<u64> = p
            .points
            .iter()
            .map(|pt| [30, 10, 20][pt.orig as usize])
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn delete_last_makes_issued_delete() {
        let reqs = vec![
            Request::upsert(3, 9, 0),
            Request::delete(3, 1),
            Request::query(3, 2),
        ];
        let p = plan_of(reqs);
        assert_eq!(p.issued[0].kind, IssuedKind::Delete);
    }

    #[test]
    fn ranges_do_not_join_point_runs() {
        let reqs = vec![
            Request::query(10, 0),
            Request::range(10, 4, 1),
            Request::upsert(10, 5, 2),
        ];
        let p = plan_of(reqs);
        assert_eq!(p.runs.len(), 1);
        assert_eq!(p.runs[0].len, 2, "range must not be part of the run");
        assert_eq!(p.ranges.len(), 1);
    }

    #[test]
    fn artificial_queries_only_for_covered_keys_with_updates() {
        // Fig. 5: R(3,6)@T2; key 4 has updates, key 6 has updates, key 3
        // only a query, key 5 nothing.
        let reqs = vec![
            Request::upsert(4, 0xB, 1),
            Request::range(3, 4, 2),
            Request::query(3, 3),
            Request::query(4, 4),
            Request::upsert(4, 0xE, 5),
            Request::upsert(6, 0xA, 6),
        ];
        let p = plan_of(reqs);
        assert_eq!(p.artificial_count(), 2, "keys 4 and 6 only");
        // Key 3's run (index of run with key 3) has no artificial query.
        let arts = |key| {
            let run = p.issued.iter().find(|i| i.key == key).unwrap().run;
            let arts = p.artificial.iter().filter(move |a| a.run == run);
            arts.collect::<Vec<_>>()
        };
        assert!(arts(3).is_empty());
        assert_eq!(arts(4).len(), 1);
        assert_eq!(arts(4)[0].offset, 1);
        assert_eq!(arts(4)[0].ts, 2);
        assert_eq!(arts(6).len(), 1);
        assert_eq!(arts(6)[0].offset, 3);
    }

    #[test]
    fn overlapping_ranges_each_get_artificials() {
        let reqs = vec![
            Request::range(1, 8, 0),
            Request::range(4, 4, 1),
            Request::upsert(5, 1, 2),
        ];
        let p = plan_of(reqs);
        assert_eq!(p.artificial_count(), 2, "key 5 covered by both ranges");
    }

    #[test]
    fn issued_count_equals_distinct_point_keys() {
        let reqs: Vec<Request> = (0..100u64)
            .map(|ts| Request::upsert((ts % 10) as Key + 1, ts as u32, ts))
            .collect();
        let p = plan_of(reqs);
        assert_eq!(p.issued.len(), 10);
        assert_eq!(p.combined_away(), 90);
        assert_eq!(p.issued_updates(), 10);
        // Issued value must be the latest-timestamp value per key.
        for is in &p.issued {
            let expect = 90 + (is.key - 1);
            assert_eq!(is.kind, IssuedKind::Upsert(expect), "key {}", is.key);
        }
    }

    #[test]
    fn empty_batch_builds_empty_plan() {
        let p = plan_of(vec![]);
        assert!(p.runs.is_empty());
        assert!(p.issued.is_empty());
        assert!(p.ranges.is_empty());
    }

    #[test]
    fn leaf_runs_group_by_fence_interval() {
        // Fences split the key space into [0,10), [10,20), [20,30), [30,..).
        let fences = [0u64, 10, 20, 30];
        let keys = [1u64, 5, 9, 10, 19, 25, 31, 40];
        let runs = leaf_runs(&keys, &fences);
        assert_eq!(runs, vec![(0, 3), (3, 5), (5, 6), (6, 8)]);
        // Ranges are half-open, contiguous, and cover all keys.
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs.last().unwrap().1, keys.len());
        for w in runs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn leaf_runs_handle_edges() {
        assert!(leaf_runs(&[], &[0, 10]).is_empty());
        // All keys in one leaf -> one run.
        assert_eq!(leaf_runs(&[3, 4, 5], &[0, 10]), vec![(0, 3)]);
        // Duplicate keys stay in the same run.
        assert_eq!(leaf_runs(&[5, 5, 5, 15], &[0, 10]), vec![(0, 3), (3, 4)]);
        // Keys below the first fence (possible when the snapshot is
        // stale) still form a run.
        assert_eq!(leaf_runs(&[1, 2, 12], &[5, 10]), vec![(0, 2), (2, 3)]);
    }

    /// The linear walk `partition_leaf_runs` used before it galloped,
    /// O(keys + fences): kept as the reference the interleaved, galloping
    /// walks must match group for group.
    fn partition_leaf_runs_linear(keys: &[u64], fences: &[u64]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if keys.is_empty() {
            return out;
        }
        let advance = |mut b: usize, key: u64| -> usize {
            while b < fences.len() && fences[b] <= key {
                b += 1;
            }
            b
        };
        let mut start = 0usize;
        let mut bucket = advance(0, keys[0]);
        for (i, &key) in keys.iter().enumerate().skip(1) {
            let b = advance(bucket, key);
            if b != bucket {
                out.push((start, i));
                start = i;
                bucket = b;
            }
        }
        out.push((start, keys.len()));
        out
    }

    #[test]
    fn galloping_leaf_runs_match_the_linear_walk_at_the_edges() {
        let dense: Vec<u64> = (0..100_000u64).map(|i| 10 * i).collect();
        let cases: [(&str, &[u64], &[u64]); 8] = [
            ("no fences", &[1, 2, 3], &[]),
            ("no keys", &[], &[5, 10]),
            ("one key, 100 000 fences", &[777_777], &dense),
            ("all below the first fence", &[1, 2, 3], &dense[1..]),
            ("all above the last fence", &[2_000_000, 2_000_001], &dense),
            ("a key equal to a fence", &[9, 10, 11, 50, 50, 51], &dense),
            ("last fence exactly", &[999_990, u64::MAX], &dense),
            ("single fence", &[0, 4, 5, 6], &[5]),
        ];
        for (what, keys, fences) in cases {
            assert_eq!(
                leaf_runs(keys, fences),
                partition_leaf_runs_linear(keys, fences),
                "{what}"
            );
        }
        // A gap of so many fences between two keys — inside the searched
        // window, each side of its end (16), each side of a probe, and far
        // beyond — starting on a fence and just past one.
        for gap in [
            0u64, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 18, 63, 64, 65, 10_000,
        ] {
            for first in [5_000u64, 5_003] {
                let keys = [first, first + 10 * gap, first + 10 * gap + 1];
                assert_eq!(
                    leaf_runs(&keys, &dense),
                    partition_leaf_runs_linear(&keys, &dense),
                    "gap {gap} from {first}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_galloping_leaf_runs_match_the_linear_walk(
            keys in proptest::collection::vec(0..4_200u64, 0..200),
            fences in proptest::collection::vec(0..4_000u64, 0..600),
            clump in 1..8u64,
        ) {
            // Ascending keys with duplicates (more of them as `clump`
            // grows), a few above the last fence; strictly ascending
            // fences, from sparser than the keys to 30 per key.
            let mut keys: Vec<u64> = keys.into_iter().map(|k| k / clump * clump).collect();
            keys.sort_unstable();
            let mut fences = fences;
            fences.sort_unstable();
            fences.dedup();
            prop_assert_eq!(
                leaf_runs(&keys, &fences),
                partition_leaf_runs_linear(&keys, &fences)
            );
        }

        #[test]
        fn prop_plan_equals_the_composite_key_reference(
            size in 0..5usize,
            seed in any::<u64>(),
            domain in 0..5usize,
            ts in 0..4u8,
            share in 0..4usize,
        ) {
            let n = [0, 1, 32, 512, 16384][size];
            let keys = [1, 8, 64, 4096, 1 << 21][domain];
            let range_pct = [0, 5, 30, 60][share];
            assert_plan_equals_reference(&mixed_batch(n, seed, keys, ts, range_pct));
        }
    }

    #[test]
    fn non_positional_timestamps_are_honored() {
        // Positional order differs from ts order: issued must follow ts.
        let reqs = vec![
            Request::upsert(2, 111, 5), // later ts
            Request::upsert(2, 222, 1), // earlier ts
        ];
        let p = plan_of(reqs);
        assert_eq!(p.issued[0].kind, IssuedKind::Upsert(111));
    }

    /// The composite-key plan `build_plan` replaced, kept as the reference
    /// it must equal field for field: ranks from the timestamp sort, one
    /// radix sort of `(key << 32) | rank` composites with a `0..n`
    /// payload, the run scan, the artificial-query sweep over the finished
    /// runs — then laid out as plans are now, with the work lists the
    /// executor used to build (issued split by kind, non-empty ranges
    /// merged into the queries by key, a query first on a tie).
    fn build_plan_composite(batch: &Batch, cfg: &DeviceConfig) -> CombinePlan {
        let n = batch.len();
        let reqs = &batch.requests;
        let mut by_ts: Vec<u32> = (0..n as u32).collect();
        by_ts.sort_unstable_by_key(|&i| (reqs[i as usize].ts, i));
        let mut rank = vec![0u32; n];
        for (r, &i) in by_ts.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let mut keys: Vec<u64> = (0..n)
            .map(|i| ((reqs[i].key as u64) << 32) | rank[i] as u64)
            .collect();
        let mut payload: Vec<u32> = (0..n as u32).collect();
        let mut cost = radix_sort_pairs(&mut keys, &mut payload, cfg);

        /// A run as the composite-key plan laid it out.
        struct OldRun {
            key: Key,
            start: u32,
            len: u32,
            has_state_ops: bool,
        }
        let mut point_sorted: Vec<u32> = Vec::new();
        let mut runs: Vec<OldRun> = Vec::new();
        let mut issued: Vec<Issued> = Vec::new();
        let mut ranges: Vec<RangeReq> = Vec::new();
        let mut last_state: Option<IssuedKind> = None;
        let close = |run: &OldRun, last_state: &mut Option<IssuedKind>| {
            let kind = last_state.take().unwrap_or(IssuedKind::Query);
            assert_eq!(run.has_state_ops, kind != IssuedKind::Query);
            Issued {
                key: run.key,
                kind,
                run: 0,
            }
        };
        for &idx in &payload {
            let req = &reqs[idx as usize];
            if let OpKind::Range { len } = req.op {
                ranges.push(RangeReq {
                    orig_idx: idx,
                    lo: req.key,
                    len,
                    ts: req.ts,
                    rank: rank[idx as usize],
                });
                continue;
            }
            let pos = point_sorted.len() as u32;
            let open_new = !matches!(
                runs.last(),
                Some(r) if r.key == req.key && r.start + r.len == pos
            );
            if open_new {
                if let Some(run) = runs.last() {
                    issued.push(close(run, &mut last_state));
                }
                runs.push(OldRun {
                    key: req.key,
                    start: pos,
                    len: 0,
                    has_state_ops: false,
                });
            }
            let run = runs.last_mut().expect("run was just ensured");
            run.len += 1;
            match req.op {
                OpKind::Upsert(v) => {
                    run.has_state_ops = true;
                    last_state = Some(IssuedKind::Upsert(v));
                }
                OpKind::Delete => {
                    run.has_state_ops = true;
                    last_state = Some(IssuedKind::Delete);
                }
                _ => {}
            }
            point_sorted.push(idx);
        }
        if let Some(run) = runs.last() {
            issued.push(close(run, &mut last_state));
        }
        for (i, is) in issued.iter_mut().enumerate() {
            is.run = i as u32;
        }

        let mut run_art: Vec<Vec<Artificial>> = vec![Vec::new(); runs.len()];
        let mut active: Vec<(u64, u32)> = Vec::new();
        let mut ri = 0usize;
        for (run_i, run) in runs.iter().enumerate() {
            let k = run.key as u64;
            while ri < ranges.len() && (ranges[ri].lo as u64) <= k {
                if let Some((_, hi)) = range_window(ranges[ri].lo as u64, ranges[ri].len) {
                    active.push((hi, ri as u32));
                }
                ri += 1;
            }
            active.retain(|&(hi, _)| hi >= k);
            if run.has_state_ops {
                for &(_, range_idx) in &active {
                    let r = &ranges[range_idx as usize];
                    run_art[run_i].push(Artificial {
                        run: run_i as u32,
                        range_idx,
                        offset: (k - r.lo as u64) as u32,
                        ts: r.ts,
                        rank: rank[r.orig_idx as usize],
                    });
                }
                run_art[run_i].sort_unstable_by_key(|a| a.rank);
            }
        }
        cost.merge(PrimCost::streaming(cfg, n as u64, 1, 4));
        cost.merge(PrimCost::streaming(cfg, issued.len() as u64, 2, 2));
        let art: usize = run_art.iter().map(|v| v.len()).sum();
        cost.merge(PrimCost::streaming(cfg, (ranges.len() + art) as u64, 1, 4));

        let artificial = run_art.concat();
        let runs = runs
            .iter()
            .map(|run| Run {
                start: run.start,
                len: run.len,
                has_state_ops: run.has_state_ops,
            })
            .collect();
        let points = point_sorted
            .iter()
            .map(|&i| Point {
                orig: i,
                rank: rank[i as usize],
                op: reqs[i as usize].op,
            })
            .collect();
        let (mut queries, mut update_items) = (Vec::new(), Vec::new());
        for is in &issued {
            let key = is.key;
            match is.kind {
                IssuedKind::Query => queries.push(QueryItem::Query { run: is.run, key }),
                kind => update_items.push(UpdateItem {
                    run: is.run,
                    key,
                    kind,
                }),
            }
        }
        let mut query_items = Vec::new();
        let mut queries = queries.into_iter().peekable();
        for (idx, r) in ranges.iter().enumerate() {
            let Some((lo, _)) = range_window(r.lo as u64, r.len) else {
                continue;
            };
            while let Some(q) =
                queries.next_if(|q| matches!(*q, QueryItem::Query { key, .. } if key as u64 <= lo))
            {
                query_items.push(q);
            }
            query_items.push(QueryItem::Range {
                range_idx: idx as u32,
                lo: r.lo,
                len: r.len,
            });
        }
        query_items.extend(queries);
        CombinePlan {
            points,
            runs,
            issued,
            ranges,
            artificial,
            query_items,
            update_items,
            cost,
        }
    }

    /// `n` requests on keys `0..keys` (duplicates unless the domain is
    /// wide), a `range_pct` share of them ranges of 0 to 8 keys (empty and
    /// overlapping windows), with timestamps by `ts`: 0 batch order, 1
    /// drawn from a quarter of `0..n` (equal timestamps out of batch
    /// order), 2 a shuffled permutation, 3 descending.
    fn mixed_batch(n: usize, seed: u64, keys: u32, ts: u8, range_pct: u32) -> Batch {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut stamps: Vec<u64> = match ts {
            0 => (0..n as u64).collect(),
            1 => (0..n).map(|_| rng.gen_range(0..n as u64 / 4 + 1)).collect(),
            3 => (0..n as u64).rev().collect(),
            _ => (0..n as u64).collect(),
        };
        if ts == 2 {
            stamps.shuffle(&mut rng);
        }
        let requests = stamps
            .into_iter()
            .map(|ts| {
                let key = rng.gen_range(0..=keys - 1);
                match rng.gen_range(0..100u32) {
                    x if x < range_pct => Request::range(key, rng.gen_range(0..=8), ts),
                    x if x < range_pct + 30 => Request::upsert(key, rng.gen(), ts),
                    x if x < range_pct + 40 => Request::delete(key, ts),
                    _ => Request::query(key, ts),
                }
            })
            .collect();
        Batch::new(requests)
    }

    fn assert_plan_equals_reference(batch: &Batch) {
        let cfg = DeviceConfig::default();
        let (got, want) = (build_plan(batch, &cfg), build_plan_composite(batch, &cfg));
        assert_eq!(got.points, want.points, "points");
        assert_eq!(got.runs, want.runs, "runs");
        assert_eq!(got.issued, want.issued, "issued");
        assert_eq!(got.ranges, want.ranges, "ranges");
        assert_eq!(got.artificial, want.artificial, "artificial");
        assert_eq!(got.query_items, want.query_items, "query_items");
        assert_eq!(got.update_items, want.update_items, "update_items");
        assert_eq!(got.cost, want.cost, "cost");
        assert_eq!(got, want);
    }

    #[test]
    fn plan_equals_the_composite_key_reference_at_every_size() {
        for n in [0usize, 1, 32, 512, 16384] {
            for ts in 0..4 {
                for (keys, range_pct) in [(8, 30), (1 << 21, 5), (u32::MAX, 0)] {
                    let seed = n as u64 * 31 + ts as u64;
                    assert_plan_equals_reference(&mixed_batch(n, seed, keys, ts, range_pct));
                }
            }
        }
    }
}
