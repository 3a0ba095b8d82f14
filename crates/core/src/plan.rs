//! Combining-based synchronization: sort, run detection, issued-request
//! selection, and artificial-query generation (§4.1).

use eirene_primitives::{radix_sort_pairs, PrimCost};
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
#[derive(Clone, Copy, Debug)]
pub struct Issued {
    pub key: Key,
    pub kind: IssuedKind,
    /// Index of the run this request represents.
    pub run: u32,
}

/// A run: all point requests on one key, in timestamp order.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub key: Key,
    /// Start offset into [`CombinePlan::point_sorted`].
    pub start: u32,
    /// Number of point requests in the run.
    pub len: u32,
    /// Whether the run contains any upsert/delete.
    pub has_state_ops: bool,
}

/// A range query, sorted into the batch by its lower bound.
#[derive(Clone, Copy, Debug)]
pub struct RangeReq {
    /// Position of the request in the original batch.
    pub orig_idx: u32,
    pub lo: Key,
    pub len: u32,
    pub ts: u64,
}

/// An artificial query (§4.1.2): "key `run.key` as of timestamp `ts`",
/// generated because a range query covers a key that has updates in the
/// batch. Its resolved value patches slot `offset` of range `range_idx`.
#[derive(Clone, Copy, Debug)]
pub struct Artificial {
    pub range_idx: u32,
    pub offset: u32,
    pub ts: u64,
    /// Timestamp *rank* of the originating range request — the position of
    /// `(ts, batch index)` in the batch's total order. Result calculation
    /// orders an artificial query against a point request by rank, so two
    /// requests sharing a raw timestamp resolve in batch order, matching
    /// the oracle's stable sort.
    pub rank: u32,
}

/// Output of the combining phase.
#[derive(Clone, Debug)]
pub struct CombinePlan {
    /// Indices of point requests (original batch positions) sorted by
    /// (key, timestamp). Runs are contiguous slices of this array.
    pub point_sorted: Vec<u32>,
    pub runs: Vec<Run>,
    /// One issued request per run, in ascending key order.
    pub issued: Vec<Issued>,
    /// Range queries in ascending lower-bound order.
    pub ranges: Vec<RangeReq>,
    /// Artificial queries per run, each list sorted by timestamp rank.
    pub run_art: Vec<Vec<Artificial>>,
    /// Timestamp rank per original batch position: the index of
    /// `(ts, batch position)` in the batch's sorted total order. Breaks
    /// equal-timestamp ties exactly as the sequential oracle's stable sort
    /// does.
    pub rank: Vec<u32>,
    /// Modelled device cost of sorting + combining + artificial-query
    /// generation.
    pub cost: PrimCost,
}

impl CombinePlan {
    /// Total number of artificial queries generated.
    pub fn artificial_count(&self) -> usize {
        self.run_art.iter().map(|v| v.len()).sum()
    }

    /// Number of issued update-kernel requests.
    pub fn issued_updates(&self) -> usize {
        self.issued
            .iter()
            .filter(|i| !matches!(i.kind, IssuedKind::Query))
            .count()
    }

    /// Requests whose tree traversal was eliminated by combining (unissued
    /// point requests).
    pub fn combined_away(&self) -> usize {
        self.point_sorted.len() - self.issued.len()
    }
}

/// Builds the combining plan for a batch (§4.1, §4.1.2).
///
/// Sorting uses the radix-sort device primitive over composite
/// `(key << 32) | timestamp-rank` keys, exactly as the implementation
/// sorts with CUB (§7); the sort's modelled cost — and the combining
/// scans' — are part of the returned plan, because the paper charges them
/// to Eirene in every measurement (§8.1).
pub fn build_plan(batch: &Batch, cfg: &DeviceConfig) -> CombinePlan {
    let n = batch.len();
    assert!(n < (1 << 32), "batch too large for 32-bit timestamp ranks");

    // Logical-timestamp ranks: requests may carry arbitrary (unique) ts
    // values; the composite sort key needs them compressed to 32 bits.
    let mut by_ts: Vec<u32> = (0..n as u32).collect();
    by_ts.sort_unstable_by_key(|&i| (batch.requests[i as usize].ts, i));
    let mut rank = vec![0u32; n];
    for (r, &i) in by_ts.iter().enumerate() {
        rank[i as usize] = r as u32;
    }

    // Composite sort: key (range queries by lower bound) then timestamp.
    let mut keys: Vec<u64> = (0..n)
        .map(|i| ((batch.requests[i].key as u64) << 32) | rank[i] as u64)
        .collect();
    let mut payload: Vec<u32> = (0..n as u32).collect();
    let mut cost = radix_sort_pairs(&mut keys, &mut payload, cfg);

    // Single scan: split into point requests (forming runs) and range
    // queries, pick the issued request per run.
    let mut point_sorted = Vec::with_capacity(n);
    let mut runs: Vec<Run> = Vec::new();
    let mut issued: Vec<Issued> = Vec::new();
    let mut ranges: Vec<RangeReq> = Vec::new();
    // Per-run issued tracking while the run is open.
    let mut last_state: Option<IssuedKind> = None;

    for &idx in &payload {
        let req = &batch.requests[idx as usize];
        if let OpKind::Range { len } = req.op {
            ranges.push(RangeReq {
                orig_idx: idx,
                lo: req.key,
                len,
                ts: req.ts,
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
                issued.push(close_run(run, &mut last_state));
            }
            runs.push(Run {
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
            OpKind::Query => {}
            OpKind::Range { .. } => unreachable!("ranges handled above"),
        }
        point_sorted.push(idx);
    }
    if let Some(run) = runs.last() {
        issued.push(close_run(run, &mut last_state));
    }
    // Runs are keyed 0.. in creation order; fix up `run` back-references.
    for (i, is) in issued.iter_mut().enumerate() {
        is.run = i as u32;
    }

    // Artificial queries: two-pointer sweep of key-sorted runs against
    // lower-bound-sorted ranges (§4.1.2). `active` holds ranges whose
    // interval could still cover the current run key.
    let mut run_art: Vec<Vec<Artificial>> = vec![Vec::new(); runs.len()];
    let mut active: Vec<(u64, u32)> = Vec::new(); // (hi, range index)
    let mut ri = 0usize;
    for (run_i, run) in runs.iter().enumerate() {
        let k = run.key as u64;
        while ri < ranges.len() && (ranges[ri].lo as u64) <= k {
            // A zero-length range covers no key: it never becomes active.
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
                    range_idx,
                    offset: (k - r.lo as u64) as u32,
                    ts: r.ts,
                    rank: rank[r.orig_idx as usize],
                });
            }
            run_art[run_i].sort_unstable_by_key(|a| a.rank);
        }
    }

    // Modelled cost of the combining scan (one pass), issued partition
    // (one pass over issued), and artificial generation (proportional to
    // ranges + artificial count).
    cost.merge(PrimCost::streaming(cfg, n as u64, 1, 4));
    cost.merge(PrimCost::streaming(cfg, issued.len() as u64, 2, 2));
    let art: usize = run_art.iter().map(|v| v.len()).sum();
    cost.merge(PrimCost::streaming(cfg, (ranges.len() + art) as u64, 1, 4));

    CombinePlan {
        point_sorted,
        runs,
        issued,
        ranges,
        run_art,
        rank,
        cost,
    }
}

/// Partitions ascending work-item keys into *leaf runs*: maximal
/// contiguous groups whose keys fall between the same pair of adjacent
/// leaf low-fence keys, i.e. target the same leaf under the pivot-cache
/// snapshot. Returns half-open `(start, end)` index ranges covering
/// `keys` exactly, in order.
///
/// The fences are a dispatch *hint* (a snapshot): a stale partition only
/// makes groups slightly off — every item still locates its leaf through
/// the validated traversal — so correctness never depends on them.
/// Linearization is untouched: partitioning only groups the already
/// rank-ordered issued stream, it never reorders items.
pub fn partition_leaf_runs(keys: &[u64], fences: &[u64]) -> Vec<(usize, usize)> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must ascend");
    debug_assert!(fences.windows(2).all(|w| w[0] < w[1]), "fences must ascend");
    let mut out = Vec::new();
    if keys.is_empty() {
        return out;
    }
    let mut start = 0usize;
    let mut bucket = advance_bucket(fences, 0, keys[0]);
    for (i, &key) in keys.iter().enumerate().skip(1) {
        let b = advance_bucket(fences, bucket, key);
        if b != bucket {
            out.push((start, i));
            start = i;
            bucket = b;
        }
    }
    out.push((start, keys.len()));
    out
}

/// Fences stepped over one by one before [`advance_bucket`] gallops: a
/// batch as dense as the leaves (a `tree_*` epoch) moves a fence or two per
/// key and never leaves the linear steps.
const LINEAR_FENCE_STEPS: usize = 4;

/// The bucket of `key` — the number of fences `<= key` — given that it is
/// at least `b` (keys ascend, so the fence cursor only moves forward). A
/// few linear steps, then an exponential probe and a binary search inside
/// the bracket it found: O(log gap) per key, so a 30-key epoch over 10 000
/// leaves does not walk every fence.
#[inline]
fn advance_bucket(fences: &[u64], mut b: usize, key: u64) -> usize {
    for _ in 0..LINEAR_FENCE_STEPS {
        if fences.get(b).is_none_or(|&f| f > key) {
            return b;
        }
        b += 1;
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

fn close_run(run: &Run, last_state: &mut Option<IssuedKind>) -> Issued {
    let kind = last_state.take().unwrap_or(IssuedKind::Query);
    debug_assert_eq!(run.has_state_ops, !matches!(kind, IssuedKind::Query));
    Issued {
        key: run.key,
        kind,
        run: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_workloads::Request;
    use proptest::prelude::*;

    fn plan_of(reqs: Vec<Request>) -> CombinePlan {
        build_plan(&Batch::new(reqs), &DeviceConfig::default())
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
            .point_sorted
            .iter()
            .map(|&i| [30, 10, 20][i as usize])
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
        let run3 = p.runs.iter().position(|r| r.key == 3).unwrap();
        assert!(p.run_art[run3].is_empty());
        let run4 = p.runs.iter().position(|r| r.key == 4).unwrap();
        assert_eq!(p.run_art[run4].len(), 1);
        assert_eq!(p.run_art[run4][0].offset, 1);
        assert_eq!(p.run_art[run4][0].ts, 2);
        let run6 = p.runs.iter().position(|r| r.key == 6).unwrap();
        assert_eq!(p.run_art[run6].len(), 1);
        assert_eq!(p.run_art[run6][0].offset, 3);
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
        let runs = partition_leaf_runs(&keys, &fences);
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
        assert!(partition_leaf_runs(&[], &[0, 10]).is_empty());
        // All keys in one leaf -> one run.
        assert_eq!(partition_leaf_runs(&[3, 4, 5], &[0, 10]), vec![(0, 3)]);
        // Duplicate keys stay in the same run.
        assert_eq!(
            partition_leaf_runs(&[5, 5, 5, 15], &[0, 10]),
            vec![(0, 3), (3, 4)]
        );
        // Keys below the first fence (possible when the snapshot is
        // stale) still form a run.
        assert_eq!(
            partition_leaf_runs(&[1, 2, 12], &[5, 10]),
            vec![(0, 2), (2, 3)]
        );
    }

    /// The linear walk `partition_leaf_runs` used before it galloped,
    /// O(keys + fences): kept as the reference the galloping one must match
    /// group for group.
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
                partition_leaf_runs(keys, fences),
                partition_leaf_runs_linear(keys, fences),
                "{what}"
            );
        }
        // A gap of so many fences between two keys — each side of the
        // switch from linear steps to galloping (4), each side of a probe,
        // and far beyond — starting on a fence and just past one.
        for gap in [0u64, 1, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 10_000] {
            for first in [5_000u64, 5_003] {
                let keys = [first, first + 10 * gap, first + 10 * gap + 1];
                assert_eq!(
                    partition_leaf_runs(&keys, &dense),
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
                partition_leaf_runs(&keys, &fences),
                partition_leaf_runs_linear(&keys, &fences)
            );
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
}
