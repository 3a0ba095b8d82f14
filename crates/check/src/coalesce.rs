//! Coalescing fuzz leg: adversarial batches aimed at the combine-path
//! machinery — sorted-plan leaf runs and the snapshot pivot cache.
//!
//! The tree leg already covers linearizability in general; this
//! leg targets the failure surfaces coalescing adds:
//!
//! * **Duplicate-key / equal-timestamp clusters**: long same-key runs make
//!   whole leaf-run groups collapse onto one descent, and colliding
//!   timestamps make correctness depend on the batch-position tie-break
//!   surviving the regrouping (a reordered run would linearize wrong).
//! * **Range-straddling-run batches**: range queries whose windows span
//!   several leaf-run groups, so the horizontal leaf-chain walk crosses
//!   the partition the planner chose.
//! * **Pivot-cache invalidation**: a mixed round builds the cache, a
//!   leaf-split round fills one leaf below the domain edge past capacity
//!   (the snapshot survives with a stale fence set), a query round reads
//!   across that edge through it, and a split-heavy round (dense upserts
//!   above `domain`) splits an inner node and invalidates the snapshot
//!   before a second query round reads both regions.
//!
//! Every round runs against one persistent coalesced tree and one
//! persistent coalesce-disabled twin, each with its own flat
//! [`SequentialOracle`](eirene_workloads::SequentialOracle): after every
//! round both twins' responses, structure and contents are checked
//! against their oracle, and the case additionally asserts
//! the machinery actually fired (cache rebuilds after the split round,
//! cache hits in the query round) so a silently disabled combine path
//! cannot pass.

use crate::diff::{check_against_oracle, oracle_over, Violation};
use crate::driver::{mix, At, Fuzz};
use crate::gen::{dense_pairs, GenOptions};
use eirene_btree::node::FANOUT;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::DeviceConfig;
use eirene_workloads::{Batch, OpKind, Request};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The fixed round sequence every case runs: build the cache, keep it
/// across leaf splits, invalidate it with an inner split, then read
/// through the rebuilt snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundKind {
    /// Duplicate-key clusters with colliding timestamps plus straddling
    /// ranges over the pre-loaded domain. Builds (and exercises) the
    /// pivot cache.
    Mixed,
    /// Upserts of the 24 keys just below `domain - 8`: the leaf holding
    /// them overflows and splits, and the snapshot is kept.
    LeafSplit,
    /// Upserts of `2 * FANOUT²` (or a batch of) fresh keys above `domain`:
    /// more new leaves than one leaf parent holds, so an inner node splits
    /// and the snapshot is invalidated.
    SplitHeavy,
    /// Point and straddling range reads over BOTH regions and across the
    /// leaf-split window, dispatched through the current snapshot.
    QueryHeavy,
}

impl RoundKind {
    /// Round order within a case: the first query round reads through the
    /// kept, stale-fenced snapshot, the second through the rebuilt one.
    pub const SEQUENCE: [RoundKind; 6] = [
        RoundKind::Mixed,
        RoundKind::LeafSplit,
        RoundKind::QueryHeavy,
        RoundKind::SplitHeavy,
        RoundKind::QueryHeavy,
        RoundKind::Mixed,
    ];
}

/// Generates one round's batch (deterministic in `(seed, kind, opts)`).
pub fn coalesce_batch(seed: u64, kind: RoundKind, opts: &GenOptions) -> Batch {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = opts.batch_size;
    let mut reqs: Vec<Request> = Vec::with_capacity(n);
    match kind {
        RoundKind::Mixed => {
            // Clusters of 2..=12 requests on one key sharing one raw
            // timestamp: a whole cluster lands in one leaf run and its
            // internal order is purely the batch-position tie-break.
            let mut cluster = 0u64;
            while reqs.len() < n {
                let key = rng.gen_range(0..=opts.domain);
                let size = rng.gen_range(2..=12usize).min(n - reqs.len());
                let ts = cluster;
                cluster += 1;
                for _ in 0..size {
                    let op = match rng.gen_range(0..10u32) {
                        0..=3 => OpKind::Upsert(rng.gen()),
                        4 => OpKind::Delete,
                        // Long windows: straddle several leaf runs.
                        5..=6 => OpKind::Range {
                            len: rng.gen_range(16..=64u32),
                        },
                        _ => OpKind::Query,
                    };
                    reqs.push(Request { key, op, ts });
                }
            }
        }
        RoundKind::LeafSplit | RoundKind::SplitHeavy => {
            let d = opts.domain;
            let keys = match kind {
                RoundKind::LeafSplit => d.saturating_sub(32)..d.saturating_sub(8),
                _ => d + 1..d + 1 + n.max(2 * FANOUT * FANOUT) as u32,
            };
            for (ts, key) in (0..).zip(keys) {
                reqs.push(Request::upsert(key, rng.gen(), ts));
            }
        }
        RoundKind::QueryHeavy => {
            // Reads over both regions; half the ranges start just under
            // the old/new boundary so the window straddles it.
            for i in 0..n {
                let key = if rng.gen_bool(0.5) {
                    rng.gen_range(0..=opts.domain)
                } else {
                    opts.domain.saturating_sub(32) + rng.gen_range(0..64u32)
                };
                let op = if rng.gen_range(0..4u32) == 0 {
                    OpKind::Range {
                        len: rng.gen_range(16..=64u32),
                    }
                } else {
                    OpKind::Query
                };
                reqs.push(Request {
                    key,
                    op,
                    ts: i as u64,
                });
            }
        }
    }
    Batch::new(reqs)
}

/// Builds one Eirene twin over `pairs` with coalescing on or off.
fn build_twin(
    pairs: &[(u64, u64)],
    cfg: DeviceConfig,
    headroom: usize,
    coalesce: bool,
) -> EireneTree {
    EireneTree::new(
        pairs,
        EireneOptions {
            device: cfg,
            headroom_nodes: headroom,
            coalesce,
            ..Default::default()
        },
    )
}

/// Runs one coalescing case: the [`RoundKind::SEQUENCE`] against a
/// persistent coalesced tree and its coalesce-disabled twin, each beside
/// its own oracle. Returns the coalesced tree's accumulated cache hits.
pub fn run_coalesce_case(opts: &Fuzz, case_seed: u64) -> Result<u64, (Violation, At)> {
    let pairs = dense_pairs(opts.initial_keys);
    let cfg = |salt: u64| opts.device(mix(case_seed ^ salt));
    // Headroom covers the split round's fresh region plus churn slack.
    let headroom = (opts.batch_size * 4).max(1 << 12);
    let mut on = build_twin(&pairs, cfg(1), headroom, true);
    let mut off = build_twin(&pairs, cfg(2), headroom, false);
    let (mut on_oracle, mut off_oracle) = (oracle_over(&pairs), oracle_over(&pairs));
    let gen_opts = GenOptions {
        domain: opts.domain,
        batch_size: opts.batch_size,
    };
    let (mut hits, mut rebuilds, mut saved) = (0u64, 0u64, 0u64);
    for (round, &kind) in RoundKind::SEQUENCE.iter().enumerate() {
        let batch = coalesce_batch(mix(case_seed ^ round as u64), kind, &gen_opts);
        let at = |twin| At {
            round: Some(round),
            twin: Some(twin),
        };
        let on = check_against_oracle(&mut on, &mut on_oracle, &batch)
            .map_err(|v| (v, at("coalesced")))?
            .stats
            .totals;
        let off = check_against_oracle(&mut off, &mut off_oracle, &batch)
            .map_err(|v| (v, at("uncoalesced")))?
            .stats
            .totals;
        hits += on.pivot_cache_hits;
        rebuilds += on.pivot_cache_rebuilds;
        saved += on.descents_saved;
        if off.pivot_cache_hits != 0 || off.descents_saved != 0 {
            let detail = "coalesce-disabled twin reported combine-path counters";
            return Err((Violation::MachineryIdle(detail.into()), At::round(round)));
        }
    }
    // The invalidation cycle must actually have happened: the first round
    // builds the cache, the inner split kills it, a later round rebuilds.
    let idle = if rebuilds < 2 {
        format!("{rebuilds} cache rebuilds across the sequence, expected >= 2")
    } else if hits == 0 || saved == 0 {
        format!("{hits} cache hits, {saved} descents saved")
    } else {
        return Ok(hits);
    };
    Err((Violation::MachineryIdle(idle), At::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Leg, Outcome};

    fn short_opts() -> Fuzz {
        Fuzz {
            cases: 3,
            batch_size: 128,
            domain: 1024,
            initial_keys: 512,
            ..Fuzz::new(Leg::Coalesce)
        }
    }

    #[test]
    fn coalesce_fuzz_passes_a_short_run() {
        match short_opts().run() {
            Outcome::Passed { cases, coverage } => {
                assert_eq!(cases, 3);
                assert!(coverage > 0, "cases must exercise the pivot cache");
            }
            Outcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn coalesce_cases_replay_from_their_seed() {
        let opts = Fuzz {
            deterministic: true,
            ..short_opts()
        };
        let a = run_coalesce_case(&opts, 97).expect("case passes");
        let b = run_coalesce_case(&opts, 97).expect("case passes");
        // Deterministic scheduling: identical cache-hit counts.
        assert_eq!(a, b);
    }

    #[test]
    fn only_the_split_heavy_round_invalidates_the_snapshot() {
        let opts = Fuzz {
            deterministic: true,
            ..Fuzz::new(Leg::Coalesce)
        };
        let gen_opts = GenOptions {
            domain: opts.domain,
            batch_size: opts.batch_size,
        };
        for seed in 1..=3u64 {
            let pairs = dense_pairs(opts.initial_keys);
            let mut tree = build_twin(&pairs, opts.device(seed), 1 << 12, true);
            let mut oracle = oracle_over(&pairs);
            let rebuilds: Vec<u64> = (0..)
                .zip(RoundKind::SEQUENCE)
                .map(|(round, kind)| {
                    let batch = coalesce_batch(mix(seed ^ round), kind, &gen_opts);
                    let run = check_against_oracle(&mut tree, &mut oracle, &batch).unwrap();
                    run.stats.totals.pivot_cache_rebuilds
                })
                .collect();
            // Built once; kept across the leaf splits and the first query
            // round; rebuilt after the split-heavy round only.
            assert_eq!(rebuilds, [1, 0, 0, 0, 1, 0], "seed {seed}");
        }
    }

    #[test]
    fn batch_generation_is_deterministic() {
        let o = GenOptions {
            batch_size: 64,
            domain: 512,
        };
        for kind in RoundKind::SEQUENCE {
            assert_eq!(
                coalesce_batch(5, kind, &o).requests,
                coalesce_batch(5, kind, &o).requests,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn the_mixed_round_collides_keys_and_timestamps() {
        let o = GenOptions {
            batch_size: 256,
            domain: 1024,
        };
        let b = coalesce_batch(11, RoundKind::Mixed, &o);
        let mut keys: Vec<u32> = b.requests.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() < b.len() / 2, "expected duplicate-key clusters");
        let mut ts: Vec<u64> = b.requests.iter().map(|r| r.ts).collect();
        ts.sort_unstable();
        ts.dedup();
        assert!(ts.len() < b.len(), "expected shared timestamps");
        assert!(
            b.requests
                .iter()
                .any(|r| matches!(r.op, OpKind::Range { len } if len >= 16)),
            "expected straddling ranges"
        );
    }
}
