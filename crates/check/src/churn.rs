//! Churn fuzzing: sustained delete/insert rounds against ONE persistent
//! tree, exercising merge/borrow rebalancing and slab-arena reclamation.
//!
//! The tree leg builds a fresh tree per case, so retired nodes never
//! outlive a case and a reclamation bug (a leaked orphan, a node recycled
//! under a stale reader, quarantine that never drains) is invisible to
//! it. This leg keeps one tree alive across many [`Profile::DeleteChurn`]
//! batches: keys flicker between present and absent round after round,
//! leaves underflow and merge, merged-away nodes retire into the arena's
//! epoch quarantine, and every batch boundary advances the reclamation
//! epoch. Every round is checked against a persistent oracle (responses,
//! structure, contents); after the last round the case also checks:
//!
//! * **occupancy**: live node blocks stay within a small factor of the
//!   post-build node count — churn over a bounded working set must reach a
//!   steady state where merges + reclamation balance splits, instead of
//!   leaking a node per round;
//! * **drained quarantine**: the batch-boundary epoch advance reclaims
//!   everything retired during the batch, so nothing stays parked.
//!
//! The serve cases ([`run_churn_serve_case`]) push the same churn stream
//! through a sharded service with racing submitters, piggybacking on
//! [`run_serve_case`] (which checks the per-shard arena gauges on every
//! serve case).

use crate::diff::{build_tree, check_against_oracle, oracle_over, TreeKind, Violation};
use crate::driver::{mix, At, Fuzz, Leg};
use crate::gen::{adversarial_batch, dense_pairs, GenOptions, Profile};
use crate::serve::{fuzz_shard_map, run_serve_case};
use eirene_workloads::{Batch, Request};

/// The case's rounds: [`Profile::DeleteChurn`] batches seeded
/// `mix(case_seed ^ round)`.
fn rounds(opts: &Fuzz, case_seed: u64) -> impl Iterator<Item = Batch> {
    let gen = GenOptions {
        domain: opts.domain,
        batch_size: opts.batch_size,
    };
    (0..opts.rounds as u64)
        .map(move |round| adversarial_batch(mix(case_seed ^ round), Profile::DeleteChurn, &gen))
}

/// Runs one churn case: the rounds against one tree and one persistent
/// oracle, then the quarantine and occupancy checks. Returns the final
/// live/post-build ratio (percent) on success.
pub fn run_churn_case(opts: &Fuzz, case_seed: u64) -> Result<u64, (Violation, At)> {
    let pairs = dense_pairs(opts.initial_keys);
    let headroom = (opts.batch_size * 2).max(1 << 12);
    let cfg = opts.device(mix(case_seed));
    let mut tree = build_tree(TreeKind::Eirene, &pairs, cfg, headroom);
    let post_build = tree.device().mem().slab_stats().live;
    let mut oracle = oracle_over(&pairs);
    for (round, batch) in rounds(opts, case_seed).enumerate() {
        check_against_oracle(tree.as_mut(), &mut oracle, &batch)
            .map_err(|v| (v, At::round(round)))?;
    }
    let st = tree.device().mem().slab_stats();
    let bound = post_build.max(1) * opts.occupancy_factor;
    let violation = if st.retired > 0 {
        Violation::Quarantine {
            retired: st.retired,
        }
    } else if st.live > bound {
        Violation::Occupancy {
            live: st.live,
            bound,
            post_build,
        }
    } else {
        return Ok(st.live * 100 / post_build.max(1));
    };
    Err((violation, At::default()))
}

/// One serve-leg churn case: the concatenated rounds stream through a
/// 4-shard service with 4 racing submitters, checked by
/// [`run_serve_case`] (tickets vs the flat oracle, structures, report
/// accounting, per-shard arena gauges).
pub fn run_churn_serve_case(opts: &Fuzz, case_seed: u64) -> Result<(), Violation> {
    let serve = Fuzz {
        domain: opts.domain,
        initial_keys: opts.initial_keys,
        submitters: 4,
        ..Fuzz::new(Leg::Serve)
    };
    let map = fuzz_shard_map(serve.shards, serve.domain);
    let pairs = dense_pairs(opts.initial_keys);
    let reqs: Vec<Request> = rounds(opts, case_seed).flat_map(|b| b.requests).collect();
    run_serve_case(&serve, &map, &pairs, mix(case_seed), &reqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Outcome;

    fn short() -> Fuzz {
        Fuzz {
            cases: 4,
            rounds: 4,
            batch_size: 96,
            domain: 1024,
            initial_keys: 512,
            serve_cases: 1,
            ..Fuzz::new(Leg::Churn)
        }
    }

    #[test]
    fn churn_fuzz_passes_a_short_run() {
        match short().run() {
            Outcome::Passed { cases, coverage } => {
                assert_eq!(cases, 5);
                assert!(
                    coverage <= 400,
                    "worst occupancy {coverage}% exceeds the 4x bound"
                );
            }
            Outcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn churn_cases_replay_from_their_seed() {
        let a = run_churn_case(&short(), 42).expect("case passes");
        let b = run_churn_case(&short(), 42).expect("case passes");
        // Same seed, same rounds — identical final occupancy.
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_bound_trips_on_an_artificial_leak() {
        // A zero-factor bound must always trip: live > 0 after build.
        let opts = Fuzz {
            occupancy_factor: 0,
            ..short()
        };
        match run_churn_case(&opts, 7) {
            Err((Violation::Occupancy { live, bound, .. }, _)) => assert!(live > bound),
            other => panic!("expected an occupancy violation, got {other:?}"),
        }
    }
}
