//! Churn fuzzing: sustained delete/insert rounds against ONE persistent
//! tree, exercising merge/borrow rebalancing and slab-arena reclamation.
//!
//! The single-batch fuzzer ([`run_fuzz`](crate::run_fuzz)) builds a fresh
//! tree per case, so retired nodes never outlive a case and a reclamation
//! bug (a leaked orphan, a node recycled under a stale reader, quarantine
//! that never drains) is invisible to it. This leg keeps one tree alive
//! across many [`Profile::DeleteChurn`] batches: keys flicker between
//! present and absent round after round, leaves underflow and merge,
//! merged-away nodes retire into the arena's epoch quarantine, and every
//! batch boundary advances the reclamation epoch. After the last round the
//! case checks, on top of the usual response/structure/contents
//! differential:
//!
//! * **occupancy**: live node blocks stay within a small factor of the
//!   post-build node count — churn over a bounded working set must reach a
//!   steady state where merges + reclamation balance splits, instead of
//!   leaking a node per round;
//! * **drained quarantine**: the batch-boundary epoch advance reclaims
//!   everything retired during the batch, so nothing stays parked.
//!
//! The serve leg (`run_churn_serve_leg`) pushes the same churn stream
//! through a sharded service with racing submitters and a forced
//! split + merge rebalance, piggybacking on
//! [`run_serve_case`] (which checks the per-shard
//! arena gauges on every serve-fuzz case).

use crate::diff::{build_tree, FuzzTree, Violation};
use crate::gen::{adversarial_batch, dense_pairs, GenOptions, Profile};
use crate::serve::{fuzz_shard_map, run_serve_case, ServeFuzzOptions, ServeViolation};
use eirene_sim::DeviceConfig;
use eirene_workloads::{Batch, Oracle, Request, SequentialOracle};

/// Configuration of one churn fuzz run.
#[derive(Clone, Debug)]
pub struct ChurnOptions {
    /// Master seed; per-case and per-round batch seeds derive from it.
    pub seed: u64,
    /// Cases (fresh tree + `rounds` consecutive churn batches) to run.
    pub cases: usize,
    /// Churn batches applied to each case's tree, back to back.
    pub rounds: usize,
    /// Requests per round.
    pub batch_size: usize,
    /// Key domain of generated requests.
    pub domain: u32,
    /// Keys pre-loaded into every fresh tree (`1..=initial_keys`).
    pub initial_keys: u32,
    /// Live node blocks after the last round may be at most this factor
    /// times the post-build count (the working set only shrinks under
    /// churn, so any sustained growth is a leak).
    pub occupancy_factor: u64,
    /// Run devices under the seeded deterministic scheduler.
    pub deterministic: bool,
    /// Serve-leg cases appended after the single-tree cases: the same
    /// churn stream through a sharded service with racing submitters and
    /// a forced split + merge rebalance. 0 skips the leg.
    pub serve_cases: usize,
    /// Replay mode: use this value directly as the case seed and run one
    /// single-tree case plus one serve-leg case (when `serve_cases > 0`)
    /// — whichever leg originally failed reproduces bit-for-bit.
    pub repro: Option<u64>,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        ChurnOptions {
            seed: 0xC4124,
            cases: 500,
            rounds: 6,
            batch_size: 192,
            domain: 4096,
            initial_keys: 1024,
            occupancy_factor: 4,
            deterministic: false,
            serve_cases: 8,
            repro: None,
        }
    }
}

/// How a churn case failed.
#[derive(Clone, Debug)]
pub enum ChurnViolation {
    /// A round diverged from the oracle (response/structure/contents).
    Differential { round: usize, violation: Violation },
    /// Live node blocks exceeded the occupancy bound after the last round.
    Occupancy {
        live: u64,
        bound: u64,
        post_build: u64,
    },
    /// Quarantined blocks survived the batch-boundary epoch advance.
    Quarantine { retired: u64 },
    /// The serve leg failed.
    Serve(ServeViolation),
}

impl std::fmt::Display for ChurnViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnViolation::Differential { round, violation } => {
                write!(f, "round {round}: {violation}")
            }
            ChurnViolation::Occupancy {
                live,
                bound,
                post_build,
            } => write!(
                f,
                "arena leak: {live} live node blocks after churn, bound {bound} \
                 ({post_build} post-build)"
            ),
            ChurnViolation::Quarantine { retired } => write!(
                f,
                "{retired} blocks still quarantined after the batch-boundary epoch advance"
            ),
            ChurnViolation::Serve(v) => write!(f, "serve churn leg: {v}"),
        }
    }
}

/// A churn-fuzz-found violation. Churn cases are round sequences, not
/// single batches, so there is no ddmin shrink — the seeds replay the
/// whole case bit-for-bit instead.
#[derive(Clone, Debug)]
pub struct ChurnFailure {
    /// Case index (serve-leg cases continue the numbering).
    pub case: usize,
    /// Per-case seed; each round's batch seed derives from it.
    pub case_seed: u64,
    pub violation: ChurnViolation,
    /// Self-contained `eirene-bench fuzz --churn` replay command.
    pub replay: String,
}

impl std::fmt::Display for ChurnFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "churn violation (case {}, case seed {:#x})",
            self.case, self.case_seed
        )?;
        writeln!(f, "  {}", self.violation)?;
        write!(f, "  replay: {}", self.replay)
    }
}

/// Result of a churn fuzz run.
#[derive(Debug)]
pub enum ChurnOutcome {
    /// Every case agreed with the oracle and stayed within the bound.
    Passed {
        /// Total cases executed (single-tree + serve legs).
        cases: usize,
        /// Worst observed `live / post_build` occupancy ratio across the
        /// single-tree cases (scaled by 100: 250 = 2.5x).
        worst_occupancy_pct: u64,
    },
    Failed(Box<ChurnFailure>),
}

/// SplitMix64 step (same scheme as the other harnesses).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Runs one churn case: `rounds` consecutive [`Profile::DeleteChurn`]
/// batches against one tree and one persistent oracle, then the
/// occupancy and quarantine checks. Returns the final live/post-build
/// ratio (percent) on success.
pub fn run_churn_case(opts: &ChurnOptions, case_seed: u64) -> Result<u64, ChurnViolation> {
    let pairs = dense_pairs(opts.initial_keys);
    let cfg = if opts.deterministic {
        DeviceConfig::test_small().with_deterministic_sched(mix(case_seed))
    } else {
        DeviceConfig::test_small()
    };
    let headroom = (opts.batch_size * 2).max(1 << 12);
    let mut tree = build_tree(FuzzTree::Eirene, &pairs, cfg, headroom);
    let post_build = tree.device().mem().slab_stats().live;
    let pairs32: Vec<(u32, u32)> = pairs.iter().map(|&(k, v)| (k as u32, v as u32)).collect();
    let mut oracle = SequentialOracle::load(&pairs32);
    let gen_opts = GenOptions {
        domain: opts.domain,
        batch_size: opts.batch_size,
    };
    for round in 0..opts.rounds {
        let reqs: Vec<Request> = adversarial_batch(
            mix(case_seed ^ round as u64),
            Profile::DeleteChurn,
            &gen_opts,
        )
        .requests;
        let batch = Batch::new(reqs);
        let got = tree.run_batch(&batch).responses;
        let want = oracle.run_batch(&batch);
        for i in 0..batch.len() {
            if got[i] != want[i] {
                return Err(ChurnViolation::Differential {
                    round,
                    violation: Violation::Response {
                        index: i,
                        request: batch.requests[i],
                        got: got[i].clone(),
                        want: want[i].clone(),
                    },
                });
            }
        }
    }
    let last = opts.rounds.saturating_sub(1);
    if let Err(e) = eirene_btree::validate::validate(tree.device().mem(), tree.handle()) {
        return Err(ChurnViolation::Differential {
            round: last,
            violation: Violation::Structure(e),
        });
    }
    let tree_contents = eirene_btree::refops::contents(tree.device().mem(), tree.handle());
    let oracle_contents: Vec<(u64, u64)> = oracle
        .contents()
        .iter()
        .map(|(&k, &v)| (k as u64, v as u64))
        .collect();
    if tree_contents != oracle_contents {
        return Err(ChurnViolation::Differential {
            round: last,
            violation: Violation::Contents(format!(
                "tree holds {} keys, oracle holds {}",
                tree_contents.len(),
                oracle_contents.len()
            )),
        });
    }
    let st = tree.device().mem().slab_stats();
    if st.retired > 0 {
        return Err(ChurnViolation::Quarantine {
            retired: st.retired,
        });
    }
    let bound = post_build.max(1) * opts.occupancy_factor;
    if st.live > bound {
        return Err(ChurnViolation::Occupancy {
            live: st.live,
            bound,
            post_build,
        });
    }
    Ok(st.live * 100 / post_build.max(1))
}

fn replay_command(opts: &ChurnOptions, case_seed: u64) -> String {
    let mut cmd = format!(
        "eirene-bench fuzz --churn --rounds {} --batch {} --domain {} \
         --initial-keys {} --repro-seed {case_seed:#x}",
        opts.rounds, opts.batch_size, opts.domain, opts.initial_keys,
    );
    if opts.deterministic {
        cmd.push_str(" --deterministic");
    }
    cmd
}

/// One serve-leg churn case: the concatenated churn rounds stream through
/// a sharded service with 4 racing submitters and a forced split + merge
/// rebalance mid-stream, checked by [`run_serve_case`] (tickets vs the
/// flat oracle, structures, report accounting, per-shard arena gauges).
fn run_churn_serve_leg(opts: &ChurnOptions, case_seed: u64) -> Result<(), ServeViolation> {
    let serve_opts = ServeFuzzOptions {
        seed: case_seed,
        batch_size: opts.batch_size * opts.rounds,
        domain: opts.domain,
        initial_keys: opts.initial_keys,
        submitters: 4,
        rebalance: true,
        deterministic: false,
        ..ServeFuzzOptions::default()
    };
    let pairs = dense_pairs(opts.initial_keys);
    let map = fuzz_shard_map(serve_opts.shards, opts.domain);
    let gen_opts = GenOptions {
        domain: opts.domain,
        batch_size: opts.batch_size,
    };
    // The same per-round generator as the single-tree leg; the service
    // re-timestamps at admission, so only the submission order matters.
    let reqs: Vec<Request> = (0..opts.rounds)
        .flat_map(|round| {
            adversarial_batch(
                mix(case_seed ^ round as u64),
                Profile::DeleteChurn,
                &gen_opts,
            )
            .requests
        })
        .collect();
    run_serve_case(&serve_opts, &map, &pairs, mix(case_seed), &reqs)
}

/// Runs the churn fuzz loop: `cases` single-tree round sequences, then
/// `serve_cases` serve-leg cases. Stops at the first violation. In
/// replay mode (`repro`) the given seed runs one case per configured leg.
pub fn run_churn_fuzz(opts: &ChurnOptions) -> ChurnOutcome {
    if let Some(case_seed) = opts.repro {
        let worst;
        match run_churn_case(opts, case_seed) {
            Ok(pct) => worst = pct,
            Err(violation) => {
                return ChurnOutcome::Failed(Box::new(ChurnFailure {
                    case: 0,
                    case_seed,
                    violation,
                    replay: replay_command(opts, case_seed),
                }))
            }
        }
        if opts.serve_cases > 0 {
            if let Err(v) = run_churn_serve_leg(opts, case_seed) {
                return ChurnOutcome::Failed(Box::new(ChurnFailure {
                    case: 1,
                    case_seed,
                    violation: ChurnViolation::Serve(v),
                    replay: replay_command(opts, case_seed),
                }));
            }
        }
        return ChurnOutcome::Passed {
            cases: 1 + usize::from(opts.serve_cases > 0),
            worst_occupancy_pct: worst,
        };
    }
    let mut worst = 0u64;
    for case in 0..opts.cases {
        let case_seed = mix(opts.seed ^ mix(case as u64));
        match run_churn_case(opts, case_seed) {
            Ok(pct) => worst = worst.max(pct),
            Err(violation) => {
                return ChurnOutcome::Failed(Box::new(ChurnFailure {
                    case,
                    case_seed,
                    violation,
                    replay: replay_command(opts, case_seed),
                }))
            }
        }
    }
    for sc in 0..opts.serve_cases {
        let case = opts.cases + sc;
        let case_seed = mix(opts.seed ^ mix(case as u64) ^ 0x5E4E);
        if let Err(v) = run_churn_serve_leg(opts, case_seed) {
            return ChurnOutcome::Failed(Box::new(ChurnFailure {
                case,
                case_seed,
                violation: ChurnViolation::Serve(v),
                replay: replay_command(opts, case_seed),
            }));
        }
    }
    ChurnOutcome::Passed {
        cases: opts.cases + opts.serve_cases,
        worst_occupancy_pct: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_opts() -> ChurnOptions {
        ChurnOptions {
            cases: 4,
            rounds: 4,
            batch_size: 96,
            domain: 1024,
            initial_keys: 512,
            serve_cases: 1,
            ..Default::default()
        }
    }

    #[test]
    fn churn_fuzz_passes_a_short_run() {
        match run_churn_fuzz(&short_opts()) {
            ChurnOutcome::Passed {
                cases,
                worst_occupancy_pct,
            } => {
                assert_eq!(cases, 5);
                assert!(
                    worst_occupancy_pct <= 400,
                    "worst occupancy {worst_occupancy_pct}% exceeds the 4x bound"
                );
            }
            ChurnOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn churn_cases_replay_from_their_seed() {
        let opts = short_opts();
        let a = run_churn_case(&opts, 42).expect("case passes");
        let b = run_churn_case(&opts, 42).expect("case passes");
        // Same seed, same rounds — identical final occupancy.
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_bound_trips_on_an_artificial_leak() {
        // A zero-factor bound must always trip: live > 0 after build.
        let opts = ChurnOptions {
            occupancy_factor: 0,
            ..short_opts()
        };
        match run_churn_case(&opts, 7) {
            Err(ChurnViolation::Occupancy { live, bound, .. }) => {
                assert!(live > bound);
            }
            other => panic!("expected an occupancy violation, got {other:?}"),
        }
    }
}
