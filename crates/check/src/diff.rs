//! Differential execution: the fuzzed trees, the one [`Violation`] type
//! every leg reports, and the one oracle check the tree-level legs share.

use eirene_baselines::common::{BatchRun, ConcurrentTree};
use eirene_baselines::{LockTree, StmTree};
use eirene_btree::refops;
use eirene_btree::validate::validate;
use eirene_core::{EireneOptions, EireneTree};
use eirene_serve::Outcome;
use eirene_sim::DeviceConfig;
use eirene_workloads::{Batch, Oracle, Request, Response, SequentialOracle};

/// The four trees the differential fuzzer exercises: full Eirene, its
/// combining-without-locality ablation, and the two baseline GB-trees. The
/// NoCc tree is deliberately absent — without concurrency control it is
/// *expected* to lose racing updates, so a differential check against it
/// only measures the generator's conflict rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzTree {
    Eirene,
    EireneCombining,
    Stm,
    Lock,
}

impl FuzzTree {
    pub const ALL: [FuzzTree; 4] = [
        FuzzTree::Eirene,
        FuzzTree::EireneCombining,
        FuzzTree::Stm,
        FuzzTree::Lock,
    ];

    pub fn label(self) -> &'static str {
        match self {
            FuzzTree::Eirene => "eirene",
            FuzzTree::EireneCombining => "eirene-combining",
            FuzzTree::Stm => "stm",
            FuzzTree::Lock => "lock",
        }
    }

    pub fn parse(s: &str) -> Option<FuzzTree> {
        FuzzTree::ALL.into_iter().find(|t| t.label() == s)
    }

    /// Whether the tree is linearizable under arbitrary key conflicts.
    /// The Eirene variants are (combining orders same-key requests by
    /// timestamp); the baselines resolve same-key races in lock or commit
    /// order, so they are only checked on key-disjoint batches.
    pub fn linearizable(self) -> bool {
        matches!(self, FuzzTree::Eirene | FuzzTree::EireneCombining)
    }
}

/// Builds a fresh instance of the selected tree over `pairs`.
pub fn build_tree(
    sel: FuzzTree,
    pairs: &[(u64, u64)],
    cfg: DeviceConfig,
    headroom: usize,
) -> Box<dyn ConcurrentTree> {
    match sel {
        FuzzTree::Stm => Box::new(StmTree::new(pairs, cfg, headroom)),
        FuzzTree::Lock => Box::new(LockTree::new(pairs, cfg, headroom)),
        sel => {
            let opts = EireneOptions {
                device: cfg,
                locality: sel != FuzzTree::EireneCombining,
                headroom_nodes: headroom,
                ..Default::default()
            };
            Box::new(EireneTree::new(pairs, opts))
        }
    }
}

/// How a case failed — every leg's checks report through this one type.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A response (or serve ticket) diverged from the oracle's.
    Response {
        index: usize,
        request: Request,
        got: Response,
        want: Response,
    },
    /// A serve ticket resolved without executing (shed or timed out)
    /// although the case neither sets deadlines nor saturates the queues.
    NotExecuted {
        index: usize,
        request: Request,
        outcome: Outcome,
    },
    /// `btree::validate` rejected the structure.
    Structure(String),
    /// Responses matched but the key/value contents diverged.
    Contents(String),
    /// A serve report's own accounting is inconsistent (counter balance,
    /// phase rows, spans, arena gauges, sample series).
    Accounting(String),
    /// Live node blocks exceeded the churn occupancy bound.
    Occupancy {
        live: u64,
        bound: u64,
        post_build: u64,
    },
    /// Quarantined blocks survived the batch-boundary epoch advance.
    Quarantine { retired: u64 },
    /// The combine path never fired: the counters that prove the pivot
    /// cache was built, invalidated, rebuilt and hit stayed flat.
    MachineryIdle(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Response {
                index,
                request,
                got,
                want,
            } => write!(
                f,
                "response {index} diverges for {request:?}: got {got:?}, oracle says {want:?}"
            ),
            Violation::NotExecuted {
                index,
                request,
                outcome,
            } => write!(
                f,
                "ticket {index} for {request:?} resolved {outcome:?} without executing"
            ),
            Violation::Structure(e) => write!(f, "structural invariant violated: {e}"),
            Violation::Contents(e) => write!(f, "final contents diverge: {e}"),
            Violation::Accounting(e) => write!(f, "report accounting inconsistent: {e}"),
            Violation::Occupancy {
                live,
                bound,
                post_build,
            } => write!(
                f,
                "arena leak: {live} live node blocks after churn, bound {bound} \
                 ({post_build} post-build)"
            ),
            Violation::Quarantine { retired } => write!(
                f,
                "{retired} blocks still quarantined after the batch-boundary epoch advance"
            ),
            Violation::MachineryIdle(e) => write!(f, "combine path never fired: {e}"),
        }
    }
}

/// A fresh sequential oracle holding `pairs`.
pub(crate) fn oracle_over(pairs: &[(u64, u64)]) -> SequentialOracle {
    let pairs32: Vec<(u32, u32)> = pairs.iter().map(|&(k, v)| (k as u32, v as u32)).collect();
    SequentialOracle::load(&pairs32)
}

/// Runs `reqs` as one batch on a fresh `sel` tree built over `pairs` and
/// checks it with [`check_against_oracle`].
///
/// A fresh tree per case keeps every reproducer self-contained: replaying
/// a failure needs only `(tree, pairs, requests)` — plus the device seed
/// when the config schedules deterministically.
pub fn check_case(
    sel: FuzzTree,
    pairs: &[(u64, u64)],
    cfg: &DeviceConfig,
    headroom: usize,
    reqs: &[Request],
) -> Result<(), Violation> {
    let mut tree = build_tree(sel, pairs, cfg.clone(), headroom);
    check_tree_case(tree.as_mut(), pairs, reqs)
}

/// [`check_case`] against an already-built tree (used by the tree leg to
/// interpose the [fault injector](crate::fault::FaultyTree)). The tree
/// must be fresh and loaded with exactly `pairs`.
pub fn check_tree_case(
    tree: &mut dyn ConcurrentTree,
    pairs: &[(u64, u64)],
    reqs: &[Request],
) -> Result<(), Violation> {
    check_against_oracle(tree, &mut oracle_over(pairs), &Batch::new(reqs.to_vec())).map(drop)
}

/// The oracle check every tree-level leg shares: runs `batch` on `tree`
/// and on `oracle`, then compares the responses by position, re-validates
/// the structure with `btree::validate`, and diffs the contents. Returns
/// the tree's run for the caller's counters.
pub fn check_against_oracle(
    tree: &mut dyn ConcurrentTree,
    oracle: &mut SequentialOracle,
    batch: &Batch,
) -> Result<BatchRun, Violation> {
    let run = tree.run_batch(batch);
    let want = oracle.run_batch(batch);
    for (index, want) in want.into_iter().enumerate() {
        let got = &run.responses[index];
        if *got != want {
            return Err(Violation::Response {
                index,
                request: batch.requests[index],
                got: got.clone(),
                want,
            });
        }
    }
    validate(tree.device().mem(), tree.handle()).map_err(Violation::Structure)?;
    check_contents(
        &refops::contents(tree.device().mem(), tree.handle()),
        oracle,
    )?;
    Ok(run)
}

/// Diffs final `(key, value)` contents against the oracle's, naming the
/// first sorted position where they part.
pub(crate) fn check_contents(
    got: &[(u64, u64)],
    oracle: &SequentialOracle,
) -> Result<(), Violation> {
    let want: Vec<(u64, u64)> = oracle
        .contents()
        .iter()
        .map(|(&k, &v)| (k as u64, v as u64))
        .collect();
    if got == want {
        return Ok(());
    }
    Err(Violation::Contents(
        match got.iter().zip(&want).position(|(g, w)| g != w) {
            Some(i) => format!(
                "at sorted position {i}: got {:?}, oracle has {:?}",
                got[i], want[i]
            ),
            None => format!("got {} keys, oracle holds {}", got.len(), want.len()),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{adversarial_batch, dense_pairs, disjoint_batch, GenOptions, Profile};

    fn cfg() -> DeviceConfig {
        DeviceConfig::test_small()
    }

    #[test]
    fn all_trees_pass_a_disjoint_case() {
        let pairs = dense_pairs(512);
        let opts = GenOptions {
            batch_size: 128,
            domain: 2048,
        };
        let reqs = disjoint_batch(5, &opts).requests;
        for sel in FuzzTree::ALL {
            check_case(sel, &pairs, &cfg(), 1 << 12, &reqs)
                .unwrap_or_else(|v| panic!("{}: {v}", sel.label()));
        }
    }

    #[test]
    fn linearizable_trees_pass_adversarial_cases() {
        let pairs = dense_pairs(512);
        let opts = GenOptions {
            batch_size: 128,
            domain: 1024,
        };
        for (i, profile) in Profile::ALL.into_iter().enumerate() {
            let reqs = adversarial_batch(40 + i as u64, profile, &opts).requests;
            for sel in FuzzTree::ALL.into_iter().filter(|t| t.linearizable()) {
                check_case(sel, &pairs, &cfg(), 1 << 12, &reqs)
                    .unwrap_or_else(|v| panic!("{} / {profile:?}: {v}", sel.label()));
            }
        }
    }

    #[test]
    fn tree_labels_round_trip() {
        for t in FuzzTree::ALL {
            assert_eq!(FuzzTree::parse(t.label()), Some(t));
        }
        assert_eq!(FuzzTree::parse("nope"), None);
    }
}
