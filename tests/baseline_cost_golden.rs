//! Golden simulated costs of the Lock GB-tree and the tree without
//! concurrency control.
//!
//! `tests/tree_cost_golden.rs` pins Eirene and the STM tree; these two
//! baselines share their leaf read path (point lookup, leaf-chain range
//! scan), their plain descent and their per-request batch loop, and Fig. 1
//! divides every tree's instructions per request by the no-CC floor. So a
//! change to any of that shared code, or to the cost model under it, that
//! moves a charge fails here instead of moving the figures silently. A PR
//! that *means* to move a simulated number updates the literal in the same
//! diff and says why.
//!
//! One fixed-seed scenario: a 45/35/10/10 query/upsert/delete/range(8) mix
//! with log-uniform key popularity on a 600-key tree, so the descent, the
//! lookup, the range scan and both in-leaf shifts all run. The Lock tree is
//! pinned on a single worker slot (no latch is ever contended: the tree
//! algorithm alone) and under the seeded deterministic scheduler (latches
//! and seqlock reads collide, and the conflict counts are part of the pin);
//! the no-CC tree only on a single slot, since its unsynchronized writes
//! make any overlapping run racy by design.

use eirene::baselines::common::ConcurrentTree;
use eirene::baselines::{LockTree, NoCcTree};
use eirene::sim::{DeviceConfig, KernelStats};
use eirene::workloads::{Batch, OpKind, Request, Response};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn pairs(n: u64) -> Vec<(u64, u64)> {
    (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
}

/// One worker, OS mode: warps run one at a time, in order, to completion.
fn single_slot() -> DeviceConfig {
    DeviceConfig {
        worker_threads: 1,
        ..DeviceConfig::test_small()
    }
}

/// 45/35/10/10 query/upsert/delete/range(8) over twice the loaded key
/// range (half the upserts insert), with log-uniform key popularity in
/// integer arithmetic, so the stream is the same on every host.
fn mixed() -> (Vec<(u64, u64)>, Vec<Batch>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBA5E);
    let domain = 1200u64;
    let mut ts = 0u64;
    let batches = (0..3)
        .map(|_| {
            Batch::new(
                (0..512)
                    .map(|_| {
                        ts += 1;
                        let bits = rng.gen_range(1..=11u32);
                        let rank = rng.gen_range(0..1u64 << bits);
                        let key = (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % domain + 1) as u32;
                        let op = match rng.gen_range(0..100u32) {
                            0..=44 => OpKind::Query,
                            45..=79 => OpKind::Upsert(rng.gen()),
                            80..=89 => OpKind::Delete,
                            _ => OpKind::Range { len: 8 },
                        };
                        Request { key, op, ts }
                    })
                    .collect(),
            )
        })
        .collect();
    (pairs(600), batches)
}

/// Runs the batches and renders one line per non-empty phase row, then
/// the steps, the conflicts and a digest of the answers.
fn fingerprint(tree: &mut dyn ConcurrentTree, batches: &[Batch]) -> String {
    let mut stats = KernelStats::default();
    let (mut found, mut sum) = (0u64, 0u64);
    for b in batches {
        let run = tree.run_batch(b);
        stats.merge(&run.stats);
        for r in &run.responses {
            let values: &[Option<u32>] = match r {
                Response::Value(v) => std::slice::from_ref(v),
                Response::Range(vs) => vs,
                Response::Done => &[],
            };
            for v in values.iter().flatten() {
                found += 1;
                sum = sum.wrapping_add(u64::from(*v));
            }
        }
    }
    let t = &stats.totals;
    let mut out = String::new();
    for (phase, row) in t.phases.iter() {
        if !row.is_zero() {
            out += &format!(
                "{}: mem {} control {} atomic {}\n",
                phase.name(),
                row.mem_insts,
                row.control_insts,
                row.atomic_insts
            );
        }
    }
    assert_eq!(t.phase_sums().mem_insts, t.mem_insts, "rows sum to totals");
    out += &format!(
        "steps: vertical {} horizontal {} descents {}\n",
        t.vertical_steps, t.horizontal_steps, t.vertical_traversals
    );
    out += &format!(
        "conflicts: lock {} version {}\n",
        t.lock_conflicts, t.version_conflicts
    );
    out += &format!("answers: found {found} sum {sum}\n");
    out
}

fn lock(device: DeviceConfig) -> LockTree {
    let (p, _) = mixed();
    LockTree::new(&p, device, 1 << 13)
}

/// Compares line by line, ignoring the literals' indentation.
fn check(got: String, want: &str) {
    let lines = |s: &str| s.lines().map(str::trim).collect::<Vec<_>>().join("\n");
    assert_eq!(lines(&got), lines(want), "\n--- got ---\n{got}");
}

#[test]
fn lock_mixed_single_slot() {
    let (_, batches) = mixed();
    check(
        fingerprint(&mut lock(single_slot()), &batches),
        "other: mem 3072 control 0 atomic 0
         vertical_traversal: mem 16677 control 42785 atomic 0
         horizontal_traversal: mem 168 control 961 atomic 0
         leaf_op: mem 3734 control 21381 atomic 0
         structure_mod: mem 58 control 25 atomic 2
         lock_acquire: mem 0 control 5933 atomic 4566
         steps: vertical 4608 horizontal 42 descents 1536
         conflicts: lock 0 version 0
         answers: found 1252 sum 1330159011903",
    );
}

#[test]
fn lock_mixed() {
    let (_, batches) = mixed();
    let device = DeviceConfig::test_small().with_deterministic_sched(41);
    check(
        fingerprint(&mut lock(device), &batches),
        "other: mem 3072 control 0 atomic 0
         vertical_traversal: mem 40797 control 54845 atomic 0
         horizontal_traversal: mem 172 control 967 atomic 0
         leaf_op: mem 3834 control 21452 atomic 0
         structure_mod: mem 58 control 25 atomic 2
         lock_acquire: mem 0 control 30773 atomic 16992
         steps: vertical 4608 horizontal 43 descents 1536
         conflicts: lock 12420 version 6030
         answers: found 1229 sum 1196234836709",
    );
}

#[test]
fn nocc_mixed_single_slot() {
    let (p, batches) = mixed();
    check(
        fingerprint(&mut NoCcTree::new(&p, single_slot()), &batches),
        "other: mem 3072 control 0 atomic 0
         vertical_traversal: mem 10752 control 36864 atomic 0
         horizontal_traversal: mem 84 control 1536 atomic 0
         leaf_op: mem 3934 control 22990 atomic 0
         steps: vertical 4608 horizontal 42 descents 1536
         conflicts: lock 0 version 0
         answers: found 1252 sum 1330159011903",
    );
}
