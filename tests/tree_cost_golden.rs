//! Golden simulated costs of the tree mutation paths.
//!
//! The paper's figures are instruction counts, conflict counts and
//! traversal steps — numbers the simulator produces, not the host. Under
//! the deterministic scheduler a `(seed, workload)` pair replays
//! bit-identically (`crates/check/tests/determinism.rs`), so these counts
//! can be pinned as literals: a refactor or host-side optimisation that
//! changes which words the STM-protected split / borrow / merge /
//! root-collapse code touches, in which phase, or how many nodes it
//! allocates and retires, fails here instead of drifting the figures
//! silently. A PR that *means* to move a simulated number updates the
//! literal in the same diff and says why.
//!
//! Three fixed-seed scenarios, each through `EireneTree` (optimistic leaf
//! region + full-STM fallback) and `StmTree` (every request one
//! transaction): split-heavy inserts, delete churn that merges the tree
//! down and refills it, and a skewed 45/35/10/10 mix. Every scenario is
//! pinned twice: under the seeded deterministic scheduler with its eight
//! worker slots (transactions overlap and abort — the conflict counts are
//! part of the pin), and on a single worker slot (`*_single_slot`: no
//! overlap, no aborts — the tree algorithm alone).

use eirene::baselines::common::ConcurrentTree;
use eirene::baselines::StmTree;
use eirene::btree::validate::{validate_with, ValidateOpts};
use eirene::core::{EireneOptions, EireneTree};
use eirene::sim::{DeviceConfig, KernelStats, Phase};
use eirene::workloads::{Batch, OpKind, Request};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn pairs(n: u64) -> Vec<(u64, u64)> {
    (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
}

fn device(seed: u64) -> DeviceConfig {
    DeviceConfig::test_small().with_deterministic_sched(seed)
}

/// One worker, OS mode: the slot claims warp ids in order and runs each
/// warp to completion, so the run is as repeatable as a deterministic one
/// (no second thread, and no scheduler PRNG whose stream a changed op count
/// would shift). No two transactions are ever open together, nothing
/// aborts, and what is left is the cost of the algorithm itself: it cannot
/// depend on which words of *different* transactions share an ownership
/// record, so these pins hold the tree code still while a change to the
/// STM's record mapping moves the multi-slot ones. The one way the mapping
/// still shows is a transaction meeting the same record through two of its
/// own words (it takes the record once), and that stays inside the two
/// `stm_*` rows.
fn single_slot() -> DeviceConfig {
    DeviceConfig {
        worker_threads: 1,
        ..DeviceConfig::test_small()
    }
}

/// New odd keys packed into the lower fifth of a 600-key tree: every
/// touched leaf fills and splits, inner nodes follow.
fn split_heavy() -> (Vec<(u64, u64)>, Vec<Batch>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5B117);
    let mut ts = 0u64;
    let batches = (0..3)
        .map(|_| {
            Batch::new(
                (0..512)
                    .map(|_| {
                        ts += 1;
                        Request::upsert(2 * rng.gen_range(0..240u32) + 1, rng.gen(), ts)
                    })
                    .collect(),
            )
        })
        .collect();
    (pairs(600), batches)
}

/// Deletes all but a sliver of a three-level tree (borrows, merges, root
/// collapse), then reinserts half of it into the recycled nodes.
fn delete_churn() -> (Vec<(u64, u64)>, Vec<Batch>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC4021);
    let mut ts = 0u64;
    let mut keys: Vec<u32> = (1..=1500u32).map(|i| 2 * i).collect();
    // Fisher-Yates with the fixed-seed generator.
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    let (gone, kept) = keys.split_at(1440);
    assert_eq!(kept.len(), 60);
    let mut batches: Vec<Batch> = gone
        .chunks(480)
        .map(|chunk| {
            Batch::new(
                chunk
                    .iter()
                    .map(|&k| {
                        ts += 1;
                        Request::delete(k, ts)
                    })
                    .collect(),
            )
        })
        .collect();
    batches.push(Batch::new(
        gone[..720]
            .iter()
            .map(|&k| {
                ts += 1;
                Request::upsert(k, k + 7, ts)
            })
            .collect(),
    ));
    (pairs(1500), batches)
}

/// 45/35/10/10 query/upsert/delete/range(8) with log-uniform key
/// popularity (integer arithmetic only, so the stream is the same on
/// every host): hot keys combine, cold keys split and merge.
fn mixed_skew() -> (Vec<(u64, u64)>, Vec<Batch>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5CE3);
    let domain = 2048u64;
    let mut ts = 0u64;
    let batches = (0..4)
        .map(|_| {
            Batch::new(
                (0..640)
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
    (pairs(1024), batches)
}

/// Runs the batches and renders everything the paper's figures count:
/// one line per non-empty phase row, then steps, conflicts, the slab
/// counters and the validated shape.
fn fingerprint(tree: &mut dyn ConcurrentTree, batches: &[Batch]) -> String {
    let mut stats = KernelStats::default();
    for b in batches {
        stats.merge(&tree.run_batch(b).stats);
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
        "conflicts: aborts {} version {}\n",
        t.stm_aborts, t.version_conflicts
    );
    let s = tree.device().mem().slab_stats();
    out += &format!(
        "slab: live {} retired {} free {} reused {} bump {}\n",
        s.live, s.retired, s.free, s.reused, s.bump_allocs
    );
    let shape = validate_with(tree.device().mem(), tree.handle(), ValidateOpts::merging())
        .unwrap_or_else(|e| panic!("{}: {e}", tree.name()));
    out += &format!(
        "shape: height {} leaves {} inner {} keys {}\n",
        shape.height,
        shape.leaves,
        shape.nodes - shape.leaves,
        shape.keys
    );
    // The structure-modification row is the point of the pin; a scenario
    // that stopped reaching it would pin nothing.
    assert!(
        !t.phases.row(Phase::StructureMod).is_zero(),
        "{}: scenario no longer modifies the structure",
        tree.name()
    );
    out
}

fn eirene(p: &[(u64, u64)], device: DeviceConfig) -> EireneTree {
    EireneTree::new(
        p,
        EireneOptions {
            device,
            ..EireneOptions::test_small()
        },
    )
}

fn stm(p: &[(u64, u64)], device: DeviceConfig) -> StmTree {
    StmTree::new(p, device, 1 << 13)
}

/// Compares line by line, ignoring the literals' indentation.
fn check(got: String, want: &str) {
    let lines = |s: &str| s.lines().map(str::trim).collect::<Vec<_>>().join("\n");
    assert_eq!(lines(&got), lines(want), "\n--- got ---\n{got}");
}

#[test]
fn eirene_split_heavy() {
    let (p, batches) = split_heavy();
    // Re-pinned for the shifted-address record map: aborts 993 → 211, so
    // fewer retried descents (1 096 → 303) and abandoned split siblings
    // (21 → 8); shape, combine and result rows unmoved.
    check(
        fingerprint(&mut eirene(&p, device(11)), &batches),
        "other: mem 1266 control 0 atomic 0
         combine: mem 1329 control 45540 atomic 0
         vertical_traversal: mem 1267 control 2048 atomic 0
         horizontal_traversal: mem 819 control 1618 atomic 0
         leaf_op: mem 13015 control 9093 atomic 0
         structure_mod: mem 2486 control 192 atomic 30
         stm_access: mem 32127 control 91456 atomic 3119
         stm_commit: mem 14148 control 21334 atomic 0
         result_calc: mem 96 control 6144 atomic 0
         run_dispatch: mem 40 control 775 atomic 0
         steps: vertical 318 horizontal 83 descents 303
         conflicts: aborts 211 version 0
         slab: live 78 retired 0 free 8 reused 0 bump 86
         shape: height 3 leaves 70 inner 8 keys 840",
    );
}

#[test]
fn stm_split_heavy() {
    let (p, batches) = split_heavy();
    // Re-pinned for the shifted-address record map: aborts 2 918 → 4 719 and
    // 21 more abandoned split siblings; the tree built is the same.
    check(
        fingerprint(&mut stm(&p, device(12)), &batches),
        "other: mem 3072 control 0 atomic 0
         vertical_traversal: mem 29381 control 41912 atomic 0
         horizontal_traversal: mem 1690 control 1690 atomic 0
         leaf_op: mem 19064 control 15341 atomic 0
         structure_mod: mem 2955 control 248 atomic 120
         stm_access: mem 107785 control 290408 atomic 4644
         stm_commit: mem 39317 control 67154 atomic 0
         steps: vertical 6896 horizontal 0 descents 6286
         conflicts: aborts 4719 version 0
         slab: live 82 retired 94 free 0 reused 0 bump 176
         shape: height 3 leaves 73 inner 9 keys 840",
    );
}

#[test]
fn eirene_delete_churn() {
    let (p, batches) = delete_churn();
    // Byte-identical under the Fibonacci-hash and the shifted-address record
    // map: its 5 820 aborts are requests meeting in one leaf, not aliases.
    check(
        fingerprint(&mut eirene(&p, device(21)), &batches),
        "other: mem 4320 control 0 atomic 0
         combine: mem 2025 control 69120 atomic 0
         vertical_traversal: mem 25956 control 44122 atomic 0
         horizontal_traversal: mem 2961 control 5515 atomic 0
         leaf_op: mem 61455 control 31479 atomic 0
         structure_mod: mem 31027 control 5896 atomic 101
         stm_access: mem 220976 control 646333 atomic 21682
         stm_commit: mem 80222 control 107518 atomic 0
         result_calc: mem 135 control 8640 atomic 0
         run_dispatch: mem 74 control 3488 atomic 0
         steps: vertical 6950 horizontal 196 descents 7308
         conflicts: aborts 5820 version 0
         slab: live 98 retired 0 free 39 reused 101 bump 137
         shape: height 3 leaves 90 inner 8 keys 780",
    );
}

#[test]
fn stm_delete_churn() {
    let (p, batches) = delete_churn();
    // Re-pinned for the shifted-address record map: aborts 21 342 → 16 959.
    // The baseline runs racing deletes in commit order, so which leaves merge
    // follows the retries: 65 → 68 leaves over the same 780 keys.
    check(
        fingerprint(&mut stm(&p, device(22)), &batches),
        "other: mem 4320 control 0 atomic 0
         vertical_traversal: mem 92365 control 142998 atomic 0
         horizontal_traversal: mem 2669 control 2669 atomic 0
         leaf_op: mem 61186 control 24022 atomic 0
         structure_mod: mem 35483 control 7824 atomic 170
         stm_access: mem 375687 control 1059465 atomic 24689
         stm_commit: mem 104565 control 143966 atomic 0
         steps: vertical 22068 horizontal 0 descents 19812
         conflicts: aborts 16959 version 0
         slab: live 75 retired 232 free 0 reused 0 bump 307
         shape: height 3 leaves 68 inner 7 keys 780",
    );
}

#[test]
fn eirene_mixed_skew() {
    let (p, batches) = mixed_skew();
    // Re-pinned for the shifted-address record map: aborts 5 → 0, which makes
    // every row equal to the single-slot pin below.
    check(
        fingerprint(&mut eirene(&p, device(31)), &batches),
        "other: mem 2398 control 0 atomic 0
         combine: mem 2236 control 77640 atomic 0
         vertical_traversal: mem 434 control 1366 atomic 0
         horizontal_traversal: mem 1873 control 4154 atomic 0
         leaf_op: mem 13130 control 16954 atomic 0
         structure_mod: mem 508 control 48 atomic 5
         stm_access: mem 26964 control 76014 atomic 2677
         stm_commit: mem 12549 control 19744 atomic 0
         result_calc: mem 160 control 10240 atomic 0
         run_dispatch: mem 52 control 1174 atomic 0
         steps: vertical 177 horizontal 649 descents 83
         conflicts: aborts 0 version 0
         slab: live 100 retired 0 free 0 reused 0 bump 100
         shape: height 3 leaves 91 inner 9 keys 1131",
    );
}

#[test]
fn stm_mixed_skew() {
    let (p, batches) = mixed_skew();
    // Re-pinned for the shifted-address record map: aborts 1 811 → 1 397.
    // Thread-per-request has no timestamp order: when an upsert and a delete
    // of one key race, the later commit wins, so one key (1 127 → 1 126) and
    // one leaf moved with the retries.
    check(
        fingerprint(&mut stm(&p, device(32)), &batches),
        "other: mem 5120 control 0 atomic 0
         vertical_traversal: mem 41630 control 62786 atomic 0
         horizontal_traversal: mem 3163 control 2998 atomic 0
         leaf_op: mem 33620 control 26117 atomic 0
         structure_mod: mem 1012 control 96 atomic 11
         stm_access: mem 156900 control 410397 atomic 5074
         stm_commit: mem 65825 control 121300 atomic 0
         steps: vertical 9602 horizontal 83 descents 3969
         conflicts: aborts 1397 version 0
         slab: live 106 retired 0 free 0 reused 0 bump 106
         shape: height 3 leaves 95 inner 11 keys 1126",
    );
}

#[test]
fn eirene_split_heavy_single_slot() {
    let (p, batches) = split_heavy();
    check(
        fingerprint(&mut eirene(&p, single_slot()), &batches),
        "other: mem 1266 control 0 atomic 0
         combine: mem 1329 control 45540 atomic 0
         vertical_traversal: mem 740 control 1582 atomic 0
         horizontal_traversal: mem 819 control 1618 atomic 0
         leaf_op: mem 13015 control 9093 atomic 0
         structure_mod: mem 1978 control 184 atomic 23
         stm_access: mem 29967 control 84993 atomic 2951
         stm_commit: mem 13630 control 21358 atomic 0
         result_calc: mem 96 control 6144 atomic 0
         run_dispatch: mem 43 control 831 atomic 0
         steps: vertical 234 horizontal 83 descents 97
         conflicts: aborts 0 version 0
         slab: live 79 retired 0 free 0 reused 0 bump 79
         shape: height 3 leaves 70 inner 9 keys 840",
    );
}

#[test]
fn stm_split_heavy_single_slot() {
    let (p, batches) = split_heavy();
    check(
        fingerprint(&mut stm(&p, single_slot()), &batches),
        "other: mem 3072 control 0 atomic 0
         vertical_traversal: mem 19053 control 28750 atomic 0
         horizontal_traversal: mem 1536 control 1536 atomic 0
         leaf_op: mem 16833 control 14076 atomic 0
         structure_mod: mem 2096 control 192 atomic 24
         stm_access: mem 76709 control 202903 atomic 3916
         stm_commit: mem 37191 control 66550 atomic 0
         steps: vertical 4678 horizontal 0 descents 1560
         conflicts: aborts 0 version 0
         slab: live 80 retired 0 free 0 reused 0 bump 80
         shape: height 3 leaves 72 inner 8 keys 840",
    );
}

#[test]
fn eirene_delete_churn_single_slot() {
    let (p, batches) = delete_churn();
    check(
        fingerprint(&mut eirene(&p, single_slot()), &batches),
        "other: mem 4320 control 0 atomic 0
         combine: mem 2025 control 69120 atomic 0
         vertical_traversal: mem 13057 control 25840 atomic 0
         horizontal_traversal: mem 2937 control 5477 atomic 0
         leaf_op: mem 61100 control 31052 atomic 0
         structure_mod: mem 22675 control 4220 atomic 82
         stm_access: mem 173158 control 508654 atomic 19296
         stm_commit: mem 73773 control 108954 atomic 0
         result_calc: mem 135 control 8640 atomic 0
         run_dispatch: mem 76 control 3732 atomic 0
         steps: vertical 3496 horizontal 190 descents 1544
         conflicts: aborts 0 version 0
         slab: live 100 retired 0 free 37 reused 82 bump 137
         shape: height 3 leaves 89 inner 11 keys 780",
    );
}

#[test]
fn stm_delete_churn_single_slot() {
    let (p, batches) = delete_churn();
    // The only single-slot pin the shifted-address record map moved, and only
    // in the `stm_*` rows: two more record acquisitions (19 334 → 19 336
    // atomics) in merges whose nodes used to share a record by hash.
    check(
        fingerprint(&mut stm(&p, single_slot()), &batches),
        "other: mem 4320 control 0 atomic 0
         vertical_traversal: mem 31289 control 50040 atomic 0
         horizontal_traversal: mem 2160 control 2160 atomic 0
         leaf_op: mem 54593 control 20312 atomic 0
         structure_mod: mem 19944 control 3924 atomic 58
         stm_access: mem 197174 control 567224 atomic 19336
         stm_commit: mem 89188 control 139704 atomic 0
         steps: vertical 7336 horizontal 0 descents 2591
         conflicts: aborts 0 version 0
         slab: live 76 retired 119 free 0 reused 0 bump 195
         shape: height 3 leaves 69 inner 7 keys 780",
    );
}

#[test]
fn eirene_mixed_skew_single_slot() {
    let (p, batches) = mixed_skew();
    check(
        fingerprint(&mut eirene(&p, single_slot()), &batches),
        "other: mem 2398 control 0 atomic 0
         combine: mem 2236 control 77640 atomic 0
         vertical_traversal: mem 434 control 1366 atomic 0
         horizontal_traversal: mem 1873 control 4154 atomic 0
         leaf_op: mem 13130 control 16954 atomic 0
         structure_mod: mem 508 control 48 atomic 5
         stm_access: mem 26964 control 76014 atomic 2677
         stm_commit: mem 12549 control 19744 atomic 0
         result_calc: mem 160 control 10240 atomic 0
         run_dispatch: mem 52 control 1174 atomic 0
         steps: vertical 177 horizontal 649 descents 83
         conflicts: aborts 0 version 0
         slab: live 100 retired 0 free 0 reused 0 bump 100
         shape: height 3 leaves 91 inner 9 keys 1131",
    );
}

#[test]
fn stm_mixed_skew_single_slot() {
    let (p, batches) = mixed_skew();
    check(
        fingerprint(&mut stm(&p, single_slot()), &batches),
        "other: mem 5120 control 0 atomic 0
         vertical_traversal: mem 32390 control 49842 atomic 0
         horizontal_traversal: mem 2706 control 2560 atomic 0
         leaf_op: mem 32712 control 24761 atomic 0
         structure_mod: mem 1208 control 112 atomic 13
         stm_access: mem 134570 control 353309 atomic 5233
         stm_commit: mem 65554 control 120642 atomic 0
         steps: vertical 7719 horizontal 73 descents 2574
         conflicts: aborts 0 version 0
         slab: live 108 retired 0 free 0 reused 0 bump 108
         shape: height 3 leaves 97 inner 11 keys 1131",
    );
}
