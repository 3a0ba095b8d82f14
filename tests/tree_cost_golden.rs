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
//! region, which also splits a full leaf whose parent has room, +
//! full-STM fallback for every other structure change) and `StmTree`
//! (every request one transaction): split-heavy inserts, delete churn
//! that merges the tree down and refills it, and a skewed 45/35/10/10
//! mix. Every scenario is
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
    // Re-pinned for the leaf snapshot (see the single-slot pin). Aborts
    // rise 89 → 400. Systematic, not schedule noise: over seeds 0..24 the
    // median reads 128 (71–325) before and 485 (271–998) after, and
    // fallbacks 6 → 13. Reads now cost the leaf region no loads while its
    // writes still pay a CAS and a store, so a larger share of its
    // operations holds records, and the full-STM fallbacks' descents meet
    // them: most aborts are fallback reads of a locked record. Padding each
    // served read with a scalar read's three loads (same semantics, before
    // writes checked acquired records) brought the median back to 191. A
    // count of served words that differ from memory while their record
    // still shows the snapshot's version read 0 on every seed.
    check(
        fingerprint(&mut eirene(&p, device(11)), &batches),
        "other: mem 1266 control 0 atomic 0
         combine: mem 1329 control 45540 atomic 0
         vertical_traversal: mem 1630 control 3266 atomic 0
         horizontal_traversal: mem 197 control 1725 atomic 0
         leaf_op: mem 5200 control 7926 atomic 0
         structure_mod: mem 2822 control 208 atomic 40
         stm_access: mem 11232 control 82834 atomic 3368
         stm_commit: mem 5613 control 2816 atomic 0
         result_calc: mem 82 control 3612 atomic 0
         run_dispatch: mem 37 control 1106 atomic 0
         steps: vertical 457 horizontal 91 descents 474
         conflicts: aborts 400 version 0
         slab: live 78 retired 0 free 18 reused 0 bump 96
         shape: height 3 leaves 70 inner 8 keys 840",
    );
}

#[test]
fn stm_split_heavy() {
    let (p, batches) = split_heavy();
    // Re-pinned for the insertion point taken from the leaf search: an
    // insert no longer rescans the leaf (`leaf_op` mem 19 064 → 16 205), and
    // shorter transactions collide less (aborts 4 719 → 2 016, abandoned
    // split siblings 94 → 50). The tree built is the same.
    check(
        fingerprint(&mut stm(&p, device(12)), &batches),
        "other: mem 3072 control 0 atomic 0
         vertical_traversal: mem 27503 control 38904 atomic 0
         horizontal_traversal: mem 1655 control 1653 atomic 0
         leaf_op: mem 16205 control 12915 atomic 0
         structure_mod: mem 2392 control 224 atomic 76
         stm_access: mem 94875 control 252496 atomic 4263
         stm_commit: mem 36631 control 63832 atomic 0
         steps: vertical 6329 horizontal 1 descents 3580
         conflicts: aborts 2016 version 0
         slab: live 82 retired 50 free 0 reused 0 bump 132
         shape: height 3 leaves 73 inner 9 keys 840",
    );
}

#[test]
fn eirene_delete_churn() {
    let (p, batches) = delete_churn();
    // Re-pinned for the leaf snapshot (see the single-slot pin and
    // `eirene_split_heavy`). Aborts 7 693 → 7 602: over seeds 0..24 the
    // median reads 6 638 before and 7 593 after, with fallbacks 314 → 327.
    // The shape is a multi-slot outcome here: which merges win decides it.
    check(
        fingerprint(&mut eirene(&p, device(21)), &batches),
        "other: mem 4320 control 0 atomic 0
         combine: mem 2025 control 69120 atomic 0
         vertical_traversal: mem 28847 control 49134 atomic 0
         horizontal_traversal: mem 895 control 5884 atomic 0
         leaf_op: mem 30241 control 26271 atomic 0
         structure_mod: mem 31262 control 5928 atomic 159
         stm_access: mem 137539 control 620816 atomic 22425
         stm_commit: mem 46897 control 37570 atomic 0
         run_dispatch: mem 41 control 3715 atomic 0
         steps: vertical 7623 horizontal 266 descents 9002
         conflicts: aborts 7602 version 0
         slab: live 100 retired 0 free 74 reused 122 bump 174
         shape: height 3 leaves 91 inner 9 keys 780",
    );
}

#[test]
fn stm_delete_churn() {
    let (p, batches) = delete_churn();
    // Re-pinned for the insertion point taken from the leaf search: an
    // insert no longer rescans the leaf (`leaf_op` mem 61 186 → 54 654).
    // The baseline runs racing deletes in commit order, so which leaves
    // merge follows the retries: aborts 16 959 → 16 902, 68 → 67 leaves.
    check(
        fingerprint(&mut stm(&p, device(22)), &batches),
        "other: mem 4320 control 0 atomic 0
         vertical_traversal: mem 91668 control 141950 atomic 0
         horizontal_traversal: mem 2638 control 2638 atomic 0
         leaf_op: mem 54654 control 17877 atomic 0
         structure_mod: mem 35333 control 7824 atomic 148
         stm_access: mem 361099 control 1021957 atomic 24512
         stm_commit: mem 99286 control 134378 atomic 0
         steps: vertical 21969 horizontal 0 descents 19755
         conflicts: aborts 16902 version 0
         slab: live 74 retired 211 free 0 reused 0 bump 285
         shape: height 3 leaves 67 inner 7 keys 780",
    );
}

#[test]
fn eirene_mixed_skew() {
    let (p, batches) = mixed_skew();
    // Re-pinned for the leaf snapshot (see the single-slot pin). Still no
    // abort, on this seed and on each of seeds 0..24.
    check(
        fingerprint(&mut eirene(&p, device(31)), &batches),
        "other: mem 2398 control 0 atomic 0
         combine: mem 2236 control 77640 atomic 0
         vertical_traversal: mem 320 control 1246 atomic 0
         horizontal_traversal: mem 1305 control 4161 atomic 0
         leaf_op: mem 5193 control 15669 atomic 0
         structure_mod: mem 408 control 48 atomic 5
         stm_access: mem 4390 control 61723 atomic 2677
         stm_commit: mem 3368 control 1382 atomic 0
         result_calc: mem 478 control 6608 atomic 0
         run_dispatch: mem 26 control 836 atomic 0
         steps: vertical 153 horizontal 652 descents 73
         conflicts: aborts 0 version 0
         slab: live 100 retired 0 free 0 reused 0 bump 100
         shape: height 3 leaves 91 inner 9 keys 1131",
    );
}

#[test]
fn stm_mixed_skew() {
    let (p, batches) = mixed_skew();
    // Re-pinned for the insertion point taken from the leaf search: an
    // insert no longer rescans the leaf (`leaf_op` mem 33 620 → 31 308);
    // aborts 1 397 → 1 078. Thread-per-request has no timestamp order: when
    // an upsert and a delete of one key race, the later commit wins, so the
    // key count follows the retries (1 126 → 1 128).
    check(
        fingerprint(&mut stm(&p, device(32)), &batches),
        "other: mem 5120 control 0 atomic 0
         vertical_traversal: mem 41286 control 62706 atomic 0
         horizontal_traversal: mem 3122 control 2955 atomic 0
         leaf_op: mem 31308 control 24133 atomic 0
         structure_mod: mem 1024 control 96 atomic 17
         stm_access: mem 151259 control 395553 atomic 4988
         stm_commit: mem 63826 control 117506 atomic 0
         steps: vertical 9583 horizontal 85 descents 3650
         conflicts: aborts 1078 version 0
         slab: live 106 retired 6 free 0 reused 0 bump 112
         shape: height 3 leaves 95 inner 11 keys 1128",
    );
}

#[test]
fn eirene_split_heavy_single_slot() {
    let (p, batches) = split_heavy();
    // Re-pinned for the leaf snapshot: the leaf region loads the located
    // leaf with three warp-wide loads (its records, its words, its records)
    // and serves the leaf's words from them, a write that acquires a record
    // checks its words with one load, and commit checks the records read
    // with one more. Only the mem and control columns of `leaf_op`,
    // `horizontal_traversal`, `structure_mod`, `stm_access` and
    // `stm_commit` move (`stm_access` mem 26 018 → 6 385); atomics, steps, conflicts, slab and
    // shape are unmoved.
    check(
        fingerprint(&mut eirene(&p, single_slot()), &batches),
        "other: mem 1266 control 0 atomic 0
         combine: mem 1329 control 45540 atomic 0
         vertical_traversal: mem 358 control 1306 atomic 0
         horizontal_traversal: mem 192 control 1670 atomic 0
         leaf_op: mem 5033 control 7592 atomic 0
         structure_mod: mem 1536 control 176 atomic 22
         stm_access: mem 6385 control 67459 atomic 2927
         stm_commit: mem 3923 control 1992 atomic 0
         result_calc: mem 82 control 3612 atomic 0
         run_dispatch: mem 37 control 856 atomic 0
         steps: vertical 156 horizontal 95 descents 58
         conflicts: aborts 0 version 0
         slab: live 78 retired 0 free 0 reused 0 bump 78
         shape: height 3 leaves 70 inner 8 keys 840",
    );
}

#[test]
fn stm_split_heavy_single_slot() {
    let (p, batches) = split_heavy();
    // Re-pinned for the insertion point taken from the leaf search: an
    // insert no longer rescans the leaf, so only `leaf_op` and the STM
    // rows (fewer reads to log and validate) move.
    check(
        fingerprint(&mut stm(&p, single_slot()), &batches),
        "other: mem 3072 control 0 atomic 0
         vertical_traversal: mem 19053 control 28750 atomic 0
         horizontal_traversal: mem 1536 control 1536 atomic 0
         leaf_op: mem 15203 control 12446 atomic 0
         structure_mod: mem 2096 control 192 atomic 24
         stm_access: mem 73486 control 194790 atomic 3916
         stm_commit: mem 35598 control 63364 atomic 0
         steps: vertical 4678 horizontal 0 descents 1560
         conflicts: aborts 0 version 0
         slab: live 80 retired 0 free 0 reused 0 bump 80
         shape: height 3 leaves 72 inner 8 keys 840",
    );
}

#[test]
fn eirene_delete_churn_single_slot() {
    let (p, batches) = delete_churn();
    // Re-pinned for the leaf snapshot: the leaf region loads the located
    // leaf with three warp-wide loads (its records, its words, its records)
    // and serves the leaf's words from them, a write that acquires a record
    // checks its words with one load, and commit checks the records read
    // with one more. Only the mem and control columns of `leaf_op`,
    // `horizontal_traversal`, `structure_mod`, `stm_access` and
    // `stm_commit` move (`stm_access` mem 158 994 → 77 855); atomics, steps, conflicts, slab and
    // shape are unmoved.
    check(
        fingerprint(&mut eirene(&p, single_slot()), &batches),
        "other: mem 4320 control 0 atomic 0
         combine: mem 2025 control 69120 atomic 0
         vertical_traversal: mem 11718 control 25098 atomic 0
         horizontal_traversal: mem 865 control 5735 atomic 0
         leaf_op: mem 29376 control 25359 atomic 0
         structure_mod: mem 21315 control 4220 atomic 82
         stm_access: mem 77855 control 443405 atomic 19292
         stm_commit: mem 38283 control 37982 atomic 0
         run_dispatch: mem 43 control 3540 atomic 0
         steps: vertical 3227 horizontal 268 descents 1402
         conflicts: aborts 0 version 0
         slab: live 100 retired 0 free 37 reused 82 bump 137
         shape: height 3 leaves 89 inner 11 keys 780",
    );
}

#[test]
fn stm_delete_churn_single_slot() {
    let (p, batches) = delete_churn();
    // Re-pinned for the insertion point taken from the leaf search: an
    // insert no longer rescans the leaf, so only `leaf_op` and the STM
    // rows (fewer reads to log and validate) move.
    check(
        fingerprint(&mut stm(&p, single_slot()), &batches),
        "other: mem 4320 control 0 atomic 0
         vertical_traversal: mem 31289 control 50040 atomic 0
         horizontal_traversal: mem 2160 control 2160 atomic 0
         leaf_op: mem 49903 control 15622 atomic 0
         structure_mod: mem 19944 control 3924 atomic 58
         stm_access: mem 187898 control 543878 atomic 19336
         stm_commit: mem 84602 control 130532 atomic 0
         steps: vertical 7336 horizontal 0 descents 2591
         conflicts: aborts 0 version 0
         slab: live 76 retired 119 free 0 reused 0 bump 195
         shape: height 3 leaves 69 inner 7 keys 780",
    );
}

#[test]
fn eirene_mixed_skew_single_slot() {
    let (p, batches) = mixed_skew();
    // Re-pinned for the leaf snapshot: the leaf region loads the located
    // leaf with three warp-wide loads (its records, its words, its records)
    // and serves the leaf's words from them, a write that acquires a record
    // checks its words with one load, and commit checks the records read
    // with one more. Only the mem and control columns of `leaf_op`,
    // `horizontal_traversal`, `structure_mod`, `stm_access` and
    // `stm_commit` move (`stm_access` mem 24 187 → 4 390); atomics, steps, conflicts, slab and
    // shape are unmoved.
    check(
        fingerprint(&mut eirene(&p, single_slot()), &batches),
        "other: mem 2398 control 0 atomic 0
         combine: mem 2236 control 77640 atomic 0
         vertical_traversal: mem 320 control 1246 atomic 0
         horizontal_traversal: mem 1305 control 4161 atomic 0
         leaf_op: mem 5193 control 15669 atomic 0
         structure_mod: mem 408 control 48 atomic 5
         stm_access: mem 4390 control 61723 atomic 2677
         stm_commit: mem 3368 control 1382 atomic 0
         result_calc: mem 478 control 6608 atomic 0
         run_dispatch: mem 26 control 836 atomic 0
         steps: vertical 153 horizontal 652 descents 73
         conflicts: aborts 0 version 0
         slab: live 100 retired 0 free 0 reused 0 bump 100
         shape: height 3 leaves 91 inner 9 keys 1131",
    );
}

#[test]
fn stm_mixed_skew_single_slot() {
    let (p, batches) = mixed_skew();
    // Re-pinned for the insertion point taken from the leaf search: an
    // insert no longer rescans the leaf, so only `leaf_op` and the STM
    // rows (fewer reads to log and validate) move.
    check(
        fingerprint(&mut stm(&p, single_slot()), &batches),
        "other: mem 5120 control 0 atomic 0
         vertical_traversal: mem 32390 control 49842 atomic 0
         horizontal_traversal: mem 2706 control 2560 atomic 0
         leaf_op: mem 30813 control 22862 atomic 0
         structure_mod: mem 1208 control 112 atomic 13
         stm_access: mem 130780 control 343822 atomic 5233
         stm_commit: mem 63663 control 116860 atomic 0
         steps: vertical 7719 horizontal 73 descents 2574
         conflicts: aborts 0 version 0
         slab: live 108 retired 0 free 0 reused 0 bump 108
         shape: height 3 leaves 97 inner 11 keys 1131",
    );
}
