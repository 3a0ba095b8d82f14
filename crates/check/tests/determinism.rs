//! Acceptance: the same `(seed, workload)` pair under the deterministic
//! scheduler yields bit-identical responses, schedules, and KernelStats.

use eirene_check::{adversarial_batch, build_tree, dense_pairs, GenOptions, Profile, TreeKind};
use eirene_sim::{DeviceConfig, KernelStats, ScheduleLog};
use eirene_workloads::Response;

fn one_run(device_seed: u64, batch_seed: u64) -> (Vec<Response>, KernelStats, String) {
    let pairs = dense_pairs(512);
    let opts = GenOptions {
        batch_size: 192,
        domain: 1024,
    };
    let batch = adversarial_batch(batch_seed, Profile::Skewed, &opts);
    let cfg = DeviceConfig::test_small().with_deterministic_sched(device_seed);
    let mut tree = build_tree(TreeKind::Eirene, &pairs, cfg, 1 << 12);
    let run = tree.run_batch(&batch);
    let log = tree.device().take_schedule_log().serialize();
    (run.responses, run.stats, log)
}

#[test]
fn same_seed_same_workload_is_bit_identical() {
    let (r1, s1, l1) = one_run(0xD5EED, 0xBA7C4);
    let (r2, s2, l2) = one_run(0xD5EED, 0xBA7C4);
    assert_eq!(r1, r2, "responses must be bit-identical");
    assert_eq!(s1, s2, "KernelStats must be bit-identical");
    assert_eq!(l1, l2, "captured schedules must be bit-identical");
    assert!(
        !l1.is_empty(),
        "deterministic launches must capture schedules"
    );
}

#[test]
fn captured_schedule_log_round_trips_and_replays() {
    let (r1, s1, l1) = one_run(0xD5EED, 0xBA7C4);
    let log = ScheduleLog::parse(&l1).expect("serialized log must parse");

    // Replay the captured schedule on a fresh device: identical run.
    let pairs = dense_pairs(512);
    let opts = GenOptions {
        batch_size: 192,
        domain: 1024,
    };
    let batch = adversarial_batch(0xBA7C4, Profile::Skewed, &opts);
    // Different PRNG seed: the replay log, not the seed, drives stepping.
    let cfg = DeviceConfig::test_small().with_deterministic_sched(0);
    let mut tree = build_tree(TreeKind::Eirene, &pairs, cfg, 1 << 12);
    tree.device().set_replay_log(log);
    let run = tree.run_batch(&batch);
    assert_eq!(run.responses, r1);
    assert_eq!(run.stats, s1);
}

#[test]
fn different_device_seeds_still_agree_on_responses() {
    // Responses are schedule-independent (that is the linearizability
    // claim); stats may differ because conflict counts depend on the
    // interleaving.
    let (r1, _, l1) = one_run(1, 0xBA7C4);
    let (r2, _, l2) = one_run(2, 0xBA7C4);
    assert_eq!(r1, r2, "responses must not depend on the schedule");
    assert_ne!(l1, l2, "different seeds should explore different schedules");
}
