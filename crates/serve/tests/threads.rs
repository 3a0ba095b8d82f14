//! A service's thread census: one thread per shard plus the rebalancer,
//! and no device worker pool — not at start, not after the epochs of a
//! mixed workload, and not after a migration rebuilt a shard's tree (its
//! fresh device would otherwise spawn a pool on the request path, at the
//! next epoch's first large launch).
//!
//! A binary of its own, with one test, so no other test's threads are
//! counted.
#![cfg(target_os = "linux")]

use eirene_serve::{RebalanceAction, RebalanceSpec, ServeConfig, Service, ShardMap};
use eirene_sim::DeviceConfig;
use eirene_workloads::{OpKind, Response};
use std::collections::BTreeMap;
use std::time::Duration;

/// Keys the workload touches; the shard boundary sits in the middle.
const DOMAIN: u32 = 2048;

/// SplitMix64, for cheap seeded test keys and ops.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The names (`comm`, at most 15 bytes) of this process's threads.
fn thread_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    names.sort();
    names
}

fn assert_census(when: &str) {
    let names = thread_names();
    for expected in ["serve-shard-0", "serve-shard-1", "serve-rebalance"] {
        assert!(
            names.iter().any(|n| n == expected),
            "{when}: no {expected} thread in {names:?}"
        );
    }
    assert!(
        !names.iter().any(|n| n.starts_with("eirene-sm-work")),
        "{when}: a device worker pool is running: {names:?}"
    );
}

/// Submits `windows` mixed windows of 128 requests (60 % query, 25 %
/// upsert, 15 % delete) from one client and checks every query against
/// `oracle`, which the updates advance in submission order.
fn mixed_windows(svc: &Service, oracle: &mut BTreeMap<u64, u64>, seed: u64, windows: u64) {
    let client = svc.client();
    for w in 0..windows {
        let ops: Vec<(u32, OpKind)> = (0..128)
            .map(|i| {
                let r = mix(seed ^ mix(w << 8 | i));
                let key = (r % DOMAIN as u64) as u32;
                let op = match (r >> 32) % 20 {
                    0..=11 => OpKind::Query,
                    12..=16 => OpKind::Upsert((r >> 40) as u32),
                    _ => OpKind::Delete,
                };
                (key, op)
            })
            .collect();
        let tickets = client.submit_many(&ops);
        for ((key, op), ticket) in ops.into_iter().zip(tickets) {
            let outcome = ticket.wait();
            let response = outcome.response().expect("no deadline, no shedding");
            let key = key as u64;
            match op {
                OpKind::Query => assert_eq!(
                    *response,
                    Response::Value(oracle.get(&key).map(|&v| v as u32)),
                    "window {w}: query of key {key}"
                ),
                OpKind::Upsert(v) => {
                    oracle.insert(key, v as u64);
                }
                OpKind::Delete => {
                    oracle.remove(&key);
                }
                OpKind::Range { .. } => unreachable!("the mix has no ranges"),
            }
        }
    }
}

/// Reads every key of the domain back and compares it with `oracle`.
fn assert_contents(svc: &Service, oracle: &BTreeMap<u64, u64>, when: &str) {
    let ops: Vec<(u32, OpKind)> = (0..DOMAIN).map(|k| (k, OpKind::Query)).collect();
    for ((key, _), ticket) in ops.iter().zip(svc.client().submit_many(&ops)) {
        let outcome = ticket.wait();
        assert_eq!(
            outcome.response(),
            Some(&Response::Value(
                oracle.get(&(*key as u64)).map(|&v| v as u32)
            )),
            "{when}: key {key}"
        );
    }
}

/// Forces `action` and waits until the rebalancer has carried it out.
fn force(svc: &Service, action: RebalanceAction) {
    let before = svc.rebalance_attempts();
    svc.force_rebalance(action);
    while svc.rebalance_attempts() == before {
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn a_service_runs_its_kernels_on_its_shard_threads() {
    let pairs: Vec<(u64, u64)> = (0..DOMAIN as u64 / 2).map(|i| (2 * i, i + 1)).collect();
    let mut oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, DOMAIN / 2]).expect("valid shard starts"),
        rebalance: Some(RebalanceSpec::manual()),
        // A pinned pool size a standalone tree would honour.
        device: DeviceConfig {
            worker_threads: 4,
            ..DeviceConfig::test_small()
        },
        ..ServeConfig::test_small(2)
    };
    let svc = Service::new(&pairs, cfg);

    mixed_windows(&svc, &mut oracle, 1, 200);
    assert_census("after 200 mixed windows");
    assert_contents(&svc, &oracle, "after 200 mixed windows");

    // Each migration rebuilds the absorbing shard's tree; the windows
    // after it run the fresh tree's first epochs.
    for (n, (action, when)) in [
        (RebalanceAction::Split { shard: 1 }, "after a forced split"),
        (RebalanceAction::Merge { left: 0 }, "after a forced merge"),
    ]
    .into_iter()
    .enumerate()
    {
        force(&svc, action);
        assert_eq!(
            svc.rebalance_events().len(),
            n + 1,
            "{when}: not carried out"
        );
        mixed_windows(&svc, &mut oracle, 2 + n as u64, 50);
        assert_census(when);
        assert_contents(&svc, &oracle, when);
    }

    let report = svc.shutdown();
    report.assert_consistent();
    assert_eq!(report.contents(), oracle.into_iter().collect::<Vec<_>>());
}
