//! The paper's central correctness claim (§6): Eirene's concurrent
//! execution is linearizable — every batch produces exactly the results of
//! a sequential execution in logical-timestamp order. These tests check
//! the claim mechanically against the sequential oracle, including with
//! property-based random workloads, multi-batch histories, range queries,
//! and skewed (high-conflict) key distributions.

use eirene::baselines::common::ConcurrentTree;
use eirene::btree::refops;
use eirene::btree::validate::validate;
use eirene::core::{EireneOptions, EireneTree};
use eirene::serve::{
    AdmitPolicy, EpochSizing, Outcome, ServeConfig, ServeReport, Service, ShardMap, Ticket,
};
use eirene::sim::DeviceConfig;
use eirene::workloads::{
    Batch, Distribution, Mix, OpKind, Oracle, Request, Response, SequentialOracle, WorkloadGen,
    WorkloadSpec,
};
use proptest::prelude::*;
use std::time::Duration;

fn pairs(n: u64) -> Vec<(u64, u64)> {
    (1..=n).map(|i| (2 * i, 2 * i + 1)).collect()
}

fn pairs32(n: u64) -> Vec<(u32, u32)> {
    (1..=n)
        .map(|i| ((2 * i) as u32, (2 * i + 1) as u32))
        .collect()
}

fn check_batch_against_oracle(tree: &mut EireneTree, oracle: &mut SequentialOracle, batch: &Batch) {
    let got = tree.run_batch(batch).responses;
    let want = oracle.run_batch(batch);
    for i in 0..batch.len() {
        assert_eq!(
            got[i], want[i],
            "response {i} diverges for {:?}",
            batch.requests[i]
        );
    }
    // Structural invariants and final state must also agree.
    validate(tree.device().mem(), tree.handle()).expect("tree invariants");
    let tree_contents = refops::contents(tree.device().mem(), tree.handle());
    let oracle_contents: Vec<(u64, u64)> = oracle
        .contents()
        .iter()
        .map(|(&k, &v)| (k as u64, v as u64))
        .collect();
    assert_eq!(tree_contents, oracle_contents, "final tree state diverges");
}

#[test]
fn single_key_hammering_is_linearizable() {
    // 2048 requests all on one key: the worst case for key conflicts and
    // the best case for combining.
    let mut tree = EireneTree::new(&pairs(256), EireneOptions::test_small());
    let mut oracle = SequentialOracle::load(&pairs32(256));
    let ops: Vec<(u32, OpKind)> = (0..2048u32)
        .map(|i| {
            let op = match i % 5 {
                0 => OpKind::Upsert(i),
                1 => OpKind::Delete,
                _ => OpKind::Query,
            };
            (128, op)
        })
        .collect();
    let batch = Batch::from_ops(ops);
    check_batch_against_oracle(&mut tree, &mut oracle, &batch);
}

#[test]
fn multi_batch_history_stays_linearizable() {
    let spec = WorkloadSpec {
        tree_size: 1 << 11,
        batch_size: 2048,
        mix: Mix {
            upsert: 0.25,
            delete: 0.1,
            range: 0.05,
            range_len: 4,
        },
        distribution: Distribution::Uniform,
        seed: 99,
    };
    let init = spec.initial_pairs();
    let p64: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
    let mut tree = EireneTree::new(&p64, EireneOptions::test_small());
    let mut oracle = SequentialOracle::load(&init);
    let mut gen = WorkloadGen::new(spec);
    for _ in 0..4 {
        let batch = gen.next_batch();
        check_batch_against_oracle(&mut tree, &mut oracle, &batch);
    }
}

#[test]
fn zipfian_contention_is_linearizable() {
    // Heavy skew concentrates many requests on few keys — the regime
    // where baselines conflict most and combining matters most.
    let spec = WorkloadSpec {
        tree_size: 1 << 10,
        batch_size: 4096,
        mix: Mix {
            upsert: 0.3,
            delete: 0.05,
            range: 0.0,
            range_len: 4,
        },
        distribution: Distribution::Zipfian { theta: 0.99 },
        seed: 5,
    };
    let init = spec.initial_pairs();
    let p64: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
    let mut tree = EireneTree::new(&p64, EireneOptions::test_small());
    let mut oracle = SequentialOracle::load(&init);
    let mut gen = WorkloadGen::new(spec);
    let batch = gen.next_batch();
    check_batch_against_oracle(&mut tree, &mut oracle, &batch);
}

#[test]
fn range_queries_interleaved_with_updates_are_linearizable() {
    let mut tree = EireneTree::new(&pairs(512), EireneOptions::test_small());
    let mut oracle = SequentialOracle::load(&pairs32(512));
    // Dense interleaving of ranges and updates over a small key window.
    let mut reqs = Vec::new();
    for i in 0..600u64 {
        let k = 100 + (i % 40) as u32;
        let op = match i % 4 {
            0 => OpKind::Upsert(i as u32),
            1 => OpKind::Range { len: 8 },
            2 => OpKind::Delete,
            _ => OpKind::Query,
        };
        reqs.push(Request { key: k, op, ts: i });
    }
    let batch = Batch::new(reqs);
    check_batch_against_oracle(&mut tree, &mut oracle, &batch);
}

#[test]
fn responses_are_deterministic_across_runs() {
    // Scheduling is nondeterministic; linearizable results must not be.
    let spec = WorkloadSpec {
        tree_size: 1 << 10,
        batch_size: 4096,
        mix: Mix {
            upsert: 0.2,
            delete: 0.05,
            range: 0.02,
            range_len: 4,
        },
        distribution: Distribution::Uniform,
        seed: 123,
    };
    let p64: Vec<(u64, u64)> = spec
        .initial_pairs()
        .iter()
        .map(|&(k, v)| (k as u64, v as u64))
        .collect();
    let batch = WorkloadGen::new(spec).next_batch();
    let r1 = EireneTree::new(&p64, EireneOptions::test_small())
        .run_batch(&batch)
        .responses;
    let r2 = EireneTree::new(&p64, EireneOptions::test_small())
        .run_batch(&batch)
        .responses;
    assert_eq!(r1, r2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches over a small key domain (maximal conflict density)
    /// must match the oracle response-for-response and state-for-state.
    #[test]
    fn prop_random_batches_match_oracle(
        ops in proptest::collection::vec(
            (1u32..64, 0u8..10, any::<u32>()),
            1..400,
        )
    ) {
        let init = pairs32(16); // keys 2..=32
        let p64: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
        let mut tree = EireneTree::new(&p64, EireneOptions::test_small());
        let mut oracle = SequentialOracle::load(&init);
        let reqs: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(ts, &(key, sel, val))| {
                let op = match sel {
                    0..=2 => OpKind::Upsert(val),
                    3 => OpKind::Delete,
                    4 => OpKind::Range { len: 1 + (val % 8) },
                    _ => OpKind::Query,
                };
                Request { key, op, ts: ts as u64 }
            })
            .collect();
        let batch = Batch::new(reqs);
        let got = tree.run_batch(&batch).responses;
        let want = oracle.run_batch(&batch);
        prop_assert_eq!(&got, &want);
        validate(tree.device().mem(), tree.handle()).map_err(|e| {
            TestCaseError::fail(format!("invariant violation: {e}"))
        })?;
    }

    /// Permuting the *positions* of requests while keeping their
    /// timestamps must not change any response: only logical time matters.
    #[test]
    fn prop_results_depend_on_timestamps_not_positions(
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let init = pairs32(64);
        let p64: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut reqs: Vec<Request> = (0..200u64)
            .map(|ts| {
                let key = 2 * (1 + (ts as u32 * 7 + seed as u32) % 64);
                let op = match ts % 3 {
                    0 => OpKind::Upsert(ts as u32),
                    1 => OpKind::Query,
                    _ => OpKind::Delete,
                };
                Request { key, op, ts }
            })
            .collect();
        let mut t1 = EireneTree::new(&p64, EireneOptions::test_small());
        let batch1 = Batch::new(reqs.clone());
        let mut r1 = t1.run_batch(&batch1).responses;

        reqs.shuffle(&mut rng);
        let mut t2 = EireneTree::new(&p64, EireneOptions::test_small());
        let batch2 = Batch::new(reqs.clone());
        let r2 = t2.run_batch(&batch2).responses;

        // Align by timestamp before comparing.
        let mut order1: Vec<usize> = (0..batch1.len()).collect();
        order1.sort_by_key(|&i| batch1.requests[i].ts);
        let mut order2: Vec<usize> = (0..batch2.len()).collect();
        order2.sort_by_key(|&i| batch2.requests[i].ts);
        let by_ts1: Vec<&Response> = order1.iter().map(|&i| &r1[i]).collect();
        let by_ts2: Vec<&Response> = order2.iter().map(|&i| &r2[i]).collect();
        prop_assert_eq!(by_ts1, by_ts2);
        r1.clear();
    }
}

#[test]
fn equal_timestamp_range_before_update_sees_old_value() {
    // Range query and upsert on a covered key share a raw timestamp; the
    // range comes first in the batch, so the oracle's stable sort runs it
    // first and it must observe the OLD value. Regression: the resolve
    // pass used a raw `ts <` comparison, which always resolved the
    // equal-ts artificial query after the point request and handed the
    // range the new value.
    let init = pairs(8); // keys 2..=16, key 10 -> value 11
    let mut tree = EireneTree::new(&init, EireneOptions::test_small());
    let mut oracle = SequentialOracle::load(&pairs32(8));
    let batch = Batch::new(vec![
        Request::range(8, 5, 7),    // covers key 10, ts 7, batch pos 0
        Request::upsert(10, 99, 7), // same ts, batch pos 1
    ]);
    check_batch_against_oracle(&mut tree, &mut oracle, &batch);
    let got = {
        let mut t = EireneTree::new(&init, EireneOptions::test_small());
        t.run_batch(&batch).responses
    };
    match &got[0] {
        Response::Range(slots) => {
            assert_eq!(
                slots[2],
                Some(11),
                "range at equal ts but earlier batch position must see the old value"
            );
        }
        other => panic!("expected a range response, got {other:?}"),
    }
}

#[test]
fn equal_timestamp_update_before_range_sees_new_value() {
    // Mirror case: the upsert is earlier in the batch, so the equal-ts
    // range must observe the NEW value.
    let init = pairs(8);
    let mut tree = EireneTree::new(&init, EireneOptions::test_small());
    let mut oracle = SequentialOracle::load(&pairs32(8));
    let batch = Batch::new(vec![
        Request::upsert(10, 99, 7), // batch pos 0
        Request::range(8, 5, 7),    // same ts, batch pos 1
    ]);
    check_batch_against_oracle(&mut tree, &mut oracle, &batch);
    let got = {
        let mut t = EireneTree::new(&init, EireneOptions::test_small());
        t.run_batch(&batch).responses
    };
    match &got[1] {
        Response::Range(slots) => {
            assert_eq!(
                slots[2],
                Some(99),
                "range at equal ts but later batch position must see the new value"
            );
        }
        other => panic!("expected a range response, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Sharded serving layer: the linearizability claim must survive shard
// routing, epoch pipelining, and cross-shard range splitting/merging.
// ---------------------------------------------------------------------

/// Four shards with boundaries at 100/200/300 — small enough that the
/// test keys exercise every shard and every boundary.
fn test_map() -> ShardMap {
    ShardMap::from_starts(vec![0, 100, 200, 300]).expect("valid shard starts")
}

fn serve_config(device: DeviceConfig) -> ServeConfig {
    ServeConfig {
        map: test_map(),
        device,
        sizing: EpochSizing::Fixed(64), // force multi-epoch histories
        queue_depth: 1 << 12,
        policy: AdmitPolicy::Block,
        linger: Duration::ZERO,
        hold_gate: true,
        headroom_nodes: 1 << 12,
        ..ServeConfig::default()
    }
}

/// A mixed request stream dense around the shard boundaries: upserts and
/// deletes *on* the boundary keys interleaved with range queries whose
/// windows straddle one or two boundaries.
fn boundary_stream(n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let b = [100u32, 200, 300][(i % 3) as usize];
            match i % 7 {
                0 => Request::upsert(b, i as u32, i),
                1 => Request::delete(b, i),
                2 => Request::upsert(b - 1, i as u32, i),
                3 => Request::range(b - 6, 12, i), // straddles one boundary
                4 => Request::range(95, 120, i),   // straddles 100 and 200
                5 => Request::query(b + 1, i),
                _ => Request::query(b, i),
            }
        })
        .collect()
}

/// Submits `reqs` in order through one client (gate held, so submission
/// order is admission order), then checks every ticket and the merged
/// final contents against a flat sequential oracle.
fn check_service_against_oracle(
    device: DeviceConfig,
    replay: Option<Vec<eirene::sim::ScheduleLog>>,
) {
    let init = pairs(150); // keys 2..=300: every shard starts non-empty
    let reqs = boundary_stream(280);
    let mut cfg = serve_config(device);
    cfg.replay = replay;
    let svc = Service::new(&init, cfg);
    let client = svc.client();
    let tickets: Vec<Ticket> = reqs.iter().map(|r| client.submit(r.key, r.op)).collect();
    svc.release();
    let report = svc.shutdown();

    let mut oracle = SequentialOracle::load(&pairs32(150));
    let want = oracle.run_batch(&Batch::new(reqs.clone()));
    for (i, (ticket, want)) in tickets.iter().zip(&want).enumerate() {
        assert_eq!(
            ticket.wait(),
            Outcome::Done(want.clone()),
            "response {i} diverges for {:?}",
            reqs[i]
        );
    }
    let oracle_contents: Vec<(u64, u64)> = oracle
        .contents()
        .iter()
        .map(|(&k, &v)| (k as u64, v as u64))
        .collect();
    assert_eq!(report.contents(), oracle_contents, "final state diverges");
    report.assert_consistent();
}

#[test]
fn sharded_service_is_linearizable_across_boundaries_os_sched() {
    check_service_against_oracle(DeviceConfig::test_small(), None);
}

#[test]
fn sharded_service_is_linearizable_across_boundaries_det_sched() {
    check_service_against_oracle(
        DeviceConfig::test_small().with_deterministic_sched(0xD5EED),
        None,
    );
}

#[test]
fn deterministic_serving_capture_replay_round_trips() {
    // First run: capture per-shard warp schedules and all responses.
    let init = pairs(150);
    let reqs = boundary_stream(280);
    let device = DeviceConfig::test_small().with_deterministic_sched(0xCAFE);
    let run = |replay: Option<Vec<eirene::sim::ScheduleLog>>| {
        let mut cfg = serve_config(device.clone());
        cfg.replay = replay;
        let svc = Service::new(&init, cfg);
        let client = svc.client();
        let tickets: Vec<Ticket> = reqs.iter().map(|r| client.submit(r.key, r.op)).collect();
        svc.release();
        let report = svc.shutdown();
        let outcomes: Vec<Outcome> = tickets.iter().map(|t| t.wait()).collect();
        let schedules: Vec<eirene::sim::ScheduleLog> =
            report.shards.iter().map(|s| s.schedule.clone()).collect();
        (outcomes, schedules, report)
    };
    let (out1, sched1, report1) = run(None);
    report1.assert_consistent();
    assert!(
        sched1.iter().any(|s| !s.launches.is_empty()),
        "deterministic devices must capture non-empty schedules"
    );
    // Second run replays those schedules: identical responses AND the
    // re-captured logs must match the originals bit-for-bit.
    let (out2, sched2, report2) = run(Some(sched1.clone()));
    report2.assert_consistent();
    assert_eq!(out1, out2, "replayed responses diverge");
    assert_eq!(sched1, sched2, "replayed schedules diverge");
}

#[test]
fn concurrent_clients_preserve_session_order() {
    // Four client threads write disjoint key stripes (one owned key per
    // shard each) and immediately read their own writes. Timestamps are
    // assigned in global submission order, so each query follows its
    // thread's latest upsert in logical time and — with no other writer on
    // the key — must observe it. Cross-shard ranges ride along to keep the
    // splitter/merger in the concurrent mix. No gate: the epoch pipeline
    // runs live under real thread interleaving.
    const THREADS: u32 = 4;
    const OPS: u32 = 48;
    let init = pairs(150);
    let cfg = ServeConfig {
        hold_gate: false,
        linger: Duration::from_micros(50),
        ..serve_config(DeviceConfig::test_small())
    };
    let svc = Service::new(&init, cfg);
    let mut expected: std::collections::BTreeMap<u64, u64> = init.iter().copied().collect();
    // Thread t owns key s*100 + 8t + 1 on each shard s: odd keys, absent
    // from the even initial pairs, disjoint across threads.
    for t in 0..THREADS {
        for s in 0..4u32 {
            let key = s * 100 + 8 * t + 1;
            let last = (0..OPS).filter(|i| i % 4 == s).max().unwrap();
            expected.insert(key as u64, (t * 1000 + last) as u64);
        }
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let client = svc.client();
            scope.spawn(move || {
                let mut reads = Vec::new();
                for i in 0..OPS {
                    let s = i % 4;
                    let key = s * 100 + 8 * t + 1;
                    let val = t * 1000 + i;
                    client.submit(key, OpKind::Upsert(val));
                    reads.push((key, val, client.submit(key, OpKind::Query)));
                    if i % 8 == 0 {
                        // Straddles the 100 and 200 boundaries.
                        let range = client.submit(95, OpKind::Range { len: 110 });
                        match range.wait() {
                            Outcome::Done(Response::Range(slots)) => {
                                assert_eq!(slots.len(), 110)
                            }
                            other => panic!("range failed: {other:?}"),
                        }
                    }
                }
                for (key, val, ticket) in reads {
                    assert_eq!(
                        ticket.wait(),
                        Outcome::Done(Response::Value(Some(val))),
                        "thread {t} lost its own write to key {key}"
                    );
                }
            });
        }
    });
    let report = svc.shutdown();
    report.assert_consistent();
    let contents: Vec<(u64, u64)> = expected.into_iter().collect();
    assert_eq!(report.contents(), contents, "final state diverges");
}

#[test]
fn lock_free_multi_client_stress_matches_timestamp_order_replay() {
    multi_client_stress(Duration::from_micros(20), false);
}

#[test]
fn default_linger_closed_loop_stress_matches_timestamp_order_replay() {
    // The default 1 ms linger with clients that wait for their replies:
    // executors go idle between bursts, so most epochs close on an
    // idle-executor exit (the released callers are back, or the grace ran
    // out) and the rest when the linger runs out behind a busy one — the
    // paths the short-linger scenarios never take.
    let report = multi_client_stress(ServeConfig::default().linger, true);
    let idle: u64 = report
        .shards
        .iter()
        .map(|s| s.closed.idle + s.closed.returned)
        .sum();
    assert!(idle > 0, "closed-loop clients must meet an idle executor");
}

/// Eight threads race mixed single and batched submissions through the
/// lock-free front door with the epoch pipeline running live. The
/// service linearizes at admission timestamps, so replaying the whole
/// concurrent history through the flat oracle in timestamp order must
/// reproduce every ticket's response and the final contents, and the
/// report accounting must balance with nothing shed or timed out.
/// `closed_loop` clients wait for each chunk's last reply before
/// submitting the next chunk.
fn multi_client_stress(linger: Duration, closed_loop: bool) -> ServeReport {
    const THREADS: u64 = 8;
    const OPS: usize = 160; // per thread
    let init = pairs(150);
    let cfg = ServeConfig {
        hold_gate: false,
        linger,
        ..serve_config(DeviceConfig::test_small())
    };
    let svc = Service::new(&init, cfg);
    let mut per_thread: Vec<Vec<(u32, OpKind, Ticket)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = svc.client();
                scope.spawn(move || {
                    // Per-thread deterministic LCG stream.
                    let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                    let mut next = move || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 33
                    };
                    let ops: Vec<(u32, OpKind)> = (0..OPS)
                        .map(|_| {
                            let r = next();
                            let key = 1 + (r % 400) as u32;
                            let op = match r % 10 {
                                0..=3 => OpKind::Upsert((r >> 10) as u32),
                                4 => OpKind::Delete,
                                // Long enough to straddle shard boundaries.
                                5 => OpKind::Range {
                                    len: 1 + ((r >> 7) % 40) as u32,
                                },
                                _ => OpKind::Query,
                            };
                            (key, op)
                        })
                        .collect();
                    // Mix of single submissions and submit_many chunks.
                    let mut out: Vec<(u32, OpKind, Ticket)> = Vec::with_capacity(OPS);
                    let mut i = 0;
                    while i < ops.len() {
                        let take = (1 + next() % 9) as usize;
                        let take = take.min(ops.len() - i);
                        if take == 1 {
                            let (key, op) = ops[i];
                            out.push((key, op, client.submit(key, op)));
                        } else {
                            let slice = &ops[i..i + take];
                            for (&(key, op), ticket) in slice.iter().zip(client.submit_many(slice))
                            {
                                out.push((key, op, ticket));
                            }
                        }
                        i += take;
                        if closed_loop {
                            out.last().expect("chunks are non-empty").2.wait();
                        }
                    }
                    out
                })
            })
            .collect();
        per_thread.extend(handles.into_iter().map(|h| h.join().unwrap()));
    });
    let report = svc.shutdown();
    assert_eq!(report.shed(), 0, "generous queues must not shed");
    assert_eq!(report.timed_out(), 0, "no deadlines were set");
    report.assert_consistent();

    // Replay the concurrent history in admission-timestamp order.
    let mut ordered: Vec<(u64, u32, OpKind, Ticket)> = per_thread
        .into_iter()
        .flatten()
        .map(|(key, op, ticket)| {
            let ts = ticket.timestamp().expect("every op draws a timestamp");
            (ts, key, op, ticket)
        })
        .collect();
    ordered.sort_by_key(|e| e.0);
    let mut oracle = SequentialOracle::load(&pairs32(150));
    let want = oracle.run_batch(&Batch::new(
        ordered
            .iter()
            .map(|&(ts, key, op, _)| Request { key, op, ts })
            .collect(),
    ));
    for ((ts, key, op, ticket), want) in ordered.iter().zip(want) {
        assert_eq!(
            ticket.wait(),
            Outcome::Done(want),
            "ts {ts}: {op:?} on key {key} diverges from the timestamp-order replay"
        );
    }
    let oracle_contents: Vec<(u64, u64)> = oracle
        .contents()
        .iter()
        .map(|(&k, &v)| (k as u64, v as u64))
        .collect();
    assert_eq!(report.contents(), oracle_contents, "final state diverges");
    report
}

#[test]
fn equal_timestamp_delete_vs_range_ties_break_by_batch_position() {
    // Same tie-break with a delete as the state op, both orders.
    let init = pairs(8);
    let run = |reqs: Vec<Request>| {
        let mut tree = EireneTree::new(&init, EireneOptions::test_small());
        let mut oracle = SequentialOracle::load(&pairs32(8));
        let batch = Batch::new(reqs);
        check_batch_against_oracle(&mut tree, &mut oracle, &batch);
    };
    run(vec![Request::range(8, 5, 3), Request::delete(10, 3)]);
    run(vec![Request::delete(10, 3), Request::range(8, 5, 3)]);
}
