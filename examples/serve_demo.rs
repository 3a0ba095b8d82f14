//! Tour of the sharded serving layer (`eirene-serve`): a four-shard
//! service fronting four simulated devices, exercised three ways —
//!
//! 1. asynchronous point traffic from concurrent client threads, with a
//!    cross-shard range query split and merged transparently;
//! 2. admission control: a deliberately tiny queue under `Shed`, and a
//!    zero deadline that times out before its epoch forms;
//! 3. a closed-loop shard-scaling measurement (1 vs 4 shards) on a
//!    YCSB-C stream, printing aggregate throughput and tail latency from
//!    the per-shard telemetry.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use eirene::serve::{AdmitPolicy, Outcome, ServeConfig, Service, ShardMap};
use eirene::sim::DeviceConfig;
use eirene::workloads::{Distribution, Mix, OpKind, Response, WorkloadGen, WorkloadSpec};
use std::time::Duration;

fn main() {
    async_clients();
    admission_control();
    shard_scaling();
}

/// Concurrent clients against a live (ungated) four-shard service.
fn async_clients() {
    println!("== async clients, cross-shard ranges ==");
    let map =
        ShardMap::from_starts(vec![0, 1 << 10, 2 << 10, 3 << 10]).expect("valid shard starts");
    let pairs: Vec<(u64, u64)> = (1..=2000u64).map(|k| (2 * k, 2 * k + 1)).collect();
    let cfg = ServeConfig {
        map,
        device: DeviceConfig::test_small(),
        sizing: 256,
        linger: Duration::from_micros(100),
        ..ServeConfig::test_small(4)
    };
    let svc = Service::new(&pairs, cfg);
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let client = svc.client();
            scope.spawn(move || {
                for i in 0..200u32 {
                    // Each thread writes its own stripe and reads it back.
                    let key = 4001 + 8 * (i % 64) + t;
                    client.submit(key, OpKind::Upsert(t * 1000 + i));
                    let got = client.submit(key, OpKind::Query).wait();
                    assert_eq!(got, Outcome::Done(Response::Value(Some(t * 1000 + i))));
                }
            });
        }
    });
    // One range spanning three shard boundaries, answered by three
    // devices and merged positionally.
    let client = svc.client();
    let ticket = client.submit((1 << 10) - 8, OpKind::Range { len: 2100 });
    match ticket.wait() {
        Outcome::Done(Response::Range(slots)) => {
            let hits = slots.iter().filter(|s| s.is_some()).count();
            println!(
                "   range over 3 boundaries: {} slots, {hits} occupied",
                slots.len()
            );
        }
        other => panic!("range failed: {other:?}"),
    }
    let report = svc.shutdown();
    report.check().unwrap();
    println!(
        "   {} requests over {} shards, {} epochs, p99 latency {:.1} us\n",
        report.executed(),
        report.shards.len(),
        report.shards.iter().map(|s| s.epochs).sum::<u64>(),
        report.device.cycles_to_secs(report.latency().p99() as f64) * 1e6,
    );
}

/// Bounded queues shed, deadlines expire — without executing anything.
fn admission_control() {
    println!("== admission control ==");
    let pairs: Vec<(u64, u64)> = (1..=64u64).map(|k| (k, k + 1)).collect();
    let cfg = ServeConfig {
        map: ShardMap::uniform(1),
        queue_depth: 8,
        policy: AdmitPolicy::Shed,
        hold_gate: true, // nothing drains until release(): the queue must fill
        ..ServeConfig::test_small(1)
    };
    let svc = Service::new(&pairs, cfg);
    let client = svc.client();
    let mut shed = 0;
    let deadline = client.submit_with_deadline(1, OpKind::Query, Duration::ZERO);
    for k in 0..16u32 {
        if client.submit(k, OpKind::Query).try_get() == Some(Outcome::Rejected) {
            shed += 1;
        }
    }
    svc.release();
    let report = svc.shutdown();
    assert_eq!(deadline.wait(), Outcome::TimedOut);
    println!(
        "   16 submissions into a depth-8 queue: {shed} shed at admission, \
         {} executed, {} timed out (the zero-deadline probe)\n",
        report.executed(),
        report.timed_out()
    );
}

/// Closed-loop YCSB-C throughput, 1 shard vs 4.
fn shard_scaling() {
    println!("== shard scaling, YCSB-C ==");
    let spec = WorkloadSpec {
        tree_size: 1 << 13,
        batch_size: 512,
        mix: Mix::ycsb_c(),
        distribution: Distribution::Uniform,
        seed: 7,
    };
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .into_iter()
        .map(|(k, v)| (k as u64, v as u64))
        .collect();
    let mut base = 0.0;
    for shards in [1usize, 4] {
        let width = (spec.key_domain() / shards as u64).max(1) as u32;
        let cfg = ServeConfig {
            map: ShardMap::from_starts((0..shards as u32).map(|i| i * width).collect())
                .expect("valid shard starts"),
            sizing: 512,
            queue_depth: 1 << 14,
            hold_gate: true,
            ..ServeConfig::test_small(shards)
        };
        let svc = Service::new(&pairs, cfg);
        let client = svc.client();
        for req in WorkloadGen::new(spec.clone()).next_requests(8192) {
            client.submit(req.key, req.op);
        }
        svc.release();
        let report = svc.shutdown();
        report.check().unwrap();
        let tput = report.throughput();
        if base == 0.0 {
            base = tput;
        }
        println!(
            "   {shards} shard(s): {:>7.1} Mreq/s ({:.2}x), p99 {:.1} us",
            tput / 1e6,
            tput / base,
            report.device.cycles_to_secs(report.latency().p99() as f64) * 1e6,
        );
    }
}
