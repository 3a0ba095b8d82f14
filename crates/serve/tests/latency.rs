//! Response time on a closed loop. A live request arrives at its shard's
//! virtual clock when it is admitted, so the latency a report books runs
//! from admission to the end of the request's epoch. Were it stamped at
//! service start instead, it would measure how long the service had been
//! running, and grow with the run.

use eirene_serve::{Outcome, ServeConfig, Service, ShardMap};
use eirene_workloads::OpKind;

/// SplitMix64, for cheap uniform test keys.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Two closed-loop callers, `windows` windows of 32 queries each over two
/// range shards: the p99 response time in cycles, and the mean epoch's
/// makespan.
fn closed_loop(windows: u64) -> (u64, u64) {
    let domain = 1u64 << 12;
    let pairs: Vec<(u64, u64)> = (1..=domain).map(|k| (k, k + 1)).collect();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, (domain / 2) as u32]).expect("valid shard starts"),
        sizing: 4096,
        ..ServeConfig::test_small(2)
    };
    let svc = Service::new(&pairs, cfg);
    std::thread::scope(|scope| {
        for caller in 0..2u64 {
            let client = svc.client();
            scope.spawn(move || {
                for w in 0..windows {
                    let ops: Vec<(u32, OpKind)> = (0..32)
                        .map(|i| {
                            let k = mix((caller * windows + w) * 32 + i) % domain;
                            (k as u32 + 1, OpKind::Query)
                        })
                        .collect();
                    for ticket in client.submit_many(&ops) {
                        assert!(matches!(ticket.wait(), Outcome::Done(_)));
                    }
                }
            });
        }
    });
    let report = svc.shutdown();
    report.check().unwrap();
    let busy: u64 = report.shards.iter().map(|s| s.busy_cycles).sum();
    let epochs: u64 = report.shards.iter().map(|s| s.epochs).sum();
    (report.latency().p99(), busy / epochs)
}

#[test]
fn closed_loop_p99_does_not_grow_with_the_run() {
    let (short, short_epoch) = closed_loop(50);
    let (long, long_epoch) = closed_loop(200);
    // A request waits out at most the epoch in flight when it arrives and
    // then its own; stamped at service start, the p99 of the longer run
    // read about four times the shorter one's.
    for (windows, p99, epoch) in [(50, short, short_epoch), (200, long, long_epoch)] {
        assert!(
            p99 <= 4 * epoch,
            "{windows} windows: p99 {p99} cycles, {epoch} per epoch"
        );
    }
    assert!(
        long < 2 * short,
        "p99 {short} cycles after 50 windows, {long} after 200"
    );
}
