//! QoS-loop integration tests: deadline expiry *during* the combiner's
//! linger wait (the bug where deadlines were only checked at epoch
//! formation), the linger as a bound rather than a sleep (an idle
//! executor closes the epoch early; an unrepresentably long linger is
//! legal), tenant-lane isolation under an abusive tenant, and the
//! adaptive controller actually moving its target end to end.

use eirene_serve::{
    AdmitPolicy, AimdSpec, EpochSizing, Outcome, QosConfig, ServeConfig, ServeReport, Service,
    ShardMap, Ticket,
};
use eirene_workloads::OpKind;
use std::time::{Duration, Instant};

/// SplitMix64, for cheap uniform test keys.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Polls `ticket` until it resolves or `limit` passes. A combiner thread
/// that died would leave `Ticket::wait` parked forever; this fails the
/// test instead.
fn resolve_within(ticket: &Ticket, limit: Duration) -> Option<Outcome> {
    let start = Instant::now();
    loop {
        if let Some(outcome) = ticket.try_get() {
            return Some(outcome);
        }
        if start.elapsed() >= limit {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn one_shard(linger: Duration, target: usize) -> Service {
    let pairs: Vec<(u64, u64)> = (1..=256u64).map(|k| (k, k + 1)).collect();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0]).expect("valid shard starts"),
        sizing: EpochSizing::Fixed(target),
        linger,
        ..ServeConfig::test_small(1)
    };
    Service::new(&pairs, cfg)
}

/// Regression for the linger-deadline bug: deadlines used to be checked
/// only when an epoch *formed*, so a request whose deadline fell inside
/// a long linger wait sat unresolved until the linger ran out. The
/// combiner must now wake at the earliest pending deadline and resolve
/// the request `TimedOut` promptly.
#[test]
fn deadline_expires_during_linger_not_after_it() {
    let linger = Duration::from_millis(1500);
    let deadline = Duration::from_millis(100);
    // A huge target the single request can never fill: without the fix
    // the combiner lingers the full 1.5s before checking.
    let svc = one_shard(linger, 1 << 14);
    let client = svc.client();
    let start = Instant::now();
    let ticket = client.submit_with_deadline(7, OpKind::Query, deadline);
    let outcome = ticket.wait();
    let waited = start.elapsed();
    assert!(
        matches!(outcome, Outcome::TimedOut),
        "lone lingering request must expire, got {outcome:?}"
    );
    assert!(
        waited < Duration::from_millis(1000),
        "deadline resolved only after {waited:?} — the combiner slept through it \
         (linger {linger:?}, deadline {deadline:?})"
    );
    let report = svc.shutdown();
    report.assert_consistent();
    assert_eq!(report.timed_out(), 1);
    assert_eq!(report.executed(), 0);
}

/// The linger is an upper bound, not a sleep: once one epoch has been
/// measured, a lone request on the idle service goes out after about one
/// epoch's service time (well under a millisecond here), not after the
/// 250 ms linger it could never fill. Margins are wide on both sides.
#[test]
fn idle_executor_closes_a_lone_request_long_before_linger() {
    let linger = Duration::from_millis(250);
    let svc = one_shard(linger, 1 << 14);
    let client = svc.client();
    // Warm-up epoch: nothing is measured yet, so this one waits out the
    // whole linger — the behaviour every epoch used to have.
    let start = Instant::now();
    assert!(matches!(
        client.submit(7, OpKind::Query).wait(),
        Outcome::Done(_)
    ));
    assert!(
        start.elapsed() >= linger,
        "unmeasured executor: full linger"
    );

    let start = Instant::now();
    assert!(matches!(
        client.submit(9, OpKind::Query).wait(),
        Outcome::Done(_)
    ));
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_millis(50),
        "lone request on an idle, measured service took {waited:?} (linger {linger:?})"
    );
    let report = svc.shutdown();
    report.assert_consistent();
    let closed = report.shards[0].closed;
    assert_eq!((closed.linger, closed.idle), (1, 1), "{closed:?}");
}

/// `Duration::MAX` is a legal linger meaning "until full, or until the
/// executor idles": `Instant::now() + linger` used to overflow, killing
/// the combiner thread and hanging every ticket of the shard.
#[test]
fn unrepresentable_linger_waits_for_a_full_epoch_without_panicking() {
    let svc = one_shard(Duration::MAX, 2);
    let client = svc.client();
    // The first request lingers with no deadline at all; the second
    // fills the target and closes the epoch.
    let first = client.submit(7, OpKind::Query);
    // Long enough that the combiner is lingering on `first` alone (the
    // test holds for any interleaving; this one is the regression).
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(first.try_get(), None, "a partial epoch with no bound waits");
    let second = client.submit(8, OpKind::Query);
    let limit = Duration::from_secs(5);
    for ticket in [&first, &second] {
        let outcome = resolve_within(ticket, limit);
        assert!(
            matches!(outcome, Some(Outcome::Done(_))),
            "ticket unresolved or failed under linger = Duration::MAX: {outcome:?}"
        );
    }
    // With an epoch measured, a lone request no longer needs company —
    // and a deadline just as far off is no deadline, not an overflow.
    let lone = client.submit_with_deadline(9, OpKind::Query, Duration::MAX);
    assert!(matches!(
        resolve_within(&lone, limit),
        Some(Outcome::Done(_))
    ));
    let report = svc.shutdown();
    report.assert_consistent();
    assert_eq!(report.executed(), 3);
}

/// The adaptive controller must actually move under load: a closed-loop
/// burst leaves every epoch with a deep backlog, so the published target
/// has to grow above its floor by shutdown (visible in the report's
/// `batch_target` controller gauge).
#[test]
fn adaptive_target_grows_under_closed_loop_backlog() {
    let requests = 20_000usize;
    let pairs: Vec<(u64, u64)> = (1..=4096u64).map(|k| (k, k + 1)).collect();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, 2048]).expect("valid shard starts"),
        sizing: EpochSizing::Adaptive(AimdSpec::bounded(64, 4096)),
        queue_depth: requests + 1,
        policy: AdmitPolicy::Block,
        linger: Duration::ZERO,
        hold_gate: true,
        ..ServeConfig::test_small(2)
    };
    let svc = Service::new(&pairs, cfg);
    let client = svc.client();
    let ops: Vec<(u32, OpKind)> = (0..requests)
        .map(|i| ((mix(i as u64) % 4096) as u32 + 1, OpKind::Query))
        .collect();
    let tickets = client.submit_many(&ops);
    svc.release();
    let report = svc.shutdown();
    report.assert_consistent();
    for t in &tickets {
        assert!(matches!(t.wait(), Outcome::Done(_)));
    }
    assert!(
        report.shards.iter().any(|s| s.batch_target > 64),
        "no shard's controller grew its target above the floor: {:?}",
        report
            .shards
            .iter()
            .map(|s| s.batch_target)
            .collect::<Vec<_>>()
    );
}

const ISO_SHARDS: usize = 2;
const ISO_TENANTS: usize = 3;
/// Requests per well-behaved tenant in the isolation runs.
const ISO_LOAD: usize = 4096;

/// One isolation run: tenants 1 and 2 submit [`ISO_LOAD`] uniform point
/// lookups each; with `hog`, tenant 0 additionally offers 10× its
/// admissible (quota × shards) load and must shed at its quota.
fn isolation_run(hog: bool, quota: usize) -> ServeReport {
    let domain = 1u64 << 14;
    let pairs: Vec<(u64, u64)> = (1..=domain).map(|k| (k, k + 1)).collect();
    let hog_load = 10 * quota * ISO_SHARDS;
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, (domain / 2) as u32]).expect("valid shard starts"),
        sizing: EpochSizing::Adaptive(AimdSpec::bounded(64, 1024)),
        qos: QosConfig::uniform(ISO_TENANTS, quota),
        queue_depth: (ISO_TENANTS * ISO_LOAD + hog_load + 16) * ISO_SHARDS,
        policy: AdmitPolicy::Block,
        linger: Duration::ZERO,
        hold_gate: true,
        ..ServeConfig::test_small(ISO_SHARDS)
    };
    let svc = Service::new(&pairs, cfg);
    std::thread::scope(|scope| {
        for t in 1..ISO_TENANTS {
            let client = svc.client().for_tenant(t);
            scope.spawn(move || {
                let ops: Vec<(u32, OpKind)> = (0..ISO_LOAD)
                    .map(|i| {
                        let k = mix((t * ISO_LOAD + i) as u64) % domain;
                        (k as u32 + 1, OpKind::Query)
                    })
                    .collect();
                for chunk in ops.chunks(128) {
                    let _ = client.submit_many(chunk);
                }
            });
        }
        if hog {
            let client = svc.client().for_tenant(0);
            scope.spawn(move || {
                let ops: Vec<(u32, OpKind)> = (0..hog_load)
                    .map(|i| {
                        let k = mix(0xAB05E ^ i as u64) % domain;
                        (k as u32 + 1, OpKind::Query)
                    })
                    .collect();
                for chunk in ops.chunks(128) {
                    let _ = client.submit_many(chunk);
                }
            });
        }
    });
    svc.release();
    let report = svc.shutdown();
    report.assert_consistent();
    report
}

/// Tenant isolation: an abusive tenant offering 10× its quota must shed
/// at the quota and must not move a well-behaved tenant's p99 by more
/// than a bounded factor against the hog-free run. The hog's *admitted*
/// work is bounded by quota × shards (≈ 1.3× one tenant's load here),
/// so the well-behaved drain stretches by at most that share.
#[test]
fn abusive_tenant_sheds_at_quota_and_p99_stays_bounded() {
    // Headroom over the expected per-shard share so well-behaved
    // tenants never brush their own quota.
    let quota = ISO_LOAD / ISO_SHARDS + ISO_LOAD / 8 + 64;
    let solo = isolation_run(false, quota);
    let hogged = isolation_run(true, quota);

    // Quota enforcement: the hog shed most of its 10x offered load, and
    // nobody else shed anything.
    assert!(hogged.tenant_shed(0) > 0, "hog at 10x quota was never shed");
    assert_eq!(solo.shed(), 0, "solo run must not shed");
    for t in 1..ISO_TENANTS {
        assert_eq!(
            hogged.tenant_shed(t),
            0,
            "well-behaved tenant {t} shed under the hog"
        );
    }
    // The hog executed at most its admissible share, not its offered load.
    let hog_done = hogged.tenant_latency(0).count();
    assert!(
        hog_done as usize <= quota * ISO_SHARDS,
        "hog executed {hog_done}, above its admissible {}",
        quota * ISO_SHARDS
    );

    // Isolation bound: the well-behaved p99 moves by at most 3x.
    let p99_solo = solo.tenant_latency(1).p99();
    let p99_hog = hogged.tenant_latency(1).p99();
    assert!(p99_solo > 0, "solo run produced no tenant-1 latencies");
    assert!(
        p99_hog <= p99_solo.saturating_mul(3),
        "hog moved well-behaved p99 {p99_solo} -> {p99_hog} cycles (> 3x)"
    );
}
