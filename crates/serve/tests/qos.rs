//! QoS-loop integration tests: deadline expiry *during* the combiner's
//! linger wait (the bug where deadlines were only checked at epoch
//! formation), the linger as a bound rather than a sleep (an idle
//! executor closes the epoch early — when the callers it released are
//! back, else after one service time; an unrepresentably long linger is
//! legal), and tenant-lane isolation under an abusive tenant.

use eirene_serve::{
    AdmitPolicy, Outcome, QosConfig, ServeConfig, ServeReport, Service, ShardMap, Ticket,
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
        sizing: target,
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
    report.check().unwrap();
    assert_eq!(report.timed_out(), 1);
    assert_eq!(report.executed(), 0);
}

/// The linger is an upper bound, not a sleep: once one epoch has been
/// measured, a lone request on the idle service goes out after about one
/// epoch's service time (well under a millisecond here) when the epoch
/// before it released more callers than have come back, and at once when
/// it is that epoch's only caller returning — never after the 250 ms
/// linger it could not fill. Margins are wide on both sides.
#[test]
fn idle_executor_closes_a_lone_request_long_before_linger() {
    let linger = Duration::from_millis(250);
    let svc = one_shard(linger, 1 << 14);
    let client = svc.client();
    // Warm-up epoch, two callers' worth: nothing is measured yet, so it
    // waits out the whole linger — the behaviour every epoch used to have.
    let start = Instant::now();
    let warm_up = [7, 8].map(|key| client.submit(key, OpKind::Query));
    for ticket in &warm_up {
        assert!(matches!(ticket.wait(), Outcome::Done(_)));
    }
    assert!(
        start.elapsed() >= linger,
        "unmeasured executor: full linger"
    );

    // One of the two comes back (the grace runs out on the other), then
    // that epoch's single caller does.
    for key in [9, 10] {
        let start = Instant::now();
        assert!(matches!(
            client.submit(key, OpKind::Query).wait(),
            Outcome::Done(_)
        ));
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_millis(50),
            "lone request on an idle, measured service took {waited:?} (linger {linger:?})"
        );
    }
    let report = svc.shutdown();
    report.check().unwrap();
    let closed = report.shards[0].closed;
    assert_eq!(
        (closed.linger, closed.idle, closed.returned),
        (1, 1, 1),
        "{closed:?}"
    );
}

/// A closed-loop caller is all there is to wait for: once its previous
/// window's epoch has released it, its next window closes the epoch the
/// moment it is gathered — by count, not by sitting out a grace of one
/// service time per window.
#[test]
fn lone_closed_loop_caller_does_not_wait_out_the_grace() {
    const WINDOWS: u64 = 40;
    let linger = Duration::from_millis(250);
    let svc = one_shard(linger, 1 << 14);
    let client = svc.client();
    let window = |w: u64| -> Vec<(u32, OpKind)> {
        (0..32)
            .map(|i| ((mix(w * 32 + i) % 256) as u32 + 1, OpKind::Query))
            .collect()
    };
    let run = |w: u64| {
        for ticket in client.submit_many(&window(w)) {
            assert!(matches!(ticket.wait(), Outcome::Done(_)));
        }
    };
    run(0); // unmeasured: waits out the linger
    let start = Instant::now();
    (1..WINDOWS).for_each(run);
    let took = start.elapsed();
    let report = svc.shutdown();
    report.check().unwrap();
    let shard = &report.shards[0];
    assert_eq!(shard.epochs, WINDOWS, "one epoch per window");
    let closed = shard.closed;
    assert_eq!(
        (closed.linger, closed.returned, closed.idle),
        (1, WINDOWS - 1, 0),
        "every epoch after the first closes on its caller's return: {closed:?}"
    );
    assert!(
        took < linger * (WINDOWS as u32 - 1) / 8,
        "{} windows took {took:?}",
        WINDOWS - 1
    );
}

/// Two closed-loop callers with windows of 32 over two shards: each
/// shard's epoch carries ~16 requests of either window while they share
/// one, ~16 in all once they fall out of phase. Waiting for the callers
/// *released* (not for as many as were gathered) is what keeps a window
/// that arrived mid-epoch from leaving alone.
#[test]
fn two_closed_loop_callers_stay_merged() {
    const WINDOWS: u64 = 150;
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
                for w in 0..WINDOWS {
                    let ops: Vec<(u32, OpKind)> = (0..32)
                        .map(|i| {
                            let k = mix((caller * WINDOWS + w) * 32 + i) % domain;
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
    let epochs: u64 = report.shards.iter().map(|s| s.epochs).sum();
    let mean = report.executed() as f64 / epochs as f64;
    assert!(
        mean >= 24.0,
        "{} requests in {epochs} epochs ({mean:.1} per epoch): the windows split",
        report.executed()
    );
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
    report.check().unwrap();
    assert_eq!(report.executed(), 3);
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
        sizing: 1024,
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
    report.check().unwrap();
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
