//! Integration tests for the live-observability surface: report
//! accounting invariants under mixed shed + timeout + batched traffic
//! with sampling on, series/report reconciliation, the degenerate
//! zero-makespan throughput case, and the bounded size of what a shard
//! keeps across epochs.

use eirene_serve::{
    reconcile_samples, AdmitPolicy, ObserveConfig, Outcome, SeriesCollector, ServeConfig, Service,
    ShardMap,
};
use eirene_workloads::OpKind;
use std::time::Duration;

/// A service that executes nothing has a zero virtual makespan; the
/// throughput accessor must report 0, not NaN or infinity.
#[test]
fn zero_makespan_throughput_is_zero_not_nan() {
    let pairs: Vec<(u64, u64)> = (1..=64u64).map(|k| (k, k + 1)).collect();
    let svc = Service::new(&pairs, ServeConfig::test_small(2));
    let report = svc.shutdown();
    report.check().unwrap();
    assert_eq!(report.executed(), 0);
    assert_eq!(report.makespan_cycles(), 0);
    let tput = report.throughput();
    assert!(tput.is_finite(), "throughput must never be NaN/inf: {tput}");
    assert_eq!(tput, 0.0);
}

/// Mixed outcome classes — admission shed, deadline expiry, and batched
/// submission — with sampling on: the per-shard accounting invariant
/// `enqueued == executed + timed_out` holds (shed requests never enter a
/// queue), aggregates sum across shards, and the sampled series
/// reconciles exactly with the shutdown report.
#[test]
fn mixed_shed_timeout_batched_accounting_reconciles() {
    let queue_depth = 32usize;
    let pairs: Vec<(u64, u64)> = (1..=1024u64).map(|k| (k, k + 1)).collect();
    let collector = SeriesCollector::new();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, 512]).expect("valid shard starts"),
        queue_depth,
        policy: AdmitPolicy::Shed,
        hold_gate: true, // queues must fill so the burst actually sheds
        observe: ObserveConfig::with_observer(collector.clone()),
        ..ServeConfig::test_small(2)
    };
    let svc = Service::new(&pairs, cfg);
    let client = svc.client();

    // One zero-deadline probe per shard: admitted now, expired by the
    // time its epoch forms.
    let probes = [
        client.submit_with_deadline(1, OpKind::Query, Duration::ZERO),
        client.submit_with_deadline(600, OpKind::Query, Duration::ZERO),
    ];
    // A batched burst across both shards, several times the queue depth.
    let ops: Vec<(u32, OpKind)> = (0..256u32)
        .map(|i| (1 + (i * 4) % 1024, OpKind::Query))
        .collect();
    let tickets = client.submit_many(&ops);
    svc.release();
    let report = svc.shutdown();
    report.check().unwrap();
    for probe in probes {
        assert_eq!(probe.wait(), Outcome::TimedOut);
    }

    let rejected = tickets
        .iter()
        .filter(|t| t.try_get() == Some(Outcome::Rejected))
        .count() as u64;
    assert!(
        rejected > 0,
        "the burst must overflow a depth-{queue_depth} queue"
    );
    assert_eq!(report.shed(), rejected);
    assert_eq!(report.timed_out(), 2);

    // Per shard: shed never enqueues, so admissions split exactly into
    // executions and expiries; aggregates are the per-shard sums.
    for s in &report.shards {
        assert_eq!(
            s.enqueued,
            s.executed + s.timed_out,
            "shard {}: enqueued must equal executed + timed_out",
            s.shard
        );
        assert!(s.max_queue_depth <= queue_depth as u64);
    }
    assert_eq!(
        report.enqueued(),
        report.shards.iter().map(|s| s.enqueued).sum::<u64>()
    );
    assert_eq!(report.executed() + report.timed_out(), report.enqueued());

    // And the live series agrees with the report, field for field.
    reconcile_samples(&collector.samples(), &report).expect("series must reconcile");
}

/// Cumulative counters in the sampled series never decrease, epoch ids
/// are strictly increasing per shard, and the terminal sample is a
/// quiescent snapshot (no batch, empty queue).
#[test]
fn sample_series_is_monotone_and_ends_quiescent() {
    let pairs: Vec<(u64, u64)> = (1..=2048u64).map(|k| (k, k + 1)).collect();
    let collector = SeriesCollector::new();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, 1024]).expect("valid shard starts"),
        sizing: 128,
        queue_depth: 1 << 14,
        hold_gate: true,
        observe: ObserveConfig::with_observer(collector.clone()),
        ..ServeConfig::test_small(2)
    };
    let svc = Service::new(&pairs, cfg);
    let client = svc.client();
    for i in 0..2048u32 {
        client.submit((i % 2048) + 1, OpKind::Query);
    }
    svc.release();
    let report = svc.shutdown();
    report.check().unwrap();
    reconcile_samples(&collector.samples(), &report).expect("series must reconcile");

    let samples = collector.samples();
    assert!(!samples.is_empty());
    for shard in 0..report.shards.len() {
        let series: Vec<_> = samples.iter().filter(|s| s.shard == shard).collect();
        assert!(!series.is_empty(), "shard {shard} must emit samples");
        for pair in series.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(b.epoch > a.epoch, "epoch ids must strictly increase");
            assert!(b.clock_cycles >= a.clock_cycles);
            assert!(b.enqueued >= a.enqueued, "cumulative counters never drop");
            assert!(b.shed >= a.shed);
            assert!(b.timed_out >= a.timed_out);
            assert!(b.completed >= a.completed);
            assert!(b.max_queue_depth >= a.max_queue_depth);
            assert!(b.latency.count >= a.latency.count);
        }
        let last = series.last().unwrap();
        assert!(
            last.terminal,
            "the series must end with the terminal sample"
        );
        assert_eq!(last.batch_size, 0);
        assert_eq!(last.queue_depth, 0);
        assert_eq!(last.reorder_pending, 0);
        // Terminal counters are exactly the shard report's totals.
        let sr = &report.shards[shard];
        assert_eq!(last.completed, sr.executed);
        assert_eq!(last.enqueued, sr.enqueued);
    }
}

/// A shard books one composite kernel name per epoch into its report's
/// stats. Over hundreds of small closed-loop epochs that name must stay
/// the set of kernels the shard ran — each listed once, a few dozen
/// bytes — not grow by one copy per epoch.
#[test]
fn shard_kernel_name_stays_bounded_over_many_epochs() {
    const WINDOWS: u32 = 320;
    let half = 1u32 << 31;
    let pairs: Vec<(u64, u64)> = (1..=256u64)
        .flat_map(|k| [(k, k), (half as u64 + k, k)])
        .collect();
    let svc = Service::new(&pairs, ServeConfig::test_small(2));
    let client = svc.client();
    for w in 0..WINDOWS {
        // Four requests per shard: queries, an upsert and a range, so
        // every epoch runs several kernels.
        let k = 1 + w % 200;
        let ops = [
            (k, OpKind::Query),
            (k + 1, OpKind::Upsert(w)),
            (k + 2, OpKind::Range { len: 4 }),
            (k + 40, OpKind::Query),
            (half + k, OpKind::Query),
            (half + k + 1, OpKind::Upsert(w)),
            (half + k + 2, OpKind::Range { len: 4 }),
            (half + k + 40, OpKind::Query),
        ];
        for ticket in client.submit_many(&ops) {
            assert!(matches!(ticket.wait(), Outcome::Done(_)));
        }
    }
    let report = svc.shutdown();
    report.check().unwrap();
    for s in &report.shards {
        assert!(
            s.epochs >= 300,
            "shard {}: closed-loop windows must book >= 300 epochs, got {}",
            s.shard,
            s.epochs
        );
        let name = &s.stats.name;
        let kernels: Vec<&str> = name.split('+').collect();
        for (i, k) in kernels.iter().enumerate() {
            assert!(!k.is_empty(), "shard {}: empty kernel in {name:?}", s.shard);
            assert!(
                !kernels[..i].contains(k),
                "shard {}: kernel {k:?} listed twice in a {}-byte name",
                s.shard,
                name.len()
            );
        }
        assert!(
            name.len() < 256,
            "shard {}: kernel name grew to {} bytes over {} epochs",
            s.shard,
            name.len(),
            s.epochs
        );
    }
}
