//! QoS monitor — the paper's QoS story (§8), live. Instead of comparing
//! batch-level response-time variance after the fact, this example wires
//! an [`eirene::serve::ServiceObserver`] into a running sharded service
//! and watches the per-shard epoch telemetry stream as it happens:
//!
//! 1. **steady state** — a well-provisioned two-shard service under a
//!    moderate stream; every epoch boundary emits a sample (batch size,
//!    queue depth, watermark lag, cumulative latency percentiles) and the
//!    SLO monitor stays quiet;
//! 2. **overload burst** — a deliberately tiny admission queue under
//!    `AdmitPolicy::Shed` takes a 4x-capacity burst aimed at one shard.
//!    Most of the burst is shed at admission, and the sliding-window
//!    shed-rate objective trips on the very first epoch, emitting
//!    structured breach events in real time.
//!
//! At the end, the sampled counter series is reconciled *exactly*
//! against the shutdown report — live telemetry and final accounting are
//! two views of the same atomics, not approximations of each other.
//!
//! ```text
//! cargo run --release --example qos_monitor
//! ```

use eirene::serve::{
    reconcile_samples, AdmitPolicy, ObserveConfig, Outcome, SeriesCollector, ServeConfig, Service,
    ServiceObserver, ShardMap, ShardSample, SloSpec,
};
use eirene::sim::DeviceConfig;
use eirene::workloads::OpKind;
use std::sync::Arc;

/// Forwards every sample into a [`SeriesCollector`] for post-hoc analysis
/// and additionally prints the breaches it carries the moment they happen.
struct LiveObserver {
    collector: Arc<SeriesCollector>,
}

impl ServiceObserver for LiveObserver {
    fn on_sample(&self, sample: &ShardSample) {
        for breach in &sample.breaches {
            println!("   !! {breach}");
        }
        self.collector.on_sample(sample);
    }
}

fn main() {
    steady_state();
    overload_burst();
}

/// A comfortably provisioned service: the sample stream shows the epoch
/// cadence, and a generous SLO never trips.
fn steady_state() {
    println!("== steady state: live per-shard epoch samples ==");
    let pairs: Vec<(u64, u64)> = (1..=4096u64).map(|k| (k, k + 1)).collect();
    let collector = SeriesCollector::new();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, 1 << 11]).expect("valid shard starts"),
        sizing: 256,
        queue_depth: 1 << 14,
        hold_gate: true,
        observe: ObserveConfig {
            slo: Some(SloSpec {
                // Far above anything this workload produces: quiet run.
                p99_max_cycles: Some(100_000_000),
                shed_rate_max: Some(0.05),
                window_epochs: 8,
            }),
            observer: Some(Arc::new(LiveObserver {
                collector: collector.clone(),
            })),
        },
        ..ServeConfig::test_small(2)
    };
    let svc = Service::new(&pairs, cfg);
    let client = svc.client();
    for i in 0..4096u32 {
        client.submit((i % 4096) + 1, OpKind::Query);
    }
    svc.release();
    let report = svc.shutdown();
    report.check().unwrap();

    let device = report.device.clone();
    println!("   shard  epoch  batch  queue    lag   keys  cum p99(us)");
    for s in collector.samples().iter().filter(|s| s.shard == 0) {
        println!(
            "   {:>5}  {:>5}  {:>5}  {:>5}  {:>5}  {:>5}  {:>11.1}{}",
            s.shard,
            s.epoch,
            s.batch_size,
            s.queue_depth,
            s.watermark_lag,
            s.key_count,
            device.cycles_to_secs(s.latency.p99 as f64) * 1e6,
            if s.terminal { "  (terminal)" } else { "" },
        );
    }
    reconcile_samples(&collector.samples(), &report).expect("sampled series must reconcile");
    println!(
        "   {} executed over {} epochs, {} lifecycle spans captured, \
         0 SLO breaches; series reconciles with the report\n",
        report.executed(),
        report.shards.iter().map(|s| s.epochs).sum::<u64>(),
        report.spans().len(),
    );
    assert!(
        collector.breaches().is_empty(),
        "steady run must not breach"
    );
}

/// A 4x-capacity burst into a depth-limited shedding queue: the
/// shed-rate objective trips immediately and breach events stream out.
fn overload_burst() {
    println!("== overload burst: live shed-rate breaches ==");
    let queue_depth = 64usize;
    let burst = 4 * queue_depth;
    let pairs: Vec<(u64, u64)> = (1..=512u64).map(|k| (k, k + 1)).collect();
    let collector = SeriesCollector::new();
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, 256]).expect("valid shard starts"),
        device: DeviceConfig::test_small(),
        queue_depth,
        policy: AdmitPolicy::Shed,
        hold_gate: true, // nothing drains during the burst: the queue must fill
        observe: ObserveConfig {
            slo: Some(SloSpec {
                p99_max_cycles: None,
                shed_rate_max: Some(0.05),
                window_epochs: 4,
            }),
            observer: Some(Arc::new(LiveObserver {
                collector: collector.clone(),
            })),
        },
        ..ServeConfig::test_small(2)
    };
    let svc = Service::new(&pairs, cfg);
    let client = svc.client();
    // Background traffic to shard 1 stays comfortably under its queue.
    for k in 0..32u32 {
        client.submit(256 + k, OpKind::Query);
    }
    // The burst aims every request at shard 0. With the gate held, at
    // most `queue_depth` are admitted; the rest shed at admission.
    let mut shed = 0;
    for k in 0..burst as u32 {
        if client.submit(k % 256, OpKind::Query).try_get() == Some(Outcome::Rejected) {
            shed += 1;
        }
    }
    svc.release();
    let report = svc.shutdown();
    report.check().unwrap();
    reconcile_samples(&collector.samples(), &report).expect("sampled series must reconcile");

    let breaches = collector.breaches();
    println!(
        "   burst of {burst} into a depth-{queue_depth} queue: {shed} shed at \
         admission, {} executed",
        report.executed(),
    );
    println!(
        "   {} shed-rate breach(es) on shard 0; worst window observed \
         {:.0}% against a 5% objective",
        breaches.len(),
        breaches.iter().map(|b| b.observed).fold(0.0f64, f64::max) * 100.0,
    );
    assert!(shed >= 3 * queue_depth, "gate held: burst must mostly shed");
    assert!(
        breaches.iter().any(|b| b.shard == 0),
        "the shed-rate objective must trip on the bursted shard"
    );
    assert!(
        breaches.iter().all(|b| b.shard == 0),
        "background traffic on shard 1 must stay within the SLO"
    );
    println!(
        "\nThe same counters drive both views: the live series the observer \
         streamed and the shutdown report reconcile field-for-field.\n"
    );
}
