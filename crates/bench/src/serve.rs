//! The `serve` subcommand: throughput/QoS sweep of the sharded serving
//! layer (`eirene-serve`) over shard count × offered load.
//!
//! ```text
//! cargo run -p eirene-bench --release -- serve              # defaults
//! cargo run -p eirene-bench --release -- serve --smoke
//! cargo run -p eirene-bench --release -- serve --shards 1,2,4 --requests 32768
//! cargo run -p eirene-bench --release -- serve --clients 8  # concurrent submitters
//! cargo run -p eirene-bench --release -- serve --smoke --monitor \
//!     --monitor-out monitor.json --spans spans.jsonl
//! ```
//!
//! Per cell the sweep reports aggregate throughput, end-to-end latency
//! quantiles (p50/p99/p99.9), admission outcomes (shed/timed-out), the
//! shard-count speedup against the single-shard closed-loop baseline, and
//! the wall-clock ingress rate of the submission phase (`--clients N`
//! threads racing batched `submit_many` chunks through the lock-free
//! front door). The workload is YCSB-C (point lookups) over a shard-aware
//! generator, with a configurable fraction of keys rewritten onto shard
//! boundaries.
//!
//! `--monitor` turns on the serving layer's live observability for every
//! cell: a per-shard console dashboard refreshes on stderr while the
//! service drains, SLO breaches (`--slo-p99-us`, `--slo-shed-rate`) print
//! as they fire, `--monitor-out` writes every cell's sampled series (and
//! breaches) as one JSON document, and `--spans` writes the last cell's
//! per-ticket lifecycle spans as JSON-lines. The monitored cells still
//! feed the normal sweep table; the dashboard is sampling the same
//! counters the final report is built from (the terminal sample
//! reconciles exactly — checked per cell).
//!
//! Exit status: 0 when every report is internally consistent (per-shard
//! telemetry rows sum to totals, trees validate, sampled series reconcile
//! when `--monitor` is on), 1 otherwise.

use eirene_serve::{
    reconcile_samples, spans_to_jsonl, AdmitPolicy, AimdSpec, EpochSizing, ObserveConfig,
    QosConfig, RebalanceEvent, RebalanceSpec, SeriesCollector, ServeConfig, ServeReport, Service,
    ServiceObserver, ShardMap, ShardSample, Sharding, SloBreach, SloSpec,
};
use eirene_sim::DeviceConfig;
use eirene_telemetry::JsonValue;
use eirene_workloads::{
    Distribution, Key, Mix, OpKind, ShardedGen, WorkloadGen, WorkloadSpec, Zipfian,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per `submit_many` call on a bench client thread.
const SUBMIT_CHUNK: usize = 256;

#[derive(Clone)]
struct ServeScale {
    shards: Vec<usize>,
    /// Offered loads for the open-loop cells, as fractions of the
    /// measured aggregate closed-loop capacity.
    loads: Vec<f64>,
    tree_exp: u32,
    requests: usize,
    batch_limit: usize,
    straddle: f64,
    /// Concurrent submitter threads per cell.
    clients: usize,
    seed: u64,
    device: DeviceConfig,
    /// Closed-loop AIMD epoch sizing instead of the fixed batch limit.
    adaptive: bool,
    /// AIMD bounds (`--min-batch` / `--max-batch`).
    min_batch: usize,
    max_batch: usize,
    /// AIMD latency brake: epoch p99 budget in microseconds.
    p99_budget_us: Option<f64>,
    /// QoS tenant lanes (0 or 1 disables; submitter threads rotate).
    tenants: usize,
    /// Per-tenant per-shard lane quota; 0 sizes it so nothing sheds.
    quota: usize,
    /// Isolation scenario: the abusive tenant offers this multiple of
    /// its admissible (quota × shards) load.
    hog_factor: usize,
    /// Zipfian skew for the key distribution (`None` = uniform).
    theta: Option<f64>,
    /// Run the hot-shard skew sweep (θ × sharding-mode matrix) instead of
    /// the load sweep.
    skew: bool,
    /// Skew points the sweep visits.
    thetas: Vec<f64>,
    /// Run the paper-scale flow instead of the sweep.
    paper: bool,
    /// Live observability: dashboard + series collection per cell.
    monitor: bool,
    /// Write every cell's sampled series to this JSON file.
    monitor_out: Option<String>,
    /// Write the last cell's lifecycle spans to this JSON-lines file.
    spans_out: Option<String>,
    /// SLO: windowed p99 completion latency budget, in microseconds.
    slo_p99_us: Option<f64>,
    /// SLO: windowed shed-rate budget (fraction of offered requests).
    slo_shed_rate: Option<f64>,
}

impl Default for ServeScale {
    fn default() -> Self {
        ServeScale {
            shards: vec![1, 2, 4, 8],
            loads: vec![0.5, 0.9],
            tree_exp: 18,
            requests: 1 << 16,
            batch_limit: 4096,
            straddle: 0.05,
            clients: 1,
            seed: 0x5E44E,
            device: DeviceConfig::default(),
            monitor: false,
            monitor_out: None,
            spans_out: None,
            slo_p99_us: None,
            slo_shed_rate: None,
            adaptive: false,
            min_batch: 256,
            max_batch: 1 << 14,
            p99_budget_us: None,
            tenants: 0,
            quota: 0,
            hog_factor: 10,
            theta: None,
            skew: false,
            thetas: vec![0.5, 0.8, 1.0, 1.2],
            paper: false,
        }
    }
}

impl ServeScale {
    fn smoke() -> Self {
        ServeScale {
            shards: vec![1, 4],
            loads: vec![0.8],
            tree_exp: 13,
            requests: 1 << 13,
            batch_limit: 512,
            max_batch: 512,
            min_batch: 32,
            device: DeviceConfig::test_small(),
            ..Default::default()
        }
    }

    /// The hot-shard skew sweep at paper scale: 2^20 keys, 8 shards,
    /// closed-loop streaming submission. Like `--smoke` / `--paper-scale`
    /// this resets the scale, so later flags can still shrink it for CI.
    fn skew_scale() -> Self {
        ServeScale {
            shards: vec![8],
            tree_exp: 20,
            requests: 1 << 18,
            batch_limit: 1024,
            clients: 4,
            device: DeviceConfig::test_small(),
            skew: true,
            ..Default::default()
        }
    }

    /// The paper-scale point: 2^20 keys, ~10^6 requests, 8 shards.
    /// `--paper-scale` resets the scale (like `--smoke`), so later flags
    /// can still shrink it for CI smoke runs.
    fn paper_scale() -> Self {
        ServeScale {
            shards: vec![8],
            loads: vec![0.9],
            tree_exp: 20,
            requests: 1 << 20,
            batch_limit: 4096,
            device: DeviceConfig::test_small(),
            paper: true,
            tenants: 4,
            ..Default::default()
        }
    }

    /// The epoch sizing the flags describe.
    fn sizing(&self) -> EpochSizing {
        if self.adaptive {
            let mut spec = AimdSpec::bounded(self.min_batch, self.max_batch);
            if let Some(us) = self.p99_budget_us {
                spec = spec.with_p99_budget((us * 1e-6 * self.device.clock_ghz * 1e9) as u64);
            }
            EpochSizing::Adaptive(spec)
        } else {
            EpochSizing::Fixed(self.batch_limit)
        }
    }

    /// The tenant table the flags describe; quota 0 auto-sizes so the
    /// sweep cells never shed on quota.
    fn qos(&self) -> QosConfig {
        if self.tenants > 1 {
            let quota = if self.quota > 0 {
                self.quota
            } else {
                self.requests + 1
            };
            QosConfig::uniform(self.tenants, quota)
        } else {
            QosConfig::disabled()
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: eirene-bench serve [--smoke] [--paper-scale] [--skew-sweep] [--shards a,b,c] \
         [--loads f,f] [--thetas a,b,c] \
         [--tree-exp N] [--requests N] [--batch-limit N] [--straddle F] [--clients N] [--seed N] \
         [--adaptive] [--min-batch N] [--max-batch N] [--p99-budget-us F] \
         [--tenants N] [--quota N] [--hog-factor N] [--theta F] \
         [--monitor] [--monitor-out FILE] [--spans FILE] [--slo-p99-us F] [--slo-shed-rate F]\n\
         note: --smoke / --paper-scale reset the scale, so pass them before other flags"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.unwrap_or_else(|| usage())
        .parse()
        .unwrap_or_else(|_| usage())
}

fn parse_list<T: std::str::FromStr>(v: Option<&String>) -> Vec<T> {
    v.unwrap_or_else(|| usage())
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .collect()
}

/// Shard map over the workload's key domain (not the full `u32` space), so
/// the generated keys actually spread across shards; the last shard still
/// runs to `u32::MAX`.
fn workload_map(shards: usize, key_domain: u64) -> ShardMap {
    let width = ((key_domain + 1) / shards as u64).max(1) as u32;
    ShardMap::from_starts((0..shards as u32).map(|i| i * width).collect())
        .expect("valid shard starts")
}

/// Observer for `--monitor`: accumulates the series and prints SLO
/// breaches to stderr the moment a shard's executor emits them.
struct MonitorObserver {
    collector: Arc<SeriesCollector>,
}

impl ServiceObserver for MonitorObserver {
    fn on_sample(&self, sample: &ShardSample) {
        self.collector.on_sample(sample);
    }

    fn on_breach(&self, breach: &SloBreach) {
        eprintln!("serve: {breach}");
        self.collector.on_breach(breach);
    }

    fn on_rebalance(&self, event: &RebalanceEvent) {
        eprintln!("serve: {event}");
        self.collector.on_rebalance(event);
    }
}

/// The SLO spec the `--slo-*` flags describe, if any.
fn slo_spec(scale: &ServeScale) -> Option<SloSpec> {
    if scale.slo_p99_us.is_none() && scale.slo_shed_rate.is_none() {
        return None;
    }
    Some(SloSpec {
        p99_max_cycles: scale
            .slo_p99_us
            .map(|us| (us * 1e-6 * scale.device.clock_ghz * 1e9) as u64),
        shed_rate_max: scale.slo_shed_rate,
        ..SloSpec::default()
    })
}

/// Renders one dashboard frame: a line per shard from its latest sample.
fn render_dashboard(label: &str, device: &DeviceConfig, collector: &SeriesCollector, secs: f64) {
    let latest = collector.latest_per_shard();
    if latest.is_empty() {
        return;
    }
    eprintln!(
        "monitor[{label}] t={secs:.1}s  {:>5} {:>6} {:>10} {:>6} {:>6} {:>5} {:>4} {:>8} {:>7} {:>4} {:>8} {:>7} {:>8} {:>5} {:>4} {:>8} {:>9} {:>9}  closed full/linger/idle/returned/drain",
        "shard", "epoch", "clock(us)", "batch", "queue", "pend", "lag", "keys", "nodes", "retd", "dsaved", "pvhit", "enq", "shed", "tmo", "done", "p50(us)", "p99(us)",
    );
    for s in &latest {
        eprintln!(
            "monitor[{label}] t={secs:.1}s  {:>5} {:>6} {:>10.1} {:>6} {:>6} {:>5} {:>4} {:>8} {:>7} {:>4} {:>8} {:>7} {:>8} {:>5} {:>4} {:>8} {:>9.1} {:>9.1}  {}/{}/{}/{}/{}",
            s.shard,
            s.epoch,
            cycles_to_us(device, s.clock_cycles),
            s.batch_size,
            s.queue_depth,
            s.reorder_pending,
            s.watermark_lag,
            s.key_count,
            s.arena_live,
            s.arena_retired,
            s.descents_saved,
            s.pivot_cache_hits,
            s.enqueued,
            s.shed,
            s.timed_out,
            s.completed,
            cycles_to_us(device, s.latency.p50),
            cycles_to_us(device, s.latency.p99),
            s.closed.full,
            s.closed.linger,
            s.closed.idle,
            s.closed.returned,
            s.closed.drain,
        );
    }
    // Topology summary: events already printed as they fired; the frame
    // just carries the running total and the latest move.
    let rebalances = collector.rebalances();
    if let Some(last) = rebalances.last() {
        eprintln!(
            "monitor[{label}] t={secs:.1}s  {} topology change(s), latest: {last}",
            rebalances.len()
        );
    }
}

/// Result of one monitored cell: the live series plus any breaches, ready
/// for the `--monitor-out` export.
struct CellSeries {
    collector: Arc<SeriesCollector>,
}

/// Runs one cell: `scale.clients` submitter threads push contiguous
/// slices of `requests` YCSB-C lookups through batched `submit_many`
/// chunks (gate held so epoch composition is load-independent), then the
/// gate releases and the service drains. `rate` (requests/second) spaces
/// virtual arrivals by *global* request index for the open-loop cells;
/// `None` is the closed-loop capacity measurement. Returns the report,
/// the wall-clock seconds the submission phase took, and — when
/// `--monitor` is on — the collected live series.
fn run_cell(
    scale: &ServeScale,
    shards: usize,
    rate: Option<f64>,
    label: &str,
) -> (ServeReport, f64, Option<CellSeries>) {
    let spec = WorkloadSpec {
        tree_size: 1usize << scale.tree_exp,
        batch_size: scale.batch_limit,
        mix: Mix::ycsb_c(),
        distribution: match scale.theta {
            Some(theta) => Distribution::Zipfian { theta },
            None => Distribution::Uniform,
        },
        seed: scale.seed,
    };
    let map = workload_map(shards, spec.key_domain());
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .into_iter()
        .map(|(k, v)| (k as u64, v as u64))
        .collect();
    let collector = scale.monitor.then(SeriesCollector::new);
    let observe = match &collector {
        Some(coll) => ObserveConfig {
            slo: slo_spec(scale),
            observer: Some(Arc::new(MonitorObserver {
                collector: coll.clone(),
            })),
            ..ObserveConfig::live()
        },
        None => ObserveConfig::default(),
    };
    let cfg = ServeConfig {
        map: map.clone(),
        device: scale.device.clone(),
        sizing: scale.sizing(),
        qos: scale.qos(),
        // Everything fits queued while the gate is held.
        queue_depth: scale.requests + 1,
        policy: AdmitPolicy::Block,
        linger: Duration::ZERO,
        hold_gate: true,
        headroom_nodes: 1 << 14,
        observe,
        ..ServeConfig::default()
    };
    let svc = Service::new(&pairs, cfg);
    // A single-shard map has no interior boundaries to straddle; fall back
    // to the plain generator there.
    let boundaries = map.boundaries();
    let reqs = if boundaries.is_empty() {
        WorkloadGen::new(spec).next_requests(scale.requests)
    } else {
        ShardedGen::new(spec, boundaries, scale.straddle).next_requests(scale.requests)
    };
    let cycles_per_req = rate.map(|r| scale.device.clock_ghz * 1e9 / r);
    let clients = scale.clients.max(1);
    let per_client = reqs.len().div_ceil(clients).max(1);
    let ingress_start = Instant::now();
    std::thread::scope(|scope| {
        for (t, slice) in reqs.chunks(per_client).enumerate() {
            // With tenant lanes on, submitter threads rotate across the
            // tenant table so every lane sees traffic.
            let client = if scale.tenants > 1 {
                svc.client().for_tenant(t % scale.tenants)
            } else {
                svc.client()
            };
            let base = t * per_client;
            scope.spawn(move || match cycles_per_req {
                Some(cpr) => {
                    let mut chunk = Vec::with_capacity(SUBMIT_CHUNK);
                    for (off, sub) in slice.chunks(SUBMIT_CHUNK).enumerate() {
                        chunk.clear();
                        chunk.extend(sub.iter().enumerate().map(|(j, r)| {
                            let i = base + off * SUBMIT_CHUNK + j;
                            (r.key, r.op, (i as f64 * cpr) as u64)
                        }));
                        let _ = client.submit_many_at(&chunk);
                    }
                }
                None => {
                    let mut chunk = Vec::with_capacity(SUBMIT_CHUNK);
                    for sub in slice.chunks(SUBMIT_CHUNK) {
                        chunk.clear();
                        chunk.extend(sub.iter().map(|r| (r.key, r.op)));
                        let _ = client.submit_many(&chunk);
                    }
                }
            });
        }
    });
    let ingress_secs = ingress_start.elapsed().as_secs_f64();
    svc.release();
    // Dashboard: refresh per-shard lines on stderr while the service
    // drains, from the same live samples the series export collects.
    let dashboard = collector.as_ref().map(|coll| {
        let stop = Arc::new(AtomicBool::new(false));
        let (stop2, coll2) = (stop.clone(), coll.clone());
        let (label2, device2) = (label.to_string(), scale.device.clone());
        let started = Instant::now();
        let handle = std::thread::spawn(move || loop {
            for _ in 0..25 {
                if stop2.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            render_dashboard(&label2, &device2, &coll2, started.elapsed().as_secs_f64());
        });
        (stop, handle, started)
    });
    let report = svc.shutdown();
    let series = collector.map(|collector| {
        if let Some((stop, handle, started)) = dashboard {
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("dashboard thread");
            // One final frame so short runs still show the drained state.
            render_dashboard(
                label,
                &scale.device,
                &collector,
                started.elapsed().as_secs_f64(),
            );
        }
        CellSeries { collector }
    });
    (report, ingress_secs, series)
}

fn cycles_to_us(device: &DeviceConfig, cycles: u64) -> f64 {
    device.cycles_to_secs(cycles as f64) * 1e6
}

fn print_row(
    device: &DeviceConfig,
    shards: usize,
    mode: &str,
    report: &ServeReport,
    base: f64,
    ingress_secs: f64,
) {
    let lat = report.latency();
    let tput = report.throughput();
    let submitted = report.enqueued() + report.shed();
    let ingress = if ingress_secs > 0.0 {
        submitted as f64 / ingress_secs / 1e6
    } else {
        0.0
    };
    println!(
        "{shards:>6}  {mode:<12} {:>10.2}  {:>7.2}x  {:>9.1}  {:>9.1}  {:>9.1}  {:>5}  {:>7}  {:>6}  {:>11.2}",
        tput / 1e6,
        if base > 0.0 { tput / base } else { 0.0 },
        cycles_to_us(device, lat.p50()),
        cycles_to_us(device, lat.p99()),
        cycles_to_us(device, lat.p999()),
        report.shed(),
        report.timed_out(),
        report.shards.iter().map(|s| s.epochs).sum::<u64>(),
        ingress,
    );
}

fn check_report(report: &ServeReport, label: &str) -> bool {
    let mut ok = true;
    if !report.phase_rows_sum_to_totals() {
        eprintln!("serve: {label}: telemetry phase rows do not sum to totals");
        ok = false;
    }
    if let Err(e) = report.structure() {
        eprintln!("serve: {label}: structure validation failed: {e}");
        ok = false;
    }
    ok
}

/// Per-tenant outcome table for QoS cells: executed, shed, p50/p99.
fn print_tenant_table(device: &DeviceConfig, report: &ServeReport) {
    for t in 0..report.num_tenants() {
        let lat = report.tenant_latency(t);
        println!(
            "        tenant {t}: {:>8} done  {:>6} shed  p50 {:>8.1}us  p99 {:>8.1}us",
            lat.count(),
            report.tenant_shed(t),
            cycles_to_us(device, lat.p50()),
            cycles_to_us(device, lat.p99()),
        );
    }
}

/// What the paper flow's checks read off one measured cell.
struct PaperCell {
    tput: f64,
    p99_us: f64,
}

/// Runs one paper cell (a tweaked clone of the base scale), prints its
/// row and returns the figures the checks compare plus whether the
/// report was internally consistent.
fn paper_cell(
    base: &ServeScale,
    shards: usize,
    rate: Option<f64>,
    theta: Option<f64>,
    sizing: &str,
    tweak: impl FnOnce(&mut ServeScale),
) -> (PaperCell, bool) {
    let mut s = base.clone();
    s.theta = theta;
    s.tenants = 0;
    s.monitor = false;
    tweak(&mut s);
    let loop_mode = if rate.is_some() { "open" } else { "closed" };
    let theta_label = match theta {
        Some(t) => format!("zipf-{t:.2}"),
        None => "uniform".to_string(),
    };
    let label = format!("{theta_label} {loop_mode} {sizing}");
    let (report, _ingress, _series) = run_cell(&s, shards, rate, &label);
    let ok = check_report(&report, &label);
    let lat = report.latency();
    let cell = PaperCell {
        tput: report.throughput(),
        p99_us: cycles_to_us(&s.device, lat.p99()),
    };
    println!(
        "paper  {:<28} {:>10.2} M/s  p50 {:>9.1}us  p99 {:>9.1}us  p99.9 {:>9.1}us  targets {:?}",
        label,
        cell.tput / 1e6,
        cycles_to_us(&s.device, lat.p50()),
        cell.p99_us,
        cycles_to_us(&s.device, lat.p999()),
        report
            .shards
            .iter()
            .map(|sh| sh.batch_target)
            .collect::<Vec<_>>(),
    );
    (cell, ok)
}

/// How much a hog may inflate a well-behaved tenant's p99 before the
/// isolation scenario fails. The hog's *admitted* share is bounded by
/// its quota (≈ 1.25× one tenant's load), so fair WRR draining keeps the
/// slowdown well under this.
const ISOLATION_BOUND: f64 = 3.0;

/// Tenant-isolation scenario: `tenants - 1` well-behaved tenants submit
/// equal closed-loop loads; the hog (tenant 0) additionally offers
/// `hog_factor ×` its admissible load in the second run. Lanes must shed
/// the hog at its quota and hold the well-behaved p99 within
/// [`ISOLATION_BOUND`] of the solo run; returns whether they did.
fn run_isolation(scale: &ServeScale, shards: usize) -> bool {
    let tenants = scale.tenants.max(2);
    let per_tenant = (scale.requests / tenants).max(1);
    // Headroom above the expected per-shard share so well-behaved
    // tenants never shed on quota; the hog's admissible total is then
    // quota × shards ≈ 1.25 × one tenant's load.
    let quota = if scale.quota > 0 {
        scale.quota
    } else {
        let share = per_tenant / shards.max(1);
        share + share / 4 + 64
    };
    let spec = WorkloadSpec {
        tree_size: 1usize << scale.tree_exp,
        batch_size: scale.batch_limit,
        mix: Mix::ycsb_c(),
        distribution: Distribution::Uniform,
        seed: scale.seed,
    };
    let map = workload_map(shards, spec.key_domain());
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .into_iter()
        .map(|(k, v)| (k as u64, v as u64))
        .collect();
    let hog_load = scale.hog_factor.max(1) * quota * shards;
    let run = |hog: bool| -> ServeReport {
        let cfg = ServeConfig {
            map: map.clone(),
            device: scale.device.clone(),
            sizing: scale.sizing(),
            qos: QosConfig::uniform(tenants, quota),
            queue_depth: scale.requests + hog_load + 16,
            policy: AdmitPolicy::Block,
            linger: Duration::ZERO,
            hold_gate: true,
            headroom_nodes: 1 << 14,
            ..ServeConfig::default()
        };
        let svc = Service::new(&pairs, cfg);
        std::thread::scope(|scope| {
            for t in 1..tenants {
                let client = svc.client().for_tenant(t);
                let spec = spec.for_client(t as u64);
                scope.spawn(move || {
                    let reqs = WorkloadGen::new(spec).next_requests(per_tenant);
                    let mut chunk = Vec::with_capacity(SUBMIT_CHUNK);
                    for sub in reqs.chunks(SUBMIT_CHUNK) {
                        chunk.clear();
                        chunk.extend(sub.iter().map(|r| (r.key, r.op)));
                        let _ = client.submit_many(&chunk);
                    }
                });
            }
            if hog {
                let client = svc.client().for_tenant(0);
                let spec = spec.for_client(0xB16_B07);
                scope.spawn(move || {
                    let reqs = WorkloadGen::new(spec).next_requests(hog_load);
                    let mut chunk = Vec::with_capacity(SUBMIT_CHUNK);
                    for sub in reqs.chunks(SUBMIT_CHUNK) {
                        chunk.clear();
                        chunk.extend(sub.iter().map(|r| (r.key, r.op)));
                        let _ = client.submit_many(&chunk);
                    }
                });
            }
        });
        svc.release();
        svc.shutdown()
    };
    let solo = run(false);
    let hogged = run(true);
    let solo_p99_us = cycles_to_us(&scale.device, solo.tenant_latency(1).p99());
    let hog_p99_us = cycles_to_us(&scale.device, hogged.tenant_latency(1).p99());
    let ratio = if solo_p99_us > 0.0 {
        hog_p99_us / solo_p99_us
    } else {
        f64::INFINITY
    };
    let hog_shed = hogged.tenant_shed(0);
    let mut ok = true;
    if hog_shed == 0 {
        eprintln!("serve: isolation: hog was never shed — quota not enforced");
        ok = false;
    }
    for t in 1..tenants {
        let shed = solo.tenant_shed(t) + hogged.tenant_shed(t);
        if shed != 0 {
            eprintln!("serve: isolation: well-behaved tenant {t} shed {shed} requests");
            ok = false;
        }
    }
    if ratio > ISOLATION_BOUND {
        eprintln!(
            "serve: isolation: hog moved well-behaved p99 by {ratio:.2}x \
             (bound {ISOLATION_BOUND:.1}x)"
        );
        ok = false;
    }
    println!(
        "paper  isolation ({tenants} tenants, quota {quota}, hog {}x): \
         solo p99 {solo_p99_us:.1}us, hogged p99 {hog_p99_us:.1}us ({ratio:.2}x, bound \
         {ISOLATION_BOUND:.1}x), hog shed {hog_shed}",
        scale.hog_factor
    );
    ok
}

/// One sharding mode of the skew sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SkewMode {
    /// Fixed key-range shards (the hot-shard baseline).
    Static,
    /// Key-range shards with the online rebalancer enabled.
    Rebalanced,
    /// Hash-scatter shards (fixed topology, skew-immune by construction).
    Hash,
}

impl SkewMode {
    const ALL: [SkewMode; 3] = [SkewMode::Static, SkewMode::Rebalanced, SkewMode::Hash];

    fn label(self) -> &'static str {
        match self {
            SkewMode::Static => "static-range",
            SkewMode::Rebalanced => "rebalanced-range",
            SkewMode::Hash => "hash",
        }
    }
}

/// SplitMix64 step for the skew stream.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A clustered-Zipf request stream: rank `r` maps *monotonically* to key
/// `r + 1`, so the hot mass is one contiguous band at the bottom of the
/// key domain. This is the adversarial case for range sharding — the
/// whole band lands on one shard — where the default generator's
/// rank-scattering golden-ratio multiply would spread it out and hide the
/// hot shard entirely. Mix: 70% query, 25% upsert, 5% short ranges.
fn clustered_zipf_stream(
    tree_size: usize,
    theta: f64,
    count: usize,
    seed: u64,
) -> Vec<(Key, OpKind)> {
    let domain = 2 * tree_size as u64;
    let zipf = Zipfian::new(domain, theta);
    let mut state = seed;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        state = mix64(state);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let key = (zipf.rank(u) + 1) as Key;
        state = mix64(state);
        let op = match state % 100 {
            0..=69 => OpKind::Query,
            70..=94 => OpKind::Upsert((state >> 32) as u32),
            _ => OpKind::Range {
                len: 64 + ((state >> 32) % 128) as u32,
            },
        };
        out.push((key, op));
    }
    out
}

/// One measured skew cell.
struct SkewCell {
    theta: f64,
    mode: SkewMode,
    tput: f64,
    p50_us: f64,
    p99_us: f64,
    shed: u64,
    timed_out: u64,
    epochs: u64,
    events: Vec<RebalanceEvent>,
}

/// The skew sweep's bounded per-shard ingress queue: small enough that a
/// hot shard's backlog is a real signal (and Block submitters feel
/// backpressure), large enough to keep the pipeline fed.
const SKEW_QUEUE_DEPTH: usize = 8192;

/// Caps the rebalanced mode's topology-convergence loop.
const SKEW_CONVERGE_PASSES: u64 = 6;

/// The policy the sweep hands the rebalancer: act after 2 qualifying
/// rounds with a short cooldown (the runs are seconds, not hours), a
/// longer warmup so the saturated shard's slow first epochs get to
/// report before anything fires, and a noise floor of half an epoch's
/// worth of load so lightly-loaded shards can never look hot.
fn skew_rebalance_spec(batch_limit: usize) -> RebalanceSpec {
    RebalanceSpec {
        sustain_epochs: 2,
        cooldown_epochs: 1,
        warmup_rounds: 8,
        min_depth: (batch_limit as u64 / 2).max(64),
        ..RebalanceSpec::default()
    }
}

/// Runs one skew cell: `clients` submitter threads stream the clustered
/// stream through batched `submit_many` with the gate open (a closed loop
/// with backpressure — no held-gate preload, so the rebalancer samples
/// live traffic).
///
/// The rebalanced mode measures *steady state*: convergence passes replay
/// the stream until a pass publishes no topology change (the online
/// rebalancer chases the hot band by repeated median splits, which takes
/// several publications), then the measured pass starts from the
/// converged map — with the rebalancer still running. Static and hash
/// cells are a single measured pass; their topology never moves.
fn run_skew_cell(scale: &ServeScale, shards: usize, mode: SkewMode, theta: f64) -> SkewCell {
    let tree_size = 1usize << scale.tree_exp;
    let spec = WorkloadSpec {
        tree_size,
        batch_size: scale.batch_limit,
        mix: Mix::ycsb_c(),
        distribution: Distribution::Uniform,
        seed: scale.seed,
    };
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .into_iter()
        .map(|(k, v)| (k as u64, v as u64))
        .collect();
    let cell_cfg = |map: ShardMap| ServeConfig {
        map,
        sharding: if mode == SkewMode::Hash {
            Sharding::Hash
        } else {
            Sharding::Range
        },
        rebalance: (mode == SkewMode::Rebalanced).then(|| skew_rebalance_spec(scale.batch_limit)),
        device: scale.device.clone(),
        sizing: EpochSizing::Fixed(scale.batch_limit),
        queue_depth: SKEW_QUEUE_DEPTH.min(scale.requests + 1),
        policy: AdmitPolicy::Block,
        linger: Duration::ZERO,
        hold_gate: false,
        headroom_nodes: 1 << 14,
        ..ServeConfig::default()
    };
    let stream = |seed: u64| clustered_zipf_stream(tree_size, theta, scale.requests, seed);
    let submit_all = |svc: &Service, reqs: &[(Key, OpKind)]| {
        let clients = scale.clients.max(1);
        let per_client = reqs.len().div_ceil(clients).max(1);
        std::thread::scope(|scope| {
            for slice in reqs.chunks(per_client) {
                let client = svc.client();
                scope.spawn(move || {
                    for sub in slice.chunks(SUBMIT_CHUNK) {
                        let _ = client.submit_many(sub);
                    }
                });
            }
        });
    };
    let base_seed = scale.seed ^ (theta * 1e3) as u64;
    let mut map = workload_map(shards, spec.key_domain());
    let mut events: Vec<RebalanceEvent> = Vec::new();
    if mode == SkewMode::Rebalanced {
        for pass in 0..SKEW_CONVERGE_PASSES {
            let svc = Service::new(&pairs, cell_cfg(map.clone()));
            submit_all(&svc, &stream(mix64(base_seed ^ pass)));
            let report = svc.shutdown();
            if report.rebalances.is_empty() && pass > 0 {
                // The topology stopped moving: converged. Pass 0 never
                // breaks — a single quiet pass can be the startup race
                // (the hot shard's samples arriving too late to act on),
                // not convergence.
                break;
            }
            // Replay the published boundary moves onto the map the next
            // pass (and ultimately the measured pass) starts from.
            for ev in &report.rebalances {
                map = map
                    .with_boundary(ev.boundary, ev.new_start)
                    .expect("published boundary moves are valid");
            }
            events.extend(report.rebalances.iter().cloned());
        }
    }
    let svc = Service::new(&pairs, cell_cfg(map));
    submit_all(&svc, &stream(base_seed));
    let report = svc.shutdown();
    events.extend(report.rebalances.iter().cloned());
    let lat = report.latency();
    SkewCell {
        theta,
        mode,
        tput: report.throughput(),
        p50_us: cycles_to_us(&scale.device, lat.p50()),
        p99_us: cycles_to_us(&scale.device, lat.p99()),
        shed: report.shed(),
        timed_out: report.timed_out(),
        epochs: report.shards.iter().map(|s| s.epochs).sum(),
        events,
    }
}

/// Smallest tree (as a power of two) whose cells run enough epochs for
/// the rebalancing policy to converge.
const CONVERGED_TREE_EXP: u32 = 20;

/// Reports a claim that presumes a converged rebalancing policy: printed
/// whenever it does not hold, a failure only where `enforced`. Returns
/// whether the sweep may still pass.
fn convergence_claim(enforced: bool, held: bool, what: &str) -> bool {
    if held {
        return true;
    }
    if enforced {
        eprintln!("serve: skew check failed: {what}");
    } else {
        eprintln!(
            "serve: skew: {what} did not hold; only enforced at tree >= 2^{CONVERGED_TREE_EXP}"
        );
    }
    !enforced
}

/// The skew sweep: θ × sharding-mode matrix of closed-loop throughput
/// under the clustered-Zipf stream, with the hot-shard checks the sweep
/// exists to guard. Rebalancing must beat the static hot shard at the
/// heaviest skew at every scale. The two claims that presume the policy
/// converged — the rebalancer moves a boundary at every θ ≥ 1.0, and the
/// better of rebalanced/hash reaches 2× static at θ = 1.0 — are printed
/// at every scale but fail the run only at paper scale (tree ≥ 2^20):
/// whether a reduced tree's few epochs let the rebalancer act is a
/// wall-clock race between it and the submitters.
fn run_skew(scale: &ServeScale) -> i32 {
    let shards = scale.shards.first().copied().unwrap_or(8);
    eprintln!(
        "serve: skew sweep — tree 2^{}, {} requests/cell, {} shards, batch {}, \
         {} client(s), thetas {:?}",
        scale.tree_exp,
        scale.requests,
        shards,
        scale.batch_limit,
        scale.clients.max(1),
        scale.thetas,
    );
    println!(
        "{:>6}  {:<17} {:>10}  {:>10}  {:>9}  {:>9}  {:>6}  {:>6}  {:>6}",
        "theta", "mode", "tput(M/s)", "vs static", "p50(us)", "p99(us)", "epochs", "moves", "keys"
    );
    let policy_can_converge = scale.tree_exp >= CONVERGED_TREE_EXP;
    let mut cells: Vec<SkewCell> = Vec::new();
    let mut all_ok = true;
    for &theta in &scale.thetas {
        let mut static_tput = 0.0f64;
        for mode in SkewMode::ALL {
            let cell = run_skew_cell(scale, shards, mode, theta);
            if mode == SkewMode::Static {
                static_tput = cell.tput;
            }
            if cell.shed != 0 || cell.timed_out != 0 {
                eprintln!(
                    "serve: skew θ={theta} {}: unexpected shed={} timed_out={}",
                    mode.label(),
                    cell.shed,
                    cell.timed_out
                );
                all_ok = false;
            }
            if mode == SkewMode::Rebalanced && theta >= 1.0 {
                all_ok &= convergence_claim(
                    policy_can_converge,
                    !cell.events.is_empty(),
                    &format!("rebalancer_moved_a_boundary_at_theta_{theta}"),
                );
            }
            println!(
                "{theta:>6.2}  {:<17} {:>10.2}  {:>9.2}x  {:>9.1}  {:>9.1}  {:>6}  {:>6}  {:>6}",
                mode.label(),
                cell.tput / 1e6,
                if static_tput > 0.0 {
                    cell.tput / static_tput
                } else {
                    0.0
                },
                cell.p50_us,
                cell.p99_us,
                cell.epochs,
                cell.events.len(),
                cell.events.iter().map(|e| e.moved_keys).sum::<u64>(),
            );
            cells.push(cell);
        }
    }
    let tput_of = |theta: f64, mode: SkewMode| {
        cells
            .iter()
            .find(|c| c.theta == theta && c.mode == mode)
            .map(|c| c.tput)
            .unwrap_or(0.0)
    };
    // Heaviest swept skew: a moving topology must beat the frozen one.
    if let Some(&max_theta) = scale
        .thetas
        .iter()
        .max_by(|a, b| a.partial_cmp(b).expect("finite theta"))
    {
        if tput_of(max_theta, SkewMode::Rebalanced) <= tput_of(max_theta, SkewMode::Static) {
            eprintln!("serve: skew check failed: rebalanced_beats_static_at_theta_{max_theta}");
            all_ok = false;
        }
    }
    // Paper-scale claim: at θ = 1.0 the better skew-resilient mode
    // reaches 2× the static hot shard.
    if scale.thetas.contains(&1.0) {
        let best = tput_of(1.0, SkewMode::Rebalanced).max(tput_of(1.0, SkewMode::Hash));
        all_ok &= convergence_claim(
            policy_can_converge,
            best >= 2.0 * tput_of(1.0, SkewMode::Static),
            "skew_resilient_2x_static_at_theta_1.0",
        );
    }
    if all_ok {
        eprintln!("serve: skew sweep passed every check");
        0
    } else {
        1
    }
}

/// Fixed batch limits the paper flow sweeps against the controller.
const PAPER_FIXED: [usize; 3] = [1024, 4096, 1 << 14];

/// The paper-scale flow: per key distribution (uniform and the paper's
/// hardest skew point θ = 1.0) a closed-loop fixed-batch sweep plus the
/// adaptive controller, an open-loop p99 comparison at 90% of the best
/// fixed capacity under skew, and the tenant-isolation scenario. Exits
/// non-zero unless the controller stays within 5% of the best fixed
/// limit's throughput, its open-loop p99 is no worse than the
/// throughput-best fixed limit's, and the hog stays inside
/// [`ISOLATION_BOUND`].
fn run_paper(scale: &ServeScale) -> i32 {
    let shards = scale.shards.first().copied().unwrap_or(8);
    eprintln!(
        "serve: paper flow — tree 2^{}, {} requests/cell, {} shards, adaptive [{}, {}]",
        scale.tree_exp, scale.requests, shards, scale.min_batch, scale.max_batch
    );
    let mut all_ok = true;
    for theta in [None, Some(1.0)] {
        // Closed-loop capacity: fixed sweep, then the controller.
        let mut best_fixed_tput = 0.0f64;
        let mut best_fixed_batch = PAPER_FIXED[0];
        for batch in PAPER_FIXED {
            let (cell, ok) =
                paper_cell(scale, shards, None, theta, &format!("fixed-{batch}"), |s| {
                    s.adaptive = false;
                    s.batch_limit = batch;
                });
            all_ok &= ok;
            if cell.tput > best_fixed_tput {
                best_fixed_tput = cell.tput;
                best_fixed_batch = batch;
            }
        }
        let (adaptive_closed, ok) = paper_cell(scale, shards, None, theta, "adaptive", |s| {
            s.adaptive = true;
            s.p99_budget_us = None;
        });
        all_ok &= ok;
        if adaptive_closed.tput < 0.95 * best_fixed_tput {
            eprintln!(
                "serve: paper: adaptive closed-loop tput {:.2} M/s fell below 95% of the best \
                 fixed ({:.2} M/s at batch {best_fixed_batch})",
                adaptive_closed.tput / 1e6,
                best_fixed_tput / 1e6
            );
            all_ok = false;
        }
        // Open-loop QoS comparison at the skew point: p99 under 90% of
        // the best fixed capacity, fixed sweep vs the latency-braked
        // controller.
        if theta == Some(1.0) {
            let rate = 0.9 * best_fixed_tput;
            let mut best_tput_fixed_open_p99 = f64::INFINITY;
            let mut min_fixed_open_p99 = f64::INFINITY;
            for batch in PAPER_FIXED {
                let (cell, ok) = paper_cell(
                    scale,
                    shards,
                    Some(rate),
                    theta,
                    &format!("fixed-{batch}"),
                    |s| {
                        s.adaptive = false;
                        s.batch_limit = batch;
                    },
                );
                all_ok &= ok;
                if batch == best_fixed_batch {
                    best_tput_fixed_open_p99 = cell.p99_us;
                }
                min_fixed_open_p99 = min_fixed_open_p99.min(cell.p99_us);
            }
            // The controller's latency brake targets the best p99 any
            // fixed limit achieved at this load.
            let budget_us = scale.p99_budget_us.unwrap_or(min_fixed_open_p99);
            let (adaptive_open, ok) =
                paper_cell(scale, shards, Some(rate), theta, "adaptive", |s| {
                    s.adaptive = true;
                    s.p99_budget_us = Some(budget_us);
                });
            all_ok &= ok;
            if adaptive_open.p99_us > best_tput_fixed_open_p99 {
                eprintln!(
                    "serve: paper: adaptive open-loop p99 {:.1}us did not improve on the \
                     throughput-best fixed limit's {:.1}us",
                    adaptive_open.p99_us, best_tput_fixed_open_p99
                );
                all_ok = false;
            }
        }
    }
    all_ok &= run_isolation(scale, shards);
    if all_ok {
        eprintln!("serve: paper flow passed every check");
        0
    } else {
        1
    }
}

/// Parses `serve` arguments and runs the sweep; returns the process exit
/// code.
pub fn run(args: &[String]) -> i32 {
    let mut scale = ServeScale::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => scale = ServeScale::smoke(),
            "--paper-scale" => scale = ServeScale::paper_scale(),
            "--skew-sweep" => scale = ServeScale::skew_scale(),
            "--thetas" => scale.thetas = parse_list(it.next()),
            "--shards" => scale.shards = parse_list(it.next()),
            "--loads" => scale.loads = parse_list(it.next()),
            "--tree-exp" => scale.tree_exp = parse_num(it.next()),
            "--requests" => scale.requests = parse_num(it.next()),
            "--batch-limit" => scale.batch_limit = parse_num(it.next()),
            "--straddle" => scale.straddle = parse_num(it.next()),
            "--clients" => scale.clients = parse_num(it.next()),
            "--seed" => scale.seed = parse_num(it.next()),
            "--adaptive" => scale.adaptive = true,
            "--min-batch" => scale.min_batch = parse_num(it.next()),
            "--max-batch" => scale.max_batch = parse_num(it.next()),
            "--p99-budget-us" => {
                scale.adaptive = true;
                scale.p99_budget_us = Some(parse_num(it.next()));
            }
            "--tenants" => scale.tenants = parse_num(it.next()),
            "--quota" => scale.quota = parse_num(it.next()),
            "--hog-factor" => scale.hog_factor = parse_num(it.next()),
            "--theta" => scale.theta = Some(parse_num(it.next())),
            "--monitor" => scale.monitor = true,
            "--monitor-out" => {
                scale.monitor = true;
                scale.monitor_out = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--spans" => {
                scale.monitor = true;
                scale.spans_out = Some(it.next().unwrap_or_else(|| usage()).clone());
            }
            "--slo-p99-us" => {
                scale.monitor = true;
                scale.slo_p99_us = Some(parse_num(it.next()));
            }
            "--slo-shed-rate" => {
                scale.monitor = true;
                scale.slo_shed_rate = Some(parse_num(it.next()));
            }
            _ => usage(),
        }
    }
    if scale.shards.is_empty() {
        usage();
    }
    if scale.skew {
        return run_skew(&scale);
    }
    if scale.paper {
        return run_paper(&scale);
    }
    eprintln!(
        "serve: YCSB-C, tree 2^{}, {} requests/cell, epoch limit {}, straddle {:.2}, \
         {} client(s), shards {:?}",
        scale.tree_exp,
        scale.requests,
        scale.batch_limit,
        scale.straddle,
        scale.clients.max(1),
        scale.shards
    );
    println!(
        "{:>6}  {:<12} {:>10}  {:>8}  {:>9}  {:>9}  {:>9}  {:>5}  {:>7}  {:>6}  {:>11}",
        "shards",
        "mode",
        "tput(M/s)",
        "speedup",
        "p50(us)",
        "p99(us)",
        "p99.9(us)",
        "shed",
        "timeout",
        "epochs",
        "ingr(M/s)"
    );
    let mut all_ok = true;
    let mut baseline = 0.0f64;
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    let mut cell_docs: Vec<JsonValue> = Vec::new();
    let mut last_spans: Vec<eirene_serve::LifecycleSpan> = Vec::new();
    // Folds one monitored cell into the export state and cross-checks the
    // live series against the cell's final report.
    let absorb_cell = |label: &str,
                       shards: usize,
                       report: &ServeReport,
                       series: Option<CellSeries>,
                       cell_docs: &mut Vec<JsonValue>,
                       last_spans: &mut Vec<eirene_serve::LifecycleSpan>|
     -> bool {
        let Some(series) = series else { return true };
        let samples = series.collector.samples();
        let mut ok = true;
        if let Err(e) = reconcile_samples(&samples, report) {
            eprintln!("serve: {label}: live series does not reconcile with report: {e}");
            ok = false;
        }
        cell_docs.push(JsonValue::obj(vec![
            ("label", JsonValue::from(label)),
            ("shards", JsonValue::from(shards)),
            ("series", series.collector.to_json()),
        ]));
        *last_spans = report.spans();
        ok
    };
    for &shards in &scale.shards {
        let label = format!("{shards} shards closed");
        let (closed, ingress, series) = run_cell(&scale, shards, None, &label);
        all_ok &= check_report(&closed, &label);
        all_ok &= absorb_cell(
            &label,
            shards,
            &closed,
            series,
            &mut cell_docs,
            &mut last_spans,
        );
        let tput = closed.throughput();
        if baseline == 0.0 {
            // First swept shard count is the baseline (conventionally 1).
            baseline = tput;
        }
        speedups.push((shards, tput / baseline));
        print_row(&scale.device, shards, "closed", &closed, baseline, ingress);
        if scale.tenants > 1 {
            print_tenant_table(&scale.device, &closed);
        }
        for &load in &scale.loads {
            let rate = load * tput;
            let label = format!("{shards} shards open {load:.2}");
            let (open, ingress, series) = run_cell(&scale, shards, Some(rate), &label);
            all_ok &= check_report(&open, &label);
            all_ok &= absorb_cell(
                &label,
                shards,
                &open,
                series,
                &mut cell_docs,
                &mut last_spans,
            );
            print_row(
                &scale.device,
                shards,
                &format!("open {load:.2}"),
                &open,
                baseline,
                ingress,
            );
        }
    }
    if let Some(path) = &scale.monitor_out {
        let doc = JsonValue::obj(vec![
            ("schema_version", JsonValue::from(1u64)),
            ("suite", JsonValue::from("eirene-bench serve --monitor")),
            ("cells", JsonValue::Arr(cell_docs)),
        ]);
        match std::fs::write(path, doc.to_json() + "\n") {
            Ok(()) => eprintln!("serve: wrote monitor series to {path}"),
            Err(e) => {
                eprintln!("serve: could not write {path}: {e}");
                all_ok = false;
            }
        }
    }
    if let Some(path) = &scale.spans_out {
        match std::fs::write(path, spans_to_jsonl(&last_spans)) {
            Ok(()) => eprintln!(
                "serve: wrote {} lifecycle spans (last cell) to {path}",
                last_spans.len()
            ),
            Err(e) => {
                eprintln!("serve: could not write {path}: {e}");
                all_ok = false;
            }
        }
    }
    for &(shards, speedup) in &speedups {
        if shards > 1 {
            eprintln!(
                "serve: {shards}-shard closed-loop speedup over {}-shard baseline: {speedup:.2}x",
                scale.shards[0]
            );
        }
    }
    if all_ok {
        eprintln!(
            "serve: per-shard telemetry rows sum to totals on every cell; all trees validated"
        );
        0
    } else {
        1
    }
}
