//! The `serve` subcommand: throughput/QoS experiments on the sharded
//! serving layer (`eirene-serve`). Its preset picks the flow — the
//! default shard-count × offered-load sweep (`--smoke` shrinks it), the
//! QoS flow of `--paper-scale` or the hot-shard grid of `--skew-sweep`
//! (both in `flows`) — and flags change the preset's settings wherever
//! they stand. Every cell goes through one client loop, `submit`:
//! threads racing `submit_many` chunks through the lock-free front door.
//!
//! ```text
//! cargo run -p eirene-bench --release -- serve --shards 1,2,4 --requests 32768
//! cargo run -p eirene-bench --release -- serve --smoke --monitor \
//!     --monitor-out monitor.json --spans spans.jsonl
//! ```
//!
//! A sweep cell reports throughput, end-to-end latency quantiles, shed
//! and timed-out requests, the speedup over the first shard count's
//! closed loop and the wall-clock ingress rate. The workload is YCSB-C
//! point lookups with a `--straddle` fraction of keys moved onto shard
//! boundaries. `--monitor` adds a per-shard console dashboard while each
//! cell drains, prints SLO breaches (`--slo-*`) as they fire and checks
//! each cell's sampled series against its report; `--monitor-out` and
//! `--spans` export the series and the last cell's lifecycle spans.
//!
//! Exit status: 0 when every report passes `ServeReport::check` (its
//! accounting balances, phase rows sum to totals, spans hold, trees
//! validate), every monitored series reconciles with its report and the
//! flow's own checks hold, 1 otherwise, 2 on a usage error.

mod flows;

use eirene_check::cli::{self, Cli, Flag};
use eirene_check::flag;
use eirene_serve::{
    reconcile_samples, spans_to_jsonl, AdmitPolicy, ObserveConfig, QosConfig, SeriesCollector,
    ServeConfig, ServeReport, Service, ServiceObserver, ShardMap, ShardSample, SloSpec, TenantId,
};
use eirene_sim::DeviceConfig;
use eirene_telemetry::JsonValue;
use eirene_workloads::{Distribution, Key, Mix, OpKind, ShardedGen, WorkloadGen, WorkloadSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per `submit_many` call on a bench client thread.
const SUBMIT_CHUNK: usize = 256;

/// The flow a `serve` line runs, picked by its preset switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The shard-count × offered-load sweep on the default device.
    Sweep,
    /// `--smoke`: the sweep, small enough for CI.
    Smoke,
    /// `--paper-scale`: the fixed-limit sweep and tenant-isolation QoS flow.
    Paper,
    /// `--skew-sweep`: the hot-shard θ × sharding-mode grid.
    Skew,
}

/// One `serve` run: its preset and every setting a flag changes. Flags
/// apply on top of the preset's defaults wherever they stand on the line.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeScale {
    pub preset: Preset,
    pub shards: Vec<usize>,
    /// Offered loads for the open-loop cells, as fractions of the
    /// measured aggregate closed-loop capacity.
    pub loads: Vec<f64>,
    pub tree_exp: u32,
    pub requests: usize,
    pub batch_limit: usize,
    pub straddle: f64,
    /// Concurrent submitter threads per cell.
    pub clients: usize,
    pub seed: u64,
    /// QoS tenants (0 or 1 disables; submitter threads rotate).
    pub tenants: usize,
    /// Per-tenant per-shard quota; 0 sizes it so nothing sheds.
    pub quota: usize,
    /// Isolation scenario: the abusive tenant offers this multiple of
    /// its admissible (quota × shards) load.
    pub hog_factor: usize,
    /// Zipfian skew for the key distribution (`None` = uniform).
    pub theta: Option<f64>,
    /// Skew points the skew sweep visits.
    pub thetas: Vec<f64>,
    /// Live observability: dashboard + series collection per cell.
    pub monitor: bool,
    /// Write every cell's sampled series to this JSON file.
    pub monitor_out: Option<String>,
    /// Write the last cell's lifecycle spans to this JSON-lines file.
    pub spans_out: Option<String>,
    /// SLO: windowed p99 completion latency budget, in microseconds.
    pub slo_p99_us: Option<f64>,
    /// SLO: windowed shed-rate budget (fraction of offered requests).
    pub slo_shed_rate: Option<f64>,
}

impl Cli for ServeScale {
    type Mode = Preset;
    const MODES: &'static [Preset] = &[Preset::Sweep, Preset::Smoke, Preset::Paper, Preset::Skew];

    fn switch(preset: Preset) -> Option<&'static str> {
        match preset {
            Preset::Sweep => None,
            Preset::Smoke => Some("--smoke"),
            Preset::Paper => Some("--paper-scale"),
            Preset::Skew => Some("--skew-sweep"),
        }
    }

    /// The sweep's defaults, shrunk for `--smoke`; the paper flow and the
    /// skew sweep run 2^20 keys on 8 shards.
    fn defaults(preset: Preset) -> ServeScale {
        let sweep = ServeScale {
            preset,
            shards: vec![1, 2, 4, 8],
            loads: vec![0.5, 0.9],
            tree_exp: 18,
            requests: 1 << 16,
            batch_limit: 4096,
            straddle: 0.05,
            clients: 1,
            seed: 0x5E44E,
            tenants: 0,
            quota: 0,
            hog_factor: 10,
            theta: None,
            thetas: vec![0.5, 0.8, 1.0, 1.2],
            monitor: false,
            monitor_out: None,
            spans_out: None,
            slo_p99_us: None,
            slo_shed_rate: None,
        };
        match preset {
            Preset::Sweep => sweep,
            Preset::Smoke => ServeScale {
                shards: vec![1, 4],
                loads: vec![0.8],
                tree_exp: 13,
                requests: 1 << 13,
                batch_limit: 512,
                ..sweep
            },
            Preset::Paper => ServeScale {
                shards: vec![8],
                loads: vec![0.9],
                tree_exp: 20,
                requests: 1 << 20,
                tenants: 4,
                ..sweep
            },
            Preset::Skew => ServeScale {
                shards: vec![8],
                tree_exp: 20,
                requests: 1 << 18,
                batch_limit: 1024,
                clients: 4,
                ..sweep
            },
        }
    }

    fn mode(&self) -> Preset {
        self.preset
    }

    fn flags(_: Preset) -> Vec<&'static Flag<ServeScale>> {
        SERVE_FLAGS.iter().collect()
    }

    fn head(&self) -> String {
        "eirene-bench serve".into()
    }
}

const SERVE_FLAGS: &[Flag<ServeScale>] = &[
    flag!(["--shards"] "a,b,c", [shards]),
    flag!(["--loads"] "f,f", [loads]),
    flag!(["--thetas"] "a,b,c", [thetas]),
    flag!(["--tree-exp"] "N", tree_exp),
    flag!(["--requests"] "N", requests),
    flag!(["--batch-limit"] "N", batch_limit),
    flag!(["--straddle"] "F", straddle),
    flag!(["--clients"] "N", clients),
    flag!(["--seed"] "N", seed),
    flag!(["--tenants"] "N", tenants),
    flag!(["--quota"] "N", quota),
    flag!(["--hog-factor"] "N", hog_factor),
    flag!(["--theta"] "F", Some(theta)),
    flag!(["--monitor"], monitor),
    flag!(["--monitor-out"] "FILE", Some(monitor_out), then monitor),
    flag!(["--spans"] "FILE", Some(spans_out), then monitor),
    flag!(["--slo-p99-us"] "F", Some(slo_p99_us), then monitor),
    flag!(["--slo-shed-rate"] "F", Some(slo_shed_rate), then monitor),
];

impl ServeScale {
    /// The sweep runs on the default device, every other preset on the
    /// small test device.
    fn device(&self) -> DeviceConfig {
        match self.preset {
            Preset::Sweep => DeviceConfig::default(),
            _ => DeviceConfig::test_small(),
        }
    }

    /// Device cycles in `us` microseconds.
    fn cycles(&self, us: f64) -> u64 {
        (us * 1e-6 * self.device().clock_ghz * 1e9) as u64
    }

    /// The tenant table the flags describe; quota 0 auto-sizes so the
    /// sweep cells never shed on quota.
    fn qos(&self) -> QosConfig {
        if self.tenants <= 1 {
            return QosConfig::disabled();
        }
        let quota = Some(self.quota).filter(|&q| q > 0);
        QosConfig::uniform(self.tenants, quota.unwrap_or(self.requests + 1))
    }

    /// The YCSB-C workload every cell draws its tree and requests from.
    fn spec(&self, theta: Option<f64>) -> WorkloadSpec {
        WorkloadSpec {
            tree_size: 1usize << self.tree_exp,
            batch_size: self.batch_limit,
            mix: Mix::ycsb_c(),
            distribution: theta.map_or(Distribution::Uniform, |theta| Distribution::Zipfian {
                theta,
            }),
            seed: self.seed,
        }
    }

    /// The service config every cell starts from: blocking admission, no
    /// linger, the scale's device and batch limit.
    fn config(&self, map: ShardMap, queue_depth: usize, hold_gate: bool) -> ServeConfig {
        ServeConfig {
            map,
            device: self.device(),
            sizing: self.batch_limit,
            queue_depth,
            policy: AdmitPolicy::Block,
            linger: Duration::ZERO,
            hold_gate,
            headroom_nodes: 1 << 14,
            ..ServeConfig::default()
        }
    }
}

/// The bulk-load pairs of `spec`'s tree.
fn pairs(spec: &WorkloadSpec) -> Vec<(u64, u64)> {
    let pairs = spec.initial_pairs().into_iter();
    pairs.map(|(k, v)| (k as u64, v as u64)).collect()
}

/// `n` requests from `spec`'s generator.
fn requests(spec: WorkloadSpec, n: usize) -> Vec<(Key, OpKind)> {
    let reqs = WorkloadGen::new(spec).next_requests(n);
    reqs.iter().map(|r| (r.key, r.op)).collect()
}

/// `reqs` cut into `clients` contiguous streams; with tenants on, stream
/// `t` belongs to tenant `t % tenants`, so every tenant sees traffic.
fn streams(
    reqs: &[(Key, OpKind)],
    clients: usize,
    tenants: usize,
) -> Vec<(TenantId, &[(Key, OpKind)])> {
    let per_client = reqs.len().div_ceil(clients.max(1)).max(1);
    let tenant = |t: usize| if tenants > 1 { t % tenants } else { 0 };
    reqs.chunks(per_client)
        .enumerate()
        .map(|(t, slice)| (tenant(t), slice))
        .collect()
}

/// The one client loop: a thread per stream pushes its requests as its
/// tenant in `SUBMIT_CHUNK`-request `submit_many` calls. With
/// `cycles_per_req` (open loop) each request's virtual arrival is its
/// index across all streams times that. Returns the wall-clock seconds
/// the submission took.
fn submit(
    svc: &Service,
    streams: &[(TenantId, &[(Key, OpKind)])],
    cycles_per_req: Option<f64>,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut first = 0;
        for &(tenant, reqs) in streams {
            let client = svc.client().for_tenant(tenant);
            let base = first;
            first += reqs.len();
            scope.spawn(move || {
                let mut stamped = Vec::with_capacity(SUBMIT_CHUNK);
                for (c, chunk) in reqs.chunks(SUBMIT_CHUNK).enumerate() {
                    let Some(cpr) = cycles_per_req else {
                        let _ = client.submit_many(chunk);
                        continue;
                    };
                    stamped.clear();
                    stamped.extend(chunk.iter().enumerate().map(|(j, &(key, op))| {
                        let i = base + c * SUBMIT_CHUNK + j;
                        (key, op, (i as f64 * cpr) as u64)
                    }));
                    let _ = client.submit_many_at(&stamped);
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
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
/// breaches to stderr the moment they happen.
struct MonitorObserver(Arc<SeriesCollector>);

impl ServiceObserver for MonitorObserver {
    fn on_sample(&self, sample: &ShardSample) {
        for breach in &sample.breaches {
            eprintln!("serve: {breach}");
        }
        self.0.on_sample(sample);
    }
}

/// The SLO spec the `--slo-*` flags describe, if any.
fn slo_spec(scale: &ServeScale) -> Option<SloSpec> {
    (scale.slo_p99_us.is_some() || scale.slo_shed_rate.is_some()).then(|| SloSpec {
        p99_max_cycles: scale.slo_p99_us.map(|us| scale.cycles(us)),
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
}

/// Runs one sweep or paper cell: `scale.clients` streams of YCSB-C
/// lookups go through [`submit`] with the gate held (so epoch composition
/// is load-independent), then the gate releases and the service drains.
/// `rate` (requests/second) spaces virtual arrivals for the open-loop
/// cells; `None` is the closed-loop capacity measurement. Returns the
/// report, the wall-clock seconds the submission took, and — when
/// `--monitor` is on — the collected live series.
fn run_cell(
    scale: &ServeScale,
    shards: usize,
    rate: Option<f64>,
    label: &str,
) -> (ServeReport, f64, Option<Arc<SeriesCollector>>) {
    let device = scale.device();
    let spec = scale.spec(scale.theta);
    let map = workload_map(shards, spec.key_domain());
    let collector = scale.monitor.then(SeriesCollector::new);
    // Without an observer the SLO evaluates nothing.
    let observer = collector.clone().map(MonitorObserver);
    let observe = ObserveConfig {
        observer: observer.map(|o| Arc::new(o) as Arc<dyn ServiceObserver>),
        slo: slo_spec(scale),
    };
    // Everything fits queued while the gate is held.
    let cfg = ServeConfig {
        qos: scale.qos(),
        observe,
        ..scale.config(map.clone(), scale.requests + 1, true)
    };
    let svc = Service::new(&pairs(&spec), cfg);
    // A single-shard map has no interior boundaries to straddle; fall back
    // to the plain generator there.
    let boundaries = map.boundaries();
    let reqs: Vec<(Key, OpKind)> = if boundaries.is_empty() {
        requests(spec, scale.requests)
    } else {
        let reqs = ShardedGen::new(spec, boundaries, scale.straddle).next_requests(scale.requests);
        reqs.iter().map(|r| (r.key, r.op)).collect()
    };
    let streams = streams(&reqs, scale.clients, scale.tenants);
    let ingress = submit(&svc, &streams, rate.map(|r| device.clock_ghz * 1e9 / r));
    svc.release();
    // Dashboard: refresh per-shard lines on stderr every 250 ms while the
    // service drains, from the same live samples the series export
    // collects, and once more on the drained state.
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let frame = |coll: &SeriesCollector| {
        render_dashboard(label, &device, coll, started.elapsed().as_secs_f64())
    };
    let report = std::thread::scope(|scope| {
        if let Some(coll) = &collector {
            scope.spawn(|| {
                for tick in (1..).take_while(|_| !stop.load(Ordering::Relaxed)) {
                    std::thread::sleep(Duration::from_millis(10));
                    if tick % 25 == 0 {
                        frame(coll);
                    }
                }
            });
        }
        let report = svc.shutdown();
        stop.store(true, Ordering::Relaxed);
        report
    });
    if let Some(coll) = &collector {
        frame(coll);
    }
    (report, ingress, collector)
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

/// Writes an export when its flag named a path; false if writing failed.
fn export(path: Option<&str>, what: &str, body: impl FnOnce() -> String) -> bool {
    let Some(path) = path else { return true };
    let written = std::fs::write(path, body());
    match &written {
        Ok(()) => eprintln!("serve: wrote {what} to {path}"),
        Err(e) => eprintln!("serve: could not write {path}: {e}"),
    }
    written.is_ok()
}

/// The shard-count × offered-load sweep (the default and `--smoke`): per
/// shard count a closed-loop cell, then an open-loop cell per load as a
/// fraction of its throughput. Fails unless every report is consistent,
/// every monitored series reconciles with its report and every export is
/// written.
fn run_sweep(scale: &ServeScale) -> i32 {
    let device = scale.device();
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
    // The first swept shard count (conventionally 1) is the baseline.
    let mut baseline = 0.0f64;
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    let mut cell_docs: Vec<JsonValue> = Vec::new();
    let mut last_spans = Vec::new();
    for &shards in &scale.shards {
        let mut capacity = 0.0;
        for load in std::iter::once(None).chain(scale.loads.iter().map(Some)) {
            let mode = load.map_or("closed".into(), |load| format!("open {load:.2}"));
            let label = format!("{shards} shards {mode}");
            let (report, ingress, series) =
                run_cell(scale, shards, load.map(|load| load * capacity), &label);
            if let Err(e) = report.check() {
                eprintln!("serve: {label}: {e}");
                all_ok = false;
            }
            // Cross-check the live series against the cell's final report.
            if let Some(series) = series {
                if let Err(e) = reconcile_samples(&series.samples(), &report) {
                    eprintln!("serve: {label}: live series does not reconcile with report: {e}");
                    all_ok = false;
                }
                cell_docs.push(JsonValue::obj(vec![
                    ("label", JsonValue::from(label.as_str())),
                    ("shards", JsonValue::from(shards)),
                    ("series", series.to_json()),
                ]));
                last_spans = report.spans();
            }
            if load.is_none() {
                capacity = report.throughput();
                if baseline == 0.0 {
                    baseline = capacity;
                }
                speedups.push((shards, capacity / baseline));
            }
            print_row(&device, shards, &mode, &report, baseline, ingress);
            if load.is_none() && scale.tenants > 1 {
                print_tenant_table(&device, &report);
            }
        }
    }
    all_ok &= export(scale.monitor_out.as_deref(), "monitor series", || {
        let doc = JsonValue::obj(vec![
            ("schema_version", JsonValue::from(1u64)),
            ("suite", JsonValue::from("eirene-bench serve --monitor")),
            ("cells", JsonValue::Arr(cell_docs)),
        ]);
        doc.to_json() + "\n"
    });
    let spans = format!("{} lifecycle spans (last cell)", last_spans.len());
    all_ok &= export(scale.spans_out.as_deref(), &spans, || {
        spans_to_jsonl(&last_spans)
    });
    for &(shards, speedup) in &speedups {
        if shards > 1 {
            eprintln!(
                "serve: {shards}-shard closed-loop speedup over {}-shard baseline: {speedup:.2}x",
                scale.shards[0]
            );
        }
    }
    verdict(
        all_ok,
        "every cell's report passes ServeReport::check (phase rows sum to totals, trees validate)",
    )
}

/// The exit code of a flow: 0, saying `passed`, when every check held.
fn verdict(ok: bool, passed: &str) -> i32 {
    if !ok {
        return 1;
    }
    eprintln!("serve: {passed}");
    0
}

/// The usage line, generated from the flag table.
pub(crate) fn usage() -> String {
    let line = cli::usage::<ServeScale>(ServeScale::MODES);
    format!("{line}   (sharded-serving throughput/QoS sweep)")
}

/// Parses `serve` arguments and runs the flow their preset picks; returns
/// the exit code (2 on a usage error, with the usage printed).
pub fn run(args: &[String]) -> i32 {
    let scale: ServeScale = match cli::parse(args) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}\nusage:\n{}", usage());
            return 2;
        }
    };
    match scale.preset {
        Preset::Sweep | Preset::Smoke => run_sweep(&scale),
        Preset::Paper => flows::run_paper(&scale),
        Preset::Skew => flows::run_skew(&scale),
    }
}
