//! One round of a workload: a fresh instance, a fixed number of generated
//! operations through it, and a correctness check of every response. The
//! timed section holds only the calls a user of the system makes.

use crate::check::Tally;
use crate::spans::{coverage, self_secs, self_times, Scope, Span};
use crate::stats::{hist_quantile, percentile, percentile_of};
use crate::sys::Usage;
use crate::workloads::{
    device, Shape, Workload, SERVE_SHARDS, SERVE_WORKERS, STRADDLE, TREE_WORKERS,
};
use eirene_baselines::ConcurrentTree;
use eirene_btree::{refops, validate::validate};
use eirene_core::{EireneOptions, EireneTree};
use eirene_serve::{
    reconcile_samples, ObserveConfig, Outcome, SeriesCollector, ServeConfig, Service, ShardMap,
    ShardReport, ShardSample,
};
use eirene_sim::{CycleHistogram, DeviceConfig, KernelStats, Phase};
use eirene_workloads::{
    Key, OpKind, Oracle, Request, SequentialOracle, ShardedGen, WorkloadGen, WorkloadSpec,
};
use std::sync::Barrier;
use std::time::Instant;

/// Instances set up per round. All but the last are torn down at once; the
/// round's `setup_s` is the median, so that one build slowed by page faults
/// or a late wake-up does not set it.
const SETUP_REPEATS: usize = 5;

/// What one round measured.
#[derive(Default)]
pub struct RoundOut {
    pub tally: Tally,
    /// Wall seconds of the timed section.
    pub measured_s: f64,
    /// Requests and latency units (batches or windows) in the timed section.
    pub requests: u64,
    pub units: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The round's counters per layer. Host times per layer come from the
    /// spans of a traced round, see [`span_layers`].
    pub per_layer: Vec<(String, f64)>,
}

pub fn run(w: &Workload, seed: u64, smoke: bool, scope: Scope<'_>) -> RoundOut {
    let (mut out, _) = scope.timed("round", 0, |scope| match w.shape(smoke) {
        Shape::Tree { batches, batch } => tree_round(w, batches, batch, seed, scope),
        Shape::Serve {
            clients,
            windows,
            window,
        } => serve_round(w, clients, windows, window, seed, scope),
    });
    out.layer("host.peak_rss_mb", Usage::now().peak_rss_mb);
    out
}

/// The initial pairs as the trees take them, and the oracle loaded with them.
fn prepare(spec: &WorkloadSpec, scope: Scope<'_>) -> (Vec<(u64, u64)>, SequentialOracle) {
    let (prepared, _) = scope.timed("prepare", 0, |_| {
        let init = spec.initial_pairs();
        let pairs = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
        (pairs, SequentialOracle::load(&init))
    });
    prepared
}

/// Builds the instance [`SETUP_REPEATS`] times, hands all but the last to
/// `discard`, and returns the last with the median build time.
fn setup<T>(
    scope: Scope<'_>,
    name: &'static str,
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for i in 0..SETUP_REPEATS as u64 {
        if let Some(spare) = live.take() {
            scope.timed("discard", i, |_| discard(spare));
        }
        let (instance, s) = scope.timed(name, i, |_| build());
        secs.push(s);
        live = Some(instance);
    }
    (live.expect("SETUP_REPEATS >= 1"), percentile_of(secs, 0.50))
}

fn same_contents(tree: &[(u64, u64)], oracle: &SequentialOracle) -> Result<(), String> {
    let want = oracle.contents();
    let equal = tree.len() == want.len()
        && tree
            .iter()
            .zip(want)
            .all(|(&(k, v), (&wk, &wv))| (k, v) == (wk as u64, wv as u64));
    if equal {
        Ok(())
    } else {
        let (have, want) = (tree.len(), want.len());
        Err(format!(
            "{have} keys in the tree, {want} in the oracle, or values differ"
        ))
    }
}

/// Whether the per-phase rows of the virtual clock sum exactly to its
/// totals.
fn phase_rows_sum(stats: &KernelStats) -> Result<(), String> {
    let (rows, t) = (stats.totals.phase_sums(), &stats.totals);
    let pairs = [
        ("cycles", rows.cycles, t.cycles),
        ("mem_insts", rows.mem_insts, t.mem_insts),
        ("control_insts", rows.control_insts, t.control_insts),
        ("atomic_insts", rows.atomic_insts, t.atomic_insts),
        ("stm_aborts", rows.stm_aborts, t.stm_aborts),
        (
            "version_conflicts",
            rows.version_conflicts,
            t.version_conflicts,
        ),
    ];
    match pairs.iter().find(|(_, rows, total)| rows != total) {
        None => Ok(()),
        Some((what, rows, total)) => Err(format!("{what}: rows sum to {rows}, total is {total}")),
    }
}

fn tree_round(
    w: &Workload,
    batches: usize,
    batch_size: usize,
    seed: u64,
    scope: Scope<'_>,
) -> RoundOut {
    let spec = w.spec(batch_size, seed);
    let (pairs, mut oracle) = prepare(&spec, scope);
    let opts = EireneOptions {
        device: device(TREE_WORKERS),
        ..EireneOptions::default()
    };
    let (mut tree, setup_s) = setup(
        scope,
        "setup",
        || EireneTree::new(&pairs, opts.clone()),
        drop,
    );
    let loaded = tree.device().mem().slab_stats();
    let mut gen = WorkloadGen::new(spec);

    let mut tally = Tally::default();
    let mut stats = KernelStats::default();
    let mut latency_ms = Vec::with_capacity(batches);
    let mut cpu = Usage::default();
    let (mut artificial, mut issued) = (0, 0);
    for b in 0..batches as u64 {
        let (batch, _) = scope.timed("gen", b, |_| gen.next_batch());
        let before = Usage::now();
        let (plan, plan_s) = scope.timed("plan", b, |_| tree.plan(&batch));
        let (run, exec_s) = scope.timed("exec", b, |_| tree.run_planned(&batch, &plan));
        cpu.add(&Usage::now().since(&before));
        latency_ms.push((plan_s + exec_s) * 1e3);
        scope.timed("check", b, |_| {
            tally.responses(&run.responses, &oracle.run_batch(&batch));
        });
        artificial += plan.artificial_count();
        issued += plan.issued.len() + plan.ranges.len();
        stats.merge(&run.stats);
    }
    let mem = tree.device().mem();
    let (shape, _) = scope.timed("validate", 0, |_| {
        let shape = validate(mem, tree.handle());
        tally.structure("validate", shape.as_ref().map(|_| ()).map_err(Clone::clone));
        let contents = refops::contents(mem, tree.handle());
        tally.structure("final contents", same_contents(&contents, &oracle));
        tally.structure("phase rows sum to totals", phase_rows_sum(&stats));
        shape.ok()
    });

    let requests = (batches * batch_size) as u64;
    let cfg = tree.device().config();
    let slab = mem.slab_stats();
    let mut out = RoundOut {
        tally,
        measured_s: latency_ms.iter().sum::<f64>() / 1e3,
        requests,
        units: batches as u64,
        ..RoundOut::default()
    };
    out.host_metrics(w, setup_s, &cpu, latency_ms);
    out.sim_metrics(&stats, &stats.totals.latency, cfg);
    let sim_secs = cfg.cycles_to_secs(stats.makespan_cycles);
    out.metric("sim_tput_mreq_s", requests as f64 / sim_secs / 1e6);
    out.metric(
        "space_nodes_per_kkey",
        slab.live as f64 / oracle.len() as f64 * 1e3,
    );

    let kreq = requests as f64 / 1e3;
    out.layer("plan.issued_share", issued as f64 / requests as f64);
    out.layer("plan.artificial_per_kreq", artificial as f64 / kreq);
    out.layer(
        "pivot.rebuilds_per_batch",
        stats.totals.pivot_cache_rebuilds as f64 / batches as f64,
    );
    out.layer("btree.height", shape.map_or(0.0, |s| s.height as f64));
    out.layer(
        "btree.keys_per_leaf",
        shape.map_or(0.0, |s| s.keys as f64 / s.leaves as f64),
    );
    out.layer("sim.slab_reused_per_kreq", slab.reused as f64 / kreq);
    // The bulk load's bump allocations are set-up, not churn.
    out.layer(
        "sim.slab_bump_allocs_per_kreq",
        (slab.bump_allocs - loaded.bump_allocs) as f64 / kreq,
    );
    out.layer("sim.arena_retired_end", slab.retired as f64);
    out
}

/// What a client saw of one request: the request, the admission timestamp
/// its ticket reported, and the outcome.
type Seen = (Request, Option<u64>, Outcome);

fn serve_round(
    w: &Workload,
    clients: usize,
    windows: usize,
    window: usize,
    seed: u64,
    scope: Scope<'_>,
) -> RoundOut {
    let spec = w.spec(window, seed);
    let (pairs, mut oracle) = prepare(&spec, scope);
    // Equal slices of the populated key domain [1, 2 * tree_size].
    let width = (spec.key_domain() / SERVE_SHARDS as u64) as Key;
    let starts = (0..SERVE_SHARDS as Key).map(|s| s * width).collect();
    let map = ShardMap::from_starts(starts).expect("ascending starts from 0");
    let device_cfg = device(SERVE_WORKERS);
    let mut tally = Tally::default();

    // A service is set up once it answers: shard trees are bulk-loaded on
    // their executor threads after `Service::new` returns, so one query per
    // shard is part of set-up. Every instance gets its own collector, so the
    // kept one's samples reconcile with its report.
    let build = || {
        let collector = scope.tracer.map(|_| SeriesCollector::new());
        let observe = match &collector {
            Some(c) => ObserveConfig::with_observer(c.clone()),
            None => ObserveConfig::default(),
        };
        let service = Service::new(
            &pairs,
            ServeConfig {
                map: map.clone(),
                device: device_cfg.clone(),
                observe,
                ..ServeConfig::default()
            },
        );
        let client = service.client();
        let tickets: Vec<_> = (0..SERVE_SHARDS)
            .map(|s| map.start_of(s).max(1))
            .map(|key| (key, client.submit(key, OpKind::Query)))
            .collect();
        let probes: Vec<Seen> = tickets
            .into_iter()
            .map(|(key, ticket)| {
                let outcome = ticket.wait();
                (Request::query(key, 0), ticket.timestamp(), outcome)
            })
            .collect();
        (service, client, collector, probes)
    };
    let mut probed = Vec::new();
    let ((service, client, collector, probes), setup_s) =
        setup(scope, "service_new", build, |(service, _, _, probes)| {
            probed.push(probes);
            service.shutdown();
        });
    probed.push(probes);
    // Probes are queries on the initial contents, whichever instance
    // answered them.
    for probes in probed {
        tally.outcomes(probes, &mut oracle);
    }

    let (streams, _) = scope.timed("gen", 0, |_| {
        let stream = |c| {
            let mut gen = ShardedGen::new(spec.for_client(c), map.boundaries(), STRADDLE);
            (0..windows)
                .map(|_| gen.next_requests(window))
                .collect::<Vec<_>>()
        };
        (0..clients as u64).map(stream).collect::<Vec<_>>()
    });

    // Timed section: every client thread runs its windows back to back.
    let barrier = Barrier::new(clients + 1);
    let (done, cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (client, barrier) = (client.clone(), &barrier);
                let scope = scope.on_track(1 + c as u32);
                s.spawn(move || {
                    let mut latency_ms = Vec::with_capacity(stream.len());
                    let mut seen: Vec<Seen> = Vec::with_capacity(stream.len() * window);
                    barrier.wait();
                    let start = Instant::now();
                    scope.timed("client", c as u64, |scope| {
                        for (i, requests) in stream.iter().enumerate() {
                            let unit = (c * stream.len() + i) as u64;
                            let ops: Vec<(Key, OpKind)> =
                                requests.iter().map(|r| (r.key, r.op)).collect();
                            let (tickets, submit_s) =
                                scope.timed("submit", unit, |_| client.submit_many(&ops));
                            let (_, wait_s) = scope.timed("wait", unit, |_| {
                                for (request, ticket) in requests.iter().zip(&tickets) {
                                    let outcome = ticket.wait();
                                    seen.push((*request, ticket.timestamp(), outcome));
                                }
                            });
                            latency_ms.push((submit_s + wait_s) * 1e3);
                        }
                    });
                    (start, Instant::now(), latency_ms, seen)
                })
            })
            .collect();
        barrier.wait();
        let before = Usage::now();
        let done: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (done, Usage::now().since(&before))
    });
    let start = done.iter().map(|d| d.0).min().expect("at least one client");
    let end = done.iter().map(|d| d.1).max().expect("at least one client");
    let mut latency_ms = Vec::new();
    let mut history = Vec::new();
    for (_, _, lat, seen) in done {
        latency_ms.extend(lat);
        history.extend(seen);
    }

    let (report, _) = scope.timed("shutdown", 0, |_| service.shutdown());
    let samples = collector.map(|c| c.samples());
    let mut stats = KernelStats::default();
    scope.timed("check", 0, |_| tally.outcomes(history, &mut oracle));
    scope.timed("validate", 0, |_| {
        tally.structure("validate", report.structure());
        tally.structure("final contents", same_contents(&report.contents(), &oracle));
        for shard in &report.shards {
            stats.merge(&shard.stats);
        }
        tally.structure("phase rows sum to totals", phase_rows_sum(&stats));
        if let Some(samples) = &samples {
            tally.structure("samples reconcile", reconcile_samples(samples, &report));
        }
    });

    let requests = (clients * windows * window) as u64;
    let mut out = RoundOut {
        tally,
        measured_s: (end - start).as_secs_f64(),
        requests,
        units: (clients * windows) as u64,
        ..RoundOut::default()
    };
    let sum = |f: fn(&ShardReport) -> u64| report.shards.iter().map(f).sum::<u64>() as f64;
    let most = |f: fn(&ShardReport) -> u64| report.shards.iter().map(f).max().unwrap_or(0) as f64;
    let (epochs, executed) = (sum(|s| s.epochs), sum(|s| s.executed));
    out.host_metrics(w, setup_s, &cpu, latency_ms);
    out.sim_metrics(&stats, &report.latency(), &device_cfg);
    out.metric("sim_tput_mreq_s", report.throughput() / 1e6);
    out.metric(
        "space_nodes_per_kkey",
        sum(|s| s.arena_live) / sum(|s| s.key_count) * 1e3,
    );

    let (kreq, requests) = (requests as f64 / 1e3, requests as f64);
    out.layer("plan.issued_share", stats.totals.requests as f64 / executed);
    out.layer(
        "pivot.rebuilds_per_batch",
        stats.totals.pivot_cache_rebuilds as f64 / epochs,
    );
    out.layer("sim.arena_retired_end", sum(|s| s.arena_retired));
    out.layer("serve.epochs_per_kreq", epochs / kreq);
    out.layer("serve.batch_mean", executed / epochs);
    out.layer(
        "serve.enqueue_amplification",
        sum(|s| s.enqueued) / requests,
    );
    out.layer(
        "serve.shard_imbalance",
        most(|s| s.executed) / (executed / SERVE_SHARDS as f64),
    );
    out.layer("serve.max_queue_depth", most(|s| s.max_queue_depth));
    out.layer("serve.shed_share", report.shed() as f64 / requests);
    out.layer(
        "serve.timed_out_share",
        report.timed_out() as f64 / requests,
    );
    if let Some(samples) = &samples {
        let most = |f: fn(&ShardSample) -> u64| samples.iter().map(f).max().unwrap_or(0) as f64;
        out.layer("serve.reorder_pending_max", most(|s| s.reorder_pending));
        out.layer("serve.watermark_lag_max", most(|s| s.watermark_lag));
        out.layer("serve.inflight_max", most(|s| s.inflight));
    }
    out
}

/// Host time per layer, from the spans of a traced round: each layer's self
/// time (span minus children) over the round's units or requests.
pub fn span_layers(spans: &[Span], round: &RoundOut) -> Vec<(String, f64)> {
    let selfs = self_times(spans);
    let secs = |name: &str| self_secs(spans, &selfs, name);
    let (units, requests) = (round.units as f64, round.requests as f64);
    let mut layers = vec![
        (
            "workloads.gen_host_ns_per_req",
            secs("gen") * 1e9 / requests,
        ),
        (
            "workloads.oracle_host_ns_per_req",
            secs("check") * 1e9 / requests,
        ),
        ("telemetry.span_coverage_share", coverage(spans, &selfs)),
    ];
    let (plan, exec) = (secs("plan"), secs("exec"));
    if plan + exec > 0.0 {
        layers.extend([
            ("plan.host_us_per_batch", plan * 1e6 / units),
            ("exec.host_us_per_batch", exec * 1e6 / units),
            ("plan.host_share", plan / (plan + exec)),
        ]);
    } else {
        let waits = spans.iter().filter(|s| s.name == "wait");
        let waits = waits.map(|s| s.dur_ns() as f64 / 1e6).collect();
        layers.extend([
            (
                "serve.submit_host_us_per_window",
                secs("submit") * 1e6 / units,
            ),
            ("serve.wait_host_ms_p50", percentile_of(waits, 0.50)),
            // Per instance set up, like `setup_s`.
            (
                "serve.service_new_host_ms",
                secs("service_new") * 1e3 / SETUP_REPEATS as f64,
            ),
            ("serve.shutdown_host_ms", secs("shutdown") * 1e3),
        ]);
    }
    layers
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

impl RoundOut {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.end_to_end.push((name, value));
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.push((name.to_string(), value));
    }

    /// The host-clock metrics, which both kinds of round compute alike.
    fn host_metrics(&mut self, w: &Workload, setup_s: f64, cpu: &Usage, mut latency_ms: Vec<f64>) {
        latency_ms.sort_by(f64::total_cmp);
        let requests = self.requests as f64;
        self.metric("setup_s", setup_s);
        self.metric("host_tput_kreq_s", requests / self.measured_s / 1e3);
        self.metric("host_lat_p50_ms", percentile(&latency_ms, 0.50));
        self.metric(
            "host_lat_tail_ms",
            percentile(&latency_ms, w.tail_quantile()),
        );
        self.layer("host.cpu_us_per_req", cpu.cpu_s() * 1e6 / requests);
        self.layer("sim.sys_cpu_share", cpu.sys_s / cpu.cpu_s());
        self.layer(
            "sim.ctx_switches_per_kreq",
            cpu.ctx_switches as f64 / (requests / 1e3),
        );
    }

    /// The virtual-clock metrics: response times from `response`, and from
    /// the round's merged kernel statistics the memory instructions and the
    /// per-layer counters. The phase rows (`plan.sim_cycles_per_req`,
    /// `exec.sim_cycles_per_req.<phase>`, `serve.sim_*_cycles_per_req`) sum
    /// to the total virtual cycles per request.
    fn sim_metrics(&mut self, stats: &KernelStats, response: &CycleHistogram, cfg: &DeviceConfig) {
        let t = &stats.totals;
        let requests = self.requests as f64;
        let kreq = requests / 1e3;
        let us = |cycles: f64| cfg.cycles_to_secs(cycles) * 1e6;
        self.metric("sim_resp_p50_us", us(hist_quantile(response, 0.50)));
        self.metric("sim_resp_p99_us", us(hist_quantile(response, 0.99)));
        self.metric("sim_mem_insts_per_req", t.mem_insts as f64 / requests);

        let mut device_cycles = 0;
        for (phase, row) in t.phases.iter() {
            let name = match phase {
                Phase::Combine => "plan.sim_cycles_per_req".to_string(),
                Phase::Ingress => "serve.sim_ingress_cycles_per_req".to_string(),
                Phase::QueueWait => "serve.sim_queue_wait_cycles_per_req".to_string(),
                other => format!("exec.sim_cycles_per_req.{}", other.name()),
            };
            self.layer(&name, row.cycles as f64 / requests);
            if matches!(
                phase,
                Phase::VerticalTraversal | Phase::HorizontalTraversal | Phase::LeafOp
            ) {
                let name = format!("exec.sim_mem_insts_per_req.{}", phase.name());
                self.layer(&name, row.mem_insts as f64 / requests);
            }
            if !matches!(phase, Phase::Ingress | Phase::QueueWait) {
                device_cycles += row.cycles;
            }
        }
        // Makespan over the cycles one resident warp would run if the
        // device's work were spread evenly; launch overheads included.
        let even = device_cycles as f64 / cfg.resident_warps() as f64;
        self.layer("exec.makespan_imbalance", stats.makespan_cycles / even);
        self.layer("exec.resp_variance", stats.response_variance());
        self.layer(
            "exec.vertical_steps_per_req",
            t.vertical_steps as f64 / requests,
        );
        self.layer(
            "exec.horizontal_steps_per_req",
            t.horizontal_steps as f64 / requests,
        );
        self.layer("pivot.hits_per_kreq", t.pivot_cache_hits as f64 / kreq);
        self.layer(
            "pivot.descents_saved_per_req",
            t.descents_saved as f64 / requests,
        );
        self.layer("stm.aborts_per_kreq", t.stm_aborts as f64 / kreq);
        self.layer(
            "stm.version_conflicts_per_kreq",
            t.version_conflicts as f64 / kreq,
        );
        self.layer(
            "sim.control_insts_per_req",
            t.control_insts as f64 / requests,
        );
        self.layer("sim.atomic_insts_per_req", t.atomic_insts as f64 / requests);
        self.layer(
            "sim.host_ns_per_sim_cycle",
            self.measured_s * 1e9 / device_cycles as f64,
        );
    }
}
