//! The two `serve` flows whose exit code is a verdict: the paper-scale
//! QoS flow (adaptive sizing against fixed limits, tenant isolation) and
//! the hot-shard skew sweep. Both build their cells from the parent
//! module's config, streams and client loop.

use super::*;
use eirene_serve::{RebalanceEvent, RebalanceSpec, Sharding};
use eirene_sim::mix64;
use eirene_workloads::Zipfian;

/// Fixed batch limits the paper flow sweeps against the controller.
const PAPER_FIXED: [usize; 3] = [1024, 4096, 1 << 14];

/// How much a hog may inflate a well-behaved tenant's p99 before the
/// isolation scenario fails. The hog's *admitted* share is bounded by
/// its quota (≈ 1.25× one tenant's load), so fair WRR draining keeps the
/// slowdown well under this.
const ISOLATION_BOUND: f64 = 3.0;

/// The paper flow's cells and the verdict they add up to.
struct PaperFlow<'a> {
    scale: &'a ServeScale,
    shards: usize,
    ok: bool,
}

impl PaperFlow<'_> {
    /// Runs one cell — the base scale at `theta` without tenants or
    /// monitoring, fixed at `batch` or adaptive under `budget` — prints
    /// its row and returns its throughput and p99 (us).
    fn cell(
        &mut self,
        rate: Option<f64>,
        theta: Option<f64>,
        batch: Option<usize>,
        budget: Option<f64>,
    ) -> (f64, f64) {
        let s = ServeScale {
            theta,
            tenants: 0,
            monitor: false,
            adaptive: batch.is_none(),
            batch_limit: batch.unwrap_or(self.scale.batch_limit),
            p99_budget_us: budget,
            ..self.scale.clone()
        };
        let loop_mode = if rate.is_some() { "open" } else { "closed" };
        let theta = theta.map_or("uniform".into(), |t| format!("zipf-{t:.2}"));
        let sizing = batch.map_or("adaptive".into(), |b| format!("fixed-{b}"));
        let label = format!("{theta} {loop_mode} {sizing}");
        let (report, ..) = run_cell(&s, self.shards, rate, &label);
        if let Err(e) = report.check() {
            eprintln!("serve: {label}: {e}");
            self.ok = false;
        }
        let (device, lat, tput) = (s.device(), report.latency(), report.throughput());
        let p99_us = cycles_to_us(&device, lat.p99());
        let targets: Vec<u64> = report.shards.iter().map(|sh| sh.batch_target).collect();
        println!(
            "paper  {:<28} {:>10.2} M/s  p50 {:>9.1}us  p99 {:>9.1}us  p99.9 {:>9.1}us  targets {:?}",
            label,
            tput / 1e6,
            cycles_to_us(&device, lat.p50()),
            p99_us,
            cycles_to_us(&device, lat.p999()),
            targets,
        );
        (tput, p99_us)
    }

    /// Fails the flow, saying why, unless `held`.
    fn check(&mut self, held: bool, why: impl FnOnce() -> String) {
        if !held {
            eprintln!("serve: paper: {}", why());
            self.ok = false;
        }
    }
}

/// The paper-scale flow: per key distribution (uniform and the paper's
/// hardest skew point θ = 1.0) a closed-loop fixed-batch sweep plus the
/// adaptive controller, an open-loop p99 comparison at 90% of the best
/// fixed capacity under skew, and the tenant-isolation scenario. Exits
/// non-zero unless the controller stays within 5% of the best fixed
/// limit's throughput, its open-loop p99 is no worse than the
/// throughput-best fixed limit's, and the hog stays inside
/// [`ISOLATION_BOUND`].
pub(super) fn run_paper(scale: &ServeScale) -> i32 {
    let shards = scale.shards.first().copied().unwrap_or(8);
    eprintln!(
        "serve: paper flow — tree 2^{}, {} requests/cell, {} shards, adaptive [{}, {}]",
        scale.tree_exp, scale.requests, shards, scale.min_batch, scale.max_batch
    );
    let mut flow = PaperFlow {
        scale,
        shards,
        ok: true,
    };
    for theta in [None, Some(1.0)] {
        // Closed-loop capacity: fixed sweep, then the controller.
        let fixed = PAPER_FIXED.map(|batch| flow.cell(None, theta, Some(batch), None).0);
        let best =
            (0..fixed.len()).fold(0, |best, i| if fixed[i] > fixed[best] { i } else { best });
        let (adaptive, _) = flow.cell(None, theta, None, None);
        flow.check(adaptive >= 0.95 * fixed[best], || {
            format!(
                "adaptive closed-loop tput {:.2} M/s fell below 95% of the best fixed \
                 ({:.2} M/s at batch {})",
                adaptive / 1e6,
                fixed[best] / 1e6,
                PAPER_FIXED[best]
            )
        });
        if theta != Some(1.0) {
            continue;
        }
        // Open-loop QoS comparison at the skew point: p99 under 90% of the
        // best fixed capacity, fixed sweep vs the latency-braked controller,
        // whose brake targets the best p99 any fixed limit achieved there.
        let rate = Some(0.9 * fixed[best]);
        let open = PAPER_FIXED.map(|batch| flow.cell(rate, theta, Some(batch), None).1);
        let min_open = open.iter().copied().fold(f64::INFINITY, f64::min);
        let budget = scale.p99_budget_us.unwrap_or(min_open);
        let (_, p99) = flow.cell(rate, theta, None, Some(budget));
        flow.check(p99 <= open[best], || {
            format!(
                "adaptive open-loop p99 {p99:.1}us did not improve on the throughput-best \
                 fixed limit's {:.1}us",
                open[best]
            )
        });
    }
    flow.ok &= run_isolation(scale, shards);
    verdict(flow.ok, "paper flow passed every check")
}

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
    let share = per_tenant / shards.max(1);
    let quota = Some(scale.quota)
        .filter(|&q| q > 0)
        .unwrap_or(share + share / 4 + 64);
    let spec = scale.spec(None);
    let map = workload_map(shards, spec.key_domain());
    let pairs = pairs(&spec);
    let hog_load = scale.hog_factor.max(1) * quota * shards;
    let run = |hog: bool| {
        let cfg = ServeConfig {
            qos: QosConfig::uniform(tenants, quota),
            ..scale.config(map.clone(), scale.requests + hog_load + 16, true)
        };
        let svc = Service::new(&pairs, cfg);
        let mut loads: Vec<(TenantId, Vec<(Key, OpKind)>)> = (1..tenants)
            .map(|t| (t, requests(spec.for_client(t as u64), per_tenant)))
            .collect();
        if hog {
            loads.push((0, requests(spec.for_client(0xB16_B07), hog_load)));
        }
        let streams: Vec<_> = loads.iter().map(|(t, reqs)| (*t, &reqs[..])).collect();
        submit(&svc, &streams, None);
        svc.release();
        svc.shutdown()
    };
    let (solo, hogged) = (run(false), run(true));
    let device = scale.device();
    let solo_p99_us = cycles_to_us(&device, solo.tenant_latency(1).p99());
    let hog_p99_us = cycles_to_us(&device, hogged.tenant_latency(1).p99());
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
    }
}

/// Runs one skew cell: `clients` submitter threads stream the clustered
/// stream through [`submit`] with the gate open (a closed loop with
/// backpressure — no held-gate preload, so the rebalancer samples live
/// traffic). Returns the measured pass's report and every boundary move.
///
/// The rebalanced mode measures *steady state*: convergence passes replay
/// the stream until a pass publishes no topology change (the online
/// rebalancer chases the hot band by repeated median splits, which takes
/// several publications), then the measured pass starts from the
/// converged map — with the rebalancer still running. Static and hash
/// cells are a single measured pass; their topology never moves.
fn run_skew_cell(
    scale: &ServeScale,
    shards: usize,
    mode: SkewMode,
    theta: f64,
) -> (ServeReport, Vec<RebalanceEvent>) {
    let spec = scale.spec(None);
    let pairs = pairs(&spec);
    let pass = |map: ShardMap, seed: u64| {
        let cfg = ServeConfig {
            sharding: if mode == SkewMode::Hash {
                Sharding::Hash
            } else {
                Sharding::Range
            },
            rebalance: (mode == SkewMode::Rebalanced)
                .then(|| skew_rebalance_spec(scale.batch_limit)),
            sizing: EpochSizing::Fixed(scale.batch_limit),
            ..scale.config(map, SKEW_QUEUE_DEPTH.min(scale.requests + 1), false)
        };
        let svc = Service::new(&pairs, cfg);
        let reqs = clustered_zipf_stream(spec.tree_size, theta, scale.requests, seed);
        submit(&svc, &streams(&reqs, scale.clients, 0), None);
        svc.shutdown()
    };
    let base_seed = scale.seed ^ (theta * 1e3) as u64;
    let mut map = workload_map(shards, spec.key_domain());
    let mut events: Vec<RebalanceEvent> = Vec::new();
    let passes = if mode == SkewMode::Rebalanced {
        SKEW_CONVERGE_PASSES
    } else {
        0
    };
    for n in 0..passes {
        let report = pass(map.clone(), mix64(base_seed ^ n));
        if report.rebalances.is_empty() && n > 0 {
            // The topology stopped moving: converged. Pass 0 never
            // breaks — a single quiet pass can be the startup race (the
            // hot shard's samples arriving too late to act on), not
            // convergence.
            break;
        }
        // Replay the published boundary moves onto the map the next pass
        // (and ultimately the measured pass) starts from.
        for ev in &report.rebalances {
            map = map
                .with_boundary(ev.boundary, ev.new_start)
                .expect("published boundary moves are valid");
        }
        events.extend(report.rebalances);
    }
    let report = pass(map, base_seed);
    events.extend(report.rebalances.iter().cloned());
    (report, events)
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
pub(super) fn run_skew(scale: &ServeScale) -> i32 {
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
    let device = scale.device();
    let enforced = scale.tree_exp >= CONVERGED_TREE_EXP;
    // Each θ with its modes' throughputs in `SkewMode::ALL` order.
    let mut tputs: Vec<(f64, [f64; 3])> = Vec::new();
    let mut all_ok = true;
    for &theta in &scale.thetas {
        let mut tput = [0.0f64; 3];
        for (i, mode) in SkewMode::ALL.into_iter().enumerate() {
            let (report, events) = run_skew_cell(scale, shards, mode, theta);
            tput[i] = report.throughput();
            let (shed, timed_out) = (report.shed(), report.timed_out());
            if shed != 0 || timed_out != 0 {
                let mode = mode.label();
                eprintln!(
                    "serve: skew θ={theta} {mode}: unexpected shed={shed} timed_out={timed_out}"
                );
                all_ok = false;
            }
            if mode == SkewMode::Rebalanced && theta >= 1.0 {
                let claim = format!("rebalancer_moved_a_boundary_at_theta_{theta}");
                all_ok &= convergence_claim(enforced, !events.is_empty(), &claim);
            }
            let lat = report.latency();
            println!(
                "{theta:>6.2}  {:<17} {:>10.2}  {:>9.2}x  {:>9.1}  {:>9.1}  {:>6}  {:>6}  {:>6}",
                mode.label(),
                tput[i] / 1e6,
                if tput[0] > 0.0 {
                    tput[i] / tput[0]
                } else {
                    0.0
                },
                cycles_to_us(&device, lat.p50()),
                cycles_to_us(&device, lat.p99()),
                report.shards.iter().map(|s| s.epochs).sum::<u64>(),
                events.len(),
                events.iter().map(|e| e.moved_keys).sum::<u64>(),
            );
        }
        tputs.push((theta, tput));
    }
    // Heaviest swept skew: a moving topology must beat the frozen one.
    if let Some(&(theta, [fixed, moving, _])) = tputs.iter().max_by(|a, b| a.0.total_cmp(&b.0)) {
        if moving <= fixed {
            eprintln!("serve: skew check failed: rebalanced_beats_static_at_theta_{theta}");
            all_ok = false;
        }
    }
    // Paper-scale claim: at θ = 1.0 the better skew-resilient mode
    // reaches 2× the static hot shard.
    if let Some(&(_, [fixed, moving, hash])) = tputs.iter().find(|c| c.0 == 1.0) {
        let claim = "skew_resilient_2x_static_at_theta_1.0";
        all_ok &= convergence_claim(enforced, moving.max(hash) >= 2.0 * fixed, claim);
    }
    verdict(all_ok, "skew sweep passed every check")
}
