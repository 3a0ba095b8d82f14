//! The two `serve` flows whose exit code is a verdict: the paper-scale
//! QoS flow (a fixed batch-limit sweep, tenant isolation) and the
//! hot-shard skew sweep. Both build their cells from the parent module's
//! config, streams and client loop.

use super::*;
use eirene_serve::Sharding;
use eirene_sim::mix64;
use eirene_workloads::Zipfian;

/// Batch limits the paper flow sweeps.
const PAPER_FIXED: [usize; 3] = [1024, 4096, 1 << 14];

/// How much a hog may inflate a well-behaved tenant's p99 before the
/// isolation scenario fails. The hog's *admitted* share is bounded by
/// its quota (≈ 1.25× one tenant's load), which keeps the slowdown well
/// under this.
const ISOLATION_BOUND: f64 = 3.0;

/// The paper flow's cells and the verdict they add up to.
struct PaperFlow<'a> {
    scale: &'a ServeScale,
    shards: usize,
    ok: bool,
}

impl PaperFlow<'_> {
    /// Runs one cell — the base scale at `theta` and batch limit `batch`,
    /// without tenants or monitoring — prints its row and returns its
    /// throughput.
    fn cell(&mut self, rate: Option<f64>, theta: Option<f64>, batch: usize) -> f64 {
        let s = ServeScale {
            theta,
            tenants: 0,
            monitor: false,
            batch_limit: batch,
            ..self.scale.clone()
        };
        let loop_mode = if rate.is_some() { "open" } else { "closed" };
        let theta = theta.map_or("uniform".into(), |t| format!("zipf-{t:.2}"));
        let label = format!("{theta} {loop_mode} fixed-{batch}");
        let (report, ..) = run_cell(&s, self.shards, rate, &label);
        if let Err(e) = report.check() {
            eprintln!("serve: {label}: {e}");
            self.ok = false;
        }
        let (device, lat, tput) = (s.device(), report.latency(), report.throughput());
        println!(
            "paper  {:<28} {:>10.2} M/s  p50 {:>9.1}us  p99 {:>9.1}us  p99.9 {:>9.1}us",
            label,
            tput / 1e6,
            cycles_to_us(&device, lat.p50()),
            cycles_to_us(&device, lat.p99()),
            cycles_to_us(&device, lat.p999()),
        );
        tput
    }
}

/// The paper-scale flow: per key distribution (uniform and the paper's
/// hardest skew point θ = 1.0) a closed-loop sweep of the batch limit, an
/// open-loop sweep at 90% of the best limit's capacity under skew, and
/// the tenant-isolation scenario. Exits non-zero unless every cell's
/// report passes its check and the hog stays inside [`ISOLATION_BOUND`].
pub(super) fn run_paper(scale: &ServeScale) -> i32 {
    let shards = scale.shards.first().copied().unwrap_or(8);
    eprintln!(
        "serve: paper flow — tree 2^{}, {} requests/cell, {} shards, batch limits {:?}",
        scale.tree_exp, scale.requests, shards, PAPER_FIXED
    );
    let mut flow = PaperFlow {
        scale,
        shards,
        ok: true,
    };
    for theta in [None, Some(1.0)] {
        let fixed = PAPER_FIXED.map(|batch| flow.cell(None, theta, batch));
        if theta == Some(1.0) {
            // Open-loop QoS at the skew point: each limit offered 90% of
            // the best limit's closed-loop capacity.
            let rate = Some(0.9 * fixed.iter().copied().fold(0.0, f64::max));
            for batch in PAPER_FIXED {
                flow.cell(rate, theta, batch);
            }
        }
    }
    flow.ok &= run_isolation(scale, shards);
    verdict(flow.ok, "paper flow passed every check")
}

/// Tenant-isolation scenario: `tenants - 1` well-behaved tenants submit
/// equal closed-loop loads; the hog (tenant 0) additionally offers
/// `hog_factor ×` its admissible load in the second run. Quotas must shed
/// the hog at its quota, execute at most quota × shards of its load and
/// hold the well-behaved p99 within [`ISOLATION_BOUND`] of the solo run;
/// returns whether they did.
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
        let hog = hog.then(|| (0, requests(spec.for_client(0xB16_B07), hog_load)));
        let loads: Vec<(TenantId, _)> = (1..tenants)
            .map(|t| (t, requests(spec.for_client(t as u64), per_tenant)))
            .chain(hog)
            .collect();
        // One thread submits the tenants' windows round-robin while the
        // gate is held, so every run draws the same timestamps.
        for round in 0..hog_load.max(per_tenant).div_ceil(SUBMIT_CHUNK) {
            for (tenant, reqs) in &loads {
                if let Some(window) = reqs.chunks(SUBMIT_CHUNK).nth(round) {
                    let _ = svc.client().for_tenant(*tenant).submit_many(window);
                }
            }
        }
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
    let (hog_shed, hog_done) = (hogged.tenant_shed(0), hogged.tenant_latency(0).count());
    let mut ok = true;
    if hog_shed == 0 {
        eprintln!("serve: isolation: hog was never shed — quota not enforced");
        ok = false;
    }
    if hog_done > (quota * shards) as u64 {
        eprintln!("serve: isolation: hog executed {hog_done}, above quota × shards");
        ok = false;
    }
    let mut well_shed = 0;
    for t in 1..tenants {
        let shed = solo.tenant_shed(t) + hogged.tenant_shed(t);
        if shed != 0 {
            eprintln!("serve: isolation: well-behaved tenant {t} shed {shed} requests");
            ok = false;
        }
        well_shed += shed;
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
         {ISOLATION_BOUND:.1}x), hog shed {hog_shed}, hog executed {hog_done}, \
         well-behaved shed {well_shed}",
        scale.hog_factor
    );
    ok
}

/// The skew sweep's sharding modes, the hot-shard baseline first, with
/// their labels.
const SKEW_MODES: [(Sharding, &str); 2] =
    [(Sharding::Range, "static-range"), (Sharding::Hash, "hash")];

/// Range-request shares (percent of the stream) the skew grid crosses.
const SKEW_RANGE_SHARES: [u64; 2] = [5, 50];

/// Range lengths the skew grid crosses. Hash scatter sends a range to
/// every shard, so long ranges are range sharding's best ground.
const SKEW_RANGE_LENS: [u32; 2] = [8, 256];

/// A clustered-Zipf request stream: rank `r` maps *monotonically* to key
/// `r + 1`, so the hot mass is one contiguous band at the bottom of the
/// key domain. This is the adversarial case for range sharding — the
/// whole band lands on one shard — where the default generator's
/// rank-scattering golden-ratio multiply would spread it out and hide the
/// hot shard entirely. Mix: `range_share` % ranges of `range_len` keys,
/// 25% upserts, the rest queries.
fn clustered_zipf_stream(
    tree_size: usize,
    theta: f64,
    (range_share, range_len): (u64, u32),
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
        let pick = state % 100;
        let op = if pick < range_share {
            OpKind::Range { len: range_len }
        } else if pick < range_share + 25 {
            OpKind::Upsert((state >> 32) as u32)
        } else {
            OpKind::Query
        };
        out.push((key, op));
    }
    out
}

/// The skew sweep's bounded per-shard ingress queue: small enough that a
/// hot shard's backlog is a real signal (and Block submitters feel
/// backpressure), large enough to keep the pipeline fed.
const SKEW_QUEUE_DEPTH: usize = 8192;

/// Runs one skew cell: `clients` submitter threads stream the clustered
/// stream through [`submit`] with the gate open (a closed loop with
/// backpressure). Returns the report and the wall-clock rate in kreq/s,
/// from the first submission to the return of `shutdown`.
fn run_skew_cell(
    scale: &ServeScale,
    shards: usize,
    sharding: Sharding,
    theta: f64,
    ground: (u64, u32),
) -> (ServeReport, f64) {
    let spec = scale.spec(None);
    let map = workload_map(shards, spec.key_domain());
    let cfg = ServeConfig {
        sharding,
        ..scale.config(map, SKEW_QUEUE_DEPTH.min(scale.requests + 1), false)
    };
    let svc = Service::new(&pairs(&spec), cfg);
    let seed = scale.seed ^ (theta * 1e3) as u64;
    let reqs = clustered_zipf_stream(spec.tree_size, theta, ground, scale.requests, seed);
    let start = Instant::now();
    submit(&svc, &streams(&reqs, scale.clients, 0), None);
    let report = svc.shutdown();
    let wall = reqs.len() as f64 / start.elapsed().as_secs_f64() / 1e3;
    (report, wall)
}

/// Smallest tree (as a power of two) at which the 2× claim fails the
/// sweep: the paper scale.
const PAPER_TREE_EXP: u32 = 20;

/// The skew sweep: θ × range share × range length × sharding-mode grid
/// of closed-loop throughput under the clustered-Zipf stream, on both
/// clocks, with the hot-shard checks the sweep exists to guard, each on
/// every range ground. Hash scatter must beat the static hot shard at the
/// heaviest skew at every scale, and reach 2× it at θ = 1.0 at paper
/// scale (tree ≥ 2^20; below it the claim is printed, not enforced).
/// EXPERIMENTS.md ("Rebalancing or hash scatter") records a five-seed run.
pub(super) fn run_skew(scale: &ServeScale) -> i32 {
    let shards = scale.shards.first().copied().unwrap_or(8);
    eprintln!(
        "serve: skew sweep — tree 2^{}, {} requests/cell, {} shards, batch {}, \
         {} client(s), thetas {:?}, seed {}",
        scale.tree_exp,
        scale.requests,
        shards,
        scale.batch_limit,
        scale.clients.max(1),
        scale.thetas,
        scale.seed,
    );
    println!(
        "{:>6}  {:>5}  {:>4}  {:<13} {:>10}  {:>10}  {:>9}  {:>9}  {:>10}  {:>6}",
        "theta",
        "range",
        "len",
        "mode",
        "tput(M/s)",
        "vs static",
        "p50(us)",
        "p99(us)",
        "wall(k/s)",
        "epochs"
    );
    let device = scale.device();
    let enforced = scale.tree_exp >= PAPER_TREE_EXP;
    let heaviest = scale.thetas.iter().copied().fold(f64::MIN, f64::max);
    let mut all_ok = true;
    for &theta in &scale.thetas {
        for share in SKEW_RANGE_SHARES {
            for len in SKEW_RANGE_LENS {
                let mut tput = [0.0f64; 2];
                for (i, (sharding, label)) in SKEW_MODES.into_iter().enumerate() {
                    let (report, wall) =
                        run_skew_cell(scale, shards, sharding, theta, (share, len));
                    tput[i] = report.throughput();
                    let (shed, timed_out) = (report.shed(), report.timed_out());
                    if shed != 0 || timed_out != 0 {
                        eprintln!(
                            "serve: skew θ={theta} {share}%x{len} {label}: unexpected \
                             shed={shed} timed_out={timed_out}"
                        );
                        all_ok = false;
                    }
                    let lat = report.latency();
                    println!(
                        "{theta:>6.2}  {share:>4}%  {len:>4}  {label:<13} {:>10.2}  {:>9.2}x  \
                         {:>9.1}  {:>9.1}  {:>10.1}  {:>6}",
                        tput[i] / 1e6,
                        if tput[0] > 0.0 {
                            tput[i] / tput[0]
                        } else {
                            0.0
                        },
                        cycles_to_us(&device, lat.p50()),
                        cycles_to_us(&device, lat.p99()),
                        wall,
                        report.shards.iter().map(|s| s.epochs).sum::<u64>(),
                    );
                }
                let [fixed, hash] = tput;
                let cell = format!("theta_{theta}_{share}%x{len}");
                if theta == heaviest && hash <= fixed {
                    eprintln!("serve: skew check failed: hash_beats_static_at_{cell}");
                    all_ok = false;
                }
                if theta == 1.0 && hash < 2.0 * fixed {
                    let claim = format!("hash_2x_static_at_{cell}");
                    if enforced {
                        eprintln!("serve: skew check failed: {claim}");
                        all_ok = false;
                    } else {
                        eprintln!(
                            "serve: skew: {claim} did not hold; enforced at tree >= 2^{PAPER_TREE_EXP}"
                        );
                    }
                }
            }
        }
    }
    verdict(all_ok, "skew sweep passed every check")
}
