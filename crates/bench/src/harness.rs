//! Shared measurement machinery: tree construction, batch execution,
//! metric extraction.

use eirene_baselines::{common::ConcurrentTree, LockTree, NoCcTree, StmTree};
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{DeviceConfig, KernelStats};
use eirene_workloads::{Batch, Mix, WorkloadGen, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Host threads figure sweeps fan measurement units across. 0 = unset,
/// which resolves to the machine's available parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the sweep parallelism (the `--jobs N` CLI flag). `1` reproduces
/// the serial execution order exactly.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// Sweep parallelism currently in effect (defaults to available host
/// parallelism when `set_jobs` was never called).
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Runs `work(i)` for every `i in 0..n`, fanned across up to [`jobs`]
/// host threads, and returns the results in index order. With one job (or
/// one unit) the calling thread runs every index in order — byte-for-byte
/// the serial behaviour. A panicking unit propagates to the caller.
pub(crate) fn run_indexed<R: Send>(n: usize, work: &(dyn Fn(usize) -> R + Sync)) -> Vec<R> {
    let workers = jobs().min(n);
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = work(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every claimed unit stores a result")
        })
        .collect()
}

/// Which concurrent tree to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeKind {
    /// GB-tree without concurrency control (Fig. 1 ideal floor).
    NoCc,
    /// STM GB-tree (Holey & Zhai).
    Stm,
    /// Lock GB-tree (Awad et al.).
    Lock,
    /// Eirene with combining only (locality off) — the "+ Combining"
    /// ablation bar of Fig. 11.
    EireneCombining,
    /// Full Eirene (combining + locality-aware warp reorganization).
    Eirene,
}

impl TreeKind {
    pub fn label(self) -> &'static str {
        match self {
            TreeKind::NoCc => "GB-tree w/o concurrent control",
            TreeKind::Stm => "STM GB-tree",
            TreeKind::Lock => "Lock GB-tree",
            TreeKind::EireneCombining => "+ Combining",
            TreeKind::Eirene => "Eirene",
        }
    }
}

/// Experiment scale: which tree sizes to sweep and how large batches are.
#[derive(Clone, Debug, PartialEq)]
pub struct Scale {
    /// Tree-size exponents swept by the size figures (paper: 23..=26).
    pub tree_exps: Vec<u32>,
    /// Exponent used by single-size figures (paper: 23).
    pub default_exp: u32,
    /// Requests per batch (paper: 1M).
    pub batch_size: usize,
    /// Repetitions for averaging / QoS variance (paper: 5 runs, 50 for
    /// response times).
    pub repeats: usize,
}

impl Default for Scale {
    /// CPU-friendly default documented in DESIGN.md: the instruction and
    /// conflict metrics depend only on tree *height* and contention, so a
    /// height-shifted sweep preserves every relative curve.
    fn default() -> Self {
        Scale {
            tree_exps: vec![14, 15, 16, 17],
            default_exp: 14,
            batch_size: 1 << 16,
            repeats: 5,
        }
    }
}

impl Scale {
    /// The paper's original scale (needs ~tens of GiB and hours on CPU).
    pub fn paper() -> Self {
        Scale {
            tree_exps: vec![23, 24, 25, 26],
            default_exp: 23,
            batch_size: 1 << 20,
            repeats: 5,
        }
    }

    /// An even smaller scale for smoke tests.
    pub fn smoke() -> Self {
        Scale {
            tree_exps: vec![10, 11],
            default_exp: 10,
            batch_size: 1 << 10,
            repeats: 2,
        }
    }
}

/// Metrics extracted from running one workload configuration, averaged
/// over `repeats` batches; response-time extrema are across repeats, which
/// is how the paper measures QoS (§8.1: per-request time averaged per
/// batch, max/min over repeated tests).
#[derive(Clone, Debug)]
pub struct Measurement {
    pub tree: TreeKind,
    pub tree_exp: u32,
    /// Throughput in requests/second.
    pub throughput: f64,
    /// Average per-request response time in nanoseconds.
    pub avg_ns: f64,
    /// Fastest whole-batch per-request time across repeats.
    pub min_ns: f64,
    /// Slowest whole-batch per-request time across repeats.
    pub max_ns: f64,
    /// Median per-request response time (ns) from the merged latency
    /// histogram (bucket-midpoint estimate, ≤3.2% relative error).
    pub p50_ns: f64,
    /// 90th-percentile per-request response time (ns).
    pub p90_ns: f64,
    /// 99th-percentile per-request response time (ns).
    pub p99_ns: f64,
    /// 99.9th-percentile per-request response time (ns).
    pub p999_ns: f64,
    /// Warp-issued memory instructions per batch request.
    pub mem_insts: f64,
    /// Control-flow instructions per batch request.
    pub control_insts: f64,
    /// Conflicts (lock + STM aborts + version failures) per batch request.
    pub conflicts: f64,
    /// Traversal steps per *issued* tree traversal.
    pub steps: f64,
    /// Kernel stats merged across repeats: per-phase rows, the latency
    /// histogram, and (when tracing) the per-warp event log.
    pub stats: KernelStats,
}

impl Measurement {
    /// The paper's QoS metric: worst-side deviation of response time from
    /// the average, as a fraction of the average.
    pub fn response_variance(&self) -> f64 {
        if self.avg_ns == 0.0 {
            return 0.0;
        }
        ((self.max_ns - self.avg_ns).max(self.avg_ns - self.min_ns)) / self.avg_ns
    }
}

/// Builds the workload spec used by a figure.
pub fn spec_for(exp: u32, batch: usize, mix: Mix, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        tree_size: 1 << exp,
        batch_size: batch,
        mix,
        distribution: eirene_workloads::Distribution::Uniform,
        seed,
    }
}

fn build_tree(
    kind: TreeKind,
    pairs: &[(u64, u64)],
    cfg: DeviceConfig,
    headroom: usize,
) -> Box<dyn ConcurrentTree> {
    match kind {
        TreeKind::NoCc => Box::new(NoCcTree::new(pairs, cfg)),
        TreeKind::Stm => Box::new(StmTree::new(pairs, cfg, headroom)),
        TreeKind::Lock => Box::new(LockTree::new(pairs, cfg, headroom)),
        TreeKind::EireneCombining | TreeKind::Eirene => {
            let opts = EireneOptions {
                device: cfg,
                locality: kind == TreeKind::Eirene,
                headroom_nodes: headroom,
                ..Default::default()
            };
            Box::new(EireneTree::new(pairs, opts))
        }
    }
}

/// One figure data point: a tree kind run against a workload spec for
/// `repeats` fresh executions. Points are the unit of fan-out in
/// [`measure_all`].
#[derive(Clone, Debug)]
pub struct Point {
    pub kind: TreeKind,
    pub spec: WorkloadSpec,
    pub repeats: usize,
}

impl Point {
    pub fn new(kind: TreeKind, spec: WorkloadSpec, repeats: usize) -> Self {
        Point {
            kind,
            spec,
            repeats,
        }
    }
}

/// Deterministic lazy batch supply for one point: batch `r` is always the
/// `r`-th batch the generator produces, no matter which worker thread asks
/// first, so parallel sweeps consume the identical batch sequence the
/// serial loop did. Out-of-order batches are parked; the window is
/// bounded by the number of in-flight repeats (≤ [`jobs`]).
struct BatchSource {
    gen: WorkloadGen,
    produced: usize,
    parked: Vec<(usize, Batch)>,
}

impl BatchSource {
    fn new(spec: &WorkloadSpec) -> Self {
        BatchSource {
            gen: WorkloadGen::new(spec.clone()),
            produced: 0,
            parked: Vec::new(),
        }
    }

    fn take(&mut self, want: usize) -> Batch {
        if let Some(pos) = self.parked.iter().position(|(i, _)| *i == want) {
            return self.parked.swap_remove(pos).1;
        }
        loop {
            let batch = self.gen.next_batch();
            let idx = self.produced;
            self.produced += 1;
            if idx == want {
                return batch;
            }
            self.parked.push((idx, batch));
        }
    }
}

/// Shared per-point state touched by its repeat units.
struct PointState<'a> {
    point: &'a Point,
    /// Bulk-load pairs, built once per point by whichever unit gets there
    /// first (they are identical for every repeat).
    pairs: OnceLock<Vec<(u64, u64)>>,
    source: Mutex<BatchSource>,
}

/// Everything one repeat contributes to its point's measurement.
struct RepeatOutcome {
    per_req_ns: f64,
    tput: f64,
    mem: f64,
    ctrl: f64,
    confl: f64,
    steps: f64,
    cyc_to_ns: f64,
    stats: KernelStats,
}

fn run_repeat(state: &PointState<'_>, r: usize, device_cfg: &DeviceConfig) -> RepeatOutcome {
    let spec = &state.point.spec;
    let pairs = state.pairs.get_or_init(|| {
        spec.initial_pairs()
            .iter()
            .map(|&(k, v)| (k as u64, v as u64))
            .collect()
    });
    // Headroom: worst case every update is an insert into a fresh leaf.
    let updates = (spec.batch_size as f64 * (spec.mix.upsert + 0.01)) as usize;
    let headroom = (updates * 2).max(1 << 12);
    let batch = {
        let mut source = state.source.lock().unwrap_or_else(|e| e.into_inner());
        source.take(r)
    };
    let mut tree = build_tree(state.point.kind, pairs, device_cfg.clone(), headroom);
    let run = tree.run_batch(&batch);
    let cfg = tree.device().config();
    let secs = cfg.cycles_to_secs(run.stats.makespan_cycles);
    let n = batch.len() as f64;
    RepeatOutcome {
        per_req_ns: secs * 1e9 / n,
        tput: n / secs,
        mem: run.stats.totals.mem_insts as f64 / n,
        ctrl: run.stats.totals.control_insts as f64 / n,
        confl: run.stats.totals.conflicts() as f64 / n,
        // Steps per processed (issued) request, as in Fig. 10.
        steps: run.stats.steps_per_request(),
        cyc_to_ns: cfg.cycles_to_secs(1.0) * 1e9,
        stats: run.stats,
    }
}

/// Folds a point's repeat outcomes — strictly in repeat order, so float
/// accumulation, event forwarding, and stats merging match the serial
/// loop exactly — into the averaged [`Measurement`].
fn finish_point(point: &Point, outcomes: Vec<RepeatOutcome>) -> Measurement {
    let repeats = outcomes.len();
    let mut per_req_ns = Vec::with_capacity(repeats);
    let mut tput_sum = 0.0;
    let mut mem = 0.0;
    let mut ctrl = 0.0;
    let mut confl = 0.0;
    let mut steps = 0.0;
    let mut agg = KernelStats::default();
    let mut cyc_to_ns = 1.0;
    for o in outcomes {
        per_req_ns.push(o.per_req_ns);
        tput_sum += o.tput;
        mem += o.mem;
        ctrl += o.ctrl;
        confl += o.confl;
        steps += o.steps;
        cyc_to_ns = o.cyc_to_ns;
        crate::metrics::record_events(&o.stats.totals.events);
        agg.absorb(o.stats);
    }
    // The event log has been forwarded; don't carry a second copy.
    agg.totals.events.clear();
    let r = repeats as f64;
    let avg_ns = per_req_ns.iter().sum::<f64>() / r;
    let m = Measurement {
        tree: point.kind,
        tree_exp: point.spec.tree_size.trailing_zeros(),
        throughput: tput_sum / r,
        avg_ns,
        min_ns: per_req_ns.iter().copied().fold(f64::INFINITY, f64::min),
        max_ns: per_req_ns.iter().copied().fold(0.0, f64::max),
        p50_ns: agg.response_quantile_cycles(0.50) as f64 * cyc_to_ns,
        p90_ns: agg.response_quantile_cycles(0.90) as f64 * cyc_to_ns,
        p99_ns: agg.response_quantile_cycles(0.99) as f64 * cyc_to_ns,
        p999_ns: agg.response_quantile_cycles(0.999) as f64 * cyc_to_ns,
        mem_insts: mem / r,
        control_insts: ctrl / r,
        conflicts: confl / r,
        steps: steps / r,
        stats: agg,
    };
    crate::metrics::record_measurement(&m);
    m
}

/// Measures every point, fanning the individual (point, repeat) executions
/// across up to [`jobs`] host threads. Each repeat is a fresh execution —
/// a freshly bulk-loaded tree processing one batch (§8.1, "all results
/// are averaged by 5-time executions") — and is therefore independent of
/// every other unit, which is what makes the fan-out sound. Results come
/// back in point order, folded in repeat order, so `--jobs 1` reproduces
/// the serial code path exactly.
pub fn measure_all(points: &[Point]) -> Vec<Measurement> {
    let device_cfg = sweep_device_cfg(crate::metrics::device_config(), jobs());
    let states: Vec<PointState<'_>> = points
        .iter()
        .map(|point| PointState {
            point,
            pairs: OnceLock::new(),
            source: Mutex::new(BatchSource::new(&point.spec)),
        })
        .collect();
    // Flatten to (point, repeat) units, point-major, so the serial claim
    // order equals the old nested loops.
    let mut unit_of = Vec::new();
    for (pi, point) in points.iter().enumerate() {
        for r in 0..point.repeats {
            unit_of.push((pi, r));
        }
    }
    let outcomes = run_indexed(unit_of.len(), &|u| {
        let (pi, r) = unit_of[u];
        run_repeat(&states[pi], r, &device_cfg)
    });
    let mut it = outcomes.into_iter();
    points
        .iter()
        .map(|point| {
            let reps: Vec<RepeatOutcome> = (0..point.repeats)
                .map(|_| it.next().expect("one outcome per unit"))
                .collect();
            finish_point(point, reps)
        })
        .collect()
}

/// Per-device worker budget for parallel sweeps. Every in-flight repeat
/// builds a fresh `Device` whose lazy pool holds `effective_workers()`
/// threads; left at the auto default with `--jobs` at host parallelism,
/// that compounds to roughly `2 × cores²` live threads (~8k parked threads
/// on a 64-core host). When the sweep itself is parallel, divide the auto
/// worker count across the jobs — with a floor of 4 so cross-warp
/// interleaving (and the genuine lock/STM contention the conflict counters
/// depend on) survives. An explicitly pinned `worker_threads` is the
/// user's call and passes through untouched, and `--jobs 1` changes
/// nothing, preserving the serial path byte-for-byte.
fn sweep_device_cfg(mut cfg: DeviceConfig, jobs: usize) -> DeviceConfig {
    if jobs > 1 && cfg.worker_threads == 0 {
        cfg.worker_threads = (cfg.effective_workers() / jobs).max(4);
    }
    cfg
}

/// Runs `repeats` independent tests of one workload configuration and
/// returns the averaged measurement. Cross-test max/min response times
/// feed the QoS figures; run-to-run differences come from batch
/// composition and genuine scheduling nondeterminism in conflict handling
/// (near-zero for Eirene, real for the baselines). Repeats fan out across
/// [`jobs`] threads via [`measure_all`].
pub fn measure(kind: TreeKind, spec: &WorkloadSpec, repeats: usize) -> Measurement {
    measure_all(&[Point::new(kind, spec.clone(), repeats)])
        .pop()
        .expect("one measurement per point")
}

/// Directory CSV results land in: `$EIRENE_RESULTS_DIR` when set, else
/// cwd-relative `results/`. Resolved (and logged) once per process so
/// parallel CI jobs can point runs at disjoint directories.
fn results_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::var_os("EIRENE_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results"));
        eprintln!("results: writing CSV files under {}", dir.display());
        dir
    })
}

/// Writes rows as CSV under `<results_dir>/<name>.csv` (best effort) and
/// mirrors the table into the metrics sink when one is active.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    crate::metrics::record_table(name, header, rows);
    let dir = results_dir();
    let _ = std::fs::create_dir_all(dir);
    let body = format!("{header}\n{}\n", rows.join("\n"));
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Default read-heavy mix (95% query / 5% update, §8.1).
pub fn default_mix() -> Mix {
    Mix::read_heavy()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_smoke_all_trees() {
        let spec = spec_for(10, 512, default_mix(), 3);
        for kind in [
            TreeKind::NoCc,
            TreeKind::Stm,
            TreeKind::Lock,
            TreeKind::EireneCombining,
            TreeKind::Eirene,
        ] {
            let m = measure(kind, &spec, 1);
            assert!(m.throughput > 0.0, "{kind:?}");
            assert!(m.mem_insts > 0.0, "{kind:?}");
            assert!(m.avg_ns > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn eirene_beats_stm_on_default_mix() {
        // Batch large enough to amortize Eirene's fixed kernel-launch and
        // sort overheads AND to fill the device's warp seats in the update
        // kernel (the paper uses 1M-request batches): with a 5% update
        // mix, smaller batches leave the update kernel under-occupied,
        // and under the honest occupancy model (no imaginary speedup for
        // empty warp seats) its makespan is then bounded by per-warp
        // serial time.
        //
        // Both throughputs are simulated, but under OS scheduling a
        // starved host stretches the update kernel's makespan and the
        // verdict followed host load. The deterministic scheduler makes
        // it a pure function of (seed, workload); it serializes warps, so
        // the device shrinks (8 warp seats, 2^13 requests — ~400 updates,
        // 13 request groups, seats still full) instead of the occupancy.
        let spec = spec_for(12, 1 << 13, default_mix(), 5);
        let cfg = DeviceConfig::test_small().with_deterministic_sched(5);
        let throughput = |kind| {
            let point = Point::new(kind, spec.clone(), 1);
            let state = PointState {
                point: &point,
                pairs: OnceLock::new(),
                source: Mutex::new(BatchSource::new(&spec)),
            };
            run_repeat(&state, 0, &cfg).tput
        };
        let (stm, eirene) = (throughput(TreeKind::Stm), throughput(TreeKind::Eirene));
        assert!(eirene > stm, "eirene {eirene:.1e} <= stm {stm:.1e}");
    }

    #[test]
    fn sweep_device_cfg_divides_workers_across_jobs() {
        let auto = DeviceConfig::default();
        // Serial sweep: untouched (byte-identical serial path).
        assert_eq!(sweep_device_cfg(auto.clone(), 1).worker_threads, 0);
        // Parallel sweep: auto workers split across jobs, floored at 4 so
        // per-device cross-warp contention survives.
        let split = sweep_device_cfg(auto.clone(), 2);
        assert_eq!(split.worker_threads, (auto.effective_workers() / 2).max(4));
        let many = sweep_device_cfg(auto.clone(), 10_000);
        assert_eq!(many.worker_threads, 4);
        // An explicit pin is the user's call.
        let pinned = DeviceConfig {
            worker_threads: 3,
            ..DeviceConfig::default()
        };
        assert_eq!(sweep_device_cfg(pinned, 8).worker_threads, 3);
    }

    #[test]
    fn response_variance_definition() {
        let m = Measurement {
            tree: TreeKind::Eirene,
            tree_exp: 10,
            throughput: 0.0,
            avg_ns: 10.0,
            min_ns: 8.0,
            max_ns: 11.0,
            p50_ns: 0.0,
            p90_ns: 0.0,
            p99_ns: 0.0,
            p999_ns: 0.0,
            mem_insts: 0.0,
            control_insts: 0.0,
            conflicts: 0.0,
            steps: 0.0,
            stats: KernelStats::default(),
        };
        assert!((m.response_variance() - 0.2).abs() < 1e-12);
    }
}
