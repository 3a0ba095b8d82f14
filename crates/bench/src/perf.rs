//! `eirene-bench perf` — the wall-clock benchmark trajectory.
//!
//! Times a fixed three-scenario suite exercising the host-performance
//! hot paths (not the simulated metrics, which are host-independent):
//!
//! * **launch_heavy** — thousands of small OS-mode kernel launches on one
//!   device; dominated by launch overhead, i.e. the persistent worker
//!   pool's epoch handoff.
//! * **fuzz_heavy** — differential fuzz batches under the deterministic
//!   scheduler; dominated by det-mode token passing on bounded worker
//!   threads.
//! * **figure_sweep** — a figure-style point sweep through
//!   [`measure_all`], run once at the configured `--jobs` and once at
//!   `--jobs 1`, yielding the parallel-sweep speedup.
//! * **ingress** — 8 submitter threads race point lookups into a 4-shard
//!   service with the epoch gate held, once per admission mode: the
//!   global-lock baseline, the lock-free path one request at a time, and
//!   the lock-free path through batched `submit_many` chunks. The headline
//!   number is wall-clock submissions/sec and the speedups over the
//!   locked baseline.
//! * **combine_path** — simulated epoch-execution throughput of the
//!   coalesced descent (leaf runs + pivot cache) against the per-request
//!   baseline, over duplicate-heavy and uniform point/range mixes; fails
//!   the suite when the duplicate-heavy speedup drops below the
//!   [`SPEEDUP_FLOOR`](crate::combine::SPEEDUP_FLOOR) acceptance floor
//!   (results to `BENCH_combine.json`, `--combine-out` to override,
//!   `--combine-only` to run just this scenario).
//! * **mem_churn** — the memory-bound regression: one long-lived tree
//!   takes 2^20 delete/re-insert operations over a fixed 2^14-key working
//!   set. Merged-away and emptied nodes must recycle through the slab
//!   arena, so the final live-node count has to stay within
//!   `MEM_OCCUPANCY_FACTOR`x of the post-build count — a leak (e.g.
//!   retiring without reuse, or never retiring) fails the suite.
//!
//! Sim results go to `BENCH_sim.json` (`--out` to override), the ingress
//! results to `BENCH_serve.json` (`--serve-out`), and the churn occupancy
//! results to `BENCH_mem.json` (`--mem-out`): wall-clock per scenario,
//! work rates, speedups, and arena occupancy. `--mem-only` runs just the
//! mem_churn scenario (the CI mem-smoke job's entry point). CI runs
//! `perf --smoke` and compares the totals against the committed smoke
//! baselines so host-side regressions fail loudly.

use crate::combine::run_combine;
use crate::harness::{default_mix, jobs, measure_all, set_jobs, spec_for, Point, TreeKind};
use eirene_baselines::common::ConcurrentTree;
use eirene_check::{FuzzOptions, FuzzOutcome};
use eirene_core::{EireneOptions, EireneTree};
use eirene_serve::{
    AdmissionMode, AdmitPolicy, EpochSizing, ServeConfig, Service, ShardMap, Ticket,
};
use eirene_sim::{Device, DeviceConfig};
use eirene_telemetry::JsonValue;
use eirene_workloads::{Batch, Distribution, Key, Mix, OpKind, Request, WorkloadGen, WorkloadSpec};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn usage() -> i32 {
    eprintln!(
        "usage: eirene-bench perf [--smoke] [--jobs N] [--out PATH] [--serve-out PATH] \
         [--mem-out PATH] [--mem-only] [--combine-out PATH] [--combine-only]"
    );
    2
}

/// Shape of the ingress scenario (acceptance target: 8 threads × 4 shards,
/// batched lock-free ≥ 3× the locked baseline).
const INGRESS_THREADS: usize = 8;
const INGRESS_SHARDS: usize = 4;
/// `submit_many` chunk size of the batched mode.
const INGRESS_CHUNK: usize = 256;

/// One ingress cell: `INGRESS_THREADS` submitters push `per_thread` point
/// lookups each into a gated `INGRESS_SHARDS`-shard service under the
/// given admission mode; returns the wall-clock seconds of the submission
/// phase only (the drain after the gate release is not timed). `chunk = 1`
/// submits one request at a time; larger chunks go through `submit_many`.
fn ingress_cell(per_thread: usize, admission: AdmissionMode, chunk: usize) -> f64 {
    let spec = WorkloadSpec {
        tree_size: 1 << 12,
        batch_size: 1024,
        mix: Mix::ycsb_c(),
        distribution: Distribution::Uniform,
        seed: 0x164E55,
    };
    // Shards split the workload's key domain so submissions spread.
    let width = ((spec.key_domain() + 1) / INGRESS_SHARDS as u64).max(1) as u32;
    let map = ShardMap::from_starts((0..INGRESS_SHARDS as u32).map(|i| i * width).collect())
        .expect("valid shard starts");
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .into_iter()
        .map(|(k, v)| (k as u64, v as u64))
        .collect();
    let cfg = ServeConfig {
        map,
        device: DeviceConfig::test_small(),
        sizing: EpochSizing::Fixed(1024),
        // Everything fits queued while the gate is held; nothing blocks.
        queue_depth: INGRESS_THREADS * per_thread + 16,
        policy: AdmitPolicy::Block,
        admission,
        linger: Duration::ZERO,
        hold_gate: true,
        headroom_nodes: 1 << 12,
        replay: None,
        // The ingress scenario measures admission overhead; observability
        // must stay off so the baseline is the bare hot path.
        observe: Default::default(),
        ..ServeConfig::default()
    };
    let svc = Service::new(&pairs, cfg);
    // Generate outside the timed region: the scenario measures admission,
    // not key sampling.
    let streams: Vec<Vec<(Key, OpKind)>> = (0..INGRESS_THREADS as u64)
        .map(|t| {
            WorkloadGen::new(spec.for_client(t))
                .next_requests(per_thread)
                .into_iter()
                .map(|r| (r.key, r.op))
                .collect()
        })
        .collect();
    // Clients hold their tickets (as a real waiter would); dropping them
    // inside the timed window would charge the release to the submission
    // path. The holder outlives the measurement.
    let held: Mutex<Vec<Vec<Ticket>>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for ops in &streams {
            let client = svc.client();
            let held = &held;
            scope.spawn(move || {
                let mut tickets = Vec::with_capacity(ops.len());
                if chunk <= 1 {
                    for &(key, op) in ops {
                        tickets.push(client.submit(key, op));
                    }
                } else {
                    for sub in ops.chunks(chunk) {
                        tickets.extend(client.submit_many(sub));
                    }
                }
                held.lock().unwrap().push(tickets);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    svc.release();
    let report = svc.shutdown();
    let total = (INGRESS_THREADS * per_thread) as u64;
    assert_eq!(report.enqueued(), total, "ingress cell lost submissions");
    report.assert_consistent();
    wall
}

/// Small launches on one long-lived device: measures per-launch overhead.
/// Returns the wall time, the launch count and the OS yields they took.
fn launch_heavy(launches: usize) -> (f64, usize, u64) {
    const WARPS: usize = 32;
    const STRIDE: usize = 64;
    let dev = Device::new(1 << 16, DeviceConfig::default());
    let cells = dev.mem().alloc(WARPS * STRIDE);
    let start = Instant::now();
    for round in 0..launches as u64 {
        dev.launch("perf-launch", WARPS, |wid, ctx| {
            let mine = cells + (wid * STRIDE) as u64;
            let mut buf = [0u64; 16];
            ctx.read_block(mine, &mut buf);
            ctx.write(mine, round);
            ctx.control(4);
        });
    }
    (start.elapsed().as_secs_f64(), launches, dev.os_yields())
}

/// Deterministic-mode fuzz batches: measures det-scheduler throughput.
/// Returns `None` if the fuzzer finds a real divergence (which would make
/// the timing meaningless — and is a correctness failure to surface).
fn fuzz_heavy(batches: usize) -> Option<(f64, usize)> {
    let opts = FuzzOptions {
        seed: 0xBE9C,
        batches,
        batch_size: 128,
        ..Default::default()
    };
    let start = Instant::now();
    match eirene_check::run_fuzz(&opts) {
        FuzzOutcome::Passed { cases } => Some((start.elapsed().as_secs_f64(), cases)),
        FuzzOutcome::Failed(f) => {
            eprintln!("perf: fuzz_heavy scenario found a divergence:\n{f}");
            None
        }
    }
}

/// The mem_churn pass/fail bound: final live nodes may not exceed this
/// multiple of the post-build live-node count. Matches the churn fuzz
/// leg's default `occupancy_factor` (`eirene_check::ChurnOptions`); the
/// steady state observed in practice is ~1.0x.
const MEM_OCCUPANCY_FACTOR: u64 = 4;
/// Requests per batch in the mem_churn scenario; every batch boundary is
/// an epoch advance, so this is also the reclamation granularity.
const MEM_BATCH: usize = 1024;

/// Slab-arena occupancy figures of one [`mem_churn`] run.
struct MemChurn {
    ops: usize,
    working_set: u32,
    post_build_live: u64,
    final_live: u64,
    retired: u64,
    reused: u64,
    bump_allocs: u64,
    /// `sched_yield`s the tree's device took: warp interleaving in situ.
    os_yields: u64,
}

/// Sustained delete/re-insert churn over a fixed working set on one
/// long-lived tree: the memory-bound regression. Builds `working_set`
/// keys, then drives `total_ops` requests in [`MEM_BATCH`]-sized batches
/// that flip tracked keys out of and back into the tree — leaves merge
/// and borrow on the way down, split on the way back up, and every batch
/// boundary advances the reclamation epoch so the retired nodes must
/// recycle. Returns `None` when the arena leaked: final occupancy above
/// [`MEM_OCCUPANCY_FACTOR`]x post-build, or quarantine not drained.
fn mem_churn(total_ops: usize, working_set: u32) -> Option<(f64, MemChurn)> {
    let pairs: Vec<(u64, u64)> = (1..=working_set as u64).map(|k| (k, k + 1)).collect();
    let mut tree = EireneTree::new(&pairs, EireneOptions::test_small());
    let post_build_live = tree.device().mem().slab_stats().live;
    // Keys present in the tree right now; deletes only target present keys
    // so every delete is a real removal (and roughly half the working set
    // is absent at steady state, keeping merges active).
    let mut present = vec![true; working_set as usize + 1];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut ts = 0u64;
    let start = Instant::now();
    let mut remaining = total_ops;
    while remaining > 0 {
        let n = remaining.min(MEM_BATCH);
        let mut reqs = Vec::with_capacity(n);
        for _ in 0..n {
            let key = 1 + (rng() % working_set as u64) as u32;
            ts += 1;
            if present[key as usize] {
                reqs.push(Request::delete(key, ts));
            } else {
                reqs.push(Request::upsert(key, key + 1, ts));
            }
            present[key as usize] = !present[key as usize];
        }
        tree.run_batch(&Batch::new(reqs));
        remaining -= n;
    }
    let wall = start.elapsed().as_secs_f64();
    let st = tree.device().mem().slab_stats();
    let stats = MemChurn {
        ops: total_ops,
        working_set,
        post_build_live,
        final_live: st.live,
        retired: st.retired,
        reused: st.reused,
        bump_allocs: st.bump_allocs,
        os_yields: tree.device().os_yields(),
    };
    if st.retired != 0 {
        eprintln!(
            "perf: mem_churn FAILED: {} node blocks still quarantined after the final epoch \
             advance",
            st.retired
        );
        return None;
    }
    let bound = post_build_live.max(1) * MEM_OCCUPANCY_FACTOR;
    if st.live > bound {
        eprintln!(
            "perf: mem_churn FAILED: {} live node blocks after churn vs {} post-build \
             (bound {}x = {bound}): the arena is leaking",
            st.live, post_build_live, MEM_OCCUPANCY_FACTOR
        );
        return None;
    }
    Some((wall, stats))
}

/// Runs the mem_churn scenario and writes its occupancy doc to `mem_out`;
/// the shared tail of the full suite and `--mem-only`.
fn run_mem(smoke: bool, mem_out: &str) -> i32 {
    // Full mode is the acceptance shape (2^20 ops over 2^14 keys); smoke
    // keeps the same churn structure at CI scale.
    let (ops, working_set) = if smoke {
        (1 << 16, 1 << 12)
    } else {
        (1 << 20, 1 << 14)
    };
    let Some((wall, m)) = mem_churn(ops, working_set) else {
        return 1;
    };
    let ratio = m.final_live as f64 / m.post_build_live.max(1) as f64;
    eprintln!(
        "perf: mem_churn      {wall:8.3}s  ({:.0} ops/s, {:.2} OS yields/req, occupancy \
         {ratio:.2}x of {} post-build nodes, {} reuses, {} bump allocs)",
        m.ops as f64 / wall.max(1e-9),
        m.os_yields as f64 / m.ops as f64,
        m.post_build_live,
        m.reused,
        m.bump_allocs,
    );
    let doc = JsonValue::obj(vec![
        ("schema_version", JsonValue::from(1u64)),
        ("suite", JsonValue::from("eirene-bench perf (mem churn)")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("ops", JsonValue::from(m.ops as u64)),
        ("working_set", JsonValue::from(m.working_set as u64)),
        ("batch", JsonValue::from(MEM_BATCH as u64)),
        ("post_build_live", JsonValue::from(m.post_build_live)),
        ("final_live", JsonValue::from(m.final_live)),
        ("occupancy_ratio", JsonValue::from(ratio)),
        ("occupancy_bound", JsonValue::from(MEM_OCCUPANCY_FACTOR)),
        ("retired", JsonValue::from(m.retired)),
        ("reused", JsonValue::from(m.reused)),
        ("bump_allocs", JsonValue::from(m.bump_allocs)),
        ("wall_s", JsonValue::from(wall)),
        ("ops_per_s", JsonValue::from(m.ops as f64 / wall.max(1e-9))),
    ]);
    if let Err(e) = std::fs::write(mem_out, doc.to_json() + "\n") {
        eprintln!("perf: could not write {mem_out}: {e}");
        return 1;
    }
    eprintln!("perf: mem churn results written to {mem_out}");
    0
}

/// Figure-style sweep points (fig7 shape, scaled to the suite mode).
fn sweep_points(smoke: bool) -> Vec<Point> {
    let (exps, batch, repeats): (Vec<u32>, usize, usize) = if smoke {
        (vec![10, 11], 1 << 10, 2)
    } else {
        (vec![12, 13, 14], 1 << 14, 3)
    };
    let mut points = Vec::new();
    for kind in [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene] {
        for &e in &exps {
            points.push(Point::new(
                kind,
                spec_for(e, batch, default_mix(), 7),
                repeats,
            ));
        }
    }
    points
}

fn scenario_doc(wall_s: f64, work_key: &str, work: usize) -> JsonValue {
    JsonValue::obj(vec![
        ("wall_s", JsonValue::from(wall_s)),
        (work_key, JsonValue::from(work as u64)),
        (
            &format!("{work_key}_per_s"),
            JsonValue::from(if wall_s > 0.0 {
                work as f64 / wall_s
            } else {
                0.0
            }),
        ),
    ])
}

/// Parses `perf` arguments and runs the suite; returns the process exit
/// code.
pub fn run(args: &[String]) -> i32 {
    let mut smoke = false;
    let mut mem_only = false;
    let mut combine_only = false;
    let mut out = String::from("BENCH_sim.json");
    let mut serve_out = String::from("BENCH_serve.json");
    let mut mem_out = String::from("BENCH_mem.json");
    let mut combine_out = String::from("BENCH_combine.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--mem-only" => mem_only = true,
            "--combine-only" => combine_only = true,
            "--combine-out" => match it.next() {
                Some(path) => combine_out = path.clone(),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => return usage(),
            },
            "--serve-out" => match it.next() {
                Some(path) => serve_out = path.clone(),
                None => return usage(),
            },
            "--mem-out" => match it.next() {
                Some(path) => mem_out = path.clone(),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => set_jobs(n),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if mem_only {
        eprintln!(
            "perf: mem_churn only, {} suite",
            if smoke { "smoke" } else { "full" }
        );
        return run_mem(smoke, &mem_out);
    }
    if combine_only {
        eprintln!(
            "perf: combine_path only, {} suite",
            if smoke { "smoke" } else { "full" }
        );
        return run_combine(smoke, &combine_out);
    }
    let j = jobs();
    set_jobs(j); // pin, so the jobs-1 detour below restores exactly
    let mode = if smoke { "smoke" } else { "full" };
    eprintln!("perf: {mode} suite, jobs {j}");
    let total = Instant::now();

    let (launch_wall, launches, launch_yields) = launch_heavy(if smoke { 300 } else { 3000 });
    eprintln!(
        "perf: launch_heavy   {launch_wall:8.3}s  ({:.0} launches/s, {:.2} OS yields/launch)",
        launches as f64 / launch_wall.max(1e-9),
        launch_yields as f64 / launches as f64
    );

    let Some((fuzz_wall, cases)) = fuzz_heavy(if smoke { 6 } else { 40 }) else {
        return 1;
    };
    eprintln!(
        "perf: fuzz_heavy     {fuzz_wall:8.3}s  ({:.1} cases/s)",
        cases as f64 / fuzz_wall.max(1e-9)
    );

    // The memory-bound regression reports to its own baseline file
    // (BENCH_mem.json) and fails the suite on an arena leak.
    let rc = run_mem(smoke, &mem_out);
    if rc != 0 {
        return rc;
    }

    // The combine-path scenario reports to BENCH_combine.json and fails
    // the suite when coalesced epoch execution loses its floor over the
    // per-request baseline on the duplicate-heavy mix.
    let rc = run_combine(smoke, &combine_out);
    if rc != 0 {
        return rc;
    }

    let points = sweep_points(smoke);
    let start = Instant::now();
    measure_all(&points);
    let sweep_wall = start.elapsed().as_secs_f64();
    set_jobs(1);
    let start = Instant::now();
    measure_all(&points);
    let sweep_serial_wall = start.elapsed().as_secs_f64();
    set_jobs(j);
    let speedup = sweep_serial_wall / sweep_wall.max(1e-9);
    eprintln!(
        "perf: figure_sweep   {sweep_wall:8.3}s  ({:.1} points/s, {speedup:.2}x vs --jobs 1 at {:.3}s)",
        points.len() as f64 / sweep_wall.max(1e-9),
        sweep_serial_wall
    );

    let total_wall = total.elapsed().as_secs_f64();

    // The ingress scenario is reported to its own baseline file: its
    // wall-clock tracks the serve front door, not the simulator.
    let per_thread = if smoke { 16_000 } else { 40_000 };
    let submissions = INGRESS_THREADS * per_thread;
    // Best of five repetitions per mode: each cell is only tens of
    // milliseconds of timed submission, so a single stray scheduler
    // hiccup would otherwise dominate the ratio.
    let best_of = |admission: AdmissionMode, chunk: usize| {
        (0..5)
            .map(|_| ingress_cell(per_thread, admission, chunk))
            .fold(f64::MAX, f64::min)
    };
    let ingress_total = Instant::now();
    let locked_wall = best_of(AdmissionMode::GlobalLock, 1);
    let lockfree_wall = best_of(AdmissionMode::LockFree, 1);
    let batched_wall = best_of(AdmissionMode::LockFree, INGRESS_CHUNK);
    let ingress_total_wall = ingress_total.elapsed().as_secs_f64();
    let speedup_lockfree = locked_wall / lockfree_wall.max(1e-9);
    let speedup_batched = locked_wall / batched_wall.max(1e-9);
    let rate = |wall: f64| submissions as f64 / wall.max(1e-9);
    eprintln!(
        "perf: ingress        {ingress_total_wall:8.3}s  ({INGRESS_THREADS} threads x {INGRESS_SHARDS} shards, \
         {:.0}/s locked, {:.0}/s lock-free ({speedup_lockfree:.2}x), \
         {:.0}/s batched ({speedup_batched:.2}x)",
        rate(locked_wall),
        rate(lockfree_wall),
        rate(batched_wall),
    );
    let mode_doc = |wall: f64| {
        JsonValue::obj(vec![
            ("wall_s", JsonValue::from(wall)),
            ("submissions", JsonValue::from(submissions as u64)),
            ("submissions_per_s", JsonValue::from(rate(wall))),
        ])
    };
    let serve_doc = JsonValue::obj(vec![
        ("schema_version", JsonValue::from(1u64)),
        ("suite", JsonValue::from("eirene-bench perf (ingress)")),
        ("mode", JsonValue::from(mode)),
        ("threads", JsonValue::from(INGRESS_THREADS as u64)),
        ("shards", JsonValue::from(INGRESS_SHARDS as u64)),
        ("chunk", JsonValue::from(INGRESS_CHUNK as u64)),
        (
            "scenarios",
            JsonValue::obj(vec![
                ("locked_single", mode_doc(locked_wall)),
                ("lockfree_single", mode_doc(lockfree_wall)),
                ("lockfree_batched", mode_doc(batched_wall)),
            ]),
        ),
        (
            "speedup_lockfree_vs_locked",
            JsonValue::from(speedup_lockfree),
        ),
        (
            "speedup_batched_vs_locked",
            JsonValue::from(speedup_batched),
        ),
        ("total_wall_s", JsonValue::from(ingress_total_wall)),
    ]);
    if let Err(e) = std::fs::write(&serve_out, serve_doc.to_json() + "\n") {
        eprintln!("perf: could not write {serve_out}: {e}");
        return 1;
    }
    eprintln!("perf: ingress results written to {serve_out}");

    let mut sweep_doc = scenario_doc(sweep_wall, "points", points.len());
    if let JsonValue::Obj(fields) = &mut sweep_doc {
        fields.push(("wall_s_jobs1".into(), JsonValue::from(sweep_serial_wall)));
        fields.push(("speedup_vs_jobs1".into(), JsonValue::from(speedup)));
    }
    let doc = JsonValue::obj(vec![
        ("schema_version", JsonValue::from(1u64)),
        ("suite", JsonValue::from("eirene-bench perf")),
        ("mode", JsonValue::from(mode)),
        ("jobs", JsonValue::from(j as u64)),
        (
            "scenarios",
            JsonValue::obj(vec![
                (
                    "launch_heavy",
                    scenario_doc(launch_wall, "launches", launches),
                ),
                ("fuzz_heavy", scenario_doc(fuzz_wall, "cases", cases)),
                ("figure_sweep", sweep_doc),
            ]),
        ),
        ("total_wall_s", JsonValue::from(total_wall)),
    ]);
    match std::fs::write(&out, doc.to_json() + "\n") {
        Ok(()) => {
            eprintln!("perf: total {total_wall:.3}s, wrote {out}");
            0
        }
        Err(e) => {
            eprintln!("perf: could not write {out}: {e}");
            1
        }
    }
}
