//! Isolation cells: each primitive timed alone on batch-shaped inputs
//! (Stuart & Owens: measure the primitive in isolation, then in situ, and
//! report both), and the paper-shape guard against the baseline trees.

use crate::workloads::{device, Shape, Workload, SERVE_WORKERS, TREE_WORKERS};
use eirene_baselines::{ConcurrentTree, LockTree, StmTree};
use eirene_btree::build::{arena_budget, bulk_build};
use eirene_btree::{refops, validate::validate};
use eirene_core::pivot::PivotCache;
use eirene_core::plan::build_plan;
use eirene_core::{EireneOptions, EireneTree};
use eirene_primitives::radix_sort_pairs;
use eirene_sim::{mix64, Device};
use eirene_workloads::{Batch, WorkloadGen};
use std::hint::black_box;
use std::time::Instant;

/// Batches of each tree workload the baseline trees are run on.
const BASELINE_BATCHES: usize = 20;

/// Mean seconds per call of `call`, which returns the seconds it measured
/// itself (so input preparation stays outside). Runs until 1000 calls or one
/// measured second, a tenth of both under `--smoke`.
fn mean_secs(smoke: bool, mut call: impl FnMut() -> f64) -> f64 {
    let (max_calls, max_secs) = if smoke { (100, 0.1) } else { (1000, 1.0) };
    let (mut calls, mut total) = (0, 0.0);
    while calls < max_calls && total < max_secs {
        total += call();
        calls += 1;
    }
    total / calls as f64
}

fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Every isolation cell, as per-layer metric values.
pub fn cells(seed: u64, smoke: bool) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64| out.push((name.to_string(), value));
    let cfg = device(SERVE_WORKERS);
    // Inputs shaped like `serve_bulk`'s: 2^18 keys (fits the pivot frontier,
    // like three of the four workloads), its mix, uniform keys.
    let spec = Workload::by_name("serve_bulk")
        .expect("a workload")
        .spec(16384, seed);
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .iter()
        .map(|&(k, v)| (k as u64, v as u64))
        .collect();
    let domain = spec.key_domain();
    let mut gen = WorkloadGen::new(spec);
    let n = 16384.0;

    // primitives: the radix sort under `build_plan`, on 16384 composite keys.
    let mut x = seed;
    let keys: Vec<u64> = (0..16384u64)
        .map(|rank| {
            x = mix64(x);
            ((x % domain) << 32) | rank
        })
        .collect();
    let payloads: Vec<u32> = (0..16384).collect();
    let mut sort_cycles = 0;
    let per_sort = mean_secs(smoke, || {
        let (mut k, mut p) = (keys.clone(), payloads.clone());
        time(|| sort_cycles = radix_sort_pairs(&mut k, &mut p, &cfg).cycles)
    });
    push("primitives.sort_host_ns_per_key", per_sort * 1e9 / n);
    push("primitives.sort_sim_cycles_per_key", sort_cycles as f64 / n);

    // plan: `build_plan` at the epoch sizes of serve_small, serve_bulk and
    // the direct-tree workloads.
    for size in [32usize, 512, 16384] {
        let per_plan = mean_secs(smoke, || {
            let batch = Batch::new(gen.next_requests(size));
            time(|| build_plan(&batch, &cfg))
        });
        push(
            &format!("plan.host_ns_per_req.b{size}"),
            per_plan * 1e9 / size as f64,
        );
    }

    // btree and pivot, on one bulk-loaded tree.
    let words = arena_budget(pairs.len(), 1 << 10);
    let per_build = mean_secs(smoke, || {
        let fresh = Device::new(words, cfg.clone());
        time(|| bulk_build(fresh.mem(), &pairs))
    });
    push("btree.bulk_build_host_ms", per_build * 1e3);
    let dev = Device::new(words, cfg.clone());
    let tree = bulk_build(dev.mem(), &pairs);
    push(
        "btree.validate_host_ms",
        mean_secs(smoke, || time(|| validate(dev.mem(), &tree))) * 1e3,
    );
    // Cells in the nanosecond range time 1000 operations per call.
    let mut next_key = move || {
        x = mix64(x);
        x % domain + 1
    };
    let per_gets = mean_secs(smoke, || {
        let probe: Vec<u64> = (0..1000).map(|_| next_key()).collect();
        time(|| {
            probe
                .iter()
                .filter(|&&k| refops::get(dev.mem(), &tree, k).is_some())
                .count()
        })
    });
    push("btree.get_host_ns", per_gets * 1e9 / 1e3);
    push(
        "pivot.build_host_us",
        mean_secs(smoke, || time(|| PivotCache::build(dev.mem(), &tree, &cfg))) * 1e6,
    );
    let (cache, _) = PivotCache::build(dev.mem(), &tree, &cfg);
    let per_lookups = mean_secs(smoke, || {
        let probe: Vec<u64> = (0..1000).map(|_| next_key()).collect();
        time(|| probe.iter().map(|&k| cache.lookup(k)).fold(0, |a, b| a ^ b))
    });
    push("pivot.lookup_host_ns", per_lookups * 1e9 / 1e3);

    // sim: what one kernel launch costs the host before any warp does work.
    for warps in [1usize, 512] {
        let per_launch = mean_secs(smoke, || time(|| dev.launch("empty", warps, |_, _| {})));
        push(&format!("sim.launch_host_us.w{warps}"), per_launch * 1e6);
    }
    out
}

/// Eirene over the Lock and STM GB-trees on the first batches of a tree
/// workload, in the simulated clock: guards the paper's ordering (Figs. 7
/// and 9) while `sim_*` metrics are optimised. Empty for serve workloads.
pub fn baseline_ratios(w: &Workload, seed: u64, smoke: bool) -> Vec<(String, f64)> {
    let Shape::Tree { batch, .. } = w.shape else {
        return Vec::new();
    };
    let spec = w.spec(batch, seed);
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .iter()
        .map(|&(k, v)| (k as u64, v as u64))
        .collect();
    let count = if smoke { 2 } else { BASELINE_BATCHES };
    let mut gen = WorkloadGen::new(spec);
    let batches: Vec<Batch> = (0..count).map(|_| gen.next_batch()).collect();
    let cfg = device(TREE_WORKERS);
    let headroom = EireneOptions::default().headroom_nodes;
    // (virtual makespan, memory instructions) of a tree over the batches.
    let cost = |tree: &mut dyn ConcurrentTree| {
        batches.iter().fold((0.0, 0.0), |(cycles, insts), b| {
            let stats = tree.run_batch(b).stats;
            (
                cycles + stats.makespan_cycles,
                insts + stats.totals.mem_insts as f64,
            )
        })
    };
    let eirene = cost(&mut EireneTree::new(
        &pairs,
        EireneOptions {
            device: cfg.clone(),
            ..EireneOptions::default()
        },
    ));
    let lock = cost(&mut LockTree::new(&pairs, cfg.clone(), headroom));
    let stm = cost(&mut StmTree::new(&pairs, cfg, headroom));
    vec![
        (
            "baselines.sim_tput_ratio.lock".to_string(),
            lock.0 / eirene.0,
        ),
        ("baselines.sim_tput_ratio.stm".to_string(), stm.0 / eirene.0),
        (
            "baselines.mem_insts_ratio.lock".to_string(),
            eirene.1 / lock.1,
        ),
        (
            "baselines.mem_insts_ratio.stm".to_string(),
            eirene.1 / stm.1,
        ),
    ]
}
