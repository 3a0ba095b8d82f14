//! Ablation studies beyond the paper's figures — one sweep per design
//! choice that DESIGN.md calls out. Each prints a table and writes a CSV.

use crate::figures::Command;
use crate::harness::{default_mix, measure, spec_for, write_csv, Scale, TreeKind};
use eirene_baselines::common::ConcurrentTree;
use eirene_core::{EireneOptions, EireneTree};
use eirene_workloads::{Distribution, Mix, WorkloadGen, WorkloadSpec};

/// One Eirene configuration measured over fresh executions.
fn measure_eirene(opts: &EireneOptions, spec: &WorkloadSpec, repeats: usize) -> (f64, f64, f64) {
    let pairs: Vec<(u64, u64)> = spec
        .initial_pairs()
        .iter()
        .map(|&(k, v)| (k as u64, v as u64))
        .collect();
    let mut gen = WorkloadGen::new(spec.clone());
    let mut tput = 0.0;
    let mut conflicts = 0.0;
    let mut steps = 0.0;
    for _ in 0..repeats {
        let mut tree = EireneTree::new(&pairs, opts.clone());
        let batch = gen.next_batch();
        let run = tree.run_batch(&batch);
        let secs = tree
            .device()
            .config()
            .cycles_to_secs(run.stats.makespan_cycles);
        tput += batch.len() as f64 / secs;
        conflicts += run.stats.totals.conflicts() as f64 / batch.len() as f64;
        steps += run.stats.steps_per_request();
    }
    let r = repeats as f64;
    (tput / r, conflicts / r, steps / r)
}

fn eirene_opts(headroom: usize) -> EireneOptions {
    EireneOptions {
        headroom_nodes: headroom,
        device: crate::metrics::device_config(),
        ..Default::default()
    }
}

/// Sweep of the optimistic retry THRESHOLD (Alg. 1 line 28): 0 means the
/// update kernel goes straight to the fully STM-protected descent; large
/// values keep retrying optimistically.
pub fn ablate_threshold(scale: &Scale) {
    crate::metrics::set_context("ablate-threshold");
    println!("== Ablation: optimistic retry threshold (update-heavy zipfian) ==");
    println!("{:<12}{:>14}{:>16}", "threshold", "Mreq/s", "conflicts/req");
    let spec = WorkloadSpec {
        tree_size: 1 << scale.default_exp,
        batch_size: scale.batch_size,
        mix: Mix {
            upsert: 0.3,
            delete: 0.05,
            range: 0.0,
            range_len: 4,
        },
        distribution: Distribution::Zipfian { theta: 0.99 },
        seed: 21,
    };
    let mut rows = Vec::new();
    for threshold in [0u32, 1, 3, 8, 16] {
        let opts = EireneOptions {
            retry_threshold: threshold,
            ..eirene_opts(scale.batch_size / 2 + (1 << 12))
        };
        let (tput, conflicts, _) = measure_eirene(&opts, &spec, scale.repeats);
        println!("{threshold:<12}{:>14.1}{conflicts:>16.5}", tput / 1e6);
        rows.push(format!("{threshold},{tput:.0},{conflicts:.6}"));
    }
    write_csv(
        "ablate_threshold",
        "threshold,throughput_req_s,conflicts_per_req",
        &rows,
    );
}

/// Iteration-warp count (§5's "iteration number" trade-off): fewer warps
/// means more request groups per warp — better locality, less
/// parallelism.
pub fn ablate_iteration_warps(scale: &Scale) {
    crate::metrics::set_context("ablate-iteration");
    println!("== Ablation: iteration-warp target (locality vs parallelism) ==");
    println!("{:<14}{:>14}{:>16}", "warps", "Mreq/s", "steps/issued");
    let spec = spec_for(scale.default_exp, scale.batch_size, default_mix(), 23);
    let mut rows = Vec::new();
    for target in [27usize, 108, 432, 864, 1728, 0] {
        let opts = EireneOptions {
            target_warps: target,
            ..eirene_opts(scale.batch_size / 8 + (1 << 12))
        };
        let (tput, _, steps) = measure_eirene(&opts, &spec, scale.repeats.min(3));
        let label = if target == 0 {
            "auto".to_string()
        } else {
            target.to_string()
        };
        println!("{label:<14}{:>14.1}{steps:>16.2}", tput / 1e6);
        rows.push(format!("{label},{tput:.0},{steps:.3}"));
    }
    write_csv(
        "ablate_iteration",
        "target_warps,throughput_req_s,steps_per_issued",
        &rows,
    );
}

/// Point queries with `upsert` of them updates instead.
fn upserts(upsert: f64) -> Mix {
    Mix {
        upsert,
        delete: 0.0,
        range: 0.0,
        range_len: 4,
    }
}

/// A tree × setting table in Mreq/s, one `{:>width.digits}` cell per
/// column measured on `spec(column)`; returns the CSV rows
/// `tree,{name(column)},throughput`.
fn tree_rows<C: Copy>(
    scale: &Scale,
    kinds: &[TreeKind],
    columns: &[C],
    (width, digits): (usize, usize),
    spec: impl Fn(C) -> WorkloadSpec,
    name: impl Fn(C) -> String,
) -> Vec<String> {
    let mut rows = Vec::new();
    for &kind in kinds {
        print!("{:<18}", kind.label());
        for &column in columns {
            let tput = measure(kind, &spec(column), scale.repeats.min(3)).throughput;
            print!("{:>width$.digits$}", tput / 1e6);
            rows.push(format!("{},{},{tput:.0}", kind.label(), name(column)));
        }
        println!();
    }
    rows
}

/// Key-distribution sweep (extension: the paper only evaluates Uniform).
pub fn ablate_distribution(scale: &Scale) {
    crate::metrics::set_context("ablate-distribution");
    println!("== Ablation: key distribution (uniform vs zipfian) ==");
    println!(
        "{:<18}{:>14}{:>14}{:>14}",
        "tree", "uniform", "zipf 0.8", "zipf 0.99"
    );
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let dists = [
        Distribution::Uniform,
        Distribution::Zipfian { theta: 0.8 },
        Distribution::Zipfian { theta: 0.99 },
    ];
    let spec = |distribution| WorkloadSpec {
        distribution,
        ..spec_for(scale.default_exp, scale.batch_size, default_mix(), 24)
    };
    let rows = tree_rows(scale, &kinds, &dists, (14, 1), spec, |d| format!("{d:?}"));
    println!("(Mreq/s; skew concentrates requests on hot keys: baselines conflict,");
    println!(" Eirene combines — duplicates are resolved without tree traversals)");
    let header = "tree,distribution,throughput_req_s";
    write_csv("ablate_distribution", header, &rows);
}

/// Batch-size sweep: combining's fixed costs (sort, kernel launches)
/// amortize with batch size — the batching trade-off of §2.1/§7. Sweeps
/// b/16, b/4, b and 4b around the scale's batch size b.
pub fn ablate_batch_size(scale: &Scale) {
    crate::metrics::set_context("ablate-batch");
    println!("== Ablation: batch size (combining amortization) ==");
    print!("{:<18}", "tree \\ batch");
    let b = scale.batch_size;
    let batches = [b / 16, b / 4, b, 4 * b].map(|n| n.max(1));
    for b in batches {
        print!("{b:>10}");
    }
    println!();
    let kinds = [TreeKind::Lock, TreeKind::Eirene];
    let spec = |b| spec_for(scale.default_exp, b, default_mix(), 25);
    let rows = tree_rows(scale, &kinds, &batches, (10, 0), spec, |b| b.to_string());
    println!("(Mreq/s; Eirene needs large batches to amortize its sort + 4 launches,");
    println!(" exactly why the paper buffers 1M requests per transfer)");
    write_csv("ablate_batch", "tree,batch_size,throughput_req_s", &rows);
}

/// Query/update mix sweep (extension beyond the paper's fixed 95/5).
pub fn ablate_mix(scale: &Scale) {
    crate::metrics::set_context("ablate-mix");
    println!("== Ablation: query/update ratio ==");
    print!("{:<18}", "tree \\ updates");
    let ratios = [0.0, 0.05, 0.20, 0.50];
    for r in ratios {
        print!("{:>10}", format!("{:.0}%", r * 100.0));
    }
    println!();
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let spec = |upsert| spec_for(scale.default_exp, scale.batch_size, upserts(upsert), 26);
    let rows = tree_rows(scale, &kinds, &ratios, (10, 0), spec, |u| u.to_string());
    write_csv("ablate_mix", "tree,update_ratio,throughput_req_s", &rows);
}

/// Every ablation, in the order `ablate-all` runs them.
pub(crate) const ABLATIONS: [Command; 5] = [
    ("ablate-threshold", ablate_threshold),
    ("ablate-iteration", ablate_iteration_warps),
    ("ablate-distribution", ablate_distribution),
    ("ablate-batch", ablate_batch_size),
    ("ablate-mix", ablate_mix),
];

/// Runs every ablation.
pub fn all(scale: &Scale) {
    crate::figures::run_each(&ABLATIONS, scale);
}
