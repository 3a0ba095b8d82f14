//! Figure-regeneration CLI.
//!
//! ```text
//! cargo run -p eirene-bench --release -- all            # every figure
//! cargo run -p eirene-bench --release -- fig7           # one figure
//! cargo run -p eirene-bench --release -- fig7 --paper-scale
//! cargo run -p eirene-bench --release -- fig2 --batch 65536 --repeats 10
//! ```

use eirene_bench::{figures, metrics, Scale};
use eirene_telemetry::JsonValue;

fn usage() -> ! {
    eprintln!(
        "usage: eirene-bench <fig1|fig2|fig7|fig8|fig9|fig10|fig11|fig12|fig13|all|\
         ablate-threshold|ablate-protection|ablate-iteration|ablate-distribution|\
         ablate-batch|ablate-mix|ablate-all> \
         [--paper-scale] [--smoke] [--batch N] [--repeats N] [--exps a,b,c] \
         [--jobs N] [--json PATH] [--trace PATH]\n{}\n       \
         eirene-bench serve [--smoke] [--shards a,b,c] [--loads f,f] [--tree-exp N] \
         [--requests N] [--batch-limit N] [--straddle F] [--clients N] [--seed N]   \
         (sharded-serving throughput/QoS sweep)",
        eirene_bench::fuzz::usage()
            .lines()
            .map(|line| format!("       {line}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "fuzz" {
        std::process::exit(eirene_bench::fuzz::run(&args[1..]));
    }
    if args[0] == "serve" {
        std::process::exit(eirene_bench::serve::run(&args[1..]));
    }
    let mut scale = Scale::default();
    let mut which = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper-scale" => scale = Scale::paper(),
            "--smoke" => scale = Scale::smoke(),
            "--batch" => {
                scale.batch_size = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--repeats" => {
                scale.repeats = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--exps" => {
                let list = it.next().unwrap_or_else(|| usage());
                scale.tree_exps = list
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                scale.default_exp = scale.tree_exps[0];
            }
            "--jobs" => {
                let n: usize = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
                eirene_bench::harness::set_jobs(n);
            }
            "--json" => metrics::enable_json(it.next().unwrap_or_else(|| usage())),
            "--trace" => metrics::enable_trace(it.next().unwrap_or_else(|| usage())),
            name if which.is_none() && !name.starts_with('-') => which = Some(name.to_string()),
            _ => usage(),
        }
    }
    let which = which.unwrap_or_else(|| usage());
    eprintln!(
        "scale: tree 2^{:?} (default 2^{}), batch {}, repeats {}, jobs {}",
        scale.tree_exps,
        scale.default_exp,
        scale.batch_size,
        scale.repeats,
        eirene_bench::harness::jobs()
    );
    if metrics::active() {
        metrics::set_meta("command", JsonValue::from(which.as_str()));
        metrics::set_meta("batch_size", JsonValue::from(scale.batch_size));
        metrics::set_meta("repeats", JsonValue::from(scale.repeats));
        metrics::set_meta("default_exp", JsonValue::from(scale.default_exp));
        metrics::set_meta(
            "tree_exps",
            JsonValue::Arr(
                scale
                    .tree_exps
                    .iter()
                    .map(|&e| JsonValue::from(e))
                    .collect(),
            ),
        );
    }
    match which.as_str() {
        "fig1" => figures::fig1(&scale),
        "fig2" => figures::fig2(&scale),
        "fig7" => figures::fig7(&scale),
        "fig8" => figures::fig8(&scale),
        "fig9" => figures::fig9(&scale),
        "fig10" => figures::fig10(&scale),
        "fig11" => figures::fig11(&scale),
        "fig12" => figures::fig12(&scale),
        "fig13" => figures::fig13(&scale),
        "all" => figures::all(&scale),
        "ablate-threshold" => eirene_bench::ablate::ablate_threshold(&scale),
        "ablate-protection" => eirene_bench::ablate::ablate_protection(&scale),
        "ablate-iteration" => eirene_bench::ablate::ablate_iteration_warps(&scale),
        "ablate-distribution" => eirene_bench::ablate::ablate_distribution(&scale),
        "ablate-batch" => eirene_bench::ablate::ablate_batch_size(&scale),
        "ablate-mix" => eirene_bench::ablate::ablate_mix(&scale),
        "ablate-all" => eirene_bench::ablate::all(&scale),
        _ => usage(),
    }
    metrics::flush();
}
