//! The repository's benchmark: four workloads, two clocks (host wall time
//! and the simulator's virtual cycles), every layer timed from outside
//! through the crates' public functions. See `README.md` beside this
//! package for the workload and metric dictionary.
//!
//! ```text
//! eirene-benchmark run [--workload NAME] [--seed N] [--rounds R | --seconds S]
//!                      [--trace 0|1] [--smoke] [--json PATH]
//! eirene-benchmark compare A.json B.json
//! ```

mod check;
mod compare;
mod iso;
mod report;
mod rounds;
mod spans;
mod stats;
mod sys;
mod workloads;

use check::Tally;
use eirene_serve::ServeConfig;
use eirene_sim::telemetry::JsonValue;
use eirene_sim::{mix64, DeviceConfig};
use report::{WorkloadResult, END_TO_END};
use spans::{Scope, Tracer};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  eirene-benchmark run [--workload NAME] [--seed N] [--rounds R | --seconds S] [--trace 0|1] [--smoke] [--json PATH]
  eirene-benchmark compare A.json B.json

run      measures every workload (or the one named), interleaving rounds
         across workloads; prints every metric and writes the report (default
         benchmark/out/report.json) and, when tracing, trace.json beside it.
         --rounds R   untraced rounds per workload (default 5; 1 with --smoke)
         --seconds S  instead: rounds until S seconds have been measured
         --trace 1    (default) adds one traced round per workload and the
                      isolation cells, which give the per-layer metrics
         --smoke      a tenth of the operations per round
         With --workload the last line of output is the acceptance driver's
         JSON object: end-to-end metrics for --trace 0, per-layer for --trace 1.
compare  judges report B against baseline A; exits 1 on any regression.";

/// A round during which the hypervisor took more than this share of the
/// machine's CPU time measured the neighbours, not the system: its numbers are
/// dropped and the round is run again. (Seen on the sandbox: two minutes at a
/// third of the usual throughput with a quarter of the CPU time stolen.)
const MAX_STOLEN_SHARE: f64 = 0.05;
/// Rounds stop being dropped once the dropped ones have used this many times
/// the run's budget, so a run on a host that is always busy still ends.
const MAX_DROPPED_BUDGETS: f64 = 3.0;

/// When a workload has had enough untraced rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stop {
    Rounds(usize),
    Seconds(f64),
}

impl Stop {
    /// Whether `rounds` rounds that measured `secs` seconds use up the budget
    /// `times` times over.
    fn spent(self, rounds: usize, secs: f64, times: f64) -> bool {
        match self {
            Stop::Rounds(n) => rounds as f64 >= times * n as f64,
            Stop::Seconds(s) => secs >= times * s,
        }
    }
}

struct RunOpts {
    /// All of them, or the one `--workload` named: then the acceptance
    /// driver's result line ends the output.
    workloads: Vec<&'static Workload>,
    seed: u64,
    /// `--rounds` or `--seconds`, whichever came last; see [`RunOpts::stop`].
    stop: Option<Stop>,
    trace: bool,
    smoke: bool,
    json: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        stop: None,
        trace: true,
        smoke: false,
        json: PathBuf::from("benchmark/out/report.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::by_name(value).ok_or(format!("unknown workload {value}"))?;
                opts.workloads = vec![w];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--rounds" => {
                opts.stop = Some(Stop::Rounds(
                    value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?,
                ))
            }
            "--seconds" => {
                opts.stop = Some(Stop::Seconds(
                    value.parse().ok().filter(|&s| s > 0.0).ok_or_else(bad)?,
                ))
            }
            "--trace" => opts.trace = matches!(value.parse::<u8>().map_err(|_| bad())?, 1..),
            "--json" => opts.json = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

impl RunOpts {
    /// Five untraced rounds per workload unless told otherwise; a smoke run
    /// makes do with one.
    fn stop(&self) -> Stop {
        self.stop
            .unwrap_or(Stop::Rounds(if self.smoke { 1 } else { 5 }))
    }
}

fn round_seed(seed: u64, round: usize) -> u64 {
    mix64(seed.wrapping_add(mix64(round as u64)))
}

fn command_line(program: &str, args: &[&str], cwd_ceiling: Option<&Path>) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(ceiling) = cwd_ceiling {
        // Never report the commit of a repository this directory merely
        // sits inside.
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers depend on besides the code: host, toolchain, commit,
/// seed, and the pinned settings.
fn env_block(opts: &RunOpts) -> JsonValue {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_deref().and_then(Path::parent);
    let (device, serve) = (DeviceConfig::default(), ServeConfig::default());
    JsonValue::obj(vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("rustc", command_line("rustc", &["--version"], None).into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"], ceiling).into(),
        ),
        ("seed", opts.seed.into()),
        ("smoke", opts.smoke.into()),
        ("stop", format!("{:?}", opts.stop()).into()),
        (
            "settings",
            JsonValue::obj(vec![
                (
                    "device",
                    format!(
                        "DeviceConfig::default(): {} SMs x {} warps, {} GHz",
                        device.num_sms, device.warps_per_sm, device.clock_ghz
                    )
                    .into(),
                ),
                ("tree_worker_threads", workloads::TREE_WORKERS.into()),
                (
                    "serve_worker_threads_per_shard",
                    workloads::SERVE_WORKERS.into(),
                ),
                ("serve_shards", workloads::SERVE_SHARDS.into()),
                ("serve_sharding", format!("{:?}", serve.sharding).into()),
                ("serve_sizing", format!("{:?}", serve.sizing).into()),
                ("serve_linger_ms", (serve.linger.as_secs_f64() * 1e3).into()),
                ("serve_queue_depth", serve.queue_depth.into()),
                ("serve_straddle", workloads::STRADDLE.into()),
            ]),
        ),
    ])
}

fn run(opts: &RunOpts) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let mut results: Vec<WorkloadResult> = opts
        .workloads
        .iter()
        .map(|&workload| WorkloadResult {
            workload,
            tally: Tally::default(),
            rounds: Vec::new(),
            rounds_dropped: 0,
            per_layer: Vec::new(),
        })
        .collect();

    // Untraced rounds, round-robin across workloads so that slow drift of
    // the host falls on all of them alike.
    let stop = opts.stop();
    let mut kept_s = vec![0.0; results.len()];
    let mut dropped_s = vec![0.0; results.len()];
    let mut ticks = (0, 0);
    for round in 0.. {
        let mut ran = false;
        for (i, r) in results.iter_mut().enumerate() {
            if stop.spent(r.rounds.len(), kept_s[i], 1.0) {
                continue;
            }
            ran = true;
            let name = r.workload.name;
            sys::stolen_share(&mut ticks);
            let out = rounds::run(
                r.workload,
                round_seed(opts.seed, round),
                opts.smoke,
                Scope::untraced(),
            );
            let stolen = sys::stolen_share(&mut ticks);
            r.tally.add(out.tally);
            eprintln!(
                "{name} round {round}: {:.2} s measured, {} failed",
                out.measured_s, out.tally.failed
            );
            let may_drop = !stop.spent(r.rounds_dropped, dropped_s[i], MAX_DROPPED_BUDGETS);
            if stolen > MAX_STOLEN_SHARE && may_drop {
                eprintln!(
                    "{name} round {round}: dropped, {:.1} % of the CPU time was stolen",
                    stolen * 1e2
                );
                dropped_s[i] += out.measured_s;
                r.rounds_dropped += 1;
                continue;
            }
            kept_s[i] += out.measured_s;
            r.rounds.push(report::end_to_end_row(&out.end_to_end));
        }
        if !ran {
            break;
        }
    }

    // One traced round per workload and the isolation cells give the
    // per-layer numbers; end-to-end metrics never come from a traced round.
    let mut traces = Vec::new();
    if opts.trace {
        let iso = iso::cells(opts.seed, opts.smoke);
        let tput = END_TO_END.iter().position(|m| m.name == "host_tput_kreq_s");
        let tput = tput.expect("in the dictionary");
        for r in &mut results {
            let tracer = Tracer::new();
            let seed = round_seed(opts.seed, r.rounds.len());
            let out = rounds::run(r.workload, seed, opts.smoke, Scope::traced(&tracer));
            let (name, failed) = (r.workload.name, out.tally.failed);
            eprintln!(
                "{name} traced round: {:.2} s measured, {failed} failed",
                out.measured_s
            );
            let spans = tracer.into_spans();
            let traced_tput = report::end_to_end_row(&out.end_to_end)[tput];
            let mut layers = rounds::span_layers(&spans, &out);
            layers.extend(iso.iter().cloned());
            layers.extend(iso::baseline_ratios(r.workload, opts.seed, opts.smoke));
            layers.push((
                "telemetry.trace_overhead_share".to_string(),
                1.0 - traced_tput / r.quartiles(tput).median,
            ));
            layers.extend(out.per_layer);
            r.tally.add(out.tally);
            r.per_layer = report::per_layer_row(&layers);
            traces.push((name, spans));
        }
    }

    let dir = opts.json.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |path: &Path, doc: &JsonValue| {
        std::fs::write(path, doc.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&opts.json, &report::to_json(env_block(opts), &results))?;
    if opts.trace {
        write(&dir.join("trace.json"), &spans::chrome_trace(&traces))?;
    }

    for r in &results {
        r.print();
    }
    println!("\nreport: {}", opts.json.display());
    if let [only] = &results[..] {
        println!("{}", only.contract_line(opts.trace));
    }
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, verdicts) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!verdicts.contains(&compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|opts| run(&opts)).map(|()| true)
        }
        Some((cmd, [a, b])) if cmd == "compare" => compare_files(a, b),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_flags_select_one_workload_and_a_time_budget() {
        let o = parse_run(&args(
            "--workload serve_small --seed 42 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workloads.len(), 1);
        assert_eq!(o.workloads[0].name, "serve_small");
        assert!(!o.trace && !o.smoke);
        assert_eq!((o.seed, o.stop()), (42, Stop::Seconds(10.0)));
    }

    #[test]
    fn defaults_run_every_workload_five_rounds_traced() {
        let o = parse_run(&[]).unwrap();
        assert_eq!(o.workloads.len(), WORKLOADS.len());
        assert!(o.trace);
        assert_eq!(o.stop(), Stop::Rounds(5));
        assert_eq!(parse_run(&args("--smoke")).unwrap().stop(), Stop::Rounds(1));
        assert_eq!(
            parse_run(&args("--smoke --rounds 3")).unwrap().stop(),
            Stop::Rounds(3)
        );
    }

    #[test]
    fn a_budget_is_spent_in_rounds_or_in_seconds() {
        assert!(!Stop::Rounds(5).spent(4, 100.0, 1.0));
        assert!(Stop::Rounds(5).spent(5, 0.0, 1.0));
        assert!(!Stop::Rounds(5).spent(14, 0.0, 3.0));
        assert!(Stop::Rounds(5).spent(15, 0.0, 3.0));
        assert!(!Stop::Seconds(10.0).spent(99, 9.9, 1.0));
        assert!(Stop::Seconds(10.0).spent(0, 10.0, 1.0));
        assert!(!Stop::Seconds(10.0).spent(0, 29.0, 3.0));
    }

    #[test]
    fn malformed_flags_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--rounds 0",
            "--seconds -1",
            "--trace yes",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn rounds_draw_distinct_seeds_from_the_run_seed() {
        assert_eq!(round_seed(7, 3), round_seed(7, 3));
        assert_ne!(round_seed(7, 3), round_seed(7, 4));
        assert_ne!(round_seed(7, 3), round_seed(8, 3));
    }
}
