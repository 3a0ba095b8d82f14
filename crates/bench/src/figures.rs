//! One function per paper figure. Each prints the figure's series and
//! writes a CSV under the results directory.
//!
//! Figures are declarative about their sweeps: they build the full list
//! of [`Point`]s first (in the exact order the old serial loops visited
//! them), hand the list to [`measure_all`] — which fans the independent
//! (point, repeat) executions across `--jobs` host threads — and then
//! print and record the results strictly in point order. Output is
//! therefore identical for every `--jobs` value; only wall-clock changes.

use crate::harness::{
    default_mix, measure_all, spec_for, write_csv, Measurement, Point, Scale, TreeKind,
};
use crate::{ablate, metrics};
use eirene_check::cli::{self, Cli, Flag};
use eirene_check::flag;
use eirene_telemetry::JsonValue;
use eirene_workloads::Mix;

/// `kinds` at the default tree size under the default mix.
fn at_default(scale: &Scale, kinds: [TreeKind; 3], seed: u64, repeats: usize) -> Vec<Measurement> {
    let spec = spec_for(scale.default_exp, scale.batch_size, default_mix(), seed);
    let points: Vec<Point> = kinds
        .into_iter()
        .map(|kind| Point::new(kind, spec.clone(), repeats))
        .collect();
    measure_all(&points)
}

/// `kinds` × every swept tree size under `mix`, kind-major.
fn size_points(
    scale: &Scale,
    kinds: &[TreeKind],
    mix: Mix,
    seed: u64,
    repeats: usize,
) -> Vec<Point> {
    let spec = |e| spec_for(e, scale.batch_size, mix, seed);
    kinds
        .iter()
        .flat_map(|&kind| {
            scale
                .tree_exps
                .iter()
                .map(move |&e| Point::new(kind, spec(e), repeats))
        })
        .collect()
}

/// A size-sweep header: `corner`, then one column per swept tree size.
fn size_header(corner: &str, scale: &Scale) {
    print!("{corner:<18}");
    for e in &scale.tree_exps {
        print!("{e:>10}");
    }
    println!();
}

/// Prints one row of throughputs (Mreq/s) per kind of a size sweep,
/// adds the CSV rows (`tree{extra},log2_size,throughput`) and returns each
/// kind's throughput at the default tree size.
fn throughput_rows(
    scale: &Scale,
    kinds: &[TreeKind],
    ms: &[Measurement],
    extra: &str,
    rows: &mut Vec<String>,
) -> Vec<f64> {
    let mut at_default = vec![0.0; kinds.len()];
    for (ki, kind) in kinds.iter().enumerate() {
        print!("{:<18}", kind.label());
        for (ei, &e) in scale.tree_exps.iter().enumerate() {
            let tput = ms[ki * scale.tree_exps.len() + ei].throughput;
            print!("{:>10}", format!("{:.1}", tput / 1e6));
            rows.push(format!("{}{extra},{e},{tput:.0}", kind.label()));
            if e == scale.default_exp {
                at_default[ki] = tput;
            }
        }
        println!();
    }
    at_default
}

/// Fig. 1 — memory and control-flow instructions per request for the
/// motivation baselines (no-CC / STM / Lock), default workload.
pub fn fig1(scale: &Scale) {
    metrics::set_context("fig1");
    println!("== Figure 1: profiling of STM GB-tree and Lock GB-tree ==");
    println!("{:<34}{:>14}{:>14}", "tree", "memory_inst", "control_inst");
    let kinds = [TreeKind::NoCc, TreeKind::Stm, TreeKind::Lock];
    let ms = at_default(scale, kinds, 1, scale.repeats);
    let mut rows = Vec::new();
    for m in &ms {
        let (label, mem, ctrl) = (m.tree.label(), m.mem_insts, m.control_insts);
        println!("{label:<34}{mem:>14.1}{ctrl:>14.1}");
        rows.push(format!("{label},{mem:.2},{ctrl:.2}"));
        if m.tree != TreeKind::NoCc {
            let (mem, ctrl) = (mem / ms[0].mem_insts, ctrl / ms[0].control_insts);
            println!("{:<34}{mem:>13.2}x{ctrl:>13.2}x", "  (vs no-CC)");
        }
    }
    write_csv("fig1", "tree,mem_inst_per_req,control_inst_per_req", &rows);
}

/// Figs. 2 and 8 — time per request with min/max whiskers and the QoS
/// variance for the two baselines and Eirene, `normalized` to the STM
/// GB-tree average (three decimals) or in ns (two); the CSV has one more.
fn response_times(
    scale: &Scale,
    name: &str,
    title: &str,
    columns: [&str; 5],
    header: &str,
    seed: u64,
    normalized: bool,
) {
    metrics::set_context(name);
    println!("{title}");
    let [tree, avg, min, max, variance] = columns;
    println!("{tree:<18}{avg:>10}{min:>10}{max:>10}{variance:>12}");
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let ms = at_default(scale, kinds, seed, scale.repeats.max(5));
    let (norm, p) = if normalized {
        (ms[0].avg_ns, 3)
    } else {
        (1.0, 2)
    };
    let c = p + 1;
    let mut rows = Vec::new();
    for m in &ms {
        let (avg, min, max) = (m.avg_ns / norm, m.min_ns / norm, m.max_ns / norm);
        let (label, var) = (m.tree.label(), m.response_variance());
        println!(
            "{label:<18}{avg:>10.p$}{min:>10.p$}{max:>10.p$}{:>11.1}%",
            var * 100.0
        );
        rows.push(format!("{label},{avg:.c$},{min:.c$},{max:.c$},{var:.4}"));
    }
    write_csv(name, header, &rows);
}

/// Fig. 2 — normalized time per request with max/min whiskers for the two
/// baselines and Eirene (normalized to the STM GB-tree average).
pub fn fig2(scale: &Scale) {
    let title = "== Figure 2: normalized time per request ==";
    let columns = ["tree", "avg", "min", "max", "variance"];
    let header = "tree,norm_avg,norm_min,norm_max,variance";
    response_times(scale, "fig2", title, columns, header, 2, true);
}

/// Fig. 7 — overall throughput (Mreq/s) across tree sizes.
pub fn fig7(scale: &Scale) {
    metrics::set_context("fig7");
    println!("== Figure 7: overall performance (throughput, Mreq/s) ==");
    size_header("tree \\ log2(size)", scale);
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let ms = measure_all(&size_points(scale, &kinds, default_mix(), 7, scale.repeats));
    let mut rows = Vec::new();
    let tput = throughput_rows(scale, &kinds, &ms, "", &mut rows);
    println!(
        "Eirene speedup at 2^{}: {:.2}x vs STM GB-tree, {:.2}x vs Lock GB-tree",
        scale.default_exp,
        tput[2] / tput[0],
        tput[2] / tput[1]
    );
    write_csv("fig7", "tree,log2_size,throughput_req_s", &rows);
}

/// Fig. 8 — absolute time per request (avg with min/max whiskers).
pub fn fig8(scale: &Scale) {
    let title = "== Figure 8: time per request (ns) ==";
    let columns = ["tree", "avg ns", "min ns", "max ns", "variance"];
    let header = "tree,avg_ns,min_ns,max_ns,variance";
    response_times(scale, "fig8", title, columns, header, 8, false);
}

/// Fig. 9 — Eirene's memory/control instructions per request, normalized
/// to each baseline.
pub fn fig9(scale: &Scale) {
    metrics::set_context("fig9");
    println!("== Figure 9: metrics profiling of Eirene (normalized) ==");
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let ms = at_default(scale, kinds, 9, scale.repeats);
    let (tree, mem, ctrl, confl) = ("tree", "mem/req", "ctrl/req", "conflicts/req");
    println!("{tree:<18}{mem:>14}{ctrl:>14}{confl:>14}");
    let mut rows = Vec::new();
    for m in &ms {
        let (label, mem, ctrl, confl) = (m.tree.label(), m.mem_insts, m.control_insts, m.conflicts);
        println!("{label:<18}{mem:>14.2}{ctrl:>14.2}{confl:>14.4}");
        rows.push(format!("{label},{mem:.3},{ctrl:.3},{confl:.5}"));
    }
    let (stm, lock, eir) = (&ms[0], &ms[1], &ms[2]);
    println!(
        "Eirene vs STM GB-tree:  mem {:.1}%, control {:.1}%, conflicts {:.1}%",
        100.0 * eir.mem_insts / stm.mem_insts,
        100.0 * eir.control_insts / stm.control_insts,
        100.0 * eir.conflicts / stm.conflicts.max(1e-12)
    );
    println!(
        "Eirene vs Lock GB-tree: mem {:.1}%, control {:.1}%",
        100.0 * eir.mem_insts / lock.mem_insts,
        100.0 * eir.control_insts / lock.control_insts
    );
    let header = "tree,mem_per_req,ctrl_per_req,conflicts_per_req";
    write_csv("fig9", header, &rows);
}

/// Fig. 10 — normalized average traversal steps across tree sizes.
pub fn fig10(scale: &Scale) {
    metrics::set_context("fig10");
    println!("== Figure 10: traversal steps (normalized to STM GB-tree) ==");
    size_header("tree \\ log2(size)", scale);
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let ms = measure_all(&size_points(
        scale,
        &kinds,
        default_mix(),
        10,
        scale.repeats,
    ));
    let sizes = scale.tree_exps.len();
    let mut rows = Vec::new();
    for (ki, kind) in kinds.into_iter().enumerate() {
        print!("{:<18}", kind.label());
        for (i, &e) in scale.tree_exps.iter().enumerate() {
            let steps = ms[ki * sizes + i].steps;
            let norm = steps / ms[i].steps;
            print!("{norm:>10.2}");
            rows.push(format!("{},{e},{steps:.3},{norm:.3}", kind.label()));
        }
        println!();
    }
    let header = "tree,log2_size,steps_per_traversal,normalized";
    write_csv("fig10", header, &rows);
}

/// Fig. 11 — design-choice ablation: STM GB-tree vs "+ Combining" vs full
/// Eirene across tree sizes (throughput, Mreq/s).
pub fn fig11(scale: &Scale) {
    metrics::set_context("fig11");
    println!("== Figure 11: different design choices (throughput, Mreq/s) ==");
    size_header("config \\ log2(size)", scale);
    let kinds = [TreeKind::Stm, TreeKind::EireneCombining, TreeKind::Eirene];
    let ms = measure_all(&size_points(
        scale,
        &kinds,
        default_mix(),
        11,
        scale.repeats,
    ));
    let mut rows = Vec::new();
    let tput = throughput_rows(scale, &kinds, &ms, "", &mut rows);
    for (kind, t) in kinds.iter().zip(&tput).skip(1) {
        let (label, exp) = (kind.label(), scale.default_exp);
        println!(
            "{label}: {:.2}x speedup vs STM GB-tree at 2^{exp}",
            t / tput[0]
        );
    }
    write_csv("fig11", "config,log2_size,throughput_req_s", &rows);
}
/// Fig. 12 — contribution of combining vs locality to the reduction of
/// conflicts, memory accesses, and control instructions.
pub fn fig12(scale: &Scale) {
    metrics::set_context("fig12");
    println!("== Figure 12: contribution of the optimizations ==");
    let kinds = [TreeKind::Stm, TreeKind::EireneCombining, TreeKind::Eirene];
    let ms = at_default(scale, kinds, 12, scale.repeats);
    let (stm, comb, eir) = (&ms[0], &ms[1], &ms[2]);
    let (metric, comb_pct, loc_pct, total) =
        ("metric", "combining %", "locality %", "total reduction %");
    println!("{metric:<14}{comb_pct:>14}{loc_pct:>14}{total:>14}");
    // A share of a zero reduction is 0.
    let pct = |part: f64, whole: f64| {
        if whole.abs() < 1e-12 {
            0.0
        } else {
            part / whole * 100.0
        }
    };
    let mut rows = Vec::new();
    for (name, s, c, e) in [
        ("conflicts", stm.conflicts, comb.conflicts, eir.conflicts),
        ("memory_inst", stm.mem_insts, comb.mem_insts, eir.mem_insts),
        (
            "control_inst",
            stm.control_insts,
            comb.control_insts,
            eir.control_insts,
        ),
    ] {
        let (comb_share, loc_share) = (pct(s - c, s - e), pct(c - e, s - e));
        let total_pct = pct(s - e, s);
        println!("{name:<14}{comb_share:>13.1}%{loc_share:>13.1}%{total_pct:>13.1}%");
        rows.push(format!(
            "{name},{comb_share:.2},{loc_share:.2},{total_pct:.2}"
        ));
    }
    let header = "metric,combining_share_pct,locality_share_pct,total_reduction_pct";
    write_csv("fig12", header, &rows);
}

/// Fig. 13 — pure range-query throughput for lengths 4 and 8 across tree
/// sizes (Mreq/s).
pub fn fig13(scale: &Scale) {
    metrics::set_context("fig13");
    println!("== Figure 13: range query throughput (Mreq/s) ==");
    let lens = [4u32, 8];
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let repeats = scale.repeats.min(3);
    let points: Vec<Point> = lens
        .iter()
        .flat_map(|&len| {
            let mix = Mix::range_only(len);
            size_points(scale, &kinds, mix, 13 + len as u64, repeats)
        })
        .collect();
    let ms = measure_all(&points);
    let mut rows = Vec::new();
    for (ms, len) in ms.chunks(kinds.len() * scale.tree_exps.len()).zip(lens) {
        println!("-- range_length_{len} --");
        size_header("tree \\ log2(size)", scale);
        throughput_rows(scale, &kinds, ms, &format!(",{len}"), &mut rows);
    }
    write_csv("fig13", "tree,range_len,log2_size,throughput_req_s", &rows);
}

/// A figure or ablation: its command name and runner.
pub(crate) type Command = (&'static str, fn(&Scale));

/// Every figure, in the order `all` runs them.
const FIGURES: [Command; 9] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
];

/// Runs every figure.
pub fn all(scale: &Scale) {
    run_each(&FIGURES, scale);
}

/// Runs each command in order, a blank line between two.
pub(crate) fn run_each(commands: &[Command], scale: &Scale) {
    for (i, (_, run)) in commands.iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(scale);
    }
}

/// Every figure and ablation command, in usage order.
fn commands() -> impl Iterator<Item = &'static Command> {
    let all: &[Command] = &[("all", all)];
    let ablate_all: &[Command] = &[("ablate-all", ablate::all)];
    FIGURES
        .iter()
        .chain(all)
        .chain(&ablate::ABLATIONS)
        .chain(ablate_all)
}

/// A figure or ablation run: `eirene-bench <name> [flags]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureRun {
    /// The figure or ablation; `None` only in the usage line.
    pub name: Option<&'static str>,
    /// The preset switch the scale starts from: none, `--smoke`
    /// ([`Scale::smoke`]) or `--paper-scale` ([`Scale::paper`]).
    pub preset: Option<&'static str>,
    pub scale: Scale,
    /// Sweep parallelism; host parallelism when unset.
    pub jobs: Option<usize>,
    /// Write every measurement and table as JSON here.
    pub json: Option<String>,
    /// Trace per-warp events and write them here (chrome://tracing).
    pub trace: Option<String>,
}

impl Cli for FigureRun {
    type Mode = Option<&'static str>;
    const MODES: &'static [Self::Mode] = &[None, Some("--smoke"), Some("--paper-scale")];

    fn switch(preset: Self::Mode) -> Option<&'static str> {
        preset
    }

    fn defaults(preset: Self::Mode) -> FigureRun {
        let scale = match preset {
            Some("--smoke") => Scale::smoke(),
            Some(_) => Scale::paper(),
            None => Scale::default(),
        };
        FigureRun {
            name: None,
            preset,
            scale,
            jobs: None,
            json: None,
            trace: None,
        }
    }

    fn mode(&self) -> Self::Mode {
        self.preset
    }

    fn flags(_: Self::Mode) -> Vec<&'static Flag<FigureRun>> {
        FIGURE_FLAGS.iter().collect()
    }

    fn head(&self) -> String {
        let names = || commands().map(|c| c.0).collect::<Vec<_>>().join("|");
        match self.name {
            Some(name) => format!("eirene-bench {name}"),
            None => format!("eirene-bench <{}>", names()),
        }
    }
}

const FIGURE_FLAGS: &[Flag<FigureRun>] = &[
    flag!(["--batch"] "N", scale.batch_size),
    flag!(["--repeats"] "N", scale.repeats),
    flag!(@value ["--exps"] "a,b,c",
    |r| r.scale.tree_exps.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
    |r, v| {
        r.scale.tree_exps = v.split(',').map(str::parse).collect::<Result<_, _>>().ok()?;
        r.scale.default_exp = r.scale.tree_exps[0];
    }),
    flag!(["--jobs"] "N", Some(jobs)),
    flag!(["--json"] "PATH", Some(json)),
    flag!(["--trace"] "PATH", Some(trace)),
];

/// Parses a figure line: the figure or ablation first, then its flags.
pub fn parse(args: &[String]) -> Result<FigureRun, String> {
    let (first, flags) = args.split_first().ok_or("name a figure or ablation")?;
    let name = commands()
        .map(|c| c.0)
        .find(|n| n == first)
        .ok_or_else(|| format!("unknown command {first}"))?;
    Ok(FigureRun {
        name: Some(name),
        ..cli::parse(flags)?
    })
}

/// Parses a figure or ablation line and runs it; returns the exit code
/// (2 on a usage error, with the usage printed).
pub(crate) fn run(args: &[String]) -> i32 {
    let run = match parse(args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{}", crate::usage());
            return 2;
        }
    };
    if let Some(n) = run.jobs {
        crate::harness::set_jobs(n);
    }
    if let Some(path) = &run.json {
        metrics::enable_json(path);
    }
    if let Some(path) = &run.trace {
        metrics::enable_trace(path);
    }
    let (scale, name) = (&run.scale, run.name.unwrap_or_default());
    eprintln!(
        "scale: tree 2^{:?} (default 2^{}), batch {}, repeats {}, jobs {}",
        scale.tree_exps,
        scale.default_exp,
        scale.batch_size,
        scale.repeats,
        crate::harness::jobs()
    );
    if metrics::active() {
        metrics::set_meta("command", JsonValue::from(name));
        metrics::set_meta("batch_size", JsonValue::from(scale.batch_size));
        metrics::set_meta("repeats", JsonValue::from(scale.repeats));
        metrics::set_meta("default_exp", JsonValue::from(scale.default_exp));
        let exps = scale.tree_exps.iter().map(|&e| JsonValue::from(e));
        metrics::set_meta("tree_exps", JsonValue::Arr(exps.collect()));
    }
    let (_, figure) = commands().find(|c| c.0 == name).expect("a parsed name");
    figure(scale);
    metrics::flush();
    0
}
