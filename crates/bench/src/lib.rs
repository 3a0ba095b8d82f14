//! Benchmark harness regenerating every figure of the paper's evaluation
//! (§8). See `DESIGN.md` for the per-figure index and `EXPERIMENTS.md`
//! for the recorded paper-vs-measured comparison.
//!
//! The binary (`cargo run -p eirene-bench --release -- <figure>`) prints
//! the same rows/series the paper reports and writes CSV files under
//! `results/`. Every subcommand parses its line through a flag table of
//! `eirene_check::cli` and returns its exit code; [`usage`] is generated
//! from those tables.

pub mod ablate;
pub mod figures;
pub mod fuzz;
pub mod harness;
pub mod metrics;
pub mod serve;

pub use harness::{Measurement, Point, Scale, TreeKind};

/// Runs one `eirene-bench` command line (without the program name) and
/// returns its exit code: 2 on a usage error, with the usage printed.
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("fuzz") => fuzz::run(&args[1..]),
        Some("serve") => serve::run(&args[1..]),
        Some(_) => figures::run(args),
        None => {
            eprintln!("{}", usage());
            2
        }
    }
}

/// Every subcommand's usage line, generated from its flag table.
pub fn usage() -> String {
    use eirene_check::cli::{self, Cli};
    let figures = cli::usage::<figures::FigureRun>(figures::FigureRun::MODES);
    let lines: Vec<String> = std::iter::once(figures)
        .chain(fuzz::usage().lines().map(String::from))
        .chain([serve::usage()])
        .collect();
    format!("usage: {}", lines.join("\n       "))
}
