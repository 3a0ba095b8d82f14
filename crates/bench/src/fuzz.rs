//! The `fuzz` subcommand: picks a leg of the `eirene-check` driver from
//! the arguments and prints the outcome.
//!
//! ```text
//! cargo run -p eirene-bench --release -- fuzz                       # tree leg, defaults
//! cargo run -p eirene-bench --release -- fuzz --seed 1 --batches 500
//! cargo run -p eirene-bench --release -- fuzz --tree eirene --os-sched
//! cargo run -p eirene-bench --release -- fuzz --inject-fault        # self-test
//! cargo run -p eirene-bench --release -- fuzz --serve --shards 4    # sharded service
//! cargo run -p eirene-bench --release -- fuzz --churn --cases 500   # churn + reclamation
//! cargo run -p eirene-bench --release -- fuzz --coalesce            # combine-path leg
//! ```
//!
//! The flags of each leg are its table in `eirene_check::driver`
//! ([`Leg::usage`] prints them). Exit status: 0 when every case agrees
//! with its oracle, 1 when a violation was found (the report and its
//! replay line are printed), 2 on usage errors.

use eirene_check::{Fuzz, Leg, Outcome};

/// Every leg's usage line.
pub fn usage() -> String {
    Leg::ALL.map(Leg::usage).join("\n")
}

/// Parses `fuzz` arguments and runs the driver; returns the exit code.
pub fn run(args: &[String]) -> i32 {
    let fuzz = match Fuzz::parse(args) {
        Ok(fuzz) => fuzz,
        Err(e) => {
            eprintln!("{e}\nusage:\n{}", usage());
            return 2;
        }
    };
    let sched = if fuzz.deterministic {
        "deterministic"
    } else {
        "OS"
    };
    eprintln!("{}  ({sched} scheduling)", fuzz.command());
    match fuzz.run() {
        Outcome::Passed { cases, coverage } => {
            let name = fuzz
                .leg
                .switch()
                .map_or("fuzz".into(), |s| format!("fuzz {s}"));
            let coverage = match fuzz.leg {
                Leg::Churn => format!(
                    "; worst arena occupancy {}.{:02}x of post-build",
                    coverage / 100,
                    coverage % 100
                ),
                Leg::Coalesce => format!("; {coverage} pivot-cache hits exercised"),
                Leg::Tree | Leg::Serve => String::new(),
            };
            println!("{name}: {cases} cases, all consistent with the sequential oracle{coverage}");
            0
        }
        Outcome::Failed(f) => {
            println!("{f}");
            1
        }
    }
}
