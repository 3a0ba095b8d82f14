//! The `eirene-bench` CLI.
//!
//! ```text
//! cargo run -p eirene-bench --release -- all            # every figure
//! cargo run -p eirene-bench --release -- fig7           # one figure
//! cargo run -p eirene-bench --release -- fig7 --paper-scale
//! cargo run -p eirene-bench --release -- fig2 --batch 65536 --repeats 10
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(eirene_bench::run(&args));
}
