//! Guard on the per-epoch fixed cost of the plan path: planning a
//! 32-request epoch must cost about as much *per request* as planning a
//! 16 384-request one. A ratio of two timings taken back to back, so it
//! holds on a slow machine and in a debug build — and it fails the moment
//! anything under `build_plan` creates or wakes a thread per call again
//! (with the spawn-per-call shim the ratio was ≈ 33 in a release build and
//! ≈ 13 in a debug one). As plain loops it was 1.3–1.5 and 1.4–1.9 while
//! plans sorted 64-bit composites; sorting 32-bit keys made large plans
//! cheaper, and it reads 1.2–1.6 and 1.3–1.9.

use eirene_core::plan::build_plan;
use eirene_sim::DeviceConfig;
use eirene_workloads::{Batch, WorkloadGen, WorkloadSpec};
use std::time::Instant;

/// Host nanoseconds per request of `build_plan` over `reps` fresh batches.
fn plan_ns_per_req(gen: &mut WorkloadGen, size: usize, reps: usize) -> f64 {
    let cfg = DeviceConfig::default();
    let batches: Vec<Batch> = (0..reps)
        .map(|_| Batch::new(gen.next_requests(size)))
        .collect();
    let start = Instant::now();
    for batch in &batches {
        std::hint::black_box(build_plan(batch, &cfg));
    }
    start.elapsed().as_nanos() as f64 / (size * reps) as f64
}

#[test]
fn planning_a_small_epoch_costs_per_request_what_a_large_one_does() {
    let mut gen = WorkloadGen::new(WorkloadSpec::with_tree_exp(18, 16384));
    // Enough small epochs that each leg spans tens of milliseconds; a
    // preemption can still spoil one attempt, not three.
    let ratios: Vec<f64> = (0..3)
        .map(|_| plan_ns_per_req(&mut gen, 32, 10_000) / plan_ns_per_req(&mut gen, 16384, 10))
        .collect();
    let best = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        best <= 8.0,
        "per-request plan cost at 32 requests is {best:.1}x that at 16384 (all attempts: {ratios:?})"
    );
}
