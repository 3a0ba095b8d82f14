//! Mechanism floor of the coalesced descent (leaf runs + snapshot pivot
//! cache + locality-aware reorganization): on a duplicate-heavy mix, epoch
//! execution must cost at most two thirds of what per-request execution
//! costs. `plan_equiv.rs` proves the two executions *answer* the same;
//! this file pins what coalescing *buys*. It is a binary of its own so
//! that its deterministic-scheduler runs never compete for the host with
//! the OS-scheduled property tests there.

use eirene_baselines::common::ConcurrentTree;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{DeviceConfig, Phase};
use eirene_workloads::{Batch, Request};

/// Device cycles of epoch execution — every phase except the host-side
/// combine sort and result calculation, so the pivot-cache build and run
/// staging count *against* coalescing — plus descents saved and cache
/// hits, over four 1024-request batches on a 2^14-key tree. The mix is
/// duplicate-heavy: 70 % queries / 30 % upserts drawn from a hot window
/// one sixteenth of the key space wide, so combining collapses the
/// duplicates and the survivors cluster onto few leaves. `coalesced` is
/// the shipping default; off also drops the locality-aware reorganization,
/// so every issued request pays its own root-to-leaf descent.
fn duplicate_heavy_exec(coalesced: bool) -> (u64, u64, u64) {
    const KEYS: u32 = 1 << 14;
    let device = DeviceConfig::test_small().with_deterministic_sched(0xC0A1);
    let pairs: Vec<(u64, u64)> = (1..=KEYS as u64).map(|k| (k, k + 1)).collect();
    let mut tree = EireneTree::new(
        &pairs,
        EireneOptions {
            device,
            headroom_nodes: 1 << 12,
            coalesce: coalesced,
            locality: coalesced,
            ..Default::default()
        },
    );
    let mut state = 0xC0A1u64;
    let mut next = || {
        state = eirene_sim::mix64(state);
        state
    };
    let (mut exec_cycles, mut descents_saved, mut cache_hits) = (0, 0, 0);
    let mut ts = 0;
    for _ in 0..4 {
        let reqs = (0..1024)
            .map(|_| {
                let key = KEYS / 3 + (next() % (KEYS / 16) as u64) as u32;
                ts += 1;
                if next() % 1000 < 300 {
                    Request::upsert(key, key + 7, ts)
                } else {
                    Request::query(key, ts)
                }
            })
            .collect();
        let totals = tree.run_batch(&Batch::new(reqs)).stats.totals;
        let planning: u64 = [Phase::Combine, Phase::ResultCalc]
            .iter()
            .map(|&p| totals.phases.row(p).cycles)
            .sum();
        exec_cycles += totals.cycles - planning;
        descents_saved += totals.descents_saved;
        cache_hits += totals.pivot_cache_hits;
    }
    (exec_cycles, descents_saved, cache_hits)
}

/// The mechanism floor the coalesced descent was accepted on: epoch
/// execution of the duplicate-heavy mix costs at most two thirds of the
/// per-request baseline's cycles. Simulated cycles under the
/// deterministic scheduler repeat exactly — asserted — which is why the
/// floor carries no noise band.
#[test]
fn coalescing_cuts_duplicate_heavy_epoch_execution_by_a_third() {
    let on = duplicate_heavy_exec(true);
    let off = duplicate_heavy_exec(false);
    assert_eq!(on, duplicate_heavy_exec(true), "coalesced run repeats");
    assert_eq!(off, duplicate_heavy_exec(false), "per-request run repeats");
    assert!(on.1 > 0 && on.2 > 0, "coalesced counters never fired");
    assert_eq!((off.1, off.2), (0, 0), "baseline touched the machinery");
    let speedup = off.0 as f64 / on.0 as f64;
    assert!(
        speedup >= 1.5,
        "coalesced is only {speedup:.2}x per-request"
    );
}
