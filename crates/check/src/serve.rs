//! Differential fuzzing of the whole sharded serving layer
//! (`eirene-serve`): adversarial request streams submitted through a
//! service — boundary-straddling ranges, delete churn, duplicate-heavy key
//! mixes from the existing generators — checked ticket-by-ticket against
//! the [`SequentialOracle`] — the serve leg's checker; the
//! [driver](crate::driver) shrinks a failing stream to a minimal
//! cross-shard counterexample.
//!
//! The oracle side leans on the service's linearizability contract: every
//! admitted request linearizes at its admission timestamp (exposed through
//! [`Ticket::timestamp`]), so replaying the submissions through the flat
//! [`SequentialOracle`] *in timestamp order* must reproduce every ticket's
//! response and the merged final contents — whatever the submission
//! interleaving was. That makes the same check work for one client and for
//! several racing lock-free submitter threads, and it exercises the epoch
//! structure, the shard split, the cross-shard range merge, the reorder
//! watermark, and batched [`Client::submit_many`] admission all at once
//! (each submitter chops its stream into pseudo-random single/batched
//! chunks derived from the case seed).

use crate::diff::{check_contents, oracle_over, Violation};
use crate::driver::{mix, Fuzz};
use crate::gen::dense_pairs;
use eirene_serve::{
    reconcile_samples, AdmitPolicy, AimdSpec, Client, EpochSizing, FaultPlan, ObserveConfig,
    Outcome, QosConfig, RebalanceAction, RebalanceKind, RebalanceSpec, SeriesCollector,
    ServeConfig, Service, ShardMap, Sharding, Ticket,
};
use eirene_sim::DeviceConfig;
#[cfg(doc)]
use eirene_workloads::SequentialOracle;
use eirene_workloads::{Batch, Key, OpKind, Oracle, Request, Response};
use std::time::Duration;

/// The shard map the fuzzer services use: boundaries spread uniformly
/// across the *generation domain* (not the full `u32` space), so generated
/// keys and range windows land on and straddle real shard boundaries. The
/// last shard still runs to `u32::MAX`, covering the boundary profile's
/// extreme keys.
pub fn fuzz_shard_map(shards: usize, domain: u32) -> ShardMap {
    assert!(shards > 0 && (shards as u64) <= domain as u64 + 1);
    let width = (domain / shards as u32).max(1);
    ShardMap::from_starts((0..shards as u32).map(|i| i * width).collect())
        .expect("valid shard starts")
}

/// Submits one stream as a pseudo-random mix of single `submit` calls
/// and `submit_many` chunks (chunk pattern derived from `seed`),
/// rotating each chunk across the tenant clients, returning the tickets
/// in submission order.
fn submit_stream(clients: &[Client], reqs: &[Request], seed: u64) -> Vec<Ticket> {
    let mut tickets = Vec::with_capacity(reqs.len());
    let mut state = seed;
    let mut i = 0;
    while i < reqs.len() {
        state = mix(state);
        let client = &clients[(state >> 32) as usize % clients.len()];
        let take = (1 + state % 13) as usize;
        let take = take.min(reqs.len() - i);
        if take == 1 {
            tickets.push(client.submit(reqs[i].key, reqs[i].op));
        } else {
            let ops: Vec<(Key, OpKind)> = reqs[i..i + take].iter().map(|r| (r.key, r.op)).collect();
            tickets.extend(client.submit_many(&ops));
        }
        i += take;
    }
    tickets
}

/// One client per tenant (just the default client when lanes are off).
fn tenant_clients(svc: &Service, opts: &Fuzz) -> Vec<Client> {
    let base = svc.client();
    if opts.tenants > 1 {
        (0..opts.tenants).map(|t| base.for_tenant(t)).collect()
    } else {
        vec![base]
    }
}

/// Submits one phase of the stream: one client, or `submitters` racing
/// threads on contiguous slices. Tickets keep submission-slice order so
/// `tickets[i]` still belongs to `reqs[i]`.
fn submit_phase(clients: &[Client], reqs: &[Request], submitters: usize, seed: u64) -> Vec<Ticket> {
    if submitters <= 1 {
        return submit_stream(clients, reqs, mix(seed));
    }
    let chunk = reqs.len().div_ceil(submitters);
    let mut parts: Vec<Vec<Ticket>> = Vec::with_capacity(submitters);
    std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .chunks(chunk.max(1))
            .enumerate()
            .map(|(t, slice)| {
                scope.spawn(move || submit_stream(clients, slice, mix(seed ^ t as u64)))
            })
            .collect();
        parts.extend(handles.into_iter().map(|h| h.join().expect("submitter")));
    });
    parts.into_iter().flatten().collect()
}

/// Submits `reqs` through a fresh service over `pairs` — one client, or
/// `opts.submitters` racing threads on contiguous slices, chunked through
/// `submit_many` either way — and checks every ticket, the merged
/// contents, the structures, and the report accounting against the
/// sequential oracle replayed in admission-timestamp order.
pub fn run_serve_case(
    opts: &Fuzz,
    map: &ShardMap,
    pairs: &[(u64, u64)],
    device_seed: u64,
    reqs: &[Request],
) -> Result<(), Violation> {
    // Observability rides along on every case: span recording plus a live
    // sample collector, cross-checked against the final report below.
    let collector = SeriesCollector::new();
    let sizing = if opts.adaptive {
        // Start well below the limit so the controller's moves are what
        // pick each epoch's size, not the bound.
        EpochSizing::Adaptive(AimdSpec::bounded(
            (opts.epoch_limit / 4).max(1),
            opts.epoch_limit.max(1),
        ))
    } else {
        EpochSizing::Fixed(opts.epoch_limit.max(1))
    };
    let qos = if opts.tenants > 1 {
        // Quota fits the whole case staged on one lane, so lanes never
        // shed and the zero-shed accounting check below still holds.
        QosConfig::uniform(opts.tenants, reqs.len() + 1)
    } else {
        QosConfig::disabled()
    };
    // Hash sharding and online rebalancing are mutually exclusive (the
    // hash topology is fixed), and rebalancing needs a boundary to move.
    let do_rebalance = opts.rebalance && !opts.hash && map.num_shards() >= 2;
    let cfg = ServeConfig {
        map: map.clone(),
        sharding: if opts.hash {
            Sharding::Hash
        } else {
            Sharding::Range
        },
        rebalance: do_rebalance.then(RebalanceSpec::manual),
        device: opts.device(device_seed),
        sizing,
        qos,
        // Generous: every entry (split ranges make one per covered shard)
        // fits queued at once, so nothing is shed even with the gate held.
        queue_depth: (reqs.len() + 1) * map.num_shards(),
        policy: AdmitPolicy::Block,
        linger: Duration::ZERO,
        hold_gate: true,
        headroom_nodes: (reqs.len() * 4).max(1 << 12),
        observe: ObserveConfig::with_observer(collector.clone()),
        ..ServeConfig::default()
    };
    let svc = Service::new(pairs, cfg);
    let submitters = opts.submitters.max(1);
    let clients = tenant_clients(&svc, opts);
    let tickets: Vec<Ticket> = if do_rebalance {
        // Phase 1 races the original topology behind the held gate...
        let (head, tail) = reqs.split_at(reqs.len() / 2);
        let mut tickets = submit_phase(&clients, head, submitters, device_seed);
        svc.release();
        // ...then a forced split and a forced merge migrate live keys
        // (quiescing needs the gate released, so forcing comes after)...
        svc.force_rebalance(RebalanceAction::Split { shard: 0 });
        svc.force_rebalance(RebalanceAction::Merge { left: 0 });
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while svc.rebalance_attempts() < 2 {
            if std::time::Instant::now() > deadline {
                return Err(Violation::Accounting(
                    "forced rebalance attempts did not complete within 30s".into(),
                ));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        // ...and phase 2 races the moved boundaries.
        tickets.extend(submit_phase(&clients, tail, submitters, mix(device_seed)));
        tickets
    } else {
        let tickets = submit_phase(&clients, reqs, submitters, device_seed);
        svc.release();
        tickets
    };
    let report = svc.shutdown();
    if do_rebalance {
        let has =
            |kind: RebalanceKind| report.rebalances.iter().any(|e| e.kind == kind && e.forced);
        if !has(RebalanceKind::Split) || !has(RebalanceKind::Merge) {
            return Err(Violation::Accounting(format!(
                "forced rebalance published {:?}: want at least one forced split and one forced merge",
                report.rebalances
            )));
        }
    }

    // Replay the oracle in admission-timestamp order — the service's
    // linearization order whatever the submission interleaving was.
    // Empty-window ranges are never admitted (no timestamp): they must
    // resolve to an empty range response and touch nothing.
    let mut order: Vec<(u64, usize)> = Vec::with_capacity(tickets.len());
    for (index, ticket) in tickets.iter().enumerate() {
        match ticket.timestamp() {
            Some(ts) => order.push((ts, index)),
            None => {
                let want = Response::Range(Vec::new());
                match ticket.wait() {
                    Outcome::Done(got) if got == want => {}
                    Outcome::Done(got) => {
                        return Err(Violation::Response {
                            index,
                            request: reqs[index],
                            got,
                            want,
                        })
                    }
                    outcome => {
                        return Err(Violation::NotExecuted {
                            index,
                            request: reqs[index],
                            outcome,
                        })
                    }
                }
            }
        }
    }
    order.sort_unstable();
    let mut oracle = oracle_over(pairs);
    let batch = Batch::new(
        order
            .iter()
            .map(|&(ts, i)| Request {
                key: reqs[i].key,
                op: reqs[i].op,
                ts,
            })
            .collect(),
    );
    let want = oracle.run_batch(&batch);
    for (pos, (&(_, index), want)) in order.iter().zip(want).enumerate() {
        match tickets[index].wait() {
            Outcome::Done(got) => {
                if got != want {
                    return Err(Violation::Response {
                        index,
                        request: batch.requests[pos],
                        got,
                        want,
                    });
                }
            }
            outcome => {
                return Err(Violation::NotExecuted {
                    index,
                    request: batch.requests[pos],
                    outcome,
                })
            }
        }
    }
    report.structure().map_err(Violation::Structure)?;
    check_contents(&report.contents(), &oracle)?;
    if report.shed() != 0 || report.timed_out() != 0 {
        return Err(Violation::Accounting(format!(
            "unexpected shed={} timed_out={}",
            report.shed(),
            report.timed_out()
        )));
    }
    if report.enqueued() != report.executed() {
        return Err(Violation::Accounting(format!(
            "enqueued {} != executed {}",
            report.enqueued(),
            report.executed()
        )));
    }
    if !report.phase_rows_sum_to_totals() {
        return Err(Violation::Accounting(
            "phase rows do not sum to totals".to_string(),
        ));
    }
    // Span lifecycle invariants: one monotone submit→complete chain per
    // executed entry, phase deltas telescoping to the span's end-to-end
    // cycles, and (with nothing evicted) span totals summing exactly to
    // the shard's reported latency histogram.
    for shard in &report.shards {
        if shard.spans.len() as u64 + shard.spans_dropped != shard.executed {
            return Err(Violation::Accounting(format!(
                "shard {}: {} spans + {} dropped != {} executed",
                shard.shard,
                shard.spans.len(),
                shard.spans_dropped,
                shard.executed
            )));
        }
        for span in &shard.spans {
            if !span.is_monotone() {
                return Err(Violation::Accounting(format!(
                    "shard {}: span {} stamps regress: {:?}",
                    shard.shard, span.id, span.stamps
                )));
            }
            if span.phase_deltas().iter().sum::<u64>() != span.total_cycles() {
                return Err(Violation::Accounting(format!(
                    "shard {}: span {} phase deltas do not telescope",
                    shard.shard, span.id
                )));
            }
        }
        if shard.spans_dropped == 0 {
            let span_sum: u64 = shard.spans.iter().map(|s| s.total_cycles()).sum();
            if span_sum != shard.latency.sum() {
                return Err(Violation::Accounting(format!(
                    "shard {}: span latency sum {span_sum} != histogram sum {}",
                    shard.shard,
                    shard.latency.sum()
                )));
            }
        }
    }
    // Arena accounting: the terminal sample is taken after the final
    // epoch advance, so nothing may still sit in quarantine, and the live
    // node count must be consistent with the shard's key count — every
    // non-root node holds at least MIN_OCCUPANCY (4) keys, so a shard
    // whose arena holds more blocks than keys (plus slack for the
    // sentinel, the root chain, and near-empty shards) is leaking nodes.
    for shard in &report.shards {
        if shard.arena_retired != 0 {
            return Err(Violation::Accounting(format!(
                "shard {}: {} blocks still quarantined at shutdown",
                shard.shard, shard.arena_retired
            )));
        }
        let bound = shard.key_count + 16;
        if shard.arena_live > bound {
            return Err(Violation::Accounting(format!(
                "shard {}: {} live node blocks for {} keys (bound {bound}): arena leak",
                shard.shard, shard.arena_live, shard.key_count
            )));
        }
    }
    // The live sample series (epoch ids, terminal counter snapshots) must
    // reconcile exactly with the report's totals.
    reconcile_samples(&collector.samples(), &report).map_err(Violation::Accounting)?;
    Ok(())
}

/// Fault-injection probe for the admission reservation guard (the
/// "submitter killed between reserve and push" leak): arms
/// [`FaultPlan::panic_on_admit`] so the first admission panics on its own
/// scratch thread *inside* the reserve→push window, then proves the slot
/// was recovered during unwind — the full queue depth must still admit
/// without shedding, every ticket must execute, and the drained report
/// must balance. Before the guard existed this wedged admission at
/// `queue_depth - 1` forever.
pub fn run_reservation_fault_case(queue_depth: usize) -> Result<(), String> {
    let pairs = dense_pairs(64);
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0]).expect("valid shard starts"),
        device: DeviceConfig::test_small(),
        sizing: EpochSizing::Fixed(64),
        queue_depth,
        policy: AdmitPolicy::Shed,
        linger: Duration::ZERO,
        hold_gate: true,
        fault: FaultPlan {
            panic_on_admit: Some(0),
        },
        ..ServeConfig::default()
    };
    let svc = Service::new(&pairs, cfg);
    // The victim submission dies mid-admission; the (expected) panic
    // stays on its scratch thread. Its noisy backtrace in test output is
    // the injection working.
    let victim = {
        let client = svc.client();
        std::thread::spawn(move || {
            let _ = client.submit(1, OpKind::Query);
        })
    };
    if victim.join().is_ok() {
        return Err("injected admission fault did not trip".into());
    }
    // With the slot released, the *full* queue depth still fits behind
    // the held gate; a leaked reservation would shed the last entry.
    let client = svc.client();
    let tickets: Vec<Ticket> = (0..queue_depth)
        .map(|i| client.submit(1 + i as u32, OpKind::Query))
        .collect();
    svc.release();
    let report = svc.shutdown();
    for (i, ticket) in tickets.iter().enumerate() {
        match ticket.wait() {
            Outcome::Done(_) => {}
            outcome => {
                return Err(format!(
                    "ticket {i} resolved {outcome:?}: leaked reservation starved admission"
                ))
            }
        }
    }
    if report.shed() != 0 {
        return Err(format!(
            "{} entries shed after the fault: reservation leaked",
            report.shed()
        ));
    }
    if report.enqueued() != queue_depth as u64 || report.executed() != queue_depth as u64 {
        return Err(format!(
            "post-fault accounting off: enqueued {} executed {} (want {queue_depth} each)",
            report.enqueued(),
            report.executed()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Leg, Outcome as Run};

    fn passes(fuzz: Fuzz) {
        match fuzz.run() {
            Run::Passed { cases, .. } => assert_eq!(cases, fuzz.cases),
            Run::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    fn short(cases: usize) -> Fuzz {
        Fuzz {
            cases,
            batch_size: 96,
            domain: 1024,
            initial_keys: 512,
            epoch_limit: 24,
            ..Fuzz::new(Leg::Serve)
        }
    }

    #[test]
    fn serve_fuzz_passes_a_short_run() {
        passes(short(12)); // two passes over every generator profile
    }

    #[test]
    fn serve_fuzz_passes_with_racing_submitters() {
        passes(Fuzz {
            submitters: 4,
            ..short(6)
        });
    }

    #[test]
    fn serve_fuzz_passes_with_adaptive_sizing_and_tenant_lanes() {
        passes(Fuzz {
            adaptive: true,
            tenants: 4,
            ..short(6)
        });
    }

    #[test]
    fn serve_fuzz_passes_with_adaptive_tenants_and_racing_submitters() {
        passes(Fuzz {
            adaptive: true,
            tenants: 3,
            submitters: 4,
            ..short(4)
        });
    }

    #[test]
    fn serve_fuzz_passes_with_forced_rebalancing() {
        passes(Fuzz {
            rebalance: true,
            ..short(6)
        });
    }

    #[test]
    fn serve_fuzz_passes_with_rebalancing_and_racing_submitters() {
        passes(Fuzz {
            rebalance: true,
            submitters: 4,
            ..short(4)
        });
    }

    #[test]
    fn serve_fuzz_passes_under_hash_sharding() {
        passes(Fuzz {
            hash: true,
            ..short(6)
        });
    }

    #[test]
    fn serve_fuzz_passes_under_deterministic_scheduling() {
        passes(Fuzz {
            batch_size: 64,
            deterministic: true,
            ..short(2)
        });
    }

    #[test]
    fn killed_submitter_releases_its_reservation() {
        run_reservation_fault_case(32).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn fuzz_shard_map_spreads_boundaries_over_the_domain() {
        let map = fuzz_shard_map(4, 4096);
        assert_eq!(map.boundaries(), vec![1024, 2048, 3072]);
        assert_eq!(map.shard_of(u32::MAX), 3);
        // A mid-domain window straddles a boundary into multiple parts.
        assert!(map.split_range(1000, 100).len() > 1);
    }
}
