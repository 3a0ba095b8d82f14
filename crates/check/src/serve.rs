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
use eirene_serve::{
    reconcile_samples, AdmitPolicy, Client, ObserveConfig, Outcome, QosConfig, SeriesCollector,
    ServeConfig, Service, ShardMap, Sharding, Ticket,
};
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

/// One client per tenant (just the default client without tenants).
fn tenant_clients(svc: &Service, opts: &Fuzz) -> Vec<Client> {
    let base = svc.client();
    if opts.tenants > 1 {
        (0..opts.tenants).map(|t| base.for_tenant(t)).collect()
    } else {
        vec![base]
    }
}

/// Submits the stream: one client, or `submitters` racing threads on
/// contiguous slices. Tickets keep submission-slice order so
/// `tickets[i]` still belongs to `reqs[i]`.
fn submit_racing(
    clients: &[Client],
    reqs: &[Request],
    submitters: usize,
    seed: u64,
) -> Vec<Ticket> {
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
/// contents and the structures against the sequential oracle replayed in
/// admission-timestamp order, then the report's own invariants
/// ([`ServeReport::check`](eirene_serve::ServeReport::check)). Only
/// tenants shed, at quotas below their shares: `Rejected`, untimestamped.
pub fn run_serve_case(
    opts: &Fuzz,
    map: &ShardMap,
    pairs: &[(u64, u64)],
    device_seed: u64,
    reqs: &[Request],
) -> Result<(), Violation> {
    // Observability rides along on every case: a live sample collector
    // turns span recording on, and both are cross-checked against the
    // final report below.
    let collector = SeriesCollector::new();
    // With tenants, half a tenant's per-shard share: the gate is held, so
    // nothing drains and the tenants cross their quotas mid-call.
    let quotas = opts.tenants > 1;
    let share = reqs.len() / (opts.tenants * map.num_shards()).max(1);
    let qos = QosConfig::uniform(if quotas { opts.tenants } else { 0 }, share / 2);
    let cfg = ServeConfig {
        map: map.clone(),
        sharding: if opts.hash {
            Sharding::Hash
        } else {
            Sharding::Range
        },
        device: opts.device(device_seed),
        sizing: opts.epoch_limit,
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
    let tickets = submit_racing(&clients, reqs, submitters, device_seed);
    svc.release();
    let report = svc.shutdown();

    // Replay the oracle in admission-timestamp order — the service's
    // linearization order whatever the submission interleaving was.
    // Empty-window ranges are never admitted (no timestamp): they must
    // resolve to an empty range response and touch nothing. Neither are
    // requests shed at a tenant's quota.
    let mut order: Vec<(u64, usize)> = Vec::with_capacity(tickets.len());
    let mut rejected = 0;
    for (index, ticket) in tickets.iter().enumerate() {
        match ticket.timestamp() {
            Some(ts) => order.push((ts, index)),
            None => {
                let want = Response::Range(Vec::new());
                match ticket.wait() {
                    Outcome::Done(got) if got == want => {}
                    Outcome::Rejected if quotas => rejected += 1,
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
    let tenant_shed: u64 = report.shards.iter().flat_map(|s| &s.tenant_shed).sum();
    if report.shed() != rejected || tenant_shed != rejected || report.timed_out() != 0 {
        return Err(Violation::Accounting(format!(
            "{rejected} tickets rejected, but shed={} (by tenant {tenant_shed}) timed_out={}",
            report.shed(),
            report.timed_out()
        )));
    }
    if report.shards.iter().any(|s| !s.spans_enabled) {
        return Err(Violation::Accounting(
            "observed shards recorded no spans".into(),
        ));
    }
    report.check().map_err(Violation::Accounting)?;
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
    fn serve_fuzz_passes_with_tenant_quotas() {
        passes(Fuzz {
            tenants: 4,
            ..short(6)
        });
    }

    #[test]
    fn serve_fuzz_passes_with_tenant_quotas_and_racing_submitters() {
        passes(Fuzz {
            tenants: 3,
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
    fn fuzz_shard_map_spreads_boundaries_over_the_domain() {
        let map = fuzz_shard_map(4, 4096);
        assert_eq!(map.boundaries(), vec![1024, 2048, 3072]);
        assert_eq!(map.shard_of(u32::MAX), 3);
        // A mid-domain window straddles a boundary into multiple parts.
        assert!(map.split_range(1000, 100).len() > 1);
    }
}
