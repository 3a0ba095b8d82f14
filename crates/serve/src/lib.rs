//! # eirene-serve — sharded multi-device serving layer
//!
//! Serves the Eirene GB-tree as a *service*: the `u32` key domain is
//! partitioned into contiguous shards ([`ShardMap`]), each shard owns an
//! independent simulated device and tree, and clients submit individual
//! timestamped requests through bounded ingress queues instead of
//! hand-building batches.
//!
//! The layer adds, on top of `eirene-core`:
//!
//! - **Async submission** — [`Client::submit`] returns a [`Ticket`]
//!   redeemable for the request's [`Outcome`]; [`Client::submit_many`]
//!   admits a whole request vector with one timestamp range-claim and one
//!   bulk enqueue per shard. Admission is lock-free: a bare atomic
//!   timestamp counter plus a watermark of in-flight submissions that
//!   lets each combiner restore timestamp order (see the `admit`,
//!   `reorder` and `service` module docs).
//! - **One thread per shard** — each shard's thread combines an epoch
//!   (gathers, orders, expires), plans it with
//!   [`build_plan`](eirene_core::plan::build_plan), runs it on the device
//!   and settles its tickets before it combines the next. A partial epoch
//!   closes as soon as every caller the last epoch released is back, or
//!   after one epoch's service time — at most [`ServeConfig::linger`]
//!   after its first request.
//! - **Admission control** — bounded per-shard queues with a
//!   shed-or-block [`AdmitPolicy`], plus per-request deadlines surfaced
//!   as [`Outcome::TimedOut`] without executing.
//! - **Cross-shard ranges** — range queries spanning shard boundaries are
//!   split into per-shard sub-queries sharing one timestamp and merged
//!   positionally, preserving global linearizability (see the
//!   `service` module docs for the argument).
//! - **Reports** — per-shard telemetry ([`ShardReport`]) with the
//!   serving-only `ingress` / `queue_wait` phases, end-to-end latency
//!   histograms, captured schedules, and aggregate views
//!   ([`ServeReport`]).
//! - **One batch limit** — as in the paper, every epoch of a service is
//!   capped at one fixed size, [`ServeConfig::sizing`]; an epoch the load
//!   cannot fill closes by the rules above instead.
//! - **Tenant quotas** — with a [`QosConfig`] installed, a tenant
//!   ([`Client::for_tenant`]) may hold at most its quota of entries on
//!   each shard, queued or in admission; admission spends the quota room
//!   as one more credit, so an abusive tenant sheds at its own quota —
//!   `Rejected`, with no timestamp and without blocking — while
//!   well-behaved tenants keep their latency (see the `lane` module docs).
//! - **Live observability** — on exactly when a [`ServiceObserver`] is
//!   registered in [`ObserveConfig`]: each shard then emits a
//!   [`ShardSample`] of counters, gauges, and latency summaries at every
//!   epoch boundary, records a [`LifecycleSpan`] per ticket — its
//!   arrival, its epoch's start and its epoch's end on the virtual clock
//!   — into a bounded ring, and evaluates [`SloSpec`] objectives over
//!   sliding epoch windows. The observer's one method,
//!   [`ServiceObserver::on_sample`], receives each sample with the
//!   [`SloBreach`]es it tripped. A final *terminal* sample snapshots each
//!   shard's totals, so sampled series reconcile exactly with the
//!   shutdown [`ServeReport`] ([`reconcile_samples`]), whose own
//!   invariants [`ServeReport::check`] tests.
//! - **Skew resilience** — with [`Sharding::Hash`] keys scatter by
//!   multiplicative hash, so Zipf-hot key *ranges* cannot pile onto one
//!   shard (ranges are served by scatter-gather to every shard and merged
//!   positionally). The shard map is fixed for the service's lifetime.

mod admit;
mod combine;
mod execute;
mod lane;
mod observe;
mod queue;
mod reorder;
mod report;
mod service;
mod shard;
mod ticket;

pub use lane::{QosConfig, TenantId};
pub use observe::{
    reconcile_samples, CloseCounts, LatencySummary, ObserveConfig, SeriesCollector,
    ServiceObserver, ShardSample, SloBreach, SloMonitor, SloObjective, SloSpec,
};
pub use queue::AdmitPolicy;
pub use report::{ServeReport, ShardReport};
pub use service::{Client, ServeConfig, Service};
pub use shard::{hash_shard, RangePart, ShardId, ShardMap, ShardMapError, Sharding};
pub use ticket::{Outcome, Ticket};

// Span types live in `eirene-telemetry`; re-exported here because the
// serving layer is what records them.
pub use eirene_telemetry::{spans_from_jsonl, spans_to_jsonl, LifecycleSpan, SpanRing};
