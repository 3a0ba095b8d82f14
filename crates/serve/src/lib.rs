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
//! - **Epoch pipelining** — per shard, a combiner thread forms and plans
//!   epoch N+1 (host work) while the executor runs epoch N on the device,
//!   exploiting that [`build_plan`](eirene_core::plan::build_plan) needs
//!   no tree access. A partial epoch keeps gathering while the executor
//!   is busy (that batching costs nothing); once the executor is idle it
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
//! - **Closed-loop epoch sizing** — [`EpochSizing::Adaptive`] replaces
//!   the fixed batch limit with a per-shard AIMD controller fed by the
//!   epoch-boundary signals (queue depth, reorder backlog, epoch p99);
//!   [`EpochSizing::Fixed`] keeps the paper's constant-batch model for
//!   ablation.
//! - **Per-tenant QoS lanes** — with a [`QosConfig`] installed, each
//!   submission stages on its home shard's lane for the submitting
//!   tenant ([`Client::for_tenant`]); combiners admit lanes by weighted
//!   round-robin and enforce per-tenant quotas, so an abusive tenant
//!   sheds at its own quota while well-behaved tenants keep their
//!   latency (see the `lane` module docs).
//! - **Live observability** — with [`ObserveConfig`] enabled, each shard
//!   emits a [`ShardSample`] of counters, gauges, and latency summaries
//!   at every epoch boundary, records per-ticket lifecycle spans
//!   (submit → enqueue → reorder-release → combine → execute → complete)
//!   into a bounded ring, and evaluates [`SloSpec`] objectives over
//!   sliding epoch windows, pushing samples and [`SloBreach`] events to a
//!   registered [`ServiceObserver`]. A final *terminal* sample snapshots
//!   each shard's totals, so sampled series reconcile exactly with the
//!   shutdown [`ServeReport`] ([`reconcile_samples`]).
//! - **Skew resilience** — two answers to the hot-shard problem. With
//!   [`Sharding::Hash`] keys scatter by multiplicative hash, so Zipf-hot
//!   key *ranges* cannot pile onto one shard (ranges are served by
//!   scatter-gather to every shard and merged positionally). With range
//!   sharding plus a [`RebalanceSpec`], an online rebalancer watches each
//!   shard's backlog and moves shard boundaries live — quiescing the
//!   affected pair, migrating keys between their trees, and atomically
//!   publishing the new [`ShardMap`] — emitting a [`RebalanceEvent`] per
//!   published move.

mod admit;
mod combine;
mod control;
mod execute;
mod lane;
mod observe;
mod queue;
mod rebalance;
mod reorder;
mod report;
mod service;
mod shard;
mod ticket;

pub use control::{AimdSpec, BatchController, EpochFeedback, EpochSizing};
pub use lane::{QosConfig, TenantId, TenantSpec};
pub use observe::{
    reconcile_samples, CloseCounts, LatencySummary, ObserveConfig, SeriesCollector,
    ServiceObserver, ShardSample, SloBreach, SloMonitor, SloObjective, SloSpec,
};
pub use queue::AdmitPolicy;
pub use rebalance::{RebalanceAction, RebalanceEvent, RebalanceKind, RebalanceSpec};
pub use report::{ServeReport, ShardReport};
pub use service::{Client, FaultPlan, ServeConfig, Service};
pub use shard::{hash_shard, RangePart, ShardId, ShardMap, ShardMapError, Sharding};
pub use ticket::{Outcome, Ticket};

// Span types live in `eirene-telemetry`; re-exported here because the
// serving layer is what records them.
pub use eirene_telemetry::{
    chrome_trace_with_spans, spans_from_jsonl, spans_to_jsonl, LifecycleSpan, SpanPhase, SpanRing,
    SPAN_PHASES,
};
