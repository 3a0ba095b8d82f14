//! Observability layer for the Eirene reproduction.
//!
//! The paper's whole argument is observational — per-phase instruction and
//! conflict profiles (Figs. 1, 9, 12) and response-time QoS curves
//! (Figs. 2, 8) — so the simulator needs a software analogue of Nsight
//! Compute. This crate provides five pieces, dependency-free:
//!
//! * [`Phase`] / [`PhaseStats`] / [`PhaseTable`] — a phase taxonomy and
//!   per-phase sub-counter rows, accumulated by `WarpCtx` so every memory,
//!   control, atomic, and conflict event is attributed to the pipeline
//!   phase that issued it. Per-phase rows sum to kernel totals exactly.
//! * [`CycleHistogram`] — a bounded log-linear latency histogram with
//!   exact count/sum/min/max side-channels, replacing the unbounded
//!   `request_cycles: Vec<u64>` while keeping avg/min/max and the paper's
//!   §8.2 QoS variance bit-for-bit identical.
//! * [`JsonValue`] — a hand-rolled JSON document model with writer and
//!   parser, used for the stable metrics schema and in round-trip tests.
//! * [`TraceEvent`] / [`MetricsSink`] — structured export: a sink that
//!   collects per-run measurement documents and tables and serializes
//!   them to JSON, plus a chrome://tracing exporter for event timelines.
//! * [`LifecycleSpan`] / [`SpanRing`] — the serving layer's per-ticket
//!   lifecycle spans (arrival, epoch start and epoch end, in virtual-clock
//!   cycles) in a bounded per-shard ring, with JSON-lines export.

mod hist;
mod json;
mod phase;
mod sink;
mod span;
mod trace;

pub use hist::{CycleHistogram, MAX_BUCKETS};
pub use json::JsonValue;
pub use phase::{Phase, PhaseStats, PhaseTable, PHASE_COUNT};
pub use sink::MetricsSink;
pub use span::{spans_from_jsonl, spans_to_jsonl, LifecycleSpan, SpanRing};
pub use trace::{chrome_trace, TraceEvent, TraceEventKind};
