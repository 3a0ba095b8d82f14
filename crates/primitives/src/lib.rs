//! Device-style primitives with cost accounting.
//!
//! The paper's combining phase sorts each request batch with CUB's radix
//! sort (§7) and explicitly *includes the sorting time* in every Eirene
//! measurement (§8.1). This crate provides the equivalent:
//! [`radix_sort_pairs`], a stable LSD radix sort over `u32` or `u64` keys
//! with `u32` payloads. The combining phase sorts bare 32-bit keys stably
//! from timestamp order, which yields the `(key, timestamp)` order of the
//! device's composite-key sort, and charges that composite sort
//! ([`radix_sort_cost`]).
//!
//! The computation is executed for real, as a plain loop on the calling
//! host thread — no thread is created or woken on the request path; its
//! *device cost* is charged analytically through [`PrimCost`], using the
//! same latency model as instrumented kernels: radix sort streams the batch
//! once per digit pass (read + scatter write). Other host-executed phases
//! (combining scans, result calculation, pivot staging) charge themselves
//! through [`PrimCost::streaming`] the same way. This keeps the combining
//! overhead visible in every throughput and response-time figure without
//! paying for per-element instrumentation on the host.

mod cost;
mod sort;

pub use cost::PrimCost;
pub use sort::{radix_sort_cost, radix_sort_pairs, RadixKey};
