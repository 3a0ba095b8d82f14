//! Software SIMT device model — the substrate every tree in this workspace
//! runs on.
//!
//! The paper evaluates on an NVIDIA A100; this crate replaces the GPU with a
//! behavioural model that preserves what the paper actually measures:
//!
//! * **Real concurrency.** Kernels launch one closure per warp and warps run
//!   in parallel on the device's persistent pool of host threads over a
//!   *shared* word-addressable global-memory arena backed by `AtomicU64`
//!   (the pool is the workspace's only host threading substrate below the
//!   serve layer). Locks genuinely contend,
//!   STM transactions genuinely abort, versions genuinely change under a
//!   reader's feet — the conflict behaviour that drives the paper's QoS
//!   story is real, not synthesized.
//! * **Instrumentation.** Every device memory instruction, coalesced
//!   transaction, control-flow instruction, atomic, and conflict is counted
//!   as warps run ([`WarpStats`]) and aggregated per kernel ([`KernelStats`]) —
//!   the quantities Nsight Compute reports in Figures 1, 9, 10 and 12.
//! * **Timing.** A simple latency/occupancy model
//!   ([`DeviceConfig`], [`KernelStats::makespan_cycles`]) converts those
//!   counts into kernel makespans and per-request response times, from which
//!   the throughput and QoS figures are derived.
//!
//! Units: device memory is addressed in 64-bit **words**; [`Addr`] is a word
//! index into the arena. Address 0 is reserved as a null pointer.

mod cluster;
mod config;
mod device;
mod mem;
mod pool;
mod sched;
mod slab;
mod stats;
mod warp;

pub use cluster::{mix64, Cluster, MIN_WORKERS_PER_SHARD};
pub use config::DeviceConfig;
pub use device::Device;
pub use mem::{Addr, GlobalMemory, NULL_ADDR};
pub use sched::{
    DetScheduler, LaunchSchedule, OsScheduler, SchedMode, ScheduleLog, Scheduler, OS_SCHEDULER,
};
pub use slab::{SlabStats, POISON_WORD};
pub use stats::{KernelStats, WarpStats};
pub use warp::WarpCtx;

// Observability vocabulary, re-exported so dependents need no direct
// telemetry dependency for the common cases.
pub use eirene_telemetry as telemetry;
pub use eirene_telemetry::{
    CycleHistogram, Phase, PhaseStats, PhaseTable, TraceEvent, TraceEventKind,
};
