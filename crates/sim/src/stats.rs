//! Execution counters: accumulated by warps during a kernel, aggregated
//! per kernel.
//!
//! These are the quantities the paper profiles with Nsight Compute:
//! memory instructions and control-flow instructions per request
//! (Figs. 1, 9, 12), conflicts per request (Fig. 12), and traversal steps
//! (Fig. 10), plus the cycle accounting that feeds throughput (Fig. 7, 11,
//! 13) and response-time/QoS (Figs. 2, 8) numbers.
//!
//! Three observability layers ride on top of the raw totals:
//! per-[`Phase`] sub-counter rows (the software Nsight breakdown), a
//! bounded [`CycleHistogram`] of per-request response times, and an
//! optional per-warp [`TraceEvent`] log.

use eirene_telemetry::{CycleHistogram, PhaseStats, PhaseTable, TraceEvent};

#[cfg(test)]
use eirene_telemetry::Phase;

/// Counters accumulated while executing a kernel: by every warp a worker
/// slot ran during a launch, or by one warp when a [`WarpCtx`](crate::WarpCtx)
/// is given an accumulator of its own.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarpStats {
    /// Warp-issued memory instructions (one per warp-level load/store,
    /// regardless of how many lanes participate).
    pub mem_insts: u64,
    /// Total 64-bit words touched by those instructions.
    pub mem_words: u64,
    /// Coalesced memory transactions (128-byte segments touched).
    pub mem_transactions: u64,
    /// Control-flow instructions (branches, loop iterations, predicate
    /// evaluations) — instrumented at the algorithm's decision points.
    pub control_insts: u64,
    /// Atomic operations issued (CAS, fetch-add, ...).
    pub atomic_insts: u64,
    /// Lock-acquisition failures (lock-based concurrency control).
    pub lock_conflicts: u64,
    /// STM aborts (eager conflict detection or commit-time validation).
    pub stm_aborts: u64,
    /// Version-validation failures between inner traversal and leaf ops.
    pub version_conflicts: u64,
    /// Requests that entered Alg. 1's full-STM fallback, once each.
    pub fallbacks: u64,
    /// Nodes visited while traversing from the root ("vertical" steps).
    pub vertical_steps: u64,
    /// Leaf-chain nodes visited during horizontal traversal (§5).
    pub horizontal_steps: u64,
    /// Traversals that started from the root.
    pub vertical_traversals: u64,
    /// Traversals that started from a buffered leaf (§5).
    pub horizontal_traversals: u64,
    /// Upper-level descents avoided by leaf-run coalescing: requests that
    /// rode a run-mate's descent instead of walking from the root.
    pub descents_saved: u64,
    /// Run dispatches resolved from the snapshot pivot cache instead of
    /// device-memory upper levels.
    pub pivot_cache_hits: u64,
    /// Pivot-cache snapshot rebuilds (lazy, at batch boundaries).
    pub pivot_cache_rebuilds: u64,
    /// Requests completed (for per-request normalization).
    pub requests: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Per-phase breakdown of the shared counters above. Every update that
    /// flows through `WarpCtx` lands in exactly one row, so the rows sum
    /// to the totals exactly.
    pub phases: PhaseTable,
    /// Bounded histogram of per-request response times (cycles), with
    /// exact count/sum/min/max so averages and the §8.2 QoS variance are
    /// identical to the old exact-vector recording.
    pub latency: CycleHistogram,
    /// Optional event trace (empty unless `DeviceConfig::trace` is set).
    pub events: Vec<TraceEvent>,
}

impl WarpStats {
    /// Total conflicts of all classes.
    pub fn conflicts(&self) -> u64 {
        self.lock_conflicts + self.stm_aborts + self.version_conflicts
    }

    /// Accumulates `other` into `self` (used when merging warp results).
    /// Cost is bounded by the phase-table and histogram sizes, not by the
    /// number of requests the warps processed.
    pub fn merge(&mut self, other: &WarpStats) {
        self.merge_counters(other);
        // Clone-based event append only when there are events to carry
        // (i.e. tracing was on); the common trace-off path never touches
        // the allocator.
        if !other.events.is_empty() {
            self.events.extend_from_slice(&other.events);
        }
    }

    /// Move-based variant of [`merge`](Self::merge): consumes `other` and
    /// *appends* its trace events instead of cloning them. This is the
    /// aggregation path used by kernel launches, where per-slot stats are
    /// owned exactly once.
    pub fn absorb(&mut self, mut other: WarpStats) {
        self.merge_counters(&other);
        if !other.events.is_empty() {
            if self.events.is_empty() {
                self.events = std::mem::take(&mut other.events);
            } else {
                self.events.append(&mut other.events);
            }
        }
    }

    fn merge_counters(&mut self, other: &WarpStats) {
        self.mem_insts += other.mem_insts;
        self.mem_words += other.mem_words;
        self.mem_transactions += other.mem_transactions;
        self.control_insts += other.control_insts;
        self.atomic_insts += other.atomic_insts;
        self.lock_conflicts += other.lock_conflicts;
        self.stm_aborts += other.stm_aborts;
        self.version_conflicts += other.version_conflicts;
        self.fallbacks += other.fallbacks;
        self.vertical_steps += other.vertical_steps;
        self.horizontal_steps += other.horizontal_steps;
        self.vertical_traversals += other.vertical_traversals;
        self.horizontal_traversals += other.horizontal_traversals;
        self.descents_saved += other.descents_saved;
        self.pivot_cache_hits += other.pivot_cache_hits;
        self.pivot_cache_rebuilds += other.pivot_cache_rebuilds;
        self.requests += other.requests;
        self.cycles += other.cycles;
        self.phases.merge(&other.phases);
        self.latency.merge(&other.latency);
    }

    /// The phase-tracked counters summed across all phase rows. Equals the
    /// corresponding totals exactly for stats produced through `WarpCtx`.
    pub fn phase_sums(&self) -> PhaseStats {
        self.phases.summed()
    }
}

/// Aggregated result of one kernel launch (or several merged launches).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Kernel name(s), for reporting.
    pub name: String,
    /// Number of warps launched.
    pub warps: u64,
    /// Sum of all warp counters.
    pub totals: WarpStats,
    /// Makespan of the launch in cycles under the SM occupancy model.
    pub makespan_cycles: f64,
}

impl KernelStats {
    /// Per-request memory instructions.
    pub fn mem_insts_per_request(&self) -> f64 {
        ratio(self.totals.mem_insts, self.totals.requests)
    }

    /// Per-request traversal steps, vertical plus horizontal.
    pub fn steps_per_request(&self) -> f64 {
        let t = &self.totals;
        ratio(t.vertical_steps + t.horizontal_steps, t.requests)
    }

    /// Average response time in cycles across all completed requests
    /// (exact: the histogram tracks the sum and count exactly).
    pub fn avg_response_cycles(&self) -> f64 {
        self.totals.latency.mean()
    }

    /// Maximum response time in cycles (exact).
    pub fn max_response_cycles(&self) -> u64 {
        self.totals.latency.max()
    }

    /// Minimum response time in cycles (exact).
    pub fn min_response_cycles(&self) -> u64 {
        self.totals.latency.min()
    }

    /// Response-time quantile in cycles (bucket-midpoint estimate, ≤3.2%
    /// relative error; see [`CycleHistogram`]).
    pub fn response_quantile_cycles(&self, q: f64) -> u64 {
        self.totals.latency.quantile(q)
    }

    /// The paper's QoS metric (§8.2): `max(|max - avg|, |avg - min|) / avg`,
    /// i.e. the worst-side deviation of response time from the average.
    pub fn response_variance(&self) -> f64 {
        let avg = self.avg_response_cycles();
        if avg == 0.0 {
            return 0.0;
        }
        let hi = self.max_response_cycles() as f64 - avg;
        let lo = avg - self.min_response_cycles() as f64;
        hi.max(lo) / avg
    }

    /// Merges another kernel's stats into this one (sequential composition:
    /// makespans add, counters accumulate). The name becomes the union of
    /// the two names' `+`-separated kernels, in first-seen order, so an
    /// accumulator's name lists each kernel it has merged exactly once and
    /// stays the same length however many runs are merged into it.
    pub fn merge(&mut self, other: &KernelStats) {
        self.add_kernel_names(&other.name);
        self.warps += other.warps;
        self.totals.merge(&other.totals);
        self.makespan_cycles += other.makespan_cycles;
    }

    /// Move-based variant of [`merge`](Self::merge): consumes `other`,
    /// moving its trace events instead of cloning them (see
    /// [`WarpStats::absorb`]).
    pub fn absorb(&mut self, other: KernelStats) {
        self.add_kernel_names(&other.name);
        self.warps += other.warps;
        self.totals.absorb(other.totals);
        self.makespan_cycles += other.makespan_cycles;
    }

    /// Appends each kernel of the `+`-separated `names` that this name
    /// does not list yet: O(kernels²) string compares, however many runs
    /// were merged before.
    fn add_kernel_names(&mut self, names: &str) {
        for kernel in names.split('+').filter(|k| !k.is_empty()) {
            if !self.name.split('+').any(|have| have == kernel) {
                if !self.name.is_empty() {
                    self.name.push('+');
                }
                self.name.push_str(kernel);
            }
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp(mem: u64, ctrl: u64, reqs: u64) -> WarpStats {
        let mut latency = CycleHistogram::new();
        for i in 0..reqs {
            latency.record(10 + i);
        }
        let mut phases = PhaseTable::default();
        phases.row_mut(Phase::LeafOp).mem_insts = mem;
        phases.row_mut(Phase::Other).control_insts = ctrl;
        WarpStats {
            mem_insts: mem,
            control_insts: ctrl,
            requests: reqs,
            latency,
            phases,
            ..Default::default()
        }
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = warp(10, 20, 2);
        a.lock_conflicts = 1;
        let mut b = warp(5, 5, 1);
        b.stm_aborts = 2;
        a.merge(&b);
        assert_eq!(a.mem_insts, 15);
        assert_eq!(a.control_insts, 25);
        assert_eq!(a.requests, 3);
        assert_eq!(a.conflicts(), 3);
        assert_eq!(a.latency.count(), 3);
        // Phase rows merge alongside the totals.
        assert_eq!(a.phases.row(Phase::LeafOp).mem_insts, 15);
        assert_eq!(a.phase_sums().mem_insts, a.mem_insts);
        assert_eq!(a.phase_sums().control_insts, a.control_insts);
    }

    #[test]
    fn per_request_ratios() {
        let k = KernelStats {
            name: "t".into(),
            warps: 1,
            totals: warp(100, 50, 10),
            makespan_cycles: 0.0,
        };
        assert_eq!(k.mem_insts_per_request(), 10.0);
    }

    #[test]
    fn ratios_handle_zero_requests() {
        let k = KernelStats::default();
        assert_eq!(k.mem_insts_per_request(), 0.0);
        assert_eq!(k.response_variance(), 0.0);
    }

    #[test]
    fn response_variance_matches_definition() {
        let mut latency = CycleHistogram::new();
        for v in [8u64, 10, 12] {
            latency.record(v);
        }
        let k = KernelStats {
            totals: WarpStats {
                latency,
                requests: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((k.avg_response_cycles() - 10.0).abs() < 1e-9);
        assert!((k.response_variance() - 0.2).abs() < 1e-9);
        // Percentiles come from the same histogram.
        assert_eq!(k.response_quantile_cycles(0.50), 10);
        assert_eq!(k.response_quantile_cycles(0.999), 12);
    }

    #[test]
    fn kernel_merge_adds_makespans() {
        let mut a = KernelStats {
            name: "q".into(),
            makespan_cycles: 100.0,
            ..Default::default()
        };
        let b = KernelStats {
            name: "u".into(),
            makespan_cycles: 50.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.makespan_cycles, 150.0);
        assert_eq!(a.name, "q+u");
    }

    fn named(name: &str) -> KernelStats {
        KernelStats {
            name: name.into(),
            ..Default::default()
        }
    }

    /// A name is the ordered set of kernels merged into it: each
    /// `+`-separated kernel is listed once, in first-seen order, whether
    /// it arrives alone or inside a composite name, by `merge` and
    /// `absorb` alike. Merging the same runs again changes nothing, so an
    /// accumulator that books one composite name per epoch (a serve
    /// shard's) keeps a bounded name.
    #[test]
    fn kernel_merge_does_not_repeat_names() {
        let epoch = "eirene-combine+eirene-batch+eirene-pivot-build";
        let cases: [(&str, &[&str], &str); 6] = [
            ("q", &["u"], "q+u"),
            ("a+b", &["b+c"], "a+b+c"),
            (epoch, &[epoch], epoch),
            ("", &["q", "q+u", "", "u+r+q", "r", "s+q", "s"], "q+u+r+s"),
            ("q+u", &[""], "q+u"),
            ("", &[""], ""),
        ];
        for (start, runs, want) in cases {
            let (mut merged, mut absorbed) = (named(start), named(start));
            for _ in 0..1_000 {
                for run in runs {
                    merged.merge(&named(run));
                    absorbed.absorb(named(run));
                }
            }
            assert_eq!(merged.name, want, "merge {runs:?} into {start:?}");
            assert_eq!(absorbed.name, want, "absorb {runs:?} into {start:?}");
        }
    }
}
