//! Analytic device-cost accounting for host-executed primitives.

use eirene_sim::{DeviceConfig, KernelStats, Phase, WarpStats};

/// Device cost of a primitive, in the same units as
/// [`WarpStats`](eirene_sim::WarpStats).
///
/// Primitives run on the host for speed, but they would run on the device
/// in the real system and the paper charges their time to Eirene, so each
/// primitive computes the memory traffic and control flow it would issue
/// and converts it to cycles with the shared latency model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrimCost {
    pub mem_insts: u64,
    pub mem_words: u64,
    pub mem_transactions: u64,
    pub control_insts: u64,
    pub cycles: u64,
}

impl PrimCost {
    /// Cost of streaming `words` words `passes` times (each pass reads and
    /// writes the stream once) plus `control_per_word` control instructions
    /// per word per pass.
    pub fn streaming(cfg: &DeviceConfig, words: u64, passes: u64, control_per_word: u64) -> Self {
        let touched = 2 * words * passes; // read + write per pass
        let mem_insts = touched.div_ceil(cfg.warp_size as u64);
        let mem_transactions = touched.div_ceil(cfg.transaction_words() as u64);
        let control_insts = words * passes * control_per_word;
        let cycles = mem_transactions * cfg.mem_latency + control_insts * cfg.control_latency;
        PrimCost {
            mem_insts,
            mem_words: touched,
            mem_transactions,
            control_insts,
            cycles,
        }
    }

    /// Accumulates another primitive's cost.
    pub fn merge(&mut self, other: PrimCost) {
        self.mem_insts += other.mem_insts;
        self.mem_words += other.mem_words;
        self.mem_transactions += other.mem_transactions;
        self.control_insts += other.control_insts;
        self.cycles += other.cycles;
    }

    /// Converts the cost into a [`KernelStats`] with a makespan under the
    /// same occupancy model as real launches, assuming the primitive's work
    /// is perfectly balanced across resident warps (radix sort and scan
    /// are; that is why GPUs run them well). The whole cost is attributed
    /// to `phase`, so the per-phase rows still sum to the kernel totals.
    pub fn into_phased_kernel_stats(
        self,
        name: &str,
        cfg: &DeviceConfig,
        phase: Phase,
    ) -> KernelStats {
        let mut totals = WarpStats {
            mem_insts: self.mem_insts,
            mem_words: self.mem_words,
            mem_transactions: self.mem_transactions,
            control_insts: self.control_insts,
            cycles: self.cycles,
            ..Default::default()
        };
        let row = totals.phases.row_mut(phase);
        row.mem_insts = self.mem_insts;
        row.mem_words = self.mem_words;
        row.mem_transactions = self.mem_transactions;
        row.control_insts = self.control_insts;
        row.cycles = self.cycles;
        let makespan =
            self.cycles as f64 / cfg.resident_warps() as f64 + cfg.launch_overhead as f64;
        KernelStats {
            name: name.to_string(),
            warps: cfg.resident_warps() as u64,
            totals,
            makespan_cycles: makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_cost_scales_with_passes() {
        let cfg = DeviceConfig::default();
        let one = PrimCost::streaming(&cfg, 1000, 1, 2);
        let four = PrimCost::streaming(&cfg, 1000, 4, 2);
        assert_eq!(four.mem_words, 4 * one.mem_words);
        assert_eq!(four.control_insts, 4 * one.control_insts);
        assert!(four.cycles >= 4 * one.cycles - 8); // rounding slack
    }

    #[test]
    fn merge_accumulates() {
        let cfg = DeviceConfig::default();
        let mut a = PrimCost::streaming(&cfg, 100, 1, 1);
        let b = PrimCost::streaming(&cfg, 100, 1, 1);
        let before = a.cycles;
        a.merge(b);
        assert_eq!(a.cycles, 2 * before);
    }

    #[test]
    fn phased_conversion_keeps_rows_summing_to_totals() {
        let cfg = DeviceConfig::default();
        let c = PrimCost::streaming(&cfg, 4096, 2, 3);
        let ks = c.into_phased_kernel_stats("sort", &cfg, Phase::Combine);
        let summed = ks.totals.phases.summed();
        assert_eq!(summed.mem_insts, ks.totals.mem_insts);
        assert_eq!(summed.mem_words, ks.totals.mem_words);
        assert_eq!(summed.mem_transactions, ks.totals.mem_transactions);
        assert_eq!(summed.control_insts, ks.totals.control_insts);
        assert_eq!(summed.cycles, ks.totals.cycles);
        assert_eq!(ks.totals.phases.row(Phase::Combine).cycles, c.cycles);
    }

    #[test]
    fn kernel_stats_conversion_divides_by_parallelism() {
        let cfg = DeviceConfig::default();
        let c = PrimCost::streaming(&cfg, 1 << 20, 8, 2);
        let ks = c.into_phased_kernel_stats("sort", &cfg, Phase::Other);
        let expected = c.cycles as f64 / cfg.resident_warps() as f64 + cfg.launch_overhead as f64;
        assert!((ks.makespan_cycles - expected).abs() < 1e-6);
        assert_eq!(ks.totals.mem_transactions, c.mem_transactions);
    }
}
