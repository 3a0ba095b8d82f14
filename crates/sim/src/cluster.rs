//! Multi-device fleets: per-shard configuration derivation for the
//! serving layer.
//!
//! The sharded service (`eirene-serve`) owns one [`Device`](crate::Device)
//! per shard, driven by that shard's own thread. A [`Cluster`] derives one
//! [`DeviceConfig`] per shard from a base config:
//!
//! * **One worker (OS mode).** Every shard config gets `worker_threads = 1`,
//!   whatever the base says, so every launch runs on the shard thread that
//!   issued it and a shard's device never spawns a worker pool. The shards
//!   already supply the host parallelism; a pool per shard would only add
//!   hand-offs and threads competing with the other shards for the same
//!   cores. Nothing simulated changes: a one-worker pool ran the warps one
//!   at a time in warp-id order, exactly as the launching thread does.
//! * **Seed derivation (deterministic mode).** Each shard's device gets an
//!   independent scheduler seed (SplitMix64 of the base seed and the shard
//!   index) so shard interleavings are uncorrelated but still replay from
//!   the single base seed. `worker_threads` is *not* rewritten in
//!   deterministic mode: the det worker-slot bound shapes captured
//!   schedules and must stay host-independent (see
//!   [`DeviceConfig::det_workers`]).

use crate::config::DeviceConfig;
use crate::sched::SchedMode;

/// Per-shard [`DeviceConfig`]s derived from one base configuration.
#[derive(Clone, Debug)]
pub struct Cluster {
    configs: Vec<DeviceConfig>,
}

/// SplitMix64 step used for per-shard seed derivation (the same generator
/// the fuzz harness uses for per-case seeds).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Cluster {
    /// Derives `shards` per-shard configs from `base` (see module docs for
    /// the one-worker and seed-derivation policy).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(base: &DeviceConfig, shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        let configs = (0..shards)
            .map(|i| {
                let mut cfg = base.clone();
                match base.sched {
                    SchedMode::Deterministic { seed } => {
                        cfg.sched = SchedMode::Deterministic {
                            seed: mix64(seed ^ mix64(i as u64)),
                        };
                    }
                    SchedMode::Os => cfg.worker_threads = 1,
                }
                cfg
            })
            .collect();
        Cluster { configs }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The derived config of shard `i`.
    pub fn config(&self, i: usize) -> &DeviceConfig {
        &self.configs[i]
    }

    /// All derived configs, in shard order.
    pub fn configs(&self) -> &[DeviceConfig] {
        &self.configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_mode_shards_get_one_worker_whatever_the_base() {
        for (base_workers, shards) in [(0, 4), (0, 1024), (6, 4)] {
            let base = DeviceConfig {
                worker_threads: base_workers,
                ..DeviceConfig::test_small()
            };
            let c = Cluster::new(&base, shards);
            assert_eq!(c.len(), shards);
            assert!(
                c.configs().iter().all(|cfg| cfg.worker_threads == 1),
                "base worker_threads {base_workers}, {shards} shards"
            );
        }
    }

    #[test]
    fn det_mode_derives_distinct_seeds_and_keeps_workers_host_independent() {
        let base = DeviceConfig::test_small().with_deterministic_sched(42);
        let c = Cluster::new(&base, 4);
        let mut seeds: Vec<u64> = c
            .configs()
            .iter()
            .map(|cfg| match cfg.sched {
                SchedMode::Deterministic { seed } => seed,
                SchedMode::Os => panic!("expected deterministic mode"),
            })
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "shard seeds must be distinct");
        // worker_threads stays at the base value (auto) so det_workers()
        // remains the host-independent constant.
        assert!(c.configs().iter().all(|cfg| cfg.worker_threads == 0));
        assert!(c
            .configs()
            .iter()
            .all(|cfg| cfg.det_workers() == DeviceConfig::DET_WORKER_SLOTS));
    }

    #[test]
    fn derivation_is_deterministic() {
        let base = DeviceConfig::test_small().with_deterministic_sched(7);
        let a = Cluster::new(&base, 3);
        let b = Cluster::new(&base, 3);
        assert_eq!(a.configs(), b.configs());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        Cluster::new(&DeviceConfig::test_small(), 0);
    }
}
