//! YCSB-style workload specification and batch generation.
//!
//! The initial tree is bulk-loaded with the *even* keys
//! `2, 4, ..., 2 * tree_size`. Request keys are drawn from the full domain
//! `[1, 2 * tree_size]`, so roughly half of the upserts hit absent (odd)
//! keys and become true insertions that trigger leaf splits — the structure
//! conflicts the paper's update kernel must handle (§4.2).

use crate::request::{Batch, Key, OpKind, Request, Value};
use crate::zipf::Zipfian;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Key-popularity distribution of a workload. The paper's default is
/// `Uniform` (§8.1); YCSB's skewed option is zipfian with theta = 0.99.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Distribution {
    Uniform,
    Zipfian { theta: f64 },
}

/// Operation mix of a workload, as fractions summing to at most 1; the
/// remainder is point queries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    pub upsert: f64,
    pub delete: f64,
    pub range: f64,
    /// Length of generated range queries (the paper evaluates 4 and 8).
    pub range_len: u32,
}

impl Mix {
    /// The paper's default: 95% query / 5% update (§8.1).
    pub fn read_heavy() -> Self {
        Mix {
            upsert: 0.05,
            delete: 0.0,
            range: 0.0,
            range_len: 4,
        }
    }

    /// Pure point queries.
    pub fn query_only() -> Self {
        Mix {
            upsert: 0.0,
            delete: 0.0,
            range: 0.0,
            range_len: 4,
        }
    }

    /// Pure range queries of the given length (Fig. 13).
    pub fn range_only(range_len: u32) -> Self {
        Mix {
            upsert: 0.0,
            delete: 0.0,
            range: 1.0,
            range_len,
        }
    }

    /// YCSB workload A: 50% reads / 50% updates.
    pub fn ycsb_a() -> Self {
        Mix {
            upsert: 0.5,
            delete: 0.0,
            range: 0.0,
            range_len: 4,
        }
    }

    /// YCSB workload C: read-only.
    pub fn ycsb_c() -> Self {
        Self::query_only()
    }

    fn validate(&self) {
        let s = self.upsert + self.delete + self.range;
        assert!(
            (0.0..=1.0).contains(&s),
            "mix fractions must sum to <= 1, got {s}"
        );
        assert!(self.range_len >= 1, "range length must be at least 1");
    }
}

/// Full description of a benchmark workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of keys bulk-loaded into the tree before the batches run
    /// (the paper sweeps 2^23..2^26).
    pub tree_size: usize,
    /// Requests per batch (the paper buffers 1M requests per transfer, §7).
    pub batch_size: usize,
    pub mix: Mix,
    pub distribution: Distribution,
    pub seed: u64,
}

impl WorkloadSpec {
    /// Paper defaults scaled to the given tree-size exponent.
    pub fn with_tree_exp(exp: u32, batch_size: usize) -> Self {
        WorkloadSpec {
            tree_size: 1usize << exp,
            batch_size,
            mix: Mix::read_heavy(),
            distribution: Distribution::Uniform,
            seed: 0x00E1_BE4E,
        }
    }

    /// The even keys the tree is bulk-loaded with, in ascending order, with
    /// value `key + 1` (an arbitrary but checkable scheme).
    pub fn initial_pairs(&self) -> Vec<(Key, Value)> {
        (1..=self.tree_size as u64)
            .map(|i| ((2 * i) as Key, (2 * i + 1) as Value))
            .collect()
    }

    /// Upper bound of the key domain requests are drawn from.
    pub fn key_domain(&self) -> u64 {
        2 * self.tree_size as u64
    }

    /// The same workload viewed by one of several concurrent clients: an
    /// identical shape with a seed derived from `client`, so multi-client
    /// benchmarks draw independent (but per-client deterministic) request
    /// streams instead of `N` copies of one stream.
    pub fn for_client(&self, client: u64) -> WorkloadSpec {
        let mut derived = self.clone();
        // SplitMix64 finalizer over (seed, client).
        let mut z = self
            .seed
            .wrapping_add(client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        derived.seed = z ^ (z >> 31);
        derived
    }
}

/// Streaming batch generator for a [`WorkloadSpec`].
pub struct WorkloadGen {
    spec: WorkloadSpec,
    rng: ChaCha8Rng,
    zipf: Option<Zipfian>,
    next_ts: u64,
}

impl WorkloadGen {
    pub fn new(spec: WorkloadSpec) -> Self {
        spec.mix.validate();
        assert!(spec.tree_size > 0, "tree_size must be positive");
        assert!(spec.batch_size > 0, "batch_size must be positive");
        let zipf = match spec.distribution {
            Distribution::Uniform => None,
            Distribution::Zipfian { theta } => Some(Zipfian::new(spec.key_domain(), theta)),
        };
        let rng = ChaCha8Rng::seed_from_u64(spec.seed);
        WorkloadGen {
            spec,
            rng,
            zipf,
            next_ts: 0,
        }
    }

    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn sample_key(&mut self) -> Key {
        let domain = self.spec.key_domain();
        let raw = match &self.zipf {
            None => self.rng.gen_range(0..domain),
            Some(z) => {
                let rank = z.rank(self.rng.gen::<f64>());
                // Scatter ranks over the domain so hot keys are not all
                // adjacent (YCSB applies an FNV hash; a multiplicative
                // hash keeps the same effect deterministically).
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % domain
            }
        };
        // Keys live in [1, domain]; 0 is reserved.
        (raw + 1) as Key
    }

    /// Generates the next batch of requests with fresh logical timestamps.
    pub fn next_batch(&mut self) -> Batch {
        Batch::new(self.next_requests(self.spec.batch_size))
    }

    /// Generates the next `n` requests as a flat stream (timestamps stay
    /// globally monotonic across calls). The serving layer submits streams
    /// rather than pre-formed batches — epoch boundaries are decided by
    /// each shard's ingress queue, not by the generator.
    pub fn next_requests(&mut self, n: usize) -> Vec<Request> {
        let mut requests = Vec::with_capacity(n);
        let mix = self.spec.mix;
        for _ in 0..n {
            let key = self.sample_key();
            let ts = self.next_ts;
            self.next_ts += 1;
            let p: f64 = self.rng.gen();
            let op = if p < mix.upsert {
                OpKind::Upsert(self.rng.gen::<u32>() >> 1)
            } else if p < mix.upsert + mix.delete {
                OpKind::Delete
            } else if p < mix.upsert + mix.delete + mix.range {
                OpKind::Range { len: mix.range_len }
            } else {
                OpKind::Query
            };
            requests.push(Request { key, op, ts });
        }
        requests
    }
}

/// Shard-aware request generator: wraps a [`WorkloadGen`] and rewrites a
/// configurable fraction of the stream onto shard-boundary keys, with
/// range queries anchored just below a boundary so they straddle it. This
/// is the workload that stresses a sharded service's range
/// splitter/merger and boundary routing (the plain generator rarely lands
/// on the handful of boundary keys).
pub struct ShardedGen {
    gen: WorkloadGen,
    /// Interior shard-start keys (a key `< b` routes left of boundary `b`,
    /// a key `>= b` routes right).
    boundaries: Vec<Key>,
    /// Fraction of requests rewritten onto a boundary neighbourhood.
    straddle: f64,
    rng: ChaCha8Rng,
}

impl ShardedGen {
    /// # Panics
    /// Panics if `boundaries` is empty or `straddle` is outside `[0, 1]`.
    pub fn new(spec: WorkloadSpec, boundaries: Vec<Key>, straddle: f64) -> Self {
        assert!(!boundaries.is_empty(), "need at least one shard boundary");
        assert!(
            (0.0..=1.0).contains(&straddle),
            "straddle fraction must be in [0, 1]"
        );
        let rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x5A4D_B01D);
        ShardedGen {
            gen: WorkloadGen::new(spec),
            boundaries,
            straddle,
            rng,
        }
    }

    pub fn spec(&self) -> &WorkloadSpec {
        self.gen.spec()
    }

    /// Generates the next `n` requests; roughly `straddle * n` of them are
    /// rewritten onto boundary keys (ranges start `len - 1` below a
    /// boundary, so at `len >= 2` they span it).
    pub fn next_requests(&mut self, n: usize) -> Vec<Request> {
        let mut reqs = self.gen.next_requests(n);
        for r in &mut reqs {
            if self.rng.gen::<f64>() >= self.straddle {
                continue;
            }
            let b = self.boundaries[self.rng.gen_range(0..self.boundaries.len() as u64) as usize];
            r.key = match r.op {
                // Anchor ranges so the window [key, key + len - 1] covers
                // keys on both sides of the boundary.
                OpKind::Range { len } => b.saturating_sub(len.saturating_sub(1).max(1) / 2 + 1),
                // Point ops hit the boundary key itself or a neighbour.
                _ => {
                    let delta = self.rng.gen_range(0..4u64) as u32;
                    if self.rng.gen::<bool>() {
                        b.saturating_add(delta)
                    } else {
                        b.saturating_sub(delta)
                    }
                }
            };
        }
        reqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            tree_size: 1 << 10,
            batch_size: 4096,
            mix: Mix::read_heavy(),
            distribution: Distribution::Uniform,
            seed: 42,
        }
    }

    #[test]
    fn initial_pairs_are_even_keys() {
        let s = spec();
        let pairs = s.initial_pairs();
        assert_eq!(pairs.len(), 1 << 10);
        assert!(pairs.iter().all(|(k, v)| k % 2 == 0 && *v == k + 1));
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn batch_respects_mix_ratios_approximately() {
        let mut gen = WorkloadGen::new(spec());
        let b = gen.next_batch();
        let updates = b.requests.iter().filter(|r| r.op.is_update()).count();
        let frac = updates as f64 / b.len() as f64;
        assert!((frac - 0.05).abs() < 0.02, "update fraction {frac}");
    }

    #[test]
    fn timestamps_are_globally_monotonic_across_batches() {
        let mut gen = WorkloadGen::new(spec());
        let b1 = gen.next_batch();
        let b2 = gen.next_batch();
        let max1 = b1.requests.iter().map(|r| r.ts).max().unwrap();
        let min2 = b2.requests.iter().map(|r| r.ts).min().unwrap();
        assert!(min2 > max1);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = WorkloadGen::new(spec()).next_batch();
        let b = WorkloadGen::new(spec()).next_batch();
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn keys_stay_in_domain_and_nonzero() {
        let mut gen = WorkloadGen::new(spec());
        let b = gen.next_batch();
        let domain = gen.spec().key_domain();
        assert!(b
            .requests
            .iter()
            .all(|r| r.key >= 1 && (r.key as u64) <= domain));
    }

    #[test]
    fn zipfian_workload_produces_hot_keys() {
        let mut s = spec();
        s.distribution = Distribution::Zipfian { theta: 0.99 };
        s.batch_size = 20_000;
        let mut gen = WorkloadGen::new(s);
        let b = gen.next_batch();
        let mut counts = std::collections::HashMap::new();
        for r in &b.requests {
            *counts.entry(r.key).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        // Uniform over 2^11 keys would give ~10 per key; zipfian must
        // concentrate far more on the hottest key.
        assert!(max > 100, "hottest key only seen {max} times");
    }

    #[test]
    fn ycsb_presets_are_consistent() {
        for m in [Mix::ycsb_a(), Mix::ycsb_c()] {
            m.validate();
        }
        assert_eq!(Mix::ycsb_a().upsert, 0.5);
    }

    #[test]
    fn next_requests_streams_the_same_sequence_as_batches() {
        let mut by_batch = WorkloadGen::new(spec());
        let mut by_stream = WorkloadGen::new(spec());
        let a = by_batch.next_batch().requests;
        let b = by_stream.next_requests(spec().batch_size);
        assert_eq!(a, b);
        // Streaming keeps timestamps globally monotonic too.
        let c = by_stream.next_requests(16);
        assert!(c[0].ts > b.last().unwrap().ts);
    }

    #[test]
    fn sharded_gen_straddles_boundaries() {
        let mut s = spec();
        s.mix = Mix {
            range: 0.5,
            ..Mix::read_heavy()
        };
        let boundaries = vec![512u32, 1024, 1536];
        let mut gen = ShardedGen::new(s, boundaries.clone(), 0.5);
        let reqs = gen.next_requests(4096);
        // A healthy fraction of ranges must straddle some boundary: start
        // strictly below it and end at or past it.
        let straddling = reqs
            .iter()
            .filter(|r| match r.op {
                OpKind::Range { len } => boundaries
                    .iter()
                    .any(|&b| r.key < b && r.key as u64 + len as u64 > b as u64),
                _ => false,
            })
            .count();
        assert!(straddling > 100, "only {straddling} straddling ranges");
        // Point ops land on the boundary keys themselves.
        assert!(boundaries
            .iter()
            .any(|&b| reqs.iter().any(|r| r.key == b && !r.op.is_range())));
        // Determinism: same spec + boundaries → same stream.
        let mut gen2 = ShardedGen::new(gen.spec().clone(), boundaries, 0.5);
        assert_eq!(gen2.next_requests(4096), reqs);
    }

    #[test]
    fn per_client_specs_are_deterministic_and_distinct() {
        let s = spec();
        let a = s.for_client(0);
        let b = s.for_client(1);
        assert_eq!(a.seed, s.for_client(0).seed);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.seed, s.seed, "client 0 must not alias the base stream");
        // Only the seed differs; the workload shape is preserved.
        assert_eq!(a.tree_size, s.tree_size);
        assert_eq!(a.batch_size, s.batch_size);
        assert_eq!(a.mix, s.mix);
        let ra = WorkloadGen::new(a).next_requests(64);
        let rb = WorkloadGen::new(b).next_requests(64);
        assert_ne!(ra, rb);
    }

    #[test]
    fn range_only_mix_generates_ranges() {
        let mut s = spec();
        s.mix = Mix::range_only(8);
        let mut gen = WorkloadGen::new(s);
        let b = gen.next_batch();
        assert!(b.requests.iter().all(|r| r.op == OpKind::Range { len: 8 }));
    }
}
