//! Key-range shard map: routing, cross-shard range splitting, and the
//! hash-scatter alternative.

use eirene_workloads::{range_window, Key};

/// Identifier of a shard (index into the service's shard array).
pub type ShardId = usize;

/// Why a shard-start vector does not describe a valid partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardMapError {
    /// The start vector was empty: a map needs at least one shard.
    Empty,
    /// `starts[0]` was not `0`, leaving low keys unowned.
    FirstNotZero(Key),
    /// `starts[index]` does not strictly exceed `starts[index - 1]` —
    /// a duplicate start describes an empty shard, a descending one an
    /// overlap.
    NotAscending { index: usize, prev: Key, next: Key },
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMapError::Empty => write!(f, "a shard map needs at least one shard"),
            ShardMapError::FirstNotZero(k) => {
                write!(f, "the first shard must start at key 0, got {k}")
            }
            ShardMapError::NotAscending { index, prev, next } => write!(
                f,
                "shard starts must be strictly ascending: starts[{}] = {prev} \
                 but starts[{index}] = {next}",
                index - 1
            ),
        }
    }
}

impl std::error::Error for ShardMapError {}

/// Partition of the full `u32` key domain into contiguous shards.
///
/// Shard `i` owns the half-open key range `[starts[i], starts[i + 1])`;
/// the last shard runs to `Key::MAX` inclusive. `starts[0]` is always `0`,
/// so every key — including `Key::MIN` and `Key::MAX` — routes to exactly
/// one shard with no gaps or overlaps (the shard-router property tests in
/// `eirene-check` pin this down over generated maps).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    starts: Vec<Key>,
}

/// One shard's slice of a split range query: the sub-window
/// `[lo, lo + len - 1]` lies entirely inside `shard`, and its response
/// slots land at `offset..offset + len` of the merged response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangePart {
    pub shard: ShardId,
    pub lo: Key,
    pub len: u32,
    pub offset: u32,
}

impl ShardMap {
    /// Splits the domain into `shards` near-equal contiguous ranges.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn uniform(shards: usize) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        let domain = Key::MAX as u64 + 1;
        let width = (domain / shards as u64).max(1);
        let starts = (0..shards as u64)
            .map(|i| (i * width).min(Key::MAX as u64) as Key)
            .collect();
        Self::from_starts(starts).expect("uniform starts are valid by construction")
    }

    /// Builds a map from explicit shard start keys. `starts[0]` must be `0`
    /// and the sequence strictly ascending (duplicates would describe
    /// empty shards); shard `i` covers `[starts[i], starts[i + 1])` and
    /// the last shard covers `[starts.last(), Key::MAX]`.
    pub fn from_starts(starts: Vec<Key>) -> Result<Self, ShardMapError> {
        let Some(&first) = starts.first() else {
            return Err(ShardMapError::Empty);
        };
        if first != 0 {
            return Err(ShardMapError::FirstNotZero(first));
        }
        for (i, w) in starts.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(ShardMapError::NotAscending {
                    index: i + 1,
                    prev: w[0],
                    next: w[1],
                });
            }
        }
        Ok(ShardMap { starts })
    }

    pub fn num_shards(&self) -> usize {
        self.starts.len()
    }

    /// The full start-key vector (`starts()[0]` is always `0`).
    pub fn starts(&self) -> &[Key] {
        &self.starts
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: Key) -> ShardId {
        // First start strictly greater than `key`, minus one. starts[0] == 0
        // guarantees the partition point is at least 1.
        self.starts.partition_point(|&s| s <= key) - 1
    }

    /// First key of shard `shard`.
    pub fn start_of(&self, shard: ShardId) -> Key {
        self.starts[shard]
    }

    /// Last key of shard `shard` (inclusive).
    pub fn end_of(&self, shard: ShardId) -> Key {
        match self.starts.get(shard + 1) {
            Some(&next) => next - 1,
            None => Key::MAX,
        }
    }

    /// Interior shard boundaries (the start key of every shard except the
    /// first) — the keys a boundary-straddling workload should target.
    pub fn boundaries(&self) -> Vec<Key> {
        self.starts[1..].to_vec()
    }

    /// Splits the range window `[lo, lo + len - 1]` into per-shard parts,
    /// in ascending key order. The window is clipped at `Key::MAX` (slots
    /// past the domain edge stay `None` in the merged response, matching
    /// the oracle's `checked_add` semantics); a `len` of zero yields no
    /// parts.
    pub fn split_range(&self, lo: Key, len: u32) -> Vec<RangePart> {
        let mut parts = Vec::new();
        let Some(hi) = window_end(lo, len) else {
            return parts;
        };
        let mut cur = lo;
        loop {
            let shard = self.shard_of(cur);
            let part_hi = hi.min(self.end_of(shard));
            parts.push(RangePart {
                shard,
                lo: cur,
                len: part_hi - cur + 1,
                offset: cur - lo,
            });
            if part_hi == hi {
                return parts;
            }
            cur = part_hi + 1;
        }
    }
}

/// Last key of the range window `[lo, lo + len - 1]`, clipped at the edge
/// of the key domain; `None` for an empty window.
pub(crate) fn window_end(lo: Key, len: u32) -> Option<Key> {
    range_window(lo as u64, len).map(|(_, hi)| hi.min(Key::MAX as u64) as Key)
}

/// How keys map to shards.
///
/// `Range` is the default: contiguous key ranges from the service's
/// [`ShardMap`]. `Hash` scatters keys by multiplicative hash — immune to
/// key-space skew by construction, at the price of serving every range
/// query by scatter-gather to all shards. Either placement is fixed for
/// the service's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Sharding {
    /// Contiguous key ranges (the configured `ShardMap`).
    #[default]
    Range,
    /// Fibonacci-hash scatter across the same number of shards.
    Hash,
}

/// The shard owning `key` under hash-scatter sharding: the key's
/// Fibonacci (multiplicative) hash folded onto `shards` without modulo
/// bias. Adjacent keys land on unrelated shards, so Zipf-hot *ranges*
/// cannot pile onto one shard (a single hot key still pins its shard —
/// no sharding scheme splits one key's load).
pub fn hash_shard(key: Key, shards: usize) -> ShardId {
    debug_assert!(shards > 0);
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((h >> 32) * shards as u64) >> 32) as ShardId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_the_domain() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let m = ShardMap::uniform(shards);
            assert_eq!(m.num_shards(), shards);
            assert_eq!(m.shard_of(Key::MIN), 0);
            assert_eq!(m.shard_of(Key::MAX), shards - 1);
            // Consecutive shards tile the domain exactly.
            for s in 0..shards - 1 {
                assert_eq!(m.end_of(s) + 1, m.start_of(s + 1));
                assert_eq!(m.shard_of(m.end_of(s)), s);
                assert_eq!(m.shard_of(m.start_of(s + 1)), s + 1);
            }
            assert_eq!(m.end_of(shards - 1), Key::MAX);
        }
    }

    #[test]
    fn split_range_inside_one_shard_is_a_single_part() {
        let m = ShardMap::from_starts(vec![0, 100, 200]).unwrap();
        let parts = m.split_range(10, 5);
        assert_eq!(
            parts,
            vec![RangePart {
                shard: 0,
                lo: 10,
                len: 5,
                offset: 0
            }]
        );
    }

    #[test]
    fn split_range_straddles_boundaries() {
        let m = ShardMap::from_starts(vec![0, 100, 200]).unwrap();
        // [95, 204] covers all three shards.
        let parts = m.split_range(95, 110);
        assert_eq!(
            parts,
            vec![
                RangePart {
                    shard: 0,
                    lo: 95,
                    len: 5,
                    offset: 0
                },
                RangePart {
                    shard: 1,
                    lo: 100,
                    len: 100,
                    offset: 5
                },
                RangePart {
                    shard: 2,
                    lo: 200,
                    len: 5,
                    offset: 105
                },
            ]
        );
        // Parts reassemble the clipped window exactly.
        let total: u64 = parts.iter().map(|p| p.len as u64).sum();
        assert_eq!(total, 110);
    }

    #[test]
    fn split_range_clips_at_domain_edge() {
        let m = ShardMap::uniform(4);
        let parts = m.split_range(Key::MAX - 1, 8);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].lo, Key::MAX - 1);
        assert_eq!(parts[0].len, 2);
        assert_eq!(parts[0].offset, 0);
        // Zero-length ranges produce no parts.
        assert!(m.split_range(5, 0).is_empty());
    }

    #[test]
    fn from_starts_rejects_invalid_vectors() {
        assert_eq!(ShardMap::from_starts(vec![]), Err(ShardMapError::Empty));
        assert_eq!(
            ShardMap::from_starts(vec![1, 100]),
            Err(ShardMapError::FirstNotZero(1))
        );
        // Duplicate starts describe an empty shard: rejected, not a panic.
        assert_eq!(
            ShardMap::from_starts(vec![0, 100, 100]),
            Err(ShardMapError::NotAscending {
                index: 2,
                prev: 100,
                next: 100
            })
        );
        assert_eq!(
            ShardMap::from_starts(vec![0, 200, 100]),
            Err(ShardMapError::NotAscending {
                index: 2,
                prev: 200,
                next: 100
            })
        );
        let err = ShardMap::from_starts(vec![0, 7, 7]).unwrap_err();
        assert!(err.to_string().contains("strictly ascending"));
    }

    #[test]
    fn hash_shard_is_in_range_and_spreads() {
        for shards in [1usize, 2, 3, 8] {
            let mut counts = vec![0usize; shards];
            for key in 0..10_000u32 {
                counts[hash_shard(key, shards)] += 1;
            }
            // Every shard takes a non-trivial share of a dense key block
            // (contrast: range sharding puts a dense block on one shard).
            for &c in &counts {
                assert!(c > 10_000 / shards / 2, "counts {counts:?}");
            }
        }
        assert_eq!(hash_shard(u32::MAX, 1), 0);
    }
}
