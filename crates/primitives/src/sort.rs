//! Stable radix sort over `(key, u32 payload)` pairs, for 32- and 64-bit
//! keys.
//!
//! This is the reproduction's stand-in for the CUB `DeviceRadixSort` the
//! paper uses to sort requests by (key, logical timestamp) (§7). The
//! device cost is charged analytically ([`PrimCost`]); the host
//! computation is plain loops on the calling thread: least significant
//! digit first over 8-bit digits and two ping-pong buffers. One sweep fills
//! the histograms of all the key's digits, then each digit that actually
//! varies gets an exclusive scan of its histogram and a stable scatter.

use crate::cost::PrimCost;
use eirene_sim::DeviceConfig;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// A key [`radix_sort_pairs`] sorts: an unsigned integer of 8-bit digits.
pub trait RadixKey: Copy + Default {
    /// Digits per key, one scatter pass each (at most).
    const PASSES: usize;
    /// Digit `pass`, least significant first.
    fn digit(self, pass: usize) -> usize;
}

macro_rules! radix_key {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            const PASSES: usize = (<$t>::BITS / RADIX_BITS) as usize;
            #[inline]
            fn digit(self, pass: usize) -> usize {
                (self >> (pass as u32 * RADIX_BITS)) as u8 as usize
            }
        }
    )*};
}
radix_key!(u32, u64);

/// Modelled device cost of sorting `n` pairs with `K` keys: each of `K`'s
/// digit passes streams keys and payloads (`size_of::<K>() + 4` bytes a
/// pair) through a read and a scatter write, with a couple of control
/// instructions per word for digit extraction and offset computation.
/// Skipped digits are charged too, as on the device.
pub fn radix_sort_cost<K: RadixKey>(cfg: &DeviceConfig, n: usize) -> PrimCost {
    let words = n as u64 * (size_of::<K>() as u64 + 4) / 8;
    PrimCost::streaming(cfg, words, K::PASSES as u64, 2)
}

/// Sorts `keys` (with `payloads` permuted alongside) stably and in
/// ascending key order, returning the modelled device cost
/// ([`radix_sort_cost`]).
///
/// # Panics
/// Panics if `keys` and `payloads` have different lengths, or hold more
/// pairs than a 32-bit bucket count can index.
pub fn radix_sort_pairs<K: RadixKey>(
    keys: &mut [K],
    payloads: &mut [u32],
    cfg: &DeviceConfig,
) -> PrimCost {
    assert_eq!(keys.len(), payloads.len(), "keys/payloads length mismatch");
    let n = keys.len();
    let cost = radix_sort_cost::<K>(cfg, n);
    if n <= 1 {
        return cost;
    }
    assert!(n <= u32::MAX as usize, "bucket counts are 32-bit");

    // A pass permutes the pairs but not the multiset of keys, so every
    // digit's histogram can be taken up front, in one sweep.
    let mut hists = [[0u32; BUCKETS]; 8];
    let hist = &mut hists[..K::PASSES];
    for &k in keys.iter() {
        for (pass, h) in hist.iter_mut().enumerate() {
            h[k.digit(pass)] += 1;
        }
    }
    let first = keys[0];
    let (mut alt_k, mut alt_p) = (vec![K::default(); n], vec![0u32; n]);
    let (mut src_k, mut src_p) = (&mut *keys, &mut *payloads);
    let (mut dst_k, mut dst_p) = (&mut alt_k[..], &mut alt_p[..]);
    let mut swapped = false;
    for (pass, offsets) in hist.iter_mut().enumerate() {
        // Passes whose digit is constant across all keys are skipped: a
        // stable pass over one bucket is the identity (CUB performs the same
        // optimization via onesweep digit detection). Real batches rarely
        // use a key's full width.
        if offsets[first.digit(pass)] as usize == n {
            continue;
        }
        exclusive_scan(offsets);
        scatter(src_k, src_p, dst_k, dst_p, offsets, pass);
        std::mem::swap(&mut src_k, &mut dst_k);
        std::mem::swap(&mut src_p, &mut dst_p);
        swapped = !swapped;
    }
    if swapped {
        // The sorted pairs sit in the scratch buffers.
        dst_k.copy_from_slice(src_k);
        dst_p.copy_from_slice(src_p);
    }
    cost
}

/// Turns bucket counts into scatter offsets, in place.
fn exclusive_scan(hist: &mut [u32; BUCKETS]) {
    let mut running = 0;
    for slot in hist {
        running += std::mem::replace(slot, running);
    }
}

/// One stable scatter pass on digit `pass`: pairs of a bucket keep their
/// source order.
fn scatter<K: RadixKey>(
    keys: &[K],
    payloads: &[u32],
    dst_k: &mut [K],
    dst_p: &mut [u32],
    offsets: &mut [u32; BUCKETS],
    pass: usize,
) {
    for (&k, &p) in keys.iter().zip(payloads) {
        let slot = &mut offsets[k.digit(pass)];
        dst_k[*slot as usize] = k;
        dst_p[*slot as usize] = p;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Sorts `keys` with distinct payloads and checks the result against
    /// std's stable sort pair for pair (so: ordered, payloads follow their
    /// keys, equal keys keep their source order) and the returned cost
    /// against the formula every earlier version charged — one streaming
    /// pass per digit over the pair's words, skipped digits or not.
    fn check<K: RadixKey + Ord + std::fmt::Debug>(keys: Vec<K>) {
        let cfg = DeviceConfig::default();
        let n = keys.len();
        let pay: Vec<u32> = (0..n as u32).rev().collect();
        let mut expect: Vec<(K, u32)> = keys.iter().copied().zip(pay.iter().copied()).collect();
        expect.sort_by_key(|&(k, _)| k);
        let (mut k, mut p) = (keys, pay);
        let cost = radix_sort_pairs(&mut k, &mut p, &cfg);
        let got: Vec<(K, u32)> = k.into_iter().zip(p).collect();
        assert_eq!(got, expect);
        let (words, passes) = match size_of::<K>() {
            8 => (n as u64 * 3 / 2, 8),
            _ => (n as u64, 4),
        };
        assert_eq!(cost, PrimCost::streaming(&cfg, words, passes, 2));
    }

    fn random_keys(n: usize, seed: u64, map: impl Fn(u64) -> u64) -> Vec<u64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| map(rng.gen())).collect()
    }

    fn narrow(keys: Vec<u64>) -> Vec<u32> {
        keys.into_iter().map(|k| k as u32).collect()
    }

    #[test]
    fn matches_stable_sort_at_every_size() {
        for n in [0, 1, 2, 1023, 1024, 1025, 1 << 17] {
            check(random_keys(n, n as u64, |k| k));
            check(narrow(random_keys(n, n as u64, |k| k)));
        }
    }

    #[test]
    fn constant_digits_are_skipped_without_changing_the_order() {
        check(vec![0u64; 1025]);
        check(vec![0xDEAD_BEEF_0BAD_F00Du64; 1025]);
        check(vec![0xDEAD_BEEFu32; 1025]);
        check(random_keys(5000, 1, |k| k << 48)); // high bits only
        check(random_keys(5000, 2, |k| k & 0xFFFF)); // low bits only
        check(narrow(random_keys(5000, 2, |k| k << 24))); // top digit only
        check(random_keys(5000, 3, |k| {
            (k & 0xFF00) | 0x00AB_0000_0000_0011
        })); // non-zero constants
        check(narrow(random_keys(5000, 3, |k| (k & 0xFF00) | 0x00AB_0011)));
    }

    #[test]
    fn duplicate_keys_keep_their_payload_order() {
        check(random_keys(50_000, 4, |k| k % 64));
        check(narrow(random_keys(50_000, 4, |k| k % 64)));
    }

    #[test]
    fn composite_key_sort_orders_by_key_then_timestamp() {
        // The combining phase's order: key, then timestamp rank — as one
        // composite `key << 32 | ts_rank`, or as the bare key stably sorted
        // from timestamp order.
        let reqs = [(5u32, 3u32), (1, 9), (5, 1), (1, 2), (5, 2)];
        let want = vec![(1, 2), (1, 9), (5, 1), (5, 2), (5, 3)];
        let mut keys: Vec<u64> = reqs
            .iter()
            .map(|&(k, t)| ((k as u64) << 32) | t as u64)
            .collect();
        let mut pay: Vec<u32> = (0..reqs.len() as u32).collect();
        radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
        let order: Vec<(u32, u32)> = pay.iter().map(|&i| reqs[i as usize]).collect();
        assert_eq!(order, want);

        let mut by_ts: Vec<u32> = (0..reqs.len() as u32).collect();
        by_ts.sort_by_key(|&i| reqs[i as usize].1);
        let mut keys: Vec<u32> = by_ts.iter().map(|&i| reqs[i as usize].0).collect();
        radix_sort_pairs(&mut keys, &mut by_ts, &DeviceConfig::default());
        let order: Vec<(u32, u32)> = by_ts.iter().map(|&i| reqs[i as usize]).collect();
        assert_eq!(order, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_matches_stable_sort(keys in proptest::collection::vec(any::<u64>(), 0..2000)) {
            check(narrow(keys.clone()));
            check(keys);
        }

        #[test]
        fn prop_matches_stable_sort_with_duplicates(keys in proptest::collection::vec(0..300u64, 0..2000)) {
            check(narrow(keys.clone()));
            check(keys);
        }
    }
}
