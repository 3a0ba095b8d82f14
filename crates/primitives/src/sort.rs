//! Stable radix sort over `(u64 key, u32 payload)` pairs.
//!
//! This is the reproduction's stand-in for the CUB `DeviceRadixSort` the
//! paper uses to sort requests by (key, logical timestamp) (§7). The
//! device cost is charged analytically ([`PrimCost`]); the host
//! computation is plain loops on the calling thread: least significant
//! digit first over 8-bit digits and two ping-pong buffers. One sweep fills
//! the histograms of all eight digits, then each digit that actually varies
//! gets an exclusive scan of its histogram and a stable scatter.

use crate::cost::PrimCost;
use eirene_sim::DeviceConfig;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
const PASSES: usize = (64 / RADIX_BITS) as usize;

#[inline]
fn digit(key: u64, pass: usize) -> usize {
    (key >> (pass as u32 * RADIX_BITS)) as u8 as usize
}

/// Sorts `keys` (with `payloads` permuted alongside) stably and in
/// ascending key order, returning the modelled device cost.
///
/// # Panics
/// Panics if `keys` and `payloads` have different lengths, or hold more
/// pairs than a 32-bit bucket count can index.
pub fn radix_sort_pairs(keys: &mut [u64], payloads: &mut [u32], cfg: &DeviceConfig) -> PrimCost {
    assert_eq!(keys.len(), payloads.len(), "keys/payloads length mismatch");
    let n = keys.len();
    // Device cost: each pass streams keys+payloads (1.5 words per element)
    // through a read and a scatter write, with a couple of control
    // instructions per element for digit extraction and offset computation.
    let cost = PrimCost::streaming(cfg, (n as u64) * 3 / 2, PASSES as u64, 2);
    if n <= 1 {
        return cost;
    }
    assert!(n <= u32::MAX as usize, "bucket counts are 32-bit");

    // A pass permutes the pairs but not the multiset of keys, so every
    // digit's histogram can be taken up front, in one sweep.
    let mut hist = [[0u32; BUCKETS]; PASSES];
    for &k in keys.iter() {
        for (pass, h) in hist.iter_mut().enumerate() {
            h[digit(k, pass)] += 1;
        }
    }
    let first = keys[0];
    let (mut alt_k, mut alt_p) = (vec![0u64; n], vec![0u32; n]);
    let (mut src_k, mut src_p) = (&mut *keys, &mut *payloads);
    let (mut dst_k, mut dst_p) = (&mut alt_k[..], &mut alt_p[..]);
    let mut swapped = false;
    for (pass, offsets) in hist.iter_mut().enumerate() {
        // Passes whose digit is constant across all keys are skipped: a
        // stable pass over one bucket is the identity (CUB performs the same
        // optimization via onesweep digit detection). This matters because
        // our composite keys are (key << 32 | rank) and real batches rarely
        // use the full 64 bits.
        if offsets[digit(first, pass)] as usize == n {
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
fn scatter(
    keys: &[u64],
    payloads: &[u32],
    dst_k: &mut [u64],
    dst_p: &mut [u32],
    offsets: &mut [u32; BUCKETS],
    pass: usize,
) {
    for (&k, &p) in keys.iter().zip(payloads) {
        let slot = &mut offsets[digit(k, pass)];
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
    /// against the formula every earlier version charged — eight streaming
    /// passes over 1.5 words per pair, skipped digits or not.
    fn check(keys: Vec<u64>) {
        let cfg = DeviceConfig::default();
        let n = keys.len();
        let pay: Vec<u32> = (0..n as u32).rev().collect();
        let mut expect: Vec<(u64, u32)> = keys.iter().copied().zip(pay.iter().copied()).collect();
        expect.sort_by_key(|&(k, _)| k);
        let (mut k, mut p) = (keys, pay);
        let cost = radix_sort_pairs(&mut k, &mut p, &cfg);
        let got: Vec<(u64, u32)> = k.into_iter().zip(p).collect();
        assert_eq!(got, expect);
        assert_eq!(cost, PrimCost::streaming(&cfg, n as u64 * 3 / 2, 8, 2));
    }

    fn random_keys(n: usize, seed: u64, map: impl Fn(u64) -> u64) -> Vec<u64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| map(rng.gen())).collect()
    }

    #[test]
    fn matches_stable_sort_at_every_size() {
        for n in [0, 1, 2, 1023, 1024, 1025, 1 << 17] {
            check(random_keys(n, n as u64, |k| k));
        }
    }

    #[test]
    fn constant_digits_are_skipped_without_changing_the_order() {
        check(vec![0; 1025]);
        check(vec![0xDEAD_BEEF_0BAD_F00D; 1025]);
        check(random_keys(5000, 1, |k| k << 48)); // high bits only
        check(random_keys(5000, 2, |k| k & 0xFFFF)); // low bits only
        check(random_keys(5000, 3, |k| {
            (k & 0xFF00) | 0x00AB_0000_0000_0011
        })); // non-zero constants
    }

    #[test]
    fn duplicate_keys_keep_their_payload_order() {
        check(random_keys(50_000, 4, |k| k % 64));
    }

    #[test]
    fn composite_key_sort_orders_by_key_then_timestamp() {
        // The combining phase's composite: key << 32 | ts_rank.
        let reqs = [(5u32, 3u32), (1, 9), (5, 1), (1, 2), (5, 2)];
        let mut keys: Vec<u64> = reqs
            .iter()
            .map(|&(k, t)| ((k as u64) << 32) | t as u64)
            .collect();
        let mut pay: Vec<u32> = (0..reqs.len() as u32).collect();
        radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
        let order: Vec<(u32, u32)> = pay.iter().map(|&i| reqs[i as usize]).collect();
        assert_eq!(order, vec![(1, 2), (1, 9), (5, 1), (5, 2), (5, 3)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_matches_stable_sort(keys in proptest::collection::vec(any::<u64>(), 0..2000)) {
            check(keys);
        }

        #[test]
        fn prop_matches_stable_sort_with_duplicates(keys in proptest::collection::vec(0..300u64, 0..2000)) {
            check(keys);
        }
    }
}
