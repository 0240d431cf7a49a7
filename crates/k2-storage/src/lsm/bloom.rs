//! Bloom filter over composite keys.

/// A classic bloom filter with double hashing.
///
/// Built once per SSTable over all its keys; a negative answer proves the
/// key is absent, letting point queries skip the table without touching
/// disk (counted as `bloom_negatives` in the I/O statistics).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

/// 64-bit finalizer from SplitMix64 — good avalanche behaviour, no
/// dependencies.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// Creates a filter sized for `expected` keys at `bits_per_key`
    /// (10 bits/key ≈ 1 % false-positive rate with 7 hashes).
    pub fn with_capacity(expected: usize, bits_per_key: usize) -> Self {
        let num_bits = (expected.max(1) * bits_per_key.max(1)).max(64) as u64;
        let num_bits = num_bits.next_multiple_of(64);
        // k = ln2 * bits/key, clamped to a sane range.
        let num_hashes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        Self {
            bits: vec![0u64; (num_bits / 64) as usize],
            num_bits,
            num_hashes,
        }
    }

    /// Double-hash probe positions for a key. The iterator borrows
    /// nothing from the filter, so `insert` can set bits while it runs.
    #[inline]
    fn probes(&self, key: u64) -> impl Iterator<Item = u64> {
        let h1 = mix64(key);
        let h2 = mix64(key ^ 0xA5A5_A5A5_A5A5_A5A5) | 1;
        let n = self.num_bits;
        (0..self.num_hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % n)
    }

    /// Inserts a key (as its 64-bit representation).
    pub fn insert(&mut self, key: u64) {
        for pos in self.probes(key) {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// May the key be present? `false` is definitive.
    pub fn may_contain(&self, key: u64) -> bool {
        self.probes(key)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Serialises the filter: `num_bits u64 | num_hashes u32 | words…`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&self.num_hashes.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialises a filter; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 12 {
            return None;
        }
        let num_bits = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let num_hashes = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let words = (num_bits / 64) as usize;
        if num_bits % 64 != 0 || bytes.len() != 12 + words * 8 || num_hashes == 0 {
            return None;
        }
        let bits = bytes[12..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Some(Self {
            bits,
            num_bits,
            num_hashes,
        })
    }

    /// Size of the bit array in bits.
    pub fn num_bits(&self) -> u64 {
        self.num_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_found() {
        let mut f = BloomFilter::with_capacity(1000, 10);
        for k in 0..1000u64 {
            f.insert(k * 7919);
        }
        for k in 0..1000u64 {
            assert!(f.may_contain(k * 7919));
        }
    }

    #[test]
    fn bit_layout_is_stable() {
        // Filters are persisted inside SSTables: the bits a key sets must
        // never change, or existing files would answer wrongly.
        let mut f = BloomFilter::with_capacity(20, 10);
        for k in [0u64, 1, 42, 7 << 32 | 9, u64::MAX] {
            f.insert(k);
        }
        assert_eq!(f.num_hashes, 6);
        assert_eq!(
            f.bits,
            [
                1_155_175_507_739_017_216,
                2_750_927_601_664,
                1_337_006_141_489_160,
                874_261_277_740_959_826
            ]
        );
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::with_capacity(10_000, 10);
        for k in 0..10_000u64 {
            f.insert(k);
        }
        let fp = (10_000..110_000u64).filter(|&k| f.may_contain(k)).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false-positive rate {rate} too high");
    }

    #[test]
    fn serialisation_round_trip() {
        let mut f = BloomFilter::with_capacity(100, 10);
        for k in [1u64, 99, 12345, u64::MAX] {
            f.insert(k);
        }
        let g = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.num_bits(), f.num_bits());
        for k in [1u64, 99, 12345, u64::MAX] {
            assert!(g.may_contain(k));
        }
        assert_eq!(g.may_contain(7), f.may_contain(7));
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(BloomFilter::from_bytes(&[1, 2, 3]).is_none());
        let mut good = BloomFilter::with_capacity(10, 10).to_bytes();
        good.pop();
        assert!(BloomFilter::from_bytes(&good).is_none());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(100, 10);
        assert!(!f.may_contain(42));
    }
}
