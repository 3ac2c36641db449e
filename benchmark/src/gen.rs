//! Seeded input generation: PRNG, zipfian key chooser and value bytes.
//!
//! Everything a workload feeds the program is derived from `--seed` through
//! this file, so the load cannot change when the product crates (or the
//! repository's `rand`/`ycsb` stand-ins) do.

/// Stateless 64-bit finalizer (murmur3 `fmix64`): a bijection on `u64`.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// One step of splitmix64; used to turn a seed into stream states.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for (`seed`, `stream`): distinct streams of one seed are
    /// independent, the same pair always yields the same sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ mix64(stream.wrapping_add(1));
        let state = splitmix64(&mut s);
        Rng(if state == 0 { 0x9E37_79B9_7F4A_7C15 } else { state })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipfian chooser over ranks `0..n` (rank 0 most popular), after Gray et
/// al., "Quickly generating billion-record synthetic databases" — the
/// generator YCSB uses.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipfian { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// A sampled rank scattered over `0..n`, so popular items are not
    /// neighbours in key space (YCSB's "scrambled zipfian").
    pub fn sample_scrambled(&self, rng: &mut Rng) -> u64 {
        mix64(self.sample(rng)) % self.n
    }
}

/// The 8-byte stamp every value starts with: identifies (key, generation).
pub fn stamp(key: u64, generation: u32) -> u64 {
    mix64(key ^ ((generation as u64) << 40) ^ 0xA1A5_CA00)
}

/// Fill `buf` with the value of (`key`, `generation`): the stamp, then an LCG
/// stream seeded by it.  Values are at least 8 bytes long.
pub fn fill_value(buf: &mut [u8], key: u64, generation: u32) {
    debug_assert!(buf.len() >= 8);
    let mut x = stamp(key, generation);
    for chunk in buf.chunks_mut(8) {
        let bytes = x.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    }
}

/// Cheap per-read check: length and stamp.
pub fn check_stamp(value: &[u8], key: u64, generation: u32, len: usize) -> bool {
    value.len() == len && len >= 8 && value[..8] == stamp(key, generation).to_le_bytes()
}

/// Full check: every byte.
pub fn check_full(value: &[u8], key: u64, generation: u32, len: usize) -> bool {
    if value.len() != len {
        return false;
    }
    let mut expect = vec![0u8; len];
    fill_value(&mut expect, key, generation);
    expect == value
}

/// FNV-1a over a stream of words; used to fingerprint op streams in tests and
/// to compare the hit/miss sequences of two stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        let seq = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(seq(7, 0), seq(7, 0));
        assert_ne!(seq(7, 0), seq(8, 0));
        assert_ne!(seq(7, 0), seq(7, 1));
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let n = 100_000;
        let z = Zipfian::new(n, 0.99);
        let mut rng = Rng::new(1, 0);
        let draws = 200_000;
        let mut top10 = 0u64;
        let mut rank0 = 0u64;
        for _ in 0..draws {
            let r = z.sample(&mut rng);
            assert!(r < n);
            top10 += (r < 10) as u64;
            rank0 += (r == 0) as u64;
        }
        // theta = 0.99 over 1e5 items: rank 0 draws ~8 %, the top ten ~24 %;
        // a uniform chooser would give 0.001 % and 0.01 %.
        let (p0, p10) = (rank0 as f64 / draws as f64, top10 as f64 / draws as f64);
        assert!((0.06..0.11).contains(&p0), "rank-0 share {p0}");
        assert!((0.19..0.30).contains(&p10), "top-10 share {p10}");
    }

    #[test]
    fn scrambled_ranks_stay_in_range_and_spread() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Rng::new(3, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let k = z.sample_scrambled(&mut rng);
            assert!(k < 1000);
            seen.insert(k);
        }
        assert!(seen.len() > 500);
    }

    #[test]
    fn values_check_against_their_key_and_generation() {
        for len in [8usize, 9, 64, 127, 511] {
            let mut v = vec![0u8; len];
            fill_value(&mut v, 42, 3);
            assert!(check_stamp(&v, 42, 3, len));
            assert!(check_full(&v, 42, 3, len));
            assert!(!check_stamp(&v, 42, 4, len));
            assert!(!check_full(&v, 43, 3, len));
            let last = len - 1;
            v[last] ^= 1;
            assert!(!check_full(&v, 42, 3, len));
        }
    }
}
