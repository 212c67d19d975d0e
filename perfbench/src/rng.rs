//! SplitMix64: a tiny seeded generator for request streams. The
//! benchmark owns it so the streams a seed yields never change when a
//! dependency's generator does.

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `label` so every generated
    /// input draws from its own sequence.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h.rotate_left(29))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// `k` distinct values of `0..n`, ascending (partial Fisher–Yates).
    pub fn sample_sorted(&mut self, n: usize, k: usize) -> Vec<u32> {
        let mut pool: Vec<u32> = (0..n as u32).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        let mut out = pool[..k.min(n)].to_vec();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_label() {
        let draw = |seed, label| {
            let mut r = Rng::new(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
    }

    #[test]
    fn sample_sorted_is_distinct_and_in_range() {
        let mut r = Rng::new(1, "s");
        let s = r.sample_sorted(50, 20);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&v| v < 50));
    }
}
