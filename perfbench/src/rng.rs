//! Seeded input generation. Every input and every rotation order of a run
//! derives from the `--seed` argument through this generator, so the same
//! seed gives the same inputs.

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a seeded run. Streams with
    /// different tags are independent, so adding a stream does not shift
    /// the values of another.
    pub fn new(seed: u64, tag: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` integer-valued f64s in `0..hi`. Integer values keep every sum
    /// and product the kernels form exact, so device results can be
    /// compared bit for bit with host references whatever the reduction
    /// order.
    pub fn ints_f64(&mut self, n: usize, hi: usize) -> Vec<f64> {
        (0..n).map(|_| self.below(hi) as f64).collect()
    }

    /// A random permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            p.swap(i, j);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs() {
        let mut a = Rng::new(7, "daxpy");
        let mut b = Rng::new(7, "daxpy");
        assert_eq!(a.ints_f64(64, 100), b.ints_f64(64, 100));
        assert_eq!(a.permutation(6), b.permutation(6));
    }

    #[test]
    fn different_seed_or_stream_gives_different_inputs() {
        let base = Rng::new(7, "daxpy").ints_f64(64, 100);
        assert_ne!(base, Rng::new(8, "daxpy").ints_f64(64, 100));
        assert_ne!(base, Rng::new(7, "scan").ints_f64(64, 100));
    }

    #[test]
    fn values_stay_in_range_and_permutations_are_complete() {
        let mut r = Rng::new(1, "range");
        assert!(r
            .ints_f64(1000, 10)
            .iter()
            .all(|&v| (0.0..10.0).contains(&v)));
        let mut p = r.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
