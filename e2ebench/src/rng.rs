//! A tiny seeded generator over the repository's own SplitMix64 mixer, so
//! every input the benchmark makes depends on nothing but `--seed`.

use pdb::storage::encode::splitmix64;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        out
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of the `index`-th dataset of a run: the run seed itself for the
/// first, so `--seed 2010` reproduces the generator's default data.
pub fn dataset_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        seed
    } else {
        splitmix64(seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }
}
