//! Seeded input generation that does not depend on the program under test:
//! the open-loop arrival schedule and the hash recorded beside every result
//! so two runs can show they measured the same inputs.

/// SplitMix64: a small, well-mixed generator the benchmark owns, so the
/// schedule stays the same when the program's own `rand` stand-in changes.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Arrival offsets in microseconds of a Poisson process of `rate_per_s`
/// lasting `seconds`: exponential gaps, first arrival at 0, ascending.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let horizon_us = seconds * 1e6;
    let mut offsets = Vec::with_capacity((rate_per_s * seconds * 1.05) as usize + 16);
    let mut t_us = 0.0f64;
    while t_us < horizon_us {
        offsets.push(t_us as u64);
        t_us += -rng.next_open01().ln() / rate_per_s * 1e6;
    }
    offsets
}

/// FNV-1a over 64-bit words, the input hash printed with every result.
#[derive(Clone, Copy)]
pub struct InputHash(u64);

impl InputHash {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_reproducible_ordered_and_rate_matched() {
        let a = poisson_schedule(7, 20_000.0, 1.0);
        assert_eq!(a, poisson_schedule(7, 20_000.0, 1.0), "same seed");
        assert_ne!(a, poisson_schedule(8, 20_000.0, 1.0), "other seed");
        assert_eq!(a[0], 0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 1_000_000);
        // 20k arrivals expected; a Poisson count has sd ~141.
        assert!((19_000..=21_000).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn poisson_gaps_have_the_exponential_spread() {
        // The coefficient of variation of exponential gaps is 1; a periodic
        // schedule would give 0.
        let a = poisson_schedule(3, 10_000.0, 2.0);
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..=1.1).contains(&cv), "cv {cv}");
    }

    #[test]
    fn input_hash_depends_on_every_word_and_their_order() {
        let hash = |words: &[u64]| {
            let mut h = InputHash::new();
            words.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 3, 2]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2]));
    }
}
