//! Seeded, deterministic input generation.
//!
//! Every input the program sees — right-hand sides, the `service_mix`
//! popularity draws, the `analog_mc` trial seeds — derives from the
//! benchmark seed and the request index alone, so the same seed gives
//! the same request list on any host and at any run length.

/// SplitMix64: a small, well-mixed generator that needs no crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The independent stream of request `index` of workload `salt`
    /// under benchmark seed `seed`.
    pub fn stream(seed: u64, salt: u64, index: u64) -> Rng {
        Rng(mix(mix(seed ^ GOLDEN) ^ salt).wrapping_add(mix(index.wrapping_add(GOLDEN))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Binary-exponent spread of the exact and service right-hand sides:
/// entries span 2^-12 .. 2^12, so the aligned vector slices carry long
/// runs of leading zeros and early termination fires (§IV-B).
pub const WIDE_SPREAD: i32 = 24;

/// A right-hand side with log-uniform magnitudes over `spread` binary
/// exponents centred on 1, mantissas in `[1, 2)` and random signs.
pub fn wide_rhs(rng: &mut Rng, n: usize, spread: i32) -> Vec<f64> {
    let half = spread / 2;
    (0..n)
        .map(|_| {
            let e = rng.below(spread as u64 + 1) as i32 - half;
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            sign * (1.0 + rng.unit()) * 2f64.powi(e)
        })
        .collect()
}

/// The Monte-Carlo source: the campaigns' unit vector with a seeded
/// ±5 % wobble per entry, so trials differ in their inputs as well as
/// in their device draws.
pub fn unit_rhs(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| 1.0 + 0.05 * (2.0 * rng.unit() - 1.0))
        .collect()
}

/// Shuffles `items` in place (Fisher-Yates).
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// FNV-1a over 64-bit words: the bitwise digest of request outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds every bit of a vector in.
    pub fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}
