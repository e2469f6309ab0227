//! Counter-based deterministic random variates.
//!
//! Weighted MinHash needs, for every (hash index, input dimension) pair, a
//! reproducible set of random draws (Gamma, Beta, Uniform). Each is a pure
//! function of a SplitMix64-style counter hash of `(seed, hash_index,
//! dimension, slot)`, so no `d × M` matrix of draws has to exist for a
//! sketch to be reproducible, and every draw is the same value wherever it
//! is computed. [`crate::tables`] tabulates the Gamma(2,1) draws, whose two
//! logarithms cost an order of magnitude more than the counter mix, only
//! for the log-domain families, whose dense scan needs them at every row
//! (with their `eʳ`). CCWS derives all three of its draws — [`beta21`],
//! [`gamma21`] and [`uniform_open`] — at the point of use: the mix of
//! `(seed, hash_index)` hoists out of a pass over one hash index, the mix
//! of the dimension is shared by a pair's slots, and a sketch reaches
//! [`gamma21`] only for the few rows its bounds cannot rule out. Its table
//! keeps those bounds, not one `f64` per pair held for the process's
//! lifetime. The scalar test oracle (`scalar_ref.rs`) calls the same
//! functions at the same counters for every draw.

/// SplitMix64 finaliser: a high-quality 64-bit mixer.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Mix a (seed, hash index, dimension, slot) tuple into one 64-bit value.
#[inline]
pub(crate) fn mix(seed: u64, hash_idx: u64, dim: u64, slot: u64) -> u64 {
    let a = splitmix64(seed ^ hash_idx.wrapping_mul(0xA24BAED4963EE407));
    let b = splitmix64(a ^ dim.wrapping_mul(0x9FB21C651E98DF25));
    splitmix64(b ^ slot.wrapping_mul(0xD6E8FEB86659FD93))
}

/// Uniform draw in the open interval (0, 1), never exactly 0 or 1 so it is
/// safe inside `ln`.
#[inline]
pub(crate) fn uniform_open(seed: u64, hash_idx: u64, dim: u64, slot: u64) -> f64 {
    let bits = mix(seed, hash_idx, dim, slot);
    // 53 random mantissa bits → [0,1); shift into (0,1).
    ((bits >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Gamma(2, 1) draw: the sum of two independent Exp(1) variables.
#[inline]
pub(crate) fn gamma21(seed: u64, hash_idx: u64, dim: u64, slot: u64) -> f64 {
    let u1 = uniform_open(seed, hash_idx, dim, slot);
    let u2 = uniform_open(seed, hash_idx, dim, slot ^ 0x8000_0000_0000_0000);
    -(u1.ln()) - (u2.ln())
}

/// Beta(2, 1) draw via inverse CDF: F(x) = x² → x = √u.
#[inline]
pub(crate) fn beta21(seed: u64, hash_idx: u64, dim: u64, slot: u64) -> f64 {
    uniform_open(seed, hash_idx, dim, slot).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 2, 3, 5));
        assert_ne!(mix(1, 2, 3, 4), mix(2, 2, 3, 4));
    }

    #[test]
    fn uniform_in_open_unit_interval() {
        for i in 0..10_000u64 {
            let u = uniform_open(42, i, i * 31, 0);
            assert!(u > 0.0 && u < 1.0, "u = {u}");
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| uniform_open(7, i, 0, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gamma21_moments() {
        // Gamma(2,1) has mean 2 and variance 2.
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n).map(|i| gamma21(9, i, 1, 0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 2.0).abs() < 0.15, "var = {var}");
        assert!(draws.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn beta21_moments() {
        // Beta(2,1) has mean 2/3.
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| beta21(11, i, 2, 0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0 / 3.0).abs() < 0.01, "mean = {mean}");
    }
}
