//! Difficulty, targets, and dynamic retargeting (paper §VI-A).
//!
//! Difficulty is expressed as the *expected number of hash attempts* to
//! find a valid block. The PoW success condition is `H(header) ≤
//! target` with `target = (2²⁵⁶ − 1) / difficulty`, so doubling the
//! difficulty halves the success probability per attempt.
//!
//! The paper notes that "the PoW puzzle difficulty is dynamic so that
//! the block generation time converges to a fixed value" — the
//! [`retarget`] rule implements that: after every retarget interval the
//! difficulty is scaled by how much faster or slower than the target
//! the interval actually completed (clamped to 4× per step, as
//! Bitcoin clamps it).

use dlt_crypto::Digest;
/// Derives the 256-bit PoW target for a difficulty, via long division
/// of 2²⁵⁶ − 1 by the difficulty over 64-bit limbs.
///
/// # Panics
///
/// Panics if `difficulty == 0`.
pub fn target_from_difficulty(difficulty: u64) -> Digest {
    assert!(difficulty > 0, "difficulty must be at least 1");
    let divisor = u128::from(difficulty);
    let mut out = [0u8; 32];
    let mut remainder: u128 = 0;
    for limb_index in 0..4 {
        // Numerator limb: all-ones.
        let numerator = (remainder << 64) | u128::from(u64::MAX);
        let quotient = (numerator / divisor) as u64;
        remainder = numerator % divisor;
        out[limb_index * 8..limb_index * 8 + 8].copy_from_slice(&quotient.to_be_bytes());
    }
    Digest::from_bytes(out)
}

/// Parameters governing difficulty adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetargetParams {
    /// Desired block interval in microseconds (Bitcoin: 600 s,
    /// Ethereum: 15 s).
    pub target_interval_micros: u64,
    /// Blocks per adjustment window (Bitcoin: 2016; we default lower so
    /// simulations converge within feasible horizons).
    pub window: u64,
    /// Maximum single-step adjustment factor (Bitcoin uses 4).
    pub max_step: u64,
}

impl RetargetParams {
    /// Bitcoin-like defaults scaled to a simulation-friendly window.
    pub fn bitcoin_like() -> Self {
        RetargetParams {
            target_interval_micros: 600_000_000,
            window: 144, // one simulated "day" instead of 2016
            max_step: 4,
        }
    }

    /// Whether a block at `height` closes a retarget window.
    pub fn is_retarget_height(&self, height: u64) -> bool {
        height > 0 && height.is_multiple_of(self.window)
    }
}

/// Computes the next difficulty after a window that took
/// `actual_span_micros` of simulated time instead of the expected
/// `window × target_interval`.
///
/// Faster-than-target windows raise difficulty, slower ones lower it;
/// the adjustment is clamped to `max_step` in either direction and the
/// result never goes below 1.
pub fn retarget(params: &RetargetParams, old_difficulty: u64, actual_span_micros: u64) -> u64 {
    let expected = u128::from(params.target_interval_micros) * u128::from(params.window);
    // Clamp the observed span into [expected/max_step, expected*max_step]
    // before scaling, as Bitcoin does, to bound per-step swings.
    let actual = u128::from(actual_span_micros.max(1)).clamp(
        expected / u128::from(params.max_step),
        expected * u128::from(params.max_step),
    );
    let new = u128::from(old_difficulty) * expected / actual;
    u64::try_from(new).unwrap_or(u64::MAX).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difficulty_one_is_max_target() {
        assert_eq!(target_from_difficulty(1), Digest::MAX);
    }

    #[test]
    fn difficulty_two_halves_target() {
        let t = target_from_difficulty(2);
        // 2^256-1 / 2 = 0x7fff…ff
        assert_eq!(t.as_bytes()[0], 0x7f);
        assert!(t.as_bytes()[1..].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn power_of_two_difficulties_shift_target() {
        for bits in [0u32, 1, 4, 8, 13, 32, 63] {
            let t = target_from_difficulty(1u64 << bits);
            assert_eq!(
                t.leading_zero_bits(),
                bits,
                "difficulty 2^{bits} must have {bits} leading zero bits"
            );
        }
    }

    #[test]
    fn target_is_monotone_decreasing_in_difficulty() {
        let mut prev = Digest::MAX;
        for d in [1u64, 2, 3, 10, 1000, 1_000_000, u64::MAX] {
            let t = target_from_difficulty(d);
            assert!(t <= prev, "difficulty {d}");
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "difficulty must be at least 1")]
    fn zero_difficulty_rejected() {
        target_from_difficulty(0);
    }

    fn params() -> RetargetParams {
        RetargetParams {
            target_interval_micros: 600_000_000,
            window: 100,
            max_step: 4,
        }
    }

    #[test]
    fn on_target_span_keeps_difficulty() {
        let p = params();
        let span = p.target_interval_micros * p.window;
        assert_eq!(retarget(&p, 1000, span), 1000);
    }

    #[test]
    fn fast_window_raises_difficulty() {
        let p = params();
        let span = p.target_interval_micros * p.window / 2;
        assert_eq!(retarget(&p, 1000, span), 2000);
    }

    #[test]
    fn slow_window_lowers_difficulty() {
        let p = params();
        let span = p.target_interval_micros * p.window * 2;
        assert_eq!(retarget(&p, 1000, span), 500);
    }

    #[test]
    fn adjustment_clamped_to_max_step() {
        let p = params();
        let tiny_span = 1;
        assert_eq!(retarget(&p, 1000, tiny_span), 4000);
        let huge_span = p.target_interval_micros * p.window * 100;
        assert_eq!(retarget(&p, 1000, huge_span), 250);
    }

    #[test]
    fn difficulty_never_below_one() {
        let p = params();
        assert_eq!(retarget(&p, 1, u64::MAX), 1);
    }

    #[test]
    fn retarget_heights() {
        let p = params();
        assert!(!p.is_retarget_height(0));
        assert!(!p.is_retarget_height(99));
        assert!(p.is_retarget_height(100));
        assert!(p.is_retarget_height(200));
    }

    #[test]
    fn convergence_under_constant_hashrate() {
        // Simulate: hashrate h, difficulty d -> window span =
        // window * d / h seconds. Iterating retarget must converge to
        // d = h * target_interval.
        let p = RetargetParams {
            target_interval_micros: 600_000_000,
            window: 10,
            max_step: 4,
        };
        let hashrate_per_micro = 0.001; // 1000 hashes per second
        let mut difficulty = 1u64;
        for _ in 0..20 {
            let span_micros = (p.window as f64 * difficulty as f64 / hashrate_per_micro) as u64;
            difficulty = retarget(&p, difficulty, span_micros);
        }
        let ideal = (hashrate_per_micro * p.target_interval_micros as f64) as u64;
        assert!(
            (difficulty as f64 - ideal as f64).abs() / (ideal as f64) < 0.01,
            "difficulty {difficulty} vs ideal {ideal}"
        );
    }
}
